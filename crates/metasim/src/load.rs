//! Background load and resource availability.
//!
//! The AppLeS paper's central premise (§3.2) is that metacomputing
//! resources are *non-dedicated*: other users' jobs create contention, so
//! from the application's perspective each resource delivers a
//! time-varying fraction of its nominal capability. We model this
//! fraction as a piecewise-constant **availability process** in `[0, 1]`:
//! a CPU with nominal speed `S` and availability `a(t)` delivers work at
//! rate `S * a(t)`; a link with capacity `B` delivers `B * a(t)` to
//! foreground transfers.
//!
//! [`StepSeries`] is the concrete representation; [`LoadModel`] describes
//! the stochastic processes used to generate one. Generation is
//! deterministic per seed so experiments are reproducible, and the same
//! realized series can be replayed for every scheduling policy under
//! comparison — the "back-to-back under similar conditions" methodology
//! of the paper's §5.

use crate::error::SimError;
use crate::time::SimTime;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A piecewise-constant function of simulated time with values in
/// `[0, 1]`, closed on the left: the value at a change point is the new
/// value. The series extends its last value to infinity.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSeries {
    /// Strictly increasing change points with their values. The first
    /// point is always at `SimTime::ZERO`.
    points: Vec<(SimTime, f64)>,
}

impl StepSeries {
    /// A series pinned at `value` forever.
    pub fn constant(value: f64) -> Self {
        StepSeries {
            points: vec![(SimTime::ZERO, value.clamp(0.0, 1.0))],
        }
    }

    /// Build from explicit `(time, value)` pairs.
    ///
    /// Points are sorted; duplicates at the same time keep the last
    /// value; values are clamped to `[0, 1]`. If no point is given at
    /// time zero, the earliest value is extended back to time zero.
    pub fn from_points(mut pts: Vec<(SimTime, f64)>) -> Self {
        // simlint: allow(panic-in-lib): documented precondition; an empty series has no value to extend
        assert!(!pts.is_empty(), "StepSeries needs at least one point");
        pts.sort_by_key(|&(t, _)| t);
        let mut points: Vec<(SimTime, f64)> = Vec::with_capacity(pts.len());
        for (t, v) in pts {
            let v = v.clamp(0.0, 1.0);
            match points.last_mut() {
                Some(last) if last.0 == t => last.1 = v,
                _ => points.push((t, v)),
            }
        }
        if points[0].0 != SimTime::ZERO {
            let v0 = points[0].1;
            points.insert(0, (SimTime::ZERO, v0));
        }
        // Drop redundant points that repeat the previous value.
        points.dedup_by(|next, prev| (next.1 - prev.1).abs() < f64::EPSILON);
        StepSeries { points }
    }

    /// The value at time `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The change points of the series.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The next change strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        self.points.get(idx).map(|&(pt, _)| pt)
    }

    /// Integral of the series over `[from, to]`, in value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        while cursor < to {
            let next = self
                .next_change_after(cursor)
                .map(|n| n.min(to))
                .unwrap_or(to);
            // simlint: allow(sim-time-hygiene): work integral, not a time sum — the f64 load value is weighted by each interval's length
            acc += value * (next - cursor).as_secs_f64();
            if next < to {
                value = self.value_at(next);
            }
            cursor = next;
        }
        acc
    }

    /// Mean value over `[from, to]`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let dur = (to.saturating_sub(from)).as_secs_f64();
        if dur <= 0.0 {
            return self.value_at(from);
        }
        self.integral(from, to) / dur
    }

    /// Time at which `work` units complete when processed at rate
    /// `speed * value(t)` starting at `start`.
    ///
    /// Returns [`SimError::NeverCompletes`] if the availability stays at
    /// zero forever after some point, and an error if `speed <= 0`.
    pub fn time_to_complete(
        &self,
        start: SimTime,
        work: f64,
        speed: f64,
    ) -> Result<SimTime, SimError> {
        if speed <= 0.0 || !speed.is_finite() {
            return Err(SimError::NonPositive {
                what: "speed",
                value: speed,
            });
        }
        if work <= 0.0 {
            return Ok(start);
        }
        let mut remaining = work;
        let mut cursor = start;
        let mut value = self.value_at(start);
        loop {
            let next = self.next_change_after(cursor);
            let rate = speed * value;
            match next {
                Some(n) => {
                    let span = (n - cursor).as_secs_f64();
                    let capacity = rate * span;
                    if capacity >= remaining && rate > 0.0 {
                        let dt = remaining / rate;
                        return Ok(cursor + SimTime::from_secs_f64(dt));
                    }
                    remaining -= capacity;
                    value = self.value_at(n);
                    cursor = n;
                }
                None => {
                    // Final segment extends forever.
                    if rate <= 0.0 {
                        return Err(SimError::NeverCompletes { work: remaining });
                    }
                    let dt = remaining / rate;
                    return Ok(cursor + SimTime::from_secs_f64(dt));
                }
            }
        }
    }

    /// Apply a set of [`Imposition`]s in place. Overlapping windows
    /// compose multiplicatively: two jobs each taking a 50% share of a
    /// host leave 25% of it for a third observer.
    ///
    /// Only the span `[min from, max to]` can change. Its base points
    /// are re-swept together with the window edges, and a sorted index
    /// list of the open windows gives the combined factor at each edge
    /// in `O(k)` for overlap depth `k`, multiplying factors in
    /// imposition order. Each value is clamped into `[0, 1]` and
    /// dropped when it repeats the last retained value within
    /// `f64::EPSILON`. The prefix before the span is left alone: it is
    /// already clamped and deduplicated, and deduplication only looks
    /// forward. The suffix is re-deduplicated only until the last
    /// retained value equals its original predecessor bit for bit;
    /// from there on every decision matches the original one. A call
    /// costs `O(log n + w)` for `w` points in the window (plus
    /// `O(m log m)` to sort `m` window edges), and one move of the
    /// tail when the point count changes.
    ///
    /// The result equals, bit for bit, a full rebuild that evaluates
    /// every change point against every window. Empty windows
    /// (`to <= from`) are ignored; factors are floored at zero.
    pub fn impose(&mut self, impositions: &[Imposition]) {
        // Window edges: (time, is_end, imposition index), time-sorted.
        let mut bounds: Vec<(SimTime, bool, usize)> = Vec::with_capacity(impositions.len() * 2);
        for (k, imp) in impositions.iter().enumerate() {
            if imp.to > imp.from {
                bounds.push((imp.from, false, k));
                bounds.push((imp.to, true, k));
            }
        }
        bounds.sort_unstable();
        let (lo, hi) = match (bounds.first(), bounds.last()) {
            (Some(first), Some(last)) => (first.0, last.0),
            _ => return,
        };
        let pts = &self.points;
        // Base points inside the span are `pts[start..end]`.
        let start = pts.partition_point(|&(t, _)| t < lo);
        let end = pts.partition_point(|&(t, _)| t <= hi);
        let before = start.checked_sub(1).map(|i| pts[i].1);
        let mut out: Vec<(SimTime, f64)> = Vec::with_capacity(end - start + bounds.len());
        // Retain a point unless it repeats the last retained value.
        let keep = |out: &mut Vec<(SimTime, f64)>, (t, v): (SimTime, f64)| {
            let last = out.last().map(|p| p.1).or(before);
            if !matches!(last, Some(prev) if (v - prev).abs() < f64::EPSILON) {
                out.push((t, v));
            }
        };

        // Indices of the windows open at the sweep time, kept sorted
        // ascending: recomputing the product over this list multiplies
        // factors in imposition order, exactly like the sequential
        // application, while costing only the current overlap depth
        // instead of a rescan of every window per edge.
        let mut active: Vec<usize> = Vec::new();
        let mut combined = 1.0f64;
        let mut bi = 0usize; // next unprocessed window edge
        let mut next = start; // next unvisited base point in the span
        loop {
            let t = match (pts[next..end].first(), bounds.get(bi)) {
                (Some(p), Some(b)) => p.0.min(b.0),
                (Some(p), None) => p.0,
                (None, Some(b)) => b.0,
                (None, None) => break,
            };
            if next < end && pts[next].0 == t {
                next += 1;
            }
            let mut changed = false;
            while bi < bounds.len() && bounds[bi].0 == t {
                let (_, is_end, k) = bounds[bi];
                match (active.binary_search(&k), is_end) {
                    (Ok(pos), true) => {
                        active.remove(pos); // windows are [from, to)
                    }
                    (Err(pos), false) => active.insert(pos, k),
                    // A window's start strictly precedes its end
                    // (`to > from` filtered above) and indices are
                    // unique, so an edge never finds its window in the
                    // opposite state.
                    _ => {}
                }
                changed = true;
                bi += 1;
            }
            if changed {
                combined = active
                    .iter()
                    .map(|&k| impositions[k].factor.max(0.0))
                    .product();
            }
            // The base point in force at `t` is `pts[next - 1]`; `next`
            // is at least one because `pts[0]` sits at zero <= `lo`.
            keep(&mut out, (t, (pts[next - 1].1 * combined).clamp(0.0, 1.0)));
        }

        // Past the span every value is the base's own; a suffix point
        // can only be dropped while the last retained value differs
        // from the one it was originally deduplicated against.
        let mut resync = end;
        while resync < pts.len() {
            let last = out.last().map(|p| p.1).or(before);
            if last.map(f64::to_bits) == Some(pts[resync - 1].1.to_bits()) {
                break;
            }
            keep(&mut out, pts[resync]);
            resync += 1;
        }
        self.points.splice(start..resync, out);
    }

    /// Pin the series to zero from `at` on, dropping every later change
    /// point: what a permanent fault leaves of a resource.
    pub(crate) fn zero_from(&mut self, at: SimTime) {
        let keep = self.points.partition_point(|&(t, _)| t < at);
        self.points.truncate(keep);
        match self.points.last() {
            Some(&(_, v)) if v.abs() < f64::EPSILON => {}
            _ => self.points.push((at, 0.0)),
        }
    }

    /// Sample the series at a fixed period over `[0, horizon]`, as a
    /// measurement stream (what a sensor would observe).
    pub fn sample(&self, period: SimTime, horizon: SimTime) -> Vec<(SimTime, f64)> {
        // simlint: allow(panic-in-lib): documented precondition; a zero period would loop forever
        assert!(period > SimTime::ZERO, "sampling period must be positive");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= horizon {
            out.push((t, self.value_at(t)));
            t += period;
        }
        out
    }
}

/// One application's resource usage expressed as a multiplicative drag
/// on the availability everyone else observes: inside `[from, to)` the
/// underlying series is scaled by `factor`. A job taking a 60% share of
/// a host for its run imposes `factor = 0.4` over that window.
///
/// Apply a batch in place with [`StepSeries::impose`], which costs
/// `O(log n + w)` for `w` points in the windows plus one tail move;
/// overlapping windows compose multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imposition {
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub to: SimTime,
    /// Multiplier applied to availability inside the window; floored at
    /// zero when applied.
    pub factor: f64,
}

impl Imposition {
    /// An imposition scaling availability by `factor` over `[from, to)`.
    pub fn new(from: SimTime, to: SimTime, factor: f64) -> Self {
        Imposition { from, to, factor }
    }

    /// Whether the window covers time `t` (left-closed, right-open).
    pub fn active_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.to
    }
}

/// A stochastic model of background load, realized into a [`StepSeries`]
/// of *availability* over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Fixed availability (a dedicated resource is `Constant(1.0)`).
    Constant(f64),
    /// Square wave alternating between `high` and `low` with the given
    /// half-period: models a periodic competing job (e.g. a cron batch).
    Periodic {
        /// Availability during the high half-cycle.
        high: f64,
        /// Availability during the low half-cycle.
        low: f64,
        /// Length of each half-cycle.
        half_period: SimTime,
        /// Phase offset into the cycle at time zero.
        phase: SimTime,
    },
    /// Bounded random walk: availability takes a step uniform in
    /// `[-step, step]` every `interval`, reflected into `[floor, ceil]`.
    /// Models drifting multi-user load, the regime the Network Weather
    /// Service was designed to forecast.
    RandomWalk {
        /// Initial availability.
        start: f64,
        /// Maximum step magnitude per interval.
        step: f64,
        /// Time between steps.
        interval: SimTime,
        /// Lower reflection bound.
        floor: f64,
        /// Upper reflection bound.
        ceil: f64,
    },
    /// Two-state Markov-modulated load: the resource alternates between
    /// a `busy` availability and an `idle` availability, with
    /// exponentially distributed state holding times. Models an
    /// interactive user who comes and goes.
    MarkovOnOff {
        /// Availability while the competing user is away.
        idle_avail: f64,
        /// Availability while the competing user is active.
        busy_avail: f64,
        /// Mean holding time of the idle state.
        mean_idle: SimTime,
        /// Mean holding time of the busy state.
        mean_busy: SimTime,
    },
    /// Replay an explicit trace.
    Trace(Vec<(SimTime, f64)>),
}

impl LoadModel {
    /// Realize the model into a concrete availability series on
    /// `[0, horizon]`, deterministically for a given `seed`.
    pub fn realize(&self, horizon: SimTime, seed: u64) -> StepSeries {
        match self {
            LoadModel::Constant(v) => StepSeries::constant(*v),
            LoadModel::Periodic {
                high,
                low,
                half_period,
                phase,
            } => {
                // simlint: allow(panic-in-lib): documented precondition; a zero half-period would generate infinite points
                assert!(
                    *half_period > SimTime::ZERO,
                    "periodic load needs a positive half-period"
                );
                let mut pts = Vec::new();
                // Walk whole cycles from -phase so the wave is phase-shifted.
                let mut t = 0i64 - phase.as_micros() as i64;
                let hp = half_period.as_micros() as i64;
                let mut level_high = true;
                while t < horizon.as_micros() as i64 + hp {
                    let clamped = t.max(0) as u64;
                    pts.push((
                        SimTime::from_micros(clamped),
                        if level_high { *high } else { *low },
                    ));
                    t += hp;
                    level_high = !level_high;
                }
                StepSeries::from_points(pts)
            }
            LoadModel::RandomWalk {
                start,
                step,
                interval,
                floor,
                ceil,
            } => {
                // simlint: allow(panic-in-lib): documented precondition; a zero interval would generate infinite points
                assert!(
                    *interval > SimTime::ZERO,
                    "random walk needs a positive interval"
                );
                // simlint: allow(panic-in-lib): documented precondition; an inverted range has no valid sample
                assert!(floor <= ceil, "random walk floor must not exceed ceil");
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut pts = Vec::new();
                let mut v = start.clamp(*floor, *ceil);
                let mut t = SimTime::ZERO;
                while t <= horizon {
                    pts.push((t, v));
                    let delta = rng.gen_range(-*step..=*step);
                    v += delta;
                    // Reflect into [floor, ceil].
                    if v > *ceil {
                        v = 2.0 * ceil - v;
                    }
                    if v < *floor {
                        v = 2.0 * floor - v;
                    }
                    v = v.clamp(*floor, *ceil);
                    t += *interval;
                }
                StepSeries::from_points(pts)
            }
            LoadModel::MarkovOnOff {
                idle_avail,
                busy_avail,
                mean_idle,
                mean_busy,
            } => {
                // simlint: allow(panic-in-lib): documented precondition; zero holding times would generate infinite points
                assert!(
                    *mean_idle > SimTime::ZERO && *mean_busy > SimTime::ZERO,
                    "Markov on/off needs positive mean holding times"
                );
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut pts = Vec::new();
                let mut idle = true;
                let mut t = SimTime::ZERO;
                while t <= horizon {
                    pts.push((t, if idle { *idle_avail } else { *busy_avail }));
                    let mean = if idle { *mean_idle } else { *mean_busy };
                    // Exponential holding time via inverse transform.
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let hold = -u.ln() * mean.as_secs_f64();
                    t += SimTime::from_secs_f64(hold.max(1e-6));
                    idle = !idle;
                }
                StepSeries::from_points(pts)
            }
            LoadModel::Trace(pts) => StepSeries::from_points(pts.clone()),
        }
    }

    /// The long-run mean availability of the model (exact where a closed
    /// form exists, otherwise estimated from a realization).
    pub fn mean_availability(&self, horizon: SimTime, seed: u64) -> f64 {
        match self {
            LoadModel::Constant(v) => v.clamp(0.0, 1.0),
            LoadModel::Periodic { high, low, .. } => (high + low) / 2.0,
            LoadModel::MarkovOnOff {
                idle_avail,
                busy_avail,
                mean_idle,
                mean_busy,
            } => {
                let wi = mean_idle.as_secs_f64();
                let wb = mean_busy.as_secs_f64();
                (idle_avail * wi + busy_avail * wb) / (wi + wb)
            }
            _ => self.realize(horizon, seed).mean(SimTime::ZERO, horizon),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    #[test]
    fn constant_series() {
        let c = StepSeries::constant(0.5);
        assert_eq!(c.value_at(SimTime::ZERO), 0.5);
        assert_eq!(c.value_at(s(1e6)), 0.5);
        assert!((c.integral(s(0.0), s(10.0)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn values_are_clamped() {
        let c = StepSeries::constant(3.0);
        assert_eq!(c.value_at(SimTime::ZERO), 1.0);
        let p = StepSeries::from_points(vec![(SimTime::ZERO, -0.5)]);
        assert_eq!(p.value_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn step_lookup_is_left_closed() {
        let ss = StepSeries::from_points(vec![(s(0.0), 1.0), (s(10.0), 0.25)]);
        assert_eq!(ss.value_at(s(9.999_999)), 1.0);
        assert_eq!(ss.value_at(s(10.0)), 0.25);
        assert_eq!(ss.value_at(s(11.0)), 0.25);
    }

    #[test]
    fn from_points_sorts_and_backfills_origin() {
        let ss = StepSeries::from_points(vec![(s(5.0), 0.2), (s(2.0), 0.8)]);
        assert_eq!(ss.value_at(SimTime::ZERO), 0.8);
        assert_eq!(ss.value_at(s(3.0)), 0.8);
        assert_eq!(ss.value_at(s(5.0)), 0.2);
    }

    #[test]
    fn integral_across_steps() {
        let ss = StepSeries::from_points(vec![(s(0.0), 1.0), (s(10.0), 0.5)]);
        // [0,20]: 10*1.0 + 10*0.5 = 15
        assert!((ss.integral(s(0.0), s(20.0)) - 15.0).abs() < 1e-9);
        // [5,15]: 5*1.0 + 5*0.5 = 7.5
        assert!((ss.integral(s(5.0), s(15.0)) - 7.5).abs() < 1e-9);
        // Degenerate interval.
        assert_eq!(ss.integral(s(5.0), s(5.0)), 0.0);
    }

    #[test]
    fn time_to_complete_full_availability() {
        let ss = StepSeries::constant(1.0);
        let done = ss.time_to_complete(SimTime::ZERO, 100.0, 10.0).unwrap();
        assert_eq!(done, s(10.0));
    }

    #[test]
    fn time_to_complete_spanning_step() {
        // Full speed for 5 s, then half speed. 100 units at speed 10:
        // 50 done by t=5, remaining 50 at rate 5 takes 10 more seconds.
        let ss = StepSeries::from_points(vec![(s(0.0), 1.0), (s(5.0), 0.5)]);
        let done = ss.time_to_complete(SimTime::ZERO, 100.0, 10.0).unwrap();
        assert_eq!(done, s(15.0));
    }

    #[test]
    fn time_to_complete_waits_out_zero_availability() {
        let ss = StepSeries::from_points(vec![(s(0.0), 0.0), (s(10.0), 1.0)]);
        let done = ss.time_to_complete(SimTime::ZERO, 10.0, 10.0).unwrap();
        assert_eq!(done, s(11.0));
    }

    #[test]
    fn time_to_complete_zero_forever_errors() {
        let ss = StepSeries::constant(0.0);
        assert!(matches!(
            ss.time_to_complete(SimTime::ZERO, 1.0, 1.0),
            Err(SimError::NeverCompletes { .. })
        ));
    }

    #[test]
    fn time_to_complete_rejects_bad_speed() {
        let ss = StepSeries::constant(1.0);
        assert!(ss.time_to_complete(SimTime::ZERO, 1.0, 0.0).is_err());
        assert!(ss.time_to_complete(SimTime::ZERO, 1.0, -1.0).is_err());
    }

    #[test]
    fn time_to_complete_zero_work_is_instant() {
        let ss = StepSeries::constant(0.0);
        assert_eq!(ss.time_to_complete(s(3.0), 0.0, 1.0).unwrap(), s(3.0));
    }

    /// A copy of `ss` with `imps` imposed.
    fn imposed(ss: &StepSeries, imps: &[Imposition]) -> StepSeries {
        let mut out = ss.clone();
        out.impose(imps);
        out
    }

    #[test]
    fn impose_scales_only_the_window() {
        let ss = StepSeries::from_points(vec![(s(0.0), 0.8), (s(20.0), 0.4)]);
        let scaled = imposed(&ss, &[Imposition::new(s(5.0), s(25.0), 0.5)]);
        assert_eq!(scaled.value_at(s(0.0)), 0.8); // before window
        assert_eq!(scaled.value_at(s(10.0)), 0.4); // 0.8 * 0.5
        assert_eq!(scaled.value_at(s(22.0)), 0.2); // 0.4 * 0.5
        assert_eq!(scaled.value_at(s(25.0)), 0.4); // window ends
        assert_eq!(scaled.value_at(s(30.0)), 0.4);
    }

    #[test]
    fn impose_handles_interior_windows() {
        let ss = StepSeries::constant(1.0);
        let scaled = imposed(&ss, &[Imposition::new(s(10.0), s(20.0), 0.25)]);
        assert_eq!(scaled.value_at(s(9.0)), 1.0);
        assert_eq!(scaled.value_at(s(10.0)), 0.25);
        assert_eq!(scaled.value_at(s(19.9)), 0.25);
        assert_eq!(scaled.value_at(s(20.0)), 1.0);
    }

    #[test]
    fn scaling_to_zero_blocks_the_window() {
        let ss = StepSeries::constant(1.0);
        let scaled = imposed(&ss, &[Imposition::new(s(2.0), s(4.0), 0.0)]);
        assert_eq!(scaled.value_at(s(3.0)), 0.0);
        // Work started before the block resumes after it.
        let done = scaled.time_to_complete(SimTime::ZERO, 30.0, 10.0).unwrap();
        assert_eq!(done, s(5.0)); // 2 s + 2 s blocked + 1 s
    }

    #[test]
    fn impositions_compose_multiplicatively() {
        let ss = StepSeries::constant(1.0);
        let layered = imposed(
            &ss,
            &[
                Imposition::new(s(0.0), s(20.0), 0.5),
                Imposition::new(s(10.0), s(30.0), 0.5),
            ],
        );
        assert_eq!(layered.value_at(s(5.0)), 0.5); // first only
        assert_eq!(layered.value_at(s(15.0)), 0.25); // both overlap
        assert_eq!(layered.value_at(s(25.0)), 0.5); // second only
        assert_eq!(layered.value_at(s(35.0)), 1.0); // neither
    }

    #[test]
    fn batched_impose_matches_sequential_scaling() {
        let ss = StepSeries::from_points(vec![(s(0.0), 0.9), (s(12.0), 0.6), (s(40.0), 0.3)]);
        let imps = [
            Imposition::new(s(5.0), s(25.0), 0.7),
            Imposition::new(s(18.0), s(50.0), 0.4),
            Imposition::new(s(20.0), s(20.0), 0.0), // empty: ignored
        ];
        let batched = imposed(&ss, &imps);
        let mut sequential = ss.clone();
        for imp in &imps {
            sequential.impose(std::slice::from_ref(imp));
        }
        for t in [0.0, 5.0, 10.0, 18.0, 19.0, 25.0, 39.0, 45.0, 60.0] {
            assert!(
                (batched.value_at(s(t)) - sequential.value_at(s(t))).abs() < 1e-12,
                "mismatch at t={t}: {} vs {}",
                batched.value_at(s(t)),
                sequential.value_at(s(t)),
            );
        }
    }

    #[test]
    fn impose_matches_per_time_scan_exactly() {
        // Oracle: evaluate every change point by filtering the full
        // imposition list, then rebuild the whole series. The in-place
        // sweep must reproduce it bit for bit.
        fn scan(ss: &StepSeries, imps: &[Imposition]) -> StepSeries {
            let live: Vec<&Imposition> = imps.iter().filter(|i| i.to > i.from).collect();
            let mut times: Vec<SimTime> = ss.points().iter().map(|&(t, _)| t).collect();
            for imp in &live {
                times.push(imp.from);
                times.push(imp.to);
            }
            times.sort_unstable();
            times.dedup();
            StepSeries::from_points(
                times
                    .into_iter()
                    .map(|t| {
                        let combined: f64 = live
                            .iter()
                            .filter(|i| i.active_at(t))
                            .map(|i| i.factor.max(0.0))
                            .product();
                        (t, ss.value_at(t) * combined)
                    })
                    .collect(),
            )
        }
        let ss = StepSeries::from_points(vec![
            (s(0.0), 0.93),
            (s(3.7), 0.41),
            (s(11.2), 0.77),
            (s(29.0), 0.13),
            (s(53.5), 0.88),
        ]);
        // Messy overlap: nested, abutting, duplicated edges, windows
        // starting on base points, negative factor (floored at zero).
        let imps = [
            Imposition::new(s(1.0), s(30.0), 0.71),
            Imposition::new(s(3.7), s(11.2), 0.53),
            Imposition::new(s(5.0), s(5.0), 0.9), // empty: ignored
            Imposition::new(s(11.2), s(29.0), 0.97),
            Imposition::new(s(1.0), s(60.0), 0.83),
            Imposition::new(s(40.0), s(45.0), -0.5),
            Imposition::new(s(45.0), s(55.0), 0.31),
        ];
        assert_eq!(imposed(&ss, &imps), scan(&ss, &imps));
        // A unit factor leaves a window edge that repeats its
        // predecessor; it is dropped, and the suffix resyncs at once.
        let unit = [Imposition::new(s(20.0), s(40.0), 1.0)];
        assert_eq!(imposed(&ss, &unit), ss);
        // A near-unit factor drops the window's closing edge as a
        // repeat, so the first suffix point is compared against a value
        // one ulp off its original predecessor and is dropped too; the
        // suffix is re-deduplicated until the chain resyncs.
        let near = StepSeries::from_points(vec![
            (s(0.0), 0.5),
            (s(10.0), 1.0),
            (s(20.0), 1.0 - f64::EPSILON),
            (s(30.0), 0.5),
        ]);
        let tilt = [Imposition::new(s(5.0), s(15.0), 1.0 - f64::EPSILON / 2.0)];
        assert_eq!(
            imposed(&near, &tilt).points(),
            &[
                (s(0.0), 0.5),
                (s(10.0), 1.0 - f64::EPSILON / 2.0),
                (s(30.0), 0.5)
            ]
        );
        assert_eq!(imposed(&near, &tilt), scan(&near, &tilt));
    }

    #[test]
    fn empty_imposition_set_is_identity() {
        let ss = StepSeries::from_points(vec![(s(0.0), 0.6), (s(5.0), 0.9)]);
        assert_eq!(imposed(&ss, &[]), ss);
        assert_eq!(imposed(&ss, &[Imposition::new(s(7.0), s(7.0), 0.1)]), ss);
        assert_eq!(imposed(&ss, &[Imposition::new(s(9.0), s(3.0), 0.1)]), ss);
    }

    #[test]
    fn imposition_negative_factor_floors_at_zero() {
        let ss = StepSeries::constant(0.8);
        let layered = imposed(&ss, &[Imposition::new(s(1.0), s(2.0), -3.0)]);
        assert_eq!(layered.value_at(s(1.5)), 0.0);
        assert_eq!(layered.value_at(s(2.5)), 0.8);
    }

    #[test]
    fn zero_from_truncates_and_pins_at_zero() {
        let mut ss = StepSeries::from_points(vec![(s(0.0), 0.6), (s(5.0), 0.9), (s(9.0), 0.2)]);
        ss.zero_from(s(7.0));
        assert_eq!(ss.points(), &[(s(0.0), 0.6), (s(5.0), 0.9), (s(7.0), 0.0)]);
        ss.zero_from(SimTime::ZERO);
        assert_eq!(ss, StepSeries::constant(0.0));
    }

    #[test]
    fn periodic_realization_alternates() {
        let m = LoadModel::Periodic {
            high: 1.0,
            low: 0.2,
            half_period: s(10.0),
            phase: SimTime::ZERO,
        };
        let ss = m.realize(s(100.0), 0);
        assert_eq!(ss.value_at(s(5.0)), 1.0);
        assert_eq!(ss.value_at(s(15.0)), 0.2);
        assert_eq!(ss.value_at(s(25.0)), 1.0);
    }

    #[test]
    fn periodic_phase_shifts_the_wave() {
        let m = LoadModel::Periodic {
            high: 1.0,
            low: 0.2,
            half_period: s(10.0),
            phase: s(10.0),
        };
        let ss = m.realize(s(100.0), 0);
        // With a half-period phase offset, the wave starts low.
        assert_eq!(ss.value_at(s(5.0)), 0.2);
        assert_eq!(ss.value_at(s(15.0)), 1.0);
    }

    #[test]
    fn random_walk_stays_in_bounds_and_is_deterministic() {
        let m = LoadModel::RandomWalk {
            start: 0.5,
            step: 0.3,
            interval: s(1.0),
            floor: 0.1,
            ceil: 0.9,
        };
        let a = m.realize(s(500.0), 42);
        let b = m.realize(s(500.0), 42);
        assert_eq!(a, b);
        for &(_, v) in a.points() {
            assert!((0.1..=0.9).contains(&v), "walk escaped bounds: {v}");
        }
        let c = m.realize(s(500.0), 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn markov_on_off_is_deterministic_and_two_valued() {
        let m = LoadModel::MarkovOnOff {
            idle_avail: 1.0,
            busy_avail: 0.3,
            mean_idle: s(20.0),
            mean_busy: s(10.0),
        };
        let a = m.realize(s(1000.0), 7);
        assert_eq!(a, m.realize(s(1000.0), 7));
        for &(_, v) in a.points() {
            assert!(v == 1.0 || v == 0.3, "unexpected level {v}");
        }
    }

    #[test]
    fn markov_mean_availability_matches_theory() {
        let m = LoadModel::MarkovOnOff {
            idle_avail: 1.0,
            busy_avail: 0.0,
            mean_idle: s(30.0),
            mean_busy: s(10.0),
        };
        let theory = m.mean_availability(s(1.0), 0);
        assert!((theory - 0.75).abs() < 1e-12);
        // Empirical mean over a long horizon should be near the theory.
        let ss = m.realize(s(50_000.0), 11);
        let emp = ss.mean(SimTime::ZERO, s(50_000.0));
        assert!(
            (emp - theory).abs() < 0.05,
            "empirical {emp} vs theoretical {theory}"
        );
    }

    #[test]
    fn sampling_produces_regular_stream() {
        let ss = StepSeries::from_points(vec![(s(0.0), 1.0), (s(5.0), 0.5)]);
        let samples = ss.sample(s(2.0), s(8.0));
        assert_eq!(samples.len(), 5); // t = 0,2,4,6,8
        assert_eq!(samples[0].1, 1.0);
        assert_eq!(samples[3].1, 0.5);
    }

    #[test]
    fn next_change_after_finds_following_point() {
        let ss = StepSeries::from_points(vec![(s(0.0), 1.0), (s(5.0), 0.5), (s(9.0), 0.7)]);
        assert_eq!(ss.next_change_after(SimTime::ZERO), Some(s(5.0)));
        assert_eq!(ss.next_change_after(s(5.0)), Some(s(9.0)));
        assert_eq!(ss.next_change_after(s(9.0)), None);
        assert_eq!(ss.next_change_after(s(4.0)), Some(s(5.0)));
    }

    #[test]
    fn trace_model_replays() {
        let m = LoadModel::Trace(vec![(s(0.0), 0.9), (s(3.0), 0.1)]);
        let ss = m.realize(s(10.0), 0);
        assert_eq!(ss.value_at(s(1.0)), 0.9);
        assert_eq!(ss.value_at(s(4.0)), 0.1);
    }
}
