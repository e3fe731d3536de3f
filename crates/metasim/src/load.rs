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
use std::cell::{Ref, RefCell};

/// How far past the time a read asks about a lazy series realizes, at
/// least. Later extensions double the realized span.
const FIRST_CHUNK: SimTime = SimTime::from_secs(1024);

/// A piecewise-constant function of simulated time with values in
/// `[0, 1]`, closed on the left: the value at a change point is the new
/// value. The series extends its last value to infinity.
///
/// A series realized from a stochastic [`LoadModel`] is *lazy*: it
/// holds the change points realized so far plus the model's generator,
/// and every read first extends it just past the time it asks about,
/// doubling the realized span each time. The model's horizon is a
/// realization *cap*: the generator stops there, exactly where an eager
/// realization would, and the series holds its last value beyond it.
/// Since each model draws from one sequential stream, every prefix is
/// bit-identical to the full realization, so no read can tell how far
/// the series is realized. Writes ([`StepSeries::impose`] and permanent
/// faults) extend past the span they change before they splice.
#[derive(Debug, Clone)]
pub struct StepSeries {
    chain: RefCell<Chain>,
}

/// The realized change points of a [`StepSeries`] and the generator of
/// the rest.
#[derive(Debug, Clone)]
struct Chain {
    /// Strictly increasing change points with their values. The first
    /// point is always at `SimTime::ZERO`; consecutive values differ by
    /// at least `f64::EPSILON`.
    points: Vec<(SimTime, f64)>,
    /// The unrealized rest of the series; `None` once complete.
    tail: Option<Box<Tail>>,
}

/// The pending part of a lazily realized series.
#[derive(Debug, Clone)]
struct Tail {
    draw: Draw,
    /// The next raw point, drawn but not yet merged. Every change
    /// point before its time is realized.
    next: (SimTime, f64),
    /// The last value the untouched base series retained: the first
    /// deduplication at a join reproduces [`StepSeries::from_points`]'
    /// chain against it.
    base: f64,
    /// Every value still to come is above zero.
    positive: bool,
}

/// A stochastic model's raw point generator, mid-stream: the exact
/// loops an eager realization runs, one point per call.
#[derive(Debug, Clone)]
enum Draw {
    Periodic {
        high: f64,
        low: f64,
        /// Raw time of the next point, in microseconds; starts at
        /// `-phase` and is clamped to zero when emitted.
        t: i64,
        half_period: i64,
        /// Points are drawn while `t < end = horizon + half_period`.
        end: i64,
        level_high: bool,
    },
    RandomWalk {
        rng: ChaCha8Rng,
        v: f64,
        t: SimTime,
        step: f64,
        interval: SimTime,
        floor: f64,
        ceil: f64,
        horizon: SimTime,
    },
    MarkovOnOff {
        rng: ChaCha8Rng,
        idle: bool,
        t: SimTime,
        idle_avail: f64,
        busy_avail: f64,
        mean_idle: SimTime,
        mean_busy: SimTime,
        horizon: SimTime,
    },
}

impl Draw {
    /// Whether the horizon is passed: the eager loop's end condition.
    fn done(&self) -> bool {
        match self {
            Draw::Periodic { t, end, .. } => *t >= *end,
            Draw::RandomWalk { t, horizon, .. } | Draw::MarkovOnOff { t, horizon, .. } => {
                *t > *horizon
            }
        }
    }

    /// The next raw point; the caller checks [`Draw::done`] first.
    fn emit(&mut self) -> (SimTime, f64) {
        match self {
            Draw::Periodic {
                high,
                low,
                t,
                half_period,
                level_high,
                ..
            } => {
                let p = (
                    SimTime::from_micros((*t).max(0) as u64),
                    if *level_high { *high } else { *low },
                );
                *t += *half_period;
                *level_high = !*level_high;
                p
            }
            Draw::RandomWalk {
                rng,
                v,
                t,
                step,
                interval,
                floor,
                ceil,
                ..
            } => {
                let p = (*t, *v);
                *v += rng.gen_range(-*step..=*step);
                // Reflect into [floor, ceil].
                if *v > *ceil {
                    *v = 2.0 * *ceil - *v;
                }
                if *v < *floor {
                    *v = 2.0 * *floor - *v;
                }
                *v = v.clamp(*floor, *ceil);
                *t += *interval;
                p
            }
            Draw::MarkovOnOff {
                rng,
                idle,
                t,
                idle_avail,
                busy_avail,
                mean_idle,
                mean_busy,
                ..
            } => {
                let p = (*t, if *idle { *idle_avail } else { *busy_avail });
                let mean = if *idle { *mean_idle } else { *mean_busy };
                // Exponential holding time via inverse transform.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let hold = -u.ln() * mean.as_secs_f64();
                *t += SimTime::from_secs_f64(hold.max(1e-6));
                *idle = !*idle;
                p
            }
        }
    }
}

impl Tail {
    /// The next merged point — points sharing a time keep the last
    /// value, and values are clamped to `[0, 1]`, as in
    /// [`StepSeries::from_points`] — and whether more follow it.
    fn take(&mut self) -> ((SimTime, f64), bool) {
        let (t, mut v) = self.next;
        loop {
            if self.draw.done() {
                return ((t, v.clamp(0.0, 1.0)), false);
            }
            match self.draw.emit() {
                (nt, nv) if nt == t => v = nv,
                p => {
                    self.next = p;
                    return ((t, v.clamp(0.0, 1.0)), true);
                }
            }
        }
    }
}

/// Whether `v` repeats `prev` within `f64::EPSILON`: the
/// deduplication rule of [`StepSeries::from_points`].
fn repeats(v: f64, prev: f64) -> bool {
    (v - prev).abs() < f64::EPSILON
}

impl Chain {
    /// Whether every change point at or before `t` is realized.
    fn covers(&self, t: SimTime) -> bool {
        self.tail.as_ref().is_none_or(|tail| t < tail.next.0)
    }

    /// Whether the first change point after `t` is realized, or known
    /// not to exist.
    fn covers_past(&self, t: SimTime) -> bool {
        self.tail.is_none() || self.points.last().is_some_and(|&(pt, _)| pt > t)
    }

    /// Realize every change point at or before `t`, and on to twice the
    /// realized span or `t` plus [`FIRST_CHUNK`], whichever is later.
    fn extend_through(&mut self, t: SimTime) {
        let Chain { points, tail: slot } = self;
        let Some(tail) = slot.as_mut() else {
            return;
        };
        if t < tail.next.0 {
            return;
        }
        let target = SimTime(tail.next.0.as_micros().saturating_mul(2))
            .max(t.checked_add(FIRST_CHUNK).unwrap_or(SimTime::MAX));
        loop {
            let ((pt, v), more) = tail.take();
            // Two deduplications at the join: against the base series'
            // own last value (the chain `from_points` builds), then
            // against the last retained value, which an imposition
            // reaching the last realized point may have changed (the
            // suffix re-deduplication `impose` runs).
            if !repeats(v, tail.base) {
                tail.base = v;
                if !points.last().is_some_and(|&(_, last)| repeats(v, last)) {
                    points.push((pt, v));
                }
            }
            if !more {
                *slot = None;
                return;
            }
            if tail.next.0 > target {
                return;
            }
        }
    }

    /// Realize up to the first change point after `t`, or to the end.
    fn extend_past(&mut self, t: SimTime) {
        self.extend_through(t);
        while !self.covers_past(t) {
            let pending = self.tail.as_ref().map_or(t, |tail| tail.next.0);
            self.extend_through(pending);
        }
    }

    fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        self.points.get(idx).map(|&(pt, _)| pt)
    }
}

impl StepSeries {
    fn complete(points: Vec<(SimTime, f64)>) -> Self {
        StepSeries {
            chain: RefCell::new(Chain { points, tail: None }),
        }
    }

    /// A lazy series over `draw`'s points, realized up to time zero.
    /// `floor` bounds every value the model draws from below.
    fn lazy(mut draw: Draw, floor: f64) -> Self {
        // Every model draws its first point at or before time zero,
        // inside any horizon.
        let first = draw.emit();
        let mut tail = Tail {
            draw,
            next: first,
            base: 0.0,
            positive: floor > 0.0,
        };
        let ((t, v), more) = tail.take();
        tail.base = v;
        StepSeries {
            chain: RefCell::new(Chain {
                points: vec![(t, v)],
                tail: more.then(|| Box::new(tail)),
            }),
        }
    }

    /// The chain, realized through `t`.
    fn through(&self, t: SimTime) -> Ref<'_, Chain> {
        let chain = self.chain.borrow();
        if chain.covers(t) {
            return chain;
        }
        drop(chain);
        self.chain.borrow_mut().extend_through(t);
        self.chain.borrow()
    }

    /// The chain, realized in full.
    fn full(&self) -> Ref<'_, Chain> {
        self.through(SimTime::MAX)
    }

    /// A series pinned at `value` forever.
    pub fn constant(value: f64) -> Self {
        StepSeries::complete(vec![(SimTime::ZERO, value.clamp(0.0, 1.0))])
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
        points.dedup_by(|next, prev| repeats(next.1, prev.1));
        StepSeries::complete(points)
    }

    /// The value at time `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        self.through(t).value_at(t)
    }

    /// The next change strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        {
            let chain = self.chain.borrow();
            if chain.covers_past(t) {
                return chain.next_change_after(t);
            }
        }
        self.chain.borrow_mut().extend_past(t);
        self.chain.borrow().next_change_after(t)
    }

    /// Every change point of the full realization, up to the cap.
    /// Realizes the whole series; meant for tests and exports, not for
    /// reads inside a run.
    pub fn to_points(&self) -> Vec<(SimTime, f64)> {
        self.full().points.clone()
    }

    /// The time from which the full realization stays at exactly zero
    /// forever, if it ends at zero: what a permanent fault leaves.
    ///
    /// A series whose pending values are all above zero and whose last
    /// realized value is nonzero cannot end at zero, so it answers
    /// without realizing more; otherwise it realizes up to the cap.
    pub fn zero_since(&self) -> Option<SimTime> {
        {
            let chain = self.chain.borrow();
            let last_nonzero = chain.points.last().is_some_and(|&(_, v)| v != 0.0);
            if last_nonzero && chain.tail.as_ref().is_none_or(|tail| tail.positive) {
                return None;
            }
        }
        // Consecutive values differ, so the terminal outage is the last
        // point alone.
        let &(t, v) = self.full().points.last()?;
        (v == 0.0).then_some(t)
    }

    /// How far the series is realized: the time of the first change
    /// point not yet realized, or `None` once the series is complete.
    #[cfg(test)]
    pub(crate) fn realized_until(&self) -> Option<SimTime> {
        self.chain.borrow().tail.as_ref().map(|tail| tail.next.0)
    }

    /// Integral of the series over `[from, to]`, in value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        // Every change point in `[from, to]` is final once `to` is.
        let chain = self.through(to);
        let mut acc = 0.0;
        let mut cursor = from;
        let mut value = chain.value_at(from);
        while cursor < to {
            let next = chain
                .next_change_after(cursor)
                .map(|n| n.min(to))
                .unwrap_or(to);
            // simlint: allow(sim-time-hygiene): work integral, not a time sum — the f64 load value is weighted by each interval's length
            acc += value * (next - cursor).as_secs_f64();
            if next < to {
                value = chain.value_at(next);
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
        let mut chain = self.through(start);
        // `chain.points[next]` is the first change point after `cursor`.
        let mut next = chain.points.partition_point(|&(t, _)| t <= start);
        let mut value = chain.points[next - 1].1;
        loop {
            if next == chain.points.len() && chain.tail.is_some() {
                drop(chain);
                self.chain.borrow_mut().extend_past(cursor);
                chain = self.chain.borrow();
            }
            let rate = speed * value;
            match chain.points.get(next) {
                Some(&(n, v)) => {
                    let span = (n - cursor).as_secs_f64();
                    let capacity = rate * span;
                    if capacity >= remaining && rate > 0.0 {
                        let dt = remaining / rate;
                        return Ok(cursor + SimTime::from_secs_f64(dt));
                    }
                    remaining -= capacity;
                    value = v;
                    cursor = n;
                    next += 1;
                }
                None => {
                    // Final segment of the full realization: it
                    // extends forever.
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
    /// A lazy series is first realized past the latest window end;
    /// points realized later are deduplicated against the result.
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
        let chain = self.chain.get_mut();
        chain.extend_through(hi);
        let pts = &chain.points;
        // Base points inside the span are `pts[start..end]`.
        let start = pts.partition_point(|&(t, _)| t < lo);
        let end = pts.partition_point(|&(t, _)| t <= hi);
        let before = start.checked_sub(1).map(|i| pts[i].1);
        let mut out: Vec<(SimTime, f64)> = Vec::with_capacity(end - start + bounds.len());
        // Retain a point unless it repeats the last retained value.
        let keep = |out: &mut Vec<(SimTime, f64)>, (t, v): (SimTime, f64)| {
            let last = out.last().map(|p| p.1).or(before);
            if !last.is_some_and(|prev| repeats(v, prev)) {
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
        chain.points.splice(start..resync, out);
    }

    /// Pin the series to zero from `at` on, dropping every later change
    /// point and the unrealized rest: what a permanent fault leaves of a
    /// resource.
    pub(crate) fn zero_from(&mut self, at: SimTime) {
        let chain = self.chain.get_mut();
        chain.extend_through(at);
        chain.tail = None;
        let points = &mut chain.points;
        let keep = points.partition_point(|&(t, _)| t < at);
        points.truncate(keep);
        match points.last() {
            Some(&(_, v)) if repeats(v, 0.0) => {}
            _ => points.push((at, 0.0)),
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

/// Two series are equal when their full realizations are.
impl PartialEq for StepSeries {
    fn eq(&self, other: &Self) -> bool {
        self.full().points == other.full().points
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
    /// Realize the model into an availability series on `[0, horizon]`,
    /// deterministically for a given `seed`. The horizon is a
    /// realization cap: Periodic, RandomWalk and MarkovOnOff series are
    /// realized lazily, only as far as reads and writes reach, and never
    /// past the cap; beyond it a series holds its last value.
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
                let hp = half_period.as_micros() as i64;
                // Walk whole cycles from -phase so the wave is phase-shifted.
                let draw = Draw::Periodic {
                    high: *high,
                    low: *low,
                    t: 0i64 - phase.as_micros() as i64,
                    half_period: hp,
                    end: horizon.as_micros() as i64 + hp,
                    level_high: true,
                };
                StepSeries::lazy(draw, high.min(*low))
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
                let draw = Draw::RandomWalk {
                    rng: ChaCha8Rng::seed_from_u64(seed),
                    v: start.clamp(*floor, *ceil),
                    t: SimTime::ZERO,
                    step: *step,
                    interval: *interval,
                    floor: *floor,
                    ceil: *ceil,
                    horizon,
                };
                StepSeries::lazy(draw, *floor)
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
                let draw = Draw::MarkovOnOff {
                    rng: ChaCha8Rng::seed_from_u64(seed),
                    idle: true,
                    t: SimTime::ZERO,
                    idle_avail: *idle_avail,
                    busy_avail: *busy_avail,
                    mean_idle: *mean_idle,
                    mean_busy: *mean_busy,
                    horizon,
                };
                StepSeries::lazy(draw, idle_avail.min(*busy_avail))
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
            let mut times: Vec<SimTime> = ss.to_points().iter().map(|&(t, _)| t).collect();
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
            imposed(&near, &tilt).to_points(),
            [
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
        assert_eq!(
            ss.to_points(),
            [(s(0.0), 0.6), (s(5.0), 0.9), (s(7.0), 0.0)]
        );
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
        for &(_, v) in &a.to_points() {
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
        for &(_, v) in &a.to_points() {
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
    fn reads_realize_only_as_far_as_they_reach() {
        let interval = s(5.0);
        let walk = LoadModel::RandomWalk {
            start: 0.5,
            step: 0.1,
            interval,
            floor: 0.05,
            ceil: 1.0,
        };
        let ss = walk.realize(s(400_000.0), 9);
        let realized = |ss: &StepSeries| ss.chain.borrow().points.len() as f64;
        for t in [0.0, 30.0, 600.0, 1500.0, 2600.0, 2700.0, 9000.0] {
            ss.value_at(s(t));
            let bound = (2.0 * t + FIRST_CHUNK.as_secs_f64()) / interval.as_secs_f64() + 2.0;
            assert!(
                realized(&ss) <= bound,
                "value_at({t}) realized {} points, bound {bound}",
                realized(&ss)
            );
            let until = ss.realized_until().expect("a tail is pending");
            assert!(until > s(t) && until <= s(2.0 * t) + FIRST_CHUNK + interval);
        }
        // The floor is above zero, so no read needs the rest to know the
        // series never dies.
        let before = ss.realized_until();
        assert_eq!(ss.zero_since(), None);
        assert_eq!(ss.realized_until(), before);
        // A clone extends on its own and agrees with the original.
        let copy = ss.clone();
        copy.value_at(s(50_000.0));
        assert_eq!(ss.realized_until(), before);
        assert_eq!(copy.value_at(s(40_000.0)), ss.value_at(s(40_000.0)));
        // A permanent fault leaves no tail.
        let mut dead = ss.clone();
        dead.zero_from(s(3_000.0));
        assert_eq!(dead.realized_until(), None);
        assert_eq!(dead.zero_since(), Some(s(3_000.0)));
        // Equality compares full realizations, up to the cap.
        assert_eq!(ss, walk.realize(s(400_000.0), 9));
        assert_eq!(ss.realized_until(), None);
    }

    #[test]
    fn trace_model_replays() {
        let m = LoadModel::Trace(vec![(s(0.0), 0.9), (s(3.0), 0.1)]);
        let ss = m.realize(s(10.0), 0);
        assert_eq!(ss.value_at(s(1.0)), 0.9);
        assert_eq!(ss.value_at(s(4.0)), 0.1);
    }
}
