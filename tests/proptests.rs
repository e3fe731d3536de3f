//! Property-based tests across the stack: invariants of the planner,
//! the availability algebra, the partitioned numerics, and the
//! forecasters, on randomized inputs.

use apples::hat::jacobi2d_hat;
use apples::info::InfoPool;
use apples::planner::plan_strip;
use apples::user::UserSpec;
use apples_apps::jacobi2d::{Grid, PartitionedRun};
use metasim::fault::{apply_faults, FaultSpec, HostFault};
use metasim::host::HostSpec;
use metasim::load::{Imposition, LoadModel, StepSeries};
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::{HostId, NoopSink, SimTime, Topology};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

/// Arbitrary small host pool on one segment.
fn topo_from(speeds: &[f64], mems: &[f64]) -> Topology {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::dedicated("seg", 5.0, SimTime::from_millis(1)));
    for (i, (&sp, &mem)) in speeds.iter().zip(mems).enumerate() {
        b.add_host(HostSpec::dedicated(&format!("h{i}"), sp, mem, seg));
    }
    b.instantiate(s(1e6), 0).expect("topo")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The strip planner always emits a complete partition with
    /// positive strips over a subset of the offered hosts.
    #[test]
    fn planner_output_is_always_a_valid_partition(
        speeds in prop::collection::vec(1.0f64..200.0, 1..6),
        n in 50usize..400,
    ) {
        let mems = vec![4096.0; speeds.len()];
        let topo = topo_from(&speeds, &mems);
        let hat = jacobi2d_hat(n, 5);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let hosts: Vec<HostId> = (0..speeds.len()).map(HostId).collect();
        let sched = plan_strip(&pool, &hosts).expect("plan");
        prop_assert!(sched.validate().is_ok());
        prop_assert_eq!(sched.parts.iter().map(|p| p.rows).sum::<usize>(), n);
        for p in &sched.parts {
            prop_assert!(p.rows > 0);
            prop_assert!(hosts.contains(&p.host));
        }
    }

    /// When the spill guard is on and total memory suffices, no strip
    /// exceeds its host's memory capacity.
    #[test]
    fn planner_respects_memory_caps(
        speeds in prop::collection::vec(1.0f64..100.0, 2..5),
        n in 100usize..300,
    ) {
        // Memories sized so each host holds ~2n/k rows: total capacity
        // about twice the grid.
        let k = speeds.len();
        let row_mb = n as f64 * 16.0 / 1e6;
        let mems: Vec<f64> = (0..k).map(|_| row_mb * (2 * n / k) as f64).collect();
        let topo = topo_from(&speeds, &mems);
        let hat = jacobi2d_hat(n, 5);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let hosts: Vec<HostId> = (0..k).map(HostId).collect();
        let sched = plan_strip(&pool, &hosts).expect("plan");
        for p in &sched.parts {
            let mem = topo.host(p.host).expect("host").spec.mem_mb;
            let resident = p.rows as f64 * row_mb;
            prop_assert!(
                resident <= mem + 1e-9,
                "strip of {} rows ({resident:.3} MB) exceeds {mem:.3} MB",
                p.rows
            );
        }
    }

    /// With exactly two hosts (both strips are end strips, so border
    /// costs are symmetric) the faster host never gets a smaller strip.
    /// Note this is NOT an invariant for three or more strips: middle
    /// strips exchange two borders and end strips one, so a fast host
    /// in the middle can legitimately receive fewer rows than a slower
    /// host at an end.
    #[test]
    fn planner_is_monotone_in_speed_for_host_pairs(
        fast in 10.0f64..100.0,
        slow_frac in 0.05f64..0.95,
        n in 100usize..400,
    ) {
        let speeds = [fast, fast * slow_frac];
        let mems = vec![4096.0; 2];
        let topo = topo_from(&speeds, &mems);
        let hat = jacobi2d_hat(n, 5);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1)]).expect("plan");
        let rows_of = |h: usize| {
            sched.parts.iter().find(|p| p.host == HostId(h)).map(|p| p.rows).unwrap_or(0)
        };
        prop_assert!(
            rows_of(0) + 1 >= rows_of(1),
            "fast host got {} rows, slow host {}",
            rows_of(0),
            rows_of(1)
        );
    }

    /// The strip solver equalizes predicted per-strip times: with
    /// uniform memory and a fast uniform network, every strip's
    /// `rows_i * sec_per_row_i` lands within a couple of rows'
    /// rounding of every other's.
    #[test]
    fn planner_balances_predicted_times(
        speeds in prop::collection::vec(5.0f64..100.0, 2..5),
        n in 400usize..900,
    ) {
        let mems = vec![1_000_000.0; speeds.len()];
        let topo = topo_from(&speeds, &mems);
        let hat = jacobi2d_hat(n, 5);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let hosts: Vec<HostId> = (0..speeds.len()).map(HostId).collect();
        let sched = plan_strip(&pool, &hosts).expect("plan");
        prop_assume!(sched.parts.len() >= 2);
        // Predicted T_i = compute + border exchange, using the same
        // per-transfer model the planner's C_i uses: one link latency
        // (1 ms) plus the border payload at 5 MB/s, twice per
        // neighbour (send + receive).
        let border_mb = n as f64 * 8.0 / 1e6;
        let transfer = 0.001 + border_mb / 5.0;
        let k = sched.parts.len();
        let times: Vec<f64> = sched
            .parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let speed = speeds[p.host.0];
                let compute = p.rows as f64 * (n as f64 * 5.0 / 1e6) / speed;
                let neighbours = usize::from(i > 0) + usize::from(i + 1 < k);
                compute + 2.0 * neighbours as f64 * transfer
            })
            .collect();
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        // Integer rounding moves each strip by at most ~2 rows; allow
        // that plus 5% slack.
        let row_cost = (n as f64 * 5.0 / 1e6)
            / speeds.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(
            max - min <= 3.0 * row_cost + 0.05 * max,
            "unbalanced strips: times {times:?}"
        );
    }

    /// StepSeries integral is additive over adjacent intervals.
    #[test]
    fn step_series_integral_is_additive(
        points in prop::collection::vec((0u64..10_000, 0.0f64..1.0), 1..20),
        a in 0u64..5_000,
        b in 0u64..5_000,
        c in 0u64..5_000,
    ) {
        let series = StepSeries::from_points(
            points.into_iter().map(|(t, v)| (SimTime::from_secs(t), v)).collect(),
        );
        let mut ts = [a, b, c];
        ts.sort_unstable();
        let (t0, t1, t2) = (
            SimTime::from_secs(ts[0]),
            SimTime::from_secs(ts[1]),
            SimTime::from_secs(ts[2]),
        );
        let whole = series.integral(t0, t2);
        let split = series.integral(t0, t1) + series.integral(t1, t2);
        prop_assert!((whole - split).abs() < 1e-6, "{whole} != {split}");
    }

    /// Imposed foreground load never drives availability outside
    /// `[0, 1]`, no matter how many windows overlap or how wild the
    /// factors are (negative, zero, or greater than one); and when
    /// every factor is a genuine share in `[0, 1]`, an imposition
    /// never *raises* availability anywhere.
    #[test]
    fn impositions_keep_availability_in_unit_interval(
        points in prop::collection::vec((0u64..10_000, 0.0f64..1.0), 1..20),
        windows in prop::collection::vec(
            (0u64..10_000, 0u64..10_000, -0.5f64..2.5),
            0..12,
        ),
    ) {
        let base = StepSeries::from_points(
            points.into_iter().map(|(t, v)| (SimTime::from_secs(t), v)).collect(),
        );
        let imps: Vec<Imposition> = windows
            .iter()
            .map(|&(a, b, f)| {
                Imposition::new(
                    SimTime::from_secs(a.min(b)),
                    SimTime::from_secs(a.max(b)),
                    f,
                )
            })
            .collect();
        let mut loaded = base.clone();
        loaded.impose(&imps);
        for &(t, v) in &loaded.to_points() {
            prop_assert!((0.0..=1.0).contains(&v), "value {v} at {t:?}");
        }
        // Probe between change points too: the composition must hold
        // everywhere, not just at the breakpoints.
        let damping = windows.iter().all(|&(_, _, f)| f <= 1.0);
        for probe in (0..10_000u64).step_by(487) {
            let t = SimTime::from_secs(probe);
            let v = loaded.value_at(t);
            prop_assert!((0.0..=1.0).contains(&v), "value {v} at {t:?}");
            if damping {
                prop_assert!(
                    v <= base.value_at(t) + 1e-12,
                    "imposition raised availability at {t:?}"
                );
            }
        }
    }

    /// `time_to_complete` is consistent with `integral`: the work
    /// delivered between start and completion equals the work asked
    /// for (up to the microsecond rounding of completion times).
    #[test]
    fn time_to_complete_matches_integral(
        points in prop::collection::vec((0u64..10_000, 0.05f64..1.0), 1..20),
        work in 0.1f64..5_000.0,
        speed in 0.1f64..100.0,
    ) {
        let series = StepSeries::from_points(
            points.into_iter().map(|(t, v)| (SimTime::from_secs(t), v)).collect(),
        );
        let done = series
            .time_to_complete(SimTime::ZERO, work, speed)
            .expect("completes");
        let delivered = speed * series.integral(SimTime::ZERO, done);
        // Completion rounds *up* to the next microsecond, so delivered
        // work can only overshoot, by at most one microsecond of the
        // maximum rate.
        prop_assert!(delivered + 1e-9 >= work, "undershoot: {delivered} < {work}");
        prop_assert!(delivered - work <= speed * 2e-6 + 1e-9, "overshoot too large");
    }

    /// Markov load realizations stay within their two configured
    /// levels and are reproducible.
    #[test]
    fn markov_realizations_are_two_level_and_deterministic(
        idle in 0.0f64..1.0,
        busy in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let m = LoadModel::MarkovOnOff {
            idle_avail: idle,
            busy_avail: busy,
            mean_idle: SimTime::from_secs(30),
            mean_busy: SimTime::from_secs(10),
        };
        let a = m.realize(s(10_000.0), seed);
        prop_assert_eq!(&a, &m.realize(s(10_000.0), seed));
        for &(_, v) in &a.to_points() {
            prop_assert!((v - idle).abs() < 1e-12 || (v - busy).abs() < 1e-12);
        }
    }

    /// Any block mesh over the Jacobi grid computes exactly the
    /// sequential answer.
    #[test]
    fn blocked_jacobi_always_matches_sequential(
        row_parts in prop::collection::vec(1usize..8, 1..4),
        col_parts in prop::collection::vec(1usize..8, 1..4),
        sweeps in 1usize..15,
    ) {
        use apples_apps::jacobi2d::BlockedRun;
        let rsum: usize = row_parts.iter().sum();
        let csum: usize = col_parts.iter().sum();
        let n = rsum.max(csum).max(3);
        let mut rows = row_parts.clone();
        let mut cols = col_parts.clone();
        *rows.last_mut().expect("rows") += n - rsum;
        *cols.last_mut().expect("cols") += n - csum;
        let mut seq = Grid::new(n, |r, c| ((r * 5 + c) % 9) as f64);
        let mut blocked = BlockedRun::new(&seq, &rows, &cols);
        seq.run(sweeps);
        blocked.run(sweeps);
        let assembled = blocked.assemble();
        prop_assert_eq!(seq.data(), assembled.as_slice());
    }

    /// Any strip partition of the Jacobi grid computes exactly the
    /// sequential answer.
    #[test]
    fn partitioned_jacobi_always_matches_sequential(
        splits in prop::collection::vec(1usize..12, 1..6),
        sweeps in 1usize..25,
    ) {
        let n: usize = splits.iter().sum::<usize>().max(3);
        // Pad the last strip so the strips cover an n >= 3 grid.
        let mut strips = splits.clone();
        let covered: usize = strips.iter().sum();
        if covered < n {
            *strips.last_mut().expect("strips") += n - covered;
        }
        let mut seq = Grid::new(n, |r, c| (r * 3 + c) as f64 % 7.0);
        let mut par = PartitionedRun::new(&seq, &strips);
        seq.run(sweeps);
        par.run(sweeps);
        let assembled = par.assemble();
        prop_assert_eq!(seq.data(), assembled.as_slice());
    }
}

/// Oracle for [`StepSeries::impose`]: evaluate every change point by
/// filtering the full imposition list, then rebuild the whole series.
fn scan_impositions(ss: &StepSeries, imps: &[Imposition]) -> StepSeries {
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

/// A series' change points with each value as its bit pattern.
fn point_bits(ss: &StepSeries) -> Vec<(SimTime, u64)> {
    ss.to_points()
        .iter()
        .map(|&(t, v)| (t, v.to_bits()))
        .collect()
}

/// A value or factor within `f64::EPSILON` of its neighbours for
/// `mode` 0 (`0.3 + k·6e-17`) and 1 (`1 − k·1.2e-16`); `free` otherwise.
fn near_epsilon(mode: u8, k: u32, free: f64) -> f64 {
    match mode {
        0 => 0.3 + f64::from(k) * 6e-17,
        1 => 1.0 - f64::from(k) * 1.2e-16,
        _ => free,
    }
}

// 1024 cases: a suffix point is re-deduplicated only when a near-unit
// factor meets values one ulp apart, which 128 cases never drew.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The in-place imposition sweep `StepSeries::impose` reproduces the
    /// per-time scan bit for bit, applied in successive rounds the way
    /// the grid layers job after job. Values and factors sit within
    /// `f64::EPSILON` of their neighbours, factors include zero and
    /// negatives, and windows start at zero, on an existing change
    /// point, past the last one, or anywhere (overlapping, abutting or
    /// empty).
    #[test]
    fn imposition_sweep_matches_per_time_scan(
        base in prop::collection::vec((0u64..40, 0u8..3, 0u32..4, 0.0f64..1.0), 1..12),
        rounds in prop::collection::vec(
            prop::collection::vec(
                (0u8..4, 0u64..50, 0u64..20, 0u8..5, 0u32..4, -0.5f64..1.5),
                0..5,
            ),
            1..5,
        ),
    ) {
        let mut live = StepSeries::from_points(
            base.iter()
                .map(|&(t, mode, k, free)| (SimTime::from_secs(t), near_epsilon(mode, k, free)))
                .collect(),
        );
        let mut oracle = live.clone();
        for windows in &rounds {
            let imps: Vec<Imposition> = windows
                .iter()
                .map(|&(anchor, raw, len, fmode, k, free)| {
                    let pts = live.to_points();
                    let from = match anchor {
                        0 => SimTime::ZERO,
                        1 => pts[raw as usize % pts.len()].0,
                        2 => pts[pts.len() - 1].0 + SimTime::from_secs(1 + raw % 10),
                        _ => SimTime::from_secs(raw),
                    };
                    let factor = match fmode {
                        3 => 0.0,
                        4 => -free.abs(),
                        _ => near_epsilon(fmode, k, free),
                    };
                    Imposition::new(from, from + SimTime::from_secs(len), factor)
                })
                .collect();
            live.impose(&imps);
            oracle = scan_impositions(&oracle, &imps);
            prop_assert_eq!(point_bits(&live), point_bits(&oracle));
        }
    }
}

/// Oracle for lazy realization: the eager loops that realized a whole
/// model up to its horizon, rebuilt through `StepSeries::from_points`.
fn eager_realize(model: &LoadModel, horizon: SimTime, seed: u64) -> StepSeries {
    let mut pts = Vec::new();
    match model {
        LoadModel::Periodic {
            high,
            low,
            half_period,
            phase,
        } => {
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
        }
        LoadModel::RandomWalk {
            start,
            step,
            interval,
            floor,
            ceil,
        } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut v = start.clamp(*floor, *ceil);
            let mut t = SimTime::ZERO;
            while t <= horizon {
                pts.push((t, v));
                let delta = rng.gen_range(-*step..=*step);
                v += delta;
                if v > *ceil {
                    v = 2.0 * ceil - v;
                }
                if v < *floor {
                    v = 2.0 * floor - v;
                }
                v = v.clamp(*floor, *ceil);
                t += *interval;
            }
        }
        LoadModel::MarkovOnOff {
            idle_avail,
            busy_avail,
            mean_idle,
            mean_busy,
        } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut idle = true;
            let mut t = SimTime::ZERO;
            while t <= horizon {
                pts.push((t, if idle { *idle_avail } else { *busy_avail }));
                let mean = if idle { *mean_idle } else { *mean_busy };
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let hold = -u.ln() * mean.as_secs_f64();
                t += SimTime::from_secs_f64(hold.max(1e-6));
                idle = !idle;
            }
        }
        LoadModel::Constant(_) | LoadModel::Trace(_) => return model.realize(horizon, seed),
    }
    StepSeries::from_points(pts)
}

/// `x` moved by `d` units in the last place.
fn ulps(x: f64, d: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + d) as u64)
}

/// A stochastic load model whose values often sit within
/// `f64::EPSILON` of each other without being equal: `kind` 0 is a
/// random walk (in a band a few ulps wide, or wide with bounds it keeps
/// hitting), 1 a Markov on/off process, 2 a phase-shifted square wave.
/// Levels start from `0.3`, `0.7` or `a`; a second level sits `d` ulps
/// from the first, or at `b`.
fn lazy_model(kind: u8, pick: u8, d: i64, a: f64, b: f64) -> LoadModel {
    let x = [0.3, 0.7, a][usize::from(pick % 3)];
    let y = if pick % 4 == 3 { b } else { ulps(x, d) };
    match kind {
        0 => {
            let (floor, ceil, step) = match pick % 4 {
                0 => (x, ulps(x, d), ulps(x, 2) - x),
                1 => (0.0, 1.0, 0.4),
                2 => (0.25, 0.35, 0.05),
                _ => (x, x, 0.0),
            };
            LoadModel::RandomWalk {
                start: b,
                step,
                interval: SimTime::from_secs(1 + u64::from(pick % 5) * 3),
                floor,
                ceil,
            }
        }
        1 => LoadModel::MarkovOnOff {
            idle_avail: x,
            busy_avail: if pick % 5 == 4 { 0.0 } else { y },
            mean_idle: s(5.0 + 40.0 * a),
            mean_busy: s(5.0 + 40.0 * b),
        },
        _ => LoadModel::Periodic {
            high: x,
            low: y,
            half_period: SimTime::from_secs(7 + u64::from(pick) * 5),
            phase: SimTime::from_secs(u64::from(pick % 7) * 11),
        },
    }
}

/// A one-host topology running on `avail`, so permanent faults reach
/// the series through the public fault path.
fn host_on(avail: StepSeries) -> Topology {
    let mut topo = topo_from(&[10.0], &[1024.0]);
    topo.host_mut(HostId(0))
        .expect("host")
        .set_availability(avail);
    topo
}

fn avail(topo: &Topology) -> &StepSeries {
    topo.host(HostId(0)).expect("host").availability()
}

/// Apply one operation to a lazy series and its eager twin, and check
/// that every read answers bit for bit alike. `last` is the latest
/// time an earlier read reached: a read there realizes about one
/// `FIRST_CHUNK` (1024 s) further, so windows anchored near it
/// straddle the realized frontier.
fn lazy_op(
    lazy: &mut Topology,
    eager: &mut Topology,
    op: (u8, u8, u64, u64, u32, f64),
    horizon: SimTime,
    last: &mut SimTime,
) {
    let (kind, anchor, raw, len, k, free) = op;
    let frontier = *last + SimTime::from_secs(1024);
    let at = match anchor {
        0 => SimTime::ZERO,
        1 => (frontier + SimTime::from_secs(raw % 60)).saturating_sub(SimTime::from_secs(30)),
        2 => SimTime(frontier.0 * 2).saturating_sub(SimTime::from_secs(raw % 40)),
        3 => (horizon + SimTime::from_secs(raw % 60)).saturating_sub(SimTime::from_secs(30)),
        _ => SimTime::from_secs(raw % (horizon.as_micros() / 1_000_000 + 100)),
    };
    let until = at + SimTime::from_secs(len);
    let (l, e) = (avail(lazy), avail(eager));
    match kind {
        0 => prop_assert_eq!(l.value_at(at).to_bits(), e.value_at(at).to_bits()),
        1 => prop_assert_eq!(l.next_change_after(at), e.next_change_after(at)),
        2 => prop_assert_eq!(
            l.integral(at, until).to_bits(),
            e.integral(at, until).to_bits()
        ),
        3 => {
            let work = free * len as f64;
            prop_assert_eq!(
                format!("{:?}", l.time_to_complete(at, work, 1.0)),
                format!("{:?}", e.time_to_complete(at, work, 1.0))
            );
        }
        4 => {
            let spec = FaultSpec {
                host_faults: vec![HostFault {
                    host: HostId(0),
                    at,
                    recover: None,
                }],
                link_faults: vec![],
            };
            apply_faults(lazy, &spec, &mut NoopSink).expect("fault");
            apply_faults(eager, &spec, &mut NoopSink).expect("fault");
        }
        _ => {
            // 1–4 overlapping windows from the anchor on, some
            // straddling it. The one ending last mostly takes a factor
            // a few ulps below one: its closing edge then repeats the
            // value imposed inside it within `f64::EPSILON` and is
            // dropped, so the series' last retained value leaves the
            // base chain's.
            let imps: Vec<Imposition> = (0..=u64::from(k))
                .map(|i| {
                    let from = (at + SimTime::from_secs(i * (raw % 50)))
                        .saturating_sub(SimTime::from_secs(len / 2));
                    let factor = if i == u64::from(k) && raw % 4 != 0 {
                        ulps(1.0, -1 - (raw % 3) as i64)
                    } else {
                        match (i + raw) % 5 {
                            0 => 0.0,
                            1 => -free,
                            2 => free,
                            j => ulps(1.0, -(j as i64)),
                        }
                    };
                    Imposition::new(from, from + SimTime::from_secs(len), factor)
                })
                .collect();
            for topo in [&mut *lazy, &mut *eager] {
                topo.host_mut(HostId(0))
                    .expect("host")
                    .availability_mut()
                    .impose(&imps);
            }
        }
    }
    *last = (*last).max(until);
    // "Zero forever" answers for the full realization, asked of a copy
    // so the series keeps its frontier.
    prop_assert_eq!(avail(lazy).clone().zero_since(), avail(eager).zero_since());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A lazily realized series matches the eager realization bit for
    /// bit under any mix of reads, impositions and permanent faults,
    /// and so does each half of a clone extended on its own.
    #[test]
    fn lazy_realization_matches_eager(
        (kind, pick, d, a, b) in (0u8..3, 0u8..24, 1i64..4, 0.0f64..1.0, 0.0f64..1.0),
        horizon in 50u64..6000,
        seed in 0u64..1000,
        ops in prop::collection::vec(
            (0u8..8, 0u8..5, 0u64..10_000, 0u64..400, 0u32..4, 0.0f64..1.0),
            1..10,
        ),
        fork_at in 0usize..10,
        fork_op in (0u8..8, 0u8..5, 0u64..10_000, 0u64..400, 0u32..4, 0.0f64..1.0),
    ) {
        let model = lazy_model(kind, pick, d, a, b);
        let horizon = SimTime::from_secs(horizon);
        let mut lazy = host_on(model.realize(horizon, seed));
        let mut eager = host_on(eager_realize(&model, horizon, seed));
        let mut last = SimTime::ZERO;
        let mut forks = None;
        for (i, &op) in ops.iter().enumerate() {
            if i == fork_at {
                forks = Some((lazy.clone(), eager.clone(), last));
            }
            lazy_op(&mut lazy, &mut eager, op, horizon, &mut last);
        }
        prop_assert_eq!(point_bits(avail(&lazy)), point_bits(avail(&eager)));
        if let Some((mut lazy2, mut eager2, mut last2)) = forks {
            lazy_op(&mut lazy2, &mut eager2, fork_op, horizon, &mut last2);
            prop_assert_eq!(point_bits(avail(&lazy2)), point_bits(avail(&eager2)));
        }
    }
}
