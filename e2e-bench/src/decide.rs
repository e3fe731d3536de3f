//! `decide` and `decide-faulted`: single AppLeS decisions, each timed
//! around one `Coordinator::decide` call.

use std::time::Instant;

use apples::estimator::estimate_seconds;
use apples::planner::plan;
use apples::{Coordinator, Decision, Hat, InfoPool, UserSpec};
use apples_grid::{ArrivalProcess, GridConfig, JobKind, JobMix, RetryPolicy, WorkloadConfig};
use metasim::simtrace::NoopSink;
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{HostId, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};

use crate::clock::{ClockReport, HostClock, Layer};
use crate::report::{quantile, ratio, secs_since, tail_percentile, Fnv, Outcome};
use crate::spans::SpanLog;
use crate::{mix, passes, race, Mode};

/// Simulated seconds between decision points. Decision cost grows with
/// the NWS history behind it, so the points sit on a fixed grid rather
/// than at Poisson arrival times, whose spread would make the cost of a
/// pass depend on the seed.
const GAP_S: u64 = 30;
/// `decide-faulted`: hosts excluded from every pool, as the grid
/// excludes hosts it watched die. Leaves 12 of 16 feasible, the largest
/// pool the selector still searches exhaustively.
const EXCLUDED: usize = 4;

/// How much a decide workload runs.
#[derive(Debug, Clone, Copy)]
pub struct DecideSize {
    /// Decision points per pass.
    pub points: usize,
    /// Decision points of the traced pass (a prefix of the pass).
    pub traced_points: usize,
}

/// One decision: when, and for which application.
struct Point {
    now: SimTime,
    hat: Hat,
    user: UserSpec,
}

/// A pristine topology and the decisions taken on it.
struct Pools {
    topo: Topology,
    warmup: SimTime,
    points: Vec<Point>,
}

impl Pools {
    /// `decide`: the Figure-2 workstations under the light profile,
    /// deciding for the first `n` non-farm jobs of the default-mix
    /// stream. `decide-faulted`: the race tree, deciding for the first
    /// `n` stencil jobs, each with [`EXCLUDED`] seeded hosts excluded.
    /// Decision `i` happens [`GAP_S`]` × (i + 1)` after the warm-up.
    fn new(seed: u64, n: usize, faulted: bool) -> Result<Pools, String> {
        let grid = GridConfig::default();
        let topo = if faulted {
            let spec = TopoSpec::parse(race::TOPO).map_err(|e| e.to_string())?;
            let cfg = TopoGenConfig {
                profile: LoadProfile::Light,
                horizon: grid.horizon,
                seed,
            };
            topogen::generate(&spec, &cfg).map_err(|e| e.to_string())?
        } else {
            let cfg = TestbedConfig {
                profile: LoadProfile::Light,
                horizon: grid.horizon,
                seed,
                with_sp2: false,
            };
            pcl_sdsc(&cfg).map_err(|e| e.to_string())?.topo
        };
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(GAP_S),
            },
            mix: JobMix::default_mix(),
            duration: SimTime::from_secs(4 * GAP_S * n as u64),
            seed,
            retry: RetryPolicy::default(),
        };
        let hosts = topo.hosts().len() as u64;
        let points: Vec<Point> = workload
            .realize()
            .into_iter()
            .filter(|j| match j.kind {
                JobKind::Jacobi { .. } => true,
                JobKind::ReactPipeline { .. } => !faulted,
                JobKind::NileFarm { .. } => false,
            })
            .take(n)
            .enumerate()
            .map(|(i, j)| {
                let (hat, mut user) = j.kind.hat_and_user();
                let mut k = 0;
                while faulted && user.excluded_hosts.len() < EXCLUDED {
                    let h = HostId((mix(seed ^ i as u64, k) % hosts) as usize);
                    if !user.excluded_hosts.contains(&h) {
                        user.excluded_hosts.push(h);
                    }
                    k += 1;
                }
                Point {
                    now: grid.warmup + SimTime::from_secs(GAP_S * (i as u64 + 1)),
                    hat,
                    user,
                }
            })
            .collect();
        if points.len() < n {
            return Err(format!("only {} of {n} decision points", points.len()));
        }
        Ok(Pools {
            topo,
            warmup: grid.warmup,
            points,
        })
    }

    /// A weather service warmed up to the first submission.
    fn weather(&self) -> WeatherService {
        let mut ws = WeatherService::for_topology(&self.topo, WeatherServiceConfig::default());
        ws.advance(&self.topo, self.warmup);
        ws
    }
}

/// What must not change between passes, or between the untraced and
/// traced calls.
fn same(a: &Decision, b: &Decision) -> bool {
    a.chosen_index == b.chosen_index
        && a.chosen().predicted_seconds.to_bits() == b.chosen().predicted_seconds.to_bits()
}

fn hash(d: &Decision, h: &mut Fnv) {
    h.write_u64(d.chosen_index as u64);
    h.write_u64(d.chosen().predicted_seconds.to_bits());
    h.write_u64(d.considered.len() as u64);
}

/// Run a decide workload.
pub fn run(faulted: bool, seed: u64, size: DecideSize, mode: &Mode, out: &mut Outcome) {
    let pools = match mode.setup(out, || Pools::new(seed, size.points, faulted)) {
        Ok(p) => p,
        Err(e) => return out.op(false, || e),
    };
    if mode.trace {
        return traced(&pools, size.traced_points.min(size.points), mode, out);
    }

    let mut first: Vec<Option<Decision>> = Vec::new();
    let mut latencies = Vec::new();
    let mut per_decision = Vec::new();
    passes(mode.seconds, || {
        let mut ws = pools.weather();
        let mut pass = 0.0;
        for (i, p) in pools.points.iter().enumerate() {
            ws.advance(&pools.topo, p.now);
            let pool = InfoPool::with_nws(&pools.topo, &ws, &p.hat, &p.user, p.now);
            let agent = Coordinator::new(p.hat.clone(), p.user.clone());
            let t = Instant::now();
            let decision = agent.decide(&pool);
            let took = secs_since(t);
            pass += took;
            latencies.push(took);
            let decision = match decision {
                Ok(d) => Some(d),
                Err(e) => {
                    out.op(false, || format!("point {i}: {e}"));
                    None
                }
            };
            match first.get(i) {
                None => {
                    if let Some(d) = &decision {
                        hash(d, &mut out.digest);
                        out.op(true, String::new);
                    }
                    first.push(decision);
                }
                Some(f) => {
                    let ok = matches!((f, &decision), (Some(a), Some(b)) if same(a, b));
                    out.op(ok, || {
                        format!("point {i}: decision differs from the first pass")
                    });
                }
            }
        }
        per_decision.push(pass / pools.points.len() as f64);
    });
    // Decision costs are bounded and differ by point, so a pass's mean
    // is steadier across seeds than any one decision's latency.
    out.set_timing("wall_s", &per_decision);
    let tail = tail_percentile(latencies.len());
    out.notes.push(format!(
        "decision latency: p50 {:.6} s p{tail} {:.6} s n {}",
        quantile(&latencies, 0.5),
        quantile(&latencies, tail / 100.0),
        latencies.len()
    ));
}

/// Per-layer pass over the first `n` points: each decision is made
/// untraced, then under a [`HostClock`] (which must agree), then once
/// more by calling the selector, planner and estimator directly.
fn traced(pools: &Pools, n: usize, mode: &Mode, out: &mut Outcome) {
    let mut spans = SpanLog::new(Instant::now());
    let mut clock = ClockReport::default();
    let mut decide_attributed = 0.0;
    let (mut untraced, mut traced) = (0.0, 0.0);
    let (mut cand_s, mut plan_s, mut est_s) = (0.0, 0.0, 0.0);
    let (mut plans, mut estimates) = (0u64, 0u64);
    let mut ws = pools.weather();
    for (i, p) in pools.points.iter().take(n).enumerate() {
        let mut noop = NoopSink;
        let mut c = HostClock::new(&mut noop, &mut spans, "advance", None);
        ws.advance_with_sink(&pools.topo, p.now, &mut c);
        clock.add(&c.finish(Layer::Nws));

        let pool = InfoPool::with_nws(&pools.topo, &ws, &p.hat, &p.user, p.now);
        let agent = Coordinator::new(p.hat.clone(), p.user.clone());
        let t = Instant::now();
        let plain = agent.decide(&pool);
        untraced += secs_since(t);

        let t = Instant::now();
        let mut c = HostClock::new(&mut noop, &mut spans, "decide", None);
        let seen = agent.decide_with_sink(&pool, &mut c);
        let report = c.finish(Layer::Selector);
        traced += secs_since(t);
        decide_attributed += report.total_secs();
        clock.add(&report);
        match (&plain, &seen) {
            (Ok(a), Ok(b)) => {
                hash(a, &mut out.digest);
                out.op(same(a, b), || format!("point {i}: traced decision differs"));
            }
            _ => out.op(false, || format!("point {i}: {plain:?} / {seen:?}")),
        }

        let t = Instant::now();
        let sets = agent.selector.candidates(&pool);
        cand_s += secs_since(t);
        for set in sets.iter().flatten() {
            let t = Instant::now();
            let planned = plan(&pool, set);
            plan_s += secs_since(t);
            plans += 1;
            if let Ok(schedule) = planned {
                let t = Instant::now();
                let secs = estimate_seconds(&pool, &schedule);
                est_s += secs_since(t);
                estimates += 1;
                std::hint::black_box(secs.ok());
            }
        }
    }
    clock.set_metrics(out);
    out.set("core.selector.candidates_us", ratio(cand_s * 1e6, n as f64));
    out.set("core.planner.plan_us", ratio(plan_s * 1e6, plans as f64));
    out.set(
        "core.estimator.estimate_us",
        ratio(est_s * 1e6, estimates as f64),
    );
    out.set("trace_overhead_frac", ratio(traced, untraced) - 1.0);
    out.set("unattributed_frac", 1.0 - ratio(decide_attributed, traced));
    crate::write_spans(mode, &spans, out);
}
