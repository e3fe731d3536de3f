//! The Planner: resource set → candidate schedule (§4.1).
//!
//! For stencil applications the planner implements the §5 cost model
//! directly. With strips of `a_i` rows on an `n × n` grid:
//!
//! ```text
//! T_i = A_i * P_i + C_i        A_i = a_i * n   (area of region i)
//! ```
//!
//! where `P_i` is the *predicted* seconds per point on host `i`
//! (nominal speed × forecast availability) and `C_i` is the predicted
//! seconds to send and receive the strip's borders. The iteration time
//! is `max_i T_i`, so the optimum equalizes the `T_i`: solving
//! `Σ a_i = n` with `T_i = T` for all `i` gives
//!
//! ```text
//! T = (n + Σ C_i / r_i) / (Σ 1 / r_i),     r_i = n * P_i  (sec/row)
//! a_i = (T - C_i) / r_i
//! ```
//!
//! Hosts whose `a_i` comes out non-positive are dropped (they are too
//! slow or too far to help) and the system is re-solved. Hosts whose
//! strip would exceed physical memory are capped at their memory
//! capacity and the remainder is redistributed (water-filling) — this
//! is what lets the Figure 6 AppLeS "locate available memory elsewhere
//! in the resource pool" instead of paging.
//!
//! For pipeline applications the planner assigns the producer and
//! consumer to the given host pair and picks the batching granularity
//! (the paper's "pipeline size") by sweeping candidate unit sizes
//! through the Performance Estimator's pipeline model.

use crate::error::ApplesError;
use crate::estimator;
use crate::hat::StencilTemplate;
use crate::info::InfoPool;
use crate::schedule::{PipelineSchedule, Schedule, StencilPart, StencilSchedule};
use metasim::HostId;
use std::cell::RefCell;

/// Per-host parameters and working state of the strip solver.
#[derive(Debug, Clone)]
struct StripHost {
    host: HostId,
    /// Predicted seconds per row.
    sec_per_row: f64,
    /// Predicted border-exchange seconds per iteration.
    comm_sec: f64,
    /// Maximum rows before the strip exceeds physical memory
    /// (`usize::MAX` when the spill guard is off).
    cap_rows: usize,
    /// Resident MB per row of this grid.
    row_mb: f64,
    /// Physical memory of the host, MB.
    mem_mb: f64,
    /// Paging slowdown coefficient of the host.
    paging_k: f64,
    /// Fractional rows of the last solve.
    rows: f64,
    /// Whether the last solve pinned `rows` at the memory cap.
    pinned: bool,
}

impl StripHost {
    /// Compute slowdown divisor once `rows * row_mb` exceeds memory.
    fn memory_factor(&self, rows: f64) -> f64 {
        let resident = rows * self.row_mb;
        if resident <= self.mem_mb {
            1.0
        } else {
            1.0 / (1.0 + self.paging_k * (resident / self.mem_mb - 1.0))
        }
    }
}

/// Plan a non-uniform strip decomposition over `hosts` (the given
/// strip order is *not* assumed — the planner orders strips itself,
/// grouping hosts that share a network segment so borders stay local).
///
/// ```
/// use apples::hat::jacobi2d_hat;
/// use apples::info::InfoPool;
/// use apples::planner::plan_strip;
/// use apples::user::UserSpec;
/// use metasim::host::HostSpec;
/// use metasim::net::{LinkSpec, TopologyBuilder};
/// use metasim::{HostId, SimTime};
///
/// let mut b = TopologyBuilder::new();
/// let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::ZERO));
/// b.add_host(HostSpec::dedicated("slow", 10.0, 1024.0, seg));
/// b.add_host(HostSpec::dedicated("fast", 30.0, 1024.0, seg));
/// let topo = b.instantiate(SimTime::from_secs(1000), 0).unwrap();
///
/// let hat = jacobi2d_hat(400, 10);
/// let user = UserSpec::default();
/// let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
/// let sched = plan_strip(&pool, &[HostId(0), HostId(1)]).unwrap();
///
/// // Rows split ~1:3 with the speeds.
/// assert_eq!(sched.parts.iter().map(|p| p.rows).sum::<usize>(), 400);
/// let fast = sched.parts.iter().find(|p| p.host == HostId(1)).unwrap();
/// assert!(fast.rows > 280);
/// ```
pub fn plan_strip(pool: &InfoPool<'_>, hosts: &[HostId]) -> Result<StencilSchedule, ApplesError> {
    let t = pool.hat.as_stencil().ok_or(ApplesError::TemplateMismatch {
        expected: "iterative-stencil",
        found: pool.hat.class_name(),
    })?;
    if hosts.is_empty() {
        return Err(ApplesError::PlanningFailed("empty resource set".into()));
    }
    SCRATCH.with_borrow_mut(|scratch| {
        let parts = balance(pool, t, hosts, scratch)?;
        let sched = StencilSchedule {
            n: t.n,
            iterations: t.iterations,
            parts,
        };
        sched.validate()?;
        Ok(sched)
    })
}

/// The strip planner's working buffers. A decision plans thousands of
/// candidates, so each thread keeps one set and every candidate it
/// plans reuses them: planning a candidate allocates only the parts of
/// the schedule it returns.
#[derive(Default)]
struct Scratch {
    /// `(segment, predicted Mflop/s, host)`: the strip-order sort keys.
    order: Vec<(usize, f64, HostId)>,
    /// The best balanced host list so far.
    live: Vec<StripHost>,
    /// The host list of the eviction being tried.
    trial: Vec<StripHost>,
    /// Whole rows of each host in `live` while rounding.
    whole: Vec<usize>,
    /// `(index into live, fractional rows)`, largest first.
    frac: Vec<(usize, f64)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Order, balance and round the strips of `hosts`.
fn balance(
    pool: &InfoPool<'_>,
    t: &StencilTemplate,
    hosts: &[HostId],
    scratch: &mut Scratch,
) -> Result<Vec<StencilPart>, ApplesError> {
    let Scratch {
        order,
        live,
        trial,
        whole,
        frac,
    } = scratch;

    // Strip order: group by segment, fastest-first inside a segment.
    order.clear();
    order.extend(hosts.iter().map(|&h| {
        let seg = pool.topo.host(h).map(|x| x.spec.segment.0).unwrap_or(0);
        (seg, pool.effective_mflops(h).unwrap_or(0.0), h)
    }));
    order.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.total_cmp(&a.1)));

    let row_mb = t.strip_resident_mb(1);
    live.clear();
    for &(_, _, h) in order.iter() {
        let eff = pool.effective_mflops(h)?;
        if eff <= 0.0 {
            continue; // fully unavailable host contributes nothing
        }
        let sec_per_row = t.strip_mflop_per_iter(1) / eff;
        let spec = &pool.topo.host(h)?.spec;
        let cap_rows = if pool.user.avoid_memory_spill {
            (spec.mem_mb / row_mb).floor() as usize
        } else {
            usize::MAX
        };
        live.push(StripHost {
            host: h,
            sec_per_row,
            comm_sec: 0.0, // filled per solve round (depends on neighbours)
            cap_rows,
            row_mb,
            mem_mb: spec.mem_mb,
            paging_k: spec.paging_slowdown,
            rows: 0.0,
            pinned: false,
        });
    }
    if live.is_empty() {
        return Err(ApplesError::PlanningFailed(
            "no host in the set has positive predicted availability".into(),
        ));
    }

    // Balance the full set, then greedily test whether evicting the
    // host with the costliest borders improves the predicted iteration
    // time. The equal-time solution is only locally optimal: a host
    // behind an expensive link can inflate everyone's balanced time,
    // and the best plan *for this resource set* may simply not use it.
    // Each trial is solved in the second buffer, which replaces the
    // best only when it wins.
    let (mut best_t, mut best_spilled) = solve_round(pool, t, live)?;
    while live.len() > 1 {
        // The loop guard holds at least two hosts, so a missing max
        // is impossible; stop evicting rather than abort if it happens.
        let Some(worst) = live
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.comm_sec.total_cmp(&b.1.comm_sec))
            .map(|(i, _)| i)
        else {
            break;
        };
        trial.clear();
        trial.extend_from_slice(&live[..worst]);
        trial.extend_from_slice(&live[worst + 1..]);
        match solve_round(pool, t, trial) {
            // An eviction may not *introduce* memory spill: under the
            // user's spill guard, a narrower-but-paging schedule is
            // never an acceptable "improvement" over a spill-free one.
            Ok((tt, spilled)) if tt < best_t * (1.0 - 1e-9) && (best_spilled || !spilled) => {
                std::mem::swap(live, trial);
                best_t = tt;
                best_spilled = spilled;
            }
            _ => break,
        }
    }
    Ok(integerize(t.n, live, whole, frac))
}

/// One balancing round over a host list: recompute border costs, solve
/// with caps, drop hopeless hosts, and fall back to
/// capacity-proportional allocation when the set cannot hold the grid.
/// Leaves the surviving hosts in `live`, each with its fractional rows,
/// and returns the predicted iteration time and whether the allocation
/// spills memory.
fn solve_round(
    pool: &InfoPool<'_>,
    t: &StencilTemplate,
    live: &mut Vec<StripHost>,
) -> Result<(f64, bool), ApplesError> {
    loop {
        fill_comm_costs(pool, t, live)?;
        match solve_with_caps(t.n, live) {
            SolveOutcome::Feasible => return Ok((predicted_iteration_time(live), false)),
            SolveOutcome::Drop(idx) => {
                live.remove(idx);
                if live.is_empty() {
                    return Err(ApplesError::PlanningFailed(
                        "every host was dropped during strip balancing".into(),
                    ));
                }
            }
            SolveOutcome::CapacityExceeded => {
                // Total memory across the set cannot hold the grid
                // without spilling. Fall back to capacity-proportional
                // allocation — everyone spills in proportion — and let
                // the estimator charge the paging penalty.
                proportional_to_capacity(t.n, live);
                return Ok((predicted_iteration_time(live), true));
            }
        }
    }
}

/// `max_i (a_i * r_i / mem_factor_i + C_i)` — the §5 model's iteration
/// time, with the paging penalty applied when a strip spills.
fn predicted_iteration_time(live: &[StripHost]) -> f64 {
    live.iter()
        .map(|h| h.rows * h.sec_per_row / h.memory_factor(h.rows) + h.comm_sec)
        .fold(0.0, f64::max)
}

/// Border-exchange cost per iteration for each strip, given the current
/// strip order: each neighbour costs one latency plus one border
/// payload at the predicted route bandwidth, for the send and for the
/// matching receive.
fn fill_comm_costs(
    pool: &InfoPool<'_>,
    t: &StencilTemplate,
    live: &mut [StripHost],
) -> Result<(), ApplesError> {
    let k = live.len();
    let border = t.border_mb();
    for i in 0..k {
        let mut c = 0.0;
        if i > 0 {
            c += 2.0 * pool.transfer_seconds(live[i].host, live[i - 1].host, border)?;
        }
        if i + 1 < k {
            c += 2.0 * pool.transfer_seconds(live[i].host, live[i + 1].host, border)?;
        }
        live[i].comm_sec = c;
    }
    Ok(())
}

enum SolveOutcome {
    /// Every host's `rows` holds its fractional allocation.
    Feasible,
    /// Host at this index received a non-positive allocation; drop it.
    Drop(usize),
    /// Memory caps cannot hold the grid.
    CapacityExceeded,
}

/// Solve the equal-time system with memory caps by water-filling.
fn solve_with_caps(n: usize, live: &mut [StripHost]) -> SolveOutcome {
    for h in live.iter_mut() {
        h.pinned = false;
    }
    let mut remaining = n as f64;

    loop {
        if live.iter().all(|h| h.pinned) {
            return if remaining > 1e-9 {
                SolveOutcome::CapacityExceeded
            } else {
                SolveOutcome::Feasible
            };
        }
        // T = (R + Σ C_i/r_i) / (Σ 1/r_i) over the free hosts.
        let mut num = remaining;
        let mut den = 0.0;
        for h in live.iter().filter(|h| !h.pinned) {
            num += h.comm_sec / h.sec_per_row;
            den += 1.0 / h.sec_per_row;
        }
        let t_bal = num / den;
        let share = |h: &StripHost| (t_bal - h.comm_sec) / h.sec_per_row;

        // Pin any host whose balanced share exceeds its memory cap.
        // Pinning must happen BEFORE the hopeless-host check: a
        // dominant fast host deflates the balanced time, making slow
        // hosts look useless — but once the fast host is pinned at its
        // memory cap, those hosts may be essential to hold the grid.
        let mut pinned_any = false;
        for h in live.iter_mut().filter(|h| !h.pinned) {
            let cap = h.cap_rows as f64;
            if share(h) > cap {
                // Never pin more than is left to hand out (a cap can
                // exceed the whole grid when memory is plentiful).
                let pin = cap.min(remaining.max(0.0));
                h.rows = pin;
                h.pinned = true;
                remaining -= pin;
                pinned_any = true;
            }
        }
        if pinned_any {
            continue;
        }

        // A host whose comm cost alone exceeds the balanced time
        // cannot usefully hold any rows: drop the worst offender.
        if let Some((worst, _)) = live
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.pinned && share(h) <= 0.0)
            .max_by(|a, b| a.1.comm_sec.total_cmp(&b.1.comm_sec))
        {
            return SolveOutcome::Drop(worst);
        }

        // Feasible: fill in the free hosts' balanced shares.
        for h in live.iter_mut().filter(|h| !h.pinned) {
            h.rows = share(h);
        }
        return SolveOutcome::Feasible;
    }
}

/// Allocation proportional to memory capacity (the everyone-spills
/// fallback). Hosts with unlimited caps split the grid by speed.
fn proportional_to_capacity(n: usize, live: &mut [StripHost]) {
    let total_cap: f64 = live.iter().map(|s| s.cap_rows as f64).sum();
    if total_cap <= 0.0 {
        // Degenerate: split by speed.
        let total_speed: f64 = live.iter().map(|s| 1.0 / s.sec_per_row).sum();
        for s in live.iter_mut() {
            s.rows = n as f64 * (1.0 / s.sec_per_row) / total_speed;
        }
        return;
    }
    for s in live.iter_mut() {
        s.rows = n as f64 * s.cap_rows as f64 / total_cap;
    }
}

/// Round a fractional allocation to integers summing to `n`, dropping
/// hosts that round to zero.
fn integerize(
    n: usize,
    live: &[StripHost],
    whole: &mut Vec<usize>,
    frac: &mut Vec<(usize, f64)>,
) -> Vec<StencilPart> {
    whole.clear();
    whole.extend(live.iter().map(|s| s.rows.max(0.0).floor() as usize));
    let mut assigned: usize = whole.iter().sum();

    // Distribute the remainder by largest fractional part. Caps are
    // respected as long as any host has headroom; only when every host
    // is pinned at its cap (the everyone-spills fallback) do the extra
    // rows go out round-robin regardless.
    frac.clear();
    frac.extend(
        live.iter()
            .enumerate()
            .map(|(i, s)| (i, s.rows - s.rows.floor())),
    );
    frac.sort_by(|a, b| b.1.total_cmp(&a.1));
    while assigned < n {
        let mut progressed = false;
        for &(i, _) in frac.iter() {
            if assigned >= n {
                break;
            }
            if whole[i] < live[i].cap_rows {
                whole[i] += 1;
                assigned += 1;
                progressed = true;
            }
        }
        if !progressed {
            for &(i, _) in frac.iter() {
                if assigned >= n {
                    break;
                }
                whole[i] += 1;
                assigned += 1;
            }
        }
    }
    // Shave any excess (can happen when every row was pinned at caps
    // and rounding overshot).
    let mut over = assigned.saturating_sub(n);
    for r in whole.iter_mut() {
        if over == 0 {
            break;
        }
        let take = (*r).min(over);
        *r -= take;
        over -= take;
    }

    live.iter()
        .zip(whole.iter())
        .filter(|&(_, &r)| r > 0)
        .map(|(s, &r)| StencilPart {
            host: s.host,
            rows: r,
        })
        .collect()
}

/// Candidate pipeline unit sizes swept when planning a pipeline
/// (§2.3's 5–20 surface functions per subdomain sits in the middle).
pub const PIPELINE_UNIT_CANDIDATES: &[usize] = &[1, 2, 5, 10, 20, 40, 80];

/// Plan a two-task pipeline on an ordered `(producer, consumer)` host
/// pair: pick the unit size minimizing the estimated makespan.
pub fn plan_pipeline(
    pool: &InfoPool<'_>,
    producer: HostId,
    consumer: HostId,
    depth: usize,
) -> Result<PipelineSchedule, ApplesError> {
    let t = pool
        .hat
        .as_pipeline()
        .ok_or(ApplesError::TemplateMismatch {
            expected: "pipeline",
            found: pool.hat.class_name(),
        })?;
    let mut best: Option<(f64, PipelineSchedule)> = None;
    for &unit in PIPELINE_UNIT_CANDIDATES {
        if unit > t.total_units.max(1) {
            continue;
        }
        let cand = PipelineSchedule {
            producer,
            consumer,
            unit_size: unit,
            depth,
        };
        let secs = estimator::estimate_pipeline(pool, &cand)?;
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, cand));
        }
    }
    best.map(|(_, s)| s)
        .ok_or_else(|| ApplesError::PlanningFailed("no viable pipeline unit size".into()))
}

/// Plan a schedule for the pool's application class on the given
/// resource set. Stencils use every host in the set; pipelines use the
/// first two hosts as (producer, consumer).
pub fn plan(pool: &InfoPool<'_>, hosts: &[HostId]) -> Result<Schedule, ApplesError> {
    use crate::hat::AppStructure::*;
    match &pool.hat.structure {
        IterativeStencil(_) => Ok(Schedule::Stencil(plan_strip(pool, hosts)?)),
        Pipeline(_) => {
            if hosts.is_empty() {
                return Err(ApplesError::PlanningFailed("empty resource set".into()));
            }
            // Task-to-machine assignment matters (§2.3: the LHSF code
            // vectorizes, Log-D has per-machine implementations), so
            // try both orientations of the pair and keep the better.
            let producer = hosts[0];
            let consumer = *hosts.get(1).unwrap_or(&hosts[0]);
            let forward = plan_pipeline(pool, producer, consumer, 4)?;
            if producer == consumer {
                return Ok(Schedule::Pipeline(forward));
            }
            let backward = plan_pipeline(pool, consumer, producer, 4)?;
            let f_secs = estimator::estimate_pipeline(pool, &forward)?;
            let b_secs = estimator::estimate_pipeline(pool, &backward)?;
            Ok(Schedule::Pipeline(if f_secs <= b_secs {
                forward
            } else {
                backward
            }))
        }
        IndependentTasks(_) => Err(ApplesError::PlanningFailed(
            "task farms are planned by their Site Manager (see apples-apps::nile)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use crate::info::InfoPool;
    use crate::user::UserSpec;
    use metasim::host::HostSpec;
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use metasim::{SimTime, Topology};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Hosts with speeds 10/20/40 Mflop/s on one fast segment.
    fn topo3() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::from_micros(100)));
        b.add_host(HostSpec::dedicated("slow", 10.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("mid", 20.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("fast", 40.0, 4096.0, seg));
        b.instantiate(s(100_000.0), 0).unwrap()
    }

    #[test]
    fn strips_proportional_to_speed_when_comm_is_negligible() {
        let topo = topo3();
        let hat = jacobi2d_hat(700, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1), HostId(2)]).unwrap();
        assert_eq!(sched.parts.iter().map(|p| p.rows).sum::<usize>(), 700);
        // Speeds 10:20:40 ⇒ rows ≈ 100:200:400.
        let rows_of = |h: usize| {
            sched
                .parts
                .iter()
                .find(|p| p.host == HostId(h))
                .map(|p| p.rows)
                .unwrap_or(0)
        };
        assert!(
            (rows_of(0) as i64 - 100).abs() <= 3,
            "slow got {}",
            rows_of(0)
        );
        assert!((rows_of(1) as i64 - 200).abs() <= 3);
        assert!((rows_of(2) as i64 - 400).abs() <= 3);
    }

    #[test]
    fn loaded_host_gets_a_smaller_strip() {
        // Two nominally identical hosts, one 50% loaded: the oracle
        // pool should give the loaded host about a third of the grid
        // (speeds 0.5 : 1.0).
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::from_micros(100)));
        b.add_host(HostSpec::workstation(
            "loaded",
            20.0,
            4096.0,
            seg,
            LoadModel::Constant(0.5),
        ));
        b.add_host(HostSpec::dedicated("free", 20.0, 4096.0, seg));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let hat = jacobi2d_hat(600, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
            .with_source(crate::info::ForecastSource::Oracle);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1)]).unwrap();
        let loaded = sched.parts.iter().find(|p| p.host == HostId(0)).unwrap();
        assert!(
            (loaded.rows as i64 - 200).abs() <= 4,
            "loaded host got {} rows",
            loaded.rows
        );
    }

    #[test]
    fn useless_host_is_dropped() {
        // A host behind an extremely slow gateway whose border cost
        // dwarfs any compute contribution must be excluded.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::from_micros(100)));
        let far = b.add_segment(LinkSpec::dedicated("far", 100.0, SimTime::from_micros(100)));
        let gw = b.add_link(LinkSpec::dedicated("gw", 1e-4, SimTime::from_secs(30)));
        b.add_route(seg, far, vec![gw]).unwrap();
        b.add_host(HostSpec::dedicated("a", 40.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("b", 40.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("distant", 40.0, 4096.0, far));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let hat = jacobi2d_hat(400, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1), HostId(2)]).unwrap();
        assert!(
            !sched.hosts().contains(&HostId(2)),
            "distant host should be dropped, got {:?}",
            sched.parts
        );
        assert_eq!(sched.parts.iter().map(|p| p.rows).sum::<usize>(), 400);
    }

    #[test]
    fn memory_cap_redistributes_rows() {
        // Fast host can hold only 100 rows of a 300-row grid; the rest
        // must flow to the slow host even though it is slower.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::from_micros(100)));
        // Row of n=300 doubles: 300*16 B = 4.8 KB ⇒ 100 rows = 0.48 MB.
        b.add_host(HostSpec::dedicated("fast-smallmem", 100.0, 0.48, seg));
        b.add_host(HostSpec::dedicated("slow-bigmem", 10.0, 4096.0, seg));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let hat = jacobi2d_hat(300, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1)]).unwrap();
        let fast = sched.parts.iter().find(|p| p.host == HostId(0)).unwrap();
        let slow = sched.parts.iter().find(|p| p.host == HostId(1)).unwrap();
        assert!(
            fast.rows <= 100,
            "fast host over memory: {} rows",
            fast.rows
        );
        assert_eq!(fast.rows + slow.rows, 300);
    }

    #[test]
    fn spill_guard_off_ignores_memory() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::from_micros(100)));
        b.add_host(HostSpec::dedicated("fast-smallmem", 100.0, 0.48, seg));
        b.add_host(HostSpec::dedicated("slow-bigmem", 10.0, 4096.0, seg));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let hat = jacobi2d_hat(300, 10);
        let user = UserSpec {
            avoid_memory_spill: false,
            ..Default::default()
        };
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1)]).unwrap();
        let fast = sched.parts.iter().find(|p| p.host == HostId(0)).unwrap();
        // Unconstrained balance gives the 10× faster host ~273 rows.
        assert!(
            fast.rows > 200,
            "expected speed-balanced rows, got {}",
            fast.rows
        );
    }

    #[test]
    fn insufficient_total_memory_falls_back_to_proportional() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::from_micros(100)));
        // Each host holds 50 rows; grid needs 300.
        b.add_host(HostSpec::dedicated("a", 10.0, 0.24, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 0.24, seg));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let hat = jacobi2d_hat(300, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1)]).unwrap();
        assert_eq!(sched.parts.iter().map(|p| p.rows).sum::<usize>(), 300);
        // Proportional to equal capacities: an even split.
        assert_eq!(sched.parts[0].rows, 150);
    }

    #[test]
    fn single_host_takes_everything() {
        let topo = topo3();
        let hat = jacobi2d_hat(500, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(2)]).unwrap();
        assert_eq!(sched.parts.len(), 1);
        assert_eq!(sched.parts[0].rows, 500);
    }

    #[test]
    fn empty_set_is_an_error() {
        let topo = topo3();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert!(plan_strip(&pool, &[]).is_err());
    }

    #[test]
    fn wrong_template_is_a_mismatch() {
        let topo = topo3();
        let hat = crate::hat::Hat::pipeline(
            "p",
            crate::hat::PipelineTemplate {
                total_units: 10,
                producer_mflop_per_unit: 1.0,
                consumer_mflop_per_unit: 1.0,
                mb_per_unit: 0.1,
                producer_resident_mb: 1.0,
                consumer_base_mb: 1.0,
                consumer_mb_per_buffered_unit: 0.0,
                convert_mflop_per_message: 0.0,
                producer_efficiency: Default::default(),
                consumer_efficiency: Default::default(),
            },
        );
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert!(matches!(
            plan_strip(&pool, &[HostId(0)]),
            Err(ApplesError::TemplateMismatch { .. })
        ));
    }

    #[test]
    fn strip_order_groups_segments() {
        // Hosts on two segments must come out grouped so only one
        // border crosses the gateway.
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated(
            "segA",
            100.0,
            SimTime::from_micros(100),
        ));
        let sb = b.add_segment(LinkSpec::dedicated(
            "segB",
            100.0,
            SimTime::from_micros(100),
        ));
        let gw = b.add_link(LinkSpec::dedicated("gw", 1.0, SimTime::from_millis(5)));
        b.add_route(sa, sb, vec![gw]).unwrap();
        b.add_host(HostSpec::dedicated("a0", 20.0, 4096.0, sa));
        b.add_host(HostSpec::dedicated("b0", 20.0, 4096.0, sb));
        b.add_host(HostSpec::dedicated("a1", 20.0, 4096.0, sa));
        b.add_host(HostSpec::dedicated("b1", 20.0, 4096.0, sb));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let hat = jacobi2d_hat(800, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_strip(&pool, &[HostId(0), HostId(1), HostId(2), HostId(3)]).unwrap();
        let segs: Vec<usize> = sched
            .hosts()
            .iter()
            .map(|&h| topo.host(h).unwrap().spec.segment.0)
            .collect();
        // Grouped: segment ids are non-decreasing.
        assert!(segs.windows(2).all(|w| w[0] <= w[1]), "order {segs:?}");
    }
}
