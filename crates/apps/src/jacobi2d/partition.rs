//! The partitioning strategies compared in Figures 3–6.
//!
//! * [`uniform_strip`] — equal strips, the naive baseline.
//! * [`static_strip`] — Figure 4's non-uniform strips, "calculated
//!   statically at compile time, and parameterized by (non-uniform)
//!   CPU speeds and bandwidth": nominal speeds only, blind to load,
//!   contention and memory.
//! * [`blocked_uniform`] — Figure 5's HPF Uniform/Blocked partition.
//! * [`apples_partition`] — the AppLeS agent's dynamic partition
//!   (Figure 3), driven by NWS forecasts through the full
//!   select → plan → estimate → choose blueprint.

use super::blocked::BlockedSchedule;
use apples::coordinator::{Coordinator, Decision};
use apples::error::ApplesError;
use apples::hat::jacobi2d_hat;
use apples::info::InfoPool;
use apples::schedule::{Schedule, StencilPart, StencilSchedule};
use apples::user::UserSpec;
use metasim::{HostId, Topology};

#[cfg(doc)]
use super::blocked::estimate_blocked;

/// Equal-rows strips (remainder rows go to the leading strips).
///
/// # Panics
/// Panics if `hosts` is empty or there are more hosts than rows.
pub fn uniform_strip(n: usize, iterations: usize, hosts: &[HostId]) -> StencilSchedule {
    assert!(!hosts.is_empty(), "uniform strips need hosts");
    assert!(hosts.len() <= n, "more hosts than grid rows");
    let base = n / hosts.len();
    let extra = n % hosts.len();
    let parts = hosts
        .iter()
        .enumerate()
        .map(|(i, &host)| StencilPart {
            host,
            rows: base + usize::from(i < extra),
        })
        .collect();
    StencilSchedule {
        n,
        iterations,
        parts,
    }
}

/// Figure 4's compile-time non-uniform strips: rows proportional to
/// *nominal* CPU speed. Knows the machines are different, but not that
/// they are loaded.
///
/// # Panics
/// Panics if `hosts` is empty or references unknown hosts.
pub fn static_strip(
    topo: &Topology,
    n: usize,
    iterations: usize,
    hosts: &[HostId],
) -> StencilSchedule {
    assert!(!hosts.is_empty(), "static strips need hosts");
    let speeds: Vec<f64> = hosts
        .iter()
        .map(|&h| topo.host(h).expect("known host").spec.mflops)
        .collect();
    let total: f64 = speeds.iter().sum();
    // Largest-remainder rounding of the proportional shares.
    let shares: Vec<f64> = speeds.iter().map(|s| n as f64 * s / total).collect();
    let mut rows: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut remainder = n - rows.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..hosts.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.total_cmp(&fa)
    });
    for &i in order.iter().cycle() {
        if remainder == 0 {
            break;
        }
        rows[i] += 1;
        remainder -= 1;
    }
    let parts = hosts
        .iter()
        .zip(&rows)
        .filter(|&(_, &r)| r > 0)
        .map(|(&host, &rows)| StencilPart { host, rows })
        .collect();
    StencilSchedule {
        n,
        iterations,
        parts,
    }
}

/// Figure 5's HPF Uniform/Blocked partition.
pub fn blocked_uniform(n: usize, iterations: usize, hosts: &[HostId]) -> BlockedSchedule {
    BlockedSchedule::new(n, iterations, hosts)
}

/// The AppLeS partition: run the full blueprint over the information
/// pool and return the decision. The winning schedule is
/// `decision.schedule()`; Figure 3 reports its strip fractions.
pub fn apples_partition(pool: &InfoPool<'_>) -> Result<Decision, ApplesError> {
    let agent = Coordinator::new(pool.hat.clone(), pool.user.clone());
    agent.decide(pool)
}

/// Convenience: run the blueprint and unwrap the winning stencil
/// schedule.
pub fn apples_stencil_schedule(pool: &InfoPool<'_>) -> Result<StencilSchedule, ApplesError> {
    let decision = apples_partition(pool)?;
    match decision.schedule() {
        Schedule::Stencil(s) => Ok(s.clone()),
        _ => Err(ApplesError::Invalid(
            "jacobi coordinator produced a non-stencil schedule".into(),
        )),
    }
}

/// The standard Jacobi experiment context: HAT and user spec as in §5
/// (strip decompositions only, spill avoidance on).
pub fn jacobi_context(n: usize, iterations: usize) -> (apples::hat::Hat, UserSpec) {
    (jacobi2d_hat(n, iterations), UserSpec::default())
}

/// An AppLeS-planned *blocked* decomposition: evaluate uniform block
/// meshes over every subset size of the forecast-ranked feasible hosts
/// and return the best by the blocked cost model.
///
/// The §5 user restricted the agent to strips because block
/// predictions were considered too complex; with
/// [`super::blocked::estimate_blocked`] in hand the agent can search
/// blocked plans too, and `apples-cli reproduce ABL-3` measures how
/// much the restriction costs (usually: strips genuinely win on a
/// heterogeneous pool, because uniform blocks cannot shape themselves
/// to per-host speed).
pub fn apples_blocked_decision(pool: &InfoPool<'_>) -> Result<(BlockedSchedule, f64), ApplesError> {
    let t = pool.hat.as_stencil().ok_or(ApplesError::TemplateMismatch {
        expected: "iterative-stencil",
        found: pool.hat.class_name(),
    })?;
    // Rank hosts by forecast speed; consider every prefix size.
    let mut feasible = apples::selector::ResourceSelector::feasible_hosts(pool);
    if feasible.is_empty() {
        return Err(ApplesError::NoFeasibleResources);
    }
    feasible.sort_by(|&a, &b| {
        let sa = pool.effective_mflops(a).unwrap_or(0.0);
        let sb = pool.effective_mflops(b).unwrap_or(0.0);
        sb.total_cmp(&sa)
    });
    let mut best: Option<(BlockedSchedule, f64)> = None;
    for k in 1..=feasible.len().min(pool.user.max_hosts) {
        let sched = super::blocked::BlockedSchedule::new(t.n, t.iterations, &feasible[..k]);
        let Ok(secs) = super::blocked::estimate_blocked(pool, &sched, t) else {
            continue;
        };
        if best.as_ref().is_none_or(|&(_, b)| secs < b) {
            best = Some((sched, secs));
        }
    }
    best.ok_or(ApplesError::NoViableSchedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim::host::HostSpec;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use metasim::SimTime;

    fn hosts(k: usize) -> Vec<HostId> {
        (0..k).map(HostId).collect()
    }

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("slow", 10.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("fast", 30.0, 4096.0, seg));
        b.instantiate(SimTime::from_secs(1000), 0).unwrap()
    }

    #[test]
    fn uniform_splits_evenly_with_remainder_leading() {
        let s = uniform_strip(10, 1, &hosts(3));
        let rows: Vec<usize> = s.parts.iter().map(|p| p.rows).collect();
        assert_eq!(rows, vec![4, 3, 3]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn uniform_exact_division() {
        let s = uniform_strip(9, 1, &hosts(3));
        assert!(s.parts.iter().all(|p| p.rows == 3));
    }

    #[test]
    fn static_strip_proportional_to_nominal_speed() {
        let topo = topo();
        let s = static_strip(&topo, 400, 1, &[HostId(0), HostId(1)]);
        assert!(s.validate().is_ok());
        // Speeds 10:30 ⇒ rows 100:300.
        assert_eq!(s.parts[0].rows, 100);
        assert_eq!(s.parts[1].rows, 300);
    }

    #[test]
    fn static_strip_rounding_conserves_rows() {
        let topo = topo();
        let s = static_strip(&topo, 401, 1, &[HostId(0), HostId(1)]);
        assert_eq!(s.parts.iter().map(|p| p.rows).sum::<usize>(), 401);
    }

    #[test]
    #[should_panic(expected = "more hosts than grid rows")]
    fn uniform_rejects_too_many_hosts() {
        uniform_strip(2, 1, &hosts(3));
    }

    #[test]
    fn blocked_decision_picks_a_mesh() {
        let topo = topo();
        let (hat, user) = jacobi_context(300, 5);
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let (sched, predicted) = apples_blocked_decision(&pool).unwrap();
        assert!(predicted > 0.0);
        assert!(sched.pr * sched.pc == sched.hosts.len());
        assert!(!sched.hosts.is_empty());
    }

    #[test]
    fn blocked_decision_prefers_the_fast_host_alone_when_comm_is_dear() {
        // A very slow segment makes any exchange ruinous: the best
        // uniform-block mesh is the single fastest host.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 1e-4, SimTime::from_secs(5)));
        b.add_host(HostSpec::dedicated("slow", 10.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("fast", 30.0, 4096.0, seg));
        let topo = b.instantiate(SimTime::from_secs(1000), 0).unwrap();
        let (hat, user) = jacobi_context(300, 5);
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let (sched, _) = apples_blocked_decision(&pool).unwrap();
        assert_eq!(sched.hosts, vec![HostId(1)]);
    }

    #[test]
    fn strip_planning_beats_blocked_planning_on_heterogeneous_pools() {
        // The §5 rationale quantified: a shaped strip schedule should
        // out-predict the best uniform block mesh when speeds differ.
        let topo = topo(); // speeds 10 and 30
        let (hat, user) = jacobi_context(600, 20);
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let strip = apples_partition(&pool).unwrap();
        let (_, blocked_pred) = apples_blocked_decision(&pool).unwrap();
        assert!(
            strip.chosen().predicted_seconds <= blocked_pred + 1e-9,
            "strip {} vs blocked {}",
            strip.chosen().predicted_seconds,
            blocked_pred
        );
    }

    #[test]
    fn apples_partition_runs_the_blueprint() {
        let topo = topo();
        let (hat, user) = jacobi_context(300, 5);
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let d = apples_partition(&pool).unwrap();
        assert!(!d.considered.is_empty());
        let s = apples_stencil_schedule(&pool).unwrap();
        assert!(s.validate().is_ok());
    }
}
