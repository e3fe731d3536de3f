//! The Performance Estimator (§4.1).
//!
//! Given a candidate schedule and the Information Pool, predict the
//! performance the user cares about. The models here are deliberately
//! the same closed forms the Planner optimizes — the paper's point is
//! not model sophistication but that the models are *parameterized by
//! dynamic forecasts* instead of nominal speeds. The simulator
//! ([`metasim::exec`]) is the ground truth these predictions are
//! compared against in the test-suite and the EXPERIMENTS harness.

use crate::error::ApplesError;
use crate::hat::StencilTemplate;
use crate::info::InfoPool;
use crate::schedule::{FarmSchedule, PipelineSchedule, Schedule, StencilSchedule};
use crate::user::PerformanceMetric;
use metasim::{HostId, LinkId};
use std::cell::RefCell;

/// Predicted wall-clock seconds for any schedule variant.
pub fn estimate_seconds(pool: &InfoPool<'_>, schedule: &Schedule) -> Result<f64, ApplesError> {
    match schedule {
        Schedule::Stencil(s) => estimate_stencil(pool, s),
        Schedule::Pipeline(p) => estimate_pipeline(pool, p),
        Schedule::Farm(f) => estimate_farm(pool, f),
    }
}

/// One schedule's own flows per link, kept in the order its routes
/// first cross each link. A schedule crosses few distinct links, so a
/// scan of a short `Vec` is all a lookup needs.
#[derive(Debug, Clone, Default)]
pub struct LinkFlows(Vec<(LinkId, usize)>);

impl LinkFlows {
    /// Add `flows` flows on every link of `route`.
    pub fn add(&mut self, route: &[LinkId], flows: usize) {
        for &l in route {
            match self.0.iter_mut().find(|(x, _)| *x == l) {
                Some((_, n)) => *n += flows,
                None => self.0.push((l, flows)),
            }
        }
    }

    /// The number of flows sharing `link`, counting at least the one
    /// asking.
    pub fn share(&self, link: LinkId) -> f64 {
        self.0
            .iter()
            .find(|(x, _)| *x == link)
            .map_or(1, |&(_, n)| n) as f64
    }
}

/// Memory slowdown factor for a strip on a host (mirrors
/// [`metasim::Host::memory_factor`], using static spec information).
fn memory_factor(pool: &InfoPool<'_>, host: HostId, resident_mb: f64) -> Result<f64, ApplesError> {
    let spec = &pool.topo.host(host)?.spec;
    Ok(if resident_mb <= spec.mem_mb {
        1.0
    } else {
        1.0 / (1.0 + spec.paging_slowdown * (resident_mb / spec.mem_mb - 1.0))
    })
}

/// §5 cost model: `T_i = A_i * P_i + C_i`, iteration time `max_i T_i`,
/// total `iterations * max_i T_i` plus the longest startup wait.
///
/// The communication term is *contention-aware* in the spirit of the
/// paper's reference \[7\] (Figueira & Berman, "Modeling the effects of
/// contention on the performance of heterogeneous applications"): all
/// border exchanges of one iteration overlap, so each link's predicted
/// usable bandwidth is divided by the number of the application's own
/// flows crossing it before the per-flow time is computed.
pub fn estimate_stencil(pool: &InfoPool<'_>, sched: &StencilSchedule) -> Result<f64, ApplesError> {
    sched.validate()?;
    let t: &StencilTemplate = pool.hat.as_stencil().ok_or(ApplesError::TemplateMismatch {
        expected: "iterative-stencil",
        found: pool.hat.class_name(),
    })?;
    // Count this schedule's own flows per link: every adjacent strip
    // pair exchanges one message in each direction per iteration.
    FLOWS.with_borrow_mut(|link_flows| {
        link_flows.0.clear();
        for w in sched.parts.windows(2) {
            if w[0].host != w[1].host {
                link_flows.add(pool.topo.route(w[0].host, w[1].host)?, 2);
            }
        }
        contended_stencil_seconds(pool, t, sched, link_flows)
    })
}

thread_local! {
    /// The stencil estimator's flow count, reused by every candidate a
    /// thread estimates.
    static FLOWS: RefCell<LinkFlows> = RefCell::new(LinkFlows::default());
}

/// [`estimate_stencil`] once the schedule's own flows are counted.
fn contended_stencil_seconds(
    pool: &InfoPool<'_>,
    t: &StencilTemplate,
    sched: &StencilSchedule,
    link_flows: &LinkFlows,
) -> Result<f64, ApplesError> {
    let parts = &sched.parts;
    let k = parts.len();
    let border = t.border_mb();

    // Per-flow transfer seconds with the shared-bandwidth discount.
    let contended_transfer = |from: HostId, to: HostId| -> Result<f64, ApplesError> {
        if from == to {
            return Ok(0.0);
        }
        let mut latency = metasim::SimTime::ZERO;
        let mut bw = f64::INFINITY;
        for &l in pool.topo.route(from, to)? {
            let link = pool.topo.link(l)?;
            latency += link.spec.latency;
            let share = link_flows.share(l);
            bw = bw.min(link.spec.bandwidth_mbps * pool.link_availability(l) / share);
        }
        if bw <= 0.0 {
            return Err(ApplesError::Sim(metasim::SimError::NeverCompletes {
                work: border,
            }));
        }
        Ok(latency.as_secs_f64() + border / bw)
    };

    let mut iter_time: f64 = 0.0;
    let mut startup: f64 = 0.0;
    // The two transfers across the border with the previous strip:
    // (this strip to it, it to this strip), worked out last round as
    // that strip's border with its next.
    let mut left = (0.0, 0.0);
    for (i, part) in parts.iter().enumerate() {
        let eff = pool.effective_mflops(part.host)?;
        if eff <= 0.0 {
            return Err(ApplesError::PlanningFailed(format!(
                "host {} predicted fully unavailable",
                part.host
            )));
        }
        let resident = t.strip_resident_mb(part.rows);
        let mf = memory_factor(pool, part.host, resident)?;
        let compute = t.strip_mflop_per_iter(part.rows) / (eff * mf);
        let mut comm = 0.0;
        if i > 0 {
            // Send to and receive from the previous strip.
            comm += left.0;
            comm += left.1;
        }
        if i + 1 < k {
            let next = parts[i + 1].host;
            let right = (
                contended_transfer(part.host, next)?,
                contended_transfer(next, part.host)?,
            );
            comm += right.0;
            comm += right.1;
            left = (right.1, right.0);
        }
        iter_time = iter_time.max(compute + comm);
        startup = startup.max(pool.topo.host(part.host)?.startup_wait().as_secs_f64());
    }
    Ok(startup + sched.iterations as f64 * iter_time)
}

/// Pipeline model: fill time plus the bottleneck stage paced over the
/// remaining batches. Pipeline-depth stalls beyond depth 1 are not
/// modelled (the simulator charges them; the estimator is optimistic,
/// exactly like the paper's analytic models).
pub fn estimate_pipeline(
    pool: &InfoPool<'_>,
    sched: &PipelineSchedule,
) -> Result<f64, ApplesError> {
    let t = pool
        .hat
        .as_pipeline()
        .ok_or(ApplesError::TemplateMismatch {
            expected: "pipeline",
            found: pool.hat.class_name(),
        })?;
    let pname = &pool.topo.host(sched.producer)?.spec.name;
    let cname = &pool.topo.host(sched.consumer)?.spec.name;
    let job = sched.to_pipeline_job(t, pname, cname, metasim::SimTime::ZERO)?;

    let peff = pool.effective_mflops(sched.producer)?;
    let ceff = pool.effective_mflops(sched.consumer)?;
    if peff <= 0.0 || ceff <= 0.0 {
        return Err(ApplesError::PlanningFailed(
            "pipeline endpoint predicted fully unavailable".into(),
        ));
    }
    let pmf = memory_factor(pool, sched.producer, job.producer_resident_mb)?;
    let cmf = memory_factor(pool, sched.consumer, job.consumer_resident_mb)?;

    let tp = job.producer_mflop_per_unit / (peff * pmf);
    let tc = job.consumer_mflop_per_unit / (ceff * cmf);
    let tx = pool.transfer_seconds(sched.producer, sched.consumer, job.mb_per_unit)?;
    let b = job.n_units as f64;
    if b == 0.0 {
        return Ok(0.0);
    }
    let startup = pool
        .topo
        .host(sched.producer)?
        .startup_wait()
        .max(pool.topo.host(sched.consumer)?.startup_wait())
        .as_secs_f64();
    let bottleneck = tp.max(tc).max(tx);
    Ok(startup + tp + tx + tc + (b - 1.0) * bottleneck)
}

/// Task-farm model: each host pays its share of input data movement
/// (serialized at the data home's uplink), computes its events, and
/// returns results; the farm finishes with its slowest member.
pub fn estimate_farm(pool: &InfoPool<'_>, sched: &FarmSchedule) -> Result<f64, ApplesError> {
    let t = pool
        .hat
        .as_task_farm()
        .ok_or(ApplesError::TemplateMismatch {
            expected: "task-farm",
            found: pool.hat.class_name(),
        })?;
    sched.validate(t)?;
    // Remote readers share the data home's uplink: charge each remote
    // host its payload at a 1/k share of the route bandwidth.
    let remote: usize = sched
        .assignments
        .iter()
        .filter(|&&(h, _)| h != sched.data_home)
        .count();
    let share = remote.max(1) as f64;
    let mut worst: f64 = 0.0;
    for &(host, events) in &sched.assignments {
        let eff = pool.effective_mflops(host)?;
        if eff <= 0.0 {
            return Err(ApplesError::PlanningFailed(format!(
                "farm host {host} predicted fully unavailable"
            )));
        }
        let compute = events as f64 * t.mflop_per_event / eff;
        let data_mb = events as f64 * t.mb_per_event;
        let pull = if host == sched.data_home {
            0.0
        } else {
            pool.transfer_seconds(sched.data_home, host, data_mb)? * share
        };
        let result_mb = events as f64 * t.result_mb_per_event;
        let push = pool.transfer_seconds(host, sched.result_home, result_mb)?;
        worst = worst.max(pull + compute + push);
    }
    Ok(worst)
}

/// Score a candidate under the user's metric; lower is better. For
/// [`PerformanceMetric::Speedup`] the caller supplies the best
/// single-host time as the denominator's reference.
pub fn objective(
    metric: &PerformanceMetric,
    predicted_seconds: f64,
    n_hosts: usize,
    best_single_host_seconds: Option<f64>,
) -> f64 {
    match metric {
        PerformanceMetric::ExecutionTime => predicted_seconds,
        PerformanceMetric::Speedup => match best_single_host_seconds {
            // Minimize time/single = maximize speedup.
            Some(single) if single > 0.0 => predicted_seconds / single,
            _ => predicted_seconds,
        },
        PerformanceMetric::Cost { per_host_second } => {
            predicted_seconds + per_host_second * n_hosts as f64 * predicted_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use crate::schedule::StencilPart;
    use crate::user::UserSpec;
    use metasim::host::HostSpec;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use metasim::{SimTime, Topology};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo2() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 4096.0, seg));
        b.instantiate(s(100_000.0), 0).unwrap()
    }

    #[test]
    fn stencil_estimate_matches_simulation_on_dedicated_hosts() {
        // With dedicated hosts and an uncontended network, the §5 cost
        // model and the BSP simulator should agree closely.
        let topo = topo2();
        let hat = jacobi2d_hat(1000, 20);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = StencilSchedule {
            n: 1000,
            iterations: 20,
            parts: vec![
                StencilPart {
                    host: HostId(0),
                    rows: 500,
                },
                StencilPart {
                    host: HostId(1),
                    rows: 500,
                },
            ],
        };
        let predicted = estimate_stencil(&pool, &sched).unwrap();
        let t = hat.as_stencil().unwrap();
        let job = sched.to_spmd_job(t, SimTime::ZERO);
        let actual = metasim::exec::simulate_spmd(&topo, &job, &mut metasim::NoopSink)
            .unwrap()
            .finish
            .as_secs_f64();
        let rel = (predicted - actual).abs() / actual;
        // The model charges each side send+receive separately while the
        // simulator overlaps concurrent flows, so the model is a bit
        // pessimistic; they must still agree to ~20%.
        assert!(
            rel < 0.2,
            "predicted {predicted:.3}s vs simulated {actual:.3}s (rel {rel:.3})"
        );
    }

    #[test]
    fn stencil_estimate_is_exact_without_comm() {
        let topo = topo2();
        let hat = jacobi2d_hat(1000, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = StencilSchedule {
            n: 1000,
            iterations: 10,
            parts: vec![StencilPart {
                host: HostId(0),
                rows: 1000,
            }],
        };
        let predicted = estimate_stencil(&pool, &sched).unwrap();
        // 1000*1000*5 flop = 5 Mflop/iter at 10 Mflop/s = 0.5 s; ×10.
        assert!((predicted - 5.0).abs() < 1e-9);
    }

    #[test]
    fn paging_inflates_the_estimate() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("small", 10.0, 4.0, seg));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let hat = jacobi2d_hat(1000, 1); // full grid: 16 MB resident
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = StencilSchedule {
            n: 1000,
            iterations: 1,
            parts: vec![StencilPart {
                host: HostId(0),
                rows: 1000,
            }],
        };
        let spilled = estimate_stencil(&pool, &sched).unwrap();
        // Without paging this is 0.5 s; 4× overcommit with k=50 gives
        // a factor 1 + 50*3 = 151.
        assert!(spilled > 50.0, "expected a paging cliff, got {spilled}");
    }

    #[test]
    fn objective_execution_time_is_identity() {
        assert_eq!(
            objective(&PerformanceMetric::ExecutionTime, 42.0, 3, None),
            42.0
        );
    }

    #[test]
    fn objective_cost_charges_hosts() {
        let m = PerformanceMetric::Cost {
            per_host_second: 0.1,
        };
        // 10 s on 4 hosts: 10 + 0.1*4*10 = 14.
        assert!((objective(&m, 10.0, 4, None) - 14.0).abs() < 1e-12);
        // Cost can prefer fewer hosts even when slightly slower.
        assert!(objective(&m, 11.0, 1, None) < objective(&m, 10.0, 4, None));
    }

    #[test]
    fn objective_speedup_normalizes_by_single_host() {
        let m = PerformanceMetric::Speedup;
        assert!((objective(&m, 5.0, 2, Some(20.0)) - 0.25).abs() < 1e-12);
        // Missing reference degrades to raw time.
        assert_eq!(objective(&m, 5.0, 2, None), 5.0);
    }

    #[test]
    fn farm_estimate_balances_compute_and_data() {
        let topo = topo2();
        let hat = crate::hat::Hat::task_farm(
            "farm",
            crate::hat::TaskFarmTemplate {
                events: 1000,
                mflop_per_event: 1.0,
                mb_per_event: 0.01,
                result_mb_per_event: 0.0,
            },
        );
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let local_only = FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(0), 1000)],
        };
        // 1000 Mflop at 10 Mflop/s, no data movement: 100 s.
        let t_local = estimate_farm(&pool, &local_only).unwrap();
        assert!((t_local - 100.0).abs() < 1e-9);

        let split = FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(0), 500), (HostId(1), 500)],
        };
        let t_split = estimate_farm(&pool, &split).unwrap();
        // Remote half pays 5 MB at 10 MB/s = 0.5 s on top of 50 s.
        assert!(t_split < t_local);
        assert!((t_split - 50.5).abs() < 0.1, "got {t_split}");
    }

    #[test]
    fn wrong_template_errors() {
        let topo = topo2();
        let hat = jacobi2d_hat(10, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let farm = FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(0), 1)],
        };
        assert!(matches!(
            estimate_farm(&pool, &farm),
            Err(ApplesError::TemplateMismatch { .. })
        ));
    }
}
