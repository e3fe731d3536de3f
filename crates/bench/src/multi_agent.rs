//! Multiple AppLeS agents sharing one system (§3).
//!
//! "Each user and/or application-developer schedules their application
//! so as to optimize their own performance criteria without regard to
//! the performance goals of other applications which share the system.
//! However, other applications create contention for shared resources,
//! and are experienced by an individual application in terms of the
//! dynamically varying performance capability of metacomputing system
//! resources."
//!
//! This experiment stages selfish agents submitting Jacobi2D jobs of
//! configurable lengths a minute apart, in two information regimes:
//!
//! * **aware** — each agent's Weather Service has observed the system
//!   *including the load imposed by the agents already running*, so
//!   later agents see busy hosts as slow and route around them;
//! * **blind** — every agent decides from the same pristine
//!   measurements (as if all submitted simultaneously), so they pile
//!   onto the same fast hosts and contend.
//!
//! The canonical scenario is a short *probe* job arriving while
//! long-running jobs occupy the fast hosts: the aware probe routes
//! around them; the blind probe piles on and crawls. (When contention
//! is *transient* relative to the arriving job, awareness can even
//! mislead — the NWS forecasts persistence — which is exactly the
//! §3.6 point that schedules are only as good as their predictions.)
//!
//! No coordination happens in either regime — the paper's point is
//! that accurate *observation* alone yields decent system behaviour
//! from purely application-centric decisions.
//!
//! The staging itself (admit → decide → actuate → impose) is the
//! general job-stream service of `apples-grid`; this module is a thin
//! wrapper fixing the workload shape to staged same-size Jacobi jobs.

use apples_grid::service::GridConfig;
use apples_grid::workload::{JobKind, JobSpec, RetryPolicy};
use apples_grid::{run_regime_jobs_with_sink, SchedRegime};
use metasim::simtrace::NoopSink;
use metasim::SimTime;

pub use apples_grid::service::Regime;

/// How one staged agent fared.
#[derive(Debug, Clone)]
pub struct AgentOutcome {
    /// Agent index (submission order).
    pub agent: usize,
    /// Submission time.
    pub start: SimTime,
    /// Host names the agent's schedule used.
    pub hosts: Vec<String>,
    /// Wall-clock seconds of the agent's run.
    pub elapsed: f64,
}

/// Stage one Jacobi2D job per entry of `iterations_per_agent`, `gap`
/// seconds apart, under the given information regime. Returns one
/// outcome per agent, in submission order.
pub fn run_staged(
    n: usize,
    iterations_per_agent: &[usize],
    seed: u64,
    gap: SimTime,
    regime: Regime,
) -> Vec<AgentOutcome> {
    let jobs: Vec<JobSpec> = iterations_per_agent
        .iter()
        .enumerate()
        .map(|(agent, &iterations)| JobSpec {
            id: agent,
            submit: SimTime::from_micros(gap.as_micros() * agent as u64),
            kind: JobKind::Jacobi { n, iterations },
        })
        .collect();
    let cfg = GridConfig {
        seed,
        regime,
        ..GridConfig::default()
    };
    let duration = SimTime::from_micros(gap.as_micros() * iterations_per_agent.len() as u64);
    let outcome = run_regime_jobs_with_sink(
        &cfg,
        SchedRegime::Selfish,
        &jobs,
        duration,
        RetryPolicy::default(),
        &mut NoopSink,
    )
    .expect("staged stream");
    outcome
        .records
        .into_iter()
        .map(|r| AgentOutcome {
            agent: r.id,
            start: r.start,
            hosts: r.hosts,
            elapsed: r.exec_seconds,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three long jobs occupy the fast hosts; a short probe arrives.
    const PROBE_MIX: &[usize] = &[6000, 6000, 6000, 400];

    #[test]
    fn aware_probe_beats_blind_probe() {
        let gap = SimTime::from_secs(60);
        let aware = run_staged(1200, PROBE_MIX, 77, gap, Regime::Aware);
        let blind = run_staged(1200, PROBE_MIX, 77, gap, Regime::Blind);
        // The first agent is identical either way.
        assert!((aware[0].elapsed - blind[0].elapsed).abs() < 1e-6);
        // The probe (last agent) lands mid-contention: awareness must
        // pay off clearly.
        let aware_probe = aware.last().unwrap().elapsed;
        let blind_probe = blind.last().unwrap().elapsed;
        assert!(
            aware_probe < blind_probe,
            "aware probe {aware_probe:.1}s vs blind probe {blind_probe:.1}s"
        );
    }

    #[test]
    fn aware_probe_routes_around_the_long_jobs() {
        let gap = SimTime::from_secs(60);
        let aware = run_staged(1200, PROBE_MIX, 78, gap, Regime::Aware);
        let set = |hosts: &[String]| {
            let mut v = hosts.to_vec();
            v.sort();
            v
        };
        // The probe's host set must differ from the first long job's.
        assert_ne!(
            set(&aware[0].hosts),
            set(&aware.last().unwrap().hosts),
            "probe piled onto the long jobs' hosts"
        );
    }

    #[test]
    fn staging_is_deterministic() {
        let gap = SimTime::from_secs(300);
        let a = run_staged(1000, &[30, 30], 9, gap, Regime::Aware);
        let b = run_staged(1000, &[30, 30], 9, gap, Regime::Aware);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.elapsed, y.elapsed);
            assert_eq!(x.hosts, y.hosts);
        }
    }
}
