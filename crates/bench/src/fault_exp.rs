//! T-FAULT: "Figure 6 for a fleet" — fault-tolerant job streams under
//! escalating host-crash rates.
//!
//! The paper's Figure 6 shows the aware schedule surviving conditions
//! that break the blind one. Here the same contrast is run at fleet
//! scale: one seeded fault schedule crashes hosts mid-stream, and the
//! same workload is streamed twice —
//!
//! * **aware + rescheduling**: agents decide from live NWS forecasts,
//!   revoked placements retry with exponential backoff, and stencil
//!   jobs re-plan remnant phases on the survivors;
//! * **blind**: agents decide from the pristine pre-fault snapshot and
//!   each job gets a single attempt.
//!
//! Both regimes face the *identical* fault schedule (same grid seed),
//! so every completed-job gap is attributable to failure detection and
//! recovery, not luck.

use crate::table;
use apples_grid::metrics::FleetMetrics;
use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{run_regime_jobs_with_sink, FaultInjection, GridConfig, Regime, SchedRegime};
use metasim::simtrace::NoopSink;
use metasim::{FaultModel, SimTime};

/// Parameters of the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultExpConfig {
    /// Mean Poisson arrival rate, jobs per second.
    pub rate_hz: f64,
    /// Submission-window length, seconds.
    pub duration_secs: f64,
    /// Seed for workload, testbed and fault realization.
    pub seed: u64,
    /// Host-crash rates to sweep, in crashes per host-hour.
    pub crash_rates: Vec<f64>,
    /// Mean recoverable-outage length, seconds.
    pub mean_outage_secs: f64,
    /// Fraction of crashes that are permanent.
    pub permanent_fraction: f64,
    /// Retry budget of the aware regime (the blind baseline always
    /// gets a single attempt).
    pub max_attempts: u32,
}

impl Default for FaultExpConfig {
    fn default() -> Self {
        FaultExpConfig {
            rate_hz: 0.01,
            duration_secs: 1800.0,
            seed: 1996,
            crash_rates: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            mean_outage_secs: 600.0,
            permanent_fraction: 0.25,
            max_attempts: 4,
        }
    }
}

/// Both regimes' fleet metrics at one crash rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrial {
    /// Host crashes per host-hour.
    pub crash_rate: f64,
    /// Aware regime with rescheduling and retries.
    pub aware: FleetMetrics,
    /// Blind regime, single attempt per job.
    pub blind: FleetMetrics,
}

/// Stream the same workload through both regimes at each crash rate.
pub fn run_fault_sweep(cfg: &FaultExpConfig) -> Vec<FaultTrial> {
    cfg.crash_rates
        .iter()
        .map(|&crash_rate| {
            let faults = if crash_rate > 0.0 {
                FaultInjection::Random(FaultModel {
                    host_crashes_per_hour: crash_rate,
                    link_outages_per_hour: 0.0,
                    mean_outage: SimTime::from_secs_f64(cfg.mean_outage_secs),
                    permanent_fraction: cfg.permanent_fraction,
                })
            } else {
                FaultInjection::None
            };
            let grid = GridConfig {
                seed: cfg.seed,
                faults,
                ..GridConfig::default()
            };
            let workload = WorkloadConfig {
                arrivals: ArrivalProcess::Poisson {
                    rate_hz: cfg.rate_hz,
                },
                mix: JobMix::default_mix(),
                duration: SimTime::from_secs_f64(cfg.duration_secs),
                seed: cfg.seed,
                retry: RetryPolicy::with_attempts(cfg.max_attempts),
            };
            // Both agents face the same realized stream; only the
            // information regime and the retry budget differ.
            let jobs = workload.realize();
            let stream = |regime, retry| {
                run_regime_jobs_with_sink(
                    &GridConfig {
                        regime,
                        ..grid.clone()
                    },
                    SchedRegime::Selfish,
                    &jobs,
                    workload.duration,
                    retry,
                    &mut NoopSink,
                )
            };
            let aware = stream(Regime::Aware, workload.retry).expect("aware stream");
            let blind = stream(Regime::Blind, RetryPolicy::with_attempts(1)).expect("blind stream");
            FaultTrial {
                crash_rate,
                aware: aware.fleet,
                blind: blind.fleet,
            }
        })
        .collect()
}

/// The sweep as a table: completions, failures and goodput per regime.
pub fn fault_table(trials: &[FaultTrial]) -> String {
    let rows: Vec<Vec<String>> = trials
        .iter()
        .map(|t| {
            vec![
                format!("{:.1}", t.crash_rate),
                format!("{}", t.aware.jobs),
                format!("{}", t.aware.jobs_completed),
                format!("{}", t.aware.jobs_failed),
                format!("{}", t.aware.jobs_rescheduled),
                format!("{:.3}", t.aware.goodput),
                format!("{}", t.blind.jobs_completed),
                format!("{}", t.blind.jobs_failed),
                format!("{:.3}", t.blind.goodput),
            ]
        })
        .collect();
    table::render(
        &[
            "crash/host-h",
            "jobs",
            "aware done",
            "aware fail",
            "aware resched",
            "aware goodput",
            "blind done",
            "blind fail",
            "blind goodput",
        ],
        &rows,
    )
}

/// One-line verdict for the sweep's highest crash rate.
pub fn fault_summary(trials: &[FaultTrial]) -> String {
    match trials.last() {
        Some(t) => format!(
            "at {:.1} crashes/host-hour: aware completes {}/{} (goodput {:.3}), \
             blind completes {}/{} (goodput {:.3})",
            t.crash_rate,
            t.aware.jobs_completed,
            t.aware.jobs,
            t.aware.goodput,
            t.blind.jobs_completed,
            t.blind.jobs,
            t.blind.goodput,
        ),
        None => "no trials".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aware_with_rescheduling_beats_blind_under_faults() {
        let cfg = FaultExpConfig {
            rate_hz: 0.008,
            duration_secs: 1500.0,
            crash_rates: vec![3.0],
            ..FaultExpConfig::default()
        };
        let trials = run_fault_sweep(&cfg);
        let t = &trials[0];
        assert_eq!(t.aware.jobs, t.blind.jobs, "same admitted stream");
        assert!(
            t.aware.jobs_completed > t.blind.jobs_completed,
            "aware {} vs blind {} completed: {}",
            t.aware.jobs_completed,
            t.blind.jobs_completed,
            fault_table(&trials),
        );
        assert!(t.aware.goodput >= t.blind.goodput);
        assert!(fault_table(&trials).contains("aware done"));
        assert!(fault_summary(&trials).contains("aware completes"));
    }

    #[test]
    fn no_faults_means_no_failures_in_either_regime() {
        let cfg = FaultExpConfig {
            rate_hz: 0.005,
            duration_secs: 900.0,
            crash_rates: vec![0.0],
            ..FaultExpConfig::default()
        };
        let t = &run_fault_sweep(&cfg)[0];
        assert_eq!(t.aware.jobs_failed, 0, "{:?}", t.aware);
        assert_eq!(t.blind.jobs_failed, 0, "{:?}", t.blind);
    }
}
