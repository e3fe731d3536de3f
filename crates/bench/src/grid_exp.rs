//! T-GRID: the multi-tenant job-stream service under an open arrival
//! process — fleet throughput, latency percentiles and per-host
//! utilization when many selfish AppLeS agents share the Figure 2
//! testbed, each observing (or not) the load imposed by the others.

use crate::table;
use apples_grid::metrics::FleetMetrics;
use apples_grid::sweep::{mean_of, sweep_seeds, TrialResult};
use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::GridConfig;
use metasim::SimTime;

/// Parameters of the throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GridExpConfig {
    /// Mean Poisson arrival rate, jobs per second.
    pub rate_hz: f64,
    /// Submission-window length, seconds.
    pub duration_secs: f64,
    /// Base seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Number of independent trials.
    pub trials: usize,
}

impl Default for GridExpConfig {
    fn default() -> Self {
        GridExpConfig {
            rate_hz: 0.02,
            duration_secs: 3600.0,
            seed: 1,
            trials: 1,
        }
    }
}

/// Run the experiment: `trials` independent streams, in parallel.
pub fn run_trials(cfg: &GridExpConfig) -> Vec<TrialResult> {
    let grid = GridConfig {
        seed: cfg.seed,
        ..GridConfig::default()
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson {
            rate_hz: cfg.rate_hz,
        },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs_f64(cfg.duration_secs),
        seed: cfg.seed,
        ..WorkloadConfig::default()
    };
    let seeds: Vec<u64> = (0..cfg.trials as u64).map(|i| cfg.seed + i).collect();
    sweep_seeds(&grid, &workload, &seeds).expect("grid sweep")
}

/// The fleet metrics of one trial as a two-column table.
pub fn fleet_table(fleet: &FleetMetrics) -> String {
    let rows = vec![
        vec!["jobs completed".into(), format!("{}", fleet.jobs_completed)],
        vec![
            "throughput /h".into(),
            format!("{:.2}", fleet.throughput_per_hour),
        ],
        vec!["mean wait s".into(), table::secs(fleet.mean_wait_seconds)],
        vec!["mean exec s".into(), table::secs(fleet.mean_exec_seconds)],
        vec![
            "mean slowdown".into(),
            format!("{:.3}", fleet.mean_slowdown),
        ],
        vec!["latency p50 s".into(), table::secs(fleet.latency_p50)],
        vec!["latency p95 s".into(), table::secs(fleet.latency_p95)],
        vec!["latency p99 s".into(), table::secs(fleet.latency_p99)],
    ];
    table::render(&["fleet metric", "value"], &rows)
}

/// Per-host demand utilization as a table.
pub fn utilization_table(fleet: &FleetMetrics) -> String {
    let rows: Vec<Vec<String>> = fleet
        .host_utilization
        .iter()
        .map(|(name, u)| vec![name.clone(), format!("{:.3}", u)])
        .collect();
    table::render(&["host", "utilization"], &rows)
}

/// Cross-trial summary line.
pub fn sweep_summary(trials: &[TrialResult]) -> String {
    format!(
        "{} trial(s): mean throughput {:.2}/h, mean slowdown {:.3}, mean p95 latency {:.1} s",
        trials.len(),
        mean_of(trials, |m| m.throughput_per_hour),
        mean_of(trials, |m| m.mean_slowdown),
        mean_of(trials, |m| m.latency_p95),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_runs_and_renders() {
        let cfg = GridExpConfig {
            rate_hz: 0.005,
            duration_secs: 1200.0,
            trials: 2,
            ..GridExpConfig::default()
        };
        let trials = run_trials(&cfg);
        assert_eq!(trials.len(), 2);
        let t = fleet_table(&trials[0].fleet);
        assert!(t.contains("throughput /h"));
        assert!(utilization_table(&trials[0].fleet).contains("utilization"));
        assert!(sweep_summary(&trials).contains("2 trial(s)"));
    }
}
