//! Figure 5: execution-time averages for Jacobi2D under the AppLeS
//! partitioning, the static non-uniform Strip partitioning, and the
//! HPF Uniform/Blocked partitioning, on the non-dedicated SDSC/PCL
//! testbed of Figure 2.
//!
//! The paper reports AppLeS beating both static partitions "by factors
//! of 2-8 for problem sizes 1000×1000 – 2000×2000 ... because AppLeS
//! is able to consider the dynamically changing performance
//! capabilities of the resources due to contention". Each trial here
//! runs all three partitions back-to-back against the *same* realized
//! load traces, and rows average over independent trials (seeds).

use apples::info::InfoPool;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{apples_stencil_schedule, blocked_uniform, static_strip};
use metasim::exec::simulate_spmd;
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::trace::Stats;
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

/// Time the Weather Service warms up before the scheduling decision.
pub const WARMUP: SimTime = SimTime::from_secs(600);

/// Configuration of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Grid sizes to sweep (the paper uses 1000–2000).
    pub sizes: Vec<usize>,
    /// Jacobi iterations per run.
    pub iterations: usize,
    /// Independent trials (distinct load realizations) per size.
    pub trials: usize,
    /// Base seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Background-load intensity.
    pub profile: LoadProfile,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            sizes: vec![1000, 1200, 1400, 1600, 1800, 2000],
            iterations: 100,
            trials: 5,
            base_seed: 1996,
            profile: LoadProfile::Moderate,
        }
    }
}

/// Measured seconds for the three partitions in one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// AppLeS (NWS-driven) partition.
    pub apples_s: f64,
    /// Static non-uniform strip partition (nominal speeds only).
    pub strip_s: f64,
    /// HPF uniform blocked partition.
    pub blocked_s: f64,
    /// The strip fractions AppLeS chose, as `(host name, fraction)`.
    pub apples_fractions: Vec<(String, f64)>,
}

/// Run one back-to-back trial at grid size `n`.
pub fn run_trial(n: usize, iterations: usize, seed: u64, profile: LoadProfile) -> TrialResult {
    let tb = pcl_sdsc(&TestbedConfig {
        profile,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: false,
    })
    .expect("testbed");
    let workstations = tb.workstations();
    let (hat, user) = jacobi_context(n, iterations);

    // Warm the Weather Service, then schedule.
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, WARMUP);

    // AppLeS: the full blueprint over NWS forecasts.
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, WARMUP);
    let apples_sched = apples_stencil_schedule(&pool).expect("apples plan");
    let t = hat.as_stencil().expect("stencil HAT");
    let apples_out = simulate_spmd(
        &tb.topo,
        &apples_sched.to_spmd_job(t, WARMUP),
        &mut NoopSink,
    )
    .expect("apples run");

    // Static non-uniform strips over every workstation (Figure 4's
    // compile-time partition).
    let strip_sched = static_strip(&tb.topo, n, iterations, &workstations);
    let strip_out = simulate_spmd(&tb.topo, &strip_sched.to_spmd_job(t, WARMUP), &mut NoopSink)
        .expect("strip run");

    // HPF uniform blocked over every workstation.
    let blocked_sched = blocked_uniform(n, iterations, &workstations);
    let blocked_out = simulate_spmd(
        &tb.topo,
        &blocked_sched.to_spmd_job(t, WARMUP),
        &mut NoopSink,
    )
    .expect("blocked run");

    let apples_fractions = apples_sched
        .parts
        .iter()
        .map(|p| {
            let name = tb.topo.host(p.host).expect("host").spec.name.clone();
            (name, p.rows as f64 / n as f64)
        })
        .collect();

    TrialResult {
        apples_s: apples_out.makespan(WARMUP).as_secs_f64(),
        strip_s: strip_out.makespan(WARMUP).as_secs_f64(),
        blocked_s: blocked_out.makespan(WARMUP).as_secs_f64(),
        apples_fractions,
    }
}

/// One averaged row of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Grid edge length.
    pub n: usize,
    /// AppLeS execution-time statistics over the trials.
    pub apples: Stats,
    /// Static strip statistics.
    pub strip: Stats,
    /// Blocked statistics.
    pub blocked: Stats,
}

impl Fig5Row {
    /// Mean speedup of AppLeS over the static strip partition.
    pub fn strip_ratio(&self) -> f64 {
        self.strip.mean / self.apples.mean
    }

    /// Mean speedup of AppLeS over the blocked partition.
    pub fn blocked_ratio(&self) -> f64 {
        self.blocked.mean / self.apples.mean
    }
}

/// Run the full Figure 5 sweep. Trials are independent (each has its
/// own testbed realization), so they fan out across threads.
pub fn run(cfg: &Fig5Config) -> Vec<Fig5Row> {
    cfg.sizes
        .iter()
        .map(|&n| {
            let trials: Vec<TrialResult> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..cfg.trials)
                    .map(|i| {
                        let seed = cfg.base_seed + i as u64;
                        scope.spawn(move |_| run_trial(n, cfg.iterations, seed, cfg.profile))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("trial thread"))
                    .collect()
            })
            .expect("trial scope");
            let apples: Vec<f64> = trials.iter().map(|r| r.apples_s).collect();
            let strip: Vec<f64> = trials.iter().map(|r| r.strip_s).collect();
            let blocked: Vec<f64> = trials.iter().map(|r| r.blocked_s).collect();
            Fig5Row {
                n,
                apples: Stats::from_samples(&apples).expect("trials"),
                strip: Stats::from_samples(&strip).expect("trials"),
                blocked: Stats::from_samples(&blocked).expect("trials"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apples_beats_both_static_partitions() {
        // A reduced-size trial (fewer iterations, one seed) must still
        // show the Figure 5 ordering.
        let r = run_trial(1000, 30, 42, LoadProfile::Moderate);
        assert!(
            r.apples_s < r.strip_s,
            "apples {} vs strip {}",
            r.apples_s,
            r.strip_s
        );
        assert!(
            r.apples_s < r.blocked_s,
            "apples {} vs blocked {}",
            r.apples_s,
            r.blocked_s
        );
    }

    #[test]
    fn apples_fractions_are_a_partition() {
        let r = run_trial(1000, 10, 7, LoadProfile::Moderate);
        let total: f64 = r.apples_fractions.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let a = run_trial(1000, 10, 9, LoadProfile::Moderate);
        let b = run_trial(1000, 10, 9, LoadProfile::Moderate);
        assert_eq!(a, b);
    }
}
