//! Figure 6: Jacobi2D with memory accounted for.
//!
//! "We added two unloaded SP-2 processors to the resource pool ... Due
//! to the lack of contention for the SP-2 resources, the best partition
//! in this environment uses only SP-2 resources until their real memory
//! is exceeded. As shown in Figure 6, AppLeS identifies the SP-2
//! resources as the best partition until problem size 3700×3700 is
//! reached. At this point, the AppLeS scheduler locates available
//! memory elsewhere in the resource pool ... In contrast, the HPF
//! Uniform/Blocked partition performs well up to 3700×3700 but then
//! spills from memory causing a dramatic reduction in performance."

use apples::info::InfoPool;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{apples_stencil_schedule, blocked_uniform};
use metasim::exec::simulate_spmd;
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::trace::Stats;
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

/// NWS warm-up before the scheduling decision.
pub const WARMUP: SimTime = SimTime::from_secs(600);

/// Grid sizes of the sweep, straddling the 3700 spill point.
pub const SIZES: [usize; 9] = [1000, 2000, 3000, 3500, 3700, 3800, 4000, 4500, 5000];

/// Jacobi iterations per run.
pub const ITERATIONS: usize = 50;

/// Independent trials per size; trial `i` uses seed `1996 + i`.
pub const TRIALS: u64 = 3;

/// Measured seconds for one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Trial {
    /// AppLeS over the full pool (SP-2 + workstations), spill-aware.
    pub apples_s: f64,
    /// HPF blocked partition pinned to the two SP-2 nodes.
    pub blocked_sp2_s: f64,
    /// Hosts the AppLeS schedule used, by name.
    pub apples_hosts: Vec<String>,
}

/// Run one trial at grid size `n`.
pub fn run_trial(n: usize, iterations: usize, seed: u64) -> Fig6Trial {
    // Heavy workstation contention: the SP-2 nodes are the only quiet
    // resources, matching the Figure 6 setup.
    let tb = pcl_sdsc(&TestbedConfig {
        profile: LoadProfile::Heavy,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: true,
    })
    .expect("testbed");
    let sp2 = tb.sp2.expect("sp2 nodes");
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil HAT");

    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, WARMUP);

    // AppLeS over the whole pool.
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, WARMUP);
    let apples_sched = apples_stencil_schedule(&pool).expect("apples plan");
    let apples_out = simulate_spmd(
        &tb.topo,
        &apples_sched.to_spmd_job(t, WARMUP),
        &mut NoopSink,
    )
    .expect("apples run");

    // Blocked on the SP-2 alone: the natural compile-time choice for a
    // user who knows the SP-2 is fast and idle.
    let blocked = blocked_uniform(n, iterations, &sp2);
    let blocked_out = simulate_spmd(&tb.topo, &blocked.to_spmd_job(t, WARMUP), &mut NoopSink)
        .expect("blocked run");

    let apples_hosts = apples_sched
        .parts
        .iter()
        .map(|p| tb.topo.host(p.host).expect("host").spec.name.clone())
        .collect();

    Fig6Trial {
        apples_s: apples_out.makespan(WARMUP).as_secs_f64(),
        blocked_sp2_s: blocked_out.makespan(WARMUP).as_secs_f64(),
        apples_hosts,
    }
}

/// One averaged row of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Grid edge length.
    pub n: usize,
    /// AppLeS statistics.
    pub apples: Stats,
    /// Blocked-on-SP-2 statistics.
    pub blocked_sp2: Stats,
    /// Hosts AppLeS used in the first trial (representative).
    pub apples_hosts: Vec<String>,
}

/// Run the full Figure 6 sweep. Trials fan out across threads.
pub fn run() -> Vec<Fig6Row> {
    SIZES
        .iter()
        .map(|&n| {
            let trials: Vec<Fig6Trial> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..TRIALS)
                    .map(|i| scope.spawn(move |_| run_trial(n, ITERATIONS, 1996 + i)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("trial thread"))
                    .collect()
            })
            .expect("trial scope");
            let apples: Vec<f64> = trials.iter().map(|r| r.apples_s).collect();
            let blocked: Vec<f64> = trials.iter().map(|r| r.blocked_sp2_s).collect();
            Fig6Row {
                n,
                apples: Stats::from_samples(&apples).expect("trials"),
                blocked_sp2: Stats::from_samples(&blocked).expect("trials"),
                apples_hosts: trials[0].apples_hosts.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_spill_point_both_behave() {
        let r = run_trial(2000, 10, 3);
        // Below 3700 the blocked SP-2 partition fits in memory and is
        // competitive: AppLeS must not be dramatically slower.
        assert!(
            r.apples_s < 2.0 * r.blocked_sp2_s,
            "apples {} vs blocked {}",
            r.apples_s,
            r.blocked_sp2_s
        );
    }

    #[test]
    fn beyond_spill_point_blocked_falls_off_a_cliff() {
        let r = run_trial(4500, 10, 3);
        assert!(
            r.blocked_sp2_s > 3.0 * r.apples_s,
            "expected a paging cliff: apples {} vs blocked {}",
            r.apples_s,
            r.blocked_sp2_s
        );
    }

    #[test]
    fn apples_recruits_extra_memory_beyond_the_spill_point() {
        let small = run_trial(2000, 5, 3);
        let large = run_trial(4500, 5, 3);
        // Below the spill point the SP-2 pair suffices; beyond it the
        // schedule must widen beyond two hosts.
        assert!(small.apples_hosts.len() <= large.apples_hosts.len());
        assert!(
            large.apples_hosts.len() > 2,
            "large run should recruit beyond the SP-2: {:?}",
            large.apples_hosts
        );
    }
}
