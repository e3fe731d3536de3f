//! Fixed-time (Gustafson) scaling — the paper's §3.1 notes that users
//! optimize "execution time, speedup (fixed-size or fixed-time \[12\])";
//! this experiment measures the *fixed-time* view: given a wall-clock
//! budget, what is the largest Jacobi2D grid each partitioning
//! strategy can finish on the non-dedicated testbed?
//!
//! The answer tracks Figure 5 from a different angle: a scheduler that
//! wrings 2× more throughput from the same resources solves a √2-times
//! larger grid edge in the same time.

use apples::info::InfoPool;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{apples_stencil_schedule, blocked_uniform, static_strip};
use metasim::exec::simulate_spmd;
use metasim::testbed::{pcl_sdsc, LoadProfile, Testbed, TestbedConfig};
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

/// The strategies compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The AppLeS agent (NWS-informed strips).
    Apples,
    /// Static non-uniform strips from nominal speeds.
    StaticStrip,
    /// HPF uniform blocked over all workstations.
    Blocked,
}

impl Strategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Apples => "AppLeS",
            Strategy::StaticStrip => "static Strip",
            Strategy::Blocked => "HPF Blocked",
        }
    }
}

/// Simulated seconds for one strategy at grid size `n` on a fresh
/// testbed realization.
pub fn measure(strategy: Strategy, n: usize, iterations: usize, seed: u64) -> f64 {
    let warmup = SimTime::from_secs(600);
    let tb: Testbed = pcl_sdsc(&TestbedConfig {
        profile: LoadProfile::Moderate,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: false,
    })
    .expect("testbed");
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");
    let hosts = tb.workstations();
    let job = match strategy {
        Strategy::Apples => {
            let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
            ws.advance(&tb.topo, warmup);
            let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup);
            apples_stencil_schedule(&pool)
                .expect("plan")
                .to_spmd_job(t, warmup)
        }
        Strategy::StaticStrip => {
            static_strip(&tb.topo, n, iterations, &hosts).to_spmd_job(t, warmup)
        }
        Strategy::Blocked => blocked_uniform(n, iterations, &hosts).to_spmd_job(t, warmup),
    };
    simulate_spmd(&tb.topo, &job, &mut NoopSink)
        .expect("run")
        .makespan(warmup)
        .as_secs_f64()
}

/// Largest grid edge the strategy finishes within `budget_seconds`
/// (bisection over n, verified by simulation at every probe).
pub fn largest_grid_within(
    strategy: Strategy,
    budget_seconds: f64,
    iterations: usize,
    seed: u64,
) -> usize {
    let fits = |n: usize| measure(strategy, n, iterations, seed) <= budget_seconds;
    // Exponential search for an upper bound.
    let mut lo = 100usize;
    if !fits(lo) {
        return 0;
    }
    let mut hi = lo * 2;
    while fits(hi) {
        lo = hi;
        hi *= 2;
        if hi > 64_000 {
            return lo;
        }
    }
    // Bisect (grid sizes rounded to multiples of 50 to bound probes).
    while hi - lo > 50 {
        let mid = (lo + hi) / 2 / 50 * 50;
        if mid == lo {
            break;
        }
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apples_solves_the_largest_grid_in_fixed_time() {
        let budget = 10.0;
        let iters = 40;
        let apples = largest_grid_within(Strategy::Apples, budget, iters, 1996);
        let strip = largest_grid_within(Strategy::StaticStrip, budget, iters, 1996);
        let blocked = largest_grid_within(Strategy::Blocked, budget, iters, 1996);
        assert!(
            apples > strip && strip > blocked,
            "fixed-time sizes: apples {apples}, strip {strip}, blocked {blocked}"
        );
        // Figure 5's ~2x strip gap implies ~sqrt(2) in grid edge.
        assert!(
            (apples as f64) > 1.2 * strip as f64,
            "apples {apples} vs strip {strip}"
        );
    }

    #[test]
    fn measurement_grows_with_problem_size() {
        let small = measure(Strategy::StaticStrip, 600, 20, 7);
        let large = measure(Strategy::StaticStrip, 1200, 20, 7);
        assert!(large > 2.0 * small);
    }

    #[test]
    fn impossible_budget_returns_zero() {
        assert_eq!(largest_grid_within(Strategy::Blocked, 1e-6, 40, 7), 0);
    }
}
