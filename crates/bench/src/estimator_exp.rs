//! T-EST: how well the Performance Estimator's closed-form §5 model
//! predicts the simulator's ground truth, across many random schedules
//! and load realizations.
//!
//! "It is important to recognize that a schedule is only as good as
//! the accuracy of its underlying predictions" (§3.6) — this
//! experiment measures those predictions directly: predicted vs
//! simulated execution time, summarized as a ratio distribution.

use apples::estimator::estimate_stencil;
use apples::info::InfoPool;
use apples::schedule::{StencilPart, StencilSchedule};
use apples_apps::jacobi2d::partition::jacobi_context;
use metasim::exec::simulate_spmd;
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::trace::Stats;
use metasim::{HostId, NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One prediction-vs-reality sample.
#[derive(Debug, Clone)]
pub struct EstimatorSample {
    /// Number of hosts in the random schedule.
    pub hosts: usize,
    /// Predicted seconds (NWS-parameterized §5 model).
    pub predicted: f64,
    /// Simulated seconds (ground truth).
    pub simulated: f64,
}

impl EstimatorSample {
    /// predicted / simulated.
    pub fn ratio(&self) -> f64 {
        self.predicted / self.simulated
    }
}

/// Generate a random valid strip schedule over a subset of hosts.
fn random_schedule(
    rng: &mut ChaCha8Rng,
    all_hosts: &[HostId],
    n: usize,
    iterations: usize,
) -> StencilSchedule {
    let k = rng.gen_range(1..=all_hosts.len().min(6));
    let mut hosts = all_hosts.to_vec();
    hosts.shuffle(rng);
    hosts.truncate(k);
    // Random positive rows summing to n.
    let mut cuts: Vec<usize> = (0..k - 1).map(|_| rng.gen_range(1..n)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    while cuts.len() < k - 1 {
        let c = rng.gen_range(1..n);
        if !cuts.contains(&c) {
            cuts.push(c);
            cuts.sort_unstable();
        }
    }
    let mut parts = Vec::with_capacity(k);
    let mut prev = 0;
    for (i, &host) in hosts.iter().enumerate() {
        let end = if i + 1 == k { n } else { cuts[i] };
        parts.push(StencilPart {
            host,
            rows: end - prev,
        });
        prev = end;
    }
    StencilSchedule {
        n,
        iterations,
        parts,
    }
}

/// Run the accuracy sweep: `samples` random schedules on the Figure 2
/// testbed, predicted with NWS information and simulated for real.
pub fn run(samples: usize, seed: u64) -> (Vec<EstimatorSample>, Stats) {
    let warmup = SimTime::from_secs(600);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(samples);

    for i in 0..samples {
        let tb = pcl_sdsc(&TestbedConfig {
            profile: LoadProfile::Moderate,
            horizon: SimTime::from_secs(400_000),
            seed: seed.wrapping_add(i as u64 * 7919),
            with_sp2: false,
        })
        .expect("testbed");
        let n = *[800usize, 1200, 1600, 2000]
            .choose(&mut rng)
            .expect("sizes");
        let (hat, user) = jacobi_context(n, 40);
        let t = hat.as_stencil().expect("stencil");
        let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
        ws.advance(&tb.topo, warmup);
        let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup);

        let sched = random_schedule(&mut rng, &tb.workstations(), n, 40);
        let Ok(predicted) = estimate_stencil(&pool, &sched) else {
            continue;
        };
        let Ok(outcome) = simulate_spmd(&tb.topo, &sched.to_spmd_job(t, warmup), &mut NoopSink)
        else {
            continue;
        };
        out.push(EstimatorSample {
            hosts: sched.parts.len(),
            predicted,
            simulated: outcome.makespan(warmup).as_secs_f64(),
        });
    }
    let ratios: Vec<f64> = out.iter().map(|s| s.ratio()).collect();
    let stats = Stats::from_samples(&ratios).expect("samples");
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_is_calibrated_on_random_schedules() {
        let (samples, stats) = run(30, 2027);
        assert!(samples.len() >= 25, "too many failed samples");
        // Median prediction within a factor of two of reality, and the
        // bulk of the distribution reasonably tight.
        assert!(
            (0.5..2.0).contains(&stats.median),
            "median ratio {} out of band",
            stats.median
        );
        assert!(
            stats.min > 0.2 && stats.max < 5.0,
            "ratio tails too wide: [{}, {}]",
            stats.min,
            stats.max
        );
    }

    #[test]
    fn random_schedules_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        for _ in 0..200 {
            let s = random_schedule(&mut rng, &hosts, 500, 10);
            assert!(s.validate().is_ok());
        }
    }
}
