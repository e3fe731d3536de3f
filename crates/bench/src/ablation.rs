//! Ablations over the design choices DESIGN.md calls out.
//!
//! * **Forecast source** (§3.6): the same AppLeS blueprint driven by
//!   NWS forecasts, raw last measurements, a perfect oracle, and
//!   static nominal speeds. The gap between Oracle and NWS is the cost
//!   of imperfect prediction; the gap between NWS and StaticNominal is
//!   the value of dynamic information — the paper's core claim.
//! * **Resource-set search** (§4.2): exhaustive subset enumeration
//!   versus greedy distance-ranked prefixes.

use apples::coordinator::Coordinator;
use apples::info::{ForecastSource, InfoPool};
use apples::schedule::Schedule;
use apples::selector::{CandidateStrategy, ResourceSelector};
use apples_apps::jacobi2d::partition::jacobi_context;
use metasim::exec::simulate_spmd;
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::trace::Stats;
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

/// NWS warm-up before scheduling.
pub const WARMUP: SimTime = SimTime::from_secs(600);

/// The forecast sources compared, with display names.
pub const SOURCES: &[(ForecastSource, &str)] = &[
    (ForecastSource::Oracle, "oracle"),
    (ForecastSource::Nws, "nws"),
    (ForecastSource::LastValue, "last-value"),
    (ForecastSource::StaticNominal, "static-nominal"),
];

/// Execution time of the blueprint's chosen schedule when the pool is
/// fed from `source`, on the standard testbed.
pub fn forecast_trial(n: usize, iterations: usize, seed: u64, source: ForecastSource) -> f64 {
    let tb = pcl_sdsc(&TestbedConfig {
        profile: LoadProfile::Moderate,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: false,
    })
    .expect("testbed");
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");

    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, WARMUP);

    // The oracle averages the true availability over the window the
    // run will actually occupy; a window far longer than the run
    // would smear out exactly the fluctuations that matter.
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, WARMUP)
        .with_source(source)
        .with_oracle_window(SimTime::from_secs(60));
    let agent = Coordinator::new(hat.clone(), user.clone());
    let decision = agent.decide(&pool).expect("decision");
    let sched = match decision.schedule() {
        Schedule::Stencil(s) => s.clone(),
        other => panic!("unexpected schedule {other:?}"),
    };
    simulate_spmd(&tb.topo, &sched.to_spmd_job(t, WARMUP), &mut NoopSink)
        .expect("run")
        .makespan(WARMUP)
        .as_secs_f64()
}

/// Averaged forecast-source ablation: `(name, execution-time stats)`.
pub fn forecast_ablation(
    n: usize,
    iterations: usize,
    trials: usize,
    base_seed: u64,
) -> Vec<(&'static str, Stats)> {
    SOURCES
        .iter()
        .map(|&(source, name)| {
            let samples: Vec<f64> = (0..trials)
                .map(|i| forecast_trial(n, iterations, base_seed + i as u64, source))
                .collect();
            (name, Stats::from_samples(&samples).expect("trials"))
        })
        .collect()
}

/// §3.6 with a knob: degrade the NWS sensors with measurement noise
/// and watch schedule quality respond. Returns `(noise amplitude,
/// execution-time stats)` per level.
pub fn noise_ablation(
    n: usize,
    iterations: usize,
    trials: usize,
    base_seed: u64,
    levels: &[f64],
) -> Vec<(f64, Stats)> {
    levels
        .iter()
        .map(|&noise| {
            let samples: Vec<f64> = (0..trials)
                .map(|i| noise_trial(n, iterations, base_seed + i as u64, noise))
                .collect();
            (noise, Stats::from_samples(&samples).expect("trials"))
        })
        .collect()
}

/// One trial with the given sensor-noise amplitude.
pub fn noise_trial(n: usize, iterations: usize, seed: u64, noise: f64) -> f64 {
    let tb = pcl_sdsc(&TestbedConfig {
        profile: LoadProfile::Moderate,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: false,
    })
    .expect("testbed");
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");

    let cfg = nws::WeatherServiceConfig {
        cpu_noise: noise,
        link_noise: noise,
        noise_seed: seed,
        ..Default::default()
    };
    let mut ws = WeatherService::for_topology(&tb.topo, cfg);
    ws.advance(&tb.topo, WARMUP);

    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, WARMUP);
    let agent = Coordinator::new(hat.clone(), user.clone());
    let decision = agent.decide(&pool).expect("decision");
    let sched = match decision.schedule() {
        Schedule::Stencil(s) => s.clone(),
        other => panic!("unexpected schedule {other:?}"),
    };
    simulate_spmd(&tb.topo, &sched.to_spmd_job(t, WARMUP), &mut NoopSink)
        .expect("run")
        .makespan(WARMUP)
        .as_secs_f64()
}

/// Result of one selection-strategy comparison.
#[derive(Debug, Clone)]
pub struct SelectionTrial {
    /// Candidates the exhaustive search evaluated.
    pub exhaustive_candidates: usize,
    /// Candidates the greedy search evaluated.
    pub greedy_candidates: usize,
    /// Actuated seconds of the exhaustive winner.
    pub exhaustive_s: f64,
    /// Actuated seconds of the greedy winner.
    pub greedy_s: f64,
}

/// Compare exhaustive vs greedy candidate generation on one trial.
pub fn selection_trial(n: usize, iterations: usize, seed: u64) -> SelectionTrial {
    let tb = pcl_sdsc(&TestbedConfig {
        profile: LoadProfile::Moderate,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: false,
    })
    .expect("testbed");
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, WARMUP);
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, WARMUP);

    let run_with = |strategy: CandidateStrategy| {
        let mut agent = Coordinator::new(hat.clone(), user.clone());
        agent.selector = ResourceSelector { strategy };
        let d = agent.decide(&pool).expect("decision");
        let sched = match d.schedule() {
            Schedule::Stencil(s) => s.clone(),
            other => panic!("unexpected schedule {other:?}"),
        };
        let secs = simulate_spmd(&tb.topo, &sched.to_spmd_job(t, WARMUP), &mut NoopSink)
            .expect("run")
            .makespan(WARMUP)
            .as_secs_f64();
        (d.considered.len() + d.rejected, secs)
    };

    let (exhaustive_candidates, exhaustive_s) = run_with(CandidateStrategy::Exhaustive);
    let (greedy_candidates, greedy_s) = run_with(CandidateStrategy::GreedyPrefixes);
    SelectionTrial {
        exhaustive_candidates,
        greedy_candidates,
        exhaustive_s,
        greedy_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_information_beats_static() {
        // Average a few seeds: NWS-informed schedules must beat
        // static-nominal ones clearly on a loaded testbed.
        let trials = 3;
        let rows = forecast_ablation(1000, 30, trials, 11);
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.mean)
                .expect("row")
        };
        assert!(
            get("nws") < get("static-nominal"),
            "nws {} vs static {}",
            get("nws"),
            get("static-nominal")
        );
        // The oracle can't be (meaningfully) worse than static either.
        assert!(get("oracle") < get("static-nominal"));
    }

    #[test]
    fn extreme_sensor_noise_degrades_schedules() {
        let rows = noise_ablation(1000, 30, 3, 13, &[0.0, 0.8]);
        let clean = rows[0].1.mean;
        let noisy = rows[1].1.mean;
        assert!(
            noisy > clean,
            "noise 0.8 ({noisy:.2}s) should hurt vs clean ({clean:.2}s)"
        );
    }

    #[test]
    fn greedy_search_considers_far_fewer_candidates() {
        let t = selection_trial(1000, 20, 5);
        assert!(t.exhaustive_candidates > 100); // 2^8 - 1 = 255 sets
        assert!(t.greedy_candidates <= 8);
        // The greedy winner should be within ~2.5x of exhaustive.
        assert!(
            t.greedy_s < 2.5 * t.exhaustive_s,
            "greedy {} vs exhaustive {}",
            t.greedy_s,
            t.exhaustive_s
        );
    }
}
