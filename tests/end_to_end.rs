//! Cross-crate integration: the full AppLeS stack (simulator → NWS →
//! agent → actuation) on the paper's testbed.

use apples::actuator::actuate;
use apples::hat::jacobi2d_hat;
use apples::info::{ForecastSource, InfoPool};
use apples::user::{PerformanceMetric, UserSpec};
use apples::{Coordinator, Schedule};
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

fn warmup_weather(tb: &metasim::testbed::Testbed, now: SimTime) -> WeatherService {
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, now);
    ws
}

#[test]
fn full_blueprint_on_the_paper_testbed() {
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let now = SimTime::from_secs(600);
    let ws = warmup_weather(&tb, now);

    let agent = Coordinator::new(jacobi2d_hat(1200, 40), UserSpec::default());
    let (decision, report) = agent.run(&tb.topo, &ws, now, &mut NoopSink).expect("run");

    // Exhaustive selection over 8 hosts: 255 candidate sets.
    assert_eq!(decision.considered.len() + decision.rejected, 255);
    assert!(report.elapsed_seconds > 0.0);
    // The chosen schedule covers the grid.
    match decision.schedule() {
        Schedule::Stencil(s) => {
            assert_eq!(s.parts.iter().map(|p| p.rows).sum::<usize>(), 1200);
        }
        other => panic!("unexpected schedule {other:?}"),
    }
}

#[test]
fn estimator_tracks_actuation_within_a_factor() {
    // The §5 cost model parameterized by NWS forecasts should land in
    // the right ballpark of the simulated ground truth.
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let now = SimTime::from_secs(600);
    let ws = warmup_weather(&tb, now);
    let agent = Coordinator::new(jacobi2d_hat(1500, 50), UserSpec::default());
    let (decision, report) = agent.run(&tb.topo, &ws, now, &mut NoopSink).expect("run");
    let predicted = decision.chosen().predicted_seconds;
    let actual = report.elapsed_seconds;
    let ratio = predicted / actual;
    assert!(
        (0.4..2.5).contains(&ratio),
        "predicted {predicted:.2}s vs actual {actual:.2}s (ratio {ratio:.2})"
    );
}

#[test]
fn decisions_are_deterministic() {
    let mk = || {
        let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
        let now = SimTime::from_secs(600);
        let ws = warmup_weather(&tb, now);
        let agent = Coordinator::new(jacobi2d_hat(1000, 20), UserSpec::default());
        let (decision, report) = agent.run(&tb.topo, &ws, now, &mut NoopSink).expect("run");
        (decision.chosen().clone(), report.elapsed_seconds)
    };
    let (a_dec, a_secs) = mk();
    let (b_dec, b_secs) = mk();
    assert_eq!(a_dec, b_dec);
    assert_eq!(a_secs, b_secs);
}

#[test]
fn oracle_information_never_loses_badly_to_nws() {
    // Forecast-source ordering on one realization: oracle ≤ ~nws.
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let now = SimTime::from_secs(600);
    let ws = warmup_weather(&tb, now);
    let hat = jacobi2d_hat(1200, 40);
    let user = UserSpec::default();
    let t_for = |source: ForecastSource| {
        let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, now).with_source(source);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).expect("decision");
        actuate(&tb.topo, &hat, d.schedule(), now, &mut NoopSink)
            .expect("actuate")
            .elapsed_seconds
    };
    let oracle = t_for(ForecastSource::Oracle);
    let nws_t = t_for(ForecastSource::Nws);
    let static_t = t_for(ForecastSource::StaticNominal);
    assert!(
        oracle <= nws_t * 1.3,
        "oracle {oracle:.2}s should not lose to nws {nws_t:.2}s"
    );
    assert!(
        nws_t < static_t,
        "nws {nws_t:.2}s should beat static {static_t:.2}s"
    );
}

#[test]
fn excluding_hosts_is_respected_end_to_end() {
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let now = SimTime::from_secs(600);
    let ws = warmup_weather(&tb, now);
    let user = UserSpec {
        excluded_hosts: vec![tb.sparc2, tb.sparc10],
        ..Default::default()
    };
    let agent = Coordinator::new(jacobi2d_hat(1000, 10), user);
    let (decision, _) = agent.run(&tb.topo, &ws, now, &mut NoopSink).expect("run");
    let hosts = decision.schedule().hosts();
    assert!(!hosts.contains(&tb.sparc2));
    assert!(!hosts.contains(&tb.sparc10));
}

#[test]
fn cost_metric_changes_the_decision() {
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let now = SimTime::from_secs(600);
    let ws = warmup_weather(&tb, now);
    let hat = jacobi2d_hat(1000, 40);

    let time_agent = Coordinator::new(hat.clone(), UserSpec::default());
    let (time_dec, _) = time_agent
        .run(&tb.topo, &ws, now, &mut NoopSink)
        .expect("run");

    let cost_agent = Coordinator::new(
        hat,
        UserSpec {
            metric: PerformanceMetric::Cost {
                per_host_second: 5.0,
            },
            ..Default::default()
        },
    );
    let (cost_dec, _) = cost_agent
        .run(&tb.topo, &ws, now, &mut NoopSink)
        .expect("run");

    assert!(
        cost_dec.schedule().hosts().len() <= time_dec.schedule().hosts().len(),
        "a steep host charge should never use more hosts"
    );
    assert!(cost_dec.schedule().hosts().len() <= 2);
}

#[test]
fn pipeline_agent_assigns_lhsf_to_the_vector_machine() {
    // Run the generic Coordinator on the 3D-REACT HAT over the CASA
    // testbed: it must choose the distributed pair over either
    // single-site option, and orient the pipeline with LHSF (the
    // vector code) on the C90.
    use apples_apps::react3d::{casa_testbed, react3d_hat};
    let tb = casa_testbed(0).expect("casa");
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, SimTime::from_secs(600));
    let agent = Coordinator::new(react3d_hat(), UserSpec::default());
    let pool = InfoPool::with_nws(
        &tb.topo,
        &ws,
        &agent.hat,
        &agent.user,
        SimTime::from_secs(600),
    );
    let decision = agent.decide(&pool).expect("decision");
    match decision.schedule() {
        Schedule::Pipeline(p) => {
            assert_eq!(p.producer, tb.c90, "LHSF belongs on the C90");
            assert_eq!(p.consumer, tb.paragon);
            assert!(
                (2..=40).contains(&p.unit_size),
                "unit size {} out of the sensible range",
                p.unit_size
            );
        }
        other => panic!("expected a pipeline schedule, got {other:?}"),
    }
    // Distributed must out-predict both single-site candidates.
    let singles: Vec<f64> = decision
        .considered
        .iter()
        .filter(|c| c.hosts.len() == 1)
        .map(|c| c.predicted_seconds)
        .collect();
    assert_eq!(singles.len(), 2);
    for s in singles {
        assert!(decision.chosen().predicted_seconds < s);
    }
}

#[test]
fn pipeline_estimator_tracks_the_simulator() {
    use apples::estimator::estimate_pipeline;
    use apples::schedule::PipelineSchedule;
    use apples_apps::react3d::{casa_testbed, distributed_run, react3d_hat};
    let tb = casa_testbed(0).expect("casa");
    let hat = react3d_hat();
    let user = UserSpec::default();
    let pool = InfoPool::static_nominal(&tb.topo, &hat, &user, SimTime::ZERO);
    let sched = PipelineSchedule {
        producer: tb.c90,
        consumer: tb.paragon,
        unit_size: 10,
        depth: 4,
    };
    let predicted = estimate_pipeline(&pool, &sched).expect("estimate");
    let simulated = distributed_run(&tb, 10, 4)
        .expect("run")
        .makespan(SimTime::ZERO)
        .as_secs_f64();
    let ratio = predicted / simulated;
    assert!(
        (0.5..2.0).contains(&ratio),
        "pipeline predicted {predicted:.0}s vs simulated {simulated:.0}s (ratio {ratio:.2})"
    );
}

#[test]
fn heavier_load_profiles_slow_the_same_schedule() {
    let run_at = |profile: LoadProfile| {
        let tb = pcl_sdsc(&TestbedConfig {
            profile,
            ..Default::default()
        })
        .expect("testbed");
        let now = SimTime::from_secs(600);
        let hat = jacobi2d_hat(1000, 30);
        // Fixed uniform schedule so only the environment varies.
        let sched = apples_apps::jacobi2d::uniform_strip(1000, 30, &tb.workstations());
        let t = hat.as_stencil().expect("stencil");
        metasim::exec::simulate_spmd(&tb.topo, &sched.to_spmd_job(t, now), &mut NoopSink)
            .expect("run")
            .makespan(now)
            .as_secs_f64()
    };
    let dedicated = run_at(LoadProfile::Dedicated);
    let moderate = run_at(LoadProfile::Moderate);
    let heavy = run_at(LoadProfile::Heavy);
    assert!(dedicated < moderate && moderate < heavy);
}
