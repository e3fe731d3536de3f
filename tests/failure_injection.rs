//! Failure injection: resources that die (availability pinned at zero
//! forever) must surface as errors from the executors, and must be
//! routed around by the scheduling layer when the death is visible in
//! the measurements.

use apples::hat::jacobi2d_hat;
use apples::info::InfoPool;
use apples::selector::ResourceSelector;
use apples::user::UserSpec;
use apples::Coordinator;
use metasim::exec::{simulate_spmd, SpmdJob, SpmdPlacement};
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{simulate_transfers, LinkSpec, TopologyBuilder, TransferReq};
use metasim::{HostId, NoopSink, SimError, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

/// Host 1 dies at t = 100 and never comes back.
fn topo_with_dying_host() -> Topology {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::from_millis(1)));
    b.add_host(HostSpec::dedicated("healthy", 20.0, 1024.0, seg));
    b.add_host(HostSpec::workstation(
        "dying",
        20.0,
        1024.0,
        seg,
        LoadModel::Trace(vec![(s(0.0), 1.0), (s(100.0), 0.0)]),
    ));
    b.instantiate(s(1_000_000.0), 0).expect("topo")
}

#[test]
fn work_on_a_dead_host_reports_placement_lost() {
    let topo = topo_with_dying_host();
    let job = SpmdJob {
        placements: vec![SpmdPlacement {
            host: HostId(1),
            work_mflop: 1e6, // far more than fits before t = 100
            resident_mb: 1.0,
            sends: vec![],
        }],
        iterations: 1,
        start: SimTime::ZERO,
    };
    // The revocation signal names the host that died and when, so a
    // retry layer can exclude it and re-plan the remnant work.
    match simulate_spmd(&topo, &job, &mut NoopSink) {
        Err(SimError::PlacementLost { host, at }) => {
            assert_eq!(host, 1);
            assert_eq!(at, s(100.0));
        }
        other => panic!("expected PlacementLost, got {other:?}"),
    }
}

#[test]
fn work_finishing_before_the_death_succeeds() {
    let topo = topo_with_dying_host();
    let job = SpmdJob {
        placements: vec![SpmdPlacement {
            host: HostId(1),
            work_mflop: 200.0, // 10 s at 20 Mflop/s — done by t = 10
            resident_mb: 1.0,
            sends: vec![],
        }],
        iterations: 1,
        start: SimTime::ZERO,
    };
    let out = simulate_spmd(&topo, &job, &mut NoopSink).expect("completes before death");
    assert_eq!(out.finish, s(10.0));
}

#[test]
fn transfers_over_a_dead_link_report_never_completes() {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::shared(
        "seg",
        10.0,
        SimTime::ZERO,
        LoadModel::Trace(vec![(s(0.0), 1.0), (s(5.0), 0.0)]),
    ));
    b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
    b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
    let topo = b.instantiate(s(1e6), 0).expect("topo");
    // 100 MB at 10 MB/s needs 10 s but the link dies after 5 s.
    let err = simulate_transfers(
        &topo,
        &[TransferReq {
            from: HostId(0),
            to: HostId(1),
            mb: 100.0,
            start: SimTime::ZERO,
            tag: 0,
        }],
        &mut NoopSink,
    );
    assert!(matches!(err, Err(SimError::NeverCompletes { .. })));
}

#[test]
fn selector_filters_a_host_measured_dead() {
    let topo = topo_with_dying_host();
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    // Observe well past the death so every forecaster has converged
    // to zero.
    ws.advance(&topo, s(2000.0));
    let hat = jacobi2d_hat(400, 10);
    let user = UserSpec::default();
    let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(2000.0));
    let feasible = ResourceSelector::feasible_hosts(&pool);
    assert_eq!(feasible, vec![HostId(0)], "dead host must be filtered");
}

#[test]
fn agent_schedules_around_the_dead_host_and_completes() {
    let topo = topo_with_dying_host();
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws.advance(&topo, s(2000.0));
    let agent = Coordinator::new(jacobi2d_hat(400, 10), UserSpec::default());
    let (decision, report) = agent
        .run(&topo, &ws, s(2000.0), &mut NoopSink)
        .expect("run");
    assert_eq!(decision.schedule().hosts(), vec![HostId(0)]);
    assert!(report.elapsed_seconds > 0.0);
}

#[test]
fn before_the_death_the_agent_may_use_both_hosts() {
    // Scheduling at t = 50 (before the death is visible) legitimately
    // uses the doomed host: nothing in the measurements says otherwise.
    let topo = topo_with_dying_host();
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws.advance(&topo, s(50.0));
    let hat = jacobi2d_hat(400, 10);
    let user = UserSpec::default();
    let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(50.0));
    let feasible = ResourceSelector::feasible_hosts(&pool);
    assert_eq!(feasible.len(), 2);
}
