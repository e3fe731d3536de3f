//! Cross-commit golden digests of whole scheduling decisions.
//!
//! Each case makes one or more `Coordinator::decide` calls on a
//! NWS-warmed pool and folds every `Decision` into an FNV-64 digest:
//! the winner's index, the rejected count, and for every considered
//! candidate its resource set, every field of its schedule, and the
//! bits of its predicted seconds and objective. A change to the
//! Planner, the Performance Estimator or the Information Pool that
//! moves one row or one float bit of any candidate fails here. When a
//! change is *meant* to alter a decision, recompute the digests (the
//! failure message prints the new one) and say why in the commit.

use apples::hat::jacobi2d_hat;
use apples::schedule::Schedule;
use apples::selector::{CandidateStrategy, ResourceSelector};
use apples::{Coordinator, Decision, Hat, InfoPool, PerformanceMetric, UserSpec};
use apples_grid::workload::workstation_pipeline_hat;
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{HostId, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }
}

/// Fold every observable field of `d` into `h`.
fn fold(d: &Decision, h: &mut Fnv) {
    h.usize(d.chosen_index);
    h.usize(d.rejected);
    h.usize(d.considered.len());
    for c in &d.considered {
        h.usize(c.hosts.len());
        for host in &c.hosts {
            h.usize(host.0);
        }
        match &c.schedule {
            Schedule::Stencil(s) => {
                h.u64(1);
                h.usize(s.n);
                h.usize(s.iterations);
                h.usize(s.parts.len());
                for p in &s.parts {
                    h.usize(p.host.0);
                    h.usize(p.rows);
                }
            }
            Schedule::Pipeline(p) => {
                h.u64(2);
                h.usize(p.producer.0);
                h.usize(p.consumer.0);
                h.usize(p.unit_size);
                h.usize(p.depth);
            }
            Schedule::Farm(f) => {
                h.u64(3);
                h.usize(f.data_home.0);
                h.usize(f.result_home.0);
                for &(host, events) in &f.assignments {
                    h.usize(host.0);
                    h.u64(events);
                }
            }
        }
        h.u64(c.predicted_seconds.to_bits());
        h.u64(c.objective.to_bits());
    }
}

/// A weather service that has watched `topo` up to `now`.
fn weather(topo: &Topology, now: SimTime) -> WeatherService {
    let mut ws = WeatherService::for_topology(topo, WeatherServiceConfig::default());
    ws.advance(topo, now);
    ws
}

/// Decide once with NWS information at `now`, folding the decision in.
fn decide(
    topo: &Topology,
    ws: &WeatherService,
    now: SimTime,
    agent: &Coordinator,
    h: &mut Fnv,
) -> Decision {
    let pool = InfoPool::with_nws(topo, ws, &agent.hat, &agent.user, now);
    let d = agent.decide(&pool).expect("decision");
    fold(&d, h);
    d
}

fn exhaustive(hat: Hat, user: UserSpec) -> Coordinator {
    Coordinator {
        selector: ResourceSelector {
            strategy: CandidateStrategy::Exhaustive,
        },
        ..Coordinator::new(hat, user)
    }
}

fn check(case: &str, h: Fnv, want: u64) {
    assert_eq!(h.0, want, "{case}: decision digest moved to {:#018x}", h.0);
}

fn s(x: u64) -> SimTime {
    SimTime::from_secs(x)
}

/// Stencil and pipeline decisions over all 255 subsets of the Figure-2
/// workstations, at three instants and under all three metrics.
#[test]
fn figure2_exhaustive_decisions_are_pinned() {
    let tb = pcl_sdsc(&TestbedConfig {
        profile: LoadProfile::Light,
        horizon: s(20_000),
        seed: 1996,
        with_sp2: false,
    })
    .expect("testbed");
    let topo = tb.topo;
    let mut h = Fnv::new();
    let metrics = [
        PerformanceMetric::ExecutionTime,
        PerformanceMetric::Speedup,
        PerformanceMetric::Cost {
            per_host_second: 0.05,
        },
    ];
    for (i, now) in [s(900), s(2_400), s(6_000)].into_iter().enumerate() {
        let ws = weather(&topo, now);
        let user = UserSpec {
            metric: metrics[i].clone(),
            ..UserSpec::default()
        };
        for hat in [
            jacobi2d_hat(800, 60),
            jacobi2d_hat(2000, 10),
            workstation_pipeline_hat(30),
        ] {
            let d = decide(&topo, &ws, now, &exhaustive(hat, user.clone()), &mut h);
            assert_eq!(d.considered.len() + d.rejected, 255);
        }
    }
    check("figure-2", h, 0xb7c7_1697_666a_2469);
}

/// The 16-host tree with four hosts excluded (4 095 subsets of the 12
/// left), and the full tree, which the default selector ranks greedily.
#[test]
fn tree_decisions_are_pinned() {
    let spec = TopoSpec::parse("tree:hosts=16,arity=2,per_seg=4").expect("tree spec");
    let topo = topogen::generate(
        &spec,
        &TopoGenConfig {
            profile: LoadProfile::Light,
            horizon: s(20_000),
            seed: 7,
        },
    )
    .expect("tree");
    let now = s(1_800);
    let ws = weather(&topo, now);
    let mut h = Fnv::new();
    let user = UserSpec {
        excluded_hosts: vec![HostId(1), HostId(6), HostId(11), HostId(12)],
        ..UserSpec::default()
    };
    let d = decide(
        &topo,
        &ws,
        now,
        &Coordinator::new(jacobi2d_hat(1200, 300), user),
        &mut h,
    );
    assert_eq!(d.considered.len() + d.rejected, 4095);
    let d = decide(
        &topo,
        &ws,
        now,
        &Coordinator::new(jacobi2d_hat(800, 60), UserSpec::default()),
        &mut h,
    );
    assert_eq!(d.considered.len() + d.rejected, 16);
    check("tree", h, 0x6c48_bc7c_4c5c_764b);
}

/// Two loaded segments joined by one gateway link: sets that straddle
/// it pay its latency and bottleneck, so the borders' placement and
/// the contention discount both shape the decision.
#[test]
fn gateway_decisions_are_pinned() {
    let mut b = TopologyBuilder::new();
    let flapping = |idle, busy| LoadModel::MarkovOnOff {
        idle_avail: 0.9,
        busy_avail: 0.3,
        mean_idle: s(idle),
        mean_busy: s(busy),
    };
    let sa = b.add_segment(LinkSpec::shared(
        "lan-a",
        10.0,
        SimTime::from_millis(1),
        flapping(200, 80),
    ));
    let sb = b.add_segment(LinkSpec::shared(
        "lan-b",
        12.0,
        SimTime::from_millis(2),
        flapping(150, 150),
    ));
    let gw = b.add_link(LinkSpec::shared(
        "gw",
        1.5,
        SimTime::from_millis(15),
        flapping(300, 100),
    ));
    b.add_route(sa, sb, vec![gw]).expect("route");
    for (i, (mflops, seg)) in [(40.0, sa), (25.0, sa), (60.0, sb), (30.0, sb), (90.0, sb)]
        .into_iter()
        .enumerate()
    {
        b.add_host(HostSpec::workstation(
            &format!("h{i}"),
            mflops,
            256.0,
            seg,
            flapping(120 + 40 * i as u64, 90),
        ));
    }
    b.add_host(HostSpec::dedicated("d", 20.0, 256.0, sa));
    let topo = b.instantiate(s(50_000), 3).expect("topology");
    let mut h = Fnv::new();
    for now in [s(1_200), s(4_000)] {
        let ws = weather(&topo, now);
        for hat in [jacobi2d_hat(600, 40), workstation_pipeline_hat(30)] {
            let d = decide(
                &topo,
                &ws,
                now,
                &exhaustive(hat, UserSpec::default()),
                &mut h,
            );
            assert_eq!(d.considered.len() + d.rejected, 63);
        }
    }
    check("gateway", h, 0x4426_dab6_cba6_4f6b);
}

/// Hosts too small for most of the grid: some sets pin strips at their
/// memory caps, and sets that cannot hold the grid at all spill.
#[test]
fn memory_capped_decisions_are_pinned() {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::shared(
        "lan",
        10.0,
        SimTime::from_millis(1),
        LoadModel::Constant(0.7),
    ));
    // A 1000-row grid is 16 kB a row: 16 MB in all.
    for (i, (mflops, mem)) in [
        (80.0, 3.0),
        (60.0, 4.0),
        (30.0, 6.0),
        (20.0, 64.0),
        (50.0, 2.0),
    ]
    .into_iter()
    .enumerate()
    {
        b.add_host(HostSpec::workstation(
            &format!("m{i}"),
            mflops,
            mem,
            seg,
            LoadModel::Constant(0.4 + 0.1 * i as f64),
        ));
    }
    let topo = b.instantiate(s(50_000), 5).expect("topology");
    let now = s(1_500);
    let ws = weather(&topo, now);
    let mut h = Fnv::new();
    for user in [
        UserSpec::default(),
        UserSpec {
            avoid_memory_spill: false,
            ..UserSpec::default()
        },
    ] {
        let d = decide(
            &topo,
            &ws,
            now,
            &exhaustive(jacobi2d_hat(1000, 20), user),
            &mut h,
        );
        assert_eq!(d.considered.len() + d.rejected, 31);
    }
    check("memory-capped", h, 0x2ad6_247f_b70e_37b0);
}

/// A gateway whose capacity is fully consumed: every set that crosses
/// it has a border that never completes, so its planning fails and it
/// is counted as rejected.
#[test]
fn dead_gateway_decisions_are_pinned() {
    let mut b = TopologyBuilder::new();
    let sa = b.add_segment(LinkSpec::dedicated("a", 10.0, SimTime::from_millis(1)));
    let sb = b.add_segment(LinkSpec::dedicated("b", 10.0, SimTime::from_millis(1)));
    let gw = b.add_link(LinkSpec::shared(
        "gw",
        5.0,
        SimTime::from_millis(10),
        LoadModel::Constant(0.0),
    ));
    b.add_route(sa, sb, vec![gw]).expect("route");
    b.add_host(HostSpec::dedicated("a0", 30.0, 256.0, sa));
    b.add_host(HostSpec::dedicated("a1", 20.0, 256.0, sa));
    b.add_host(HostSpec::dedicated("b0", 90.0, 256.0, sb));
    b.add_host(HostSpec::dedicated("b1", 40.0, 256.0, sb));
    let topo = b.instantiate(s(50_000), 9).expect("topology");
    let now = s(900);
    let ws = weather(&topo, now);
    let mut h = Fnv::new();
    let d = decide(
        &topo,
        &ws,
        now,
        &exhaustive(jacobi2d_hat(600, 20), UserSpec::default()),
        &mut h,
    );
    // 15 subsets; the 9 that hold a host on each side cross the gateway.
    assert_eq!(d.rejected, 9, "{d:?}");
    assert_eq!(d.considered.len(), 6);
    check("dead-gateway", h, 0x883a_ed8b_6baa_7ba1);
}
