//! Cross-commit golden digests of routing.
//!
//! Each case folds every ordered host pair of one topology into an
//! FNV-64 digest: the links of `Topology::route` in order, then
//! `route_latency` in microseconds. A failed lookup contributes its
//! error kind instead (`NoRoute`, `UnknownLink`, ...), so a change to
//! the route index that moves one link, one latency microsecond or one
//! error fails here. When a change is *meant* to alter routing,
//! recompute the digests (the failure message prints the new one) and
//! say why in the commit.

use metasim::host::HostSpec;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{HostId, LinkId, SimError, SimTime, Topology};

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

    /// A failed lookup: a tag per error kind, then its identifying ids.
    fn error(&mut self, e: &SimError) {
        match e {
            SimError::NoRoute { from, to } => {
                self.u64(1);
                self.usize(*from);
                self.usize(*to);
            }
            SimError::UnknownLink(l) => {
                self.u64(2);
                self.usize(*l);
            }
            other => panic!("unexpected routing error: {other}"),
        }
    }
}

/// Digest of every ordered host pair's route and route latency.
fn route_digest(topo: &Topology) -> u64 {
    let mut h = Fnv::new();
    let n = topo.hosts().len();
    h.usize(n);
    for a in 0..n {
        for b in 0..n {
            let (from, to) = (HostId(a), HostId(b));
            match topo.route(from, to) {
                Ok(route) => {
                    h.u64(0);
                    h.usize(route.len());
                    for l in route.iter() {
                        h.usize(l.0);
                    }
                }
                Err(e) => h.error(&e),
            }
            match topo.route_latency(from, to) {
                Ok(lat) => {
                    h.u64(0);
                    h.u64(lat.as_micros());
                }
                Err(e) => h.error(&e),
            }
        }
    }
    h.0
}

fn check(name: &str, topo: &Topology, want: u64) {
    let got = route_digest(topo);
    assert_eq!(
        got, want,
        "{name}: routing moved; new digest {got:#018x} (was {want:#018x})"
    );
}

#[test]
fn figure2_routes_are_pinned() {
    let tb = pcl_sdsc(&TestbedConfig {
        with_sp2: true,
        ..TestbedConfig::default()
    })
    .expect("testbed");
    check("figure-2 with SP-2", &tb.topo, 0x2af5_c286_90cf_f0c7);
}

#[test]
fn generated_routes_are_pinned() {
    let cfg = TopoGenConfig {
        profile: LoadProfile::Light,
        horizon: SimTime::from_secs(20_000),
        seed: 1996,
    };
    for (spec, want) in [
        ("star:hosts=16,per_seg=4", 0xcd9f_c704_f721_cfe5),
        ("tree:hosts=16,arity=2,per_seg=4", 0x7e5a_5664_0b55_b515),
        ("fat-tree:k=4", 0x81c7_5b4a_bbb4_ac45),
        ("clusters:clusters=8,segs=4,hosts=8", 0x8a0d_299c_2297_78ea),
    ] {
        let topo = topogen::generate(&TopoSpec::parse(spec).expect(spec), &cfg).expect(spec);
        check(spec, &topo, want);
    }
}

/// Two segments joined by a gateway, an island segment no route
/// reaches, and a segment whose registered route names a link the
/// topology does not have: lookups succeed, fail with `NoRoute`, and
/// fail with `UnknownLink` on latency.
#[test]
fn broken_routes_are_pinned() {
    let ms = SimTime::from_millis;
    let mut b = TopologyBuilder::new();
    let sa = b.add_segment(LinkSpec::dedicated("segA", 10.0, ms(1)));
    let sb = b.add_segment(LinkSpec::dedicated("segB", 10.0, ms(2)));
    let island = b.add_segment(LinkSpec::dedicated("island", 10.0, ms(3)));
    let sd = b.add_segment(LinkSpec::dedicated("segD", 10.0, ms(4)));
    b.connect(sa, sb, LinkSpec::dedicated("gw", 2.0, ms(5)));
    b.add_route(sa, sd, vec![LinkId(999)]).expect("route");
    for (i, seg) in [sa, sa, sb, island, sd].into_iter().enumerate() {
        b.add_host(HostSpec::dedicated(&format!("h{i}"), 10.0, 64.0, seg));
    }
    let topo = b
        .instantiate(SimTime::from_secs(100), 7)
        .expect("instantiate");
    check("hand-built broken routes", &topo, 0x4cf2_9a62_c5f8_2854);
}
