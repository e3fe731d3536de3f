//! Property-based and regression tests for the parametric topology
//! generators and the route index: generated testbeds must validate
//! clean, the indexed `route` lookup must agree with the explicit and
//! BFS-derived route table it is built from, same-seed generation must
//! be byte-identical, and fleet-scale validation must stay fast.

use metasim::testbed::LoadProfile;
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{validate_topology, HostId, SimTime};
use proptest::prelude::*;

fn cfg(profile: LoadProfile, seed: u64) -> TopoGenConfig {
    TopoGenConfig {
        profile,
        horizon: SimTime::from_secs(20_000),
        seed,
    }
}

/// A strategy over small specs of every family.
fn small_spec() -> impl Strategy<Value = TopoSpec> {
    prop_oneof![
        (4usize..30, 2usize..6).prop_map(|(hosts, per_seg)| TopoSpec::Star { hosts, per_seg }),
        (4usize..30, 2usize..4, 2usize..5).prop_map(|(hosts, arity, per_seg)| TopoSpec::Tree {
            hosts,
            arity,
            per_seg
        }),
        (2usize..4, 2usize..7, 1usize..4).prop_map(|(l2, l1, hosts_per_l1)| TopoSpec::FatTree {
            l2,
            l1,
            hosts_per_l1
        }),
        (1usize..4, 1usize..4, 1usize..4).prop_map(|(clusters, segs, hosts_per_seg)| {
            TopoSpec::Clusters {
                clusters,
                segs,
                hosts_per_seg,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated topology passes the full static validator: all
    /// host pairs route, every named link exists, nothing is dead.
    #[test]
    fn generated_topologies_validate_clean(
        spec in small_spec(),
        seed in 0u64..1000,
    ) {
        let topo = topogen::generate(&spec, &cfg(LoadProfile::Light, seed)).expect("generate");
        prop_assert_eq!(topo.hosts().len(), spec.host_count());
        let report = validate_topology(&topo);
        prop_assert!(report.is_ok(), "{} (seed {seed}): {report}", spec.label());
    }

    /// The indexed `route` lookup returns the same link sequence as the
    /// uncached table walk, for every host pair of every family.
    #[test]
    fn route_matches_uncached_table(
        spec in small_spec(),
        seed in 0u64..1000,
    ) {
        let topo = topogen::generate(&spec, &cfg(LoadProfile::Dedicated, seed)).expect("generate");
        let n = topo.hosts().len();
        for a in 0..n {
            for b in 0..n {
                let fast = topo.route(HostId(a), HostId(b)).expect("route");
                let slow = topo.route_uncached(HostId(a), HostId(b)).expect("route_uncached");
                prop_assert_eq!(fast, &slow[..], "{}: {a}->{b}", spec.label());
            }
        }
    }

    /// Generation is a pure function of (spec, profile, horizon, seed):
    /// two runs are byte-identical, and the seed matters.
    #[test]
    fn same_seed_generation_is_byte_identical(
        spec in small_spec(),
        seed in 0u64..1000,
    ) {
        let c = cfg(LoadProfile::Moderate, seed);
        let a = topogen::generate(&spec, &c).expect("a");
        let b = topogen::generate(&spec, &c).expect("b");
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let other = topogen::generate(&spec, &cfg(LoadProfile::Moderate, seed ^ 0x5eed))
            .expect("other");
        prop_assert_ne!(format!("{a:?}"), format!("{other:?}"));
    }
}

/// Satellite regression: validating a 1000-host generated testbed must
/// be fast. The pre-rewrite validator walked all O(hosts^2) host pairs
/// through allocating route lookups and took tens of seconds at this
/// scale; the segment-pair walk plus the route cache keeps it well
/// under a second.
#[test]
fn fleet_scale_validation_is_fast() {
    let spec = TopoSpec::parse("fat-tree:k=8").expect("spec");
    assert_eq!(spec.host_count(), 1024);
    let topo = topogen::generate(&spec, &cfg(LoadProfile::Dedicated, 1996)).expect("generate");
    let t0 = std::time::Instant::now();
    let report = validate_topology(&topo);
    let elapsed = t0.elapsed();
    assert!(report.is_ok(), "unexpected issues:\n{report}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "validate_topology took {elapsed:?} on 1024 hosts (budget 1s)"
    );
}

/// The CLI-facing spec grammar round-trips and rejects junk — the
/// integration-level contract `--topo` relies on.
#[test]
fn spec_grammar_round_trips() {
    for s in [
        "star:hosts=64,per_seg=8",
        "tree:hosts=64,arity=4,per_seg=8",
        "fat-tree:l2=8,l1=128,hosts=8",
        "clusters:clusters=8,segs=4,hosts=8",
    ] {
        let spec = TopoSpec::parse(s).expect(s);
        assert_eq!(spec.label(), s);
    }
    assert_eq!(
        TopoSpec::parse("fat-tree:k=8").expect("k=8"),
        TopoSpec::parse("fat-tree:l2=8,l1=128,hosts=8").expect("long form"),
    );
    assert!(TopoSpec::parse("mesh:hosts=4").is_err());
    assert!(TopoSpec::parse("star:hosts=0").is_err());
}

/// `fat-tree:k=K` derives `l1`, `l2` and `hosts`, so giving any of them
/// next to it is refused rather than silently overridden.
#[test]
fn fat_tree_shorthand_refuses_the_long_form_keys() {
    for s in [
        "fat-tree:k=4,l1=2",
        "fat-tree:l2=2,k=4",
        "fat-tree:k=4,hosts=4",
        "fattree:k=4,l1=32,l2=4,hosts=4",
    ] {
        let err = TopoSpec::parse(s).expect_err(s).to_string();
        assert!(err.contains("give `k` alone"), "{s}: {err}");
    }
    assert!(TopoSpec::parse("fat-tree:k=4").is_ok());
    assert!(TopoSpec::parse("fat-tree:l2=2,l1=4,hosts=4").is_ok());
}
