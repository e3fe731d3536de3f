//! Parametric topology generators.
//!
//! The paper's hand-built Figure-2 testbed tops out at ~10 hosts, so
//! nothing downstream of it can exercise the fleet scale the event
//! core was built for. This module generates whole topology *families*
//! — star, balanced tree, two-level fat-tree, clusters-of-clusters —
//! deterministically from a seed, with heterogeneous host mixes drawn
//! from the same nominal machine classes as the shipped testbed and
//! background load wired through [`LoadProfile`]. A [`TopoSpec`] parses
//! from a compact CLI string (`fat-tree:k=8`, `clusters:clusters=16`),
//! so the bench harness, the grid service and `apples-cli` can all run
//! the same experiments across families (dslab-network's
//! `make_*_topology` generators are the reference model).
//!
//! Every generator is pure: the same spec, profile, horizon and seed
//! produce a byte-identical [`Topology`]; its availability series are
//! realized lazily, up to the horizon.

use crate::error::SimError;
use crate::host::HostSpec;
use crate::net::{LinkSpec, SegmentId, Topology, TopologyBuilder};
use crate::testbed::{nominal, LoadProfile};
use crate::time::SimTime;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A parametric topology family with its size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// Leaf Ethernet segments around one backbone segment.
    Star {
        /// Total hosts, spread over `ceil(hosts / per_seg)` leaves.
        hosts: usize,
        /// Hosts per leaf segment.
        per_seg: usize,
    },
    /// Balanced tree of segments; hosts attach to leaf segments,
    /// interior segments only forward.
    Tree {
        /// Total hosts.
        hosts: usize,
        /// Children per interior segment (>= 2).
        arity: usize,
        /// Hosts per leaf segment.
        per_seg: usize,
    },
    /// Two-level fat-tree: `l1` edge segments each wired to every one
    /// of `l2` aggregation switches, with explicit per-pair routes
    /// spread across the aggregation layer (dslab's
    /// `make_fat_tree_topology` shape).
    FatTree {
        /// Aggregation (top-level) switches.
        l2: usize,
        /// Edge segments hosts attach to.
        l1: usize,
        /// Hosts per edge segment.
        hosts_per_l1: usize,
    },
    /// Clusters-of-clusters: each cluster is a root segment with leaf
    /// segments below it; cluster roots meet at a backbone segment.
    Clusters {
        /// Number of clusters.
        clusters: usize,
        /// Leaf segments per cluster.
        segs: usize,
        /// Hosts per leaf segment.
        hosts_per_seg: usize,
    },
}

/// Most hosts a parsed [`TopoSpec`] may have. Hosts cost linear time
/// and memory to generate.
pub const MAX_HOSTS: usize = 16_384;

/// Most segments a parsed [`TopoSpec`] may have, counting a fat-tree's
/// aggregation switches as segments. Route derivation is quadratic in
/// segments: the largest accepted spec of each family generates in
/// under 0.4 s and 160 MB on a 2-vCPU container (a binary tree of 640
/// segments over 16 384 hosts is the costliest).
pub const MAX_SEGMENTS: usize = 640;

fn bad(spec: &str, why: &str) -> SimError {
    SimError::Invalid(format!("topology spec `{spec}`: {why}"))
}

impl TopoSpec {
    /// Parse a compact spec string: `family[:key=value,...]`.
    ///
    /// Families and keys (all values positive integers):
    /// * `star:hosts=64,per_seg=8`
    /// * `tree:hosts=64,arity=4,per_seg=8`
    /// * `fat-tree:l2=4,l1=32,hosts=8` (`hosts` = hosts per edge
    ///   segment), or the shorthand `fat-tree:k=K` for `l2=K,
    ///   l1=2*K*K, hosts=K` — `fat-tree:k=8` is a 1024-host testbed;
    ///   `k` next to `l1`, `l2` or `hosts` is refused
    /// * `clusters:clusters=8,segs=4,hosts=8`
    ///
    /// Omitted keys take the defaults shown above. A spec with more
    /// than [`MAX_HOSTS`] hosts or [`MAX_SEGMENTS`] segments is
    /// refused.
    pub fn parse(s: &str) -> Result<TopoSpec, SimError> {
        let (family, rest) = match s.split_once(':') {
            Some((f, r)) => (f, r),
            None => (s, ""),
        };
        let mut kv: Vec<(&str, usize)> = Vec::new();
        for pair in rest.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| bad(s, &format!("expected key=value, got `{pair}`")))?;
            let v: usize = v
                .parse()
                .map_err(|_| bad(s, &format!("`{k}` wants a positive integer, got `{v}`")))?;
            if v == 0 {
                return Err(bad(s, &format!("`{k}` must be positive")));
            }
            kv.push((k, v));
        }
        let get = |key: &str, default: usize| -> usize {
            kv.iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, v)| v)
                .unwrap_or(default)
        };
        let (spec, keys): (TopoSpec, &[&str]) = match family {
            "star" => (
                TopoSpec::Star {
                    hosts: get("hosts", 64),
                    per_seg: get("per_seg", 8),
                },
                &["hosts", "per_seg"],
            ),
            "tree" => (
                TopoSpec::Tree {
                    hosts: get("hosts", 64),
                    arity: get("arity", 4),
                    per_seg: get("per_seg", 8),
                },
                &["hosts", "arity", "per_seg"],
            ),
            "fat-tree" | "fattree" => {
                let long_form = kv
                    .iter()
                    .any(|(key, _)| ["l1", "l2", "hosts"].contains(key));
                let spec = match get("k", 0) {
                    0 => TopoSpec::FatTree {
                        l2: get("l2", 4),
                        l1: get("l1", 32),
                        hosts_per_l1: get("hosts", 8),
                    },
                    _ if long_form => {
                        return Err(bad(s, "`k` sets `l1`, `l2` and `hosts`; give `k` alone"))
                    }
                    k => TopoSpec::FatTree {
                        l2: k,
                        l1: k.saturating_mul(k).saturating_mul(2),
                        hosts_per_l1: k,
                    },
                };
                (spec, &["k", "l1", "l2", "hosts"])
            }
            "clusters" => (
                TopoSpec::Clusters {
                    clusters: get("clusters", 8),
                    segs: get("segs", 4),
                    hosts_per_seg: get("hosts", 8),
                },
                &["clusters", "segs", "hosts"],
            ),
            other => {
                return Err(bad(
                    s,
                    &format!("unknown family `{other}` (star, tree, fat-tree, clusters)"),
                ))
            }
        };
        if let Some((k, _)) = kv.iter().find(|(k, _)| !keys.contains(k)) {
            return Err(bad(s, &format!("unknown key `{k}`")));
        }
        if get("arity", 2) < 2 {
            return Err(bad(s, "`arity` must be at least 2"));
        }
        match spec.counts() {
            Some((hosts, segments)) if hosts <= MAX_HOSTS && segments <= MAX_SEGMENTS => Ok(spec),
            _ => Err(bad(
                s,
                &format!("exceeds the limits of {MAX_HOSTS} hosts and {MAX_SEGMENTS} segments"),
            )),
        }
    }

    /// Hosts and segments (a fat-tree's aggregation switches included)
    /// the generated topology will have; `None` if a count overflows.
    fn counts(&self) -> Option<(usize, usize)> {
        match *self {
            TopoSpec::Star { hosts, per_seg } => {
                Some((hosts, hosts.div_ceil(per_seg).checked_add(1)?))
            }
            TopoSpec::Tree {
                hosts,
                arity,
                per_seg,
            } => {
                let mut level = hosts.div_ceil(per_seg);
                let mut segments = level;
                while level > 1 {
                    level = level.div_ceil(arity.max(2));
                    segments = segments.checked_add(level)?;
                }
                Some((hosts, segments))
            }
            TopoSpec::FatTree {
                l2,
                l1,
                hosts_per_l1,
            } => Some((l1.checked_mul(hosts_per_l1)?, l1.checked_add(l2)?)),
            TopoSpec::Clusters {
                clusters,
                segs,
                hosts_per_seg,
            } => {
                let leaves = clusters.checked_mul(segs)?;
                let segments = leaves.checked_add(clusters)?.checked_add(1)?;
                Some((leaves.checked_mul(hosts_per_seg)?, segments))
            }
        }
    }

    /// Canonical spec string (round-trips through [`TopoSpec::parse`]).
    pub fn label(&self) -> String {
        match self {
            TopoSpec::Star { hosts, per_seg } => format!("star:hosts={hosts},per_seg={per_seg}"),
            TopoSpec::Tree {
                hosts,
                arity,
                per_seg,
            } => format!("tree:hosts={hosts},arity={arity},per_seg={per_seg}"),
            TopoSpec::FatTree {
                l2,
                l1,
                hosts_per_l1,
            } => format!("fat-tree:l2={l2},l1={l1},hosts={hosts_per_l1}"),
            TopoSpec::Clusters {
                clusters,
                segs,
                hosts_per_seg,
            } => format!("clusters:clusters={clusters},segs={segs},hosts={hosts_per_seg}"),
        }
    }

    /// Number of hosts the generated topology will have (saturating;
    /// a parsed spec has at most [`MAX_HOSTS`]).
    pub fn host_count(&self) -> usize {
        self.counts().map_or(usize::MAX, |(hosts, _)| hosts)
    }
}

/// Generation knobs shared by every family.
#[derive(Debug, Clone)]
pub struct TopoGenConfig {
    /// Background-load intensity wired onto shared media and hosts.
    pub profile: LoadProfile,
    /// Horizon of the load processes: a realization *cap*. Series are
    /// realized lazily, only as far as a run reads them, never past the
    /// horizon, and hold their last value beyond it.
    pub horizon: SimTime,
    /// Seed controlling host-mix draws, skews and every realized
    /// availability process.
    pub seed: u64,
}

impl Default for TopoGenConfig {
    fn default() -> Self {
        TopoGenConfig {
            profile: LoadProfile::Moderate,
            horizon: SimTime::from_secs(200_000),
            seed: 1996,
        }
    }
}

/// The nominal machine classes hosts are drawn from, with a short tag
/// for host names.
const HOST_CLASSES: &[(&str, f64, f64)] = &[
    ("sparc2", nominal::SPARC2_MFLOPS, nominal::SPARC2_MEM_MB),
    ("sparc10", nominal::SPARC10_MFLOPS, nominal::SPARC10_MEM_MB),
    ("rs6000", nominal::RS6000_MFLOPS, nominal::RS6000_MEM_MB),
    ("alpha", nominal::ALPHA_MFLOPS, nominal::ALPHA_MEM_MB),
    ("sp2", nominal::SP2_MFLOPS, nominal::SP2_MEM_MB),
];

/// Fat-trees model machine-room fabrics: only the two fastest classes.
const HPC_CLASSES: &[(&str, f64, f64)] = &[
    ("alpha", nominal::ALPHA_MFLOPS, nominal::ALPHA_MEM_MB),
    ("sp2", nominal::SP2_MFLOPS, nominal::SP2_MEM_MB),
];

/// Draw one heterogeneous host: a machine class, an mflops jitter of
/// +/-15% around the class nominal, and a CPU-load skew in [-1, 1].
fn draw_host(
    rng: &mut ChaCha8Rng,
    classes: &[(&str, f64, f64)],
    name_prefix: &str,
    idx: usize,
    seg: SegmentId,
    profile: LoadProfile,
) -> HostSpec {
    let (tag, mflops, mem) = classes[rng.gen_range(0..classes.len())];
    let mflops = mflops * rng.gen_range(0.85..=1.15);
    let skew = rng.gen_range(-1.0..=1.0);
    HostSpec::workstation(
        &format!("{name_prefix}-h{idx:04}-{tag}"),
        mflops,
        mem,
        seg,
        profile.cpu_load(skew),
    )
}

/// Shared-medium spec under the profile, with a per-link skew draw.
fn shared_link(
    rng: &mut ChaCha8Rng,
    name: &str,
    mbps: f64,
    latency: SimTime,
    profile: LoadProfile,
) -> LinkSpec {
    let skew = rng.gen_range(-1.0..=1.0);
    LinkSpec::shared(name, mbps, latency, profile.net_load(skew))
}

/// Build (but do not instantiate) the topology for a spec. Exposed so
/// a caller can extend the builder — more links, hosts or routes —
/// before instantiation; most callers want [`generate`].
pub fn build(spec: &TopoSpec, cfg: &TopoGenConfig) -> Result<TopologyBuilder, SimError> {
    // Independent streams for the wiring draws and the host draws, so
    // adding a link never shifts every later host's class.
    let mut net_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x70_70_67_65_6E_00_01);
    let mut host_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x70_70_67_65_6E_00_02);
    let p = cfg.profile;
    let mut b = TopologyBuilder::new();

    match *spec {
        TopoSpec::Star { hosts, per_seg } => {
            let backbone = b.add_segment(shared_link(
                &mut net_rng,
                "star-backbone",
                nominal::FDDI_MBPS,
                SimTime::from_micros(500),
                p,
            ));
            let n_seg = hosts.div_ceil(per_seg);
            for s in 0..n_seg {
                let seg = b.add_segment(shared_link(
                    &mut net_rng,
                    &format!("star-seg{s:03}"),
                    nominal::ETHERNET_MBPS,
                    SimTime::from_millis(1),
                    p,
                ));
                b.connect(
                    seg,
                    backbone,
                    LinkSpec::dedicated(
                        &format!("star-up{s:03}"),
                        2.0 * nominal::ETHERNET_MBPS,
                        SimTime::from_millis(1),
                    ),
                );
                let lo = s * per_seg;
                let hi = ((s + 1) * per_seg).min(hosts);
                for h in lo..hi {
                    let spec = draw_host(&mut host_rng, HOST_CLASSES, "star", h, seg, p);
                    b.add_host(spec);
                }
            }
        }
        TopoSpec::Tree {
            hosts,
            arity,
            per_seg,
        } => {
            // Leaf segments first, then interior levels bottom-up
            // until a single root remains.
            let n_leaf = hosts.div_ceil(per_seg);
            let mut level: Vec<SegmentId> = Vec::with_capacity(n_leaf);
            for s in 0..n_leaf {
                let seg = b.add_segment(shared_link(
                    &mut net_rng,
                    &format!("tree-leaf{s:03}"),
                    nominal::ETHERNET_MBPS,
                    SimTime::from_millis(1),
                    p,
                ));
                level.push(seg);
                let lo = s * per_seg;
                let hi = ((s + 1) * per_seg).min(hosts);
                for h in lo..hi {
                    let spec = draw_host(&mut host_rng, HOST_CLASSES, "tree", h, seg, p);
                    b.add_host(spec);
                }
            }
            let mut depth = 0usize;
            while level.len() > 1 {
                let n_up = level.len().div_ceil(arity);
                let mut next = Vec::with_capacity(n_up);
                for u in 0..n_up {
                    let seg = b.add_segment(shared_link(
                        &mut net_rng,
                        &format!("tree-d{depth}-n{u:03}"),
                        nominal::FDDI_MBPS,
                        SimTime::from_micros(500),
                        p,
                    ));
                    next.push(seg);
                }
                for (c, &child) in level.iter().enumerate() {
                    b.connect(
                        child,
                        next[c / arity],
                        LinkSpec::dedicated(
                            &format!("tree-d{depth}-e{c:03}"),
                            2.0 * nominal::ETHERNET_MBPS,
                            SimTime::from_millis(1),
                        ),
                    );
                }
                level = next;
                depth += 1;
            }
        }
        TopoSpec::FatTree {
            l2,
            l1,
            hosts_per_l1,
        } => {
            // Edge segments (SP-2-switch class fabric, microsecond
            // latencies), each wired to every aggregation switch by a
            // dedicated uplink; per-pair routes spread round-robin
            // across the aggregation layer.
            let mut segs = Vec::with_capacity(l1);
            for s in 0..l1 {
                let seg = b.add_segment(shared_link(
                    &mut net_rng,
                    &format!("ft-edge{s:03}"),
                    nominal::SP2_SWITCH_MBPS,
                    SimTime::from_micros(50),
                    p,
                ));
                segs.push(seg);
                for h in 0..hosts_per_l1 {
                    let spec = draw_host(
                        &mut host_rng,
                        HPC_CLASSES,
                        "ft",
                        s * hosts_per_l1 + h,
                        seg,
                        p,
                    );
                    b.add_host(spec);
                }
            }
            let mut up = Vec::with_capacity(l1);
            for (s, _) in segs.iter().enumerate() {
                let mut links = Vec::with_capacity(l2);
                for c in 0..l2 {
                    links.push(b.add_link(LinkSpec::dedicated(
                        &format!("ft-up{s:03}x{c:02}"),
                        nominal::SP2_SWITCH_MBPS,
                        SimTime::from_micros(20),
                    )));
                }
                up.push(links);
            }
            for i in 0..l1 {
                for j in (i + 1)..l1 {
                    let c = (i + j) % l2;
                    b.add_route(segs[i], segs[j], vec![up[i][c], up[j][c]])?;
                }
            }
        }
        TopoSpec::Clusters {
            clusters,
            segs,
            hosts_per_seg,
        } => {
            let backbone = b.add_segment(shared_link(
                &mut net_rng,
                "cc-backbone",
                4.0 * nominal::FDDI_MBPS,
                SimTime::from_micros(200),
                p,
            ));
            let mut host_idx = 0usize;
            for c in 0..clusters {
                let root = b.add_segment(shared_link(
                    &mut net_rng,
                    &format!("cc-c{c:02}-root"),
                    nominal::FDDI_MBPS,
                    SimTime::from_micros(500),
                    p,
                ));
                b.connect(
                    root,
                    backbone,
                    shared_link(
                        &mut net_rng,
                        &format!("cc-c{c:02}-gw"),
                        nominal::GATEWAY_MBPS * 4.0,
                        SimTime::from_millis(3),
                        p,
                    ),
                );
                for s in 0..segs {
                    let leaf = b.add_segment(shared_link(
                        &mut net_rng,
                        &format!("cc-c{c:02}-s{s:02}"),
                        nominal::ETHERNET_MBPS,
                        SimTime::from_millis(1),
                        p,
                    ));
                    b.connect(
                        leaf,
                        root,
                        LinkSpec::dedicated(
                            &format!("cc-c{c:02}-e{s:02}"),
                            2.0 * nominal::ETHERNET_MBPS,
                            SimTime::from_millis(1),
                        ),
                    );
                    for _ in 0..hosts_per_seg {
                        let spec = draw_host(&mut host_rng, HOST_CLASSES, "cc", host_idx, leaf, p);
                        b.add_host(spec);
                        host_idx += 1;
                    }
                }
            }
        }
    }
    Ok(b)
}

/// Generate and instantiate a topology: same spec + config, same
/// topology, byte for byte.
pub fn generate(spec: &TopoSpec, cfg: &TopoGenConfig) -> Result<Topology, SimError> {
    build(spec, cfg)?.instantiate(cfg.horizon, cfg.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostId;

    fn cfg(seed: u64) -> TopoGenConfig {
        TopoGenConfig {
            profile: LoadProfile::Light,
            horizon: SimTime::from_secs(10_000),
            seed,
        }
    }

    #[test]
    fn parse_round_trips_through_label() {
        for s in [
            "star:hosts=64,per_seg=8",
            "tree:hosts=64,arity=4,per_seg=8",
            "fat-tree:l2=8,l1=128,hosts=8",
            "clusters:clusters=8,segs=4,hosts=8",
        ] {
            let spec = TopoSpec::parse(s).unwrap();
            assert_eq!(spec.label(), s);
            assert_eq!(TopoSpec::parse(&spec.label()).unwrap(), spec);
        }
    }

    #[test]
    fn defaults_and_shorthand() {
        assert_eq!(
            TopoSpec::parse("star").unwrap(),
            TopoSpec::Star {
                hosts: 64,
                per_seg: 8
            }
        );
        let k8 = TopoSpec::parse("fat-tree:k=8").unwrap();
        assert_eq!(
            k8,
            TopoSpec::FatTree {
                l2: 8,
                l1: 128,
                hosts_per_l1: 8
            }
        );
        assert_eq!(k8.host_count(), 1024);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for s in [
            "ring",
            "star:hosts=0",
            "star:bogus=3",
            "tree:arity=1",
            "fat-tree:k=oops",
            "star:hosts",
        ] {
            assert!(TopoSpec::parse(s).is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn sizes_past_the_limits_are_refused_without_overflow() {
        for s in [
            // 2·k·k wraps to 0 without checked arithmetic.
            "fat-tree:k=4294967296",
            "fat-tree:k=18",
            "fat-tree:l2=1,l1=16385,hosts=1",
            "clusters:clusters=1000",
            "clusters:clusters=99999999999,segs=99999999999,hosts=99999999999",
            "star:hosts=16385",
            "star:hosts=640,per_seg=1",
            "tree:hosts=320,arity=2,per_seg=1",
        ] {
            let err = TopoSpec::parse(s).unwrap_err().to_string();
            assert!(err.contains("exceeds the limits"), "`{s}`: {err}");
        }
        for s in [
            "fat-tree:k=17",
            "fat-tree:l2=320,l1=320,hosts=51",
            "clusters:clusters=32,segs=8,hosts=1",
            "star:hosts=16384,per_seg=26",
            "star:hosts=639,per_seg=1",
            "tree:hosts=16384,arity=2,per_seg=52",
        ] {
            let spec = TopoSpec::parse(s).unwrap();
            let (hosts, segments) = spec.counts().unwrap();
            assert!(hosts <= MAX_HOSTS && segments <= MAX_SEGMENTS, "`{s}`");
        }
    }

    #[test]
    fn every_family_generates_and_routes() {
        for s in [
            "star:hosts=20,per_seg=4",
            "tree:hosts=24,arity=3,per_seg=4",
            "fat-tree:l2=3,l1=6,hosts=4",
            "clusters:clusters=3,segs=2,hosts=3",
        ] {
            let spec = TopoSpec::parse(s).unwrap();
            let topo = generate(&spec, &cfg(11)).unwrap();
            assert_eq!(topo.hosts().len(), spec.host_count(), "{s}");
            // The size check counts what generation builds.
            let aggregation = match spec {
                TopoSpec::FatTree { l2, .. } => l2,
                _ => 0,
            };
            let counted = (spec.host_count(), topo.segment_count() + aggregation);
            assert_eq!(spec.counts(), Some(counted), "{s}");
            // Every host pair routes.
            let n = topo.hosts().len();
            for a in 0..n {
                for b in 0..n {
                    assert!(
                        topo.route(HostId(a), HostId(b)).is_ok(),
                        "{s}: no route {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let spec = TopoSpec::parse("clusters:clusters=2,segs=2,hosts=2").unwrap();
        let a = generate(&spec, &cfg(5)).unwrap();
        let b = generate(&spec, &cfg(5)).unwrap();
        let c = generate(&spec, &cfg(6)).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn fat_tree_pairs_spread_across_aggregation() {
        let spec = TopoSpec::parse("fat-tree:l2=2,l1=4,hosts=1").unwrap();
        let topo = generate(&spec, &cfg(3)).unwrap();
        // Hosts 0..4 sit on edge segments 0..4; cross-edge routes are
        // 4 links: edge, up, up, edge.
        let r = topo.route(HostId(0), HostId(3)).unwrap();
        assert_eq!(r.len(), 4);
    }
}
