//! Static pre-run validation for testbed and fault configurations.
//!
//! A simulation that panics (or silently never completes) twenty
//! simulated hours into a run wastes far more than the millisecond it
//! takes to check the configuration up front. This module walks an
//! instantiated [`Topology`] (and optionally a [`FaultSpec`]) and
//! produces *typed* diagnostics for every problem it can prove
//! statically:
//!
//! * hosts that cannot reach each other (no route),
//! * routes that name links the topology does not have,
//! * zero/negative/non-finite bandwidth or MFLOP rates,
//! * hosts or links whose availability is pinned at zero for the whole
//!   horizon (work routed there never completes),
//! * fault windows that are inverted or start beyond the horizon,
//! * per-host memory demand exceeding every host's capacity.
//!
//! The checks are advisory by design: [`ValidationReport::into_result`]
//! turns a non-empty report into a single [`SimError::Invalid`] for
//! callers that want hard rejection (the grid service does this at
//! construction), while `cli validate` prints the full list.

use crate::fault::FaultSpec;
use crate::load::StepSeries;
use crate::net::{SegmentId, Topology};
use crate::time::SimTime;
use std::fmt;

/// One statically-provable configuration problem.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigIssue {
    /// The simulation horizon is zero: nothing can ever run.
    ZeroHorizon,
    /// A link's bandwidth is NaN or infinite.
    NonFiniteBandwidth {
        /// Link name.
        link: String,
        /// The offending bandwidth in Mbit/s.
        value: f64,
    },
    /// A link's bandwidth is zero or negative.
    NonPositiveBandwidth {
        /// Link name.
        link: String,
        /// The offending bandwidth in Mbit/s.
        value: f64,
    },
    /// A host's MFLOP rate is NaN or infinite.
    NonFiniteMflops {
        /// Host name.
        host: String,
        /// The offending rate in Mflop/s.
        value: f64,
    },
    /// A host's MFLOP rate is zero or negative.
    NonPositiveMflops {
        /// Host name.
        host: String,
        /// The offending rate in Mflop/s.
        value: f64,
    },
    /// A host's memory capacity is NaN, infinite, zero or negative.
    BadMemory {
        /// Host name.
        host: String,
        /// The offending capacity in MB.
        value: f64,
    },
    /// No route exists between two hosts.
    UnreachableHosts {
        /// Source host name.
        from: String,
        /// Destination host name.
        to: String,
    },
    /// A registered route names a link id the topology does not have.
    RouteViaUnknownLink {
        /// Source host name.
        from: String,
        /// Destination host name.
        to: String,
        /// The out-of-range link id.
        link: usize,
    },
    /// A link whose availability is zero across the whole horizon.
    DeadLink {
        /// Link name.
        link: String,
    },
    /// A host whose availability is zero across the whole horizon.
    DeadHost {
        /// Host name.
        host: String,
    },
    /// A fault names a host id the topology does not have.
    FaultOnUnknownHost {
        /// The out-of-range host id.
        host: usize,
    },
    /// A fault names a link id the topology does not have.
    FaultOnUnknownLink {
        /// The out-of-range link id.
        link: usize,
    },
    /// A fault recovers at or before the moment it strikes.
    InvertedFaultWindow {
        /// Name of the faulted host or link.
        resource: String,
        /// When the fault strikes.
        at: SimTime,
        /// When it claims to recover (not after `at`).
        recover: SimTime,
    },
    /// A fault strikes at or beyond the horizon and can never fire.
    FaultBeyondHorizon {
        /// Name of the faulted host or link.
        resource: String,
        /// When the fault strikes.
        at: SimTime,
        /// The simulation horizon it falls outside of.
        horizon: SimTime,
    },
    /// Per-host resident memory exceeds every host's capacity.
    MemoryOvercommit {
        /// Description of the demand (e.g. the job kind).
        what: String,
        /// Best-case per-host resident demand in MB.
        needed_mb: f64,
        /// The largest host memory in the topology, in MB.
        capacity_mb: f64,
    },
}

impl ConfigIssue {
    /// Stable machine-readable code for this diagnostic class.
    pub fn code(&self) -> &'static str {
        match self {
            ConfigIssue::ZeroHorizon => "zero-horizon",
            ConfigIssue::NonFiniteBandwidth { .. } => "non-finite-bandwidth",
            ConfigIssue::NonPositiveBandwidth { .. } => "non-positive-bandwidth",
            ConfigIssue::NonFiniteMflops { .. } => "non-finite-mflops",
            ConfigIssue::NonPositiveMflops { .. } => "non-positive-mflops",
            ConfigIssue::BadMemory { .. } => "bad-memory",
            ConfigIssue::UnreachableHosts { .. } => "unreachable-hosts",
            ConfigIssue::RouteViaUnknownLink { .. } => "route-via-unknown-link",
            ConfigIssue::DeadLink { .. } => "dead-link",
            ConfigIssue::DeadHost { .. } => "dead-host",
            ConfigIssue::FaultOnUnknownHost { .. } => "fault-on-unknown-host",
            ConfigIssue::FaultOnUnknownLink { .. } => "fault-on-unknown-link",
            ConfigIssue::InvertedFaultWindow { .. } => "inverted-fault-window",
            ConfigIssue::FaultBeyondHorizon { .. } => "fault-beyond-horizon",
            ConfigIssue::MemoryOvercommit { .. } => "memory-overcommit",
        }
    }
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigIssue::ZeroHorizon => {
                write!(f, "simulation horizon is zero; nothing can run")
            }
            ConfigIssue::NonFiniteBandwidth { link, value } => {
                write!(f, "link `{link}` has non-finite bandwidth {value} Mbit/s")
            }
            ConfigIssue::NonPositiveBandwidth { link, value } => {
                write!(f, "link `{link}` has non-positive bandwidth {value} Mbit/s")
            }
            ConfigIssue::NonFiniteMflops { host, value } => {
                write!(f, "host `{host}` has non-finite speed {value} Mflop/s")
            }
            ConfigIssue::NonPositiveMflops { host, value } => {
                write!(f, "host `{host}` has non-positive speed {value} Mflop/s")
            }
            ConfigIssue::BadMemory { host, value } => {
                write!(f, "host `{host}` has unusable memory capacity {value} MB")
            }
            ConfigIssue::UnreachableHosts { from, to } => {
                write!(f, "no route from host `{from}` to host `{to}`")
            }
            ConfigIssue::RouteViaUnknownLink { from, to, link } => {
                write!(
                    f,
                    "route `{from}` -> `{to}` passes through unknown link id {link}"
                )
            }
            ConfigIssue::DeadLink { link } => {
                write!(
                    f,
                    "link `{link}` has zero availability over the whole horizon; \
                     transfers routed through it never complete"
                )
            }
            ConfigIssue::DeadHost { host } => {
                write!(
                    f,
                    "host `{host}` has zero availability over the whole horizon; \
                     work placed there never completes"
                )
            }
            ConfigIssue::FaultOnUnknownHost { host } => {
                write!(f, "fault names unknown host id {host}")
            }
            ConfigIssue::FaultOnUnknownLink { link } => {
                write!(f, "fault names unknown link id {link}")
            }
            ConfigIssue::InvertedFaultWindow {
                resource,
                at,
                recover,
            } => {
                write!(
                    f,
                    "fault on `{resource}` recovers at {recover} which is not after \
                     it strikes at {at}"
                )
            }
            ConfigIssue::FaultBeyondHorizon {
                resource,
                at,
                horizon,
            } => {
                write!(
                    f,
                    "fault on `{resource}` strikes at {at}, at or beyond the \
                     horizon {horizon}"
                )
            }
            ConfigIssue::MemoryOvercommit {
                what,
                needed_mb,
                capacity_mb,
            } => {
                write!(
                    f,
                    "{what} needs {needed_mb:.1} MB resident per host but the \
                     largest host has {capacity_mb:.1} MB"
                )
            }
        }
    }
}

/// The collected diagnostics from a validation pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// Every issue found, in discovery order.
    pub issues: Vec<ConfigIssue>,
}

impl ValidationReport {
    /// True when no issues were found.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// Record one issue.
    pub fn push(&mut self, issue: ConfigIssue) {
        self.issues.push(issue);
    }

    /// Append every issue from `other`.
    pub fn merge(&mut self, other: ValidationReport) {
        self.issues.extend(other.issues);
    }

    /// Collapse into a hard error for callers that refuse bad configs.
    pub fn into_result(self) -> Result<(), crate::SimError> {
        if self.issues.is_empty() {
            return Ok(());
        }
        let joined = self
            .issues
            .iter()
            .map(ConfigIssue::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        Err(crate::SimError::Invalid(joined))
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for issue in &self.issues {
            writeln!(f, "[{}] {}", issue.code(), issue)?;
        }
        Ok(())
    }
}

/// The sign of an availability series' mean over `[0, horizon]`: 0 when
/// the series is 0 throughout, 1 otherwise. Values are never negative,
/// so the mean is 0 exactly when the series starts at 0 and first
/// changes at or past the horizon. Reading only that first change
/// realizes a lazy series about 1 024 s deep, not to the horizon.
fn mean_sign(avail: &StepSeries, horizon: SimTime) -> f64 {
    let dead = avail.value_at(SimTime::ZERO) <= 0.0
        && avail
            .next_change_after(SimTime::ZERO)
            .is_none_or(|t| t >= horizon);
    f64::from(u8::from(!dead))
}

/// Statically validate an instantiated topology.
pub fn validate_topology(topo: &Topology) -> ValidationReport {
    let mut report = ValidationReport::default();
    let horizon = topo.horizon();

    if horizon == SimTime::ZERO {
        report.push(ConfigIssue::ZeroHorizon);
    }

    for link in topo.links() {
        let bw = link.spec.bandwidth_mbps;
        if !bw.is_finite() {
            report.push(ConfigIssue::NonFiniteBandwidth {
                link: link.spec.name.clone(),
                value: bw,
            });
        } else if bw <= 0.0 {
            report.push(ConfigIssue::NonPositiveBandwidth {
                link: link.spec.name.clone(),
                value: bw,
            });
        }
        // Bandwidth × mean availability: an infinite or NaN bandwidth
        // over a dead series is NaN, which is not dead.
        if horizon > SimTime::ZERO && bw * mean_sign(link.availability(), horizon) <= 0.0 {
            report.push(ConfigIssue::DeadLink {
                link: link.spec.name.clone(),
            });
        }
    }

    for host in topo.hosts() {
        let spec = &host.spec;
        if !spec.mflops.is_finite() {
            report.push(ConfigIssue::NonFiniteMflops {
                host: spec.name.clone(),
                value: spec.mflops,
            });
        } else if spec.mflops <= 0.0 {
            report.push(ConfigIssue::NonPositiveMflops {
                host: spec.name.clone(),
                value: spec.mflops,
            });
        }
        if !spec.mem_mb.is_finite() || spec.mem_mb <= 0.0 {
            report.push(ConfigIssue::BadMemory {
                host: spec.name.clone(),
                value: spec.mem_mb,
            });
        }
        if horizon > SimTime::ZERO && mean_sign(host.availability(), horizon) <= 0.0 {
            report.push(ConfigIssue::DeadHost {
                host: spec.name.clone(),
            });
        }
    }

    // Every ordered host pair must have a resolvable route whose links
    // all exist. Hosts on the same segment always share exactly that
    // segment's own link, so reachability is a property of *segment*
    // pairs: checking each ordered pair of host-bearing segments once
    // covers every host pair at O(S^2) instead of O(H^2) — on a
    // 1000-host fleet that is ~16k lookups, not a million. The first
    // host on each segment names the diagnostic.
    let n_links = topo.links().len();
    let mut seg_rep: Vec<Option<&str>> = vec![None; topo.segment_count()];
    for host in topo.hosts() {
        let rep = &mut seg_rep[host.spec.segment.0];
        if rep.is_none() {
            *rep = Some(&host.spec.name);
        }
    }
    for (a, from) in seg_rep.iter().enumerate() {
        let Some(from) = from else { continue };
        for (b, to) in seg_rep.iter().enumerate() {
            let Some(to) = to else { continue };
            if a == b {
                continue;
            }
            match topo.segment_route(SegmentId(a), SegmentId(b)) {
                Ok(Some(route)) => {
                    for l in route {
                        if l.0 >= n_links {
                            report.push(ConfigIssue::RouteViaUnknownLink {
                                from: (*from).to_string(),
                                to: (*to).to_string(),
                                link: l.0,
                            });
                        }
                    }
                }
                Ok(None) | Err(_) => {
                    report.push(ConfigIssue::UnreachableHosts {
                        from: (*from).to_string(),
                        to: (*to).to_string(),
                    });
                }
            }
        }
    }

    report
}

/// Statically validate a fault specification against a topology.
pub fn validate_faults(topo: &Topology, spec: &FaultSpec) -> ValidationReport {
    let mut report = ValidationReport::default();
    let horizon = topo.horizon();

    for hf in &spec.host_faults {
        let name = match topo.host(hf.host) {
            Ok(h) => h.spec.name.clone(),
            Err(_) => {
                report.push(ConfigIssue::FaultOnUnknownHost { host: hf.host.0 });
                continue;
            }
        };
        if let Some(rec) = hf.recover {
            if rec <= hf.at {
                report.push(ConfigIssue::InvertedFaultWindow {
                    resource: name.clone(),
                    at: hf.at,
                    recover: rec,
                });
            }
        }
        if hf.at >= horizon {
            report.push(ConfigIssue::FaultBeyondHorizon {
                resource: name,
                at: hf.at,
                horizon,
            });
        }
    }

    for lf in &spec.link_faults {
        let name = match topo.link(lf.link) {
            Ok(l) => l.spec.name.clone(),
            Err(_) => {
                report.push(ConfigIssue::FaultOnUnknownLink { link: lf.link.0 });
                continue;
            }
        };
        if let Some(rec) = lf.recover {
            if rec <= lf.at {
                report.push(ConfigIssue::InvertedFaultWindow {
                    resource: name.clone(),
                    at: lf.at,
                    recover: rec,
                });
            }
        }
        if lf.at >= horizon {
            report.push(ConfigIssue::FaultBeyondHorizon {
                resource: name,
                at: lf.at,
                horizon,
            });
        }
    }

    report
}

/// Check a best-case per-host resident memory demand against the
/// topology: even spread perfectly across hosts, does any host have the
/// capacity? Returns `None` when it fits.
pub fn memory_fit(topo: &Topology, what: &str, needed_mb_per_host: f64) -> Option<ConfigIssue> {
    let capacity = topo
        .hosts()
        .iter()
        .map(|h| h.spec.mem_mb)
        .fold(0.0f64, f64::max);
    if needed_mb_per_host > capacity {
        Some(ConfigIssue::MemoryOvercommit {
            what: what.to_owned(),
            needed_mb: needed_mb_per_host,
            capacity_mb: capacity,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::load::LoadModel;
    use crate::net::{LinkSpec, TopologyBuilder};
    use crate::testbed::{pcl_sdsc, TestbedConfig};

    fn two_host_topology() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("eth", 10.0, SimTime::from_millis(1)));
        b.add_host(HostSpec::dedicated("a", 50.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 50.0, 64.0, seg));
        b.instantiate(SimTime::from_secs(3600), 1).unwrap()
    }

    #[test]
    fn shipped_testbed_is_clean() {
        let testbed = pcl_sdsc(&TestbedConfig::default()).unwrap();
        let report = validate_topology(&testbed.topo);
        assert!(report.is_ok(), "unexpected issues:\n{report}");
    }

    #[test]
    fn detects_zero_horizon() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("eth", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 50.0, 64.0, seg));
        let topo = b.instantiate(SimTime::ZERO, 1).unwrap();
        let report = validate_topology(&topo);
        assert!(report.issues.contains(&ConfigIssue::ZeroHorizon));
    }

    #[test]
    fn detects_unreachable_hosts() {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_segment(LinkSpec::dedicated("eth1", 10.0, SimTime::ZERO));
        let s2 = b.add_segment(LinkSpec::dedicated("eth2", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 50.0, 64.0, s1));
        b.add_host(HostSpec::dedicated("b", 50.0, 64.0, s2));
        // No connect(): the two segments are islands.
        let topo = b.instantiate(SimTime::from_secs(100), 1).unwrap();
        let report = validate_topology(&topo);
        let unreachable = report
            .issues
            .iter()
            .filter(|i| matches!(i, ConfigIssue::UnreachableHosts { .. }))
            .count();
        assert_eq!(unreachable, 2, "both directions reported:\n{report}");
    }

    #[test]
    fn detects_route_via_unknown_link() {
        let mut b = TopologyBuilder::new();
        let s1 = b.add_segment(LinkSpec::dedicated("eth1", 10.0, SimTime::ZERO));
        let s2 = b.add_segment(LinkSpec::dedicated("eth2", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 50.0, 64.0, s1));
        b.add_host(HostSpec::dedicated("b", 50.0, 64.0, s2));
        b.add_route(s1, s2, vec![crate::net::LinkId(99)]).unwrap();
        let topo = b.instantiate(SimTime::from_secs(100), 1).unwrap();
        let report = validate_topology(&topo);
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, ConfigIssue::RouteViaUnknownLink { link: 99, .. })),
            "expected unknown-link route diagnostic:\n{report}"
        );
    }

    #[test]
    fn detects_dead_host_and_dead_link() {
        let mut topo = two_host_topology();
        topo.host_mut(crate::HostId(0))
            .unwrap()
            .set_availability(StepSeries::constant(0.0));
        topo.link_mut(crate::LinkId(0))
            .unwrap()
            .set_availability(StepSeries::constant(0.0));
        let report = validate_topology(&topo);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ConfigIssue::DeadHost { .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, ConfigIssue::DeadLink { .. })));
    }

    /// Whether the report on `topo` with host 0 and link 0 on `avail`
    /// names a dead host and a dead link, checked against the mean over
    /// the horizon that the verdict stands for.
    fn dead_verdicts(avail: &LoadModel, bandwidth: f64) -> (bool, bool) {
        let horizon = SimTime::from_secs(3600);
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("eth", bandwidth, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 50.0, 64.0, seg));
        let mut topo = b.instantiate(horizon, 1).unwrap();
        let series = || avail.realize(horizon, 1);
        topo.host_mut(crate::HostId(0))
            .unwrap()
            .set_availability(series());
        topo.link_mut(crate::LinkId(0))
            .unwrap()
            .set_availability(series());
        let report = validate_topology(&topo);
        let host = report.issues.iter().any(|i| i.code() == "dead-host");
        let link = report.issues.iter().any(|i| i.code() == "dead-link");
        let mean = series().mean(SimTime::ZERO, horizon);
        assert_eq!(host, mean <= 0.0, "{avail:?}");
        assert_eq!(link, bandwidth * mean <= 0.0, "{avail:?} at {bandwidth}");
        (host, link)
    }

    #[test]
    fn dead_verdict_reads_the_first_change_against_the_horizon() {
        let h = SimTime::from_secs(3600);
        let zero_until = |t: SimTime| LoadModel::Trace(vec![(SimTime::ZERO, 0.0), (t, 0.5)]);
        // Back past the horizon: 0 throughout, dead.
        let late = zero_until(h + SimTime::from_micros(1));
        assert_eq!(dead_verdicts(&late, 10.0), (true, true));
        // At the horizon itself the change adds nothing to the mean.
        assert_eq!(dead_verdicts(&zero_until(h), 10.0), (true, true));
        // Just before it: a sliver of capacity, alive.
        let early = zero_until(h - SimTime::from_micros(1));
        assert_eq!(dead_verdicts(&early, 10.0), (false, false));
        // An infinite or NaN bandwidth over a dead series reads as the
        // old product did: NaN, not dead.
        for bw in [f64::INFINITY, f64::NAN] {
            assert_eq!(dead_verdicts(&late, bw), (true, false));
            assert_eq!(dead_verdicts(&LoadModel::Constant(1.0), bw), (false, false));
        }
    }

    #[test]
    fn dead_verdict_realizes_only_the_first_chunk() {
        let horizon = SimTime::from_secs(400_000);
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("eth", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 50.0, 64.0, seg));
        let mut topo = b.instantiate(horizon, 1).unwrap();
        let walk = LoadModel::RandomWalk {
            start: 0.5,
            step: 0.1,
            interval: SimTime::from_secs(10),
            floor: 0.2,
            ceil: 1.0,
        };
        topo.host_mut(crate::HostId(0))
            .unwrap()
            .set_availability(walk.realize(horizon, 7));
        assert!(validate_topology(&topo).is_ok());
        let until = topo.hosts()[0]
            .availability()
            .realized_until()
            .expect("a tail is still pending");
        assert!(
            until <= SimTime::from_secs(1024 + 10),
            "realized to {until}"
        );
    }

    #[test]
    fn detects_non_finite_and_non_positive_rates() {
        // NaN passes `<= 0.0` so HostSpec::validate/LinkSpec::validate
        // historically let it through; the validator must not.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("eth", f64::NAN, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", f64::NAN, f64::NAN, seg));
        let topo = b.instantiate(SimTime::from_secs(100), 1).unwrap();
        let report = validate_topology(&topo);
        let codes: Vec<&str> = report.issues.iter().map(|i| i.code()).collect();
        assert!(codes.contains(&"non-finite-bandwidth"), "{codes:?}");
        assert!(codes.contains(&"non-finite-mflops"), "{codes:?}");
        assert!(codes.contains(&"bad-memory"), "{codes:?}");
    }

    #[test]
    fn detects_fault_issues() {
        let topo = two_host_topology();
        let spec = FaultSpec {
            host_faults: vec![
                crate::HostFault {
                    host: crate::HostId(7),
                    at: SimTime::from_secs(10),
                    recover: None,
                },
                crate::HostFault {
                    host: crate::HostId(0),
                    at: SimTime::from_secs(100),
                    recover: Some(SimTime::from_secs(50)),
                },
                crate::HostFault {
                    host: crate::HostId(1),
                    at: SimTime::from_secs(7200),
                    recover: None,
                },
            ],
            link_faults: vec![crate::LinkFault {
                link: crate::LinkId(42),
                at: SimTime::from_secs(10),
                recover: None,
            }],
        };
        let report = validate_faults(&topo, &spec);
        let codes: Vec<&str> = report.issues.iter().map(|i| i.code()).collect();
        assert!(codes.contains(&"fault-on-unknown-host"), "{codes:?}");
        assert!(codes.contains(&"fault-on-unknown-link"), "{codes:?}");
        assert!(codes.contains(&"inverted-fault-window"), "{codes:?}");
        assert!(codes.contains(&"fault-beyond-horizon"), "{codes:?}");
    }

    #[test]
    fn detects_memory_overcommit() {
        let topo = two_host_topology(); // largest host: 64 MB
        assert!(memory_fit(&topo, "jacobi 1000x1000", 32.0).is_none());
        let issue = memory_fit(&topo, "jacobi 8000x8000", 512.0);
        assert!(
            matches!(issue, Some(ConfigIssue::MemoryOvercommit { .. })),
            "{issue:?}"
        );
    }

    #[test]
    fn report_collapses_into_typed_error() {
        let mut report = ValidationReport::default();
        assert!(report.clone().into_result().is_ok());
        report.push(ConfigIssue::ZeroHorizon);
        let err = report.into_result().unwrap_err();
        assert!(matches!(err, crate::SimError::Invalid(_)));
        assert!(err.to_string().contains("horizon"));
    }

    #[test]
    fn every_issue_code_is_distinct() {
        let issues = vec![
            ConfigIssue::ZeroHorizon,
            ConfigIssue::NonFiniteBandwidth {
                link: "l".into(),
                value: f64::NAN,
            },
            ConfigIssue::NonPositiveBandwidth {
                link: "l".into(),
                value: 0.0,
            },
            ConfigIssue::NonFiniteMflops {
                host: "h".into(),
                value: f64::NAN,
            },
            ConfigIssue::NonPositiveMflops {
                host: "h".into(),
                value: 0.0,
            },
            ConfigIssue::BadMemory {
                host: "h".into(),
                value: 0.0,
            },
            ConfigIssue::UnreachableHosts {
                from: "a".into(),
                to: "b".into(),
            },
            ConfigIssue::RouteViaUnknownLink {
                from: "a".into(),
                to: "b".into(),
                link: 9,
            },
            ConfigIssue::DeadLink { link: "l".into() },
            ConfigIssue::DeadHost { host: "h".into() },
            ConfigIssue::FaultOnUnknownHost { host: 9 },
            ConfigIssue::FaultOnUnknownLink { link: 9 },
            ConfigIssue::InvertedFaultWindow {
                resource: "h".into(),
                at: SimTime::from_secs(2),
                recover: SimTime::from_secs(1),
            },
            ConfigIssue::FaultBeyondHorizon {
                resource: "h".into(),
                at: SimTime::from_secs(2),
                horizon: SimTime::from_secs(1),
            },
            ConfigIssue::MemoryOvercommit {
                what: "w".into(),
                needed_mb: 2.0,
                capacity_mb: 1.0,
            },
        ];
        let mut codes: Vec<&str> = issues.iter().map(|i| i.code()).collect();
        let total = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), total, "codes must be unique");
        // And every Display is non-empty prose.
        assert!(issues.iter().all(|i| !i.to_string().is_empty()));
    }
}
