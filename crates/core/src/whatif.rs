//! Application-centric capacity planning.
//!
//! §1.2 frames the metacomputer as an evolving pool: "As new technology
//! is added to the resource pool, the performance of existing
//! applications should be enhanced." The application-centric question
//! is then: *which* upgrade enhances **my** application most? Doubling
//! the fastest host, adding memory to the one that pages, or fattening
//! the link the borders cross?
//!
//! [`evaluate`] answers it the AppLeS way: apply each hypothetical
//! upgrade to a copy of the system, let the agent re-plan (an upgrade
//! changes the best schedule, not just the old schedule's speed), and
//! actuate both plans under the *same* realized contention. Background
//! load is untouched — faster silicon does not calm the other users.

use crate::actuator::actuate;
use crate::coordinator::Coordinator;
use crate::error::ApplesError;
use crate::hat::Hat;
use crate::info::InfoPool;
use crate::user::UserSpec;
use metasim::{HostId, LinkId, NoopSink, SimTime, Topology};
use nws::WeatherService;

/// A hypothetical hardware change.
#[derive(Debug, Clone, PartialEq)]
pub enum Upgrade {
    /// Multiply a host's nominal speed.
    HostSpeed {
        /// The host to upgrade.
        host: HostId,
        /// Speed multiplier (> 1 is an upgrade).
        factor: f64,
    },
    /// Multiply a host's physical memory.
    HostMemory {
        /// The host to upgrade.
        host: HostId,
        /// Memory multiplier.
        factor: f64,
    },
    /// Multiply a link's capacity.
    LinkBandwidth {
        /// The link to upgrade.
        link: LinkId,
        /// Bandwidth multiplier.
        factor: f64,
    },
}

impl Upgrade {
    /// Human-readable description against a topology.
    pub fn describe(&self, topo: &Topology) -> String {
        match self {
            Upgrade::HostSpeed { host, factor } => format!(
                "{} CPU x{factor}",
                topo.host(*host)
                    .map(|h| h.spec.name.clone())
                    .unwrap_or_default()
            ),
            Upgrade::HostMemory { host, factor } => format!(
                "{} memory x{factor}",
                topo.host(*host)
                    .map(|h| h.spec.name.clone())
                    .unwrap_or_default()
            ),
            Upgrade::LinkBandwidth { link, factor } => format!(
                "{} bandwidth x{factor}",
                topo.link(*link)
                    .map(|l| l.spec.name.clone())
                    .unwrap_or_default()
            ),
        }
    }

    fn apply(&self, topo: &mut Topology) -> Result<(), ApplesError> {
        match self {
            Upgrade::HostSpeed { host, factor } => {
                topo.host_mut(*host)?.spec.mflops *= factor;
            }
            Upgrade::HostMemory { host, factor } => {
                topo.host_mut(*host)?.spec.mem_mb *= factor;
            }
            Upgrade::LinkBandwidth { link, factor } => {
                topo.link_mut(*link)?.spec.bandwidth_mbps *= factor;
            }
        }
        Ok(())
    }
}

/// One evaluated upgrade.
#[derive(Debug, Clone)]
pub struct WhatIfResult {
    /// The hypothetical change.
    pub upgrade: Upgrade,
    /// Actuated seconds on the upgraded system (re-planned).
    pub upgraded_seconds: f64,
    /// `baseline / upgraded` — how much faster the application gets.
    pub speedup: f64,
}

/// Outcome of a what-if sweep.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// Actuated seconds on the unmodified system.
    pub baseline_seconds: f64,
    /// Every evaluated upgrade, sorted by descending speedup.
    pub results: Vec<WhatIfResult>,
}

/// Evaluate hypothetical upgrades for one application: re-plan and
/// actuate on an upgraded copy of the system, under the same realized
/// background load, and rank by delivered speedup.
pub fn evaluate(
    topo: &Topology,
    weather: &WeatherService,
    hat: &Hat,
    user: &UserSpec,
    now: SimTime,
    upgrades: &[Upgrade],
) -> Result<WhatIfReport, ApplesError> {
    let agent = Coordinator::new(hat.clone(), user.clone());
    let run_on = |t: &Topology| -> Result<f64, ApplesError> {
        let pool = InfoPool::with_nws(t, weather, hat, user, now);
        let decision = agent.decide(&pool)?;
        let report = actuate(t, hat, decision.schedule(), now, &mut NoopSink)?;
        Ok(report.elapsed_seconds)
    };
    let baseline_seconds = run_on(topo)?;
    let mut results = Vec::with_capacity(upgrades.len());
    for upgrade in upgrades {
        let mut upgraded = topo.clone();
        upgrade.apply(&mut upgraded)?;
        let upgraded_seconds = run_on(&upgraded)?;
        results.push(WhatIfResult {
            upgrade: upgrade.clone(),
            upgraded_seconds,
            speedup: baseline_seconds / upgraded_seconds,
        });
    }
    results.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
    Ok(WhatIfReport {
        baseline_seconds,
        results,
    })
}

/// The standard menu: double every host's CPU, double every host's
/// memory, double every link's bandwidth — one upgrade at a time.
pub fn standard_menu(topo: &Topology) -> Vec<Upgrade> {
    let mut menu = Vec::new();
    for h in topo.hosts() {
        menu.push(Upgrade::HostSpeed {
            host: h.id,
            factor: 2.0,
        });
        menu.push(Upgrade::HostMemory {
            host: h.id,
            factor: 2.0,
        });
    }
    for l in topo.links() {
        menu.push(Upgrade::LinkBandwidth {
            link: l.id,
            factor: 2.0,
        });
    }
    menu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use metasim::host::HostSpec;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use nws::WeatherServiceConfig;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn warmed(topo: &Topology) -> WeatherService {
        let mut ws = WeatherService::for_topology(topo, WeatherServiceConfig::default());
        ws.advance(topo, s(600.0));
        ws
    }

    #[test]
    fn cpu_upgrades_rank_by_contribution() {
        // Hosts at 10 and 30 Mflop/s: doubling the fast host adds more
        // aggregate speed, so it must rank first.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 50.0, SimTime::from_micros(100)));
        b.add_host(HostSpec::dedicated("slow", 10.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("fast", 30.0, 4096.0, seg));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let ws = warmed(&topo);
        let hat = jacobi2d_hat(1200, 50);
        let user = UserSpec::default();
        let menu = vec![
            Upgrade::HostSpeed {
                host: HostId(0),
                factor: 2.0,
            },
            Upgrade::HostSpeed {
                host: HostId(1),
                factor: 2.0,
            },
        ];
        let report = evaluate(&topo, &ws, &hat, &user, s(600.0), &menu).unwrap();
        assert!(report.results[0].speedup > report.results[1].speedup);
        match &report.results[0].upgrade {
            Upgrade::HostSpeed { host, .. } => assert_eq!(*host, HostId(1)),
            other => panic!("unexpected winner {other:?}"),
        }
        // Both upgrades genuinely help.
        for r in &report.results {
            assert!(r.speedup > 1.0, "{r:?}");
        }
    }

    #[test]
    fn memory_upgrade_wins_when_the_app_spills() {
        // One fast host whose memory cannot hold the grid: doubling
        // its memory beats doubling an (irrelevant) link.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 50.0, SimTime::from_micros(100)));
        // 1000x1000 doubles need 16 MB; give the host 10 MB.
        b.add_host(HostSpec::dedicated("tight", 50.0, 10.0, seg));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let ws = warmed(&topo);
        let hat = jacobi2d_hat(1000, 20);
        let user = UserSpec::default();
        let menu = vec![
            Upgrade::HostMemory {
                host: HostId(0),
                factor: 2.0,
            },
            Upgrade::LinkBandwidth {
                link: metasim::LinkId(0),
                factor: 2.0,
            },
        ];
        let report = evaluate(&topo, &ws, &hat, &user, s(600.0), &menu).unwrap();
        match &report.results[0].upgrade {
            Upgrade::HostMemory { .. } => {}
            other => panic!("memory should win, got {other:?}"),
        }
        assert!(report.results[0].speedup > 2.0, "{:?}", report.results[0]);
    }

    #[test]
    fn link_upgrade_wins_when_comm_bound() {
        // Fat borders over a thin gateway between two fast hosts.
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated(
            "segA",
            100.0,
            SimTime::from_micros(100),
        ));
        let sb = b.add_segment(LinkSpec::dedicated(
            "segB",
            100.0,
            SimTime::from_micros(100),
        ));
        let gw = b.connect(
            sa,
            sb,
            LinkSpec::dedicated("thin", 0.05, SimTime::from_millis(1)),
        );
        b.add_host(HostSpec::dedicated("a", 50.0, 4096.0, sa));
        b.add_host(HostSpec::dedicated("b", 50.0, 4096.0, sb));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let ws = warmed(&topo);
        let hat = jacobi2d_hat(2000, 20);
        let user = UserSpec::default();
        let menu = vec![
            Upgrade::LinkBandwidth {
                link: gw,
                factor: 4.0,
            },
            Upgrade::HostMemory {
                host: HostId(0),
                factor: 2.0,
            },
        ];
        let report = evaluate(&topo, &ws, &hat, &user, s(600.0), &menu).unwrap();
        match &report.results[0].upgrade {
            Upgrade::LinkBandwidth { .. } => {}
            other => panic!("link should win, got {other:?}"),
        }
    }

    #[test]
    fn standard_menu_covers_every_resource() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 64.0, seg));
        let topo = b.instantiate(s(1.0), 0).unwrap();
        let menu = standard_menu(&topo);
        // 2 hosts x (speed + memory) + 1 link.
        assert_eq!(menu.len(), 5);
    }

    #[test]
    fn describe_names_the_resource() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("backbone", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("atlas", 10.0, 64.0, seg));
        let topo = b.instantiate(s(1.0), 0).unwrap();
        assert!(Upgrade::HostSpeed {
            host: HostId(0),
            factor: 2.0
        }
        .describe(&topo)
        .contains("atlas"));
        assert!(Upgrade::LinkBandwidth {
            link: metasim::LinkId(0),
            factor: 2.0
        }
        .describe(&topo)
        .contains("backbone"));
    }
}
