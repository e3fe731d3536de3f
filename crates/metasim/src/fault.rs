//! First-class fault schedules: host crashes and link outages.
//!
//! The paper's closing argument (Figure 6) is that an application-level
//! scheduler degrades gracefully when a resource becomes unusable.
//! Outright death is the limit case of the "dynamically varying
//! performance capability" (§3) the agents are built to absorb, so the
//! simulator models it with the same machinery as background load: a
//! fault is an [`Imposition`] that pins a resource's availability to
//! zero over a window. What faults add on top of load is *attribution*
//! — a crashed host remembers its fault windows, and the executors turn
//! an overlap between a fault window and in-flight work into a
//! [`SimError::PlacementLost`] revocation signal instead of a bare
//! never-completes error.
//!
//! A [`FaultSpec`] is an explicit, replayable schedule of faults; a
//! [`FaultModel`] draws one from seeded Poisson processes, so fault
//! injection composes with [`crate::testbed::LoadProfile`] without
//! perturbing the load realization (faults are *applied to* an already
//! realized topology).

use crate::error::SimError;
use crate::host::HostId;
use crate::load::{Imposition, StepSeries};
use crate::net::{LinkId, Topology};
use crate::time::SimTime;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One host crash: the host delivers zero cycles from `at` until
/// `recover` (forever when `recover` is `None`). Work in flight on the
/// host when the crash hits is lost even if the host later recovers —
/// a reboot does not restore application state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostFault {
    /// The host that fails.
    pub host: HostId,
    /// Crash time.
    pub at: SimTime,
    /// Recovery time, or `None` for a permanent death.
    pub recover: Option<SimTime>,
}

/// One link outage: the link carries zero bandwidth from `at` until
/// `recover` (forever when `recover` is `None`). Transfers stall
/// through a recoverable outage and resume; a permanent outage makes
/// in-flight transfers report [`SimError::NeverCompletes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// The link that goes dark.
    pub link: LinkId,
    /// Outage start.
    pub at: SimTime,
    /// Recovery time, or `None` for a permanent outage.
    pub recover: Option<SimTime>,
}

/// A complete, replayable fault schedule for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Host crash/recover windows.
    pub host_faults: Vec<HostFault>,
    /// Link outage windows.
    pub link_faults: Vec<LinkFault>,
}

impl FaultSpec {
    /// The empty schedule: no faults.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Whether the schedule contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.host_faults.is_empty() && self.link_faults.is_empty()
    }

    /// Check every fault references a real resource and has a
    /// non-empty window.
    pub fn validate(&self, topo: &Topology) -> Result<(), SimError> {
        for f in &self.host_faults {
            topo.host(f.host)?;
            if let Some(r) = f.recover {
                if r <= f.at {
                    return Err(SimError::Invalid(format!(
                        "host fault on {} recovers at {r} before it starts at {}",
                        f.host, f.at
                    )));
                }
            }
        }
        for f in &self.link_faults {
            topo.link(f.link)?;
            if let Some(r) = f.recover {
                if r <= f.at {
                    return Err(SimError::Invalid(format!(
                        "link fault on l{} recovers at {r} before it starts at {}",
                        f.link.0, f.at
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A seeded generator of fault schedules: independent Poisson crash
/// processes per host and outage processes per link over a window of
/// simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Mean host crashes per host per hour of simulated time.
    pub host_crashes_per_hour: f64,
    /// Mean link outages per link per hour of simulated time.
    pub link_outages_per_hour: f64,
    /// Mean outage length for recoverable faults (exponentially
    /// distributed).
    pub mean_outage: SimTime,
    /// Probability in `[0, 1]` that a host crash is permanent.
    pub permanent_fraction: f64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            host_crashes_per_hour: 0.5,
            link_outages_per_hour: 0.25,
            mean_outage: SimTime::from_secs(600),
            permanent_fraction: 0.25,
        }
    }
}

impl FaultModel {
    /// Validate the model's parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        for (what, v) in [
            ("host_crashes_per_hour", self.host_crashes_per_hour),
            ("link_outages_per_hour", self.link_outages_per_hour),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(SimError::Invalid(format!(
                    "{what} must be finite and non-negative, got {v}"
                )));
            }
        }
        if !(0.0..=1.0).contains(&self.permanent_fraction) {
            return Err(SimError::Invalid(format!(
                "permanent_fraction must be in [0, 1], got {}",
                self.permanent_fraction
            )));
        }
        if self.mean_outage <= SimTime::ZERO {
            return Err(SimError::Invalid(format!(
                "mean_outage must be positive, got {}",
                self.mean_outage
            )));
        }
        Ok(())
    }

    /// Draw a concrete fault schedule over `[from, until)` for the
    /// topology's hosts and links. Deterministic per seed, and
    /// independent of the topology's load realization.
    pub fn realize(
        &self,
        topo: &Topology,
        from: SimTime,
        until: SimTime,
        seed: u64,
    ) -> Result<FaultSpec, SimError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_u64);
        let mut spec = FaultSpec::none();
        let window = until.saturating_sub(from).as_secs_f64();
        if window <= 0.0 {
            return Ok(spec);
        }
        let host_rate_hz = self.host_crashes_per_hour / 3600.0;
        let link_rate_hz = self.link_outages_per_hour / 3600.0;
        for h in topo.hosts() {
            for (at, recover) in self.draw_process(&mut rng, from, until, host_rate_hz) {
                spec.host_faults.push(HostFault {
                    host: h.id,
                    at,
                    recover,
                });
            }
        }
        for (i, _) in topo.links().iter().enumerate() {
            for (at, recover) in self.draw_process(&mut rng, from, until, link_rate_hz) {
                spec.link_faults.push(LinkFault {
                    link: LinkId(i),
                    at,
                    recover,
                });
            }
        }
        Ok(spec)
    }

    /// One resource's Poisson fault arrivals over `[from, until)`.
    fn draw_process(
        &self,
        rng: &mut ChaCha8Rng,
        from: SimTime,
        until: SimTime,
        rate_hz: f64,
    ) -> Vec<(SimTime, Option<SimTime>)> {
        let mut out = Vec::new();
        if rate_hz <= 0.0 {
            return out;
        }
        let mut t = from.as_secs_f64();
        let end = until.as_secs_f64();
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate_hz;
            if t >= end {
                break;
            }
            let at = SimTime::from_secs_f64(t);
            let permanent = rng.gen_range(0.0..1.0) < self.permanent_fraction;
            let recover = if permanent {
                None
            } else {
                let v: f64 = rng.gen_range(f64::EPSILON..1.0);
                let outage = -v.ln() * self.mean_outage.as_secs_f64();
                // An outage that would end past SimTime::MAX never ends.
                at.checked_add(SimTime::from_secs_f64(outage.max(1.0)))
            };
            out.push((at, recover));
            // A permanent death ends the resource's process; further
            // draws would fault a corpse.
            if recover.is_none() {
                break;
            }
        }
        out
    }
}

/// Apply a fault schedule to a realized topology: pin each faulted
/// resource's availability to zero over its windows and record host
/// fault windows for revocation attribution by the executors. Emits one
/// [`crate::simtrace::TraceEvent::HostFaultInjected`] /
/// [`crate::simtrace::TraceEvent::LinkFaultInjected`] per fault window
/// into `sink`.
pub fn apply_faults(
    topo: &mut Topology,
    spec: &FaultSpec,
    sink: &mut dyn crate::simtrace::EventSink,
) -> Result<(), SimError> {
    use crate::simtrace::TraceEvent;
    spec.validate(topo)?;
    for f in &spec.host_faults {
        let h = topo.host_mut(f.host)?;
        cut_fault(h.availability_mut(), f.at, f.recover);
        h.add_fault_window(f.at, f.recover);
        if sink.enabled() {
            sink.record(TraceEvent::HostFaultInjected {
                host: f.host,
                at: f.at,
                recover: f.recover,
            });
        }
    }
    for f in &spec.link_faults {
        let l = topo.link_mut(f.link)?;
        cut_fault(l.availability_mut(), f.at, f.recover);
        if sink.enabled() {
            sink.record(TraceEvent::LinkFaultInjected {
                link: f.link,
                at: f.at,
                recover: f.recover,
            });
        }
    }
    Ok(())
}

/// Cut one fault window out of a resource's availability, in place:
/// zero over `[at, recover)`, and — for a permanent fault — zero
/// forever, truncating whatever the load process would have done
/// afterwards.
fn cut_fault(series: &mut StepSeries, at: SimTime, recover: Option<SimTime>) {
    match recover {
        Some(until) => series.impose(&[Imposition::new(at, until, 0.0)]),
        None => series.zero_from(at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::net::{LinkSpec, TopologyBuilder};
    use crate::simtrace::NoopSink;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo2() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 1024.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 1024.0, seg));
        b.instantiate(s(100_000.0), 0).unwrap()
    }

    #[test]
    fn applied_host_fault_zeroes_availability_in_window() {
        let mut topo = topo2();
        let spec = FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(0),
                at: s(10.0),
                recover: Some(s(20.0)),
            }],
            link_faults: vec![],
        };
        apply_faults(&mut topo, &spec, &mut NoopSink).unwrap();
        let h = topo.host(HostId(0)).unwrap();
        assert_eq!(h.availability().value_at(s(5.0)), 1.0);
        assert_eq!(h.availability().value_at(s(15.0)), 0.0);
        assert_eq!(h.availability().value_at(s(25.0)), 1.0);
        assert_eq!(h.fault_windows(), &[(s(10.0), Some(s(20.0)))]);
    }

    #[test]
    fn permanent_fault_never_recovers() {
        let mut topo = topo2();
        let spec = FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(1),
                at: s(50.0),
                recover: None,
            }],
            link_faults: vec![],
        };
        apply_faults(&mut topo, &spec, &mut NoopSink).unwrap();
        let h = topo.host(HostId(1)).unwrap();
        assert_eq!(h.availability().value_at(s(49.0)), 1.0);
        assert_eq!(h.availability().value_at(s(1e9)), 0.0);
        assert_eq!(h.dead_from(SimTime::ZERO), Some(s(50.0)));
    }

    #[test]
    fn permanent_fault_truncation_matches_a_rebuild() {
        // Oracle: keep the points before the crash, append the zero,
        // and rebuild the whole series.
        fn rebuilt(series: &StepSeries, at: SimTime) -> StepSeries {
            let mut pts: Vec<(SimTime, f64)> = series
                .to_points()
                .into_iter()
                .filter(|&(t, _)| t < at)
                .collect();
            pts.push((at, 0.0));
            StepSeries::from_points(pts)
        }
        let series = StepSeries::from_points(vec![
            (s(0.0), 0.7),
            (s(4.0), f64::EPSILON / 2.0),
            (s(9.0), 0.3),
            (s(15.0), 0.0),
            (s(21.0), 0.9),
        ]);
        // At zero, on a point, just after a point whose value is within
        // `f64::EPSILON` of zero, between points, on a zero point, and
        // past the last point.
        for at in [0.0, 4.0, 5.0, 12.0, 15.0, 21.0, 40.0] {
            let mut cut = series.clone();
            cut_fault(&mut cut, s(at), None);
            let bits = |ss: &StepSeries| -> Vec<(SimTime, u64)> {
                ss.to_points()
                    .iter()
                    .map(|&(t, v)| (t, v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&cut), bits(&rebuilt(&series, s(at))), "crash at {at}");
        }
    }

    #[test]
    fn link_fault_zeroes_capacity_in_window() {
        let mut topo = topo2();
        let spec = FaultSpec {
            host_faults: vec![],
            link_faults: vec![LinkFault {
                link: LinkId(0),
                at: s(5.0),
                recover: Some(s(9.0)),
            }],
        };
        apply_faults(&mut topo, &spec, &mut NoopSink).unwrap();
        let l = topo.link(LinkId(0)).unwrap();
        assert_eq!(l.capacity_at(s(7.0)), 0.0);
        assert!(l.capacity_at(s(10.0)) > 0.0);
    }

    #[test]
    fn invalid_faults_rejected() {
        let mut topo = topo2();
        let unknown = FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(99),
                at: s(1.0),
                recover: None,
            }],
            link_faults: vec![],
        };
        assert!(apply_faults(&mut topo, &unknown, &mut NoopSink).is_err());
        let backwards = FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(0),
                at: s(10.0),
                recover: Some(s(5.0)),
            }],
            link_faults: vec![],
        };
        assert!(apply_faults(&mut topo, &backwards, &mut NoopSink).is_err());
    }

    #[test]
    fn model_realization_is_deterministic_and_scoped() {
        let topo = topo2();
        let model = FaultModel {
            host_crashes_per_hour: 20.0,
            link_outages_per_hour: 10.0,
            mean_outage: s(120.0),
            permanent_fraction: 0.3,
        };
        let a = model.realize(&topo, s(600.0), s(4200.0), 42).unwrap();
        let b = model.realize(&topo, s(600.0), s(4200.0), 42).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "20 crashes/host-hour must draw something");
        for f in &a.host_faults {
            assert!(f.at >= s(600.0) && f.at < s(4200.0));
            if let Some(r) = f.recover {
                assert!(r > f.at);
            }
        }
        let c = model.realize(&topo, s(600.0), s(4200.0), 43).unwrap();
        assert_ne!(a, c, "different seeds should draw different faults");
    }

    #[test]
    fn an_outage_past_the_end_of_time_is_permanent() {
        // A mean outage of SimTime::MAX draws outages that would end
        // past it: each such fault is permanent and ends its resource's
        // process, although no crash is drawn permanent.
        let mut topo = topo2();
        let model = FaultModel {
            host_crashes_per_hour: 60.0,
            link_outages_per_hour: 60.0,
            mean_outage: SimTime::MAX,
            permanent_fraction: 0.0,
        };
        let spec = model.realize(&topo, SimTime::ZERO, s(3600.0), 7).unwrap();
        let hosts = spec.host_faults.iter().map(|f| (f.host.0, f.recover));
        let links = spec.link_faults.iter().map(|f| (f.link.0 + 100, f.recover));
        let faults: Vec<_> = hosts.chain(links).collect();
        assert!(faults.iter().any(|(_, r)| r.is_none()), "{faults:?}");
        for (i, (res, recover)) in faults.iter().enumerate() {
            if recover.is_none() {
                let later = faults.get(i + 1).map(|(next, _)| next);
                assert_ne!(later, Some(res), "a fault after a permanent one");
            }
        }
        apply_faults(&mut topo, &spec, &mut NoopSink).unwrap();
    }

    #[test]
    fn zero_rate_model_draws_nothing() {
        let topo = topo2();
        let model = FaultModel {
            host_crashes_per_hour: 0.0,
            link_outages_per_hour: 0.0,
            ..FaultModel::default()
        };
        let spec = model.realize(&topo, SimTime::ZERO, s(1e6), 1).unwrap();
        assert!(spec.is_empty());
    }

    #[test]
    fn invalid_model_rejected() {
        let bad = FaultModel {
            permanent_fraction: 1.5,
            ..FaultModel::default()
        };
        assert!(bad.validate().is_err());
        let neg = FaultModel {
            host_crashes_per_hour: -1.0,
            ..FaultModel::default()
        };
        assert!(neg.validate().is_err());
    }
}
