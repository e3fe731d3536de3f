//! Host (execution site) model.
//!
//! A host has a nominal compute speed, a physical memory capacity, a
//! sharing policy, and — when time-shared — a background-load process
//! that determines how much of the nominal speed is *available* to the
//! application over time (§3.2 of the paper).
//!
//! Memory matters too: Figure 6 of the paper turns on the observation
//! that a partition which exceeds a host's physical memory "spills" and
//! suffers a dramatic slowdown from paging. We model this with a graded
//! multiplicative penalty on the compute rate once the resident set
//! exceeds physical memory.

use crate::error::SimError;
use crate::load::{LoadModel, StepSeries};
use crate::net::SegmentId;
use crate::time::SimTime;

/// Identifier of a host within a [`crate::net::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// How the host's CPU is shared among applications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingPolicy {
    /// The host is time-shared with other users: the application sees
    /// the availability process realized from the host's load model.
    TimeShared,
    /// The host is space-shared (dedicated once acquired), with a fixed
    /// wait to acquire the allocation. During execution the application
    /// receives the full nominal speed.
    SpaceShared {
        /// Queue wait before a dedicated allocation begins.
        wait: SimTime,
    },
}

/// Static description of a host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Human-readable name, e.g. `"pcl-sparc2"`.
    pub name: String,
    /// Nominal compute speed in Mflop/s.
    pub mflops: f64,
    /// Physical memory available to the application, in MB.
    pub mem_mb: f64,
    /// Sharing policy.
    pub sharing: SharingPolicy,
    /// Paging penalty coefficient `k`: once the resident set `r`
    /// exceeds memory `m`, the compute rate is divided by
    /// `1 + k * (r/m - 1)`. Larger `k` means a steeper cliff.
    pub paging_slowdown: f64,
    /// Network segment the host attaches to.
    pub segment: SegmentId,
    /// Background load model (only consulted when time-shared).
    pub load: LoadModel,
}

impl HostSpec {
    /// Convenience constructor for a time-shared workstation.
    pub fn workstation(
        name: &str,
        mflops: f64,
        mem_mb: f64,
        segment: SegmentId,
        load: LoadModel,
    ) -> Self {
        HostSpec {
            name: name.to_string(),
            mflops,
            mem_mb,
            sharing: SharingPolicy::TimeShared,
            paging_slowdown: 50.0,
            segment,
            load,
        }
    }

    /// Convenience constructor for a dedicated (space-shared) node.
    pub fn dedicated(name: &str, mflops: f64, mem_mb: f64, segment: SegmentId) -> Self {
        HostSpec {
            name: name.to_string(),
            mflops,
            mem_mb,
            sharing: SharingPolicy::SpaceShared {
                wait: SimTime::ZERO,
            },
            paging_slowdown: 50.0,
            segment,
            load: LoadModel::Constant(1.0),
        }
    }

    /// Validate the spec.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.mflops <= 0.0 {
            return Err(SimError::NonPositive {
                what: "host mflops",
                value: self.mflops,
            });
        }
        if self.mem_mb <= 0.0 {
            return Err(SimError::NonPositive {
                what: "host mem_mb",
                value: self.mem_mb,
            });
        }
        if self.paging_slowdown < 0.0 {
            return Err(SimError::NonPositive {
                what: "paging_slowdown",
                value: self.paging_slowdown,
            });
        }
        Ok(())
    }
}

/// A host instantiated in a simulation: its spec plus the realized
/// availability process for the run.
#[derive(Debug, Clone)]
pub struct Host {
    /// Identifier within the topology.
    pub id: HostId,
    /// Static description.
    pub spec: HostSpec,
    avail: StepSeries,
    /// Crash windows `(at, recover)` applied by fault injection;
    /// `None` recovery means the host never comes back. Used to
    /// attribute mid-run placement loss to this host.
    faults: Vec<(SimTime, Option<SimTime>)>,
}

impl Host {
    /// Instantiate a host, realizing its load model with the given seed
    /// up to the cap `horizon` (lazily: see [`LoadModel::realize`]).
    /// Space-shared hosts are fully available during execution
    /// regardless of their load model.
    pub fn instantiate(
        id: HostId,
        spec: HostSpec,
        horizon: SimTime,
        seed: u64,
    ) -> Result<Self, SimError> {
        spec.validate()?;
        let avail = match spec.sharing {
            SharingPolicy::TimeShared => spec.load.realize(horizon, seed),
            SharingPolicy::SpaceShared { .. } => StepSeries::constant(1.0),
        };
        Ok(Host {
            id,
            spec,
            avail,
            faults: Vec::new(),
        })
    }

    /// Record a crash window (see [`crate::fault::apply_faults`], which
    /// also pins the availability to zero over the same window).
    pub fn add_fault_window(&mut self, at: SimTime, recover: Option<SimTime>) {
        self.faults.push((at, recover));
        self.faults.sort_unstable_by_key(|&(at, _)| at);
    }

    /// Crash windows registered on this host, sorted by crash time.
    pub fn fault_windows(&self) -> &[(SimTime, Option<SimTime>)] {
        &self.faults
    }

    /// The realized CPU availability process.
    pub fn availability(&self) -> &StepSeries {
        &self.avail
    }

    /// Override the availability process (used by tests and by replays
    /// that pin all policies to the same realized conditions).
    pub fn set_availability(&mut self, avail: StepSeries) {
        self.avail = avail;
    }

    /// The availability process, for in-place write-back of imposed
    /// load and faults ([`StepSeries::impose`]).
    pub fn availability_mut(&mut self) -> &mut StepSeries {
        &mut self.avail
    }

    /// Startup delay before any work can begin (queue wait for
    /// space-shared hosts; zero for time-shared hosts).
    pub fn startup_wait(&self) -> SimTime {
        match self.spec.sharing {
            SharingPolicy::TimeShared => SimTime::ZERO,
            SharingPolicy::SpaceShared { wait } => wait,
        }
    }

    /// Multiplicative rate factor from memory pressure, in `(0, 1]`.
    ///
    /// `resident_mb <= mem_mb` ⇒ `1.0`; beyond that the rate is divided
    /// by `1 + k * (r/m - 1)`.
    pub fn memory_factor(&self, resident_mb: f64) -> f64 {
        if resident_mb <= self.spec.mem_mb {
            1.0
        } else {
            let over = resident_mb / self.spec.mem_mb - 1.0;
            1.0 / (1.0 + self.spec.paging_slowdown * over)
        }
    }

    /// Time at which `mflop` of work started at `start` completes,
    /// given a resident set of `resident_mb`.
    pub fn compute_finish(
        &self,
        start: SimTime,
        mflop: f64,
        resident_mb: f64,
    ) -> Result<SimTime, SimError> {
        let speed = self.spec.mflops * self.memory_factor(resident_mb);
        self.avail.time_to_complete(start, mflop, speed)
    }

    /// Like [`Host::compute_finish`], but surfaces mid-run host death
    /// as a [`SimError::PlacementLost`] revocation instead of a bare
    /// never-completes error. A placement is lost when
    ///
    /// * a registered crash window opens while the work is in flight
    ///   (even if the host later recovers — a reboot does not restore
    ///   application state), or
    /// * the availability process pins to zero forever before the work
    ///   finishes (a death observed from the load trace rather than an
    ///   injected fault).
    pub fn compute_finish_checked(
        &self,
        start: SimTime,
        mflop: f64,
        resident_mb: f64,
    ) -> Result<SimTime, SimError> {
        match self.compute_finish(start, mflop, resident_mb) {
            Ok(done) => match self.first_fault_within(start, done) {
                Some(at) => Err(SimError::PlacementLost {
                    host: self.id.0,
                    at,
                }),
                None => Ok(done),
            },
            Err(SimError::NeverCompletes { .. }) => Err(SimError::PlacementLost {
                host: self.id.0,
                at: self.dead_from(start).unwrap_or(start).max(start),
            }),
            Err(e) => Err(e),
        }
    }

    /// Earliest moment in `(start, done]` at which a registered crash
    /// window revokes a placement held over that span; `start` itself
    /// when the host is down at placement time.
    pub fn first_fault_within(&self, start: SimTime, done: SimTime) -> Option<SimTime> {
        self.faults
            .iter()
            .filter_map(|&(at, recover)| {
                if at > start && at < done {
                    Some(at)
                } else if at <= start && recover.map(|r| r > start).unwrap_or(true) {
                    Some(start)
                } else {
                    None
                }
            })
            .min()
    }

    /// The time from which this host delivers zero cycles forever, if
    /// its availability process ends pinned at zero at or after `from`.
    pub fn dead_from(&self, from: SimTime) -> Option<SimTime> {
        self.avail.zero_since().map(|t| t.max(from))
    }

    /// Mean availability over a window — what a long-horizon observer
    /// (or the NWS CPU sensor) would report.
    pub fn mean_availability(&self, from: SimTime, to: SimTime) -> f64 {
        self.avail.mean(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> SegmentId {
        SegmentId(0)
    }

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    #[test]
    fn workstation_spec_validates() {
        let spec = HostSpec::workstation("ws", 10.0, 64.0, seg(), LoadModel::Constant(1.0));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut spec = HostSpec::workstation("ws", 10.0, 64.0, seg(), LoadModel::Constant(1.0));
        spec.mflops = 0.0;
        assert!(spec.validate().is_err());
        spec.mflops = 10.0;
        spec.mem_mb = -5.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn dedicated_host_ignores_load_model() {
        let mut spec = HostSpec::dedicated("node", 100.0, 128.0, seg());
        spec.load = LoadModel::Constant(0.1); // would cripple a time-shared host
        let h = Host::instantiate(HostId(0), spec, s(100.0), 0).unwrap();
        assert_eq!(h.availability().value_at(s(50.0)), 1.0);
        let done = h.compute_finish(SimTime::ZERO, 1000.0, 1.0).unwrap();
        assert_eq!(done, s(10.0));
    }

    #[test]
    fn time_shared_host_sees_load() {
        let spec = HostSpec::workstation("ws", 100.0, 128.0, seg(), LoadModel::Constant(0.5));
        let h = Host::instantiate(HostId(0), spec, s(100.0), 0).unwrap();
        // 1000 Mflop at 100 Mflop/s nominal but 50% available ⇒ 20 s.
        let done = h.compute_finish(SimTime::ZERO, 1000.0, 1.0).unwrap();
        assert_eq!(done, s(20.0));
    }

    #[test]
    fn memory_factor_is_one_within_capacity() {
        let spec = HostSpec::dedicated("node", 100.0, 128.0, seg());
        let h = Host::instantiate(HostId(0), spec, s(1.0), 0).unwrap();
        assert_eq!(h.memory_factor(0.0), 1.0);
        assert_eq!(h.memory_factor(128.0), 1.0);
    }

    #[test]
    fn memory_factor_cliff_beyond_capacity() {
        let mut spec = HostSpec::dedicated("node", 100.0, 100.0, seg());
        spec.paging_slowdown = 50.0;
        let h = Host::instantiate(HostId(0), spec, s(1.0), 0).unwrap();
        // 2x overcommit: rate divided by 1 + 50*1 = 51.
        let f = h.memory_factor(200.0);
        assert!((f - 1.0 / 51.0).abs() < 1e-12);
        // Penalty deepens with overcommit.
        assert!(h.memory_factor(300.0) < f);
    }

    #[test]
    fn paging_slows_compute() {
        let spec = HostSpec::dedicated("node", 100.0, 100.0, seg());
        let h = Host::instantiate(HostId(0), spec, s(10_000.0), 0).unwrap();
        let fit = h.compute_finish(SimTime::ZERO, 1000.0, 50.0).unwrap();
        let spill = h.compute_finish(SimTime::ZERO, 1000.0, 200.0).unwrap();
        assert!(spill.as_secs_f64() > 10.0 * fit.as_secs_f64());
    }

    #[test]
    fn startup_wait_only_for_space_shared() {
        let ws = Host::instantiate(
            HostId(0),
            HostSpec::workstation("ws", 10.0, 64.0, seg(), LoadModel::Constant(1.0)),
            s(1.0),
            0,
        )
        .unwrap();
        assert_eq!(ws.startup_wait(), SimTime::ZERO);

        let mut spec = HostSpec::dedicated("node", 10.0, 64.0, seg());
        spec.sharing = SharingPolicy::SpaceShared { wait: s(3600.0) };
        let sp = Host::instantiate(HostId(1), spec, s(1.0), 0).unwrap();
        assert_eq!(sp.startup_wait(), s(3600.0));
    }

    #[test]
    fn checked_compute_revokes_on_mid_run_crash() {
        use crate::load::Imposition;
        let spec = HostSpec::dedicated("node", 10.0, 64.0, seg());
        let mut h = Host::instantiate(HostId(3), spec, s(1000.0), 0).unwrap();
        // Crash at t = 5 with recovery at t = 50; 100 Mflop at
        // 10 Mflop/s started at t = 0 would be in flight at the crash.
        h.availability_mut()
            .impose(&[Imposition::new(s(5.0), s(50.0), 0.0)]);
        h.add_fault_window(s(5.0), Some(s(50.0)));
        match h.compute_finish_checked(SimTime::ZERO, 100.0, 1.0) {
            Err(SimError::PlacementLost { host, at }) => {
                assert_eq!(host, 3);
                assert_eq!(at, s(5.0));
            }
            other => panic!("expected revocation, got {other:?}"),
        }
        // Work that finishes before the crash is untouched.
        assert_eq!(
            h.compute_finish_checked(SimTime::ZERO, 10.0, 1.0).unwrap(),
            s(1.0)
        );
        // Work placed after recovery is untouched.
        assert_eq!(
            h.compute_finish_checked(s(60.0), 10.0, 1.0).unwrap(),
            s(61.0)
        );
        // Work placed while the host is down is lost immediately.
        match h.compute_finish_checked(s(10.0), 10.0, 1.0) {
            Err(SimError::PlacementLost { at, .. }) => assert_eq!(at, s(10.0)),
            other => panic!("expected revocation, got {other:?}"),
        }
    }

    #[test]
    fn checked_compute_maps_trace_death_to_revocation() {
        // A host whose load trace pins it to zero forever — no fault
        // window registered, but the checked path still attributes it.
        let spec = HostSpec::workstation(
            "dies",
            10.0,
            64.0,
            seg(),
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(100.0), 0.0)]),
        );
        let h = Host::instantiate(HostId(7), spec, s(1000.0), 0).unwrap();
        assert_eq!(h.dead_from(SimTime::ZERO), Some(s(100.0)));
        match h.compute_finish_checked(SimTime::ZERO, 1e6, 1.0) {
            Err(SimError::PlacementLost { host, at }) => {
                assert_eq!(host, 7);
                assert_eq!(at, s(100.0));
            }
            other => panic!("expected revocation, got {other:?}"),
        }
        // A healthy host is never reported dead.
        let ok = Host::instantiate(
            HostId(8),
            HostSpec::dedicated("fine", 10.0, 64.0, seg()),
            s(10.0),
            0,
        )
        .unwrap();
        assert_eq!(ok.dead_from(SimTime::ZERO), None);
    }

    #[test]
    fn mean_availability_reported() {
        let spec = HostSpec::workstation(
            "ws",
            10.0,
            64.0,
            seg(),
            LoadModel::Periodic {
                high: 1.0,
                low: 0.0,
                half_period: s(10.0),
                phase: SimTime::ZERO,
            },
        );
        let h = Host::instantiate(HostId(0), spec, s(200.0), 0).unwrap();
        let m = h.mean_availability(SimTime::ZERO, s(200.0));
        assert!((m - 0.5).abs() < 1e-9);
    }
}
