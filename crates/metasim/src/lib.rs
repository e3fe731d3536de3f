#![warn(missing_docs)]

//! # metasim — a discrete-event simulator for metacomputing systems
//!
//! `metasim` models the execution environment assumed by the AppLeS paper
//! (Berman & Wolski, HPDC 1996): a collection of *heterogeneous*,
//! *non-dedicated* hosts joined by a *heterogeneous*, *shared* network.
//! It provides:
//!
//! * [`SimTime`] — fixed-point simulated time (microsecond resolution),
//! * [`EventQueue`] (re-exported from the `simcore` crate) — a
//!   deterministic, indexed event queue with stable ids and O(log n)
//!   cancel/reschedule,
//! * [`load`] — stochastic background-load generators producing
//!   piecewise-constant *availability* processes for CPUs and links,
//! * [`host`] — host models with CPU speed, memory capacity, sharing
//!   policy and a paging penalty,
//! * [`net`] — network topology (shared segments, routed links) with a
//!   fluid-flow transfer simulator that models bandwidth contention,
//! * [`fault`] — seeded host-crash and link-outage schedules; the
//!   executors turn mid-run host death into a
//!   [`SimError::PlacementLost`] revocation signal,
//! * [`exec`] — executors for the two application shapes the paper
//!   studies: bulk-synchronous iterative SPMD codes (Jacobi2D) and
//!   two-stage pipelines (3D-REACT),
//! * [`testbed`] — canonical system configurations, including the
//!   SDSC/PCL testbed of Figure 2.
//!
//! Everything is deterministic given a seed: identical inputs produce
//! identical simulated timings, which the test-suite relies on.
//!
//! ## Quick example
//!
//! ```
//! use metasim::{SimTime, load::StepSeries};
//!
//! // A host that is fully available for 10 s, then half-loaded.
//! let avail = StepSeries::from_points(vec![
//!     (SimTime::ZERO, 1.0),
//!     (SimTime::from_secs_f64(10.0), 0.5),
//! ]);
//! // 100 Mflop of work at 10 Mflop/s nominal: 10 s at full speed.
//! let done = avail.time_to_complete(SimTime::ZERO, 100.0, 10.0).unwrap();
//! assert_eq!(done, SimTime::from_secs_f64(10.0));
//! ```

pub mod error;
pub mod exec;
pub mod fault;
pub mod host;
pub mod load;
pub mod net;
pub mod simtrace;
pub mod testbed;
pub mod time;
pub mod topogen;
pub mod trace;
pub mod tracefile;
pub mod validate;

pub use error::SimError;
pub use fault::{apply_faults, FaultModel, FaultSpec, HostFault, LinkFault};
pub use host::{Host, HostId, HostSpec, SharingPolicy};
pub use net::{LinkId, LinkSpec, RouteTable, SegmentId, Topology};
pub use simcore::{DirtySet, EventId, EventQueue};
pub use simtrace::{EventSink, NoopSink, TraceEvent, TraceSummary, VecSink, WriterSink};
pub use time::SimTime;
pub use topogen::{generate, TopoGenConfig, TopoSpec};
pub use validate::{validate_faults, validate_topology, ConfigIssue, ValidationReport};
