//! Executors: drive application shapes through the simulated system.
//!
//! The paper studies two application shapes, and each gets an executor:
//!
//! * [`spmd`] — bulk-synchronous iterative data-parallel codes (the
//!   Jacobi2D study of §5): per iteration, every worker computes its
//!   region, exchanges borders with neighbours, and synchronizes.
//! * [`pipeline`] — two-stage task-parallel pipelines (the 3D-REACT
//!   study of §2.2–2.3): a producer task streams units of work across a
//!   link to a consumer task, bounded by a pipeline depth.
//!
//! Executors are the simulator's ground truth; the scheduler's
//! Performance Estimator (in the `apples` crate) predicts what these
//! executors will measure.

pub mod pipeline;
pub mod spmd;
pub mod workqueue;

pub use pipeline::{simulate_pipeline, simulate_single_site, PipelineJob, PipelineOutcome};
pub use spmd::{simulate_spmd, SpmdJob, SpmdOutcome, SpmdPlacement};
pub use workqueue::{simulate_workqueue, WorkQueueJob, WorkQueueOutcome};
