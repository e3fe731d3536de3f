#![warn(missing_docs)]

//! # obsv — deterministic observability for the AppLeS testbed
//!
//! The AppLeS argument is that a scheduler wins by *seeing* what the
//! testbed is doing; this crate is the seeing apparatus for the
//! reproduction itself. It turns the [`metasim::simtrace`] event
//! stream into the artifacts below. One fold over the events, taking
//! them one at a time, has three views: the metrics registry, the
//! profile and the span trees; the time series is a windowed pass of
//! its own.
//!
//! * a **metrics registry** ([`Registry`]) — counters, gauges and
//!   fixed-boundary histograms with bucket-interpolated p50/p95/p99,
//!   deterministic by construction: no wall-clock, no hash-map
//!   iteration, series in label order. [`MetricsSink`] is the fold
//!   behind a [`metasim::simtrace::EventSink`], so every `_with_sink`
//!   call site in the stack feeds it without modification, and
//!   [`MetricsSink::registry`] reads the registry off the fold (a
//!   registry has no mutation API). [`FanoutSink`] lets JSONL tracing
//!   and metrics watch the same run;
//! * **simprof** ([`Profile`]) — a time-attribution profiler that
//!   folds a trace into per-job/per-host/per-phase buckets
//!   (queue-wait, retry-backoff, compute, border-exchange,
//!   contention-wait) which partition each job's makespan exactly,
//!   rendered as flamegraph folded stacks, an ASCII Gantt/utilization
//!   timeline, or a table;
//! * **exposition** — Prometheus text format via
//!   [`Registry::expose`], with [`Snapshot`] parsing and
//!   [`snapshot_diff`] so CI can gate on "same seed ⇒ same metrics";
//! * **causal span trees** ([`SpanTree`]) — per-job
//!   job → attempt → phase hierarchies with cause edges (retry,
//!   revocation, backfill), whose partition leaves tile each makespan
//!   exactly and reconcile with simprof to 0 µs (a span tree and a
//!   [`Profile`] are views of the one fold), plus per-job
//!   critical paths and a per-trace [`Composition`] summary;
//! * a **time-series engine** ([`TimeSeriesSink`]) — fixed-width or
//!   event-aligned windows over the same stream: per-kind counts,
//!   busy/utilization, queue depth, backlog, imposed load; byte-stable
//!   JSONL.
//!
//! Everything here is read-only with respect to the simulation: a
//! sink that is never attached costs nothing, and attaching one
//! cannot change simulated outcomes.

pub mod expose;
mod fold;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use expose::{snapshot_diff, SeriesDelta, Snapshot};
pub use metasim::simtrace::KINDS;
pub use profile::{ExecShares, HostProfile, JobProfile, Phase, Profile, PHASES};
pub use registry::{percentile, Histogram, Registry};
pub use sink::{FanoutSink, MetricsSink};
pub use span::{Cause, Composition, JobSpanTree, Span, SpanKind, SpanTree};
pub use timeseries::{Row, TimeSeries, TimeSeriesSink, WindowMode};
