//! [`MetricsSink`]: an [`EventSink`] that folds the trace stream into a
//! [`Registry`] on the fly, plus [`FanoutSink`] so tracing and metrics
//! can watch the same run simultaneously.
//!
//! Because every layer's entry point (metasim exec/fault/net, nws
//! `WeatherService::advance_with_sink`, core decide/actuate/run_stencil
//! and the grid streams) already threads an `EventSink`, attaching a
//! `MetricsSink` instruments the whole stack without touching any of
//! those layers.

use std::collections::{BTreeMap, VecDeque};

use metasim::simtrace::{EventSink, TraceEvent};

use crate::registry::{Histogram, Registry};

/// Folds [`TraceEvent`]s into metrics as they are emitted.
///
/// All metric names carry the `apples_` prefix. Durations go to
/// log-spaced histograms; matched `transfer_start`/`transfer_finish`
/// pairs (FIFO per host pair, which is deterministic because the
/// simulator emits them in simulation order) produce transfer duration
/// observations.
#[derive(Debug)]
pub struct MetricsSink {
    registry: Registry,
    /// Open transfers keyed by (from, to), FIFO of start micros.
    pending_transfers: BTreeMap<(usize, usize), VecDeque<u64>>,
    queue_depth: i64,
    queue_peak: i64,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// A sink with every metric family pre-registered (so `# HELP`
    /// lines appear even for series that never fire).
    pub fn new() -> MetricsSink {
        let mut r = Registry::new();
        let dur = Histogram::log_spaced(1e-3, 1e4, 3);
        let dur = dur.boundaries().to_vec();
        let share: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
        r.describe_counter("apples_events_total", "Trace events observed, by kind.");
        r.describe_counter(
            "apples_jobs_total",
            "Jobs that left the stream, by outcome (completed|failed).",
        );
        r.describe_counter(
            "apples_job_attempts_total",
            "Placement attempts dispatched (first tries and retries).",
        );
        r.describe_counter(
            "apples_job_retries_total",
            "Failed attempts that were scheduled for retry after backoff.",
        );
        r.describe_counter(
            "apples_backfills_total",
            "Queued jobs started out of FCFS order by EASY backfilling.",
        );
        r.describe_gauge(
            "apples_queue_depth",
            "Jobs submitted or awaiting retry but not yet dispatched.",
        );
        r.describe_gauge(
            "apples_queue_depth_peak",
            "High-water mark of apples_queue_depth over the run.",
        );
        r.describe_histogram(
            "apples_compute_seconds",
            "Per-worker compute wall-clock (load and paging slowdown included).",
            &dur,
        );
        r.describe_counter(
            "apples_compute_work_mflop_total",
            "Total work dispatched to workers, Mflop.",
        );
        r.describe_counter("apples_transfer_mb_total", "Payload delivered, MB.");
        r.describe_histogram(
            "apples_transfer_seconds",
            "Transfer admission-to-delivery wall-clock.",
            &dur,
        );
        r.describe_histogram(
            "apples_transfer_contention_share",
            "Achieved over nominal bottleneck bandwidth (1 = link to itself).",
            &share,
        );
        r.describe_histogram(
            "apples_forecast_abs_error",
            "Absolute error of each issued forecast against the observation.",
            Histogram::log_spaced(1e-4, 10.0, 3).boundaries(),
        );
        r.describe_counter(
            "apples_faults_injected_total",
            "Faults injected into the topology, by target (host|link).",
        );
        r.describe_counter(
            "apples_placements_revoked_total",
            "Running placements revoked by host death.",
        );
        r.describe_counter(
            "apples_load_impositions_total",
            "Background-load windows imposed on hosts by dispatched jobs.",
        );
        r.describe_histogram(
            "apples_selection_candidates",
            "Candidate resource sets per selection.",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        );
        r.describe_counter(
            "apples_reschedule_decisions_total",
            "Phase-boundary reschedule decisions, by migrated (true|false).",
        );
        r.describe_histogram(
            "apples_job_exec_seconds",
            "Job admission-to-completion wall-clock.",
            &dur,
        );
        r.describe_counter(
            "apples_actuations_total",
            "Schedules actuated on the testbed.",
        );
        r.describe_counter(
            "apples_host_busy_seconds_total",
            "Cumulative compute seconds, by host.",
        );
        r.describe_gauge(
            "apples_sim_last_event_seconds",
            "Simulation timestamp of the most recent event.",
        );
        MetricsSink {
            registry: r,
            pending_transfers: BTreeMap::new(),
            queue_depth: 0,
            queue_peak: 0,
        }
    }

    /// Read access to the accumulated metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Consume the sink, keeping the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    fn set_queue_depth(&mut self, delta: i64) {
        self.queue_depth = (self.queue_depth + delta).max(0);
        self.queue_peak = self.queue_peak.max(self.queue_depth);
        self.registry
            .set("apples_queue_depth", &[], self.queue_depth as f64);
        self.registry
            .set("apples_queue_depth_peak", &[], self.queue_peak as f64);
    }
}

impl EventSink for MetricsSink {
    fn record(&mut self, event: TraceEvent) {
        let r = &mut self.registry;
        r.inc("apples_events_total", &[("kind", event.kind())], 1.0);
        r.set(
            "apples_sim_last_event_seconds",
            &[],
            event.at().as_secs_f64(),
        );
        match &event {
            TraceEvent::ComputeStart { work_mflop, .. } => {
                r.inc("apples_compute_work_mflop_total", &[], *work_mflop);
            }
            TraceEvent::ComputeFinish {
                host,
                elapsed_seconds,
                ..
            } => {
                r.observe("apples_compute_seconds", &[], *elapsed_seconds);
                let h = host.0.to_string();
                r.inc(
                    "apples_host_busy_seconds_total",
                    &[("host", &h)],
                    *elapsed_seconds,
                );
            }
            TraceEvent::TransferStart { from, to, at, .. } => {
                self.pending_transfers
                    .entry((from.0, to.0))
                    .or_default()
                    .push_back(at.0);
            }
            TraceEvent::TransferFinish {
                from,
                to,
                at,
                mb,
                contention_share,
            } => {
                r.inc("apples_transfer_mb_total", &[], *mb);
                r.observe("apples_transfer_contention_share", &[], *contention_share);
                if let Some(q) = self.pending_transfers.get_mut(&(from.0, to.0)) {
                    if let Some(started) = q.pop_front() {
                        let secs = at.saturating_sub(metasim::SimTime(started)).as_secs_f64();
                        self.registry.observe("apples_transfer_seconds", &[], secs);
                    }
                }
            }
            TraceEvent::HostFaultInjected { .. } => {
                r.inc("apples_faults_injected_total", &[("target", "host")], 1.0);
            }
            TraceEvent::LinkFaultInjected { .. } => {
                r.inc("apples_faults_injected_total", &[("target", "link")], 1.0);
            }
            TraceEvent::PlacementRevoked { .. } => {
                r.inc("apples_placements_revoked_total", &[], 1.0);
            }
            TraceEvent::LoadImposed { .. } => {
                r.inc("apples_load_impositions_total", &[], 1.0);
            }
            TraceEvent::ForecastIssued {
                predicted,
                observed,
                ..
            } => {
                r.observe(
                    "apples_forecast_abs_error",
                    &[],
                    (predicted - observed).abs(),
                );
            }
            TraceEvent::ResourceSelection { candidates, .. } => {
                r.observe("apples_selection_candidates", &[], *candidates as f64);
            }
            TraceEvent::RescheduleDecision { migrated, .. } => {
                let m = if *migrated { "true" } else { "false" };
                r.inc("apples_reschedule_decisions_total", &[("migrated", m)], 1.0);
            }
            TraceEvent::Actuated { .. } => {
                r.inc("apples_actuations_total", &[], 1.0);
            }
            TraceEvent::JobSubmitted { .. } => {
                self.set_queue_depth(1);
            }
            TraceEvent::JobDispatched { .. } => {
                self.registry.inc("apples_job_attempts_total", &[], 1.0);
                self.set_queue_depth(-1);
            }
            TraceEvent::JobRetried { .. } => {
                self.registry.inc("apples_job_retries_total", &[], 1.0);
                self.set_queue_depth(1);
            }
            // Queue depth is unchanged here: the matching
            // JobDispatched event carries the dequeue.
            TraceEvent::JobBackfilled { .. } => {
                r.inc("apples_backfills_total", &[], 1.0);
            }
            TraceEvent::JobCompleted { exec_seconds, .. } => {
                r.observe("apples_job_exec_seconds", &[], *exec_seconds);
                r.inc("apples_jobs_total", &[("outcome", "completed")], 1.0);
            }
            TraceEvent::JobFailed { .. } => {
                r.inc("apples_jobs_total", &[("outcome", "failed")], 1.0);
            }
            TraceEvent::CandidateConsidered { .. }
            | TraceEvent::ScheduleChosen { .. }
            | TraceEvent::RescheduleTriggered { .. }
            | TraceEvent::JobWorkMeasured { .. } => {}
        }
    }
}

/// Broadcasts each event to several sinks, so a run can stream JSONL
/// *and* accumulate metrics in one pass.
///
/// `enabled()` is true when any child is enabled; disabled children are
/// skipped per event. The event is cloned for all children but the
/// last.
#[derive(Default)]
pub struct FanoutSink<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> FanoutSink<'a> {
    /// An empty fan-out (disabled until a child is added).
    pub fn new() -> FanoutSink<'a> {
        FanoutSink { sinks: Vec::new() }
    }

    /// Add a child sink.
    pub fn push(&mut self, sink: &'a mut dyn EventSink) {
        self.sinks.push(sink);
    }
}

impl EventSink for FanoutSink<'_> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&mut self, event: TraceEvent) {
        let last_enabled = self.sinks.iter().rposition(|s| s.enabled());
        let Some(last) = last_enabled else { return };
        for (i, sink) in self.sinks.iter_mut().enumerate() {
            if !sink.enabled() {
                continue;
            }
            if i == last {
                sink.record(event);
                return;
            }
            sink.record(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim::simtrace::VecSink;
    use metasim::{HostId, SimTime};

    fn ev_stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi".into(),
                at: SimTime::ZERO,
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: SimTime::from_secs_f64(1.0),
                attempt: 1,
            },
            TraceEvent::ComputeStart {
                host: HostId(2),
                at: SimTime::from_secs_f64(1.0),
                work_mflop: 100.0,
            },
            TraceEvent::TransferStart {
                from: HostId(2),
                to: HostId(3),
                at: SimTime::from_secs_f64(1.0),
                mb: 8.0,
            },
            TraceEvent::TransferFinish {
                from: HostId(2),
                to: HostId(3),
                at: SimTime::from_secs_f64(3.0),
                mb: 8.0,
                contention_share: 0.5,
            },
            TraceEvent::ComputeFinish {
                host: HostId(2),
                at: SimTime::from_secs_f64(5.0),
                elapsed_seconds: 4.0,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: SimTime::from_secs_f64(5.0),
                exec_seconds: 4.0,
            },
        ]
    }

    #[test]
    fn metrics_sink_folds_events() {
        let mut sink = MetricsSink::new();
        for e in ev_stream() {
            sink.record(e);
        }
        let r = sink.registry();
        assert_eq!(
            r.counter_value("apples_events_total", &[("kind", "job_submitted")]),
            Some(1.0)
        );
        assert_eq!(
            r.counter_value("apples_jobs_total", &[("outcome", "completed")]),
            Some(1.0)
        );
        assert_eq!(r.gauge_value("apples_queue_depth", &[]), Some(0.0));
        assert_eq!(r.gauge_value("apples_queue_depth_peak", &[]), Some(1.0));
        assert_eq!(
            r.counter_value("apples_host_busy_seconds_total", &[("host", "2")]),
            Some(4.0)
        );
        // Transfer pairing: 3.0 - 1.0 = 2 s.
        let h = r.histogram("apples_transfer_seconds", &[]).unwrap();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 2.0).abs() < 1e-9);
        assert_eq!(
            r.gauge_value("apples_sim_last_event_seconds", &[]),
            Some(5.0)
        );
    }

    #[test]
    fn metrics_are_deterministic_across_runs() {
        let run = || {
            let mut sink = MetricsSink::new();
            for e in ev_stream() {
                sink.record(e);
            }
            sink.into_registry().expose()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fanout_feeds_all_children() {
        let mut tracing = VecSink::new();
        let mut metrics = MetricsSink::new();
        {
            let mut fan = FanoutSink::new();
            fan.push(&mut tracing);
            fan.push(&mut metrics);
            assert!(fan.enabled());
            for e in ev_stream() {
                fan.record(e);
            }
        }
        assert_eq!(tracing.events.len(), 7);
        assert_eq!(
            metrics
                .registry()
                .counter_value("apples_job_attempts_total", &[]),
            Some(1.0)
        );
    }

    #[test]
    fn empty_fanout_is_disabled() {
        let fan = FanoutSink::new();
        assert!(!fan.enabled());
    }
}
