//! [`MetricsSink`]: the crate's trace fold behind an [`EventSink`],
//! whose metrics [`Registry`] is read off the fold, plus [`FanoutSink`]
//! so tracing and metrics can watch the same run simultaneously.
//!
//! Because every layer's entry point (metasim exec/fault/net, nws
//! `WeatherService::advance_with_sink`, core decide/actuate/run_stencil
//! and the grid streams) already threads an `EventSink`, attaching a
//! `MetricsSink` instruments the whole stack without touching any of
//! those layers.

use metasim::simtrace::{EventSink, TraceEvent};

use crate::fold::Fold;
use crate::registry::Registry;

/// The crate's trace fold as an [`EventSink`]: it folds each event as
/// it is emitted, and [`MetricsSink::registry`] reads the metrics off
/// the fold.
///
/// Durations go to log-spaced histograms; matched
/// `transfer_start`/`transfer_finish` pairs (FIFO per host pair, which
/// is deterministic because the simulator emits them in simulation
/// order) produce transfer duration observations.
#[derive(Debug, Default)]
pub struct MetricsSink {
    fold: Fold,
}

impl MetricsSink {
    /// A sink that has seen no events.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// The metrics of the events recorded so far.
    pub fn registry(&self) -> Registry {
        Registry {
            tally: self.fold.tally.clone(),
        }
    }
}

impl EventSink for MetricsSink {
    fn record(&mut self, event: TraceEvent) {
        self.fold.add(&event);
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
            sink.registry().expose()
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
