//! Host-time attribution from outside the stack.
//!
//! [`HostClock`] is a bench-side [`EventSink`]. Every layer of the
//! stack emits its trace events from straight-line code right after
//! doing the work the event reports, so the wall-clock gap *before* an
//! event is, to a good approximation, time spent in the layer that
//! emitted it. The clock charges each gap to that layer, keeps counts
//! at the same boundaries, and records host-time spans (run → job →
//! attempt → operation) in a [`SpanLog`].

use std::collections::BTreeMap;
use std::time::Instant;

use metasim::simtrace::{EventSink, TraceEvent};

use crate::report::{quantile, ratio, Outcome};
use crate::spans::SpanLog;

/// A layer of the stack, named after the module that does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A grid run's set-up before its first event: topology build and
    /// fault realization.
    Setup,
    /// NWS sensor polling and forecasting (`nws::service`).
    Nws,
    /// Candidate generation and the final choice (`core::selector`,
    /// `core::coordinator`).
    Selector,
    /// Planning and estimating one candidate (`core::planner`,
    /// `core::estimator`).
    PlannerEstimator,
    /// Actuation and the executors it drives (`core::actuator`,
    /// `metasim::exec`, `metasim::net`).
    Exec,
    /// Phase-boundary re-planning (`core::rescheduler`).
    Rescheduler,
    /// Fault injection and revocation (`metasim::fault`).
    Fault,
    /// Writing a finished job's load back into the topology
    /// (`grid::service`, `grid::sched`).
    Impose,
    /// The stream loop's own work: admission, retry, records
    /// (`grid::service`, `grid::sched`).
    Stream,
    /// Bench-side observability sinks fed during the run (`obsv`).
    Obsv,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Setup,
        Layer::Nws,
        Layer::Selector,
        Layer::PlannerEstimator,
        Layer::Exec,
        Layer::Rescheduler,
        Layer::Fault,
        Layer::Impose,
        Layer::Stream,
        Layer::Obsv,
    ];

    /// The per-layer metric holding the layer's host seconds; the obsv
    /// layer is reported per sink instead.
    pub fn metric(self) -> Option<&'static str> {
        Some(match self {
            Layer::Setup => "grid.setup.s",
            Layer::Nws => "nws.s",
            Layer::Selector => "core.selector.s",
            Layer::PlannerEstimator => "core.planner_estimator.s",
            Layer::Exec => "metasim.exec.s",
            Layer::Rescheduler => "core.rescheduler.s",
            Layer::Fault => "metasim.fault.s",
            Layer::Impose => "grid.impose.s",
            Layer::Stream => "grid.stream.s",
            Layer::Obsv => return None,
        })
    }

    fn index(self) -> usize {
        self as usize
    }

    /// The span an uninterrupted run of this layer's gaps forms, as
    /// `(span name, span layer)`; `None` for the stream loop, whose time is
    /// the self time of the job and attempt spans.
    fn op(self) -> Option<(&'static str, &'static str)> {
        match self {
            Layer::Setup => Some(("setup", "grid.setup")),
            Layer::Nws => Some(("forecast", "nws")),
            Layer::Selector | Layer::PlannerEstimator => Some(("decide", "core.coordinator")),
            Layer::Exec => Some(("actuate", "metasim.exec")),
            Layer::Rescheduler => Some(("reschedule", "core.rescheduler")),
            Layer::Fault => Some(("fault", "metasim.fault")),
            Layer::Impose => Some(("impose", "grid.impose")),
            Layer::Stream | Layer::Obsv => None,
        }
    }
}

/// The layer that emits `event`.
///
/// The match lists all 22 variants and has no wildcard arm, so a new
/// [`TraceEvent`] variant fails to compile here until it is given a
/// layer.
pub fn layer_of(event: &TraceEvent) -> Layer {
    match event {
        TraceEvent::ForecastIssued { .. } => Layer::Nws,
        TraceEvent::ResourceSelection { .. } | TraceEvent::ScheduleChosen { .. } => Layer::Selector,
        TraceEvent::CandidateConsidered { .. } => Layer::PlannerEstimator,
        TraceEvent::ComputeStart { .. }
        | TraceEvent::ComputeFinish { .. }
        | TraceEvent::TransferStart { .. }
        | TraceEvent::TransferFinish { .. }
        | TraceEvent::Actuated { .. } => Layer::Exec,
        TraceEvent::RescheduleTriggered { .. } | TraceEvent::RescheduleDecision { .. } => {
            Layer::Rescheduler
        }
        TraceEvent::HostFaultInjected { .. }
        | TraceEvent::LinkFaultInjected { .. }
        | TraceEvent::PlacementRevoked { .. } => Layer::Fault,
        TraceEvent::LoadImposed { .. } => Layer::Impose,
        TraceEvent::JobSubmitted { .. }
        | TraceEvent::JobDispatched { .. }
        | TraceEvent::JobRetried { .. }
        | TraceEvent::JobBackfilled { .. }
        | TraceEvent::JobWorkMeasured { .. }
        | TraceEvent::JobCompleted { .. }
        | TraceEvent::JobFailed { .. } => Layer::Stream,
    }
}

/// Work counted at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// `ForecastIssued`.
    pub forecasts: u64,
    /// `ResourceSelection`: decisions started.
    pub decisions: u64,
    /// Candidate sets enumerated, summed over `ResourceSelection`.
    pub candidates: u64,
    /// `Compute*`, `Transfer*` and `Actuated`.
    pub exec_events: u64,
    /// `RescheduleTriggered`.
    pub triggers: u64,
    /// `RescheduleDecision` that migrated.
    pub migrations: u64,
    /// `HostFaultInjected` and `LinkFaultInjected`.
    pub faults: u64,
    /// `PlacementRevoked`.
    pub revocations: u64,
    /// `LoadImposed`.
    pub impositions: u64,
    /// `JobDispatched`: placement attempts.
    pub attempts: u64,
    /// `JobRetried`.
    pub retries: u64,
    /// `JobCompleted`.
    pub completed: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.forecasts += o.forecasts;
        self.decisions += o.decisions;
        self.candidates += o.candidates;
        self.exec_events += o.exec_events;
        self.triggers += o.triggers;
        self.migrations += o.migrations;
        self.faults += o.faults;
        self.revocations += o.revocations;
        self.impositions += o.impositions;
        self.attempts += o.attempts;
        self.retries += o.retries;
        self.completed += o.completed;
    }

    fn count(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::ForecastIssued { .. } => self.forecasts += 1,
            TraceEvent::ResourceSelection { candidates, .. } => {
                self.decisions += 1;
                self.candidates += *candidates as u64;
            }
            TraceEvent::ComputeStart { .. }
            | TraceEvent::ComputeFinish { .. }
            | TraceEvent::TransferStart { .. }
            | TraceEvent::TransferFinish { .. }
            | TraceEvent::Actuated { .. } => self.exec_events += 1,
            TraceEvent::RescheduleTriggered { .. } => self.triggers += 1,
            TraceEvent::RescheduleDecision { migrated, .. } => {
                self.migrations += u64::from(*migrated);
            }
            TraceEvent::HostFaultInjected { .. } | TraceEvent::LinkFaultInjected { .. } => {
                self.faults += 1;
            }
            TraceEvent::PlacementRevoked { .. } => self.revocations += 1,
            TraceEvent::LoadImposed { .. } => self.impositions += 1,
            TraceEvent::JobDispatched { .. } => self.attempts += 1,
            TraceEvent::JobRetried { .. } => self.retries += 1,
            TraceEvent::JobCompleted { .. } => self.completed += 1,
            _ => {}
        }
    }
}

/// What a finished [`HostClock`] measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClockReport {
    /// Host seconds per layer, indexed like [`Layer::ALL`].
    pub secs: [f64; Layer::ALL.len()],
    /// Boundary counts.
    pub counts: Counts,
    /// Host milliseconds per completed decision, from the start of the
    /// gap before `ResourceSelection` to `ScheduleChosen`.
    pub decide_ms: Vec<f64>,
}

impl ClockReport {
    /// Host seconds charged to `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.secs[layer.index()]
    }

    /// Every layer's seconds summed.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Fold another report into this one.
    pub fn add(&mut self, o: &ClockReport) {
        for (a, b) in self.secs.iter_mut().zip(&o.secs) {
            *a += b;
        }
        self.counts.add(&o.counts);
        self.decide_ms.extend_from_slice(&o.decide_ms);
    }

    /// Set every per-layer metric the clock measures.
    pub fn set_metrics(&self, out: &mut Outcome) {
        let c = &self.counts;
        for layer in Layer::ALL {
            if let Some(name) = layer.metric() {
                out.set(name, self.secs(layer));
            }
        }
        out.set("nws.forecasts", c.forecasts as f64);
        out.set("core.decisions", c.decisions as f64);
        out.set("core.candidates", c.candidates as f64);
        out.set(
            "core.candidates_per_decision",
            ratio(c.candidates as f64, c.decisions as f64),
        );
        out.set(
            "core.planner_estimator.us_per_candidate",
            ratio(
                self.secs(Layer::PlannerEstimator) * 1e6,
                c.candidates as f64,
            ),
        );
        out.set("core.decide_ms_p50", quantile(&self.decide_ms, 0.5));
        out.set("core.decide_ms_p90", quantile(&self.decide_ms, 0.9));
        out.set("metasim.exec.events", c.exec_events as f64);
        out.set("core.rescheduler.triggers", c.triggers as f64);
        out.set("core.rescheduler.migrations", c.migrations as f64);
        out.set("metasim.fault.injected", c.faults as f64);
        out.set("metasim.fault.revocations", c.revocations as f64);
        out.set("grid.impose.count", c.impositions as f64);
        out.set("grid.attempts", c.attempts as f64);
        out.set("grid.retries", c.retries as f64);
        out.set(
            "grid.attempt_yield",
            ratio(c.completed as f64, c.attempts as f64),
        );
    }
}

/// Open spans of one job.
#[derive(Debug, Default)]
struct JobSpans {
    job: Option<usize>,
    attempt: Option<usize>,
}

/// Charges the host time before each event to the emitting layer.
///
/// Events are forwarded to `inner` (the sinks the traced code would
/// feed anyway); the time `inner` takes is charged to [`Layer::Obsv`].
pub struct HostClock<'a> {
    inner: &'a mut dyn EventSink,
    spans: &'a mut SpanLog,
    lead: Option<Layer>,
    last: Instant,
    report: ClockReport,
    decision_start: Option<Instant>,
    run: usize,
    jobs: BTreeMap<usize, JobSpans>,
    context: Option<usize>,
    op: Option<(&'static str, usize)>,
}

impl<'a> HostClock<'a> {
    /// Start the clock for one run, recording spans under a new root
    /// span named `label`. `lead`, when set, is charged with the gap
    /// before the first event instead of that event's layer.
    pub fn new(
        inner: &'a mut dyn EventSink,
        spans: &'a mut SpanLog,
        label: &'static str,
        lead: Option<Layer>,
    ) -> HostClock<'a> {
        let now = Instant::now();
        let run = spans.open(None, None, label, "grid.stream", now);
        HostClock {
            inner,
            spans,
            lead,
            last: now,
            report: ClockReport::default(),
            decision_start: None,
            run,
            jobs: BTreeMap::new(),
            context: None,
            op: None,
        }
    }

    /// Stop the clock: the gap after the last event is charged to
    /// `tail`, and every open span is closed.
    pub fn finish(mut self, tail: Layer) -> ClockReport {
        let now = Instant::now();
        self.report.secs[tail.index()] += (now - self.last).as_secs_f64();
        for js in self.jobs.values() {
            for id in [js.attempt, js.job].into_iter().flatten() {
                self.spans.close(id, now);
            }
        }
        self.spans.close(self.run, now);
        self.report
    }

    fn parent(&self) -> usize {
        self.context
            .and_then(|j| self.jobs.get(&j))
            .and_then(|js| js.attempt.or(js.job))
            .unwrap_or(self.run)
    }

    /// Update the job and attempt spans for a lifecycle event at `now`.
    fn lifecycle(&mut self, event: &TraceEvent, now: Instant) {
        let job = match *event {
            TraceEvent::JobSubmitted { job, .. }
            | TraceEvent::JobDispatched { job, .. }
            | TraceEvent::JobRetried { job, .. }
            | TraceEvent::JobBackfilled { job, .. }
            | TraceEvent::JobWorkMeasured { job, .. }
            | TraceEvent::JobCompleted { job, .. }
            | TraceEvent::JobFailed { job, .. } => job,
            _ => return,
        };
        self.context = Some(job);
        let run = self.run;
        let js = self.jobs.entry(job).or_default();
        let close_attempt = matches!(
            event,
            TraceEvent::JobDispatched { .. }
                | TraceEvent::JobRetried { .. }
                | TraceEvent::JobCompleted { .. }
                | TraceEvent::JobFailed { .. }
        );
        if close_attempt {
            if let Some(id) = js.attempt.take() {
                self.spans.close(id, now);
            }
        }
        match event {
            TraceEvent::JobSubmitted { .. } if js.job.is_none() => {
                js.job = Some(
                    self.spans
                        .open(Some(run), Some(job), "job", "grid.stream", now),
                );
            }
            TraceEvent::JobDispatched { .. } => {
                let parent = *js.job.get_or_insert_with(|| {
                    self.spans
                        .open(Some(run), Some(job), "job", "grid.stream", now)
                });
                js.attempt =
                    Some(
                        self.spans
                            .open(Some(parent), Some(job), "attempt", "grid.stream", now),
                    );
            }
            TraceEvent::JobCompleted { .. } | TraceEvent::JobFailed { .. } => {
                if let Some(id) = js.job.take() {
                    self.spans.close(id, now);
                }
            }
            _ => {}
        }
    }
}

impl EventSink for HostClock<'_> {
    fn record(&mut self, event: TraceEvent) {
        let now = Instant::now();
        let own = layer_of(&event);
        let layer = self.lead.take().unwrap_or(own);
        self.report.secs[layer.index()] += (now - self.last).as_secs_f64();
        self.report.counts.count(&event);
        match event {
            TraceEvent::ResourceSelection { .. } => self.decision_start = Some(self.last),
            TraceEvent::ScheduleChosen { .. } => {
                if let Some(start) = self.decision_start.take() {
                    self.report
                        .decide_ms
                        .push((now - start).as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }

        // Consecutive gaps of one operation extend a single span.
        match (layer.op(), self.op) {
            (Some((name, _)), Some((open, id))) if open == name => self.spans.close(id, now),
            (Some((name, span_layer)), _) => {
                let parent = self.parent();
                let job = self.context.filter(|_| parent != self.run);
                let id = self
                    .spans
                    .open(Some(parent), job, name, span_layer, self.last);
                self.spans.close(id, now);
                self.op = Some((name, id));
            }
            (None, _) => self.op = None,
        }
        if own == Layer::Stream {
            self.op = None;
            self.lifecycle(&event, now);
        }

        if self.inner.enabled() {
            self.inner.record(event);
        }
        let after = Instant::now();
        self.report.secs[Layer::Obsv.index()] += (after - now).as_secs_f64();
        self.last = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim::simtrace::NoopSink;
    use metasim::{HostId, LinkId, SimTime};

    /// One event of every kind.
    fn one_of_each() -> Vec<TraceEvent> {
        let at = SimTime::from_secs(1);
        let host = HostId(0);
        vec![
            TraceEvent::ComputeStart {
                host,
                at,
                work_mflop: 1.0,
            },
            TraceEvent::ComputeFinish {
                host,
                at,
                elapsed_seconds: 1.0,
            },
            TraceEvent::TransferStart {
                from: host,
                to: HostId(1),
                at,
                mb: 1.0,
            },
            TraceEvent::TransferFinish {
                from: host,
                to: HostId(1),
                at,
                mb: 1.0,
                contention_share: 1.0,
            },
            TraceEvent::HostFaultInjected {
                host,
                at,
                recover: None,
            },
            TraceEvent::LinkFaultInjected {
                link: LinkId(0),
                at,
                recover: None,
            },
            TraceEvent::PlacementRevoked { host, at },
            TraceEvent::LoadImposed {
                host,
                at,
                until: at,
                factor: 0.5,
            },
            TraceEvent::ForecastIssued {
                resource: "cpu:0".into(),
                at,
                predicted: 1.0,
                observed: 1.0,
                error: 0.0,
                method: "mean".into(),
            },
            TraceEvent::ResourceSelection { at, candidates: 3 },
            TraceEvent::CandidateConsidered {
                at,
                index: 0,
                hosts: 1,
                predicted_seconds: 1.0,
                objective: 1.0,
            },
            TraceEvent::ScheduleChosen {
                at,
                index: 0,
                predicted_seconds: 1.0,
            },
            TraceEvent::Actuated {
                at,
                finish: at,
                elapsed_seconds: 1.0,
            },
            TraceEvent::RescheduleTriggered { at, phase: 0 },
            TraceEvent::RescheduleDecision {
                at,
                keep_seconds: 1.0,
                move_seconds: 1.0,
                move_cost_seconds: 0.0,
                migrated: true,
            },
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi2d".into(),
                at,
            },
            TraceEvent::JobDispatched {
                job: 0,
                at,
                attempt: 1,
            },
            TraceEvent::JobRetried {
                job: 0,
                at,
                attempt: 1,
            },
            TraceEvent::JobBackfilled {
                job: 0,
                at,
                reservation: at,
            },
            TraceEvent::JobWorkMeasured {
                job: 0,
                at,
                dedicated_seconds: 1.0,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at,
                exec_seconds: 1.0,
            },
            TraceEvent::JobFailed {
                job: 0,
                at,
                attempts: 2,
            },
        ]
    }

    #[test]
    fn every_event_kind_maps_to_a_layer() {
        let events = one_of_each();
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        let mut expected = obsv::KINDS.to_vec();
        expected.sort_unstable();
        assert_eq!(kinds, expected, "the sample must cover every event kind");
        for e in &events {
            let layer = layer_of(e);
            assert!(Layer::ALL.contains(&layer), "{} has no layer", e.kind());
            assert_ne!(layer, Layer::Setup, "{} is set-up", e.kind());
            assert_ne!(layer, Layer::Obsv, "{} is an obsv sink", e.kind());
        }
    }

    #[test]
    fn layer_seconds_and_tail_sum_to_the_traced_wall_time() {
        let mut spans = SpanLog::new(Instant::now());
        let mut inner = NoopSink;
        let t0 = Instant::now();
        let mut clock = HostClock::new(&mut inner, &mut spans, "run", Some(Layer::Setup));
        let mut busy = 0u64;
        for e in one_of_each().into_iter().cycle().take(2_000) {
            for i in 0..2_000u64 {
                busy = std::hint::black_box(busy.wrapping_add(i * i));
            }
            clock.record(e);
        }
        let report = clock.finish(Layer::Stream);
        let wall = t0.elapsed().as_secs_f64();
        let total = report.total_secs();
        assert!(
            (total - wall).abs() <= 0.01 * wall,
            "layers sum to {total} s against {wall} s of wall time"
        );
        assert!(report.secs(Layer::Setup) > 0.0);
        // 2 000 events are 90 cycles of the 22 kinds and 20 more.
        assert_eq!(report.counts.decisions, 91);
        assert_eq!(report.counts.decisions, report.decide_ms.len() as u64);
        spans.check_nesting().unwrap();
    }
}
