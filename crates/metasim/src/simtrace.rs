//! Structured event tracing across the simulation stack.
//!
//! The paper's argument is about *why* a schedule won — per-worker
//! compute vs. wait, border-exchange cost, forecast error at decision
//! time — yet end-of-run aggregates throw that information away. This
//! module defines a deterministic event log every layer can append to:
//!
//! * **metasim** emits compute, transfer, fault and load events,
//! * **nws** emits one [`TraceEvent::ForecastIssued`] per monitored
//!   resource per advance (predicted vs. observed, per-method error),
//! * **core** emits selection, candidate-evaluation, actuation and
//!   rescheduling decisions,
//! * **grid** emits the job lifecycle (submit → dispatch →
//!   retry/backoff → complete/fail).
//!
//! Producers take a `&mut dyn EventSink`. The default [`NoopSink`]
//! reports `enabled() == false`, and every emission site is guarded by
//! that check, so untraced runs never construct an event — tracing is
//! zero-cost when no sink is attached.
//!
//! **Determinism guarantee:** the simulation is deterministic given a
//! seed, and events are emitted in simulation order by straight-line
//! code, so two runs with the same seed and configuration produce
//! byte-identical JSONL streams ([`WriterSink`]). [`first_divergence`]
//! turns that guarantee into a mechanical check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

use crate::host::HostId;
use crate::net::LinkId;
use crate::time::SimTime;

/// One structured event from somewhere in the stack.
///
/// Every variant carries an absolute simulation timestamp ([`SimTime`],
/// serialized as integer microseconds) so streams from different layers
/// interleave on a common clock.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A worker began its compute phase on a host (one event per worker
    /// per run, covering all iterations; `work_mflop` is the total).
    ComputeStart {
        /// Host executing the worker.
        host: HostId,
        /// Co-allocation barrier time when compute began.
        at: SimTime,
        /// Total work across all iterations, Mflop.
        work_mflop: f64,
    },
    /// A worker finished its last compute phase.
    ComputeFinish {
        /// Host that executed the worker.
        host: HostId,
        /// When the final compute phase completed.
        at: SimTime,
        /// Total wall-clock seconds spent computing (load and paging
        /// slowdown included).
        elapsed_seconds: f64,
    },
    /// A transfer was admitted to the network.
    TransferStart {
        /// Sending host.
        from: HostId,
        /// Receiving host.
        to: HostId,
        /// When the transfer entered the network.
        at: SimTime,
        /// Payload, MB.
        mb: f64,
    },
    /// A transfer was fully delivered.
    TransferFinish {
        /// Sending host.
        from: HostId,
        /// Receiving host.
        to: HostId,
        /// Delivery time (propagation latency included).
        at: SimTime,
        /// Payload, MB.
        mb: f64,
        /// Mean achieved bandwidth over the nominal bottleneck
        /// bandwidth of the route: 1.0 means the flow had the
        /// bottleneck to itself, lower means contention.
        contention_share: f64,
    },
    /// A host crash was injected into the topology.
    HostFaultInjected {
        /// Crashed host.
        host: HostId,
        /// Crash time.
        at: SimTime,
        /// Recovery time; `None` is a permanent crash.
        recover: Option<SimTime>,
    },
    /// A link outage was injected into the topology.
    LinkFaultInjected {
        /// Dark link.
        link: LinkId,
        /// Outage start.
        at: SimTime,
        /// Recovery time; `None` is a permanent outage.
        recover: Option<SimTime>,
    },
    /// A running placement was revoked mid-run by a host death.
    PlacementRevoked {
        /// Host that died under the placement.
        host: HostId,
        /// When the loss was detected.
        at: SimTime,
    },
    /// Background load was imposed on a host (a dispatched job making
    /// the resource busier for everyone after it).
    LoadImposed {
        /// Loaded host.
        host: HostId,
        /// Load window start.
        at: SimTime,
        /// Load window end.
        until: SimTime,
        /// Multiplicative availability factor applied over the window.
        factor: f64,
    },
    /// The forecaster published a prediction for a resource and
    /// immediately scored it against the newly observed value.
    ForecastIssued {
        /// Monitored resource, e.g. `cpu:3` or `link:1`.
        resource: String,
        /// Wall-clock of the monitoring advance.
        at: SimTime,
        /// Prediction made *before* the new samples arrived.
        predicted: f64,
        /// Most recent observed value.
        observed: f64,
        /// Running mean absolute error of the winning method.
        error: f64,
        /// Name of the forecasting method that currently wins.
        method: String,
    },
    /// The coordinator started a selection over a candidate pool.
    ResourceSelection {
        /// Decision time.
        at: SimTime,
        /// Number of candidate resource sets under consideration.
        candidates: usize,
    },
    /// One candidate schedule was evaluated by the cost model.
    CandidateConsidered {
        /// Decision time.
        at: SimTime,
        /// Index of the candidate within the selection.
        index: usize,
        /// Number of hosts the candidate uses.
        hosts: usize,
        /// Cost-model predicted execution seconds.
        predicted_seconds: f64,
        /// Objective value (lower is better).
        objective: f64,
    },
    /// The coordinator committed to a schedule.
    ScheduleChosen {
        /// Decision time.
        at: SimTime,
        /// Index of the winning candidate.
        index: usize,
        /// Predicted execution seconds of the winner.
        predicted_seconds: f64,
    },
    /// A schedule was actuated on the simulated testbed.
    Actuated {
        /// Actuation start time.
        at: SimTime,
        /// Simulated completion time.
        finish: SimTime,
        /// Elapsed wall-clock seconds.
        elapsed_seconds: f64,
    },
    /// The rescheduler re-planned at a phase boundary.
    RescheduleTriggered {
        /// Re-planning time.
        at: SimTime,
        /// Phase number (0-based).
        phase: usize,
    },
    /// The rescheduler compared staying put against migrating.
    RescheduleDecision {
        /// Decision time.
        at: SimTime,
        /// Predicted seconds for the remaining work if it stays.
        keep_seconds: f64,
        /// Predicted seconds for the remaining work if it moves.
        move_seconds: f64,
        /// Predicted cost of moving the state, seconds.
        move_cost_seconds: f64,
        /// Whether the job migrated.
        migrated: bool,
    },
    /// A job entered the stream.
    JobSubmitted {
        /// Submission-order index within the stream.
        job: usize,
        /// Job class name.
        kind: String,
        /// Absolute submission time.
        at: SimTime,
    },
    /// A job was admitted and its agent dispatched a placement attempt.
    JobDispatched {
        /// Job index.
        job: usize,
        /// Dispatch time.
        at: SimTime,
        /// Attempt number (1 = first try).
        attempt: u32,
    },
    /// A failed attempt was scheduled for retry after backoff.
    JobRetried {
        /// Job index.
        job: usize,
        /// Time the retry was scheduled (next attempt start).
        at: SimTime,
        /// The attempt that failed.
        attempt: u32,
    },
    /// A centralized batch scheduler started a queued job ahead of
    /// FCFS order because it fits without delaying the head-of-queue
    /// reservation (EASY backfilling).
    JobBackfilled {
        /// Job index.
        job: usize,
        /// Backfill start time.
        at: SimTime,
        /// The head-of-queue reservation the backfill must not delay.
        reservation: SimTime,
    },
    /// A scheduler measured how long a job's current attempt would run
    /// on dedicated (uncontended) resources — the what-if baseline a
    /// fractional-share regime dilutes. Profilers use this to split the
    /// attempt window into compute vs. contention-wait when the actual
    /// execution never touches the shared executor trace.
    JobWorkMeasured {
        /// Job index.
        job: usize,
        /// Measurement time (the dispatch this estimate covers).
        at: SimTime,
        /// Predicted dedicated execution seconds for the attempt.
        dedicated_seconds: f64,
    },
    /// A job finished its work.
    JobCompleted {
        /// Job index.
        job: usize,
        /// Completion time.
        at: SimTime,
        /// Admission-to-completion seconds.
        exec_seconds: f64,
    },
    /// A job exhausted its retry budget.
    JobFailed {
        /// Job index.
        job: usize,
        /// Time of the final failed attempt.
        at: SimTime,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON value (`null` for non-finite inputs, which
/// JSON cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Format an optional [`SimTime`] as integer microseconds or `null`.
fn json_opt_time(t: Option<SimTime>) -> String {
    match t {
        Some(t) => format!("{}", t.0),
        None => "null".to_string(),
    }
}

impl TraceEvent {
    /// Stable snake_case name of the event kind (the JSON `kind`
    /// field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ComputeStart { .. } => "compute_start",
            TraceEvent::ComputeFinish { .. } => "compute_finish",
            TraceEvent::TransferStart { .. } => "transfer_start",
            TraceEvent::TransferFinish { .. } => "transfer_finish",
            TraceEvent::HostFaultInjected { .. } => "host_fault_injected",
            TraceEvent::LinkFaultInjected { .. } => "link_fault_injected",
            TraceEvent::PlacementRevoked { .. } => "placement_revoked",
            TraceEvent::LoadImposed { .. } => "load_imposed",
            TraceEvent::ForecastIssued { .. } => "forecast_issued",
            TraceEvent::ResourceSelection { .. } => "resource_selection",
            TraceEvent::CandidateConsidered { .. } => "candidate_considered",
            TraceEvent::ScheduleChosen { .. } => "schedule_chosen",
            TraceEvent::Actuated { .. } => "actuated",
            TraceEvent::RescheduleTriggered { .. } => "reschedule_triggered",
            TraceEvent::RescheduleDecision { .. } => "reschedule_decision",
            TraceEvent::JobSubmitted { .. } => "job_submitted",
            TraceEvent::JobDispatched { .. } => "job_dispatched",
            TraceEvent::JobRetried { .. } => "job_retried",
            TraceEvent::JobBackfilled { .. } => "job_backfilled",
            TraceEvent::JobWorkMeasured { .. } => "job_work_measured",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::JobFailed { .. } => "job_failed",
        }
    }

    /// The event's absolute timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::ComputeStart { at, .. }
            | TraceEvent::ComputeFinish { at, .. }
            | TraceEvent::TransferStart { at, .. }
            | TraceEvent::TransferFinish { at, .. }
            | TraceEvent::HostFaultInjected { at, .. }
            | TraceEvent::LinkFaultInjected { at, .. }
            | TraceEvent::PlacementRevoked { at, .. }
            | TraceEvent::LoadImposed { at, .. }
            | TraceEvent::ForecastIssued { at, .. }
            | TraceEvent::ResourceSelection { at, .. }
            | TraceEvent::CandidateConsidered { at, .. }
            | TraceEvent::ScheduleChosen { at, .. }
            | TraceEvent::Actuated { at, .. }
            | TraceEvent::RescheduleTriggered { at, .. }
            | TraceEvent::RescheduleDecision { at, .. }
            | TraceEvent::JobSubmitted { at, .. }
            | TraceEvent::JobDispatched { at, .. }
            | TraceEvent::JobRetried { at, .. }
            | TraceEvent::JobBackfilled { at, .. }
            | TraceEvent::JobWorkMeasured { at, .. }
            | TraceEvent::JobCompleted { at, .. }
            | TraceEvent::JobFailed { at, .. } => at,
        }
    }

    /// Serialize the event as one line of JSON (hand-rolled; the
    /// workspace carries no serialization dependency). [`SimTime`]
    /// fields are integer microseconds so streams compare byte-exactly.
    pub fn to_json(&self) -> String {
        let kind = self.kind();
        match self {
            TraceEvent::ComputeStart {
                host,
                at,
                work_mflop,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"host\":{},\"work_mflop\":{}}}",
                at.0,
                host.0,
                json_f64(*work_mflop)
            ),
            TraceEvent::ComputeFinish {
                host,
                at,
                elapsed_seconds,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"host\":{},\"elapsed_seconds\":{}}}",
                at.0,
                host.0,
                json_f64(*elapsed_seconds)
            ),
            TraceEvent::TransferStart { from, to, at, mb } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"from\":{},\"to\":{},\"mb\":{}}}",
                at.0,
                from.0,
                to.0,
                json_f64(*mb)
            ),
            TraceEvent::TransferFinish {
                from,
                to,
                at,
                mb,
                contention_share,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"from\":{},\"to\":{},\"mb\":{},\
                 \"contention_share\":{}}}",
                at.0,
                from.0,
                to.0,
                json_f64(*mb),
                json_f64(*contention_share)
            ),
            TraceEvent::HostFaultInjected { host, at, recover } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"host\":{},\"recover\":{}}}",
                at.0,
                host.0,
                json_opt_time(*recover)
            ),
            TraceEvent::LinkFaultInjected { link, at, recover } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"link\":{},\"recover\":{}}}",
                at.0,
                link.0,
                json_opt_time(*recover)
            ),
            TraceEvent::PlacementRevoked { host, at } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"host\":{}}}",
                at.0, host.0
            ),
            TraceEvent::LoadImposed {
                host,
                at,
                until,
                factor,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"host\":{},\"until\":{},\"factor\":{}}}",
                at.0,
                host.0,
                until.0,
                json_f64(*factor)
            ),
            TraceEvent::ForecastIssued {
                resource,
                at,
                predicted,
                observed,
                error,
                method,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"resource\":\"{}\",\"predicted\":{},\
                 \"observed\":{},\"error\":{},\"method\":\"{}\"}}",
                at.0,
                json_escape(resource),
                json_f64(*predicted),
                json_f64(*observed),
                json_f64(*error),
                json_escape(method)
            ),
            TraceEvent::ResourceSelection { at, candidates } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"candidates\":{candidates}}}",
                at.0
            ),
            TraceEvent::CandidateConsidered {
                at,
                index,
                hosts,
                predicted_seconds,
                objective,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"index\":{index},\"hosts\":{hosts},\
                 \"predicted_seconds\":{},\"objective\":{}}}",
                at.0,
                json_f64(*predicted_seconds),
                json_f64(*objective)
            ),
            TraceEvent::ScheduleChosen {
                at,
                index,
                predicted_seconds,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"index\":{index},\"predicted_seconds\":{}}}",
                at.0,
                json_f64(*predicted_seconds)
            ),
            TraceEvent::Actuated {
                at,
                finish,
                elapsed_seconds,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"finish\":{},\"elapsed_seconds\":{}}}",
                at.0,
                finish.0,
                json_f64(*elapsed_seconds)
            ),
            TraceEvent::RescheduleTriggered { at, phase } => {
                format!("{{\"kind\":\"{kind}\",\"at\":{},\"phase\":{phase}}}", at.0)
            }
            TraceEvent::RescheduleDecision {
                at,
                keep_seconds,
                move_seconds,
                move_cost_seconds,
                migrated,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"keep_seconds\":{},\"move_seconds\":{},\
                 \"move_cost_seconds\":{},\"migrated\":{migrated}}}",
                at.0,
                json_f64(*keep_seconds),
                json_f64(*move_seconds),
                json_f64(*move_cost_seconds)
            ),
            TraceEvent::JobSubmitted { job, kind: k, at } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"class\":\"{}\"}}",
                at.0,
                json_escape(k)
            ),
            TraceEvent::JobDispatched { job, at, attempt } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"attempt\":{attempt}}}",
                at.0
            ),
            TraceEvent::JobRetried { job, at, attempt } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"attempt\":{attempt}}}",
                at.0
            ),
            TraceEvent::JobBackfilled {
                job,
                at,
                reservation,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"reservation\":{}}}",
                at.0, reservation.0
            ),
            TraceEvent::JobWorkMeasured {
                job,
                at,
                dedicated_seconds,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"dedicated_seconds\":{}}}",
                at.0,
                json_f64(*dedicated_seconds)
            ),
            TraceEvent::JobCompleted {
                job,
                at,
                exec_seconds,
            } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"exec_seconds\":{}}}",
                at.0,
                json_f64(*exec_seconds)
            ),
            TraceEvent::JobFailed { job, at, attempts } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{},\"job\":{job},\"attempts\":{attempts}}}",
                at.0
            ),
        }
    }

    /// Parse one JSONL line produced by [`TraceEvent::to_json`] back
    /// into an event.
    ///
    /// Returns `None` when the line has no recognizable `kind`, an
    /// unknown kind, or a missing required field, so consumers of
    /// foreign or truncated traces can skip bad lines and keep going.
    /// Numeric fields serialized as `null` (non-finite floats) come
    /// back as NaN, preserving the event rather than dropping it.
    pub fn from_json(line: &str) -> Option<TraceEvent> {
        let kind = extract_json_str(line, "kind")?;
        let at = SimTime(extract_json_u64(line, "at")?);
        let host = |key: &str| Some(HostId(extract_json_u64(line, key)? as usize));
        let idx = |key: &str| Some(extract_json_u64(line, key)? as usize);
        Some(match kind.as_str() {
            "compute_start" => TraceEvent::ComputeStart {
                host: host("host")?,
                at,
                work_mflop: extract_json_f64(line, "work_mflop")?,
            },
            "compute_finish" => TraceEvent::ComputeFinish {
                host: host("host")?,
                at,
                elapsed_seconds: extract_json_f64(line, "elapsed_seconds")?,
            },
            "transfer_start" => TraceEvent::TransferStart {
                from: host("from")?,
                to: host("to")?,
                at,
                mb: extract_json_f64(line, "mb")?,
            },
            "transfer_finish" => TraceEvent::TransferFinish {
                from: host("from")?,
                to: host("to")?,
                at,
                mb: extract_json_f64(line, "mb")?,
                contention_share: extract_json_f64(line, "contention_share")?,
            },
            "host_fault_injected" => TraceEvent::HostFaultInjected {
                host: host("host")?,
                at,
                recover: extract_json_u64(line, "recover").map(SimTime),
            },
            "link_fault_injected" => TraceEvent::LinkFaultInjected {
                link: LinkId(extract_json_u64(line, "link")? as usize),
                at,
                recover: extract_json_u64(line, "recover").map(SimTime),
            },
            "placement_revoked" => TraceEvent::PlacementRevoked {
                host: host("host")?,
                at,
            },
            "load_imposed" => TraceEvent::LoadImposed {
                host: host("host")?,
                at,
                until: SimTime(extract_json_u64(line, "until")?),
                factor: extract_json_f64(line, "factor")?,
            },
            "forecast_issued" => TraceEvent::ForecastIssued {
                resource: extract_json_str(line, "resource")?,
                at,
                predicted: extract_json_f64(line, "predicted")?,
                observed: extract_json_f64(line, "observed")?,
                error: extract_json_f64(line, "error")?,
                method: extract_json_str(line, "method")?,
            },
            "resource_selection" => TraceEvent::ResourceSelection {
                at,
                candidates: idx("candidates")?,
            },
            "candidate_considered" => TraceEvent::CandidateConsidered {
                at,
                index: idx("index")?,
                hosts: idx("hosts")?,
                predicted_seconds: extract_json_f64(line, "predicted_seconds")?,
                objective: extract_json_f64(line, "objective")?,
            },
            "schedule_chosen" => TraceEvent::ScheduleChosen {
                at,
                index: idx("index")?,
                predicted_seconds: extract_json_f64(line, "predicted_seconds")?,
            },
            "actuated" => TraceEvent::Actuated {
                at,
                finish: SimTime(extract_json_u64(line, "finish")?),
                elapsed_seconds: extract_json_f64(line, "elapsed_seconds")?,
            },
            "reschedule_triggered" => TraceEvent::RescheduleTriggered {
                at,
                phase: idx("phase")?,
            },
            "reschedule_decision" => TraceEvent::RescheduleDecision {
                at,
                keep_seconds: extract_json_f64(line, "keep_seconds")?,
                move_seconds: extract_json_f64(line, "move_seconds")?,
                move_cost_seconds: extract_json_f64(line, "move_cost_seconds")?,
                migrated: extract_json_bool(line, "migrated")?,
            },
            "job_submitted" => TraceEvent::JobSubmitted {
                job: idx("job")?,
                kind: extract_json_str(line, "class")?,
                at,
            },
            "job_dispatched" => TraceEvent::JobDispatched {
                job: idx("job")?,
                at,
                attempt: extract_json_u64(line, "attempt")? as u32,
            },
            "job_retried" => TraceEvent::JobRetried {
                job: idx("job")?,
                at,
                attempt: extract_json_u64(line, "attempt")? as u32,
            },
            "job_backfilled" => TraceEvent::JobBackfilled {
                job: idx("job")?,
                at,
                reservation: SimTime(extract_json_u64(line, "reservation")?),
            },
            "job_work_measured" => TraceEvent::JobWorkMeasured {
                job: idx("job")?,
                at,
                dedicated_seconds: extract_json_f64(line, "dedicated_seconds")?,
            },
            "job_completed" => TraceEvent::JobCompleted {
                job: idx("job")?,
                at,
                exec_seconds: extract_json_f64(line, "exec_seconds")?,
            },
            "job_failed" => TraceEvent::JobFailed {
                job: idx("job")?,
                at,
                attempts: extract_json_u64(line, "attempts")? as u32,
            },
            _ => return None,
        })
    }

    /// Parse a whole JSONL stream, skipping unparseable lines (see
    /// [`TraceEvent::from_json`]). Returns the events plus the count of
    /// non-empty lines that did not parse.
    pub fn from_jsonl(text: &str) -> (Vec<TraceEvent>, usize) {
        let mut events = Vec::new();
        let mut skipped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match TraceEvent::from_json(line) {
                Some(e) => events.push(e),
                None => skipped += 1,
            }
        }
        (events, skipped)
    }
}

/// Receiver for [`TraceEvent`]s.
///
/// Emission sites guard with [`EventSink::enabled`] before constructing
/// an event, so a disabled sink costs one virtual call per potential
/// event and nothing else.
pub trait EventSink {
    /// Whether this sink wants events at all. Emission sites skip event
    /// construction entirely when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: TraceEvent);
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects events in memory, for tests and in-process analysis.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// Recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Streams events as JSONL (one [`TraceEvent::to_json`] object per
/// line) to any [`Write`] target.
///
/// Write errors are captured rather than panicking; check
/// [`WriterSink::take_error`] after the run.
#[derive(Debug)]
pub struct WriterSink<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> WriterSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> WriterSink<W> {
        WriterSink {
            writer,
            error: None,
        }
    }

    /// The first write error encountered, if any (consumes it).
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for WriterSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{}", event.to_json()) {
            self.error = Some(e);
        }
    }
}

/// Aggregate view of an event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Events per kind, alphabetically ordered.
    pub by_kind: BTreeMap<String, usize>,
    /// Earliest event timestamp.
    pub first_at: Option<SimTime>,
    /// Latest event timestamp.
    pub last_at: Option<SimTime>,
}

impl TraceSummary {
    /// Summarize an event stream (read a JSONL trace with
    /// [`TraceEvent::from_jsonl`]).
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        for e in events {
            *by_kind.entry(e.kind().to_string()).or_insert(0) += 1;
        }
        TraceSummary {
            events: events.len(),
            by_kind,
            first_at: events.iter().map(TraceEvent::at).min(),
            last_at: events.iter().map(TraceEvent::at).max(),
        }
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "events: {}", self.events);
        if let (Some(f), Some(l)) = (self.first_at, self.last_at) {
            let _ = writeln!(
                out,
                "span: {:.3}s .. {:.3}s",
                f.as_secs_f64(),
                l.as_secs_f64()
            );
        }
        let width = self.by_kind.keys().map(|k| k.len()).max().unwrap_or(0);
        for (kind, n) in &self.by_kind {
            let _ = writeln!(out, "  {kind:width$}  {n}");
        }
        out
    }
}

/// Pull a `"key":"value"` string field out of a one-line JSON object
/// without a full parser (the format is our own, from
/// [`TraceEvent::to_json`]).
fn extract_json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Unescape up to the closing quote, honoring the escapes
    // `json_escape` produces.
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// Pull a `"key":123` integer field out of a one-line JSON object.
fn extract_json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull a `"key":<number>` float field out of a one-line JSON object.
/// A `null` value (how [`json_f64`] spells non-finite floats) parses as
/// NaN so the enclosing event survives the round-trip.
fn extract_json_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if rest.starts_with("null") {
        return Some(f64::NAN);
    }
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}

/// Pull a `"key":true|false` field out of a one-line JSON object.
fn extract_json_bool(line: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Where two JSONL streams first diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// That line in the left stream (`None` if the stream ended).
    pub left: Option<String>,
    /// That line in the right stream (`None` if the stream ended).
    pub right: Option<String>,
}

/// Compare two JSONL streams line by line; `None` means identical.
///
/// This is the mechanical form of the determinism guarantee: two runs
/// with the same seed and configuration must produce identical streams.
pub fn first_divergence(a: &str, b: &str) -> Option<Divergence> {
    let mut left = a.lines();
    let mut right = b.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (left.next(), right.next()) {
            (None, None) => return None,
            (l, r) if l == r => continue,
            (l, r) => {
                return Some(Divergence {
                    line,
                    left: l.map(str::to_string),
                    right: r.map(str::to_string),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        assert!(sink.enabled());
        sink.record(TraceEvent::JobSubmitted {
            job: 0,
            kind: "jacobi2d".into(),
            at: s(1.0),
        });
        sink.record(TraceEvent::JobDispatched {
            job: 0,
            at: s(2.0),
            attempt: 1,
        });
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].kind(), "job_submitted");
        assert_eq!(sink.events[1].at(), s(2.0));
    }

    #[test]
    fn writer_sink_emits_jsonl() {
        let mut sink = WriterSink::new(Vec::new());
        sink.record(TraceEvent::ComputeStart {
            host: HostId(3),
            at: s(1.5),
            work_mflop: 100.0,
        });
        sink.record(TraceEvent::HostFaultInjected {
            host: HostId(1),
            at: s(10.0),
            recover: None,
        });
        assert!(sink.take_error().is_none());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"compute_start\",\"at\":1500000,\"host\":3,\"work_mflop\":100}"
        );
        assert!(lines[1].contains("\"recover\":null"));
    }

    #[test]
    fn json_escapes_strings_and_non_finite() {
        let e = TraceEvent::ForecastIssued {
            resource: "cpu:\"x\"".into(),
            at: s(0.0),
            predicted: f64::NAN,
            observed: 0.5,
            error: 0.1,
            method: "mean\n".into(),
        };
        let j = e.to_json();
        assert!(j.contains("cpu:\\\"x\\\""));
        assert!(j.contains("\"predicted\":null"));
        assert!(j.contains("mean\\n"));
    }

    #[test]
    fn summary_counts_kinds_from_events_and_jsonl() {
        let events = vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi2d".into(),
                at: s(1.0),
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: s(2.0),
                attempt: 1,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: s(5.0),
                exec_seconds: 3.0,
            },
        ];
        let sum = TraceSummary::from_events(&events);
        assert_eq!(sum.events, 3);
        assert_eq!(sum.by_kind["job_submitted"], 1);
        assert_eq!(sum.first_at, Some(s(1.0)));
        assert_eq!(sum.last_at, Some(s(5.0)));

        let jsonl: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let (parsed, skipped) = TraceEvent::from_jsonl(&jsonl);
        assert_eq!(skipped, 0);
        assert_eq!(sum, TraceSummary::from_events(&parsed));
        assert!(sum.render().contains("job_completed"));
    }

    #[test]
    fn backfill_event_round_trips_through_json() {
        let e = TraceEvent::JobBackfilled {
            job: 7,
            at: s(12.5),
            reservation: s(90.0),
        };
        assert_eq!(e.kind(), "job_backfilled");
        assert_eq!(e.at(), s(12.5));
        let j = e.to_json();
        assert_eq!(
            j,
            "{\"kind\":\"job_backfilled\",\"at\":12500000,\"job\":7,\"reservation\":90000000}"
        );
        assert_eq!(TraceEvent::from_json(&j), Some(e));
    }

    #[test]
    fn divergence_reports_first_differing_line() {
        assert!(first_divergence("a\nb\n", "a\nb\n").is_none());
        let d = first_divergence("a\nb\nc\n", "a\nx\nc\n").unwrap();
        assert_eq!(d.line, 2);
        assert_eq!(d.left.as_deref(), Some("b"));
        assert_eq!(d.right.as_deref(), Some("x"));
        // Length mismatch: the shorter stream "ends".
        let d = first_divergence("a\n", "a\nb\n").unwrap();
        assert_eq!(d.line, 2);
        assert!(d.left.is_none());
        assert_eq!(d.right.as_deref(), Some("b"));
    }
}
