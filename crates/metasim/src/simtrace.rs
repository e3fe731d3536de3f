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
//!
//! The taxonomy is declared once, in the `trace_events!` table below,
//! which generates [`TraceEvent`], [`TraceKind`], [`KINDS`] and the
//! JSONL writer and reader: a new event or field is one entry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

use crate::host::HostId;
use crate::net::LinkId;
use crate::time::SimTime;

/// Generates the event enum, its kind names and its JSONL codec from one
/// table. An entry is `Variant = "wire_kind" { at, field: Type, .. }`
/// with docs on the variant, on `at` and on each field; fields are listed
/// in wire order (`kind`, then `at`, then the rest), and
/// `field: Type as "key"` renames a field on the wire.
macro_rules! trace_events {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $wire:literal {
            $(#[doc = $at_doc:literal])*
            at
            $(, $(#[doc = $field_doc:literal])* $field:ident: $ty:ty $(as $key:literal)?)*
            $(,)?
        }
    ),* $(,)?) => {
        /// One structured event from somewhere in the stack.
        ///
        /// Every variant carries an absolute simulation timestamp
        /// ([`SimTime`], serialized as integer microseconds) so streams from
        /// different layers interleave on a common clock.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[doc = $doc])*
                $variant {
                    $(#[doc = $at_doc])*
                    at: SimTime,
                    $($(#[doc = $field_doc])* $field: $ty,)*
                },
            )*
        }

        /// The kind of a [`TraceEvent`] without its fields; `kind as usize`
        /// indexes [`KINDS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceKind {
            $($(#[doc = $doc])* $variant,)*
        }

        /// Every event kind's wire name (the JSON `kind` field), in
        /// [`TraceKind`] order.
        pub const KINDS: [&str; [$($wire),*].len()] = [$($wire),*];

        impl TraceEvent {
            /// Position of the event's kind in [`KINDS`].
            pub fn kind_index(&self) -> usize {
                match self {
                    $(TraceEvent::$variant { .. } => TraceKind::$variant as usize,)*
                }
            }

            /// The event's absolute timestamp.
            pub fn at(&self) -> SimTime {
                match *self {
                    $(TraceEvent::$variant { at, .. })|* => at,
                }
            }

            /// The event's absolute timestamp, for shifting in place.
            pub fn at_mut(&mut self) -> &mut SimTime {
                match self {
                    $(TraceEvent::$variant { at, .. })|* => at,
                }
            }

            /// Serialize the event as one line of JSON (hand-rolled; the
            /// workspace carries no serialization dependency). [`SimTime`]
            /// fields are integer microseconds so streams compare
            /// byte-exactly.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(128);
                match self {
                    $(TraceEvent::$variant { at, $($field),* } => {
                        out.push_str(concat!("{\"kind\":\"", $wire, "\",\"at\":"));
                        at.write_wire(&mut out);
                        $(
                            out.push_str(concat!(",\"", wire_key!($field $($key)?), "\":"));
                            $field.write_wire(&mut out);
                        )*
                    })*
                }
                out.push('}');
                out
            }

            /// Parse one JSONL line produced by [`TraceEvent::to_json`]
            /// back into an event.
            ///
            /// Keys may come in any order and unknown keys are ignored.
            /// Returns `None` when the line is not a flat JSON object, its
            /// `kind` is unknown, a required field is missing, or a value
            /// does not fit its field (an integer out of range or with
            /// trailing bytes), so consumers of foreign or truncated traces
            /// can skip bad lines and keep going. Floats serialized as
            /// `null` (non-finite) come back as NaN, preserving the event
            /// rather than dropping it.
            pub fn from_json(line: &str) -> Option<TraceEvent> {
                let pairs = split_object(line)?;
                let get = |key: &str| pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
                let kind = get("kind")?.strip_prefix('"')?.strip_suffix('"')?;
                let at = read_field(get("at"))?;
                Some(match kind {
                    $($wire => TraceEvent::$variant {
                        at,
                        $($field: read_field(get(wire_key!($field $($key)?)))?,)*
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

/// The wire key of a table field: its name, or its `as "key"` rename.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

trace_events! {
    /// A worker began its compute phase on a host (one event per worker
    /// per run, covering all iterations; `work_mflop` is the total).
    ComputeStart = "compute_start" {
        /// Co-allocation barrier time when compute began.
        at,
        /// Host executing the worker.
        host: HostId,
        /// Total work across all iterations, Mflop.
        work_mflop: f64,
    },
    /// A worker finished its last compute phase.
    ComputeFinish = "compute_finish" {
        /// When the final compute phase completed.
        at,
        /// Host that executed the worker.
        host: HostId,
        /// Total wall-clock seconds spent computing (load and paging
        /// slowdown included).
        elapsed_seconds: f64,
    },
    /// A transfer was admitted to the network.
    TransferStart = "transfer_start" {
        /// When the transfer entered the network.
        at,
        /// Sending host.
        from: HostId,
        /// Receiving host.
        to: HostId,
        /// Payload, MB.
        mb: f64,
    },
    /// A transfer was fully delivered.
    TransferFinish = "transfer_finish" {
        /// Delivery time (propagation latency included).
        at,
        /// Sending host.
        from: HostId,
        /// Receiving host.
        to: HostId,
        /// Payload, MB.
        mb: f64,
        /// Mean achieved bandwidth over the nominal bottleneck
        /// bandwidth of the route: 1.0 means the flow had the
        /// bottleneck to itself, lower means contention.
        contention_share: f64,
    },
    /// A host crash was injected into the topology.
    HostFaultInjected = "host_fault_injected" {
        /// Crash time.
        at,
        /// Crashed host.
        host: HostId,
        /// Recovery time; `None` is a permanent crash.
        recover: Option<SimTime>,
    },
    /// A link outage was injected into the topology.
    LinkFaultInjected = "link_fault_injected" {
        /// Outage start.
        at,
        /// Dark link.
        link: LinkId,
        /// Recovery time; `None` is a permanent outage.
        recover: Option<SimTime>,
    },
    /// A running placement was revoked mid-run by a host death.
    PlacementRevoked = "placement_revoked" {
        /// When the loss was detected.
        at,
        /// Host that died under the placement.
        host: HostId,
    },
    /// Background load was imposed on a host (a dispatched job making
    /// the resource busier for everyone after it).
    LoadImposed = "load_imposed" {
        /// Load window start.
        at,
        /// Loaded host.
        host: HostId,
        /// Load window end.
        until: SimTime,
        /// Multiplicative availability factor applied over the window.
        factor: f64,
    },
    /// The forecaster published a prediction for a resource and
    /// immediately scored it against the newly observed value.
    ForecastIssued = "forecast_issued" {
        /// Wall-clock of the monitoring advance.
        at,
        /// Monitored resource, e.g. `cpu:3` or `link:1`.
        resource: String,
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
    ResourceSelection = "resource_selection" {
        /// Decision time.
        at,
        /// Number of candidate resource sets under consideration.
        candidates: usize,
    },
    /// One candidate schedule was evaluated by the cost model.
    CandidateConsidered = "candidate_considered" {
        /// Decision time.
        at,
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
    ScheduleChosen = "schedule_chosen" {
        /// Decision time.
        at,
        /// Index of the winning candidate.
        index: usize,
        /// Predicted execution seconds of the winner.
        predicted_seconds: f64,
    },
    /// A schedule was actuated on the simulated testbed.
    Actuated = "actuated" {
        /// Actuation start time.
        at,
        /// Simulated completion time.
        finish: SimTime,
        /// Elapsed wall-clock seconds.
        elapsed_seconds: f64,
    },
    /// The rescheduler re-planned at a phase boundary.
    RescheduleTriggered = "reschedule_triggered" {
        /// Re-planning time.
        at,
        /// Phase number (0-based).
        phase: usize,
    },
    /// The rescheduler compared staying put against migrating.
    RescheduleDecision = "reschedule_decision" {
        /// Decision time.
        at,
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
    JobSubmitted = "job_submitted" {
        /// Absolute submission time.
        at,
        /// Submission-order index within the stream.
        job: usize,
        /// Job class name.
        kind: String as "class",
    },
    /// A job was admitted and its agent dispatched a placement attempt.
    JobDispatched = "job_dispatched" {
        /// Dispatch time.
        at,
        /// Job index.
        job: usize,
        /// Attempt number (1 = first try).
        attempt: u32,
    },
    /// A failed attempt was scheduled for retry after backoff.
    JobRetried = "job_retried" {
        /// Time the retry was scheduled (next attempt start).
        at,
        /// Job index.
        job: usize,
        /// The attempt that failed.
        attempt: u32,
    },
    /// A centralized batch scheduler started a queued job ahead of
    /// FCFS order because it fits without delaying the head-of-queue
    /// reservation (EASY backfilling).
    JobBackfilled = "job_backfilled" {
        /// Backfill start time.
        at,
        /// Job index.
        job: usize,
        /// The head-of-queue reservation the backfill must not delay.
        reservation: SimTime,
    },
    /// A scheduler measured how long a job's current attempt would run
    /// on dedicated (uncontended) resources — the what-if baseline a
    /// fractional-share regime dilutes. Profilers use this to split the
    /// attempt window into compute vs. contention-wait when the actual
    /// execution never touches the shared executor trace.
    JobWorkMeasured = "job_work_measured" {
        /// Measurement time (the dispatch this estimate covers).
        at,
        /// Job index.
        job: usize,
        /// Predicted dedicated execution seconds for the attempt.
        dedicated_seconds: f64,
    },
    /// A job finished its work.
    JobCompleted = "job_completed" {
        /// Completion time.
        at,
        /// Job index.
        job: usize,
        /// Admission-to-completion seconds.
        exec_seconds: f64,
    },
    /// A job exhausted its retry budget.
    JobFailed = "job_failed" {
        /// Time of the final failed attempt.
        at,
        /// Job index.
        job: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

/// How one field type is spelled on the wire.
trait Wire: Sized {
    /// The value of a key the line lacks (`None`: the line is malformed).
    const ABSENT: Option<Self> = None;
    /// Append the value's JSON spelling.
    fn write_wire(&self, out: &mut String);
    /// Read a raw JSON value (a string keeps its quotes and escapes).
    fn read_wire(raw: &str) -> Option<Self>;
}

fn read_field<T: Wire>(raw: Option<&str>) -> Option<T> {
    raw.map_or(T::ABSENT, T::read_wire)
}

/// Integers are bare digits. Reading refuses a sign, trailing bytes and
/// a value out of the type's range.
macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn write_wire(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read_wire(raw: &str) -> Option<Self> {
                if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                raw.parse::<u64>().ok()?.try_into().ok()
            }
        }
    )*};
}

/// The id and time newtypes are spelled as their integer.
macro_rules! wire_newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Wire for $ty {
            fn write_wire(&self, out: &mut String) {
                self.0.write_wire(out);
            }
            fn read_wire(raw: &str) -> Option<Self> {
                <$inner>::read_wire(raw).map($ty)
            }
        }
    )*};
}

wire_uint!(u64, usize, u32);
wire_newtype!(HostId(usize), LinkId(usize), SimTime(u64));

impl Wire for Option<SimTime> {
    const ABSENT: Option<Self> = Some(None);
    fn write_wire(&self, out: &mut String) {
        match self {
            Some(t) => t.write_wire(out),
            None => out.push_str("null"),
        }
    }
    fn read_wire(raw: &str) -> Option<Self> {
        match raw {
            "null" => Some(None),
            _ => SimTime::read_wire(raw).map(Some),
        }
    }
}

/// Non-finite floats, which JSON cannot represent, are written `null`
/// and read back as NaN so the enclosing event survives the round trip.
impl Wire for f64 {
    fn write_wire(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
    fn read_wire(raw: &str) -> Option<Self> {
        let numeric = |b: u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        match raw {
            "null" => Some(f64::NAN),
            _ if raw.bytes().all(numeric) => raw.parse().ok(),
            _ => None,
        }
    }
}

impl Wire for bool {
    fn write_wire(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read_wire(raw: &str) -> Option<Self> {
        raw.parse().ok()
    }
}

impl Wire for String {
    fn write_wire(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
        out.push('"');
    }
    fn read_wire(raw: &str) -> Option<Self> {
        let mut chars = raw.strip_prefix('"')?.strip_suffix('"')?.chars();
        let mut out = String::new();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            }
        }
        Some(out)
    }
}

/// Split a one-line flat JSON object into its `(key, raw value)` pairs
/// in one pass. A string value keeps its quotes and escapes; `None` when
/// the line is not such an object.
fn split_object(line: &str) -> Option<Vec<(&str, &str)>> {
    let mut rest = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut pairs = Vec::with_capacity(8);
    while !rest.is_empty() {
        let (key, value) = rest.strip_prefix('"')?.split_once("\":")?;
        let end = if value.starts_with('"') {
            string_end(value)?
        } else {
            value.find(',').unwrap_or(value.len())
        };
        let (value, tail) = value.split_at(end);
        pairs.push((key, value));
        rest = match tail {
            "" => "",
            tail => tail.strip_prefix(',')?,
        };
    }
    Some(pairs)
}

/// Byte length of the JSON string literal that opens `s`, closing quote
/// included.
fn string_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, b) in s.bytes().enumerate().skip(1) {
        match b {
            _ if escaped => escaped = false,
            b'\\' => escaped = true,
            b'"' => return Some(i + 1),
            _ => {}
        }
    }
    None
}

impl TraceEvent {
    /// Stable snake_case name of the event kind (the JSON `kind`
    /// field).
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
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
    fn reader_refuses_out_of_range_and_trailing_bytes() {
        let dispatched = |attempt: &str| {
            TraceEvent::from_json(&format!(
                "{{\"kind\":\"job_dispatched\",\"at\":1,\"job\":0,\"attempt\":{attempt}}}"
            ))
        };
        assert_eq!(
            dispatched("4294967295"),
            Some(TraceEvent::JobDispatched {
                job: 0,
                at: SimTime(1),
                attempt: u32::MAX,
            })
        );
        // 2^32 + 2 used to wrap to attempt 2.
        assert_eq!(dispatched("4294967298"), None);
        assert_eq!(dispatched("+2"), None);
        assert_eq!(dispatched("-2"), None);
        let failed = r#"{"kind":"job_failed","at":1,"job":0,"attempts":4294967298}"#;
        let trailing = r#"{"kind":"job_failed","at":12abc,"job":0,"attempts":2}"#;
        let float = r#"{"kind":"job_completed","at":1,"job":0,"exec_seconds":1.5s}"#;
        let good = r#"{"kind":"job_failed","at":12,"job":0,"attempts":2}"#;
        for bad in [failed, trailing, float] {
            assert_eq!(TraceEvent::from_json(bad), None, "{bad}");
        }
        let (events, skipped) = TraceEvent::from_jsonl(&[failed, trailing, good].join("\n"));
        assert_eq!((events.len(), skipped), (1, 2));
        assert_eq!(events[0].at(), SimTime(12));
    }

    #[test]
    fn reader_takes_keys_in_any_order_and_ignores_unknown_ones() {
        let e = TraceEvent::TransferFinish {
            from: HostId(1),
            to: HostId(2),
            at: SimTime(7),
            mb: 0.25,
            contention_share: 1.0,
        };
        let shuffled =
            r#"{"contention_share":1,"to":2,"mb":0.25,"at":7,"from":1,"kind":"transfer_finish"}"#;
        let extra = r#"{"kind":"transfer_finish","note":"x,y","at":7,"from":1,"to":2,"mb":0.25,"contention_share":1,"seq":9}"#;
        assert_eq!(TraceEvent::from_json(shuffled), Some(e.clone()));
        assert_eq!(TraceEvent::from_json(extra), Some(e));
        let missing = r#"{"kind":"transfer_finish","at":7,"from":1,"to":2,"mb":0.25}"#;
        assert_eq!(TraceEvent::from_json(missing), None);
        assert_eq!(
            TraceEvent::from_json(r#"{"kind":"no_such_kind","at":7}"#),
            None
        );
    }

    #[test]
    fn absent_or_null_recover_reads_as_none() {
        let fault = |tail: &str| {
            TraceEvent::from_json(&format!(
                "{{\"kind\":\"host_fault_injected\",\"at\":3,\"host\":1{tail}}}"
            ))
        };
        let crash = |recover| TraceEvent::HostFaultInjected {
            host: HostId(1),
            at: SimTime(3),
            recover,
        };
        assert_eq!(fault(""), Some(crash(None)));
        assert_eq!(fault(",\"recover\":null"), Some(crash(None)));
        assert_eq!(fault(",\"recover\":9"), Some(crash(Some(SimTime(9)))));
        assert_eq!(fault(",\"recover\":soon"), None);
    }

    #[test]
    fn null_float_reads_as_nan() {
        let line = r#"{"kind":"compute_start","at":0,"host":3,"work_mflop":null}"#;
        match TraceEvent::from_json(line) {
            Some(TraceEvent::ComputeStart { work_mflop, .. }) => assert!(work_mflop.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strings_holding_json_punctuation_survive() {
        let e = TraceEvent::ForecastIssued {
            resource: r#"cpu:"a,b":{c}"#.into(),
            at: s(1.0),
            predicted: 0.5,
            observed: 0.25,
            error: 0.125,
            method: "}\\\",\"kind\":\"job_failed".into(),
        };
        let j = e.to_json();
        assert_eq!(TraceEvent::from_json(&j), Some(e));
        assert_eq!(
            TraceEvent::from_json(&format!("  {j} ")).map(|e| e.to_json()),
            Some(j)
        );
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
