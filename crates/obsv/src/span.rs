//! Causal span trees over the simtrace stream.
//!
//! simprof answers "where did each job's seconds go" with five flat
//! buckets; this module keeps the *structure*: a trace folds into one
//! span tree per job — job → attempt → phase leaf — with cause edges
//! explaining why each attempt exists (a prior attempt was retried, a
//! placement was revoked, a backfill started it early). A span tree
//! and a [`crate::Profile`] are two views of the crate's one trace fold
//! (`fold.rs`): the phase leaves are cut from the same five buckets in
//! the same pass, so the two reconcile to 0 µs by construction — a
//! property the tests still gate, because it is the contract that makes
//! span output trustworthy for critical-path work.
//!
//! **Partition invariant.** For every closed job, the `partition`
//! leaves tile `[submit, finish]` exactly in integer microseconds:
//! queue-wait, then one retry-backoff leaf per non-final attempt
//! (covering that attempt's dispatch-to-redispatch window: the failed
//! run, its backoff, and any re-queue wait), then the final attempt's
//! compute / border-exchange / contention-wait split. Transfer spans
//! are *annotations* — real `[start, finish]` intervals that overlap
//! compute — and are excluded from the partition (`partition: false`),
//! as are the structural job/attempt spans.
//!
//! **Critical path.** Jobs here are sequential (one placement at a
//! time), so a job's critical path is its chronological chain of
//! partition leaves; what distinguishes scheduling regimes is the
//! *composition* of that chain. [`SpanTree::composition`] aggregates
//! it per trace, and the race report diffs compositions across
//! regimes.

use std::fmt::Write as _;

use metasim::simtrace::TraceEvent;
use metasim::{HostId, SimTime};

use crate::fold::{Fold, JobStructure};
use crate::profile::{JobProfile, Phase, PHASES};

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Root: one per job, `[submit, finish]`.
    Job,
    /// One placement attempt, child of the job span.
    Attempt,
    /// Submission to first dispatch (partition leaf).
    QueueWait,
    /// A non-final attempt's dispatch-to-redispatch window
    /// (partition leaf).
    RetryBackoff,
    /// Final-attempt compute time (partition leaf).
    Compute,
    /// Final-attempt ideal transfer time (partition leaf).
    BorderExchange,
    /// Final-attempt remainder: contention, barrier skew, dilution
    /// (partition leaf).
    ContentionWait,
    /// One observed transfer `[start, finish]` (annotation, overlaps
    /// compute; not part of the partition).
    Transfer,
}

impl SpanKind {
    /// Stable kebab-case name (used in JSONL and renderings).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Attempt => "attempt",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::RetryBackoff => "retry-backoff",
            SpanKind::Compute => "compute",
            SpanKind::BorderExchange => "border-exchange",
            SpanKind::ContentionWait => "contention-wait",
            SpanKind::Transfer => "transfer",
        }
    }

    /// The simprof phase a partition leaf reconciles against, `None`
    /// for structural and annotation spans.
    pub fn phase(self) -> Option<Phase> {
        match self {
            SpanKind::QueueWait => Some(Phase::QueueWait),
            SpanKind::RetryBackoff => Some(Phase::RetryBackoff),
            SpanKind::Compute => Some(Phase::Compute),
            SpanKind::BorderExchange => Some(Phase::BorderExchange),
            SpanKind::ContentionWait => Some(Phase::ContentionWait),
            _ => None,
        }
    }
}

/// Why a span exists: the causal edge from the event that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Cause {
    /// The previous attempt (`failed_attempt`) failed and was
    /// scheduled for retry.
    Retried {
        /// Attempt number that failed.
        failed_attempt: u32,
    },
    /// A placement revocation (host death) killed the previous
    /// attempt.
    Revoked {
        /// Host that died under the placement.
        host: HostId,
        /// Detection time.
        at: SimTime,
    },
    /// EASY backfilling started this attempt ahead of FCFS order.
    Backfilled {
        /// The head-of-queue reservation the backfill must not delay.
        reservation: SimTime,
    },
}

impl Cause {
    fn to_json(&self) -> String {
        match self {
            Cause::Retried { failed_attempt } => {
                format!("{{\"cause\":\"retried\",\"failed_attempt\":{failed_attempt}}}")
            }
            Cause::Revoked { host, at } => {
                format!(
                    "{{\"cause\":\"revoked\",\"host\":{},\"at\":{}}}",
                    host.0, at.0
                )
            }
            Cause::Backfilled { reservation } => format!(
                "{{\"cause\":\"backfilled\",\"reservation\":{}}}",
                reservation.0
            ),
        }
    }

    fn render(&self) -> String {
        match self {
            Cause::Retried { failed_attempt } => format!("retried(attempt {failed_attempt})"),
            Cause::Revoked { host, at } => {
                format!("revoked(host {} @ {:.3}s)", host.0, at.as_secs_f64())
            }
            Cause::Backfilled { reservation } => {
                format!("backfilled(reservation {:.3}s)", reservation.as_secs_f64())
            }
        }
    }
}

/// One node of a job's span tree. Spans live in the owning
/// [`JobSpanTree`]'s arena; `parent` indexes into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What this span represents.
    pub kind: SpanKind,
    /// Span start (inclusive).
    pub start: SimTime,
    /// Span end (exclusive for partition leaves).
    pub end: SimTime,
    /// Arena index of the parent span; `None` for the job root.
    pub parent: Option<usize>,
    /// Attempt number this span belongs to (0 = job level / queue).
    pub attempt: u32,
    /// Whether this leaf participates in the exact makespan partition.
    pub partition: bool,
    /// Causal edges explaining why the span exists.
    pub causes: Vec<Cause>,
    /// Placement revocations absorbed during this span.
    pub revocations: u32,
}

impl Span {
    /// A span without causes or revocations. Partition leaves are the
    /// kinds that reconcile against a simprof phase.
    fn new(
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        parent: Option<usize>,
        attempt: u32,
    ) -> Span {
        Span {
            kind,
            start,
            end,
            parent,
            attempt,
            partition: kind.phase().is_some(),
            causes: Vec::new(),
            revocations: 0,
        }
    }

    /// Duration in integer microseconds.
    pub fn us(&self) -> u64 {
        self.end.saturating_sub(self.start).0
    }
}

/// The span tree of one closed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpanTree {
    /// Submission-order index.
    pub job: usize,
    /// Job class name.
    pub class: String,
    /// Whether the job completed (vs. exhausted its retries).
    pub completed: bool,
    /// Attempts made.
    pub attempts: u32,
    /// Span arena; index 0 is the job root, children follow their
    /// parents.
    pub spans: Vec<Span>,
}

impl JobSpanTree {
    /// The job root span.
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// Submission-to-finish, microseconds.
    pub fn makespan_us(&self) -> u64 {
        self.root().us()
    }

    /// The job's critical path: its partition leaves in chronological
    /// order. Jobs hold one placement at a time, so this chain *is*
    /// the unique submit-to-finish path; regimes differ in its
    /// composition, not its shape.
    pub fn critical_path(&self) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.partition).collect()
    }

    /// The phase whose partition leaves dominate the critical path
    /// (most microseconds; earlier canonical phase wins ties).
    pub fn dominant_phase(&self) -> Phase {
        let mut us = [0u64; 5];
        for s in self.critical_path() {
            if let Some(p) = s.kind.phase() {
                us[p.index()] += s.us();
            }
        }
        let mut best = Phase::QueueWait;
        let mut best_us = 0u64;
        for p in PHASES {
            if us[p.index()] > best_us {
                best = p;
                best_us = us[p.index()];
            }
        }
        best
    }
}

/// Aggregate critical-path composition of a trace: how the summed
/// makespan of all jobs splits across the five phases, and which phase
/// dominates each job.
#[derive(Debug, Clone, PartialEq)]
pub struct Composition {
    /// Closed jobs folded.
    pub jobs: usize,
    /// Of those, jobs that completed.
    pub completed: usize,
    /// Summed makespan, microseconds.
    pub total_us: u64,
    /// Microseconds per phase (canonical [`PHASES`] order); sums to
    /// `total_us`.
    pub phase_us: [u64; 5],
    /// Jobs whose critical path each phase dominates (canonical
    /// order).
    pub dominant_jobs: [usize; 5],
    /// Transfer annotation spans observed.
    pub transfers: usize,
    /// Placement revocations absorbed across all attempts.
    pub revocations: u64,
}

impl Composition {
    /// Fraction of the summed makespan attributed to `phase` (0 when
    /// the trace is empty).
    pub fn share(&self, phase: Phase) -> f64 {
        if self.total_us == 0 {
            return 0.0;
        }
        self.phase_us[phase.index()] as f64 / self.total_us as f64
    }

    /// One-line human rendering of the composition.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} job(s), {} completed, {:.3}s total makespan:",
            self.jobs,
            self.completed,
            SimTime(self.total_us).as_secs_f64()
        );
        for p in PHASES {
            let _ = write!(out, "  {} {:.1}%", p.name(), self.share(p) * 100.0);
        }
        out
    }

    /// The composition as a JSON object (byte-deterministic).
    pub fn to_json(&self) -> String {
        let mut phases = String::new();
        for (i, p) in PHASES.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            let _ = write!(
                phases,
                "\"{}\":{{\"us\":{},\"share\":{:.6},\"dominates\":{}}}",
                p.name(),
                self.phase_us[p.index()],
                self.share(*p),
                self.dominant_jobs[p.index()]
            );
        }
        format!(
            "{{\"jobs\":{},\"completed\":{},\"total_us\":{},\"transfers\":{},\
             \"revocations\":{},\"phases\":{{{phases}}}}}",
            self.jobs, self.completed, self.total_us, self.transfers, self.revocations
        )
    }
}

/// Per-job span trees folded from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// Closed jobs in submission order.
    pub jobs: Vec<JobSpanTree>,
    /// Jobs submitted but never completed/failed in the trace.
    pub unclosed_jobs: usize,
}

impl SpanTree {
    /// Fold an in-memory event stream into span trees.
    pub fn from_events(events: &[TraceEvent]) -> SpanTree {
        let (profile, structure) = Fold::over(events);
        SpanTree {
            jobs: profile
                .jobs
                .into_iter()
                .zip(structure)
                .map(|(jp, js)| build_job_tree(jp, js))
                .collect(),
            unclosed_jobs: profile.unclosed_jobs,
        }
    }

    /// Aggregate critical-path composition across all closed jobs.
    pub fn composition(&self) -> Composition {
        let mut c = Composition {
            jobs: self.jobs.len(),
            completed: self.jobs.iter().filter(|j| j.completed).count(),
            total_us: 0,
            phase_us: [0; 5],
            dominant_jobs: [0; 5],
            transfers: 0,
            revocations: 0,
        };
        for j in &self.jobs {
            c.total_us += j.makespan_us();
            for s in &j.spans {
                if let Some(p) = s.kind.phase() {
                    if s.partition {
                        c.phase_us[p.index()] += s.us();
                    }
                }
                if s.kind == SpanKind::Transfer {
                    c.transfers += 1;
                }
                c.revocations += u64::from(s.revocations);
            }
            c.dominant_jobs[j.dominant_phase().index()] += 1;
        }
        c
    }

    /// Byte-deterministic JSONL export: one object per span, jobs in
    /// submission order, spans in arena (pre-)order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for j in &self.jobs {
            let class = j.class.replace('\\', "\\\\").replace('"', "\\\"");
            for (i, s) in j.spans.iter().enumerate() {
                let parent = match s.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                };
                let causes: Vec<String> = s.causes.iter().map(Cause::to_json).collect();
                let _ = writeln!(
                    out,
                    "{{\"job\":{},\"class\":\"{}\",\"span\":{i},\"parent\":{parent},\
                     \"kind\":\"{}\",\"attempt\":{},\"start\":{},\"end\":{},\
                     \"partition\":{},\"revocations\":{},\"causes\":[{}]}}",
                    j.job,
                    class,
                    s.kind.name(),
                    s.attempt,
                    s.start.0,
                    s.end.0,
                    s.partition,
                    s.revocations,
                    causes.join(",")
                );
            }
        }
        out
    }

    /// Human-readable tree rendering: one indented block per job, each
    /// span with its interval, duration and causes, then the
    /// composition line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for j in &self.jobs {
            let root = j.root();
            let _ = writeln!(
                out,
                "job {} {} [{:.3}s .. {:.3}s] {} attempts={}",
                j.job,
                j.class,
                root.start.as_secs_f64(),
                root.end.as_secs_f64(),
                if j.completed { "completed" } else { "failed" },
                j.attempts
            );
            for s in j.spans.iter().skip(1) {
                // Depth = chain length to the root.
                let mut depth = 0usize;
                let mut p = s.parent;
                while let Some(i) = p {
                    depth += 1;
                    p = j.spans[i].parent;
                }
                let indent = "  ".repeat(depth);
                let mut line = format!(
                    "{indent}{} [{:.3}s .. {:.3}s] {:.3}s",
                    s.kind.name(),
                    s.start.as_secs_f64(),
                    s.end.as_secs_f64(),
                    SimTime(s.us()).as_secs_f64()
                );
                if s.kind == SpanKind::Attempt {
                    let _ = write!(line, " (attempt {})", s.attempt);
                }
                if s.revocations > 0 {
                    let _ = write!(line, " revocations={}", s.revocations);
                }
                for c in &s.causes {
                    let _ = write!(line, " <- {}", c.render());
                }
                let _ = writeln!(out, "{line}");
            }
            let _ = writeln!(
                out,
                "  critical path: {}",
                j.critical_path()
                    .iter()
                    .filter(|s| s.us() > 0)
                    .map(|s| format!("{} {:.3}s", s.kind.name(), SimTime(s.us()).as_secs_f64()))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
        }
        let _ = writeln!(out, "{}", self.composition().render());
        if self.unclosed_jobs > 0 {
            let _ = writeln!(
                out,
                "note: {} job(s) still open at end of trace",
                self.unclosed_jobs
            );
        }
        out
    }
}

/// Assemble one job's span arena from its profile row (phase
/// durations) and its structure (attempt boundaries, causes,
/// transfers).
fn build_job_tree(jp: JobProfile, structure: JobStructure) -> JobSpanTree {
    let mut spans = vec![
        Span::new(SpanKind::Job, jp.submit, jp.finish, None, 0),
        Span::new(
            SpanKind::QueueWait,
            jp.submit,
            jp.first_dispatch,
            Some(0),
            0,
        ),
    ];
    let mut attempt_span_idx: Vec<usize> = Vec::with_capacity(structure.attempts.len());
    let mut attempts = structure.attempts.into_iter().enumerate().peekable();
    while let Some((i, a)) = attempts.next() {
        let n = (i + 1) as u32;
        let next = attempts.peek().map(|(_, b)| b.at);
        let end = next.unwrap_or(jp.finish);
        let idx = spans.len();
        attempt_span_idx.push(idx);
        spans.push(Span {
            causes: a.causes,
            revocations: a.revocations,
            ..Span::new(SpanKind::Attempt, a.at, end, Some(0), n)
        });
        let leaf = |kind, start, end| Span::new(kind, start, end, Some(idx), n);
        if next.is_some() {
            // Everything between two dispatches — the failed run, its
            // backoff, and any re-queue wait — is retry-backoff, the
            // same lump simprof charges to that phase.
            spans.push(leaf(SpanKind::RetryBackoff, a.at, end));
        } else {
            // The final window splits exactly as simprof attributes it.
            let c1 = SimTime(a.at.0 + jp.bucket_us(Phase::Compute));
            let b1 = SimTime(c1.0 + jp.bucket_us(Phase::BorderExchange));
            spans.push(leaf(SpanKind::Compute, a.at, c1));
            spans.push(leaf(SpanKind::BorderExchange, c1, b1));
            spans.push(leaf(SpanKind::ContentionWait, b1, jp.finish));
        }
    }

    for (attempt, start, end) in structure.transfers {
        let slot = (attempt as usize)
            .min(attempt_span_idx.len())
            .saturating_sub(1);
        if let Some(&parent) = attempt_span_idx.get(slot) {
            spans.push(Span::new(
                SpanKind::Transfer,
                start,
                end,
                Some(parent),
                attempt,
            ));
        }
    }

    JobSpanTree {
        job: jp.job,
        class: jp.kind,
        completed: jp.completed,
        attempts: jp.attempts,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profile;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// Same shape as simprof's test stream: one job, a revoked first
    /// attempt, a successful second attempt with a transfer.
    fn retry_stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi".into(),
                at: t(0.0),
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: t(2.0),
                attempt: 1,
            },
            TraceEvent::ComputeStart {
                host: HostId(1),
                at: t(2.0),
                work_mflop: 10.0,
            },
            TraceEvent::PlacementRevoked {
                host: HostId(1),
                at: t(4.0),
            },
            TraceEvent::JobRetried {
                job: 0,
                at: t(5.0),
                attempt: 1,
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: t(5.0),
                attempt: 2,
            },
            TraceEvent::ComputeStart {
                host: HostId(2),
                at: t(5.0),
                work_mflop: 10.0,
            },
            TraceEvent::ComputeStart {
                host: HostId(3),
                at: t(5.0),
                work_mflop: 10.0,
            },
            TraceEvent::TransferStart {
                from: HostId(2),
                to: HostId(3),
                at: t(5.0),
                mb: 4.0,
            },
            TraceEvent::TransferFinish {
                from: HostId(2),
                to: HostId(3),
                at: t(7.0),
                mb: 4.0,
                contention_share: 0.5,
            },
            TraceEvent::ComputeFinish {
                host: HostId(2),
                at: t(9.0),
                elapsed_seconds: 3.0,
            },
            TraceEvent::ComputeFinish {
                host: HostId(3),
                at: t(9.0),
                elapsed_seconds: 3.0,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: t(11.0),
                exec_seconds: 9.0,
            },
        ]
    }

    #[test]
    fn partition_leaves_tile_the_makespan_exactly() {
        let tree = SpanTree::from_events(&retry_stream());
        assert_eq!(tree.jobs.len(), 1);
        let j = &tree.jobs[0];
        let leaves = j.critical_path();
        // Contiguous: each leaf starts where the previous ended.
        let mut cursor = j.root().start;
        for leaf in &leaves {
            assert_eq!(leaf.start, cursor, "gap before {}", leaf.kind.name());
            cursor = leaf.end;
        }
        assert_eq!(cursor, j.root().end);
        let sum: u64 = leaves.iter().map(|s| s.us()).sum();
        assert_eq!(sum, j.makespan_us());
        assert_eq!(j.makespan_us(), 11_000_000);
    }

    #[test]
    fn spans_reconcile_with_simprof_to_zero_microseconds() {
        let events = retry_stream();
        let tree = SpanTree::from_events(&events);
        let profile = Profile::from_events(&events);
        let j = &tree.jobs[0];
        let jp = &profile.jobs[0];
        for phase in PHASES {
            let span_us: u64 = j
                .spans
                .iter()
                .filter(|s| s.partition && s.kind.phase() == Some(phase))
                .map(|s| s.us())
                .sum();
            assert_eq!(span_us, jp.bucket_us(phase), "phase {}", phase.name());
        }
    }

    #[test]
    fn causes_link_revocation_retry_and_transfers_attach() {
        let tree = SpanTree::from_events(&retry_stream());
        let j = &tree.jobs[0];
        let attempt1 = j
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Attempt && s.attempt == 1)
            .unwrap();
        // The revocation was absorbed by (and counted against) the
        // attempt it killed.
        assert_eq!(attempt1.revocations, 1);
        let attempt2 = j
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Attempt && s.attempt == 2)
            .unwrap();
        assert!(attempt2
            .causes
            .contains(&Cause::Retried { failed_attempt: 1 }));
        assert!(attempt2.causes.contains(&Cause::Revoked {
            host: HostId(1),
            at: t(4.0),
        }));
        // The transfer annotation hangs off attempt 2 and is excluded
        // from the partition.
        let transfer = j
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Transfer)
            .unwrap();
        assert_eq!(transfer.attempt, 2);
        assert!(!transfer.partition);
        assert_eq!(j.spans[transfer.parent.unwrap()].attempt, 2);
    }

    #[test]
    fn backfill_cause_attaches_to_the_dispatch_it_started() {
        let events = vec![
            TraceEvent::JobSubmitted {
                job: 3,
                kind: "nile".into(),
                at: t(0.0),
            },
            TraceEvent::JobBackfilled {
                job: 3,
                at: t(2.0),
                reservation: t(50.0),
            },
            TraceEvent::JobDispatched {
                job: 3,
                at: t(2.0),
                attempt: 1,
            },
            TraceEvent::JobCompleted {
                job: 3,
                at: t(6.0),
                exec_seconds: 4.0,
            },
        ];
        let tree = SpanTree::from_events(&events);
        let j = &tree.jobs[0];
        let attempt = j
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Attempt)
            .unwrap();
        assert_eq!(
            attempt.causes,
            vec![Cause::Backfilled {
                reservation: t(50.0)
            }]
        );
    }

    #[test]
    fn work_measured_splits_fractional_window_into_compute() {
        // A fractional-regime job: no executor events, but the
        // scheduler published the dedicated-equivalent work.
        let events = vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi".into(),
                at: t(0.0),
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: t(1.0),
                attempt: 1,
            },
            TraceEvent::JobWorkMeasured {
                job: 0,
                at: t(1.0),
                dedicated_seconds: 6.0,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: t(11.0),
                exec_seconds: 10.0,
            },
        ];
        let tree = SpanTree::from_events(&events);
        let j = &tree.jobs[0];
        let us = |kind: SpanKind| -> u64 {
            j.spans
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.us())
                .sum()
        };
        // 10 s window: 6 s dedicated compute, 4 s PS dilution.
        assert_eq!(us(SpanKind::Compute), 6_000_000);
        assert_eq!(us(SpanKind::ContentionWait), 4_000_000);
        assert_eq!(j.dominant_phase(), Phase::Compute);
    }

    #[test]
    fn jsonl_and_render_are_byte_deterministic() {
        let events = retry_stream();
        let a = SpanTree::from_events(&events);
        let b = SpanTree::from_events(&events);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.render(), b.render());
        assert!(a.to_jsonl().contains("\"kind\":\"retry-backoff\""));
        assert!(a.render().contains("critical path:"));
        // And via the trace-text path.
        let jsonl: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let (parsed, skipped) = TraceEvent::from_jsonl(&jsonl);
        assert_eq!(skipped, 0);
        let c = SpanTree::from_events(&parsed);
        assert_eq!(c.to_jsonl(), a.to_jsonl());
    }

    #[test]
    fn composition_aggregates_and_serializes() {
        let tree = SpanTree::from_events(&retry_stream());
        let c = tree.composition();
        assert_eq!(c.jobs, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.total_us, 11_000_000);
        let sum: u64 = c.phase_us.iter().sum();
        assert_eq!(sum, c.total_us);
        assert_eq!(c.transfers, 1);
        assert_eq!(c.revocations, 1);
        let json = c.to_json();
        assert!(json.contains("\"total_us\":11000000"));
        assert_eq!(json, tree.composition().to_json());
    }

    #[test]
    fn empty_trace_folds_cleanly() {
        let tree = SpanTree::from_events(&[]);
        assert!(tree.jobs.is_empty());
        assert_eq!(tree.to_jsonl(), "");
        let c = tree.composition();
        assert_eq!(c.total_us, 0);
        assert_eq!(c.share(Phase::Compute), 0.0);
    }
}
