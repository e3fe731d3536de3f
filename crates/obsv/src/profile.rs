//! simprof: time-attribution profiling of a trace stream.
//!
//! Answers "where did the simulated seconds go?" by folding the event
//! stream into per-job, per-host and per-phase buckets. The five
//! phases partition each job's makespan *exactly* (integer
//! microseconds, no float residue):
//!
//! * **queue-wait** — submission to first dispatch (FCFS admission),
//! * **retry-backoff** — first dispatch to last dispatch (failed
//!   attempts and their backoff windows),
//! * **compute** — the per-worker mean of compute wall-clock inside
//!   the final execution window,
//! * **border-exchange** — the per-worker mean of *ideal* transfer
//!   time (duration × contention share): what moving the data would
//!   cost with the bottleneck link to itself,
//! * **contention-wait** — the remainder of the execution window:
//!   bandwidth lost to competing flows, co-allocation barrier skew,
//!   and any executor time the trace does not itemize.
//!
//! A [`Profile`] is one view of the crate's single trace fold
//! (`fold.rs`); [`crate::SpanTree`] is another, so the two agree to
//! the microsecond. Accumulators reset on each dispatch, so only the
//! final attempt's events shape the split of the execution window —
//! earlier attempts are wall-clock inside retry-backoff. The fold keeps
//! each host's compute intervals (not the events) for the gantt's host
//! lanes, which share the job lanes' columns over the trace span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use metasim::simtrace::TraceEvent;
use metasim::{HostId, SimTime};

use crate::fold::Fold;

/// One attribution bucket. Order is significant: it is the emission
/// order in folded stacks and tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Submission to first dispatch.
    QueueWait,
    /// First dispatch to final dispatch (failed attempts + backoff).
    RetryBackoff,
    /// Per-worker mean compute wall-clock in the final attempt.
    Compute,
    /// Per-worker mean ideal (uncontended) transfer time.
    BorderExchange,
    /// Remainder: contention, barrier skew, unitemized executor time.
    ContentionWait,
}

/// All phases, in canonical order.
pub const PHASES: [Phase; 5] = [
    Phase::QueueWait,
    Phase::RetryBackoff,
    Phase::Compute,
    Phase::BorderExchange,
    Phase::ContentionWait,
];

impl Phase {
    /// Stable kebab-case name (used in folded stacks and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue-wait",
            Phase::RetryBackoff => "retry-backoff",
            Phase::Compute => "compute",
            Phase::BorderExchange => "border-exchange",
            Phase::ContentionWait => "contention-wait",
        }
    }

    /// Position in [`PHASES`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Attribution for one job. The five buckets sum to
/// `finish - submit` exactly (integer microseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Submission-order index.
    pub job: usize,
    /// Job class name.
    pub kind: String,
    /// Submission time.
    pub submit: SimTime,
    /// First dispatch.
    pub first_dispatch: SimTime,
    /// Final (successful or last-failed) dispatch.
    pub last_dispatch: SimTime,
    /// Completion or final-failure time.
    pub finish: SimTime,
    /// Attempts made.
    pub attempts: u32,
    /// Whether the job completed (vs. exhausted its retries).
    pub completed: bool,
    /// Distinct hosts that computed for this job (final attempt).
    pub hosts: Vec<HostId>,
    pub(crate) bucket_us: [u64; 5],
}

impl JobProfile {
    /// Microseconds attributed to `phase`.
    pub fn bucket_us(&self, phase: Phase) -> u64 {
        self.bucket_us[phase.index()]
    }

    /// Seconds attributed to `phase`.
    pub fn bucket_seconds(&self, phase: Phase) -> f64 {
        SimTime(self.bucket_us[phase.index()]).as_secs_f64()
    }

    /// Submission-to-finish, microseconds. Equals the bucket sum.
    pub fn makespan_us(&self) -> u64 {
        self.finish.saturating_sub(self.submit).0
    }

    /// Submission-to-finish, seconds.
    pub fn makespan_seconds(&self) -> f64 {
        self.finish.saturating_sub(self.submit).as_secs_f64()
    }
}

/// Per-host totals over the whole trace (all jobs and non-job events).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostProfile {
    /// Workers started on this host (`compute_start` count).
    pub workers: usize,
    /// Total compute wall-clock on this host, seconds.
    pub compute_seconds: f64,
    /// MB sent from this host.
    pub mb_sent: f64,
    /// MB delivered to this host.
    pub mb_received: f64,
    /// Ideal (uncontended) seconds of transfers sent from this host.
    pub border_seconds: f64,
    /// Extra transfer seconds lost to contention, from this host.
    pub contention_seconds: f64,
}

/// Trace-wide execution-time shares (worker-seconds, normalized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecShares {
    /// Fraction of worker-seconds spent computing.
    pub compute: f64,
    /// Fraction spent on ideal border exchange.
    pub border_exchange: f64,
    /// Fraction lost to transfer contention.
    pub contention_wait: f64,
}

/// The folded profile of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Closed jobs, in submission order.
    pub jobs: Vec<JobProfile>,
    /// Per-host totals, keyed by host.
    pub hosts: BTreeMap<HostId, HostProfile>,
    /// First and last event timestamps.
    pub span: Option<(SimTime, SimTime)>,
    /// Events folded.
    pub events: usize,
    /// Jobs submitted but never completed/failed in the trace.
    pub unclosed_jobs: usize,
    /// Each host's compute intervals `[finish - elapsed, finish]`,
    /// seconds, for the gantt's host lanes.
    pub(crate) busy: BTreeMap<HostId, Vec<(f64, f64)>>,
}

impl Profile {
    /// Fold an in-memory event stream.
    pub fn from_events(events: &[TraceEvent]) -> Profile {
        Fold::over(events).0
    }

    /// Trace-wide execution-time shares from the per-host totals.
    /// Returns `None` when the trace has no compute or transfer time.
    pub fn exec_shares(&self) -> Option<ExecShares> {
        let mut compute = 0.0;
        let mut border = 0.0;
        let mut contention = 0.0;
        for h in self.hosts.values() {
            compute += h.compute_seconds;
            border += h.border_seconds;
            contention += h.contention_seconds;
        }
        let total = compute + border + contention;
        if total.total_cmp(&0.0).is_le() || !total.is_finite() {
            return None;
        }
        Some(ExecShares {
            compute: compute / total,
            border_exchange: border / total,
            contention_wait: contention / total,
        })
    }

    /// Flamegraph-compatible folded stacks, one line per frame chain:
    /// `grid;job<idx>:<kind>;<phase> <microseconds>` for each job, then
    /// `host<h>;<component> <microseconds>` for each host. Zero-count
    /// frames are omitted. Byte-deterministic for a given trace.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for j in &self.jobs {
            for phase in PHASES {
                let us = j.bucket_us(phase);
                if us == 0 {
                    continue;
                }
                let _ = writeln!(out, "grid;job{}:{};{} {us}", j.job, j.kind, phase.name());
            }
        }
        for (host, h) in &self.hosts {
            for (component, secs) in [
                ("compute", h.compute_seconds),
                ("border-exchange", h.border_seconds),
                ("contention-wait", h.contention_seconds),
            ] {
                let us = secs_to_us(secs);
                if us == 0 {
                    continue;
                }
                let _ = writeln!(out, "host{};{component} {us}", host.0);
            }
        }
        out
    }

    /// ASCII Gantt chart of the job stream plus per-host utilization
    /// lanes, `width` columns wide over the trace span.
    ///
    /// Job lanes: `.` queued, `~` retry/backoff, `#` executing.
    /// Host lanes shade busy fraction per column with ` .:-=+*#%@`.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.clamp(16, 512);
        let Some((t0, t1)) = self.span else {
            return String::from("(empty trace)\n");
        };
        let span_us = t1.saturating_sub(t0).0.max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span {:.3}s .. {:.3}s  ({} events, {} jobs)",
            t0.as_secs_f64(),
            t1.as_secs_f64(),
            self.events,
            self.jobs.len()
        );
        if !self.jobs.is_empty() {
            let _ = writeln!(out, "jobs  [.] queued  [~] retry/backoff  [#] executing");
            let label_w = self
                .jobs
                .iter()
                .map(|j| format!("job{}:{}", j.job, j.kind).len())
                .max()
                .unwrap_or(0);
            for j in &self.jobs {
                let mut lane = vec![' '; width];
                for (col, slot) in lane.iter_mut().enumerate() {
                    // Column midpoint in trace time.
                    let t = t0.0 + (span_us * (2 * col as u64 + 1)) / (2 * width as u64);
                    let c = if t < j.submit.0 || t >= j.finish.0 {
                        ' '
                    } else if t < j.first_dispatch.0 {
                        '.'
                    } else if t < j.last_dispatch.0 {
                        '~'
                    } else {
                        '#'
                    };
                    *slot = c;
                }
                let label = format!("job{}:{}", j.job, j.kind);
                let lane: String = lane.into_iter().collect();
                let _ = writeln!(out, "{label:label_w$} |{lane}|");
            }
        }
        if !self.hosts.is_empty() {
            let _ = writeln!(out, "hosts (busy fraction per column)");
            // The job lanes' columns: `width` equal slices of [t0, t1].
            // Overlapping workers on one host can push a column above
            // 1 (demand utilization); the ramp saturates.
            let t0_s = t0.as_secs_f64();
            let col_s = span_us as f64 / 1e6 / width as f64;
            const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
            for (host, intervals) in &self.busy {
                let mut frac = vec![0.0; width];
                for &(start, fin) in intervals {
                    // The interval in column units.
                    let (a, b) = ((start - t0_s) / col_s, (fin - t0_s) / col_s);
                    let first = a.floor().max(0.0) as usize;
                    let last = (b.ceil().max(0.0) as usize).min(width);
                    for (col, f) in frac.iter_mut().enumerate().take(last).skip(first) {
                        let c = col as f64;
                        *f += (b.min(c + 1.0) - a.max(c)).max(0.0);
                    }
                }
                let mut lane = String::with_capacity(width);
                for f in frac {
                    let i = ((f * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                    lane.push(RAMP[i]);
                }
                let _ = writeln!(out, "host{:<4} |{lane}|", host.0);
            }
        }
        out
    }

    /// Plain-text attribution table: one row per job with the five
    /// bucket seconds and their share of the makespan, then per-host
    /// totals and the trace-wide execution shares.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.jobs.is_empty() {
            let _ = writeln!(
                out,
                "{:<6} {:<12} {:>3} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "job",
                "kind",
                "ok",
                "try",
                "makespan",
                "queue",
                "retry",
                "compute",
                "border",
                "contend"
            );
            for j in &self.jobs {
                let _ = writeln!(
                    out,
                    "{:<6} {:<12} {:>3} {:>4} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s",
                    j.job,
                    truncate(&j.kind, 12),
                    if j.completed { "yes" } else { "no" },
                    j.attempts,
                    j.makespan_seconds(),
                    j.bucket_seconds(Phase::QueueWait),
                    j.bucket_seconds(Phase::RetryBackoff),
                    j.bucket_seconds(Phase::Compute),
                    j.bucket_seconds(Phase::BorderExchange),
                    j.bucket_seconds(Phase::ContentionWait),
                );
            }
        }
        if !self.hosts.is_empty() {
            let _ = writeln!(
                out,
                "{:<6} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}",
                "host", "workers", "compute", "mb-out", "mb-in", "border", "contend"
            );
            for (host, h) in &self.hosts {
                let _ = writeln!(
                    out,
                    "{:<6} {:>7} {:>11.3}s {:>10.1} {:>10.1} {:>9.3}s {:>9.3}s",
                    host.0,
                    h.workers,
                    h.compute_seconds,
                    h.mb_sent,
                    h.mb_received,
                    h.border_seconds,
                    h.contention_seconds,
                );
            }
        }
        if let Some(s) = self.exec_shares() {
            let _ = writeln!(
                out,
                "exec shares: compute {:.1}%  border-exchange {:.1}%  contention-wait {:.1}%",
                s.compute * 100.0,
                s.border_exchange * 100.0,
                s.contention_wait * 100.0
            );
        }
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

pub(crate) fn secs_to_us(secs: f64) -> u64 {
    if !secs.is_finite() || secs.total_cmp(&0.0).is_le() {
        return 0;
    }
    // simlint: allow(sim-time-hygiene): the sanctioned seconds->micros boundary; trace events carry f64 seconds and round-to-nearest differs deliberately from SimTime::from_secs_f64's ceil
    (secs * 1_000_000.0).round() as u64
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

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
    fn buckets_partition_makespan_exactly() {
        let p = Profile::from_events(&retry_stream());
        assert_eq!(p.jobs.len(), 1);
        let j = &p.jobs[0];
        let sum: u64 = PHASES.iter().map(|&ph| j.bucket_us(ph)).sum();
        assert_eq!(sum, j.makespan_us());
        assert_eq!(j.makespan_us(), 11_000_000);
        assert_eq!(j.bucket_us(Phase::QueueWait), 2_000_000);
        assert_eq!(j.bucket_us(Phase::RetryBackoff), 3_000_000);
        // Final window 6 s; 2 workers × 3 s compute → 3 s.
        assert_eq!(j.bucket_us(Phase::Compute), 3_000_000);
        // One 2 s transfer at share 0.5 → 1 s ideal over 2 workers.
        assert_eq!(j.bucket_us(Phase::BorderExchange), 500_000);
        assert_eq!(j.bucket_us(Phase::ContentionWait), 2_500_000);
        assert!(j.completed);
        assert_eq!(j.attempts, 2);
        // First-attempt state was reset: only hosts 2 and 3 remain.
        assert_eq!(j.hosts, vec![HostId(2), HostId(3)]);
    }

    #[test]
    fn folded_output_is_deterministic_and_nonempty() {
        let events = retry_stream();
        let a = Profile::from_events(&events).folded();
        let b = Profile::from_events(&events).folded();
        assert_eq!(a, b);
        assert!(a.contains("grid;job0:jacobi;compute 3000000"));
        assert!(a.contains("host2;border-exchange 1000000"));
    }

    #[test]
    fn jsonl_roundtrip_matches_in_memory() {
        let events = retry_stream();
        let jsonl: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let (parsed, skipped) = TraceEvent::from_jsonl(&jsonl);
        assert_eq!(skipped, 0);
        let from_text = Profile::from_events(&parsed);
        let from_mem = Profile::from_events(&events);
        assert_eq!(from_text.jobs, from_mem.jobs);
        assert_eq!(from_text.folded(), from_mem.folded());
    }

    #[test]
    fn gantt_and_table_render() {
        let p = Profile::from_events(&retry_stream());
        let g = p.gantt(40);
        assert!(g.contains("job0:jacobi"));
        assert!(g.contains("host2"));
        let t = p.table();
        assert!(t.contains("jacobi"));
        assert!(t.contains("exec shares"));
    }

    #[test]
    fn gantt_host_lanes_share_the_job_lanes_columns() {
        // The trace starts at 100 s; host 1 computes over the first
        // half of it, [100, 150], and the job executes throughout.
        let events = vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "x".into(),
                at: t(100.0),
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: t(100.0),
                attempt: 1,
            },
            TraceEvent::ComputeStart {
                host: HostId(1),
                at: t(100.0),
                work_mflop: 10.0,
            },
            TraceEvent::ComputeFinish {
                host: HostId(1),
                at: t(150.0),
                elapsed_seconds: 50.0,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: t(200.0),
                exec_seconds: 100.0,
            },
        ];
        let g = Profile::from_events(&events).gantt(16);
        assert!(g.contains("job0:x |################|"), "{g}");
        // Buckets from t = 0 would show [0, 100] here: an empty lane.
        assert!(g.contains("host1    |@@@@@@@@        |"), "{g}");
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let p = Profile::from_events(&[]);
        assert!(p.jobs.is_empty());
        assert_eq!(p.folded(), "");
        assert_eq!(p.gantt(40), "(empty trace)\n");
        assert!(p.exec_shares().is_none());
    }

    #[test]
    fn unclosed_jobs_are_counted_not_invented() {
        let events = vec![TraceEvent::JobSubmitted {
            job: 0,
            kind: "x".into(),
            at: t(0.0),
        }];
        let p = Profile::from_events(&events);
        assert!(p.jobs.is_empty());
        assert_eq!(p.unclosed_jobs, 1);
    }
}
