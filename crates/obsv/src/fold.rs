//! The one fold over a trace that [`Profile`], [`SpanTree`] and the
//! metrics registry are views of.
//!
//! [`Fold::add`] takes one event at a time, so the fold runs both over
//! a stream in memory and live behind [`MetricsSink`]. It keeps
//! everything the three views need: per closed job, the five phase
//! buckets (simprof's rows) together with each attempt's dispatch
//! instant, its cause edges and the revocations it absorbed, and the
//! transfer intervals of the job's attempts (the span tree's
//! structure); per host, the totals and the compute intervals the
//! gantt's host lanes are drawn from; and the registry's typed
//! accumulators ([`Tally`]). Because the span leaves are cut from the
//! same buckets in the same pass, spans and simprof reconcile to 0 µs
//! by construction.
//!
//! The grid service processes jobs sequentially in admission order, so
//! executor events between a `job_dispatched` and the matching
//! `job_completed`/`job_retried`/`job_failed` belong to that job; the
//! fold tracks the open job while folding. Each transfer finish is
//! matched to the oldest open start on its `(from, to)` pair.
//!
//! [`Profile`]: crate::Profile
//! [`SpanTree`]: crate::SpanTree
//! [`MetricsSink`]: crate::MetricsSink

use std::collections::{BTreeMap, VecDeque};

use metasim::simtrace::{TraceEvent, KINDS};
use metasim::{HostId, SimTime};

use crate::profile::{secs_to_us, HostProfile, JobProfile, Profile};
use crate::registry::Histogram;
use crate::span::Cause;

/// One dispatch of a job.
#[derive(Debug)]
pub(crate) struct Attempt {
    /// Dispatch instant.
    pub(crate) at: SimTime,
    /// Why this attempt exists (retry, revocation, backfill).
    pub(crate) causes: Vec<Cause>,
    /// Placement revocations the attempt absorbed.
    pub(crate) revocations: u32,
}

/// The span-tree half of one closed job.
#[derive(Debug)]
pub(crate) struct JobStructure {
    /// Attempts in dispatch order.
    pub(crate) attempts: Vec<Attempt>,
    /// `(attempt, start, finish)` of each matched transfer.
    pub(crate) transfers: Vec<(u32, SimTime, SimTime)>,
}

/// What the metrics registry reads off the fold, accumulated in event
/// order under the registry's rules: a counter takes only finite,
/// non-negative increments and its series starts with the first one
/// (`None` before it); a histogram takes every value, NaN included (it
/// is counted as dropped).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tally {
    /// Events by kind, indexed like [`KINDS`].
    pub(crate) kinds: [u64; KINDS.len()],
    /// Reschedule decisions by `migrated` (`false`, `true`).
    pub(crate) migrated: [u64; 2],
    pub(crate) work_mflop: Option<f64>,
    pub(crate) transfer_mb: Option<f64>,
    pub(crate) host_busy_seconds: BTreeMap<HostId, Option<f64>>,
    /// Jobs submitted or awaiting retry but not yet dispatched (never
    /// below 0) and its high-water mark, from the first queue event.
    pub(crate) queue: Option<(i64, i64)>,
    /// The time of the last event folded (not the latest time).
    pub(crate) last_at: Option<SimTime>,
    pub(crate) compute_seconds: Histogram,
    pub(crate) transfer_seconds: Histogram,
    pub(crate) contention_share: Histogram,
    pub(crate) forecast_abs_error: Histogram,
    pub(crate) selection_candidates: Histogram,
    pub(crate) job_exec_seconds: Histogram,
}

impl Default for Tally {
    fn default() -> Tally {
        let dur = Histogram::log_spaced(1e-3, 1e4, 3);
        Tally {
            kinds: [0; KINDS.len()],
            migrated: [0; 2],
            work_mflop: None,
            transfer_mb: None,
            host_busy_seconds: BTreeMap::new(),
            queue: None,
            last_at: None,
            compute_seconds: dur.clone(),
            transfer_seconds: dur.clone(),
            contention_share: Histogram::with_boundaries(
                (1..=10).map(|i| f64::from(i) / 10.0).collect(),
            ),
            forecast_abs_error: Histogram::log_spaced(1e-4, 10.0, 3),
            selection_candidates: Histogram::with_boundaries(vec![
                1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
            ]),
            job_exec_seconds: dur,
        }
    }
}

impl Tally {
    fn enqueue(&mut self, delta: i64) {
        let (depth, peak) = self.queue.get_or_insert((0, 0));
        *depth = (*depth + delta).max(0);
        *peak = (*peak).max(*depth);
    }
}

/// Add `by` to a registry counter; see [`Tally`].
fn increment(counter: &mut Option<f64>, by: f64) {
    if by.is_finite() && by.total_cmp(&0.0).is_ge() {
        *counter.get_or_insert(0.0) += by;
    }
}

/// The fold's state after the events added so far.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    open: BTreeMap<usize, OpenJob>,
    closed: Vec<(JobProfile, JobStructure)>,
    hosts: BTreeMap<HostId, HostProfile>,
    busy: BTreeMap<HostId, Vec<(f64, f64)>>,
    open_transfers: BTreeMap<(HostId, HostId), VecDeque<SimTime>>,
    /// Revocations emitted but not yet tied to a lifecycle event.
    revocations: Vec<(HostId, SimTime)>,
    current: Option<usize>,
    span: Option<(SimTime, SimTime)>,
    pub(crate) tally: Tally,
}

#[derive(Debug, Default)]
struct OpenJob {
    kind: String,
    submit: SimTime,
    attempts: u32,
    dispatches: Vec<Attempt>,
    /// Causes accumulated for the *next* dispatch.
    pending_causes: Vec<Cause>,
    transfers: Vec<(u32, SimTime, SimTime)>,
    // Final-attempt accumulators (reset on each dispatch): only the
    // final attempt's events shape the execution-window split.
    workers: usize,
    compute_ws: f64,
    border_ws: f64,
    hosts: Vec<HostId>,
}

impl OpenJob {
    /// Charge the revocations emitted since the last lifecycle event
    /// to the current attempt. Producers emit `placement_revoked`
    /// strictly before the victim's `job_retried`/`job_failed`, so
    /// draining at the next lifecycle event attributes them correctly.
    /// On a retry the first revocation is also a cause of the next
    /// attempt; revocations an attempt absorbed without dying, or that
    /// ended it for good, are only counted.
    fn absorb(&mut self, pending: &mut Vec<(HostId, SimTime)>, as_cause: bool) {
        if let Some(a) = self.dispatches.last_mut() {
            a.revocations += pending.len() as u32;
        }
        if as_cause {
            if let Some(&(host, at)) = pending.first() {
                self.pending_causes.push(Cause::Revoked { host, at });
            }
        }
        pending.clear();
    }

    fn close(self, job: usize, finish: SimTime, completed: bool) -> (JobProfile, JobStructure) {
        let submit = self.submit;
        let first_dispatch = self.dispatches.first().map_or(finish, |a| a.at);
        let last_dispatch = self.dispatches.last().map_or(finish, |a| a.at);
        let queue_us = first_dispatch.saturating_sub(submit).0;
        let retry_us = last_dispatch.saturating_sub(first_dispatch).0;
        let window_us = finish.saturating_sub(last_dispatch).0;
        // Worker-seconds → wall-clock inside the window: divide by the
        // worker count (co-allocated workers run in parallel). Clamp
        // each bucket so the three always partition the window exactly.
        let n = self.workers.max(1) as f64;
        let compute_us = secs_to_us(self.compute_ws / n).min(window_us);
        let border_us = secs_to_us(self.border_ws / n).min(window_us - compute_us);
        let contention_us = window_us - compute_us - border_us;
        let mut hosts = self.hosts;
        hosts.sort();
        let profile = JobProfile {
            job,
            kind: self.kind,
            submit,
            first_dispatch,
            last_dispatch,
            finish,
            attempts: self.attempts,
            completed,
            hosts,
            bucket_us: [queue_us, retry_us, compute_us, border_us, contention_us],
        };
        let structure = JobStructure {
            attempts: self.dispatches,
            transfers: self.transfers,
        };
        (profile, structure)
    }
}

/// A finite reading of an event field (0 otherwise).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Fold {
    /// Fold one more event.
    pub(crate) fn add(&mut self, e: &TraceEvent) {
        let at = e.at();
        let (first, last) = self.span.unwrap_or((at, at));
        self.span = Some((first.min(at), last.max(at)));
        let t = &mut self.tally;
        t.kinds[e.kind_index()] += 1;
        t.last_at = Some(at);
        match e {
            TraceEvent::JobSubmitted { job, kind, at } => {
                t.enqueue(1);
                let j = OpenJob {
                    kind: kind.clone(),
                    submit: *at,
                    ..OpenJob::default()
                };
                self.open.insert(*job, j);
            }
            TraceEvent::JobDispatched { job, at, attempt } => {
                t.enqueue(-1);
                self.current = Some(*job);
                if let Some(j) = self.open.get_mut(job) {
                    j.attempts = j.attempts.max(*attempt);
                    j.dispatches.push(Attempt {
                        at: *at,
                        causes: std::mem::take(&mut j.pending_causes),
                        revocations: 0,
                    });
                    j.workers = 0;
                    j.compute_ws = 0.0;
                    j.border_ws = 0.0;
                    j.hosts.clear();
                }
            }
            TraceEvent::JobBackfilled {
                job, reservation, ..
            } => {
                if let Some(j) = self.open.get_mut(job) {
                    j.pending_causes.push(Cause::Backfilled {
                        reservation: *reservation,
                    });
                }
            }
            TraceEvent::PlacementRevoked { host, at } => self.revocations.push((*host, *at)),
            TraceEvent::JobRetried { job, attempt, .. } => {
                t.enqueue(1);
                if let Some(j) = self.open.get_mut(job) {
                    j.pending_causes.push(Cause::Retried {
                        failed_attempt: *attempt,
                    });
                    j.absorb(&mut self.revocations, true);
                }
            }
            TraceEvent::ComputeStart {
                host, work_mflop, ..
            } => {
                increment(&mut t.work_mflop, *work_mflop);
                self.hosts.entry(*host).or_default().workers += 1;
                if let Some(j) = self.current.and_then(|c| self.open.get_mut(&c)) {
                    j.workers += 1;
                    if !j.hosts.contains(host) {
                        j.hosts.push(*host);
                    }
                }
            }
            TraceEvent::ComputeFinish {
                host,
                at,
                elapsed_seconds,
            } => {
                t.compute_seconds.observe(*elapsed_seconds);
                let busy = t.host_busy_seconds.entry(*host).or_default();
                increment(busy, *elapsed_seconds);
                let elapsed = finite(*elapsed_seconds);
                self.hosts.entry(*host).or_default().compute_seconds += elapsed;
                let fin = at.as_secs_f64();
                let start = (fin - elapsed_seconds.max(0.0)).max(0.0);
                self.busy.entry(*host).or_default().push((start, fin));
                if let Some(j) = self.current.and_then(|c| self.open.get_mut(&c)) {
                    j.compute_ws += elapsed;
                }
            }
            TraceEvent::TransferStart { from, to, at, .. } => {
                self.open_transfers
                    .entry((*from, *to))
                    .or_default()
                    .push_back(*at);
            }
            TraceEvent::TransferFinish {
                from,
                to,
                at,
                mb,
                contention_share,
            } => {
                increment(&mut t.transfer_mb, *mb);
                t.contention_share.observe(*contention_share);
                let mb = finite(*mb);
                self.hosts.entry(*from).or_default().mb_sent += mb;
                self.hosts.entry(*to).or_default().mb_received += mb;
                let started = self
                    .open_transfers
                    .get_mut(&(*from, *to))
                    .and_then(VecDeque::pop_front);
                if let Some(started) = started {
                    let dur = at.saturating_sub(started).as_secs_f64();
                    t.transfer_seconds.observe(dur);
                    let share = if contention_share.is_finite() {
                        contention_share.clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let ideal = dur * share;
                    let h = self.hosts.entry(*from).or_default();
                    h.border_seconds += ideal;
                    h.contention_seconds += dur - ideal;
                    if let Some(j) = self.current.and_then(|c| self.open.get_mut(&c)) {
                        j.border_ws += ideal;
                        j.transfers.push((j.dispatches.len() as u32, started, *at));
                    }
                }
            }
            TraceEvent::ForecastIssued {
                predicted,
                observed,
                ..
            } => t.forecast_abs_error.observe((predicted - observed).abs()),
            TraceEvent::ResourceSelection { candidates, .. } => {
                t.selection_candidates.observe(*candidates as f64);
            }
            TraceEvent::RescheduleDecision { migrated, .. } => {
                t.migrated[usize::from(*migrated)] += 1;
            }
            TraceEvent::JobWorkMeasured {
                job,
                dedicated_seconds,
                ..
            } => {
                // A fractional-share (PS) regime executes what-if runs
                // off-trace, so the attempt window would otherwise read
                // as pure contention. The measured dedicated seconds
                // stand in for compute; the remainder of the window is
                // dilution. Job-id keyed: no reliance on `current`.
                if let Some(j) = self.open.get_mut(job) {
                    j.compute_ws = finite(*dedicated_seconds).max(0.0);
                }
            }
            TraceEvent::JobCompleted {
                job,
                at,
                exec_seconds,
            } => {
                t.job_exec_seconds.observe(*exec_seconds);
                if let Some(mut j) = self.open.remove(job) {
                    j.absorb(&mut self.revocations, false);
                    self.closed.push(j.close(*job, *at, true));
                }
                if self.current == Some(*job) {
                    self.current = None;
                }
            }
            TraceEvent::JobFailed { job, at, attempts } => {
                if let Some(mut j) = self.open.remove(job) {
                    j.absorb(&mut self.revocations, false);
                    j.attempts = j.attempts.max(*attempts);
                    self.closed.push(j.close(*job, *at, false));
                }
                if self.current == Some(*job) {
                    self.current = None;
                }
            }
            _ => {}
        }
    }

    /// Fold an in-memory stream: the profile, and for each of its jobs
    /// (same order) the structure the span tree is built from.
    pub(crate) fn over(events: &[TraceEvent]) -> (Profile, Vec<JobStructure>) {
        let mut fold = Fold::default();
        for e in events {
            fold.add(e);
        }
        let mut closed = fold.closed;
        closed.sort_by_key(|(j, _)| j.job);
        let (jobs, structure) = closed.into_iter().unzip();
        let profile = Profile {
            jobs,
            hosts: fold.hosts,
            span: fold.span,
            events: fold.tally.kinds.iter().sum::<u64>() as usize,
            unclosed_jobs: fold.open.len(),
            busy: fold.busy,
        };
        (profile, structure)
    }
}
