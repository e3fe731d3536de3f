//! The one fold over a trace that [`Profile`] and [`SpanTree`] are
//! views of.
//!
//! A single loop over the events produces everything both need: per
//! closed job, the five phase buckets (simprof's rows) together with
//! each attempt's dispatch instant, its cause edges and the revocations
//! it absorbed, and the transfer intervals of the job's attempts (the
//! span tree's structure); per host, the totals and the compute
//! intervals the gantt's host lanes are drawn from. Because the span
//! leaves are cut from the same buckets in the same pass, spans and
//! simprof reconcile to 0 µs by construction.
//!
//! The grid service processes jobs sequentially in admission order, so
//! executor events between a `job_dispatched` and the matching
//! `job_completed`/`job_retried`/`job_failed` belong to that job; the
//! fold tracks the open job while folding. Each transfer finish is
//! matched to the oldest open start on its `(from, to)` pair.
//!
//! [`Profile`]: crate::Profile
//! [`SpanTree`]: crate::SpanTree

use std::collections::{BTreeMap, VecDeque};

use metasim::simtrace::TraceEvent;
use metasim::{HostId, SimTime};

use crate::profile::{secs_to_us, HostProfile, JobProfile, Profile};
use crate::span::Cause;

/// One dispatch of a job.
pub(crate) struct Attempt {
    /// Dispatch instant.
    pub(crate) at: SimTime,
    /// Why this attempt exists (retry, revocation, backfill).
    pub(crate) causes: Vec<Cause>,
    /// Placement revocations the attempt absorbed.
    pub(crate) revocations: u32,
}

/// The span-tree half of one closed job.
pub(crate) struct JobStructure {
    /// Attempts in dispatch order.
    pub(crate) attempts: Vec<Attempt>,
    /// `(attempt, start, finish)` of each matched transfer.
    pub(crate) transfers: Vec<(u32, SimTime, SimTime)>,
}

/// The folded trace: the profile, and for each of its jobs (same
/// order) the structure the span tree is built from.
pub(crate) struct Fold {
    pub(crate) profile: Profile,
    pub(crate) structure: Vec<JobStructure>,
}

#[derive(Default)]
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

/// Fold an event stream once.
pub(crate) fn fold(events: &[TraceEvent]) -> Fold {
    let mut open: BTreeMap<usize, OpenJob> = BTreeMap::new();
    let mut closed: Vec<(JobProfile, JobStructure)> = Vec::new();
    let mut hosts: BTreeMap<HostId, HostProfile> = BTreeMap::new();
    let mut busy: BTreeMap<HostId, Vec<(f64, f64)>> = BTreeMap::new();
    let mut open_transfers: BTreeMap<(HostId, HostId), VecDeque<SimTime>> = BTreeMap::new();
    // Revocations emitted but not yet tied to a lifecycle event.
    let mut revocations: Vec<(HostId, SimTime)> = Vec::new();
    let mut current: Option<usize> = None;
    let mut span: Option<(SimTime, SimTime)> = None;

    for e in events {
        let at = e.at();
        span = Some(match span {
            None => (at, at),
            Some((f, l)) => (f.min(at), l.max(at)),
        });
        match e {
            TraceEvent::JobSubmitted { job, kind, at } => {
                let j = OpenJob {
                    kind: kind.clone(),
                    submit: *at,
                    ..OpenJob::default()
                };
                open.insert(*job, j);
            }
            TraceEvent::JobDispatched { job, at, attempt } => {
                current = Some(*job);
                if let Some(j) = open.get_mut(job) {
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
                if let Some(j) = open.get_mut(job) {
                    j.pending_causes.push(Cause::Backfilled {
                        reservation: *reservation,
                    });
                }
            }
            TraceEvent::PlacementRevoked { host, at } => revocations.push((*host, *at)),
            TraceEvent::JobRetried { job, attempt, .. } => {
                if let Some(j) = open.get_mut(job) {
                    j.pending_causes.push(Cause::Retried {
                        failed_attempt: *attempt,
                    });
                    j.absorb(&mut revocations, true);
                }
            }
            TraceEvent::ComputeStart { host, .. } => {
                hosts.entry(*host).or_default().workers += 1;
                if let Some(j) = current.and_then(|c| open.get_mut(&c)) {
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
                let elapsed = finite(*elapsed_seconds);
                hosts.entry(*host).or_default().compute_seconds += elapsed;
                let fin = at.as_secs_f64();
                let start = (fin - elapsed_seconds.max(0.0)).max(0.0);
                busy.entry(*host).or_default().push((start, fin));
                if let Some(j) = current.and_then(|c| open.get_mut(&c)) {
                    j.compute_ws += elapsed;
                }
            }
            TraceEvent::TransferStart { from, to, at, .. } => {
                open_transfers
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
                let mb = finite(*mb);
                hosts.entry(*from).or_default().mb_sent += mb;
                hosts.entry(*to).or_default().mb_received += mb;
                let started = open_transfers
                    .get_mut(&(*from, *to))
                    .and_then(VecDeque::pop_front);
                if let Some(started) = started {
                    let dur = at.saturating_sub(started).as_secs_f64();
                    let share = if contention_share.is_finite() {
                        contention_share.clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let ideal = dur * share;
                    let h = hosts.entry(*from).or_default();
                    h.border_seconds += ideal;
                    h.contention_seconds += dur - ideal;
                    if let Some(j) = current.and_then(|c| open.get_mut(&c)) {
                        j.border_ws += ideal;
                        j.transfers.push((j.dispatches.len() as u32, started, *at));
                    }
                }
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
                if let Some(j) = open.get_mut(job) {
                    j.compute_ws = finite(*dedicated_seconds).max(0.0);
                }
            }
            TraceEvent::JobCompleted { job, at, .. } => {
                if let Some(mut j) = open.remove(job) {
                    j.absorb(&mut revocations, false);
                    closed.push(j.close(*job, *at, true));
                }
                if current == Some(*job) {
                    current = None;
                }
            }
            TraceEvent::JobFailed { job, at, attempts } => {
                if let Some(mut j) = open.remove(job) {
                    j.absorb(&mut revocations, false);
                    j.attempts = j.attempts.max(*attempts);
                    closed.push(j.close(*job, *at, false));
                }
                if current == Some(*job) {
                    current = None;
                }
            }
            _ => {}
        }
    }

    closed.sort_by_key(|(j, _)| j.job);
    let (jobs, structure) = closed.into_iter().unzip();
    Fold {
        profile: Profile {
            jobs,
            hosts,
            span,
            events: events.len(),
            unclosed_jobs: open.len(),
            busy,
        },
        structure,
    }
}
