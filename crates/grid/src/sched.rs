//! Scheduling regimes: the same seeded job stream under three policies.
//!
//! The paper's thesis is that applications schedule *themselves*
//! ("everything in the system is evaluated in terms of its impact on
//! the application") — the selfish-agent stream in [`crate::service`]
//! is that world. This module puts the alternative worlds next to it,
//! over the *identical* realized workload and fault schedule, so the
//! tradeoff is measurable rather than rhetorical:
//!
//! * [`SchedRegime::Selfish`] — first-decider-wins AppLeS agents, one
//!   per job, each optimizing its own completion time against live
//!   (or blind) forecasts.
//! * [`SchedRegime::Batch`] — a centralized space-shared batch queue:
//!   FCFS with EASY backfilling. The reservation oracle is the same
//!   application-level runtime prediction the selfish agents act on
//!   ([`crate::service`]'s `decide`), handed to a resource-level policy:
//!   the head of the queue gets a reservation at the earliest
//!   predicted drain of its hosts, and a later job may jump it only
//!   if it starts on free hosts *now* and cannot delay that
//!   reservation. Backfill candidates are moldable — a blocked
//!   candidate is replanned against the currently-free hosts before
//!   the EASY check, because an AppLeS job requests performance, not
//!   named hosts.
//! * [`SchedRegime::Fractional`] — dynamic fractional sharing
//!   (processor-sharing): every job is admitted immediately and the
//!   running jobs on each host split it evenly, shares resized on
//!   every arrival and departure. A job's rate is the minimum share
//!   across its hosts; its dedicated-equivalent work (measured by a
//!   what-if actuation on the pristine testbed) drains at that rate.
//!   The realized per-host occupancy is traced as `LoadImposed`
//!   windows; the live topology is not touched, since no later
//!   decision reads it.
//!
//! Each regime supplies only its policy. Setup, per-job state, the
//! lifecycle events and records, the retry-or-fail decision and the
//! final fold are shared (`crate::lifecycle`).
//!
//! Each centralized regime checks its own invariant where it decides,
//! on every stream: a batch backfill that pushes the head-of-queue
//! reservation later, or fractional shares that sum past 1 on a host,
//! end the run with [`GridError::Internal`].
//!
//! ## Entry points
//!
//! [`run_regime_jobs_with_sink`] streams a job list, such as a realized
//! [`WorkloadConfig`]; [`GridService::run`] validates the config and
//! workload first, then realizes and streams it. Both take an
//! [`EventSink`]; pass [`NoopSink`] for none. [`run_solo_references`]
//! runs each job kind alone on the fault-free testbed, from one shared
//! Weather Service warm-up, for the race's dedicated-execution
//! references.
//!
//! ## Comparability contract
//!
//! All three regimes consume the same `Vec<JobSpec>` (same seed →
//! same arrivals, same kinds) and the same realized [`FaultSpec`]
//! (keyed by the grid seed). Every submitted job appears exactly once
//! in the outcome records, completed or failed — no regime may lose or
//! duplicate work. Stretch, slowdown and goodput comparisons ride on
//! that invariant; the regime-race bench (`bench::regime_race`) and the
//! property tests enforce it.
//!
//! ## Modeling simplifications
//!
//! The batch queue is space-shared: host exclusivity comes from the
//! queue itself, so completed batch jobs do not write load back into
//! the topology, and link contention between co-running batch jobs is
//! not modeled (background load from the testbed profile still is).
//! Failed attempts tear down instantly, as in the selfish stream.
//! The fractional regime is host-centric, and a host crash revokes its
//! residents entirely — a restarted job loses its progress (no
//! checkpointing across PS restarts).
//!
//! Knobs a regime would ignore are rejected with
//! [`GridError::InvalidConfig`] before the stream starts: the blind
//! information regime ([`Regime::Blind`]) under batch or fractional
//! (both plan from static nominal information), and a finite
//! `max_in_flight` or realized link faults under fractional
//! (processor sharing has no admission queue and models hosts only).
//!
//! [`FaultSpec`]: metasim::FaultSpec
//! [`GridService::run`]: crate::GridService::run
//! [`WorkloadConfig`]: crate::WorkloadConfig
//! [`Regime::Blind`]: crate::Regime::Blind
//! [`NoopSink`]: metasim::simtrace::NoopSink

use crate::lifecycle::{Lifecycle, Next};
use crate::metrics::JobRecord;
use crate::service::{
    build_topology, decide, run_selfish, FaultInjection, GridConfig, GridError, GridOutcome,
};
use crate::workload::{JobKind, JobSpec, RetryPolicy};
use apples::actuator::actuate;
use apples::hat::Hat;
use apples::info::InfoPool;
use apples::schedule::Schedule;
use apples::ApplesError;
use metasim::load::Imposition;
use metasim::simtrace::{EventSink, NoopSink, TraceEvent};
use metasim::{HostId, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};
use simcore::EventQueue;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Which scheduling policy governs the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedRegime {
    /// First-decider-wins selfish AppLeS agents (the paper's world).
    Selfish,
    /// Centralized FCFS batch queue with EASY backfilling, using the
    /// AppLeS estimator's predictions as the reservation oracle.
    Batch,
    /// Dynamic fractional sharing: running jobs hold CPU *fractions*,
    /// resized on every arrival and departure.
    Fractional,
}

impl SchedRegime {
    /// Every regime, in canonical race order.
    pub const ALL: [SchedRegime; 3] = [
        SchedRegime::Selfish,
        SchedRegime::Batch,
        SchedRegime::Fractional,
    ];

    /// Stable kebab-case name (CLI flag value, metrics label).
    pub fn name(self) -> &'static str {
        match self {
            SchedRegime::Selfish => "selfish",
            SchedRegime::Batch => "batch",
            SchedRegime::Fractional => "fractional",
        }
    }

    /// Parse a CLI flag value. Accepts the canonical names only.
    pub fn parse(s: &str) -> Option<SchedRegime> {
        match s {
            "selfish" => Some(SchedRegime::Selfish),
            "batch" => Some(SchedRegime::Batch),
            "fractional" => Some(SchedRegime::Fractional),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stream an explicit job list (offsets from stream start) under
/// `regime` and `retry`, narrating every job's lifecycle (submit →
/// dispatch → retry → complete/fail), the agents' decisions,
/// forecasts, faults, imposed load and executor events into `sink`.
/// `duration` is the submission-window length used for throughput and
/// utilization denominators.
pub fn run_regime_jobs_with_sink(
    cfg: &GridConfig,
    regime: SchedRegime,
    jobs: &[JobSpec],
    duration: SimTime,
    retry: RetryPolicy,
    sink: &mut dyn EventSink,
) -> Result<GridOutcome, GridError> {
    let life = Lifecycle::new(cfg, regime, jobs, duration, retry, sink)?;
    match regime {
        SchedRegime::Selfish => {
            let ws = WeatherService::for_topology(&life.live, WeatherServiceConfig::default());
            run_selfish(life, ws, sink)
        }
        SchedRegime::Batch => BatchRun::new(life, sink).run(),
        SchedRegime::Fractional => FracRun::new(life, sink).run(),
    }
}

/// Submission window of a solo reference run: a denominator of the
/// fleet metrics only, which the references do not report.
const SOLO_WINDOW: SimTime = SimTime::from_secs(3600);

/// The dedicated-execution reference of each kind in `kinds`: a job of
/// that kind submitted alone, at the end of the warm-up, to a
/// fault-free copy of `cfg`'s testbed under the selfish regime. Returns
/// that job's record, one per kind in `kinds` order.
///
/// Each record equals, bit for bit, what
/// `run_regime_jobs_with_sink(&quiet, SchedRegime::Selfish, &[solo],
/// ..)` gives, with `quiet` being `cfg` without faults. Only the warm-up
/// is shared: one Weather Service is advanced to `cfg.warmup` over the
/// untouched testbed, and each kind's run starts from a fork of it.
/// Every solo run samples that same testbed up to its job's start, so
/// the fork holds exactly what a fresh service would have sampled
/// there (see [`WeatherService`]'s note on clones).
pub fn run_solo_references(
    cfg: &GridConfig,
    kinds: &[JobKind],
    retry: RetryPolicy,
) -> Result<Vec<JobRecord>, GridError> {
    let quiet = GridConfig {
        faults: FaultInjection::None,
        ..cfg.clone()
    };
    let testbed = build_topology(&quiet)?;
    let mut warm = WeatherService::for_topology(&testbed, WeatherServiceConfig::default());
    warm.advance(&testbed, quiet.warmup);
    kinds
        .iter()
        .map(|&kind| {
            let solo = [JobSpec {
                id: 0,
                submit: SimTime::ZERO,
                kind,
            }];
            let life = Lifecycle::new(
                &quiet,
                SchedRegime::Selfish,
                &solo,
                SOLO_WINDOW,
                retry,
                &mut NoopSink,
            )?;
            let out = run_selfish(life, warm.clone(), &mut NoopSink)?;
            out.records
                .into_iter()
                .next()
                .ok_or_else(|| GridError::Internal("a solo run recorded no job".into()))
        })
        .collect()
}

/// One job's static plan, made on the pristine testbed.
///
/// The centralized regimes plan without NWS forecasts: a batch system
/// knows the machines it owns, not the weather between them, and the
/// pristine pool keeps planning independent of queue state — the
/// prediction depends only on (kind, excluded hosts), which is what
/// makes it usable as a reservation oracle.
#[derive(Clone)]
struct Planned {
    hat: Hat,
    schedule: Schedule,
    predicted_seconds: f64,
    hosts: Vec<HostId>,
}

/// Plan `kind` on the pristine testbed with `excluded` hosts removed
/// from consideration, surfacing the estimator's runtime prediction.
fn plan_static(
    topo: &Topology,
    kind: &JobKind,
    excluded: &[HostId],
    now: SimTime,
    sink: &mut dyn EventSink,
) -> Result<Planned, ApplesError> {
    let (hat, mut user) = kind.hat_and_user();
    user.excluded_hosts.extend(excluded.iter().copied());
    let (schedule, predicted_seconds) = {
        let pool = InfoPool::static_nominal(topo, &hat, &user, now);
        decide(kind, &pool, sink)?
    };
    let hosts = schedule.hosts();
    Ok(Planned {
        hat,
        schedule,
        predicted_seconds,
        hosts,
    })
}

/// `now + seconds`, saturating at [`SimTime::MAX`].
fn predicted_end(now: SimTime, seconds: f64) -> SimTime {
    now.checked_add(SimTime::from_secs_f64(seconds.max(0.0)))
        .unwrap_or(SimTime::MAX)
}

// ---------------------------------------------------------------------
// Batch: FCFS + EASY backfilling
// ---------------------------------------------------------------------

/// Event classes at equal times: completions free hosts before
/// (re-)enqueues observe the queue.
const EV_COMPLETED: u8 = 0;
const EV_ENQUEUE: u8 = 1;

enum BatchEvent {
    /// A running job's hosts drain (its actuation already finished;
    /// this frees them for the queue).
    Completed { idx: usize },
    /// A job (first arrival or retry) asks to be queued.
    Enqueue { idx: usize },
}

struct Running {
    idx: usize,
    hosts: Vec<HostId>,
    /// Predicted drain time from the estimator — the reservation
    /// oracle. Actual completion may differ; EASY only promises the
    /// head is never delayed *relative to the predictions*.
    predicted_end: SimTime,
}

struct BatchRun<'a> {
    life: Lifecycle<'a>,
    /// Each queued job's current plan, by lifecycle index.
    planned: Vec<Option<Planned>>,
    /// FCFS queue of lifecycle indices, ordered by (enqueue time, id).
    queue: Vec<(SimTime, usize, usize)>,
    running: Vec<Running>,
    events: EventQueue<(SimTime, u8), BatchEvent>,
    sink: &'a mut dyn EventSink,
}

impl<'a> BatchRun<'a> {
    fn new(life: Lifecycle<'a>, sink: &'a mut dyn EventSink) -> BatchRun<'a> {
        let mut events = EventQueue::new();
        for (idx, job) in life.jobs.iter().enumerate() {
            events.schedule((job.submit, EV_ENQUEUE), BatchEvent::Enqueue { idx });
        }
        BatchRun {
            planned: vec![None; life.jobs.len()],
            life,
            queue: Vec::new(),
            running: Vec::new(),
            events,
            sink,
        }
    }

    fn run(mut self) -> Result<GridOutcome, GridError> {
        while let Some(((now, _), _, ev)) = self.events.pop() {
            match ev {
                BatchEvent::Completed { idx } => self.running.retain(|r| r.idx != idx),
                BatchEvent::Enqueue { idx } => self.process_enqueue(idx, now)?,
            }
            self.try_start_queued(now)?;
        }
        Ok(self.life.finish())
    }

    fn process_enqueue(&mut self, idx: usize, now: SimTime) -> Result<(), GridError> {
        self.life.submit(idx, now, self.sink);
        let job = &self.life.jobs[idx];
        let id = job.spec.id;
        match plan_static(
            &self.life.pristine,
            &job.spec.kind,
            &job.dead_hosts,
            now,
            self.sink,
        ) {
            Ok(p) => {
                self.planned[idx] = Some(p);
                let key = (now, id);
                let pos = self.queue.partition_point(|&(t, i, _)| (t, i) < key);
                self.queue.insert(pos, (now, id, idx));
                Ok(())
            }
            Err(err) => {
                // A planning failure consumes an attempt, mirroring the
                // selfish stream's accounting.
                self.life.dispatch(idx, now, self.sink);
                self.fail(idx, &err, now)
            }
        }
    }

    /// Retry or record job `idx`'s failed attempt at `now`.
    fn fail(&mut self, idx: usize, err: &ApplesError, now: SimTime) -> Result<(), GridError> {
        if let Next::Retry(at) = self.life.fail(idx, err, now, self.sink)? {
            self.events
                .schedule((at, EV_ENQUEUE), BatchEvent::Enqueue { idx });
        }
        Ok(())
    }

    fn hosts_free(&self, hosts: &[HostId]) -> bool {
        hosts
            .iter()
            .all(|h| !self.running.iter().any(|r| r.hosts.contains(h)))
    }

    /// Earliest time the queue head's hosts are all predicted free:
    /// the latest predicted end among running jobs it overlaps.
    fn reservation_for(&self, hosts: &[HostId], now: SimTime) -> SimTime {
        self.running
            .iter()
            .filter(|r| r.hosts.iter().any(|h| hosts.contains(h)))
            .map(|r| r.predicted_end)
            .max()
            .unwrap_or(now)
    }

    fn try_start_queued(&mut self, now: SimTime) -> Result<(), GridError> {
        loop {
            let Some(&(_, _, head)) = self.queue.first() else {
                return Ok(());
            };
            if self.running.len() >= self.life.cfg.max_in_flight {
                return Ok(());
            }
            let head_hosts = self.planned[head]
                .as_ref()
                .map(|p| p.hosts.clone())
                .ok_or_else(|| GridError::Internal("queued job has no plan".into()))?;
            if self.hosts_free(&head_hosts) {
                self.queue.remove(0);
                self.start_job(head, now)?;
                continue;
            }
            // EASY: the head holds a reservation at the predicted drain
            // of its hosts. A later job may start out of order only if
            // its hosts are free *now* and it cannot delay that
            // reservation — either it touches none of the head's hosts,
            // or its own predicted end fits before the reservation.
            //
            // Candidates are *moldable*: an AppLeS job is a request for
            // performance, not for named hosts, so when a candidate's
            // enqueue-time plan is blocked the scan replans it against
            // the hosts that are free right now. Without this, every
            // plan converges on the same fastest hosts and EASY never
            // finds a startable candidate.
            let resv = self.reservation_for(&head_hosts, now);
            let busy: Vec<HostId> = self
                .running
                .iter()
                .flat_map(|r| r.hosts.iter().copied())
                .collect();
            let mut chosen = None;
            for qi in 1..self.queue.len() {
                let (_, _, idx) = self.queue[qi];
                let Some(p) = self.planned[idx].as_ref() else {
                    continue;
                };
                let candidate = if self.hosts_free(&p.hosts) {
                    Some(p.clone())
                } else {
                    let job = &self.life.jobs[idx];
                    let mut excluded = job.dead_hosts.clone();
                    excluded.extend(busy.iter().copied());
                    plan_static(
                        &self.life.pristine,
                        &job.spec.kind,
                        &excluded,
                        now,
                        &mut NoopSink,
                    )
                    .ok()
                };
                let Some(p) = candidate else {
                    continue;
                };
                let disjoint = p.hosts.iter().all(|h| !head_hosts.contains(h));
                if disjoint || predicted_end(now, p.predicted_seconds) <= resv {
                    self.planned[idx] = Some(p);
                    chosen = Some(qi);
                    break;
                }
            }
            let Some(qi) = chosen else {
                return Ok(());
            };
            let (_, id, idx) = self.queue.remove(qi);
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobBackfilled {
                    job: id,
                    at: now,
                    reservation: resv,
                });
            }
            self.start_job(idx, now)?;
            let after = self.reservation_for(&head_hosts, now);
            if after > resv {
                return Err(GridError::Internal(format!(
                    "backfilling job {id} at {now} delayed the head reservation \
                     from {resv} to {after}"
                )));
            }
        }
    }

    fn start_job(&mut self, idx: usize, now: SimTime) -> Result<(), GridError> {
        let planned = self.planned[idx]
            .take()
            .ok_or_else(|| GridError::Internal("started job has no plan".into()))?;
        self.life.dispatch(idx, now, self.sink);
        let topo = &self.life.live;
        match actuate(topo, &planned.hat, &planned.schedule, now, self.sink) {
            Ok(report) => {
                let exec = report.elapsed_seconds;
                let hosts = &planned.hosts;
                self.life
                    .complete(idx, report.finish, exec, hosts, 0, self.sink)?;
                self.running.push(Running {
                    idx,
                    hosts: planned.hosts,
                    predicted_end: predicted_end(now, planned.predicted_seconds),
                });
                self.events
                    .schedule((report.finish, EV_COMPLETED), BatchEvent::Completed { idx });
                Ok(())
            }
            Err(err) => self.fail(idx, &err, now),
        }
    }
}

// ---------------------------------------------------------------------
// Fractional: dynamic fractional sharing (processor sharing)
// ---------------------------------------------------------------------

/// Residual work below this many dedicated-equivalent seconds counts
/// as done. The event loop advances time in integer microseconds
/// (rounding gaps up), so the residual after a predicted departure is
/// at most `share × 1 µs` — comfortably under this bound, which is
/// what guarantees every predicted departure actually completes a job.
const WORK_EPS: f64 = 1e-6;

/// Event classes at equal times: recoveries first (a re-queued job may
/// use the recovered host), then crashes (an arrival must not plan
/// onto a host dying this instant), then enqueues.
const EV_HOST_UP: u8 = 0;
const EV_HOST_DOWN: u8 = 1;
const EV_FRAC_ENQUEUE: u8 = 2;

enum FracEvent {
    HostUp(HostId),
    HostDown(HostId),
    Enqueue { idx: usize },
}

struct ActiveJob {
    idx: usize,
    id: usize,
    /// Dedicated-equivalent work left, in seconds. Work, not a
    /// timestamp: it drains at the job's fractional rate.
    remaining: f64,
    hosts: Vec<HostId>,
}

struct FracRun<'a> {
    life: Lifecycle<'a>,
    active: Vec<ActiveJob>,
    down: BTreeSet<HostId>,
    events: EventQueue<(SimTime, u8), FracEvent>,
    /// Per-host occupancy windows, kept only while the sink is enabled.
    impositions: BTreeMap<HostId, Vec<Imposition>>,
    sink: &'a mut dyn EventSink,
}

impl<'a> FracRun<'a> {
    fn new(life: Lifecycle<'a>, sink: &'a mut dyn EventSink) -> FracRun<'a> {
        let mut events = EventQueue::new();
        for (idx, job) in life.jobs.iter().enumerate() {
            events.schedule((job.submit, EV_FRAC_ENQUEUE), FracEvent::Enqueue { idx });
        }
        for f in &life.faults.host_faults {
            events.schedule((f.at, EV_HOST_DOWN), FracEvent::HostDown(f.host));
            if let Some(r) = f.recover {
                events.schedule((r, EV_HOST_UP), FracEvent::HostUp(f.host));
            }
        }
        FracRun {
            life,
            active: Vec::new(),
            down: BTreeSet::new(),
            events,
            impositions: BTreeMap::new(),
            sink,
        }
    }

    fn run(mut self) -> Result<GridOutcome, GridError> {
        let mut now = SimTime::ZERO;
        loop {
            let dep = self.next_departure(now);
            let stat = self.events.peek_time();
            match (dep, stat) {
                (None, None) => break,
                // Departures win ties: a finished job must release its
                // shares before a simultaneous arrival sees the pool.
                (Some((t, _)), stat) if stat.is_none_or(|s| t <= s.0) => {
                    self.advance_to(now, t)?;
                    now = t;
                    self.complete_ready(now)?;
                }
                _ => {
                    let Some(((t, _), _, ev)) = self.events.pop() else {
                        break;
                    };
                    self.advance_to(now, t)?;
                    now = t;
                    match ev {
                        FracEvent::HostUp(h) => {
                            self.down.remove(&h);
                        }
                        FracEvent::HostDown(h) => self.host_down(h, now),
                        FracEvent::Enqueue { idx } => self.process_enqueue(idx, now)?,
                    }
                }
            }
        }
        self.finish()
    }

    /// A job's fractional rate: the minimum over its hosts of an even
    /// split among that host's residents.
    fn share_of(&self, job: &ActiveJob) -> f64 {
        let mut share = 1.0f64;
        for &h in &job.hosts {
            let residents = self.active.iter().filter(|o| o.hosts.contains(&h)).count();
            share = share.min(1.0 / residents.max(1) as f64);
        }
        share
    }

    /// Earliest predicted departure given current shares; ties broken
    /// by job id for determinism.
    fn next_departure(&self, now: SimTime) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for j in &self.active {
            let share = self.share_of(j);
            if share <= 0.0 {
                continue;
            }
            let key = (predicted_end(now, j.remaining / share), j.id);
            match best {
                None => best = Some(key),
                Some(b) if key < b => best = Some(key),
                _ => {}
            }
        }
        best
    }

    /// Drain every active job's work over `[now, until)` at the shares
    /// in force (no event fires inside the interval, so shares are
    /// constant), and record the per-host occupancy for the trace.
    /// Shares summing past 1 on a host are an internal error.
    fn advance_to(&mut self, now: SimTime, until: SimTime) -> Result<(), GridError> {
        if until <= now || self.active.is_empty() {
            return Ok(());
        }
        let dt = until.saturating_sub(now).as_secs_f64();
        let shares: Vec<f64> = self.active.iter().map(|j| self.share_of(j)).collect();
        let mut per_host: BTreeMap<HostId, f64> = BTreeMap::new();
        for (j, s) in self.active.iter().zip(shares.iter()) {
            for &h in &j.hosts {
                *per_host.entry(h).or_insert(0.0) += *s;
            }
        }
        let traced = self.sink.enabled();
        for (h, total) in per_host {
            if total > 1.0 + 1e-9 {
                return Err(GridError::Internal(format!(
                    "host {h:?} oversubscribed: shares sum to {total} on [{now}, {until})"
                )));
            }
            // Only the closing `LoadImposed` events read the windows.
            if !traced {
                continue;
            }
            let factor = (1.0 - total).max(0.0);
            let imps = self.impositions.entry(h).or_default();
            match imps.last_mut() {
                // Extend the previous window when the factor is
                // bit-identical — adjacent equal steps collapse into
                // one imposition.
                Some(last)
                    if last.to == now
                        && last.factor.total_cmp(&factor) == std::cmp::Ordering::Equal =>
                {
                    last.to = until;
                }
                _ => imps.push(Imposition::new(now, until, factor)),
            }
        }
        for (j, s) in self.active.iter_mut().zip(shares.iter()) {
            j.remaining -= dt * *s;
        }
        Ok(())
    }

    /// Complete every active job whose work has drained, in id order.
    fn complete_ready(&mut self, now: SimTime) -> Result<(), GridError> {
        let mut ready: Vec<usize> = self
            .active
            .iter()
            .filter(|j| j.remaining <= WORK_EPS)
            .map(|j| j.id)
            .collect();
        ready.sort_unstable();
        for id in ready {
            let Some(pos) = self.active.iter().position(|j| j.id == id) else {
                continue;
            };
            let j = self.active.remove(pos);
            let started = self.life.jobs[j.idx].started;
            let exec = now.saturating_sub(started).as_secs_f64();
            self.life
                .complete(j.idx, now, exec, &j.hosts, 0, self.sink)?;
        }
        Ok(())
    }

    /// A host crash revokes every resident: the job restarts from
    /// scratch (no PS checkpointing) under the retry policy.
    fn host_down(&mut self, h: HostId, now: SimTime) {
        self.down.insert(h);
        let victims: Vec<usize> = self
            .active
            .iter()
            .filter(|j| j.hosts.contains(&h))
            .map(|j| j.id)
            .collect();
        for id in victims {
            let Some(pos) = self.active.iter().position(|j| j.id == id) else {
                continue;
            };
            let j = self.active.remove(pos);
            if self.sink.enabled() {
                self.sink
                    .record(TraceEvent::PlacementRevoked { host: h, at: now });
            }
            let next = self.life.lose(j.idx, Some(h), None, now, self.sink);
            if let Next::Retry(at) = next {
                self.events
                    .schedule((at, EV_FRAC_ENQUEUE), FracEvent::Enqueue { idx: j.idx });
            }
        }
    }

    fn process_enqueue(&mut self, idx: usize, now: SimTime) -> Result<(), GridError> {
        self.life.submit(idx, now, self.sink);
        self.life.dispatch(idx, now, self.sink);
        let job = &self.life.jobs[idx];
        let id = job.spec.id;
        // A central PS scheduler sees the whole system: exclude both
        // hosts this job has watched die and hosts currently down.
        let mut excluded = job.dead_hosts.clone();
        excluded.extend(self.down.iter().copied());
        let pristine = &self.life.pristine;
        let outcome =
            plan_static(pristine, &job.spec.kind, &excluded, now, self.sink).and_then(|p| {
                // What-if actuation on the pristine testbed measures the
                // job's dedicated-equivalent work; the executor events are
                // hypothetical, so they go to a noop sink.
                actuate(pristine, &p.hat, &p.schedule, now, &mut NoopSink).map(|report| (p, report))
            });
        match outcome {
            Ok((p, report)) => {
                // The what-if run above is the only place the dedicated
                // execution time of this attempt is known; publish it so
                // profilers can split the PS window into compute vs.
                // dilution (the executor trace has no events for it).
                let dedicated_seconds = report.elapsed_seconds.max(0.0);
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::JobWorkMeasured {
                        job: id,
                        at: now,
                        dedicated_seconds,
                    });
                }
                self.active.push(ActiveJob {
                    idx,
                    id,
                    remaining: dedicated_seconds,
                    hosts: p.hosts,
                });
            }
            Err(err) => {
                if let Next::Retry(at) = self.life.fail(idx, &err, now, self.sink)? {
                    self.events
                        .schedule((at, EV_FRAC_ENQUEUE), FracEvent::Enqueue { idx });
                }
            }
        }
        Ok(())
    }

    /// Trace the realized per-host occupancy, host by host (nothing
    /// when untraced: no window was kept).
    fn finish(self) -> Result<GridOutcome, GridError> {
        for (h, imps) in &self.impositions {
            for imp in imps {
                self.sink.record(TraceEvent::LoadImposed {
                    host: *h,
                    at: imp.from,
                    until: imp.to,
                    factor: imp.factor,
                });
            }
        }
        Ok(self.life.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FaultInjection, GridService, Regime};
    use crate::workload::{ArrivalProcess, JobMix, WorkloadConfig};
    use metasim::simtrace::VecSink;
    use metasim::{FaultSpec, HostFault, LinkFault, LinkId};

    fn small_workload(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(500),
            },
            mix: JobMix::default_mix(),
            duration: SimTime::from_secs(4000),
            seed,
            retry: RetryPolicy::default(),
        }
    }

    fn cfg() -> GridConfig {
        GridConfig::default()
    }

    fn run_quiet(
        cfg: &GridConfig,
        regime: SchedRegime,
        w: &WorkloadConfig,
    ) -> Result<GridOutcome, GridError> {
        w.validate()?;
        run_regime_jobs_with_sink(
            cfg,
            regime,
            &w.realize(),
            w.duration,
            w.retry,
            &mut NoopSink,
        )
    }

    #[test]
    fn regime_names_round_trip() {
        for r in SchedRegime::ALL {
            assert_eq!(SchedRegime::parse(r.name()), Some(r));
            assert_eq!(format!("{r}"), r.name());
        }
        assert_eq!(SchedRegime::parse("gang"), None);
    }

    #[test]
    fn all_regimes_schedule_the_same_job_set() {
        let cfg = cfg();
        let w = small_workload(42);
        let jobs = w.realize();
        let ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        for regime in SchedRegime::ALL {
            let out = run_quiet(&cfg, regime, &w).unwrap();
            let mut got: Vec<usize> = out.records.iter().map(|r| r.id).collect();
            got.sort_unstable();
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(got, want, "regime {regime} lost or duplicated jobs");
        }
    }

    #[test]
    fn regimes_are_deterministic_per_seed() {
        let cfg = cfg();
        let w = small_workload(7);
        for regime in SchedRegime::ALL {
            let a = run_quiet(&cfg, regime, &w).unwrap();
            let b = run_quiet(&cfg, regime, &w).unwrap();
            assert_eq!(a.records, b.records, "regime {regime} not deterministic");
            assert_eq!(a.fleet, b.fleet);
        }
    }

    /// Stream `jobs` under `regime` into a fresh `VecSink`. Each
    /// centralized regime checks its own invariant as it decides, so
    /// `Ok` means no backfill delayed the head reservation and no host
    /// was oversubscribed.
    fn run_traced(
        regime: SchedRegime,
        jobs: &[JobSpec],
        duration: SimTime,
        retry: RetryPolicy,
    ) -> (GridOutcome, Vec<TraceEvent>) {
        let mut sink = VecSink::new();
        let out = run_regime_jobs_with_sink(&cfg(), regime, jobs, duration, retry, &mut sink)
            .unwrap_or_else(|e| panic!("{regime} stream: {e}"));
        (out, sink.events)
    }

    #[test]
    fn batch_backfills_never_delay_the_head_reservation() {
        // Dense stream to force queueing and give EASY room to work.
        let w = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(80),
            },
            duration: SimTime::from_secs(2000),
            ..small_workload(11)
        };
        let jobs = w.realize();
        let (out, events) = run_traced(SchedRegime::Batch, &jobs, w.duration, w.retry);
        assert_eq!(out.records.len(), jobs.len());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::JobBackfilled { .. })),
            "a dense stream must exercise EASY backfilling, or this test is vacuous"
        );
    }

    #[test]
    fn fractional_shares_never_oversubscribe_a_host() {
        let w = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(120),
            },
            duration: SimTime::from_secs(2000),
            ..small_workload(13)
        };
        let jobs = w.realize();
        let (out, events) = run_traced(SchedRegime::Fractional, &jobs, w.duration, w.retry);
        assert_eq!(out.records.len(), jobs.len());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::LoadImposed { .. })),
            "a busy stream must share hosts, or this test is vacuous"
        );
    }

    #[test]
    fn fractional_single_job_runs_at_full_speed() {
        let jobs = [JobSpec {
            id: 0,
            submit: SimTime::ZERO,
            kind: JobKind::Jacobi {
                n: 800,
                iterations: 60,
            },
        }];
        let (out, events) = run_traced(
            SchedRegime::Fractional,
            &jobs,
            SimTime::from_secs(100),
            RetryPolicy::default(),
        );
        let r = &out.records[0];
        assert!(r.completed);
        // Alone in the system: its share is 1.0 everywhere, so the PS
        // window equals the dedicated what-if duration, up to the
        // microsecond rounding of the departure event.
        let dedicated = events
            .iter()
            .find_map(|e| match *e {
                TraceEvent::JobWorkMeasured {
                    dedicated_seconds, ..
                } => Some(dedicated_seconds),
                _ => None,
            })
            .expect("the what-if run publishes the job's work");
        assert!(dedicated > 0.0);
        assert!(
            (r.exec_seconds - dedicated).abs() <= 1e-6,
            "exec {} vs dedicated {dedicated}",
            r.exec_seconds
        );
    }

    #[test]
    fn regimes_survive_fault_injection_without_losing_jobs() {
        let mut cfg = cfg();
        cfg.faults = FaultInjection::Spec(FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(0),
                at: SimTime::from_secs(900),
                recover: Some(SimTime::from_secs(2500)),
            }],
            link_faults: Vec::new(),
        });
        let mut w = small_workload(5);
        w.retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let jobs = w.realize();
        for regime in SchedRegime::ALL {
            let out = run_quiet(&cfg, regime, &w).unwrap();
            assert_eq!(
                out.records.len(),
                jobs.len(),
                "regime {regime} lost jobs under faults"
            );
        }
    }

    #[test]
    fn grid_service_runs_regimes_after_validation() {
        let svc = GridService::new(cfg()).unwrap();
        let w = small_workload(3);
        for regime in SchedRegime::ALL {
            let out = svc.run(regime, &w, &mut NoopSink).unwrap();
            assert!(!out.records.is_empty());
        }
    }

    /// Run the one-job stream of `small_workload` under `regime` and
    /// return the rejection message, if any. The validator must report
    /// the same refusal as its `regime` diagnostic.
    fn rejection(cfg: &GridConfig, regime: SchedRegime) -> Option<String> {
        let w = WorkloadConfig {
            duration: SimTime::from_secs(400),
            ..small_workload(1)
        };
        let refused = match run_quiet(cfg, regime, &w) {
            Err(GridError::InvalidConfig(m)) => Some(m),
            _ => None,
        };
        let diagnosed = crate::validate_config(cfg, Some(&w), Some(regime))
            .into_iter()
            .find(|d| d.code == "regime")
            .map(|d| d.message);
        assert_eq!(diagnosed, refused, "{regime}: validator vs stream setup");
        refused
    }

    #[test]
    fn centralized_regimes_reject_the_blind_regime() {
        let blind = GridConfig {
            regime: Regime::Blind,
            ..cfg()
        };
        for regime in [SchedRegime::Batch, SchedRegime::Fractional] {
            let m = rejection(&blind, regime).expect("blind must be rejected");
            assert!(m.contains("blind"), "{regime}: {m}");
        }
        assert_eq!(rejection(&blind, SchedRegime::Selfish), None);
    }

    #[test]
    fn fractional_rejects_an_admission_bound() {
        let bounded = GridConfig {
            max_in_flight: 4,
            ..cfg()
        };
        let m = rejection(&bounded, SchedRegime::Fractional).expect("bound must be rejected");
        assert!(m.contains("max_in_flight"), "{m}");
        assert_eq!(rejection(&bounded, SchedRegime::Batch), None);
        assert_eq!(rejection(&bounded, SchedRegime::Selfish), None);
    }

    #[test]
    fn fractional_rejects_link_faults() {
        let faulted = GridConfig {
            faults: FaultInjection::Spec(FaultSpec {
                host_faults: Vec::new(),
                link_faults: vec![LinkFault {
                    link: LinkId(0),
                    at: SimTime::from_secs(900),
                    recover: Some(SimTime::from_secs(1200)),
                }],
            }),
            ..cfg()
        };
        let m = rejection(&faulted, SchedRegime::Fractional).expect("link faults rejected");
        assert!(m.contains("link faults"), "{m}");
        assert_eq!(rejection(&faulted, SchedRegime::Batch), None);
    }
}
