//! The job lifecycle every scheduling regime shares.
//!
//! A regime decides *when* and *where* a job runs. Everything else a job
//! goes through is the same under all three and lives here:
//!
//! * **setup** — retry and admission checks, rejection of knobs the
//!   regime does not model, the topology build, fault realization and
//!   application, and submission ordering ([`Lifecycle::new`]);
//! * **per-job state** — one [`Job`] per submission;
//! * **lifecycle events and records** — `JobSubmitted`,
//!   `JobDispatched`, `JobCompleted`, `JobFailed` and `JobRetried`, and
//!   the matching completed and failed [`JobRecord`]s;
//! * **failure decision** — a retryable failure excludes the dead host,
//!   then either schedules a jittered-backoff retry or records the job
//!   as failed ([`Lifecycle::fail`], [`Lifecycle::lose`]);
//! * **outcome** — the records, sorted by job id, folded into a
//!   [`GridOutcome`] ([`Lifecycle::finish`]).

use crate::metrics::{slowdown_of, FleetMetrics, JobRecord};
use crate::sched::SchedRegime;
use crate::service::{build_topology, FaultInjection, GridConfig, GridError, GridOutcome, Regime};
use crate::workload::{JobSpec, RetryPolicy};
use apples::ApplesError;
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::{apply_faults, FaultSpec, HostId, SimError, SimTime, Topology};

/// One submitted job's progress through the lifecycle.
pub(crate) struct Job<'a> {
    pub(crate) spec: &'a JobSpec,
    /// Absolute submission time (warmup included).
    pub(crate) submit: SimTime,
    /// Attempts dispatched so far.
    pub(crate) attempts: u32,
    /// When the latest attempt was dispatched.
    pub(crate) started: SimTime,
    /// Hosts this job has watched die under it; excluded from later
    /// attempts.
    pub(crate) dead_hosts: Vec<HostId>,
    /// Whether `JobSubmitted` has been emitted.
    announced: bool,
}

/// What a retryable failure leads to.
pub(crate) enum Next {
    /// Try again at this time.
    Retry(SimTime),
    /// The retry budget is spent: the job is recorded as failed at this
    /// time.
    Failed(SimTime),
}

/// One stream's shared state: configuration, topologies, faults, jobs
/// and the records collected so far.
pub(crate) struct Lifecycle<'a> {
    pub(crate) cfg: &'a GridConfig,
    retry: RetryPolicy,
    duration: SimTime,
    /// Fault-free snapshot of the testbed.
    pub(crate) pristine: Topology,
    /// The testbed with the realized faults applied.
    pub(crate) live: Topology,
    /// The realized fault schedule, already applied to `live`.
    pub(crate) faults: FaultSpec,
    /// Jobs in submission order, `(submit, id)`.
    pub(crate) jobs: Vec<Job<'a>>,
    records: Vec<JobRecord>,
}

impl<'a> Lifecycle<'a> {
    /// Check the knobs, build the testbed, realize and apply the fault
    /// schedule (deterministic per `cfg.seed`, so every regime faces the
    /// same faults) and order the jobs by submission.
    pub(crate) fn new(
        cfg: &'a GridConfig,
        regime: SchedRegime,
        jobs: &'a [JobSpec],
        duration: SimTime,
        retry: RetryPolicy,
        sink: &mut dyn EventSink,
    ) -> Result<Lifecycle<'a>, GridError> {
        retry.validate()?;
        if cfg.max_in_flight == 0 {
            return Err(GridError::InvalidConfig(
                "max_in_flight must be at least 1".into(),
            ));
        }
        let pristine = build_topology(cfg)?;
        let mut live = pristine.clone();
        let faults = realize_faults(cfg, &live, duration)?;
        if let Some(m) = unmodeled_knob(cfg, regime, &faults) {
            return Err(GridError::InvalidConfig(m));
        }
        if !faults.is_empty() {
            apply_faults(&mut live, &faults, sink)?;
        }
        let mut ordered: Vec<&JobSpec> = jobs.iter().collect();
        ordered.sort_by_key(|j| (j.submit, j.id));
        let mut jobs = Vec::with_capacity(ordered.len());
        for spec in ordered {
            let submit = cfg.warmup.checked_add(spec.submit).ok_or_else(|| {
                GridError::InvalidConfig(format!(
                    "job {} submitted {} after the {} warm-up is past the end of simulated time",
                    spec.id, spec.submit, cfg.warmup
                ))
            })?;
            jobs.push(Job {
                spec,
                submit,
                attempts: 0,
                started: SimTime::ZERO,
                dead_hosts: Vec::new(),
                announced: false,
            });
        }
        Ok(Lifecycle {
            cfg,
            retry,
            duration,
            pristine,
            live,
            faults,
            records: Vec::with_capacity(jobs.len()),
            jobs,
        })
    }

    /// Emit `JobSubmitted` the first time job `idx` reaches a regime.
    pub(crate) fn submit(&mut self, idx: usize, at: SimTime, sink: &mut dyn EventSink) {
        let job = &mut self.jobs[idx];
        if job.announced {
            return;
        }
        job.announced = true;
        if sink.enabled() {
            sink.record(TraceEvent::JobSubmitted {
                job: job.spec.id,
                kind: job.spec.kind.name().to_string(),
                at,
            });
        }
    }

    /// Count a new attempt of job `idx` and emit `JobDispatched`.
    pub(crate) fn dispatch(&mut self, idx: usize, at: SimTime, sink: &mut dyn EventSink) {
        let job = &mut self.jobs[idx];
        job.attempts += 1;
        job.started = at;
        if sink.enabled() {
            sink.record(TraceEvent::JobDispatched {
                job: job.spec.id,
                at,
                attempt: job.attempts,
            });
        }
    }

    /// Record job `idx` as completed: its latest attempt ran for
    /// `exec_seconds` on `hosts` and finished at `finish` after
    /// surviving `reschedules` mid-run revocations.
    pub(crate) fn complete(
        &mut self,
        idx: usize,
        finish: SimTime,
        exec_seconds: f64,
        hosts: &[HostId],
        reschedules: u32,
        sink: &mut dyn EventSink,
    ) -> Result<(), GridError> {
        let hosts = hosts
            .iter()
            .map(|&h| Ok(self.pristine.host(h)?.spec.name.clone()))
            .collect::<Result<Vec<_>, GridError>>()?;
        let job = &self.jobs[idx];
        let wait_seconds = job.started.saturating_sub(job.submit).as_secs_f64();
        if sink.enabled() {
            sink.record(TraceEvent::JobCompleted {
                job: job.spec.id,
                at: finish,
                exec_seconds,
            });
        }
        self.records.push(JobRecord {
            id: job.spec.id,
            kind: job.spec.kind.name().to_string(),
            submit: job.submit,
            start: job.started,
            finish,
            hosts,
            wait_seconds,
            exec_seconds,
            slowdown: slowdown_of(wait_seconds, exec_seconds),
            attempts: job.attempts,
            reschedules,
            completed: true,
        });
        Ok(())
    }

    /// Job `idx`'s attempt at `now` failed with `err`. A failure the
    /// retry policy cannot absorb aborts the stream; any other goes to
    /// [`Self::lose`].
    pub(crate) fn fail(
        &mut self,
        idx: usize,
        err: &ApplesError,
        now: SimTime,
        sink: &mut dyn EventSink,
    ) -> Result<Next, GridError> {
        let Some((host, at)) = retryable(err) else {
            return Err(GridError::Job {
                id: self.jobs[idx].spec.id,
                message: err.to_string(),
            });
        };
        Ok(self.lose(idx, host, at, now, sink))
    }

    /// Job `idx` lost its latest attempt, noticed at `now`: on `host`
    /// (when the loss names one) at `lost_at` (when known). The host is
    /// excluded from later attempts. Within the retry budget the job
    /// retries after a jittered backoff; otherwise it is recorded as
    /// failed. Nothing was imposed for the lost attempt, so the
    /// topology carries no trace of it.
    pub(crate) fn lose(
        &mut self,
        idx: usize,
        host: Option<HostId>,
        lost_at: Option<SimTime>,
        now: SimTime,
        sink: &mut dyn EventSink,
    ) -> Next {
        let job = &mut self.jobs[idx];
        if let Some(h) = host {
            if !job.dead_hosts.contains(&h) {
                job.dead_hosts.push(h);
            }
        }
        let id = job.spec.id;
        let attempts = job.attempts;
        let give_up = lost_at.unwrap_or(now).max(now);
        if attempts < self.retry.max_attempts {
            // Jittered per (seed, job): jobs revoked by the same fault
            // spread out instead of thundering back in lockstep.
            let at = give_up
                + self
                    .retry
                    .backoff_jittered(attempts, self.cfg.seed ^ id as u64);
            if sink.enabled() {
                sink.record(TraceEvent::JobRetried {
                    job: id,
                    at,
                    attempt: attempts,
                });
            }
            return Next::Retry(at);
        }
        let wait_seconds = give_up.saturating_sub(job.submit).as_secs_f64();
        if sink.enabled() {
            sink.record(TraceEvent::JobFailed {
                job: id,
                at: give_up,
                attempts,
            });
        }
        self.records.push(JobRecord {
            id,
            kind: job.spec.kind.name().to_string(),
            submit: job.submit,
            start: job.started,
            finish: give_up,
            hosts: Vec::new(),
            wait_seconds,
            exec_seconds: 0.0,
            slowdown: slowdown_of(wait_seconds, 0.0),
            attempts,
            reschedules: 0,
            completed: false,
        });
        Next::Failed(give_up)
    }

    /// Fold the records, sorted by job id, into the stream's outcome.
    pub(crate) fn finish(mut self) -> GridOutcome {
        self.records.sort_by_key(|r| r.id);
        let host_names: Vec<String> = self
            .pristine
            .hosts()
            .iter()
            .map(|h| h.spec.name.clone())
            .collect();
        let fleet =
            FleetMetrics::from_records(&self.records, self.duration.as_secs_f64(), &host_names);
        GridOutcome {
            records: self.records,
            fleet,
        }
    }
}

/// A failure the retry policy may absorb: the revoked or unreachable
/// host (when the failure names one) and the simulated time the
/// placement was lost (when known).
fn retryable(err: &ApplesError) -> Option<(Option<HostId>, Option<SimTime>)> {
    match err {
        ApplesError::Sim(SimError::PlacementLost { host, at }) => {
            Some((Some(HostId(*host)), Some(*at)))
        }
        ApplesError::Sim(SimError::NeverCompletes { .. })
        | ApplesError::NoFeasibleResources
        | ApplesError::PlanningFailed(_)
        | ApplesError::NoViableSchedule => Some((None, None)),
        _ => None,
    }
}

/// Realize the configured fault injection into a concrete schedule over
/// the submission window.
pub(crate) fn realize_faults(
    cfg: &GridConfig,
    topo: &Topology,
    duration: SimTime,
) -> Result<FaultSpec, GridError> {
    match &cfg.faults {
        FaultInjection::None => Ok(FaultSpec::none()),
        FaultInjection::Spec(s) => Ok(s.clone()),
        FaultInjection::Random(m) => {
            let end = cfg.warmup.checked_add(duration).ok_or_else(|| {
                GridError::InvalidConfig(format!(
                    "faults realized over {duration} after the {} warm-up end past the end of simulated time",
                    cfg.warmup
                ))
            })?;
            Ok(m.realize(topo, cfg.warmup, end, cfg.seed)?)
        }
    }
}

/// The knob `regime` would silently drop under `cfg` and the realized
/// `faults`, as the message refusing it: the centralized regimes plan
/// from static nominal information, so they have no blind variant;
/// processor sharing has no admission queue and models host capacity
/// only. `None` when the regime models every knob that is set. Both the
/// stream setup and [`crate::validate_config`] refuse through this one
/// check.
pub(crate) fn unmodeled_knob(
    cfg: &GridConfig,
    regime: SchedRegime,
    faults: &FaultSpec,
) -> Option<String> {
    let knob = match regime {
        SchedRegime::Selfish => None,
        _ if cfg.regime == Regime::Blind => Some("the blind information regime"),
        SchedRegime::Fractional if cfg.max_in_flight != usize::MAX => {
            Some("an admission bound (max_in_flight)")
        }
        SchedRegime::Fractional if !faults.link_faults.is_empty() => Some("link faults"),
        _ => None,
    };
    knob.map(|knob| format!("the {regime} regime does not model {knob}"))
}
