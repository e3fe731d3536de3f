//! The job-stream service: admit, decide, actuate, impose, record.
//!
//! One shared Figure 2 testbed; each admitted job gets its own selfish
//! AppLeS agent deciding from Network Weather Service forecasts, then
//! the job's realized resource usage is written back into the topology
//! as foreground load (§3: "other applications create contention for
//! shared resources, and are experienced by an individual application
//! in terms of the dynamically varying performance capability of
//! metacomputing system resources"). Later agents' sensors observe
//! that contention and route around it.
//!
//! ## Information regimes
//!
//! * [`Regime::Aware`] — one shared Weather Service is advanced to
//!   each job's start over the *live* (load-imposed) topology. Because
//!   a job's imposition only alters availability from its own start
//!   time forward, and jobs are processed in admission order, the
//!   shared service's sample stream is identical to giving every agent
//!   a fresh service over the mutated topology — at a fraction of the
//!   cost for long streams — with one exception. When an earlier job's
//!   retry starts after this job's start, the service is already past
//!   that start and does not go back, so this job's agent decides from
//!   samples taken after its own decision time. In `e2e-bench`'s
//!   `race-faults` workload (seed 1996), 8 of 81 one-shot aware
//!   decisions saw a service 35–190 s ahead of their start;
//!   `race-clean` had none of its 450.
//! * [`Regime::Blind`] — every agent decides from one pristine
//!   pre-stream snapshot, as if all jobs were submitted simultaneously;
//!   they pile onto the same fast hosts and contend.
//!
//! ## Approximations
//!
//! A running job does not feel load imposed by *later* arrivals
//! (first-decider-wins): each actuation simulates against the topology
//! as of its start. Host impositions are exact for SPMD jobs (measured
//! compute seconds); pipeline and farm impositions are busy-fraction
//! estimates. Link impositions smear a job's total transferred MB over
//! its run window.
//!
//! ## Faults and retries
//!
//! A [`FaultInjection`] schedule (explicit [`FaultSpec`] or a realized
//! [`FaultModel`]) is applied to the *live* topology before the stream
//! starts. The blind snapshot stays pre-fault: a blind agent has no
//! channel through which to learn about crashes, which is exactly the
//! baseline the paper's Figure 6 argues against. When an actuation is
//! revoked mid-run ([`metasim::SimError::PlacementLost`]) the service
//! discards the attempt without writing its load back (tear-down: a
//! placement that died never finished occupying its hosts for the
//! recorded window), excludes the dead host, and retries the job under
//! the workload's [`crate::RetryPolicy`] with exponential backoff —
//! the job lifecycle every regime shares (`crate::lifecycle`). Aware
//! stencil jobs additionally run under [`ReschedulingAgent`], which
//! checkpoints at phase boundaries and re-plans remnant iterations on
//! the survivors instead of restarting from scratch. Jobs that exhaust
//! their attempts are recorded with `completed = false`, never dropped.

use crate::lifecycle::{realize_faults, unmodeled_knob, Lifecycle, Next};
use crate::metrics::{FleetMetrics, JobRecord};
use crate::sched::SchedRegime;
use crate::workload::{JobKind, WorkloadConfig};
use apples::actuator::{actuate, ActuationDetail, ActuationReport};
use apples::hat::Hat;
use apples::info::InfoPool;
use apples::rescheduler::{RescheduleReport, ReschedulingAgent};
use apples::schedule::Schedule;
use apples::{ApplesError, Coordinator};
use apples_apps::nile::plan_farm;
use metasim::load::Imposition;
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{FaultModel, FaultSpec, SimError};
use metasim::{HostId, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};
use simcore::EventQueue;

/// Information regime for the stream's agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Each agent observes the system as it is when its job starts,
    /// including earlier jobs' imposed load.
    Aware,
    /// Every agent decides from pristine pre-stream measurements.
    Blind,
}

/// How (and whether) host and link faults are injected into the live
/// testbed for the duration of the stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FaultInjection {
    /// No injected faults; the seed behavior.
    #[default]
    None,
    /// Apply this exact fault schedule.
    Spec(FaultSpec),
    /// Realize a random schedule from this model over the submission
    /// window, seeded by the grid seed (deterministic per seed).
    Random(FaultModel),
}

/// Service-side configuration: the shared system and its policies.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Background-load profile of the testbed.
    pub profile: LoadProfile,
    /// Include the two SP-2 nodes.
    pub with_sp2: bool,
    /// Run on a generated topology family instead of the Figure-2
    /// SDSC/PCL testbed. The profile, horizon and seed above drive the
    /// generation. The SP-2 nodes belong to the Figure-2 testbed, so a
    /// configuration that sets both this and `with_sp2` is rejected.
    pub topo: Option<TopoSpec>,
    /// Sensor warmup before the first submission: the NWS needs
    /// history to forecast from.
    pub warmup: SimTime,
    /// Availability-realization horizon of the testbed: a *cap*, not a
    /// cost. Series are realized lazily, only as far as the stream reads
    /// them, never past the horizon, and extend their last value beyond
    /// it.
    pub horizon: SimTime,
    /// Seed for the testbed's background-load realization.
    pub seed: u64,
    /// Information regime.
    pub regime: Regime,
    /// FCFS admission bound: at most this many jobs in flight; further
    /// submissions queue. `usize::MAX` disables admission control.
    pub max_in_flight: usize,
    /// Faults injected into the live testbed.
    pub faults: FaultInjection,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            profile: LoadProfile::Light,
            with_sp2: false,
            topo: None,
            warmup: SimTime::from_secs(600),
            horizon: SimTime::from_secs(400_000),
            seed: 1996,
            regime: Regime::Aware,
            max_in_flight: usize::MAX,
            faults: FaultInjection::None,
        }
    }
}

/// A service failure.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A configuration knob was rejected before the stream started.
    InvalidConfig(String),
    /// A job failed in a way the retry policy cannot absorb.
    Job {
        /// Submission-order id of the failing job.
        id: usize,
        /// What went wrong.
        message: String,
    },
    /// An agent-level failure outside any per-job retry path.
    Agent(ApplesError),
    /// A simulator-level failure (testbed construction, imposition,
    /// fault application).
    Sim(SimError),
    /// A service invariant was violated — a bug, not bad input.
    Internal(String),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::InvalidConfig(m) => write!(f, "invalid grid configuration: {m}"),
            GridError::Job { id, message } => write!(f, "job {id}: {message}"),
            GridError::Agent(e) => write!(f, "agent failure: {e}"),
            GridError::Sim(e) => write!(f, "simulation failure: {e}"),
            GridError::Internal(m) => write!(f, "internal service error: {m}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<ApplesError> for GridError {
    fn from(e: ApplesError) -> Self {
        GridError::Agent(e)
    }
}

impl From<SimError> for GridError {
    fn from(e: SimError) -> Self {
        GridError::Sim(e)
    }
}

/// Everything a finished stream yields.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// Per-job records in job-id order (submission order for realized
    /// workloads).
    pub records: Vec<JobRecord>,
    /// Fleet-level reduction of the records.
    pub fleet: FleetMetrics,
}

/// One pre-run diagnostic: a stable machine-readable code plus prose.
///
/// Codes for testbed/fault problems come from
/// [`metasim::ConfigIssue::code`]; service- and workload-level problems
/// use the codes documented on [`validate_config`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable kebab-case class of the problem (e.g. `unreachable-hosts`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl From<&metasim::ConfigIssue> for Diagnostic {
    fn from(issue: &metasim::ConfigIssue) -> Self {
        Diagnostic {
            code: issue.code().to_owned(),
            message: issue.to_string(),
        }
    }
}

/// Best-case per-host resident demand of one job kind when spread over
/// `n_hosts`, for the static memory-fit check. `None` for kinds without
/// a static footprint model.
fn per_host_demand_mb(kind: &JobKind, n_hosts: usize) -> Option<(String, f64)> {
    let (hat, _) = kind.hat_and_user();
    if let Some(t) = hat.as_stencil() {
        let rows = t.n.div_ceil(n_hosts.max(1));
        Some((
            format!("{} ({n}x{n} stencil)", kind.name(), n = t.n),
            t.strip_resident_mb(rows),
        ))
    } else {
        hat.as_pipeline().map(|p| {
            (
                kind.name().to_owned(),
                p.producer_resident_mb.max(p.consumer_base_mb),
            )
        })
    }
}

/// Build the stream's shared topology: the Figure-2 SDSC/PCL testbed
/// by default, or a generated [`topogen`] family when `cfg.topo` names
/// one. The grid profile, horizon and seed drive the generation, so a
/// `--topo fat-tree:k=8` stream is exactly as reproducible as the
/// hand-built testbed. A generated family has no SP-2 nodes, so
/// `with_sp2` next to `topo` is a [`GridError::InvalidConfig`] rather
/// than a knob silently dropped.
pub(crate) fn build_topology(cfg: &GridConfig) -> Result<Topology, GridError> {
    match &cfg.topo {
        Some(spec) if cfg.with_sp2 => Err(GridError::InvalidConfig(format!(
            "the SP-2 nodes belong to the Figure-2 testbed and cannot join the generated topology `{}`",
            spec.label()
        ))),
        Some(spec) => Ok(topogen::generate(
            spec,
            &TopoGenConfig {
                profile: cfg.profile,
                horizon: cfg.horizon,
                seed: cfg.seed,
            },
        )?),
        None => Ok(pcl_sdsc(&TestbedConfig {
            profile: cfg.profile,
            horizon: cfg.horizon,
            seed: cfg.seed,
            with_sp2: cfg.with_sp2,
        })?
        .topo),
    }
}

/// Statically validate a service configuration (and, when given, a
/// workload) without running anything.
///
/// Returns every problem found, not just the first. Testbed and fault
/// diagnostics carry [`metasim::ConfigIssue`] codes; the service adds:
///
/// * `admission` — `max_in_flight` is zero, the stream can never start;
/// * `testbed` — the testbed itself failed to build, or `with_sp2` is
///   set next to a generated topology;
/// * `fault-model` — a random fault model with invalid rates;
/// * `arrivals` / `job-mix` / `retry` — the corresponding workload knob
///   was rejected;
/// * `duration` — the submission window is empty, or ends at or past
///   the end of simulated time after the warm-up;
/// * `memory-overcommit` — a job kind in the mix cannot fit on the
///   testbed's hosts even when spread perfectly;
/// * `regime` — `regime` is given and does not model a knob that is
///   set, exactly as the stream setup would refuse it. Random faults
///   are realized over the workload's window for this check, so
///   without a workload only explicit link faults count.
pub fn validate_config(
    cfg: &GridConfig,
    workload: Option<&WorkloadConfig>,
    regime: Option<SchedRegime>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |code: &str, message: String| {
        out.push(Diagnostic {
            code: code.to_owned(),
            message,
        });
    };

    if cfg.max_in_flight == 0 {
        push("admission", "max_in_flight must be at least 1".into());
    }

    let topo = match build_topology(cfg) {
        Ok(t) => t,
        Err(GridError::InvalidConfig(m)) => {
            push("testbed", m);
            return out;
        }
        Err(e) => {
            push("testbed", format!("testbed failed to build: {e}"));
            return out;
        }
    };

    let mut report = metasim::validate_topology(&topo);
    match &cfg.faults {
        FaultInjection::None => {}
        FaultInjection::Spec(spec) => {
            report.merge(metasim::validate_faults(&topo, spec));
        }
        FaultInjection::Random(model) => {
            if let Err(e) = model.validate() {
                push("fault-model", e.to_string());
            }
        }
    }
    out.extend(report.issues.iter().map(Diagnostic::from));

    if let Some(w) = workload {
        if let Err(e) = w.arrivals.validate() {
            out.push(Diagnostic {
                code: "arrivals".into(),
                message: e.to_string(),
            });
        }
        if let Err(e) = w.mix.validate() {
            out.push(Diagnostic {
                code: "job-mix".into(),
                message: e.to_string(),
            });
        }
        if let Err(e) = w.retry.validate() {
            out.push(Diagnostic {
                code: "retry".into(),
                message: e.to_string(),
            });
        }
        if let Err(e) = w
            .validate_duration()
            .and_then(|()| w.validate_end(cfg.warmup))
        {
            out.push(Diagnostic {
                code: "duration".into(),
                message: e.to_string(),
            });
        }
        let n_hosts = topo.hosts().len();
        for (kind, _) in &w.mix.entries {
            if let Some((what, needed)) = per_host_demand_mb(kind, n_hosts) {
                if let Some(issue) = metasim::validate::memory_fit(&topo, &what, needed) {
                    out.push(Diagnostic::from(&issue));
                }
            }
        }
    }

    if let Some(regime) = regime {
        let window = workload.map_or(SimTime::ZERO, |w| w.duration);
        // An invalid fault model is already reported above.
        if let Ok(faults) = realize_faults(cfg, &topo, window) {
            if let Some(message) = unmodeled_knob(cfg, regime, &faults) {
                out.push(Diagnostic {
                    code: "regime".into(),
                    message,
                });
            }
        }
    }

    out
}

/// A validated handle on the simulated grid: construction runs the full
/// static validation pass and refuses configurations that would panic
/// or hang a stream mid-run.
#[derive(Debug, Clone)]
pub struct GridService {
    cfg: GridConfig,
}

impl GridService {
    /// Validate `cfg` (service knobs, testbed topology, fault schedule)
    /// and wrap it. Every diagnostic is reported, joined into one
    /// [`GridError::InvalidConfig`].
    pub fn new(cfg: GridConfig) -> Result<GridService, GridError> {
        check(&cfg, None)?;
        Ok(GridService { cfg })
    }

    /// The validated configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Validate `workload` against this service's testbed (including
    /// the static memory-fit check), then stream it under `regime`,
    /// narrating into `sink`.
    pub fn run(
        &self,
        regime: SchedRegime,
        workload: &WorkloadConfig,
        sink: &mut dyn EventSink,
    ) -> Result<GridOutcome, GridError> {
        check(&self.cfg, Some(workload))?;
        crate::sched::run_regime_jobs_with_sink(
            &self.cfg,
            regime,
            &workload.realize(),
            workload.duration,
            workload.retry,
            sink,
        )
    }
}

/// [`validate_config`], with every diagnostic joined into one
/// [`GridError::InvalidConfig`].
fn check(cfg: &GridConfig, workload: Option<&WorkloadConfig>) -> Result<(), GridError> {
    let diags = validate_config(cfg, workload, None);
    if diags.is_empty() {
        return Ok(());
    }
    Err(GridError::InvalidConfig(
        diags
            .iter()
            .map(Diagnostic::to_string)
            .collect::<Vec<_>>()
            .join("; "),
    ))
}

/// What one placement attempt produced.
enum AttemptOutcome {
    /// The job ran to completion in one actuation.
    OneShot(Schedule, ActuationReport),
    /// The job ran in phases under the rescheduling agent, surviving
    /// zero or more mid-run revocations.
    Phased(RescheduleReport),
}

/// The selfish regime: admit jobs FCFS under the in-flight bound, one
/// AppLeS agent per job deciding from the shared (aware) or pristine
/// (blind) Weather Service, then write the job's usage back into the
/// live topology. Each job runs its whole attempt chain before the next
/// is admitted, which is what keeps the shared service's sample stream
/// in admission order.
///
/// `shared_ws` is the service the stream starts from: a fresh one, or
/// a fork of one warmed to at most `cfg.warmup` over the fault-free
/// testbed while `life.live` is that testbed too
/// ([`crate::sched::run_solo_references`]). A warmed fork equals a
/// fresh service advanced to its `now()` over both `life.live` and
/// `life.pristine`, so decisions and records are bit-identical to a
/// fresh start. So is the trace when the first job starts at the fork's
/// `now()`: neither start has a held forecast to score there.
pub(crate) fn run_selfish(
    mut life: Lifecycle<'_>,
    mut shared_ws: WeatherService,
    sink: &mut dyn EventSink,
) -> Result<GridOutcome, GridError> {
    let cfg = life.cfg;
    // Blind agents share one pre-stream snapshot of the fault-free
    // testbed; aware agents share one service advanced in admission
    // order over the live topology.
    let blind_ws = (cfg.regime == Regime::Blind).then(|| {
        let mut ws = shared_ws.clone();
        ws.advance(&life.pristine, cfg.warmup);
        ws
    });
    let mut replay = Replay::default();
    let faults_on = !life.faults.is_empty();

    // Finish times of admitted jobs, for the FCFS in-flight bound.
    let mut in_flight: EventQueue<SimTime, ()> = EventQueue::new();

    for idx in 0..life.jobs.len() {
        let submit = life.jobs[idx].submit;
        let kind = life.jobs[idx].spec.kind;
        let mut start = submit;
        while in_flight.len() >= cfg.max_in_flight {
            let Some((freed, _, ())) = in_flight.pop() else {
                break;
            };
            start = start.max(freed);
        }
        life.submit(idx, submit, sink);

        let (hat, base_user) = kind.hat_and_user();
        // Aware stencil jobs run phase-wise under faults so a mid-run
        // revocation costs only the failed phase, not the whole job.
        let phased =
            faults_on && cfg.regime == Regime::Aware && matches!(kind, JobKind::Jacobi { .. });

        let finish = loop {
            life.dispatch(idx, start, sink);
            let mut user = base_user.clone();
            user.excluded_hosts
                .extend(life.jobs[idx].dead_hosts.iter().copied());
            let topo = &life.live;

            let outcome: Result<AttemptOutcome, ApplesError> = if phased {
                let mut agent = ReschedulingAgent::new(Coordinator::new(hat.clone(), user));
                if let JobKind::Jacobi { iterations, .. } = kind {
                    // Four checkpoints per job bounds lost work to a
                    // quarter of the solve without paying a replanning
                    // pass per handful of iterations.
                    agent.policy.phase_iterations = (iterations / 4).max(10);
                }
                // The rescheduler drives its own sampling clock past
                // this job's phases; give it a private service over the
                // live topology so the shared admission-order stream is
                // not advanced beyond the next job's start. The private
                // service is a fork of `replay`, bit-identical to a
                // fresh service advanced to `start` over the live
                // topology as it stands now (see `Replay`).
                let mut ws = replay.fork_at(topo, start);
                agent
                    .run_stencil(topo, &mut ws, start, sink)
                    .map(AttemptOutcome::Phased)
            } else {
                let schedule = match &blind_ws {
                    Some(ws) => {
                        let pool = InfoPool::with_nws(&life.pristine, ws, &hat, &user, cfg.warmup);
                        decide(&kind, &pool, sink)
                    }
                    None => {
                        shared_ws.advance_with_sink(topo, start, sink);
                        let pool = InfoPool::with_nws(topo, &shared_ws, &hat, &user, start);
                        decide(&kind, &pool, sink)
                    }
                };
                schedule.and_then(|(schedule, _)| {
                    actuate(topo, &hat, &schedule, start, sink)
                        .map(|report| AttemptOutcome::OneShot(schedule, report))
                })
            };

            match outcome {
                Ok(AttemptOutcome::OneShot(schedule, report)) => {
                    impose_job_load(&mut life.live, &hat, &schedule, &report, start, sink)?;
                    replay.wrote_from(start);
                    let hosts = schedule.hosts();
                    let exec = report.elapsed_seconds;
                    life.complete(idx, report.finish, exec, &hosts, 0, sink)?;
                    break report.finish;
                }
                Ok(AttemptOutcome::Phased(report)) => {
                    let hosts = impose_phases(&mut life.live, &report, sink)?;
                    replay.wrote_from(start);
                    // Saturate rather than truncate: a `usize as u32`
                    // cast would silently wrap a pathological count.
                    let reschedules = u32::try_from(report.revocations).unwrap_or(u32::MAX);
                    let exec = report.elapsed_seconds;
                    life.complete(idx, report.finish, exec, &hosts, reschedules, sink)?;
                    break report.finish;
                }
                Err(err) => match life.fail(idx, &err, start, sink)? {
                    Next::Retry(at) => start = at,
                    Next::Failed(at) => break at,
                },
            }
        };
        in_flight.schedule(finish, ());
    }
    Ok(life.finish())
}

/// One Weather Service replayed over the live topology for a whole
/// selfish run, forked for each phase-wise attempt instead of replaying
/// every sample from t = 0 per attempt.
///
/// The replay equals, bit for bit, a fresh service advanced to `start`
/// over the live topology as it stands at the fork while both hold:
/// - it has not advanced past `start`, and
/// - no write to the live topology since its last advance takes effect
///   at or before its last sample instant.
///
/// Sensors read availability at their sample instants, so a later
/// write leaves every held sample as it was. Faults are applied before
/// the first job and every in-run write starts at or after its
/// attempt's `start`, so the earliest such `start` since the last
/// advance (`written_from`) bounds every write. When either condition
/// fails the replay is rebuilt from scratch.
#[derive(Default)]
struct Replay {
    ws: Option<WeatherService>,
    /// Earliest `start` of an attempt that wrote to the live topology
    /// since `ws` last advanced.
    written_from: Option<SimTime>,
}

impl Replay {
    /// A private service advanced to `start` over `topo`.
    fn fork_at(&mut self, topo: &Topology, start: SimTime) -> WeatherService {
        let ws = match self.ws.take() {
            Some(ws) if self.reusable(&ws, start) => ws,
            _ => WeatherService::for_topology(topo, WeatherServiceConfig::default()),
        };
        // Advance without a sink: a fresh service's first advance has
        // no prior forecast to score, so the fork's own advance to
        // `start` must poll nothing and record nothing either.
        let ws = self.ws.insert(ws);
        ws.advance(topo, start);
        self.written_from = None;
        ws.clone()
    }

    fn reusable(&self, ws: &WeatherService, start: SimTime) -> bool {
        let unwritten = match (self.written_from, ws.last_sample_at()) {
            (Some(from), Some(last)) => from > last,
            _ => true,
        };
        ws.now() <= start && unwritten
    }

    /// Note a write to the live topology by an attempt started at
    /// `start`.
    fn wrote_from(&mut self, start: SimTime) {
        self.written_from = Some(self.written_from.map_or(start, |w| w.min(start)));
    }
}

/// Write a phase-wise job's per-phase usage back into the topology and
/// return the hosts it used, in first-use order.
///
/// Each host's per-phase impositions are applied in one batched
/// in-place [`StepSeries::impose`] instead of one per (phase, worker).
/// Phase windows on one host are disjoint in time, so the batched
/// result equals sequential application; `LoadImposed` events keep the
/// per-phase order.
///
/// [`StepSeries::impose`]: metasim::load::StepSeries::impose
fn impose_phases(
    topo: &mut Topology,
    report: &RescheduleReport,
    sink: &mut dyn EventSink,
) -> Result<Vec<HostId>, GridError> {
    let mut used: Vec<HostId> = Vec::new();
    let mut batched: Vec<(HostId, Vec<Imposition>)> = Vec::new();
    for ph in &report.phases {
        let phase_end = ph.start + SimTime::from_secs_f64(ph.elapsed_seconds);
        for (w, &h) in ph.hosts.iter().enumerate() {
            let busy = ph.compute_seconds.get(w).copied().unwrap_or(0.0);
            if ph.elapsed_seconds > 0.0 {
                let utilization = (busy / ph.elapsed_seconds).clamp(0.0, 1.0);
                let factor = 1.0 - utilization;
                let imp = Imposition::new(ph.start, phase_end, factor);
                match batched.iter_mut().find(|(bh, _)| *bh == h) {
                    Some((_, imps)) => imps.push(imp),
                    None => batched.push((h, vec![imp])),
                }
                if sink.enabled() {
                    sink.record(TraceEvent::LoadImposed {
                        host: h,
                        at: ph.start,
                        until: phase_end,
                        factor,
                    });
                }
            }
            if !used.contains(&h) {
                used.push(h);
            }
        }
    }
    for (h, imps) in &batched {
        topo.host_mut(*h)?.availability_mut().impose(imps);
    }
    Ok(used)
}

/// Plan one job, surfacing the estimator's predicted runtime in
/// seconds: stencil and pipeline hats go through the Coordinator's
/// select → plan → estimate → choose loop; task farms are planned by
/// their Site Manager ([`plan_farm`]), as in the paper's NILE case
/// study, over every feasible host with the data and result home on
/// the fastest-forecast host. The centralized batch scheduler
/// ([`crate::sched`]) uses the prediction as its EASY-backfilling
/// reservation oracle — the same application-level estimate the
/// selfish agents act on, handed to a resource-level policy instead.
pub(crate) fn decide(
    kind: &JobKind,
    pool: &InfoPool<'_>,
    sink: &mut dyn EventSink,
) -> Result<(Schedule, f64), ApplesError> {
    match kind {
        JobKind::NileFarm { .. } => {
            let feasible: Vec<HostId> = apples::selector::ResourceSelector::feasible_hosts(pool);
            let home = feasible
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    let fa = pool.effective_mflops(a).unwrap_or(0.0);
                    let fb = pool.effective_mflops(b).unwrap_or(0.0);
                    fa.total_cmp(&fb).then(b.cmp(&a))
                })
                .ok_or(ApplesError::NoFeasibleResources)?;
            let plan = plan_farm(pool, &feasible, home, home)?;
            let predicted = apples::estimator::estimate_farm(pool, &plan)?;
            Ok((Schedule::Farm(plan), predicted))
        }
        _ => {
            let coordinator = Coordinator::new(pool.hat.clone(), pool.user.clone());
            let decision = coordinator.decide_with_sink(pool, sink)?;
            let predicted = decision.chosen().predicted_seconds;
            Ok((decision.schedule().clone(), predicted))
        }
    }
}

/// Write a finished job's resource usage back into the topology so
/// later observers experience the contention.
fn impose_job_load(
    topo: &mut Topology,
    hat: &Hat,
    schedule: &Schedule,
    report: &ActuationReport,
    start: SimTime,
    sink: &mut dyn EventSink,
) -> Result<(), GridError> {
    let finish = report.finish;
    let elapsed = finish.saturating_sub(start).as_secs_f64();
    if elapsed <= 0.0 {
        return Ok(());
    }
    match (schedule, &report.detail) {
        (Schedule::Stencil(s), ActuationDetail::Spmd(out)) => {
            // Exact: the simulator reports each worker's compute time.
            for (w, part) in s.parts.iter().enumerate() {
                let utilization = (out.compute_seconds[w] / elapsed).clamp(0.0, 1.0);
                impose_host(topo, part.host, start, finish, 1.0 - utilization, sink)?;
            }
        }
        (Schedule::Pipeline(p), ActuationDetail::Pipeline(out)) => {
            let producer_busy = ((elapsed - out.producer_block_seconds) / elapsed).clamp(0.0, 1.0);
            let consumer_busy = ((elapsed - out.consumer_stall_seconds) / elapsed).clamp(0.0, 1.0);
            impose_host(topo, p.producer, start, finish, 1.0 - producer_busy, sink)?;
            if p.consumer != p.producer {
                impose_host(topo, p.consumer, start, finish, 1.0 - consumer_busy, sink)?;
            }
            if let Some(t) = hat.as_pipeline() {
                let mb = t.mb_per_unit * t.total_units as f64;
                impose_route(topo, p.producer, p.consumer, mb, start, finish)?;
            }
        }
        (Schedule::Farm(f), ActuationDetail::Farm(out)) => {
            let t = hat.as_task_farm().ok_or_else(|| {
                GridError::Internal("farm schedule paired with a non-farm hat".into())
            })?;
            for (&(host, events), &(_, done)) in f.assignments.iter().zip(&out.host_done) {
                let window = done.saturating_sub(start).as_secs_f64();
                if window <= 0.0 || events == 0 {
                    continue;
                }
                // Estimate: compute demand over delivered capability.
                let h = topo.host(host)?;
                let avail = h.mean_availability(start, done).max(1e-9);
                let est_compute = events as f64 * t.mflop_per_event / (h.spec.mflops * avail);
                let utilization = (est_compute / window).clamp(0.0, 1.0);
                impose_host(topo, host, start, done, 1.0 - utilization, sink)?;
                impose_route(
                    topo,
                    f.data_home,
                    host,
                    events as f64 * t.mb_per_event,
                    start,
                    done,
                )?;
                impose_route(
                    topo,
                    host,
                    f.result_home,
                    events as f64 * t.result_mb_per_event,
                    start,
                    done,
                )?;
            }
        }
        // Schedule/report shape mismatch cannot happen: `actuate`
        // produced the report from this same schedule.
        _ => {
            return Err(GridError::Internal(
                "actuation detail does not match schedule shape".into(),
            ))
        }
    }
    Ok(())
}

/// Scale one host's availability by `factor` over `[from, to)`.
fn impose_host(
    topo: &mut Topology,
    host: HostId,
    from: SimTime,
    to: SimTime,
    factor: f64,
    sink: &mut dyn EventSink,
) -> Result<(), GridError> {
    topo.host_mut(host)?
        .availability_mut()
        .impose(&[Imposition::new(from, to, factor)]);
    if sink.enabled() {
        sink.record(TraceEvent::LoadImposed {
            host,
            at: from,
            until: to,
            factor,
        });
    }
    Ok(())
}

/// Smear `mb` of foreground traffic over every link on the route from
/// `from_host` to `to_host` across `[from, to)`: each link loses the
/// fraction of its nominal bandwidth the transfer consumed.
fn impose_route(
    topo: &mut Topology,
    from_host: HostId,
    to_host: HostId,
    mb: f64,
    from: SimTime,
    to: SimTime,
) -> Result<(), GridError> {
    let window = to.saturating_sub(from).as_secs_f64();
    if mb <= 0.0 || window <= 0.0 || from_host == to_host {
        return Ok(());
    }
    for link_id in topo.route(from_host, to_host)?.to_vec() {
        let l = topo.link_mut(link_id)?;
        let fraction = (mb / (l.spec.bandwidth_mbps * window)).clamp(0.0, 1.0);
        l.availability_mut()
            .impose(&[Imposition::new(from, to, 1.0 - fraction)]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::run_regime_jobs_with_sink;
    use crate::workload::{ArrivalProcess, JobMix, JobSpec, RetryPolicy};
    use metasim::simtrace::NoopSink;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn stream(cfg: &GridConfig, workload: &WorkloadConfig) -> Result<GridOutcome, GridError> {
        workload.validate()?;
        let jobs = workload.realize();
        selfish(cfg, &jobs, workload.duration, workload.retry)
    }

    fn traced_selfish(
        cfg: &GridConfig,
        jobs: &[JobSpec],
        duration: SimTime,
        retry: RetryPolicy,
        sink: &mut dyn EventSink,
    ) -> Result<GridOutcome, GridError> {
        run_regime_jobs_with_sink(cfg, SchedRegime::Selfish, jobs, duration, retry, sink)
    }

    fn selfish(
        cfg: &GridConfig,
        jobs: &[JobSpec],
        duration: SimTime,
        retry: RetryPolicy,
    ) -> Result<GridOutcome, GridError> {
        traced_selfish(cfg, jobs, duration, retry, &mut NoopSink)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn grid_service_accepts_the_default_config() {
        let svc = GridService::new(GridConfig::default()).expect("default config is valid");
        assert_eq!(svc.config().seed, 1996);
    }

    #[test]
    fn grid_service_refuses_zero_admission_bound() {
        let cfg = GridConfig {
            max_in_flight: 0,
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None, None);
        assert!(codes(&diags).contains(&"admission"), "{diags:?}");
        let err = GridService::new(cfg).unwrap_err();
        assert!(matches!(err, GridError::InvalidConfig(_)));
    }

    #[test]
    fn grid_service_refuses_bad_fault_model() {
        let cfg = GridConfig {
            faults: FaultInjection::Random(FaultModel {
                host_crashes_per_hour: -1.0,
                link_outages_per_hour: 0.0,
                mean_outage: SimTime::from_secs(600),
                permanent_fraction: 0.0,
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None, None);
        assert!(codes(&diags).contains(&"fault-model"), "{diags:?}");
        assert!(GridService::new(cfg).is_err());
    }

    #[test]
    fn grid_service_refuses_fault_windows_outside_horizon() {
        let cfg = GridConfig {
            faults: FaultInjection::Spec(FaultSpec {
                host_faults: vec![metasim::HostFault {
                    host: HostId(0),
                    at: SimTime::from_secs(500_000),
                    recover: None,
                }],
                link_faults: vec![],
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None, None);
        assert!(codes(&diags).contains(&"fault-beyond-horizon"), "{diags:?}");
        assert!(GridService::new(cfg).is_err());
    }

    #[test]
    fn grid_service_refuses_fault_on_unknown_host() {
        let cfg = GridConfig {
            faults: FaultInjection::Spec(FaultSpec {
                host_faults: vec![metasim::HostFault {
                    host: HostId(999),
                    at: SimTime::from_secs(100),
                    recover: None,
                }],
                link_faults: vec![],
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None, None);
        assert!(
            codes(&diags).contains(&"fault-on-unknown-host"),
            "{diags:?}"
        );
        assert!(GridService::new(cfg).is_err());
    }

    #[test]
    fn validate_config_rejects_workload_knobs() {
        let cfg = GridConfig::default();
        let w = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.0 },
            mix: JobMix { entries: vec![] },
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..WorkloadConfig::default()
        };
        let diags = validate_config(&cfg, Some(&w), None);
        let c = codes(&diags);
        assert!(c.contains(&"arrivals"), "{c:?}");
        assert!(c.contains(&"job-mix"), "{c:?}");
        assert!(c.contains(&"retry"), "{c:?}");
    }

    /// A default workload whose `--duration` was given as `secs`, at
    /// Poisson `rate_hz`.
    fn window(secs: f64, rate_hz: f64) -> WorkloadConfig {
        WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz },
            duration: s(secs),
            ..WorkloadConfig::default()
        }
    }

    /// `w` is refused as a `duration` diagnostic by the validator and as
    /// a typed error by the service and the seed sweep, before any
    /// stream is realized.
    fn assert_rejected_at_every_front_door(w: &WorkloadConfig) {
        let cfg = GridConfig::default();
        let diags = validate_config(&cfg, Some(w), Some(SchedRegime::Selfish));
        assert_eq!(codes(&diags), ["duration"], "{diags:?}");
        let svc = GridService::new(cfg.clone()).unwrap();
        for regime in [
            SchedRegime::Selfish,
            SchedRegime::Batch,
            SchedRegime::Fractional,
        ] {
            assert!(matches!(
                svc.run(regime, w, &mut NoopSink),
                Err(GridError::InvalidConfig(_))
            ));
        }
        assert!(matches!(
            crate::sweep::sweep_seeds(&cfg, w, &[1, 2]),
            Err(GridError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_nan_or_non_positive_duration_is_rejected() {
        // Each reads as a zero-length window, which used to run an
        // empty stream and report success.
        for secs in [f64::NAN, 0.0, -5.0] {
            let w = window(secs, 0.02);
            assert_eq!(w.duration, SimTime::ZERO);
            assert!(matches!(w.validate(), Err(GridError::InvalidConfig(_))));
            assert_rejected_at_every_front_door(&w);
        }
    }

    #[test]
    fn an_infinite_duration_is_rejected_before_arrivals_are_drawn() {
        // Realizing arrivals up to the end of simulated time would not
        // finish; the check must come first.
        let w = window(f64::INFINITY, 0.02);
        assert_eq!(w.duration, SimTime::MAX);
        assert_rejected_at_every_front_door(&w);
        // The fault model is realized over the same window.
        let faulted = GridConfig {
            faults: FaultInjection::Random(metasim::FaultModel {
                host_crashes_per_hour: 1.0,
                link_outages_per_hour: 0.0,
                mean_outage: s(600.0),
                permanent_fraction: 0.25,
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&faulted, Some(&w), Some(SchedRegime::Batch));
        assert_eq!(codes(&diags), ["duration"], "{diags:?}");
    }

    #[test]
    fn an_arrival_at_the_end_of_time_is_rejected() {
        // A window this long and a rate this low draw one arrival near
        // `SimTime::MAX`; adding the warm-up to it used to overflow.
        let w = window(1e300, 1e-300);
        assert_rejected_at_every_front_door(&w);
        let cfg = GridConfig::default();
        let jobs = w.realize();
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].submit > SimTime::MAX - cfg.warmup);
        // Streaming the realized jobs directly refuses them too.
        for regime in [
            SchedRegime::Selfish,
            SchedRegime::Batch,
            SchedRegime::Fractional,
        ] {
            assert!(matches!(
                run_regime_jobs_with_sink(&cfg, regime, &jobs, w.duration, w.retry, &mut NoopSink),
                Err(GridError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn sp2_nodes_on_a_generated_topology_are_rejected() {
        let cfg = GridConfig {
            with_sp2: true,
            topo: Some(TopoSpec::parse("star:hosts=6").unwrap()),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None, None);
        assert_eq!(codes(&diags), ["testbed"], "{diags:?}");
        assert!(diags[0].message.contains("SP-2"), "{diags:?}");
        assert!(matches!(
            GridService::new(cfg.clone()),
            Err(GridError::InvalidConfig(_))
        ));
        let w = WorkloadConfig::default();
        let jobs = w.realize();
        for regime in [
            SchedRegime::Selfish,
            SchedRegime::Batch,
            SchedRegime::Fractional,
        ] {
            assert!(matches!(
                run_regime_jobs_with_sink(&cfg, regime, &jobs, w.duration, w.retry, &mut NoopSink),
                Err(GridError::InvalidConfig(_))
            ));
        }
        // Either knob alone is fine.
        for cfg in [
            GridConfig {
                with_sp2: false,
                ..cfg.clone()
            },
            GridConfig { topo: None, ..cfg },
        ] {
            assert!(validate_config(&cfg, None, None).is_empty());
        }
    }

    #[test]
    fn validate_config_flags_memory_overcommit() {
        let cfg = GridConfig::default();
        // A 30000x30000 Jacobi grid is ~14 GB resident; even spread
        // across every Figure-2 host it cannot fit.
        let w = WorkloadConfig {
            mix: JobMix::only(JobKind::Jacobi {
                n: 30_000,
                iterations: 10,
            }),
            ..WorkloadConfig::default()
        };
        let diags = validate_config(&cfg, Some(&w), None);
        assert!(codes(&diags).contains(&"memory-overcommit"), "{diags:?}");
        // And the service refuses to run it.
        let svc = GridService::new(cfg).unwrap();
        assert!(matches!(
            svc.run(SchedRegime::Selfish, &w, &mut NoopSink),
            Err(GridError::InvalidConfig(_))
        ));
    }

    #[test]
    fn validate_config_is_clean_for_shipped_configs() {
        for with_sp2 in [false, true] {
            let cfg = GridConfig {
                with_sp2,
                ..GridConfig::default()
            };
            let diags = validate_config(&cfg, Some(&WorkloadConfig::default()), None);
            assert!(diags.is_empty(), "shipped config flagged: {diags:?}");
        }
    }

    fn probe_jobs(long_iters: usize, probe_iters: usize) -> Vec<JobSpec> {
        // Three long Jacobi solves occupy the fast hosts, then a short
        // probe arrives — the bench multi-agent scenario.
        let mut jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                id: i,
                submit: s(60.0 * i as f64),
                kind: JobKind::Jacobi {
                    n: 1200,
                    iterations: long_iters,
                },
            })
            .collect();
        jobs.push(JobSpec {
            id: 3,
            submit: s(180.0),
            kind: JobKind::Jacobi {
                n: 1200,
                iterations: probe_iters,
            },
        });
        jobs
    }

    #[test]
    fn same_seed_streams_are_bit_identical() {
        let cfg = GridConfig::default();
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.01 },
            duration: s(1200.0),
            ..WorkloadConfig::default()
        };
        let a = stream(&cfg, &workload).expect("stream a");
        let b = stream(&cfg, &workload).expect("stream b");
        assert_eq!(a.records, b.records);
        assert_eq!(a.fleet, b.fleet);
        assert!(!a.records.is_empty(), "workload produced no jobs");
    }

    #[test]
    fn aware_probe_routes_around_and_beats_blind() {
        let cfg = GridConfig {
            seed: 77,
            ..GridConfig::default()
        };
        let jobs = probe_jobs(6000, 400);
        let aware = selfish(&cfg, &jobs, s(300.0), RetryPolicy::default()).expect("aware");
        let blind = selfish(
            &GridConfig {
                regime: Regime::Blind,
                ..cfg.clone()
            },
            &jobs,
            s(300.0),
            RetryPolicy::default(),
        )
        .expect("blind");
        // The first job decides from identical information either way.
        assert!((aware.records[0].exec_seconds - blind.records[0].exec_seconds).abs() < 1e-6);
        // The probe lands mid-contention: its NWS forecasts reflect the
        // long jobs' imposed load, so it routes around the occupied
        // fast hosts and finishes sooner than the blind probe.
        let aware_probe = &aware.records[3];
        let blind_probe = &blind.records[3];
        assert_ne!(
            {
                let mut h = aware.records[0].hosts.clone();
                h.sort();
                h
            },
            {
                let mut h = aware_probe.hosts.clone();
                h.sort();
                h
            },
            "aware probe piled onto the long jobs' hosts"
        );
        assert!(
            aware_probe.exec_seconds < blind_probe.exec_seconds,
            "aware probe {:.1}s vs blind probe {:.1}s",
            aware_probe.exec_seconds,
            blind_probe.exec_seconds
        );
    }

    #[test]
    fn admission_bound_queues_jobs_fcfs() {
        let cfg = GridConfig {
            max_in_flight: 1,
            ..GridConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                id: i,
                submit: s(1.0 + i as f64),
                kind: JobKind::Jacobi {
                    n: 800,
                    iterations: 120,
                },
            })
            .collect();
        let out = selfish(&cfg, &jobs, s(10.0), RetryPolicy::default()).expect("bounded stream");
        // With one slot, each job starts when its predecessor finishes.
        for pair in out.records.windows(2) {
            assert!(pair[1].start >= pair[0].finish);
        }
        assert!(out.records[1].wait_seconds > 0.0);
        assert!(out.records[2].wait_seconds > out.records[1].wait_seconds);
        // Unbounded admission: no waiting.
        let free = selfish(
            &GridConfig::default(),
            &jobs,
            s(10.0),
            RetryPolicy::default(),
        )
        .expect("free stream");
        assert!(free.records.iter().all(|r| r.wait_seconds == 0.0));
    }

    #[test]
    fn mixed_kinds_all_complete() {
        let cfg = GridConfig::default();
        let jobs = vec![
            JobSpec {
                id: 0,
                submit: s(10.0),
                kind: JobKind::Jacobi {
                    n: 800,
                    iterations: 60,
                },
            },
            JobSpec {
                id: 1,
                submit: s(20.0),
                kind: JobKind::ReactPipeline { units: 20 },
            },
            JobSpec {
                id: 2,
                submit: s(30.0),
                kind: JobKind::NileFarm { events: 10_000 },
            },
        ];
        let out = selfish(&cfg, &jobs, s(60.0), RetryPolicy::default()).expect("mixed stream");
        assert_eq!(out.records.len(), 3);
        for r in &out.records {
            assert!(r.exec_seconds > 0.0, "{} did not run", r.kind);
            assert!(!r.hosts.is_empty());
            assert!(r.slowdown >= 1.0);
        }
        assert_eq!(out.records[1].kind, "react-pipe");
        assert_eq!(out.records[2].kind, "nile-farm");
        // The farm fans out to more than one host.
        assert!(out.records[2].hosts.len() > 1);
    }

    #[test]
    fn degenerate_config_is_rejected_with_typed_errors() {
        let cfg = GridConfig {
            max_in_flight: 0,
            ..GridConfig::default()
        };
        assert!(matches!(
            selfish(&cfg, &[], s(10.0), RetryPolicy::default()),
            Err(GridError::InvalidConfig(_))
        ));
        let bad_retry = crate::workload::RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        };
        assert!(matches!(
            selfish(&GridConfig::default(), &[], s(10.0), bad_retry),
            Err(GridError::InvalidConfig(_))
        ));
    }

    #[test]
    fn transient_host_crash_is_survived_by_retry() {
        use metasim::{FaultSpec, HostFault};
        // One short job placed while its likely host crashes shortly
        // after the stream starts. With a single attempt the blind
        // regime records a failure; with retries the job completes
        // after the host recovers or elsewhere.
        let jobs = vec![JobSpec {
            id: 0,
            submit: s(10.0),
            kind: JobKind::Jacobi {
                n: 800,
                iterations: 120,
            },
        }];
        let faults = FaultSpec {
            host_faults: (0..8)
                .map(|h| HostFault {
                    host: metasim::HostId(h),
                    at: s(605.0),
                    recover: Some(s(2000.0)),
                })
                .collect(),
            link_faults: vec![],
        };
        let cfg = GridConfig {
            regime: Regime::Blind,
            faults: FaultInjection::Spec(faults),
            ..GridConfig::default()
        };
        let blind = selfish(&cfg, &jobs, s(60.0), RetryPolicy::default()).expect("blind stream");
        assert_eq!(blind.fleet.jobs_failed, 1, "{:?}", blind.records);
        assert!(!blind.records[0].completed);
        assert_eq!(blind.records[0].exec_seconds, 0.0);

        let retrying = selfish(
            &GridConfig {
                regime: Regime::Aware,
                ..cfg.clone()
            },
            &jobs,
            s(60.0),
            crate::workload::RetryPolicy::with_attempts(8),
        )
        .expect("aware stream");
        assert_eq!(retrying.fleet.jobs_completed, 1, "{:?}", retrying.records);
        let r = &retrying.records[0];
        assert!(r.completed);
        assert!(
            r.attempts > 1 || r.reschedules > 0,
            "job should have needed the fault machinery: {r:?}"
        );
        assert!(retrying.fleet.goodput > 0.0);
    }

    #[test]
    fn faulted_streams_are_bit_identical_across_runs() {
        use metasim::FaultModel;
        let cfg = GridConfig {
            faults: FaultInjection::Random(FaultModel {
                host_crashes_per_hour: 2.0,
                ..FaultModel::default()
            }),
            ..GridConfig::default()
        };
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform { gap: s(90.0) },
            duration: s(600.0),
            retry: crate::workload::RetryPolicy::with_attempts(3),
            ..WorkloadConfig::default()
        };
        let a = stream(&cfg, &workload).expect("stream a");
        let b = stream(&cfg, &workload).expect("stream b");
        assert_eq!(a.records, b.records);
        assert_eq!(a.fleet, b.fleet);
    }

    #[test]
    fn traced_stream_narrates_every_layer() {
        use metasim::simtrace::VecSink;
        let cfg = GridConfig::default();
        let jobs = vec![
            JobSpec {
                id: 0,
                submit: s(10.0),
                kind: JobKind::Jacobi {
                    n: 800,
                    iterations: 60,
                },
            },
            JobSpec {
                id: 1,
                submit: s(30.0),
                kind: JobKind::NileFarm { events: 10_000 },
            },
        ];
        let mut sink = VecSink::default();
        let traced = traced_selfish(&cfg, &jobs, s(60.0), RetryPolicy::default(), &mut sink)
            .expect("traced stream");
        // Tracing must not perturb the simulation.
        let plain = selfish(&cfg, &jobs, s(60.0), RetryPolicy::default()).expect("plain stream");
        assert_eq!(traced.records, plain.records);

        let kinds: std::collections::BTreeSet<&str> =
            sink.events.iter().map(|e| e.kind()).collect();
        // Events from every layer of the stack.
        for k in [
            "job_submitted",      // grid
            "job_dispatched",     // grid
            "job_completed",      // grid
            "load_imposed",       // grid → metasim
            "forecast_issued",    // nws
            "resource_selection", // core
            "candidate_considered",
            "schedule_chosen",
            "actuated",
            "compute_start", // metasim executors
            "compute_finish",
            "transfer_start",
            "transfer_finish",
        ] {
            assert!(kinds.contains(k), "missing {k}: have {kinds:?}");
        }
        // Timestamps never run backwards per job lifecycle: submit ≤
        // dispatch ≤ complete.
        let find = |want: &str, job: usize| {
            sink.events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::JobSubmitted { job: j, at, .. }
                    | TraceEvent::JobDispatched { job: j, at, .. }
                    | TraceEvent::JobCompleted { job: j, at, .. }
                        if *j == job && e.kind() == want =>
                    {
                        Some(*at)
                    }
                    _ => None,
                })
                .expect("lifecycle event present")
        };
        for job in [0usize, 1] {
            let sub = find("job_submitted", job);
            let disp = find("job_dispatched", job);
            let done = find("job_completed", job);
            assert!(
                sub <= disp && disp <= done,
                "job {job} lifecycle out of order"
            );
        }
    }

    #[test]
    fn imposed_load_keeps_availability_in_unit_interval() {
        let cfg = GridConfig::default();
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform { gap: s(120.0) },
            mix: JobMix::default_mix(),
            duration: s(1200.0),
            seed: 5,
            ..WorkloadConfig::default()
        };
        // Re-run the stream, then inspect the mutated topology by
        // reproducing it here (run() does not expose the topology).
        let tb = pcl_sdsc(&TestbedConfig {
            profile: cfg.profile,
            horizon: cfg.horizon,
            seed: cfg.seed,
            with_sp2: cfg.with_sp2,
        })
        .expect("testbed");
        let mut topo = tb.topo.clone();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        for job in workload.realize() {
            let start = cfg.warmup + job.submit;
            let (hat, user) = job.kind.hat_and_user();
            ws.advance(&topo, start);
            let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, start);
            let schedule = decide(&job.kind, &pool, &mut NoopSink).expect("plan").0;
            let report = actuate(&topo, &hat, &schedule, start, &mut NoopSink).expect("run");
            impose_job_load(&mut topo, &hat, &schedule, &report, start, &mut NoopSink)
                .expect("impose");
        }
        for h in topo.hosts() {
            for &(_, v) in &h.availability().to_points() {
                assert!((0.0..=1.0).contains(&v), "host availability {v} escaped");
            }
        }
        for l in topo.links() {
            for &(_, v) in &l.availability().to_points() {
                assert!((0.0..=1.0).contains(&v), "link availability {v} escaped");
            }
        }
    }
}
