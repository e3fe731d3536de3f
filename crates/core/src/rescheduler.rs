//! Mid-execution rescheduling (§3.2).
//!
//! "Dynamic and predictive information can be used to determine both a
//! potentially performance-efficient initial schedule, and to make
//! decisions about redistribution of the application during
//! execution." One-shot scheduling bets on the forecast holding for
//! the whole run; when the load regime shifts mid-run (a user logs in,
//! a batch job starts), the bet goes bad.
//!
//! [`ReschedulingAgent`] executes an iterative application in *phases*.
//! After each phase it refreshes the Weather Service, re-runs the
//! blueprint for the remaining iterations, and migrates only when the
//! predicted saving exceeds the predicted cost of moving the data —
//! the same application-centric calculus as the initial decision.

use crate::actuator::actuate;
use crate::coordinator::Coordinator;
use crate::error::ApplesError;
use crate::estimator::estimate_stencil;
use crate::hat::{Hat, StencilTemplate};
use crate::info::InfoPool;
use crate::schedule::{Schedule, StencilSchedule};
use metasim::net::{simulate_transfers, TransferReq};
use metasim::simtrace::{EventSink, NoopSink, TraceEvent};
use metasim::{HostId, SimTime, Topology};
use nws::WeatherService;

/// Migrate only when the predicted remaining time under the new
/// schedule, plus migration cost, undercuts the current schedule's
/// predicted remaining time by this factor: `0.9` demands a 10%
/// predicted saving.
const IMPROVEMENT_THRESHOLD: f64 = 0.9;

/// Configuration of a rescheduling run.
#[derive(Debug, Clone, Copy)]
pub struct ReschedulePolicy {
    /// Iterations executed between scheduling points.
    pub phase_iterations: usize,
}

impl Default for ReschedulePolicy {
    fn default() -> Self {
        ReschedulePolicy {
            phase_iterations: 20,
        }
    }
}

/// One executed phase in the report.
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    /// Simulated time the phase started.
    pub start: SimTime,
    /// Iterations executed in this phase.
    pub iterations: usize,
    /// Seconds the phase took.
    pub elapsed_seconds: f64,
    /// Whether the agent migrated to a new schedule before this phase.
    pub migrated: bool,
    /// Seconds spent moving data for the migration (zero if none).
    pub migration_seconds: f64,
    /// Hosts used in this phase.
    pub hosts: Vec<HostId>,
    /// Per-host wall-clock seconds spent in the compute phase, in
    /// `hosts` order — what a service needs to write the phase's load
    /// back into the topology.
    pub compute_seconds: Vec<f64>,
}

/// Outcome of a rescheduling run.
#[derive(Debug, Clone)]
pub struct RescheduleReport {
    /// Completion time.
    pub finish: SimTime,
    /// Total wall-clock seconds including migrations.
    pub elapsed_seconds: f64,
    /// Number of migrations performed.
    pub migrations: usize,
    /// Number of phases abandoned because a host died under them (the
    /// remnant work was re-planned onto the survivors).
    pub revocations: usize,
    /// Per-phase details.
    pub phases: Vec<PhaseRecord>,
}

/// An agent that reconsiders its schedule between phases.
#[derive(Debug, Clone)]
pub struct ReschedulingAgent {
    /// The underlying one-shot agent.
    pub coordinator: Coordinator,
    /// Phase length and migration threshold.
    pub policy: ReschedulePolicy,
}

impl ReschedulingAgent {
    /// Wrap a coordinator with the default policy.
    pub fn new(coordinator: Coordinator) -> Self {
        ReschedulingAgent {
            coordinator,
            policy: ReschedulePolicy::default(),
        }
    }

    /// Execute a stencil application with phase-wise rescheduling,
    /// streaming every re-plan's trigger, the keep/migrate calculus,
    /// revocations, and the underlying executor events into `sink`.
    ///
    /// The weather service is advanced to each scheduling point, so
    /// every re-plan sees measurements up to (but never beyond) the
    /// current simulated time.
    pub fn run_stencil(
        &self,
        topo: &Topology,
        weather: &mut WeatherService,
        start: SimTime,
        sink: &mut dyn EventSink,
    ) -> Result<RescheduleReport, ApplesError> {
        let template = self
            .coordinator
            .hat
            .as_stencil()
            .ok_or(ApplesError::TemplateMismatch {
                expected: "iterative-stencil",
                found: self.coordinator.hat.class_name(),
            })?
            .clone();
        if self.policy.phase_iterations == 0 {
            return Err(ApplesError::Invalid("phase_iterations must be ≥ 1".into()));
        }

        let mut now = start;
        let mut remaining = template.iterations;
        let mut phases = Vec::new();
        let mut migrations = 0usize;
        let mut revocations = 0usize;
        let mut current: Option<StencilSchedule> = None;
        // Hosts discovered dead at runtime (a phase failed on them).
        let mut known_dead: Vec<metasim::HostId> = Vec::new();
        let mut failures = 0usize;

        while remaining > 0 {
            weather.advance_with_sink(topo, now, sink);
            let phase_iters = remaining.min(self.policy.phase_iterations);
            if sink.enabled() {
                sink.record(TraceEvent::RescheduleTriggered {
                    at: now,
                    phase: phases.len(),
                });
            }

            // Re-plan for everything still to do, excluding hosts we
            // have watched die.
            let mut user = self.coordinator.user.clone();
            user.excluded_hosts.extend(known_dead.iter().copied());
            let replan_hat = rescoped_hat(&self.coordinator.hat.name, &template, remaining);
            let pool = InfoPool::with_nws(topo, weather, &replan_hat, &user, now);
            let candidate = match self
                .coordinator_for(&replan_hat, &user)
                .decide_with_sink(&pool, sink)
            {
                Ok(d) => match d.schedule() {
                    Schedule::Stencil(s) => Some(s.clone()),
                    _ => None,
                },
                Err(_) => None,
            };

            let mut migrated = false;
            let mut migration_seconds = 0.0;
            match (&mut current, candidate) {
                (slot @ None, Some(cand)) => {
                    *slot = Some(cand);
                }
                (Some(cur), Some(cand)) if cand.parts != cur.parts => {
                    // Predicted remaining times under both schedules.
                    let keep_pred = predict_remaining(&pool, cur, remaining)?;
                    let move_pred = predict_remaining(&pool, &cand, remaining)?;
                    let move_cost = migration_cost(topo, &template, cur, &cand, now)?;
                    let migrate = move_pred + move_cost < keep_pred * IMPROVEMENT_THRESHOLD;
                    if sink.enabled() {
                        sink.record(TraceEvent::RescheduleDecision {
                            at: now,
                            keep_seconds: keep_pred,
                            move_seconds: move_pred,
                            move_cost_seconds: move_cost,
                            migrated: migrate,
                        });
                    }
                    if migrate {
                        migration_seconds = perform_migration(topo, &template, cur, &cand, now)?;
                        now += SimTime::from_secs_f64(migration_seconds);
                        *cur = cand;
                        migrated = true;
                        migrations += 1;
                    }
                }
                _ => {}
            }
            let sched = current.as_ref().ok_or(ApplesError::NoViableSchedule)?;

            // Execute one phase on the current schedule. Phase
            // boundaries act as checkpoints: if a host dies mid-phase
            // (work that never completes), the phase is abandoned, the
            // dead hosts are excluded, and the phase is re-planned and
            // re-run from the checkpoint.
            let phase_sched = StencilSchedule {
                n: sched.n,
                iterations: phase_iters,
                parts: sched.parts.clone(),
            };
            let report = match actuate(
                topo,
                &rescoped_hat(&self.coordinator.hat.name, &template, phase_iters),
                &Schedule::Stencil(phase_sched.clone()),
                now,
                sink,
            ) {
                Ok(r) => r,
                Err(err) => {
                    let mut found_dead = false;
                    // A revocation names the failed host directly — the
                    // executor watched the placement die.
                    if let ApplesError::Sim(metasim::SimError::PlacementLost { host, .. }) = &err {
                        let h = metasim::HostId(*host);
                        if sink.enabled() {
                            sink.record(TraceEvent::PlacementRevoked { host: h, at: now });
                        }
                        if !known_dead.contains(&h) {
                            known_dead.push(h);
                            found_dead = true;
                        }
                    }
                    // Also identify hosts whose work can never finish:
                    // the availability process's final segment is pinned
                    // at zero, i.e. the host is (or becomes) permanently
                    // unavailable. This is what a real agent infers
                    // from a timeout: the resource is gone for good.
                    for h in phase_sched.hosts() {
                        let dead_forever = topo.host(h)?.availability().zero_since().is_some();
                        if dead_forever && !known_dead.contains(&h) {
                            if sink.enabled() {
                                sink.record(TraceEvent::PlacementRevoked { host: h, at: now });
                            }
                            known_dead.push(h);
                            found_dead = true;
                        }
                    }
                    failures += 1;
                    if !found_dead || failures > topo.hosts().len() {
                        return Err(err);
                    }
                    revocations += 1;
                    // Force a fresh decision next round.
                    current = None;
                    continue;
                }
            };
            let compute_seconds = match &report.detail {
                crate::actuator::ActuationDetail::Spmd(out) => out.compute_seconds.clone(),
                _ => Vec::new(),
            };
            phases.push(PhaseRecord {
                start: now,
                iterations: phase_iters,
                elapsed_seconds: report.elapsed_seconds,
                migrated,
                migration_seconds,
                hosts: phase_sched.hosts(),
                compute_seconds,
            });
            now = report.finish;
            remaining -= phase_iters;
        }

        Ok(RescheduleReport {
            finish: now,
            elapsed_seconds: now.saturating_sub(start).as_secs_f64(),
            migrations,
            revocations,
            phases,
        })
    }

    fn coordinator_for(&self, hat: &Hat, user: &crate::user::UserSpec) -> Coordinator {
        Coordinator {
            hat: hat.clone(),
            user: user.clone(),
            selector: self.coordinator.selector,
        }
    }
}

/// The same HAT with the iteration count replaced.
fn rescoped_hat(name: &str, template: &StencilTemplate, iterations: usize) -> Hat {
    let mut t = template.clone();
    t.iterations = iterations;
    Hat::stencil(name, t)
}

/// Predicted seconds to finish `remaining` iterations on `sched`.
fn predict_remaining(
    pool: &InfoPool<'_>,
    sched: &StencilSchedule,
    remaining: usize,
) -> Result<f64, ApplesError> {
    let rescoped = StencilSchedule {
        n: sched.n,
        iterations: remaining,
        parts: sched.parts.clone(),
    };
    estimate_stencil(pool, &rescoped)
}

/// Rows that must move between hosts to turn `from` into `to`:
/// per-host surplus/deficit matched greedily in strip order.
fn migration_moves(from: &StencilSchedule, to: &StencilSchedule) -> Vec<(HostId, HostId, usize)> {
    use std::collections::BTreeMap;
    let mut delta: BTreeMap<usize, i64> = BTreeMap::new();
    for p in &from.parts {
        *delta.entry(p.host.0).or_insert(0) += p.rows as i64;
    }
    for p in &to.parts {
        *delta.entry(p.host.0).or_insert(0) -= p.rows as i64;
    }
    let mut surplus: Vec<(usize, i64)> = delta
        .iter()
        .filter(|&(_, &d)| d > 0)
        .map(|(&h, &d)| (h, d))
        .collect();
    let mut deficit: Vec<(usize, i64)> = delta
        .iter()
        .filter(|&(_, &d)| d < 0)
        .map(|(&h, &d)| (h, -d))
        .collect();
    let mut moves = Vec::new();
    let (mut si, mut di) = (0usize, 0usize);
    while si < surplus.len() && di < deficit.len() {
        let take = surplus[si].1.min(deficit[di].1);
        moves.push((HostId(surplus[si].0), HostId(deficit[di].0), take as usize));
        surplus[si].1 -= take;
        deficit[di].1 -= take;
        if surplus[si].1 == 0 {
            si += 1;
        }
        if deficit[di].1 == 0 {
            di += 1;
        }
    }
    moves
}

/// Predicted cost of a migration (estimator view).
fn migration_cost(
    topo: &Topology,
    t: &crate::hat::StencilTemplate,
    from: &StencilSchedule,
    to: &StencilSchedule,
    now: SimTime,
) -> Result<f64, ApplesError> {
    let mut worst = 0.0f64;
    for (src, dst, rows) in migration_moves(from, to) {
        let mb = t.strip_resident_mb(rows);
        let est = topo.transfer_estimate(src, dst, mb, now)?;
        worst = worst.max(est.as_secs_f64());
    }
    Ok(worst)
}

/// Actually move the data (simulated), returning elapsed seconds.
fn perform_migration(
    topo: &Topology,
    t: &crate::hat::StencilTemplate,
    from: &StencilSchedule,
    to: &StencilSchedule,
    now: SimTime,
) -> Result<f64, ApplesError> {
    let reqs: Vec<TransferReq> = migration_moves(from, to)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst, rows))| TransferReq {
            from: src,
            to: dst,
            mb: t.strip_resident_mb(rows),
            start: now,
            tag: i,
        })
        .collect();
    if reqs.is_empty() {
        return Ok(0.0);
    }
    let done = simulate_transfers(topo, &reqs, &mut NoopSink)?
        .into_iter()
        .map(|r| r.delivered)
        .fold(now, SimTime::max);
    Ok(done.saturating_sub(now).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use crate::schedule::StencilPart;
    use crate::user::UserSpec;
    use metasim::host::HostSpec;
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use nws::WeatherServiceConfig;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Two hosts; host 0 collapses from idle to hammered at t=650,
    /// host 1 does the reverse — a hard mid-run regime swap.
    fn swapping_topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::from_micros(200)));
        b.add_host(HostSpec::workstation(
            "swap-a",
            30.0,
            4096.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(650.0), 0.08)]),
        ));
        b.add_host(HostSpec::workstation(
            "swap-b",
            30.0,
            4096.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 0.08), (s(650.0), 1.0)]),
        ));
        b.instantiate(s(1_000_000.0), 0).unwrap()
    }

    fn agent(n: usize, iterations: usize) -> ReschedulingAgent {
        ReschedulingAgent::new(Coordinator::new(
            jacobi2d_hat(n, iterations),
            UserSpec::default(),
        ))
    }

    #[test]
    fn completes_all_iterations_in_phases() {
        let topo = swapping_topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let a = agent(600, 50);
        let report = a
            .run_stencil(&topo, &mut ws, s(600.0), &mut NoopSink)
            .unwrap();
        let total: usize = report.phases.iter().map(|p| p.iterations).sum();
        assert_eq!(total, 50);
        assert!(report.elapsed_seconds > 0.0);
        // Default phase length 20: phases of 20, 20, 10.
        assert_eq!(report.phases.len(), 3);
    }

    #[test]
    fn migrates_across_a_regime_swap() {
        // Long run spanning the t=650 swap: the agent should migrate
        // at least once, shifting work toward the newly idle host.
        let topo = swapping_topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let mut a = agent(1400, 400);
        a.policy.phase_iterations = 50;
        let report = a
            .run_stencil(&topo, &mut ws, s(600.0), &mut NoopSink)
            .unwrap();
        assert!(
            report.migrations >= 1,
            "expected at least one migration: {report:?}"
        );
    }

    #[test]
    fn rescheduling_beats_one_shot_across_the_swap() {
        let topo = swapping_topo();

        // One-shot: decide at t=600 (host 0 looks great), run to
        // completion through the swap.
        let hat = jacobi2d_hat(1400, 400);
        let user = UserSpec::default();
        let mut ws1 = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws1.advance(&topo, s(600.0));
        let one_shot_agent = Coordinator::new(hat.clone(), user.clone());
        let (_, one_shot) = one_shot_agent
            .run(&topo, &ws1, s(600.0), &mut NoopSink)
            .unwrap();

        // Rescheduling across the same conditions.
        let mut ws2 = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let mut a = agent(1400, 400);
        a.policy.phase_iterations = 50;
        let adaptive = a
            .run_stencil(&topo, &mut ws2, s(600.0), &mut NoopSink)
            .unwrap();

        assert!(
            adaptive.elapsed_seconds < one_shot.elapsed_seconds,
            "adaptive {:.1}s should beat one-shot {:.1}s",
            adaptive.elapsed_seconds,
            one_shot.elapsed_seconds
        );
    }

    #[test]
    fn stable_conditions_mean_no_migrations() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::from_micros(200)));
        b.add_host(HostSpec::dedicated("a", 30.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("b", 30.0, 4096.0, seg));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let a = agent(800, 100);
        let report = a
            .run_stencil(&topo, &mut ws, s(600.0), &mut NoopSink)
            .unwrap();
        assert_eq!(report.migrations, 0, "{report:?}");
    }

    #[test]
    fn migration_moves_conserve_rows() {
        let from = StencilSchedule {
            n: 100,
            iterations: 1,
            parts: vec![
                StencilPart {
                    host: HostId(0),
                    rows: 70,
                },
                StencilPart {
                    host: HostId(1),
                    rows: 30,
                },
            ],
        };
        let to = StencilSchedule {
            n: 100,
            iterations: 1,
            parts: vec![
                StencilPart {
                    host: HostId(0),
                    rows: 20,
                },
                StencilPart {
                    host: HostId(1),
                    rows: 50,
                },
                StencilPart {
                    host: HostId(2),
                    rows: 30,
                },
            ],
        };
        let moves = migration_moves(&from, &to);
        let moved: usize = moves.iter().map(|&(_, _, r)| r).sum();
        assert_eq!(moved, 50); // host 0 sheds 50 rows
                               // Every move goes from a shrinking host to a growing one.
        for (src, dst, _) in moves {
            assert_eq!(src, HostId(0));
            assert!(dst == HostId(1) || dst == HostId(2));
        }
    }

    #[test]
    fn identical_schedules_need_no_moves() {
        let sched = StencilSchedule {
            n: 10,
            iterations: 1,
            parts: vec![StencilPart {
                host: HostId(0),
                rows: 10,
            }],
        };
        assert!(migration_moves(&sched, &sched).is_empty());
    }

    #[test]
    fn survives_a_host_dying_mid_run() {
        // Host 0 dies for good at t = 650 while holding most of the
        // grid; the agent must abandon the failed phase, exclude the
        // corpse, and finish on host 1.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::from_micros(200)));
        b.add_host(HostSpec::workstation(
            "doomed",
            60.0,
            4096.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(650.0), 0.0)]),
        ));
        b.add_host(HostSpec::dedicated("survivor", 20.0, 4096.0, seg));
        let topo = b.instantiate(s(1_000_000.0), 0).unwrap();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        // Enough iterations that the run crosses t = 650.
        let mut a = agent(1400, 600);
        a.policy.phase_iterations = 100;
        let report = a
            .run_stencil(&topo, &mut ws, s(600.0), &mut NoopSink)
            .unwrap();
        let total: usize = report.phases.iter().map(|p| p.iterations).sum();
        assert_eq!(total, 600, "all iterations must complete");
        // Later phases must not use the dead host.
        let last = report.phases.last().unwrap();
        assert_eq!(last.hosts, vec![HostId(1)], "{report:?}");
    }

    #[test]
    fn all_hosts_dead_is_a_hard_error() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::from_micros(200)));
        for i in 0..2 {
            b.add_host(HostSpec::workstation(
                &format!("doomed{i}"),
                30.0,
                4096.0,
                seg,
                LoadModel::Trace(vec![(s(0.0), 1.0), (s(650.0), 0.0)]),
            ));
        }
        let topo = b.instantiate(s(1_000_000.0), 0).unwrap();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let mut a = agent(1400, 2000);
        a.policy.phase_iterations = 200;
        assert!(a
            .run_stencil(&topo, &mut ws, s(600.0), &mut NoopSink)
            .is_err());
    }

    #[test]
    fn zero_phase_length_is_invalid() {
        let topo = swapping_topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let mut a = agent(100, 10);
        a.policy.phase_iterations = 0;
        assert!(a
            .run_stencil(&topo, &mut ws, SimTime::ZERO, &mut NoopSink)
            .is_err());
    }
}
