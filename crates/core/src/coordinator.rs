//! The Coordinator: the single active agent of an AppLeS (§4.1).
//!
//! [`Coordinator::decide`] runs the §5 blueprint: generate candidate
//! resource sets through the Resource Selector, plan each with the
//! Planner, score each plan with the Performance Estimator under the
//! user's metric, and return the winner (plus everything considered,
//! for reporting). [`Coordinator::run`] completes the loop by handing
//! the winner to the Actuator.

use crate::actuator::{actuate, ActuationReport};
use crate::error::ApplesError;
use crate::estimator::{estimate_seconds, objective};
use crate::hat::Hat;
use crate::info::InfoPool;
use crate::planner::plan;
use crate::schedule::Schedule;
use crate::selector::ResourceSelector;
use crate::user::{PerformanceMetric, UserSpec};
use metasim::simtrace::{EventSink, NoopSink, TraceEvent};
use metasim::{HostId, SimTime, Topology};
use nws::WeatherService;

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEval {
    /// The resource set the candidate was planned for.
    pub hosts: Vec<HostId>,
    /// The planned schedule.
    pub schedule: Schedule,
    /// Predicted wall-clock seconds.
    pub predicted_seconds: f64,
    /// Score under the user's metric (lower is better).
    pub objective: f64,
}

/// Outcome of a scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Index of the winner within `considered`.
    pub chosen_index: usize,
    /// Every candidate that planned successfully, in generation order.
    pub considered: Vec<CandidateEval>,
    /// Candidates whose planning failed, with reasons (diagnostic).
    pub rejected: usize,
}

impl Decision {
    /// The winning candidate.
    pub fn chosen(&self) -> &CandidateEval {
        &self.considered[self.chosen_index]
    }

    /// The winning schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.chosen().schedule
    }

    /// A human-readable summary of the decision: the winner's resource
    /// assignment with host names, its predicted time, and the closest
    /// runners-up. Used by the CLI and examples; stable enough for
    /// logs, not meant for machine parsing.
    pub fn report(&self, topo: &Topology) -> String {
        let name = |h: HostId| {
            topo.host(h)
                .map(|x| x.spec.name.clone())
                .unwrap_or_else(|_| format!("{h}"))
        };
        let mut out = String::new();
        out.push_str(&format!(
            "considered {} candidate schedules ({} rejected in planning)\n",
            self.considered.len(),
            self.rejected
        ));
        let chosen = self.chosen();
        out.push_str(&format!(
            "chosen: {} host(s), predicted {:.2} s (objective {:.4})\n",
            chosen.hosts.len(),
            chosen.predicted_seconds,
            chosen.objective
        ));
        match &chosen.schedule {
            Schedule::Stencil(s) => {
                for p in &s.parts {
                    out.push_str(&format!(
                        "  {:>18}: {:>5} rows ({:.1}%)\n",
                        name(p.host),
                        p.rows,
                        p.rows as f64 / s.n as f64 * 100.0
                    ));
                }
            }
            Schedule::Pipeline(p) => {
                out.push_str(&format!(
                    "  producer {} -> consumer {}, unit {}, depth {}\n",
                    name(p.producer),
                    name(p.consumer),
                    p.unit_size,
                    p.depth
                ));
            }
            Schedule::Farm(f) => {
                for &(h, e) in &f.assignments {
                    out.push_str(&format!("  {:>18}: {e} events\n", name(h)));
                }
            }
        }
        // Closest runners-up by objective.
        let mut order: Vec<usize> = (0..self.considered.len())
            .filter(|&i| i != self.chosen_index)
            .collect();
        order.sort_by(|&a, &b| {
            self.considered[a]
                .objective
                .total_cmp(&self.considered[b].objective)
        });
        for &i in order.iter().take(3) {
            let c = &self.considered[i];
            let hosts: Vec<String> = c.hosts.iter().map(|&h| name(h)).collect();
            out.push_str(&format!(
                "runner-up: {:.2} s on [{}]\n",
                c.predicted_seconds,
                hosts.join(", ")
            ));
        }
        out
    }
}

/// An AppLeS agent for one application.
///
/// ```
/// use apples::hat::jacobi2d_hat;
/// use apples::{Coordinator, UserSpec};
/// use metasim::host::HostSpec;
/// use metasim::net::{LinkSpec, TopologyBuilder};
/// use metasim::{NoopSink, SimTime};
/// use nws::{WeatherService, WeatherServiceConfig};
///
/// let mut b = TopologyBuilder::new();
/// let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::ZERO));
/// b.add_host(HostSpec::dedicated("a", 20.0, 1024.0, seg));
/// b.add_host(HostSpec::dedicated("b", 40.0, 1024.0, seg));
/// let topo = b.instantiate(SimTime::from_secs(10_000), 0).unwrap();
///
/// let mut weather = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
/// let now = SimTime::from_secs(300);
/// weather.advance(&topo, now);
///
/// let agent = Coordinator::new(jacobi2d_hat(600, 20), UserSpec::default());
/// let (decision, report) = agent.run(&topo, &weather, now, &mut NoopSink).unwrap();
/// assert!(!decision.considered.is_empty());
/// assert!(report.elapsed_seconds > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// The application's template.
    pub hat: Hat,
    /// The user's specifications.
    pub user: UserSpec,
    /// Candidate generation strategy.
    pub selector: ResourceSelector,
}

impl Coordinator {
    /// An agent with the default (auto) resource-selection strategy.
    pub fn new(hat: Hat, user: UserSpec) -> Self {
        Coordinator {
            hat,
            user,
            selector: ResourceSelector::default(),
        }
    }

    /// Steps 1–3 of the blueprint: select, plan, estimate, choose.
    pub fn decide(&self, pool: &InfoPool<'_>) -> Result<Decision, ApplesError> {
        self.decide_with_sink(pool, &mut NoopSink)
    }

    /// [`Coordinator::decide`], emitting
    /// [`TraceEvent::ResourceSelection`], one
    /// [`TraceEvent::CandidateConsidered`] per successfully planned
    /// candidate and [`TraceEvent::ScheduleChosen`] for the winner —
    /// the cost-model view behind the decision, timestamped at
    /// `pool.now()`.
    pub fn decide_with_sink(
        &self,
        pool: &InfoPool<'_>,
        sink: &mut dyn EventSink,
    ) -> Result<Decision, ApplesError> {
        let candidate_sets = self.selector.candidates(pool)?;
        if sink.enabled() {
            sink.record(TraceEvent::ResourceSelection {
                at: pool.now(),
                candidates: candidate_sets.len(),
            });
        }

        // For the Speedup metric we need the best single-host time as
        // the reference denominator.
        let best_single = if matches!(self.user.metric, PerformanceMetric::Speedup) {
            let mut best: Option<f64> = None;
            for set in candidate_sets.iter().filter(|s| s.len() == 1) {
                if let Ok(sched) = plan(pool, set) {
                    if let Ok(secs) = estimate_seconds(pool, &sched) {
                        best = Some(best.map_or(secs, |b: f64| b.min(secs)));
                    }
                }
            }
            best
        } else {
            None
        };

        let mut considered = Vec::new();
        let mut rejected = 0usize;
        for set in candidate_sets {
            let sched = match plan(pool, &set) {
                Ok(s) => s,
                Err(_) => {
                    rejected += 1;
                    continue;
                }
            };
            let predicted = match estimate_seconds(pool, &sched) {
                Ok(p) => p,
                Err(_) => {
                    rejected += 1;
                    continue;
                }
            };
            let hosts = sched.host_count();
            let score = objective(&self.user.metric, predicted, hosts, best_single);
            if sink.enabled() {
                sink.record(TraceEvent::CandidateConsidered {
                    at: pool.now(),
                    index: considered.len(),
                    hosts,
                    predicted_seconds: predicted,
                    objective: score,
                });
            }
            considered.push(CandidateEval {
                hosts: set,
                schedule: sched,
                predicted_seconds: predicted,
                objective: score,
            });
        }
        if considered.is_empty() {
            return Err(ApplesError::NoViableSchedule);
        }
        // Minimum objective; then, within the user's preference margin
        // of that minimum (§3.5 — soft preferences like "we want the
        // CASA platform"), prefer schedules using more preferred hosts;
        // remaining ties go to fewer hosts (cheaper, less exposed to
        // stragglers).
        let best_objective = considered
            .iter()
            .map(|c| c.objective)
            .fold(f64::INFINITY, f64::min);
        let margin = best_objective * (1.0 + self.user.preference_margin.max(0.0));
        let chosen_index = considered
            .iter()
            .enumerate()
            .filter(|(_, c)| c.objective <= margin)
            .min_by(|(_, a), (_, b)| {
                let pa = self.user.preference_count(&a.hosts);
                let pb = self.user.preference_count(&b.hosts);
                pb.cmp(&pa)
                    .then_with(|| a.objective.total_cmp(&b.objective))
                    .then_with(|| a.schedule.host_count().cmp(&b.schedule.host_count()))
            })
            .map(|(i, _)| i)
            .ok_or(ApplesError::NoViableSchedule)?;
        if sink.enabled() {
            sink.record(TraceEvent::ScheduleChosen {
                at: pool.now(),
                index: chosen_index,
                predicted_seconds: considered[chosen_index].predicted_seconds,
            });
        }
        Ok(Decision {
            chosen_index,
            considered,
            rejected,
        })
    }

    /// The full blueprint: decide with NWS information at `now`, then
    /// actuate the winner at `now`, streaming decision and actuation
    /// events into `sink`.
    pub fn run(
        &self,
        topo: &Topology,
        weather: &WeatherService,
        now: SimTime,
        sink: &mut dyn EventSink,
    ) -> Result<(Decision, ActuationReport), ApplesError> {
        let pool = InfoPool::with_nws(topo, weather, &self.hat, &self.user, now);
        let decision = self.decide_with_sink(&pool, sink)?;
        let report = actuate(topo, &self.hat, decision.schedule(), now, sink)?;
        Ok((decision, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use crate::info::ForecastSource;
    use metasim::host::HostSpec;
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use nws::WeatherServiceConfig;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Fast dedicated pair plus a heavily loaded third host.
    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 50.0, SimTime::from_micros(200)));
        b.add_host(HostSpec::dedicated("fast0", 40.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("fast1", 40.0, 4096.0, seg));
        b.add_host(HostSpec::workstation(
            "busy",
            40.0,
            4096.0,
            seg,
            LoadModel::Constant(0.05),
        ));
        b.instantiate(s(1e6), 0).unwrap()
    }

    #[test]
    fn decide_picks_the_dedicated_pair_under_oracle_information() {
        let topo = topo();
        let hat = jacobi2d_hat(1200, 50);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
            .with_source(ForecastSource::Oracle);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        let hosts = d.schedule().hosts();
        assert!(hosts.contains(&HostId(0)) && hosts.contains(&HostId(1)));
        // The busy host contributes almost nothing and drags the
        // barrier; with oracle info the agent leaves it out or gives it
        // a sliver. Check the chosen objective beats single-host.
        let single: Vec<&CandidateEval> =
            d.considered.iter().filter(|c| c.hosts.len() == 1).collect();
        assert!(single
            .iter()
            .all(|c| c.objective >= d.chosen().objective - 1e-12));
    }

    #[test]
    fn static_information_cannot_see_the_load() {
        // With StaticNominal information all three hosts look equal, so
        // the planner splits evenly — this is exactly the naive static
        // schedule AppLeS beats in Figure 5.
        let topo = topo();
        let hat = jacobi2d_hat(1200, 50);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        // Static pool predicts the 3-host split is fastest...
        assert_eq!(d.schedule().hosts().len(), 3);
        // ...but actuating it is slower than the oracle-informed pick.
        let static_run = actuate(&topo, &hat, d.schedule(), SimTime::ZERO, &mut NoopSink).unwrap();
        let oracle_pool = InfoPool::static_nominal(&topo, &hat, &agent.user, SimTime::ZERO)
            .with_source(ForecastSource::Oracle);
        let od = agent.decide(&oracle_pool).unwrap();
        let oracle_run = actuate(&topo, &hat, od.schedule(), SimTime::ZERO, &mut NoopSink).unwrap();
        assert!(
            oracle_run.elapsed_seconds < static_run.elapsed_seconds,
            "oracle {} vs static {}",
            oracle_run.elapsed_seconds,
            static_run.elapsed_seconds
        );
    }

    #[test]
    fn run_decides_and_actuates_with_nws() {
        let topo = topo();
        let hat = jacobi2d_hat(600, 10);
        let user = UserSpec::default();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(600.0));
        let agent = Coordinator::new(hat.clone(), user.clone());
        let (decision, report) = agent.run(&topo, &ws, s(600.0), &mut NoopSink).unwrap();
        assert!(!decision.considered.is_empty());
        assert!(report.elapsed_seconds > 0.0);
        assert!(report.finish > s(600.0));
    }

    #[test]
    fn cost_metric_prefers_fewer_hosts() {
        let topo = topo();
        let hat = jacobi2d_hat(400, 10);
        // Steep per-host charge: doubling hosts must halve time to pay
        // off, and borders make that impossible here.
        let user = UserSpec {
            metric: PerformanceMetric::Cost {
                per_host_second: 10.0,
            },
            ..Default::default()
        };
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
            .with_source(ForecastSource::Oracle);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        assert_eq!(d.schedule().hosts().len(), 1, "{:?}", d.chosen());
    }

    #[test]
    fn speedup_metric_normalizes() {
        let topo = topo();
        let hat = jacobi2d_hat(800, 20);
        let user = UserSpec {
            metric: PerformanceMetric::Speedup,
            ..Default::default()
        };
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
            .with_source(ForecastSource::Oracle);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        // Objective is time/best-single: the winner must be < 1 (a
        // genuine speedup) on this well-connected testbed.
        assert!(d.chosen().objective < 1.0);
    }

    #[test]
    fn report_names_hosts_and_runners_up() {
        let topo = topo();
        let hat = jacobi2d_hat(600, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
            .with_source(ForecastSource::Oracle);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        let report = d.report(&topo);
        assert!(report.contains("candidate schedules"));
        assert!(report.contains("chosen:"));
        assert!(report.contains("fast0") || report.contains("fast1"));
        assert!(report.contains("runner-up:"));
        // Strip lines include percentages.
        assert!(report.contains('%'));
    }

    #[test]
    fn preferences_break_near_ties() {
        // Hosts 0 and 1 are identical and dedicated; singleton
        // schedules on either score identically, so a preference for
        // host 1 must decide it.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 50.0, SimTime::from_micros(200)));
        b.add_host(HostSpec::dedicated("twin0", 40.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("twin1", 40.0, 4096.0, seg));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let hat = jacobi2d_hat(400, 10);
        let user = UserSpec {
            preferred_hosts: vec![HostId(1)],
            max_hosts: 1,
            ..Default::default()
        };
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        assert_eq!(d.schedule().hosts(), vec![HostId(1)]);
    }

    #[test]
    fn preferences_do_not_override_big_gaps() {
        // A preferred host that is 4x slower must still lose.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 50.0, SimTime::from_micros(200)));
        b.add_host(HostSpec::dedicated("fast", 40.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("slow", 10.0, 4096.0, seg));
        let topo = b.instantiate(s(1e6), 0).unwrap();
        let hat = jacobi2d_hat(400, 10);
        let user = UserSpec {
            preferred_hosts: vec![HostId(1)],
            max_hosts: 1,
            ..Default::default()
        };
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let d = agent.decide(&pool).unwrap();
        assert_eq!(d.schedule().hosts(), vec![HostId(0)]);
    }

    #[test]
    fn no_feasible_hosts_errors() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec {
            allowed_hosts: Some(vec![]),
            ..Default::default()
        };
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let agent = Coordinator::new(hat.clone(), user.clone());
        assert!(agent.decide(&pool).is_err());
    }

    #[test]
    fn decide_with_sink_narrates_the_selection() {
        use metasim::simtrace::{TraceEvent, VecSink};
        let topo = topo();
        let hat = jacobi2d_hat(600, 10);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let agent = Coordinator::new(hat.clone(), user.clone());
        let mut sink = VecSink::default();
        let d = agent.decide_with_sink(&pool, &mut sink).unwrap();

        let selections: Vec<_> = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ResourceSelection { .. }))
            .collect();
        assert_eq!(selections.len(), 1);
        let considered = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CandidateConsidered { .. }))
            .count();
        assert_eq!(considered, d.considered.len());
        // Exactly one chosen event, and it names the winning index.
        let chosen: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ScheduleChosen { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(chosen, vec![d.chosen_index]);
        // The sink-free path returns the identical decision.
        let plain = agent.decide(&pool).unwrap();
        assert_eq!(plain.chosen_index, d.chosen_index);
    }
}
