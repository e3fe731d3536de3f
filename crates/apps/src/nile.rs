//! CLEO/NILE: the data-parallel metacomputer application of §2.1.
//!
//! High-energy-physics *events* (collision records) live on a storage
//! server; physicists submit analysis programs that scan an event
//! selection, possibly many times as the analysis is refined. The NILE
//! Site Manager decides where the analysis runs and whether to *skim*:
//! "the physicist may 'skim' the entire data set to create private
//! disk data sets of events for further local analysis. The cost of
//! skimming is compared with a prediction of the reduction in cost of
//! event analysis when the data is local."
//!
//! [`SiteManager`] reproduces that decision: it plans each analysis
//! run as a task farm over the available execution sites (events
//! proportional to forecast speed), predicts the cost of an R-run
//! campaign with the data left remote versus skimmed to the analysis
//! site, and picks the cheaper plan.

use apples::actuator::actuate;
use apples::error::ApplesError;
use apples::estimator::estimate_farm;
use apples::hat::{Hat, TaskFarmTemplate};
use apples::info::InfoPool;
use apples::schedule::{FarmSchedule, Schedule};
use metasim::net::{simulate_transfers, TransferReq};
use metasim::{HostId, NoopSink, SimTime, Topology};

/// A typical CLEO analysis: `roar`-format compressed events (§2.1:
/// raw events are 8 KB, `pass2` records 20 KB, `roar` is a lossy
/// compression of the frequently-accessed fields — we use 2 KB).
pub fn cleo_analysis_hat(events: u64) -> Hat {
    Hat::task_farm(
        "cleo-event-analysis",
        TaskFarmTemplate {
            events,
            mflop_per_event: 1.5,
            mb_per_event: 0.002,
            result_mb_per_event: 0.0001,
        },
    )
}

/// Allocate events across `hosts` proportionally to forecast speed
/// (largest-remainder rounding), producing a farm schedule.
pub fn plan_farm(
    pool: &InfoPool<'_>,
    hosts: &[HostId],
    data_home: HostId,
    result_home: HostId,
) -> Result<FarmSchedule, ApplesError> {
    let t = pool
        .hat
        .as_task_farm()
        .ok_or(ApplesError::TemplateMismatch {
            expected: "task-farm",
            found: pool.hat.class_name(),
        })?;
    if hosts.is_empty() {
        return Err(ApplesError::PlanningFailed("empty resource set".into()));
    }
    let speeds: Vec<f64> = hosts
        .iter()
        .map(|&h| pool.effective_mflops(h).unwrap_or(0.0))
        .collect();
    let total: f64 = speeds.iter().sum();
    if total <= 0.0 {
        return Err(ApplesError::PlanningFailed(
            "no host in the set has positive predicted availability".into(),
        ));
    }
    let shares: Vec<f64> = speeds.iter().map(|s| t.events as f64 * s / total).collect();
    let mut counts: Vec<u64> = shares.iter().map(|s| s.floor() as u64).collect();
    let mut remainder = t.events - counts.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..hosts.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.total_cmp(&fa)
    });
    for &i in order.iter().cycle() {
        if remainder == 0 {
            break;
        }
        counts[i] += 1;
        remainder -= 1;
    }
    let assignments: Vec<(HostId, u64)> = hosts
        .iter()
        .zip(&counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(&h, &c)| (h, c))
        .collect();
    Ok(FarmSchedule {
        data_home,
        result_home,
        assignments,
    })
}

/// The Site Manager's verdict for an analysis campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Whether the data should be skimmed to the analysis site first.
    pub skim: bool,
    /// Predicted total seconds with the chosen strategy.
    pub predicted_seconds: f64,
    /// Predicted total seconds of the rejected strategy.
    pub predicted_alternative_seconds: f64,
    /// The per-run farm schedule under the chosen strategy.
    pub per_run: FarmSchedule,
}

/// The NILE Site Manager.
#[derive(Debug, Clone, Copy)]
pub struct SiteManager {
    /// How many times the analysis will be re-run over the same
    /// selection (physicists iterate).
    pub runs: usize,
    /// Ratio of bytes the skim must copy to the bytes one analysis
    /// run reads remotely. Skimming materializes full private event
    /// records, while a remote run reads only the (`roar`-compressed)
    /// fields the analysis touches — so this is typically > 1, and the
    /// skim only pays for itself over repeated runs.
    pub skim_mb_factor: f64,
}

impl SiteManager {
    /// Plan a campaign: compare R runs against the remote data home
    /// with one skim transfer plus R local runs, and pick the cheaper.
    ///
    /// `compute_hosts` are the candidate execution sites; `data_home`
    /// holds the events; `local_site` is where a skim would land (and
    /// where results aggregate).
    pub fn plan_campaign(
        &self,
        pool: &InfoPool<'_>,
        compute_hosts: &[HostId],
        data_home: HostId,
        local_site: HostId,
    ) -> Result<CampaignPlan, ApplesError> {
        let t = pool
            .hat
            .as_task_farm()
            .ok_or(ApplesError::TemplateMismatch {
                expected: "task-farm",
                found: pool.hat.class_name(),
            })?;
        if self.runs == 0 {
            return Err(ApplesError::Invalid(
                "campaign needs at least one run".into(),
            ));
        }
        if self.skim_mb_factor.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ApplesError::Invalid(format!(
                "skim data factor {} must be positive",
                self.skim_mb_factor
            )));
        }

        // Strategy A: leave the data remote.
        let remote_sched = plan_farm(pool, compute_hosts, data_home, local_site)?;
        let remote_run = estimate_farm(pool, &remote_sched)?;
        let remote_total = remote_run * self.runs as f64;

        // Strategy B: skim once, then run against the local copy.
        // The skim materializes full event records — `skim_mb_factor`
        // times the bytes a single remote run would actually read.
        let skim_mb = t.total_data_mb() * self.skim_mb_factor;
        let skim_cost = pool.transfer_seconds(data_home, local_site, skim_mb)?;
        let local_sched = plan_farm(pool, compute_hosts, local_site, local_site)?;
        let local_run = estimate_farm(pool, &local_sched)?;
        let skim_total = skim_cost + local_run * self.runs as f64;

        Ok(if skim_total < remote_total {
            CampaignPlan {
                skim: true,
                predicted_seconds: skim_total,
                predicted_alternative_seconds: remote_total,
                per_run: local_sched,
            }
        } else {
            CampaignPlan {
                skim: false,
                predicted_seconds: remote_total,
                predicted_alternative_seconds: skim_total,
                per_run: remote_sched,
            }
        })
    }

    /// Execute the campaign on the simulator: the optional skim
    /// transfer, then `runs` back-to-back analysis runs. Returns the
    /// total elapsed seconds.
    pub fn run_campaign(
        &self,
        topo: &Topology,
        hat: &Hat,
        plan: &CampaignPlan,
        data_home: HostId,
        local_site: HostId,
        start: SimTime,
    ) -> Result<f64, ApplesError> {
        let t = hat.as_task_farm().ok_or(ApplesError::TemplateMismatch {
            expected: "task-farm",
            found: hat.class_name(),
        })?;
        let mut now = start;
        if plan.skim {
            let skim_mb = t.total_data_mb() * self.skim_mb_factor;
            let res = simulate_transfers(
                topo,
                &[TransferReq {
                    from: data_home,
                    to: local_site,
                    mb: skim_mb,
                    start: now,
                    tag: 0,
                }],
                &mut NoopSink,
            )?;
            now = res[0].delivered;
        }
        for _ in 0..self.runs {
            let report = actuate(
                topo,
                hat,
                &Schedule::Farm(plan.per_run.clone()),
                now,
                &mut NoopSink,
            )?;
            now = report.finish;
        }
        Ok(now.saturating_sub(start).as_secs_f64())
    }
}

/// A multi-site analysis: the event data lives on several storage
/// servers (§2.1: "distribution is necessary because not enough
/// resources can be made available at any single site to accommodate
/// the quantity of data"), and the compute pool must be divided among
/// the data sites so every site's share finishes together.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSitePlan {
    /// One farm per data site, over disjoint compute-host subsets.
    pub per_site: Vec<FarmSchedule>,
    /// Predicted seconds (the slowest site's farm).
    pub predicted_seconds: f64,
}

/// Partition `compute_hosts` among data sites (each `(host, events)`)
/// and plan one farm per site.
///
/// Hosts are dealt out in descending forecast-speed order, each to the
/// site with the most *unserved* events per unit of compute already
/// assigned — a longest-processing-time heuristic that equalizes the
/// sites' finish times. Results aggregate to `result_home`.
pub fn plan_multi_site(
    pool: &InfoPool<'_>,
    compute_hosts: &[HostId],
    sites: &[(HostId, u64)],
    result_home: HostId,
) -> Result<MultiSitePlan, ApplesError> {
    let t = pool
        .hat
        .as_task_farm()
        .ok_or(ApplesError::TemplateMismatch {
            expected: "task-farm",
            found: pool.hat.class_name(),
        })?;
    if sites.is_empty() {
        return Err(ApplesError::Invalid("no data sites".into()));
    }
    let total_events: u64 = sites.iter().map(|&(_, e)| e).sum();
    if total_events != t.events {
        return Err(ApplesError::Invalid(format!(
            "data sites hold {total_events} events but the template has {}",
            t.events
        )));
    }
    if compute_hosts.len() < sites.len() {
        return Err(ApplesError::PlanningFailed(format!(
            "{} compute hosts cannot serve {} data sites",
            compute_hosts.len(),
            sites.len()
        )));
    }

    // Deal hosts: fastest first, each to the neediest site.
    let mut speed_order: Vec<HostId> = compute_hosts.to_vec();
    speed_order.sort_by(|&a, &b| {
        let sa = pool.effective_mflops(a).unwrap_or(0.0);
        let sb = pool.effective_mflops(b).unwrap_or(0.0);
        sb.total_cmp(&sa)
    });
    let mut assigned: Vec<Vec<HostId>> = vec![Vec::new(); sites.len()];
    let mut speed_sum = vec![0.0f64; sites.len()];
    for h in speed_order {
        let need = |i: usize| {
            if speed_sum[i] <= 0.0 {
                f64::INFINITY
            } else {
                sites[i].1 as f64 / speed_sum[i]
            }
        };
        let target = (0..sites.len())
            .max_by(|&a, &b| {
                need(a)
                    .total_cmp(&need(b))
                    // Break ties toward the site holding more data so
                    // infinite needs resolve deterministically.
                    .then_with(|| sites[a].1.cmp(&sites[b].1))
            })
            .expect("sites present");
        assigned[target].push(h);
        speed_sum[target] += pool.effective_mflops(h).unwrap_or(0.0);
    }

    // Plan each site's farm with a site-scoped template.
    let mut per_site = Vec::with_capacity(sites.len());
    let mut predicted: f64 = 0.0;
    for (i, &(data_home, events)) in sites.iter().enumerate() {
        if assigned[i].is_empty() {
            return Err(ApplesError::PlanningFailed(format!(
                "data site {data_home} received no compute hosts"
            )));
        }
        let site_hat = Hat::task_farm(
            &pool.hat.name,
            TaskFarmTemplate {
                events,
                ..t.clone()
            },
        );
        let site_pool = pool.for_hat(&site_hat);
        let sched = plan_farm(&site_pool, &assigned[i], data_home, result_home)?;
        predicted = predicted.max(estimate_farm(&site_pool, &sched)?);
        per_site.push(sched);
    }
    Ok(MultiSitePlan {
        per_site,
        predicted_seconds: predicted,
    })
}

/// Execute a multi-site plan: every site's farm runs concurrently on
/// its disjoint host subset. Returns the elapsed seconds of the
/// slowest site. (Cross-farm network contention between sites is not
/// modelled — the farms share no hosts, and in the §2.1 setting each
/// site's traffic stays on its own campus network.)
pub fn run_multi_site(
    topo: &Topology,
    hat: &Hat,
    plan: &MultiSitePlan,
    start: SimTime,
) -> Result<f64, ApplesError> {
    let t = hat.as_task_farm().ok_or(ApplesError::TemplateMismatch {
        expected: "task-farm",
        found: hat.class_name(),
    })?;
    let mut worst = 0.0f64;
    for sched in &plan.per_site {
        let events: u64 = sched.assignments.iter().map(|&(_, e)| e).sum();
        let site_hat = Hat::task_farm(
            &hat.name,
            TaskFarmTemplate {
                events,
                ..t.clone()
            },
        );
        let report = actuate(
            topo,
            &site_hat,
            &Schedule::Farm(sched.clone()),
            start,
            &mut NoopSink,
        )?;
        worst = worst.max(report.elapsed_seconds);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples::user::UserSpec;
    use metasim::host::HostSpec;
    use metasim::net::{LinkSpec, TopologyBuilder};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// A storage server behind a slow WAN and two fast local Alphas.
    struct Setup {
        topo: Topology,
        server: HostId,
        alphas: [HostId; 2],
    }

    fn setup() -> Setup {
        let mut b = TopologyBuilder::new();
        let local = b.add_segment(LinkSpec::dedicated(
            "local",
            12.5,
            SimTime::from_micros(500),
        ));
        let remote = b.add_segment(LinkSpec::dedicated(
            "remote",
            12.5,
            SimTime::from_micros(500),
        ));
        let wan = b.add_link(LinkSpec::dedicated("wan", 0.5, SimTime::from_millis(30)));
        b.add_route(local, remote, vec![wan]).unwrap();
        let server = b.add_host(HostSpec::dedicated("cornell-server", 20.0, 1024.0, remote));
        let a0 = b.add_host(HostSpec::dedicated("alpha-0", 40.0, 256.0, local));
        let a1 = b.add_host(HostSpec::dedicated("alpha-1", 40.0, 256.0, local));
        Setup {
            topo: b.instantiate(s(1e7), 0).unwrap(),
            server,
            alphas: [a0, a1],
        }
    }

    #[test]
    fn farm_plan_splits_events_by_speed() {
        let su = setup();
        let hat = cleo_analysis_hat(1000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let sched = plan_farm(&pool, &su.alphas, su.server, su.alphas[0]).unwrap();
        assert_eq!(sched.assignments.len(), 2);
        assert_eq!(sched.assignments[0].1, 500);
        assert_eq!(sched.assignments[1].1, 500);
        let t = hat.as_task_farm().unwrap();
        assert!(sched.validate(t).is_ok());
    }

    #[test]
    fn farm_plan_conserves_events_with_uneven_speeds() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("b", 30.0, 64.0, seg));
        b.add_host(HostSpec::dedicated("c", 7.0, 64.0, seg));
        let topo = b.instantiate(s(100.0), 0).unwrap();
        let hat = cleo_analysis_hat(997);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        let sched = plan_farm(
            &pool,
            &[HostId(0), HostId(1), HostId(2)],
            HostId(0),
            HostId(0),
        )
        .unwrap();
        assert_eq!(sched.assignments.iter().map(|&(_, e)| e).sum::<u64>(), 997);
    }

    #[test]
    fn many_runs_favour_skimming() {
        let su = setup();
        let hat = cleo_analysis_hat(200_000); // 400 MB behind a 0.5 MB/s WAN
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let sm = SiteManager {
            runs: 10,
            skim_mb_factor: 3.0,
        };
        let plan = sm
            .plan_campaign(&pool, &su.alphas, su.server, su.alphas[0])
            .unwrap();
        assert!(plan.skim, "10 runs over a slow WAN should skim: {plan:?}");
        assert!(plan.predicted_seconds < plan.predicted_alternative_seconds);
    }

    #[test]
    fn single_run_avoids_skimming() {
        let su = setup();
        let hat = cleo_analysis_hat(200_000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let sm = SiteManager {
            runs: 1,
            skim_mb_factor: 3.0, // full records cost 3× one run's reads
        };
        let plan = sm
            .plan_campaign(&pool, &su.alphas, su.server, su.alphas[0])
            .unwrap();
        assert!(!plan.skim, "one run should not pay a 3x skim: {plan:?}");
    }

    #[test]
    fn campaign_execution_matches_choice() {
        let su = setup();
        let hat = cleo_analysis_hat(50_000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let sm = SiteManager {
            runs: 8,
            skim_mb_factor: 3.0,
        };
        let plan = sm
            .plan_campaign(&pool, &su.alphas, su.server, su.alphas[0])
            .unwrap();
        let measured = sm
            .run_campaign(
                &su.topo,
                &hat,
                &plan,
                su.server,
                su.alphas[0],
                SimTime::ZERO,
            )
            .unwrap();
        assert!(measured > 0.0);
        // The estimate and the simulation should agree on the order of
        // magnitude (the farm model approximates contention).
        let ratio = measured / plan.predicted_seconds;
        assert!(
            (0.3..3.0).contains(&ratio),
            "measured {measured} vs predicted {} (ratio {ratio})",
            plan.predicted_seconds
        );
    }

    #[test]
    fn skim_beats_remote_in_actuated_time_when_predicted() {
        let su = setup();
        let hat = cleo_analysis_hat(100_000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let sm = SiteManager {
            runs: 10,
            skim_mb_factor: 3.0,
        };
        let plan = sm
            .plan_campaign(&pool, &su.alphas, su.server, su.alphas[0])
            .unwrap();
        assert!(plan.skim);
        // Force the remote plan and compare actuated totals.
        let remote_sched = plan_farm(&pool, &su.alphas, su.server, su.alphas[0]).unwrap();
        let remote_plan = CampaignPlan {
            skim: false,
            predicted_seconds: 0.0,
            predicted_alternative_seconds: 0.0,
            per_run: remote_sched,
        };
        let skim_time = sm
            .run_campaign(
                &su.topo,
                &hat,
                &plan,
                su.server,
                su.alphas[0],
                SimTime::ZERO,
            )
            .unwrap();
        let remote_time = sm
            .run_campaign(
                &su.topo,
                &hat,
                &remote_plan,
                su.server,
                su.alphas[0],
                SimTime::ZERO,
            )
            .unwrap();
        assert!(
            skim_time < remote_time,
            "skim {skim_time} should beat remote {remote_time}"
        );
    }

    /// Two data sites with fast links locally; compute hosts of mixed
    /// speed.
    struct MultiSetup {
        topo: Topology,
        site_a: HostId,
        site_b: HostId,
        compute: Vec<HostId>,
    }

    fn multi_setup() -> MultiSetup {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("lan", 12.5, SimTime::from_micros(500)));
        let site_a = b.add_host(HostSpec::dedicated("store-a", 20.0, 2048.0, seg));
        let site_b = b.add_host(HostSpec::dedicated("store-b", 20.0, 2048.0, seg));
        let mut compute = Vec::new();
        for (i, speed) in [40.0, 40.0, 20.0, 10.0].iter().enumerate() {
            compute.push(b.add_host(HostSpec::dedicated(&format!("c{i}"), *speed, 256.0, seg)));
        }
        MultiSetup {
            topo: b.instantiate(s(1e7), 0).unwrap(),
            site_a,
            site_b,
            compute,
        }
    }

    #[test]
    fn multi_site_covers_all_events_on_disjoint_hosts() {
        let su = multi_setup();
        let hat = cleo_analysis_hat(100_000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let plan = plan_multi_site(
            &pool,
            &su.compute,
            &[(su.site_a, 60_000), (su.site_b, 40_000)],
            su.site_a,
        )
        .unwrap();
        assert_eq!(plan.per_site.len(), 2);
        let total: u64 = plan
            .per_site
            .iter()
            .flat_map(|f| f.assignments.iter().map(|&(_, e)| e))
            .sum();
        assert_eq!(total, 100_000);
        // Host subsets are disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for f in &plan.per_site {
            for &(h, _) in &f.assignments {
                assert!(seen.insert(h.0), "host {h} serves two sites");
            }
        }
    }

    #[test]
    fn multi_site_balances_compute_to_data() {
        let su = multi_setup();
        let hat = cleo_analysis_hat(100_000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        // Site A holds 3x the data of site B: it should get the larger
        // share of aggregate compute speed.
        let plan = plan_multi_site(
            &pool,
            &su.compute,
            &[(su.site_a, 75_000), (su.site_b, 25_000)],
            su.site_a,
        )
        .unwrap();
        let speed_of = |f: &apples::schedule::FarmSchedule| -> f64 {
            f.assignments
                .iter()
                .map(|&(h, _)| su.topo.host(h).unwrap().spec.mflops)
                .sum()
        };
        assert!(speed_of(&plan.per_site[0]) > speed_of(&plan.per_site[1]));
        // And the measured finish times should be reasonably balanced.
        let t = run_multi_site(&su.topo, &hat, &plan, SimTime::ZERO).unwrap();
        assert!(t > 0.0);
        assert!(
            t < 1.6 * plan.predicted_seconds + 1.0,
            "measured {t} vs predicted {}",
            plan.predicted_seconds
        );
    }

    #[test]
    fn multi_site_rejects_mismatched_totals() {
        let su = multi_setup();
        let hat = cleo_analysis_hat(100_000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        assert!(plan_multi_site(
            &pool,
            &su.compute,
            &[(su.site_a, 1), (su.site_b, 1)],
            su.site_a,
        )
        .is_err());
    }

    #[test]
    fn multi_site_needs_a_host_per_site() {
        let su = multi_setup();
        let hat = cleo_analysis_hat(100);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        assert!(plan_multi_site(
            &pool,
            &su.compute[..1],
            &[(su.site_a, 50), (su.site_b, 50)],
            su.site_a,
        )
        .is_err());
    }

    #[test]
    fn degenerate_campaigns_are_rejected() {
        let su = setup();
        let hat = cleo_analysis_hat(100);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&su.topo, &hat, &user, SimTime::ZERO);
        let sm = SiteManager {
            runs: 0,
            skim_mb_factor: 2.0,
        };
        assert!(sm
            .plan_campaign(&pool, &su.alphas, su.server, su.alphas[0])
            .is_err());
        let sm2 = SiteManager {
            runs: 1,
            skim_mb_factor: 0.0,
        };
        assert!(sm2
            .plan_campaign(&pool, &su.alphas, su.server, su.alphas[0])
            .is_err());
    }
}
