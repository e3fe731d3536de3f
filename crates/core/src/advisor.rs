//! The wait-or-run-now decision (§3.2).
//!
//! "When dedicated resources are considered, the user must determine
//! whether to wait until the resources will be available or to execute
//! the application with lesser performance on the resources currently
//! available. Users make these decisions all the time by estimating
//! the sum of the wait time and the dedicated time and comparing it
//! with a prediction of the slowdown the application will experience
//! on non-dedicated resources."
//!
//! [`advise`] mechanizes that comparison: plan the application on each
//! offered resource set, charge space-shared sets their queue wait
//! (already modelled by the executors via
//! [`metasim::Host::startup_wait`]), and recommend the set with the
//! earliest predicted *completion*, not the fastest predicted
//! *execution*.

use crate::error::ApplesError;
use crate::estimator::estimate_seconds;
use crate::info::InfoPool;
use crate::planner::plan;
use crate::schedule::Schedule;
use metasim::HostId;

/// One evaluated option.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitOption {
    /// The offered resource set.
    pub hosts: Vec<HostId>,
    /// The planned schedule on that set.
    pub schedule: Schedule,
    /// Queue wait before execution can begin (max over the set).
    pub wait_seconds: f64,
    /// Predicted execution seconds once running (includes the wait for
    /// space-shared hosts, since the estimator charges startup).
    pub completion_seconds: f64,
}

/// The advisor's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitAdvice {
    /// Index of the recommended option within `options`.
    pub recommended: usize,
    /// Every option that planned successfully.
    pub options: Vec<WaitOption>,
}

impl WaitAdvice {
    /// The recommended option.
    pub fn chosen(&self) -> &WaitOption {
        &self.options[self.recommended]
    }
}

/// Compare resource sets by predicted completion time (wait included)
/// and recommend the earliest finisher.
///
/// Typical use: `sets[0]` is a dedicated partition with a long queue,
/// `sets[1]` the loaded workstations available right now.
pub fn advise(pool: &InfoPool<'_>, sets: &[Vec<HostId>]) -> Result<WaitAdvice, ApplesError> {
    let mut options = Vec::new();
    for hosts in sets {
        let schedule = match plan(pool, hosts) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let completion_seconds = match estimate_seconds(pool, &schedule) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let mut wait_seconds = 0.0f64;
        for &h in hosts {
            wait_seconds = wait_seconds.max(pool.topo.host(h)?.startup_wait().as_secs_f64());
        }
        options.push(WaitOption {
            hosts: hosts.clone(),
            schedule,
            wait_seconds,
            completion_seconds,
        });
    }
    if options.is_empty() {
        return Err(ApplesError::NoViableSchedule);
    }
    let recommended = options
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.completion_seconds.total_cmp(&b.completion_seconds))
        .map(|(i, _)| i)
        .ok_or(ApplesError::NoViableSchedule)?;
    Ok(WaitAdvice {
        recommended,
        options,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use crate::user::UserSpec;
    use metasim::host::{HostSpec, SharingPolicy};
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use metasim::{SimTime, Topology};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Hosts 0-1: a dedicated pair behind a queue of `wait` seconds.
    /// Hosts 2-3: loaded workstations available immediately.
    fn topo(wait: f64, shared_avail: f64) -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::from_micros(200)));
        for i in 0..2 {
            let mut spec = HostSpec::dedicated(&format!("ded{i}"), 40.0, 1024.0, seg);
            spec.sharing = SharingPolicy::SpaceShared { wait: s(wait) };
            b.add_host(spec);
        }
        for i in 0..2 {
            b.add_host(HostSpec::workstation(
                &format!("ws{i}"),
                40.0,
                1024.0,
                seg,
                LoadModel::Constant(shared_avail),
            ));
        }
        b.instantiate(s(1e6), 0).unwrap()
    }

    fn advise_on(topo: &Topology) -> WaitAdvice {
        let hat = jacobi2d_hat(1000, 1000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(topo, &hat, &user, SimTime::ZERO)
            .with_source(crate::info::ForecastSource::Oracle);
        let dedicated = vec![HostId(0), HostId(1)];
        let shared = vec![HostId(2), HostId(3)];
        advise(&pool, &[dedicated, shared]).unwrap()
    }

    #[test]
    fn short_queue_favours_waiting_for_dedicated() {
        // 5 Mflop/iter × 1000 iterations on 2×40 Mflop/s: ~63 s of
        // compute; a 30 s queue is worth paying when the shared pool
        // runs at 30% availability (~210 s of compute).
        let topo = topo(30.0, 0.3);
        let advice = advise_on(&topo);
        assert_eq!(advice.chosen().hosts, vec![HostId(0), HostId(1)]);
        assert!(advice.chosen().wait_seconds == 30.0);
    }

    #[test]
    fn long_queue_favours_running_now() {
        // A 3-hour queue dwarfs the shared pool's slowdown.
        let topo = topo(10_800.0, 0.3);
        let advice = advise_on(&topo);
        assert_eq!(advice.chosen().hosts, vec![HostId(2), HostId(3)]);
        assert_eq!(advice.chosen().wait_seconds, 0.0);
    }

    #[test]
    fn lightly_loaded_shared_pool_beats_any_queue() {
        let topo = topo(30.0, 0.99);
        let advice = advise_on(&topo);
        assert_eq!(advice.chosen().hosts, vec![HostId(2), HostId(3)]);
    }

    #[test]
    fn completion_includes_the_wait() {
        let topo = topo(500.0, 0.3);
        let advice = advise_on(&topo);
        let dedicated = advice
            .options
            .iter()
            .find(|o| o.hosts == vec![HostId(0), HostId(1)])
            .unwrap();
        assert!(
            dedicated.completion_seconds > 500.0,
            "completion {} must include the 500 s wait",
            dedicated.completion_seconds
        );
    }

    #[test]
    fn advice_is_exposed_for_all_options() {
        let topo = topo(30.0, 0.5);
        let advice = advise_on(&topo);
        assert_eq!(advice.options.len(), 2);
    }

    #[test]
    fn no_plannable_set_is_an_error() {
        let topo = topo(30.0, 0.5);
        let hat = jacobi2d_hat(1000, 1000);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert!(advise(&pool, &[]).is_err());
    }
}
