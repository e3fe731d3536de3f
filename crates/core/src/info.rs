//! The Information Pool.
//!
//! §4.1: "Application-specific, system-specific, and dynamic information
//! used by these subsystems constitute an Information Pool which all
//! subsystems share." The pool bundles the four information sources —
//! NWS forecasts, the HAT, the models, and the User Specifications —
//! behind the queries the subsystems actually make: *what compute rate
//! will this host deliver?* and *what bandwidth will this route
//! deliver?* in the imminent scheduling window.
//!
//! The pool's [`ForecastSource`] selects where dynamic information comes
//! from. Besides the NWS there are three alternates used by the
//! prediction-quality ablation (§3.6: "a schedule is only as good as
//! the accuracy of its underlying predictions"):
//!
//! * [`ForecastSource::LastValue`] — raw most-recent measurement,
//! * [`ForecastSource::Oracle`] — the true mean availability over the
//!   upcoming window (an unrealizable upper bound on forecast quality),
//! * [`ForecastSource::StaticNominal`] — assume dedicated resources,
//!   which is exactly what the paper's static Strip and Blocked
//!   partitions assume.

use crate::hat::Hat;
use crate::user::UserSpec;
use metasim::{HostId, SegmentId, SimError, SimTime, Topology};
use nws::{ResourceKey, WeatherService};
use std::cell::{Cell, OnceCell};

/// Where the pool's dynamic availability information comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastSource {
    /// NWS adaptive-selector forecasts (the AppLeS design point).
    Nws,
    /// The most recent raw measurement, no forecasting.
    LastValue,
    /// Cheat: the realized mean availability over the upcoming window.
    Oracle,
    /// Assume every resource is fully available (static scheduling).
    StaticNominal,
}

/// Shared information context for one scheduling decision.
///
/// Every availability answer is memoized: a pool forecasts each host
/// and link at most once, however many candidates the selector, planner
/// and estimator evaluate. So is each route's latency and predicted
/// bottleneck, once per ordered segment pair, since a route between two
/// hosts depends only on their segments. The answers depend only on
/// the topology, the weather service, `now` and the forecast settings,
/// and none of them can change while the pool lives: the borrows are
/// shared, `now` is fixed at construction, and the settings change only
/// through the consuming `with_*` methods, which hand back a pool with
/// an empty memo.
pub struct InfoPool<'a> {
    /// The system being scheduled onto.
    pub topo: &'a Topology,
    /// The weather service (may be absent for static scheduling).
    weather: Option<&'a WeatherService>,
    /// The application template.
    pub hat: &'a Hat,
    /// The user specifications.
    pub user: &'a UserSpec,
    source: ForecastSource,
    now: SimTime,
    oracle_window: SimTime,
    memo: Memo,
}

/// A route's latency in seconds and predicted bottleneck in MB/s.
type RouteAnswer = (f64, f64);

/// Answers already given: availabilities indexed by host and link id,
/// and route answers indexed by ordered segment pair.
struct Memo {
    cpu: Vec<Cell<Option<f64>>>,
    link: Vec<Cell<Option<f64>>>,
    segments: usize,
    /// The answer for `from -> to` at `from * segments + to`,
    /// allocated on the first transfer query: most pools never ask one.
    route: OnceCell<Vec<Cell<Option<RouteAnswer>>>>,
}

impl Memo {
    fn for_topology(topo: &Topology) -> Self {
        Memo {
            cpu: vec![Cell::new(None); topo.hosts().len()],
            link: vec![Cell::new(None); topo.links().len()],
            segments: topo.segment_count(),
            route: OnceCell::new(),
        }
    }

    fn slot(&self, key: ResourceKey) -> Option<&Cell<Option<f64>>> {
        match key {
            ResourceKey::Cpu(h) => self.cpu.get(h.0),
            ResourceKey::Link(l) => self.link.get(l.0),
        }
    }

    fn route_slot(&self, from: SegmentId, to: SegmentId) -> Option<&Cell<Option<RouteAnswer>>> {
        let n = self.segments;
        if from.0 >= n || to.0 >= n {
            return None;
        }
        let table = self.route.get_or_init(|| vec![Cell::new(None); n * n]);
        table.get(from.0 * n + to.0)
    }
}

impl<'a> InfoPool<'a> {
    fn new(
        topo: &'a Topology,
        weather: Option<&'a WeatherService>,
        hat: &'a Hat,
        user: &'a UserSpec,
        source: ForecastSource,
        now: SimTime,
    ) -> Self {
        InfoPool {
            topo,
            weather,
            hat,
            user,
            source,
            now,
            oracle_window: SimTime::from_secs(600),
            memo: Memo::for_topology(topo),
        }
    }

    /// A pool using NWS forecasts.
    pub fn with_nws(
        topo: &'a Topology,
        weather: &'a WeatherService,
        hat: &'a Hat,
        user: &'a UserSpec,
        now: SimTime,
    ) -> Self {
        Self::new(topo, Some(weather), hat, user, ForecastSource::Nws, now)
    }

    /// A pool that assumes dedicated resources (static scheduling).
    pub fn static_nominal(
        topo: &'a Topology,
        hat: &'a Hat,
        user: &'a UserSpec,
        now: SimTime,
    ) -> Self {
        Self::new(topo, None, hat, user, ForecastSource::StaticNominal, now)
    }

    /// This pool reading dynamic information from `source`.
    pub fn with_source(self, source: ForecastSource) -> Self {
        InfoPool {
            source,
            memo: Memo::for_topology(self.topo),
            ..self
        }
    }

    /// This pool with the window the oracle averages the true
    /// availability over (600 s unless set).
    pub fn with_oracle_window(self, oracle_window: SimTime) -> Self {
        InfoPool {
            oracle_window,
            memo: Memo::for_topology(self.topo),
            ..self
        }
    }

    /// A pool with the same information sources and settings for
    /// another application template.
    pub fn for_hat<'b>(&self, hat: &'b Hat) -> InfoPool<'b>
    where
        'a: 'b,
    {
        InfoPool {
            hat,
            memo: Memo::for_topology(self.topo),
            ..*self
        }
    }

    /// The decision time: forecasts are for the window starting here.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Predicted CPU availability fraction of `host` for the imminent
    /// window. Falls back to `1.0` when no information is available.
    pub fn cpu_availability(&self, host: HostId) -> f64 {
        self.availability(ResourceKey::Cpu(host), |w| {
            self.topo
                .host(host)
                .map(|h| h.availability().mean(self.now, self.now + w))
                .unwrap_or(1.0)
        })
    }

    /// Predicted available-capacity fraction of a link.
    pub fn link_availability(&self, link: metasim::LinkId) -> f64 {
        self.availability(ResourceKey::Link(link), |w| {
            self.topo
                .link(link)
                .map(|l| l.availability().mean(self.now, self.now + w))
                .unwrap_or(1.0)
        })
    }

    /// The memoized answer for `key`, computed on first use.
    fn availability(&self, key: ResourceKey, oracle: impl Fn(SimTime) -> f64) -> f64 {
        let slot = self.memo.slot(key);
        if let Some(v) = slot.and_then(Cell::get) {
            return v;
        }
        let v = match self.source {
            ForecastSource::StaticNominal => 1.0,
            ForecastSource::Oracle => oracle(self.oracle_window),
            ForecastSource::LastValue => self
                .weather
                .and_then(|w| w.current(key))
                .unwrap_or(1.0)
                .clamp(0.0, 1.0),
            ForecastSource::Nws => self
                .weather
                .and_then(|w| w.forecast(key))
                .map_or(1.0, |f| f.value),
        };
        if let Some(slot) = slot {
            slot.set(Some(v));
        }
        v
    }

    /// Predicted effective compute rate of `host` in Mflop/s: nominal
    /// speed scaled by the availability forecast. Memory effects are
    /// applied by the estimator, which knows the schedule's footprint.
    pub fn effective_mflops(&self, host: HostId) -> Result<f64, SimError> {
        let h = self.topo.host(host)?;
        Ok(h.spec.mflops * self.cpu_availability(host))
    }

    /// Predicted bottleneck bandwidth (MB/s) along the route between
    /// two hosts. Same-host routes report `f64::INFINITY`.
    pub fn route_bandwidth(&self, from: HostId, to: HostId) -> Result<f64, SimError> {
        if from == to {
            return Ok(f64::INFINITY);
        }
        Ok(self.route_answer(from, to)?.1)
    }

    /// Route latency between two hosts (static information).
    pub fn route_latency(&self, from: HostId, to: HostId) -> Result<SimTime, SimError> {
        self.topo.route_latency(from, to)
    }

    /// Predicted seconds to move `mb` between two hosts: latency plus
    /// payload over predicted bottleneck bandwidth.
    pub fn transfer_seconds(&self, from: HostId, to: HostId, mb: f64) -> Result<f64, SimError> {
        if from == to || mb <= 0.0 {
            return Ok(0.0);
        }
        let (latency, bw) = self.route_answer(from, to)?;
        if bw <= 0.0 {
            return Err(SimError::NeverCompletes { work: mb });
        }
        Ok(latency + mb / bw)
    }

    /// Latency seconds and predicted bottleneck bandwidth of the route
    /// between two distinct hosts, memoized per segment pair.
    fn route_answer(&self, from: HostId, to: HostId) -> Result<RouteAnswer, SimError> {
        let slot = self.memo.route_slot(
            self.topo.host(from)?.spec.segment,
            self.topo.host(to)?.spec.segment,
        );
        if let Some(v) = slot.and_then(Cell::get) {
            return Ok(v);
        }
        let mut bw = f64::INFINITY;
        for &l in self.topo.route(from, to)? {
            let link = self.topo.link(l)?;
            bw = bw.min(link.spec.bandwidth_mbps * self.link_availability(l));
        }
        let v = (self.route_latency(from, to)?.as_secs_f64(), bw);
        if let Some(slot) = slot {
            slot.set(Some(v));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use metasim::host::HostSpec;
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use metasim::LinkId;
    use nws::WeatherServiceConfig;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::from_millis(2),
            LoadModel::Constant(0.8),
        ));
        b.add_host(HostSpec::workstation(
            "a",
            100.0,
            64.0,
            seg,
            LoadModel::Constant(0.5),
        ));
        b.add_host(HostSpec::dedicated("b", 50.0, 64.0, seg));
        b.instantiate(s(10_000.0), 0).unwrap()
    }

    #[test]
    fn static_nominal_assumes_full_availability() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert_eq!(pool.cpu_availability(HostId(0)), 1.0);
        assert_eq!(pool.effective_mflops(HostId(0)).unwrap(), 100.0);
        assert_eq!(pool.route_bandwidth(HostId(0), HostId(1)).unwrap(), 10.0);
    }

    #[test]
    fn nws_pool_reflects_measured_load() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(500.0));
        let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(500.0));
        assert!((pool.cpu_availability(HostId(0)) - 0.5).abs() < 1e-9);
        assert!((pool.effective_mflops(HostId(0)).unwrap() - 50.0).abs() < 1e-6);
        // Link at 0.8 availability: 8 MB/s.
        assert!((pool.route_bandwidth(HostId(0), HostId(1)).unwrap() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn oracle_reads_true_future_mean() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::workstation(
            "a",
            100.0,
            64.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(100.0), 0.2)]),
        ));
        let topo = b.instantiate(s(10_000.0), 0).unwrap();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, s(100.0))
            .with_source(ForecastSource::Oracle)
            .with_oracle_window(s(50.0));
        // Oracle window [100, 150] lies entirely in the 0.2 regime.
        assert!((pool.cpu_availability(HostId(0)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn last_value_uses_raw_measurement() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(100.0));
        let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(100.0))
            .with_source(ForecastSource::LastValue);
        assert!((pool.cpu_availability(HostId(0)) - 0.5).abs() < 1e-9);
    }

    /// Two hosts on one shared segment, every load fluctuating, so each
    /// forecast source gives a different answer.
    fn fluctuating_topo() -> Topology {
        let flapping = |mean_idle, mean_busy| LoadModel::MarkovOnOff {
            idle_avail: 0.9,
            busy_avail: 0.2,
            mean_idle: SimTime::from_secs(mean_idle),
            mean_busy: SimTime::from_secs(mean_busy),
        };
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::from_millis(2),
            flapping(90, 60),
        ));
        b.add_host(HostSpec::workstation(
            "a",
            100.0,
            64.0,
            seg,
            flapping(120, 120),
        ));
        b.add_host(HostSpec::workstation(
            "b",
            50.0,
            64.0,
            seg,
            flapping(300, 100),
        ));
        b.instantiate(s(100_000.0), 11).unwrap()
    }

    #[test]
    fn memoized_answers_match_the_direct_computation() {
        let topo = fluctuating_topo();
        assert_eq!((topo.hosts().len(), topo.links().len()), (2, 1));
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let now = s(20_000.0);
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, now);
        let window = s(600.0);
        let keys = [
            ResourceKey::Cpu(HostId(0)),
            ResourceKey::Cpu(HostId(1)),
            ResourceKey::Link(LinkId(0)),
        ];
        // Each source's answer computed straight from the weather
        // service or the realized load, with no pool in between.
        let direct = |source: ForecastSource, key: ResourceKey| {
            let series = match key {
                ResourceKey::Cpu(h) => topo.host(h).unwrap().availability(),
                ResourceKey::Link(l) => topo.link(l).unwrap().availability(),
            };
            match source {
                ForecastSource::StaticNominal => 1.0,
                ForecastSource::Oracle => series.mean(now, now + window),
                ForecastSource::LastValue => ws.current(key).unwrap().clamp(0.0, 1.0),
                ForecastSource::Nws => ws.forecast(key).unwrap().value,
            }
        };
        let query = |pool: &InfoPool<'_>, key: ResourceKey| match key {
            ResourceKey::Cpu(h) => pool.cpu_availability(h),
            ResourceKey::Link(l) => pool.link_availability(l),
        };

        let sources = [
            ForecastSource::Nws,
            ForecastSource::LastValue,
            ForecastSource::Oracle,
            ForecastSource::StaticNominal,
        ];
        // Latency plus payload over the route's bottleneck, walked link
        // by link with the directly computed availabilities.
        let direct_transfer = |source, a: HostId, b: HostId, mb: f64| {
            if a == b || mb <= 0.0 {
                return 0.0;
            }
            let mut bw = f64::INFINITY;
            for &l in topo.route(a, b).unwrap() {
                let avail = direct(source, ResourceKey::Link(l));
                bw = bw.min(topo.link(l).unwrap().spec.bandwidth_mbps * avail);
            }
            topo.route_latency(a, b).unwrap().as_secs_f64() + mb / bw
        };
        let hosts = [HostId(0), HostId(1)];

        for source in sources {
            let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, now).with_source(source);
            // The first query fills the memo, the second reads it.
            for _ in 0..2 {
                for key in keys {
                    let (got, want) = (query(&pool, key), direct(source, key));
                    assert_eq!(got.to_bits(), want.to_bits(), "{source:?} {key:?}");
                }
                for a in hosts {
                    for b in hosts {
                        for mb in [0.0, 0.25, 40.0] {
                            let got = pool.transfer_seconds(a, b, mb).unwrap();
                            let want = direct_transfer(source, a, b, mb);
                            assert_eq!(got.to_bits(), want.to_bits(), "{source:?} {a}->{b}");
                            if a != b && mb > 0.0 {
                                let composed = pool.route_latency(a, b).unwrap().as_secs_f64()
                                    + mb / pool.route_bandwidth(a, b).unwrap();
                                assert_eq!(got.to_bits(), composed.to_bits());
                            }
                        }
                    }
                }
            }
        }

        // A settings change after a query never serves the old answer.
        for key in keys {
            let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, now);
            let nws = query(&pool, key);
            let pool = pool.with_source(ForecastSource::Oracle);
            let oracle = query(&pool, key);
            assert_eq!(
                oracle.to_bits(),
                direct(ForecastSource::Oracle, key).to_bits()
            );
            assert_ne!(oracle, nws, "{key:?}: the oracle must differ from the NWS");
            let pool = pool.with_oracle_window(s(60.0));
            let series = match key {
                ResourceKey::Cpu(h) => topo.host(h).unwrap().availability(),
                ResourceKey::Link(l) => topo.link(l).unwrap().availability(),
            };
            assert_eq!(
                query(&pool, key).to_bits(),
                series.mean(now, now + s(60.0)).to_bits()
            );
        }

        // A route through a link with no capacity never completes, on
        // the query that fills the memo and on the one that reads it;
        // an unknown host stays an error.
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("a", 10.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("b", 10.0, SimTime::ZERO));
        let gw = b.add_link(LinkSpec::shared(
            "gw",
            5.0,
            SimTime::from_millis(3),
            LoadModel::Constant(0.0),
        ));
        b.add_route(sa, sb, vec![gw]).unwrap();
        b.add_host(HostSpec::dedicated("a0", 10.0, 64.0, sa));
        b.add_host(HostSpec::dedicated("b0", 10.0, 64.0, sb));
        let dead = b.instantiate(s(10_000.0), 0).unwrap();
        let pool =
            InfoPool::static_nominal(&dead, &hat, &user, now).with_source(ForecastSource::Oracle);
        for _ in 0..2 {
            for (a, b) in [(HostId(0), HostId(1)), (HostId(1), HostId(0))] {
                assert!(matches!(
                    pool.transfer_seconds(a, b, 1.0),
                    Err(SimError::NeverCompletes { .. })
                ));
                assert_eq!(pool.route_bandwidth(a, b).unwrap(), 0.0);
            }
            assert!(matches!(
                pool.transfer_seconds(HostId(0), HostId(9), 1.0),
                Err(SimError::UnknownHost(9))
            ));
            assert!(matches!(
                pool.transfer_seconds(HostId(9), HostId(0), 1.0),
                Err(SimError::UnknownHost(9))
            ));
        }
    }

    #[test]
    fn transfer_seconds_model() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        // 20 MB at 10 MB/s + 2 ms latency.
        let t = pool.transfer_seconds(HostId(0), HostId(1), 20.0).unwrap();
        assert!((t - 2.002).abs() < 1e-6);
        // Local transfer is free.
        assert_eq!(
            pool.transfer_seconds(HostId(0), HostId(0), 20.0).unwrap(),
            0.0
        );
    }

    #[test]
    fn unknown_host_errors() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert!(pool.effective_mflops(HostId(9)).is_err());
    }
}
