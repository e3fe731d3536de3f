//! The Weather Service facade.
//!
//! [`WeatherService`] owns one sensor and one [`AdaptiveSelector`] per
//! monitored resource. A simulation driver calls
//! [`WeatherService::advance`] as simulated time passes; the scheduler
//! calls [`WeatherService::forecast`] when it needs the predicted
//! availability of a CPU or link for the imminent scheduling window.

use crate::selector::AdaptiveSelector;
use crate::sensor::{CpuSensor, LinkSensor, Sensor};
use metasim::simtrace::{EventSink, NoopSink, TraceEvent};
use metasim::{HostId, LinkId, SimTime, Topology};
use std::collections::BTreeMap;

/// Identifies a monitored signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKey {
    /// CPU availability of a host.
    Cpu(HostId),
    /// Available-capacity fraction of a link.
    Link(LinkId),
}

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct WeatherServiceConfig {
    /// CPU sampling period.
    pub cpu_period: SimTime,
    /// Link sampling period.
    pub link_period: SimTime,
    /// Measurement-noise amplitude on CPU samples (uniform, clamped).
    pub cpu_noise: f64,
    /// Measurement-noise amplitude on link samples.
    pub link_noise: f64,
    /// Seed for the deterministic noise streams.
    pub noise_seed: u64,
}

impl Default for WeatherServiceConfig {
    fn default() -> Self {
        WeatherServiceConfig {
            cpu_period: SimTime::from_secs(5),
            link_period: SimTime::from_secs(5),
            cpu_noise: 0.0,
            link_noise: 0.0,
            noise_seed: 0,
        }
    }
}

/// A forecast with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// Predicted value for the imminent window.
    pub value: f64,
    /// Decayed mean absolute error of the predictor that produced it —
    /// a confidence signal (lower is better).
    pub error: f64,
    /// Name of the winning predictor.
    pub method: String,
}

#[derive(Clone)]
struct Monitored {
    sensor: Box<dyn Sensor>,
    selector: AdaptiveSelector,
    /// The latest sample, `(time, value)`.
    last: Option<(SimTime, f64)>,
}

/// Monitoring and forecasting for every resource in a topology.
///
/// ```
/// use metasim::host::HostSpec;
/// use metasim::load::LoadModel;
/// use metasim::net::{LinkSpec, TopologyBuilder};
/// use metasim::{HostId, SimTime};
/// use nws::{ResourceKey, WeatherService, WeatherServiceConfig};
///
/// let mut b = TopologyBuilder::new();
/// let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
/// b.add_host(HostSpec::workstation(
///     "ws", 20.0, 128.0, seg, LoadModel::Constant(0.5),
/// ));
/// let topo = b.instantiate(SimTime::from_secs(10_000), 0).unwrap();
///
/// let mut weather = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
/// weather.advance(&topo, SimTime::from_secs(300));
/// let f = weather.forecast(ResourceKey::Cpu(HostId(0))).unwrap();
/// assert!((f.value - 0.5).abs() < 1e-9);
/// ```
///
/// A clone is an exact fork: it carries every sensor's position in its
/// sample stream and every forecaster's state, so advancing the clone
/// over a topology gives, bit for bit, what advancing the original
/// would have.
#[derive(Clone)]
pub struct WeatherService {
    monitored: BTreeMap<ResourceKey, Monitored>,
    now: SimTime,
}

impl WeatherService {
    /// Build a service monitoring every host CPU and every link in the
    /// topology.
    pub fn for_topology(topo: &Topology, cfg: WeatherServiceConfig) -> Self {
        let mut monitored = BTreeMap::new();
        for host in topo.hosts() {
            monitored.insert(
                ResourceKey::Cpu(host.id),
                Monitored {
                    sensor: Box::new(CpuSensor::with_noise(
                        host.id,
                        cfg.cpu_period,
                        cfg.cpu_noise,
                        cfg.noise_seed,
                    )),
                    selector: AdaptiveSelector::new(),
                    last: None,
                },
            );
        }
        for link in topo.links() {
            monitored.insert(
                ResourceKey::Link(link.id),
                Monitored {
                    sensor: Box::new(LinkSensor::with_noise(
                        link.id,
                        cfg.link_period,
                        cfg.link_noise,
                        cfg.noise_seed,
                    )),
                    selector: AdaptiveSelector::new(),
                    last: None,
                },
            );
        }
        WeatherService {
            monitored,
            now: SimTime::ZERO,
        }
    }

    /// Advance monitoring to `now`: collect all due samples and feed
    /// the forecasters. Monotone in `now`; going backwards is a no-op
    /// for sensors that have already passed the requested time.
    pub fn advance(&mut self, topo: &Topology, now: SimTime) {
        self.advance_with_sink(topo, now, &mut NoopSink);
    }

    /// [`WeatherService::advance`], emitting one
    /// [`TraceEvent::ForecastIssued`] per resource that received at
    /// least one new sample: the prediction made *before* the new
    /// samples arrived, scored against the freshest observation — the
    /// forecast error the scheduler would have eaten had it decided
    /// just before this advance.
    pub fn advance_with_sink(&mut self, topo: &Topology, now: SimTime, sink: &mut dyn EventSink) {
        self.now = self.now.max(now);
        for (key, m) in self.monitored.iter_mut() {
            let predicted = if sink.enabled() {
                m.selector.forecast()
            } else {
                None
            };
            let mut last_observed = None;
            for (t, v) in m.sensor.poll(topo, now) {
                if let Some((last, _)) = m.last {
                    // simlint: allow(panic-in-lib): a sample not after the last one is a sensor logic bug that would corrupt every forecast
                    assert!(t > last, "measurement at {t:?} not after {last:?}");
                }
                m.last = Some((t, v));
                m.selector.update(v);
                last_observed = Some(v);
            }
            if sink.enabled() {
                if let (Some(predicted), Some(observed)) = (predicted, last_observed) {
                    let resource = match key {
                        ResourceKey::Cpu(h) => format!("cpu:{}", h.0),
                        ResourceKey::Link(l) => format!("link:{}", l.0),
                    };
                    sink.record(TraceEvent::ForecastIssued {
                        resource,
                        at: now,
                        predicted: predicted.clamp(0.0, 1.0),
                        observed,
                        error: m.selector.best_error().unwrap_or(f64::INFINITY),
                        method: m.selector.best_name().unwrap_or_default().into(),
                    });
                }
            }
        }
    }

    /// The time monitoring has advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The instant of the latest sample taken of any resource; `None`
    /// before the first. Samples fall on each sensor's period grid, so
    /// this is at or before [`WeatherService::now`]. A change to the
    /// topology that takes effect only after this instant leaves every
    /// sample the service holds as it was.
    pub fn last_sample_at(&self) -> Option<SimTime> {
        self.monitored
            .values()
            .filter_map(|m| m.last)
            .map(|(t, _)| t)
            .max()
    }

    /// Forecast the availability of a resource for the imminent window.
    pub fn forecast(&self, key: ResourceKey) -> Option<Forecast> {
        let m = self.monitored.get(&key)?;
        let value = m.selector.forecast()?;
        Some(Forecast {
            // Availability is a fraction; clamp model excursions.
            value: value.clamp(0.0, 1.0),
            error: m.selector.best_error().unwrap_or(f64::INFINITY),
            method: m.selector.best_name().unwrap_or_default().into(),
        })
    }

    /// The most recent measurement of a resource.
    pub fn current(&self, key: ResourceKey) -> Option<f64> {
        self.monitored
            .get(&key)
            .and_then(|m| m.last)
            .map(|(_, v)| v)
    }

    /// Keys of every monitored resource.
    pub fn keys(&self) -> impl Iterator<Item = ResourceKey> + '_ {
        self.monitored.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim::host::HostSpec;
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::ZERO,
            LoadModel::Constant(0.7),
        ));
        b.add_host(HostSpec::workstation(
            "a",
            10.0,
            64.0,
            seg,
            LoadModel::Constant(0.5),
        ));
        b.add_host(HostSpec::workstation(
            "b",
            20.0,
            64.0,
            seg,
            LoadModel::Constant(0.9),
        ));
        b.instantiate(s(10_000.0), 0).unwrap()
    }

    #[test]
    fn monitors_all_hosts_and_links() {
        let topo = topo();
        let ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let keys: Vec<ResourceKey> = ws.keys().collect();
        assert_eq!(keys.len(), 3); // 2 CPUs + 1 link
    }

    #[test]
    fn forecast_converges_to_constant_availability() {
        let topo = topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(500.0));
        let f = ws.forecast(ResourceKey::Cpu(HostId(0))).unwrap();
        assert!((f.value - 0.5).abs() < 1e-9);
        assert!(f.error < 1e-9);
        let fl = ws.forecast(ResourceKey::Link(LinkId(0))).unwrap();
        assert!((fl.value - 0.7).abs() < 1e-9);
    }

    #[test]
    fn no_forecast_before_any_samples() {
        let topo = topo();
        let ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        assert!(ws.forecast(ResourceKey::Cpu(HostId(0))).is_none());
    }

    #[test]
    fn unknown_key_yields_none() {
        let topo = topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(100.0));
        assert!(ws.forecast(ResourceKey::Cpu(HostId(42))).is_none());
        assert!(ws.current(ResourceKey::Link(LinkId(9))).is_none());
    }

    #[test]
    fn advance_is_incremental() {
        let topo = topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(50.0));
        assert_eq!(ws.last_sample_at(), Some(s(50.0)));
        ws.advance(&topo, s(100.0));
        assert_eq!(ws.last_sample_at(), Some(s(100.0)));
        // Re-advancing to an earlier time adds nothing.
        let before = ws.monitored[&ResourceKey::Cpu(HostId(0))]
            .selector
            .samples_seen();
        ws.advance(&topo, s(80.0));
        let after = ws.monitored[&ResourceKey::Cpu(HostId(0))]
            .selector
            .samples_seen();
        assert_eq!((before, after), (21, 21));
        assert_eq!(ws.now(), s(100.0));
    }

    #[test]
    fn current_reports_latest_measurement() {
        let topo = topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(100.0));
        assert_eq!(ws.current(ResourceKey::Cpu(HostId(1))), Some(0.9));
    }

    #[test]
    fn forecasts_cover_every_resource() {
        let topo = topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(200.0));
        assert_eq!(ws.keys().count(), 3); // 2 CPUs + 1 link
        for key in ws.keys() {
            let f = ws.forecast(key).expect("a forecast per resource");
            assert!(!f.method.is_empty());
            let err = f.error;
            assert!(err < 1e-6, "constant signals should be nailed, err {err}");
        }
    }

    #[test]
    fn advance_with_sink_scores_forecasts_against_observations() {
        use metasim::simtrace::VecSink;
        let topo = topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        let mut sink = VecSink::new();
        // First advance: no prior forecast exists, so nothing is scored.
        ws.advance_with_sink(&topo, s(100.0), &mut sink);
        assert!(sink.events.is_empty());
        // Second advance: one event per monitored resource.
        ws.advance_with_sink(&topo, s(200.0), &mut sink);
        assert_eq!(sink.events.len(), 3); // 2 CPUs + 1 link
        for e in &sink.events {
            match e {
                TraceEvent::ForecastIssued {
                    resource,
                    predicted,
                    observed,
                    error,
                    method,
                    ..
                } => {
                    assert!(resource.starts_with("cpu:") || resource.starts_with("link:"));
                    // Constant signals: prediction nails the observation.
                    assert!((predicted - observed).abs() < 1e-9);
                    assert!(*error < 1e-6);
                    assert!(!method.is_empty());
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    fn markov(idle: f64, busy: f64, mean_s: u64) -> LoadModel {
        LoadModel::MarkovOnOff {
            idle_avail: idle,
            busy_avail: busy,
            mean_idle: SimTime::from_secs(mean_s),
            mean_busy: SimTime::from_secs(mean_s),
        }
    }

    /// Two hosts on one shared link, every signal flapping.
    fn fluctuating_topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::ZERO,
            markov(0.95, 0.3, 90),
        ));
        b.add_host(HostSpec::workstation(
            "a",
            10.0,
            64.0,
            seg,
            markov(0.9, 0.2, 60),
        ));
        b.add_host(HostSpec::workstation(
            "b",
            20.0,
            64.0,
            seg,
            markov(0.8, 0.1, 200),
        ));
        b.instantiate(s(20_000.0), 5).unwrap()
    }

    fn forecast_bits(f: Option<Forecast>) -> Option<(u64, u64, String)> {
        f.map(|f| (f.value.to_bits(), f.error.to_bits(), f.method))
    }

    #[test]
    fn a_clone_continues_exactly_as_a_fresh_replay() {
        use metasim::simtrace::VecSink;
        let topo = fluctuating_topo();
        let cfg = WeatherServiceConfig {
            cpu_noise: 0.05,
            link_noise: 0.03,
            noise_seed: 11,
            ..WeatherServiceConfig::default()
        };
        let (t1, t2) = (s(3_001.0), s(9_002.5));
        let mut base = WeatherService::for_topology(&topo, cfg);
        base.advance(&topo, t1);
        let mut clone = base.clone();

        // Re-advancing a clone to where it stands polls nothing, so no
        // forecast is scored.
        let mut sink = VecSink::new();
        clone.advance_with_sink(&topo, clone.now(), &mut sink);
        assert!(sink.events.is_empty(), "{:?}", sink.events);

        clone.advance(&topo, t2);
        // An independent service advanced in 5 s steps, recording the
        // range each signal spans.
        let mut fresh = WeatherService::for_topology(&topo, cfg);
        let mut range = BTreeMap::new();
        let mut t = SimTime::ZERO;
        while t < t2 {
            t = (t + s(5.0)).min(t2);
            fresh.advance(&topo, t);
            for key in fresh.keys() {
                if let Some(v) = fresh.current(key) {
                    let (lo, hi) = range.entry(key).or_insert((1.0f64, 0.0f64));
                    (*lo, *hi) = (lo.min(v), hi.max(v));
                }
            }
        }
        assert_eq!(base.now(), t1, "advancing the clone moved the original");
        assert_eq!(clone.now(), fresh.now());
        assert_eq!(clone.last_sample_at(), fresh.last_sample_at());

        let keys: Vec<ResourceKey> = fresh.keys().collect();
        assert_eq!(clone.keys().collect::<Vec<_>>(), keys);
        assert_eq!(keys.len(), 3);
        for key in keys {
            assert_eq!(
                forecast_bits(clone.forecast(key)),
                forecast_bits(fresh.forecast(key)),
                "{key:?} forecast"
            );
            assert_eq!(
                clone.current(key).map(f64::to_bits),
                fresh.current(key).map(f64::to_bits),
                "{key:?} current"
            );
            let (lo, hi) = range[&key];
            assert!(hi - lo > 0.3, "{key:?} barely fluctuates: [{lo}, {hi}]");
        }
    }

    #[test]
    fn last_sample_at_is_the_latest_polled_instant() {
        let topo = fluctuating_topo();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        assert_eq!(ws.last_sample_at(), None);
        ws.advance(&topo, s(102.0));
        assert_eq!(ws.last_sample_at(), Some(s(100.0)));

        // Off the default grid: CPUs every 7 s (last at 98 s), the link
        // every 13 s (last at 91 s).
        let cfg = WeatherServiceConfig {
            cpu_period: s(7.0),
            link_period: s(13.0),
            ..WeatherServiceConfig::default()
        };
        let mut ws = WeatherService::for_topology(&topo, cfg);
        ws.advance(&topo, s(100.0));
        assert_eq!(ws.now(), s(100.0));
        assert_eq!(ws.last_sample_at(), Some(s(98.0)));
        let link = &ws.monitored[&ResourceKey::Link(LinkId(0))];
        assert_eq!(link.last.map(|(t, _)| t), Some(s(91.0)));
    }

    #[test]
    fn tracking_a_changing_signal() {
        // Host availability drops at t=500; forecasts taken after the
        // drop should reflect it.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::workstation(
            "a",
            10.0,
            64.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 0.9), (s(500.0), 0.2)]),
        ));
        let topo = b.instantiate(s(10_000.0), 0).unwrap();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(450.0));
        let before = ws.forecast(ResourceKey::Cpu(HostId(0))).unwrap().value;
        ws.advance(&topo, s(1500.0));
        let after = ws.forecast(ResourceKey::Cpu(HostId(0))).unwrap().value;
        assert!((before - 0.9).abs() < 0.05, "before drop: {before}");
        assert!((after - 0.2).abs() < 0.1, "after drop: {after}");
    }
}
