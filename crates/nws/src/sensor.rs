//! Sensors: periodic measurement of simulated resources.
//!
//! A sensor samples the *realized* availability process of a host CPU
//! or network link at a fixed period. Crucially, a sensor only ever
//! observes the past: [`Sensor::poll`] returns the samples that fall at
//! or before the supplied current time, and never looks ahead. The
//! forecasting layer therefore works exactly as it would against live
//! instrumentation.
//!
//! Real probes are noisy — a CPU sensor reads a load average mid-decay,
//! a bandwidth probe rides one TCP connection's luck — so sensors
//! accept an optional measurement-noise level: each sample is
//! perturbed by a deterministic, seed-derived uniform error and clamped
//! back to `[0, 1]`. Forecasters never see the clean signal, exactly as
//! in a live deployment.

use metasim::{HostId, LinkId, SimTime, Topology};

/// Deterministic per-sample noise in `[-amplitude, +amplitude]`,
/// derived from the seed and the sample time (so re-polling the same
/// instant reproduces the same reading).
fn sample_noise(seed: u64, t: SimTime, amplitude: f64) -> f64 {
    if amplitude <= 0.0 {
        return 0.0;
    }
    // SplitMix64 over (seed, time) — cheap, stateless, reproducible.
    let mut z = seed ^ t.as_micros().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    (unit * 2.0 - 1.0) * amplitude
}

/// A periodic sampler of one scalar signal on the simulated system.
/// Sensors are [`Clone`] (through [`SensorClone`]), so a boxed sensor
/// can be forked together with its position in the sample stream.
pub trait Sensor: Send + SensorClone {
    /// Collect all samples due at or before `now`, in time order.
    /// Subsequent calls resume where the previous call stopped.
    fn poll(&mut self, topo: &Topology, now: SimTime) -> Vec<(SimTime, f64)>;

    /// The sampling period.
    fn period(&self) -> SimTime;
}

/// Boxed cloning for [`Sensor`], blanket-implemented for every `Clone`
/// sensor so `Box<dyn Sensor>` is `Clone`.
pub trait SensorClone {
    /// A boxed copy of `self`, sampling position included.
    fn clone_box(&self) -> Box<dyn Sensor>;
}

impl<T: Sensor + Clone + 'static> SensorClone for T {
    fn clone_box(&self) -> Box<dyn Sensor> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Sensor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Samples a host's CPU availability fraction.
#[derive(Debug, Clone)]
pub struct CpuSensor {
    host: HostId,
    period: SimTime,
    next: SimTime,
    noise: f64,
    noise_seed: u64,
}

impl CpuSensor {
    /// A noise-free sensor for `host` sampling every `period`.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(host: HostId, period: SimTime) -> Self {
        Self::with_noise(host, period, 0.0, 0)
    }

    /// A sensor whose samples carry uniform measurement error in
    /// `[-noise, +noise]`, clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `period` is zero or `noise` is negative.
    pub fn with_noise(host: HostId, period: SimTime, noise: f64, noise_seed: u64) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(period > SimTime::ZERO, "sensor period must be positive");
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(noise >= 0.0, "noise amplitude must be non-negative");
        CpuSensor {
            host,
            period,
            next: SimTime::ZERO,
            noise,
            noise_seed: noise_seed ^ (host.0 as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        }
    }

    /// The host being observed.
    pub fn host(&self) -> HostId {
        self.host
    }
}

impl Sensor for CpuSensor {
    fn poll(&mut self, topo: &Topology, now: SimTime) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let host = match topo.host(self.host) {
            Ok(h) => h,
            Err(_) => return out,
        };
        while self.next <= now {
            let clean = host.availability().value_at(self.next);
            let v = (clean + sample_noise(self.noise_seed, self.next, self.noise)).clamp(0.0, 1.0);
            out.push((self.next, v));
            self.next += self.period;
        }
        out
    }

    fn period(&self) -> SimTime {
        self.period
    }
}

/// Samples a link's available-capacity fraction.
#[derive(Debug, Clone)]
pub struct LinkSensor {
    link: LinkId,
    period: SimTime,
    next: SimTime,
    noise: f64,
    noise_seed: u64,
}

impl LinkSensor {
    /// A noise-free sensor for `link` sampling every `period`.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(link: LinkId, period: SimTime) -> Self {
        Self::with_noise(link, period, 0.0, 0)
    }

    /// A sensor whose samples carry uniform measurement error in
    /// `[-noise, +noise]`, clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `period` is zero or `noise` is negative.
    pub fn with_noise(link: LinkId, period: SimTime, noise: f64, noise_seed: u64) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(period > SimTime::ZERO, "sensor period must be positive");
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(noise >= 0.0, "noise amplitude must be non-negative");
        LinkSensor {
            link,
            period,
            next: SimTime::ZERO,
            noise,
            noise_seed: noise_seed ^ (link.0 as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        }
    }

    /// The link being observed.
    pub fn link(&self) -> LinkId {
        self.link
    }
}

impl Sensor for LinkSensor {
    fn poll(&mut self, topo: &Topology, now: SimTime) -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let link = match topo.link(self.link) {
            Ok(l) => l,
            Err(_) => return out,
        };
        while self.next <= now {
            let clean = link.availability().value_at(self.next);
            let v = (clean + sample_noise(self.noise_seed, self.next, self.noise)).clamp(0.0, 1.0);
            out.push((self.next, v));
            self.next += self.period;
        }
        out
    }

    fn period(&self) -> SimTime {
        self.period
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
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(10.0), 0.4)]),
        ));
        b.add_host(HostSpec::workstation(
            "ws",
            10.0,
            64.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 0.8), (s(5.0), 0.2)]),
        ));
        b.instantiate(s(1000.0), 0).unwrap()
    }

    #[test]
    fn cpu_sensor_samples_true_availability() {
        let topo = topo();
        let mut sensor = CpuSensor::new(HostId(0), s(2.0));
        let samples = sensor.poll(&topo, s(8.0));
        // t = 0, 2, 4 see 0.8; t = 6, 8 see 0.2.
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0], (s(0.0), 0.8));
        assert_eq!(samples[2], (s(4.0), 0.8));
        assert_eq!(samples[3], (s(6.0), 0.2));
    }

    #[test]
    fn poll_is_incremental() {
        let topo = topo();
        let mut sensor = CpuSensor::new(HostId(0), s(2.0));
        let first = sensor.poll(&topo, s(4.0));
        assert_eq!(first.len(), 3); // 0, 2, 4
        let second = sensor.poll(&topo, s(8.0));
        assert_eq!(second.len(), 2); // 6, 8
        assert_eq!(second[0].0, s(6.0));
        // No overlap.
        assert!(first.iter().all(|(t, _)| *t <= s(4.0)));
        assert!(second.iter().all(|(t, _)| *t > s(4.0)));
    }

    #[test]
    fn poll_never_sees_the_future() {
        let topo = topo();
        let mut sensor = CpuSensor::new(HostId(0), s(3.0));
        for (t, _) in sensor.poll(&topo, s(100.0)) {
            assert!(t <= s(100.0));
        }
    }

    #[test]
    fn link_sensor_tracks_link_load() {
        let topo = topo();
        let mut sensor = LinkSensor::new(LinkId(0), s(5.0));
        let samples = sensor.poll(&topo, s(15.0));
        // t = 0, 5 see 1.0; t = 10, 15 see 0.4.
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[1].1, 1.0);
        assert_eq!(samples[2].1, 0.4);
    }

    #[test]
    fn noisy_sensor_perturbs_within_amplitude() {
        let topo = topo();
        let mut clean = CpuSensor::new(HostId(0), s(1.0));
        let mut noisy = CpuSensor::with_noise(HostId(0), s(1.0), 0.1, 42);
        let a = clean.poll(&topo, s(4.0));
        let b = noisy.poll(&topo, s(4.0));
        let mut any_different = false;
        for ((_, cv), (_, nv)) in a.iter().zip(&b) {
            assert!((cv - nv).abs() <= 0.1 + 1e-12, "noise exceeded amplitude");
            assert!((0.0..=1.0).contains(nv));
            if (cv - nv).abs() > 1e-12 {
                any_different = true;
            }
        }
        assert!(any_different, "noise had no effect at all");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let topo = topo();
        let mut a = CpuSensor::with_noise(HostId(0), s(1.0), 0.1, 42);
        let mut b = CpuSensor::with_noise(HostId(0), s(1.0), 0.1, 42);
        assert_eq!(a.poll(&topo, s(10.0)), b.poll(&topo, s(10.0)));
        let mut c = CpuSensor::with_noise(HostId(0), s(1.0), 0.1, 43);
        assert_ne!(
            a.poll(&topo, s(20.0)),
            c.poll(&topo, s(20.0)).split_off(11),
            "different windows trivially differ"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_rejected() {
        CpuSensor::with_noise(HostId(0), s(1.0), -0.1, 0);
    }

    #[test]
    fn unknown_resource_yields_no_samples() {
        let topo = topo();
        let mut sensor = CpuSensor::new(HostId(99), s(1.0));
        assert!(sensor.poll(&topo, s(10.0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        CpuSensor::new(HostId(0), SimTime::ZERO);
    }
}
