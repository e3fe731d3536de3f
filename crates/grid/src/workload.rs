//! Workload description: who arrives when, asking for what.
//!
//! A workload is an [`ArrivalProcess`] (when jobs show up) crossed with
//! a [`JobMix`] (what each arriving job is). Realizing a
//! [`WorkloadConfig`] is deterministic per seed, so the same job stream
//! can be replayed against different service policies — the paper's §5
//! "back-to-back under similar conditions" methodology, lifted from a
//! single application to a whole population.

use crate::service::GridError;
use apples::hat::{ArchEfficiency, Hat, PipelineTemplate};
use apples::user::UserSpec;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::nile::cleo_analysis_hat;
use metasim::SimTime;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// When jobs arrive, as offsets from the start of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_hz` jobs per second (exponential
    /// inter-arrival times) — the classic open-system model.
    Poisson {
        /// Mean arrival rate in jobs per second.
        rate_hz: f64,
    },
    /// One job every `gap`, starting at `gap` — a staged submission
    /// like the bench multi-agent experiment.
    Uniform {
        /// Fixed inter-arrival gap.
        gap: SimTime,
    },
}

impl ArrivalProcess {
    /// Reject parameters that would make [`ArrivalProcess::realize`]
    /// panic — the typed counterpart of its internal assertions, for
    /// input that arrives from a CLI or another service.
    pub fn validate(&self) -> Result<(), GridError> {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                if !(rate_hz.is_finite() && *rate_hz > 0.0) {
                    return Err(GridError::InvalidConfig(format!(
                        "Poisson arrival rate must be a positive finite number, got {rate_hz}"
                    )));
                }
            }
            ArrivalProcess::Uniform { gap } => {
                if *gap == SimTime::ZERO {
                    return Err(GridError::InvalidConfig(
                        "uniform arrivals need a positive gap".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Arrival offsets within `[0, duration]`, ascending (both arms
    /// generate them in order), deterministic per `seed`.
    pub fn realize(&self, duration: SimTime, seed: u64) -> Vec<SimTime> {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                // simlint: allow(panic-in-lib): the front doors (GridService::run, sweep_seeds, validate_config, run_race_with) reject non-positive and non-finite rates before any stream is realized
                assert!(
                    *rate_hz > 0.0 && rate_hz.is_finite(),
                    "Poisson arrivals need a positive rate"
                );
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA11E5_u64);
                // Accumulate in integer µs with one conversion per
                // draw. Summing f64 seconds and converting at the end
                // drifts: the float clock and the SimTime clock
                // disagree after enough draws, and the boundary test
                // below would use the wrong clock. `from_secs_f64`
                // rounds up, so every gap is at least 1 µs and the
                // loop always terminates.
                let mut t = SimTime::ZERO;
                let mut arrivals = Vec::new();
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let gap = SimTime::from_secs_f64(-u.ln() / rate_hz);
                    t = match t.checked_add(gap) {
                        Some(next) => next,
                        None => break,
                    };
                    // Inclusive bound, matching the Uniform arm: an
                    // arrival landing exactly at `duration` is kept.
                    if t > duration {
                        break;
                    }
                    arrivals.push(t);
                }
                arrivals
            }
            ArrivalProcess::Uniform { gap } => {
                // simlint: allow(panic-in-lib): ArrivalProcess::validate rejects non-positive gaps before any stream is realized
                assert!(*gap > SimTime::ZERO, "uniform arrivals need a positive gap");
                let mut arrivals = Vec::new();
                let mut t = *gap;
                while t <= duration {
                    arrivals.push(t);
                    t += *gap;
                }
                arrivals
            }
        }
    }
}

/// What an arriving job is: one of the paper's three application
/// classes, parameterized by size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A Jacobi2D stencil solve (§5): `n × n` grid, `iterations` sweeps.
    Jacobi {
        /// Grid edge length.
        n: usize,
        /// Number of sweeps.
        iterations: usize,
    },
    /// A producer→consumer pipeline in the 3D-REACT shape (§2.2),
    /// downsized from CASA supercomputers to the Figure 2 workstation
    /// pool: `units` surface-function batches streamed between two
    /// hosts.
    ReactPipeline {
        /// Total work units to stream.
        units: usize,
    },
    /// A NILE/CLEO event-analysis farm (§2.1): `events` independent
    /// records fanned out from a data home and collected back.
    NileFarm {
        /// Number of events to analyze.
        events: u64,
    },
}

impl JobKind {
    /// Short class name for records and tables.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Jacobi { .. } => "jacobi2d",
            JobKind::ReactPipeline { .. } => "react-pipe",
            JobKind::NileFarm { .. } => "nile-farm",
        }
    }

    /// The HAT and user spec an AppLeS agent for this job would carry.
    pub fn hat_and_user(&self) -> (Hat, UserSpec) {
        match *self {
            JobKind::Jacobi { n, iterations } => jacobi_context(n, iterations),
            JobKind::ReactPipeline { units } => {
                (workstation_pipeline_hat(units), UserSpec::default())
            }
            JobKind::NileFarm { events } => (cleo_analysis_hat(events), UserSpec::default()),
        }
    }
}

/// A 3D-REACT-shaped pipeline sized for the Figure 2 workstation pool
/// (the real CASA template assumes a C90 and a Paragon; 4–110 Mflop/s
/// workstations would take days on it). Producer-heavy, a modest
/// per-unit transfer, and no architecture-specific efficiencies.
pub fn workstation_pipeline_hat(units: usize) -> Hat {
    Hat::pipeline(
        "react-pipe-ws",
        PipelineTemplate {
            total_units: units,
            producer_mflop_per_unit: 120.0,
            consumer_mflop_per_unit: 60.0,
            mb_per_unit: 0.4,
            producer_resident_mb: 24.0,
            consumer_base_mb: 16.0,
            consumer_mb_per_buffered_unit: 0.4,
            convert_mflop_per_message: 5.0,
            producer_efficiency: ArchEfficiency {
                rules: vec![],
                default_efficiency: 1.0,
            },
            consumer_efficiency: ArchEfficiency {
                rules: vec![],
                default_efficiency: 1.0,
            },
        },
    )
}

/// A weighted mix of job kinds; each arrival samples one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// `(kind, weight)` entries; weights need not sum to one.
    pub entries: Vec<(JobKind, f64)>,
}

impl JobMix {
    /// A mix of a single kind.
    pub fn only(kind: JobKind) -> Self {
        JobMix {
            entries: vec![(kind, 1.0)],
        }
    }

    /// The default service mix: mostly small and medium Jacobi solves,
    /// with occasional long solves, pipelines and event farms — short
    /// jobs arriving among long ones is exactly the regime where
    /// application-level information pays (§3).
    pub fn default_mix() -> Self {
        JobMix {
            entries: vec![
                (
                    JobKind::Jacobi {
                        n: 800,
                        iterations: 60,
                    },
                    4.0,
                ),
                (
                    JobKind::Jacobi {
                        n: 1200,
                        iterations: 300,
                    },
                    2.0,
                ),
                (
                    JobKind::Jacobi {
                        n: 1200,
                        iterations: 1500,
                    },
                    1.0,
                ),
                (JobKind::ReactPipeline { units: 30 }, 1.0),
                (JobKind::NileFarm { events: 20_000 }, 1.0),
            ],
        }
    }

    /// Reject a mix [`JobMix::sample`] would panic on.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.entries.is_empty() {
            return Err(GridError::InvalidConfig("empty job mix".into()));
        }
        let total: f64 = self.entries.iter().map(|&(_, w)| w.max(0.0)).sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(GridError::InvalidConfig(
                "job mix weights must sum to a positive finite value".into(),
            ));
        }
        Ok(())
    }

    /// Sample one kind, deterministically from `rng`.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> JobKind {
        // simlint: allow(panic-in-lib): JobMix::validate rejects empty mixes before any stream is realized
        assert!(!self.entries.is_empty(), "empty job mix");
        let total: f64 = self.entries.iter().map(|&(_, w)| w.max(0.0)).sum();
        // simlint: allow(panic-in-lib): JobMix::validate rejects non-positive weight sums before any stream is realized
        assert!(total > 0.0, "job mix weights must sum to a positive value");
        let mut x = rng.gen_range(0.0..total);
        for &(kind, w) in &self.entries {
            let w = w.max(0.0);
            if x < w {
                return kind;
            }
            x -= w;
        }
        // simlint: allow(panic-in-lib): JobMix::validate rejects empty mixes before any stream is realized
        self.entries.last().unwrap().0
    }
}

/// One job in a realized stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Submission order index.
    pub id: usize,
    /// Submission time as an offset from the stream start.
    pub submit: SimTime,
    /// What the job is.
    pub kind: JobKind,
}

/// Bounded retry with exponential backoff, applied when a placement is
/// revoked mid-run (host crash) or no feasible resources exist at
/// decision time. The delay before attempt `k + 1` is
/// `base_backoff × factor^(k-1)`, capped at [`RetryPolicy::MAX_BACKOFF`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts a job may make, first try included (≥ 1). With
    /// `max_attempts = 1` a revoked job fails immediately — the blind
    /// baseline.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: SimTime,
    /// Multiplier applied to the delay on each subsequent retry.
    /// Values below 1.0 are treated as 1.0 so backoff never shrinks.
    pub factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimTime::from_secs(30),
            factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Ceiling on any single backoff delay: one hour.
    pub const MAX_BACKOFF: SimTime = SimTime::from_secs(3600);

    /// A policy allowing `max_attempts` total attempts with the default
    /// 30 s base delay doubling per retry.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Largest jitter [`RetryPolicy::backoff_jittered`] adds on top of
    /// the deterministic base delay, as a fraction of that delay.
    pub const MAX_JITTER: f64 = 0.25;

    /// Delay before the next attempt after `attempts` tries have
    /// already failed (`attempts ≥ 1`). Monotone non-decreasing in
    /// `attempts` and bounded by [`RetryPolicy::MAX_BACKOFF`].
    pub fn backoff(&self, attempts: u32) -> SimTime {
        let factor = if self.factor.is_finite() {
            self.factor.max(1.0)
        } else {
            1.0
        };
        let exp = attempts.saturating_sub(1).min(256) as i32;
        let secs = self.base_backoff.as_secs_f64() * factor.powi(exp);
        if !secs.is_finite() {
            return Self::MAX_BACKOFF;
        }
        SimTime::from_secs_f64(secs).min(Self::MAX_BACKOFF)
    }

    /// [`RetryPolicy::backoff`] plus seeded, deterministic jitter.
    ///
    /// Without jitter, every job revoked by the same host fault retries
    /// at the same instant — a deterministic thundering herd that the
    /// first decider then wins for no reason related to the schedule.
    /// The jittered delay is `base × (1 + MAX_JITTER × frac)` with
    /// `frac ∈ [0, 1)` hashed from `(salt, attempts)`, so the same
    /// `salt` (callers pass `stream_seed ^ job_id`) always reproduces
    /// the same schedule while distinct jobs decorrelate. Still bounded
    /// by [`RetryPolicy::MAX_BACKOFF`] and never below the base delay.
    pub fn backoff_jittered(&self, attempts: u32, salt: u64) -> SimTime {
        let base = self.backoff(attempts);
        if base >= Self::MAX_BACKOFF {
            return Self::MAX_BACKOFF;
        }
        let frac = jitter_fraction(salt, attempts);
        let secs = base.as_secs_f64() * (1.0 + Self::MAX_JITTER * frac);
        SimTime::from_secs_f64(secs)
            .min(Self::MAX_BACKOFF)
            .max(base)
    }

    /// Reject degenerate policies.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.max_attempts == 0 {
            return Err(GridError::InvalidConfig(
                "retry max_attempts must be at least 1".into(),
            ));
        }
        if !self.factor.is_finite() || self.factor < 0.0 {
            return Err(GridError::InvalidConfig(format!(
                "retry backoff factor must be finite and non-negative, got {}",
                self.factor
            )));
        }
        Ok(())
    }
}

/// Stateless splitmix64 finalizer over the `(salt, attempts)` pair,
/// mapped to `[0, 1)` with 53 bits of precision. Fully determined by
/// its inputs, so a same-seed replay reproduces the exact backoff
/// schedule — no RNG state is threaded through the retry path.
fn jitter_fraction(salt: u64, attempts: u32) -> f64 {
    let mut z = salt
        .wrapping_add(u64::from(attempts).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A complete workload description: arrivals × mix over a duration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// When jobs arrive.
    pub arrivals: ArrivalProcess,
    /// What each arrival asks for.
    pub mix: JobMix,
    /// Length of the submission window; arrivals beyond it are dropped
    /// (admitted jobs still run to completion).
    pub duration: SimTime,
    /// Seed for arrival times and mix sampling.
    pub seed: u64,
    /// How the service retries jobs whose placements are revoked.
    pub retry: RetryPolicy,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.02 },
            mix: JobMix::default_mix(),
            duration: SimTime::from_secs(3600),
            seed: 1996,
            retry: RetryPolicy::default(),
        }
    }
}

impl WorkloadConfig {
    /// Typed validation of every knob the CLI or a caller can set.
    /// A service that runs the workload also checks
    /// [`WorkloadConfig::validate_end`] against its warm-up.
    pub fn validate(&self) -> Result<(), GridError> {
        self.arrivals.validate()?;
        self.mix.validate()?;
        self.retry.validate()?;
        self.validate_duration()
    }

    /// Reject an empty submission window. A NaN or non-positive number
    /// of seconds reads as zero through [`SimTime::from_secs_f64`].
    pub fn validate_duration(&self) -> Result<(), GridError> {
        if self.duration == SimTime::ZERO {
            return Err(GridError::InvalidConfig(
                "workload duration must be a positive number of seconds".into(),
            ));
        }
        Ok(())
    }

    /// Reject a submission window that, opening after a service's
    /// `warmup`, would close at or past the end of simulated time.
    /// [`SimTime::from_secs_f64`] saturates an infinite or huge number
    /// of seconds to [`SimTime::MAX`]; realizing arrivals up to there
    /// would not end, and an arrival near it overflows once the
    /// warm-up is added.
    pub fn validate_end(&self, warmup: SimTime) -> Result<(), GridError> {
        match warmup.checked_add(self.duration) {
            Some(end) if end < SimTime::MAX => Ok(()),
            _ => Err(GridError::InvalidConfig(format!(
                "the {warmup} warm-up plus the {} duration ends past the end of simulated time",
                self.duration
            ))),
        }
    }

    /// Realize the workload into a concrete job stream, sorted by
    /// submission time. Deterministic: same config → same jobs.
    pub fn realize(&self) -> Vec<JobSpec> {
        let times = self.arrivals.realize(self.duration, self.seed);
        let mut mix_rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9B5E_u64);
        times
            .into_iter()
            .enumerate()
            .map(|(id, submit)| JobSpec {
                id,
                submit,
                kind: self.mix.sample(&mut mix_rng),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let p = ArrivalProcess::Poisson { rate_hz: 0.05 };
        let a = p.realize(s(10_000.0), 7);
        let b = p.realize(s(10_000.0), 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t <= s(10_000.0)));
        assert!(
            a.iter().all(|&t| t > SimTime::ZERO),
            "every gap rounds up to at least 1 µs, so no arrival lands at 0"
        );
        let c = p.realize(s(10_000.0), 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn poisson_boundary_is_inclusive_like_uniform() {
        // An arrival landing exactly on `duration` must be kept (the
        // Uniform arm keeps its `t == duration` arrival too). Realize
        // once over a long window, then truncate the window to an
        // arrival time: the arrival on the boundary survives.
        let p = ArrivalProcess::Poisson { rate_hz: 0.05 };
        let long = p.realize(s(10_000.0), 7);
        let boundary = long[long.len() / 2];
        let short = p.realize(boundary, 7);
        assert_eq!(
            short.last().copied(),
            Some(boundary),
            "arrival exactly at duration must be included"
        );
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        let p = ArrivalProcess::Poisson { rate_hz: 0.1 };
        let n = p.realize(s(100_000.0), 3).len() as f64;
        // Expect ~10 000 arrivals; 5% tolerance is generous.
        assert!((n - 10_000.0).abs() < 500.0, "got {n} arrivals");
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let u = ArrivalProcess::Uniform { gap: s(60.0) };
        let a = u.realize(s(300.0), 0);
        assert_eq!(a, vec![s(60.0), s(120.0), s(180.0), s(240.0), s(300.0)]);
    }

    #[test]
    fn mix_sampling_is_deterministic_and_covers_kinds() {
        let mix = JobMix::default_mix();
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        let xs: Vec<JobKind> = (0..200).map(|_| mix.sample(&mut a)).collect();
        let ys: Vec<JobKind> = (0..200).map(|_| mix.sample(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|k| matches!(k, JobKind::Jacobi { .. })));
        assert!(xs
            .iter()
            .any(|k| matches!(k, JobKind::ReactPipeline { .. })));
        assert!(xs.iter().any(|k| matches!(k, JobKind::NileFarm { .. })));
    }

    #[test]
    fn workload_realization_is_deterministic() {
        let cfg = WorkloadConfig::default();
        assert_eq!(cfg.realize(), cfg.realize());
        let other = WorkloadConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(cfg.realize(), other.realize());
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: s(30.0),
            factor: 2.0,
        };
        assert_eq!(p.backoff(1), s(30.0));
        assert_eq!(p.backoff(2), s(60.0));
        assert_eq!(p.backoff(3), s(120.0));
        let mut prev = SimTime::ZERO;
        for k in 1..100 {
            let b = p.backoff(k);
            assert!(b >= prev, "backoff must not shrink");
            assert!(b <= RetryPolicy::MAX_BACKOFF);
            prev = b;
        }
        assert_eq!(p.backoff(60), RetryPolicy::MAX_BACKOFF);
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_decorrelated() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: s(30.0),
            factor: 2.0,
        };
        for salt in [0u64, 1, 42, u64::MAX] {
            for k in 1..20 {
                let base = p.backoff(k);
                let j = p.backoff_jittered(k, salt);
                assert_eq!(j, p.backoff_jittered(k, salt), "same salt, same schedule");
                assert!(j >= base, "jitter never shrinks the base delay");
                assert!(j <= RetryPolicy::MAX_BACKOFF);
                let ceiling =
                    SimTime::from_secs_f64(base.as_secs_f64() * (1.0 + RetryPolicy::MAX_JITTER))
                        .min(RetryPolicy::MAX_BACKOFF);
                assert!(j <= ceiling, "jitter bounded by MAX_JITTER fraction");
            }
        }
        // Distinct salts (distinct jobs) must not all retry at the same
        // instant — that is the thundering herd the jitter breaks up.
        let delays: std::collections::BTreeSet<SimTime> =
            (0..16u64).map(|salt| p.backoff_jittered(1, salt)).collect();
        assert!(delays.len() > 1, "distinct salts should decorrelate");
        // At the cap there is no headroom left: jitter collapses to it.
        assert_eq!(p.backoff_jittered(60, 9), RetryPolicy::MAX_BACKOFF);
    }

    #[test]
    fn shrinking_factor_is_clamped_to_constant_backoff() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: s(10.0),
            factor: 0.5,
        };
        assert_eq!(p.backoff(1), s(10.0));
        assert_eq!(p.backoff(4), s(10.0));
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(WorkloadConfig::default().validate().is_ok());
        let bad_rate = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.0 },
            ..WorkloadConfig::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_gap = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform { gap: SimTime::ZERO },
            ..WorkloadConfig::default()
        };
        assert!(bad_gap.validate().is_err());
        let bad_mix = WorkloadConfig {
            mix: JobMix { entries: vec![] },
            ..WorkloadConfig::default()
        };
        assert!(bad_mix.validate().is_err());
        let bad_retry = WorkloadConfig {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..WorkloadConfig::default()
        };
        assert!(bad_retry.validate().is_err());
    }

    #[test]
    fn job_kinds_produce_matching_hats() {
        let (hat, _) = JobKind::Jacobi {
            n: 100,
            iterations: 5,
        }
        .hat_and_user();
        assert!(hat.as_stencil().is_some());
        let (hat, _) = JobKind::ReactPipeline { units: 10 }.hat_and_user();
        assert!(hat.as_pipeline().is_some());
        let (hat, _) = JobKind::NileFarm { events: 100 }.hat_and_user();
        assert!(hat.as_task_farm().is_some());
    }
}
