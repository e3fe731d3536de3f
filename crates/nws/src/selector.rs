//! Dynamic predictor selection — the NWS "forecaster of forecasters".
//!
//! Every predictor in the battery runs on the full measurement stream.
//! When a new measurement arrives, each predictor's *previous* forecast
//! is scored against it (a postcast). Each member keeps an
//! exponentially decayed sum of its absolute postcast errors, and the
//! lowest sum decides which predictor answers live forecast queries.
//! Different predictors win on different signal regimes — last-value on
//! random walks, long means on stationary noise, medians on bursty
//! spikes — and selection tracks the regime automatically.
//!
//! The reported error ([`AdaptiveSelector::best_error`]) is that sum
//! divided by its decayed weight `Σ_{k<n} 0.995^k` over the member's `n`
//! scored postcasts. The weight is a running sum updated with each
//! postcast, so a query costs O(1) however long the history is.

use crate::forecast::{Battery, MEMBERS, NAMES};

/// Exponential decay applied to accumulated errors so the selector can
/// abandon a predictor whose regime has passed.
const ERROR_DECAY: f64 = 0.995;

/// `ERROR_DECAY^k`, the weight of the `k`-th scored postcast. The
/// exponent saturates at `i32::MAX`, where the weight has long been
/// `0.0`, instead of wrapping negative past 2³¹ postcasts.
fn decay_weight(k: u64) -> f64 {
    ERROR_DECAY.powi(i32::try_from(k).unwrap_or(i32::MAX))
}

/// The standard [`Battery`] with postcast-error-driven selection.
///
/// ```
/// use nws::AdaptiveSelector;
///
/// let mut s = AdaptiveSelector::new();
/// // Alternating noise around 0.5: a mean-style predictor wins.
/// for i in 0..200 {
///     s.update(if i % 2 == 0 { 0.4 } else { 0.6 });
/// }
/// let f = s.forecast().unwrap();
/// assert!((f - 0.5).abs() < 0.11);
/// ```
///
/// A clone is an exact fork: it continues, bit for bit, as the original
/// would.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveSelector {
    battery: Battery,
    /// Decayed sum of absolute errors per member.
    err: [f64; MEMBERS],
    /// Decayed weight behind each `err`: `Σ_{k<scored} ERROR_DECAY^k`,
    /// kept as a running sum so [`AdaptiveSelector::best_error`] is O(1).
    /// Every member forecasts from the first sample on, so every member
    /// has been scored as often and shares it.
    weight: f64,
    /// Number of postcasts scored, the same for every member.
    scored: u64,
}

impl AdaptiveSelector {
    /// A selector over the standard NWS-style battery.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed a new measurement: score everyone's pending forecast, then
    /// update everyone.
    pub fn update(&mut self, value: f64) {
        if let Some(pending) = self.battery.forecasts() {
            for (e, p) in self.err.iter_mut().zip(pending) {
                *e = *e * ERROR_DECAY + (p - value).abs();
            }
            self.weight += decay_weight(self.scored);
            self.scored += 1;
        }
        self.battery.update(value);
    }

    /// Index of the member with the lowest decayed error, the first on
    /// a tie (so the first member before any postcast is scored); `None`
    /// until the battery can forecast.
    fn best_index(&self) -> Option<usize> {
        self.battery.forecasts()?;
        (0..MEMBERS).min_by(|&a, &b| self.err[a].total_cmp(&self.err[b]))
    }

    /// Forecast the next measurement using the best member so far.
    pub fn forecast(&self) -> Option<f64> {
        let forecasts = self.battery.forecasts()?;
        self.best_index().map(|i| forecasts[i])
    }

    /// Every member's forecast of the next measurement, in
    /// [`crate::forecast::NAMES`] order; `None` before the first sample.
    pub fn member_forecasts(&self) -> Option<&[f64; MEMBERS]> {
        self.battery.forecasts()
    }

    /// Name of the member currently answering forecasts.
    pub fn best_name(&self) -> Option<&'static str> {
        self.best_index().map(|i| NAMES[i])
    }

    /// Decayed mean absolute error of the winning member (a confidence
    /// signal callers can use to discount the forecast).
    pub fn best_error(&self) -> Option<f64> {
        self.best_index().map(|i| {
            if self.scored == 0 {
                f64::INFINITY
            } else {
                // Normalize the decayed sum by its decayed weight.
                self.err[i] / self.weight
            }
        })
    }

    /// Number of measurements consumed.
    pub fn samples_seen(&self) -> u64 {
        self.battery.samples()
    }

    /// Discard all history.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecasts_after_first_sample() {
        let mut s = AdaptiveSelector::new();
        assert_eq!(s.forecast(), None);
        assert_eq!(s.best_name(), None);
        s.update(0.6);
        assert_eq!(s.forecast(), Some(0.6));
        assert_eq!(s.best_name(), Some("last_value"));
        assert_eq!(s.best_error(), Some(f64::INFINITY));
        assert_eq!(s.samples_seen(), 1);
    }

    #[test]
    fn selects_a_trend_follower_on_a_ramp() {
        let mut s = AdaptiveSelector::new();
        for i in 0..200 {
            s.update(f64::from(i) * 0.01);
        }
        let best = s.best_name().unwrap();
        assert!(
            ["linear_trend(12)", "ar(2,64)"].contains(&best),
            "{best} won a ramp"
        );
    }

    /// Uncorrelated noise in `[0.4, 0.6)` around a fixed level.
    fn noise(i: u32) -> f64 {
        // SplitMix64's finalizer.
        let mut z = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        0.4 + 0.2 * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn selects_a_long_mean_on_level_noise() {
        let mut s = AdaptiveSelector::new();
        for i in 0..400 {
            s.update(noise(i));
        }
        let best = s.best_name().unwrap();
        assert!(
            ["running_mean", "sw_mean(64)", "adaptive_mean(4,8,16,32,64)"].contains(&best),
            "{best} won level noise"
        );
    }

    #[test]
    fn adapts_when_the_regime_changes() {
        let mut s = AdaptiveSelector::new();
        for i in 0..400 {
            s.update(noise(i));
        }
        // A steady ramp: the means lag it, the trend followers are exact.
        for i in 0..600 {
            s.update(0.05 + f64::from(i) * 1e-3);
        }
        let best = s.best_name().unwrap();
        assert!(
            ["linear_trend(12)", "ar(2,64)"].contains(&best),
            "{best} won the ramp"
        );
    }

    #[test]
    fn full_battery_tracks_constant_signal_exactly() {
        let mut s = AdaptiveSelector::new();
        for _ in 0..100 {
            s.update(0.42);
        }
        let p = s.forecast().unwrap();
        assert!((p - 0.42).abs() < 1e-9);
        assert!(s.best_error().unwrap() < 1e-9);
    }

    /// `best_error` as it was computed before the running weight: the
    /// decay normalizer rebuilt from scratch on every call.
    fn summed_best_error(s: &AdaptiveSelector) -> Option<f64> {
        s.best_index().map(|i| {
            if s.scored == 0 {
                f64::INFINITY
            } else {
                let w: f64 = (0..s.scored).map(|k| ERROR_DECAY.powi(k as i32)).sum();
                s.err[i] / w
            }
        })
    }

    #[test]
    fn running_weight_matches_the_summed_normalizer_bit_for_bit() {
        let mut s = AdaptiveSelector::new();
        let same = |s: &AdaptiveSelector| {
            let (fast, slow) = (s.best_error(), summed_best_error(s));
            assert_eq!(
                fast.map(f64::to_bits),
                slow.map(f64::to_bits),
                "{fast:?} vs {slow:?}"
            );
        };
        // A drifting, noisy, occasionally spiking signal, so the winning
        // member changes along the way.
        let signal = |i: u64| {
            let noise = (i.wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0;
            let level = 0.5 + 0.4 * (i as f64 / 700.0).sin();
            let spike = if i.is_multiple_of(97) { -0.3 } else { 0.0 };
            (level + 0.1 * noise + spike).clamp(0.0, 1.0)
        };
        same(&s);
        for i in 0..5_000 {
            s.update(signal(i));
            same(&s);
        }
        s.reset();
        same(&s);
        for i in 0..1_500 {
            s.update(signal(i * 7 + 3));
            same(&s);
        }
    }

    #[test]
    fn decay_weight_saturates_instead_of_wrapping() {
        assert_eq!(decay_weight(0), 1.0);
        assert_eq!(decay_weight(7).to_bits(), ERROR_DECAY.powi(7).to_bits());
        // `as i32` would wrap 2^31 to i32::MIN and 2^32 - 1 to -1: an
        // infinite weight and one above 1.
        assert_eq!(decay_weight(1 << 31), 0.0);
        assert_eq!(decay_weight(u64::from(u32::MAX)), 0.0);

        let mut s = AdaptiveSelector::new();
        for v in [0.5, 0.4, 0.7] {
            s.update(v);
        }
        s.scored = 1 << 31;
        let before = s.weight;
        s.update(0.6);
        assert_eq!(s.weight, before);
        assert!(s.best_error().is_some_and(f64::is_finite));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut s = AdaptiveSelector::new();
        for _ in 0..10 {
            s.update(0.9);
        }
        s.reset();
        assert_eq!(s.forecast(), None);
        assert_eq!(s.samples_seen(), 0);
    }
}
