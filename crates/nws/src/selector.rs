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

use crate::forecast::{standard_suite, Forecaster};

/// Exponential decay applied to accumulated errors so the selector can
/// abandon a predictor whose regime has passed.
const ERROR_DECAY: f64 = 0.995;

/// `ERROR_DECAY^k`, the weight of the `k`-th scored postcast. The
/// exponent saturates at `i32::MAX`, where the weight has long been
/// `0.0`, instead of wrapping negative past 2³¹ postcasts.
fn decay_weight(k: u64) -> f64 {
    ERROR_DECAY.powi(i32::try_from(k).unwrap_or(i32::MAX))
}

/// A battery of forecasters with postcast-error-driven selection.
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
#[derive(Clone)]
pub struct AdaptiveSelector {
    members: Vec<Box<dyn Forecaster>>,
    /// Decayed sum of absolute errors per member.
    err: Vec<f64>,
    /// Decayed weight behind each `err`: `Σ_{k<scored} ERROR_DECAY^k`,
    /// kept as a running sum so [`AdaptiveSelector::best_error`] is O(1).
    weight: Vec<f64>,
    /// Number of scored postcasts per member.
    scored: Vec<u64>,
    samples_seen: u64,
}

impl Default for AdaptiveSelector {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveSelector {
    /// A selector over the standard NWS-style battery.
    pub fn new() -> Self {
        Self::with_members(standard_suite())
    }

    /// A selector over a caller-supplied battery.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn with_members(members: Vec<Box<dyn Forecaster>>) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(!members.is_empty(), "selector needs at least one member");
        let n = members.len();
        AdaptiveSelector {
            members,
            err: vec![0.0; n],
            weight: vec![0.0; n],
            scored: vec![0; n],
            samples_seen: 0,
        }
    }

    /// Feed a new measurement: score everyone's pending forecast, then
    /// update everyone.
    pub fn update(&mut self, value: f64) {
        // Members that started forecasting together share one scored
        // count, so the decay term is computed once per distinct count
        // rather than once per member.
        let mut term: Option<(u64, f64)> = None;
        for (i, m) in self.members.iter().enumerate() {
            if let Some(p) = m.forecast() {
                let k = self.scored[i];
                let w = match term {
                    Some((tk, w)) if tk == k => w,
                    _ => term.insert((k, decay_weight(k))).1,
                };
                self.err[i] = self.err[i] * ERROR_DECAY + (p - value).abs();
                self.weight[i] += w;
                self.scored[i] += 1;
            }
        }
        for m in &mut self.members {
            m.update(value);
        }
        self.samples_seen += 1;
    }

    /// Index of the member with the lowest decayed error. Members that
    /// have never been scored rank last.
    fn best_index(&self) -> Option<usize> {
        (0..self.members.len())
            .filter(|&i| self.scored[i] > 0)
            .min_by(|&a, &b| self.err[a].total_cmp(&self.err[b]))
            .or_else(|| {
                // Nothing scored yet: any member that can forecast.
                (0..self.members.len()).find(|&i| self.members[i].forecast().is_some())
            })
    }

    /// Forecast the next measurement using the best member so far.
    pub fn forecast(&self) -> Option<f64> {
        self.best_index().and_then(|i| self.members[i].forecast())
    }

    /// Name of the member currently answering forecasts.
    pub fn best_name(&self) -> Option<String> {
        self.best_index().map(|i| self.members[i].name())
    }

    /// Decayed mean absolute error of the winning member (a confidence
    /// signal callers can use to discount the forecast).
    pub fn best_error(&self) -> Option<f64> {
        self.best_index().map(|i| {
            if self.scored[i] == 0 {
                f64::INFINITY
            } else {
                // Normalize the decayed sum by its decayed weight.
                self.err[i] / self.weight[i]
            }
        })
    }

    /// Number of measurements consumed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Discard all history.
    pub fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
        self.err.iter_mut().for_each(|e| *e = 0.0);
        self.weight.iter_mut().for_each(|w| *w = 0.0);
        self.scored.iter_mut().for_each(|s| *s = 0);
        self.samples_seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::{LastValue, RunningMean};

    #[test]
    fn empty_selector_rejected() {
        let r = std::panic::catch_unwind(|| AdaptiveSelector::with_members(vec![]));
        assert!(r.is_err());
    }

    #[test]
    fn forecasts_after_first_sample() {
        let mut s = AdaptiveSelector::new();
        assert_eq!(s.forecast(), None);
        s.update(0.6);
        assert!(s.forecast().is_some());
        assert_eq!(s.samples_seen(), 1);
    }

    #[test]
    fn selects_last_value_on_a_trending_signal() {
        // A steadily ramping signal: last-value beats the running mean.
        let mut s = AdaptiveSelector::with_members(vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
        ]);
        for i in 0..200 {
            s.update(i as f64 * 0.01);
        }
        assert_eq!(s.best_name().unwrap(), "last_value");
    }

    #[test]
    fn selects_mean_on_alternating_noise() {
        let mut s = AdaptiveSelector::with_members(vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
        ]);
        for i in 0..200 {
            s.update(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert_eq!(s.best_name().unwrap(), "running_mean");
    }

    #[test]
    fn adapts_when_the_regime_changes() {
        let mut s = AdaptiveSelector::with_members(vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
        ]);
        // Regime 1: alternating noise ⇒ mean wins.
        for i in 0..300 {
            s.update(if i % 2 == 0 { 0.4 } else { 0.6 });
        }
        assert_eq!(s.best_name().unwrap(), "running_mean");
        // Regime 2: a hard level shift the all-history mean never
        // recovers from, while last-value is exact.
        for _ in 0..600 {
            s.update(0.05);
        }
        assert_eq!(s.best_name().unwrap(), "last_value");
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
            if s.scored[i] == 0 {
                f64::INFINITY
            } else {
                let w: f64 = (0..s.scored[i]).map(|k| ERROR_DECAY.powi(k as i32)).sum();
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
        s.scored.iter_mut().for_each(|k| *k = 1 << 31);
        let before = s.weight.clone();
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
