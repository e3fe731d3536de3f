//! Property tests for the adaptive selector and the forecaster suite.

use nws::forecast::NAMES;
use nws::AdaptiveSelector;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The selector's forecast is always one of its members' forecasts
    /// (it selects, never blends).
    #[test]
    fn selector_forecast_is_a_member_forecast(values in prop::collection::vec(0.0f64..1.0, 1..200)) {
        let mut selector = AdaptiveSelector::new();
        for v in &values {
            selector.update(*v);
        }
        let sel = selector.forecast().expect("selector forecast");
        let members = selector.member_forecasts().expect("member forecasts");
        prop_assert!(
            members.iter().any(|p| p.to_bits() == sel.to_bits()),
            "selector produced {sel}, not among member forecasts {members:?}"
        );
    }

    /// Every member but the two extrapolators (the AR fit and the
    /// linear trend) averages, selects or smooths what it has seen, so
    /// it never forecasts outside the range of the values seen.
    #[test]
    fn bounded_predictors_stay_in_observed_range(values in prop::collection::vec(0.0f64..1.0, 1..100)) {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut selector = AdaptiveSelector::new();
        for v in &values {
            selector.update(*v);
        }
        let forecasts = selector.member_forecasts().expect("forecasts");
        for (name, &p) in NAMES.iter().zip(forecasts) {
            if name.starts_with("ar(") || name.starts_with("linear_trend(") {
                continue;
            }
            prop_assert!(
                p >= lo - 1e-12 && p <= hi + 1e-12,
                "{name} forecast {p} outside [{lo}, {hi}]"
            );
        }
    }

    /// Updating with the same stream twice in two selector instances
    /// yields identical forecasts (pure determinism).
    #[test]
    fn selector_is_deterministic(values in prop::collection::vec(0.0f64..1.0, 1..150)) {
        let mut a = AdaptiveSelector::new();
        let mut b = AdaptiveSelector::new();
        for v in &values {
            a.update(*v);
            b.update(*v);
        }
        prop_assert_eq!(a.forecast(), b.forecast());
        prop_assert_eq!(a.best_name(), b.best_name());
    }

    /// On a constant tail, the selector's error estimate goes to zero
    /// and the forecast converges to the constant.
    #[test]
    fn selector_converges_on_constant_tails(
        prefix in prop::collection::vec(0.0f64..1.0, 0..30),
        level in 0.0f64..1.0,
    ) {
        let mut s = AdaptiveSelector::new();
        for v in &prefix {
            s.update(*v);
        }
        for _ in 0..400 {
            s.update(level);
        }
        let p = s.forecast().expect("forecast");
        prop_assert!((p - level).abs() < 0.02, "forecast {p} vs level {level}");
    }
}
