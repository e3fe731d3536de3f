//! The forecaster suite.
//!
//! The Network Weather Service deliberately uses a family of *cheap*
//! predictors rather than one sophisticated model: resource-availability
//! signals switch regimes (a user logs in, a batch job starts), and
//! which predictor is best changes with the regime. Each predictor here
//! consumes a regularly-sampled measurement stream via [`Forecaster::update`]
//! and offers a one-step-ahead prediction via [`Forecaster::forecast`].
//!
//! [`crate::selector::AdaptiveSelector`] composes these into NWS's
//! "forecaster of forecasters".

mod ar;
mod basic;
mod robust;
mod window;

pub use ar::AutoRegressive;
pub use basic::{ExpSmoothing, LastValue, RunningMean};
pub use robust::{LinearTrend, TrimmedMean};
pub use window::{AdaptiveWindowMean, SlidingWindowMean, SlidingWindowMedian};

/// A one-step-ahead predictor over a regularly-sampled series.
///
/// Implementations are deterministic: the same update sequence always
/// yields the same forecasts. They are also [`Clone`] (through
/// [`ForecasterClone`]), so a boxed battery can be forked mid-stream.
pub trait Forecaster: Send + ForecasterClone {
    /// Short identifier, e.g. `"sw_mean(8)"`.
    fn name(&self) -> String;

    /// Feed the next measurement.
    fn update(&mut self, value: f64);

    /// Predict the next measurement; `None` until the predictor has
    /// seen enough history.
    fn forecast(&self) -> Option<f64>;

    /// Discard all history.
    fn reset(&mut self);
}

/// Boxed cloning for [`Forecaster`], blanket-implemented for every
/// `Clone` forecaster so `Box<dyn Forecaster>` is `Clone`.
pub trait ForecasterClone {
    /// A boxed copy of `self`, state included.
    fn clone_box(&self) -> Box<dyn Forecaster>;
}

impl<T: Forecaster + Clone + 'static> ForecasterClone for T {
    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Forecaster> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The standard NWS-style predictor battery, suitable for availability
/// signals in `[0, 1]` sampled every few seconds.
pub fn standard_suite() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(LastValue::new()),
        Box::new(RunningMean::new()),
        Box::new(SlidingWindowMean::new(4)),
        Box::new(SlidingWindowMean::new(16)),
        Box::new(SlidingWindowMean::new(64)),
        Box::new(SlidingWindowMedian::new(5)),
        Box::new(SlidingWindowMedian::new(21)),
        Box::new(ExpSmoothing::new(0.2)),
        Box::new(ExpSmoothing::new(0.6)),
        Box::new(AdaptiveWindowMean::new(&[4, 8, 16, 32, 64])),
        Box::new(AutoRegressive::new(2, 64)),
        Box::new(TrimmedMean::new(9, 2)),
        Box::new(LinearTrend::new(12)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_has_distinct_names() {
        let suite = standard_suite();
        let mut names: Vec<String> = suite.iter().map(|f| f.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate forecaster names");
    }

    #[test]
    fn every_member_converges_on_a_constant_signal() {
        for mut f in standard_suite() {
            for _ in 0..100 {
                f.update(0.5);
            }
            let p = f.forecast().expect("forecast after 100 updates");
            assert!(
                (p - 0.5).abs() < 1e-9,
                "{} predicted {p} for a constant 0.5 signal",
                f.name()
            );
        }
    }

    #[test]
    fn reset_clears_every_member() {
        for mut f in standard_suite() {
            for _ in 0..10 {
                f.update(0.9);
            }
            f.reset();
            // After reset, predictors should behave as if new-born:
            // feed a different constant and converge to it.
            for _ in 0..100 {
                f.update(0.1);
            }
            let p = f.forecast().unwrap();
            assert!(
                (p - 0.1).abs() < 1e-9,
                "{} failed to converge after reset: {p}",
                f.name()
            );
        }
    }
}
