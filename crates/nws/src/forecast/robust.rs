//! Robust and trend-following predictors.

use super::window::SortedWindow;
use super::Forecaster;
use std::collections::VecDeque;

/// Trimmed mean of the last `k` measurements: drop the `trim` largest
/// and `trim` smallest before averaging. Sits between the sliding mean
/// (trim 0) and the median (maximal trim) in outlier robustness.
#[derive(Debug, Clone)]
pub struct TrimmedMean {
    trim: usize,
    window: SortedWindow,
}

impl TrimmedMean {
    /// A fresh trimmed-mean predictor.
    ///
    /// # Panics
    /// Panics if `k == 0` or `2 * trim >= k` (nothing left to average).
    pub fn new(k: usize, trim: usize) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(k > 0, "window must be non-empty");
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(
            2 * trim < k,
            "trim {trim} leaves nothing of a window of {k}"
        );
        TrimmedMean {
            trim,
            window: SortedWindow::new(k),
        }
    }
}

impl Forecaster for TrimmedMean {
    fn name(&self) -> String {
        format!("trimmed_mean({},{})", self.window.k(), self.trim)
    }
    fn update(&mut self, value: f64) {
        self.window.push(value);
    }
    fn forecast(&self) -> Option<f64> {
        let v = self.window.sorted();
        if v.is_empty() {
            return None;
        }
        // Trim as much as the (possibly still-filling) window allows.
        let t = self.trim.min((v.len() - 1) / 2);
        let kept = &v[t..v.len() - t];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
    fn reset(&mut self) {
        self.window.clear();
    }
}

/// Linear-trend extrapolation: least-squares line over the last `k`
/// samples, evaluated one step ahead. Strong on ramping signals
/// (a machine's load climbing as users arrive), degrades to the mean
/// on flat ones.
#[derive(Debug, Clone)]
pub struct LinearTrend {
    k: usize,
    buf: VecDeque<f64>,
}

impl LinearTrend {
    /// A fresh trend predictor over `k` samples.
    ///
    /// # Panics
    /// Panics if `k < 2` (a line needs two points).
    pub fn new(k: usize) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(k >= 2, "trend window needs at least 2 samples");
        LinearTrend {
            k,
            buf: VecDeque::with_capacity(k),
        }
    }
}

impl Forecaster for LinearTrend {
    fn name(&self) -> String {
        format!("linear_trend({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.k {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        let n = self.buf.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            return self.buf.front().copied();
        }
        // Least squares of y against x = 0..n; predict at x = n.
        let nf = n as f64;
        let sx = nf * (nf - 1.0) / 2.0;
        let sxx = (nf - 1.0) * nf * (2.0 * nf - 1.0) / 6.0;
        let sy: f64 = self.buf.iter().sum();
        let sxy: f64 = self
            .buf
            .iter()
            .enumerate()
            .map(|(i, &y)| i as f64 * y)
            .sum();
        let denom = nf * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Some(sy / nf);
        }
        let slope = (nf * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / nf;
        Some(intercept + slope * nf)
    }
    fn reset(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_ignores_spikes() {
        let mut f = TrimmedMean::new(5, 1);
        for v in [0.5, 0.5, 0.5, 0.5, 100.0] {
            f.update(v);
        }
        assert_eq!(f.forecast(), Some(0.5));
    }

    #[test]
    fn trimmed_mean_with_zero_trim_is_the_mean() {
        let mut f = TrimmedMean::new(4, 0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            f.update(v);
        }
        assert_eq!(f.forecast(), Some(2.5));
    }

    #[test]
    fn trimmed_mean_partial_window_adapts_trim() {
        let mut f = TrimmedMean::new(9, 3);
        f.update(1.0);
        // One sample: trim clamps to 0.
        assert_eq!(f.forecast(), Some(1.0));
        f.update(5.0);
        assert_eq!(f.forecast(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "leaves nothing")]
    fn excessive_trim_rejected() {
        TrimmedMean::new(4, 2);
    }

    #[test]
    fn linear_trend_extrapolates_a_ramp_exactly() {
        let mut f = LinearTrend::new(8);
        for i in 0..8 {
            f.update(0.1 + 0.05 * i as f64);
        }
        let p = f.forecast().unwrap();
        let expect = 0.1 + 0.05 * 8.0;
        assert!(
            (p - expect).abs() < 1e-9,
            "predicted {p}, expected {expect}"
        );
    }

    #[test]
    fn linear_trend_on_flat_signal_is_the_level() {
        let mut f = LinearTrend::new(8);
        for _ in 0..8 {
            f.update(0.4);
        }
        assert!((f.forecast().unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn linear_trend_single_sample_is_last_value() {
        let mut f = LinearTrend::new(4);
        f.update(0.7);
        assert_eq!(f.forecast(), Some(0.7));
    }

    #[test]
    fn linear_trend_beats_last_value_on_a_ramp() {
        use crate::forecast::LastValue;
        let mut trend = LinearTrend::new(8);
        let mut last = LastValue::new();
        let mut trend_err = 0.0;
        let mut last_err = 0.0;
        for i in 0..50 {
            let v = 0.01 * i as f64;
            if i > 8 {
                trend_err += (trend.forecast().unwrap() - v).abs();
                last_err += (last.forecast().unwrap() - v).abs();
            }
            trend.update(v);
            last.update(v);
        }
        assert!(trend_err < last_err);
    }

    #[test]
    fn resets_work() {
        let mut f = TrimmedMean::new(3, 0);
        f.update(9.0);
        f.reset();
        assert_eq!(f.forecast(), None);
        let mut g = LinearTrend::new(3);
        g.update(9.0);
        g.reset();
        assert_eq!(g.forecast(), None);
    }
}
