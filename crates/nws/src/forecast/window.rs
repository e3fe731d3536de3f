//! Windowed predictors: sliding mean, sliding median, and an
//! adaptive-window mean that re-selects its window size by trailing
//! error.

use super::Forecaster;
use std::collections::VecDeque;

/// Mean of the last `k` measurements.
#[derive(Debug, Clone)]
pub struct SlidingWindowMean {
    k: usize,
    buf: VecDeque<f64>,
}

impl SlidingWindowMean {
    /// A fresh sliding-mean predictor over `k` samples.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(k > 0, "window must be non-empty");
        SlidingWindowMean {
            k,
            buf: VecDeque::with_capacity(k),
        }
    }
}

impl Forecaster for SlidingWindowMean {
    fn name(&self) -> String {
        format!("sw_mean({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.k {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            // Sum the buffer rather than keep a rolling sum: a rolling
            // sum accumulates FP drift over long streams. The buffer is
            // short, so this is cheap.
            Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
        }
    }
    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// The last `k` measurements, in arrival order and sorted.
///
/// The sorted copy is kept up to date on each sample by one binary
/// search and shift per insertion and eviction, instead of collecting
/// and sorting the window on every forecast. Values that compare equal
/// under [`f64::total_cmp`] are bit-identical, so the sorted copy is
/// exactly what sorting the window by `total_cmp` would give.
#[derive(Debug, Clone)]
pub(crate) struct SortedWindow {
    k: usize,
    arrivals: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl SortedWindow {
    /// An empty window of `k > 0` samples.
    pub(crate) fn new(k: usize) -> Self {
        SortedWindow {
            k,
            arrivals: VecDeque::with_capacity(k),
            sorted: Vec::with_capacity(k),
        }
    }

    /// The window size.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Add `value`, evicting the oldest sample once `k` are held.
    pub(crate) fn push(&mut self, value: f64) {
        if self.arrivals.len() == self.k {
            if let Some(old) = self.arrivals.pop_front() {
                if let Ok(i) = self.sorted.binary_search_by(|x| x.total_cmp(&old)) {
                    self.sorted.remove(i);
                }
            }
        }
        self.arrivals.push_back(value);
        let at = self.sorted.partition_point(|x| x.total_cmp(&value).is_lt());
        self.sorted.insert(at, value);
    }

    /// The window's samples in ascending `total_cmp` order.
    pub(crate) fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Drop every sample.
    pub(crate) fn clear(&mut self) {
        self.arrivals.clear();
        self.sorted.clear();
    }
}

/// Median of the last `k` measurements. Robust to spikes (NWS found
/// median-based predictors strong on bursty network signals).
#[derive(Debug, Clone)]
pub struct SlidingWindowMedian {
    window: SortedWindow,
}

impl SlidingWindowMedian {
    /// A fresh sliding-median predictor over `k` samples.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(k > 0, "window must be non-empty");
        SlidingWindowMedian {
            window: SortedWindow::new(k),
        }
    }
}

impl Forecaster for SlidingWindowMedian {
    fn name(&self) -> String {
        format!("sw_median({})", self.window.k())
    }
    fn update(&mut self, value: f64) {
        self.window.push(value);
    }
    fn forecast(&self) -> Option<f64> {
        let v = self.window.sorted();
        let n = v.len();
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
    fn reset(&mut self) {
        self.window.clear();
    }
}

/// A mean whose window size is itself chosen adaptively: the predictor
/// maintains one sliding mean per candidate window, tracks each
/// candidate's cumulative absolute one-step error, and forecasts with
/// the currently best candidate.
#[derive(Debug, Clone)]
pub struct AdaptiveWindowMean {
    candidates: Vec<SlidingWindowMean>,
    err: Vec<f64>,
}

impl AdaptiveWindowMean {
    /// A fresh adaptive-window predictor over the given candidate
    /// window sizes.
    ///
    /// # Panics
    /// Panics if `windows` is empty or contains a zero.
    pub fn new(windows: &[usize]) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(!windows.is_empty(), "need at least one candidate window");
        AdaptiveWindowMean {
            candidates: windows.iter().map(|&k| SlidingWindowMean::new(k)).collect(),
            err: vec![0.0; windows.len()],
        }
    }

    /// The window size currently winning the error race.
    pub fn current_window(&self) -> usize {
        self.err
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| self.candidates[i].k)
            .unwrap_or(0)
    }
}

impl Forecaster for AdaptiveWindowMean {
    fn name(&self) -> String {
        let ks: Vec<String> = self.candidates.iter().map(|c| c.k.to_string()).collect();
        format!("adaptive_mean({})", ks.join(","))
    }
    fn update(&mut self, value: f64) {
        // Score each candidate's prediction against the new value
        // *before* folding the value in (a postcast).
        for (c, e) in self.candidates.iter().zip(self.err.iter_mut()) {
            if let Some(p) = c.forecast() {
                *e += (p - value).abs();
            }
        }
        for c in &mut self.candidates {
            c.update(value);
        }
    }
    fn forecast(&self) -> Option<f64> {
        let best = self
            .err
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)?;
        self.candidates[best].forecast()
    }
    fn reset(&mut self) {
        for c in &mut self.candidates {
            c.reset();
        }
        self.err.iter_mut().for_each(|e| *e = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_mean_windows_correctly() {
        let mut f = SlidingWindowMean::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            f.update(v);
        }
        // Window holds [3, 4, 5].
        assert_eq!(f.forecast(), Some(4.0));
    }

    #[test]
    fn sliding_mean_before_window_fills() {
        let mut f = SlidingWindowMean::new(10);
        f.update(2.0);
        f.update(4.0);
        assert_eq!(f.forecast(), Some(3.0));
    }

    #[test]
    fn sliding_median_is_robust_to_spikes() {
        let mut med = SlidingWindowMedian::new(5);
        let mut mean = SlidingWindowMean::new(5);
        for v in [0.5, 0.5, 0.5, 0.5, 100.0] {
            med.update(v);
            mean.update(v);
        }
        assert_eq!(med.forecast(), Some(0.5));
        assert!(mean.forecast().unwrap() > 10.0);
    }

    #[test]
    fn sliding_median_even_window() {
        let mut f = SlidingWindowMedian::new(4);
        for v in [1.0, 2.0, 3.0, 10.0] {
            f.update(v);
        }
        assert_eq!(f.forecast(), Some(2.5));
    }

    #[test]
    fn adaptive_window_prefers_short_window_after_level_shift() {
        let mut f = AdaptiveWindowMean::new(&[2, 64]);
        // Long stable period, then a level shift with persistence:
        // the short window recovers quickly, the long window lags, so
        // the short window accumulates less error.
        for _ in 0..64 {
            f.update(0.9);
        }
        for _ in 0..40 {
            f.update(0.1);
        }
        assert_eq!(f.current_window(), 2);
        let p = f.forecast().unwrap();
        assert!(
            (p - 0.1).abs() < 0.05,
            "adaptive mean should track the shift, got {p}"
        );
    }

    #[test]
    fn adaptive_window_prefers_long_window_on_noise() {
        // Alternating noise around 0.5: a long mean nails 0.5; the
        // 1-sample window predicts the previous (wrong) extreme.
        let mut f = AdaptiveWindowMean::new(&[1, 32]);
        for i in 0..200 {
            f.update(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert_eq!(f.current_window(), 32);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_rejected() {
        SlidingWindowMean::new(0);
    }
}
