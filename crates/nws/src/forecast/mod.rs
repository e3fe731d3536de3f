//! The forecaster battery.
//!
//! The Network Weather Service deliberately uses a family of *cheap*
//! predictors rather than one sophisticated model: resource-availability
//! signals switch regimes (a user logs in, a batch job starts), and
//! which predictor is best changes with the regime. [`Battery`] runs the
//! standard family over a regularly-sampled measurement stream and
//! offers each member's one-step-ahead prediction.
//!
//! The members share one window of the stream's tail instead of keeping
//! a copy each. Every forecast is computed once per sample, in
//! [`Battery::update`], and read from then on. Each member still does
//! exactly the floating-point operations of its standalone definition,
//! in the same order, so every forecast keeps its bits:
//!
//! * the means over the last 4, 8, 16, 32 and 64 samples are each
//!   summed oldest-first with `iter().sum()` over the values that
//!   member's own window held, and `sw_mean(k)`, `adaptive_mean`'s
//!   candidates and the AR mean all read them;
//! * `adaptive_mean` scores its candidates against the means stored at
//!   the previous sample, which is what each candidate forecast then;
//! * the sorted windows of the medians and the trimmed mean take the
//!   evicted value from the shared window.
//!
//! [`crate::selector::AdaptiveSelector`] composes these into NWS's
//! "forecaster of forecasters".

mod ar;

/// Number of members in the battery.
pub const MEMBERS: usize = 13;

/// Every member's name, in the battery's order (the order
/// [`Battery::forecasts`] reports them in and selection breaks ties by).
pub const NAMES: [&str; MEMBERS] = [
    "last_value",
    "running_mean",
    "sw_mean(4)",
    "sw_mean(16)",
    "sw_mean(64)",
    "sw_median(5)",
    "sw_median(21)",
    "exp_smooth(0.2)",
    "exp_smooth(0.6)",
    "adaptive_mean(4,8,16,32,64)",
    "ar(2,64)",
    "trimmed_mean(9,2)",
    "linear_trend(12)",
];

/// The windows the battery keeps a mean over: `adaptive_mean`'s
/// candidates, which include every `sw_mean` window and the AR window.
const MEAN_WINDOWS: [usize; 5] = [4, 8, 16, 32, 64];

/// The longest window any member reads.
const WINDOW: usize = 64;

/// The smoothing factors of the two `exp_smooth` members.
const ALPHAS: [f64; 2] = [0.2, 0.6];

/// The samples `linear_trend` fits a line over.
const TREND_WINDOW: usize = 12;

/// The standard NWS-style predictor battery, for availability signals
/// in `[0, 1]` sampled every few seconds.
///
/// * `last_value` — optimal on a random walk;
/// * `running_mean` — the mean of all history, for i.i.d. noise around
///   a fixed level;
/// * `sw_mean(k)` — the mean of the last `k` samples;
/// * `sw_median(k)` — their median, robust to spikes;
/// * `exp_smooth(α)` — `s ← α·x + (1-α)·s`;
/// * `adaptive_mean` — the `sw_mean` over whichever candidate window has
///   the lowest summed absolute postcast error so far;
/// * `ar(2,64)` — a mean-centred AR(2) least-squares fit over the last
///   64 samples (see `ar.rs`);
/// * `trimmed_mean(9,2)` — the mean of the last 9 samples without the 2
///   largest and the 2 smallest;
/// * `linear_trend(12)` — the least-squares line over the last 12
///   samples, one step ahead.
///
/// A clone is an exact fork: it continues, bit for bit, as the original
/// would.
#[derive(Debug, Clone)]
pub struct Battery {
    /// The last `min(samples, WINDOW)` samples are the tail of this
    /// buffer. It holds up to twice that and drops its older half when
    /// full, so every window is one contiguous slice at amortized O(1)
    /// per sample.
    buf: Vec<f64>,
    /// Samples fed since construction or the last reset.
    samples: u64,
    /// `running_mean`'s sum of every sample.
    sum: f64,
    /// The mean over each of [`MEAN_WINDOWS`], as of the latest sample.
    means: [f64; 5],
    /// `adaptive_mean`'s summed absolute error per candidate window.
    adaptive_err: [f64; 5],
    /// The `exp_smooth` states, one per [`ALPHAS`] entry.
    smooth: [f64; 2],
    median5: SortedWindow,
    median21: SortedWindow,
    trimmed: SortedWindow,
    /// Every member's forecast of the next sample; meaningful once
    /// `samples > 0`.
    next: [f64; MEMBERS],
}

impl Default for Battery {
    fn default() -> Self {
        Self::new()
    }
}

impl Battery {
    /// An empty battery.
    pub fn new() -> Self {
        Battery {
            buf: Vec::with_capacity(2 * WINDOW),
            samples: 0,
            sum: 0.0,
            means: [0.0; 5],
            adaptive_err: [0.0; 5],
            smooth: [0.0; 2],
            median5: SortedWindow::new(5),
            median21: SortedWindow::new(21),
            trimmed: SortedWindow::new(9),
            next: [0.0; MEMBERS],
        }
    }

    /// Feed the next measurement and forecast the one after it.
    pub fn update(&mut self, value: f64) {
        // A postcast: each candidate's forecast was its mean as of the
        // previous sample.
        if self.samples > 0 {
            for (e, m) in self.adaptive_err.iter_mut().zip(self.means) {
                *e += (m - value).abs();
            }
        }
        if self.buf.len() == 2 * WINDOW {
            self.buf.drain(..WINDOW);
        }
        for w in [&mut self.median5, &mut self.median21, &mut self.trimmed] {
            w.push(value, &self.buf);
        }
        self.buf.push(value);
        self.samples += 1;
        self.sum += value;
        for (s, a) in self.smooth.iter_mut().zip(ALPHAS) {
            *s = if self.samples == 1 {
                value
            } else {
                a * value + (1.0 - a) * *s
            };
        }
        self.means = MEAN_WINDOWS.map(|k| {
            let w = self.tail(k);
            w.iter().sum::<f64>() / w.len() as f64
        });
        let adaptive = self
            .adaptive_err
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        let mean64 = self.means[4];
        self.next = [
            value,
            self.sum / self.samples as f64,
            self.means[0],
            self.means[2],
            mean64,
            self.median5.median(),
            self.median21.median(),
            self.smooth[0],
            self.smooth[1],
            self.means[adaptive],
            ar::ar2(self.tail(WINDOW), mean64),
            self.trimmed.trimmed_mean(2),
            linear_trend(self.tail(TREND_WINDOW)),
        ];
    }

    /// Every member's forecast of the next measurement, in [`NAMES`]
    /// order; `None` before the first sample (one sample is enough for
    /// every member).
    pub fn forecasts(&self) -> Option<&[f64; MEMBERS]> {
        (self.samples > 0).then_some(&self.next)
    }

    /// Measurements fed since construction or the last reset.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Discard all history.
    pub fn reset(&mut self) {
        *self = Battery::new();
    }

    /// The last `min(samples, k)` samples, oldest first (`k <= WINDOW`).
    fn tail(&self, k: usize) -> &[f64] {
        &self.buf[self.buf.len().saturating_sub(k)..]
    }
}

/// Least-squares line of `y` against `x = 0..n`, evaluated at `x = n`;
/// the sample itself when there is one. `y` is not empty.
fn linear_trend(y: &[f64]) -> f64 {
    let n = y.len();
    if n == 1 {
        return y[0];
    }
    let nf = n as f64;
    let sx = nf * (nf - 1.0) / 2.0;
    let sxx = (nf - 1.0) * nf * (2.0 * nf - 1.0) / 6.0;
    let sy: f64 = y.iter().sum();
    let sxy: f64 = y.iter().enumerate().map(|(i, &y)| i as f64 * y).sum();
    let denom = nf * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return sy / nf;
    }
    let slope = (nf * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / nf;
    intercept + slope * nf
}

/// The last `k` samples of the shared window in ascending
/// [`f64::total_cmp`] order, kept up to date by one binary search and
/// shift per insertion and eviction. Values that compare equal under
/// `total_cmp` are bit-identical, so this is exactly what sorting the
/// window would give, and evicting a `-0.0` never removes a `0.0`.
#[derive(Debug, Clone)]
struct SortedWindow {
    k: usize,
    sorted: Vec<f64>,
}

impl SortedWindow {
    fn new(k: usize) -> Self {
        SortedWindow {
            k,
            sorted: Vec::with_capacity(k),
        }
    }

    /// Add `value`, evicting the sample that leaves the last `k` of
    /// `window` (the shared window before `value` joins it, holding at
    /// least `k` samples once this one is full).
    fn push(&mut self, value: f64, window: &[f64]) {
        if self.sorted.len() == self.k {
            let old = window[window.len() - self.k];
            if let Ok(i) = self.sorted.binary_search_by(|x| x.total_cmp(&old)) {
                self.sorted.remove(i);
            }
        }
        let at = self.sorted.partition_point(|x| x.total_cmp(&value).is_lt());
        self.sorted.insert(at, value);
    }

    /// The median; the window is not empty.
    fn median(&self) -> f64 {
        let v = &self.sorted;
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The mean without the `trim` largest and `trim` smallest, trimming
    /// only as much as a still-filling window allows; the window is not
    /// empty.
    fn trimmed_mean(&self, trim: usize) -> f64 {
        let v = &self.sorted;
        let t = trim.min((v.len() - 1) / 2);
        let kept = &v[t..v.len() - t];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(name: &str) -> usize {
        NAMES.iter().position(|&n| n == name).unwrap()
    }

    fn fed(values: impl IntoIterator<Item = f64>) -> Battery {
        let mut b = Battery::new();
        for v in values {
            b.update(v);
        }
        b
    }

    #[test]
    fn names_are_distinct() {
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MEMBERS, "duplicate forecaster names");
    }

    #[test]
    fn no_forecast_before_the_first_sample() {
        let mut b = Battery::new();
        assert_eq!(b.forecasts(), None);
        b.update(0.3);
        assert_eq!(b.forecasts(), Some(&[0.3; MEMBERS]));
        assert_eq!(b.samples(), 1);
    }

    #[test]
    fn every_member_converges_on_a_constant_signal() {
        let b = fed([0.5; 100]);
        for (name, p) in NAMES.iter().zip(b.forecasts().unwrap()) {
            assert!((p - 0.5).abs() < 1e-9, "{name} predicted {p} for 0.5");
        }
    }

    #[test]
    fn reset_clears_every_member() {
        let mut b = fed([0.9; 130]);
        b.reset();
        assert_eq!(b.forecasts(), None);
        assert_eq!(b.samples(), 0);
        // As if new-born: converge on a different constant.
        for _ in 0..100 {
            b.update(0.1);
        }
        for (name, p) in NAMES.iter().zip(b.forecasts().unwrap()) {
            assert!((p - 0.1).abs() < 1e-9, "{name} failed after reset: {p}");
        }
    }

    #[test]
    fn windowed_members_read_their_own_window() {
        let b = fed((1..=30).map(f64::from));
        let f = b.forecasts().unwrap();
        assert_eq!(f[member("last_value")], 30.0);
        assert_eq!(f[member("running_mean")], 15.5);
        assert_eq!(f[member("sw_mean(4)")], 28.5);
        assert_eq!(f[member("sw_mean(16)")], 22.5);
        assert_eq!(f[member("sw_mean(64)")], 15.5);
        assert_eq!(f[member("sw_median(5)")], 28.0);
        assert_eq!(f[member("sw_median(21)")], 20.0);
        assert_eq!(f[member("trimmed_mean(9,2)")], 26.0);
        // A ramp: the trend and the AR fit extrapolate it, and the
        // shortest mean window lags it least.
        assert!((f[member("linear_trend(12)")] - 31.0).abs() < 1e-9);
        assert_eq!(f[member("adaptive_mean(4,8,16,32,64)")], 28.5);
    }

    #[test]
    fn robust_members_ignore_a_spike() {
        let f = *fed([0.5, 0.5, 0.5, 0.5, 100.0]).forecasts().unwrap();
        assert_eq!(f[member("sw_median(5)")], 0.5);
        assert_eq!(f[member("trimmed_mean(9,2)")], 0.5);
        assert!(f[member("sw_mean(4)")] > 10.0);
    }

    #[test]
    fn exp_smoothing_follows_its_recursion() {
        let f = *fed([1.0, 0.0]).forecasts().unwrap();
        assert!((f[member("exp_smooth(0.2)")] - 0.8).abs() < 1e-12);
        assert!((f[member("exp_smooth(0.6)")] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn adaptive_mean_moves_to_a_short_window_after_a_level_shift() {
        let b = fed((0..64).map(|_| 0.9).chain((0..40).map(|_| 0.1)));
        let p = b.forecasts().unwrap()[member("adaptive_mean(4,8,16,32,64)")];
        assert!((p - 0.1).abs() < 1e-9, "stuck on the 64-sample window: {p}");
    }

    #[test]
    fn ar_learns_a_sinusoid() {
        // A sampled sinusoid satisfies x_t = 2·cos(ω)·x_{t-1} - x_{t-2};
        // centring on the window's not-quite-zero mean leaves a small
        // bias.
        let omega = 0.37;
        let b = fed((0..64).map(|t| (omega * f64::from(t)).sin()));
        let p = b.forecasts().unwrap()[member("ar(2,64)")];
        let actual = (omega * 64.0).sin();
        assert!((p - actual).abs() < 0.02, "predicted {p}, actual {actual}");
    }

    #[test]
    fn sorted_window_keeps_signed_zeros_apart() {
        let values = [0.0, -0.0, 0.0, 0.5, -0.0, -0.0, 0.5, 0.0, 0.5, -0.0];
        let mut b = Battery::new();
        for (i, &v) in values.iter().cycle().take(50).enumerate() {
            b.update(v);
            let mut last5: Vec<f64> = b.tail(5).to_vec();
            last5.sort_by(f64::total_cmp);
            assert_eq!(b.median5.sorted, last5, "after sample {i}");
        }
    }
}
