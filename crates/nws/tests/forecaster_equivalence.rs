//! Differential tests: the incremental forecasters against the
//! straightforward versions they replaced.
//!
//! `AutoRegressive` fits once per update over a contiguous slice, and
//! `SlidingWindowMedian` / `TrimmedMean` keep a sorted copy of their
//! window. The `Old*` types below are the previous implementations,
//! kept verbatim in the test: they collect, centre and sort the window
//! on every forecast. Every forecast must agree in `to_bits`, as must
//! the selector's forecast, error and winner at every step, or the
//! simulator's outputs would move.

use nws::forecast::{
    standard_suite, AdaptiveWindowMean, AutoRegressive, ExpSmoothing, Forecaster, LastValue,
    LinearTrend, RunningMean, SlidingWindowMean, SlidingWindowMedian, TrimmedMean,
};
use nws::AdaptiveSelector;
use std::collections::VecDeque;

/// The AR(p) predictor as it was: a fresh `Vec` per step, normal
/// equations accumulated row by row over `t`, fit in `forecast`.
#[derive(Clone)]
struct OldAr {
    order: usize,
    window: usize,
    buf: VecDeque<f64>,
}

impl OldAr {
    fn new(order: usize, window: usize) -> Self {
        OldAr {
            order,
            window,
            buf: VecDeque::new(),
        }
    }

    fn fit(&self) -> Option<(f64, Vec<f64>)> {
        let p = self.order;
        let data: Vec<f64> = self.buf.iter().copied().collect();
        let n = data.len();
        if n < p + 2 {
            return None;
        }
        let mean = data.iter().sum::<f64>() / n as f64;
        let c: Vec<f64> = data.iter().map(|x| x - mean).collect();
        let mut a = vec![0.0; p * p];
        let mut b = vec![0.0; p];
        for t in p..n {
            for i in 0..p {
                let xi = c[t - 1 - i];
                b[i] += xi * c[t];
                for j in 0..p {
                    a[i * p + j] += xi * c[t - 1 - j];
                }
            }
        }
        let coeffs = old_solve_linear(&mut a, &mut b, p)?;
        Some((mean, coeffs))
    }
}

fn old_solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-10 {
            return None;
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for r in (col + 1)..n {
            let factor = a[r * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[r * n + k] -= factor * a[col * n + k];
            }
            b[r] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
}

impl Forecaster for OldAr {
    fn name(&self) -> String {
        format!("ar({},{})", self.order, self.window)
    }
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.window {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let data: Vec<f64> = self.buf.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        match self.fit() {
            Some((mu, coeffs)) => {
                let mut pred = 0.0;
                for (i, &ci) in coeffs.iter().enumerate() {
                    let idx = data.len() - 1 - i;
                    pred += ci * (data[idx] - mu);
                }
                Some(mu + pred)
            }
            None => Some(mean),
        }
    }
    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// The sliding median as it was: collect and sort on every forecast.
#[derive(Clone)]
struct OldMedian {
    k: usize,
    buf: VecDeque<f64>,
}

impl Forecaster for OldMedian {
    fn name(&self) -> String {
        format!("sw_median({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.k {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.buf.iter().copied().collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// The trimmed mean as it was: collect and sort on every forecast.
#[derive(Clone)]
struct OldTrimmed {
    k: usize,
    trim: usize,
    buf: VecDeque<f64>,
}

impl Forecaster for OldTrimmed {
    fn name(&self) -> String {
        format!("trimmed_mean({},{})", self.k, self.trim)
    }
    fn update(&mut self, value: f64) {
        self.buf.push_back(value);
        if self.buf.len() > self.k {
            self.buf.pop_front();
        }
    }
    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.buf.iter().copied().collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let t = self.trim.min((v.len() - 1) / 2);
        let kept = &v[t..v.len() - t];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// The selector's update loop as it was: the decay term recomputed per
/// member, over a battery built from the old forecasters.
struct OldSelector {
    members: Vec<Box<dyn Forecaster>>,
    err: Vec<f64>,
    weight: Vec<f64>,
    scored: Vec<u64>,
}

const ERROR_DECAY: f64 = 0.995;

impl OldSelector {
    fn new() -> Self {
        let members: Vec<Box<dyn Forecaster>> = vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
            Box::new(SlidingWindowMean::new(4)),
            Box::new(SlidingWindowMean::new(16)),
            Box::new(SlidingWindowMean::new(64)),
            Box::new(OldMedian {
                k: 5,
                buf: VecDeque::new(),
            }),
            Box::new(OldMedian {
                k: 21,
                buf: VecDeque::new(),
            }),
            Box::new(ExpSmoothing::new(0.2)),
            Box::new(ExpSmoothing::new(0.6)),
            Box::new(AdaptiveWindowMean::new(&[4, 8, 16, 32, 64])),
            Box::new(OldAr::new(2, 64)),
            Box::new(OldTrimmed {
                k: 9,
                trim: 2,
                buf: VecDeque::new(),
            }),
            Box::new(LinearTrend::new(12)),
        ];
        let n = members.len();
        OldSelector {
            members,
            err: vec![0.0; n],
            weight: vec![0.0; n],
            scored: vec![0; n],
        }
    }

    fn update(&mut self, value: f64) {
        for (i, m) in self.members.iter().enumerate() {
            if let Some(p) = m.forecast() {
                self.err[i] = self.err[i] * ERROR_DECAY + (p - value).abs();
                self.weight[i] += ERROR_DECAY.powi(self.scored[i] as i32);
                self.scored[i] += 1;
            }
        }
        for m in &mut self.members {
            m.update(value);
        }
    }

    fn best_index(&self) -> Option<usize> {
        (0..self.members.len())
            .filter(|&i| self.scored[i] > 0)
            .min_by(|&a, &b| self.err[a].total_cmp(&self.err[b]))
            .or_else(|| (0..self.members.len()).find(|&i| self.members[i].forecast().is_some()))
    }

    fn forecast(&self) -> Option<f64> {
        self.best_index().and_then(|i| self.members[i].forecast())
    }

    fn best_name(&self) -> Option<String> {
        self.best_index().map(|i| self.members[i].name())
    }

    fn best_error(&self) -> Option<f64> {
        self.best_index().map(|i| {
            if self.scored[i] == 0 {
                f64::INFINITY
            } else {
                self.err[i] / self.weight[i]
            }
        })
    }

    fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
        self.err.iter_mut().for_each(|e| *e = 0.0);
        self.weight.iter_mut().for_each(|w| *w = 0.0);
        self.scored.iter_mut().for_each(|s| *s = 0);
    }
}

/// SplitMix64: a fixed, dependency-free stream of pseudo-random bits.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A signal in `[0, 1]` that cycles through the regimes the fast paths
/// must survive: smooth noise, values on a coarse grid (duplicates and
/// ties in the sorted windows), constant runs longer than every window
/// (the singular AR fit), ramps, and isolated spikes.
fn signal(i: u64) -> f64 {
    let u = (mix(i) >> 11) as f64 / (1u64 << 53) as f64;
    let phase = i % 1_000;
    match phase / 200 {
        0 => 0.5 + 0.3 * (i as f64 / 37.0).sin() + 0.1 * (u - 0.5),
        1 => (u * 5.0).floor() / 5.0,
        2 => {
            if phase % 200 < 120 {
                0.75
            } else {
                (u * 3.0).floor() / 4.0
            }
        }
        3 => (phase % 200) as f64 / 200.0,
        _ => {
            if mix(i ^ 0xABCD).is_multiple_of(13) {
                1.0
            } else {
                0.2 + 0.05 * u
            }
        }
    }
}

/// Feed `new` and `old` the same stream, with a `reset` part-way, and
/// demand bit-identical forecasts before and after every update.
fn assert_same(mut new: Box<dyn Forecaster>, mut old: Box<dyn Forecaster>) {
    assert_eq!(new.name(), old.name());
    let same = |new: &dyn Forecaster, old: &dyn Forecaster, step: &str| {
        let (a, b) = (new.forecast(), old.forecast());
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{} at {step}: {a:?} vs {b:?}",
            new.name()
        );
    };
    same(&*new, &*old, "start");
    for i in 0..6_000 {
        let v = signal(i);
        new.update(v);
        old.update(v);
        same(&*new, &*old, &format!("sample {i}"));
        if i == 3_517 {
            new.reset();
            old.reset();
            same(&*new, &*old, "reset");
        }
    }
}

#[test]
fn the_signal_reaches_the_singular_ar_fit() {
    // Samples 400..520 are a constant 0.75: once the window holds only
    // those, the normal equations are singular and AR falls back to the
    // window mean.
    let mut f = AutoRegressive::new(2, 64);
    for i in 0..500 {
        f.update(signal(i));
    }
    assert_eq!(f.forecast(), Some(0.75));
}

#[test]
fn autoregressive_matches_the_collecting_fit_bit_for_bit() {
    for (order, window) in [(1, 8), (1, 64), (2, 5), (2, 64), (4, 6), (4, 16)] {
        assert_same(
            Box::new(AutoRegressive::new(order, window)),
            Box::new(OldAr::new(order, window)),
        );
    }
}

#[test]
fn sliding_median_matches_the_sorting_median_bit_for_bit() {
    for k in [1, 2, 5, 21] {
        assert_same(
            Box::new(SlidingWindowMedian::new(k)),
            Box::new(OldMedian {
                k,
                buf: VecDeque::new(),
            }),
        );
    }
}

#[test]
fn trimmed_mean_matches_the_sorting_mean_bit_for_bit() {
    for (k, trim) in [(1, 0), (4, 0), (9, 2), (9, 4), (20, 3)] {
        assert_same(
            Box::new(TrimmedMean::new(k, trim)),
            Box::new(OldTrimmed {
                k,
                trim,
                buf: VecDeque::new(),
            }),
        );
    }
}

#[test]
fn signed_zeros_and_ties_leave_the_sorted_window_exact() {
    // -0.0 and 0.0 compare equal as numbers but not under `total_cmp`;
    // evicting one must not take the other out of the sorted copy.
    let values = [0.0, -0.0, 0.0, 0.5, -0.0, -0.0, 0.5, 0.0, 0.5, -0.0];
    for k in [2, 3, 4] {
        let mut new = SlidingWindowMedian::new(k);
        let mut old = OldMedian {
            k,
            buf: VecDeque::new(),
        };
        for _ in 0..5 {
            for &v in &values {
                new.update(v);
                old.update(v);
                assert_eq!(
                    new.forecast().map(f64::to_bits),
                    old.forecast().map(f64::to_bits)
                );
            }
        }
    }
}

#[test]
fn selector_matches_the_per_member_loop_at_every_step() {
    let mut new = AdaptiveSelector::new();
    let mut old = OldSelector::new();
    assert_eq!(
        standard_suite()
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>(),
        old.members.iter().map(|m| m.name()).collect::<Vec<_>>()
    );
    let same = |new: &AdaptiveSelector, old: &OldSelector, i: u64| {
        assert_eq!(
            new.forecast().map(f64::to_bits),
            old.forecast().map(f64::to_bits),
            "forecast at {i}"
        );
        assert_eq!(
            new.best_error().map(f64::to_bits),
            old.best_error().map(f64::to_bits),
            "best_error at {i}"
        );
        assert_eq!(new.best_name(), old.best_name(), "best_name at {i}");
    };
    for i in 0..6_000 {
        if i == 4_000 {
            new.reset();
            old.reset();
        }
        let v = signal(i);
        new.update(v);
        old.update(v);
        same(&new, &old, i);
    }
}
