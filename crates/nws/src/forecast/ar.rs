//! Autoregressive prediction.
//!
//! Fits a mean-centred AR(p) model to a sliding window of the
//! measurement stream by least squares and forecasts one step ahead.
//! When the window is too short or the normal equations are singular
//! (e.g. a constant signal), it falls back to the window mean, so the
//! predictor always degrades gracefully.
//!
//! The fit runs once per sample, in [`Forecaster::update`], over one
//! contiguous slice and preallocated scratch, so a sample allocates
//! nothing; [`Forecaster::forecast`] returns the stored result.

use super::Forecaster;

/// AR(p) least-squares predictor over a sliding window.
#[derive(Debug, Clone)]
pub struct AutoRegressive {
    order: usize,
    window: usize,
    /// The window is the last `window` entries. The buffer holds up to
    /// twice that and drops its older half when full, so the window is
    /// always one contiguous slice at amortized O(1) per sample.
    buf: Vec<f64>,
    /// Normal-equation scratch: the `order × order` matrix, then the
    /// right-hand side.
    system: Vec<f64>,
    /// The forecast for the next sample, fitted on the latest update.
    next: Option<f64>,
}

impl AutoRegressive {
    /// A fresh AR predictor.
    ///
    /// # Panics
    /// Panics if `order == 0` or `window < order + 2` (not enough data
    /// for even one regression row plus a residual degree of freedom).
    pub fn new(order: usize, window: usize) -> Self {
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(order > 0, "AR order must be positive");
        // simlint: allow(panic-in-lib): documented `# Panics` constructor precondition
        assert!(
            window >= order + 2,
            "window {window} too small for AR({order})"
        );
        AutoRegressive {
            order,
            window,
            buf: Vec::with_capacity(2 * window),
            system: vec![0.0; order * order + order],
            next: None,
        }
    }
}

/// One-step forecast from `data` (oldest first) with an AR(`p`) fit,
/// using `system` (`p·p + p` entries) as scratch. `None` only when
/// `data` is empty.
///
/// Each entry of the normal equations is its own dot product summed
/// from `0.0` in ascending `t`, the order a row-by-row accumulation
/// gives every entry, and the matrix is filled symmetric from its
/// upper triangle: `x·y == y·x` bit for bit.
fn predict(data: &[f64], p: usize, system: &mut [f64]) -> Option<f64> {
    let n = data.len();
    if n == 0 {
        return None;
    }
    let mean = data.iter().sum::<f64>() / n as f64;
    if n < p + 2 {
        return Some(mean);
    }
    // Normal equations A a = b for rows t = p..n of the centred series
    // c = data - mean:  c_t = sum_i a_i * c_{t-1-i}.
    let (a, b) = system.split_at_mut(p * p);
    let lag = |i: usize| data[p - 1 - i..n - 1 - i].iter().map(|x| x - mean);
    for i in 0..p {
        for j in i..p {
            let dot = lag(i).zip(lag(j)).fold(0.0, |s, (x, y)| s + x * y);
            a[i * p + j] = dot;
            a[j * p + i] = dot;
        }
        b[i] = lag(i)
            .zip(&data[p..])
            .fold(0.0, |s, (x, y)| s + x * (y - mean));
    }
    // Ridge-free solve; fall back to the mean on singularity.
    if !solve_linear(a, b, p) {
        return Some(mean);
    }
    let mut pred = 0.0;
    for (i, &ci) in b.iter().enumerate() {
        // coeff i multiplies the value i+1 steps back.
        pred += ci * (data[n - 1 - i] - mean);
    }
    Some(mean + pred)
}

/// Solve `A x = b` for a small dense system in place by Gaussian
/// elimination with partial pivoting, leaving `x` in `b`. Returns
/// `false` when the matrix is numerically singular.
fn solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        // Partial pivot.
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
            return false;
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        // Eliminate below.
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
    // Back substitution; rows below `row` already hold their solution.
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * b[k];
        }
        b[row] = acc / a[row * n + row];
    }
    true
}

impl Forecaster for AutoRegressive {
    fn name(&self) -> String {
        format!("ar({},{})", self.order, self.window)
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() == 2 * self.window {
            self.buf.drain(..self.window);
        }
        self.buf.push(value);
        let data = &self.buf[self.buf.len().saturating_sub(self.window)..];
        self.next = predict(data, self.order, &mut self.system);
    }

    fn forecast(&self) -> Option<f64> {
        self.next
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.next = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_linear_known_system() {
        // 2x + y = 5 ; x + 3y = 10  ⇒  x = 1, y = 3.
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        assert!(solve_linear(&mut a, &mut b, 2));
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_needs_pivoting() {
        // Zero in the top-left forces a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![2.0, 3.0];
        assert!(solve_linear(&mut a, &mut b, 2));
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_detects_singularity() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(!solve_linear(&mut a, &mut b, 2));
    }

    #[test]
    fn constant_signal_falls_back_to_mean() {
        let mut f = AutoRegressive::new(2, 16);
        for _ in 0..16 {
            f.update(0.7);
        }
        let p = f.forecast().unwrap();
        assert!((p - 0.7).abs() < 1e-9);
    }

    #[test]
    fn learns_a_sinusoid_exactly() {
        // A sampled sinusoid satisfies the exact zero-mean AR(2)
        // recurrence x_t = 2·cos(ω)·x_{t-1} - x_{t-2}, so an AR(2) fit
        // should predict the next sample to numerical precision.
        let omega = 0.37;
        let mut f = AutoRegressive::new(2, 64);
        for t in 0..64 {
            f.update((omega * t as f64).sin());
        }
        let predicted = f.forecast().unwrap();
        let actual = (omega * 64.0).sin();
        // The window's sample mean is not exactly zero (incomplete
        // periods), so centring introduces a small bias; the fit is
        // near-exact rather than exact.
        assert!(
            (predicted - actual).abs() < 0.02,
            "predicted {predicted}, actual {actual}"
        );
    }

    #[test]
    fn learns_an_alternating_process() {
        // x_t = -x_{t-1} around a mean of 0.5: values 0.9, 0.1, 0.9, ...
        // AR(1) on the centred series has coefficient -1.
        let mut f = AutoRegressive::new(1, 32);
        for i in 0..32 {
            f.update(if i % 2 == 0 { 0.9 } else { 0.1 });
        }
        // Last value was 0.1 (i=31 odd), next is 0.9.
        let p = f.forecast().unwrap();
        assert!((p - 0.9).abs() < 1e-6, "predicted {p}");
    }

    #[test]
    fn too_little_data_falls_back_to_mean() {
        let mut f = AutoRegressive::new(2, 16);
        f.update(1.0);
        f.update(3.0);
        assert_eq!(f.forecast(), Some(2.0));
    }

    #[test]
    fn forecast_none_when_empty() {
        let f = AutoRegressive::new(1, 8);
        assert_eq!(f.forecast(), None);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn window_must_cover_order() {
        AutoRegressive::new(4, 5);
    }
}
