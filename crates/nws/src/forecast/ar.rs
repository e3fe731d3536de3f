//! Autoregressive prediction: the battery's `ar(2,64)` member.
//!
//! Fits a mean-centred AR(2) model to the last 64 samples by least
//! squares and forecasts one step ahead. When the window is too short or
//! the normal equations are singular (e.g. a constant signal), it falls
//! back to the window mean, so the predictor always degrades gracefully.
//! A fit allocates nothing.

/// One-step forecast from `data` (oldest first, not empty) with an
/// AR(2) fit, where `mean` is `data`'s mean summed oldest-first.
///
/// The five distinct entries of the normal equations are accumulated in
/// one pass over the centred window, each from `0.0` in ascending `t`:
/// the order in which a row-by-row accumulation sums every entry, so
/// each keeps its bits. The matrix is symmetric, and `x·y == y·x` bit
/// for bit.
pub(super) fn ar2(data: &[f64], mean: f64) -> f64 {
    let n = data.len();
    if n < 4 {
        return mean;
    }
    // Normal equations A a = b for rows t = 2..n of the centred series
    // c = data - mean:  c_t = a_0 * c_{t-1} + a_1 * c_{t-2}.
    let (mut a00, mut a01, mut a11, mut b0, mut b1) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut c2, mut c1) = (data[0] - mean, data[1] - mean);
    for &y in &data[2..] {
        let c = y - mean;
        a00 += c1 * c1;
        a01 += c1 * c2;
        a11 += c2 * c2;
        b0 += c1 * c;
        b1 += c2 * c;
        (c2, c1) = (c1, c);
    }
    let mut a = [a00, a01, a01, a11];
    let mut b = [b0, b1];
    // Ridge-free solve; fall back to the mean on singularity.
    if !solve_linear(&mut a, &mut b, 2) {
        return mean;
    }
    let mut pred = 0.0;
    for (i, &ci) in b.iter().enumerate() {
        // coeff i multiplies the value i+1 steps back.
        pred += ci * (data[n - 1 - i] - mean);
    }
    mean + pred
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
        let data = [0.7; 16];
        let mean = data.iter().sum::<f64>() / 16.0;
        assert_eq!(ar2(&data, mean), mean);
    }

    #[test]
    fn collinear_lags_fall_back_to_mean() {
        // 0.9, 0.1, 0.9, ...: around the mean, each lag is minus the
        // other, so the normal equations are singular.
        let data: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 0.9 } else { 0.1 })
            .collect();
        let mean = data.iter().sum::<f64>() / 32.0;
        assert_eq!(ar2(&data, mean), mean);
    }

    #[test]
    fn too_little_data_falls_back_to_mean() {
        assert_eq!(ar2(&[1.0, 3.0, 2.0], 2.0), 2.0);
    }
}
