//! Correlation measures used throughout the paper's evaluation:
//! Pearson's `r`, Spearman's `ρ`, and Kendall's `τ` (the τ-b variant, which
//! handles ties — necessary because skill levels are small integers).
//!
//! Kendall's τ is computed in `O(n log n)` with a merge-sort inversion
//! count rather than the naive `O(n²)` pair scan; the naive version is kept
//! as [`kendall_tau_naive`] for the ablation bench and cross-checking.

use crate::EvalError;
use upskill_core::float_cmp::{exact_eq, is_zero};

/// Pearson product-moment correlation coefficient.
///
/// Returns an error for mismatched lengths, fewer than 2 points, or
/// zero-variance inputs.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, EvalError> {
    check_paired(x, y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if is_zero(sxx) || is_zero(syy) {
        return Err(EvalError::ZeroVariance);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Fractional ranks (average rank for ties), 1-based.
pub fn fractional_ranks(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && exact_eq(x[order[j + 1]], x[order[i]]) {
            j += 1;
        }
        // Average of ranks i+1 ..= j+1.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman's rank correlation: Pearson on fractional ranks.
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64, EvalError> {
    check_paired(x, y)?;
    pearson(&fractional_ranks(x), &fractional_ranks(y))
}

/// Kendall's τ-b in `O(n log n)` (Knight's algorithm).
pub fn kendall_tau(x: &[f64], y: &[f64]) -> Result<f64, EvalError> {
    check_paired(x, y)?;
    let n = x.len();

    // Sort by x, tie-break by y.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        x[a].partial_cmp(&x[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(y[a].partial_cmp(&y[b]).unwrap_or(std::cmp::Ordering::Equal))
    });
    let ys: Vec<f64> = order.iter().map(|&i| y[i]).collect();
    let xs: Vec<f64> = order.iter().map(|&i| x[i]).collect();

    let n_pairs = n as f64 * (n as f64 - 1.0) / 2.0;

    // Ties in x (t1), joint ties (t3).
    let mut ties_x = 0.0;
    let mut ties_xy = 0.0;
    {
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && exact_eq(xs[j + 1], xs[i]) {
                j += 1;
            }
            let run = (j - i + 1) as f64;
            ties_x += run * (run - 1.0) / 2.0;
            // Joint ties within the x-run.
            let mut k = i;
            while k <= j {
                let mut m = k;
                while m < j && exact_eq(ys[m + 1], ys[k]) {
                    m += 1;
                }
                let jr = (m - k + 1) as f64;
                ties_xy += jr * (jr - 1.0) / 2.0;
                k = m + 1;
            }
            i = j + 1;
        }
    }

    // Ties in y (t2).
    let mut sorted_y: Vec<f64> = y.to_vec();
    sorted_y.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut ties_y = 0.0;
    {
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && exact_eq(sorted_y[j + 1], sorted_y[i]) {
                j += 1;
            }
            let run = (j - i + 1) as f64;
            ties_y += run * (run - 1.0) / 2.0;
            i = j + 1;
        }
    }

    // Discordant pairs = inversions of ys via merge sort.
    let mut buf = ys.clone();
    let mut tmp = vec![0.0; n];
    let swaps = merge_count(&mut buf, &mut tmp);

    let concordant_minus_discordant = n_pairs - ties_x - ties_y + ties_xy - 2.0 * swaps as f64;
    let denom = ((n_pairs - ties_x) * (n_pairs - ties_y)).sqrt();
    if is_zero(denom) {
        return Err(EvalError::ZeroVariance);
    }
    Ok(concordant_minus_discordant / denom)
}

/// Counts inversions while merge-sorting `a` in place.
fn merge_count(a: &mut [f64], tmp: &mut [f64]) -> u64 {
    let n = a.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = a.split_at_mut(mid);
    let mut inv = merge_count(left, &mut tmp[..mid]) + merge_count(right, &mut tmp[mid..]);
    // Merge.
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            tmp[k] = left[i];
            i += 1;
        } else {
            tmp[k] = right[j];
            inv += (left.len() - i) as u64;
            j += 1;
        }
        k += 1;
    }
    while i < left.len() {
        tmp[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        tmp[k] = right[j];
        j += 1;
        k += 1;
    }
    a.copy_from_slice(&tmp[..n]);
    inv
}

/// Naive `O(n²)` Kendall τ-b, for verification and the ablation bench.
pub fn kendall_tau_naive(x: &[f64], y: &[f64]) -> Result<f64, EvalError> {
    check_paired(x, y)?;
    let n = x.len();
    let (mut concordant, mut discordant) = (0f64, 0f64);
    let (mut ties_x, mut ties_y) = (0f64, 0f64);
    for i in 0..n {
        for j in i + 1..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if is_zero(dx) && is_zero(dy) {
                // joint tie: counts in neither
            } else if is_zero(dx) {
                ties_x += 1.0;
            } else if is_zero(dy) {
                ties_y += 1.0;
            } else if dx * dy > 0.0 {
                concordant += 1.0;
            } else {
                discordant += 1.0;
            }
        }
    }
    let n0 = n as f64 * (n as f64 - 1.0) / 2.0;
    // Joint ties subtract from both tie totals in τ-b's denominator terms.
    let mut joint = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            if exact_eq(x[i], x[j]) && exact_eq(y[i], y[j]) {
                joint += 1.0;
            }
        }
    }
    let tx = ties_x + joint;
    let ty = ties_y + joint;
    let denom = ((n0 - tx) * (n0 - ty)).sqrt();
    if is_zero(denom) {
        return Err(EvalError::ZeroVariance);
    }
    Ok((concordant - discordant) / denom)
}

fn check_paired(x: &[f64], y: &[f64]) -> Result<(), EvalError> {
    if x.len() != y.len() {
        return Err(EvalError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(EvalError::TooFewSamples {
            needed: 2,
            got: x.len(),
        });
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(EvalError::NonFiniteInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_correlations() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y_pos = [2.0, 4.0, 6.0, 8.0];
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y_pos).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed: x=[1,2,3], y=[1,3,2] → r = 0.5
        let r = pearson(&[1.0, 2.0, 3.0], &[1.0, 3.0, 2.0]).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pearson_error_cases() {
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(EvalError::TooFewSamples { .. })
        ));
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0]),
            Err(EvalError::LengthMismatch { .. })
        ));
        assert!(matches!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(EvalError::ZeroVariance)
        ));
        assert!(matches!(
            pearson(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(EvalError::NonFiniteInput)
        ));
    }

    #[test]
    fn fractional_ranks_handle_ties() {
        let r = fractional_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let r2 = fractional_ranks(&[5.0, 5.0, 5.0]);
        assert_eq!(r2, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn spearman_is_rank_invariant() {
        // Monotone transform leaves ρ = 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_known_value() {
        // Classic example: x=[1..5], y=[2,1,4,3,5] → ρ = 0.8? Compute:
        // ranks equal values; d = [1,-1,1,-1,0], Σd² = 4, ρ = 1 − 24/(5·24) = 0.8
        let rho = spearman(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.0, 1.0, 4.0, 3.0, 5.0]).unwrap();
        assert!((rho - 0.8).abs() < 1e-12);
    }

    #[test]
    fn kendall_perfect_and_reversed() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let fwd = [1.0, 2.0, 3.0, 4.0];
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&x, &fwd).unwrap() - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&x, &rev).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_fast_matches_naive_with_ties() {
        // Deterministic pseudo-random data with many ties.
        let mut state = 12345u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for trial in 0..20 {
            let n = 30 + trial;
            let x: Vec<f64> = (0..n).map(|_| next(5) as f64).collect();
            let y: Vec<f64> = (0..n).map(|_| next(7) as f64).collect();
            let fast = kendall_tau(&x, &y);
            let naive = kendall_tau_naive(&x, &y);
            match (fast, naive) {
                (Ok(a), Ok(b)) => {
                    assert!((a - b).abs() < 1e-10, "trial {trial}: {a} vs {b}")
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("trial {trial}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn kendall_known_value() {
        // x=[1,2,3,4], y=[1,3,2,4]: 5 concordant, 1 discordant → τ = 4/6.
        let tau = kendall_tau(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]).unwrap();
        assert!((tau - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_all_tied_is_error() {
        assert!(matches!(
            kendall_tau(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(EvalError::ZeroVariance)
        ));
    }

    #[test]
    fn correlations_are_symmetric() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0];
        assert!((pearson(&x, &y).unwrap() - pearson(&y, &x).unwrap()).abs() < 1e-12);
        assert!((kendall_tau(&x, &y).unwrap() - kendall_tau(&y, &x).unwrap()).abs() < 1e-12);
        assert!((spearman(&x, &y).unwrap() - spearman(&y, &x).unwrap()).abs() < 1e-12);
    }
}
