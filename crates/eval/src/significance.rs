//! Statistical significance: the Wilcoxon signed-rank test (used by the
//! paper to compare per-item squared errors between models) with a normal
//! approximation and tie correction, plus Bonferroni adjustment.

use crate::correlation::fractional_ranks;
use crate::EvalError;

/// Result of a Wilcoxon signed-rank test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilcoxonResult {
    /// Sum of ranks of positive differences (`W+`).
    pub w_plus: f64,
    /// Sum of ranks of negative differences (`W−`).
    pub w_minus: f64,
    /// Standardized test statistic (z-score, continuity-corrected).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// Number of non-zero differences actually ranked.
    pub n_used: usize,
}

/// Wilcoxon signed-rank test on paired samples (two-sided).
///
/// Zero differences are dropped (Wilcoxon's original procedure); tied
/// absolute differences share fractional ranks with the variance corrected
/// accordingly. Uses the normal approximation, adequate for `n ≳ 20`
/// (the paper's comparisons have hundreds of pairs).
pub fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> Result<WilcoxonResult, EvalError> {
    if a.len() != b.len() {
        return Err(EvalError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.iter().chain(b).any(|v| !v.is_finite()) {
        return Err(EvalError::NonFiniteInput);
    }
    let diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| x - y)
        .filter(|&d| !upskill_core::float_cmp::is_zero(d))
        .collect();
    let n = diffs.len();
    if n < 5 {
        return Err(EvalError::TooFewSamples { needed: 5, got: n });
    }
    let abs: Vec<f64> = diffs.iter().map(|d| d.abs()).collect();
    let ranks = fractional_ranks(&abs);
    let mut w_plus = 0.0;
    let mut w_minus = 0.0;
    for (d, r) in diffs.iter().zip(&ranks) {
        if *d > 0.0 {
            w_plus += r;
        } else {
            w_minus += r;
        }
    }
    let nf = n as f64;
    let mean = nf * (nf + 1.0) / 4.0;
    // Tie correction: subtract Σ(t³ − t)/48 from the variance.
    let mut tie_term = 0.0;
    {
        let mut sorted = abs.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && sorted[j + 1] == sorted[i] {
                j += 1;
            }
            let t = (j - i + 1) as f64;
            tie_term += t * t * t - t;
            i = j + 1;
        }
    }
    let var = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0 - tie_term / 48.0;
    if var <= 0.0 {
        return Err(EvalError::ZeroVariance);
    }
    let w = w_plus.min(w_minus);
    // Continuity correction toward the mean.
    let z = (w - mean + 0.5) / var.sqrt();
    let p = 2.0 * normal_cdf(z);
    Ok(WilcoxonResult {
        w_plus,
        w_minus,
        z,
        p_value: p.min(1.0),
        n_used: n,
    })
}

/// Standard normal CDF via `erfc` (Abramowitz–Stegun 7.1.26 rational
/// approximation, |error| < 1.5e−7 — ample for reporting p-values).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let e = poly * (-x * x).exp();
    if x >= 0.0 {
        e
    } else {
        2.0 - e
    }
}

/// Bonferroni-adjusted p-values for `m` simultaneous comparisons.
pub fn bonferroni(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len() as f64;
    p_values.iter().map(|&p| (p * m).min(1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(-6.0) < 1e-8);
        assert!(normal_cdf(6.0) > 1.0 - 1e-8);
    }

    #[test]
    fn wilcoxon_detects_consistent_difference() {
        // b consistently larger than a by a varying amount.
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| i as f64 + 1.0 + (i % 3) as f64).collect();
        let r = wilcoxon_signed_rank(&a, &b).unwrap();
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
        assert!(r.w_plus < r.w_minus);
    }

    #[test]
    fn wilcoxon_no_difference_is_insignificant() {
        // Symmetric differences around zero.
        let a: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..40)
            .map(|i| i as f64 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let r = wilcoxon_signed_rank(&a, &b).unwrap();
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn wilcoxon_drops_zero_differences() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let b = [1.0, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5];
        let r = wilcoxon_signed_rank(&a, &b).unwrap();
        assert_eq!(r.n_used, 6); // first pair tied at zero difference
    }

    #[test]
    fn wilcoxon_error_cases() {
        assert!(wilcoxon_signed_rank(&[1.0], &[2.0, 3.0]).is_err());
        assert!(wilcoxon_signed_rank(&[1.0, 2.0], &[1.0, 2.0]).is_err()); // all zero diffs
        assert!(wilcoxon_signed_rank(&[f64::NAN; 6], &[0.0; 6]).is_err());
    }

    #[test]
    fn wilcoxon_symmetry() {
        let a: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos() + 2.1).collect();
        let ab = wilcoxon_signed_rank(&a, &b).unwrap();
        let ba = wilcoxon_signed_rank(&b, &a).unwrap();
        assert!((ab.p_value - ba.p_value).abs() < 1e-12);
        assert!((ab.w_plus - ba.w_minus).abs() < 1e-9);
    }

    #[test]
    fn bonferroni_scales_and_caps() {
        let adjusted = bonferroni(&[0.01, 0.04, 0.5]);
        assert!((adjusted[0] - 0.03).abs() < 1e-12);
        assert!((adjusted[1] - 0.12).abs() < 1e-12);
        assert_eq!(adjusted[2], 1.0);
        assert!(bonferroni(&[]).is_empty());
    }
}
