//! Gamma distribution for positive real features (ABV, correction counts…).
//!
//! The paper notes (§IV-B) that the gamma MLE has no closed form; we use
//! the standard *generalized Newton* iteration of Minka (2002) on the shape
//! parameter, which converges in a handful of iterations:
//!
//! ```text
//! 1/k_new = 1/k + (ln m − mean(ln x) + ln k − ψ(k)) / (k² (1/k − ψ′(k)))
//! ```
//!
//! with the scale then given by `θ = m / k` (`m` = sample mean).

use serde::{Deserialize, Serialize};

use crate::dist::check_weight;
use crate::dist::special::{digamma, ln_gamma, trigamma};
use crate::error::{CoreError, Result};

/// Maximum Newton iterations before declaring non-convergence.
const MAX_ITER: usize = 200;
/// Convergence tolerance on the shape parameter (relative).
const TOL: f64 = 1e-10;

/// A gamma distribution parameterized by shape `k > 0` and scale `θ > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    shape: f64,
    scale: f64,
    /// Cached `−ln Γ(k) − k ln θ` so `log_pdf` is two flops + a log.
    log_norm: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and scale.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "gamma shape",
                value: shape,
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "gamma scale",
                value: scale,
            });
        }
        let log_norm = -ln_gamma(shape) - shape * scale.ln();
        Ok(Self {
            shape,
            scale,
            log_norm,
        })
    }

    /// Maximum-likelihood fit via generalized Newton on the shape.
    ///
    /// Requires at least one strictly positive sample; a single sample or
    /// zero-variance samples degenerate (the MLE shape diverges), in which
    /// case the fit is clamped to a large-but-finite shape so the model
    /// stays usable, mirroring the smoothing used for discrete features.
    pub fn fit(samples: &[f64]) -> Result<Self> {
        let stats = SufficientStats::from_samples(samples)?;
        Self::fit_from_stats(&stats)
    }

    /// Fit from pre-accumulated sufficient statistics.
    pub(crate) fn fit_from_stats(stats: &SufficientStats) -> Result<Self> {
        let m = stats.mean();
        let mean_ln = stats.mean_ln();
        // s = ln m − mean(ln x) ≥ 0 by Jensen; 0 only for constant samples.
        let s = (m.ln() - mean_ln).max(0.0);
        if s < 1e-12 {
            // Degenerate: essentially constant data. Clamp to a sharp but
            // finite distribution centred on the mean.
            let shape = 1e6;
            return Gamma::new(shape, m / shape);
        }
        // Minka's initializer.
        let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
        if !k.is_finite() || k <= 0.0 {
            k = 0.5 / s;
        }
        for _ in 0..MAX_ITER {
            let num = m.ln() - mean_ln + k.ln() - digamma(k);
            let den = k * k * (1.0 / k - trigamma(k));
            let inv_new = 1.0 / k + num / den;
            if !inv_new.is_finite() || inv_new <= 0.0 {
                break; // fall back to the current iterate
            }
            let k_new = 1.0 / inv_new;
            let delta = (k_new - k).abs() / k.max(1.0);
            k = k_new;
            if delta < TOL {
                return Gamma::new(k, m / k);
            }
        }
        // Newton stalled — the iterate is still a good approximation for
        // well-posed inputs; reject only if it is unusable.
        if k.is_finite() && k > 0.0 {
            Gamma::new(k, m / k)
        } else {
            Err(CoreError::NoConvergence {
                routine: "gamma shape MLE",
                iterations: MAX_ITER,
            })
        }
    }

    /// Method-of-moments fit (`k = m²/v`, `θ = v/m`). Used as an ablation
    /// baseline against the Newton MLE in the benches.
    pub fn fit_moments(samples: &[f64]) -> Result<Self> {
        let stats = SufficientStats::from_samples(samples)?;
        let m = stats.mean();
        let v = stats.variance();
        if v < 1e-12 {
            let shape = 1e6;
            return Gamma::new(shape, m / shape);
        }
        Gamma::new(m * m / v, v / m)
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Mean `kθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Log-density at `x > 0` (`-inf` for `x ≤ 0`).
    pub fn log_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 || !x.is_finite() {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln() - x / self.scale + self.log_norm
    }

    /// Columnar variant of [`Gamma::log_pdf`]: adds the log-density of
    /// each sample to the matching slot of `out`.
    ///
    /// Callers pass `ln x` precomputed once per item across all skill
    /// levels and must already have screened out non-positive or
    /// non-finite samples (the scalar guard); `k − 1`, `θ` and the cached
    /// normalizer are loop constants. Each contribution evaluates
    /// `(k−1)·ln x − x/θ + log_norm` in exactly the scalar operation
    /// order, so the result is bitwise identical to [`Gamma::log_pdf`] on
    /// valid samples.
    pub(crate) fn log_pdf_batch(&self, xs: &[f64], ln_xs: &[f64], out: &mut [f64]) {
        let a = self.shape - 1.0;
        let scale = self.scale;
        let log_norm = self.log_norm;
        for ((acc, &x), &lx) in out.iter_mut().zip(xs).zip(ln_xs) {
            *acc += a * lx - x / scale + log_norm;
        }
    }
}

/// Sufficient statistics for gamma and log-normal fitting:
/// `Σx`, `Σ ln x`, `Σx²`, `Σ(ln x)²`, `n`, each weighted.
///
/// A weight is a whole count of repeated observations on the hard path
/// and a fractional responsibility under EM; both fits read only the
/// weighted means, so one accumulator serves both. The accumulator only
/// grows: the trainers refit from their grids (`upskill_core::incremental`)
/// instead of removing observations.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct SufficientStats {
    sum: f64,
    sum_ln: f64,
    sum_sq: f64,
    sum_ln_sq: f64,
    count: f64,
}

impl SufficientStats {
    /// Accumulates one positive observation with unit weight.
    pub fn push(&mut self, x: f64) -> Result<()> {
        self.push_n(x, 1.0)
    }

    /// Accumulates one positive observation with a finite non-negative
    /// `weight` in O(1).
    pub(crate) fn push_n(&mut self, x: f64, weight: f64) -> Result<()> {
        if !x.is_finite() || x <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "gamma sample",
                value: x,
            });
        }
        check_weight(weight)?;
        self.push_ln_n(x, x.ln(), weight);
        Ok(())
    }

    /// [`SufficientStats::push_n`] for a valid `x` and `weight` whose
    /// `ln x` the caller already holds (the catalog's column store caches
    /// it).
    pub(crate) fn push_ln_n(&mut self, x: f64, lx: f64, weight: f64) {
        self.sum += weight * x;
        self.sum_ln += weight * lx;
        self.sum_sq += weight * x * x;
        self.sum_ln_sq += weight * lx * lx;
        self.count += weight;
    }

    /// Builds statistics from a slice of samples.
    pub(crate) fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(CoreError::DegenerateFit {
                distribution: "gamma",
                reason: "no samples",
            });
        }
        let mut stats = Self::default();
        for &x in samples {
            stats.push(x)?;
        }
        Ok(stats)
    }

    /// Total weight of the accumulated observations.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sum / self.count
    }

    /// Mean of `ln x`.
    pub(crate) fn mean_ln(&self) -> f64 {
        self.sum_ln / self.count
    }

    /// Biased sample variance.
    pub(crate) fn variance(&self) -> f64 {
        let m = self.mean();
        (self.sum_sq / self.count - m * m).max(0.0)
    }

    /// Biased sample variance of `ln x` (the log-normal `σ²` MLE).
    pub(crate) fn variance_ln(&self) -> f64 {
        let m = self.mean_ln();
        (self.sum_ln_sq / self.count - m * m).max(0.0)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &SufficientStats) {
        self.sum += other.sum;
        self.sum_ln += other.sum_ln;
        self.sum_sq += other.sum_sq;
        self.sum_ln_sq += other.sum_ln_sq;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-2.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn log_pdf_matches_exponential_special_case() {
        // Gamma(1, θ) is Exponential(1/θ): pdf(x) = e^{−x/θ}/θ
        let g = Gamma::new(1.0, 2.0).unwrap();
        for &x in &[0.1, 1.0, 5.0] {
            let want = (-x / 2.0f64).exp() / 2.0;
            assert!((g.log_pdf(x).exp() - want).abs() < 1e-12);
        }
    }

    #[test]
    fn log_pdf_nonpositive_is_neg_inf() {
        let g = Gamma::new(2.0, 1.0).unwrap();
        assert_eq!(g.log_pdf(0.0), f64::NEG_INFINITY);
        assert_eq!(g.log_pdf(-3.0), f64::NEG_INFINITY);
        assert_eq!(g.log_pdf(f64::NAN), f64::NEG_INFINITY);
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let g = Gamma::new(2.3, 0.8).unwrap();
        let xs = [0.1f64, 1.0, 2.5, 17.0, 0.003];
        let ln_xs: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
        let mut out = vec![-1.5f64; xs.len()];
        g.log_pdf_batch(&xs, &ln_xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert_eq!(got.to_bits(), (-1.5 + g.log_pdf(x)).to_bits());
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = Gamma::new(3.0, 1.5).unwrap();
        // Trapezoidal integration over a wide support.
        let (lo, hi, n) = (1e-6, 60.0, 600_000);
        let h = (hi - lo) / n as f64;
        let mut total = 0.0;
        for i in 0..=n {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            total += w * g.log_pdf(x).exp();
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-4, "integral was {total}");
    }

    #[test]
    fn fit_recovers_parameters() {
        // Deterministic pseudo-samples from inverse-CDF-ish spread around a
        // Gamma(4, 0.5): use a fixed LCG to generate gamma draws via
        // sum of exponentials (shape 4 is integer: Erlang).
        let mut state = 0x12345678u64;
        let mut unif = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let mut acc = 0.0;
                for _ in 0..4 {
                    acc += -0.5 * (1.0 - unif()).ln(); // Exp(scale 0.5)
                }
                acc
            })
            .collect();
        let g = Gamma::fit(&samples).unwrap();
        assert!((g.shape() - 4.0).abs() < 0.15, "shape {}", g.shape());
        assert!((g.scale() - 0.5).abs() < 0.05, "scale {}", g.scale());
    }

    #[test]
    fn fit_beats_method_of_moments_in_likelihood() {
        let samples: Vec<f64> = (1..200)
            .map(|i| 0.2 + (i as f64 * 0.37).sin().abs() * 4.0 + i as f64 * 0.01)
            .collect();
        let mle = Gamma::fit(&samples).unwrap();
        let mom = Gamma::fit_moments(&samples).unwrap();
        let ll = |g: &Gamma| samples.iter().map(|&x| g.log_pdf(x)).sum::<f64>();
        assert!(ll(&mle) >= ll(&mom) - 1e-9);
    }

    #[test]
    fn constant_samples_yield_sharp_finite_fit() {
        let g = Gamma::fit(&[2.0, 2.0, 2.0, 2.0]).unwrap();
        assert!((g.mean() - 2.0).abs() < 1e-9);
        assert!(g.log_pdf(2.0).is_finite());
        assert!(g.shape() * g.scale() * g.scale() < 1e-3);
    }

    #[test]
    fn single_sample_is_usable() {
        let g = Gamma::fit(&[3.5]).unwrap();
        assert!((g.mean() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn fit_rejects_empty_and_nonpositive() {
        assert!(Gamma::fit(&[]).is_err());
        assert!(Gamma::fit(&[1.0, -2.0]).is_err());
        assert!(Gamma::fit(&[1.0, 0.0]).is_err());
    }

    #[test]
    fn sufficient_stats_merge_equals_bulk() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 0.5];
        let mut left = SufficientStats::from_samples(&a).unwrap();
        let right = SufficientStats::from_samples(&b).unwrap();
        left.merge(&right);
        let all = SufficientStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 0.5]).unwrap();
        assert!((left.mean() - all.mean()).abs() < 1e-12);
        assert!((left.mean_ln() - all.mean_ln()).abs() < 1e-12);
        assert!((left.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn mean_formula() {
        let g = Gamma::new(2.5, 3.0).unwrap();
        assert!((g.mean() - 7.5).abs() < 1e-12);
    }
}
