//! Poisson distribution for count features (Eq. 7 of the paper).
//!
//! The per-skill Poisson rate is the sample mean of the counts observed at
//! that skill level — the closed-form MLE.

use serde::{Deserialize, Serialize};

use crate::dist::special::ln_factorial;
use crate::error::{CoreError, Result};

/// Lower bound on the fitted rate so that `log_pmf` stays finite even when a
/// skill level only observed zeros. Plays the same smoothing role as the
/// categorical pseudo-count.
pub(crate) const MIN_RATE: f64 = 1e-9;

/// A Poisson distribution with rate `λ > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    rate: f64,
    ln_rate: f64,
}

impl Poisson {
    /// Creates a Poisson with the given rate.
    pub fn new(rate: f64) -> Result<Self> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "poisson rate",
                value: rate,
            });
        }
        Ok(Self {
            rate,
            ln_rate: rate.ln(),
        })
    }

    /// Closed-form MLE (Eq. 7): the sample mean, floored at `MIN_RATE`.
    pub fn fit(samples: &[u64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(CoreError::DegenerateFit {
                distribution: "poisson",
                reason: "no samples",
            });
        }
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        Self::new(mean.max(MIN_RATE))
    }

    /// Weighted MLE from a sum and a count (used by the trainer, which
    /// accumulates sufficient statistics instead of materializing samples).
    pub(crate) fn fit_from_moments(sum: f64, count: f64) -> Result<Self> {
        if count <= 0.0 {
            return Err(CoreError::DegenerateFit {
                distribution: "poisson",
                reason: "zero observation weight",
            });
        }
        Self::new((sum / count).max(MIN_RATE))
    }

    /// The rate parameter λ (also the mean and variance).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.rate
    }

    /// Log-probability mass at `k`.
    pub fn log_pmf(&self, k: u64) -> f64 {
        k as f64 * self.ln_rate - self.rate - ln_factorial(k)
    }

    /// Columnar variant of [`Poisson::log_pmf`]: adds the log-PMF of each
    /// count to the matching slot of `out`.
    ///
    /// Callers pass the counts pre-widened to `f64` together with their
    /// `ln k!` values so both are computed once per item across all skill
    /// levels instead of once per (item, level) cell; `λ` and `ln λ` are
    /// loop constants. Each contribution evaluates
    /// `k·ln λ − λ − ln k!` in exactly the scalar operation order, so the
    /// result is bitwise identical to [`Poisson::log_pmf`].
    pub(crate) fn log_pmf_batch(&self, ks: &[f64], ln_facts: &[f64], out: &mut [f64]) {
        let rate = self.rate;
        let ln_rate = self.ln_rate;
        for ((acc, &kf), &lf) in out.iter_mut().zip(ks).zip(ln_facts) {
            *acc += kf * ln_rate - rate - lf;
        }
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.log_pmf(k).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rate() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Poisson::new(bad).is_err());
        }
    }

    #[test]
    fn fit_is_sample_mean() {
        let p = Poisson::fit(&[1, 2, 3, 4]).unwrap();
        assert!((p.rate() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn fit_empty_rejected() {
        assert!(Poisson::fit(&[]).is_err());
    }

    #[test]
    fn all_zero_samples_floored() {
        let p = Poisson::fit(&[0, 0, 0]).unwrap();
        assert_eq!(p.rate(), MIN_RATE);
        assert!(p.log_pmf(0).is_finite());
    }

    #[test]
    fn log_pmf_matches_known_values() {
        // Poisson(2): P(0)=e^-2, P(1)=2e^-2, P(3)=8/6·e^-2
        let p = Poisson::new(2.0).unwrap();
        assert!((p.pmf(0) - (-2.0f64).exp()).abs() < 1e-12);
        assert!((p.pmf(1) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
        assert!((p.pmf(3) - 8.0 / 6.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn pmf_sums_to_one() {
        let p = Poisson::new(3.7).unwrap();
        let total: f64 = (0..200).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mle_is_likelihood_optimum() {
        let samples = [3u64, 5, 2, 8, 4];
        let fitted = Poisson::fit(&samples).unwrap();
        let ll = |rate: f64| -> f64 {
            let p = Poisson::new(rate).unwrap();
            samples.iter().map(|&k| p.log_pmf(k)).sum()
        };
        let best = ll(fitted.rate());
        assert!(best > ll(fitted.rate() * 1.05));
        assert!(best > ll(fitted.rate() * 0.95));
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        // Counts straddle the `ln_factorial` table boundary so both the
        // table and the loop path are exercised.
        let p = Poisson::new(3.7).unwrap();
        let counts = [0u64, 1, 5, 31, 32, 200];
        let ks: Vec<f64> = counts.iter().map(|&k| k as f64).collect();
        let lfs: Vec<f64> = counts.iter().map(|&k| ln_factorial(k)).collect();
        let mut out = vec![0.5f64; counts.len()];
        p.log_pmf_batch(&ks, &lfs, &mut out);
        for (&k, &got) in counts.iter().zip(&out) {
            assert_eq!(got.to_bits(), (0.5 + p.log_pmf(k)).to_bits());
        }
    }

    #[test]
    fn fit_from_moments_matches_fit() {
        let samples = [1u64, 4, 7];
        let a = Poisson::fit(&samples).unwrap();
        let b = Poisson::fit_from_moments(12.0, 3.0).unwrap();
        assert!((a.rate() - b.rate()).abs() < 1e-15);
    }
}
