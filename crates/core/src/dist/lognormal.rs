//! Log-normal distribution — the paper's alternative family for positive
//! real features (§IV-A). Closed-form MLE: fit a normal to `ln x`.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Floor on the fitted log-space standard deviation so constant samples
/// produce a sharp but finite density.
const MIN_SIGMA: f64 = 1e-6;

/// A log-normal distribution: `ln X ~ Normal(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-mean `mu` and log-std `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(CoreError::InvalidProbability {
                context: "lognormal mu",
                value: mu,
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "lognormal sigma",
                value: sigma,
            });
        }
        Ok(Self { mu, sigma })
    }

    /// Closed-form MLE: sample mean/std of `ln x`.
    pub fn fit(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(CoreError::DegenerateFit {
                distribution: "lognormal",
                reason: "no samples",
            });
        }
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &x in samples {
            if !x.is_finite() || x <= 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: "lognormal sample",
                    value: x,
                });
            }
            let lx = x.ln();
            sum += lx;
            sum_sq += lx * lx;
        }
        let n = samples.len() as f64;
        let mu = sum / n;
        let var = (sum_sq / n - mu * mu).max(0.0);
        Self::new(mu, var.sqrt().max(MIN_SIGMA))
    }

    /// Closed-form MLE from pre-accumulated sufficient statistics — the
    /// same `mean`/`variance of ln x` estimator as [`LogNormal::fit`], so
    /// streaming accumulation and slice fitting agree. Any positive total
    /// weight fits, fractional responsibility mass included.
    pub fn fit_from_stats(stats: &crate::dist::SufficientStats) -> Result<Self> {
        if stats.count() <= 0.0 {
            return Err(CoreError::DegenerateFit {
                distribution: "lognormal",
                reason: "no observation weight",
            });
        }
        Self::new(stats.mean_ln(), stats.variance_ln().sqrt().max(MIN_SIGMA))
    }

    /// Log-mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-standard-deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// Median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Log-density at `x > 0` (`-inf` for `x ≤ 0`).
    pub fn log_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 || !x.is_finite() {
            return f64::NEG_INFINITY;
        }
        let lx = x.ln();
        let z = (lx - self.mu) / self.sigma;
        -lx - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln() - 0.5 * z * z
    }

    /// Columnar variant of [`LogNormal::log_pdf`]: adds the log-density of
    /// each sample — given as `ln x`, precomputed once per item across all
    /// skill levels — to the matching slot of `out`.
    ///
    /// Callers must already have screened out non-positive or non-finite
    /// samples (the scalar guard); `μ`, `σ`, `ln σ` and the `½·ln 2π`
    /// constant are hoisted out of the loop. Each contribution keeps the
    /// scalar operation order, so the result is bitwise identical to
    /// [`LogNormal::log_pdf`] on valid samples.
    pub fn log_pdf_batch(&self, ln_xs: &[f64], out: &mut [f64]) {
        let mu = self.mu;
        let sigma = self.sigma;
        let ln_sigma = self.sigma.ln();
        let half_ln_two_pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        for (acc, &lx) in out.iter_mut().zip(ln_xs) {
            let z = (lx - mu) / sigma;
            *acc += -lx - ln_sigma - half_ln_two_pi - 0.5 * z * z;
        }
    }

    /// Density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.log_pdf(x).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn fit_recovers_parameters_of_logspace_normal() {
        // Deterministic samples whose logs have known mean/std.
        let logs: Vec<f64> = (0..1000)
            .map(|i| 1.0 + ((i as f64) / 999.0 - 0.5) * 2.0)
            .collect();
        let samples: Vec<f64> = logs.iter().map(|&l| l.exp()).collect();
        let d = LogNormal::fit(&samples).unwrap();
        let mean: f64 = logs.iter().sum::<f64>() / logs.len() as f64;
        let var: f64 = logs.iter().map(|&l| (l - mean).powi(2)).sum::<f64>() / logs.len() as f64;
        assert!((d.mu() - mean).abs() < 1e-10);
        assert!((d.sigma() - var.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn fit_rejects_empty_and_nonpositive() {
        assert!(LogNormal::fit(&[]).is_err());
        assert!(LogNormal::fit(&[1.0, 0.0]).is_err());
        assert!(LogNormal::fit(&[-1.0]).is_err());
    }

    #[test]
    fn constant_samples_yield_sharp_fit() {
        let d = LogNormal::fit(&[3.0, 3.0, 3.0]).unwrap();
        assert!((d.median() - 3.0).abs() < 1e-9);
        assert!(d.log_pdf(3.0).is_finite());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = LogNormal::new(0.5, 0.8).unwrap();
        let (lo, hi, n) = (1e-6, 80.0, 800_000);
        let h = (hi - lo) / n as f64;
        let mut total = 0.0;
        for i in 0..=n {
            let x = lo + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            total += w * d.pdf(x);
        }
        total *= h;
        assert!((total - 1.0).abs() < 1e-3, "integral was {total}");
    }

    #[test]
    fn log_pdf_nonpositive_is_neg_inf() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.log_pdf(0.0), f64::NEG_INFINITY);
        assert_eq!(d.log_pdf(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let d = LogNormal::new(0.4, 0.9).unwrap();
        let xs = [0.1f64, 1.0, 2.5, 17.0, 0.003];
        let ln_xs: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
        let mut out = vec![2.0f64; xs.len()];
        d.log_pdf_batch(&ln_xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert_eq!(got.to_bits(), (2.0 + d.log_pdf(x)).to_bits());
        }
    }

    #[test]
    fn mean_and_median_formulas() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        assert!((d.median() - 1.0f64.exp()).abs() < 1e-12);
        assert!((d.mean() - (1.0f64 + 0.125).exp()).abs() < 1e-12);
    }

    #[test]
    fn fit_from_stats_takes_any_positive_weight() {
        let mut stats = crate::dist::SufficientStats::default();
        assert!(LogNormal::fit_from_stats(&stats).is_err());
        stats.push_n(2.0, 0.2).unwrap();
        stats.push_n(8.0, 0.1).unwrap();
        let d = LogNormal::fit_from_stats(&stats).unwrap();
        let mu = (0.2 * 2.0f64.ln() + 0.1 * 8.0f64.ln()) / (0.2 + 0.1);
        assert!((d.mu() - mu).abs() < 1e-12, "{} vs {mu}", d.mu());
    }

    #[test]
    fn mle_is_likelihood_optimum() {
        let samples = [0.5, 1.2, 2.0, 3.3, 0.9];
        let fitted = LogNormal::fit(&samples).unwrap();
        let ll = |d: &LogNormal| samples.iter().map(|&x| d.log_pdf(x)).sum::<f64>();
        let best = ll(&fitted);
        let worse1 = LogNormal::new(fitted.mu() + 0.1, fitted.sigma()).unwrap();
        let worse2 = LogNormal::new(fitted.mu(), fitted.sigma() * 1.2).unwrap();
        assert!(best > ll(&worse1));
        assert!(best > ll(&worse2));
    }
}
