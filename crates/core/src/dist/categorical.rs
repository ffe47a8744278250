//! Smoothed categorical distribution (Eq. 6 of the paper).
//!
//! The per-skill categorical parameter `θ_f(s) = (θ_f1(s), …, θ_fC(s))` is
//! fit in closed form with additive (Laplace) smoothing using a pseudo-count
//! `λ` to avoid the zero-frequency problem:
//!
//! ```text
//! θ_fc(s) = (λ + count(c)) / (λ·C + total)
//! ```
//!
//! Every fit runs one body, `Categorical::refit`, which writes into the
//! distribution's own buffers: a refit of a catalog-sized cell (the
//! item-ID feature, `C` = the catalog) allocates nothing once the buffers
//! have the right length. Whole counts below a small bound repeat across
//! a sparse cell (most items have 0, 1 or 2 actions at a level), so their
//! `(λ + c) / denom` and its `ln` are computed once per fit and gathered.
//! The memoised value is computed from the same inputs by the same
//! operations, so the bits do not depend on the memo.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Default pseudo-count, following Shin et al. (paper §IV-B).
pub const DEFAULT_SMOOTHING: f64 = 0.01;

/// Whole counts `0..MEMO_COUNTS` share one probability and `ln` per fit.
const MEMO_COUNTS: usize = 64;

/// A categorical distribution over `0..cardinality` with log-probabilities
/// cached for fast scoring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Categorical {
    /// Probability of each category (sums to 1).
    probs: Vec<f64>,
    /// Cached natural logs of `probs`.
    log_probs: Vec<f64>,
}

impl Categorical {
    /// Builds a distribution from explicit probabilities.
    ///
    /// Probabilities must be non-negative, finite, and sum to 1 within
    /// `1e-9` tolerance (they are renormalized exactly afterwards).
    pub fn from_probs(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(CoreError::DegenerateFit {
                distribution: "categorical",
                reason: "zero categories",
            });
        }
        let mut sum = 0.0;
        for &p in &probs {
            if !p.is_finite() || p < 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: "categorical probability",
                    value: p,
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::InvalidProbability {
                context: "categorical probabilities sum",
                value: sum,
            });
        }
        let probs: Vec<f64> = probs.into_iter().map(|p| p / sum).collect();
        let log_probs = probs.iter().map(|&p| p.ln()).collect();
        Ok(Self { probs, log_probs })
    }

    /// Fits the smoothed MLE (Eq. 6) from per-category counts.
    ///
    /// A count is any finite non-negative weight: whole action counts on
    /// the hard path, responsibility mass under EM. `lambda` is the
    /// additive pseudo-count; `lambda = 0` yields the raw MLE (and `-inf`
    /// log-probabilities for unseen categories).
    pub fn fit_from_counts(counts: &[f64], lambda: f64) -> Result<Self> {
        if let Some(&bad) = counts.iter().find(|c| !c.is_finite() || **c < 0.0) {
            return Err(CoreError::InvalidProbability {
                context: "categorical count",
                value: bad,
            });
        }
        let mut fit = Self::empty();
        fit.refit(counts.iter().copied(), counts.iter().sum(), lambda)?;
        Ok(fit)
    }

    /// A categorical with no categories and no buffers: a cell for a fit
    /// to refit into. It scores `-inf` everywhere and is never handed out
    /// unfitted.
    pub(crate) fn empty() -> Self {
        Self {
            probs: Vec::new(),
            log_probs: Vec::new(),
        }
    }

    /// Refits Eq. 6 into this distribution's buffers from checked
    /// `counts` and their `total`: the one body of every categorical fit.
    ///
    /// Buffers of the counts' length are overwritten; others are
    /// emptied and regrown. A whole count below the memo bound computes
    /// `(λ + c) / denom` and its `ln` once per fit; any other count
    /// (EM's fractional masses) computes them itself, after one cast
    /// compare. On error the buffers are left as they were.
    pub(crate) fn refit(
        &mut self,
        counts: impl ExactSizeIterator<Item = f64>,
        total: f64,
        lambda: f64,
    ) -> Result<()> {
        let n = counts.len();
        if n == 0 {
            return Err(CoreError::DegenerateFit {
                distribution: "categorical",
                reason: "zero categories",
            });
        }
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "categorical smoothing lambda",
                value: lambda,
            });
        }
        let denom = lambda * n as f64 + total;
        if denom <= 0.0 {
            return Err(CoreError::DegenerateFit {
                distribution: "categorical",
                reason: "no observations and no smoothing",
            });
        }
        for buffer in [&mut self.probs, &mut self.log_probs] {
            if buffer.len() != n {
                buffer.clear();
                buffer.resize(n, 0.0);
            }
        }
        let fit = |c: f64| {
            let p = (lambda + c) / denom;
            (p, p.ln())
        };
        // NaN marks a slot not yet computed: `p` is never NaN for a
        // finite whole count, and a NaN slot is only recomputed.
        let mut memo = [(f64::NAN, f64::NAN); MEMO_COUNTS];
        let cells = self.probs.iter_mut().zip(self.log_probs.iter_mut());
        for ((p, log_p), c) in cells.zip(counts) {
            let whole = c as usize;
            (*p, *log_p) = match memo.get_mut(whole) {
                Some(slot) if (whole as f64).to_bits() == c.to_bits() => {
                    if slot.0.is_nan() {
                        *slot = fit(c);
                    }
                    *slot
                }
                _ => fit(c),
            };
        }
        Ok(())
    }

    /// Uniform distribution over `cardinality` categories.
    pub fn uniform(cardinality: u32) -> Result<Self> {
        let mut uniform = Self::empty();
        uniform.refit_uniform(cardinality as usize)?;
        Ok(uniform)
    }

    /// Refits the uniform distribution over `n` categories into this
    /// distribution's buffers: Eq. 6 of all-zero counts with `λ = 1`.
    pub(crate) fn refit_uniform(&mut self, n: usize) -> Result<()> {
        self.refit((0..n).map(|_| 0.0), 0.0, 1.0)
    }

    /// Number of categories.
    pub fn cardinality(&self) -> u32 {
        self.probs.len() as u32
    }

    /// Probability of category `c` (0 if out of range).
    pub fn prob(&self, c: u32) -> f64 {
        self.probs.get(c as usize).copied().unwrap_or(0.0)
    }

    /// Log-probability of category `c` (`-inf` if out of range).
    pub fn log_prob(&self, c: u32) -> f64 {
        self.log_probs
            .get(c as usize)
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Columnar variant of [`Categorical::log_prob`]: adds the
    /// log-probability of each category in `cats` to the matching slot of
    /// `out`, in index order.
    ///
    /// The cached log-prob table is read through the same
    /// `get(..).unwrap_or(-inf)` lookup as the scalar path, so every
    /// contribution is bitwise identical to [`Categorical::log_prob`];
    /// hoisting the table borrow out of the loop keeps the lookup base in
    /// a register and lets the compiler vectorize the gather.
    pub fn log_prob_batch(&self, cats: &[u32], out: &mut [f64]) {
        let table = &self.log_probs;
        for (acc, &c) in out.iter_mut().zip(cats) {
            *acc += table.get(c as usize).copied().unwrap_or(f64::NEG_INFINITY);
        }
    }

    /// Full probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_matches_closed_form() {
        // counts = [3, 1, 0], λ = 0.01, C = 3, total = 4
        let d = Categorical::fit_from_counts(&[3.0, 1.0, 0.0], 0.01).unwrap();
        let denom = 0.01 * 3.0 + 4.0;
        assert!((d.prob(0) - 3.01 / denom).abs() < 1e-15);
        assert!((d.prob(1) - 1.01 / denom).abs() < 1e-15);
        assert!((d.prob(2) - 0.01 / denom).abs() < 1e-15);
        // Responsibility mass: the same closed form, not renormalized.
        let mass = [0.3, 1.45, 0.0];
        let d = Categorical::fit_from_counts(&mass, 0.01).unwrap();
        let denom = 0.01 * 3.0 + (0.3 + 1.45);
        for (c, &w) in mass.iter().enumerate() {
            assert_eq!(d.prob(c as u32).to_bits(), ((0.01 + w) / denom).to_bits());
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = Categorical::fit_from_counts(&[5.0, 0.0, 2.0, 7.0, 0.0, 1.0], 0.01).unwrap();
        let sum: f64 = d.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_avoids_zero_frequency() {
        let d = Categorical::fit_from_counts(&[10.0, 0.0], 0.01).unwrap();
        assert!(d.prob(1) > 0.0);
        assert!(d.log_prob(1).is_finite());
    }

    #[test]
    fn unsmoothed_unseen_category_is_neg_inf() {
        let d = Categorical::fit_from_counts(&[10.0, 0.0], 0.0).unwrap();
        assert_eq!(d.prob(1), 0.0);
        assert_eq!(d.log_prob(1), f64::NEG_INFINITY);
    }

    #[test]
    fn out_of_range_category() {
        let d = Categorical::uniform(3).unwrap();
        assert_eq!(d.prob(3), 0.0);
        assert_eq!(d.log_prob(99), f64::NEG_INFINITY);
    }

    #[test]
    fn uniform_is_flat() {
        let d = Categorical::uniform(4).unwrap();
        for c in 0..4 {
            assert!((d.prob(c) - 0.25).abs() < 1e-15);
        }
    }

    #[test]
    fn from_probs_validates() {
        assert!(Categorical::from_probs(vec![]).is_err());
        assert!(Categorical::from_probs(vec![0.5, 0.6]).is_err());
        assert!(Categorical::from_probs(vec![-0.1, 1.1]).is_err());
        assert!(Categorical::from_probs(vec![0.25; 4]).is_ok());
    }

    #[test]
    fn fit_rejects_bad_lambda() {
        assert!(Categorical::fit_from_counts(&[1.0, 2.0], -0.5).is_err());
        assert!(Categorical::fit_from_counts(&[1.0, 2.0], f64::NAN).is_err());
    }

    #[test]
    fn empty_counts_without_smoothing_rejected() {
        assert!(Categorical::fit_from_counts(&[0.0, 0.0, 0.0], 0.0).is_err());
    }

    #[test]
    fn fit_rejects_negative_and_non_finite_counts() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let got = Categorical::fit_from_counts(&[1.0, bad], 0.01);
            assert!(
                matches!(
                    got,
                    Err(CoreError::InvalidProbability {
                        context: "categorical count",
                        ..
                    })
                ),
                "{bad}: {got:?}"
            );
        }
    }

    #[test]
    fn mle_maximizes_likelihood_among_neighbors() {
        // The unsmoothed MLE should beat small perturbations of itself.
        let counts = [7.0, 2.0, 1.0];
        let d = Categorical::fit_from_counts(&counts, 0.0).unwrap();
        let ll = |p: &[f64]| -> f64 { counts.iter().zip(p).map(|(&c, &p)| c * p.ln()).sum() };
        let best = ll(d.probs());
        let mut perturbed = d.probs().to_vec();
        perturbed[0] -= 0.05;
        perturbed[1] += 0.05;
        assert!(best > ll(&perturbed));
    }

    #[test]
    fn batch_matches_scalar_bitwise() {
        let d = Categorical::fit_from_counts(&[5.0, 0.0, 2.0, 7.0], 0.01).unwrap();
        // Includes an out-of-range category: the batch lookup must share
        // the scalar `-inf` fallback.
        let cats = [0u32, 3, 2, 99, 1, 0];
        let mut out = vec![0.25f64; cats.len()];
        d.log_prob_batch(&cats, &mut out);
        for (&c, &got) in cats.iter().zip(&out) {
            assert_eq!(got.to_bits(), (0.25 + d.log_prob(c)).to_bits());
        }
    }
}
