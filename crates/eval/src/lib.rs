//! # upskill-eval
//!
//! Evaluation metrics and statistical machinery for the upskill workspace:
//! the correlation measures (Pearson/Spearman/Kendall), error measures
//! (RMSE/MAE), ranking metrics (Acc@k, reciprocal rank), significance tests
//! (Wilcoxon signed-rank + Bonferroni), and confidence intervals
//! (bootstrap, Fisher-z) used by the paper's Tables VI–XII — plus the
//! [`upskilling`] closed-loop harness scoring the adaptive
//! recommendation policy against the paper's static band recommender.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod correlation;
pub mod error_metrics;
pub mod goodness;
pub mod ranking;
pub mod significance;
pub mod upskilling;

use std::fmt;

pub use bootstrap::{bootstrap_ci, fisher_z_ci, pearson_ci, ConfidenceInterval};
pub use correlation::{kendall_tau, pearson, spearman};
pub use error_metrics::{mae, mse, rmse};
pub use goodness::{chi_square_gof, ks_statistic, ChiSquareResult};
pub use ranking::{mean_acc_at_k, mean_reciprocal_rank};
pub use significance::{bonferroni, wilcoxon_signed_rank, WilcoxonResult};

/// Errors produced by metric computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// Paired inputs had different lengths.
    LengthMismatch {
        /// Left length.
        left: usize,
        /// Right length.
        right: usize,
    },
    /// Not enough samples for the statistic.
    TooFewSamples {
        /// Minimum required.
        needed: usize,
        /// Actually provided.
        got: usize,
    },
    /// An input contained NaN or infinity.
    NonFiniteInput,
    /// A statistic is undefined because an input has no variation.
    ZeroVariance,
    /// A configuration parameter was out of range.
    InvalidParameter {
        /// Which parameter.
        what: &'static str,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::LengthMismatch { left, right } => {
                write!(f, "paired inputs have different lengths: {left} vs {right}")
            }
            EvalError::TooFewSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            EvalError::NonFiniteInput => write!(f, "input contains NaN or infinity"),
            EvalError::ZeroVariance => {
                write!(f, "statistic undefined: an input has zero variance")
            }
            EvalError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A row of correlation + error scores, as reported in Tables VI–IX.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRow {
    /// Pearson's r.
    pub pearson: f64,
    /// Spearman's ρ.
    pub spearman: f64,
    /// Kendall's τ-b.
    pub kendall: f64,
    /// Root mean squared error.
    pub rmse: f64,
}

impl ScoreRow {
    /// Computes all four measures between predictions and ground truth.
    pub fn compute(pred: &[f64], truth: &[f64]) -> Result<Self, EvalError> {
        Ok(Self {
            pearson: pearson(pred, truth)?,
            spearman: spearman(pred, truth)?,
            kendall: kendall_tau(pred, truth)?,
            rmse: rmse(pred, truth)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_row_computes_all_measures() {
        let truth: Vec<f64> = (0..50).map(|i| (i % 5) as f64 + 1.0).collect();
        let pred: Vec<f64> = truth.iter().map(|&t| t + 0.1).collect();
        let row = ScoreRow::compute(&pred, &truth).unwrap();
        assert!((row.pearson - 1.0).abs() < 1e-9);
        assert!((row.spearman - 1.0).abs() < 1e-9);
        assert!((row.kendall - 1.0).abs() < 1e-9);
        assert!((row.rmse - 0.1).abs() < 1e-9);
    }

    #[test]
    fn error_display_is_informative() {
        let e = EvalError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains("3 vs 5"));
        assert!(EvalError::ZeroVariance.to_string().contains("variance"));
    }
}
