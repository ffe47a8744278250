//! Qualitative model analysis (paper §VI-C, Tables II–V, Figs. 4–6).
//!
//! - [`dominance_scores`] — for a categorical feature, the difference in
//!   generation probability between the highest and lowest skill level,
//!   `P_f(x | θ_f(S)) − P_f(x | θ_f(1))`: positive values are dominated by
//!   skilled users, negative by novices (the McAuley–Leskovec measure the
//!   paper adopts).
//! - [`level_means`] — per-level mean of a count/positive feature, the
//!   summary the paper plots in Figs. 4–6.

use crate::dist::FeatureDistribution;
use crate::error::{CoreError, Result};
use crate::model::SkillModel;

/// A categorical value with its skill-dominance score.
#[derive(Debug, Clone, PartialEq)]
pub struct DominanceEntry {
    /// The categorical value (index into the feature's categories).
    pub value: u32,
    /// `P(value | S) − P(value | 1)`.
    pub score: f64,
}

/// Dominance scores for every value of a categorical feature.
pub fn dominance_scores(model: &SkillModel, feature: usize) -> Result<Vec<DominanceEntry>> {
    let lowest = model.cell(1, feature)?;
    let highest = model.cell(model.n_levels() as u8, feature)?;
    let (FeatureDistribution::Categorical(lo), FeatureDistribution::Categorical(hi)) =
        (lowest, highest)
    else {
        return Err(CoreError::FeatureKindMismatch {
            feature,
            expected: "categorical",
            got: "non-categorical",
        });
    };
    if lo.cardinality() != hi.cardinality() {
        return Err(CoreError::LengthMismatch {
            context: "dominance cardinalities",
            left: lo.cardinality() as usize,
            right: hi.cardinality() as usize,
        });
    }
    Ok((0..lo.cardinality())
        .map(|c| DominanceEntry {
            value: c,
            score: hi.prob(c) - lo.prob(c),
        })
        .collect())
}

/// Top-`k` values dominated by *skilled* users (most positive scores).
pub fn top_skilled(model: &SkillModel, feature: usize, k: usize) -> Result<Vec<DominanceEntry>> {
    let mut scores = dominance_scores(model, feature)?;
    scores.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    scores.truncate(k);
    Ok(scores)
}

/// Top-`k` values dominated by *unskilled* users (most negative scores).
pub fn top_unskilled(model: &SkillModel, feature: usize, k: usize) -> Result<Vec<DominanceEntry>> {
    let mut scores = dominance_scores(model, feature)?;
    scores.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    scores.truncate(k);
    Ok(scores)
}

/// Mean of a count or positive feature at each skill level
/// (`result[s-1]`). Errors for categorical features (use
/// [`dominance_scores`] there instead).
pub fn level_means(model: &SkillModel, feature: usize) -> Result<Vec<f64>> {
    model
        .levels()
        .map(|s| {
            let cell = model.cell(s, feature)?;
            match cell {
                FeatureDistribution::Poisson(d) => Ok(d.mean()),
                FeatureDistribution::Gamma(d) => Ok(d.mean()),
                FeatureDistribution::LogNormal(d) => Ok(d.mean()),
                FeatureDistribution::Categorical(_) => Err(CoreError::FeatureKindMismatch {
                    feature,
                    expected: "count or positive",
                    got: "categorical",
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, Gamma, Poisson};
    use crate::feature::{FeatureKind, FeatureSchema, PositiveModel};

    fn mixed_model() -> SkillModel {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
        ])
        .unwrap();
        let cells = vec![
            vec![
                FeatureDistribution::Categorical(
                    Categorical::from_probs(vec![0.7, 0.2, 0.1]).unwrap(),
                ),
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
                FeatureDistribution::Gamma(Gamma::new(2.0, 1.0).unwrap()),
            ],
            vec![
                FeatureDistribution::Categorical(
                    Categorical::from_probs(vec![0.1, 0.3, 0.6]).unwrap(),
                ),
                FeatureDistribution::Poisson(Poisson::new(5.0).unwrap()),
                FeatureDistribution::Gamma(Gamma::new(4.0, 1.5).unwrap()),
            ],
        ];
        SkillModel::new(schema, 2, cells).unwrap()
    }

    #[test]
    fn dominance_scores_are_probability_differences() {
        let m = mixed_model();
        let scores = dominance_scores(&m, 0).unwrap();
        assert_eq!(scores.len(), 3);
        assert!((scores[0].score - (0.1 - 0.7)).abs() < 1e-12);
        assert!((scores[2].score - (0.6 - 0.1)).abs() < 1e-12);
        // Scores over all values sum to zero (both rows are distributions).
        let total: f64 = scores.iter().map(|e| e.score).sum();
        assert!(total.abs() < 1e-12);
    }

    #[test]
    fn top_lists_are_ordered_correctly() {
        let m = mixed_model();
        let skilled = top_skilled(&m, 0, 2).unwrap();
        assert_eq!(skilled[0].value, 2);
        assert!(skilled[0].score > 0.0);
        let unskilled = top_unskilled(&m, 0, 2).unwrap();
        assert_eq!(unskilled[0].value, 0);
        assert!(unskilled[0].score < 0.0);
    }

    #[test]
    fn dominance_rejects_noncategorical_feature() {
        let m = mixed_model();
        assert!(dominance_scores(&m, 1).is_err());
    }

    #[test]
    fn level_means_for_count_and_gamma() {
        let m = mixed_model();
        let poisson_means = level_means(&m, 1).unwrap();
        assert_eq!(poisson_means, vec![2.0, 5.0]);
        let gamma_means = level_means(&m, 2).unwrap();
        assert_eq!(gamma_means, vec![2.0, 6.0]);
        assert!(level_means(&m, 0).is_err());
    }
}
