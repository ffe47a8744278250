//! The skill model: an `S × F` grid of per-skill, per-feature distributions.
//!
//! Implements the generative process of Eq. 2:
//! `P(i | s) = Π_f P_f(i_f | θ_f(s))`, the joint likelihood an item's
//! features are generated at skill level `s`.

use serde::{Deserialize, Serialize};

use crate::dist::{Categorical, FeatureDistribution};
use crate::emission::RowPosterior;
use crate::error::{CoreError, Result};
use crate::feature::{FeatureSchema, FeatureValue};
use crate::types::SkillLevel;

/// A trained (or initialized) skill model.
///
/// `cells[s-1][f]` holds the distribution `P_f(· | θ_f(s))` for skill level
/// `s` and feature `f`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkillModel {
    schema: FeatureSchema,
    n_levels: usize,
    cells: Vec<Vec<FeatureDistribution>>,
}

impl SkillModel {
    /// Assembles a model from a parameter grid.
    ///
    /// `cells` must have exactly `n_levels` rows of `schema.len()` columns.
    pub fn new(
        schema: FeatureSchema,
        n_levels: usize,
        cells: Vec<Vec<FeatureDistribution>>,
    ) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        if cells.len() != n_levels {
            return Err(CoreError::LengthMismatch {
                context: "model rows vs skill levels",
                left: cells.len(),
                right: n_levels,
            });
        }
        for row in &cells {
            if row.len() != schema.len() {
                return Err(CoreError::LengthMismatch {
                    context: "model row vs schema features",
                    left: row.len(),
                    right: schema.len(),
                });
            }
        }
        Ok(Self {
            schema,
            n_levels,
            cells,
        })
    }

    /// A model of `n_levels` levels over `schema` whose every cell is an
    /// empty placeholder, for an M-step to refit into (it allocates no
    /// parameter buffers). Not a usable model until every cell is refit.
    pub(crate) fn unfitted(schema: FeatureSchema, n_levels: usize) -> Result<Self> {
        let placeholder = FeatureDistribution::Categorical(Categorical::empty());
        let row = vec![placeholder; schema.len()];
        Self::new(schema, n_levels, vec![row; n_levels])
    }

    /// The cells, level-major, for an M-step refitting them in place.
    pub(crate) fn rows_mut(&mut self) -> &mut [Vec<FeatureDistribution>] {
        &mut self.cells
    }

    /// Takes `schema` as the model's schema; it must have the model's
    /// feature count (an M-step's output carries the dataset's schema).
    pub(crate) fn adopt_schema(&mut self, schema: &FeatureSchema) {
        if self.schema != *schema && schema.len() == self.schema.len() {
            self.schema = schema.clone();
        }
    }

    /// The feature schema this model was trained on.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// Number of skill levels `S`.
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Number of features `F`.
    pub fn n_features(&self) -> usize {
        self.schema.len()
    }

    /// All skill levels `1..=S` this model covers.
    pub fn levels(&self) -> impl Iterator<Item = SkillLevel> {
        (1..=self.n_levels as u8).map(|s| s as SkillLevel)
    }

    /// The distribution for feature `f` at skill level `s` (1-based).
    pub fn cell(&self, s: SkillLevel, f: usize) -> Result<&FeatureDistribution> {
        let row = self
            .cells
            .get(s as usize - 1)
            .ok_or(CoreError::InvalidSkillCount {
                requested: s as usize,
            })?;
        row.get(f).ok_or(CoreError::FeatureIndexOutOfBounds {
            index: f,
            len: row.len(),
        })
    }

    /// Log-likelihood `log P(i | s) = Σ_f log P_f(i_f | θ_f(s))` (Eq. 2).
    ///
    /// Returns `-inf` for feature tuples the level's distributions cannot
    /// generate. The tuple is assumed to be schema-validated (datasets
    /// enforce this at construction); out-of-kind values score `-inf`
    /// rather than erroring, which the DP interprets as a forbidden path.
    pub fn item_log_likelihood(&self, features: &[FeatureValue], s: SkillLevel) -> f64 {
        let Some(row) = self.cells.get(s as usize - 1) else {
            return f64::NEG_INFINITY;
        };
        debug_assert_eq!(features.len(), row.len());
        row.iter()
            .zip(features)
            .map(|(dist, value)| dist.log_likelihood(value))
            .sum()
    }

    /// Log-likelihoods of one item at every skill level (`result[s-1]`).
    pub(crate) fn item_log_likelihoods(&self, features: &[FeatureValue]) -> Vec<f64> {
        (1..=self.n_levels)
            .map(|s| self.item_log_likelihood(features, s as SkillLevel))
            .collect()
    }

    /// Posterior `P(s | i)` over skill levels for an item (Eq. 10), under a
    /// given prior `P(s)` (`prior[s-1]`, must sum to ~1).
    ///
    /// Computed in log space with the max trick for stability, by the
    /// row-posterior kernel [`EmissionTable::posterior`] also runs.
    ///
    /// [`EmissionTable::posterior`]: crate::emission::EmissionTable::posterior
    pub fn skill_posterior(&self, features: &[FeatureValue], prior: &[f64]) -> Result<Vec<f64>> {
        let prior = RowPosterior::new(prior, self.n_levels)?;
        let row = self.item_log_likelihoods(features);
        let mut post = vec![0.0; self.n_levels];
        prior.posterior_into(&row, &mut post)?;
        Ok(post)
    }

    /// Convenience: the distribution row for a level (all features).
    pub(crate) fn level_row(&self, s: SkillLevel) -> Result<&[FeatureDistribution]> {
        self.cells
            .get(s as usize - 1)
            .map(Vec::as_slice)
            .ok_or(CoreError::InvalidSkillCount {
                requested: s as usize,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Poisson;
    use crate::feature::FeatureKind;

    fn two_level_model() -> SkillModel {
        // Level 1 prefers category 0; level 2 prefers category 1.
        // Count feature: level 1 has rate 2, level 2 has rate 6.
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 2 },
            FeatureKind::Count,
        ])
        .unwrap();
        let cells = vec![
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.9, 0.1]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
            ],
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.1, 0.9]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(6.0).unwrap()),
            ],
        ];
        SkillModel::new(schema, 2, cells).unwrap()
    }

    #[test]
    fn construction_validates_grid_shape() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        assert!(SkillModel::new(schema.clone(), 0, vec![]).is_err());
        assert!(SkillModel::new(schema.clone(), 2, vec![vec![]]).is_err());
        let bad_row = vec![vec![], vec![]];
        assert!(SkillModel::new(schema, 2, bad_row).is_err());
    }

    #[test]
    fn item_log_likelihood_factorizes() {
        let m = two_level_model();
        let item = vec![FeatureValue::Categorical(0), FeatureValue::Count(2)];
        let want = 0.9f64.ln() + Poisson::new(2.0).unwrap().log_pmf(2);
        assert!((m.item_log_likelihood(&item, 1) - want).abs() < 1e-12);
    }

    #[test]
    fn easy_item_prefers_low_level() {
        let m = two_level_model();
        let easy = vec![FeatureValue::Categorical(0), FeatureValue::Count(2)];
        let hard = vec![FeatureValue::Categorical(1), FeatureValue::Count(7)];
        assert!(m.item_log_likelihood(&easy, 1) > m.item_log_likelihood(&easy, 2));
        assert!(m.item_log_likelihood(&hard, 2) > m.item_log_likelihood(&hard, 1));
    }

    #[test]
    fn posterior_normalizes_and_orders() {
        let m = two_level_model();
        let hard = vec![FeatureValue::Categorical(1), FeatureValue::Count(7)];
        let post = m.skill_posterior(&hard, &[0.5, 0.5]).unwrap();
        assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(post[1] > post[0]);
    }

    #[test]
    fn posterior_respects_prior() {
        let m = two_level_model();
        let ambiguous = vec![FeatureValue::Categorical(0), FeatureValue::Count(4)];
        let flat = m.skill_posterior(&ambiguous, &[0.5, 0.5]).unwrap();
        let skewed = m.skill_posterior(&ambiguous, &[0.99, 0.01]).unwrap();
        assert!(skewed[0] > flat[0]);
    }

    #[test]
    fn posterior_rejects_bad_prior_length() {
        let m = two_level_model();
        let item = vec![FeatureValue::Categorical(0), FeatureValue::Count(1)];
        assert!(m.skill_posterior(&item, &[1.0]).is_err());
    }

    #[test]
    fn posterior_falls_back_to_prior_for_impossible_items() {
        // Unsmoothed categorical: category 1 impossible at both levels.
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let cells = vec![
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![1.0, 0.0]).unwrap(),
            )],
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![1.0, 0.0]).unwrap(),
            )],
        ];
        let m = SkillModel::new(schema, 2, cells).unwrap();
        let post = m
            .skill_posterior(&[FeatureValue::Categorical(1)], &[0.3, 0.7])
            .unwrap();
        assert!((post[0] - 0.3).abs() < 1e-12);
        assert!((post[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn serde_roundtrip() {
        let m = two_level_model();
        let json = serde_json::to_string(&m).unwrap();
        let back: SkillModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn cell_accessors_bounds_checked() {
        let m = two_level_model();
        assert!(m.cell(1, 0).is_ok());
        assert!(m.cell(3, 0).is_err());
        assert!(m.cell(1, 5).is_err());
        assert!(m.level_row(2).is_ok());
        assert!(m.level_row(9).is_err());
    }
}
