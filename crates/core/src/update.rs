//! The parameter-update step (Eq. 5–7 of the paper).
//!
//! Given fixed skill assignments, the model parameters decompose by
//! (feature, skill) cell: each cell's MLE depends only on the feature values
//! of actions assigned to that skill level. This module accumulates the
//! per-cell sufficient statistics in one pass over the data
//! (`O(|A| · F)`, reading the dataset's catalog columns), then fits each
//! cell (`O(F·S)` fits).

use crate::dist::{FeatureAccumulator, FeatureDistribution};
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::types::{Dataset, SkillAssignments};

/// Accumulates per-(skill, feature) sufficient statistics over the dataset.
///
/// Returns a grid `acc[s-1][f]`.
pub(crate) fn accumulate(
    dataset: &Dataset,
    assignments: &SkillAssignments,
    n_levels: usize,
) -> Result<Vec<Vec<FeatureAccumulator>>> {
    if assignments.per_user.len() != dataset.n_users() {
        return Err(CoreError::LengthMismatch {
            context: "assignments vs sequences",
            left: assignments.per_user.len(),
            right: dataset.n_users(),
        });
    }
    let schema = dataset.schema();
    let mut grid: Vec<Vec<FeatureAccumulator>> = (0..n_levels)
        .map(|_| {
            schema
                .kinds()
                .iter()
                .map(|&k| FeatureAccumulator::new(k))
                .collect()
        })
        .collect();

    let catalog = dataset.catalog();
    for (seq, levels) in dataset.sequences().iter().zip(&assignments.per_user) {
        if seq.len() != levels.len() {
            return Err(CoreError::LengthMismatch {
                context: "assignment vs sequence length",
                left: levels.len(),
                right: seq.len(),
            });
        }
        for (action, &s) in seq.actions().iter().zip(levels) {
            let row = grid
                .get_mut(s as usize - 1)
                .ok_or(CoreError::InvalidSkillCount {
                    requested: s as usize,
                })?;
            for (acc, slot) in row.iter_mut().zip(catalog.item(action.item as usize)?) {
                acc.push_slot(slot, 1.0)?;
            }
        }
    }
    Ok(grid)
}

/// Fits a full [`SkillModel`] from skill assignments (the M-like step).
///
/// `lambda` is the categorical smoothing pseudo-count (paper default 0.01).
/// Cells with no observations fall back to weakly-informative defaults.
pub fn fit_model(
    dataset: &Dataset,
    assignments: &SkillAssignments,
    n_levels: usize,
    lambda: f64,
) -> Result<SkillModel> {
    let grid = accumulate(dataset, assignments, n_levels)?;
    let cells = fit_cells(&grid, lambda)?;
    SkillModel::new(dataset.schema().clone(), n_levels, cells)
}

/// Fits every cell of an accumulator grid.
pub(crate) fn fit_cells(
    grid: &[Vec<FeatureAccumulator>],
    lambda: f64,
) -> Result<Vec<Vec<FeatureDistribution>>> {
    grid.iter()
        .map(|row| row.iter().map(|acc| acc.fit(lambda)).collect())
        .collect()
}

/// Objective value (Eq. 3): total log-likelihood of the data under the
/// model at the given assignments.
pub fn log_likelihood(
    dataset: &Dataset,
    assignments: &SkillAssignments,
    model: &SkillModel,
) -> Result<f64> {
    if assignments.per_user.len() != dataset.n_users() {
        return Err(CoreError::LengthMismatch {
            context: "assignments vs sequences",
            left: assignments.per_user.len(),
            right: dataset.n_users(),
        });
    }
    let mut total = 0.0;
    for (seq, levels) in dataset.sequences().iter().zip(&assignments.per_user) {
        for (action, &s) in seq.actions().iter().zip(levels) {
            total += model.item_log_likelihood(dataset.item_features(action.item), s);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::{Action, ActionSequence};

    fn toy_dataset() -> Dataset {
        // 2 items: item 0 = (cat 0, count 2), item 1 = (cat 1, count 6).
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 2 },
            FeatureKind::Count,
        ])
        .unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0), FeatureValue::Count(2)],
            vec![FeatureValue::Categorical(1), FeatureValue::Count(6)],
        ];
        let seq = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 0),
                Action::new(2, 0, 1),
                Action::new(3, 0, 1),
            ],
        )
        .unwrap();
        Dataset::new(schema, items, vec![seq]).unwrap()
    }

    #[test]
    fn accumulate_groups_by_level() {
        let ds = toy_dataset();
        let assignments = SkillAssignments {
            per_user: vec![vec![1, 1, 2, 2]],
        };
        let grid = accumulate(&ds, &assignments, 2).unwrap();
        // Level 1 saw two category-0 items; level 2 two category-1 items.
        let FeatureAccumulator::Categorical { weights, .. } = &grid[0][0] else {
            panic!()
        };
        assert_eq!(weights, &vec![2.0, 0.0]);
        let FeatureAccumulator::Categorical { weights, .. } = &grid[1][0] else {
            panic!()
        };
        assert_eq!(weights, &vec![0.0, 2.0]);
        // Count feature means.
        let FeatureAccumulator::Count { sum, n } = &grid[0][1] else {
            panic!()
        };
        assert_eq!((*sum, *n), (4.0, 2.0));
    }

    #[test]
    fn fit_model_recovers_per_level_parameters() {
        let ds = toy_dataset();
        let assignments = SkillAssignments {
            per_user: vec![vec![1, 1, 2, 2]],
        };
        let model = fit_model(&ds, &assignments, 2, 0.01).unwrap();
        // Level 1 should strongly prefer category 0 and rate 2.
        let ll_easy_1 = model.item_log_likelihood(ds.item_features(0), 1);
        let ll_easy_2 = model.item_log_likelihood(ds.item_features(0), 2);
        assert!(ll_easy_1 > ll_easy_2);
        let ll_hard_2 = model.item_log_likelihood(ds.item_features(1), 2);
        let ll_hard_1 = model.item_log_likelihood(ds.item_features(1), 1);
        assert!(ll_hard_2 > ll_hard_1);
    }

    #[test]
    fn unobserved_level_gets_fallback() {
        let ds = toy_dataset();
        // Everything assigned to level 1; level 2 cells unobserved.
        let assignments = SkillAssignments {
            per_user: vec![vec![1, 1, 1, 1]],
        };
        let model = fit_model(&ds, &assignments, 2, 0.01).unwrap();
        assert!(model
            .item_log_likelihood(ds.item_features(0), 2)
            .is_finite());
    }

    #[test]
    fn mismatched_assignments_rejected() {
        let ds = toy_dataset();
        let too_few = SkillAssignments { per_user: vec![] };
        assert!(accumulate(&ds, &too_few, 2).is_err());
        let wrong_len = SkillAssignments {
            per_user: vec![vec![1, 1]],
        };
        assert!(accumulate(&ds, &wrong_len, 2).is_err());
        let bad_level = SkillAssignments {
            per_user: vec![vec![1, 1, 3, 3]],
        };
        assert!(accumulate(&ds, &bad_level, 2).is_err());
    }

    #[test]
    fn log_likelihood_matches_manual_sum() {
        let ds = toy_dataset();
        let assignments = SkillAssignments {
            per_user: vec![vec![1, 1, 2, 2]],
        };
        let model = fit_model(&ds, &assignments, 2, 0.01).unwrap();
        let ll = log_likelihood(&ds, &assignments, &model).unwrap();
        let manual = 2.0 * model.item_log_likelihood(ds.item_features(0), 1)
            + 2.0 * model.item_log_likelihood(ds.item_features(1), 2);
        assert!((ll - manual).abs() < 1e-12);
    }

    #[test]
    fn update_step_does_not_decrease_objective() {
        // Refitting parameters at fixed assignments must not lower Eq. 3.
        let ds = toy_dataset();
        let assignments = SkillAssignments {
            per_user: vec![vec![1, 2, 2, 2]],
        };
        let rough = fit_model(&ds, &assignments, 2, 1.0).unwrap(); // heavy smoothing
        let refit = fit_model(&ds, &assignments, 2, 0.0).unwrap(); // exact MLE
        let ll_rough = log_likelihood(&ds, &assignments, &rough).unwrap();
        let ll_refit = log_likelihood(&ds, &assignments, &refit).unwrap();
        assert!(ll_refit >= ll_rough - 1e-9);
    }
}
