//! Item difficulty estimation (paper §V).
//!
//! Both estimators reuse a trained skill model, under the assumption that
//! users usually select items within their skill capacity:
//!
//! - [`assignment_difficulty`] (Eq. 8) — the mean assigned skill of the
//!   users who selected the item. Intuitive, but undefined for unseen items
//!   and noisy for rare ones.
//! - [`generation_difficulty`] (Eq. 9–10) — the posterior-expected skill
//!   level of the item under the generative model, with a
//!   [`SkillPrior::Uniform`] or [`SkillPrior::Empirical`] prior. Works for
//!   *any* feature tuple, including brand-new items.

use serde::{Deserialize, Serialize};

use crate::emission::{expected_of, EmissionTable};
use crate::error::{CoreError, Result};
use crate::feature::FeatureValue;
use crate::model::SkillModel;
use crate::types::{Dataset, ItemId, SkillAssignments};

/// Which skill prior `P(s)` the generation-based estimator uses (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkillPrior {
    /// `P(s) = 1/S` — the query-likelihood simplification.
    Uniform,
    /// `P(s)` estimated from the trained assignments' level histogram.
    Empirical,
}

/// Difficulty level of every item via the assignment-based estimator
/// (Eq. 8). `result[i]` is `None` for items never selected in the data.
pub fn assignment_difficulty_all(
    dataset: &Dataset,
    assignments: &SkillAssignments,
) -> Result<Vec<Option<f64>>> {
    if assignments.per_user.len() != dataset.n_users() {
        return Err(CoreError::LengthMismatch {
            context: "assignments vs sequences",
            left: assignments.per_user.len(),
            right: dataset.n_users(),
        });
    }
    let mut sum = vec![0.0f64; dataset.n_items()];
    let mut count = vec![0u32; dataset.n_items()];
    for (seq, levels) in dataset.sequences().iter().zip(&assignments.per_user) {
        if seq.len() != levels.len() {
            return Err(CoreError::LengthMismatch {
                context: "assignment vs sequence length",
                left: levels.len(),
                right: seq.len(),
            });
        }
        for (action, &s) in seq.actions().iter().zip(levels) {
            sum[action.item as usize] += s as f64;
            count[action.item as usize] += 1;
        }
    }
    Ok(sum
        .into_iter()
        .zip(count)
        .map(|(s, c)| if c > 0 { Some(s / c as f64) } else { None })
        .collect())
}

/// Difficulty of one item via the assignment-based estimator (Eq. 8).
///
/// Errors with [`CoreError::ItemNeverSelected`] for unseen items — the
/// drawback §V-B motivates the generation-based estimator with.
pub fn assignment_difficulty(
    dataset: &Dataset,
    assignments: &SkillAssignments,
    item: ItemId,
) -> Result<f64> {
    let all = assignment_difficulty_all(dataset, assignments)?;
    all.get(item as usize)
        .copied()
        .flatten()
        .ok_or(CoreError::ItemNeverSelected { item })
}

/// The empirical skill prior: the fraction of actions assigned each level.
pub fn empirical_prior(assignments: &SkillAssignments, n_levels: usize) -> Result<Vec<f64>> {
    prior_from_counts(&assignments.level_histogram(n_levels))
}

/// The empirical skill prior from per-level action counts: `count /
/// total` per level, [`CoreError::EmptyDataset`] when no action is
/// counted. Callers that keep running level counts (the serving layer)
/// get the same prior as [`empirical_prior`] without the assignments.
pub fn prior_from_counts(counts: &[usize]) -> Result<Vec<f64>> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return Err(CoreError::EmptyDataset);
    }
    Ok(counts.iter().map(|&c| c as f64 / total as f64).collect())
}

/// Difficulty of an arbitrary feature tuple via the generation-based
/// estimator (Eq. 9): `d_i = Σ_s s · P(s | i)`.
///
/// `prior` must have `model.n_levels()` entries summing to ~1; use
/// [`empirical_prior`] or a uniform vector. Result lies in `[1, S]`.
pub fn generation_difficulty_with_prior(
    model: &SkillModel,
    features: &[FeatureValue],
    prior: &[f64],
) -> Result<f64> {
    Ok(expected_of(&model.skill_posterior(features, prior)?))
}

/// Generation-based difficulty for one feature tuple under the chosen prior
/// policy. The `assignments` are only consulted for the empirical prior.
pub fn generation_difficulty(
    model: &SkillModel,
    features: &[FeatureValue],
    prior: SkillPrior,
    assignments: Option<&SkillAssignments>,
) -> Result<f64> {
    let s = model.n_levels();
    let prior_vec = match prior {
        SkillPrior::Uniform => vec![1.0 / s as f64; s],
        SkillPrior::Empirical => {
            let assignments = assignments.ok_or(CoreError::EmptyDataset)?;
            empirical_prior(assignments, s)?
        }
    };
    generation_difficulty_with_prior(model, features, &prior_vec)
}

/// Generation-based difficulty of every item in a dataset.
///
/// Builds a shared [`EmissionTable`] once: the posterior `P(s | i)` of
/// Eq. 10 is exactly one table row combined with the prior, so the per-item
/// cost drops to a row read plus a normalization.
pub fn generation_difficulty_all(
    model: &SkillModel,
    dataset: &Dataset,
    prior: SkillPrior,
    assignments: Option<&SkillAssignments>,
) -> Result<Vec<f64>> {
    let table = EmissionTable::build(model, dataset);
    generation_difficulty_all_with_table(&table, prior, assignments)
}

/// Generation-based difficulty of every table item from an existing
/// [`EmissionTable`] — e.g. the one the final training iteration built.
/// One [`EmissionTable::expected_levels`] pass: the shared row-posterior
/// kernel takes `ln P(s)` once and reuses one row buffer for every item.
pub fn generation_difficulty_all_with_table(
    table: &EmissionTable,
    prior: SkillPrior,
    assignments: Option<&SkillAssignments>,
) -> Result<Vec<f64>> {
    let s = table.n_levels();
    let prior_vec = match prior {
        SkillPrior::Uniform => vec![1.0 / s as f64; s],
        SkillPrior::Empirical => {
            let assignments = assignments.ok_or(CoreError::EmptyDataset)?;
            empirical_prior(assignments, s)?
        }
    };
    table.expected_levels(&prior_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::feature::{FeatureKind, FeatureSchema};
    use crate::types::{Action, ActionSequence};

    fn two_level_setup() -> (Dataset, SkillAssignments, SkillModel) {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)], // item 0: "easy"
            vec![FeatureValue::Categorical(1)], // item 1: "hard"
            vec![FeatureValue::Categorical(1)], // item 2: never selected
        ];
        // user 0: item0@s1, item0@s1, item1@s2; user 1: item1@s2.
        let s0 = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 0),
                Action::new(2, 0, 1),
            ],
        )
        .unwrap();
        let s1 = ActionSequence::new(1, vec![Action::new(0, 1, 1)]).unwrap();
        let ds = Dataset::new(schema.clone(), items, vec![s0, s1]).unwrap();
        let assignments = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![2]],
        };
        let cells = vec![
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.9, 0.1]).unwrap(),
            )],
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.2, 0.8]).unwrap(),
            )],
        ];
        let model = SkillModel::new(schema, 2, cells).unwrap();
        (ds, assignments, model)
    }

    #[test]
    fn assignment_difficulty_is_mean_skill() {
        let (ds, a, _) = two_level_setup();
        // Item 0 selected twice at level 1 → 1.0; item 1 at levels 2 and 2 → 2.0.
        assert!((assignment_difficulty(&ds, &a, 0).unwrap() - 1.0).abs() < 1e-12);
        assert!((assignment_difficulty(&ds, &a, 1).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn assignment_difficulty_mixed_levels_averages() {
        let (ds, _, _) = two_level_setup();
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 1], vec![2]],
        };
        // Item 1 selected at levels 1 and 2 → 1.5.
        assert!((assignment_difficulty(&ds, &a, 1).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn unseen_item_errors_for_assignment_estimator() {
        let (ds, a, _) = two_level_setup();
        assert!(matches!(
            assignment_difficulty(&ds, &a, 2),
            Err(CoreError::ItemNeverSelected { item: 2 })
        ));
        let all = assignment_difficulty_all(&ds, &a).unwrap();
        assert!(all[2].is_none());
    }

    #[test]
    fn generation_estimator_handles_unseen_items() {
        let (ds, a, model) = two_level_setup();
        let d = generation_difficulty(&model, ds.item_features(2), SkillPrior::Empirical, Some(&a))
            .unwrap();
        assert!((1.0..=2.0).contains(&d));
        // A "hard" feature tuple should land above the midpoint.
        assert!(d > 1.5);
    }

    #[test]
    fn generation_difficulty_bounds() {
        let (ds, _, model) = two_level_setup();
        for item in 0..ds.n_items() as u32 {
            let d =
                generation_difficulty(&model, ds.item_features(item), SkillPrior::Uniform, None)
                    .unwrap();
            assert!((1.0..=2.0).contains(&d), "difficulty {d} out of [1,S]");
        }
    }

    #[test]
    fn empirical_prior_reflects_histogram() {
        let (_, a, _) = two_level_setup();
        let prior = empirical_prior(&a, 2).unwrap();
        // 2 actions at level 1, 2 at level 2.
        assert!((prior[0] - 0.5).abs() < 1e-12);
        assert!((prior[1] - 0.5).abs() < 1e-12);
        // The counts helper is the same rule, bit for bit.
        let counts = a.level_histogram(2);
        assert_eq!(prior_from_counts(&counts).unwrap(), prior);
        assert_eq!(prior_from_counts(&[1, 3]).unwrap(), vec![0.25, 0.75]);
        assert!(matches!(
            prior_from_counts(&[0, 0]),
            Err(CoreError::EmptyDataset)
        ));
    }

    #[test]
    fn empirical_prior_shifts_difficulty() {
        let (ds, _, model) = two_level_setup();
        // Heavily skewed prior toward level 1 should pull difficulty down.
        let d_flat =
            generation_difficulty_with_prior(&model, ds.item_features(1), &[0.5, 0.5]).unwrap();
        let d_skew =
            generation_difficulty_with_prior(&model, ds.item_features(1), &[0.95, 0.05]).unwrap();
        assert!(d_skew < d_flat);
    }

    #[test]
    fn empirical_without_assignments_errors() {
        let (ds, _, model) = two_level_setup();
        assert!(
            generation_difficulty(&model, ds.item_features(0), SkillPrior::Empirical, None)
                .is_err()
        );
    }

    #[test]
    fn all_items_at_once_matches_single_calls() {
        let (ds, a, model) = two_level_setup();
        let all = generation_difficulty_all(&model, &ds, SkillPrior::Empirical, Some(&a)).unwrap();
        for (i, &d) in all.iter().enumerate() {
            let single = generation_difficulty(
                &model,
                ds.item_features(i as u32),
                SkillPrior::Empirical,
                Some(&a),
            )
            .unwrap();
            assert!((d - single).abs() < 1e-12);
        }
    }

    #[test]
    fn table_backed_difficulty_matches_direct() {
        let (ds, a, model) = two_level_setup();
        let table = EmissionTable::build(&model, &ds);
        for (prior, assignments) in [
            (SkillPrior::Uniform, None),
            (SkillPrior::Empirical, Some(&a)),
        ] {
            let tabled = generation_difficulty_all_with_table(&table, prior, assignments).unwrap();
            for (i, &d) in tabled.iter().enumerate() {
                let direct =
                    generation_difficulty(&model, ds.item_features(i as u32), prior, assignments)
                        .unwrap();
                assert_eq!(d, direct);
            }
        }
    }
}
