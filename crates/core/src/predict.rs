//! Item prediction (paper §VI-E, Tables X–XI).
//!
//! Protocol: hold out one action per user (at a random or the last
//! position), train on the rest, infer the held-out action's skill level
//! from the user's chronologically nearest training action, rank all items
//! by the inferred level's item-ID distribution, and score the rank of the
//! true item (Acc@10 and reciprocal rank).

use crate::dist::FeatureDistribution;
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::model_selection::nearest_skill;
use crate::rng::SplitMix64;
use crate::types::{
    Action, ActionSequence, Dataset, ItemId, SkillAssignments, SkillLevel, Timestamp,
};

/// Which position to hold out from each sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldoutPosition {
    /// A uniformly random position (missing-data recovery setting).
    Random {
        /// Seed for the position choice.
        seed: u64,
    },
    /// The final action (future-forecasting setting).
    Last,
}

/// A per-user holdout: the training dataset plus one test action per user
/// (users with fewer than 2 actions contribute no test action).
#[derive(Debug, Clone)]
pub struct PredictionSplit {
    /// Training dataset with held-out actions removed.
    pub train: Dataset,
    /// `(training-sequence index, held-out action)` pairs.
    pub test: Vec<(usize, Action)>,
}

/// Builds the one-action-per-user holdout split.
pub fn holdout_split(dataset: &Dataset, position: HoldoutPosition) -> Result<PredictionSplit> {
    let mut rng = match position {
        HoldoutPosition::Random { seed } => Some(SplitMix64::new(seed)),
        HoldoutPosition::Last => None,
    };
    let mut train_seqs = Vec::with_capacity(dataset.n_users());
    let mut test = Vec::new();
    for (u, seq) in dataset.sequences().iter().enumerate() {
        if seq.len() < 2 {
            train_seqs.push(seq.clone());
            continue;
        }
        let idx = match &mut rng {
            Some(rng) => rng.next_below(seq.len()),
            None => seq.len() - 1,
        };
        let mut actions = seq.actions().to_vec();
        let held = actions.remove(idx);
        train_seqs.push(ActionSequence::new(seq.user, actions)?);
        test.push((u, held));
    }
    let train = dataset.with_sequences(train_seqs)?;
    Ok(PredictionSplit { train, test })
}

/// The 1-based rank of `target` among all items under the skill level's
/// item-ID distribution.
///
/// `id_feature` is the index of the categorical item-ID feature in the
/// model's schema. Ties are broken by item ID (deterministic, matching a
/// stable descending sort).
pub fn rank_of_item(
    model: &SkillModel,
    id_feature: usize,
    level: SkillLevel,
    target: ItemId,
    n_items: usize,
) -> Result<usize> {
    let cell = model.cell(level, id_feature)?;
    let FeatureDistribution::Categorical(dist) = cell else {
        return Err(CoreError::FeatureKindMismatch {
            feature: id_feature,
            expected: "categorical",
            got: "non-categorical",
        });
    };
    let p_target = dist.prob(target);
    let mut rank = 1usize;
    for i in 0..n_items as u32 {
        if i == target {
            continue;
        }
        let p = dist.prob(i);
        if p > p_target || (p == p_target && i < target) {
            rank += 1;
        }
    }
    Ok(rank)
}

/// Top-`k` items for a skill level by item-ID probability (descending,
/// ties by ID). Useful for qualitative tables (Tables IV–V).
pub fn top_items_for_level(
    model: &SkillModel,
    id_feature: usize,
    level: SkillLevel,
    k: usize,
) -> Result<Vec<(ItemId, f64)>> {
    let cell = model.cell(level, id_feature)?;
    let FeatureDistribution::Categorical(dist) = cell else {
        return Err(CoreError::FeatureKindMismatch {
            feature: id_feature,
            expected: "categorical",
            got: "non-categorical",
        });
    };
    let mut scored: Vec<(ItemId, f64)> = dist
        .probs()
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u32, p))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    Ok(scored)
}

/// One prediction outcome: the rank of the true item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionOutcome {
    /// The held-out action's user (training-sequence index).
    pub sequence_index: usize,
    /// The true item.
    pub item: ItemId,
    /// Inferred skill level at the held-out time.
    pub level: SkillLevel,
    /// 1-based rank of the true item in the model's ranking.
    pub rank: usize,
}

/// Scores every held-out action: infers the skill level from the nearest
/// training action and ranks the true item.
///
/// `assignments` must correspond to `split.train` (same model training run).
pub fn evaluate_item_prediction(
    model: &SkillModel,
    split: &PredictionSplit,
    assignments: &SkillAssignments,
    id_feature: usize,
) -> Result<Vec<PredictionOutcome>> {
    if assignments.per_user.len() != split.train.n_users() {
        return Err(CoreError::LengthMismatch {
            context: "assignments vs training sequences",
            left: assignments.per_user.len(),
            right: split.train.n_users(),
        });
    }
    let n_items = split.train.n_items();
    let mut out = Vec::with_capacity(split.test.len());
    for &(u, action) in &split.test {
        let seq = &split.train.sequences()[u];
        let levels = &assignments.per_user[u];
        let times: Vec<Timestamp> = seq.actions().iter().map(|a| a.time).collect();
        let Some(level) = nearest_skill(&times, levels, action.time) else {
            continue;
        };
        let rank = rank_of_item(model, id_feature, level, action.item, n_items)?;
        out.push(PredictionOutcome {
            sequence_index: u,
            item: action.item,
            level,
            rank,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Categorical;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};

    fn id_model(probs_per_level: Vec<Vec<f64>>) -> SkillModel {
        let n_items = probs_per_level[0].len() as u32;
        let schema = FeatureSchema::id_only(n_items).unwrap();
        let cells = probs_per_level
            .into_iter()
            .map(|p| {
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(p).unwrap(),
                )]
            })
            .collect();
        SkillModel::new(schema, 2, cells).unwrap()
    }

    fn id_dataset(seq_items: &[&[u32]]) -> Dataset {
        let n_items = seq_items.iter().flat_map(|s| s.iter()).max().unwrap() + 1;
        let schema = FeatureSchema::id_only(n_items).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..n_items)
            .map(|i| vec![FeatureValue::Categorical(i)])
            .collect();
        let sequences: Vec<ActionSequence> = seq_items
            .iter()
            .enumerate()
            .map(|(u, items)| {
                ActionSequence::new(
                    u as u32,
                    items
                        .iter()
                        .enumerate()
                        .map(|(t, &i)| Action::new(t as i64, u as u32, i))
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn rank_respects_probabilities_and_ties() {
        let m = id_model(vec![vec![0.5, 0.2, 0.2, 0.1], vec![0.1, 0.2, 0.2, 0.5]]);
        assert_eq!(rank_of_item(&m, 0, 1, 0, 4).unwrap(), 1);
        // Items 1 and 2 tie at 0.2; tie broken by ID: item1 rank 2, item2 rank 3.
        assert_eq!(rank_of_item(&m, 0, 1, 1, 4).unwrap(), 2);
        assert_eq!(rank_of_item(&m, 0, 1, 2, 4).unwrap(), 3);
        assert_eq!(rank_of_item(&m, 0, 1, 3, 4).unwrap(), 4);
        // Level 2 reverses the ordering.
        assert_eq!(rank_of_item(&m, 0, 2, 3, 4).unwrap(), 1);
    }

    #[test]
    fn top_items_sorted_descending() {
        let m = id_model(vec![vec![0.1, 0.6, 0.3], vec![0.4, 0.3, 0.3]]);
        let top = top_items_for_level(&m, 0, 1, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn holdout_last_removes_final_action() {
        let ds = id_dataset(&[&[0, 1, 2], &[2, 0]]);
        let split = holdout_split(&ds, HoldoutPosition::Last).unwrap();
        assert_eq!(split.test.len(), 2);
        assert_eq!(split.test[0].1.item, 2);
        assert_eq!(split.test[1].1.item, 0);
        assert_eq!(split.train.n_actions(), 3);
    }

    #[test]
    fn holdout_random_is_deterministic_per_seed() {
        let ds = id_dataset(&[&[0, 1, 2, 0, 1], &[2, 0, 1]]);
        let a = holdout_split(&ds, HoldoutPosition::Random { seed: 4 }).unwrap();
        let b = holdout_split(&ds, HoldoutPosition::Random { seed: 4 }).unwrap();
        assert_eq!(
            a.test.iter().map(|t| t.1).collect::<Vec<_>>(),
            b.test.iter().map(|t| t.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn singleton_sequences_contribute_no_test_action() {
        let ds = id_dataset(&[&[0], &[1, 2]]);
        let split = holdout_split(&ds, HoldoutPosition::Last).unwrap();
        assert_eq!(split.test.len(), 1);
        assert_eq!(split.train.sequences()[0].len(), 1);
    }

    #[test]
    fn evaluate_produces_one_outcome_per_test_action() {
        let ds = id_dataset(&[&[0, 0, 1, 1], &[1, 1, 0]]);
        let split = holdout_split(&ds, HoldoutPosition::Last).unwrap();
        let (assignments, model) =
            crate::baselines::uniform_baseline(&split.train, 2, 0.01).unwrap();
        let outcomes = evaluate_item_prediction(&model, &split, &assignments, 0).unwrap();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.rank >= 1 && o.rank <= ds.n_items());
        }
    }

    #[test]
    fn rank_errors_on_noncategorical_feature() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let cells = vec![
            vec![FeatureDistribution::Poisson(
                crate::dist::Poisson::new(1.0).unwrap(),
            )],
            vec![FeatureDistribution::Poisson(
                crate::dist::Poisson::new(2.0).unwrap(),
            )],
        ];
        let m = SkillModel::new(schema, 2, cells).unwrap();
        assert!(rank_of_item(&m, 0, 1, 0, 3).is_err());
    }
}
