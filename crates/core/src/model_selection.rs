//! Skill-count selection by held-out likelihood (paper §VI-B, Fig. 3).
//!
//! For domains without prior knowledge of `S`, the paper randomly splits the
//! data 90/10, trains one model per candidate `S`, and keeps the `S` that
//! maximizes the log-likelihood of the held-out actions. The skill level of
//! a held-out action is borrowed from the *chronologically closest* training
//! action of the same user.

use serde::{Deserialize, Serialize};

use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::rng::SplitMix64;
use crate::train::{train, TrainConfig, TrainResult};
use crate::types::{Action, ActionSequence, Dataset, SkillAssignments, SkillLevel, Timestamp};

/// A train/test split of action sequences. Test actions keep their user so
/// skill levels can be transferred from the user's training timeline.
// lint:allow(unused-pub): returned by `split_actions`, taken by `heldout_log_likelihood`.
#[derive(Debug, Clone)]
pub struct ActionSplit {
    /// The training dataset (same items/schema, test actions removed).
    pub train: Dataset,
    /// Held-out actions, grouped by training-sequence index; empty groups
    /// are possible for users whose actions all stayed in training.
    pub test: Vec<Vec<Action>>,
}

/// Randomly holds out `test_fraction` of each user's actions.
///
/// Users whose entire sequence would be held out keep their first action in
/// training so the nearest-action skill transfer stays defined.
pub fn split_actions(dataset: &Dataset, test_fraction: f64, seed: u64) -> Result<ActionSplit> {
    if !(0.0..1.0).contains(&test_fraction) {
        return Err(CoreError::InvalidProbability {
            context: "test fraction",
            value: test_fraction,
        });
    }
    let mut rng = SplitMix64::new(seed);
    let mut train_seqs = Vec::with_capacity(dataset.n_users());
    let mut test = Vec::with_capacity(dataset.n_users());
    for seq in dataset.sequences() {
        let mut train_actions = Vec::with_capacity(seq.len());
        let mut test_actions = Vec::new();
        for &action in seq.actions() {
            if rng.next_f64() < test_fraction {
                test_actions.push(action);
            } else {
                train_actions.push(action);
            }
        }
        if train_actions.is_empty() {
            if let Some(first) = test_actions.first().copied() {
                train_actions.push(first);
                test_actions.remove(0);
            }
        }
        train_seqs.push(ActionSequence::new(seq.user, train_actions)?);
        test.push(test_actions);
    }
    let train = dataset.with_sequences(train_seqs)?;
    Ok(ActionSplit { train, test })
}

/// Skill level of the chronologically closest action to `t` in a training
/// sequence (`times` sorted ascending, `levels` parallel). Ties prefer the
/// earlier action.
pub fn nearest_skill(
    times: &[Timestamp],
    levels: &[SkillLevel],
    t: Timestamp,
) -> Option<SkillLevel> {
    if times.is_empty() || times.len() != levels.len() {
        return None;
    }
    let idx = match times.binary_search(&t) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i >= times.len() {
                times.len() - 1
            } else {
                let before = t - times[i - 1];
                let after = times[i] - t;
                if after < before {
                    i
                } else {
                    i - 1
                }
            }
        }
    };
    Some(levels[idx])
}

/// Log-likelihood of held-out actions under a trained model, transferring
/// each test action's skill level from the user's nearest training action.
///
/// Returns `(log_likelihood, n_scored)`; test actions whose user has no
/// training actions are skipped (possible only for empty sequences).
///
/// Emission scores come from one shared [`EmissionTable`] over the
/// training item set, so each held-out action costs a table lookup rather
/// than a fresh distribution evaluation (every candidate `S` in
/// [`sweep_skill_counts`] rescores the same items many times).
pub fn heldout_log_likelihood(
    model: &SkillModel,
    split: &ActionSplit,
    assignments: &SkillAssignments,
) -> Result<(f64, usize)> {
    if assignments.per_user.len() != split.train.n_users() {
        return Err(CoreError::LengthMismatch {
            context: "assignments vs training sequences",
            left: assignments.per_user.len(),
            right: split.train.n_users(),
        });
    }
    let table = EmissionTable::build(model, &split.train);
    let mut total = 0.0;
    let mut scored = 0usize;
    for ((seq, levels), test_actions) in split
        .train
        .sequences()
        .iter()
        .zip(&assignments.per_user)
        .zip(&split.test)
    {
        let times: Vec<Timestamp> = seq.actions().iter().map(|a| a.time).collect();
        for action in test_actions {
            let Some(s) = nearest_skill(&times, levels, action.time) else {
                continue;
            };
            let ll = table.log_likelihood(action.item, s);
            total += ll;
            scored += 1;
        }
    }
    Ok((total, scored))
}

/// One candidate's result in the skill-count sweep.
// lint:allow(unused-pub): returned by `sweep_skill_counts`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkillCountCandidate {
    /// Number of skill levels evaluated.
    pub n_levels: usize,
    /// Held-out log-likelihood (total over scored test actions).
    pub heldout_ll: f64,
    /// Held-out log-likelihood per scored action (comparable across `S`).
    pub heldout_ll_per_action: f64,
    /// Number of test actions scored.
    pub n_scored: usize,
    /// Training iterations used.
    pub train_iterations: usize,
}

/// Runs the Fig. 3 procedure: trains one model per candidate `S` on a 90/10
/// split and reports held-out likelihoods. Returns candidates in input
/// order; the caller picks the arg-max (see [`best_skill_count`]).
pub fn sweep_skill_counts(
    dataset: &Dataset,
    candidates: &[usize],
    base_config: &TrainConfig,
    test_fraction: f64,
    seed: u64,
) -> Result<Vec<SkillCountCandidate>> {
    let split = split_actions(dataset, test_fraction, seed)?;
    let mut out = Vec::with_capacity(candidates.len());
    for &n_levels in candidates {
        let config = TrainConfig {
            n_levels,
            ..*base_config
        };
        let TrainResult {
            model,
            assignments,
            trace,
            ..
        } = train(&split.train, &config)?;
        let (ll, scored) = heldout_log_likelihood(&model, &split, &assignments)?;
        out.push(SkillCountCandidate {
            n_levels,
            heldout_ll: ll,
            heldout_ll_per_action: if scored > 0 {
                ll / scored as f64
            } else {
                f64::NAN
            },
            n_scored: scored,
            train_iterations: trace.len(),
        });
    }
    Ok(out)
}

/// The candidate with the highest held-out log-likelihood.
pub fn best_skill_count(candidates: &[SkillCountCandidate]) -> Option<usize> {
    candidates
        .iter()
        .max_by(|a, b| {
            a.heldout_ll
                .partial_cmp(&b.heldout_ll)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|c| c.n_levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};

    fn progression_dataset(n_users: usize, len: usize, n_cats: u32) -> Dataset {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical {
            cardinality: n_cats,
        }])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..n_cats)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let sequences: Vec<ActionSequence> = (0..n_users as u32)
            .map(|u| {
                let actions: Vec<Action> = (0..len)
                    .map(|t| {
                        let cat = (t * n_cats as usize / len) as u32;
                        Action::new(t as i64, u, cat)
                    })
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn split_preserves_actions_and_is_deterministic() {
        let ds = progression_dataset(10, 20, 4);
        let a = split_actions(&ds, 0.1, 99).unwrap();
        let b = split_actions(&ds, 0.1, 99).unwrap();
        let count =
            |s: &ActionSplit| s.train.n_actions() + s.test.iter().map(Vec::len).sum::<usize>();
        assert_eq!(count(&a), ds.n_actions());
        assert_eq!(a.train.n_actions(), b.train.n_actions());
        // About 10% held out.
        let held: usize = a.test.iter().map(Vec::len).sum();
        assert!(held > 0 && held < ds.n_actions() / 4, "held {held}");
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let ds = progression_dataset(2, 5, 2);
        assert!(split_actions(&ds, 1.0, 0).is_err());
        assert!(split_actions(&ds, -0.1, 0).is_err());
    }

    #[test]
    fn split_never_empties_a_training_sequence() {
        let ds = progression_dataset(20, 3, 2);
        // Aggressive fraction: without the guard, many users would lose all.
        let split = split_actions(&ds, 0.9, 5).unwrap();
        for seq in split.train.sequences() {
            assert!(!seq.is_empty());
        }
    }

    #[test]
    fn nearest_skill_picks_closest_by_time() {
        let times = [0, 10, 20];
        let levels = [1, 2, 3];
        assert_eq!(nearest_skill(&times, &levels, -5), Some(1));
        assert_eq!(nearest_skill(&times, &levels, 4), Some(1));
        assert_eq!(nearest_skill(&times, &levels, 6), Some(2));
        assert_eq!(nearest_skill(&times, &levels, 10), Some(2));
        assert_eq!(nearest_skill(&times, &levels, 99), Some(3));
        // Exact midpoint ties to the earlier action.
        assert_eq!(nearest_skill(&times, &levels, 5), Some(1));
        assert_eq!(nearest_skill(&[], &[], 0), None);
    }

    #[test]
    fn sweep_prefers_true_skill_count() {
        // Data generated with 3 clear stages: S=3 should beat S=1.
        let ds = progression_dataset(30, 18, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(6);
        let candidates = sweep_skill_counts(&ds, &[1, 3], &cfg, 0.1, 7).unwrap();
        assert_eq!(candidates.len(), 2);
        let best = best_skill_count(&candidates).unwrap();
        assert_eq!(best, 3, "candidates: {candidates:?}");
    }

    #[test]
    fn heldout_ll_is_finite_and_scores_most_actions() {
        let ds = progression_dataset(15, 12, 3);
        let split = split_actions(&ds, 0.15, 3).unwrap();
        let cfg = TrainConfig::new(3).with_min_init_actions(5);
        let result = train(&split.train, &cfg).unwrap();
        let (ll, scored) =
            heldout_log_likelihood(&result.model, &split, &result.assignments).unwrap();
        assert!(ll.is_finite());
        let held: usize = split.test.iter().map(Vec::len).sum();
        assert_eq!(scored, held);
    }

    #[test]
    fn best_skill_count_empty_is_none() {
        assert_eq!(best_skill_count(&[]), None);
    }
}
