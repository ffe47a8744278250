//! Online skill tracking: the forward pass of the assignment DP maintained
//! incrementally, so a deployed system can update a user's estimated skill
//! level in O(F·S) per incoming action without re-running training.
//!
//! The tracker is *filtering* (best level given the prefix); it agrees
//! with the prefix-optimal DP score at every step, though the final
//! *smoothed* assignment of early actions can differ once later evidence
//! arrives — exactly the usual Viterbi filtering-vs-smoothing distinction.

use serde::{Deserialize, Serialize};

use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::feature::FeatureValue;
use crate::model::SkillModel;
use crate::types::{ItemId, SkillLevel};

/// Incremental skill estimator for a single user.
///
/// ```
/// use upskill_core::dist::{Categorical, FeatureDistribution};
/// use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
/// use upskill_core::model::SkillModel;
/// use upskill_core::online::OnlineTracker;
///
/// // Two levels over one categorical feature: level 1 prefers category 0,
/// // level 2 prefers category 1.
/// let schema = FeatureSchema::new(vec![
///     FeatureKind::Categorical { cardinality: 2 },
/// ])?;
/// let cells = vec![
///     vec![FeatureDistribution::Categorical(
///         Categorical::from_probs(vec![0.9, 0.1])?,
///     )],
///     vec![FeatureDistribution::Categorical(
///         Categorical::from_probs(vec![0.1, 0.9])?,
///     )],
/// ];
/// let model = SkillModel::new(schema, 2, cells)?;
///
/// let mut tracker = OnlineTracker::new(2)?;
/// assert_eq!(tracker.observe(&model, &[FeatureValue::Categorical(0)])?, 1);
/// // A hard selection immediately moves the estimate up (the monotone
/// // path "start at 1, advance" explains both actions well).
/// assert_eq!(tracker.observe(&model, &[FeatureValue::Categorical(1)])?, 2);
/// assert_eq!(tracker.observe(&model, &[FeatureValue::Categorical(1)])?, 2);
/// # Ok::<(), upskill_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineTracker {
    /// `scores[s-1]` = best log-likelihood of any monotone path over the
    /// observed prefix ending at level `s`.
    scores: Vec<f64>,
    n_observed: usize,
}

impl OnlineTracker {
    /// Creates a tracker for a model with `n_levels` levels.
    pub fn new(n_levels: usize) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        Ok(Self {
            scores: vec![0.0; n_levels],
            n_observed: 0,
        })
    }

    /// Number of actions observed so far.
    pub fn n_observed(&self) -> usize {
        self.n_observed
    }

    /// Feeds one action's item features; returns the current MAP level.
    pub fn observe(&mut self, model: &SkillModel, features: &[FeatureValue]) -> Result<SkillLevel> {
        if model.n_levels() != self.scores.len() {
            return Err(CoreError::LengthMismatch {
                context: "tracker levels vs model levels",
                left: self.scores.len(),
                right: model.n_levels(),
            });
        }
        let emissions = model.item_log_likelihoods(features);
        self.advance(&emissions);
        self.current_level()
    }

    /// Feeds one action by item id, reading emissions from a precomputed
    /// [`EmissionTable`] — no per-action allocation or distribution
    /// evaluation, so a deployed tracker costs `O(S)` per action between
    /// table refreshes. Identical result to [`OnlineTracker::observe`] with
    /// the model the table was built from.
    pub fn observe_item(&mut self, table: &EmissionTable, item: ItemId) -> Result<SkillLevel> {
        if table.n_levels() != self.scores.len() {
            return Err(CoreError::LengthMismatch {
                context: "tracker levels vs table levels",
                left: self.scores.len(),
                right: table.n_levels(),
            });
        }
        let row = table
            .checked_row(item)
            .ok_or(CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: table.n_items(),
            })?;
        self.advance(row);
        self.current_level()
    }

    /// Folds one emission vector into the prefix scores. `emissions` is
    /// a row of a table with this tracker's level count.
    fn advance(&mut self, emissions: &[f64]) {
        fold_prefix_scores(&mut self.scores, emissions, self.n_observed == 0);
        self.n_observed += 1;
    }

    /// The current maximum-likelihood level (ties break low).
    pub fn current_level(&self) -> Result<SkillLevel> {
        if self.n_observed == 0 {
            return Err(CoreError::EmptyDataset);
        }
        best_prefix_level(&self.scores)
    }

    /// Raw per-level prefix scores (log-likelihoods).
    pub fn level_scores(&self) -> &[f64] {
        &self.scores
    }

    /// Posterior-like normalized weights over levels (softmax of scores).
    pub fn level_weights(&self) -> Vec<f64> {
        let max = self
            .scores
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return vec![1.0 / self.scores.len() as f64; self.scores.len()];
        }
        let exps: Vec<f64> = self.scores.iter().map(|&s| (s - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / total).collect()
    }
}

/// Folds one emission row into the prefix scores of the monotone
/// paths: `scores[s - 1]`, the best log-likelihood of any path over the
/// prefix ending at level `s`, becomes the row itself on the `first`
/// action and `max(stay, advance) + row[s - 1]` after it. `emissions`
/// has the scores' length. The one filtering step of [`OnlineTracker`]
/// and of the live users of [`crate::streaming`].
pub(crate) fn fold_prefix_scores(scores: &mut [f64], emissions: &[f64], first: bool) {
    if first {
        scores.copy_from_slice(emissions);
        return;
    }
    // In-place right-to-left update: scores[s] = max(scores[s],
    // scores[s-1]) + emit[s]. Right-to-left keeps scores[s-1]
    // un-updated when read.
    for s in (0..scores.len()).rev() {
        let stay = scores[s];
        let up = if s > 0 {
            scores[s - 1]
        } else {
            f64::NEG_INFINITY
        };
        scores[s] = stay.max(up) + emissions[s];
    }
}

/// The level whose prefix score is best (ties break low), for scores
/// that have folded at least one action; an error when every path is
/// impossible.
pub(crate) fn best_prefix_level(scores: &[f64]) -> Result<SkillLevel> {
    let (mut best, mut best_score) = (0usize, f64::NEG_INFINITY);
    for (s, &score) in scores.iter().enumerate() {
        if score > best_score {
            best_score = score;
            best = s;
        }
    }
    if crate::float_cmp::is_neg_infinity(best_score) {
        return Err(CoreError::DegenerateFit {
            distribution: "online tracker",
            reason: "all paths impossible; enable smoothing",
        });
    }
    Ok((best + 1) as SkillLevel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::assign_sequence;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::feature::{FeatureKind, FeatureSchema};
    use crate::types::{Action, ActionSequence, Dataset};

    fn diagonal_model(s_max: usize) -> SkillModel {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical {
            cardinality: s_max as u32,
        }])
        .unwrap();
        let cells = (0..s_max)
            .map(|s| {
                let mut probs = vec![0.05; s_max];
                probs[s] = 1.0 - 0.05 * (s_max as f64 - 1.0);
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        SkillModel::new(schema, s_max, cells).unwrap()
    }

    #[test]
    fn empty_tracker_has_no_level() {
        let t = OnlineTracker::new(3).unwrap();
        assert!(t.current_level().is_err());
        assert!(OnlineTracker::new(0).is_err());
    }

    #[test]
    fn tracks_progression() {
        let model = diagonal_model(3);
        let mut t = OnlineTracker::new(3).unwrap();
        let mut levels = Vec::new();
        for cat in [0u32, 0, 1, 1, 2, 2] {
            levels.push(
                t.observe(&model, &[FeatureValue::Categorical(cat)])
                    .unwrap(),
            );
        }
        // Filtering levels are monotone here and end at the top.
        assert_eq!(*levels.last().unwrap(), 3);
        assert!(levels.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.n_observed(), 6);
    }

    #[test]
    fn final_score_matches_batch_dp() {
        let model = diagonal_model(4);
        let cats = [0u32, 1, 1, 2, 3, 3, 2, 1];
        // Batch DP.
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 4 }]).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..4u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq = ActionSequence::new(
            0,
            cats.iter()
                .enumerate()
                .map(|(t, &c)| Action::new(t as i64, 0, c))
                .collect(),
        )
        .unwrap();
        let ds = Dataset::new(schema, items, vec![seq.clone()]).unwrap();
        let batch = assign_sequence(&model, &ds, &seq).unwrap();
        // Online.
        let mut tracker = OnlineTracker::new(4).unwrap();
        let mut last = 1;
        for &c in &cats {
            last = tracker
                .observe(&model, &[FeatureValue::Categorical(c)])
                .unwrap();
        }
        let online_best = tracker
            .level_scores()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((online_best - batch.log_likelihood).abs() < 1e-9);
        assert_eq!(last, *batch.levels.last().unwrap());
    }

    #[test]
    fn level_weights_normalize_and_peak_correctly() {
        let model = diagonal_model(3);
        let mut t = OnlineTracker::new(3).unwrap();
        for _ in 0..5 {
            t.observe(&model, &[FeatureValue::Categorical(2)]).unwrap();
        }
        let w = t.level_weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[2] > w[0] && w[2] > w[1]);
    }

    #[test]
    fn observe_item_matches_observe() {
        let model = diagonal_model(3);
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 3 }]).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..3u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq = ActionSequence::new(0, vec![Action::new(0, 0, 0)]).unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();
        let table = EmissionTable::build(&model, &ds);
        let mut by_features = OnlineTracker::new(3).unwrap();
        let mut by_item = OnlineTracker::new(3).unwrap();
        for item in [0u32, 0, 1, 2, 2, 1] {
            let a = by_features
                .observe(&model, &[FeatureValue::Categorical(item)])
                .unwrap();
            let b = by_item.observe_item(&table, item).unwrap();
            assert_eq!(a, b);
            assert_eq!(by_features.level_scores(), by_item.level_scores());
        }
        assert!(by_item.observe_item(&table, 42).is_err());
        let mut wrong_size = OnlineTracker::new(4).unwrap();
        assert!(wrong_size.observe_item(&table, 0).is_err());
    }

    #[test]
    fn model_mismatch_rejected() {
        let model = diagonal_model(3);
        let mut t = OnlineTracker::new(4).unwrap();
        assert!(t.observe(&model, &[FeatureValue::Categorical(0)]).is_err());
    }
}
