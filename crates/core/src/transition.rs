//! Probabilistic skill transitions — the §IV-A/§VII extension.
//!
//! The base model treats "stay" and "advance" as equally acceptable and
//! lets the emission likelihoods decide. Following Shin et al. (2018), this
//! module adds an explicit transition component: a per-level probability of
//! staying vs. moving up one level, plus an initial-level distribution.
//! The DP objective becomes the full joint
//! `log P(s_1) + Σ_n log P(s_n | s_{n−1}) + Σ_n log P(i_n | s_n)`.
//!
//! Transition parameters are re-estimated from the hard assignments each
//! iteration (counts with additive smoothing), so the extension slots into
//! the same alternating trainer.

use serde::{Deserialize, Serialize};

use crate::emission::DirectEmissions;
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::types::{ActionSequence, Dataset, SkillAssignments, SkillLevel};

/// Per-level stay/advance probabilities and the initial-level distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    /// `stay[s-1]` = P(stay at level s); advance probability is
    /// `1 − stay[s-1]` (forced to 1.0 at the top level).
    stay: Vec<f64>,
    /// Initial-level distribution `init[s-1]` (sums to 1).
    init: Vec<f64>,
}

impl TransitionModel {
    /// Builds a transition model, validating probability ranges.
    pub fn new(stay: Vec<f64>, init: Vec<f64>) -> Result<Self> {
        if stay.len() != init.len() || stay.is_empty() {
            return Err(CoreError::LengthMismatch {
                context: "transition stay vs init",
                left: stay.len(),
                right: init.len(),
            });
        }
        for &p in &stay {
            if !(0.0..=1.0).contains(&p) {
                return Err(CoreError::InvalidProbability {
                    context: "stay probability",
                    value: p,
                });
            }
        }
        let sum: f64 = init.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || init.iter().any(|&p| p < 0.0) {
            return Err(CoreError::InvalidProbability {
                context: "initial-level distribution",
                value: sum,
            });
        }
        let mut model = Self { stay, init };
        // Top level can only stay.
        if let Some(last) = model.stay.last_mut() {
            *last = 1.0;
        }
        Ok(model)
    }

    /// The "uninformative" transition model: uniform initial distribution,
    /// stay probability ½ everywhere (1 at the top). With these values the
    /// extended DP reduces to the base DP up to a constant per sequence.
    pub fn uninformative(n_levels: usize) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        Self::new(vec![0.5; n_levels], vec![1.0 / n_levels as f64; n_levels])
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.stay.len()
    }

    /// `log P(stay at s)`; `-inf` for a level outside `1..=S`.
    pub(crate) fn log_stay(&self, s: SkillLevel) -> f64 {
        level_index(s)
            .and_then(|i| self.stay.get(i))
            .map(|&p| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY })
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// `log P(advance from s to s+1)`; `-inf` for a level outside
    /// `1..=S`.
    pub(crate) fn log_advance(&self, s: SkillLevel) -> f64 {
        level_index(s)
            .and_then(|i| self.stay.get(i))
            .map(|&p| {
                let adv = 1.0 - p;
                if adv > 0.0 {
                    adv.ln()
                } else {
                    f64::NEG_INFINITY
                }
            })
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// `log P(initial level = s)`; `-inf` for a level outside `1..=S`.
    pub(crate) fn log_init(&self, s: SkillLevel) -> f64 {
        level_index(s)
            .and_then(|i| self.init.get(i))
            .map(|&p| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY })
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Stay probabilities per level.
    pub fn stay_probs(&self) -> &[f64] {
        &self.stay
    }

    /// Initial distribution per level.
    pub fn init_probs(&self) -> &[f64] {
        &self.init
    }
}

/// Zero-based index of a one-based level; `None` for level 0.
fn level_index(s: SkillLevel) -> Option<usize> {
    (s as usize).checked_sub(1)
}

/// DP assignment including transition log-probabilities.
///
/// An item outside the dataset's catalog is a
/// [`CoreError::FeatureIndexOutOfBounds`], raised before any emission is
/// scored.
pub fn assign_sequence_with_transitions(
    model: &SkillModel,
    transitions: &TransitionModel,
    dataset: &Dataset,
    sequence: &ActionSequence,
) -> Result<crate::assign::SequenceAssignment> {
    let s_max = model.n_levels();
    if transitions.n_levels() != s_max {
        return Err(CoreError::LengthMismatch {
            context: "transition model vs skill model levels",
            left: transitions.n_levels(),
            right: s_max,
        });
    }
    let n = sequence.len();
    if n == 0 {
        return Ok(crate::assign::SequenceAssignment {
            levels: Vec::new(),
            log_likelihood: 0.0,
        });
    }
    let emit = DirectEmissions { model, dataset }.rows_of(sequence.actions())?;

    let mut prev: Vec<f64> = (0..s_max)
        .map(|s| transitions.log_init((s + 1) as SkillLevel) + emit[0][s])
        .collect();
    let mut curr = vec![f64::NEG_INFINITY; s_max];
    let mut advanced = vec![false; n * s_max];
    for (t, emit_t) in emit.iter().enumerate().skip(1) {
        for s in 0..s_max {
            let stay = prev[s] + transitions.log_stay((s + 1) as SkillLevel);
            let up = if s > 0 {
                prev[s - 1] + transitions.log_advance(s as SkillLevel)
            } else {
                f64::NEG_INFINITY
            };
            let (best, from_below) = if up > stay { (up, true) } else { (stay, false) };
            curr[s] = best + emit_t[s];
            advanced[t * s_max + s] = from_below;
        }
        std::mem::swap(&mut prev, &mut curr);
    }

    let (mut best_s, mut best_ll) = (0usize, f64::NEG_INFINITY);
    for (s, &ll) in prev.iter().enumerate() {
        if ll > best_ll {
            best_ll = ll;
            best_s = s;
        }
    }
    if crate::float_cmp::is_neg_infinity(best_ll) {
        return Err(CoreError::DegenerateFit {
            distribution: "transition DP",
            reason: "all paths have zero probability",
        });
    }
    let mut levels = vec![0 as SkillLevel; n];
    let mut s = best_s;
    for t in (0..n).rev() {
        levels[t] = (s + 1) as SkillLevel;
        if t > 0 && advanced[t * s_max + s] {
            s -= 1;
        }
    }
    Ok(crate::assign::SequenceAssignment {
        levels,
        log_likelihood: best_ll,
    })
}

/// Re-estimates transition parameters from hard assignments with additive
/// smoothing `lambda` on both the stay/advance counts and the initial
/// distribution.
pub fn fit_transitions(
    assignments: &SkillAssignments,
    n_levels: usize,
    lambda: f64,
) -> Result<TransitionModel> {
    if n_levels == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(CoreError::InvalidProbability {
            context: "transition smoothing",
            value: lambda,
        });
    }
    let mut stay_counts = vec![0.0f64; n_levels];
    let mut advance_counts = vec![0.0f64; n_levels];
    let mut init_counts = vec![0.0f64; n_levels];
    for (user, path) in assignments.per_user.iter().enumerate() {
        let mut prev: Option<usize> = None;
        for (position, &level) in path.iter().enumerate() {
            let invalid = |reason| CoreError::InvalidLevelPath {
                user,
                position,
                level,
                reason,
            };
            let s = level_index(level)
                .filter(|&s| s < n_levels)
                .ok_or_else(|| invalid("is outside 1..=S"))?;
            let count = match prev {
                None => &mut init_counts[s],
                Some(a) if s == a => &mut stay_counts[a],
                Some(a) if s == a + 1 => &mut advance_counts[a],
                Some(_) => return Err(invalid("is neither a stay nor a +1 step")),
            };
            *count += 1.0;
            prev = Some(s);
        }
    }
    let stay: Vec<f64> = (0..n_levels)
        .map(|s| {
            let total = stay_counts[s] + advance_counts[s] + 2.0 * lambda;
            if total > 0.0 {
                (stay_counts[s] + lambda) / total
            } else {
                0.5
            }
        })
        .collect();
    let init_total: f64 = init_counts.iter().sum::<f64>() + lambda * n_levels as f64;
    let init: Vec<f64> = init_counts
        .iter()
        .map(|&c| {
            if init_total > 0.0 {
                (c + lambda) / init_total
            } else {
                1.0 / n_levels as f64
            }
        })
        .collect();
    TransitionModel::new(stay, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::Action;

    fn diagonal_setup(s_max: usize) -> (SkillModel, Dataset) {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical {
            cardinality: s_max as u32,
        }])
        .unwrap();
        let cells = (0..s_max)
            .map(|s| {
                let mut probs = vec![0.1 / (s_max as f64 - 1.0).max(1.0); s_max];
                probs[s] = 0.9;
                let total: f64 = probs.iter().sum();
                for p in probs.iter_mut() {
                    *p /= total;
                }
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        let model = SkillModel::new(schema.clone(), s_max, cells).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..s_max as u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq = ActionSequence::new(
            0,
            (0..s_max * 2)
                .map(|t| Action::new(t as i64, 0, (t / 2) as u32))
                .collect(),
        )
        .unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();
        (model, ds)
    }

    #[test]
    fn model_validation() {
        assert!(TransitionModel::new(vec![0.5], vec![1.0]).is_ok());
        assert!(TransitionModel::new(vec![1.5], vec![1.0]).is_err());
        assert!(TransitionModel::new(vec![0.5, 0.5], vec![0.3, 0.3]).is_err());
        assert!(TransitionModel::new(vec![], vec![]).is_err());
        assert!(TransitionModel::uninformative(0).is_err());
    }

    #[test]
    fn top_level_always_stays() {
        let m = TransitionModel::new(vec![0.3, 0.3], vec![0.5, 0.5]).unwrap();
        assert_eq!(m.stay_probs()[1], 1.0);
        assert_eq!(m.log_advance(2), f64::NEG_INFINITY);
    }

    #[test]
    fn uninformative_transitions_match_base_dp_assignment() {
        let (model, ds) = diagonal_setup(3);
        let seq = &ds.sequences()[0];
        let base = crate::assign::assign_sequence(&model, &ds, seq).unwrap();
        let trans = TransitionModel::uninformative(3).unwrap();
        let ext = assign_sequence_with_transitions(&model, &trans, &ds, seq).unwrap();
        assert_eq!(base.levels, ext.levels);
    }

    #[test]
    fn sticky_transitions_discourage_advancing() {
        let (model, ds) = diagonal_setup(3);
        let seq = &ds.sequences()[0];
        // Extremely sticky: advancing costs ln(0.0001).
        let sticky = TransitionModel::new(vec![0.9999, 0.9999, 1.0], vec![1.0 / 3.0; 3]).unwrap();
        let ext = assign_sequence_with_transitions(&model, &sticky, &ds, seq).unwrap();
        // The path should advance fewer times than the emission-optimal 2.
        let advances = ext.levels.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(advances < 2, "levels {:?}", ext.levels);
    }

    #[test]
    fn fit_transitions_counts_correctly() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 2, 2, 2], vec![2, 3, 3], vec![1, 2]],
        };
        let m = fit_transitions(&a, 3, 0.0).unwrap();
        // Level 1: stays 1 (1→1), advances 2 (1→2 twice) → stay = 1/3.
        assert!((m.stay_probs()[0] - 1.0 / 3.0).abs() < 1e-12);
        // Level 2: stays 2, advances 1 → 2/3.
        assert!((m.stay_probs()[1] - 2.0 / 3.0).abs() < 1e-12);
        // Initial levels: two sequences start at 1, one at 2.
        assert!((m.init_probs()[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.init_probs()[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fit_transitions_rejects_nonmonotone_jumps() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 3]],
        };
        assert!(fit_transitions(&a, 3, 0.01).is_err());
        // The error names the real user and action, for jumps and drops.
        let a = SkillAssignments {
            per_user: vec![vec![1, 1], vec![1, 2, 2, 1]],
        };
        assert_eq!(
            fit_transitions(&a, 3, 0.01),
            Err(CoreError::InvalidLevelPath {
                user: 1,
                position: 3,
                level: 1,
                reason: "is neither a stay nor a +1 step",
            })
        );
    }

    #[test]
    fn fit_transitions_range_checks_every_level() {
        // A level above S after the first action is a typed error, not an
        // out-of-bounds index.
        let a = SkillAssignments {
            per_user: vec![vec![2, 3, 4]],
        };
        assert_eq!(
            fit_transitions(&a, 2, 0.01),
            Err(CoreError::InvalidLevelPath {
                user: 0,
                position: 1,
                level: 3,
                reason: "is outside 1..=S",
            })
        );
        // Level 0 is outside the range too, wherever it sits.
        for (path, position) in [(vec![0, 1], 0), (vec![1, 1, 0], 2)] {
            let a = SkillAssignments {
                per_user: vec![vec![1], path],
            };
            assert!(matches!(
                fit_transitions(&a, 2, 0.01),
                Err(CoreError::InvalidLevelPath { user: 1, position: p, level: 0, .. })
                    if p == position
            ));
        }
    }

    #[test]
    fn log_accessors_treat_level_zero_as_impossible() {
        let m = TransitionModel::uninformative(3).unwrap();
        assert_eq!(m.log_stay(0), f64::NEG_INFINITY);
        assert_eq!(m.log_advance(0), f64::NEG_INFINITY);
        assert_eq!(m.log_init(0), f64::NEG_INFINITY);
        assert_eq!(m.log_stay(4), f64::NEG_INFINITY);
        assert!(m.log_init(1).is_finite());
    }

    #[test]
    fn unknown_items_are_rejected_before_any_read() {
        let (model, ds) = diagonal_setup(2);
        let trans = TransitionModel::uninformative(2).unwrap();
        let rogue =
            ActionSequence::new(9, vec![Action::new(0, 9, 0), Action::new(1, 9, 50)]).unwrap();
        assert!(matches!(
            assign_sequence_with_transitions(&model, &trans, &ds, &rogue),
            Err(CoreError::FeatureIndexOutOfBounds { index: 50, len: 2 })
        ));
    }

    #[test]
    fn fit_transitions_smoothing_keeps_probabilities_interior() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 1]],
        };
        let m = fit_transitions(&a, 2, 0.5).unwrap();
        assert!(m.stay_probs()[0] > 0.0 && m.stay_probs()[0] < 1.0);
        assert!(m.init_probs()[1] > 0.0);
    }
}
