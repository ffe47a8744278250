//! Fundamental data types: users, items, actions, and datasets.
//!
//! The paper models a set of users `U`, each with a chronologically sorted
//! action sequence `A_u` of triples `(t, u, i)` where `i` is an item
//! described by multi-faceted features (Section III of the paper).
//!
//! [`Dataset`] is the canonical in-memory representation shared by the
//! trainer, the difficulty estimators, and the evaluation harness. It
//! stores one feature tuple per *item* (items are deduplicated) and one
//! compact [`Action`] per event.

use serde::{Deserialize, Serialize};

use crate::catalog::{Catalog, ItemTable};
use crate::error::{CoreError, Result};
use crate::feature::{FeatureSchema, FeatureValue};

/// Identifier of a user. Dense indices (`0..n_users`) are expected.
pub type UserId = u32;

/// Identifier of an item. Dense indices (`0..n_items`) are expected.
pub type ItemId = u32;

/// Event timestamp. Only the *order* matters to the model; any monotone
/// clock (seconds, logical counters) works.
pub(crate) type Timestamp = i64;

/// A skill level in `1..=S` as defined in the paper (Definition 1).
pub type SkillLevel = u8;

/// Converts a zero-based level index into the 1-based [`SkillLevel`].
///
/// This is the single narrowing conversion the hot paths need; routing it
/// through one helper keeps truncating `as` casts out of DP loops.
/// Callers guarantee `index < S`, and `S ≤ SkillLevel::MAX` is enforced
/// by [`TrainConfig::validate`](crate::train::TrainConfig::validate), so
/// the cast cannot truncate; the debug assertion pins that reasoning.
#[inline]
pub(crate) fn skill_level_from_index(index: usize) -> SkillLevel {
    debug_assert!(index < SkillLevel::MAX as usize);
    (index + 1) as SkillLevel
}

/// One user action: at time `t`, user `u` selected item `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Action {
    /// When the action happened.
    pub time: Timestamp,
    /// Who acted.
    pub user: UserId,
    /// Which item was selected.
    pub item: ItemId,
}

impl Action {
    /// Creates a new action triple.
    pub fn new(time: Timestamp, user: UserId, item: ItemId) -> Self {
        Self { time, user, item }
    }
}

/// A user's chronologically sorted action sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionSequence {
    /// The owner of this sequence.
    pub user: UserId,
    /// Actions sorted by [`Action::time`] (ties allowed, stable order).
    actions: Vec<Action>,
}

impl ActionSequence {
    /// Builds a sequence, validating user consistency and chronological order.
    pub fn new(user: UserId, actions: Vec<Action>) -> Result<Self> {
        for (pos, window) in actions.windows(2).enumerate() {
            if window[1].time < window[0].time {
                return Err(CoreError::UnsortedSequence {
                    user,
                    position: pos + 1,
                });
            }
        }
        if let Some(pos) = actions.iter().position(|a| a.user != user) {
            return Err(CoreError::UnsortedSequence {
                user,
                position: pos,
            });
        }
        Ok(Self { user, actions })
    }

    /// A sequence of `actions` already known to be `user`'s and in time
    /// order, without re-checking them.
    pub(crate) fn from_checked(user: UserId, actions: Vec<Action>) -> Self {
        Self { user, actions }
    }

    /// Builds a sequence, sorting the actions by time first (stable).
    pub fn from_unsorted(user: UserId, mut actions: Vec<Action>) -> Result<Self> {
        actions.sort_by_key(|a| a.time);
        Self::new(user, actions)
    }

    /// Appends one action, validating that it belongs to this user and does
    /// not move time backwards. Used by the streaming ingestion path.
    pub fn push(&mut self, action: Action) -> Result<()> {
        if action.user != self.user {
            return Err(CoreError::UnsortedSequence {
                user: self.user,
                position: self.actions.len(),
            });
        }
        if let Some(last) = self.actions.last() {
            if action.time < last.time {
                return Err(CoreError::UnsortedSequence {
                    user: self.user,
                    position: self.actions.len(),
                });
            }
        }
        self.actions.push(action);
        Ok(())
    }

    /// The actions in chronological order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions in the sequence.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A complete dataset: the item feature table plus all user sequences.
///
/// Invariants enforced at construction time:
/// - every sequence is chronologically sorted;
/// - every action references an item present in the feature table;
/// - every item's feature tuple matches the [`FeatureSchema`].
///
/// The item table never changes once built. It is shared, not copied,
/// by the datasets `Dataset::with_sequences` derives (and by clones),
/// together with its typed feature columns, which are gathered once on
/// first use. Serialization writes the item rows only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    schema: FeatureSchema,
    /// `items.rows()[i]` is the feature tuple of item `i`.
    items: ItemTable,
    /// One entry per user, indexed by position (user ids may be sparse but
    /// each sequence knows its own id).
    sequences: Vec<ActionSequence>,
    /// Total number of actions across all sequences (cached).
    n_actions: usize,
}

impl Dataset {
    /// Assembles and validates a dataset.
    pub fn new(
        schema: FeatureSchema,
        items: Vec<Vec<FeatureValue>>,
        sequences: Vec<ActionSequence>,
    ) -> Result<Self> {
        for features in &items {
            schema.validate_item(features)?;
        }
        let n_actions = count_actions(&sequences, items.len())?;
        Ok(Self {
            schema,
            items: ItemTable::checked(items),
            sequences,
            n_actions,
        })
    }

    /// A dataset over this one's schema and item table with other
    /// sequences — [`Dataset::new`] without copying or re-checking the
    /// items. The new dataset shares the table, and its feature
    /// columns, with this one. Only the new sequences are checked
    /// (every action must reference an existing item); the items are
    /// checked once per table, so a table that bypassed
    /// [`Dataset::new`] (deserialized) reports the same error here as
    /// [`Dataset::new`] would.
    pub(crate) fn with_sequences(&self, sequences: Vec<ActionSequence>) -> Result<Self> {
        self.items.check(&self.schema)?;
        count_actions(&sequences, self.n_items())?;
        Ok(self.with_checked_sequences(sequences))
    }

    /// [`Dataset::with_sequences`] without the item checks, for sequences
    /// whose every action was checked against this item table already.
    pub(crate) fn with_checked_sequences(&self, sequences: Vec<ActionSequence>) -> Self {
        Self {
            schema: self.schema.clone(),
            items: self.items.clone(),
            n_actions: sequences.iter().map(ActionSequence::len).sum(),
            sequences,
        }
    }

    /// The sequences, moved out of the dataset.
    pub(crate) fn into_sequences(self) -> Vec<ActionSequence> {
        self.sequences
    }

    /// The feature schema shared by all items.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// Feature tuple of an item.
    pub fn item_features(&self, item: ItemId) -> &[FeatureValue] {
        &self.items.rows()[item as usize]
    }

    /// The full item feature table.
    pub fn items(&self) -> &[Vec<FeatureValue>] {
        self.items.rows()
    }

    /// The item rows with their typed feature columns, gathering the
    /// columns on the table's first call.
    pub(crate) fn catalog(&self) -> Catalog<'_> {
        self.items.catalog(&self.schema)
    }

    #[cfg(test)]
    pub(crate) fn item_table(&self) -> &ItemTable {
        &self.items
    }

    #[cfg(test)]
    pub(crate) fn item_table_mut(&mut self) -> &mut ItemTable {
        &mut self.items
    }

    /// Number of distinct items.
    pub fn n_items(&self) -> usize {
        self.items.rows().len()
    }

    /// All user sequences.
    pub fn sequences(&self) -> &[ActionSequence] {
        &self.sequences
    }

    /// Number of users (sequences).
    pub fn n_users(&self) -> usize {
        self.sequences.len()
    }

    /// Total number of actions `|A|`.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Iterates over every action in the dataset, sequence by sequence.
    pub fn actions(&self) -> impl Iterator<Item = Action> + '_ {
        self.sequences
            .iter()
            .flat_map(|s| s.actions().iter().copied())
    }

    /// Number of actions that select each item (`support[i]`).
    pub fn item_support(&self) -> Vec<u32> {
        let mut support = vec![0u32; self.n_items()];
        for a in self.actions() {
            support[a.item as usize] += 1;
        }
        support
    }

    /// Re-verifies every construction-time invariant on an existing
    /// dataset: item tuples conform to the schema, sequences are sorted
    /// and owner-consistent, actions reference existing items, and the
    /// cached action count matches.
    ///
    /// [`Dataset::new`] establishes these invariants, but serde
    /// deserialization constructs the struct field-by-field and bypasses
    /// them; callers loading a dataset from untrusted storage should run
    /// this before training on it.
    pub fn validate(&self) -> Result<()> {
        self.items.check(&self.schema)?;
        let mut n_actions = 0usize;
        for seq in &self.sequences {
            // Re-run the sequence-level checks (sortedness + ownership).
            ActionSequence::new(seq.user, seq.actions.clone())?;
            for a in seq.actions() {
                if a.item as usize >= self.n_items() {
                    return Err(CoreError::FeatureIndexOutOfBounds {
                        index: a.item as usize,
                        len: self.n_items(),
                    });
                }
            }
            n_actions += seq.len();
        }
        if n_actions != self.n_actions {
            return Err(CoreError::LengthMismatch {
                context: "cached action count vs actual actions",
                left: self.n_actions,
                right: n_actions,
            });
        }
        Ok(())
    }

    /// Splits off a view with only the selected users, sharing the item
    /// table and schema (`Dataset::with_sequences`). Used by the
    /// initialization step, which trains on long sequences only.
    pub fn subset_users(&self, keep: impl Fn(&ActionSequence) -> bool) -> Result<Self> {
        let sequences: Vec<ActionSequence> =
            self.sequences.iter().filter(|s| keep(s)).cloned().collect();
        self.with_sequences(sequences)
    }
}

/// Total actions of `sequences`, checking that each references one of
/// `n_items` items.
fn count_actions(sequences: &[ActionSequence], n_items: usize) -> Result<usize> {
    let mut n_actions = 0usize;
    for seq in sequences {
        for a in seq.actions() {
            if a.item as usize >= n_items {
                return Err(CoreError::FeatureIndexOutOfBounds {
                    index: a.item as usize,
                    len: n_items,
                });
            }
        }
        n_actions += seq.len();
    }
    Ok(n_actions)
}

/// A flat per-action skill assignment, parallel to [`Dataset::sequences`]:
/// `assignments[u][n]` is the skill level of the `n`-th action of the `u`-th
/// sequence. Produced by the trainer's assignment step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkillAssignments {
    /// Per-sequence, per-action skill levels (`1..=S`).
    pub per_user: Vec<Vec<SkillLevel>>,
}

impl SkillAssignments {
    /// Total number of assigned actions.
    pub fn n_actions(&self) -> usize {
        self.per_user.iter().map(Vec::len).sum()
    }

    /// Verifies the monotone non-decreasing constraint (Eq. 1) holds for
    /// every sequence. Used in tests and debug assertions.
    pub fn is_monotone(&self) -> bool {
        self.per_user
            .iter()
            .all(|seq| seq.windows(2).all(|w| w[0] <= w[1]))
    }

    /// Checks that every path is a monotone path over `1..=n_levels`:
    /// each level in range and none below the one before it. The error
    /// names the first offending level by its real user and action index.
    pub(crate) fn check_paths(&self, n_levels: usize) -> Result<()> {
        for (user, path) in self.per_user.iter().enumerate() {
            let mut prev = 1;
            for (position, &level) in path.iter().enumerate() {
                let reason = if level == 0 || usize::from(level) > n_levels {
                    "is outside 1..=S"
                } else if level < prev {
                    "is below the level before it"
                } else {
                    prev = level;
                    continue;
                };
                return Err(CoreError::InvalidLevelPath {
                    user,
                    position,
                    level,
                    reason,
                });
            }
        }
        Ok(())
    }

    /// Iterates `(sequence index, action index, skill)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, SkillLevel)> + '_ {
        self.per_user
            .iter()
            .enumerate()
            .flat_map(|(u, seq)| seq.iter().enumerate().map(move |(n, &s)| (u, n, s)))
    }

    /// Histogram of assigned skill levels (`counts[s-1]` = actions at level `s`).
    pub fn level_histogram(&self, n_levels: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_levels];
        for (_, _, s) in self.iter() {
            let idx = (s as usize).saturating_sub(1);
            if idx < n_levels {
                counts[idx] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema};

    fn tiny_schema() -> FeatureSchema {
        FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 3 }]).unwrap()
    }

    #[test]
    fn sequence_rejects_unsorted_actions() {
        let err =
            ActionSequence::new(0, vec![Action::new(5, 0, 0), Action::new(3, 0, 1)]).unwrap_err();
        assert_eq!(
            err,
            CoreError::UnsortedSequence {
                user: 0,
                position: 1
            }
        );
    }

    #[test]
    fn sequence_rejects_foreign_actions() {
        let err = ActionSequence::new(0, vec![Action::new(1, 9, 0)]).unwrap_err();
        assert!(matches!(err, CoreError::UnsortedSequence { user: 0, .. }));
    }

    #[test]
    fn from_unsorted_sorts_stably() {
        let seq = ActionSequence::from_unsorted(
            1,
            vec![
                Action::new(5, 1, 2),
                Action::new(1, 1, 0),
                Action::new(3, 1, 1),
            ],
        )
        .unwrap();
        let times: Vec<_> = seq.actions().iter().map(|a| a.time).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn dataset_rejects_out_of_range_item() {
        let schema = tiny_schema();
        let items = vec![vec![FeatureValue::Categorical(0)]];
        let seq = ActionSequence::new(0, vec![Action::new(0, 0, 7)]).unwrap();
        let err = Dataset::new(schema, items, vec![seq]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::FeatureIndexOutOfBounds { index: 7, .. }
        ));
    }

    #[test]
    fn dataset_counts_and_support() {
        let schema = tiny_schema();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let s0 = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 1),
                Action::new(2, 0, 1),
            ],
        )
        .unwrap();
        let s1 = ActionSequence::new(1, vec![Action::new(0, 1, 0)]).unwrap();
        let ds = Dataset::new(schema, items, vec![s0, s1]).unwrap();
        assert_eq!(ds.n_actions(), 4);
        assert_eq!(ds.n_users(), 2);
        assert_eq!(ds.n_items(), 2);
        assert_eq!(ds.item_support(), vec![2, 2]);
    }

    #[test]
    fn sequence_push_validates_owner_and_order() {
        let mut seq = ActionSequence::new(0, vec![Action::new(3, 0, 0)]).unwrap();
        assert!(seq.push(Action::new(3, 0, 1)).is_ok()); // ties allowed
        assert!(seq.push(Action::new(5, 0, 0)).is_ok());
        assert!(matches!(
            seq.push(Action::new(4, 0, 0)),
            Err(CoreError::UnsortedSequence { user: 0, .. })
        ));
        assert!(matches!(
            seq.push(Action::new(9, 7, 0)),
            Err(CoreError::UnsortedSequence { user: 0, .. })
        ));
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn dataset_validate_catches_corruption() {
        let schema = tiny_schema();
        let items = vec![vec![FeatureValue::Categorical(0)]];
        let s0 = ActionSequence::new(0, vec![Action::new(0, 0, 0), Action::new(1, 0, 0)]).unwrap();
        let ds = Dataset::new(schema, items, vec![s0]).unwrap();
        ds.validate().unwrap();

        // Out-of-range category.
        let mut bad = ds.clone();
        bad.items
            .edit_rows(|rows| rows[0][0] = FeatureValue::Categorical(99));
        assert!(matches!(
            bad.validate(),
            Err(CoreError::CategoryOutOfBounds { value: 99, .. })
        ));

        // Unsorted actions inside a sequence.
        let mut bad = ds.clone();
        bad.sequences[0].actions[1].time = -5;
        assert!(matches!(
            bad.validate(),
            Err(CoreError::UnsortedSequence { user: 0, .. })
        ));

        // Dangling item reference.
        let mut bad = ds.clone();
        bad.sequences[0].actions[0].item = 7;
        assert!(matches!(
            bad.validate(),
            Err(CoreError::FeatureIndexOutOfBounds { index: 7, .. })
        ));

        // Stale cached count.
        let mut bad = ds.clone();
        bad.n_actions = 9;
        assert!(matches!(
            bad.validate(),
            Err(CoreError::LengthMismatch {
                context: "cached action count vs actual actions",
                ..
            })
        ));
    }

    #[test]
    fn assignments_monotonicity_check() {
        let ok = SkillAssignments {
            per_user: vec![vec![1, 1, 2, 3], vec![2, 2]],
        };
        assert!(ok.is_monotone());
        let bad = SkillAssignments {
            per_user: vec![vec![1, 3, 2]],
        };
        assert!(!bad.is_monotone());
    }

    #[test]
    fn check_paths_names_the_offending_level() {
        let path = |per_user: Vec<Vec<SkillLevel>>| SkillAssignments { per_user }.check_paths(3);
        assert_eq!(path(vec![vec![1, 1, 2, 3], vec![], vec![2, 2]]), Ok(()));
        let cases = [
            (vec![vec![1], vec![1, 4]], 1, 1, 4, "is outside 1..=S"),
            (
                vec![vec![1], vec![1], vec![0, 1]],
                2,
                0,
                0,
                "is outside 1..=S",
            ),
            (
                vec![vec![1], vec![1], vec![1], vec![1, 3, 2]],
                3,
                2,
                2,
                "is below the level before it",
            ),
        ];
        for (per_user, user, position, level, reason) in cases {
            assert_eq!(
                path(per_user),
                Err(CoreError::InvalidLevelPath {
                    user,
                    position,
                    level,
                    reason
                })
            );
        }
    }

    #[test]
    fn level_histogram_counts_all_levels() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        assert_eq!(a.level_histogram(3), vec![2, 1, 1]);
        assert_eq!(a.n_actions(), 4);
    }

    #[test]
    fn subset_users_filters_sequences() {
        let schema = tiny_schema();
        let items = vec![vec![FeatureValue::Categorical(0)]];
        let mk = |u: UserId, n: usize| {
            ActionSequence::new(u, (0..n).map(|t| Action::new(t as i64, u, 0)).collect()).unwrap()
        };
        let ds = Dataset::new(schema, items, vec![mk(0, 2), mk(1, 5)]).unwrap();
        let long = ds.subset_users(|s| s.len() >= 4).unwrap();
        assert_eq!(long.n_users(), 1);
        assert_eq!(long.sequences()[0].user, 1);
    }
}
