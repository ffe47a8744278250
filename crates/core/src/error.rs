//! Error types for the `upskill-core` crate.
//!
//! Library code never panics on user-reachable paths; every fallible public
//! operation returns [`CoreError`] through the [`Result`] alias.

use std::fmt;

use crate::types::SkillLevel;

/// Convenience alias used across the crate.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;

/// Errors produced by model construction, training, and inference.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A skill count of zero (or otherwise unusable) was requested.
    InvalidSkillCount {
        /// The offending number of skill levels.
        requested: usize,
    },
    /// An action sequence violated the chronological-order invariant.
    UnsortedSequence {
        /// The user whose sequence is out of order.
        user: u32,
        /// Index of the first out-of-order action.
        position: usize,
    },
    /// An item referenced a feature index outside the schema.
    FeatureIndexOutOfBounds {
        /// Requested feature index.
        index: usize,
        /// Number of features in the schema.
        len: usize,
    },
    /// A feature value did not match the declared feature kind
    /// (e.g. a real value supplied for a categorical feature).
    FeatureKindMismatch {
        /// Feature index at which the mismatch occurred.
        feature: usize,
        /// Human-readable description of the expected kind.
        expected: &'static str,
        /// Human-readable description of the supplied value.
        got: &'static str,
    },
    /// A categorical value was outside the declared cardinality.
    CategoryOutOfBounds {
        /// Feature index.
        feature: usize,
        /// The offending category value.
        value: u32,
        /// Declared number of categories.
        cardinality: u32,
    },
    /// A distribution was asked to fit an empty or degenerate sample.
    DegenerateFit {
        /// Which distribution failed to fit.
        distribution: &'static str,
        /// Why the fit is impossible.
        reason: &'static str,
    },
    /// A dataset passed to training contained no usable actions.
    EmptyDataset,
    /// No user satisfied the initialization length threshold.
    NoInitializationUsers {
        /// The minimum-actions threshold that filtered everyone out.
        threshold: usize,
    },
    /// Numerical routine failed to converge.
    NoConvergence {
        /// Which routine failed.
        routine: &'static str,
        /// Number of iterations attempted.
        iterations: usize,
    },
    /// A probability argument was outside `[0, 1]` or weights were invalid.
    InvalidProbability {
        /// Context for the invalid value.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Mismatched lengths between two paired slices.
    LengthMismatch {
        /// Context describing the two slices.
        context: &'static str,
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// Thread pool configuration was unusable (e.g. zero threads).
    InvalidParallelism {
        /// Requested worker count.
        threads: usize,
    },
    /// A worker thread panicked during a parallel step. The panic payload is
    /// lost at the join boundary; the step name identifies where it happened.
    WorkerPanicked {
        /// Which parallel step lost a worker.
        step: &'static str,
    },
    /// The operating system refused to start a worker thread of a
    /// parallel step (see [`crate::parallel::fan_out`]).
    WorkerSpawnFailed {
        /// Which parallel step could not start its workers.
        step: &'static str,
    },
    /// A numeric feature value was outside its kind's domain (NaN or
    /// infinite reals, non-positive values for positive-real features).
    /// Raised at construction and at every ingestion path so invalid
    /// numbers cannot poison the sufficient-statistics accumulators.
    InvalidFeatureValue {
        /// Feature index within the schema.
        feature: usize,
        /// The offending numeric value.
        value: f64,
        /// Why the value is outside the feature's domain.
        reason: &'static str,
    },
    /// A chunked-dataset operation was configured with an unusable chunk
    /// size (chunks must hold at least one user).
    InvalidChunkSize {
        /// The offending users-per-chunk value.
        requested: usize,
    },
    /// A skill-level path is not a monotone path over `1..=S`: a level
    /// outside that range, or a step that neither stays nor advances by
    /// one.
    InvalidLevelPath {
        /// Index of the user's path in the assignments.
        user: usize,
        /// Index of the offending action within that path.
        position: usize,
        /// The offending level.
        level: SkillLevel,
        /// Why the level is invalid at that position.
        reason: &'static str,
    },
    /// A level path does not cover its user's sequence one level per
    /// action.
    PathLengthMismatch {
        /// Index of the user's path in the assignments.
        user: usize,
        /// Number of levels in the path.
        levels: usize,
        /// Number of actions in the user's sequence.
        actions: usize,
    },
    /// A serialized artifact carries a format version this build cannot
    /// read.
    UnsupportedVersion {
        /// Which artifact was read.
        artifact: &'static str,
        /// The version the artifact declares.
        found: u32,
        /// The newest version this build reads (versions start at 1).
        supported: u32,
    },
    /// A runtime invariant check failed (see [`crate::invariants`]). These
    /// checks run in debug builds and under the `strict-invariants`
    /// feature; a violation means internal state was corrupted (e.g. a
    /// NaN-poisoned emission table or a non-monotone committed path).
    InvariantViolation {
        /// Which invariant check failed.
        check: &'static str,
        /// Human-readable details of the violation.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidSkillCount { requested } => {
                write!(f, "invalid skill count {requested}: need at least 1 level")
            }
            CoreError::UnsortedSequence { user, position } => write!(
                f,
                "action sequence for user {user} is not chronologically sorted at index {position}"
            ),
            CoreError::FeatureIndexOutOfBounds { index, len } => {
                write!(f, "feature index {index} out of bounds for schema with {len} features")
            }
            CoreError::FeatureKindMismatch { feature, expected, got } => write!(
                f,
                "feature {feature}: expected a {expected} value but got a {got} value"
            ),
            CoreError::CategoryOutOfBounds { feature, value, cardinality } => write!(
                f,
                "feature {feature}: category {value} out of bounds for cardinality {cardinality}"
            ),
            CoreError::DegenerateFit { distribution, reason } => {
                write!(f, "cannot fit {distribution} distribution: {reason}")
            }
            CoreError::EmptyDataset => write!(f, "dataset contains no actions"),
            CoreError::NoInitializationUsers { threshold } => write!(
                f,
                "no user has at least {threshold} actions; lower the initialization threshold"
            ),
            CoreError::NoConvergence { routine, iterations } => {
                write!(f, "{routine} failed to converge after {iterations} iterations")
            }
            CoreError::InvalidProbability { context, value } => {
                write!(f, "invalid probability in {context}: {value}")
            }
            CoreError::LengthMismatch { context, left, right } => {
                write!(f, "length mismatch in {context}: {left} vs {right}")
            }
            CoreError::InvalidParallelism { threads } => write!(
                f,
                "invalid parallelism: {threads} worker threads requested \
                 (need 1..={})",
                crate::parallel::MAX_THREADS
            ),
            CoreError::WorkerPanicked { step } => {
                write!(f, "a worker thread panicked during the {step} step")
            }
            CoreError::WorkerSpawnFailed { step } => {
                write!(f, "the OS refused a worker thread for the {step} step")
            }
            CoreError::InvalidFeatureValue {
                feature,
                value,
                reason,
            } => {
                write!(f, "feature {feature}: invalid value {value}: {reason}")
            }
            CoreError::InvalidChunkSize { requested } => {
                write!(f, "invalid chunk size {requested}: chunks must hold at least one user")
            }
            CoreError::InvalidLevelPath {
                user,
                position,
                level,
                reason,
            } => write!(
                f,
                "level path of user {user}: level {level} at action {position} {reason}"
            ),
            CoreError::PathLengthMismatch {
                user,
                levels,
                actions,
            } => write!(
                f,
                "level path of user {user} has {levels} levels for {actions} actions: \
                 they part at action {}",
                levels.min(actions)
            ),
            CoreError::UnsupportedVersion {
                artifact,
                found,
                supported,
            } => write!(
                f,
                "{artifact} format version {found} is not supported: this build reads 1 to {supported}"
            ),
            CoreError::InvariantViolation { check, detail } => {
                write!(f, "invariant violation in {check}: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(CoreError, &str)> = vec![
            (
                CoreError::InvalidSkillCount { requested: 0 },
                "skill count 0",
            ),
            (
                CoreError::UnsortedSequence {
                    user: 7,
                    position: 3,
                },
                "user 7",
            ),
            (
                CoreError::FeatureIndexOutOfBounds { index: 5, len: 3 },
                "feature index 5",
            ),
            (CoreError::EmptyDataset, "no actions"),
            (
                CoreError::NoConvergence {
                    routine: "gamma MLE",
                    iterations: 100,
                },
                "gamma MLE",
            ),
            (
                CoreError::InvalidLevelPath {
                    user: 4,
                    position: 2,
                    level: 9,
                    reason: "is outside 1..=S",
                },
                "user 4: level 9 at action 2",
            ),
            (
                CoreError::PathLengthMismatch {
                    user: 3,
                    levels: 7,
                    actions: 8,
                },
                "user 3 has 7 levels for 8 actions: they part at action 7",
            ),
            (
                CoreError::UnsupportedVersion {
                    artifact: "session bundle",
                    found: 9,
                    supported: 1,
                },
                "session bundle format version 9 is not supported",
            ),
            (
                CoreError::WorkerPanicked { step: "assignment" },
                "assignment",
            ),
            (
                CoreError::WorkerSpawnFailed { step: "update" },
                "refused a worker thread for the update step",
            ),
            (
                CoreError::InvalidParallelism { threads: 1025 },
                "1025 worker threads requested (need 1..=1024)",
            ),
            (
                CoreError::InvalidFeatureValue {
                    feature: 2,
                    value: f64::NAN,
                    reason: "positive real features must be finite and > 0",
                },
                "feature 2",
            ),
            (
                CoreError::InvariantViolation {
                    check: "emission table",
                    detail: "NaN at item 3, level 1".to_string(),
                },
                "emission table",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&CoreError::EmptyDataset);
    }
}
