//! Typed serving errors.
//!
//! Every malformed request is rejected with a [`ServeError`] carrying the
//! context a caller needs to fix it, and rejection never mutates service
//! state: validation runs before any shard or statistics write.

use std::fmt;

use upskill_core::error::CoreError;
use upskill_core::policy::PolicyMode;
use upskill_core::types::{SkillLevel, UserId};

/// Convenient alias for serving results.
pub type Result<T> = std::result::Result<T, ServeError>;

/// An error surfaced by the [`SkillService`](crate::SkillService).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A read request (predict, recommend) named a user the service has
    /// never seen. Ingest requests never raise this: unknown users are
    /// admitted with a fresh sequence.
    UnknownUser {
        /// The unrecognized user id.
        user: UserId,
    },
    /// The service configuration is unusable as given.
    InvalidConfig {
        /// Which knob was rejected.
        what: &'static str,
        /// Why it was rejected.
        detail: &'static str,
    },
    /// A policy request (adaptive recommendation, outcome recording)
    /// reached a service that was built without an adaptive
    /// [`PolicyConfig`](upskill_core::policy::PolicyConfig).
    PolicyDisabled,
    /// The request's policy mode does not match the mode the service
    /// was configured with — the envelope-level consistency check that
    /// keeps a client's teach/motivate/hybrid expectation honest.
    PolicyModeMismatch {
        /// The mode the request asked for.
        requested: PolicyMode,
        /// The mode the service is running.
        configured: PolicyMode,
    },
    /// The user's level band contains no candidate items at all, so no
    /// recommendation (static or adaptive) is possible at this level
    /// under the configured difficulty slack.
    EmptyBand {
        /// The committed level whose band is empty.
        level: SkillLevel,
    },
    /// A request parameter is unusable as given (e.g. `k = 0`).
    BadRequest {
        /// Which parameter was rejected.
        what: &'static str,
        /// Why it was rejected.
        detail: &'static str,
    },
    /// A known user's record lacks a part the service keeps for every
    /// user: a shard record for a user of the admission list, or the
    /// policy state of an adaptive service. Construction and ingest keep
    /// these in step, so this reports a broken service invariant, not a
    /// bad request.
    MissingUserState {
        /// The user whose record is incomplete.
        user: UserId,
        /// The missing part.
        what: &'static str,
    },
    /// The model layer rejected the request: unknown item, a known
    /// user's time moving backwards, degenerate statistics, and so on.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownUser { user } => {
                write!(f, "unknown user {user}: no ingested actions")
            }
            ServeError::InvalidConfig { what, detail } => {
                write!(f, "invalid serve configuration ({what}): {detail}")
            }
            ServeError::PolicyDisabled => {
                write!(
                    f,
                    "adaptive policy requests need a service configured with a PolicyConfig"
                )
            }
            ServeError::PolicyModeMismatch {
                requested,
                configured,
            } => write!(
                f,
                "policy mode mismatch: request asked for {} but the service runs {}",
                requested.name(),
                configured.name()
            ),
            ServeError::EmptyBand { level } => {
                write!(
                    f,
                    "no candidate items in the difficulty band at level {level}"
                )
            }
            ServeError::BadRequest { what, detail } => {
                write!(f, "bad request parameter ({what}): {detail}")
            }
            ServeError::MissingUserState { user, what } => {
                write!(
                    f,
                    "user {user} has no {what}: the service state is inconsistent"
                )
            }
            ServeError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = ServeError::UnknownUser { user: 42 };
        assert!(e.to_string().contains("42"));
        let e = ServeError::InvalidConfig {
            what: "n_shards",
            detail: "need at least one shard",
        };
        assert!(e.to_string().contains("n_shards"));
        let e: ServeError = CoreError::EmptyDataset.into();
        assert!(matches!(e, ServeError::Core(CoreError::EmptyDataset)));
    }

    #[test]
    fn policy_errors_display_their_context() {
        use std::error::Error;
        assert!(ServeError::PolicyDisabled
            .to_string()
            .contains("PolicyConfig"));
        let e = ServeError::PolicyModeMismatch {
            requested: PolicyMode::Teach,
            configured: PolicyMode::Hybrid,
        };
        let s = e.to_string();
        assert!(s.contains("teach") && s.contains("hybrid"), "{s}");
        assert!(ServeError::EmptyBand { level: 3 }.to_string().contains('3'));
        let e = ServeError::BadRequest {
            what: "k",
            detail: "result-list length must be positive",
        };
        assert!(e.to_string().contains("k"));
        assert!(e.source().is_none());
    }

    #[test]
    fn source_chain_reaches_core_error() {
        use std::error::Error;
        let e: ServeError = CoreError::EmptyDataset.into();
        assert!(e.source().is_some());
        assert!(ServeError::UnknownUser { user: 1 }.source().is_none());
    }
}
