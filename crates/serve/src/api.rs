//! The typed answers of the serving layer.
//!
//! Each [`SkillService`](crate::SkillService) method (`ingest`,
//! `predict`, `record_outcome`, `stats`, …) answers with one of these
//! values or a typed [`ServeError`](crate::ServeError). Everything here
//! derives serde, so answers can cross a process boundary as they are.

use serde::{Deserialize, Serialize};

use upskill_core::policy::PolicyMode;
use upskill_core::streaming::RefitPolicy;
use upskill_core::types::{ItemId, SkillLevel, UserId};

/// Which estimate a predict request should read; see the module docs of
/// [`upskill_core::streaming`] on filtering vs smoothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictMode {
    /// The user's last committed level — the level their most recent
    /// ingested action was assigned. O(1).
    Committed,
    /// The filtering [`OnlineTracker`](upskill_core::online::OnlineTracker)
    /// estimate: accumulated per-level evidence over everything the user
    /// has done. O(1).
    Filtered,
    /// Re-runs the monotone assignment DP over the user's whole item
    /// history against the current emission table — the smoothing view,
    /// with hindsight. O(history × levels), served from a pooled
    /// [`AssignWorkspace`](upskill_core::assign::AssignWorkspace).
    Smoothed,
    /// Forward–backward posterior marginals over the user's history
    /// under uninformative monotone transitions; the response carries
    /// the last action's full level distribution. O(history × levels),
    /// served from a pooled [`FbWorkspace`](upskill_core::em::FbWorkspace).
    Posterior,
}

/// The outcome of ingesting one action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestOutcome {
    /// The acting user.
    pub user: UserId,
    /// The level committed for this action.
    pub level: SkillLevel,
    /// The table epoch the level decision read.
    pub epoch: u64,
}

/// Acknowledgement of a recorded policy outcome.
// lint:allow(unused-pub): returned by `SkillService::record_outcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeNoted {
    /// Whose policy state was updated.
    pub user: UserId,
    /// The attempted item.
    pub item: ItemId,
    /// The recorded outcome.
    pub correct: bool,
    /// The table epoch whose difficulty the outcome was binned under.
    pub epoch: u64,
}

/// The answer to a predict request.
// lint:allow(unused-pub): returned by `SkillService::predict`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The queried user.
    pub user: UserId,
    /// The estimated level under the requested mode.
    pub level: SkillLevel,
    /// How many actions the estimate is based on.
    pub n_actions: usize,
    /// The table epoch the estimate read.
    pub epoch: u64,
    /// Full level distribution of the last action
    /// ([`PredictMode::Posterior`] only).
    pub posterior: Option<Vec<f64>>,
}

/// Service-level counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Users with at least one action (base + admitted).
    pub n_users: usize,
    /// Actions ingested over the service's lifetime (excluding the base
    /// dataset).
    pub total_ingested: usize,
    /// Actions ingested since the last refit.
    pub pending_actions: usize,
    /// The current emission-table epoch.
    pub epoch: u64,
    /// Refits that actually rewrote model state.
    pub refits: u64,
    /// Refits that were due (by policy or an explicit
    /// [`SkillService::refit`](crate::SkillService::refit)) but deferred
    /// because another was in flight.
    #[serde(default)]
    pub refits_deferred: u64,
    /// How many session shards requests hash onto.
    pub n_shards: usize,
    /// The current refit policy (auto-tuning may move its interval).
    pub policy: RefitPolicy,
    /// The adaptive policy mode the service serves, if enabled.
    pub policy_mode: Option<PolicyMode>,
    /// Assignment workspaces parked in the pool.
    pub pooled_assign_workspaces: usize,
    /// Forward–backward workspaces parked in the pool.
    pub pooled_fb_workspaces: usize,
}
