//! The typed request/response surface of the serving layer.
//!
//! Every operation the [`SkillService`](crate::SkillService) supports is
//! expressible as a [`Request`] value answered by exactly one [`Response`]
//! variant (or a typed [`ServeError`](crate::ServeError)). The
//! enum-dispatch [`SkillService::handle`](crate::SkillService::handle)
//! front-end and the direct typed methods (`ingest`, `predict`, …) share
//! one implementation, so embedders can pick whichever shape fits —
//! including serializing requests across a process boundary: everything
//! here derives serde.

use serde::{Deserialize, Serialize};

use upskill_core::bundle::SessionBundle;
use upskill_core::policy::{PolicyMode, PolicyRecommendation};
use upskill_core::recommend::Recommendation;
use upskill_core::streaming::RefitPolicy;
use upskill_core::types::{Action, ItemId, SkillLevel, UserId};

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

/// One serving request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Ingest one action (unknown users are admitted), then refit if the
    /// policy says so — the serving twin of
    /// [`StreamingSession::ingest`](upskill_core::streaming::StreamingSession::ingest).
    Ingest(Action),
    /// Ingest a batch, deferring any policy-driven refit to the end.
    /// Fails fast: actions before the offending one stay ingested.
    IngestBatch(Vec<Action>),
    /// Read a skill estimate for a known user.
    Predict {
        /// Whose skill to estimate.
        user: UserId,
        /// Which estimator to read.
        mode: PredictMode,
    },
    /// Upskilling recommendations for a known user at their committed
    /// level, excluding items they already selected.
    Recommend {
        /// Who to recommend for.
        user: UserId,
        /// Overrides the configured result-list length when set.
        k: Option<usize>,
    },
    /// Adaptive (policy re-ranked) recommendations for a known user —
    /// the [`Request::Recommend`] variant that carries the policy mode
    /// through the serve envelope. The mode must match the service's
    /// configured [`PolicyConfig`](upskill_core::policy::PolicyConfig)
    /// or the request is rejected with
    /// [`ServeError::PolicyModeMismatch`](crate::ServeError::PolicyModeMismatch).
    RecommendPolicy {
        /// Who to recommend for.
        user: UserId,
        /// Overrides the configured result-list length when set.
        k: Option<usize>,
        /// The teach/motivate/hybrid mode the client expects.
        mode: PolicyMode,
    },
    /// Record an externally observed outcome (e.g. the user attempted
    /// the item and failed) into the user's adaptive policy state.
    /// Completed actions are recorded as successes automatically on
    /// ingest; this request exists mainly to feed *failures*, which
    /// never enter the action sequence.
    RecordOutcome {
        /// Whose policy state to update.
        user: UserId,
        /// The attempted item.
        item: ItemId,
        /// Whether the attempt succeeded.
        correct: bool,
    },
    /// A consistent, versioned snapshot of the whole service state as a
    /// [`SessionBundle`].
    Snapshot {
        /// Free-form provenance note stored in the bundle.
        note: String,
    },
    /// Service-level counters.
    Stats,
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

/// One serving response; variants correspond one-to-one to [`Request`].
///
/// (No `PartialEq`: [`SessionBundle`] deliberately doesn't implement
/// it — bundle equality is defined on the serialized form.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ingest`].
    Ingested(IngestOutcome),
    /// Answer to [`Request::IngestBatch`], in input order.
    IngestedBatch(Vec<IngestOutcome>),
    /// Answer to [`Request::Predict`].
    Prediction(Prediction),
    /// Answer to [`Request::Recommend`], best first.
    Recommendations(Vec<Recommendation>),
    /// Answer to [`Request::RecommendPolicy`], best first.
    PolicyRecommendations(Vec<PolicyRecommendation>),
    /// Answer to [`Request::RecordOutcome`].
    OutcomeRecorded(OutcomeNoted),
    /// Answer to [`Request::Snapshot`].
    Snapshot(Box<SessionBundle>),
    /// Answer to [`Request::Stats`].
    Stats(ServeStats),
}
