//! Streaming ingestion: fold live actions into a trained model without a
//! full retrain.
//!
//! The paper's motivating deployment (§IV, §VI) is a live service where
//! users keep acting after the model has been trained. Retraining from
//! scratch on every appended action costs a whole alternating-optimization
//! run; a [`StreamingSession`] instead *continues* a trained state:
//!
//! 1. **Assignment extension** — each ingested action extends its user's
//!    committed monotone level path. Because the prefix is committed, the
//!    monotone-DP recurrence collapses to a two-way choice (`stay` at the
//!    last level or `advance` by one), decided by the cached emission
//!    scores — exactly the constrained forward-DP step, in `O(1)` per
//!    action.
//! 2. **Exact statistics deltas** — every appended action is a single `+1`
//!    on the persistent [`StatsGrid`] cell `(level, item)`
//!    ([`StatsGrid::add_action`]), so the sufficient statistics stay
//!    bit-exact with a from-scratch accumulation at all times.
//! 3. **Dirty-level refits** — a refit ([`StreamingSession::refit`], run
//!    per the session's [`RefitPolicy`]) refits only the levels whose
//!    histogram changed, reuses the previous model rows elsewhere
//!    ([`StatsGrid::fit_model_incremental`]), and refreshes only those
//!    levels' [`EmissionTable`] columns.
//!
//! ## Filtering, not smoothing
//!
//! Like [`crate::online::OnlineTracker`], ingestion is *filtering*: each
//! level commitment uses only the actions seen so far and is never
//! revisited when later evidence arrives. Batch training is *smoothing* —
//! its DP re-segments whole sequences with hindsight — so a session's
//! assignments on the streamed suffix can differ from what a full retrain
//! on the concatenated dataset would produce. What *is* exact: given the
//! session's assignments, the refit model equals a from-scratch parameter
//! fit of the concatenated dataset bit for bit (see
//! `tests/properties_streaming.rs`). Periodically retraining from scratch
//! and resuming a fresh session recovers the smoothing view.
//!
//! ## Soft (EM) continuation
//!
//! An EM-trained model ([`Trainer::em`](crate::train::Trainer::em)) used
//! to have no incremental continuation: resuming through the hard
//! constructor refit the model from hard-assignment counts, silently
//! discarding the soft fit. [`StreamingSession::resume_em`] keeps the
//! EM-fitted model **bit for bit** and carries a
//! [`SoftStatsGrid`] of responsibility mass alongside the hard histogram:
//! construction seeds the grid with one forward–backward smoothing pass
//! under the converged model, each ingested action contributes its
//! *filtering posterior* over the admissible stay/advance extension
//! (weighted by the session's [`TransitionModel`]), and refits replay only
//! dirty levels through the weighted M-step
//! ([`SoftStatsGrid::fit_model_incremental`]) before refreshing exactly
//! those emission-table columns. The committed hard path and its exact
//! [`StatsGrid`] are still maintained — they back the invariant checks and
//! keep every accessor meaningful in both modes.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::em::forward_backward_with_table;
use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::incremental::{SoftStatsGrid, StatsGrid};
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::online::OnlineTracker;
use crate::parallel::ParallelConfig;
use crate::train::{TrainConfig, TrainResult};
use crate::transition::TransitionModel;
use crate::types::{
    skill_level_from_index, Action, ActionSequence, Dataset, SkillAssignments, SkillLevel, UserId,
};

/// When a [`StreamingSession`] refits model parameters from its
/// accumulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefitPolicy {
    /// Refit at the end of every [`StreamingSession::ingest_batch`] call
    /// (a single [`StreamingSession::ingest`] counts as a batch of one).
    EveryBatch,
    /// Refit once at least this many actions have been ingested since the
    /// last refit, checked at the end of each ingest call.
    EveryNActions(usize),
    /// Never refit automatically; the caller drives
    /// [`StreamingSession::refit`] explicitly.
    Manual,
}

/// Deterministic auto-tuner for [`RefitPolicy::EveryNActions`], driven by
/// the observed dirty-level rate.
///
/// The cost of an incremental refit scales with how many levels the
/// pending actions touched ([`StatsGrid::dirty_levels`]); the *value* of
/// deferring scales with how many actions share one refit. A fixed `N`
/// gets one of the two wrong as traffic shifts. The tuner steers `N`
/// toward a target dirty-level count per refit: when a refit touches
/// more levels than the target, the interval halves (refit sooner,
/// smaller deltas); when it touches fewer, the interval doubles
/// (amortize more); always clamped to `[min_actions, max_actions]`.
///
/// The adjustment is a pure function of the observed dirty count, so two
/// systems replaying identical traffic through identical policies evolve
/// their intervals identically — the property the serving layer's
/// bitwise replay tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefitTuner {
    /// Desired number of dirty levels per refit.
    target_dirty_levels: usize,
    /// Lower clamp on the refit interval.
    min_actions: usize,
    /// Upper clamp on the refit interval.
    max_actions: usize,
}

impl RefitTuner {
    /// Builds a tuner steering toward `target_dirty_levels` dirty levels
    /// per refit, with the interval clamped to
    /// `[min_actions, max_actions]`.
    pub fn new(target_dirty_levels: usize, min_actions: usize, max_actions: usize) -> Result<Self> {
        if target_dirty_levels == 0 || min_actions == 0 || max_actions < min_actions {
            return Err(CoreError::DegenerateFit {
                distribution: "refit tuner",
                reason: "need target >= 1 and 1 <= min_actions <= max_actions",
            });
        }
        Ok(Self {
            target_dirty_levels,
            min_actions,
            max_actions,
        })
    }

    /// The next refit interval given the interval that just elapsed and
    /// the number of dirty levels its refit touched. Deterministic:
    /// halve above target, double below, clamp to the configured range.
    pub fn next_interval(&self, current: usize, dirty_levels: usize) -> usize {
        let current = current.clamp(self.min_actions, self.max_actions);
        if dirty_levels > self.target_dirty_levels {
            (current / 2).max(self.min_actions)
        } else if dirty_levels < self.target_dirty_levels {
            current.saturating_mul(2).min(self.max_actions)
        } else {
            current
        }
    }
}

/// A live continuation of a trained model: owns the dataset, the model,
/// the committed assignments, the persistent [`StatsGrid`] and
/// [`EmissionTable`], and one filtering [`OnlineTracker`] per user.
///
/// Construct with [`StreamingSession::resume`] from a
/// [`TrainResult`] (or [`StreamingSession::new`] from raw parts), then
/// feed actions with [`StreamingSession::ingest`] /
/// [`StreamingSession::ingest_batch`]. Unknown users are admitted
/// automatically with a fresh sequence and tracker.
///
/// The session's model is always the parameter fit of its current
/// statistics (established by a fit at construction; for a converged,
/// grid-trained [`TrainResult`] this reproduces `result.model` bit for
/// bit). Between refits the model and emission table lag the statistics
/// by design — that lag is what the [`RefitPolicy`] trades against cost.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    dataset: Dataset,
    model: SkillModel,
    assignments: SkillAssignments,
    config: TrainConfig,
    parallel: ParallelConfig,
    policy: RefitPolicy,
    grid: StatsGrid,
    table: EmissionTable,
    trackers: Vec<OnlineTracker>,
    user_index: HashMap<UserId, usize>,
    /// Actions ingested since the last refit.
    pending: usize,
    /// Actions ingested over the session's lifetime.
    total_ingested: usize,
    /// Auto-tuner adjusting an [`RefitPolicy::EveryNActions`] interval
    /// after each refit; `None` leaves the policy fixed.
    tuner: Option<RefitTuner>,
    /// Soft (EM) continuation state; `None` for hard-mode sessions.
    soft: Option<SoftState>,
}

/// Responsibility statistics of an EM-resumed session: the soft grid the
/// refits replay, and the transition model weighting each ingested
/// action's stay/advance posterior.
#[derive(Debug, Clone)]
struct SoftState {
    grid: SoftStatsGrid,
    transitions: TransitionModel,
}

impl StreamingSession {
    /// Builds a session from a dataset and its committed assignments.
    ///
    /// The model is fit from the assignments' statistics (the update step
    /// of the coordinate ascent), which establishes the exact
    /// grid-model invariant every later dirty-level refit relies on. The
    /// per-user trackers are warmed by replaying each sequence through the
    /// emission table.
    pub fn new(
        dataset: Dataset,
        assignments: SkillAssignments,
        config: TrainConfig,
        parallel: ParallelConfig,
        policy: RefitPolicy,
    ) -> Result<Self> {
        config.validate()?;
        parallel.validate()?;
        if !assignments.is_monotone() {
            return Err(CoreError::DegenerateFit {
                distribution: "streaming session",
                reason: "assignments violate the monotone level constraint",
            });
        }
        // Shape validation (user count, per-user lengths) happens inside
        // the grid build.
        let mut grid =
            StatsGrid::build_with_config(&dataset, &assignments, config.n_levels, &parallel)?;
        let model = grid.fit_model_incremental(&dataset, config.lambda, &parallel, None)?;
        let table = EmissionTable::build_with_config(&model, &dataset, &parallel)?;
        let (trackers, user_index) = warm_trackers(&dataset, &table, config.n_levels)?;
        Ok(Self {
            dataset,
            model,
            assignments,
            config,
            parallel,
            policy,
            grid,
            table,
            trackers,
            user_index,
            pending: 0,
            total_ingested: 0,
            tuner: None,
            soft: None,
        })
    }

    /// Builds a **soft (EM) continuation** of a trained result: the
    /// result's model is kept bit for bit (no construction-time hard
    /// refit), and refits replay a persistent [`SoftStatsGrid`] of
    /// responsibility mass instead of the hard histogram.
    ///
    /// The soft grid is seeded with one forward–backward smoothing pass
    /// over the dataset under the converged model and `transitions`
    /// (the same transitions the EM trainer ran with). Because a
    /// converged EM model is — up to the trainer's tolerance — the fixed
    /// point of its own M-step, the seeded statistics start *clean*: the
    /// first refit touches only the levels streamed actions move.
    pub fn resume_em(
        dataset: Dataset,
        result: &TrainResult,
        transitions: TransitionModel,
        config: TrainConfig,
        parallel: ParallelConfig,
        policy: RefitPolicy,
    ) -> Result<Self> {
        config.validate()?;
        parallel.validate()?;
        if transitions.n_levels() != config.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "transitions vs session levels",
                left: transitions.n_levels(),
                right: config.n_levels,
            });
        }
        let assignments = result.assignments.clone();
        if !assignments.is_monotone() {
            return Err(CoreError::DegenerateFit {
                distribution: "streaming session",
                reason: "assignments violate the monotone level constraint",
            });
        }
        // The hard histogram is still maintained — it backs the
        // `check_grid` invariant and the committed-path bookkeeping —
        // but the model is NOT refit from it: the EM fit survives.
        let grid =
            StatsGrid::build_with_config(&dataset, &assignments, config.n_levels, &parallel)?;
        let model = result.model.clone();
        let table = EmissionTable::build_with_config(&model, &dataset, &parallel)?;
        let (trackers, user_index) = warm_trackers(&dataset, &table, config.n_levels)?;
        let mut soft_grid = SoftStatsGrid::new(
            config.n_levels,
            dataset.n_items(),
            dataset.n_actions(),
            crate::em::DEFAULT_GAMMA_TOLERANCE,
        )?;
        let mut a_idx = 0usize;
        for seq in dataset.sequences() {
            let (gammas, _) = forward_backward_with_table(&table, &transitions, seq)?;
            for (action, gamma) in seq.actions().iter().zip(&gammas) {
                soft_grid.update_action(a_idx, action.item, gamma)?;
                a_idx += 1;
            }
        }
        // Seeding is not a model change: start clean so only levels the
        // streamed suffix touches ever get refit.
        soft_grid.clear_dirty();
        Ok(Self {
            dataset,
            model,
            assignments,
            config,
            parallel,
            policy,
            grid,
            table,
            trackers,
            user_index,
            pending: 0,
            total_ingested: 0,
            tuner: None,
            soft: Some(SoftState {
                grid: soft_grid,
                transitions,
            }),
        })
    }

    /// Resumes a session from a completed training run: the dataset it was
    /// trained on plus the [`TrainResult`]'s final assignments.
    pub fn resume(
        dataset: Dataset,
        result: &TrainResult,
        config: TrainConfig,
        parallel: ParallelConfig,
        policy: RefitPolicy,
    ) -> Result<Self> {
        Self::new(
            dataset,
            result.assignments.clone(),
            config,
            parallel,
            policy,
        )
    }

    /// Resumes a session from a chunked training run
    /// ([`crate::chunked::train_chunked`] /
    /// [`Trainer::fit_chunked`](crate::train::Trainer::fit_chunked)).
    ///
    /// A live session needs per-user committed paths, so this is the
    /// point where the corpus is materialized: the chunk stream is folded
    /// back into an in-memory [`Dataset`] and the (deterministic) DP
    /// re-derives the final assignments under the trained model. Only
    /// call this at scales where an in-memory corpus is acceptable — the
    /// flat-memory contract necessarily ends where live ingestion begins.
    pub fn resume_chunked<S: crate::chunked::ChunkSource + ?Sized>(
        source: &S,
        result: &crate::chunked::ChunkedTrainResult,
        config: TrainConfig,
        parallel: ParallelConfig,
        policy: RefitPolicy,
    ) -> Result<Self> {
        let dataset = crate::chunked::materialize(source)?;
        let (assignments, _) = crate::chunked::assign_chunked(source, &result.model, &parallel)?;
        Self::new(dataset, assignments, config, parallel, policy)
    }

    /// Ingests one action: extends the user's committed level path, applies
    /// the `+1` statistics delta, advances the user's filtering tracker,
    /// and refits per the session's [`RefitPolicy`]. Returns the level
    /// committed for this action.
    ///
    /// Unknown users get a fresh sequence; known users' actions must not
    /// move time backwards. On error the session state is unchanged.
    pub fn ingest(&mut self, action: Action) -> Result<SkillLevel> {
        let level = self.ingest_inner(action)?;
        self.refit_per_policy()?;
        Ok(level)
    }

    /// Ingests a batch of actions (each as [`StreamingSession::ingest`]),
    /// deferring any policy-driven refit to the end of the batch. Returns
    /// the committed level of every action, in input order.
    ///
    /// Fails fast on the first invalid action: earlier actions of the
    /// batch stay ingested, the offending and later ones do not.
    pub fn ingest_batch(&mut self, actions: &[Action]) -> Result<Vec<SkillLevel>> {
        let mut levels = Vec::with_capacity(actions.len());
        for &action in actions {
            levels.push(self.ingest_inner(action)?);
        }
        self.refit_per_policy()?;
        Ok(levels)
    }

    /// The committed-prefix forward-DP step plus bookkeeping; no refit.
    fn ingest_inner(&mut self, action: Action) -> Result<SkillLevel> {
        let row =
            self.table
                .checked_row(action.item)
                .ok_or(CoreError::FeatureIndexOutOfBounds {
                    index: action.item as usize,
                    len: self.table.n_items(),
                })?;
        let (u, is_new_user) = match self.user_index.get(&action.user) {
            Some(&u) => (u, false),
            None => (self.dataset.n_users(), true),
        };
        // Constrained extension of the committed monotone path: the prefix
        // pins the path at the user's last level, so the DP choice is
        // between staying and advancing one level, by emission score
        // (ties stay). A first action takes the best level outright
        // (ties low), matching the DP's first column.
        let last = if is_new_user {
            None
        } else {
            self.assignments.per_user[u].last().copied()
        };
        let level = match last {
            None => skill_level_from_index(argmax_low(row)),
            Some(last) => {
                let li = last as usize - 1;
                if li + 1 < row.len() && row[li + 1] > row[li] {
                    last + 1
                } else {
                    last
                }
            }
        };
        // O(1) extension check: the committed path must stay monotone.
        InvariantCtx::new().check_extension("streaming ingest", last, level)?;
        // Soft mode: the action's filtering posterior over its admissible
        // extension, computed while the emission row is at hand.
        let soft_gamma = self
            .soft
            .as_ref()
            .map(|soft| extension_posterior(&soft.transitions, row, last, level));

        // Mutations, fallible first so errors leave the session unchanged.
        if is_new_user {
            let seq = ActionSequence::new(action.user, vec![action])?;
            self.dataset.push_sequence(seq)?;
            self.assignments.per_user.push(Vec::new());
            self.trackers
                .push(OnlineTracker::new(self.config.n_levels)?);
            self.user_index.insert(action.user, u);
        } else {
            self.dataset.append_action(u, action)?;
        }
        self.grid.add_action(action.item, level)?;
        if let (Some(gamma), Some(soft)) = (soft_gamma, self.soft.as_mut()) {
            soft.grid.push_action(action.item, &gamma)?;
        }
        self.assignments.per_user[u].push(level);
        self.trackers[u].observe_item(&self.table, action.item)?;
        self.pending += 1;
        self.total_ingested += 1;
        Ok(level)
    }

    /// Refits the dirty levels now if the policy says so.
    fn refit_per_policy(&mut self) -> Result<usize> {
        let due = match self.policy {
            RefitPolicy::EveryBatch => true,
            RefitPolicy::EveryNActions(n) => self.pending >= n,
            RefitPolicy::Manual => false,
        };
        if due {
            self.refit()
        } else {
            Ok(0)
        }
    }

    /// Refits model parameters from the accumulated statistics, touching
    /// only dirty levels, and refreshes exactly those emission-table
    /// columns. Returns the number of levels refit (0 when nothing was
    /// pending). Callable at any time, whatever the policy.
    ///
    /// Hard-mode sessions refit from the exact [`StatsGrid`] histogram;
    /// EM-resumed sessions ([`StreamingSession::resume_em`]) replay the
    /// [`SoftStatsGrid`]'s responsibility mass through the weighted
    /// M-step instead.
    pub fn refit(&mut self) -> Result<usize> {
        let n_dirty = if self.soft.is_some() {
            self.refit_soft()?
        } else {
            self.refit_hard()?
        };
        // Auto-tune: each refit's dirty count steers the next interval.
        // A pure function of the observed count, so replayed traffic
        // evolves the policy identically (see [`RefitTuner`]).
        if let (RefitPolicy::EveryNActions(n), Some(tuner)) = (self.policy, self.tuner) {
            self.policy = RefitPolicy::EveryNActions(tuner.next_interval(n, n_dirty));
        }
        Ok(n_dirty)
    }

    /// Hard-mode refit: dirty levels from the exact integer histogram.
    fn refit_hard(&mut self) -> Result<usize> {
        // `fit_model_incremental` clears the dirty flags; capture them
        // first — they are exactly the emission columns to refresh.
        let dirty = self.grid.dirty_levels().to_vec();
        let n_dirty = dirty.iter().filter(|&&d| d).count();
        if n_dirty == 0 {
            self.pending = 0;
            return Ok(0);
        }
        self.model = self.grid.fit_model_incremental(
            &self.dataset,
            self.config.lambda,
            &self.parallel,
            Some(&self.model),
        )?;
        self.table
            .refresh_levels(&self.model, &self.dataset, &dirty)?;
        // A refit commits new model state; verify everything it depends
        // on: finite emission scores, a monotone committed path, and a
        // grid that matches a from-scratch accumulation.
        let ctx = InvariantCtx::new();
        ctx.check_emission_table(&self.table)?;
        ctx.check_monotone("streaming refit", &self.assignments)?;
        ctx.check_grid(&self.grid, &self.dataset, &self.assignments)?;
        self.pending = 0;
        Ok(n_dirty)
    }

    /// Soft-mode refit: dirty levels from the responsibility grid,
    /// refit through the weighted M-step. The hard histogram stays the
    /// exact count accumulation it always is, so its invariant check
    /// still applies.
    fn refit_soft(&mut self) -> Result<usize> {
        let soft = match self.soft.as_mut() {
            Some(soft) => soft,
            None => return Ok(0),
        };
        // `fit_model_incremental` clears the dirty flags; capture them
        // first — they are exactly the emission columns to refresh.
        let dirty = soft.grid.dirty_levels().to_vec();
        let n_dirty = dirty.iter().filter(|&&d| d).count();
        if n_dirty == 0 {
            self.pending = 0;
            return Ok(0);
        }
        self.model = soft.grid.fit_model_incremental(
            &self.dataset,
            self.config.lambda,
            Some(&self.model),
        )?;
        self.table
            .refresh_levels(&self.model, &self.dataset, &dirty)?;
        let ctx = InvariantCtx::new();
        ctx.check_emission_table(&self.table)?;
        ctx.check_monotone("streaming refit", &self.assignments)?;
        ctx.check_grid(&self.grid, &self.dataset, &self.assignments)?;
        self.pending = 0;
        Ok(n_dirty)
    }

    /// Snapshots the session into a serializable
    /// [`SessionBundle`](crate::bundle::SessionBundle).
    ///
    /// Derived state (grid, emission table, trackers) is not stored;
    /// [`SessionBundle::resume`](crate::bundle::SessionBundle::resume)
    /// rebuilds it, so a snapshot taken with pending actions resumes
    /// freshly refit. The soft (EM) continuation state is derived too and
    /// is likewise not stored: a bundle always resumes in hard mode, with
    /// the snapshot's model refit from the hard histogram.
    pub fn snapshot(&self, note: &str) -> crate::bundle::SessionBundle {
        crate::bundle::SessionBundle {
            version: crate::bundle::SESSION_BUNDLE_VERSION,
            dataset: self.dataset.clone(),
            model: self.model.clone(),
            assignments: self.assignments.clone(),
            config: self.config,
            parallel: self.parallel,
            policy: self.policy,
            note: note.to_string(),
        }
    }

    /// The dataset including every ingested action.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The current model (last refit; lags the statistics between refits).
    pub fn model(&self) -> &SkillModel {
        &self.model
    }

    /// The committed per-action level assignments, including the streamed
    /// suffix.
    pub fn assignments(&self) -> &SkillAssignments {
        &self.assignments
    }

    /// Training hyperparameters the session refits with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Parallelism configuration used for refits.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// The current refit policy.
    pub fn policy(&self) -> RefitPolicy {
        self.policy
    }

    /// Whether this is a soft (EM) continuation
    /// ([`StreamingSession::resume_em`]) rather than a hard-mode session.
    pub fn is_em(&self) -> bool {
        self.soft.is_some()
    }

    /// Replaces the refit policy (takes effect from the next ingest).
    pub fn set_policy(&mut self, policy: RefitPolicy) {
        self.policy = policy;
    }

    /// The auto-tuner adjusting an [`RefitPolicy::EveryNActions`]
    /// interval, if one is installed.
    pub fn tuner(&self) -> Option<RefitTuner> {
        self.tuner
    }

    /// Installs (or removes) the refit-interval auto-tuner. Only
    /// meaningful under [`RefitPolicy::EveryNActions`]; inert otherwise.
    pub fn set_tuner(&mut self, tuner: Option<RefitTuner>) {
        self.tuner = tuner;
    }

    /// Number of actions ingested since the last refit.
    pub fn pending_actions(&self) -> usize {
        self.pending
    }

    /// Number of actions ingested over the session's lifetime.
    pub fn total_ingested(&self) -> usize {
        self.total_ingested
    }

    /// Number of users the session tracks (including streamed-in users).
    pub fn n_users(&self) -> usize {
        self.dataset.n_users()
    }

    /// The user's last committed level, if they have any actions.
    pub fn committed_level(&self, user: UserId) -> Option<SkillLevel> {
        let &u = self.user_index.get(&user)?;
        self.assignments.per_user[u].last().copied()
    }

    /// The user's filtering (tracker) level estimate — may disagree with
    /// the committed path; see the module docs on filtering vs smoothing.
    pub fn filtered_level(&self, user: UserId) -> Option<SkillLevel> {
        let &u = self.user_index.get(&user)?;
        self.trackers[u].current_level().ok()
    }
}

/// Warms one filtering [`OnlineTracker`] per dataset user by replaying its
/// sequence through the emission table, and indexes users by id.
fn warm_trackers(
    dataset: &Dataset,
    table: &EmissionTable,
    n_levels: usize,
) -> Result<(Vec<OnlineTracker>, HashMap<UserId, usize>)> {
    let mut trackers = Vec::with_capacity(dataset.n_users());
    let mut user_index = HashMap::with_capacity(dataset.n_users());
    for (u, seq) in dataset.sequences().iter().enumerate() {
        if user_index.insert(seq.user, u).is_some() {
            return Err(CoreError::DegenerateFit {
                distribution: "streaming session",
                reason: "dataset contains two sequences for one user id",
            });
        }
        let mut tracker = OnlineTracker::new(n_levels)?;
        for action in seq.actions() {
            tracker.observe_item(table, action.item)?;
        }
        trackers.push(tracker);
    }
    Ok((trackers, user_index))
}

/// Filtering posterior of one ingested action over its admissible levels:
/// a softmax of `transition log-probability + emission score`, restricted
/// to all levels for a user's first action (weighted by the initial
/// distribution) or to the two-way stay/advance extension of the
/// committed path otherwise. Degenerate rows (every admissible level
/// scoring `-inf`) collapse to the committed level, mirroring what the
/// hard path records.
fn extension_posterior(
    transitions: &TransitionModel,
    row: &[f64],
    last: Option<SkillLevel>,
    committed: SkillLevel,
) -> Vec<f64> {
    let s_max = row.len();
    let mut post = vec![f64::NEG_INFINITY; s_max];
    match last {
        None => {
            for (s, (p, &e)) in post.iter_mut().zip(row).enumerate() {
                *p = transitions.log_init(crate::types::skill_level_from_index(s)) + e;
            }
        }
        Some(last) => {
            let li = last as usize - 1;
            if let (Some(p), Some(&e)) = (post.get_mut(li), row.get(li)) {
                *p = transitions.log_stay(last) + e;
            }
            if let (Some(p), Some(&e)) = (post.get_mut(li + 1), row.get(li + 1)) {
                *p = transitions.log_advance(last) + e;
            }
        }
    }
    let max = post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        post.fill(0.0);
        if let Some(p) = post.get_mut(committed as usize - 1) {
            *p = 1.0;
        }
        return post;
    }
    let mut sum = 0.0;
    for p in post.iter_mut() {
        *p = (*p - max).exp();
        sum += *p;
    }
    for p in post.iter_mut() {
        *p /= sum;
    }
    post
}

/// Index of the maximum value, lowest index on ties.
fn argmax_low(row: &[f64]) -> usize {
    let (mut best, mut best_v) = match row.first() {
        Some(&v) => (0, v),
        None => return 0,
    };
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::train::train;

    /// Progression dataset: users move through item categories over time.
    fn progression_dataset(n_users: usize, len: usize, n_cats: u32) -> Dataset {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical {
                cardinality: n_cats,
            },
            FeatureKind::Count,
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..n_cats)
            .map(|c| {
                vec![
                    FeatureValue::Categorical(c),
                    FeatureValue::Count(1 + 4 * c as u64),
                ]
            })
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

    fn trained_session(policy: RefitPolicy) -> StreamingSession {
        let ds = progression_dataset(8, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        StreamingSession::resume(ds, &result, cfg, ParallelConfig::sequential(), policy).unwrap()
    }

    /// Bitwise model equality over the full item × level likelihood grid.
    fn models_identical(a: &SkillModel, b: &SkillModel, ds: &Dataset) -> bool {
        (0..ds.n_items()).all(|item| {
            (1..=a.n_levels() as SkillLevel).all(|s| {
                let x = a.item_log_likelihood(ds.item_features(item as u32), s);
                let y = b.item_log_likelihood(ds.item_features(item as u32), s);
                x.to_bits() == y.to_bits()
            })
        })
    }

    #[test]
    fn resume_reproduces_converged_model_bitwise() {
        let ds = progression_dataset(8, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        assert!(result.converged);
        let session = StreamingSession::resume(
            ds.clone(),
            &result,
            cfg,
            ParallelConfig::sequential(),
            RefitPolicy::EveryBatch,
        )
        .unwrap();
        assert!(models_identical(session.model(), &result.model, &ds));
    }

    #[test]
    fn ingest_extends_monotone_assignments_and_exact_statistics() {
        let mut session = trained_session(RefitPolicy::EveryBatch);
        let t0 = 100; // past every training timestamp
        for (k, user) in [0u32, 0, 3, 3, 3].iter().enumerate() {
            let level = session
                .ingest(Action::new(t0 + k as i64, *user, 2))
                .unwrap();
            assert!((1..=3).contains(&level));
        }
        assert!(session.assignments().is_monotone());
        assert_eq!(session.total_ingested(), 5);
        assert_eq!(session.pending_actions(), 0); // EveryBatch refits per ingest
        assert_eq!(session.dataset().n_actions(), 8 * 12 + 5);

        // The refit model must equal a from-scratch parameter fit of the
        // grown dataset under the session's assignments, bit for bit.
        let fresh = StatsGrid::build(session.dataset(), session.assignments(), 3)
            .unwrap()
            .fit_model(session.dataset(), session.config().lambda)
            .unwrap();
        assert!(models_identical(session.model(), &fresh, session.dataset()));

        // And the emission table must match a fresh build of that model.
        let fresh_table = EmissionTable::build(session.model(), session.dataset());
        for item in 0..session.dataset().n_items() as u32 {
            for s in 1..=3u8 {
                assert_eq!(
                    session.table.log_likelihood(item, s).to_bits(),
                    fresh_table.log_likelihood(item, s).to_bits()
                );
            }
        }
    }

    #[test]
    fn unknown_user_is_admitted_with_fresh_sequence() {
        let mut session = trained_session(RefitPolicy::EveryBatch);
        assert_eq!(session.committed_level(42), None);
        let level = session.ingest(Action::new(0, 42, 0)).unwrap();
        assert_eq!(session.n_users(), 9);
        assert_eq!(session.committed_level(42), Some(level));
        assert!(session.filtered_level(42).is_some());
        // The new user's next action continues their own sequence.
        session.ingest(Action::new(1, 42, 1)).unwrap();
        assert_eq!(session.dataset().sequences()[8].len(), 2);
    }

    #[test]
    fn every_n_actions_policy_defers_refit() {
        let mut session = trained_session(RefitPolicy::EveryNActions(3));
        let before = session.model().clone();
        session.ingest(Action::new(100, 0, 2)).unwrap();
        session.ingest(Action::new(101, 0, 2)).unwrap();
        // Not due yet: model untouched, statistics pending.
        assert_eq!(session.pending_actions(), 2);
        assert!(models_identical(
            session.model(),
            &before,
            session.dataset()
        ));
        session.ingest(Action::new(102, 0, 2)).unwrap();
        assert_eq!(session.pending_actions(), 0);
    }

    #[test]
    fn manual_policy_refits_only_on_demand() {
        let mut session = trained_session(RefitPolicy::Manual);
        let before = session.model().clone();
        for k in 0..5 {
            session.ingest(Action::new(100 + k, 1, 2)).unwrap();
        }
        assert_eq!(session.pending_actions(), 5);
        assert!(models_identical(
            session.model(),
            &before,
            session.dataset()
        ));
        let refit_levels = session.refit().unwrap();
        assert!(refit_levels >= 1);
        assert_eq!(session.pending_actions(), 0);
        // Refitting again with nothing pending is a no-op.
        assert_eq!(session.refit().unwrap(), 0);
    }

    #[test]
    fn batch_equals_singles_under_manual_policy() {
        let actions: Vec<Action> = (0..6).map(|k| Action::new(100 + k, 2, 2)).collect();
        let mut batched = trained_session(RefitPolicy::Manual);
        let mut single = trained_session(RefitPolicy::Manual);
        let batch_levels = batched.ingest_batch(&actions).unwrap();
        let single_levels: Vec<SkillLevel> =
            actions.iter().map(|&a| single.ingest(a).unwrap()).collect();
        assert_eq!(batch_levels, single_levels);
        batched.refit().unwrap();
        single.refit().unwrap();
        assert_eq!(batched.assignments(), single.assignments());
        assert!(models_identical(
            batched.model(),
            single.model(),
            batched.dataset()
        ));
    }

    #[test]
    fn invalid_actions_leave_session_unchanged() {
        let mut session = trained_session(RefitPolicy::EveryBatch);
        let n_actions = session.dataset().n_actions();
        // Unknown item.
        assert!(session.ingest(Action::new(100, 0, 99)).is_err());
        // Time regression for a known user (training data ends at t=11).
        assert!(session.ingest(Action::new(-5, 0, 0)).is_err());
        assert_eq!(session.dataset().n_actions(), n_actions);
        assert_eq!(session.total_ingested(), 0);
        assert_eq!(session.pending_actions(), 0);
    }

    #[test]
    fn em_resume_preserves_em_model_bitwise() {
        let ds = progression_dataset(8, 12, 3);
        let trainer = crate::train::Trainer::new(3)
            .with_min_init_actions(4)
            .with_max_iterations(20)
            .em();
        let fitted = trainer.fit(&ds).unwrap();
        let session = trainer
            .fit_session(ds.clone(), RefitPolicy::Manual)
            .unwrap();
        assert!(session.is_em());
        // The old behavior hard-refit the model at construction,
        // discarding the soft fit; the soft continuation keeps it.
        assert!(models_identical(session.model(), &fitted.model, &ds));
        assert_eq!(session.assignments(), &fitted.assignments);
        assert_eq!(session.pending_actions(), 0);
    }

    #[test]
    fn em_session_ingests_and_soft_refits_dirty_levels() {
        let ds = progression_dataset(8, 12, 3);
        let trainer = crate::train::Trainer::new(3)
            .with_min_init_actions(4)
            .with_max_iterations(20)
            .em();
        let mut session = trainer.fit_session(ds, RefitPolicy::Manual).unwrap();
        let before = session.model().clone();
        for k in 0..6 {
            let level = session.ingest(Action::new(100 + k, 1, 2)).unwrap();
            assert!((1..=3).contains(&level));
        }
        assert!(session.assignments().is_monotone());
        assert_eq!(session.pending_actions(), 6);
        // Model untouched until the refit; the refit touches at least one
        // but not necessarily all levels.
        assert!(models_identical(
            session.model(),
            &before,
            session.dataset()
        ));
        let n_refit = session.refit().unwrap();
        assert!((1..=3).contains(&n_refit));
        assert_eq!(session.pending_actions(), 0);
        assert!(!models_identical(
            session.model(),
            &before,
            session.dataset()
        ));
        // The emission table tracks the refit model exactly.
        let fresh_table = EmissionTable::build(session.model(), session.dataset());
        for item in 0..session.dataset().n_items() as u32 {
            for s in 1..=3u8 {
                assert_eq!(
                    session.table.log_likelihood(item, s).to_bits(),
                    fresh_table.log_likelihood(item, s).to_bits()
                );
            }
        }
        // Refitting again with nothing pending is a no-op.
        assert_eq!(session.refit().unwrap(), 0);
    }

    #[test]
    fn em_session_admits_unknown_users() {
        let ds = progression_dataset(8, 12, 3);
        let trainer = crate::train::Trainer::new(3)
            .with_min_init_actions(4)
            .with_max_iterations(20)
            .em();
        let mut session = trainer.fit_session(ds, RefitPolicy::EveryBatch).unwrap();
        let level = session.ingest(Action::new(0, 42, 0)).unwrap();
        assert_eq!(session.n_users(), 9);
        assert_eq!(session.committed_level(42), Some(level));
        // Invalid actions still leave the session unchanged in EM mode.
        let n_actions = session.dataset().n_actions();
        assert!(session.ingest(Action::new(100, 0, 99)).is_err());
        assert_eq!(session.dataset().n_actions(), n_actions);
    }

    #[test]
    fn extension_posterior_is_normalized_and_admissible() {
        let trans = TransitionModel::uninformative(3).unwrap();
        let row = [-1.0, -2.0, -0.5];
        // First action: all levels admissible.
        let first = extension_posterior(&trans, &row, None, 3);
        assert!((first.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(first.iter().all(|&p| p > 0.0));
        // Mid-path: only stay/advance carry mass.
        let mid = extension_posterior(&trans, &row, Some(1), 1);
        assert!((mid.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(mid[2], 0.0);
        assert!(mid[0] > 0.0 && mid[1] > 0.0);
        // Top level: all mass stays.
        let top = extension_posterior(&trans, &row, Some(3), 3);
        assert_eq!(top, vec![0.0, 0.0, 1.0]);
        // Degenerate emissions collapse to the committed level.
        let dead = [f64::NEG_INFINITY; 3];
        let fallback = extension_posterior(&trans, &dead, Some(2), 2);
        assert_eq!(fallback, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn refit_tuner_is_deterministic_and_clamped() {
        let tuner = RefitTuner::new(2, 4, 64).unwrap();
        // Above target: halve, clamped below.
        assert_eq!(tuner.next_interval(16, 3), 8);
        assert_eq!(tuner.next_interval(4, 5), 4);
        // Below target: double, clamped above.
        assert_eq!(tuner.next_interval(16, 1), 32);
        assert_eq!(tuner.next_interval(64, 0), 64);
        // On target: unchanged.
        assert_eq!(tuner.next_interval(16, 2), 16);
        // Out-of-range current intervals are pulled into range first.
        assert_eq!(tuner.next_interval(1_000, 2), 64);
        assert!(RefitTuner::new(0, 1, 8).is_err());
        assert!(RefitTuner::new(2, 8, 4).is_err());
    }

    #[test]
    fn tuner_widens_interval_when_refits_run_clean() {
        let mut session = trained_session(RefitPolicy::EveryNActions(2));
        session.set_tuner(Some(RefitTuner::new(3, 1, 16).unwrap()));
        // Two same-item ingests trigger a refit touching at most a
        // couple of levels — below the target of 3 — so the interval
        // doubles afterwards.
        session.ingest(Action::new(100, 0, 2)).unwrap();
        session.ingest(Action::new(101, 0, 2)).unwrap();
        assert_eq!(session.pending_actions(), 0);
        match session.policy() {
            RefitPolicy::EveryNActions(n) => assert_eq!(n, 4),
            other => panic!("policy changed kind: {other:?}"),
        }
        assert!(session.tuner().is_some());
    }

    #[test]
    fn non_monotone_assignments_rejected_at_construction() {
        let ds = progression_dataset(2, 3, 2);
        let bad = SkillAssignments {
            per_user: vec![vec![2, 1, 1], vec![1, 1, 1]],
        };
        let err = StreamingSession::new(
            ds,
            bad,
            TrainConfig::new(2),
            ParallelConfig::sequential(),
            RefitPolicy::Manual,
        );
        assert!(err.is_err());
    }
}
