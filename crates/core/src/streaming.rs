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
//!    scores ([`commit_level`]) — exactly the constrained forward-DP step,
//!    in `O(1)` per action.
//! 2. **Exact statistics deltas** — every appended action is a single `+1`
//!    on the persistent [`StatsGrid`] cell `(level, item)`
//!    ([`LiveFit::record`]), so the sufficient statistics stay bit-exact
//!    with a from-scratch accumulation at all times.
//! 3. **Dirty-level refits** — a refit (run per the [`RefitPolicy`])
//!    refits only the levels whose histogram changed, in place in a
//!    clone of the previous model, whose rows it keeps elsewhere (the
//!    M-step of [`StatsGrid::refit`]), and refreshes only those levels'
//!    [`EmissionTable`] columns.
//!
//! ## One live-fitting state, one live user record
//!
//! Steps 2 and 3 belong to [`LiveFit`]: the statistics grid, the model,
//! the refit policy and its [`RefitTuner`], and the pending and lifetime
//! counters, with one construction pipeline ([`LiveFit::new`]), one `+1`
//! record and one refit rule. It has one mode, hard counts, as in the
//! paper's coordinate ascent (§IV-B). Step 1 belongs to [`LiveUser`]:
//! one user's compact record of action history, committed path (as
//! breakpoints) and filtering scores, filed under the user's id by its
//! owner, with one construction ([`LiveUser::split`]), one ingest rule
//! ([`LiveUser::validate`], then append or admit) and one snapshot
//! ([`session_bundle`]). A [`StreamingSession`] owns a
//! sequence-less catalog, its live users, the emission table and a
//! `LiveFit`; the serving layer keeps the `LiveFit` behind its global
//! lock and the live users in its shards. Both commit the same paths and
//! fit the same model from the same traffic by construction. A refit
//! reads only the catalog (schema + item tuples), never the sequences.
//!
//! ## Cut, fit, install
//!
//! The refit rule runs in three steps, so its owner need not hold its
//! lock while the M-step runs:
//!
//! 1. **Cut** ([`LiveFit::cut`]) only copies: the dirty count rows of
//!    the grid (`n_dirty × n_items` counts) and a handle on the model the
//!    fit keeps clean rows from. It clears the dirty flags, resets the
//!    pending count and steps the tuner, a pure function of the dirty
//!    count.
//! 2. **Fit** ([`RefitCut::fit`]) reads only the cut and the catalog:
//!    the dirty levels refit in place in a clone of the cut's model,
//!    then those columns refreshed into a clone of the current table,
//!    then the table check.
//! 3. **Install** ([`LiveFit::install`]) stores the new model. A refit
//!    that fails after its cut instead hands the cut to
//!    [`LiveFit::abandon`], which marks its levels dirty again and
//!    restores the pending count and the policy, so the next refit
//!    covers the same levels and fits the same bits.
//!
//! The rule is *computed from the cut, visible at install*: an action
//! recorded between cut and install is not in the new model; it marks
//! its level dirty for the next cut. A [`StreamingSession`] runs the
//! three steps back to back, so nothing lands in between.
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

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bundle::SessionBundle;
use crate::chunked::{path_position, Path};
use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::incremental::{GridCut, StatsGrid};
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::online::{best_prefix_level, fold_prefix_scores};
use crate::parallel::ParallelConfig;
use crate::train::{TrainConfig, TrainResult};
use crate::types::{
    skill_level_from_index, Action, ActionSequence, Dataset, ItemId, SkillAssignments, SkillLevel,
    Timestamp, UserId,
};

/// When a [`LiveFit`] refits model parameters from its accumulated
/// statistics.
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
    pub(crate) fn next_interval(&self, current: usize, dirty_levels: usize) -> usize {
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

/// The model-fitting state of a live deployment and its one refit rule:
/// the exact [`StatsGrid`], the current [`SkillModel`], the
/// [`RefitPolicy`] and optional [`RefitTuner`], and the pending and
/// lifetime action counters.
///
/// [`StreamingSession`] owns one; the serving layer keeps one behind its
/// global lock. The model is always the parameter fit of the statistics
/// as of the last refit; between refits it lags them by design — that
/// lag is what the policy trades against cost.
#[derive(Debug, Clone)]
pub struct LiveFit {
    grid: StatsGrid,
    /// Shared with every [`RefitCut`] taken since the last install.
    model: Arc<SkillModel>,
    policy: RefitPolicy,
    /// Auto-tuner adjusting an [`RefitPolicy::EveryNActions`] interval
    /// after each refit; `None` leaves the policy fixed.
    tuner: Option<RefitTuner>,
    /// Actions recorded since the last refit.
    pending: usize,
    /// Actions recorded over the fit's lifetime.
    total_ingested: usize,
}

impl LiveFit {
    /// The one construction pipeline: validates `config` and `parallel`,
    /// checks the assignments are monotone, builds the grid from them,
    /// fits the model (the update step of the coordinate ascent) and
    /// builds its emission table. Shape validation (user count, per-user
    /// lengths) happens inside the grid build.
    ///
    /// The fit establishes the exact grid-model invariant every later
    /// dirty-level refit relies on; for a converged, grid-trained
    /// [`TrainResult`] it reproduces `result.model` bit for bit.
    pub fn new(
        dataset: &Dataset,
        assignments: &SkillAssignments,
        config: TrainConfig,
        parallel: ParallelConfig,
        policy: RefitPolicy,
        tuner: Option<RefitTuner>,
    ) -> Result<(Self, EmissionTable)> {
        config.validate()?;
        parallel.validate()?;
        assignments.check_paths(config.n_levels)?;
        let mut grid =
            StatsGrid::build_with_config(dataset, assignments, config.n_levels, &parallel)?;
        let model = grid.fit_model_incremental(dataset, config.lambda, &parallel, None)?;
        let table = EmissionTable::build_with_config(&model, dataset, &parallel)?;
        let fit = Self {
            grid,
            model: Arc::new(model),
            policy,
            tuner,
            pending: 0,
            total_ingested: 0,
        };
        Ok((fit, table))
    }

    /// Records one committed action: the `+1` delta on the `(level, item)`
    /// cell, and the counters.
    pub fn record(&mut self, item: ItemId, level: SkillLevel) -> Result<()> {
        self.grid.add_action(item, level)?;
        self.pending += 1;
        self.total_ingested += 1;
        Ok(())
    }

    /// Whether the policy calls for a refit now (checked at the end of
    /// each ingest call).
    pub fn refit_due(&self) -> bool {
        match self.policy {
            RefitPolicy::EveryBatch => true,
            RefitPolicy::EveryNActions(n) => self.pending >= n,
            RefitPolicy::Manual => false,
        }
    }

    /// The cut step of a refit: copies out what the fit step reads —
    /// the dirty count rows of the [`StatsGrid`] and a handle on the
    /// current model — then clears the dirty flags, resets the pending
    /// count and steps the tuner. The tuner steps on clean cuts too.
    ///
    /// Run [`RefitCut::fit`] on the result, then [`LiveFit::install`]
    /// its model, or [`LiveFit::abandon`] the cut if anything fails. A
    /// clean cut (no dirty level) needs neither.
    pub fn cut(&mut self) -> RefitCut {
        let cut = RefitCut {
            rows: self.grid.cut(),
            model: Arc::clone(&self.model),
            pending: self.pending,
            policy: self.policy,
        };
        self.pending = 0;
        // Auto-tune: each refit's dirty count steers the next interval.
        // A pure function of the observed count, so replayed traffic
        // evolves the policy identically (see [`RefitTuner`]).
        if let (RefitPolicy::EveryNActions(n), Some(tuner)) = (self.policy, self.tuner) {
            self.policy = RefitPolicy::EveryNActions(tuner.next_interval(n, cut.n_dirty()));
        }
        cut
    }

    /// The install step of a refit: `model` (from [`RefitCut::fit`])
    /// becomes the current model.
    pub fn install(&mut self, model: SkillModel) {
        self.model = Arc::new(model);
    }

    /// Undoes a cut whose model will never be installed: marks its
    /// levels dirty again and restores the pending count (plus whatever
    /// was recorded since) and the pre-cut policy. The next refit then
    /// covers the same levels and, since a cell fit is a pure function
    /// of its row, fits the same bits as if the cut had never been
    /// taken.
    pub fn abandon(&mut self, cut: &RefitCut) {
        self.grid.reopen(&cut.rows);
        self.pending += cut.pending;
        self.policy = cut.policy;
    }

    /// The current model (last refit; lags the statistics between refits).
    pub fn model(&self) -> &SkillModel {
        &self.model
    }

    /// The current refit policy (auto-tuning may move its interval).
    pub fn policy(&self) -> RefitPolicy {
        self.policy
    }

    /// Number of actions recorded since the last refit.
    pub fn pending_actions(&self) -> usize {
        self.pending
    }

    /// Number of actions recorded over the fit's lifetime.
    pub fn total_ingested(&self) -> usize {
        self.total_ingested
    }
}

/// The statistics one refit reads, cut from a [`LiveFit`] by
/// [`LiveFit::cut`]: the dirty grid rows and the model whose clean
/// levels the fit keeps. It owns copies, so [`RefitCut::fit`] runs
/// without access to the [`LiveFit`] — in the serving layer, without its
/// lock.
#[derive(Debug, Clone)]
pub struct RefitCut {
    rows: GridCut,
    model: Arc<SkillModel>,
    /// The pending count and policy the cut replaced, restored by
    /// [`LiveFit::abandon`].
    pending: usize,
    policy: RefitPolicy,
}

impl RefitCut {
    /// Number of levels this refit fits; 0 for a clean cut.
    pub fn n_dirty(&self) -> usize {
        self.rows.dirty_levels().iter().filter(|&&d| d).count()
    }

    /// The fit step of a refit: refits the cut's dirty levels from
    /// `catalog` (only its schema and item tuples are read) in place in
    /// a clone of the cut's model, which keeps its rows elsewhere, with
    /// the refit cells split over workers per `parallel` — bitwise the
    /// sequential fit for every split. Then refreshes exactly the dirty
    /// columns of a clone of `table`, which must be the table of the
    /// cut's model, and checks the result. Returns the new model and
    /// table; touches no shared state. A cut model of another level or
    /// feature count than the grid is a typed "refit cut" error.
    pub fn fit(
        &self,
        catalog: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        table: &EmissionTable,
    ) -> Result<(SkillModel, EmissionTable)> {
        let mut model = SkillModel::clone(&self.model);
        self.rows.refit(catalog, lambda, parallel, &mut model)?;
        let mut table = table.clone();
        table.refresh_levels(&model, catalog, self.rows.dirty_levels())?;
        InvariantCtx::new().check_emission_table(&table)?;
        Ok((model, table))
    }
}

/// One user's live record, kept compact because a deployment holds one
/// per admitted user: the action history, the committed monotone level
/// path and the filtering scores. [`StreamingSession`] keeps a `Vec` of
/// them, the serving layer one per user in its shards (module docs).
///
/// No field repeats another. The user id is the key the owner files the
/// record under, so the history stores only each action's time and item
/// (12 bytes), in a boxed slice sized exactly to one action on admission
/// and doubled from there; its length sits beside the first level, so
/// the record is 56 bytes. The path is stored as breakpoints, the way the
/// trainer stores its paths: the first level plus the ascending positions
/// where the path advances, so a user who never advanced allocates
/// nothing for it and the committed level is the first level plus the
/// number of advances. The filtering scores are those of an
/// [`crate::online::OnlineTracker`] whose observed count is the history
/// length. [`session_bundle`] expands all of it back to sequences and
/// per-action levels.
#[derive(Debug, Clone)]
pub struct LiveUser {
    /// Time and item of every action in time order, in the first `len`
    /// slots; the slots after them are spare capacity.
    steps: Box<[Step]>,
    /// Number of actions.
    len: u32,
    /// `scores[s - 1]`: the best log-likelihood of a monotone path over
    /// the history ending at level `s`.
    scores: Box<[f64]>,
    /// Ascending positions where the path advances one level; a position
    /// repeats once per level when a path given to [`LiveUser::split`]
    /// climbs more than one level at once.
    advances: Box<[u32]>,
    /// Level of the first action, 0 while the history is empty.
    start: SkillLevel,
}

/// One action of a [`LiveUser`]'s history, without the user id. Packed,
/// so a step costs 12 bytes, not 16; fields are only read by value.
#[derive(Debug, Clone, Copy)]
#[repr(Rust, packed(4))]
struct Step {
    time: Timestamp,
    item: ItemId,
}

impl Step {
    /// What a spare slot of a history holds.
    const SPARE: Step = Step { time: 0, item: 0 };
}

/// An action [`LiveUser::validate`] accepted.
// lint:allow(unused-pub): taken by `LiveUser::{validate, append, admit}`.
#[derive(Debug, Clone, Copy)]
pub struct Extension<'t> {
    /// The action's emission row, `row[s - 1]` for level `s`.
    pub row: &'t [f64],
    /// The level the action commits.
    pub level: SkillLevel,
}

impl LiveUser {
    /// Splits `dataset` and its committed `assignments` into the
    /// sequence-less catalog, built through the item check of
    /// `Dataset::with_sequences`, and one live user per sequence in
    /// dataset order, with its id, its path encoded as breakpoints and
    /// its filtering scores warmed through `table`. Rejects two
    /// sequences for one user, and a path that is not monotone over
    /// `1..=S` or does not cover its sequence.
    pub fn split(
        dataset: Dataset,
        assignments: SkillAssignments,
        table: &EmissionTable,
    ) -> Result<(Dataset, Vec<(UserId, LiveUser)>)> {
        let catalog = dataset.with_sequences(Vec::new())?;
        let sequences = dataset.into_sequences();
        if assignments.per_user.len() != sequences.len() {
            return Err(CoreError::LengthMismatch {
                context: "assignments vs dataset users",
                left: assignments.per_user.len(),
                right: sequences.len(),
            });
        }
        assignments.check_paths(table.n_levels())?;
        let mut seen = HashSet::with_capacity(sequences.len());
        let mut users = Vec::with_capacity(sequences.len());
        // Each sequence and path is dropped as soon as it is encoded.
        for (sequence, levels) in sequences.into_iter().zip(assignments.per_user) {
            if !seen.insert(sequence.user) {
                return Err(CoreError::DegenerateFit {
                    distribution: "live users",
                    reason: "dataset contains two sequences for one user id",
                });
            }
            users.push((sequence.user, LiveUser::warm(&sequence, &levels, table)?));
        }
        Ok((catalog, users))
    }

    /// One user of [`LiveUser::split`]: `levels` (a checked monotone
    /// path) as breakpoints, and the scores folded over `sequence`.
    fn warm(
        sequence: &ActionSequence,
        levels: &[SkillLevel],
        table: &EmissionTable,
    ) -> Result<LiveUser> {
        let actions = sequence.actions();
        if levels.len() != actions.len() {
            return Err(CoreError::LengthMismatch {
                context: "level path vs sequence length",
                left: levels.len(),
                right: actions.len(),
            });
        }
        let len = path_position(actions.len())?;
        let mut scores = vec![0.0; table.n_levels()].into_boxed_slice();
        for (t, action) in actions.iter().enumerate() {
            let row = table
                .checked_row(action.item)
                .ok_or(CoreError::FeatureIndexOutOfBounds {
                    index: action.item as usize,
                    len: table.n_items(),
                })?;
            fold_prefix_scores(&mut scores, row, t == 0);
        }
        // One position per level climbed: the path is checked monotone.
        let climbed = match (levels.first(), levels.last()) {
            (Some(&first), Some(&last)) => usize::from(last - first),
            _ => 0,
        };
        let mut advances = Vec::with_capacity(climbed);
        advances.extend(
            (levels.windows(2).zip(1u32..))
                .flat_map(|(pair, t)| std::iter::repeat_n(t, usize::from(pair[1] - pair[0]))),
        );
        Ok(LiveUser {
            steps: actions
                .iter()
                .map(|a| Step {
                    time: a.time,
                    item: a.item,
                })
                .collect(),
            len,
            scores,
            advances: advances.into_boxed_slice(),
            start: levels.first().copied().unwrap_or(0),
        })
    }

    /// The validate step of the ingest rule; changes nothing. Checks that
    /// `action` names an item of `table` and, for a known `user`, does
    /// not move time backwards; then commits its level by
    /// [`commit_level`] and checks the extension stays monotone.
    pub fn validate<'t>(
        user: Option<&LiveUser>,
        action: &Action,
        table: &'t EmissionTable,
    ) -> Result<Extension<'t>> {
        let row = table
            .checked_row(action.item)
            .ok_or(CoreError::FeatureIndexOutOfBounds {
                index: action.item as usize,
                len: table.n_items(),
            })?;
        if let Some(live) = user {
            if live
                .history()
                .last()
                .is_some_and(|prev| action.time < prev.time)
            {
                return Err(CoreError::UnsortedSequence {
                    user: action.user,
                    position: live.n_actions(),
                });
            }
        }
        let last = user.and_then(LiveUser::committed_level);
        let level = commit_level(row, last);
        InvariantCtx::new().check_extension("live ingest", last, level)?;
        Ok(Extension { row, level })
    }

    /// Appends a validated action's time and item to a known user: the
    /// history step, an advance breakpoint if the level rose, and the
    /// filtering scores. The action's user id is the owner's key and is
    /// not stored. Changes nothing on error.
    pub fn append(&mut self, action: Action, ext: &Extension) -> Result<()> {
        let at = self.len;
        let len = path_position(self.n_actions() + 1)?;
        let climb = match self.committed_level() {
            Some(last) if ext.level < last => {
                return Err(CoreError::InvalidLevelPath {
                    user: action.user as usize,
                    position: self.n_actions(),
                    level: ext.level,
                    reason: "is below the level before it",
                })
            }
            Some(last) => usize::from(ext.level - last),
            None => 0,
        };
        if climb > 0 {
            self.advances = (self.advances.iter().copied())
                .chain(std::iter::repeat_n(at, climb))
                .collect();
        }
        let first = at == 0;
        if first {
            self.start = ext.level;
        }
        if self.n_actions() == self.steps.len() {
            // Exactly one step on admission, then doubling: most
            // admitted users act once, and a `Vec`'s first allocation
            // holds four.
            let mut grown = std::mem::take(&mut self.steps).into_vec();
            let capacity = (2 * grown.len()).max(1);
            grown.reserve_exact(capacity - grown.len());
            grown.resize(capacity, Step::SPARE);
            self.steps = grown.into_boxed_slice();
        }
        self.steps[self.n_actions()] = Step {
            time: action.time,
            item: action.item,
        };
        self.len = len;
        fold_prefix_scores(&mut self.scores, ext.row, first);
        Ok(())
    }

    /// Admits a new user with a validated first action.
    pub fn admit(action: Action, ext: &Extension) -> Result<LiveUser> {
        if ext.row.is_empty() {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        let mut live = LiveUser {
            steps: Box::default(),
            len: 0,
            scores: vec![0.0; ext.row.len()].into_boxed_slice(),
            advances: Box::default(),
            start: 0,
        };
        live.append(action, ext)?;
        Ok(live)
    }

    /// Number of actions in the user's history.
    pub fn n_actions(&self) -> usize {
        self.len as usize
    }

    /// The user's actions, in time order.
    fn history(&self) -> &[Step] {
        &self.steps[..self.n_actions()]
    }

    /// The items of the user's actions, in time order.
    pub fn items(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.history().iter().map(|step| step.item)
    }

    /// The user's last committed level, if they have any actions: the
    /// first level plus one per advance.
    pub fn committed_level(&self) -> Option<SkillLevel> {
        // At most S - 1 <= 254 advances above a first level in 1..=S.
        let climbed = self.advances.len() as SkillLevel;
        (self.len > 0).then_some(self.start + climbed)
    }

    /// The user's filtering (tracker) level estimate.
    pub fn filtered_level(&self) -> Result<SkillLevel> {
        if self.len == 0 {
            return Err(CoreError::EmptyDataset);
        }
        best_prefix_level(&self.scores)
    }

    /// The user's history as `user`'s action sequence.
    fn sequence(&self, user: UserId) -> ActionSequence {
        let actions = (self.history().iter())
            .map(|step| Action::new(step.time, user, step.item))
            .collect();
        ActionSequence::from_checked(user, actions)
    }

    /// The committed level of every action, expanded from the
    /// breakpoints.
    fn levels(&self) -> Vec<SkillLevel> {
        let mut levels = Vec::with_capacity(self.n_actions());
        Path {
            len: self.n_actions(),
            start: self.start,
            advances: &self.advances,
        }
        .expand_into(&mut levels);
        levels
    }
}

/// The [`SessionBundle`] of a live deployment: `catalog` with the
/// sequences and expanded paths of `users` (each with its id) in
/// admission order, and the model and policy of `fit`.
pub fn session_bundle<'a>(
    catalog: &Dataset,
    users: impl IntoIterator<Item = (UserId, &'a LiveUser)>,
    fit: &LiveFit,
    config: TrainConfig,
    parallel: ParallelConfig,
    note: &str,
) -> SessionBundle {
    let (sequences, per_user) = users
        .into_iter()
        .map(|(user, live)| (live.sequence(user), live.levels()))
        .unzip();
    SessionBundle {
        version: SessionBundle::VERSION,
        dataset: catalog.with_checked_sequences(sequences),
        model: SkillModel::clone(&fit.model),
        assignments: SkillAssignments { per_user },
        config,
        parallel,
        policy: fit.policy,
        note: note.to_string(),
    }
}

/// A live continuation of a trained model: owns the sequence-less item
/// catalog, one [`LiveUser`] per user (with its id) in admission order, the
/// [`EmissionTable`], and the [`LiveFit`] holding the statistics and the
/// model.
///
/// Construct with [`StreamingSession::resume`] from a
/// [`TrainResult`] (or [`StreamingSession::new`] from raw parts), then
/// feed actions with [`StreamingSession::ingest`] /
/// [`StreamingSession::ingest_batch`]. Unknown users are admitted
/// automatically with a fresh sequence and tracker.
/// [`StreamingSession::snapshot`] reads the grown dataset and paths back.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    catalog: Dataset,
    users: Vec<(UserId, LiveUser)>,
    user_index: HashMap<UserId, usize>,
    config: TrainConfig,
    parallel: ParallelConfig,
    table: EmissionTable,
    fit: LiveFit,
}

impl StreamingSession {
    /// Builds a session from a dataset and its committed assignments:
    /// the fit ([`LiveFit::new`]), then the catalog and one warmed
    /// [`LiveUser`] per sequence ([`LiveUser::split`]).
    pub fn new(
        dataset: Dataset,
        assignments: SkillAssignments,
        config: TrainConfig,
        parallel: ParallelConfig,
        policy: RefitPolicy,
    ) -> Result<Self> {
        let (fit, table) = LiveFit::new(&dataset, &assignments, config, parallel, policy, None)?;
        let (catalog, users) = LiveUser::split(dataset, assignments, &table)?;
        let user_index = users
            .iter()
            .enumerate()
            .map(|(u, (user, _))| (*user, u))
            .collect();
        Ok(Self {
            catalog,
            users,
            user_index,
            config,
            parallel,
            table,
            fit,
        })
    }

    /// Resumes a session from a completed training run: the dataset it was
    /// trained on plus the [`TrainResult`]'s final assignments. The model
    /// is refit from those assignments, so an EM-trained result (an
    /// [`crate::em::EmResult`] model closed with one hard decode by
    /// [`crate::parallel::assign_all_parallel`]) continues from that
    /// decode, exactly as the serving layer resumes it.
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

    /// The ingest rule ([`LiveUser::validate`], then append or admit)
    /// plus the `+1` record; no refit.
    fn ingest_inner(&mut self, action: Action) -> Result<SkillLevel> {
        let known = self.user_index.get(&action.user).copied();
        let ext = LiveUser::validate(
            known.and_then(|u| self.users.get(u)).map(|(_, live)| live),
            &action,
            &self.table,
        )?;
        match known.and_then(|u| self.users.get_mut(u)) {
            Some((_, live)) => live.append(action, &ext)?,
            None => {
                let live = LiveUser::admit(action, &ext)?;
                self.user_index.insert(action.user, self.users.len());
                self.users.push((action.user, live));
            }
        }
        self.fit.record(action.item, ext.level)?;
        Ok(ext.level)
    }

    /// Refits the dirty levels now if the policy says so.
    fn refit_per_policy(&mut self) -> Result<usize> {
        if self.fit.refit_due() {
            self.refit()
        } else {
            Ok(0)
        }
    }

    /// Refits model parameters from the accumulated statistics by the
    /// [`LiveFit`] refit rule — cut, fit, install, back to back —
    /// touching only dirty levels and refreshing exactly those
    /// emission-table columns. Returns the number of levels refit (0
    /// when nothing was pending). Callable at any time, whatever the
    /// policy. On error the cut is abandoned ([`LiveFit::abandon`]): the
    /// model and table are unchanged and the next refit covers the same
    /// levels.
    pub fn refit(&mut self) -> Result<usize> {
        let cut = self.fit.cut();
        if cut.n_dirty() == 0 {
            return Ok(0);
        }
        match self.fit_cut(&cut) {
            Ok((model, table)) => {
                self.fit.install(model);
                self.table = table;
                Ok(cut.n_dirty())
            }
            Err(err) => {
                self.fit.abandon(&cut);
                Err(err)
            }
        }
    }

    /// The fit step of [`StreamingSession::refit`], plus the checks
    /// that need the sequences: a monotone committed path and a grid
    /// that matches a from-scratch accumulation. The checks snapshot the
    /// users once, and only in builds where they run.
    fn fit_cut(&self, cut: &RefitCut) -> Result<(SkillModel, EmissionTable)> {
        let fitted = cut.fit(
            &self.catalog,
            self.config.lambda,
            &self.parallel,
            &self.table,
        )?;
        let ctx = InvariantCtx::new();
        if ctx.enabled() {
            let grown = self.snapshot("");
            ctx.check_monotone("streaming refit", &grown.assignments)?;
            ctx.check_grid(&self.fit.grid, &grown.dataset, &grown.assignments)?;
        }
        Ok(fitted)
    }

    /// Snapshots the session into a serializable [`SessionBundle`]: the
    /// catalog with every user's sequence and committed path.
    ///
    /// Derived state (grid, emission table, trackers) is not stored;
    /// [`SessionBundle::resume`] rebuilds it, so a snapshot taken with
    /// pending actions resumes freshly refit.
    pub fn snapshot(&self, note: &str) -> SessionBundle {
        session_bundle(
            &self.catalog,
            self.users.iter().map(|(user, live)| (*user, live)),
            &self.fit,
            self.config,
            self.parallel,
            note,
        )
    }

    /// The current model (last refit; lags the statistics between refits).
    pub fn model(&self) -> &SkillModel {
        &self.fit.model
    }

    /// Training hyperparameters the session refits with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The current refit policy.
    pub fn policy(&self) -> RefitPolicy {
        self.fit.policy
    }

    /// Replaces the refit policy (takes effect from the next ingest).
    pub fn set_policy(&mut self, policy: RefitPolicy) {
        self.fit.policy = policy;
    }

    /// The auto-tuner adjusting an [`RefitPolicy::EveryNActions`]
    /// interval, if one is installed.
    pub fn tuner(&self) -> Option<RefitTuner> {
        self.fit.tuner
    }

    /// Installs (or removes) the refit-interval auto-tuner. Only
    /// meaningful under [`RefitPolicy::EveryNActions`]; inert otherwise.
    pub fn set_tuner(&mut self, tuner: Option<RefitTuner>) {
        self.fit.tuner = tuner;
    }

    /// Number of actions ingested since the last refit.
    pub fn pending_actions(&self) -> usize {
        self.fit.pending
    }

    /// Number of actions ingested over the session's lifetime.
    pub fn total_ingested(&self) -> usize {
        self.fit.total_ingested
    }

    /// Number of users the session tracks (including streamed-in users).
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// The user's live record, if the session knows them.
    fn user(&self, user: UserId) -> Option<&LiveUser> {
        self.users
            .get(*self.user_index.get(&user)?)
            .map(|(_, live)| live)
    }

    /// The user's last committed level, if they have any actions.
    pub fn committed_level(&self, user: UserId) -> Option<SkillLevel> {
        self.user(user)?.committed_level()
    }

    /// The user's filtering (tracker) level estimate — may disagree with
    /// the committed path; see the module docs on filtering vs smoothing.
    pub fn filtered_level(&self, user: UserId) -> Option<SkillLevel> {
        self.user(user)?.filtered_level().ok()
    }
}

/// The level a committed monotone path ending at `last` gives its next
/// action, whose emission row is `row` (`row[s - 1]`): advance one level
/// only if that scores strictly higher (ties stay); on an empty path, the
/// best level outright, lowest on ties. Streaming ingest and the serving
/// layer both commit through this one rule.
pub fn commit_level(row: &[f64], last: Option<SkillLevel>) -> SkillLevel {
    let Some(last) = last else {
        return skill_level_from_index(argmax_low(row));
    };
    let stay = usize::from(last).saturating_sub(1);
    match (row.get(stay), row.get(stay + 1)) {
        (Some(stay), Some(advance)) if advance > stay => last + 1,
        _ => last,
    }
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
    use crate::online::OnlineTracker;
    use crate::train::train;

    #[test]
    fn commit_level_tie_rules() {
        // A first action that ties goes to the lowest tied level.
        assert_eq!(commit_level(&[-1.0, -1.0, -2.0], None), 1);
        assert_eq!(commit_level(&[-3.0, -1.0, -1.0], None), 2);
        assert_eq!(commit_level(&[-3.0, -2.0, -1.0], None), 3);
        // Equal stay and advance scores mean stay; strictly better
        // advance moves one level, never more.
        assert_eq!(commit_level(&[-5.0, -1.0, -1.0], Some(2)), 2);
        assert_eq!(commit_level(&[-5.0, -2.0, -1.0], Some(2)), 3);
        assert_eq!(commit_level(&[-5.0, -3.0, -2.0], Some(1)), 2);
        // Never down, never past the top level.
        assert_eq!(commit_level(&[0.0, -9.0, -9.0], Some(2)), 2);
        assert_eq!(commit_level(&[0.0, 0.0, -9.0], Some(3)), 3);
    }

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

    /// The session's grown dataset and committed paths, read back
    /// through its snapshot.
    fn grown(session: &StreamingSession) -> (Dataset, SkillAssignments) {
        let bundle = session.snapshot("");
        (bundle.dataset, bundle.assignments)
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
        let (dataset, assignments) = grown(&session);
        assert!(assignments.is_monotone());
        assert_eq!(session.total_ingested(), 5);
        assert_eq!(session.pending_actions(), 0); // EveryBatch refits per ingest
        assert_eq!(dataset.n_actions(), 8 * 12 + 5);

        // The refit model must equal a from-scratch parameter fit of the
        // grown dataset under the session's assignments, bit for bit.
        let fresh = StatsGrid::build(&dataset, &assignments, 3)
            .unwrap()
            .fit_model_incremental(
                &dataset,
                session.config().lambda,
                &ParallelConfig::sequential(),
                None,
            )
            .unwrap();
        assert!(models_identical(session.model(), &fresh, &dataset));

        // And the emission table must match a fresh build of that model.
        let fresh_table = EmissionTable::build(session.model(), &dataset);
        for item in 0..dataset.n_items() as u32 {
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
        assert_eq!(grown(&session).0.sequences()[8].len(), 2);
    }

    #[test]
    fn every_n_actions_policy_defers_refit() {
        let mut session = trained_session(RefitPolicy::EveryNActions(3));
        let before = session.model().clone();
        session.ingest(Action::new(100, 0, 2)).unwrap();
        session.ingest(Action::new(101, 0, 2)).unwrap();
        // Not due yet: model untouched, statistics pending.
        assert_eq!(session.pending_actions(), 2);
        assert!(models_identical(session.model(), &before, &session.catalog));
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
        assert!(models_identical(session.model(), &before, &session.catalog));
        let refit_levels = session.refit().unwrap();
        assert!(refit_levels >= 1);
        assert_eq!(session.pending_actions(), 0);
        // Refitting again with nothing pending is a no-op.
        assert_eq!(session.refit().unwrap(), 0);
    }

    #[test]
    fn abandoned_cut_refits_the_same_levels_bitwise() {
        let actions: Vec<Action> = (0..6)
            .map(|k| Action::new(100 + k, (k % 3) as UserId, (k % 3) as ItemId))
            .collect();
        let mut base = trained_session(RefitPolicy::EveryNActions(4));
        base.set_tuner(Some(RefitTuner::new(1, 1, 64).unwrap()));
        let wrong_table = EmissionTable::build(base.model(), &progression_dataset(2, 3, 2));
        let count = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let schema = base.catalog.schema().clone();
        // Models the cut holds no rows for: another level count, another
        // feature count.
        let reshaped = [
            SkillModel::unfitted(schema, 2).unwrap(),
            SkillModel::unfitted(count, 3).unwrap(),
        ];
        for case in 0..=reshaped.len() {
            let mut failed = base.clone();
            let mut clean = base.clone();
            // Below the interval, so neither session refits on its own.
            for &a in &actions[..3] {
                failed.ingest(a).unwrap();
                clean.ingest(a).unwrap();
            }
            let policy = failed.policy();

            // A refit that fails after its cut, with a typed error, and
            // the cut is handed back: fitting against a table of the
            // wrong shape, or into a model of another shape.
            let mut cut = failed.fit.cut();
            assert!(cut.n_dirty() >= 1);
            assert_eq!(failed.pending_actions(), 0);
            let lambda = failed.config.lambda;
            let seq = ParallelConfig::sequential();
            match reshaped.get(case) {
                None => assert!(cut
                    .fit(&failed.catalog, lambda, &seq, &wrong_table)
                    .is_err()),
                Some(model) => {
                    cut.model = Arc::new(model.clone());
                    assert!(matches!(
                        cut.fit(&failed.catalog, lambda, &seq, &failed.table),
                        Err(CoreError::DegenerateFit {
                            distribution: "refit cut",
                            ..
                        })
                    ));
                }
            }
            failed.fit.abandon(&cut);
            assert_eq!(failed.pending_actions(), 3);
            assert_eq!(failed.policy(), policy);

            // The next refit covers the same levels and fits the same
            // bits as a refit that never failed.
            let n_failed = failed.refit().unwrap();
            let n_clean = clean.refit().unwrap();
            assert_eq!(n_failed, cut.n_dirty());
            assert_eq!(n_failed, n_clean);
            assert!(models_identical(
                failed.model(),
                clean.model(),
                &clean.catalog
            ));
            assert_eq!(failed.table, clean.table);
            assert_eq!(failed.policy(), clean.policy());
            assert_eq!(failed.pending_actions(), 0);

            // And the two stay in step afterwards.
            for &a in &actions[3..] {
                assert_eq!(failed.ingest(a).unwrap(), clean.ingest(a).unwrap());
            }
            assert_eq!(failed.refit().unwrap(), clean.refit().unwrap());
            assert!(models_identical(
                failed.model(),
                clean.model(),
                &clean.catalog
            ));
        }
    }

    #[test]
    fn actions_recorded_after_a_cut_wait_for_the_next_refit() {
        let mut session = trained_session(RefitPolicy::Manual);
        session.ingest(Action::new(100, 0, 2)).unwrap();
        let cut = session.fit.cut();
        // An action recorded between cut and install: not in this fit.
        session.ingest(Action::new(101, 1, 2)).unwrap();
        let lambda = session.config.lambda;
        let (model, table) = cut
            .fit(
                &session.catalog,
                lambda,
                &ParallelConfig::sequential(),
                &session.table,
            )
            .unwrap();
        session.fit.install(model);
        session.table = table;
        assert_eq!(session.pending_actions(), 1);
        assert!(session.refit().unwrap() >= 1);
        // Once refit, the model is the exact fit of every recorded action.
        let (dataset, assignments) = grown(&session);
        let fresh = StatsGrid::build(&dataset, &assignments, 3)
            .unwrap()
            .fit_model_incremental(&dataset, lambda, &ParallelConfig::sequential(), None)
            .unwrap();
        assert!(models_identical(session.model(), &fresh, &dataset));
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
        assert_eq!(grown(&batched).1, grown(&single).1);
        assert!(models_identical(
            batched.model(),
            single.model(),
            &batched.catalog
        ));
    }

    #[test]
    fn invalid_actions_leave_session_unchanged() {
        let mut session = trained_session(RefitPolicy::EveryBatch);
        let before = session.snapshot("x").to_json().unwrap();
        // Unknown item.
        assert!(matches!(
            session.ingest(Action::new(100, 0, 99)),
            Err(CoreError::FeatureIndexOutOfBounds { index: 99, len: 3 })
        ));
        // Time regression for a known user (training data ends at t=11).
        assert_eq!(
            session.ingest(Action::new(-5, 0, 0)),
            Err(CoreError::UnsortedSequence {
                user: 0,
                position: 12
            })
        );
        assert_eq!(session.snapshot("x").to_json().unwrap(), before);
        assert_eq!(session.total_ingested(), 0);
        assert_eq!(session.pending_actions(), 0);
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
        assert_eq!(
            err.unwrap_err(),
            CoreError::InvalidLevelPath {
                user: 0,
                position: 1,
                level: 1,
                reason: "is below the level before it",
            }
        );
    }

    #[test]
    fn split_rejects_duplicate_users_and_bad_catalogs() {
        let ds = progression_dataset(2, 3, 2);
        let cfg = TrainConfig::new(2).with_min_init_actions(2);
        let paths = SkillAssignments {
            per_user: vec![vec![1, 1, 2]; 2],
        };
        let table = EmissionTable::build(&train(&ds, &cfg).unwrap().model, &ds);
        let twice: Vec<ActionSequence> = ds
            .sequences()
            .iter()
            .map(|seq| {
                ActionSequence::new(
                    0,
                    seq.actions()
                        .iter()
                        .map(|a| Action { user: 0, ..*a })
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let dup = ds.with_sequences(twice).unwrap();
        assert!(matches!(
            LiveUser::split(dup, paths.clone(), &table),
            Err(CoreError::DegenerateFit { .. })
        ));
        // A catalog tuple that bypassed construction is rejected by the
        // split's catalog check, before any user is built.
        let mut bad = ds.clone();
        bad.item_table_mut()
            .edit_rows(|rows| rows[1][0] = FeatureValue::Categorical(9));
        assert!(matches!(
            LiveUser::split(bad, paths.clone(), &table),
            Err(CoreError::CategoryOutOfBounds { value: 9, .. })
        ));
        let (catalog, users) = LiveUser::split(ds, paths, &table).unwrap();
        assert_eq!(catalog.n_users(), 0);
        assert_eq!(users.len(), 2);
        assert_eq!(users[1].0, 1);
        assert_eq!(users[1].1.committed_level(), Some(2));
        assert_eq!(users[1].1.n_actions(), 3);
    }

    /// A monotone path over `climbs.len()` actions from `start`: the
    /// action at `t > 0` climbs `climbs[t]` levels, up to `n_levels`.
    fn monotone_path(n_levels: SkillLevel, start: SkillLevel, climbs: &[u8]) -> Vec<SkillLevel> {
        let mut level = start.min(n_levels);
        let step = |(t, &climb): (usize, &u8)| {
            if t > 0 {
                level = (level + climb).min(n_levels);
            }
            level
        };
        climbs.iter().enumerate().map(step).collect()
    }

    /// One user of the round-trip property: `(item, time)` per action
    /// and the path.
    type Case = (Vec<(ItemId, Timestamp)>, Vec<SkillLevel>);

    proptest::proptest! {
        #[test]
        fn split_then_bundle_round_trips_random_monotone_paths(
            random in proptest::collection::vec(
                (
                    1..=4 as SkillLevel,
                    proptest::collection::vec((0..4 as ItemId, 0..3i64, 0..3u8), 0..10),
                ),
                0..8,
            ),
        ) {
            let n_levels = 4;
            let fixture = progression_dataset(8, 12, 4);
            let cfg = TrainConfig::new(4).with_min_init_actions(4);
            let result = train(&fixture, &cfg).unwrap();
            let seq = ParallelConfig::sequential();
            let (fit, table) = LiveFit::new(
                &fixture,
                &result.assignments,
                cfg,
                seq,
                RefitPolicy::Manual,
                None,
            )
            .unwrap();
            // Edge paths first: one action, never advancing, an advance
            // at position 1, one at the last action, paths reaching S,
            // an empty history and a climb of two levels at once.
            let edges: [&[SkillLevel]; 8] = [
                &[2],
                &[1, 1, 1, 1],
                &[1, 2, 2, 2],
                &[3, 3, 3, 4],
                &[1, 2, 3, 4],
                &[4, 4],
                &[],
                &[1, 3, 3],
            ];
            let mut cases: Vec<Case> = (edges.iter())
                .map(|path| {
                    let actions = (0..path.len()).map(|t| (t as ItemId % 4, t as i64)).collect();
                    (actions, path.to_vec())
                })
                .collect();
            for (start, actions) in &random {
                let climbs: Vec<u8> = actions.iter().map(|a| a.2).collect();
                let mut time = 0;
                let steps = (actions.iter())
                    .map(|&(item, dt, _)| {
                        time += dt;
                        (item, time)
                    })
                    .collect();
                cases.push((steps, monotone_path(n_levels, *start, &climbs)));
            }
            let sequences = (cases.iter().zip(0..))
                .map(|((steps, _), user)| {
                    let actions = steps.iter().map(|&(item, t)| Action::new(t, user, item));
                    ActionSequence::new(user, actions.collect()).unwrap()
                })
                .collect();
            let dataset = fixture.with_sequences(sequences).unwrap();
            let paths = SkillAssignments {
                per_user: cases.into_iter().map(|(_, path)| path).collect(),
            };
            let expected = SessionBundle {
                version: SessionBundle::VERSION,
                dataset: dataset.clone(),
                model: fit.model().clone(),
                assignments: paths.clone(),
                config: cfg,
                parallel: seq,
                policy: fit.policy(),
                note: "round trip".to_string(),
            };

            let (catalog, users) = LiveUser::split(dataset.clone(), paths.clone(), &table).unwrap();
            for ((user, live), (sequence, path)) in
                users.iter().zip(dataset.sequences().iter().zip(&paths.per_user))
            {
                proptest::prop_assert_eq!(*user, sequence.user);
                proptest::prop_assert_eq!(live.n_actions(), path.len());
                proptest::prop_assert!(live.items().eq(sequence.actions().iter().map(|a| a.item)));
                proptest::prop_assert_eq!(live.committed_level(), path.last().copied());
                // The warmed scores are a tracker's over the same actions.
                let mut tracker = OnlineTracker::new(n_levels.into()).unwrap();
                for action in sequence.actions() {
                    tracker
                        .observe(fit.model(), dataset.item_features(action.item))
                        .unwrap();
                }
                proptest::prop_assert_eq!(live.filtered_level(), tracker.current_level());
            }
            let bundle = session_bundle(
                &catalog,
                users.iter().map(|(user, live)| (*user, live)),
                &fit,
                cfg,
                seq,
                "round trip",
            );
            proptest::prop_assert_eq!(&bundle.assignments, &paths);
            proptest::prop_assert_eq!(bundle.to_json().unwrap(), expected.to_json().unwrap());
        }
    }
}
