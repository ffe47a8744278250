//! The concurrent multi-tenant serving front-end.
//!
//! # Architecture
//!
//! A [`SkillService`] splits the state a [`StreamingSession`] keeps in one
//! place into three concurrency domains, chosen so the hot read path
//! (predict, recommend) never waits on a refit:
//!
//! - **Per-user state** — one [`LiveUser`] (action history, committed
//!   level path as breakpoints, filtering scores) plus the adaptive
//!   [`PolicyState`], keyed by user id —
//!   lives in `N` *shards*, each behind its own mutex. A user's shard is
//!   a stable hash of their id, so two requests contend only when they
//!   touch users that hash together. Each shard mutex sits on cache
//!   lines of its own ([`CacheAligned`]), so locking one shard never
//!   invalidates a neighbour's line.
//! - **Model-fitting state** — one [`LiveFit`] (statistics grid, current
//!   model, refit policy and counters) plus the running level counts —
//!   lives behind one *global* mutex that ingestion and the two short
//!   steps of a refit take. A flag beside it mirrors
//!   [`LiveFit::refit_due`], so an ingest takes the global lock once to
//!   record its action and a second time only when a refit is due.
//! - **The read-mostly model** (the [`EmissionTable`] plus the per-item
//!   difficulty vector) lives in an [`EpochCell`] with one *read slot*
//!   per shard: a request clones its user's slot's handle on the current
//!   epoch and computes against it with no lock held; a refit publishes a
//!   replacement to every slot atomically. Requests on different shards
//!   therefore write no common cache line on the read path. A prediction
//!   in flight keeps its epoch alive through the handle even if a refit
//!   publishes mid-request.
//!
//! Lock order is `shard (ascending index) → global`; refits take only the
//! global lock; reads take only their one shard. No code path acquires
//! locks against that order, so the service cannot deadlock.
//!
//! # Refits: cut, fit, install
//!
//! A due refit runs on the first ingesting thread that checks the flag
//! after the record that made it due — usually that record's own
//! thread, but another writer whose check comes first runs it instead —
//! or on the thread that called [`SkillService::refit`]. The check reads
//! the flag without the lock, and the refit re-checks under the lock, so
//! two threads that both see the flag run one refit between them. A
//! refit runs in the three steps of the [`LiveFit`] rule:
//!
//! 1. **Cut**, under the global lock, only copies: [`LiveFit::cut`]
//!    takes the dirty grid rows and resets the pending count and the
//!    tuner; the running level counts are copied beside it.
//! 2. **Fit**, with no lock held: [`RefitCut::fit`] refits the dirty
//!    levels in a clone of the cut's model and refreshes those columns
//!    into a clone of the published table, then the difficulty vector is
//!    rebuilt from the cut's level counts.
//! 3. **Install** re-takes the global lock only to store the model and
//!    count the refit, drops it, then publishes the new [`ModelEpoch`].
//!
//! So ingests keep committing while the M-step runs. The rule is
//! *computed from the cut, visible at publish*: an ingest that lands
//! between cut and publish commits against the old epoch, as reads
//! already do, and counts toward the next refit.
//!
//! A flag in the global state marks a refit in flight from its cut until
//! after its publish, so at most one refit is in flight and epochs
//! publish in order. While it is set a due refit is deferred (counted in
//! [`ServeStats::refits_deferred`]) and an explicit
//! [`SkillService::refit`] returns `Ok(0)` without cutting; the thread
//! whose refit is in flight runs one more refit right after its publish
//! if any was deferred to it. A drop guard clears the flag on every
//! exit; if the refit failed or panicked after its cut, it first hands
//! the cut back ([`LiveFit::abandon`]), so the next refit covers the
//! same levels.
//!
//! # Bitwise equivalence with a single-owner session
//!
//! Driven single-threaded, a service is *bit-for-bit* the same state as
//! a [`StreamingSession`] fed the identical traffic (see
//! `tests/properties_serve.rs`), by construction. The per-user half is
//! the session's own [`LiveUser`]: the same split into catalog and users
//! ([`LiveUser::split`]), the same ingest rule ([`LiveUser::validate`],
//! then append or admit) and the same snapshot ([`session_bundle`]).
//! The model half is the session's own [`LiveFit`]: the same
//! construction ([`LiveFit::new`]), the same `+1` record
//! ([`LiveFit::record`]) and the same cut, fit and install, with the
//! same tuner step. A `LiveFit` has one mode, so this covers every
//! session that can be built, an EM-trained result's included: both
//! owners refit it from its hard decode. Single-threaded, nothing lands
//! between cut and publish. A refit reads only the feature *catalog* (schema + item
//! tuples), never the sequences, which is why the service refits against
//! the sequence-less catalog while the histories live sharded.
//!
//! [`StreamingSession`]: upskill_core::streaming::StreamingSession

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use upskill_core::assign::{assign_items_with_table_ws, AssignWorkspace};
use upskill_core::bundle::SessionBundle;
use upskill_core::difficulty::prior_from_counts;
use upskill_core::em::FbWorkspace;
use upskill_core::emission::EmissionTable;
use upskill_core::epoch::EpochCell;
use upskill_core::error::CoreError;
use upskill_core::parallel::ParallelConfig;
use upskill_core::policy::{
    rerank_band, PolicyConfig, PolicyMode, PolicyRecommendation, PolicyState,
};
use upskill_core::pool::WorkspacePool;
use upskill_core::recommend::{
    build_level_band, recommend_from_band, LevelBand, RecommendConfig, Recommendation,
};
use upskill_core::streaming::{
    commit_level, session_bundle, LiveFit, LiveUser, RefitCut, RefitPolicy, RefitTuner,
};
use upskill_core::sync::{CacheAligned, LockId, TracedFlag, TracedMutex};
use upskill_core::train::{TrainConfig, TrainResult};
use upskill_core::transition::TransitionModel;
use upskill_core::types::{Action, Dataset, ItemId, SkillAssignments, SkillLevel, UserId};

use crate::api::{IngestOutcome, OutcomeNoted, PredictMode, Prediction, ServeStats};
use crate::error::{Result, ServeError};

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// How many mutex-guarded session shards user state spreads over.
    /// More shards means less contention between users that act
    /// concurrently; one shard serializes everything (useful in tests).
    /// The published model has one read slot per shard.
    pub n_shards: usize,
    /// When ingestion triggers a dirty-level refit.
    pub policy: RefitPolicy,
    /// Optional auto-tuner adjusting an [`RefitPolicy::EveryNActions`]
    /// interval after every refit (see [`RefitTuner`]).
    pub tuner: Option<RefitTuner>,
    /// Scoring configuration for recommendation requests.
    pub recommend: RecommendConfig,
    /// Adaptive policy layer (teach/motivate/hybrid re-ranking over
    /// the cached bands). `None` serves the static recommender only;
    /// `Some` additionally tracks per-user [`PolicyState`] and answers
    /// [`SkillService::recommend_policy`] /
    /// [`SkillService::record_outcome`].
    pub adaptive: Option<PolicyConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            n_shards: 8,
            policy: RefitPolicy::EveryNActions(256),
            tuner: None,
            recommend: RecommendConfig::default(),
            adaptive: None,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_shards == 0 {
            return Err(ServeError::InvalidConfig {
                what: "n_shards",
                detail: "need at least one shard",
            });
        }
        self.recommend.validate()?;
        if let Some(adaptive) = &self.adaptive {
            adaptive.validate()?;
        }
        Ok(())
    }
}

/// One published model generation: the emission table every read and
/// level commitment scores against, plus the per-item generation
/// difficulty (Eq. 9) derived from it under the service's empirical
/// level prior. Immutable once published; replaced wholesale by refits.
///
/// Each epoch also lazily caches one recommendation [`LevelBand`] per
/// skill level — the full-catalog difficulty/interest scan is paid once
/// per `(epoch, level)` and every [`SkillService::recommend`] call at
/// that level filters the cached candidates instead of rescanning,
/// with bitwise-identical output (see
/// [`recommend_from_band`]).
// lint:allow(unused-pub): returned by `SkillService::current_epoch`.
#[derive(Debug, Clone)]
pub struct ModelEpoch {
    table: EmissionTable,
    difficulty: Vec<f64>,
    /// `bands[s - 1]` caches the level-`s` band; built on first use.
    bands: Vec<OnceLock<LevelBand>>,
}

impl ModelEpoch {
    fn new(table: EmissionTable, difficulty: Vec<f64>) -> Self {
        let n_levels = table.n_levels();
        Self {
            table,
            difficulty,
            bands: (0..n_levels).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The emission table of this generation.
    pub fn table(&self) -> &EmissionTable {
        &self.table
    }

    /// Generation difficulty per item under this generation's table.
    pub fn difficulty(&self) -> &[f64] {
        &self.difficulty
    }

    /// The cached recommendation band for `level` (1-based), building it
    /// from this epoch's table and difficulty on first use. A racing
    /// build is benign: both threads derive the identical band from the
    /// same immutable inputs and one result wins.
    pub fn band(&self, level: SkillLevel, config: &RecommendConfig) -> Result<&LevelBand> {
        let cell = self
            .bands
            .get((level as usize).wrapping_sub(1))
            .ok_or(ServeError::Core(CoreError::InvalidSkillCount {
                requested: level as usize,
            }))?;
        if let Some(band) = cell.get() {
            return Ok(band);
        }
        let built = build_level_band(&self.table, &self.difficulty, level, config)?;
        Ok(cell.get_or_init(|| built))
    }
}

/// Band caches are a derived view: epochs compare by table and
/// difficulty alone.
impl PartialEq for ModelEpoch {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.difficulty == other.difficulty
    }
}

/// Per-user serving state: the user's [`LiveUser`] record (action
/// history, committed monotone level path, filtering scores; 56 bytes
/// plus its heap) and — on adaptive-policy services — the per-user
/// [`PolicyState`], boxed so a non-adaptive service pays one null
/// pointer per user for it. Policy state is serving-layer-only: it
/// never enters snapshots, so the bitwise [`SessionBundle`] contract
/// with the streaming session is untouched by enabling the policy layer.
#[derive(Debug)]
struct UserState {
    live: LiveUser,
    policy: Option<Box<PolicyState>>,
}

/// One mutex-guarded slice of the user population.
#[derive(Debug, Default)]
struct Shard {
    users: HashMap<UserId, UserState>,
}

/// Model-fitting state; only ingestion and refits lock this.
#[derive(Debug)]
struct Global {
    fit: LiveFit,
    /// Refits that rewrote model state (clean refits don't count).
    refits: u64,
    /// Set from a refit's cut until after its publish; while set, due
    /// refits are deferred. Cleared when the refit lands
    /// ([`RefitInFlight::land`]).
    refit_in_flight: bool,
    /// Refits due (by policy or explicit call) but deferred because one
    /// was in flight.
    refits_deferred: u64,
    /// Committed actions per level (1-indexed levels at index `s-1`) —
    /// the running [`SkillAssignments::level_histogram`], maintained
    /// incrementally so refits can rebuild the empirical difficulty
    /// prior without walking the shards.
    level_counts: Vec<usize>,
    /// Every user in admission order: base-dataset users first (dataset
    /// order), then streamed-in users as first seen. This is the
    /// sequence order a single-owner session would have, which is what
    /// makes snapshots comparable bit for bit.
    admission: Vec<UserId>,
}

/// An in-process, thread-safe, multi-tenant serving front-end over a
/// trained upskill model.
///
/// See the [module docs](self) for the concurrency architecture and the
/// bitwise-equivalence contract with
/// [`StreamingSession`](upskill_core::streaming::StreamingSession). All methods
/// take `&self`; the service is `Send + Sync` and meant to be shared
/// across request threads behind an `Arc`.
#[derive(Debug)]
pub struct SkillService {
    /// Each shard's mutex on cache lines of its own, so requests on
    /// neighbouring shards never write a common line.
    shards: Vec<CacheAligned<TracedMutex<Shard>>>,
    global: TracedMutex<Global>,
    /// [`LiveFit::refit_due`] of the global state, mirrored under the
    /// global lock wherever it can change (the record, the cut, an
    /// abandoned cut), so an ingest checks for a due refit without
    /// taking the lock a second time.
    refit_due: CacheAligned<TracedFlag>,
    /// One read slot per shard: a request reads through its user's.
    epoch: EpochCell<ModelEpoch>,
    /// Sequence-less dataset (schema + item feature tuples) backing
    /// refits; see the module docs on why sequences never enter refits.
    catalog: Dataset,
    config: TrainConfig,
    parallel: ParallelConfig,
    recommend: RecommendConfig,
    adaptive: Option<PolicyConfig>,
    assign_pool: WorkspacePool<AssignWorkspace>,
    fb_pool: WorkspacePool<FbWorkspace>,
}

/// Stable shard hash (SplitMix64 finalizer): deterministic across runs
/// and processes so traffic replays shard identically.
fn shard_of(user: UserId, n_shards: usize) -> usize {
    let mut x = user as u64 ^ 0x9e37_79b9_7f4a_7c15;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as usize % n_shards
}

impl SkillService {
    /// Builds a service from a dataset and its committed assignments —
    /// the serving twin of [`StreamingSession::new`](upskill_core::streaming::StreamingSession::new), producing a
    /// bit-identical initial model, table, trackers, and difficulty.
    pub fn new(
        dataset: Dataset,
        assignments: SkillAssignments,
        config: TrainConfig,
        parallel: ParallelConfig,
        serve: ServeConfig,
    ) -> Result<Self> {
        serve.validate()?;
        // The session's own construction: the fit, then the catalog and
        // one live user per sequence.
        let (fit, table) = LiveFit::new(
            &dataset,
            &assignments,
            config,
            parallel,
            serve.policy,
            serve.tuner,
        )?;
        let level_counts = assignments.level_histogram(config.n_levels);
        let (catalog, users) = LiveUser::split(dataset, assignments, &table)?;

        let n_shards = serve.n_shards;
        let mut shards: Vec<Shard> = (0..n_shards).map(|_| Shard::default()).collect();
        let mut admission = Vec::with_capacity(users.len());
        for (user, live) in users {
            let policy = new_policy_state(config.n_levels, &serve.adaptive)?;
            shards[shard_of(user, n_shards)]
                .users
                .insert(user, UserState { live, policy });
            admission.push(user);
        }

        let difficulty = difficulty_from_counts(&table, &level_counts)?;
        let transitions = TransitionModel::uninformative(config.n_levels)?;
        let refit_due = CacheAligned(TracedFlag::new(fit.refit_due()));
        Ok(Self {
            shards: shards
                .into_iter()
                .enumerate()
                .map(|(i, s)| CacheAligned(TracedMutex::new(LockId::Shard(i as u32), s)))
                .collect(),
            global: TracedMutex::new(
                LockId::Global,
                Global {
                    fit,
                    refits: 0,
                    refit_in_flight: false,
                    refits_deferred: 0,
                    level_counts,
                    admission,
                },
            ),
            refit_due,
            epoch: EpochCell::new(ModelEpoch::new(table, difficulty), n_shards),
            catalog,
            config,
            parallel,
            recommend: serve.recommend,
            adaptive: serve.adaptive,
            assign_pool: WorkspacePool::new(AssignWorkspace::new),
            fb_pool: WorkspacePool::new(move || FbWorkspace::new(&transitions)),
        })
    }

    /// Builds a service from a completed training run — the serving twin
    /// of [`StreamingSession::resume`](upskill_core::streaming::StreamingSession::resume).
    pub fn resume(
        dataset: Dataset,
        result: &TrainResult,
        config: TrainConfig,
        parallel: ParallelConfig,
        serve: ServeConfig,
    ) -> Result<Self> {
        Self::new(dataset, result.assignments.clone(), config, parallel, serve)
    }

    /// Ingests one action — the serving twin of
    /// [`StreamingSession::ingest`](upskill_core::streaming::StreamingSession::ingest): commits a level by the constrained
    /// stay/advance extension rule, applies the `+1` statistics delta,
    /// advances the user's filtering tracker, then refits per the
    /// current policy. Unknown users are admitted with a fresh history;
    /// known users' actions must not move time backwards. On error the
    /// service state is unchanged.
    pub fn ingest(&self, action: Action) -> Result<IngestOutcome> {
        let outcome = self.ingest_inner(action)?;
        self.refit_per_policy()?;
        Ok(outcome)
    }

    /// Ingests a batch (each action as [`SkillService::ingest`]),
    /// deferring any policy-driven refit to the end of the batch. Fails
    /// fast on the first invalid action: earlier actions stay ingested,
    /// the offending and later ones do not.
    pub fn ingest_batch(&self, actions: &[Action]) -> Result<Vec<IngestOutcome>> {
        let mut outcomes = Vec::with_capacity(actions.len());
        for &action in actions {
            outcomes.push(self.ingest_inner(action)?);
        }
        self.refit_per_policy()?;
        Ok(outcomes)
    }

    /// The ingest rule of the streaming session
    /// ([`LiveUser::validate`], then append or admit) under the user's
    /// shard lock, then the `+1` record under the global lock; no
    /// refit. Every check runs before the first mutation.
    fn ingest_inner(&self, action: Action) -> Result<IngestOutcome> {
        let slot = self.shard(action.user);
        let (epoch, ep) = self.epoch.load_at(slot);
        let mut shard = self.shards[slot].lock();
        let known = shard.users.get_mut(&action.user);
        let ext = LiveUser::validate(known.as_ref().map(|s| &s.live), &action, &ep.table)?;
        // A completed (ingested) action is success evidence at the
        // item's difficulty; failures only ever arrive through
        // `record_outcome`, since a failed attempt never enters the
        // action sequence.
        let succeed = |policy: &mut Option<Box<PolicyState>>| {
            if let Some(policy) = policy.as_mut() {
                policy.record(action.item, ep.difficulty[action.item as usize], true);
            }
        };
        let is_new_user = known.is_none();
        match known {
            Some(state) => {
                state.live.append(action, &ext)?;
                succeed(&mut state.policy);
            }
            None => {
                let live = LiveUser::admit(action, &ext)?;
                let mut policy = new_policy_state(self.config.n_levels, &self.adaptive)?;
                succeed(&mut policy);
                shard.users.insert(action.user, UserState { live, policy });
            }
        }
        drop(shard);

        let mut g = self.global.lock();
        if is_new_user {
            g.admission.push(action.user);
        }
        g.fit.record(action.item, ext.level)?;
        g.level_counts[ext.level as usize - 1] += 1;
        self.mirror_refit_due(&g);
        Ok(IngestOutcome {
            user: action.user,
            level: ext.level,
            epoch,
        })
    }

    /// Refits the dirty levels now if the policy says so. Reads the
    /// mirrored flag without the global lock, so an ingest with no refit
    /// due takes that lock once; [`SkillService::refit_once`] re-checks
    /// under the lock.
    fn refit_per_policy(&self) -> Result<usize> {
        if !self.refit_due.get() {
            return Ok(0);
        }
        self.run_refit(false)
    }

    /// Mirrors [`LiveFit::refit_due`] into the lock-free flag; called
    /// with the global lock held, after each change to the fit's pending
    /// count or policy.
    fn mirror_refit_due(&self, g: &Global) {
        self.refit_due.set(g.fit.refit_due());
    }

    /// Refits model parameters from the accumulated statistics now,
    /// whatever the policy — the serving twin of
    /// [`StreamingSession::refit`](upskill_core::streaming::StreamingSession::refit). Touches only dirty levels, publishes
    /// a new [`ModelEpoch`] (predictions in flight keep reading the old
    /// one), and applies the auto-tuner adjustment if one is installed.
    /// Returns the number of levels refit.
    ///
    /// Does not wait for a refit already in flight on another thread:
    /// it returns `Ok(0)` without cutting and counts the request in
    /// [`ServeStats::refits_deferred`]; the thread running that refit
    /// runs one more as soon as it has published.
    pub fn refit(&self) -> Result<usize> {
        self.run_refit(true)
    }

    /// Runs a refit when `forced` or when the policy says one is due,
    /// then — on the same thread — one more for as long as a refit was
    /// deferred to the one that just published. Returns the number of
    /// levels the first refit fit.
    fn run_refit(&self, forced: bool) -> Result<usize> {
        let (n_dirty, mut deferred) = self.refit_once(forced)?;
        while deferred {
            deferred = self.refit_once(true)?.1;
        }
        Ok(n_dirty)
    }

    /// One refit by the [`LiveFit`] rule (module docs): the cut under the
    /// global lock, the fit with no lock held, the install under the lock
    /// again, then the publish with no lock held. Skipped when neither
    /// `forced` nor due, deferred when one is in flight; a clean cut
    /// publishes nothing. Returns the levels fit and whether another
    /// refit was deferred while this one was in flight.
    fn refit_once(&self, forced: bool) -> Result<(usize, bool)> {
        let mut g = self.global.lock();
        if !forced && !g.fit.refit_due() {
            return Ok((0, false));
        }
        if g.refit_in_flight {
            g.refits_deferred += 1;
            return Ok((0, false));
        }
        let cut = g.fit.cut();
        self.mirror_refit_due(&g);
        let n_dirty = cut.n_dirty();
        if n_dirty == 0 {
            return Ok((0, false));
        }
        let level_counts = g.level_counts.clone();
        let deferred_at_cut = g.refits_deferred;
        g.refit_in_flight = true;
        drop(g);
        let mut flight = RefitInFlight {
            service: self,
            cut: Some(&cut),
            deferred_at_cut,
            landed: false,
        };

        let published = self.epoch.load().1;
        let (model, table) = cut
            .fit(
                &self.catalog,
                self.config.lambda,
                &self.parallel,
                &published.table,
            )
            .map_err(ServeError::Core)?;
        drop(published);
        let difficulty = difficulty_from_counts(&table, &level_counts)?;

        let mut g = self.global.lock();
        g.fit.install(model);
        g.refits += 1;
        drop(g);
        flight.cut = None;
        self.epoch.publish(ModelEpoch::new(table, difficulty));
        Ok((n_dirty, flight.land()))
    }

    /// Reads a skill estimate for a known user. O(1) for
    /// [`PredictMode::Committed`] / [`PredictMode::Filtered`];
    /// history-length DP from a pooled workspace for
    /// [`PredictMode::Smoothed`] / [`PredictMode::Posterior`]. Never
    /// takes the global lock, so predictions proceed concurrently with
    /// refits against the last published epoch.
    pub fn predict(&self, user: UserId, mode: PredictMode) -> Result<Prediction> {
        let slot = self.shard(user);
        let (epoch, ep) = self.epoch.load_at(slot);
        let shard = self.shards[slot].lock();
        let state = shard
            .users
            .get(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let n_actions = state.live.n_actions();
        // Only a base-dataset user with an empty sequence has no level:
        // there is no evidence to estimate from.
        let committed = state
            .live
            .committed_level()
            .ok_or(ServeError::Core(CoreError::EmptyDataset))?;
        let (level, posterior) = match mode {
            PredictMode::Committed => (committed, None),
            PredictMode::Filtered => (state.live.filtered_level()?, None),
            PredictMode::Smoothed => {
                let items: Vec<ItemId> = state.live.items().collect();
                drop(shard);
                let mut ws = self.assign_pool.acquire();
                let assignment = assign_items_with_table_ws(&ep.table, &items, &mut ws)?;
                let last = assignment.levels.last().copied();
                (last.ok_or(ServeError::Core(CoreError::EmptyDataset))?, None)
            }
            PredictMode::Posterior => {
                let items: Vec<ItemId> = state.live.items().collect();
                drop(shard);
                let mut ws = self.fb_pool.acquire();
                ws.run_items(&ep.table, &items)?;
                let s = ep.table.n_levels();
                let last_row = &ws.gamma()[(items.len() - 1) * s..items.len() * s];
                // The most probable level, lowest on ties.
                (commit_level(last_row, None), Some(last_row.to_vec()))
            }
        };
        Ok(Prediction {
            user,
            level,
            n_actions,
            epoch,
            posterior,
        })
    }

    /// Upskilling recommendations for a known user at their committed
    /// level, excluding items already in their history. `k` overrides
    /// the configured result-list length. Reads only the published
    /// epoch's table and difficulty — never the global lock — and
    /// filters the epoch's cached per-level [`LevelBand`] instead of
    /// rescanning the catalog (identical output, amortized scan).
    pub fn recommend(&self, user: UserId, k: Option<usize>) -> Result<Vec<Recommendation>> {
        let slot = self.shard(user);
        let (_, ep) = self.epoch.load_at(slot);
        let shard = self.shards[slot].lock();
        let state = shard
            .users
            .get(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let level = state
            .live
            .committed_level()
            .ok_or(ServeError::Core(CoreError::EmptyDataset))?;
        let mut seen: Vec<ItemId> = state.live.items().collect();
        drop(shard);
        seen.sort_unstable();
        seen.dedup();
        let k = k.unwrap_or(self.recommend.k);
        let band = ep.band(level, &self.recommend)?;
        let exclude = |item| seen.binary_search(&item).is_ok();
        recommend_from_band(band, &exclude, k).map_err(ServeError::Core)
    }

    /// Adaptive (policy re-ranked) recommendations for a known user:
    /// the epoch's cached [`LevelBand`] at the user's committed level,
    /// re-scored against the user's [`PolicyState`] by
    /// [`rerank_band`]. Requires the service to be built with
    /// [`ServeConfig::adaptive`], and the requested `mode` must match
    /// the configured one. Items the user completed are excluded —
    /// except items whose most recent recorded outcome was a failure,
    /// which stay recommendable for retry.
    ///
    /// Like the static path this reads only the published epoch and
    /// the user's shard (policy state is cloned out from under the
    /// shard lock), so policy queries stay O(band) and never block —
    /// or wait on — a refit.
    pub fn recommend_policy(
        &self,
        user: UserId,
        k: Option<usize>,
        mode: PolicyMode,
    ) -> Result<Vec<PolicyRecommendation>> {
        let cfg = self.adaptive.ok_or(ServeError::PolicyDisabled)?;
        if mode != cfg.mode {
            return Err(ServeError::PolicyModeMismatch {
                requested: mode,
                configured: cfg.mode,
            });
        }
        let k = k.unwrap_or(self.recommend.k);
        if k == 0 {
            return Err(ServeError::BadRequest {
                what: "k",
                detail: "result-list length must be positive",
            });
        }
        let slot = self.shard(user);
        let (_, ep) = self.epoch.load_at(slot);
        let shard = self.shards[slot].lock();
        let state = shard
            .users
            .get(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let level = state
            .live
            .committed_level()
            .ok_or(ServeError::Core(CoreError::EmptyDataset))?;
        let seen: HashSet<ItemId> = state.live.items().collect();
        let policy = state
            .policy
            .as_deref()
            .ok_or(ServeError::MissingUserState {
                user,
                what: "policy state",
            })?
            .clone();
        drop(shard);
        let band = ep.band(level, &self.recommend)?;
        if band.is_empty() {
            return Err(ServeError::EmptyBand { level });
        }
        let exclude = |item: ItemId| seen.contains(&item) && !policy.has_failed(item);
        rerank_band(band, &policy, level, &exclude, &cfg, k).map_err(ServeError::Core)
    }

    /// Records an externally observed outcome into a known user's
    /// adaptive policy state, binning it at the item's difficulty
    /// under the current epoch. Completed actions are recorded as
    /// successes automatically on ingest; this method exists mainly to
    /// feed *failed* attempts, which never enter the action sequence
    /// (and therefore never move the committed level or the model
    /// statistics — rejection evidence lives purely in the policy
    /// layer).
    pub fn record_outcome(
        &self,
        user: UserId,
        item: ItemId,
        correct: bool,
    ) -> Result<OutcomeNoted> {
        if self.adaptive.is_none() {
            return Err(ServeError::PolicyDisabled);
        }
        let slot = self.shard(user);
        let (epoch, ep) = self.epoch.load_at(slot);
        let difficulty = *ep.difficulty.get(item as usize).ok_or(ServeError::Core(
            CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: ep.difficulty.len(),
            },
        ))?;
        let mut shard = self.shards[slot].lock();
        let state = shard
            .users
            .get_mut(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let policy = state.policy.as_mut().ok_or(ServeError::MissingUserState {
            user,
            what: "policy state",
        })?;
        policy.record(item, difficulty, correct);
        Ok(OutcomeNoted {
            user,
            item,
            correct,
            epoch,
        })
    }

    /// Takes a consistent snapshot of the whole service as a
    /// [`SessionBundle`] — bit-identical (including its JSON encoding)
    /// to [`StreamingSession::snapshot`](upskill_core::streaming::StreamingSession::snapshot) after the same traffic. Locks
    /// every shard (ascending) plus the global lock for the duration, so
    /// it is the one operation that pauses the world; resuming through
    /// [`SessionBundle::resume`] refits pending statistics freshly.
    pub fn snapshot(&self, note: &str) -> Result<SessionBundle> {
        let shards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
        // lint:allow(lock-order): audited stop-the-world snapshot path — all shards ascending, then global.
        let g = self.global.lock();
        let users = (g.admission.iter())
            .map(|&user| {
                let state = shards[self.shard(user)].users.get(&user);
                let state = state.ok_or(ServeError::MissingUserState {
                    user,
                    what: "shard record",
                })?;
                Ok((user, &state.live))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(session_bundle(
            &self.catalog,
            users,
            &g.fit,
            self.config,
            self.parallel,
            note,
        ))
    }

    /// Service-level counters; takes only the global lock.
    pub fn stats(&self) -> ServeStats {
        let g = self.global.lock();
        ServeStats {
            n_users: g.admission.len(),
            total_ingested: g.fit.total_ingested(),
            pending_actions: g.fit.pending_actions(),
            epoch: self.epoch.epoch(),
            refits: g.refits,
            refits_deferred: g.refits_deferred,
            n_shards: self.shards.len(),
            policy: g.fit.policy(),
            policy_mode: self.adaptive.map(|c| c.mode),
            pooled_assign_workspaces: self.assign_pool.available(),
            pooled_fb_workspaces: self.fb_pool.available(),
        }
    }

    /// The current published model epoch (sequence number and payload).
    pub fn current_epoch(&self) -> (u64, Arc<ModelEpoch>) {
        self.epoch.load()
    }

    /// The current refit policy (auto-tuning may move its interval).
    pub fn policy(&self) -> RefitPolicy {
        self.global.lock().fit.policy()
    }

    /// Which shard `user`'s state lives in — introspection for tests and
    /// operational tooling (e.g. attributing lock contention to tenants);
    /// the mapping is stable for a fixed shard count.
    pub fn shard_index(&self, user: UserId) -> usize {
        self.shard(user)
    }

    /// Which shard a user's state lives in.
    fn shard(&self, user: UserId) -> usize {
        shard_of(user, self.shards.len())
    }
}

/// Marks a refit in flight from its cut to after its publish.
/// [`RefitInFlight::land`] — or, on an error or panic, the drop —
/// re-takes the global lock and clears [`Global::refit_in_flight`], so
/// the service cannot wedge with the flag set. While it still holds the
/// cut (anything failed before the install), landing first hands the
/// cut back with [`LiveFit::abandon`].
///
/// Built only after the cut's guard is dropped: landing takes the
/// global lock.
struct RefitInFlight<'a> {
    service: &'a SkillService,
    cut: Option<&'a RefitCut>,
    /// [`Global::refits_deferred`] at the cut.
    deferred_at_cut: u64,
    landed: bool,
}

impl RefitInFlight<'_> {
    /// Clears the in-flight flag; returns whether a refit was deferred
    /// while it was set.
    fn land(&mut self) -> bool {
        self.landed = true;
        let mut g = self.service.global.lock();
        if let Some(cut) = self.cut.take() {
            g.fit.abandon(cut);
            self.service.mirror_refit_due(&g);
        }
        g.refit_in_flight = false;
        g.refits_deferred > self.deferred_at_cut
    }
}

impl Drop for RefitInFlight<'_> {
    fn drop(&mut self) {
        if !self.landed {
            self.land();
        }
    }
}

/// A new user's adaptive [`PolicyState`], or `None` on a static-only
/// service.
fn new_policy_state(
    n_levels: usize,
    adaptive: &Option<PolicyConfig>,
) -> Result<Option<Box<PolicyState>>> {
    adaptive
        .as_ref()
        .map(|cfg| PolicyState::new(n_levels, cfg).map(Box::new))
        .transpose()
        .map_err(ServeError::Core)
}

/// Per-item generation difficulty under the empirical level prior
/// ([`prior_from_counts`]) of the running level counts — computes exactly what
/// [`upskill_core::difficulty::generation_difficulty_all_with_table`]
/// with [`SkillPrior::Empirical`](upskill_core::difficulty::SkillPrior)
/// computes from full assignments, without needing them contiguous. Both
/// run one [`EmissionTable::expected_levels`] pass over the shared
/// row-posterior kernel.
fn difficulty_from_counts(table: &EmissionTable, counts: &[usize]) -> Result<Vec<f64>> {
    let prior = prior_from_counts(counts)?;
    table.expected_levels(&prior).map_err(ServeError::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use upskill_core::streaming::StreamingSession;
    use upskill_core::train::train;
    use upskill_core::types::ActionSequence;

    #[test]
    fn policy_state_costs_a_non_adaptive_user_one_pointer() {
        // A 56-byte live record plus the boxed policy state's pointer:
        // with its key, a 72-byte shard-map bucket.
        assert!(std::mem::size_of::<UserState>() <= 64);
    }

    /// Progression dataset mirroring the streaming-module test fixture:
    /// users move through item categories over time.
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

    fn service_and_session(
        policy: RefitPolicy,
        n_shards: usize,
    ) -> (SkillService, StreamingSession) {
        let ds = progression_dataset(8, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        let parallel = ParallelConfig::default();
        let service = SkillService::resume(
            ds.clone(),
            &result,
            cfg,
            parallel,
            ServeConfig {
                n_shards,
                policy,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let session = StreamingSession::resume(ds, &result, cfg, parallel, policy).unwrap();
        (service, session)
    }

    #[test]
    fn invalid_config_is_rejected() {
        let err = ServeConfig {
            n_shards: 0,
            ..ServeConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidConfig {
                what: "n_shards",
                ..
            }
        ));
    }

    #[test]
    fn ingest_matches_session_levels_bitwise() {
        let (service, mut session) = service_and_session(RefitPolicy::EveryBatch, 4);
        for t in 0..30i64 {
            let user = (t % 5) as UserId;
            let action = Action::new(100 + t, user, (t % 3) as ItemId);
            let expected = session.ingest(action).unwrap();
            let got = service.ingest(action).unwrap();
            assert_eq!(got.level, expected);
        }
        for user in 0..5u32 {
            let committed = service.predict(user, PredictMode::Committed).unwrap();
            assert_eq!(Some(committed.level), session.committed_level(user));
            let filtered = service.predict(user, PredictMode::Filtered).unwrap();
            assert_eq!(Some(filtered.level), session.filtered_level(user));
        }
    }

    #[test]
    fn ingest_batch_answers_each_action_and_refits_once_at_its_end() {
        let (service, mut session) = service_and_session(RefitPolicy::EveryBatch, 2);
        let actions = [Action::new(601, 1, 1), Action::new(602, 2, 2)];
        let outcomes = service.ingest_batch(&actions).unwrap();
        let levels = session.ingest_batch(&actions).unwrap();
        assert_eq!(outcomes.len(), 2);
        for ((outcome, action), level) in outcomes.iter().zip(&actions).zip(levels) {
            // Both scored against the epoch before the batch's refit.
            assert_eq!(
                (outcome.user, outcome.level, outcome.epoch),
                (action.user, level, 0)
            );
        }
        let stats = service.stats();
        assert_eq!(
            (stats.refits, stats.epoch, stats.pending_actions),
            (1, 1, 0)
        );
        assert_eq!(
            service.snapshot("batch").unwrap().to_json().unwrap(),
            session.snapshot("batch").to_json().unwrap()
        );
    }

    #[test]
    fn snapshot_round_trips_through_session_bundle() {
        let (service, mut session) = service_and_session(RefitPolicy::EveryNActions(7), 3);
        for t in 0..25i64 {
            // Mix known and brand-new users.
            let user = (t % 11) as UserId;
            let action = Action::new(200 + t, user, (t % 3) as ItemId);
            session.ingest(action).unwrap();
            service.ingest(action).unwrap();
        }
        let ours = service.snapshot("parity").unwrap();
        let theirs = session.snapshot("parity");
        assert_eq!(
            ours.to_json().unwrap(),
            theirs.to_json().unwrap(),
            "snapshot must be bit-identical to the single-owner session"
        );
    }

    #[test]
    fn unknown_user_and_backwards_time_are_rejected_without_mutation() {
        let (service, _) = service_and_session(RefitPolicy::Manual, 2);
        let err = service.predict(999, PredictMode::Committed).unwrap_err();
        assert!(matches!(err, ServeError::UnknownUser { user: 999 }));
        let err = service.recommend(999, None).unwrap_err();
        assert!(matches!(err, ServeError::UnknownUser { user: 999 }));

        let before = service.stats();
        // User 0's base history ends at t=11; moving backwards must fail.
        let err = service.ingest(Action::new(-5, 0, 0)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Core(CoreError::UnsortedSequence { user: 0, .. })
        ));
        // Unknown item.
        let err = service.ingest(Action::new(50, 0, 999)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Core(CoreError::FeatureIndexOutOfBounds { .. })
        ));
        assert_eq!(service.stats(), before, "rejection must not mutate state");
    }

    #[test]
    fn refit_publishes_new_epoch_and_predictions_keep_old_arc() {
        let (service, _) = service_and_session(RefitPolicy::Manual, 2);
        let (epoch0, ep0) = service.current_epoch();
        assert_eq!(epoch0, 0);
        for t in 0..10i64 {
            service.ingest(Action::new(300 + t, 3, 2)).unwrap();
        }
        let n = service.refit().unwrap();
        assert!(n > 0, "streamed actions must dirty at least one level");
        let (epoch1, ep1) = service.current_epoch();
        assert_eq!(epoch1, 1);
        assert_ne!(ep0.table(), ep1.table());
        // The old Arc stays fully usable — in-flight reads never see a
        // half-swapped table.
        assert_eq!(ep0.table().n_items(), ep1.table().n_items());
        let stats = service.stats();
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.pending_actions, 0);
    }

    #[test]
    fn refits_due_while_one_is_in_flight_are_deferred() {
        let (service, _) = service_and_session(RefitPolicy::EveryNActions(2), 2);
        // Another thread's refit is between its cut and its publish.
        service.global.lock().refit_in_flight = true;
        for t in 0..3i64 {
            service.ingest(Action::new(300 + t, 3, 2)).unwrap();
        }
        // The explicit refit returns without cutting or waiting.
        assert_eq!(service.refit().unwrap(), 0);
        let stats = service.stats();
        assert_eq!(
            stats.refits_deferred, 3,
            "two due ingests and one explicit refit"
        );
        assert_eq!(stats.pending_actions, 3, "deferred actions stay pending");
        assert_eq!((stats.refits, stats.epoch), (0, 0));

        // Landing that flight clears the flag and reports the deferred
        // requests, so its thread runs one more refit.
        let mut flight = RefitInFlight {
            service: &service,
            cut: None,
            deferred_at_cut: 0,
            landed: false,
        };
        assert!(flight.land());
        drop(flight);
        assert!(!service.global.lock().refit_in_flight);
        assert_eq!(service.refit().unwrap(), 1);
        let stats = service.stats();
        assert_eq!(
            (stats.refits, stats.epoch, stats.pending_actions),
            (1, 1, 0)
        );
        assert_eq!(stats.refits_deferred, 3);
    }

    #[test]
    fn a_refit_made_due_by_one_writer_runs_on_the_next_writer_to_check() {
        let (service, _) = service_and_session(RefitPolicy::EveryNActions(1), 2);
        let (twin, _) = service_and_session(RefitPolicy::EveryNActions(1), 2);
        let (a, b) = (Action::new(300, 3, 2), Action::new(300, 4, 1));
        // Writer A records, and the record makes a refit due; A has not
        // checked the flag yet.
        service.ingest_inner(a).unwrap();
        assert!(service.refit_due.get());
        // Writer B's ingest, on another thread: its check finds the
        // flag set and runs the refit, covering both records.
        std::thread::scope(|scope| {
            scope.spawn(|| service.ingest(b).unwrap()).join().unwrap();
        });
        let stats = service.stats();
        assert_eq!(
            (stats.refits, stats.epoch, stats.pending_actions),
            (1, 1, 0)
        );
        assert!(!service.refit_due.get());
        // A's own check then finds nothing due.
        assert_eq!(service.refit_per_policy().unwrap(), 0);
        assert_eq!(service.stats(), stats);
        // The same state as both actions in one batch: one refit after
        // both records.
        twin.ingest_batch(&[a, b]).unwrap();
        assert_eq!(
            service.snapshot("flag").unwrap().to_json().unwrap(),
            twin.snapshot("flag").unwrap().to_json().unwrap()
        );
        assert_eq!(*service.current_epoch().1, *twin.current_epoch().1);
    }

    #[cfg(feature = "deterministic-sync")]
    #[test]
    fn an_ingest_with_no_refit_due_takes_the_global_lock_once() {
        use upskill_core::sync::explore::Explorer;
        // Per ingest under `EveryNActions(2)`: the first records only;
        // the second records, finds the flag set and refits (cut,
        // install, land: three more holds).
        let (service, _) = service_and_session(RefitPolicy::EveryNActions(2), 2);
        let service = Arc::new(service);
        for (t, global) in [(0, 1), (1, 4), (2, 1)] {
            let svc = Arc::clone(&service);
            let report = Explorer::exhaustive(1).explore(move |run| {
                let svc = Arc::clone(&svc);
                run.thread(move || {
                    svc.ingest(Action::new(300 + t, 3, 2)).unwrap();
                });
                run.join();
            });
            assert!(report.exhausted && report.violations.is_empty());
            assert_eq!(report.acquisitions.get(&LockId::Global), Some(&global));
            assert_eq!(
                report
                    .acquisitions
                    .get(&LockId::Shard(service.shard(3) as u32)),
                Some(&1)
            );
        }
        assert_eq!(service.stats().refits, 1);
    }

    #[test]
    fn a_refit_that_panics_after_its_cut_leaves_the_service_usable() {
        let (service, _) = service_and_session(RefitPolicy::Manual, 2);
        let (twin, _) = service_and_session(RefitPolicy::Manual, 2);
        for t in 0..5i64 {
            let action = Action::new(300 + t, (t % 3) as UserId, (t % 3) as ItemId);
            service.ingest(action).unwrap();
            twin.ingest(action).unwrap();
        }
        // The cut step by hand, then a panic inside the fit step.
        let mut g = service.global.lock();
        let cut = g.fit.cut();
        g.refit_in_flight = true;
        drop(g);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _flight = RefitInFlight {
                service: &service,
                cut: Some(&cut),
                deferred_at_cut: 0,
                landed: false,
            };
            panic!("refit fit step failed");
        }));
        assert!(unwound.is_err());
        let stats = service.stats();
        assert!(!service.global.lock().refit_in_flight);
        assert_eq!(
            (stats.refits, stats.epoch, stats.pending_actions),
            (0, 0, 5)
        );

        // The next refit covers the same levels and publishes the same
        // model as one that never failed.
        let n = service.refit().unwrap();
        assert_eq!(n, cut.n_dirty());
        assert_eq!(n, twin.refit().unwrap());
        assert_eq!(
            service.snapshot("after").unwrap().to_json().unwrap(),
            twin.snapshot("after").unwrap().to_json().unwrap()
        );
        assert_eq!(*service.current_epoch().1, *twin.current_epoch().1);
        assert_eq!(service.stats(), twin.stats());
    }

    #[test]
    fn tuner_evolves_policy_identically_to_session() {
        let tuner = RefitTuner::new(1, 1, 64).unwrap();
        let (service, mut session) = {
            let ds = progression_dataset(6, 10, 3);
            let cfg = TrainConfig::new(3).with_min_init_actions(4);
            let result = train(&ds, &cfg).unwrap();
            let parallel = ParallelConfig::default();
            let policy = RefitPolicy::EveryNActions(4);
            let service = SkillService::resume(
                ds.clone(),
                &result,
                cfg,
                parallel,
                ServeConfig {
                    n_shards: 3,
                    policy,
                    tuner: Some(tuner),
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let mut session = StreamingSession::resume(ds, &result, cfg, parallel, policy).unwrap();
            session.set_tuner(Some(tuner));
            (service, session)
        };
        for t in 0..40i64 {
            let action = Action::new(400 + t, (t % 4) as UserId, (t % 3) as ItemId);
            session.ingest(action).unwrap();
            service.ingest(action).unwrap();
        }
        assert_eq!(service.policy(), session.policy());
    }

    #[test]
    fn smoothed_and_posterior_predictions_read_pooled_workspaces() {
        let (service, _) = service_and_session(RefitPolicy::EveryBatch, 2);
        let smoothed = service.predict(0, PredictMode::Smoothed).unwrap();
        assert!((1..=3).contains(&smoothed.level));
        let posterior = service.predict(0, PredictMode::Posterior).unwrap();
        let dist = posterior
            .posterior
            .expect("posterior mode carries the distribution");
        assert_eq!(dist.len(), 3);
        let sum: f64 = dist.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "posterior must normalize, got {sum}"
        );
        // Workspaces returned to their pools.
        let stats = service.stats();
        assert_eq!(stats.pooled_assign_workspaces, 1);
        assert_eq!(stats.pooled_fb_workspaces, 1);
    }

    #[test]
    fn recommend_excludes_seen_items_and_honors_k() {
        // A slack band wide enough that every unseen item is in range —
        // this test is about exclusion and truncation, not the band.
        let ds = progression_dataset(8, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        let service = SkillService::resume(
            ds,
            &result,
            cfg,
            ParallelConfig::default(),
            ServeConfig {
                n_shards: 1,
                policy: RefitPolicy::Manual,
                recommend: RecommendConfig {
                    lower_slack: 10.0,
                    upper_slack: 10.0,
                    ..RecommendConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // User 0 has seen every item in the 3-item catalog, so nothing
        // is left to recommend.
        let recs = service.recommend(0, None).unwrap();
        assert!(recs.is_empty());
        // A fresh user who has only seen item 0 can be recommended the
        // other two — and k=1 truncates.
        service.ingest(Action::new(500, 77, 0)).unwrap();
        let recs = service.recommend(77, None).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.item != 0));
        let one = service.recommend(77, Some(1)).unwrap();
        assert_eq!(one.len(), 1);
        // The epoch's cached band must reproduce the full catalog scan
        // bit for bit (user 77's history is exactly {item 0}).
        let (_, ep) = service.current_epoch();
        let level = service.predict(77, PredictMode::Committed).unwrap().level;
        let direct = upskill_core::recommend::recommend_for_level_with_table(
            ep.table(),
            ep.difficulty(),
            level,
            &|item| item == 0,
            &RecommendConfig {
                lower_slack: 10.0,
                upper_slack: 10.0,
                ..RecommendConfig::default()
            },
        )
        .unwrap();
        assert_eq!(recs, direct);
    }

    /// Adaptive service over the progression fixture with a band wide
    /// enough to hold every difficulty stratum.
    fn adaptive_service(mode: PolicyConfig) -> SkillService {
        let ds = progression_dataset(8, 12, 3);
        let cfg = TrainConfig::new(3).with_min_init_actions(4);
        let result = train(&ds, &cfg).unwrap();
        SkillService::resume(
            ds,
            &result,
            cfg,
            ParallelConfig::default(),
            ServeConfig {
                n_shards: 2,
                policy: RefitPolicy::Manual,
                recommend: RecommendConfig {
                    lower_slack: 10.0,
                    upper_slack: 10.0,
                    ..RecommendConfig::default()
                },
                adaptive: Some(mode),
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn policy_recommendations_rerank_the_cached_band() {
        let service = adaptive_service(PolicyConfig::hybrid());
        service.ingest(Action::new(500, 77, 0)).unwrap();
        let recs = service
            .recommend_policy(77, Some(2), PolicyMode::Hybrid)
            .unwrap();
        assert!(!recs.is_empty() && recs.len() <= 2);
        // Item 0 was completed (and not failed): excluded.
        assert!(recs.iter().all(|r| r.item != 0));
        // Single-threaded determinism: identical query, identical bits.
        let again = service
            .recommend_policy(77, Some(2), PolicyMode::Hybrid)
            .unwrap();
        assert_eq!(recs, again);
        assert_eq!(service.stats().policy_mode, Some(PolicyMode::Hybrid));
    }

    #[test]
    fn failed_items_stay_recommendable_for_retry() {
        let service = adaptive_service(PolicyConfig::hybrid());
        service.ingest(Action::new(500, 77, 0)).unwrap();
        service.ingest(Action::new(501, 77, 1)).unwrap();
        let before = service
            .recommend_policy(77, Some(3), PolicyMode::Hybrid)
            .unwrap();
        assert!(before.iter().all(|r| r.item != 1));
        // A recorded failure on completed item 1 reopens it for retry
        // (and shifts the ranking through the gap/NCC evidence).
        let noted = service.record_outcome(77, 1, false).unwrap();
        assert_eq!(
            noted,
            OutcomeNoted {
                user: 77,
                item: 1,
                correct: false,
                epoch: 0,
            }
        );
        let after = service
            .recommend_policy(77, Some(3), PolicyMode::Hybrid)
            .unwrap();
        assert!(
            after.iter().any(|r| r.item == 1),
            "failed item must be retryable: {after:?}"
        );
    }

    #[test]
    fn huge_k_is_served_as_the_whole_band() {
        // A hostile `k` must cost what the band costs, never an
        // allocation sized from the request.
        let service = adaptive_service(PolicyConfig::hybrid());
        service.ingest(Action::new(500, 77, 0)).unwrap();
        let level = service.predict(77, PredictMode::Committed).unwrap().level;
        let (_, ep) = service.current_epoch();
        let band_len = ep.band(level, &service.recommend).unwrap().len();
        let huge = service
            .recommend_policy(77, Some(usize::MAX), PolicyMode::Hybrid)
            .unwrap();
        let whole = service
            .recommend_policy(77, Some(band_len), PolicyMode::Hybrid)
            .unwrap();
        assert_eq!(huge, whole);
        let huge = service.recommend(77, Some(usize::MAX)).unwrap();
        assert_eq!(huge, service.recommend(77, Some(band_len)).unwrap());
    }

    #[test]
    fn policy_requests_are_rejected_with_typed_errors() {
        // Disabled service: both policy entry points refuse.
        let (plain, _) = service_and_session(RefitPolicy::Manual, 2);
        assert!(matches!(
            plain.recommend_policy(0, None, PolicyMode::Hybrid),
            Err(ServeError::PolicyDisabled)
        ));
        assert!(matches!(
            plain.record_outcome(0, 0, false),
            Err(ServeError::PolicyDisabled)
        ));
        assert_eq!(plain.stats().policy_mode, None);

        let service = adaptive_service(PolicyConfig::hybrid());
        // Unknown user.
        assert!(matches!(
            service.recommend_policy(999, None, PolicyMode::Hybrid),
            Err(ServeError::UnknownUser { user: 999 })
        ));
        assert!(matches!(
            service.record_outcome(999, 0, true),
            Err(ServeError::UnknownUser { user: 999 })
        ));
        // Mode mismatch.
        assert!(matches!(
            service.recommend_policy(0, None, PolicyMode::Teach),
            Err(ServeError::PolicyModeMismatch {
                requested: PolicyMode::Teach,
                configured: PolicyMode::Hybrid,
            })
        ));
        // k = 0.
        assert!(matches!(
            service.recommend_policy(0, Some(0), PolicyMode::Hybrid),
            Err(ServeError::BadRequest { what: "k", .. })
        ));
        // Unknown item in an outcome.
        assert!(matches!(
            service.record_outcome(0, 999, false),
            Err(ServeError::Core(CoreError::FeatureIndexOutOfBounds { .. }))
        ));
    }

    #[test]
    fn concurrent_reads_and_refits_never_tear() {
        let (service, _) = service_and_session(RefitPolicy::Manual, 4);
        let service = Arc::new(service);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for reader in 0..3u32 {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..300 {
                    let p = service
                        .predict(reader, PredictMode::Committed)
                        .expect("known user");
                    assert!((1..=3).contains(&p.level));
                    service.recommend(reader, Some(2)).expect("known user");
                }
            }));
        }
        // Writer: ingest to disjoint users and refit repeatedly while
        // the readers hammer predictions against the epoch pointer.
        barrier.wait();
        for t in 0..200i64 {
            let user = 4 + (t % 4) as UserId;
            service
                .ingest(Action::new(700 + t, user, (t % 3) as ItemId))
                .unwrap();
            if t % 20 == 19 {
                service.refit().unwrap();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(service.stats().refits > 0);
    }
}
