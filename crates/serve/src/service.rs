//! The concurrent multi-tenant serving front-end.
//!
//! # Architecture
//!
//! A [`SkillService`] splits the state a [`StreamingSession`] keeps in one
//! place into three concurrency domains, chosen so the hot read path
//! (predict, recommend) never waits on a refit:
//!
//! - **Per-user state** (action history, committed level path, filtering
//!   tracker) lives in `N` *shards*, each behind its own mutex. A user's
//!   shard is a stable hash of their id, so two requests contend only
//!   when they touch users that hash together.
//! - **Model-fitting state** — one [`LiveFit`] (statistics grid, current
//!   model, refit policy and counters) plus the running level counts —
//!   lives behind one *global* mutex that only ingestion and refits ever
//!   take.
//! - **The read-mostly model** (the [`EmissionTable`] plus the per-item
//!   difficulty vector) lives in an [`EpochCell`]: readers clone an `Arc`
//!   to the current epoch and compute against it lock-free; a refit
//!   builds the replacement table *off to the side* (cloning the current
//!   one and refreshing only dirty columns) and publishes it atomically.
//!   A prediction in flight keeps its epoch alive through the `Arc` even
//!   if a refit publishes mid-request.
//!
//! Lock order is `shard (ascending index) → global`; refits take only the
//! global lock; reads take only their one shard. No code path acquires
//! locks against that order, so the service cannot deadlock.
//!
//! # Bitwise equivalence with a single-owner session
//!
//! Driven single-threaded, a service is *bit-for-bit* the same model as a
//! [`StreamingSession`] fed the identical traffic (see
//! `tests/properties_serve.rs`). Both commit levels by [`commit_level`]
//! and fit through a [`LiveFit`]: the same construction
//! ([`LiveFit::new`]), the same `+1` record ([`LiveFit::record`]) and the
//! same dirty-level refit and tuner step ([`LiveFit::refit`]). A refit
//! reads only the feature *catalog* (schema + item tuples), never the
//! sequences, which is why the service refits against a sequence-less
//! catalog dataset while the histories live sharded.
//!
//! [`StreamingSession`]: upskill_core::streaming::StreamingSession

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use upskill_core::assign::{assign_items_with_table_ws, AssignWorkspace};
use upskill_core::bundle::{SessionBundle, SESSION_BUNDLE_VERSION};
use upskill_core::em::FbWorkspace;
use upskill_core::emission::EmissionTable;
use upskill_core::epoch::EpochCell;
use upskill_core::error::CoreError;
use upskill_core::invariants::InvariantCtx;
use upskill_core::online::OnlineTracker;
use upskill_core::parallel::ParallelConfig;
use upskill_core::policy::{
    rerank_band, PolicyConfig, PolicyMode, PolicyRecommendation, PolicyState,
};
use upskill_core::pool::WorkspacePool;
use upskill_core::recommend::{
    build_level_band, recommend_from_band, LevelBand, RecommendConfig, Recommendation,
};
use upskill_core::streaming::{commit_level, LiveFit, RefitPolicy, RefitTuner};
use upskill_core::sync::{LockId, TracedMutex};
use upskill_core::train::{TrainConfig, TrainResult};
use upskill_core::transition::TransitionModel;
use upskill_core::types::{
    Action, ActionSequence, Dataset, ItemId, SkillAssignments, SkillLevel, UserId,
};

use crate::api::{
    IngestOutcome, OutcomeNoted, PredictMode, Prediction, Request, Response, ServeStats,
};
use crate::error::{Result, ServeError};

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// How many mutex-guarded session shards user state spreads over.
    /// More shards means less contention between users that act
    /// concurrently; one shard serializes everything (useful in tests).
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
    /// [`Request::RecommendPolicy`] / [`Request::RecordOutcome`].
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
        let built = build_level_band(&self.table, &self.difficulty, level, config)
            .map_err(ServeError::Core)?;
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

/// Per-user serving state: the full action history, the committed
/// monotone level path, the O(1) filtering tracker, and — on
/// adaptive-policy services — the per-user [`PolicyState`]. Policy
/// state is serving-layer-only: it never enters snapshots, so the
/// bitwise [`SessionBundle`] contract with the streaming session is
/// untouched by enabling the policy layer.
#[derive(Debug)]
struct UserState {
    actions: Vec<Action>,
    levels: Vec<SkillLevel>,
    tracker: OnlineTracker,
    policy: Option<PolicyState>,
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
    shards: Vec<TracedMutex<Shard>>,
    global: TracedMutex<Global>,
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
        // The session's own construction pipeline, then one tracker per
        // user warmed by replay.
        let (fit, table) = LiveFit::new(
            &dataset,
            &assignments,
            config,
            parallel,
            serve.policy,
            serve.tuner,
        )
        .map_err(ServeError::Core)?;

        let n_shards = serve.n_shards;
        let mut shards: Vec<Shard> = (0..n_shards).map(|_| Shard::default()).collect();
        let mut admission = Vec::with_capacity(dataset.n_users());
        for (u, seq) in dataset.sequences().iter().enumerate() {
            let mut tracker = OnlineTracker::new(config.n_levels).map_err(ServeError::Core)?;
            for action in seq.actions() {
                tracker
                    .observe_item(&table, action.item)
                    .map_err(ServeError::Core)?;
            }
            let policy = match &serve.adaptive {
                Some(cfg) => {
                    Some(PolicyState::new(config.n_levels, cfg).map_err(ServeError::Core)?)
                }
                None => None,
            };
            let state = UserState {
                actions: seq.actions().to_vec(),
                levels: assignments.per_user[u].clone(),
                tracker,
                policy,
            };
            let shard = &mut shards[shard_of(seq.user, n_shards)];
            if shard.users.insert(seq.user, state).is_some() {
                return Err(ServeError::Core(CoreError::DegenerateFit {
                    distribution: "skill service",
                    reason: "dataset contains two sequences for one user id",
                }));
            }
            admission.push(seq.user);
        }

        let level_counts = assignments.level_histogram(config.n_levels);
        let difficulty = difficulty_from_counts(&table, &level_counts)?;
        let catalog = Dataset::new(
            dataset.schema().clone(),
            dataset.items().to_vec(),
            Vec::new(),
        )
        .map_err(ServeError::Core)?;
        let n_levels = config.n_levels;
        Ok(Self {
            shards: shards
                .into_iter()
                .enumerate()
                .map(|(i, s)| TracedMutex::new(LockId::Shard(i as u32), s))
                .collect(),
            global: TracedMutex::new(
                LockId::Global,
                Global {
                    fit,
                    refits: 0,
                    level_counts,
                    admission,
                },
            ),
            epoch: EpochCell::new(ModelEpoch::new(table, difficulty)),
            catalog,
            config,
            parallel,
            recommend: serve.recommend,
            adaptive: serve.adaptive,
            assign_pool: WorkspacePool::new(AssignWorkspace::new),
            fb_pool: WorkspacePool::new(move || {
                let transitions = TransitionModel::uninformative(n_levels)
                    .expect("n_levels validated at construction");
                FbWorkspace::new(&transitions)
            }),
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

    /// Rehydrates a service from a [`SessionBundle`] snapshot. The
    /// bundle's stored training/parallel configuration and refit policy
    /// win over `serve.policy` (matching [`SessionBundle::resume`]); the
    /// rest of `serve` (shards, tuner, recommendation scoring) applies
    /// as given.
    pub fn from_bundle(bundle: SessionBundle, serve: ServeConfig) -> Result<Self> {
        bundle.validate().map_err(ServeError::Core)?;
        let SessionBundle {
            dataset,
            assignments,
            config,
            parallel,
            policy,
            ..
        } = bundle;
        Self::new(
            dataset,
            assignments,
            config,
            parallel,
            ServeConfig { policy, ..serve },
        )
    }

    /// Answers one typed [`Request`]; the enum front-end over the typed
    /// methods, e.g. for callers that deserialize requests.
    pub fn handle(&self, request: Request) -> Result<Response> {
        match request {
            Request::Ingest(action) => self.ingest(action).map(Response::Ingested),
            Request::IngestBatch(actions) => {
                self.ingest_batch(&actions).map(Response::IngestedBatch)
            }
            Request::Predict { user, mode } => self.predict(user, mode).map(Response::Prediction),
            Request::Recommend { user, k } => {
                self.recommend(user, k).map(Response::Recommendations)
            }
            Request::RecommendPolicy { user, k, mode } => self
                .recommend_policy(user, k, mode)
                .map(Response::PolicyRecommendations),
            Request::RecordOutcome {
                user,
                item,
                correct,
            } => self
                .record_outcome(user, item, correct)
                .map(Response::OutcomeRecorded),
            Request::Snapshot { note } => self
                .snapshot(&note)
                .map(|b| Response::Snapshot(Box::new(b))),
            Request::Stats => Ok(Response::Stats(self.stats())),
        }
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

    /// The commitment + bookkeeping core of ingestion; no refit. All
    /// fallible validation runs before the first mutation.
    fn ingest_inner(&self, action: Action) -> Result<IngestOutcome> {
        let (epoch, ep) = self.epoch.load();
        let row = ep.table.checked_row(action.item).ok_or(ServeError::Core(
            CoreError::FeatureIndexOutOfBounds {
                index: action.item as usize,
                len: ep.table.n_items(),
            },
        ))?;
        let mut shard = self.shards[self.shard(action.user)].lock();
        let known = shard.users.get(&action.user);
        if let Some(state) = known {
            if let Some(last) = state.actions.last() {
                if action.time < last.time {
                    return Err(ServeError::Core(CoreError::UnsortedSequence {
                        user: action.user,
                        position: state.actions.len(),
                    }));
                }
            }
        }
        // Constrained extension of the committed monotone path, by the
        // streaming session's own rule.
        let last = known.and_then(|s| s.levels.last().copied());
        let level = commit_level(row, last);
        InvariantCtx::new()
            .check_extension("serving ingest", last, level)
            .map_err(ServeError::Core)?;
        let is_new_user = known.is_none();
        if is_new_user {
            // Fallible construction before any mutation.
            let tracker = OnlineTracker::new(self.config.n_levels).map_err(ServeError::Core)?;
            let policy = match &self.adaptive {
                Some(cfg) => {
                    Some(PolicyState::new(self.config.n_levels, cfg).map_err(ServeError::Core)?)
                }
                None => None,
            };
            shard.users.insert(
                action.user,
                UserState {
                    actions: Vec::new(),
                    levels: Vec::new(),
                    tracker,
                    policy,
                },
            );
        }
        let state = shard
            .users
            .get_mut(&action.user)
            .expect("inserted or known above");
        state.actions.push(action);
        state.levels.push(level);
        state
            .tracker
            .observe_item(&ep.table, action.item)
            .map_err(ServeError::Core)?;
        // A completed (ingested) action is success evidence at the
        // item's difficulty; failures only ever arrive through
        // `record_outcome`, since a failed attempt never enters the
        // action sequence.
        if let Some(policy) = state.policy.as_mut() {
            policy.record(action.item, ep.difficulty[action.item as usize], true);
        }
        drop(shard);

        let mut g = self.global.lock();
        if is_new_user {
            g.admission.push(action.user);
        }
        g.fit
            .record(action.item, level, row, last)
            .map_err(ServeError::Core)?;
        g.level_counts[level as usize - 1] += 1;
        Ok(IngestOutcome {
            user: action.user,
            level,
            epoch,
        })
    }

    /// Refits the dirty levels now if the policy says so.
    fn refit_per_policy(&self) -> Result<usize> {
        let mut g = self.global.lock();
        if g.fit.refit_due() {
            self.refit_locked(&mut g)
        } else {
            Ok(0)
        }
    }

    /// Refits model parameters from the accumulated statistics now,
    /// whatever the policy — the serving twin of
    /// [`StreamingSession::refit`](upskill_core::streaming::StreamingSession::refit). Touches only dirty levels, publishes
    /// a new [`ModelEpoch`] (predictions in flight keep reading the old
    /// one), and applies the auto-tuner adjustment if one is installed.
    /// Returns the number of levels refit.
    pub fn refit(&self) -> Result<usize> {
        let mut g = self.global.lock();
        self.refit_locked(&mut g)
    }

    /// The [`LiveFit::refit`] rule under the held global lock. The
    /// replacement table is built off to the side — a clone of the
    /// published epoch's table, taken only when some level is dirty —
    /// and readers keep scoring against the old epoch until the atomic
    /// publish below. A clean refit publishes nothing.
    fn refit_locked(&self, g: &mut Global) -> Result<usize> {
        let (n_dirty, table) = g
            .fit
            .refit(&self.catalog, self.config.lambda, &self.parallel, || {
                self.epoch.load().1.table.clone()
            })
            .map_err(ServeError::Core)?;
        if let Some(table) = table {
            let difficulty = difficulty_from_counts(&table, &g.level_counts)?;
            self.epoch.publish(ModelEpoch::new(table, difficulty));
            g.refits += 1;
        }
        Ok(n_dirty)
    }

    /// Reads a skill estimate for a known user. O(1) for
    /// [`PredictMode::Committed`] / [`PredictMode::Filtered`];
    /// history-length DP from a pooled workspace for
    /// [`PredictMode::Smoothed`] / [`PredictMode::Posterior`]. Never
    /// takes the global lock, so predictions proceed concurrently with
    /// refits against the last published epoch.
    pub fn predict(&self, user: UserId, mode: PredictMode) -> Result<Prediction> {
        let (epoch, ep) = self.epoch.load();
        let shard = self.shards[self.shard(user)].lock();
        let state = shard
            .users
            .get(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let n_actions = state.actions.len();
        if n_actions == 0 {
            // Only reachable for a base-dataset user with an empty
            // sequence: there is no evidence to estimate from.
            return Err(ServeError::Core(CoreError::EmptyDataset));
        }
        let (level, posterior) = match mode {
            PredictMode::Committed => (*state.levels.last().expect("n_actions > 0"), None),
            PredictMode::Filtered => (
                state.tracker.current_level().map_err(ServeError::Core)?,
                None,
            ),
            PredictMode::Smoothed => {
                let items: Vec<ItemId> = state.actions.iter().map(|a| a.item).collect();
                drop(shard);
                let mut ws = self.assign_pool.acquire();
                let assignment = assign_items_with_table_ws(&ep.table, &items, &mut ws)
                    .map_err(ServeError::Core)?;
                (*assignment.levels.last().expect("n_actions > 0"), None)
            }
            PredictMode::Posterior => {
                let items: Vec<ItemId> = state.actions.iter().map(|a| a.item).collect();
                drop(shard);
                let mut ws = self.fb_pool.acquire();
                ws.run_items(&ep.table, &items).map_err(ServeError::Core)?;
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
        let (_, ep) = self.epoch.load();
        let shard = self.shards[self.shard(user)].lock();
        let state = shard
            .users
            .get(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let level = *state
            .levels
            .last()
            .ok_or(ServeError::Core(CoreError::EmptyDataset))?;
        let seen: HashSet<ItemId> = state.actions.iter().map(|a| a.item).collect();
        drop(shard);
        let k = k.unwrap_or(self.recommend.k);
        let band = ep.band(level, &self.recommend)?;
        recommend_from_band(band, &|item| seen.contains(&item), k).map_err(ServeError::Core)
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
        let (_, ep) = self.epoch.load();
        let shard = self.shards[self.shard(user)].lock();
        let state = shard
            .users
            .get(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let level = *state
            .levels
            .last()
            .ok_or(ServeError::Core(CoreError::EmptyDataset))?;
        let seen: HashSet<ItemId> = state.actions.iter().map(|a| a.item).collect();
        let policy = state
            .policy
            .as_ref()
            .expect("adaptive services build policy state for every user")
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
        let (epoch, ep) = self.epoch.load();
        let difficulty = *ep.difficulty.get(item as usize).ok_or(ServeError::Core(
            CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: ep.difficulty.len(),
            },
        ))?;
        let mut shard = self.shards[self.shard(user)].lock();
        let state = shard
            .users
            .get_mut(&user)
            .ok_or(ServeError::UnknownUser { user })?;
        let policy = state
            .policy
            .as_mut()
            .expect("adaptive services build policy state for every user");
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
    /// [`SessionBundle::resume`] or [`SkillService::from_bundle`]
    /// refits pending statistics freshly.
    pub fn snapshot(&self, note: &str) -> Result<SessionBundle> {
        let shards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
        // lint:allow(lock-order): audited stop-the-world snapshot path — all shards ascending, then global.
        let g = self.global.lock();
        let mut sequences = Vec::with_capacity(g.admission.len());
        let mut per_user = Vec::with_capacity(g.admission.len());
        for &user in &g.admission {
            let state = shards[self.shard(user)]
                .users
                .get(&user)
                .expect("admission list tracks shard insertion");
            sequences
                .push(ActionSequence::new(user, state.actions.clone()).map_err(ServeError::Core)?);
            per_user.push(state.levels.clone());
        }
        let dataset = Dataset::new(
            self.catalog.schema().clone(),
            self.catalog.items().to_vec(),
            sequences,
        )
        .map_err(ServeError::Core)?;
        Ok(SessionBundle {
            version: SESSION_BUNDLE_VERSION,
            dataset,
            model: g.fit.model().clone(),
            assignments: SkillAssignments { per_user },
            config: self.config,
            parallel: self.parallel,
            policy: g.fit.policy(),
            note: note.to_string(),
        })
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

    /// Training hyperparameters refits run with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Parallelism configuration refits run with.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Number of session shards user state spreads over.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
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

/// Per-item generation difficulty under the empirical level prior
/// rebuilt from the running level counts — computes exactly what
/// [`upskill_core::difficulty::generation_difficulty_all_with_table`]
/// with [`SkillPrior::Empirical`](upskill_core::difficulty::SkillPrior)
/// computes from full assignments, without needing them contiguous.
fn difficulty_from_counts(table: &EmissionTable, counts: &[usize]) -> Result<Vec<f64>> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return Err(ServeError::Core(CoreError::EmptyDataset));
    }
    let prior: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
    (0..table.n_items())
        .map(|item| {
            table
                .expected_level(item as ItemId, &prior)
                .map_err(ServeError::Core)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use upskill_core::streaming::StreamingSession;
    use upskill_core::train::train;

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
        service.record_outcome(77, 1, false).unwrap();
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
    fn handle_dispatches_every_request_variant() {
        let (service, _) = service_and_session(RefitPolicy::EveryBatch, 2);
        let r = service
            .handle(Request::Ingest(Action::new(600, 1, 1)))
            .unwrap();
        assert!(matches!(r, Response::Ingested(_)));
        let r = service
            .handle(Request::IngestBatch(vec![
                Action::new(601, 1, 1),
                Action::new(602, 2, 2),
            ]))
            .unwrap();
        assert!(matches!(r, Response::IngestedBatch(ref v) if v.len() == 2));
        let r = service
            .handle(Request::Predict {
                user: 1,
                mode: PredictMode::Committed,
            })
            .unwrap();
        assert!(matches!(r, Response::Prediction(_)));
        let r = service
            .handle(Request::Recommend { user: 1, k: None })
            .unwrap();
        assert!(matches!(r, Response::Recommendations(_)));
        // Policy variants on a policy-disabled service: typed refusal
        // through the same dispatch path.
        let r = service.handle(Request::RecommendPolicy {
            user: 1,
            k: None,
            mode: PolicyMode::Hybrid,
        });
        assert!(matches!(r, Err(ServeError::PolicyDisabled)));
        let r = service.handle(Request::RecordOutcome {
            user: 1,
            item: 1,
            correct: false,
        });
        assert!(matches!(r, Err(ServeError::PolicyDisabled)));
        // And on an adaptive service they answer.
        let adaptive = adaptive_service(PolicyConfig::hybrid());
        let r = adaptive
            .handle(Request::RecommendPolicy {
                user: 1,
                k: Some(2),
                mode: PolicyMode::Hybrid,
            })
            .unwrap();
        assert!(matches!(r, Response::PolicyRecommendations(_)));
        let r = adaptive
            .handle(Request::RecordOutcome {
                user: 1,
                item: 1,
                correct: false,
            })
            .unwrap();
        assert!(matches!(
            r,
            Response::OutcomeRecorded(OutcomeNoted {
                user: 1,
                item: 1,
                correct: false,
                ..
            })
        ));
        let r = service
            .handle(Request::Snapshot {
                note: "via handle".into(),
            })
            .unwrap();
        assert!(matches!(r, Response::Snapshot(_)));
        let r = service.handle(Request::Stats).unwrap();
        assert!(matches!(r, Response::Stats(_)));
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
