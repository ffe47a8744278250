//! Out-of-core chunked datasets and sharded training (DESIGN.md §13).
//!
//! The in-memory [`Dataset`] is a Vec-of-sequences that must be fully
//! materialized, which pins training memory to the corpus size. This
//! module provides the million-user path: a corpus is consumed as a
//! stream of fixed-size **user-partition chunks** in a columnar layout
//! ([`DatasetChunk`]), produced on demand by any [`ChunkSource`]. Both
//! the in-memory dataset ([`DatasetChunks`]) and owned columnar storage
//! ([`ChunkedDataset`]) implement the trait, as does the
//! generate-and-fold synthetic source in `upskill-datasets`; training
//! memory is bounded by `chunk_size × workers`, independent of the
//! number of users.
//!
//! The chunked trainers ([`train_chunked`], [`train_em_chunked`])
//! mirror their in-memory counterparts step for step and produce
//! **bitwise-identical** models, log-likelihoods, and traces relative
//! to the sequential in-memory paths (pinned by
//! `tests/properties_scale.rs`):
//!
//! - Assignment always runs through the [`EmissionTable`] DP, which is
//!   bitwise identical to the direct path (pinned in [`crate::assign`]).
//! - Per-user log-likelihoods are folded in global user order (chunks in
//!   index order, users in chunk order) regardless of worker count, so
//!   the total matches the sequential fold exactly — as the in-memory
//!   fan-out does.
//! - Sufficient statistics are integer [`StatsGrid`] counts, sharded per
//!   worker and combined with the order-free additive
//!   [`StatsGrid::merge`].
//! - Soft (EM) statistics are folded through the weighted accumulators
//!   in global action order during a sequential apply phase, mirroring
//!   the legacy from-scratch EM accumulation.

use std::time::Instant;

use crate::assign::{assign_items_with_table_ws, AssignWorkspace};
use crate::dist::{FeatureAccumulator, FeatureDistribution};
use crate::em::{EmConfig, EmResult, FbWorkspace, WeightedAcc};
use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::feature::FeatureSchema;
use crate::incremental::StatsGrid;
use crate::init::segment_uniform_times;
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::train::{IterationStats, TrainConfig};
use crate::types::{
    Action, ActionSequence, Dataset, ItemId, SkillAssignments, SkillLevel, Timestamp, UserId,
};
use crate::update::fit_cells;

/// One fixed-size user partition of a corpus in columnar layout.
///
/// Item ids and timestamps are stored contiguously across all users of
/// the chunk; per-user extents live in `offsets` (CSR layout). The
/// buffer is reusable: [`ChunkSource::load_chunk`] clears and refills it
/// without reallocating once capacity has grown to the chunk size.
#[derive(Debug, Clone, Default)]
pub struct DatasetChunk {
    /// Position of this chunk in the source's chunk sequence.
    index: usize,
    /// Global index of the first user in this chunk.
    user_offset: usize,
    /// Owner of each sequence in the chunk.
    users: Vec<UserId>,
    /// CSR extents: user `u` of the chunk owns actions
    /// `offsets[u]..offsets[u + 1]`. Always `users.len() + 1` long.
    offsets: Vec<usize>,
    /// Item column, contiguous across the chunk's users.
    items: Vec<ItemId>,
    /// Timestamp column, parallel to `items`.
    times: Vec<Timestamp>,
}

impl DatasetChunk {
    /// Creates an empty reusable chunk buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the buffer for refilling as chunk `index`, whose first
    /// user has global index `user_offset`. Capacity is retained.
    pub fn reset(&mut self, index: usize, user_offset: usize) {
        self.index = index;
        self.user_offset = user_offset;
        self.users.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.items.clear();
        self.times.clear();
    }

    /// Opens a new (empty) sequence for `user` at the end of the chunk.
    pub fn begin_user(&mut self, user: UserId) {
        self.users.push(user);
        self.offsets.push(self.items.len());
    }

    /// Appends one action to the most recently opened sequence.
    ///
    /// Returns [`CoreError::UnsortedSequence`] when no sequence is open
    /// or the timestamp moves backwards within the open sequence.
    pub fn push_action(&mut self, time: Timestamp, item: ItemId) -> Result<()> {
        let Some(&user) = self.users.last() else {
            return Err(CoreError::UnsortedSequence {
                user: 0,
                position: 0,
            });
        };
        let start = self.offsets[self.users.len() - 1];
        if let Some(&last) = self.times.last() {
            if self.times.len() > start && time < last {
                return Err(CoreError::UnsortedSequence {
                    user,
                    position: self.times.len() - start,
                });
            }
        }
        self.items.push(item);
        self.times.push(time);
        if let Some(last) = self.offsets.last_mut() {
            *last = self.items.len();
        }
        Ok(())
    }

    /// Position of this chunk in the source's chunk sequence.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Global index of the chunk's first user.
    pub fn user_offset(&self) -> usize {
        self.user_offset
    }

    /// Number of user sequences in the chunk.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of actions in the chunk.
    pub fn n_actions(&self) -> usize {
        self.items.len()
    }

    /// Owner ids of the chunk's sequences, in order.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Item column of the `u`-th sequence of the chunk.
    pub fn user_items(&self, u: usize) -> &[ItemId] {
        &self.items[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Timestamp column of the `u`-th sequence of the chunk.
    pub fn user_times(&self, u: usize) -> &[Timestamp] {
        &self.times[self.offsets[u]..self.offsets[u + 1]]
    }

    /// The chunk-wide contiguous item column.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }
}

/// A corpus consumed as a stream of user-partition chunks.
///
/// Implementors expose the item feature table through an **item view**:
/// a [`Dataset`] holding the schema and item features but *no*
/// sequences. Every item-dependent stage (emission-table builds and
/// refreshes, grid refits, model construction) runs against the item
/// view unchanged, so chunked training shares all of that machinery —
/// and its bitwise behavior — with the in-memory path.
///
/// `load_chunk` must be deterministic: loading the same index twice
/// yields the same chunk (the `Recompute` assignment storage relies on
/// replaying chunks). Chunk `i` covers global users
/// `i * chunk_size .. min((i + 1) * chunk_size, n_users)` in corpus
/// order.
pub trait ChunkSource: Sync {
    /// Schema + item feature table with no sequences.
    fn item_view(&self) -> &Dataset;

    /// Total number of users in the corpus.
    fn n_users(&self) -> usize;

    /// Total number of actions in the corpus.
    fn n_actions(&self) -> usize;

    /// Maximum users per chunk (the last chunk may be shorter).
    fn chunk_size(&self) -> usize;

    /// Number of chunks in the stream.
    fn n_chunks(&self) -> usize {
        self.n_users().div_ceil(self.chunk_size().max(1))
    }

    /// Fills `out` with chunk `index`. Deterministic per index.
    fn load_chunk(&self, index: usize, out: &mut DatasetChunk) -> Result<()>;
}

/// Borrowed adapter presenting an in-memory [`Dataset`] as a chunk
/// stream. Loading a chunk copies the sequence slices into the columnar
/// buffer; the item view is the dataset itself.
#[derive(Debug, Clone, Copy)]
pub struct DatasetChunks<'a> {
    dataset: &'a Dataset,
    chunk_size: usize,
}

impl<'a> DatasetChunks<'a> {
    /// Wraps `dataset` as a stream of `chunk_size`-user chunks.
    pub fn new(dataset: &'a Dataset, chunk_size: usize) -> Result<Self> {
        if chunk_size == 0 {
            return Err(CoreError::InvalidChunkSize { requested: 0 });
        }
        Ok(Self {
            dataset,
            chunk_size,
        })
    }
}

impl ChunkSource for DatasetChunks<'_> {
    fn item_view(&self) -> &Dataset {
        self.dataset
    }

    fn n_users(&self) -> usize {
        self.dataset.n_users()
    }

    fn n_actions(&self) -> usize {
        self.dataset.n_actions()
    }

    fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn load_chunk(&self, index: usize, out: &mut DatasetChunk) -> Result<()> {
        let n_users = self.dataset.n_users();
        let start = index * self.chunk_size;
        if start >= n_users {
            return Err(CoreError::LengthMismatch {
                context: "chunk index vs chunk count",
                left: index,
                right: self.n_chunks(),
            });
        }
        let end = (start + self.chunk_size).min(n_users);
        out.reset(index, start);
        for seq in &self.dataset.sequences()[start..end] {
            out.begin_user(seq.user);
            for a in seq.actions() {
                out.push_action(a.time, a.item)?;
            }
        }
        Ok(())
    }
}

/// Owned columnar storage of a whole corpus, pre-partitioned into
/// fixed-size user chunks.
///
/// Unlike [`DatasetChunks`] this drops the Vec-of-sequences
/// representation entirely: one contiguous item column, one timestamp
/// column, and CSR offsets over users. `load_chunk` is a pair of
/// `memcpy`s. Useful when the corpus fits in memory but the per-user
/// `Vec<Action>` overhead (and 16-byte `Action` stride) does not.
#[derive(Debug, Clone)]
pub struct ChunkedDataset {
    item_view: Dataset,
    chunk_size: usize,
    users: Vec<UserId>,
    /// CSR extents over the full corpus: user `u` owns
    /// `offsets[u]..offsets[u + 1]`.
    offsets: Vec<usize>,
    items: Vec<ItemId>,
    times: Vec<Timestamp>,
}

impl ChunkedDataset {
    /// Re-lays an in-memory dataset out columnar with `chunk_size`-user
    /// partitions.
    pub fn from_dataset(dataset: &Dataset, chunk_size: usize) -> Result<Self> {
        if chunk_size == 0 {
            return Err(CoreError::InvalidChunkSize { requested: 0 });
        }
        let item_view = Dataset::new(
            dataset.schema().clone(),
            dataset.items().to_vec(),
            Vec::new(),
        )?;
        let n_actions = dataset.n_actions();
        let mut users = Vec::with_capacity(dataset.n_users());
        let mut offsets = Vec::with_capacity(dataset.n_users() + 1);
        let mut items = Vec::with_capacity(n_actions);
        let mut times = Vec::with_capacity(n_actions);
        offsets.push(0);
        for seq in dataset.sequences() {
            users.push(seq.user);
            for a in seq.actions() {
                items.push(a.item);
                times.push(a.time);
            }
            offsets.push(items.len());
        }
        Ok(Self {
            item_view,
            chunk_size,
            users,
            offsets,
            items,
            times,
        })
    }
}

impl ChunkSource for ChunkedDataset {
    fn item_view(&self) -> &Dataset {
        &self.item_view
    }

    fn n_users(&self) -> usize {
        self.users.len()
    }

    fn n_actions(&self) -> usize {
        self.items.len()
    }

    fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn load_chunk(&self, index: usize, out: &mut DatasetChunk) -> Result<()> {
        let n_users = self.users.len();
        let start = index * self.chunk_size;
        if start >= n_users {
            return Err(CoreError::LengthMismatch {
                context: "chunk index vs chunk count",
                left: index,
                right: self.n_chunks(),
            });
        }
        let end = (start + self.chunk_size).min(n_users);
        out.reset(index, start);
        out.users.extend_from_slice(&self.users[start..end]);
        let (lo, hi) = (self.offsets[start], self.offsets[end]);
        out.offsets.clear();
        out.offsets
            .extend(self.offsets[start..=end].iter().map(|&o| o - lo));
        out.items.extend_from_slice(&self.items[lo..hi]);
        out.times.extend_from_slice(&self.times[lo..hi]);
        Ok(())
    }
}

/// Folds a chunk stream back into an in-memory [`Dataset`].
///
/// The inverse of [`DatasetChunks`]; used by cross-checks and by
/// streaming sessions resumed from a chunked source. Memory is
/// corpus-sized by construction — only call this at scales where the
/// in-memory representation is acceptable.
pub fn materialize<S: ChunkSource + ?Sized>(source: &S) -> Result<Dataset> {
    let view = source.item_view();
    let mut sequences = Vec::with_capacity(source.n_users());
    let mut chunk = DatasetChunk::new();
    for index in 0..source.n_chunks() {
        source.load_chunk(index, &mut chunk)?;
        for u in 0..chunk.n_users() {
            let user = chunk.users()[u];
            let actions = chunk
                .user_items(u)
                .iter()
                .zip(chunk.user_times(u))
                .map(|(&item, &time)| Action::new(time, user, item))
                .collect();
            sequences.push(ActionSequence::new(user, actions)?);
        }
    }
    Dataset::new(view.schema().clone(), view.items().to_vec(), sequences)
}

/// Returns the schema of a source's item view (convenience for callers
/// generic over [`ChunkSource`]).
pub fn source_schema<S: ChunkSource + ?Sized>(source: &S) -> &FeatureSchema {
    source.item_view().schema()
}

/// How the chunked hard trainer remembers the previous iteration's
/// skill assignments, which it needs for churn counting and convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentStorage {
    /// Keep one `SkillLevel` byte per action across iterations
    /// (`O(n_actions)` memory — fastest, but linear in corpus size).
    #[default]
    InMemory,
    /// Keep only the previous iteration's emission table and re-run the
    /// (deterministic) DP per chunk to recover the previous levels —
    /// memory stays bounded by `chunk_size × workers` at the cost of a
    /// second DP pass per action.
    Recompute,
}

/// Result of chunked training; the chunked analogue of
/// [`TrainResult`](crate::train::TrainResult).
///
/// Deliberately omits the corpus-sized per-action assignments (that
/// would defeat the flat-memory contract); the per-level action counts
/// summarize them, and [`assign_chunked`] re-derives the full
/// assignments when a caller accepts corpus-sized output.
#[derive(Debug, Clone)]
pub struct ChunkedTrainResult {
    /// The fitted model.
    pub model: crate::model::SkillModel,
    /// Final objective value (total log-likelihood, or log-evidence for
    /// the EM mode).
    pub log_likelihood: f64,
    /// Per-iteration statistics, identical to the in-memory trace.
    pub trace: Vec<crate::train::IterationStats>,
    /// Whether training stopped before the iteration cap.
    pub converged: bool,
    /// Actions per skill level under the final assignments
    /// (`histogram[s - 1]` = actions at level `s`).
    pub level_histogram: Vec<u64>,
    /// Users seen in the stream.
    pub n_users: usize,
    /// Actions seen in the stream.
    pub n_actions: usize,
}

/// Decodes the full per-action skill assignments of `source` under
/// `model`, returning them with the user-order total log-likelihood.
///
/// Output is corpus-sized; this is the bridge from chunked training
/// back to assignment-consuming APIs (difficulty, sessions, tests).
/// Bitwise identical to [`crate::parallel::assign_all_parallel`] on the
/// materialized dataset.
pub fn assign_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    model: &crate::model::SkillModel,
    parallel: &crate::parallel::ParallelConfig,
) -> Result<(SkillAssignments, f64)> {
    parallel.validate()?;
    let table = EmissionTable::build_with_config(model, source.item_view(), parallel)?;
    let mut per_user: Vec<Vec<SkillLevel>> = Vec::with_capacity(source.n_users());
    let mut total_ll = 0.0;
    let mut chunk = DatasetChunk::new();
    let mut ws = AssignWorkspace::new();
    for index in 0..source.n_chunks() {
        source.load_chunk(index, &mut chunk)?;
        for u in 0..chunk.n_users() {
            let a = assign_items_with_table_ws(&table, chunk.user_items(u), &mut ws)?;
            total_ll += a.log_likelihood;
            per_user.push(a.levels);
        }
    }
    Ok((SkillAssignments { per_user }, total_ll))
}

/// Chunked analogue of [`crate::init::initialize_model`]: uniform-in-time
/// segmentation of long sequences, streamed chunk by chunk.
///
/// Pushes features in the same `(user, action, feature)` order as the
/// in-memory initializer (users in corpus order, short users skipped), so
/// the initial model is bitwise identical to
/// `initialize_model(&materialize(source)?, ..)`.
pub fn initialize_model_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    n_levels: usize,
    min_actions: usize,
    lambda: f64,
) -> Result<SkillModel> {
    if n_levels == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    if source.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let view = source.item_view();
    let schema = view.schema();
    let mut grid: Vec<Vec<FeatureAccumulator>> = (0..n_levels)
        .map(|_| {
            schema
                .kinds()
                .iter()
                .map(|&k| FeatureAccumulator::new(k))
                .collect()
        })
        .collect();
    let mut qualifying_actions = 0usize;
    let mut chunk = DatasetChunk::new();
    for index in 0..source.n_chunks() {
        source.load_chunk(index, &mut chunk)?;
        for u in 0..chunk.n_users() {
            let items = chunk.user_items(u);
            if items.len() < min_actions {
                continue;
            }
            qualifying_actions += items.len();
            let levels = segment_uniform_times(chunk.user_times(u), n_levels);
            for (&item, &level) in items.iter().zip(&levels) {
                let features = view.item_features(item);
                let row = grid
                    .get_mut(level as usize - 1)
                    .ok_or(CoreError::InvalidSkillCount {
                        requested: level as usize,
                    })?;
                for (acc, value) in row.iter_mut().zip(features) {
                    acc.push(value)?;
                }
            }
        }
    }
    if qualifying_actions == 0 {
        return Err(CoreError::NoInitializationUsers {
            threshold: min_actions,
        });
    }
    let cells = fit_cells(&grid, lambda)?;
    SkillModel::new(schema.clone(), n_levels, cells)
}

/// How one assignment pass recovers the *previous* iteration's levels for
/// churn counting.
#[derive(Clone, Copy)]
enum PrevPass<'a> {
    /// First iteration: nothing to diff against.
    None,
    /// [`AssignmentStorage::InMemory`]: stored flat levels per chunk.
    Levels(&'a [Vec<SkillLevel>]),
    /// [`AssignmentStorage::Recompute`]: the previous iteration's emission
    /// table; the deterministic DP is re-run per chunk.
    Table(&'a EmissionTable),
}

/// Per-worker reusable state for the hard assignment pass. One worker owns
/// one chunk buffer, two DP workspaces, and (when statistics are being
/// built) a partial [`StatsGrid`] sharded by the user partitions it
/// processed.
struct WorkerState {
    chunk: DatasetChunk,
    ws: AssignWorkspace,
    prev_ws: AssignWorkspace,
    grid: Option<StatsGrid>,
    histogram: Vec<u64>,
}

/// What one worker hands back per chunk (worker-local accumulations —
/// grid, histogram — stay in [`WorkerState`] and merge once per pass).
struct ChunkOutcome {
    /// Per-user log-likelihoods, in chunk user order.
    user_lls: Vec<f64>,
    /// Flat assigned levels over the chunk's action column.
    levels: Vec<SkillLevel>,
    /// Actions whose level moved vs. the previous iteration.
    n_changed: Option<usize>,
}

/// DP + statistics + churn for one chunk.
fn process_chunk<S: ChunkSource + ?Sized>(
    source: &S,
    table: &EmissionTable,
    prev: PrevPass<'_>,
    chunk_index: usize,
    state: &mut WorkerState,
    ctx: InvariantCtx,
) -> Result<ChunkOutcome> {
    source.load_chunk(chunk_index, &mut state.chunk)?;
    let chunk = &state.chunk;
    let mut user_lls = Vec::with_capacity(chunk.n_users());
    let mut levels: Vec<SkillLevel> = Vec::with_capacity(chunk.n_actions());
    for u in 0..chunk.n_users() {
        let a = assign_items_with_table_ws(table, chunk.user_items(u), &mut state.ws)?;
        ctx.check_sequence_monotone("chunked training assignment", &a.levels)?;
        user_lls.push(a.log_likelihood);
        levels.extend_from_slice(&a.levels);
    }
    if let Some(g) = state.grid.as_mut() {
        for (&item, &level) in chunk.items().iter().zip(&levels) {
            g.add_action(item, level)?;
        }
    }
    for &level in &levels {
        state.histogram[level as usize - 1] += 1;
    }
    let n_changed = match prev {
        PrevPass::None => None,
        PrevPass::Levels(all) => {
            let prev_levels = &all[chunk_index];
            if prev_levels.len() != levels.len() {
                return Err(CoreError::LengthMismatch {
                    context: "previous vs next assignment lengths",
                    left: prev_levels.len(),
                    right: levels.len(),
                });
            }
            Some(
                prev_levels
                    .iter()
                    .zip(&levels)
                    .filter(|(a, b)| a != b)
                    .count(),
            )
        }
        PrevPass::Table(prev_table) => {
            let mut changed = 0usize;
            let mut offset = 0usize;
            for u in 0..chunk.n_users() {
                let items = chunk.user_items(u);
                let p = assign_items_with_table_ws(prev_table, items, &mut state.prev_ws)?;
                changed += p
                    .levels
                    .iter()
                    .zip(&levels[offset..offset + items.len()])
                    .filter(|(a, b)| a != b)
                    .count();
                offset += items.len();
            }
            Some(changed)
        }
    };
    Ok(ChunkOutcome {
        user_lls,
        levels,
        n_changed,
    })
}

/// Result of one full assignment pass over the chunk stream.
struct PassResult {
    /// Total log-likelihood, folded in global user order.
    total_ll: f64,
    /// Total churn vs. the previous iteration (`None` on the first pass).
    n_changed: Option<usize>,
    /// Actions per level under the new assignments.
    histogram: Vec<u64>,
    /// Merged sufficient statistics (when requested).
    grid: Option<StatsGrid>,
    /// Flat new levels per chunk (when requested, i.e. `InMemory`).
    levels_by_chunk: Option<Vec<Vec<SkillLevel>>>,
}

/// One sharded assignment pass: chunks are processed in waves of
/// `workers_for_chunks` scoped threads, each worker owning its buffers
/// and a partial grid; results are applied sequentially **in chunk
/// order**, so the log-likelihood fold is the global user-order fold
/// whatever the worker count.
fn run_assignment_pass<S: ChunkSource + ?Sized>(
    source: &S,
    table: &EmissionTable,
    prev: PrevPass<'_>,
    n_levels: usize,
    parallel: &ParallelConfig,
    build_grid: bool,
    keep_levels: bool,
) -> Result<PassResult> {
    let n_chunks = source.n_chunks();
    let n_workers = parallel.workers_for_chunks(n_chunks);
    let n_items = source.item_view().n_items();
    let ctx = InvariantCtx::new();
    let mut states: Vec<WorkerState> = (0..n_workers)
        .map(|_| -> Result<WorkerState> {
            Ok(WorkerState {
                chunk: DatasetChunk::new(),
                ws: AssignWorkspace::new(),
                prev_ws: AssignWorkspace::new(),
                grid: if build_grid {
                    Some(StatsGrid::new(n_levels, n_items)?)
                } else {
                    None
                },
                histogram: vec![0; n_levels],
            })
        })
        .collect::<Result<_>>()?;

    let mut total_ll = 0.0;
    let mut n_changed_total = 0usize;
    let mut levels_by_chunk = if keep_levels {
        Some(Vec::with_capacity(n_chunks))
    } else {
        None
    };

    for wave_start in (0..n_chunks).step_by(n_workers.max(1)) {
        let wave_len = n_workers.min(n_chunks - wave_start);
        let outcomes: Vec<Result<ChunkOutcome>> = if wave_len == 1 {
            vec![process_chunk(
                source,
                table,
                prev,
                wave_start,
                &mut states[0],
                ctx,
            )]
        } else {
            let wave_states = &mut states[..wave_len];
            let mut joined = Vec::with_capacity(wave_len);
            std::thread::scope(|scope| {
                let handles: Vec<_> = wave_states
                    .iter_mut()
                    .enumerate()
                    .map(|(w, state)| {
                        scope.spawn(move || {
                            process_chunk(source, table, prev, wave_start + w, state, ctx)
                        })
                    })
                    .collect();
                for handle in handles {
                    joined.push(handle.join().unwrap_or(Err(CoreError::WorkerPanicked {
                        step: "chunked assignment",
                    })));
                }
            });
            joined
        };
        // Sequential apply, in chunk order: the f64 fold is order-
        // sensitive, the rest is integer bookkeeping.
        for outcome in outcomes {
            let outcome = outcome?;
            for ll in &outcome.user_lls {
                total_ll += ll;
            }
            if let Some(n) = outcome.n_changed {
                n_changed_total += n;
            }
            if let Some(store) = levels_by_chunk.as_mut() {
                store.push(outcome.levels);
            }
        }
    }

    // Merge the per-worker partials. Integer counts: order-free, exact.
    let mut histogram = vec![0u64; n_levels];
    let mut grid: Option<StatsGrid> = None;
    for state in states {
        for (h, &p) in histogram.iter_mut().zip(&state.histogram) {
            *h += p;
        }
        if let Some(partial) = state.grid {
            match grid.as_mut() {
                Some(g) => g.merge(&partial)?,
                None => grid = Some(partial),
            }
        }
    }
    Ok(PassResult {
        total_ll,
        n_changed: match prev {
            PrevPass::None => None,
            _ => Some(n_changed_total),
        },
        histogram,
        grid,
        levels_by_chunk,
    })
}

/// Resolves the previous-iteration view for a pass.
fn prev_pass<'a>(
    prev_levels: &'a Option<Vec<Vec<SkillLevel>>>,
    prev_table: &'a Option<EmissionTable>,
    storage: AssignmentStorage,
) -> PrevPass<'a> {
    match storage {
        AssignmentStorage::InMemory => match prev_levels {
            Some(levels) => PrevPass::Levels(levels),
            None => PrevPass::None,
        },
        AssignmentStorage::Recompute => match prev_table {
            Some(table) => PrevPass::Table(table),
            None => PrevPass::None,
        },
    }
}

/// Chunk-at-a-time hard trainer: the out-of-core twin of
/// [`crate::train::train_with_parallelism`].
///
/// Every stage streams the corpus through fixed-size chunks — the only
/// corpus-sized state is the optional [`AssignmentStorage::InMemory`]
/// level store (one byte per action); with
/// [`AssignmentStorage::Recompute`] peak memory is bounded by
/// `chunk_size × workers` plus the `n_items × S` emission table and
/// histogram.
///
/// **Bitwise contract**: the model, log-likelihood, per-iteration trace
/// (`log_likelihood` / `n_changed`), and convergence decision are
/// bitwise identical to the in-memory trainer under
/// [`ParallelConfig::sequential`] on the materialized dataset — for any
/// `chunk_size`, worker count, and either storage mode. This holds
/// because assignment always runs the table-backed DP (bitwise equal to
/// the direct DP), log-likelihoods fold in global user order, sufficient
/// statistics are exact integer counts merged order-free, and a cell
/// refit is a pure function of its histogram row — so reused rows equal
/// refit rows bit for bit.
pub fn train_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    config: &TrainConfig,
    parallel: &ParallelConfig,
    storage: AssignmentStorage,
) -> Result<ChunkedTrainResult> {
    config.validate()?;
    parallel.validate()?;
    if source.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let view = source.item_view();
    let n_levels = config.n_levels;
    let mut model =
        initialize_model_chunked(source, n_levels, config.min_init_actions, config.lambda)?;
    let mut prev_levels: Option<Vec<Vec<SkillLevel>>> = None;
    let mut prev_table: Option<EmissionTable> = None;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut trace = Vec::new();
    let mut prev_grid: Option<StatsGrid> = None;
    let mut table: Option<EmissionTable> = None;
    let mut refit_levels: Vec<bool> = Vec::new();
    let keep_levels = storage == AssignmentStorage::InMemory;

    for iteration in 1..=config.max_iterations {
        let iter_start = Instant::now();
        let t = EmissionTable::refresh_or_build(&mut table, &model, view, parallel, &refit_levels)?;
        let prev = prev_pass(&prev_levels, &prev_table, storage);
        let pass = run_assignment_pass(source, t, prev, n_levels, parallel, true, keep_levels)?;
        let ll = pass.total_ll;
        // lint:allow(core-panic): run_assignment_pass(build_grid=true)
        // always returns a grid; its absence is a bug worth a loud panic.
        let mut grid = pass.grid.expect("grid requested");
        // Recover the in-memory trainer's dirty flags by diffing against
        // the previous iteration's pristine grid. The flags may differ
        // when opposing level moves cancel a row exactly — bitwise
        // harmless either way, since an unchanged row refits to the same
        // distributions it had.
        if let Some(pg) = &prev_grid {
            grid.mark_dirty_from(pg)?;
        }

        let stable = pass.n_changed == Some(0);
        let small_gain = prev_ll.is_finite()
            && (ll - prev_ll).abs() <= config.tolerance * prev_ll.abs().max(1.0);
        refit_levels = grid.dirty_levels().to_vec();
        // The Recompute storage replays *this* iteration's DP next time
        // around, so snapshot the table before the refit refreshes it.
        if storage == AssignmentStorage::Recompute {
            prev_table = Some(t.clone());
        }
        // The refit only clears dirty flags, and the next iteration's
        // `mark_dirty_from` reads counts alone, so the fitted grid itself
        // is the next baseline — no copy.
        model = grid.fit_model_incremental(view, config.lambda, parallel, Some(&model))?;
        prev_grid = Some(grid);
        trace.push(IterationStats {
            iteration,
            log_likelihood: ll,
            n_changed: pass.n_changed,
            seconds: iter_start.elapsed().as_secs_f64(),
        });
        if stable || small_gain {
            return Ok(ChunkedTrainResult {
                model,
                log_likelihood: ll,
                trace,
                converged: true,
                level_histogram: pass.histogram,
                n_users: source.n_users(),
                n_actions: source.n_actions(),
            });
        }
        prev_levels = pass.levels_by_chunk;
        prev_ll = ll;
    }

    // Iteration cap reached: one closing assignment pass (no update step)
    // so the reported objective matches the final model, mirroring the
    // in-memory trainer's trailing trace entry.
    let iter_start = Instant::now();
    let t = EmissionTable::refresh_or_build(&mut table, &model, view, parallel, &refit_levels)?;
    let prev = prev_pass(&prev_levels, &prev_table, storage);
    let pass = run_assignment_pass(source, t, prev, n_levels, parallel, false, false)?;
    trace.push(IterationStats {
        iteration: config.max_iterations + 1,
        log_likelihood: pass.total_ll,
        n_changed: pass.n_changed,
        seconds: iter_start.elapsed().as_secs_f64(),
    });
    Ok(ChunkedTrainResult {
        model,
        log_likelihood: pass.total_ll,
        trace,
        converged: false,
        level_histogram: pass.histogram,
        n_users: source.n_users(),
        n_actions: source.n_actions(),
    })
}

/// Per-worker reusable state for the EM E-step pass.
struct EmWorkerState {
    chunk: DatasetChunk,
    ws: FbWorkspace,
}

/// One chunk's E-step output: per-user log evidences, flat posterior
/// marginals (`chunk_actions × S`), and the item column they pair with.
struct EmChunkOutcome {
    user_evidences: Vec<f64>,
    gammas: Vec<f64>,
    items: Vec<ItemId>,
}

/// Forward–backward for every user of one chunk.
fn process_chunk_em<S: ChunkSource + ?Sized>(
    source: &S,
    table: &EmissionTable,
    n_levels: usize,
    chunk_index: usize,
    state: &mut EmWorkerState,
) -> Result<EmChunkOutcome> {
    source.load_chunk(chunk_index, &mut state.chunk)?;
    let chunk = &state.chunk;
    let mut user_evidences = Vec::with_capacity(chunk.n_users());
    let mut gammas = Vec::with_capacity(chunk.n_actions() * n_levels);
    for u in 0..chunk.n_users() {
        let items = &chunk.items[chunk.offsets[u]..chunk.offsets[u + 1]];
        let ev = state.ws.run_items(table, items)?;
        user_evidences.push(ev);
        gammas.extend_from_slice(state.ws.gamma());
    }
    Ok(EmChunkOutcome {
        user_evidences,
        gammas,
        items: chunk.items.clone(),
    })
}

/// Chunk-at-a-time EM: the out-of-core twin of the from-scratch EM loop
/// ([`crate::reference::train_em_full`]).
///
/// Workers run the flat-buffer forward–backward per chunk; posterior
/// rows are folded through the weighted accumulators sequentially **in
/// global action order** and evidences in global user order, so the
/// evidence trace and fitted model are bitwise identical to the
/// in-memory from-scratch EM on the materialized dataset, for any
/// `chunk_size` and worker count. Per-wave posterior buffers are the
/// only γ storage — memory stays bounded by `chunk_size × workers × S`,
/// never corpus-sized (which is also why this mirrors the from-scratch
/// loop and not the responsibility-delta incremental EM, whose
/// [`SoftStatsGrid`](crate::incremental::SoftStatsGrid) stores one
/// posterior row per corpus action).
pub fn train_em_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    config: &EmConfig,
    parallel: &ParallelConfig,
) -> Result<EmResult> {
    parallel.validate()?;
    if source.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let view = source.item_view();
    let n_levels = config.initial.n_levels();
    let schema = view.schema().clone();
    let mut model = config.initial.clone();
    let mut trace = Vec::new();
    let mut converged = false;
    let n_chunks = source.n_chunks();
    let n_workers = parallel.workers_for_chunks(n_chunks);
    let mut states: Vec<EmWorkerState> = (0..n_workers)
        .map(|_| EmWorkerState {
            chunk: DatasetChunk::new(),
            ws: FbWorkspace::new(&config.transitions),
        })
        .collect();

    for _ in 0..config.max_iterations {
        let mut grid: Vec<Vec<WeightedAcc>> = (0..n_levels)
            .map(|_| {
                schema
                    .kinds()
                    .iter()
                    .map(|&k| WeightedAcc::new(k))
                    .collect()
            })
            .collect();
        let table = EmissionTable::build_with_config(&model, view, parallel)?;
        let mut evidence = 0.0;

        for wave_start in (0..n_chunks).step_by(n_workers.max(1)) {
            let wave_len = n_workers.min(n_chunks - wave_start);
            let outcomes: Vec<Result<EmChunkOutcome>> = if wave_len == 1 {
                vec![process_chunk_em(
                    source,
                    &table,
                    n_levels,
                    wave_start,
                    &mut states[0],
                )]
            } else {
                let wave_states = &mut states[..wave_len];
                let mut joined = Vec::with_capacity(wave_len);
                std::thread::scope(|scope| {
                    let table = &table;
                    let handles: Vec<_> = wave_states
                        .iter_mut()
                        .enumerate()
                        .map(|(w, state)| {
                            scope.spawn(move || {
                                process_chunk_em(source, table, n_levels, wave_start + w, state)
                            })
                        })
                        .collect();
                    for handle in handles {
                        joined.push(handle.join().unwrap_or(Err(CoreError::WorkerPanicked {
                            step: "chunked forward-backward",
                        })));
                    }
                });
                joined
            };
            // Sequential apply in chunk order: evidence folds in user
            // order, accumulator pushes in global action order — exactly
            // the from-scratch loop's operation sequence.
            for outcome in outcomes {
                let outcome = outcome?;
                for &ev in &outcome.user_evidences {
                    evidence += ev;
                }
                for (item, gamma) in outcome.items.iter().zip(outcome.gammas.chunks(n_levels)) {
                    let features = view.item_features(*item);
                    for (s, &weight) in gamma.iter().enumerate() {
                        if weight <= 0.0 {
                            continue;
                        }
                        for (acc, value) in grid[s].iter_mut().zip(features) {
                            acc.push(value, weight)?;
                        }
                    }
                }
            }
        }
        trace.push(evidence);

        let cells: Vec<Vec<FeatureDistribution>> = grid
            .iter()
            .map(|row| row.iter().map(|acc| acc.fit(config.lambda)).collect())
            .collect::<Result<_>>()?;
        model = SkillModel::new(schema.clone(), n_levels, cells)?;

        if trace.len() >= 2 {
            let prev = trace[trace.len() - 2];
            let curr = trace[trace.len() - 1];
            if (curr - prev).abs() <= config.tolerance * prev.abs().max(1.0) {
                converged = true;
                break;
            }
        }
    }
    Ok(EmResult {
        model,
        evidence_trace: trace,
        converged,
    })
}

/// Streams one hard decode of `source` under `model`, returning the
/// per-level action counts and user-order total log-likelihood without
/// ever materializing corpus-sized assignments.
pub fn level_histogram_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    model: &SkillModel,
    parallel: &ParallelConfig,
) -> Result<(Vec<u64>, f64)> {
    parallel.validate()?;
    let table = EmissionTable::build_with_config(model, source.item_view(), parallel)?;
    let pass = run_assignment_pass(
        source,
        &table,
        PrevPass::None,
        model.n_levels(),
        parallel,
        false,
        false,
    )?;
    Ok((pass.histogram, pass.total_ll))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureValue};

    fn small_dataset() -> Dataset {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let sequences = (0..5u32)
            .map(|u| {
                let actions = (0..4 + u as i64)
                    .map(|t| Action::new(t, u, (t % 2) as ItemId))
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn zero_chunk_size_rejected() {
        let ds = small_dataset();
        assert!(matches!(
            DatasetChunks::new(&ds, 0),
            Err(CoreError::InvalidChunkSize { requested: 0 })
        ));
        assert!(matches!(
            ChunkedDataset::from_dataset(&ds, 0),
            Err(CoreError::InvalidChunkSize { requested: 0 })
        ));
    }

    #[test]
    fn chunk_counts_cover_all_users() {
        let ds = small_dataset();
        for chunk_size in 1..=6 {
            let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
            assert_eq!(chunks.n_chunks(), ds.n_users().div_ceil(chunk_size));
            let mut seen_users = 0;
            let mut seen_actions = 0;
            let mut buf = DatasetChunk::new();
            for i in 0..chunks.n_chunks() {
                chunks.load_chunk(i, &mut buf).unwrap();
                assert_eq!(buf.index(), i);
                assert_eq!(buf.user_offset(), i * chunk_size);
                seen_users += buf.n_users();
                seen_actions += buf.n_actions();
            }
            assert_eq!(seen_users, ds.n_users());
            assert_eq!(seen_actions, ds.n_actions());
        }
    }

    #[test]
    fn adapter_and_owned_layouts_agree() {
        let ds = small_dataset();
        let adapter = DatasetChunks::new(&ds, 2).unwrap();
        let owned = ChunkedDataset::from_dataset(&ds, 2).unwrap();
        let mut a = DatasetChunk::new();
        let mut b = DatasetChunk::new();
        for i in 0..adapter.n_chunks() {
            adapter.load_chunk(i, &mut a).unwrap();
            owned.load_chunk(i, &mut b).unwrap();
            assert_eq!(a.users(), b.users());
            assert_eq!(a.items(), b.items());
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.times, b.times);
        }
    }

    #[test]
    fn materialize_round_trips() {
        let ds = small_dataset();
        for chunk_size in [1, 2, 5, 16] {
            let owned = ChunkedDataset::from_dataset(&ds, chunk_size).unwrap();
            let back = materialize(&owned).unwrap();
            assert_eq!(back.n_users(), ds.n_users());
            assert_eq!(back.n_actions(), ds.n_actions());
            for (s1, s2) in ds.sequences().iter().zip(back.sequences()) {
                assert_eq!(s1, s2);
            }
        }
    }

    #[test]
    fn out_of_range_chunk_index_is_typed_error() {
        let ds = small_dataset();
        let chunks = DatasetChunks::new(&ds, 2).unwrap();
        let mut buf = DatasetChunk::new();
        assert!(matches!(
            chunks.load_chunk(99, &mut buf),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    /// Richer dataset for trainer cross-checks: 3 features (categorical,
    /// gamma-modeled positive, count), 6 items, 12 users with staggered
    /// lengths so init both includes and excludes users.
    fn trainer_dataset() -> Dataset {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Positive {
                model: crate::feature::PositiveModel::Gamma,
            },
            FeatureKind::Count,
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..6u32)
            .map(|i| {
                vec![
                    FeatureValue::Categorical(i % 3),
                    FeatureValue::Real(0.5 + i as f64),
                    FeatureValue::Count(u64::from(i) * 2 + 1),
                ]
            })
            .collect();
        let sequences = (0..12u32)
            .map(|u| {
                let len = 6 + (u as i64 % 5) * 3;
                let actions = (0..len)
                    .map(|t| {
                        let item = ((t as u32 + u) * 7 + t as u32 / 3) % 6;
                        Action::new(t * (1 + i64::from(u % 3)), u, item)
                    })
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    fn train_cfg() -> crate::train::TrainConfig {
        crate::train::TrainConfig::new(3)
            .with_min_init_actions(8)
            .with_max_iterations(6)
            .with_lambda(0.05)
    }

    #[test]
    fn chunked_init_matches_in_memory() {
        let ds = trainer_dataset();
        let expect = crate::init::initialize_model(&ds, 3, 8, 0.05).unwrap();
        for chunk_size in [1, 3, 64] {
            let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
            let got = initialize_model_chunked(&chunks, 3, 8, 0.05).unwrap();
            assert_eq!(got, expect, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn chunked_init_error_cases_match() {
        let ds = trainer_dataset();
        let chunks = DatasetChunks::new(&ds, 4).unwrap();
        assert!(matches!(
            initialize_model_chunked(&chunks, 0, 1, 0.05),
            Err(CoreError::InvalidSkillCount { requested: 0 })
        ));
        assert_eq!(
            initialize_model_chunked(&chunks, 3, 10_000, 0.05).unwrap_err(),
            CoreError::NoInitializationUsers { threshold: 10_000 }
        );
    }

    #[test]
    fn chunked_hard_training_is_bitwise_identical() {
        let ds = trainer_dataset();
        let config = train_cfg();
        let expect =
            crate::train::train_with_parallelism(&ds, &config, &ParallelConfig::sequential())
                .unwrap();
        for chunk_size in [1, 4, 64] {
            for threads in [1, 3] {
                for storage in [AssignmentStorage::InMemory, AssignmentStorage::Recompute] {
                    let parallel = if threads == 1 {
                        ParallelConfig::sequential()
                    } else {
                        ParallelConfig::all(threads)
                    };
                    let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
                    let got = train_chunked(&chunks, &config, &parallel, storage).unwrap();
                    let tag = format!("chunk_size={chunk_size} threads={threads} {storage:?}");
                    assert_eq!(got.model, expect.model, "{tag}");
                    assert_eq!(got.log_likelihood, expect.log_likelihood, "{tag}");
                    assert_eq!(got.converged, expect.converged, "{tag}");
                    assert_eq!(got.trace.len(), expect.trace.len(), "{tag}");
                    for (a, b) in got.trace.iter().zip(&expect.trace) {
                        assert_eq!(a.iteration, b.iteration, "{tag}");
                        assert_eq!(a.log_likelihood, b.log_likelihood, "{tag}");
                        assert_eq!(a.n_changed, b.n_changed, "{tag}");
                    }
                    let histogram: Vec<u64> = expect
                        .assignments
                        .level_histogram(3)
                        .iter()
                        .map(|&c| c as u64)
                        .collect();
                    assert_eq!(got.level_histogram, histogram, "{tag}");
                    assert_eq!(got.n_users, ds.n_users(), "{tag}");
                    assert_eq!(got.n_actions, ds.n_actions(), "{tag}");
                }
            }
        }
    }

    #[test]
    fn chunked_em_training_is_bitwise_identical() {
        let ds = trainer_dataset();
        let initial = crate::init::initialize_model(&ds, 3, 8, 0.05).unwrap();
        let transitions = crate::transition::TransitionModel::uninformative(3).unwrap();
        let em_cfg = EmConfig::new(initial, transitions)
            .with_lambda(0.05)
            .with_max_iterations(5);
        let expect = crate::reference::train_em_full(&ds, &em_cfg).unwrap();
        for chunk_size in [1, 5, 64] {
            for threads in [1, 3] {
                let parallel = if threads == 1 {
                    ParallelConfig::sequential()
                } else {
                    ParallelConfig::all(threads)
                };
                let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
                let got = train_em_chunked(&chunks, &em_cfg, &parallel).unwrap();
                let tag = format!("chunk_size={chunk_size} threads={threads}");
                assert_eq!(got.model, expect.model, "{tag}");
                assert_eq!(got.evidence_trace, expect.evidence_trace, "{tag}");
                assert_eq!(got.converged, expect.converged, "{tag}");
            }
        }
    }

    #[test]
    fn assign_chunked_matches_in_memory_decode() {
        let ds = trainer_dataset();
        let config = train_cfg();
        let result =
            crate::train::train_with_parallelism(&ds, &config, &ParallelConfig::sequential())
                .unwrap();
        let chunks = DatasetChunks::new(&ds, 3).unwrap();
        let (assignments, ll) =
            assign_chunked(&chunks, &result.model, &ParallelConfig::sequential()).unwrap();
        assert_eq!(assignments, result.assignments);
        assert_eq!(ll, result.log_likelihood);
        let (histogram, hll) =
            level_histogram_chunked(&chunks, &result.model, &ParallelConfig::sequential()).unwrap();
        assert_eq!(hll, ll);
        let total: u64 = histogram.iter().sum();
        assert_eq!(total as usize, ds.n_actions());
    }

    #[test]
    fn trainer_builder_dispatches_chunked_modes() {
        let ds = trainer_dataset();
        let chunks = DatasetChunks::new(&ds, 4).unwrap();
        let hard = crate::train::Trainer::from_config(train_cfg())
            .fit_chunked(&chunks, AssignmentStorage::Recompute)
            .unwrap();
        assert_eq!(hard.n_users, ds.n_users());
        let em = crate::train::Trainer::from_config(train_cfg())
            .em()
            .fit_chunked(&chunks, AssignmentStorage::InMemory)
            .unwrap();
        assert_eq!(
            em.level_histogram.iter().sum::<u64>() as usize,
            ds.n_actions()
        );
        // The EM decode must agree with fitting the from-scratch
        // in-memory EM then hard decoding (both close with the same
        // table DP).
        let cfg = train_cfg();
        let initial = crate::init::initialize_model(&ds, 3, 8, cfg.lambda).unwrap();
        let transitions = crate::transition::TransitionModel::uninformative(3).unwrap();
        let em_cfg = EmConfig::new(initial, transitions)
            .with_lambda(cfg.lambda)
            .with_max_iterations(cfg.max_iterations)
            .with_tolerance(cfg.tolerance);
        let in_mem = crate::reference::train_em_full(&ds, &em_cfg).unwrap();
        let (_, in_mem_ll) =
            crate::parallel::assign_all_parallel(&in_mem.model, &ds, &ParallelConfig::sequential())
                .unwrap();
        assert_eq!(em.model, in_mem.model);
        assert_eq!(em.log_likelihood, in_mem_ll);
    }

    #[test]
    fn empty_source_is_typed_error() {
        let schema = FeatureSchema::new(vec![FeatureKind::Count]).unwrap();
        let items = vec![vec![FeatureValue::Count(1)]];
        let ds = Dataset::new(schema, items, vec![]).unwrap();
        let chunks = DatasetChunks::new(&ds, 4).unwrap();
        assert!(matches!(
            train_chunked(
                &chunks,
                &train_cfg(),
                &ParallelConfig::sequential(),
                AssignmentStorage::InMemory
            ),
            Err(CoreError::EmptyDataset)
        ));
    }

    #[test]
    fn push_action_rejects_backwards_time() {
        let mut chunk = DatasetChunk::new();
        chunk.reset(0, 0);
        chunk.begin_user(3);
        chunk.push_action(5, 0).unwrap();
        assert!(matches!(
            chunk.push_action(2, 0),
            Err(CoreError::UnsortedSequence { user: 3, .. })
        ));
        // A new user may start earlier than the previous user ended.
        chunk.begin_user(4);
        chunk.push_action(0, 1).unwrap();
        assert_eq!(chunk.user_items(1), &[1]);
    }
}
