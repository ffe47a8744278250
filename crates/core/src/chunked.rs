//! Out-of-core chunked datasets and sharded training (DESIGN.md §13).
//!
//! The in-memory [`Dataset`] is a Vec-of-sequences that must be fully
//! materialized, which pins training memory to the corpus size. This
//! module provides the million-user path: a corpus is consumed as a
//! stream of fixed-size **user-partition chunks** in a columnar layout
//! ([`DatasetChunk`]), produced on demand by any [`ChunkSource`]. Both
//! the in-memory dataset ([`DatasetChunks`]) and its once-copied columnar
//! form ([`ChunkedDataset`]) implement the trait, as does the
//! generate-and-fold synthetic source in `upskill-datasets`; training
//! memory is bounded by `chunk_size × workers`, independent of the
//! number of users.
//!
//! The chunk pass here is the one hard-training loop ([`train_chunked`],
//! which [`crate::train::train_with_parallelism`] runs over the dataset's
//! chunks, copied once) and the chunk walk of every decode, of
//! initialization and of [`train_em_chunked`], all on the library's one
//! worker fan-out, [`crate::parallel::fan_out`]. Outputs are
//! **bitwise identical** for any chunk size and worker count (pinned by
//! `tests/properties_scale.rs`):
//!
//! - Assignment always runs through one DP, generic over
//!   [`EmissionRows`]; an [`EmissionTable`] is bitwise identical to the
//!   direct path (pinned in [`crate::assign`]).
//! - Per-user log-likelihoods are folded in global user order (chunks in
//!   index order, users in chunk order) regardless of worker count or
//!   which worker took which chunk, so the total matches the sequential
//!   fold exactly.
//! - Sufficient statistics are one integer [`StatsGrid`], moved each pass
//!   by per-worker signed deltas (only the actions whose level changed)
//!   that are added order-free.
//! - Each pass keeps its levels as **breakpoints**: Eq. 4 allows only
//!   stay or +1, so a user's path is its first level plus at most `S − 1`
//!   advance positions (about `4·S` bytes per user, flat per chunk). The
//!   next pass reads them back: churn and the grid delta come from a
//!   merge of old and new breakpoints that visits only the actions
//!   between moved ones, so the DP runs once per action per pass.
//! - Initialization counts categorical features on the workers (integer,
//!   order-free) and folds count and real sums on the calling thread in
//!   global action order.
//! - Soft (EM) statistics are one fresh responsibility-mass grid per
//!   iteration ([`MassGrid`]), which the calling thread folds in global
//!   action order; the M-step is the hard grid's.
//! - Both trainers hold one model and refit it in place every iteration
//!   ([`StatsGrid::refit`], [`MassGrid::refit`]).

use std::ops::Range;
use std::time::Instant;

use crate::assign::{assign_items_into, AssignWorkspace};
use crate::catalog::{flagged, Catalog, Column, FeatureSlot};
use crate::dist::FeatureAccumulator;
use crate::em::{EmConfig, EmResult, FbWorkspace};
use crate::emission::{EmissionRows, EmissionTable};
use crate::error::{CoreError, Result};
use crate::feature::FeatureSchema;
use crate::incremental::{GridDelta, MassGrid, StatsGrid};
use crate::init::segment_uniform_times_into;
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::{fan_out, job_len, ParallelConfig, JOBS_PER_WORKER};
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
    pub fn push(&mut self, time: Timestamp, item: ItemId) -> Result<()> {
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
/// yields the same chunk (every training pass reloads each chunk and
/// reads the previous pass's breakpoints against it). Chunk `i` covers
/// global users
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

    /// Chunk `index` when the source already holds it in columnar form,
    /// lent without a copy; passes read it in place of
    /// [`Self::load_chunk`]. `None` (the default) means load it.
    fn loaded_chunk(&self, _index: usize) -> Option<&DatasetChunk> {
        None
    }
}

/// Chunk `index` of `source`: lent by the source if it holds it, else
/// loaded into `buffer`.
fn chunk_at<'a, S: ChunkSource + ?Sized>(
    source: &'a S,
    index: usize,
    buffer: &'a mut DatasetChunk,
) -> Result<&'a DatasetChunk> {
    match source.loaded_chunk(index) {
        Some(chunk) => Ok(chunk),
        None => {
            source.load_chunk(index, buffer)?;
            Ok(buffer)
        }
    }
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
        let sequences = &self.dataset.sequences()[start..end];
        let n_actions: usize = sequences.iter().map(ActionSequence::len).sum();
        out.items.reserve(n_actions);
        out.times.reserve(n_actions);
        for seq in sequences {
            let (actions, start) = (seq.actions(), out.times.len());
            out.times.extend(actions.iter().map(|a| a.time));
            // A deserialized dataset skips `ActionSequence::new`, so time
            // order is checked here — once per sequence, on the contiguous
            // copy, with the error `push` would give.
            if let Some(pos) = out.times[start..].windows(2).position(|w| w[1] < w[0]) {
                return Err(CoreError::UnsortedSequence {
                    user: seq.user,
                    position: pos + 1,
                });
            }
            out.users.push(seq.user);
            out.items.extend(actions.iter().map(|a| a.item));
            out.offsets.push(out.items.len());
        }
        Ok(())
    }
}

/// Most users per chunk of an in-memory dataset: small enough to keep a
/// chunk's buffers small, large enough to amortize its bookkeeping.
const IN_MEMORY_CHUNK_USERS: usize = 4096;

/// Users per chunk when the trainer or a decode chunks an in-memory
/// dataset: [`JOBS_PER_WORKER`] chunks per worker thread, at most
/// [`IN_MEMORY_CHUNK_USERS`] users each. Chunking moves no output bit.
pub(crate) fn in_memory_chunk_size(dataset: &Dataset, parallel: &ParallelConfig) -> usize {
    job_len(dataset.n_users(), parallel.threads).min(IN_MEMORY_CHUNK_USERS)
}

/// An in-memory dataset copied **once** into columnar user chunks, which
/// every pass then borrows ([`ChunkSource::loaded_chunk`]) instead of
/// copying them again: the in-memory trainer runs over one, since each
/// of its passes reads every chunk. Costs one columnar copy of the
/// sequences (12 bytes per action) for the life of the value; the item
/// view is the borrowed dataset.
#[derive(Debug, Clone)]
pub struct ChunkedDataset<'a> {
    dataset: &'a Dataset,
    chunk_size: usize,
    chunks: Vec<DatasetChunk>,
}

impl<'a> ChunkedDataset<'a> {
    /// Copies `dataset` into `chunk_size`-user chunks through
    /// [`DatasetChunks::load_chunk`], so it gets the same time-order check.
    pub fn from_dataset(dataset: &'a Dataset, chunk_size: usize) -> Result<Self> {
        let source = DatasetChunks::new(dataset, chunk_size)?;
        let chunks = (0..source.n_chunks())
            .map(|index| {
                let mut chunk = DatasetChunk::new();
                source.load_chunk(index, &mut chunk)?;
                Ok(chunk)
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            dataset,
            chunk_size,
            chunks,
        })
    }
}

impl ChunkSource for ChunkedDataset<'_> {
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
        let chunk = self.loaded_chunk(index).ok_or(CoreError::LengthMismatch {
            context: "chunk index vs chunk count",
            left: index,
            right: self.chunks.len(),
        })?;
        out.clone_from(chunk);
        Ok(())
    }

    fn loaded_chunk(&self, index: usize) -> Option<&DatasetChunk> {
        self.chunks.get(index)
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
    let mut buffer = DatasetChunk::new();
    for index in 0..source.n_chunks() {
        let chunk = chunk_at(source, index, &mut buffer)?;
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
    view.with_sequences(sequences)
}

/// How the chunked hard trainer remembers the previous iteration's
/// skill assignments. Both variants select the same store: each user's
/// path as breakpoints (`O(n_users · S)` memory, one DP per action per
/// pass). The enum and the [`train_chunked`] parameter stay only so that
/// existing callers — the `benchmark/` harness among them — keep
/// compiling; they select nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentStorage {
    /// The breakpoint store.
    #[default]
    InMemory,
    /// The breakpoint store.
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
/// Runs the training pass's chunk fan-out, so it is bitwise identical to
/// [`crate::parallel::assign_all_parallel`] on the materialized dataset
/// for every worker count.
pub fn assign_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    model: &SkillModel,
    parallel: &ParallelConfig,
) -> Result<(SkillAssignments, f64)> {
    parallel.validate()?;
    let table = EmissionTable::build_with_config(model, source.item_view(), parallel)?;
    decode_chunks(source, &table, parallel)
}

/// One decode pass of `source` against any emission-row source: the
/// per-user levels in corpus order and the user-order total
/// log-likelihood.
pub(crate) fn decode_chunks<S, R>(
    source: &S,
    rows: &R,
    parallel: &ParallelConfig,
) -> Result<(SkillAssignments, f64)>
where
    S: ChunkSource + ?Sized,
    R: EmissionRows + Sync + ?Sized,
{
    let mut states = worker_states(source, parallel);
    let pass = run_assignment_pass(source, rows, None, &mut states, None)?;
    let per_user = pass.paths.per_user();
    Ok((SkillAssignments { per_user }, pass.total_ll))
}

/// The initializer (§IV-B): uniform-in-time segmentation of long
/// sequences, streamed chunk by chunk on one worker (the calling
/// thread). [`crate::init::initialize_model`] runs it over an in-memory
/// dataset's chunks, and the trainers run the same pass on their workers.
///
/// Every accumulator receives its observations in the row path's
/// `(user, action)` order (users in corpus order, short users skipped),
/// so the initial model is bitwise identical to
/// [`crate::reference::initialize_model_rows`] on
/// `materialize(source)?`. An invalid value that bypassed
/// `Dataset::new` fails with the first error in `(chunk, user, action,
/// feature)` order.
pub fn initialize_model_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    n_levels: usize,
    min_actions: usize,
    lambda: f64,
) -> Result<SkillModel> {
    initialize_on_workers(
        source,
        n_levels,
        min_actions,
        lambda,
        &ParallelConfig::sequential(),
    )
}

/// Per-worker state of the initialization pass.
struct InitWorker {
    chunk: DatasetChunk,
    /// Categorical counts of every chunk this worker took, per level and
    /// feature; the count and real cells stay empty.
    counts: Vec<Vec<FeatureAccumulator>>,
}

/// One chunk's qualifying actions, in chunk user and action order.
struct InitOutcome {
    items: Vec<ItemId>,
    /// Uniform-segmentation level of each action in `items`.
    levels: Vec<SkillLevel>,
}

/// An empty accumulator per level and feature.
fn accumulator_grid(schema: &FeatureSchema, n_levels: usize) -> Vec<Vec<FeatureAccumulator>> {
    (0..n_levels)
        .map(|_| {
            schema
                .kinds()
                .iter()
                .map(|&k| FeatureAccumulator::new(k))
                .collect()
        })
        .collect()
}

/// The catalog as the initialization pass reads it: the typed columns,
/// split by who folds them, and the items whose slots take the row path.
struct InitColumns<'a> {
    catalog: Catalog<'a>,
    n_items: usize,
    /// Items with a slot the columns do not carry typed (a poisoned item
    /// or a guarded real); empty when there are none.
    untyped: Vec<bool>,
    /// `(feature, codes)` of each categorical feature: counted by the
    /// workers.
    categorical: Vec<(usize, &'a [u32])>,
    /// `(feature, column)` of each count and positive-real feature:
    /// folded by the calling thread.
    reals: Vec<(usize, &'a Column)>,
}

impl<'a> InitColumns<'a> {
    fn new(view: &'a Dataset) -> Self {
        let catalog = view.catalog();
        let columns = catalog.columns();
        let mut untyped = columns.hard_poison().to_vec();
        let (mut categorical, mut reals) = (Vec::new(), Vec::new());
        for (f, column) in columns.columns().iter().enumerate() {
            match column {
                Column::Categorical(codes) => categorical.push((f, codes.as_slice())),
                Column::Count { .. } => reals.push((f, column)),
                Column::Real { guard, .. } => {
                    if untyped.len() < guard.len() {
                        untyped.resize(guard.len(), false);
                    }
                    for (u, &g) in untyped.iter_mut().zip(guard) {
                        *u |= g;
                    }
                    reals.push((f, column));
                }
            }
        }
        Self {
            catalog,
            n_items: view.n_items(),
            untyped,
            categorical,
            reals,
        }
    }

    /// Adds one action's categorical features to its level's row of
    /// `counts` and checks its other features, in feature order. An
    /// untyped count or real takes the row path on the calling thread;
    /// whether that push fails depends on the value alone, so pushing it
    /// into a fresh accumulator here meets the same error.
    #[inline]
    fn count(
        &self,
        item: ItemId,
        level: SkillLevel,
        counts: &mut [Vec<FeatureAccumulator>],
    ) -> Result<()> {
        let i = item as usize;
        if i >= self.n_items {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: i,
                len: self.n_items,
            });
        }
        let row = level_row(counts, level)?;
        if flagged(&self.untyped, i) {
            for (acc, slot) in row.iter_mut().zip(self.catalog.item(i)?) {
                match (&*acc, slot) {
                    (FeatureAccumulator::Categorical { .. }, _) => acc.push_slot(slot, 1.0)?,
                    (_, FeatureSlot::Row(_)) => {
                        FeatureAccumulator::new(acc.kind()).push_slot(slot, 1.0)?
                    }
                    _ => {}
                }
            }
            return Ok(());
        }
        for &(f, codes) in &self.categorical {
            if let (Some(acc), Some(&c)) = (row.get_mut(f), codes.get(i)) {
                acc.push_slot(FeatureSlot::Categorical(c), 1.0)?;
            }
        }
        Ok(())
    }

    /// Pushes the count and positive-real features of `items`, a run of
    /// actions at one level, into that level's `row`, in action order.
    /// Over a catalog whose slots are all typed, each feature's run is
    /// one typed loop over its column with the sums held in registers
    /// (the additions of `push_slot` at weight 1, in the same order);
    /// otherwise every slot goes through `push_slot`, untyped ones on
    /// the row path.
    fn fold_run(&self, items: &[ItemId], row: &mut [FeatureAccumulator]) -> Result<()> {
        for &(f, column) in &self.reals {
            let Some(acc) = row.get_mut(f) else {
                continue;
            };
            match (acc, column) {
                (FeatureAccumulator::Count { sum, n }, Column::Count { ks, .. })
                    if self.untyped.is_empty() =>
                {
                    let (mut s, mut m) = (*sum, *n);
                    for &k in items.iter().filter_map(|&item| ks.get(item as usize)) {
                        s += k;
                        m += 1.0;
                    }
                    (*sum, *n) = (s, m);
                }
                (FeatureAccumulator::Positive { stats, .. }, Column::Real { xs, ln_xs, .. })
                    if self.untyped.is_empty() =>
                {
                    let mut local = *stats;
                    for &item in items {
                        let i = item as usize;
                        if let (Some(&x), Some(&ln_x)) = (xs.get(i), ln_xs.get(i)) {
                            local.push_ln_n(x, ln_x, 1.0);
                        }
                    }
                    *stats = local;
                }
                (acc, _) => {
                    let feature = self.catalog.feature(f);
                    for &item in items {
                        acc.push_slot(feature.slot(item as usize), 1.0)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The accumulator row of `level` (1-based).
#[inline]
fn level_row(
    grid: &mut [Vec<FeatureAccumulator>],
    level: SkillLevel,
) -> Result<&mut [FeatureAccumulator]> {
    let requested = usize::from(level);
    grid.get_mut(requested.wrapping_sub(1))
        .map(Vec::as_mut_slice)
        .ok_or(CoreError::InvalidSkillCount { requested })
}

/// [`initialize_model_chunked`] on `parallel`'s chunk workers, one chunk
/// per worker per wave.
///
/// Workers load a chunk, segment its qualifying users, add the
/// categorical features of their actions into per-worker counts (sums
/// of whole weights, exact in any order) and hand back the actions' items
/// and levels. The calling thread folds the count and positive-real
/// statistics (`f64` sums, so the order matters) in chunk, user and
/// action order. A worker also checks every feature the calling thread
/// will fold, in `(user, action, feature)` order, so the first error in
/// chunk order is the one the one-worker fold meets first. Bitwise
/// identical for any worker count.
pub(crate) fn initialize_on_workers<S: ChunkSource + ?Sized>(
    source: &S,
    n_levels: usize,
    min_actions: usize,
    lambda: f64,
    parallel: &ParallelConfig,
) -> Result<SkillModel> {
    if n_levels == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    if source.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let view = source.item_view();
    let schema = view.schema();
    let columns = InitColumns::new(view);
    let n_chunks = source.n_chunks();
    let mut states: Vec<InitWorker> = (0..parallel.workers_for_chunks(n_chunks))
        .map(|_| InitWorker {
            chunk: DatasetChunk::new(),
            counts: accumulator_grid(schema, n_levels),
        })
        .collect();
    let mut grid = accumulator_grid(schema, n_levels);
    let mut qualifying_actions = 0usize;
    fan_out(
        n_chunks,
        states.len(),
        &mut states,
        "chunked initialization",
        |index, state| init_chunk(source, &columns, n_levels, min_actions, index, state),
        |outcome| {
            qualifying_actions += outcome.items.len();
            // Runs of one level: one accumulator row each.
            let mut items = outcome.items.as_slice();
            for run in outcome.levels.chunk_by(|a, b| a == b) {
                let (head, tail) = items.split_at(run.len().min(items.len()));
                let level = run.first().copied().unwrap_or(0);
                columns.fold_run(head, level_row(&mut grid, level)?)?;
                items = tail;
            }
            Ok(())
        },
    )?;
    if qualifying_actions == 0 {
        return Err(CoreError::NoInitializationUsers {
            threshold: min_actions,
        });
    }
    for state in &states {
        for (row, counts) in grid.iter_mut().zip(&state.counts) {
            for (acc, count) in row.iter_mut().zip(counts) {
                if let FeatureAccumulator::Categorical { .. } = count {
                    acc.merge(count)?;
                }
            }
        }
    }
    let cells = fit_cells(&grid, lambda)?;
    SkillModel::new(schema.clone(), n_levels, cells)
}

/// Segments one chunk's qualifying users and counts their categorical
/// features into the worker's counts.
fn init_chunk<S: ChunkSource + ?Sized>(
    source: &S,
    columns: &InitColumns<'_>,
    n_levels: usize,
    min_actions: usize,
    index: usize,
    state: &mut InitWorker,
) -> Result<InitOutcome> {
    let chunk = chunk_at(source, index, &mut state.chunk)?;
    let qualifies = |u: &usize| chunk.user_items(*u).len() >= min_actions;
    let n: usize = (0..chunk.n_users())
        .filter(qualifies)
        .map(|u| chunk.user_items(u).len())
        .sum();
    let mut out = InitOutcome {
        items: Vec::with_capacity(n),
        levels: Vec::with_capacity(n),
    };
    for u in (0..chunk.n_users()).filter(qualifies) {
        let items = chunk.user_items(u);
        let start = out.levels.len();
        segment_uniform_times_into(chunk.user_times(u), n_levels, &mut out.levels);
        for (&item, &level) in items.iter().zip(&out.levels[start..]) {
            columns.count(item, level, &mut state.counts)?;
        }
        out.items.extend_from_slice(items);
    }
    Ok(out)
}

/// One user's monotone path as breakpoints. Eq. 4 allows only stay or +1
/// between consecutive actions, so the path is its first level plus the
/// positions where it advances. The live users of [`crate::streaming`]
/// keep their paths this way too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Path<'a> {
    /// Actions on the path.
    pub(crate) len: usize,
    /// Level of the first action (0 for an empty path).
    pub(crate) start: SkillLevel,
    /// Ascending positions `t` in `1..len` with `level[t] = level[t − 1] + 1`.
    /// (A live user's path resumed from a bundle may climb more than one
    /// level at `t`; `t` then repeats once per level.)
    pub(crate) advances: &'a [u32],
}

impl Path<'_> {
    /// Appends the path's per-action levels to `out`.
    pub(crate) fn expand_into(self, out: &mut Vec<SkillLevel>) {
        let (mut level, mut from) = (self.start, 0);
        for &t in self.advances {
            out.resize(out.len() + (t as usize - from), level);
            (level, from) = (level + 1, t as usize);
        }
        out.resize(out.len() + (self.len - from), level);
    }
}

/// `len` as a position on a stored path, which counts actions in `u32`.
pub(crate) fn path_position(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| CoreError::LengthMismatch {
        context: "sequence length vs stored path limit",
        left: len,
        right: u32::MAX as usize,
    })
}

/// Walks the breakpoints of two paths over the same actions in step and
/// calls `moved(run, was, now)` for every maximal run of actions whose
/// level moved from `was` to `now`, in action order. Runs where the paths
/// agree are skipped without visiting their actions, so the walk costs
/// `O(S)` plus the moved runs.
fn for_each_moved_run(
    old: Path<'_>,
    new: Path<'_>,
    mut moved: impl FnMut(Range<usize>, SkillLevel, SkillLevel) -> Result<()>,
) -> Result<()> {
    let len = old.len;
    let at = |advances: &[u32], k: usize| advances.get(k).map_or(len, |&t| t as usize);
    let (mut i, mut j, mut from) = (0, 0, 0);
    let (mut was, mut now) = (old.start, new.start);
    while from < len {
        let (next_old, next_new) = (at(old.advances, i), at(new.advances, j));
        let to = next_old.min(next_new);
        if was != now {
            moved(from..to, was, now)?;
        }
        if to < len && next_old == to {
            (was, i) = (was + 1, i + 1);
        }
        if to < len && next_new == to {
            (now, j) = (now + 1, j + 1);
        }
        from = to;
    }
    Ok(())
}

/// Per-user header of a stored path.
#[derive(Debug)]
struct PathHead {
    len: u32,
    start: SkillLevel,
    n_advances: SkillLevel,
}

/// One chunk's paths, in chunk user order, as breakpoints in a flat
/// layout: about `4·S` bytes per user, where a level per action costs a
/// byte per action.
#[derive(Debug, Default)]
struct ChunkPaths {
    heads: Vec<PathHead>,
    /// Every user's advance positions, concatenated in user order.
    advances: Vec<u32>,
}

impl ChunkPaths {
    /// Appends the path `levels`, whose steps must be stay or +1 (the
    /// DP's paths are). Each advance is found by binary search over the
    /// sorted levels, so the cost is `O(S · log len)`, not `O(len)`.
    fn push(&mut self, levels: &[SkillLevel]) -> Result<()> {
        let len = path_position(levels.len())?;
        let before = self.advances.len();
        let mut from = 0;
        while let Some(&level) = levels.get(from) {
            from += levels[from..].partition_point(|&l| l == level);
            if from < levels.len() {
                self.advances.push(from as u32);
            }
        }
        let n_advances = self.advances.len() - before;
        self.heads.push(PathHead {
            len,
            start: levels.first().copied().unwrap_or(0),
            n_advances: SkillLevel::try_from(n_advances).map_err(|_| {
                CoreError::InvalidSkillCount {
                    requested: n_advances + 1,
                }
            })?,
        });
        Ok(())
    }

    /// The stored paths, in user order.
    fn paths(&self) -> impl Iterator<Item = Path<'_>> {
        let mut rest = self.advances.as_slice();
        self.heads.iter().map(move |head| {
            let (advances, tail) = rest.split_at(usize::from(head.n_advances).min(rest.len()));
            rest = tail;
            Path {
                len: head.len as usize,
                start: head.start,
                advances,
            }
        })
    }
}

/// The levels of one pass as the next pass reads them: one
/// [`ChunkPaths`] per chunk, in chunk order.
#[derive(Debug, Default)]
pub(crate) struct PathStore {
    chunks: Vec<ChunkPaths>,
}

impl PathStore {
    /// Chunk `index`'s paths, which must hold one path per user of
    /// `chunk`.
    fn chunk(&self, index: usize, chunk: &DatasetChunk) -> Result<&ChunkPaths> {
        let paths = self.chunks.get(index).ok_or(CoreError::LengthMismatch {
            context: "chunk index vs stored chunks",
            left: index,
            right: self.chunks.len(),
        })?;
        if paths.heads.len() != chunk.n_users() {
            return Err(CoreError::LengthMismatch {
                context: "stored paths vs chunk users",
                left: paths.heads.len(),
                right: chunk.n_users(),
            });
        }
        Ok(paths)
    }

    /// Every stored path's levels, one vector per user in corpus order.
    pub(crate) fn per_user(&self) -> Vec<Vec<SkillLevel>> {
        let paths = self.chunks.iter().flat_map(ChunkPaths::paths);
        paths
            .map(|path| {
                let mut levels = Vec::with_capacity(path.len);
                path.expand_into(&mut levels);
                levels
            })
            .collect()
    }

    /// [`Self::per_user`] for a corpus whose users have `user_lens`
    /// actions, corpus order. A store holding another number of paths, or
    /// a path of another length, is a [`CoreError::LengthMismatch`].
    pub(crate) fn expand(
        &self,
        user_lens: impl ExactSizeIterator<Item = usize>,
    ) -> Result<Vec<Vec<SkillLevel>>> {
        let stored: usize = self.chunks.iter().map(|c| c.heads.len()).sum();
        if stored != user_lens.len() {
            return Err(CoreError::LengthMismatch {
                context: "stored paths vs users",
                left: stored,
                right: user_lens.len(),
            });
        }
        let heads = self.chunks.iter().flat_map(|c| &c.heads);
        if let Some((head, len)) = heads.zip(user_lens).find(|(h, len)| h.len as usize != *len) {
            return Err(CoreError::LengthMismatch {
                context: "stored path vs sequence length",
                left: head.len as usize,
                right: len,
            });
        }
        Ok(self.per_user())
    }
}

/// Per-worker reusable state for the hard assignment pass. One worker owns
/// one chunk buffer, one DP workspace, and (when the pass maintains a
/// [`StatsGrid`]) the grid changes of the chunks it processed.
#[derive(Default)]
struct WorkerState {
    chunk: DatasetChunk,
    ws: AssignWorkspace,
    /// The current chunk's new levels, flat in chunk action order.
    levels: Vec<SkillLevel>,
    /// A user's incumbent levels, expanded for the optimality check (only
    /// when checks are compiled in).
    incumbent: Vec<SkillLevel>,
    /// Per cell: actions that moved in minus actions that moved out.
    delta: Option<GridDelta>,
    /// Per cell: actions now there — the invariant layer's recount of the
    /// grid (only when checks are compiled in).
    recount: Option<GridDelta>,
    /// Actions per level, counted when no grid is maintained (a grid
    /// holds the same totals).
    histogram: Vec<u64>,
}

/// One state per worker a pass over `source` runs on; a trainer keeps
/// them for all its passes.
fn worker_states<S: ChunkSource + ?Sized>(
    source: &S,
    parallel: &ParallelConfig,
) -> Vec<WorkerState> {
    let n_workers = parallel.workers_for_chunks(source.n_chunks());
    std::iter::repeat_with(WorkerState::default)
        .take(n_workers)
        .collect()
}

/// What one worker hands back per chunk (the worker-local grid delta
/// stays in [`WorkerState`] and is added once per pass).
struct ChunkOutcome {
    /// Per-user log-likelihoods, in chunk user order.
    user_lls: Vec<f64>,
    /// The chunk's new paths.
    paths: ChunkPaths,
    /// Actions whose level moved vs. the previous iteration.
    n_changed: usize,
}

/// DP + statistics + churn for one chunk, with the per-sequence checks of
/// [`crate::invariants`]: every new path is monotone and scores at least
/// its incumbent under the same rows.
///
/// With a grid delta in `state`, the chunk's grid changes go into it: on
/// the first pass every action, afterwards only the actions whose level
/// moved off the incumbent in `prev` — the churn, which falls fast, so
/// later passes touch few cells. Without one, actions are counted per
/// level.
fn process_chunk<S, R>(
    source: &S,
    rows: &R,
    prev: Option<&PathStore>,
    chunk_index: usize,
    state: &mut WorkerState,
) -> Result<ChunkOutcome>
where
    S: ChunkSource + ?Sized,
    R: EmissionRows + ?Sized,
{
    let ctx = InvariantCtx::new();
    let WorkerState {
        chunk,
        ws,
        levels,
        incumbent,
        delta,
        recount,
        histogram,
    } = state;
    let chunk = chunk_at(source, chunk_index, chunk)?;
    let mut user_lls = Vec::with_capacity(chunk.n_users());
    let mut paths = ChunkPaths {
        heads: Vec::with_capacity(chunk.n_users()),
        advances: Vec::new(),
    };
    levels.clear();
    for u in 0..chunk.n_users() {
        let ll = assign_items_into(rows, chunk.user_items(u), ws, levels)?;
        let new = &levels[chunk.offsets[u]..];
        ctx.check_sequence_monotone("chunked training assignment", new)?;
        paths.push(new)?;
        user_lls.push(ll);
    }
    if delta.is_none() {
        levels
            .iter()
            .for_each(|&level| histogram[level as usize - 1] += 1);
    }
    if let Some(r) = recount.as_mut() {
        for (&item, &now) in chunk.items().iter().zip(levels.iter()) {
            r.shift(item, now, 1)?;
        }
    }
    // Empty on the first pass, so every `old` below is `None`.
    let mut olds = prev
        .map(|store| store.chunk(chunk_index, chunk))
        .transpose()?
        .into_iter()
        .flat_map(ChunkPaths::paths);
    let mut n_changed = 0usize;
    for (u, (new, &new_ll)) in paths.paths().zip(&user_lls).enumerate() {
        let items = chunk.user_items(u);
        let old = olds.next();
        match (old, delta.as_mut()) {
            (Some(old), _) if old == new => {}
            (Some(old), mut delta) => {
                if old.len != new.len {
                    return Err(CoreError::LengthMismatch {
                        context: "previous vs next assignment lengths",
                        left: old.len,
                        right: new.len,
                    });
                }
                for_each_moved_run(old, new, |run, was, now| {
                    n_changed += run.len();
                    if let Some(d) = delta.as_deref_mut() {
                        for &item in &items[run] {
                            d.shift(item, was, -1)?;
                            d.shift(item, now, 1)?;
                        }
                    }
                    Ok(())
                })?;
            }
            (None, Some(d)) => {
                let span = chunk.offsets[u]..chunk.offsets[u + 1];
                for (&item, &now) in items.iter().zip(&levels[span]) {
                    d.shift(item, now, 1)?;
                }
            }
            (None, None) => {}
        }
        let incumbent = match old.filter(|_| ctx.enabled()) {
            Some(old) => {
                incumbent.clear();
                old.expand_into(incumbent);
                Some(incumbent.as_slice())
            }
            None => None,
        };
        ctx.check_sequence_optimal("training assignment step", rows, items, incumbent, new_ll)?;
    }
    // The store outlives the pass: drop the growth slack.
    paths.advances.shrink_to_fit();
    Ok(ChunkOutcome {
        user_lls,
        paths,
        n_changed,
    })
}

/// Result of one full assignment pass over the chunk stream.
struct PassResult {
    /// Total log-likelihood, folded in global user order.
    total_ll: f64,
    /// Total churn vs. the previous iteration (`None` on the first pass).
    n_changed: Option<usize>,
    /// Actions per level, when the pass maintained no grid.
    histogram: Vec<u64>,
    /// The new levels, as breakpoints.
    paths: PathStore,
}

/// Actions per level (`totals[s - 1]`) counted in `grid`.
fn level_totals(grid: &StatsGrid) -> Vec<u64> {
    let row = |s| (0..grid.n_items()).map(|i| grid.count(s, i)).sum();
    (0..grid.n_levels()).map(row).collect()
}

/// One sharded assignment pass: chunks are processed by
/// [`fan_out`] on the given workers, each owning its buffers and a
/// grid delta; results are applied **in chunk order**, so the
/// log-likelihood fold is the global user-order fold whatever the worker
/// count.
///
/// With a `grid` — empty on the first pass, holding the incumbent levels
/// `prev` after — the pass moves it to the new levels; without one it
/// counts actions per level into [`PassResult::histogram`].
fn run_assignment_pass<S, R>(
    source: &S,
    rows: &R,
    prev: Option<&PathStore>,
    states: &mut [WorkerState],
    mut grid: Option<&mut StatsGrid>,
) -> Result<PassResult>
where
    S: ChunkSource + ?Sized,
    R: EmissionRows + Sync + ?Sized,
{
    let (n_levels, n_items) = (rows.n_levels(), source.item_view().n_items());
    let ctx = InvariantCtx::new();
    for state in states.iter_mut() {
        match grid {
            Some(_) => {
                // Kept across passes: `add_delta` zeroes them.
                state
                    .delta
                    .get_or_insert_with(|| GridDelta::new(n_levels, n_items));
                if ctx.enabled() {
                    state
                        .recount
                        .get_or_insert_with(|| GridDelta::new(n_levels, n_items));
                }
            }
            None => (state.delta, state.recount) = (None, None),
        }
        state.histogram.clear();
        state.histogram.resize(n_levels, 0);
    }

    let mut total_ll = 0.0;
    let mut n_changed_total = 0usize;
    let mut paths = PathStore::default();
    fan_out(
        source.n_chunks(),
        states.len() * JOBS_PER_WORKER,
        states,
        "chunked assignment",
        |index, state| process_chunk(source, rows, prev, index, state),
        |outcome| {
            // The f64 fold is order-sensitive, the rest is integer
            // bookkeeping.
            for ll in &outcome.user_lls {
                total_ll += ll;
            }
            n_changed_total += outcome.n_changed;
            paths.chunks.push(outcome.paths);
            Ok(())
        },
    )?;

    // Add up the per-worker partials. Integer counts: order-free, exact.
    let mut histogram = vec![0u64; n_levels];
    for state in states.iter_mut() {
        for (h, &p) in histogram.iter_mut().zip(&state.histogram) {
            *h += p;
        }
        if let (Some(g), Some(delta)) = (grid.as_deref_mut(), state.delta.as_mut()) {
            g.add_delta(delta)?;
        }
    }
    if let Some(g) = grid {
        let recounts = states.iter_mut().filter_map(|s| s.recount.as_mut());
        ctx.check_grid_recount("chunked training grid", g, recounts)?;
    }
    Ok(PassResult {
        total_ll,
        n_changed: prev.map(|_| n_changed_total),
        histogram,
        paths,
    })
}

/// The hard trainer (paper §IV-B/C), chunk at a time; it is also
/// [`crate::train::train_with_parallelism`]'s loop, over [`DatasetChunks`].
///
/// Every stage streams the corpus through fixed-size chunks. Besides
/// `chunk_size × workers` of chunk buffers, the `n_items × S` emission
/// table and grid and the one model (refit in place each iteration by
/// [`StatsGrid::refit`]), the only state is the previous pass's levels
/// as breakpoints, `O(n_users · S)` — never one entry per action.
/// `storage` selects nothing: see [`AssignmentStorage`].
///
/// **Bitwise contract**: the model, log-likelihood, per-iteration trace
/// (`log_likelihood` / `n_changed`), and convergence decision are
/// bitwise identical for any `chunk_size` and worker count, and equal to
/// [`crate::reference::train_full_rescan`]'s assignments and churn. This
/// holds because log-likelihoods fold in global user order, sufficient
/// statistics are exact integer counts added order-free, and a cell
/// refit is a pure function of its histogram row — so reused rows equal
/// refit rows bit for bit.
pub fn train_chunked<S: ChunkSource + ?Sized>(
    source: &S,
    config: &TrainConfig,
    parallel: &ParallelConfig,
    _storage: AssignmentStorage,
) -> Result<ChunkedTrainResult> {
    Ok(train_chunked_keeping(source, config, parallel)?.0)
}

/// [`train_chunked`], also returning the final pass's levels as
/// breakpoints, which [`ChunkedTrainResult`] leaves out.
pub(crate) fn train_chunked_keeping<S: ChunkSource + ?Sized>(
    source: &S,
    config: &TrainConfig,
    parallel: &ParallelConfig,
) -> Result<(ChunkedTrainResult, PathStore)> {
    config.validate()?;
    parallel.validate()?;
    if source.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let view = source.item_view();
    let (n, min, lambda) = (config.n_levels, config.min_init_actions, config.lambda);
    let mut model = initialize_on_workers(source, n, min, lambda, parallel)?;
    let mut incumbent: Option<PathStore> = None;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut trace = Vec::new();
    // Moved pass by pass from the incumbent levels to the new ones, so it
    // always holds the statistics of the latest levels.
    let mut grid = StatsGrid::new(n, view.n_items())?;
    let mut table: Option<EmissionTable> = None;
    let mut refit_levels: Vec<bool> = Vec::new();
    let mut states = worker_states(source, parallel);

    for iteration in 1..=config.max_iterations {
        let iter_start = Instant::now();
        let t = EmissionTable::refresh_or_build(&mut table, &model, view, parallel, &refit_levels)?;
        let pass =
            run_assignment_pass(source, t, incumbent.as_ref(), &mut states, Some(&mut grid))?;
        let ll = pass.total_ll;
        let stable = pass.n_changed == Some(0);
        let small_gain = prev_ll.is_finite()
            && (ll - prev_ll).abs() <= config.tolerance * prev_ll.abs().max(1.0);
        // The pass marked the levels whose counts moved (moves that cancel
        // out leave a row clean, which is bitwise harmless: an unchanged
        // row refits to the distributions it already has).
        refit_levels = grid.dirty_levels().to_vec();
        grid.refit(view, config.lambda, parallel, &mut model)?;
        trace.push(IterationStats {
            iteration,
            log_likelihood: ll,
            n_changed: pass.n_changed,
            seconds: iter_start.elapsed().as_secs_f64(),
        });
        if stable || small_gain {
            let result = ChunkedTrainResult {
                model,
                log_likelihood: ll,
                trace,
                converged: true,
                level_histogram: level_totals(&grid),
                n_users: source.n_users(),
                n_actions: source.n_actions(),
            };
            return Ok((result, pass.paths));
        }
        // The next pass diffs against this one's levels.
        incumbent = Some(pass.paths);
        prev_ll = ll;
    }

    // Iteration cap reached: one closing assignment pass (no update step)
    // so the reported objective matches the final model, recorded as a
    // trailing trace entry.
    let iter_start = Instant::now();
    let t = EmissionTable::refresh_or_build(&mut table, &model, view, parallel, &refit_levels)?;
    let pass = run_assignment_pass(source, t, incumbent.as_ref(), &mut states, Some(&mut grid))?;
    trace.push(IterationStats {
        iteration: config.max_iterations + 1,
        log_likelihood: pass.total_ll,
        n_changed: pass.n_changed,
        seconds: iter_start.elapsed().as_secs_f64(),
    });
    let result = ChunkedTrainResult {
        model,
        log_likelihood: pass.total_ll,
        trace,
        converged: false,
        level_histogram: level_totals(&grid),
        n_users: source.n_users(),
        n_actions: source.n_actions(),
    };
    Ok((result, pass.paths))
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
    let chunk = chunk_at(source, chunk_index, &mut state.chunk)?;
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

/// The EM loop, chunk at a time; it is also
/// [`crate::em::train_em_with_parallelism`]'s loop, over
/// [`ChunkedDataset`].
///
/// Workers run the flat-buffer forward–backward per chunk. The calling
/// thread folds evidences in global user order and posterior rows into
/// a fresh [`MassGrid`] in global action order, and the model is refit
/// from that grid in place ([`MassGrid::refit`]). So the evidence trace
/// and fitted model are bitwise
/// identical for any `chunk_size` and worker count, and agree with the
/// per-action accumulation of [`crate::reference::train_em_full`] to
/// rounding. Posterior rows live only in one wave's outcomes and the
/// grid is catalog-sized, so memory stays bounded by
/// `chunk_size × workers × S` plus `S × n_items`.
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
        let table = EmissionTable::build_with_config(&model, view, parallel)?;
        let mut mass = MassGrid::new(n_levels, view.n_items())?;
        let mut evidence = 0.0;
        // Apply in chunk order: evidence folds in user order, mass in
        // global action order. One chunk per worker per wave keeps the
        // posterior buffers at `chunk_size × workers × S`.
        fan_out(
            n_chunks,
            states.len(),
            &mut states,
            "chunked forward-backward",
            |index, state| process_chunk_em(source, &table, n_levels, index, state),
            |outcome| {
                for &ev in &outcome.user_evidences {
                    evidence += ev;
                }
                for (&item, gamma) in outcome.items.iter().zip(outcome.gammas.chunks(n_levels)) {
                    mass.add(item, gamma)?;
                }
                Ok(())
            },
        )?;
        trace.push(evidence);
        mass.refit(view, config.lambda, parallel, &mut model)?;

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
    let mut states = worker_states(source, parallel);
    let pass = run_assignment_pass(source, &table, None, &mut states, None)?;
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
        for size in [1, 2, in_memory_chunk_size(&ds, &ParallelConfig::all(2))] {
            let adapter = DatasetChunks::new(&ds, size).unwrap();
            let owned = ChunkedDataset::from_dataset(&ds, size).unwrap();
            assert_eq!(owned.n_chunks(), adapter.n_chunks());
            let mut a = DatasetChunk::new();
            let mut b = DatasetChunk::new();
            for i in 0..adapter.n_chunks() {
                adapter.load_chunk(i, &mut a).unwrap();
                owned.load_chunk(i, &mut b).unwrap();
                for c in [&b, owned.loaded_chunk(i).unwrap()] {
                    assert_eq!((c.index(), c.user_offset()), (a.index(), a.user_offset()));
                    assert_eq!((c.users(), c.items()), (a.users(), a.items()));
                    assert_eq!((&c.offsets, &c.times), (&a.offsets, &a.times));
                }
            }
            assert!(owned.loaded_chunk(adapter.n_chunks()).is_none());
            assert!(owned.load_chunk(adapter.n_chunks(), &mut b).is_err());
        }
        // Two workers get several chunks each.
        assert_eq!(in_memory_chunk_size(&ds, &ParallelConfig::all(2)), 1);
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
        let expect = crate::reference::initialize_model_rows(&ds, 3, 8, 0.05).unwrap();
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
        let rows = |n_levels, min_actions| {
            crate::reference::initialize_model_rows(&ds, n_levels, min_actions, 0.05)
        };
        assert!(matches!(
            initialize_model_chunked(&chunks, 0, 1, 0.05),
            Err(CoreError::InvalidSkillCount { requested: 0 })
        ));
        assert_eq!(initialize_model_chunked(&chunks, 0, 1, 0.05), rows(0, 1));
        assert_eq!(
            initialize_model_chunked(&chunks, 3, 10_000, 0.05).unwrap_err(),
            CoreError::NoInitializationUsers { threshold: 10_000 }
        );
        assert_eq!(
            initialize_model_chunked(&chunks, 3, 10_000, 0.05),
            rows(3, 10_000)
        );
    }

    /// A value of `kind` from one draw; counts above 2^53 half the time,
    /// so their `f64` sums depend on the fold order.
    fn mixed_value(kind: FeatureKind, draw: u64) -> FeatureValue {
        match kind {
            FeatureKind::Categorical { cardinality } => {
                FeatureValue::Categorical((draw % u64::from(cardinality)) as u32)
            }
            FeatureKind::Count if draw.is_multiple_of(2) => {
                FeatureValue::Count((1 << 53) + draw % (1 << 40))
            }
            FeatureKind::Count => FeatureValue::Count(draw % 50),
            FeatureKind::Positive { .. } => FeatureValue::Real(0.05 + (draw % 997) as f64 / 13.0),
        }
    }

    fn mixed_kind(code: u8) -> FeatureKind {
        match code % 4 {
            0 => FeatureKind::Categorical {
                cardinality: 2 + u32::from(code / 4),
            },
            1 => FeatureKind::Count,
            2 => FeatureKind::Positive {
                model: crate::feature::PositiveModel::Gamma,
            },
            _ => FeatureKind::Positive {
                model: crate::feature::PositiveModel::LogNormal,
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        // The trainer's initializer on 1, 2 and 3 workers, over chunks of
        // 1, 3, 64 and 257 users, equals the in-memory initializer on the
        // materialized corpus bit for bit, errors included.
        #[test]
        fn initialization_is_worker_count_free(
            kinds in proptest::collection::vec(0u8..16, 1..5),
            draws in proptest::collection::vec(0u64..u64::MAX, 1..30),
            users in proptest::collection::vec(
                proptest::collection::vec((0usize..1000, 0i64..4), 1..25),
                1..40,
            ),
            n_levels in 1usize..6,
            min_actions in 1usize..12,
        ) {
            let schema = FeatureSchema::new(kinds.iter().map(|&k| mixed_kind(k)).collect())
                .unwrap();
            let items: Vec<Vec<FeatureValue>> = draws
                .iter()
                .map(|&d| {
                    let kinds = schema.kinds().iter().enumerate();
                    kinds.map(|(f, &k)| mixed_value(k, d.rotate_left(f as u32 * 7))).collect()
                })
                .collect();
            let sequences = users
                .iter()
                .enumerate()
                .map(|(u, draws)| {
                    let mut time = -5;
                    let actions = draws
                        .iter()
                        .map(|&(pick, gap)| {
                            time += gap;
                            Action::new(time, u as u32, (pick % items.len()) as u32)
                        })
                        .collect();
                    ActionSequence::new(u as u32, actions).unwrap()
                })
                .collect();
            let ds = Dataset::new(schema, items, sequences).unwrap();
            let bits = |m: Result<SkillModel>| m.map(|m| format!("{m:?}"));
            let want = bits(crate::reference::initialize_model_rows(
                &materialize(&DatasetChunks::new(&ds, 7).unwrap()).unwrap(),
                n_levels,
                min_actions,
                0.01,
            ));
            for chunk_size in [1, 3, 64, 257] {
                let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
                for workers in 1..=3 {
                    let parallel = ParallelConfig::all(workers);
                    let got = initialize_on_workers(&chunks, n_levels, min_actions, 0.01, &parallel);
                    assert_eq!(bits(got), want, "chunk size {chunk_size}, {workers} workers");
                }
            }
        }
    }

    /// The per-action row path of the one-worker initializer before it
    /// ran on workers: the order every error must keep.
    fn row_path_init(ds: &Dataset, n_levels: usize, min_actions: usize) -> Result<String> {
        let catalog = ds.catalog();
        let mut grid = accumulator_grid(ds.schema(), n_levels);
        let mut any = false;
        for seq in ds.sequences().iter().filter(|s| s.len() >= min_actions) {
            any = true;
            let levels = crate::reference::segment_uniform(seq, n_levels);
            for (action, level) in seq.actions().iter().zip(levels) {
                let row = &mut grid[usize::from(level) - 1];
                for (acc, slot) in row.iter_mut().zip(catalog.item(action.item as usize)?) {
                    acc.push_slot(slot, 1.0)?;
                }
            }
        }
        if !any {
            return Err(CoreError::NoInitializationUsers {
                threshold: min_actions,
            });
        }
        let model = SkillModel::new(ds.schema().clone(), n_levels, fit_cells(&grid, 0.01)?)?;
        Ok(format!("{model:?}"))
    }

    #[test]
    fn initialization_errors_come_in_chunk_user_action_feature_order() {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Positive {
                model: crate::feature::PositiveModel::Gamma,
            },
            FeatureKind::Count,
        ])
        .unwrap();
        let clean = |i: u32| {
            vec![
                FeatureValue::Categorical(i % 3),
                FeatureValue::Real(1.5 + f64::from(i)),
                FeatureValue::Count(u64::from(i)),
            ]
        };
        // One user per template: clean, then one with each bad item, and
        // a short one (never initialized from) holding the worst items.
        let templates: [&[u32]; 7] = [
            &[0, 4, 0, 4, 0],
            &[0, 0, 1, 0, 0],
            &[0, 2, 0, 0, 0],
            &[0, 0, 0, 3, 0],
            &[5, 0, 0, 0, 0],
            &[0, 6, 0, 0, 0],
            &[5, 6],
        ];
        let mut seed = 17u64;
        for case in 0..40 {
            let mut order: Vec<usize> = (0..templates.len()).collect();
            for k in (1..order.len()).rev() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(k, (seed >> 33) as usize % (k + 1));
            }
            let sequences = order
                .iter()
                .enumerate()
                .map(|(u, &t)| {
                    let actions = templates[t]
                        .iter()
                        .enumerate()
                        .map(|(a, &item)| Action::new(a as i64, u as u32, item))
                        .collect();
                    ActionSequence::new(u as u32, actions).unwrap()
                })
                .collect();
            let mut ds =
                Dataset::new(schema.clone(), (0..7).map(clean).collect(), sequences).unwrap();
            ds.item_table_mut().edit_rows(|rows| {
                // A guarded real.
                rows[1][1] = FeatureValue::Real(-1.0);
                // An out-of-range category.
                rows[2][0] = FeatureValue::Categorical(7);
                // A poisoned item: its count holds a real.
                rows[3][2] = FeatureValue::Real(2.0);
                // Two bad features: the category comes first.
                rows[5][0] = FeatureValue::Categorical(9);
                rows[5][1] = FeatureValue::Real(-2.0);
                // Poisoned, with a bad real before the mismatch.
                rows[6][1] = FeatureValue::Real(-3.0);
                rows[6][2] = FeatureValue::Real(1.0);
            });
            let want = row_path_init(&ds, 2, 3);
            assert!(want.is_err(), "case {case}");
            for chunk_size in [1, 2, 3, 64] {
                let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
                for workers in 1..=3 {
                    let got =
                        initialize_on_workers(&chunks, 2, 3, 0.01, &ParallelConfig::all(workers))
                            .map(|m| format!("{m:?}"));
                    assert_eq!(
                        got, want,
                        "case {case}, chunk size {chunk_size}, {workers} workers"
                    );
                }
            }
        }
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
                let parallel = if threads == 1 {
                    ParallelConfig::sequential()
                } else {
                    ParallelConfig::all(threads)
                };
                let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
                let storage = AssignmentStorage::Recompute;
                let got = train_chunked(&chunks, &config, &parallel, storage).unwrap();
                let tag = format!("chunk_size={chunk_size} threads={threads}");
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

    #[test]
    fn chunked_em_training_is_bitwise_identical() {
        let ds = trainer_dataset();
        let initial = crate::init::initialize_model(&ds, 3, 8, 0.05).unwrap();
        let transitions = crate::transition::TransitionModel::uninformative(3).unwrap();
        let em_cfg = EmConfig::new(initial, transitions)
            .with_lambda(0.05)
            .with_max_iterations(5);
        let expect =
            crate::em::train_em_with_parallelism(&ds, &em_cfg, &ParallelConfig::sequential())
                .unwrap();
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
            .fit_chunked(&chunks)
            .unwrap();
        assert_eq!(hard.n_users, ds.n_users());
        let em = crate::train::Trainer::from_config(train_cfg())
            .em()
            .fit_chunked(&chunks)
            .unwrap();
        assert_eq!(
            em.level_histogram.iter().sum::<u64>() as usize,
            ds.n_actions()
        );
        // The EM arm is the in-memory one's, closed with the same decode.
        let in_mem = crate::train::Trainer::from_config(train_cfg())
            .em()
            .fit(&ds)
            .unwrap();
        assert_eq!(em.model, in_mem.model);
        assert_eq!(em.log_likelihood, in_mem.log_likelihood);
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
    fn dataset_chunks_reject_deserialized_backwards_time() {
        // Serde skips `ActionSequence::new`, so an unsorted sequence
        // reaches the adapter. User 3's actions sit at times 0..7; move
        // its third one back to 0.
        let json = serde_json::to_string(&small_dataset()).unwrap();
        let json = json.replace(r#"{"time":2,"user":3,"#, r#"{"time":0,"user":3,"#);
        let bad: Dataset = serde_json::from_str(&json).unwrap();
        let chunks = DatasetChunks::new(&bad, 2).unwrap();
        let mut buf = DatasetChunk::new();
        chunks.load_chunk(0, &mut buf).unwrap();
        let err = chunks.load_chunk(1, &mut buf).unwrap_err();
        let expect = CoreError::UnsortedSequence {
            user: 3,
            position: 2,
        };
        assert_eq!(err, expect);
    }

    #[test]
    fn push_rejects_backwards_time() {
        let mut chunk = DatasetChunk::new();
        chunk.reset(0, 0);
        chunk.begin_user(3);
        chunk.push(5, 0).unwrap();
        assert!(matches!(
            chunk.push(2, 0),
            Err(CoreError::UnsortedSequence { user: 3, .. })
        ));
        // A new user may start earlier than the previous user ended.
        chunk.begin_user(4);
        chunk.push(0, 1).unwrap();
        assert_eq!(chunk.user_items(1), &[1]);
    }

    fn encode(levels: &[SkillLevel]) -> ChunkPaths {
        let mut paths = ChunkPaths::default();
        paths.push(levels).unwrap();
        paths
    }

    fn expand(path: Path<'_>) -> Vec<SkillLevel> {
        let mut levels = Vec::new();
        path.expand_into(&mut levels);
        levels
    }

    /// A sorted list of signed `(item, level)` shifts.
    type Shifts = Vec<(ItemId, SkillLevel, i64)>;

    /// Churn and sorted shifts of moving `items` from `old` to `new`
    /// levels, by the breakpoint merge the training pass runs.
    fn merged_moves(items: &[ItemId], old: &[SkillLevel], new: &[SkillLevel]) -> (usize, Shifts) {
        let (old, new) = (encode(old), encode(new));
        let (old, new) = (old.paths().next().unwrap(), new.paths().next().unwrap());
        let (mut churn, mut shifts) = (0, Vec::new());
        if old != new {
            for_each_moved_run(old, new, |run, was, now| {
                churn += run.len();
                for &item in &items[run] {
                    shifts.extend([(item, was, -1), (item, now, 1)]);
                }
                Ok(())
            })
            .unwrap();
        }
        shifts.sort_unstable();
        (churn, shifts)
    }

    /// The same by comparing every action.
    fn compared_moves(items: &[ItemId], old: &[SkillLevel], new: &[SkillLevel]) -> (usize, Shifts) {
        let (mut churn, mut shifts) = (0, Vec::new());
        for ((&item, &was), &now) in items.iter().zip(old).zip(new) {
            if was != now {
                churn += 1;
                shifts.extend([(item, was, -1), (item, now, 1)]);
            }
        }
        shifts.sort_unstable();
        (churn, shifts)
    }

    #[test]
    fn breakpoints_round_trip_edge_paths() {
        // Empty, one action, all-stay, start above 1, S − 1 advances.
        let paths: [&[SkillLevel]; 6] = [
            &[],
            &[3],
            &[1, 1, 1, 1],
            &[3, 3, 4, 4],
            &[1, 2, 3, 4, 5],
            &[2, 2, 3, 3, 3, 4, 5],
        ];
        let mut chunk = ChunkPaths::default();
        for levels in paths {
            chunk.push(levels).unwrap();
        }
        assert_eq!(encode(&[1, 2, 3, 4, 5]).advances, [1, 2, 3, 4]);
        assert!(encode(&[1, 1, 1, 1]).advances.is_empty());
        let back: Vec<Vec<SkillLevel>> = chunk.paths().map(expand).collect();
        assert_eq!(back, paths.map(<[SkillLevel]>::to_vec));
        // Every pair of equal-length edge paths merges like the compare.
        let items = [4, 0, 4, 1, 2, 0, 3];
        for old in paths {
            for new in paths.iter().filter(|p| p.len() == old.len()) {
                let items = &items[..old.len()];
                let merged = merged_moves(items, old, new);
                assert_eq!(merged, compared_moves(items, old, new));
            }
        }
    }

    /// A stay/+1 path over `draws.len()` actions: it starts at `start`
    /// and advances at action `t > 0` when `draws[t] < p_advance`, up to
    /// level `n_levels`.
    fn stay_or_advance(
        n_levels: SkillLevel,
        start: SkillLevel,
        p_advance: f64,
        draws: &[f64],
    ) -> Vec<SkillLevel> {
        let mut level = start;
        let step = |(t, &draw): (usize, &f64)| {
            if t > 0 && draw < p_advance && level < n_levels {
                level += 1;
            }
            level
        };
        draws.iter().enumerate().map(step).collect()
    }

    /// The advance probability of path mode `mode`: all-stay and
    /// always-advance paths are drawn as often as mixed ones.
    fn p_advance(mode: u8, draw: f64) -> f64 {
        match mode {
            0 => 0.0,
            1 => 1.0,
            _ => draw,
        }
    }

    proptest::proptest! {
        #[test]
        fn breakpoint_merge_matches_per_action_compare(
            n_levels in 1..=6 as SkillLevel,
            (old_start, new_start) in (1..=6 as SkillLevel, 1..=6 as SkillLevel),
            (old_mode, new_mode, same) in (0..4u8, 0..4u8, 0..4u8),
            (old_p, new_p) in (0.0..1.0f64, 0.0..1.0f64),
            actions in proptest::collection::vec((0..8 as ItemId, 0.0..1.0f64, 0.0..1.0f64), 0..40),
        ) {
            let items: Vec<ItemId> = actions.iter().map(|a| a.0).collect();
            let old_draws: Vec<f64> = actions.iter().map(|a| a.1).collect();
            let new_draws: Vec<f64> = actions.iter().map(|a| a.2).collect();
            let (old_start, new_start) = (old_start.min(n_levels), new_start.min(n_levels));
            let old = stay_or_advance(n_levels, old_start, p_advance(old_mode, old_p), &old_draws);
            let new = match same {
                0 => old.clone(),
                _ => stay_or_advance(n_levels, new_start, p_advance(new_mode, new_p), &new_draws),
            };
            for levels in [&old, &new] {
                let paths = encode(levels);
                let path = paths.paths().next().unwrap();
                proptest::prop_assert!(path.advances.len() < usize::from(n_levels));
                proptest::prop_assert_eq!(&expand(path), levels);
            }
            proptest::prop_assert_eq!(
                merged_moves(&items, &old, &new),
                compared_moves(&items, &old, &new)
            );
        }
    }

    #[test]
    fn expanding_a_mismatched_store_is_typed_error() {
        let mut chunk = ChunkPaths::default();
        chunk.push(&[1, 1, 2]).unwrap();
        chunk.push(&[2]).unwrap();
        let store = PathStore {
            chunks: vec![chunk, ChunkPaths::default()],
        };
        assert_eq!(
            store.expand([3, 1].into_iter()).unwrap(),
            [vec![1, 1, 2], vec![2]]
        );
        let mismatch = |context, left, right| CoreError::LengthMismatch {
            context,
            left,
            right,
        };
        assert_eq!(
            store.expand([3].into_iter()).unwrap_err(),
            mismatch("stored paths vs users", 2, 1)
        );
        assert_eq!(
            store.expand([3, 1, 4].into_iter()).unwrap_err(),
            mismatch("stored paths vs users", 2, 3)
        );
        assert_eq!(
            store.expand([3, 2].into_iter()).unwrap_err(),
            mismatch("stored path vs sequence length", 1, 2)
        );
    }
}
