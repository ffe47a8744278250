//! Shared emission table: `log P(i | s)` for every item × skill level.
//!
//! The assignment DP, the EM posteriors, generation difficulty, prediction
//! and recommendation all evaluate the same emission score
//! `log P(i | s) = Σ_f log P_f(i_f | θ_f(s))` (Eq. 2). That score depends
//! only on the *item*, not on where the action sits in a sequence — and a
//! dataset has far more actions than distinct items (`Σ_u |A_u| ≫ n_items`).
//! Building the full `n_items × S` matrix once per training iteration and
//! reading rows during the DP replaces `O(Σ_u |A_u| · F · S)` distribution
//! evaluations with `O(n_items · F · S)` plus cheap memory reads.
//!
//! The table is a flat row-major `Vec<f64>`: `data[item * S + (s - 1)]`.
//! One row is the emission vector of one item at all levels, contiguous in
//! memory, so the DP inner loop walks a cache line instead of re-deriving
//! log-PMFs.
//!
//! ## Columnar fill
//!
//! The fill itself is *columnar*: item feature values are gathered once
//! per feature into flat columns (`FeatureColumn`), hoisting the enum
//! dispatch and the per-item transcendentals (`ln x`, `ln k!`, integer →
//! float widening) out of the `S × n_items` loop, and each
//! (feature, level) pair is then evaluated by one batch kernel
//! (`log_prob_batch` / `log_pmf_batch` / `log_pdf_batch`) over a
//! contiguous unit-stride run of cells. Every cell accumulates its
//! feature contributions in schema order starting from `0.0` — the exact
//! operation order of [`SkillModel::item_log_likelihood`]'s feature sum —
//! so the table agrees with the direct path *bitwise*, not approximately
//! (pinned by `tests/properties_emission.rs`). The original cell-by-cell
//! fill is kept as [`crate::reference::build_scalar`], the reference
//! baseline for tests and `bench_emission`.
//!
//! ## Emission rows
//!
//! The assignment DP reads scores through the [`EmissionRows`] trait.
//! [`EmissionTable`] borrows its rows in place; [`CompactEmissionTable`]
//! stores the same scores rounded once to `f32` (still accumulated in
//! f64), halving the resident table, and widens a row per read; the
//! model-direct source evaluates distributions per action.

use crate::dist::special::ln_factorial;
use crate::dist::{score_kind_mismatch, FeatureDistribution};
use crate::error::{CoreError, Result};
use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::types::{skill_level_from_index, Dataset, ItemId, SkillLevel};

/// A source of emission rows `log P(item | s)` for the assignment DP
/// ([`crate::assign::assign_items_with_table_ws`]).
pub trait EmissionRows {
    /// Number of items with a row.
    fn n_items(&self) -> usize;

    /// Number of skill levels `S` (the row length).
    fn n_levels(&self) -> usize;

    /// The emission vector of `item` (`row[s - 1]`). `item` has already
    /// been checked against [`EmissionRows::n_items`]. Sources storing
    /// f64 rows borrow them in place; others fill `scratch` (`S` cells)
    /// and return it.
    fn emission_row<'a>(&'a self, item: ItemId, scratch: &'a mut [f64]) -> &'a [f64];
}

/// Emission rows evaluated straight from the model, one distribution call
/// per action and level — no table. Bitwise equal to the table rows
/// (the columnar fill keeps the per-cell operation order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectEmissions<'a> {
    pub(crate) model: &'a SkillModel,
    pub(crate) dataset: &'a Dataset,
}

impl EmissionRows for DirectEmissions<'_> {
    fn n_items(&self) -> usize {
        self.dataset.n_items()
    }

    fn n_levels(&self) -> usize {
        self.model.n_levels()
    }

    fn emission_row<'a>(&'a self, item: ItemId, scratch: &'a mut [f64]) -> &'a [f64] {
        let features = self.dataset.item_features(item);
        for (s0, cell) in scratch.iter_mut().enumerate() {
            *cell = self
                .model
                .item_log_likelihood(features, skill_level_from_index(s0));
        }
        scratch
    }
}

/// Minimum items per stolen work unit in [`EmissionTable::build_parallel`].
const PARALLEL_CHUNK: usize = 64;

/// Item-tile width of the cache-blocked sequential fill
/// ([`EmissionTable::build`] and [`EmissionTable::refresh_levels`]).
///
/// Per tile the fill touches the gathered columns (≈ `3 × 8` bytes per
/// item per feature), the level-major scratch (`tile × S` f64), and the
/// output window (`tile × S` f64) — ~200 kB at 2048 items, S = 5,
/// F = 3, comfortably inside a per-core L2 — where the whole-axis fill
/// streams `n_items × S` buffers (2 MB at 50 k items) through every
/// kernel pass. Tile size changes no per-cell operation order, so every
/// choice is bitwise identical; 2048 is flat-optimal on this host
/// (within noise from 1024 to 4096).
const ITEM_TILE: usize = 2048;

/// One gathered feature column: the values of a single feature for a run
/// of items, with the per-item transforms the scalar path recomputes for
/// every level (integer → float widening, `ln k!`, `ln x`) hoisted out so
/// they are paid once across all `S` level kernels.
enum FeatureColumn {
    /// Category codes for [`crate::dist::Categorical::log_prob_batch`].
    Categorical(Vec<u32>),
    /// Counts widened to `f64` plus `ln k!` for
    /// [`crate::dist::Poisson::log_pmf_batch`].
    Count {
        /// `k` as `f64`, one slot per item.
        ks: Vec<f64>,
        /// `ln k!`, one slot per item.
        ln_facts: Vec<f64>,
    },
    /// Positive reals plus `ln x` for the gamma / log-normal kernels.
    /// Items failing the scalar density guard (`x ≤ 0` or non-finite)
    /// carry the placeholder pair `(1.0, 0.0)` and are flagged in
    /// `guard`, so the kernels never see invalid inputs and
    /// [`apply_guard`] rewrites those cells to `-inf` afterwards —
    /// exactly the scalar guard result.
    Real {
        /// Sample values (placeholder `1.0` for guarded slots).
        xs: Vec<f64>,
        /// `ln x` (placeholder `0.0` for guarded slots).
        ln_xs: Vec<f64>,
        /// Which slots failed the density guard.
        guard: Vec<bool>,
        /// Fast path: skip the guard walk when nothing is flagged.
        any_guarded: bool,
    },
}

impl FeatureColumn {
    fn with_capacity(kind: FeatureKind, capacity: usize) -> Self {
        match kind {
            FeatureKind::Categorical { .. } => {
                FeatureColumn::Categorical(Vec::with_capacity(capacity))
            }
            FeatureKind::Count => FeatureColumn::Count {
                ks: Vec::with_capacity(capacity),
                ln_facts: Vec::with_capacity(capacity),
            },
            FeatureKind::Positive { .. } => FeatureColumn::Real {
                xs: Vec::with_capacity(capacity),
                ln_xs: Vec::with_capacity(capacity),
                guard: Vec::with_capacity(capacity),
                any_guarded: false,
            },
        }
    }

    /// Appends one value; `false` signals a value whose kind does not
    /// match the column (impossible for schema-validated datasets — the
    /// slot is kept aligned with a neutral placeholder and the caller
    /// poisons the whole item row).
    fn push(&mut self, value: &FeatureValue) -> bool {
        match (self, value) {
            (FeatureColumn::Categorical(cats), FeatureValue::Categorical(c)) => {
                cats.push(*c);
                true
            }
            (FeatureColumn::Count { ks, ln_facts }, FeatureValue::Count(k)) => {
                ks.push(*k as f64);
                ln_facts.push(ln_factorial(*k));
                true
            }
            (
                FeatureColumn::Real {
                    xs,
                    ln_xs,
                    guard,
                    any_guarded,
                },
                FeatureValue::Real(x),
            ) => {
                if *x > 0.0 && x.is_finite() {
                    xs.push(*x);
                    ln_xs.push(x.ln());
                    guard.push(false);
                } else {
                    xs.push(1.0);
                    ln_xs.push(0.0);
                    guard.push(true);
                    *any_guarded = true;
                }
                true
            }
            (column, _) => {
                column.push_placeholder();
                false
            }
        }
    }

    /// Appends a neutral slot so column lengths stay aligned after a
    /// gather-time kind mismatch.
    fn push_placeholder(&mut self) {
        match self {
            FeatureColumn::Categorical(cats) => cats.push(u32::MAX),
            FeatureColumn::Count { ks, ln_facts } => {
                ks.push(0.0);
                ln_facts.push(0.0);
            }
            FeatureColumn::Real {
                xs, ln_xs, guard, ..
            } => {
                xs.push(1.0);
                ln_xs.push(0.0);
                guard.push(false);
            }
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            FeatureColumn::Categorical(_) => "categorical",
            FeatureColumn::Count { .. } => "count",
            FeatureColumn::Real { .. } => "positive real",
        }
    }
}

/// Gathered columns for a run of items, plus the mask of items whose
/// value tuple failed schema dispatch entirely (dead code for
/// [`Dataset`]-validated items, which are checked at construction): those
/// rows are forced to `-inf` at every level, the release contract of
/// [`score_kind_mismatch`].
struct GatheredColumns {
    columns: Vec<FeatureColumn>,
    hard_poison: Vec<bool>,
    any_hard: bool,
    n_rows: usize,
}

/// Gathers feature columns for `n_rows` item feature tuples.
fn gather_columns<'a>(
    schema: &FeatureSchema,
    items: impl Iterator<Item = &'a [FeatureValue]>,
    n_rows: usize,
) -> GatheredColumns {
    let mut columns: Vec<FeatureColumn> = schema
        .kinds()
        .iter()
        .map(|&kind| FeatureColumn::with_capacity(kind, n_rows))
        .collect();
    let mut hard_poison = vec![false; n_rows];
    let mut any_hard = false;
    for (features, bad) in items.zip(hard_poison.iter_mut()) {
        for (column, value) in columns.iter_mut().zip(features) {
            if !column.push(value) {
                let _ = score_kind_mismatch(column.kind_name(), value.name());
                *bad = true;
                any_hard = true;
            }
        }
    }
    GatheredColumns {
        columns,
        hard_poison,
        any_hard,
        n_rows,
    }
}

/// Applies one level's distribution to one gathered column, accumulating
/// into a level-major slice of `n_rows` cells.
fn evaluate_column(dist: &FeatureDistribution, column: &FeatureColumn, out: &mut [f64]) {
    match (dist, column) {
        (FeatureDistribution::Categorical(d), FeatureColumn::Categorical(cats)) => {
            d.log_prob_batch(cats, out);
        }
        (FeatureDistribution::Poisson(d), FeatureColumn::Count { ks, ln_facts }) => {
            d.log_pmf_batch(ks, ln_facts, out);
        }
        (
            FeatureDistribution::Gamma(d),
            FeatureColumn::Real {
                xs,
                ln_xs,
                guard,
                any_guarded,
            },
        ) => {
            d.log_pdf_batch(xs, ln_xs, out);
            apply_guard(out, guard, *any_guarded);
        }
        (
            FeatureDistribution::LogNormal(d),
            FeatureColumn::Real {
                ln_xs,
                guard,
                any_guarded,
                ..
            },
        ) => {
            d.log_pdf_batch(ln_xs, out);
            apply_guard(out, guard, *any_guarded);
        }
        (dist, column) => {
            // Distribution / column kind mismatch: loud under debug or
            // strict invariants, the scalar `-inf` contract in release —
            // applied to the whole column at this level.
            let poison = score_kind_mismatch(dist.kind_name(), column.kind_name());
            out.fill(poison);
        }
    }
}

/// Rewrites guard-flagged cells to `-inf`, the scalar density-guard
/// result for non-positive or non-finite samples.
fn apply_guard(out: &mut [f64], guard: &[bool], any_guarded: bool) {
    if !any_guarded {
        return;
    }
    for (cell, &bad) in out.iter_mut().zip(guard) {
        if bad {
            *cell = f64::NEG_INFINITY;
        }
    }
}

/// Fills `out` — item-major rows, `out[j·S + s₀]` for the `j`-th gathered
/// item — from the columnar kernels.
///
/// The scratch buffer is level-major (`scratch[s₀·m + j]`), so every
/// kernel call writes one contiguous unit-stride run of `m` cells; rows
/// are transposed into `out` once at the end. Cells accumulate feature
/// contributions in schema order starting from `0.0`, the exact operation
/// order of [`SkillModel::item_log_likelihood`]'s feature sum, so f64
/// results are bitwise identical to the scalar path.
fn fill_rows_columnar(
    model: &SkillModel,
    gathered: &GatheredColumns,
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    let m = gathered.n_rows;
    let n_levels = model.n_levels();
    debug_assert_eq!(out.len(), m * n_levels);
    if m == 0 || n_levels == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(m * n_levels, 0.0);
    for (s0, level_out) in scratch.chunks_mut(m).enumerate() {
        match model.level_row(skill_level_from_index(s0)) {
            Ok(row) => {
                for (dist, column) in row.iter().zip(&gathered.columns) {
                    evaluate_column(dist, column, level_out);
                }
            }
            // Unreachable for `s₀ < S`, but the scalar path scores a
            // missing level row `-inf`, so mirror it.
            Err(_) => level_out.fill(f64::NEG_INFINITY),
        }
    }
    for ((j, row), &bad) in out
        .chunks_mut(n_levels)
        .enumerate()
        .zip(&gathered.hard_poison)
    {
        if bad {
            row.fill(f64::NEG_INFINITY);
            continue;
        }
        for (cell, &v) in row.iter_mut().zip(scratch.iter().skip(j).step_by(m)) {
            *cell = v;
        }
    }
}

/// Precomputed `n_items × S` matrix of emission log-likelihoods.
///
/// Build it once per training iteration (the table is a pure function of
/// the current model parameters and the item feature matrix) and share it
/// across every sequence. After an online or forgetting-path model update
/// that only touches some items, refresh just those rows with
/// [`EmissionTable::refresh_items`] instead of rebuilding.
#[derive(Debug, Clone, PartialEq)]
pub struct EmissionTable {
    n_items: usize,
    n_levels: usize,
    /// Row-major scores: `data[item * n_levels + (s - 1)]`.
    data: Vec<f64>,
}

impl EmissionTable {
    /// Builds the full table sequentially with the columnar kernels,
    /// cache-blocked over item tiles.
    ///
    /// Feature values are gathered into columns per tile (hoisting enum
    /// dispatch and per-item transcendentals out of the `S`-level loop),
    /// then each (feature, level) pair runs one batch kernel over a
    /// contiguous run of cells. Blocking over `ITEM_TILE`-item tiles
    /// keeps each tile's gathered columns plus its level-major scratch
    /// (`ITEM_TILE × S` f64) resident in L2 even when the full
    /// `n_items × S` table is megabytes: every kernel streams a buffer
    /// that was just written. Each cell is a pure function of its own
    /// item's features and level row — tile boundaries change no
    /// operation order within a cell — so results are bitwise identical
    /// to [`crate::reference::build_scalar`], the direct assignment path,
    /// and the pre-tiling whole-axis fill, for every tile size.
    pub fn build(model: &SkillModel, dataset: &Dataset) -> Self {
        let n_items = dataset.n_items();
        let n_levels = model.n_levels();
        let mut data = vec![0.0f64; n_items * n_levels];
        let mut scratch = Vec::new();
        let items = dataset.items();
        for start in (0..n_items).step_by(ITEM_TILE.max(1)) {
            let end = (start + ITEM_TILE).min(n_items);
            let gathered = gather_columns(
                dataset.schema(),
                items[start..end].iter().map(Vec::as_slice),
                end - start,
            );
            fill_rows_columnar(
                model,
                &gathered,
                &mut scratch,
                &mut data[start * n_levels..end * n_levels],
            );
        }
        EmissionTable {
            n_items,
            n_levels,
            data,
        }
    }

    /// Wraps row-major scores (`data[item * n_levels + (s - 1)]`) filled
    /// elsewhere — the reference scalar fill.
    pub(crate) fn from_scores(n_items: usize, n_levels: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), n_items * n_levels);
        EmissionTable {
            n_items,
            n_levels,
            data,
        }
    }

    /// Builds the table as `parallel` asks — item-parallel on `threads`
    /// workers when user-level parallelism is on, sequential otherwise —
    /// and runs the emission-table invariant check on the result. Both
    /// fills are bitwise identical, so the choice changes no score.
    pub fn build_with_config(
        model: &SkillModel,
        dataset: &Dataset,
        parallel: &ParallelConfig,
    ) -> Result<Self> {
        let table = if parallel.users && parallel.threads > 1 {
            Self::build_parallel(model, dataset, parallel.threads)?
        } else {
            Self::build(model, dataset)
        };
        InvariantCtx::new().check_emission_table(&table)?;
        Ok(table)
    }

    /// The trainers' per-iteration table step: refreshes only the
    /// `refit_levels` columns of the table carried in `slot` (levels the
    /// last update left untouched reuse their distributions bit for bit,
    /// so their cached scores are still exact), or builds a fresh table
    /// when there is none or the flags do not cover every level.
    pub(crate) fn refresh_or_build<'a>(
        slot: &'a mut Option<EmissionTable>,
        model: &SkillModel,
        dataset: &Dataset,
        parallel: &ParallelConfig,
        refit_levels: &[bool],
    ) -> Result<&'a EmissionTable> {
        let table = match slot.take() {
            Some(mut table) if refit_levels.len() == model.n_levels() => {
                table.refresh_levels(model, dataset, refit_levels)?;
                InvariantCtx::new().check_emission_table(&table)?;
                table
            }
            _ => Self::build_with_config(model, dataset, parallel)?,
        };
        Ok(slot.insert(table))
    }

    /// Builds the table with `threads` workers stealing item chunks.
    ///
    /// The output buffer is allocated once up front and split into
    /// disjoint `PARALLEL_CHUNK`-row windows; workers pop windows from a
    /// shared queue and run the columnar fill *directly into the final
    /// buffer*, so there is no per-chunk row vector and no stitch copy at
    /// the end. Falls back to the sequential build when one thread (or
    /// one chunk) suffices.
    pub fn build_parallel(model: &SkillModel, dataset: &Dataset, threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(CoreError::InvalidParallelism { threads: 0 });
        }
        let n_items = dataset.n_items();
        let n_levels = model.n_levels();
        let n_chunks = n_items.div_ceil(PARALLEL_CHUNK).max(1);
        if threads <= 1 || n_chunks <= 1 || n_levels == 0 {
            return Ok(Self::build(model, dataset));
        }

        let n_workers = threads.min(n_chunks);
        let mut data = vec![0.0f64; n_items * n_levels];
        let worker_results: Vec<Result<()>> = {
            // Ownership of disjoint output windows moves through the
            // queue, so workers write concurrently without aliasing and
            // without any unsafe code.
            let jobs: Vec<(usize, &mut [f64])> = data
                .chunks_mut(PARALLEL_CHUNK * n_levels)
                .enumerate()
                .collect();
            let queue = std::sync::Mutex::new(jobs);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|_| {
                        let queue = &queue;
                        scope.spawn(move || -> Result<()> {
                            let mut scratch: Vec<f64> = Vec::new();
                            loop {
                                let job = crate::sync::lock(queue).pop();
                                let Some((chunk, window)) = job else {
                                    return Ok(());
                                };
                                let start = chunk * PARALLEL_CHUNK;
                                let end = start + window.len() / n_levels;
                                let gathered = gather_columns(
                                    dataset.schema(),
                                    dataset.items()[start..end].iter().map(Vec::as_slice),
                                    end - start,
                                );
                                fill_rows_columnar(model, &gathered, &mut scratch, window);
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or(Err(CoreError::WorkerPanicked {
                            step: "emission table",
                        }))
                    })
                    .collect()
            })
        };
        for worker in worker_results {
            worker?;
        }
        Ok(EmissionTable {
            n_items,
            n_levels,
            data,
        })
    }

    /// Number of items (table rows).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of skill levels `S` (table columns).
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The emission vector of one item at all levels (`row[s - 1]`).
    ///
    /// # Panics
    /// Panics if `item` is out of range; use [`EmissionTable::checked_row`]
    /// when the item id is not already dataset-validated.
    #[inline]
    pub fn row(&self, item: ItemId) -> &[f64] {
        let i = item as usize;
        &self.data[i * self.n_levels..(i + 1) * self.n_levels]
    }

    /// Bounds-checked variant of [`EmissionTable::row`].
    pub fn checked_row(&self, item: ItemId) -> Option<&[f64]> {
        let i = item as usize;
        if i >= self.n_items {
            return None;
        }
        Some(&self.data[i * self.n_levels..(i + 1) * self.n_levels])
    }

    /// `log P(item | s)`, mirroring [`SkillModel::item_log_likelihood`]:
    /// out-of-range items or levels score `-inf` (a forbidden DP path)
    /// rather than erroring.
    pub fn log_likelihood(&self, item: ItemId, s: SkillLevel) -> f64 {
        let level = s as usize;
        if level == 0 || level > self.n_levels {
            return f64::NEG_INFINITY;
        }
        match self.checked_row(item) {
            Some(row) => row[level - 1],
            None => f64::NEG_INFINITY,
        }
    }

    /// Incremental invalidation: recomputes only the rows of `items`.
    ///
    /// Online and forgetting paths that re-fit a handful of item-touching
    /// distributions can keep the rest of the table warm. The model and
    /// dataset must have the shapes the table was built with; a stale item
    /// id is reported, not silently skipped.
    pub fn refresh_items(
        &mut self,
        model: &SkillModel,
        dataset: &Dataset,
        items: &[ItemId],
    ) -> Result<()> {
        if model.n_levels() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "emission table levels vs model levels",
                left: self.n_levels,
                right: model.n_levels(),
            });
        }
        if dataset.n_items() != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "emission table items vs dataset items",
                left: self.n_items,
                right: dataset.n_items(),
            });
        }
        // Validate every id before touching any row so a stale id cannot
        // leave the table half-refreshed.
        for &item in items {
            let i = item as usize;
            if i >= self.n_items {
                return Err(CoreError::FeatureIndexOutOfBounds {
                    index: i,
                    len: self.n_items,
                });
            }
        }
        if items.is_empty() {
            return Ok(());
        }
        let n_levels = self.n_levels;
        let gathered = gather_columns(
            dataset.schema(),
            items.iter().map(|&item| dataset.item_features(item)),
            items.len(),
        );
        let mut scratch = Vec::new();
        let mut rows = vec![0.0f64; items.len() * n_levels];
        fill_rows_columnar(model, &gathered, &mut scratch, &mut rows);
        for (&item, row) in items.iter().zip(rows.chunks(n_levels.max(1))) {
            let i = item as usize;
            self.data[i * n_levels..(i + 1) * n_levels].copy_from_slice(row);
        }
        Ok(())
    }

    /// Incremental invalidation by *level*: recomputes column `s` of every
    /// item for the levels flagged in `levels` (zero-based, one flag per
    /// level).
    ///
    /// The incremental trainer refits only the levels whose sufficient
    /// statistics changed and reuses the previous iteration's
    /// distributions (bitwise) everywhere else, so the table columns of
    /// untouched levels are still exact — refreshing just the refit
    /// columns costs `n_items · n_refit · F` evaluations instead of a
    /// full `n_items · S · F` rebuild.
    pub fn refresh_levels(
        &mut self,
        model: &SkillModel,
        dataset: &Dataset,
        levels: &[bool],
    ) -> Result<()> {
        if model.n_levels() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "emission table levels vs model levels",
                left: self.n_levels,
                right: model.n_levels(),
            });
        }
        if dataset.n_items() != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "emission table items vs dataset items",
                left: self.n_items,
                right: dataset.n_items(),
            });
        }
        if levels.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "refresh flags vs levels",
                left: levels.len(),
                right: self.n_levels,
            });
        }
        if !levels.iter().any(|&d| d) || self.n_items == 0 {
            return Ok(());
        }
        let n_levels = self.n_levels;
        // Cache-blocked like `build`: gather one item tile, evaluate each
        // dirty level into a tile-sized contiguous scratch column, then
        // scatter into column `s₀` of the tile's rows. Per-cell values
        // are independent of the tile size, so this is bitwise identical
        // to the whole-axis refresh for every tile width.
        let mut column = vec![0.0f64; ITEM_TILE.min(self.n_items)];
        let items = dataset.items();
        for start in (0..self.n_items).step_by(ITEM_TILE.max(1)) {
            let end = (start + ITEM_TILE).min(self.n_items);
            let gathered = gather_columns(
                dataset.schema(),
                items[start..end].iter().map(Vec::as_slice),
                end - start,
            );
            let column = &mut column[..end - start];
            let window = &mut self.data[start * n_levels..end * n_levels];
            for (s0, _) in levels.iter().enumerate().filter(|&(_, &dirty)| dirty) {
                column.fill(0.0);
                match model.level_row(skill_level_from_index(s0)) {
                    Ok(row) => {
                        for (dist, feature_column) in row.iter().zip(&gathered.columns) {
                            evaluate_column(dist, feature_column, column);
                        }
                    }
                    Err(_) => column.fill(f64::NEG_INFINITY),
                }
                if gathered.any_hard {
                    for (cell, &bad) in column.iter_mut().zip(&gathered.hard_poison) {
                        if bad {
                            *cell = f64::NEG_INFINITY;
                        }
                    }
                }
                for (row, &v) in window.chunks_mut(n_levels).zip(column.iter()) {
                    if let Some(cell) = row.get_mut(s0) {
                        *cell = v;
                    }
                }
            }
        }
        Ok(())
    }

    /// Scans every cell for poison values — NaN or `+inf` — and reports
    /// the first offender's coordinates. `-inf` is a *legal* score (a
    /// forbidden DP path under Eq. 2) and passes.
    ///
    /// The invariant layer ([`crate::invariants::InvariantCtx`]) calls
    /// this after every build and refresh, so corrupted parameters or a
    /// poisoned dataset are caught before any DP reads the table.
    pub fn verify_finite(&self) -> Result<()> {
        let n_levels = self.n_levels;
        for (idx, &v) in self.data.iter().enumerate() {
            if v.is_nan() || (v.is_infinite() && v.is_sign_positive()) {
                return Err(CoreError::InvariantViolation {
                    check: "emission table",
                    detail: format!(
                        "poison value {v} at item {}, level {}",
                        idx / n_levels,
                        idx % n_levels + 1
                    ),
                });
            }
        }
        Ok(())
    }

    /// Posterior `P(s | item)` under a prior `P(s)` (Eq. 10), read from the
    /// table row. Replicates [`SkillModel::skill_posterior`] step for step
    /// (same log-space max trick, same impossible-item fallback to the
    /// normalized prior) so both paths produce identical distributions.
    pub fn posterior(&self, item: ItemId, prior: &[f64]) -> Result<Vec<f64>> {
        if prior.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "skill prior vs levels",
                left: prior.len(),
                right: self.n_levels,
            });
        }
        let row = self
            .checked_row(item)
            .ok_or(CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: self.n_items,
            })?;
        let mut log_post: Vec<f64> = row
            .iter()
            .zip(prior)
            .map(|(&ll, &p)| {
                if p > 0.0 {
                    ll + p.ln()
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let max = log_post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            // The item is impossible under every level; fall back to the
            // prior itself so downstream code still gets a distribution.
            let total: f64 = prior.iter().sum();
            if total <= 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: "skill prior sum",
                    value: total,
                });
            }
            return Ok(prior.iter().map(|&p| p / total).collect());
        }
        let mut total = 0.0;
        for lp in log_post.iter_mut() {
            *lp = (*lp - max).exp();
            total += *lp;
        }
        for lp in log_post.iter_mut() {
            *lp /= total;
        }
        Ok(log_post)
    }

    /// Expected skill level `Σ_s s · P(s | item)` — the generation-based
    /// difficulty of Eq. 11, evaluated from one table row.
    pub fn expected_level(&self, item: ItemId, prior: &[f64]) -> Result<f64> {
        let post = self.posterior(item, prior)?;
        Ok(post
            .iter()
            .enumerate()
            .map(|(idx, &p)| (idx + 1) as f64 * p)
            .sum())
    }

    /// Resident bytes of the score storage.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl EmissionRows for EmissionTable {
    #[inline]
    fn n_items(&self) -> usize {
        self.n_items
    }

    #[inline]
    fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Borrows the row in place; `scratch` is never touched.
    #[inline]
    fn emission_row<'a>(&'a self, item: ItemId, _scratch: &'a mut [f64]) -> &'a [f64] {
        self.row(item)
    }
}

/// Half-width storage for the emission table.
///
/// Scores are computed with the full f64 columnar pipeline, then rounded
/// once to `f32` (round-to-nearest) for storage, halving the resident
/// table — the difference that matters at the ROADMAP's 10–100× item
/// scale, where the f64 table stops fitting in L2. Reads widen back to
/// f64 (exactly) before any DP accumulates them, so the only deviation
/// from [`EmissionTable`] is the one rounding step per cell: ≤ half an
/// f32 ulp, ~6e-8 relative. No trainer uses it: the default f64 table
/// keeps every result bitwise identical to the direct path.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactEmissionTable {
    n_items: usize,
    n_levels: usize,
    /// Row-major scores: `data[item * n_levels + (s - 1)]`.
    data: Vec<f32>,
}

impl CompactEmissionTable {
    /// Rounds a full-precision table to f32 storage.
    pub fn from_table(table: &EmissionTable) -> Self {
        CompactEmissionTable {
            n_items: table.n_items,
            n_levels: table.n_levels,
            data: table.data.iter().map(|&v| v as f32).collect(),
        }
    }

    /// Builds directly from a model and dataset — f64 accumulation
    /// through the columnar kernels, one final rounding to f32.
    pub fn build(model: &SkillModel, dataset: &Dataset) -> Self {
        Self::from_table(&EmissionTable::build(model, dataset))
    }

    /// Number of items (table rows).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of skill levels `S` (table columns).
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Widens one item row into `out` (`out[s - 1]`), returning `false`
    /// when the item is out of range or `out` has the wrong length.
    pub fn fill_row(&self, item: ItemId, out: &mut [f64]) -> bool {
        let i = item as usize;
        if i >= self.n_items || out.len() != self.n_levels {
            return false;
        }
        let row = &self.data[i * self.n_levels..(i + 1) * self.n_levels];
        for (dst, &v) in out.iter_mut().zip(row) {
            *dst = f64::from(v);
        }
        true
    }

    /// `log P(item | s)` with the [`EmissionTable::log_likelihood`]
    /// out-of-range contract.
    pub fn log_likelihood(&self, item: ItemId, s: SkillLevel) -> f64 {
        let level = s as usize;
        let i = item as usize;
        if level == 0 || level > self.n_levels || i >= self.n_items {
            return f64::NEG_INFINITY;
        }
        let row = &self.data[i * self.n_levels..(i + 1) * self.n_levels];
        row.get(level - 1)
            .copied()
            .map_or(f64::NEG_INFINITY, f64::from)
    }

    /// Resident bytes of the score storage — half of
    /// [`EmissionTable::memory_bytes`] for the same shape.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl EmissionRows for CompactEmissionTable {
    fn n_items(&self) -> usize {
        self.n_items
    }

    fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Widens the row into `scratch`.
    fn emission_row<'a>(&'a self, item: ItemId, scratch: &'a mut [f64]) -> &'a [f64] {
        self.fill_row(item, scratch);
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution, Poisson};
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::{Action, ActionSequence};

    /// A second model for `mixed_setup`'s dataset, differing from its
    /// model only in the level-2 row.
    fn level2_variant(ds: &Dataset) -> SkillModel {
        let cells = vec![
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.9, 0.1]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
            ],
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.3, 0.7]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(4.0).unwrap()),
            ],
        ];
        SkillModel::new(ds.schema().clone(), 2, cells).unwrap()
    }

    #[test]
    fn refresh_levels_recomputes_only_flagged_columns() {
        let (model_a, ds) = mixed_setup();
        let model_b = level2_variant(&ds);

        let mut table = EmissionTable::build(&model_a, &ds);
        // No flags set: a no-op.
        table
            .refresh_levels(&model_b, &ds, &[false, false])
            .unwrap();
        let fresh_a = EmissionTable::build(&model_a, &ds);
        for item in 0..ds.n_items() as ItemId {
            assert_eq!(table.row(item), fresh_a.row(item));
        }
        // Refresh only level 2: column 1 must match a fresh build of the
        // new model bit for bit, column 0 must stay the old model's.
        table.refresh_levels(&model_b, &ds, &[false, true]).unwrap();
        let fresh_b = EmissionTable::build(&model_b, &ds);
        for item in 0..ds.n_items() as ItemId {
            assert_eq!(table.row(item)[0].to_bits(), fresh_a.row(item)[0].to_bits());
            assert_eq!(table.row(item)[1].to_bits(), fresh_b.row(item)[1].to_bits());
        }
        // Wrong flag count is an error, not a silent zip.
        assert!(table.refresh_levels(&model_b, &ds, &[true]).is_err());
    }

    fn mixed_setup() -> (SkillModel, Dataset) {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 2 },
            FeatureKind::Count,
        ])
        .unwrap();
        let cells = vec![
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.9, 0.1]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(2.0).unwrap()),
            ],
            vec![
                FeatureDistribution::Categorical(Categorical::from_probs(vec![0.1, 0.9]).unwrap()),
                FeatureDistribution::Poisson(Poisson::new(6.0).unwrap()),
            ],
        ];
        let model = SkillModel::new(schema.clone(), 2, cells).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0), FeatureValue::Count(2)],
            vec![FeatureValue::Categorical(1), FeatureValue::Count(7)],
            vec![FeatureValue::Categorical(0), FeatureValue::Count(5)],
        ];
        let seq = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 2),
                Action::new(2, 0, 1),
            ],
        )
        .unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();
        (model, ds)
    }

    #[test]
    fn build_with_config_matches_sequential_build() {
        let (model, ds) = mixed_setup();
        let expect = EmissionTable::build(&model, &ds);
        for cfg in [
            ParallelConfig::sequential(),
            ParallelConfig::sequential().with_threads(4),
            ParallelConfig::all(3),
        ] {
            let table = EmissionTable::build_with_config(&model, &ds, &cfg).unwrap();
            assert_eq!(table, expect, "{cfg:?}");
        }
    }

    #[test]
    fn refresh_or_build_refreshes_flagged_columns_or_rebuilds() {
        let (model_a, ds) = mixed_setup();
        let model_b = level2_variant(&ds);
        let cfg = ParallelConfig::sequential();
        let fresh_a = EmissionTable::build(&model_a, &ds);
        let fresh_b = EmissionTable::build(&model_b, &ds);

        // Empty slot: build.
        let mut slot = None;
        let t = EmissionTable::refresh_or_build(&mut slot, &model_a, &ds, &cfg, &[]).unwrap();
        assert_eq!(t, &fresh_a);
        // Flags for every level: only flagged columns move.
        let t = EmissionTable::refresh_or_build(&mut slot, &model_b, &ds, &cfg, &[false, true])
            .unwrap();
        for item in 0..ds.n_items() as ItemId {
            assert_eq!(t.row(item)[0].to_bits(), fresh_a.row(item)[0].to_bits());
            assert_eq!(t.row(item)[1].to_bits(), fresh_b.row(item)[1].to_bits());
        }
        // Flags that do not cover every level: rebuild from scratch.
        let t = EmissionTable::refresh_or_build(&mut slot, &model_b, &ds, &cfg, &[true]).unwrap();
        assert_eq!(t, &fresh_b);
    }

    #[test]
    fn columnar_build_matches_scalar_build_bitwise() {
        let (model, ds) = mixed_setup();
        let columnar = EmissionTable::build(&model, &ds);
        let scalar = crate::reference::build_scalar(&model, &ds);
        assert_eq!(columnar, scalar);
    }

    #[test]
    fn compact_table_rounds_each_cell_once() {
        let (model, ds) = mixed_setup();
        let full = EmissionTable::build(&model, &ds);
        let compact = CompactEmissionTable::from_table(&full);
        assert_eq!(compact, CompactEmissionTable::build(&model, &ds));
        assert_eq!(compact.n_items(), full.n_items());
        assert_eq!(compact.n_levels(), full.n_levels());
        assert_eq!(compact.memory_bytes() * 2, full.memory_bytes());
        let mut row = vec![0.0f64; compact.n_levels()];
        for item in 0..ds.n_items() as ItemId {
            assert!(compact.fill_row(item, &mut row));
            for (s0, &widened) in row.iter().enumerate() {
                let expected = f64::from(full.row(item)[s0] as f32);
                assert_eq!(widened.to_bits(), expected.to_bits());
                let s = (s0 + 1) as SkillLevel;
                assert_eq!(
                    compact.log_likelihood(item, s).to_bits(),
                    expected.to_bits()
                );
            }
        }
        // Out-of-range contracts mirror the f64 table.
        assert!(!compact.fill_row(99, &mut row));
        let mut short = vec![0.0f64; 1];
        assert!(!compact.fill_row(0, &mut short));
        assert_eq!(compact.log_likelihood(0, 0), f64::NEG_INFINITY);
        assert_eq!(compact.log_likelihood(99, 1), f64::NEG_INFINITY);
    }

    #[test]
    fn table_matches_direct_evaluation_bitwise() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        assert_eq!(table.n_items(), 3);
        assert_eq!(table.n_levels(), 2);
        for item in 0..3u32 {
            let features = ds.item_features(item);
            for s in 1..=2u8 {
                let direct = model.item_log_likelihood(features, s);
                assert_eq!(table.log_likelihood(item, s), direct);
                assert_eq!(table.row(item)[s as usize - 1], direct);
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let (model, ds) = mixed_setup();
        let seq_table = EmissionTable::build(&model, &ds);
        // Few items → falls back to sequential, still exact.
        let par_table = EmissionTable::build_parallel(&model, &ds, 4).unwrap();
        assert_eq!(seq_table, par_table);
        assert!(EmissionTable::build_parallel(&model, &ds, 0).is_err());
    }

    #[test]
    fn parallel_build_matches_on_many_items() {
        // More items than one chunk so real workers engage.
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 4 }]).unwrap();
        let cells = vec![
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.4, 0.3, 0.2, 0.1]).unwrap(),
            )],
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
            )],
        ];
        let model = SkillModel::new(schema.clone(), 2, cells).unwrap();
        let n_items = 3 * super::PARALLEL_CHUNK + 7;
        let items: Vec<Vec<FeatureValue>> = (0..n_items)
            .map(|i| vec![FeatureValue::Categorical((i % 4) as u32)])
            .collect();
        let actions: Vec<Action> = (0..n_items)
            .map(|t| Action::new(t as i64, 0, t as u32))
            .collect();
        let seq = ActionSequence::new(0, actions).unwrap();
        let ds = Dataset::new(schema, items, vec![seq]).unwrap();
        let seq_table = EmissionTable::build(&model, &ds);
        let par_table = EmissionTable::build_parallel(&model, &ds, 3).unwrap();
        assert_eq!(seq_table, par_table);
    }

    #[test]
    fn out_of_range_scores_neg_inf_or_none() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        assert!(table.checked_row(99).is_none());
        assert_eq!(table.log_likelihood(99, 1), f64::NEG_INFINITY);
        assert_eq!(table.log_likelihood(0, 0), f64::NEG_INFINITY);
        assert_eq!(table.log_likelihood(0, 3), f64::NEG_INFINITY);
    }

    #[test]
    fn posterior_matches_model_posterior() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        let prior = [0.3, 0.7];
        for item in 0..3u32 {
            let direct = model
                .skill_posterior(ds.item_features(item), &prior)
                .unwrap();
            let tabled = table.posterior(item, &prior).unwrap();
            assert_eq!(direct, tabled);
        }
        assert!(table.posterior(0, &[1.0]).is_err());
        assert!(table.posterior(42, &prior).is_err());
    }

    #[test]
    fn expected_level_is_prior_weighted_mean() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        let prior = [0.5, 0.5];
        let e = table.expected_level(1, &prior).unwrap();
        let post = table.posterior(1, &prior).unwrap();
        assert!((e - (post[0] + 2.0 * post[1])).abs() < 1e-15);
        assert!((1.0..=2.0).contains(&e));
    }

    #[test]
    fn verify_finite_accepts_neg_inf_rejects_nan_and_pos_inf() {
        let (model, ds) = mixed_setup();
        let mut table = EmissionTable::build(&model, &ds);
        assert!(table.verify_finite().is_ok());
        // -inf is a legal "forbidden path" score.
        table.data[3] = f64::NEG_INFINITY;
        assert!(table.verify_finite().is_ok());
        // NaN and +inf are poison; the error names the coordinates.
        table.data[3] = f64::NAN;
        let err = table.verify_finite().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("item 1") && msg.contains("level 2"), "{msg}");
        table.data[3] = f64::INFINITY;
        assert!(table.verify_finite().is_err());
    }

    #[test]
    fn refresh_items_updates_only_requested_rows() {
        let (model, ds) = mixed_setup();
        let mut table = EmissionTable::build(&model, &ds);
        // Perturb two rows, then refresh one of them.
        let s = table.n_levels();
        table.data[0] = 123.0;
        table.data[s] = 456.0; // item 1, level 1
        table.refresh_items(&model, &ds, &[0]).unwrap();
        let fresh = EmissionTable::build(&model, &ds);
        assert_eq!(table.row(0), fresh.row(0));
        assert_eq!(table.row(1)[0], 456.0);
        table.refresh_items(&model, &ds, &[1]).unwrap();
        assert_eq!(table, fresh);
        assert!(table.refresh_items(&model, &ds, &[9]).is_err());
    }
}
