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
//! per catalog into flat typed columns (the dataset's column store,
//! `crate::catalog`, shared by every dataset over the same items and
//! kept for the catalog's lifetime), hoisting the enum dispatch and the
//! per-item transcendentals (`ln x`, `ln k!`, integer → float widening)
//! out of every fill, and each
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
//! [`EmissionTable`] borrows its rows in place; the model-direct source
//! evaluates distributions per action into workspace scratch.

use std::ops::Range;

use crate::catalog::{flagged, mask_range, CatalogColumns, Column};
use crate::dist::{score_kind_mismatch, FeatureDistribution};
use crate::error::{CoreError, Result};
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::{fan_out, Owned, ParallelConfig};
use crate::types::{skill_level_from_index, Action, Dataset, ItemId, SkillLevel};

/// A source of emission rows `log P(item | s)` for the assignment DP
/// ([`crate::assign::assign_items_with_table_ws`]).
// lint:allow(unused-pub): the row bound of `assign_items_with_table_ws` and
// `assign_all_parallel_with_table`.
pub trait EmissionRows {
    /// Number of items with a row.
    fn n_items(&self) -> usize;

    /// Number of skill levels `S` (the row length).
    fn n_levels(&self) -> usize;

    /// The emission vector of `item` (`row[s - 1]`). `item` has already
    /// been checked against [`EmissionRows::n_items`]. A stored table
    /// borrows its row in place; a source that scores on demand fills
    /// `scratch` (`S` cells) and returns it.
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

impl DirectEmissions<'_> {
    /// The emission row of every action, `rows[t][s - 1]`. Every item is
    /// checked against the catalog before any row is scored.
    pub(crate) fn rows_of(&self, actions: &[Action]) -> Result<Vec<Vec<f64>>> {
        let n_items = self.dataset.n_items();
        if let Some(action) = actions.iter().find(|a| a.item as usize >= n_items) {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: action.item as usize,
                len: n_items,
            });
        }
        Ok(actions
            .iter()
            .map(|a| {
                self.model
                    .item_log_likelihoods(self.dataset.item_features(a.item))
            })
            .collect())
    }
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

/// Item-tile width of the emission fill: the tiles [`EmissionTable::build`]
/// and [`EmissionTable::refresh_levels`] walk, and the jobs of
/// [`EmissionTable::build_parallel`].
///
/// The fill reads the catalog's columns, gathered once per dataset (see
/// `crate::catalog`). Per tile it touches a `tile`-item window of them
/// (4–24 bytes per item per feature), the level-major scratch
/// (`tile × S` f64), and the output window (`tile × S` f64) — ~200 kB
/// at 2048 items, S = 5, F = 3, comfortably inside a per-core L2 —
/// where the whole-axis fill streams `n_items × S` buffers (2 MB at
/// 50 k items) through every kernel pass. Tile size changes no per-cell
/// operation order, so every choice is bitwise identical; 2048 is
/// flat-optimal on a 2-core x86 VM (within noise from 1024 to 4096).
const ITEM_TILE: usize = 2048;

/// Applies one level's distribution to the `range` items of one catalog
/// column, accumulating into a level-major slice of `range.len()` cells.
fn evaluate_column(
    dist: &FeatureDistribution,
    column: &Column,
    range: Range<usize>,
    out: &mut [f64],
) {
    match (dist, column) {
        (FeatureDistribution::Categorical(d), Column::Categorical(cats)) => {
            d.log_prob_batch(&cats[range], out);
        }
        (FeatureDistribution::Poisson(d), Column::Count { ks, ln_facts }) => {
            d.log_pmf_batch(&ks[range.clone()], &ln_facts[range], out);
        }
        (FeatureDistribution::Gamma(d), Column::Real { xs, ln_xs, guard }) => {
            d.log_pdf_batch(&xs[range.clone()], &ln_xs[range.clone()], out);
            apply_guard(out, mask_range(guard, range));
        }
        (FeatureDistribution::LogNormal(d), Column::Real { ln_xs, guard, .. }) => {
            d.log_pdf_batch(&ln_xs[range.clone()], out);
            apply_guard(out, mask_range(guard, range));
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
fn apply_guard(out: &mut [f64], guard: &[bool]) {
    for (cell, &bad) in out.iter_mut().zip(guard) {
        if bad {
            *cell = f64::NEG_INFINITY;
        }
    }
}

/// The hard-poison flags of the `range` items — rows whose value tuple
/// failed schema dispatch, forced to `-inf` at every level. Reports the
/// mismatch when the range holds one: loud under debug or strict
/// invariants, silent in release (the [`score_kind_mismatch`] contract).
fn poisoned_rows(columns: &CatalogColumns, range: Range<usize>) -> &[bool] {
    let poison = mask_range(columns.hard_poison(), range);
    if poison.contains(&true) {
        let (expected, got) = columns.mismatch();
        let _ = score_kind_mismatch(expected, got);
    }
    poison
}

/// Fills the `levels`-flagged cells of `out` — item-major rows,
/// `out[j·S + s₀]` for item `range.start + j` — from the columnar
/// kernels; the other cells keep their values.
///
/// The scratch buffer is level-major (`scratch[s₀·m + j]`), so every
/// kernel call writes one contiguous unit-stride run of `m` cells; rows
/// are transposed into `out` once at the end. Cells accumulate feature
/// contributions in schema order starting from `0.0`, the exact operation
/// order of [`SkillModel::item_log_likelihood`]'s feature sum, so f64
/// results are bitwise identical to the scalar path whatever the mask.
fn fill_rows_columnar(
    model: &SkillModel,
    columns: &CatalogColumns,
    range: Range<usize>,
    levels: &[bool],
    scratch: &mut Vec<f64>,
    out: &mut [f64],
) {
    let m = range.len();
    let n_levels = model.n_levels();
    debug_assert_eq!(out.len(), m * n_levels);
    if m == 0 || n_levels == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(m * n_levels, 0.0);
    let flagged_levels = scratch.chunks_mut(m).zip(levels).enumerate();
    for (s0, (level_out, _)) in flagged_levels.filter(|(_, (_, &on))| on) {
        match model.level_row(skill_level_from_index(s0)) {
            Ok(row) => {
                for (dist, column) in row.iter().zip(columns.columns()) {
                    evaluate_column(dist, column, range.clone(), level_out);
                }
            }
            // Unreachable for `s₀ < S`, but the scalar path scores a
            // missing level row `-inf`, so mirror it.
            Err(_) => level_out.fill(f64::NEG_INFINITY),
        }
    }
    let poison = poisoned_rows(columns, range);
    for (j, row) in out.chunks_mut(n_levels).enumerate() {
        let poisoned = flagged(poison, j);
        let cells = row.iter_mut().zip(scratch.iter().skip(j).step_by(m));
        for ((cell, &v), _) in cells.zip(levels).filter(|&(_, &on)| on) {
            *cell = if poisoned { f64::NEG_INFINITY } else { v };
        }
    }
}

/// Fills the `levels`-flagged columns of a whole table's `data`, one
/// `ITEM_TILE` tile after another on the calling thread.
fn fill_tiles(model: &SkillModel, columns: &CatalogColumns, levels: &[bool], data: &mut [f64]) {
    let (n_levels, mut scratch) = (model.n_levels(), Vec::new());
    for (tile, window) in data.chunks_mut((ITEM_TILE * n_levels).max(1)).enumerate() {
        let start = tile * ITEM_TILE;
        let rows = start..start + window.len() / n_levels.max(1);
        fill_rows_columnar(model, columns, rows, levels, &mut scratch, window);
    }
}

/// The row-posterior kernel of Eq. 10: combines a row of `log P(i | s)`
/// with a prior `P(s)` into `P(s | i)`. The prior's terms (`ln P(s)` and
/// its sum) are taken once, however many rows the kernel then weighs.
///
/// [`EmissionTable::posterior`], [`EmissionTable::expected_level`],
/// [`EmissionTable::expected_levels`] and [`SkillModel::skill_posterior`]
/// all run it, so their distributions agree bitwise.
pub(crate) struct RowPosterior<'a> {
    prior: &'a [f64],
    /// `ln P(s)`; read only where `P(s) > 0`.
    ln_prior: Vec<f64>,
    /// `Σ_s P(s)`, the fallback normalizer.
    total: f64,
}

impl<'a> RowPosterior<'a> {
    /// Checks the prior's length against `n_levels` and takes its terms.
    pub(crate) fn new(prior: &'a [f64], n_levels: usize) -> Result<Self> {
        if prior.len() != n_levels {
            return Err(CoreError::LengthMismatch {
                context: "skill prior vs levels",
                left: prior.len(),
                right: n_levels,
            });
        }
        Ok(Self {
            prior,
            ln_prior: prior.iter().map(|p| p.ln()).collect(),
            total: prior.iter().sum(),
        })
    }

    /// Writes `P(s | i)` for one row into `out` (both `S` long).
    ///
    /// Computed in log space with the max trick. A row impossible under
    /// every level with prior mass falls back to the normalized prior;
    /// [`CoreError::InvalidProbability`] if the prior sums to ≤ 0 there.
    pub(crate) fn posterior_into(&self, row: &[f64], out: &mut [f64]) -> Result<()> {
        for (((cell, &ll), &p), &ln_p) in
            out.iter_mut().zip(row).zip(self.prior).zip(&self.ln_prior)
        {
            *cell = if p > 0.0 {
                ll + ln_p
            } else {
                f64::NEG_INFINITY
            };
        }
        let max = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            // The item is impossible under every level; fall back to the
            // prior itself so downstream code still gets a distribution.
            if self.total <= 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: "skill prior sum",
                    value: self.total,
                });
            }
            for (cell, &p) in out.iter_mut().zip(self.prior) {
                *cell = p / self.total;
            }
            return Ok(());
        }
        let mut total = 0.0;
        for cell in out.iter_mut() {
            *cell = (*cell - max).exp();
            total += *cell;
        }
        for cell in out.iter_mut() {
            *cell /= total;
        }
        Ok(())
    }
}

/// Expected level `Σ_s s · P(s)` of a posterior (`post[s - 1]`).
pub(crate) fn expected_of(post: &[f64]) -> f64 {
    post.iter()
        .enumerate()
        .map(|(idx, &p)| (idx + 1) as f64 * p)
        .sum()
}

/// Precomputed `n_items × S` matrix of emission log-likelihoods.
///
/// Build it once per training iteration (the table is a pure function of
/// the current model parameters and the item feature matrix) and share it
/// across every sequence. After a refit that touches only some levels,
/// refresh just those columns with [`EmissionTable::refresh_levels`]
/// instead of rebuilding.
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
    /// Each tile reads a window of the catalog's columns (gathered once
    /// per dataset, with enum dispatch and per-item transcendentals
    /// already hoisted), then each (feature, level) pair runs one batch
    /// kernel over a contiguous run of cells. Blocking over
    /// `ITEM_TILE`-item tiles keeps each tile's column window plus its
    /// level-major scratch
    /// (`ITEM_TILE × S` f64) resident in L2 even when the full
    /// `n_items × S` table is megabytes: every kernel streams a buffer
    /// that was just written. Each cell is a pure function of its own
    /// item's features and level row — tile boundaries change no
    /// operation order within a cell — so results are bitwise identical
    /// to [`crate::reference::build_scalar`], the direct assignment path,
    /// and the pre-tiling whole-axis fill, for every tile size.
    pub fn build(model: &SkillModel, dataset: &Dataset) -> Self {
        let (n_items, n_levels) = (dataset.n_items(), model.n_levels());
        let mut data = vec![0.0f64; n_items * n_levels];
        let columns = dataset.catalog().columns();
        fill_tiles(model, columns, &vec![true; n_levels], &mut data);
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
        let table = Self::build_parallel(model, dataset, parallel.user_threads())?;
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

    /// Builds the table with `threads` workers on the fan-out
    /// ([`crate::parallel::fan_out`]).
    ///
    /// The output buffer is allocated once up front and split into the
    /// `ITEM_TILE`-row tiles of [`EmissionTable::build`], one job each;
    /// the worker that claims a tile runs the columnar fill *directly into
    /// the final buffer*, so there is no per-tile row vector and no
    /// stitch copy at the end. One thread runs the tiles on the calling
    /// thread. Bitwise identical to [`EmissionTable::build`].
    pub fn build_parallel(model: &SkillModel, dataset: &Dataset, threads: usize) -> Result<Self> {
        ParallelConfig::all(threads).validate()?;
        let (n_items, n_levels) = (dataset.n_items(), model.n_levels());
        // Built here on first use, so workers only ever read the columns.
        let columns = dataset.catalog().columns();
        let mut data = vec![0.0f64; n_items * n_levels];
        let tile_len = (ITEM_TILE * n_levels).max(1);
        let n_tiles = data.len().div_ceil(tile_len);
        let tiles = Owned::new(data.chunks_mut(tile_len));
        let all_levels = vec![true; n_levels];
        let mut scratch = vec![Vec::new(); threads.min(n_tiles).max(1)];
        let fill = |tile: usize, scratch: &mut Vec<f64>| {
            let window = tiles.take(tile)?;
            let start = tile * ITEM_TILE;
            let rows = start..start + window.len() / n_levels;
            fill_rows_columnar(model, columns, rows, &all_levels, scratch, window);
            Ok(())
        };
        fan_out(n_tiles, n_tiles, &mut scratch, "emission table", fill, Ok)?;
        drop(tiles);
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
    /// Panics if `item` is out of range; use `EmissionTable::checked_row`
    /// when the item id is not already dataset-validated.
    #[inline]
    pub fn row(&self, item: ItemId) -> &[f64] {
        let i = item as usize;
        &self.data[i * self.n_levels..(i + 1) * self.n_levels]
    }

    /// Bounds-checked variant of [`EmissionTable::row`].
    pub(crate) fn checked_row(&self, item: ItemId) -> Option<&[f64]> {
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

    /// Incremental invalidation by *level*: recomputes column `s` of every
    /// item for the levels flagged in `levels` (zero-based, one flag per
    /// level).
    ///
    /// The incremental trainer refits only the levels whose sufficient
    /// statistics changed and reuses the previous iteration's
    /// distributions (bitwise) everywhere else, so the table columns of
    /// untouched levels are still exact — refreshing just the refit
    /// columns costs `n_items · n_refit · F` evaluations instead of a
    /// full `n_items · S · F` rebuild. It walks the tiles of
    /// [`EmissionTable::build`] with the flags as the level mask, so the
    /// refreshed cells are bitwise a fresh build's.
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
        if levels.contains(&true) {
            let columns = dataset.catalog().columns();
            fill_tiles(model, columns, levels, &mut self.data);
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
    pub(crate) fn verify_finite(&self) -> Result<()> {
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
    /// table row by the row-posterior kernel [`SkillModel::skill_posterior`]
    /// also runs (log-space max trick, impossible-item fallback to the
    /// normalized prior), so both paths produce identical distributions.
    pub fn posterior(&self, item: ItemId, prior: &[f64]) -> Result<Vec<f64>> {
        let prior = RowPosterior::new(prior, self.n_levels)?;
        let row = self
            .checked_row(item)
            .ok_or(CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: self.n_items,
            })?;
        let mut post = vec![0.0; self.n_levels];
        prior.posterior_into(row, &mut post)?;
        Ok(post)
    }

    /// Expected skill level `Σ_s s · P(s | item)` — the generation-based
    /// difficulty of Eq. 11, evaluated from one table row.
    pub fn expected_level(&self, item: ItemId, prior: &[f64]) -> Result<f64> {
        Ok(expected_of(&self.posterior(item, prior)?))
    }

    /// [`EmissionTable::expected_level`] of every item, in item order, in
    /// one pass: the row-posterior kernel takes `ln P(s)` once per call
    /// and reuses one row buffer, so each item costs a normalization and
    /// a weighted sum. Bitwise the per-item results; the first failing
    /// item's error is returned.
    pub fn expected_levels(&self, prior: &[f64]) -> Result<Vec<f64>> {
        let prior = RowPosterior::new(prior, self.n_levels)?;
        let mut post = vec![0.0; self.n_levels];
        let mut out = Vec::with_capacity(self.n_items);
        // `n_levels ≥ 1` for every model-built table; `max` only keeps a
        // degenerate zero-level table from panicking the chunking.
        for row in self.data.chunks_exact(self.n_levels.max(1)) {
            prior.posterior_into(row, &mut post)?;
            out.push(expected_of(&post));
        }
        Ok(out)
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

        // Across tile edges, with a guard-flagged real and (where a table
        // may score one) a hard-poisoned row: for every mask at S = 3 the
        // flagged columns of a refreshed stale table are a fresh build's
        // bits, the others the stale build's.
        let ds = tiled_dataset();
        let (stale, fresh) = (tiled_model(&ds, 0.0), tiled_model(&ds, 0.5));
        let (old, new) = (
            EmissionTable::build(&stale, &ds),
            EmissionTable::build(&fresh, &ds),
        );
        let poisoned = [1, ITEM_TILE + 1].map(|i| new.row(i as ItemId));
        let poisoned = &poisoned[..if crate::invariants::ENABLED { 1 } else { 2 }];
        let neg_inf = |row: &&[f64]| row.iter().all(|&v| v == f64::NEG_INFINITY);
        assert!(poisoned.iter().all(neg_inf));
        for mask in 0..8u8 {
            let levels: Vec<bool> = (0..3).map(|s0| mask >> s0 & 1 == 1).collect();
            let mut table = old.clone();
            table.refresh_levels(&fresh, &ds, &levels).unwrap();
            for item in 0..ds.n_items() as ItemId {
                for (s0, &on) in levels.iter().enumerate() {
                    let want = if on { new.row(item) } else { old.row(item) };
                    let (got, want) = (table.row(item)[s0].to_bits(), want[s0].to_bits());
                    assert_eq!(got, want, "mask {mask:03b}, item {item}, level {s0}");
                }
            }
        }
    }

    /// `3 · ITEM_TILE + 7` items over a categorical, a count, a gamma and
    /// a log-normal feature. Item 1 holds a non-positive real (a guard
    /// flag); item `ITEM_TILE + 1` a real in its count slot (a hard
    /// poison) when the invariant layer is off, as it would panic there.
    fn tiled_dataset() -> Dataset {
        use crate::feature::PositiveModel;
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            },
        ])
        .unwrap();
        let items = (0..3 * ITEM_TILE + 7)
            .map(|i| {
                vec![
                    FeatureValue::Categorical((i % 3) as u32),
                    FeatureValue::Count((i % 11) as u64),
                    FeatureValue::Real(0.25 + (i % 17) as f64),
                    FeatureValue::Real(1.5 + (i % 5) as f64),
                ]
            })
            .collect();
        let seq = ActionSequence::new(0, vec![Action::new(0, 0, 0)]).unwrap();
        let mut ds = Dataset::new(schema, items, vec![seq]).unwrap();
        ds.item_table_mut().edit_rows(|rows| {
            rows[1][2] = FeatureValue::Real(-1.0);
            if !crate::invariants::ENABLED {
                rows[ITEM_TILE + 1][1] = FeatureValue::Real(2.0);
            }
        });
        ds
    }

    fn tiled_model(ds: &Dataset, shift: f64) -> SkillModel {
        use crate::dist::{Gamma, LogNormal};
        let cells = (0..3)
            .map(|s| {
                let s = s as f64;
                let p = [0.5 - 0.1 * s, 0.3, 0.2 + 0.1 * s];
                vec![
                    FeatureDistribution::Categorical(Categorical::from_probs(p.to_vec()).unwrap()),
                    FeatureDistribution::Poisson(Poisson::new(1.0 + s + shift).unwrap()),
                    FeatureDistribution::Gamma(Gamma::new(2.0 + s, 1.5 + shift).unwrap()),
                    FeatureDistribution::LogNormal(LogNormal::new(0.1 * s + shift, 1.0).unwrap()),
                ]
            })
            .collect();
        SkillModel::new(ds.schema().clone(), 3, cells).unwrap()
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
        // More items than one tile so real workers engage.
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
        let n_items = 3 * super::ITEM_TILE + 7;
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
        let batched = table.expected_levels(&prior).unwrap();
        assert_eq!(batched.len(), ds.n_items());
        for (item, &e) in (0..ds.n_items() as u32).zip(&batched) {
            let direct = model
                .skill_posterior(ds.item_features(item), &prior)
                .unwrap();
            let tabled = table.posterior(item, &prior).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&tabled), "item {item}");
            let single = table.expected_level(item, &prior).unwrap();
            assert_eq!(e.to_bits(), single.to_bits(), "item {item}");
        }
        assert!(table.posterior(0, &[1.0]).is_err());
        assert!(table.posterior(42, &prior).is_err());
    }

    #[test]
    fn expected_levels_falls_back_to_prior_on_impossible_row() {
        let table = EmissionTable::from_scores(
            2,
            2,
            vec![-0.1, -2.0, f64::NEG_INFINITY, f64::NEG_INFINITY],
        );
        // Sums to 0.5, so the normalized prior is exact: [0.25, 0.75].
        let prior = [0.125, 0.375];
        let all = table.expected_levels(&prior).unwrap();
        assert_eq!(table.posterior(1, &prior).unwrap(), vec![0.25, 0.75]);
        assert_eq!(all[1].to_bits(), 1.75f64.to_bits());
        assert_eq!(
            all[0].to_bits(),
            table.expected_level(0, &prior).unwrap().to_bits()
        );
    }

    #[test]
    fn expected_levels_rejects_wrong_length_prior() {
        let (model, ds) = mixed_setup();
        let table = EmissionTable::build(&model, &ds);
        assert_eq!(
            table.expected_levels(&[1.0]),
            Err(CoreError::LengthMismatch {
                context: "skill prior vs levels",
                left: 1,
                right: 2,
            })
        );
    }

    #[test]
    fn expected_levels_rejects_zero_sum_prior_on_impossible_row() {
        let table = EmissionTable::from_scores(
            2,
            2,
            vec![-0.1, -2.0, f64::NEG_INFINITY, f64::NEG_INFINITY],
        );
        // Item 0 has a finite cell under the positive entry; item 1 is
        // impossible, and the prior it falls back to sums to zero.
        let prior = [1.0, -1.0];
        assert!(table.expected_level(0, &prior).is_ok());
        let want = CoreError::InvalidProbability {
            context: "skill prior sum",
            value: 0.0,
        };
        assert_eq!(table.expected_level(1, &prior), Err(want.clone()));
        assert_eq!(table.expected_levels(&prior), Err(want));
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
}
