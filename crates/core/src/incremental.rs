//! Incremental sufficient statistics for the coordinate-ascent trainer.
//!
//! The update step (§IV-B, Eqs. 5–7) fits each `(skill, feature)` cell in
//! closed form from the feature values of the actions assigned to that
//! level. The statistics are **additive over actions**, and an action's
//! feature values depend only on its item, so a level's statistics are
//! exactly the integer histogram *"how many actions of item `i` are
//! assigned level `s`"*. [`StatsGrid`] is that `S × n_items` histogram:
//! built once, then maintained by per-action deltas (`−1` on the old
//! level, `+1` on the new) only where the assigned level moved —
//! `O(n_changed)` integer updates instead of an `O(|A| · F)` rescan.
//! [`MassGrid`] is the EM analogue: one iteration's real *responsibility
//! mass* `Σ γ(a, s)` per cell, folded fresh every iteration.
//!
//! Both grids share one M-step, `fit_levels`: it replays each level row
//! through one `FeatureAccumulator` per feature in ascending item
//! order, each item's values pushed with its cell as the weight (a count
//! as a whole number, a mass as it is; `O(n_items · F)` pushes per
//! level, independent of `|A|`), and splits the refit cells
//! over workers per [`ParallelConfig`]'s `skills`/`features`/`threads`
//! (§IV-C). The item-ID feature of the paper's multi-faceted model has
//! one category per item, so its level row *is* its count vector: a
//! column the catalog flags as an item-ID column gets no accumulator, and
//! its categorical fits straight from the row. The hard grid tracks which
//! levels its deltas touched, and its fit keeps the previous model's
//! rows for the clean ones. A cell fit is a pure function of its row and
//! the smoothing constant, so reuse and every split are bitwise exact.
//!
//! The fit takes one row per level (`None` keeps the level) and writes
//! into a model's own cells: a categorical cell overwrites its buffers,
//! so a catalog-sized refit allocates no parameter buffer. Every fit is
//! such an in-place refit of a model its caller owns. The trainers hand
//! their one model to [`StatsGrid::refit`] / [`MassGrid::refit`];
//! [`StatsGrid::fit_model_incremental`] refits a clone of the previous
//! model; the serving cut (`GridCut`) copies out only the dirty rows and
//! refits a clone of the model it was cut against.
//!
//! ## Exactness
//!
//! Integer deltas are exact: an add followed by a remove restores the
//! grid bit for bit, so incremental training is deterministic and
//! independent of thread count or delta order, and the canonical replay
//! order keeps refits from drifting across iterations. Relative to the
//! action-order [`crate::update::fit_model`], the fitted cells are
//! bitwise identical for the integer-summation families (categorical,
//! Poisson) and agree to summation-order rounding for gamma/log-normal.
//! A mass cell sums an item's weights before they meet its feature
//! values, so a weighted fit agrees with the action-order one to
//! rounding in every family. Both grids run the same accumulator and
//! fits, so a mass grid holding whole counts fits a count grid's model
//! bit for bit. The action-order trainers survive as
//! oracles and speedup denominators only:
//! [`crate::reference::train_full_rescan`] (checked by the property
//! tests and `bench_incremental`) and [`crate::reference::train_em_full`]
//! (`bench_em_incremental`).

use crate::catalog::{Catalog, FeatureColumn};
use crate::dist::{refit_categorical, FeatureAccumulator, FeatureDistribution};
use crate::error::{CoreError, Result};
use crate::feature::{FeatureKind, FeatureSchema};
use crate::model::SkillModel;
use crate::parallel::{fan_out, job_len, Owned, ParallelConfig};
use crate::types::{Dataset, SkillAssignments};

/// Minimum number of users per worker of the grid build and delta; below
/// this the coordination cost exceeds the scan cost.
const MIN_USERS_PER_WORKER: usize = 8;

/// Persistent per-level item histogram: the exact sufficient statistics of
/// a skill assignment, in incrementally-updatable form.
///
/// `counts[s · n_items + i]` = number of actions of item `i` currently
/// assigned skill level `s + 1`. Memory cost is `8 · S · n_items` bytes
/// (40 kB at the default synthetic scale of 200 items × 5 levels),
/// independent of the number of actions.
#[derive(Debug, Clone)]
pub struct StatsGrid {
    n_levels: usize,
    n_items: usize,
    counts: Vec<u64>,
    /// Levels whose histogram changed since the last incremental fit;
    /// all-true until the grid's first fit.
    dirty: Vec<bool>,
}

/// Equality compares the histogram only — the dirty bookkeeping is an
/// optimization detail that never affects observable results (refitting a
/// clean row reproduces the reused distributions bit for bit).
impl PartialEq for StatsGrid {
    fn eq(&self, other: &Self) -> bool {
        self.n_levels == other.n_levels
            && self.n_items == other.n_items
            && self.counts == other.counts
    }
}

impl Eq for StatsGrid {}

impl StatsGrid {
    /// Creates an all-zero grid.
    pub fn new(n_levels: usize, n_items: usize) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        Ok(Self {
            n_levels,
            n_items,
            counts: vec![0; n_levels * n_items],
            dirty: vec![true; n_levels],
        })
    }

    /// Adds `other`'s histogram into this grid cell by cell.
    ///
    /// Integer addition is exact and order-free, so merging per-worker
    /// partials in any order reproduces the sequential build bit for
    /// bit. Dirty flags are OR-ed. Shape mismatches return a typed
    /// [`CoreError::LengthMismatch`].
    pub fn merge(&mut self, other: &StatsGrid) -> Result<()> {
        if other.n_levels != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "merged grid levels",
                left: self.n_levels,
                right: other.n_levels,
            });
        }
        if other.n_items != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "merged grid items",
                left: self.n_items,
                right: other.n_items,
            });
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (d, &o) in self.dirty.iter_mut().zip(&other.dirty) {
            *d |= o;
        }
        Ok(())
    }

    /// Recomputes the dirty flags by comparing this grid's histogram
    /// rows against `prev`'s: a level is dirty iff its row changed.
    ///
    /// This recovers incremental-refit dirty tracking for a grid rebuilt
    /// from scratch: it marks the rows [`StatsGrid::apply_delta`] would
    /// have marked, as a delta marks exactly the levels whose row changed
    /// (a level an action left and another entered on the same item stays
    /// clean).
    pub fn mark_dirty_from(&mut self, prev: &StatsGrid) -> Result<()> {
        if prev.n_levels != self.n_levels || prev.n_items != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "dirty comparison grid shape",
                left: self.n_levels * self.n_items,
                right: prev.n_levels * prev.n_items,
            });
        }
        if self.n_items == 0 {
            self.dirty.fill(false);
            return Ok(());
        }
        for (d, (cur, old)) in self.dirty.iter_mut().zip(
            self.counts
                .chunks_exact(self.n_items)
                .zip(prev.counts.chunks_exact(self.n_items)),
        ) {
            *d = cur != old;
        }
        Ok(())
    }

    /// Number of skill levels `S`.
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Number of items the grid covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Count of actions of item `item` assigned level `s + 1`
    /// (`s` is the zero-based level index).
    pub fn count(&self, s: usize, item: usize) -> u64 {
        self.counts[s * self.n_items + item]
    }

    /// Total number of actions represented by the grid.
    pub fn total_actions(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Builds the grid from scratch (`O(|A|)` integer increments):
    /// [`StatsGrid::build_with_config`] on one worker.
    pub fn build(
        dataset: &Dataset,
        assignments: &SkillAssignments,
        n_levels: usize,
    ) -> Result<Self> {
        Self::build_with_config(
            dataset,
            assignments,
            n_levels,
            &ParallelConfig::sequential(),
        )
    }

    /// Builds the grid on `config`'s user-parallel workers
    /// ([`ParallelConfig::users`]) over disjoint user ranges, adding
    /// per-worker deltas by integer addition — exact, so every thread
    /// count gives the same grid. A bad level or item is an error (the
    /// first in user order), and no grid is returned.
    pub fn build_with_config(
        dataset: &Dataset,
        assignments: &SkillAssignments,
        n_levels: usize,
        config: &ParallelConfig,
    ) -> Result<Self> {
        let mut grid = Self::new(n_levels, dataset.n_items())?;
        validate_shape(dataset, assignments)?;
        let (sequences, per_user) = (dataset.sequences(), &assignments.per_user);
        let n_workers = user_workers(dataset, config);
        grid.add_user_deltas(n_workers, sequences.len(), "stats build", |u, delta| {
            let (Some(seq), Some(levels)) = (sequences.get(u), per_user.get(u)) else {
                return Ok(0);
            };
            for (action, &level) in seq.actions().iter().zip(levels) {
                delta.shift(action.item, level, 1)?;
            }
            Ok(0)
        })?;
        Ok(grid)
    }

    /// Applies the assignment delta `prev → next`: for every action whose
    /// level moved, decrements the old `(level, item)` cell and increments
    /// the new one. Returns the number of changed actions. This is
    /// [`StatsGrid::apply_delta_with_config`] on one worker.
    ///
    /// `prev` must be the assignment the grid currently represents;
    /// removing from an empty cell (the tell-tale of a stale grid) is an
    /// error, as are ragged inputs and out-of-range levels. A rejected
    /// delta leaves the grid untouched.
    pub fn apply_delta(
        &mut self,
        dataset: &Dataset,
        prev: &SkillAssignments,
        next: &SkillAssignments,
    ) -> Result<usize> {
        self.apply_delta_with_config(dataset, prev, next, &ParallelConfig::sequential())
    }

    /// [`StatsGrid::apply_delta`] on `config`'s user-parallel workers over
    /// disjoint user ranges, adding per-worker deltas by integer addition
    /// — exact, so every thread count gives the same grid, count and
    /// dirty flags (the levels whose row changed), and the same error.
    pub fn apply_delta_with_config(
        &mut self,
        dataset: &Dataset,
        prev: &SkillAssignments,
        next: &SkillAssignments,
        config: &ParallelConfig,
    ) -> Result<usize> {
        validate_shape(dataset, next)?;
        validate_delta_shape(prev, next)?;
        let sequences = dataset.sequences();
        let n_workers = user_workers(dataset, config);
        self.add_user_deltas(n_workers, sequences.len(), "stats delta", |u, delta| {
            let (Some(seq), Some(prev_u), Some(next_u)) =
                (sequences.get(u), prev.per_user.get(u), next.per_user.get(u))
            else {
                return Ok(0);
            };
            let mut changed = 0;
            if prev_u != next_u {
                for ((action, &old), &new) in seq.actions().iter().zip(prev_u).zip(next_u) {
                    if old != new {
                        delta.shift(action.item, old, -1)?;
                        delta.shift(action.item, new, 1)?;
                        changed += 1;
                    }
                }
            }
            Ok(changed)
        })
    }

    /// Cuts users `0..n_users` into contiguous ranges, one
    /// [`fan_out`] job each, on `n_workers` workers that each record their
    /// jobs' changes into their own [`GridDelta`] through `visit` (which
    /// returns how many actions it moved), then adds the deltas into the
    /// grid. A job stops at its first error and the first error in user
    /// order wins; an error, or deltas that would take a cell below zero,
    /// leave the grid untouched. Integer addition is exact, so any worker
    /// count gives the same grid. Returns the summed `visit` counts.
    fn add_user_deltas(
        &mut self,
        n_workers: usize,
        n_users: usize,
        step: &'static str,
        visit: impl Fn(usize, &mut GridDelta) -> Result<usize> + Sync,
    ) -> Result<usize> {
        let mut deltas: Vec<GridDelta> = (0..n_workers)
            .map(|_| GridDelta::new(self.n_levels, self.n_items))
            .collect();
        let len = job_len(n_users, n_workers);
        let work = |job: usize, delta: &mut GridDelta| {
            (job * len..n_users.min(job * len + len)).try_fold(0, |n, u| Ok(n + visit(u, delta)?))
        };
        let (n_jobs, mut changed) = (n_users.div_ceil(len), 0);
        fan_out(n_jobs, n_jobs, &mut deltas, step, work, |n| {
            changed += n;
            Ok(())
        })?;
        if let Some((total, rest)) = deltas.split_first_mut() {
            for delta in rest {
                total.absorb(delta);
            }
            self.add_delta(total)?;
        }
        Ok(changed)
    }

    /// Adds one newly observed action at the given level: a single `+1`
    /// on the `(level, item)` cell, marking that level dirty. This is the
    /// streaming counterpart of [`StatsGrid::apply_delta`] — an append has
    /// no previous level to remove. `O(1)`.
    pub fn add_action(
        &mut self,
        item: crate::types::ItemId,
        level: crate::types::SkillLevel,
    ) -> Result<()> {
        let s = level_index(level, self.n_levels)?;
        let item = item as usize;
        if item >= self.n_items {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: item,
                len: self.n_items,
            });
        }
        self.counts[s * self.n_items + item] += 1;
        self.dirty[s] = true;
        Ok(())
    }

    /// Adds `delta` into the histogram and zeroes it for reuse, visiting
    /// only the cells it touched — `O(changes)`, not `O(S · n_items)`. A
    /// level is marked dirty iff one of its cells changed. A shape
    /// mismatch, or a delta taking a cell below zero (removing an action
    /// the grid never observed), is an error that changes neither the
    /// grid, its dirty flags nor the delta: every touched cell is checked
    /// before any is written.
    pub(crate) fn add_delta(&mut self, delta: &mut GridDelta) -> Result<()> {
        if delta.n_levels != self.n_levels || delta.n_items != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "grid delta shape",
                left: delta.cells.len(),
                right: self.counts.len(),
            });
        }
        let underflows = delta.touched.iter().any(|&index| {
            let (Some(&d), Some(&cell)) = (delta.cells.get(index), self.counts.get(index)) else {
                return false;
            };
            (cell as i128) + (d as i128) < 0
        });
        if underflows {
            return Err(CoreError::DegenerateFit {
                distribution: "stats grid",
                reason: "delta removes an action the grid never observed",
            });
        }
        for index in delta.touched.drain(..) {
            let (Some(d), Some(cell)) = (delta.cells.get_mut(index), self.counts.get_mut(index))
            else {
                continue; // same shape: every touched index is in range
            };
            let d = std::mem::take(d);
            if d == 0 {
                continue; // cancelled out, or listed twice
            }
            mark_dirty(&mut self.dirty, index / self.n_items);
            *cell = (*cell as i128 + d as i128) as u64;
        }
        Ok(())
    }

    /// Per-level dirty flags: `true` for levels whose histogram changed
    /// since the last fit ([`StatsGrid::refit`] or
    /// [`StatsGrid::fit_model_incremental`]) or cut (all `true` on a
    /// freshly built grid).
    pub fn dirty_levels(&self) -> &[bool] {
        &self.dirty
    }

    /// Refits, in `model`'s own buffers, **only the levels whose
    /// histogram changed** since the last fit, and keeps the other
    /// levels' cells as they are. A cell fit is a deterministic pure
    /// function of its histogram row and `lambda`, so the kept rows are
    /// bitwise identical to what a refit would produce — `model` must
    /// therefore be the model of the previous fit of *this* grid with the
    /// same `lambda` (the trainer maintains exactly that invariant). A
    /// model of another level or feature count is replaced by a full
    /// refit. A refit cell writes into the buffers it already holds, so a
    /// refit of an unchanged shape allocates no parameter buffer. The
    /// refit `(level, feature)` cells are split over workers by the
    /// `skills`/`features`/`threads` partition of `parallel` (module
    /// docs); every split gives the same bits. Clears the dirty flags on
    /// success; `threads == 0` is [`CoreError::InvalidParallelism`]. On
    /// error the dirty flags stay and `model` is left partly refit.
    pub fn refit(
        &mut self,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        model: &mut SkillModel,
    ) -> Result<()> {
        self.refit_rows(false, dataset, lambda, parallel, model)
    }

    /// [`StatsGrid::refit`] of a clone of `prev`, or of an unfitted model
    /// with every level refit when `prev` is absent; `prev` itself is
    /// left as it is.
    pub fn fit_model_incremental(
        &mut self,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        prev: Option<&SkillModel>,
    ) -> Result<SkillModel> {
        let mut model = match prev {
            Some(prev) => prev.clone(),
            None => SkillModel::unfitted(dataset.schema().clone(), self.n_levels)?,
        };
        self.refit_rows(prev.is_none(), dataset, lambda, parallel, &mut model)?;
        Ok(model)
    }

    /// The body of [`StatsGrid::refit`]: refits the dirty levels, or every
    /// level when `every` is set or `model` is replaced, then clears the
    /// dirty flags.
    fn refit_rows(
        &mut self,
        every: bool,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        model: &mut SkillModel,
    ) -> Result<()> {
        let every = !ready(model, dataset.schema(), self.n_levels)? || every;
        let rows: Vec<Option<&[u64]>> = (self.dirty.iter().enumerate())
            .map(|(s, &dirty)| (every || dirty).then(|| level_row(&self.counts, self.n_items, s)))
            .collect();
        fit_levels(&rows, count_weight, dataset, lambda, parallel, model)?;
        self.dirty.fill(false);
        Ok(())
    }

    /// Cuts the dirty rows out for a refit run apart from the grid (see
    /// [`GridCut`]) and clears the dirty flags.
    pub(crate) fn cut(&mut self) -> GridCut {
        let n_dirty = self.dirty.iter().filter(|&&d| d).count();
        let mut cells = Vec::with_capacity(n_dirty * self.n_items);
        for (s, _) in self.dirty.iter().enumerate().filter(|&(_, &d)| d) {
            cells.extend_from_slice(level_row(&self.counts, self.n_items, s));
        }
        let dirty = std::mem::replace(&mut self.dirty, vec![false; self.n_levels]);
        GridCut {
            n_items: self.n_items,
            cells,
            dirty,
        }
    }

    /// Marks dirty again every level `cut` carried — the undo of
    /// [`StatsGrid::cut`] for a refit that never installed its model.
    pub(crate) fn reopen(&mut self, cut: &GridCut) {
        for (d, &c) in self.dirty.iter_mut().zip(&cut.dirty) {
            *d |= c;
        }
    }

    /// Debug-mode cross-check: rebuilds the histogram from scratch for
    /// `assignments` and verifies every cell matches. Cheap relative to a
    /// full accumulate (integer increments only); the trainer runs it
    /// under `debug_assertions` after every delta application.
    pub fn cross_check(&self, dataset: &Dataset, assignments: &SkillAssignments) -> Result<()> {
        let fresh = Self::build(dataset, assignments, self.n_levels)?;
        if fresh != *self {
            return Err(CoreError::DegenerateFit {
                distribution: "stats grid",
                reason: "incremental grid diverged from from-scratch rebuild",
            });
        }
        Ok(())
    }
}

/// One EM iteration's responsibility mass: the weighted sufficient
/// statistics of the soft M-step, the EM analogue of [`StatsGrid`].
///
/// `mass[s · n_items + i]` holds `Σ_a γ(a, s)` over the actions `a` on
/// item `i`. An action's feature values depend only on its item, so the
/// M-step replays each level row once, each item's mass as the weight of
/// its values (`O(S · n_items · F)` pushes, independent of `|A|`), in the
/// same `fit_levels`, accumulator and fits the hard grid uses; a level
/// with any positive mass fits, even one under one action's worth.
/// Invalid item values fail the fit with the hard path's typed errors.
/// The grid is catalog-sized and
/// fresh every iteration: it keeps no per-action state. Rows added in
/// one order give one set of bits, so the EM loop
/// ([`crate::chunked::train_em_chunked`]) adds them on the calling
/// thread in global action order.
#[derive(Debug, Clone)]
pub struct MassGrid {
    n_levels: usize,
    n_items: usize,
    mass: Vec<f64>,
}

impl MassGrid {
    /// An all-zero grid.
    pub fn new(n_levels: usize, n_items: usize) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        Ok(Self {
            n_levels,
            n_items,
            mass: vec![0.0; n_levels * n_items],
        })
    }

    /// Adds one action's posterior row `gamma` (one weight per level) to
    /// the cells of its `item`. A row of the wrong length or an item
    /// outside the grid is an error that adds nothing.
    pub fn add(&mut self, item: crate::types::ItemId, gamma: &[f64]) -> Result<()> {
        if gamma.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "posterior row vs grid levels",
                left: gamma.len(),
                right: self.n_levels,
            });
        }
        let item = item as usize;
        if item >= self.n_items {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: item,
                len: self.n_items,
            });
        }
        // The item's cells across levels form a stride-`n_items` column.
        let column = self.mass.iter_mut().skip(item).step_by(self.n_items);
        for (cell, &weight) in column.zip(gamma) {
            *cell += weight;
        }
        Ok(())
    }

    /// Responsibility mass of `item` at zero-based level `s` (read by
    /// tests only).
    #[cfg(test)]
    pub(crate) fn mass(&self, s: usize, item: usize) -> f64 {
        self.mass[s * self.n_items + item]
    }

    /// Fits every level from its mass row (the one M-step, with the
    /// `skills`/`features`/`threads` split of `parallel`; every split
    /// gives the same bits). `threads == 0` is
    /// [`CoreError::InvalidParallelism`].
    pub fn fit_model(
        &self,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
    ) -> Result<SkillModel> {
        let mut model = SkillModel::unfitted(dataset.schema().clone(), self.n_levels)?;
        self.refit(dataset, lambda, parallel, &mut model)?;
        Ok(model)
    }

    /// [`MassGrid::fit_model`] into `model`'s own buffers: every level
    /// is refit, and a model of another level or feature count is
    /// replaced. On error `model` is left partly refit.
    pub fn refit(
        &self,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        model: &mut SkillModel,
    ) -> Result<()> {
        ready(model, dataset.schema(), self.n_levels)?;
        let rows: Vec<Option<&[f64]>> = (0..self.n_levels)
            .map(|s| Some(level_row(&self.mass, self.n_items, s)))
            .collect();
        fit_levels(&rows, |mass| mass, dataset, lambda, parallel, model)
    }
}

/// The rows one refit reads, copied out of a [`StatsGrid`] so the fit
/// can run while the grid keeps taking deltas: the dirty level rows only,
/// packed in level order (`n_dirty × n_items` counts), and the dirty
/// flags, which the grid clears at the cut.
///
/// A refit of the cut into the previous model keeps that model's clean
/// levels, so it is bitwise the [`StatsGrid::fit_model_incremental`] fit
/// of the grid as it stood at the cut. Deltas landing after the cut mark
/// their levels dirty in the grid again, for the next cut.
#[derive(Debug, Clone)]
pub(crate) struct GridCut {
    n_items: usize,
    /// The dirty rows, level-major in level order.
    cells: Vec<u64>,
    dirty: Vec<bool>,
}

impl GridCut {
    /// Per-level flags: the levels this cut refits.
    pub(crate) fn dirty_levels(&self) -> &[bool] {
        &self.dirty
    }

    /// Refits the cut's dirty levels into `model`'s own buffers and keeps
    /// its other levels (the one M-step, `fit_levels`). `model` must be
    /// the model the grid was last fit to: the cut holds no clean rows, so
    /// a model of another level or feature count is an error instead of a
    /// full refit. On error `model` is left partly refit.
    pub(crate) fn refit(
        &self,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        model: &mut SkillModel,
    ) -> Result<()> {
        if !shaped(model, dataset.schema(), self.dirty.len()) {
            return Err(CoreError::DegenerateFit {
                distribution: "refit cut",
                reason: "previous model is shaped unlike the grid; a cut holds only dirty rows",
            });
        }
        model.adopt_schema(dataset.schema());
        let mut packed = (0..).map(|k| level_row(&self.cells, self.n_items, k));
        let rows: Vec<Option<&[u64]>> = (self.dirty.iter())
            .map(|&dirty| if dirty { packed.next() } else { None })
            .collect();
        fit_levels(&rows, count_weight, dataset, lambda, parallel, model)
    }
}

/// A [`StatsGrid`] count as an accumulator weight.
fn count_weight(count: u64) -> f64 {
    count as f64
}

/// Readies `model` for a refit over `schema` with `n_levels` levels: a
/// model of that shape keeps its cells and takes `schema`, any other is
/// replaced by an unfitted one. Returns whether the cells were kept.
fn ready(model: &mut SkillModel, schema: &FeatureSchema, n_levels: usize) -> Result<bool> {
    if shaped(model, schema, n_levels) {
        model.adopt_schema(schema);
        return Ok(true);
    }
    *model = SkillModel::unfitted(schema.clone(), n_levels)?;
    Ok(false)
}

/// Whether `model` has `n_levels` levels and `schema`'s feature count.
fn shaped(model: &SkillModel, schema: &FeatureSchema, n_levels: usize) -> bool {
    model.n_levels() == n_levels && model.n_features() == schema.len()
}

/// Level `s`'s row of the level-major grid `cells` of `n_items` columns;
/// empty past the last row.
fn level_row<W>(cells: &[W], n_items: usize, s: usize) -> &[W] {
    cells.get(s * n_items..(s + 1) * n_items).unwrap_or(&[])
}

/// The one M-step (§IV-B, Eqs. 5–7) of both grids and of the hard cut:
/// refits each level of `model` that `rows` gives a grid row, one
/// `n_items` row per level (`None` keeps the level's cells), in `model`'s
/// own cells. A row count other than the model's level count, or a row
/// of another length than the catalog, is a typed error. `weight` reads
/// a cell as the weight its item's values are pushed with: a count as
/// `count as f64` (exact below 2⁵³), a mass as it is. Callers clear
/// their dirty flags on success; on error `model` is left partly refit.
///
/// The refit `(level, feature)` cells are independent (§IV-C), so
/// `parallel` splits them: the refit levels go round-robin to up to
/// `threads` level parts (`skills`), each part's features to the threads
/// left over (`features`), one [`fan_out`] job and worker per (level
/// part, feature part), each owning its cells of `model`; a lone part
/// runs on the calling thread. The first error in part order wins.
///
/// A part replays each of its level rows once, in ascending item order,
/// skipping empty cells and pushing only into the features it owns —
/// every accumulator sees the pushes of the sequential replay, so every
/// split gives the same bits. Values come from the owned features'
/// catalog columns, read beside the level row (`ln x` and the widened
/// counts are computed once per catalog, not once per cell and fit). An
/// item-ID column (see [`crate::catalog`]) needs no accumulator: its
/// per-category counts are the level row itself, which its categorical
/// fit reads in place, its total summed in the accumulator's item order.
fn fit_levels<W: Copy + Sync>(
    rows: &[Option<&[W]>],
    weight: impl Fn(W) -> f64 + Sync,
    dataset: &Dataset,
    lambda: f64,
    parallel: &ParallelConfig,
    model: &mut SkillModel,
) -> Result<()> {
    parallel.validate()?;
    if rows.len() != model.n_levels() {
        return Err(CoreError::LengthMismatch {
            context: "grid rows vs model levels",
            left: rows.len(),
            right: model.n_levels(),
        });
    }
    let n_items = dataset.n_items();
    if let Some(row) = rows.iter().flatten().find(|row| row.len() != n_items) {
        return Err(CoreError::LengthMismatch {
            context: "grid row vs dataset items",
            left: row.len(),
            right: n_items,
        });
    }
    let (kinds, catalog) = (dataset.schema().kinds(), dataset.catalog());
    let n_features = kinds.len();
    let n_refit = rows.iter().flatten().count();
    let split = parallel.update_parallel() && n_refit > 0;
    let level_parts = match split && parallel.skills {
        true => parallel.threads.min(n_refit),
        false => 1,
    };
    let feature_parts = match split && parallel.features {
        true => (parallel.threads / level_parts).clamp(1, n_features.max(1)),
        false => 1,
    };

    // Each part owns its cells of the model: per refit level, in level
    // order, its row and the `(feature, cell)`s of its features.
    let n_parts = level_parts * feature_parts;
    let mut parts: Vec<Vec<Level<'_, W>>> = (0..n_parts).map(|_| Vec::new()).collect();
    let refit = model.rows_mut().iter_mut().zip(rows).enumerate();
    let refit = refit.filter_map(|(s, (cells, row))| Some((s, cells, (*row)?)));
    for (rank, (s, cells, row)) in refit.enumerate() {
        let first = (rank % level_parts) * feature_parts;
        for (f, cell) in cells.iter_mut().enumerate() {
            let Some(part) = parts.get_mut(first + f % feature_parts) else {
                continue; // every part index is below `n_parts`
            };
            match part.last_mut() {
                Some((level, _, owned)) if *level == s => owned.push((f, cell)),
                _ => part.push((s, row, vec![(f, cell)])),
            }
        }
    }
    let parts = Owned::new(parts);
    let work = |part: usize, _: &mut ()| -> Result<()> {
        for (_, row, owned) in parts.take(part)? {
            refit_level(row, &weight, owned, catalog, kinds, lambda)?;
        }
        Ok(())
    };
    let mut workers = vec![(); n_parts];
    fan_out(n_parts, n_parts, &mut workers, "update", work, Ok)
}

/// One level's cells of one M-step part: the level index, its grid row
/// and the `(feature, cell)`s the part refits there.
type Level<'m, W> = (usize, &'m [W], Vec<(usize, &'m mut FeatureDistribution)>);

/// Refits the `owned` cells of one level from its grid `row`: one
/// ascending-item replay into an accumulator per owned feature, except
/// an item-ID column, which fits straight from the row. Cells fit in
/// feature order, so the first failing feature's error wins.
fn refit_level<W: Copy>(
    row: &[W],
    weight: &impl Fn(W) -> f64,
    owned: Vec<(usize, &mut FeatureDistribution)>,
    catalog: Catalog<'_>,
    kinds: &[FeatureKind],
    lambda: f64,
) -> Result<()> {
    let mut accs: Vec<(FeatureColumn<'_>, FeatureAccumulator)> = (owned.iter())
        .filter_map(|&(f, _)| Some((catalog.feature(f), *kinds.get(f)?)))
        .filter(|(column, _)| !column.is_item_id())
        .map(|(column, kind)| (column, FeatureAccumulator::new(kind)))
        .collect();
    if !accs.is_empty() {
        for (item, &cell) in row.iter().enumerate() {
            let w = weight(cell);
            if w <= 0.0 {
                continue;
            }
            for (column, acc) in accs.iter_mut() {
                acc.push_slot(column.slot(item), w)?;
            }
        }
    }
    // An item's count as the replay leaves it: a skipped (non-positive)
    // weight counts nothing. Adding a `+0.0` to the running total leaves
    // its bits, so summing every item gives the replay's total.
    let count = |&cell: &W| match weight(cell) {
        w if w <= 0.0 => 0.0,
        w => w,
    };
    let mut accs = accs.into_iter();
    for (f, cell) in owned {
        if catalog.feature(f).is_item_id() {
            let total = row.iter().map(count).fold(0.0, |total, w| total + w);
            refit_categorical(cell, row.iter().map(count), total, lambda)?;
        } else if let Some((_, acc)) = accs.next() {
            acc.refit(lambda, cell)?;
        }
    }
    Ok(())
}

/// Signed per-cell changes to a [`StatsGrid`], accumulated apart from it
/// (one per worker) and added with [`StatsGrid::add_delta`]. Integer
/// addition is exact and order-free, so any split of the changes over
/// deltas gives the same grid.
#[derive(Debug, Clone)]
pub(crate) struct GridDelta {
    n_levels: usize,
    n_items: usize,
    cells: Vec<i64>,
    /// Cells that may be nonzero: a cell is listed each time it leaves
    /// zero, so adding the delta visits only these.
    touched: Vec<usize>,
}

impl GridDelta {
    /// An all-zero delta for an `n_levels × n_items` grid.
    pub(crate) fn new(n_levels: usize, n_items: usize) -> Self {
        Self {
            n_levels,
            n_items,
            cells: vec![0; n_levels * n_items],
            touched: Vec::new(),
        }
    }

    /// Adds `by` to the `(level, item)` cell.
    #[inline]
    pub(crate) fn shift(
        &mut self,
        item: crate::types::ItemId,
        level: crate::types::SkillLevel,
        by: i64,
    ) -> Result<()> {
        let (s, item) = (level_index(level, self.n_levels)?, item as usize);
        let index = s * self.n_items + item;
        let cell = match item < self.n_items {
            true => self.cells.get_mut(index),
            false => None,
        };
        let cell = cell.ok_or(CoreError::FeatureIndexOutOfBounds {
            index: item,
            len: self.n_items,
        })?;
        if *cell == 0 {
            self.touched.push(index);
        }
        *cell += by;
        Ok(())
    }

    /// Moves `other`'s changes into this delta and zeroes `other`; both
    /// have one shape (the workers' deltas of one step).
    fn absorb(&mut self, other: &mut GridDelta) {
        for index in other.touched.drain(..) {
            let (Some(from), Some(to)) = (other.cells.get_mut(index), self.cells.get_mut(index))
            else {
                continue;
            };
            let d = std::mem::take(from);
            if d != 0 && *to == 0 {
                self.touched.push(index);
            }
            *to += d;
        }
    }
}

/// Workers for a step over `dataset`'s users: `config`'s user threads,
/// but no fewer than `MIN_USERS_PER_WORKER` users each, and at least one.
fn user_workers(dataset: &Dataset, config: &ParallelConfig) -> usize {
    let threads = config.user_threads();
    threads.min(dataset.n_users() / MIN_USERS_PER_WORKER).max(1)
}

/// Sets the dirty flag of level row `s` (no-op out of range; callers
/// validate `s` through [`level_index`] first).
#[inline]
fn mark_dirty(dirty: &mut [bool], s: usize) {
    if let Some(flag) = dirty.get_mut(s) {
        *flag = true;
    }
}

/// Maps a 1-based skill level to its grid row, validating the range.
#[inline]
fn level_index(level: crate::types::SkillLevel, n_levels: usize) -> Result<usize> {
    let s = level as usize;
    if s == 0 || s > n_levels {
        return Err(CoreError::InvalidSkillCount { requested: s });
    }
    Ok(s - 1)
}

/// Validates that `assignments` matches the dataset shape (user count and
/// per-user sequence lengths).
fn validate_shape(dataset: &Dataset, assignments: &SkillAssignments) -> Result<()> {
    if assignments.per_user.len() != dataset.n_users() {
        return Err(CoreError::LengthMismatch {
            context: "assignments vs sequences",
            left: assignments.per_user.len(),
            right: dataset.n_users(),
        });
    }
    for (seq, levels) in dataset.sequences().iter().zip(&assignments.per_user) {
        if seq.len() != levels.len() {
            return Err(CoreError::LengthMismatch {
                context: "assignment vs sequence length",
                left: levels.len(),
                right: seq.len(),
            });
        }
    }
    Ok(())
}

/// Validates that two assignments have identical (non-ragged) shape.
fn validate_delta_shape(prev: &SkillAssignments, next: &SkillAssignments) -> Result<()> {
    if prev.per_user.len() != next.per_user.len() {
        return Err(CoreError::LengthMismatch {
            context: "previous vs next assignments",
            left: prev.per_user.len(),
            right: next.per_user.len(),
        });
    }
    for (p, n) in prev.per_user.iter().zip(&next.per_user) {
        if p.len() != n.len() {
            return Err(CoreError::LengthMismatch {
                context: "previous vs next assignment lengths",
                left: p.len(),
                right: n.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::{Action, ActionSequence, ItemId, SkillLevel};

    fn build_dataset(n_users: usize, len: usize) -> Dataset {
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 4 },
            FeatureKind::Count,
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..4u32)
            .map(|c| {
                vec![
                    FeatureValue::Categorical(c),
                    FeatureValue::Count(2 + c as u64 * 3),
                ]
            })
            .collect();
        let sequences: Vec<ActionSequence> = (0..n_users as u32)
            .map(|u| {
                let actions: Vec<Action> = (0..len)
                    .map(|t| {
                        let item = ((t * 4 / len) as u32 + u) % 4;
                        Action::new(t as i64, u, item)
                    })
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn merge_adds_counts_and_rejects_shape_mismatch() {
        let ds = build_dataset(8, 10);
        let assignments = staircase_assignments(&ds, 3);
        let full = StatsGrid::build(&ds, &assignments, 3).unwrap();
        // Split the users in half, build partials, merge.
        let half = SkillAssignments {
            per_user: assignments.per_user[..4].to_vec(),
        };
        let rest = SkillAssignments {
            per_user: assignments.per_user[4..].to_vec(),
        };
        let front = ds.subset_users(|s| s.user < 4).unwrap();
        let back = ds.subset_users(|s| s.user >= 4).unwrap();
        let mut merged = StatsGrid::build(&front, &half, 3).unwrap();
        let partial = StatsGrid::build(&back, &rest, 3).unwrap();
        merged.merge(&partial).unwrap();
        assert_eq!(merged, full);

        let wrong_levels = StatsGrid::new(2, ds.n_items()).unwrap();
        assert!(matches!(
            merged.merge(&wrong_levels),
            Err(CoreError::LengthMismatch {
                context: "merged grid levels",
                ..
            })
        ));
        let wrong_items = StatsGrid::new(3, 1).unwrap();
        assert!(matches!(
            merged.merge(&wrong_items),
            Err(CoreError::LengthMismatch {
                context: "merged grid items",
                ..
            })
        ));
    }

    #[test]
    fn mark_dirty_from_flags_only_changed_rows() {
        let ds = build_dataset(6, 12);
        let assignments = staircase_assignments(&ds, 3);
        let prev = StatsGrid::build(&ds, &assignments, 3).unwrap();
        let mut next = prev.clone();
        next.mark_dirty_from(&prev).unwrap();
        assert!(next.dirty_levels().iter().all(|&d| !d));

        // Move one action of item 2 from level 1 to level 2.
        next.add_action(2, 2).unwrap();
        next.mark_dirty_from(&prev).unwrap();
        assert_eq!(next.dirty_levels(), &[false, true, false]);

        let wrong = StatsGrid::new(2, ds.n_items()).unwrap();
        assert!(next.mark_dirty_from(&wrong).is_err());
    }

    fn staircase_assignments(ds: &Dataset, n_levels: usize) -> SkillAssignments {
        let per_user = ds
            .sequences()
            .iter()
            .map(|seq| {
                (0..seq.len())
                    .map(|t| ((t * n_levels / seq.len().max(1)) + 1).min(n_levels) as u8)
                    .collect()
            })
            .collect();
        SkillAssignments { per_user }
    }

    #[test]
    fn build_counts_actions_per_level() {
        let ds = build_dataset(4, 8);
        let a = staircase_assignments(&ds, 3);
        let grid = StatsGrid::build(&ds, &a, 3).unwrap();
        assert_eq!(grid.total_actions() as usize, ds.n_actions());
        // Row sums must equal the number of actions at each level.
        for s in 0..3 {
            let manual: u64 = a
                .per_user
                .iter()
                .flatten()
                .filter(|&&l| l as usize == s + 1)
                .count() as u64;
            let row: u64 = (0..ds.n_items()).map(|i| grid.count(s, i)).sum();
            assert_eq!(row, manual, "level {}", s + 1);
        }
    }

    #[test]
    fn build_with_config_matches_sequential() {
        let ds = build_dataset(40, 12);
        let a = staircase_assignments(&ds, 4);
        let seq_grid = StatsGrid::build(&ds, &a, 4).unwrap();
        for threads in [2, 3, 5] {
            let par =
                StatsGrid::build_with_config(&ds, &a, 4, &ParallelConfig::all(threads)).unwrap();
            assert_eq!(seq_grid, par, "threads={threads}");
        }
    }

    #[test]
    fn delta_equals_rebuild() {
        let ds = build_dataset(6, 10);
        let before = staircase_assignments(&ds, 3);
        // Perturb: push the second half of every user's path one level up.
        let mut after = before.clone();
        for levels in &mut after.per_user {
            let half = levels.len() / 2;
            for l in &mut levels[half..] {
                *l = (*l + 1).min(3);
            }
        }
        let mut grid = StatsGrid::build(&ds, &before, 3).unwrap();
        let changed = grid.apply_delta(&ds, &before, &after).unwrap();
        let expected_changed = before
            .per_user
            .iter()
            .flatten()
            .zip(after.per_user.iter().flatten())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, expected_changed);
        assert_eq!(grid, StatsGrid::build(&ds, &after, 3).unwrap());
        grid.cross_check(&ds, &after).unwrap();
        // And back again: deltas are exactly invertible.
        let back = grid.apply_delta(&ds, &after, &before).unwrap();
        assert_eq!(back, expected_changed);
        assert_eq!(grid, StatsGrid::build(&ds, &before, 3).unwrap());
    }

    #[test]
    fn delta_parallel_matches_sequential() {
        let ds = build_dataset(48, 10);
        let before = staircase_assignments(&ds, 3);
        let mut after = before.clone();
        for (u, levels) in after.per_user.iter_mut().enumerate() {
            if u % 3 == 0 {
                for l in levels.iter_mut() {
                    *l = (*l + 1).min(3);
                }
            }
        }
        let mut seq_grid = StatsGrid::build(&ds, &before, 3).unwrap();
        let seq_changed = seq_grid.apply_delta(&ds, &before, &after).unwrap();
        for threads in [2, 4] {
            let mut par_grid = StatsGrid::build(&ds, &before, 3).unwrap();
            let par_changed = par_grid
                .apply_delta_with_config(&ds, &before, &after, &ParallelConfig::all(threads))
                .unwrap();
            assert_eq!(seq_changed, par_changed);
            assert_eq!(seq_grid, par_grid, "threads={threads}");
        }
    }

    #[test]
    fn parallel_grid_errors_are_the_sequential_ones() {
        // Out-of-range levels at two users: the first in user order must
        // win whatever the thread count or schedule.
        let ds = build_dataset(64, 6);
        let good = staircase_assignments(&ds, 3);
        let mut bad = good.clone();
        bad.per_user[3][2] = 0;
        bad.per_user[40][1] = 9;
        let first = Err(CoreError::InvalidSkillCount { requested: 0 });
        assert_eq!(StatsGrid::build(&ds, &bad, 3), first);
        let mut grid = StatsGrid::build(&ds, &good, 3).unwrap();
        assert_eq!(grid.apply_delta(&ds, &good, &bad), first.clone().map(|_| 0));
        for threads in 1..=4 {
            let built = StatsGrid::build_with_config(&ds, &bad, 3, &ParallelConfig::all(threads));
            assert_eq!(built, first, "build, threads={threads}");
            let mut grid = StatsGrid::build(&ds, &good, 3).unwrap();
            let moved =
                grid.apply_delta_with_config(&ds, &good, &bad, &ParallelConfig::all(threads));
            assert_eq!(moved, first.clone().map(|_| 0), "delta, threads={threads}");
        }
        // A rejected delta leaves counts and dirty flags as they were, at
        // every worker count; under 16 users every count runs one worker.
        for n_users in [64, 12] {
            let ds = build_dataset(n_users, 6);
            let good = staircase_assignments(&ds, 3);
            let mut moved = good.clone();
            for levels in &mut moved.per_user {
                levels.fill(2);
            }
            let mut bad = moved.clone();
            bad.per_user[n_users - 2][1] = 9;
            let mut grid = StatsGrid::build(&ds, &good, 3).unwrap();
            grid.fit_model_incremental(&ds, 0.01, &ParallelConfig::sequential(), None)
                .unwrap();
            for threads in 1..=4 {
                let want = Err(CoreError::InvalidSkillCount { requested: 9 });
                let tag = format!("{n_users} users, threads={threads}");
                let mut got = grid.clone();
                assert_eq!(got.apply_delta(&ds, &good, &bad), want, "{tag}");
                assert_unchanged(&got, &grid, &tag);
                let moved =
                    got.apply_delta_with_config(&ds, &good, &bad, &ParallelConfig::all(threads));
                assert_eq!(moved, want, "{tag}");
                assert_unchanged(&got, &grid, &tag);
            }
        }
    }

    /// Counts and dirty flags both as in `before` (`PartialEq` compares
    /// the counts only).
    fn assert_unchanged(grid: &StatsGrid, before: &StatsGrid, tag: &str) {
        assert_eq!(grid, before, "counts, {tag}");
        assert_eq!(grid.dirty_levels(), before.dirty_levels(), "dirty, {tag}");
    }

    #[test]
    fn grid_delta_marks_changed_rows_and_zeroes_itself() {
        let mut grid = StatsGrid::new(3, 4).unwrap();
        let mut delta = GridDelta::new(3, 4);
        delta.shift(0, 1, 1).unwrap();
        delta.shift(0, 1, 1).unwrap();
        delta.shift(1, 2, 1).unwrap();
        grid.add_delta(&mut delta).unwrap();
        assert_eq!((grid.count(0, 0), grid.count(1, 1)), (2, 1));
        assert!(delta.cells.iter().all(|&d| d == 0) && delta.touched.is_empty());
        grid.dirty.fill(false);
        let expect = grid.clone();
        // Item 0 moves 1 -> 2; item 1 moves 2 -> 1 and back: rows 1 and 2
        // change, row 3 stays clean.
        delta.shift(0, 1, -1).unwrap();
        delta.shift(0, 2, 1).unwrap();
        delta.shift(1, 2, -1).unwrap();
        delta.shift(1, 1, 1).unwrap();
        delta.shift(1, 1, -1).unwrap();
        delta.shift(1, 2, 1).unwrap();
        grid.add_delta(&mut delta).unwrap();
        assert_eq!(grid.dirty_levels(), &[true, true, false]);
        assert_eq!((grid.count(0, 0), grid.count(1, 0)), (1, 1));
        // Moving back restores the counts exactly.
        delta.shift(0, 2, -1).unwrap();
        delta.shift(0, 1, 1).unwrap();
        grid.add_delta(&mut delta).unwrap();
        assert_eq!(grid, expect);
        // Out-of-range coordinates, removals below zero and shape
        // mismatches are errors.
        assert!(delta.shift(4, 1, 1).is_err());
        assert!(delta.shift(0, 4, 1).is_err());
        // An underflow after cells that would apply writes none of them.
        delta.shift(2, 1, 1).unwrap();
        delta.shift(0, 3, 1).unwrap();
        delta.shift(3, 3, -1).unwrap();
        let before = grid.clone();
        assert!(matches!(
            grid.add_delta(&mut delta),
            Err(CoreError::DegenerateFit { .. })
        ));
        assert_unchanged(&grid, &before, "underflow");
        assert!(matches!(
            grid.add_delta(&mut GridDelta::new(2, 4)),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn ragged_delta_is_rejected() {
        let ds = build_dataset(3, 6);
        let a = staircase_assignments(&ds, 2);
        let mut grid = StatsGrid::build(&ds, &a, 2).unwrap();
        let mut fewer_users = a.clone();
        fewer_users.per_user.pop();
        assert!(matches!(
            grid.apply_delta(&ds, &fewer_users, &a),
            Err(CoreError::LengthMismatch { .. })
        ));
        let mut short_user = a.clone();
        short_user.per_user[1].pop();
        assert!(matches!(
            grid.apply_delta(&ds, &short_user, &a),
            Err(CoreError::LengthMismatch { .. })
        ));
        // `next` must match the dataset too.
        assert!(matches!(
            grid.apply_delta(&ds, &a, &short_user),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn stale_grid_underflow_is_detected() {
        let ds = build_dataset(2, 4);
        let a = staircase_assignments(&ds, 2);
        let mut empty = StatsGrid::new(2, ds.n_items()).unwrap();
        // Claiming prev=a against an empty grid must underflow somewhere.
        let mut moved = a.clone();
        for l in &mut moved.per_user[0] {
            *l = if *l == 1 { 2 } else { 1 };
        }
        assert!(matches!(
            empty.apply_delta(&ds, &a, &moved),
            Err(CoreError::DegenerateFit { .. })
        ));
        // A grid that is stale for user 1 only: user 0's valid moves come
        // first, and none of them is written, at any worker count.
        let mut grid = StatsGrid::build(&ds, &a, 2).unwrap();
        grid.dirty.fill(false);
        let before = grid.clone();
        let (mut prev, mut next) = (a.clone(), a.clone());
        next.per_user[0].fill(1);
        prev.per_user[1].fill(2);
        let underflow = |got: Result<usize>| matches!(got, Err(CoreError::DegenerateFit { .. }));
        assert!(underflow(grid.apply_delta(&ds, &prev, &next)));
        assert_unchanged(&grid, &before, "apply_delta");
        for threads in 1..=4 {
            assert!(underflow(grid.apply_delta_with_config(
                &ds,
                &prev,
                &next,
                &ParallelConfig::all(threads)
            )));
            assert_unchanged(&grid, &before, &format!("threads={threads}"));
        }
    }

    /// Bit-exact model fingerprint: `{:?}` prints every `f64` in its
    /// shortest round-trip form, so equal strings mean equal bits.
    fn bits(model: &SkillModel) -> String {
        format!("{model:?}")
    }

    /// Every split shape of the update step: sequential, skills-only,
    /// features-only and both, over several thread counts.
    fn update_configs() -> Vec<ParallelConfig> {
        let mut configs = vec![ParallelConfig::sequential()];
        for (skills, features) in [(true, false), (false, true), (true, true)] {
            for threads in [2, 3, 6] {
                configs.push(
                    ParallelConfig::sequential()
                        .with_skills(skills)
                        .with_features(features)
                        .with_threads(threads),
                );
            }
        }
        configs
    }

    #[test]
    fn fit_model_matches_update_fit_model() {
        // Categorical and count statistics are integer sums, exact in
        // either order: the grid replay and the action-order scan agree
        // bit for bit.
        let ds = build_dataset(6, 10);
        let a = staircase_assignments(&ds, 3);
        let mut grid = StatsGrid::build(&ds, &a, 3).unwrap();
        let pc = ParallelConfig::sequential();
        let from_grid = grid.fit_model_incremental(&ds, 0.01, &pc, None).unwrap();
        let from_scan = crate::update::fit_model(&ds, &a, 3, 0.01).unwrap();
        assert_eq!(bits(&from_grid), bits(&from_scan));
    }

    #[test]
    fn incremental_fit_reuses_clean_levels_bitwise() {
        let ds = build_dataset(6, 12);
        let before = staircase_assignments(&ds, 4);
        let mut grid = StatsGrid::build(&ds, &before, 4).unwrap();
        assert!(grid.dirty_levels().iter().all(|&d| d));
        let pc = ParallelConfig::sequential();
        let base = grid.fit_model_incremental(&ds, 0.01, &pc, None).unwrap();
        assert!(grid.dirty_levels().iter().all(|&d| !d));

        // Move a handful of actions from level 1 to level 2: only those
        // two rows become dirty.
        let mut after = before.clone();
        for levels in &mut after.per_user {
            if let Some(l) = levels.iter_mut().find(|l| **l == 1) {
                *l = 2;
            }
        }
        grid.apply_delta(&ds, &before, &after).unwrap();
        assert_eq!(grid.dirty_levels(), &[true, true, false, false]);

        // The partial refit must match a full from-scratch fit bit for bit,
        // both on the refit rows and the reused ones.
        let partial = grid
            .fit_model_incremental(&ds, 0.01, &pc, Some(&base))
            .unwrap();
        assert!(grid.dirty_levels().iter().all(|&d| !d));
        let full = StatsGrid::build(&ds, &after, 4)
            .unwrap()
            .fit_model_incremental(&ds, 0.01, &pc, None)
            .unwrap();
        for item in 0..ds.n_items() {
            for s in 1..=4u8 {
                let a = partial.item_log_likelihood(ds.item_features(item as u32), s);
                let b = full.item_log_likelihood(ds.item_features(item as u32), s);
                assert_eq!(a.to_bits(), b.to_bits(), "item {item} level {s}");
            }
        }
    }

    #[test]
    fn add_action_is_single_cell_increment() {
        let ds = build_dataset(3, 6);
        let a = staircase_assignments(&ds, 3);
        let mut grid = StatsGrid::build(&ds, &a, 3).unwrap();
        // Clear dirty flags via a full incremental fit, then append.
        let pc = ParallelConfig::sequential();
        let model = grid.fit_model_incremental(&ds, 0.01, &pc, None).unwrap();
        assert!(grid.dirty_levels().iter().all(|&d| !d));
        let before = grid.count(1, 2);
        let total = grid.total_actions();
        grid.add_action(2, 2).unwrap();
        assert_eq!(grid.count(1, 2), before + 1);
        assert_eq!(grid.total_actions(), total + 1);
        assert_eq!(grid.dirty_levels(), &[false, true, false]);
        // Out-of-range level or item must not touch the grid.
        assert!(grid.add_action(2, 0).is_err());
        assert!(grid.add_action(2, 4).is_err());
        assert!(grid.add_action(99, 1).is_err());
        assert_eq!(grid.total_actions(), total + 1);
        // The next incremental fit refits only the touched level.
        let refit = grid
            .fit_model_incremental(&ds, 0.01, &pc, Some(&model))
            .unwrap();
        assert_eq!(refit.n_levels(), 3);
        assert!(grid.dirty_levels().iter().all(|&d| !d));
    }

    #[test]
    fn parallel_refit_is_bitwise_identical_to_sequential() {
        let ds = build_dataset(6, 10);
        let before = staircase_assignments(&ds, 3);
        let mut after = before.clone();
        for levels in &mut after.per_user {
            if let Some(l) = levels.iter_mut().find(|l| **l == 1) {
                *l = 2;
            }
        }
        let seq = ParallelConfig::sequential();
        let mut grid = StatsGrid::build(&ds, &before, 3).unwrap();
        let base = grid.fit_model_incremental(&ds, 0.01, &seq, None).unwrap();
        grid.apply_delta(&ds, &before, &after).unwrap();
        assert_eq!(grid.dirty_levels(), &[true, true, false]);
        let full = StatsGrid::build(&ds, &after, 3)
            .unwrap()
            .fit_model_incremental(&ds, 0.01, &seq, None)
            .unwrap();
        for cfg in update_configs() {
            // Full refit (no previous model) and partial dirty refit.
            for prev in [None, Some(&base)] {
                let mut g = grid.clone();
                let model = g.fit_model_incremental(&ds, 0.01, &cfg, prev).unwrap();
                assert_eq!(bits(&model), bits(&full), "{cfg:?} prev={}", prev.is_some());
                assert!(g.dirty_levels().iter().all(|&d| !d));
            }
        }
    }

    #[test]
    fn a_cut_holds_its_dirty_rows_and_refits_the_incremental_bits() {
        let ds = build_dataset(6, 10);
        let a = staircase_assignments(&ds, 3);
        let seq = ParallelConfig::sequential();
        let mut fitted = StatsGrid::build(&ds, &a, 3).unwrap();
        let base = fitted.fit_model_incremental(&ds, 0.01, &seq, None).unwrap();
        for subset in 1..8u8 {
            // One new action on item `s` at every level `s` of the subset.
            let mut grid = fitted.clone();
            let levels: Vec<bool> = (0..3).map(|s| subset >> s & 1 == 1).collect();
            for (s, _) in levels.iter().enumerate().filter(|(_, &d)| d) {
                grid.add_action(s as ItemId, s as SkillLevel + 1).unwrap();
            }
            let want = grid
                .clone()
                .fit_model_incremental(&ds, 0.01, &seq, Some(&base))
                .unwrap();
            let cut = grid.cut();
            assert_eq!(cut.dirty_levels(), &levels[..], "subset {subset:03b}");
            assert!(grid.dirty_levels().iter().all(|&d| !d));
            let k = levels.iter().filter(|&&d| d).count();
            assert_eq!(cut.cells.len(), k * ds.n_items(), "subset {subset:03b}");
            for cfg in update_configs() {
                let mut model = base.clone();
                cut.refit(&ds, 0.01, &cfg, &mut model).unwrap();
                assert_eq!(bits(&model), bits(&want), "subset {subset:03b}, {cfg:?}");
            }
        }
    }

    #[test]
    fn missing_and_misshapen_rows_are_typed_errors() {
        let ds = build_dataset(4, 8);
        let a = staircase_assignments(&ds, 3);
        let seq = ParallelConfig::sequential();
        let mut grid = StatsGrid::build(&ds, &a, 3).unwrap();
        let mut model = grid.fit_model_incremental(&ds, 0.01, &seq, None).unwrap();
        let row = level_row(&grid.counts, grid.n_items, 0);
        // A level without a row, and a row of another length than the
        // catalog, fit nothing.
        for rows in [vec![Some(row), None], vec![Some(&row[1..]), None, None]] {
            assert!(matches!(
                fit_levels(&rows, count_weight, &ds, 0.01, &seq, &mut model),
                Err(CoreError::LengthMismatch { .. })
            ));
        }
        // So is a grid refit against a catalog of another item count.
        let mut small = ds.clone();
        small.item_table_mut().edit_rows(|rows| rows.truncate(3));
        assert!(matches!(
            grid.fit_model_incremental(&small, 0.01, &seq, None),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_threads_is_a_typed_error_on_every_fit_path() {
        let ds = build_dataset(4, 8);
        let a = staircase_assignments(&ds, 3);
        let mut grid = StatsGrid::build(&ds, &a, 3).unwrap();
        let pc = ParallelConfig::sequential();
        let model = grid.fit_model_incremental(&ds, 0.01, &pc, None).unwrap();
        grid.add_action(1, 2).unwrap();
        let mut mass = MassGrid::new(3, ds.n_items()).unwrap();
        mass.add(1, &[0.2, 0.3, 0.5]).unwrap();
        for cfg in [ParallelConfig::sequential(), ParallelConfig::all(2)] {
            let zero = cfg.with_threads(0);
            for prev in [None, Some(&model)] {
                assert!(matches!(
                    grid.fit_model_incremental(&ds, 0.01, &zero, prev),
                    Err(CoreError::InvalidParallelism { threads: 0 })
                ));
            }
            assert!(matches!(
                mass.fit_model(&ds, 0.01, &zero),
                Err(CoreError::InvalidParallelism { threads: 0 })
            ));
        }
        // A failed fit leaves the dirty flags for the next attempt.
        assert_eq!(grid.dirty_levels(), &[false, true, false]);
    }

    #[test]
    fn mass_grid_adds_rows_to_their_item_column() {
        assert!(MassGrid::new(0, 4).is_err());
        let mut g = MassGrid::new(3, 2).unwrap();
        g.add(1, &[0.2, 0.3, 0.5]).unwrap();
        g.add(1, &[0.5, 0.25, 0.25]).unwrap();
        g.add(0, &[1.0, 0.0, 0.0]).unwrap();
        let cells: Vec<f64> = (0..3).flat_map(|s| [g.mass(s, 0), g.mass(s, 1)]).collect();
        assert_eq!(cells, [1.0, 0.2 + 0.5, 0.0, 0.3 + 0.25, 0.0, 0.5 + 0.25]);
        // A short row or an item outside the grid adds nothing.
        let before = g.mass.clone();
        assert!(matches!(
            g.add(0, &[1.0]),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            g.add(9, &[0.5, 0.25, 0.25]),
            Err(CoreError::FeatureIndexOutOfBounds { index: 9, len: 2 })
        ));
        assert_eq!(g.mass, before);
    }

    #[test]
    fn mass_fit_is_bitwise_identical_across_splits() {
        let ds = build_dataset(4, 12);
        let mut g = MassGrid::new(3, ds.n_items()).unwrap();
        for action in ds.actions() {
            let mut gamma = vec![0.1, 0.2, 0.3];
            gamma[(action.item % 3) as usize] += 0.4;
            g.add(action.item, &gamma).unwrap();
        }
        // A level with no mass at all falls back like an empty hard row.
        let mut empty_level = MassGrid::new(3, ds.n_items()).unwrap();
        for action in ds.actions() {
            empty_level.add(action.item, &[0.6, 0.0, 0.4]).unwrap();
        }
        for grid in [g, empty_level] {
            let expect = grid
                .fit_model(&ds, 0.01, &ParallelConfig::sequential())
                .unwrap();
            for cfg in update_configs() {
                let model = grid.fit_model(&ds, 0.01, &cfg).unwrap();
                assert_eq!(bits(&model), bits(&expect), "{cfg:?}");
            }
        }
    }

    /// One feature of every family: a categorical whose last category no
    /// item carries, a count, a gamma and a log-normal.
    fn four_family_dataset(n_users: usize, len: usize) -> Dataset {
        use crate::feature::PositiveModel;
        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 5 },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            },
        ])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..6u32)
            .map(|i| {
                let x = 0.3 + f64::from(i) * 1.7;
                vec![
                    FeatureValue::Categorical(i % 4),
                    FeatureValue::Count(u64::from(i * 5 % 7)),
                    FeatureValue::Real(x),
                    FeatureValue::Real(1.0 / x),
                ]
            })
            .collect();
        let sequences: Vec<ActionSequence> = (0..n_users as u32)
            .map(|u| {
                let actions: Vec<Action> = (0..len)
                    .map(|t| Action::new(t as i64, u, (t as u32 * 7 + u * 3) % 6))
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        Dataset::new(schema, items, sequences).unwrap()
    }

    #[test]
    fn mass_grid_of_whole_counts_fits_the_hard_bits() {
        // One accumulator and one set of fits: a mass grid holding a
        // count grid's whole counts fits the count grid's model bit for
        // bit, at every split.
        let ds = four_family_dataset(7, 11);
        let a = staircase_assignments(&ds, 3);
        let counts = StatsGrid::build(&ds, &a, 3).unwrap();
        let mut mass = MassGrid::new(3, ds.n_items()).unwrap();
        for (seq, levels) in ds.sequences().iter().zip(&a.per_user) {
            for (action, &level) in seq.actions().iter().zip(levels) {
                let mut row = [0.0; 3];
                row[usize::from(level) - 1] = 1.0;
                mass.add(action.item, &row).unwrap();
            }
        }
        let seq = ParallelConfig::sequential();
        let want = bits(
            &counts
                .clone()
                .fit_model_incremental(&ds, 0.01, &seq, None)
                .unwrap(),
        );
        for cfg in update_configs() {
            let hard = counts.clone().fit_model_incremental(&ds, 0.01, &cfg, None);
            assert_eq!(bits(&hard.unwrap()), want, "hard {cfg:?}");
            let soft = mass.fit_model(&ds, 0.01, &cfg).unwrap();
            assert_eq!(bits(&soft), want, "soft {cfg:?}");
        }
    }

    #[test]
    fn a_level_with_less_than_one_action_of_mass_fits() {
        let ds = four_family_dataset(1, 3);
        let mut mass = MassGrid::new(3, ds.n_items()).unwrap();
        let level_3 = [0.05, 0.1, 0.15];
        for (action, &w) in ds.actions().zip(&level_3) {
            mass.add(action.item, &[0.5, 0.5 - w, w]).unwrap();
        }
        let model = mass
            .fit_model(&ds, 0.01, &ParallelConfig::sequential())
            .unwrap();
        // The weighted means of x and ln x over the level's 0.3 of mass.
        let xs: Vec<f64> = ds
            .actions()
            .map(|a| match ds.item_features(a.item)[2] {
                FeatureValue::Real(x) => x,
                _ => unreachable!(),
            })
            .collect();
        let total: f64 = level_3.iter().sum();
        assert!((total - 0.3).abs() < 1e-15);
        let mean = |f: fn(f64) -> f64| -> f64 {
            xs.iter()
                .zip(&level_3)
                .map(|(&x, &w)| w * f(x))
                .sum::<f64>()
                / total
        };
        let row = model.level_row(3).unwrap();
        let FeatureDistribution::Gamma(g) = &row[2] else {
            panic!("{:?}", row[2])
        };
        assert!((g.mean() - mean(|x| x)).abs() < 1e-12, "{g:?}");
        assert!(g.shape() < 1e6, "fitted, not clamped: {g:?}");
        let FeatureDistribution::LogNormal(l) = &row[3] else {
            panic!("{:?}", row[3])
        };
        // The log-normal column holds 1/x, so its log-mean is −mean(ln x).
        assert!((l.mu() + mean(f64::ln)).abs() < 1e-12, "{l:?}");
    }
}
