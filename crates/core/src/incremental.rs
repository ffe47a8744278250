//! Incremental sufficient statistics for the coordinate-ascent trainer.
//!
//! The update step of the paper's trainer (§IV-B) refits every
//! `(skill, feature)` cell from scratch each iteration — `O(|A| · F)`
//! accumulator pushes — even though the convergence trace shows assignment
//! churn collapsing after the first few iterations. Because all of our
//! per-cell sufficient statistics are **additive over actions**, and every
//! action's feature values are a pure function of its item, the statistics
//! of a whole level can be represented exactly as an integer histogram
//! *"how many actions of item `i` are currently assigned level `s`"*.
//!
//! [`StatsGrid`] is that histogram: an `S × n_items` grid of `u64` counts,
//! built once on the first iteration and then maintained by applying
//! per-action deltas (`−1` on the old level, `+1` on the new one) only
//! where the assigned level actually moved — `O(n_changed)` integer
//! updates instead of an `O(|A| · F)` rescan. Refitting replays the
//! histogram through the regular [`FeatureAccumulator`]s in ascending item
//! order with weighted pushes (`O(S · n_items · F)`, independent of
//! `|A|`), then fits cells with the unchanged closed-form estimators. The
//! grid additionally tracks *which levels* the deltas touched, so
//! [`StatsGrid::fit_model_incremental`] replays only dirty rows and
//! reuses the previous model's distributions for untouched levels — also
//! exact, because a cell fit is a pure function of its histogram row and
//! the smoothing constant.
//!
//! ## Exactness
//!
//! Integer histogram deltas are *exact*: an add followed by a remove
//! restores the previous grid bit for bit, so incremental training is
//! deterministic and independent of thread count or delta order. Replay
//! order (ascending item id) is itself canonical, which means incremental
//! results cannot drift across iterations. Relative to the legacy
//! action-order [`crate::update::accumulate`], replayed statistics are
//! bitwise identical for the integer-summation families (categorical
//! counts; Poisson/count sums, which are exact integer sums below `2^53`)
//! and agree to summation-order rounding (ulps) for the real-valued
//! gamma/log-normal moments. The trainer always takes the grid path; the
//! action-order rescan survives only as
//! [`crate::reference::train_full_rescan`], whose end-to-end agreement
//! (same assignments and churn, objective to summation order) the
//! property tests and `bench_incremental` check — the latter also times
//! the two against each other.
//!
//! [`SoftStatsGrid`] carries the same idea over to the EM trainer
//! (`crate::em`), where the statistic per `(level, item)` cell is a real
//! *responsibility mass* `Σ γ(a, s)` instead of an integer count. The grid
//! is maintained by tolerance-gated responsibility deltas after every
//! E-step, and dirty-level replay serves the weighted M-step —
//! `bench_em_incremental` measures that path against the from-scratch EM
//! accumulation, [`crate::reference::train_em_full`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::dist::{FeatureAccumulator, FeatureDistribution};
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::types::{item_id_from_index, skill_level_from_index, Dataset, SkillAssignments};

/// Minimum number of users per worker before parallel build/delta paths
/// engage; below this the coordination cost exceeds the scan cost.
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
    /// all-true until [`StatsGrid::fit_model_incremental`] first runs.
    dirty: Vec<bool>,
    /// When the grid is an item-range shard, the half-open slice of the
    /// item axis it accumulated; `None` for whole-axis grids (including
    /// user-partition partials). Checked for disjointness on merge.
    item_range: Option<(usize, usize)>,
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
            item_range: None,
        })
    }

    /// Creates an all-zero **item-range shard**: a full-shape grid that
    /// promises to accumulate statistics only for items in
    /// `start..end`. The declared range is checked for disjointness
    /// when shards are merged (debug / `strict-invariants` builds).
    pub fn shard_for_items(
        n_levels: usize,
        n_items: usize,
        start: usize,
        end: usize,
    ) -> Result<Self> {
        if start > end || end > n_items {
            return Err(CoreError::LengthMismatch {
                context: "shard item range vs item count",
                left: end,
                right: n_items,
            });
        }
        let mut grid = Self::new(n_levels, n_items)?;
        grid.item_range = Some((start, end));
        Ok(grid)
    }

    /// The declared item range when this grid is an item-range shard.
    pub fn item_range(&self) -> Option<(usize, usize)> {
        self.item_range
    }

    /// Adds `other`'s histogram into this grid cell by cell.
    ///
    /// Integer addition is exact and order-free, so merging per-worker
    /// partials in any order reproduces the sequential build bit for
    /// bit. Dirty flags are OR-ed. Shape mismatches return a typed
    /// [`CoreError::LengthMismatch`]; merging two shards with
    /// overlapping declared item ranges (a double count) is rejected in
    /// debug / `strict-invariants` builds. When both operands declare
    /// ranges, the result's range is their convex hull.
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
        crate::invariants::InvariantCtx::new().check_disjoint_shards(
            "stats grid merge",
            self.item_range,
            other.item_range,
        )?;
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (d, &o) in self.dirty.iter_mut().zip(&other.dirty) {
            *d |= o;
        }
        self.item_range = match (self.item_range, other.item_range) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            _ => None,
        };
        Ok(())
    }

    /// Recomputes the dirty flags by comparing this grid's histogram
    /// rows against `prev`'s: a level is dirty iff its row changed.
    ///
    /// This is how the chunked trainer recovers incremental-refit dirty
    /// tracking from per-iteration rebuilt grids: the delta path marks
    /// levels an action moved in or out of, which is always a superset
    /// of the rows that actually changed — and refitting an
    /// unchanged-row level reproduces the reused distributions bit for
    /// bit, so the two dirty sets produce identical models.
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

    /// Builds the grid from scratch with one sequential pass over the
    /// dataset (`O(|A|)` integer increments).
    pub fn build(
        dataset: &Dataset,
        assignments: &SkillAssignments,
        n_levels: usize,
    ) -> Result<Self> {
        let mut grid = Self::new(n_levels, dataset.n_items())?;
        validate_shape(dataset, assignments)?;
        for (seq, levels) in dataset.sequences().iter().zip(&assignments.per_user) {
            for (action, &level) in seq.actions().iter().zip(levels) {
                let s = level_index(level, n_levels)?;
                bump(&mut grid.counts, grid.n_items, s, action.item as usize)?;
            }
        }
        Ok(grid)
    }

    /// Builds the grid with `threads` workers over disjoint user ranges,
    /// merging per-worker partial grids by integer addition — exact, so
    /// the result is identical to [`StatsGrid::build`] for any thread
    /// count.
    pub fn build_parallel(
        dataset: &Dataset,
        assignments: &SkillAssignments,
        n_levels: usize,
        threads: usize,
    ) -> Result<Self> {
        let n_users = dataset.n_users();
        let n_workers = threads.min(n_users / MIN_USERS_PER_WORKER).max(1);
        if n_workers <= 1 {
            return Self::build(dataset, assignments, n_levels);
        }
        validate_shape(dataset, assignments)?;
        let mut grid = Self::new(n_levels, dataset.n_items())?;
        let n_items = grid.n_items;
        let sequences = dataset.sequences();
        let per_user = &assignments.per_user;

        let next = AtomicUsize::new(0);
        let partials: Vec<Result<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || -> Result<Vec<u64>> {
                        let mut local = vec![0u64; n_levels * n_items];
                        loop {
                            let u = next.fetch_add(1, Ordering::Relaxed);
                            let (Some(seq), Some(levels)) = (sequences.get(u), per_user.get(u))
                            else {
                                break;
                            };
                            for (action, &level) in seq.actions().iter().zip(levels) {
                                let s = level_index(level, n_levels)?;
                                bump(&mut local, n_items, s, action.item as usize)?;
                            }
                        }
                        Ok(local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(Err(CoreError::WorkerPanicked {
                        step: "stats build",
                    }))
                })
                .collect()
        });
        for partial in partials {
            for (dst, src) in grid.counts.iter_mut().zip(partial?) {
                *dst += src;
            }
        }
        Ok(grid)
    }

    /// Builds sequentially or in parallel per `config` (user-parallel work,
    /// so it follows the `users` flag).
    pub fn build_with_config(
        dataset: &Dataset,
        assignments: &SkillAssignments,
        n_levels: usize,
        config: &ParallelConfig,
    ) -> Result<Self> {
        if config.users && config.threads > 1 {
            Self::build_parallel(dataset, assignments, n_levels, config.threads)
        } else {
            Self::build(dataset, assignments, n_levels)
        }
    }

    /// Applies the assignment delta `prev → next`: for every action whose
    /// level moved, decrements the old `(level, item)` cell and increments
    /// the new one. Returns the number of changed actions.
    ///
    /// `prev` must be the assignment the grid currently represents;
    /// removing from an empty cell (the tell-tale of a stale grid) is an
    /// error, as are ragged inputs.
    pub fn apply_delta(
        &mut self,
        dataset: &Dataset,
        prev: &SkillAssignments,
        next: &SkillAssignments,
    ) -> Result<usize> {
        validate_shape(dataset, next)?;
        validate_delta_shape(prev, next)?;
        let mut changed = 0usize;
        for ((seq, prev_u), next_u) in dataset
            .sequences()
            .iter()
            .zip(&prev.per_user)
            .zip(&next.per_user)
        {
            if prev_u == next_u {
                continue; // fast path: slice compare, no per-action work
            }
            for ((action, &old), &new) in seq.actions().iter().zip(prev_u).zip(next_u) {
                if old == new {
                    continue;
                }
                let s_old = level_index(old, self.n_levels)?;
                let s_new = level_index(new, self.n_levels)?;
                let item = action.item as usize;
                decrement(&mut self.counts, self.n_items, s_old, item)?;
                bump(&mut self.counts, self.n_items, s_new, item)?;
                mark_dirty(&mut self.dirty, s_old);
                mark_dirty(&mut self.dirty, s_new);
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// [`StatsGrid::apply_delta`] with `threads` workers over disjoint user
    /// ranges. Each worker accumulates a signed per-worker delta grid;
    /// the deltas are merged into the histogram by integer addition, so
    /// the result is identical to the sequential path for any thread
    /// count.
    pub fn apply_delta_parallel(
        &mut self,
        dataset: &Dataset,
        prev: &SkillAssignments,
        next: &SkillAssignments,
        threads: usize,
    ) -> Result<usize> {
        let n_users = dataset.n_users();
        let n_workers = threads.min(n_users / MIN_USERS_PER_WORKER).max(1);
        if n_workers <= 1 {
            return self.apply_delta(dataset, prev, next);
        }
        validate_shape(dataset, next)?;
        validate_delta_shape(prev, next)?;
        let n_levels = self.n_levels;
        let n_items = self.n_items;
        let sequences = dataset.sequences();

        let next_idx = AtomicUsize::new(0);
        let partials: Vec<Result<(usize, Vec<i64>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|_| {
                    let next_idx = &next_idx;
                    let prev = &prev.per_user;
                    let next = &next.per_user;
                    scope.spawn(move || -> Result<(usize, Vec<i64>)> {
                        let mut delta = vec![0i64; n_levels * n_items];
                        let mut changed = 0usize;
                        loop {
                            let u = next_idx.fetch_add(1, Ordering::Relaxed);
                            let (Some(seq), Some(prev_u), Some(next_u)) =
                                (sequences.get(u), prev.get(u), next.get(u))
                            else {
                                break;
                            };
                            if prev_u == next_u {
                                continue;
                            }
                            for ((action, &old), &new) in
                                seq.actions().iter().zip(prev_u).zip(next_u)
                            {
                                if old == new {
                                    continue;
                                }
                                let s_old = level_index(old, n_levels)?;
                                let s_new = level_index(new, n_levels)?;
                                let item = action.item as usize;
                                shift(&mut delta, n_items, s_old, item, -1)?;
                                shift(&mut delta, n_items, s_new, item, 1)?;
                                changed += 1;
                            }
                        }
                        Ok((changed, delta))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(Err(CoreError::WorkerPanicked {
                        step: "stats delta",
                    }))
                })
                .collect()
        });

        let mut changed = 0usize;
        let (counts, dirty) = (&mut self.counts, &mut self.dirty);
        for partial in partials {
            let (n, delta) = partial?;
            changed += n;
            if n_items == 0 {
                continue; // no cells to merge (and `chunks` needs a width)
            }
            for ((row, delta_row), flag) in counts
                .chunks_mut(n_items)
                .zip(delta.chunks(n_items))
                .zip(dirty.iter_mut())
            {
                for (cell, &d) in row.iter_mut().zip(delta_row) {
                    if d == 0 {
                        continue;
                    }
                    *flag = true;
                    let updated = *cell as i128 + d as i128;
                    if updated < 0 {
                        return Err(CoreError::DegenerateFit {
                            distribution: "stats grid",
                            reason: "delta removes an action the grid never observed",
                        });
                    }
                    *cell = updated as u64;
                }
            }
        }
        Ok(changed)
    }

    /// [`StatsGrid::apply_delta`] dispatched per `config` (follows the
    /// `users` flag, like the build).
    pub fn apply_delta_with_config(
        &mut self,
        dataset: &Dataset,
        prev: &SkillAssignments,
        next: &SkillAssignments,
        config: &ParallelConfig,
    ) -> Result<usize> {
        if config.users && config.threads > 1 {
            self.apply_delta_parallel(dataset, prev, next, config.threads)
        } else {
            self.apply_delta(dataset, prev, next)
        }
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

    /// Replays the histogram into per-(skill, feature) accumulators —
    /// ascending item order, weighted pushes. `O(S · n_items · F)`,
    /// independent of the number of actions.
    pub fn accumulators(&self, dataset: &Dataset) -> Result<Vec<Vec<FeatureAccumulator>>> {
        if dataset.n_items() != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "stats grid items vs dataset items",
                left: self.n_items,
                right: dataset.n_items(),
            });
        }
        let schema = dataset.schema();
        let mut grid: Vec<Vec<FeatureAccumulator>> = (0..self.n_levels)
            .map(|_| {
                schema
                    .kinds()
                    .iter()
                    .map(|&k| FeatureAccumulator::new(k))
                    .collect()
            })
            .collect();
        for (s, row) in grid.iter_mut().enumerate() {
            let counts = &self.counts[s * self.n_items..(s + 1) * self.n_items];
            for (item, &k) in counts.iter().enumerate() {
                if k == 0 {
                    continue;
                }
                let features = dataset.item_features(item_id_from_index(item));
                for (acc, value) in row.iter_mut().zip(features) {
                    acc.push_n(value, k)?;
                }
            }
        }
        Ok(grid)
    }

    /// Fits a full [`SkillModel`] from the grid (sequential replay).
    pub fn fit_model(&self, dataset: &Dataset, lambda: f64) -> Result<SkillModel> {
        let grid = self.accumulators(dataset)?;
        let cells = crate::update::fit_cells(&grid, lambda)?;
        SkillModel::new(dataset.schema().clone(), self.n_levels, cells)
    }

    /// Fits a full [`SkillModel`] with the update-step parallelism of
    /// `config`: workers own disjoint `(skill, feature)` cells and replay
    /// only their own histogram rows (`O(n_items)` per cell — no dataset
    /// rescan). Per-cell arithmetic is identical to the sequential replay,
    /// so the fitted model matches [`StatsGrid::fit_model`] bit for bit.
    pub fn fit_model_parallel(
        &self,
        dataset: &Dataset,
        lambda: f64,
        config: &ParallelConfig,
    ) -> Result<SkillModel> {
        config.validate()?;
        if !config.update_parallel() {
            return self.fit_model(dataset, lambda);
        }
        if dataset.n_items() != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "stats grid items vs dataset items",
                left: self.n_items,
                right: dataset.n_items(),
            });
        }
        let n_levels = self.n_levels;
        let n_items = self.n_items;
        let schema = dataset.schema();
        let n_features = schema.len();

        // Workers own whole levels and/or features.
        let level_parts = if config.skills {
            config.threads.min(n_levels)
        } else {
            1
        };
        let feature_parts = if config.features {
            (config.threads / level_parts).max(1).min(n_features)
        } else {
            1
        };
        let owner = |s: usize, f: usize| -> usize {
            (s % level_parts) * feature_parts + (f % feature_parts)
        };
        let n_workers = level_parts * feature_parts;

        let results: Vec<Result<Vec<(usize, usize, FeatureDistribution)>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|worker| {
                        scope.spawn(
                            move || -> Result<Vec<(usize, usize, FeatureDistribution)>> {
                                let mut out = Vec::new();
                                for s in 0..n_levels {
                                    for f in 0..n_features {
                                        if owner(s, f) != worker {
                                            continue;
                                        }
                                        let mut acc = FeatureAccumulator::new(schema.kind(f)?);
                                        let counts = &self.counts[s * n_items..(s + 1) * n_items];
                                        for (item, &k) in counts.iter().enumerate() {
                                            if k == 0 {
                                                continue;
                                            }
                                            let features =
                                                dataset.item_features(item_id_from_index(item));
                                            let value = features.get(f).ok_or(
                                                CoreError::FeatureIndexOutOfBounds {
                                                    index: f,
                                                    len: features.len(),
                                                },
                                            )?;
                                            acc.push_n(value, k)?;
                                        }
                                        out.push((s, f, acc.fit(lambda)?));
                                    }
                                }
                                Ok(out)
                            },
                        )
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or(Err(CoreError::WorkerPanicked { step: "update" }))
                    })
                    .collect()
            });

        let mut grid: Vec<Vec<Option<FeatureDistribution>>> =
            (0..n_levels).map(|_| vec![None; n_features]).collect();
        for chunk in results {
            for (s, f, dist) in chunk? {
                // An out-of-partition pair cannot happen; if it ever did,
                // the "unowned cell" check below reports the gap.
                if let Some(slot) = grid.get_mut(s).and_then(|row| row.get_mut(f)) {
                    *slot = Some(dist);
                }
            }
        }
        let cells: Vec<Vec<FeatureDistribution>> = grid
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|c| {
                        c.ok_or(CoreError::DegenerateFit {
                            distribution: "parallel update",
                            reason: "unowned cell in partition",
                        })
                    })
                    .collect()
            })
            .collect::<Result<_>>()?;
        SkillModel::new(schema.clone(), n_levels, cells)
    }

    /// Per-level dirty flags: `true` for levels whose histogram changed
    /// since the last [`StatsGrid::fit_model_incremental`] call (all
    /// `true` on a freshly built grid).
    pub fn dirty_levels(&self) -> &[bool] {
        &self.dirty
    }

    /// Fits a model refitting **only the levels whose histogram changed**
    /// since the last incremental fit, reusing `prev`'s distributions for
    /// untouched levels. A cell fit is a deterministic pure function of
    /// its histogram row and `lambda`, so the reused rows are bitwise
    /// identical to what a refit would produce — `prev` must therefore be
    /// the model produced by the previous fit of *this* grid with the
    /// same `lambda` (the trainer maintains exactly that invariant).
    /// Falls back to a full [`StatsGrid::fit_model_parallel`] when `prev`
    /// is absent, shaped differently, or every level is dirty. Clears the
    /// dirty flags on success.
    pub fn fit_model_incremental(
        &mut self,
        dataset: &Dataset,
        lambda: f64,
        parallel: &ParallelConfig,
        prev: Option<&SkillModel>,
    ) -> Result<SkillModel> {
        let schema = dataset.schema();
        let reusable = prev.filter(|m| {
            m.n_levels() == self.n_levels
                && m.n_features() == schema.len()
                && !self.dirty.iter().all(|&d| d)
        });
        let model = match reusable {
            None => self.fit_model_parallel(dataset, lambda, parallel)?,
            Some(prev) => {
                if dataset.n_items() != self.n_items {
                    return Err(CoreError::LengthMismatch {
                        context: "stats grid items vs dataset items",
                        left: self.n_items,
                        right: dataset.n_items(),
                    });
                }
                let mut cells: Vec<Vec<FeatureDistribution>> = Vec::with_capacity(self.n_levels);
                for (s, &is_dirty) in self.dirty.iter().enumerate() {
                    if !is_dirty {
                        cells.push(prev.level_row(skill_level_from_index(s))?.to_vec());
                        continue;
                    }
                    let mut accs: Vec<FeatureAccumulator> = schema
                        .kinds()
                        .iter()
                        .map(|&k| FeatureAccumulator::new(k))
                        .collect();
                    let counts = &self.counts[s * self.n_items..(s + 1) * self.n_items];
                    for (item, &k) in counts.iter().enumerate() {
                        if k == 0 {
                            continue;
                        }
                        let features = dataset.item_features(item_id_from_index(item));
                        for (acc, value) in accs.iter_mut().zip(features) {
                            acc.push_n(value, k)?;
                        }
                    }
                    cells.push(accs.iter().map(|a| a.fit(lambda)).collect::<Result<_>>()?);
                }
                SkillModel::new(schema.clone(), self.n_levels, cells)?
            }
        };
        self.dirty.fill(false);
        Ok(model)
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

/// Persistent per-level soft responsibility mass: the EM analogue of
/// [`StatsGrid`].
///
/// `weights[s · n_items + i]` holds `Σ_a γ(a, s)` over all actions `a`
/// whose item is `i` — the exact weighted sufficient statistics of the EM
/// M-step, in incrementally-updatable form. Alongside the weights the grid
/// stores every action's last applied posterior row (`gammas[a · S + s]`),
/// so after each E-step an action contributes only the *delta*
/// `γ_new − γ_old` to its item's cells, and only when some level moved by
/// more than the gate `tolerance` — actions whose posteriors have settled
/// cost one comparison instead of `S · F` accumulator pushes. Levels whose
/// weights changed are flagged dirty so the M-step refits only those rows
/// (replayed item-major, `O(S · n_items · F)` pushes independent of
/// `|A|`) and the emission table refreshes only those columns.
///
/// With `tolerance = 0` every changed posterior is applied and each weight
/// equals the full-EM sum up to floating-point summation order; a positive
/// gate trades a bounded weight error (`≤ tolerance` per gated action per
/// level) for skipping settled actions. Deltas are applied sequentially on
/// the calling thread, so the grid is deterministic and independent of
/// worker-thread count.
#[derive(Debug, Clone)]
pub struct SoftStatsGrid {
    n_levels: usize,
    n_items: usize,
    /// Level-major responsibility mass per item.
    weights: Vec<f64>,
    /// Last applied posterior row per action, action-major.
    gammas: Vec<f64>,
    /// Gate: a posterior row is reapplied only when some level moved by
    /// more than this.
    tolerance: f64,
    /// Levels whose weights changed since [`SoftStatsGrid::clear_dirty`].
    dirty: Vec<bool>,
    /// Declared item-axis slice when this grid is an item-range shard;
    /// `None` for whole-axis grids. See [`StatsGrid::shard_for_items`].
    item_range: Option<(usize, usize)>,
}

impl SoftStatsGrid {
    /// Creates an all-zero grid covering `n_actions` actions.
    ///
    /// Every stored posterior starts at zero, so the first E-step applies
    /// each action's full posterior row and marks every level dirty.
    pub fn new(n_levels: usize, n_items: usize, n_actions: usize, tolerance: f64) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        if !tolerance.is_finite() || tolerance < 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "responsibility delta tolerance",
                value: tolerance,
            });
        }
        Ok(Self {
            n_levels,
            n_items,
            weights: vec![0.0; n_levels * n_items],
            gammas: vec![0.0; n_actions * n_levels],
            tolerance,
            dirty: vec![false; n_levels],
            item_range: None,
        })
    }

    /// Creates an all-zero **item-range shard** promising to accumulate
    /// responsibility mass only for items in `start..end`. The soft
    /// analogue of [`StatsGrid::shard_for_items`]; the declared range
    /// is checked for disjointness on merge.
    pub fn shard_for_items(
        n_levels: usize,
        n_items: usize,
        n_actions: usize,
        tolerance: f64,
        start: usize,
        end: usize,
    ) -> Result<Self> {
        if start > end || end > n_items {
            return Err(CoreError::LengthMismatch {
                context: "shard item range vs item count",
                left: end,
                right: n_items,
            });
        }
        let mut grid = Self::new(n_levels, n_items, n_actions, tolerance)?;
        grid.item_range = Some((start, end));
        Ok(grid)
    }

    /// The declared item range when this grid is an item-range shard.
    pub fn item_range(&self) -> Option<(usize, usize)> {
        self.item_range
    }

    /// Adds `other`'s responsibility mass (and stored posteriors) into
    /// this grid elementwise, OR-ing the dirty flags.
    ///
    /// Unlike the integer [`StatsGrid::merge`] this is a floating-point
    /// sum, so the merged weights depend on merge order at the ulp
    /// level — shards must partition their contributions (disjoint item
    /// ranges, or disjoint action sets for the stored posteriors) for
    /// the merge to be meaningful. Shape mismatches return a typed
    /// [`CoreError::LengthMismatch`]; overlapping declared item ranges
    /// are rejected in debug / `strict-invariants` builds.
    pub fn merge(&mut self, other: &SoftStatsGrid) -> Result<()> {
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
        if other.gammas.len() != self.gammas.len() {
            return Err(CoreError::LengthMismatch {
                context: "merged grid stored posteriors",
                left: self.gammas.len(),
                right: other.gammas.len(),
            });
        }
        crate::invariants::InvariantCtx::new().check_disjoint_shards(
            "soft stats grid merge",
            self.item_range,
            other.item_range,
        )?;
        for (w, &o) in self.weights.iter_mut().zip(&other.weights) {
            *w += o;
        }
        for (g, &o) in self.gammas.iter_mut().zip(&other.gammas) {
            *g += o;
        }
        for (d, &o) in self.dirty.iter_mut().zip(&other.dirty) {
            *d |= o;
        }
        self.item_range = match (self.item_range, other.item_range) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            _ => None,
        };
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

    /// Number of actions whose posteriors the grid currently stores.
    pub fn n_actions(&self) -> usize {
        self.gammas.len() / self.n_levels
    }

    /// The responsibility-delta gate this grid was created with.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Responsibility mass of item `item` at zero-based level `s`.
    pub fn weight(&self, s: usize, item: usize) -> f64 {
        self.weights[s * self.n_items + item]
    }

    /// The responsibility mass of every item at zero-based level `s`.
    pub fn level_weights(&self, s: usize) -> &[f64] {
        &self.weights[s * self.n_items..(s + 1) * self.n_items]
    }

    /// Per-level dirty flags: `true` for levels whose weights changed
    /// since the last [`SoftStatsGrid::clear_dirty`].
    pub fn dirty_levels(&self) -> &[bool] {
        &self.dirty
    }

    /// Marks every level clean (call after refitting the dirty rows).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(false);
    }

    /// Applies the freshly computed posterior row of action `a_idx`
    /// (its global index in dataset order) on `item`.
    ///
    /// Returns `Ok(true)` when the row moved past the gate and its deltas
    /// were applied, `Ok(false)` when the action was skipped as settled.
    pub fn update_action(
        &mut self,
        a_idx: usize,
        item: crate::types::ItemId,
        gamma: &[f64],
    ) -> Result<bool> {
        if gamma.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "posterior row vs grid levels",
                left: gamma.len(),
                right: self.n_levels,
            });
        }
        let item_idx = item as usize;
        if item_idx >= self.n_items {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: item_idx,
                len: self.n_items,
            });
        }
        let n_actions = self.gammas.len() / self.n_levels;
        let start = a_idx * self.n_levels;
        let stored = self.gammas.get_mut(start..start + self.n_levels).ok_or(
            CoreError::FeatureIndexOutOfBounds {
                index: a_idx,
                len: n_actions,
            },
        )?;
        let moved = stored
            .iter()
            .zip(gamma)
            .any(|(&old, &new)| (new - old).abs() > self.tolerance);
        if !moved {
            return Ok(false);
        }
        // The item's weight cells across levels form a stride-`n_items`
        // column of the level-major grid.
        let column = self.weights.iter_mut().skip(item_idx).step_by(self.n_items);
        for (((old, &new), cell), flag) in stored
            .iter_mut()
            .zip(gamma)
            .zip(column)
            .zip(self.dirty.iter_mut())
        {
            let delta = new - *old;
            if delta.abs() > 0.0 {
                *cell += delta;
                *flag = true;
            }
            *old = new;
        }
        Ok(true)
    }

    /// Appends a brand-new action (e.g. one ingested by a streaming
    /// session) on `item` with posterior row `gamma`, growing the stored
    /// posteriors by one row and applying the full mass unconditionally —
    /// a new action has no previous contribution to gate against.
    pub fn push_action(&mut self, item: crate::types::ItemId, gamma: &[f64]) -> Result<()> {
        if gamma.len() != self.n_levels {
            return Err(CoreError::LengthMismatch {
                context: "posterior row vs grid levels",
                left: gamma.len(),
                right: self.n_levels,
            });
        }
        let item_idx = item as usize;
        if item_idx >= self.n_items {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: item_idx,
                len: self.n_items,
            });
        }
        self.gammas.extend_from_slice(gamma);
        let column = self.weights.iter_mut().skip(item_idx).step_by(self.n_items);
        for ((&g, cell), flag) in gamma.iter().zip(column).zip(self.dirty.iter_mut()) {
            if g.abs() > 0.0 {
                *cell += g;
                *flag = true;
            }
        }
        Ok(())
    }

    /// Fits a model refitting **only the levels whose responsibility mass
    /// changed** since the last [`SoftStatsGrid::clear_dirty`], reusing
    /// `prev`'s distributions for untouched levels — the weighted (EM)
    /// analogue of [`StatsGrid::fit_model_incremental`]. Each dirty level
    /// is replayed item-major through the weighted accumulators
    /// (`O(n_items · F)` pushes, independent of `|A|`). Falls back to
    /// refitting every level when `prev` is absent or shaped differently.
    /// Clears the dirty flags on success.
    ///
    /// A weighted cell fit is a deterministic pure function of the level's
    /// weight row and `lambda`, so `prev` must be the model produced by
    /// the previous fit of *this* grid with the same `lambda` for the
    /// reused rows to be exact (the streaming session maintains that
    /// invariant up to its construction-time convergence tolerance).
    pub fn fit_model_incremental(
        &mut self,
        dataset: &Dataset,
        lambda: f64,
        prev: Option<&SkillModel>,
    ) -> Result<SkillModel> {
        let schema = dataset.schema();
        if dataset.n_items() != self.n_items {
            return Err(CoreError::LengthMismatch {
                context: "soft stats grid items vs dataset items",
                left: self.n_items,
                right: dataset.n_items(),
            });
        }
        let reusable =
            prev.filter(|m| m.n_levels() == self.n_levels && m.n_features() == schema.len());
        let mut cells: Vec<Vec<FeatureDistribution>> = Vec::with_capacity(self.n_levels);
        for (s, &is_dirty) in self.dirty.iter().enumerate() {
            if let Some(prev) = reusable {
                if !is_dirty {
                    cells.push(prev.level_row(skill_level_from_index(s))?.to_vec());
                    continue;
                }
            }
            let mut accs: Vec<crate::em::WeightedAcc> = schema
                .kinds()
                .iter()
                .map(|&k| crate::em::WeightedAcc::new(k))
                .collect();
            for (features, &w) in dataset.items().iter().zip(self.level_weights(s)) {
                if w <= 0.0 {
                    continue;
                }
                for (acc, value) in accs.iter_mut().zip(features) {
                    acc.push(value, w)?;
                }
            }
            cells.push(accs.iter().map(|a| a.fit(lambda)).collect::<Result<_>>()?);
        }
        let model = SkillModel::new(schema.clone(), self.n_levels, cells)?;
        self.dirty.fill(false);
        Ok(model)
    }
}

/// Increments the `(level s, item)` cell of a flat `S × n_items` grid,
/// reporting an out-of-range coordinate instead of panicking.
#[inline]
fn bump(counts: &mut [u64], n_items: usize, s: usize, item: usize) -> Result<()> {
    let cell = counts
        .get_mut(s * n_items + item)
        .ok_or(CoreError::FeatureIndexOutOfBounds {
            index: item,
            len: n_items,
        })?;
    *cell += 1;
    Ok(())
}

/// Decrements the `(level s, item)` cell, failing on out-of-range
/// coordinates *and* on removing an action the grid never observed (the
/// tell-tale of a stale grid).
#[inline]
fn decrement(counts: &mut [u64], n_items: usize, s: usize, item: usize) -> Result<()> {
    let cell = counts
        .get_mut(s * n_items + item)
        .ok_or(CoreError::FeatureIndexOutOfBounds {
            index: item,
            len: n_items,
        })?;
    *cell = cell.checked_sub(1).ok_or(CoreError::DegenerateFit {
        distribution: "stats grid",
        reason: "delta removes an action the grid never observed",
    })?;
    Ok(())
}

/// Adds `by` to the `(level s, item)` cell of a signed delta grid.
#[inline]
fn shift(delta: &mut [i64], n_items: usize, s: usize, item: usize, by: i64) -> Result<()> {
    let cell = delta
        .get_mut(s * n_items + item)
        .ok_or(CoreError::FeatureIndexOutOfBounds {
            index: item,
            len: n_items,
        })?;
    *cell += by;
    Ok(())
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
    use crate::types::{Action, ActionSequence};

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
    fn item_range_shards_merge_disjoint_but_not_overlapping() {
        let mut left = StatsGrid::shard_for_items(2, 10, 0, 5).unwrap();
        let right = StatsGrid::shard_for_items(2, 10, 5, 10).unwrap();
        left.merge(&right).unwrap();
        assert_eq!(left.item_range(), Some((0, 10)));

        let overlapping = StatsGrid::shard_for_items(2, 10, 3, 8).unwrap();
        // Tests run with debug assertions, so the invariant layer is on.
        assert!(matches!(
            left.merge(&overlapping),
            Err(CoreError::InvariantViolation {
                check: "stats grid merge",
                ..
            })
        ));
        // A whole-axis partial merges into a shard freely.
        let whole = StatsGrid::new(2, 10).unwrap();
        left.merge(&whole).unwrap();
        assert_eq!(left.item_range(), None);

        assert!(matches!(
            StatsGrid::shard_for_items(2, 10, 4, 20),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn soft_merge_adds_mass_and_guards_ranges() {
        let mut a = SoftStatsGrid::shard_for_items(2, 4, 3, 0.0, 0, 2).unwrap();
        let mut b = SoftStatsGrid::shard_for_items(2, 4, 3, 0.0, 2, 4).unwrap();
        a.update_action(0, 0, &[0.25, 0.75]).unwrap();
        b.update_action(1, 3, &[0.5, 0.5]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.weight(1, 0), 0.75);
        assert_eq!(a.weight(0, 3), 0.5);
        assert_eq!(a.item_range(), Some((0, 4)));
        assert!(a.dirty_levels().iter().all(|&d| d));

        let overlapping = SoftStatsGrid::shard_for_items(2, 4, 3, 0.0, 1, 3).unwrap();
        assert!(matches!(
            a.merge(&overlapping),
            Err(CoreError::InvariantViolation {
                check: "soft stats grid merge",
                ..
            })
        ));
        let wrong_actions = SoftStatsGrid::new(2, 4, 99, 0.0).unwrap();
        assert!(matches!(
            a.merge(&wrong_actions),
            Err(CoreError::LengthMismatch {
                context: "merged grid stored posteriors",
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
    fn build_parallel_matches_sequential() {
        let ds = build_dataset(40, 12);
        let a = staircase_assignments(&ds, 4);
        let seq_grid = StatsGrid::build(&ds, &a, 4).unwrap();
        for threads in [2, 3, 5] {
            let par = StatsGrid::build_parallel(&ds, &a, 4, threads).unwrap();
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
                .apply_delta_parallel(&ds, &before, &after, threads)
                .unwrap();
            assert_eq!(seq_changed, par_changed);
            assert_eq!(seq_grid, par_grid, "threads={threads}");
        }
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
    }

    #[test]
    fn replayed_accumulators_match_accumulate_for_integer_stats() {
        let ds = build_dataset(5, 9);
        let a = staircase_assignments(&ds, 3);
        let grid = StatsGrid::build(&ds, &a, 3).unwrap();
        let replayed = grid.accumulators(&ds).unwrap();
        let scanned = crate::update::accumulate(&ds, &a, 3).unwrap();
        for (rrow, srow) in replayed.iter().zip(&scanned) {
            for (r, s) in rrow.iter().zip(srow) {
                match (r, s) {
                    (
                        FeatureAccumulator::Categorical { counts: rc },
                        FeatureAccumulator::Categorical { counts: sc },
                    ) => assert_eq!(rc, sc),
                    (
                        FeatureAccumulator::Count { sum: rs, n: rn },
                        FeatureAccumulator::Count { sum: ss, n: sn },
                    ) => {
                        // Integer-valued f64 sums: exact in either order.
                        assert_eq!(rs, ss);
                        assert_eq!(rn, sn);
                    }
                    _ => panic!("unexpected accumulator kinds"),
                }
            }
        }
    }

    #[test]
    fn fit_model_matches_update_fit_model() {
        let ds = build_dataset(6, 10);
        let a = staircase_assignments(&ds, 3);
        let grid = StatsGrid::build(&ds, &a, 3).unwrap();
        let from_grid = grid.fit_model(&ds, 0.01).unwrap();
        let from_scan = crate::update::fit_model(&ds, &a, 3, 0.01).unwrap();
        for item in 0..ds.n_items() {
            for s in 1..=3u8 {
                let g = from_grid.item_log_likelihood(ds.item_features(item as u32), s);
                let f = from_scan.item_log_likelihood(ds.item_features(item as u32), s);
                assert!((g - f).abs() < 1e-12, "item {item} level {s}: {g} vs {f}");
            }
        }
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
            .fit_model(&ds, 0.01)
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
    fn fit_model_parallel_is_bitwise_identical_to_sequential_replay() {
        let ds = build_dataset(6, 10);
        let a = staircase_assignments(&ds, 3);
        let grid = StatsGrid::build(&ds, &a, 3).unwrap();
        let sequential = grid.fit_model(&ds, 0.01).unwrap();
        for (skills, features) in [(true, false), (false, true), (true, true)] {
            for threads in [2, 3, 6] {
                let cfg = ParallelConfig::sequential()
                    .with_skills(skills)
                    .with_features(features)
                    .with_threads(threads);
                let parallel = grid.fit_model_parallel(&ds, 0.01, &cfg).unwrap();
                for item in 0..ds.n_items() {
                    for s in 1..=3u8 {
                        let a = sequential.item_log_likelihood(ds.item_features(item as u32), s);
                        let b = parallel.item_log_likelihood(ds.item_features(item as u32), s);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "skills={skills} features={features} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soft_grid_validates_construction() {
        assert!(SoftStatsGrid::new(0, 4, 10, 0.0).is_err());
        assert!(SoftStatsGrid::new(2, 4, 10, -1e-3).is_err());
        assert!(SoftStatsGrid::new(2, 4, 10, f64::NAN).is_err());
        let g = SoftStatsGrid::new(2, 4, 10, 1e-9).unwrap();
        assert_eq!(g.n_levels(), 2);
        assert_eq!(g.n_items(), 4);
        assert!((g.tolerance() - 1e-9).abs() < 1e-24);
        assert!(g.dirty_levels().iter().all(|&d| !d));
    }

    #[test]
    fn soft_grid_applies_full_row_on_first_update() {
        let mut g = SoftStatsGrid::new(3, 2, 4, 0.0).unwrap();
        assert!(g.update_action(0, 1, &[0.2, 0.3, 0.5]).unwrap());
        assert!((g.weight(0, 1) - 0.2).abs() < 1e-15);
        assert!((g.weight(1, 1) - 0.3).abs() < 1e-15);
        assert!((g.weight(2, 1) - 0.5).abs() < 1e-15);
        assert!((g.weight(0, 0)).abs() < 1e-15);
        assert!(g.dirty_levels().iter().all(|&d| d));
    }

    #[test]
    fn soft_grid_delta_restores_mass_and_tracks_dirty_levels() {
        let mut g = SoftStatsGrid::new(2, 3, 2, 0.0).unwrap();
        g.update_action(0, 0, &[0.9, 0.1]).unwrap();
        g.update_action(1, 2, &[0.4, 0.6]).unwrap();
        g.clear_dirty();
        // Moving action 0's posterior shifts only item 0's column and
        // flags both levels (each moved).
        assert!(g.update_action(0, 0, &[0.7, 0.3]).unwrap());
        assert!((g.weight(0, 0) - 0.7).abs() < 1e-15);
        assert!((g.weight(1, 0) - 0.3).abs() < 1e-15);
        assert!((g.weight(0, 2) - 0.4).abs() < 1e-15);
        assert!(g.dirty_levels().iter().all(|&d| d));
    }

    #[test]
    fn soft_grid_gates_settled_actions() {
        let mut g = SoftStatsGrid::new(2, 2, 2, 1e-6).unwrap();
        g.update_action(0, 0, &[0.5, 0.5]).unwrap();
        g.clear_dirty();
        // Movement below the gate: skipped, weights and flags untouched.
        assert!(!g.update_action(0, 0, &[0.5 + 1e-9, 0.5 - 1e-9]).unwrap());
        assert!((g.weight(0, 0) - 0.5).abs() < 1e-15);
        assert!(g.dirty_levels().iter().all(|&d| !d));
        // Movement past the gate: applied.
        assert!(g.update_action(0, 0, &[0.6, 0.4]).unwrap());
        assert!((g.weight(0, 0) - 0.6).abs() < 1e-15);
        assert!(g.dirty_levels().iter().all(|&d| d));
    }

    #[test]
    fn soft_grid_rejects_bad_coordinates() {
        let mut g = SoftStatsGrid::new(2, 2, 2, 0.0).unwrap();
        assert!(g.update_action(0, 0, &[1.0]).is_err());
        assert!(g.update_action(0, 9, &[0.5, 0.5]).is_err());
        assert!(g.update_action(7, 0, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn soft_grid_push_action_grows_and_applies_full_mass() {
        let mut g = SoftStatsGrid::new(2, 3, 1, 0.0).unwrap();
        g.update_action(0, 0, &[0.25, 0.75]).unwrap();
        g.clear_dirty();
        assert_eq!(g.n_actions(), 1);
        g.push_action(2, &[0.4, 0.6]).unwrap();
        assert_eq!(g.n_actions(), 2);
        assert!((g.weight(0, 2) - 0.4).abs() < 1e-15);
        assert!((g.weight(1, 2) - 0.6).abs() < 1e-15);
        assert!(g.dirty_levels().iter().all(|&d| d));
        // The appended row is gated like any other on later updates.
        g.clear_dirty();
        assert!(!g.update_action(1, 2, &[0.4, 0.6]).unwrap());
        // Bad coordinates are rejected without growing the grid.
        assert!(g.push_action(9, &[0.5, 0.5]).is_err());
        assert!(g.push_action(0, &[1.0]).is_err());
        assert_eq!(g.n_actions(), 2);
    }

    #[test]
    fn soft_grid_incremental_fit_reuses_clean_levels_bitwise() {
        let ds = build_dataset(4, 12);
        let mut g = SoftStatsGrid::new(3, ds.n_items(), ds.n_actions(), 0.0).unwrap();
        // Seed every action with a level-skewed posterior.
        let mut a_idx = 0usize;
        for seq in ds.sequences() {
            for action in seq.actions() {
                let tilt = (action.item % 3) as usize;
                let mut gamma = vec![0.2, 0.2, 0.2];
                gamma[tilt] += 0.4;
                g.update_action(a_idx, action.item, &gamma).unwrap();
                a_idx += 1;
            }
        }
        let base = g.fit_model_incremental(&ds, 0.01, None).unwrap();
        assert!(g.dirty_levels().iter().all(|&d| !d));
        // Touch only level 1 (zero-based 0): push mass for one action.
        g.push_action(0, &[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(
            g.dirty_levels(),
            &[true, false, false],
            "only the pushed level should be dirty"
        );
        let refit = g.fit_model_incremental(&ds, 0.01, Some(&base)).unwrap();
        // Clean levels are reused bit for bit; the dirty one moved.
        for (features, _) in ds.items().iter().zip(0..) {
            for s in 2..=3u8 {
                assert_eq!(
                    base.item_log_likelihood(features, s).to_bits(),
                    refit.item_log_likelihood(features, s).to_bits()
                );
            }
        }
        // And the dirty level's refit equals a full from-scratch fit.
        let mut fresh = g.clone();
        let scratch = fresh.fit_model_incremental(&ds, 0.01, None).unwrap();
        for (features, _) in ds.items().iter().zip(0..) {
            for s in 1..=3u8 {
                assert_eq!(
                    scratch.item_log_likelihood(features, s).to_bits(),
                    refit.item_log_likelihood(features, s).to_bits()
                );
            }
        }
    }
}
