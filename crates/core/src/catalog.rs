//! The item catalog's column store.
//!
//! A [`Dataset`](crate::types::Dataset) keeps one feature tuple per item
//! (`Vec<FeatureValue>` rows) and never changes it. The emission fill,
//! the M-step replay and the initializers all want the same values in
//! another shape: one flat typed column per feature, with the per-item
//! transforms the kernels need (`k` widened to `f64`, `ln k!`, `ln x`)
//! computed once. [`ItemTable`] owns the rows and builds those columns
//! ([`CatalogColumns`]) on first use, behind a [`OnceLock`]; the table
//! sits behind an [`Arc`], so every dataset built over the same catalog
//! (user subsets, train/test splits, a service's catalog) shares one
//! copy of the rows and one set of columns.
//!
//! Readers get values through [`Catalog`]: a typed [`FeatureSlot`] per
//! `(feature, item)`. A slot the columns cannot carry typed — a
//! positive real failing the density guard, or any feature of an item
//! whose tuple failed schema dispatch — is handed out as the raw row
//! value, so every accumulator returns exactly the error the row path
//! returns.
//!
//! The columns also flag the item-ID feature once, when they are built:
//! a categorical column over exactly the catalog's categories whose value
//! is its item index for every item, in a catalog with no poisoned item.
//! For such a column a level's per-item statistics *are* its per-category
//! counts, so the M-step fits it straight from the grid row
//! ([`FeatureColumn::is_item_id`]).
//!
//! Serialization emits and reads the rows array only: a dataset's JSON
//! does not depend on whether its columns were built.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::dist::special::ln_factorial;
use crate::error::{CoreError, Result};
use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};

/// A dataset's item rows plus their lazily built columns, shared by
/// every dataset over the same catalog. Cloning shares the table.
#[derive(Clone)]
pub(crate) struct ItemTable(Arc<TableInner>);

struct TableInner {
    /// `rows[i]` is the feature tuple of item `i`.
    rows: Vec<Vec<FeatureValue>>,
    /// The rows' schema check, run at most once per table. Tables built
    /// from checked rows start out `Ok`.
    checked: OnceLock<Result<()>>,
    columns: OnceLock<CatalogColumns>,
}

impl ItemTable {
    fn with_check(rows: Vec<Vec<FeatureValue>>, checked: OnceLock<Result<()>>) -> Self {
        Self(Arc::new(TableInner {
            rows,
            checked,
            columns: OnceLock::new(),
        }))
    }

    /// A table over rows the caller has already checked against the
    /// dataset's schema.
    pub(crate) fn checked(rows: Vec<Vec<FeatureValue>>) -> Self {
        Self::with_check(rows, OnceLock::from(Ok(())))
    }

    /// A table over rows nobody has checked yet (deserialized input).
    fn unchecked(rows: Vec<Vec<FeatureValue>>) -> Self {
        Self::with_check(rows, OnceLock::new())
    }

    pub(crate) fn rows(&self) -> &[Vec<FeatureValue>] {
        &self.0.rows
    }

    /// Checks every row against `schema` (the first failing row's
    /// error), once per table: later calls return the cached result.
    /// A table is only ever paired with one schema.
    pub(crate) fn check(&self, schema: &FeatureSchema) -> Result<()> {
        self.0
            .checked
            .get_or_init(|| {
                self.rows()
                    .iter()
                    .try_for_each(|row| schema.validate_item(row))
            })
            .clone()
    }

    /// The rows and their columns, building the columns on first use.
    pub(crate) fn catalog<'a>(&'a self, schema: &FeatureSchema) -> Catalog<'a> {
        let rows = self.rows();
        let columns = self
            .0
            .columns
            .get_or_init(|| CatalogColumns::gather(schema, rows.iter().map(Vec::as_slice)));
        Catalog { rows, columns }
    }

    /// Whether two tables are one shared allocation.
    #[cfg(test)]
    pub(crate) fn shares(&self, other: &ItemTable) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Whether the columns have been built.
    #[cfg(test)]
    pub(crate) fn has_columns(&self) -> bool {
        self.0.columns.get().is_some()
    }

    /// Replaces the table with an unchecked, column-less copy of the rows
    /// rewritten by `edit` — how tests corrupt a dataset the way a
    /// hand-edited file would.
    #[cfg(test)]
    pub(crate) fn edit_rows(&mut self, edit: impl FnOnce(&mut Vec<Vec<FeatureValue>>)) {
        let mut rows = self.rows().to_vec();
        edit(&mut rows);
        *self = Self::unchecked(rows);
    }
}

impl std::fmt::Debug for ItemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.rows().fmt(f)
    }
}

impl Serialize for ItemTable {
    fn to_value(&self) -> Value {
        self.rows().to_value()
    }
}

impl<'de> Deserialize<'de> for ItemTable {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        Vec::<Vec<FeatureValue>>::from_value(v).map(Self::unchecked)
    }
}

/// One feature's values over the whole catalog, with the per-item
/// transforms the kernels would otherwise recompute at every level.
pub(crate) enum Column {
    /// Category codes, as stored (out-of-range codes included).
    Categorical(Vec<u32>),
    /// Counts widened to `f64`, plus `ln k!`.
    Count {
        /// `k` as `f64`, one slot per item.
        ks: Vec<f64>,
        /// `ln k!`, one slot per item.
        ln_facts: Vec<f64>,
    },
    /// Positive reals plus `ln x`. Items failing the scalar density
    /// guard (`x ≤ 0` or non-finite) carry the placeholder pair
    /// `(1.0, 0.0)` and are flagged in `guard`, so the kernels never see
    /// invalid inputs.
    Real {
        /// Sample values (placeholder `1.0` for guarded slots).
        xs: Vec<f64>,
        /// `ln x` (placeholder `0.0` for guarded slots).
        ln_xs: Vec<f64>,
        /// Which slots failed the guard, up to the last that did; empty
        /// when none did.
        guard: Vec<bool>,
    },
}

impl Column {
    fn with_capacity(kind: FeatureKind, capacity: usize) -> Self {
        match kind {
            FeatureKind::Categorical { .. } => Column::Categorical(Vec::with_capacity(capacity)),
            FeatureKind::Count => Column::Count {
                ks: Vec::with_capacity(capacity),
                ln_facts: Vec::with_capacity(capacity),
            },
            FeatureKind::Positive { .. } => Column::Real {
                xs: Vec::with_capacity(capacity),
                ln_xs: Vec::with_capacity(capacity),
                guard: Vec::new(),
            },
        }
    }

    /// Appends the value of row `index`; `false` signals a value whose
    /// kind does not match the column (or a missing value), for which a
    /// neutral placeholder keeps the column aligned.
    fn push(&mut self, index: usize, value: Option<&FeatureValue>) -> bool {
        match (self, value) {
            (Column::Categorical(cats), Some(FeatureValue::Categorical(c))) => cats.push(*c),
            (Column::Count { ks, ln_facts }, Some(FeatureValue::Count(k))) => {
                ks.push(*k as f64);
                ln_facts.push(ln_factorial(*k));
            }
            (Column::Real { xs, ln_xs, guard }, Some(FeatureValue::Real(x))) => {
                if *x > 0.0 && x.is_finite() {
                    xs.push(*x);
                    ln_xs.push(x.ln());
                } else {
                    xs.push(1.0);
                    ln_xs.push(0.0);
                    flag(guard, index);
                }
            }
            (column, _) => {
                match column {
                    Column::Categorical(cats) => cats.push(u32::MAX),
                    Column::Count { ks, ln_facts } => {
                        ks.push(0.0);
                        ln_facts.push(0.0);
                    }
                    Column::Real { xs, ln_xs, .. } => {
                        xs.push(1.0);
                        ln_xs.push(0.0);
                    }
                }
                return false;
            }
        }
        true
    }

    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Column::Categorical(_) => "categorical",
            Column::Count { .. } => "count",
            Column::Real { .. } => "positive real",
        }
    }

    /// The typed slot of item `i`, or `None` where the column carries no
    /// typed value (a guarded real, or `i` out of range).
    #[inline]
    fn slot(&self, i: usize) -> Option<FeatureSlot<'static>> {
        match self {
            Column::Categorical(cats) => cats.get(i).map(|&c| FeatureSlot::Categorical(c)),
            Column::Count { ks, .. } => ks.get(i).map(|&k| FeatureSlot::Count(k)),
            Column::Real { xs, ln_xs, guard } => match (xs.get(i), ln_xs.get(i)) {
                (Some(&x), Some(&ln_x)) if !flagged(guard, i) => {
                    Some(FeatureSlot::Real { x, ln_x })
                }
                _ => None,
            },
        }
    }
}

/// Sets flag `index` of a mask that stays empty until its first flag.
fn flag(mask: &mut Vec<bool>, index: usize) {
    if mask.len() <= index {
        mask.resize(index + 1, false);
    }
    if let Some(cell) = mask.get_mut(index) {
        *cell = true;
    }
}

/// Reads flag `index` of a mask. A mask ends at its last set flag and
/// reads `false` past its end, so an empty mask flags nothing.
#[inline]
pub(crate) fn flagged(mask: &[bool], index: usize) -> bool {
    mask.get(index).copied().unwrap_or(false)
}

/// The flags of `range` in a mask: shorter than `range` where the mask
/// ends early (the missing flags are unset).
pub(crate) fn mask_range(mask: &[bool], range: Range<usize>) -> &[bool] {
    mask.get(range.start..range.end.min(mask.len()))
        .unwrap_or(&[])
}

/// Typed flat columns over a run of item rows, one per schema feature.
///
/// Per item, a categorical feature costs 4 bytes, a count 16 and a
/// positive real 24. Each mask costs one byte per item up to its last
/// flagged item: a clean catalog pays nothing for them.
pub(crate) struct CatalogColumns {
    columns: Vec<Column>,
    /// Per column: whether it is an item-ID column (module docs).
    item_ids: Vec<bool>,
    /// Items whose tuple failed schema dispatch (a kind mismatch or a
    /// missing value) — dead for rows [`Dataset::new`] checked. Their
    /// emission rows score `-inf` at every level. Ends at the last such
    /// item; empty when none did.
    ///
    /// [`Dataset::new`]: crate::types::Dataset::new
    hard_poison: Vec<bool>,
    /// The first mismatch's `(column kind, value kind)` names, for the
    /// scoring site's report.
    mismatch: Option<(&'static str, &'static str)>,
}

impl CatalogColumns {
    /// Gathers the columns of `rows`, in order.
    pub(crate) fn gather<'a>(
        schema: &FeatureSchema,
        rows: impl ExactSizeIterator<Item = &'a [FeatureValue]>,
    ) -> Self {
        let n_rows = rows.len();
        let mut columns: Vec<Column> = schema
            .kinds()
            .iter()
            .map(|&kind| Column::with_capacity(kind, n_rows))
            .collect();
        let mut hard_poison = Vec::new();
        let mut mismatch = None;
        for (index, row) in rows.enumerate() {
            let mut values = row.iter();
            for column in &mut columns {
                let value = values.next();
                if !column.push(index, value) {
                    let got = value.map_or("missing", FeatureValue::name);
                    mismatch.get_or_insert((column.kind_name(), got));
                    flag(&mut hard_poison, index);
                }
            }
        }
        let item_ids = (columns.iter().zip(schema.kinds()))
            .map(|(column, &kind)| hard_poison.is_empty() && numbers_items(column, kind, n_rows))
            .collect();
        Self {
            columns,
            item_ids,
            hard_poison,
            mismatch,
        }
    }

    /// The columns, in schema order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Items forced to `-inf` at every level (empty when none are).
    pub(crate) fn hard_poison(&self) -> &[bool] {
        &self.hard_poison
    }

    /// The `(column kind, value kind)` names of the first item in
    /// [`CatalogColumns::hard_poison`].
    pub(crate) fn mismatch(&self) -> (&'static str, &'static str) {
        self.mismatch.unwrap_or(("matching", "mismatched"))
    }
}

/// Whether `column` is categorical over exactly `n_rows` categories and
/// holds its item index at every item.
fn numbers_items(column: &Column, kind: FeatureKind, n_rows: usize) -> bool {
    match (column, kind) {
        (Column::Categorical(cats), FeatureKind::Categorical { cardinality }) => {
            cardinality as usize == n_rows
                && cats.len() == n_rows
                && cats.iter().enumerate().all(|(i, &c)| c as usize == i)
        }
        _ => false,
    }
}

/// One feature value as an accumulator consumes it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FeatureSlot<'a> {
    /// A category code.
    Categorical(u32),
    /// A count, widened to `f64`.
    Count(f64),
    /// A positive real with its `ln x`.
    Real {
        /// The sample.
        x: f64,
        /// `ln x`.
        ln_x: f64,
    },
    /// A value the columns do not carry typed: the raw row value, or
    /// `None` where the row is shorter than the schema (nothing is
    /// pushed, as the row path's zip pushes nothing).
    Row(Option<&'a FeatureValue>),
}

impl FeatureSlot<'_> {
    /// The typed slot of a row value, with the transforms the columns
    /// cache computed here. `ln x` is taken unchecked: a positive real
    /// reaches a positive-real accumulator through
    /// [`SufficientStats::push_n`](crate::dist::SufficientStats::push_n),
    /// which checks it first.
    #[inline]
    pub(crate) fn of(value: &FeatureValue) -> FeatureSlot<'static> {
        match *value {
            FeatureValue::Categorical(c) => FeatureSlot::Categorical(c),
            FeatureValue::Count(k) => FeatureSlot::Count(k as f64),
            FeatureValue::Real(x) => FeatureSlot::Real { x, ln_x: x.ln() },
        }
    }

    /// The value kind's name, as [`FeatureValue::name`] spells it.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FeatureSlot::Categorical(_) => "categorical",
            FeatureSlot::Count(_) => "count",
            FeatureSlot::Real { .. } => "positive real",
            FeatureSlot::Row(value) => value.map_or("missing", FeatureValue::name),
        }
    }
}

/// A dataset's item rows and their columns, borrowed together.
#[derive(Clone, Copy)]
pub(crate) struct Catalog<'a> {
    rows: &'a [Vec<FeatureValue>],
    columns: &'a CatalogColumns,
}

impl<'a> Catalog<'a> {
    /// The catalog's columns.
    pub(crate) fn columns(self) -> &'a CatalogColumns {
        self.columns
    }

    /// The slots of one item's features, in schema order.
    /// [`CoreError::FeatureIndexOutOfBounds`] when `item` is not in the
    /// catalog.
    #[inline]
    pub(crate) fn item(
        self,
        item: usize,
    ) -> Result<impl Iterator<Item = FeatureSlot<'a>> + Clone + 'a> {
        if item >= self.rows.len() {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: item,
                len: self.rows.len(),
            });
        }
        let n_features = self.columns.columns.len();
        Ok((0..n_features).map(move |f| self.feature(f).slot(item)))
    }

    /// Feature `f` of every item.
    #[inline]
    pub(crate) fn feature(self, f: usize) -> FeatureColumn<'a> {
        FeatureColumn {
            f,
            column: self.columns.columns.get(f),
            item_id: self.columns.item_ids.get(f).copied().unwrap_or(false),
            rows: self.rows,
            poison: &self.columns.hard_poison,
        }
    }
}

/// One feature's catalog column, with the rows its untyped slots fall
/// back to.
#[derive(Clone, Copy)]
pub(crate) struct FeatureColumn<'a> {
    f: usize,
    column: Option<&'a Column>,
    item_id: bool,
    rows: &'a [Vec<FeatureValue>],
    poison: &'a [bool],
}

impl<'a> FeatureColumn<'a> {
    /// Whether this is an item-ID column (module docs): item `i`'s slot
    /// is category `i`, for every item of the catalog and no other.
    pub(crate) fn is_item_id(self) -> bool {
        self.item_id
    }

    /// The slot of item `i`: typed from the column, or the row value
    /// where the column carries none (a guarded real, a hard-poisoned
    /// item, or `i` past the catalog — then `Row(None)`).
    #[inline]
    pub(crate) fn slot(self, i: usize) -> FeatureSlot<'a> {
        match self.column.and_then(|column| column.slot(i)) {
            Some(slot) if !flagged(self.poison, i) => slot,
            _ => FeatureSlot::Row(self.rows.get(i).and_then(|row| row.get(self.f))),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::chunked::{initialize_model_chunked, DatasetChunks};
    use crate::dist::FeatureAccumulator;
    use crate::emission::EmissionTable;
    use crate::feature::PositiveModel;
    use crate::incremental::{MassGrid, StatsGrid};
    use crate::model::SkillModel;
    use crate::parallel::ParallelConfig;
    use crate::reference::{build_scalar, segment_uniform};
    use crate::types::{item_id_from_index, Action, ActionSequence, Dataset, SkillAssignments};
    use crate::update::{fit_cells, fit_model};

    const LAMBDA: f64 = 0.01;
    const S: usize = 3;
    const CARDINALITY: u32 = 4;
    const MIN_INIT: usize = 3;

    /// (category, count, gamma sample, log-normal sample).
    type ItemDraw = (u32, u64, f64, f64);
    /// Per user: (item pick, level) per action.
    type UserDraw = Vec<(usize, u8)>;

    fn schema() -> FeatureSchema {
        FeatureSchema::new(vec![
            FeatureKind::Categorical {
                cardinality: CARDINALITY,
            },
            FeatureKind::Count,
            FeatureKind::Positive {
                model: PositiveModel::Gamma,
            },
            FeatureKind::Positive {
                model: PositiveModel::LogNormal,
            },
        ])
        .unwrap()
    }

    fn dataset(items: &[ItemDraw], users: &[UserDraw]) -> Dataset {
        let rows = items
            .iter()
            .map(|&(c, k, g, l)| {
                vec![
                    FeatureValue::Categorical(c % CARDINALITY),
                    FeatureValue::Count(k),
                    FeatureValue::Real(g),
                    FeatureValue::Real(l),
                ]
            })
            .collect();
        let sequences = users
            .iter()
            .enumerate()
            .map(|(u, draws)| {
                let user = u as u32;
                let actions = draws
                    .iter()
                    .enumerate()
                    .map(|(t, &(pick, _))| {
                        Action::new(t as i64, user, item_id_from_index(pick % items.len()))
                    })
                    .collect();
                ActionSequence::new(user, actions).unwrap()
            })
            .collect();
        Dataset::new(schema(), rows, sequences).unwrap()
    }

    fn assignments(users: &[UserDraw], shift: u8) -> SkillAssignments {
        let per_user = users
            .iter()
            .map(|draws| {
                draws
                    .iter()
                    .map(|&(_, level)| (level + shift) % S as u8 + 1)
                    .collect()
            })
            .collect();
        SkillAssignments { per_user }
    }

    fn bits(model: &SkillModel) -> String {
        format!("{model:?}")
    }

    fn model_from(cells: Vec<Vec<crate::dist::FeatureDistribution>>) -> Result<SkillModel> {
        SkillModel::new(schema(), S, cells)
    }

    /// An M-step replayed from the item rows: `weight(s, item)` is the
    /// weight of the item's values at level `s + 1`.
    fn replay_rows(ds: &Dataset, weight: impl Fn(usize, usize) -> f64) -> Result<SkillModel> {
        let mut cells = Vec::new();
        for s in 0..S {
            let mut accs: Vec<FeatureAccumulator> = schema()
                .kinds()
                .iter()
                .map(|&k| FeatureAccumulator::new(k))
                .collect();
            for (item, row) in ds.items().iter().enumerate() {
                let w = weight(s, item);
                if w <= 0.0 {
                    continue;
                }
                for (acc, value) in accs.iter_mut().zip(row) {
                    acc.push_n(value, w)?;
                }
            }
            cells.push(accs.iter().map(|a| a.fit(LAMBDA)).collect::<Result<_>>()?);
        }
        model_from(cells)
    }

    /// The hard M-step replayed from the item rows.
    fn replay_hard(ds: &Dataset, grid: &StatsGrid) -> Result<SkillModel> {
        replay_rows(ds, |s, item| grid.count(s, item) as f64)
    }

    /// The soft M-step replayed from the item rows.
    fn replay_soft(ds: &Dataset, grid: &MassGrid) -> Result<SkillModel> {
        replay_rows(ds, |s, item| grid.mass(s, item))
    }

    /// Per-action pushes of `levels` over `sequences`, read from the rows.
    fn replay_actions<'a>(
        ds: &Dataset,
        labelled: impl Iterator<Item = (&'a ActionSequence, Vec<u8>)>,
    ) -> Result<SkillModel> {
        let mut grid: Vec<Vec<FeatureAccumulator>> = (0..S)
            .map(|_| {
                schema()
                    .kinds()
                    .iter()
                    .map(|&k| FeatureAccumulator::new(k))
                    .collect()
            })
            .collect();
        for (seq, levels) in labelled {
            for (action, level) in seq.actions().iter().zip(levels) {
                let row = &mut grid[level as usize - 1];
                for (acc, value) in row.iter_mut().zip(ds.item_features(action.item)) {
                    acc.push(value)?;
                }
            }
        }
        model_from(fit_cells(&grid, LAMBDA)?)
    }

    /// Fresh datasets in every column-store state: cold (no columns yet),
    /// warm (columns built), a clone of a warm one (shared columns) and a
    /// deserialized copy (cold again).
    fn variants(make: &dyn Fn() -> Dataset) -> Vec<(&'static str, Dataset)> {
        let cold = make();
        assert!(!cold.item_table().has_columns());
        let warm = make();
        let _ = warm.catalog();
        assert!(warm.item_table().has_columns());
        let clone = warm.clone();
        assert!(clone.item_table().shares(warm.item_table()));
        let json = serde_json::to_string(&make()).unwrap();
        let parsed: Dataset = serde_json::from_str(&json).unwrap();
        assert!(!parsed.item_table().has_columns());
        vec![
            ("cold", cold),
            ("warm", warm),
            ("clone", clone),
            ("deserialized", parsed),
        ]
    }

    fn assert_tables_eq(got: &EmissionTable, want: &EmissionTable, what: &str) {
        assert_eq!(got.n_items(), want.n_items(), "{what}");
        for item in 0..want.n_items() {
            let item = item_id_from_index(item);
            let (g, w) = (got.row(item), want.row(item));
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: item {item}");
        }
    }

    /// Every column reader against its row-reading replay, bit for bit,
    /// on datasets in every column-store state.
    fn check_all(items: &[ItemDraw], users: &[UserDraw], flags: &[bool]) {
        let make = || dataset(items, users);
        let base = make();
        let hard = assignments(users, 0);
        let other = assignments(users, 1);

        let grid = StatsGrid::build(&base, &hard, S).unwrap();
        let want_hard = bits(&replay_hard(&base, &grid).unwrap());
        let mut soft = MassGrid::new(S, base.n_items()).unwrap();
        for (a, action) in base.actions().enumerate() {
            let g = (a % 7) as f64 / 7.0;
            soft.add(action.item, &[g, 1.0 - g, 0.25 * g]).unwrap();
        }
        let want_soft = bits(&replay_soft(&base, &soft).unwrap());
        let labelled = base.sequences().iter().zip(hard.per_user.clone());
        let want_fit = replay_actions(&base, labelled).unwrap();
        let long = base
            .sequences()
            .iter()
            .filter(|s| s.len() >= MIN_INIT)
            .map(|s| (s, segment_uniform(s, S)));
        let want_init = replay_actions(&base, long).map(|m| bits(&m));
        let model = want_fit.clone();
        let model_b = fit_model(&base, &other, S, LAMBDA).unwrap();
        let scalar = build_scalar(&model, &base);
        let scalar_b = build_scalar(&model_b, &base);
        let want_fit = bits(&want_fit);

        for parallel in [ParallelConfig::sequential(), ParallelConfig::all(3)] {
            for (state, ds) in variants(&make) {
                let mut grid = grid.clone();
                let got = grid.fit_model_incremental(&ds, LAMBDA, &parallel, None);
                assert_eq!(bits(&got.unwrap()), want_hard, "hard fit, {state}");
            }
            for (state, ds) in variants(&make) {
                let got = soft.fit_model(&ds, LAMBDA, &parallel);
                assert_eq!(bits(&got.unwrap()), want_soft, "soft fit, {state}");
            }
        }
        for (state, ds) in variants(&make) {
            let got = fit_model(&ds, &hard, S, LAMBDA).unwrap();
            assert_eq!(bits(&got), want_fit, "update::fit_model, {state}");
        }
        for (state, ds) in variants(&make) {
            let chunks = DatasetChunks::new(&ds, 2).unwrap();
            let got = initialize_model_chunked(&chunks, S, MIN_INIT, LAMBDA).map(|m| bits(&m));
            if users.iter().all(|u| u.len() < MIN_INIT) {
                let want = CoreError::NoInitializationUsers {
                    threshold: MIN_INIT,
                };
                assert_eq!(got, Err(want), "init, {state}");
            } else {
                assert_eq!(got, want_init, "init, {state}");
            }
        }
        let refreshed_levels = |ds: &Dataset| {
            let mut t = build_scalar(&model_b, ds);
            t.refresh_levels(&model, ds, flags).unwrap();
            t
        };
        for (state, ds) in variants(&make) {
            assert_tables_eq(&EmissionTable::build(&model, &ds), &scalar, state);
        }
        for (state, ds) in variants(&make) {
            let got = EmissionTable::build_parallel(&model, &ds, 3).unwrap();
            assert_tables_eq(&got, &scalar, state);
        }
        for (state, ds) in variants(&make) {
            let got = refreshed_levels(&ds);
            for item in 0..ds.n_items() {
                let item = item_id_from_index(item);
                for (s0, &dirty) in flags.iter().enumerate() {
                    let want = if dirty { &scalar } else { &scalar_b };
                    let (g, w) = (got.row(item)[s0], want.row(item)[s0]);
                    assert_eq!(g.to_bits(), w.to_bits(), "refresh_levels, {state}");
                }
            }
        }
    }

    fn item_draw() -> impl Strategy<Value = ItemDraw> {
        (0..CARDINALITY, 0..80u64, 0.05..50.0f64, 0.01..100.0f64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn column_readers_match_row_replays_bitwise(
            items in proptest::collection::vec(item_draw(), 1..40),
            users in proptest::collection::vec(
                proptest::collection::vec((0..1000usize, 0..S as u8), 1..12),
                1..10,
            ),
            flags in proptest::collection::vec(0..2u8, S),
        ) {
            let flags: Vec<bool> = flags.iter().map(|&f| f == 1).collect();
            check_all(&items, &users, &flags);
        }
    }

    /// More items than one fill tile (and many parallel chunks), so the
    /// tiled and stolen windows of the columns are exercised.
    #[test]
    fn column_readers_match_row_replays_across_tiles() {
        let items: Vec<ItemDraw> = (0..5000u64)
            .map(|i| {
                let x = (i * 7919 % 1000) as f64 / 37.0 + 0.05;
                ((i % 5) as u32, i % 71, x, 1.0 / x)
            })
            .collect();
        let users: Vec<UserDraw> = (0..40usize)
            .map(|u| {
                (0..25)
                    .map(|t| (u * 131 + t * 977, (t / 9) as u8))
                    .collect()
            })
            .collect();
        check_all(&items, &users, &[true, false, true]);
    }

    #[test]
    fn clean_catalogs_carry_no_masks() {
        let ds = dataset(
            &[(0, 3, 1.5, 2.5), (3, 40, 0.2, 9.0)],
            &[vec![(0, 0), (1, 1)]],
        );
        let columns = ds.catalog().columns();
        assert!(columns.hard_poison().is_empty());
        for column in columns.columns() {
            if let Column::Real { guard, .. } = column {
                assert!(guard.is_empty());
            }
        }
    }

    #[test]
    fn item_id_columns_are_flagged_once_per_catalog() {
        let draw = |c: u32| (c, 3, 1.5, 2.5);
        let users = [vec![(0, 0)]];
        let flags = |ds: &Dataset| -> Vec<bool> {
            (0..4)
                .map(|f| ds.catalog().feature(f).is_item_id())
                .collect()
        };
        let identity = dataset(&[draw(0), draw(1), draw(2), draw(3)], &users);
        assert_eq!(flags(&identity), [true, false, false, false]);
        let reversed = dataset(&[draw(3), draw(2), draw(1), draw(0)], &users);
        assert_eq!(flags(&reversed), [false; 4]);
        // Three items of a four-category column: not one category each.
        let fewer = dataset(&[draw(0), draw(1), draw(2)], &users);
        assert_eq!(flags(&fewer), [false; 4]);
        let mut poisoned = identity.clone();
        poisoned
            .item_table_mut()
            .edit_rows(|rows| rows[2].truncate(1));
        assert_eq!(flags(&poisoned), [false; 4]);
    }

    #[test]
    fn flagged_slots_hand_out_the_row_value() {
        let mut ds = dataset(
            &[(0, 3, 1.5, 2.5), (1, 4, 2.5, 3.5), (2, 5, 3.5, 4.5)],
            &[vec![(0, 0), (1, 1), (2, 2)]],
        );
        ds.item_table_mut().edit_rows(|rows| {
            rows[1][2] = FeatureValue::Real(-1.0);
            rows[2][0] = FeatureValue::Count(7);
            rows[2].truncate(2);
        });
        let catalog = ds.catalog();
        let columns = catalog.columns();
        // The guard ends at its last flag; the poison mask likewise.
        assert!(
            matches!(&columns.columns()[2], Column::Real { guard, .. } if guard == &[false, true])
        );
        assert_eq!(columns.hard_poison(), &[false, false, true]);
        assert_eq!(columns.mismatch(), ("categorical", "count"));
        let slots: Vec<_> = catalog.item(1).unwrap().map(|s| format!("{s:?}")).collect();
        assert_eq!(slots[2], "Row(Some(Real(-1.0)))");
        assert_eq!(
            slots[3],
            format!("{:?}", FeatureSlot::of(&FeatureValue::Real(3.5)))
        );
        let slots: Vec<_> = catalog.item(2).unwrap().map(|s| format!("{s:?}")).collect();
        assert_eq!(
            slots,
            [
                "Row(Some(Count(7)))",
                "Row(Some(Count(5)))",
                "Row(None)",
                "Row(None)"
            ]
        );
        assert_eq!(
            catalog.item(3).err(),
            Some(CoreError::FeatureIndexOutOfBounds { index: 3, len: 3 })
        );
    }

    #[test]
    fn tables_are_checked_once_and_shared() {
        let ds = dataset(&[(0, 3, 1.5, 2.5)], &[vec![(0, 0)]]);
        let view = ds.with_sequences(Vec::new()).unwrap();
        assert!(view.item_table().shares(ds.item_table()));
        assert_eq!(view.n_actions(), 0);
        let _ = view.catalog();
        assert!(ds.item_table().has_columns());

        let mut bad = ds.clone();
        bad.item_table_mut()
            .edit_rows(|rows| rows[0][0] = FeatureValue::Categorical(9));
        let want = CoreError::CategoryOutOfBounds {
            feature: 0,
            value: 9,
            cardinality: CARDINALITY,
        };
        assert_eq!(bad.with_sequences(Vec::new()).err(), Some(want.clone()));
        assert_eq!(bad.validate(), Err(want));
        let dangling = ActionSequence::new(0, vec![Action::new(0, 0, 5)]).unwrap();
        assert_eq!(
            ds.with_sequences(vec![dangling]).err(),
            Some(CoreError::FeatureIndexOutOfBounds { index: 5, len: 1 })
        );
    }
}
