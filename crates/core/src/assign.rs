//! The skill-assignment step: a Viterbi-style dynamic program over the
//! action–skill lattice (Fig. 2 and Eq. 4 of the paper).
//!
//! For a user sequence of length `n`, the DP computes
//! `L(u, n, s) = max_{δ∈{0,1}} L(u, n−1, s−δ) + log P(i_n | s)` and
//! backtracks the arg-max path, yielding the monotone non-decreasing skill
//! assignment that maximizes the sequence log-likelihood under the current
//! model parameters. Complexity: `O(|A_u| · S)` reads of an emission table
//! (`O(|A_u| · F · S)` distribution calls when scored straight from the
//! model).
//!
//! There is one DP, [`assign_items_with_table_ws`], generic over the
//! [`EmissionRows`] source it reads; [`assign_sequence`] is its
//! model-direct convenience form, and the dataset-wide sweep is
//! [`crate::parallel::assign_all_parallel_with_table`].

use crate::emission::{DirectEmissions, EmissionRows};
use crate::error::{CoreError, Result};
use crate::float_cmp::is_neg_infinity;
use crate::model::SkillModel;
use crate::types::{skill_level_from_index, ActionSequence, Dataset, ItemId, SkillLevel};

/// Result of assigning one sequence: the per-action levels and the path
/// log-likelihood.
// lint:allow(unused-pub): returned by `assign_sequence` and `assign_items_with_table_ws`.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceAssignment {
    /// Skill level of each action, monotone non-decreasing.
    pub levels: Vec<SkillLevel>,
    /// Log-likelihood of the best path.
    pub log_likelihood: f64,
}

/// Reusable scratch memory for the assignment DP.
///
/// One workspace holds the two rolling DP rows, the bit-packed backpointer
/// matrix, and one emission row for sources that cannot lend theirs in
/// place. Buffers grow to the largest sequence seen and are then reused,
/// so a sweep over a dataset performs **zero** per-sequence heap
/// allocations for DP scratch — only the returned `levels` vector (which
/// outlives the call) is allocated. Keep one workspace per worker thread;
/// the workspace carries no result state between calls, so reuse cannot
/// change any output bit.
#[derive(Debug, Clone, Default)]
pub struct AssignWorkspace {
    /// Rolling DP rows (`prev[s]` = best score ending at level `s+1`).
    prev: Vec<f64>,
    curr: Vec<f64>,
    /// Bit-packed backpointers: bit `t·S + s` is set when the best path
    /// into `(t, s)` advanced from level `s-1`.
    advanced: Vec<u64>,
    /// Emission row scratch for [`EmissionRows::emission_row`].
    row: Vec<f64>,
    /// The fixed-level kernel's backpointers: bit `s` of `masks[t]` is
    /// set when the best path into `(t, s)` advanced from level `s-1`.
    masks: Vec<u8>,
}

impl AssignWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows buffers to cover an `n × s_max` lattice and zeroes the
    /// backpointer words the forward pass will set. Grow-only: capacity is
    /// retained across sequences.
    fn prepare(&mut self, s_max: usize, n: usize) {
        if self.prev.len() < s_max {
            self.prev.resize(s_max, f64::NEG_INFINITY);
            self.curr.resize(s_max, f64::NEG_INFINITY);
            self.row.resize(s_max, 0.0);
        }
        let words = (n * s_max).div_ceil(64);
        if self.advanced.len() < words {
            self.advanced.resize(words, 0);
        }
        // The forward pass only *sets* bits, so clear the words in range.
        self.advanced[..words].fill(0);
    }
}

/// Assigns skill levels to the item sequence `items` via the monotone DP,
/// reading emissions from `rows`.
///
/// The initial skill is unconstrained (users may enter the data already
/// skilled); between consecutive actions the level either stays or
/// increments by one. An [`EmissionTable`](crate::emission::EmissionTable)
/// lends its rows in place — no per-action emission buffer, no
/// distribution call — so this is the hot path of training, chunked
/// training and serving. Timestamps never enter the DP, which is why the
/// item column alone suffices. All scratch lives in `ws`.
///
/// Every entry point funnels through this one implementation, so
/// tie-breaking and backtracking are identical by construction.
pub fn assign_items_with_table_ws<R: EmissionRows + ?Sized>(
    rows: &R,
    items: &[ItemId],
    ws: &mut AssignWorkspace,
) -> Result<SequenceAssignment> {
    let mut levels = Vec::with_capacity(items.len());
    let log_likelihood = assign_items_into(rows, items, ws, &mut levels)?;
    Ok(SequenceAssignment {
        levels,
        log_likelihood,
    })
}

/// [`assign_items_with_table_ws`] appending the levels to `out` instead of
/// returning a fresh vector (nothing is appended on error); returns the
/// path log-likelihood. Lets a chunk pass keep a chunk's levels in one
/// buffer.
///
/// Dispatches once per call on the level count: 2 to 8 levels run a
/// kernel compiled for that count ([`assign_fixed`]), any other count
/// the general loop ([`assign_items_loop`]). Both make the same
/// comparisons and additions in the same order, so the choice moves no
/// bit.
pub(crate) fn assign_items_into<R: EmissionRows + ?Sized>(
    rows: &R,
    items: &[ItemId],
    ws: &mut AssignWorkspace,
    out: &mut Vec<SkillLevel>,
) -> Result<f64> {
    if items.is_empty() {
        return Ok(0.0);
    }
    let n_items = rows.n_items();
    for &item in items {
        if item as usize >= n_items {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: item as usize,
                len: n_items,
            });
        }
    }
    match rows.n_levels() {
        2 => assign_fixed::<2, R>(rows, items, ws, out),
        3 => assign_fixed::<3, R>(rows, items, ws, out),
        4 => assign_fixed::<4, R>(rows, items, ws, out),
        5 => assign_fixed::<5, R>(rows, items, ws, out),
        6 => assign_fixed::<6, R>(rows, items, ws, out),
        7 => assign_fixed::<7, R>(rows, items, ws, out),
        8 => assign_fixed::<8, R>(rows, items, ws, out),
        _ => assign_items_loop(rows, items, ws, out),
    }
}

/// The general DP over any level count, on the bit-packed backpointer
/// matrix. `items` is non-empty and checked against the catalog.
pub(crate) fn assign_items_loop<R: EmissionRows + ?Sized>(
    rows: &R,
    items: &[ItemId],
    ws: &mut AssignWorkspace,
    out: &mut Vec<SkillLevel>,
) -> Result<f64> {
    let n = items.len();
    let s_max = rows.n_levels();
    ws.prepare(s_max, n);
    let AssignWorkspace {
        prev,
        curr,
        advanced,
        row,
        ..
    } = ws;
    let mut prev: &mut [f64] = &mut prev[..s_max];
    let mut curr: &mut [f64] = &mut curr[..s_max];
    let scratch: &mut [f64] = &mut row[..s_max];
    let advanced: &mut [u64] = advanced;

    // Forward pass. `prev[s]` = best score ending at level s+1; `below`
    // carries `prev[s-1]` into iteration `s` so the loop needs no
    // lookback indexing.
    let mut items = items.iter().copied();
    if let Some(first) = items.next() {
        prev.copy_from_slice(rows.emission_row(first, scratch));
    }
    for (t, item) in (1..).zip(items) {
        let emit_t = rows.emission_row(item, scratch);
        let mut below = f64::NEG_INFINITY;
        for (s, (cell, (&stay, &emit))) in curr.iter_mut().zip(prev.iter().zip(emit_t)).enumerate()
        {
            let (best, from_below) = if below > stay {
                (below, true)
            } else {
                (stay, false)
            };
            *cell = best + emit;
            if from_below {
                let idx = t * s_max + s;
                // lint:allow(hot-loop-index): bit-packed backpointer word;
                // idx < n·s_max by construction of the lattice.
                advanced[idx / 64] |= 1u64 << (idx % 64);
            }
            below = stay;
        }
        std::mem::swap(&mut prev, &mut curr);
    }

    let (best_s, best_ll) = terminal(prev)?;

    // Backtrack.
    let start = out.len();
    out.resize(start + n, 0);
    let levels = &mut out[start..];
    let mut s = best_s;
    for (t, level) in levels.iter_mut().enumerate().rev() {
        *level = skill_level_from_index(s);
        let idx = t * s_max + s;
        // lint:allow(hot-loop-index): bit-packed backpointer word, same
        // bound as the forward pass.
        if t > 0 && advanced[idx / 64] & (1u64 << (idx % 64)) != 0 {
            s -= 1;
        }
    }
    debug_assert!(levels.windows(2).all(|w| w[0] <= w[1]));
    Ok(best_ll)
}

/// Terminal arg-max of the last DP row: the first level with the highest
/// score, so ties break toward the lower level.
#[inline]
fn terminal(last: &[f64]) -> Result<(usize, f64)> {
    let (mut best_s, mut best_ll) = (0usize, f64::NEG_INFINITY);
    for (s, &ll) in last.iter().enumerate() {
        if ll > best_ll {
            best_ll = ll;
            best_s = s;
        }
    }
    if is_neg_infinity(best_ll) {
        // Every path impossible under the model (can only happen with
        // unsmoothed distributions).
        return Err(CoreError::DegenerateFit {
            distribution: "skill DP",
            reason: "all paths have zero probability; enable smoothing",
        });
    }
    Ok((best_s, best_ll))
}

/// The first `S` cells of an emission row, as an array.
#[inline]
fn fixed_row<const S: usize>(row: &[f64]) -> Result<&[f64; S]> {
    row.get(..S)
        .and_then(|cells| cells.try_into().ok())
        .ok_or(CoreError::LengthMismatch {
            context: "emission row vs level count",
            left: row.len(),
            right: S,
        })
}

/// [`assign_items_loop`] for a level count known at compile time: the
/// rolling rows are `[f64; S]` arrays the compiler keeps in registers and
/// unrolls over, and each step's backpointers are one `u8` mask in
/// [`AssignWorkspace`] instead of bits scattered over a packed matrix.
/// Every comparison, addition and tie rule is the loop's, in the loop's
/// order: stay on equality, lowest level at the end. `S ≤ 8`; `items` is
/// non-empty and checked against the catalog.
fn assign_fixed<const S: usize, R: EmissionRows + ?Sized>(
    rows: &R,
    items: &[ItemId],
    ws: &mut AssignWorkspace,
    out: &mut Vec<SkillLevel>,
) -> Result<f64> {
    let n = items.len();
    if ws.row.len() < S {
        ws.row.resize(S, 0.0);
    }
    if ws.masks.len() < n {
        ws.masks.resize(n, 0);
    }
    let scratch = &mut ws.row[..S];
    let masks = &mut ws.masks[..n];
    let (Some((&first, rest)), Some((first_mask, rest_masks))) =
        (items.split_first(), masks.split_first_mut())
    else {
        return Ok(0.0);
    };
    *first_mask = 0;
    let mut prev: [f64; S] = *fixed_row(rows.emission_row(first, scratch))?;
    for (mask, &item) in rest_masks.iter_mut().zip(rest) {
        let emit: &[f64; S] = fixed_row(rows.emission_row(item, scratch))?;
        let mut curr = [0.0; S];
        let mut advanced = 0u8;
        let mut below = f64::NEG_INFINITY;
        for (s, (cell, (&stay, &e))) in curr.iter_mut().zip(prev.iter().zip(emit)).enumerate() {
            let from_below = below > stay;
            *cell = if from_below { below } else { stay } + e;
            advanced |= u8::from(from_below) << s;
            below = stay;
        }
        *mask = advanced;
        prev = curr;
    }
    let (mut s, best_ll) = terminal(&prev)?;

    let start = out.len();
    out.resize(start + n, 0);
    let levels = &mut out[start..];
    for (level, &mask) in levels.iter_mut().zip(masks.iter()).rev() {
        *level = skill_level_from_index(s);
        if (mask >> s) & 1 != 0 {
            s -= 1;
        }
    }
    debug_assert!(levels.windows(2).all(|w| w[0] <= w[1]));
    Ok(best_ll)
}

/// Assigns skill levels to one sequence, scoring emissions straight from
/// the model (`O(n · F · S)` distribution calls). Bitwise identical to
/// [`assign_items_with_table_ws`] over a table built from the same model;
/// when assigning many sequences, build the table once instead.
pub fn assign_sequence(
    model: &SkillModel,
    dataset: &Dataset,
    sequence: &ActionSequence,
) -> Result<SequenceAssignment> {
    let rows = DirectEmissions { model, dataset };
    let items: Vec<ItemId> = sequence.actions().iter().map(|a| a.item).collect();
    assign_items_with_table_ws(&rows, &items, &mut AssignWorkspace::new())
}

/// Exhaustive-search reference implementation used to validate the DP.
///
/// Enumerates every monotone non-decreasing path (there are
/// `C(n + S - 1, S - 1)`-ish of them restricted to +1 steps) and returns the
/// best. Exponential; only call on tiny sequences in tests.
#[doc(hidden)]
pub fn assign_sequence_bruteforce(
    model: &SkillModel,
    dataset: &Dataset,
    sequence: &ActionSequence,
) -> Result<SequenceAssignment> {
    let s_max = model.n_levels();
    let n = sequence.len();
    if n == 0 {
        return Ok(SequenceAssignment {
            levels: Vec::new(),
            log_likelihood: 0.0,
        });
    }
    let emissions: Vec<Vec<f64>> = sequence
        .actions()
        .iter()
        .map(|a| model.item_log_likelihoods(dataset.item_features(a.item)))
        .collect();

    let mut best: Option<SequenceAssignment> = None;
    // Recursive enumeration of stay/+1 paths from every starting level.
    fn recurse(
        emissions: &[Vec<f64>],
        s_max: usize,
        t: usize,
        s: usize,
        ll: f64,
        path: &mut Vec<SkillLevel>,
        best: &mut Option<SequenceAssignment>,
    ) {
        let ll = ll + emissions[t][s];
        path.push(skill_level_from_index(s));
        if t + 1 == emissions.len() {
            let better = match best {
                Some(b) => ll > b.log_likelihood,
                None => true,
            };
            if better {
                *best = Some(SequenceAssignment {
                    levels: path.clone(),
                    log_likelihood: ll,
                });
            }
        } else {
            recurse(emissions, s_max, t + 1, s, ll, path, best);
            if s + 1 < s_max {
                recurse(emissions, s_max, t + 1, s + 1, ll, path, best);
            }
        }
        path.pop();
    }
    for s in 0..s_max {
        recurse(&emissions, s_max, 0, s, 0.0, &mut Vec::new(), &mut best);
    }
    best.ok_or(CoreError::EmptyDataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::emission::EmissionTable;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::parallel::ParallelConfig;
    use crate::types::Action;

    /// Model with S levels over a single categorical feature of cardinality S,
    /// where level s strongly prefers category s-1.
    fn diagonal_model(s_max: usize) -> SkillModel {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical {
            cardinality: s_max as u32,
        }])
        .unwrap();
        let cells = (0..s_max)
            .map(|s| {
                let mut probs = vec![0.1 / (s_max as f64 - 1.0).max(1.0); s_max];
                probs[s] = 0.9;
                let total: f64 = probs.iter().sum();
                for p in probs.iter_mut() {
                    *p /= total;
                }
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        SkillModel::new(schema, s_max, cells).unwrap()
    }

    fn dataset_for(s_max: usize, item_cats: &[u32]) -> (Dataset, ActionSequence) {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical {
            cardinality: s_max as u32,
        }])
        .unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..s_max as u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let actions: Vec<Action> = item_cats
            .iter()
            .enumerate()
            .map(|(t, &c)| Action::new(t as i64, 0, c))
            .collect();
        let seq = ActionSequence::new(0, actions).unwrap();
        let ds = Dataset::new(schema, items, vec![seq.clone()]).unwrap();
        (ds, seq)
    }

    #[test]
    fn empty_sequence_is_trivial() {
        let model = diagonal_model(3);
        let (ds, _) = dataset_for(3, &[0]);
        let empty = ActionSequence::new(1, vec![]).unwrap();
        let a = assign_sequence(&model, &ds, &empty).unwrap();
        assert!(a.levels.is_empty());
        assert_eq!(a.log_likelihood, 0.0);
    }

    #[test]
    fn staircase_sequence_gets_staircase_assignment() {
        let model = diagonal_model(3);
        let (ds, seq) = dataset_for(3, &[0, 0, 1, 1, 2, 2]);
        let a = assign_sequence(&model, &ds, &seq).unwrap();
        assert_eq!(a.levels, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn sequence_may_start_at_high_level() {
        let model = diagonal_model(3);
        let (ds, seq) = dataset_for(3, &[2, 2, 2]);
        let a = assign_sequence(&model, &ds, &seq).unwrap();
        assert_eq!(a.levels, vec![3, 3, 3]);
    }

    #[test]
    fn sequence_may_never_reach_top() {
        let model = diagonal_model(3);
        let (ds, seq) = dataset_for(3, &[0, 0, 0, 0]);
        let a = assign_sequence(&model, &ds, &seq).unwrap();
        assert_eq!(a.levels, vec![1, 1, 1, 1]);
    }

    #[test]
    fn monotonicity_always_holds() {
        let model = diagonal_model(4);
        // Adversarial: skill-suggesting categories go down.
        let (ds, seq) = dataset_for(4, &[3, 2, 1, 0, 1, 3]);
        let a = assign_sequence(&model, &ds, &seq).unwrap();
        assert!(a.levels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_step_constraint_respected() {
        let model = diagonal_model(5);
        // Jump from category 0 straight to 4; levels can only climb 1/action.
        let (ds, seq) = dataset_for(5, &[0, 4, 4, 4, 4, 4]);
        let a = assign_sequence(&model, &ds, &seq).unwrap();
        for w in a.levels.windows(2) {
            assert!(w[1] - w[0] <= 1);
        }
    }

    #[test]
    fn dp_matches_bruteforce() {
        let model = diagonal_model(3);
        // Exhaustive over all length-5 category patterns (3^5 = 243 cases).
        for pattern_id in 0..243u32 {
            let mut cats = Vec::with_capacity(5);
            let mut x = pattern_id;
            for _ in 0..5 {
                cats.push(x % 3);
                x /= 3;
            }
            let (ds, seq) = dataset_for(3, &cats);
            let dp = assign_sequence(&model, &ds, &seq).unwrap();
            let bf = assign_sequence_bruteforce(&model, &ds, &seq).unwrap();
            assert!(
                (dp.log_likelihood - bf.log_likelihood).abs() < 1e-9,
                "pattern {cats:?}: dp {} vs bf {}",
                dp.log_likelihood,
                bf.log_likelihood
            );
        }
    }

    #[test]
    fn assign_all_sums_loglikelihoods() {
        let model = diagonal_model(2);
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        let s0 = ActionSequence::new(0, vec![Action::new(0, 0, 0), Action::new(1, 0, 1)]).unwrap();
        let s1 = ActionSequence::new(1, vec![Action::new(0, 1, 1)]).unwrap();
        let ds = Dataset::new(schema, items, vec![s0.clone(), s1.clone()]).unwrap();
        let (assignments, total) =
            crate::parallel::assign_all_parallel(&model, &ds, &ParallelConfig::sequential())
                .unwrap();
        let a0 = assign_sequence(&model, &ds, &s0).unwrap();
        let a1 = assign_sequence(&model, &ds, &s1).unwrap();
        assert!((total - (a0.log_likelihood + a1.log_likelihood)).abs() < 1e-12);
        assert!(assignments.is_monotone());
        assert_eq!(assignments.n_actions(), 3);
    }

    fn items_of(seq: &ActionSequence) -> Vec<ItemId> {
        seq.actions().iter().map(|a| a.item).collect()
    }

    #[test]
    fn table_backed_assignment_is_bitwise_identical() {
        let model = diagonal_model(4);
        let (ds, seq) = dataset_for(4, &[0, 1, 1, 3, 2, 0, 3]);
        let table = EmissionTable::build(&model, &ds);
        let direct = assign_sequence(&model, &ds, &seq).unwrap();
        let tabled =
            assign_items_with_table_ws(&table, &items_of(&seq), &mut AssignWorkspace::new())
                .unwrap();
        assert_eq!(direct.levels, tabled.levels);
        assert_eq!(direct.log_likelihood, tabled.log_likelihood);

        let (a_direct, ll_direct) = crate::reference::assign_all_direct(&model, &ds).unwrap();
        let (a_table, ll_table) =
            crate::parallel::assign_all_parallel(&model, &ds, &ParallelConfig::sequential())
                .unwrap();
        assert_eq!(a_direct, a_table);
        assert_eq!(ll_direct, ll_table);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        let model = diagonal_model(4);
        let table_ds = dataset_for(4, &[0, 1, 2, 3]).0;
        let table = EmissionTable::build(&model, &table_ds);
        // Reuse one workspace across sequences of very different lengths,
        // in shrinking order so stale buffer contents would be exposed.
        let patterns: Vec<Vec<u32>> = vec![
            vec![0, 1, 1, 3, 2, 0, 3, 3, 2, 1, 0, 2],
            vec![3, 2, 1, 0, 1, 3],
            vec![2, 2],
            vec![1],
        ];
        let mut ws = AssignWorkspace::new();
        for cats in &patterns {
            let (ds, seq) = dataset_for(4, cats);
            let fresh = assign_sequence(&model, &ds, &seq).unwrap();
            let direct = DirectEmissions {
                model: &model,
                dataset: &ds,
            };
            let reused = assign_items_with_table_ws(&direct, &items_of(&seq), &mut ws).unwrap();
            assert_eq!(fresh.levels, reused.levels);
            assert_eq!(fresh.log_likelihood, reused.log_likelihood);
            let tabled = assign_items_with_table_ws(&table, &items_of(&seq), &mut ws).unwrap();
            assert_eq!(fresh.levels, tabled.levels);
            assert_eq!(fresh.log_likelihood, tabled.log_likelihood);
        }
    }

    #[test]
    fn assignment_rejects_unknown_items_for_every_source() {
        let model = diagonal_model(2);
        let (ds, _) = dataset_for(2, &[0, 1]);
        let table = EmissionTable::build(&model, &ds);
        let direct = DirectEmissions {
            model: &model,
            dataset: &ds,
        };
        let sources: [&dyn EmissionRows; 2] = [&table, &direct];
        let mut ws = AssignWorkspace::new();
        for rows in sources {
            // An item the source does not cover is a typed error, never
            // an out-of-bounds read.
            assert!(matches!(
                assign_items_with_table_ws(rows, &[0, 7], &mut ws),
                Err(CoreError::FeatureIndexOutOfBounds { index: 7, .. })
            ));
            // Empty sequences stay trivial.
            let empty = assign_items_with_table_ws(rows, &[], &mut ws).unwrap();
            assert!(empty.levels.is_empty());
            assert_eq!(empty.log_likelihood, 0.0);
        }
        let rogue = ActionSequence::new(5, vec![Action::new(0, 5, 7)]).unwrap();
        assert!(matches!(
            assign_sequence(&model, &ds, &rogue),
            Err(CoreError::FeatureIndexOutOfBounds { .. })
        ));
    }

    /// Emission rows straight from a flat `n_items × S` table.
    struct RawRows {
        n_levels: usize,
        cells: Vec<f64>,
    }

    impl EmissionRows for RawRows {
        fn n_items(&self) -> usize {
            self.cells.len() / self.n_levels
        }

        fn n_levels(&self) -> usize {
            self.n_levels
        }

        fn emission_row<'a>(&'a self, item: ItemId, _scratch: &'a mut [f64]) -> &'a [f64] {
            let start = item as usize * self.n_levels;
            &self.cells[start..start + self.n_levels]
        }
    }

    /// Levels and log-likelihood bits of one call, or its error.
    type Outcome = Result<(Vec<SkillLevel>, u64)>;

    fn run(
        dp: fn(&RawRows, &[ItemId], &mut AssignWorkspace, &mut Vec<SkillLevel>) -> Result<f64>,
        rows: &RawRows,
        items: &[ItemId],
        ws: &mut AssignWorkspace,
    ) -> Outcome {
        let mut levels = vec![9];
        let ll = dp(rows, items, ws, &mut levels)?;
        assert_eq!(levels.remove(0), 9, "the call appends");
        Ok((levels, ll.to_bits()))
    }

    /// Cells from a five-value palette, so equal stay and advance scores
    /// and equal terminal scores are common, and `-inf` cells appear.
    fn palette(code: u8) -> f64 {
        [0.0, -1.0, -2.0, -0.5, f64::NEG_INFINITY][usize::from(code % 5)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // S in 1..=10 covers the loop (1), every kernel (2..=8) and the
        // loop again (9, 10): the dispatching entry must equal the loop
        // bit for bit, errors included, with one workspace reused across
        // sequences of every length.
        #[test]
        fn fixed_level_kernels_equal_the_loop(
            n_levels in 1usize..=10,
            codes in proptest::collection::vec(0u8..5, 1..60),
            seqs in proptest::collection::vec(proptest::collection::vec(0u32..6, 1..40), 1..6),
        ) {
            let n_items = 6usize;
            let cells = (0..n_items * n_levels)
                .map(|c| palette(codes[c % codes.len()]))
                .collect();
            let rows = RawRows { n_levels, cells };
            let (mut ws_kernel, mut ws_loop) = (AssignWorkspace::new(), AssignWorkspace::new());
            for items in &seqs {
                let got = run(assign_items_into, &rows, items, &mut ws_kernel);
                let want = run(assign_items_loop, &rows, items, &mut ws_loop);
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    /// Model whose level `s` puts mass `weights[s][c] / Σ` on category
    /// `c`, one item per category; zero weights give `-inf` cells and
    /// repeated rows give ties.
    fn categorical_model(weights: &[Vec<u8>]) -> (SkillModel, Dataset) {
        let cardinality = weights[0].len();
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical {
            cardinality: cardinality as u32,
        }])
        .unwrap();
        let cells = weights
            .iter()
            .map(|row| {
                let total: f64 = row.iter().map(|&w| f64::from(w)).sum();
                let probs = row.iter().map(|&w| f64::from(w) / total).collect();
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        let model = SkillModel::new(schema.clone(), weights.len(), cells).unwrap();
        let items = (0..cardinality as u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq = ActionSequence::new(0, vec![Action::new(0, 0, 0)]).unwrap();
        (model, Dataset::new(schema, items, vec![seq]).unwrap())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // On short sequences every level count's DP (kernel or loop)
        // finds the exhaustive search's optimum bit for bit, and its
        // path scores that optimum.
        #[test]
        fn fixed_level_kernels_match_bruteforce(
            n_levels in 1usize..=10,
            weights in proptest::collection::vec(0u8..3, 4),
            shifts in proptest::collection::vec(0usize..4, 10),
            cats in proptest::collection::vec(0u32..4, 1..7),
        ) {
            // Rotations of one weight row: many levels share a row.
            let mut base = weights.clone();
            if base.iter().all(|&w| w == 0) {
                base[0] = 1;
            }
            let rows: Vec<Vec<u8>> = (0..n_levels)
                .map(|s| {
                    let k = shifts[s];
                    (0..4).map(|c| base[(c + k) % 4]).collect()
                })
                .collect();
            let (model, ds) = categorical_model(&rows);
            let actions = cats
                .iter()
                .enumerate()
                .map(|(t, &c)| Action::new(t as i64, 0, c))
                .collect();
            let seq = ActionSequence::new(0, actions).unwrap();
            let table = EmissionTable::build(&model, &ds);
            let items = items_of(&seq);
            let mut ws = AssignWorkspace::new();
            let got = assign_items_with_table_ws(&table, &items, &mut ws);
            let brute = assign_sequence_bruteforce(&model, &ds, &seq).unwrap();
            match got {
                Ok(dp) => {
                    proptest::prop_assert_eq!(dp.log_likelihood.to_bits(), brute.log_likelihood.to_bits());
                    let rescored = items
                        .iter()
                        .zip(&dp.levels)
                        .fold(0.0, |ll, (&item, &s)| ll + table.row(item)[usize::from(s) - 1]);
                    proptest::prop_assert_eq!(rescored.to_bits(), brute.log_likelihood.to_bits());
                    proptest::prop_assert!(dp.levels.windows(2).all(|w| w[1] - w[0] <= 1));
                }
                Err(_) => proptest::prop_assert_eq!(brute.log_likelihood, f64::NEG_INFINITY),
            }
        }
    }
}
