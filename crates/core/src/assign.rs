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
pub(crate) fn assign_items_into<R: EmissionRows + ?Sized>(
    rows: &R,
    items: &[ItemId],
    ws: &mut AssignWorkspace,
    out: &mut Vec<SkillLevel>,
) -> Result<f64> {
    let n = items.len();
    if n == 0 {
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
    let s_max = rows.n_levels();
    ws.prepare(s_max, n);
    let AssignWorkspace {
        prev,
        curr,
        advanced,
        row,
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

    // Terminal arg-max; ties break toward the lower level for determinism.
    let (mut best_s, mut best_ll) = (0usize, f64::NEG_INFINITY);
    for (s, &ll) in prev.iter().enumerate() {
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
}
