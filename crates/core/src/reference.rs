//! From-scratch reference paths: oracles for tests and speedup
//! denominators for the benches. Nothing in the library calls them.
//!
//! Each one is the baseline an optimization replaced, kept so the
//! optimization stays measurable and provably exact:
//!
//! | reference | production path | relation |
//! |---|---|---|
//! | [`build_scalar`] | [`EmissionTable::build`] (columnar, tiled) | bitwise |
//! | [`assign_all_direct`] | [`assign_all_parallel`](crate::parallel::assign_all_parallel) (shared table) | bitwise |
//! | [`train_full_rescan`] | [`train_with_parallelism`](crate::train::train_with_parallelism) (the chunk pass of [`train_chunked`](crate::chunked::train_chunked): integer `StatsGrid`, dirty-level refits) | same assignments and churn; objective to summation order |
//! | [`forward_backward`] | [`FbWorkspace`](crate::em::FbWorkspace) (flat reused lattices, hoisted transition log-probabilities) | bitwise |
//! | [`train_em_full`] | [`train_em_with_parallelism`](crate::em::train_em_with_parallelism) (the loop of [`train_em_chunked`](crate::chunked::train_em_chunked): a fresh responsibility-mass grid per iteration, item-major refits) | first evidence bitwise; final evidence and item scores within `1e-9` relative |
//! | [`rerank_band_full_sort`] | [`rerank_band`](crate::policy::rerank_band) (bounded per-stratum top-k) | bitwise |
//! | [`initialize_model_rows`] | [`initialize_model`] (the chunk initializer) | bitwise, and the same error for a zero level count, an empty dataset or no qualifying user |
//!
//! They used to be runtime switches on
//! [`ParallelConfig`](crate::parallel::ParallelConfig). None earned a
//! place there: on a 2-core VM, a skill-count sweep (S = 2..8) over a
//! 200k-item catalog with about 9 actions per item ran 3.1–3.3 s with
//! the direct path against 0.80–0.89 s with the table, so even a catalog
//! far larger than the action count favors the table.

use std::time::Instant;

use crate::dist::{FeatureAccumulator, FeatureDistribution};
use crate::em::{log_sum_exp, EmConfig, EmResult};
use crate::emission::{DirectEmissions, EmissionTable};
use crate::error::{CoreError, Result};
use crate::init::{initialize_model, segment_uniform_times_into};
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::{assign_all_parallel_with_table, ParallelConfig};
use crate::policy::{policy_order, PolicyConfig, PolicyRecommendation, PolicyState, Stratum};
use crate::recommend::LevelBand;
use crate::train::{IterationStats, TrainConfig, TrainResult};
use crate::transition::TransitionModel;
use crate::types::{
    skill_level_from_index, ActionSequence, Dataset, ItemId, SkillAssignments, SkillLevel,
    Timestamp,
};
use crate::update::fit_model;

/// Cell-by-cell emission fill: `n_items · S` calls to
/// [`SkillModel::item_log_likelihood`] through per-value enum dispatch.
/// The bitwise baseline of the columnar [`EmissionTable::build`].
pub fn build_scalar(model: &SkillModel, dataset: &Dataset) -> EmissionTable {
    let n_levels = model.n_levels();
    let mut data = Vec::with_capacity(dataset.n_items() * n_levels);
    for features in dataset.items() {
        for s0 in 0..n_levels {
            data.push(model.item_log_likelihood(features, skill_level_from_index(s0)));
        }
    }
    EmissionTable::from_scores(dataset.n_items(), n_levels, data)
}

/// Assigns every sequence without the shared table, evaluating
/// distributions per action. Bitwise equal to the table-backed sweep.
pub fn assign_all_direct(model: &SkillModel, dataset: &Dataset) -> Result<(SkillAssignments, f64)> {
    assign_all_parallel_with_table(
        &DirectEmissions { model, dataset },
        dataset,
        &ParallelConfig::sequential(),
    )
}

/// The hard trainer without incremental statistics, sequentially: every
/// iteration rebuilds the emission table and re-accumulates the
/// sufficient statistics from all `|A| · F` feature values
/// ([`crate::update::fit_model`]). Same stopping rules and trace shape as
/// [`train_with_parallelism`](crate::train::train_with_parallelism).
pub fn train_full_rescan(dataset: &Dataset, config: &TrainConfig) -> Result<TrainResult> {
    config.validate()?;
    if dataset.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let mut model = initialize_model(
        dataset,
        config.n_levels,
        config.min_init_actions,
        config.lambda,
    )?;
    let mut prev: Option<SkillAssignments> = None;
    let mut prev_ll = f64::NEG_INFINITY;
    let mut trace = Vec::new();
    let mut iteration = 0;
    loop {
        iteration += 1;
        let iter_start = Instant::now();
        let table = EmissionTable::build(&model, dataset);
        let (assignments, ll) =
            assign_all_parallel_with_table(&table, dataset, &ParallelConfig::sequential())?;
        let n_changed = match &prev {
            Some(p) => Some(count_changed(p, &assignments)?),
            None => None,
        };
        // Past the cap: one closing assignment pass, no update step.
        let closing = iteration > config.max_iterations;
        let converged = !closing
            && (n_changed == Some(0)
                || (prev_ll.is_finite()
                    && (ll - prev_ll).abs() <= config.tolerance * prev_ll.abs().max(1.0)));
        if !closing {
            model = fit_model(dataset, &assignments, config.n_levels, config.lambda)?;
        }
        trace.push(IterationStats {
            iteration,
            log_likelihood: ll,
            n_changed,
            seconds: iter_start.elapsed().as_secs_f64(),
        });
        if closing || converged {
            return Ok(TrainResult {
                model,
                assignments,
                log_likelihood: ll,
                trace,
                converged,
            });
        }
        prev = Some(assignments);
        prev_ll = ll;
    }
}

/// Counts actions whose assigned level differs between two assignments.
/// Ragged inputs (different user counts or per-user lengths) are an error,
/// never silently truncated.
fn count_changed(a: &SkillAssignments, b: &SkillAssignments) -> Result<usize> {
    if a.per_user.len() != b.per_user.len() {
        return Err(CoreError::LengthMismatch {
            context: "previous vs next assignments",
            left: a.per_user.len(),
            right: b.per_user.len(),
        });
    }
    let mut total = 0usize;
    for (x, y) in a.per_user.iter().zip(&b.per_user) {
        if x.len() != y.len() {
            return Err(CoreError::LengthMismatch {
                context: "previous vs next assignment lengths",
                left: x.len(),
                right: y.len(),
            });
        }
        total += x.iter().zip(y).filter(|(l, r)| l != r).count();
    }
    Ok(total)
}

/// Uniform-in-time segmentation of one sequence into `n_levels` groups:
/// the chunk initializer's segmentation over the sequence's timestamps.
/// An action before the first (unsorted input) keeps level 1.
pub fn segment_uniform(sequence: &ActionSequence, n_levels: usize) -> Vec<SkillLevel> {
    let times: Vec<Timestamp> = sequence.actions().iter().map(|a| a.time).collect();
    let mut levels = Vec::with_capacity(times.len());
    segment_uniform_times_into(&times, n_levels, &mut levels);
    levels
}

/// The row-path initializer: copies out the users with at least
/// `min_actions` actions, labels each of their sequences with
/// [`segment_uniform`] and fits the model from those labels in action
/// order ([`crate::update::fit_model`]). The bitwise baseline of
/// [`initialize_model`], which folds the same labels chunk by chunk.
pub fn initialize_model_rows(
    dataset: &Dataset,
    n_levels: usize,
    min_actions: usize,
    lambda: f64,
) -> Result<SkillModel> {
    if n_levels == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    if dataset.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let long = dataset.subset_users(|s| s.len() >= min_actions)?;
    if long.n_actions() == 0 {
        return Err(CoreError::NoInitializationUsers {
            threshold: min_actions,
        });
    }
    let per_user = (long.sequences().iter())
        .map(|s| segment_uniform(s, n_levels))
        .collect();
    fit_model(&long, &SkillAssignments { per_user }, n_levels, lambda)
}

/// Forward–backward with one `Vec<Vec<f64>>` lattice per pass and the
/// transition log-probabilities looked up per cell: posterior skill
/// marginals `gammas[n][s-1]` and the log evidence of one sequence. The
/// bitwise baseline of
/// [`FbWorkspace::run_items`](crate::em::FbWorkspace::run_items).
pub fn forward_backward(
    table: &EmissionTable,
    transitions: &TransitionModel,
    sequence: &ActionSequence,
) -> Result<(Vec<Vec<f64>>, f64)> {
    let s_max = table.n_levels();
    if transitions.n_levels() != s_max {
        return Err(CoreError::LengthMismatch {
            context: "transitions vs model levels",
            left: transitions.n_levels(),
            right: s_max,
        });
    }
    let n = sequence.len();
    if n == 0 {
        return Ok((Vec::new(), 0.0));
    }
    let actions = sequence.actions();
    for action in actions {
        if action.item as usize >= table.n_items() {
            return Err(CoreError::FeatureIndexOutOfBounds {
                index: action.item as usize,
                len: table.n_items(),
            });
        }
    }
    let emit: Vec<&[f64]> = actions.iter().map(|a| table.row(a.item)).collect();

    // Forward (log alpha).
    let mut alpha = vec![vec![f64::NEG_INFINITY; s_max]; n];
    for s in 0..s_max {
        alpha[0][s] = transitions.log_init((s + 1) as SkillLevel) + emit[0][s];
    }
    for t in 1..n {
        for s in 0..s_max {
            let stay = alpha[t - 1][s] + transitions.log_stay((s + 1) as SkillLevel);
            let up = if s > 0 {
                alpha[t - 1][s - 1] + transitions.log_advance(s as SkillLevel)
            } else {
                f64::NEG_INFINITY
            };
            alpha[t][s] = log_sum_exp(&[stay, up]) + emit[t][s];
        }
    }
    let log_evidence = log_sum_exp(&alpha[n - 1]);
    if !log_evidence.is_finite() {
        return Err(CoreError::DegenerateFit {
            distribution: "forward-backward",
            reason: "zero total probability; enable smoothing",
        });
    }

    // Backward (log beta).
    let mut beta = vec![vec![0.0f64; s_max]; n];
    for t in (0..n - 1).rev() {
        for s in 0..s_max {
            let stay =
                transitions.log_stay((s + 1) as SkillLevel) + emit[t + 1][s] + beta[t + 1][s];
            let up = if s + 1 < s_max {
                transitions.log_advance((s + 1) as SkillLevel)
                    + emit[t + 1][s + 1]
                    + beta[t + 1][s + 1]
            } else {
                f64::NEG_INFINITY
            };
            beta[t][s] = log_sum_exp(&[stay, up]);
        }
    }

    // Marginals.
    let mut gammas = vec![vec![0.0f64; s_max]; n];
    for t in 0..n {
        let mut row: Vec<f64> = (0..s_max).map(|s| alpha[t][s] + beta[t][s]).collect();
        let norm = log_sum_exp(&row);
        for v in row.iter_mut() {
            *v = (*v - norm).exp();
        }
        gammas[t] = row;
    }
    Ok((gammas, log_evidence))
}

/// EM without a mass grid, sequentially: every iteration rebuilds the
/// emission table and pushes every action's features into each level's
/// accumulators with its posterior weight, in action order. The speedup denominator of
/// `bench_em_incremental` and the oracle
/// [`train_em_chunked`](crate::chunked::train_em_chunked) agrees with to
/// rounding.
pub fn train_em_full(dataset: &Dataset, config: &EmConfig) -> Result<EmResult> {
    if dataset.n_actions() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let n_levels = config.initial.n_levels();
    let schema = dataset.schema().clone();
    let mut model = config.initial.clone();
    let mut trace = Vec::new();
    let mut converged = false;

    for _ in 0..config.max_iterations {
        // E-step: accumulate weighted stats over all sequences.
        let mut grid: Vec<Vec<FeatureAccumulator>> = (0..n_levels)
            .map(|_| {
                schema
                    .kinds()
                    .iter()
                    .map(|&k| FeatureAccumulator::new(k))
                    .collect()
            })
            .collect();
        let table = EmissionTable::build(&model, dataset);
        InvariantCtx::new().check_emission_table(&table)?;
        let mut evidence = 0.0;
        for seq in dataset.sequences() {
            let (gammas, log_ev) = forward_backward(&table, &config.transitions, seq)?;
            evidence += log_ev;
            for (action, gamma) in seq.actions().iter().zip(&gammas) {
                let features = dataset.item_features(action.item);
                for (s, &weight) in gamma.iter().enumerate() {
                    if weight <= 0.0 {
                        continue;
                    }
                    for (acc, value) in grid[s].iter_mut().zip(features) {
                        acc.push_n(value, weight)?;
                    }
                }
            }
        }
        trace.push(evidence);

        // M-step.
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

/// The policy re-rank by sorting the whole scored band, then running
/// the reservation and fill passes over it: O(band · log band) per
/// query. The bitwise baseline of
/// [`rerank_band`](crate::policy::rerank_band), which keeps only
/// each stratum's best `k`.
pub fn rerank_band_full_sort(
    band: &LevelBand,
    state: &PolicyState,
    committed: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &PolicyConfig,
    k: usize,
) -> Result<Vec<PolicyRecommendation>> {
    config.validate()?;
    if k == 0 {
        return Err(CoreError::InvalidSkillCount { requested: 0 });
    }
    let s_eff = state.effective_level(committed, config);
    let upper = band.config().upper_slack.max(1e-9);
    let span = (band.config().lower_slack + band.config().upper_slack).max(1e-9);
    let w_total = config.w_aptitude + config.w_expected + config.w_gap;

    let mut scored: Vec<PolicyRecommendation> = Vec::new();
    for r in band.ranked() {
        if exclude(r.item) {
            continue;
        }
        let stretch = r.difficulty - s_eff;
        let reach = if stretch > 0.0 {
            (stretch / upper).min(1.0)
        } else {
            0.0
        };
        let rate = state.success_rate(r.difficulty);
        // Success-rate weighting is what makes the ranking *adaptive*:
        // an unweighted reach term would score the top of the band
        // identically whether the user lands those items or drowns in
        // them, so failures could never demote an overreaching pick.
        let aptitude = rate * reach;
        let expected = rate * (1.0 - reach);
        let gap = if state.recent_failures().is_empty() {
            0.0
        } else {
            let nearest = state
                .recent_failures()
                .iter()
                .map(|f| (r.difficulty - f).abs())
                .fold(f64::INFINITY, f64::min);
            (1.0 - nearest / span).clamp(0.0, 1.0)
        };
        let policy_score =
            (config.w_aptitude * aptitude + config.w_expected * expected + config.w_gap * gap)
                / w_total;
        let stratum = if stretch > config.practice_halfwidth {
            Stratum::Challenge
        } else if stretch < -config.practice_halfwidth {
            Stratum::Review
        } else {
            Stratum::Practice
        };
        scored.push(PolicyRecommendation {
            item: r.item,
            difficulty: r.difficulty,
            stratum,
            aptitude,
            expected,
            gap,
            policy_score,
            static_score: r.score,
            score: (1.0 - config.static_weight) * policy_score + config.static_weight * r.score,
        });
    }
    scored.sort_by(policy_order);

    // Reserved slots per stratum; the remainder is unreserved.
    let k = k.min(scored.len());
    let reserve = |frac: f64| ((k as f64) * frac).floor() as usize;
    let mut quota = [
        reserve(config.mix.review),
        reserve(config.mix.practice),
        reserve(config.mix.challenge),
    ];
    let stratum_slot = |s: Stratum| match s {
        Stratum::Review => 0usize,
        Stratum::Practice => 1,
        Stratum::Challenge => 2,
    };
    let mut picked = vec![false; scored.len()];
    let mut n_picked = 0usize;
    // Pass 1: fill each stratum's reservation best-first.
    for (i, rec) in scored.iter().enumerate() {
        if n_picked == k {
            break;
        }
        let slot = stratum_slot(rec.stratum);
        if quota[slot] > 0 {
            quota[slot] -= 1;
            picked[i] = true;
            n_picked += 1;
        }
    }
    // Pass 2: release unfilled reservations to the global ranking.
    for (i, _) in scored.iter().enumerate() {
        if n_picked == k {
            break;
        }
        if !picked[i] {
            picked[i] = true;
            n_picked += 1;
        }
    }
    // `scored` is already in output order; keep the picks' order.
    Ok(scored
        .into_iter()
        .zip(picked)
        .filter_map(|(r, p)| p.then_some(r))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_changed_counts_pointwise() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        let b = SkillAssignments {
            per_user: vec![vec![1, 2, 2], vec![3]],
        };
        assert_eq!(count_changed(&a, &b).unwrap(), 1);
        assert_eq!(count_changed(&a, &a).unwrap(), 0);
    }

    #[test]
    fn count_changed_rejects_ragged_inputs() {
        let a = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        let fewer_users = SkillAssignments {
            per_user: vec![vec![1, 1, 2]],
        };
        assert!(matches!(
            count_changed(&a, &fewer_users),
            Err(CoreError::LengthMismatch { .. })
        ));
        let short_user = SkillAssignments {
            per_user: vec![vec![1, 1], vec![3]],
        };
        assert!(matches!(
            count_changed(&a, &short_user),
            Err(CoreError::LengthMismatch { .. })
        ));
    }
}
