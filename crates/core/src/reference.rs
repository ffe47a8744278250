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
//! | [`train_em_full`] | [`train_em_with_parallelism`](crate::em::train_em_with_parallelism) (responsibility deltas) | within the gate tolerance; bitwise equal to [`train_em_chunked`](crate::chunked::train_em_chunked) |
//! | [`rerank_band_full_sort`] | [`rerank_band`](crate::policy::rerank_band) (bounded per-stratum top-k) | bitwise |
//!
//! They used to be runtime switches on
//! [`ParallelConfig`](crate::parallel::ParallelConfig). None earned a
//! place there: on a 2-core VM, a skill-count sweep (S = 2..8) over a
//! 200k-item catalog with about 9 actions per item ran 3.1–3.3 s with
//! the direct path against 0.80–0.89 s with the table, so even a catalog
//! far larger than the action count favors the table.

use std::time::Instant;

use crate::dist::FeatureDistribution;
use crate::em::{forward_backward_with_table, EmConfig, EmResult, WeightedAcc};
use crate::emission::{DirectEmissions, EmissionTable};
use crate::error::{CoreError, Result};
use crate::init::initialize_model;
use crate::invariants::InvariantCtx;
use crate::model::SkillModel;
use crate::parallel::{assign_all_parallel_with_table, ParallelConfig};
use crate::policy::{policy_order, PolicyConfig, PolicyRecommendation, PolicyState, Stratum};
use crate::recommend::LevelBand;
use crate::train::{IterationStats, TrainConfig, TrainResult};
use crate::types::{skill_level_from_index, Dataset, ItemId, SkillAssignments, SkillLevel};
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

/// EM without responsibility deltas, sequentially: every iteration
/// rebuilds the emission table and folds every action's posterior row
/// through the weighted accumulators, in action order. The bitwise
/// baseline of [`train_em_chunked`](crate::chunked::train_em_chunked).
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
        let mut grid: Vec<Vec<WeightedAcc>> = (0..n_levels)
            .map(|_| {
                schema
                    .kinds()
                    .iter()
                    .map(|&k| WeightedAcc::new(k))
                    .collect()
            })
            .collect();
        let table = EmissionTable::build(&model, dataset);
        InvariantCtx::new().check_emission_table(&table)?;
        let mut evidence = 0.0;
        for seq in dataset.sequences() {
            let (gammas, log_ev) = forward_backward_with_table(&table, &config.transitions, seq)?;
            evidence += log_ev;
            for (action, gamma) in seq.actions().iter().zip(&gammas) {
                let features = dataset.item_features(action.item);
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
