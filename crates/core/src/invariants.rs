//! Runtime invariant layer: cheap, centrally gated correctness checks.
//!
//! The model's guarantees — monotone non-decreasing skill paths (Eq. 4),
//! finite emission scores, and the assignment step's DP optimality (the
//! new path never scores below the incumbent under the same emission
//! model) — are enforced here at the moments state is *committed*: after
//! an emission-table fill or refresh, after an assignment step, after a
//! streaming ingest, and after each training iteration's likelihood
//! evaluation.
//!
//! ## Gating and cost model
//!
//! Every check routes through [`InvariantCtx`], whose methods start with
//! `if !ENABLED { return Ok(()); }`. [`ENABLED`] is a `const`, true in
//! debug builds (`debug_assertions`) and whenever the `strict-invariants`
//! cargo feature is on. In a release build without the feature the
//! compiler sees a constant-false branch and removes the check bodies
//! entirely — callers pay nothing, not even a branch.
//!
//! With checks on, per-call costs are:
//!
//! | check | cost |
//! |---|---|
//! | [`InvariantCtx::check_emission_table`] | `O(n_items · S)` scan |
//! | [`InvariantCtx::check_monotone`] | `O(Σ_u · A_u )` scan |
//! | [`InvariantCtx::check_sequence_monotone`] | `O( A_u )` scan |
//! | [`InvariantCtx::check_extension`] | `O(1)` |
//! | [`InvariantCtx::check_ll_non_decreasing`] | `O(1)` |
//! | [`InvariantCtx::check_sequence_optimal`] | `O( A_u )` rescore |
//! | [`InvariantCtx::check_grid`] | full grid rebuild + compare |
//! | `InvariantCtx::check_grid_recount` | `O(S · n_items)` compare per worker |
//!
//! Training runs the per-sequence checks for every user in its chunk
//! pass ([`crate::chunked`]), and after each pass checks its
//! delta-maintained grid against a recount of the new levels
//! (`InvariantCtx::check_grid_recount`); [`InvariantCtx::check_grid`]
//! guards the streaming session's incrementally maintained grid.
//!
//! [`StatsGrid`] refits carry no float
//! state of their own (the grid is an integer histogram), so NaN poison
//! introduced through a corrupted dataset surfaces at the *next* emission
//! fill or refresh — which is why every table build/refresh path calls
//! [`InvariantCtx::check_emission_table`] before the table is used.
//!
//! ## Failure mode
//!
//! A failed check returns [`CoreError::InvariantViolation`] naming the
//! check and the offending coordinates, rather than panicking: callers in
//! long-lived services can surface the corruption without dying, and the
//! proptest suite can assert rejection.

use crate::emission::{EmissionRows, EmissionTable};
use crate::error::{CoreError, Result};
use crate::incremental::{GridDelta, StatsGrid};
use crate::types::{Dataset, ItemId, SkillAssignments, SkillLevel};

/// Whether invariant checks are compiled in. True in debug builds and
/// under the `strict-invariants` feature; constant-false otherwise, so
/// release builds without the feature pay zero cost.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "strict-invariants"));

/// Relative slack for the likelihood-non-decrease check: closed-form
/// updates are exact in real arithmetic but accumulate rounding in
/// floating point, so a strict `curr >= prev` would flag healthy runs.
const LL_RELATIVE_SLACK: f64 = 1e-6;

/// Handle through which hot paths invoke invariant checks.
///
/// Zero-sized; thread it by value. Exists (rather than free functions)
/// so the gating policy lives in one place and future per-run
/// configuration (e.g. sampled checking) has a home that does not
/// require touching every call site again.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvariantCtx;

impl InvariantCtx {
    /// Creates a check context.
    pub const fn new() -> Self {
        InvariantCtx
    }

    /// Whether checks are active in this build.
    pub const fn enabled(&self) -> bool {
        ENABLED
    }

    /// Rejects emission tables containing NaN or `+inf`.
    ///
    /// `-inf` is legal (a forbidden DP path); NaN and `+inf` can only
    /// arise from poisoned inputs or parameter corruption and would
    /// propagate through every DP that reads the row.
    pub fn check_emission_table(&self, table: &EmissionTable) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        table.verify_finite()
    }

    /// Rejects assignment matrices with a non-monotone committed path.
    pub fn check_monotone(
        &self,
        check: &'static str,
        assignments: &SkillAssignments,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        for (u, seq) in assignments.per_user.iter().enumerate() {
            for (n, w) in seq.windows(2).enumerate() {
                if w[1] < w[0] {
                    return Err(CoreError::InvariantViolation {
                        check,
                        detail: format!(
                            "sequence {u} decreases from level {} to {} at action {}",
                            w[0],
                            w[1],
                            n + 1
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Rejects a single non-monotone per-action level path.
    pub fn check_sequence_monotone(
        &self,
        check: &'static str,
        levels: &[SkillLevel],
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        for (n, w) in levels.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(CoreError::InvariantViolation {
                    check,
                    detail: format!(
                        "level path decreases from {} to {} at action {}",
                        w[0],
                        w[1],
                        n + 1
                    ),
                });
            }
        }
        Ok(())
    }

    /// O(1) check that appending `new_level` after `prev_last` keeps a
    /// streaming path monotone. `prev_last = None` (empty path) always
    /// passes.
    pub fn check_extension(
        &self,
        check: &'static str,
        prev_last: Option<SkillLevel>,
        new_level: SkillLevel,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        if let Some(prev) = prev_last {
            if new_level < prev {
                return Err(CoreError::InvariantViolation {
                    check,
                    detail: format!("appended level {new_level} is below previous level {prev}"),
                });
            }
        }
        Ok(())
    }

    /// Verifies an incrementally maintained [`StatsGrid`] against a
    /// from-scratch rebuild for `assignments`. This is the (previously
    /// `debug_assertions`-only) grid drift check, now gated with the rest
    /// of the invariant layer so `strict-invariants` release builds run
    /// it too.
    pub fn check_grid(
        &self,
        grid: &StatsGrid,
        dataset: &Dataset,
        assignments: &SkillAssignments,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        grid.cross_check(dataset, assignments)
    }

    /// Verifies the chunked trainer's delta-maintained [`StatsGrid`]
    /// against `recounts`: per-worker counts of every action at its new
    /// level, taken during the same pass (the chunk-stream form of
    /// [`Self::check_grid`]). Zeroes the recounts.
    pub(crate) fn check_grid_recount<'a>(
        &self,
        check: &'static str,
        grid: &StatsGrid,
        recounts: impl IntoIterator<Item = &'a mut GridDelta>,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        let mut recounted = StatsGrid::new(grid.n_levels(), grid.n_items())?;
        for recount in recounts {
            recounted.add_delta(recount)?;
        }
        if recounted != *grid {
            return Err(CoreError::InvariantViolation {
                check,
                detail: format!(
                    "grid holds {} actions, a recount of the new levels {}, or cells differ",
                    grid.total_actions(),
                    recounted.total_actions()
                ),
            });
        }
        Ok(())
    }

    /// Rejects a log-likelihood that dropped below an incumbent value by
    /// more than a small relative slack.
    ///
    /// `prev` and `curr` must be scores of two candidates under the
    /// *same* model — e.g. the incumbent path and the DP's new path on
    /// one emission table, where the DP's optimality guarantees
    /// `curr >= prev` in exact arithmetic. (Scores from *different*
    /// iterations do not qualify: the refit between them uses smoothing
    /// and moment fits, neither of which maximizes the raw likelihood,
    /// so the objective can genuinely dip across iterations.) The slack
    /// (`1e-6 · max(1, |prev|)`) absorbs rounding. Non-finite `prev`
    /// (e.g. an incumbent stranded on a now-forbidden `-inf` cell) skips
    /// the comparison; NaN `curr` always fails.
    pub fn check_ll_non_decreasing(&self, check: &'static str, prev: f64, curr: f64) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        if curr.is_nan() {
            return Err(CoreError::InvariantViolation {
                check,
                detail: "log-likelihood is NaN".to_string(),
            });
        }
        if !prev.is_finite() {
            return Ok(());
        }
        let slack = LL_RELATIVE_SLACK * prev.abs().max(1.0);
        if curr < prev - slack {
            return Err(CoreError::InvariantViolation {
                check,
                detail: format!("log-likelihood decreased from {prev} to {curr} (slack {slack})"),
            });
        }
        Ok(())
    }

    /// Verifies the assignment step's optimality guarantee for one
    /// sequence: the DP's new path (score `new_ll`) must score at least as
    /// well as the incumbent levels *under the same emission rows*.
    ///
    /// This is the form of likelihood non-decrease that hard-assignment
    /// training actually guarantees, and it holds per sequence. `rows` is
    /// the source the DP just consumed and `items` the sequence's item
    /// column; `incumbent` is `None` on the first iteration, when only a
    /// NaN score fails. An incumbent that scores `-inf` (stranded on a
    /// now-forbidden cell) always passes; one whose length, items or
    /// levels do not fit `rows` is itself a violation.
    pub fn check_sequence_optimal<R: EmissionRows + ?Sized>(
        &self,
        check: &'static str,
        rows: &R,
        items: &[ItemId],
        incumbent: Option<&[SkillLevel]>,
        new_ll: f64,
    ) -> Result<()> {
        if !ENABLED {
            return Ok(());
        }
        let Some(incumbent) = incumbent else {
            return self.check_ll_non_decreasing(check, f64::NEG_INFINITY, new_ll);
        };
        let misfit = |n: usize| CoreError::InvariantViolation {
            check,
            detail: format!("incumbent action {n} does not fit the emission rows"),
        };
        if incumbent.len() != items.len() {
            return Err(misfit(incumbent.len().min(items.len())));
        }
        let mut scratch = vec![0.0; rows.n_levels()];
        let mut incumbent_ll = 0.0;
        for (n, (&item, &level)) in items.iter().zip(incumbent).enumerate() {
            let s = usize::from(level).checked_sub(1);
            let score = s
                .filter(|_| (item as usize) < rows.n_items())
                .and_then(|s| rows.emission_row(item, &mut scratch).get(s).copied());
            incumbent_ll += score.ok_or_else(|| misfit(n))?;
        }
        self.check_ll_non_decreasing(check, incumbent_ll, new_ll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts what the layer does with an input it rejects: an error
    /// where it is compiled in, returned for closer checks; `Ok` where it
    /// is compiled out, which pins the zero-cost contract.
    fn assert_rejected(result: Result<()>) -> Option<CoreError> {
        if ENABLED {
            Some(result.expect_err("the invariant layer rejects this input"))
        } else {
            assert_eq!(result, Ok(()));
            None
        }
    }

    #[test]
    fn enabled_in_test_builds() {
        // The gate is open exactly in debug builds and under the
        // feature; release test builds run the rest of this module
        // against the compiled-out layer.
        assert_eq!(
            ENABLED,
            cfg!(any(debug_assertions, feature = "strict-invariants"))
        );
        assert_eq!(InvariantCtx::new().enabled(), ENABLED);
    }

    #[test]
    fn monotone_checks_accept_and_reject() {
        let ctx = InvariantCtx::new();
        let ok = SkillAssignments {
            per_user: vec![vec![1, 1, 2], vec![3]],
        };
        assert!(ctx.check_monotone("test", &ok).is_ok());
        let bad = SkillAssignments {
            per_user: vec![vec![1, 3, 2]],
        };
        if let Some(err) = assert_rejected(ctx.check_monotone("test", &bad)) {
            let msg = err.to_string();
            assert!(msg.contains("sequence 0"), "{msg}");
            assert!(msg.contains("3 to 2"), "{msg}");
        }

        assert!(ctx.check_sequence_monotone("test", &[1, 2, 2]).is_ok());
        assert_rejected(ctx.check_sequence_monotone("test", &[2, 1]));
        assert!(ctx.check_sequence_monotone("test", &[]).is_ok());
    }

    #[test]
    fn extension_check_is_order_sensitive() {
        let ctx = InvariantCtx::new();
        assert!(ctx.check_extension("test", None, 1).is_ok());
        assert!(ctx.check_extension("test", Some(2), 2).is_ok());
        assert!(ctx.check_extension("test", Some(2), 3).is_ok());
        assert_rejected(ctx.check_extension("test", Some(3), 2));
    }

    #[test]
    fn ll_check_allows_slack_but_rejects_drops_and_nan() {
        let ctx = InvariantCtx::new();
        // First iteration: prev is -inf, anything finite passes.
        assert!(ctx
            .check_ll_non_decreasing("test", f64::NEG_INFINITY, -100.0)
            .is_ok());
        // Improvement and tiny rounding dips pass.
        assert!(ctx.check_ll_non_decreasing("test", -100.0, -90.0).is_ok());
        assert!(ctx
            .check_ll_non_decreasing("test", -100.0, -100.0 - 1e-8)
            .is_ok());
        // A real drop fails.
        assert_rejected(ctx.check_ll_non_decreasing("test", -100.0, -101.0));
        // NaN always fails, even from -inf.
        assert_rejected(ctx.check_ll_non_decreasing("test", f64::NEG_INFINITY, f64::NAN));
    }

    #[test]
    fn sequence_optimality_check_scores_incumbent_under_same_rows() {
        // Two items, two levels: item 0 favors level 1, item 1 level 2;
        // item 1 can never be at level 1.
        let table = EmissionTable::from_scores(2, 2, vec![-0.1, -2.0, f64::NEG_INFINITY, -0.2]);
        let items = [0, 1];
        let incumbent: &[SkillLevel] = &[1, 2];
        let incumbent_ll = -0.1 + -0.2;
        let ctx = InvariantCtx::new();
        let check = |incumbent, new_ll| {
            ctx.check_sequence_optimal("test", &table, &items, incumbent, new_ll)
        };

        // No incumbent: only NaN is rejected.
        assert!(check(None, -5.0).is_ok());
        assert_rejected(check(None, f64::NAN));
        // Accept: matching the incumbent, or a rounding dip below it.
        assert!(check(Some(incumbent), incumbent_ll).is_ok());
        assert!(check(Some(incumbent), incumbent_ll - 1e-9).is_ok());
        // Reject: a clear drop below the incumbent, and NaN.
        if let Some(err) = assert_rejected(check(Some(incumbent), incumbent_ll - 1.0)) {
            assert!(matches!(err, CoreError::InvariantViolation { .. }));
        }
        assert_rejected(check(Some(incumbent), f64::NAN));
        // An incumbent stranded on a forbidden cell scores -inf: any
        // finite new path passes, NaN still fails.
        let stranded: &[SkillLevel] = &[1, 1];
        assert!(check(Some(stranded), -1e300).is_ok());
        assert_rejected(check(Some(stranded), f64::NAN));
        // An incumbent that does not fit the rows is a violation.
        assert_rejected(check(Some(&[1]), 0.0));
        assert_rejected(check(Some(&[1, 3]), 0.0));
        assert_rejected(check(Some(&[0, 1]), 0.0));
    }
}
