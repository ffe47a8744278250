//! Adaptive upskilling policies over precomputed difficulty bands —
//! the product loop the paper motivates (Fig. 1) but stops short of.
//!
//! The static recommender ([`crate::recommend`]) scores a level band
//! once and serves the same ranking to every user at that level. This
//! module adds the *adaptive* layer on top (after the AdUp adaptive
//! upskilling loop): per-user [`PolicyState`] accumulates recent
//! correctness evidence and failure history, and [`rerank_band`]
//! re-scores the band's prebuilt ranking against three objectives —
//!
//! - **aptitude** — expected learning gain: the item's stretch
//!   `d − s_eff` above the user's effective level, weighted by the
//!   user's success rate at that difficulty band (teaching pressure —
//!   reach upward, but only where reaching still succeeds);
//! - **expected performance** — the user's Laplace-smoothed success
//!   rate at the item's difficulty band, discounted by stretch
//!   (motivation pressure);
//! - **gap** — closeness to recently *failed* difficulties (review
//!   pressure: revisit what just went wrong).
//!
//! A [`PolicyMode`] fixes the objective weights (teach / motivate /
//! hybrid) and a practice/review/challenge [`MixQuota`] reserves
//! slots of the result list per stratum, so a teaching mode still
//! surfaces warm-up items and a motivating mode still stretches.
//!
//! The **NCC window** (non-consecutive-correct, after AdUp's skill
//! update) nudges the *effective* level used for scoring: a full
//! window of successes at the user's committed band lifts `s_eff`
//! above the (lagging) committed estimate; a fresh failure pulls it
//! back. Failures at a difficulty reset the streaks at every band at
//! or above it.
//!
//! A re-rank is one O(band) scan that keeps each stratum's best `k` in
//! a bounded heap (O(band · log k)); only those ≤ 3k survivors are
//! sorted, never the band, so a `k = 3` query over a 5,000-item band
//! costs the scan, not a sort.
//!
//! Everything here is deterministic: re-ranking is a pure function of
//! `(band, state, config)`, ties break by item id, and no randomness
//! or clock is consulted — the property the serving layer's bitwise
//! replay tests rely on.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::recommend::LevelBand;
use crate::types::{ItemId, SkillLevel};

/// Which objective mix drives the adaptive re-ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyMode {
    /// Teaching: aptitude-heavy — prioritize stretch items that pull
    /// the user upward, with a challenge-heavy mix.
    Teach,
    /// Motivating: expected-performance-heavy — prioritize items the
    /// user is likely to complete, with a practice-heavy mix.
    Motivate,
    /// Balanced blend of teaching and motivating pressure.
    Hybrid,
}

impl PolicyMode {
    /// Stable lowercase name (report keys, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyMode::Teach => "teach",
            PolicyMode::Motivate => "motivate",
            PolicyMode::Hybrid => "hybrid",
        }
    }
}

/// Fractions of the result list reserved per difficulty stratum
/// relative to the user's effective level. Unreserved slots go to the
/// best-scoring survivors regardless of stratum, and a stratum that
/// cannot fill its reservation releases the slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixQuota {
    /// Fraction reserved for at-level items (within
    /// [`PolicyConfig::practice_halfwidth`] of the effective level).
    pub practice: f64,
    /// Fraction reserved for below-level items.
    pub review: f64,
    /// Fraction reserved for above-level items.
    pub challenge: f64,
}

impl MixQuota {
    fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("practice quota", self.practice),
            ("review quota", self.review),
            ("challenge quota", self.challenge),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CoreError::InvalidProbability {
                    context: what,
                    value: v,
                });
            }
        }
        let total = self.practice + self.review + self.challenge;
        if total > 1.0 + 1e-12 {
            return Err(CoreError::InvalidProbability {
                context: "mix quota total",
                value: total,
            });
        }
        Ok(())
    }
}

/// Tuning for the adaptive policy layer. Build via [`PolicyConfig::teach`],
/// [`PolicyConfig::motivate`], or [`PolicyConfig::hybrid`], then adjust
/// fields as needed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// The mode this configuration implements (recorded so the serving
    /// envelope can reject mismatched requests).
    pub mode: PolicyMode,
    /// Weight of the aptitude (stretch) objective.
    pub w_aptitude: f64,
    /// Weight of the expected-performance objective.
    pub w_expected: f64,
    /// Weight of the recent-failure-gap objective.
    pub w_gap: f64,
    /// Blend weight of the band's own static score (0 = pure policy,
    /// 1 = static ranking unchanged).
    pub static_weight: f64,
    /// Length of the per-band non-consecutive-correct window.
    pub ncc_window: usize,
    /// Effective-level lift when the committed band's window is full
    /// of successes.
    pub nudge_up: f64,
    /// Effective-level drop when the committed band's latest recorded
    /// outcome is a failure.
    pub nudge_down: f64,
    /// Half-width of the practice stratum around the effective level.
    pub practice_halfwidth: f64,
    /// How many recent failed difficulties the gap objective remembers.
    pub failure_memory: usize,
    /// Practice/review/challenge slot reservations.
    pub mix: MixQuota,
}

impl PolicyConfig {
    fn base(mode: PolicyMode) -> Self {
        Self {
            mode,
            w_aptitude: 0.4,
            w_expected: 0.35,
            w_gap: 0.25,
            static_weight: 0.25,
            ncc_window: 3,
            nudge_up: 0.5,
            nudge_down: 0.25,
            practice_halfwidth: 0.25,
            failure_memory: 5,
            mix: MixQuota {
                practice: 0.3,
                review: 0.2,
                challenge: 0.3,
            },
        }
    }

    /// Aptitude-heavy teaching preset.
    pub fn teach() -> Self {
        Self {
            w_aptitude: 0.6,
            w_expected: 0.2,
            w_gap: 0.2,
            mix: MixQuota {
                practice: 0.2,
                review: 0.1,
                challenge: 0.5,
            },
            ..Self::base(PolicyMode::Teach)
        }
    }

    /// Expected-performance-heavy motivating preset.
    pub fn motivate() -> Self {
        Self {
            w_aptitude: 0.15,
            w_expected: 0.6,
            w_gap: 0.25,
            mix: MixQuota {
                practice: 0.5,
                review: 0.3,
                challenge: 0.1,
            },
            ..Self::base(PolicyMode::Motivate)
        }
    }

    /// Balanced hybrid preset.
    pub fn hybrid() -> Self {
        Self::base(PolicyMode::Hybrid)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("aptitude weight", self.w_aptitude),
            ("expected-performance weight", self.w_expected),
            ("gap weight", self.w_gap),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::InvalidProbability {
                    context: what,
                    value: v,
                });
            }
        }
        if self.w_aptitude + self.w_expected + self.w_gap <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "objective weight total",
                value: 0.0,
            });
        }
        if !(0.0..=1.0).contains(&self.static_weight) {
            return Err(CoreError::InvalidProbability {
                context: "static blend weight",
                value: self.static_weight,
            });
        }
        if self.ncc_window == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        if !self.nudge_up.is_finite()
            || self.nudge_up < 0.0
            || !self.nudge_down.is_finite()
            || self.nudge_down < 0.0
        {
            return Err(CoreError::InvalidProbability {
                context: "effective-level nudge",
                value: self.nudge_up.min(self.nudge_down),
            });
        }
        if !self.practice_halfwidth.is_finite() || self.practice_halfwidth < 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "practice half-width",
                value: self.practice_halfwidth,
            });
        }
        self.mix.validate()
    }
}

/// Per-user adaptive state: non-consecutive-correct windows per
/// difficulty band, recently failed difficulties, and the set of items
/// with an unresolved failure (retry candidates).
///
/// The state is deliberately tiny — `O(S · window)` booleans plus
/// bounded failure history — so the serving layer can shard it
/// alongside the existing per-user session state and clone it out from
/// under a shard lock in O(1)-ish time.
#[derive(Debug, Clone)]
pub struct PolicyState {
    n_levels: usize,
    window: usize,
    failure_memory: usize,
    /// Per difficulty band (index `b` = difficulty rounding to `b+1`):
    /// most recent outcomes, oldest first, at most `window` entries.
    ncc: Vec<Vec<bool>>,
    /// Recently failed difficulties, oldest first, bounded by
    /// `failure_memory`.
    recent_failures: Vec<f64>,
    /// Items whose most recent recorded outcome was a failure.
    failed_items: HashSet<ItemId>,
    /// Attempts per band (successes + failures).
    attempts: Vec<u64>,
    /// Successes per band.
    successes: Vec<u64>,
}

impl PolicyState {
    /// Fresh state for a user under `config`, over `n_levels` bands.
    pub fn new(n_levels: usize, config: &PolicyConfig) -> Result<Self> {
        if n_levels == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        config.validate()?;
        Ok(Self {
            n_levels,
            window: config.ncc_window,
            failure_memory: config.failure_memory,
            ncc: vec![Vec::new(); n_levels],
            recent_failures: Vec::new(),
            failed_items: HashSet::new(),
            attempts: vec![0; n_levels],
            successes: vec![0; n_levels],
        })
    }

    /// Which band a difficulty falls into (0-based; clamped).
    fn band_index(&self, difficulty: f64) -> usize {
        let b = difficulty.round();
        if b < 1.0 {
            0
        } else if b >= self.n_levels as f64 {
            self.n_levels - 1
        } else {
            b as usize - 1
        }
    }

    /// Records one observed outcome at `difficulty`. Successes extend
    /// the band's streak and clear the item's failed mark; failures
    /// reset the streaks of every band at or above the failed one
    /// (the AdUp reset rule) and enter the failure history.
    pub fn record(&mut self, item: ItemId, difficulty: f64, correct: bool) {
        let b = self.band_index(difficulty);
        self.attempts[b] += 1;
        if correct {
            self.successes[b] += 1;
            self.failed_items.remove(&item);
            let w = &mut self.ncc[b];
            if w.len() == self.window {
                w.remove(0);
            }
            w.push(true);
        } else {
            self.failed_items.insert(item);
            for w in self.ncc[b..].iter_mut() {
                w.clear();
            }
            self.ncc[b].push(false);
            if self.recent_failures.len() == self.failure_memory {
                self.recent_failures.remove(0);
            }
            if self.failure_memory > 0 {
                self.recent_failures.push(difficulty);
            }
        }
    }

    /// The effective level the policy scores against: the committed
    /// estimate nudged by the NCC evidence at its band, clamped to
    /// `[1, S]`.
    pub fn effective_level(&self, committed: SkillLevel, config: &PolicyConfig) -> f64 {
        let s = committed as f64;
        let b = self.band_index(s);
        let w = &self.ncc[b];
        let nudged = if w.len() >= self.window && w.iter().all(|&c| c) {
            s + config.nudge_up
        } else if matches!(w.last(), Some(false)) {
            s - config.nudge_down
        } else {
            s
        };
        nudged.clamp(1.0, self.n_levels as f64)
    }

    /// Whether `item`'s most recent recorded outcome was a failure
    /// (serving layers keep such items recommendable for retry).
    pub fn has_failed(&self, item: ItemId) -> bool {
        self.failed_items.contains(&item)
    }

    /// Laplace-smoothed success rate at the band `difficulty` falls in.
    pub fn success_rate(&self, difficulty: f64) -> f64 {
        self.band_rate(self.band_index(difficulty))
    }

    /// Laplace-smoothed success rate of band `b`.
    fn band_rate(&self, b: usize) -> f64 {
        (self.successes[b] + 1) as f64 / (self.attempts[b] + 2) as f64
    }

    /// [`Self::success_rate`] of every band, indexed by band.
    fn success_rates(&self) -> Vec<f64> {
        (0..self.n_levels).map(|b| self.band_rate(b)).collect()
    }

    /// Recently failed difficulties, oldest first.
    pub fn recent_failures(&self) -> &[f64] {
        &self.recent_failures
    }
}

/// Which stratum of the practice/review/challenge mix an item falls in
/// relative to the user's effective level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stratum {
    /// Below the effective level by more than the practice half-width.
    Review,
    /// Within the practice half-width of the effective level.
    Practice,
    /// Above the effective level by more than the practice half-width.
    Challenge,
}

/// One adaptively re-ranked recommendation with its objective
/// decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRecommendation {
    /// The recommended item.
    pub item: ItemId,
    /// Its estimated difficulty.
    pub difficulty: f64,
    /// Stratum relative to the user's effective level.
    pub stratum: Stratum,
    /// Aptitude objective in `[0, 1]`: normalized stretch weighted by
    /// the user's success rate at the item's difficulty band.
    pub aptitude: f64,
    /// Expected-performance objective in `[0, 1]`.
    pub expected: f64,
    /// Recent-failure-gap objective in `[0, 1]`.
    pub gap: f64,
    /// Weighted objective blend in `[0, 1]`.
    pub policy_score: f64,
    /// The band's static score for the item.
    pub static_score: f64,
    /// Final blended score the ranking sorts by.
    pub score: f64,
}

/// Total order: blended score descending, then item id ascending —
/// mirrors the static recommender's tie-break so re-ranking stays
/// deterministic.
pub(crate) fn policy_order(a: &PolicyRecommendation, b: &PolicyRecommendation) -> Ordering {
    rank_order(a.score, a.item, b.score, b.item)
}

/// [`policy_order`] on the `(score, item)` key alone, so a candidate
/// can be ranked before its record is built.
fn rank_order(a_score: f64, a_item: ItemId, b_score: f64, b_item: ItemId) -> Ordering {
    b_score
        .partial_cmp(&a_score)
        .unwrap_or(Ordering::Equal)
        .then(a_item.cmp(&b_item))
}

/// A kept candidate, ordered by [`policy_order`]: in a max-heap the top
/// is the worst item kept.
struct Kept(PolicyRecommendation);

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> Ordering {
        policy_order(&self.0, &other.0)
    }
}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Kept {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Kept {}

/// Re-ranks a prebuilt [`LevelBand`] for one user: scores every
/// non-excluded candidate against the policy objectives at the user's
/// effective level, then selects `k` items honoring the
/// practice/review/challenge reservations (best-scoring first within
/// each stratum, leftover slots filled globally). The returned list is
/// sorted by blended score (ties by item id).
///
/// One O(band) scan over the band's prebuilt ranking keeps the best `k`
/// candidates of each stratum in a bounded heap (O(band · log k)); only
/// those ≤ 3k survivors are sorted, and the band itself never is.
/// `exclude` is consulted only for a candidate that would enter its
/// heap. The output is exactly that of sorting the whole band
/// ([`crate::reference::rerank_band_full_sort`]):
///
/// - each quota is `floor(k'·frac) ≤ k' ≤ k`, and each stratum's top `k`
///   survives, so the reservation pass sees the same items;
/// - the fill pass takes only items of the global top `k'`, which lies
///   inside the union of the per-stratum top `k`s;
/// - if any heap is full, at least `k` candidates are non-excluded, so
///   `k' = min(k, survivors)` equals `min(k, non-excluded count)`.
///
/// Never rescans the catalog and never touches model state, so policy
/// reads stay epoch-pinned exactly like the static path. Scores are
/// assumed non-NaN (finite band difficulties and scores), as the total
/// order requires.
pub fn rerank_band(
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
    let policy_weight = 1.0 - config.static_weight;
    let rates = state.success_rates();

    // Best `k` per stratum (review, practice, challenge): a plain list
    // until it holds `k` items, then a heap — non-empty exactly when the
    // stratum is full — whose top is the worst item kept. Both grow by
    // push, so no allocation is sized from `k`, and a stratum that never
    // reaches `k` never pays for heap order.
    let mut filling: [Vec<Kept>; 3] = Default::default();
    let mut heaps: [BinaryHeap<Kept>; 3] = Default::default();
    for r in band.ranked() {
        let stretch = r.difficulty - s_eff;
        let stratum = if stretch > config.practice_halfwidth {
            Stratum::Challenge
        } else if stretch < -config.practice_halfwidth {
            Stratum::Review
        } else {
            Stratum::Practice
        };
        let reach = if stretch > 0.0 {
            (stretch / upper).min(1.0)
        } else {
            0.0
        };
        let rate = rates[state.band_index(r.difficulty)];
        // Success-rate weighting is what makes the ranking *adaptive*:
        // an unweighted reach term would score the top of the band
        // identically whether the user lands those items or drowns in
        // them, so failures could never demote an overreaching pick.
        let aptitude = rate * reach;
        let expected = rate * (1.0 - reach);
        let gap = if state.recent_failures.is_empty() {
            0.0
        } else {
            let nearest = state
                .recent_failures
                .iter()
                .map(|f| (r.difficulty - f).abs())
                .fold(f64::INFINITY, f64::min);
            (1.0 - nearest / span).clamp(0.0, 1.0)
        };
        let policy_score =
            (config.w_aptitude * aptitude + config.w_expected * expected + config.w_gap * gap)
                / w_total;
        let score = policy_weight * policy_score + config.static_weight * r.score;
        let slot = stratum_slot(stratum);
        if heaps[slot]
            .peek()
            .is_some_and(|top| rank_order(score, r.item, top.0.score, top.0.item) != Ordering::Less)
        {
            continue;
        }
        if exclude(r.item) {
            continue;
        }
        let rec = Kept(PolicyRecommendation {
            item: r.item,
            difficulty: r.difficulty,
            stratum,
            aptitude,
            expected,
            gap,
            policy_score,
            static_score: r.score,
            score,
        });
        match heaps[slot].peek_mut() {
            Some(mut top) => *top = rec,
            None => filling[slot].push(rec),
        }
        if filling[slot].len() == k {
            heaps[slot] = BinaryHeap::from(std::mem::take(&mut filling[slot]));
        }
    }
    let mut scored: Vec<PolicyRecommendation> = filling
        .into_iter()
        .chain(heaps.map(BinaryHeap::into_vec))
        .flatten()
        .map(|Kept(r)| r)
        .collect();
    scored.sort_by(policy_order);
    // Reserved slots per stratum; the remainder is unreserved.
    let k = k.min(scored.len());
    let reserve = |frac: f64| ((k as f64) * frac).floor() as usize;
    let mut quota = [
        reserve(config.mix.review),
        reserve(config.mix.practice),
        reserve(config.mix.challenge),
    ];
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

/// The stratum's index in the per-stratum arrays (review, practice,
/// challenge).
fn stratum_slot(s: Stratum) -> usize {
    match s {
        Stratum::Review => 0,
        Stratum::Practice => 1,
        Stratum::Challenge => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::emission::EmissionTable;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::model::SkillModel;
    use crate::recommend::{build_level_band, RecommendConfig};
    use crate::types::{Action, ActionSequence, Dataset};

    /// Nine items spread over difficulties ~1..3, 3-level model.
    fn band_fixture(level: SkillLevel) -> LevelBand {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 9 }]).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..9u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq =
            ActionSequence::new(0, (0..9).map(|t| Action::new(t, 0, t as u32)).collect()).unwrap();
        let ds = Dataset::new(schema.clone(), items, vec![seq]).unwrap();
        let cells = (0..3)
            .map(|s| {
                let mut probs = vec![0.02; 9];
                for (c, p) in probs.iter_mut().enumerate() {
                    if c / 3 == s {
                        *p = 0.88 / 3.0;
                    }
                }
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        let model = SkillModel::new(schema, 3, cells).unwrap();
        let table = EmissionTable::build(&model, &ds);
        let difficulty: Vec<f64> = (0..9)
            .map(|i| 1.0 + (i / 3) as f64 + 0.1 * (i % 3) as f64)
            .collect();
        let config = RecommendConfig {
            lower_slack: 2.5,
            upper_slack: 2.5,
            interest_weight: 0.3,
            ..RecommendConfig::default()
        };
        build_level_band(&table, &difficulty, level, &config).unwrap()
    }

    #[test]
    fn presets_validate_and_carry_their_mode() {
        for (cfg, mode) in [
            (PolicyConfig::teach(), PolicyMode::Teach),
            (PolicyConfig::motivate(), PolicyMode::Motivate),
            (PolicyConfig::hybrid(), PolicyMode::Hybrid),
        ] {
            cfg.validate().unwrap();
            assert_eq!(cfg.mode, mode);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = PolicyConfig::hybrid();
        c.w_aptitude = -0.1;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.w_aptitude = 0.0;
        c.w_expected = 0.0;
        c.w_gap = 0.0;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.ncc_window = 0;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.static_weight = 1.5;
        assert!(c.validate().is_err());
        let mut c = PolicyConfig::hybrid();
        c.mix.challenge = 0.9;
        c.mix.practice = 0.9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ncc_window_nudges_effective_level() {
        let cfg = PolicyConfig::hybrid();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        assert!((state.effective_level(2, &cfg) - 2.0).abs() < 1e-12);
        // A full window of successes at band 2 lifts the level.
        for item in 0..cfg.ncc_window as u32 {
            state.record(item, 2.0, true);
        }
        assert!((state.effective_level(2, &cfg) - 2.5).abs() < 1e-12);
        // A failure at band 2 resets the streak and pulls it down.
        state.record(99, 2.0, false);
        assert!((state.effective_level(2, &cfg) - 1.75).abs() < 1e-12);
        assert!(state.has_failed(99));
        // Retrying the item successfully clears the failed mark.
        state.record(99, 2.0, true);
        assert!(!state.has_failed(99));
        // Bounds clamp.
        assert!(state.effective_level(3, &cfg) <= 3.0);
        assert!(state.effective_level(1, &cfg) >= 1.0);
    }

    #[test]
    fn failure_resets_bands_at_and_above() {
        let cfg = PolicyConfig::hybrid();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        for item in 0..3u32 {
            state.record(item, 1.0, true);
            state.record(item + 10, 3.0, true);
        }
        assert!((state.effective_level(1, &cfg) - 1.5).abs() < 1e-12);
        assert!((state.effective_level(3, &cfg) - 3.0).abs() < 1e-12); // clamped
                                                                       // A failure at band 2 wipes bands 2 and 3, but not band 1.
        state.record(50, 2.0, false);
        assert!((state.effective_level(1, &cfg) - 1.5).abs() < 1e-12);
        assert!((state.effective_level(3, &cfg) - 3.0).abs() < 1e-12);
        // Band 3's streak is gone: one more success doesn't refill it.
        state.record(60, 3.0, true);
        let lvl = state.effective_level(3, &cfg);
        assert!((lvl - 3.0).abs() < 1e-12, "window must have been reset");
    }

    #[test]
    fn rerank_is_deterministic_and_bounded() {
        let band = band_fixture(2);
        let cfg = PolicyConfig::hybrid();
        let mut state = PolicyState::new(3, &cfg).unwrap();
        state.record(1, 2.0, true);
        state.record(2, 2.9, false);
        let a = rerank_band(&band, &state, 2, &|_| false, &cfg, 5).unwrap();
        let b = rerank_band(&band, &state, 2, &|_| false, &cfg, 5).unwrap();
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        assert!(!a.is_empty());
        for r in &a {
            assert!((0.0..=1.0 + 1e-12).contains(&r.policy_score));
            assert!((0.0..=1.0 + 1e-12).contains(&r.aptitude));
            assert!((0.0..=1.0 + 1e-12).contains(&r.expected));
            assert!((0.0..=1.0 + 1e-12).contains(&r.gap));
        }
        assert!(a.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn quotas_reserve_strata_when_available() {
        let band = band_fixture(2);
        let mut cfg = PolicyConfig::hybrid();
        cfg.mix = MixQuota {
            practice: 0.25,
            review: 0.25,
            challenge: 0.25,
        };
        let state = PolicyState::new(3, &PolicyConfig::hybrid()).unwrap();
        let recs = rerank_band(&band, &state, 2, &|_| false, &cfg, 8).unwrap();
        // The wide fixture band has items in every stratum, so each
        // reserved stratum must be represented.
        for stratum in [Stratum::Review, Stratum::Practice, Stratum::Challenge] {
            assert!(
                recs.iter().any(|r| r.stratum == stratum),
                "missing {stratum:?} in {recs:?}"
            );
        }
    }

    #[test]
    fn teach_mode_stretches_more_than_motivate() {
        let band = band_fixture(2);
        let state_t = PolicyState::new(3, &PolicyConfig::teach()).unwrap();
        let state_m = PolicyState::new(3, &PolicyConfig::motivate()).unwrap();
        let teach = rerank_band(&band, &state_t, 2, &|_| false, &PolicyConfig::teach(), 4).unwrap();
        let motivate =
            rerank_band(&band, &state_m, 2, &|_| false, &PolicyConfig::motivate(), 4).unwrap();
        let mean_d = |recs: &[PolicyRecommendation]| {
            recs.iter().map(|r| r.difficulty).sum::<f64>() / recs.len().max(1) as f64
        };
        assert!(
            mean_d(&teach) > mean_d(&motivate),
            "teach {:.3} vs motivate {:.3}",
            mean_d(&teach),
            mean_d(&motivate)
        );
    }

    #[test]
    fn exclusion_and_k_are_honored() {
        let band = band_fixture(2);
        let cfg = PolicyConfig::hybrid();
        let state = PolicyState::new(3, &cfg).unwrap();
        let recs = rerank_band(&band, &state, 2, &|i| i % 2 == 0, &cfg, 3).unwrap();
        assert!(recs.iter().all(|r| r.item % 2 == 1));
        assert!(recs.len() <= 3);
        assert!(rerank_band(&band, &state, 2, &|_| false, &cfg, 0).is_err());
    }

    #[test]
    fn repeated_failures_demote_an_overreaching_pick() {
        let band = band_fixture(2);
        let mut cfg = PolicyConfig::hybrid();
        cfg.w_aptitude = 0.6;
        cfg.w_expected = 0.3;
        cfg.w_gap = 0.0;
        cfg.static_weight = 0.0;
        let mut state = PolicyState::new(3, &cfg).unwrap();
        let fresh = rerank_band(&band, &state, 2, &|_| false, &cfg, 1).unwrap();
        // With no evidence, the aptitude weight reaches for the top of
        // the band.
        assert!(fresh[0].difficulty > 2.5, "{fresh:?}");
        // Drowning at that difficulty must pull the pick back down:
        // the success-rate weighting demotes the failed band.
        for _ in 0..6 {
            state.record(fresh[0].item, fresh[0].difficulty, false);
        }
        let after = rerank_band(&band, &state, 2, &|_| false, &cfg, 1).unwrap();
        assert!(
            after[0].difficulty < fresh[0].difficulty,
            "fresh {fresh:?} vs after {after:?}"
        );
    }

    #[test]
    fn gap_objective_prefers_recently_failed_difficulty() {
        let band = band_fixture(2);
        let mut cfg = PolicyConfig::hybrid();
        cfg.w_aptitude = 0.0;
        cfg.w_expected = 0.0;
        cfg.w_gap = 1.0;
        cfg.static_weight = 0.0;
        cfg.mix = MixQuota {
            practice: 0.0,
            review: 0.0,
            challenge: 0.0,
        };
        let mut state = PolicyState::new(3, &cfg).unwrap();
        state.record(7, 3.0, false);
        let recs = rerank_band(&band, &state, 2, &|_| false, &cfg, 3).unwrap();
        // Highest gap = closest to the failed difficulty 3.0.
        assert!((recs[0].difficulty - 3.0).abs() < 1e-9, "{recs:?}");
        assert!(recs[0].gap >= recs.last().unwrap().gap);
        assert!(recs
            .iter()
            .all(|r| (r.difficulty - 3.0).abs() <= (1.0_f64 - 3.0).abs()));
    }
}
