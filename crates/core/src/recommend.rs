//! Recommendation for upskilling — the system the paper motivates (Fig. 1)
//! and sketches as future work (§VII): combine the learned skill level of a
//! target user with item difficulty estimates to surface items that are
//! *moderately challenging* — difficult enough to stretch the user, easy
//! enough to complete — and that still match the user's interests.
//!
//! Scoring combines two signals:
//!
//! - **difficulty fit** — a triangular kernel centred slightly above the
//!   user's current level (`target_offset`, e.g. +0.3), zero outside
//!   `[level − lower_slack, level + upper_slack]`;
//! - **interest** — the generative likelihood `P(i | s)` of the item at
//!   the user's level, normalized per candidate set; items a user at this
//!   level plausibly selects rank higher.
//!
//! `interest_weight` blends the two (0 = difficulty only, 1 = interest
//! only).

use serde::{Deserialize, Serialize};

use crate::emission::EmissionTable;
use crate::error::{CoreError, Result};
use crate::model::SkillModel;
use crate::types::{Dataset, ItemId, SkillLevel};

/// Tuning for the upskilling recommender.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecommendConfig {
    /// How far above the current level the ideal item sits (e.g. 0.3).
    pub target_offset: f64,
    /// Maximum difficulty *below* the current level still considered.
    pub lower_slack: f64,
    /// Maximum difficulty *above* the current level still considered.
    pub upper_slack: f64,
    /// Blend between difficulty fit (0.0) and interest (1.0).
    pub interest_weight: f64,
    /// Number of items to return.
    pub k: usize,
}

impl Default for RecommendConfig {
    fn default() -> Self {
        Self {
            target_offset: 0.3,
            lower_slack: 0.2,
            upper_slack: 0.8,
            interest_weight: 0.3,
            k: 10,
        }
    }
}

impl RecommendConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.interest_weight) {
            return Err(CoreError::InvalidProbability {
                context: "interest weight",
                value: self.interest_weight,
            });
        }
        if self.lower_slack < 0.0 || self.upper_slack <= 0.0 {
            return Err(CoreError::InvalidProbability {
                context: "difficulty slack",
                value: self.lower_slack.min(self.upper_slack),
            });
        }
        if self.k == 0 {
            return Err(CoreError::InvalidSkillCount { requested: 0 });
        }
        Ok(())
    }
}

/// One recommended item with its score decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended item.
    pub item: ItemId,
    /// Its estimated difficulty.
    pub difficulty: f64,
    /// Difficulty-fit component in `[0, 1]`.
    pub difficulty_fit: f64,
    /// Interest component in `[0, 1]` (normalized within the candidate set).
    pub interest: f64,
    /// Final blended score.
    pub score: f64,
}

/// Recommends items for upskilling a user at `level`.
///
/// `difficulty[i]` is the estimated difficulty of item `i` (use
/// [`crate::difficulty::generation_difficulty_all`]); `exclude` marks items
/// the user already consumed. Returns at most `config.k` items sorted by
/// descending score; may return fewer if the difficulty band is sparse.
/// A `level` outside `1..=S` is an [`CoreError::InvalidSkillCount`].
pub fn recommend_for_level(
    model: &SkillModel,
    dataset: &Dataset,
    difficulty: &[f64],
    level: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &RecommendConfig,
) -> Result<Vec<Recommendation>> {
    check_level(level, model.n_levels())?;
    if difficulty.len() != dataset.n_items() {
        return Err(CoreError::LengthMismatch {
            context: "difficulty vector vs items",
            left: difficulty.len(),
            right: dataset.n_items(),
        });
    }
    recommend_with_interest(difficulty, level, exclude, config, &|item| {
        model.item_log_likelihood(dataset.item_features(item), level)
    })
}

/// [`recommend_for_level`] with the interest signal read from a precomputed
/// [`EmissionTable`] row instead of fresh distribution evaluations —
/// identical output for a table built from the same model and dataset,
/// and the same error for a `level` outside `1..=S`.
pub fn recommend_for_level_with_table(
    table: &EmissionTable,
    difficulty: &[f64],
    level: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &RecommendConfig,
) -> Result<Vec<Recommendation>> {
    check_level(level, table.n_levels())?;
    if difficulty.len() != table.n_items() {
        return Err(CoreError::LengthMismatch {
            context: "difficulty vector vs items",
            left: difficulty.len(),
            right: table.n_items(),
        });
    }
    recommend_with_interest(difficulty, level, exclude, config, &|item| {
        table.log_likelihood(item, level)
    })
}

/// Rejects a `level` outside `1..=n_levels`: its band would be empty.
fn check_level(level: SkillLevel, n_levels: usize) -> Result<()> {
    if level == 0 || level as usize > n_levels {
        return Err(CoreError::InvalidSkillCount {
            requested: level as usize,
        });
    }
    Ok(())
}

/// One band candidate: `(item, difficulty, fit, log P(item | level))`.
type Candidate = (ItemId, f64, f64, f64);

/// A precomputed recommendation band for one skill level: every item
/// whose difficulty falls inside the level's slack window, with its
/// difficulty-fit kernel value and interest log-likelihood already
/// evaluated, plus a fully ranked no-exclusion scoring of those
/// candidates. One band serves every user at this level; exclusion
/// filtering is deferred to [`recommend_from_band`].
///
/// Band membership, difficulty fit, and interest weighting are all
/// fixed by the *build-time* config; only `k` varies per query.
///
/// **Exactness.** An excluded item never influences the surviving
/// candidates' `(fit, log P)` values, and the interest normalizer —
/// the survivors' maximum log-likelihood — equals the band-wide
/// maximum whenever no maximum-achieving item is excluded. In that
/// (typical) case the prebuilt ranking restricted to the survivors IS
/// the full recomputation, so a query just walks it; when a
/// max-achiever is excluded, the query falls back to rescoring the
/// raw candidates with the survivors' own maximum. Either way the
/// output is bitwise identical to the corresponding full scan.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelBand {
    level: SkillLevel,
    config: RecommendConfig,
    candidates: Vec<Candidate>,
    /// All candidates scored with no exclusion, fully sorted.
    ranked: Vec<Recommendation>,
    /// Candidates whose interest log-likelihood attains the band
    /// maximum (the normalization anchors).
    max_items: Vec<ItemId>,
}

impl LevelBand {
    /// The skill level this band was built for.
    pub fn level(&self) -> SkillLevel {
        self.level
    }

    /// Number of in-band candidate items (before any exclusion).
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the difficulty band contains no items at all.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The configuration the band was built (and is scored) with.
    pub fn config(&self) -> &RecommendConfig {
        &self.config
    }

    /// The full no-exclusion ranking of the band's candidates, best
    /// first — the list [`recommend_from_band`] walks on the fast path
    /// and the adaptive policy layer ([`crate::policy`]) re-scores.
    pub fn ranked(&self) -> &[Recommendation] {
        &self.ranked
    }

    /// The interest-normalization anchors: every candidate whose
    /// interest log-likelihood attains the band maximum. Excluding any
    /// of these forces [`recommend_from_band`] onto its rescore
    /// fallback (exposed so tests can drive that path explicitly).
    pub fn max_interest_items(&self) -> &[ItemId] {
        &self.max_items
    }
}

/// Builds the [`LevelBand`] for `level` from a precomputed
/// [`EmissionTable`] — one full scan-and-rank over the items,
/// amortized across every subsequent [`recommend_from_band`] query
/// against it. A `level` outside `1..=S` is an
/// [`CoreError::InvalidSkillCount`].
pub fn build_level_band(
    table: &EmissionTable,
    difficulty: &[f64],
    level: SkillLevel,
    config: &RecommendConfig,
) -> Result<LevelBand> {
    check_level(level, table.n_levels())?;
    if difficulty.len() != table.n_items() {
        return Err(CoreError::LengthMismatch {
            context: "difficulty vector vs items",
            left: difficulty.len(),
            right: table.n_items(),
        });
    }
    config.validate()?;
    let candidates = scan_band(difficulty, level, &|_| false, config, &|item| {
        table.log_likelihood(item, level)
    });
    // Rank everything (k = candidate count makes truncation a no-op).
    let rank_config = RecommendConfig {
        k: candidates.len().max(1),
        ..*config
    };
    let ranked = score_candidates(&candidates, &|_| false, &rank_config);
    let mut max_ll = f64::NEG_INFINITY;
    for &(_, _, _, ll) in &candidates {
        if ll > max_ll {
            max_ll = ll;
        }
    }
    // `ll >= max_ll` is value-equality with the maximum without a
    // literal float `==`.
    let max_items: Vec<ItemId> = candidates
        .iter()
        .filter(|&&(_, _, _, ll)| ll >= max_ll)
        .map(|&(item, _, _, _)| item)
        .collect();
    Ok(LevelBand {
        level,
        config: *config,
        candidates,
        ranked,
        max_items,
    })
}

/// Recommends the top `k` non-excluded items from a prebuilt
/// [`LevelBand`] — output-identical to
/// [`recommend_for_level_with_table`] at the band's level with the
/// band's config (`k` overridden). Typically `O(k + excluded)`: the
/// prebuilt ranking is walked directly unless an interest-normalization
/// anchor is excluded (see [`LevelBand`]), which forces a rescore of
/// the raw candidates.
pub fn recommend_from_band(
    band: &LevelBand,
    exclude: &dyn Fn(ItemId) -> bool,
    k: usize,
) -> Result<Vec<Recommendation>> {
    let config = RecommendConfig { k, ..band.config };
    config.validate()?;
    if band.max_items.iter().any(|&item| exclude(item)) {
        // The survivors' interest maximum may shift: rescore.
        return Ok(score_candidates(&band.candidates, exclude, &config));
    }
    let mut out = Vec::with_capacity(k.min(band.ranked.len()));
    for r in &band.ranked {
        if out.len() == k {
            break;
        }
        if exclude(r.item) {
            continue;
        }
        out.push(r.clone());
    }
    Ok(out)
}

/// Shared scoring core; `interest_ll(item)` supplies `log P(item | level)`.
fn recommend_with_interest(
    difficulty: &[f64],
    level: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &RecommendConfig,
    interest_ll: &dyn Fn(ItemId) -> f64,
) -> Result<Vec<Recommendation>> {
    config.validate()?;
    // Exclusion applied during the scan (so `interest_ll` is never
    // evaluated for excluded items); the score pass then sees only
    // survivors and its own filter is a no-op.
    let candidates = scan_band(difficulty, level, exclude, config, interest_ll);
    Ok(score_candidates(&candidates, &|_| false, config))
}

/// Pass 1: collects candidates in the difficulty band with their fit
/// kernel values and raw interest log-likelihoods.
fn scan_band(
    difficulty: &[f64],
    level: SkillLevel,
    exclude: &dyn Fn(ItemId) -> bool,
    config: &RecommendConfig,
    interest_ll: &dyn Fn(ItemId) -> f64,
) -> Vec<Candidate> {
    let s = level as f64;
    let target = s + config.target_offset;
    let lo = s - config.lower_slack;
    let hi = s + config.upper_slack;
    // Kernel half-widths (distance from target to each band edge).
    let left_width = (target - lo).max(1e-9);
    let right_width = (hi - target).max(1e-9);

    let mut candidates: Vec<Candidate> = Vec::new();
    for (i, &d) in difficulty.iter().enumerate() {
        let item = i as ItemId;
        if exclude(item) || d < lo || d > hi {
            continue;
        }
        let fit = if d <= target {
            1.0 - (target - d) / left_width
        } else {
            1.0 - (d - target) / right_width
        };
        candidates.push((item, d, fit.clamp(0.0, 1.0), interest_ll(item)));
    }
    candidates
}

/// Total order on recommendations: score descending, then item id
/// ascending (scores are always finite, so `partial_cmp` never ties
/// distinct scores).
fn rec_order(a: &Recommendation, b: &Recommendation) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.item.cmp(&b.item))
}

/// Pass 2: filters, normalizes interest by the surviving candidates'
/// maximum log-likelihood (softmax-free but monotone; `exp(ll − max)`
/// keeps it in `(0, 1]`), blends, selects the top `k`, sorts them.
///
/// When more than `k` candidates survive, an `O(n)` partial selection
/// runs before the sort; because [`rec_order`] is a total order the
/// selected-then-sorted prefix is identical to sorting everything and
/// truncating.
fn score_candidates(
    candidates: &[Candidate],
    exclude: &dyn Fn(ItemId) -> bool,
    config: &RecommendConfig,
) -> Vec<Recommendation> {
    let mut max_ll = f64::NEG_INFINITY;
    let mut n_survivors = 0usize;
    for &(item, _, _, ll) in candidates {
        if exclude(item) {
            continue;
        }
        n_survivors += 1;
        if ll > max_ll {
            max_ll = ll;
        }
    }
    let w = config.interest_weight;
    let mut recs: Vec<Recommendation> = Vec::with_capacity(n_survivors);
    for &(item, difficulty, fit, ll) in candidates {
        if exclude(item) {
            continue;
        }
        let interest = if max_ll.is_finite() {
            (ll - max_ll).exp()
        } else {
            0.0
        };
        recs.push(Recommendation {
            item,
            difficulty,
            difficulty_fit: fit,
            interest,
            score: (1.0 - w) * fit + w * interest,
        });
    }
    if config.k > 0 && recs.len() > config.k {
        recs.select_nth_unstable_by(config.k - 1, rec_order);
        recs.truncate(config.k);
    }
    recs.sort_by(rec_order);
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Categorical, FeatureDistribution};
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::types::{Action, ActionSequence};

    /// Three items with difficulties 1.0 / 2.1 / 2.9, model with 3 levels.
    fn setup() -> (SkillModel, Dataset, Vec<f64>) {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 3 }]).unwrap();
        let items: Vec<Vec<FeatureValue>> = (0..3u32)
            .map(|c| vec![FeatureValue::Categorical(c)])
            .collect();
        let seq = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 1),
                Action::new(2, 0, 2),
            ],
        )
        .unwrap();
        let ds = Dataset::new(schema.clone(), items, vec![seq]).unwrap();
        let cells = (0..3)
            .map(|s| {
                let mut probs = vec![0.05; 3];
                probs[s] = 0.9;
                vec![FeatureDistribution::Categorical(
                    Categorical::from_probs(probs).unwrap(),
                )]
            })
            .collect();
        let model = SkillModel::new(schema, 3, cells).unwrap();
        (model, ds, vec![1.0, 2.1, 2.9])
    }

    #[test]
    fn config_validation() {
        assert!(RecommendConfig::default().validate().is_ok());
        assert!(RecommendConfig {
            interest_weight: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RecommendConfig {
            upper_slack: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RecommendConfig {
            k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn recommends_moderately_challenging_items() {
        let (model, ds, difficulty) = setup();
        let config = RecommendConfig {
            target_offset: 0.3,
            lower_slack: 0.2,
            upper_slack: 1.0,
            interest_weight: 0.0,
            k: 10,
        };
        // A level-2 user: item 1 (d=2.1) is the near-perfect fit; item 2
        // (d=2.9) is within slack; item 0 (d=1.0) is out of band.
        let recs = recommend_for_level(&model, &ds, &difficulty, 2, &|_| false, &config).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].item, 1);
        assert!(recs[0].difficulty_fit > recs[1].difficulty_fit);
        assert!(recs.iter().all(|r| r.difficulty >= 1.8));
    }

    #[test]
    fn exclusion_removes_consumed_items() {
        let (model, ds, difficulty) = setup();
        let config = RecommendConfig {
            interest_weight: 0.0,
            upper_slack: 1.0,
            ..Default::default()
        };
        let recs = recommend_for_level(&model, &ds, &difficulty, 2, &|i| i == 1, &config).unwrap();
        assert!(recs.iter().all(|r| r.item != 1));
    }

    #[test]
    fn interest_weight_changes_ranking() {
        let (model, ds, difficulty) = setup();
        // Level-3 user: items 1 (d=2.1, within lower slack?) and 2 (d=2.9).
        let base = RecommendConfig {
            target_offset: 0.0,
            lower_slack: 1.0,
            upper_slack: 1.0,
            interest_weight: 0.0,
            k: 10,
        };
        let by_difficulty =
            recommend_for_level(&model, &ds, &difficulty, 3, &|_| false, &base).unwrap();
        let by_interest = recommend_for_level(
            &model,
            &ds,
            &difficulty,
            3,
            &|_| false,
            &RecommendConfig {
                interest_weight: 1.0,
                ..base
            },
        )
        .unwrap();
        // With pure interest, item 2 (category 2, most likely at level 3)
        // must rank first.
        assert_eq!(by_interest[0].item, 2);
        // With pure difficulty fit and target at exactly 3.0, item 2
        // (d=2.9) is also closest — so instead check the scores differ.
        assert!(by_difficulty
            .iter()
            .zip(&by_interest)
            .any(|(a, b)| (a.score - b.score).abs() > 1e-9 || a.item != b.item));
    }

    #[test]
    fn empty_band_returns_empty() {
        let (model, ds, difficulty) = setup();
        let config = RecommendConfig {
            target_offset: 0.1,
            lower_slack: 0.05,
            upper_slack: 0.15,
            interest_weight: 0.0,
            k: 5,
        };
        // Level 1 with a razor-thin band around 1.1: no item qualifies
        // (item 0 has d=1.0 < lo=0.95? no: lo = 1-0.05=0.95, hi=1.15, so
        // item 0 qualifies). Use level 3 instead: band [2.95, 3.15] — empty.
        let recs = recommend_for_level(&model, &ds, &difficulty, 3, &|_| false, &config).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn table_backed_recommendations_match_direct() {
        let (model, ds, difficulty) = setup();
        let table = EmissionTable::build(&model, &ds);
        let config = RecommendConfig {
            interest_weight: 0.5,
            lower_slack: 2.0,
            upper_slack: 2.0,
            ..Default::default()
        };
        for level in 1..=3u8 {
            let direct =
                recommend_for_level(&model, &ds, &difficulty, level, &|_| false, &config).unwrap();
            let tabled =
                recommend_for_level_with_table(&table, &difficulty, level, &|_| false, &config)
                    .unwrap();
            assert_eq!(direct, tabled);
        }
        assert!(recommend_for_level_with_table(
            &table,
            &[1.0],
            1,
            &|_| false,
            &RecommendConfig::default()
        )
        .is_err());
    }

    #[test]
    fn band_queries_match_full_scans_under_exclusion() {
        let (model, ds, difficulty) = setup();
        let table = EmissionTable::build(&model, &ds);
        let config = RecommendConfig {
            interest_weight: 0.5,
            lower_slack: 2.0,
            upper_slack: 2.0,
            ..Default::default()
        };
        for level in 1..=3u8 {
            let band = build_level_band(&table, &difficulty, level, &config).unwrap();
            assert_eq!(band.level(), level);
            // No exclusion; excluding the likely top-interest item
            // (shifting the normalization anchor); excluding another.
            for excluded in [None, Some(2u32), Some(0u32)] {
                let ex = move |i: ItemId| excluded == Some(i);
                let direct =
                    recommend_for_level_with_table(&table, &difficulty, level, &ex, &config)
                        .unwrap();
                let banded = recommend_from_band(&band, &ex, config.k).unwrap();
                assert_eq!(direct, banded);
            }
        }
        // `k` is honored at query time, not fixed at build time.
        let band = build_level_band(&table, &difficulty, 2, &config).unwrap();
        assert!(!band.is_empty());
        assert!(band.len() >= 2);
        assert_eq!(band.config(), &config);
        let one = recommend_from_band(&band, &|_| false, 1).unwrap();
        assert_eq!(one.len(), 1);
        assert!(recommend_from_band(&band, &|_| false, 0).is_err());
        // Mismatched difficulty length is rejected at build.
        assert!(build_level_band(&table, &[1.0], 1, &config).is_err());
    }

    #[test]
    fn difficulty_vector_length_checked() {
        let (model, ds, _) = setup();
        let err = recommend_for_level(
            &model,
            &ds,
            &[1.0],
            1,
            &|_| false,
            &RecommendConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { .. }));
    }

    #[test]
    fn out_of_range_levels_are_rejected() {
        let (model, ds, difficulty) = setup();
        let table = EmissionTable::build(&model, &ds);
        let config = RecommendConfig::default();
        for level in [0, model.n_levels() as SkillLevel + 1] {
            let want = CoreError::InvalidSkillCount {
                requested: level as usize,
            };
            let direct = recommend_for_level(&model, &ds, &difficulty, level, &|_| false, &config);
            assert_eq!(direct.unwrap_err(), want, "level {level}");
            let tabled =
                recommend_for_level_with_table(&table, &difficulty, level, &|_| false, &config);
            assert_eq!(tabled.unwrap_err(), want, "level {level}");
            let band = build_level_band(&table, &difficulty, level, &config);
            assert_eq!(band.unwrap_err(), want, "level {level}");
        }
    }

    #[test]
    fn scores_are_bounded_and_sorted() {
        let (model, ds, difficulty) = setup();
        let config = RecommendConfig {
            interest_weight: 0.5,
            lower_slack: 2.0,
            upper_slack: 2.0,
            ..Default::default()
        };
        let recs = recommend_for_level(&model, &ds, &difficulty, 2, &|_| false, &config).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| (0.0..=1.0 + 1e-12).contains(&r.score)));
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
    }
}
