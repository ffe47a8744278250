//! Property-based tests (proptest) on the core invariants:
//! - the DP assignment equals brute-force search and is always monotone;
//! - distribution MLEs maximize likelihood and normalize;
//! - difficulty estimates stay on the `[1, S]` scale;
//! - metric implementations agree with reference versions.

use proptest::prelude::*;
use upskill_core::assign::{assign_sequence, assign_sequence_bruteforce};
use upskill_core::difficulty::{generation_difficulty_with_prior, SkillPrior};
use upskill_core::dist::{Categorical, FeatureDistribution, Gamma, Poisson};
use upskill_core::feature::{FeatureKind, FeatureSchema, FeatureValue};
use upskill_core::model::SkillModel;
use upskill_core::types::{Action, ActionSequence, Dataset};
use upskill_core::update::fit_model;
use upskill_core::SkillAssignments;
use upskill_eval::correlation::{kendall_tau, kendall_tau_naive, pearson, spearman};

/// Builds a random-ish S-level model over one categorical feature with
/// probabilities derived from the given weights.
fn model_from_weights(weights: &[Vec<f64>]) -> SkillModel {
    let n_levels = weights.len();
    let cardinality = weights[0].len() as u32;
    let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality }]).unwrap();
    let cells = weights
        .iter()
        .map(|w| {
            let total: f64 = w.iter().sum();
            let probs: Vec<f64> = w.iter().map(|x| x / total).collect();
            vec![FeatureDistribution::Categorical(
                Categorical::from_probs(probs).unwrap(),
            )]
        })
        .collect();
    SkillModel::new(schema, n_levels, cells).unwrap()
}

fn dataset_from_items(cardinality: u32, item_cats: &[u32]) -> (Dataset, ActionSequence) {
    let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality }]).unwrap();
    let items: Vec<Vec<FeatureValue>> = (0..cardinality)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dp_equals_bruteforce_and_is_monotone(
        weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..5.0, 4), 2..4),
        cats in proptest::collection::vec(0u32..4, 1..9),
    ) {
        let model = model_from_weights(&weights);
        let (ds, seq) = dataset_from_items(4, &cats);
        let dp = assign_sequence(&model, &ds, &seq).unwrap();
        let bf = assign_sequence_bruteforce(&model, &ds, &seq).unwrap();
        prop_assert!((dp.log_likelihood - bf.log_likelihood).abs() < 1e-9);
        prop_assert!(dp.levels.windows(2).all(|w| w[0] <= w[1] && w[1] - w[0] <= 1));
        prop_assert!(dp.levels.iter().all(|&s| 1 <= s && s as usize <= weights.len()));
    }

    #[test]
    fn categorical_mle_maximizes_likelihood(
        counts in proptest::collection::vec(0u64..30, 2..8),
        perturb_idx in 0usize..8,
        delta in 0.001f64..0.2,
    ) {
        prop_assume!(counts.iter().sum::<u64>() > 0);
        let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let fitted = Categorical::fit_from_counts(&weights, 0.0).unwrap();
        let ll = |p: &[f64]| -> f64 {
            counts
                .iter()
                .zip(p)
                .map(|(&c, &p)| if c == 0 { 0.0 } else { c as f64 * p.ln() })
                .sum()
        };
        let base = ll(fitted.probs());
        // Move mass between two categories; likelihood must not improve.
        let i = perturb_idx % counts.len();
        let j = (perturb_idx + 1) % counts.len();
        let mut perturbed = fitted.probs().to_vec();
        let d = delta.min(perturbed[i]);
        perturbed[i] -= d;
        perturbed[j] += d;
        prop_assert!(base >= ll(&perturbed) - 1e-9);
    }

    #[test]
    fn poisson_mle_maximizes_likelihood(
        samples in proptest::collection::vec(0u64..40, 1..30),
        factor in 0.5f64..2.0,
    ) {
        prop_assume!(samples.iter().sum::<u64>() > 0);
        let fitted = Poisson::fit(&samples).unwrap();
        prop_assume!((factor - 1.0).abs() > 0.01);
        let other = Poisson::new(fitted.rate() * factor).unwrap();
        let ll = |p: &Poisson| samples.iter().map(|&k| p.log_pmf(k)).sum::<f64>();
        prop_assert!(ll(&fitted) >= ll(&other) - 1e-9);
    }

    #[test]
    fn gamma_mle_beats_scaled_alternatives(
        raw in proptest::collection::vec(0.1f64..20.0, 5..40),
        shape_factor in 0.5f64..2.0,
    ) {
        let fitted = Gamma::fit(&raw).unwrap();
        prop_assume!((shape_factor - 1.0).abs() > 0.05);
        prop_assume!(fitted.shape() * shape_factor > 1e-3);
        prop_assume!(fitted.shape() < 1e5); // skip near-degenerate fits
        let alt = Gamma::new(fitted.shape() * shape_factor, fitted.scale()).unwrap();
        let ll = |g: &Gamma| raw.iter().map(|&x| g.log_pdf(x)).sum::<f64>();
        prop_assert!(ll(&fitted) >= ll(&alt) - 1e-6);
    }

    #[test]
    fn posterior_is_normalized_and_difficulty_bounded(
        weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..5.0, 3), 2..6),
        cat in 0u32..3,
        prior_raw in proptest::collection::vec(0.05f64..1.0, 2..6),
    ) {
        prop_assume!(prior_raw.len() == weights.len());
        let model = model_from_weights(&weights);
        let total: f64 = prior_raw.iter().sum();
        let prior: Vec<f64> = prior_raw.iter().map(|p| p / total).collect();
        let features = vec![FeatureValue::Categorical(cat)];
        let posterior = model.skill_posterior(&features, &prior).unwrap();
        prop_assert!((posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(posterior.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        let d = generation_difficulty_with_prior(&model, &features, &prior).unwrap();
        prop_assert!(d >= 1.0 - 1e-9 && d <= weights.len() as f64 + 1e-9);
    }

    #[test]
    fn refit_parameters_never_lower_objective(
        pairs in proptest::collection::vec((0u32..3, 0u8..3), 4..20),
    ) {
        let cats: Vec<u32> = pairs.iter().map(|&(c, _)| c).collect();
        let levels_raw: Vec<u8> = pairs.iter().map(|&(_, l)| l).collect();
        // Make levels monotone by taking a running max.
        let mut levels = Vec::with_capacity(levels_raw.len());
        let mut current = 1u8;
        for &l in &levels_raw {
            current = current.max(l + 1);
            levels.push(current.min(3));
        }
        let (ds, _) = dataset_from_items(3, &cats);
        let assignments = SkillAssignments { per_user: vec![levels] };
        let heavy = fit_model(&ds, &assignments, 3, 5.0).unwrap();
        let exact = fit_model(&ds, &assignments, 3, 0.0).unwrap();
        let ll = |m: &SkillModel| {
            upskill_core::update::log_likelihood(&ds, &assignments, m).unwrap()
        };
        prop_assert!(ll(&exact) >= ll(&heavy) - 1e-9);
    }

    #[test]
    fn kendall_fast_equals_naive(
        pairs in proptest::collection::vec((0i32..6, 0i32..6), 3..40),
    ) {
        let x: Vec<f64> = pairs.iter().map(|&(a, _)| a as f64).collect();
        let y: Vec<f64> = pairs.iter().map(|&(_, b)| b as f64).collect();
        match (kendall_tau(&x, &y), kendall_tau_naive(&x, &y)) {
            (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn correlations_bounded_and_scale_invariant(
        pairs in proptest::collection::vec((-100i32..100, -100i32..100), 4..40),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let x: Vec<f64> = pairs.iter().map(|&(a, _)| a as f64).collect();
        let y: Vec<f64> = pairs.iter().map(|&(_, b)| b as f64).collect();
        if let Ok(r) = pearson(&x, &y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            // Positive affine transform of x leaves r unchanged.
            let xt: Vec<f64> = x.iter().map(|&v| v * scale + shift).collect();
            let rt = pearson(&xt, &y).unwrap();
            prop_assert!((r - rt).abs() < 1e-9);
        }
        if let Ok(rho) = spearman(&x, &y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho));
        }
    }

    #[test]
    fn sequence_construction_sorts_and_validates(
        times in proptest::collection::vec(-1000i64..1000, 1..30),
    ) {
        let actions: Vec<Action> =
            times.iter().map(|&t| Action::new(t, 3, 0)).collect();
        let seq = ActionSequence::from_unsorted(3, actions).unwrap();
        prop_assert!(seq.actions().windows(2).all(|w| w[0].time <= w[1].time));
        prop_assert_eq!(seq.len(), times.len());
    }

    #[test]
    fn empirical_prior_difficulty_interpolates_priors(
        weights in proptest::collection::vec(
            proptest::collection::vec(0.05f64..5.0, 3), 3..5),
        cat in 0u32..3,
    ) {
        // Difficulty under a point-mass-ish prior at level 1 must be lower
        // than under a point-mass-ish prior at level S.
        let model = model_from_weights(&weights);
        let s = weights.len();
        let features = vec![FeatureValue::Categorical(cat)];
        let mut low = vec![0.01 / (s - 1) as f64; s];
        low[0] = 0.99;
        let mut high = vec![0.01 / (s - 1) as f64; s];
        high[s - 1] = 0.99;
        let d_low = generation_difficulty_with_prior(&model, &features, &low).unwrap();
        let d_high = generation_difficulty_with_prior(&model, &features, &high).unwrap();
        prop_assert!(d_low <= d_high + 1e-9);
    }
}

#[test]
fn skill_prior_enum_is_exported() {
    // Compile-time check that the public difficulty API surface exists.
    let _ = SkillPrior::Uniform;
    let _ = SkillPrior::Empirical;
}
