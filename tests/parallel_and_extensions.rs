//! Integration tests for the parallel training paths (§IV-C) and the
//! extension modules (probabilistic transitions, EM trainer).

use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::parallel::ParallelConfig;
use upskill_core::train::{train, train_with_parallelism, TrainConfig};
use upskill_core::transition::{
    assign_sequence_with_transitions, fit_transitions, TransitionModel,
};
use upskill_datasets::synthetic::{generate, SyntheticConfig};
use upskill_eval::pearson;

fn data(seed: u64) -> upskill_datasets::synthetic::SyntheticData {
    generate(&SyntheticConfig {
        n_users: 80,
        n_items: 300,
        n_levels: 4,
        mean_sequence_len: 30.0,
        p_at_level: 0.5,
        p_advance: 0.1,
        n_categories: 8,
        seed,
    })
    .expect("generation")
}

#[test]
fn every_parallel_configuration_matches_sequential_training() {
    let data = data(3);
    let cfg = TrainConfig::new(4).with_min_init_actions(25);
    let sequential = train(&data.dataset, &cfg).expect("sequential");
    for (users, features, skills) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, true),
    ] {
        let pc = ParallelConfig::sequential()
            .with_users(users)
            .with_skills(skills)
            .with_features(features)
            .with_threads(4);
        let parallel = train_with_parallelism(&data.dataset, &cfg, &pc).expect("parallel");
        assert_eq!(
            sequential.assignments, parallel.assignments,
            "assignments diverged for users={users} features={features} skills={skills}"
        );
        assert!(
            (sequential.log_likelihood - parallel.log_likelihood).abs() < 1e-6,
            "objective diverged for users={users} features={features} skills={skills}"
        );
    }
}

#[test]
fn transition_extension_regularizes_level_churn() {
    let data = data(5);
    let cfg = TrainConfig::new(4).with_min_init_actions(25);
    let base = train(&data.dataset, &cfg).expect("training");

    // Fit transitions from the hard assignments.
    let transitions = fit_transitions(&base.assignments, 4, 0.5).expect("transitions");
    assert_eq!(transitions.n_levels(), 4);
    assert!(transitions
        .stay_probs()
        .iter()
        .all(|&p| (0.0..=1.0).contains(&p)));
    assert!((transitions.init_probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // Extremely sticky transitions force fewer advances than the base DP.
    let sticky = TransitionModel::new(vec![0.99999; 4], vec![0.25; 4]).expect("model");
    let mut base_advances = 0usize;
    let mut sticky_advances = 0usize;
    for (idx, seq) in data.dataset.sequences().iter().enumerate().take(20) {
        base_advances += base.assignments.per_user[idx]
            .windows(2)
            .filter(|w| w[1] > w[0])
            .count();
        let a = assign_sequence_with_transitions(&base.model, &sticky, &data.dataset, seq)
            .expect("assignment");
        sticky_advances += a.levels.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(a.levels.windows(2).all(|w| w[0] <= w[1]));
    }
    assert!(
        sticky_advances <= base_advances,
        "sticky transitions should not advance more ({sticky_advances} vs {base_advances})"
    );
}

#[test]
fn em_trainer_recovers_comparable_skill_structure() {
    let data = data(7);
    let cfg = TrainConfig::new(4).with_min_init_actions(25);
    let hard = train(&data.dataset, &cfg).expect("hard training");

    let initial =
        upskill_core::init::initialize_model(&data.dataset, 4, 25, 0.01).expect("initialization");
    let transitions = TransitionModel::uninformative(4).expect("transitions");
    let em_cfg = EmConfig::new(initial, transitions)
        .with_max_iterations(15)
        .with_tolerance(1e-8);
    let soft = train_em_with_parallelism(&data.dataset, &em_cfg, &ParallelConfig::sequential())
        .expect("EM training");
    assert!(!soft.evidence_trace.is_empty());

    // Viterbi decoding of the EM model should correlate with the truth
    // nearly as well as the hard-assignment model.
    let truth = data.flat_true_skills();
    let hard_pred: Vec<f64> = hard
        .assignments
        .per_user
        .iter()
        .flat_map(|s| s.iter().map(|&x| x as f64))
        .collect();
    let (soft_assignments, _) = upskill_core::parallel::assign_all_parallel(
        &soft.model,
        &data.dataset,
        &upskill_core::parallel::ParallelConfig::sequential(),
    )
    .expect("decode");
    let soft_pred: Vec<f64> = soft_assignments
        .per_user
        .iter()
        .flat_map(|s| s.iter().map(|&x| x as f64))
        .collect();
    let r_hard = pearson(&hard_pred, &truth).expect("r");
    let r_soft = pearson(&soft_pred, &truth).expect("r");
    assert!(
        r_soft > r_hard - 0.15,
        "EM recovery {r_soft:.3} should be comparable to hard {r_hard:.3}"
    );
}

#[test]
fn thread_oversubscription_is_safe() {
    let data = data(9);
    let cfg = TrainConfig::new(4).with_min_init_actions(25);
    let pc = ParallelConfig::all(32);
    let result = train_with_parallelism(&data.dataset, &cfg, &pc).expect("training");
    assert!(result.assignments.is_monotone());
}
