//! Absolute pins of the hard and EM trainers' output.
//!
//! Every other hard-training cross-check compares two routes through the
//! same chunked pass (thread counts, chunk sizes, storage modes), so this
//! is the one test that catches a change moving *all* of them at once.
//! The numbers were recorded from the trainer before its in-memory loop
//! was folded into the chunked pass. The setup is the dataset of
//! `upskill generate --domain synthetic --scale quick --seed 7`, trained
//! with `--levels 5 --min-init 20`. The EM pin was re-recorded when the
//! EM loop became the chunk pass folding a responsibility-mass grid: the
//! iteration count and first evidence held, and the last evidence became
//! the from-scratch `reference::train_em_full`'s. It was re-recorded again
//! when the EM M-step moved onto the hard fits' accumulator, whose
//! categorical fit does not renormalize: the iteration count and first
//! evidence held, and the last evidence moved by one ulp.

use upskill_core::em::{train_em_with_parallelism, EmConfig};
use upskill_core::init::initialize_model;
use upskill_core::parallel::ParallelConfig;
use upskill_core::train::{train_with_parallelism, TrainConfig};
use upskill_core::transition::TransitionModel;
use upskill_datasets::synthetic::{generate, SyntheticConfig};

/// FNV-1a: a stable digest of a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_seed7_hard_training_is_pinned() {
    let data = generate(&SyntheticConfig::scaled(50, false, 7)).expect("generate");
    let cfg = TrainConfig::new(5).with_min_init_actions(20);
    let lls: [u64; 7] = [
        0xc103b8386f5d5972,
        0xc102ece148c42d3c,
        0xc102cdd4a4a127d0,
        0xc102c6e9e0ca56cb,
        0xc102c3e481c024dd,
        0xc102c1ea37c20e3e,
        0xc102c1a29c54ea20,
    ];
    // Actions whose level moved, per iteration (none to diff on the first).
    let churn = [usize::MAX, 864, 206, 93, 59, 14, 0];
    // (iteration cap, trace length, converged, model digest, assignment
    // digest); the capped run ends with its closing assignment pass.
    let runs = [
        (100, 7, true, 0xffa876f97f8f7117, 0x8a6f7187328004dd),
        (3, 4, false, 0x53bd4e421224114a, 0x91b116d961c09a07),
    ];
    for (cap, len, converged, model_digest, assignment_digest) in runs {
        for pc in [ParallelConfig::sequential(), ParallelConfig::all(2)] {
            let cfg = cfg.with_max_iterations(cap);
            let result = train_with_parallelism(&data.dataset, &cfg, &pc).expect("train");
            let tag = format!("cap={cap} threads={}", pc.threads);
            let trace = result.trace.iter();
            let trace: Vec<_> = trace
                .map(|s| {
                    (
                        s.log_likelihood.to_bits(),
                        s.n_changed.unwrap_or(usize::MAX),
                    )
                })
                .collect();
            let pinned: Vec<_> = lls.into_iter().zip(churn).take(len).collect();
            assert_eq!(trace, pinned, "{tag}");
            assert_eq!(result.log_likelihood.to_bits(), lls[len - 1], "{tag}");
            assert_eq!(result.converged, converged, "{tag}");
            let json = serde_json::to_string(&result.model).expect("model json");
            assert_eq!(fnv1a(json.bytes()), model_digest, "{tag}");
            let levels = result.assignments.per_user.iter().flatten().copied();
            assert_eq!(fnv1a(levels), assignment_digest, "{tag}");
        }
    }
    // The CLI prints the objective to one decimal.
    assert_eq!(format!("{:.1}", f64::from_bits(lls[6])), "-153652.3");
}

/// The EM loop on the same dataset, seeded by
/// `initialize_model(ds, 5, 20, 0.01)` under uninformative transitions.
/// The other EM checks compare against `reference::train_em_full` within
/// a tolerance; this one pins the exact bits.
#[test]
fn quick_seed7_em_training_is_pinned() {
    let data = generate(&SyntheticConfig::scaled(50, false, 7)).expect("generate");
    let initial = initialize_model(&data.dataset, 5, 20, 0.01).expect("init");
    let transitions = TransitionModel::uninformative(5).expect("transitions");
    let cfg = EmConfig::new(initial, transitions);
    let result = train_em_with_parallelism(&data.dataset, &cfg, &ParallelConfig::sequential())
        .expect("train em");
    let trace: Vec<u64> = result.evidence_trace.iter().map(|e| e.to_bits()).collect();
    assert_eq!(trace.len(), 53);
    assert_eq!(trace[0], 0xc10433abbbd905d5);
    assert_eq!(trace[52], 0xc102e9a74f4c470a);
    let trace_digest = fnv1a(trace.iter().flat_map(|b| b.to_le_bytes()));
    assert_eq!(trace_digest, 0x7a9666c8a458da27);
    assert!(result.converged);
    let json = serde_json::to_string(&result.model).expect("model json");
    assert_eq!(fnv1a(json.bytes()), 0x7fd6b62b787fdb5b);
}
