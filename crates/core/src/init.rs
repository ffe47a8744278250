//! Model initialization (paper §IV-B, "Initializing model parameters").
//!
//! The objective is non-convex, so the starting point matters. Following
//! Yang et al. and Shin et al., we assume users with long sequences are the
//! most likely to have traversed all skill levels: we select users with at
//! least `min_actions` actions, split each of their sequences into `S`
//! contiguous groups that are uniform *in time*, label the `s`-th group
//! with skill `s`, and fit the initial parameters from those labels.

use crate::chunked::{in_memory_chunk_size, initialize_model_chunked, DatasetChunks};
use crate::error::Result;
use crate::model::SkillModel;
use crate::parallel::ParallelConfig;
use crate::types::{Dataset, SkillLevel, Timestamp};

/// Uniform-in-time segmentation of one user's (sorted) timestamps into
/// `n_levels` groups, appended to `out`, so a chunk pass can segment all
/// its users into one reused buffer.
///
/// Each action gets the level of the time bucket it falls into; buckets
/// divide `[t_first, t_last]` evenly. Degenerate spans (all actions at one
/// instant) fall back to uniform-by-index segmentation.
///
/// Offsets from the first timestamp are taken as `u64` distances
/// (`abs_diff`), so a sequence spanning more than `i64::MAX` segments
/// correctly instead of overflowing; for every span that fits in `i64`
/// the distance, and so every level, is the same as the signed
/// difference's.
pub(crate) fn segment_uniform_times_into(
    times: &[Timestamp],
    n_levels: usize,
    out: &mut Vec<SkillLevel>,
) {
    let (Some(&t0), Some(&t1)) = (times.first(), times.last()) else {
        return;
    };
    let n = times.len();
    if t1 > t0 {
        let span = t1.abs_diff(t0) as f64;
        out.extend(times.iter().map(|&t| {
            // An action before the first (unsorted input) keeps level 1.
            let offset = if t > t0 { t.abs_diff(t0) } else { 0 };
            let frac = offset as f64 / span;
            // `frac ≥ 0`, so truncation is the floor.
            let level = (frac * n_levels as f64) as usize;
            (level.min(n_levels - 1) + 1) as SkillLevel
        }));
    } else {
        // Zero time span: segment by index instead.
        out.extend((0..n).map(|idx| {
            let level = idx * n_levels / n;
            (level.min(n_levels - 1) + 1) as SkillLevel
        }));
    }
}

/// Produces the initial model by uniform segmentation of long sequences.
///
/// Only users with at least `min_actions` actions contribute to the initial
/// parameter fit (the paper's `U_{≥N}`); all users participate in the
/// subsequent training iterations. This is
/// [`initialize_model_chunked`] over the dataset's user chunks, on the
/// calling thread; [`crate::reference::initialize_model_rows`] is its
/// row-path oracle. A sequence whose times go backwards (a deserialized
/// dataset skips the sort) is [`crate::error::CoreError::UnsortedSequence`].
pub fn initialize_model(
    dataset: &Dataset,
    n_levels: usize,
    min_actions: usize,
    lambda: f64,
) -> Result<SkillModel> {
    let chunk_size = in_memory_chunk_size(dataset, &ParallelConfig::sequential());
    let chunks = DatasetChunks::new(dataset, chunk_size)?;
    initialize_model_chunked(&chunks, n_levels, min_actions, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::feature::{FeatureKind, FeatureSchema, FeatureValue};
    use crate::reference::{initialize_model_rows, segment_uniform};
    use crate::types::{Action, ActionSequence, SkillAssignments};

    fn segment_uniform_times(times: &[Timestamp], n_levels: usize) -> Vec<SkillLevel> {
        let mut levels = Vec::new();
        segment_uniform_times_into(times, n_levels, &mut levels);
        levels
    }

    fn seq_with_times(times: &[i64]) -> ActionSequence {
        ActionSequence::new(0, times.iter().map(|&t| Action::new(t, 0, 0)).collect()).unwrap()
    }

    #[test]
    fn empty_sequence_segments_empty() {
        let seq = ActionSequence::new(0, vec![]).unwrap();
        assert!(segment_uniform(&seq, 3).is_empty());
        assert!(segment_uniform_times(&[], 3).is_empty());
    }

    #[test]
    fn uniform_times_split_evenly() {
        let seq = seq_with_times(&[0, 1, 2, 3, 4, 5]);
        let levels = segment_uniform(&seq, 3);
        assert_eq!(levels, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn segmentation_is_time_based_not_index_based() {
        // Five actions, but four are crammed into the first time instantile.
        let seq = seq_with_times(&[0, 1, 2, 3, 100]);
        let levels = segment_uniform(&seq, 2);
        assert_eq!(levels, vec![1, 1, 1, 1, 2]);
    }

    #[test]
    fn zero_span_falls_back_to_index_segmentation() {
        let seq = seq_with_times(&[5, 5, 5, 5]);
        let levels = segment_uniform(&seq, 2);
        assert_eq!(levels, vec![1, 1, 2, 2]);
    }

    #[test]
    fn segmentation_is_monotone_and_in_range() {
        let seq = seq_with_times(&[0, 3, 3, 7, 20, 21, 22, 50]);
        for n_levels in 1..=6 {
            let levels = segment_uniform(&seq, n_levels);
            assert!(levels.windows(2).all(|w| w[0] <= w[1]));
            assert!(levels.iter().all(|&s| (1..=n_levels as u8).contains(&s)));
        }
    }

    #[test]
    fn times_slice_twin_matches_sequence_segmentation() {
        for times in [
            vec![0, 3, 3, 7, 20, 21, 22, 50],
            vec![5, 5, 5, 5],
            vec![0, 10],
            vec![],
        ] {
            let seq = ActionSequence::new(0, times.iter().map(|&t| Action::new(t, 0, 0)).collect())
                .unwrap();
            for n_levels in 1..=4 {
                assert_eq!(
                    segment_uniform(&seq, n_levels),
                    segment_uniform_times(&times, n_levels)
                );
            }
        }
    }

    #[test]
    fn segmentation_survives_spans_beyond_i64() {
        let e18 = 1_000_000_000_000_000_000i64;
        assert_eq!(segment_uniform_times(&[-6 * e18, 0, 6 * e18], 3), [1, 2, 3]);
        assert_eq!(
            segment_uniform_times(&[i64::MIN, 0, i64::MAX], 3),
            [1, 2, 3]
        );
        assert_eq!(segment_uniform_times(&[i64::MIN, i64::MAX], 4), [1, 4]);
        assert_eq!(segment_uniform_times(&[i64::MIN, i64::MIN], 2), [1, 2]);
    }

    #[test]
    fn initializers_cover_the_whole_timestamp_range() {
        use crate::chunked::{initialize_model_chunked, initialize_on_workers, DatasetChunks};
        use crate::update::fit_model;

        let schema = FeatureSchema::new(vec![
            FeatureKind::Categorical { cardinality: 3 },
            FeatureKind::Count,
        ])
        .unwrap();
        let items = (0..3u32)
            .map(|i| {
                vec![
                    FeatureValue::Categorical(i),
                    FeatureValue::Count(u64::from(i)),
                ]
            })
            .collect();
        let times = [i64::MIN, i64::MIN / 2, 0, i64::MAX / 2, i64::MAX];
        let sequences = (0..2u32)
            .map(|u| {
                let actions = times
                    .iter()
                    .enumerate()
                    .map(|(t, &time)| Action::new(time, u, (t as u32 + u) % 3))
                    .collect();
                ActionSequence::new(u, actions).unwrap()
            })
            .collect();
        let ds = Dataset::new(schema, items, sequences).unwrap();
        // Offsets 0, ¼, ½, ¾ and all of the span.
        let levels = vec![1, 1, 2, 2, 2];
        let assignments = SkillAssignments {
            per_user: vec![levels; 2],
        };
        let want = format!("{:?}", fit_model(&ds, &assignments, 2, 0.01).unwrap());
        let got = initialize_model(&ds, 2, 1, 0.01).unwrap();
        assert_eq!(format!("{got:?}"), want);
        let rows = initialize_model_rows(&ds, 2, 1, 0.01).unwrap();
        assert_eq!(format!("{rows:?}"), want);
        for chunk_size in [1, 2] {
            let chunks = DatasetChunks::new(&ds, chunk_size).unwrap();
            let got = initialize_model_chunked(&chunks, 2, 1, 0.01).unwrap();
            assert_eq!(format!("{got:?}"), want, "chunk size {chunk_size}");
            let parallel = crate::parallel::ParallelConfig::all(2);
            let got = initialize_on_workers(&chunks, 2, 1, 0.01, &parallel).unwrap();
            assert_eq!(
                format!("{got:?}"),
                want,
                "chunk size {chunk_size}, 2 workers"
            );
        }
    }

    #[test]
    fn last_action_gets_top_level() {
        let seq = seq_with_times(&[0, 10]);
        let levels = segment_uniform(&seq, 5);
        assert_eq!(*levels.last().unwrap(), 5);
    }

    fn small_dataset() -> Dataset {
        let schema = FeatureSchema::new(vec![FeatureKind::Categorical { cardinality: 2 }]).unwrap();
        let items = vec![
            vec![FeatureValue::Categorical(0)],
            vec![FeatureValue::Categorical(1)],
        ];
        // User 0: long sequence (easy items first, hard later).
        let s0 = ActionSequence::new(
            0,
            vec![
                Action::new(0, 0, 0),
                Action::new(1, 0, 0),
                Action::new(2, 0, 1),
                Action::new(3, 0, 1),
            ],
        )
        .unwrap();
        // User 1: short sequence, excluded from init.
        let s1 = ActionSequence::new(1, vec![Action::new(0, 1, 1)]).unwrap();
        Dataset::new(schema, items, vec![s0, s1]).unwrap()
    }

    #[test]
    fn initialize_uses_only_long_sequences() {
        let ds = small_dataset();
        let model = initialize_model(&ds, 2, 4, 0.01).unwrap();
        // With only user 0 contributing, level 1 ← category 0, level 2 ← category 1.
        let easy = vec![FeatureValue::Categorical(0)];
        let hard = vec![FeatureValue::Categorical(1)];
        assert!(model.item_log_likelihood(&easy, 1) > model.item_log_likelihood(&easy, 2));
        assert!(model.item_log_likelihood(&hard, 2) > model.item_log_likelihood(&hard, 1));
    }

    #[test]
    fn initialize_fails_when_no_user_qualifies() {
        let ds = small_dataset();
        let err = initialize_model(&ds, 2, 100, 0.01).unwrap_err();
        assert_eq!(err, CoreError::NoInitializationUsers { threshold: 100 });
    }

    #[test]
    fn initialize_rejects_zero_levels() {
        let ds = small_dataset();
        assert!(matches!(
            initialize_model(&ds, 0, 1, 0.01),
            Err(CoreError::InvalidSkillCount { requested: 0 })
        ));
    }
}
