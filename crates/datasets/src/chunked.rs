//! Generate-and-fold synthetic corpus: a [`ChunkSource`] that yields the
//! paper's §VI-A synthetic generator chunk by chunk **without ever
//! materializing the corpus** — the million-user path for
//! `upskill-core`'s chunked trainers.
//!
//! Two properties make the stream trainable out of core:
//!
//! 1. **Per-user RNG streams.** Every user owns an independent RNG seeded
//!    from a splitmix64 mix of `(seed, user index)`, so `load_chunk(i)`
//!    regenerates exactly the same sequences regardless of chunk size,
//!    load order, or how many times a chunk is revisited (every training
//!    pass reloads each chunk and reads the previous pass's breakpoints
//!    against it).
//! 2. **Level-major item layout.** Items are generated once (they are
//!    `n_items × F`, not corpus-sized) with level `l` owning the dense
//!    id range `l·per_level .. (l+1)·per_level`, so the skill-capped
//!    item selection needs no pool tables.
//!
//! Unlike [`crate::synthetic::generate`], the schema is `[categorical,
//! gamma, Poisson]` **without the item-id feature** and without support
//! filtering/compaction: compaction depends on which items the whole
//! corpus selects, which would make a chunk's content depend on every
//! other chunk. Ground-truth difficulty is still available per item id.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upskill_core::chunked::{ChunkSource, DatasetChunk};
use upskill_core::error::{CoreError, Result};
use upskill_core::feature::{FeatureKind, FeatureValue, PositiveModel};
use upskill_core::types::{Dataset, ItemId};

use crate::sampling::{sample_categorical, sample_gamma, sample_poisson};
use crate::synthetic::SyntheticConfig;

/// splitmix64 finalizer over the `(seed, user)` pair: decorrelated
/// per-user streams from one corpus seed.
fn user_seed(seed: u64, user: u64) -> u64 {
    let mut z = seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The §VI-A synthetic corpus as an on-demand chunk stream.
///
/// Construction generates the item table (and one cheap length draw per
/// user to pin `n_actions`); sequences exist only inside whichever chunk
/// buffers are currently loaded.
#[derive(Debug, Clone)]
pub struct ChunkedSyntheticSource {
    config: SyntheticConfig,
    chunk_size: usize,
    item_view: Dataset,
    per_level: usize,
    n_actions: usize,
    true_difficulty: Vec<f64>,
}

impl ChunkedSyntheticSource {
    /// Builds the stream for `config`, partitioned into
    /// `chunk_size`-user chunks.
    pub fn new(config: &SyntheticConfig, chunk_size: usize) -> Result<Self> {
        if chunk_size == 0 {
            return Err(CoreError::InvalidChunkSize { requested: 0 });
        }
        let s_max = config.n_levels;
        let per_level = config.n_items / s_max.max(1);
        if s_max == 0 || per_level == 0 {
            return Err(CoreError::LengthMismatch {
                context: "synthetic items vs levels",
                left: config.n_items,
                right: s_max,
            });
        }
        // Items: same per-level parameters as the in-memory generator,
        // drawn from a dedicated item RNG (user streams never touch it).
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_items = per_level * s_max;
        let mut features: Vec<Vec<FeatureValue>> = Vec::with_capacity(n_items);
        let mut true_difficulty: Vec<f64> = Vec::with_capacity(n_items);
        for level in 0..s_max {
            let p = crate::synthetic::chunked_level_params(level, s_max, config.n_categories);
            for _ in 0..per_level {
                let cat = sample_categorical(&mut rng, &p.0) as u32;
                let g = sample_gamma(&mut rng, p.1, p.2).max(1e-6);
                let k = sample_poisson(&mut rng, p.3);
                features.push(vec![
                    FeatureValue::Categorical(cat),
                    FeatureValue::Real(g),
                    FeatureValue::Count(k),
                ]);
                true_difficulty.push((level + 1) as f64);
            }
        }
        let schema = upskill_core::feature::FeatureSchema::with_names(
            vec![
                FeatureKind::Categorical {
                    cardinality: config.n_categories,
                },
                FeatureKind::Positive {
                    model: PositiveModel::Gamma,
                },
                FeatureKind::Count,
            ],
            vec!["categorical".into(), "gamma".into(), "poisson".into()],
        )?;
        let item_view = Dataset::new(schema, features, Vec::new())?;
        // One length draw per user pins the corpus action count; the
        // same draw is the first thing `load_chunk` replays per user.
        let mut n_actions = 0usize;
        for user in 0..config.n_users as u64 {
            let mut urng = StdRng::seed_from_u64(user_seed(config.seed, user));
            n_actions += sample_poisson(&mut urng, config.mean_sequence_len).max(1) as usize;
        }
        Ok(Self {
            config: *config,
            chunk_size,
            item_view,
            per_level,
            n_actions,
            true_difficulty,
        })
    }

    /// Ground-truth difficulty per item id (`level` of the generating
    /// distributions, 1-based).
    pub fn true_difficulty(&self) -> &[f64] {
        &self.true_difficulty
    }

    /// The generator configuration this stream realizes.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Regenerates one user's sequence into `out` (already `begin_user`ed
    /// by the caller's loop). Identical draws for identical `(seed, user)`.
    fn generate_user(&self, user: u64, out: &mut DatasetChunk) -> Result<()> {
        let s_max = self.config.n_levels;
        let mut rng = StdRng::seed_from_u64(user_seed(self.config.seed, user));
        let len = sample_poisson(&mut rng, self.config.mean_sequence_len).max(1) as usize;
        let mut skill = rng.gen_range(0..s_max); // 0-based level
        for t in 0..len {
            let at_level = skill == 0 || rng.gen::<f64>() < self.config.p_at_level;
            let pool_level = if at_level {
                skill
            } else {
                rng.gen_range(0..skill)
            };
            let item = (pool_level * self.per_level + rng.gen_range(0..self.per_level)) as ItemId;
            out.push(t as i64, item)?;
            if at_level && skill + 1 < s_max && rng.gen::<f64>() < self.config.p_advance {
                skill += 1;
            }
        }
        Ok(())
    }
}

impl ChunkSource for ChunkedSyntheticSource {
    fn item_view(&self) -> &Dataset {
        &self.item_view
    }

    fn n_users(&self) -> usize {
        self.config.n_users
    }

    fn n_actions(&self) -> usize {
        self.n_actions
    }

    fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn load_chunk(&self, index: usize, out: &mut DatasetChunk) -> Result<()> {
        let n_users = self.config.n_users;
        let start = index * self.chunk_size;
        if start >= n_users {
            return Err(CoreError::LengthMismatch {
                context: "chunk index vs chunk count",
                left: index,
                right: self.n_chunks(),
            });
        }
        let end = (start + self.chunk_size).min(n_users);
        out.reset(index, start);
        for user in start..end {
            out.begin_user(user as u32);
            self.generate_user(user as u64, out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskill_core::chunked::materialize;
    use upskill_core::parallel::ParallelConfig;
    use upskill_core::train::TrainConfig;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            n_users: 48,
            n_items: 120,
            n_levels: 4,
            mean_sequence_len: 18.0,
            p_at_level: 0.5,
            p_advance: 0.1,
            n_categories: 6,
            seed: 23,
        }
    }

    #[test]
    fn zero_chunk_size_rejected() {
        assert!(matches!(
            ChunkedSyntheticSource::new(&small_config(), 0),
            Err(CoreError::InvalidChunkSize { requested: 0 })
        ));
    }

    #[test]
    fn stream_is_chunk_size_invariant() {
        let a = ChunkedSyntheticSource::new(&small_config(), 1).unwrap();
        let b = ChunkedSyntheticSource::new(&small_config(), 7).unwrap();
        let c = ChunkedSyntheticSource::new(&small_config(), 1000).unwrap();
        let da = materialize(&a).unwrap();
        let db = materialize(&b).unwrap();
        let dc = materialize(&c).unwrap();
        assert_eq!(da.n_actions(), a.n_actions());
        for (x, y) in da.sequences().iter().zip(db.sequences()) {
            assert_eq!(x, y);
        }
        for (x, y) in da.sequences().iter().zip(dc.sequences()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn reloading_a_chunk_is_deterministic() {
        let source = ChunkedSyntheticSource::new(&small_config(), 5).unwrap();
        let mut a = DatasetChunk::new();
        let mut b = DatasetChunk::new();
        source.load_chunk(2, &mut a).unwrap();
        source.load_chunk(0, &mut b).unwrap(); // interleave another index
        source.load_chunk(2, &mut b).unwrap();
        assert_eq!(a.users(), b.users());
        assert_eq!(a.items(), b.items());
    }

    #[test]
    fn action_counts_agree_with_stream() {
        let source = ChunkedSyntheticSource::new(&small_config(), 7).unwrap();
        let mut chunk = DatasetChunk::new();
        let mut users = 0;
        let mut actions = 0;
        for i in 0..source.n_chunks() {
            source.load_chunk(i, &mut chunk).unwrap();
            users += chunk.n_users();
            actions += chunk.n_actions();
        }
        assert_eq!(users, source.n_users());
        assert_eq!(actions, source.n_actions());
    }

    #[test]
    fn items_respect_skill_cap() {
        // Selected items' difficulty never exceeds the per-level pool cap:
        // every id drawn for pool level l lies in l's dense range.
        let source = ChunkedSyntheticSource::new(&small_config(), 16).unwrap();
        let per_level = source.per_level;
        let mut chunk = DatasetChunk::new();
        source.load_chunk(0, &mut chunk).unwrap();
        for &item in chunk.items() {
            let level = item as usize / per_level;
            assert!(level < source.config.n_levels);
            assert_eq!(source.true_difficulty()[item as usize], (level + 1) as f64);
        }
    }

    #[test]
    fn chunked_training_matches_materialized_training() {
        let source = ChunkedSyntheticSource::new(&small_config(), 11).unwrap();
        let dataset = materialize(&source).unwrap();
        let config = TrainConfig::new(4)
            .with_min_init_actions(12)
            .with_max_iterations(4)
            .with_lambda(0.1);
        let expect = upskill_core::train::train_with_parallelism(
            &dataset,
            &config,
            &ParallelConfig::sequential(),
        )
        .unwrap();
        let got = upskill_core::chunked::train_chunked(
            &source,
            &config,
            &ParallelConfig::all(3),
            upskill_core::chunked::AssignmentStorage::Recompute,
        )
        .unwrap();
        assert_eq!(got.model, expect.model);
        assert_eq!(got.log_likelihood, expect.log_likelihood);
    }
}
