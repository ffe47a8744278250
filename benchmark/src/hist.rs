//! Log-scaled latency histogram: constant memory, mergeable, and read
//! back with quantiles interpolated inside the bucket, so a reported
//! percentile is a measured value rather than a bucket edge that could
//! repeat exactly from run to run.

/// Sub-buckets per power of two: 64 gives a worst-case bucket width of
/// 1/64 (about 1.6%) of the value.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one bucket each; every power of two from
/// `SUB` up to `2^63` gets `SUB` buckets.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Nanosecond latency histogram.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let log2 = 63 - ns.leading_zeros();
    let frac = (ns >> (log2 - SUB_BITS)) as usize & (SUB - 1);
    (log2 - SUB_BITS + 1) as usize * SUB + frac
}

/// Half-open value range `[lo, hi)` of bucket `idx`.
fn bucket_range(idx: usize) -> (f64, f64) {
    if idx < SUB {
        return (idx as f64, idx as f64 + 1.0);
    }
    let shift = (idx / SUB - 1) as i32;
    let base = (SUB + idx % SUB) as f64;
    (base * 2f64.powi(shift), (base + 1.0) * 2f64.powi(shift))
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile in nanoseconds, interpolated
    /// linearly among the samples of the bucket that holds it and
    /// clamped to the observed range; 0 when empty. Within one bucket
    /// width of the exact sorted-sample quantile.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = bucket_range(idx);
                let within = (target - seen) as f64 - 0.5;
                let v = lo + (hi - lo) * within / c as f64;
                return v.clamp(self.min_ns as f64, self.max_ns as f64);
            }
            seen += c;
        }
        self.max_ns as f64
    }

    /// Non-empty buckets as `(lo_ns, hi_ns, count)`, for trace files.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_range(i);
                (lo, hi, c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upskill_core::rng::SplitMix64;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_value_axis() {
        // `u64::MAX` itself rounds up to 2^64 as an `f64`, so only its
        // bucket index is checked.
        for ns in (0..5_000u64).chain([u64::MAX / 3]) {
            let (lo, hi) = bucket_range(bucket_of(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < hi,
                "{ns} not in [{lo}, {hi})"
            );
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_an_exact_sort() {
        let mut rng = SplitMix64::new(42);
        // Log-uniform over 50 ns .. 50 ms: the span serving latencies
        // and refit stalls cover.
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| (50.0 * 1e6f64.powf(rng.next_f64())) as u64)
            .collect();
        let mut h = Hist::default();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact(&samples, q) as f64;
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() <= want / SUB as f64 + 1.0,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.quantile_ns(1.0), *samples.last().unwrap() as f64);
    }

    #[test]
    fn merge_equals_recording_everything_once() {
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for ns in 0..1_000u64 {
            let v = ns * ns;
            if ns % 3 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile_ns(q), all.quantile_ns(q));
        }
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }
}
