//! Log-linear (HDR-style) latency histograms.
//!
//! Each log2 major bucket (values of one bit length) is subdivided into
//! [`SUB`] = 16 linear sub-buckets, so a recorded value lands in a bucket
//! whose width is at most 1/16 of its lower bound: quantile estimates are
//! exact below 16 ns and within ~6% everywhere else, versus the ~2×
//! error of plain log2 bucketing. Recording still costs one
//! `leading_zeros` plus a shift — no configuration, no allocation — and
//! the bucket array spans the full `u64` nanosecond range.

/// Sub-bucket resolution: each major (log2) bucket splits into `2^SUB_BITS`
/// linear sub-buckets.
pub const SUB_BITS: u32 = 4;

/// Number of linear sub-buckets per major bucket (16).
pub const SUB: usize = 1 << SUB_BITS;

/// Total bucket count: values `0..16` get one exact bucket each, then
/// every bit length `5..=64` contributes [`SUB`] sub-buckets.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-size log-linear histogram over `u64` samples (typically
/// nanoseconds).
#[derive(Clone, Debug)]
pub struct LogLinearHistogram {
    counts: [u64; BUCKETS],
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram {
            counts: [0; BUCKETS],
        }
    }
}

/// The bucket index of a sample: the value itself below [`SUB`], then
/// `SUB_BITS` bits of linear mantissa within its log2 major bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let bits = (u64::BITS - v.leading_zeros()) as usize; // >= SUB_BITS + 1
    let major = bits - 1 - SUB_BITS as usize; // 0-based major index
    let sub = ((v >> major) as usize) & (SUB - 1);
    SUB + major * SUB + sub
}

/// The exclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64 + 1;
    }
    let major = (i - SUB) / SUB;
    let sub = ((i - SUB) % SUB) as u64;
    let lo = 1u128 << (major + SUB_BITS as usize);
    let ub = lo + (u128::from(sub) + 1) * (1u128 << major);
    u64::try_from(ub).unwrap_or(u64::MAX)
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The per-bucket difference `self - earlier`, saturating at zero.
    ///
    /// For two snapshots of the same cumulative histogram this yields the
    /// samples recorded in between; saturation makes a recorder reset (the
    /// later snapshot smaller than the earlier one) degrade to an empty
    /// window instead of wrapping.
    pub fn diff(&self, earlier: &LogLinearHistogram) -> LogLinearHistogram {
        let mut out = LogLinearHistogram::new();
        for (i, (a, b)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            out.counts[i] = a.saturating_sub(*b);
        }
        out
    }

    /// Occupied buckets as `(upper_bound_exclusive, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }

    /// Number of samples recorded at or below `v`, to within one bucket:
    /// every bucket whose range starts at or below `v` counts in full, so
    /// the answer can overshoot by the partial occupancy of `v`'s own
    /// bucket (≤ 1/16 relative). Used for SLO compliance ratios.
    pub fn count_le(&self, v: u64) -> u64 {
        self.counts[..=bucket_of(v)].iter().sum()
    }

    /// Approximate quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the bucket containing the `q`-th sample. Returns 0 on an empty
    /// histogram. The answer is exact for samples below 32 and otherwise
    /// overshoots the true sample by at most one sub-bucket width — i.e.
    /// `true <= quantile(q) <= true * (1 + 1/16)`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let ub = bucket_upper_bound(i);
                return if ub == u64::MAX { ub } else { ub - 1 };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..(SUB as u64) {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper_bound(bucket_of(v)), v + 1);
        }
        // First major bucket (bit length 5) is still exact: width 1.
        assert_eq!(bucket_of(16), SUB);
        assert_eq!(bucket_of(31), SUB + 15);
        assert_eq!(bucket_upper_bound(bucket_of(17)), 18);
    }

    #[test]
    fn buckets_partition_the_range() {
        // Every value maps into a bucket whose [lower, upper) contains it,
        // and bucket bounds are strictly increasing.
        for v in [
            0u64,
            1,
            15,
            16,
            31,
            32,
            63,
            64,
            100,
            900,
            1023,
            1024,
            69_999,
            70_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_of(v);
            let ub = bucket_upper_bound(i);
            // The last bucket's bound is clamped from 2^64 to u64::MAX, so
            // it is inclusive there.
            assert!(v < ub || ub == u64::MAX, "v={v} bucket={i}");
            if i > 0 {
                assert!(
                    v >= bucket_upper_bound(i - 1),
                    "v={v} below bucket {i}'s lower bound"
                );
            }
        }
        for i in 1..BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn empty_single_and_extreme_quantiles() {
        let mut h = LogLinearHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);

        h.record(900);
        assert_eq!(h.count(), 1);
        // One sample: every quantile is that sample's bucket.
        let q = h.quantile(0.5);
        assert!((900..=956).contains(&q), "q={q}");
        assert_eq!(h.quantile(0.0), q);
        assert_eq!(h.quantile(1.0), q);
    }

    #[test]
    fn quantiles_are_tight() {
        let mut h = LogLinearHistogram::new();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        // p50 is exactly the 3rd sample: value 3 lives in an exact bucket.
        assert_eq!(h.quantile(0.5), 3);
        // p100 lands within a sub-bucket of the max.
        let p100 = h.quantile(1.0);
        assert!((100_000..=106_250).contains(&p100), "p100={p100}");
    }

    #[test]
    fn count_le_brackets_the_rank() {
        let mut h = LogLinearHistogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.count_le(0), 1);
        assert_eq!(h.count_le(15), 16); // exact region
        assert_eq!(h.count_le(u64::MAX), 1000);
        // Beyond the exact region the answer overshoots by at most the
        // occupancy of one sub-bucket.
        let c = h.count_le(500);
        assert!((501..=533).contains(&c), "count_le(500)={c}");
    }

    #[test]
    fn merge_is_associative_and_adds_counts() {
        let make = |vals: &[u64]| {
            let mut h = LogLinearHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = make(&[5, 5, 900]);
        let b = make(&[900, 70_000]);
        let c = make(&[0, u64::MAX]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.counts.to_vec(), a_bc.counts.to_vec());
        assert_eq!(ab_c.count(), 7);
        // Same-bucket samples aggregate.
        let nz = ab_c.nonzero_buckets();
        assert!(nz.iter().any(|&(ub, c)| ub == 6 && c == 2));
    }

    #[test]
    fn diff_recovers_the_window_and_saturates_on_reset() {
        let mut earlier = LogLinearHistogram::new();
        for v in [5u64, 900] {
            earlier.record(v);
        }
        let mut later = earlier.clone();
        for v in [5u64, 70_000] {
            later.record(v);
        }
        let window = later.diff(&earlier);
        assert_eq!(window.count(), 2);
        assert!(window
            .nonzero_buckets()
            .iter()
            .any(|&(ub, c)| ub == 6 && c == 1));
        // A reset (earlier bigger than later) saturates to empty, not wraps.
        assert_eq!(earlier.diff(&later).count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The headline contract: for any sample set, every estimated
        /// quantile brackets the exact sorted-sample quantile from above by
        /// at most one sub-bucket (1/16 relative).
        #[test]
        fn quantile_error_is_bounded(mut vals in prop::collection::vec(0u64..10_000_000_000, 1..300)) {
            let mut h = LogLinearHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * vals.len() as f64).ceil() as usize).max(1) - 1;
                let exact = vals[rank];
                let est = h.quantile(q);
                prop_assert!(est >= exact, "q={q}: est {est} < exact {exact}");
                let bound = exact + exact / SUB as u64 + 1;
                prop_assert!(est <= bound, "q={q}: est {est} > bound {bound} (exact {exact})");
            }
        }

        /// count_le is monotone and never undershoots the true rank.
        #[test]
        fn count_le_is_monotone(vals in prop::collection::vec(0u64..1_000_000, 1..200), probe in 0u64..1_000_000) {
            let mut h = LogLinearHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            let exact = vals.iter().filter(|&&v| v <= probe).count() as u64;
            prop_assert!(h.count_le(probe) >= exact);
            prop_assert!(h.count_le(probe) <= h.count());
        }
    }
}
