//! Log-spaced histograms.
//!
//! The "quadratic method" of the paper evaluates `PC(r)` at many radii. Done
//! naively that is one O(N·M) pass *per radius*; instead we histogram every
//! pair distance into log-spaced bins in a single O(N·M) pass, and the
//! cumulative counts give `PC(r)` at every bin edge at once.

use crate::StatsError;

/// A histogram with logarithmically spaced bin edges over `[lo, hi]`.
///
/// Bin `i` covers distances `(edge(i), edge(i+1)]` with
/// `edge(i) = lo · ratio^i`; an extra underflow bucket collects values
/// `≤ lo` (including exact zeros, which log-spacing cannot represent).
/// Values above `hi` go to an overflow bucket so totals are preserved.
///
/// Edges are float-rounded, so a value within one ULP of an edge may be
/// assigned to either adjacent bin; this is irrelevant for the counting
/// statistics the histogram exists for.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    lo: f64,
    hi: f64,
    log_lo: f64,
    inv_log_ratio: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// Creates a histogram with `bins` log-spaced bins spanning `[lo, hi]`.
    ///
    /// # Errors
    /// `lo` and `hi` must be positive, finite, and `lo < hi`; `bins ≥ 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !lo.is_finite() || lo <= 0.0 {
            return Err(StatsError::NonPositive { value: lo });
        }
        if !hi.is_finite() || hi <= lo {
            return Err(StatsError::NonPositive { value: hi });
        }
        if bins == 0 {
            return Err(StatsError::TooFewPoints {
                found: 0,
                needed: 1,
            });
        }
        let log_lo = lo.ln();
        let log_ratio = (hi.ln() - log_lo) / bins as f64;
        Ok(LogHistogram {
            lo,
            hi,
            log_lo,
            inv_log_ratio: 1.0 / log_ratio,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Number of regular bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Lower bound of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The upper edge of bin `i` (distances ≤ this edge fall in bins `0..=i`
    /// or the underflow bucket). The last edge is `hi` itself: the log-space
    /// round trip can land a few ULPs below it, yet [`Self::record_n`] files
    /// `v = hi` in the last bin.
    pub fn upper_edge(&self, i: usize) -> f64 {
        debug_assert!(i < self.counts.len());
        if i + 1 == self.counts.len() {
            return self.hi;
        }
        let t = (i + 1) as f64 / self.inv_log_ratio;
        (self.log_lo + t).exp()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of one value (used when pair multiplicity is
    /// known, e.g. cell-count products).
    #[inline]
    pub fn record_n(&mut self, v: f64, n: u64) {
        if v <= self.lo {
            self.underflow += n;
            return;
        }
        if v > self.hi {
            self.overflow += n;
            return;
        }
        // v in (lo, hi]: approximate bin index from the log offset, then
        // correct for float rounding against the exact edges so that the
        // invariant `lower_edge(i) < v <= upper_edge(i)` always holds (the
        // cumulative() output depends on it).
        let approx = ((v.ln() - self.log_lo) * self.inv_log_ratio).ceil() as usize;
        let mut idx = approx.clamp(1, self.counts.len()) - 1;
        while idx > 0 && v <= self.upper_edge(idx - 1) {
            idx -= 1;
        }
        while idx + 1 < self.counts.len() && v > self.upper_edge(idx) {
            idx += 1;
        }
        self.counts[idx] += n;
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    /// Panics if geometries differ (this is a programmer error; the parallel
    /// quadratic pass always clones one prototype).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < f64::EPSILON && (self.hi - other.hi).abs() < f64::EPSILON,
            "range mismatch"
        );
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Count below or at `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded count, including under/overflow.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// The cumulative distribution: for each bin edge `upper_edge(i)` the
    /// number of recorded values `≤` that edge (underflow included). This is
    /// exactly the pair-count function `PC(r)` sampled at the bin edges.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = self.underflow;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                (self.upper_edge(i), acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_log_spaced() {
        let h = LogHistogram::new(1.0, 1000.0, 3).unwrap();
        assert!((h.upper_edge(0) - 10.0).abs() < 1e-9);
        assert!((h.upper_edge(1) - 100.0).abs() < 1e-9);
        assert!((h.upper_edge(2) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn record_places_values_in_correct_bins() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3).unwrap();
        h.record(0.5); // underflow
        h.record(1.0); // underflow (≤ lo)
        h.record(5.0); // bin 0 (1,10]
        h.record(20.0); // bin 1 (10,100]
        h.record(999.0); // bin 2
        h.record(1000.0); // bin 2 (hi is inclusive)
        h.record(2000.0); // overflow
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.counts(), &[1, 1, 2]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn values_at_edges_satisfy_bin_invariant() {
        // A value within one ULP of a bin edge may land in either adjacent
        // bin (the edges themselves are float-rounded); what must hold is
        // the invariant lower_edge(i) < v <= upper_edge(i) evaluated with
        // the histogram's own edges.
        let mut h = LogHistogram::new(1.0, 1000.0, 3).unwrap();
        h.record(10.0);
        h.record(100.0);
        let (i, _) = h.counts().iter().enumerate().find(|(_, &c)| c > 0).unwrap();
        let lower = if i == 0 { h.lo() } else { h.upper_edge(i - 1) };
        assert!(lower < 10.0 + 1e-9 && 10.0 <= h.upper_edge(i) + 1e-9);
        assert_eq!(h.total(), 2);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn cumulative_is_monotone_and_matches_brute_force() {
        let values = [0.2, 1.5, 3.0, 3.0, 8.0, 40.0, 900.0, 5000.0];
        let mut h = LogHistogram::new(1.0, 1000.0, 12).unwrap();
        for &v in &values {
            h.record(v);
        }
        let cum = h.cumulative();
        let mut prev = 0;
        for &(edge, c) in &cum {
            let brute = values.iter().filter(|&&v| v <= edge + 1e-12).count() as u64;
            assert_eq!(c, brute, "at edge {edge}");
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn cumulative_counts_exactly_at_every_edge() {
        // Geometries whose log-space top edge rounds a few ULPs below `hi`;
        // a value at exactly `hi` must still count at the last edge.
        for (lo, hi, bins) in [(3e-5, 0.3, 10), (0.15, 0.3, 12), (7e-5, 0.7, 40)] {
            let mut h = LogHistogram::new(lo, hi, bins).unwrap();
            let mut values = vec![lo, hi, lo * 0.5, hi * 2.0];
            values.extend((0..bins).map(|i| h.upper_edge(i)));
            values.extend((0..bins).map(|i| h.upper_edge(i) * (1.0 - 1e-12)));
            for &v in &values {
                h.record(v);
            }
            for (edge, c) in h.cumulative() {
                let brute = values.iter().filter(|&&v| v <= edge).count() as u64;
                assert_eq!(c, brute, "({lo}, {hi}, {bins}) at edge {edge}");
            }
            assert_eq!(h.cumulative().last().unwrap().0, hi);
        }
    }

    #[test]
    fn record_n_multiplies() {
        let mut h = LogHistogram::new(0.1, 10.0, 4).unwrap();
        h.record_n(1.0, 7);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new(1.0, 100.0, 4).unwrap();
        let mut b = LogHistogram::new(1.0, 100.0, 4).unwrap();
        a.record(2.0);
        b.record(2.0);
        b.record(50.0);
        b.record(0.5);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.underflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogHistogram::new(1.0, 100.0, 4).unwrap();
        let b = LogHistogram::new(1.0, 100.0, 5).unwrap();
        a.merge(&b);
    }

    #[test]
    fn constructor_validates_input() {
        assert!(LogHistogram::new(0.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(-1.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(1.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(2.0, 1.0, 4).is_err());
        assert!(LogHistogram::new(1.0, f64::INFINITY, 4).is_err());
        assert!(LogHistogram::new(1.0, 2.0, 0).is_err());
    }

    #[test]
    fn many_bins_no_value_lost() {
        let mut h = LogHistogram::new(1e-6, 1e3, 64).unwrap();
        let mut expected = 0;
        let mut v = 1e-7;
        while v < 1e4 {
            h.record(v);
            expected += 1;
            v *= 1.37;
        }
        assert_eq!(h.total(), expected);
    }
}
