//! Property-based tests: every join algorithm computes identical pair
//! counts on arbitrary inputs, and counts behave monotonically in `r`.

use proptest::prelude::*;
use sjpl_geom::{Metric, Point};
use sjpl_index::{pair_count, self_pair_count, JoinAlgorithm};

fn points(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec(
        [-10.0f64..10.0, -10.0f64..10.0].prop_map(Point::new),
        0..max,
    )
}

fn metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::Linf)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every join algorithm agrees with the nested loop on cross joins.
    #[test]
    fn cross_join_agreement(a in points(60), b in points(60), r in 0.0f64..30.0, m in metric()) {
        let reference = pair_count(JoinAlgorithm::NestedLoop, &a, &b, r, m);
        for algo in JoinAlgorithm::ALL {
            prop_assert_eq!(pair_count(algo, &a, &b, r, m), reference, "algo {}", algo.name());
        }
    }

    /// Every join algorithm agrees with the nested loop on self joins.
    #[test]
    fn self_join_agreement(a in points(70), r in 0.0f64..30.0, m in metric()) {
        let reference = self_pair_count(JoinAlgorithm::NestedLoop, &a, r, m);
        for algo in JoinAlgorithm::ALL {
            prop_assert_eq!(self_pair_count(algo, &a, r, m), reference, "algo {}", algo.name());
        }
    }

    /// PC(r) is non-decreasing in r, bounded by N·M, and symmetric in its
    /// arguments.
    #[test]
    fn pair_count_is_monotone_bounded_symmetric(
        a in points(50), b in points(50),
        r1 in 0.0f64..20.0, r2 in 0.0f64..20.0,
        m in metric(),
    ) {
        let (rlo, rhi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let clo = pair_count(JoinAlgorithm::KdTree, &a, &b, rlo, m);
        let chi = pair_count(JoinAlgorithm::KdTree, &a, &b, rhi, m);
        prop_assert!(clo <= chi);
        prop_assert!(chi <= (a.len() * b.len()) as u64);
        let swapped = pair_count(JoinAlgorithm::KdTree, &b, &a, rhi, m);
        prop_assert_eq!(chi, swapped);
    }

    /// Self-join counts max out at N(N−1)/2 and a cross join of a set with
    /// itself equals twice the self join plus the diagonal.
    #[test]
    fn self_join_identity(a in points(60), r in 0.0f64..20.0, m in metric()) {
        let self_pairs = self_pair_count(JoinAlgorithm::ParSweep, &a, r, m);
        let n = a.len() as u64;
        prop_assert!(self_pairs <= n.saturating_mul(n.saturating_sub(1)) / 2);
        let ordered = pair_count(JoinAlgorithm::ParSweep, &a, &a, r, m);
        // Ordered cross pairs of A×A = 2 · unordered + N coincident
        // self-pairs (each point pairs with itself at distance 0 ≤ r).
        prop_assert_eq!(ordered, 2 * self_pairs + n);
    }
}
