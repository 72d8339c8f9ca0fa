//! Bulk-built kd-tree with range counting and dual-tree distance joins.
//!
//! The tree is built once (median split on the widest axis, bucketed
//! leaves) and stored in two flat vectors — nodes and reordered points — so
//! traversal touches contiguous memory. The distance-join counters use the
//! classic dual-tree pruning argument: a node pair whose boxes are farther
//! than `r` apart contributes nothing; one whose boxes are entirely within
//! `r` contributes the full product of its sizes without visiting points.

use sjpl_geom::{Aabb, Metric, Point};

use crate::stats::JoinStats;

const LEAF_CAP: usize = 16;
const NO_CHILD: u32 = u32::MAX;

struct Node<const D: usize> {
    bbox: Aabb<D>,
    /// Range of this subtree's points in the reordered array.
    start: u32,
    end: u32,
    left: u32,
    right: u32,
}

impl<const D: usize> Node<D> {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left == NO_CHILD
    }

    #[inline]
    fn len(&self) -> u64 {
        (self.end - self.start) as u64
    }
}

/// A static kd-tree over `D`-dimensional points.
pub struct KdTree<const D: usize> {
    nodes: Vec<Node<D>>,
    points: Vec<Point<D>>,
    root: u32,
}

impl<const D: usize> KdTree<D> {
    /// Builds a tree over a copy of `points`. Accepts the empty set.
    pub fn build(points: &[Point<D>]) -> Self {
        let mut pts = points.to_vec();
        let mut nodes = Vec::new();
        let root = if pts.is_empty() {
            NO_CHILD
        } else {
            let n = pts.len();
            build_rec(&mut pts, 0, n, &mut nodes)
        };
        KdTree {
            nodes,
            points: pts,
            root,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Bounding box of all indexed points (empty box when empty).
    pub fn bbox(&self) -> Aabb<D> {
        if self.root == NO_CHILD {
            Aabb::empty()
        } else {
            self.nodes[self.root as usize].bbox
        }
    }

    /// Counts indexed points within distance `r` of `q` (including any
    /// indexed point equal to `q`).
    pub fn range_count(&self, q: &Point<D>, r: f64, metric: Metric) -> u64 {
        if self.root == NO_CHILD || r < 0.0 {
            return 0;
        }
        self.range_count_rec(self.root, q, r, metric)
    }

    fn range_count_rec(&self, node: u32, q: &Point<D>, r: f64, metric: Metric) -> u64 {
        let n = &self.nodes[node as usize];
        if n.bbox.min_dist(q, metric) > r {
            return 0;
        }
        if n.bbox.max_dist(q, metric) <= r {
            return n.len();
        }
        if n.is_leaf() {
            let thresh = metric.rdist_threshold(r);
            return self.points[n.start as usize..n.end as usize]
                .iter()
                .filter(|p| metric.rdist(p, q) <= thresh)
                .count() as u64;
        }
        self.range_count_rec(n.left, q, r, metric) + self.range_count_rec(n.right, q, r, metric)
    }

    /// Dual-tree cross join: counts ordered pairs `(a, b)` with `a` from
    /// `self`, `b` from `other`, and `dist(a, b) ≤ r`.
    pub fn join_count(&self, other: &KdTree<D>, r: f64, metric: Metric) -> u64 {
        if self.root == NO_CHILD || other.root == NO_CHILD || r < 0.0 {
            return 0;
        }
        let mut st = JoinStats::default();
        let c = self.join_rec(self.root, other, other.root, r, metric, &mut st);
        st.publish();
        c
    }

    fn join_rec(
        &self,
        u: u32,
        other: &KdTree<D>,
        v: u32,
        r: f64,
        metric: Metric,
        st: &mut JoinStats,
    ) -> u64 {
        st.visits += 1;
        let nu = &self.nodes[u as usize];
        let nv = &other.nodes[v as usize];
        if nu.bbox.min_dist_box(&nv.bbox, metric) > r {
            st.pruned += 1;
            return 0;
        }
        if nu.bbox.max_dist_box(&nv.bbox, metric) <= r {
            st.contained += 1;
            return nu.len() * nv.len();
        }
        match (nu.is_leaf(), nv.is_leaf()) {
            (true, true) => {
                st.candidates += nu.len() * nv.len();
                let thresh = metric.rdist_threshold(r);
                let mut c = 0u64;
                for pa in &self.points[nu.start as usize..nu.end as usize] {
                    for pb in &other.points[nv.start as usize..nv.end as usize] {
                        if metric.rdist(pa, pb) <= thresh {
                            c += 1;
                        }
                    }
                }
                c
            }
            // Split the larger non-leaf side (keeps boxes balanced).
            (true, false) => {
                self.join_rec(u, other, nv.left, r, metric, st)
                    + self.join_rec(u, other, nv.right, r, metric, st)
            }
            (false, true) => {
                self.join_rec(nu.left, other, v, r, metric, st)
                    + self.join_rec(nu.right, other, v, r, metric, st)
            }
            (false, false) => {
                if nu.len() >= nv.len() {
                    self.join_rec(nu.left, other, v, r, metric, st)
                        + self.join_rec(nu.right, other, v, r, metric, st)
                } else {
                    self.join_rec(u, other, nv.left, r, metric, st)
                        + self.join_rec(u, other, nv.right, r, metric, st)
                }
            }
        }
    }

    /// Dual-tree self join: counts unordered pairs `{i, j}, i ≠ j` with
    /// `dist ≤ r`, self-pairs omitted (Definition 1's convention).
    pub fn self_join_count(&self, r: f64, metric: Metric) -> u64 {
        if self.len() < 2 || r < 0.0 {
            return 0;
        }
        let mut st = JoinStats::default();
        let c = self.self_join_rec(self.root, self.root, r, metric, &mut st);
        st.publish();
        c
    }

    /// Counts unordered pairs between subtrees `u` and `v`. Invariant:
    /// either `u == v`, or the point ranges of `u` and `v` are disjoint
    /// (guaranteed because distinct kd subtrees never share points).
    fn self_join_rec(&self, u: u32, v: u32, r: f64, metric: Metric, st: &mut JoinStats) -> u64 {
        st.visits += 1;
        let nu = &self.nodes[u as usize];
        let nv = &self.nodes[v as usize];
        if u == v {
            if nu.is_leaf() {
                let pts = &self.points[nu.start as usize..nu.end as usize];
                st.candidates += (pts.len() * pts.len().saturating_sub(1) / 2) as u64;
                let thresh = metric.rdist_threshold(r);
                let mut c = 0u64;
                for i in 0..pts.len() {
                    for j in (i + 1)..pts.len() {
                        if metric.rdist(&pts[i], &pts[j]) <= thresh {
                            c += 1;
                        }
                    }
                }
                return c;
            }
            return self.self_join_rec(nu.left, nu.left, r, metric, st)
                + self.self_join_rec(nu.right, nu.right, r, metric, st)
                + self.self_join_rec(nu.left, nu.right, r, metric, st);
        }
        // Disjoint subtrees: every cross pair is a distinct unordered pair.
        if nu.bbox.min_dist_box(&nv.bbox, metric) > r {
            st.pruned += 1;
            return 0;
        }
        if nu.bbox.max_dist_box(&nv.bbox, metric) <= r {
            st.contained += 1;
            return nu.len() * nv.len();
        }
        match (nu.is_leaf(), nv.is_leaf()) {
            (true, true) => {
                st.candidates += nu.len() * nv.len();
                let thresh = metric.rdist_threshold(r);
                let mut c = 0u64;
                for pa in &self.points[nu.start as usize..nu.end as usize] {
                    for pb in &self.points[nv.start as usize..nv.end as usize] {
                        if metric.rdist(pa, pb) <= thresh {
                            c += 1;
                        }
                    }
                }
                c
            }
            (true, false) => {
                self.self_join_rec(u, nv.left, r, metric, st)
                    + self.self_join_rec(u, nv.right, r, metric, st)
            }
            (false, true) => {
                self.self_join_rec(nu.left, v, r, metric, st)
                    + self.self_join_rec(nu.right, v, r, metric, st)
            }
            (false, false) => {
                if nu.len() >= nv.len() {
                    self.self_join_rec(nu.left, v, r, metric, st)
                        + self.self_join_rec(nu.right, v, r, metric, st)
                } else {
                    self.self_join_rec(u, nv.left, r, metric, st)
                        + self.self_join_rec(u, nv.right, r, metric, st)
                }
            }
        }
    }
}

fn build_rec<const D: usize>(
    pts: &mut [Point<D>],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node<D>>,
) -> u32 {
    let slice = &pts[start..end];
    let bbox = Aabb::from_points(slice);
    let idx = nodes.len() as u32;
    nodes.push(Node {
        bbox,
        start: start as u32,
        end: end as u32,
        left: NO_CHILD,
        right: NO_CHILD,
    });
    if end - start > LEAF_CAP {
        // Split on the widest axis at the median.
        let mut axis = 0;
        let mut widest = -1.0;
        for i in 0..D {
            let w = bbox.extent(i);
            if w > widest {
                widest = w;
                axis = i;
            }
        }
        let mid = (end - start) / 2;
        pts[start..end].select_nth_unstable_by(mid, |a, b| {
            a[axis]
                .partial_cmp(&b[axis])
                .expect("NaN coordinate in kd-tree build")
        });
        let left = build_rec(pts, start, start + mid, nodes);
        let right = build_rec(pts, start + mid, end, nodes);
        nodes[idx as usize].left = left;
        nodes[idx as usize].right = right;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point<3>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point([rng.gen(), rng.gen(), rng.gen()]))
            .collect()
    }

    fn brute_range(pts: &[Point<3>], q: &Point<3>, r: f64, m: Metric) -> u64 {
        pts.iter().filter(|p| m.dist(p, q) <= r).count() as u64
    }

    #[test]
    fn range_count_matches_brute_force() {
        let pts = random_points(500, 1);
        let tree = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let q = Point([rng.gen(), rng.gen(), rng.gen()]);
            let r = rng.gen::<f64>() * 0.5;
            for m in [Metric::L1, Metric::L2, Metric::Linf] {
                assert_eq!(tree.range_count(&q, r, m), brute_range(&pts, &q, r, m));
            }
        }
    }

    #[test]
    fn join_count_matches_brute_force() {
        let a = random_points(300, 3);
        let b = random_points(200, 4);
        let ta = KdTree::build(&a);
        let tb = KdTree::build(&b);
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            for r in [0.05, 0.2, 0.6] {
                let brute = a
                    .iter()
                    .flat_map(|pa| b.iter().map(move |pb| m.dist(pa, pb)))
                    .filter(|&d| d <= r)
                    .count() as u64;
                assert_eq!(ta.join_count(&tb, r, m), brute, "metric {m:?} r {r}");
            }
        }
    }

    #[test]
    fn self_join_matches_brute_force() {
        let a = random_points(400, 5);
        let tree = KdTree::build(&a);
        for m in [Metric::L2, Metric::Linf] {
            for r in [0.03, 0.15, 0.5] {
                let mut brute = 0u64;
                for i in 0..a.len() {
                    for j in (i + 1)..a.len() {
                        if m.dist(&a[i], &a[j]) <= r {
                            brute += 1;
                        }
                    }
                }
                assert_eq!(tree.self_join_count(r, m), brute, "metric {m:?} r {r}");
            }
        }
    }

    #[test]
    fn self_join_with_duplicates() {
        let mut a = random_points(50, 6);
        a.extend_from_slice(&a.clone()); // every point duplicated
        let tree = KdTree::build(&a);
        let mut brute = 0u64;
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                if a[i].dist_linf(&a[j]) <= 0.1 {
                    brute += 1;
                }
            }
        }
        assert_eq!(tree.self_join_count(0.1, Metric::Linf), brute);
    }

    #[test]
    fn empty_and_tiny_trees() {
        let empty = KdTree::<3>::build(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.range_count(&Point([0.0; 3]), 1.0, Metric::L2), 0);
        let one = KdTree::build(&[Point([0.5; 3])]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.self_join_count(10.0, Metric::L2), 0);
        assert_eq!(one.join_count(&empty, 1.0, Metric::L2), 0);
        assert_eq!(empty.join_count(&one, 1.0, Metric::L2), 0);
        let two = KdTree::build(&[Point([0.0; 3]), Point([0.1; 3])]);
        assert_eq!(two.self_join_count(0.2, Metric::Linf), 1);
    }

    #[test]
    fn negative_radius_counts_nothing() {
        let tree = KdTree::build(&random_points(20, 7));
        assert_eq!(tree.range_count(&Point([0.0; 3]), -1.0, Metric::L2), 0);
        assert_eq!(tree.self_join_count(-1.0, Metric::L2), 0);
    }

    #[test]
    fn saturation_at_large_radius() {
        let a = random_points(100, 8);
        let b = random_points(80, 9);
        let ta = KdTree::build(&a);
        let tb = KdTree::build(&b);
        assert_eq!(ta.join_count(&tb, 10.0, Metric::Linf), 100 * 80);
        assert_eq!(ta.self_join_count(10.0, Metric::Linf), 100 * 99 / 2);
    }

    #[test]
    fn clustered_data_builds_balanced_enough_tree() {
        // All points identical: degenerate splits must still terminate.
        let pts = vec![Point([0.3; 3]); 200];
        let tree = KdTree::build(&pts);
        assert_eq!(tree.len(), 200);
        assert_eq!(tree.range_count(&Point([0.3; 3]), 0.0, Metric::L2), 200);
        assert_eq!(tree.self_join_count(0.0, Metric::L2), 200 * 199 / 2);
    }
}
