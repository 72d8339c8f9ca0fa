//! The Lp distance family.

use crate::Point;

/// An Lp distance function.
///
/// The paper's Observation 4 shows the pair-count exponent is *invariant* to
/// the choice of Lp metric (the PC-plots for different metrics are parallel
/// lines), and the paper defaults to [`Metric::Linf`] because its formulas
/// are simplest. We carry the whole family so the invariance experiments
/// (Figure 4/5 reproduction) can be run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// Manhattan distance, `Σ |a_i − b_i|`.
    L1,
    /// Euclidean distance, `sqrt(Σ (a_i − b_i)²)`.
    L2,
    /// Chebyshev distance, `max |a_i − b_i|` — the paper's default.
    Linf,
    /// General Minkowski distance of order `p` (`p ≥ 1`).
    Lp(f64),
}

impl Metric {
    /// Distance between two points under this metric.
    #[inline]
    pub fn dist<const D: usize>(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        match *self {
            Metric::L1 => a.dist_l1(b),
            Metric::L2 => a.dist_sq(b).sqrt(),
            Metric::Linf => a.dist_linf(b),
            Metric::Lp(p) => {
                let mut acc = 0.0f64;
                for i in 0..D {
                    acc += (a[i] - b[i]).abs().powf(p);
                }
                acc.powf(1.0 / p)
            }
        }
    }

    /// *Ranking* distance: a monotone transform of [`Metric::dist`] that is
    /// cheaper to evaluate (it skips the final root). Comparisons like
    /// `dist(a,b) ≤ r` can instead test `rdist(a,b) ≤ rdist_threshold(r)`;
    /// the quadratic pair-count pass relies on this to keep the innermost
    /// loop root-free.
    #[inline]
    pub fn rdist<const D: usize>(&self, a: &Point<D>, b: &Point<D>) -> f64 {
        match *self {
            Metric::L1 => a.dist_l1(b),
            Metric::L2 => a.dist_sq(b),
            Metric::Linf => a.dist_linf(b),
            Metric::Lp(p) => {
                let mut acc = 0.0f64;
                for i in 0..D {
                    acc += (a[i] - b[i]).abs().powf(p);
                }
                acc
            }
        }
    }

    /// Maps a true distance `r` into ranking-distance space, such that
    /// `dist(a,b) <= r  ⟺  rdist(a,b) <= rdist_threshold(r)` for `r ≥ 0`.
    #[inline]
    pub fn rdist_threshold(&self, r: f64) -> f64 {
        match *self {
            Metric::L1 | Metric::Linf => r,
            Metric::L2 => r * r,
            Metric::Lp(p) => r.powf(p),
        }
    }

    /// Human-readable name, used in plot legends and CLI output.
    pub fn name(&self) -> String {
        match *self {
            Metric::L1 => "L1".to_owned(),
            Metric::L2 => "L2".to_owned(),
            Metric::Linf => "Linf".to_owned(),
            Metric::Lp(p) => format!("L{p}"),
        }
    }

    /// Volume of the unit `D`-dimensional "sphere" of this metric, relative
    /// to the unit cube — the constant `vol(p, 1)` from the paper's
    /// Equation 3. Only needed for cross-metric PC(r) conversion.
    ///
    /// For L∞ the unit ball of radius 1 is the cube of side 2 (volume `2^D`);
    /// for L1 it is the cross-polytope (`2^D / D!`); for L2 the usual
    /// Euclidean ball; for general p the formula uses the Gamma function,
    /// which we approximate via Stirling/Lanczos.
    pub fn unit_ball_volume(&self, dim: usize) -> f64 {
        let d = dim as f64;
        match *self {
            Metric::Linf => 2f64.powi(dim as i32),
            Metric::L1 => 2f64.powi(dim as i32) / factorial(dim),
            Metric::L2 => {
                // V_D = pi^{D/2} / Gamma(D/2 + 1)
                std::f64::consts::PI.powf(d / 2.0) / gamma(d / 2.0 + 1.0)
            }
            Metric::Lp(p) => {
                // V = (2 Gamma(1/p + 1))^D / Gamma(D/p + 1)
                (2.0 * gamma(1.0 / p + 1.0)).powf(d) / gamma(d / p + 1.0)
            }
        }
    }
}

fn factorial(n: usize) -> f64 {
    (1..=n).fold(1.0, |acc, k| acc * k as f64)
}

/// Lanczos approximation of the Gamma function, accurate to ~1e-10 for the
/// positive arguments we need.
fn gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_1,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_312e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_distances_match_point_kernels() {
        let a = Point([0.0, 0.0]);
        let b = Point([3.0, 4.0]);
        assert_eq!(Metric::L1.dist(&a, &b), 7.0);
        assert_eq!(Metric::L2.dist(&a, &b), 5.0);
        assert_eq!(Metric::Linf.dist(&a, &b), 4.0);
    }

    #[test]
    fn lp_2_matches_l2() {
        let a = Point([1.0, -2.0, 0.0]);
        let b = Point([4.0, 2.0, 1.0]);
        let d2 = Metric::L2.dist(&a, &b);
        let dp = Metric::Lp(2.0).dist(&a, &b);
        assert!((d2 - dp).abs() < 1e-12);
    }

    #[test]
    fn rdist_is_consistent_with_dist() {
        let a = Point([0.2, 0.9, -1.0, 3.0]);
        let b = Point([1.2, 0.4, 0.0, 2.0]);
        for m in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(1.5)] {
            let d = m.dist(&a, &b);
            let rd = m.rdist(&a, &b);
            // The defining property: thresholding is equivalent.
            let r = d + 1e-9;
            assert!(rd <= m.rdist_threshold(r));
            let r = d - 1e-9;
            assert!(rd > m.rdist_threshold(r));
        }
    }

    #[test]
    fn gamma_matches_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma(5.0) - 24.0).abs() < 1e-7);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn unit_ball_volumes_2d() {
        // Square of side 2, disk of radius 1, diamond with diagonal 2.
        assert!((Metric::Linf.unit_ball_volume(2) - 4.0).abs() < 1e-9);
        assert!((Metric::L2.unit_ball_volume(2) - std::f64::consts::PI).abs() < 1e-8);
        assert!((Metric::L1.unit_ball_volume(2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lp_volume_interpolates_between_l1_and_linf() {
        let v1 = Metric::L1.unit_ball_volume(3);
        let v2 = Metric::Lp(2.0).unit_ball_volume(3);
        let vinf = Metric::Linf.unit_ball_volume(3);
        assert!(v1 < v2 && v2 < vinf);
        let v_l2 = Metric::L2.unit_ball_volume(3);
        assert!((v2 - v_l2).abs() < 1e-6);
    }

    #[test]
    fn triangle_inequality_holds_for_all_metrics() {
        let a = Point([0.0, 1.0, 2.0]);
        let b = Point([1.5, -0.5, 0.0]);
        let c = Point([-1.0, 2.0, 1.0]);
        for m in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(2.5)] {
            assert!(m.dist(&a, &c) <= m.dist(&a, &b) + m.dist(&b, &c) + 1e-12);
        }
    }
}
