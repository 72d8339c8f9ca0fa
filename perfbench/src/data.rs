//! Seeded inputs. Every dataset is a pure function of the workload seed, so
//! the same seed gives the same points; the program only ever sees the
//! generated point-sets.

use sjpl_datagen::{galaxy, manifold, roads, sierpinski};
use sjpl_geom::PointSet;

/// Set sizes of one job: 2-d galaxy-dev, 2-d Sierpinski (cross-joined
/// with galaxy-dev), and the 16-d eigenfaces-like set (which takes BOPS's
/// HashMap path).
pub struct Sizes {
    pub galaxy: usize,
    pub sierpinski: usize,
    pub eigenfaces: usize,
}

/// The statistics job: linear-time BOPS affords a million points.
pub const LAW_BUILD_SIZES: Sizes = Sizes {
    galaxy: 1_000_000,
    sierpinski: 500_000,
    eigenfaces: 50_000,
};

/// The truth job: exact joins grow faster than linearly, so the same
/// generators run at sizes where one pass stays well under a second.
pub const EXACT_TRUTH_SIZES: Sizes = Sizes {
    galaxy: 200_000,
    sierpinski: 100_000,
    eigenfaces: 20_000,
};

/// Per-set size for the serve catalog's laws: the daemon's cost does not
/// depend on how large the fitted sets were, so set-up stays small.
pub const SERVE_SET_N: usize = 100_000;

/// Mixes the workload seed with a per-dataset tag, so each dataset gets its
/// own stream and a seed change moves every one of them.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^ (z >> 33)
}

/// The three sets the statistics and truth jobs run on.
pub struct LawSets {
    pub galaxy: PointSet<2>,
    pub sierpinski: PointSet<2>,
    pub eigenfaces: PointSet<16>,
}

impl LawSets {
    pub fn generate(seed: u64, n: &Sizes) -> LawSets {
        LawSets {
            galaxy: galaxy::correlated_pair(n.galaxy, 16, sub_seed(seed, 1)).0,
            sierpinski: sierpinski::triangle(n.sierpinski, sub_seed(seed, 2)),
            eigenfaces: manifold::eigenfaces_like(n.eigenfaces, sub_seed(seed, 3)),
        }
    }

    /// Input points across the three sets' plots (self galaxy, cross
    /// sierpinski x galaxy, self eigenfaces).
    pub fn plot_points(&self) -> usize {
        self.galaxy.len() + (self.sierpinski.len() + self.galaxy.len()) + self.eigenfaces.len()
    }
}

/// The four 2-d sets (plus one 16-d set) the serve catalog is fitted from.
pub struct ServeSets {
    pub galaxy_dev: PointSet<2>,
    pub galaxy_exp: PointSet<2>,
    pub sierpinski: PointSet<2>,
    pub streets: PointSet<2>,
    pub eigenfaces: PointSet<16>,
}

impl ServeSets {
    pub fn generate(seed: u64) -> ServeSets {
        let (galaxy_dev, galaxy_exp) =
            galaxy::correlated_pair(SERVE_SET_N, SERVE_SET_N, sub_seed(seed, 11));
        ServeSets {
            galaxy_dev,
            galaxy_exp,
            sierpinski: sierpinski::triangle(SERVE_SET_N, sub_seed(seed, 12)),
            streets: roads::street_network(SERVE_SET_N, sub_seed(seed, 13)),
            eigenfaces: manifold::eigenfaces_like(SERVE_SET_N / 10, sub_seed(seed, 14)),
        }
    }
}
