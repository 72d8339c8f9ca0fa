//! # sjpl-core — the pair-count law and BOPS
//!
//! Rust implementation of the contribution of *"Spatial Join Selectivity
//! Using Power Laws"* (Faloutsos, Seeger, Traina & Traina, SIGMOD 2000).
//!
//! The paper's pipeline, end to end:
//!
//! 1. **The pair-count function** `PC(r)` — the number of pairs of points
//!    within distance `r`, across two sets (cross join) or within one (self
//!    join, self-pairs omitted, unordered). Built exactly by [`pc_plot_cross`]
//!    / [`pc_plot_self`] with one quadratic pass (the paper's slow method).
//! 2. **Law 1 (pair-count law):** for real datasets `PC(r) = K · r^α` over a
//!    usable range of scales. [`PcPlot::fit`] recovers the pair-count
//!    exponent α and constant `K` by a log-log fit ([`PairCountLaw`]).
//! 3. **The BOPS lemma:** the Box-Occupancy-Product-Sum over a grid of cell
//!    side `s`, `BOPS(s) = Σᵢ C_{A,i} · C_{B,i}`, approximates `PC(s/2)` —
//!    computable in a single **linear** pass per grid level.
//!    [`bops_plot_cross`] / [`bops_plot_self`] implement the Figure 7
//!    algorithm; fitting the BOPS plot yields the same law orders of
//!    magnitude faster.
//! 4. **O(1) selectivity estimation:** with `(K, α)` in hand,
//!    [`PairCountLaw::pair_count`] and [`PairCountLaw::selectivity`] answer
//!    any radius in constant time. [`SelectivityEstimator`] packages the
//!    whole flow behind one call.
//! 5. **Corollaries:** the self-join exponent is the correlation fractal
//!    dimension `D₂` ([`correlation_dimension_bops`]); the law extrapolates
//!    to the minimum pair distance and the distance of the c-th closest
//!    pair ([`PairCountLaw::r_min`], [`PairCountLaw::r_c`] — the paper's
//!    Equations 11–12).
//!
//! # Example
//!
//! ```
//! use sjpl_core::{BopsConfig, EstimationMethod, SelectivityEstimator};
//! use sjpl_geom::{Point, PointSet};
//!
//! // Two point-sets (here: a toy grid and its shifted copy).
//! let a = PointSet::new(
//!     "a",
//!     (0..400)
//!         .map(|i| Point([(i % 20) as f64, (i / 20) as f64]))
//!         .collect::<Vec<_>>(),
//! );
//! let b = PointSet::new(
//!     "b",
//!     a.iter().map(|p| *p + Point([0.31, 0.17])).collect::<Vec<_>>(),
//! );
//!
//! // Fit the pair-count law in one linear BOPS pass…
//! let est = SelectivityEstimator::from_cross(
//!     &a,
//!     &b,
//!     EstimationMethod::Bops(BopsConfig::default()),
//! )
//! .unwrap();
//!
//! // …then every query is O(1).
//! let pairs = est.estimate_pair_count(2.0);
//! assert!(pairs > 0.0 && pairs <= (400.0f64 * 400.0));
//! let sel = est.estimate_selectivity(2.0);
//! assert!(sel > 0.0 && sel <= 1.0);
//!
//! // The exponent of a grid-like set sits near its dimension, 2.
//! assert!((est.law().exponent - 2.0).abs() < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bops;
mod catalog;
mod error;
mod estimator;
mod fractal;
mod invariance;
mod law;
mod pc_plot;
pub mod streaming;

/// Serializes the unit tests that capture the process-wide obs recorder:
/// each capture resets it, which would wipe a concurrent capture's data.
#[cfg(test)]
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

pub use bops::{bops_plot_cross, bops_plot_self, BopsConfig, BopsEngine, BopsPlot};
pub use catalog::LawCatalog;
pub use error::CoreError;
pub use estimator::{EstimationMethod, SelectivityEstimator};
pub use fractal::{correlation_dimension_bops, correlation_dimension_exact, generalized_dimension};
pub use invariance::{random_rotation, shuffled_copy};
pub use law::{JoinKind, LawProvenance, PairCountLaw};
pub use pc_plot::{pc_plot_cross, pc_plot_self, PcPlot, PcPlotConfig};
pub use streaming::StreamingBops;

// Re-export the fit options type callers need to tune fits.
pub use sjpl_stats::FitOptions;
