//! The Box-Occupancy-Product-Sum (BOPS) — the paper's linear-time
//! estimator of the pair-count plot (Section 4, Lemma 1, Figure 7).
//!
//! For a grid of cell side `s`, `BOPS(s) = Σᵢ C_{A,i} · C_{B,i}` where
//! `C_{A,i}`, `C_{B,i}` are the cell occupancies of the two sets. Lemma 1:
//! `PC(s/2) ≈ BOPS(s)`, so plotting `BOPS(s)` against `s/2` in log-log
//! scales and fitting a line recovers the pair-count exponent in O(N+M)
//! per grid level instead of O(N·M).
//!
//! # One counting kernel, two key schedules
//!
//! Every level is counted the same way: each point's grid cell becomes an
//! integer key, the keys are sorted, and one linear co-scan multiplies the
//! run lengths of equal keys. The occupancy products are exact integer
//! sums, so the plot is **bit-identical** whichever schedule built the
//! keys and however many threads ran. Two key schedules feed the kernel:
//!
//! * **Morton, sorted once** — the paper's dyadic schedule (`ratio = 0.5`)
//!   while `D · levels ≤ 128`. Each point is quantized **once** at the
//!   finest grid level and bit-interleaved into a Morton key
//!   ([`sjpl_index::MortonKey`], `u64` or `u128`); both key arrays are
//!   sorted once (parallel chunk-sort + merge). Because a cell of the grid
//!   `k` levels coarser is exactly the `D·k`-bit prefix of the finest-level
//!   key, *every* level is one co-scan under a prefix shift.
//! * **Per level** — every other schedule: non-dyadic ratios (coarser cells
//!   are not aligned prefixes) and `D · levels > 128` (the Morton key would
//!   overflow `u128`, e.g. 16-d with a deep dyadic schedule). At each level
//!   the points are quantized afresh and their `D` cell coordinates packed
//!   into the narrowest key holding `D · ⌈log₂ cells⌉` bits — `u64`,
//!   `u128`, else the `[u32; D]` coordinates themselves — then sorted and
//!   co-scanned at shift 0. A level whose whole key space
//!   `2^(D · ⌈log₂ cells⌉)` is no larger than the input counts into a dense
//!   array instead of sorting. Levels are independent, so they stripe over
//!   the worker threads.
//!
//! The config picks the schedule. The per-level path is **not** silent: the
//! config reports it before any work ([`BopsConfig::fallback`], which the
//! CLI prints as a one-line stderr note), the plot records why it ran
//! ([`BopsPlot::fallback`]) and the `bops.engine` event names it in traces.
//!
//! # Observability
//!
//! The hot path is instrumented with [`sjpl_obs`] spans — `bops.normalize`,
//! `bops.quantize`, `bops.sort`, `bops.scan` (the per-level path runs
//! entirely inside `bops.scan`) — plus the `bops.points` counter and the
//! `bops.levels` gauge, and every fit records `fit.r_squared` /
//! `fit.exponent` / `fit.rmse_log10` gauges. With the recorder disabled
//! (the default) each probe is a single relaxed atomic load, measured at
//! < 2% of the end-to-end BOPS cost (see `BENCH_bops.json`,
//! `obs_overhead`).

use std::ops::{BitOr, Shl};

use sjpl_geom::{NormalizeInfo, Point, PointSet};
use sjpl_index::par::{fan_out, workers};
use sjpl_index::{par_sort_unstable, MortonKey};
use sjpl_stats::{fit_loglog, FitOptions};

use crate::{CoreError, JoinKind, PairCountLaw};

/// Configuration for a BOPS plot.
#[derive(Clone, Copy, Debug)]
pub struct BopsConfig {
    /// Number of grid levels. Level `j` (0-based) uses cell side
    /// `s = 0.5 · ratio^j`, so the paper's `s = 1/2^j` progression is the
    /// default (`ratio = 0.5`).
    pub levels: u32,
    /// Side shrink factor between consecutive levels, in `(0, 1)`.
    ///
    /// **Extension over the paper:** in high embedding dimensions a dyadic
    /// progression jumps occupancies by up to `2^D` per level, leaving too
    /// few non-degenerate plot points to fit; a gentler ratio (e.g. `0.8`)
    /// samples the usable scale range much more densely at the same
    /// asymptotic cost.
    pub ratio: f64,
    /// Worker threads for quantization, sorting, and per-level counting.
    /// `1` (the default) is fully sequential; `0` means "one per available
    /// CPU".
    pub threads: usize,
}

impl Default for BopsConfig {
    fn default() -> Self {
        BopsConfig {
            levels: 12,
            ratio: 0.5,
            threads: 1,
        }
    }
}

impl BopsConfig {
    /// A dyadic configuration (`s = 1/2^j`) with the given level count —
    /// exactly the paper's Figure 7 grid schedule.
    pub fn dyadic(levels: u32) -> Self {
        BopsConfig {
            levels,
            ratio: 0.5,
            ..BopsConfig::default()
        }
    }

    /// A configuration tuned for high embedding dimensions: gentle side
    /// shrink so several levels carry non-trivial occupancy products.
    pub fn high_dimensional() -> Self {
        BopsConfig {
            levels: 16,
            ratio: 0.8,
            ..BopsConfig::default()
        }
    }

    /// The default schedule for `d`-dimensional data: above 6 dimensions
    /// the dyadic levels jump straight from "one occupied cell" to "all
    /// singletons", so [`Self::high_dimensional`] takes over from
    /// [`Self::default`].
    pub fn for_dim(d: usize) -> Self {
        if d > 6 {
            BopsConfig::high_dimensional()
        } else {
            BopsConfig::default()
        }
    }

    /// Checks the config for `D`-dimensional data and returns
    /// [`BopsPlot::fallback`]'s reason ahead of the plot: `Some(reason)`
    /// when the per-level path will run. The reason depends only on `D`,
    /// `levels` and `ratio`.
    pub fn fallback<const D: usize>(&self) -> Result<Option<String>, CoreError> {
        check_cfg(self)?;
        Ok(key_schedule::<D>(self).1)
    }

    /// Same config with a worker-thread budget (`0` = one per CPU).
    pub fn with_threads(self, threads: usize) -> Self {
        BopsConfig { threads, ..self }
    }

    /// `true` when the level schedule is the paper's dyadic one, i.e. every
    /// coarser cell is an aligned union of finer cells.
    fn is_dyadic(&self) -> bool {
        self.ratio == 0.5
    }

    fn sides(&self) -> Vec<f64> {
        // Finest first, so radii come out ascending.
        (0..self.levels)
            .rev()
            .map(|j| 0.5 * self.ratio.powi(j as i32))
            .collect()
    }
}

/// A BOPS plot: `BOPS(s)` for grid sides `s = 1/2^j`, exposed at the
/// equivalent radii `r = s/2` (in the *original* coordinate space) per
/// Lemma 1, so it is directly comparable to — and substitutable for — a
/// [`crate::PcPlot`].
#[derive(Clone, Debug)]
pub struct BopsPlot {
    radii: Vec<f64>,
    values: Vec<f64>,
    sides_normalized: Vec<f64>,
    kind: JoinKind,
    n: usize,
    m: usize,
    engine_used: &'static str,
    fallback: Option<String>,
}

impl BopsPlot {
    /// Equivalent radii `s/2` in original coordinates (descending grid
    /// side ⇒ ascending level; radii are returned ascending).
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// `BOPS(s)` values aligned with [`BopsPlot::radii`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The normalized grid sides `s = 1/2^j`, aligned with the radii.
    pub fn sides_normalized(&self) -> &[f64] {
        &self.sides_normalized
    }

    /// Cross or self join.
    pub fn kind(&self) -> JoinKind {
        self.kind
    }

    /// The key schedule that produced the values: `"sorted-morton-64"`,
    /// `"sorted-morton-128"`, or `"sorted-per-level"`.
    pub fn engine_used(&self) -> &'static str {
        self.engine_used
    }

    /// `Some(reason)` when the config ruled out the single-sort Morton keys
    /// and the per-level path ran — callers should surface this (the values
    /// are still exact, only slower).
    pub fn fallback(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// `(r, BOPS)` pairs with non-zero values, ready for a log-log fit.
    pub fn nonzero_points(&self) -> (Vec<f64>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&r, &v) in self.radii.iter().zip(self.values.iter()) {
            if v > 0.0 {
                xs.push(r);
                ys.push(v);
            }
        }
        (xs, ys)
    }

    /// Fits the pair-count law from the BOPS plot (the corollary to
    /// Lemma 1: BOPS follows the same power law with the same exponent).
    pub fn fit(&self, opts: &FitOptions) -> Result<PairCountLaw, CoreError> {
        let (xs, ys) = self.nonzero_points();
        if xs.is_empty() {
            return Err(CoreError::NoPairs);
        }
        let needed = opts.min_points.max(2);
        if xs.len() < needed {
            return Err(CoreError::NotEnoughPlotPoints {
                found: xs.len(),
                needed,
            });
        }
        let fit = fit_loglog(&xs, &ys, opts)?;
        crate::law::record_fit_obs(&fit);
        Ok(PairCountLaw {
            exponent: fit.exponent,
            k: fit.k,
            fit,
            kind: self.kind,
            n: self.n,
            m: self.m,
        })
    }

    /// Fits the law using **all** non-empty plot points, without usable-
    /// range selection (see [`crate::PcPlot::fit_full_range`] for when this
    /// is the right tool).
    pub fn fit_full_range(&self) -> Result<PairCountLaw, CoreError> {
        let (xs, ys) = self.nonzero_points();
        if xs.is_empty() {
            return Err(CoreError::NoPairs);
        }
        let fit = sjpl_stats::fit_loglog_full_range(&xs, &ys)?;
        crate::law::record_fit_obs(&fit);
        Ok(PairCountLaw {
            exponent: fit.exponent,
            k: fit.k,
            fit,
            kind: self.kind,
            n: self.n,
            m: self.m,
        })
    }
}

/// The grid coordinate of `x` (normalized to `[0, 1]`) on an axis with
/// `cells` cells of side `s`. The point at exactly 1.0 belongs to the last
/// cell. **Both key schedules quantize through this one function** — the
/// bit-exactness guarantee starts here. `check_cfg` bounds `cells` by
/// `u32::MAX`, so the saturating `u32` conversion clamps exactly like a
/// `u64` one would, at half the cost.
#[inline]
fn cell_coord(x: f64, s: f64, cells: u64) -> u32 {
    ((x / s) as u32).min((cells - 1) as u32)
}

#[inline]
fn cell_key<const D: usize>(p: &Point<D>, cells_per_axis: u64, s: f64) -> [u32; D] {
    let mut k = [0u32; D];
    for i in 0..D {
        k[i] = cell_coord(p[i], s, cells_per_axis);
    }
    k
}

#[inline]
fn cells_per_axis(s: f64) -> u64 {
    (1.0 / s).ceil() as u64
}

fn check_cfg(cfg: &BopsConfig) -> Result<(), CoreError> {
    if cfg.levels == 0 {
        return Err(CoreError::BadConfig("levels must be >= 1".to_owned()));
    }
    if !(cfg.ratio > 0.0 && cfg.ratio < 1.0) {
        return Err(CoreError::BadConfig(format!(
            "ratio {} must lie in (0, 1)",
            cfg.ratio
        )));
    }
    let finest = 0.5 * cfg.ratio.powi(cfg.levels as i32 - 1);
    if cells_per_axis(finest) > u32::MAX as u64 {
        return Err(CoreError::BadConfig(format!(
            "finest cell side {finest:.3e} exceeds the cell-coordinate width; \
             reduce levels or raise ratio"
        )));
    }
    Ok(())
}

/// How the counting kernel's keys are built: Morton keys sorted once (with
/// their width), or fresh keys at every level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeySchedule {
    Morton64,
    Morton128,
    PerLevel,
}

impl KeySchedule {
    fn name(self) -> &'static str {
        match self {
            KeySchedule::Morton64 => "sorted-morton-64",
            KeySchedule::Morton128 => "sorted-morton-128",
            KeySchedule::PerLevel => "sorted-per-level",
        }
    }
}

/// Picks the key schedule for `cfg`. The second component is the reason
/// whenever the per-level path has to run — the caller records it on the
/// plot, so the slower path is never silent.
fn key_schedule<const D: usize>(cfg: &BopsConfig) -> (KeySchedule, Option<String>) {
    let key_bits = D as u32 * cfg.levels;
    if !cfg.is_dyadic() {
        (
            KeySchedule::PerLevel,
            Some(format!(
                "non-dyadic ratio {} (coarser cells are not Morton-key prefixes)",
                cfg.ratio
            )),
        )
    } else if key_bits <= 64 {
        (KeySchedule::Morton64, None)
    } else if key_bits <= 128 {
        (KeySchedule::Morton128, None)
    } else {
        (
            KeySchedule::PerLevel,
            Some(format!(
                "key width {D} x {} levels = {key_bits} bits exceeds the 128-bit Morton key",
                cfg.levels
            )),
        )
    }
}

/// Picks the key schedule, publishing the choice (and the reason for any
/// per-level run) to the observability layer.
fn key_schedule_observed<const D: usize>(cfg: &BopsConfig) -> (KeySchedule, Option<String>) {
    let (schedule, reason) = key_schedule::<D>(cfg);
    match &reason {
        Some(reason) => {
            sjpl_obs::counter_add("bops.fallbacks", 1);
            sjpl_obs::event("bops.engine", format!("{}: {reason}", schedule.name()));
        }
        None => sjpl_obs::event("bops.engine", schedule.name()),
    }
    (schedule, reason)
}

/// Don't fan work out below this many points per thread — thread spawns
/// would dominate.
const MIN_POINTS_PER_THREAD: usize = 4096;

/// Runs `count_level` for every level, striping levels across up to
/// `threads` workers (each level is an independent count). Each spawned
/// worker's levels are timed as a `bops.scan.worker` span parented under
/// `ctx` (the enclosing `bops.scan` span), so the flight-recorder timeline
/// shows the per-thread stripe durations — the partition-skew view.
fn per_level<F>(levels: u32, threads: usize, ctx: sjpl_obs::SpanContext, count_level: F) -> Vec<u64>
where
    F: Fn(u32) -> u64 + Sync,
{
    let t = workers(levels as usize, 1, threads);
    let stripes = fan_out(0..t as u32, |w| {
        let _worker = (t > 1).then(|| sjpl_obs::span_under("bops.scan.worker", ctx));
        (w..levels).step_by(t).map(&count_level).collect::<Vec<_>>()
    });
    let mut values = vec![0u64; levels as usize];
    for (w, stripe) in stripes.into_iter().enumerate() {
        for (j, v) in stripe.into_iter().enumerate() {
            values[w + j * t] = v;
        }
    }
    values
}

// ---------------------------------------------------------------------------
// The counting kernel
// ---------------------------------------------------------------------------

/// `Σᵢ C_{A,i}·C_{B,i}`: co-scan two sorted key arrays, comparing keys
/// through `cell` (the enclosing cell of a key at the level being counted),
/// multiplying run lengths of equal cells.
fn cross_prefix_product_sum<K: Copy, C: Ord>(a: &[K], b: &[K], cell: impl Fn(K) -> C) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut total = 0u64;
    while i < a.len() && j < b.len() {
        let pa = cell(a[i]);
        let pb = cell(b[j]);
        if pa < pb {
            i += 1;
        } else if pb < pa {
            j += 1;
        } else {
            let mut ra = 1;
            while i + ra < a.len() && cell(a[i + ra]) == pa {
                ra += 1;
            }
            let mut rb = 1;
            while j + rb < b.len() && cell(b[j + rb]) == pb {
                rb += 1;
            }
            total += ra as u64 * rb as u64;
            i += ra;
            j += rb;
        }
    }
    total
}

/// `Σᵢ C_i(C_i−1)/2`: run lengths of equal cells in one sorted key array.
fn self_prefix_pair_sum<K: Copy, C: Eq>(a: &[K], cell: impl Fn(K) -> C) -> u64 {
    let mut i = 0usize;
    let mut total = 0u64;
    while i < a.len() {
        let p = cell(a[i]);
        let mut run = 1;
        while i + run < a.len() && cell(a[i + run]) == p {
            run += 1;
        }
        total += run as u64 * (run as u64 - 1) / 2;
        i += run;
    }
    total
}

// ---------------------------------------------------------------------------
// Morton keys, sorted once
// ---------------------------------------------------------------------------

/// Quantizes every point at the finest dyadic level and interleaves the
/// coordinates into Morton keys, fanning out over `threads`.
fn morton_keys<K: MortonKey, const D: usize>(
    pts: &[Point<D>],
    levels: u32,
    threads: usize,
) -> Vec<K> {
    let s = 0.5f64.powi(levels as i32);
    let cells = 1u64 << levels;
    let mut keys = vec![K::default(); pts.len()];
    let chunk = pts
        .len()
        .div_ceil(workers(pts.len(), MIN_POINTS_PER_THREAD, threads))
        .max(1);
    let chunks = keys.chunks_mut(chunk).zip(pts.chunks(chunk));
    // `move`: the key parameters travel by value, so the loop keeps them in
    // registers instead of reloading them through a captured reference.
    fan_out(chunks, move |(kc, pc)| {
        for (k, p) in kc.iter_mut().zip(pc) {
            *k = K::interleave(&cell_key(p, cells, s), levels);
        }
    });
    keys
}

/// Values for all levels (finest first) from one sort of the Morton keys:
/// a cross join when `b` is given, else a self join of `a`.
fn morton_values<K: MortonKey, const D: usize>(
    a: &[Point<D>],
    b: Option<&[Point<D>]>,
    levels: u32,
    threads: usize,
) -> Vec<u64> {
    let quantize = sjpl_obs::span("bops.quantize");
    let mut ka = morton_keys::<K, D>(a, levels, threads);
    let mut kb = b.map(|b| morton_keys::<K, D>(b, levels, threads));
    quantize.close();
    let sort = sjpl_obs::span("bops.sort");
    par_sort_unstable(&mut ka, threads);
    if let Some(kb) = &mut kb {
        par_sort_unstable(kb, threads);
    }
    sort.close();
    let scan = sjpl_obs::span("bops.scan");
    per_level(levels, threads, scan.context(), |i| {
        let shift = D as u32 * i;
        match &kb {
            Some(kb) => cross_prefix_product_sum(&ka, kb, |k| k.shr(shift)),
            None => self_prefix_pair_sum(&ka, |k| k.shr(shift)),
        }
    })
}

// ---------------------------------------------------------------------------
// Per-level keys
// ---------------------------------------------------------------------------

/// Packs `D` cell coordinates of `bits` bits each into one integer key.
#[inline]
fn pack<K, const D: usize>(coords: [u32; D], bits: u32) -> K
where
    K: From<u32> + Shl<u32, Output = K> + BitOr<Output = K>,
{
    coords
        .into_iter()
        .fold(K::from(0), |k, c| (k << bits) | K::from(c))
}

/// One level's sum from sorted keys: the cross join when `b` is given, else
/// the self join of `a`.
fn sorted_level<K: Ord + Copy, const D: usize>(
    a: &[Point<D>],
    b: Option<&[Point<D>]>,
    key: impl Fn(&Point<D>) -> K,
) -> u64 {
    let sorted_keys = |pts: &[Point<D>]| {
        let mut keys: Vec<K> = pts.iter().map(&key).collect();
        keys.sort_unstable();
        keys
    };
    let ka = sorted_keys(a);
    match b {
        Some(b) => cross_prefix_product_sum(&ka, &sorted_keys(b), |k| k),
        None => self_prefix_pair_sum(&ka, |k| k),
    }
}

/// The same sum counted into a dense array of `space` cells — cheaper than
/// sorting once the level's whole key space is no larger than the input.
fn dense_level<const D: usize>(
    a: &[Point<D>],
    b: Option<&[Point<D>]>,
    space: usize,
    key: impl Fn(&Point<D>) -> u64,
) -> u64 {
    let mut count = vec![0u64; space];
    let mut total = 0u64;
    match b {
        Some(b) => {
            for p in a {
                count[key(p) as usize] += 1;
            }
            for p in b {
                total += count[key(p) as usize];
            }
        }
        // Each point pairs with the points already counted in its cell.
        None => {
            for p in a {
                let c = &mut count[key(p) as usize];
                total += *c;
                *c += 1;
            }
        }
    }
    total
}

/// One level of the per-level path at cell side `s`, keyed by the
/// narrowest representation of the level's cell coordinates.
fn per_level_count<const D: usize>(a: &[Point<D>], b: Option<&[Point<D>]>, s: f64) -> u64 {
    let cells = cells_per_axis(s);
    let bits = u64::BITS - (cells - 1).leading_zeros();
    let key_bits = D as u32 * bits;
    let coords = |p: &Point<D>| cell_key(p, cells, s);
    let n = a.len() + b.map_or(0, <[_]>::len);
    if key_bits < 64 && 1u64 << key_bits <= n as u64 {
        dense_level(a, b, 1 << key_bits, |p| pack::<u64, D>(coords(p), bits))
    } else if key_bits <= 64 {
        sorted_level(a, b, |p| pack::<u64, D>(coords(p), bits))
    } else if key_bits <= 128 {
        sorted_level(a, b, |p| pack::<u128, D>(coords(p), bits))
    } else {
        sorted_level(a, b, coords)
    }
}

// ---------------------------------------------------------------------------
// Public plot builders
// ---------------------------------------------------------------------------

/// Builds the BOPS plot of a cross join — Figure 7's product-sums, counted
/// under the key schedule the config selects (see the module docs). O(N+M)
/// per grid level either way, up to the sort; the Morton schedule
/// quantizes and sorts only once for all levels.
pub fn bops_plot_cross<const D: usize>(
    a: &PointSet<D>,
    b: &PointSet<D>,
    cfg: &BopsConfig,
) -> Result<BopsPlot, CoreError> {
    plot(a, Some(b), cfg)
}

/// Builds the BOPS plot of a self join. With `A == B` the product-sum
/// specializes to `Σᵢ C_i(C_i − 1)/2` — each cell's unordered within-cell
/// pairs, matching Definition 1's self-join convention (the classic
/// `Σ C_i²` box-counting sum has the same slope but double-counts pairs
/// and includes self-pairs, biasing the *constant* K).
pub fn bops_plot_self<const D: usize>(
    a: &PointSet<D>,
    cfg: &BopsConfig,
) -> Result<BopsPlot, CoreError> {
    plot(a, None, cfg)
}

/// The cross join of `a` and `b` when `b` is given, else the self join of
/// `a`.
pub(crate) fn plot<const D: usize>(
    a: &PointSet<D>,
    b: Option<&PointSet<D>>,
    cfg: &BopsConfig,
) -> Result<BopsPlot, CoreError> {
    check_cfg(cfg)?;
    let (schedule, fallback) = key_schedule_observed::<D>(cfg);
    let (kind, m, too_small) = match b {
        Some(b) => (JoinKind::Cross, b.len(), a.is_empty() || b.is_empty()),
        None => (JoinKind::SelfJoin, a.len(), a.len() < 2),
    };
    if too_small {
        return Err(CoreError::Geom(sjpl_geom::GeomError::EmptySet));
    }
    let points = a.len() + b.map_or(0, PointSet::len);
    sjpl_obs::counter_add("bops.plots", 1);
    sjpl_obs::counter_add("bops.points", points as u64);
    sjpl_obs::gauge_set("bops.levels", cfg.levels as f64);
    let _plot = sjpl_obs::span_with("bops.plot", || {
        format!(
            "join={} points={points} levels={} engine={}",
            if b.is_some() { "cross" } else { "self" },
            cfg.levels,
            schedule.name()
        )
    });
    let normalize = sjpl_obs::span("bops.normalize");
    let sets: Vec<&PointSet<D>> = std::iter::once(a).chain(b).collect();
    let info = NormalizeInfo::from_sets(&sets)?;
    let na = a.normalized(&info);
    let nb = b.map(|b| b.normalized(&info));
    normalize.close();
    let (pa, pb) = (na.points(), nb.as_ref().map(PointSet::points));
    let sides = cfg.sides();
    let values = match schedule {
        KeySchedule::Morton64 => morton_values::<u64, D>(pa, pb, cfg.levels, cfg.threads),
        KeySchedule::Morton128 => morton_values::<u128, D>(pa, pb, cfg.levels, cfg.threads),
        KeySchedule::PerLevel => {
            let scan = sjpl_obs::span("bops.scan");
            per_level(cfg.levels, cfg.threads, scan.context(), |i| {
                per_level_count(pa, pb, sides[i as usize])
            })
        }
    };
    Ok(BopsPlot {
        radii: sides.iter().map(|&s| info.invert_dist(s / 2.0)).collect(),
        values: values.into_iter().map(|v| v as f64).collect(),
        sides_normalized: sides,
        kind,
        n: a.len(),
        m,
        engine_used: schedule.name(),
        fallback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, seed: u64) -> PointSet<2> {
        sjpl_datagen::uniform::unit_cube::<2>(n, seed)
    }

    #[test]
    fn coarsest_level_sums_to_full_product() {
        // At j = 0 the whole space would be one cell; at j = 1 there are
        // 2^D cells. Sanity-check against a hand construction: two points
        // per quadrant.
        let a = PointSet::new(
            "a",
            vec![
                Point([0.1, 0.1]),
                Point([0.9, 0.1]),
                Point([0.1, 0.9]),
                Point([0.9, 0.9]),
            ],
        );
        let b = a.clone();
        let cfg = BopsConfig::dyadic(1);
        let plot = bops_plot_cross(&a, &b, &cfg).unwrap();
        // Each quadrant holds 1 a-point and 1 b-point: BOPS = 4.
        assert_eq!(plot.values(), &[4.0]);
    }

    #[test]
    fn self_bops_counts_within_cell_unordered_pairs() {
        // 3 points in one quadrant, 1 in another: Σ C(C−1)/2 = 3.
        let a = PointSet::new(
            "a",
            vec![
                Point([0.1, 0.1]),
                Point([0.2, 0.1]),
                Point([0.1, 0.2]),
                Point([0.9, 0.9]),
            ],
        );
        let plot = bops_plot_self(&a, &BopsConfig::dyadic(1)).unwrap();
        assert_eq!(plot.values(), &[3.0]);
        assert_eq!(plot.kind(), JoinKind::SelfJoin);
    }

    #[test]
    fn radii_are_ascending_and_match_levels() {
        let a = uniform(200, 1);
        let b = uniform(200, 2);
        let cfg = BopsConfig::dyadic(6);
        let plot = bops_plot_cross(&a, &b, &cfg).unwrap();
        assert_eq!(plot.radii().len(), 6);
        for w in plot.radii().windows(2) {
            assert!(w[0] < w[1]);
        }
        // Finest side = 2^-6, coarsest = 2^-1.
        assert!((plot.sides_normalized()[0] - 0.015625).abs() < 1e-12);
        assert!((plot.sides_normalized()[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bops_values_are_monotone_in_cell_side() {
        // Coarser cells can only merge cells, which never decreases the
        // product-sum.
        let a = uniform(500, 3);
        let b = uniform(400, 4);
        let plot = bops_plot_cross(&a, &b, &BopsConfig::dyadic(8)).unwrap();
        for w in plot.values().windows(2) {
            assert!(w[0] <= w[1], "BOPS not monotone: {w:?}");
        }
        // At a side of 1/2 the four-cell sum is within [NM/4, NM].
        let last = *plot.values().last().unwrap();
        assert!(last <= (500.0 * 400.0));
    }

    #[test]
    fn uniform_2d_bops_exponent_is_near_2() {
        let a = uniform(6_000, 5);
        let b = uniform(6_000, 6);
        let plot = bops_plot_cross(&a, &b, &BopsConfig::dyadic(10)).unwrap();
        let law = plot.fit(&FitOptions::default()).unwrap();
        assert!(
            (law.exponent - 2.0).abs() < 0.25,
            "uniform BOPS exponent {}",
            law.exponent
        );
    }

    #[test]
    fn normalization_maps_radii_back_to_original_units() {
        // The same data at 10× scale must give radii 10× larger with the
        // same BOPS values (Observation 2 in action).
        let a = uniform(300, 7);
        let scaled = PointSet::new("scaled", a.iter().map(|p| *p * 10.0).collect::<Vec<_>>());
        let p1 = bops_plot_self(&a, &BopsConfig::dyadic(6)).unwrap();
        let p2 = bops_plot_self(&scaled, &BopsConfig::dyadic(6)).unwrap();
        assert_eq!(p1.values(), p2.values());
        for (r1, r2) in p1.radii().iter().zip(p2.radii().iter()) {
            assert!((r2 / r1 - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let a = uniform(50, 8);
        assert!(matches!(
            bops_plot_self(&a, &BopsConfig::dyadic(0)),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            bops_plot_self(&a, &BopsConfig::dyadic(32)),
            Err(CoreError::BadConfig(_))
        ));
        let empty = PointSet::<2>::empty("e");
        assert!(bops_plot_self(&empty, &BopsConfig::default()).is_err());
        assert!(bops_plot_cross(&empty, &a, &BopsConfig::default()).is_err());
    }

    #[test]
    fn cell_coord_matches_the_u64_formula() {
        let old = |x: f64, s: f64, cells: u64| ((x / s) as u64).min(cells - 1) as u32;
        let dyadic = (1..=31).map(|j| 0.5f64.powi(j));
        let gentle = (0..95).map(|j| 0.5 * 0.8f64.powi(j));
        for s in dyadic.chain(gentle) {
            let cells = cells_per_axis(s);
            assert!(cells <= u32::MAX as u64, "side {s} outside check_cfg");
            let ks = (0..64).chain([cells - 1, cells, cells + 1]);
            for k in ks {
                let ks = k as f64 * s;
                for x in [0.0, 1.0, ks, ks.next_up(), ks.next_down(), 2.0, 1e12] {
                    assert_eq!(
                        cell_coord(x, s, cells),
                        old(x, s, cells),
                        "x = {x:e}, s = {s:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_resolution_picks_the_expected_engine() {
        assert_eq!(
            key_schedule::<2>(&BopsConfig::dyadic(12)).0,
            KeySchedule::Morton64
        );
        assert_eq!(
            key_schedule::<8>(&BopsConfig::dyadic(12)).0,
            KeySchedule::Morton128
        );
        assert_eq!(
            key_schedule::<8>(&BopsConfig::dyadic(16)).0,
            KeySchedule::Morton128
        );
        assert_eq!(
            key_schedule::<16>(&BopsConfig::dyadic(12)).0,
            KeySchedule::PerLevel
        );
        assert_eq!(
            key_schedule::<2>(&BopsConfig::high_dimensional()).0,
            KeySchedule::PerLevel
        );
    }

    #[test]
    fn per_level_fallback_is_reported_not_silent() {
        // 16-d x 12 dyadic levels: 192 key bits — the per-level path runs
        // and the plot says why.
        let (_, reason) = key_schedule::<16>(&BopsConfig::dyadic(12));
        assert!(reason.unwrap().contains("192"));
        // Non-dyadic ratio: the other trigger.
        let (_, reason) = key_schedule::<2>(&BopsConfig::high_dimensional());
        assert!(reason.unwrap().contains("non-dyadic"));
        // End to end: the plot carries the reason and the schedule name.
        let hd = sjpl_datagen::manifold::eigenfaces_like(100, 1);
        let plot = bops_plot_self(&hd, &BopsConfig::dyadic(12)).unwrap();
        assert_eq!(plot.engine_used(), "sorted-per-level");
        assert!(plot.fallback().is_some());
        // The config gives the same reason before any work.
        let ahead = BopsConfig::dyadic(12).fallback::<16>().unwrap();
        assert_eq!(ahead.as_deref(), plot.fallback());
        let fast = bops_plot_self(&uniform(100, 2), &BopsConfig::dyadic(12)).unwrap();
        assert_eq!(fast.engine_used(), "sorted-morton-64");
        assert!(fast.fallback().is_none());
        assert_eq!(BopsConfig::dyadic(12).fallback::<2>().unwrap(), None);
        // A config the plot would reject is rejected here too.
        let bad = BopsConfig {
            ratio: 1.5,
            ..BopsConfig::default()
        };
        assert!(matches!(bad.fallback::<2>(), Err(CoreError::BadConfig(_))));
    }

    #[test]
    fn for_dim_switches_to_the_gentle_schedule_above_six_dimensions() {
        for d in [1, 2, 6] {
            let cfg = BopsConfig::for_dim(d);
            assert_eq!((cfg.levels, cfg.ratio), (12, 0.5), "d = {d}");
        }
        for d in [7, 16] {
            let cfg = BopsConfig::for_dim(d);
            assert_eq!((cfg.levels, cfg.ratio), (16, 0.8), "d = {d}");
        }
    }

    #[test]
    fn bops_emits_stage_spans_and_counters() {
        let _obs = crate::obs_lock();
        // NOTE: the recorder is process-global and sibling tests run
        // concurrently, so assert lower bounds, not exact values.
        let a = uniform(5_000, 31);
        let b = uniform(5_000, 32);
        let (plot, snap) =
            sjpl_obs::capture(|| bops_plot_cross(&a, &b, &BopsConfig::dyadic(8)).unwrap());
        for span in ["bops.normalize", "bops.quantize", "bops.sort", "bops.scan"] {
            assert!(snap.span(span).is_some(), "missing span {span}");
        }
        assert!(snap.counter("bops.points").unwrap() >= 10_000);
        assert!(snap.counter("bops.plots").unwrap() >= 1);
        assert!(snap.gauge("bops.levels").is_some());
        // Fitting afterwards records the fit gauges.
        let (_, snap) = sjpl_obs::capture(|| plot.fit(&FitOptions::default()).unwrap());
        let r2 = snap.gauge("fit.r_squared").unwrap();
        assert!(r2 > 0.0 && r2 <= 1.0);
        assert!(snap.gauge("fit.exponent").is_some());
    }

    /// Both key schedules agree on dyadic configs, where both can run: the
    /// per-level keys (dense at the coarse levels, `u64` then `u128` at the
    /// fine ones) against one sort of the Morton keys.
    fn assert_schedules_agree<K: MortonKey, const D: usize>(
        a: &[Point<D>],
        b: &[Point<D>],
        levels: u32,
    ) {
        let sides = BopsConfig::dyadic(levels).sides();
        let per_level = |b: Option<&[Point<D>]>| -> Vec<u64> {
            sides.iter().map(|&s| per_level_count(a, b, s)).collect()
        };
        assert_eq!(
            morton_values::<K, D>(a, Some(b), levels, 1),
            per_level(Some(b)),
            "{D}-d cross"
        );
        assert_eq!(
            morton_values::<K, D>(a, None, levels, 1),
            per_level(None),
            "{D}-d self"
        );
    }

    #[test]
    fn engines_agree_bit_for_bit_on_cross_and_self() {
        let a = uniform(1_500, 21);
        let b = uniform(1_200, 22);
        assert_schedules_agree::<u64, 2>(a.points(), b.points(), 10);
        let a = sjpl_datagen::uniform::unit_cube::<8>(600, 23);
        let b = sjpl_datagen::uniform::unit_cube::<8>(500, 24);
        assert_schedules_agree::<u128, 8>(a.points(), b.points(), 12);
    }

    #[test]
    fn thread_counts_do_not_change_values() {
        let a = uniform(3_000, 23);
        let b = uniform(2_000, 24);
        for cfg in [BopsConfig::dyadic(9), BopsConfig::high_dimensional()] {
            let seq = bops_plot_cross(&a, &b, &cfg).unwrap();
            for threads in [2, 4, 16, 0] {
                let par = bops_plot_cross(&a, &b, &cfg.with_threads(threads)).unwrap();
                assert_eq!(seq.values(), par.values(), "{cfg:?} threads {threads}");
            }
        }
    }

    #[test]
    fn separated_sets_fit_yields_no_pairs() {
        let a = PointSet::new("a", vec![Point([0.0, 0.0]); 3]);
        let b = PointSet::new("b", vec![Point([1000.0, 1000.0]); 3]);
        let plot = bops_plot_cross(&a, &b, &BopsConfig::dyadic(8)).unwrap();
        assert!(matches!(
            plot.fit(&FitOptions::default()),
            Err(CoreError::NoPairs)
        ));
    }

    #[test]
    fn point_at_upper_boundary_is_counted() {
        // x = 1.0 after normalization must land in the last cell, not fall
        // off the grid.
        let a = PointSet::new("a", vec![Point([0.0, 0.0]), Point([1.0, 1.0])]);
        let plot = bops_plot_self(&a, &BopsConfig::dyadic(3)).unwrap();
        // No panic and zero within-cell pairs at every level (points are in
        // opposite corners).
        assert!(plot.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn high_dimensional_bops_works() {
        let a = sjpl_datagen::manifold::eigenfaces_like(800, 9);
        let plot = bops_plot_self(&a, &BopsConfig::dyadic(8)).unwrap();
        assert_eq!(plot.values().len(), 8);
        assert!(*plot.values().last().unwrap() > 0.0);
    }
}
