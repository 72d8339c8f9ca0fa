//! The Box-Occupancy-Product-Sum (BOPS) — the paper's linear-time
//! estimator of the pair-count plot (Section 4, Lemma 1, Figure 7).
//!
//! For a grid of cell side `s`, `BOPS(s) = Σᵢ C_{A,i} · C_{B,i}` where
//! `C_{A,i}`, `C_{B,i}` are the cell occupancies of the two sets. Lemma 1:
//! `PC(s/2) ≈ BOPS(s)`, so plotting `BOPS(s)` against `s/2` in log-log
//! scales and fitting a line recovers the pair-count exponent in O(N+M)
//! per grid level instead of O(N·M).
//!
//! # Engines
//!
//! Two interchangeable engines produce **bit-identical** `BOPS(s)` values
//! (the occupancy products are exact integer sums, independent of
//! evaluation order):
//!
//! * [`BopsEngine::SortedMorton`] — the fast path for the paper's dyadic
//!   schedule (`ratio = 0.5`). Each point is quantized **once** at the
//!   finest grid level and bit-interleaved into a Morton key
//!   ([`sjpl_index::MortonKey`]); both key arrays are sorted once
//!   (parallel chunk-sort + merge). Because a cell of the grid `k` levels
//!   coarser is exactly the `D·k`-bit prefix of the finest-level key,
//!   *every* level's product-sum is then one linear co-scan of the two
//!   sorted arrays under a prefix shift — zero hashing, zero per-level
//!   allocation, and the levels scan in parallel.
//! * [`BopsEngine::HashMap`] — the Figure 7 algorithm, verbatim: one
//!   occupancy map per level, memory proportional to *occupied* cells.
//!   Required for non-dyadic ratios (where coarser cells are not aligned
//!   prefixes) and for `D · levels > 128` (where the Morton key overflows
//!   `u128`, e.g. 16-d with a deep dyadic schedule). Hashing is FxHash —
//!   cell coordinates need no DoS resistance — and with `threads > 1`
//!   each thread fills a partial map over its chunk of the input, merged
//!   at the end.
//!
//! [`BopsEngine::Auto`] (the default) picks SortedMorton whenever the
//! config allows it. When it cannot (non-dyadic ratio, or `D · levels >
//! 128`), the fallback to HashMap is **not** silent: the plot records it
//! ([`BopsPlot::fallback`]) and an `sjpl-obs` event is emitted, so callers
//! (the CLI prints a one-line stderr note) and traces both see the switch.
//!
//! # Observability
//!
//! The hot path is instrumented with [`sjpl_obs`] spans — `bops.normalize`,
//! `bops.quantize`, `bops.sort`, `bops.scan` — plus the `bops.points`
//! counter and the `bops.levels` gauge, and every fit records `fit.r_squared`
//! / `fit.exponent` / `fit.rmse_log10` gauges. With the recorder disabled
//! (the default) each probe is a single relaxed atomic load, measured at
//! < 2% of the end-to-end BOPS cost (see `BENCH_bops.json`,
//! `obs_overhead`).

use sjpl_geom::{NormalizeInfo, Point, PointSet};
use sjpl_index::{par_sort_unstable, FxHashMap, MortonKey};
use sjpl_stats::{fit_loglog, FitOptions};

use crate::{CoreError, JoinKind, PairCountLaw};

/// Which counting engine evaluates the occupancy product-sums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BopsEngine {
    /// Sorted-Morton when the config is dyadic and the key fits 128 bits,
    /// HashMap otherwise.
    #[default]
    Auto,
    /// Force the single-sort Morton-key engine. Construction fails with
    /// [`CoreError::BadConfig`] if `ratio != 0.5` or `D · levels > 128`.
    SortedMorton,
    /// Force the per-level occupancy-map engine.
    HashMap,
}

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
    /// Counting engine; see [`BopsEngine`].
    pub engine: BopsEngine,
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
            engine: BopsEngine::Auto,
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

    /// Same config with a forced engine.
    pub fn with_engine(self, engine: BopsEngine) -> Self {
        BopsConfig { engine, ..self }
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

    /// The engine that actually produced the values after `Auto`
    /// resolution: `"sorted-morton-64"`, `"sorted-morton-128"`, or
    /// `"hashmap"`.
    pub fn engine_used(&self) -> &'static str {
        self.engine_used
    }

    /// `Some(reason)` when [`BopsEngine::Auto`] could not use the fast
    /// Morton engine and fell back to the per-level HashMap pass — callers
    /// should surface this (the values are still exact, only slower).
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
/// cell. **Both engines must quantize through this one function** — the
/// bit-exactness guarantee starts here.
#[inline]
fn cell_coord(x: f64, s: f64, cells: u64) -> u32 {
    ((x / s) as u64).min(cells - 1) as u32
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

/// The engine actually used after `Auto` resolution, including the Morton
/// key width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ResolvedEngine {
    Sorted64,
    Sorted128,
    Hash,
}

impl ResolvedEngine {
    fn name(self) -> &'static str {
        match self {
            ResolvedEngine::Sorted64 => "sorted-morton-64",
            ResolvedEngine::Sorted128 => "sorted-morton-128",
            ResolvedEngine::Hash => "hashmap",
        }
    }
}

/// Resolves the configured engine. The second component is `Some(reason)`
/// when `Auto` *wanted* the Morton engine but had to fall back to the
/// HashMap pass — the caller records it on the plot and emits an obs event,
/// so the switch is never silent.
fn resolve_engine<const D: usize>(
    cfg: &BopsConfig,
) -> Result<(ResolvedEngine, Option<String>), CoreError> {
    let key_bits = D as u32 * cfg.levels;
    match cfg.engine {
        BopsEngine::HashMap => Ok((ResolvedEngine::Hash, None)),
        BopsEngine::SortedMorton => {
            if !cfg.is_dyadic() {
                Err(CoreError::BadConfig(format!(
                    "SortedMorton engine requires the dyadic schedule (ratio = 0.5), got {}",
                    cfg.ratio
                )))
            } else if key_bits > 128 {
                Err(CoreError::BadConfig(format!(
                    "SortedMorton engine needs D x levels <= 128 key bits, got {D} x {} = \
                     {key_bits}; reduce levels or use the HashMap engine",
                    cfg.levels
                )))
            } else if key_bits <= 64 {
                Ok((ResolvedEngine::Sorted64, None))
            } else {
                Ok((ResolvedEngine::Sorted128, None))
            }
        }
        BopsEngine::Auto => {
            if cfg.is_dyadic() && key_bits <= 64 {
                Ok((ResolvedEngine::Sorted64, None))
            } else if cfg.is_dyadic() && key_bits <= 128 {
                Ok((ResolvedEngine::Sorted128, None))
            } else if !cfg.is_dyadic() {
                Ok((
                    ResolvedEngine::Hash,
                    Some(format!(
                        "non-dyadic ratio {} (coarser cells are not Morton-key prefixes)",
                        cfg.ratio
                    )),
                ))
            } else {
                Ok((
                    ResolvedEngine::Hash,
                    Some(format!(
                        "key width {D} x {} levels = {key_bits} bits exceeds the 128-bit \
                         Morton key",
                        cfg.levels
                    )),
                ))
            }
        }
    }
}

/// Resolves the engine, publishing the decision (and any fallback) to the
/// observability layer.
fn resolve_engine_observed<const D: usize>(
    cfg: &BopsConfig,
) -> Result<(ResolvedEngine, Option<String>), CoreError> {
    let (engine, fallback) = resolve_engine::<D>(cfg)?;
    if let Some(reason) = &fallback {
        sjpl_obs::counter_add("bops.fallbacks", 1);
        sjpl_obs::event(
            "bops.engine_fallback",
            format!("Auto fell back to the HashMap engine: {reason}"),
        );
    } else {
        sjpl_obs::event("bops.engine", engine.name());
    }
    Ok((engine, fallback))
}

fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Don't fan work out below this many points per thread — thread spawns
/// would dominate.
const MIN_POINTS_PER_THREAD: usize = 4096;

fn data_threads(len: usize, threads: usize) -> usize {
    threads.max(1).min((len / MIN_POINTS_PER_THREAD).max(1))
}

// ---------------------------------------------------------------------------
// Sorted-Morton engine
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
    let key_of = |p: &Point<D>| {
        let mut idx = [0u32; D];
        for d in 0..D {
            idx[d] = cell_coord(p[d], s, cells);
        }
        K::interleave(&idx, levels)
    };
    let mut keys = vec![K::default(); pts.len()];
    let t = data_threads(pts.len(), threads);
    if t <= 1 {
        for (k, p) in keys.iter_mut().zip(pts) {
            *k = key_of(p);
        }
    } else {
        let chunk = pts.len().div_ceil(t);
        let key_of = &key_of;
        crossbeam::thread::scope(|sc| {
            for (kc, pc) in keys.chunks_mut(chunk).zip(pts.chunks(chunk)) {
                sc.spawn(move |_| {
                    for (k, p) in kc.iter_mut().zip(pc) {
                        *k = key_of(p);
                    }
                });
            }
        })
        .expect("morton-key worker panicked");
    }
    keys
}

/// Runs `count_level` for every level, striping levels across up to
/// `threads` workers (each level is an independent linear scan). Each
/// worker's scan is timed as a `bops.scan.worker` span parented under
/// `ctx` (the enclosing `bops.scan` span), so the flight-recorder timeline
/// shows the per-thread stripe durations — the partition-skew view.
fn per_level<F>(levels: u32, threads: usize, ctx: sjpl_obs::SpanContext, count_level: F) -> Vec<u64>
where
    F: Fn(u32) -> u64 + Sync,
{
    let t = threads.max(1).min(levels as usize);
    if t <= 1 {
        return (0..levels).map(&count_level).collect();
    }
    let mut values = vec![0u64; levels as usize];
    let count_level = &count_level;
    let partials = crossbeam::thread::scope(|sc| {
        let handles: Vec<_> = (0..t)
            .map(|w| {
                sc.spawn(move |_| {
                    let _worker = sjpl_obs::span_under("bops.scan.worker", ctx);
                    (w as u32..levels)
                        .step_by(t)
                        .map(|i| (i, count_level(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("level worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("crossbeam scope failed");
    for (i, v) in partials.into_iter().flatten() {
        values[i as usize] = v;
    }
    values
}

/// `Σᵢ C_{A,i}·C_{B,i}` at one dyadic level: co-scan two sorted key arrays,
/// comparing keys truncated by `shift` bits (the enclosing coarse cell),
/// multiplying run lengths of equal prefixes.
fn cross_prefix_product_sum<K: MortonKey>(a: &[K], b: &[K], shift: u32) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut total = 0u64;
    while i < a.len() && j < b.len() {
        let pa = a[i].shr(shift);
        let pb = b[j].shr(shift);
        if pa < pb {
            i += 1;
        } else if pb < pa {
            j += 1;
        } else {
            let mut ra = 1;
            while i + ra < a.len() && a[i + ra].shr(shift) == pa {
                ra += 1;
            }
            let mut rb = 1;
            while j + rb < b.len() && b[j + rb].shr(shift) == pb {
                rb += 1;
            }
            total += ra as u64 * rb as u64;
            i += ra;
            j += rb;
        }
    }
    total
}

/// `Σᵢ C_i(C_i−1)/2` at one dyadic level: run lengths of equal prefixes in
/// one sorted key array.
fn self_prefix_pair_sum<K: MortonKey>(a: &[K], shift: u32) -> u64 {
    let mut i = 0usize;
    let mut total = 0u64;
    while i < a.len() {
        let p = a[i].shr(shift);
        let mut run = 1;
        while i + run < a.len() && a[i + run].shr(shift) == p {
            run += 1;
        }
        total += run as u64 * (run as u64 - 1) / 2;
        i += run;
    }
    total
}

/// Values for all levels (finest first) via the single-sort engine, cross
/// join.
fn sorted_values_cross<K: MortonKey, const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    levels: u32,
    threads: usize,
) -> Vec<u64> {
    let quantize = sjpl_obs::span("bops.quantize");
    let mut ka = morton_keys::<K, D>(a, levels, threads);
    let mut kb = morton_keys::<K, D>(b, levels, threads);
    quantize.close();
    let sort = sjpl_obs::span("bops.sort");
    par_sort_unstable(&mut ka, threads);
    par_sort_unstable(&mut kb, threads);
    sort.close();
    let scan = sjpl_obs::span("bops.scan");
    per_level(levels, threads, scan.context(), |i| {
        cross_prefix_product_sum(&ka, &kb, D as u32 * i)
    })
}

/// Values for all levels (finest first) via the single-sort engine, self
/// join.
fn sorted_values_self<K: MortonKey, const D: usize>(
    a: &[Point<D>],
    levels: u32,
    threads: usize,
) -> Vec<u64> {
    let quantize = sjpl_obs::span("bops.quantize");
    let mut ka = morton_keys::<K, D>(a, levels, threads);
    quantize.close();
    let sort = sjpl_obs::span("bops.sort");
    par_sort_unstable(&mut ka, threads);
    sort.close();
    let scan = sjpl_obs::span("bops.scan");
    per_level(levels, threads, scan.context(), |i| {
        self_prefix_pair_sum(&ka, D as u32 * i)
    })
}

// ---------------------------------------------------------------------------
// HashMap engine (Figure 7 verbatim, FxHash, thread-partial maps)
// ---------------------------------------------------------------------------

/// Splits `pts` into exactly `t` chunks (trailing ones possibly empty) so
/// worker `i` always has a slice to own.
fn chunks_padded<T>(pts: &[T], t: usize) -> Vec<&[T]> {
    let chunk = pts.len().div_ceil(t).max(1);
    let mut out: Vec<&[T]> = pts.chunks(chunk).collect();
    out.resize(t, &[]);
    out
}

/// One level of the cross-join product-sum via occupancy maps.
fn hashmap_level_cross<const D: usize>(
    a: &[Point<D>],
    b: &[Point<D>],
    s: f64,
    threads: usize,
) -> u64 {
    let cells = cells_per_axis(s);
    let t = data_threads(a.len() + b.len(), threads);
    let mut occ: FxHashMap<[u32; D], (u64, u64)> = FxHashMap::default();
    if t <= 1 {
        for p in a {
            occ.entry(cell_key(p, cells, s)).or_insert((0, 0)).0 += 1;
        }
        for p in b {
            occ.entry(cell_key(p, cells, s)).or_insert((0, 0)).1 += 1;
        }
    } else {
        let a_chunks = chunks_padded(a, t);
        let b_chunks = chunks_padded(b, t);
        let partials = crossbeam::thread::scope(|sc| {
            let handles: Vec<_> = a_chunks
                .into_iter()
                .zip(b_chunks)
                .map(|(ac, bc)| {
                    sc.spawn(move |_| {
                        let mut local: FxHashMap<[u32; D], (u64, u64)> = FxHashMap::default();
                        for p in ac {
                            local.entry(cell_key(p, cells, s)).or_insert((0, 0)).0 += 1;
                        }
                        for p in bc {
                            local.entry(cell_key(p, cells, s)).or_insert((0, 0)).1 += 1;
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("occupancy worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("crossbeam scope failed");
        for partial in partials {
            for (k, (ca, cb)) in partial {
                let e = occ.entry(k).or_insert((0, 0));
                e.0 += ca;
                e.1 += cb;
            }
        }
    }
    occ.values().map(|&(ca, cb)| ca * cb).sum()
}

/// One level of the self-join pair-sum via occupancy maps.
fn hashmap_level_self<const D: usize>(a: &[Point<D>], s: f64, threads: usize) -> u64 {
    let cells = cells_per_axis(s);
    let t = data_threads(a.len(), threads);
    let mut occ: FxHashMap<[u32; D], u64> = FxHashMap::default();
    if t <= 1 {
        for p in a {
            *occ.entry(cell_key(p, cells, s)).or_insert(0) += 1;
        }
    } else {
        let partials = crossbeam::thread::scope(|sc| {
            let handles: Vec<_> = chunks_padded(a, t)
                .into_iter()
                .map(|ac| {
                    sc.spawn(move |_| {
                        let mut local: FxHashMap<[u32; D], u64> = FxHashMap::default();
                        for p in ac {
                            *local.entry(cell_key(p, cells, s)).or_insert(0) += 1;
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("occupancy worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("crossbeam scope failed");
        for partial in partials {
            for (k, c) in partial {
                *occ.entry(k).or_insert(0) += c;
            }
        }
    }
    occ.values().map(|&c| c * (c - 1) / 2).sum()
}

// ---------------------------------------------------------------------------
// Public plot builders
// ---------------------------------------------------------------------------

/// Builds the BOPS plot of a cross join — Figure 7's product-sums, computed
/// by the engine the config selects (see the module docs). O(N+M) per grid
/// level either way; the sorted engine quantizes and sorts only once for
/// all levels.
pub fn bops_plot_cross<const D: usize>(
    a: &PointSet<D>,
    b: &PointSet<D>,
    cfg: &BopsConfig,
) -> Result<BopsPlot, CoreError> {
    check_cfg(cfg)?;
    let (engine, fallback) = resolve_engine_observed::<D>(cfg)?;
    if a.is_empty() || b.is_empty() {
        return Err(CoreError::Geom(sjpl_geom::GeomError::EmptySet));
    }
    sjpl_obs::counter_add("bops.plots", 1);
    sjpl_obs::counter_add("bops.points", (a.len() + b.len()) as u64);
    sjpl_obs::gauge_set("bops.levels", cfg.levels as f64);
    let _plot = sjpl_obs::span_with("bops.plot", || {
        format!(
            "join=cross points={} levels={} engine={}",
            a.len() + b.len(),
            cfg.levels,
            engine.name()
        )
    });
    let normalize = sjpl_obs::span("bops.normalize");
    let info = NormalizeInfo::from_sets(&[a, b])?;
    let na = a.normalized(&info);
    let nb = b.normalized(&info);
    normalize.close();
    let threads = resolve_threads(cfg.threads);
    let sides = cfg.sides();
    let values: Vec<u64> = match engine {
        ResolvedEngine::Sorted64 => {
            sorted_values_cross::<u64, D>(na.points(), nb.points(), cfg.levels, threads)
        }
        ResolvedEngine::Sorted128 => {
            sorted_values_cross::<u128, D>(na.points(), nb.points(), cfg.levels, threads)
        }
        ResolvedEngine::Hash => {
            let _scan = sjpl_obs::span("bops.scan");
            sides
                .iter()
                .map(|&s| hashmap_level_cross(na.points(), nb.points(), s, threads))
                .collect()
        }
    };
    Ok(BopsPlot {
        radii: sides.iter().map(|&s| info.invert_dist(s / 2.0)).collect(),
        values: values.into_iter().map(|v| v as f64).collect(),
        sides_normalized: sides,
        kind: JoinKind::Cross,
        n: a.len(),
        m: b.len(),
        engine_used: engine.name(),
        fallback,
    })
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
    check_cfg(cfg)?;
    let (engine, fallback) = resolve_engine_observed::<D>(cfg)?;
    if a.len() < 2 {
        return Err(CoreError::Geom(sjpl_geom::GeomError::EmptySet));
    }
    sjpl_obs::counter_add("bops.plots", 1);
    sjpl_obs::counter_add("bops.points", a.len() as u64);
    sjpl_obs::gauge_set("bops.levels", cfg.levels as f64);
    let _plot = sjpl_obs::span_with("bops.plot", || {
        format!(
            "join=self points={} levels={} engine={}",
            a.len(),
            cfg.levels,
            engine.name()
        )
    });
    let normalize = sjpl_obs::span("bops.normalize");
    let info = NormalizeInfo::from_sets(&[a])?;
    let na = a.normalized(&info);
    normalize.close();
    let threads = resolve_threads(cfg.threads);
    let sides = cfg.sides();
    let values: Vec<u64> = match engine {
        ResolvedEngine::Sorted64 => sorted_values_self::<u64, D>(na.points(), cfg.levels, threads),
        ResolvedEngine::Sorted128 => {
            sorted_values_self::<u128, D>(na.points(), cfg.levels, threads)
        }
        ResolvedEngine::Hash => {
            let _scan = sjpl_obs::span("bops.scan");
            sides
                .iter()
                .map(|&s| hashmap_level_self(na.points(), s, threads))
                .collect()
        }
    };
    Ok(BopsPlot {
        radii: sides.iter().map(|&s| info.invert_dist(s / 2.0)).collect(),
        values: values.into_iter().map(|v| v as f64).collect(),
        sides_normalized: sides,
        kind: JoinKind::SelfJoin,
        n: a.len(),
        m: a.len(),
        engine_used: engine.name(),
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
    fn forced_sorted_engine_rejects_unsupported_configs() {
        let a = uniform(50, 12);
        // Non-dyadic ratio: coarser cells are not key prefixes.
        let cfg = BopsConfig {
            ratio: 0.8,
            ..BopsConfig::default()
        }
        .with_engine(BopsEngine::SortedMorton);
        assert!(matches!(
            bops_plot_self(&a, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        // 16-d x 12 levels = 192 key bits > 128.
        let hd = sjpl_datagen::manifold::eigenfaces_like(100, 1);
        let cfg = BopsConfig::dyadic(12).with_engine(BopsEngine::SortedMorton);
        assert!(matches!(
            bops_plot_self(&hd, &cfg),
            Err(CoreError::BadConfig(_))
        ));
        // ...but 8 levels (128 bits) still fits, via the u128 key.
        let cfg = BopsConfig::dyadic(8).with_engine(BopsEngine::SortedMorton);
        assert!(bops_plot_self(&hd, &cfg).is_ok());
    }

    #[test]
    fn auto_resolution_picks_the_expected_engine() {
        assert_eq!(
            resolve_engine::<2>(&BopsConfig::dyadic(12)).unwrap().0,
            ResolvedEngine::Sorted64
        );
        assert_eq!(
            resolve_engine::<8>(&BopsConfig::dyadic(12)).unwrap().0,
            ResolvedEngine::Sorted128
        );
        assert_eq!(
            resolve_engine::<16>(&BopsConfig::dyadic(12)).unwrap().0,
            ResolvedEngine::Hash
        );
        assert_eq!(
            resolve_engine::<2>(&BopsConfig::high_dimensional())
                .unwrap()
                .0,
            ResolvedEngine::Hash
        );
        assert_eq!(
            resolve_engine::<2>(&BopsConfig::dyadic(12).with_engine(BopsEngine::HashMap))
                .unwrap()
                .0,
            ResolvedEngine::Hash
        );
    }

    #[test]
    fn auto_fallback_to_hashmap_is_reported_not_silent() {
        // 16-d x 12 dyadic levels: 192 key bits — Auto must fall back and
        // say so on the plot.
        let (_, reason) = resolve_engine::<16>(&BopsConfig::dyadic(12)).unwrap();
        assert!(reason.unwrap().contains("192"));
        // Non-dyadic ratio: the other fallback trigger.
        let (_, reason) = resolve_engine::<2>(&BopsConfig::high_dimensional()).unwrap();
        assert!(reason.unwrap().contains("non-dyadic"));
        // A forced HashMap engine is a deliberate choice, not a fallback.
        let (_, reason) =
            resolve_engine::<16>(&BopsConfig::dyadic(12).with_engine(BopsEngine::HashMap)).unwrap();
        assert!(reason.is_none());
        // End to end: the plot carries the fallback and the engine name.
        let hd = sjpl_datagen::manifold::eigenfaces_like(100, 1);
        let plot = bops_plot_self(&hd, &BopsConfig::dyadic(12)).unwrap();
        assert_eq!(plot.engine_used(), "hashmap");
        assert!(plot.fallback().is_some());
        let fast = bops_plot_self(&uniform(100, 2), &BopsConfig::dyadic(12)).unwrap();
        assert_eq!(fast.engine_used(), "sorted-morton-64");
        assert!(fast.fallback().is_none());
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

    #[test]
    fn engines_agree_bit_for_bit_on_cross_and_self() {
        let a = uniform(1_500, 21);
        let b = uniform(1_200, 22);
        let base = BopsConfig::dyadic(10);
        let sorted = base.with_engine(BopsEngine::SortedMorton);
        let hashed = base.with_engine(BopsEngine::HashMap);
        let pc_s = bops_plot_cross(&a, &b, &sorted).unwrap();
        let pc_h = bops_plot_cross(&a, &b, &hashed).unwrap();
        assert_eq!(pc_s.values(), pc_h.values());
        let ps_s = bops_plot_self(&a, &sorted).unwrap();
        let ps_h = bops_plot_self(&a, &hashed).unwrap();
        assert_eq!(ps_s.values(), ps_h.values());
    }

    #[test]
    fn thread_counts_do_not_change_values() {
        let a = uniform(3_000, 23);
        let b = uniform(2_000, 24);
        for engine in [BopsEngine::SortedMorton, BopsEngine::HashMap] {
            let seq = bops_plot_cross(&a, &b, &BopsConfig::dyadic(9).with_engine(engine)).unwrap();
            for threads in [2, 4, 16, 0] {
                let par = bops_plot_cross(
                    &a,
                    &b,
                    &BopsConfig::dyadic(9)
                        .with_engine(engine)
                        .with_threads(threads),
                )
                .unwrap();
                assert_eq!(seq.values(), par.values(), "{engine:?} threads {threads}");
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
