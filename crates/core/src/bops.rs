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
//! integer key, the keys are sorted, and **one pass** over the sorted keys
//! sums the pairs of every run of equal cells. A cross join sorts both sets
//! as one array, each key carrying a side tag in its lowest bit: a run of
//! `C` keys, `C_A` of them from A, adds `C_A·(C − C_A)`; a self join's run
//! adds `C(C−1)/2`. The sums are exact integers, so the plot is
//! **bit-identical** whichever schedule built the keys and however many
//! threads ran. Two key schedules feed the kernel:
//!
//! * **Morton, sorted once** — the paper's dyadic schedule (`ratio = 0.5`)
//!   while `D · levels ≤ 128`. Each raw point is quantized **once** at the
//!   finest grid level, straight from its coordinates (the `bops.normalize`
//!   span only finds the bounding box), and bit-interleaved into a Morton
//!   key ([`sjpl_index::MortonKey`]) of the narrowest width that holds
//!   `D · levels` bits plus the side tag: `u32` (2-d × 12 levels is 24
//!   bits self, 25 cross), `u64` or `u128`. One sort orders the keys
//!   ([`sjpl_index::par_sort_keys`]): an LSD radix sort in two passes over
//!   exactly the used bits when there are at most 26 of them, else the
//!   comparison sort, which beats a third radix pass.
//!   Because a cell of the grid `k` levels coarser is exactly the
//!   `D·k`-bit prefix of the finest-level key, the leading zeros of
//!   `kᵢ ⊕ kᵢ₋₁` tell which levels' runs end between two neighbours, so
//!   one scan counts *every* level. With threads, the sorted keys are
//!   split into slices and a run straddling a split is carried across it.
//! * **Per level** — every other schedule: non-dyadic ratios (coarser cells
//!   are not aligned prefixes) and `D · levels > 128` (the Morton key would
//!   overflow `u128`, e.g. 16-d with a deep dyadic schedule). One table
//!   holds every level's cell boundaries, merged and sorted
//!   ([`SlotTable`]); one pass over the raw points finds each coordinate's
//!   place among them (a `u16` slot), and each level reads its cell
//!   coordinates from `cells[level][slot]`, with no division. Those `D`
//!   coordinates are packed into the narrowest key holding
//!   `D · ⌈log₂ cells⌉` bits plus the side tag — `u64`, `u128`, else the
//!   `[u32; D]` coordinates with the tag alongside — then sorted and
//!   counted by the same kernel at one level. A level whose whole key
//!   space `2^(D · ⌈log₂ cells⌉)` is no larger than the input counts into
//!   a dense array instead of sorting. Levels are independent, so they
//!   stripe over the worker threads. A grid too fine for the table (more
//!   than 65 535 distinct boundaries) divides at each level instead.
//!
//! The config picks the schedule. The per-level path is **not** silent: the
//! config reports it before any work ([`BopsConfig::fallback`], which the
//! CLI prints as a one-line stderr note), the plot records why it ran
//! ([`BopsPlot::fallback`]) and the `bops.engine` event names it in traces.
//!
//! # Observability
//!
//! The hot path is instrumented with [`sjpl_obs`] spans — `bops.normalize`,
//! `bops.quantize`, `bops.sort`, `bops.scan` (the per-level path finds
//! its slots in `bops.quantize`, then sorts and counts inside
//! `bops.scan`) — plus the `bops.points` counter and the `bops.levels`
//! gauge, and every fit records `fit.r_squared` / `fit.exponent` /
//! `fit.rmse_log10` gauges. With the recorder disabled
//! (the default) each probe is a single relaxed atomic load, measured at
//! < 2% of the end-to-end BOPS cost (see `BENCH_bops.json`,
//! `obs_overhead`).

use sjpl_geom::{NormalizeInfo, Point, PointSet};
use sjpl_index::par::{fan_out, workers};
use sjpl_index::{par_sort_keys, MortonKey};
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
    /// Worker threads for quantization, sorting, and counting.
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
        Ok(key_schedule::<D>(self, 0).1)
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

    /// The key schedule that produced the values: `"sorted-morton-32"`,
    /// `"sorted-morton-64"`, `"sorted-morton-128"`, or
    /// `"sorted-per-level"`.
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
/// cell. The per-level schedule's cells are this function's: its
/// [`SlotTable`] is built from it (and is checked against it), and a grid
/// too fine for the table quantizes through it directly. The Morton
/// schedule's [`morton_coord`] multiplies by `1/s = 2^levels` instead,
/// which rounds identically because `s` is a power of two — the
/// bit-exactness guarantee starts here. `check_cfg` bounds `cells` by
/// `u32::MAX`, so the saturating `u32` conversion clamps exactly like a
/// `u64` one would, at half the cost.
#[inline]
fn cell_coord(x: f64, s: f64, cells: u64) -> u32 {
    ((x / s) as u32).min((cells - 1) as u32)
}

/// [`cell_coord`] at a dyadic side `s = 1/cells`, as a multiplication by
/// `cells` (exact: scaling by a power of two only moves the exponent).
#[inline]
fn morton_coord(x: f64, cells: u32) -> u32 {
    ((x * cells as f64) as u32).min(cells - 1)
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
    Morton32,
    Morton64,
    Morton128,
    PerLevel,
}

impl KeySchedule {
    fn name(self) -> &'static str {
        match self {
            KeySchedule::Morton32 => "sorted-morton-32",
            KeySchedule::Morton64 => "sorted-morton-64",
            KeySchedule::Morton128 => "sorted-morton-128",
            KeySchedule::PerLevel => "sorted-per-level",
        }
    }
}

/// Picks the key schedule for `cfg`; a cross join (`tag_bits = 1`) needs
/// one more key bit for the side tag. The second component is the reason
/// whenever the per-level path has to run — the caller records it on the
/// plot, so the slower path is never silent. The reason does not depend on
/// the join kind.
fn key_schedule<const D: usize>(cfg: &BopsConfig, tag_bits: u32) -> (KeySchedule, Option<String>) {
    let key_bits = D as u32 * cfg.levels;
    if !cfg.is_dyadic() {
        (
            KeySchedule::PerLevel,
            Some(format!(
                "non-dyadic ratio {} (coarser cells are not Morton-key prefixes)",
                cfg.ratio
            )),
        )
    } else if key_bits > 128 {
        (
            KeySchedule::PerLevel,
            Some(format!(
                "key width {D} x {} levels = {key_bits} bits exceeds the 128-bit Morton key",
                cfg.levels
            )),
        )
    } else if key_bits + tag_bits <= 32 {
        (KeySchedule::Morton32, None)
    } else if key_bits + tag_bits <= 64 {
        (KeySchedule::Morton64, None)
    } else {
        (KeySchedule::Morton128, None)
    }
}

/// Picks the key schedule, publishing the choice (and the reason for any
/// per-level run) to the observability layer.
fn key_schedule_observed<const D: usize>(
    cfg: &BopsConfig,
    tag_bits: u32,
) -> (KeySchedule, Option<String>) {
    let (schedule, reason) = key_schedule::<D>(cfg, tag_bits);
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

/// A run of sorted keys that share one cell: `len` keys, `tagged` of them
/// from the B side of a cross join.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    len: u64,
    tagged: u64,
}

impl Run {
    /// The run's pairs: `C_A·C_B` in a cross join, `C(C−1)/2` in a self
    /// join.
    #[inline]
    fn pairs<const CROSS: bool>(self) -> u64 {
        if CROSS {
            (self.len - self.tagged) * self.tagged
        } else {
            self.len * self.len.saturating_sub(1) / 2
        }
    }

    fn join(self, other: Run) -> Run {
        Run {
            len: self.len + other.len,
            tagged: self.tagged + other.tagged,
        }
    }
}

/// What [`count_runs`] saw of one slice, per level: the pairs of the runs
/// that start and end inside it, its first run if one ends inside it (the
/// one a run from a slice to the left may continue), and the run still
/// open at its end.
struct SliceRuns {
    sums: Vec<u64>,
    heads: Vec<Option<Run>>,
    open: Vec<Run>,
}

/// The one counting pass over sorted `keys`, for every level at once.
/// `ends(prev, key)` is how many levels, finest first, have a run ending
/// between two neighbouring keys; `tag(key)` is 1 for a B-side key of a
/// cross join. Each run end adds the run's pairs to its level's sum, except
/// a level's first run, which is kept apart as its head.
fn count_runs<K: Copy, const CROSS: bool>(
    keys: &[K],
    levels: usize,
    ends: impl Fn(K, K) -> usize,
    tag: impl Fn(K) -> u64,
) -> SliceRuns {
    let mut sums = vec![0u64; levels];
    let mut heads = vec![None; levels];
    // Per level: the index where the open run started and the tagged keys
    // before it.
    let mut start = vec![(0u64, 0u64); levels];
    let mut tagged = 0u64;
    // Levels below `headed` have closed their first run. Run ends come
    // finest first, so these are always a prefix of the levels.
    let mut headed = 0;
    if let Some((&first, rest)) = keys.split_first() {
        let mut prev = first;
        for (j, &k) in (1u64..).zip(rest) {
            if CROSS {
                tagged += tag(prev);
            }
            let e = ends(prev, k);
            if e > headed {
                // The levels' first runs end here: keep them as heads and
                // restart those levels, so the loop below adds empty runs.
                heads[headed..e].fill(Some(Run { len: j, tagged }));
                start[headed..e].fill((j, tagged));
                headed = e;
            }
            for (sum, st) in sums[..e].iter_mut().zip(&mut start[..e]) {
                let run = Run {
                    len: j - st.0,
                    tagged: tagged - st.1,
                };
                *sum += run.pairs::<CROSS>();
                *st = (j, tagged);
            }
            prev = k;
        }
        if CROSS {
            tagged += tag(prev);
        }
    }
    let n = keys.len() as u64;
    let open = start
        .iter()
        .map(|&(i, t)| Run {
            len: n - i,
            tagged: tagged - t,
        })
        .collect();
    SliceRuns { sums, heads, open }
}

/// Sums every level's pairs over sorted `keys` with [`count_runs`], on up
/// to `threads` workers. Each worker counts one slice, timed as a
/// `bops.scan.worker` span under `ctx` when there are several; a run that
/// straddles a slice boundary is carried across it and counted once, so
/// the integer sums do not depend on the split.
fn count_sorted<K: Copy + Send + Sync, const CROSS: bool>(
    keys: &[K],
    levels: usize,
    threads: usize,
    ctx: sjpl_obs::SpanContext,
    ends: impl Fn(K, K) -> usize + Sync,
    tag: impl Fn(K) -> u64 + Sync,
) -> Vec<u64> {
    let n = keys.len();
    let t = workers(n, MIN_POINTS_PER_THREAD, threads);
    let chunk = n.div_ceil(t).max(1);
    let slices = fan_out(keys.chunks(chunk), |part| {
        let _worker = (t > 1).then(|| sjpl_obs::span_under("bops.scan.worker", ctx));
        count_runs::<K, CROSS>(part, levels, &ends, &tag)
    });
    let mut totals = vec![0u64; levels];
    let mut carry = vec![Run::default(); levels];
    for (w, slice) in slices.into_iter().enumerate() {
        // Levels below `seam` end a run at the slice boundary.
        let seam = match w {
            0 => 0,
            _ => ends(keys[w * chunk - 1], keys[w * chunk]),
        };
        for i in 0..levels {
            if i < seam {
                totals[i] += carry[i].pairs::<CROSS>();
                carry[i] = Run::default();
            }
            match slice.heads[i] {
                Some(head) => {
                    totals[i] += slice.sums[i] + carry[i].join(head).pairs::<CROSS>();
                    carry[i] = slice.open[i];
                }
                // No run ends inside: the slice extends the carry.
                None => carry[i] = carry[i].join(slice.open[i]),
            }
        }
    }
    for (total, run) in totals.iter_mut().zip(carry) {
        *total += run.pairs::<CROSS>();
    }
    totals
}

// ---------------------------------------------------------------------------
// Morton keys, sorted once
// ---------------------------------------------------------------------------

/// Quantizes every point of `sets` straight from its raw coordinates at
/// the finest dyadic level and interleaves the cell coordinates into
/// Morton keys, fanning out over `threads`. With `tag_bits = 1` each key
/// is shifted up one bit and set `i`'s keys carry tag `i` (a cross join's
/// A side 0, B side 1).
fn morton_keys<K: MortonKey, const D: usize>(
    sets: &[&[Point<D>]],
    info: &NormalizeInfo<D>,
    levels: u32,
    tag_bits: u32,
    threads: usize,
) -> Vec<K> {
    let cells = 1u32 << levels;
    let mut keys = vec![K::default(); sets.iter().map(|s| s.len()).sum()];
    let mut rest = keys.as_mut_slice();
    for (tag, pts) in (0u32..).zip(sets) {
        let (out, tail) = rest.split_at_mut(pts.len());
        rest = tail;
        let chunk = pts
            .len()
            .div_ceil(workers(pts.len(), MIN_POINTS_PER_THREAD, threads))
            .max(1);
        let chunks = out.chunks_mut(chunk).zip(pts.chunks(chunk));
        let (info, tag) = (*info, K::from(tag));
        // `move`: the key parameters travel by value, so the loop keeps them
        // in registers instead of reloading them through a captured
        // reference.
        fan_out(chunks, move |(kc, pc)| {
            for (k, p) in kc.iter_mut().zip(pc) {
                let q = info.apply(p);
                let coords: [u32; D] = std::array::from_fn(|i| morton_coord(q[i], cells));
                *k = (K::interleave(&coords, levels) << tag_bits) | tag;
            }
        });
    }
    keys
}

/// Values for all levels (finest first) from one sort of the Morton keys:
/// a cross join when `b` is given, else a self join of `a`.
fn morton_values<K: MortonKey, const D: usize>(
    a: &[Point<D>],
    b: Option<&[Point<D>]>,
    info: &NormalizeInfo<D>,
    levels: u32,
    threads: usize,
) -> Vec<u64> {
    let bits = D as u32 * levels;
    // The side tag takes the lowest key bit, when there is one to spare.
    let tag_bits = u32::from(b.is_some() && bits < K::WIDTH);
    let quantize = sjpl_obs::span("bops.quantize");
    let sets: Vec<&[Point<D>]> = std::iter::once(a).chain(b).collect();
    let mut keys = morton_keys::<K, D>(&sets, info, levels, tag_bits, threads);
    quantize.close();
    // `lz(prev ⊕ key)` gives the highest differing bit; the levels whose
    // cells split there or finer end a run.
    let mut ends_at = vec![0u8; K::WIDTH as usize + 1];
    for (lz, e) in ends_at.iter_mut().enumerate().take(K::WIDTH as usize) {
        let bit = K::WIDTH - 1 - lz as u32;
        if bit >= tag_bits {
            *e = ((bit - tag_bits) / D as u32 + 1).min(levels) as u8;
        }
    }
    let ends = |prev: K, k: K| ends_at[(prev ^ k).leading_zeros() as usize] as usize;
    let count = |keys: &mut [K], cross: bool| {
        let sort = sjpl_obs::span("bops.sort");
        par_sort_keys(keys, bits + tag_bits, threads);
        sort.close();
        let scan = sjpl_obs::span("bops.scan");
        let (levels, ctx) = (levels as usize, scan.context());
        if cross {
            count_sorted::<K, true>(keys, levels, threads, ctx, ends, |k| k.low_u64() & 1)
        } else {
            count_sorted::<K, false>(keys, levels, threads, ctx, ends, |_| 0)
        }
    };
    if b.is_some() && tag_bits == 0 {
        // No bit left for the tag (`D · levels = 128`). Per cell,
        // `C(C−1)/2 = C_A(C_A−1)/2 + C_B(C_B−1)/2 + C_A·C_B`, so the cross
        // sum is self(A ∪ B) − self(A) − self(B).
        let (ka, kb) = keys.split_at(a.len());
        let (mut ka, mut kb) = (ka.to_vec(), kb.to_vec());
        let (sa, sb) = (count(&mut ka, false), count(&mut kb, false));
        let all = count(&mut keys, false);
        return all
            .iter()
            .zip(sa)
            .zip(sb)
            .map(|((u, x), y)| u - x - y)
            .collect();
    }
    count(&mut keys, tag_bits == 1)
}

// ---------------------------------------------------------------------------
// Per-level keys
// ---------------------------------------------------------------------------

/// Packs `D` cell coordinates of `bits` bits each into one integer key.
/// Each half of the coordinates is gathered in a `u64` word when it fits
/// in one: a variable shift of a `u128` costs a branch and several
/// instructions, of a `u64` one instruction.
#[inline]
fn pack<K: MortonKey + From<u64>, const D: usize>(coords: [u32; D], bits: u32) -> K {
    let word = |cs: &[u32]| cs.iter().fold(0u64, |w, &c| (w << bits) | u64::from(c));
    // The low half is never the shorter one.
    let (hi, lo) = coords.split_at(D / 2);
    let lo_bits = lo.len() as u32 * bits;
    if lo_bits <= u64::BITS {
        (K::from(word(hi)) << lo_bits) | K::from(word(lo))
    } else {
        coords
            .into_iter()
            .fold(K::from(0u32), |k, c| (k << bits) | K::from(c))
    }
}

/// One level's sum from sorted keys: `key(q, side)` is a point's key
/// carrying its side (0 for A, 1 for B), `same_cell` compares two keys'
/// cells and `side` reads a cross join key's side back.
fn sorted_level<T, K: Ord + Copy + Send + Sync>(
    a: &[T],
    b: Option<&[T]>,
    key: impl Fn(&T, u32) -> K,
    same_cell: impl Fn(K, K) -> bool + Sync,
    side: impl Fn(K) -> u64 + Sync,
) -> u64 {
    let mut keys = Vec::with_capacity(a.len() + b.map_or(0, <[_]>::len));
    keys.extend(a.iter().map(|q| key(q, 0)));
    keys.extend(b.iter().flat_map(|b| b.iter().map(|q| key(q, 1))));
    keys.sort_unstable();
    let ends = |prev: K, k: K| usize::from(!same_cell(prev, k));
    // One thread: the caller already runs one level per worker.
    let ctx = sjpl_obs::SpanContext::root();
    match b {
        Some(_) => count_sorted::<K, true>(&keys, 1, 1, ctx, ends, side)[0],
        None => count_sorted::<K, false>(&keys, 1, 1, ctx, ends, |_| 0)[0],
    }
}

/// The same sum counted into a dense array of `space` cells — cheaper than
/// sorting once the level's whole key space is no larger than the input.
fn dense_level<T>(a: &[T], b: Option<&[T]>, space: usize, key: impl Fn(&T) -> u64) -> u64 {
    let mut count = vec![0u64; space];
    let mut total = 0u64;
    match b {
        Some(b) => {
            for q in a {
                count[key(q) as usize] += 1;
            }
            for q in b {
                total += count[key(q) as usize];
            }
        }
        // Each point pairs with the points already counted in its cell.
        None => {
            for q in a {
                let c = &mut count[key(q) as usize];
                total += *c;
                *c += 1;
            }
        }
    }
    total
}

/// One level of the per-level path on a grid of `cells` cells per axis:
/// `coords` gives a point's cell coordinates, which are packed into the
/// narrowest key that holds them.
fn per_level_count<T, const D: usize>(
    a: &[T],
    b: Option<&[T]>,
    cells: u64,
    coords: impl Fn(&T) -> [u32; D],
) -> u64 {
    let bits = u64::BITS - (cells - 1).leading_zeros();
    let key_bits = D as u32 * bits;
    let t = u32::from(b.is_some());
    let n = a.len() + b.map_or(0, <[_]>::len);
    if key_bits < 64 && 1u64 << key_bits <= n as u64 {
        dense_level(a, b, 1 << key_bits, |q| pack::<u64, D>(coords(q), bits))
    } else if key_bits + t <= 64 {
        // The side tag takes the lowest bit of a packed key.
        let key = |q: &T, s| (pack::<u64, D>(coords(q), bits) << t) | u64::from(s);
        sorted_level(a, b, key, |x, y| (x ^ y) >> t == 0, |k| k & 1)
    } else if key_bits + t <= 128 {
        let key = |q: &T, s| (pack::<u128, D>(coords(q), bits) << t) | u128::from(s);
        sorted_level(a, b, key, |x, y| (x ^ y) >> t == 0, |k| (k & 1) as u64)
    } else {
        let key = |q: &T, s| (coords(q), s);
        sorted_level(a, b, key, |x, y| x.0 == y.0, |k| u64::from(k.1))
    }
}

/// The most distinct bounds a [`SlotTable`] holds, so that a slot
/// (`0..=bounds`) fits a `u16`.
const MAX_BOUNDS: usize = u16::MAX as usize;

/// The most bounds a [`SlotTable`] generates before de-duplication, which
/// caps the cost of building one at a few milliseconds. Only nested levels
/// share bounds: dyadic(16), the finest grid that fits, generates 131 054
/// for its 65 535.
const MAX_RAW_BOUNDS: u64 = 1 << 17;

/// The first guess of [`SlotTable::slot`] has `2^GUESS_BITS` bins over
/// `[0, 1)`; scaling by a power of two is exact.
const GUESS_BITS: u32 = 12;

/// Every level's cell boundaries on one axis, merged: the per-level path
/// finds a coordinate's place among them once (its *slot*) and reads its
/// cell at every level from `cells[level][slot]`, instead of dividing by
/// each level's side.
///
/// Exact by construction: `x ↦ (x / s) as u32` is monotone in `x` (IEEE
/// division is correctly rounded, so monotone), hence [`cell_coord`] only
/// changes at its thresholds, and the table holds every level's thresholds
/// to the last bit. Between two neighbouring bounds no level's cell
/// changes, so a slot's cells are [`cell_coord`] at the slot's lower bound.
struct SlotTable {
    /// The sorted, distinct thresholds of every level.
    bounds: Vec<f64>,
    /// `guess[g]`: the number of bounds `<= g / 2^GUESS_BITS`.
    guess: Vec<u16>,
    /// `cells[level][slot]`: the cell coordinate of any `x` in the slot.
    cells: Vec<Vec<u32>>,
}

/// The least double `x` with `(x / s) as u32 >= c`, for `c >= 1`: the
/// lower edge of cell `c` as [`cell_coord`] draws it. `c · s` is within a
/// few ULPs of it, and the division is monotone in `x`, so stepping ULPs
/// from there finds it.
fn threshold(c: u32, s: f64) -> f64 {
    let c = f64::from(c);
    let mut x = c * s;
    while x / s < c {
        x = x.next_up();
    }
    while x.next_down() / s >= c {
        x = x.next_down();
    }
    x
}

impl SlotTable {
    /// The table for grid sides `sides`, or `None` when it would need more
    /// than [`MAX_BOUNDS`] distinct bounds (or [`MAX_RAW_BOUNDS`] before
    /// de-duplication); [`cell_coord`] then quantizes every level instead.
    fn new(sides: &[f64]) -> Option<SlotTable> {
        let mut bounds = Vec::new();
        for &s in sides {
            let cells = cells_per_axis(s);
            if bounds.len() as u64 + cells > MAX_RAW_BOUNDS {
                return None;
            }
            bounds.extend((1..cells as u32).map(|c| threshold(c, s)));
        }
        bounds.sort_unstable_by(f64::total_cmp);
        bounds.dedup();
        if bounds.len() > MAX_BOUNDS {
            return None;
        }
        let guess = (0..=1u32 << GUESS_BITS)
            .map(|g| {
                let edge = f64::from(g) / f64::from(1u32 << GUESS_BITS);
                bounds.partition_point(|&x| x <= edge) as u16
            })
            .collect();
        let cells = sides
            .iter()
            .map(|&s| {
                let n = cells_per_axis(s);
                std::iter::once(0)
                    .chain(bounds.iter().map(|&x| cell_coord(x, s, n)))
                    .collect()
            })
            .collect();
        Some(SlotTable {
            bounds,
            guess,
            cells,
        })
    }

    /// The number of bounds `<= x`: `x`'s slot. A NaN or negative `x` has
    /// slot 0, where every level's cell is 0, as in [`cell_coord`].
    #[inline]
    fn slot(&self, x: f64) -> u16 {
        let scale = f64::from(1u32 << GUESS_BITS);
        // `g / 2^GUESS_BITS <= x`, so the first `guess[g]` bounds are <= x.
        let g = ((x * scale) as usize).min(1 << GUESS_BITS);
        let mut k = self.guess[g] as usize;
        while self.bounds.get(k).is_some_and(|&b| b <= x) {
            k += 1;
        }
        k as u16
    }

    /// The slot of every coordinate of `pts`, normalized with
    /// [`NormalizeInfo::apply`]'s arithmetic, fanning out over `threads`.
    fn slots<const D: usize>(
        &self,
        pts: &[Point<D>],
        info: &NormalizeInfo<D>,
        threads: usize,
    ) -> Vec<[u16; D]> {
        let mut out = vec![[0u16; D]; pts.len()];
        let chunk = pts
            .len()
            .div_ceil(workers(pts.len(), MIN_POINTS_PER_THREAD, threads))
            .max(1);
        fan_out(out.chunks_mut(chunk).zip(pts.chunks(chunk)), |(oc, pc)| {
            for (o, p) in oc.iter_mut().zip(pc) {
                let q = info.apply(p);
                *o = std::array::from_fn(|i| self.slot(q[i]));
            }
        });
        out
    }
}

/// Values for all levels (finest first, at `sides`) from per-level keys:
/// a cross join when `b` is given, else a self join of `a`. The
/// [`SlotTable`] quantizes every level in one pass over the raw points;
/// a config too fine for the table divides at each level instead.
fn per_level_values<const D: usize>(
    a: &[Point<D>],
    b: Option<&[Point<D>]>,
    info: &NormalizeInfo<D>,
    sides: &[f64],
    threads: usize,
) -> Vec<u64> {
    let levels = sides.len() as u32;
    let quantize = sjpl_obs::span("bops.quantize");
    let table = SlotTable::new(sides).map(|table| {
        let slots = |pts: &[Point<D>]| table.slots(pts, info, threads);
        let (sa, sb) = (slots(a), b.map(slots));
        (table, sa, sb)
    });
    quantize.close();
    let scan = sjpl_obs::span("bops.scan");
    match &table {
        Some((table, sa, sb)) => per_level(levels, threads, scan.context(), |j| {
            let cells = &table.cells[j as usize];
            let coords = |q: &[u16; D]| q.map(|k| cells[k as usize]);
            per_level_count(sa, sb.as_deref(), cells_per_axis(sides[j as usize]), coords)
        }),
        None => per_level(levels, threads, scan.context(), |j| {
            let s = sides[j as usize];
            let cells = cells_per_axis(s);
            per_level_count(a, b, cells, |p| cell_key(&info.apply(p), cells, s))
        }),
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
    let (schedule, fallback) = key_schedule_observed::<D>(cfg, u32::from(b.is_some()));
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
    normalize.close();
    let (pa, pb) = (a.points(), b.map(PointSet::points));
    let (levels, threads) = (cfg.levels, cfg.threads);
    let sides = cfg.sides();
    let values = match schedule {
        KeySchedule::Morton32 => morton_values::<u32, D>(pa, pb, &info, levels, threads),
        KeySchedule::Morton64 => morton_values::<u64, D>(pa, pb, &info, levels, threads),
        KeySchedule::Morton128 => morton_values::<u128, D>(pa, pb, &info, levels, threads),
        KeySchedule::PerLevel => per_level_values(pa, pb, &info, &sides, threads),
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
    fn morton_coord_matches_cell_coord_on_dyadic_sides() {
        for levels in 1..=31 {
            let s = 0.5f64.powi(levels);
            let cells = 1u32 << levels;
            let ks = (0..64).chain([cells - 1, cells, cells.saturating_add(1)]);
            for k in ks {
                let ks = k as f64 * s;
                for x in [
                    0.0,
                    1.0,
                    ks,
                    ks.next_up(),
                    ks.next_down(),
                    2.0,
                    1e12,
                    1e-310,
                ] {
                    assert_eq!(
                        morton_coord(x, cells),
                        cell_coord(x, s, cells as u64),
                        "x = {x:e}, s = {s:e}"
                    );
                }
            }
        }
    }

    /// The slot table against [`cell_coord`], the division it replaces:
    /// at every bound and 4 ULPs either side of it, and at 0, 1.0 and just
    /// above 1.0, each level's cell must be the division's.
    fn assert_table_exact(cfg: BopsConfig) -> usize {
        let sides = cfg.sides();
        let table = SlotTable::new(&sides).unwrap_or_else(|| panic!("no table for {cfg:?}"));
        let mut xs = vec![
            0.0,
            1.0,
            1.0f64.next_up(),
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
        ];
        for &b in &table.bounds {
            let (mut lo, mut hi) = (b, b);
            xs.push(b);
            for _ in 0..4 {
                (lo, hi) = (lo.next_down(), hi.next_up());
                xs.extend([lo, hi]);
            }
        }
        for &x in &xs {
            let slot = table.slot(x) as usize;
            assert_eq!(slot, table.bounds.partition_point(|&b| b <= x), "x = {x:e}");
            for (cells, &s) in table.cells.iter().zip(&sides) {
                assert_eq!(
                    cells[slot],
                    cell_coord(x, s, cells_per_axis(s)),
                    "x = {x:e}, s = {s:e}, {cfg:?}"
                );
            }
        }
        table.bounds.len()
    }

    #[test]
    fn slot_table_matches_the_division_around_every_bound() {
        // The shipped per-level configs, and the table's size limit.
        assert_eq!(assert_table_exact(BopsConfig::high_dimensional()), 244);
        assert_eq!(assert_table_exact(BopsConfig::dyadic(12)), 4095);
        assert_eq!(assert_table_exact(BopsConfig::dyadic(16)), MAX_BOUNDS);
        assert!(SlotTable::new(&BopsConfig::dyadic(17).sides()).is_none());
        // Ratio 0.7: 27 levels generate 70 996 bounds, all distinct (over
        // the slot width); 30 levels generate over 2^17.
        let gentle = |levels| {
            SlotTable::new(
                &BopsConfig {
                    levels,
                    ratio: 0.7,
                    threads: 1,
                }
                .sides(),
            )
        };
        assert!(gentle(26).is_some());
        assert!(gentle(27).is_none());
        assert!(gentle(30).is_none());
        // A sweep of gentle and steep ratios over 1 to 24 levels.
        let mut checked = 0;
        for ratio in [0.3, 0.45, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95] {
            for levels in [1, 2, 3, 5, 8, 12, 16, 20, 24] {
                let cfg = BopsConfig {
                    levels,
                    ratio,
                    threads: 1,
                };
                if check_cfg(&cfg).is_ok() && SlotTable::new(&cfg.sides()).is_some() {
                    assert_table_exact(cfg);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 60, "{checked} configs had a table");
    }

    #[test]
    fn auto_resolution_picks_the_expected_engine() {
        let schedule = |d: usize, cfg: BopsConfig, tag_bits: u32| match d {
            2 => key_schedule::<2>(&cfg, tag_bits).0,
            4 => key_schedule::<4>(&cfg, tag_bits).0,
            8 => key_schedule::<8>(&cfg, tag_bits).0,
            _ => key_schedule::<16>(&cfg, tag_bits).0,
        };
        use KeySchedule::*;
        // (dimension, config, self schedule, cross schedule)
        let cases = [
            (2, BopsConfig::dyadic(12), Morton32, Morton32),
            (2, BopsConfig::dyadic(16), Morton32, Morton64),
            (4, BopsConfig::dyadic(16), Morton64, Morton128),
            (8, BopsConfig::dyadic(12), Morton128, Morton128),
            (8, BopsConfig::dyadic(16), Morton128, Morton128),
            (16, BopsConfig::dyadic(12), PerLevel, PerLevel),
            (2, BopsConfig::high_dimensional(), PerLevel, PerLevel),
        ];
        for (d, cfg, self_join, cross) in cases {
            assert_eq!(schedule(d, cfg, 0), self_join, "{d}-d self {cfg:?}");
            assert_eq!(schedule(d, cfg, 1), cross, "{d}-d cross {cfg:?}");
        }
    }

    #[test]
    fn per_level_fallback_is_reported_not_silent() {
        // 16-d x 12 dyadic levels: 192 key bits — the per-level path runs
        // and the plot says why.
        let (_, reason) = key_schedule::<16>(&BopsConfig::dyadic(12), 0);
        assert!(reason.unwrap().contains("192"));
        // Non-dyadic ratio: the other trigger.
        let (_, reason) = key_schedule::<2>(&BopsConfig::high_dimensional(), 1);
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
        assert_eq!(fast.engine_used(), "sorted-morton-32");
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
        a: &PointSet<D>,
        b: &PointSet<D>,
        levels: u32,
    ) {
        let info = NormalizeInfo::from_sets(&[a, b]).unwrap();
        let (a, b) = (a.points(), b.points());
        let sides = BopsConfig::dyadic(levels).sides();
        assert_eq!(
            morton_values::<K, D>(a, Some(b), &info, levels, 1),
            per_level_values(a, Some(b), &info, &sides, 1),
            "{D}-d cross"
        );
        assert_eq!(
            morton_values::<K, D>(a, None, &info, levels, 1),
            per_level_values(a, None, &info, &sides, 1),
            "{D}-d self"
        );
    }

    #[test]
    fn engines_agree_bit_for_bit_on_cross_and_self() {
        let a = uniform(1_500, 21);
        let b = uniform(1_200, 22);
        assert_schedules_agree::<u32, 2>(&a, &b, 10);
        assert_schedules_agree::<u64, 2>(&a, &b, 10);
        let a = sjpl_datagen::uniform::unit_cube::<8>(600, 23);
        let b = sjpl_datagen::uniform::unit_cube::<8>(500, 24);
        assert_schedules_agree::<u128, 8>(&a, &b, 12);
        // 8 x 16 = 128 bits leaves no room for the side tag: the cross
        // join is counted from three self joins instead.
        assert_schedules_agree::<u128, 8>(&a, &b, 16);
    }

    /// The one-pass kernel against a direct count of each level's runs,
    /// with the sorted keys split at every slice size: a run carried across
    /// any number of slice boundaries is still counted once.
    #[test]
    fn split_scans_carry_runs_across_slices() {
        let mut rng_state = 7u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as u32
        };
        // 3 levels of 2 bits, tag in bit 0, but only 4 cell bits used: at
        // the middle level runs outgrow a slice, and the coarsest level is
        // one run through every slice; every run holds both sides.
        let mut keys: Vec<u32> = (0..20_000)
            .map(|_| (next() & 0xf) << 1 | (next() & 1))
            .collect();
        keys.sort_unstable();
        let root = sjpl_obs::SpanContext::root();
        let ends = |p: u32, k: u32| {
            let x = (p ^ k) >> 1;
            (0..3).take_while(|l| x >> (2 * l) != 0).count()
        };
        let direct: Vec<u64> = (0..3)
            .map(|l| {
                let mut total = 0;
                for cell in 0..(64 >> (2 * l)) {
                    let run = keys.iter().filter(|&&k| k >> (1 + 2 * l) == cell);
                    let (n, t) = run.fold((0u64, 0u64), |(n, t), &k| (n + 1, t + (k & 1) as u64));
                    total += (n - t) * t;
                }
                total
            })
            .collect();
        for threads in [1, 2, 3, 4, 5, 16] {
            let got = count_sorted::<u32, true>(&keys, 3, threads, root, ends, |k| (k & 1) as u64);
            assert_eq!(got, direct, "{threads} threads");
        }
        let self_direct: Vec<u64> = (0..3)
            .map(|l| {
                (0..(128u32 >> (2 * l)))
                    .map(|cell| keys.iter().filter(|&&k| k >> (2 * l) == cell).count() as u64)
                    .map(|c| c * c.saturating_sub(1) / 2)
                    .sum()
            })
            .collect();
        let self_ends = |p: u32, k: u32| (0..3).take_while(|l| (p ^ k) >> (2 * l) != 0).count();
        for threads in [1, 2, 3, 4, 5, 16] {
            let got = count_sorted::<u32, false>(&keys, 3, threads, root, self_ends, |_| 0);
            assert_eq!(got, self_direct, "self, {threads} threads");
        }
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
