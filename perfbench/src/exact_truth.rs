//! `exact_truth`: the ground-truth job behind the drift monitor and the
//! accuracy matrix. Each pass sorts the 2-d sets once, runs partitioned
//! parallel sweep self- and cross-joins at three radii inside each law's
//! fitted window, and a kd-tree self-join on the 16-d set. The laws are
//! fitted once in set-up, so nearly all measured time is in `sjpl-index`.

use std::time::Duration;

use sjpl_core::{bops_plot_cross, bops_plot_self, BopsConfig, CoreError, FitOptions, PairCountLaw};
use sjpl_geom::Metric;
use sjpl_index::sweep::{sweep_join_count, sweep_self_join_count};
use sjpl_index::{
    par_sweep_join_count_sorted, par_sweep_self_join_count_sorted, KdTree, SortedByAxis,
};

use crate::data::{LawSets, EXACT_TRUTH_SIZES};
use crate::util::{median, same_law, timed, Deadline, Ledger};
use crate::SETUP_REPS;

/// Target pair counts, as multiples of the first set's size, whose law
/// radii (clamped into the fitted window) are the three join radii.
const PAIRS_PER_POINT: [f64; 3] = [0.25, 1.0, 4.0];

/// Worker threads of the partitioned sweeps. One: at two threads on a
/// 2-vCPU virtual machine a join waits for the slower virtual CPU, and a
/// quarter of the runs of an A/A check came out about 35% slow.
const JOIN_THREADS: usize = 1;

/// The 2-d joins of a pass, in order.
const JOINS: [&str; 3] = ["galaxy_self", "sierpinski_self", "sierpinski_x_galaxy"];

struct Setup {
    sets: LawSets,
    /// One law per entry of [`JOINS`], then the 16-d self-join law.
    laws: [PairCountLaw; 4],
    /// Join radii per 2-d join.
    radii: [[f64; 3]; 3],
    hd_radius: f64,
    /// Seconds the four BOPS plots and fits took.
    fit_s: f64,
}

/// The law's radius for a target pair count, clamped into its fit window.
fn radius_for(law: &PairCountLaw, pairs: f64) -> f64 {
    law.r_c(pairs).clamp(law.fit.x_lo, law.fit.x_hi)
}

fn setup(seed: u64) -> Result<Setup, CoreError> {
    let sets = LawSets::generate(seed, &EXACT_TRUTH_SIZES);
    let cfg = BopsConfig::default();
    let opts = FitOptions::default();
    let (laws, fit_s) = timed(|| -> Result<[PairCountLaw; 4], CoreError> {
        Ok([
            bops_plot_self(&sets.galaxy, &cfg)?.fit(&opts)?,
            bops_plot_self(&sets.sierpinski, &cfg)?.fit(&opts)?,
            bops_plot_cross(&sets.sierpinski, &sets.galaxy, &cfg)?.fit(&opts)?,
            bops_plot_self(&sets.eigenfaces, &BopsConfig::high_dimensional())?.fit(&opts)?,
        ])
    });
    let laws = laws?;
    let firsts = [
        sets.galaxy.len(),
        sets.sierpinski.len(),
        sets.sierpinski.len(),
    ];
    let radii = std::array::from_fn(|j| {
        PAIRS_PER_POINT.map(|c| radius_for(&laws[j], c * firsts[j] as f64))
    });
    let hd_radius = radius_for(&laws[3], sets.eigenfaces.len() as f64);
    Ok(Setup {
        sets,
        laws,
        radii,
        hd_radius,
        fit_s,
    })
}

/// Exact counts and per-phase seconds of one truth pass.
struct Pass {
    /// `counts[j][i]`: join `j` at radius `i`.
    counts: [[u64; 3]; 3],
    hd_count: u64,
    sort_s: f64,
    self_s: f64,
    cross_s: f64,
    kdtree_s: f64,
    total_s: f64,
}

fn truth_pass(s: &Setup) -> Pass {
    let threads = JOIN_THREADS;
    let ((g, sier), sort_s) = timed(|| {
        (
            SortedByAxis::new(s.sets.galaxy.points()),
            SortedByAxis::new(s.sets.sierpinski.points()),
        )
    });
    let mut counts = [[0u64; 3]; 3];
    let (mut self_s, mut cross_s) = (0.0, 0.0);
    for (j, (row, radii)) in counts.iter_mut().zip(&s.radii).enumerate() {
        for (c, &r) in row.iter_mut().zip(radii) {
            let (n, t) = timed(|| match j {
                0 => par_sweep_self_join_count_sorted(&g, r, Metric::L2, threads),
                1 => par_sweep_self_join_count_sorted(&sier, r, Metric::L2, threads),
                _ => par_sweep_join_count_sorted(&sier, &g, r, Metric::L2, threads),
            });
            *c = n;
            if j < 2 {
                self_s += t;
            } else {
                cross_s += t;
            }
        }
    }
    let (hd_count, kdtree_s) = timed(|| {
        KdTree::build(s.sets.eigenfaces.points()).self_join_count(s.hd_radius, Metric::L2)
    });
    Pass {
        counts,
        hd_count,
        sort_s,
        self_s,
        cross_s,
        kdtree_s,
        total_s: sort_s + self_s + cross_s + kdtree_s,
    }
}

/// Runs truth passes until `d` is spent, checking every pass's counts
/// against the first pass of the run.
fn measure(
    s: &Setup,
    d: Duration,
    reference: &mut Option<Counts>,
    ledger: &mut Ledger,
) -> Vec<Pass> {
    let deadline = Deadline::after(d);
    let mut passes = Vec::new();
    while !deadline.passed() || passes.len() < 3 {
        let p = truth_pass(s);
        let first = reference.get_or_insert(Counts {
            joins: p.counts,
            hd: p.hd_count,
        });
        for (j, name) in JOINS.iter().enumerate() {
            ledger.check(p.counts[j] == first.joins[j], || {
                format!("{name}: exact counts differ between passes")
            });
        }
        ledger.check(p.hd_count == first.hd, || {
            "eigenfaces_self: kd-tree count differs between passes".to_owned()
        });
        passes.push(p);
    }
    passes
}

/// The exact counts of a run's first pass, which every later pass repeats.
struct Counts {
    /// `joins[j][i]`: join `j` at radius `i`.
    joins: [[u64; 3]; 3],
    hd: u64,
}

/// Mean relative error of the BOPS laws against the exact counts.
fn rel_err_mean(s: &Setup, c: &Counts) -> f64 {
    let mut errs = Vec::new();
    for j in 0..3 {
        for i in 0..3 {
            let exact = c.joins[j][i] as f64;
            errs.push((s.laws[j].pair_count(s.radii[j][i]) - exact).abs() / exact);
        }
    }
    let exact = c.hd as f64;
    errs.push((s.laws[3].pair_count(s.hd_radius) - exact).abs() / exact);
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Checks the parallel counts against other engines: the single-threaded
/// plane sweep at the middle radius of every 2-d join, and the kd-tree
/// (which shares no kernel with the sweeps) at the smallest radius; the
/// 16-d kd-tree count against the plane sweep.
fn check_against_other_engines(s: &Setup, c: &Counts, ledger: &mut Ledger) {
    let (g, sier) = (s.sets.galaxy.points(), s.sets.sierpinski.points());
    let (kg, ks) = (KdTree::build(g), KdTree::build(sier));
    let r = |j: usize, i: usize| s.radii[j][i];
    let expect = [
        (
            sweep_self_join_count(g, r(0, 1), Metric::L2),
            kg.self_join_count(r(0, 0), Metric::L2),
        ),
        (
            sweep_self_join_count(sier, r(1, 1), Metric::L2),
            ks.self_join_count(r(1, 0), Metric::L2),
        ),
        (
            sweep_join_count(sier, g, r(2, 1), Metric::L2),
            ks.join_count(&kg, r(2, 0), Metric::L2),
        ),
    ];
    for (j, (name, (sweep, kd))) in JOINS.iter().zip(expect).enumerate() {
        ledger.check(c.joins[j][1] == sweep, || {
            format!("{name}: par-sweep {} != plane sweep {sweep}", c.joins[j][1])
        });
        ledger.check(c.joins[j][0] == kd, || {
            format!("{name}: par-sweep {} != kd-tree {kd}", c.joins[j][0])
        });
        ledger.check(c.joins[j].iter().all(|&n| n > 0), || {
            format!("{name}: an exact count is 0")
        });
    }
    let hd = sweep_self_join_count(s.sets.eigenfaces.points(), s.hd_radius, Metric::L2);
    ledger.check(c.hd == hd, || {
        format!("eigenfaces_self: kd-tree {} != plane sweep {hd}", c.hd)
    });
}

/// Input points the 2-d par-sweep joins of one pass read: three radii of
/// the two self-joins and the cross-join.
fn sweep_points(s: &Setup) -> f64 {
    let (g, sier) = (s.sets.galaxy.len(), s.sets.sierpinski.len());
    (3 * (g + sier + (sier + g))) as f64
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Ledger, CoreError> {
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut first = None;
    let s = timed_setups(seed, &mut setup_s, &mut first, &mut ledger)?;
    measure_and_report(&s, seconds, trace, &mut ledger);
    drop(s);
    // Set-ups timed at both ends of the run: the host's speed drifts over
    // seconds, and one burst of set-ups samples only one state of it.
    timed_setups(seed, &mut setup_s, &mut first, &mut ledger)?;
    ledger.metric("setup_s", median(&setup_s), "s");
    ledger.finish_common();
    Ok(ledger)
}

/// [`SETUP_REPS`] timed set-ups, each checked against the run's first;
/// returns the last.
fn timed_setups(
    seed: u64,
    setup_s: &mut Vec<f64>,
    first: &mut Option<[PairCountLaw; 4]>,
    ledger: &mut Ledger,
) -> Result<Setup, CoreError> {
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| setup(seed));
        let built = built?;
        setup_s.push(secs);
        let f = first.get_or_insert(built.laws);
        let same = f.iter().zip(&built.laws).all(|(a, b)| same_law(a, b));
        ledger.check(same, || "a law differs between set-ups".to_owned());
        s = Some(built);
    }
    Ok(s.expect("SETUP_REPS > 0"))
}

/// Truth passes (untraced, or half untraced and half traced), checked and
/// reported into `ledger`.
fn measure_and_report(s: &Setup, seconds: u64, trace: bool, ledger: &mut Ledger) {
    let total = Duration::from_secs(seconds);
    let mut reference = None;
    let plain = measure(
        s,
        if trace { total / 2 } else { total },
        &mut reference,
        ledger,
    );
    let first = reference.as_ref().expect("measure ran a pass");
    check_against_other_engines(s, first, ledger);
    let rel_err = rel_err_mean(s, first);
    let truth_s = median(&plain.iter().map(|p| p.total_s).collect::<Vec<_>>());
    // Timed apart from the whole pass, so a regression in the sort or the
    // 16-d kd-tree join moves truth_join_s but not the sweep rate.
    let sweep_s = median(
        &plain
            .iter()
            .map(|p| p.self_s + p.cross_s)
            .collect::<Vec<_>>(),
    );
    ledger.note(format!(
        "exact_truth: {} passes at {} threads; truth_join_s = {truth_s:.4} s, \
         par_sweep_pts_per_s = {:.0}, bops_rel_err_mean = {rel_err:.4}, pairs per pass = {}",
        plain.len(),
        JOIN_THREADS,
        sweep_points(s) / sweep_s,
        first.joins.iter().flatten().sum::<u64>() + first.hd
    ));
    if !trace {
        ledger.metric("throughput", sweep_points(s) / sweep_s, "1/s");
        ledger.metric("median_ms", truth_s * 1e3, "ms");
        return;
    }

    let (traced, snap) = sjpl_obs::capture(|| measure(s, total / 2, &mut reference, ledger));
    let col = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let traced_s = col(&|p| p.total_s);
    ledger.metric("index.sort_ms", col(&|p| p.sort_s) * 1e3, "ms");
    ledger.metric("index.par_sweep_self_ms", col(&|p| p.self_s) * 1e3, "ms");
    ledger.metric("index.par_sweep_cross_ms", col(&|p| p.cross_s) * 1e3, "ms");
    ledger.metric("index.kdtree_hd_ms", col(&|p| p.kdtree_s) * 1e3, "ms");
    let first = reference.as_ref().expect("measure ran a pass");
    ledger.metric(
        "index.pairs",
        (first.joins.iter().flatten().sum::<u64>() + first.hd) as f64,
        "count",
    );
    for span in ["sweep", "merge"] {
        let total_ns = snap.span(&format!("join.{span}")).map_or(0, |t| t.total_ns);
        ledger.metric(
            format!("index.span.{span}_ms"),
            total_ns as f64 / traced.len() as f64 / 1e6,
            "ms",
        );
    }
    ledger.metric("core.bops.share_of_truth", s.fit_s / traced_s, "ratio");
    ledger.metric("core.bops.rel_err_mean", rel_err, "ratio");
    ledger.metric("e2e.exact_truth.truth_join_s", traced_s, "s");
    ledger.metric(
        "trace.overhead_pct.exact_truth",
        (traced_s - truth_s) / truth_s * 100.0,
        "%",
    );
}
