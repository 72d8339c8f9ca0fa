//! `law_build`: the statistics-gathering job. Repeated passes of BOPS
//! self/cross/high-dimensional plots, each fitted and round-tripped through
//! the catalog, followed by repeated blocks of `StreamingBops` churn. Nearly
//! all time is in `sjpl-core` and `sjpl-stats`; nothing touches the index
//! joins or the daemon, and the recorder stays off as a library user gets
//! it.

use std::time::{Duration, Instant};

use sjpl_core::streaming::Side;
use sjpl_core::{
    bops_plot_cross, bops_plot_self, BopsConfig, BopsPlot, CoreError, FitOptions, LawCatalog,
    PairCountLaw, StreamingBops,
};
use sjpl_geom::{Aabb, Point};

use crate::data::{sub_seed, LawSets, LAW_BUILD_SIZES};
use crate::util::{median, same_law, timed, Deadline, Ledger, Rng};
use crate::SETUP_REPS;

/// Points each streaming side is bulk-loaded with during set-up.
const STREAM_BASE_N: usize = 20_000;
/// Points one churn block inserts and then removes again.
const STREAM_BLOCK_N: usize = 20_000;
/// A `law()` refit after every this many updates.
const REFIT_EVERY: usize = 1_000;
/// Grid levels of the streaming sketch (the batch default).
const STREAM_LEVELS: u32 = 12;

/// Names of the three laws one pass builds, in build order.
const LAW_NAMES: [&str; 3] = ["galaxy_self", "sierpinski_x_galaxy", "eigenfaces_self"];

struct Setup {
    sets: LawSets,
    sketch: StreamingBops<2>,
    pool: Vec<Point<2>>,
    /// The sketch's law right after bulk loading; every churn block ends
    /// back in this exact state.
    base_law: PairCountLaw,
}

fn setup(seed: u64) -> Result<Setup, CoreError> {
    let sets = LawSets::generate(seed, &LAW_BUILD_SIZES);
    let bounds =
        Aabb::from_points(sets.galaxy.points()).union(&Aabb::from_points(sets.sierpinski.points()));
    let mut sketch = StreamingBops::new(bounds, STREAM_LEVELS)?;
    for p in &sets.galaxy.points()[..STREAM_BASE_N] {
        sketch.insert(Side::A, p)?;
    }
    for p in &sets.sierpinski.points()[..STREAM_BASE_N] {
        sketch.insert(Side::B, p)?;
    }
    // Churn points: a seeded sample of galaxy points outside the base.
    let mut rng = Rng::new(sub_seed(seed, 21));
    let rest = &sets.galaxy.points()[STREAM_BASE_N..];
    let pool = (0..STREAM_BLOCK_N)
        .map(|_| rest[rng.below(rest.len())])
        .collect();
    let base_law = sketch.law(&FitOptions::default())?;
    Ok(Setup {
        sets,
        sketch,
        pool,
        base_law,
    })
}

/// Per-call timings of one pass, kept for the traced run.
#[derive(Default)]
struct PassTimes {
    plot_s: [f64; 3],
    fit_s: [f64; 3],
    fallbacks: usize,
}

/// One law-build pass: three plots, three fits, one catalog round trip.
/// Returns the fitted laws (in [`LAW_NAMES`] order).
fn build_pass(
    sets: &LawSets,
    times: &mut PassTimes,
    ledger: &mut Ledger,
) -> Result<Vec<PairCountLaw>, CoreError> {
    let opts = FitOptions::default();
    let default = BopsConfig::default();
    let plots: [Box<dyn Fn() -> Result<BopsPlot, CoreError> + '_>; 3] = [
        Box::new(|| bops_plot_self(&sets.galaxy, &default)),
        Box::new(|| bops_plot_cross(&sets.sierpinski, &sets.galaxy, &default)),
        Box::new(|| bops_plot_self(&sets.eigenfaces, &BopsConfig::high_dimensional())),
    ];
    let mut catalog = LawCatalog::new();
    let mut laws = Vec::with_capacity(3);
    for (i, plot) in plots.iter().enumerate() {
        let (plot, plot_s) = timed(plot);
        let plot = plot?;
        times.fallbacks += usize::from(plot.fallback().is_some());
        let (law, fit_s) = timed(|| plot.fit(&opts));
        let law = law?;
        times.plot_s[i] = plot_s;
        times.fit_s[i] = fit_s;
        catalog.insert(LAW_NAMES[i], law);
        laws.push(law);
    }
    let mut bytes = Vec::new();
    catalog.save_writer(&mut bytes)?;
    let loaded = LawCatalog::load_reader(bytes.as_slice())?;
    for (name, law) in LAW_NAMES.iter().zip(&laws) {
        let back = loaded.get(name);
        ledger.check(back.is_some_and(|b| same_law(b, law)), || {
            format!("catalog round trip changed law {name}")
        });
    }
    Ok(laws)
}

/// Per-phase timings of one churn block, kept for the traced run.
#[derive(Default)]
struct BlockTimes {
    insert_s: f64,
    remove_s: f64,
    law_s: Vec<f64>,
}

/// One churn block: insert the pool on side A and remove it again, with a
/// refit every [`REFIT_EVERY`] updates. Each refit is timed on its own, and
/// each half's update time is its elapsed time less its refits.
fn churn_block(s: &mut Setup, times: &mut BlockTimes) -> Result<PairCountLaw, CoreError> {
    let opts = FitOptions::default();
    let mut updates = 0usize;
    for insert in [true, false] {
        let t0 = Instant::now();
        let mut refit_s = 0.0;
        for p in &s.pool {
            if insert {
                s.sketch.insert(Side::A, p)?;
            } else {
                s.sketch.remove(Side::A, p)?;
            }
            updates += 1;
            if updates.is_multiple_of(REFIT_EVERY) {
                let (law, law_s) = timed(|| s.sketch.law(&opts));
                law?;
                refit_s += law_s;
                times.law_s.push(law_s);
            }
        }
        let update_s = t0.elapsed().as_secs_f64() - refit_s;
        if insert {
            times.insert_s = update_s;
        } else {
            times.remove_s = update_s;
        }
    }
    s.sketch.law(&opts)
}

/// Figures of one measurement phase.
struct Phase {
    pass_s: Vec<f64>,
    block_s: Vec<f64>,
    passes: Vec<PassTimes>,
    blocks: Vec<BlockTimes>,
}

impl Phase {
    fn build_pts_per_s(&self, points: usize) -> f64 {
        points as f64 / median(&self.pass_s)
    }

    /// Median time to build the 16-d law: the HashMap-engine plot plus its
    /// fit.
    fn hd_law_ms(&self) -> f64 {
        let ms: Vec<f64> = self
            .passes
            .iter()
            .map(|t| (t.plot_s[2] + t.fit_s[2]) * 1e3)
            .collect();
        median(&ms)
    }

    fn stream_updates_per_s(&self) -> f64 {
        (2 * STREAM_BLOCK_N) as f64 / median(&self.block_s)
    }
}

/// Law-build passes for the first 80% of `d`, then churn blocks for the
/// rest. Running the blocks back to back keeps the sketch's hash maps in
/// cache from block to block, as in a long-lived sketch, instead of after a
/// BOPS pass has streamed through them.
fn measure(
    s: &mut Setup,
    d: Duration,
    reference: &mut Option<Vec<PairCountLaw>>,
    ledger: &mut Ledger,
) -> Result<Phase, CoreError> {
    let mut phase = Phase {
        pass_s: Vec::new(),
        block_s: Vec::new(),
        passes: Vec::new(),
        blocks: Vec::new(),
    };
    let deadline = Deadline::after(d.mul_f64(0.8));
    while !deadline.passed() || phase.pass_s.len() < 3 {
        let mut pt = PassTimes::default();
        let (laws, pass_s) = timed(|| build_pass(&s.sets, &mut pt, ledger));
        let laws = laws?;
        let first = reference.get_or_insert_with(|| laws.clone());
        for ((name, a), b) in LAW_NAMES.iter().zip(first.iter()).zip(&laws) {
            ledger.check(same_law(a, b), || {
                format!(
                    "law {name} differs between passes (alpha {} vs {})",
                    a.exponent, b.exponent
                )
            });
        }
        phase.pass_s.push(pass_s);
        phase.passes.push(pt);
    }
    let deadline = Deadline::after(d.mul_f64(0.2));
    while !deadline.passed() || phase.block_s.len() < 3 {
        let mut bt = BlockTimes::default();
        let (law, block_s) = timed(|| churn_block(s, &mut bt));
        let law = law?;
        ledger.check(same_law(&law, &s.base_law), || {
            "streaming law after a full insert/remove block differs from the base law".to_owned()
        });
        phase.block_s.push(block_s);
        phase.blocks.push(bt);
    }
    Ok(phase)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Ledger, CoreError> {
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut first = None;
    let s = timed_setups(seed, &mut setup_s, &mut first, &mut ledger)?;
    measure_and_report(s, seconds, trace, &mut ledger)?;
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
    first: &mut Option<(Point<2>, u64)>,
    ledger: &mut Ledger,
) -> Result<Setup, CoreError> {
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| setup(seed));
        let built = built?;
        setup_s.push(secs);
        let fingerprint = (
            built.sets.galaxy.points()[0],
            built.base_law.exponent.to_bits(),
        );
        let f = first.get_or_insert(fingerprint);
        ledger.check(*f == fingerprint, || {
            "set-up is not deterministic".to_owned()
        });
        s = Some(built);
    }
    Ok(s.expect("SETUP_REPS > 0"))
}

/// Law-build passes and churn blocks (untraced, or half untraced and half
/// traced), reported into `ledger`.
fn measure_and_report(
    mut s: Setup,
    seconds: u64,
    trace: bool,
    ledger: &mut Ledger,
) -> Result<(), CoreError> {
    let points = s.sets.plot_points();

    let total = Duration::from_secs(seconds);
    let mut reference = None;
    if !trace {
        let p = measure(&mut s, total, &mut reference, ledger)?;
        let build = p.build_pts_per_s(points);
        let hd_ms = p.hd_law_ms();
        let updates = p.stream_updates_per_s();
        ledger.note(format!(
            "law_build: {} passes, {} churn blocks; build_pts_per_s = {build:.0} pts/s, \
             hd_law_ms = {hd_ms:.3} ms, stream_updates_per_s = {updates:.0} ops/s",
            p.pass_s.len(),
            p.block_s.len()
        ));
        ledger.metric("throughput", build, "1/s");
        ledger.metric("median_ms", hd_ms, "ms");
        return Ok(());
    }

    // Traced: an untraced half, then a half under the recorder with every
    // call into core/stats timed from here.
    let plain = measure(&mut s, total / 2, &mut reference, ledger)?;
    let (traced, snap) = sjpl_obs::capture(|| measure(&mut s, total / 2, &mut reference, ledger));
    let traced = traced?;
    let passes = traced.passes.len() as f64;
    let col =
        |f: &dyn Fn(&PassTimes) -> f64| median(&traced.passes.iter().map(f).collect::<Vec<_>>());
    let sets = &s.sets;
    ledger.metric(
        "core.bops.self_ns_per_pt",
        col(&|t| t.plot_s[0]) * 1e9 / sets.galaxy.len() as f64,
        "ns",
    );
    ledger.metric(
        "core.bops.cross_ns_per_pt",
        col(&|t| t.plot_s[1]) * 1e9 / (sets.galaxy.len() + sets.sierpinski.len()) as f64,
        "ns",
    );
    ledger.metric("core.bops.hd_ms", col(&|t| t.plot_s[2]) * 1e3, "ms");
    ledger.metric(
        "core.bops.fallbacks",
        traced.passes[0].fallbacks as f64,
        "count",
    );
    let fits: Vec<f64> = traced.passes.iter().flat_map(|t| t.fit_s).collect();
    ledger.metric("stats.fit_us", median(&fits) * 1e6, "us");
    for stage in ["normalize", "quantize", "sort", "scan"] {
        let total_ns = snap
            .span(&format!("bops.{stage}"))
            .map_or(0, |t| t.total_ns);
        ledger.metric(
            format!("core.bops.span.{stage}_ms"),
            total_ns as f64 / passes / 1e6,
            "ms",
        );
    }
    let blk =
        |f: &dyn Fn(&BlockTimes) -> f64| median(&traced.blocks.iter().map(f).collect::<Vec<_>>());
    let n = STREAM_BLOCK_N as f64;
    ledger.metric(
        "core.streaming.insert_ns",
        blk(&|b| b.insert_s) * 1e9 / n,
        "ns",
    );
    ledger.metric(
        "core.streaming.remove_ns",
        blk(&|b| b.remove_s) * 1e9 / n,
        "ns",
    );
    let laws: Vec<f64> = traced
        .blocks
        .iter()
        .flat_map(|b| b.law_s.iter().copied())
        .collect();
    ledger.metric("core.streaming.law_us", median(&laws) * 1e6, "us");

    let plain_build = plain.build_pts_per_s(points);
    let traced_build = traced.build_pts_per_s(points);
    ledger.metric("e2e.law_build.build_pts_per_s", traced_build, "pts/s");
    ledger.metric(
        "e2e.law_build.stream_updates_per_s",
        traced.stream_updates_per_s(),
        "ops/s",
    );
    ledger.metric(
        "trace.overhead_pct.law_build",
        (plain_build - traced_build) / plain_build * 100.0,
        "%",
    );
    Ok(())
}
