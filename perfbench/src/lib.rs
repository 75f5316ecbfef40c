//! # memconv-perfbench
//!
//! The repository benchmark: three single-threaded workloads driven
//! through the public APIs of the memconv crates.
//!
//! * `figures` — Fig. 3 points and a Table I layer, each run by ours and
//!   the baselines on block-sampled launches (simulator-bound).
//! * `serve` — a seeded open-loop trace through a two-shard `ConvFleet`
//!   (routing, batching, shedding, golden verification).
//! * `graph` — whole-model inferences through `GraphExecutor::run` in the
//!   fused, device-resident schedule.
//!
//! An untraced run prints the end-to-end metrics ([`report::END_TO_END`]);
//! a traced run repeats the workload with host-time spans around every
//! call into a layer and prints the per-layer metrics
//! ([`report::PER_LAYER`]). Every run checks every output.
//!
//! **Host-time estimator.** A run sets up once and repeats identical passes
//! over the same items until `--seconds` is used up, at least two passes.
//! `items_per_s` is the pass's correct items over the sum of each item's
//! fastest host time across the passes; `setup_s` is the median of the
//! run's set-ups (more are timed after the passes). Modeled metrics come
//! from the first pass and repeat exactly at a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod figures;
pub mod graph;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Outcome;
use std::time::Instant;
use trace::Tracer;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Timed-phase budget, host seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["figures", "serve", "graph"];

/// Run one workload.
///
/// # Errors
///
/// An unknown workload name, or a layer call that returned an error.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "figures" => figures::run(cfg),
        "serve" => serve::run(cfg),
        "graph" => graph::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// One pass over a workload's items.
#[derive(Debug)]
pub struct Pass<D> {
    /// Host seconds per timed item (or item group), in pass order.
    pub item_s: Vec<f64>,
    /// Items whose results differed from the first pass's.
    pub mismatched: u64,
    /// The first pass's results (later passes drop theirs after comparing).
    pub data: Option<D>,
}

impl<D> Pass<D> {
    /// Host seconds of the whole pass.
    pub fn total_s(&self) -> f64 {
        self.item_s.iter().sum()
    }
}

/// What the timed phase produced.
#[derive(Debug)]
pub struct Timed<S, D> {
    /// Host seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Every pass, in order; only the first keeps its data.
    pub passes: Vec<Pass<D>>,
    /// The last set-up's state.
    pub state: S,
    /// Peak resident set after set-up and the first pass, MB.
    pub peak_rss_mb: f64,
}

impl<S, D> Timed<S, D> {
    /// The first pass's results.
    pub fn first(&self) -> &D {
        self.passes[0]
            .data
            .as_ref()
            .expect("the first pass keeps its results")
    }

    /// Items that did not repeat the first pass.
    pub fn mismatched(&self) -> u64 {
        self.passes.iter().map(|p| p.mismatched).sum()
    }

    /// `setup_s`: the median set-up.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setups_s)
    }

    /// Estimated host seconds of one pass (see
    /// [`stats::fastest_pass_s`]; with `class`,
    /// [`stats::fastest_pass_by_class_s`]).
    pub fn fastest_pass_s(&self, class: Option<&[usize]>) -> f64 {
        let times: Vec<Vec<f64>> = self.passes.iter().map(|p| p.item_s.clone()).collect();
        match class {
            Some(c) => stats::fastest_pass_by_class_s(&times, c),
            None => stats::fastest_pass_s(&times),
        }
    }
}

/// The timed phase of an untraced run: set up, then run passes on that
/// state while another pass still fits in `seconds` (at least two passes).
/// Further set-ups follow, timed and discarded, until at least
/// [`data::MIN_SETUPS`] were timed and together they took
/// [`data::SETUP_BUDGET_S`] (at most [`data::MAX_SETUPS`]).
///
/// # Errors
///
/// The first error `setup` or `pass` returns.
pub fn run_timed<S, D>(
    seconds: f64,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
    mut pass: impl FnMut(&mut S, Option<&D>, &mut Tracer) -> Result<Pass<D>, String>,
) -> Result<Timed<S, D>, String> {
    let t0 = Instant::now();
    let mut state = setup(tracer)?;
    let mut setups_s = vec![t0.elapsed().as_secs_f64()];
    let mut passes: Vec<Pass<D>> = Vec::new();
    let mut timed_s = 0.0;
    let mut peak_rss_mb = 0.0;
    loop {
        let first = passes.first().and_then(|p| p.data.as_ref());
        let p = pass(&mut state, first, tracer)?;
        if passes.is_empty() {
            // Later passes only add allocator fragmentation, whose amount
            // depends on how many passes the host's speed allowed.
            peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
        }
        let last_s = p.total_s();
        eprintln!(
            "pass {}: {last_s:.3} s ({} items)",
            passes.len() + 1,
            p.item_s.len()
        );
        timed_s += last_s;
        passes.push(p);
        if passes.len() >= 2 && timed_s + last_s > seconds {
            break;
        }
    }
    while setups_s.len() < data::MIN_SETUPS
        || (setups_s.len() < data::MAX_SETUPS
            && setups_s.iter().sum::<f64>() < data::SETUP_BUDGET_S)
    {
        let t0 = Instant::now();
        setup(tracer)?;
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "{} set-ups: {:.3} s in all, median {:.4} s",
        setups_s.len(),
        setups_s.iter().sum::<f64>(),
        stats::median(&setups_s)
    );
    Ok(Timed {
        setups_s,
        passes,
        state,
        peak_rss_mb,
    })
}

/// The traced run's two passes, each on a fresh set-up: an untraced pass,
/// then the same pass with spans (its set-up traced too). Returns
/// `(timed, trace_overhead_frac)`.
///
/// # Errors
///
/// The first error `setup` or `pass` returns.
pub fn run_traced<S, D>(
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
    mut pass: impl FnMut(&mut S, Option<&D>, &mut Tracer) -> Result<Pass<D>, String>,
) -> Result<(Timed<S, D>, f64), String> {
    let mut quiet = Tracer::new(false);
    let mut state = setup(&mut quiet)?;
    let first = pass(&mut state, None, &mut quiet)?;
    let t0 = Instant::now();
    let mut state = setup(tracer)?;
    let setups_s = vec![t0.elapsed().as_secs_f64()];
    let traced = pass(&mut state, first.data.as_ref(), tracer)?;
    let overhead = (traced.total_s() - first.total_s()) / first.total_s();
    Ok((
        Timed {
            setups_s,
            passes: vec![first, traced],
            state,
            peak_rss_mb: stats::peak_rss_mb().unwrap_or(0.0),
        },
        overhead,
    ))
}

/// Directory, relative to the working directory, that traced runs write
/// their host-time chrome traces to.
pub const TRACE_DIR: &str = ".bench_trace";

/// Write a traced run's spans to `TRACE_DIR/<workload>-seed<seed>.json`
/// (nothing when tracing is off; a write failure is reported, not fatal).
pub fn write_trace(workload: &str, cfg: &RunConfig, tracer: &Tracer) {
    if !tracer.enabled() {
        return;
    }
    let path = format!("{TRACE_DIR}/{workload}-seed{}.json", cfg.seed);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| memconv_obs::write_trace(&path, &tracer.events()));
    match written {
        Ok(()) => eprintln!("wrote {path} ({} spans)", tracer.spans().len()),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// The end-to-end metrics every workload reports the same way, given the
/// items of one pass that completed correctly (and, for items that repeat
/// the same work, their classes; see [`Timed::fastest_pass_s`]).
pub fn common_metrics<S, D>(
    out: &mut Outcome,
    timed: &Timed<S, D>,
    ok_per_pass: u64,
    class: Option<&[usize]>,
) {
    out.set("setup_s", timed.setup_s());
    out.set(
        "items_per_s",
        ok_per_pass as f64 / timed.fastest_pass_s(class),
    );
    out.set("peak_rss_mb", timed.peak_rss_mb);
    let ok = out.attempted.saturating_sub(out.failed);
    out.set("success_frac", ok as f64 / out.attempted.max(1) as f64);
}

/// Share of spans' self time per layer among `layers`.
pub fn host_shares(tracer: &Tracer, layers: &[&str]) -> Vec<f64> {
    let selfs: Vec<f64> = layers.iter().map(|l| tracer.self_s(l)).collect();
    let total: f64 = selfs.iter().sum();
    selfs
        .iter()
        .map(|s| if total > 0.0 { s / total } else { 0.0 })
        .collect()
}

/// Milliseconds of self time per span of `layer` (0 without spans).
pub fn ms_per_span(tracer: &Tracer, layer: &str) -> f64 {
    let n = tracer.count(layer);
    if n == 0 {
        0.0
    } else {
        tracer.self_s(layer) * 1e3 / n as f64
    }
}

/// The simulator counters shared by `figures` and `graph`, as per-layer
/// metrics over `items` items whose launches spent `host_s` host seconds.
pub fn gpusim_metrics(
    out: &mut Outcome,
    totals: &memconv::gpusim::KernelStats,
    items: usize,
    launches: usize,
    host_s: f64,
) {
    let n = items.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("gpu-sim.blocks_per_item", totals.sim_blocks as f64 / n);
    out.set(
        "gpu-sim.host_us_per_block",
        if totals.sim_blocks == 0 {
            0.0
        } else {
            host_s * 1e6 / totals.sim_blocks as f64
        },
    );
    out.set("gpu-sim.launches_per_item", launches as f64 / n);
    out.set("gpu-sim.l1_hit_rate", totals.l1_hit_rate().unwrap_or(0.0));
    out.set("gpu-sim.l2_hit_rate", totals.l2_hit_rate().unwrap_or(0.0));
    out.set(
        "gpu-sim.dram_sectors_per_item",
        (totals.dram_read_sectors + totals.dram_write_sectors) as f64 / n,
    );
    out.set(
        "gpu-sim.smem_passes_per_access",
        ratio(totals.smem_passes, totals.smem_accesses),
    );
    out.set(
        "gpu-sim.sectors_per_request",
        ratio(
            totals.gld_transactions + totals.gst_transactions,
            totals.gld_requests + totals.gst_requests,
        ),
    );
    out.set(
        "gpu-sim.local_tx_per_item",
        totals.local_transactions() as f64 / n,
    );
}
