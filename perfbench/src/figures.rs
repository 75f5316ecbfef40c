//! `figures`: a closed loop with one caller over Fig. 3 points and Table I
//! layers, each run by ours and the baselines on block-sampled launches.
//!
//! An item is one algorithm run on one point. Simulator work is nearly all
//! of the host time here; no planner, cache, verification or graph code
//! runs inside an item. Every algorithm is checked against the CPU
//! reference on a small unsampled input after the timed phase, and every
//! pass must repeat the first pass's counters exactly.

use crate::data::{self, Fig3Point, Table1Layer};
use crate::report::Outcome;
use crate::stats::{self, pick, sub_seed};
use crate::trace::Tracer;
use crate::{Pass, RunConfig};
use memconv::baselines::cudnn::{cudnn_family, CudnnFastest};
use memconv::prelude::*;
use memconv::tensor::CompareReport;
use std::time::Instant;

/// The algorithm families of the figures, with their per-layer span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's kernels (`memconv-core`).
    Ours,
    /// Caffe's GEMM-im2col.
    Im2col,
    /// The cuDNN family (cuDNN-fastest on Fig. 3, each member on Table I).
    Cudnn,
    /// ArrayFire-style tiled convolution.
    Tiled,
    /// NPP-style direct convolution.
    Npp,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 5] = [
        Family::Ours,
        Family::Im2col,
        Family::Cudnn,
        Family::Tiled,
        Family::Npp,
    ];

    /// The layer name of the family's spans and per-layer metrics.
    pub fn layer(self) -> &'static str {
        match self {
            Family::Ours => "core.ours",
            Family::Im2col => "baselines.im2col",
            Family::Cudnn => "baselines.cudnn",
            Family::Tiled => "baselines.tiled",
            Family::Npp => "baselines.npp",
        }
    }
}

/// How an item runs.
enum Algo {
    /// A single-channel 2D algorithm on a Fig. 3 point.
    TwoD(Box<dyn Conv2dAlgorithm>),
    /// cuDNN-fastest on a Fig. 3 point: every supporting family member on
    /// its own simulator, the lowest modeled time wins (the selection of
    /// `CudnnFastest::run_detailed`, which the check phase cross-checks).
    CudnnFastest(SampleMode),
    /// A batched NCHW algorithm on a Table I layer.
    Nchw(Box<dyn ConvNchwAlgorithm>),
}

/// One timed item: an algorithm on a point or layer.
pub struct Item {
    /// `point/algorithm` label.
    pub label: String,
    /// Algorithm family.
    pub family: Family,
    /// Index into the point list (2D items) or layer list (NCHW items).
    target: usize,
    algo: Algo,
}

/// The item list over `points` and `layers`, with launches sampled by
/// `sample`.
fn items(points: &[Fig3Point], layers: &[Table1Layer], seed: u64, sample: SampleMode) -> Vec<Item> {
    let mut out = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let algos: [(Family, &str, Algo); 5] = [
            (
                Family::Ours,
                "ours",
                Algo::TwoD(Box::new(Ours::with_config(
                    OursConfig::full().with_sample(sample),
                ))),
            ),
            (
                Family::Im2col,
                "GEMM-im2col",
                Algo::TwoD(Box::new(As2d(Im2colGemm::caffe().with_sample(sample)))),
            ),
            (Family::Cudnn, "cuDNN-fastest", Algo::CudnnFastest(sample)),
            (
                Family::Tiled,
                "ArrayFire",
                Algo::TwoD(Box::new(As2d(TiledConv::arrayfire().with_sample(sample)))),
            ),
            (
                Family::Npp,
                "NPP",
                Algo::TwoD(Box::new(As2d(DirectConv::npp().with_sample(sample)))),
            ),
        ];
        for (family, name, algo) in algos {
            out.push(Item {
                label: format!("{}/{name}", p.label),
                family,
                target: i,
                algo,
            });
        }
    }
    for (i, l) in layers.iter().enumerate() {
        let geo = ConvGeometry::nchw(
            l.batch,
            1,
            l.spatial,
            l.spatial,
            layer_filters(l, i, seed),
            l.filter,
            l.filter,
        );
        let mut algos: Vec<(Family, Box<dyn ConvNchwAlgorithm>)> = vec![
            (
                Family::Ours,
                Box::new(Ours::with_config(OursConfig::full().with_sample(sample))),
            ),
            (
                Family::Im2col,
                Box::new(
                    Im2colGemm::caffe()
                        .with_sample(sample)
                        .with_batch_replication(),
                ),
            ),
        ];
        algos.extend(cudnn_family(sample).into_iter().map(|a| (Family::Cudnn, a)));
        for (family, algo) in algos {
            if !algo.supports_shape(&geo) {
                continue;
            }
            out.push(Item {
                label: format!("{}/{}", l.name, algo.name()),
                family,
                target: i,
                algo: Algo::Nchw(algo),
            });
        }
    }
    out
}

/// Seeded inputs of one pass.
pub struct Inputs {
    /// One image and filter per Fig. 3 point.
    pub images: Vec<(Image2D, Filter2D)>,
    /// One input tensor and filter bank per Table I layer.
    pub tensors: Vec<(Tensor4, FilterBank)>,
}

/// Image width of Fig. 3 point `i` at `seed`: one of the point's widths.
pub fn point_width(p: &Fig3Point, i: usize, seed: u64) -> usize {
    p.widths[pick(seed, &format!("figures/width/{i}"), p.widths.len() as u64) as usize]
}

/// Output filters of Table I layer `i` at `seed`: one of the layer's
/// filter counts.
pub fn layer_filters(l: &Table1Layer, i: usize, seed: u64) -> usize {
    l.filters[pick(
        seed,
        &format!("figures/filters/{i}"),
        l.filters.len() as u64,
    ) as usize]
}

/// Generate the inputs of `points` and `layers` from `seed`.
pub fn inputs(
    points: &[Fig3Point],
    layers: &[Table1Layer],
    seed: u64,
    tracer: &mut Tracer,
) -> Inputs {
    let images = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let w = point_width(p, i, seed);
            let mut rng = TensorRng::new(sub_seed(seed, &format!("figures/point/{i}")));
            tracer.span("tensor", i as u64, || {
                (rng.image(p.side, w), rng.filter(p.filter, p.filter))
            })
        })
        .collect();
    let tensors = layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut rng = TensorRng::new(sub_seed(seed, &format!("figures/layer/{i}")));
            tracer.span("tensor", i as u64, || {
                (
                    rng.tensor(l.batch, 1, l.spatial, l.spatial),
                    rng.filter_bank(layer_filters(l, i, seed), 1, l.filter, l.filter),
                )
            })
        })
        .collect();
    Inputs { images, tensors }
}

fn sim() -> GpuSim {
    GpuSim::rtx2080ti().with_launch_mode(LaunchMode::Sequential)
}

/// What one item produced.
#[derive(Debug, Clone)]
pub struct ItemRun {
    /// Output values.
    pub output: Vec<f32>,
    /// Per-launch counters (the winner's, for cuDNN-fastest).
    pub report: RunReport,
    /// Modeled RTX 2080 Ti seconds.
    pub modeled_s: f64,
    /// Device-memory high-water mark in f32 elements: the largest
    /// simulator the item ran on.
    pub peak_elems: usize,
    /// The cuDNN-fastest winner, if the item selected one.
    pub winner: Option<String>,
}

/// Run cuDNN-fastest on a 2D image: the same candidates, order and strict
/// `<` tie-break as `CudnnFastest::run_detailed`.
fn cudnn_fastest(
    sample: SampleMode,
    img: &Image2D,
    filt: &Filter2D,
    tracer: &mut Tracer,
    item: u64,
) -> ItemRun {
    let t = Tensor4::from_image(img);
    let bank = FilterBank::broadcast(filt, 1, 1);
    let geo = ConvGeometry::nchw(1, 1, img.h(), img.w(), 1, filt.fh(), filt.fw());
    let mut best: Option<ItemRun> = None;
    let mut peak = 0;
    for algo in cudnn_family(sample) {
        if !algo.supports_shape(&geo) {
            continue;
        }
        let mut s = sim();
        let (out, rep) = tracer.span(Family::Cudnn.layer(), item, || algo.run(&mut s, &t, &bank));
        peak = peak.max(s.mem.total_elems());
        let modeled_s = rep.modeled_time(&s.device);
        if best.as_ref().is_none_or(|b| modeled_s < b.modeled_s) {
            best = Some(ItemRun {
                output: out.into_vec(),
                report: rep,
                modeled_s,
                peak_elems: 0,
                winner: Some(algo.name().to_string()),
            });
        }
    }
    let mut best = best.expect("some cuDNN algorithm supports every 2D shape");
    best.peak_elems = peak;
    best
}

fn run_item(item: &Item, inputs: &Inputs, tracer: &mut Tracer, id: u64) -> ItemRun {
    let layer = item.family.layer();
    match &item.algo {
        Algo::TwoD(algo) => {
            let (img, filt) = &inputs.images[item.target];
            let mut s = sim();
            let (out, report) = tracer.span(layer, id, || algo.run(&mut s, img, filt));
            ItemRun {
                output: out.into_vec(),
                modeled_s: report.modeled_time(&s.device),
                report,
                peak_elems: s.mem.total_elems(),
                winner: None,
            }
        }
        Algo::CudnnFastest(sample) => {
            let (img, filt) = &inputs.images[item.target];
            cudnn_fastest(*sample, img, filt, tracer, id)
        }
        Algo::Nchw(algo) => {
            let (input, bank) = &inputs.tensors[item.target];
            let mut s = sim();
            let (out, report) = tracer.span(layer, id, || algo.run(&mut s, input, bank));
            ItemRun {
                output: out.into_vec(),
                modeled_s: report.modeled_time(&s.device),
                report,
                peak_elems: s.mem.total_elems(),
                winner: None,
            }
        }
    }
}

/// The first pass's per-item results (outputs dropped: sampled launches
/// leave most of them unwritten).
pub type FirstPass = Vec<ItemRun>;

/// Run every item once, in order.
fn pass(
    items: &[Item],
    inputs: &Inputs,
    first: Option<&FirstPass>,
    tracer: &mut Tracer,
) -> Pass<FirstPass> {
    let mut item_s = Vec::with_capacity(items.len());
    let mut runs = Vec::with_capacity(items.len());
    let mut mismatched = 0;
    for (k, item) in items.iter().enumerate() {
        let span = tracer.begin("bench.item", k as u64);
        let t0 = Instant::now();
        let mut run = run_item(item, inputs, tracer, k as u64);
        item_s.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        run.output = Vec::new();
        match first {
            Some(f) => {
                if f[k].report.launches != run.report.launches {
                    mismatched += 1;
                }
            }
            None => runs.push(run),
        }
    }
    Pass {
        item_s,
        mismatched,
        data: first.is_none().then_some(runs),
    }
}

/// Check every algorithm against the CPU reference on a small unsampled
/// input; returns the item labels that failed.
fn check(
    points: &[Fig3Point],
    layers: &[Table1Layer],
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<String> {
    let checked = items(points, layers, seed, SampleMode::Full);
    let (ch, cw) = data::FIG_CHECK_IMAGE;
    let check_inputs = Inputs {
        images: points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut rng = TensorRng::new(sub_seed(seed, &format!("figures/check/point/{i}")));
                (rng.image(ch, cw), rng.filter(p.filter, p.filter))
            })
            .collect(),
        tensors: layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let (batch, filters) = data::FIG_CHECK_LAYER;
                let mut rng = TensorRng::new(sub_seed(seed, &format!("figures/check/layer/{i}")));
                (
                    rng.tensor(batch, 1, l.spatial, l.spatial),
                    rng.filter_bank(
                        filters.min(layer_filters(l, i, seed)),
                        1,
                        l.filter,
                        l.filter,
                    ),
                )
            })
            .collect(),
    };
    // Only the reference calls are traced here: the algorithm spans of the
    // per-layer metrics come from the timed items.
    let mut quiet = Tracer::new(false);
    let mut failed = Vec::new();
    for (k, item) in checked.iter().enumerate() {
        let run = run_item(item, &check_inputs, &mut quiet, k as u64);
        let want = match item.algo {
            Algo::TwoD(_) | Algo::CudnnFastest(_) => {
                let (img, filt) = &check_inputs.images[item.target];
                tracer.span("reference", k as u64, || conv2d_ref(img, filt).into_vec())
            }
            Algo::Nchw(_) => {
                let (input, bank) = &check_inputs.tensors[item.target];
                tracer.span("reference", k as u64, || {
                    conv_nchw_ref(input, bank).into_vec()
                })
            }
        };
        let mut ok = run.output.len() == want.len()
            && CompareReport::new(&run.output, &want).within(1e-3, 1e-3);
        if let (Algo::CudnnFastest(_), Some(winner)) = (&item.algo, &run.winner) {
            // The item's selection must be the library's cuDNN-fastest.
            let (img, filt) = &check_inputs.images[item.target];
            let (name, ..) = CudnnFastest::new().run_detailed(
                &mut sim(),
                &Tensor4::from_image(img),
                &FilterBank::broadcast(filt, 1, 1),
            );
            ok &= name == *winner;
        }
        if !ok {
            failed.push(item.label.clone());
        }
    }
    failed
}

/// The modeled metrics of the first pass.
fn modeled_metrics(out: &mut Outcome, first: &FirstPass) {
    let n = first.len().max(1) as f64;
    let ms: Vec<f64> = first.iter().map(|r| r.modeled_s * 1e3).collect();
    let tx: u64 = first.iter().map(|r| r.report.global_transactions()).sum();
    let peak: usize = first.iter().map(|r| r.peak_elems).sum();
    out.set("transactions_per_item", tx as f64 / n);
    out.set("modeled_ms_per_item", ms.iter().sum::<f64>() / n);
    out.set("latency_p50_ms", stats::percentile(&ms, 50));
    out.set("latency_p99_ms", stats::percentile(&ms, 99));
    out.set("device_peak_mb", peak as f64 * 4.0 / 1e6 / n);
    let service: Vec<f64> = first.iter().map(|r| r.modeled_s).collect();
    let slo = data::FIGURES_SLO;
    out.set(
        "slo_rate_rps",
        stats::slo_rate(&slo, |rate| {
            stats::fifo_share_within(&service, rate, data::SLO_ARRIVALS, slo.limit_ms * 1e-3)
        }),
    );
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    items: &[Item],
    first: &FirstPass,
    inputs_geos: &[ConvGeometry],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut totals = KernelStats::default();
    let mut launches = 0;
    for r in first {
        totals += &r.report.totals();
        launches += r.report.launches.len();
    }
    let algo_layers: Vec<&str> = Family::ALL.iter().map(|f| f.layer()).collect();
    let algo_s: f64 = algo_layers.iter().map(|l| tracer.self_s(l)).sum();
    crate::gpusim_metrics(out, &totals, first.len(), launches, algo_s);
    let shares = crate::host_shares(tracer, &algo_layers);
    for (f, share) in Family::ALL.iter().zip(shares) {
        let runs: Vec<&ItemRun> = items
            .iter()
            .zip(first)
            .filter(|(i, _)| i.family == *f)
            .map(|(_, r)| r)
            .collect();
        let tx: u64 = runs.iter().map(|r| r.report.global_transactions()).sum();
        let (share_key, tx_key) = match f {
            Family::Ours => ("core.ours.host_share", "core.ours.transactions"),
            Family::Im2col => (
                "baselines.im2col.host_share",
                "baselines.im2col.transactions",
            ),
            Family::Cudnn => ("baselines.cudnn.host_share", "baselines.cudnn.transactions"),
            Family::Tiled => ("baselines.tiled.host_share", "baselines.tiled.transactions"),
            Family::Npp => ("baselines.npp.host_share", "baselines.npp.transactions"),
        };
        out.set(share_key, share);
        out.set(tx_key, tx as f64 / runs.len().max(1) as f64);
    }
    // The planner and the oracle, called directly on the workload's
    // geometries (the oracle on the paper's kernel).
    let dev = DeviceConfig::rtx2080ti();
    let sample = SampleMode::Auto(data::FIG_SAMPLE_TARGET);
    let mut exact = 0usize;
    for (k, g) in inputs_geos.iter().enumerate() {
        tracer
            .span("serve.planner", k as u64, || {
                memconv_serve::plan_nchw_heuristic(&dev, g, SampleMode::Auto(256))
            })
            .map_err(|e| format!("planning {}: {e}", g.cache_key()))?;
        let ours = Ours::with_config(OursConfig::full().with_sample(sample));
        let p = tracer
            .span("oracle", k as u64, || {
                memconv::oracle::predict_nchw(&ours, &dev, g, LaunchMode::Sequential)
            })
            .map_err(|e| format!("predicting {}: {e}", g.cache_key()))?;
        exact += usize::from(p.is_exact() && p.consistent);
    }
    out.set(
        "serve.planner.ms_per_geometry",
        crate::ms_per_span(tracer, "serve.planner"),
    );
    out.set("oracle.predict_ms", crate::ms_per_span(tracer, "oracle"));
    out.set(
        "oracle.exact_frac",
        exact as f64 / inputs_geos.len().max(1) as f64,
    );
    out.set(
        "reference.ms_per_request",
        crate::ms_per_span(tracer, "reference"),
    );
    Ok(())
}

/// The workload's geometries at `seed`, as NCHW geometries.
pub fn geometries(points: &[Fig3Point], layers: &[Table1Layer], seed: u64) -> Vec<ConvGeometry> {
    let mut out: Vec<ConvGeometry> = points
        .iter()
        .enumerate()
        .map(|(i, p)| ConvGeometry::single(p.side, point_width(p, i, seed), p.filter))
        .collect();
    out.extend(layers.iter().enumerate().map(|(i, l)| {
        ConvGeometry::nchw(
            l.batch,
            1,
            l.spatial,
            l.spatial,
            layer_filters(l, i, seed),
            l.filter,
            l.filter,
        )
    }));
    out
}

/// Run the workload on `points` and `layers`.
///
/// # Errors
///
/// A planner or oracle error in the traced run.
pub fn run_on(
    points: &[Fig3Point],
    layers: &[Table1Layer],
    cfg: &RunConfig,
) -> Result<Outcome, String> {
    let sample = SampleMode::Auto(data::FIG_SAMPLE_TARGET);
    let timed_items = items(points, layers, cfg.seed, sample);
    let mut tracer = Tracer::new(cfg.traced);
    let setup = |tr: &mut Tracer| Ok(inputs(points, layers, cfg.seed, tr));
    let one_pass = |inp: &mut Inputs, first: Option<&FirstPass>, tr: &mut Tracer| {
        Ok(pass(&timed_items, inp, first, tr))
    };
    let (timed, overhead) = if cfg.traced {
        let (t, o) = crate::run_traced(&mut tracer, setup, one_pass)?;
        (t, Some(o))
    } else {
        (
            crate::run_timed(cfg.seconds, &mut tracer, setup, one_pass)?,
            None,
        )
    };
    let failed_labels = check(points, layers, cfg.seed, &mut tracer);
    for l in &failed_labels {
        eprintln!("figures: {l} does not match the CPU reference");
    }
    let n = timed_items.len() as u64;
    let failed_per_pass = timed_items
        .iter()
        .filter(|i| failed_labels.contains(&i.label))
        .count() as u64;
    let mut out = Outcome {
        attempted: n * timed.passes.len() as u64,
        failed: failed_per_pass * timed.passes.len() as u64 + timed.mismatched(),
        metrics: Vec::new(),
    };
    let first = timed.first();
    match overhead {
        None => {
            crate::common_metrics(&mut out, &timed, n - failed_per_pass, None);
            modeled_metrics(&mut out, first);
        }
        Some(o) => {
            layer_metrics(
                &mut out,
                &timed_items,
                first,
                &geometries(points, layers, cfg.seed),
                &mut tracer,
            )?;
            out.set("tensor.input_gen_ms", tracer.self_s("tensor") * 1e3);
            out.set("bench.trace_overhead_frac", o);
        }
    }
    crate::write_trace("figures", cfg, &tracer);
    Ok(out)
}

/// Run the workload on the data set.
///
/// # Errors
///
/// See [`run_on`].
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    run_on(&data::FIG3_POINTS, &data::TABLE1_LAYERS, cfg)
}
