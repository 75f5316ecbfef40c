//! `graph`: a closed loop with one caller running whole-model inferences
//! (batch 2, fresh seeded inputs) through `GraphExecutor::run` in the
//! fused, device-resident schedule. An item is one inference.
//!
//! Each inference makes a few tiny launches, so per-run host costs
//! (`plan_graph` on every run, simulator set-up) and epilogue fusion
//! dominate; it is the only workload that runs the strided and depthwise
//! kernels. The executor's plan cache is warmed in set-up by one inference
//! per model, and every output is checked against a CPU composition of
//! the reference convolution, bias, ReLU and max-pool.

use crate::data::{self, Chain, ChainLayer};
use crate::report::Outcome;
use crate::stats::{self, pick, stratified, sub_seed};
use crate::trace::Tracer;
use crate::{Pass, RunConfig};
use memconv::gpusim::{DeviceConfig, KernelStats, LaunchMode, SampleMode};
use memconv::prelude::{ConvGeometry, Ours, OursConfig, Tensor4, TensorRng};
use memconv::reference::conv_nchw_ref_geo;
use memconv_graph::{
    maxpool_ref, plan_graph, FusionMode, GraphExecConfig, GraphExecutor, GraphMode, GraphRunReport,
    LayerGraph, LayerNode, LayerOp, TensorId, TensorInfo,
};
use memconv_serve::{cache::cache_key, PlanConfig};
use std::time::Instant;

/// The schedule every inference runs.
pub const MODE: GraphMode = GraphMode::Graph {
    fusion: FusionMode::Fused,
};

/// The executor: sequential engine pinned to one thread.
pub fn exec_config() -> GraphExecConfig {
    GraphExecConfig {
        device: DeviceConfig::rtx2080ti(),
        launch_mode: LaunchMode::Sequential,
        parallel_threads: Some(1),
        ..GraphExecConfig::default()
    }
}

/// Input `(height, width)` of chain `i` at `seed`: one of the chain's
/// input shapes.
pub fn chain_input(c: &Chain, i: usize, seed: u64) -> (usize, usize) {
    c.inputs[pick(seed, &format!("graph/input/{i}"), c.inputs.len() as u64) as usize]
}

/// Compile a chain into a layer graph with seeded weights and biases.
///
/// # Errors
///
/// A chain the graph IR rejects.
pub fn build(c: &Chain, (h, w): (usize, usize), seed: u64) -> Result<LayerGraph, String> {
    let mut rng = TensorRng::new(seed);
    let mut tensors = vec![TensorInfo {
        c: c.in_channels,
        h,
        w,
    }];
    let mut nodes: Vec<LayerNode> = Vec::new();
    let mut push = |tensors: &mut Vec<TensorInfo>, name: String, op: LayerOp, out: TensorInfo| {
        tensors.push(out);
        nodes.push(LayerNode {
            name,
            op,
            input: TensorId(tensors.len() - 2),
            output: TensorId(tensors.len() - 1),
        });
    };
    for layer in c.layers {
        let cur = *tensors.last().expect("the input edge exists");
        let (name, filters, filter, stride, groups) = match *layer {
            ChainLayer::Conv {
                name,
                filters,
                filter,
                stride,
            } => (name, filters, filter, stride, 1),
            ChainLayer::Depthwise {
                name,
                filter,
                stride,
            } => (name, cur.c, filter, stride, cur.c),
            ChainLayer::Pool { name, k } => {
                let out = TensorInfo {
                    c: cur.c,
                    h: cur.h / k,
                    w: cur.w / k,
                };
                push(&mut tensors, name.to_string(), LayerOp::MaxPool { k }, out);
                continue;
            }
        };
        if cur.h < filter || cur.w < filter {
            return Err(format!("{}/{name}: input smaller than the filter", c.model));
        }
        let out = TensorInfo {
            c: filters,
            h: (cur.h - filter) / stride + 1,
            w: (cur.w - filter) / stride + 1,
        };
        let weights = rng.filter_bank(filters, cur.c / groups, filter, filter);
        let bias = rng.tensor(1, 1, 1, filters).into_vec();
        let conv = LayerOp::Conv {
            weights,
            stride,
            groups,
        };
        push(&mut tensors, name.to_string(), conv, out);
        push(
            &mut tensors,
            format!("{name}.bias"),
            LayerOp::Bias { bias },
            out,
        );
        push(&mut tensors, format!("{name}.relu"), LayerOp::Relu, out);
    }
    let graph = LayerGraph {
        model: c.model.to_string(),
        tensors,
        nodes,
    };
    graph.validate().map_err(|e| e.to_string())?;
    Ok(graph)
}

/// The conv geometries of one inference of `g`.
pub fn conv_geometries(g: &LayerGraph) -> Vec<ConvGeometry> {
    g.nodes
        .iter()
        .filter_map(|n| match &n.op {
            LayerOp::Conv {
                weights,
                stride,
                groups,
            } => {
                let s = g.shape(n.input);
                Some(
                    ConvGeometry::nchw(
                        data::GRAPH_BATCH,
                        s.c,
                        s.h,
                        s.w,
                        weights.num_filters(),
                        weights.fh(),
                        weights.fw(),
                    )
                    .with_stride(*stride, *stride)
                    .with_groups(*groups),
                )
            }
            _ => None,
        })
        .collect()
}

/// Everything one pass needs, built in set-up.
pub struct Setup {
    graphs: Vec<LayerGraph>,
    exec: GraphExecutor,
    /// The model of each inference.
    models: Vec<usize>,
    inputs: Vec<Tensor4>,
}

/// Compile the chains, generate every inference's input, and warm the
/// executor's plan cache with one inference per model.
///
/// # Errors
///
/// A chain the IR rejects or an executor error.
pub fn setup(chains: &[Chain], n: usize, seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let graphs = chains
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let params = sub_seed(seed, &format!("graph/params/{i}"));
            tracer.span("tensor", i as u64, || {
                build(c, chain_input(c, i, seed), params)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let weights: Vec<usize> = chains.iter().map(|c| c.weight).collect();
    let models = stratified(&weights, n, sub_seed(seed, "graph/mix"));
    let mut rng = TensorRng::new(sub_seed(seed, "graph/inputs"));
    let inputs = models
        .iter()
        .enumerate()
        .map(|(k, &m)| {
            let s = graphs[m].shape(graphs[m].input());
            tracer.span("tensor", k as u64, || {
                rng.tensor(data::GRAPH_BATCH, s.c, s.h, s.w)
            })
        })
        .collect();
    let mut exec = GraphExecutor::new(exec_config());
    let mut warm = TensorRng::new(sub_seed(seed, "graph/warmup"));
    for (i, g) in graphs.iter().enumerate() {
        let s = g.shape(g.input());
        let input = warm.tensor(data::GRAPH_BATCH, s.c, s.h, s.w);
        let span = tracer.begin("graph.exec.warmup", i as u64);
        exec.run(g, &input, MODE).map_err(|e| e.to_string())?;
        tracer.end(span);
    }
    Ok(Setup {
        graphs,
        exec,
        models,
        inputs,
    })
}

/// One inference's results.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Output values.
    pub output: Vec<f32>,
    /// The executor's report.
    pub report: GraphRunReport,
}

/// The first pass's inferences.
pub type FirstPass = Vec<Inference>;

/// Run every inference once, in order.
fn pass(
    s: &mut Setup,
    first: Option<&FirstPass>,
    tracer: &mut Tracer,
) -> Result<Pass<FirstPass>, String> {
    let mut item_s = Vec::with_capacity(s.models.len());
    let mut runs = Vec::new();
    let mut mismatched = 0;
    for (k, (&m, input)) in s.models.iter().zip(&s.inputs).enumerate() {
        let span = tracer.begin("graph.exec", k as u64);
        let t0 = Instant::now();
        let (out, report) = s
            .exec
            .run(&s.graphs[m], input, MODE)
            .map_err(|e| e.to_string())?;
        item_s.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        match first {
            Some(f) => {
                if f[k].output != out.as_slice() || f[k].report != report {
                    mismatched += 1;
                }
            }
            None => runs.push(Inference {
                output: out.into_vec(),
                report,
            }),
        }
    }
    Ok(Pass {
        item_s,
        mismatched,
        data: first.is_none().then_some(runs),
    })
}

/// The model on the CPU: reference convolution, bias, ReLU and max-pool
/// composed node by node.
pub fn cpu_forward(g: &LayerGraph, input: &Tensor4, tracer: &mut Tracer, item: u64) -> Vec<f32> {
    let mut x = input.clone();
    for node in &g.nodes {
        let (n, c, h, w) = x.dims();
        x = match &node.op {
            LayerOp::Conv {
                weights,
                stride,
                groups,
            } => {
                let geo = ConvGeometry::nchw(
                    n,
                    c,
                    h,
                    w,
                    weights.num_filters(),
                    weights.fh(),
                    weights.fw(),
                )
                .with_stride(*stride, *stride)
                .with_groups(*groups);
                tracer.span("reference", item, || conv_nchw_ref_geo(&x, weights, &geo))
            }
            LayerOp::Bias { bias } => {
                let mut y = x;
                for (i, v) in y.as_mut_slice().iter_mut().enumerate() {
                    *v += bias[(i / (h * w)) % c];
                }
                y
            }
            LayerOp::Relu => {
                let mut y = x;
                for v in y.as_mut_slice() {
                    *v = v.max(0.0);
                }
                y
            }
            LayerOp::MaxPool { k } => {
                let data = maxpool_ref(x.as_slice(), n * c, h, w, *k);
                Tensor4::from_vec(n, c, h / k, w / k, data).expect("pool output shape")
            }
        };
    }
    x.into_vec()
}

/// Run the workload on `chains`.
///
/// # Errors
///
/// An executor error, or a planner or oracle error in the traced run.
pub fn run_on(chains: &[Chain], n: usize, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(cfg.traced);
    let set_up = |tr: &mut Tracer| setup(chains, n, cfg.seed, tr);
    let (timed, overhead) = if cfg.traced {
        let (t, o) = crate::run_traced(&mut tracer, set_up, pass)?;
        (t, Some(o))
    } else {
        (
            crate::run_timed(cfg.seconds, &mut tracer, set_up, pass)?,
            None,
        )
    };
    let s = &timed.state;
    let first = timed.first();
    let mut failed_first = 0u64;
    for (k, ((&m, input), inf)) in s.models.iter().zip(&s.inputs).zip(first).enumerate() {
        if cpu_forward(&s.graphs[m], input, &mut tracer, k as u64) != inf.output {
            failed_first += 1;
        }
    }
    let passes = timed.passes.len() as u64;
    let mut out = Outcome {
        attempted: n as u64 * passes,
        failed: failed_first * passes + timed.mismatched(),
        metrics: Vec::new(),
    };
    let items = first.len().max(1) as f64;
    match overhead {
        None => {
            crate::common_metrics(&mut out, &timed, n as u64 - failed_first, Some(&s.models));
            let ms: Vec<f64> = first
                .iter()
                .map(|i| i.report.modeled_seconds * 1e3)
                .collect();
            let tx: u64 = first.iter().map(|i| i.report.transactions).sum();
            let peak: usize = first.iter().map(|i| i.report.peak_global_elems).sum();
            out.set("transactions_per_item", tx as f64 / items);
            out.set("modeled_ms_per_item", ms.iter().sum::<f64>() / items);
            out.set("latency_p50_ms", stats::percentile(&ms, 50));
            out.set("latency_p99_ms", stats::percentile(&ms, 99));
            out.set("device_peak_mb", peak as f64 * 4.0 / 1e6 / items);
            let service: Vec<f64> = first.iter().map(|i| i.report.modeled_seconds).collect();
            let slo = data::GRAPH_SLO;
            out.set(
                "slo_rate_rps",
                stats::slo_rate(&slo, |rate| {
                    stats::fifo_share_within(
                        &service,
                        rate,
                        data::SLO_ARRIVALS,
                        slo.limit_ms * 1e-3,
                    )
                }),
            );
        }
        Some(o) => {
            layer_metrics(&mut out, s, first, &mut tracer)?;
            out.set("bench.trace_overhead_frac", o);
        }
    }
    crate::write_trace("graph", cfg, &tracer);
    Ok(out)
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    s: &Setup,
    first: &FirstPass,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let items = first.len().max(1) as f64;
    let mut totals = KernelStats::default();
    let mut launches = 0;
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let mut epilogue_tx = 0u64;
    let mut tx = 0u64;
    let mut fused = 0usize;
    let mut peak = 0usize;
    for inf in first {
        for l in &inf.report.layers {
            totals += &l.stats;
            launches += 1;
            if let Some(hit) = l.cache_hit {
                lookups += 1;
                hits += u64::from(hit);
            }
        }
        epilogue_tx += inf.report.transactions_of("bias") + inf.report.transactions_of("relu");
        tx += inf.report.transactions;
        fused += inf.report.fusion.fused_bias + inf.report.fusion.fused_relu;
        peak += inf.report.peak_global_elems;
    }
    crate::gpusim_metrics(
        out,
        &totals,
        first.len(),
        launches,
        tracer.self_s("graph.exec"),
    );
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    out.set("graph.cache_hit_rate", hit_rate);
    out.set("serve.cache.hit_rate", hit_rate);
    out.set("graph.fused_epilogues_per_item", fused as f64 / items);
    out.set(
        "graph.epilogue_tx_share",
        epilogue_tx as f64 / tx.max(1) as f64,
    );
    out.set("graph.peak_global_elems", peak as f64 / items);
    out.set(
        "reference.ms_per_request",
        crate::ms_per_span(tracer, "reference"),
    );
    out.set("tensor.input_gen_ms", tracer.self_s("tensor") * 1e3);

    // plan_graph once per inference, then the planner and the oracle on
    // every distinct conv geometry (the oracle on the kernel configuration
    // the executor's cached plan selects).
    for (k, &m) in s.models.iter().enumerate() {
        tracer
            .span("graph.plan", k as u64, || {
                plan_graph(&s.graphs[m], FusionMode::Fused)
            })
            .map_err(|e| e.to_string())?;
    }
    out.set(
        "graph.plan_ms_per_item",
        crate::ms_per_span(tracer, "graph.plan"),
    );
    let dev = DeviceConfig::rtx2080ti();
    let mut geos: Vec<ConvGeometry> = Vec::new();
    for g in s.graphs.iter().flat_map(conv_geometries) {
        if !geos.contains(&g) {
            geos.push(g);
        }
    }
    let mut exact = 0usize;
    for (k, g) in geos.iter().enumerate() {
        tracer
            .span("serve.planner", k as u64, || {
                memconv_serve::plan_nchw_heuristic(&dev, g, SampleMode::Auto(64))
            })
            .map_err(|e| format!("planning {}: {e}", g.cache_key()))?;
        let cfg = match s.exec.cache().peek(&cache_key(&dev, g)).map(|p| &p.config) {
            Some(PlanConfig::Ours {
                column_reuse,
                rows_per_thread,
                block_warps,
            }) => OursConfig {
                column_reuse: *column_reuse,
                rows_per_thread: *rows_per_thread,
                block_warps: *block_warps,
                sample: SampleMode::Full,
            },
            _ => OursConfig::full(),
        };
        let p = tracer
            .span("oracle", k as u64, || {
                memconv::oracle::predict_nchw(
                    &Ours::with_config(cfg),
                    &dev,
                    g,
                    LaunchMode::Sequential,
                )
            })
            .map_err(|e| format!("predicting {}: {e}", g.cache_key()))?;
        exact += usize::from(p.is_exact() && p.consistent);
    }
    out.set(
        "serve.planner.ms_per_geometry",
        crate::ms_per_span(tracer, "serve.planner"),
    );
    out.set("oracle.predict_ms", crate::ms_per_span(tracer, "oracle"));
    out.set("oracle.exact_frac", exact as f64 / geos.len().max(1) as f64);
    Ok(())
}

/// Run the workload on the data set.
///
/// # Errors
///
/// See [`run_on`].
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    run_on(&data::GRAPH_CHAINS, data::GRAPH_INFERENCES, cfg)
}
