//! The graph executor: runs a planned [`LayerGraph`] on the simulator,
//! either as one device-resident schedule (`Graph` mode) or layer-at-a-
//! time with host round-trips (`LayerAtATime` mode — the baseline the
//! paper's transaction metric is measured against).
//!
//! ## The two schedules
//!
//! * **Graph** — one `GpuSim` hosts the whole model. Intermediates live
//!   in the planned ping-pong pool ([`crate::plan::PoolPlan`]); eligible
//!   epilogues are fused into conv store paths; only the final output
//!   crosses back to the host. Each conv resolves its kernel config
//!   through a per-executor plan cache (heuristic oracle fill on miss —
//!   zero modeled planning cost, the serving stack's convention).
//! * **LayerAtATime** — every IR node is its own kernel on a fresh
//!   `GpuSim`, with the intermediate tensor downloaded to the host and
//!   re-uploaded for the next layer — the classic framework dispatch
//!   loop. Same plan cache, same kernels, no fusion, no pool.
//!
//! ## Correctness contract
//!
//! Both schedules produce **bit-identical** outputs for the same graph
//! and input, across `LaunchMode::{Sequential,Parallel}` and worker
//! counts (proptest-pinned in `tests/prop_graph.rs`). Counters may
//! legitimately differ — buffer base addresses differ between schedules,
//! so L2 set indexing differs — but outputs may not.

use std::sync::Arc;

use crate::ir::{GraphIrError, LayerGraph, LayerOp};
use crate::plan::{plan_graph, FusionMode, FusionReport, GraphPlan, Step, StepKind};
use memconv::core::{try_launch_conv_nchw_fused, ConvEpilogue, OursConfig};
use memconv::gpusim::{
    launch_time, BufId, DeviceConfig, GpuSim, KernelStats, LaunchError, LaunchMode,
    LaunchSpanRecord, SampleMode, SpanConfig,
};
use memconv::tensor::{ConvGeometry, Tensor4};
use memconv_serve::cache::{cache_key, PlanCache};
use memconv_serve::{plan_nchw_heuristic, PlanConfig, PlanError};

/// Which schedule [`GraphExecutor::run`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMode {
    /// Whole-model device-resident schedule with the given fusion mode.
    Graph {
        /// Fold epilogues into conv store paths, or keep one kernel per
        /// node (still device-resident, still pooled).
        fusion: FusionMode,
    },
    /// One kernel per node, fresh simulator per layer, host round-trips
    /// between layers.
    LayerAtATime,
}

impl GraphMode {
    /// Stable tag for reports and bench rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            GraphMode::Graph {
                fusion: FusionMode::Fused,
            } => "graph",
            GraphMode::Graph {
                fusion: FusionMode::Unfused,
            } => "graph-unfused",
            GraphMode::LayerAtATime => "layer",
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct GraphExecConfig {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Launch engine for every kernel.
    pub launch_mode: LaunchMode,
    /// Plan-cache capacity (conv configs, keyed by device + geometry).
    pub cache_capacity: usize,
    /// Sampling bound for the heuristic planner's phantom scoring runs
    /// (host cost only; never affects results).
    pub trial_sample: SampleMode,
    /// Record per-launch spans (for `chrome://tracing` export).
    pub record_spans: bool,
    /// Worker-thread count for the parallel engine (`None` = the host's
    /// default). Never affects results — pinned in `tests/prop_graph.rs`.
    pub parallel_threads: Option<usize>,
}

impl Default for GraphExecConfig {
    fn default() -> Self {
        GraphExecConfig {
            device: DeviceConfig::rtx2080ti(),
            launch_mode: LaunchMode::Sequential,
            cache_capacity: 64,
            trial_sample: SampleMode::Auto(64),
            record_spans: false,
            parallel_threads: None,
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph failed validation.
    Ir(GraphIrError),
    /// The input tensor does not match the graph's input edge.
    BadInput(String),
    /// Planning failed for a conv layer's geometry.
    Plan {
        /// Layer name.
        layer: String,
        /// Underlying planner error.
        source: PlanError,
    },
    /// A kernel launch failed.
    Launch {
        /// Layer name.
        layer: String,
        /// Underlying launch error.
        source: LaunchError,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Ir(e) => write!(f, "{e}"),
            GraphError::BadInput(m) => write!(f, "bad graph input: {m}"),
            GraphError::Plan { layer, source } => write!(f, "planning {layer}: {source}"),
            GraphError::Launch { layer, source } => write!(f, "launching {layer}: {source}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<GraphIrError> for GraphError {
    fn from(e: GraphIrError) -> Self {
        GraphError::Ir(e)
    }
}

/// One executed step's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRun {
    /// Layer name (the conv node's name for fused steps).
    pub name: String,
    /// Kernel class: `conv`, `conv-fused`, `bias`, `relu`, `maxpool`.
    pub kernel: &'static str,
    /// The launch's counters.
    pub stats: KernelStats,
    /// Modeled seconds of the launch.
    pub modeled_seconds: f64,
    /// Plan-cache outcome (`Some` for conv steps only).
    pub cache_hit: Option<bool>,
}

/// Everything one [`GraphExecutor::run`] produced besides the output.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRunReport {
    /// Model name.
    pub model: String,
    /// Schedule tag ([`GraphMode::as_str`]).
    pub mode: &'static str,
    /// Per-step accounting, in execution order.
    pub layers: Vec<LayerRun>,
    /// What the planner fused (for `LayerAtATime` this reports the
    /// unfused schedule: `kernels_after == kernels_before`).
    pub fusion: FusionReport,
    /// Global memory transactions across all launches — the paper's
    /// metric.
    pub transactions: u64,
    /// Modeled seconds across all launches (serialized, single stream).
    pub modeled_seconds: f64,
    /// Peak device footprint over the run, in f32 elements (buffers live
    /// simultaneously; layer-at-a-time takes the max over its per-layer
    /// simulators).
    pub peak_global_elems: usize,
    /// Intermediate tensors that crossed the host boundary (0 for the
    /// device-resident schedule).
    pub host_roundtrips: usize,
    /// Recorded launch spans (empty unless
    /// [`GraphExecConfig::record_spans`]).
    pub spans: Vec<LaunchSpanRecord>,
}

impl GraphRunReport {
    /// Transactions of the steps named `kind` (e.g. how much the
    /// standalone epilogues cost in the unfused schedule).
    pub fn transactions_of(&self, kind: &str) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kernel == kind)
            .map(|l| l.stats.global_transactions())
            .sum()
    }
}

/// Whole-model executor with a persistent per-device plan cache.
///
/// It keeps one simulator for all its runs and makes it fresh with
/// [`GpuSim::reset`]: at the end of every run, so that between runs it
/// holds no device memory and no handle to the caller's input, and before
/// each layer of the layer-at-a-time schedule. A reset simulator is
/// indistinguishable from a new one, so every run's output and report are
/// those of a fresh simulator (pinned in `tests/prop_graph.rs`), while the
/// simulator's built L2 and scratch survive from run to run.
#[derive(Debug)]
pub struct GraphExecutor {
    cfg: GraphExecConfig,
    cache: PlanCache,
    /// The kept simulator, fresh between runs; moved out for the length
    /// of a run.
    sim: Option<GpuSim>,
}

impl GraphExecutor {
    /// New executor.
    pub fn new(cfg: GraphExecConfig) -> Self {
        let cache = PlanCache::new(cfg.cache_capacity);
        GraphExecutor {
            cfg,
            cache,
            sim: None,
        }
    }

    /// The executor's plan cache (hit/miss counters for reports).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The executor's configuration.
    pub fn config(&self) -> &GraphExecConfig {
        &self.cfg
    }

    fn new_sim(&self) -> GpuSim {
        let mut sim = GpuSim::new(self.cfg.device.clone()).with_launch_mode(self.cfg.launch_mode);
        sim.set_parallel_threads(self.cfg.parallel_threads);
        if self.cfg.record_spans {
            sim.set_span_recording(Some(SpanConfig::default()));
        }
        sim
    }

    /// Run `graph` on `input` (batch `N × C × H × W`, matching the
    /// graph's input edge) under the given schedule.
    pub fn run(
        &mut self,
        graph: &LayerGraph,
        input: &Tensor4,
        mode: GraphMode,
    ) -> Result<(Tensor4, GraphRunReport), GraphError> {
        let want = graph.shape(graph.input());
        let (n, c, h, w) = input.dims();
        if (c, h, w) != (want.c, want.h, want.w) {
            return Err(GraphError::BadInput(format!(
                "{}: input {c}×{h}×{w} does not match graph input {}×{}×{}",
                graph.model, want.c, want.h, want.w
            )));
        }
        let fusion = match mode {
            GraphMode::Graph { fusion } => fusion,
            GraphMode::LayerAtATime => FusionMode::Unfused,
        };
        let plan = plan_graph(graph, fusion)?;
        let mut sim = self.sim.take().unwrap_or_else(|| self.new_sim());
        let out = match mode {
            GraphMode::Graph { .. } => self.run_resident(&mut sim, graph, &plan, input, n, mode),
            GraphMode::LayerAtATime => self.run_layerwise(&mut sim, graph, &plan, input, n, mode),
        };
        sim.reset();
        self.sim = Some(sim);
        out
    }

    /// Resolve a conv step's kernel config through the plan cache.
    fn resolve_conv(
        &mut self,
        layer: &str,
        g: &ConvGeometry,
    ) -> Result<(OursConfig, bool), GraphError> {
        let key = cache_key(&self.cfg.device, g);
        let (plan, hit) = match self.cache.get(&key) {
            Some(p) => (p, true),
            None => {
                let outcome = plan_nchw_heuristic(&self.cfg.device, g, self.cfg.trial_sample)
                    .map_err(|source| GraphError::Plan {
                        layer: layer.to_string(),
                        source,
                    })?;
                self.cache.insert(key, outcome.plan.clone());
                (outcome.plan, false)
            }
        };
        let cfg = match plan.config {
            PlanConfig::Ours {
                column_reuse,
                rows_per_thread,
                block_warps,
            } => OursConfig {
                column_reuse,
                rows_per_thread,
                block_warps,
                sample: SampleMode::Full,
            },
            // The planner picked a non-fusable baseline for this shape;
            // the graph schedule still runs the fused kernel family so
            // both schedules share one arithmetic path.
            _ => OursConfig::full(),
        };
        Ok((cfg, hit))
    }

    /// Execute one step against resolved buffers. Weights/bias data are
    /// uploaded into `sim` here (host writes; no modeled transactions).
    #[allow(clippy::too_many_arguments)]
    fn exec_step(
        &mut self,
        sim: &mut GpuSim,
        graph: &LayerGraph,
        step: &Step,
        src: BufId,
        dst: BufId,
        batch: usize,
        label: &str,
    ) -> Result<LayerRun, GraphError> {
        let inp = graph.shape(step.input);
        sim.set_span_label(label);
        let launch_err = |layer: &str, source| GraphError::Launch {
            layer: layer.to_string(),
            source,
        };
        let (name, kernel, stats, cache_hit) = match step.kind {
            StepKind::Conv { node, bias, relu } => {
                let name = graph.nodes[node].name.clone();
                let LayerOp::Conv {
                    ref weights,
                    stride,
                    groups,
                } = graph.nodes[node].op
                else {
                    unreachable!("planner points conv steps at conv nodes");
                };
                let g = ConvGeometry::nchw(
                    batch,
                    inp.c,
                    inp.h,
                    inp.w,
                    weights.num_filters(),
                    weights.fh(),
                    weights.fw(),
                )
                .with_stride(stride, stride)
                .with_groups(groups);
                let (cfg, hit) = self.resolve_conv(&name, &g)?;
                let bw = sim.mem.upload(weights.as_slice());
                let bias_buf = match bias {
                    Some(bn) => {
                        let LayerOp::Bias { ref bias } = graph.nodes[bn].op else {
                            unreachable!("planner points bias folds at bias nodes");
                        };
                        Some(sim.mem.upload(bias))
                    }
                    None => None,
                };
                let ep = ConvEpilogue {
                    bias: bias_buf,
                    relu: relu.is_some(),
                };
                let stats = try_launch_conv_nchw_fused(sim, src, bw, dst, &g, &cfg, ep)
                    .map_err(|e| launch_err(&name, e))?;
                (name, step.kind.kind(), stats, Some(hit))
            }
            StepKind::Bias { node } => {
                let name = graph.nodes[node].name.clone();
                let LayerOp::Bias { ref bias } = graph.nodes[node].op else {
                    unreachable!("planner points bias steps at bias nodes");
                };
                let bb = sim.mem.upload(bias);
                let stats = crate::kernels::launch_epilogue(
                    sim,
                    src,
                    dst,
                    Some(bb),
                    false,
                    inp.c,
                    batch * inp.c,
                    inp.h * inp.w,
                )
                .map_err(|e| launch_err(&name, e))?;
                (name, "bias", stats, None)
            }
            StepKind::Relu { node } => {
                let name = graph.nodes[node].name.clone();
                let stats = crate::kernels::launch_epilogue(
                    sim,
                    src,
                    dst,
                    None,
                    true,
                    inp.c,
                    batch * inp.c,
                    inp.h * inp.w,
                )
                .map_err(|e| launch_err(&name, e))?;
                (name, "relu", stats, None)
            }
            StepKind::MaxPool { node } => {
                let name = graph.nodes[node].name.clone();
                let LayerOp::MaxPool { k } = graph.nodes[node].op else {
                    unreachable!("planner points pool steps at pool nodes");
                };
                let stats =
                    crate::kernels::launch_maxpool(sim, src, dst, batch * inp.c, inp.h, inp.w, k)
                        .map_err(|e| launch_err(&name, e))?;
                (name, "maxpool", stats, None)
            }
        };
        let modeled_seconds = launch_time(&stats, &self.cfg.device).total();
        Ok(LayerRun {
            name,
            kernel,
            stats,
            modeled_seconds,
            cache_hit,
        })
    }

    /// The device-resident schedule: one simulator (fresh on entry),
    /// pooled intermediates.
    fn run_resident(
        &mut self,
        sim: &mut GpuSim,
        graph: &LayerGraph,
        plan: &GraphPlan,
        input: &Tensor4,
        batch: usize,
        mode: GraphMode,
    ) -> Result<(Tensor4, GraphRunReport), GraphError> {
        let input_buf = sim.mem.upload_shared(input.shared());
        let slots: Vec<BufId> = plan
            .pool
            .slot_elems
            .iter()
            .map(|&elems| sim.mem.alloc(elems * batch))
            .collect();

        let mut layers = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let src = match plan.pool.slot[step.input.0] {
                Some(s) => slots[s],
                None => input_buf,
            };
            let dst = slots[plan.pool.slot[step.output.0].expect("outputs materialize")];
            let label = format!("{}/{}", graph.model, step_name(graph, step));
            layers.push(self.exec_step(sim, graph, step, src, dst, batch, &label)?);
        }

        let out_shape = graph.shape(graph.output());
        let out_slot = plan.pool.slot[graph.output().0].expect("output materializes");
        // The pool slot may be oversized: the output is its prefix, and it
        // gives the rest of the slot's allocation back.
        let mut data = sim.mem.take(slots[out_slot]);
        data.truncate(batch * out_shape.elems());
        data.shrink_to_fit();
        let output = Tensor4::from_vec(batch, out_shape.c, out_shape.h, out_shape.w, data)
            .expect("shape by construction");

        let peak = sim.mem.total_elems();
        let spans = sim.take_launch_spans();
        Ok((
            output,
            self.report(graph, plan, mode, layers, peak, 0, spans),
        ))
    }

    /// The layer-at-a-time schedule: fresh (reset) simulator and host
    /// round-trip per kernel.
    fn run_layerwise(
        &mut self,
        sim: &mut GpuSim,
        graph: &LayerGraph,
        plan: &GraphPlan,
        input: &Tensor4,
        batch: usize,
        mode: GraphMode,
    ) -> Result<(Tensor4, GraphRunReport), GraphError> {
        let mut cur = input.shared();
        let mut layers = Vec::with_capacity(plan.steps.len());
        let mut spans = Vec::new();
        let mut peak = 0usize;
        for step in &plan.steps {
            sim.reset();
            let src = sim.mem.upload_shared(cur);
            let dst = sim.mem.alloc(batch * graph.shape(step.output).elems());
            let label = format!("{}/{}", graph.model, step_name(graph, step));
            layers.push(self.exec_step(sim, graph, step, src, dst, batch, &label)?);
            cur = Arc::new(sim.mem.take(dst));
            peak = peak.max(sim.mem.total_elems());
            spans.extend(sim.take_launch_spans());
        }
        let out_shape = graph.shape(graph.output());
        let output = Tensor4::from_vec(
            batch,
            out_shape.c,
            out_shape.h,
            out_shape.w,
            Arc::unwrap_or_clone(cur),
        )
        .expect("shape by construction");
        let roundtrips = plan.steps.len().saturating_sub(1);
        Ok((
            output,
            self.report(graph, plan, mode, layers, peak, roundtrips, spans),
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        graph: &LayerGraph,
        plan: &GraphPlan,
        mode: GraphMode,
        layers: Vec<LayerRun>,
        peak_global_elems: usize,
        host_roundtrips: usize,
        spans: Vec<LaunchSpanRecord>,
    ) -> GraphRunReport {
        let transactions = layers.iter().map(|l| l.stats.global_transactions()).sum();
        let modeled_seconds = layers.iter().map(|l| l.modeled_seconds).sum();
        GraphRunReport {
            model: graph.model.clone(),
            mode: mode.as_str(),
            layers,
            fusion: plan.fusion,
            transactions,
            modeled_seconds,
            peak_global_elems,
            host_roundtrips,
            spans,
        }
    }
}

/// The name a step reports: its primary node's name.
fn step_name<'g>(graph: &'g LayerGraph, step: &Step) -> &'g str {
    let node = match step.kind {
        StepKind::Conv { node, .. }
        | StepKind::Bias { node }
        | StepKind::Relu { node }
        | StepKind::MaxPool { node } => node,
    };
    &graph.nodes[node].name
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv::workloads::network_zoo;

    fn tiny_cfg() -> GraphExecConfig {
        GraphExecConfig {
            device: DeviceConfig::test_tiny(),
            ..GraphExecConfig::default()
        }
    }

    fn tiny_graph(which: usize) -> LayerGraph {
        LayerGraph::from_network(&network_zoo().remove(which).capped(20, 4), 9).unwrap()
    }

    fn tiny_input(graph: &LayerGraph, batch: usize, seed: u64) -> Tensor4 {
        let s = graph.shape(graph.input());
        memconv::tensor::generate::TensorRng::new(seed).tensor(batch, s.c, s.h, s.w)
    }

    #[test]
    fn graph_and_layerwise_outputs_are_bit_identical() {
        // Includes MobileNet: strided + depthwise nodes run in both
        // schedules at native geometry.
        for which in 0..network_zoo().len() {
            let graph = tiny_graph(which);
            let input = tiny_input(&graph, 2, 31 + which as u64);
            let mut ex = GraphExecutor::new(tiny_cfg());
            let (fused, _) = ex
                .run(
                    &graph,
                    &input,
                    GraphMode::Graph {
                        fusion: FusionMode::Fused,
                    },
                )
                .unwrap();
            let (layered, _) = ex.run(&graph, &input, GraphMode::LayerAtATime).unwrap();
            assert_eq!(
                fused.as_slice(),
                layered.as_slice(),
                "model {}",
                graph.model
            );
            // The output is taken from a pool slot sized for the largest
            // tensor assigned to it, but holds no more than its elements.
            let len = fused.len();
            assert_eq!(fused.into_vec().capacity(), len, "model {}", graph.model);
        }
    }

    #[test]
    fn fused_schedule_launches_fewer_kernels_and_fewer_transactions() {
        let graph = tiny_graph(1); // VGG block: conv,bias,relu ×2 + pool
        let input = tiny_input(&graph, 1, 5);
        let mut ex = GraphExecutor::new(tiny_cfg());
        let (_, fused) = ex
            .run(
                &graph,
                &input,
                GraphMode::Graph {
                    fusion: FusionMode::Fused,
                },
            )
            .unwrap();
        let (_, layered) = ex.run(&graph, &input, GraphMode::LayerAtATime).unwrap();
        assert_eq!(fused.layers.len(), 3);
        assert_eq!(layered.layers.len(), 7);
        assert!(fused.transactions < layered.transactions);
        assert_eq!(fused.host_roundtrips, 0);
        assert_eq!(layered.host_roundtrips, 6);
        assert_eq!(fused.fusion.fused_bias, 2);
        // The eliminated traffic is the standalone epilogues'.
        assert!(layered.transactions_of("bias") > 0);
        assert_eq!(fused.transactions_of("bias"), 0);
        // Pooled intermediates shrink the device footprint too.
        assert!(fused.peak_global_elems < layered_peak_equivalent(&graph, 1));
    }

    #[test]
    fn layerwise_runs_each_layer_on_a_fresh_simulator() {
        let graph = tiny_graph(1);
        let input = tiny_input(&graph, 1, 5);
        let mut ex = GraphExecutor::new(GraphExecConfig {
            record_spans: true,
            ..tiny_cfg()
        });
        let (_, layered) = ex.run(&graph, &input, GraphMode::LayerAtATime).unwrap();
        // One launch per layer, each the first of its simulator: the
        // launch sequence starts over at every layer.
        let seqs: Vec<u64> = layered.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs.len(), layered.layers.len());
        assert!(seqs.iter().all(|&s| s == seqs[0]), "{seqs:?}");
    }

    /// What per-edge allocation would cost on one device: every edge
    /// live simultaneously (upper bound the pool must beat).
    fn layered_peak_equivalent(graph: &LayerGraph, batch: usize) -> usize {
        graph.tensors.iter().map(|t| t.elems() * batch).sum()
    }

    #[test]
    fn plan_cache_hits_on_repeated_geometry() {
        let graph = tiny_graph(2); // ResNet block: two same-shape convs? no — shapes differ
        let input = tiny_input(&graph, 1, 6);
        let mut ex = GraphExecutor::new(tiny_cfg());
        ex.run(
            &graph,
            &input,
            GraphMode::Graph {
                fusion: FusionMode::Fused,
            },
        )
        .unwrap();
        let misses_after_first = ex.cache().misses();
        let (_, rep) = ex
            .run(
                &graph,
                &input,
                GraphMode::Graph {
                    fusion: FusionMode::Fused,
                },
            )
            .unwrap();
        // Second run hits for every conv.
        assert_eq!(ex.cache().misses(), misses_after_first);
        assert!(rep.layers.iter().all(|l| l.cache_hit != Some(false)));
    }

    #[test]
    fn spans_carry_model_layer_labels() {
        let graph = tiny_graph(3);
        let input = tiny_input(&graph, 1, 7);
        let mut ex = GraphExecutor::new(GraphExecConfig {
            record_spans: true,
            ..tiny_cfg()
        });
        let (_, rep) = ex
            .run(
                &graph,
                &input,
                GraphMode::Graph {
                    fusion: FusionMode::Fused,
                },
            )
            .unwrap();
        assert_eq!(rep.spans.len(), rep.layers.len());
        assert!(rep.spans[0].label.starts_with("GoogLeNet/"));
    }

    #[test]
    fn mismatched_input_is_rejected() {
        let graph = tiny_graph(0);
        let mut ex = GraphExecutor::new(tiny_cfg());
        let bad = Tensor4::zeros(1, 2, 5, 5);
        let err = ex
            .run(
                &graph,
                &bad,
                GraphMode::Graph {
                    fusion: FusionMode::Fused,
                },
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::BadInput(_)));
    }
}
