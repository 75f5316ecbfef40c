//! The layer-graph bit-identity contract, property-tested.
//!
//! Three properties over arbitrary zoo models, seeds, batch sizes,
//! engines and worker counts:
//!
//! 1. **Schedule invariance** — the fused device-resident schedule, the
//!    unfused device-resident schedule and the layer-at-a-time schedule
//!    produce bit-identical whole-model outputs: epilogue fusion and the
//!    ping-pong pool are pure transaction optimizations.
//! 2. **Engine/worker invariance** — `LaunchMode::Sequential` and
//!    `LaunchMode::Parallel` under different worker counts agree on the
//!    output bytes *and* every per-layer counter (the counters are
//!    execution-order-free by construction).
//! 3. **Serving transparency** — window-coalesced batch serving returns
//!    each request exactly the bytes solo serving returns.
//! 4. **Executor reuse** — one executor running a sequence of inferences
//!    (its one simulator reset between them) equals a fresh executor per
//!    inference, outputs and full reports alike.

use std::sync::Arc;

use memconv::gpusim::{DeviceConfig, LaunchMode};
use memconv::tensor::generate::TensorRng;
use memconv::workloads::network_zoo;
use memconv_graph::{
    FusionMode, GraphEndpoint, GraphExecConfig, GraphExecutor, GraphMode, GraphRequest,
    GraphServeConfig, GraphServer, LayerGraph,
};
use proptest::prelude::*;

fn graph_for(model: usize, seed: u64) -> LayerGraph {
    let net = network_zoo().remove(model % 4).capped(14, 3);
    LayerGraph::from_network(&net, seed).expect("zoo nets validate")
}

fn cfg(mode: LaunchMode, threads: Option<usize>) -> GraphExecConfig {
    GraphExecConfig {
        device: DeviceConfig::test_tiny(),
        launch_mode: mode,
        parallel_threads: threads,
        ..GraphExecConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn schedules_are_bit_identical(
        model in 0usize..4,
        seed in 1u64..500,
        batch in 1usize..3,
    ) {
        let graph = graph_for(model, seed);
        let s = graph.shape(graph.input());
        let input = TensorRng::new(seed ^ 0xBA7C).tensor(batch, s.c, s.h, s.w);
        let mut ex = GraphExecutor::new(cfg(LaunchMode::Sequential, None));
        let (fused, rep) = ex
            .run(&graph, &input, GraphMode::Graph { fusion: FusionMode::Fused })
            .unwrap();
        let (unfused, _) = ex
            .run(&graph, &input, GraphMode::Graph { fusion: FusionMode::Unfused })
            .unwrap();
        let (layered, lrep) = ex.run(&graph, &input, GraphMode::LayerAtATime).unwrap();
        prop_assert_eq!(fused.as_slice(), unfused.as_slice());
        prop_assert_eq!(fused.as_slice(), layered.as_slice());
        // Fusion only ever removes kernels and host round-trips.
        prop_assert!(rep.layers.len() <= lrep.layers.len());
        prop_assert_eq!(rep.host_roundtrips, 0);
    }

    #[test]
    fn engines_and_worker_counts_agree(
        model in 0usize..4,
        seed in 1u64..500,
        threads in 1usize..5,
        fused in 0usize..2,
    ) {
        let graph = graph_for(model, seed);
        let s = graph.shape(graph.input());
        let input = TensorRng::new(seed ^ 0x51D).tensor(1, s.c, s.h, s.w);
        let mode = if fused == 1 {
            GraphMode::Graph { fusion: FusionMode::Fused }
        } else {
            GraphMode::LayerAtATime
        };
        let mut seq = GraphExecutor::new(cfg(LaunchMode::Sequential, None));
        let mut par = GraphExecutor::new(cfg(LaunchMode::Parallel, Some(threads)));
        let (a, ra) = seq.run(&graph, &input, mode).unwrap();
        let (b, rb) = par.run(&graph, &input, mode).unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert_eq!(ra.transactions, rb.transactions);
        for (la, lb) in ra.layers.iter().zip(rb.layers.iter()) {
            prop_assert_eq!(&la.stats, &lb.stats, "layer {} diverges", la.name);
        }
    }

    /// The only report field allowed to differ is the plan-cache outcome:
    /// the kept executor's cache is warm by design.
    #[test]
    fn one_executor_equals_a_fresh_executor_per_inference(
        runs in prop::collection::vec(any::<u64>(), 2..5),
        parallel in any::<bool>(),
        threads in 1usize..4,
    ) {
        let exec_cfg = || GraphExecConfig {
            record_spans: true,
            ..if parallel {
                cfg(LaunchMode::Parallel, Some(threads))
            } else {
                cfg(LaunchMode::Sequential, None)
            }
        };
        let mut kept = GraphExecutor::new(exec_cfg());
        for &r in &runs {
            let (model, seed) = (r as usize % 4, 1 + (r >> 8) % 499);
            let (batch, schedule) = (1 + (r >> 20) as usize % 2, (r >> 24) % 3);
            let graph = graph_for(model, seed);
            let s = graph.shape(graph.input());
            let input = TensorRng::new(seed ^ 0x7E5E7).tensor(batch, s.c, s.h, s.w);
            let mode = match schedule {
                0 => GraphMode::Graph { fusion: FusionMode::Fused },
                1 => GraphMode::Graph { fusion: FusionMode::Unfused },
                _ => GraphMode::LayerAtATime,
            };
            let (got, mut got_rep) = kept.run(&graph, &input, mode).unwrap();
            // Between runs the kept simulator holds no handle to the input.
            prop_assert_eq!(Arc::strong_count(&input.shared()), 2);
            let (want, mut want_rep) = GraphExecutor::new(exec_cfg()).run(&graph, &input, mode).unwrap();
            prop_assert_eq!(got.as_slice(), want.as_slice());
            prop_assert!(!got_rep.spans.is_empty());
            for layer in got_rep.layers.iter_mut().chain(want_rep.layers.iter_mut()) {
                layer.cache_hit = layer.cache_hit.map(|_| true);
            }
            prop_assert_eq!(&got_rep, &want_rep, "{:?}", mode);
        }
    }

    #[test]
    fn batched_serving_is_transparent(
        model in 0usize..4,
        seed in 1u64..500,
        n in 1usize..4,
    ) {
        let net = network_zoo().remove(model % 4).capped(14, 3);
        let ep = GraphEndpoint::from_network(&net, seed).unwrap();
        let s = ep.graph.shape(ep.graph.input());
        let serve_cfg = || GraphServeConfig {
            exec: cfg(LaunchMode::Sequential, None),
            ..GraphServeConfig::default()
        };
        let reqs: Vec<GraphRequest> = (0..n)
            .map(|i| GraphRequest {
                id: i as u64,
                endpoint: ep.name.clone(),
                input: TensorRng::new(seed ^ (i as u64) << 3).tensor(1, s.c, s.h, s.w),
                arrival_s: 1e-4 * i as f64,
            })
            .collect();
        let mut batched = GraphServer::new(serve_cfg(), vec![ep.clone()]);
        let (resps, _) = batched.serve(&reqs).unwrap();
        for (i, req) in reqs.iter().enumerate() {
            let mut solo = GraphServer::new(serve_cfg(), vec![ep.clone()]);
            let (solo_resps, _) = solo.serve(std::slice::from_ref(req)).unwrap();
            prop_assert_eq!(resps[i].output.as_slice(), solo_resps[0].output.as_slice());
        }
    }
}
