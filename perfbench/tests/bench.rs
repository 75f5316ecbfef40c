//! The benchmark's own tests: seeded inputs, repeatable modeled metrics,
//! and a metric registry that matches `BENCHMARK.json`.

use memconv_perfbench::data::{
    Chain, ChainLayer, Fig3Point, ServeEndpoint, Table1Layer, GRAPH_CHAINS, SERVE_ENDPOINTS,
};
use memconv_perfbench::report::{result_json, Outcome, END_TO_END, PER_LAYER};
use memconv_perfbench::trace::Tracer;
use memconv_perfbench::{figures, graph, serve, RunConfig};

const POINTS: [Fig3Point; 1] = [Fig3Point {
    label: "64x64/3x3",
    side: 64,
    widths: &[64, 72],
    filter: 3,
}];

const LAYERS: [Table1Layer; 1] = [Table1Layer {
    name: "tiny",
    batch: 2,
    spatial: 8,
    filters: &[4, 3],
    filter: 3,
}];

const ENDPOINTS: [ServeEndpoint; 2] = [
    ServeEndpoint {
        name: "a",
        in_channels: 1,
        spatial: 8,
        filters: 2,
        filter: 3,
        weight: 3,
    },
    ServeEndpoint {
        name: "b",
        in_channels: 2,
        spatial: 6,
        filters: 2,
        filter: 3,
        weight: 1,
    },
];

const CHAINS: [Chain; 1] = [Chain {
    model: "tiny",
    in_channels: 1,
    inputs: &[(9, 9), (9, 10)],
    layers: &[
        ChainLayer::Conv {
            name: "c1",
            filters: 2,
            filter: 3,
            stride: 2,
        },
        ChainLayer::Depthwise {
            name: "dw",
            filter: 2,
            stride: 1,
        },
        ChainLayer::Pool { name: "p", k: 2 },
    ],
    weight: 1,
}];

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 1e-3,
        traced: false,
    }
}

/// The metrics that come from the modeled device and the virtual clock,
/// which must repeat exactly at a fixed seed.
const MODELED: [&str; 7] = [
    "transactions_per_item",
    "modeled_ms_per_item",
    "latency_p50_ms",
    "latency_p99_ms",
    "device_peak_mb",
    "success_frac",
    "slo_rate_rps",
];

fn modeled(out: &Outcome) -> Vec<(&'static str, f64)> {
    MODELED
        .iter()
        .map(|&m| (m, out.get(m).unwrap_or_else(|| panic!("{m} not set"))))
        .collect()
}

fn assert_repeats(run: impl Fn(&RunConfig) -> Result<Outcome, String>) {
    let a = run(&cfg(7)).expect("first run");
    let b = run(&cfg(7)).expect("second run");
    assert!(a.correct() && b.correct(), "{a:?}");
    assert_eq!(modeled(&a), modeled(&b));
    for (name, v) in modeled(&a) {
        assert!(v > 0.0, "{name} reads {v}");
    }
}

#[test]
fn figures_modeled_metrics_repeat_at_a_fixed_seed() {
    assert_repeats(|c| figures::run_on(&POINTS, &LAYERS, c));
}

#[test]
fn serve_modeled_metrics_repeat_at_a_fixed_seed() {
    assert_repeats(|c| serve::run_on(&ENDPOINTS, 64, c));
}

#[test]
fn graph_modeled_metrics_repeat_at_a_fixed_seed() {
    assert_repeats(|c| graph::run_on(&CHAINS, 12, c));
}

#[test]
fn traced_runs_report_every_layer_metric_and_pass_their_checks() {
    let traced = RunConfig {
        traced: true,
        ..cfg(3)
    };
    for out in [
        figures::run_on(&POINTS, &LAYERS, &traced),
        serve::run_on(&ENDPOINTS, 64, &traced),
        graph::run_on(&CHAINS, 12, &traced),
    ] {
        let out = out.expect("traced run");
        assert!(out.correct(), "{out:?}");
        assert!(out.get("bench.trace_overhead_frac").is_some());
    }
    let _ = std::fs::remove_dir_all(memconv_perfbench::TRACE_DIR);
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_other_inputs() {
    let fig = |seed| figures::inputs(&POINTS, &LAYERS, seed, &mut Tracer::new(false));
    let (a, b, c) = (fig(1), fig(1), fig(2));
    assert_eq!(a.images[0].0.as_slice(), b.images[0].0.as_slice());
    assert_eq!(a.tensors[0].0.as_slice(), b.tensors[0].0.as_slice());
    assert_ne!(a.images[0].0.as_slice(), c.images[0].0.as_slice());
    assert_ne!(a.tensors[0].1.as_slice(), c.tensors[0].1.as_slice());

    let trace = |seed| serve::trace(&SERVE_ENDPOINTS, 64, seed, &mut Tracer::new(false));
    let (a, b, c) = (trace(1), trace(1), trace(2));
    let arrivals =
        |t: &[memconv_serve::FleetRequest]| -> Vec<f64> { t.iter().map(|r| r.arrival_s).collect() };
    assert_eq!(arrivals(&a), arrivals(&b));
    assert!(a.iter().zip(&b).all(|(x, y)| x.input == y.input));
    assert_ne!(arrivals(&a), arrivals(&c));
    assert!(a.iter().zip(&c).any(|(x, y)| x.input != y.input));

    let net = |seed| graph::build(&GRAPH_CHAINS[4], (20, 20), seed).expect("chain builds");
    assert_eq!(net(1), net(1));
    assert_ne!(net(1), net(2));
}

#[test]
fn the_seed_moves_shapes_only_within_their_data_ranges() {
    let widths: Vec<usize> = (0..32)
        .map(|s| figures::point_width(&POINTS[0], 0, s))
        .collect();
    assert!(widths.iter().all(|w| POINTS[0].widths.contains(w)));
    assert!(widths.iter().any(|&w| w != widths[0]));
    let filters: Vec<usize> = (0..32)
        .map(|s| figures::layer_filters(&LAYERS[0], 0, s))
        .collect();
    assert!(filters.iter().all(|f| LAYERS[0].filters.contains(f)));
    assert!(filters.iter().any(|&f| f != filters[0]));
    let chain = &CHAINS[0];
    let shapes: Vec<(usize, usize)> = (0..32).map(|s| graph::chain_input(chain, 0, s)).collect();
    assert!(shapes.iter().all(|hw| chain.inputs.contains(hw)));
    assert!(shapes.iter().any(|&hw| hw != shapes[0]));
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    out.set("setup_s", 0.5);
    for (traced, registry) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let line = result_json(&out, traced);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in registry {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &line[at..];
            let end = rest.find('}').expect("entry closes");
            assert!(
                rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} lacks unit {unit}"
            );
        }
    }
}

#[test]
fn the_registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] is not in BENCHMARK.json"
        );
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
