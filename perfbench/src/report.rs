//! The metric registry and the one-line JSON result.

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
    ("transactions_per_item", "count"),
    ("modeled_ms_per_item", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("device_peak_mb", "MB"),
    ("success_frac", "ratio"),
    ("slo_rate_rps", "req/s"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("gpu-sim.blocks_per_item", "count"),
    ("gpu-sim.host_us_per_block", "us"),
    ("gpu-sim.launches_per_item", "count"),
    ("gpu-sim.l1_hit_rate", "ratio"),
    ("gpu-sim.l2_hit_rate", "ratio"),
    ("gpu-sim.dram_sectors_per_item", "count"),
    ("gpu-sim.smem_passes_per_access", "ratio"),
    ("gpu-sim.sectors_per_request", "ratio"),
    ("gpu-sim.local_tx_per_item", "count"),
    ("core.ours.host_share", "ratio"),
    ("core.ours.transactions", "count"),
    ("baselines.im2col.host_share", "ratio"),
    ("baselines.im2col.transactions", "count"),
    ("baselines.cudnn.host_share", "ratio"),
    ("baselines.cudnn.transactions", "count"),
    ("baselines.tiled.host_share", "ratio"),
    ("baselines.tiled.transactions", "count"),
    ("baselines.npp.host_share", "ratio"),
    ("baselines.npp.transactions", "count"),
    ("oracle.predict_ms", "ms"),
    ("oracle.exact_frac", "ratio"),
    ("serve.planner.ms_per_geometry", "ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.fleet.requests_per_launch", "count"),
    ("serve.fleet.host_ms_per_request", "ms"),
    ("serve.fleet.queue_p50_ms", "ms"),
    ("serve.fleet.queue_p99_ms", "ms"),
    ("serve.fleet.execute_p50_ms", "ms"),
    ("serve.fleet.execute_p99_ms", "ms"),
    ("serve.fleet.shed_frac", "ratio"),
    ("serve.fleet.load_imbalance", "ratio"),
    ("reference.ms_per_request", "ms"),
    ("graph.plan_ms_per_item", "ms"),
    ("graph.cache_hit_rate", "ratio"),
    ("graph.fused_epilogues_per_item", "count"),
    ("graph.epilogue_tx_share", "ratio"),
    ("graph.peak_global_elems", "count"),
    ("tensor.input_gen_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Items attempted.
    pub attempted: u64,
    /// Items that failed (wrong output, counters that did not repeat, a
    /// shed request or a missed deadline).
    pub failed: u64,
    /// `(name, value)` for every metric of the run's registry.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Whether every item passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The registry a run prints: end-to-end when untraced, per-layer when
/// traced.
pub fn registry(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: `correct`, `attempted`, `failed` and every registry
/// metric with its unit (a metric the run did not set reads 0).
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = registry(traced)
        .iter()
        .map(|&(name, unit)| {
            let v = out.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
