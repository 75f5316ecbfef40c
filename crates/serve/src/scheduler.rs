//! The request scheduler: a stream of single-image requests becomes a
//! stream of planned, batched, observable NCHW launches.
//!
//! ## Batching model
//!
//! Requests arrive on a virtual clock and are partitioned, in order, into
//! *windows* of at most [`ServeConfig::window`] requests. Within one
//! window, requests for the same `(endpoint, checked)` pair are coalesced
//! into a single batch-`k` launch. A request's queueing delay is the gap
//! between its arrival and the window close (the arrival of the window's
//! last request) — deterministic, because the clock is part of the trace.
//!
//! ## Planning model
//!
//! A cache miss is answered **instantly** from the symbolic transaction
//! oracle ([`crate::planner::plan_nchw_heuristic`]): candidates are
//! scored by phantom execution, no trial data runs, and the request pays
//! zero planning latency (`plan_s == 0`). The authoritative sampled trial
//! sweep ([`plan_nchw`]) runs as **background refinement** after the
//! trace completes (on the worker pool, uncharged to any request),
//! upgrading each heuristic cache entry to a trialed plan for future
//! traces. Refinement is deliberately post-trace: if it landed
//! mid-trace, which plan a request ran under would depend on window
//! boundaries, breaking batch equivariance.
//!
//! ## Determinism argument
//!
//! Every serving algorithm is per-image batch-equivariant (see
//! [`crate::planner`]), and each coalesced group runs on its own fresh
//! simulator, so:
//!
//! * batched output is **bit-identical** to window-size-1 (per-request)
//!   dispatch — plan choice is windowing-independent because all requests
//!   of one trace see the same (heuristic or preloaded) plan per
//!   geometry, and
//! * worker-pool size never affects results — groups are data-independent
//!   and `memconv_par::map_indexed_with` is order-preserving.
//!
//! Both properties are proptest-pinned in `tests/prop_serve.rs`.

use crate::cache::{cache_key, PlanCache};
use crate::metrics::{LaunchRecord, PlanSweepRecord, RequestMetrics, ServeReport};
use crate::planner::{
    instantiate_nchw, plan_nchw, plan_nchw_heuristic, Plan, PlanConfig, PlanError, Provenance,
};
use memconv::checked::{conv2d_checked, CheckedConfig, CheckedError};
use memconv::core::OursConfig;
use memconv::gpusim::{launch_time, DeviceConfig, GpuSim, LaunchMode, SampleMode};
use memconv::tensor::{ConvGeometry, FilterBank, Tensor4};
use std::fmt;

/// A served model layer: fixed weights and a batch-1 input geometry.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Display name (e.g. `vgg16/conv1_1`).
    pub name: String,
    /// Geometry of one request (`batch` must be 1).
    pub geometry: ConvGeometry,
    /// The layer's weights.
    pub weights: FilterBank,
}

/// One single-image inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-assigned id, echoed in the response.
    pub id: u64,
    /// Index into the server's endpoint table.
    pub endpoint: usize,
    /// Input tensor, shaped `1 × IC × IH × IW` for the endpoint.
    pub input: Tensor4,
    /// Route through the verified `conv2d_checked` path.
    pub checked: bool,
    /// Arrival time on the trace's virtual clock, seconds.
    pub arrival_s: f64,
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    /// Output tensor, `1 × FN × OH × OW`.
    pub output: Tensor4,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum requests coalesced per batching window (1 = no batching).
    pub window: usize,
    /// Worker threads executing coalesced launches.
    pub workers: usize,
    /// Plan-cache capacity.
    pub cache_capacity: usize,
    /// Simulator launch engine for serving launches.
    pub launch_mode: LaunchMode,
    /// Block sampling for planner trial runs (never for serving launches,
    /// which are always `SampleMode::Full`).
    pub trial_sample: SampleMode,
    /// Verification policy for `checked: true` requests.
    pub checked: CheckedConfig,
    /// Run the background trial-sweep refinement after the trace,
    /// upgrading heuristic cache entries to trialed plans. Disable to
    /// keep the cache purely oracle-planned (e.g. for cold-start replay
    /// gates).
    pub refine: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            window: 16,
            workers: memconv_par::num_threads(),
            cache_capacity: 64,
            launch_mode: LaunchMode::Sequential,
            trial_sample: SampleMode::Auto(256),
            checked: CheckedConfig::default(),
            refine: true,
        }
    }
}

/// Why the server rejected a trace.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// A request named an endpoint index outside the table.
    UnknownEndpoint {
        /// Offending request.
        id: u64,
        /// The out-of-range index.
        endpoint: usize,
    },
    /// A request's input does not match its endpoint's geometry.
    BadRequest {
        /// Offending request.
        id: u64,
        /// Explanation.
        message: String,
    },
    /// Planning failed for a request's geometry.
    Plan {
        /// Offending request.
        id: u64,
        /// Underlying planner error.
        source: PlanError,
    },
    /// The verified path could not produce an output.
    Checked {
        /// First request of the failed group.
        id: u64,
        /// Underlying checked-dispatch error.
        source: CheckedError,
    },
    /// An endpoint's own definition is inconsistent.
    BadEndpoint {
        /// Endpoint index.
        endpoint: usize,
        /// Explanation.
        message: String,
    },
    /// An endpoint's geometry is outside what the serving registry can
    /// launch (e.g. the padded input is smaller than the filter, so the
    /// convolution has no output). Previously a `usize` underflow panic
    /// deep inside planning; now a typed submission-time rejection.
    Unsupported {
        /// Endpoint index.
        endpoint: usize,
        /// Explanation.
        message: String,
    },
    /// The scheduler has been closed; it accepts no further traces.
    Closed,
    /// The request was load-shed by fleet admission: its projected
    /// completion on the virtual clock exceeded its deadline. A typed
    /// rejection, not a panic — shedding is an expected overload outcome.
    Shed {
        /// Offending request.
        id: u64,
        /// Projected completion time (virtual seconds).
        projected_s: f64,
        /// The request's absolute deadline (virtual seconds).
        deadline_s: f64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEndpoint { id, endpoint } => {
                write!(f, "request {id}: unknown endpoint index {endpoint}")
            }
            ServeError::BadRequest { id, message } => write!(f, "request {id}: {message}"),
            ServeError::Plan { id, source } => write!(f, "request {id}: planning failed: {source}"),
            ServeError::Checked { id, source } => {
                write!(f, "request {id}: checked dispatch failed: {source}")
            }
            ServeError::BadEndpoint { endpoint, message } => {
                write!(f, "endpoint {endpoint}: {message}")
            }
            ServeError::Unsupported { endpoint, message } => {
                write!(f, "endpoint {endpoint}: unsupported geometry: {message}")
            }
            ServeError::Closed => write!(f, "scheduler is closed"),
            ServeError::Shed {
                id,
                projected_s,
                deadline_s,
            } => write!(
                f,
                "request {id}: shed (projected completion {projected_s:.6}s \
                 exceeds deadline {deadline_s:.6}s)"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// One coalesced group within a window.
struct Group {
    endpoint: usize,
    checked: bool,
    /// Window-local request indices, in arrival order.
    members: Vec<usize>,
    plan: Plan,
}

/// A cache miss answered from the heuristic path, awaiting background
/// trial-sweep refinement after the trace.
struct PendingRefinement {
    key: String,
    geometry: ConvGeometry,
    window: usize,
    request_id: u64,
    endpoint: String,
}

/// What executing one group produced.
struct GroupOut {
    /// Per-member outputs, in member order.
    outputs: Vec<Tensor4>,
    modeled_seconds: f64,
    transactions: u64,
    algo: String,
    fell_back: bool,
}

/// The serving front end: plan cache + scheduler over a fixed endpoint
/// table on one device.
pub struct ConvServer {
    device: DeviceConfig,
    endpoints: Vec<Endpoint>,
    cfg: ServeConfig,
    cache: PlanCache,
    closed: bool,
}

impl ConvServer {
    /// A server with a fresh plan cache.
    pub fn new(device: DeviceConfig, endpoints: Vec<Endpoint>, cfg: ServeConfig) -> Self {
        let cache = PlanCache::new(cfg.cache_capacity);
        ConvServer {
            device,
            endpoints,
            cfg,
            cache,
            closed: false,
        }
    }

    /// Close the scheduler: every subsequent [`ConvServer::run_trace`]
    /// returns [`ServeError::Closed`]. The plan cache stays readable for
    /// persistence. Closing is idempotent and cannot be undone.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`ConvServer::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Replace the plan cache (e.g. with one loaded from disk), skipping
    /// the tuning cost for every geometry it already covers.
    pub fn with_cache(mut self, cache: PlanCache) -> Self {
        self.cache = cache;
        self
    }

    /// The plan cache (for persistence and counter inspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The endpoint table.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Serve a request trace: plan (through the cache), coalesce into
    /// windows, execute groups on the worker pool, and report.
    ///
    /// Responses are returned in submission order regardless of batching
    /// or worker count.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; the trace is validated up front, so planning or
    /// execution failures are the only mid-trace errors.
    pub fn run_trace(
        &mut self,
        requests: &[Request],
    ) -> Result<(Vec<Response>, ServeReport), ServeError> {
        if self.closed {
            return Err(ServeError::Closed);
        }
        self.validate(requests)?;
        let hits0 = self.cache.hits();
        let misses0 = self.cache.misses();
        let window = self.cfg.window.max(1);

        let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
        let mut metrics: Vec<Option<RequestMetrics>> = (0..requests.len()).map(|_| None).collect();
        let mut launches: Vec<LaunchRecord> = Vec::new();
        let mut plan_sweeps: Vec<PlanSweepRecord> = Vec::new();
        let mut pending: Vec<PendingRefinement> = Vec::new();

        for (w0, chunk) in requests.chunks(window).enumerate() {
            let base = w0 * window;
            let close_s = chunk.iter().map(|r| r.arrival_s).fold(f64::MIN, f64::max);

            // Plan resolution, per request and in order: the first request
            // for a geometry gets an instant oracle pick (zero planning
            // latency); same-window followers hit the cache it just
            // filled. The trial sweep runs after the trace as background
            // refinement.
            let mut plan_cost: Vec<f64> = Vec::with_capacity(chunk.len());
            let mut plan_hit: Vec<bool> = Vec::with_capacity(chunk.len());
            let mut plans: Vec<Plan> = Vec::with_capacity(chunk.len());
            for req in chunk {
                let g = self.endpoints[req.endpoint].geometry;
                let key = cache_key(&self.device, &g);
                match self.cache.get(&key) {
                    Some(plan) => {
                        plans.push(plan);
                        plan_cost.push(0.0);
                        plan_hit.push(true);
                    }
                    None => {
                        let outcome = plan_nchw_heuristic(&self.device, &g, self.cfg.trial_sample)
                            .map_err(|source| ServeError::Plan { id: req.id, source })?;
                        self.cache.insert(key.clone(), outcome.plan.clone());
                        pending.push(PendingRefinement {
                            key,
                            geometry: g,
                            window: w0,
                            request_id: req.id,
                            endpoint: self.endpoints[req.endpoint].name.clone(),
                        });
                        plan_sweeps.push(PlanSweepRecord {
                            window: w0,
                            request_id: req.id,
                            endpoint: self.endpoints[req.endpoint].name.clone(),
                            trials: outcome.trials,
                            planning_seconds: outcome.planning_seconds,
                            provenance: Provenance::Heuristic,
                        });
                        plans.push(outcome.plan);
                        plan_cost.push(outcome.planning_seconds);
                        plan_hit.push(false);
                    }
                }
            }

            // Coalesce by (endpoint, checked), first-occurrence order.
            let mut groups: Vec<Group> = Vec::new();
            for (i, req) in chunk.iter().enumerate() {
                match groups
                    .iter_mut()
                    .find(|g| g.endpoint == req.endpoint && g.checked == req.checked)
                {
                    Some(g) => g.members.push(i),
                    None => groups.push(Group {
                        endpoint: req.endpoint,
                        checked: req.checked,
                        members: vec![i],
                        plan: plans[i].clone(),
                    }),
                }
            }

            // Execute groups on the worker pool. Each group owns a fresh
            // simulator, so results are independent of worker count.
            let device = &self.device;
            let endpoints = &self.endpoints;
            let cfg = &self.cfg;
            let outs: Vec<Result<GroupOut, ServeError>> =
                memconv_par::map_indexed_with(groups.len(), cfg.workers, |gi| {
                    run_group(device, endpoints, cfg, &groups[gi], chunk)
                });

            for (group, out) in groups.iter().zip(outs) {
                let out = out?;
                launches.push(LaunchRecord {
                    window: w0,
                    endpoint: endpoints[group.endpoint].name.clone(),
                    algo: out.algo.clone(),
                    requests: group.members.len(),
                    modeled_seconds: out.modeled_seconds,
                    transactions: out.transactions,
                    checked: group.checked,
                });
                for (&i, output) in group.members.iter().zip(out.outputs) {
                    let req = &chunk[i];
                    responses[base + i] = Some(Response { id: req.id, output });
                    let queue_s = (close_s - req.arrival_s).max(0.0);
                    // Record-time NaN guard (see `metrics::percentiles`):
                    // modeled durations are finite by construction, so a
                    // NaN here means a corrupted trace clock or timing
                    // model — catch it where it happens, not at the p99.
                    debug_assert!(
                        req.arrival_s.is_finite()
                            && queue_s.is_finite()
                            && plan_cost[i].is_finite()
                            && out.modeled_seconds.is_finite(),
                        "non-finite latency for request {}",
                        req.id
                    );
                    metrics[base + i] = Some(RequestMetrics {
                        id: req.id,
                        endpoint: endpoints[req.endpoint].name.clone(),
                        window: w0,
                        arrival_s: req.arrival_s,
                        queue_s,
                        plan_s: plan_cost[i],
                        execute_s: out.modeled_seconds,
                        batched_with: group.members.len(),
                        cache_hit: plan_hit[i],
                        checked: req.checked,
                        fell_back: out.fell_back,
                    });
                }
            }
        }

        // Background refinement: run the authoritative trial sweep for
        // every geometry served from a heuristic pick, on the worker
        // pool, and upgrade its cache entry to the trialed plan. This is
        // post-trace by design (see the module docs) and charged to no
        // request — its cost appears only in the sweep records.
        if self.cfg.refine && !pending.is_empty() {
            let device = &self.device;
            let sample = self.cfg.trial_sample;
            let geometries: Vec<ConvGeometry> = pending.iter().map(|p| p.geometry).collect();
            let outcomes = memconv_par::map_indexed_with(geometries.len(), self.cfg.workers, |i| {
                plan_nchw(device, &geometries[i], sample)
            });
            for (p, outcome) in pending.into_iter().zip(outcomes) {
                let outcome = outcome.map_err(|source| ServeError::Plan {
                    id: p.request_id,
                    source,
                })?;
                debug_assert_eq!(outcome.plan.provenance, Provenance::Trialed);
                self.cache.insert(p.key, outcome.plan.clone());
                plan_sweeps.push(PlanSweepRecord {
                    window: p.window,
                    request_id: p.request_id,
                    endpoint: p.endpoint,
                    trials: outcome.trials,
                    planning_seconds: outcome.planning_seconds,
                    provenance: Provenance::Trialed,
                });
            }
        }

        let report = ServeReport {
            requests: metrics
                .into_iter()
                .map(|m| m.expect("every request served"))
                .collect(),
            launches,
            plan_sweeps,
            cache_hits: self.cache.hits() - hits0,
            cache_misses: self.cache.misses() - misses0,
        };
        let responses = responses
            .into_iter()
            .map(|r| r.expect("every request served"))
            .collect();
        Ok((responses, report))
    }

    fn validate(&self, requests: &[Request]) -> Result<(), ServeError> {
        for (ei, ep) in self.endpoints.iter().enumerate() {
            let g = ep.geometry;
            if g.batch != 1 {
                return Err(ServeError::BadEndpoint {
                    endpoint: ei,
                    message: format!("geometry batch must be 1, got {}", g.batch),
                });
            }
            // Full geometry validation (dilated filter vs padded input,
            // group divisibility, empty dims). Previously a hand-rolled
            // undilated filter check — a 3x3 filter at dilation 4 slipped
            // through and underflowed deep inside planning.
            if let Err(e) = g.validate() {
                return Err(ServeError::Unsupported {
                    endpoint: ei,
                    message: e.to_string(),
                });
            }
            if ep.weights.num_filters() != g.out_channels
                || ep.weights.channels() != g.channels_per_group()
                || ep.weights.fh() != g.f_h
                || ep.weights.fw() != g.f_w
            {
                return Err(ServeError::BadEndpoint {
                    endpoint: ei,
                    message: format!(
                        "weights {}x{}x{}x{} do not match geometry (want {}x{}x{}x{})",
                        ep.weights.num_filters(),
                        ep.weights.channels(),
                        ep.weights.fh(),
                        ep.weights.fw(),
                        g.out_channels,
                        g.channels_per_group(),
                        g.f_h,
                        g.f_w
                    ),
                });
            }
        }
        for req in requests {
            let Some(ep) = self.endpoints.get(req.endpoint) else {
                return Err(ServeError::UnknownEndpoint {
                    id: req.id,
                    endpoint: req.endpoint,
                });
            };
            let g = ep.geometry;
            let want = (1, g.in_channels, g.in_h, g.in_w);
            if req.input.dims() != want {
                return Err(ServeError::BadRequest {
                    id: req.id,
                    message: format!(
                        "input dims {:?} do not match endpoint `{}` {want:?}",
                        req.input.dims(),
                        ep.name
                    ),
                });
            }
            // The verified chain infers unit geometry from tensor dims;
            // routing a non-unit endpoint through it would silently
            // compute the wrong convolution.
            if req.checked && !(g.has_unit_axes() && g.pad_h == 0 && g.pad_w == 0) {
                return Err(ServeError::BadRequest {
                    id: req.id,
                    message: format!(
                        "checked dispatch supports only unit stride/dilation/groups \
                         and zero padding; endpoint `{}` has neither",
                        ep.name
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Execute one coalesced group on a fresh simulator.
fn run_group(
    device: &DeviceConfig,
    endpoints: &[Endpoint],
    cfg: &ServeConfig,
    group: &Group,
    chunk: &[Request],
) -> Result<GroupOut, ServeError> {
    let ep = &endpoints[group.endpoint];
    let g = ep.geometry;
    let k = group.members.len();

    let mut data = Vec::with_capacity(k * g.in_channels * g.in_plane());
    for &i in &group.members {
        data.extend_from_slice(chunk[i].input.as_slice());
    }
    let batch = Tensor4::from_vec(k, g.in_channels, g.in_h, g.in_w, data)
        .expect("validated request shapes");

    let mut sim = GpuSim::new(device.clone()).with_launch_mode(cfg.launch_mode);
    let (out, modeled_seconds, transactions, algo, fell_back) = if group.checked {
        // The verified path runs the fused chain; a fused plan's tiling
        // knobs carry over, baseline plans fall back to default tiling.
        let ours_cfg = match &group.plan.config {
            PlanConfig::Ours {
                column_reuse,
                rows_per_thread,
                block_warps,
            } => OursConfig {
                column_reuse: *column_reuse,
                rows_per_thread: *rows_per_thread,
                block_warps: *block_warps,
                sample: SampleMode::Full,
            },
            PlanConfig::Baseline => OursConfig::full(),
        };
        let (out, rep) = conv2d_checked(&mut sim, &batch, &ep.weights, &ours_cfg, &cfg.checked)
            .map_err(|source| ServeError::Checked {
                id: chunk[group.members[0]].id,
                source,
            })?;
        let t = launch_time(&rep.served_stats, device).total();
        let txn = rep.served_stats.global_transactions();
        (
            out,
            t,
            txn,
            format!("checked:{}", rep.served.name()),
            rep.fell_back(),
        )
    } else {
        let algo =
            instantiate_nchw(&group.plan, SampleMode::Full).map_err(|source| ServeError::Plan {
                id: chunk[group.members[0]].id,
                source,
            })?;
        // Coalescing widens the batch axis only; all other geometry axes
        // (stride, dilation, groups, padding) serve at native values.
        let bg = ConvGeometry { batch: k, ..g };
        let (out, rep) = algo.run_geo(&mut sim, &batch, &ep.weights, &bg);
        (
            out,
            rep.modeled_time(device),
            rep.global_transactions(),
            group.plan.algo.clone(),
            false,
        )
    };

    // Split the batched output back into per-request tensors.
    let per = out.c() * out.h() * out.w();
    let outputs = (0..k)
        .map(|j| {
            Tensor4::from_vec(
                1,
                out.c(),
                out.h(),
                out.w(),
                out.as_slice()[j * per..(j + 1) * per].to_vec(),
            )
            .expect("slice length matches dims")
        })
        .collect();
    Ok(GroupOut {
        outputs,
        modeled_seconds,
        transactions,
        algo,
        fell_back,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv::tensor::generate::TensorRng;

    fn tiny_endpoints() -> Vec<Endpoint> {
        let mut rng = TensorRng::new(0x0E17);
        vec![
            Endpoint {
                name: "a/conv3".into(),
                geometry: ConvGeometry::nchw(1, 2, 12, 12, 3, 3, 3),
                weights: rng.filter_bank(3, 2, 3, 3),
            },
            Endpoint {
                name: "b/conv5".into(),
                geometry: ConvGeometry::nchw(1, 1, 14, 14, 2, 5, 5),
                weights: rng.filter_bank(2, 1, 5, 5),
            },
        ]
    }

    fn trace(endpoints: &[Endpoint], n: usize, seed: u64) -> Vec<Request> {
        let mut rng = TensorRng::new(seed);
        (0..n)
            .map(|i| {
                let e = i % endpoints.len();
                let g = endpoints[e].geometry;
                Request {
                    id: i as u64,
                    endpoint: e,
                    input: rng.tensor(1, g.in_channels, g.in_h, g.in_w),
                    checked: i % 5 == 3,
                    arrival_s: i as f64 * 1e-4,
                }
            })
            .collect()
    }

    fn server(window: usize) -> ConvServer {
        let cfg = ServeConfig {
            window,
            workers: 2,
            trial_sample: SampleMode::Auto(64),
            ..ServeConfig::default()
        };
        ConvServer::new(DeviceConfig::test_tiny(), tiny_endpoints(), cfg)
    }

    #[test]
    fn batched_output_matches_sequential_dispatch() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 12, 99);
        let (batched, rep_b) = server(6).run_trace(&reqs).unwrap();
        let (sequential, rep_s) = server(1).run_trace(&reqs).unwrap();
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.id, s.id);
            assert_eq!(b.output.as_slice(), s.output.as_slice(), "request {}", b.id);
        }
        assert!(rep_b.launches.len() < rep_s.launches.len());
        assert!(rep_b.requests_per_launch() > 1.0);
        assert!((rep_s.requests_per_launch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 10, 7);
        let mut sv1 = server(5);
        sv1.cfg.workers = 1;
        let mut sv4 = server(5);
        sv4.cfg.workers = 4;
        let (r1, _) = sv1.run_trace(&reqs).unwrap();
        let (r4, _) = sv4.run_trace(&reqs).unwrap();
        for (a, b) in r1.iter().zip(&r4) {
            assert_eq!(a.output.as_slice(), b.output.as_slice());
        }
    }

    #[test]
    fn cache_hits_accumulate_across_windows() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 12, 3);
        let mut sv = server(4);
        let (_, rep) = sv.run_trace(&reqs).unwrap();
        // one miss per endpoint geometry, the rest hits
        assert_eq!(rep.cache_misses, 2);
        assert_eq!(rep.cache_hits, 10);
        let misses_paid = rep.requests.iter().filter(|r| !r.cache_hit).count();
        assert_eq!(misses_paid, 2);
        // The instant oracle path: even misses pay zero planning latency.
        assert!(rep.requests.iter().all(|r| r.plan_s == 0.0));
        // Each miss produced a zero-cost heuristic pick plus one
        // background refinement sweep with real modeled cost.
        let heur: Vec<_> = rep
            .plan_sweeps
            .iter()
            .filter(|s| s.provenance == Provenance::Heuristic)
            .collect();
        let trialed: Vec<_> = rep
            .plan_sweeps
            .iter()
            .filter(|s| s.provenance == Provenance::Trialed)
            .collect();
        assert_eq!(heur.len(), 2);
        assert_eq!(trialed.len(), 2);
        assert!(heur.iter().all(|s| s.planning_seconds == 0.0));
        assert!(trialed.iter().all(|s| s.planning_seconds > 0.0));
        assert!(rep.refinement_seconds() > 0.0);
    }

    #[test]
    fn refinement_upgrades_cache_entries_to_trialed() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 4, 21);
        let mut sv = server(4);
        sv.run_trace(&reqs).unwrap();
        for ep in &eps {
            let key = cache_key(&sv.device, &ep.geometry);
            let plan = sv.cache.get(&key).expect("planned during trace");
            assert_eq!(plan.provenance, Provenance::Trialed);
            // The upgraded plan is exactly what a direct trial sweep picks.
            let sweep = plan_nchw(&sv.device, &ep.geometry, sv.cfg.trial_sample).unwrap();
            assert_eq!(plan, sweep.plan);
        }

        // With refinement off, the cache stays purely oracle-planned.
        let mut cold = server(4);
        cold.cfg.refine = false;
        let (_, rep) = cold.run_trace(&reqs).unwrap();
        assert!(rep
            .plan_sweeps
            .iter()
            .all(|s| s.provenance == Provenance::Heuristic));
        assert_eq!(rep.refinement_seconds(), 0.0);
        for ep in &eps {
            let key = cache_key(&cold.device, &ep.geometry);
            assert_eq!(
                cold.cache.get(&key).unwrap().provenance,
                Provenance::Heuristic
            );
        }
    }

    #[test]
    fn cold_start_replays_bit_identically() {
        // The cold-start gate's property: two fresh servers replaying the
        // same trace produce identical heuristic plans, responses, and
        // metrics — the oracle path has no hidden nondeterminism.
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 8, 17);
        let run = || {
            let mut sv = server(4);
            sv.cfg.refine = false;
            let (outs, rep) = sv.run_trace(&reqs).unwrap();
            let cache_json = sv.cache().to_json();
            (outs, rep, cache_json)
        };
        let (a_out, a_rep, a_cache) = run();
        let (b_out, b_rep, b_cache) = run();
        assert_eq!(a_cache, b_cache, "heuristic plans must be bit-identical");
        for (a, b) in a_out.iter().zip(&b_out) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output.as_slice(), b.output.as_slice());
        }
        assert_eq!(a_rep.requests, b_rep.requests);
        assert_eq!(a_rep.plan_sweeps, b_rep.plan_sweeps);
    }

    #[test]
    fn queue_latency_is_window_close_minus_arrival() {
        let eps = tiny_endpoints();
        let mut reqs = trace(&eps, 4, 5);
        for (i, r) in reqs.iter_mut().enumerate() {
            r.endpoint = 0;
            r.checked = false;
            let g = eps[0].geometry;
            let mut rng = TensorRng::new(50 + i as u64);
            r.input = rng.tensor(1, g.in_channels, g.in_h, g.in_w);
        }
        let (_, rep) = server(4).run_trace(&reqs).unwrap();
        let close = reqs[3].arrival_s;
        for (r, m) in reqs.iter().zip(&rep.requests) {
            assert!((m.queue_s - (close - r.arrival_s)).abs() < 1e-12);
        }
        assert_eq!(rep.launches.len(), 1);
        assert_eq!(rep.requests[0].batched_with, 4);
    }

    #[test]
    fn checked_requests_route_through_verified_path() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 10, 11);
        let (_, rep) = server(5).run_trace(&reqs).unwrap();
        let checked: Vec<_> = rep.launches.iter().filter(|l| l.checked).collect();
        assert!(!checked.is_empty());
        assert!(checked.iter().all(|l| l.algo.starts_with("checked:")));
        // fault-free runs never fall back
        assert!(rep.requests.iter().all(|r| !r.fell_back));
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        let eps = tiny_endpoints();
        let mut sv = server(4);
        let mut rng = TensorRng::new(1);
        let bad_shape = Request {
            id: 9,
            endpoint: 0,
            input: rng.tensor(1, 2, 5, 5),
            checked: false,
            arrival_s: 0.0,
        };
        assert!(matches!(
            sv.run_trace(&[bad_shape]),
            Err(ServeError::BadRequest { id: 9, .. })
        ));
        let bad_endpoint = Request {
            id: 10,
            endpoint: 7,
            input: rng.tensor(1, 2, 12, 12),
            checked: false,
            arrival_s: 0.0,
        };
        assert!(matches!(
            sv.run_trace(&[bad_endpoint]),
            Err(ServeError::UnknownEndpoint {
                id: 10,
                endpoint: 7
            })
        ));
        let _ = eps;
    }

    #[test]
    fn closed_server_rejects_traces() {
        let mut sv = server(4);
        assert!(!sv.is_closed());
        sv.close();
        assert!(sv.is_closed());
        assert!(matches!(sv.run_trace(&[]), Err(ServeError::Closed)));
        sv.close(); // idempotent
        assert!(matches!(sv.run_trace(&[]), Err(ServeError::Closed)));
    }

    #[test]
    fn unsupported_geometry_is_a_typed_error_not_a_panic() {
        // A filter larger than the padded input used to underflow deep in
        // planning; submission now rejects it with ServeError::Unsupported.
        let mut rng = TensorRng::new(3);
        let eps = vec![Endpoint {
            name: "bad/conv9".into(),
            geometry: ConvGeometry::nchw(1, 1, 4, 4, 1, 9, 9),
            weights: rng.filter_bank(1, 1, 9, 9),
        }];
        let mut sv = ConvServer::new(DeviceConfig::test_tiny(), eps, ServeConfig::default());
        let req = Request {
            id: 0,
            endpoint: 0,
            input: rng.tensor(1, 1, 4, 4),
            checked: false,
            arrival_s: 0.0,
        };
        assert!(matches!(
            sv.run_trace(&[req]),
            Err(ServeError::Unsupported { endpoint: 0, .. })
        ));
    }

    #[test]
    fn non_unit_endpoints_serve_at_native_geometry() {
        // Strided, dilated, and depthwise endpoints run end-to-end and
        // their batched responses are bit-identical to the groups-aware
        // CPU reference on each request individually.
        use memconv::reference::conv_nchw_ref_geo;
        let mut rng = TensorRng::new(0xD11A);
        let eps = vec![
            Endpoint {
                name: "m/stride2".into(),
                geometry: ConvGeometry::nchw(1, 2, 13, 11, 3, 3, 3).with_stride(2, 2),
                weights: rng.filter_bank(3, 2, 3, 3),
            },
            Endpoint {
                name: "m/dilated".into(),
                geometry: ConvGeometry::nchw(1, 1, 14, 14, 2, 3, 3).with_dilation(2, 2),
                weights: rng.filter_bank(2, 1, 3, 3),
            },
            Endpoint {
                name: "m/depthwise".into(),
                geometry: ConvGeometry::nchw(1, 4, 10, 10, 4, 3, 3).with_groups(4),
                weights: rng.filter_bank(4, 1, 3, 3),
            },
        ];
        let reqs: Vec<Request> = (0..9)
            .map(|i| {
                let e = i % eps.len();
                let g = eps[e].geometry;
                Request {
                    id: i as u64,
                    endpoint: e,
                    input: rng.tensor(1, g.in_channels, g.in_h, g.in_w),
                    checked: false,
                    arrival_s: i as f64 * 1e-4,
                }
            })
            .collect();
        let cfg = ServeConfig {
            window: 6,
            workers: 2,
            trial_sample: SampleMode::Auto(64),
            ..ServeConfig::default()
        };
        let mut sv = ConvServer::new(DeviceConfig::test_tiny(), eps.clone(), cfg);
        let (outs, rep) = sv.run_trace(&reqs).unwrap();
        for (req, resp) in reqs.iter().zip(&outs) {
            let ep = &eps[req.endpoint];
            let golden = conv_nchw_ref_geo(&req.input, &ep.weights, &ep.geometry);
            assert_eq!(
                resp.output.as_slice(),
                golden.as_slice(),
                "request {} ({})",
                req.id,
                ep.name
            );
        }
        // Coalescing still batched same-endpoint requests together.
        assert!(rep.requests_per_launch() > 1.0);
        // Every endpoint's plan names an algorithm that runs its geometry
        // natively, not a unit-axes-only baseline.
        for ep in &eps {
            let key = cache_key(&sv.device, &ep.geometry);
            let plan = sv.cache.get(&key).expect("planned during trace");
            let algo = instantiate_nchw(&plan, SampleMode::Full).expect("registered algorithm");
            assert!(
                algo.supports_shape(&ep.geometry),
                "{}: picked {}, which does not support its geometry",
                ep.name,
                plan.algo
            );
        }
    }

    #[test]
    fn checked_requests_on_non_unit_endpoints_are_rejected() {
        let mut rng = TensorRng::new(7);
        let eps = vec![Endpoint {
            name: "m/stride2".into(),
            geometry: ConvGeometry::nchw(1, 2, 12, 12, 3, 3, 3).with_stride(2, 2),
            weights: rng.filter_bank(3, 2, 3, 3),
        }];
        let mut sv = ConvServer::new(DeviceConfig::test_tiny(), eps, ServeConfig::default());
        let req = Request {
            id: 3,
            endpoint: 0,
            input: rng.tensor(1, 2, 12, 12),
            checked: true,
            arrival_s: 0.0,
        };
        assert!(matches!(
            sv.run_trace(&[req]),
            Err(ServeError::BadRequest { id: 3, .. })
        ));
    }

    #[test]
    fn grouped_endpoint_weights_carry_per_group_channels() {
        // A grouped endpoint's weights hold IC/groups channels; passing
        // dense IC-channel weights is a typed endpoint error.
        let mut rng = TensorRng::new(8);
        let eps = vec![Endpoint {
            name: "m/grouped".into(),
            geometry: ConvGeometry::nchw(1, 4, 10, 10, 4, 3, 3).with_groups(2),
            weights: rng.filter_bank(4, 4, 3, 3), // want 4x2x3x3
        }];
        let mut sv = ConvServer::new(DeviceConfig::test_tiny(), eps, ServeConfig::default());
        assert!(matches!(
            sv.run_trace(&[]),
            Err(ServeError::BadEndpoint { endpoint: 0, .. })
        ));
    }

    #[test]
    fn dilated_filter_overflowing_input_is_unsupported() {
        // 3x3 at dilation 4 spans 9 virtual rows — larger than an 8x8
        // input. The old undilated check accepted this and underflowed.
        let mut rng = TensorRng::new(9);
        let eps = vec![Endpoint {
            name: "m/dilated9".into(),
            geometry: ConvGeometry::nchw(1, 1, 8, 8, 1, 3, 3).with_dilation(4, 4),
            weights: rng.filter_bank(1, 1, 3, 3),
        }];
        let mut sv = ConvServer::new(DeviceConfig::test_tiny(), eps, ServeConfig::default());
        assert!(matches!(
            sv.run_trace(&[]),
            Err(ServeError::Unsupported { endpoint: 0, .. })
        ));
    }

    #[test]
    fn shed_error_displays_projection_and_deadline() {
        let e = ServeError::Shed {
            id: 5,
            projected_s: 0.25,
            deadline_s: 0.125,
        };
        let s = e.to_string();
        assert!(s.contains("request 5"), "{s}");
        assert!(s.contains("shed"), "{s}");
        assert!(s.contains("0.250000"), "{s}");
        assert!(s.contains("0.125000"), "{s}");
    }
}
