//! `serve`: an open-loop trace on the virtual clock through a two-shard
//! `ConvFleet` (routing, batching, deadline shedding, and golden
//! verification of every launch). An item is one served request.
//!
//! Arrivals are scheduled on the trace's virtual clock, so the generator
//! never runs late, and latency is `completion_s − arrival_s`, counted
//! from the scheduled arrival. The fleet's plan caches are warmed in set-up
//! at virtual time 0, before the trace starts at [`data::SERVE_T0_S`], and
//! each later pass replays the trace one epoch further along the clock:
//! the timed passes see no planning and no busy clock carried over.

use crate::data::{self, ServeEndpoint};
use crate::report::Outcome;
use crate::stats::{self, splitmix64, stratified, sub_seed};
use crate::trace::Tracer;
use crate::{Pass, RunConfig};
use memconv::gpusim::{DeviceConfig, GpuSim, LaunchMode, PhantomConfig, SampleMode};
use memconv::prelude::{conv_nchw_ref, ConvGeometry, FilterBank, Tensor4, TensorRng};
use memconv_serve::{
    cache::cache_key, planner::instantiate_nchw, ConvFleet, Endpoint, FleetConfig, FleetEvent,
    FleetReport, FleetRequest, FleetRequestMetrics, Priority, ServeError,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The fleet every pass runs on: chaos off, one worker, sequential engine.
/// Its routing seed is part of the system under test, not an input, so it
/// stays the fleet's default whatever the run's seed.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        devices: vec![DeviceConfig::rtx2080ti(); data::SERVE_SHARDS],
        chaos: None,
        window: data::SERVE_WINDOW,
        workers: 1,
        launch_mode: LaunchMode::Sequential,
        ..FleetConfig::default()
    }
}

/// The endpoints with seeded weights.
pub fn endpoints(eps: &[ServeEndpoint], seed: u64, tracer: &mut Tracer) -> Vec<Endpoint> {
    let mut rng = TensorRng::new(sub_seed(seed, "serve/weights"));
    eps.iter()
        .enumerate()
        .map(|(i, e)| Endpoint {
            name: e.name.to_string(),
            geometry: geometry(e),
            weights: tracer.span("tensor", i as u64, || {
                rng.filter_bank(e.filters, e.in_channels, e.filter, e.filter)
            }),
        })
        .collect()
}

/// One request's geometry at an endpoint.
pub fn geometry(e: &ServeEndpoint) -> ConvGeometry {
    ConvGeometry::nchw(
        1,
        e.in_channels,
        e.spatial,
        e.spatial,
        e.filters,
        e.filter,
        e.filter,
    )
}

/// A uniform draw in (0, 1].
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// The seeded trace: exponential arrival gaps at the nominal rate from
/// [`data::SERVE_T0_S`], seeded payloads and deadlines, and an exact
/// popularity and priority mix in a seeded order that repeats every
/// [`data::SERVE_PATTERN`] requests, so that timed chunks at the same place
/// in the pattern batch into the same launches (see [`run_on`]).
/// High-priority requests are never shed; normal and batch requests carry
/// deadlines the nominal rate meets.
pub fn trace(eps: &[ServeEndpoint], n: usize, seed: u64, tracer: &mut Tracer) -> Vec<FleetRequest> {
    let weights: Vec<usize> = eps.iter().map(|e| e.weight).collect();
    let period = data::SERVE_PATTERN;
    let which = stratified(&weights, period, sub_seed(seed, "serve/mix"));
    let (hi, norm, batch) = data::SERVE_PRIORITY_MIX;
    let prio = stratified(&[hi, norm, batch], period, sub_seed(seed, "serve/priority"));
    let mut rng = TensorRng::new(sub_seed(seed, "serve/payload"));
    let mut h = sub_seed(seed, "serve/arrivals");
    let mut t = data::SERVE_T0_S;
    (0..n)
        .map(|i| {
            h = splitmix64(h);
            t += -unit(h).ln() / data::SERVE_RATE_RPS;
            h = splitmix64(h);
            let (priority, deadline_s) = match prio[i % period] {
                0 => (Priority::High, 1e-3 + unit(h) * 1e-3),
                1 => (Priority::Normal, 1e-3 + unit(h) * 1e-3),
                _ => (Priority::Batch, 0.4e-3 + unit(h) * 0.2e-3),
            };
            let e = &eps[which[i % period]];
            let input = tracer.span("tensor", i as u64, || {
                rng.tensor(1, e.in_channels, e.spatial, e.spatial)
            });
            FleetRequest {
                id: i as u64,
                endpoint: which[i % period],
                input,
                arrival_s: t,
                priority,
                deadline_s,
            }
        })
        .collect()
}

/// The trace replayed at `rate_rps` from `t0_s` instead of the nominal
/// rate from [`data::SERVE_T0_S`]: same requests, arrival gaps scaled.
pub fn rescaled(trace: &[FleetRequest], rate_rps: f64, t0_s: f64) -> Vec<FleetRequest> {
    let k = data::SERVE_RATE_RPS / rate_rps;
    trace
        .iter()
        .map(|r| FleetRequest {
            arrival_s: t0_s + (r.arrival_s - data::SERVE_T0_S) * k,
            ..r.clone()
        })
        .collect()
}

/// Everything one pass needs, built in set-up.
pub struct Setup {
    fleet: ConvFleet,
    trace: Vec<FleetRequest>,
    /// Passes replayed so far; pass `k` runs the trace shifted by
    /// `k ×` [`data::SERVE_EPOCH_S`].
    passes: usize,
}

/// Build the fleet, generate the trace and warm every shard's plan cache
/// with one request per endpoint at virtual time 0.
///
/// # Errors
///
/// A fleet validation error, or a warm-up that did not finish before the
/// trace starts.
pub fn setup(
    eps: &[ServeEndpoint],
    n: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    let endpoints = endpoints(eps, seed, tracer);
    let trace = trace(eps, n, seed, tracer);
    let mut fleet = ConvFleet::new(endpoints, fleet_config());
    let mut rng = TensorRng::new(sub_seed(seed, "serve/warmup"));
    let warm: Vec<FleetRequest> = eps
        .iter()
        .enumerate()
        .map(|(i, e)| FleetRequest {
            id: u64::MAX - i as u64,
            endpoint: i,
            input: rng.tensor(1, e.in_channels, e.spatial, e.spatial),
            arrival_s: 0.0,
            priority: Priority::High,
            deadline_s: f64::INFINITY,
        })
        .collect();
    let span = tracer.begin("serve.fleet.warmup", 0);
    let (_, rep) = fleet.run_trace(&warm).map_err(|e| e.to_string())?;
    tracer.end(span);
    let done_s = rep
        .requests
        .iter()
        .map(|r| r.completion_s)
        .fold(0.0, f64::max);
    if rep.served() != eps.len() || done_s >= data::SERVE_T0_S {
        return Err(format!(
            "warm-up served {} of {} endpoints, finishing at {done_s} s",
            rep.served(),
            eps.len()
        ));
    }
    Ok(Setup {
        fleet,
        trace,
        passes: 0,
    })
}

/// One replay's results.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Per-request outcome: the output, or `None` when shed.
    pub outputs: Vec<Option<Vec<f32>>>,
    /// Metrics of the served requests, in submission order.
    pub served: Vec<FleetRequestMetrics>,
    /// Requests shed at admission.
    pub shed: usize,
    /// Plan-cache hits and misses.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Per shard: launches, modeled seconds and transactions during the
    /// replay.
    pub shards: Vec<(u64, f64, u64)>,
}

impl Replay {
    /// Whether a served request met its deadline and its latency limit.
    fn within(r: &FleetRequestMetrics, limit_s: f64) -> bool {
        !r.deadline_missed && r.completion_s - r.arrival_s <= limit_s
    }
}

/// Per shard: launches, modeled seconds and transactions so far.
fn shard_totals(rep: &FleetReport) -> Vec<(u64, f64, u64)> {
    rep.shards
        .iter()
        .map(|s| (s.launches, s.modeled_seconds, s.transactions))
        .collect()
}

/// Replay `reqs` on `fleet` in chunks of [`data::SERVE_CHUNK`] requests,
/// timing each chunk.
fn replay(
    fleet: &mut ConvFleet,
    reqs: &[FleetRequest],
    tracer: &mut Tracer,
) -> Result<(Replay, Vec<f64>), String> {
    // Shard rollups are cumulative over the fleet's life: an empty trace
    // reads them before the replay.
    let (_, base) = fleet.run_trace(&[]).map_err(|e| e.to_string())?;
    let mut totals = shard_totals(&base);
    let before = totals.clone();
    let mut out = Replay::default();
    let mut chunk_s = Vec::new();
    for (c, chunk) in reqs.chunks(data::SERVE_CHUNK).enumerate() {
        let span = tracer.begin("serve.fleet", c as u64);
        let t0 = Instant::now();
        let (outs, rep) = fleet.run_trace(chunk).map_err(|e| e.to_string())?;
        chunk_s.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        for o in outs {
            out.outputs.push(match o {
                Ok(resp) => Some(resp.output.into_vec()),
                Err(ServeError::Shed { .. }) => None,
                Err(e) => return Err(e.to_string()),
            });
        }
        out.shed += rep
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Shed { .. }))
            .count();
        out.hits += rep.cache_hits;
        out.misses += rep.cache_misses;
        out.served.extend(rep.requests.iter().cloned());
        totals = shard_totals(&rep);
    }
    out.shards = totals
        .iter()
        .zip(before)
        .map(|(a, b)| (a.0 - b.0, a.1 - b.1, a.2 - b.2))
        .collect();
    Ok((out, chunk_s))
}

/// The first pass's results: the nominal-rate replay.
pub type FirstPass = Replay;

/// Run one pass: the whole trace, chunk by chunk.
fn pass(
    s: &mut Setup,
    first: Option<&FirstPass>,
    tracer: &mut Tracer,
) -> Result<Pass<FirstPass>, String> {
    // Later passes replay the same requests on the same fleet, one epoch
    // further along the virtual clock, so none inherits a busy clock.
    let shift = s.passes as f64 * data::SERVE_EPOCH_S;
    s.passes += 1;
    let shifted;
    let reqs = if shift == 0.0 {
        &s.trace
    } else {
        shifted = s
            .trace
            .iter()
            .map(|r| FleetRequest {
                arrival_s: r.arrival_s + shift,
                ..r.clone()
            })
            .collect::<Vec<_>>();
        &shifted
    };
    let (rep, item_s) = replay(&mut s.fleet, reqs, tracer)?;
    let mismatched = match first {
        None => 0,
        Some(f) => mismatches(f, &rep),
    };
    Ok(Pass {
        item_s,
        mismatched,
        data: first.is_none().then_some(rep),
    })
}

/// Requests whose outcome or serving path differs between two replays
/// (virtual times differ by the epoch shift, so they are not compared).
fn mismatches(a: &Replay, b: &Replay) -> u64 {
    let outputs = a
        .outputs
        .iter()
        .zip(&b.outputs)
        .filter(|(x, y)| x != y)
        .count();
    let path = |r: &FleetRequestMetrics| (r.id, r.shard, r.batched_with, r.cache_hit);
    let served = a.served.len().abs_diff(b.served.len())
        + a.served
            .iter()
            .zip(&b.served)
            .filter(|(x, y)| path(x) != path(y))
            .count();
    (outputs.max(served)) as u64
}

/// Check every served output against the CPU reference; returns the
/// number of requests that failed (wrong output, shed, or late).
fn check(s: &Setup, eps: &[Endpoint], first: &Replay, tracer: &mut Tracer) -> u64 {
    let mut failed = first.shed as u64;
    failed += first.served.iter().filter(|r| r.deadline_missed).count() as u64;
    for (req, out) in s.trace.iter().zip(&first.outputs) {
        let Some(out) = out else { continue };
        let want = tracer.span("reference", req.id, || {
            conv_nchw_ref(&req.input, &eps[req.endpoint].weights)
        });
        if want.as_slice() != out.as_slice() {
            failed += 1;
        }
    }
    failed
}

/// Device footprint in f32 elements of one launch of `batch` requests at
/// endpoint `e` under the plan cached on `shard`: the same algorithm run in
/// phantom mode, which allocates exactly as the real launch does.
fn launch_footprint(fleet: &ConvFleet, shard: usize, ep: &Endpoint, batch: usize) -> Option<usize> {
    let dev = DeviceConfig::rtx2080ti();
    let plan = fleet.cache(shard).peek(&cache_key(&dev, &ep.geometry))?;
    let algo = instantiate_nchw(plan, SampleMode::Full).ok()?;
    let g = ep.geometry;
    let input = Tensor4::zeros(batch, g.in_channels, g.in_h, g.in_w);
    let bank = FilterBank::zeros(g.out_channels, g.in_channels, g.f_h, g.f_w);
    let mut sim = GpuSim::new(dev).with_phantom(PhantomConfig::default());
    algo.run(&mut sim, &input, &bank);
    Some(sim.mem.total_elems())
}

/// Mean device footprint per served request, in MB.
fn device_peak_mb(fleet: &ConvFleet, eps: &[Endpoint], first: &Replay) -> f64 {
    let mut cache: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    let names: BTreeMap<&str, usize> = eps
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name.as_str(), i))
        .collect();
    let mut total = 0usize;
    for r in &first.served {
        let Some(shard) = r.shard else { continue };
        let e = names[r.endpoint.as_str()];
        total += *cache.entry((shard, e, r.batched_with)).or_insert_with(|| {
            launch_footprint(fleet, shard, &eps[e], r.batched_with).unwrap_or(0)
        });
    }
    total as f64 * 4.0 / 1e6 / first.served.len().max(1) as f64
}

/// Share of `attempted` requests of a replay served correctly within the
/// latency limit (outputs compared with the checked first pass).
fn slo_share(rep: &Replay, first: &Replay, limit_s: f64) -> f64 {
    let attempted = rep.outputs.len().max(1);
    let ok_ids: std::collections::BTreeSet<u64> = rep
        .served
        .iter()
        .filter(|r| Replay::within(r, limit_s))
        .map(|r| r.id)
        .collect();
    let ok = rep
        .outputs
        .iter()
        .zip(&first.outputs)
        .enumerate()
        .filter(|(i, (o, f))| o.is_some() && o == f && ok_ids.contains(&(*i as u64)))
        .count();
    ok as f64 / attempted as f64
}

/// Run the workload on `eps`.
///
/// # Errors
///
/// A fleet error, or a planner or oracle error in the traced run.
pub fn run_on(eps: &[ServeEndpoint], n: usize, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(cfg.traced);
    let set_up = |tr: &mut Tracer| setup(eps, n, cfg.seed, tr);
    let (mut timed, overhead) = if cfg.traced {
        let (t, o) = crate::run_traced(&mut tracer, set_up, pass)?;
        (t, Some(o))
    } else {
        (
            crate::run_timed(cfg.seconds, &mut tracer, set_up, pass)?,
            None,
        )
    };
    let endpoints = timed.state.fleet.endpoints().to_vec();
    let failed_first = check(&timed.state, &endpoints, timed.first(), &mut tracer);
    let n = n as u64;
    let passes = timed.passes.len() as u64;
    let mut out = Outcome {
        attempted: n * passes,
        failed: failed_first * passes + timed.mismatched(),
        metrics: Vec::new(),
    };

    // Capacity probe: the same trace at the faster SLO rates, each replay
    // at a fixed epoch past every timed pass, so it inherits no busy clock
    // and its virtual times do not depend on how many passes ran.
    let slo = data::SERVE_SLO;
    let limit_s = slo.limit_ms * 1e-3;
    let mut probes: Vec<(f64, Replay)> = Vec::new();
    for (k, &rate) in slo.rates_per_s.iter().enumerate().skip(1) {
        let t0 = data::SERVE_PROBE_EPOCH_S * k as f64;
        if timed.passes.len() as f64 * data::SERVE_EPOCH_S >= data::SERVE_PROBE_EPOCH_S {
            return Err("too many passes for the capacity probe's epoch".into());
        }
        let prefix = data::SERVE_PROBE_REQUESTS.min(timed.state.trace.len());
        let reqs = rescaled(&timed.state.trace[..prefix], rate, t0);
        let (rep, ..) = replay(&mut timed.state.fleet, &reqs, &mut Tracer::new(false))?;
        probes.push((rate, rep));
    }
    let first = timed.first();
    match overhead {
        None => {
            // Chunks at the same place in the request pattern are the same
            // work (see `trace`).
            let per_pattern = data::SERVE_PATTERN / data::SERVE_CHUNK;
            let class: Vec<usize> = (0..timed.passes[0].item_s.len())
                .map(|c| c % per_pattern)
                .collect();
            crate::common_metrics(&mut out, &timed, n - failed_first, Some(&class));
            let served = first.served.len().max(1) as f64;
            let (modeled_s, tx) = first
                .shards
                .iter()
                .fold((0.0, 0u64), |(m, t), s| (m + s.1, t + s.2));
            let lat: Vec<f64> = first
                .served
                .iter()
                .map(|r| (r.completion_s - r.arrival_s) * 1e3)
                .collect();
            out.set("transactions_per_item", tx as f64 / served);
            out.set("modeled_ms_per_item", modeled_s * 1e3 / served);
            out.set("latency_p50_ms", stats::percentile(&lat, 50));
            out.set("latency_p99_ms", stats::percentile(&lat, 99));
            out.set(
                "device_peak_mb",
                device_peak_mb(&timed.state.fleet, &endpoints, first),
            );
            out.set(
                "slo_rate_rps",
                stats::slo_rate(&slo, |rate| match probes.iter().find(|(r, _)| *r == rate) {
                    Some((_, rep)) => slo_share(rep, first, limit_s),
                    None => slo_share(first, first, limit_s),
                }),
            );
        }
        Some(o) => {
            layer_metrics(&mut out, &endpoints, first, &probes, &mut tracer)?;
            let pass_s = timed.passes[1].total_s();
            out.set("serve.fleet.host_ms_per_request", pass_s * 1e3 / n as f64);
            out.set("bench.trace_overhead_frac", o);
        }
    }
    crate::write_trace("serve", cfg, &tracer);
    Ok(out)
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    eps: &[Endpoint],
    first: &Replay,
    probes: &[(f64, Replay)],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let launches: u64 = first.shards.iter().map(|s| s.0).sum();
    out.set(
        "serve.fleet.requests_per_launch",
        first.served.len() as f64 / launches.max(1) as f64,
    );
    let queue: Vec<f64> = first.served.iter().map(|r| r.queue_s * 1e3).collect();
    let exec: Vec<f64> = first.served.iter().map(|r| r.execute_s * 1e3).collect();
    out.set("serve.fleet.queue_p50_ms", stats::percentile(&queue, 50));
    out.set("serve.fleet.queue_p99_ms", stats::percentile(&queue, 99));
    out.set("serve.fleet.execute_p50_ms", stats::percentile(&exec, 50));
    out.set("serve.fleet.execute_p99_ms", stats::percentile(&exec, 99));
    let probed: usize = probes.iter().map(|(_, r)| r.outputs.len()).sum();
    let shed: usize = probes.iter().map(|(_, r)| r.shed).sum();
    out.set("serve.fleet.shed_frac", shed as f64 / probed.max(1) as f64);
    let busy: Vec<f64> = first.shards.iter().map(|s| s.1).collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    out.set(
        "serve.fleet.load_imbalance",
        if mean > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean
        } else {
            1.0
        },
    );
    out.set(
        "serve.cache.hit_rate",
        first.hits as f64 / (first.hits + first.misses).max(1) as f64,
    );
    out.set(
        "reference.ms_per_request",
        crate::ms_per_span(tracer, "reference"),
    );
    out.set("tensor.input_gen_ms", tracer.self_s("tensor") * 1e3);

    // The planner and the oracle, called directly on each endpoint (the
    // oracle on the algorithm the fleet's plan picked).
    let dev = DeviceConfig::rtx2080ti();
    let mut exact = 0usize;
    for (k, ep) in eps.iter().enumerate() {
        let outcome = tracer
            .span("serve.planner", k as u64, || {
                memconv_serve::plan_nchw_heuristic(&dev, &ep.geometry, SampleMode::Auto(256))
            })
            .map_err(|e| format!("planning {}: {e}", ep.name))?;
        let algo = instantiate_nchw(&outcome.plan, SampleMode::Full).map_err(|e| e.to_string())?;
        let p = tracer
            .span("oracle", k as u64, || {
                memconv::oracle::predict_nchw(
                    algo.as_ref(),
                    &dev,
                    &ep.geometry,
                    LaunchMode::Sequential,
                )
            })
            .map_err(|e| format!("predicting {}: {e}", ep.name))?;
        exact += usize::from(p.is_exact() && p.consistent);
    }
    out.set(
        "serve.planner.ms_per_geometry",
        crate::ms_per_span(tracer, "serve.planner"),
    );
    out.set("oracle.predict_ms", crate::ms_per_span(tracer, "oracle"));
    out.set("oracle.exact_frac", exact as f64 / eps.len().max(1) as f64);
    Ok(())
}

/// Run the workload on the data set.
///
/// # Errors
///
/// See [`run_on`].
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    run_on(&data::SERVE_ENDPOINTS, data::SERVE_REQUESTS, cfg)
}
