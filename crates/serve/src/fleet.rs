//! The resilient sharded serving fleet: a geometry-affinity router over
//! N simulated devices where every failure mode is handled
//! deterministically on the virtual clock.
//!
//! ## Architecture
//!
//! A [`ConvFleet`] owns one shard per [`DeviceConfig`]: a plan cache, a
//! [`CircuitBreaker`], and (under chaos) a device-namespaced
//! [`FaultPlan`] derived from the fleet seed via
//! [`FaultPlan::device_seed`]. Requests are windowed exactly like
//! [`crate::ConvServer`], then routed to shards by rendezvous
//! (highest-random-weight) hashing of the endpoint geometry — stable
//! affinity, minimal disruption when a shard is quarantined — and
//! coalesced into per-`(shard, endpoint)` batch launches executed on
//! per-device queues with work stealing
//! ([`memconv_par::map_sharded_with`]).
//!
//! ## Failure handling
//!
//! Every fleet launch is **golden-verified**: the batched output is
//! compared bit-exactly against the CPU reference, so a corrupted output
//! can never be served silently. A failed attempt — `LaunchError`
//! (timeout / hang / panic) or golden mismatch — fails over to the next
//! shard in the geometry's rendezvous order, with bounded retries
//! ([`FleetConfig::max_failovers`]), and finally to the host CPU
//! reference tier, which cannot fail. Every attempt is recorded in a
//! typed [`FleetAttempt`] log on the request's metrics.
//!
//! Per-shard health is a consecutive-failure circuit breaker: at
//! [`FleetConfig::breaker_threshold`] failures the shard is quarantined
//! (routing stops, its cached plans for fleet endpoints are re-homed to
//! each geometry's fallback shard when device fingerprints match); after
//! [`FleetConfig::probation_delay_s`] virtual seconds a probation probe
//! — a tiny seeded conv, chaos armed, golden-checked — either restores
//! the shard or re-opens the breaker.
//!
//! ## Admission control
//!
//! Requests carry a [`Priority`] and a relative deadline. At window
//! close the fleet projects each request's completion from the target
//! shard's modeled busy-clock plus the window's already-admitted work;
//! a non-[`Priority::High`] request whose projection misses its deadline
//! is shed with a typed [`ServeError::Shed`] — an error value, not a
//! panic, and an explicit [`FleetEvent::Shed`] in the event log.
//!
//! ## Determinism argument
//!
//! The parallel phase computes pure functions of
//! `(device, plan, batch, nonce)`: chaos decisions are keyed by the
//! device-namespaced plan seed and a per-`(group, attempt)` launch-seq
//! nonce ([`GpuSim::set_launch_seq`]), both independent of engine and
//! thread count. Each worker keeps one simulator across attempts and
//! windows, and [`GpuSim::reset`]s it before every attempt, so an attempt
//! never sees which worker ran it or what ran there before. All mutable
//! fleet state — breakers, busy clocks, caches, the event log — is
//! updated in a sequential pass in fixed `(shard, queue-index)` order.
//! Fleet outputs, metrics, and the event sequence are therefore
//! bit-identical across launch engines, worker counts, and runs
//! (proptest-pinned in `tests/prop_fleet.rs`).

use crate::cache::{cache_key, PlanCache};
use crate::metrics::{percentiles, Percentiles};
use crate::planner::{instantiate_nchw, plan_nchw_heuristic, Plan};
use crate::scheduler::{Endpoint, Response, ServeError};
use memconv::gpusim::{
    classify_panic, DeviceConfig, FaultPlan, GpuSim, LaunchError, LaunchMode, SampleMode,
    DEFAULT_BLOCK_INSTRUCTION_BUDGET,
};
use memconv::reference::conv_nchw_ref;
use memconv::tensor::Tensor4;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// Requests and configuration
// ---------------------------------------------------------------------------

/// Request priority class for SLO-aware admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Never shed; always admitted even when the projection misses.
    High,
    /// Shed when the projected completion misses the deadline.
    Normal,
    /// Throughput traffic: shed exactly like `Normal`, but reported
    /// under its own label so operators can watch it drain first.
    Batch,
}

impl Priority {
    /// Stable lowercase label (Prometheus label value, bench JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

/// One single-image inference request with an SLO.
#[derive(Debug, Clone)]
pub struct FleetRequest {
    /// Caller-assigned id, echoed in the response.
    pub id: u64,
    /// Index into the fleet's endpoint table.
    pub endpoint: usize,
    /// Input tensor, shaped `1 × IC × IH × IW` for the endpoint.
    pub input: Tensor4,
    /// Arrival time on the trace's virtual clock, seconds.
    pub arrival_s: f64,
    /// Priority class for admission.
    pub priority: Priority,
    /// Relative deadline in virtual seconds ([`f64::INFINITY`] = none).
    pub deadline_s: f64,
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// One shard per device, in shard-index order. May be heterogeneous;
    /// plan-cache re-homing only applies between equal fingerprints.
    pub devices: Vec<DeviceConfig>,
    /// Master seed: per-device chaos seeds, rendezvous salts, and probe
    /// inputs all derive from it by pure splitmix64 hashing.
    pub fleet_seed: u64,
    /// Chaos rate template; `None` disarms injection. Seeds are ignored —
    /// each shard draws from [`FaultPlan::device_seed`]`(fleet_seed, idx)`.
    pub chaos: Option<FaultPlan>,
    /// Maximum requests coalesced per batching window.
    pub window: usize,
    /// Worker threads for the per-device queues, each with one simulator
    /// kept for the fleet's lifetime (0 counts as 1).
    pub workers: usize,
    /// Plan-cache capacity per shard.
    pub cache_capacity: usize,
    /// Simulator launch engine for fleet launches.
    pub launch_mode: LaunchMode,
    /// Block sampling for heuristic planning (never for fleet launches).
    pub trial_sample: SampleMode,
    /// Device attempts allowed beyond the first (0 = no failover; the
    /// host CPU tier is always available as the last resort).
    pub max_failovers: u32,
    /// Consecutive failures that open a shard's circuit breaker.
    pub breaker_threshold: u32,
    /// Virtual seconds a quarantined shard waits before its probation
    /// probe.
    pub probation_delay_s: f64,
    /// Watchdog instruction budget armed for every fleet launch, so
    /// injected hangs surface as [`LaunchError::Timeout`].
    pub watchdog_budget: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: vec![DeviceConfig::test_tiny(), DeviceConfig::test_tiny()],
            fleet_seed: 0xF1EE7,
            chaos: None,
            window: 16,
            workers: memconv_par::num_threads(),
            cache_capacity: 64,
            launch_mode: LaunchMode::Sequential,
            trial_sample: SampleMode::Auto(256),
            max_failovers: 2,
            breaker_threshold: 3,
            probation_delay_s: 5e-3,
            watchdog_budget: DEFAULT_BLOCK_INSTRUCTION_BUDGET,
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Breaker position for one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreakerState {
    /// Healthy: the shard takes routed traffic.
    Closed,
    /// Quarantined since `since_s`: no traffic until probation.
    Open {
        /// Virtual time the breaker opened.
        since_s: f64,
    },
    /// Probation: the shard takes exactly one probe, whose outcome
    /// either closes or re-opens the breaker.
    Probation,
}

/// A consecutive-failure circuit breaker on the virtual clock.
///
/// `Closed` → (threshold consecutive failures) → `Open{since}` →
/// (now ≥ since + probation_delay) → `Probation` → probe success →
/// `Closed`, probe failure → `Open{probe time}`. Purely virtual-time
/// driven: transitions happen only through [`CircuitBreaker::tick`] and
/// the `record_*` calls, never from wall clocks.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    probation_delay_s: f64,
    consecutive_failures: u32,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker opening after `threshold` consecutive failures,
    /// probing after `probation_delay_s` virtual seconds of quarantine.
    pub fn new(threshold: u32, probation_delay_s: f64) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            probation_delay_s,
            consecutive_failures: 0,
            state: BreakerState::Closed,
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether the shard takes routed traffic (only when `Closed`).
    pub fn is_routable(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// Record a successful launch (or a passed probe): resets the
    /// failure streak and closes a probation breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Record a failed launch (or a failed probe) at virtual time
    /// `now_s`. Returns `true` when this failure opened the breaker
    /// (the quarantine edge).
    pub fn record_failure(&mut self, now_s: f64) -> bool {
        self.consecutive_failures += 1;
        let should_open = match self.state {
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Probation => true,
            BreakerState::Open { .. } => false,
        };
        if should_open {
            self.state = BreakerState::Open { since_s: now_s };
        }
        should_open
    }

    /// Advance the virtual clock: an `Open` breaker whose probation
    /// delay has elapsed moves to `Probation`. Returns `true` when a
    /// probe is now due.
    pub fn tick(&mut self, now_s: f64) -> bool {
        if let BreakerState::Open { since_s } = self.state {
            if now_s >= since_s + self.probation_delay_s {
                self.state = BreakerState::Probation;
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Typed logs: attempts and fleet events
// ---------------------------------------------------------------------------

/// What one dispatch attempt did.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetAttemptOutcome {
    /// The launch completed and passed golden verification.
    Served,
    /// Served by the host CPU reference tier (last resort).
    HostServed,
    /// The device launch failed; the stable kind of [`LaunchError`].
    LaunchFailed(&'static str),
    /// The launch completed but the output failed golden verification.
    SdcDetected {
        /// Worst absolute deviation from the reference.
        max_abs: f32,
    },
}

/// One entry of a request's dispatch chain.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAttempt {
    /// The shard that ran the attempt; `None` = host CPU tier.
    pub shard: Option<usize>,
    /// What happened.
    pub outcome: FleetAttemptOutcome,
    /// Modeled device seconds the attempt consumed (0 for launch
    /// failures, whose device time is not modeled, and for the host).
    pub modeled_seconds: f64,
}

/// One entry of the fleet's deterministic event log. Every event is
/// stamped with the virtual close time of the window it happened in.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A shard's breaker opened.
    Quarantined {
        /// Window close time.
        t_s: f64,
        /// Shard index.
        shard: usize,
        /// The failure streak that opened it.
        failures: u32,
    },
    /// A probation probe ran.
    Probe {
        /// Window close time.
        t_s: f64,
        /// Shard index.
        shard: usize,
        /// Whether the probe passed golden verification.
        passed: bool,
    },
    /// A probation probe passed and the shard rejoined the rotation.
    Restored {
        /// Window close time.
        t_s: f64,
        /// Shard index.
        shard: usize,
    },
    /// Cached plans for fleet endpoints were copied from a quarantined
    /// shard to same-fingerprint fallback shards.
    Rehomed {
        /// Window close time.
        t_s: f64,
        /// The quarantined source shard.
        from: usize,
        /// The destination shard.
        to: usize,
        /// Plans copied.
        plans: usize,
    },
    /// A group failed on one shard and was re-dispatched.
    Failover {
        /// Window close time.
        t_s: f64,
        /// Ids of the requests in the failed group.
        request_ids: Vec<u64>,
        /// The shard that failed.
        from: usize,
        /// The next shard tried; `None` = host CPU tier.
        to: Option<usize>,
        /// 1-based index of the *failed* attempt.
        attempt: u32,
    },
    /// A request was load-shed at admission.
    Shed {
        /// Window close time.
        t_s: f64,
        /// The shed request.
        id: u64,
        /// Its priority class.
        priority: Priority,
        /// Projected completion that missed.
        projected_s: f64,
        /// The absolute deadline it missed.
        deadline_s: f64,
    },
}

impl FleetEvent {
    /// Stable kebab-case kind label (Prometheus, bench JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            FleetEvent::Quarantined { .. } => "quarantined",
            FleetEvent::Probe { .. } => "probe",
            FleetEvent::Restored { .. } => "restored",
            FleetEvent::Rehomed { .. } => "rehomed",
            FleetEvent::Failover { .. } => "failover",
            FleetEvent::Shed { .. } => "shed",
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Per-request fleet metrics (served requests only; shed requests appear
/// in the event log and the per-request error).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequestMetrics {
    /// Request id.
    pub id: u64,
    /// Endpoint name.
    pub endpoint: String,
    /// Window index.
    pub window: usize,
    /// Arrival time, virtual seconds.
    pub arrival_s: f64,
    /// Window-close minus arrival.
    pub queue_s: f64,
    /// Modeled seconds of the serving attempt (group-level).
    pub execute_s: f64,
    /// Modeled completion time on the serving shard's busy clock.
    pub completion_s: f64,
    /// The serving shard; `None` = host CPU tier.
    pub shard: Option<usize>,
    /// Requests coalesced into the same launch.
    pub batched_with: usize,
    /// Whether planning hit the serving shard's cache.
    pub cache_hit: bool,
    /// Priority class.
    pub priority: Priority,
    /// Absolute deadline, virtual seconds (INFINITY = none).
    pub deadline_s: f64,
    /// Whether the modeled completion missed the deadline.
    pub deadline_missed: bool,
    /// The full dispatch chain, in execution order (last entry served).
    pub attempts: Vec<FleetAttempt>,
}

/// Per-shard rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard's device fingerprint.
    pub fingerprint: String,
    /// Requests this shard served.
    pub requests: u64,
    /// Group attempts started on this shard (including probes).
    pub launches: u64,
    /// Failed attempts (launch errors + golden mismatches + failed
    /// probes).
    pub failures: u64,
    /// Times this shard's breaker opened.
    pub quarantines: u64,
    /// Modeled busy seconds accumulated.
    pub modeled_seconds: f64,
    /// Global memory transactions of served launches.
    pub transactions: u64,
}

/// Latency quantiles for one serving tier: a device shard, or the host
/// CPU fallback (`shard: None`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLatencyRollup {
    /// The tier: `Some(shard index)` or `None` for the host CPU.
    pub shard: Option<usize>,
    /// Requests this tier served.
    pub served: usize,
    /// Quantiles of virtual queueing delay (window close − arrival).
    pub queue: Percentiles,
    /// Quantiles of modeled execution latency.
    pub execute: Percentiles,
    /// Quantiles of end-to-end latency (completion − arrival).
    pub total: Percentiles,
}

/// Everything one fleet trace produced besides the responses.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-request metrics for served requests, in submission order.
    pub requests: Vec<FleetRequestMetrics>,
    /// The deterministic event log, in virtual-time order.
    pub events: Vec<FleetEvent>,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardStats>,
    /// Plan-cache hits across all shards during the trace.
    pub cache_hits: u64,
    /// Plan-cache misses across all shards during the trace.
    pub cache_misses: u64,
}

impl FleetReport {
    /// Served request count.
    pub fn served(&self) -> usize {
        self.requests.len()
    }

    /// Shed request count.
    pub fn shed(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Shed { .. }))
            .count()
    }

    /// Failover count (failed device attempts that were re-dispatched).
    pub fn failovers(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Failover { .. }))
            .count()
    }

    /// Times any breaker opened.
    pub fn quarantines(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Quarantined { .. }))
            .count()
    }

    /// Requests served by the host CPU tier.
    pub fn host_served(&self) -> usize {
        self.requests.iter().filter(|r| r.shard.is_none()).count()
    }

    /// Deadline misses among served requests with finite deadlines,
    /// as a fraction of all finite-deadline served requests (0.0 when
    /// there are none). Shed requests are not misses — they were
    /// rejected up front, which is the point of admission control.
    pub fn deadline_miss_rate(&self) -> f64 {
        let with_deadline: Vec<_> = self
            .requests
            .iter()
            .filter(|r| r.deadline_s.is_finite())
            .collect();
        if with_deadline.is_empty() {
            return 0.0;
        }
        with_deadline.iter().filter(|r| r.deadline_missed).count() as f64
            / with_deadline.len() as f64
    }

    /// Load imbalance: max over shards of modeled busy seconds divided
    /// by the mean (1.0 = perfectly balanced; 1.0 when idle).
    pub fn load_imbalance(&self) -> f64 {
        let total: f64 = self.shards.iter().map(|s| s.modeled_seconds).sum();
        if self.shards.is_empty() || total <= 0.0 {
            return 1.0;
        }
        let mean = total / self.shards.len() as f64;
        let max = self
            .shards
            .iter()
            .map(|s| s.modeled_seconds)
            .fold(0.0, f64::max);
        max / mean
    }

    /// Total modeled device seconds across shards.
    pub fn total_modeled_seconds(&self) -> f64 {
        self.shards.iter().map(|s| s.modeled_seconds).sum()
    }

    /// Per-tier latency quantiles: one rollup per device shard (in shard
    /// order, present even when the shard served nothing, so exposition
    /// layouts are stable) plus a final host-CPU rollup when the fallback
    /// tier served anything. Quantiles follow the serving stack's
    /// nearest-rank convention ([`crate::metrics::percentiles`]).
    pub fn shard_percentiles(&self) -> Vec<ShardLatencyRollup> {
        let rollup = |shard: Option<usize>| {
            let mut queue = Vec::new();
            let mut execute = Vec::new();
            let mut total = Vec::new();
            for r in self.requests.iter().filter(|r| r.shard == shard) {
                queue.push(r.queue_s);
                execute.push(r.execute_s);
                total.push(r.completion_s - r.arrival_s);
            }
            ShardLatencyRollup {
                shard,
                served: queue.len(),
                queue: percentiles(&queue),
                execute: percentiles(&execute),
                total: percentiles(&total),
            }
        };
        let mut out: Vec<ShardLatencyRollup> =
            (0..self.shards.len()).map(|s| rollup(Some(s))).collect();
        let host = rollup(None);
        if host.served > 0 {
            out.push(host);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

struct Shard {
    device: DeviceConfig,
    cache: PlanCache,
    breaker: CircuitBreaker,
    /// Armed chaos plan (device-namespaced seed), if any.
    faults: Option<FaultPlan>,
    /// Rendezvous salt — a pure function of the shard index, so adding
    /// a shard never moves traffic between existing shards beyond what
    /// HRW hashing inherently re-scores.
    salt: u64,
    busy_until_s: f64,
    stats: ShardStats,
    probe_seq: u64,
}

/// One coalesced fleet launch group within a window.
struct FleetGroup {
    shard: usize,
    endpoint: usize,
    /// Window-local request indices, in arrival order.
    members: Vec<usize>,
    plan: Plan,
    plan_hit: bool,
    /// Global group sequence number (fault-stream namespace).
    seq: u64,
}

/// What one device attempt produced.
struct AttemptOk {
    batch_out: Tensor4,
    modeled_seconds: f64,
    transactions: u64,
}

enum AttemptFail {
    Launch(&'static str),
    Sdc { max_abs: f32, modeled_seconds: f64 },
}

type AttemptResult = Result<AttemptOk, AttemptFail>;

/// The sharded serving fleet. See the [module docs](self).
pub struct ConvFleet {
    endpoints: Vec<Endpoint>,
    cfg: FleetConfig,
    shards: Vec<Shard>,
    group_seq: u64,
    /// One simulator per worker, reset before each attempt
    /// ([`run_attempt`]). Not one per shard: a worker that drains its own
    /// queue steals from the others, so two workers may run one shard's
    /// groups at once. The sequential phase (failovers, probes) uses the
    /// first.
    sims: Vec<GpuSim>,
}

impl ConvFleet {
    /// A fleet with fresh per-shard caches and closed breakers.
    ///
    /// # Panics
    ///
    /// When `cfg.devices` is empty.
    pub fn new(endpoints: Vec<Endpoint>, cfg: FleetConfig) -> Self {
        assert!(!cfg.devices.is_empty(), "fleet needs at least one device");
        let shards = cfg
            .devices
            .iter()
            .enumerate()
            .map(|(i, device)| Shard {
                device: device.clone(),
                cache: PlanCache::new(cfg.cache_capacity),
                breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.probation_delay_s),
                faults: cfg
                    .chaos
                    .as_ref()
                    .map(|t| t.for_device(cfg.fleet_seed, i as u32)),
                salt: splitmix(mix(cfg.fleet_seed ^ ROUTE_NS, i as u64)),
                busy_until_s: 0.0,
                stats: ShardStats {
                    shard: i,
                    fingerprint: device.fingerprint(),
                    requests: 0,
                    launches: 0,
                    failures: 0,
                    quarantines: 0,
                    modeled_seconds: 0.0,
                    transactions: 0,
                },
                probe_seq: 0,
            })
            .collect();
        let sims = (0..cfg.workers.max(1))
            .map(|_| GpuSim::new(cfg.devices[0].clone()))
            .collect();
        ConvFleet {
            endpoints,
            cfg,
            shards,
            group_seq: 0,
            sims,
        }
    }

    /// The endpoint table.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s plan cache (persistence, counter inspection).
    pub fn cache(&self, s: usize) -> &PlanCache {
        &self.shards[s].cache
    }

    /// Shard `s`'s breaker state.
    pub fn breaker_state(&self, s: usize) -> BreakerState {
        self.shards[s].breaker.state()
    }

    /// Serve a fleet trace. Per-request outcomes are returned in
    /// submission order: `Ok(response)` for served requests (device or
    /// host tier), `Err(`[`ServeError::Shed`]`)` for load-shed ones.
    ///
    /// # Errors
    ///
    /// Trace-level validation errors only ([`ServeError::BadEndpoint`],
    /// [`ServeError::Unsupported`], [`ServeError::UnknownEndpoint`],
    /// [`ServeError::BadRequest`]); after validation every request
    /// produces a per-request outcome.
    #[allow(clippy::type_complexity)]
    pub fn run_trace(
        &mut self,
        requests: &[FleetRequest],
    ) -> Result<(Vec<Result<Response, ServeError>>, FleetReport), ServeError> {
        self.validate(requests)?;
        let hits0: u64 = self.shards.iter().map(|s| s.cache.hits()).sum();
        let misses0: u64 = self.shards.iter().map(|s| s.cache.misses()).sum();
        let window = self.cfg.window.max(1);

        let mut outcomes: Vec<Option<Result<Response, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut metrics: Vec<Option<FleetRequestMetrics>> =
            (0..requests.len()).map(|_| None).collect();
        let mut events: Vec<FleetEvent> = Vec::new();

        for (w0, chunk) in requests.chunks(window).enumerate() {
            let base = w0 * window;
            let close_s = chunk.iter().map(|r| r.arrival_s).fold(f64::MIN, f64::max);

            self.run_probes(close_s, &mut events);
            let groups = self.admit_window(chunk, base, close_s, &mut outcomes, &mut events);
            self.execute_window(
                w0,
                base,
                close_s,
                chunk,
                groups,
                &mut outcomes,
                &mut metrics,
                &mut events,
            );
        }

        let report = FleetReport {
            requests: metrics.into_iter().flatten().collect(),
            events,
            shards: self.shards.iter().map(|s| s.stats.clone()).collect(),
            cache_hits: self.shards.iter().map(|s| s.cache.hits()).sum::<u64>() - hits0,
            cache_misses: self.shards.iter().map(|s| s.cache.misses()).sum::<u64>() - misses0,
        };
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every request resolved"))
            .collect();
        Ok((outcomes, report))
    }

    /// Probation transitions + probes at window close, in shard order.
    fn run_probes(&mut self, close_s: f64, events: &mut Vec<FleetEvent>) {
        for s in 0..self.shards.len() {
            if !self.shards[s].breaker.tick(close_s) {
                continue;
            }
            let passed = self.run_probe(s);
            events.push(FleetEvent::Probe {
                t_s: close_s,
                shard: s,
                passed,
            });
            let shard = &mut self.shards[s];
            shard.stats.launches += 1;
            if passed {
                shard.breaker.record_success();
                events.push(FleetEvent::Restored {
                    t_s: close_s,
                    shard: s,
                });
            } else {
                shard.stats.failures += 1;
                // A probation failure always re-opens; not a new
                // quarantine edge, so no Quarantined event.
                shard.breaker.record_failure(close_s);
            }
        }
    }

    /// One probation probe: a tiny seeded conv with chaos armed, golden
    /// verified. Pure function of `(fleet_seed, shard, probe_seq)`.
    fn run_probe(&mut self, s: usize) -> bool {
        use memconv::tensor::generate::TensorRng;
        let seq = self.shards[s].probe_seq;
        self.shards[s].probe_seq += 1;
        let mut rng = TensorRng::new(mix(mix(self.cfg.fleet_seed ^ PROBE_NS, s as u64), seq));
        let input = rng.tensor(1, 1, 10, 10);
        let weights = rng.filter_bank(1, 1, 3, 3);
        let g = memconv::tensor::ConvGeometry::nchw(1, 1, 10, 10, 1, 3, 3);
        let Ok(outcome) = plan_nchw_heuristic(&self.shards[s].device, &g, self.cfg.trial_sample)
        else {
            return false;
        };
        let nonce = mix(mix(PROBE_NS, s as u64), seq);
        let result = run_attempt(
            &mut self.sims[0],
            &self.shards[s].device,
            self.cfg.launch_mode,
            self.cfg.watchdog_budget,
            self.shards[s].faults,
            nonce,
            &outcome.plan,
            &input,
            &weights,
        );
        matches!(result, Ok(Ok(_)))
    }

    /// Route + admit one window's requests, building the launch groups.
    /// Shed requests get their typed error immediately.
    fn admit_window(
        &mut self,
        chunk: &[FleetRequest],
        base: usize,
        close_s: f64,
        outcomes: &mut [Option<Result<Response, ServeError>>],
        events: &mut Vec<FleetEvent>,
    ) -> Vec<FleetGroup> {
        let mut groups: Vec<FleetGroup> = Vec::new();
        // Projected extra work admitted to each shard this window, on
        // top of its carried busy clock.
        let mut proj_extra: Vec<f64> = vec![0.0; self.shards.len()];

        for (i, req) in chunk.iter().enumerate() {
            let g = self.endpoints[req.endpoint].geometry;
            let ranked = self.rank_shards(&g);
            let Some(&shard) = ranked.first() else {
                // Every shard quarantined: the host CPU tier serves
                // directly; admission never sheds it (it completes at
                // window close on the modeled clock).
                groups.push(FleetGroup {
                    shard: HOST_SHARD,
                    endpoint: req.endpoint,
                    members: vec![i],
                    plan: host_placeholder_plan(),
                    plan_hit: false,
                    seq: self.next_group_seq(),
                });
                continue;
            };

            let (plan, plan_hit) = self.resolve_plan(shard, req.endpoint);
            let est = plan.modeled_seconds.max(0.0);
            let projected_s =
                self.shards[shard].busy_until_s.max(close_s) + proj_extra[shard] + est;
            let deadline_abs = req.arrival_s + req.deadline_s;
            if req.priority != Priority::High && projected_s > deadline_abs {
                events.push(FleetEvent::Shed {
                    t_s: close_s,
                    id: req.id,
                    priority: req.priority,
                    projected_s,
                    deadline_s: deadline_abs,
                });
                outcomes[base + i] = Some(Err(ServeError::Shed {
                    id: req.id,
                    projected_s,
                    deadline_s: deadline_abs,
                }));
                continue;
            }
            proj_extra[shard] += est;

            match groups
                .iter_mut()
                .find(|grp| grp.shard == shard && grp.endpoint == req.endpoint)
            {
                Some(grp) => grp.members.push(i),
                None => {
                    let seq = self.next_group_seq();
                    groups.push(FleetGroup {
                        shard,
                        endpoint: req.endpoint,
                        members: vec![i],
                        plan,
                        plan_hit,
                        seq,
                    });
                }
            }
        }
        groups
    }

    /// Execute one window's groups on per-device queues with work
    /// stealing, then settle results, failovers, breakers, and metrics
    /// in deterministic `(shard, queue-index)` order.
    #[allow(clippy::too_many_arguments)]
    fn execute_window(
        &mut self,
        w0: usize,
        base: usize,
        close_s: f64,
        chunk: &[FleetRequest],
        groups: Vec<FleetGroup>,
        outcomes: &mut [Option<Result<Response, ServeError>>],
        metrics: &mut [Option<FleetRequestMetrics>],
        events: &mut Vec<FleetEvent>,
    ) {
        // Host-tier groups (all shards quarantined) settle immediately.
        let (host_groups, device_groups): (Vec<_>, Vec<_>) =
            groups.into_iter().partition(|g| g.shard == HOST_SHARD);

        // Per-shard queues, preserving group creation order.
        let mut queues: Vec<Vec<FleetGroup>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for g in device_groups {
            queues[g.shard].push(g);
        }
        let queue_lens: Vec<usize> = queues.iter().map(|q| q.len()).collect();

        // Parallel phase: pure first attempts, no shared state.
        let endpoints = &self.endpoints;
        let cfg = &self.cfg;
        let shards = &self.shards;
        let firsts: Vec<Vec<AttemptResult>> =
            memconv_par::map_sharded_with(&queue_lens, &mut self.sims, |s, qi, sim| {
                let grp = &queues[s][qi];
                let (batch, weights) = build_batch(endpoints, grp, chunk);
                run_attempt(
                    sim,
                    &shards[s].device,
                    cfg.launch_mode,
                    cfg.watchdog_budget,
                    shards[s].faults,
                    mix(grp.seq, 1),
                    &grp.plan,
                    &batch,
                    weights,
                )
                .unwrap_or(Err(AttemptFail::Launch("plan-instantiate")))
            });

        // Sequential settle phase, in (shard, queue-index) order.
        for (queue, results) in queues.into_iter().zip(firsts) {
            for (grp, first) in queue.into_iter().zip(results) {
                self.settle_group(
                    w0, base, close_s, chunk, grp, first, outcomes, metrics, events,
                );
            }
        }

        // Host-tier groups: settle after device groups, in order.
        for grp in host_groups {
            self.settle_host_group(w0, base, close_s, chunk, grp, Vec::new(), outcomes, metrics);
        }
    }

    /// Settle one group: walk the failover chain until served.
    #[allow(clippy::too_many_arguments)]
    fn settle_group(
        &mut self,
        w0: usize,
        base: usize,
        close_s: f64,
        chunk: &[FleetRequest],
        grp: FleetGroup,
        first: AttemptResult,
        outcomes: &mut [Option<Result<Response, ServeError>>],
        metrics: &mut [Option<FleetRequestMetrics>],
        events: &mut Vec<FleetEvent>,
    ) {
        let request_ids: Vec<u64> = grp.members.iter().map(|&i| chunk[i].id).collect();
        let mut attempts: Vec<FleetAttempt> = Vec::new();
        let mut tried: Vec<usize> = vec![grp.shard];
        let mut current = (grp.shard, grp.plan.clone(), grp.plan_hit, first);
        let max_device_attempts = 1 + self.cfg.max_failovers as usize;

        loop {
            let (shard, _plan, plan_hit, result) = current;
            self.shards[shard].stats.launches += 1;
            match result {
                Ok(ok) => {
                    self.shards[shard].breaker.record_success();
                    attempts.push(FleetAttempt {
                        shard: Some(shard),
                        outcome: FleetAttemptOutcome::Served,
                        modeled_seconds: ok.modeled_seconds,
                    });
                    self.charge(shard, close_s, ok.modeled_seconds, ok.transactions);
                    let completion_s = self.shards[shard].busy_until_s;
                    self.shards[shard].stats.requests += grp.members.len() as u64;
                    self.emit_group(
                        w0,
                        base,
                        close_s,
                        chunk,
                        &grp,
                        ok.batch_out,
                        Some(shard),
                        ok.modeled_seconds,
                        completion_s,
                        plan_hit,
                        attempts,
                        outcomes,
                        metrics,
                    );
                    return;
                }
                Err(fail) => {
                    let (outcome, modeled) = match fail {
                        AttemptFail::Launch(kind) => (FleetAttemptOutcome::LaunchFailed(kind), 0.0),
                        AttemptFail::Sdc {
                            max_abs,
                            modeled_seconds,
                        } => (
                            FleetAttemptOutcome::SdcDetected { max_abs },
                            modeled_seconds,
                        ),
                    };
                    // A detected-SDC launch still burned device time.
                    if modeled > 0.0 {
                        self.charge(shard, close_s, modeled, 0);
                    }
                    attempts.push(FleetAttempt {
                        shard: Some(shard),
                        outcome,
                        modeled_seconds: modeled,
                    });
                    self.shards[shard].stats.failures += 1;
                    if self.shards[shard].breaker.record_failure(close_s) {
                        self.shards[shard].stats.quarantines += 1;
                        events.push(FleetEvent::Quarantined {
                            t_s: close_s,
                            shard,
                            failures: self.shards[shard].breaker.consecutive_failures(),
                        });
                        self.rehome(shard, close_s, events);
                    }

                    // Pick the next shard: rendezvous order over healthy,
                    // untried shards.
                    let g = self.endpoints[grp.endpoint].geometry;
                    let next = if attempts.len() < max_device_attempts {
                        self.rank_shards(&g)
                            .into_iter()
                            .find(|s| !tried.contains(s))
                    } else {
                        None
                    };
                    events.push(FleetEvent::Failover {
                        t_s: close_s,
                        request_ids: request_ids.clone(),
                        from: shard,
                        to: next,
                        attempt: attempts.len() as u32,
                    });
                    match next {
                        Some(ns) => {
                            tried.push(ns);
                            let (plan, hit) = self.resolve_plan(ns, grp.endpoint);
                            let (batch, weights) = build_batch(&self.endpoints, &grp, chunk);
                            let result = run_attempt(
                                &mut self.sims[0],
                                &self.shards[ns].device,
                                self.cfg.launch_mode,
                                self.cfg.watchdog_budget,
                                self.shards[ns].faults,
                                mix(grp.seq, attempts.len() as u64 + 1),
                                &plan,
                                &batch,
                                weights,
                            )
                            .unwrap_or(Err(AttemptFail::Launch("plan-instantiate")));
                            current = (ns, plan, hit, result);
                        }
                        None => {
                            self.settle_host_group(
                                w0, base, close_s, chunk, grp, attempts, outcomes, metrics,
                            );
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Serve a group from the host CPU reference tier (cannot fail).
    #[allow(clippy::too_many_arguments)]
    fn settle_host_group(
        &mut self,
        w0: usize,
        base: usize,
        close_s: f64,
        chunk: &[FleetRequest],
        grp: FleetGroup,
        mut attempts: Vec<FleetAttempt>,
        outcomes: &mut [Option<Result<Response, ServeError>>],
        metrics: &mut [Option<FleetRequestMetrics>],
    ) {
        let (batch, weights) = build_batch(&self.endpoints, &grp, chunk);
        let out = conv_nchw_ref(&batch, weights);
        attempts.push(FleetAttempt {
            shard: None,
            outcome: FleetAttemptOutcome::HostServed,
            modeled_seconds: 0.0,
        });
        self.emit_group(
            w0, base, close_s, chunk, &grp, out, None, 0.0, close_s, false, attempts, outcomes,
            metrics,
        );
    }

    /// Split a served batch back into responses + per-request metrics.
    #[allow(clippy::too_many_arguments)]
    fn emit_group(
        &self,
        w0: usize,
        base: usize,
        close_s: f64,
        chunk: &[FleetRequest],
        grp: &FleetGroup,
        batch_out: Tensor4,
        shard: Option<usize>,
        execute_s: f64,
        completion_s: f64,
        plan_hit: bool,
        attempts: Vec<FleetAttempt>,
        outcomes: &mut [Option<Result<Response, ServeError>>],
        metrics: &mut [Option<FleetRequestMetrics>],
    ) {
        let per = batch_out.c() * batch_out.h() * batch_out.w();
        for (j, &i) in grp.members.iter().enumerate() {
            let req = &chunk[i];
            let output = Tensor4::from_vec(
                1,
                batch_out.c(),
                batch_out.h(),
                batch_out.w(),
                batch_out.as_slice()[j * per..(j + 1) * per].to_vec(),
            )
            .expect("slice length matches dims");
            outcomes[base + i] = Some(Ok(Response { id: req.id, output }));
            let deadline_abs = req.arrival_s + req.deadline_s;
            metrics[base + i] = Some(FleetRequestMetrics {
                id: req.id,
                endpoint: self.endpoints[req.endpoint].name.clone(),
                window: w0,
                arrival_s: req.arrival_s,
                queue_s: (close_s - req.arrival_s).max(0.0),
                execute_s,
                completion_s,
                shard,
                batched_with: grp.members.len(),
                cache_hit: plan_hit,
                priority: req.priority,
                deadline_s: deadline_abs,
                deadline_missed: req.deadline_s.is_finite() && completion_s > deadline_abs,
                attempts: attempts.clone(),
            });
        }
    }

    /// Charge modeled work to a shard's busy clock and rollup.
    fn charge(&mut self, s: usize, close_s: f64, modeled_seconds: f64, transactions: u64) {
        let shard = &mut self.shards[s];
        shard.busy_until_s = shard.busy_until_s.max(close_s) + modeled_seconds;
        shard.stats.modeled_seconds += modeled_seconds;
        shard.stats.transactions += transactions;
    }

    /// Copy a freshly-quarantined shard's cached endpoint plans to each
    /// geometry's fallback shard, when the fingerprints match (plans are
    /// device-specific; heterogeneous fallbacks re-plan instead).
    fn rehome(&mut self, from: usize, close_s: f64, events: &mut Vec<FleetEvent>) {
        let mut moved: Vec<(usize, usize)> = Vec::new(); // (to, count)
        for ei in 0..self.endpoints.len() {
            let g = self.endpoints[ei].geometry;
            let key = cache_key(&self.shards[from].device, &g);
            let Some(plan) = self.shards[from].cache.peek(&key).cloned() else {
                continue;
            };
            let Some(to) = self
                .rank_shards(&g)
                .into_iter()
                .find(|&s| self.shards[s].stats.fingerprint == self.shards[from].stats.fingerprint)
            else {
                continue;
            };
            if self.shards[to].cache.peek(&key).is_none() {
                self.shards[to].cache.insert(key, plan);
                match moved.iter_mut().find(|(t, _)| *t == to) {
                    Some((_, n)) => *n += 1,
                    None => moved.push((to, 1)),
                }
            }
        }
        for (to, plans) in moved {
            events.push(FleetEvent::Rehomed {
                t_s: close_s,
                from,
                to,
                plans,
            });
        }
    }

    /// Healthy shards in rendezvous (highest-random-weight) order for a
    /// geometry: stable affinity, deterministic fallback order.
    fn rank_shards(&self, g: &memconv::tensor::ConvGeometry) -> Vec<usize> {
        let gh = hash_str(&g.cache_key());
        let mut scored: Vec<(u64, usize)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.breaker.is_routable())
            .map(|(i, s)| (mix(gh, s.salt), i))
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// Resolve a plan on one shard's cache (hit, or instant heuristic
    /// miss fill — same policy as [`crate::ConvServer`]'s serving path).
    fn resolve_plan(&mut self, s: usize, endpoint: usize) -> (Plan, bool) {
        let g = self.endpoints[endpoint].geometry;
        let key = cache_key(&self.shards[s].device, &g);
        if let Some(plan) = self.shards[s].cache.get(&key) {
            return (plan, true);
        }
        let outcome = plan_nchw_heuristic(&self.shards[s].device, &g, self.cfg.trial_sample)
            .expect("validated geometry plans");
        self.shards[s].cache.insert(key, outcome.plan.clone());
        (outcome.plan, false)
    }

    fn next_group_seq(&mut self) -> u64 {
        self.group_seq += 1;
        self.group_seq
    }

    fn validate(&self, requests: &[FleetRequest]) -> Result<(), ServeError> {
        for (ei, ep) in self.endpoints.iter().enumerate() {
            let g = ep.geometry;
            if g.batch != 1 {
                return Err(ServeError::BadEndpoint {
                    endpoint: ei,
                    message: format!("geometry batch must be 1, got {}", g.batch),
                });
            }
            if g.pad_h != 0 || g.pad_w != 0 {
                return Err(ServeError::Unsupported {
                    endpoint: ei,
                    message: "fleet golden verification requires unpadded geometry".into(),
                });
            }
            if !g.has_unit_axes() {
                return Err(ServeError::Unsupported {
                    endpoint: ei,
                    message: format!(
                        "fleet golden verification requires unit stride, dilation and groups, \
                         got stride {}x{}, dilation {}x{}, groups {}",
                        g.stride_h, g.stride_w, g.dil_h, g.dil_w, g.groups
                    ),
                });
            }
            if g.in_h < g.f_h || g.in_w < g.f_w {
                return Err(ServeError::Unsupported {
                    endpoint: ei,
                    message: format!(
                        "input {}x{} is smaller than the {}x{} filter",
                        g.in_h, g.in_w, g.f_h, g.f_w
                    ),
                });
            }
            if ep.weights.num_filters() != g.out_channels
                || ep.weights.channels() != g.in_channels
                || ep.weights.fh() != g.f_h
                || ep.weights.fw() != g.f_w
            {
                return Err(ServeError::BadEndpoint {
                    endpoint: ei,
                    message: "weights do not match geometry".into(),
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
            if req.deadline_s.is_nan() || req.deadline_s < 0.0 {
                return Err(ServeError::BadRequest {
                    id: req.id,
                    message: format!("invalid deadline {:?}", req.deadline_s),
                });
            }
            if !req.arrival_s.is_finite() {
                return Err(ServeError::BadRequest {
                    id: req.id,
                    message: format!("invalid arrival time {:?}", req.arrival_s),
                });
            }
        }
        Ok(())
    }
}

/// Sentinel shard index for host-tier groups created at admission (all
/// shards quarantined). Never indexes `self.shards`.
const HOST_SHARD: usize = usize::MAX;

/// A placeholder plan for host-tier admission groups; never instantiated.
fn host_placeholder_plan() -> Plan {
    Plan {
        algo: "cpu-reference".into(),
        config: crate::planner::PlanConfig::Baseline,
        modeled_seconds: 0.0,
        provenance: crate::planner::Provenance::Heuristic,
    }
}

/// Build the batched input for one group.
fn build_batch<'a>(
    endpoints: &'a [Endpoint],
    grp: &FleetGroup,
    chunk: &[FleetRequest],
) -> (Tensor4, &'a memconv::tensor::FilterBank) {
    let ep = &endpoints[grp.endpoint];
    let g = ep.geometry;
    let k = grp.members.len();
    let mut data = Vec::with_capacity(k * g.in_channels * g.in_plane());
    for &i in &grp.members {
        data.extend_from_slice(chunk[i].input.as_slice());
    }
    let batch = Tensor4::from_vec(k, g.in_channels, g.in_h, g.in_w, data)
        .expect("validated request shapes");
    (batch, &ep.weights)
}

/// Run one device attempt on `sim`, a worker's kept simulator: chaos armed
/// with a private launch-seq nonce, golden verification against the CPU
/// reference.
///
/// `sim` is first [`GpuSim::reset`] and then given everything a fresh
/// simulator for this attempt would have: `device`, the launch mode, the
/// watchdog budget, the fault plan (`None` too, since `reset` keeps the
/// previous attempt's) and the launch sequence. What `reset` keeps — the
/// built L2, the on-chip state, the scratch pool — every launch renews,
/// so the attempt is a pure function of its arguments, whichever worker
/// runs it and whatever ran on `sim` before: safe to call from the
/// parallel phase.
///
/// A caught panic (a watchdog trip, an out-of-bounds access under chaos)
/// resets `sim` rather than rebuilding it: a launch that unwinds leaves
/// nothing that the next launch does not renew (the L2 and the block's
/// L1 and shared memory are renewed at launch and block start, and the
/// parallel engine builds fresh scratch for any the unwind dropped).
///
/// Outer `Err` = the plan failed to instantiate (registry bug —
/// effectively unreachable for heuristic plans); inner result = what the
/// attempt did.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    sim: &mut GpuSim,
    device: &DeviceConfig,
    mode: LaunchMode,
    watchdog_budget: u64,
    faults: Option<FaultPlan>,
    nonce: u64,
    plan: &Plan,
    batch: &Tensor4,
    weights: &memconv::tensor::FilterBank,
) -> Result<AttemptResult, ()> {
    let algo = instantiate_nchw(plan, SampleMode::Full).map_err(|_| ())?;
    sim.reset();
    sim.device = device.clone();
    sim.set_launch_mode(mode);
    sim.set_watchdog_budget(Some(watchdog_budget));
    sim.set_fault_plan(faults);
    if faults.is_some() {
        // Without chaos the sequence stays at the 0 `reset` left, as on a
        // fresh simulator.
        sim.set_launch_seq(nonce);
    }
    let launched = catch_unwind(AssertUnwindSafe(|| {
        let (out, rep) = algo.run(sim, batch, weights);
        (out, rep.modeled_time(device), rep.global_transactions())
    }));
    Ok(match launched {
        Err(payload) => {
            sim.reset();
            Err(AttemptFail::Launch(launch_error_kind(&classify_panic(
                payload,
            ))))
        }
        Ok((out, modeled_seconds, transactions)) => {
            let golden = conv_nchw_ref(batch, weights);
            let max_abs = out
                .as_slice()
                .iter()
                .zip(golden.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            if max_abs == 0.0 {
                Ok(AttemptOk {
                    batch_out: out,
                    modeled_seconds,
                    transactions,
                })
            } else {
                Err(AttemptFail::Sdc {
                    max_abs,
                    modeled_seconds,
                })
            }
        }
    })
}

/// Stable kind label for a [`LaunchError`] — engine-independent, unlike
/// the error's full Display (which carries instruction counts).
fn launch_error_kind(e: &LaunchError) -> &'static str {
    match e {
        LaunchError::InvalidConfig(_) => "invalid-config",
        LaunchError::OutOfBounds(_) => "out-of-bounds",
        LaunchError::Timeout { .. } => "timeout",
        LaunchError::BlockPanic(_) => "block-panic",
    }
}

/// splitmix64 finalizer (same constants as the fault module).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(a: u64, b: u64) -> u64 {
    splitmix(a ^ splitmix(b))
}

/// FNV-1a over the bytes, finalized with splitmix64.
fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix(h)
}

/// Routing-salt domain separator.
const ROUTE_NS: u64 = 0x5A17_0000;
/// Probe domain separator.
const PROBE_NS: u64 = 0x9206_0000;

#[cfg(test)]
mod tests {
    use super::*;
    use memconv::gpusim::FaultKind;
    use memconv::tensor::generate::TensorRng;
    use memconv::tensor::ConvGeometry;

    // -- circuit breaker: open → probation → close on the virtual clock --

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, 1.0);
        assert!(b.is_routable());
        assert!(!b.record_failure(0.1));
        assert!(!b.record_failure(0.2));
        assert!(b.is_routable(), "below threshold stays closed");
        assert!(b.record_failure(0.3), "third failure opens");
        assert_eq!(b.state(), BreakerState::Open { since_s: 0.3 });
        assert!(!b.is_routable());
        // Further failures while open do not re-open.
        assert!(!b.record_failure(0.4));
    }

    #[test]
    fn breaker_success_resets_the_streak() {
        let mut b = CircuitBreaker::new(2, 1.0);
        b.record_failure(0.1);
        b.record_success();
        assert!(!b.record_failure(0.2), "streak restarted");
        assert!(b.record_failure(0.3));
    }

    #[test]
    fn breaker_probation_on_virtual_clock_then_close() {
        let mut b = CircuitBreaker::new(1, 0.5);
        b.record_failure(1.0);
        assert!(!b.tick(1.2), "probation delay not yet elapsed");
        assert_eq!(b.state(), BreakerState::Open { since_s: 1.0 });
        assert!(b.tick(1.5), "delay elapsed exactly");
        assert_eq!(b.state(), BreakerState::Probation);
        assert!(!b.tick(2.0), "probation does not re-trigger");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.is_routable());
    }

    #[test]
    fn breaker_probation_failure_reopens() {
        let mut b = CircuitBreaker::new(2, 0.5);
        b.record_failure(0.0);
        b.record_failure(0.1);
        assert!(b.tick(0.7));
        assert!(b.record_failure(0.7), "probation failure re-opens");
        assert_eq!(b.state(), BreakerState::Open { since_s: 0.7 });
        // And a later probe can still pass.
        assert!(b.tick(1.3));
        b.record_success();
        assert!(b.is_routable());
    }

    // -- fleet behavior --

    fn tiny_endpoints() -> Vec<Endpoint> {
        let mut rng = TensorRng::new(0xF1E7);
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

    fn trace(endpoints: &[Endpoint], n: usize, seed: u64) -> Vec<FleetRequest> {
        let mut rng = TensorRng::new(seed);
        (0..n)
            .map(|i| {
                let e = i % endpoints.len();
                let g = endpoints[e].geometry;
                FleetRequest {
                    id: i as u64,
                    endpoint: e,
                    input: rng.tensor(1, g.in_channels, g.in_h, g.in_w),
                    arrival_s: i as f64 * 1e-4,
                    priority: match i % 3 {
                        0 => Priority::High,
                        1 => Priority::Normal,
                        _ => Priority::Batch,
                    },
                    deadline_s: f64::INFINITY,
                }
            })
            .collect()
    }

    fn fleet_cfg(devices: usize) -> FleetConfig {
        FleetConfig {
            devices: (0..devices).map(|_| DeviceConfig::test_tiny()).collect(),
            workers: 2,
            window: 4,
            trial_sample: SampleMode::Auto(64),
            ..FleetConfig::default()
        }
    }

    fn reference_for(endpoints: &[Endpoint], req: &FleetRequest) -> Vec<f32> {
        conv_nchw_ref(&req.input, &endpoints[req.endpoint].weights)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn fleet_outputs_match_reference_without_chaos() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 10, 11);
        let mut fleet = ConvFleet::new(eps.clone(), fleet_cfg(3));
        let (outs, rep) = fleet.run_trace(&reqs).unwrap();
        assert_eq!(outs.len(), 10);
        for (o, req) in outs.iter().zip(&reqs) {
            let r = o.as_ref().expect("no shedding with infinite deadlines");
            assert_eq!(r.id, req.id);
            assert_eq!(r.output.as_slice(), reference_for(&eps, req).as_slice());
        }
        assert_eq!(rep.served(), 10);
        assert_eq!(rep.shed(), 0);
        assert_eq!(rep.failovers(), 0);
        assert_eq!(rep.quarantines(), 0);
        assert!(
            rep.requests
                .iter()
                .all(|m| m.attempts.len() == 1
                    && m.attempts[0].outcome == FleetAttemptOutcome::Served)
        );
        // Both endpoints routed somewhere; stats add up.
        let total: u64 = rep.shards.iter().map(|s| s.requests).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn shard_percentiles_cover_every_tier_and_add_up() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 10, 11);
        let mut fleet = ConvFleet::new(eps, fleet_cfg(3));
        let (_, rep) = fleet.run_trace(&reqs).unwrap();
        let rolls = rep.shard_percentiles();
        // No chaos → no host tier; every device shard has a row even if
        // it served nothing.
        assert_eq!(rolls.len(), 3);
        for (s, r) in rolls.iter().enumerate() {
            assert_eq!(r.shard, Some(s));
            // Nearest-rank on sorted samples: quantiles are monotone.
            assert!(r.queue.p50 <= r.queue.p95 && r.queue.p95 <= r.queue.p99);
            assert!(r.total.p50 <= r.total.p95 && r.total.p95 <= r.total.p99);
            if r.served == 0 {
                assert_eq!(r.execute.p99, 0.0, "idle shard rolls up to zeros");
            } else {
                assert!(r.total.p50 >= r.queue.p50, "total includes queueing");
            }
        }
        let served: usize = rolls.iter().map(|r| r.served).sum();
        assert_eq!(served, rep.served());
    }

    #[test]
    fn non_unit_axes_endpoints_are_rejected() {
        // Regression: validation rejected padding but not stride, dilation
        // or groups, while the attempt path (`run`, `conv_nchw_ref`) ignores
        // those axes, so a stride-2 endpoint declared with a 6x6 output was
        // served an 11x11 tensor.
        let mut rng = TensorRng::new(0x57D2);
        let base = ConvGeometry::nchw(1, 2, 12, 12, 2, 2, 2);
        for g in [
            base.with_stride(2, 2),
            base.with_dilation(2, 1),
            base.with_groups(2),
        ] {
            let eps = vec![Endpoint {
                name: "strided".into(),
                geometry: g,
                weights: rng.filter_bank(2, 2 / g.groups, 2, 2),
            }];
            let reqs = trace(&eps, 2, 5);
            let mut fleet = ConvFleet::new(eps, fleet_cfg(2));
            assert!(
                matches!(
                    fleet.run_trace(&reqs),
                    Err(ServeError::Unsupported { endpoint: 0, .. })
                ),
                "{g:?} must be rejected"
            );
        }
    }

    #[test]
    fn routing_has_stable_geometry_affinity() {
        let eps = tiny_endpoints();
        let fleet = ConvFleet::new(eps.clone(), fleet_cfg(4));
        let g0 = eps[0].geometry;
        let r1 = fleet.rank_shards(&g0);
        let r2 = fleet.rank_shards(&g0);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 4);
        // A bigger fleet ranks the original shards in a consistent
        // relative order for the same geometry (HRW property: adding a
        // shard never swaps two existing shards).
        let big = ConvFleet::new(eps.clone(), fleet_cfg(6));
        let rb = big.rank_shards(&g0);
        let pos = |v: &[usize], x: usize| v.iter().position(|&y| y == x).unwrap();
        for w in r1.windows(2) {
            assert!(
                pos(&rb, w[0]) < pos(&rb, w[1]),
                "relative order changed when shards were added"
            );
        }
    }

    #[test]
    fn chaos_outputs_are_bit_identical_to_chaos_off() {
        // The golden gate: whatever chaos does — failovers, retries,
        // host fallback — served outputs are exactly the chaos-off ones.
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 12, 5);
        let mut clean = ConvFleet::new(eps.clone(), fleet_cfg(3));
        let (clean_outs, _) = clean.run_trace(&reqs).unwrap();

        let mut chaos_template = FaultPlan::new(0);
        for kind in FaultKind::ALL {
            chaos_template = chaos_template.with_rate(kind, kind.default_rate());
        }
        let mut cfg = fleet_cfg(3);
        cfg.chaos = Some(chaos_template);
        let mut chaotic = ConvFleet::new(eps.clone(), cfg);
        let (chaos_outs, rep) = chaotic.run_trace(&reqs).unwrap();
        assert!(
            rep.requests
                .iter()
                .any(|m| m.attempts.len() > 1 || m.shard.is_none())
                || rep.events.iter().any(|e| e.kind() == "failover"),
            "default chaos rates should disturb at least one launch"
        );
        for (a, b) in clean_outs.iter().zip(&chaos_outs) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.id, b.id);
            assert_eq!(a.output.as_slice(), b.output.as_slice());
        }
    }

    #[test]
    fn heavy_chaos_quarantines_and_host_serves() {
        // Rate-1 hangs: every device attempt times out, every probe
        // fails. All shards quarantine; the host tier serves everything;
        // nothing is ever wrong.
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 16, 9);
        let mut cfg = fleet_cfg(2);
        cfg.chaos = Some(FaultPlan::new(0).with_rate(FaultKind::Hang, 1));
        cfg.breaker_threshold = 2;
        cfg.probation_delay_s = 1e-4; // probes fire within the trace
        let mut fleet = ConvFleet::new(eps.clone(), cfg);
        let (outs, rep) = fleet.run_trace(&reqs).unwrap();
        // Both shards quarantine (possibly more than once, when a tiny
        // probe finishes under its hang trigger point and restores a
        // shard that then fails again).
        assert!(rep.quarantines() >= 2, "both shards should quarantine");
        for s in 0..2 {
            assert!(
                rep.events
                    .iter()
                    .any(|e| matches!(e, FleetEvent::Quarantined { shard, .. } if *shard == s)),
                "shard {s} never quarantined"
            );
        }
        assert!(rep.host_served() > 0);
        assert!(rep.failovers() > 0);
        for (o, req) in outs.iter().zip(&reqs) {
            let r = o.as_ref().unwrap();
            assert_eq!(r.output.as_slice(), reference_for(&eps, req).as_slice());
        }
        // Rate-1 hangs: every device-attempt failure is a timeout (real
        // group launches always reach the trigger point).
        for m in &rep.requests {
            for a in &m.attempts {
                if let FleetAttemptOutcome::LaunchFailed(kind) = a.outcome {
                    assert_eq!(kind, "timeout");
                }
            }
        }
        assert!(rep
            .requests
            .iter()
            .any(|m| m.attempts.last().unwrap().outcome == FleetAttemptOutcome::HostServed));
        // Probes ran on the virtual clock.
        assert!(rep
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::Probe { .. })));
    }

    #[test]
    fn quarantined_shard_is_restored_by_passing_probe() {
        // Mid-rate hangs: large launches nearly always hit a hang in
        // some block, the single-block probe often survives. Scan a few
        // fleet seeds (deterministically) and require that at least one
        // exhibits the full quarantine → probe pass → restore cycle.
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 24, 13);
        let mut restored = false;
        for seed in 0..8 {
            let mut cfg = fleet_cfg(2);
            cfg.fleet_seed = seed;
            cfg.chaos = Some(FaultPlan::new(0).with_rate(FaultKind::Hang, 3));
            cfg.breaker_threshold = 1;
            cfg.probation_delay_s = 1e-4;
            let mut fleet = ConvFleet::new(eps.clone(), cfg);
            let (outs, rep) = fleet.run_trace(&reqs).unwrap();
            for (o, req) in outs.iter().zip(&reqs) {
                let r = o.as_ref().unwrap();
                assert_eq!(r.output.as_slice(), reference_for(&eps, req).as_slice());
            }
            if rep
                .events
                .iter()
                .any(|e| matches!(e, FleetEvent::Restored { .. }))
            {
                restored = true;
                break;
            }
        }
        assert!(restored, "no seed in 0..8 produced a restore cycle");
    }

    #[test]
    fn rehoming_copies_plans_to_same_fingerprint_fallback() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 8, 3);
        // Warm caches chaos-free first, then hit one shard with chaos by
        // running a chaotic fleet from scratch: rehome events appear when
        // a warmed shard quarantines.
        let mut cfg = fleet_cfg(2);
        cfg.chaos = Some(FaultPlan::new(0).with_rate(FaultKind::Hang, 1));
        cfg.breaker_threshold = 1;
        let mut fleet = ConvFleet::new(eps.clone(), cfg);
        let (_, rep) = fleet.run_trace(&reqs).unwrap();
        // First failure quarantines the shard that had just cached its
        // plan; the peer shares the fingerprint, so the plan moves.
        let rehomes: Vec<_> = rep
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Rehomed { .. }))
            .collect();
        assert!(
            !rehomes.is_empty(),
            "expected at least one rehome event: {:?}",
            rep.events
        );
    }

    #[test]
    fn admission_sheds_past_deadline_requests_with_typed_error() {
        let eps = tiny_endpoints();
        // All requests arrive at once with an impossible deadline for
        // all but High priority.
        let mut reqs = trace(&eps, 6, 7);
        for r in reqs.iter_mut() {
            r.arrival_s = 0.0;
            r.deadline_s = 0.0;
        }
        let mut fleet = ConvFleet::new(eps.clone(), fleet_cfg(2));
        let (outs, rep) = fleet.run_trace(&reqs).unwrap();
        for (o, req) in outs.iter().zip(&reqs) {
            match req.priority {
                Priority::High => {
                    assert!(o.is_ok(), "High is never shed");
                }
                _ => {
                    let err = o.as_ref().unwrap_err();
                    assert!(
                        matches!(err, ServeError::Shed { .. }),
                        "expected Shed, got {err}"
                    );
                }
            }
        }
        assert_eq!(rep.shed(), 4);
        assert_eq!(rep.served(), 2);
        assert!(rep
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::Shed { .. })));
        // Report metrics only cover served requests.
        assert_eq!(rep.requests.len(), 2);
    }

    #[test]
    fn generous_deadlines_are_met() {
        let eps = tiny_endpoints();
        let mut reqs = trace(&eps, 8, 19);
        for r in reqs.iter_mut() {
            r.deadline_s = 10.0;
        }
        let mut fleet = ConvFleet::new(eps.clone(), fleet_cfg(2));
        let (outs, rep) = fleet.run_trace(&reqs).unwrap();
        assert!(outs.iter().all(|o| o.is_ok()));
        assert_eq!(rep.deadline_miss_rate(), 0.0);
        assert!(rep.requests.iter().all(|m| !m.deadline_missed));
    }

    #[test]
    fn fleet_replay_is_deterministic_across_engines_and_workers() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 12, 23);
        let run = |mode: LaunchMode, workers: usize| {
            let mut cfg = fleet_cfg(3);
            cfg.launch_mode = mode;
            cfg.workers = workers;
            cfg.chaos = Some(FaultPlan::new(0).with_rate(FaultKind::GlobalBitFlip, 24));
            let mut fleet = ConvFleet::new(eps.clone(), cfg);
            let (outs, rep) = fleet.run_trace(&reqs).unwrap();
            let outputs: Vec<Vec<f32>> = outs
                .iter()
                .map(|o| o.as_ref().unwrap().output.as_slice().to_vec())
                .collect();
            (outputs, rep)
        };
        let (base_out, base_rep) = run(LaunchMode::Sequential, 1);
        for (mode, workers) in [
            (LaunchMode::Sequential, 4),
            (LaunchMode::Parallel, 1),
            (LaunchMode::Parallel, 4),
        ] {
            let (out, rep) = run(mode, workers);
            assert_eq!(out, base_out, "outputs differ under {mode:?}/{workers}");
            assert_eq!(
                rep.events, base_rep.events,
                "event log differs under {mode:?}/{workers}"
            );
            assert_eq!(rep.requests, base_rep.requests);
            assert_eq!(rep.shards, base_rep.shards);
        }
    }

    /// An attempt's observable result: output bits, modeled seconds and
    /// transactions, or the failure's kind.
    fn attempt_summary(r: AttemptResult) -> Result<(Vec<u32>, u64, u64), String> {
        match r {
            Ok(ok) => Ok((
                ok.batch_out
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
                ok.modeled_seconds.to_bits(),
                ok.transactions,
            )),
            Err(AttemptFail::Launch(kind)) => Err(kind.into()),
            Err(AttemptFail::Sdc { max_abs, .. }) => Err(format!("sdc {max_abs}")),
        }
    }

    /// A worker's kept simulator, after attempts that panicked (a watchdog
    /// trip under hang chaos, one under a tiny budget) or were corrupted by
    /// chaos, runs a clean attempt exactly as a new simulator does: `reset`
    /// plus the per-attempt settings leave nothing of the earlier attempts,
    /// the fault plan included.
    #[test]
    fn kept_simulator_after_a_caught_panic_matches_a_new_one() {
        let eps = tiny_endpoints();
        let dev = DeviceConfig::test_tiny();
        let budget = FleetConfig::default().watchdog_budget;
        let batch = TensorRng::new(5).tensor(2, 2, 12, 12);
        let g = ConvGeometry::nchw(2, 2, 12, 12, 3, 3, 3);
        let plan = plan_nchw_heuristic(&dev, &g, SampleMode::Auto(64))
            .unwrap()
            .plan;
        let attempt = |sim: &mut GpuSim, budget: u64, faults: Option<FaultPlan>| {
            let r = run_attempt(
                sim,
                &dev,
                LaunchMode::Sequential,
                budget,
                faults,
                7,
                &plan,
                &batch,
                &eps[0].weights,
            );
            attempt_summary(r.expect("heuristic plans instantiate"))
        };
        let want = attempt(&mut GpuSim::new(dev.clone()), budget, None);
        assert!(want.is_ok(), "{want:?}");

        let mut kept = GpuSim::new(DeviceConfig::rtx2080ti());
        let hang = FaultPlan::new(3).with_rate(FaultKind::Hang, 1);
        assert_eq!(
            attempt(&mut kept, budget, Some(hang)),
            Err("timeout".into())
        );
        assert_eq!(attempt(&mut kept, budget, None), want, "after hang chaos");
        assert_eq!(attempt(&mut kept, 50, None), Err("timeout".into()));
        assert_eq!(attempt(&mut kept, budget, None), want, "after a trip");
        let flips = FaultPlan::new(3).with_rate(FaultKind::GlobalBitFlip, 1);
        assert!(attempt(&mut kept, budget, Some(flips)).is_err());
        assert_eq!(attempt(&mut kept, budget, None), want, "after flips");
    }

    /// Under chaos (every fault class at its default rate, hangs and
    /// their caught watchdog trips included), a replay over many windows
    /// is bit-identical at 1, 2 and 4 workers, whichever worker's kept
    /// simulator runs each attempt.
    #[test]
    fn chaos_replay_is_identical_at_1_2_and_4_workers() {
        let eps = tiny_endpoints();
        let reqs = trace(&eps, 32, 41);
        let run = |workers: usize| {
            let mut chaos = FaultPlan::new(0);
            for kind in FaultKind::ALL {
                chaos = chaos.with_rate(kind, kind.default_rate());
            }
            let mut cfg = fleet_cfg(3);
            cfg.workers = workers;
            cfg.chaos = Some(chaos);
            let mut fleet = ConvFleet::new(eps.clone(), cfg);
            let (outs, rep) = fleet.run_trace(&reqs).unwrap();
            let outputs: Vec<Vec<u32>> = outs
                .iter()
                .map(|o| {
                    let o = o.as_ref().unwrap().output.as_slice();
                    o.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            (outputs, rep)
        };
        let (base_out, base_rep) = run(1);
        assert!(
            base_rep.failovers() > 0,
            "default chaos rates should fail some attempts"
        );
        for workers in [2, 4] {
            let (out, rep) = run(workers);
            assert_eq!(out, base_out, "outputs differ at {workers} workers");
            assert_eq!(rep.events, base_rep.events, "{workers} workers");
            assert_eq!(rep.requests, base_rep.requests, "{workers} workers");
            assert_eq!(rep.shards, base_rep.shards, "{workers} workers");
        }
    }

    #[test]
    fn fleet_validates_like_the_server() {
        let eps = tiny_endpoints();
        let mut fleet = ConvFleet::new(eps.clone(), fleet_cfg(2));
        let mut rng = TensorRng::new(1);
        let bad = FleetRequest {
            id: 3,
            endpoint: 9,
            input: rng.tensor(1, 2, 12, 12),
            arrival_s: 0.0,
            priority: Priority::Normal,
            deadline_s: f64::INFINITY,
        };
        assert!(matches!(
            fleet.run_trace(&[bad]),
            Err(ServeError::UnknownEndpoint { id: 3, endpoint: 9 })
        ));
        let nan_deadline = FleetRequest {
            id: 4,
            endpoint: 0,
            input: rng.tensor(1, 2, 12, 12),
            arrival_s: 0.0,
            priority: Priority::Normal,
            deadline_s: f64::NAN,
        };
        assert!(matches!(
            fleet.run_trace(&[nan_deadline]),
            Err(ServeError::BadRequest { id: 4, .. })
        ));
    }
}
