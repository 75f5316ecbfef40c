//! Cross-algorithm planning: `memconv_core::tune` generalized from the
//! fused kernel's two knobs to the whole serving registry.
//!
//! Plans are picked by two complementary paths, distinguished by
//! [`Provenance`]:
//!
//! * **Trial execution** ([`plan_nchw`]): each candidate runs once on
//!   seeded synthetic data with aggressive block sampling
//!   ([`SampleMode::Auto`]), and the candidate with the lowest modeled
//!   time wins — the same find-by-running approach as
//!   `cudnnFindConvolutionForwardAlgorithm`, against the simulator's
//!   timing model instead of wall clock, so planning is deterministic.
//! * **Oracle heuristic** ([`plan_nchw_heuristic`]): each candidate is
//!   scored by the symbolic transaction oracle (`memconv::oracle`) — a
//!   *phantom* run over shape-matched zero tensors whose transaction
//!   counters feed the same device roofline. No trial data is generated
//!   and no cache/DRAM hierarchy is simulated, so the pick is *instant*
//!   on the serving clock (`planning_seconds == 0`). The scheduler
//!   answers cold cache misses from this path and upgrades entries to
//!   trialed plans by background refinement.
//!
//! The candidate registry is deliberately restricted to **per-image
//! batch-equivariant** algorithms (each output image depends only on its
//! own input image, computed in a batch-independent accumulation order):
//! the scheduler batches same-geometry requests into one launch and
//! promises bit-identical output to per-request dispatch, which only holds
//! for equivariant kernels. FFT- and Winograd-family baselines are
//! excluded for that reason.

use memconv::baselines::{As2d, DirectConv, Im2colGemm, TiledConv};
use memconv::core::tune::{ROWS_CANDIDATES, WARP_CANDIDATES};
use memconv::core::{Conv2dAlgorithm, ConvNchwAlgorithm, Ours, OursConfig};
use memconv::gpusim::{DeviceConfig, GpuSim, LaunchMode, SampleMode};
use memconv::oracle::{score_nchw, PredictError};
use memconv::tensor::generate::TensorRng;
use memconv::tensor::{ConvGeometry, ShapeError};
use std::fmt;

/// How a [`Plan`] was picked — the evidence class behind its
/// `modeled_seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Instant pick: candidates scored by the symbolic transaction oracle
    /// (phantom execution, zero planning cost on the serving clock).
    Heuristic,
    /// Sampled trial execution over seeded synthetic data — the
    /// authoritative sweep, paid once and persisted.
    Trialed,
}

impl Provenance {
    /// Stable lowercase identifier (persistence format, span tags).
    pub fn as_str(self) -> &'static str {
        match self {
            Provenance::Heuristic => "heuristic",
            Provenance::Trialed => "trialed",
        }
    }

    /// Inverse of [`Provenance::as_str`].
    pub fn parse(s: &str) -> Option<Provenance> {
        match s {
            "heuristic" => Some(Provenance::Heuristic),
            "trialed" => Some(Provenance::Trialed),
            _ => None,
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Algorithm-specific configuration carried by a [`Plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanConfig {
    /// The fused kernel with explicit tiling knobs (sampling is *not*
    /// persisted: serving always runs `SampleMode::Full`).
    Ours {
        /// Shuffle-based column reuse (paper §II-A).
        column_reuse: bool,
        /// Row-reuse tile height (paper §II-B).
        rows_per_thread: usize,
        /// Warps per block.
        block_warps: usize,
    },
    /// A configuration-free baseline, identified by the plan's algo name.
    Baseline,
}

/// The outcome of planning one geometry on one device: what to run and
/// what the model predicts it costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Stable algorithm identifier (see [`instantiate_nchw`]).
    pub algo: String,
    /// Algorithm configuration.
    pub config: PlanConfig,
    /// Modeled seconds of the winning trial run (sampled, at the planned
    /// geometry's batch size) — or, for heuristic plans, the oracle's
    /// roofline score over predicted transaction counters.
    pub modeled_seconds: f64,
    /// How the plan was picked (trial sweep vs oracle heuristic).
    pub provenance: Provenance,
}

/// A [`Plan`] plus the evidence it was picked on.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The winning plan.
    pub plan: Plan,
    /// Every `(candidate name, modeled seconds)` evaluated, in trial order.
    pub trials: Vec<(String, f64)>,
    /// Total modeled cost of the trial runs — what planning "costs" in the
    /// virtual clock, charged to the request that missed the cache.
    pub planning_seconds: f64,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The geometry itself is inconsistent.
    BadGeometry(ShapeError),
    /// No registered candidate supports the geometry.
    NoCandidate(String),
    /// A persisted plan names an algorithm this build does not know
    /// (stale cache from a different version).
    UnknownAlgorithm(String),
    /// [`plan_2d`] was asked for a batched / multi-channel geometry.
    NotSingleChannel {
        /// The offending geometry's cache key.
        geometry: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadGeometry(e) => write!(f, "bad geometry: {e}"),
            PlanError::NoCandidate(key) => write!(f, "no candidate supports geometry {key}"),
            PlanError::UnknownAlgorithm(name) => write!(f, "unknown planned algorithm `{name}`"),
            PlanError::NotSingleChannel { geometry } => {
                write!(f, "2D planning requires N=IC=FN=1, got {geometry}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic trial-data seed for a geometry: hash of its cache key, so
/// two planners given the same geometry trial on identical data.
fn trial_seed(g: &ConvGeometry) -> u64 {
    let mut h = 0x5E17E_u64;
    for b in g.cache_key().bytes() {
        h = splitmix64(h ^ b as u64);
    }
    h
}

/// The NCHW serving registry: every candidate is per-image
/// batch-equivariant (see the module docs). Order matters — it is the
/// deterministic tie-break.
fn nchw_candidates(sample: SampleMode) -> Vec<(Plan, Box<dyn ConvNchwAlgorithm>)> {
    let mut cands: Vec<(Plan, Box<dyn ConvNchwAlgorithm>)> = Vec::new();
    for &rows in ROWS_CANDIDATES {
        for &warps in WARP_CANDIDATES {
            let cfg = OursConfig {
                column_reuse: true,
                rows_per_thread: rows,
                block_warps: warps,
                sample,
            };
            cands.push((
                Plan {
                    algo: "ours-fused".into(),
                    config: PlanConfig::Ours {
                        column_reuse: true,
                        rows_per_thread: rows,
                        block_warps: warps,
                    },
                    modeled_seconds: 0.0,
                    provenance: Provenance::Trialed,
                },
                Box::new(Ours::with_config(cfg)),
            ));
        }
    }
    for (name, algo) in baseline_nchw(sample) {
        cands.push((
            Plan {
                algo: name.into(),
                config: PlanConfig::Baseline,
                modeled_seconds: 0.0,
                provenance: Provenance::Trialed,
            },
            algo,
        ));
    }
    cands
}

/// The configuration-free baseline candidates, by stable name.
fn baseline_nchw(sample: SampleMode) -> Vec<(&'static str, Box<dyn ConvNchwAlgorithm>)> {
    vec![
        ("tiled", Box::new(TiledConv::new().with_sample(sample))),
        ("direct", Box::new(DirectConv::new().with_sample(sample))),
        (
            "gemm-im2col",
            Box::new(Im2colGemm::caffe().with_sample(sample)),
        ),
    ]
}

/// Candidate display name for the trial log.
fn candidate_label(plan: &Plan) -> String {
    match &plan.config {
        PlanConfig::Ours {
            rows_per_thread,
            block_warps,
            ..
        } => format!("{}[T{rows_per_thread}W{block_warps}]", plan.algo),
        PlanConfig::Baseline => plan.algo.clone(),
    }
}

/// Plan one NCHW geometry on one device by sampled trial execution.
///
/// `trial_sample` bounds the per-trial simulation cost (harnesses use
/// [`SampleMode::Auto`]`(256)`); the returned plan itself carries no
/// sampling — execution instantiates it with [`SampleMode::Full`].
///
/// # Errors
///
/// [`PlanError::BadGeometry`] for inconsistent geometries and
/// [`PlanError::NoCandidate`] when nothing in the registry supports the
/// shape (cannot happen with the current registry — `ours-fused`, `tiled`,
/// `direct` and `gemm-im2col` are shape-universal).
pub fn plan_nchw(
    device: &DeviceConfig,
    g: &ConvGeometry,
    trial_sample: SampleMode,
) -> Result<PlanOutcome, PlanError> {
    let g = g.validate().map_err(PlanError::BadGeometry)?;
    let mut rng = TensorRng::new(trial_seed(&g));
    let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);

    let mut trials = Vec::new();
    let mut planning_seconds = 0.0;
    let mut best: Option<Plan> = None;
    for (mut plan, algo) in nchw_candidates(trial_sample) {
        if !algo.supports_shape(&g) {
            continue;
        }
        let mut sim = GpuSim::new(device.clone());
        let (_, rep) = algo.run_geo(&mut sim, &input, &bank, &g);
        let t = rep.modeled_time(device);
        trials.push((candidate_label(&plan), t));
        planning_seconds += t;
        if best.as_ref().is_none_or(|b| t < b.modeled_seconds) {
            plan.modeled_seconds = t;
            best = Some(plan);
        }
    }
    match best {
        Some(plan) => Ok(PlanOutcome {
            plan,
            trials,
            planning_seconds,
        }),
        None => Err(PlanError::NoCandidate(g.cache_key())),
    }
}

/// Plan one NCHW geometry *instantly* with the symbolic transaction
/// oracle: every candidate is scored by a phantom run over shape-matched
/// zero tensors ([`memconv::oracle::score_nchw`]) — no trial data, no
/// cache/DRAM simulation — and the lowest roofline score over the
/// predicted transaction counters wins.
///
/// Because no trial executes, `planning_seconds` is **zero**: on the
/// serving clock the pick is free, which is the point — the scheduler
/// answers a cold cache miss from this path immediately and schedules the
/// sampled trial sweep ([`plan_nchw`]) as background refinement. The
/// returned plan carries [`Provenance::Heuristic`]; its trial log holds
/// each candidate's oracle score.
///
/// `sample` bounds the *host* cost of the phantom runs exactly as it
/// bounds trial cost in [`plan_nchw`] (phantom launches sample and
/// extrapolate deterministically like real ones); it never affects the
/// serving clock.
///
/// # Errors
///
/// Same surface as [`plan_nchw`].
pub fn plan_nchw_heuristic(
    device: &DeviceConfig,
    g: &ConvGeometry,
    sample: SampleMode,
) -> Result<PlanOutcome, PlanError> {
    let g = g.validate().map_err(PlanError::BadGeometry)?;
    let mut trials = Vec::new();
    let mut best: Option<Plan> = None;
    for (mut plan, algo) in nchw_candidates(sample) {
        if !algo.supports_shape(&g) {
            continue;
        }
        // The counters are engine-independent (proptest-pinned in the
        // oracle crate), so the scoring engine is fixed to Sequential.
        let rep = match score_nchw(algo.as_ref(), device, &g, LaunchMode::Sequential) {
            Ok(rep) => rep,
            Err(PredictError::BadGeometry(e)) => return Err(PlanError::BadGeometry(e)),
            Err(PredictError::Unsupported { .. }) => continue,
        };
        let t = rep.modeled_time(device);
        trials.push((candidate_label(&plan), t));
        if best.as_ref().is_none_or(|b| t < b.modeled_seconds) {
            plan.modeled_seconds = t;
            plan.provenance = Provenance::Heuristic;
            best = Some(plan);
        }
    }
    match best {
        Some(plan) => Ok(PlanOutcome {
            plan,
            trials,
            planning_seconds: 0.0,
        }),
        None => Err(PlanError::NoCandidate(g.cache_key())),
    }
}

/// Plan a single-image 2D geometry (the paper's Fig. 3 setting) over the
/// [`Conv2dAlgorithm`] registry: the fused kernel's tiling grid plus the
/// `As2d`-lifted baselines.
///
/// # Errors
///
/// [`PlanError::NotSingleChannel`] for batched or multi-channel geometries
/// — the typed refusal that replaced `autotune_2d`'s panic; serving paths
/// route those to [`plan_nchw`].
pub fn plan_2d(
    device: &DeviceConfig,
    g: &ConvGeometry,
    trial_sample: SampleMode,
) -> Result<PlanOutcome, PlanError> {
    let g = g.validate().map_err(PlanError::BadGeometry)?;
    if g.batch != 1 || g.in_channels != 1 || g.out_channels != 1 {
        return Err(PlanError::NotSingleChannel {
            geometry: g.cache_key(),
        });
    }
    let mut rng = TensorRng::new(trial_seed(&g));
    let img = rng.image(g.in_h, g.in_w);
    let filt = rng.filter(g.f_h, g.f_w);

    let mut candidates: Vec<(Plan, Box<dyn Conv2dAlgorithm>)> = Vec::new();
    for (plan, _) in nchw_candidates(trial_sample) {
        if let PlanConfig::Ours {
            column_reuse,
            rows_per_thread,
            block_warps,
        } = plan.config
        {
            let cfg = OursConfig {
                column_reuse,
                rows_per_thread,
                block_warps,
                sample: trial_sample,
            };
            candidates.push((plan, Box::new(Ours::with_config(cfg))));
        }
    }
    for (name, _) in baseline_nchw(trial_sample) {
        let plan = Plan {
            algo: name.into(),
            config: PlanConfig::Baseline,
            modeled_seconds: 0.0,
            provenance: Provenance::Trialed,
        };
        let algo: Box<dyn Conv2dAlgorithm> = match name {
            "tiled" => Box::new(As2d(TiledConv::new().with_sample(trial_sample))),
            "direct" => Box::new(As2d(DirectConv::new().with_sample(trial_sample))),
            _ => Box::new(As2d(Im2colGemm::caffe().with_sample(trial_sample))),
        };
        candidates.push((plan, algo));
    }

    let mut trials = Vec::new();
    let mut planning_seconds = 0.0;
    let mut best: Option<Plan> = None;
    for (mut plan, algo) in candidates {
        if !algo.supports(g.f_h, g.f_w) {
            continue;
        }
        let mut sim = GpuSim::new(device.clone());
        let (_, rep) = algo.run(&mut sim, &img, &filt);
        let t = rep.modeled_time(device);
        trials.push((candidate_label(&plan), t));
        planning_seconds += t;
        if best.as_ref().is_none_or(|b| t < b.modeled_seconds) {
            plan.modeled_seconds = t;
            best = Some(plan);
        }
    }
    match best {
        Some(plan) => Ok(PlanOutcome {
            plan,
            trials,
            planning_seconds,
        }),
        None => Err(PlanError::NoCandidate(g.cache_key())),
    }
}

/// Build the runnable NCHW algorithm a plan names, with the given sampling
/// mode (serving passes [`SampleMode::Full`] — sampled launches are
/// functionally incomplete).
///
/// # Errors
///
/// [`PlanError::UnknownAlgorithm`] when the plan (typically loaded from a
/// persisted cache) names an algorithm this build does not register.
pub fn instantiate_nchw(
    plan: &Plan,
    sample: SampleMode,
) -> Result<Box<dyn ConvNchwAlgorithm>, PlanError> {
    match (&plan.algo[..], &plan.config) {
        (
            "ours-fused",
            PlanConfig::Ours {
                column_reuse,
                rows_per_thread,
                block_warps,
            },
        ) => Ok(Box::new(Ours::with_config(OursConfig {
            column_reuse: *column_reuse,
            rows_per_thread: *rows_per_thread,
            block_warps: *block_warps,
            sample,
        }))),
        ("tiled", PlanConfig::Baseline) => Ok(Box::new(TiledConv::new().with_sample(sample))),
        ("direct", PlanConfig::Baseline) => Ok(Box::new(DirectConv::new().with_sample(sample))),
        ("gemm-im2col", PlanConfig::Baseline) => {
            Ok(Box::new(Im2colGemm::caffe().with_sample(sample)))
        }
        _ => Err(PlanError::UnknownAlgorithm(plan.algo.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    #[test]
    fn nchw_planner_covers_the_registry_and_picks_the_minimum() {
        let g = ConvGeometry::nchw(1, 2, 16, 16, 4, 3, 3);
        let out = plan_nchw(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        // full ours grid + 3 baselines
        assert_eq!(
            out.trials.len(),
            ROWS_CANDIDATES.len() * WARP_CANDIDATES.len() + 3
        );
        let min = out
            .trials
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.plan.modeled_seconds, min);
        assert!(out.planning_seconds >= min);
        assert!(instantiate_nchw(&out.plan, SampleMode::Full).is_ok());
    }

    #[test]
    fn heuristic_planner_is_instant_deterministic_and_tagged() {
        let g = ConvGeometry::nchw(1, 2, 16, 16, 4, 3, 3);
        let a = plan_nchw_heuristic(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        let b = plan_nchw_heuristic(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        assert_eq!(
            a.plan, b.plan,
            "heuristic picks must replay bit-identically"
        );
        assert_eq!(a.trials, b.trials);
        // Instant on the serving clock: the oracle never runs trial data.
        assert_eq!(a.planning_seconds, 0.0);
        assert_eq!(a.plan.provenance, Provenance::Heuristic);
        // The oracle scores the whole registry, like the trial sweep.
        assert_eq!(
            a.trials.len(),
            ROWS_CANDIDATES.len() * WARP_CANDIDATES.len() + 3
        );
        assert!(a.plan.modeled_seconds > 0.0);
        assert!(instantiate_nchw(&a.plan, SampleMode::Full).is_ok());
        // The trial sweep tags its plans with the other provenance.
        let t = plan_nchw(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        assert_eq!(t.plan.provenance, Provenance::Trialed);
    }

    #[test]
    fn planning_is_deterministic() {
        let g = ConvGeometry::nchw(1, 1, 20, 20, 2, 5, 5);
        let a = plan_nchw(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        let b = plan_nchw(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    fn plan_2d_rejects_multichannel_with_typed_error() {
        let g = ConvGeometry::nchw(2, 3, 16, 16, 4, 3, 3);
        let err = plan_2d(&tiny(), &g, SampleMode::Auto(64)).unwrap_err();
        assert!(matches!(err, PlanError::NotSingleChannel { .. }));
        // ...and plan_nchw takes exactly that geometry.
        assert!(plan_nchw(&tiny(), &g, SampleMode::Auto(64)).is_ok());
    }

    #[test]
    fn plan_2d_explores_fused_grid_and_lifted_baselines() {
        let g = ConvGeometry::single(32, 32, 3);
        let out = plan_2d(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        assert_eq!(
            out.trials.len(),
            ROWS_CANDIDATES.len() * WARP_CANDIDATES.len() + 3
        );
    }

    #[test]
    fn depthwise_geometry_sweeps_the_ours_grid_and_gemm() {
        let g = ConvGeometry::nchw(1, 6, 14, 14, 6, 3, 3).with_groups(6);
        for out in [
            plan_nchw(&tiny(), &g, SampleMode::Auto(64)).unwrap(),
            plan_nchw_heuristic(&tiny(), &g, SampleMode::Auto(64)).unwrap(),
        ] {
            // full ours grid + gemm-im2col (tiled and direct are
            // unit-axes-only and drop out)
            assert_eq!(
                out.trials.len(),
                ROWS_CANDIDATES.len() * WARP_CANDIDATES.len() + 1,
                "{:?}",
                out.trials
            );
            assert!(
                out.trials.iter().any(|(n, _)| n == "gemm-im2col"),
                "{:?}",
                out.trials
            );
            assert!(instantiate_nchw(&out.plan, SampleMode::Full).is_ok());
        }
    }

    #[test]
    fn strided_geometry_drops_unit_axes_baselines() {
        let g = ConvGeometry::nchw(1, 2, 17, 17, 3, 3, 3).with_stride(2, 2);
        let out = plan_nchw(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        // ours grid + gemm-im2col; the unit-axes-only tiled/direct drop out
        assert_eq!(
            out.trials.len(),
            ROWS_CANDIDATES.len() * WARP_CANDIDATES.len() + 1
        );
        assert!(out
            .trials
            .iter()
            .all(|(n, _)| n != "tiled" && n != "direct"));
        let h = plan_nchw_heuristic(&tiny(), &g, SampleMode::Auto(64)).unwrap();
        assert_eq!(h.trials.len(), out.trials.len());
    }

    #[test]
    fn stale_plan_name_is_rejected() {
        let plan = Plan {
            algo: "winograd-fused".into(),
            config: PlanConfig::Baseline,
            modeled_seconds: 1.0,
            provenance: Provenance::Trialed,
        };
        assert!(matches!(
            instantiate_nchw(&plan, SampleMode::Full),
            Err(PlanError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        let mut g = ConvGeometry::single(4, 4, 9);
        g.batch = 1;
        assert!(matches!(
            plan_nchw(&tiny(), &g, SampleMode::Auto(64)),
            Err(PlanError::BadGeometry(_))
        ));
    }
}
