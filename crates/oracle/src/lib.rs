//! # memconv-oracle
//!
//! The symbolic transaction oracle: static prediction of the paper's
//! memory metrics — transactions per request, 32 B sector counts,
//! shared-memory bank-conflict passes, dynamic-indexing verdicts — for any
//! `ConvGeometry × DeviceConfig`, without touching tensor data.
//!
//! The paper's core observation is that convolution performance is decided
//! by *memory transactions*, and transactions are a function of the
//! kernel's **address expressions**, not of the data values flowing
//! through it. The oracle makes that claim operational: it runs an
//! algorithm in the simulator's *phantom mode*
//! ([`memconv_gpusim::GpuSim::set_phantom`]) over shape-matched zero
//! tensors. Phantom execution drives the ordinary launch machinery — same
//! grid, same sampling and extrapolation, either launch engine — but loads
//! return a canary value, stores are bounds-checked and dropped, and every
//! warp access is counted by the pure prefix of the real datapath: a lane
//! run from its span's two ends, as the real run's span path counts it,
//! any other access by the coalescer. For a data-independent kernel the
//! request/transaction counters come out **bit-identical** to a real run
//! (CI-gated over the first-party model zoo), at zero modeled cost: no
//! trial data is generated, no cache or DRAM traffic is simulated, and no
//! L2 is built. Recording the symbolic evidence below is O(1) per request,
//! so a phantom run costs about the host time of the real run it stands
//! in for; `predict` prints the ratio over the zoo on every run.
//!
//! Two layers of evidence accompany each prediction:
//!
//! 1. **Closed forms** — every access site is fitted to the affine domain
//!    `addr(lane) = base + stride·lane` and its transaction count is
//!    recomputed from the coefficients alone
//!    ([`memconv_gpusim::SymReport`]); `Prediction::is_exact` is `true`
//!    iff every closed form agreed with the simulator's counters.
//! 2. **Differential phantom execution** — the kernel runs twice under
//!    different canaries; [`Prediction::consistent`] is `true` iff every
//!    site's address-stream digest is unchanged, certifying the address
//!    streams cannot depend on loaded values. A request's digest folds its
//!    mask, base and stride when affine, its lane values otherwise — a
//!    function of the lane values alone; digests are compared within one
//!    build and never persisted. Structurally dynamic sites
//!    (`PrivArray::*_dyn`) are reported as data-dependent regardless,
//!    because their canary-invariance is accidental (e.g. the
//!    `shuffle_dynamic` baseline's offset table holds compile-time
//!    constants).
//!
//! The serve planner uses the oracle as its *instant* cold-start path: a
//! cache miss is answered from phantom-scored candidates immediately
//! (provenance `heuristic`), while the sampled trial sweep runs as
//! background refinement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use memconv_core::{Conv2dAlgorithm, ConvNchwAlgorithm};
use memconv_gpusim::{
    DeviceConfig, GpuSim, KernelStats, LaunchMode, PhantomConfig, RunReport, SymReport,
};
use memconv_tensor::{ConvGeometry, Filter2D, FilterBank, Image2D, ShapeError, Tensor4};
use std::fmt;

/// Canary of the primary phantom run (the run whose counters are
/// reported).
pub const CANARY_PRIMARY: f32 = 1.0;
/// Canary of the shadow run used for the differential data-independence
/// test. Any value ≠ [`CANARY_PRIMARY`] works; kept fixed for
/// reproducibility.
pub const CANARY_SHADOW: f32 = -7.5;

/// Why a prediction could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The geometry itself is inconsistent.
    BadGeometry(ShapeError),
    /// The algorithm rejects the geometry (`supports_shape`).
    Unsupported {
        /// Algorithm display name.
        algo: String,
        /// Offending geometry's cache key.
        geometry: String,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::BadGeometry(e) => write!(f, "bad geometry: {e}"),
            PredictError::Unsupported { algo, geometry } => {
                write!(f, "algorithm `{algo}` does not support geometry {geometry}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// An oracle prediction: the phantom run's counters plus the symbolic
/// verdict backing them.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Per-launch counters of the phantom run. The transaction subset
    /// (see [`transaction_signature`]) is exact for data-independent
    /// kernels; cache and DRAM counters are structurally zero (nothing
    /// below the coalescer executes in phantom mode).
    pub report: RunReport,
    /// Per-site symbolic classification, closed-form validation, and
    /// address-stream hashes.
    pub sym: SymReport,
    /// `true` iff the differential (two-canary) run reproduced every
    /// address-stream hash — the value-data-independence certificate.
    pub consistent: bool,
}

impl Prediction {
    /// Aggregate predicted counters across the run's launches.
    pub fn stats(&self) -> KernelStats {
        self.report.totals()
    }

    /// Modeled seconds of the predicted run under the device's roofline.
    /// L2/DRAM terms are zero in phantom mode (documented omission): the
    /// score reflects issue, L1-level traffic, shared-memory passes,
    /// compute and local-spill latency — the terms the paper's
    /// optimizations target.
    pub fn modeled_seconds(&self, dev: &DeviceConfig) -> f64 {
        self.report.modeled_time(dev)
    }

    /// `true` iff every closed-form prediction matched the simulator's
    /// transaction counter (the `predict` CI gate).
    pub fn is_exact(&self) -> bool {
        self.sym.is_exact()
    }

    /// `true` iff any site is data-dependent — structurally (dynamic
    /// indexing) or observationally (canary-sensitive address stream).
    pub fn data_dependent(&self) -> bool {
        !self.consistent || !self.sym.data_dependent_sites().is_empty()
    }

    /// The paper's headline metric, predicted: global load + store
    /// transactions.
    pub fn global_transactions(&self) -> u64 {
        self.report.global_transactions()
    }
}

/// The counters a phantom run must reproduce bit-for-bit against a real
/// run — the oracle's exactness contract. Cache/DRAM counters are
/// deliberately excluded: they require simulating the memory hierarchy the
/// oracle exists to skip.
pub fn transaction_signature(s: &KernelStats) -> [u64; 9] {
    [
        s.gld_requests,
        s.gld_transactions,
        s.gst_requests,
        s.gst_transactions,
        s.local_requests,
        s.local_ld_transactions,
        s.local_st_transactions,
        s.smem_accesses,
        s.smem_passes,
    ]
}

/// One phantom run: fresh simulator, phantom armed, report + sym drained.
fn phantom_run(
    device: &DeviceConfig,
    mode: LaunchMode,
    canary: f32,
    run: impl FnOnce(&mut GpuSim) -> RunReport,
) -> (RunReport, SymReport) {
    let mut sim = GpuSim::new(device.clone())
        .with_launch_mode(mode)
        .with_phantom(PhantomConfig { canary });
    let report = run(&mut sim);
    let sym = sim.take_sym_report().expect("phantom armed");
    (report, sym)
}

/// Predict the transaction metrics of `algo` on a batched NCHW geometry.
///
/// Runs the algorithm twice in phantom mode (primary + shadow canary) over
/// shape-matched zero tensors; buffer layout is identical to a real run of
/// the same algorithm because allocation order and alignment are
/// deterministic.
///
/// # Errors
///
/// [`PredictError::BadGeometry`] for inconsistent geometries,
/// [`PredictError::Unsupported`] when the algorithm rejects the shape.
pub fn predict_nchw(
    algo: &dyn ConvNchwAlgorithm,
    device: &DeviceConfig,
    g: &ConvGeometry,
    mode: LaunchMode,
) -> Result<Prediction, PredictError> {
    let g = g.validate().map_err(PredictError::BadGeometry)?;
    if !algo.supports_shape(&g) {
        return Err(PredictError::Unsupported {
            algo: algo.name().to_string(),
            geometry: g.cache_key(),
        });
    }
    let input = Tensor4::zeros(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = FilterBank::zeros(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
    let (report, sym) = phantom_run(device, mode, CANARY_PRIMARY, |sim| {
        algo.run_geo(sim, &input, &bank, &g).1
    });
    let (_, shadow) = phantom_run(device, mode, CANARY_SHADOW, |sim| {
        algo.run_geo(sim, &input, &bank, &g).1
    });
    Ok(Prediction {
        report,
        sym: sym.clone(),
        consistent: sym.stream_hashes() == shadow.stream_hashes(),
    })
}

/// One phantom scoring run — the serve planner's instant-path primitive.
///
/// A single primary-canary run with no differential shadow: cheaper than
/// [`predict_nchw`] (half the phantom cost, no certificate), returning
/// just the [`RunReport`] whose transaction counters feed the device
/// roofline. The planner scores every candidate with this and never
/// generates trial data.
///
/// # Errors
///
/// Same as [`predict_nchw`].
pub fn score_nchw(
    algo: &dyn ConvNchwAlgorithm,
    device: &DeviceConfig,
    g: &ConvGeometry,
    mode: LaunchMode,
) -> Result<RunReport, PredictError> {
    let g = g.validate().map_err(PredictError::BadGeometry)?;
    if !algo.supports_shape(&g) {
        return Err(PredictError::Unsupported {
            algo: algo.name().to_string(),
            geometry: g.cache_key(),
        });
    }
    let input = Tensor4::zeros(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = FilterBank::zeros(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
    let (report, _) = phantom_run(device, mode, CANARY_PRIMARY, |sim| {
        algo.run_geo(sim, &input, &bank, &g).1
    });
    Ok(report)
}

/// Predict the transaction metrics of `algo` on a single-image 2D geometry
/// (the paper's Fig. 3 setting). See [`predict_nchw`].
///
/// # Errors
///
/// [`PredictError::BadGeometry`] for inconsistent geometries,
/// [`PredictError::Unsupported`] for unsupported filter sizes or
/// non-single-channel geometries.
pub fn predict_2d(
    algo: &dyn Conv2dAlgorithm,
    device: &DeviceConfig,
    g: &ConvGeometry,
    mode: LaunchMode,
) -> Result<Prediction, PredictError> {
    let g = g.validate().map_err(PredictError::BadGeometry)?;
    if g.batch != 1 || g.in_channels != 1 || g.out_channels != 1 || !algo.supports(g.f_h, g.f_w) {
        return Err(PredictError::Unsupported {
            algo: algo.name().to_string(),
            geometry: g.cache_key(),
        });
    }
    let img = Image2D::zeros(g.in_h, g.in_w);
    let filt = Filter2D::zeros(g.f_h, g.f_w);
    let (report, sym) = phantom_run(device, mode, CANARY_PRIMARY, |sim| {
        algo.run(sim, &img, &filt).1
    });
    let (_, shadow) = phantom_run(device, mode, CANARY_SHADOW, |sim| {
        algo.run(sim, &img, &filt).1
    });
    Ok(Prediction {
        report,
        sym: sym.clone(),
        consistent: sym.stream_hashes() == shadow.stream_hashes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_baselines::{DirectConv, Im2colGemm, ShuffleDynamic, TiledConv};
    use memconv_core::Ours;
    use memconv_tensor::{Padding, TensorRng};

    fn tiny() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    /// Real run of an NCHW algorithm on *random* data — the oracle's
    /// predictions must match it bit-for-bit on the transaction subset.
    fn measure_nchw(
        algo: &dyn ConvNchwAlgorithm,
        device: &DeviceConfig,
        g: &ConvGeometry,
        mode: LaunchMode,
    ) -> KernelStats {
        let mut rng = TensorRng::new(0xD1CE);
        let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
        let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
        let mut sim = GpuSim::new(device.clone()).with_launch_mode(mode);
        algo.run_geo(&mut sim, &input, &bank, g).1.totals()
    }

    #[test]
    fn oracle_matches_real_run_for_ours_nchw() {
        let g = ConvGeometry::nchw(2, 3, 12, 12, 4, 3, 3);
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let algo = Ours::new();
            let p = predict_nchw(&algo, &tiny(), &g, mode).unwrap();
            let real = measure_nchw(&algo, &tiny(), &g, mode);
            assert_eq!(
                transaction_signature(&p.stats()),
                transaction_signature(&real),
                "{mode:?}"
            );
            assert!(p.is_exact());
            assert!(p.consistent);
            assert!(!p.data_dependent());
            assert!(p.modeled_seconds(&tiny()) > 0.0);
            // The planner's single-run scoring primitive sees the same
            // counters as the full differential prediction.
            let score = score_nchw(&algo, &tiny(), &g, mode).unwrap();
            assert_eq!(
                transaction_signature(&score.totals()),
                transaction_signature(&p.stats())
            );
        }
    }

    #[test]
    fn oracle_matches_real_run_for_baselines() {
        let g = ConvGeometry::nchw(1, 2, 10, 10, 3, 3, 3);
        let algos: Vec<Box<dyn ConvNchwAlgorithm>> = vec![
            Box::new(TiledConv::new()),
            Box::new(DirectConv::new()),
            Box::new(Im2colGemm::caffe()),
        ];
        for algo in &algos {
            let p = predict_nchw(algo.as_ref(), &tiny(), &g, LaunchMode::Sequential).unwrap();
            let real = measure_nchw(algo.as_ref(), &tiny(), &g, LaunchMode::Sequential);
            assert_eq!(
                transaction_signature(&p.stats()),
                transaction_signature(&real),
                "{}",
                algo.name()
            );
            assert!(p.is_exact(), "{}", algo.name());
        }
    }

    #[test]
    fn oracle_stays_exact_on_new_geometry_axes() {
        // The 9-counter contract extends to strided/dilated/grouped/
        // depthwise/padded geometries: phantom counters must equal a real
        // run's, bit-for-bit, on both launch engines.
        let padded = |g: ConvGeometry| g.with_padding(Padding::Same).unwrap();
        let geos = [
            ConvGeometry::nchw(2, 3, 13, 13, 4, 3, 3).with_stride(2, 2),
            ConvGeometry::nchw(1, 2, 14, 14, 2, 3, 3).with_dilation(2, 2),
            ConvGeometry::nchw(1, 4, 10, 10, 6, 3, 3).with_groups(2),
            ConvGeometry::nchw(1, 5, 12, 12, 5, 3, 3).with_groups(5),
            padded(ConvGeometry::nchw(1, 2, 12, 12, 3, 3, 3)),
            // depthwise with channel multiplier 2
            ConvGeometry::nchw(1, 3, 12, 12, 6, 3, 3).with_groups(3),
        ];
        for g in geos {
            let g = g.validate().unwrap();
            for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
                let algo = Ours::new();
                let p = predict_nchw(&algo, &tiny(), &g, mode).unwrap();
                let real = measure_nchw(&algo, &tiny(), &g, mode);
                assert_eq!(
                    transaction_signature(&p.stats()),
                    transaction_signature(&real),
                    "ours {} {mode:?}",
                    g.cache_key()
                );
                assert!(p.consistent, "ours {}", g.cache_key());
            }
        }
    }

    #[test]
    fn unsupported_shapes_are_rejected_in_oracle() {
        let strided = ConvGeometry::nchw(1, 4, 10, 10, 4, 3, 3).with_stride(2, 2);
        assert!(matches!(
            predict_nchw(&TiledConv::new(), &tiny(), &strided, LaunchMode::Sequential),
            Err(PredictError::Unsupported { .. })
        ));
    }

    #[test]
    fn shuffle_dynamic_is_reported_data_dependent() {
        // Positive control: the Fig. 1b baseline routes filter offsets
        // through a dynamically indexed private array, which must surface
        // as a data-dependent (top) verdict even though its address stream
        // happens to be canary-invariant.
        let g = ConvGeometry::single(16, 16, 3);
        let p = predict_2d(&ShuffleDynamic::new(), &tiny(), &g, LaunchMode::Sequential).unwrap();
        assert!(
            !p.sym.data_dependent_sites().is_empty(),
            "dynamic indexing must be classified top"
        );
        assert!(p.data_dependent());
    }

    #[test]
    fn unsupported_and_bad_geometries_are_typed_errors() {
        let algo = Ours::new();
        let mut bad = ConvGeometry::single(4, 4, 9);
        bad.batch = 1;
        assert!(matches!(
            predict_nchw(&algo, &tiny(), &bad, LaunchMode::Sequential),
            Err(PredictError::BadGeometry(_))
        ));
        let multi = ConvGeometry::nchw(2, 3, 16, 16, 4, 3, 3);
        assert!(matches!(
            predict_2d(&algo, &tiny(), &multi, LaunchMode::Sequential),
            Err(PredictError::Unsupported { .. })
        ));
    }
}
