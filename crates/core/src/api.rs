//! The public algorithm interface shared by the paper's approach
//! (`memconv-core`) and every baseline (`memconv-baselines`), so the
//! benchmark harness can treat them uniformly.

use memconv_gpusim::{GpuSim, RunReport};
use memconv_tensor::{ConvGeometry, Filter2D, FilterBank, Image2D, Tensor4};

/// A single-channel 2D convolution algorithm (the Fig. 3 contenders).
pub trait Conv2dAlgorithm {
    /// Short display name, as used in the paper's figure legends.
    fn name(&self) -> &str;

    /// Whether this algorithm supports the given filter size (e.g. the
    /// Winograd baselines only implement `F(2×2, 3×3)`, mirroring the
    /// zeros in the paper's Fig. 4 for 5×5 filters).
    fn supports(&self, fh: usize, fw: usize) -> bool {
        let _ = (fh, fw);
        true
    }

    /// Run the convolution on the simulator; returns the output and the
    /// per-launch counters.
    fn run(&self, sim: &mut GpuSim, input: &Image2D, filter: &Filter2D) -> (Image2D, RunReport);
}

/// A batched multi-channel NCHW convolution algorithm (the Fig. 4
/// contenders).
pub trait ConvNchwAlgorithm {
    /// Short display name.
    fn name(&self) -> &str;

    /// Filter-size support predicate (see [`Conv2dAlgorithm::supports`]).
    fn supports(&self, fh: usize, fw: usize) -> bool {
        let _ = (fh, fw);
        true
    }

    /// Full-geometry support predicate, for algorithms with input-size
    /// limits (e.g. cuDNN's FFT algorithm caps spatial extent at 256 px)
    /// or restricted geometry axes. The default is conservative: only
    /// unit-stride, unit-dilation, single-group geometries — algorithms
    /// that generalize (ours, im2col/GEMM) opt in by overriding.
    fn supports_shape(&self, geo: &ConvGeometry) -> bool {
        geo.has_unit_axes() && self.supports(geo.f_h, geo.f_w)
    }

    /// Run the convolution on the simulator.
    ///
    /// `weights` carries `IC` channels per filter (the unit-axes layout);
    /// geometry is inferred from the tensor dims with unit
    /// stride/dilation and a single group.
    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport);

    /// Run with an explicit [`ConvGeometry`] carrying possibly non-unit
    /// stride/dilation/groups (weights then hold `IC/groups` channels).
    ///
    /// The default delegates to [`ConvNchwAlgorithm::run`] and therefore
    /// only accepts unit axes; algorithms whose kernels generalize
    /// override this. Callers must check
    /// [`ConvNchwAlgorithm::supports_shape`] first.
    fn run_geo(
        &self,
        sim: &mut GpuSim,
        input: &Tensor4,
        weights: &FilterBank,
        g: &ConvGeometry,
    ) -> (Tensor4, RunReport) {
        assert!(
            g.has_unit_axes(),
            "algorithm '{}' only supports unit stride/dilation/groups",
            self.name()
        );
        self.run(sim, input, weights)
    }
}

/// The paper's approach packaged as a [`Conv2dAlgorithm`] /
/// [`ConvNchwAlgorithm`].
#[derive(Debug, Clone, Default)]
pub struct Ours {
    /// Kernel configuration (ablations, tiling, sampling).
    pub cfg: crate::kernel2d::OursConfig,
}

impl Ours {
    /// The full approach with default tiling.
    pub fn new() -> Self {
        Ours::default()
    }

    /// With an explicit configuration.
    pub fn with_config(cfg: crate::kernel2d::OursConfig) -> Self {
        Ours { cfg }
    }
}

impl Conv2dAlgorithm for Ours {
    fn name(&self) -> &str {
        "ours"
    }

    fn run(&self, sim: &mut GpuSim, input: &Image2D, filter: &Filter2D) -> (Image2D, RunReport) {
        let (out, stats) = crate::kernel2d::conv2d_ours(sim, input, filter, &self.cfg);
        let mut rep = RunReport::new();
        rep.push("ours_fused", stats);
        (out, rep)
    }
}

impl ConvNchwAlgorithm for Ours {
    fn name(&self) -> &str {
        "ours"
    }

    fn supports_shape(&self, geo: &ConvGeometry) -> bool {
        // The one kernel handles groups, stride, dilation and implicit
        // padding.
        ConvNchwAlgorithm::supports(self, geo.f_h, geo.f_w)
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        let (out, stats) = crate::kernel_nchw::conv_nchw_ours(sim, input, weights, &self.cfg);
        let mut rep = RunReport::new();
        rep.push("ours_fused_nchw", stats);
        (out, rep)
    }

    fn run_geo(
        &self,
        sim: &mut GpuSim,
        input: &Tensor4,
        weights: &FilterBank,
        g: &ConvGeometry,
    ) -> (Tensor4, RunReport) {
        let (out, stats) =
            crate::kernel_nchw::conv_nchw_ours_geo(sim, input, weights, g, &self.cfg);
        let mut rep = RunReport::new();
        rep.push("ours_fused_nchw", stats);
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::{conv2d_ref, conv_nchw_ref};
    use memconv_tensor::generate::TensorRng;

    #[test]
    fn trait_object_usable() {
        let algo: Box<dyn Conv2dAlgorithm> = Box::new(Ours::new());
        assert_eq!(algo.name(), "ours");
        assert!(algo.supports(5, 5));
        let mut rng = TensorRng::new(4);
        let img = rng.image(16, 16);
        let k = rng.filter(3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, rep) = algo.run(&mut sim, &img, &k);
        assert_eq!(out.as_slice(), conv2d_ref(&img, &k).as_slice());
        assert_eq!(rep.launches.len(), 1);
        assert!(rep.global_transactions() > 0);
    }

    #[test]
    fn nchw_trait_object_usable() {
        let algo: Box<dyn ConvNchwAlgorithm> = Box::new(Ours::new());
        let mut rng = TensorRng::new(5);
        let t = rng.tensor(2, 2, 8, 8);
        let b = rng.filter_bank(3, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, rep) = algo.run(&mut sim, &t, &b);
        assert_eq!(out.as_slice(), conv_nchw_ref(&t, &b).as_slice());
        assert_eq!(rep.totals().launches, 1);
    }
}
