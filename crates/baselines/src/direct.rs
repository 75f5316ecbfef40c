//! Direct convolution relying on the cache hierarchy for reuse — the
//! Fig. 1a execution flow and our analog of **NVIDIA NPP**'s
//! `nppiFilter`-style kernels: one thread per output element, all `FH·FW`
//! taps loaded from global memory, overlap served (or not) by L1/L2.

use memconv_core::api::ConvNchwAlgorithm;
use memconv_core::kernel_nchw::launch_conv_nchw_ours;
use memconv_core::OursConfig;
use memconv_gpusim::{GpuSim, RunReport, SampleMode};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// The direct-convolution baseline.
///
/// Internally reuses the fused kernel skeleton with both optimizations
/// disabled (`column_reuse = false`, `rows_per_thread = 1`), which is
/// exactly the standard one-output-per-thread direct kernel: same thread
/// mapping, same masks, `FH·FW` loads per output.
#[derive(Debug, Clone)]
pub struct DirectConv {
    /// Display name ("direct" or "NPP" depending on the figure).
    pub label: String,
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl DirectConv {
    /// Direct convolution under its own name.
    pub fn new() -> Self {
        DirectConv {
            label: "direct".into(),
            sample: SampleMode::Full,
        }
    }

    /// The NPP-analog labelling (Fig. 3).
    pub fn npp() -> Self {
        DirectConv {
            label: "NPP".into(),
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }

    fn cfg(&self) -> OursConfig {
        OursConfig {
            column_reuse: false,
            rows_per_thread: 1,
            block_warps: 4,
            sample: self.sample,
        }
    }
}

impl Default for DirectConv {
    fn default() -> Self {
        DirectConv::new()
    }
}

impl ConvNchwAlgorithm for DirectConv {
    fn name(&self) -> &str {
        &self.label
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        let (n, c, ih, iw) = input.dims();
        let g = ConvGeometry::nchw(
            n,
            c,
            ih,
            iw,
            weights.num_filters(),
            weights.fh(),
            weights.fw(),
        );
        let bi = sim.mem.upload_shared(input.shared());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        let stats = launch_conv_nchw_ours(sim, bi, bw, bo, &g, &self.cfg());
        let out = Tensor4::from_vec(n, g.out_channels, g.out_h(), g.out_w(), sim.mem.take(bo))
            .expect("shape by construction");
        let mut rep = RunReport::new();
        rep.push("direct", stats);
        if self.label == "NPP" {
            rep.add_api_overhead(crate::LIB_CALL_OVERHEAD_S);
        }
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::generate::TensorRng;

    #[test]
    fn direct_matches_reference() {
        let mut rng = TensorRng::new(31);
        let t = rng.tensor(2, 2, 10, 12);
        let b = rng.filter_bank(3, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, rep) = DirectConv::new().run(&mut sim, &t, &b);
        assert_eq!(out.as_slice(), conv_nchw_ref(&t, &b).as_slice());
        assert_eq!(rep.launches.len(), 1);
    }

    #[test]
    fn direct_issues_fhfw_loads_per_output_warp() {
        let mut rng = TensorRng::new(32);
        let t = rng.tensor(1, 1, 8, 32 + 4);
        let b = rng.filter_bank(1, 1, 5, 5);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, rep) = DirectConv::new().run(&mut sim, &t, &b);
        let stats = rep.totals();
        // OW = 32 → one warp per output row; OH = 4 rows; 25 loads each.
        assert_eq!(stats.gld_requests, 4 * 25);
    }
}
