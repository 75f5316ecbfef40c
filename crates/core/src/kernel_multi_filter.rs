//! Extension: filter-direction reuse — the improvement the paper's §IV-B
//! leaves as future work ("this can be improved by careful optimizations
//! on input channels").
//!
//! The base multi-channel kernel ([`crate::kernel_nchw`]) assigns one
//! output filter per grid-z slice, so the input tensor is re-streamed `FN`
//! times. This kernel keeps `filters_per_pass` output filters resident in
//! each warp's register accumulators: every input row loaded once (with
//! the same column/row reuse as before) now feeds
//! `rows_per_thread × filters_per_pass` outputs, cutting input traffic by
//! up to `filters_per_pass ×` on the many-filter layers (CONV8–CONV11)
//! where the paper's approach loses to the GEMM family.
//!
//! Register budget: the accumulator tile is
//! `rows_per_thread · filters_per_pass` values per lane; with the default
//! 8×4 that is 32 registers — comfortably within Turing's 255/thread.

use crate::column_reuse::{load_row_columns, load_row_columns_direct};
use crate::kernel2d::OursConfig;
use crate::plan::ColumnPlan;
use crate::row_reuse::contributions_tiled;
use memconv_gpusim::{GpuSim, KernelStats, LaunchConfig, RunReport, VF, WARP};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Launch the filter-tiled fused kernel on uploaded NCHW buffers.
#[allow(clippy::too_many_arguments)]
pub fn launch_conv_nchw_multi_filter(
    sim: &mut GpuSim,
    input: memconv_gpusim::BufId,
    weights: memconv_gpusim::BufId,
    output: memconv_gpusim::BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
    filters_per_pass: usize,
) -> KernelStats {
    assert!(filters_per_pass >= 1);
    let (ih, iw) = (g.in_h, g.in_w);
    let (fh, fw) = (g.f_h, g.f_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let (ic, fn_) = (g.in_channels, g.out_channels);
    let t_rows = cfg.rows_per_thread;
    let fpp = filters_per_pass.min(fn_);
    let cols_per_block = WARP * cfg.block_warps;
    let gx = ow.div_ceil(cols_per_block) as u32;
    let gy = oh.div_ceil(t_rows) as u32;
    let gz = (g.batch * fn_.div_ceil(fpp)) as u32;
    let plan = ColumnPlan::new(fw);
    let launch =
        LaunchConfig::grid3d(gx, gy, gz, (WARP * cfg.block_warps) as u32).with_sample(cfg.sample);

    let in_plane = ih * iw;
    let out_plane = oh * ow;
    let w_plane = fh * fw;
    let fgroups = fn_.div_ceil(fpp);

    sim.launch(&launch, |blk| {
        let (bx, by, bz) = blk.block_idx;
        let n = bz as usize / fgroups;
        let f0 = (bz as usize % fgroups) * fpp;
        let fcount = (fn_ - f0).min(fpp);
        blk.each_warp(|w| {
            let x0 = (bx as usize * cfg.block_warps + w.warp_id) * WARP;
            if x0 >= ow {
                return;
            }
            let y0 = by as usize * t_rows;
            if y0 >= oh {
                return;
            }

            // The warp's registers, allocated once and reused for every
            // channel and row. Accumulators: [filter][row] — fpp·t_rows
            // registers per lane.
            let mut acc = vec![VF::splat(0.0); fcount * t_rows];
            let mut fvals = vec![0.0f32; fcount * w_plane];
            let mut slots = vec![VF::splat(0.0); fw];
            let last_in_row = (y0 + t_rows + fh - 1).min(ih);

            for c in 0..ic {
                // This channel's filter planes for every filter in the
                // group, from constant memory.
                for (fi, planes) in fvals.chunks_exact_mut(w_plane).enumerate() {
                    let wbase = ((f0 + fi) * ic + c) * w_plane;
                    w.const_load_row(weights, wbase as u32, planes);
                }
                let plane_base = (n * ic + c) * in_plane;
                for iy in y0..last_in_row {
                    let row_base = (plane_base + iy * iw + x0) as u32;
                    let cols_left = (iw - x0) as u32;
                    if cfg.column_reuse {
                        load_row_columns(w, input, row_base, cols_left, &plan, &mut slots);
                    } else {
                        load_row_columns_direct(w, input, row_base, cols_left, &mut slots);
                    }
                    // One loaded row feeds every (row, filter) output pair.
                    for (o, fr) in contributions_tiled(iy, fh, y0, t_rows, oh) {
                        let t = o - y0;
                        for (fi, filt_acc) in acc.chunks_exact_mut(t_rows).enumerate() {
                            let ws = &fvals[fi * w_plane + fr * fw..][..fw];
                            w.fma_row(&mut filt_acc[t], &slots, ws);
                        }
                    }
                }
            }

            let lane = w.lane_id();
            let store_mask = lane.lt_scalar((ow - x0) as u32);
            for (fi, filt_acc) in acc.chunks_exact(t_rows).enumerate() {
                let out_base = (n * fn_ + f0 + fi) * out_plane;
                for (t, &a) in filt_acc.iter().enumerate() {
                    let oy = y0 + t;
                    if oy >= oh {
                        break;
                    }
                    let idx = lane + (out_base + oy * ow + x0) as u32;
                    w.gst(output, &idx, &a, store_mask);
                }
            }
        });
    })
}

/// Convenience wrapper: upload, run, download.
pub fn conv_nchw_multi_filter(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    cfg: &OursConfig,
    filters_per_pass: usize,
) -> (Tensor4, KernelStats) {
    let (n, c, ih, iw) = input.dims();
    assert_eq!(c, weights.channels(), "channel mismatch");
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
    let stats = launch_conv_nchw_multi_filter(sim, bi, bw, bo, &g, cfg, filters_per_pass);
    let out = Tensor4::from_vec(n, g.out_channels, g.out_h(), g.out_w(), sim.mem.take(bo))
        .expect("shape by construction");
    (out, stats)
}

/// The extension packaged as an algorithm ("ours+mf" in the extension
/// benches).
#[derive(Debug, Clone)]
pub struct OursMultiFilter {
    /// Base kernel configuration.
    pub cfg: OursConfig,
    /// Output filters kept resident per pass (register tile width).
    pub filters_per_pass: usize,
}

impl OursMultiFilter {
    /// Default: 4 filters per pass on top of the default fused config.
    pub fn new() -> Self {
        OursMultiFilter {
            cfg: OursConfig::full(),
            filters_per_pass: 4,
        }
    }

    /// Set the sampling mode of the underlying kernel.
    pub fn with_sample(mut self, sample: memconv_gpusim::SampleMode) -> Self {
        self.cfg.sample = sample;
        self
    }
}

impl Default for OursMultiFilter {
    fn default() -> Self {
        OursMultiFilter::new()
    }
}

impl crate::api::ConvNchwAlgorithm for OursMultiFilter {
    fn name(&self) -> &str {
        "ours+mf"
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        let (out, stats) =
            conv_nchw_multi_filter(sim, input, weights, &self.cfg, self.filters_per_pass);
        let mut rep = RunReport::new();
        rep.push("ours_multi_filter", stats);
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::generate::TensorRng;

    fn check(n: usize, ic: usize, hw: usize, fn_: usize, f: usize, fpp: usize) {
        let mut rng = TensorRng::new((n + ic + hw + fn_ + f + fpp) as u64);
        let input = rng.tensor(n, ic, hw, hw);
        let bank = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = conv_nchw_multi_filter(&mut sim, &input, &bank, &OursConfig::full(), fpp);
        let want = conv_nchw_ref(&input, &bank);
        assert_eq!(
            out.as_slice(),
            want.as_slice(),
            "n={n} ic={ic} hw={hw} fn={fn_} f={f} fpp={fpp}"
        );
    }

    #[test]
    fn bitexact_for_various_filter_groupings() {
        check(1, 1, 10, 4, 3, 1);
        check(1, 1, 10, 4, 3, 4);
        check(2, 3, 12, 5, 3, 2); // fn not divisible by fpp
        check(1, 2, 14, 7, 5, 4);
        check(1, 1, 8, 3, 3, 16); // fpp > fn clamps
    }

    #[test]
    fn input_traffic_shrinks_with_filters_per_pass() {
        let mut rng = TensorRng::new(81);
        let input = rng.tensor(1, 1, 40, 40);
        let bank = rng.filter_bank(8, 1, 3, 3);
        let loads = |fpp: usize| {
            let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
            let (_, s) = conv_nchw_multi_filter(&mut sim, &input, &bank, &OursConfig::full(), fpp);
            s.gld_transactions
        };
        let one = loads(1);
        let four = loads(4);
        let eight = loads(8);
        assert!(
            four < one / 3,
            "4 filters/pass ≈ 4x fewer loads: {four} vs {one}"
        );
        assert!(eight < four, "{eight} vs {four}");
    }

    #[test]
    fn matches_base_kernel_when_fpp_is_one() {
        let mut rng = TensorRng::new(82);
        let input = rng.tensor(2, 2, 11, 11);
        let bank = rng.filter_bank(3, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (a, sa) = conv_nchw_multi_filter(&mut sim, &input, &bank, &OursConfig::full(), 1);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (b, sb) =
            crate::kernel_nchw::conv_nchw_ours(&mut sim, &input, &bank, &OursConfig::full());
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa.gld_requests, sb.gld_requests);
    }
}
