//! MEC — Memory-Efficient Convolution (Cho & Brand, ICML 2017), the
//! paper's related work \[4\].
//!
//! MEC lowers the input along the *width dimension only*: the lowered
//! matrix `L[ow][ih][ic][fw] = I[ic][ih][ow + fw]` inflates the input by
//! `FW×` instead of im2col's `FH·FW×`. Each output row `oy` is then one
//! GEMM against an **overlapping window** of `L` (rows `oy … oy+FH−1`),
//! which is why the GEMM stage needs the transposed-`B` strided view
//! (cuBLAS `opB = T` in the original implementation).
//!
//! Pipeline: lowering kernel → filter-reorder kernel (weights permuted to
//! `[FH][IC][FW]` so each window is contiguous) → one batched GEMM over
//! `(image, output row)`.

use crate::gemm_kernel::{launch_gemm, GemmBatch, GemmDims};
use memconv_core::api::ConvNchwAlgorithm;
use memconv_gpusim::{GpuSim, LaunchConfig, RunReport, SampleMode, VU, WARP};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// The MEC convolution.
#[derive(Debug, Clone)]
pub struct MecConv {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl MecConv {
    /// New instance with full simulation.
    pub fn new() -> Self {
        MecConv {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl Default for MecConv {
    fn default() -> Self {
        MecConv::new()
    }
}

impl ConvNchwAlgorithm for MecConv {
    fn name(&self) -> &str {
        "MEC"
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        let (n, ic, ih, iw) = input.dims();
        let g = ConvGeometry::nchw(
            n,
            ic,
            ih,
            iw,
            weights.num_filters(),
            weights.fh(),
            weights.fw(),
        );
        let (fh, fw) = (g.f_h, g.f_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let fn_ = g.out_channels;
        let mut rep = RunReport::new();

        let bi = sim.mem.upload_shared(input.shared());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());

        // --- lowering: L[n][ow][ih][ic][fw] ---------------------------------
        let l_row = ih * ic * fw; // leading dimension of one ow-row
        let bl = sim.mem.alloc(n * ow * l_row);
        {
            let total = (n * ow * l_row) as u32;
            let blocks = total.div_ceil(256);
            let cfg = LaunchConfig::linear(blocks, 256).with_sample(self.sample);
            let stats = sim.launch(&cfg, |blk| {
                let bx = blk.block_idx.0;
                blk.each_warp(|w| {
                    let tid = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
                    let mask = tid.lt_scalar(total);
                    let gidx = VU::from_fn(|l| {
                        let e = tid.lane(l) as usize % (n * ow * l_row);
                        let (img, rem) = (e / (ow * l_row), e % (ow * l_row));
                        let (wcol, rem) = (rem / l_row, rem % l_row);
                        let (h, rem) = (rem / (ic * fw), rem % (ic * fw));
                        let (c, s) = (rem / fw, rem % fw);
                        (((img * ic + c) * ih + h) * iw + (wcol + s)) as u32
                    });
                    let v = w.gld(bi, &gidx, mask);
                    w.count_fp(10);
                    w.gst(bl, &tid, &v, mask);
                });
            });
            rep.push("mec_lowering", stats);
        }

        // --- filter reorder: W'[f][(r·IC + c)·FW + s] ------------------------
        let kdim = fh * ic * fw;
        let bwr = sim.mem.alloc(fn_ * kdim);
        {
            let total = (fn_ * kdim) as u32;
            let blocks = total.div_ceil(256);
            let stats = sim.launch(&LaunchConfig::linear(blocks, 256), |blk| {
                let bx = blk.block_idx.0;
                blk.each_warp(|w| {
                    let tid = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
                    let mask = tid.lt_scalar(total);
                    let gidx = VU::from_fn(|l| {
                        let e = tid.lane(l) as usize % (fn_ * kdim);
                        let (f, rem) = (e / kdim, e % kdim);
                        let (r, rem) = (rem / (ic * fw), rem % (ic * fw));
                        let (c, s) = (rem / fw, rem % fw);
                        (((f * ic + c) * fh + r) * fw + s) as u32
                    });
                    let v = w.gld(bw, &gidx, mask);
                    w.count_fp(8);
                    w.gst(bwr, &tid, &v, mask);
                });
            });
            rep.push("mec_filter_reorder", stats);
        }

        // --- batched GEMM over output rows, one launch per image -------------
        // B_(oy) = Lᵀ window: element (k, ow) of output row oy lives at
        // L[img·OW·l_row + ow·l_row + oy·IC·FW + k]; consecutive output
        // rows overlap by (FH−1)·IC·FW — the strided view cuBLAS's
        // `opB = T` + stridedBatched expresses, and our transposed-B GEMM
        // reproduces. (MEC's reference implementation likewise batches the
        // OH GEMMs per sample.)
        for img in 0..n {
            let stats = launch_gemm(
                sim,
                bwr,
                bl,
                bo,
                GemmDims {
                    m: fn_,
                    k: kdim,
                    n: ow,
                },
                GemmBatch {
                    batch: oh,
                    stride_a: 0,
                    stride_b: ic * fw, // window slides one input row per oy
                    stride_c: ow,      // each oy fills one output row
                    base_b: img * ow * l_row,
                    base_c: img * fn_ * oh * ow,
                    ldb_transposed: Some(l_row),
                    ldc: Some(oh * ow), // filter rows are OH·OW apart
                    ..GemmBatch::single()
                },
                self.sample,
            );
            rep.push(format!("mec_gemm[{img}]"), stats);
        }

        let out =
            Tensor4::from_vec(n, fn_, oh, ow, sim.mem.take(bo)).expect("shape by construction");
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::{assert_close, generate::TensorRng};

    #[test]
    fn mec_matches_reference_single_image() {
        let mut rng = TensorRng::new(91);
        let t = rng.tensor(1, 2, 12, 14);
        let b = rng.filter_bank(3, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, rep) = MecConv::new().run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        assert_close(out.as_slice(), want.as_slice(), 1e-4, 1e-4, "MEC");
        assert_eq!(rep.launches.len(), 3); // lowering + reorder + 1 gemm
    }

    #[test]
    fn mec_lowering_is_fw_times_input() {
        let mut rng = TensorRng::new(92);
        let t = rng.tensor(1, 1, 30, 30);
        let b5 = rng.filter_bank(1, 1, 5, 5);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, rep) = MecConv::new().run(&mut sim, &t, &b5);
        let gst = rep.launches[0].1.gst_transactions; // lowering stores
        let input_sectors = (30 * 30 * 4_u64).div_ceil(32);
        // L ≈ OW·IH·FW elements ≈ FW× input (minus boundary)
        assert!(gst > 3 * input_sectors && gst < 6 * input_sectors, "{gst}");
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::{assert_close, generate::TensorRng};

    #[test]
    fn mec_matches_reference_batched_multichannel() {
        let mut rng = TensorRng::new(93);
        let t = rng.tensor(3, 2, 10, 13);
        let b = rng.filter_bank(4, 2, 5, 5);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, rep) = MecConv::new().run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        assert_close(out.as_slice(), want.as_slice(), 1e-4, 1e-4, "MEC batched");
        assert_eq!(rep.launches.len(), 2 + 3); // lowering + reorder + per-image GEMMs
    }

    #[test]
    fn mec_lowering_stores_fw_not_fhfw_copies() {
        // MEC's claim (the paper's related work [4]) is a *smaller lowered
        // footprint*: the lowering writes FW× the input instead of
        // im2col's FH·FW× — its GEMM then re-reads overlapping windows, so
        // total traffic is similar; the saving is workspace and stores.
        let mut rng = TensorRng::new(94);
        let t = rng.tensor(1, 1, 40, 40);
        let b = rng.filter_bank(4, 1, 3, 3);
        let stage_stores = |rep: &memconv_gpusim::RunReport, label: &str| {
            rep.launches
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .map(|(_, s)| s.gst_transactions)
                .expect("stage present")
        };
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, mec) = MecConv::new().run(&mut sim, &t, &b);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, gemm) = crate::im2col_gemm::Im2colGemm::cudnn_gemm().run(&mut sim, &t, &b);
        let mec_lower = stage_stores(&mec, "mec_lowering");
        let im2col_lower = stage_stores(&gemm, "im2col");
        assert!(
            mec_lower * 2 < im2col_lower,
            "MEC lowering {mec_lower} should be ~FW/(FH·FW) of im2col {im2col_lower}"
        );
    }
}
