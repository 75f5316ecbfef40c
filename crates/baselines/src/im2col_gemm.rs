//! GEMM-based convolution through an explicit `im2col` lowering.
//!
//! Two personalities:
//!
//! * **`caffe()` — the "GEMM-im2col" baseline** of every figure: as in
//!   Caffe's `conv_layer`, the forward pass loops over the batch, launching
//!   one `im2col` kernel and one SGEMM **per image** (reusing a single
//!   column buffer). For small layers the 2·N kernel launches dominate —
//!   the reason the paper's Fig. 4 shows 20–50× speedups over this baseline
//!   on small-spatial layers.
//! * **`cudnn_gemm()` — cuDNN's `GEMM` algorithm**: one whole-batch
//!   `im2col` into workspace, then a single batched SGEMM.

use crate::gemm_kernel::{launch_gemm, GemmBatch, GemmDims};
use memconv_core::api::ConvNchwAlgorithm;
use memconv_gpusim::{GpuSim, KernelStats, LaunchConfig, RunReport, SampleMode, VU, WARP};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Explicit im2col + SGEMM convolution.
#[derive(Debug, Clone)]
pub struct Im2colGemm {
    /// Display name.
    pub label: String,
    /// Loop over the batch with per-image launches (Caffe) instead of one
    /// batched pipeline (cuDNN `GEMM`).
    pub per_image: bool,
    /// Block sampling for performance runs.
    pub sample: SampleMode,
    /// Performance-run shortcut: simulate only the first two per-image
    /// iterations and replicate the second image's counters for the rest
    /// of the batch (images are statistically identical, so per-image
    /// launch stats are too). Functional output is only complete for the
    /// first two images — measurement only.
    pub replicate_batch: bool,
}

impl Im2colGemm {
    /// Caffe's per-image pipeline — the paper's baseline.
    pub fn caffe() -> Self {
        Im2colGemm {
            label: "GEMM-im2col".into(),
            per_image: true,
            sample: SampleMode::Full,
            replicate_batch: false,
        }
    }

    /// cuDNN's batched `GEMM` algorithm.
    pub fn cudnn_gemm() -> Self {
        Im2colGemm {
            label: "gemm".into(),
            per_image: false,
            sample: SampleMode::Full,
            replicate_batch: false,
        }
    }

    /// Enable batch replication (see [`Im2colGemm::replicate_batch`]).
    pub fn with_batch_replication(mut self) -> Self {
        self.replicate_batch = true;
        self
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

/// Launch the im2col lowering kernel for images `[n0, n0+count)`.
///
/// Column layout per image: `K × (OH·OW)` row-major with
/// `K = IC·FH·FW`, rows ordered `(c, r, s)` — matching the flattened
/// filter-bank layout so the GEMM needs no transpose. Groups partition
/// the rows: group `gi` owns rows `[gi·CPG·FH·FW, (gi+1)·CPG·FH·FW)`, so
/// the per-group GEMM just offsets into the same column matrix. Strided,
/// dilated and padded taps fold into the gather index (`iy = oy·SH + r·DH
/// − pad`); out-of-image taps write an explicit zero — the lowering's
/// memory-blowup cost the paper's approach avoids. `col_base` is the
/// element offset of image `n0`'s column matrix inside `col`.
#[allow(clippy::too_many_arguments)]
fn launch_im2col(
    sim: &mut GpuSim,
    input: memconv_gpusim::BufId,
    col: memconv_gpusim::BufId,
    g: &ConvGeometry,
    n0: usize,
    count: usize,
    col_base: usize,
    sample: SampleMode,
) -> KernelStats {
    let (ih, iw) = (g.in_h, g.in_w);
    let (fh, fw) = (g.f_h, g.f_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let ic = g.in_channels;
    let (sh, sw) = (g.stride_h, g.stride_w);
    let (dh, dw) = (g.dil_h, g.dil_w);
    let (pad_h, pad_w) = (g.pad_h as i64, g.pad_w as i64);
    let nsp = oh * ow;
    let kdim = ic * fh * fw;
    let per_image = kdim * nsp;
    let total = (count * per_image) as u32;
    let blocks = total.div_ceil(256);
    let cfg = LaunchConfig::linear(blocks, 256).with_sample(sample);

    sim.launch(&cfg, |blk| {
        let bx = blk.block_idx.0;
        blk.each_warp(|w| {
            let tid = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
            let mask = tid.lt_scalar(total);
            // Real-image coordinates per lane; out-of-image taps (padding)
            // are masked off the load and store 0.0.
            let mut in_image = [false; WARP];
            let mut flat = [0usize; WARP];
            for l in 0..WARP {
                let e = tid.lane(l) as usize;
                let img = n0 + (e / per_image).min(count.saturating_sub(1));
                let rem = e % per_image;
                let kidx = rem / nsp;
                let sp = rem % nsp;
                let (c, r, s) = (kidx / (fh * fw), kidx / fw % fh, kidx % fw);
                let (oy, ox) = (sp / ow, sp % ow);
                let iy = (oy * sh + r * dh) as i64 - pad_h;
                let ix = (ox * sw + s * dw) as i64 - pad_w;
                in_image[l] = (0..ih as i64).contains(&iy) && (0..iw as i64).contains(&ix);
                flat[l] = (img * ic + c) * (ih * iw)
                    + iy.clamp(0, ih as i64 - 1) as usize * iw
                    + ix.clamp(0, iw as i64 - 1) as usize;
            }
            let load_mask = memconv_gpusim::LaneMask::from_fn(|l| mask.get(l) && in_image[l]);
            let gidx = VU::from_fn(|l| flat[l] as u32);
            let v = w.gld(input, &gidx, load_mask);
            // masked lanes deliver 0.0 — exactly the zero-padding the
            // column matrix needs
            let zero = memconv_gpusim::VF::splat(0.0);
            let v = v.select(load_mask, &zero);
            // index arithmetic above: ~8 integer ops per element
            w.count_fp(8);
            let cidx = tid + col_base as u32;
            w.gst(col, &cidx, &v, mask);
        });
    })
}

impl ConvNchwAlgorithm for Im2colGemm {
    fn name(&self) -> &str {
        &self.label
    }

    fn supports_shape(&self, _geo: &ConvGeometry) -> bool {
        // The lowering generalizes to every geometry axis: stride/dilation
        // /padding fold into the gather, groups partition the K rows.
        true
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
        self.run_geo(sim, input, weights, &g)
    }

    fn run_geo(
        &self,
        sim: &mut GpuSim,
        input: &Tensor4,
        weights: &FilterBank,
        g: &ConvGeometry,
    ) -> (Tensor4, RunReport) {
        assert_eq!(
            input.dims(),
            (g.batch, g.in_channels, g.in_h, g.in_w),
            "input/geometry mismatch"
        );
        assert_eq!(
            (weights.num_filters(), weights.channels()),
            (g.out_channels, g.channels_per_group()),
            "weights must be FN x IC/groups"
        );
        let n = g.batch;
        let ic = g.in_channels;
        let (oh, ow) = (g.out_h(), g.out_w());
        let fn_ = g.out_channels;
        let groups = g.groups;
        let fpg = g.filters_per_group();
        let nsp = oh * ow;
        // Full column matrix per image; group gi's K-block starts at row
        // gi * kg.
        let kg = g.channels_per_group() * g.f_h * g.f_w;
        let kdim = ic * g.f_h * g.f_w;
        let mut rep = RunReport::new();

        let bi = sim.mem.upload_shared(input.shared());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        let dims = GemmDims {
            m: fpg,
            k: kg,
            n: nsp,
        };

        if self.per_image {
            // Caffe: one column buffer, reused image by image; one GEMM
            // per (image, group).
            let col = sim.mem.alloc(kdim * nsp);
            let simulate_upto = if self.replicate_batch { n.min(2) } else { n };
            for img in 0..simulate_upto {
                let s = launch_im2col(sim, bi, col, g, img, 1, 0, self.sample);
                rep.push(format!("im2col[{img}]"), s);
                for gi in 0..groups {
                    let s = launch_gemm(
                        sim,
                        bw,
                        col,
                        bo,
                        dims,
                        GemmBatch::single_at(
                            gi * fpg * kg,
                            gi * kg * nsp,
                            img * fn_ * nsp + gi * fpg * nsp,
                        ),
                        self.sample,
                    );
                    rep.push(format!("sgemm[{img}.{gi}]"), s);
                }
            }
            if simulate_upto < n {
                // replicate the steady-state image's launch set
                let set = 1 + groups;
                let steady: Vec<_> = rep.launches[rep.launches.len() - set..].to_vec();
                for img in simulate_upto..n {
                    for (name, s) in &steady {
                        rep.push(format!("{name} (replicated as [{img}])"), s.clone());
                    }
                }
            }
        } else {
            // cuDNN GEMM: whole-batch workspace + one batched SGEMM per
            // group.
            let col = sim.mem.alloc(n * kdim * nsp);
            let s = launch_im2col(sim, bi, col, g, 0, n, 0, self.sample);
            rep.push("im2col_batched", s);
            for gi in 0..groups {
                let s = launch_gemm(
                    sim,
                    bw,
                    col,
                    bo,
                    dims,
                    GemmBatch {
                        batch: n,
                        stride_a: 0,
                        stride_b: kdim * nsp,
                        stride_c: fn_ * nsp,
                        base_a: gi * fpg * kg,
                        base_b: gi * kg * nsp,
                        base_c: gi * fpg * nsp,
                        ..GemmBatch::single()
                    },
                    self.sample,
                );
                rep.push(format!("sgemm_batched[{gi}]"), s);
            }
        }

        if self.per_image {
            // one cuBLAS dispatch per (image, group) in Caffe's loop
            rep.add_api_overhead(crate::CUBLAS_CALL_OVERHEAD_S * (n * groups) as f64);
        } else {
            rep.add_api_overhead(crate::CUDNN_CALL_OVERHEAD_S * groups as f64);
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

    fn check(algo: Im2colGemm, n: usize, ic: usize, hw: usize, fn_: usize, f: usize) {
        let mut rng = TensorRng::new((n * 7 + ic + hw + fn_ + f) as u64);
        let t = rng.tensor(n, ic, hw, hw);
        let b = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = algo.run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        assert_close(
            out.as_slice(),
            want.as_slice(),
            1e-4,
            1e-4,
            &format!("{n}x{ic}x{hw} fn={fn_} f={f}"),
        );
    }

    #[test]
    fn caffe_matches_reference() {
        check(Im2colGemm::caffe(), 2, 2, 10, 3, 3);
        check(Im2colGemm::caffe(), 1, 1, 12, 1, 5);
    }

    #[test]
    fn cudnn_gemm_matches_reference() {
        check(Im2colGemm::cudnn_gemm(), 2, 2, 10, 3, 3);
        check(Im2colGemm::cudnn_gemm(), 3, 1, 9, 2, 3);
    }

    #[test]
    fn caffe_launches_two_kernels_per_image() {
        let mut rng = TensorRng::new(1);
        let t = rng.tensor(4, 1, 8, 8);
        let b = rng.filter_bank(2, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, rep) = Im2colGemm::caffe().run(&mut sim, &t, &b);
        assert_eq!(rep.launches.len(), 8, "2 launches per image");
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, rep) = Im2colGemm::cudnn_gemm().run(&mut sim, &t, &b);
        assert_eq!(rep.launches.len(), 2, "batched pipeline");
    }

    fn check_geo(algo: Im2colGemm, g: memconv_tensor::ConvGeometry, seed: u64) {
        let g = g.validate().unwrap();
        let mut rng = TensorRng::new(seed);
        let t = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
        let b = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = algo.run_geo(&mut sim, &t, &b, &g);
        let want = memconv_ref::conv_nchw_ref_geo(&t, &b, &g);
        assert_close(out.as_slice(), want.as_slice(), 1e-4, 1e-4, &g.cache_key());
    }

    #[test]
    fn strided_dilated_geometries_match_reference() {
        for algo in [Im2colGemm::caffe(), Im2colGemm::cudnn_gemm()] {
            check_geo(
                algo.clone(),
                ConvGeometry::nchw(2, 2, 13, 13, 3, 3, 3).with_stride(2, 2),
                61,
            );
            check_geo(
                algo,
                ConvGeometry::nchw(1, 2, 14, 14, 2, 3, 3).with_dilation(2, 2),
                62,
            );
        }
    }

    #[test]
    fn grouped_and_depthwise_geometries_match_reference() {
        for algo in [Im2colGemm::caffe(), Im2colGemm::cudnn_gemm()] {
            check_geo(
                algo.clone(),
                ConvGeometry::nchw(2, 4, 10, 10, 6, 3, 3).with_groups(2),
                63,
            );
            check_geo(
                algo,
                ConvGeometry::nchw(1, 5, 9, 9, 5, 3, 3).with_groups(5),
                64,
            );
        }
    }

    #[test]
    fn padded_geometry_zero_extends() {
        let g = ConvGeometry::nchw(1, 2, 8, 8, 2, 3, 3)
            .with_padding(memconv_tensor::Padding::Same)
            .unwrap();
        check_geo(Im2colGemm::cudnn_gemm(), g, 65);
    }

    #[test]
    fn grouped_caffe_launches_one_gemm_per_group() {
        let g = ConvGeometry::nchw(2, 4, 8, 8, 4, 3, 3)
            .with_groups(2)
            .validate()
            .unwrap();
        let mut rng = TensorRng::new(66);
        let t = rng.tensor(2, 4, 8, 8);
        let b = rng.filter_bank(4, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, rep) = Im2colGemm::caffe().run_geo(&mut sim, &t, &b, &g);
        assert_eq!(rep.launches.len(), 2 * 3, "per image: 1 im2col + 2 gemms");
    }

    #[test]
    fn lowering_inflates_traffic_by_filter_area() {
        let mut rng = TensorRng::new(2);
        let t = rng.tensor(1, 1, 34, 34);
        let b = rng.filter_bank(1, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, rep) = Im2colGemm::caffe().run(&mut sim, &t, &b);
        let s = rep.totals();
        // col writes ≈ 9 × input reads: gst dominated by the lowered matrix
        let out_elems = 32 * 32u64;
        let col_sectors_min = 9 * out_elems * 4 / 32;
        assert!(
            s.gst_transactions >= col_sectors_min,
            "{} < {}",
            s.gst_transactions,
            col_sectors_min
        );
    }
}
