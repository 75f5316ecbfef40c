//! Implicit GEMM convolution — cuDNN's `IMPLICIT_GEMM` and
//! `IMPLICIT_PRECOMP_GEMM` algorithms.
//!
//! The convolution is evaluated as the GEMM `C = W · B` with
//! `W: FN × K` (the filter bank, `K = IC·FH·FW`) and `B` the *virtual*
//! im2col matrix `K × (N·OH·OW)`, whose elements are gathered straight
//! from the input tensor while the tiles are staged into shared memory —
//! nothing is materialized in global memory.
//!
//! * `implicit`: the gather indices are recomputed in the inner loop
//!   (integer divisions per element).
//! * `precomp`: a setup kernel precomputes the per-`k` offset table once;
//!   the main loop replaces the index arithmetic with one cached table
//!   read — cuDNN's "precomputed indices" variant.

use memconv_core::api::ConvNchwAlgorithm;
use memconv_gpusim::{BufId, GpuSim, LaneMask, LaunchConfig, RunReport, SampleMode, VF, VU, WARP};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

const BM: usize = 64;
const BN: usize = 32;
const BK: usize = 8;

/// cuDNN `IMPLICIT_GEMM` analog.
#[derive(Debug, Clone)]
pub struct ImplicitGemm {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

/// cuDNN `IMPLICIT_PRECOMP_GEMM` analog.
#[derive(Debug, Clone)]
pub struct PrecompGemm {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl ImplicitGemm {
    /// New instance with full simulation.
    pub fn new() -> Self {
        ImplicitGemm {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl PrecompGemm {
    /// New instance with full simulation.
    pub fn new() -> Self {
        PrecompGemm {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl Default for ImplicitGemm {
    fn default() -> Self {
        ImplicitGemm::new()
    }
}

impl Default for PrecompGemm {
    fn default() -> Self {
        PrecompGemm::new()
    }
}

/// Shared kernel body. With `precomp`, a per-`k` offset table built by a
/// setup launch replaces the in-loop index decomposition.
fn run_implicit(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    precomp: bool,
    sample: SampleMode,
) -> (Tensor4, RunReport) {
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
    let nsp = oh * ow;
    let kdim = ic * fh * fw;
    let ncols = n * nsp;
    let mut rep = RunReport::new();

    let bi = sim.mem.upload_shared(input.shared());
    let bw = sim.mem.upload(weights.as_slice());
    let bo = sim.mem.alloc(g.out_elems());

    // Precompute the k → input-plane offset table in a setup launch.
    let offsets: Option<BufId> = if precomp {
        let tbl = sim.mem.alloc(kdim);
        let blocks = (kdim as u32).div_ceil(32);
        let stats = sim.launch(&LaunchConfig::linear(blocks, 32), |blk| {
            let bx = blk.block_idx.0;
            blk.each_warp(|w| {
                let tid = VU::from_fn(|l| bx * 32 + l as u32);
                let mask = tid.lt_scalar(kdim as u32);
                let val = VF::from_fn(|l| {
                    let kidx = tid.lane(l) as usize % kdim.max(1);
                    let (c, r, s) = (kidx / (fh * fw), kidx / fw % fh, kidx % fw);
                    (c * ih * iw + r * iw + s) as f32
                });
                w.count_fp(6);
                w.gst(tbl, &tid, &val, mask);
            });
        });
        rep.push("precomp_offsets", stats);
        Some(tbl)
    } else {
        None
    };

    let gx = ncols.div_ceil(BN) as u32;
    let gy = fn_.div_ceil(BM) as u32;
    let smem_words = BM * BK + BK * BN;
    let cfg = LaunchConfig::grid2d(gx, gy, 256)
        .with_shared(smem_words)
        .with_sample(sample);

    let stats = sim.launch(&cfg, |blk| {
        let (bx, by, _) = blk.block_idx;
        let n0 = bx as usize * BN; // column (image, spatial) base
        let m0 = by as usize * BM; // filter base
        let warps = blk.num_warps();
        let mut acc = vec![[VF::splat(0.0); BM / 8]; warps];

        let ktiles = kdim.div_ceil(BK);
        for kt in 0..ktiles {
            let k0 = kt * BK;
            blk.each_warp(|w| {
                let lane = w.lane_id();
                // --- stage W (filter) tile: 512 elements, 2 per thread ----
                for rep_i in 0..2 {
                    let flat0 = (rep_i * warps + w.warp_id) * WARP;
                    let flat = lane + flat0 as u32;
                    let i = flat.map(|v| v / BK as u32);
                    let j = flat.map(|v| v % BK as u32);
                    let mask = LaneMask::from_fn(|l| {
                        m0 + (i.lane(l) as usize) < fn_ && k0 + (j.lane(l) as usize) < kdim
                    });
                    let gidx = VU::from_fn(|l| {
                        ((m0 + i.lane(l) as usize).min(fn_ - 1) * kdim
                            + (k0 + j.lane(l) as usize).min(kdim - 1))
                            as u32
                    });
                    let v = w.gld(bw, &gidx, mask);
                    let zero = VF::splat(0.0);
                    let v = v.select(mask, &zero);
                    w.sst(&flat, &v, LaneMask::ALL);
                }
                // --- stage B tile: gather from the input tensor -----------
                let flat = lane + (w.warp_id * WARP) as u32;
                let r = flat.map(|v| v / BN as u32);
                let cix = flat.map(|v| v % BN as u32);
                let mask = LaneMask::from_fn(|l| {
                    k0 + (r.lane(l) as usize) < kdim && n0 + (cix.lane(l) as usize) < ncols
                });
                let v = if precomp {
                    // one cached read of the offset table per lane
                    let tbl = offsets.expect("precomp table");
                    let tidx = VU::from_fn(|l| ((k0 + r.lane(l) as usize) % kdim) as u32);
                    let offs = w.gld(tbl, &tidx, mask);
                    let gidx = VU::from_fn(|l| {
                        let col = (n0 + cix.lane(l) as usize).min(ncols - 1);
                        let (img, sp) = (col / nsp, col % nsp);
                        let (oy, ox) = (sp / ow, sp % ow);
                        (img * ic * ih * iw + offs.lane(l) as usize + oy * iw + ox) as u32
                    });
                    w.count_fp(4);
                    w.gld(bi, &gidx, mask)
                } else {
                    let gidx = VU::from_fn(|l| {
                        let kidx = (k0 + r.lane(l) as usize).min(kdim - 1);
                        let col = (n0 + cix.lane(l) as usize).min(ncols - 1);
                        let (c, rr, ss) = (kidx / (fh * fw), kidx / fw % fh, kidx % fw);
                        let (img, sp) = (col / nsp, col % nsp);
                        let (oy, ox) = (sp / ow, sp % ow);
                        ((img * ic + c) * ih * iw + (oy + rr) * iw + (ox + ss)) as u32
                    });
                    // full index decomposition in the inner loop
                    w.count_fp(12);
                    w.gld(bi, &gidx, mask)
                };
                let zero = VF::splat(0.0);
                let v = v.select(mask, &zero);
                let sidx = flat + (BM * BK) as u32;
                w.sst(&sidx, &v, LaneMask::ALL);
            });
            blk.barrier();
            blk.each_warp(|w| {
                let lane = w.lane_id();
                let rows = &mut acc[w.warp_id];
                for quad in 0..BK / 4 {
                    let mut avals = [[VF::splat(0.0); 4]; BM / 8];
                    for (r, a) in avals.iter_mut().enumerate() {
                        let arow = w.warp_id * 8 + r;
                        let aidx = VU::splat((arow * BK + quad * 4) as u32);
                        *a = w.sld_vec::<4>(&aidx, LaneMask::ALL);
                    }
                    #[allow(clippy::needless_range_loop)]
                    for kk_in in 0..4 {
                        let kk = quad * 4 + kk_in;
                        let bidx = lane + (BM * BK + kk * BN) as u32;
                        let bval = w.sld(&bidx, LaneMask::ALL);
                        for (r, slot) in rows.iter_mut().enumerate() {
                            *slot = w.fma(bval, avals[r][kk_in], *slot);
                        }
                    }
                }
            });
            blk.barrier();
        }

        // --- write C straight into the NCHW output ------------------------
        blk.each_warp(|w| {
            for (r, slot) in acc[w.warp_id].iter().enumerate() {
                let f = m0 + w.warp_id * 8 + r;
                if f >= fn_ {
                    break;
                }
                let mask = LaneMask::from_fn(|l| n0 + l < ncols);
                let oidx = VU::from_fn(|l| {
                    let col = (n0 + l).min(ncols - 1);
                    let (img, sp) = (col / nsp, col % nsp);
                    ((img * fn_ + f) * nsp + sp) as u32
                });
                w.gst(bo, &oidx, slot, mask);
            }
        });
    });
    rep.push(
        if precomp {
            "implicit_precomp_gemm"
        } else {
            "implicit_gemm"
        },
        stats,
    );

    rep.add_api_overhead(crate::CUDNN_CALL_OVERHEAD_S);
    let out = Tensor4::from_vec(n, fn_, oh, ow, sim.mem.take(bo)).expect("shape by construction");
    (out, rep)
}

impl ConvNchwAlgorithm for ImplicitGemm {
    fn name(&self) -> &str {
        "implicit"
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        run_implicit(sim, input, weights, false, self.sample)
    }
}

impl ConvNchwAlgorithm for PrecompGemm {
    fn name(&self) -> &str {
        "precomp"
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        run_implicit(sim, input, weights, true, self.sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::{assert_close, generate::TensorRng};

    fn check(precomp: bool, n: usize, ic: usize, hw: usize, fn_: usize, f: usize) {
        let mut rng = TensorRng::new((n + ic * 3 + hw * 5 + fn_ * 7 + f) as u64);
        let t = rng.tensor(n, ic, hw, hw);
        let b = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = run_implicit(&mut sim, &t, &b, precomp, SampleMode::Full);
        let want = conv_nchw_ref(&t, &b);
        assert_close(
            out.as_slice(),
            want.as_slice(),
            1e-4,
            1e-4,
            &format!("precomp={precomp} n={n} ic={ic} hw={hw} fn={fn_} f={f}"),
        );
    }

    #[test]
    fn implicit_matches_reference() {
        check(false, 2, 2, 9, 3, 3);
        check(false, 1, 1, 12, 1, 5);
        check(false, 2, 3, 8, 70, 3); // M spans two tiles
    }

    #[test]
    fn precomp_matches_reference() {
        check(true, 2, 2, 9, 3, 3);
        check(true, 3, 1, 10, 2, 5);
    }

    #[test]
    fn nothing_is_materialized() {
        // implicit GEMM's defining property: no column-matrix stores — the
        // only stores are the outputs.
        let mut rng = TensorRng::new(8);
        let t = rng.tensor(1, 1, 20, 20);
        let b = rng.filter_bank(1, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, rep) = ImplicitGemm::new().run(&mut sim, &t, &b);
        let s = rep.totals();
        let out_sectors = (18 * 18 * 4_u64).div_ceil(32);
        assert!(
            s.gst_transactions <= out_sectors * 3,
            "stores only the output: {} vs {}",
            s.gst_transactions,
            out_sectors
        );
    }

    #[test]
    fn precomp_adds_setup_launch_but_less_inner_arithmetic() {
        let mut rng = TensorRng::new(9);
        let t = rng.tensor(1, 2, 16, 16);
        let b = rng.filter_bank(4, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, imp) = ImplicitGemm::new().run(&mut sim, &t, &b);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, pre) = PrecompGemm::new().run(&mut sim, &t, &b);
        assert_eq!(imp.launches.len(), 1);
        assert_eq!(pre.launches.len(), 2);
        assert!(pre.totals().fp_instrs < imp.totals().fp_instrs);
    }
}
