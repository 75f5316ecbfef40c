//! Shared-memory tiled direct convolution — our analog of **ArrayFire**'s
//! `convolve2` kernel: each block stages an input tile plus halo in shared
//! memory, synchronizes, and computes a 32×32 output tile from it.
//!
//! Like ArrayFire, the implementation first *evaluates* (stages) the input
//! array with a copy kernel — the JIT-array overhead a library call pays
//! that a fused hand-written kernel does not.

use memconv_core::api::ConvNchwAlgorithm;
use memconv_gpusim::{GpuSim, LaneMask, LaunchConfig, RunReport, SampleMode, VF, VU, WARP};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

const TILE: usize = 32;

/// The ArrayFire-analog tiled convolution.
#[derive(Debug, Clone)]
pub struct TiledConv {
    /// Display name.
    pub label: String,
    /// Block sampling for performance runs.
    pub sample: SampleMode,
    /// Model ArrayFire's array-staging copy before the convolution.
    pub staging_copy: bool,
}

impl TiledConv {
    /// Plain tiled convolution (no staging copy).
    pub fn new() -> Self {
        TiledConv {
            label: "tiled".into(),
            sample: SampleMode::Full,
            staging_copy: false,
        }
    }

    /// ArrayFire-analog labelling and behaviour (staging copy included).
    pub fn arrayfire() -> Self {
        TiledConv {
            label: "ArrayFire".into(),
            sample: SampleMode::Full,
            staging_copy: true,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl Default for TiledConv {
    fn default() -> Self {
        TiledConv::new()
    }
}

impl ConvNchwAlgorithm for TiledConv {
    fn name(&self) -> &str {
        &self.label
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

        let src = sim.mem.upload_shared(input.shared());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());

        // ArrayFire stages (evaluates) the array before convolving.
        let bi = if self.staging_copy {
            let staged = sim.mem.alloc(input.len());
            let total = input.len() as u32;
            let blocks = total.div_ceil(256);
            let cfg = LaunchConfig::linear(blocks, 256)
                .with_sample(SampleMode::auto(blocks as u64, 4096));
            let stats = sim.launch(&cfg, |blk| {
                let bx = blk.block_idx.0;
                blk.each_warp(|w| {
                    let tid = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
                    let mask = tid.lt_scalar(total);
                    let v = w.gld(src, &tid, mask);
                    w.gst(staged, &tid, &v, mask);
                });
            });
            rep.push("af_stage_copy", stats);
            staged
        } else {
            src
        };

        let th = TILE + fh - 1; // staged tile height
        let tw = TILE + fw - 1; // staged tile width
        let smem_words = th * tw;
        let in_plane = ih * iw;
        let out_plane = oh * ow;
        let w_plane = fh * fw;

        let gx = ow.div_ceil(TILE) as u32;
        let gy = oh.div_ceil(TILE) as u32;
        let gz = (n * fn_) as u32;
        let cfg = LaunchConfig::grid3d(gx, gy, gz, 256)
            .with_shared(smem_words)
            .with_sample(self.sample);

        let stats = sim.launch(&cfg, |blk| {
            let (bx, by, bz) = blk.block_idx;
            let img = bz as usize / fn_;
            let f = bz as usize % fn_;
            let x0 = bx as usize * TILE;
            let y0 = by as usize * TILE;
            let warps = blk.num_warps();

            // 4 output rows per warp accumulate across the channel loop.
            let mut acc = vec![[VF::splat(0.0); 4]; warps];

            for c in 0..ic {
                let plane_base = (img * ic + c) * in_plane;
                // --- stage the tile + halo ---------------------------------
                blk.each_warp(|w| {
                    let lane = w.lane_id();
                    let elems = th * tw;
                    let mut flat0 = w.warp_id * WARP;
                    while flat0 < elems {
                        let flat = lane + flat0 as u32;
                        let row = flat.map(|v| v / tw as u32);
                        let col = flat.map(|v| v % tw as u32);
                        let in_bounds = LaneMask::from_fn(|l| {
                            (flat.lane(l) as usize) < elems
                                && y0 + (row.lane(l) as usize) < ih
                                && x0 + (col.lane(l) as usize) < iw
                        });
                        let gidx = VU::from_fn(|l| {
                            (plane_base
                                + (y0 + row.lane(l) as usize).min(ih - 1) * iw
                                + (x0 + col.lane(l) as usize).min(iw - 1))
                                as u32
                        });
                        let v = w.gld(bi, &gidx, in_bounds);
                        let smask = flat.lt_scalar(elems as u32);
                        w.sst(&flat, &v, smask);
                        flat0 += WARP * warps;
                    }
                });
                blk.barrier();
                // --- compute from shared memory ----------------------------
                blk.each_warp(|w| {
                    let wbase = ((f * ic + c) * w_plane) as u32;
                    let mut fvals: Vec<VF> = Vec::with_capacity(w_plane);
                    for i in 0..w_plane as u32 {
                        fvals.push(w.const_load(bw, wbase + i));
                    }
                    let lane = w.lane_id();
                    let a = &mut acc[w.warp_id];
                    for (r_out, slot) in a.iter_mut().enumerate() {
                        let ty = w.warp_id * 4 + r_out;
                        if y0 + ty >= oh {
                            continue;
                        }
                        for r in 0..fh {
                            for s in 0..fw {
                                let sidx = lane + ((ty + r) * tw + s) as u32;
                                let v = w.sld(&sidx, LaneMask::ALL);
                                *slot = w.fma(v, fvals[r * fw + s], *slot);
                            }
                        }
                    }
                });
                blk.barrier();
            }

            // --- store the output tile ----------------------------------
            let out_base = (img * fn_ + f) * out_plane;
            blk.each_warp(|w| {
                let lane = w.lane_id();
                let store_mask = lane.lt_scalar((ow.saturating_sub(x0)) as u32);
                let a = &acc[w.warp_id];
                for (r_out, slot) in a.iter().enumerate() {
                    let ty = w.warp_id * 4 + r_out;
                    let oy = y0 + ty;
                    if oy >= oh {
                        continue;
                    }
                    let idx = lane + (out_base + oy * ow + x0) as u32;
                    w.gst(bo, &idx, slot, store_mask);
                }
            });
        });
        rep.push("tiled_conv", stats);

        if self.staging_copy {
            rep.add_api_overhead(crate::LIB_CALL_OVERHEAD_S);
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

    fn check(n: usize, ic: usize, h: usize, w: usize, fn_: usize, f: usize) {
        let mut rng = TensorRng::new((n + ic * 10 + h * 100 + f) as u64);
        let t = rng.tensor(n, ic, h, w);
        let b = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = TiledConv::new().run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        // Same accumulation order per output → bit-exact.
        assert_eq!(
            out.as_slice(),
            want.as_slice(),
            "n={n} ic={ic} {h}x{w} f={f}"
        );
        let _ = assert_close; // (kept for symmetric failure messages elsewhere)
    }

    #[test]
    fn small_tile_exact() {
        check(1, 1, 8, 8, 1, 3);
    }

    #[test]
    fn tile_spanning_sizes_exact() {
        check(1, 1, 40, 33, 1, 3);
        check(1, 2, 35, 70, 2, 5);
        check(2, 1, 33, 34, 2, 3);
    }

    #[test]
    fn arrayfire_variant_adds_staging_launch() {
        let mut rng = TensorRng::new(4);
        let t = rng.tensor(1, 1, 16, 16);
        let b = rng.filter_bank(1, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, rep) = TiledConv::arrayfire().run(&mut sim, &t, &b);
        assert_eq!(rep.launches.len(), 2);
        assert_eq!(rep.launches[0].0, "af_stage_copy");
    }

    #[test]
    fn smem_heavy_but_dram_lean() {
        let mut rng = TensorRng::new(5);
        let t = rng.tensor(1, 1, 64, 64);
        let b = rng.filter_bank(1, 1, 5, 5);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, rep) = TiledConv::new().run(&mut sim, &t, &b);
        let s = rep.totals();
        assert!(s.smem_passes > 0);
        // Halo redundancy only: global load transactions should be far
        // below FH·FW per output warp.
        let outputs_warps = (60 * 64 / 32) as u64;
        assert!(s.gld_transactions < outputs_warps * 25);
    }
}
