//! Extension: **strided** convolution with column reuse — CNNs stride
//! their stem layers (AlexNet conv1 uses stride 4), and the paper's
//! shuffle idea generalizes cleanly.
//!
//! With stride `s`, lane `t`'s base input column is `s·(X0 + t)`, so lane
//! `t + d` already holds columns `s·t'+ k'` for `k' < s` once each lane
//! loads its `s` *base slots*. The remaining slots arrive by **uniform
//! `shfl_down`**: slot `k` is lane `t + ⌊k/s⌋`'s base slot `k mod s` —
//! both the shuffle distance and the source slot are compile-time
//! constants, so (like Algorithm 1) the buffer stays in registers, and
//! unlike Algorithm 1 no pack/shift selection is needed at all because the
//! source slot is the same in every lane. The last `⌊k/s⌋` lanes of the
//! warp have no shuffle source and fill those slots with masked direct
//! loads (the usual halo predicate).
//!
//! Loads per row drop from `FW` to `s` (+ halo), so column reuse pays off
//! whenever `s < FW`; at `s ≥ FW` windows no longer overlap and the plan
//! degenerates to direct loads. Row reuse generalizes the same way: input
//! row `iy` feeds outputs `⌈(iy−FH+1)/s⌉ ..= ⌊iy/s⌋` of the tile.

use crate::kernel2d::OursConfig;
use memconv_gpusim::{BufId, GpuSim, KernelStats, LaneMask, LaunchConfig, VF, VU, WARP};
use memconv_tensor::{Filter2D, Image2D};

/// The strided exchange plan: which slots are loaded and which arrive via
/// `shfl_down`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridedPlan {
    /// Filter width.
    pub fw: usize,
    /// Column stride.
    pub stride: usize,
    /// Slots loaded by every lane (`k < min(stride, fw)`).
    pub base_slots: usize,
    /// `(slot, shfl_down distance, source base slot)` for the rest.
    pub exchanges: Vec<(usize, usize, usize)>,
}

impl StridedPlan {
    /// Build the plan for `fw` and `stride ≥ 1`.
    pub fn new(fw: usize, stride: usize) -> Self {
        assert!(fw >= 1 && stride >= 1);
        let base_slots = stride.min(fw);
        let exchanges = (base_slots..fw)
            .map(|k| (k, k / stride, k % stride))
            .collect();
        StridedPlan {
            fw,
            stride,
            base_slots,
            exchanges,
        }
    }

    /// Full-warp loads issued per row (`min(s, FW)`).
    pub fn num_base_loads(&self) -> usize {
        self.base_slots
    }

    /// Shuffles per row.
    pub fn num_shuffles(&self) -> usize {
        self.exchanges.len()
    }
}

/// Per-output contributions of input row `iy` under vertical stride:
/// `(tile-relative output row, filter row)` pairs, ascending.
fn contributions_strided(
    iy: usize,
    fh: usize,
    stride: usize,
    tile_start: usize,
    tile_len: usize,
    oh: usize,
) -> Vec<(usize, usize)> {
    let lo_o = iy.saturating_sub(fh - 1).div_ceil(stride).max(tile_start);
    let hi_o = (iy / stride).min((tile_start + tile_len).min(oh).saturating_sub(1));
    let mut out = Vec::new();
    let mut o = lo_o;
    while o <= hi_o && oh > 0 {
        let r = iy - o * stride;
        if r < fh {
            out.push((o, r));
        }
        o += 1;
    }
    out
}

/// Launch the strided fused kernel (valid padding).
#[allow(clippy::too_many_arguments)]
pub fn launch_conv2d_ours_strided(
    sim: &mut GpuSim,
    input: BufId,
    filter: BufId,
    output: BufId,
    ih: usize,
    iw: usize,
    fh: usize,
    fw: usize,
    stride_h: usize,
    stride_w: usize,
    cfg: &OursConfig,
) -> KernelStats {
    assert!(ih >= fh && iw >= fw, "filter larger than input");
    assert!(stride_h >= 1 && stride_w >= 1);
    let oh = (ih - fh) / stride_h + 1;
    let ow = (iw - fw) / stride_w + 1;
    let t_rows = cfg.rows_per_thread;
    let cols_per_block = WARP * cfg.block_warps;
    let gx = ow.div_ceil(cols_per_block) as u32;
    let gy = oh.div_ceil(t_rows) as u32;
    let plan = StridedPlan::new(fw, stride_w);
    let launch =
        LaunchConfig::grid2d(gx, gy, (WARP * cfg.block_warps) as u32).with_sample(cfg.sample);

    sim.launch(&launch, |blk| {
        let (bx, by, _) = blk.block_idx;
        blk.each_warp(|w| {
            let x0 = (bx as usize * cfg.block_warps + w.warp_id) * WARP;
            if x0 >= ow {
                return;
            }
            let y0 = by as usize * t_rows;
            if y0 >= oh {
                return;
            }
            let lane = w.lane_id();
            // lane t's base input column
            let base_col = |l: usize| (x0 + l) * stride_w;

            let mut fvals = vec![0.0f32; fh * fw];
            w.const_load_row(filter, 0, &mut fvals);
            let mut acc = vec![VF::splat(0.0); t_rows];
            // The row's slots, reused for every row (each row writes all).
            let mut slots = vec![VF::splat(0.0); fw];

            let first_in_row = y0 * stride_h;
            let last_in_row = ((y0 + t_rows - 1).min(oh - 1) * stride_h + fh).min(ih);
            for iy in first_in_row..last_in_row {
                let contribs = contributions_strided(iy, fh, stride_h, y0, t_rows, oh);
                if contribs.is_empty() {
                    continue; // rows skipped entirely by the stride
                }
                let row_start = iy * iw;
                // --- materialize the FW slots ------------------------------
                if cfg.column_reuse && stride_w < fw {
                    for (k, slot) in slots.iter_mut().enumerate().take(plan.base_slots) {
                        let mask = LaneMask::from_fn(|l| base_col(l) + k < iw);
                        let idx =
                            VU::from_fn(|l| (row_start + (base_col(l) + k).min(iw - 1)) as u32);
                        *slot = w.gld(input, &idx, mask);
                    }
                    for &(k, delta, src) in &plan.exchanges {
                        let shuffled = w.shfl_down(&slots[src], delta);
                        // tail lanes have no source: load directly (masked)
                        let tail = LaneMask::from_fn(|l| l + delta >= WARP && base_col(l) + k < iw);
                        if tail.is_empty() {
                            slots[k] = shuffled;
                        } else {
                            let idx =
                                VU::from_fn(|l| (row_start + (base_col(l) + k).min(iw - 1)) as u32);
                            let loaded = w.gld(input, &idx, tail);
                            slots[k] = loaded.select(tail, &shuffled);
                        }
                    }
                } else {
                    for (k, slot) in slots.iter_mut().enumerate() {
                        let mask = LaneMask::from_fn(|l| base_col(l) + k < iw);
                        let idx =
                            VU::from_fn(|l| (row_start + (base_col(l) + k).min(iw - 1)) as u32);
                        *slot = w.gld(input, &idx, mask);
                    }
                }
                // --- accumulate -------------------------------------------
                for (o, fr) in contribs {
                    let t = o - y0;
                    w.fma_row(&mut acc[t], &slots, &fvals[fr * fw..][..fw]);
                }
            }

            let store_mask = lane.lt_scalar((ow - x0) as u32);
            for (t, &a) in acc.iter().enumerate() {
                let oy = y0 + t;
                if oy >= oh {
                    break;
                }
                let idx = lane + (oy * ow + x0) as u32;
                w.gst(output, &idx, &a, store_mask);
            }
        });
    })
}

/// Convenience wrapper: upload, run, download.
pub fn conv2d_ours_strided(
    sim: &mut GpuSim,
    input: &Image2D,
    filter: &Filter2D,
    stride_h: usize,
    stride_w: usize,
    cfg: &OursConfig,
) -> (Image2D, KernelStats) {
    let (ih, iw) = (input.h(), input.w());
    let (fh, fw) = (filter.fh(), filter.fw());
    let oh = (ih - fh) / stride_h + 1;
    let ow = (iw - fw) / stride_w + 1;
    let bi = sim.mem.upload_shared(input.shared());
    let bf = sim.mem.upload(filter.as_slice());
    let bo = sim.mem.alloc(oh * ow);
    let stats =
        launch_conv2d_ours_strided(sim, bi, bf, bo, ih, iw, fh, fw, stride_h, stride_w, cfg);
    let out = Image2D::from_vec(oh, ow, sim.mem.take(bo)).expect("shape by construction");
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv2d_ref_strided;
    use memconv_tensor::generate::TensorRng;

    #[test]
    fn plan_structure() {
        let p = StridedPlan::new(5, 2);
        assert_eq!(p.base_slots, 2);
        assert_eq!(
            p.exchanges,
            vec![(2, 1, 0), (3, 1, 1), (4, 2, 0)],
            "slot k from lane t+k/2, base slot k%2"
        );
        let p = StridedPlan::new(3, 4);
        assert_eq!(p.base_slots, 3, "s >= fw degenerates to direct");
        assert!(p.exchanges.is_empty());
    }

    #[test]
    fn strided_contributions_partition_macs() {
        for (fh, stride, oh) in [(3usize, 2usize, 7usize), (5, 3, 4), (3, 4, 5), (1, 2, 6)] {
            let ih = (oh - 1) * stride + fh;
            let mut count = vec![vec![0u32; fh]; oh];
            for iy in 0..ih {
                for (o, r) in contributions_strided(iy, fh, stride, 0, oh, oh) {
                    count[o][r] += 1;
                }
            }
            for (o, row) in count.iter().enumerate() {
                for (r, &c) in row.iter().enumerate() {
                    assert_eq!(c, 1, "fh={fh} s={stride} o={o} r={r}");
                }
            }
        }
    }

    fn check(h: usize, w: usize, f: usize, sh: usize, sw: usize, cfg: &OursConfig) {
        let mut rng = TensorRng::new((h * 7 + w * 3 + f + sh * 11 + sw) as u64);
        let img = rng.image(h, w);
        let filt = rng.filter(f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = conv2d_ours_strided(&mut sim, &img, &filt, sh, sw, cfg);
        let want = conv2d_ref_strided(&img, &filt, sh, sw);
        assert_eq!(
            out.as_slice(),
            want.as_slice(),
            "{h}x{w} f={f} stride=({sh},{sw}) cfg={cfg:?}"
        );
    }

    #[test]
    fn bitexact_across_strides_and_filters() {
        for f in [3usize, 5, 7] {
            for (sh, sw) in [(1, 1), (2, 2), (1, 2), (3, 1), (2, 3), (4, 4)] {
                check(23, 70, f, sh, sw, &OursConfig::full());
            }
        }
    }

    #[test]
    fn bitexact_with_ablations() {
        for cfg in [
            OursConfig::column_only(),
            OursConfig::row_only(),
            OursConfig::direct(),
        ] {
            check(17, 68, 5, 2, 2, &cfg);
        }
    }

    #[test]
    fn stride_one_matches_unit_stride_kernel_traffic() {
        let mut rng = TensorRng::new(9);
        let img = rng.image(40, 96);
        let filt = rng.filter(5, 5);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (a, _) = conv2d_ours_strided(&mut sim, &img, &filt, 1, 1, &OursConfig::full());
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (b, _) = crate::kernel2d::conv2d_ours(&mut sim, &img, &filt, &OursConfig::full());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn column_reuse_still_pays_when_stride_below_filter_width() {
        let mut rng = TensorRng::new(10);
        let img = rng.image(32, 130);
        let filt = rng.filter(5, 5);
        let loads = |column_reuse: bool| {
            let cfg = OursConfig {
                column_reuse,
                rows_per_thread: 1,
                ..OursConfig::full()
            };
            let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
            let (_, s) = conv2d_ours_strided(&mut sim, &img, &filt, 1, 2, &cfg);
            s.gld_requests
        };
        let with = loads(true);
        let without = loads(false);
        // plan: 2 base loads + 3 tail-masked loads vs 5 full loads — the
        // requests tie but transactions shrink; check both dimensions
        assert!(with <= without, "{with} vs {without}");

        let txns = |column_reuse: bool| {
            let cfg = OursConfig {
                column_reuse,
                rows_per_thread: 1,
                ..OursConfig::full()
            };
            let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
            let (_, s) = conv2d_ours_strided(&mut sim, &img, &filt, 1, 2, &cfg);
            s.gld_transactions
        };
        assert!(
            txns(true) < txns(false),
            "{} vs {}",
            txns(true),
            txns(false)
        );
    }
}
