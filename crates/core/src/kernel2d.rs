//! The fused single-channel 2D convolution kernel ("ours" in the paper's
//! Fig. 3): column reuse along the width dimension, row reuse along the
//! height dimension, all accumulators in registers.
//!
//! Thread mapping: each warp computes a 32-column × `rows_per_thread`-row
//! tile of the output. Lane `l` of the warp owns output column
//! `x0 + l`; its `rows_per_thread` outputs live in register accumulators.
//! Input rows stream through the tile exactly once (row reuse); each row's
//! columns are materialized with the shuffle plan (column reuse).

use crate::column_reuse::{load_row_columns_clipped, load_row_columns_direct_clipped};
use crate::plan::ColumnPlan;
use crate::row_reuse::contributions_tiled;
use memconv_gpusim::{BufId, GpuSim, KernelStats, LaunchConfig, SampleMode, VF, WARP};
use memconv_tensor::{Filter2D, Image2D};

/// Tuning and ablation knobs for the fused kernel.
#[derive(Debug, Clone)]
pub struct OursConfig {
    /// Use the shuffle-based column-reuse loads (paper §II-A). When false,
    /// each lane loads all `FW` columns directly.
    pub column_reuse: bool,
    /// Output rows accumulated per thread (row-reuse tile height, paper
    /// §II-B). `1` disables row reuse.
    pub rows_per_thread: usize,
    /// Warps per thread block.
    pub block_warps: usize,
    /// Block sampling for large grids (performance runs only).
    pub sample: SampleMode,
}

impl Default for OursConfig {
    fn default() -> Self {
        OursConfig {
            column_reuse: true,
            rows_per_thread: 8,
            block_warps: 4,
            sample: SampleMode::Full,
        }
    }
}

impl OursConfig {
    /// The paper's full optimization (both reuses).
    pub fn full() -> Self {
        OursConfig::default()
    }

    /// Column reuse only (ablation).
    pub fn column_only() -> Self {
        OursConfig {
            rows_per_thread: 1,
            ..OursConfig::default()
        }
    }

    /// Row reuse only (ablation).
    pub fn row_only() -> Self {
        OursConfig {
            column_reuse: false,
            ..OursConfig::default()
        }
    }

    /// Neither optimization: the direct baseline expressed in the same
    /// kernel skeleton (Fig. 1a flow).
    pub fn direct() -> Self {
        OursConfig {
            column_reuse: false,
            rows_per_thread: 1,
            ..OursConfig::default()
        }
    }

    /// Set the sampling mode.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

/// Launch the fused kernel on an already-uploaded image (valid padding).
///
/// * `input` — `ih × iw` image buffer;
/// * `filter` — `fh × fw` weights (constant memory);
/// * `output` — `oh × ow` destination buffer.
#[allow(clippy::too_many_arguments)]
pub fn launch_conv2d_ours(
    sim: &mut GpuSim,
    input: BufId,
    filter: BufId,
    output: BufId,
    ih: usize,
    iw: usize,
    fh: usize,
    fw: usize,
    cfg: &OursConfig,
) -> KernelStats {
    launch_conv2d_ours_padded(sim, input, filter, output, ih, iw, fh, fw, 0, 0, cfg)
}

/// The fused kernel with symmetric zero padding (`pad_h`/`pad_w` on each
/// side). Padding is *implicit*: out-of-image loads are predicated off,
/// which yields exactly the 0.0 the padded convolution needs — no staging
/// copy, no extra traffic. With `pad = (F−1)/2` this is a `Same`
/// convolution.
#[allow(clippy::too_many_arguments)]
pub fn launch_conv2d_ours_padded(
    sim: &mut GpuSim,
    input: BufId,
    filter: BufId,
    output: BufId,
    ih: usize,
    iw: usize,
    fh: usize,
    fw: usize,
    pad_h: usize,
    pad_w: usize,
    cfg: &OursConfig,
) -> KernelStats {
    let (vh, vw) = (ih + 2 * pad_h, iw + 2 * pad_w); // virtual padded dims
    assert!(vh >= fh && vw >= fw, "filter larger than padded input");
    assert!(cfg.rows_per_thread >= 1 && cfg.block_warps >= 1);
    let (oh, ow) = (vh - fh + 1, vw - fw + 1);
    let t_rows = cfg.rows_per_thread;
    let cols_per_block = WARP * cfg.block_warps;
    let gx = ow.div_ceil(cols_per_block) as u32;
    let gy = oh.div_ceil(t_rows) as u32;
    let plan = ColumnPlan::new(fw);
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
            // First input column this warp touches, in real (unpadded)
            // coordinates — negative under left padding.
            let col0 = x0 as i64 - pad_w as i64;

            // Filter weights from constant memory into registers.
            let mut fvals: Vec<VF> = Vec::with_capacity(fh * fw);
            for i in 0..fh * fw {
                fvals.push(w.const_load(filter, i as u32));
            }

            // Register accumulators (one output row tile per lane) and the
            // row's column slots, reused for every row.
            let mut acc = vec![VF::splat(0.0); t_rows];
            let mut slots = vec![VF::splat(0.0); fw];

            let last_in_row = (y0 + t_rows + fh - 1).min(vh);
            for vy in y0..last_in_row {
                // real input row; rows in the padding band contribute zero
                let iy = vy as i64 - pad_h as i64;
                if iy >= 0 && (iy as usize) < ih {
                    let row_start = (iy as usize * iw) as u32;
                    if cfg.column_reuse {
                        load_row_columns_clipped(w, input, row_start, col0, iw, &plan, &mut slots);
                    } else {
                        load_row_columns_direct_clipped(w, input, row_start, col0, iw, &mut slots);
                    }
                    for (o, fr) in contributions_tiled(vy, fh, y0, t_rows, oh) {
                        let t = o - y0;
                        for (s, &slot) in slots.iter().enumerate() {
                            acc[t] = w.fma(slot, fvals[fr * fw + s], acc[t]);
                        }
                    }
                }
            }

            // Store the tile.
            let lane = w.lane_id();
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

/// Convenience wrapper with explicit padding: upload, run, download.
pub fn conv2d_ours_padded(
    sim: &mut GpuSim,
    input: &Image2D,
    filter: &Filter2D,
    pad: memconv_tensor::Padding,
    cfg: &OursConfig,
) -> (Image2D, KernelStats) {
    let (ih, iw) = (input.h(), input.w());
    let (fh, fw) = (filter.fh(), filter.fw());
    let g = memconv_tensor::ConvGeometry::single(ih, iw, fh)
        .with_padding(pad)
        .expect("padding policy")
        .validate()
        .expect("geometry");
    let _ = g.f_w; // square filters in ConvGeometry::single; fw checked below
    assert_eq!(fh, fw, "conv2d_ours_padded expects square filters");
    let (oh, ow) = (g.out_h(), g.out_w());
    let bi = sim.mem.upload_shared(input.shared());
    let bf = sim.mem.upload(filter.as_slice());
    let bo = sim.mem.alloc(oh * ow);
    let stats = launch_conv2d_ours_padded(sim, bi, bf, bo, ih, iw, fh, fw, g.pad_h, g.pad_w, cfg);
    let out = Image2D::from_vec(oh, ow, sim.mem.take(bo)).expect("shape by construction");
    (out, stats)
}

/// Convenience wrapper: upload, run, download.
pub fn conv2d_ours(
    sim: &mut GpuSim,
    input: &Image2D,
    filter: &Filter2D,
    cfg: &OursConfig,
) -> (Image2D, KernelStats) {
    let (ih, iw) = (input.h(), input.w());
    let (fh, fw) = (filter.fh(), filter.fw());
    let (oh, ow) = (ih - fh + 1, iw - fw + 1);
    let bi = sim.mem.upload_shared(input.shared());
    let bf = sim.mem.upload(filter.as_slice());
    let bo = sim.mem.alloc(oh * ow);
    let stats = launch_conv2d_ours(sim, bi, bf, bo, ih, iw, fh, fw, cfg);
    let out = Image2D::from_vec(oh, ow, sim.mem.take(bo)).expect("shape by construction");
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv2d_ref;
    use memconv_tensor::generate::TensorRng;

    fn check_matches_reference(ih: usize, iw: usize, f: usize, cfg: &OursConfig) {
        let mut rng = TensorRng::new((ih * 31 + iw * 7 + f) as u64);
        let img = rng.image(ih, iw);
        let filt = rng.filter(f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = conv2d_ours(&mut sim, &img, &filt, cfg);
        let want = conv2d_ref(&img, &filt);
        assert_eq!(
            out.as_slice(),
            want.as_slice(),
            "ih={ih} iw={iw} f={f} cfg={cfg:?}"
        );
    }

    #[test]
    fn full_config_bitexact_3x3() {
        check_matches_reference(20, 40, 3, &OursConfig::full());
    }

    #[test]
    fn full_config_bitexact_5x5() {
        check_matches_reference(24, 50, 5, &OursConfig::full());
    }

    #[test]
    fn awkward_sizes_and_all_ablations() {
        for f in [3usize, 5, 7] {
            for (ih, iw) in [(f, f), (f + 1, f), (9, 33), (13, 65), (17, 31)] {
                if ih < f || iw < f {
                    continue;
                }
                for cfg in [
                    OursConfig::full(),
                    OursConfig::column_only(),
                    OursConfig::row_only(),
                    OursConfig::direct(),
                ] {
                    check_matches_reference(ih, iw, f, &cfg);
                }
            }
        }
    }

    #[test]
    fn row_reuse_reduces_load_transactions() {
        let mut rng = TensorRng::new(1);
        let img = rng.image(64, 64);
        let filt = rng.filter(5, 5);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, full) = conv2d_ours(&mut sim, &img, &filt, &OursConfig::full());
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, col_only) = conv2d_ours(&mut sim, &img, &filt, &OursConfig::column_only());
        assert!(
            full.gld_transactions < col_only.gld_transactions,
            "row reuse must cut row re-reads: {} vs {}",
            full.gld_transactions,
            col_only.gld_transactions
        );
    }

    #[test]
    fn column_reuse_reduces_load_transactions() {
        let mut rng = TensorRng::new(2);
        let img = rng.image(64, 64);
        let filt = rng.filter(5, 5);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, full) = conv2d_ours(&mut sim, &img, &filt, &OursConfig::full());
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, row_only) = conv2d_ours(&mut sim, &img, &filt, &OursConfig::row_only());
        assert!(
            full.gld_transactions < row_only.gld_transactions,
            "column reuse must cut column re-reads: {} vs {}",
            full.gld_transactions,
            row_only.gld_transactions
        );
        assert!(full.shfl_instrs > 0 && row_only.shfl_instrs == 0);
    }

    #[test]
    fn fma_count_matches_mac_count() {
        // Every (output, tap) product is one warp FMA over 32 lanes; with
        // OW a multiple of 32 and no partial warps the count is exact.
        let (ih, iw, f) = (10, 32 + 4, 5);
        let (oh, ow) = (ih - f + 1, iw - f + 1); // ow = 32? iw-f+1 = 32 ✓
        assert_eq!(ow % WARP, 0);
        let mut rng = TensorRng::new(3);
        let img = rng.image(ih, iw);
        let filt = rng.filter(f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, stats) = conv2d_ours(&mut sim, &img, &filt, &OursConfig::full());
        assert_eq!(
            stats.fma_instrs as usize,
            oh * (ow / WARP) * f * f,
            "one warp-FMA per output-row-tap"
        );
    }
}

#[cfg(test)]
mod padding_tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv2d_ref_padded;
    use memconv_tensor::generate::TensorRng;
    use memconv_tensor::Padding;

    #[test]
    fn same_padding_bitexact() {
        let mut rng = TensorRng::new(71);
        for f in [3usize, 5, 7] {
            let img = rng.image(20, 37);
            let filt = rng.filter(f, f);
            let mut sim = GpuSim::new(DeviceConfig::test_tiny());
            let (out, _) =
                conv2d_ours_padded(&mut sim, &img, &filt, Padding::Same, &OursConfig::full());
            assert_eq!((out.h(), out.w()), (20, 37), "Same keeps shape");
            let want = conv2d_ref_padded(&img, &filt, (f - 1) / 2, (f - 1) / 2);
            assert_eq!(out.as_slice(), want.as_slice(), "f={f}");
        }
    }

    #[test]
    fn explicit_asymmetric_filter_amounts() {
        let mut rng = TensorRng::new(72);
        let img = rng.image(12, 12);
        let filt = rng.filter(3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = conv2d_ours_padded(
            &mut sim,
            &img,
            &filt,
            Padding::Explicit(2, 1),
            &OursConfig::full(),
        );
        let want = conv2d_ref_padded(&img, &filt, 2, 1);
        assert_eq!((out.h(), out.w()), (want.h(), want.w()));
        assert_eq!(out.as_slice(), want.as_slice());
    }

    #[test]
    fn padded_ablations_agree() {
        let mut rng = TensorRng::new(73);
        let img = rng.image(17, 23);
        let filt = rng.filter(5, 5);
        let want = conv2d_ref_padded(&img, &filt, 2, 2);
        for cfg in [
            OursConfig::full(),
            OursConfig::column_only(),
            OursConfig::row_only(),
            OursConfig::direct(),
        ] {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny());
            let (out, _) = conv2d_ours_padded(&mut sim, &img, &filt, Padding::Same, &cfg);
            assert_eq!(out.as_slice(), want.as_slice(), "{cfg:?}");
        }
    }

    #[test]
    fn padding_band_issues_no_loads() {
        // A 1-row image with huge vertical padding: only one real row is
        // ever loaded; the rest of the virtual rows are skipped entirely.
        let img = Image2D::from_fn(1, 64, |_, c| c as f32);
        let filt = TensorRng::new(74).filter(3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (_, stats) = conv2d_ours_padded(
            &mut sim,
            &img,
            &filt,
            Padding::Explicit(4, 0),
            &OursConfig::column_only(),
        );
        // 2 plan loads × (outputs rows that see the real row) warps; far
        // fewer than if padded rows were fetched
        assert!(stats.gld_requests <= 2 * 3 * 2, "{}", stats.gld_requests);
    }
}
