//! The geometry-general NCHW kernel: grouped/depthwise channels, output
//! stride, filter dilation and implicit zero padding, with the same
//! register-resident column/row-reuse structure as the unit-axes kernel
//! ([`crate::kernel_nchw`]).
//!
//! ## How the paper's two reuses generalize
//!
//! * **Column reuse** — with width stride `SW`, lane `t`'s base input
//!   column is `SW·(X0+t)`, so the [`StridedPlan`] uniform-`shfl_down`
//!   exchange (see [`crate::kernel2d_strided`]) replaces Algorithm 1:
//!   loads per row drop from `FW` to `min(SW, FW)` plus a masked tail.
//!   Dilated taps (`DW > 1`) space the columns apart so lane-to-lane
//!   overlap only exists when `SW` divides `DW·k` — the kernel falls back
//!   to direct gathered loads there, which is itself the transaction
//!   story the dilation sweep measures.
//! * **Row reuse** — input row `iy` feeds tile outputs `o` with
//!   `iy = o·SH + r·DH` for some filter row `r < FH`; the contribution
//!   walk ([`contributions_geo`]) visits them in ascending output order
//!   with ascending filter rows per output, preserving the CPU
//!   reference's accumulation order bit-for-bit.
//!
//! Groups simply restrict the channel loop: filter `f` belongs to group
//! `f / (FN/groups)` and reads that group's `IC/groups` input channels;
//! its weight plane `cg` lives at `(f·CPG + cg)·FH·FW`. Depthwise
//! (`CPG == 1`) degenerates to a single pass with no cross-channel
//! reduction — the dedicated registry kernel for that shape lives in
//! [`crate::kernel_depthwise`].

use crate::kernel2d::OursConfig;
use crate::kernel2d_strided::StridedPlan;
use memconv_gpusim::{
    BlockCtx, BufId, GpuSim, KernelStats, LaneMask, LaunchConfig, LaunchError, WarpCtx, VF, VU,
    WARP,
};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

use crate::kernel_nchw::ConvEpilogue;

/// Per-output contributions of *virtual padded* input row `vy` under
/// vertical stride `sh` and dilation `dh`: `(output row, filter row)`
/// pairs restricted to the `[tile_start, tile_start + tile_len)` tile,
/// ascending in output row, as an iterator (kernels walk it once per row
/// without allocating). A pair exists iff `vy = o·sh + r·dh` with `r < fh`.
pub fn contributions_geo(
    vy: usize,
    fh: usize,
    sh: usize,
    dh: usize,
    tile_start: usize,
    tile_len: usize,
    oh: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let outputs = if oh == 0 || tile_start >= oh {
        0..0
    } else {
        let reach = (fh - 1) * dh;
        let lo_o = vy.saturating_sub(reach).div_ceil(sh).max(tile_start);
        let hi_o = (vy / sh).min((tile_start + tile_len).min(oh) - 1);
        lo_o..hi_o + 1
    };
    outputs.filter_map(move |o| {
        let d = vy - o * sh;
        (d.is_multiple_of(dh) && d / dh < fh).then_some((o, d / dh))
    })
}

/// Build the launch geometry and kernel closure for the geometry-general
/// fused kernel. `g` must be validated; the weight bank layout is
/// `FN × IC/groups × FH × FW`.
pub fn nchw_geo_launch_parts_fused(
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
    ep: ConvEpilogue,
) -> (LaunchConfig, impl Fn(&mut BlockCtx<'_>) + Sync) {
    let (ih, iw) = (g.in_h, g.in_w);
    let (fh, fw) = (g.f_h, g.f_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let (ic, fn_) = (g.in_channels, g.out_channels);
    let cpg = g.channels_per_group();
    let fpg = g.filters_per_group();
    let (sh, sw) = (g.stride_h, g.stride_w);
    let (dh, dw) = (g.dil_h, g.dil_w);
    let (pad_h, pad_w) = (g.pad_h, g.pad_w);
    let cfg = cfg.clone();
    let t_rows = cfg.rows_per_thread;
    let cols_per_block = WARP * cfg.block_warps;
    let gx = ow.div_ceil(cols_per_block) as u32;
    let gy = oh.div_ceil(t_rows) as u32;
    let gz = (g.batch * fn_) as u32;
    // Shuffle exchange is profitable (and sound) only for dense taps with
    // overlapping windows; otherwise every slot is a direct gathered load.
    let plan = (cfg.column_reuse && dw == 1 && sw < fw).then(|| StridedPlan::new(fw, sw));
    let launch =
        LaunchConfig::grid3d(gx, gy, gz, (WARP * cfg.block_warps) as u32).with_sample(cfg.sample);

    let in_plane = ih * iw;
    let out_plane = oh * ow;
    let w_plane = fh * fw;
    let reach_h = (fh - 1) * dh; // dilated vertical filter reach

    let kernel = move |blk: &mut BlockCtx<'_>| {
        let (bx, by, bz) = blk.block_idx;
        let n = bz as usize / fn_;
        let f = bz as usize % fn_;
        let c0 = (f / fpg) * cpg; // first input channel of f's group
        blk.each_warp(|w| {
            let x0 = (bx as usize * cfg.block_warps + w.warp_id) * WARP;
            if x0 >= ow {
                return;
            }
            let y0 = by as usize * t_rows;
            if y0 >= oh {
                return;
            }
            // Lane l's tap-k input column in real (unpadded) coordinates.
            let col = |l: usize, k: usize| ((x0 + l) * sw + k * dw) as i64 - pad_w as i64;

            // The warp's registers, allocated once and reused for every
            // channel and row.
            let mut acc = vec![VF::splat(0.0); t_rows];
            let mut fvals = vec![VF::splat(0.0); w_plane];
            let mut slots = vec![VF::splat(0.0); fw];
            // Virtual padded rows this tile touches.
            let first_vy = y0 * sh;
            let last_vy = ((y0 + t_rows - 1).min(oh - 1) * sh + reach_h + 1).min(ih + 2 * pad_h);

            for cg in 0..cpg {
                let wbase = (f * cpg + cg) * w_plane;
                for (i, fv) in fvals.iter_mut().enumerate() {
                    *fv = w.const_load(weights, (wbase + i) as u32);
                }
                let plane_base = (n * ic + c0 + cg) * in_plane;
                for vy in first_vy..last_vy {
                    let mut contribs = contributions_geo(vy, fh, sh, dh, y0, t_rows, oh).peekable();
                    if contribs.peek().is_none() {
                        continue; // row skipped entirely by the stride
                    }
                    // Real input row; rows in the padding band contribute
                    // zero and issue no loads.
                    let iy = vy as i64 - pad_h as i64;
                    if iy < 0 || iy as usize >= ih {
                        continue;
                    }
                    let row_base = plane_base + iy as usize * iw;
                    // --- materialize the FW slots --------------------------
                    let full = LaneMask::ALL;
                    let gather = |w: &mut WarpCtx<'_, '_>, k: usize, m: LaneMask| {
                        let mask =
                            LaneMask::from_fn(|l| m.get(l) && (0..iw as i64).contains(&col(l, k)));
                        let idx = VU::from_fn(|l| {
                            (row_base as i64 + col(l, k).clamp(0, iw as i64 - 1)) as u32
                        });
                        w.gld(input, &idx, mask)
                    };
                    match &plan {
                        Some(plan) => {
                            for (k, slot) in slots.iter_mut().enumerate().take(plan.base_slots) {
                                *slot = gather(w, k, full);
                            }
                            for &(k, delta, src) in &plan.exchanges {
                                let shuffled = w.shfl_down(&slots[src], delta);
                                // tail lanes have no shuffle source
                                let tail = LaneMask::from_fn(|l| l + delta >= WARP);
                                let loaded = gather(w, k, tail);
                                slots[k] = loaded.select(tail, &shuffled);
                            }
                        }
                        None => {
                            for (k, slot) in slots.iter_mut().enumerate() {
                                *slot = gather(w, k, full);
                            }
                        }
                    }
                    // --- accumulate ---------------------------------------
                    for (o, fr) in contribs {
                        let t = o - y0;
                        for (s, &slot) in slots.iter().enumerate() {
                            acc[t] = w.fma(slot, fvals[fr * fw + s], acc[t]);
                        }
                    }
                }
            }

            let lane = w.lane_id();
            let store_mask = lane.lt_scalar((ow - x0) as u32);
            let out_base = (n * fn_ + f) * out_plane;
            for (t, &a) in acc.iter().enumerate() {
                let oy = y0 + t;
                if oy >= oh {
                    break;
                }
                let mut a = a;
                if let Some(bias) = ep.bias {
                    let b = w.const_load(bias, f as u32);
                    a = w.fadd(a, b);
                }
                if ep.relu {
                    a = a.map(|v| v.max(0.0));
                    w.count_fp(1);
                }
                let idx = lane + (out_base + oy * ow + x0) as u32;
                w.gst(output, &idx, &a, store_mask);
            }
        });
    };
    (launch, kernel)
}

/// Validate the buffers/geometry pairing shared by the fallible geo entry
/// points.
pub(crate) fn check_geo(
    sim: &GpuSim,
    g: &ConvGeometry,
    ep: &ConvEpilogue,
) -> Result<(), LaunchError> {
    if let Err(e) = g.validate() {
        return Err(LaunchError::InvalidConfig(format!("bad geometry: {e}")));
    }
    if let Some(bias) = ep.bias {
        let have = sim.mem.len(bias);
        if have < g.out_channels {
            return Err(LaunchError::InvalidConfig(format!(
                "bias buffer has {have} elems, geometry needs {}",
                g.out_channels
            )));
        }
    }
    Ok(())
}

/// Convenience wrapper for the geometry-general kernel: upload, run,
/// download. The weight bank must carry `IC/groups` channels.
pub fn conv_nchw_ours_geo(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> (Tensor4, KernelStats) {
    try_conv_nchw_ours_geo(sim, input, weights, g, cfg).expect("geo launch")
}

/// Fallible [`conv_nchw_ours_geo`].
pub fn try_conv_nchw_ours_geo(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> Result<(Tensor4, KernelStats), LaunchError> {
    if input.dims() != (g.batch, g.in_channels, g.in_h, g.in_w) {
        return Err(LaunchError::InvalidConfig(format!(
            "input dims {:?} do not match geometry",
            input.dims()
        )));
    }
    if weights.num_filters() != g.out_channels
        || weights.channels() != g.channels_per_group()
        || weights.fh() != g.f_h
        || weights.fw() != g.f_w
    {
        return Err(LaunchError::InvalidConfig(format!(
            "weights {}x{}x{}x{} do not match geometry (want {}x{}x{}x{})",
            weights.num_filters(),
            weights.channels(),
            weights.fh(),
            weights.fw(),
            g.out_channels,
            g.channels_per_group(),
            g.f_h,
            g.f_w
        )));
    }
    check_geo(sim, g, &ConvEpilogue::none())?;
    let bi = sim.mem.upload_shared(input.shared());
    let bw = sim.mem.upload(weights.as_slice());
    let bo = sim.mem.alloc(g.out_elems());
    let stats = crate::kernel_nchw::try_launch_conv_nchw_fused(
        sim,
        bi,
        bw,
        bo,
        g,
        cfg,
        ConvEpilogue::none(),
    )?;
    let out = Tensor4::from_vec(
        g.batch,
        g.out_channels,
        g.out_h(),
        g.out_w(),
        sim.mem.take(bo),
    )
    .expect("shape by construction");
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::{DeviceConfig, LaunchMode};
    use memconv_ref::conv_nchw_ref_geo;
    use memconv_tensor::generate::TensorRng;

    #[test]
    fn contributions_partition_macs_across_stride_and_dilation() {
        for (fh, sh, dh, oh) in [
            (3usize, 1usize, 1usize, 6usize),
            (3, 2, 1, 5),
            (3, 1, 2, 4),
            (5, 3, 2, 3),
            (1, 2, 3, 4),
        ] {
            let ih = (oh - 1) * sh + (fh - 1) * dh + 1;
            let mut count = vec![vec![0u32; fh]; oh];
            for vy in 0..ih {
                for (o, r) in contributions_geo(vy, fh, sh, dh, 0, oh, oh) {
                    count[o][r] += 1;
                }
            }
            for (o, row) in count.iter().enumerate() {
                for (r, &c) in row.iter().enumerate() {
                    assert_eq!(c, 1, "fh={fh} sh={sh} dh={dh} o={o} r={r}");
                }
            }
        }
    }

    fn check(g: ConvGeometry, cfg: &OursConfig, seed: u64) {
        let g = g.validate().unwrap();
        let mut rng = TensorRng::new(seed);
        let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
        let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
        let want = conv_nchw_ref_geo(&input, &bank, &g);
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            let (out, _) = conv_nchw_ours_geo(&mut sim, &input, &bank, &g, cfg);
            assert_eq!(
                out.as_slice(),
                want.as_slice(),
                "{} cfg={cfg:?} mode={mode:?}",
                g.cache_key()
            );
        }
    }

    #[test]
    fn strided_bitexact() {
        for (sh, sw) in [(2, 2), (1, 3), (4, 1), (2, 3)] {
            check(
                ConvGeometry::nchw(2, 3, 13, 17, 2, 3, 3).with_stride(sh, sw),
                &OursConfig::full(),
                (sh * 10 + sw) as u64,
            );
        }
    }

    #[test]
    fn dilated_bitexact() {
        for (dh, dw) in [(2, 2), (1, 2), (3, 1)] {
            check(
                ConvGeometry::nchw(1, 2, 14, 14, 2, 3, 3).with_dilation(dh, dw),
                &OursConfig::full(),
                (dh * 10 + dw) as u64,
            );
        }
    }

    #[test]
    fn grouped_and_depthwise_bitexact() {
        check(
            ConvGeometry::nchw(2, 4, 10, 10, 6, 3, 3).with_groups(2),
            &OursConfig::full(),
            41,
        );
        check(
            ConvGeometry::nchw(1, 6, 12, 12, 6, 3, 3).with_groups(6),
            &OursConfig::full(),
            42,
        );
    }

    #[test]
    fn combined_axes_and_padding_bitexact() {
        let g = ConvGeometry::nchw(2, 4, 11, 13, 4, 3, 3)
            .with_groups(2)
            .with_stride(2, 2)
            .with_dilation(2, 1);
        let mut g = g;
        g.pad_h = 1;
        g.pad_w = 2;
        check(g, &OursConfig::full(), 43);
    }

    #[test]
    fn ablations_stay_bitexact_on_non_unit_axes() {
        for cfg in [
            OursConfig::column_only(),
            OursConfig::row_only(),
            OursConfig::direct(),
        ] {
            check(
                ConvGeometry::nchw(1, 2, 12, 40, 2, 5, 5).with_stride(2, 2),
                &cfg,
                44,
            );
        }
    }

    #[test]
    fn bad_geometry_is_a_typed_error() {
        let mut rng = TensorRng::new(5);
        let input = rng.tensor(1, 2, 6, 6);
        let bank = rng.filter_bank(2, 2, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        // weights carry 2 channels but groups=2 needs IC/groups = 1
        let g = ConvGeometry::nchw(1, 2, 6, 6, 2, 3, 3).with_groups(2);
        let err = try_conv_nchw_ours_geo(&mut sim, &input, &bank, &g, &OursConfig::full());
        assert!(matches!(err, Err(LaunchError::InvalidConfig(_))));
    }
}
