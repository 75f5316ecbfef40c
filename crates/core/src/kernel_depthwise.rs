//! Dedicated **depthwise** convolution kernel: `groups == IC`, so each
//! output filter reads exactly one input plane and the cross-channel
//! reduction of the dense NCHW kernel disappears entirely.
//!
//! ## Why a dedicated kernel
//!
//! The dense kernel (§IV-B of the paper, [`crate::kernel_nchw`]) streams
//! *all* `IC` input planes per output filter — its global-load traffic
//! scales as `FN × IC`. A depthwise layer run through that code path as a
//! grouped convolution still pays the per-channel loop machinery; run
//! through this kernel each `(image, filter)` block touches a single
//! input plane, so the transaction count drops by exactly the dense
//! kernel's channel factor. That ratio — depthwise traffic strictly below
//! the dense-equivalent layer's — is the MobileNet-era extension of the
//! paper's transaction analysis and is gated in CI (`bench geom`).
//!
//! Spatially the kernel keeps both of the paper's reuses: column reuse
//! via the [`StridedPlan`] uniform-shuffle exchange (dense taps only) and
//! row reuse via the stride/dilation contribution walk shared with the
//! geometry-general kernel ([`crate::kernel_nchw_geo`]).

use crate::kernel2d::OursConfig;
use crate::kernel2d_strided::StridedPlan;
use crate::kernel_nchw_geo::contributions_geo;
use memconv_gpusim::{
    BlockCtx, BufId, GpuSim, KernelStats, LaneMask, LaunchConfig, LaunchError, WarpCtx, VF, VU,
    WARP,
};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Build the launch geometry and kernel closure for the depthwise direct
/// kernel. `g` must satisfy [`ConvGeometry::is_depthwise`]; the weight
/// bank carries one channel per filter (`FN × 1 × FH × FW`).
pub fn depthwise_launch_parts(
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> (LaunchConfig, impl Fn(&mut BlockCtx<'_>) + Sync) {
    assert!(g.is_depthwise(), "geometry is not depthwise");
    let (ih, iw) = (g.in_h, g.in_w);
    let (fh, fw) = (g.f_h, g.f_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let (ic, fn_) = (g.in_channels, g.out_channels);
    let fpg = g.filters_per_group(); // channel multiplier (usually 1)
    let (sh, sw) = (g.stride_h, g.stride_w);
    let (dh, dw) = (g.dil_h, g.dil_w);
    let (pad_h, pad_w) = (g.pad_h, g.pad_w);
    let cfg = cfg.clone();
    let t_rows = cfg.rows_per_thread;
    let cols_per_block = WARP * cfg.block_warps;
    let gx = ow.div_ceil(cols_per_block) as u32;
    let gy = oh.div_ceil(t_rows) as u32;
    let gz = (g.batch * fn_) as u32;
    let plan = (cfg.column_reuse && dw == 1 && sw < fw).then(|| StridedPlan::new(fw, sw));
    let launch =
        LaunchConfig::grid3d(gx, gy, gz, (WARP * cfg.block_warps) as u32).with_sample(cfg.sample);

    let in_plane = ih * iw;
    let out_plane = oh * ow;
    let w_plane = fh * fw;
    let reach_h = (fh - 1) * dh;

    let kernel = move |blk: &mut BlockCtx<'_>| {
        let (bx, by, bz) = blk.block_idx;
        let n = bz as usize / fn_;
        let f = bz as usize % fn_;
        let c = f / fpg; // the single input channel this filter reads
        blk.each_warp(|w| {
            let x0 = (bx as usize * cfg.block_warps + w.warp_id) * WARP;
            if x0 >= ow {
                return;
            }
            let y0 = by as usize * t_rows;
            if y0 >= oh {
                return;
            }
            let col = |l: usize, k: usize| ((x0 + l) * sw + k * dw) as i64 - pad_w as i64;

            // The whole filter plane up front — no channel loop to reload
            // inside.
            let mut fvals: Vec<VF> = Vec::with_capacity(w_plane);
            for i in 0..w_plane {
                fvals.push(w.const_load(weights, (f * w_plane + i) as u32));
            }
            let plane_base = (n * ic + c) * in_plane;
            // Accumulators and the row's column slots, reused for every row.
            let mut acc = vec![VF::splat(0.0); t_rows];
            let mut slots = vec![VF::splat(0.0); fw];
            let first_vy = y0 * sh;
            let last_vy = ((y0 + t_rows - 1).min(oh - 1) * sh + reach_h + 1).min(ih + 2 * pad_h);
            for vy in first_vy..last_vy {
                let mut contribs = contributions_geo(vy, fh, sh, dh, y0, t_rows, oh).peekable();
                if contribs.peek().is_none() {
                    continue;
                }
                let iy = vy as i64 - pad_h as i64;
                if iy < 0 || iy as usize >= ih {
                    continue;
                }
                let row_base = plane_base + iy as usize * iw;
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
                for (o, fr) in contribs {
                    let t = o - y0;
                    for (s, &slot) in slots.iter().enumerate() {
                        acc[t] = w.fma(slot, fvals[fr * fw + s], acc[t]);
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
                let idx = lane + (out_base + oy * ow + x0) as u32;
                w.gst(output, &idx, &a, store_mask);
            }
        });
    };
    (launch, kernel)
}

/// Launch the depthwise direct kernel on uploaded buffers.
pub fn launch_conv_depthwise(
    sim: &mut GpuSim,
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> KernelStats {
    let (launch, kernel) = depthwise_launch_parts(input, weights, output, g, cfg);
    sim.launch(&launch, kernel)
}

/// Fallible [`launch_conv_depthwise`].
pub fn try_launch_conv_depthwise(
    sim: &mut GpuSim,
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> Result<KernelStats, LaunchError> {
    if !g.is_depthwise() {
        return Err(LaunchError::InvalidConfig(format!(
            "depthwise kernel needs groups == in_channels, got groups={} in_channels={}",
            g.groups, g.in_channels
        )));
    }
    if let Err(e) = g.validate() {
        return Err(LaunchError::InvalidConfig(format!("bad geometry: {e}")));
    }
    let (launch, kernel) = depthwise_launch_parts(input, weights, output, g, cfg);
    sim.try_launch(&launch, kernel)
}

/// Convenience wrapper: upload, run, download.
pub fn conv_depthwise(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> (Tensor4, KernelStats) {
    try_conv_depthwise(sim, input, weights, g, cfg).expect("depthwise launch")
}

/// Fallible [`conv_depthwise`].
pub fn try_conv_depthwise(
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
        || weights.channels() != 1
        || weights.fh() != g.f_h
        || weights.fw() != g.f_w
    {
        return Err(LaunchError::InvalidConfig(
            "depthwise weights must be FN x 1 x FH x FW matching the geometry".into(),
        ));
    }
    let bi = sim.mem.upload_shared(input.shared());
    let bw = sim.mem.upload(weights.as_slice());
    let bo = sim.mem.alloc(g.out_elems());
    let stats = try_launch_conv_depthwise(sim, bi, bw, bo, g, cfg)?;
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

    fn check(g: ConvGeometry, cfg: &OursConfig, seed: u64) {
        let g = g.validate().unwrap();
        let mut rng = TensorRng::new(seed);
        let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
        let bank = rng.filter_bank(g.out_channels, 1, g.f_h, g.f_w);
        let want = conv_nchw_ref_geo(&input, &bank, &g);
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            let (out, _) = conv_depthwise(&mut sim, &input, &bank, &g, cfg);
            assert_eq!(out.as_slice(), want.as_slice(), "{}", g.cache_key());
        }
    }

    #[test]
    fn depthwise_bitexact() {
        check(
            ConvGeometry::nchw(2, 4, 12, 12, 4, 3, 3).with_groups(4),
            &OursConfig::full(),
            50,
        );
    }

    #[test]
    fn depthwise_strided_padded_bitexact() {
        let mut g = ConvGeometry::nchw(1, 3, 13, 13, 3, 3, 3)
            .with_groups(3)
            .with_stride(2, 2);
        g.pad_h = 1;
        g.pad_w = 1;
        check(g, &OursConfig::full(), 51);
    }

    #[test]
    fn channel_multiplier_bitexact() {
        // 2 filters per input channel: FN = 2 * IC
        check(
            ConvGeometry::nchw(1, 3, 10, 10, 6, 3, 3).with_groups(3),
            &OursConfig::full(),
            52,
        );
    }

    #[test]
    fn dense_geometry_is_rejected() {
        let g = ConvGeometry::nchw(1, 4, 8, 8, 4, 3, 3).with_groups(2);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let mut rng = TensorRng::new(53);
        let input = rng.tensor(1, 4, 8, 8);
        let bank = rng.filter_bank(4, 2, 3, 3);
        let err = try_conv_depthwise(&mut sim, &input, &bank, &g, &OursConfig::full());
        assert!(matches!(err, Err(LaunchError::InvalidConfig(_))));
    }

    #[test]
    fn depthwise_loads_beat_grouped_general_kernel() {
        // Same geometry through the general grouped path vs the dedicated
        // kernel: identical output, and the dedicated kernel must not load
        // more than the general path (it skips the channel-loop machinery).
        let g = ConvGeometry::nchw(1, 8, 20, 20, 8, 3, 3)
            .with_groups(8)
            .validate()
            .unwrap();
        let mut rng = TensorRng::new(54);
        let input = rng.tensor(1, 8, 20, 20);
        let bank = rng.filter_bank(8, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (a, dw_stats) = conv_depthwise(&mut sim, &input, &bank, &g, &OursConfig::full());
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (b, geo_stats) = crate::kernel_nchw_geo::conv_nchw_ours_geo(
            &mut sim,
            &input,
            &bank,
            &g,
            &OursConfig::full(),
        );
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(dw_stats.gld_transactions <= geo_stats.gld_transactions);
    }
}
