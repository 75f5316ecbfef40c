//! The multi-channel, batched variant of the fused kernel ("ours" in the
//! paper's Fig. 4): one grid-z slice per (batch image, output filter) pair,
//! channels accumulated in the inner loop.
//!
//! As the paper notes (§IV-B), this kernel optimizes the spatial
//! dimensions only — input channels are processed sequentially — so it
//! shines for the small-channel-count layers (the first layers of a CNN)
//! and cedes ground to GEMM-based algorithms when `FN × IC` grows.

use crate::column_reuse::{load_row_columns, load_row_columns_direct};
use crate::kernel2d::OursConfig;
use crate::plan::ColumnPlan;
use crate::row_reuse::contributions_tiled;
use memconv_gpusim::{BlockCtx, BufId, GpuSim, KernelStats, LaunchConfig, LaunchError, VF, WARP};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Elementwise work folded into the conv kernel's store path, applied to
/// each accumulator register immediately before its `gst`.
///
/// Fusing an epilogue eliminates the standalone kernel's round trip
/// through global memory (one `gld` + one `gst` per output element), which
/// is exactly the paper's transaction metric. The fused operations are the
/// *same* f32 operations the standalone kernels perform — `bias` is a
/// plain `a + b[f]` and `relu` a plain `max(v, 0.0)` — so a fused launch
/// is bit-identical to conv-then-standalone-epilogue (the layer-graph
/// executor's correctness contract, proptest-pinned in `memconv-graph`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvEpilogue {
    /// Per-output-channel bias added to every accumulator: buffer of
    /// `out_channels` f32 values, indexed by the block's uniform filter
    /// index (constant memory, like the weights).
    pub bias: Option<BufId>,
    /// Clamp each output element at zero after the (optional) bias add.
    pub relu: bool,
}

impl ConvEpilogue {
    /// No fused work — the store path is exactly the plain conv kernel's.
    pub fn none() -> Self {
        ConvEpilogue::default()
    }

    /// `true` when the epilogue performs no work.
    pub fn is_empty(&self) -> bool {
        self.bias.is_none() && !self.relu
    }
}

/// Build the launch geometry and kernel closure for the fused
/// multi-channel kernel, shared by the panicking
/// ([`launch_conv_nchw_ours`]) and fallible ([`try_launch_conv_nchw_ours`])
/// entry points.
fn nchw_launch_parts(
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> (LaunchConfig, impl Fn(&mut BlockCtx<'_>) + Sync) {
    nchw_launch_parts_fused(input, weights, output, g, cfg, ConvEpilogue::none())
}

/// [`nchw_launch_parts`] with an epilogue folded into the store path.
fn nchw_launch_parts_fused(
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
    let cfg = cfg.clone();
    let t_rows = cfg.rows_per_thread;
    let cols_per_block = WARP * cfg.block_warps;
    let gx = ow.div_ceil(cols_per_block) as u32;
    let gy = oh.div_ceil(t_rows) as u32;
    let gz = (g.batch * fn_) as u32;
    let plan = ColumnPlan::new(fw);
    let launch =
        LaunchConfig::grid3d(gx, gy, gz, (WARP * cfg.block_warps) as u32).with_sample(cfg.sample);

    let in_plane = ih * iw;
    let out_plane = oh * ow;
    let w_plane = fh * fw;

    let kernel = move |blk: &mut BlockCtx<'_>| {
        let (bx, by, bz) = blk.block_idx;
        let n = bz as usize / fn_;
        let f = bz as usize % fn_;
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
            // channel and row.
            let mut acc = vec![VF::splat(0.0); t_rows];
            let mut fvals = vec![VF::splat(0.0); w_plane];
            let mut slots = vec![VF::splat(0.0); fw];
            let last_in_row = (y0 + t_rows + fh - 1).min(ih);

            for c in 0..ic {
                // This channel's filter plane, from constant memory.
                let wbase = (f * ic + c) * w_plane;
                for (i, fv) in fvals.iter_mut().enumerate() {
                    *fv = w.const_load(weights, (wbase + i) as u32);
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
                    for (o, fr) in contributions_tiled(iy, fh, y0, t_rows, oh) {
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
                // Epilogue on the register, before the store: the same f32
                // ops the standalone kernels apply, minus their gld/gst
                // round trip (`f` is uniform per block, so the bias load is
                // a single constant-memory scalar).
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

/// `true` when `g` is the shape the original unit-axes kernel handles:
/// unit stride/dilation, a single group, and no implicit padding. The
/// entry points below keep that path byte-for-byte (same loads, same
/// transaction counters) and route everything else through the
/// geometry-general kernel ([`crate::kernel_nchw_geo`]).
fn unit_fast_path(g: &ConvGeometry) -> bool {
    g.has_unit_axes() && g.pad_h == 0 && g.pad_w == 0
}

/// Launch the fused multi-channel kernel on uploaded NCHW buffers.
///
/// * `input` — `N × IC × IH × IW`;
/// * `weights` — `FN × IC/groups × FH × FW` (constant memory);
/// * `output` — `N × FN × OH × OW`.
///
/// Non-unit stride/dilation/groups and implicit padding dispatch to the
/// geometry-general kernel; the unit-axes path is unchanged.
pub fn launch_conv_nchw_ours(
    sim: &mut GpuSim,
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> KernelStats {
    if unit_fast_path(g) {
        let (launch, kernel) = nchw_launch_parts(input, weights, output, g, cfg);
        sim.launch(&launch, kernel)
    } else {
        let (launch, kernel) = crate::kernel_nchw_geo::nchw_geo_launch_parts_fused(
            input,
            weights,
            output,
            g,
            cfg,
            ConvEpilogue::none(),
        );
        sim.launch(&launch, kernel)
    }
}

/// Fallible [`launch_conv_nchw_ours`]: runs through
/// [`GpuSim::try_launch`], so config errors, out-of-bounds accesses,
/// watchdog timeouts, and block panics come back as typed
/// [`LaunchError`]s instead of panics.
pub fn try_launch_conv_nchw_ours(
    sim: &mut GpuSim,
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
) -> Result<KernelStats, LaunchError> {
    try_launch_conv_nchw_fused(sim, input, weights, output, g, cfg, ConvEpilogue::none())
}

/// [`launch_conv_nchw_ours`] with a [`ConvEpilogue`] fused into the store
/// path. With `ConvEpilogue::none()` this is exactly the plain kernel.
pub fn launch_conv_nchw_fused(
    sim: &mut GpuSim,
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
    ep: ConvEpilogue,
) -> KernelStats {
    if unit_fast_path(g) {
        let (launch, kernel) = nchw_launch_parts_fused(input, weights, output, g, cfg, ep);
        sim.launch(&launch, kernel)
    } else {
        let (launch, kernel) =
            crate::kernel_nchw_geo::nchw_geo_launch_parts_fused(input, weights, output, g, cfg, ep);
        sim.launch(&launch, kernel)
    }
}

/// Fallible [`launch_conv_nchw_fused`].
pub fn try_launch_conv_nchw_fused(
    sim: &mut GpuSim,
    input: BufId,
    weights: BufId,
    output: BufId,
    g: &ConvGeometry,
    cfg: &OursConfig,
    ep: ConvEpilogue,
) -> Result<KernelStats, LaunchError> {
    if let Some(bias) = ep.bias {
        let have = sim.mem.len(bias);
        if have < g.out_channels {
            return Err(LaunchError::InvalidConfig(format!(
                "bias buffer has {have} elems, geometry needs {}",
                g.out_channels
            )));
        }
    }
    if unit_fast_path(g) {
        let (launch, kernel) = nchw_launch_parts_fused(input, weights, output, g, cfg, ep);
        sim.try_launch(&launch, kernel)
    } else {
        crate::kernel_nchw_geo::check_geo(sim, g, &ep)?;
        let (launch, kernel) =
            crate::kernel_nchw_geo::nchw_geo_launch_parts_fused(input, weights, output, g, cfg, ep);
        sim.try_launch(&launch, kernel)
    }
}

/// Convenience wrapper: upload, run, download.
pub fn conv_nchw_ours(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    cfg: &OursConfig,
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
    let stats = launch_conv_nchw_ours(sim, bi, bw, bo, &g, cfg);
    let out = Tensor4::from_vec(n, g.out_channels, g.out_h(), g.out_w(), sim.mem.take(bo))
        .expect("shape by construction");
    (out, stats)
}

/// Fallible [`conv_nchw_ours`]: shape mismatches between input and weights
/// surface as [`LaunchError::InvalidConfig`], and every launch failure
/// comes back typed rather than as a panic.
pub fn try_conv_nchw_ours(
    sim: &mut GpuSim,
    input: &Tensor4,
    weights: &FilterBank,
    cfg: &OursConfig,
) -> Result<(Tensor4, KernelStats), LaunchError> {
    let (n, c, ih, iw) = input.dims();
    if c != weights.channels() {
        return Err(LaunchError::InvalidConfig(format!(
            "channel mismatch: input has {c}, weights expect {}",
            weights.channels()
        )));
    }
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
    let stats = try_launch_conv_nchw_ours(sim, bi, bw, bo, &g, cfg)?;
    let out = Tensor4::from_vec(n, g.out_channels, g.out_h(), g.out_w(), sim.mem.take(bo))
        .expect("shape by construction");
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::generate::TensorRng;

    fn check(n: usize, ic: usize, hw: usize, fn_: usize, f: usize, cfg: &OursConfig) {
        let mut rng = TensorRng::new((n * 1000 + ic * 100 + hw * 10 + fn_ + f) as u64);
        let input = rng.tensor(n, ic, hw, hw);
        let bank = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = conv_nchw_ours(&mut sim, &input, &bank, cfg);
        let want = conv_nchw_ref(&input, &bank);
        assert_eq!(
            out.as_slice(),
            want.as_slice(),
            "n={n} ic={ic} hw={hw} fn={fn_} f={f}"
        );
    }

    #[test]
    fn single_image_three_channels_bitexact() {
        check(1, 3, 12, 2, 3, &OursConfig::full());
    }

    #[test]
    fn batch_and_filters_bitexact() {
        check(3, 2, 10, 4, 3, &OursConfig::full());
        check(2, 1, 14, 3, 5, &OursConfig::full());
    }

    #[test]
    fn ablations_remain_exact() {
        for cfg in [
            OursConfig::column_only(),
            OursConfig::row_only(),
            OursConfig::direct(),
        ] {
            check(2, 3, 9, 2, 3, &cfg);
        }
    }

    #[test]
    fn fused_epilogue_matches_host_applied_epilogue() {
        let mut rng = TensorRng::new(77);
        let input = rng.tensor(2, 3, 10, 10);
        let bank = rng.filter_bank(4, 3, 3, 3);
        let bias: Vec<f32> = (0..4).map(|i| i as f32 * 0.25 - 0.3).collect();
        let g = ConvGeometry::nchw(2, 3, 10, 10, 4, 3, 3);

        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let bi = sim.mem.upload(input.as_slice());
        let bw = sim.mem.upload(bank.as_slice());
        let bb = sim.mem.upload(&bias);
        let bo = sim.mem.alloc(g.out_elems());
        let ep = ConvEpilogue {
            bias: Some(bb),
            relu: true,
        };
        launch_conv_nchw_fused(&mut sim, bi, bw, bo, &g, &OursConfig::full(), ep);
        let fused = sim.mem.download(bo).to_vec();

        // Plain conv, epilogue applied on the host with the same f32 ops —
        // the fused path must be bit-identical, not merely close.
        let mut sim2 = GpuSim::new(DeviceConfig::test_tiny());
        let (plain, _) = conv_nchw_ours(&mut sim2, &input, &bank, &OursConfig::full());
        let plane = g.out_h() * g.out_w();
        let want: Vec<f32> = plain
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| (v + bias[(i / plane) % 4]).max(0.0))
            .collect();
        assert_eq!(fused, want);
    }

    #[test]
    fn empty_epilogue_is_the_plain_kernel() {
        let mut rng = TensorRng::new(78);
        let input = rng.tensor(1, 2, 9, 9);
        let bank = rng.filter_bank(3, 2, 3, 3);
        let g = ConvGeometry::nchw(1, 2, 9, 9, 3, 3, 3);

        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let bi = sim.mem.upload(input.as_slice());
        let bw = sim.mem.upload(bank.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        let fused_stats = launch_conv_nchw_fused(
            &mut sim,
            bi,
            bw,
            bo,
            &g,
            &OursConfig::full(),
            ConvEpilogue::none(),
        );
        let fused = sim.mem.download(bo).to_vec();

        let mut sim2 = GpuSim::new(DeviceConfig::test_tiny());
        let bi2 = sim2.mem.upload(input.as_slice());
        let bw2 = sim2.mem.upload(bank.as_slice());
        let bo2 = sim2.mem.alloc(g.out_elems());
        let plain_stats = launch_conv_nchw_ours(&mut sim2, bi2, bw2, bo2, &g, &OursConfig::full());
        assert_eq!(fused, sim2.mem.download(bo2));
        assert_eq!(fused_stats, plain_stats);
    }

    #[test]
    fn short_bias_buffer_is_a_config_error() {
        let mut rng = TensorRng::new(79);
        let input = rng.tensor(1, 1, 8, 8);
        let bank = rng.filter_bank(4, 1, 3, 3);
        let g = ConvGeometry::nchw(1, 1, 8, 8, 4, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let bi = sim.mem.upload(input.as_slice());
        let bw = sim.mem.upload(bank.as_slice());
        let bb = sim.mem.upload(&[0.5; 2]); // needs 4
        let bo = sim.mem.alloc(g.out_elems());
        let ep = ConvEpilogue {
            bias: Some(bb),
            relu: false,
        };
        let err = try_launch_conv_nchw_fused(&mut sim, bi, bw, bo, &g, &OursConfig::full(), ep)
            .unwrap_err();
        assert!(matches!(err, LaunchError::InvalidConfig(_)));
    }

    #[test]
    fn more_filters_means_proportionally_more_input_reads() {
        let mut rng = TensorRng::new(9);
        let input = rng.tensor(1, 1, 40, 40);
        let run = |fn_: usize| {
            let bank = rng_bank(fn_);
            let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
            let (_, stats) = conv_nchw_ours(&mut sim, &input, &bank, &OursConfig::full());
            stats
        };
        fn rng_bank(fn_: usize) -> FilterBank {
            TensorRng::new(10).filter_bank(fn_, 1, 3, 3)
        }
        let one = run(1);
        let four = run(4);
        // Input is re-streamed per output filter: the no-channel-reuse
        // behaviour the paper concedes in §IV-B.
        assert!(four.gld_transactions >= 3 * one.gld_transactions);
    }
}
