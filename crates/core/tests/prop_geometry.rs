//! Property tests pinning the `ours` kernel to the CPU reference on the
//! new axes: for randomized grouped / depthwise / dilated / strided /
//! padded geometries, the simulated kernel must reproduce
//! [`conv_nchw_ref_geo`] **bit-for-bit**, under both launch engines and
//! at every parallel worker-thread count (1–4), with identical
//! transaction counters between engines.

use memconv_core::{ConvNchwAlgorithm, Ours, OursConfig};
use memconv_gpusim::{DeviceConfig, GpuSim, KernelStats, LaunchMode};
use memconv_ref::conv_nchw_ref_geo;
use memconv_tensor::{ConvGeometry, Padding, TensorRng};
use proptest::prelude::*;

/// A randomized non-unit geometry. Group structure is generated as
/// (groups, channels-per-group, filters-per-group) so divisibility holds
/// by construction; `cpg == fpg == 1` with `groups > 1` yields exactly
/// the depthwise case.
#[derive(Debug, Clone)]
struct GeoSpec {
    batch: usize,
    groups: usize,
    cpg: usize,
    fpg: usize,
    filter: usize,
    extra_h: usize,
    extra_w: usize,
    stride: usize,
    dilation: usize,
    pad_h: usize,
    pad_w: usize,
}

impl GeoSpec {
    fn geometry(&self) -> ConvGeometry {
        let dil_f = (self.filter - 1) * self.dilation + 1;
        ConvGeometry::nchw(
            self.batch,
            self.groups * self.cpg,
            dil_f + self.extra_h,
            dil_f + self.extra_w,
            self.groups * self.fpg,
            self.filter,
            self.filter,
        )
        .with_stride(self.stride, self.stride)
        .with_dilation(self.dilation, self.dilation)
        .with_groups(self.groups)
        .with_padding(Padding::Explicit(self.pad_h, self.pad_w))
        .expect("explicit padding")
    }
}

/// Run `algo` on the spec's geometry under one engine/thread-count and
/// return the output plus the launch counters.
fn run(
    algo: &dyn ConvNchwAlgorithm,
    g: &ConvGeometry,
    seed: u64,
    mode: LaunchMode,
    threads: usize,
) -> (Vec<f32>, KernelStats) {
    let mut rng = TensorRng::new(seed);
    let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
    sim.set_parallel_threads(Some(threads));
    let (out, rep) = algo.run_geo(&mut sim, &input, &bank, g);
    (out.into_vec(), rep.totals())
}

/// Reference output for the spec's geometry (same generator seed).
fn reference(g: &ConvGeometry, seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::new(seed);
    let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
    conv_nchw_ref_geo(&input, &bank, g).into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: for any grouped/depthwise/dilated/strided/
    /// padded geometry, the kernel is bit-identical to the CPU reference
    /// under both engines and every worker-thread count, with
    /// engine-independent counters.
    #[test]
    fn geo_kernel_matches_reference_on_both_engines(
        batch in 1usize..3,
        groups in 1usize..5,
        cpg in 1usize..4,
        fpg in 1usize..4,
        filter_sel in 0u8..2,
        extra_h in 0usize..7,
        extra_w in 0usize..7,
        stride in 1usize..4,
        dilation in 1usize..3,
        pad_h in 0usize..3,
        pad_w in 0usize..3,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let spec = GeoSpec {
            batch,
            groups,
            cpg,
            fpg,
            filter: if filter_sel == 0 { 3 } else { 5 },
            extra_h,
            extra_w,
            stride,
            dilation,
            pad_h,
            pad_w,
        };
        let g = spec.geometry().validate().expect("spec builds valid geometries");
        let algo = Ours::with_config(OursConfig::full());
        let want = reference(&g, seed);
        let (seq_out, seq_stats) = run(&algo, &g, seed, LaunchMode::Sequential, 1);
        let (par_out, par_stats) = run(&algo, &g, seed, LaunchMode::Parallel, threads);
        prop_assert_eq!(&seq_out, &want, "sequential != reference ({})", g.cache_key());
        prop_assert_eq!(&par_out, &want, "parallel != reference ({})", g.cache_key());
        prop_assert_eq!(&seq_stats, &par_stats, "counters diverge ({})", g.cache_key());
    }

    /// Unit-axes geometries routed through `run_geo` are bit-identical to
    /// the legacy `run` entry point — the fast path did not fork the
    /// numerics (or the counters).
    #[test]
    fn unit_axes_run_geo_equals_legacy_run(
        batch in 1usize..3,
        channels in 1usize..4,
        filters in 1usize..4,
        extra in 0usize..7,
        seed in any::<u64>(),
    ) {
        let g = ConvGeometry::nchw(batch, channels, 3 + extra, 3 + extra, filters, 3, 3)
            .validate()
            .expect("unit geometry");
        let algo = Ours::with_config(OursConfig::full());
        let mut rng = TensorRng::new(seed);
        let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
        let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (geo_out, geo_rep) = algo.run_geo(&mut sim, &input, &bank, &g);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (legacy_out, legacy_rep) = algo.run(&mut sim, &input, &bank);
        prop_assert_eq!(geo_out.into_vec(), legacy_out.into_vec());
        prop_assert_eq!(geo_rep.totals(), legacy_rep.totals());
    }
}
