//! The copy-free host↔device contract (DESIGN.md §4, "Host↔device
//! transfers"): `GlobalMem::upload_shared` maps host storage without
//! copying, every write copies shared storage first so neither side sees
//! the other's writes, and `GlobalMem::take` moves a result out, after
//! which device accesses to the buffer are out of bounds.

use std::sync::Arc;

use memconv_gpusim::{
    BlockCtx, BufId, DeviceConfig, GpuSim, KernelStats, LaunchConfig, LaunchError, LaunchMode,
    SampleMode, VF, VU,
};
use proptest::prelude::*;

/// `x[i] = 2·z[(i·stride) mod n] + x[i]` in place, and `y[i]` the same:
/// a kernel that writes a buffer it reads. `z` maps the same host storage
/// as `x`, so the test also sees that a write to one mapping leaves the
/// other alone. Each lane reads `x[i]` before writing it, and no one else
/// touches `x[i]`, so the launch is race-free as the engines require.
fn in_place(
    x: BufId,
    z: BufId,
    y: BufId,
    n: u32,
    stride: u32,
) -> impl Fn(&mut BlockCtx<'_>) + Sync {
    move |blk: &mut BlockCtx<'_>| {
        blk.each_warp(|w| {
            let tid = w.global_tid_x();
            let mask = tid.lt_scalar(n);
            let far = VU::from_fn(|l| tid.lane(l).wrapping_mul(stride) % n);
            let a = w.gld(z, &far, mask);
            let b = w.gld(x, &tid, mask);
            let r = w.fma(a, VF::splat(2.0), b);
            w.gst(x, &tid, &r, mask);
            w.gst(y, &tid, &r, mask);
        });
    }
}

/// Run [`in_place`] over a buffer mapped from `host`; return the counters
/// and both buffers' final contents.
fn run_shared(
    host: &Arc<Vec<f32>>,
    mode: LaunchMode,
    threads: usize,
    blocks: u32,
    stride: u32,
    sample: SampleMode,
) -> (KernelStats, Vec<f32>) {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
    sim.set_parallel_threads(Some(threads));
    let n = host.len() as u32;
    let x = sim.mem.upload_shared(Arc::clone(host));
    let z = sim.mem.upload_shared(Arc::clone(host));
    assert_eq!(
        sim.mem.download(x).as_ptr(),
        host.as_ptr(),
        "mapped, not copied"
    );
    let y = sim.mem.alloc(n as usize);
    let cfg = LaunchConfig::linear(blocks, 64).with_sample(sample);
    let stats = sim.launch(&cfg, in_place(x, z, y, n, stride));
    assert_eq!(
        sim.mem.download(z).as_ptr(),
        host.as_ptr(),
        "z was never written"
    );
    let mut mem = sim.mem.take(x);
    mem.extend(sim.mem.take(y));
    (stats, mem)
}

#[test]
fn a_kernel_writing_a_shared_input_leaves_the_host_tensor_unchanged() {
    let host = Arc::new((0..256).map(|i| i as f32 * 0.5).collect::<Vec<f32>>());
    let before = host.as_ref().clone();
    for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
        let (_, mem) = run_shared(&host, mode, 2, 4, 3, SampleMode::Full);
        assert_eq!(host.as_ref(), &before, "{mode:?}: host storage written");
        let (x, y) = mem.split_at(256);
        assert_eq!(x, y, "{mode:?}: the device saw its own writes");
        assert_eq!(x[1], 2.0 * before[3] + before[1]);
    }
}

#[test]
fn try_launch_reading_a_taken_buffer_is_a_typed_out_of_bounds_error() {
    for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
        let x = sim.mem.upload(&[1.0; 64]);
        let z = sim.mem.upload(&[1.0; 64]);
        let y = sim.mem.alloc(64);
        let total = sim.mem.total_elems();
        assert_eq!(sim.mem.take(x), vec![1.0; 64]);
        assert_eq!(sim.mem.total_elems(), total);
        let err = sim
            .try_launch(&LaunchConfig::linear(1, 64), in_place(x, z, y, 64, 1))
            .expect_err("the buffer was taken");
        assert!(
            matches!(err, LaunchError::OutOfBounds(ref m) if m.contains("has 0 elems")),
            "{mode:?}: {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// When a kernel writes a shared input, the parallel engine's
    /// store-buffer apply makes the copy the sequential engine makes on its
    /// first store: counters and memory stay bit-identical, and the host's
    /// storage is untouched either way.
    #[test]
    fn engines_agree_when_a_kernel_writes_a_shared_input(
        blocks in 1u32..6,
        stride in 1u32..9,
        sample in 0u8..3,
        threads in 1usize..4,
    ) {
        let n = blocks as usize * 64 - 7;
        let host = Arc::new((0..n).map(|i| ((i * 7919) % 83) as f32 * 0.25).collect::<Vec<f32>>());
        let before = host.as_ref().clone();
        let sample = match sample {
            0 => SampleMode::Full,
            1 => SampleMode::Stride(2),
            _ => SampleMode::Chunked { chunk: 1, skip: 1 },
        };
        let seq = run_shared(&host, LaunchMode::Sequential, 1, blocks, stride, sample);
        let par = run_shared(&host, LaunchMode::Parallel, threads, blocks, stride, sample);
        prop_assert_eq!(&seq.0, &par.0);
        prop_assert_eq!(
            seq.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(host.as_ref(), &before);
    }
}
