//! Property tests pinning [`LaunchMode::Parallel`] to the sequential
//! reference engine: for randomized grids, kernels and sampling modes, the
//! two-phase trace-replay engine must produce **bit-identical**
//! [`KernelStats`] and final global-memory contents, at every worker-thread
//! count.

use memconv_gpusim::trace::BlockTrace;
use memconv_gpusim::{
    DeviceConfig, FaultKind, FaultLog, FaultPlan, GpuSim, KernelStats, LaneMask, LaunchConfig,
    LaunchError, LaunchMode, PrivArray, SampleMode, VF, VU, WARP,
};
use proptest::prelude::*;

/// A randomized kernel/launch shape. Every field feeds either the launch
/// geometry or the kernel body, so the space covers loads (strided and
/// unit), stores (permuted and cross-block conflicting), shared-memory
/// phases, local-memory spills, and all sampling modes.
#[derive(Debug, Clone)]
struct Spec {
    blocks: u32,
    tpb: u32,
    stride: u32,
    off: u32,
    use_shared: bool,
    use_local: bool,
    sample: u8,
}

impl Spec {
    fn sample_mode(&self) -> SampleMode {
        match self.sample % 4 {
            0 => SampleMode::Full,
            1 => SampleMode::Stride(2),
            2 => SampleMode::Stride(3),
            _ => SampleMode::Chunked { chunk: 2, skip: 2 },
        }
    }
}

/// How to launch the spec's kernel.
#[derive(Debug, Clone, Copy)]
enum Launcher {
    /// The plain panicking [`GpuSim::launch`].
    Plain,
    /// [`GpuSim::try_launch`], with an optional armed fault plan.
    Fallible(Option<FaultPlan>),
}

/// Run the spec's kernel under `mode` and return everything observable:
/// counters plus the full contents of all three output buffers.
fn run(spec: &Spec, mode: LaunchMode, threads: usize) -> (KernelStats, Vec<f32>) {
    let (stats, mem, _) = run_via(spec, mode, threads, Launcher::Plain);
    (stats, mem)
}

/// [`run`], parameterized over the launch path and fault plan.
fn run_via(
    spec: &Spec,
    mode: LaunchMode,
    threads: usize,
    launcher: Launcher,
) -> (KernelStats, Vec<f32>, FaultLog) {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
    sim.set_parallel_threads(Some(threads));
    if let Launcher::Fallible(plan) = launcher {
        sim.set_fault_plan(plan);
    }
    let (stats, mem) = launch_spec(&mut sim, spec, launcher, &[]);
    (stats, mem, sim.take_fault_log())
}

/// Launch the spec's kernel on `sim`, allocating its buffers first, and
/// return the counters plus the three output buffers. Each device in
/// `then` is swapped in after a launch and the launch repeated on the same
/// buffers, outputs zeroed; the counters and outputs of the last launch
/// are returned.
fn launch_spec(
    sim: &mut GpuSim,
    spec: &Spec,
    launcher: Launcher,
    then: &[DeviceConfig],
) -> (KernelStats, Vec<f32>) {
    let n = spec.blocks * spec.tpb;
    let data: Vec<f32> = (0..n).map(|i| ((i * 7919) % 83) as f32 * 0.5).collect();
    let bi = sim.mem.upload(&data);
    let bo = sim.mem.alloc(n as usize);
    let bo2 = sim.mem.alloc(n as usize);
    // Deliberately conflicting across blocks: block b writes cell b % 4, so
    // block-linear commit order is observable in the final value.
    let bc = sim.mem.alloc(4);

    let cfg = LaunchConfig::linear(spec.blocks, spec.tpb)
        .with_shared(if spec.use_shared {
            spec.tpb as usize
        } else {
            0
        })
        .with_sample(spec.sample_mode());
    let spec = spec.clone();

    let kernel = move |blk: &mut memconv_gpusim::BlockCtx<'_>| {
        let bx = blk.block_idx.0;
        blk.each_warp(|w| {
            let tid = w.global_tid_x();
            let strided = VU::from_fn(|l| tid.lane(l).wrapping_mul(spec.stride) % n);
            let a = w.gld(bi, &strided, LaneMask::ALL);
            let b = w.gld(bi, &tid, LaneMask::ALL);
            let s = w.warp_sum(&a);
            let mut r = w.fma(b, VF::splat(1.5), s);
            if spec.use_local {
                let mut arr = PrivArray::<4>::local();
                for i in 0..4 {
                    arr.set(w, i, r);
                }
                let idx = VU::from_fn(|l| (l % 4) as u32);
                r = arr.get_dyn(w, &idx, LaneMask::ALL);
            }
            if spec.use_shared {
                w.sst(&w.thread_idx(), &r, LaneMask::ALL);
            }
            let out_idx = VU::from_fn(|l| (tid.lane(l) + spec.off) % n);
            w.gst(bo, &out_idx, &r, LaneMask::ALL);
            w.gst(
                bc,
                &VU::splat(bx % 4),
                &VF::splat(bx as f32 + 0.25),
                LaneMask::first(1),
            );
        });
        if spec.use_shared {
            blk.barrier();
            blk.each_warp(|w| {
                let ti = w.thread_idx();
                let rev = VU::from_fn(|l| spec.tpb - 1 - ti.lane(l));
                let v = w.sld(&rev, LaneMask::ALL);
                let tid = w.global_tid_x();
                w.gst(bo2, &tid, &v, LaneMask::ALL);
            });
        }
    };
    let launch = |sim: &mut GpuSim| match launcher {
        Launcher::Plain => sim.launch(&cfg, kernel),
        Launcher::Fallible(_) => sim
            .try_launch(&cfg, kernel)
            .expect("no armed fault class can fail this launch"),
    };
    let mut stats = launch(sim);
    for dev in then {
        sim.device = dev.clone();
        for buf in [bo, bo2, bc] {
            sim.mem.zero(buf);
        }
        stats = launch(sim);
    }

    let mut mem = sim.mem.download(bo).to_vec();
    mem.extend_from_slice(sim.mem.download(bo2));
    mem.extend_from_slice(sim.mem.download(bc));
    (stats, mem)
}

/// Device variants for the swap test: the tiny device, and ones differing
/// from it in L1 and L2 geometry (non-power-of-two set counts included),
/// line size, and bank count.
fn device_variant(pick: u8) -> DeviceConfig {
    let mut dev = DeviceConfig::test_tiny();
    match pick % 4 {
        0 => {}
        1 => {
            (dev.l1_bytes, dev.l1_ways) = (512, 1);
            (dev.l2_bytes, dev.l2_ways) = (3 * 1024, 2);
            dev.smem_banks = 16;
        }
        2 => {
            (dev.l1_bytes, dev.l1_ways) = (3 * 1024, 4);
            (dev.l2_bytes, dev.l2_ways) = (24 * 1024, 4);
            dev.smem_banks = 48;
        }
        _ => {
            dev.line_bytes = 64;
            (dev.l1_bytes, dev.l1_ways) = (1024, 2);
        }
    }
    dev
}

/// Two consecutive launches on **one** simulator. In the parallel engine
/// the second launch draws its block scratch (trace arenas, store-buffer
/// page tables) from the pool recycled by the first — so this exercises
/// the cross-launch reuse path, not just cross-block reuse.
fn run_two_launches(
    spec: &Spec,
    mode: LaunchMode,
    threads: usize,
) -> (KernelStats, KernelStats, Vec<f32>) {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
    sim.set_parallel_threads(Some(threads));
    let n = spec.blocks * spec.tpb;
    let data: Vec<f32> = (0..n).map(|i| ((i * 31) % 97) as f32 * 0.25).collect();
    let bi = sim.mem.upload(&data);
    let bo = sim.mem.alloc(n as usize);
    let bo2 = sim.mem.alloc(n as usize);
    let cfg = LaunchConfig::linear(spec.blocks, spec.tpb).with_sample(spec.sample_mode());

    // Each launch reads one buffer and writes another (race-free within a
    // launch, as the engine contract requires); the second launch consumes
    // the first's output, with a different stride/offset, so it must not
    // see stale trace events or store-buffer pages from the first.
    let make_kernel = |src, dst, stride: u32, off: u32| {
        move |blk: &mut memconv_gpusim::BlockCtx<'_>| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                let strided = VU::from_fn(|l| tid.lane(l).wrapping_mul(stride) % n);
                let a = w.gld(src, &strided, LaneMask::ALL);
                let b = w.gld(src, &tid, LaneMask::ALL);
                let r = w.fma(a, VF::splat(2.0), b);
                let out_idx = VU::from_fn(|l| (tid.lane(l) + off) % n);
                w.gst(dst, &out_idx, &r, LaneMask::ALL);
            });
        }
    };
    let s1 = sim.launch(&cfg, make_kernel(bi, bo, spec.stride, spec.off));
    let s2 = sim.launch(&cfg, make_kernel(bo, bo2, spec.stride + 1, spec.off / 2));
    let mut mem = sim.mem.download(bo).to_vec();
    mem.extend_from_slice(sim.mem.download(bo2));
    (s1, s2, mem)
}

/// A warp access near a lane run, from `r`, over a buffer of `len`
/// elements: a run with any first lane and length and any start (ending at
/// the buffer end, or one element past it in one case of sixteen), or a run
/// with one lane off by one or a hole in its mask.
fn run_shape(r: u64, len: u32) -> (VU, LaneMask) {
    let lo = (r % WARP as u64) as usize;
    let n = 1 + ((r >> 5) % (WARP - lo) as u64) as usize;
    let room = len.saturating_sub(n as u32);
    let start = match (r >> 10) % 16 {
        0 => room + 1,
        1..=3 => room,
        _ => ((r >> 14) % (room as u64 + 1)) as u32,
    };
    let mut idx = VU::from_fn(|l| {
        if l >= lo {
            start.wrapping_add((l - lo) as u32)
        } else {
            (r >> 20) as u32 % len
        }
    });
    let mut mask = LaneMask((((1u64 << n) - 1) << lo) as u32);
    match (r >> 40) % 4 {
        0 if n >= 2 => {
            let l = lo + ((r >> 44) % n as u64) as usize;
            idx.set_lane(l, idx.lane(l).saturating_sub(1));
        }
        1 if n >= 3 => mask = LaneMask(mask.0 & !(1 << (lo + 1))),
        _ => {}
    }
    (idx, mask)
}

/// A kernel of run-shaped loads and stores ([`run_shape`], varied per
/// block and warp) launched through `try_launch` with an optional fault
/// plan: the counters or the error, the output buffer, and the fault log.
fn run_shapes(
    shapes: &[u64],
    blocks: u32,
    mode: LaunchMode,
    threads: usize,
    plan: Option<FaultPlan>,
) -> (Result<KernelStats, LaunchError>, Vec<f32>, FaultLog) {
    const LEN: u32 = 300;
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
    sim.set_parallel_threads(Some(threads));
    sim.set_fault_plan(plan);
    let data: Vec<f32> = (0..LEN).map(|i| i as f32 * 0.75 - 9.0).collect();
    let bi = sim.mem.upload(&data);
    let bo = sim.mem.alloc(LEN as usize);
    let shapes = shapes.to_vec();
    let got = sim.try_launch(&LaunchConfig::linear(blocks, 64), |blk| {
        let b = blk.block_linear();
        blk.each_warp(|w| {
            let salt = (b * 2 + w.warp_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for pair in shapes.chunks(2) {
                let (li, lm) = run_shape(pair[0] ^ salt, LEN);
                let v = w.gld(bi, &li, lm);
                let r = w.fma(v, VF::splat(2.0), VF::splat(1.0));
                let (si, sm) = run_shape(pair[pair.len() - 1].rotate_left(17) ^ salt, LEN);
                w.gst(bo, &si, &r, sm);
            }
        });
    });
    let out = sim.mem.download(bo).to_vec();
    (got, out, sim.take_fault_log())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: stats and memory are *exactly* equal between
    /// engines, for any kernel shape, sampling mode and thread count.
    #[test]
    fn parallel_engine_is_bit_identical_to_sequential(
        blocks in 1u32..10,
        tpb_sel in 0u8..2,
        stride in 1u32..9,
        off in 0u32..70,
        use_shared in any::<bool>(),
        use_local in any::<bool>(),
        sample in 0u8..4,
        threads in 1usize..5,
    ) {
        let spec = Spec {
            blocks,
            tpb: if tpb_sel == 0 { 32 } else { 64 },
            stride,
            off,
            use_shared,
            use_local,
            sample,
        };
        let (seq_stats, seq_mem) = run(&spec, LaunchMode::Sequential, 1);
        let (par_stats, par_mem) = run(&spec, LaunchMode::Parallel, threads);
        prop_assert_eq!(&seq_stats, &par_stats);
        prop_assert_eq!(seq_mem, par_mem);
        // Sanity: the launch actually simulated something.
        prop_assert!(seq_stats.sim_blocks >= 1);
        prop_assert!(seq_stats.gld_transactions > 0);
    }

    /// Store buffers must reproduce sequential last-writer-wins for blocks
    /// that overwrite the *same* region: the final contents are exactly the
    /// highest-numbered selected block's writes.
    #[test]
    fn conflicting_blocks_commit_in_linear_order(
        blocks in 2u32..12,
        threads in 1usize..5,
        sample in 0u8..4,
    ) {
        let sample_mode = match sample % 4 {
            0 => SampleMode::Full,
            1 => SampleMode::Stride(2),
            2 => SampleMode::Stride(3),
            _ => SampleMode::Chunked { chunk: 2, skip: 2 },
        };
        let run = |mode| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            sim.set_parallel_threads(Some(threads));
            let bo = sim.mem.alloc(32);
            let cfg = LaunchConfig::linear(blocks, 32).with_sample(sample_mode);
            sim.launch(&cfg, |blk| {
                let bx = blk.block_idx.0;
                blk.each_warp(|w| {
                    let lane = w.lane_id();
                    let val = VF::splat(bx as f32 + 1.0);
                    w.gst(bo, &lane, &val, LaneMask::ALL);
                });
            });
            sim.mem.download(bo).to_vec()
        };
        let seq = run(LaunchMode::Sequential);
        let par = run(LaunchMode::Parallel);
        prop_assert_eq!(&seq, &par);
        // Every cell holds the last *selected* block's value.
        let winner = (0..blocks)
            .filter(|b| match sample_mode {
                SampleMode::Full => true,
                SampleMode::Stride(k) => b % k == 0,
                SampleMode::Chunked { chunk, skip } => (b / chunk) % skip == 0,
                SampleMode::Auto(_) => unreachable!(),
            })
            .max()
            .unwrap();
        prop_assert!(seq.iter().all(|&v| v == winner as f32 + 1.0));
    }

    /// With injection disabled — no plan at all, or an armed but all-zero
    /// plan — a successful `try_launch` must be **bit-identical** to the
    /// plain `launch` in both engines: the always-armed watchdog and the
    /// `Option`-gated fault hooks may only count, never perturb.
    #[test]
    fn try_launch_without_faults_is_bit_identical_to_launch(
        blocks in 1u32..10,
        tpb_sel in 0u8..2,
        stride in 1u32..9,
        off in 0u32..70,
        use_shared in any::<bool>(),
        use_local in any::<bool>(),
        sample in 0u8..4,
        threads in 1usize..5,
        empty_plan in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = Spec {
            blocks,
            tpb: if tpb_sel == 0 { 32 } else { 64 },
            stride,
            off,
            use_shared,
            use_local,
            sample,
        };
        let plan = empty_plan.then(|| FaultPlan::new(seed));
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let (plain_stats, plain_mem) = run(&spec, mode, threads);
            let (try_stats, try_mem, log) = run_via(&spec, mode, threads, Launcher::Fallible(plan));
            prop_assert_eq!(&plain_stats, &try_stats, "stats differ in {:?}", mode);
            prop_assert_eq!(&plain_mem, &try_mem, "memory differs in {:?}", mode);
            prop_assert!(log.is_empty());
        }
    }

    /// Seeded injection (every class except hangs, which abort the launch)
    /// is engine-independent: the parallel trace-replay engine corrupts the
    /// same values, drops/duplicates the same sectors, and logs the same
    /// counts as the sequential reference engine, at every thread count.
    #[test]
    fn seeded_faults_are_engine_independent(
        blocks in 1u32..10,
        tpb_sel in 0u8..2,
        stride in 1u32..9,
        off in 0u32..70,
        use_shared in any::<bool>(),
        use_local in any::<bool>(),
        sample in 0u8..4,
        threads in 1usize..5,
        seed in any::<u64>(),
        r_flip in 0u32..5,
        r_drop in 0u32..5,
        r_dup in 0u32..5,
        r_smem in 0u32..5,
        r_shfl in 0u32..5,
    ) {
        let spec = Spec {
            blocks,
            tpb: if tpb_sel == 0 { 32 } else { 64 },
            stride,
            off,
            use_shared,
            use_local,
            sample,
        };
        let plan = FaultPlan::new(seed)
            .with_rate(FaultKind::GlobalBitFlip, r_flip)
            .with_rate(FaultKind::L2SectorDrop, r_drop)
            .with_rate(FaultKind::L2SectorDup, r_dup)
            .with_rate(FaultKind::SharedCorrupt, r_smem)
            .with_rate(FaultKind::ShuffleCorrupt, r_shfl);
        let (seq_stats, seq_mem, seq_log) =
            run_via(&spec, LaunchMode::Sequential, 1, Launcher::Fallible(Some(plan)));
        let (par_stats, par_mem, par_log) =
            run_via(&spec, LaunchMode::Parallel, threads, Launcher::Fallible(Some(plan)));
        prop_assert_eq!(&seq_stats, &par_stats);
        prop_assert_eq!(&seq_mem, &par_mem);
        prop_assert_eq!(&seq_log, &par_log);
    }

    /// The compact varint trace is lossless: any stream of 32-byte-aligned
    /// sector events decodes back in order, `len` counts pushes, and the
    /// run view expands to exactly the original stream.
    #[test]
    fn trace_encoding_roundtrips(
        // Low bit selects load/store, the rest a sector index — one u64 per
        // event because the proptest shim has no tuple strategies.
        units in proptest::collection::vec(0u64..(1 << 21), 0..256),
    ) {
        let events: Vec<(u64, bool)> = units
            .iter()
            .map(|&u| ((1u64 << 32) + (u >> 1) * 32, u & 1 == 1))
            .collect();
        let mut t = BlockTrace::new();
        for &(s, w) in &events {
            t.push(s, w);
        }
        prop_assert_eq!(t.len(), events.len());
        let decoded: Vec<(u64, bool)> = t.iter().collect();
        prop_assert_eq!(&decoded, &events);
        let expanded: Vec<(u64, bool)> = t
            .runs()
            .flat_map(|(s, w, n)| std::iter::repeat_n((s, w), n as usize))
            .collect();
        prop_assert_eq!(&expanded, &events);
    }

    /// Swapping `device` between two launches on one simulator is
    /// invisible: the second launch's counters and outputs equal a fresh
    /// simulator's on the new device, on both engines — the kept L2 and
    /// the pooled L1s and shared arenas are rebuilt for the new geometry,
    /// and reset (not carried over) when it is unchanged.
    #[test]
    fn device_swap_between_launches_matches_fresh_simulators(
        blocks in 1u32..10,
        tpb_sel in 0u8..2,
        stride in 1u32..9,
        off in 0u32..70,
        use_shared in any::<bool>(),
        sample in 0u8..4,
        first in 0u8..4,
        second in 0u8..4,
        threads in 1usize..4,
    ) {
        let spec = Spec {
            blocks,
            tpb: if tpb_sel == 0 { 32 } else { 64 },
            stride,
            off,
            use_shared,
            use_local: true,
            sample,
        };
        let (dev_a, dev_b) = (device_variant(first), device_variant(second));
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let fresh = |dev: &DeviceConfig| {
                let mut sim = GpuSim::new(dev.clone()).with_launch_mode(mode);
                sim.set_parallel_threads(Some(threads));
                sim
            };
            let want = launch_spec(&mut fresh(&dev_b), &spec, Launcher::Plain, &[]);
            let got = launch_spec(&mut fresh(&dev_a), &spec, Launcher::Plain, std::slice::from_ref(&dev_b));
            prop_assert_eq!(&got, &want, "{:?}", mode);
        }
    }

    /// Scratch reuse is invisible: a parallel simulator running two
    /// launches back to back (the second fed from the first's recycled
    /// scratch pool) matches a sequential reference exactly, per-launch
    /// stats and final memory alike.
    #[test]
    fn recycled_scratch_pool_is_bit_identical_across_launches(
        blocks in 1u32..10,
        tpb_sel in 0u8..2,
        stride in 1u32..9,
        off in 0u32..70,
        sample in 0u8..4,
        threads in 1usize..5,
    ) {
        let spec = Spec {
            blocks,
            tpb: if tpb_sel == 0 { 32 } else { 64 },
            stride,
            off,
            use_shared: false,
            use_local: false,
            sample,
        };
        let (seq_s1, seq_s2, seq_mem) = run_two_launches(&spec, LaunchMode::Sequential, 1);
        let (par_s1, par_s2, par_mem) = run_two_launches(&spec, LaunchMode::Parallel, threads);
        prop_assert_eq!(&seq_s1, &par_s1, "first launch diverged");
        prop_assert_eq!(&seq_s2, &par_s2, "second launch (recycled scratch) diverged");
        prop_assert_eq!(seq_mem, par_mem);
    }

    /// Lane-run loads and stores, and near-runs (a lane off by one, a hole
    /// in the mask, a run one element past the buffer end), give the same
    /// counters, memory and fault log in both engines at every thread
    /// count, with faults armed and not, and fail out of bounds alike. The
    /// out-of-bounds text is compared at one worker thread: with several,
    /// the parallel engine reports whichever faulting block's worker is
    /// joined first, not the lowest block.
    #[test]
    fn lane_runs_are_engine_independent(
        shapes in prop::collection::vec(any::<u64>(), 1..9),
        blocks in 1u32..6,
        threads in 1usize..4,
        armed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let plan = armed.then(|| {
            FaultPlan::new(seed)
                .with_rate(FaultKind::GlobalBitFlip, 3)
                .with_rate(FaultKind::L2SectorDrop, 4)
                .with_rate(FaultKind::L2SectorDup, 5)
        });
        let (seq, seq_mem, seq_log) = run_shapes(&shapes, blocks, LaunchMode::Sequential, 1, plan);
        let (par, par_mem, par_log) =
            run_shapes(&shapes, blocks, LaunchMode::Parallel, threads, plan);
        match (&seq, &par) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(&seq_mem, &par_mem);
                prop_assert_eq!(&seq_log, &par_log);
            }
            (Err(LaunchError::OutOfBounds(a)), Err(LaunchError::OutOfBounds(b))) => {
                if threads == 1 {
                    prop_assert_eq!(a, b)
                }
            }
            _ => prop_assert!(false, "{:?} vs {:?}", seq, par),
        }
    }
}
