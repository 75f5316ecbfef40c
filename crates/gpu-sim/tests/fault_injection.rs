//! Integration tests for the deterministic fault-injection subsystem and
//! the fallible launch path: every fault class leaves observable evidence
//! of the right kind, injection is a pure function of the seed (and
//! engine-independent), and `try_launch` types every failure mode.

use memconv_gpusim::{
    AnalysisConfig, DeviceConfig, FaultKind, FaultLog, FaultPlan, GpuSim, KernelStats, LaneMask,
    LaunchConfig, LaunchError, LaunchMode, VF, VU,
};

const N: u32 = 256;

fn sim_with(mode: LaunchMode, plan: Option<FaultPlan>) -> GpuSim {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
    sim.set_fault_plan(plan);
    sim
}

/// Copy kernel: out[i] = in[i]. Pure global loads + stores.
fn run_copy(sim: &mut GpuSim) -> Result<(KernelStats, Vec<f32>, FaultLog), LaunchError> {
    let data: Vec<f32> = (0..N).map(|i| i as f32 * 0.25 + 1.0).collect();
    let bi = sim.mem.upload(&data);
    let bo = sim.mem.alloc(N as usize);
    let cfg = LaunchConfig::linear(N / 64, 64);
    let stats = sim.try_launch(&cfg, |blk| {
        blk.each_warp(|w| {
            let tid = w.global_tid_x();
            let v = w.gld(bi, &tid, LaneMask::ALL);
            w.gst(bo, &tid, &v, LaneMask::ALL);
        });
    })?;
    let out = sim.mem.download(bo).to_vec();
    Ok((stats, out, sim.take_fault_log()))
}

/// Shared-memory roundtrip: store thread values to smem, load back, write
/// to global.
fn run_smem(sim: &mut GpuSim) -> Result<(Vec<f32>, FaultLog), LaunchError> {
    let bo = sim.mem.alloc(N as usize);
    let cfg = LaunchConfig::linear(N / 64, 64).with_shared(64);
    let stats = sim.try_launch(&cfg, |blk| {
        blk.each_warp(|w| {
            let ti = w.thread_idx();
            let v = ti.to_f32();
            w.sst(&ti, &v, LaneMask::ALL);
            let r = w.sld(&ti, LaneMask::ALL);
            w.gst(bo, &w.global_tid_x(), &r, LaneMask::ALL);
        });
    })?;
    assert!(stats.smem_passes > 0);
    Ok((sim.mem.download(bo).to_vec(), sim.take_fault_log()))
}

/// Shuffle kernel: butterfly-exchange lane values and store the result.
fn run_shuffle(sim: &mut GpuSim) -> Result<(Vec<f32>, FaultLog), LaunchError> {
    let bo = sim.mem.alloc(N as usize);
    let cfg = LaunchConfig::linear(N / 64, 64);
    sim.try_launch(&cfg, |blk| {
        blk.each_warp(|w| {
            let tid = w.global_tid_x();
            let v = tid.to_f32();
            let x = w.shfl_xor(&v, 1);
            let y = w.shfl_xor(&x, 2);
            w.gst(bo, &tid, &y, LaneMask::ALL);
        });
    })?;
    Ok((sim.mem.download(bo).to_vec(), sim.take_fault_log()))
}

/// A kernel that issues well over `HANG_WINDOW` (512) instructions per
/// block, so a rate-1 hang plan always manifests.
fn run_long(sim: &mut GpuSim) -> Result<KernelStats, LaunchError> {
    let data = vec![1.0f32; 64];
    let bi = sim.mem.upload(&data);
    let bo = sim.mem.alloc(64);
    let cfg = LaunchConfig::linear(2, 64);
    sim.try_launch(&cfg, |blk| {
        blk.each_warp(|w| {
            let ti = w.thread_idx();
            let mut acc = VF::splat(0.0);
            for _ in 0..400 {
                let v = w.gld(bi, &ti, LaneMask::ALL);
                acc = w.fma(v, v, acc);
            }
            w.gst(bo, &ti, &acc, LaneMask::ALL);
        });
    })
}

// ---------------------------------------------------------------------------
// Per-class evidence
// ---------------------------------------------------------------------------

#[test]
fn global_bit_flips_corrupt_loaded_values() {
    let (_, clean, log) = run_copy(&mut sim_with(LaunchMode::Sequential, None)).unwrap();
    assert!(log.is_empty());
    let plan = FaultPlan::new(1).with_rate(FaultKind::GlobalBitFlip, 1);
    let (_, dirty, log) = run_copy(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    assert!(log.count(FaultKind::GlobalBitFlip) > 0);
    assert_ne!(clean, dirty, "rate-1 bit flips must corrupt the copy");
    // Corruption bits are 16..=30: values change but stay finite-ish
    // (sign bit and low mantissa are never the target).
    assert!(dirty.iter().all(|v| !v.is_nan()));
}

#[test]
fn l2_sector_faults_shift_counters_but_never_values() {
    let (clean_stats, clean, _) = run_copy(&mut sim_with(LaunchMode::Sequential, None)).unwrap();
    for (kind, dir) in [
        (FaultKind::L2SectorDrop, -1i64),
        (FaultKind::L2SectorDup, 1),
    ] {
        let plan = FaultPlan::new(2).with_rate(kind, 1);
        let (stats, out, log) =
            run_copy(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
        assert!(log.count(kind) > 0, "{}", kind.name());
        assert_eq!(clean, out, "{}: functionally neutral", kind.name());
        let delta = stats.l2_accesses as i64 - clean_stats.l2_accesses as i64;
        assert!(
            delta * dir > 0,
            "{}: expected l2_accesses to move {dir:+}, delta {delta}",
            kind.name()
        );
    }
}

#[test]
fn shared_memory_corruption_reaches_readers() {
    let (clean, log) = run_smem(&mut sim_with(LaunchMode::Sequential, None)).unwrap();
    assert!(log.is_empty());
    let plan = FaultPlan::new(3).with_rate(FaultKind::SharedCorrupt, 1);
    let (dirty, log) = run_smem(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    assert!(log.count(FaultKind::SharedCorrupt) > 0);
    assert_ne!(clean, dirty, "corrupted smem words must reach the output");
}

#[test]
fn shuffle_corruption_reaches_lane_results() {
    let (clean, log) = run_shuffle(&mut sim_with(LaunchMode::Sequential, None)).unwrap();
    assert!(log.is_empty());
    let plan = FaultPlan::new(4).with_rate(FaultKind::ShuffleCorrupt, 1);
    let (dirty, log) = run_shuffle(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    assert!(log.count(FaultKind::ShuffleCorrupt) > 0);
    assert_ne!(clean, dirty);
}

#[test]
fn injected_hang_times_out_with_marker() {
    let plan = FaultPlan::new(5).with_rate(FaultKind::Hang, 1);
    let err = run_long(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap_err();
    match err {
        LaunchError::Timeout {
            hang_injected,
            issued,
            budget,
        } => {
            assert!(hang_injected, "timeout must be attributed to the fault");
            assert!(issued > budget);
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

#[test]
fn same_seed_same_faults_different_seed_different_faults() {
    let plan = FaultPlan::new(42).with_rate(FaultKind::GlobalBitFlip, 4);
    let (_, a, la) = run_copy(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    let (_, b, lb) = run_copy(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    assert_eq!(a, b, "same seed must reproduce bit-identically");
    assert_eq!(la, lb);
    let other = FaultPlan::new(43).with_rate(FaultKind::GlobalBitFlip, 4);
    let (_, c, _) = run_copy(&mut sim_with(LaunchMode::Sequential, Some(other))).unwrap();
    assert_ne!(a, c, "different seed should corrupt differently");
}

#[test]
fn engines_inject_identically() {
    let plan = FaultPlan::new(7)
        .with_rate(FaultKind::GlobalBitFlip, 3)
        .with_rate(FaultKind::L2SectorDrop, 4)
        .with_rate(FaultKind::SharedCorrupt, 2);
    let (seq_stats, seq_mem, seq_log) =
        run_copy(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    let (par_stats, par_mem, par_log) =
        run_copy(&mut sim_with(LaunchMode::Parallel, Some(plan))).unwrap();
    assert_eq!(seq_stats, par_stats);
    assert_eq!(seq_mem, par_mem);
    assert_eq!(seq_log, par_log);
    assert!(!seq_log.is_empty());

    let (seq_mem, seq_log) = run_smem(&mut sim_with(LaunchMode::Sequential, Some(plan))).unwrap();
    let (par_mem, par_log) = run_smem(&mut sim_with(LaunchMode::Parallel, Some(plan))).unwrap();
    assert_eq!(seq_mem, par_mem);
    assert_eq!(seq_log, par_log);
}

#[test]
fn retries_draw_fresh_faults() {
    // The launch sequence number advances per launch, so the same plan on
    // the same sim corrupts differently on consecutive (retried) launches.
    let plan = FaultPlan::new(8).with_rate(FaultKind::GlobalBitFlip, 2);
    let mut sim = sim_with(LaunchMode::Sequential, Some(plan));
    let (_, first, _) = run_copy(&mut sim).unwrap();
    let (_, second, _) = run_copy(&mut sim).unwrap();
    assert_ne!(first, second, "a retry must not replay the same upsets");
}

// ---------------------------------------------------------------------------
// try_launch error typing
// ---------------------------------------------------------------------------

#[test]
fn invalid_configs_are_typed_not_panics() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let noop = |_: &mut memconv_gpusim::BlockCtx<'_>| {};

    let bad_tpb = LaunchConfig::linear(1, 48);
    match sim.try_launch(&bad_tpb, noop) {
        Err(LaunchError::InvalidConfig(msg)) => assert!(msg.contains("multiple of 32")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    let empty = LaunchConfig::linear(0, 32);
    assert!(matches!(
        sim.try_launch(&empty, noop),
        Err(LaunchError::InvalidConfig(_))
    ));

    let huge_smem = LaunchConfig::linear(1, 32).with_shared(1 << 24);
    match sim.try_launch(&huge_smem, noop) {
        Err(LaunchError::InvalidConfig(msg)) => assert!(msg.contains("shared memory")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// Launch a one-block kernel on `dev` through both entry points of both
/// engines. `try_launch` must return `InvalidConfig` before any block runs,
/// and `launch` must panic with the same message; returns that message.
fn rejected_device_message(dev: &DeviceConfig) -> String {
    use std::sync::atomic::{AtomicBool, Ordering};
    let mut messages = Vec::new();
    for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
        let ran = AtomicBool::new(false);
        let kernel = |_: &mut memconv_gpusim::BlockCtx<'_>| ran.store(true, Ordering::Relaxed);
        let cfg = LaunchConfig::linear(1, 32).with_shared(32);
        let mut sim = GpuSim::new(dev.clone()).with_launch_mode(mode);
        let msg = match sim.try_launch(&cfg, kernel) {
            Err(LaunchError::InvalidConfig(msg)) => msg,
            other => panic!("{mode:?}: expected InvalidConfig, got {other:?}"),
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.launch(&cfg, kernel);
        }))
        .expect_err("launch must reject the device too");
        let panicked = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(panicked, &msg, "{mode:?}: launch and try_launch disagree");
        assert!(!ran.load(Ordering::Relaxed), "{mode:?}: a block ran");
        messages.push(msg);
    }
    assert_eq!(messages[0], messages[1], "engines disagree");
    messages.remove(0)
}

#[test]
fn non_power_of_two_sector_or_line_is_rejected() {
    let mut dev = DeviceConfig::test_tiny();
    (dev.sector_bytes, dev.line_bytes) = (48, 96);
    assert!(rejected_device_message(&dev).contains("powers of two"));
    let mut dev = DeviceConfig::test_tiny();
    dev.line_bytes = 96;
    assert!(rejected_device_message(&dev).contains("powers of two"));
}

#[test]
fn sectors_finer_than_the_trace_unit_are_rejected() {
    let mut dev = DeviceConfig::test_tiny();
    dev.sector_bytes = 16;
    assert!(rejected_device_message(&dev).contains("32 B units"));
}

#[test]
fn more_than_eight_sectors_per_line_is_rejected() {
    let mut dev = DeviceConfig::test_tiny();
    dev.line_bytes = 512;
    assert!(rejected_device_message(&dev).contains("1 to 8 sectors"));
    let mut dev = DeviceConfig::test_tiny();
    dev.sector_bytes = 256;
    assert!(rejected_device_message(&dev).contains("1 to 8 sectors"));
}

#[test]
fn caches_that_are_not_whole_sets_are_rejected() {
    let mut dev = DeviceConfig::test_tiny();
    dev.l2_ways = 3;
    let msg = rejected_device_message(&dev);
    assert!(
        msg.contains("bad cache geometry") && msg.contains("L2"),
        "{msg}"
    );
    let mut dev = DeviceConfig::test_tiny();
    dev.l1_bytes = 2 * 1024 + 64;
    let msg = rejected_device_message(&dev);
    assert!(
        msg.contains("bad cache geometry") && msg.contains("L1"),
        "{msg}"
    );
    let mut dev = DeviceConfig::test_tiny();
    dev.l1_ways = 0;
    assert!(rejected_device_message(&dev).contains("bad cache geometry"));
}

#[test]
fn zero_shared_memory_banks_are_rejected() {
    let mut dev = DeviceConfig::test_tiny();
    dev.smem_banks = 0;
    assert!(rejected_device_message(&dev).contains("no shared-memory banks"));
}

#[test]
fn out_of_bounds_accesses_are_classified_in_both_modes() {
    for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
        let small = sim.mem.upload(&[1.0f32; 8]);
        let cfg = LaunchConfig::linear(1, 32);
        let res = sim.try_launch(&cfg, |blk| {
            blk.each_warp(|w| {
                let idx = VU::splat(1_000_000);
                let _ = w.gld(small, &idx, LaneMask::ALL);
            });
        });
        match res {
            Err(LaunchError::OutOfBounds(msg)) => assert!(msg.contains("OOB"), "{mode:?}"),
            other => panic!("{mode:?}: expected OutOfBounds, got {other:?}"),
        }
    }
}

#[test]
fn tiny_budget_times_out_without_injection() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    sim.set_watchdog_budget(Some(100));
    let err = run_long(&mut sim).unwrap_err();
    match err {
        LaunchError::Timeout {
            hang_injected,
            budget,
            ..
        } => {
            assert!(!hang_injected);
            assert_eq!(budget, 100);
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn block_panics_are_typed_and_mode_is_restored() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(LaunchMode::Parallel);
    let cfg = LaunchConfig::linear(2, 32);
    let res = sim.try_launch(&cfg, |blk| {
        if blk.block_linear() == 1 {
            panic!("synthetic kernel bug");
        }
    });
    match res {
        // The parallel engine retries an unclassified panic once on the
        // sequential engine (graceful degradation); a deterministic bug
        // panics there too and comes back typed.
        Err(LaunchError::BlockPanic(msg)) => assert!(msg.contains("synthetic kernel bug")),
        other => panic!("expected BlockPanic, got {other:?}"),
    }
    assert_eq!(sim.launch_mode(), LaunchMode::Parallel, "mode restored");
}

#[test]
fn successful_try_launch_matches_launch_exactly() {
    let run = |fallible: bool| {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let data: Vec<f32> = (0..N).map(|i| i as f32).collect();
        let bi = sim.mem.upload(&data);
        let bo = sim.mem.alloc(N as usize);
        let cfg = LaunchConfig::linear(N / 32, 32);
        let kernel = move |blk: &mut memconv_gpusim::BlockCtx<'_>| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                let v = w.gld(bi, &tid, LaneMask::ALL);
                let s = w.warp_sum(&v);
                w.gst(bo, &tid, &s, LaneMask::ALL);
            });
        };
        let stats = if fallible {
            sim.try_launch(&cfg, kernel).unwrap()
        } else {
            sim.launch(&cfg, kernel)
        };
        (stats, sim.mem.download(bo).to_vec())
    };
    assert_eq!(run(false), run(true));
}

/// Lane runs take the span path in plain launches; hazard analysis keeps
/// every access on the per-lane path. With bit flips and L2 sector drops
/// and duplicates armed, both give the same counters, the same corrupted
/// outputs and the same fault log, in both engines: the span path draws
/// the faults the per-lane path draws, in the same order.
#[test]
fn lane_runs_draw_the_faults_of_the_per_lane_path() {
    let plan = FaultPlan::new(11)
        .with_rate(FaultKind::GlobalBitFlip, 3)
        .with_rate(FaultKind::L2SectorDrop, 2)
        .with_rate(FaultKind::L2SectorDup, 3);
    let run = |mode: LaunchMode, analyzed: bool| {
        let mut sim = sim_with(mode, Some(plan));
        if analyzed {
            sim.set_analysis(Some(AnalysisConfig::default()));
        }
        let data: Vec<f32> = (0..N + 40).map(|i| i as f32 * 0.5 - 3.0).collect();
        let bi = sim.mem.upload(&data);
        let bo = sim.mem.alloc(N as usize + 40);
        let stats = sim
            .try_launch(&LaunchConfig::linear(N / 64, 64), |blk| {
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    // A misaligned run over lines, a partial run, and a
                    // scatter (never a run) between them.
                    let a = w.gld(bi, &(tid + 3), LaneMask::ALL);
                    let b = w.gld(bi, &(tid + 37), LaneMask::first(29));
                    let c = w.gld(bi, &VU::from_fn(|l| tid.lane(l) ^ 5), LaneMask::ALL);
                    let r = w.fma(a, b, c);
                    w.gst(bo, &(tid + 5), &r, LaneMask::from_fn(|l| l >= 2));
                });
            })
            .unwrap();
        (stats, sim.mem.download(bo).to_vec(), sim.take_fault_log())
    };
    for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
        let (stats, out, log) = run(mode, false);
        assert!(log.count(FaultKind::GlobalBitFlip) > 0 && log.count(FaultKind::L2SectorDrop) > 0);
        assert_eq!((stats, out, log), run(mode, true), "{mode:?}");
    }
}

/// Pin the fleet's device-seed derivation: the mapping is stable across
/// releases (fleet replays and their BENCH provenance depend on it), each
/// device gets an independent fault stream, and re-deriving for the same
/// (fleet_seed, device_idx) is idempotent.
#[test]
fn device_seed_derivation_is_pinned_and_namespaced() {
    // Golden values: changing the mixing constants or the namespace tag
    // silently re-seeds every fleet chaos campaign — fail loudly instead.
    assert_eq!(FaultPlan::device_seed(0, 0), 0x3dd8_79ce_8902_220c);
    assert_eq!(FaultPlan::device_seed(0xF1EE7, 3), 0xadc6_8def_2f1d_9c8a);

    let seeds: Vec<u64> = (0..8).map(|d| FaultPlan::device_seed(7, d)).collect();
    let mut uniq = seeds.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), seeds.len(), "device streams must not collide");
    assert_eq!(FaultPlan::device_seed(7, 5), seeds[5]);

    // `for_device` re-keys the plan but keeps the rate template.
    let template = FaultPlan::single(FaultKind::Hang, 0xDEAD);
    let derived = template.for_device(7, 5);
    assert_eq!(derived.seed, seeds[5]);
    assert_eq!(
        derived.rate(FaultKind::Hang),
        FaultKind::Hang.default_rate()
    );
    assert_eq!(derived.rate(FaultKind::GlobalBitFlip), 0);

    // Different devices under the same template observe different fault
    // streams: the same launch on two derived plans produces different
    // corruption evidence (same totals would be a one-in-2^64 fluke).
    let run_under = |plan: FaultPlan| {
        let mut sim = sim_with(LaunchMode::Sequential, Some(plan));
        let (_, out, log) = run_copy(&mut sim).expect("copy kernel has no hang class armed");
        (out, log.total())
    };
    let bitflip = FaultPlan::new(0).with_rate(FaultKind::GlobalBitFlip, 1);
    let (out_a, n_a) = run_under(bitflip.for_device(7, 0));
    let (out_b, n_b) = run_under(bitflip.for_device(7, 1));
    assert!(n_a > 0 && n_b > 0, "both devices should observe injections");
    assert_ne!(out_a, out_b, "independent streams must corrupt differently");
}
