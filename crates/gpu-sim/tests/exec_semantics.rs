//! Execution-semantics tests: barrier visibility, vectorized shared loads,
//! Auto sampling resolution, local-memory failure injection, and warp
//! reductions — the corners the kernel suites rely on implicitly.

use memconv_gpusim::lane::{LaneMask, VF, VU};
use memconv_gpusim::{
    DeviceConfig, GpuSim, LaunchConfig, LaunchError, LaunchMode, PrivArray, SampleMode,
};

#[test]
fn sld_vec_broadcast_is_one_pass_and_correct() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let out = sim.mem.alloc(4);
    let stats = sim.launch(&LaunchConfig::linear(1, 32).with_shared(16), |blk| {
        blk.each_warp(|w| {
            // fill words 0..8
            let idx = w.lane_id();
            let val = idx.to_f32();
            w.sst(&idx, &val, LaneMask::first(8));
            // vec4 broadcast from word 4
            let vals = w.sld_vec::<4>(&VU::splat(4), LaneMask::ALL);
            for (k, v) in vals.iter().enumerate() {
                assert_eq!(v.lane(13), (4 + k) as f32);
            }
            w.gst(
                out,
                &VU::from_fn(|l| l as u32),
                &vals[0],
                LaneMask::first(1),
            );
        });
    });
    // one sst pass for the fill + one pass for the whole vec4 broadcast
    assert_eq!(stats.smem_accesses, 2);
    assert_eq!(stats.smem_passes, 2);
}

#[test]
#[should_panic(expected = "aligned")]
fn sld_vec_rejects_misaligned_access() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    sim.launch(&LaunchConfig::linear(1, 32).with_shared(16), |blk| {
        blk.each_warp(|w| {
            let _ = w.sld_vec::<4>(&VU::splat(2), LaneMask::ALL);
        });
    });
}

#[test]
fn barrier_orders_shared_memory_between_warps() {
    // warp 1 writes, barrier, warp 0 reads what warp 1 wrote
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let out = sim.mem.alloc(32);
    sim.launch(&LaunchConfig::linear(1, 64).with_shared(64), |blk| {
        blk.each_warp(|w| {
            if w.warp_id == 1 {
                let idx = w.lane_id();
                let val = VF::splat(9.0);
                w.sst(&idx, &val, LaneMask::ALL);
            }
        });
        blk.barrier();
        blk.each_warp(|w| {
            if w.warp_id == 0 {
                let idx = w.lane_id();
                let v = w.sld(&idx, LaneMask::ALL);
                w.gst(out, &idx, &v, LaneMask::ALL);
            }
        });
    });
    assert!(sim.mem.download(out).iter().all(|&v| v == 9.0));
}

#[test]
fn auto_sampling_resolves_per_launch() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let n = 32 * 1024u32;
    let b = sim.mem.alloc(n as usize);
    // large grid → sampled; small grid → full. Same Auto setting.
    let run = |sim: &mut GpuSim, blocks: u32| {
        let cfg = LaunchConfig::linear(blocks, 32).with_sample(SampleMode::Auto(8));
        sim.launch(&cfg, |blk| {
            let bx = blk.block_idx.0;
            blk.each_warp(|w| {
                let idx = VU::from_fn(|l| (bx * 32 + l as u32) % n);
                let v = w.gld(b, &idx, LaneMask::ALL);
                let _ = v;
            });
        })
    };
    let small = run(&mut sim, 4);
    assert_eq!(small.gld_requests, 4, "small grid runs Full");
    let large = run(&mut sim, 1024);
    // extrapolated back to the full block count
    assert_eq!(large.gld_requests, 1024);
}

#[test]
#[should_panic(expected = "local memory overflow")]
fn local_memory_overflow_detected() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    sim.launch(&LaunchConfig::linear(1, 32), |blk| {
        blk.each_warp(|w| {
            // each PrivArray<64> takes 64 spill words; the 5th exceeds 255
            for _ in 0..5 {
                let mut a = PrivArray::<64>::local();
                a.set(w, 0, VF::splat(1.0));
            }
        });
    });
}

#[test]
fn warp_sum_and_max_counted_and_correct() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let out = sim.mem.alloc(2);
    let stats = sim.launch(&LaunchConfig::linear(1, 32), |blk| {
        blk.each_warp(|w| {
            let v = w.lane_id().to_f32();
            let s = w.warp_sum(&v);
            let m = w.warp_max(&v);
            assert_eq!(s.lane(0), 496.0);
            assert_eq!(s.lane(31), 496.0);
            assert_eq!(m.lane(7), 31.0);
            w.gst(out, &VU::splat(0), &s, LaneMask::first(1));
            w.gst(out, &VU::splat(1), &m, LaneMask::first(1));
        });
    });
    assert_eq!(stats.shfl_instrs, 10, "two 5-step butterfly trees");
    assert_eq!(sim.mem.download(out), &[496.0, 31.0]);
}

#[test]
fn grid_z_blocks_receive_distinct_local_memory() {
    // PrivArray local slots must not alias across blocks (address spaces
    // are disjoint), or spill traffic would alias in the cache model.
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let out = sim.mem.alloc(4);
    sim.launch(&LaunchConfig::grid3d(1, 1, 4, 32), |blk| {
        let bz = blk.block_idx.2;
        blk.each_warp(|w| {
            let mut a = PrivArray::<2>::local();
            a.set(w, 0, VF::splat(bz as f32));
            let v = a.get(w, 0);
            w.gst(out, &VU::splat(bz), &v, LaneMask::first(1));
        });
    });
    assert_eq!(sim.mem.download(out), &[0.0, 1.0, 2.0, 3.0]);
}

#[test]
fn huge_sampled_grid_simulates_only_its_sample() {
    // 2^38 blocks: the Auto skip exceeds a u32 and saturates, and the
    // launch walks only the two selected 64-block chunks. The kernel avoids
    // `global_tid_x`, whose u32 arithmetic would overflow on this grid.
    for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
        let buf = sim.mem.upload(&[1.0f32; 32]);
        let cfg = LaunchConfig::grid3d(1 << 31, 128, 1, 32).with_sample(SampleMode::Auto(64));
        let stats = sim
            .try_launch(&cfg, |blk| {
                blk.each_warp(|w| {
                    let _ = w.gld(buf, &w.lane_id(), LaneMask::ALL);
                });
            })
            .expect("a valid launch");
        assert_eq!(stats.sim_blocks, 128, "{mode:?}");
        assert_eq!(stats.threads, 32 << 38, "{mode:?}");
        assert_eq!(stats.gld_requests, 1 << 38, "{mode:?}: extrapolated");
    }
}

#[test]
fn grids_whose_thread_count_overflows_are_invalid() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    for grid in [(u32::MAX, u32::MAX, u32::MAX), (u32::MAX, u32::MAX, 2)] {
        let (gx, gy, gz) = grid;
        let cfg = LaunchConfig::grid3d(gx, gy, gz, 1024);
        match sim.try_launch(&cfg, |_| {}) {
            Err(LaunchError::InvalidConfig(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("{grid:?}: expected InvalidConfig, got {other:?}"),
        }
    }
}
