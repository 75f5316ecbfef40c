//! Criterion micro-benchmarks of the simulator substrate itself: the
//! coalescer, the shared-memory bank model, lane FMA, the sectored cache,
//! warp shuffles and the launch machinery — the per-event costs everything
//! else multiplies out of.

use criterion::{criterion_group, criterion_main, Criterion};
use memconv::gpusim::lane::{LaneMask, LaneVec, VF, VU, WARP};
use memconv::gpusim::memory::cache::{CachePolicy, SectoredCache};
use memconv::gpusim::memory::coalescer::coalesce_into;
use memconv::gpusim::memory::SharedMem;
use memconv::gpusim::shuffle;
use memconv::prelude::*;
use std::hint::black_box;

fn bench_coalescer(c: &mut Criterion) {
    let seq: [u64; WARP] = std::array::from_fn(|l| 0x1000 + l as u64 * 4);
    let scattered: [u64; WARP] = std::array::from_fn(|l| 0x1000 + (l as u64 * 97) % 4096);
    let mut buf = [0u64; 2 * WARP];
    c.bench_function("coalesce_sequential", |b| {
        b.iter(|| {
            black_box(coalesce_into(
                black_box(&seq),
                LaneMask::ALL,
                4,
                32,
                &mut buf,
            ))
        })
    });
    c.bench_function("coalesce_scattered", |b| {
        b.iter(|| {
            black_box(coalesce_into(
                black_box(&scattered),
                LaneMask::ALL,
                4,
                32,
                &mut buf,
            ))
        })
    });
}

fn bench_shared(c: &mut Criterion) {
    let mut smem = SharedMem::new(4096, 32);
    let unit = VU::lane_id();
    // Stride 2 plus a few repeated words: the sorted general path.
    let conflicted = VU::from_fn(|l| (l as u32 % 24) * 2);
    let vals = VF::from_fn(|l| l as f32);
    c.bench_function("smem_passes_unit_stride", |b| {
        b.iter(|| black_box(smem.passes(black_box(&unit), LaneMask::ALL)))
    });
    c.bench_function("smem_passes_conflicted", |b| {
        b.iter(|| black_box(smem.passes(black_box(&conflicted), LaneMask::ALL)))
    });
    c.bench_function("smem_store", |b| {
        b.iter(|| black_box(smem.store(black_box(&unit), &vals, LaneMask::ALL)))
    });
}

fn bench_fma(c: &mut Criterion) {
    let a = VF::from_fn(|l| l as f32 * 0.5);
    let x = VF::splat(1.25);
    let acc = VF::from_fn(|l| -(l as f32));
    c.bench_function("warp_fma", |b| {
        b.iter(|| black_box(black_box(&a).mul_add(&x, &acc)))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_stream_4k_sectors", |b| {
        b.iter(|| {
            let mut cache = SectoredCache::new(64 * 1024, 4, 128, 32, CachePolicy::l2());
            let mut hits = 0u64;
            for i in 0..4096u64 {
                if matches!(
                    cache.access((i % 1024) * 32, false),
                    memconv::gpusim::memory::cache::Access::Hit
                ) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
}

fn bench_shuffle(c: &mut Criterion) {
    let v = LaneVec::<f32>::from_fn(|l| l as f32);
    c.bench_function("shfl_xor", |b| {
        b.iter(|| std::hint::black_box(shuffle::shfl_xor(&v, 2, WARP).lane(0)))
    });
}

fn bench_launch(c: &mut Criterion) {
    c.bench_function("saxpy_launch_64k_threads", |b| {
        b.iter(|| {
            let mut sim = GpuSim::rtx2080ti();
            let x = sim.mem.alloc(65536);
            let y = sim.mem.alloc(65536);
            let stats = sim.launch(&LaunchConfig::linear(256, 256), |blk| {
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    let mask = tid.lt_scalar(65536);
                    let v = w.gld(x, &tid, mask);
                    let r = w.fma(v, memconv::gpusim::VF::splat(2.0), v);
                    w.gst(y, &tid, &r, mask);
                });
            });
            std::hint::black_box(stats.gld_transactions)
        })
    });
}

criterion_group!(
    benches,
    bench_coalescer,
    bench_shared,
    bench_fma,
    bench_cache,
    bench_shuffle,
    bench_launch
);
criterion_main!(benches);
