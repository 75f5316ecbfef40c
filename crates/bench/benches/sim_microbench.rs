//! Criterion micro-benchmarks of the simulator substrate itself: the
//! coalescer, the shared-memory bank model (lane runs, FFT's bit-reversed
//! stores and butterflies, the GEMM broadcast read), lane FMA, the
//! sectored cache (per sector and per line), a warp's lane-run loads,
//! Algorithm 1's row loads, warp shuffles, the paper's inner loop (row
//! FMAs, filter-weight loads, Algorithm 1's exchange), the GEMM register
//! tile's column FMAs and the launch machinery — the per-event costs
//! everything else multiplies out of.

use criterion::{criterion_group, criterion_main, Criterion};
use memconv::core::column_reuse::{exchange_step, load_row_columns};
use memconv::core::{ColumnPlan, Exchange};
use memconv::gpusim::lane::{LaneMask, LaneVec, VF, VU, WARP};
use memconv::gpusim::memory::cache::{Access, CachePolicy, SectoredCache};
use memconv::gpusim::memory::coalescer::coalesce_into;
use memconv::gpusim::memory::SharedMem;
use memconv::gpusim::{shuffle, WarpCtx};
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
    // A lane run of consecutive words: one bounds check and one copy.
    let run = VU::from_fn(|l| 96 + l as u32);
    c.bench_function("smem_load_run", |b| {
        b.iter(|| black_box(smem.load(black_box(&run), LaneMask::ALL)))
    });
    // FFT's bit-reversed store of a 1024-point row: every lane in one bank
    // on its own word, the general count's worst case.
    let bitrev = VU::from_fn(|l| ((l as u32).reverse_bits() >> 22) + 3);
    c.bench_function("smem_store_bitrev", |b| {
        b.iter(|| black_box(smem.store(black_box(&bitrev), &vals, LaneMask::ALL)))
    });
    // An FFT butterfly's `k + j` indices at half 4: two lanes per bank.
    let butterfly = VU::from_fn(|l| (l as u32 / 4) * 8 + l as u32 % 4);
    c.bench_function("smem_passes_butterfly", |b| {
        b.iter(|| black_box(smem.passes(black_box(&butterfly), LaneMask::ALL)))
    });
    // The GEMM kernels' A-operand read: every lane on one 4-word segment,
    // returned as the four scalars a uniform register holds.
    c.bench_function("smem_load_vec_broadcast", |b| {
        b.iter(|| black_box(smem.load_vec::<4>(black_box(64))))
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

/// Run `body` 256 times in the one warp of a one-block launch on the tiny
/// device, whose launch costs little next to the loop; returns the
/// launch's instruction counts so the work is not optimized away.
fn warp_loop(sim: &mut GpuSim, body: impl Fn(&mut WarpCtx<'_, '_>) + Sync) -> u64 {
    let stats = sim.launch(&LaunchConfig::linear(1, 32), |blk| {
        blk.each_warp(|w| {
            for _ in 0..256 {
                body(w);
            }
        });
    });
    stats.fma_instrs + stats.fp_instrs + stats.shfl_instrs
}

fn bench_inner_loop(c: &mut Criterion) {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let weights = sim
        .mem
        .upload(&[0.5, -1.25, 2.0, 0.75, 1.5, -0.5, 0.25, 3.0, -2.0]);
    let xs = [
        VF::from_fn(|l| l as f32 * 0.5),
        VF::splat(1.25),
        VF::from_fn(|l| -(l as f32)),
    ];
    let ws = [0.5f32, -1.25, 2.0];
    // Algorithm 2's multiply of one loaded 3-column row against one filter
    // row: one row FMA, against the three single FMAs it replaces.
    c.bench_function("warp_fma_row", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                let mut acc = VF::splat(0.0);
                w.fma_row(&mut acc, black_box(&xs), black_box(&ws));
                black_box(acc);
            })
        })
    });
    c.bench_function("warp_fma_row_as_single_fmas", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                let mut acc = VF::splat(0.0);
                for (&x, &wt) in black_box(&xs).iter().zip(black_box(&ws)) {
                    acc = w.fma(x, VF::splat(wt), acc);
                }
                black_box(acc);
            })
        })
    });
    // A GEMM register tile's update by one B register: eight rows times a
    // column of uniform scalars in one call, against the eight single FMAs
    // it replaces.
    let col = [0.5f32, -1.25, 2.0, 0.75, 1.5, -0.5, 0.25, 3.0];
    c.bench_function("warp_fma_col", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                let mut rows = [VF::splat(0.0); 8];
                w.fma_col(&mut rows, black_box(&xs[0]), black_box(&col));
                black_box(rows);
            })
        })
    });
    c.bench_function("warp_fma_col_as_single_fmas", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                let mut rows = [VF::splat(0.0); 8];
                let x = *black_box(&xs[0]);
                for (row, &a) in rows.iter_mut().zip(black_box(&col)) {
                    *row = w.fma(x, VF::splat(a), *row);
                }
                black_box(rows);
            })
        })
    });
    // A 3×3 filter plane into registers: one row of scalar constant loads,
    // against nine splatting `const_load`s.
    c.bench_function("const_load_row", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                let mut plane = [0.0f32; 9];
                w.const_load_row(weights, 0, &mut plane);
                black_box(plane);
            })
        })
    });
    c.bench_function("const_load_row_as_single_loads", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                let plane: [VF; 9] = std::array::from_fn(|i| w.const_load(weights, i as u32));
                black_box(plane);
            })
        })
    });
    // Algorithm 1's pack/shift/unpack and `shfl_xor` for a 5-wide filter.
    let e = Exchange {
        lo: 0,
        hi: 4,
        mask: 2,
    };
    c.bench_function("exchange_step", |b| {
        b.iter(|| {
            warp_loop(&mut sim, |w| {
                black_box(exchange_step(w, black_box(&xs[0]), black_box(&xs[2]), &e));
            })
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_stream_4k_sectors", |b| {
        b.iter(|| {
            let mut cache = SectoredCache::new(64 * 1024, 4, 128, 32, CachePolicy::l2());
            let mut hits = 0u64;
            for i in 0..4096u64 {
                if matches!(cache.access((i % 1024) * 32, false), Access::Hit) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
}

fn bench_cache_2080ti(c: &mut Criterion) {
    let dev = DeviceConfig::rtx2080ti();
    // 512 sectors of one block's working set, all resident after the
    // first sweep: the L1 hit path (power-of-two set count).
    let mut l1 = SectoredCache::new(
        dev.l1_bytes,
        dev.l1_ways,
        dev.line_bytes,
        dev.sector_bytes,
        CachePolicy::l1(),
    );
    c.bench_function("cache_l1_resident_hits", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..512u64 {
                hits += matches!(l1.access(black_box(i * 32), false), Access::Hit) as u64;
            }
            black_box(hits)
        })
    });
    // A launch-sized L2 stream with reuse: 16k sectors over an 8 MB
    // footprint on the 2816-set (not a power of two) L2.
    let mut l2 = SectoredCache::new(
        dev.l2_bytes,
        dev.l2_ways,
        dev.line_bytes,
        dev.sector_bytes,
        CachePolicy::l2(),
    );
    c.bench_function("cache_l2_stream_2080ti", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..16_384u64 {
                let sector = (i * 0x9E37_79B9) % (1 << 18);
                hits += matches!(l2.access(sector * 32, i % 4 == 0), Access::Hit) as u64;
            }
            black_box(hits)
        })
    });
}

fn bench_cache_line(c: &mut Criterion) {
    let dev = DeviceConfig::rtx2080ti();
    // The same 512 resident sectors as `cache_l1_resident_hits`, probed as
    // 128 whole lines: one probe per line instead of one per sector.
    let mut l1 = SectoredCache::new(
        dev.l1_bytes,
        dev.l1_ways,
        dev.line_bytes,
        dev.sector_bytes,
        CachePolicy::l1(),
    );
    c.bench_function("cache_access_line", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for line in 0..128u64 {
                hits += l1
                    .access_line(black_box(line * 128), 0b1111, false)
                    .count_ones();
            }
            black_box(hits)
        })
    });
}

fn bench_gld_run(c: &mut Criterion) {
    // A column-reuse row load, as Algorithm 1 issues it: one warp loading
    // 32 consecutive columns of each of 256 rows (a lane run per load), on
    // the 2080 Ti's caches. One launch of one warp per iteration.
    let mut sim = GpuSim::rtx2080ti();
    let iw = 96u32;
    let x = sim.mem.alloc(256 * iw as usize);
    c.bench_function("gld_run_warp_2080ti", |b| {
        b.iter(|| {
            let stats = sim.launch(&LaunchConfig::linear(1, 32), |blk| {
                blk.each_warp(|w| {
                    let lane = w.lane_id();
                    let mut acc = VF::splat(0.0);
                    for row in 0..256u32 {
                        let v = w.gld(x, &(lane + (row * iw + 2)), LaneMask::ALL);
                        acc = acc + v;
                    }
                    black_box(acc);
                });
            });
            black_box(stats.gld_transactions)
        })
    });
}

fn bench_load_row_columns(c: &mut Criterion) {
    // Algorithm 1's row load at FW 5 (two loads, three exchanges) over 256
    // rows on the 2080 Ti's caches, one launch of one warp per iteration:
    // 96-wide rows, whose loads span the full warp, and the 18-wide rows of
    // `serve`'s widest endpoint, whose two loads span 18 and 14 lanes.
    let mut sim = GpuSim::rtx2080ti();
    let plan = ColumnPlan::new(5);
    for (name, iw) in [
        ("load_row_columns_fw5_warp", 96u32),
        ("load_row_columns_fw5_18", 18),
    ] {
        let x = sim.mem.alloc(256 * iw as usize);
        c.bench_function(name, |b| {
            b.iter(|| {
                let stats = sim.launch(&LaunchConfig::linear(1, 32), |blk| {
                    blk.each_warp(|w| {
                        let mut slots = [VF::splat(0.0); 5];
                        let mut acc = VF::splat(0.0);
                        for row in 0..256u32 {
                            load_row_columns(w, x, row * iw, iw, &plan, &mut slots);
                            acc = acc + slots[2];
                        }
                        black_box(acc);
                    });
                });
                black_box(stats.gld_transactions)
            })
        });
    }
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
    // Many one-block launches on one simulator, so each launch renews the
    // kept L2 and block L1 instead of building them. Isolates that per-launch
    // cost; no perfbench workload launches this way (EXPERIMENTS.md counts
    // their launches per simulator).
    let mut sim = GpuSim::rtx2080ti();
    let x = sim.mem.alloc(256);
    c.bench_function("tiny_launch_loop", |b| {
        b.iter(|| {
            let mut gld = 0;
            for _ in 0..16 {
                let stats = sim.launch(&LaunchConfig::linear(1, 256).with_shared(1024), |blk| {
                    blk.each_warp(|w| {
                        let tid = w.thread_idx();
                        let v = w.gld(x, &tid, LaneMask::ALL);
                        w.sst(&tid, &v, LaneMask::ALL);
                    });
                });
                gld += stats.gld_transactions;
            }
            black_box(gld)
        })
    });
}

criterion_group!(
    benches,
    bench_coalescer,
    bench_shared,
    bench_fma,
    bench_inner_loop,
    bench_cache,
    bench_cache_2080ti,
    bench_cache_line,
    bench_gld_run,
    bench_load_row_columns,
    bench_shuffle,
    bench_launch
);
criterion_main!(benches);
