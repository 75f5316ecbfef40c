//! A shared-memory tiled SGEMM kernel (`C = A · B`, row-major), the
//! workhorse of the GEMM-family baselines: explicit im2col convolution and
//! the non-fused Winograd pipeline. Supports batching through `grid.z`
//! with per-matrix strides (cuBLAS `gemmStridedBatched` style).
//!
//! Tiling: 64×32 C-tiles, K in steps of 8, 256-thread blocks (8 warps);
//! each warp computes an 8×32 slice with per-lane register accumulators.

use memconv_gpusim::{BufId, GpuSim, KernelStats, LaunchConfig, SampleMode, VF, VU, WARP};

const BM: usize = 64;
const BN: usize = 32;
const BK: usize = 8;

/// Dimensions of one GEMM.
#[derive(Debug, Clone, Copy)]
pub struct GemmDims {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `A` / rows of `B`.
    pub k: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
}

/// Batched GEMM launch description.
#[derive(Debug, Clone, Copy)]
pub struct GemmBatch {
    /// Number of independent GEMMs (grid.z).
    pub batch: usize,
    /// Element stride between consecutive `A` matrices.
    pub stride_a: usize,
    /// Element stride between consecutive `B` matrices.
    pub stride_b: usize,
    /// Element stride between consecutive `C` matrices.
    pub stride_c: usize,
    /// Base element offset of the first `A` matrix.
    pub base_a: usize,
    /// Base element offset of the first `B` matrix.
    pub base_b: usize,
    /// Base element offset of the first `C` matrix.
    pub base_c: usize,
    /// When set, `B` is stored *transposed* (column-major `K×N`, i.e. the
    /// element `(k, n)` lives at `base_b + n·ld + k`) with this leading
    /// dimension — cuBLAS's `op(B) = Bᵀ` mode, needed by MEC's overlapping
    /// window views.
    pub ldb_transposed: Option<usize>,
    /// Leading dimension of `C` (defaults to `n`): element `(m, j)` lives
    /// at `base_c + m·ldc + j`, letting batched GEMMs scatter rows into a
    /// larger tensor.
    pub ldc: Option<usize>,
}

impl GemmBatch {
    /// A single (non-batched) GEMM at buffer offset 0.
    pub fn single() -> Self {
        GemmBatch {
            batch: 1,
            stride_a: 0,
            stride_b: 0,
            stride_c: 0,
            base_a: 0,
            base_b: 0,
            base_c: 0,
            ldb_transposed: None,
            ldc: None,
        }
    }

    /// A single GEMM with explicit buffer base offsets.
    pub fn single_at(base_a: usize, base_b: usize, base_c: usize) -> Self {
        GemmBatch {
            base_a,
            base_b,
            base_c,
            ..GemmBatch::single()
        }
    }
}

/// Launch the tiled SGEMM. `C` is overwritten (not accumulated into).
#[allow(clippy::too_many_arguments)]
pub fn launch_gemm(
    sim: &mut GpuSim,
    a: BufId,
    b: BufId,
    c: BufId,
    dims: GemmDims,
    batch: GemmBatch,
    sample: SampleMode,
) -> KernelStats {
    let GemmDims { m, k, n } = dims;
    assert!(m > 0 && k > 0 && n > 0, "degenerate GEMM");
    let gx = n.div_ceil(BN) as u32;
    let gy = m.div_ceil(BM) as u32;
    let gz = batch.batch as u32;
    let smem_words = BM * BK + BK * BN;
    let cfg = LaunchConfig::grid3d(gx, gy, gz, 256)
        .with_shared(smem_words)
        .with_sample(sample);

    sim.launch(&cfg, |blk| {
        let (bx, by, bz) = blk.block_idx;
        let n0 = bx as usize * BN;
        let m0 = by as usize * BM;
        let (abase, bbase, cbase) = (
            batch.base_a + bz as usize * batch.stride_a,
            batch.base_b + bz as usize * batch.stride_b,
            batch.base_c + bz as usize * batch.stride_c,
        );
        let warps = blk.num_warps();
        let mut acc = vec![[VF::splat(0.0); BM / 8]; warps];
        // Each warp owns 8 rows of the C tile; BM/8 == warps when 256
        // threads — assert the mapping is complete.
        debug_assert_eq!(warps * 8, BM);

        let ktiles = k.div_ceil(BK);
        for kt in 0..ktiles {
            let k0 = kt * BK;
            // --- stage A (BM×BK) and B (BK×BN) tiles -----------------------
            blk.each_warp(|w| {
                let lane = w.lane_id();
                // A: 512 elements, 2 per thread.
                for rep in 0..(BM * BK / (WARP * warps)).max(1) {
                    let flat0 = (rep * warps + w.warp_id) * WARP;
                    let flat = lane + flat0 as u32;
                    let i = flat.map(|v| v / BK as u32);
                    let j = flat.map(|v| v % BK as u32);
                    let mask = memconv_gpusim::LaneMask::from_fn(|l| {
                        m0 + (i.lane(l) as usize) < m && k0 + (j.lane(l) as usize) < k
                    });
                    let gidx = VU::from_fn(|l| {
                        (abase
                            + (m0 + (i.lane(l) as usize).min(m.saturating_sub(1))) * k
                            + (k0 + (j.lane(l) as usize)).min(k - 1)) as u32
                    });
                    // masked lanes deliver 0.0, zero-padding the tile
                    let v = w.gld(a, &gidx, mask);
                    let zero = VF::splat(0.0);
                    let v = v.select(mask, &zero);
                    w.sst(&flat, &v, memconv_gpusim::LaneMask::ALL);
                }
                // B: 256 elements, 1 per thread.
                let flat0 = w.warp_id * WARP;
                let flat = lane + flat0 as u32;
                let (r, cidx) = match batch.ldb_transposed {
                    // transposed B: read along k (contiguous), transpose
                    // into shared memory
                    Some(_) => (flat.map(|v| v % BK as u32), flat.map(|v| v / BK as u32)),
                    None => (flat.map(|v| v / BN as u32), flat.map(|v| v % BN as u32)),
                };
                let mask = memconv_gpusim::LaneMask::from_fn(|l| {
                    k0 + (r.lane(l) as usize) < k && n0 + (cidx.lane(l) as usize) < n
                });
                let gidx = VU::from_fn(|l| {
                    let kk = (k0 + r.lane(l) as usize).min(k.saturating_sub(1));
                    let nn = (n0 + cidx.lane(l) as usize).min(n - 1);
                    (match batch.ldb_transposed {
                        Some(ld) => bbase + nn * ld + kk,
                        None => bbase + kk * n + nn,
                    }) as u32
                });
                let v = w.gld(b, &gidx, mask);
                let zero = VF::splat(0.0);
                let v = v.select(mask, &zero);
                // shared layout is always [k][n]
                let smem_idx = VU::from_fn(|l| {
                    (BM * BK + r.lane(l) as usize * BN + cidx.lane(l) as usize) as u32
                });
                w.sst(&smem_idx, &v, memconv_gpusim::LaneMask::ALL);
            });
            blk.barrier();
            // --- multiply-accumulate --------------------------------------
            blk.each_warp(|w| {
                let lane = w.lane_id();
                let rows = &mut acc[w.warp_id];
                // A operand: one LDS.128 broadcast per row per 4-k group
                // (the register-tiling trick real SGEMMs use), held as
                // uniform scalars, column `kk_in` of the quad per k.
                for quad in 0..BK / 4 {
                    let mut acols = [[0.0f32; BM / 8]; 4];
                    for r in 0..BM / 8 {
                        let arow = w.warp_id * 8 + r;
                        let a = w.sld_vec::<4>((arow * BK + quad * 4) as u32);
                        for (col, v) in acols.iter_mut().zip(a) {
                            col[r] = v;
                        }
                    }
                    for (kk_in, col) in acols.iter().enumerate() {
                        let kk = quad * 4 + kk_in;
                        let bidx = lane.map(|l| (BM * BK + kk * BN) as u32 + (l % BN as u32));
                        let bval = w.sld(&bidx, memconv_gpusim::LaneMask::ALL);
                        w.fma_col(rows, &bval, col);
                    }
                }
            });
            blk.barrier();
        }

        // --- write back C ------------------------------------------------
        blk.each_warp(|w| {
            let lane = w.lane_id();
            let col_mask = lane.lt_scalar(n.saturating_sub(n0) as u32);
            for (r, slot) in acc[w.warp_id].iter().enumerate() {
                let row = m0 + w.warp_id * 8 + r;
                if row >= m {
                    break;
                }
                let ldc = batch.ldc.unwrap_or(n);
                let idx = lane + (cbase + row * ldc + n0) as u32;
                w.gst(c, &idx, slot, col_mask);
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::gemm_ref;
    use memconv_tensor::assert_close;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn run_gemm(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let ba = sim.mem.upload(&a);
        let bb = sim.mem.upload(&b);
        let bc = sim.mem.alloc(m * n);
        launch_gemm(
            &mut sim,
            ba,
            bb,
            bc,
            GemmDims { m, k, n },
            GemmBatch::single(),
            SampleMode::Full,
        );
        let got = sim.mem.download(bc);
        let want = gemm_ref(m, k, n, &a, &b);
        assert_close(got, &want, 1e-4, 1e-4, &format!("gemm {m}x{k}x{n}"));
    }

    #[test]
    fn exact_tile_multiple() {
        run_gemm(64, 8, 32, 1);
        run_gemm(128, 16, 64, 2);
    }

    #[test]
    fn ragged_dimensions() {
        run_gemm(1, 9, 100, 3); // the Fig. 3 degenerate M=1 shape
        run_gemm(65, 7, 33, 4);
        run_gemm(3, 27, 50, 5);
        run_gemm(70, 25, 31, 6);
    }

    #[test]
    fn batched_gemms_are_independent() {
        let m = 8;
        let k = 4;
        let n = 8;
        let mut rng = StdRng::seed_from_u64(7);
        let a: Vec<f32> = (0..2 * m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..2 * k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let ba = sim.mem.upload(&a);
        let bb = sim.mem.upload(&b);
        let bc = sim.mem.alloc(2 * m * n);
        launch_gemm(
            &mut sim,
            ba,
            bb,
            bc,
            GemmDims { m, k, n },
            GemmBatch {
                batch: 2,
                stride_a: m * k,
                stride_b: k * n,
                stride_c: m * n,
                ..GemmBatch::single()
            },
            SampleMode::Full,
        );
        let got = sim.mem.download(bc);
        for z in 0..2 {
            let want = gemm_ref(
                m,
                k,
                n,
                &a[z * m * k..(z + 1) * m * k],
                &b[z * k * n..(z + 1) * k * n],
            );
            assert_close(
                &got[z * m * n..(z + 1) * m * n],
                &want,
                1e-4,
                1e-4,
                &format!("batch {z}"),
            );
        }
    }

    #[test]
    fn transposed_b_matches_row_major() {
        let (m, k, n) = (5, 12, 40);
        let mut rng = StdRng::seed_from_u64(11);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // store B transposed: bt[n][k]
        let mut bt = vec![0.0f32; k * n];
        for r in 0..k {
            for c in 0..n {
                bt[c * k + r] = b[r * n + c];
            }
        }
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let ba = sim.mem.upload(&a);
        let bb = sim.mem.upload(&bt);
        let bc = sim.mem.alloc(m * n);
        launch_gemm(
            &mut sim,
            ba,
            bb,
            bc,
            GemmDims { m, k, n },
            GemmBatch {
                ldb_transposed: Some(k),
                ..GemmBatch::single()
            },
            SampleMode::Full,
        );
        let want = gemm_ref(m, k, n, &a, &b);
        assert_close(sim.mem.download(bc), &want, 1e-4, 1e-4, "transposed B");
    }

    #[test]
    fn strided_c_rows_scatter() {
        let (m, k, n) = (3, 4, 8);
        let ldc = 20usize;
        let mut rng = StdRng::seed_from_u64(12);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let ba = sim.mem.upload(&a);
        let bb = sim.mem.upload(&b);
        let bc = sim.mem.alloc(m * ldc);
        launch_gemm(
            &mut sim,
            ba,
            bb,
            bc,
            GemmDims { m, k, n },
            GemmBatch {
                ldc: Some(ldc),
                ..GemmBatch::single()
            },
            SampleMode::Full,
        );
        let got = sim.mem.download(bc);
        let want = gemm_ref(m, k, n, &a, &b);
        for r in 0..m {
            assert_close(
                &got[r * ldc..r * ldc + n],
                &want[r * n..(r + 1) * n],
                1e-4,
                1e-4,
                &format!("row {r}"),
            );
        }
    }

    #[test]
    fn gemm_reads_b_once_per_row_of_m_tiles() {
        // Traffic sanity: B transactions scale with ceil(M/64).
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (k, n) = (8, 512);
        let a1 = sim.mem.alloc(64 * k);
        let b1 = sim.mem.alloc(k * n);
        let c1 = sim.mem.alloc(64 * n);
        let s1 = launch_gemm(
            &mut sim,
            a1,
            b1,
            c1,
            GemmDims { m: 64, k, n },
            GemmBatch::single(),
            SampleMode::Full,
        );
        let a2 = sim.mem.alloc(128 * k);
        let c2 = sim.mem.alloc(128 * n);
        let s2 = launch_gemm(
            &mut sim,
            a2,
            b1,
            c2,
            GemmDims { m: 128, k, n },
            GemmBatch::single(),
            SampleMode::Full,
        );
        // doubling M doubles B-tile reads (requests scale ~2x overall here)
        assert!(s2.gld_requests > s1.gld_requests * 3 / 2);
    }
}
