//! FFT-based convolution — cuDNN's `FFT` and `FFT_TILING` algorithms.
//!
//! Correlation is computed in the frequency domain as
//! `IFFT( FFT(input) · conj(FFT(filter)) )`: with zero-padding to
//! `P ≥ IH + FH − 1` the circular correlation equals the valid correlation
//! at lags `0 ‥ OH−1`, so no filter flip is needed.
//!
//! * [`FftConv`] transforms whole planes. Like cuDNN's `FFT` algorithm it
//!   only supports spatial sizes up to 256 px (padded to a power of two);
//!   the pipeline is pad → row FFT → transpose → row FFT per operand, a
//!   channel-contracting pointwise product, and the inverse path.
//! * [`FftTiling`] processes 32×32 tiles (overlap-save) with the whole 2D
//!   FFT held in one warp's registers + one shared-memory transpose — a
//!   single main launch that works for any image size, trading extra
//!   arithmetic and halo re-reads for the absence of giant spectra.

use memconv_core::api::ConvNchwAlgorithm;
use memconv_gpusim::{
    BufId, GpuSim, KernelStats, LaneMask, LaunchConfig, RunReport, SampleMode, WarpCtx, VF, VU,
    WARP,
};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Round up to the next power of two.
fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// Host twiddle tables `e^{-2πi k / n}` for `k < n/2`.
fn twiddles(n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut re = Vec::with_capacity(n / 2);
    let mut im = Vec::with_capacity(n / 2);
    for k in 0..n / 2 {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        re.push(ang.cos() as f32);
        im.push(ang.sin() as f32);
    }
    (re, im)
}

/// Test hook: expose the twiddle builder.
pub fn test_twiddles(n: usize) -> (Vec<f32>, Vec<f32>) {
    twiddles(n)
}

/// Test hook: expose the row-FFT launcher.
#[allow(clippy::too_many_arguments)]
pub fn test_fft_rows(
    sim: &mut GpuSim,
    re: BufId,
    im: BufId,
    rows: usize,
    len: usize,
    inverse: bool,
    tw_re: BufId,
    tw_im: BufId,
    sample: SampleMode,
) -> KernelStats {
    launch_fft_rows(sim, re, im, rows, len, inverse, tw_re, tw_im, sample)
}

/// Test hook: expose the plane transpose.
pub fn test_transpose(
    sim: &mut GpuSim,
    bufs: [(BufId, BufId); 2],
    planes: usize,
    p: usize,
) -> KernelStats {
    launch_transpose(sim, bufs, planes, p, SampleMode::Full)
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

// ---------------------------------------------------------------------------
// Whole-plane FFT (cuDNN `FFT`)
// ---------------------------------------------------------------------------

/// Batched in-shared-memory FFT over rows of length `len` (power of two,
/// ≤ 1024). One warp per row; `rows` rows starting at element 0 of
/// `re`/`im`. Set `inverse` for the conjugate transform **with** 1/len
/// scaling.
#[allow(clippy::too_many_arguments)]
fn launch_fft_rows(
    sim: &mut GpuSim,
    re: BufId,
    im: BufId,
    rows: usize,
    len: usize,
    inverse: bool,
    tw_re: BufId,
    tw_im: BufId,
    sample: SampleMode,
) -> KernelStats {
    assert!(len.is_power_of_two() && (32..=1024).contains(&len));
    let p = len.trailing_zeros();
    let warps_per_block = 8usize;
    let blocks = rows.div_ceil(warps_per_block) as u32;
    let smem_words = warps_per_block * 2 * len;
    let cfg = LaunchConfig::linear(blocks, (warps_per_block * WARP) as u32)
        .with_shared(smem_words)
        .with_sample(sample);
    let inv_sign = if inverse { -1.0f32 } else { 1.0 };
    let scale = if inverse { 1.0 / len as f32 } else { 1.0 };

    sim.launch(&cfg, |blk| {
        let bx = blk.block_idx.0 as usize;
        blk.each_warp(|w| {
            let row = bx * warps_per_block + w.warp_id;
            if row >= rows {
                return;
            }
            let base = (row * len) as u32;
            let sre = (w.warp_id * 2 * len) as u32;
            let sim_ = sre + len as u32;
            let lane = w.lane_id();

            // load, storing into bit-reversed shared positions
            for chunk in 0..len / WARP {
                let pos = lane + (chunk * WARP) as u32;
                let gidx = pos + base;
                let vre = w.gld(re, &gidx, LaneMask::ALL);
                let vim = w.gld(im, &gidx, LaneMask::ALL);
                let rev = VU::from_fn(|l| bit_reverse((chunk * WARP + l) % len, p) as u32);
                w.count_fp(2);
                w.sst(&(rev + sre), &vre, LaneMask::ALL);
                w.sst(&(rev + sim_), &vim, LaneMask::ALL);
            }

            // iterative Cooley–Tukey DIT
            for s in 1..=p {
                let m = 1usize << s;
                let half = m / 2;
                for it in 0..(len / 2).div_ceil(WARP) {
                    let bmask = LaneMask::from_fn(|l| it * WARP + l < len / 2);
                    let t = VU::from_fn(|l| ((it * WARP + l) % (len / 2)) as u32);
                    let k = t.map(|v| v / half as u32 * m as u32);
                    let j = t.map(|v| v % half as u32);
                    let twi = j.map(|v| v * (len / m) as u32);
                    let wr = w.gld(tw_re, &twi, bmask);
                    let wi0 = w.gld(tw_im, &twi, bmask);
                    let wi = wi0 * VF::splat(inv_sign);
                    let lo = k + j;
                    let hi = lo + half as u32;
                    let ur = w.sld(&(lo + sre), bmask);
                    let ui = w.sld(&(lo + sim_), bmask);
                    let vr0 = w.sld(&(hi + sre), bmask);
                    let vi0 = w.sld(&(hi + sim_), bmask);
                    // v = v0 * w (complex)
                    let t0 = w.fmul(vr0, wr);
                    let vr = w.fadd(t0, -(vi0 * wi));
                    let t1 = w.fmul(vr0, wi);
                    let vi = w.fadd(t1, vi0 * wr);
                    w.count_fp(2);
                    let lo_re = w.fadd(ur, vr);
                    let lo_im = w.fadd(ui, vi);
                    let hi_re = w.fadd(ur, -vr);
                    let hi_im = w.fadd(ui, -vi);
                    w.sst(&(lo + sre), &lo_re, bmask);
                    w.sst(&(lo + sim_), &lo_im, bmask);
                    w.sst(&(hi + sre), &hi_re, bmask);
                    w.sst(&(hi + sim_), &hi_im, bmask);
                }
            }

            // write back (scaled when inverse)
            let sc = VF::splat(scale);
            for chunk in 0..len / WARP {
                let pos = lane + (chunk * WARP) as u32;
                let vre = w.sld(&(pos + sre), LaneMask::ALL);
                let vim = w.sld(&(pos + sim_), LaneMask::ALL);
                let (vre, vim) = if inverse {
                    (w.fmul(vre, sc), w.fmul(vim, sc))
                } else {
                    (vre, vim)
                };
                w.gst(re, &(pos + base), &vre, LaneMask::ALL);
                w.gst(im, &(pos + base), &vim, LaneMask::ALL);
            }
        });
    })
}

/// Transpose each `P×P` plane of `src` into `dst` (both `planes·P·P`),
/// re and im in one launch, via padded shared-memory tiles.
fn launch_transpose(
    sim: &mut GpuSim,
    bufs: [(BufId, BufId); 2], // [(src_re, dst_re), (src_im, dst_im)]
    planes: usize,
    p: usize,
    sample: SampleMode,
) -> KernelStats {
    let tiles = p.div_ceil(WARP) as u32;
    let cfg = LaunchConfig::grid3d(tiles, tiles, planes as u32, 256)
        .with_shared(33 * 32)
        .with_sample(sample);
    sim.launch(&cfg, |blk| {
        let (bx, by, bz) = blk.block_idx;
        let x0 = bx as usize * WARP;
        let y0 = by as usize * WARP;
        let plane = bz as usize * p * p;
        for (src, dst) in bufs {
            // load 32×32 tile (4 rows per warp), store into padded smem
            blk.each_warp(|w| {
                let lane = w.lane_id();
                for r in 0..4 {
                    let y = y0 + w.warp_id * 4 + r;
                    let mask = LaneMask::from_fn(|l| y < p && x0 + l < p);
                    let gidx =
                        VU::from_fn(|l| (plane + y.min(p - 1) * p + (x0 + l).min(p - 1)) as u32);
                    let v = w.gld(src, &gidx, mask);
                    let sidx = lane.map(|l| ((w.warp_id * 4 + r) * 33) as u32 + l);
                    w.sst(&sidx, &v, LaneMask::ALL);
                }
            });
            blk.barrier();
            // read transposed, store to (y0, x0) swapped
            blk.each_warp(|w| {
                for r in 0..4 {
                    let x = w.warp_id * 4 + r; // original column
                    let sidx = VU::from_fn(|l| (l * 33 + x) as u32);
                    let v = w.sld(&sidx, LaneMask::ALL);
                    let yy = x0; // transposed row base
                    let mask = LaneMask::from_fn(|l| x0 + x < p && y0 + l < p);
                    let gidx = VU::from_fn(|l| {
                        (plane + (yy + x).min(p - 1) * p + (y0 + l).min(p - 1)) as u32
                    });
                    w.gst(dst, &gidx, &v, mask);
                }
            });
            blk.barrier();
        }
    })
}

/// cuDNN `FFT` analog: whole-plane frequency-domain convolution.
#[derive(Debug, Clone)]
pub struct FftConv {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl FftConv {
    /// New instance with full simulation.
    pub fn new() -> Self {
        FftConv {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }

    /// Spatial-size support check against geometry (cuDNN's FFT algorithm
    /// caps spatial extent at 256 px).
    pub fn supports_geometry(ih: usize, iw: usize, fh: usize, fw: usize) -> bool {
        ih + fh - 1 <= 256 && iw + fw - 1 <= 256
    }
}

impl Default for FftConv {
    fn default() -> Self {
        FftConv::new()
    }
}

impl ConvNchwAlgorithm for FftConv {
    fn name(&self) -> &str {
        "fft"
    }

    fn supports(&self, fh: usize, fw: usize) -> bool {
        fh <= 32 && fw <= 32
    }

    fn supports_shape(&self, geo: &ConvGeometry) -> bool {
        // Spectral convolution has no strided/dilated/grouped form here.
        geo.has_unit_axes()
            && self.supports(geo.f_h, geo.f_w)
            && FftConv::supports_geometry(geo.in_h, geo.in_w, geo.f_h, geo.f_w)
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        let (n, ic, ih, iw) = input.dims();
        let (fh, fw) = (weights.fh(), weights.fw());
        assert!(
            FftConv::supports_geometry(ih, iw, fh, fw),
            "plane too large/small for the FFT algorithm (cuDNN limit mirror)"
        );
        let g = ConvGeometry::nchw(n, ic, ih, iw, weights.num_filters(), fh, fw);
        let (oh, ow) = (g.out_h(), g.out_w());
        let fn_ = g.out_channels;
        let p = next_pow2((ih + fh - 1).max(iw + fw - 1)).max(32);
        let pp = p * p;
        let mut rep = RunReport::new();

        let bi = sim.mem.upload_shared(input.shared());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        let (twr, twi) = twiddles(p);
        let btr = sim.mem.upload(&twr);
        let bti = sim.mem.upload(&twi);

        // spectra and scratch
        let in_re = sim.mem.alloc(n * ic * pp);
        let in_im = sim.mem.alloc(n * ic * pp);
        let fl_re = sim.mem.alloc(fn_ * ic * pp);
        let fl_im = sim.mem.alloc(fn_ * ic * pp);
        let out_re = sim.mem.alloc(n * fn_ * pp);
        let out_im = sim.mem.alloc(n * fn_ * pp);
        let planes_max = (n * ic).max(fn_ * ic).max(n * fn_);
        let sc_re = sim.mem.alloc(planes_max * pp);
        let sc_im = sim.mem.alloc(planes_max * pp);

        // --- pad input & filters -------------------------------------------
        let pad = |sim: &mut GpuSim,
                   src: BufId,
                   dst: BufId,
                   planes: usize,
                   sh: usize,
                   sw: usize|
         -> KernelStats {
            let total = (planes * pp) as u32;
            let blocks = total.div_ceil(256);
            let cfg = LaunchConfig::linear(blocks, 256)
                .with_sample(SampleMode::auto(blocks as u64, 4096));
            sim.launch(&cfg, |blk| {
                let bx = blk.block_idx.0;
                blk.each_warp(|w| {
                    let tid = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
                    let mask = tid.lt_scalar(total);
                    let inb = LaneMask::from_fn(|l| {
                        let e = tid.lane(l) as usize;
                        let (y, x) = (e % pp / p, e % pp % p);
                        y < sh && x < sw && e < planes * pp
                    });
                    let gidx = VU::from_fn(|l| {
                        let e = tid.lane(l) as usize % (planes * pp);
                        let (pl, y, x) = (e / pp, e % pp / p, e % pp % p);
                        (pl * sh * sw + y.min(sh - 1) * sw + x.min(sw - 1)) as u32
                    });
                    let v = w.gld(src, &gidx, inb & mask);
                    let zero = VF::splat(0.0);
                    let v = v.select(inb, &zero);
                    w.count_fp(4);
                    w.gst(dst, &tid, &v, mask);
                });
            })
        };
        rep.push("fft_pad_input", pad(sim, bi, in_re, n * ic, ih, iw));
        rep.push("fft_pad_filter", pad(sim, bw, fl_re, fn_ * ic, fh, fw));

        // --- forward transforms --------------------------------------------
        for (label, bre, bim, planes) in [
            ("input", in_re, in_im, n * ic),
            ("filter", fl_re, fl_im, fn_ * ic),
        ] {
            let s = launch_fft_rows(sim, bre, bim, planes * p, p, false, btr, bti, self.sample);
            rep.push(format!("fft_rows_{label}"), s);
            let s = launch_transpose(sim, [(bre, sc_re), (bim, sc_im)], planes, p, self.sample);
            rep.push(format!("fft_transpose_{label}"), s);
            let s = launch_fft_rows(
                sim,
                sc_re,
                sc_im,
                planes * p,
                p,
                false,
                btr,
                bti,
                self.sample,
            );
            rep.push(format!("fft_cols_{label}"), s);
            // copy spectra back from scratch
            let s = launch_transpose(sim, [(sc_re, bre), (sc_im, bim)], planes, p, self.sample);
            rep.push(format!("fft_untranspose_{label}"), s);
        }

        // --- pointwise channel contraction: out = Σ_c in(n,c) · conj(fl(f,c))
        {
            let pix_blocks = (pp as u32).div_ceil(256);
            let cfg = LaunchConfig::grid3d(pix_blocks, fn_ as u32, n as u32, 256)
                .with_sample(self.sample);
            let stats = sim.launch(&cfg, |blk| {
                let (bx, by, bz) = blk.block_idx;
                let (f, img) = (by as usize, bz as usize);
                blk.each_warp(|w| {
                    let pix = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
                    let mask = pix.lt_scalar(pp as u32);
                    let mut ar = VF::splat(0.0);
                    let mut ai = VF::splat(0.0);
                    for c in 0..ic {
                        let iidx = pix + ((img * ic + c) * pp) as u32;
                        let fidx = pix + ((f * ic + c) * pp) as u32;
                        let xr = w.gld(in_re, &iidx, mask);
                        let xi = w.gld(in_im, &iidx, mask);
                        let yr = w.gld(fl_re, &fidx, mask);
                        let yi = w.gld(fl_im, &fidx, mask);
                        // x · conj(y)
                        ar = w.fma(xr, yr, ar);
                        ar = w.fma(xi, yi, ar);
                        ai = w.fma(xi, yr, ai);
                        ai = w.fma(-(xr * yi), VF::splat(1.0), ai);
                        w.count_fp(1);
                    }
                    let oidx = pix + ((img * fn_ + f) * pp) as u32;
                    w.gst(out_re, &oidx, &ar, mask);
                    w.gst(out_im, &oidx, &ai, mask);
                });
            });
            rep.push("fft_pointwise", stats);
        }

        // --- inverse transforms ---------------------------------------------
        let planes = n * fn_;
        let s = launch_fft_rows(
            sim,
            out_re,
            out_im,
            planes * p,
            p,
            true,
            btr,
            bti,
            self.sample,
        );
        rep.push("ifft_rows", s);
        let s = launch_transpose(
            sim,
            [(out_re, sc_re), (out_im, sc_im)],
            planes,
            p,
            self.sample,
        );
        rep.push("ifft_transpose", s);
        let s = launch_fft_rows(
            sim,
            sc_re,
            sc_im,
            planes * p,
            p,
            true,
            btr,
            bti,
            self.sample,
        );
        rep.push("ifft_cols", s);
        let s = launch_transpose(
            sim,
            [(sc_re, out_re), (sc_im, out_im)],
            planes,
            p,
            self.sample,
        );
        rep.push("ifft_untranspose", s);

        // --- crop the valid correlation ------------------------------------
        {
            let total = g.out_elems() as u32;
            let blocks = total.div_ceil(256);
            let cfg = LaunchConfig::linear(blocks, 256)
                .with_sample(SampleMode::auto(blocks as u64, 4096));
            let stats = sim.launch(&cfg, |blk| {
                let bx = blk.block_idx.0;
                blk.each_warp(|w| {
                    let tid = VU::from_fn(|l| bx * 256 + (w.warp_id * WARP + l) as u32);
                    let mask = tid.lt_scalar(total);
                    let gidx = VU::from_fn(|l| {
                        let e = tid.lane(l) as usize % g.out_elems();
                        let plane = e / (oh * ow);
                        let (y, x) = (e % (oh * ow) / ow, e % ow);
                        (plane * pp + y * p + x) as u32
                    });
                    let v = w.gld(out_re, &gidx, mask);
                    w.count_fp(4);
                    w.gst(bo, &tid, &v, mask);
                });
            });
            rep.push("fft_crop", stats);
        }

        rep.add_api_overhead(crate::CUDNN_CALL_OVERHEAD_S);
        let out =
            Tensor4::from_vec(n, fn_, oh, ow, sim.mem.take(bo)).expect("shape by construction");
        (out, rep)
    }
}

// ---------------------------------------------------------------------------
// Tile-wise FFT (cuDNN `FFT_TILING`)
// ---------------------------------------------------------------------------

const TILE: usize = 32;

/// In-register FFT of 32 points per lane (each lane transforms its own
/// sequence). Arithmetic is done directly on the register vectors and
/// counted in bulk — 10 FLOP-instructions per butterfly.
fn fft32_regs(w: &mut WarpCtx<'_, '_>, re: &mut [VF; TILE], im: &mut [VF; TILE], inverse: bool) {
    // bit-reverse permutation (register renaming: free)
    for i in 0..TILE {
        let j = bit_reverse(i, 5);
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let sign = if inverse { 1.0f64 } else { -1.0 };
    for s in 1..=5u32 {
        let m = 1usize << s;
        let half = m / 2;
        for k in (0..TILE).step_by(m) {
            for j in 0..half {
                let ang = sign * 2.0 * std::f64::consts::PI * j as f64 / m as f64;
                let (wr, wi) = (ang.cos() as f32, ang.sin() as f32);
                let (ar, ai) = (re[k + j + half], im[k + j + half]);
                let vr = ar * wr - ai * wi;
                let vi = ar * wi + ai * wr;
                let (ur, ui) = (re[k + j], im[k + j]);
                re[k + j] = ur + vr;
                im[k + j] = ui + vi;
                re[k + j + half] = ur + -vr;
                im[k + j + half] = ui + -vi;
            }
        }
        w.count_fp(16 * 10);
    }
}

/// Warp-level 32×32 transpose through padded shared memory (both
/// components).
fn warp_transpose(w: &mut WarpCtx<'_, '_>, re: &mut [VF; TILE], im: &mut [VF; TILE]) {
    let lane = w.lane_id();
    for comp in 0..2 {
        let data: &mut [VF; TILE] = if comp == 0 { re } else { im };
        for (r, v) in data.iter().enumerate() {
            let sidx = lane.map(|l| (l * 33) + r as u32);
            w.sst(&sidx, v, LaneMask::ALL);
        }
        for (r, v) in data.iter_mut().enumerate() {
            let sidx = lane.map(|l| (r * 33) as u32 + l);
            *v = w.sld(&sidx, LaneMask::ALL);
        }
    }
}

/// cuDNN `FFT_TILING` analog: overlap-save 32×32 tiles.
#[derive(Debug, Clone)]
pub struct FftTiling {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl FftTiling {
    /// New instance with full simulation.
    pub fn new() -> Self {
        FftTiling {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl Default for FftTiling {
    fn default() -> Self {
        FftTiling::new()
    }
}

impl ConvNchwAlgorithm for FftTiling {
    fn name(&self) -> &str {
        "tiling"
    }

    fn supports(&self, fh: usize, fw: usize) -> bool {
        // valid-output region of a 32 tile must stay useful
        fh == fw && fh <= 9
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        let (n, ic, ih, iw) = input.dims();
        let (fh, fw) = (weights.fh(), weights.fw());
        assert!(
            self.supports(fh, fw),
            "tile FFT supports square filters ≤ 9"
        );
        let g = ConvGeometry::nchw(n, ic, ih, iw, weights.num_filters(), fh, fw);
        let (oh, ow) = (g.out_h(), g.out_w());
        let fn_ = g.out_channels;
        let vout = TILE - fh + 1; // valid outputs per tile dimension
        let tiles_x = ow.div_ceil(vout);
        let tiles_y = oh.div_ceil(vout);
        let in_plane = ih * iw;
        let out_plane = oh * ow;
        let pairs = fn_ * ic;
        let mut rep = RunReport::new();

        let bi = sim.mem.upload_shared(input.shared());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        // filter tile spectra, stored transposed-coalesced: [pair][j*32+row]
        let fs_re = sim.mem.alloc(pairs * TILE * TILE);
        let fs_im = sim.mem.alloc(pairs * TILE * TILE);

        // --- setup: filter tile spectra -------------------------------------
        let cfg = LaunchConfig::linear(pairs as u32, WARP as u32).with_shared(33 * 32);
        let stats = sim.launch(&cfg, |blk| {
            let pair = blk.block_idx.0 as usize;
            blk.each_warp(|w| {
                let lane = w.lane_id();
                // lane = column; load the filter column (≤ fh rows, fw cols)
                let mut re = [VF::splat(0.0); TILE];
                let mut im = [VF::splat(0.0); TILE];
                for (r, slot) in re.iter_mut().enumerate().take(fh) {
                    let mask = lane.lt_scalar(fw as u32);
                    let idx = VU::from_fn(|l| (pair * fh * fw + r * fw + l.min(fw - 1)) as u32);
                    *slot = w.gld(bw, &idx, mask);
                }
                // 2D forward FFT: columns (regs) → transpose → rows
                fft32_regs(w, &mut re, &mut im, false);
                warp_transpose(w, &mut re, &mut im);
                fft32_regs(w, &mut re, &mut im, false);
                // store [pair][j*32 + row]; lane owns row after transpose
                for (j, (vr, vi)) in re.iter().zip(im.iter()).enumerate() {
                    let idx = lane + (pair * TILE * TILE + j * TILE) as u32;
                    w.gst(fs_re, &idx, vr, LaneMask::ALL);
                    w.gst(fs_im, &idx, vi, LaneMask::ALL);
                }
            });
        });
        rep.push("fft_tiling_filter_spectra", stats);

        // --- main: per-tile overlap-save -------------------------------------
        let cfg = LaunchConfig::grid3d(
            tiles_x as u32,
            tiles_y as u32,
            (n * fn_) as u32,
            WARP as u32,
        )
        .with_shared(33 * 32)
        .with_sample(self.sample);
        let stats = sim.launch(&cfg, |blk| {
            let (bx, by, bz) = blk.block_idx;
            let img = bz as usize / fn_;
            let f = bz as usize % fn_;
            let x0 = bx as usize * vout;
            let y0 = by as usize * vout;
            blk.each_warp(|w| {
                let lane = w.lane_id();
                let mut mre = [VF::splat(0.0); TILE];
                let mut mim = [VF::splat(0.0); TILE];

                for c in 0..ic {
                    let plane = (img * ic + c) * in_plane;
                    // load tile: lane = column, registers = rows (coalesced)
                    let mut re = [VF::splat(0.0); TILE];
                    let mut im = [VF::splat(0.0); TILE];
                    for (r, slot) in re.iter_mut().enumerate() {
                        let y = y0 + r;
                        let mask = LaneMask::from_fn(|l| y < ih && x0 + l < iw);
                        let idx = VU::from_fn(|l| {
                            (plane + y.min(ih - 1) * iw + (x0 + l).min(iw - 1)) as u32
                        });
                        *slot = w.gld(bi, &idx, mask);
                    }
                    // forward 2D FFT
                    fft32_regs(w, &mut re, &mut im, false);
                    warp_transpose(w, &mut re, &mut im);
                    fft32_regs(w, &mut re, &mut im, false);
                    // accumulate X · conj(F); lane owns row, reg j = column
                    let sbase = ((f * ic + c) * TILE * TILE) as u32;
                    for j in 0..TILE {
                        let idx = lane + (sbase + (j * TILE) as u32);
                        let yr = w.gld(fs_re, &idx, LaneMask::ALL);
                        let yi = w.gld(fs_im, &idx, LaneMask::ALL);
                        let (xr, xi) = (re[j], im[j]);
                        mre[j] = w.fma(xr, yr, mre[j]);
                        mre[j] = w.fma(xi, yi, mre[j]);
                        mim[j] = w.fma(xi, yr, mim[j]);
                        mim[j] = w.fma(-(xr * yi), VF::splat(1.0), mim[j]);
                    }
                }

                // inverse 2D FFT (rows → transpose → columns)
                fft32_regs(w, &mut mre, &mut mim, true);
                warp_transpose(w, &mut mre, &mut mim);
                fft32_regs(w, &mut mre, &mut mim, true);
                // store the valid region, scaled by 1/(32·32)
                let scale = VF::splat(1.0 / (TILE * TILE) as f32);
                let out_base = (img * fn_ + f) * out_plane;
                for (r, slot) in mre.iter().enumerate().take(vout) {
                    let y = y0 + r;
                    if y >= oh {
                        break;
                    }
                    let mask = LaneMask::from_fn(|l| l < vout && x0 + l < ow);
                    let idx = VU::from_fn(|l| (out_base + y * ow + (x0 + l).min(ow - 1)) as u32);
                    let v = w.fmul(*slot, scale);
                    w.gst(bo, &idx, &v, mask);
                }
            });
        });
        rep.push("fft_tiling_main", stats);

        rep.add_api_overhead(crate::CUDNN_CALL_OVERHEAD_S);
        let out =
            Tensor4::from_vec(n, fn_, oh, ow, sim.mem.take(bo)).expect("shape by construction");
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::{assert_close, generate::TensorRng};

    #[test]
    fn twiddle_table_is_unit_circle() {
        let (re, im) = twiddles(64);
        for (r, i) in re.iter().zip(im.iter()) {
            assert!((r * r + i * i - 1.0).abs() < 1e-5);
        }
        assert_eq!(re[0], 1.0);
        assert!((im[16] + 1.0).abs() < 1e-5); // e^{-iπ/2} = -i at k = n/4
    }

    #[test]
    fn bit_reverse_5_bits() {
        assert_eq!(bit_reverse(0b00001, 5), 0b10000);
        assert_eq!(bit_reverse(0b10110, 5), 0b01101);
        assert_eq!(bit_reverse(0, 5), 0);
    }

    fn check_fft(n: usize, ic: usize, h: usize, w: usize, fn_: usize, f: usize) {
        let mut rng = TensorRng::new((n + ic + h * 3 + w * 5 + fn_ + f) as u64);
        let t = rng.tensor(n, ic, h, w);
        let b = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = FftConv::new().run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        assert_close(
            out.as_slice(),
            want.as_slice(),
            1e-3,
            1e-3,
            &format!("fft n={n} ic={ic} {h}x{w} fn={fn_} f={f}"),
        );
    }

    #[test]
    fn fft_conv_matches_reference() {
        check_fft(1, 1, 28, 28, 1, 3);
    }

    #[test]
    fn fft_conv_multichannel_and_rect() {
        check_fft(2, 3, 20, 27, 2, 5);
    }

    fn check_tiling(n: usize, ic: usize, h: usize, w: usize, fn_: usize, f: usize) {
        let mut rng = TensorRng::new((n * 2 + ic + h + w + fn_ + f) as u64);
        let t = rng.tensor(n, ic, h, w);
        let b = rng.filter_bank(fn_, ic, f, f);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = FftTiling::new().run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        assert_close(
            out.as_slice(),
            want.as_slice(),
            1e-3,
            1e-3,
            &format!("tiling n={n} ic={ic} {h}x{w} fn={fn_} f={f}"),
        );
    }

    #[test]
    fn fft_tiling_matches_reference_single_tile() {
        check_tiling(1, 1, 16, 16, 1, 3);
    }

    #[test]
    fn fft_tiling_matches_reference_multi_tile() {
        check_tiling(1, 1, 48, 40, 1, 5);
        check_tiling(2, 2, 35, 35, 2, 3);
    }

    #[test]
    fn fft_size_limits_mirror_cudnn() {
        assert!(FftConv::supports_geometry(224, 224, 5, 5));
        assert!(!FftConv::supports_geometry(512, 512, 3, 3));
        assert!(FftTiling::new().supports(5, 5));
        assert!(!FftTiling::new().supports(11, 11));
    }
}
