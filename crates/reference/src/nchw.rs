//! Reference batched multi-channel convolution (the Fig. 4 workload),
//! plus the geometry-general variant covering grouped/depthwise, strided
//! and dilated shapes.

use std::ops::Range;

use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Direct NCHW convolution: `out[n][f][oy][ox] = Σ_c Σ_r Σ_s
/// in[n][c][oy+r][ox+s] · w[f][c][r][s]` (valid padding, unit stride).
///
/// Accumulation order is `c`-outer, then row-major over the filter — the
/// order the simulated multi-channel kernels preserve. Each `(n, f)` plane
/// is computed tap by tap over whole output rows ([`nchw_plane`]), which
/// keeps that per-output order and rounds each step once. This is the
/// unit-axes case of [`conv_nchw_ref_geo`]'s body.
pub fn conv_nchw_ref(input: &Tensor4, weights: &FilterBank) -> Tensor4 {
    let (n, c, ih, iw) = input.dims();
    assert_eq!(c, weights.channels(), "channel mismatch");
    let (fh, fw) = (weights.fh(), weights.fw());
    assert!(ih >= fh && iw >= fw, "filter larger than input");
    let g = ConvGeometry::nchw(n, c, ih, iw, weights.num_filters(), fh, fw);
    conv_planes(input, weights, PlaneShape::of(&g), |_| 0)
}

/// Geometry-general direct NCHW convolution: groups, stride, dilation and
/// symmetric zero padding, with the same `c`-outer / row-major-filter
/// accumulation order as [`conv_nchw_ref`] (within the filter's group).
///
/// `out[n][f][oy][ox] = Σ_cg Σ_r Σ_s
/// in[n][g·CPG+cg][oy·SH + r·DH − pad][ox·SW + s·DW − pad] · w[f][cg][r][s]`
/// where `g = f / (FN/groups)` and out-of-image taps contribute zero: they
/// are skipped, not multiplied by a zero (`0·∞` is NaN, and `−0 + +0` is
/// `+0`). Each plane runs on [`nchw_plane`], like [`conv_nchw_ref`]'s.
///
/// The weight bank carries `IC/groups` channels per filter
/// (`FilterBank::channels() == g.channels_per_group()`).
pub fn conv_nchw_ref_geo(input: &Tensor4, weights: &FilterBank, g: &ConvGeometry) -> Tensor4 {
    let (n, c, ih, iw) = input.dims();
    assert_eq!(
        (n, c, ih, iw),
        (g.batch, g.in_channels, g.in_h, g.in_w),
        "input/geometry mismatch"
    );
    assert_eq!(
        weights.num_filters(),
        g.out_channels,
        "filter-count mismatch"
    );
    assert_eq!(
        weights.channels(),
        g.channels_per_group(),
        "weights must carry IC/groups channels"
    );
    assert_eq!(
        (weights.fh(), weights.fw()),
        (g.f_h, g.f_w),
        "filter-size mismatch"
    );
    let (cpg, fpg) = (g.channels_per_group(), g.filters_per_group());
    conv_planes(input, weights, PlaneShape::of(g), |f| (f / fpg) * cpg)
}

/// Every `(n, f)` output plane, filter `f` reading the `shape.c` input
/// channels from `first_channel(f)`.
fn conv_planes(
    input: &Tensor4,
    weights: &FilterBank,
    shape: PlaneShape,
    first_channel: impl Fn(usize) -> usize + Sync,
) -> Tensor4 {
    let (n, c, ih, iw) = input.dims();
    let fn_ = weights.num_filters();
    let plane = shape.oh * shape.ow;
    let group_image = shape.c * ih * iw;
    let bank = shape.c * shape.fh * shape.fw;
    let mut data = vec![0.0f32; n * fn_ * plane];
    memconv_par::for_each_chunk_mut(&mut data, plane, |nf, out| {
        let in_n = nf / fn_;
        let f = nf % fn_;
        let x0 = (in_n * c + first_channel(f)) * ih * iw;
        let x = &input.as_slice()[x0..x0 + group_image];
        let w = &weights.as_slice()[f * bank..(f + 1) * bank];
        nchw_plane(x, w, &shape, out);
    });
    Tensor4::from_vec(n, fn_, shape.oh, shape.ow, data).expect("shape by construction")
}

/// What [`nchw_plane`] works from: `c` input channels of `ih × iw`, a
/// `c × fh × fw` filter, an `oh × ow` output and the strides, and each
/// filter row's and column's reach, worked out once per convolution.
#[derive(Debug, Clone)]
struct PlaneShape {
    c: usize,
    ih: usize,
    iw: usize,
    fh: usize,
    fw: usize,
    oh: usize,
    ow: usize,
    sh: usize,
    sw: usize,
    /// Per filter row: the output rows it reaches inside the image, and
    /// the input row of the first of them.
    rows: Vec<(Range<usize>, usize)>,
    /// Per filter column: the output columns it reaches inside the image,
    /// and the input column of the first of them.
    cols: Vec<(Range<usize>, usize)>,
}

impl PlaneShape {
    /// The plane of one filter group of `g`.
    fn of(g: &ConvGeometry) -> Self {
        PlaneShape {
            c: g.channels_per_group(),
            ih: g.in_h,
            iw: g.in_w,
            fh: g.f_h,
            fw: g.f_w,
            oh: g.out_h(),
            ow: g.out_w(),
            sh: g.stride_h,
            sw: g.stride_w,
            rows: (0..g.f_h)
                .map(|r| reach(g.out_h(), g.stride_h, r * g.dil_h, g.pad_h, g.in_h))
                .collect(),
            cols: (0..g.f_w)
                .map(|s| reach(g.out_w(), g.stride_w, s * g.dil_w, g.pad_w, g.in_w))
                .collect(),
        }
    }
}

/// The outputs `o < out_len` whose input index `o·stride + offset − pad`
/// lies in `0..in_len` — the outputs one filter tap reaches inside the
/// image, consecutive as the index grows with `o` — and the input index
/// of the first (0 when there is none).
fn reach(
    out_len: usize,
    stride: usize,
    offset: usize,
    pad: usize,
    in_len: usize,
) -> (Range<usize>, usize) {
    let hi = match (in_len + pad).checked_sub(offset + 1) {
        Some(last) => (last / stride + 1).min(out_len),
        None => 0,
    };
    let lo = pad.saturating_sub(offset).div_ceil(stride).min(hi);
    let first = if lo < hi {
        lo * stride + offset - pad
    } else {
        0
    };
    (lo..hi, first)
}

/// One output plane into the zeroed `out`, from one group's image `x`
/// (`C × IH × IW`) and one filter `w` (`C × FH × FW`). Loops run
/// `c, r, s, oy` with the tap's in-image output columns innermost, so
/// every output still accumulates its in-image taps `c`-outer and
/// row-major, one fused multiply-add each, and skips exactly its
/// out-of-image taps. Runs on the host's FMA unit when it has one and on
/// the portable body otherwise; both round once per tap, so the bits do
/// not depend on the host.
#[allow(unsafe_code)]
fn nchw_plane(x: &[f32], w: &[f32], shape: &PlaneShape, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `nchw_plane_fma` needs only the `fma` target feature, and
        // `is_x86_feature_detected!("fma")` just confirmed this CPU has it.
        return unsafe { nchw_plane_fma(x, w, shape, out) };
    }
    nchw_plane_portable(x, w, shape, out);
}

/// The portable body of [`nchw_plane`]. Always inlined, so that inside
/// `nchw_plane_fma` each `f32::mul_add` compiles to a hardware FMA.
#[inline(always)]
fn nchw_plane_portable(x: &[f32], w: &[f32], shape: &PlaneShape, out: &mut [f32]) {
    let PlaneShape {
        c,
        ih,
        iw,
        fh,
        fw,
        ow,
        sh,
        sw,
        ..
    } = *shape;
    for ch in 0..c {
        let x = &x[ch * ih * iw..(ch + 1) * ih * iw];
        for (r, (rows, iy0)) in shape.rows.iter().enumerate() {
            for (s, (cols, ix0)) in shape.cols.iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                let tap = w[(ch * fh + r) * fw + s];
                let out_rows = &mut out[rows.start * ow..rows.end * ow];
                for (k, out_row) in out_rows.chunks_exact_mut(ow).enumerate() {
                    let out_row = &mut out_row[cols.clone()];
                    let start = (iy0 + k * sh) * iw + ix0;
                    // Unit stride zips two slices, which the compiler
                    // vectorizes; a `step_by` zip stays scalar (2.6× slower
                    // on the serving shapes, EXPERIMENTS.md).
                    if sw == 1 {
                        let src = &x[start..start + out_row.len()];
                        for (o, &v) in out_row.iter_mut().zip(src) {
                            *o = v.mul_add(tap, *o);
                        }
                    } else {
                        for (o, &v) in out_row.iter_mut().zip(x[start..].iter().step_by(sw)) {
                            *o = v.mul_add(tap, *o);
                        }
                    }
                }
            }
        }
    }
}

/// [`nchw_plane_portable`] compiled with the `fma` target feature.
///
/// # Safety
///
/// The running CPU must support the `fma` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(unsafe_code)]
unsafe fn nchw_plane_fma(x: &[f32], w: &[f32], shape: &PlaneShape, out: &mut [f32]) {
    nchw_plane_portable(x, w, shape, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv2d::conv2d_ref;
    use memconv_tensor::generate::TensorRng;
    use proptest::prelude::*;

    /// The per-element loop [`conv_nchw_ref`] ran before it worked in
    /// planes, kept as its oracle: one output at a time, taps `c`-outer and
    /// row-major, each through `Tensor4::get` and one `f32::mul_add`.
    fn per_element_oracle(input: &Tensor4, weights: &FilterBank) -> Tensor4 {
        let (n, c, ih, iw) = input.dims();
        let (fh, fw) = (weights.fh(), weights.fw());
        let (oh, ow) = (ih - fh + 1, iw - fw + 1);
        let fn_ = weights.num_filters();
        Tensor4::from_fn(n, fn_, oh, ow, |in_n, f, oy, ox| {
            let mut acc = 0.0f32;
            for ch in 0..c {
                for r in 0..fh {
                    for s in 0..fw {
                        acc = input
                            .get(in_n, ch, oy + r, ox + s)
                            .mul_add(weights.get(f, ch, r, s), acc);
                    }
                }
            }
            acc
        })
    }

    /// The per-element loop [`conv_nchw_ref_geo`] ran before it worked in
    /// planes, kept as its oracle: one output at a time, in-image taps
    /// `c`-outer and row-major through `Tensor4::get`, out-of-image taps
    /// skipped.
    fn per_element_geo_oracle(input: &Tensor4, weights: &FilterBank, g: &ConvGeometry) -> Tensor4 {
        let (n, _, ih, iw) = input.dims();
        let (cpg, fpg) = (g.channels_per_group(), g.filters_per_group());
        let (pad_h, pad_w) = (g.pad_h as i64, g.pad_w as i64);
        Tensor4::from_fn(
            n,
            g.out_channels,
            g.out_h(),
            g.out_w(),
            |in_n, f, oy, ox| {
                let c0 = (f / fpg) * cpg;
                let mut acc = 0.0f32;
                for cg in 0..cpg {
                    for r in 0..g.f_h {
                        let iy = (oy * g.stride_h + r * g.dil_h) as i64 - pad_h;
                        if iy < 0 || iy as usize >= ih {
                            continue;
                        }
                        for s in 0..g.f_w {
                            let ix = (ox * g.stride_w + s * g.dil_w) as i64 - pad_w;
                            if ix < 0 || ix as usize >= iw {
                                continue;
                            }
                            acc = input
                                .get(in_n, c0 + cg, iy as usize, ix as usize)
                                .mul_add(weights.get(f, cg, r, s), acc);
                        }
                    }
                }
                acc
            },
        )
    }

    /// A random geometry of every axis: groups, stride, dilation and
    /// explicit padding up to three (wider than some filters, so whole
    /// output rows and columns see only padding); `None` when it does not
    /// validate.
    #[allow(clippy::too_many_arguments)]
    fn random_geometry(
        n: usize,
        groups: usize,
        cpg: usize,
        fpg: usize,
        f: (usize, usize),
        input: (usize, usize),
        stride: (usize, usize),
        dil: (usize, usize),
        pad: (usize, usize),
    ) -> Option<ConvGeometry> {
        ConvGeometry::nchw(n, groups * cpg, input.0, input.1, groups * fpg, f.0, f.1)
            .with_stride(stride.0, stride.1)
            .with_dilation(dil.0, dil.1)
            .with_groups(groups)
            .with_padding(memconv_tensor::Padding::Explicit(pad.0, pad.1))
            .ok()?
            .validate()
            .ok()
    }

    /// A value of one of the classes a reference must round exactly:
    /// signed zeros, subnormals, infinities, NaN, a few small integers whose
    /// products cancel exactly, and moderate data.
    fn class_value(r: u64) -> f32 {
        let bits = (r >> 32) as u32;
        match r % 8 {
            0 => [0.0, -0.0][bits as usize % 2],
            1 => f32::from_bits((bits & 0x807f_ffff) | 1),
            2 => [f32::INFINITY, f32::NEG_INFINITY][bits as usize % 2],
            3 if bits.is_multiple_of(4) => f32::NAN,
            3 | 4 => [1.0, -1.0, 2.0, -2.0, 3.0, 0.5][bits as usize % 6],
            _ => bits as i32 as f32 / (1 << 24) as f32,
        }
    }

    /// Bit equality, except that any NaN matches any NaN: the payload of a
    /// NaN produced by arithmetic is unspecified.
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    proptest! {
        /// The plane kernel equals the per-element loop bit for bit over
        /// random shapes, on finite data (one class) and on every value
        /// class mixed, exact cancellations included.
        #[test]
        fn planes_match_per_element_loop(n in 1usize..3, c in 1usize..4, fn_ in 1usize..4,
                                         fh in 1usize..4, fw in 1usize..5, extra_h in 0usize..6,
                                         extra_w in 0usize..9, seed in any::<u64>(),
                                         finite in any::<bool>()) {
            let (ih, iw) = (fh + extra_h, fw + extra_w);
            let mut r = seed;
            let mut next = || {
                r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = class_value(r ^ r >> 29);
                if finite && !v.is_finite() { 1.0 } else { v }
            };
            let input = Tensor4::from_fn(n, c, ih, iw, |_, _, _, _| next());
            let weights = FilterBank::from_fn(fn_, c, fh, fw, |_, _, _, _| next());
            let got = conv_nchw_ref(&input, &weights);
            let want = per_element_oracle(&input, &weights);
            prop_assert!(same_bits(got.as_slice(), want.as_slice()),
                         "{:?} vs {:?}", got.as_slice(), want.as_slice());
        }

        /// The geometry-general planes equal the per-element loop bit for
        /// bit over random groups, stride, dilation and padding, on finite
        /// data and on every value class mixed: a tap in the padding is
        /// skipped, not multiplied by zero (`0·∞` would be NaN, and
        /// `−0 + +0` would turn a `−0` sum into `+0`).
        #[test]
        fn geo_planes_match_per_element_loop(n in 1usize..3, groups in 1usize..4,
                                             cpg in 1usize..3, fpg in 1usize..3,
                                             fh in 1usize..4, fw in 1usize..4,
                                             ih in 1usize..10, iw in 1usize..12,
                                             sh in 1usize..4, sw in 1usize..4,
                                             dh in 1usize..3, dw in 1usize..3,
                                             pad_h in 0usize..4, pad_w in 0usize..4,
                                             seed in any::<u64>(), finite in any::<bool>()) {
            let g = random_geometry(n, groups, cpg, fpg, (fh, fw), (ih, iw), (sh, sw),
                                    (dh, dw), (pad_h, pad_w));
            prop_assume!(g.is_some());
            let g = g.unwrap();
            let mut r = seed;
            let mut next = || {
                r = r.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = class_value(r ^ r >> 29);
                if finite && !v.is_finite() { 1.0 } else { v }
            };
            let input = Tensor4::from_fn(n, groups * cpg, ih, iw, |_, _, _, _| next());
            let weights = FilterBank::from_fn(groups * fpg, cpg, fh, fw, |_, _, _, _| next());
            let got = conv_nchw_ref_geo(&input, &weights, &g);
            let want = per_element_geo_oracle(&input, &weights, &g);
            prop_assert!(same_bits(got.as_slice(), want.as_slice()),
                         "{:?}: {:?} vs {:?}", g, got.as_slice(), want.as_slice());
        }

        /// The host-FMA dispatch and the portable body (calling the library
        /// `fmaf` outside the `fma` target feature) agree bit for bit, at
        /// unit axes and at every other geometry.
        #[test]
        fn fma_and_portable_planes_agree(cpg in 1usize..3, fh in 1usize..4, fw in 1usize..4,
                                         ih in 1usize..8, iw in 1usize..12,
                                         sh in 1usize..3, sw in 1usize..3,
                                         dh in 1usize..3, dw in 1usize..3,
                                         pad_h in 0usize..3, pad_w in 0usize..3,
                                         vals in prop::collection::vec(any::<u64>(), 256usize)) {
            let g = random_geometry(1, 1, cpg, 1, (fh, fw), (ih, iw), (sh, sw), (dh, dw),
                                    (pad_h, pad_w));
            prop_assume!(g.is_some());
            let shape = PlaneShape::of(&g.unwrap());
            let x: Vec<f32> = (0..cpg * ih * iw).map(|i| class_value(vals[i % 256] ^ i as u64)).collect();
            let w: Vec<f32> = (0..cpg * fh * fw).map(|i| class_value(vals[255 - i % 256])).collect();
            let mut dispatched = vec![0.0f32; shape.oh * shape.ow];
            let mut portable = vec![0.0f32; shape.oh * shape.ow];
            nchw_plane(&x, &w, &shape, &mut dispatched);
            nchw_plane_portable(&x, &w, &shape, &mut portable);
            prop_assert!(same_bits(&dispatched, &portable));
        }
    }

    #[test]
    fn planes_keep_signed_zeros_and_exact_cancellation() {
        // -0·1 + 0 is +0 from a +0 accumulator; 3·(1/3) − 1 keeps the bits
        // only one rounding leaves; 2·3 − 6 cancels exactly.
        let input = Tensor4::from_vec(1, 3, 1, 2, vec![-0.0, 6.0, 3.0, 1.0, 2.0, 1.0]).unwrap();
        let weights = FilterBank::from_vec(1, 3, 1, 1, vec![1.0, 1.0 / 3.0, -3.0]).unwrap();
        let got = conv_nchw_ref(&input, &weights);
        let want = per_element_oracle(&input, &weights);
        assert!(same_bits(got.as_slice(), want.as_slice()));
        // Output 0: fma(2, −3, fma(3, 1/3, fma(−0, 1, +0))).
        let third = 3.0f32.mul_add(1.0 / 3.0, (-0.0f32).mul_add(1.0, 0.0));
        assert_eq!(
            got.get(0, 0, 0, 0).to_bits(),
            2.0f32.mul_add(-3.0, third).to_bits()
        );
        // Output 1: 6 + 1/3 − 6 keeps 1/3's rounding error.
        let kept = 1.0f32.mul_add(1.0 / 3.0, 6.0);
        assert_eq!(
            got.get(0, 0, 0, 1).to_bits(),
            1.0f32.mul_add(-3.0, kept).to_bits()
        );
    }

    #[test]
    fn single_channel_single_filter_matches_2d() {
        let mut rng = TensorRng::new(21);
        let img = rng.image(9, 11);
        let filt = rng.filter(3, 3);
        let t = Tensor4::from_image(&img);
        let bank = FilterBank::broadcast(&filt, 1, 1);
        let out = conv_nchw_ref(&t, &bank);
        let want = conv2d_ref(&img, &filt);
        assert_eq!(out.plane(0, 0).as_slice(), want.as_slice());
    }

    #[test]
    fn channels_sum() {
        let mut rng = TensorRng::new(22);
        let t = rng.tensor(1, 3, 6, 6);
        let bank = rng.filter_bank(2, 3, 3, 3);
        let out = conv_nchw_ref(&t, &bank);
        assert_eq!(out.dims(), (1, 2, 4, 4));
        // filter 1, output (2,3): manual sum
        let mut want = 0.0f32;
        for c in 0..3 {
            for r in 0..3 {
                for s in 0..3 {
                    want += t.get(0, c, 2 + r, 3 + s) * bank.get(1, c, r, s);
                }
            }
        }
        assert!((out.get(0, 1, 2, 3) - want).abs() < 1e-4);
    }

    #[test]
    fn batch_images_independent() {
        let mut rng = TensorRng::new(23);
        let t = rng.tensor(3, 2, 5, 5);
        let bank = rng.filter_bank(2, 2, 3, 3);
        let all = conv_nchw_ref(&t, &bank);
        // image 2 alone gives the same plane
        let single = Tensor4::from_fn(1, 2, 5, 5, |_, c, y, x| t.get(2, c, y, x));
        let out2 = conv_nchw_ref(&single, &bank);
        assert_eq!(all.plane(2, 1).as_slice(), out2.plane(0, 1).as_slice());
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let t = Tensor4::zeros(1, 2, 5, 5);
        let bank = FilterBank::zeros(1, 3, 3, 3);
        conv_nchw_ref(&t, &bank);
    }

    #[test]
    fn geo_unit_axes_matches_legacy_reference() {
        let mut rng = TensorRng::new(31);
        let t = rng.tensor(2, 3, 8, 9);
        let bank = rng.filter_bank(4, 3, 3, 3);
        let g = ConvGeometry::nchw(2, 3, 8, 9, 4, 3, 3).validate().unwrap();
        let legacy = conv_nchw_ref(&t, &bank);
        let geo = conv_nchw_ref_geo(&t, &bank, &g);
        assert_eq!(legacy.as_slice(), geo.as_slice());
    }

    #[test]
    fn geo_stride_subsamples_unit_output() {
        let mut rng = TensorRng::new(32);
        let t = rng.tensor(1, 2, 11, 13);
        let bank = rng.filter_bank(2, 2, 3, 3);
        let unit = conv_nchw_ref(&t, &bank);
        let g = ConvGeometry::nchw(1, 2, 11, 13, 2, 3, 3)
            .with_stride(2, 3)
            .validate()
            .unwrap();
        let strided = conv_nchw_ref_geo(&t, &bank, &g);
        assert_eq!(strided.dims(), (1, 2, g.out_h(), g.out_w()));
        for f in 0..2 {
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    assert_eq!(
                        strided.get(0, f, oy, ox),
                        unit.get(0, f, oy * 2, ox * 3),
                        "f={f} oy={oy} ox={ox}"
                    );
                }
            }
        }
    }

    #[test]
    fn geo_dilation_matches_manual_sum() {
        let mut rng = TensorRng::new(33);
        let t = rng.tensor(1, 1, 9, 9);
        let bank = rng.filter_bank(1, 1, 3, 3);
        let g = ConvGeometry::nchw(1, 1, 9, 9, 1, 3, 3)
            .with_dilation(2, 2)
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        let mut want = 0.0f32;
        for r in 0..3 {
            for s in 0..3 {
                want = t
                    .get(0, 0, 1 + 2 * r, 3 + 2 * s)
                    .mul_add(bank.get(0, 0, r, s), want);
            }
        }
        assert_eq!(out.get(0, 0, 1, 3), want);
    }

    #[test]
    fn geo_depthwise_is_per_channel_2d() {
        let mut rng = TensorRng::new(34);
        let t = rng.tensor(1, 3, 7, 7);
        let bank = rng.filter_bank(3, 1, 3, 3); // depthwise: FC = 1
        let g = ConvGeometry::nchw(1, 3, 7, 7, 3, 3, 3)
            .with_groups(3)
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        for ch in 0..3 {
            let img = t.plane(0, ch);
            let want = conv2d_ref(&img, &bank.plane(ch, 0));
            assert_eq!(out.plane(0, ch).as_slice(), want.as_slice(), "ch {ch}");
        }
    }

    #[test]
    fn geo_grouped_sums_only_its_group() {
        let mut rng = TensorRng::new(35);
        let t = rng.tensor(1, 4, 6, 6);
        let bank = rng.filter_bank(4, 2, 3, 3); // 2 groups × 2 filters
        let g = ConvGeometry::nchw(1, 4, 6, 6, 4, 3, 3)
            .with_groups(2)
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        // filter 3 (group 1) reads channels 2..4 only
        let mut want = 0.0f32;
        for cg in 0..2 {
            for r in 0..3 {
                for s in 0..3 {
                    want = t
                        .get(0, 2 + cg, 1 + r, 2 + s)
                        .mul_add(bank.get(3, cg, r, s), want);
                }
            }
        }
        assert_eq!(out.get(0, 3, 1, 2), want);
    }

    #[test]
    fn geo_padding_zero_extends() {
        let mut rng = TensorRng::new(36);
        let t = rng.tensor(1, 1, 5, 5);
        let bank = rng.filter_bank(1, 1, 3, 3);
        let g = ConvGeometry::nchw(1, 1, 5, 5, 1, 3, 3)
            .with_padding(memconv_tensor::Padding::Same)
            .unwrap()
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        assert_eq!(out.dims(), (1, 1, 5, 5));
        // corner output touches only the 2×2 in-image taps
        let mut want = 0.0f32;
        for r in 1..3 {
            for s in 1..3 {
                want = t
                    .get(0, 0, r - 1, s - 1)
                    .mul_add(bank.get(0, 0, r, s), want);
            }
        }
        assert_eq!(out.get(0, 0, 0, 0), want);
    }
}
