//! Warp-wide lane vectors.
//!
//! The simulator executes kernels in *warp-synchronous SPMD* form: a value
//! of type [`LaneVec<T>`] holds one `T` per thread (lane) of a 32-wide warp,
//! and arithmetic applies lane-wise — exactly the mental model of CUDA
//! warp-level programming, made explicit in the type system.
//!
//! Divergence is expressed with [`LaneMask`]: a 32-bit predicate, one bit
//! per lane, mirroring the `%lanemask` registers and `__activemask()` of
//! PTX.

use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Neg, Shl, Shr, Sub};

/// Number of threads in a warp. Fixed at 32, as on every NVIDIA GPU and on
/// AMD RDNA in wave32 mode; the paper's shuffle trick assumes this.
pub const WARP: usize = 32;

/// A 32-bit predicate with one bit per lane of a warp.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneMask(pub u32);

impl LaneMask {
    /// All 32 lanes active.
    pub const ALL: LaneMask = LaneMask(u32::MAX);
    /// No lanes active.
    pub const NONE: LaneMask = LaneMask(0);

    /// Mask with exactly the first `n` lanes active.
    #[inline]
    pub fn first(n: usize) -> LaneMask {
        assert!(n <= WARP);
        if n == WARP {
            LaneMask::ALL
        } else {
            LaneMask((1u32 << n) - 1)
        }
    }

    /// Mask with exactly the `n` lanes `lo..lo + n` active.
    #[inline]
    pub(crate) fn span(lo: usize, n: usize) -> LaneMask {
        assert!(lo + n <= WARP, "lanes {lo}..{} leave the warp", lo + n);
        LaneMask((((1u64 << n) - 1) << lo) as u32)
    }

    /// Build from a per-lane predicate.
    #[inline]
    pub fn from_fn(mut f: impl FnMut(usize) -> bool) -> LaneMask {
        let mut m = 0u32;
        for lane in 0..WARP {
            if f(lane) {
                m |= 1 << lane;
            }
        }
        LaneMask(m)
    }

    /// Is `lane` active?
    #[inline]
    pub fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < WARP);
        self.0 & (1 << lane) != 0
    }

    /// Number of active lanes (`__popc(mask)`).
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// `true` when no lane is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// `true` when all 32 lanes are active.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.0 == u32::MAX
    }

    /// Lane-wise negation.
    #[inline]
    pub fn not(&self) -> LaneMask {
        LaneMask(!self.0)
    }

    /// Iterator over active lane indices, ascending.
    pub fn lanes(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(lane)
        })
    }
}

impl BitAnd for LaneMask {
    type Output = LaneMask;
    #[inline]
    fn bitand(self, rhs: Self) -> LaneMask {
        LaneMask(self.0 & rhs.0)
    }
}

impl BitOr for LaneMask {
    type Output = LaneMask;
    #[inline]
    fn bitor(self, rhs: Self) -> LaneMask {
        LaneMask(self.0 | rhs.0)
    }
}

impl BitXor for LaneMask {
    type Output = LaneMask;
    #[inline]
    fn bitxor(self, rhs: Self) -> LaneMask {
        LaneMask(self.0 ^ rhs.0)
    }
}

impl fmt::Debug for LaneMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LaneMask({:#010x})", self.0)
    }
}

/// A warp-wide vector: one value of `T` per lane.
#[derive(Clone, Copy, PartialEq)]
pub struct LaneVec<T>(pub [T; WARP]);

/// Warp vector of `f32` — the workhorse type of every kernel.
pub type VF = LaneVec<f32>;
/// Warp vector of `u32` — indices and addresses.
pub type VU = LaneVec<u32>;
/// Warp vector of `i32` — signed coordinates (for padding arithmetic).
pub type VI = LaneVec<i32>;
/// Warp vector of `u64` — Algorithm 1's packed exchange registers.
pub type VU64 = LaneVec<u64>;

impl<T: Copy> LaneVec<T> {
    /// Same value in every lane (`T` broadcast).
    #[inline]
    pub fn splat(v: T) -> Self {
        LaneVec([v; WARP])
    }

    /// Build from a per-lane function.
    #[inline]
    pub fn from_fn(f: impl FnMut(usize) -> T) -> Self {
        LaneVec(std::array::from_fn(f))
    }

    /// Value in one lane.
    #[inline]
    pub fn lane(&self, l: usize) -> T {
        self.0[l]
    }

    /// Overwrite one lane.
    #[inline]
    pub fn set_lane(&mut self, l: usize, v: T) {
        self.0[l] = v;
    }

    /// Lane-wise map.
    #[inline]
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> LaneVec<U> {
        LaneVec(std::array::from_fn(|l| f(self.0[l])))
    }

    /// Lane-wise zip-map with another vector.
    #[inline]
    pub fn zip<U: Copy, V: Copy>(
        &self,
        other: &LaneVec<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> LaneVec<V> {
        LaneVec(std::array::from_fn(|l| f(self.0[l], other.0[l])))
    }

    /// Per-lane select: lane takes `self` where `mask` is set, else `other`.
    #[inline]
    pub fn select(&self, mask: LaneMask, other: &Self) -> Self {
        LaneVec(std::array::from_fn(|l| {
            if mask.get(l) {
                self.0[l]
            } else {
                other.0[l]
            }
        }))
    }
}

impl LaneVec<u32> {
    /// The lane-id vector `[0, 1, …, 31]` (`%laneid`).
    #[inline]
    pub fn lane_id() -> VU {
        LaneVec::from_fn(|l| l as u32)
    }

    /// Lane-wise conversion to `f32`.
    #[inline]
    pub fn to_f32(&self) -> VF {
        self.map(|v| v as f32)
    }

    /// Lane-wise conversion to `i32` (wrapping).
    #[inline]
    pub fn to_i32(&self) -> VI {
        self.map(|v| v as i32)
    }

    /// Lane-wise comparison, producing a mask.
    #[inline]
    pub fn lt(&self, other: &VU) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] < other.0[l])
    }

    /// Lane-wise `<` against a scalar.
    #[inline]
    pub fn lt_scalar(&self, s: u32) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] < s)
    }

    /// Lane-wise `>=` against a scalar.
    #[inline]
    pub fn ge_scalar(&self, s: u32) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] >= s)
    }

    /// Lane-wise equality against a scalar.
    #[inline]
    pub fn eq_scalar(&self, s: u32) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] == s)
    }
}

impl LaneVec<i32> {
    /// Lane-wise conversion to `u32` (wrapping; callers mask out-of-range
    /// lanes, as GPU code does).
    #[inline]
    pub fn to_u32(&self) -> VU {
        self.map(|v| v as u32)
    }

    /// Mask of lanes whose value lies in `[0, bound)` — the standard
    /// boundary predicate of padded convolution kernels.
    #[inline]
    pub fn in_range(&self, bound: i32) -> LaneMask {
        LaneMask::from_fn(|l| self.0[l] >= 0 && self.0[l] < bound)
    }
}

impl LaneVec<f32> {
    /// Lane-wise conversion to bit pattern.
    #[inline]
    pub fn to_bits(&self) -> VU {
        self.map(f32::to_bits)
    }

    /// Lane-wise reconstruction from bit pattern.
    #[inline]
    pub fn from_bits(bits: &VU) -> VF {
        bits.map(f32::from_bits)
    }

    /// Sum across lanes (host-side reduction helper for tests).
    pub fn hsum(&self) -> f32 {
        self.0.iter().sum()
    }

    /// Lane-wise fused multiply-add `self * b + c`, rounded once per lane
    /// exactly as [`f32::mul_add`]. Runs on the host's FMA unit when it has
    /// one and on [`VF::mul_add_scalar`] otherwise; both round once, so the
    /// result bits do not depend on the host.
    #[inline]
    #[allow(unsafe_code)]
    pub fn mul_add(&self, b: &VF, c: &VF) -> VF {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: `mul_add_fma` needs only the `fma` target feature, and
            // `is_x86_feature_detected!("fma")` just confirmed this CPU has it.
            return unsafe { mul_add_fma(self, b, c) };
        }
        self.mul_add_scalar(b, c)
    }

    /// The portable path of [`VF::mul_add`]: one [`f32::mul_add`] per lane.
    /// Public so tests can pin it against the hardware path on hosts that
    /// have FMA; kernels call [`VF::mul_add`]. Always inlined, so that
    /// inside `mul_add_fma` it compiles with the `fma` feature.
    #[inline(always)]
    pub fn mul_add_scalar(&self, b: &VF, c: &VF) -> VF {
        let mut out = [0.0f32; WARP];
        for (o, ((&x, &y), &z)) in out.iter_mut().zip(self.0.iter().zip(&b.0).zip(&c.0)) {
            *o = x.mul_add(y, z);
        }
        LaneVec(out)
    }

    /// A row of lane-wise fused multiply-adds into `self`:
    /// `self = xs[s] * ws[s] + self` for `s` ascending, each rounded once
    /// per lane exactly as [`f32::mul_add`] — the bits of `xs.len()`
    /// [`VF::mul_add`] calls with splatted weights, in one host call on the
    /// host's FMA unit when it has one and on [`VF::mul_add_row_scalar`]
    /// otherwise.
    #[inline]
    #[allow(unsafe_code)]
    pub fn mul_add_row(&mut self, xs: &[VF], ws: &[f32]) {
        assert_eq!(xs.len(), ws.len(), "one weight per row column");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: `mul_add_row_fma` needs only the `fma` target feature,
            // and `is_x86_feature_detected!("fma")` just confirmed this CPU
            // has it.
            return unsafe { mul_add_row_fma(self, xs, ws) };
        }
        self.mul_add_row_scalar(xs, ws);
    }

    /// The portable path of [`VF::mul_add_row`], public for the same reason
    /// as [`VF::mul_add_scalar`]. Always inlined, so that inside
    /// `mul_add_row_fma` it compiles with the `fma` feature.
    #[inline(always)]
    pub fn mul_add_row_scalar(&mut self, xs: &[VF], ws: &[f32]) {
        for (x, &w) in xs.iter().zip(ws) {
            for (a, &v) in self.0.iter_mut().zip(&x.0) {
                *a = v.mul_add(w, *a);
            }
        }
    }

    /// A column of lane-wise fused multiply-adds from `self`:
    /// `rows[r] = self * ws[r] + rows[r]` for `r` ascending, each rounded
    /// once per lane exactly as [`f32::mul_add`] — the bits of `rows.len()`
    /// [`VF::mul_add`] calls with splatted scalars, in one host call on the
    /// host's FMA unit when it has one and on [`VF::mul_add_col_scalar`]
    /// otherwise.
    #[inline]
    #[allow(unsafe_code)]
    pub fn mul_add_col(&self, rows: &mut [VF], ws: &[f32]) {
        assert_eq!(rows.len(), ws.len(), "one scalar per column row");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: `mul_add_col_fma` needs only the `fma` target feature,
            // and `is_x86_feature_detected!("fma")` just confirmed this CPU
            // has it.
            return unsafe { mul_add_col_fma(self, rows, ws) };
        }
        self.mul_add_col_scalar(rows, ws);
    }

    /// The portable path of [`VF::mul_add_col`], public for the same reason
    /// as [`VF::mul_add_scalar`]. Always inlined, so that inside
    /// `mul_add_col_fma` it compiles with the `fma` feature.
    #[inline(always)]
    pub fn mul_add_col_scalar(&self, rows: &mut [VF], ws: &[f32]) {
        for (row, &w) in rows.iter_mut().zip(ws) {
            for (a, &v) in row.0.iter_mut().zip(&self.0) {
                *a = v.mul_add(w, *a);
            }
        }
    }
}

/// [`VF::mul_add_scalar`] compiled with the `fma` target feature, so each
/// `f32::mul_add` lowers to a hardware fused multiply-add instead of a
/// library call.
///
/// # Safety
///
/// The running CPU must support the `fma` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(unsafe_code)]
unsafe fn mul_add_fma(a: &VF, b: &VF, c: &VF) -> VF {
    a.mul_add_scalar(b, c)
}

/// [`VF::mul_add_row_scalar`] compiled with the `fma` target feature, as
/// [`mul_add_fma`] is for one FMA.
///
/// # Safety
///
/// The running CPU must support the `fma` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(unsafe_code)]
unsafe fn mul_add_row_fma(acc: &mut VF, xs: &[VF], ws: &[f32]) {
    acc.mul_add_row_scalar(xs, ws);
}

/// [`VF::mul_add_col_scalar`] compiled with the `fma` target feature, as
/// [`mul_add_fma`] is for one FMA.
///
/// # Safety
///
/// The running CPU must support the `fma` target feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(unsafe_code)]
unsafe fn mul_add_col_fma(x: &VF, rows: &mut [VF], ws: &[f32]) {
    x.mul_add_col_scalar(rows, ws);
}

macro_rules! lane_binop {
    ($ty:ty, $trait:ident, $m:ident, $op:tt) => {
        impl $trait for LaneVec<$ty> {
            type Output = LaneVec<$ty>;
            #[inline]
            fn $m(self, rhs: Self) -> Self::Output {
                LaneVec(std::array::from_fn(|l| self.0[l] $op rhs.0[l]))
            }
        }
        impl $trait<$ty> for LaneVec<$ty> {
            type Output = LaneVec<$ty>;
            #[inline]
            fn $m(self, rhs: $ty) -> Self::Output {
                LaneVec(std::array::from_fn(|l| self.0[l] $op rhs))
            }
        }
    };
}

lane_binop!(f32, Add, add, +);
lane_binop!(f32, Sub, sub, -);
lane_binop!(f32, Mul, mul, *);
lane_binop!(f32, Div, div, /);
lane_binop!(i32, Add, add, +);
lane_binop!(i32, Sub, sub, -);
lane_binop!(i32, Mul, mul, *);

impl Neg for LaneVec<f32> {
    type Output = VF;
    #[inline]
    fn neg(self) -> VF {
        self.map(|v| -v)
    }
}

// Unsigned arithmetic wraps, as PTX integer ops do.
macro_rules! lane_wrapop {
    ($ty:ty, $trait:ident, $m:ident, $f:ident) => {
        impl $trait for LaneVec<$ty> {
            type Output = LaneVec<$ty>;
            #[inline]
            fn $m(self, rhs: Self) -> Self::Output {
                LaneVec(std::array::from_fn(|l| self.0[l].$f(rhs.0[l])))
            }
        }
        impl $trait<$ty> for LaneVec<$ty> {
            type Output = LaneVec<$ty>;
            #[inline]
            fn $m(self, rhs: $ty) -> Self::Output {
                LaneVec(std::array::from_fn(|l| self.0[l].$f(rhs)))
            }
        }
    };
}

lane_wrapop!(u32, Add, add, wrapping_add);
lane_wrapop!(u32, Sub, sub, wrapping_sub);
lane_wrapop!(u32, Mul, mul, wrapping_mul);
lane_wrapop!(u64, Add, add, wrapping_add);

impl BitAnd<u32> for LaneVec<u32> {
    type Output = VU;
    #[inline]
    fn bitand(self, rhs: u32) -> VU {
        self.map(|v| v & rhs)
    }
}

impl BitXor<u32> for LaneVec<u32> {
    type Output = VU;
    #[inline]
    fn bitxor(self, rhs: u32) -> VU {
        self.map(|v| v ^ rhs)
    }
}

impl Shl<u32> for LaneVec<u32> {
    type Output = VU;
    #[inline]
    fn shl(self, rhs: u32) -> VU {
        self.map(|v| v << rhs)
    }
}

impl Shr<u32> for LaneVec<u32> {
    type Output = VU;
    #[inline]
    fn shr(self, rhs: u32) -> VU {
        self.map(|v| v >> rhs)
    }
}

/// Lane-dependent 64-bit right shift — the heart of Algorithm 1
/// (`exchange >> shift` where `shift` differs per lane).
impl Shr<LaneVec<u32>> for LaneVec<u64> {
    type Output = VU64;
    #[inline]
    fn shr(self, rhs: VU) -> VU64 {
        LaneVec(std::array::from_fn(|l| self.0[l] >> (rhs.0[l] & 63)))
    }
}

/// Lane-dependent 64-bit left shift.
impl Shl<LaneVec<u32>> for LaneVec<u64> {
    type Output = VU64;
    #[inline]
    fn shl(self, rhs: VU) -> VU64 {
        LaneVec(std::array::from_fn(|l| self.0[l] << (rhs.0[l] & 63)))
    }
}

impl LaneVec<u64> {
    /// `mov exchange, {lo, hi}` — pack two 32-bit values (given as f32 bit
    /// patterns) into each lane's 64-bit register. `lo` occupies bits 0–31,
    /// `hi` bits 32–63, exactly as Algorithm 1 line 2 packs
    /// `{iTemp[0], iTemp[4]}`.
    #[inline]
    pub fn pack(lo: &VF, hi: &VF) -> VU64 {
        LaneVec(std::array::from_fn(|l| {
            (lo.0[l].to_bits() as u64) | ((hi.0[l].to_bits() as u64) << 32)
        }))
    }

    /// Low 32 bits of each lane, reinterpreted as `f32`
    /// (`mov {lo, hi}, exchange` — the `lo` half).
    #[inline]
    pub fn unpack_lo(&self) -> VF {
        self.map(|v| f32::from_bits(v as u32))
    }

    /// High 32 bits of each lane, reinterpreted as `f32`.
    #[inline]
    pub fn unpack_hi(&self) -> VF {
        self.map(|v| f32::from_bits((v >> 32) as u32))
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for LaneVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LaneVec{:?}", &self.0[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_from_fn() {
        let v = VF::splat(2.5);
        assert!(v.0.iter().all(|&x| x == 2.5));
        let id = VU::lane_id();
        assert_eq!(id.lane(0), 0);
        assert_eq!(id.lane(31), 31);
    }

    #[test]
    fn arithmetic_is_lanewise() {
        let a = VF::from_fn(|l| l as f32);
        let b = VF::splat(2.0);
        let c = a * b + 1.0;
        for l in 0..WARP {
            assert_eq!(c.lane(l), l as f32 * 2.0 + 1.0);
        }
    }

    #[test]
    fn mask_first_and_count() {
        let m = LaneMask::first(5);
        assert_eq!(m.count(), 5);
        assert!(m.get(4));
        assert!(!m.get(5));
        assert_eq!(LaneMask::first(32), LaneMask::ALL);
        assert_eq!(LaneMask::first(0), LaneMask::NONE);
    }

    #[test]
    fn mask_set_ops() {
        let a = LaneMask::first(8);
        let b = LaneMask::from_fn(|l| l >= 4);
        assert_eq!((a & b).count(), 4);
        assert_eq!((a | b).count(), 32);
        assert_eq!((a ^ b).count(), 28);
        assert_eq!(a.not().count(), 24);
        assert_eq!(a.lanes().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn select_by_mask() {
        let a = VF::splat(1.0);
        let b = VF::splat(-1.0);
        let m = LaneMask::from_fn(|l| l % 2 == 0);
        let s = a.select(m, &b);
        assert_eq!(s.lane(0), 1.0);
        assert_eq!(s.lane(1), -1.0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let lo = VF::from_fn(|l| l as f32 + 0.25);
        let hi = VF::from_fn(|l| -(l as f32) - 0.5);
        let packed = VU64::pack(&lo, &hi);
        assert_eq!(packed.unpack_lo(), lo);
        assert_eq!(packed.unpack_hi(), hi);
    }

    #[test]
    fn lane_dependent_shift_moves_hi_to_lo() {
        // Algorithm 1's trick: lanes that shift by 32 see `hi` in the low
        // half; lanes that shift by 0 keep `lo`.
        let lo = VF::splat(1.0);
        let hi = VF::splat(2.0);
        let packed = VU64::pack(&lo, &hi);
        let shift = VU::from_fn(|l| if l % 2 == 0 { 32 } else { 0 });
        let shifted = packed >> shift;
        for l in 0..WARP {
            let expect = if l % 2 == 0 { 2.0 } else { 1.0 };
            assert_eq!(shifted.unpack_lo().lane(l), expect, "lane {l}");
        }
    }

    #[test]
    fn signed_range_mask() {
        let v = VI::from_fn(|l| l as i32 - 2);
        let m = v.in_range(3);
        // lanes 2,3,4 hold 0,1,2 — in range [0,3)
        assert_eq!(m.lanes().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn u32_wrapping_ops() {
        let v = VU::splat(u32::MAX) + 1u32;
        assert_eq!(v.lane(0), 0);
        let w = VU::splat(3) * 7u32;
        assert_eq!(w.lane(5), 21);
    }

    #[test]
    fn f32_bit_roundtrip() {
        let v = VF::from_fn(|l| (l as f32).sqrt());
        assert_eq!(VF::from_bits(&v.to_bits()), v);
    }

    #[test]
    fn comparisons_to_masks() {
        let v = VU::lane_id();
        assert_eq!(v.lt_scalar(4).count(), 4);
        assert_eq!(v.ge_scalar(30).count(), 2);
        assert_eq!(v.eq_scalar(7).count(), 1);
    }
}
