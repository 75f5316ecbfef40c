//! Warp shuffle instructions.
//!
//! These reproduce the PTX `shfl.sync` family semantics (CUDA
//! `__shfl_xor_sync` etc.), including the *segment width* parameter: with
//! `width = w < 32` the warp is split into independent segments of `w`
//! lanes, and lane exchanges never cross a segment boundary — the behaviour
//! the paper relies on when a filter row spans fewer lanes than a warp.
//!
//! Counting of shuffle instructions for the performance model happens in
//! [`crate::exec::WarpCtx`]; the functions here are the pure data movement.

use crate::lane::{LaneVec, VU, WARP};

#[inline]
fn check_width(width: usize) {
    assert!(
        width.is_power_of_two() && (1..=WARP).contains(&width),
        "shuffle width must be a power of two in 1..=32, got {width}"
    );
}

/// `__shfl_xor_sync`: lane `i` receives the value of lane `i ^ mask`
/// (within its `width`-lane segment).
///
/// With a power-of-two `width`, `i ^ mask` stays in lane `i`'s segment for
/// every lane exactly when `mask < width`. Otherwise every source lies
/// outside its segment, and lanes keep their own value, matching the
/// hardware's behaviour for out-of-segment reads.
#[inline]
pub fn shfl_xor<T: Copy>(v: &LaneVec<T>, mask: usize, width: usize) -> LaneVec<T> {
    check_width(width);
    assert!(mask < WARP, "xor mask must be < 32");
    if mask >= width {
        return *v;
    }
    LaneVec::from_fn(|i| v.lane(i ^ mask))
}

/// [`shfl_xor`] over the full warp of the value each lane selects by its
/// `mask` bits: lane `s` sends `hi[s]` when `s & mask == 0` and `lo[s]`
/// otherwise, so lane `t` receives `hi[t ^ mask]` or `lo[t ^ mask]`. One
/// pass over the lanes, without forming the sent register.
///
/// At a power-of-two mask `M` the result is two block copies per `2M`
/// lanes: the block's low half takes `lo` of its high half, and its high
/// half `hi` of its low half. Each `M` is its own instantiation, so the
/// copies have constant bounds whether or not the compiler inlines them.
/// At `M = 2` each 4-lane quad is built whole instead: its two 2-lane
/// copies would be written as 8-byte halves, which stall the 16-byte reads
/// of the result that follow.
#[inline]
pub fn shfl_xor_select<T: Copy>(lo: &LaneVec<T>, hi: &LaneVec<T>, mask: usize) -> LaneVec<T> {
    #[inline(always)]
    fn pass<T: Copy, const M: usize>(lo: &LaneVec<T>, hi: &LaneVec<T>) -> LaneVec<T> {
        let mut out = *lo;
        if M == 2 {
            let quads = out.0.chunks_exact_mut(4).zip(lo.0.chunks_exact(4));
            for ((o, l), h) in quads.zip(hi.0.chunks_exact(4)) {
                o.copy_from_slice(&[l[2], l[3], h[0], h[1]]);
            }
        } else {
            for b in (0..WARP).step_by(2 * M) {
                out.0[b..b + M].copy_from_slice(&lo.0[b + M..b + 2 * M]);
                out.0[b + M..b + 2 * M].copy_from_slice(&hi.0[b..b + M]);
            }
        }
        out
    }
    assert!(mask < WARP, "xor mask must be < 32");
    match mask {
        1 => pass::<T, 1>(lo, hi),
        2 => pass::<T, 2>(lo, hi),
        4 => pass::<T, 4>(lo, hi),
        8 => pass::<T, 8>(lo, hi),
        16 => pass::<T, 16>(lo, hi),
        _ => any_mask(lo, hi, mask),
    }
}

/// [`shfl_xor_select`] at a mask that is not a power of two, which
/// Algorithm 1 never issues: kept out of line, so the per-mask passes stay
/// a compact dispatch in their caller.
#[cold]
#[inline(never)]
fn any_mask<T: Copy>(lo: &LaneVec<T>, hi: &LaneVec<T>, mask: usize) -> LaneVec<T> {
    LaneVec::from_fn(|t| {
        let s = t ^ mask;
        if s & mask == 0 {
            hi.lane(s)
        } else {
            lo.lane(s)
        }
    })
}

/// `__shfl_up_sync`: lane `i` receives the value of lane `i - delta`; lanes
/// whose source would fall before their segment keep their own value.
#[inline]
pub fn shfl_up<T: Copy>(v: &LaneVec<T>, delta: usize, width: usize) -> LaneVec<T> {
    check_width(width);
    let seg_mask = !(width - 1);
    LaneVec::from_fn(|i| {
        let seg = i & seg_mask;
        if i >= delta && i - delta >= seg {
            v.lane(i - delta)
        } else {
            v.lane(i)
        }
    })
}

/// `__shfl_down_sync`: lane `i` receives the value of lane `i + delta`;
/// lanes whose source would fall past their segment keep their own value.
#[inline]
pub fn shfl_down<T: Copy>(v: &LaneVec<T>, delta: usize, width: usize) -> LaneVec<T> {
    check_width(width);
    LaneVec::from_fn(|i| {
        let seg_last = i | (width - 1);
        if i + delta <= seg_last {
            v.lane(i + delta)
        } else {
            v.lane(i)
        }
    })
}

/// `__shfl_sync` (indexed): lane `i` receives the value of the lane named by
/// `idx.lane(i) mod width`, within lane `i`'s segment.
#[inline]
pub fn shfl_idx<T: Copy>(v: &LaneVec<T>, idx: &VU, width: usize) -> LaneVec<T> {
    check_width(width);
    let lane_mask = width - 1;
    LaneVec::from_fn(|i| v.lane((i & !lane_mask) | (idx.lane(i) as usize & lane_mask)))
}

/// Broadcast the value of `src_lane` to every lane
/// (`__shfl_sync(v, src_lane)`).
#[inline]
pub fn broadcast<T: Copy>(v: &LaneVec<T>, src_lane: usize) -> LaneVec<T> {
    assert!(src_lane < WARP);
    LaneVec::splat(v.lane(src_lane))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::VF;

    #[test]
    fn xor_swaps_pairs() {
        let v = VF::from_fn(|l| l as f32);
        let s = shfl_xor(&v, 1, WARP);
        assert_eq!(s.lane(0), 1.0);
        assert_eq!(s.lane(1), 0.0);
        assert_eq!(s.lane(30), 31.0);
        assert_eq!(s.lane(31), 30.0);
    }

    #[test]
    fn xor_is_involution() {
        let v = VF::from_fn(|l| (l * 3) as f32);
        for mask in [1usize, 2, 4, 8, 16, 3, 7] {
            let twice = shfl_xor(&shfl_xor(&v, mask, WARP), mask, WARP);
            assert_eq!(twice, v, "mask {mask}");
        }
    }

    #[test]
    fn xor_mask2_matches_paper_fig1c() {
        // Algorithm 1 line 6: `shfl_xor(iTemp[1], 2)` — threads 0↔2, 1↔3.
        let v = VF::from_fn(|l| l as f32 * 10.0);
        let s = shfl_xor(&v, 2, WARP);
        assert_eq!(s.lane(0), 20.0);
        assert_eq!(s.lane(2), 0.0);
        assert_eq!(s.lane(1), 30.0);
        assert_eq!(s.lane(3), 10.0);
    }

    #[test]
    fn up_shifts_and_clamps_at_segment() {
        let v = VF::from_fn(|l| l as f32);
        let s = shfl_up(&v, 2, WARP);
        assert_eq!(s.lane(0), 0.0); // below delta: keep own
        assert_eq!(s.lane(1), 1.0);
        assert_eq!(s.lane(2), 0.0);
        assert_eq!(s.lane(31), 29.0);

        // width 8: lane 8 is the start of a segment, must keep its own value
        let s8 = shfl_up(&v, 2, 8);
        assert_eq!(s8.lane(8), 8.0);
        assert_eq!(s8.lane(9), 9.0);
        assert_eq!(s8.lane(10), 8.0);
    }

    #[test]
    fn down_shifts_and_clamps_at_segment() {
        let v = VF::from_fn(|l| l as f32);
        let s = shfl_down(&v, 3, WARP);
        assert_eq!(s.lane(0), 3.0);
        assert_eq!(s.lane(28), 31.0);
        assert_eq!(s.lane(29), 29.0); // past end: keep own

        let s8 = shfl_down(&v, 1, 8);
        assert_eq!(s8.lane(6), 7.0);
        assert_eq!(s8.lane(7), 7.0); // segment end
        assert_eq!(s8.lane(8), 9.0);
    }

    #[test]
    fn idx_gathers_arbitrary_lanes() {
        let v = VF::from_fn(|l| l as f32);
        let idx = VU::from_fn(|l| ((l + 5) % WARP) as u32);
        let s = shfl_idx(&v, &idx, WARP);
        for l in 0..WARP {
            assert_eq!(s.lane(l), ((l + 5) % WARP) as f32);
        }
    }

    #[test]
    fn idx_respects_segments() {
        let v = VF::from_fn(|l| l as f32);
        // every lane asks for "lane 0" — with width 8 that's the segment base
        let idx = VU::splat(0);
        let s = shfl_idx(&v, &idx, 8);
        assert_eq!(s.lane(3), 0.0);
        assert_eq!(s.lane(11), 8.0);
        assert_eq!(s.lane(27), 24.0);
    }

    #[test]
    fn broadcast_from_lane() {
        let v = VF::from_fn(|l| l as f32);
        let b = broadcast(&v, 17);
        assert!(b.0.iter().all(|&x| x == 17.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_rejected() {
        let v = VF::splat(0.0);
        shfl_xor(&v, 1, 3);
    }

    #[test]
    fn up_down_restore_interior() {
        let v = VF::from_fn(|l| (l * l) as f32);
        let roundtrip = shfl_down(&shfl_up(&v, 4, WARP), 4, WARP);
        // interior lanes [4, 28) restored exactly
        for l in 0..28 - 4 {
            let l = l + 4;
            assert_eq!(roundtrip.lane(l - 4), v.lane(l - 4));
        }
    }
}

/// `__ballot_sync`: one bit per lane of `pred`, as a 32-bit mask.
#[inline]
pub fn ballot(pred: &crate::lane::LaneMask) -> u32 {
    pred.0
}

/// `__any_sync`: true when any active lane's predicate holds.
#[inline]
pub fn vote_any(pred: &crate::lane::LaneMask, active: &crate::lane::LaneMask) -> bool {
    pred.0 & active.0 != 0
}

/// `__all_sync`: true when every active lane's predicate holds.
#[inline]
pub fn vote_all(pred: &crate::lane::LaneMask, active: &crate::lane::LaneMask) -> bool {
    pred.0 & active.0 == active.0
}

/// Butterfly warp reduction (`__reduce_add_sync` / the classic
/// `shfl_xor` tree): every lane ends with the sum of all 32 lanes.
/// Returns the reduced vector and the number of shuffle instructions the
/// tree costs (5), so callers can account for them.
#[inline]
pub fn reduce_add(v: &crate::lane::VF) -> (crate::lane::VF, u64) {
    let mut acc = *v;
    let mut steps = 0u64;
    let mut offset = WARP / 2;
    while offset > 0 {
        let other = shfl_xor(&acc, offset, WARP);
        acc = acc + other;
        steps += 1;
        offset /= 2;
    }
    (acc, steps)
}

/// Butterfly warp max reduction.
#[inline]
pub fn reduce_max(v: &crate::lane::VF) -> (crate::lane::VF, u64) {
    let mut acc = *v;
    let mut steps = 0u64;
    let mut offset = WARP / 2;
    while offset > 0 {
        let other = shfl_xor(&acc, offset, WARP);
        acc = crate::lane::LaneVec::from_fn(|l| acc.lane(l).max(other.lane(l)));
        steps += 1;
        offset /= 2;
    }
    (acc, steps)
}

#[cfg(test)]
mod vote_reduce_tests {
    use super::*;
    use crate::lane::{LaneMask, VF};

    #[test]
    fn ballot_mirrors_predicate_bits() {
        let pred = LaneMask::from_fn(|l| l % 3 == 0);
        assert_eq!(ballot(&pred).count_ones(), 11);
    }

    #[test]
    fn any_all_respect_active_mask() {
        let pred = LaneMask::from_fn(|l| l < 4);
        let active_lo = LaneMask::first(4);
        let active_hi = LaneMask::from_fn(|l| l >= 4);
        assert!(vote_all(&pred, &active_lo));
        assert!(!vote_any(&pred, &active_hi));
        assert!(vote_any(&pred, &LaneMask::ALL));
        assert!(!vote_all(&pred, &LaneMask::ALL));
    }

    #[test]
    fn reduce_add_sums_all_lanes() {
        let v = VF::from_fn(|l| l as f32);
        let (r, steps) = reduce_add(&v);
        assert_eq!(steps, 5);
        for l in 0..WARP {
            assert_eq!(r.lane(l), (31 * 32 / 2) as f32, "lane {l}");
        }
    }

    #[test]
    fn reduce_max_finds_maximum_everywhere() {
        let v = VF::from_fn(|l| ((l as i32 * 7 % 13) - 6) as f32);
        let want = (0..WARP)
            .map(|l| v.lane(l))
            .fold(f32::NEG_INFINITY, f32::max);
        let (r, _) = reduce_max(&v);
        for l in 0..WARP {
            assert_eq!(r.lane(l), want);
        }
    }
}

/// Fault-injection hook: return `v` with one bit of `lane`'s value flipped
/// (see [`crate::faults`]). Pure, like every routing function here — the
/// injector decides *whether* and *where*, this applies the datapath upset.
#[inline]
pub fn corrupt_lane(v: &crate::lane::VF, lane: usize, bit: u32) -> crate::lane::VF {
    let mut out = *v;
    out.set_lane(
        lane % crate::lane::WARP,
        crate::faults::flip_f32_bit(v.lane(lane % crate::lane::WARP), bit),
    );
    out
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::lane::{VF, WARP};

    #[test]
    fn corrupt_lane_touches_exactly_one_lane() {
        let v = VF::from_fn(|l| l as f32 + 1.0);
        let c = corrupt_lane(&v, 7, 20);
        for l in 0..WARP {
            if l == 7 {
                assert_ne!(c.lane(l), v.lane(l));
            } else {
                assert_eq!(c.lane(l), v.lane(l));
            }
        }
        // involution: flipping again restores
        assert_eq!(corrupt_lane(&c, 7, 20), v);
    }
}
