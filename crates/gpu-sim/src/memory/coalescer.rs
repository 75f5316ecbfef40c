//! The global-memory coalescer.
//!
//! When a warp executes a load or store, the hardware inspects the 32 lane
//! addresses and merges them into the minimal set of 32-byte *sectors*
//! (Volta/Turing granularity). Each distinct sector is one **memory
//! transaction** — the quantity the paper's two optimizations reduce.
//!
//! Most warp accesses of the paper's kernels are *lane runs*
//! ([`LaneRun`]): a column-reuse row load or an output-row store touches
//! one contiguous byte span, whose sectors follow from its two ends
//! ([`super::hierarchy::warp_access_span`]) without walking the lanes.

use crate::lane::{LaneMask, VU, WARP};

/// Result of coalescing one warp-level access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceResult {
    /// Distinct sector base addresses touched, ascending.
    pub sectors: Vec<u64>,
}

impl CoalesceResult {
    /// Number of memory transactions this access costs.
    pub fn transactions(&self) -> u64 {
        self.sectors.len() as u64
    }
}

/// Room for every sector one warp access can touch: a lane access no wider
/// than a sector touches at most two.
pub type SectorBuf = [u64; 2 * WARP];

/// Coalesce a warp access of `size` bytes per lane at the given byte
/// addresses. Inactive lanes contribute nothing. Accesses that straddle a
/// sector boundary touch both sectors (possible with mis-aligned layouts).
/// A thin wrapper over [`coalesce_into`], which has the same preconditions.
pub fn coalesce(
    addrs: &[u64; WARP],
    mask: LaneMask,
    size: u32,
    sector_bytes: u64,
) -> CoalesceResult {
    let mut buf = [0; 2 * WARP];
    let n = coalesce_into(addrs, mask, size, sector_bytes, &mut buf);
    CoalesceResult {
        sectors: buf[..n].to_vec(),
    }
}

/// The allocation-free coalescer behind [`coalesce`]: writes the distinct
/// sector base addresses of the access, ascending, to the front of `out`
/// and returns their count. Panics unless `1 <= size <= sector_bytes`.
pub fn coalesce_into(
    addrs: &[u64; WARP],
    mask: LaneMask,
    size: u32,
    sector_bytes: u64,
    out: &mut SectorBuf,
) -> usize {
    debug_assert!(sector_bytes.is_power_of_two());
    assert!(
        size >= 1 && size as u64 <= sector_bytes,
        "lane access of {size} B does not fit a {sector_bytes} B sector"
    );
    let align = !(sector_bytes - 1);
    let mut n = 0;
    for lane in mask.lanes() {
        let a = addrs[lane];
        let first = a & align;
        let last = (a + size as u64 - 1) & align;
        // Neighbouring lanes mostly share a sector: drop those repeats here
        // and the rest after the sort.
        if n == 0 || out[n - 1] != first {
            out[n] = first;
            n += 1;
        }
        if last != first {
            out[n] = last;
            n += 1;
        }
    }
    out[..n].sort_unstable();
    let mut distinct = 0;
    for i in 0..n {
        if distinct == 0 || out[distinct - 1] != out[i] {
            out[distinct] = out[i];
            distinct += 1;
        }
    }
    distinct
}

/// A *lane run*: the active lanes of a warp access are `lo..lo + n` with
/// no holes, and their element indices are consecutive, `idx[lo + j] ==
/// start + j`, without wrapping past `u32::MAX`. A run of 4-byte elements
/// reads or writes the one byte span `[4·start, 4·(start + n))` of its
/// buffer, so the simulator can price and move it without a per-lane walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRun {
    /// First active lane.
    pub lo: usize,
    /// Number of active lanes, 1 to 32.
    pub n: usize,
    /// Element index of lane `lo`.
    pub start: u32,
}

/// `1 << l` for each lane `l`: lets [`LaneRun::of`] (and the symbolic
/// fits) test every lane's mask bit with one vector compare instead of a
/// per-lane variable shift.
pub(crate) const LANE_BIT: [u32; WARP] = {
    let mut bits = [0; WARP];
    let mut l = 0;
    while l < WARP {
        bits[l] = 1 << l;
        l += 1;
    }
    bits
};

/// The lane ids `0..32` as `u32`, for the same vector compare.
const LANE_ID: [u32; WARP] = {
    let mut ids = [0; WARP];
    let mut l = 0;
    while l < WARP {
        ids[l] = l as u32;
        l += 1;
    }
    ids
};

impl LaneRun {
    /// The run formed by `idx` under `mask`, or `None` when the access is
    /// any other shape (no active lane, a hole in the mask, a lane off the
    /// sequence, or a sequence that wraps). Costs a few ns: the sequence
    /// check is branch-free over all 32 lanes, so it compiles to a handful
    /// of vector compares.
    #[inline]
    pub fn of(idx: &VU, mask: LaneMask) -> Option<LaneRun> {
        let m = mask.0;
        if m == 0 {
            return None;
        }
        let lo = m.trailing_zeros();
        let n = (m >> lo).trailing_ones();
        if (m >> lo) as u64 != (1u64 << n) - 1 {
            return None;
        }
        let start = idx.0[lo as usize];
        if start as u64 + (n - 1) as u64 > u32::MAX as u64 {
            return None;
        }
        // Active lane l is on the sequence iff idx[l] − l == start − lo.
        let key = start.wrapping_sub(lo);
        let mut off = 0u32;
        for l in 0..WARP {
            let active = if m & LANE_BIT[l] != 0 { u32::MAX } else { 0 };
            off |= (idx.0[l].wrapping_sub(LANE_ID[l]) ^ key) & active;
        }
        (off == 0).then_some(LaneRun {
            lo: lo as usize,
            n: n as usize,
            start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LaneMask;

    fn addrs_from(f: impl Fn(usize) -> u64) -> [u64; WARP] {
        std::array::from_fn(f)
    }

    #[test]
    fn fully_coalesced_f32_is_four_sectors() {
        // 32 lanes × 4 B contiguous & aligned = 128 B = 4 × 32 B sectors.
        let a = addrs_from(|l| 0x1000 + l as u64 * 4);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 4);
        assert_eq!(r.sectors, vec![0x1000, 0x1020, 0x1040, 0x1060]);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let a = addrs_from(|_| 0x2000);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 1);
    }

    #[test]
    fn strided_access_wastes_transactions() {
        // stride 32 B: every lane its own sector — 32 transactions.
        let a = addrs_from(|l| 0x3000 + l as u64 * 32);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 32);
    }

    #[test]
    fn misaligned_access_spills_into_extra_sector() {
        // contiguous but starting 4 bytes before a sector boundary
        let a = addrs_from(|l| 0x101c + l as u64 * 4);
        let r = coalesce(&a, LaneMask::ALL, 4, 32);
        assert_eq!(r.transactions(), 5);
    }

    #[test]
    fn inactive_lanes_do_not_count() {
        let a = addrs_from(|l| 0x4000 + l as u64 * 4);
        let r = coalesce(&a, LaneMask::first(8), 4, 32);
        assert_eq!(r.transactions(), 1); // 8 × 4 B = 32 B
        let r0 = coalesce(&a, LaneMask::NONE, 4, 32);
        assert_eq!(r0.transactions(), 0);
    }

    #[test]
    fn access_straddling_sector_counts_both() {
        let a = addrs_from(|_| 0x501e); // 8-byte access over boundary at 0x5020
        let r = coalesce(&a, LaneMask::first(1), 8, 32);
        assert_eq!(r.transactions(), 2);
    }

    #[test]
    fn lane_runs_are_hole_free_consecutive_and_unwrapped() {
        let ramp = VU::from_fn(|l| 100 + l as u32);
        assert_eq!(
            LaneRun::of(&ramp, LaneMask::ALL),
            Some(LaneRun {
                lo: 0,
                n: 32,
                start: 100
            })
        );
        let mid = LaneMask::from_fn(|l| (3..20).contains(&l));
        assert_eq!(
            LaneRun::of(&ramp, mid),
            Some(LaneRun {
                lo: 3,
                n: 17,
                start: 103
            })
        );
        // Inactive lanes may hold anything.
        let junk = VU::from_fn(|l| {
            if (3..20).contains(&l) {
                97 + l as u32
            } else {
                7
            }
        });
        assert_eq!(LaneRun::of(&junk, mid).map(|r| r.start), Some(100));
        assert_eq!(LaneRun::of(&ramp, LaneMask::NONE), None);
        assert_eq!(LaneRun::of(&ramp, LaneMask(0b1011)), None, "hole");
        let off_by_one = VU::from_fn(|l| 100 + l as u32 + (l == 9) as u32);
        assert_eq!(LaneRun::of(&off_by_one, LaneMask::ALL), None);
        let wrap = VU::from_fn(|l| (u32::MAX - 3).wrapping_add(l as u32));
        assert_eq!(LaneRun::of(&wrap, LaneMask::ALL), None, "wraps");
        assert_eq!(
            LaneRun::of(&wrap, LaneMask::first(4)).map(|r| r.n),
            Some(4),
            "ends exactly at u32::MAX"
        );
        assert_eq!(LaneRun::of(&wrap, LaneMask::first(5)), None);
    }

    #[test]
    fn transaction_count_is_permutation_invariant() {
        let base = addrs_from(|l| 0x6000 + ((l * 7) % 32) as u64 * 4);
        let sorted = addrs_from(|l| 0x6000 + l as u64 * 4);
        let r1 = coalesce(&base, LaneMask::ALL, 4, 32);
        let r2 = coalesce(&sorted, LaneMask::ALL, 4, 32);
        assert_eq!(r1.sectors, r2.sectors);
    }
}
