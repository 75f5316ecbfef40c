//! Per-block shared memory with bank-conflict accounting.
//!
//! Shared memory is organized as 32 banks of 4-byte words. A warp access
//! completes in one pass when every active lane touches a distinct bank (or
//! lanes touching the same bank read the *same* word — the broadcast case);
//! otherwise the access is replayed once per additional word mapped to the
//! most-contended bank.

use crate::lane::{LaneMask, LaneVec, VF, VU, WARP};

/// Call `f` on each active lane of `mask`, ascending: a plain loop over
/// all 32 lanes when every lane is active (how kernels issue nearly every
/// shared access), the mask's set bits otherwise.
#[inline]
fn for_each_active(mask: LaneMask, f: impl FnMut(usize)) {
    if mask.is_full() {
        (0..WARP).for_each(f);
    } else {
        mask.lanes().for_each(f);
    }
}

/// One bit per bank the active lanes of `mask` touch, where `bank` maps a
/// word to its bank (below 64). Branch-free over all 32 lanes.
#[inline]
fn bank_bitmap(idx: &VU, mask: LaneMask, bank: impl Fn(u32) -> usize) -> u64 {
    (0..WARP).fold(0, |acc, l| {
        acc | (((mask.0 >> l) & 1) as u64) << bank(idx.lane(l))
    })
}

/// A block's shared-memory arena (f32 words).
#[derive(Debug)]
pub struct SharedMem {
    data: Vec<f32>,
    banks: usize,
}

impl SharedMem {
    /// Create an arena able to hold `words` f32 values.
    pub fn new(words: usize, banks: usize) -> Self {
        SharedMem {
            data: vec![0.0; words],
            banks,
        }
    }

    /// Make this arena equal to `SharedMem::new(words, banks)` — every word
    /// zero, as a fresh block sees it — reusing its allocation.
    pub(crate) fn reset(&mut self, words: usize, banks: usize) {
        self.data.clear();
        self.data.resize(words, 0.0);
        self.banks = banks;
    }

    /// Capacity in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// The bank holding `word`: a mask for a power-of-two bank count, the
    /// same remainder otherwise.
    #[inline]
    fn bank(&self, word: u32) -> usize {
        let w = word as usize;
        if self.banks.is_power_of_two() {
            w & (self.banks - 1)
        } else {
            w % self.banks
        }
    }

    /// Debug check that the pass count is insensitive to inactive-lane
    /// indices: recompute with inactive lanes poisoned and require the same
    /// result. Guards the invariant the analyzer's OOB pass relies on — a
    /// masked-off garbage index must cost (and mean) nothing.
    #[cfg(debug_assertions)]
    fn assert_inactive_lanes_ignored(&self, idx: &VU, mask: LaneMask, passes: u64) {
        let poisoned = VU::from_fn(|l| {
            if mask.get(l) {
                idx.lane(l)
            } else {
                0xDEAD_0000 + l as u32
            }
        });
        debug_assert_eq!(
            self.passes(&poisoned, mask),
            passes,
            "inactive-mask lanes contributed shared-memory passes"
        );
    }

    /// Number of serialized passes for a warp access at the given word
    /// indices: `max_b (distinct words in bank b)`, minimum 1 for any
    /// active access.
    pub fn passes(&self, idx: &VU, mask: LaneMask) -> u64 {
        if mask.is_empty() {
            return 0;
        }
        // The two one-pass shapes are checked first, each by a branch-free
        // sweep over all 32 lanes that masks out inactive ones: all active
        // lanes on one word (broadcast), or every active lane in its own
        // bank — one bit per lane in a bank bitmap while the banks fit a
        // u64, so the banks are distinct exactly when the bitmap has one
        // bit per active lane.
        let first = idx.lane(mask.0.trailing_zeros() as usize);
        let active = |lane: usize| (mask.0 >> lane) & 1;
        let spread = (0..WARP).fold(0, |acc, l| {
            acc | (idx.lane(l) ^ first) & active(l).wrapping_neg()
        });
        if spread == 0 {
            return 1;
        }
        if self.banks <= 64 {
            let seen = if self.banks.is_power_of_two() {
                let m = self.banks - 1;
                bank_bitmap(idx, mask, |w| w as usize & m)
            } else {
                bank_bitmap(idx, mask, |w| w as usize % self.banks)
            };
            if seen.count_ones() == mask.count() {
                return 1;
            }
        }
        // Sorted `bank << 32 | word` keys put each bank's words side by
        // side; the pass count is the most distinct words in one bank
        // (equal words broadcast). A bank index never exceeds its word, so
        // it fits in 32 bits.
        let mut keys = [0u64; WARP];
        let mut n = 0;
        for lane in mask.lanes() {
            let w = idx.lane(lane);
            keys[n] = (self.bank(w) as u64) << 32 | w as u64;
            n += 1;
        }
        let keys = &mut keys[..n];
        keys.sort_unstable();
        let (mut run, mut most) = (1, 1);
        for pair in keys.windows(2) {
            if pair[1] == pair[0] {
                continue;
            }
            if pair[1] >> 32 == pair[0] >> 32 {
                run += 1;
                most = most.max(run);
            } else {
                run = 1;
            }
        }
        most
    }

    /// Warp load. Returns the loaded lanes (inactive lanes read 0.0) and the
    /// number of serialized passes.
    pub fn load(&self, idx: &VU, mask: LaneMask) -> (VF, u64) {
        let passes = self.passes(idx, mask);
        #[cfg(debug_assertions)]
        self.assert_inactive_lanes_ignored(idx, mask, passes);
        let data = self.data.as_slice();
        let mut out = [0.0; WARP];
        for_each_active(mask, |lane| {
            let i = idx.lane(lane) as usize;
            assert!(i < data.len(), "shared load OOB: {i} >= {}", data.len());
            out[lane] = data[i];
        });
        (LaneVec(out), passes)
    }

    /// Vectorized warp load (`LDS.128`): each active lane reads `K`
    /// consecutive words starting at its index. Bank serialization is
    /// computed over 16-byte segments — a warp-uniform (broadcast) vec4
    /// read costs a single pass, which is how real GEMM kernels amortize
    /// their shared-memory A-operand reads.
    pub fn load_vec<const K: usize>(&self, idx: &VU, mask: LaneMask) -> ([VF; K], u64) {
        assert!(
            K.is_power_of_two() && K <= 4,
            "LDS supports 1/2/4-word vectors"
        );
        if mask.is_empty() {
            return ([VF::splat(0.0); K], 0);
        }
        let first = idx.lane(0);
        if *idx == VU::splat(first) {
            // Warp-uniform index (how GEMM kernels read their A operand):
            // one segment, so one pass, and every active lane reads the
            // same K words — the checks of the general path, made once.
            assert!(
                (first as usize).is_multiple_of(K),
                "vector smem access must be aligned"
            );
            let i = first as usize;
            let Some(words) = self.data.get(i..i + K) else {
                panic!("shared vec load OOB")
            };
            let mut out = [VF::splat(0.0); K];
            for (o, &w) in out.iter_mut().zip(words) {
                *o = VF::splat(w);
            }
            if !mask.is_full() {
                let zero = VF::splat(0.0);
                out = out.map(|v| v.select(mask, &zero));
            }
            return (out, 1);
        }
        // Distinct 4-word segments per bank-group decide the pass count;
        // a K-word access must be K-word aligned (as on hardware).
        let mut segs = [0u32; WARP];
        let mut n = 0;
        for lane in mask.lanes() {
            let base = idx.lane(lane);
            assert!(
                (base as usize).is_multiple_of(K),
                "vector smem access must be aligned"
            );
            segs[n] = base / 4;
            n += 1;
        }
        let segs = &mut segs[..n];
        segs.sort_unstable();
        let distinct = 1 + segs.windows(2).filter(|p| p[0] != p[1]).count();
        // 16 B lanes: 8 segments move per 128 B pass.
        let passes = (distinct as u64).div_ceil(8);
        let out = std::array::from_fn(|k| {
            VF::from_fn(|l| {
                if mask.get(l) {
                    let i = idx.lane(l) as usize + k;
                    assert!(i < self.data.len(), "shared vec load OOB");
                    self.data[i]
                } else {
                    0.0
                }
            })
        });
        (out, passes)
    }

    /// Fault-injection hook ([`crate::faults`]): flip one bit of word
    /// `idx`, modelling an SRAM upset that persists until the word is next
    /// overwritten. No-op (never a panic) when `idx` is out of the arena —
    /// the injector picks among indices a real access just touched, so a
    /// miss here only happens for empty arenas.
    pub fn corrupt_word(&mut self, idx: usize, bit: u32) {
        if let Some(w) = self.data.get_mut(idx) {
            *w = crate::faults::flip_f32_bit(*w, bit);
        }
    }

    /// Warp store. When two active lanes write the same word, the
    /// lower-numbered lane wins deterministically (hardware leaves it
    /// undefined; a fixed rule keeps simulations reproducible).
    pub fn store(&mut self, idx: &VU, val: &VF, mask: LaneMask) -> u64 {
        let passes = self.passes(idx, mask);
        #[cfg(debug_assertions)]
        self.assert_inactive_lanes_ignored(idx, mask, passes);
        // Iterate high→low so the lowest active lane's value lands last.
        for lane in (0..WARP).rev().filter(|&l| mask.get(l)) {
            let i = idx.lane(lane) as usize;
            assert!(
                i < self.data.len(),
                "shared store OOB: {i} >= {}",
                self.data.len()
            );
            self.data[i] = val.lane(lane);
        }
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smem(words: usize) -> SharedMem {
        SharedMem::new(words, 32)
    }

    #[test]
    fn conflict_free_unit_stride() {
        let s = smem(64);
        let idx = VU::lane_id();
        assert_eq!(s.passes(&idx, LaneMask::ALL), 1);
    }

    #[test]
    fn broadcast_same_word_is_one_pass() {
        let s = smem(64);
        let idx = VU::splat(5);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let s = smem(128);
        let idx = VU::from_fn(|l| (l * 2) as u32);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 2);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        let s = smem(2048);
        let idx = VU::from_fn(|l| (l * 32) as u32);
        assert_eq!(s.passes(&idx, LaneMask::ALL), 32);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut s = smem(64);
        let idx = VU::lane_id();
        let val = VF::from_fn(|l| l as f32 * 1.5);
        s.store(&idx, &val, LaneMask::ALL);
        let (rd, passes) = s.load(&idx, LaneMask::ALL);
        assert_eq!(rd, val);
        assert_eq!(passes, 1);
    }

    #[test]
    fn conflicting_store_low_lane_wins() {
        let mut s = smem(8);
        let idx = VU::splat(3);
        let val = VF::from_fn(|l| l as f32);
        s.store(&idx, &val, LaneMask::ALL);
        let (rd, _) = s.load(&VU::splat(3), LaneMask::first(1));
        assert_eq!(rd.lane(0), 0.0);
    }

    #[test]
    fn masked_lanes_do_not_access() {
        let s = smem(4);
        // lane 20 would be OOB, but it is masked off
        let idx = VU::from_fn(|l| if l < 4 { l as u32 } else { 1000 });
        let (v, p) = s.load(&idx, LaneMask::first(4));
        assert_eq!(p, 1);
        assert_eq!(v.lane(3), 0.0);
    }

    #[test]
    fn inactive_lane_garbage_never_adds_passes() {
        // Regression: inactive lanes carrying maximally bank-conflicting
        // (and OOB) indices must not change the pass count of the access.
        let mut s = smem(64);
        let mask = LaneMask::first(8);
        let clean = VU::from_fn(|l| if l < 8 { l as u32 } else { 0 });
        let dirty = VU::from_fn(|l| {
            if l < 8 {
                l as u32
            } else {
                7000 + (l as u32) * 32
            }
        });
        assert_eq!(s.passes(&clean, mask), s.passes(&dirty, mask));
        let (vc, pc) = s.load(&clean, mask);
        let (vd, pd) = s.load(&dirty, mask);
        assert_eq!((vc, pc), (vd, pd));
        assert_eq!(s.store(&clean, &VF::splat(1.0), mask), pc);
    }

    #[test]
    #[should_panic(expected = "shared vec load OOB")]
    fn uniform_vec_load_past_the_arena_panics() {
        // The warp-uniform path checks bounds once, with the same message.
        let _ = smem(16).load_vec::<4>(&VU::splat(16), LaneMask::ALL);
    }

    #[test]
    fn reset_arena_reads_zeros_at_its_new_size() {
        let mut s = smem(8);
        s.store(&VU::lane_id(), &VF::splat(2.0), LaneMask::first(8));
        s.reset(16, 32);
        assert_eq!(s.words(), 16);
        let idx = VU::from_fn(|l| l as u32 % 16);
        assert_eq!(s.load(&idx, LaneMask::ALL).0, VF::splat(0.0));
    }

    #[test]
    fn empty_mask_costs_nothing() {
        let s = smem(4);
        assert_eq!(s.passes(&VU::splat(0), LaneMask::NONE), 0);
    }
}
