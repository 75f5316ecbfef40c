//! Per-block shared memory with bank-conflict accounting.
//!
//! Shared memory is organized as 32 banks of 4-byte words. A warp access
//! completes in one pass when every active lane touches a distinct bank (or
//! lanes touching the same bank read the *same* word — the broadcast case);
//! otherwise the access is replayed once per additional word mapped to the
//! most-contended bank.
//!
//! Most warp accesses of the kernels are *affine*: the active lanes hold
//! `base + stride·lane`, a warp-uniform word (stride 0) or a lane run of
//! consecutive words (stride 1, no hole in the mask) above all. Their pass
//! count is a closed form of the stride and the mask ([`passes_from_form`],
//! which the oracle's predictions use too), and a uniform word or a lane
//! run moves with one bounds check and one copy. Every other request takes
//! the general count ([`SharedMem::general_passes`]) and the per-lane path.

use crate::lane::{LaneMask, LaneVec, VF, VU, WARP};
use crate::memory::coalescer::LANE_BIT;

/// Call `f` on each active lane of `mask`, ascending: a plain loop over
/// all 32 lanes when every lane is active, the mask's set bits otherwise.
#[inline]
fn for_each_active(mask: LaneMask, f: impl FnMut(usize)) {
    if mask.is_full() {
        (0..WARP).for_each(f);
    } else {
        mask.lanes().for_each(f);
    }
}

/// Most distinct words in one bank among the lanes `lanes`, whose banks are
/// `banks`: their `bank << 32 | word` keys sorted, then the longest run of
/// distinct words within one bank (equal words broadcast). A bank index
/// never exceeds its word, so it fits in 32 bits.
fn most_words_in_a_bank(idx: &[u32; WARP], banks: &[u32; WARP], lanes: u32) -> u32 {
    let mut keys = [0u64; WARP];
    let mut n = 0;
    let mut rest = lanes;
    while rest != 0 {
        let l = rest.trailing_zeros() as usize;
        keys[n] = u64::from(banks[l]) << 32 | u64::from(idx[l]);
        n += 1;
        rest &= rest - 1;
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

/// The lane stride of a request (`mask` not empty) whose active lanes hold
/// `base + stride·l` for one integer `base`: 0 for a single active lane or
/// a warp-uniform word, `None` for any other shape. It is the symbolic
/// oracle's fit (`fit_affine` in [`crate::sym`]) in the arena's 32-bit word
/// indices: the line through the first two active lanes (a stride that is
/// not whole truncates, and lane `l1` then misses the line), checked at the
/// last active lane (it is monotone, so it stays within `u32` over the
/// active lanes iff it does there, and that lane must hold it), then at
/// every lane in one branch-free pass of wrapping `u32` arithmetic, which
/// is exact once the range holds. Every shared access calls it, and the
/// 64-bit fit on widened indices measured slower end to end (EXPERIMENTS.md,
/// "Baseline kernels at register speed").
#[inline]
fn word_stride(idx: &VU, mask: LaneMask) -> Option<i64> {
    let m = mask.0;
    let l0 = m.trailing_zeros();
    let v0 = idx.0[l0 as usize];
    let rest = m & (m - 1);
    if rest == 0 {
        return Some(0);
    }
    let l1 = rest.trailing_zeros();
    let (dv, dl) = (
        i64::from(idx.0[l1 as usize]) - i64::from(v0),
        i64::from(l1 - l0),
    );
    let stride = if dl == 1 { dv } else { dv / dl };
    // Most shapes that are not affine end here, before the pass.
    let top = 31 - m.leading_zeros();
    let end = i64::from(v0) + stride * i64::from(top - l0);
    if !(0..=i64::from(u32::MAX)).contains(&end) || i64::from(idx.0[top as usize]) != end {
        return None;
    }
    let step = stride as u32;
    let mut want = v0.wrapping_sub(step.wrapping_mul(l0));
    let mut off = 0;
    for (&v, &bit) in idx.0.iter().zip(&LANE_BIT) {
        let active = if m & bit != 0 { u32::MAX } else { 0 };
        off |= (v ^ want) & active;
        want = want.wrapping_add(step);
    }
    (off == 0).then_some(stride)
}

/// The lane run `(first lane, lanes)` of a stride-1 request whose mask has
/// no hole, `None` otherwise.
#[inline]
fn run_lanes(stride: Option<i64>, mask: LaneMask) -> Option<(usize, usize)> {
    if stride != Some(1) {
        return None;
    }
    let lo = mask.0.trailing_zeros();
    let tail = mask.0 >> lo;
    (tail & tail.wrapping_add(1) == 0).then_some((lo as usize, tail.count_ones() as usize))
}

/// Lanes `0, p, 2p, …` of a warp, for each `p` in `1..32`.
const LANE_CLASS: [u32; WARP] = {
    let mut class = [0u32; WARP];
    let mut p = 1;
    while p < WARP {
        let mut l = 0;
        while l < WARP {
            class[p] |= 1 << l;
            l += p;
        }
        p += 1;
    }
    class
};

/// Closed-form pass count from affine coefficients: max distinct words per
/// bank over `{base + stride·l | l ∈ mask}`, equal to
/// [`SharedMem::general_passes`] for any bank count. A zero stride is one
/// word (one pass). Any other stride gives every lane its own word, and
/// lanes `l`, `l'` share a bank exactly when `stride·(l − l')` is a
/// multiple of `banks`, that is when `l − l'` is a multiple of
/// `p = banks / gcd(stride, banks)`: the count is the most active lanes in
/// one class of lanes mod `p`, whatever `base` is. At least 1. The bank
/// model's affine fast path and the oracle's shared-memory prediction
/// ([`crate::sym`]) both call it.
pub(crate) fn passes_from_form(stride: i64, mask: LaneMask, banks: u32) -> u64 {
    if stride == 0 {
        return 1;
    }
    let b = u64::from(banks);
    let (mut x, mut y) = (stride.rem_euclid(b as i64) as u64, b);
    while x != 0 {
        (x, y) = (y % x, x);
    }
    let p = (b / y) as usize;
    if p >= WARP {
        return 1;
    }
    (0..p)
        .map(|c| u64::from((mask.0 & LANE_CLASS[p] << c).count_ones()))
        .max()
        .unwrap_or(0)
        .max(1)
}

#[cold]
#[inline(never)]
#[track_caller]
fn load_oob(i: usize, len: usize) -> ! {
    panic!("shared load OOB: {i} >= {len}")
}

#[cold]
#[inline(never)]
#[track_caller]
fn store_oob(i: usize, len: usize) -> ! {
    panic!("shared store OOB: {i} >= {len}")
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

    /// The lane stride of an affine request ([`word_stride`]) and the
    /// request's pass count: the closed form for an affine request, the
    /// general count for any other.
    #[inline]
    fn classify(&self, idx: &VU, mask: LaneMask) -> (Option<i64>, u64) {
        if mask.is_empty() {
            return (None, 0);
        }
        let stride = word_stride(idx, mask);
        let passes = match stride {
            Some(s) => passes_from_form(s, mask, self.banks as u32),
            None => self.general_passes(idx, mask),
        };
        (stride, passes)
    }

    /// Number of serialized passes for a warp access at the given word
    /// indices: `max_b (distinct words in bank b)`, minimum 1 for any
    /// active access. Affine requests take the closed form; the rest the
    /// general count.
    pub fn passes(&self, idx: &VU, mask: LaneMask) -> u64 {
        self.classify(idx, mask).1
    }

    /// The general pass count behind [`SharedMem::passes`], exact for every
    /// access shape and bank count, and the reference the affine closed
    /// form is checked against. The active lanes are grouped into 64 slots
    /// by bank (a slot is one bank while the banks fit it, banks 64 apart
    /// share one otherwise). A slot's lane count bounds the distinct words
    /// of any bank in it, so only a slot with more lanes than the most
    /// words found so far is looked into ([`most_words_in_a_bank`]).
    pub fn general_passes(&self, idx: &VU, mask: LaneMask) -> u64 {
        if mask.is_empty() {
            return 0;
        }
        let banks: [u32; WARP] = if self.banks.is_power_of_two() {
            let m = self.banks as u32 - 1;
            idx.0.map(|w| w & m)
        } else {
            let b = self.banks as u32;
            idx.0.map(|w| w % b)
        };
        let mut slots = [0u32; 64];
        for_each_active(mask, |l| slots[banks[l] as usize & 63] |= 1 << l);
        let mut best = 1;
        for &lanes in &slots[..self.banks.min(64)] {
            if lanes.count_ones() > best {
                best = best.max(most_words_in_a_bank(&idx.0, &banks, lanes));
            }
        }
        u64::from(best)
    }

    /// Warp load. Returns the loaded lanes (inactive lanes read 0.0) and the
    /// number of serialized passes. A uniform word or a lane run is read
    /// with one bounds check; either way an out-of-range access panics at
    /// its lowest active out-of-range lane.
    pub fn load(&self, idx: &VU, mask: LaneMask) -> (VF, u64) {
        let (stride, passes) = self.classify(idx, mask);
        #[cfg(debug_assertions)]
        self.assert_inactive_lanes_ignored(idx, mask, passes);
        let data = self.data.as_slice();
        let mut out = [0.0; WARP];
        if stride == Some(0) {
            let i = idx.lane(mask.0.trailing_zeros() as usize) as usize;
            let Some(&v) = data.get(i) else {
                load_oob(i, data.len())
            };
            for (l, o) in out.iter_mut().enumerate() {
                *o = if mask.0 & LANE_BIT[l] != 0 { v } else { 0.0 };
            }
        } else if let Some((lo, n)) = run_lanes(stride, mask) {
            let start = idx.lane(lo) as usize;
            let Some(words) = data.get(start..start + n) else {
                load_oob(start.max(data.len()), data.len())
            };
            out[lo..lo + n].copy_from_slice(words);
        } else {
            for_each_active(mask, |lane| {
                let i = idx.lane(lane) as usize;
                let Some(&v) = data.get(i) else {
                    load_oob(i, data.len())
                };
                out[lane] = v;
            });
        }
        (LaneVec(out), passes)
    }

    /// Warp-uniform vectorized load (`LDS.64`/`LDS.128` with one index for
    /// every lane, how GEMM kernels read their A operand): the `K`
    /// consecutive words at `word`, the scalars every lane reads. One pass,
    /// as every lane reads the same segment. Panics unless `K` is 1, 2 or 4,
    /// `word` is `K`-aligned, and the words lie in the arena.
    pub fn load_vec<const K: usize>(&self, word: u32) -> [f32; K] {
        assert!(
            K.is_power_of_two() && K <= 4,
            "LDS supports 1/2/4-word vectors"
        );
        let i = word as usize;
        assert!(i.is_multiple_of(K), "vector smem access must be aligned");
        match self.data.get(i..i + K) {
            Some(words) => words.try_into().expect("a K-word slice"),
            None => panic!("shared vec load OOB"),
        }
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
    /// undefined; a fixed rule keeps simulations reproducible). An
    /// out-of-range store panics at its highest active out-of-range lane,
    /// as the high-to-low per-lane loop meets it; a uniform word or a lane
    /// run is checked once and written with one copy.
    pub fn store(&mut self, idx: &VU, val: &VF, mask: LaneMask) -> u64 {
        let (stride, passes) = self.classify(idx, mask);
        #[cfg(debug_assertions)]
        self.assert_inactive_lanes_ignored(idx, mask, passes);
        let len = self.data.len();
        if stride == Some(0) {
            let lo = mask.0.trailing_zeros() as usize;
            let i = idx.lane(lo) as usize;
            if i >= len {
                store_oob(i, len);
            }
            self.data[i] = val.lane(lo);
        } else if let Some((lo, n)) = run_lanes(stride, mask) {
            let start = idx.lane(lo) as usize;
            if start + n > len {
                store_oob(start + n - 1, len);
            }
            self.data[start..start + n].copy_from_slice(&val.0[lo..lo + n]);
        } else {
            // Iterate high→low so the lowest active lane's value lands last.
            for lane in (0..WARP).rev().filter(|&l| mask.get(l)) {
                let i = idx.lane(lane) as usize;
                if i >= len {
                    store_oob(i, len);
                }
                self.data[i] = val.lane(lane);
            }
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
        let _ = smem(16).load_vec::<4>(16);
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
