//! The column-reuse exchange plan: which input columns each thread loads
//! from global memory and how the remaining columns are obtained through
//! warp shuffles.
//!
//! Thread `t` of a warp computes output column `base + t` and needs the
//! input columns `base + t + k` for `k ∈ [0, FW)` — its *slots*. The paper
//! (Fig. 1c, Algorithm 1) loads slots `0` and `FW−1` and reconstructs the
//! interior by exchanging values between lanes with `shfl_xor`, using the
//! pack/shift/unpack device to keep all indices static (§IV contribution 3).
//!
//! ## Generalization
//!
//! One `shfl_xor` exchange with mask `m` (a power of two) fills the
//! midpoint slot `a + m` from an already-present pair `(a, a + 2m)`:
//! lane `t` pairs with `t ^ m = t ± m`; the `+m` partner supplies its slot
//! `a` (column `t + m + a`), the `−m` partner its slot `a + 2m` (column
//! `t − m + a + 2m`), both equal to column `t + a + m` — exactly the value
//! lane `t` is missing. Recursing fills any *dyadic* span.
//!
//! The paper demonstrates `FW ∈ {3, 5}`, whose spans (2, 4) are single
//! dyadic blocks needing exactly 2 loads. For arbitrary `FW` we tile
//! `[0, FW)` greedily with maximal dyadic blocks — e.g. `FW = 7` becomes
//! `[0,4] ∪ [4,6] + {6}` with 3 loads (slots 0, 4, 6 — slot 4 shared as
//! block endpoint) — which is the "better generalization ability" claimed
//! over prior shuffle-based schemes that only handle fixed filter widths.
//!
//! ## Strided rows
//!
//! With width stride `s`, lane `t`'s base input column is `s·(X0 + t)`, so
//! lane `t + d` already holds columns `s·t' + k'` for `k' < s` once each
//! lane loads its `s` *base slots*. The [`StridedPlan`] fills the other
//! slots by **uniform `shfl_down`**: slot `k` is lane `t + ⌊k/s⌋`'s base
//! slot `k mod s`. Both the shuffle distance and the source slot are
//! compile-time constants, so (like Algorithm 1) the buffer stays in
//! registers, and no pack/shift selection is needed because the source
//! slot is the same in every lane. The last `⌊k/s⌋` lanes of the warp have
//! no shuffle source and load those slots directly. Loads per row drop
//! from `FW` to `min(s, FW)` plus the masked tails, so the plan pays
//! whenever `s < FW`; at `s ≥ FW` windows no longer overlap and it
//! degenerates to direct loads.

/// One shuffle exchange: fill `mid = lo + mask` from the pair
/// `(lo, hi = lo + 2·mask)` with `shfl_xor(…, mask)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// Lower endpoint slot (already present).
    pub lo: usize,
    /// Upper endpoint slot (already present).
    pub hi: usize,
    /// XOR lane mask (power of two); the filled slot is `lo + mask`.
    pub mask: usize,
}

impl Exchange {
    /// The slot this exchange fills.
    pub fn mid(&self) -> usize {
        self.lo + self.mask
    }
}

/// A complete plan for materializing slots `0..fw` in every lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPlan {
    /// Filter width this plan serves.
    pub fw: usize,
    /// Slots loaded directly from global memory, ascending.
    pub loads: Vec<usize>,
    /// Shuffle exchanges, in dependency order (every `lo`/`hi` is available
    /// before the step runs).
    pub exchanges: Vec<Exchange>,
}

impl ColumnPlan {
    /// Build the plan for filter width `fw ≥ 1`.
    pub fn new(fw: usize) -> Self {
        assert!(fw >= 1, "filter width must be positive");
        assert!(
            fw <= 32,
            "column reuse requires the filter row to fit in a warp"
        );
        let mut loads = vec![0];
        let mut exchanges = Vec::new();
        let mut start = 0usize;
        // Greedily cover [0, fw-1] with maximal dyadic blocks.
        while start < fw - 1 {
            let span = fw - 1 - start;
            let block = prev_power_of_two(span);
            let end = start + block;
            loads.push(end);
            subdivide(start, end, &mut exchanges);
            start = end;
        }
        ColumnPlan {
            fw,
            loads,
            exchanges,
        }
    }

    /// Global-memory loads per thread (the paper's "step 1 / step 2"
    /// count: 2 for `FW ∈ {3, 5}` vs `FW` for direct convolution).
    pub fn num_loads(&self) -> usize {
        self.loads.len()
    }

    /// Shuffle instructions per row of filter application.
    pub fn num_shuffles(&self) -> usize {
        self.exchanges.len()
    }

    /// Sanity check: every slot in `[0, fw)` is produced exactly once.
    pub fn verify(&self) -> bool {
        let mut have = vec![false; self.fw];
        for &l in &self.loads {
            if have[l] {
                return false;
            }
            have[l] = true;
        }
        for e in &self.exchanges {
            if e.hi != e.lo + 2 * e.mask || !e.mask.is_power_of_two() {
                return false;
            }
            if !have[e.lo] || !have[e.hi] || have[e.mid()] {
                return false;
            }
            have[e.mid()] = true;
        }
        have.iter().all(|&h| h)
    }
}

/// The strided exchange plan: which slots every lane loads and which
/// arrive via `shfl_down` (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridedPlan {
    /// Filter width.
    pub fw: usize,
    /// Column stride.
    pub stride: usize,
    /// Slots loaded by every lane (`k < min(stride, fw)`).
    pub base_slots: usize,
    /// `(slot, shfl_down distance, source base slot)` for the rest.
    pub exchanges: Vec<(usize, usize, usize)>,
}

impl StridedPlan {
    /// Build the plan for `fw` and `stride ≥ 1`.
    pub fn new(fw: usize, stride: usize) -> Self {
        assert!(fw >= 1 && stride >= 1);
        let base_slots = stride.min(fw);
        let exchanges = (base_slots..fw)
            .map(|k| (k, k / stride, k % stride))
            .collect();
        StridedPlan {
            fw,
            stride,
            base_slots,
            exchanges,
        }
    }

    /// Full-warp loads issued per row (`min(s, FW)`).
    pub fn num_base_loads(&self) -> usize {
        self.base_slots
    }

    /// Shuffles per row.
    pub fn num_shuffles(&self) -> usize {
        self.exchanges.len()
    }
}

fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Emit exchanges filling the open interval `(lo, hi)` (with `hi − lo` a
/// power of two), midpoint-first so dependencies hold.
fn subdivide(lo: usize, hi: usize, out: &mut Vec<Exchange>) {
    let gap = hi - lo;
    debug_assert!(gap.is_power_of_two());
    if gap < 2 {
        return;
    }
    let mask = gap / 2;
    out.push(Exchange { lo, hi, mask });
    subdivide(lo, lo + mask, out);
    subdivide(lo + mask, hi, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fw3_matches_paper() {
        let p = ColumnPlan::new(3);
        assert_eq!(p.loads, vec![0, 2]);
        assert_eq!(
            p.exchanges,
            vec![Exchange {
                lo: 0,
                hi: 2,
                mask: 1
            }]
        );
        assert!(p.verify());
    }

    #[test]
    fn fw5_matches_paper_fig1c() {
        let p = ColumnPlan::new(5);
        assert_eq!(p.loads, vec![0, 4], "2 loads: steps 1 and 2 of Fig. 1c");
        // step 3: xor 2 fills slot 2; steps 4-5: xor 1 fills slots 1 and 3.
        assert_eq!(
            p.exchanges,
            vec![
                Exchange {
                    lo: 0,
                    hi: 4,
                    mask: 2
                },
                Exchange {
                    lo: 0,
                    hi: 2,
                    mask: 1
                },
                Exchange {
                    lo: 2,
                    hi: 4,
                    mask: 1
                },
            ]
        );
        assert!(p.verify());
    }

    #[test]
    fn fw1_degenerates_to_single_load() {
        let p = ColumnPlan::new(1);
        assert_eq!(p.loads, vec![0]);
        assert!(p.exchanges.is_empty());
        assert!(p.verify());
    }

    #[test]
    fn fw7_uses_three_loads() {
        let p = ColumnPlan::new(7);
        assert_eq!(p.loads, vec![0, 4, 6]);
        assert!(p.verify());
        assert_eq!(p.num_shuffles(), 4); // 3 in [0,4], 1 in [4,6]
    }

    #[test]
    fn all_widths_verify_and_beat_direct_loads() {
        for fw in 1..=32 {
            let p = ColumnPlan::new(fw);
            assert!(p.verify(), "fw={fw}");
            assert!(p.num_loads() <= fw, "fw={fw}");
            if fw >= 3 {
                assert!(
                    p.num_loads() < fw,
                    "fw={fw}: plan must load fewer columns than direct"
                );
            }
            // loads ≈ popcount-ish: never more than log2(fw)+1 blocks + 1
            assert!(
                p.num_loads() <= (fw - 1).count_ones() as usize + 1,
                "fw={fw}"
            );
        }
    }

    #[test]
    fn strided_plan_structure() {
        let p = StridedPlan::new(5, 2);
        assert_eq!(p.base_slots, 2);
        assert_eq!(
            p.exchanges,
            vec![(2, 1, 0), (3, 1, 1), (4, 2, 0)],
            "slot k from lane t+k/2, base slot k%2"
        );
        let p = StridedPlan::new(3, 4);
        assert_eq!(p.base_slots, 3, "s >= fw degenerates to direct");
        assert!(p.exchanges.is_empty());
    }

    #[test]
    fn exchanges_ordered_by_dependency() {
        for fw in 2..=32 {
            let p = ColumnPlan::new(fw);
            let mut have: Vec<bool> = (0..fw).map(|s| p.loads.contains(&s)).collect();
            for e in &p.exchanges {
                assert!(have[e.lo] && have[e.hi], "fw={fw} step {e:?}");
                have[e.mid()] = true;
            }
        }
    }
}
