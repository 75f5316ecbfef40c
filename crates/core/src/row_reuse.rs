//! Row reuse (paper §II-B, Algorithm 2): after loading an input row once,
//! apply it to *every* output element that depends on it, so no input row
//! is ever re-loaded.
//!
//! The paper's Algorithm 2 computes, for input row `index`, the set of
//! output rows `o` (with filter row `index − o`) it contributes to:
//!
//! * rows `index < FH−1` (head) feed outputs `0 ..= index`;
//! * rows `FH−1 ≤ index < IH−FH+1` (body) feed exactly `FH` outputs;
//! * the remaining rows (tail) feed outputs `index−FH+1 .. OH`.
//!
//! > Note: the tail branch as printed in the paper (lines 12–17) contains
//! > an evident typo — `oindex ← IH − FH + 1` is loop-invariant and
//! > `filter[FH − i]` reads out of bounds at `i = 0`. The clearly intended
//! > computation (the mirror image of the head branch, and the only one
//! > consistent with the worked `rowi3`/`rowi4` example in §II-B) is
//! > implemented here.
//!
//! [`contributions`] generalizes the three branches to a *tile* of output
//! rows `[tile_start, tile_start + tile_len)`, which is how the fused
//! kernel uses it: one thread accumulates a register tile of outputs while
//! input rows stream past exactly once per tile.

/// Output contributions of one loaded input row.
///
/// Each pair is `(output_row, filter_row)`: the loaded row must be
/// multiplied by filter row `filter_row` and accumulated into output row
/// `output_row`. Pairs are returned in ascending `output_row` order, which
/// makes the overall accumulation order per output identical to the direct
/// row-major order (filter rows arrive in increasing order as the input
/// streams down).
pub fn contributions(index: usize, fh: usize, oh: usize) -> Vec<(usize, usize)> {
    contributions_tiled(index, fh, 0, oh, oh).collect()
}

/// Tile-restricted version, as an iterator (kernels walk it once per
/// loaded row without allocating): only outputs in
/// `[tile_start, min(tile_start + tile_len, oh))` are produced.
pub fn contributions_tiled(
    index: usize,
    fh: usize,
    tile_start: usize,
    tile_len: usize,
    oh: usize,
) -> impl Iterator<Item = (usize, usize)> {
    assert!(fh >= 1);
    let tile_end = (tile_start + tile_len).min(oh);
    // output o uses input rows o ..= o+fh-1, i.e. o ∈ [index-fh+1, index]
    let lo = index.saturating_sub(fh - 1).max(tile_start);
    let end = index.min(tile_end.saturating_sub(1)) + 1;
    let end = if tile_end > 0 { end } else { lo };
    (lo..end).map(move |o| (o, index - o))
}

/// Literal transcription of the paper's Algorithm 2 branch structure (with
/// the tail-branch typo corrected), kept for documentation and testing; the
/// kernel uses [`contributions_tiled`], which is equivalent (see the
/// `matches_algorithm2_branches` test).
pub fn algorithm2(index: usize, fh: usize, ih: usize) -> Vec<(usize, usize)> {
    assert!(ih >= fh && index < ih);
    let oh = ih - fh + 1;
    let mut out = Vec::new();
    if index + 1 < fh {
        // Lines 1–5: the first FH−1 rows feed outputs 0 ..= index.
        for i in 0..=index.min(oh - 1) {
            out.push((i, index - i));
        }
    } else if index < ih - fh + 1 {
        // Lines 6–11: body rows feed exactly FH outputs.
        for i in 0..fh {
            let oindex = index - (fh - 1) + i;
            out.push((oindex, fh - 1 - i));
        }
    } else {
        // Lines 12–17 (intent): tail rows feed outputs index−FH+1 .. OH.
        for oindex in (index - (fh - 1))..oh {
            out.push((oindex, index - oindex));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth: output o depends on input row `index` iff
    /// `o <= index <= o+fh-1`.
    fn brute(index: usize, fh: usize, oh: usize) -> Vec<(usize, usize)> {
        (0..oh)
            .filter(|&o| o <= index && index < o + fh)
            .map(|o| (o, index - o))
            .collect()
    }

    #[test]
    fn paper_worked_example_fh3_ih5() {
        // §II-B: 3×3 filter over 5 rows → out0..out2; the execution-flow
        // listing of the paper, row by row.
        assert_eq!(contributions(0, 3, 3), vec![(0, 0)]);
        assert_eq!(contributions(1, 3, 3), vec![(0, 1), (1, 0)]);
        assert_eq!(contributions(2, 3, 3), vec![(0, 2), (1, 1), (2, 0)]);
        assert_eq!(contributions(3, 3, 3), vec![(1, 2), (2, 1)]);
        assert_eq!(contributions(4, 3, 3), vec![(2, 2)]);
    }

    #[test]
    fn every_row_loaded_once_covers_all_macs() {
        // Summing |contributions| over all input rows must equal OH·FH —
        // the number of (output, filter-row) products — with each input row
        // visited exactly once.
        for (fh, ih) in [(1, 4), (3, 5), (3, 12), (5, 12), (7, 20)] {
            let oh = ih - fh + 1;
            let total: usize = (0..ih).map(|i| contributions(i, fh, oh).len()).sum();
            assert_eq!(total, oh * fh, "fh={fh} ih={ih}");
        }
    }

    #[test]
    fn matches_brute_force() {
        for fh in 1..=7 {
            for ih in fh..fh + 12 {
                let oh = ih - fh + 1;
                for index in 0..ih {
                    assert_eq!(
                        contributions(index, fh, oh),
                        brute(index, fh, oh),
                        "fh={fh} ih={ih} index={index}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_algorithm2_branches() {
        for fh in 1..=6 {
            for ih in fh..fh + 10 {
                let oh = ih - fh + 1;
                for index in 0..ih {
                    assert_eq!(
                        algorithm2(index, fh, ih),
                        contributions(index, fh, oh),
                        "fh={fh} ih={ih} index={index}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_covers_partition_of_outputs() {
        let (fh, ih, tile) = (5, 40, 8);
        let oh = ih - fh + 1;
        for index in 0..ih {
            let full = contributions(index, fh, oh);
            let mut stitched = Vec::new();
            let mut start = 0;
            while start < oh {
                stitched.extend(contributions_tiled(index, fh, start, tile, oh));
                start += tile;
            }
            stitched.sort_unstable();
            assert_eq!(stitched, full, "index={index}");
        }
    }

    #[test]
    fn tile_rows_needed_is_tile_plus_filter_minus_one() {
        // Rows with nonempty contributions for tile [8, 16) with fh=3:
        // inputs 8 ..= 17.
        let rows: Vec<usize> = (0..30)
            .filter(|&i| contributions_tiled(i, 3, 8, 8, 28).next().is_some())
            .collect();
        assert_eq!(rows, (8..=17).collect::<Vec<_>>());
    }

    #[test]
    fn filter_rows_arrive_in_increasing_order_per_output() {
        // For bit-exact equality with the direct reference, each output's
        // filter rows must be applied 0, 1, …, FH−1 as the input streams.
        let (fh, oh) = (4, 10);
        let mut next_fr = vec![0usize; oh];
        for index in 0..oh + fh - 1 {
            for (o, fr) in contributions(index, fh, oh) {
                assert_eq!(fr, next_fr[o], "output {o}");
                next_fr[o] += 1;
            }
        }
        assert!(next_fr.iter().all(|&n| n == fh));
    }

    #[test]
    fn fh1_identity_schedule() {
        for index in 0..5 {
            assert_eq!(contributions(index, 1, 5), vec![(index, 0)]);
        }
    }
}
