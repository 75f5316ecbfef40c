//! Property-based tests of the simulator's structural invariants
//! (DESIGN.md §13).

use memconv_gpusim::lane::{LaneMask, LaneVec, VF, VU, WARP};
use memconv_gpusim::memory::cache::{Access, CachePolicy, SectoredCache};
use memconv_gpusim::memory::coalescer::{coalesce, coalesce_into};
use memconv_gpusim::memory::SharedMem;
use memconv_gpusim::shuffle;
use proptest::prelude::*;

// ---- reference algorithms -------------------------------------------------
//
// The allocating algorithms the simulator used before its warp datapath
// went allocation-free, kept as oracles for the stack-array versions. They
// walk lanes with `LaneMask::get` rather than `LaneMask::lanes`, so they do
// not share that iterator with the code under test.

fn active(mask: LaneMask) -> impl Iterator<Item = usize> {
    (0..WARP).filter(move |&l| mask.get(l))
}

/// Bank passes from one `Vec` of distinct words per bank (sized to `banks`,
/// where the original fixed 32 entries and so panicked above 32 banks).
fn passes_oracle(idx: &VU, mask: LaneMask, banks: usize) -> u64 {
    if mask.is_empty() {
        return 0;
    }
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
    for lane in active(mask) {
        let w = idx.lane(lane);
        let bank = (w as usize) % banks;
        if !per_bank[bank].contains(&w) {
            per_bank[bank].push(w);
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u64)
        .max()
        .unwrap_or(1)
        .max(1)
}

/// `LDS.128`-style passes from a `Vec` of distinct 16-byte segments.
fn vec_passes_oracle(idx: &VU, mask: LaneMask) -> u64 {
    if mask.is_empty() {
        return 0;
    }
    let mut segs: Vec<u32> = Vec::new();
    for lane in active(mask) {
        let seg = idx.lane(lane) / 4;
        if !segs.contains(&seg) {
            segs.push(seg);
        }
    }
    (segs.len() as u64).div_ceil(8).max(1)
}

/// Distinct sectors, ascending, from a growing `Vec` with a linear search.
fn coalesce_oracle(addrs: &[u64; WARP], mask: LaneMask, size: u32, sector_bytes: u64) -> Vec<u64> {
    let mut sectors: Vec<u64> = Vec::with_capacity(8);
    for lane in active(mask) {
        let a = addrs[lane];
        let first = a & !(sector_bytes - 1);
        let last = (a + size as u64 - 1) & !(sector_bytes - 1);
        let mut s = first;
        loop {
            if !sectors.contains(&s) {
                sectors.push(s);
            }
            if s == last {
                break;
            }
            s += sector_bytes;
        }
    }
    sectors.sort_unstable();
    sectors
}

/// Masks weighted toward the edge cases: empty, one lane, full, or random.
fn arb_edge_mask() -> impl Strategy<Value = LaneMask> {
    any::<u64>().prop_map(|r| {
        let bits = (r >> 32) as u32;
        match r % 4 {
            0 => LaneMask::NONE,
            1 => LaneMask(1 << (bits % WARP as u32)),
            2 => LaneMask::ALL,
            _ => LaneMask(bits),
        }
    })
}

/// Shared-memory word indices below 4096: random words (many conflicts and
/// broadcasts), strided rows (the kernels' shape), or one broadcast word.
fn arb_words() -> impl Strategy<Value = VU> {
    prop::collection::vec(0u32..4096, WARP + 2).prop_map(|v| {
        let (base, stride) = (v[WARP] % 2048, v[WARP + 1] % 40);
        match v[WARP + 1] / 40 % 3 {
            0 => VU::from_fn(|l| v[l] % (64 + base)),
            1 => VU::from_fn(|l| (base + stride * l as u32) % 4096),
            _ => VU::splat(base),
        }
    })
}

/// Bank counts: powers of two, odd and other non-powers, and above 64 (past
/// the fast path's bitmap).
fn arb_banks() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![
        1usize, 2, 3, 7, 16, 31, 32, 33, 48, 63, 64, 65, 96, 128, 257,
    ])
}

/// Lane vectors mixing raw bit patterns (every class: subnormals, ±∞, NaN,
/// huge and tiny exponents), named edge values, and moderate data.
fn arb_lanes_f32() -> impl Strategy<Value = VF> {
    const EDGES: [f32; 14] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::EPSILON,
        1.0 + f32::EPSILON,
        1.0e30,
        -1.0e-30,
        3.0,
    ];
    prop::collection::vec(any::<u64>(), WARP).prop_map(|v| {
        VF::from_fn(|l| {
            let bits = (v[l] >> 32) as u32;
            match v[l] % 4 {
                0 => f32::from_bits(bits),
                // Subnormals of either sign.
                1 => f32::from_bits((bits & 0x807f_ffff) | 1),
                2 => EDGES[bits as usize % EDGES.len()],
                // Moderate data: |x| < 2048 with a 20-bit fraction.
                _ => bits as i32 as f32 / (1 << 20) as f32,
            }
        })
    })
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the
/// payload of a NaN produced by arithmetic unspecified.
fn same_f32(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

fn arb_addrs() -> impl Strategy<Value = [u64; WARP]> {
    prop::collection::vec(0u64..1 << 20, WARP).prop_map(|v| {
        let mut a = [0u64; WARP];
        a.copy_from_slice(&v);
        // 4-byte aligned, like f32 element accesses
        for x in &mut a {
            *x &= !3;
        }
        a
    })
}

fn arb_mask() -> impl Strategy<Value = LaneMask> {
    any::<u32>().prop_map(LaneMask)
}

proptest! {
    /// Transaction count does not depend on lane order.
    #[test]
    fn coalesce_permutation_invariant(addrs in arb_addrs(), perm_seed in any::<u64>()) {
        let full = LaneMask::ALL;
        let base = coalesce(&addrs, full, 4, 32);
        // rotate lanes by a pseudo-random amount
        let rot = (perm_seed % WARP as u64) as usize;
        let mut rotated = [0u64; WARP];
        for l in 0..WARP {
            rotated[l] = addrs[(l + rot) % WARP];
        }
        let r = coalesce(&rotated, full, 4, 32);
        prop_assert_eq!(base.sectors, r.sectors);
    }

    /// 1 ≤ transactions ≤ active lanes (for 4-byte aligned accesses), and
    /// bounded by the address span.
    #[test]
    fn coalesce_bounds(addrs in arb_addrs(), mask in arb_mask()) {
        let r = coalesce(&addrs, mask, 4, 32);
        let active = mask.count() as u64;
        if active == 0 {
            prop_assert_eq!(r.transactions(), 0);
        } else {
            prop_assert!(r.transactions() >= 1);
            prop_assert!(r.transactions() <= active);
            let lo = mask.lanes().map(|l| addrs[l]).min().unwrap();
            let hi = mask.lanes().map(|l| addrs[l]).max().unwrap();
            let span_sectors = (hi / 32) - (lo / 32) + 1;
            prop_assert!(r.transactions() <= span_sectors);
        }
    }

    /// Fewer active lanes never cost more transactions.
    #[test]
    fn coalesce_monotone_in_mask(addrs in arb_addrs(), mask in arb_mask(), drop in 0usize..WARP) {
        let narrowed = LaneMask(mask.0 & !(1 << drop));
        let full = coalesce(&addrs, mask, 4, 32);
        let less = coalesce(&addrs, narrowed, 4, 32);
        prop_assert!(less.transactions() <= full.transactions());
    }

    /// shfl_xor is an involution for any mask and width.
    #[test]
    fn shfl_xor_involution(vals in prop::collection::vec(any::<f32>(), WARP),
                           mask in 0usize..WARP, wexp in 0u32..6) {
        let width = 1usize << wexp;
        let v = VF::from_fn(|l| vals[l]);
        let once = shuffle::shfl_xor(&v, mask, width);
        let twice = shuffle::shfl_xor(&once, mask, width);
        for l in 0..WARP {
            prop_assert_eq!(twice.lane(l).to_bits(), v.lane(l).to_bits());
        }
    }

    /// Indexed shuffle with the identity index is the identity.
    #[test]
    fn shfl_idx_identity(vals in prop::collection::vec(any::<f32>(), WARP)) {
        let v = VF::from_fn(|l| vals[l]);
        let idx = VU::lane_id();
        let s = shuffle::shfl_idx(&v, &idx, WARP);
        for l in 0..WARP {
            prop_assert_eq!(s.lane(l).to_bits(), v.lane(l).to_bits());
        }
    }

    /// Indexed shuffle never crosses its segment.
    #[test]
    fn shfl_idx_stays_in_segment(vals in prop::collection::vec(any::<f32>(), WARP),
                                 idxs in prop::collection::vec(any::<u32>(), WARP),
                                 wexp in 0u32..6) {
        let width = 1usize << wexp;
        let v = VF::from_fn(|l| l as f32); // value == source lane
        let _ = vals;
        let idx = VU::from_fn(|l| idxs[l]);
        let s = shuffle::shfl_idx(&v, &idx, width);
        for l in 0..WARP {
            let src = s.lane(l) as usize;
            prop_assert_eq!(src / width, l / width, "lane {} pulled from {}", l, src);
        }
    }

    /// Cache: an immediately repeated read hits; hits never exceed accesses.
    #[test]
    fn cache_repeat_read_hits(sectors in prop::collection::vec(0u64..256, 1..64)) {
        let mut c = SectoredCache::new(4096, 4, 128, 32, CachePolicy::l2());
        for &s in &sectors {
            let addr = s * 32;
            let _ = c.access(addr, false);
            prop_assert_eq!(c.access(addr, false), Access::Hit);
        }
    }

    /// Cache residency never exceeds capacity.
    #[test]
    fn cache_capacity_invariant(sectors in prop::collection::vec(0u64..100_000, 1..512)) {
        let mut c = SectoredCache::new(2048, 2, 128, 32, CachePolicy::l2());
        for &s in &sectors {
            c.access(s * 32, s % 3 == 0);
            prop_assert!(c.resident_sectors() <= 2048 / 32);
        }
    }

    /// Pack/shift/unpack (Algorithm 1's device) equals the dynamic gather it
    /// replaces: selecting hi-or-lo per lane.
    #[test]
    fn pack_shift_unpack_equals_select(lo in prop::collection::vec(any::<f32>(), WARP),
                                       hi in prop::collection::vec(any::<f32>(), WARP),
                                       sel in any::<u32>()) {
        let lov = VF::from_fn(|l| lo[l]);
        let hiv = VF::from_fn(|l| hi[l]);
        let packed = LaneVec::<u64>::pack(&lov, &hiv);
        // lanes flagged in `sel` take the high half (shift 32), others 0
        let shift = VU::from_fn(|l| if sel & (1 << l) != 0 { 32 } else { 0 });
        let got = (packed >> shift).unpack_lo();
        let want = hiv.select(LaneMask(sel), &lov);
        for l in 0..WARP {
            prop_assert_eq!(got.lane(l).to_bits(), want.lane(l).to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The stack-array bank model counts the passes of the per-bank-`Vec`
    /// model, on every access shape, mask and bank count.
    #[test]
    fn smem_passes_match_vec_oracle(idx in arb_words(), mask in arb_edge_mask(), banks in arb_banks()) {
        let smem = SharedMem::new(4096, banks);
        prop_assert_eq!(smem.passes(&idx, mask), passes_oracle(&idx, mask, banks));
    }

    /// Loads and stores charge the same passes, and vector loads the
    /// segment count of the `Vec` model, at every legal width.
    #[test]
    fn smem_access_passes_match_vec_oracle(idx in arb_words(), mask in arb_edge_mask(),
                                           banks in arb_banks(), vals in arb_lanes_f32()) {
        let mut smem = SharedMem::new(4096, banks);
        let want = passes_oracle(&idx, mask, banks);
        prop_assert_eq!(smem.load(&idx, mask).1, want);
        prop_assert_eq!(smem.store(&idx, &vals, mask), want);
        let aligned = |k: u32| idx.map(|w| w & !(k - 1));
        let v4 = aligned(4);
        prop_assert_eq!(smem.load_vec::<4>(&v4, mask).1, vec_passes_oracle(&v4, mask));
        let v2 = aligned(2);
        prop_assert_eq!(smem.load_vec::<2>(&v2, mask).1, vec_passes_oracle(&v2, mask));
        prop_assert_eq!(smem.load_vec::<1>(&idx, mask).1, vec_passes_oracle(&idx, mask));
    }

    /// The buffer coalescer and its `Vec` wrapper return the `Vec`
    /// coalescer's sectors, in order, for every access width that fits a
    /// sector, aligned or not.
    #[test]
    fn coalesce_into_matches_vec_oracle(raw in prop::collection::vec(0u64..1 << 16, WARP),
                                        mask in arb_edge_mask(), sexp in 2u32..8,
                                        size_exp in 0u32..8, contiguous in any::<bool>()) {
        let sector_bytes = 1u64 << sexp;
        let size = 1u32 << size_exp.min(sexp);
        let addrs: [u64; WARP] = std::array::from_fn(|l| {
            if contiguous { raw[0] + l as u64 * size as u64 } else { raw[l] }
        });
        let want = coalesce_oracle(&addrs, mask, size, sector_bytes);
        let mut buf = [0u64; 2 * WARP];
        let n = coalesce_into(&addrs, mask, size, sector_bytes, &mut buf);
        prop_assert_eq!(&buf[..n], want.as_slice());
        prop_assert_eq!(coalesce(&addrs, mask, size, sector_bytes).sectors, want);
    }

    /// Both `VF::mul_add` paths equal lane-wise `f32::mul_add` bit for bit,
    /// including lanes whose addend cancels the product exactly.
    #[test]
    fn mul_add_matches_lanewise_f32_mul_add(a in arb_lanes_f32(), b in arb_lanes_f32(),
                                            c in arb_lanes_f32(), cancel in any::<u32>()) {
        let c = VF::from_fn(|l| {
            if cancel & (1 << l) != 0 { -(a.lane(l) * b.lane(l)) } else { c.lane(l) }
        });
        for (path, got) in [("dispatch", a.mul_add(&b, &c)), ("scalar", a.mul_add_scalar(&b, &c))] {
            for l in 0..WARP {
                let want = a.lane(l).mul_add(b.lane(l), c.lane(l));
                prop_assert!(
                    same_f32(got.lane(l), want),
                    "{} path, lane {}: {:?}*{:?}+{:?} gave {:?}, want {:?}",
                    path, l, a.lane(l), b.lane(l), c.lane(l), got.lane(l), want
                );
            }
        }
    }
}

/// Named edge cases for both `VF::mul_add` paths: signed zeros, subnormal
/// results, infinities, overflowing products, and a product whose low bits
/// only a single rounding keeps.
#[test]
fn mul_add_edge_cases_round_once() {
    let tiny = f32::from_bits(1); // smallest subnormal
    let e = f32::EPSILON;
    let cases: [(f32, f32, f32); 12] = [
        (0.0, -1.0, 0.0),
        (-0.0, 1.0, -0.0),
        (0.0, 0.0, -0.0),
        (tiny, 0.5, 0.0),
        (f32::MIN_POSITIVE, 0.5, tiny),
        (f32::INFINITY, 2.0, 1.0),
        (f32::NEG_INFINITY, -3.0, f32::MAX),
        (f32::MAX, 2.0, f32::MIN),
        (f32::MAX, -2.0, f32::MAX),
        (1.0e30, 1.0e30, -1.0),
        (1.0 + e, 1.0 + e, -(1.0 + 2.0 * e)),
        (3.0, 1.0 / 3.0, -1.0),
    ];
    let a = VF::from_fn(|l| cases[l % cases.len()].0);
    let b = VF::from_fn(|l| cases[l % cases.len()].1);
    let c = VF::from_fn(|l| cases[l % cases.len()].2);
    for got in [a.mul_add(&b, &c), a.mul_add_scalar(&b, &c)] {
        for l in 0..WARP {
            let want = a.lane(l).mul_add(b.lane(l), c.lane(l));
            assert!(same_f32(got.lane(l), want), "lane {l}");
        }
        // (1+ε)² − (1+2ε) = ε² survives only a single rounding.
        assert_eq!(got.lane(10), e * e);
        assert_eq!(
            got.lane(7),
            f32::MAX,
            "MAX·2 overflows but the sum does not"
        );
    }
}
