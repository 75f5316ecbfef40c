//! Property-based tests of the simulator's structural invariants
//! (DESIGN.md §13).

use memconv_gpusim::faults::{BlockFaults, SectorFate};
use memconv_gpusim::lane::{LaneMask, LaneVec, VF, VU, WARP};
use memconv_gpusim::memory::cache::{Access, CachePolicy, SectoredCache};
use memconv_gpusim::memory::coalescer::{coalesce, coalesce_into};
use memconv_gpusim::memory::hierarchy::{
    flush_l2, l2_sector_access, new_l1, new_l2, warp_access, warp_access_span, L2Sink, Space,
};
use memconv_gpusim::memory::{LaneRun, SharedMem};
use memconv_gpusim::shuffle;
use memconv_gpusim::trace::BlockTrace;
use memconv_gpusim::{
    DeviceConfig, FaultKind, FaultPlan, GpuSim, KernelStats, LaunchConfig, LaunchError, SampleMode,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The shuffles' routing as it was before segment bounds became bit masks:
/// a runtime division (and modulo) by `width` in every lane.
fn shfl_xor_oracle<T: Copy>(v: &LaneVec<T>, mask: usize, width: usize) -> LaneVec<T> {
    LaneVec::from_fn(|i| {
        let src = i ^ mask;
        if src / width == i / width {
            v.lane(src)
        } else {
            v.lane(i)
        }
    })
}

fn shfl_up_oracle<T: Copy>(v: &LaneVec<T>, delta: usize, width: usize) -> LaneVec<T> {
    LaneVec::from_fn(|i| {
        let seg = i / width * width;
        if i >= delta && i - delta >= seg {
            v.lane(i - delta)
        } else {
            v.lane(i)
        }
    })
}

fn shfl_down_oracle<T: Copy>(v: &LaneVec<T>, delta: usize, width: usize) -> LaneVec<T> {
    LaneVec::from_fn(|i| {
        let seg_end = (i / width + 1) * width;
        if i + delta < seg_end {
            v.lane(i + delta)
        } else {
            v.lane(i)
        }
    })
}

fn shfl_idx_oracle<T: Copy>(v: &LaneVec<T>, idx: &VU, width: usize) -> LaneVec<T> {
    LaneVec::from_fn(|i| {
        let seg = i / width * width;
        v.lane(seg + (idx.lane(i) as usize % width))
    })
}

// ---- the memory model before its flat caches and shared fast paths -------
//
// Kept as oracles: the cache with one growing `Vec` of lines per set, the
// bank model that builds and sorts keys unless its single sweep finds a
// one-pass shape, the vector load that sorts segment ids and gathers lane
// by lane, and the block walk that tests every block id.

#[derive(Debug, Clone)]
struct OracleLine {
    tag: u64,
    valid: u8,
    dirty: u8,
    stamp: u64,
}

/// The sectored cache as a `Vec<Vec<Line>>`: LRU eviction by
/// `swap_remove` + `push`, set index and sector bit by division.
#[derive(Debug, Clone)]
struct OracleCache {
    sets: Vec<Vec<OracleLine>>,
    ways: usize,
    line_bytes: u64,
    sector_bytes: u64,
    policy: CachePolicy,
    tick: u64,
    evicted_dirty_sectors: u64,
}

impl OracleCache {
    fn new(capacity: usize, ways: usize, line: usize, sector: usize, policy: CachePolicy) -> Self {
        let nsets = capacity / line / ways;
        OracleCache {
            sets: vec![Vec::with_capacity(ways); nsets],
            ways,
            line_bytes: line as u64,
            sector_bytes: sector as u64,
            policy,
            tick: 0,
            evicted_dirty_sectors: 0,
        }
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / self.line_bytes) % self.sets.len() as u64) as usize
    }

    fn sector_bit(&self, sector_addr: u64) -> u8 {
        1u8 << ((sector_addr % self.line_bytes) / self.sector_bytes)
    }

    fn access(&mut self, sector_addr: u64, is_write: bool) -> Access {
        self.tick += 1;
        let tick = self.tick;
        let line_addr = sector_addr & !(self.line_bytes - 1);
        let bit = self.sector_bit(sector_addr);
        let ways = self.ways;
        let set_idx = self.set_index(line_addr);
        let CachePolicy {
            allocate_on_write,
            write_back,
        } = self.policy;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == line_addr) {
            line.stamp = tick;
            if is_write && write_back {
                line.dirty |= bit;
            }
            return if line.valid & bit != 0 {
                if is_write {
                    line.valid |= bit;
                }
                Access::Hit
            } else {
                line.valid |= bit;
                Access::SectorMiss
            };
        }
        if is_write && !allocate_on_write {
            return Access::LineMiss;
        }
        if set.len() == ways {
            let (lru, _) = set.iter().enumerate().min_by_key(|(_, l)| l.stamp).unwrap();
            let victim = set.swap_remove(lru);
            self.evicted_dirty_sectors += victim.dirty.count_ones() as u64;
        }
        set.push(OracleLine {
            tag: line_addr,
            valid: bit,
            dirty: if is_write && write_back { bit } else { 0 },
            stamp: tick,
        });
        Access::LineMiss
    }

    fn access_run(&mut self, sector_addr: u64, is_write: bool, n: u64) -> Access {
        let first = self.access(sector_addr, is_write);
        if n <= 1 {
            return first;
        }
        let line_addr = sector_addr & !(self.line_bytes - 1);
        let bit = self.sector_bit(sector_addr);
        let set_idx = self.set_index(line_addr);
        let resident = self.sets[set_idx]
            .iter()
            .position(|l| l.tag == line_addr && l.valid & bit != 0);
        match resident {
            Some(pos) => {
                self.tick += n - 1;
                self.sets[set_idx][pos].stamp = self.tick;
            }
            None => {
                for _ in 1..n {
                    self.access(sector_addr, is_write);
                }
            }
        }
        first
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set.drain(..) {
                self.evicted_dirty_sectors += line.dirty.count_ones() as u64;
            }
        }
    }

    fn resident_sectors(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .map(|l| l.valid.count_ones() as u64)
            .sum()
    }
}

/// The bank model with one sweep gathering `bank << 32 | word` keys by a
/// runtime remainder and a sort whenever no one-pass shape is found.
fn keyed_passes_oracle(idx: &VU, mask: LaneMask, banks: usize) -> u64 {
    if mask.is_empty() {
        return 0;
    }
    let first = idx.lane(mask.0.trailing_zeros() as usize);
    let mut one_word = true;
    let mut distinct_banks = banks <= 64;
    let mut seen_banks = 0u64;
    let mut keys = [0u64; WARP];
    let mut n = 0;
    for lane in active(mask) {
        let w = idx.lane(lane);
        let bank = (w as usize % banks) as u64;
        one_word &= w == first;
        if distinct_banks {
            distinct_banks = seen_banks & (1 << bank) == 0;
            seen_banks |= 1 << bank;
        }
        keys[n] = bank << 32 | w as u64;
        n += 1;
    }
    if one_word || distinct_banks {
        return 1;
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

/// The scalar load gathering lane by lane with a per-lane bounds assert.
fn load_oracle(data: &[f32], idx: &VU, mask: LaneMask) -> VF {
    VF::from_fn(|l| {
        if mask.get(l) {
            let i = idx.lane(l) as usize;
            assert!(i < data.len(), "shared load OOB: {i} >= {}", data.len());
            data[i]
        } else {
            0.0
        }
    })
}

/// The vector load: sorted segment ids for the pass count, then `K`
/// lane-by-lane gathers with a bounds assert per word.
fn load_vec_oracle<const K: usize>(data: &[f32], idx: &VU, mask: LaneMask) -> ([VF; K], u64) {
    if mask.is_empty() {
        return ([VF::splat(0.0); K], 0);
    }
    let mut segs = [0u32; WARP];
    let mut n = 0;
    for lane in active(mask) {
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
    let passes = (distinct as u64).div_ceil(8);
    let out = std::array::from_fn(|k| {
        VF::from_fn(|l| {
            if mask.get(l) {
                let i = idx.lane(l) as usize + k;
                assert!(i < data.len(), "shared vec load OOB");
                data[i]
            } else {
                0.0
            }
        })
    });
    (out, passes)
}

/// The broadcast read's `K` scalars as the splatted registers the per-lane
/// vector load returned, by bits.
fn splat_bits<const K: usize>(v: [f32; K]) -> [VU; K] {
    v.map(|x| VF::splat(x).to_bits())
}

/// The shared load lane by lane: ascending lanes, inactive lanes 0.0, the
/// first out-of-bounds lane panics with its index.
fn shared_load_oracle(data: &[f32], idx: &VU, mask: LaneMask) -> Result<VF, String> {
    let mut out = VF::splat(0.0);
    for l in active(mask) {
        let i = idx.lane(l) as usize;
        match data.get(i) {
            Some(&v) => out.set_lane(l, v),
            None => return Err(format!("shared load OOB: {i} >= {}", data.len())),
        }
    }
    Ok(out)
}

/// The shared store lane by lane: descending lanes, so the lowest lane wins
/// a repeated word, stopping at the first out-of-bounds lane met.
fn shared_store_oracle(data: &mut [f32], idx: &VU, val: &VF, mask: LaneMask) -> Result<(), String> {
    let len = data.len();
    for l in (0..WARP).rev().filter(|&l| mask.get(l)) {
        let i = idx.lane(l) as usize;
        match data.get_mut(i) {
            Some(slot) => *slot = val.lane(l),
            None => return Err(format!("shared store OOB: {i} >= {len}")),
        }
    }
    Ok(())
}

/// The text of a caught panic.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// The block walk that tested every linear block id against the mode.
fn filter_walk_oracle(mode: SampleMode, total: u64) -> Vec<u64> {
    let selects = |linear: u64| match mode {
        SampleMode::Full => true,
        SampleMode::Stride(k) => linear.is_multiple_of(k as u64),
        SampleMode::Chunked { chunk, skip } => (linear / chunk as u64).is_multiple_of(skip as u64),
        SampleMode::Auto(_) => unreachable!("resolved before the walk"),
    };
    (0..total).filter(|&l| selects(l)).collect()
}

// ---- the global-memory path before lane runs and line probes -------------
//
// Kept as oracles: the warp access that coalesced lane by lane and drove
// the L1 one sector at a time (each L2-bound sector through the fault
// filter into the sink as it went), and the per-lane reads and writes of
// the sequential engine's global view.

/// The definition of a lane run, by plain loops: active lanes `lo..lo+n`
/// with no holes, indices `start + j` with no `u32` wrap.
fn lane_run_oracle(idx: &VU, mask: LaneMask) -> Option<(usize, usize, u32)> {
    let lanes: Vec<usize> = active(mask).collect();
    let (&lo, &hi) = (lanes.first()?, lanes.last()?);
    if hi - lo + 1 != lanes.len() {
        return None;
    }
    let start = idx.lane(lo) as u64;
    let consecutive = lanes
        .iter()
        .all(|&l| idx.lane(l) as u64 == start + (l - lo) as u64);
    consecutive.then_some((lo, lanes.len(), start as u32))
}

/// `warp_access` as it was: per-lane coalescing, then one L1 `access` per
/// sector, forwarding each L2-bound sector as it goes.
#[allow(clippy::too_many_arguments)]
fn warp_access_oracle(
    dev: &DeviceConfig,
    l1: &mut SectoredCache,
    sink: &mut L2Sink<'_>,
    stats: &mut KernelStats,
    addrs: &[u64; WARP],
    mask: LaneMask,
    is_store: bool,
    mut faults: Option<&mut BlockFaults>,
) -> u64 {
    if mask.is_empty() {
        return 0;
    }
    let sectors = coalesce_oracle(addrs, mask, 4, dev.sector_bytes as u64);
    let txns = sectors.len() as u64;
    if is_store {
        stats.gst_requests += 1;
        stats.gst_transactions += txns;
    } else {
        stats.gld_requests += 1;
        stats.gld_transactions += txns;
    }
    for &sector in &sectors {
        if is_store {
            let _ = l1.access(sector, true);
        } else if l1.access(sector, false) == Access::Hit {
            stats.l1_hit_sectors += 1;
            continue;
        }
        let copies = match faults.as_deref_mut().map(|f| f.l2_sector()) {
            None | Some(SectorFate::Deliver) => 1,
            Some(SectorFate::Drop) => 0,
            Some(SectorFate::Duplicate) => 2,
        };
        for _ in 0..copies {
            match sink {
                L2Sink::Inline(l2) => l2_sector_access(l2, stats, sector, is_store),
                L2Sink::Deferred(trace) => trace.push(sector, is_store),
            }
        }
    }
    txns
}

/// The sequential engine's per-lane read: ascending lanes, inactive lanes
/// 0.0, the first out-of-bounds lane panics with its index.
fn read_lanes_oracle(data: &[f32], buf: usize, idx: &VU, mask: LaneMask) -> Result<VF, String> {
    let mut out = VF::splat(0.0);
    for l in active(mask) {
        let i = idx.lane(l);
        match data.get(i as usize) {
            Some(&v) => out.set_lane(l, v),
            None => {
                return Err(format!(
                    "device read OOB: buffer {buf} has {} elems, index {i}",
                    data.len()
                ))
            }
        }
    }
    Ok(out)
}

/// The sequential engine's per-lane write: descending lanes (the lowest
/// lane wins), stopping at the first out-of-bounds lane met.
fn write_lanes_oracle(
    data: &mut [f32],
    buf: usize,
    idx: &VU,
    val: &VF,
    mask: LaneMask,
) -> Result<(), String> {
    let len = data.len();
    for l in (0..WARP).rev().filter(|&l| mask.get(l)) {
        let i = idx.lane(l);
        match data.get_mut(i as usize) {
            Some(slot) => *slot = val.lane(l),
            None => {
                return Err(format!(
                    "device write OOB: buffer {buf} has {len} elems, index {i}"
                ))
            }
        }
    }
    Ok(())
}

/// One warp access of a random shape, relative to a buffer of `len`
/// elements: a lane run (any `lo` and `n`, any start, ending at or one past
/// the buffer end, or near `u32::MAX`), a run with one lane off by one or a
/// hole in its mask, a wrapping sequence, or a scatter.
#[derive(Debug, Clone, Copy)]
struct WarpShape {
    idx: VU,
    mask: LaneMask,
}

fn warp_shape(r: u64, len: u32) -> WarpShape {
    let mut x = r;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    let lo = (next() % WARP as u64) as usize;
    let n = 1 + (next() % (WARP - lo) as u64) as usize;
    let start = match next() % 6 {
        0 => len.saturating_sub(n as u32),     // ends at the buffer end
        1 => len.saturating_sub(n as u32) + 1, // one past it
        2 => u32::MAX - (n as u32 - 1),        // ends at u32::MAX
        _ => (next() % (len as u64 + 8)) as u32,
    };
    let junk = next();
    let mut idx = VU::from_fn(|l| {
        if (lo..lo + n).contains(&l) {
            start.wrapping_add((l - lo) as u32)
        } else {
            (junk >> (l % 32)) as u32 % (len + 64)
        }
    });
    let mut mask = LaneMask((((1u64 << n) - 1) << lo) as u32);
    match next() % 8 {
        0 if n >= 2 => {
            // one lane off by one
            let l = lo + (next() % n as u64) as usize;
            idx.set_lane(
                l,
                idx.lane(l)
                    .wrapping_add(if next() % 2 == 0 { 1 } else { u32::MAX }),
            );
        }
        1 if n >= 3 => {
            // a hole in the mask
            let l = lo + 1 + (next() % (n as u64 - 2)) as usize;
            mask = LaneMask(mask.0 & !(1 << l));
        }
        2 => {
            // a sequence that wraps past u32::MAX
            let s = u32::MAX - (next() % n as u64) as u32;
            idx = VU::from_fn(|l| s.wrapping_add(l as u32));
            mask = LaneMask::ALL;
        }
        3 => {
            idx = VU::from_fn(|l| ((junk.rotate_left(l as u32 * 5)) % (len as u64 + 4)) as u32);
            mask = LaneMask((next() >> 8) as u32);
        }
        _ => {}
    }
    WarpShape { idx, mask }
}

/// A random cache geometry: power-of-two lines of 16–256 B holding 1 to 8
/// power-of-two sectors, 1–8 ways and 1–40 sets (many not powers of two),
/// under either policy. Returned as `new`'s arguments.
fn arb_cache_geometry() -> impl Strategy<Value = (usize, usize, usize, usize, CachePolicy)> {
    any::<u64>().prop_map(|r| {
        let line = 16usize << (r % 5);
        let sector = (line >> ((r >> 8) % 4)).max(4);
        let ways = 1 + (r >> 16) as usize % 8;
        let sets = 1 + (r >> 24) as usize % 40;
        let policy = if (r >> 40) & 1 == 0 {
            CachePolicy::l1()
        } else {
            CachePolicy::l2()
        };
        (sets * ways * line, ways, line, sector, policy)
    })
}

/// Cache operations `(kind, sector id, run length)`: kinds 0–2 read, write
/// and run-access a sector, and one op in 16 (kind 3) flushes. Sector ids
/// range over three times the largest capacity, so sets conflict and
/// evict.
fn arb_cache_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec(any::<u64>(), 1..300).prop_map(|v| {
        v.into_iter()
            .map(|r| {
                let kind = if r % 16 == 15 { 3 } else { (r % 16 % 3) as u8 };
                (kind, (r >> 8) % (3 * 40 * 8 * 8), 1 + (r >> 40) % 4)
            })
            .collect()
    })
}

/// Drive `flat` and `oracle` with `ops`, asserting identical observations.
fn run_cache_ops(
    flat: &mut SectoredCache,
    oracle: &mut OracleCache,
    ops: &[(u8, u64, u64)],
    sector: u64,
) {
    for (step, &(kind, s, n)) in ops.iter().enumerate() {
        let addr = s * sector;
        let (got, want) = match kind {
            0 => (flat.access(addr, false), oracle.access(addr, false)),
            1 => (flat.access(addr, true), oracle.access(addr, true)),
            2 => {
                let w = s % 2 == 0;
                (flat.access_run(addr, w, n), oracle.access_run(addr, w, n))
            }
            _ => {
                flat.flush();
                oracle.flush();
                (Access::Hit, Access::Hit)
            }
        };
        assert_eq!(got, want, "op {step} ({kind}, {addr:#x}, {n})");
        assert_eq!(flat.evicted_dirty_sectors, oracle.evicted_dirty_sectors);
        assert_eq!(flat.resident_sectors(), oracle.resident_sectors());
    }
}

/// Bank counts from 1 to 257, half of them at most 64 (where the general
/// count gives every bank a slot of its own).
fn arb_bank_count() -> impl Strategy<Value = usize> {
    any::<u64>().prop_map(|r| 1 + (r >> 1) as usize % if r % 2 == 0 { 64 } else { 257 })
}

/// The baseline kernels' shared-memory index shapes in an arena of
/// `words` words (a power of two, at least 256), picked by `raw`: FFT's
/// bit-reversed store of a row of 32 to `words / 2` points, its butterfly
/// `k + j` (and `+ half`) indices for `half` 1 to 16, the GEMM kernel's
/// transposed-B tile rows (`flat % BK` rows of `BN` words, `flat / BK`
/// columns), and strides `2^k` up to 32.
fn baseline_smem_shape(words: u32, raw: &[u32]) -> VU {
    let bits = |x: usize, n: u32| (x.reverse_bits() >> (usize::BITS - n)) as u32;
    match raw[0] % 4 {
        0 => {
            let log = 5 + raw[1] % (words.trailing_zeros() - 5);
            let len = 1u32 << log;
            let chunk = raw[2] % (len / WARP as u32);
            let row = raw[3] % (words / len) * len;
            VU::from_fn(|l| row + bits((chunk as usize * WARP + l) % len as usize, log))
        }
        1 => {
            let half = 1u32 << (raw[1] % 5);
            let hi = raw[2] % 2 * half;
            let row = raw[3] % (words / 64) * 64;
            VU::from_fn(|l| row + l as u32 / half * 2 * half + l as u32 % half + hi)
        }
        2 => {
            let warp = raw[1] % 8;
            VU::from_fn(|l| {
                let flat = warp * WARP as u32 + l as u32;
                words / 4 + flat % 8 * 32 + flat / 8
            })
        }
        _ => {
            let k = raw[1] % 6;
            let base = raw[2] % (words - (31 << k));
            VU::from_fn(|l| base + ((l as u32) << k))
        }
    }
}

/// Warp word indices for the shared-memory checks, below `words − 4`:
/// warp-uniform, ascending or descending by a random stride below 41,
/// random, or one of the baseline kernels' shapes (below `words`).
fn arb_smem_index(words: u32) -> impl Strategy<Value = VU> {
    prop::collection::vec(any::<u32>(), WARP + 1).prop_map(move |raw| {
        let top = words - 4;
        let (base, stride) = (raw[0] % top, raw[WARP] % 41);
        match raw[WARP] / 41 % 5 {
            0 => VU::splat(base),
            1 => VU::from_fn(|l| (base + stride * l as u32) % top),
            2 => VU::from_fn(|l| (base + stride * (WARP - 1 - l) as u32) % top),
            3 => VU::from_fn(|l| raw[l] % top),
            _ => baseline_smem_shape(words, &raw[1..]),
        }
    })
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
/// broadcasts), strided rows (the kernels' shape), one broadcast word, or
/// one of the baseline kernels' shapes.
fn arb_words() -> impl Strategy<Value = VU> {
    prop::collection::vec(0u32..4096, WARP + 2).prop_map(|v| {
        let (base, stride) = (v[WARP] % 2048, v[WARP + 1] % 40);
        match v[WARP + 1] / 40 % 4 {
            0 => VU::from_fn(|l| v[l] % (64 + base)),
            1 => VU::from_fn(|l| (base + stride * l as u32) % 4096),
            2 => VU::splat(base),
            _ => baseline_smem_shape(4096, &v[..4]),
        }
    })
}

/// Bank counts: powers of two, odd and other non-powers, and above 64
/// (where the general count's slots hold more than one bank).
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

    /// All four shuffles route exactly as the division-based formulas did:
    /// every mask or delta in 0..=32, every power-of-two width, random lane
    /// bit patterns (NaN payloads included) and random source indices.
    #[test]
    fn shuffles_match_division_oracles(bits in prop::collection::vec(any::<u32>(), WARP),
                                       idxs in prop::collection::vec(any::<u32>(), WARP)) {
        let v = VU::from_fn(|l| bits[l]);
        let vf = VF::from_fn(|l| f32::from_bits(bits[l]));
        let as_bits = |x: VF| VU::from_fn(|l| x.lane(l).to_bits());
        let idx = VU::from_fn(|l| idxs[l]);
        for wexp in 0..=5 {
            let width = 1usize << wexp;
            for m in 0..=WARP {
                if m < WARP {
                    prop_assert_eq!(shuffle::shfl_xor(&v, m, width), shfl_xor_oracle(&v, m, width));
                    prop_assert_eq!(as_bits(shuffle::shfl_xor(&vf, m, width)), shfl_xor_oracle(&v, m, width));
                }
                prop_assert_eq!(shuffle::shfl_up(&v, m, width), shfl_up_oracle(&v, m, width));
                prop_assert_eq!(shuffle::shfl_down(&v, m, width), shfl_down_oracle(&v, m, width));
            }
            prop_assert_eq!(shuffle::shfl_idx(&v, &idx, width), shfl_idx_oracle(&v, &idx, width));
            prop_assert_eq!(as_bits(shuffle::shfl_idx(&vf, &idx, width)),
                            shfl_idx_oracle(&v, &idx, width));
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

    /// The one-pass exchange shuffle delivers, bit for bit, what the
    /// device does at every mask: lanes whose mask bits are 0 shift
    /// their packed pair right by 32, unpack the low half and `shfl_xor`
    /// it.
    #[test]
    fn shfl_xor_select_matches_pack_shift_unpack(lo in arb_lanes_f32(), hi in arb_lanes_f32()) {
        for mask in 0..WARP {
            let shift = VU::from_fn(|l| if l & mask == 0 { 32 } else { 0 });
            let send = (LaneVec::<u64>::pack(&lo, &hi) >> shift).unpack_lo();
            let want = shuffle::shfl_xor(&send, mask, WARP);
            let got = shuffle::shfl_xor_select(&lo, &hi, mask);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "mask {}", mask);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bank model — the affine closed form, and the general count that
    /// every other request takes — counts the passes of the per-bank-`Vec`
    /// model, on every access shape, mask and bank count; the general count
    /// alone does too, so it checks every fast path.
    #[test]
    fn smem_passes_match_vec_oracle(idx in arb_words(), mask in arb_edge_mask(), banks in arb_banks()) {
        let smem = SharedMem::new(4096, banks);
        let want = passes_oracle(&idx, mask, banks);
        prop_assert_eq!(smem.passes(&idx, mask), want);
        prop_assert_eq!(smem.general_passes(&idx, mask), want);
    }

    /// Loads and stores charge the same passes, and a store leaves the
    /// arena the per-lane store leaves (the lowest lane wins a repeated
    /// word).
    #[test]
    fn smem_access_passes_match_vec_oracle(idx in arb_words(), mask in arb_edge_mask(),
                                           banks in arb_banks(), vals in arb_lanes_f32()) {
        let mut smem = SharedMem::new(4096, banks);
        let want = passes_oracle(&idx, mask, banks);
        prop_assert_eq!(smem.load(&idx, mask).1, want);
        prop_assert_eq!(smem.store(&idx, &vals, mask), want);
        let mut data = vec![0.0f32; 4096];
        shared_store_oracle(&mut data, &idx, &vals, mask).unwrap();
        for base in (0..4096).step_by(WARP) {
            let got = smem.load(&VU::from_fn(|l| (base + l) as u32), LaneMask::ALL).0;
            let want = VF::from_fn(|l| data[base + l]);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat cache classifies every access of a random read, write and
    /// run stream exactly as the `Vec`-of-sets cache did, with the same
    /// write-backs and residency after every step, on every geometry
    /// (non-power-of-two set counts included) and both policies.
    #[test]
    fn flat_cache_matches_vec_of_sets_oracle(geometry in arb_cache_geometry(),
                                             ops in arb_cache_ops()) {
        let (cap, ways, line, sector, policy) = geometry;
        let mut flat = SectoredCache::new(cap, ways, line, sector, policy);
        let mut oracle = OracleCache::new(cap, ways, line, sector, policy);
        run_cache_ops(&mut flat, &mut oracle, &ops, sector as u64);
    }

    /// `reset` after arbitrary traffic leaves a cache that behaves as a
    /// freshly built one on any later traffic.
    #[test]
    fn reset_cache_behaves_as_fresh(geometry in arb_cache_geometry(),
                                    before in arb_cache_ops(), after in arb_cache_ops()) {
        let (cap, ways, line, sector, policy) = geometry;
        let mut reused = SectoredCache::new(cap, ways, line, sector, policy);
        let mut scratch = OracleCache::new(cap, ways, line, sector, policy);
        run_cache_ops(&mut reused, &mut scratch, &before, sector as u64);
        reused.reset();
        prop_assert_eq!(reused.evicted_dirty_sectors, 0);
        prop_assert_eq!(reused.resident_sectors(), 0);
        let mut fresh = OracleCache::new(cap, ways, line, sector, policy);
        run_cache_ops(&mut reused, &mut fresh, &after, sector as u64);
    }

    /// Pass counts and loaded values (by bits) of `passes`, `load` and
    /// the broadcast `load_vec` at every width, and the arena a `store`
    /// leaves, match the previous bank model, gathers and per-lane store
    /// for every bank count from 1 to 257 and uniform, ascending,
    /// descending, random and the baseline kernels' indices under random
    /// masks.
    #[test]
    fn smem_fast_paths_match_previous_model(banks in arb_bank_count(), idx in arb_smem_index(1024),
                                            mask in arb_edge_mask(), fill in arb_lanes_f32()) {
        const WORDS: u32 = 1024;
        let mut smem = SharedMem::new(WORDS as usize, banks);
        let mut data = vec![0.0f32; WORDS as usize];
        for base in (0..WORDS).step_by(WARP) {
            let vals = VF::from_fn(|l| f32::from_bits(fill.lane(l).to_bits() ^ base));
            smem.store(&VU::from_fn(|l| base + l as u32), &vals, LaneMask::ALL);
            for l in 0..WARP {
                data[(base as usize) + l] = vals.lane(l);
            }
        }
        let bits = |v: &VF| v.to_bits();
        prop_assert_eq!(smem.passes(&idx, mask), keyed_passes_oracle(&idx, mask, banks));
        let (v, p) = smem.load(&idx, mask);
        prop_assert_eq!(p, keyed_passes_oracle(&idx, mask, banks));
        prop_assert_eq!(bits(&v), bits(&load_oracle(&data, &idx, mask)));
        // The broadcast read: every lane on one aligned word, all active,
        // as the per-lane vector load's registers and its one pass.
        let word = |k: u32| idx.lane(0) & !(k - 1);
        let (w4, q4) = load_vec_oracle::<4>(&data, &VU::splat(word(4)), LaneMask::ALL);
        prop_assert_eq!((splat_bits(smem.load_vec::<4>(word(4))), q4), (w4.map(|v| bits(&v)), 1));
        let (w2, q2) = load_vec_oracle::<2>(&data, &VU::splat(word(2)), LaneMask::ALL);
        prop_assert_eq!((splat_bits(smem.load_vec::<2>(word(2))), q2), (w2.map(|v| bits(&v)), 1));
        let (w1, q1) = load_vec_oracle::<1>(&data, &VU::splat(word(1)), LaneMask::ALL);
        prop_assert_eq!((splat_bits(smem.load_vec::<1>(word(1))), q1), (w1.map(|v| bits(&v)), 1));
        // Stores, repeated words included, leave the per-lane store's arena.
        let vals = VF::from_fn(|l| fill.lane(WARP - 1 - l));
        prop_assert_eq!(smem.store(&idx, &vals, mask), keyed_passes_oracle(&idx, mask, banks));
        shared_store_oracle(&mut data, &idx, &vals, mask).unwrap();
        for base in (0..WORDS).step_by(WARP) {
            let got = smem.load(&VU::from_fn(|l| base + l as u32), LaneMask::ALL).0;
            let want = VF::from_fn(|l| data[base as usize + l]);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// Shared loads and stores of every warp shape — lane runs ending at the
    /// arena end, past it or at `u32::MAX`, runs with a lane off by one or
    /// a hole in the mask, wrapping sequences, scatters — read the per-lane
    /// gather's values, leave the per-lane store's arena, and panic with
    /// its text: at the lowest out-of-range lane of a load and the highest
    /// of a store.
    #[test]
    fn smem_out_of_bounds_panics_match_per_lane_oracles(words in 1u32..300, banks in arb_bank_count(),
                                                         load in any::<u64>(), store in any::<u64>(),
                                                         fill in arb_lanes_f32()) {
        let mut smem = SharedMem::new(words as usize, banks);
        let mut data = vec![0.0f32; words as usize];
        for base in (0..words).step_by(WARP) {
            let idx = VU::from_fn(|l| base + l as u32);
            let mask = idx.lt_scalar(words);
            smem.store(&idx, &fill, mask);
            shared_store_oracle(&mut data, &idx, &fill, mask).unwrap();
        }
        let (ld, st) = (warp_shape(load, words), warp_shape(store, words));
        let got = catch_unwind(AssertUnwindSafe(|| smem.load(&ld.idx, ld.mask).0.to_bits()));
        let want = shared_load_oracle(&data, &ld.idx, ld.mask).map(|v| v.to_bits());
        prop_assert_eq!(got.map_err(panic_text), want);
        let val = VF::from_fn(|l| -(l as f32) - 0.5);
        let got = catch_unwind(AssertUnwindSafe(|| smem.store(&st.idx, &val, st.mask)));
        let want = shared_store_oracle(&mut data, &st.idx, &val, st.mask);
        prop_assert_eq!(got.map(|_| ()).map_err(panic_text), want.clone());
        if want.is_ok() {
            let arena = (0..words).step_by(WARP).flat_map(|base| {
                let idx = VU::from_fn(|l| base + l as u32);
                smem.load(&idx, idx.lt_scalar(words)).0.to_bits().0
            });
            let arena: Vec<u32> = arena.take(words as usize).collect();
            prop_assert_eq!(arena, data.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }

    /// `SampleMode::selected` yields exactly the blocks the per-id filter
    /// walk selected, in the same order, for every mode; `Auto` selects
    /// what a launch resolves it to.
    #[test]
    fn selected_blocks_match_filter_walk(total in 0u64..5000, kind in 0u8..5, a in 1u32..70,
                                         b in 1u32..40, target in 1u64..300) {
        let mode = match kind {
            0 => SampleMode::Full,
            1 => SampleMode::Stride(a),
            2 => SampleMode::Chunked { chunk: a, skip: b },
            3 => SampleMode::auto(total, target),
            _ => SampleMode::Auto(target),
        };
        let resolved = match mode {
            SampleMode::Auto(t) => SampleMode::auto(total, t),
            m => m,
        };
        prop_assert_eq!(mode.selected(total).collect::<Vec<_>>(), filter_walk_oracle(resolved, total));
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

/// The device geometries the global-path checks run on: the tiny device,
/// one with a non-power-of-two L1 set count and a direct-mapped L1, and
/// ones with 2- and 8-sector lines.
fn global_path_device(pick: u64) -> DeviceConfig {
    let mut dev = DeviceConfig::test_tiny();
    match pick % 4 {
        0 => {}
        1 => {
            (dev.l1_bytes, dev.l1_ways) = (3 * 512, 1);
            (dev.l2_bytes, dev.l2_ways) = (3 * 1024, 2);
        }
        2 => {
            dev.line_bytes = 64;
            (dev.l1_bytes, dev.l1_ways) = (1024, 2);
        }
        _ => {
            dev.line_bytes = 256;
            (dev.l1_bytes, dev.l1_ways) = (4096, 2);
            (dev.l2_bytes, dev.l2_ways) = (16 * 1024, 4);
        }
    }
    dev
}

/// A stream of warp accesses over four buffers of `len` elements.
fn warp_ops(raw: &[u64], len: u32) -> Vec<(WarpShape, u64, bool)> {
    raw.iter()
        .map(|&r| {
            let base = (1u64 << 32) + (r >> 60) % 4 * 4096;
            (warp_shape(r, len), base, (r >> 58) & 1 == 1)
        })
        .collect()
}

/// Byte addresses of the active lanes of `shape` in the buffer at `base`.
fn shape_addrs(shape: &WarpShape, base: u64) -> [u64; WARP] {
    std::array::from_fn(|l| {
        if shape.mask.get(l) {
            base + shape.idx.lane(l) as u64 * 4
        } else {
            0
        }
    })
}

/// Read every sector in `sectors` from both caches in turn, asserting the
/// same classification each time: equal contents, and an equal LRU order
/// wherever a probe evicts.
fn probe_equal(a: &mut SectoredCache, b: &mut SectoredCache, sectors: &[u64]) {
    for &s in sectors {
        assert_eq!(a.access(s, false), b.access(s, false), "probe {s:#x}");
    }
    assert_eq!(a.evicted_dirty_sectors, b.evicted_dirty_sectors);
    assert_eq!(a.resident_sectors(), b.resident_sectors());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One `access_line` probe equals one per-sector access per set bit,
    /// ascending, of the `Vec`-of-sets cache: same hits, write-backs and
    /// residency after every step, and the same state when both caches are
    /// probed afterwards. Random geometries, both policies, dirty evictions
    /// and no-write-allocate misses included.
    #[test]
    fn line_probes_match_one_access_per_sector(geometry in arb_cache_geometry(),
                                               raw in prop::collection::vec(any::<u64>(), 1..200)) {
        let (cap, ways, line, sector, policy) = geometry;
        let mut fast = SectoredCache::new(cap, ways, line, sector, policy);
        let mut oracle = OracleCache::new(cap, ways, line, sector, policy);
        let per_line = (line / sector) as u32;
        let all = if per_line == 8 { u8::MAX } else { (1u8 << per_line) - 1 };
        let mut touched = Vec::new();
        for (step, &r) in raw.iter().enumerate() {
            if r % 23 == 0 {
                fast.flush();
                oracle.flush();
                continue;
            }
            let line_addr = (r >> 8) % (3 * 40 * 8) * line as u64;
            let bits = (r >> 40) as u8 & all;
            let is_write = (r >> 50) & 1 == 1;
            let hits = fast.access_line(line_addr, bits, is_write);
            let mut want = 0u8;
            for i in 0..per_line {
                if bits & 1 << i != 0 {
                    let addr = line_addr + (i * sector as u32) as u64;
                    touched.push(addr);
                    if oracle.access(addr, is_write) == Access::Hit {
                        want |= 1 << i;
                    }
                }
            }
            prop_assert_eq!(hits, want, "step {} line {:#x} bits {:#010b} write {}", step, line_addr, bits, is_write);
            prop_assert_eq!(fast.evicted_dirty_sectors, oracle.evicted_dirty_sectors);
            prop_assert_eq!(fast.resident_sectors(), oracle.resident_sectors());
        }
        for &s in &touched {
            prop_assert_eq!(fast.access(s, false), oracle.access(s, false), "probe {:#x}", s);
        }
        fast.flush();
        oracle.flush();
        prop_assert_eq!(fast.evicted_dirty_sectors, oracle.evicted_dirty_sectors);
    }

    /// The warp access path — lane runs through `warp_access_span`, every
    /// other shape through `warp_access`, both probing each cache once per
    /// line — equals per-lane coalescing with one L1 access per sector:
    /// equal counters, equal deferred traces, equal L1 and L2 state, with
    /// and without L2 sector faults armed. `LaneRun::of` finds exactly the
    /// runs of the plain-loop definition.
    #[test]
    fn warp_accesses_match_per_sector_drive(pick in any::<u64>(), len in 1u32..400,
                                            raw in prop::collection::vec(any::<u64>(), 1..48),
                                            armed in any::<bool>(), deferred in any::<bool>()) {
        let dev = global_path_device(pick);
        let plan = FaultPlan::new(pick)
            .with_rate(FaultKind::L2SectorDrop, 3)
            .with_rate(FaultKind::L2SectorDup, 4);
        let mut faults = armed.then(|| BlockFaults::new(&plan, 1, pick % 7));
        let mut oracle_faults = armed.then(|| BlockFaults::new(&plan, 1, pick % 7));
        let (mut l1, mut l2) = (new_l1(&dev), new_l2(&dev));
        let (mut ol1, mut ol2) = (new_l1(&dev), new_l2(&dev));
        let (mut trace, mut oracle_trace) = (BlockTrace::new(), BlockTrace::new());
        let (mut st, mut ost) = (KernelStats::default(), KernelStats::default());
        let mut touched = Vec::new();
        for (shape, base, is_store) in warp_ops(&raw, len) {
            let run = LaneRun::of(&shape.idx, shape.mask);
            prop_assert_eq!(run.map(|r| (r.lo, r.n, r.start)), lane_run_oracle(&shape.idx, shape.mask));
            let addrs = shape_addrs(&shape, base);
            touched.extend(coalesce_oracle(&addrs, shape.mask, 4, dev.sector_bytes as u64));
            let (mut sink, mut oracle_sink) = if deferred {
                (L2Sink::Deferred(&mut trace), L2Sink::Deferred(&mut oracle_trace))
            } else {
                (L2Sink::Inline(&mut l2), L2Sink::Inline(&mut ol2))
            };
            let txns = match run {
                Some(r) => warp_access_span(&dev, &mut l1, &mut sink, &mut st,
                                            base + r.start as u64 * 4, r.n as u64 * 4, is_store,
                                            faults.as_mut()),
                None => warp_access(&dev, &mut l1, &mut sink, &mut st, &addrs, shape.mask,
                                    is_store, Space::Global, faults.as_mut()),
            };
            let want = warp_access_oracle(&dev, &mut ol1, &mut oracle_sink, &mut ost, &addrs,
                                          shape.mask, is_store, oracle_faults.as_mut());
            prop_assert_eq!(txns, want);
            prop_assert_eq!(&st, &ost);
        }
        prop_assert_eq!(trace.iter().collect::<Vec<_>>(), oracle_trace.iter().collect::<Vec<_>>());
        probe_equal(&mut l1, &mut ol1, &touched);
        probe_equal(&mut l2, &mut ol2, &touched);
        flush_l2(&mut l2, &mut st);
        flush_l2(&mut ol2, &mut ost);
        prop_assert_eq!(&st, &ost);
        if let (Some(f), Some(o)) = (&faults, &oracle_faults) {
            prop_assert_eq!(f.log(), o.log());
        }
    }

    /// A launch's `gld` and `gst` read the values, write the memory, count
    /// the counters and panic with the text of the per-lane global view and
    /// per-sector drive, for runs and non-runs alike: runs ending at the
    /// buffer end or one element past it, near `u32::MAX`, misaligned,
    /// straddling lines; lanes off by one; holes in the mask.
    #[test]
    fn warp_loads_and_stores_match_per_lane_oracles(pick in any::<u64>(), len in 1u32..300,
                                                    out_len in 1u32..300, load in any::<u64>(),
                                                    store in any::<u64>(),
                                                    fill in prop::collection::vec(any::<u32>(), 300usize)) {
        let dev = global_path_device(pick);
        let data: Vec<f32> = (0..len as usize).map(|i| f32::from_bits(fill[i] >> 1)).collect();
        let (ld, st_shape) = (warp_shape(load, len), warp_shape(store, out_len));
        let val = VF::from_fn(|l| l as f32 + 0.5);
        let mut sim = GpuSim::new(dev.clone());
        let bi = sim.mem.upload(&data);
        let bo = sim.mem.upload(&vec![-1.0; out_len as usize]);
        let seen = std::sync::Mutex::new(None);
        let got = sim.try_launch(&LaunchConfig::linear(1, 32), |blk| {
            blk.each_warp(|w| {
                let v = w.gld(bi, &ld.idx, ld.mask);
                *seen.lock().unwrap() = Some(v.to_bits());
                w.gst(bo, &st_shape.idx, &val, st_shape.mask);
            })
        });

        let mut out = vec![-1.0; out_len as usize];
        let want = read_lanes_oracle(&data, 0, &ld.idx, ld.mask).and_then(|v| {
            write_lanes_oracle(&mut out, 1, &st_shape.idx, &val, st_shape.mask).map(|()| v)
        });
        match (got, want) {
            (Ok(stats), Ok(v)) => {
                prop_assert_eq!(seen.lock().unwrap().unwrap(), v.to_bits());
                prop_assert_eq!(sim.mem.download(bo), out.as_slice());
                let (mut l1, mut l2, mut ost) = (new_l1(&dev), new_l2(&dev), KernelStats::default());
                let mut sink = L2Sink::Inline(&mut l2);
                let base_i = sim.mem.addr(bi, 0);
                let base_o = sim.mem.addr(bo, 0);
                warp_access_oracle(&dev, &mut l1, &mut sink, &mut ost, &shape_addrs(&ld, base_i),
                                   ld.mask, false, None);
                warp_access_oracle(&dev, &mut l1, &mut sink, &mut ost,
                                   &shape_addrs(&st_shape, base_o), st_shape.mask, true, None);
                flush_l2(&mut l2, &mut ost);
                let traffic = |s: &KernelStats| [s.gld_requests, s.gld_transactions, s.gst_requests,
                    s.gst_transactions, s.l1_hit_sectors, s.l2_accesses, s.l2_hit_sectors,
                    s.dram_read_sectors, s.dram_write_sectors];
                prop_assert_eq!(traffic(&stats), traffic(&ost));
            }
            (Err(LaunchError::OutOfBounds(msg)), Err(want)) => prop_assert_eq!(msg, want),
            (got, want) => prop_assert!(false, "launch {:?}, oracle {:?}", got.map(|_| ()), want.map(|_| ())),
        }
    }
}

// ---- stated lane runs -----------------------------------------------------
//
// `WarpCtx::gld_run` against `WarpCtx::gld` given the equivalent index and
// mask, under every mode that changes the load path.

/// Lanes `lo..lo + n` load elements `start..` of `buf`, as a stated run or
/// through `gld`. `#[track_caller]`, so either load is attributed to the
/// caller's line and the two sides' reports name the same site.
#[track_caller]
fn stated_or_gld(
    w: &mut memconv_gpusim::WarpCtx<'_, '_>,
    stated: bool,
    buf: memconv_gpusim::BufId,
    (lo, n, start): (usize, usize, u32),
) -> VF {
    if stated {
        w.gld_run(buf, lo, n, start)
    } else {
        let idx = VU::from_fn(|l| start.wrapping_add((l as u32).wrapping_sub(lo as u32)));
        w.gld(buf, &idx, LaneMask::from_fn(|l| (lo..lo + n).contains(&l)))
    }
}

/// Everything one side of a stated-run comparison can observe.
#[derive(Debug, PartialEq)]
struct LoadSeen {
    launch: Result<KernelStats, LaunchError>,
    /// The load's value bits, then a following probe's (which sees the
    /// L1 and L2 the load left).
    bits: Option<(VU, VU)>,
    faults: memconv_gpusim::FaultLog,
    sym: Option<memconv_gpusim::SymReport>,
    hazards: Option<String>,
}

/// One launch of one warp on `dev` over `data`: the run load, then a probe
/// of 32 elements spread over the buffer. `mode` 0 is plain, 1 arms
/// global-load flips and L2 sector drops and duplicates, 2 is phantom
/// execution and 3 hazard analysis; `parallel` runs the parallel engine,
/// whose overlay view reads lane by lane. A watchdog `budget` of one
/// instruction trips at the probe when the load ticked.
#[allow(clippy::too_many_arguments)]
fn stated_run_side(
    stated: bool,
    dev: &DeviceConfig,
    data: &[f32],
    run: (usize, usize, u32),
    mode: u64,
    parallel: bool,
    budget: Option<u64>,
    seed: u64,
) -> LoadSeen {
    let mut sim = GpuSim::new(dev.clone());
    sim.set_watchdog_budget(budget);
    if parallel {
        sim.set_launch_mode(memconv_gpusim::LaunchMode::Parallel);
        sim.set_parallel_threads(Some(1));
    }
    match mode {
        1 => sim.set_fault_plan(Some(
            FaultPlan::new(seed)
                .with_rate(FaultKind::GlobalBitFlip, 2)
                .with_rate(FaultKind::L2SectorDrop, 3)
                .with_rate(FaultKind::L2SectorDup, 3),
        )),
        2 => sim.set_phantom(Some(memconv_gpusim::PhantomConfig { canary: -7.25 })),
        3 => sim.set_analysis(Some(memconv_gpusim::AnalysisConfig::default())),
        _ => {}
    }
    let buf = sim.mem.upload(data);
    let len = data.len() as u32;
    let seen = std::sync::Mutex::new(None);
    let launch = sim.try_launch(&LaunchConfig::linear(1, 32), |blk| {
        blk.each_warp(|w| {
            let v = stated_or_gld(w, stated, buf, run);
            let probe = w.gld(buf, &VU::from_fn(|l| l as u32 * len / 32), LaneMask::ALL);
            *seen.lock().unwrap() = Some((v.to_bits(), probe.to_bits()));
        })
    });
    LoadSeen {
        launch,
        bits: seen.into_inner().unwrap(),
        faults: sim.take_fault_log(),
        sym: sim.take_sym_report(),
        hazards: sim.take_hazard_report().map(|r| format!("{r:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A stated run loads what `gld` loads for the same index and mask:
    /// the value bits, every counter, the L1 and L2 a following access
    /// sees, the fault draws, the phantom `SymReport`, the hazard report,
    /// the panic text and the watchdog's count — for runs of no lanes, from
    /// lane 0 or above, partial or full, ending at, one past or far past
    /// the buffer end, ending at or wrapping past `u32::MAX`, on both
    /// engines.
    #[test]
    fn stated_runs_match_per_lane_loads(pick in any::<u64>(), len in 1u32..300,
                                        shape in any::<u64>(), mode in 0u64..4,
                                        parallel in any::<bool>(), tight in any::<bool>(),
                                        seed in any::<u64>(),
                                        fill in prop::collection::vec(any::<u32>(), 300usize)) {
        let dev = global_path_device(pick);
        let data: Vec<f32> = (0..len as usize).map(|i| f32::from_bits(fill[i])).collect();
        let lo = match shape % 3 {
            0 => 0,
            _ => (shape >> 8) as usize % (WARP + 1),
        };
        let n = match (shape >> 16) % 4 {
            0 => 0,
            1 => WARP - lo,
            _ => (shape >> 24) as usize % (WARP - lo + 1),
        };
        let k = n.max(1) as u32;
        let start = match (shape >> 32) % 7 {
            0 => len.saturating_sub(k),     // ends at the buffer end
            1 => len.saturating_sub(k) + 1, // one past it
            2 => len + (shape >> 40) as u32 % 64,
            3 => u32::MAX - (k - 1),        // ends at u32::MAX
            4 => u32::MAX - (shape >> 40) as u32 % k, // wraps past it
            _ => (shape >> 40) as u32 % (len + 8),
        };
        let run = (lo, n, start);
        let budget = tight.then_some(1);
        let stated = stated_run_side(true, &dev, &data, run, mode, parallel, budget, seed);
        let per_lane = stated_run_side(false, &dev, &data, run, mode, parallel, budget, seed);
        prop_assert_eq!(stated, per_lane);
    }
}

// ---- row primitives -------------------------------------------------------
//
// `WarpCtx::fma_row`, `WarpCtx::fma_col` and `WarpCtx::const_load_row`
// against the sequences of single-instruction calls the kernels issued
// before, kept as oracles.

/// Scalar weights from one random lane vector: every value class of
/// [`arb_lanes_f32`].
fn arb_weights() -> impl Strategy<Value = Vec<f32>> {
    arb_lanes_f32().prop_map(|v| v.0.to_vec())
}

/// Run `f` in one warp of a one-block launch on a fresh simulator holding
/// `consts`, with the watchdog at `budget` instructions when one is given,
/// and return the launch's outcome plus whatever `f` recorded.
fn one_warp<T: Send + Default>(
    consts: &[f32],
    phantom: bool,
    budget: Option<u64>,
    f: impl Fn(&mut memconv_gpusim::WarpCtx<'_, '_>, memconv_gpusim::BufId) -> T + Sync,
) -> (Result<KernelStats, LaunchError>, T) {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    if phantom {
        sim.set_phantom(Some(memconv_gpusim::PhantomConfig { canary: -7.25 }));
    }
    sim.set_watchdog_budget(budget);
    let buf = sim.mem.upload(consts);
    let out = std::sync::Mutex::new(T::default());
    let got = sim.try_launch(&LaunchConfig::linear(1, 32), |blk| {
        blk.each_warp(|w| *out.lock().unwrap() = f(w, buf));
    });
    (got, out.into_inner().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A row FMA gives the bits and counters of `xs.len()` single warp
    /// FMAs with splatted weights, `s` ascending, on raw bit patterns and
    /// every value class (lanes whose accumulator cancels the first
    /// product included); the dispatched and portable bodies of
    /// `VF::mul_add_row` agree with a lane-wise `f32::mul_add` chain.
    #[test]
    fn fma_row_matches_single_fmas(xs in prop::collection::vec(arb_lanes_f32(), 0..9),
                                   ws in arb_weights(), acc in arb_lanes_f32(),
                                   cancel in any::<u32>()) {
        let ws = &ws[..xs.len()];
        let acc = VF::from_fn(|l| match xs.first() {
            Some(x) if cancel & (1 << l) != 0 => -(x.lane(l) * ws[0]),
            _ => acc.lane(l),
        });
        let (row_stats, row) = one_warp(&[], false, None, |w, _| {
            let mut a = acc;
            w.fma_row(&mut a, &xs, ws);
            Some(a)
        });
        let (one_stats, one) = one_warp(&[], false, None, |w, _| {
            let mut a = acc;
            for (&x, &wt) in xs.iter().zip(ws) {
                a = w.fma(x, VF::splat(wt), a);
            }
            Some(a)
        });
        let (row_stats, one_stats) = (row_stats.unwrap(), one_stats.unwrap());
        prop_assert_eq!(row_stats.fma_instrs, xs.len() as u64);
        prop_assert_eq!(&row_stats, &one_stats);
        let (mut dispatched, mut portable) = (acc, acc);
        dispatched.mul_add_row(&xs, ws);
        portable.mul_add_row_scalar(&xs, ws);
        for l in 0..WARP {
            let want = xs.iter().zip(ws).fold(acc.lane(l), |a, (x, &wt)| x.lane(l).mul_add(wt, a));
            for (path, got) in [("warp", row.unwrap()), ("single", one.unwrap()),
                                ("dispatch", dispatched), ("portable", portable)] {
                prop_assert!(same_f32(got.lane(l), want), "{} path, lane {}: {:?} vs {:?}",
                             path, l, got.lane(l), want);
            }
        }
    }

    /// A column FMA gives the counts and, on every lane, the bits of one
    /// `fma(x, splat(ws[r]), rows[r])` per row, for 0 to 8 rows of every
    /// value class (rows whose accumulator cancels the product included);
    /// the dispatched and portable bodies of `VF::mul_add_col` agree with
    /// a lane-wise `f32::mul_add` per row.
    #[test]
    fn fma_col_matches_single_fmas(rows in prop::collection::vec(arb_lanes_f32(), 0..9),
                                   ws in arb_weights(), x in arb_lanes_f32(),
                                   cancel in any::<u32>()) {
        let ws = &ws[..rows.len()];
        let rows: Vec<VF> = rows.iter().zip(ws).map(|(r, &wt)| VF::from_fn(|l| {
            if cancel & (1 << l) != 0 { -(x.lane(l) * wt) } else { r.lane(l) }
        })).collect();
        let (col_stats, col) = one_warp(&[], false, None, |w, _| {
            let mut rs = rows.clone();
            w.fma_col(&mut rs, &x, ws);
            rs
        });
        let (one_stats, one) = one_warp(&[], false, None, |w, _| {
            rows.iter().zip(ws).map(|(&r, &wt)| w.fma(x, VF::splat(wt), r)).collect::<Vec<_>>()
        });
        let (col_stats, one_stats) = (col_stats.unwrap(), one_stats.unwrap());
        prop_assert_eq!(col_stats.fma_instrs, rows.len() as u64);
        prop_assert_eq!(&col_stats, &one_stats);
        let (mut dispatched, mut portable) = (rows.clone(), rows.clone());
        x.mul_add_col(&mut dispatched, ws);
        x.mul_add_col_scalar(&mut portable, ws);
        for (r, &wt) in ws.iter().enumerate() {
            for l in 0..WARP {
                let want = x.lane(l).mul_add(wt, rows[r].lane(l));
                for (path, got) in [("warp", &col), ("single", &one),
                                    ("dispatch", &dispatched), ("portable", &portable)] {
                    prop_assert!(same_f32(got[r].lane(l), want), "{} path, row {}, lane {}: {:?} vs {:?}",
                                 path, r, l, got[r].lane(l), want);
                }
            }
        }
    }

    /// A row of constant loads gives the values, `fp_instrs`, panic text
    /// and watchdog trip of one `const_load` per element, at any start and
    /// length over any buffer length — ranges inside, straddling the end
    /// of, or past the buffer, and starts near `u32::MAX` — reads the
    /// canary under phantom execution, and trips a watchdog budget that
    /// runs out mid-row at the same element with the same `issued` count.
    /// `const_load` is the one-element row, so the values are also checked
    /// against the buffer, the panic text against the device read's at the
    /// first index out of range, and a trip against the element it stops.
    #[test]
    fn const_load_row_matches_single_loads(len in 0usize..40, start_pick in any::<u64>(),
                                           n in 0usize..12, phantom in any::<bool>(),
                                           budget_pick in any::<u64>(),
                                           vals in arb_weights()) {
        let consts: Vec<f32> = (0..len).map(|i| vals[i % WARP]).collect();
        let start = match start_pick % 4 {
            0 => u32::MAX - (start_pick >> 8) as u32 % 16,
            1 => (len as u32).saturating_sub(n as u32) + (start_pick >> 8) as u32 % 3,
            _ => (start_pick >> 8) as u32 % (len as u32 + 4),
        };
        // Half the rows run under a budget of 0 to n + 1 instructions.
        let budget = (budget_pick % 2 == 1).then_some((budget_pick >> 8) % (n as u64 + 2));
        let (row_got, row) = one_warp(&consts, phantom, budget, |w, buf| {
            let mut out = vec![f32::NAN; n];
            w.const_load_row(buf, start, &mut out);
            out
        });
        let (one_got, one) = one_warp(&consts, phantom, budget, |w, buf| {
            (0..n as u32).map(|j| w.const_load(buf, start.wrapping_add(j))).collect::<Vec<VF>>()
        });
        prop_assert_eq!(&row_got, &one_got);
        let first_bad = (0..n as u32)
            .map(|j| start.wrapping_add(j))
            .position(|i| i as usize >= len);
        match &row_got {
            Ok(stats) => {
                prop_assert_eq!(stats.fp_instrs, n as u64);
                prop_assert_eq!(row.len(), n);
                for (j, (&got, want)) in row.iter().zip(&one).enumerate() {
                    prop_assert!(want.0.iter().all(|&v| v.to_bits() == got.to_bits()), "element {}", j);
                    let expect = if phantom { -7.25 } else { consts[start as usize + j] };
                    prop_assert_eq!(got.to_bits(), expect.to_bits());
                }
            }
            // The element past the budget trips before its read: the rows
            // before it were in range.
            Err(LaunchError::Timeout { issued, budget: b, hang_injected: false }) => {
                prop_assert_eq!(Some(*b), budget);
                prop_assert_eq!(*issued, b + 1);
                prop_assert!(*b < n as u64 && first_bad.unwrap_or(n) as u64 >= *b);
            }
            _ => {
                let j = first_bad.expect("a failed row reads out of range");
                let bad = start.wrapping_add(j as u32);
                prop_assert!(budget.unwrap_or(u64::MAX) > j as u64, "trips before element {}", j);
                let text = format!("device read OOB: buffer 0 has {len} elems, index {bad}");
                prop_assert!(matches!(&row_got, Err(LaunchError::OutOfBounds(m)) if m.contains(&text)),
                             "{:?}", row_got);
            }
        }
    }
}
