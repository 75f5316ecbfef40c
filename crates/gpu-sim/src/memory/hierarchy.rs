//! The L1 → L2 → DRAM path: classifies each coalesced sector and updates
//! the launch counters.
//!
//! The datapath is split in two along the L1/L2 boundary:
//!
//! * [`warp_access`] coalesces a warp's lane addresses, counts requests and
//!   transactions, and classifies every sector against the **per-block L1**.
//!   Sectors that must travel further — L1 load misses, plus every store
//!   sector (the L1 is write-through) — are handed to an [`L2Sink`].
//! * [`l2_sector_access`] classifies one such sector against the
//!   **launch-wide L2** and accounts DRAM fills and dirty write-backs.
//!
//! The split is what makes the parallel launch engine possible: the L1 never
//! depends on L2 state, so blocks can run phase 1 concurrently recording
//! their L2-bound sectors into a [`BlockTrace`] ([`L2Sink::Deferred`]), and
//! [`replay_trace`] later drives the real L2 with the identical ordered
//! stream the sequential engine ([`L2Sink::Inline`]) would have produced.
//!
//! Both caches are probed once per 128 B line, not once per sector
//! ([`SectoredCache::access_line`], exact by construction). A lane run
//! ([`warp_access_span`]) skips the coalescer: its lines and their sectors
//! follow from the ends of its byte span.

use super::cache::{Access, CacheGeometry, CachePolicy, SectoredCache};
use super::coalescer::{coalesce_into, SectorBuf};
use crate::device::DeviceConfig;
use crate::faults::{BlockFaults, SectorFate};
use crate::lane::{LaneMask, WARP};
use crate::stats::KernelStats;
use crate::trace::BlockTrace;

/// Which address space a warp access targets (for counter attribution;
/// both spaces share the same physical cache path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Global device memory.
    Global,
    /// Local (per-thread spill) memory.
    Local,
}

/// Where a block's L2-bound sector events go.
#[derive(Debug)]
pub enum L2Sink<'a> {
    /// Classify immediately against the launch-wide L2 (sequential engine).
    Inline(&'a mut SectoredCache),
    /// Record into a per-block trace for later ordered replay (parallel
    /// engine, phase 1). No L2 or DRAM counters are updated until
    /// [`replay_trace`] runs.
    Deferred(&'a mut BlockTrace),
}

/// The geometry of one block's (SM's) L1 on `dev`.
pub(crate) fn l1_geometry(dev: &DeviceConfig) -> CacheGeometry {
    CacheGeometry {
        capacity_bytes: dev.l1_bytes,
        ways: dev.l1_ways,
        line_bytes: dev.line_bytes,
        sector_bytes: dev.sector_bytes,
        policy: CachePolicy::l1(),
    }
}

/// The geometry of the launch-wide L2 on `dev`.
pub(crate) fn l2_geometry(dev: &DeviceConfig) -> CacheGeometry {
    CacheGeometry {
        capacity_bytes: dev.l2_bytes,
        ways: dev.l2_ways,
        line_bytes: dev.line_bytes,
        sector_bytes: dev.sector_bytes,
        policy: CachePolicy::l2(),
    }
}

/// Build a fresh L1 for one block/SM.
pub fn new_l1(dev: &DeviceConfig) -> SectoredCache {
    SectoredCache::with_geometry(l1_geometry(dev))
}

/// Build the launch-wide L2.
pub fn new_l2(dev: &DeviceConfig) -> SectoredCache {
    SectoredCache::with_geometry(l2_geometry(dev))
}

/// The cache kept in `slot`, made equal to a freshly built cache of
/// `geometry`: reset in place when it was built from that geometry, built
/// anew when the slot is empty or the geometry changed (a simulator's
/// `device` may be swapped between launches).
pub(crate) fn renew(
    slot: &mut Option<SectoredCache>,
    geometry: CacheGeometry,
) -> &mut SectoredCache {
    let cache = slot.get_or_insert_with(|| SectoredCache::with_geometry(geometry));
    if cache.geometry() == geometry {
        cache.reset();
    } else {
        *cache = SectoredCache::with_geometry(geometry);
    }
    cache
}

/// Route one warp-level memory access through the coalescer and the L1.
///
/// `addrs` are per-lane byte addresses (4-byte accesses); inactive lanes are
/// ignored. Updates request/transaction counters for `space` and L1 hit
/// counters; sectors continuing past the L1 go to `sink`. Returns the
/// transaction (sector) count of this access, for per-site attribution.
///
/// `faults`, when armed, decides the fate of every L2-bound sector
/// **before** it reaches the sink, so the sequential (inline) and parallel
/// (deferred trace) engines see the identical filtered stream. Dropped and
/// duplicated sectors shift L2/DRAM counters only: functional values never
/// travel through the cache path, which is what makes these two classes
/// provably output-neutral.
#[allow(clippy::too_many_arguments)] // mirrors the hardware datapath inputs
pub fn warp_access(
    dev: &DeviceConfig,
    l1: &mut SectoredCache,
    sink: &mut L2Sink<'_>,
    stats: &mut KernelStats,
    addrs: &[u64; WARP],
    mask: LaneMask,
    is_store: bool,
    space: Space,
    faults: Option<&mut BlockFaults>,
) -> u64 {
    if mask.is_empty() {
        return 0;
    }
    let mut buf = [0; 2 * WARP];
    let sectors = coalesce_counted(dev, stats, addrs, mask, is_store, space, &mut buf);
    let (line_shift, sector_shift) = l1.shifts();
    let lines = sector_lines(sectors, line_shift, sector_shift);
    route_lines(l1, sink, stats, lines, is_store, faults);
    sectors.len() as u64
}

/// [`warp_access`] for a global access whose active lanes cover exactly the
/// byte span `[first, first + bytes)`, as a lane run does
/// ([`super::LaneRun`]): its sectors — every sector from the span's first
/// byte to its last — and their lines follow from the span's two ends
/// instead of the per-lane coalescer, with identical counters, cache state
/// and sink stream. `bytes` is 1 to 128.
#[allow(clippy::too_many_arguments)] // mirrors `warp_access`
pub fn warp_access_span(
    dev: &DeviceConfig,
    l1: &mut SectoredCache,
    sink: &mut L2Sink<'_>,
    stats: &mut KernelStats,
    first: u64,
    bytes: u64,
    is_store: bool,
    faults: Option<&mut BlockFaults>,
) -> u64 {
    let txns = phantom_access_span(dev, stats, first, bytes, is_store);
    let (line_shift, sector_shift) = l1.shifts();
    debug_assert_eq!(sector_shift, dev.sector_bytes.trailing_zeros());
    let lines = span_lines(first, first + bytes - 1, line_shift, sector_shift);
    route_lines(l1, sink, stats, lines, is_store, faults);
    txns
}

/// The pure prefix of [`warp_access_span`], as [`phantom_access`] is of
/// [`warp_access`]: count the lane run's request and its transactions —
/// every sector from the span's first byte to its last — without touching
/// the L1 or emitting anything toward L2/DRAM. Phantom execution's span
/// path. `bytes` is 1 to 128.
pub fn phantom_access_span(
    dev: &DeviceConfig,
    stats: &mut KernelStats,
    first: u64,
    bytes: u64,
    is_store: bool,
) -> u64 {
    assert!(
        (1..=4 * WARP as u64).contains(&bytes),
        "a warp span of {bytes} B is not 1 to 128 B"
    );
    let shift = dev.sector_bytes.trailing_zeros();
    let txns = ((first + bytes - 1) >> shift) - (first >> shift) + 1;
    count_request(stats, Space::Global, is_store, txns);
    txns
}

/// The lines of ascending, distinct `sectors`, each with the mask of its
/// sectors among them, ascending.
fn sector_lines(
    sectors: &[u64],
    line_shift: u32,
    sector_shift: u32,
) -> impl Iterator<Item = (u64, u8)> + '_ {
    let line_mask = (1u64 << line_shift) - 1;
    let mut rest = sectors;
    std::iter::from_fn(move || {
        let line = rest.first()? & !line_mask;
        let mut bits = 0u8;
        while let Some((&s, tail)) = rest.split_first() {
            if s & !line_mask != line {
                break;
            }
            bits |= 1 << ((s & line_mask) >> sector_shift);
            rest = tail;
        }
        Some((line, bits))
    })
}

/// The lines the byte span `[first, last]` touches, ascending, each with
/// the mask of its sectors the span touches: sectors `lo..=hi` of a line
/// are the bits `(2 << hi) − (1 << lo)`.
fn span_lines(
    first: u64,
    last: u64,
    line_shift: u32,
    sector_shift: u32,
) -> impl Iterator<Item = (u64, u8)> {
    let top = (1u64 << (line_shift - sector_shift)) - 1;
    let (first_line, last_line) = (first >> line_shift, last >> line_shift);
    (first_line..last_line + 1).map(move |l| {
        let lo = if l == first_line {
            (first >> sector_shift) & top
        } else {
            0
        };
        let hi = if l == last_line {
            (last >> sector_shift) & top
        } else {
            top
        };
        (l << line_shift, ((2u64 << hi) - (1u64 << lo)) as u8)
    })
}

/// Send a warp access's `lines` (ascending, each with its sector mask)
/// through the L1 into `sink`. Dispatches on the sink variant, and on
/// whether faults are armed, once per warp access, so the per-line loop of
/// [`drive_lines`] is monomorphic over its emit closure.
fn route_lines(
    l1: &mut SectoredCache,
    sink: &mut L2Sink<'_>,
    stats: &mut KernelStats,
    lines: impl Iterator<Item = (u64, u8)>,
    is_store: bool,
    mut faults: Option<&mut BlockFaults>,
) {
    let (_, shift) = l1.shifts();
    match sink {
        // The L1 and L2 are separate caches, so after a line's L1 probe its
        // L2-bound sectors reach the L2 in one probe of their own: each
        // cache still sees its accesses in the same order.
        L2Sink::Inline(l2) if faults.is_none() => {
            drive_lines(l1, stats, lines, is_store, |st, line, bits| {
                l2_line_access(l2, st, line, bits, is_store)
            })
        }
        // Fault fates take the L2-bound sectors one at a time, ascending,
        // as does the deferred trace.
        L2Sink::Inline(l2) => drive_lines(l1, stats, lines, is_store, |st, line, bits| {
            for s in line_sectors(line, bits, shift) {
                for _ in 0..fated_copies(&mut faults) {
                    l2_sector_access(l2, st, s, is_store);
                }
            }
        }),
        L2Sink::Deferred(trace) => drive_lines(l1, stats, lines, is_store, |_, line, bits| {
            for s in line_sectors(line, bits, shift) {
                for _ in 0..fated_copies(&mut faults) {
                    trace.push(s, is_store);
                }
            }
        }),
    }
}

/// How many copies of the next L2-bound sector reach the L2: one, or as
/// many as the fate drawn for it when faults are armed.
fn fated_copies(faults: &mut Option<&mut BlockFaults>) -> u32 {
    match faults.as_deref_mut().map(|f| f.l2_sector()) {
        None | Some(SectorFate::Deliver) => 1,
        Some(SectorFate::Drop) => 0,
        Some(SectorFate::Duplicate) => 2,
    }
}

/// The sector addresses `bits` of the line at `line`, ascending.
fn line_sectors(line: u64, bits: u8, sector_shift: u32) -> impl Iterator<Item = u64> {
    let mut rest = bits;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let i = rest.trailing_zeros() as u64;
        rest &= rest - 1;
        Some(line | i << sector_shift)
    })
}

/// The pure prefix of [`warp_access`]: coalesce a warp's lane addresses and
/// bump the request/transaction counters for `space`, **without** touching
/// the L1 or emitting anything toward L2/DRAM.
///
/// This is the phantom-execution datapath: transactions are a pure function
/// of the addresses (the coalescer never reads memory), so a kernel run
/// under phantom mode produces bit-identical request/transaction counters
/// to a real run while leaving every cache/DRAM counter at zero and — in
/// the parallel engine — recording no trace events at all.
pub fn phantom_access(
    dev: &DeviceConfig,
    stats: &mut KernelStats,
    addrs: &[u64; WARP],
    mask: LaneMask,
    is_store: bool,
    space: Space,
) -> u64 {
    if mask.is_empty() {
        return 0;
    }
    let mut buf = [0; 2 * WARP];
    coalesce_counted(dev, stats, addrs, mask, is_store, space, &mut buf).len() as u64
}

/// Coalesce a non-empty warp access into `buf` and count its request and
/// transactions for `space`; returns the distinct sectors, ascending. The
/// shared prefix of [`warp_access`] and [`phantom_access`].
fn coalesce_counted<'b>(
    dev: &DeviceConfig,
    stats: &mut KernelStats,
    addrs: &[u64; WARP],
    mask: LaneMask,
    is_store: bool,
    space: Space,
    buf: &'b mut SectorBuf,
) -> &'b [u64] {
    let n = coalesce_into(addrs, mask, 4, dev.sector_bytes as u64, buf);
    #[cfg(debug_assertions)]
    {
        // Inactive lanes must never contribute sectors: re-coalescing with
        // their addresses poisoned far away from any real allocation must
        // yield the identical sector set. The OOB analysis pass relies on
        // this (a masked-off garbage index is not a hazard).
        const POISON: u64 = 1 << 60;
        let mut poisoned = *addrs;
        for (l, p) in poisoned.iter_mut().enumerate() {
            if !mask.get(l) {
                *p = POISON + l as u64 * 4096;
            }
        }
        let mut pbuf = [0; 2 * WARP];
        let pn = coalesce_into(&poisoned, mask, 4, dev.sector_bytes as u64, &mut pbuf);
        debug_assert_eq!(
            &pbuf[..pn],
            &buf[..n],
            "inactive-mask lanes contributed sectors to a warp access"
        );
    }
    count_request(stats, space, is_store, n as u64);
    &buf[..n]
}

/// Count one warp request of `txns` transactions for `space`.
fn count_request(stats: &mut KernelStats, space: Space, is_store: bool, txns: u64) {
    match (space, is_store) {
        (Space::Global, false) => {
            stats.gld_requests += 1;
            stats.gld_transactions += txns;
        }
        (Space::Global, true) => {
            stats.gst_requests += 1;
            stats.gst_transactions += txns;
        }
        (Space::Local, false) => {
            stats.local_requests += 1;
            stats.local_ld_transactions += txns;
        }
        (Space::Local, true) => {
            stats.local_requests += 1;
            stats.local_st_transactions += txns;
        }
    }
}

/// Classify each of `lines` (a line address and a sector mask, ascending)
/// against the per-block L1 in one probe, and hand the line's L2-bound
/// sectors — every store sector (write-through L1), every load miss — to
/// `emit` as a line address and a sector mask. Generic over the emit
/// target so each sink gets its own fully inlined loop.
fn drive_lines<E>(
    l1: &mut SectoredCache,
    stats: &mut KernelStats,
    lines: impl Iterator<Item = (u64, u8)>,
    is_store: bool,
    mut emit: E,
) where
    E: FnMut(&mut KernelStats, u64, u8),
{
    for (line, bits) in lines {
        let hits = l1.access_line(line, bits, is_store);
        let forward = if is_store {
            // L1 is write-through: every sector is forwarded to L2.
            bits
        } else {
            stats.l1_hit_sectors += hits.count_ones() as u64;
            bits & !hits
        };
        if forward != 0 {
            emit(stats, line, forward);
        }
    }
}

/// [`l2_sector_access`] for the sectors `bits` of one line, in one probe:
/// the same counters and L2 state as one call per sector, ascending.
pub(crate) fn l2_line_access(
    l2: &mut SectoredCache,
    stats: &mut KernelStats,
    line: u64,
    bits: u8,
    is_store: bool,
) {
    let write_backs_before = l2.evicted_dirty_sectors;
    let n = bits.count_ones() as u64;
    let hits = l2.access_line(line, bits, is_store).count_ones() as u64;
    stats.l2_accesses += n;
    stats.l2_hit_sectors += hits;
    if !is_store {
        // Full-sector store misses allocate in L2 without a DRAM fetch;
        // load misses fill from DRAM.
        stats.dram_read_sectors += n - hits;
    }
    stats.dram_write_sectors += l2.evicted_dirty_sectors - write_backs_before;
}

/// Classify one sector against the launch-wide L2, updating L2 hit/access
/// counters, DRAM read fills, and DRAM write-backs of dirty evictions.
pub fn l2_sector_access(
    l2: &mut SectoredCache,
    stats: &mut KernelStats,
    sector_addr: u64,
    is_store: bool,
) {
    let write_backs_before = l2.evicted_dirty_sectors;
    if is_store {
        stats.l2_accesses += 1;
        if l2.access(sector_addr, true) == Access::Hit {
            stats.l2_hit_sectors += 1;
        }
        // Full-sector store misses allocate in L2 without a DRAM fetch.
    } else {
        stats.l2_accesses += 1;
        match l2.access(sector_addr, false) {
            Access::Hit => stats.l2_hit_sectors += 1,
            Access::SectorMiss | Access::LineMiss => {
                stats.dram_read_sectors += 1;
            }
        }
    }
    // Dirty evictions from L2 become DRAM writes.
    stats.dram_write_sectors += l2.evicted_dirty_sectors - write_backs_before;
}

/// Replay one block's recorded L2-bound sector stream through the real L2,
/// in record order. Driving the L2 with the same ordered stream the
/// sequential engine would produce yields bit-identical counters.
///
/// Batched: the trace decodes into *runs* of identical events, and each run
/// is consumed in one [`SectoredCache::access_run`] probe. This is exact,
/// not approximate — under the L2's write-allocate policy the first access
/// of a run leaves the sector resident, so the remaining `n − 1` events are
/// Hits that only advance the LRU clock (which `access_run` reproduces),
/// and a store run's dirty bit is set by its first event (idempotent).
/// Counter deltas accumulate into a local [`KernelStats`] folded in with
/// one merge at the end, instead of read-modify-writes per event.
pub fn replay_trace(trace: &BlockTrace, l2: &mut SectoredCache, stats: &mut KernelStats) {
    let mut local = KernelStats::default();
    for (sector_addr, is_store, n) in trace.runs() {
        let write_backs_before = l2.evicted_dirty_sectors;
        let first = l2.access_run(sector_addr, is_store, n);
        local.l2_accesses += n;
        let mut hits = n - 1;
        match first {
            Access::Hit => hits += 1,
            Access::SectorMiss | Access::LineMiss => {
                if !is_store {
                    // Full-sector store misses allocate in L2 without a
                    // DRAM fetch; load misses fill from DRAM.
                    local.dram_read_sectors += 1;
                }
            }
        }
        local.l2_hit_sectors += hits;
        local.dram_write_sectors += l2.evicted_dirty_sectors - write_backs_before;
    }
    *stats += &local;
}

/// End-of-launch: flush L2, converting remaining dirty sectors into DRAM
/// write traffic.
pub fn flush_l2(l2: &mut SectoredCache, stats: &mut KernelStats) {
    let before = l2.evicted_dirty_sectors;
    l2.flush();
    stats.dram_write_sectors += l2.evicted_dirty_sectors - before;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LaneMask;

    fn setup() -> (DeviceConfig, SectoredCache, SectoredCache, KernelStats) {
        let dev = DeviceConfig::test_tiny();
        let l1 = new_l1(&dev);
        let l2 = new_l2(&dev);
        (dev, l1, l2, KernelStats::default())
    }

    fn seq_addrs(base: u64) -> [u64; WARP] {
        std::array::from_fn(|l| base + l as u64 * 4)
    }

    fn access(
        dev: &DeviceConfig,
        l1: &mut SectoredCache,
        l2: &mut SectoredCache,
        st: &mut KernelStats,
        addrs: &[u64; WARP],
        is_store: bool,
        space: Space,
    ) {
        let mut sink = L2Sink::Inline(l2);
        warp_access(
            dev,
            l1,
            &mut sink,
            st,
            addrs,
            LaneMask::ALL,
            is_store,
            space,
            None,
        );
    }

    #[test]
    fn span_lines_match_the_coalescers_lines() {
        // Every run start within two lines, every run length, on lines of
        // 1, 2, 4 and 8 sectors of 32 B.
        for line_shift in 5..=8 {
            for first in (0x1000u64..0x1000 + 512).step_by(4) {
                for n in 1..=WARP as u64 {
                    let a: [u64; WARP] = std::array::from_fn(|l| first + l as u64 * 4);
                    let mut buf = [0; 2 * WARP];
                    let k = coalesce_into(&a, LaneMask::first(n as usize), 4, 32, &mut buf);
                    let want: Vec<_> = sector_lines(&buf[..k], line_shift, 5).collect();
                    let got: Vec<_> = span_lines(first, first + 4 * n - 1, line_shift, 5).collect();
                    assert_eq!(got, want, "line 2^{line_shift} first {first:#x} n {n}");
                }
            }
        }
    }

    #[test]
    fn coalesced_load_counts_four_transactions_and_dram_fills() {
        let (dev, mut l1, mut l2, mut st) = setup();
        access(
            &dev,
            &mut l1,
            &mut l2,
            &mut st,
            &seq_addrs(0x10000),
            false,
            Space::Global,
        );
        assert_eq!(st.gld_requests, 1);
        assert_eq!(st.gld_transactions, 4);
        assert_eq!(st.dram_read_sectors, 4);
        assert_eq!(st.l1_hit_sectors, 0);
    }

    #[test]
    fn repeat_load_hits_l1() {
        let (dev, mut l1, mut l2, mut st) = setup();
        let a = seq_addrs(0x10000);
        access(&dev, &mut l1, &mut l2, &mut st, &a, false, Space::Global);
        access(&dev, &mut l1, &mut l2, &mut st, &a, false, Space::Global);
        assert_eq!(st.gld_transactions, 8);
        assert_eq!(st.l1_hit_sectors, 4);
        assert_eq!(st.dram_read_sectors, 4);
    }

    #[test]
    fn store_then_flush_writes_dram_once() {
        let (dev, mut l1, mut l2, mut st) = setup();
        let a = seq_addrs(0x20000);
        access(&dev, &mut l1, &mut l2, &mut st, &a, true, Space::Global);
        access(&dev, &mut l1, &mut l2, &mut st, &a, true, Space::Global);
        assert_eq!(st.gst_transactions, 8);
        assert_eq!(st.dram_write_sectors, 0, "still cached dirty in L2");
        flush_l2(&mut l2, &mut st);
        assert_eq!(st.dram_write_sectors, 4, "each dirty sector written once");
    }

    #[test]
    fn local_space_attributes_to_local_counters() {
        let (dev, mut l1, mut l2, mut st) = setup();
        access(
            &dev,
            &mut l1,
            &mut l2,
            &mut st,
            &seq_addrs(0x30000),
            false,
            Space::Local,
        );
        assert_eq!(st.local_requests, 1);
        assert_eq!(st.local_ld_transactions, 4);
        assert_eq!(st.local_st_transactions, 0);
        assert_eq!(st.local_transactions(), 4);
        assert_eq!(st.gld_requests, 0);
    }

    #[test]
    fn local_stores_attribute_to_store_counter() {
        let (dev, mut l1, mut l2, mut st) = setup();
        access(
            &dev,
            &mut l1,
            &mut l2,
            &mut st,
            &seq_addrs(0x30000),
            true,
            Space::Local,
        );
        assert_eq!(st.local_requests, 1);
        assert_eq!(st.local_ld_transactions, 0);
        assert_eq!(st.local_st_transactions, 4);
    }

    #[test]
    fn inactive_lanes_never_contribute_sectors() {
        // Regression for the masked-lane miscount risk: garbage addresses in
        // inactive lanes (overlapping active sectors AND pointing at distinct
        // far-away sectors) must not change any counter relative to zeroed
        // inactive lanes — and must not trip the debug poisoning assert.
        let dev = DeviceConfig::test_tiny();
        let run = |garbage: bool| {
            let mut l1 = new_l1(&dev);
            let mut l2 = new_l2(&dev);
            let mut st = KernelStats::default();
            let mask = LaneMask::first(8);
            let addrs: [u64; WARP] = std::array::from_fn(|l| {
                if mask.get(l) {
                    0x10000 + l as u64 * 4
                } else if garbage {
                    // half alias the active sectors, half point elsewhere
                    if l % 2 == 0 {
                        0x10000
                    } else {
                        0x9_0000 + l as u64 * 128
                    }
                } else {
                    0
                }
            });
            let mut sink = L2Sink::Inline(&mut l2);
            let txns = warp_access(
                &dev,
                &mut l1,
                &mut sink,
                &mut st,
                &addrs,
                mask,
                false,
                Space::Global,
                None,
            );
            (txns, st)
        };
        let (clean_txns, clean) = run(false);
        let (dirty_txns, dirty) = run(true);
        assert_eq!(clean_txns, 1, "8 contiguous lanes = one 32 B sector");
        assert_eq!(clean_txns, dirty_txns);
        assert_eq!(clean, dirty);
    }

    #[test]
    fn capacity_eviction_reaches_dram_on_reread() {
        let (dev, mut l1, mut l2, mut st) = setup();
        // Stream far more than L2 (8 KiB tiny device) then re-read the start.
        for i in 0..128u64 {
            access(
                &dev,
                &mut l1,
                &mut l2,
                &mut st,
                &seq_addrs(0x40000 + i * 128),
                false,
                Space::Global,
            );
        }
        let before = st.dram_read_sectors;
        access(
            &dev,
            &mut l1,
            &mut l2,
            &mut st,
            &seq_addrs(0x40000),
            false,
            Space::Global,
        );
        assert!(st.dram_read_sectors > before, "evicted line re-fetched");
    }

    #[test]
    fn l2_serves_l1_misses_without_dram() {
        let (dev, mut l1, mut l2, mut st) = setup();
        let a = seq_addrs(0x50000);
        // Load, then thrash L1 only (L1 is 2 KiB; 32 lines of distinct sets),
        // then re-load: should hit L2.
        access(&dev, &mut l1, &mut l2, &mut st, &a, false, Space::Global);
        for i in 1..20u64 {
            access(
                &dev,
                &mut l1,
                &mut l2,
                &mut st,
                &seq_addrs(0x50000 + i * 128),
                false,
                Space::Global,
            );
        }
        let dram_before = st.dram_read_sectors;
        let l2hit_before = st.l2_hit_sectors;
        access(&dev, &mut l1, &mut l2, &mut st, &a, false, Space::Global);
        assert_eq!(st.dram_read_sectors, dram_before, "L2 still holds the line");
        assert_eq!(st.l2_hit_sectors, l2hit_before + 4);
    }

    #[test]
    fn deferred_sink_records_instead_of_touching_l2() {
        let (dev, mut l1, mut l2, mut st) = setup();
        let mut trace = BlockTrace::new();
        {
            let mut sink = L2Sink::Deferred(&mut trace);
            warp_access(
                &dev,
                &mut l1,
                &mut sink,
                &mut st,
                &seq_addrs(0x60000),
                LaneMask::ALL,
                false,
                Space::Global,
                None,
            );
            warp_access(
                &dev,
                &mut l1,
                &mut sink,
                &mut st,
                &seq_addrs(0x60000),
                LaneMask::ALL,
                true,
                Space::Global,
                None,
            );
        }
        // Coalescing/L1 counters accrue immediately...
        assert_eq!(st.gld_transactions, 4);
        assert_eq!(st.gst_transactions, 4);
        // ...but nothing has reached the L2 or DRAM yet.
        assert_eq!(st.l2_accesses, 0);
        assert_eq!(st.dram_read_sectors, 0);
        assert_eq!(trace.len(), 8, "4 load-miss sectors + 4 store sectors");

        replay_trace(&trace, &mut l2, &mut st);
        assert_eq!(st.l2_accesses, 8);
        assert_eq!(st.dram_read_sectors, 4);
        assert_eq!(st.l2_hit_sectors, 4, "stores hit the load-filled line");
    }

    #[test]
    fn deferred_replay_matches_inline_exactly() {
        // Same access pattern via both sinks must give identical stats.
        let pattern: Vec<(u64, bool)> = (0..40u64)
            .map(|i| (0x70000 + (i % 13) * 128, i % 3 == 0))
            .collect();

        let (dev, mut l1a, mut l2a, mut sta) = setup();
        for &(base, is_store) in &pattern {
            access(
                &dev,
                &mut l1a,
                &mut l2a,
                &mut sta,
                &seq_addrs(base),
                is_store,
                Space::Global,
            );
        }
        flush_l2(&mut l2a, &mut sta);

        let (_, mut l1b, mut l2b, mut stb) = setup();
        let mut trace = BlockTrace::new();
        for &(base, is_store) in &pattern {
            let mut sink = L2Sink::Deferred(&mut trace);
            warp_access(
                &dev,
                &mut l1b,
                &mut sink,
                &mut stb,
                &seq_addrs(base),
                LaneMask::ALL,
                is_store,
                Space::Global,
                None,
            );
        }
        replay_trace(&trace, &mut l2b, &mut stb);
        flush_l2(&mut l2b, &mut stb);

        assert_eq!(sta, stb);
    }

    #[test]
    fn phantom_access_matches_warp_access_request_counters_only() {
        // phantom_access must produce the identical request/transaction
        // counters as warp_access while leaving L1/L2/DRAM counters zero
        // and the deferred trace empty.
        let (dev, mut l1, mut l2, mut real) = setup();
        let a = seq_addrs(0x10000);
        for &(is_store, space) in &[
            (false, Space::Global),
            (true, Space::Global),
            (false, Space::Local),
            (true, Space::Local),
        ] {
            access(&dev, &mut l1, &mut l2, &mut real, &a, is_store, space);
        }
        let mut ghost = KernelStats::default();
        for &(is_store, space) in &[
            (false, Space::Global),
            (true, Space::Global),
            (false, Space::Local),
            (true, Space::Local),
        ] {
            let t = phantom_access(&dev, &mut ghost, &a, LaneMask::ALL, is_store, space);
            assert_eq!(t, 4);
        }
        assert_eq!(ghost.gld_requests, real.gld_requests);
        assert_eq!(ghost.gld_transactions, real.gld_transactions);
        assert_eq!(ghost.gst_requests, real.gst_requests);
        assert_eq!(ghost.gst_transactions, real.gst_transactions);
        assert_eq!(ghost.local_requests, real.local_requests);
        assert_eq!(ghost.local_ld_transactions, real.local_ld_transactions);
        assert_eq!(ghost.local_st_transactions, real.local_st_transactions);
        assert_eq!(ghost.l1_hit_sectors, 0);
        assert_eq!(ghost.l2_accesses, 0);
        assert_eq!(ghost.dram_read_sectors + ghost.dram_write_sectors, 0);
        assert_eq!(
            phantom_access(&dev, &mut ghost, &a, LaneMask::NONE, false, Space::Global),
            0,
            "empty mask is a no-op"
        );
    }

    #[test]
    fn batched_replay_matches_per_event_replay() {
        // A trace heavy in same-sector runs (the batched fast path) plus
        // eviction pressure, replayed both ways against twin L2s.
        let mut trace = BlockTrace::new();
        for i in 0..64u64 {
            let sector = 0x80000 + (i % 9) * 32;
            for _ in 0..(i % 4) + 1 {
                trace.push(sector, i % 2 == 0);
            }
            trace.push(0x90000 + i * 128, false); // eviction pressure
        }

        let dev = DeviceConfig::test_tiny();
        let mut l2_fast = new_l2(&dev);
        let mut st_fast = KernelStats::default();
        replay_trace(&trace, &mut l2_fast, &mut st_fast);

        let mut l2_ref = new_l2(&dev);
        let mut st_ref = KernelStats::default();
        for (sector, is_store) in trace.iter() {
            l2_sector_access(&mut l2_ref, &mut st_ref, sector, is_store);
        }

        assert_eq!(st_fast, st_ref);
        flush_l2(&mut l2_fast, &mut st_fast);
        flush_l2(&mut l2_ref, &mut st_ref);
        assert_eq!(st_fast, st_ref, "post-flush dirty state identical");
    }
}
