//! A sectored, set-associative cache model with LRU replacement.
//!
//! Models the tag behaviour of NVIDIA L1 and L2 caches: tags are kept per
//! 128-byte *line*, but fills and transactions happen per 32-byte *sector*
//! (so a sparse access pattern does not pay for whole lines). Only tags are
//! tracked — data lives in [`super::global::GlobalMem`]; the cache exists to
//! classify each sector access as hit or miss.

/// Replacement/allocation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Allocate lines on write misses (L2: yes; L1 write-through: no).
    pub allocate_on_write: bool,
    /// Track dirty sectors and report them on eviction (write-back).
    pub write_back: bool,
}

impl CachePolicy {
    /// Turing L1: write-through, no write-allocate.
    pub fn l1() -> Self {
        CachePolicy {
            allocate_on_write: false,
            write_back: false,
        }
    }

    /// Turing L2: write-back with write-allocate.
    pub fn l2() -> Self {
        CachePolicy {
            allocate_on_write: true,
            write_back: true,
        }
    }
}

/// Outcome of a sector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Sector present.
    Hit,
    /// Line present but sector not yet filled (sector miss).
    SectorMiss,
    /// Line absent (allocates, possibly evicting).
    LineMiss,
}

/// Everything a [`SectoredCache`] is built from. Two caches built from equal
/// geometries behave identically, which is what lets a simulator keep a
/// cache across launches and only [`SectoredCache::reset`] it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheGeometry {
    /// Total capacity in bytes.
    pub(crate) capacity_bytes: usize,
    /// Associativity.
    pub(crate) ways: usize,
    /// Tag granularity in bytes (a power of two).
    pub(crate) line_bytes: usize,
    /// Fill granularity in bytes (a power of two, at most 8 per line).
    pub(crate) sector_bytes: usize,
    /// Allocation and write policy.
    pub(crate) policy: CachePolicy,
}

impl CacheGeometry {
    /// Whether the cache model can index this geometry: power-of-two line
    /// and sector sizes (offsets are shifts), 1 to 8 sectors per line (a
    /// line's sectors are a `u8` mask) and a capacity of whole sets of
    /// `ways` lines.
    pub(crate) fn check(&self) -> Result<(), String> {
        let CacheGeometry {
            capacity_bytes: bytes,
            ways,
            line_bytes: line,
            sector_bytes: sector,
            ..
        } = *self;
        if !(line.is_power_of_two() && sector.is_power_of_two()) {
            return Err(format!(
                "cache line ({line} B) and sector ({sector} B) sizes must be powers of two"
            ));
        }
        if !(sector..=sector.saturating_mul(8)).contains(&line) {
            return Err(format!(
                "a {line} B line must hold 1 to 8 sectors of {sector} B"
            ));
        }
        let whole_sets = ways
            .checked_mul(line)
            .is_some_and(|set| set > 0 && bytes >= set && bytes.is_multiple_of(set));
        if !whole_sets {
            return Err(format!(
                "bad cache geometry: {bytes} B does not divide into \
                 {ways}-way sets of {line} B lines"
            ));
        }
        Ok(())
    }
}

/// The cache model. Geometry is fixed at construction.
///
/// Tags, LRU stamps and valid/dirty sector masks live in flat arrays with
/// `ways` slots per set; slot `set·ways + i` is occupied iff `i` is below
/// the set's fill count. Lines fill a set's slots in order and an eviction
/// overwrites the victim's slot, so nothing moves and resetting the cache
/// only zeroes the fill counts.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    valid: Vec<u8>,
    dirty: Vec<u8>,
    fill: Vec<u32>,
    geometry: CacheGeometry,
    nsets: u64,
    /// `nsets − 1` when the set count is a power of two (index by mask),
    /// `None` otherwise (index by remainder).
    set_mask: Option<u64>,
    line_shift: u32,
    sector_shift: u32,
    tick: u64,
    /// Dirty sectors evicted (write-back traffic to the next level).
    pub evicted_dirty_sectors: u64,
}

impl SectoredCache {
    /// Build a cache of `capacity_bytes` with `ways`-way associativity.
    pub fn new(
        capacity_bytes: usize,
        ways: usize,
        line_bytes: usize,
        sector_bytes: usize,
        policy: CachePolicy,
    ) -> Self {
        SectoredCache::with_geometry(CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
            sector_bytes,
            policy,
        })
    }

    /// Build a cache of the given geometry (see [`SectoredCache::new`]).
    /// Panics with [`CacheGeometry::check`]'s message on a geometry the
    /// model cannot index.
    pub(crate) fn with_geometry(geometry: CacheGeometry) -> Self {
        if let Err(msg) = geometry.check() {
            panic!("{msg}");
        }
        let CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
            sector_bytes,
            ..
        } = geometry;
        let lines = capacity_bytes / line_bytes;
        let nsets = (lines / ways) as u64;
        SectoredCache {
            tags: vec![0; lines],
            stamps: vec![0; lines],
            valid: vec![0; lines],
            dirty: vec![0; lines],
            fill: vec![0; nsets as usize],
            geometry,
            nsets,
            set_mask: nsets.is_power_of_two().then(|| nsets - 1),
            line_shift: line_bytes.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            tick: 0,
            evicted_dirty_sectors: 0,
        }
    }

    /// The geometry this cache was built from.
    pub(crate) fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Return to the state of a freshly built cache of the same geometry:
    /// empty, LRU clock at zero, no write-backs counted. Costs one pass over
    /// the per-set fill counts; the tag arrays are left as they are, since
    /// slots past a set's fill count are never read.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.tick = 0;
        self.evicted_dirty_sectors = 0;
    }

    fn set_index(&self, line_addr: u64) -> usize {
        let line = line_addr >> self.line_shift;
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.nsets) as usize,
        }
    }

    /// The line holding `sector_addr` and the sector's bit in that line's
    /// valid/dirty masks.
    #[inline]
    fn line_and_bit(&self, sector_addr: u64) -> (u64, u8) {
        let line_mask = (1u64 << self.line_shift) - 1;
        debug_assert_eq!(sector_addr & ((1u64 << self.sector_shift) - 1), 0);
        (
            sector_addr & !line_mask,
            1u8 << ((sector_addr & line_mask) >> self.sector_shift),
        )
    }

    /// log2 of the line and sector sizes: sector `i` of a line starts at
    /// `line_addr | i << sector_shift`.
    #[inline]
    pub(crate) fn shifts(&self) -> (u32, u32) {
        (self.line_shift, self.sector_shift)
    }

    /// The one probe behind every access: touch the sectors `bits` of the
    /// line at `line_addr`, as `bits.count_ones()` consecutive single-sector
    /// accesses in ascending order would. The clock advances by that count
    /// and the line's stamp lands on the last tick. Only the first access
    /// can miss the line (the line is resident afterwards, unless a write
    /// does not allocate), so at most one victim is evicted, and it is the
    /// one the first access would evict: the victim depends only on the
    /// other lines' stamps. Returns whether the line was resident, the
    /// sectors that were already valid (the hits), and the slot now holding
    /// the line (`None` when a write miss did not allocate).
    fn probe(&mut self, line_addr: u64, bits: u8, is_write: bool) -> (bool, u8, Option<usize>) {
        self.tick += bits.count_ones() as u64;
        let tick = self.tick;
        let ways = self.geometry.ways;
        let set = self.set_index(line_addr);
        let base = set * ways;
        let filled = self.fill[set] as usize;
        let CachePolicy {
            allocate_on_write,
            write_back,
        } = self.geometry.policy;

        // Tags are unique within a set, so the first match is the line.
        if let Some(i) = self.tags[base..base + filled]
            .iter()
            .position(|&t| t == line_addr)
        {
            let slot = base + i;
            self.stamps[slot] = tick;
            if is_write && write_back {
                self.dirty[slot] |= bits;
            }
            let hits = self.valid[slot] & bits;
            self.valid[slot] |= bits;
            return (true, hits, Some(slot));
        }

        // Line miss.
        if is_write && !allocate_on_write {
            return (false, 0, None);
        }
        let slot = if filled == ways {
            // Evict the LRU line in place. Stamps are distinct ticks, so the
            // minimum names one line whatever the slot order.
            let stamps = &self.stamps[base..base + ways];
            let lru = (0..ways)
                .min_by_key(|&i| stamps[i])
                .expect("a full set has ways >= 1 lines");
            let victim = base + lru;
            self.evicted_dirty_sectors += self.dirty[victim].count_ones() as u64;
            victim
        } else {
            self.fill[set] += 1;
            base + filled
        };
        self.tags[slot] = line_addr;
        self.valid[slot] = bits;
        self.dirty[slot] = if is_write && write_back { bits } else { 0 };
        self.stamps[slot] = tick;
        (false, 0, Some(slot))
    }

    /// One access; returns its classification and the slot now holding the
    /// sector's line, `None` when a write miss did not allocate.
    fn access_slot(&mut self, sector_addr: u64, is_write: bool) -> (Access, Option<usize>) {
        let (line_addr, bit) = self.line_and_bit(sector_addr);
        let (line_hit, hits, slot) = self.probe(line_addr, bit, is_write);
        let access = if hits != 0 {
            Access::Hit
        } else if line_hit {
            Access::SectorMiss
        } else {
            Access::LineMiss
        };
        (access, slot)
    }

    /// Access the sectors `sector_bits` of the line at `line_addr` (bit `i`
    /// is the line's sector `i`) in one probe. Equivalent to one
    /// [`SectoredCache::access`] per set bit in ascending order: the clock
    /// advances by the number of sectors and the line's stamp lands on the
    /// last tick, a line miss evicts the same LRU victim, and the valid and
    /// dirty masks gain the same bits. Returns the sectors that access would
    /// have classified as [`Access::Hit`].
    #[inline]
    pub fn access_line(&mut self, line_addr: u64, sector_bits: u8, is_write: bool) -> u8 {
        debug_assert_eq!(line_addr & ((1u64 << self.line_shift) - 1), 0);
        if sector_bits == 0 {
            return 0;
        }
        self.probe(line_addr, sector_bits, is_write).1
    }

    /// Access one sector (its 32-byte-aligned base address). Returns the
    /// hit/miss classification; the cache state is updated accordingly.
    pub fn access(&mut self, sector_addr: u64, is_write: bool) -> Access {
        self.access_slot(sector_addr, is_write).0
    }

    /// Access the same sector `n` times in a row, equivalent to calling
    /// [`SectoredCache::access`] `n` times but consuming the run in one
    /// probe. Returns the classification of the *first* access; the
    /// remaining `n - 1` are hits by construction whenever the first access
    /// left the sector resident (after any access under write-allocate, or
    /// any load), because nothing else touches the cache in between: the
    /// tick advances by `n` and the line's stamp lands on the final tick,
    /// exactly as the per-event loop would leave it. Under
    /// no-write-allocate a write run that misses stays missing, so the
    /// remaining events replay individually.
    pub fn access_run(&mut self, sector_addr: u64, is_write: bool, n: u64) -> Access {
        let (first, slot) = self.access_slot(sector_addr, is_write);
        if n <= 1 {
            return first;
        }
        match slot {
            Some(slot) => {
                self.tick += n - 1;
                self.stamps[slot] = self.tick;
            }
            None => {
                // Only reachable for write runs under no-write-allocate
                // (unused by L2 replay, but keeps the API policy-honest).
                for _ in 1..n {
                    self.access(sector_addr, is_write);
                }
            }
        }
        first
    }

    /// Slots currently holding a line.
    fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
        let ways = self.geometry.ways;
        self.fill
            .iter()
            .enumerate()
            .flat_map(move |(set, &n)| set * ways..set * ways + n as usize)
    }

    /// Flush every dirty sector, accumulating into
    /// [`SectoredCache::evicted_dirty_sectors`], and invalidate the cache.
    pub fn flush(&mut self) {
        let dirty: u64 = self
            .occupied()
            .map(|slot| self.dirty[slot].count_ones() as u64)
            .sum();
        self.evicted_dirty_sectors += dirty;
        self.fill.fill(0);
    }

    /// Number of currently valid sectors (test introspection).
    pub fn resident_sectors(&self) -> u64 {
        self.occupied()
            .map(|slot| self.valid[slot].count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2_1kib() -> SectoredCache {
        // 1 KiB, 2-way, 128 B lines, 32 B sectors → 4 sets.
        SectoredCache::new(1024, 2, 128, 32, CachePolicy::l2())
    }

    #[test]
    fn second_access_hits() {
        let mut c = l2_1kib();
        assert_eq!(c.access(0x1000, false), Access::LineMiss);
        assert_eq!(c.access(0x1000, false), Access::Hit);
    }

    #[test]
    fn sector_miss_within_resident_line() {
        let mut c = l2_1kib();
        assert_eq!(c.access(0x1000, false), Access::LineMiss);
        // same 128 B line, different sector
        assert_eq!(c.access(0x1020, false), Access::SectorMiss);
        assert_eq!(c.access(0x1020, false), Access::Hit);
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut c = l2_1kib();
        // 4 sets → line addresses 512 B apart map to the same set.
        let stride = 4 * 128;
        c.access(0x0, false);
        c.access(stride, false); // set full (2 ways)
        c.access(0x0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride` (LRU)
        assert_eq!(c.access(0x0, false), Access::Hit);
        assert_eq!(c.access(stride, false), Access::LineMiss);
    }

    #[test]
    fn writeback_counts_dirty_sector_evictions() {
        let mut c = l2_1kib();
        let stride = 4 * 128u64;
        c.access(0x0, true); // dirty sector
        c.access(0x20, true); // second dirty sector, same line
        c.access(stride, false);
        c.access(2 * stride, false); // evicts line 0 with 2 dirty sectors
        assert_eq!(c.evicted_dirty_sectors, 2);
    }

    #[test]
    fn flush_reports_all_dirty() {
        let mut c = l2_1kib();
        c.access(0x0, true);
        c.access(0x100, true);
        c.flush();
        assert_eq!(c.evicted_dirty_sectors, 2);
        assert_eq!(c.resident_sectors(), 0);
    }

    #[test]
    fn l1_write_through_does_not_allocate_on_write() {
        let mut c = SectoredCache::new(1024, 2, 128, 32, CachePolicy::l1());
        assert_eq!(c.access(0x0, true), Access::LineMiss);
        // still not resident
        assert_eq!(c.access(0x0, false), Access::LineMiss);
        // but a write to a resident line updates it and hits
        assert_eq!(c.access(0x0, true), Access::Hit);
        assert_eq!(c.evicted_dirty_sectors, 0);
        c.flush();
        assert_eq!(c.evicted_dirty_sectors, 0);
    }

    #[test]
    fn capacity_bounds_resident_sectors() {
        let mut c = l2_1kib();
        for i in 0..1000u64 {
            c.access(i * 32, false);
        }
        assert!(c.resident_sectors() <= 1024 / 32);
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn rejects_impossible_geometry() {
        SectoredCache::new(100, 3, 128, 32, CachePolicy::l1());
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_non_power_of_two_lines() {
        SectoredCache::new(4 * 96, 2, 96, 48, CachePolicy::l1());
    }

    #[test]
    #[should_panic(expected = "bad cache geometry")]
    fn rejects_capacity_of_partial_lines() {
        // 16½ lines: a launch rejects this L1, so the constructor must too.
        SectoredCache::new(2 * 1024 + 64, 2, 128, 32, CachePolicy::l1());
    }

    #[test]
    #[should_panic(expected = "1 to 8 sectors")]
    fn rejects_more_than_eight_sectors_per_line() {
        SectoredCache::new(1024, 2, 512, 32, CachePolicy::l1());
    }

    #[test]
    fn reset_forgets_lines_clock_and_write_backs() {
        let mut c = l2_1kib();
        let stride = 4 * 128;
        for i in 0..6 {
            c.access(i * stride, true);
        }
        assert!(c.evicted_dirty_sectors > 0);
        c.reset();
        assert_eq!(
            (c.tick, c.evicted_dirty_sectors, c.resident_sectors()),
            (0, 0, 0)
        );
        assert_eq!(c.access(0, false), Access::LineMiss);
    }

    #[test]
    fn access_line_matches_one_access_per_sector() {
        // Two lines per set contend, so the line probes hit, sector-miss,
        // line-miss and evict (dirty lines included) under both policies.
        let ops = [
            (0x0u64, 0b0101u8, false),
            (4 * 128, 0b1111, true),
            (0x0, 0b0111, true),
            (8 * 128, 0b1000, false),
            (4 * 128, 0b0001, false),
            (12 * 128, 0b0110, true),
            (0x0, 0b1001, false),
        ];
        for policy in [CachePolicy::l2(), CachePolicy::l1()] {
            let mut line = SectoredCache::new(1024, 2, 128, 32, policy);
            let mut slow = SectoredCache::new(1024, 2, 128, 32, policy);
            for &(addr, bits, w) in &ops {
                let hits = line.access_line(addr, bits, w);
                let mut want = 0u8;
                for i in 0..4 {
                    if bits & 1 << i != 0 && slow.access(addr + i * 32, w) == Access::Hit {
                        want |= 1 << i;
                    }
                }
                assert_eq!(hits, want, "{addr:#x} {bits:#06b} {w}");
                assert_eq!(line.tick, slow.tick);
                // Stamps land on the last tick, as the last access leaves
                // them. A first-tick stamp would order lines the same way,
                // so only the state itself tells the two apart.
                let stamps = |c: &SectoredCache| {
                    c.occupied()
                        .map(|slot| (c.tags[slot], c.stamps[slot]))
                        .collect::<Vec<_>>()
                };
                assert_eq!(stamps(&line), stamps(&slow));
                assert_eq!(line.evicted_dirty_sectors, slow.evicted_dirty_sectors);
                assert_eq!(line.resident_sectors(), slow.resident_sectors());
            }
            assert_eq!(line.access_line(0x0, 0, false), 0, "no sectors, no access");
            assert_eq!(line.tick, slow.tick);
            line.flush();
            slow.flush();
            assert_eq!(line.evicted_dirty_sectors, slow.evicted_dirty_sectors);
        }
    }

    #[test]
    fn access_run_matches_per_event_loop() {
        // Interleave runs with competing lines so LRU stamps matter, and
        // compare against the reference per-event loop on a twin cache.
        let ops = [
            (0x0u64, false, 4u64),
            (4 * 128, true, 3),
            (0x0, true, 1),
            (8 * 128, false, 5),
            (0x20, true, 2),
            (4 * 128, false, 1),
            (12 * 128, false, 2), // forces an eviction decision
        ];
        for policy in [CachePolicy::l2(), CachePolicy::l1()] {
            let mut fast = SectoredCache::new(1024, 2, 128, 32, policy);
            let mut slow = SectoredCache::new(1024, 2, 128, 32, policy);
            for &(addr, w, n) in &ops {
                let a = fast.access_run(addr, w, n);
                let mut b = None;
                for _ in 0..n {
                    let r = slow.access(addr, w);
                    b.get_or_insert(r);
                }
                assert_eq!(Some(a), b);
                assert_eq!(fast.evicted_dirty_sectors, slow.evicted_dirty_sectors);
                assert_eq!(fast.resident_sectors(), slow.resident_sectors());
                assert_eq!(fast.tick, slow.tick);
            }
            fast.flush();
            slow.flush();
            assert_eq!(fast.evicted_dirty_sectors, slow.evicted_dirty_sectors);
        }
    }
}
