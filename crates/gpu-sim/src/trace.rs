//! Per-block execution artifacts for the parallel launch engine.
//!
//! In [`crate::exec::LaunchMode::Parallel`] a launch runs in two phases:
//!
//! 1. **Functional phase (parallel):** every selected block executes against
//!    a read-only view of global memory plus a private [`StoreBuffer`], with
//!    a fresh per-block L1. The ordered stream of sectors the block would
//!    send to the L2 (L1 load misses, plus every store sector — L1 is
//!    write-through) is recorded in a compact [`BlockTrace`].
//! 2. **Replay phase (sequential):** traces are replayed through the single
//!    launch-wide L2 in block-linear order and store buffers are applied to
//!    global memory in the same order.
//!
//! Because the per-block L1 never depends on L2 state, and the L2's state
//! and counters depend only on the ordered sector stream it receives, the
//! replay reconstructs *bit-identical* [`crate::stats::KernelStats`] to the
//! sequential engine — see `DESIGN.md` §4.
//!
//! Both artifacts are built for recycling: [`BlockTrace::clear`] and
//! [`StoreBuffer::apply_and_clear`] drain contents but keep every
//! allocation, so the engine's per-worker scratch pool amortizes trace and
//! page-table memory across blocks *and* launches.

use crate::memory::global::{read_oob, write_oob, BufId, GlobalMem};
use crate::memory::LaneRun;

/// Sector granularity of the trace encoding: addresses are recorded in
/// 32-byte units (the hardware sector size every device model uses), which
/// is what makes warp-local deltas fit in one or two varint bytes.
const SECTOR_SHIFT: u32 = 5;

/// One block's ordered stream of L2-bound sector events.
///
/// Events are delta/varint encoded into a byte arena: each event stores
/// `zigzag(Δ sector) · 2 + is_store` as an LEB128 varint, where `Δ sector`
/// is the signed difference to the previous event's address in 32-byte
/// sector units. Consecutive sectors of a coalesced warp access encode as
/// one byte, and a repeat of the same sector (the dominant pattern in
/// store-heavy blocks) encodes as one byte *and* decodes into a run — the
/// shape [`crate::memory::hierarchy::replay_trace`] batches. Typical
/// streams cost ~1 byte/event against the 8 bytes/event of the previous
/// `Vec<u64>` encoding.
#[derive(Debug, Clone, Default)]
pub struct BlockTrace {
    bytes: Vec<u8>,
    len: usize,
    /// Previous event's sector address in 32-byte units (delta baseline).
    last_unit: u64,
}

impl BlockTrace {
    /// An empty trace.
    pub fn new() -> Self {
        BlockTrace::default()
    }

    /// Append one sector event. `sector_addr` must be 32-byte aligned (the
    /// coalescer only produces aligned sector bases).
    #[inline]
    pub fn push(&mut self, sector_addr: u64, is_store: bool) {
        debug_assert_eq!(
            sector_addr & ((1 << SECTOR_SHIFT) - 1),
            0,
            "sector addresses are 32-byte aligned"
        );
        let unit = sector_addr >> SECTOR_SHIFT;
        let delta = unit.wrapping_sub(self.last_unit) as i64;
        self.last_unit = unit;
        let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        let mut code = zigzag << 1 | is_store as u64;
        // LEB128: 7 payload bits per byte, high bit = continuation.
        while code >= 0x80 {
            self.bytes.push((code as u8) | 0x80);
            code >>= 7;
        }
        self.bytes.push(code as u8);
        self.len += 1;
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded event stream in bytes (capacity diagnostics; the
    /// compression claim `encoded_bytes ≤ 4·len` for warp-coalesced streams
    /// is pinned by test).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Drop all events but keep the byte arena, so a recycled trace records
    /// its next block without reallocating.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
        self.last_unit = 0;
    }

    /// Iterate events as `(sector_addr, is_store)` in record order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let mut pos = 0usize;
        let mut unit = 0u64;
        let mut remaining = self.len;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            let mut code = 0u64;
            let mut shift = 0u32;
            loop {
                let b = self.bytes[pos];
                pos += 1;
                code |= ((b & 0x7f) as u64) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            let is_store = code & 1 != 0;
            let zigzag = code >> 1;
            let delta = ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64);
            unit = unit.wrapping_add(delta as u64);
            Some((unit << SECTOR_SHIFT, is_store))
        })
    }

    /// Iterate maximal runs of identical events as
    /// `(sector_addr, is_store, count)` in record order. Same-sector
    /// repeats are the fast path of batched replay: after the first access
    /// the sector is resident, so the cache can consume the whole run in
    /// one probe.
    pub fn runs(&self) -> impl Iterator<Item = (u64, bool, u64)> + '_ {
        let mut inner = self.iter();
        let mut pending: Option<(u64, bool)> = None;
        std::iter::from_fn(move || {
            let (addr, store) = match pending.take().or_else(|| inner.next()) {
                Some(ev) => ev,
                None => return None,
            };
            let mut count = 1u64;
            for ev in inner.by_ref() {
                if ev == (addr, store) {
                    count += 1;
                } else {
                    pending = Some(ev);
                    break;
                }
            }
            Some((addr, store, count))
        })
    }
}

/// Words per store-buffer page. Output stores are typically dense and
/// sequential, so page granularity amortizes the table lookups; 128 words
/// (512 B) keeps sparse writers cheap too.
const PAGE_WORDS: usize = 128;

/// Empty-slot sentinel in a page table's open-addressed index.
const EMPTY_SLOT: u32 = u32::MAX;

/// Multiplicative (Fibonacci) hash constant for page keys.
const HASH_MUL: u32 = 0x9E37_79B9;

#[derive(Debug, Clone)]
struct Page {
    /// Bit `i` set ⇔ word `i` of this page has been written.
    written: u128,
    vals: [f32; PAGE_WORDS],
}

impl Page {
    fn new() -> Page {
        Page {
            written: 0,
            vals: [0.0; PAGE_WORDS],
        }
    }
}

/// Per-buffer page index: a flat open-addressed table (linear probing over
/// a power-of-two slot array) mapping page keys to a dense, insertion-
/// ordered page arena. Replaces the previous `BTreeMap<u32, Box<Page>>` —
/// the write path is one multiply + probe instead of a pointer-chasing
/// tree descent, and `clear` retains all capacity for recycling.
#[derive(Debug, Clone, Default)]
struct PageTable {
    /// `EMPTY_SLOT` or an index into `keys`/`pages`. Lazily sized on first
    /// write; always a power of two.
    slots: Vec<u32>,
    /// Page key (`idx / PAGE_WORDS`) of each dense page.
    keys: Vec<u32>,
    /// Dense page arena in insertion order.
    pages: Vec<Page>,
    /// One-entry memo of the last page written (dense index), which serves
    /// the dense sequential stores convolution outputs produce without
    /// re-probing.
    memo_key: u32,
    memo_dense: u32,
}

impl PageTable {
    /// Dense index of `key`'s page, if present. Pure probe (no memo
    /// update), usable from shared references on the read path.
    #[inline]
    fn find(&self, key: u32) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(HASH_MUL) as usize) & mask;
        loop {
            match self.slots[i] {
                EMPTY_SLOT => return None,
                d if self.keys[d as usize] == key => return Some(d as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Dense index of `key`'s page, inserting an empty page if absent.
    /// `initial_slots` sizes the table on first use (footprint hint).
    fn find_or_insert(&mut self, key: u32, initial_slots: usize) -> usize {
        if self.memo_key == key && !self.pages.is_empty() {
            return self.memo_dense as usize;
        }
        if self.slots.is_empty() {
            self.slots = vec![EMPTY_SLOT; initial_slots.next_power_of_two().max(4)];
        } else if (self.keys.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(HASH_MUL) as usize) & mask;
        let dense = loop {
            match self.slots[i] {
                EMPTY_SLOT => {
                    let dense = self.pages.len() as u32;
                    self.slots[i] = dense;
                    self.keys.push(key);
                    self.pages.push(Page::new());
                    break dense;
                }
                d if self.keys[d as usize] == key => break d,
                _ => i = (i + 1) & mask,
            }
        };
        self.memo_key = key;
        self.memo_dense = dense;
        dense as usize
    }

    /// Double the slot array and rehash from the dense key list. Dense
    /// indices are stable across growth, so memos stay valid.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, EMPTY_SLOT);
        let mask = new_len - 1;
        for (dense, &key) in self.keys.iter().enumerate() {
            let mut i = (key.wrapping_mul(HASH_MUL) as usize) & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = dense as u32;
        }
    }

    /// Drain all pages but keep the slot array and arena capacity.
    fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.keys.clear();
        self.pages.clear();
        self.memo_key = u32::MAX;
        self.memo_dense = 0;
    }
}

/// A block-private overlay of pending global-memory stores.
///
/// Gives the owning block read-your-writes semantics during the functional
/// phase while leaving the shared [`GlobalMem`] untouched; the launch engine
/// applies buffers in block-linear order afterwards, reproducing the
/// sequential engine's last-writer-wins outcome for any inter-block write
/// overlap (which CUDA leaves undefined within a launch anyway).
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    /// Indexed by `BufId`; a table stays empty until its buffer receives a
    /// store.
    bufs: Vec<PageTable>,
    /// Slot count for newly initialized page tables, derived from the
    /// launch's output footprint by [`StoreBuffer::with_footprint_hint`].
    initial_slots: usize,
}

impl Default for StoreBuffer {
    fn default() -> Self {
        StoreBuffer {
            bufs: Vec::new(),
            initial_slots: 16,
        }
    }
}

impl StoreBuffer {
    /// An empty overlay.
    pub fn new() -> Self {
        StoreBuffer::default()
    }

    /// An empty overlay whose page tables are pre-sized for roughly `words`
    /// buffered words per buffer, so the common dense-output block never
    /// rehashes. Recycled buffers keep whatever size their last block
    /// actually needed, which supersedes the hint.
    pub fn with_footprint_hint(words: usize) -> Self {
        let pages = words.div_ceil(PAGE_WORDS);
        StoreBuffer {
            bufs: Vec::new(),
            // ×8/7 headroom over the load-factor bound, clamped so absurd
            // hints cannot make empty tables expensive.
            initial_slots: (pages * 8 / 7 + 1).next_power_of_two().clamp(16, 4096),
        }
    }

    /// `true` when no store has been buffered.
    pub fn is_empty(&self) -> bool {
        self.bufs.iter().all(|t| t.keys.is_empty())
    }

    /// Buffer a store of element `idx` of `buf`. The caller is responsible
    /// for bounds-checking against the base memory first.
    #[inline]
    pub fn write(&mut self, buf: BufId, idx: u32, v: f32) {
        if self.bufs.len() <= buf.0 {
            self.bufs.resize_with(buf.0 + 1, PageTable::default);
        }
        let initial = self.initial_slots;
        let table = &mut self.bufs[buf.0];
        let dense = table.find_or_insert(idx / PAGE_WORDS as u32, initial);
        let page = &mut table.pages[dense];
        let off = idx as usize % PAGE_WORDS;
        page.written |= 1u128 << off;
        page.vals[off] = v;
    }

    /// The buffered value of element `idx` of `buf`, if it has been written.
    #[inline]
    pub fn read(&self, buf: BufId, idx: u32) -> Option<f32> {
        let table = self.bufs.get(buf.0)?;
        let page = &table.pages[table.find(idx / PAGE_WORDS as u32)?];
        let off = idx as usize % PAGE_WORDS;
        if page.written & (1u128 << off) != 0 {
            Some(page.vals[off])
        } else {
            None
        }
    }

    /// Apply every buffered store to `mem` and drain the buffer, keeping
    /// its allocations for reuse. Pages write as contiguous word *runs*
    /// (`copy_from_slice`) instead of per-word bit scans; a fully written
    /// page is one 512 B memcpy. Within one buffer the writes are disjoint
    /// by construction, so application order inside a block is irrelevant;
    /// *across* blocks the engine calls this in block-linear order.
    pub fn apply_and_clear(&mut self, mem: &mut GlobalMem) {
        for (buf_idx, table) in self.bufs.iter_mut().enumerate() {
            if table.keys.is_empty() {
                continue;
            }
            let data = mem.buf_data_mut(BufId(buf_idx));
            for (&key, page) in table.keys.iter().zip(&table.pages) {
                let base = key as usize * PAGE_WORDS;
                if page.written == u128::MAX {
                    // Bounds-checked at write time: a full mask implies all
                    // 128 words are inside the allocation.
                    data[base..base + PAGE_WORDS].copy_from_slice(&page.vals);
                    continue;
                }
                let mut bits = page.written;
                while bits != 0 {
                    let start = bits.trailing_zeros() as usize;
                    let run = (bits >> start).trailing_ones() as usize;
                    data[base + start..base + start + run]
                        .copy_from_slice(&page.vals[start..start + run]);
                    if start + run >= PAGE_WORDS {
                        break;
                    }
                    bits &= !(((1u128 << run) - 1) << start);
                }
            }
            table.clear();
        }
    }

    /// Consuming [`StoreBuffer::apply_and_clear`] — the non-recycling entry
    /// point tests and one-shot callers use.
    pub fn apply(mut self, mem: &mut GlobalMem) {
        self.apply_and_clear(mem);
    }
}

/// `dst.copy_from_slice(src)` for the few elements of a lane run or a
/// filter row, as fixed-size moves of 32 elements, then of 16, 8, 4, 2 and
/// 1: a copy of variable length is a libc `memcpy` call, which costs more
/// than copying a few elements.
#[inline]
pub(crate) fn copy_short(dst: &mut [f32], src: &[f32]) {
    #[inline(always)]
    fn part<const C: usize>(dst: &mut [f32], src: &[f32], at: &mut usize) {
        if src.len() & C != 0 {
            dst[*at..*at + C].copy_from_slice(&src[*at..*at + C]);
            *at += C;
        }
    }
    assert_eq!(dst.len(), src.len(), "copy_short needs equal lengths");
    let mut at = 0;
    while src.len() - at >= 32 {
        dst[at..at + 32].copy_from_slice(&src[at..at + 32]);
        at += 32;
    }
    part::<16>(dst, src, &mut at);
    part::<8>(dst, src, &mut at);
    part::<4>(dst, src, &mut at);
    part::<2>(dst, src, &mut at);
    part::<1>(dst, src, &mut at);
}

/// How a block sees global memory during execution.
///
/// The sequential engine mutates [`GlobalMem`] directly; the parallel
/// functional phase reads a shared snapshot and buffers its stores.
///
/// The warp-level entry points ([`GlobalView::fill_addrs`],
/// [`GlobalView::read_lanes`], [`GlobalView::write_lanes`]) dispatch on the
/// view variant **once per warp access** and run monomorphic per-lane
/// loops, keeping the enum match off the per-element hot path.
#[derive(Debug)]
pub(crate) enum GlobalView<'a> {
    /// Exclusive, direct access (sequential engine).
    Direct(&'a mut GlobalMem),
    /// Shared snapshot plus a block-private store overlay (parallel phase 1).
    Overlay {
        /// The launch-wide memory snapshot.
        base: &'a GlobalMem,
        /// This block's pending stores.
        store: StoreBuffer,
    },
}

impl GlobalView<'_> {
    /// Element count of buffer `id` (for the analyzer's bounds pass; both
    /// views delegate to the underlying allocation).
    #[inline]
    pub(crate) fn len(&self, id: BufId) -> usize {
        match self {
            GlobalView::Direct(mem) => mem.len(id),
            GlobalView::Overlay { base, .. } => base.len(id),
        }
    }

    /// Base byte address of buffer `id`.
    #[inline]
    pub(crate) fn buf_base(&self, id: BufId) -> u64 {
        match self {
            GlobalView::Direct(mem) => mem.buf_base(id),
            GlobalView::Overlay { base, .. } => base.buf_base(id),
        }
    }

    /// Fill `addrs` with the byte addresses of the active lanes' elements.
    /// The buffer base is resolved once for the whole warp.
    #[inline]
    pub(crate) fn fill_addrs(
        &self,
        id: BufId,
        idx: &crate::lane::VU,
        mask: crate::lane::LaneMask,
        addrs: &mut [u64; crate::lane::WARP],
    ) {
        let base = self.buf_base(id);
        for l in mask.lanes() {
            addrs[l] = base + idx.lane(l) as u64 * 4;
        }
    }

    /// Warp-batched element read: active lanes read their element (overlay-
    /// first under [`GlobalView::Overlay`], so a block observes its own
    /// pending stores exactly as the sequential engine would), inactive
    /// lanes produce 0.0. Bounds failures panic with byte-identical
    /// diagnostics to [`GlobalMem::read_elem`].
    pub(crate) fn read_lanes(
        &self,
        id: BufId,
        idx: &crate::lane::VU,
        mask: crate::lane::LaneMask,
    ) -> crate::lane::VF {
        use crate::lane::VF;
        let read = |data: &[f32], i: u32| match data.get(i as usize) {
            Some(&v) => v,
            None => read_oob(id, data.len(), i),
        };
        match self {
            GlobalView::Direct(mem) => {
                let data = mem.download(id);
                VF::from_fn(|l| {
                    if mask.get(l) {
                        read(data, idx.lane(l))
                    } else {
                        0.0
                    }
                })
            }
            GlobalView::Overlay { base, store } => {
                let data = base.download(id);
                let table = store.bufs.get(id.0).filter(|t| !t.keys.is_empty());
                // One-entry page memo across lanes: consecutive lanes of a
                // warp overwhelmingly read the same 128-word page.
                let mut memo: Option<(u32, &Page)> = None;
                VF::from_fn(|l| {
                    if !mask.get(l) {
                        return 0.0;
                    }
                    let i = idx.lane(l);
                    if let Some(t) = table {
                        let key = i / PAGE_WORDS as u32;
                        let page = match memo {
                            Some((k, p)) if k == key => Some(p),
                            _ => {
                                let p = t.find(key).map(|d| &t.pages[d]);
                                if let Some(p) = p {
                                    memo = Some((key, p));
                                }
                                p
                            }
                        };
                        if let Some(p) = page {
                            let off = i as usize % PAGE_WORDS;
                            if p.written & (1u128 << off) != 0 {
                                return p.vals[off];
                            }
                        }
                    }
                    read(data, i)
                })
            }
        }
    }

    /// [`GlobalView::read_lanes`] for a lane run: in the
    /// [`GlobalView::Direct`] view an in-bounds run is one bounds check and
    /// one copy ([`copy_short`]). The overlay view, and a run that leaves
    /// its buffer, read lane by lane, so values and panic text are
    /// unchanged.
    #[inline]
    pub(crate) fn read_run(&self, id: BufId, run: LaneRun) -> crate::lane::VF {
        use crate::lane::{LaneMask, LaneVec, VU, WARP};
        if let Some(src) = self.direct_row(id, run.start, run.n) {
            let mut out = [0.0; WARP];
            copy_short(&mut out[run.lo..run.lo + run.n], src);
            return LaneVec(out);
        }
        let idx = VU::lane_id() + run.start.wrapping_sub(run.lo as u32);
        self.read_lanes(id, &idx, LaneMask::span(run.lo, run.n))
    }

    /// Elements `start..start + n` of buffer `id`, when the view is
    /// [`GlobalView::Direct`] and they lie inside the buffer: the one
    /// bounds check of a run or row read. `None` in the overlay view, whose
    /// reads must see the block's pending stores first.
    #[inline]
    pub(crate) fn direct_row(&self, id: BufId, start: u32, n: usize) -> Option<&[f32]> {
        match self {
            GlobalView::Direct(mem) => {
                let start = start as usize;
                mem.download(id).get(start..start + n)
            }
            GlobalView::Overlay { .. } => None,
        }
    }

    /// [`GlobalView::write_lanes`] for a lane run, with the same fast path
    /// and fallbacks as [`GlobalView::read_run`]. A run's elements are
    /// distinct, so the lowest-lane-wins order does not arise.
    #[inline]
    pub(crate) fn write_run(
        &mut self,
        id: BufId,
        idx: &crate::lane::VU,
        val: &crate::lane::VF,
        mask: crate::lane::LaneMask,
        run: LaneRun,
    ) {
        if let GlobalView::Direct(mem) = self {
            let start = run.start as usize;
            if start + run.n <= mem.len(id) {
                mem.buf_data_mut(id)[start..start + run.n]
                    .copy_from_slice(&val.0[run.lo..run.lo + run.n]);
                return;
            }
        }
        self.write_lanes(id, idx, val, mask)
    }

    /// Warp-batched element write in descending lane order, so two active
    /// lanes writing the same element resolve to the lowest lane exactly as
    /// the per-element path did. Bounds failures panic with byte-identical
    /// diagnostics to [`GlobalMem::write_elem`].
    pub(crate) fn write_lanes(
        &mut self,
        id: BufId,
        idx: &crate::lane::VU,
        val: &crate::lane::VF,
        mask: crate::lane::LaneMask,
    ) {
        use crate::lane::WARP;
        match self {
            GlobalView::Direct(mem) => {
                let data = mem.buf_data_mut(id);
                let len = data.len();
                for l in (0..WARP).rev() {
                    if !mask.get(l) {
                        continue;
                    }
                    let i = idx.lane(l);
                    match data.get_mut(i as usize) {
                        Some(slot) => *slot = val.lane(l),
                        None => write_oob(id, len, i),
                    }
                }
            }
            GlobalView::Overlay { base, store } => {
                let len = base.len(id);
                for l in (0..WARP).rev() {
                    if !mask.get(l) {
                        continue;
                    }
                    let i = idx.lane(l);
                    if i as usize >= len {
                        write_oob(id, len, i);
                    }
                    store.write(id, i, val.lane(l));
                }
            }
        }
    }

    /// Device-side element read — overlay-first, like
    /// [`GlobalView::read_lanes`], for uniform single-element paths
    /// (constant loads).
    #[inline]
    pub(crate) fn read_elem(&self, id: BufId, idx: u32) -> f32 {
        match self {
            GlobalView::Direct(mem) => mem.read_elem(id, idx),
            GlobalView::Overlay { base, store } => match store.read(id, idx) {
                Some(v) => v,
                // Bounds-checked read with the same OOB diagnostics as the
                // sequential path.
                None => base.read_elem(id, idx),
            },
        }
    }

    /// Device-side element write (bounds-checked identically to
    /// [`GlobalMem::write_elem`], including the panic message).
    #[inline]
    #[cfg(test)]
    pub(crate) fn write_elem(&mut self, id: BufId, idx: u32, v: f32) {
        match self {
            GlobalView::Direct(mem) => mem.write_elem(id, idx, v),
            GlobalView::Overlay { base, store } => {
                base.assert_write_in_bounds(id, idx);
                store.write(id, idx, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrips_events_in_order() {
        let mut t = BlockTrace::new();
        t.push(0x1000, false);
        t.push(0x1020, true);
        t.push(0x40, false);
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, vec![(0x1000, false), (0x1020, true), (0x40, false)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn trace_runs_merge_consecutive_identical_events() {
        let mut t = BlockTrace::new();
        for _ in 0..3 {
            t.push(0x1000, true);
        }
        t.push(0x1000, false);
        t.push(0x1020, false);
        t.push(0x1020, false);
        let runs: Vec<_> = t.runs().collect();
        assert_eq!(
            runs,
            vec![(0x1000, true, 3), (0x1000, false, 1), (0x1020, false, 2)]
        );
        // Expanding runs reproduces the raw event stream.
        let expanded: Vec<_> = t
            .runs()
            .flat_map(|(a, s, n)| std::iter::repeat_n((a, s), n as usize))
            .collect();
        assert_eq!(expanded, t.iter().collect::<Vec<_>>());
    }

    #[test]
    fn trace_clear_retains_capacity() {
        let mut t = BlockTrace::new();
        for i in 0..1000u64 {
            t.push((1 << 32) + i * 32, i % 2 == 0);
        }
        let cap = t.bytes.capacity();
        assert!(cap > 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.encoded_bytes(), 0);
        assert_eq!(t.bytes.capacity(), cap, "arena kept for recycling");
        t.push(0x2000, true);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0x2000, true)]);
    }

    #[test]
    fn compact_encoding_beats_u64_events_by_2x() {
        // A realistic mixed stream: coalesced loads walking forward,
        // interleaved with same-sector store repeats — addresses up in the
        // real global arena (base 1 << 32), as the engine records them.
        let mut t = BlockTrace::new();
        for i in 0..4096u64 {
            let sector = (1 << 32) + (i % 512) * 32;
            t.push(sector, false);
            t.push(sector, true);
        }
        let compact = t.encoded_bytes();
        let vec_u64 = t.len() * std::mem::size_of::<u64>();
        assert!(
            compact * 2 <= vec_u64,
            "bytes/event must drop >= 2x: {compact} vs {vec_u64}"
        );
    }

    #[test]
    fn store_buffer_read_your_writes() {
        let mut sb = StoreBuffer::new();
        let id = BufId(2);
        assert_eq!(sb.read(id, 7), None);
        sb.write(id, 7, 1.5);
        sb.write(id, 7, 2.5); // overwrite: last write wins
        sb.write(id, 1000, 9.0); // different page
        assert_eq!(sb.read(id, 7), Some(2.5));
        assert_eq!(sb.read(id, 1000), Some(9.0));
        assert_eq!(sb.read(id, 8), None);
        assert_eq!(sb.read(BufId(0), 7), None);
    }

    #[test]
    fn store_buffer_survives_table_growth() {
        // Enough distinct pages to force several slot-array doublings.
        let mut sb = StoreBuffer::new();
        let id = BufId(0);
        for p in 0..300u32 {
            sb.write(id, p * PAGE_WORDS as u32, p as f32);
        }
        for p in 0..300u32 {
            assert_eq!(sb.read(id, p * PAGE_WORDS as u32), Some(p as f32));
            assert_eq!(sb.read(id, p * PAGE_WORDS as u32 + 1), None);
        }
    }

    #[test]
    fn apply_writes_only_touched_words() {
        let mut mem = GlobalMem::new();
        let a = mem.upload(&[1.0; 300]);
        let b = mem.upload(&[2.0; 10]);
        let mut sb = StoreBuffer::new();
        sb.write(a, 0, 10.0);
        sb.write(a, 127, 11.0); // last word of page 0
        sb.write(a, 128, 12.0); // first word of page 1
        sb.write(a, 299, 13.0);
        sb.apply(&mut mem);
        let data = mem.download(a);
        assert_eq!(data[0], 10.0);
        assert_eq!(data[1], 1.0);
        assert_eq!(data[127], 11.0);
        assert_eq!(data[128], 12.0);
        assert_eq!(data[298], 1.0);
        assert_eq!(data[299], 13.0);
        assert_eq!(mem.download(b), &[2.0; 10]);
    }

    #[test]
    fn apply_and_clear_recycles_for_the_next_block() {
        let mut mem = GlobalMem::new();
        let a = mem.upload(&[0.0; 256]);
        let mut sb = StoreBuffer::new();
        // Dense full page (one-memcpy fast path) plus a sparse tail.
        for i in 0..128u32 {
            sb.write(a, i, i as f32);
        }
        sb.write(a, 200, 42.0);
        sb.apply_and_clear(&mut mem);
        assert!(sb.is_empty());
        let data = mem.download(a);
        assert_eq!(data[0], 0.0 + 0.0);
        assert_eq!(data[64], 64.0);
        assert_eq!(data[127], 127.0);
        assert_eq!(data[128], 0.0);
        assert_eq!(data[200], 42.0);
        // Reuse: new writes land cleanly, stale pages are gone.
        sb.write(a, 5, -1.0);
        assert_eq!(sb.read(a, 6), None, "cleared pages left no residue");
        sb.apply_and_clear(&mut mem);
        assert_eq!(mem.download(a)[5], -1.0);
        assert_eq!(mem.download(a)[64], 64.0, "untouched words preserved");
    }

    #[test]
    fn footprint_hint_presizes_tables() {
        let sb = StoreBuffer::with_footprint_hint(100_000);
        assert!(sb.initial_slots >= 100_000 / PAGE_WORDS);
        assert!(sb.initial_slots.is_power_of_two());
        let tiny = StoreBuffer::with_footprint_hint(0);
        assert_eq!(tiny.initial_slots, 16);
        let huge = StoreBuffer::with_footprint_hint(usize::MAX / 2);
        assert_eq!(huge.initial_slots, 4096, "hint clamped");
    }

    #[test]
    fn overlay_view_masks_base_until_applied() {
        let mut mem = GlobalMem::new();
        let a = mem.upload(&[5.0; 4]);
        let mut view = GlobalView::Overlay {
            base: &mem,
            store: StoreBuffer::new(),
        };
        assert_eq!(view.read_elem(a, 2), 5.0);
        view.write_elem(a, 2, 8.0);
        assert_eq!(view.read_elem(a, 2), 8.0, "read-your-writes");
        assert_eq!(view.read_elem(a, 1), 5.0);
        let GlobalView::Overlay { store, .. } = view else {
            unreachable!()
        };
        store.apply(&mut mem);
        assert_eq!(mem.download(a), &[5.0, 5.0, 8.0, 5.0]);
    }

    #[test]
    fn lane_batched_view_ops_match_elementwise() {
        use crate::lane::{LaneMask, VF, VU};
        let mut mem = GlobalMem::new();
        let a = mem.upload(&(0..64).map(|i| i as f32).collect::<Vec<_>>());
        let mut view = GlobalView::Overlay {
            base: &mem,
            store: StoreBuffer::new(),
        };
        let idx = VU::from_fn(|l| (l as u32 * 7) % 64);
        let mask = LaneMask::from_fn(|l| l % 3 != 0);
        let vals = VF::from_fn(|l| l as f32 + 0.5);
        view.write_lanes(a, &idx, &vals, mask);
        let got = view.read_lanes(a, &idx, mask);
        for l in 0..crate::lane::WARP {
            if mask.get(l) {
                // (l*7)%64 is injective over 0..32 lanes? Not necessarily —
                // but lowest-lane-wins makes the expected value the lowest
                // active lane writing this element.
                let winner = (0..crate::lane::WARP)
                    .find(|&m| mask.get(m) && idx.lane(m) == idx.lane(l))
                    .unwrap();
                assert_eq!(got.lane(l), winner as f32 + 0.5, "lane {l}");
            } else {
                assert_eq!(got.lane(l), 0.0, "inactive lane {l}");
            }
        }
        // Unwritten elements still come from the base snapshot.
        let all = view.read_lanes(a, &VU::from_fn(|l| l as u32), LaneMask::ALL);
        let written: Vec<u32> = (0..crate::lane::WARP)
            .filter(|&l| mask.get(l))
            .map(|l| idx.lane(l))
            .collect();
        for l in 0..crate::lane::WARP {
            if !written.contains(&(l as u32)) {
                assert_eq!(all.lane(l), l as f32, "base value for lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "device write OOB: buffer 0 has 2 elems, index 2")]
    fn overlay_write_oob_matches_sequential_panic() {
        let mut mem = GlobalMem::new();
        let a = mem.upload(&[0.0; 2]);
        let mut view = GlobalView::Overlay {
            base: &mem,
            store: StoreBuffer::new(),
        };
        view.write_elem(a, 2, 1.0);
    }

    #[test]
    // Descending lane order means the highest OOB lane trips first, exactly
    // like the sequential engine's reverse store loop.
    #[should_panic(expected = "device write OOB: buffer 0 has 2 elems, index 31")]
    fn overlay_write_lanes_oob_matches_sequential_panic() {
        use crate::lane::{LaneMask, VF, VU};
        let mut mem = GlobalMem::new();
        let a = mem.upload(&[0.0; 2]);
        let mut view = GlobalView::Overlay {
            base: &mem,
            store: StoreBuffer::new(),
        };
        view.write_lanes(
            a,
            &VU::from_fn(|l| l as u32),
            &VF::splat(1.0),
            LaneMask::ALL,
        );
    }

    #[test]
    #[should_panic(expected = "device read OOB: buffer 0 has 2 elems, index 5")]
    fn direct_read_lanes_oob_matches_sequential_panic() {
        use crate::lane::{LaneMask, VU};
        let mut mem = GlobalMem::new();
        let a = mem.upload(&[0.0; 2]);
        let view = GlobalView::Direct(&mut mem);
        view.read_lanes(a, &VU::splat(5), LaneMask::first(1));
    }
}
