//! Device global memory: flat `f32` buffers living in a single virtual
//! address space, so that coalescing and cache behaviour can be computed
//! from real byte addresses.
//!
//! Host↔device transfers need not copy. A buffer's elements live in the
//! same shared copy-on-write storage as the host tensors
//! (`Arc<Vec<f32>>`): [`GlobalMem::upload_shared`] maps a tensor's storage
//! as a device buffer, every write (device or host) copies shared storage
//! first, and [`GlobalMem::take`] moves a result back out.

use std::sync::Arc;

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub(crate) usize);

#[derive(Debug)]
struct Buffer {
    base: u64,
    data: Arc<Vec<f32>>,
}

impl Buffer {
    /// The buffer's elements for writing: copies storage that a host
    /// tensor (or another buffer) still shares, so writes never leak.
    #[inline]
    fn data_mut(&mut self) -> &mut Vec<f32> {
        Arc::make_mut(&mut self.data)
    }
}

/// Base of the global-memory arena. Chosen away from zero so that address
/// arithmetic bugs (e.g. unallocated buffer zero) surface loudly.
const GLOBAL_BASE: u64 = 1 << 32;

/// Alignment of buffer base addresses: one cache line, as `cudaMalloc`
/// guarantees (it actually guarantees 256 B; 128 B is what coalescing
/// needs).
const BUF_ALIGN: u64 = 256;

/// The simulated device's global memory.
#[derive(Debug)]
pub struct GlobalMem {
    bufs: Vec<Buffer>,
    next_base: u64,
    /// Elements ever allocated, taken buffers included.
    total_elems: usize,
}

impl Default for GlobalMem {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalMem {
    /// Empty global memory.
    pub fn new() -> Self {
        GlobalMem {
            bufs: Vec::new(),
            next_base: GLOBAL_BASE,
            total_elems: 0,
        }
    }

    /// Allocate a zero-filled buffer of `len` f32 elements.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.upload_vec(vec![0.0; len])
    }

    /// Allocate a buffer initialized from host data.
    pub fn upload(&mut self, data: &[f32]) -> BufId {
        self.upload_vec(data.to_vec())
    }

    /// Allocate a buffer taking ownership of host data.
    pub fn upload_vec(&mut self, data: Vec<f32>) -> BufId {
        self.upload_shared(Arc::new(data))
    }

    /// Map shared host storage (`Tensor4::shared`, `Image2D::shared`) as a
    /// device buffer without copying. The first write to the buffer, by a
    /// kernel or the host, copies it, so the host tensor never changes;
    /// likewise a host write to the tensor copies on the host side.
    pub fn upload_shared(&mut self, data: Arc<Vec<f32>>) -> BufId {
        let base = self.next_base;
        let bytes = (data.len() as u64 * 4).max(1);
        self.next_base = (base + bytes).div_ceil(BUF_ALIGN) * BUF_ALIGN;
        self.total_elems += data.len();
        self.bufs.push(Buffer { base, data });
        BufId(self.bufs.len() - 1)
    }

    /// Read back a buffer.
    pub fn download(&self, id: BufId) -> &[f32] {
        &self.bufs[id.0].data
    }

    /// Move a buffer's contents out to the host: a device-to-host copy
    /// followed by a free, without the copy when the storage is not shared.
    /// The address range stays reserved and [`GlobalMem::total_elems`]
    /// still counts the buffer; later device accesses to it fail as
    /// out-of-bounds (a typed error under `GpuSim::try_launch`).
    pub fn take(&mut self, id: BufId) -> Vec<f32> {
        Arc::unwrap_or_clone(std::mem::take(&mut self.bufs[id.0].data))
    }

    /// Read back the first `len` elements of a buffer.
    ///
    /// The aliasing primitive of planned buffer reuse (e.g. the layer-graph
    /// executor's ping-pong intermediate pool): a pool buffer is sized to
    /// the largest tensor ever assigned to it, a smaller logical tensor
    /// occupies a prefix, and the caller tracks logical lengths. Panics if
    /// `len` exceeds the buffer's capacity.
    pub fn download_prefix(&self, id: BufId, len: usize) -> &[f32] {
        let buf = &self.bufs[id.0];
        assert!(
            len <= buf.data.len(),
            "prefix read OOB: buffer {} has {} elems, prefix {}",
            id.0,
            buf.data.len(),
            len
        );
        &buf.data[..len]
    }

    /// Overwrite a prefix of a buffer's contents from the host, leaving the
    /// tail untouched. The host-write counterpart of
    /// [`GlobalMem::download_prefix`]: re-homing a logical tensor into an
    /// oversized pool buffer. Panics if `data` exceeds the capacity.
    pub fn write_host_prefix(&mut self, id: BufId, data: &[f32]) {
        let buf = &mut self.bufs[id.0];
        assert!(
            data.len() <= buf.data.len(),
            "prefix write OOB: buffer {} has {} elems, prefix {}",
            id.0,
            buf.data.len(),
            data.len()
        );
        buf.data_mut()[..data.len()].copy_from_slice(data);
    }

    /// Overwrite a buffer's contents from the host (lengths must match).
    pub fn write_host(&mut self, id: BufId, data: &[f32]) {
        let buf = &mut self.bufs[id.0];
        assert_eq!(buf.data.len(), data.len(), "host write length mismatch");
        buf.data_mut().copy_from_slice(data);
    }

    /// Zero a buffer (host-side `cudaMemset`).
    pub fn zero(&mut self, id: BufId) {
        self.bufs[id.0].data_mut().fill(0.0);
    }

    /// Element count of a buffer (0 once taken).
    pub fn len(&self, id: BufId) -> usize {
        self.bufs[id.0].data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self, id: BufId) -> bool {
        self.bufs[id.0].data.is_empty()
    }

    /// Virtual byte address of element `idx` of buffer `id`.
    #[inline]
    pub fn addr(&self, id: BufId, idx: u32) -> u64 {
        self.bufs[id.0].base + idx as u64 * 4
    }

    /// Base byte address of buffer `id` (hoisted once per warp access by
    /// the batched address path).
    #[inline]
    pub(crate) fn buf_base(&self, id: BufId) -> u64 {
        self.bufs[id.0].base
    }

    /// Device-side element read (bounds-checked).
    #[inline]
    pub fn read_elem(&self, id: BufId, idx: u32) -> f32 {
        let buf = &self.bufs[id.0];
        match buf.data.get(idx as usize) {
            Some(&v) => v,
            None => read_oob(id, buf.data.len(), idx),
        }
    }

    /// Device-side element write (bounds-checked).
    #[inline]
    pub fn write_elem(&mut self, id: BufId, idx: u32, v: f32) {
        let buf = &mut self.bufs[id.0];
        let len = buf.data.len();
        match buf.data_mut().get_mut(idx as usize) {
            Some(slot) => *slot = v,
            None => write_oob(id, len, idx),
        }
    }

    /// Total elements allocated so far, taken buffers included: a taken
    /// result still occupied device memory until the host read it, so
    /// device-peak accounting does not drop when it moves out.
    pub fn total_elems(&self) -> usize {
        self.total_elems
    }

    /// Panic exactly as [`GlobalMem::write_elem`] would on an out-of-bounds
    /// index, without writing. Used by the store-buffer overlay so parallel
    /// launches fail with byte-identical diagnostics to sequential ones.
    #[inline]
    #[cfg(test)]
    pub(crate) fn assert_write_in_bounds(&self, id: BufId, idx: u32) {
        let len = self.bufs[id.0].data.len();
        if idx as usize >= len {
            write_oob(id, len, idx);
        }
    }

    /// Raw mutable element storage of one buffer (store-buffer application).
    pub(crate) fn buf_data_mut(&mut self, id: BufId) -> &mut [f32] {
        self.bufs[id.0].data_mut()
    }
}

/// The out-of-bounds panic of a device read of element `idx` of buffer
/// `id`, which holds `len` elements. Cold and out of line, so the bounds
/// checks that lead here stay small enough to inline.
#[cold]
#[inline(never)]
pub(crate) fn read_oob(id: BufId, len: usize, idx: u32) -> ! {
    panic!(
        "device read OOB: buffer {} has {len} elems, index {idx}",
        id.0
    )
}

/// The out-of-bounds panic of a device write, like [`read_oob`].
#[cold]
#[inline(never)]
pub(crate) fn write_oob(id: BufId, len: usize, idx: u32) -> ! {
    panic!(
        "device write OOB: buffer {} has {len} elems, index {idx}",
        id.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[1.0, 2.0, 3.0]);
        assert_eq!(m.download(a), &[1.0, 2.0, 3.0]);
        assert_eq!(m.len(a), 3);
        m.write_elem(a, 1, 9.0);
        assert_eq!(m.read_elem(a, 1), 9.0);
    }

    #[test]
    fn buffers_are_line_aligned_and_disjoint() {
        let mut m = GlobalMem::new();
        let a = m.alloc(5);
        let b = m.alloc(100);
        assert_eq!(m.addr(a, 0) % BUF_ALIGN, 0);
        assert_eq!(m.addr(b, 0) % BUF_ALIGN, 0);
        // end of a strictly before start of b
        assert!(m.addr(a, 4) + 4 <= m.addr(b, 0));
    }

    #[test]
    fn addresses_stride_by_four_bytes() {
        let mut m = GlobalMem::new();
        let a = m.alloc(10);
        assert_eq!(m.addr(a, 3) - m.addr(a, 0), 12);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    fn oob_read_panics() {
        let mut m = GlobalMem::new();
        let a = m.alloc(2);
        m.read_elem(a, 2);
    }

    #[test]
    fn prefix_accessors_alias_an_oversized_buffer() {
        let mut m = GlobalMem::new();
        let pool = m.upload(&[9.0; 8]);
        m.write_host_prefix(pool, &[1.0, 2.0, 3.0]);
        assert_eq!(m.download_prefix(pool, 3), &[1.0, 2.0, 3.0]);
        // The tail is untouched — stale data beyond the logical length.
        assert_eq!(m.download(pool)[3], 9.0);
        assert_eq!(m.download_prefix(pool, 8).len(), 8);
    }

    #[test]
    #[should_panic(expected = "prefix write OOB")]
    fn oversized_prefix_write_panics() {
        let mut m = GlobalMem::new();
        let a = m.alloc(2);
        m.write_host_prefix(a, &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "prefix read OOB")]
    fn oversized_prefix_read_panics() {
        let mut m = GlobalMem::new();
        let a = m.alloc(2);
        let _ = m.download_prefix(a, 3);
    }

    #[test]
    fn zero_resets_contents() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[5.0; 4]);
        m.zero(a);
        assert_eq!(m.download(a), &[0.0; 4]);
    }

    #[test]
    fn default_places_first_buffer_at_global_base() {
        let mut m = GlobalMem::default();
        let a = m.alloc(4);
        assert_eq!(m.addr(a, 0), GLOBAL_BASE);
    }

    #[test]
    fn device_and_host_writes_copy_shared_storage_first() {
        let host = Arc::new(vec![1.0; 4]);
        let mut m = GlobalMem::new();
        let a = m.upload_shared(Arc::clone(&host));
        let b = m.upload_shared(Arc::clone(&host));
        let c = m.upload_shared(Arc::clone(&host));
        let d = m.upload_shared(Arc::clone(&host));
        m.write_elem(a, 0, 7.0);
        m.write_host(b, &[2.0; 4]);
        m.write_host_prefix(c, &[3.0]);
        m.zero(d);
        assert_eq!(host.as_slice(), &[1.0; 4], "the host copy never changes");
        assert_eq!(m.download(a), &[7.0, 1.0, 1.0, 1.0]);
        assert_eq!(m.download(b), &[2.0; 4]);
        assert_eq!(m.download(c), &[3.0, 1.0, 1.0, 1.0]);
        assert_eq!(m.download(d), &[0.0; 4]);

        // A host write after upload copies on the host side.
        let mut host = Arc::new(vec![5.0; 2]);
        let e = m.upload_shared(Arc::clone(&host));
        Arc::make_mut(&mut host)[0] = 6.0;
        assert_eq!(m.download(e), &[5.0; 2]);
    }

    #[test]
    fn take_moves_the_result_out_and_keeps_the_accounting() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[4.0, 5.0]);
        let b = m.alloc(3);
        let want = m.download(a).to_vec();
        let ptr = m.download(a).as_ptr();
        let total = m.total_elems();
        let got = m.take(a);
        assert_eq!(got, want);
        assert_eq!(got.as_ptr(), ptr, "an unshared buffer moves, not copies");
        assert_eq!(m.total_elems(), total, "a taken buffer still counts");
        assert_eq!(m.len(a), 0);
        // The address range stays reserved: later buffers do not reuse it.
        let c = m.alloc(1);
        assert!(m.addr(c, 0) > m.addr(b, 0));
        assert_eq!(m.addr(a, 0), GLOBAL_BASE);
    }

    #[test]
    fn take_of_shared_storage_copies_and_leaves_the_host_alone() {
        let host = Arc::new(vec![8.0; 3]);
        let mut m = GlobalMem::new();
        let a = m.upload_shared(Arc::clone(&host));
        let got = m.take(a);
        assert_eq!(got, *host);
        assert_ne!(got.as_ptr(), host.as_ptr());
    }

    #[test]
    #[should_panic(expected = "device read OOB")]
    fn reading_a_taken_buffer_is_out_of_bounds() {
        let mut m = GlobalMem::new();
        let a = m.upload(&[1.0]);
        let _ = m.take(a);
        m.read_elem(a, 0);
    }
}
