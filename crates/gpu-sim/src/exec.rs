//! Kernel execution: grids, blocks, warps.
//!
//! A kernel is a Rust closure over [`BlockCtx`]. Within a block, code is
//! organized as *phases* separated by [`BlockCtx::barrier`]; inside a phase,
//! [`BlockCtx::each_warp`] runs the given closure once per warp, giving it a
//! [`WarpCtx`] through which all instructions (arithmetic, shuffles, memory)
//! are issued so they can be counted.
//!
//! Large uniform grids can be *sampled* ([`SampleMode::Stride`]): only every
//! k-th block is simulated and the traffic counters are scaled by `k`. This
//! is exact for spatially homogeneous convolution grids up to boundary
//! effects and is what makes the paper's batch-128 Table I workloads
//! tractable on a host CPU.
//!
//! ## Launch engines
//!
//! [`GpuSim::launch`] dispatches on [`LaunchMode`]:
//!
//! * [`LaunchMode::Sequential`] (default) — blocks run one after another
//!   against global memory and the launch-wide L2 directly. This is the
//!   reference engine.
//! * [`LaunchMode::Parallel`] — blocks run *functionally* in parallel on
//!   host threads (phase 1), each against a snapshot of global memory with
//!   a private store buffer, recording its L2-bound sector stream in a
//!   [`crate::trace::BlockTrace`]; then traces are replayed and store
//!   buffers applied **sequentially in block-linear order** (phase 2).
//!   Counters are bit-identical to the sequential engine; see `DESIGN.md`
//!   §4 for the argument. The one semantic caveat: a kernel must not read
//!   global data written by a *different block of the same launch* — which
//!   CUDA already leaves undefined without grid-wide synchronization.

use crate::analysis::{
    AccessClass, AnalysisConfig, BlockCollector, HazardReport, LaunchCollector, SiteId,
};
use crate::device::DeviceConfig;
use crate::faults::{self, BlockFaults, FaultLog, FaultPlan};
use crate::lane::{LaneMask, VF, VU, WARP};
use crate::memory::global::{read_oob, write_oob};
use crate::memory::hierarchy::{
    flush_l2, l1_geometry, l2_geometry, phantom_access, phantom_access_span, renew, replay_trace,
    warp_access, warp_access_span, L2Sink, Space,
};
use crate::memory::{BufId, GlobalMem, LaneRun, SectoredCache, SharedMem};
use crate::obs::{LaunchSpanRecord, SpanConfig, SpanScratch};
use crate::shuffle;
use crate::stats::KernelStats;
use crate::sym::{PhantomConfig, PredictModel, SymBlockCollector, SymReport};
use crate::trace::{copy_short, BlockTrace, GlobalView, StoreBuffer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// How many of a launch's blocks to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Simulate every block (functional result is complete).
    Full,
    /// Simulate blocks whose linear index is `≡ 0 (mod k)` and scale the
    /// counters by the inverse sampling fraction. Functional output is
    /// partial — use only for performance measurement.
    Stride(u32),
    /// Simulate runs of `chunk` consecutive blocks, skipping `skip − 1`
    /// chunks between runs (fraction simulated = `1/skip`). Preserves the
    /// adjacent-block cache locality that plain striding destroys, so L2
    /// behaviour extrapolates faithfully. Performance measurement only.
    Chunked {
        /// Consecutive blocks per simulated run.
        chunk: u32,
        /// One of every `skip` chunks is simulated.
        skip: u32,
    },
    /// Resolve to [`SampleMode::auto`]`(num_blocks, target)` at launch
    /// time — the mode harnesses use, since one algorithm may issue many
    /// launches with very different grid sizes.
    Auto(u64),
}

impl SampleMode {
    /// Pick a mode that simulates roughly `target` blocks out of `total`,
    /// in locality-preserving chunks.
    pub fn auto(total: u64, target: u64) -> SampleMode {
        if total <= target.max(1) {
            return SampleMode::Full;
        }
        let chunk = 64u32;
        // Above `target · 2³²` blocks the ideal skip exceeds a u32; the
        // widest one simulates a little more than `target` blocks.
        let skip = u32::try_from((total / target.max(1)).max(2)).unwrap_or(u32::MAX);
        SampleMode::Chunked { chunk, skip }
    }

    /// The linear ids of the blocks this mode simulates out of `total`,
    /// ascending; `Auto(t)` selects what [`SampleMode::auto`]`(total, t)`
    /// does, as a launch resolves it. Every mode selects runs of
    /// consecutive blocks at a fixed period — `Full` one run of all blocks,
    /// `Stride(k)` one block every `k`, `Chunked` `chunk` blocks every
    /// `chunk · skip` — so the walk visits only selected blocks, whatever
    /// the grid size.
    pub fn selected(self, total: u64) -> impl Iterator<Item = u64> {
        let resolved = match self {
            SampleMode::Auto(target) => SampleMode::auto(total, target),
            mode => mode,
        };
        let (chunk, skip) = match resolved {
            SampleMode::Full => (total.max(1), 1),
            SampleMode::Stride(k) => {
                assert!(k >= 1, "sample stride must be >= 1");
                (1, k as u64)
            }
            SampleMode::Chunked { chunk, skip } => {
                assert!(chunk >= 1 && skip >= 1, "bad chunk sampling");
                (chunk as u64, skip as u64)
            }
            SampleMode::Auto(_) => unreachable!("`auto` picks Full or Chunked"),
        };
        let period = chunk * skip;
        (0..total.div_ceil(period)).flat_map(move |run| {
            let start = run * period;
            start..total.min(start.saturating_add(chunk))
        })
    }
}

/// Which engine executes a launch's blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaunchMode {
    /// One block at a time, in block-linear order, against global memory
    /// and the launch-wide L2 directly. The reference engine.
    #[default]
    Sequential,
    /// Two-phase trace-replay engine: blocks execute functionally in
    /// parallel on host threads, then their L2-bound sector traces and
    /// store buffers are committed sequentially in block-linear order.
    /// Produces bit-identical [`KernelStats`] and final memory contents
    /// to [`LaunchMode::Sequential`] for any kernel that does not read
    /// another block's writes from the same launch (undefined in CUDA
    /// anyway).
    Parallel,
}

/// Launch geometry, CUDA-style: a 3D grid of 1D thread blocks.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Grid dimensions `(x, y, z)`.
    pub grid: (u32, u32, u32),
    /// Threads per block; must be a positive multiple of 32 and ≤ 1024.
    pub block: u32,
    /// Shared memory words (f32) per block.
    pub shared_words: usize,
    /// Block sampling mode.
    pub sample: SampleMode,
}

impl LaunchConfig {
    /// 1D grid of `blocks` blocks with `tpb` threads each.
    pub fn linear(blocks: u32, tpb: u32) -> Self {
        LaunchConfig {
            grid: (blocks, 1, 1),
            block: tpb,
            shared_words: 0,
            sample: SampleMode::Full,
        }
    }

    /// 2D grid.
    pub fn grid2d(gx: u32, gy: u32, tpb: u32) -> Self {
        LaunchConfig {
            grid: (gx, gy, 1),
            block: tpb,
            shared_words: 0,
            sample: SampleMode::Full,
        }
    }

    /// 3D grid.
    pub fn grid3d(gx: u32, gy: u32, gz: u32, tpb: u32) -> Self {
        LaunchConfig {
            grid: (gx, gy, gz),
            block: tpb,
            shared_words: 0,
            sample: SampleMode::Full,
        }
    }

    /// Set the per-block shared memory size in f32 words.
    pub fn with_shared(mut self, words: usize) -> Self {
        self.shared_words = words;
        self
    }

    /// Set the sampling mode.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    /// Total number of threads.
    pub fn num_threads(&self) -> u64 {
        self.num_blocks() * self.block as u64
    }

    /// Grid coordinates `(bx, by, bz)` of linear block id `linear`.
    fn coords(&self, linear: u64) -> (u32, u32, u32) {
        let gx = self.grid.0 as u64;
        let gy = self.grid.1 as u64;
        (
            (linear % gx) as u32,
            ((linear / gx) % gy) as u32,
            (linear / (gx * gy)) as u32,
        )
    }

    /// Check this configuration against `dev`, returning
    /// [`LaunchError::InvalidConfig`] instead of panicking. Used by
    /// [`GpuSim::try_launch`]; [`GpuSim::launch`] keeps the historical
    /// panic (same messages) via [`LaunchConfig::validate`].
    pub fn try_validate(&self, dev: &DeviceConfig) -> Result<(), LaunchError> {
        let fail = |msg: String| Err(LaunchError::InvalidConfig(msg));
        if !(self.block > 0 && self.block.is_multiple_of(WARP as u32)) {
            return fail("block size must be a positive multiple of 32".into());
        }
        if self.block > dev.max_threads_per_sm {
            return fail("block size exceeds device limit".into());
        }
        let (gx, gy, gz) = self.grid;
        let threads = (gx as u64)
            .checked_mul(gy as u64)
            .and_then(|b| b.checked_mul(gz as u64))
            .and_then(|b| b.checked_mul(self.block as u64));
        if threads.is_none() {
            return fail(format!(
                "grid {gx}x{gy}x{gz} of {}-thread blocks overflows a 64-bit thread count",
                self.block
            ));
        }
        if self.num_blocks() == 0 {
            return fail("empty grid".into());
        }
        if self.shared_words * 4 > dev.smem_per_sm {
            return fail(format!(
                "shared memory request {} B exceeds {} B per SM",
                self.shared_words * 4,
                dev.smem_per_sm
            ));
        }
        check_memory_geometry(dev).or_else(fail)
    }

    fn validate(&self, dev: &DeviceConfig) {
        if let Err(LaunchError::InvalidConfig(msg)) = self.try_validate(dev) {
            panic!("{msg}");
        }
    }
}

/// Check the device parameters the memory model relies on: L1 and L2
/// geometries the caches can index (`CacheGeometry::check`, whose
/// power-of-two sectors the coalescer needs too), sectors of at least
/// 32 B (the parallel engine's [`BlockTrace`] records sector addresses in
/// 32-byte units), and at least one shared-memory bank.
fn check_memory_geometry(dev: &DeviceConfig) -> Result<(), String> {
    for (level, geometry) in [("L1", l1_geometry(dev)), ("L2", l2_geometry(dev))] {
        geometry.check().map_err(|msg| format!("{level}: {msg}"))?;
    }
    if dev.sector_bytes < 32 {
        return Err(format!(
            "{} B sectors are finer than the 32 B units of the sector trace",
            dev.sector_bytes
        ));
    }
    if dev.smem_banks == 0 {
        return Err("device has no shared-memory banks".into());
    }
    Ok(())
}

/// Why a [`GpuSim::try_launch`] failed. Plain [`GpuSim::launch`] panics in
/// the same situations (minus [`LaunchError::Timeout`], which needs the
/// watchdog that only `try_launch` arms by default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The launch configuration is rejected before any block runs
    /// (zero/non-warp-multiple/oversized block, empty grid, a grid whose
    /// thread count overflows 64 bits, shared-memory request beyond the
    /// device limit, or a device whose memory geometry the model cannot
    /// index: see [`LaunchConfig::try_validate`]).
    InvalidConfig(String),
    /// A lane addressed a device buffer out of bounds (also covers
    /// buffer-size mismatches between the kernel's indexing and the actual
    /// allocation).
    OutOfBounds(String),
    /// A block exceeded the per-block instruction budget — a real runaway
    /// loop, or an injected [`crate::faults::FaultKind::Hang`].
    Timeout {
        /// Instructions issued by the tripping block when it was stopped.
        issued: u64,
        /// The budget it exceeded.
        budget: u64,
        /// Whether an injected hang fault (rather than a genuine runaway
        /// kernel) forced the trip.
        hang_injected: bool,
    },
    /// A block panicked for any other reason. Under
    /// [`LaunchMode::Parallel`], [`GpuSim::try_launch`] retries the launch
    /// once on the sequential reference engine before reporting this.
    BlockPanic(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::InvalidConfig(m) => write!(f, "invalid launch config: {m}"),
            LaunchError::OutOfBounds(m) => write!(f, "out-of-bounds access: {m}"),
            LaunchError::Timeout {
                issued,
                budget,
                hang_injected,
            } => write!(
                f,
                "block exceeded instruction budget ({issued} > {budget}{})",
                if *hang_injected {
                    ", hang fault injected"
                } else {
                    ""
                }
            ),
            LaunchError::BlockPanic(m) => write!(f, "block panicked: {m}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Virtual address where per-thread local memory (register spill space)
/// begins; far above the global arena.
const LOCAL_BASE: u64 = 1 << 44;
/// Local memory reserved per warp (bytes): 255 spill slots × 128 B.
const LOCAL_WARP_SPAN: u64 = 255 * 128;

/// Default per-block instruction budget for [`GpuSim::try_launch`]. Sized
/// far above any real block in this codebase (the heaviest Table I blocks
/// issue ~10⁵ warp instructions) so only genuine runaways or injected
/// hangs trip it, while still bounding host time to well under a minute.
pub const DEFAULT_BLOCK_INSTRUCTION_BUDGET: u64 = 1 << 26;

/// Panic payload thrown by the watchdog; typed so
/// [`GpuSim::try_launch`] can classify it as [`LaunchError::Timeout`].
#[derive(Debug, Clone, Copy)]
struct WatchdogTrip {
    issued: u64,
    budget: u64,
    hang_injected: bool,
}

/// Per-block instruction-budget watchdog.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    budget: u64,
    issued: u64,
}

/// Per-launch execution environment shared by both engines: resolved once
/// in [`GpuSim::launch_inner`], copied into every block.
#[derive(Debug, Clone, Copy)]
struct LaunchEnv {
    analyze: bool,
    faults: Option<FaultPlan>,
    /// Phantom (data-free) execution; see [`crate::sym`]. Mutually
    /// exclusive with `analyze` and `faults`.
    phantom: Option<PhantomConfig>,
    launch_seq: u64,
    watchdog: Option<u64>,
}

struct Resources<'a> {
    dev: &'a DeviceConfig,
    glob: GlobalView<'a>,
    l1: &'a mut SectoredCache,
    l2: L2Sink<'a>,
    stats: &'a mut KernelStats,
    shared: &'a mut SharedMem,
    /// Hazard-analysis event recorder; `None` outside analyzed launches, in
    /// which case every instrumented path is byte-for-byte the plain path.
    analysis: Option<&'a mut BlockCollector>,
    /// Fault-injection state; `None` (the default) keeps every instrumented
    /// path byte-for-byte the plain path, like `analysis`.
    faults: Option<&'a mut BlockFaults>,
    /// Phantom-mode configuration; `Some` routes every memory access
    /// through the data-free path ([`crate::memory::phantom_access`]) and
    /// makes loads return the canary. `None` (the default) is the plain
    /// path, untouched.
    phantom: Option<PhantomConfig>,
    /// Symbolic site collector; `Some` exactly when `phantom` is.
    sym: Option<&'a mut SymBlockCollector>,
    /// Instruction-budget watchdog; armed by [`GpuSim::try_launch`] (or an
    /// explicit [`GpuSim::set_watchdog_budget`]), absent otherwise.
    watchdog: Option<Watchdog>,
}

impl Resources<'_> {
    /// Count `n` issued warp instructions against the watchdog (if armed)
    /// and let a pending hang fault manifest. Panics with a typed
    /// [`WatchdogTrip`] payload on budget exhaustion — a no-op whenever no
    /// watchdog is armed, so plain launches are untouched.
    #[inline]
    fn tick(&mut self, n: u64) {
        let Some(wd) = self.watchdog.as_mut() else {
            return;
        };
        wd.issued += n;
        let mut hang_injected = false;
        if let Some(f) = self.faults.as_deref_mut() {
            f.note_instructions(wd.issued);
            if f.hung() {
                // A hung block stops making progress; model that as the
                // instruction counter blowing straight past any budget.
                wd.issued = wd.issued.max(wd.budget).saturating_add(1);
                hang_injected = true;
            }
        }
        if wd.issued > wd.budget {
            std::panic::panic_any(WatchdogTrip {
                issued: wd.issued,
                budget: wd.budget,
                hang_injected,
            });
        }
    }
}

/// Execution context for one thread block.
pub struct BlockCtx<'a> {
    res: Resources<'a>,
    /// This block's index in the grid `(x, y, z)`.
    pub block_idx: (u32, u32, u32),
    /// Grid dimensions.
    pub grid_dim: (u32, u32, u32),
    /// Threads per block.
    pub block_dim: u32,
    block_linear: u64,
}

impl<'a> BlockCtx<'a> {
    /// Number of warps in this block.
    pub fn num_warps(&self) -> usize {
        self.block_dim as usize / WARP
    }

    /// Linear block id across the grid.
    pub fn block_linear(&self) -> u64 {
        self.block_linear
    }

    /// Run `f` once per warp of this block (one execution phase).
    pub fn each_warp(&mut self, mut f: impl FnMut(&mut WarpCtx<'_, 'a>)) {
        for w in 0..self.num_warps() {
            let mut ctx = WarpCtx {
                warp_id: w,
                block_idx: self.block_idx,
                grid_dim: self.grid_dim,
                block_dim: self.block_dim,
                local_base: LOCAL_BASE
                    + self.block_linear * (self.block_dim as u64 / WARP as u64) * LOCAL_WARP_SPAN
                    + w as u64 * LOCAL_WARP_SPAN,
                local_next: 0,
                res: &mut self.res,
            };
            f(&mut ctx);
        }
    }

    /// Block-wide barrier (`__syncthreads()`): a phase boundary. Warps in
    /// the next [`BlockCtx::each_warp`] observe all shared/global writes of
    /// the previous phase.
    pub fn barrier(&mut self) {
        self.res.tick(1);
        self.res.stats.barriers += 1;
        if let Some(a) = self.res.analysis.as_deref_mut() {
            a.barrier();
        }
    }
}

/// Execution context for one warp. All simulated instructions are methods
/// here so they are counted exactly once.
pub struct WarpCtx<'b, 'a> {
    /// Warp index within the block.
    pub warp_id: usize,
    /// Owning block's index.
    pub block_idx: (u32, u32, u32),
    /// Grid dimensions.
    pub grid_dim: (u32, u32, u32),
    /// Threads per block.
    pub block_dim: u32,
    local_base: u64,
    local_next: u64,
    res: &'b mut Resources<'a>,
}

impl<'b, 'a> WarpCtx<'b, 'a> {
    /// Per-lane thread index within the block (`threadIdx.x`).
    pub fn thread_idx(&self) -> VU {
        let base = (self.warp_id * WARP) as u32;
        VU::from_fn(|l| base + l as u32)
    }

    /// Per-lane global thread id along x
    /// (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub fn global_tid_x(&self) -> VU {
        let base = self.block_idx.0 * self.block_dim + (self.warp_id * WARP) as u32;
        VU::from_fn(|l| base + l as u32)
    }

    /// The lane-id vector `[0..32)`.
    #[inline]
    pub fn lane_id(&self) -> VU {
        VU::lane_id()
    }

    // ----- arithmetic (counted) -------------------------------------------

    /// Fused multiply-add `a*b + c` (one warp FMA instruction).
    #[inline]
    pub fn fma(&mut self, a: VF, b: VF, c: VF) -> VF {
        self.res.tick(1);
        self.res.stats.fma_instrs += 1;
        a.mul_add(&b, &c)
    }

    /// One filter row's multiply-accumulate: `xs.len()` warp FMAs
    /// `acc = xs[s] * ws[s] + acc`, `s` ascending, each weight uniform
    /// across the warp. Counts, ticks and rounds exactly as that many
    /// [`WarpCtx::fma`] calls with splatted weights (so a watchdog budget
    /// or an armed hang trips at the same instruction), but runs the row
    /// in one FMA-unit call ([`VF::mul_add_row`]).
    #[inline]
    pub fn fma_row(&mut self, acc: &mut VF, xs: &[VF], ws: &[f32]) {
        for _ in xs {
            self.res.tick(1);
        }
        self.res.stats.fma_instrs += xs.len() as u64;
        acc.mul_add_row(xs, ws);
    }

    /// One register times a column of warp-uniform scalars:
    /// `rows.len()` warp FMAs `rows[r] = x * ws[r] + rows[r]`, `r`
    /// ascending — a GEMM register tile's update by one B register. Counts,
    /// ticks and rounds exactly as that many [`WarpCtx::fma`] calls with
    /// splatted scalars, like [`WarpCtx::fma_row`], in one FMA-unit call
    /// ([`VF::mul_add_col`]).
    #[inline]
    pub fn fma_col(&mut self, rows: &mut [VF], x: &VF, ws: &[f32]) {
        for _ in rows.iter() {
            self.res.tick(1);
        }
        self.res.stats.fma_instrs += rows.len() as u64;
        x.mul_add_col(rows, ws);
    }

    /// Counted floating add.
    #[inline]
    pub fn fadd(&mut self, a: VF, b: VF) -> VF {
        self.res.tick(1);
        self.res.stats.fp_instrs += 1;
        a + b
    }

    /// Counted floating multiply.
    #[inline]
    pub fn fmul(&mut self, a: VF, b: VF) -> VF {
        self.res.tick(1);
        self.res.stats.fp_instrs += 1;
        a * b
    }

    /// Record `n` additional floating-point instructions executed by host-
    /// side shortcuts (e.g. an unrolled inner loop folded into one call).
    #[inline]
    pub fn count_fp(&mut self, n: u64) {
        self.res.tick(n);
        self.res.stats.fp_instrs += n;
    }

    // ----- shuffles (counted) ---------------------------------------------

    /// Count one shuffle, attributing it to the caller's site when the
    /// hazard analyzer is recording.
    #[inline]
    fn note_shfl(&mut self, site: SiteId) {
        self.res.tick(1);
        self.res.stats.shfl_instrs += 1;
        if let Some(a) = self.res.analysis.as_deref_mut() {
            a.record_shuffle(site);
        }
    }

    /// Apply a pending shuffle-lane fault to a shuffle result `v` in place;
    /// nothing (and no copy of `v`) whenever injection is off.
    #[inline]
    fn shfl_fault(&mut self, v: &mut VF) {
        if let Some(c) = self.res.faults.as_deref_mut().and_then(|f| f.shuffle()) {
            *v = shuffle::corrupt_lane(v, (c.pick % WARP as u64) as usize, c.bit);
        }
    }

    /// `__shfl_xor_sync` over f32.
    #[inline]
    #[track_caller]
    pub fn shfl_xor(&mut self, v: &VF, mask: usize) -> VF {
        self.note_shfl(SiteId::caller());
        let mut r = shuffle::shfl_xor(v, mask, WARP);
        self.shfl_fault(&mut r);
        r
    }

    /// Algorithm 1's exchange shuffle: the `shfl_xor` (with its `mask`
    /// check, count, analyzer site and shuffle fault draw) of the register
    /// each lane selects by its `mask` bit — `hi` where it is 0, `lo` where
    /// it is 1 ([`shuffle::shfl_xor_select`]), computed in one pass over
    /// the lanes. The select itself is the caller's to count.
    #[inline]
    #[track_caller]
    pub fn shfl_xor_select(&mut self, lo: &VF, hi: &VF, mask: usize) -> VF {
        self.note_shfl(SiteId::caller());
        let mut r = shuffle::shfl_xor_select(lo, hi, mask);
        self.shfl_fault(&mut r);
        r
    }

    /// `__shfl_up_sync` over f32.
    #[inline]
    #[track_caller]
    pub fn shfl_up(&mut self, v: &VF, delta: usize) -> VF {
        self.note_shfl(SiteId::caller());
        let mut r = shuffle::shfl_up(v, delta, WARP);
        self.shfl_fault(&mut r);
        r
    }

    /// `__shfl_down_sync` over f32.
    #[inline]
    #[track_caller]
    pub fn shfl_down(&mut self, v: &VF, delta: usize) -> VF {
        self.note_shfl(SiteId::caller());
        let mut r = shuffle::shfl_down(v, delta, WARP);
        self.shfl_fault(&mut r);
        r
    }

    /// Indexed `__shfl_sync` over f32.
    #[inline]
    #[track_caller]
    pub fn shfl_idx(&mut self, v: &VF, idx: &VU) -> VF {
        self.note_shfl(SiteId::caller());
        let mut r = shuffle::shfl_idx(v, idx, WARP);
        self.shfl_fault(&mut r);
        r
    }

    /// Broadcast lane `src` to all lanes.
    #[inline]
    #[track_caller]
    pub fn shfl_bcast(&mut self, v: &VF, src: usize) -> VF {
        self.note_shfl(SiteId::caller());
        let mut r = shuffle::broadcast(v, src);
        self.shfl_fault(&mut r);
        r
    }

    /// Butterfly warp sum (`shfl_xor` tree), counted as its 5 shuffles
    /// plus 5 adds.
    pub fn warp_sum(&mut self, v: &VF) -> VF {
        let (mut r, steps) = shuffle::reduce_add(v);
        self.res.tick(steps * 2);
        self.res.stats.shfl_instrs += steps;
        self.res.stats.fp_instrs += steps;
        self.shfl_fault(&mut r);
        r
    }

    /// Butterfly warp max, counted as its 5 shuffles plus 5 compares.
    pub fn warp_max(&mut self, v: &VF) -> VF {
        let (mut r, steps) = shuffle::reduce_max(v);
        self.res.tick(steps * 2);
        self.res.stats.shfl_instrs += steps;
        self.res.stats.fp_instrs += steps;
        self.shfl_fault(&mut r);
        r
    }

    // ----- global memory ---------------------------------------------------

    /// Warp global load of f32 at per-lane element indices into `buf`.
    /// Inactive lanes receive 0.0.
    ///
    /// Under hazard analysis ([`GpuSim::analyze`]) an *active* out-of-bounds
    /// lane is reported as a hazard and reads 0.0 instead of panicking
    /// (compute-sanitizer-style report-and-continue); plain launches keep
    /// the hard OOB panic.
    ///
    /// A lane run ([`LaneRun`]) outside analysis runs takes the span path:
    /// sectors from the span's ends and, in the sequential engine, one copy
    /// (under phantom execution, no copy: see [`WarpCtx::phantom_span`]).
    /// Counters, cache state, fault draws, values and panics are those of
    /// the per-lane path. A caller whose access is a run by construction
    /// states it with [`WarpCtx::gld_run`] instead.
    #[track_caller]
    pub fn gld(&mut self, buf: BufId, idx: &VU, mask: LaneMask) -> VF {
        let site = SiteId::caller();
        self.res.tick(1);
        if let Some(run) = self.span_run(idx, mask) {
            return self.load_run(site, buf, run, mask);
        }
        let mut addrs = [0u64; WARP];
        self.res.glob.fill_addrs(buf, idx, mask, &mut addrs);
        if let Some(ph) = self.res.phantom {
            let txns = phantom_access(
                self.res.dev,
                self.res.stats,
                &addrs,
                mask,
                false,
                Space::Global,
            );
            self.sym_record(site, AccessClass::GlobalLoad, &addrs, mask, txns, false);
            // Bounds parity with the real path: perform the read (OOB
            // panics byte-identically) but discard the data.
            let _ = self.res.glob.read_lanes(buf, idx, mask);
            return phantom_values(ph, mask);
        }
        let txns = warp_access(
            self.res.dev,
            self.res.l1,
            &mut self.res.l2,
            self.res.stats,
            &addrs,
            mask,
            false,
            Space::Global,
            self.res.faults.as_deref_mut(),
        );
        let read_mask = if self.res.analysis.is_some() {
            self.record_global(site, buf, idx, mask, txns, false)
        } else {
            mask
        };
        let mut v = self.res.glob.read_lanes(buf, idx, read_mask);
        self.corrupt_global_load(&mut v, read_mask);
        v
    }

    /// [`WarpCtx::gld`] of a lane run stated by its caller rather than
    /// found in an index vector: lanes `lo..lo + n` load elements
    /// `start..start + n` of `buf`, the other lanes read 0.0. Algorithm 1's
    /// row loads are lane runs by construction, so they need not build the
    /// 32-lane index and mask that `gld` would scan for one.
    ///
    /// Everything `gld` does for the same access happens here, in the same
    /// order: one tick, the span path's counters, L1/L2 stream, fault draw,
    /// values and symbolic record, and the same panic text. A run `gld`
    /// would not take as a run — no lanes, elements that wrap past
    /// `u32::MAX`, or any run under hazard analysis — goes through `gld`
    /// with the equivalent index and mask.
    #[track_caller]
    pub fn gld_run(&mut self, buf: BufId, lo: usize, n: usize, start: u32) -> VF {
        let mask = LaneMask::span(lo, n);
        let wraps = n > 0 && start.checked_add(n as u32 - 1).is_none();
        if n == 0 || wraps || self.res.analysis.is_some() {
            return self.gld(buf, &(VU::lane_id() + start.wrapping_sub(lo as u32)), mask);
        }
        let site = SiteId::caller();
        self.res.tick(1);
        self.load_run(site, buf, LaneRun { lo, n, start }, mask)
    }

    /// The span path of a lane-run load, for `mask` (the run's lanes).
    #[inline]
    fn load_run(&mut self, site: SiteId, buf: BufId, run: LaneRun, mask: LaneMask) -> VF {
        if let Some(ph) = self.res.phantom {
            self.phantom_span(site, buf, run, mask, false);
            return phantom_values(ph, mask);
        }
        self.run_access(buf, run, false);
        let mut v = self.res.glob.read_run(buf, run);
        self.corrupt_global_load(&mut v, mask);
        v
    }

    /// The lane run of `idx` under `mask` when the span path may take it:
    /// not under hazard analysis, which instruments every lane.
    #[inline]
    fn span_run(&self, idx: &VU, mask: LaneMask) -> Option<LaneRun> {
        if self.res.analysis.is_some() {
            return None;
        }
        LaneRun::of(idx, mask)
    }

    /// A lane run of `buf` under phantom execution, for `mask` (the run's
    /// lanes): its transactions from the span's two ends, as
    /// [`warp_access_span`] counts them, the request recorded with its
    /// known affine form (lane stride 4 B), and the bounds checked once,
    /// with the per-lane path's panic text — at the first lane past the
    /// end for a load (lanes ascend), at the last lane for a store (lanes
    /// descend). Out of line, so the plain span path it branches from stays
    /// as small as before.
    #[inline(never)]
    fn phantom_span(
        &mut self,
        site: SiteId,
        buf: BufId,
        run: LaneRun,
        mask: LaneMask,
        is_store: bool,
    ) {
        let first = self.res.glob.buf_base(buf) + u64::from(run.start) * 4;
        let txns = phantom_access_span(
            self.res.dev,
            self.res.stats,
            first,
            run.n as u64 * 4,
            is_store,
        );
        let model = self.sector_model();
        if let Some(s) = self.res.sym.as_deref_mut() {
            let class = if is_store {
                AccessClass::GlobalStore
            } else {
                AccessClass::GlobalLoad
            };
            let base = i128::from(first) - 4 * run.lo as i128;
            s.record_affine(site, class, base, 4, mask, txns, model);
        }
        let len = self.res.glob.len(buf);
        let end = run.start as usize + run.n;
        if end > len {
            if is_store {
                write_oob(buf, len, (end - 1) as u32);
            }
            read_oob(buf, len, len.max(run.start as usize) as u32);
        }
    }

    /// Send a lane run of `buf` through the L1 and L2 as one byte span.
    fn run_access(&mut self, buf: BufId, run: LaneRun, is_store: bool) {
        let first = self.res.glob.buf_base(buf) + run.start as u64 * 4;
        warp_access_span(
            self.res.dev,
            self.res.l1,
            &mut self.res.l2,
            self.res.stats,
            first,
            run.n as u64 * 4,
            is_store,
            self.res.faults.as_deref_mut(),
        );
    }

    /// ECC-off SDC: one lane of `read_mask` takes a bit flip in its loaded
    /// value `v` when a global-load fault is drawn.
    #[inline]
    fn corrupt_global_load(&mut self, v: &mut VF, read_mask: LaneMask) {
        if let Some(c) = self.res.faults.as_deref_mut().and_then(|f| f.global_load()) {
            if let Some(lane) = faults::pick_lane(read_mask, c.pick) {
                *v = shuffle::corrupt_lane(v, lane, c.bit);
            }
        }
    }

    /// Warp global store of f32. Two active lanes writing the same element
    /// resolve to the lowest lane, deterministically.
    ///
    /// Under hazard analysis an active out-of-bounds lane is reported and
    /// its store dropped instead of panicking (see [`WarpCtx::gld`]).
    ///
    /// A lane run takes the span path described at [`WarpCtx::gld`].
    #[track_caller]
    pub fn gst(&mut self, buf: BufId, idx: &VU, val: &VF, mask: LaneMask) {
        let site = SiteId::caller();
        self.res.tick(1);
        if let Some(run) = self.span_run(idx, mask) {
            if self.res.phantom.is_some() {
                self.phantom_span(site, buf, run, mask, true);
                return;
            }
            self.run_access(buf, run, true);
            self.res.glob.write_run(buf, idx, val, mask, run);
            return;
        }
        let mut addrs = [0u64; WARP];
        self.res.glob.fill_addrs(buf, idx, mask, &mut addrs);
        if self.res.phantom.is_some() {
            let _ = val;
            let txns = phantom_access(
                self.res.dev,
                self.res.stats,
                &addrs,
                mask,
                true,
                Space::Global,
            );
            self.sym_record(site, AccessClass::GlobalStore, &addrs, mask, txns, false);
            // Check-only bounds pass in the same (descending-lane) order as
            // the real store, with byte-identical diagnostics; the data is
            // dropped.
            let len = self.res.glob.len(buf);
            for l in (0..WARP).rev() {
                if !mask.get(l) {
                    continue;
                }
                let i = idx.lane(l);
                if i as usize >= len {
                    write_oob(buf, len, i);
                }
            }
            return;
        }
        let txns = warp_access(
            self.res.dev,
            self.res.l1,
            &mut self.res.l2,
            self.res.stats,
            &addrs,
            mask,
            true,
            Space::Global,
            self.res.faults.as_deref_mut(),
        );
        let write_mask = if self.res.analysis.is_some() {
            self.record_global(site, buf, idx, mask, txns, true)
        } else {
            mask
        };
        self.res.glob.write_lanes(buf, idx, val, write_mask);
    }

    /// Record a global access with the analyzer; returns `mask` with any
    /// out-of-bounds lanes stripped. Only called while analysis is active.
    fn record_global(
        &mut self,
        site: SiteId,
        buf: BufId,
        idx: &VU,
        mask: LaneMask,
        txns: u64,
        is_store: bool,
    ) -> LaneMask {
        let len = self.res.glob.len(buf) as u32;
        let safe = LaneMask::from_fn(|l| mask.get(l) && idx.lane(l) < len);
        let active = mask.count() as u64;
        let oob = active - safe.count() as u64;
        // Ideal footprint: the active lanes' bytes packed into contiguous
        // aligned sectors — what a perfectly coalesced access would cost.
        let ideal = (active * 4)
            .div_ceil(self.res.dev.sector_bytes as u64)
            .max(1);
        let a = self.res.analysis.as_deref_mut().expect("analysis active");
        a.record_global(site, is_store, active, txns, ideal, oob);
        safe
    }

    /// The global/local coalescer's closed-form model: 32 B sectors.
    fn sector_model(&self) -> PredictModel {
        PredictModel::Sectors {
            sector_bytes: self.res.dev.sector_bytes as u64,
        }
    }

    /// Feed one global or local request's byte addresses to the symbolic
    /// collector under the sector model (phantom mode only; a no-op
    /// otherwise).
    fn sym_record(
        &mut self,
        site: SiteId,
        class: AccessClass,
        vals: &[u64; WARP],
        mask: LaneMask,
        measured: u64,
        dynamic: bool,
    ) {
        let model = self.sector_model();
        let Some(s) = self.res.sym.as_deref_mut() else {
            return;
        };
        s.record(site, class, vals, mask, measured, model, dynamic);
    }

    /// Constant-memory broadcast load: one uniform element of `buf` read
    /// through the constant cache (`__constant__` filter weights in the
    /// paper's kernels). Uniform constant-cache reads are served at
    /// register speed after the first access and do **not** produce global
    /// transactions; the issue slot is counted as one instruction.
    #[inline]
    pub fn const_load(&mut self, buf: BufId, idx: u32) -> VF {
        let mut v = [0.0];
        self.const_load_row(buf, idx, &mut v);
        VF::splat(v[0])
    }

    /// `out.len()` constant loads of `buf[start..]` as uniform scalars:
    /// a filter plane read into registers, the scalar a uniform
    /// `__constant__` read broadcasts. Each element costs what one
    /// [`WarpCtx::const_load`] (this row at length 1) does, at `start`,
    /// `start + 1`, … in turn: one tick, one instruction and one
    /// bounds-checked read, which panics at the first index out of range.
    ///
    /// In the sequential engine's direct view an in-bounds row is read
    /// with one bounds check and one copy, then ticked element by element:
    /// its reads cannot panic, so a watchdog trips at the same element
    /// with the same count. A row that leaves its buffer, and every row in
    /// the parallel engine's overlay view, is read element by element.
    #[inline]
    pub fn const_load_row(&mut self, buf: BufId, start: u32, out: &mut [f32]) {
        if let Some(src) = self.res.glob.direct_row(buf, start, out.len()) {
            match self.res.phantom {
                Some(ph) => out.fill(ph.canary),
                None => copy_short(out, src),
            }
            for _ in 0..out.len() {
                self.res.tick(1);
            }
            self.res.stats.fp_instrs += out.len() as u64;
            return;
        }
        for (j, o) in out.iter_mut().enumerate() {
            self.res.tick(1);
            self.res.stats.fp_instrs += 1;
            let v = self.res.glob.read_elem(buf, start.wrapping_add(j as u32));
            *o = match self.res.phantom {
                // Phantom: the read above keeps bounds parity; the value is
                // replaced by the canary.
                Some(ph) => ph.canary,
                None => v,
            };
        }
    }

    // ----- shared memory ----------------------------------------------------

    /// Warp shared-memory load at per-lane word indices.
    ///
    /// Under hazard analysis, active out-of-bounds lanes are reported and
    /// read 0.0 instead of panicking, and the access participates in the
    /// per-word race check.
    #[track_caller]
    pub fn sld(&mut self, idx: &VU, mask: LaneMask) -> VF {
        let site = SiteId::caller();
        self.res.tick(1);
        let eff = self.shared_safe_mask(idx, mask, 1);
        let (v, passes) = self.res.shared.load(idx, eff);
        self.res.stats.smem_accesses += 1;
        self.res.stats.smem_passes += passes;
        self.record_shared(site, idx, mask, eff, passes, 1, false);
        self.sym_words(site, AccessClass::SharedLoad, idx, eff, passes, true);
        self.shared_faulted(idx, eff, 1);
        v
    }

    /// Warp-uniform vectorized shared-memory load (`LDS.64`/`LDS.128` with
    /// every lane at word `word`, how GEMM kernels read their A operand):
    /// the `K` consecutive words as the scalars every lane holds. One
    /// (counted) access of all 32 lanes and one pass, recorded with the
    /// lanes' `K`-word footprint; an out-of-bounds read under analysis is
    /// reported for every lane and reads 0.0.
    #[track_caller]
    pub fn sld_vec<const K: usize>(&mut self, word: u32) -> [f32; K] {
        let site = SiteId::caller();
        self.res.tick(1);
        let idx = VU::splat(word);
        let eff = self.shared_safe_mask(&idx, LaneMask::ALL, K as u32);
        let (v, passes) = if eff.is_empty() {
            ([0.0; K], 0)
        } else {
            (self.res.shared.load_vec::<K>(word), 1)
        };
        self.res.stats.smem_accesses += 1;
        self.res.stats.smem_passes += passes;
        self.record_shared(site, &idx, LaneMask::ALL, eff, passes, K as u32, false);
        self.sym_words(site, AccessClass::SharedLoad, &idx, eff, passes, false);
        self.shared_faulted(&idx, eff, K as u32);
        v
    }

    /// Warp shared-memory store.
    #[track_caller]
    pub fn sst(&mut self, idx: &VU, val: &VF, mask: LaneMask) {
        let site = SiteId::caller();
        self.res.tick(1);
        let eff = self.shared_safe_mask(idx, mask, 1);
        let passes = self.res.shared.store(idx, val, eff);
        self.res.stats.smem_accesses += 1;
        self.res.stats.smem_passes += passes;
        self.record_shared(site, idx, mask, eff, passes, 1, true);
        self.sym_words(site, AccessClass::SharedStore, idx, eff, passes, true);
        self.shared_faulted(idx, eff, 1);
    }

    // The four hooks below run on every shared access. Each inlines down to
    // its plain-mode early return; its body sits in a cold function beside
    // it.

    /// SRAM-upset hook: after a warp shared access, a drawn fault flips one
    /// bit of one word the access just touched. The corruption lands in the
    /// arena (not the in-flight value), so it is observed by whichever
    /// access reads that word next — the persistence real SRAM upsets have.
    #[inline(always)]
    fn shared_faulted(&mut self, idx: &VU, eff: LaneMask, k: u32) {
        if self.res.faults.is_some() {
            self.shared_fault_draw(idx, eff, k);
        }
    }

    #[cold]
    #[inline(never)]
    fn shared_fault_draw(&mut self, idx: &VU, eff: LaneMask, k: u32) {
        let Some(c) = self
            .res
            .faults
            .as_deref_mut()
            .and_then(|f| f.shared_access())
        else {
            return;
        };
        if let Some(lane) = faults::pick_lane(eff, c.pick) {
            let word = idx.lane(lane) as usize + ((c.pick >> 32) % k as u64) as usize;
            self.res.shared.corrupt_word(word, c.bit);
        }
    }

    /// `mask` unchanged in plain mode; under analysis, active lanes whose
    /// `K`-word footprint exceeds the shared arena are stripped (reported by
    /// [`WarpCtx::record_shared`] as OOB hazards instead of panicking).
    #[inline(always)]
    fn shared_safe_mask(&self, idx: &VU, mask: LaneMask, k: u32) -> LaneMask {
        if self.res.analysis.is_none() {
            return mask;
        }
        self.shared_in_arena(idx, mask, k)
    }

    #[cold]
    #[inline(never)]
    fn shared_in_arena(&self, idx: &VU, mask: LaneMask, k: u32) -> LaneMask {
        let words = self.res.shared.words() as u64;
        LaneMask::from_fn(|l| mask.get(l) && idx.lane(l) as u64 + k as u64 <= words)
    }

    /// Feed one shared access (its pass count and per-word thread footprint)
    /// to the analyzer. No-op in plain mode.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn record_shared(
        &mut self,
        site: SiteId,
        idx: &VU,
        mask: LaneMask,
        safe: LaneMask,
        passes: u64,
        k: u32,
        is_store: bool,
    ) {
        if self.res.analysis.is_some() {
            self.record_shared_analyzed(site, idx, mask, safe, passes, k, is_store);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[cold]
    #[inline(never)]
    fn record_shared_analyzed(
        &mut self,
        site: SiteId,
        idx: &VU,
        mask: LaneMask,
        safe: LaneMask,
        passes: u64,
        k: u32,
        is_store: bool,
    ) {
        let warp_base = (self.warp_id * WARP) as u32;
        let Some(a) = self.res.analysis.as_deref_mut() else {
            return;
        };
        let mut footprint = Vec::with_capacity(safe.count() as usize * k as usize);
        for l in safe.lanes() {
            for w in 0..k {
                footprint.push((idx.lane(l) + w, warp_base + l as u32));
            }
        }
        a.record_shared(
            site,
            is_store,
            passes,
            mask.count() as u64,
            (mask.count() - safe.count()) as u64,
            &footprint,
        );
    }

    /// Feed one shared-memory request's word indices to the symbolic
    /// collector (phantom mode only): under the bank model, or, for a
    /// vectorized load (`banked` false), whose pass count is a segment
    /// property, classified and hashed with no closed-form obligation.
    #[inline(always)]
    fn sym_words(
        &mut self,
        site: SiteId,
        class: AccessClass,
        idx: &VU,
        mask: LaneMask,
        measured: u64,
        banked: bool,
    ) {
        if self.res.sym.is_some() {
            self.sym_words_recorded(site, class, idx, mask, measured, banked);
        }
    }

    #[cold]
    #[inline(never)]
    fn sym_words_recorded(
        &mut self,
        site: SiteId,
        class: AccessClass,
        idx: &VU,
        mask: LaneMask,
        measured: u64,
        banked: bool,
    ) {
        let banks = self.res.dev.smem_banks as u32;
        let Some(s) = self.res.sym.as_deref_mut() else {
            return;
        };
        let model = if banked {
            PredictModel::Banks { banks }
        } else {
            PredictModel::Measured
        };
        s.record(
            site,
            class,
            &idx.0.map(u64::from),
            mask,
            measured,
            model,
            false,
        );
    }

    // ----- local memory (spill space for PrivArray) -------------------------

    /// Allocate `words` per-thread local words for this warp; returns the
    /// base *slot* used by [`WarpCtx::local_access`].
    pub(crate) fn local_alloc(&mut self, words: u64) -> u64 {
        let slot = self.local_next;
        self.local_next += words;
        assert!(
            self.local_next * 128 <= LOCAL_WARP_SPAN,
            "local memory overflow: >255 spill words per thread"
        );
        slot
    }

    /// Issue a local-memory access for per-lane word indices relative to a
    /// [`WarpCtx::local_alloc`] base. Local memory is interleaved per warp:
    /// word `w` of lane `l` lives at `base + w·128 + l·4`, so a *uniform*
    /// index is fully coalesced and a divergent one scatters — exactly the
    /// hardware layout that makes dynamically indexed private arrays
    /// expensive. `dynamic` marks `_dyn` accessor traffic for the
    /// register-promotability pass.
    #[track_caller]
    pub(crate) fn local_access(
        &mut self,
        slot: u64,
        idx: &VU,
        mask: LaneMask,
        is_store: bool,
        dynamic: bool,
    ) {
        let site = SiteId::caller();
        self.res.tick(1);
        let mut addrs = [0u64; WARP];
        for l in mask.lanes() {
            addrs[l] = self.local_base + (slot + idx.lane(l) as u64) * 128 + l as u64 * 4;
        }
        if self.res.phantom.is_some() {
            let txns = phantom_access(
                self.res.dev,
                self.res.stats,
                &addrs,
                mask,
                is_store,
                Space::Local,
            );
            let class = if is_store {
                AccessClass::LocalStore
            } else {
                AccessClass::LocalLoad
            };
            self.sym_record(site, class, &addrs, mask, txns, dynamic);
            return;
        }
        let txns = warp_access(
            self.res.dev,
            self.res.l1,
            &mut self.res.l2,
            self.res.stats,
            &addrs,
            mask,
            is_store,
            Space::Local,
            self.res.faults.as_deref_mut(),
        );
        if let Some(a) = self.res.analysis.as_deref_mut() {
            a.record_local(site, is_store, mask.count() as u64, txns, dynamic);
        }
    }
}

/// What a phantom global load returns: lane `l` reads `canary + l` when
/// active, 0.0 otherwise.
fn phantom_values(ph: PhantomConfig, mask: LaneMask) -> VF {
    VF::from_fn(|l| {
        if mask.get(l) {
            ph.canary + l as f32
        } else {
            0.0
        }
    })
}

/// A block's on-chip state: its L1 and its shared-memory arena. Kept
/// across blocks and launches, and made equal to a fresh block's state by
/// [`OnChip::renew`] before each block runs.
#[derive(Debug)]
struct OnChip {
    l1: Option<SectoredCache>,
    shared: SharedMem,
}

impl OnChip {
    fn new() -> Self {
        OnChip {
            l1: None,
            shared: SharedMem::new(0, 1),
        }
    }

    /// The L1 and shared arena a fresh block sees on `dev` with
    /// `shared_words` of shared memory: the L1 reset (or rebuilt when
    /// `dev`'s cache geometry changed), the arena resized and zeroed.
    fn renew(
        &mut self,
        dev: &DeviceConfig,
        shared_words: usize,
    ) -> (&mut SectoredCache, &mut SharedMem) {
        self.shared.reset(shared_words, dev.smem_banks);
        (renew(&mut self.l1, l1_geometry(dev)), &mut self.shared)
    }
}

/// Recyclable per-block working state for the parallel engine: the trace
/// arena, the store-buffer page tables, the on-chip state and the symbolic
/// collector. Pooled per [`GpuSim`] and recycled across blocks *and*
/// launches — phase 1 hands each worker a private stash, phase 2 returns
/// drained (capacity-retaining) scratch to the pool — so steady-state
/// launches allocate nothing per block.
#[derive(Debug)]
struct BlockScratch {
    trace: BlockTrace,
    store: StoreBuffer,
    on_chip: OnChip,
    /// Used by phantom launches only; arrives cleared.
    sym: SymBlockCollector,
}

impl BlockScratch {
    /// Fresh scratch whose store buffer is pre-sized for roughly
    /// `hint_words` buffered words (the launch's per-block output share).
    fn fresh(hint_words: usize) -> Self {
        BlockScratch {
            trace: BlockTrace::new(),
            store: StoreBuffer::with_footprint_hint(hint_words),
            on_chip: OnChip::new(),
            sym: SymBlockCollector::for_block(),
        }
    }
}

/// Everything one block produces in the parallel functional phase.
struct BlockOutcome {
    stats: KernelStats,
    /// The block's scratch, holding its recorded trace and buffered stores.
    scratch: BlockScratch,
    /// Hazard events, present only under an analyzed launch; merged into
    /// the launch collector in block-linear order during phase 2, so
    /// reports are identical across [`LaunchMode`]s.
    collector: Option<BlockCollector>,
    /// Fault-injection state, present only when a [`FaultPlan`] is armed;
    /// its log merges in block-linear order during phase 2, like hazards.
    faults: Option<BlockFaults>,
}

/// Run one block functionally against a memory snapshot, recording its
/// L2-bound sector stream and buffering its stores into the (possibly
/// recycled) `scratch`.
fn run_block_traced(
    dev: &DeviceConfig,
    mem: &GlobalMem,
    cfg: &LaunchConfig,
    kernel: &(impl Fn(&mut BlockCtx<'_>) + Sync),
    linear: u64,
    env: LaunchEnv,
    scratch: BlockScratch,
) -> BlockOutcome {
    let BlockScratch {
        mut trace,
        store,
        mut on_chip,
        mut sym,
    } = scratch;
    debug_assert!(
        trace.is_empty() && store.is_empty() && sym.site_count() == 0,
        "scratch arrives drained"
    );
    let mut stats = KernelStats::default();
    let mut collector = env.analyze.then(|| BlockCollector::new(linear));
    let mut faults = env
        .faults
        .map(|p| BlockFaults::new(&p, env.launch_seq, linear));
    let (l1, shared) = on_chip.renew(dev, cfg.shared_words);
    let mut blk = BlockCtx {
        res: Resources {
            dev,
            glob: GlobalView::Overlay { base: mem, store },
            l1,
            l2: L2Sink::Deferred(&mut trace),
            stats: &mut stats,
            shared,
            analysis: collector.as_mut(),
            faults: faults.as_mut(),
            phantom: env.phantom,
            sym: env.phantom.map(|_| &mut sym),
            watchdog: env.watchdog.map(|budget| Watchdog { budget, issued: 0 }),
        },
        block_idx: cfg.coords(linear),
        grid_dim: cfg.grid,
        block_dim: cfg.block,
        block_linear: linear,
    };
    kernel(&mut blk);
    let GlobalView::Overlay { store, .. } = blk.res.glob else {
        unreachable!("traced blocks always run on an overlay view")
    };
    BlockOutcome {
        stats,
        scratch: BlockScratch {
            trace,
            store,
            on_chip,
            sym,
        },
        collector,
        faults,
    }
}

/// Recorder plus thresholds for an analysis-enabled simulator.
#[derive(Debug)]
struct AnalysisState {
    cfg: AnalysisConfig,
    collector: LaunchCollector,
}

/// Canary plus the accumulating symbolic collector for a phantom-enabled
/// simulator.
#[derive(Debug)]
struct PhantomState {
    cfg: PhantomConfig,
    collector: SymBlockCollector,
}

/// The simulated GPU: a device description plus its global memory.
#[derive(Debug)]
pub struct GpuSim {
    /// Hardware parameters (cache geometry, bandwidths, clocks).
    pub device: DeviceConfig,
    /// Device global memory.
    pub mem: GlobalMem,
    mode: LaunchMode,
    parallel_threads: Option<usize>,
    analysis: Option<AnalysisState>,
    phantom: Option<PhantomState>,
    faults: Option<FaultPlan>,
    fault_log: FaultLog,
    watchdog_budget: Option<u64>,
    launch_seq: u64,
    spans: Option<SpanConfig>,
    span_label: String,
    launch_spans: Vec<LaunchSpanRecord>,
    /// Recycled per-block scratch (trace arenas, store-buffer tables,
    /// on-chip state) for the parallel engine, persisting across launches.
    scratch_pool: Vec<BlockScratch>,
    /// The launch-wide L2, kept across launches and renewed at the start
    /// of each (built on the first launch, rebuilt when `device`'s L2
    /// geometry changes). Phantom launches leave it alone.
    l2: Option<SectoredCache>,
    /// The sequential engine's on-chip state, renewed for every block.
    on_chip: OnChip,
}

impl GpuSim {
    /// A simulator for the given device.
    pub fn new(device: DeviceConfig) -> Self {
        GpuSim {
            device,
            mem: GlobalMem::new(),
            mode: LaunchMode::default(),
            parallel_threads: None,
            analysis: None,
            phantom: None,
            faults: None,
            fault_log: FaultLog::default(),
            watchdog_budget: None,
            launch_seq: 0,
            spans: None,
            span_label: String::new(),
            launch_spans: Vec::new(),
            scratch_pool: Vec::new(),
            l2: None,
            on_chip: OnChip::new(),
        }
    }

    /// An RTX 2080 Ti simulator (the paper's platform).
    pub fn rtx2080ti() -> Self {
        GpuSim::new(DeviceConfig::rtx2080ti())
    }

    /// Make this simulator equal to [`GpuSim::new`] on its `device` with the
    /// same configuration — launch mode, worker threads, watchdog budget,
    /// fault plan and span, analysis and phantom settings: a fresh, empty
    /// [`GlobalMem`], the launch sequence at 0, and the fault log, spans,
    /// span label and collectors empty. The built L2, the on-chip state
    /// and the scratch pool are kept; every launch renews them anyway, so
    /// no counter can tell.
    pub fn reset(&mut self) {
        let GpuSim {
            device: _,
            mem,
            mode: _,
            parallel_threads: _,
            analysis,
            phantom,
            faults: _,
            fault_log,
            watchdog_budget: _,
            launch_seq,
            spans: _,
            span_label,
            launch_spans,
            scratch_pool: _,
            l2: _,
            on_chip: _,
        } = self;
        *mem = GlobalMem::new();
        *launch_seq = 0;
        *fault_log = FaultLog::default();
        span_label.clear();
        launch_spans.clear();
        if let Some(a) = analysis {
            a.collector = LaunchCollector::default();
        }
        if let Some(p) = phantom {
            p.collector = SymBlockCollector::default();
        }
    }

    /// The engine used by [`GpuSim::launch`].
    pub fn launch_mode(&self) -> LaunchMode {
        self.mode
    }

    /// Select the engine used by [`GpuSim::launch`].
    pub fn set_launch_mode(&mut self, mode: LaunchMode) {
        self.mode = mode;
    }

    /// Builder-style [`GpuSim::set_launch_mode`].
    pub fn with_launch_mode(mut self, mode: LaunchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Override the worker-thread count for [`LaunchMode::Parallel`]
    /// (`None` restores the default: `MEMCONV_THREADS` or the host's
    /// available parallelism). Thread count never affects results — only
    /// wall-clock time.
    pub fn set_parallel_threads(&mut self, threads: Option<usize>) {
        self.parallel_threads = threads;
    }

    /// Arm (`Some`) or disarm (`None`) deterministic fault injection for
    /// subsequent launches. Off by default; when off, every instrumented
    /// path is byte-for-byte the plain path (proptest-pinned). Injections
    /// accumulate in the log drained by [`GpuSim::take_fault_log`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// Builder-style [`GpuSim::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The launch sequence number: the count of launches this simulator
    /// has started (including failed [`GpuSim::try_launch`] attempts).
    /// Fault draws are keyed by `(plan.seed, launch_seq, block)`, so the
    /// sequence number namespaces each launch's fault stream.
    pub fn launch_seq(&self) -> u64 {
        self.launch_seq
    }

    /// Override the launch sequence number for subsequent launches. A
    /// fleet scheduler that creates a fresh simulator per dispatch uses
    /// this to give every `(group, attempt)` a private fault-stream
    /// namespace: without it each fresh sim would restart at 0 and a
    /// retry would replay the identical faults, defeating the transient
    /// model that lets bounded retries converge. The next launch draws
    /// from stream `seq + 1`.
    pub fn set_launch_seq(&mut self, seq: u64) {
        self.launch_seq = seq;
    }

    /// Injection counts accumulated since the last
    /// [`GpuSim::take_fault_log`]. Engine- and thread-count-independent
    /// (merged block-linearly, like hazard reports).
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Drain and return the accumulated injection log.
    pub fn take_fault_log(&mut self) -> FaultLog {
        std::mem::take(&mut self.fault_log)
    }

    /// Enable (`Some`) or disable (`None`) span recording for subsequent
    /// launches. Off by default; when on, every successful launch appends
    /// a [`LaunchSpanRecord`] (per-launch and per-block counter deltas)
    /// drained by [`GpuSim::take_launch_spans`]. Recording never changes
    /// [`KernelStats`] — it only snapshots the accumulator — and the
    /// recorded deltas are bit-identical across [`LaunchMode`]s and thread
    /// counts (see [`crate::obs`]).
    pub fn set_span_recording(&mut self, cfg: Option<SpanConfig>) {
        self.spans = cfg;
    }

    /// Builder-style [`GpuSim::set_span_recording`].
    pub fn with_span_recording(mut self, cfg: SpanConfig) -> Self {
        self.spans = Some(cfg);
        self
    }

    /// `true` while span recording is on.
    pub fn span_recording_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Drain and return the span records accumulated since recording was
    /// enabled (or last drained), in launch order.
    pub fn take_launch_spans(&mut self) -> Vec<LaunchSpanRecord> {
        std::mem::take(&mut self.launch_spans)
    }

    /// Set the attribution label stamped on subsequent launches'
    /// [`LaunchSpanRecord`]s (see [`LaunchSpanRecord::label`]). The label
    /// persists until changed; pass an empty string to clear it. Purely
    /// observational: it never affects execution, counters, or timing.
    pub fn set_span_label(&mut self, label: impl Into<String>) {
        self.span_label = label.into();
    }

    /// Override the per-block instruction budget. `Some(budget)` arms the
    /// watchdog for **all** launches (plain [`GpuSim::launch`] then panics
    /// on a trip; [`GpuSim::try_launch`] reports
    /// [`LaunchError::Timeout`]). `None` (the default) leaves plain
    /// launches unguarded — bit-identical to pre-watchdog behavior — while
    /// [`GpuSim::try_launch`] falls back to
    /// [`DEFAULT_BLOCK_INSTRUCTION_BUDGET`].
    pub fn set_watchdog_budget(&mut self, budget: Option<u64>) {
        self.watchdog_budget = budget;
    }

    /// The configured per-block instruction budget override, if any.
    pub fn watchdog_budget(&self) -> Option<u64> {
        self.watchdog_budget
    }

    /// Enable (`Some`) or disable (`None`) hazard analysis for subsequent
    /// launches. While enabled, every launch records per-site events which
    /// accumulate until [`GpuSim::take_hazard_report`] drains them —
    /// convenient for algorithms that issue several launches internally.
    /// Counters stay bit-identical to plain launches in every
    /// [`LaunchMode`]; the one behavioral change is that active
    /// out-of-bounds lanes are reported instead of panicking.
    pub fn set_analysis(&mut self, cfg: Option<AnalysisConfig>) {
        self.analysis = cfg.map(|cfg| AnalysisState {
            cfg,
            collector: LaunchCollector::default(),
        });
    }

    /// Builder-style [`GpuSim::set_analysis`].
    pub fn with_analysis(mut self, cfg: AnalysisConfig) -> Self {
        self.set_analysis(Some(cfg));
        self
    }

    /// `true` while hazard analysis is recording.
    pub fn analysis_enabled(&self) -> bool {
        self.analysis.is_some()
    }

    /// Enable (`Some`) or disable (`None`) phantom (data-free) execution
    /// for subsequent launches — see [`crate::sym`]. While enabled, every
    /// launch runs through [`crate::memory::phantom_access`]: request and
    /// transaction counters are produced exactly as in a real run (for
    /// data-independent kernels), but no tensor data is read or written —
    /// loads return the canary, stores are bounds-checked and dropped —
    /// and every access site accumulates symbolic state drained by
    /// [`GpuSim::take_sym_report`].
    ///
    /// Phantom mode is mutually exclusive with hazard analysis and fault
    /// injection (both instrument the real datapath this mode removes);
    /// arming it while either is active panics.
    pub fn set_phantom(&mut self, cfg: Option<PhantomConfig>) {
        if cfg.is_some() {
            assert!(
                self.analysis.is_none() && self.faults.is_none(),
                "phantom mode excludes hazard analysis and fault injection"
            );
        }
        self.phantom = cfg.map(|cfg| PhantomState {
            cfg,
            collector: SymBlockCollector::default(),
        });
    }

    /// Builder-style [`GpuSim::set_phantom`].
    pub fn with_phantom(mut self, cfg: PhantomConfig) -> Self {
        self.set_phantom(Some(cfg));
        self
    }

    /// `true` while phantom execution is armed.
    pub fn phantom_enabled(&self) -> bool {
        self.phantom.is_some()
    }

    /// Freeze and drain the symbolic state accumulated since phantom mode
    /// was enabled (or last drained) into a [`SymReport`]; `None` when
    /// phantom mode is disabled. Like hazard reports, the result is
    /// bit-identical across [`LaunchMode`]s and thread counts.
    pub fn take_sym_report(&mut self) -> Option<SymReport> {
        let st = self.phantom.as_mut()?;
        let collector = std::mem::take(&mut st.collector);
        Some(collector.into_report())
    }

    /// Run the lint passes over everything recorded since analysis was
    /// enabled (or last drained), reset the recorder, and return the
    /// report; `None` when analysis is disabled.
    pub fn take_hazard_report(&mut self) -> Option<HazardReport> {
        let st = self.analysis.as_mut()?;
        let report = st.collector.report(&st.cfg);
        st.collector = LaunchCollector::default();
        Some(report)
    }

    /// One-shot analyzed launch: records the execution, runs every lint
    /// pass ([`crate::analysis`]), and returns the launch counters together
    /// with the [`HazardReport`]. Enables analysis with default thresholds
    /// if it was not already on (and restores the previous state after).
    pub fn analyze(
        &mut self,
        cfg: &LaunchConfig,
        kernel: impl Fn(&mut BlockCtx<'_>) + Sync,
    ) -> (KernelStats, HazardReport) {
        let was_enabled = self.analysis.is_some();
        if !was_enabled {
            self.set_analysis(Some(AnalysisConfig::default()));
        }
        let stats = self.launch(cfg, kernel);
        let report = self.take_hazard_report().expect("analysis enabled");
        if !was_enabled {
            self.set_analysis(None);
        }
        (stats, report)
    }

    /// Launch a kernel over the grid and return the counters for the
    /// launch, extrapolated if sampled.
    ///
    /// Blocks are independent, as in CUDA: the kernel closure must not rely
    /// on reading global data written by another block of the same launch.
    /// Under the sequential engine each block sees a fresh L1 and the one
    /// launch-wide L2; the parallel engine reproduces the exact same
    /// counters and final memory by trace replay (see [`LaunchMode`]).
    pub fn launch(
        &mut self,
        cfg: &LaunchConfig,
        kernel: impl Fn(&mut BlockCtx<'_>) + Sync,
    ) -> KernelStats {
        cfg.validate(&self.device);
        self.launch_inner(cfg, &kernel, self.watchdog_budget)
    }

    /// Fallible launch: like [`GpuSim::launch`], but every failure mode
    /// surfaces as a typed [`LaunchError`] instead of a panic, and a
    /// per-block instruction-budget watchdog is always armed
    /// ([`DEFAULT_BLOCK_INSTRUCTION_BUDGET`] unless overridden via
    /// [`GpuSim::set_watchdog_budget`]) so hangs become
    /// [`LaunchError::Timeout`].
    ///
    /// With no fault plan and no explicit budget, a successful `try_launch`
    /// returns stats and final memory bit-identical to [`GpuSim::launch`]
    /// in both [`LaunchMode`]s (proptest-pinned): the watchdog only counts.
    ///
    /// Under [`LaunchMode::Parallel`], an unclassified block panic is
    /// retried once on the sequential reference engine (graceful
    /// degradation — the parallel engine's overlay/trace infrastructure is
    /// then out of the loop); deterministic errors (invalid config, OOB,
    /// timeout) are reported directly. Retries advance the launch sequence
    /// number, so injected faults re-draw rather than repeat.
    pub fn try_launch(
        &mut self,
        cfg: &LaunchConfig,
        kernel: impl Fn(&mut BlockCtx<'_>) + Sync,
    ) -> Result<KernelStats, LaunchError> {
        cfg.try_validate(&self.device)?;
        let budget = Some(
            self.watchdog_budget
                .unwrap_or(DEFAULT_BLOCK_INSTRUCTION_BUDGET),
        );
        let first = self.launch_caught(cfg, &kernel, budget);
        match first {
            Err(LaunchError::BlockPanic(_)) if self.mode == LaunchMode::Parallel => {
                let prev = self.mode;
                self.mode = LaunchMode::Sequential;
                let second = self.launch_caught(cfg, &kernel, budget);
                self.mode = prev;
                second
            }
            other => other,
        }
    }

    /// One guarded engine run: catch any panic below and classify it.
    fn launch_caught(
        &mut self,
        cfg: &LaunchConfig,
        kernel: &(impl Fn(&mut BlockCtx<'_>) + Sync),
        watchdog: Option<u64>,
    ) -> Result<KernelStats, LaunchError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.launch_inner(cfg, kernel, watchdog)
        }))
        .map_err(classify_panic)
    }

    /// Shared launch body: resolve sampling, run the selected engine with
    /// the given watchdog budget, extrapolate. Panics propagate to the
    /// caller ([`GpuSim::launch`] lets them fly; [`GpuSim::try_launch`]
    /// classifies them).
    fn launch_inner(
        &mut self,
        cfg: &LaunchConfig,
        kernel: &(impl Fn(&mut BlockCtx<'_>) + Sync),
        watchdog: Option<u64>,
    ) -> KernelStats {
        self.launch_seq += 1;
        if self.phantom.is_some() {
            assert!(
                self.analysis.is_none() && self.faults.is_none(),
                "phantom mode excludes hazard analysis and fault injection"
            );
        }
        let env = LaunchEnv {
            analyze: self.analysis.is_some(),
            faults: self.faults.filter(|p| !p.is_empty()),
            phantom: self.phantom.as_ref().map(|p| p.cfg),
            launch_seq: self.launch_seq,
            watchdog,
        };
        let total = cfg.num_blocks();
        let resolved = match cfg.sample {
            SampleMode::Auto(target) => SampleMode::auto(total, target),
            other => other,
        };

        // Span scratch lives on this frame: a panicking launch unwinds past
        // it, so partial spans are never committed.
        let mut scratch = self.spans.as_ref().map(SpanScratch::new);
        let (stats, simulated) = match self.mode {
            LaunchMode::Sequential => {
                self.run_sequential(cfg, resolved, kernel, env, scratch.as_mut())
            }
            LaunchMode::Parallel => self.run_parallel(cfg, resolved, kernel, env, scratch.as_mut()),
        };

        let mut out = if simulated < total {
            stats.extrapolated(total, simulated)
        } else {
            stats
        };
        out.launches = 1;
        out.threads = cfg.num_threads();
        out.sim_blocks = simulated;
        if let Some(s) = scratch {
            self.launch_spans.push(LaunchSpanRecord {
                seq: self.launch_seq,
                label: self.span_label.clone(),
                grid: cfg.grid,
                block_dim: cfg.block,
                total_blocks: total,
                sim_blocks: simulated,
                stats: out.clone(),
                flush: s.flush,
                blocks: s.blocks,
                blocks_omitted: s.omitted,
            });
        }
        out
    }

    /// The reference engine: every selected block runs to completion, in
    /// block-linear order, directly against memory and the launch L2.
    fn run_sequential(
        &mut self,
        cfg: &LaunchConfig,
        resolved: SampleMode,
        kernel: &(impl Fn(&mut BlockCtx<'_>) + Sync),
        env: LaunchEnv,
        mut scratch: Option<&mut SpanScratch>,
    ) -> (KernelStats, u64) {
        let mut stats = KernelStats::default();
        let mut l2 = launch_l2(&mut self.l2, &self.device, env);
        // Phantom launches never reach the L2: their sink is a trace that
        // stays empty.
        let mut no_l2 = BlockTrace::new();
        // One symbolic collector serves every block, merged and cleared
        // after each.
        let mut sym = env.phantom.map(|_| SymBlockCollector::for_block());
        let mut simulated = 0u64;
        for linear in resolved.selected(cfg.num_blocks()) {
            simulated += 1;
            let snapshot = scratch.as_ref().map(|_| stats.clone());
            let mut collector = env.analyze.then(|| BlockCollector::new(linear));
            let mut faults = env
                .faults
                .map(|p| BlockFaults::new(&p, env.launch_seq, linear));
            let (l1, shared) = self.on_chip.renew(&self.device, cfg.shared_words);
            let mut blk = BlockCtx {
                res: Resources {
                    dev: &self.device,
                    glob: GlobalView::Direct(&mut self.mem),
                    l1,
                    l2: match l2.as_deref_mut() {
                        Some(l2) => L2Sink::Inline(l2),
                        None => L2Sink::Deferred(&mut no_l2),
                    },
                    stats: &mut stats,
                    shared,
                    analysis: collector.as_mut(),
                    faults: faults.as_mut(),
                    phantom: env.phantom,
                    sym: sym.as_mut(),
                    watchdog: env.watchdog.map(|budget| Watchdog { budget, issued: 0 }),
                },
                block_idx: cfg.coords(linear),
                grid_dim: cfg.grid,
                block_dim: cfg.block,
                block_linear: linear,
            };
            kernel(&mut blk);
            drop(blk);
            if let Some(c) = collector {
                self.analysis
                    .as_mut()
                    .expect("analysis enabled")
                    .collector
                    .merge(c);
            }
            if let Some(f) = faults {
                self.fault_log.merge(f.log());
            }
            if let Some(s) = sym.as_mut() {
                self.phantom
                    .as_mut()
                    .expect("phantom enabled")
                    .collector
                    .merge(s);
                s.clear();
            }
            if let Some(s) = scratch.as_deref_mut() {
                let before = snapshot.expect("snapshot taken when recording");
                s.push_block(linear, stats.delta_since(&before));
            }
        }
        debug_assert!(no_l2.is_empty(), "a phantom launch reached the L2");
        end_launch(l2, &mut stats, scratch);
        (stats, simulated)
    }

    /// The two-phase engine. Phase 1 runs batches of blocks functionally in
    /// parallel; phase 2 commits each batch — per-block counters, L2 trace
    /// replay, then store-buffer application — in block-linear order, so
    /// every result is bit-identical to [`GpuSim::run_sequential`].
    /// Batching bounds trace/store-buffer memory on huge grids.
    fn run_parallel(
        &mut self,
        cfg: &LaunchConfig,
        resolved: SampleMode,
        kernel: &(impl Fn(&mut BlockCtx<'_>) + Sync),
        env: LaunchEnv,
        mut scratch: Option<&mut SpanScratch>,
    ) -> (KernelStats, u64) {
        let threads = self
            .parallel_threads
            .unwrap_or_else(memconv_par::num_threads)
            .max(1);
        let batch_cap = threads * 8;
        let mut stats = KernelStats::default();
        let mut l2 = launch_l2(&mut self.l2, &self.device, env);
        let mut simulated = 0u64;
        // Pre-size fresh store buffers for a block's fair share of the
        // allocated footprint (recycled buffers keep their earned size).
        let hint_words = self.mem.total_elems() / cfg.num_blocks().max(1) as usize;
        let mut pool = std::mem::take(&mut self.scratch_pool);

        let mut selected = resolved.selected(cfg.num_blocks());
        loop {
            let batch: Vec<u64> = selected.by_ref().take(batch_cap).collect();
            if batch.is_empty() {
                break;
            }
            // Phase 1 (parallel): functional execution against a snapshot.
            // Each worker grabs a private stash of recycled scratch up
            // front (one mutex hit per worker per batch, never per block).
            let outcomes = {
                let dev = &self.device;
                let mem = &self.mem;
                let stash_size = batch.len().div_ceil(threads).max(1);
                let shared = Mutex::new(std::mem::take(&mut pool));
                let (outcomes, stashes) = memconv_par::map_indexed_scoped(
                    batch.len(),
                    threads,
                    || {
                        let mut g = shared.lock().unwrap_or_else(|e| e.into_inner());
                        let keep = g.len().min(stash_size);
                        let at = g.len() - keep;
                        g.split_off(at)
                    },
                    |i, stash: &mut Vec<BlockScratch>| {
                        let scratch = stash
                            .pop()
                            .unwrap_or_else(|| BlockScratch::fresh(hint_words));
                        run_block_traced(dev, mem, cfg, kernel, batch[i], env, scratch)
                    },
                );
                pool = shared.into_inner().unwrap_or_else(|e| e.into_inner());
                for mut s in stashes {
                    pool.append(&mut s);
                }
                outcomes
            };
            // Phase 2 (sequential, block-linear order): commit. Hazard
            // collectors and fault logs merge here too, so reports never
            // depend on the engine or thread count.
            for (&linear, mut outcome) in batch.iter().zip(outcomes) {
                simulated += 1;
                let snapshot = scratch.as_ref().map(|_| stats.clone());
                stats += &outcome.stats;
                match l2.as_deref_mut() {
                    Some(l2) => replay_trace(&outcome.scratch.trace, l2, &mut stats),
                    None => debug_assert!(outcome.scratch.trace.is_empty()),
                }
                outcome.scratch.store.apply_and_clear(&mut self.mem);
                outcome.scratch.trace.clear();
                // The symbolic collector merges block-linearly too, so
                // `SymReport`s are identical across launch modes.
                if let Some(p) = self.phantom.as_mut() {
                    p.collector.merge(&outcome.scratch.sym);
                    outcome.scratch.sym.clear();
                }
                pool.push(outcome.scratch);
                if let Some(c) = outcome.collector {
                    self.analysis
                        .as_mut()
                        .expect("analysis enabled")
                        .collector
                        .merge(c);
                }
                if let Some(f) = outcome.faults {
                    self.fault_log.merge(f.log());
                }
                if let Some(s) = scratch.as_deref_mut() {
                    let before = snapshot.expect("snapshot taken when recording");
                    s.push_block(linear, stats.delta_since(&before));
                }
            }
        }
        self.scratch_pool = pool;
        end_launch(l2, &mut stats, scratch);
        (stats, simulated)
    }
}

/// The launch-wide L2 kept in `slot`, renewed for a launch on `dev`; none
/// for a phantom launch, which never reaches it and so neither builds nor
/// renews it.
fn launch_l2<'a>(
    slot: &'a mut Option<SectoredCache>,
    dev: &DeviceConfig,
    env: LaunchEnv,
) -> Option<&'a mut SectoredCache> {
    match env.phantom {
        Some(_) => None,
        None => Some(renew(slot, l2_geometry(dev))),
    }
}

/// End a launch: write back the L2's dirty sectors (a launch without an L2
/// has none), recording the flush's counters in the span scratch.
fn end_launch(
    l2: Option<&mut SectoredCache>,
    stats: &mut KernelStats,
    scratch: Option<&mut SpanScratch>,
) {
    let pre_flush = scratch.as_ref().map(|_| stats.clone());
    if let Some(l2) = l2 {
        flush_l2(l2, stats);
    }
    if let Some(s) = scratch {
        s.flush = stats.delta_since(&pre_flush.expect("snapshot taken when recording"));
    }
}

/// Turn a caught block panic into a typed [`LaunchError`]: a
/// [`WatchdogTrip`] payload means timeout; payload text mentioning "OOB"
/// means an out-of-bounds device access (the simulator's OOB asserts all
/// carry that marker); anything else is an opaque block panic.
///
/// Public so dispatchers that wrap the *panicking* launch path (e.g.
/// baseline kernels without a `try_` entry point) in `catch_unwind` can
/// classify the payload the same way [`GpuSim::try_launch`] does.
pub fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> LaunchError {
    if let Some(trip) = payload.downcast_ref::<WatchdogTrip>() {
        return LaunchError::Timeout {
            issued: trip.issued,
            budget: trip.budget,
            hang_injected: trip.hang_injected,
        };
    }
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    if msg.contains("OOB") {
        LaunchError::OutOfBounds(msg)
    } else {
        LaunchError::BlockPanic(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saxpy_functional_and_counted() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let n = 256u32;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let bx = sim.mem.upload(&x);
        let by = sim.mem.upload(&y);
        let bo = sim.mem.alloc(n as usize);

        let cfg = LaunchConfig::linear(n / 64, 64);
        let stats = sim.launch(&cfg, |blk| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                let mask = tid.lt_scalar(n);
                let xv = w.gld(bx, &tid, mask);
                let yv = w.gld(by, &tid, mask);
                let r = w.fma(xv, VF::splat(3.0), yv);
                w.gst(bo, &tid, &r, mask);
            });
        });

        let out = sim.mem.download(bo);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32 + 2.0 * i as f32);
        }
        // 8 warps × 2 loads × 4 sectors
        assert_eq!(stats.gld_requests, 16);
        assert_eq!(stats.gld_transactions, 64);
        assert_eq!(stats.gst_transactions, 32);
        assert_eq!(stats.fma_instrs, 8);
        assert_eq!(stats.threads, 256);
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.sim_blocks, 4);
    }

    #[test]
    fn shared_memory_roundtrip_across_warps() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let bo = sim.mem.alloc(64);
        let cfg = LaunchConfig::linear(1, 64).with_shared(64);
        sim.launch(&cfg, |blk| {
            // phase 1: each warp writes its lane pattern reversed
            blk.each_warp(|w| {
                let tid = w.thread_idx();
                let idx = VU::from_fn(|l| 63 - (w.warp_id * 32 + l) as u32);
                let val = tid.to_f32();
                w.sst(&idx, &val, LaneMask::ALL);
            });
            blk.barrier();
            // phase 2: warps read back linearly; warp 0 sees warp 1's data.
            blk.each_warp(|w| {
                let tid = w.thread_idx();
                let v = w.sld(&tid, LaneMask::ALL);
                w.gst(bo, &tid, &v, LaneMask::ALL);
            });
        });
        let out = sim.mem.download(bo);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (63 - i) as f32, "i={i}");
        }
    }

    #[test]
    fn sampled_launch_extrapolates_traffic() {
        let run = |sample| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny());
            let n = 32 * 64u32;
            let bi = sim.mem.alloc(n as usize);
            let bo = sim.mem.alloc(n as usize);
            let cfg = LaunchConfig::linear(64, 32).with_sample(sample);
            sim.launch(&cfg, |blk| {
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    let v = w.gld(bi, &tid, LaneMask::ALL);
                    w.gst(bo, &tid, &v, LaneMask::ALL);
                });
            })
        };
        let full = run(SampleMode::Full);
        let sampled = run(SampleMode::Stride(8));
        assert_eq!(full.gld_transactions, sampled.gld_transactions);
        assert_eq!(full.gst_transactions, sampled.gst_transactions);
        assert_eq!(full.threads, sampled.threads);
        assert_eq!(full.sim_blocks, 64);
        assert_eq!(sampled.sim_blocks, 8);
    }

    #[test]
    fn grid_indices_cover_all_blocks() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let bo = sim.mem.alloc(2 * 3 * 4);
        let cfg = LaunchConfig::grid3d(4, 3, 2, 32);
        sim.launch(&cfg, |blk| {
            let (bx, by, bz) = blk.block_idx;
            let linear = blk.block_linear();
            blk.each_warp(|w| {
                let idx = VU::splat(linear as u32);
                let val = VF::splat((bz * 100 + by * 10 + bx) as f32);
                w.gst(bo, &idx, &val, LaneMask::first(1));
            });
        });
        let out = sim.mem.download(bo).to_vec();
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 1.0);
        assert_eq!(out[4], 10.0);
        assert_eq!(out[23], 123.0); // bz=1, by=2, bx=3
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn non_warp_multiple_block_rejected() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        sim.launch(&LaunchConfig::linear(1, 48), |_| {});
    }

    #[test]
    fn store_conflict_resolves_to_lowest_lane() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let bo = sim.mem.alloc(1);
        sim.launch(&LaunchConfig::linear(1, 32), |blk| {
            blk.each_warp(|w| {
                let idx = VU::splat(0);
                let val = w.lane_id().to_f32();
                w.gst(bo, &idx, &val, LaneMask::ALL);
            });
        });
        assert_eq!(sim.mem.download(bo)[0], 0.0);
    }
}

#[cfg(test)]
mod sample_tests {
    use super::*;

    #[test]
    fn auto_sampling_full_when_small() {
        assert_eq!(SampleMode::auto(100, 1000), SampleMode::Full);
    }

    #[test]
    fn auto_sampling_chunks_when_large() {
        match SampleMode::auto(1_000_000, 1000) {
            SampleMode::Chunked { chunk, skip } => {
                assert_eq!(chunk, 64);
                assert!(skip >= 2);
            }
            other => panic!("expected chunked, got {other:?}"),
        }
    }

    #[test]
    fn chunked_sampling_extrapolates_uniform_traffic() {
        let run = |sample| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny());
            let n = 32 * 512u32;
            let bi = sim.mem.alloc(n as usize);
            let bo = sim.mem.alloc(n as usize);
            let cfg = LaunchConfig::linear(512, 32).with_sample(sample);
            sim.launch(&cfg, |blk| {
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    let v = w.gld(bi, &tid, LaneMask::ALL);
                    w.gst(bo, &tid, &v, LaneMask::ALL);
                });
            })
        };
        let full = run(SampleMode::Full);
        let sampled = run(SampleMode::Chunked { chunk: 16, skip: 4 });
        assert_eq!(full.gld_transactions, sampled.gld_transactions);
        assert_eq!(full.gst_transactions, sampled.gst_transactions);
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;

    /// A kernel exercising every counter class: strided loads (partial L1
    /// reuse), stores, shared-memory traffic, FMA and shuffles.
    fn mixed_kernel(
        sim: &mut GpuSim,
        mode: LaunchMode,
        threads: usize,
        sample: SampleMode,
    ) -> (KernelStats, Vec<f32>) {
        sim.set_launch_mode(mode);
        sim.set_parallel_threads(Some(threads));
        let n = 32 * 96u32;
        let data: Vec<f32> = (0..n).map(|i| (i % 17) as f32).collect();
        let bi = sim.mem.upload(&data);
        let bo = sim.mem.alloc(n as usize);
        let cfg = LaunchConfig::linear(96, 32)
            .with_shared(32)
            .with_sample(sample);
        let stats = sim.launch(&cfg, |blk| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                let strided = VU::from_fn(|l| (tid.lane(l) * 7) % n);
                let a = w.gld(bi, &strided, LaneMask::ALL);
                let b = w.gld(bi, &tid, LaneMask::ALL);
                let s = w.warp_sum(&a);
                let r = w.fma(b, VF::splat(2.0), s);
                w.sst(&w.thread_idx().clone(), &r, LaneMask::ALL);
            });
            blk.barrier();
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                let v = w.sld(&w.thread_idx().clone(), LaneMask::ALL);
                w.gst(bo, &tid, &v, LaneMask::ALL);
            });
        });
        (stats, sim.mem.download(bo).to_vec())
    }

    #[test]
    fn parallel_matches_sequential_bit_identically() {
        for sample in [
            SampleMode::Full,
            SampleMode::Stride(5),
            SampleMode::Chunked { chunk: 8, skip: 3 },
        ] {
            let mut seq = GpuSim::new(DeviceConfig::test_tiny());
            let (s_stats, s_mem) = mixed_kernel(&mut seq, LaunchMode::Sequential, 1, sample);
            for threads in [1usize, 2, 4, 7] {
                let mut par = GpuSim::new(DeviceConfig::test_tiny());
                let (p_stats, p_mem) =
                    mixed_kernel(&mut par, LaunchMode::Parallel, threads, sample);
                assert_eq!(
                    s_stats, p_stats,
                    "stats diverge: {sample:?}, {threads} threads"
                );
                assert_eq!(
                    s_mem, p_mem,
                    "memory diverges: {sample:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_store_buffers_preserve_final_memory() {
        // Adjacent blocks write overlapping halves of the output; the later
        // block (higher linear id) must win, exactly as sequential order
        // dictates.
        let run = |mode| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            sim.set_parallel_threads(Some(4));
            let bo = sim.mem.alloc(32 * 9);
            sim.launch(&LaunchConfig::linear(16, 32), |blk| {
                blk.each_warp(|w| {
                    let linear = blk_linear_of(w);
                    let idx = VU::from_fn(|l| (linear * 16 + l as u64) as u32);
                    let val = VF::splat(linear as f32 + 1.0);
                    w.gst(bo, &idx, &val, LaneMask::ALL);
                });
            });
            sim.mem.download(bo).to_vec()
        };
        fn blk_linear_of(w: &WarpCtx<'_, '_>) -> u64 {
            w.block_idx.0 as u64
        }
        let seq = run(LaunchMode::Sequential);
        let par = run(LaunchMode::Parallel);
        assert_eq!(seq, par);
        // Interior element 16·k is covered by blocks k−1 (lane 16) and k
        // (lane 0); block k wins.
        assert_eq!(seq[32], 3.0, "block 2 overwrote block 1's upper half");
    }

    #[test]
    fn parallel_read_your_writes_within_block() {
        let run = |mode| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            let bo = sim.mem.alloc(64);
            let stats = sim.launch(&LaunchConfig::linear(2, 32), |blk| {
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    w.gst(bo, &tid, &VF::splat(7.0), LaneMask::ALL);
                });
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    let v = w.gld(bo, &tid, LaneMask::ALL); // sees own store
                    let r = w.fadd(v, VF::splat(1.0));
                    w.gst(bo, &tid, &r, LaneMask::ALL);
                });
            });
            (stats, sim.mem.download(bo).to_vec())
        };
        let (s_stats, s_mem) = run(LaunchMode::Sequential);
        let (p_stats, p_mem) = run(LaunchMode::Parallel);
        assert_eq!(s_stats, p_stats);
        assert_eq!(s_mem, p_mem);
        assert!(s_mem.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn parallel_local_memory_traffic_identical() {
        let run = |mode| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            let bo = sim.mem.alloc(128);
            sim.launch(&LaunchConfig::linear(4, 32), |blk| {
                blk.each_warp(|w| {
                    let mut a = crate::priv_array::PrivArray::<4>::local();
                    for i in 0..4 {
                        a.set(w, i, VF::splat(i as f32));
                    }
                    let idx = VU::from_fn(|l| (l % 4) as u32);
                    let v = a.get_dyn(w, &idx, LaneMask::ALL);
                    let tid = w.global_tid_x();
                    w.gst(bo, &tid, &v, LaneMask::ALL);
                });
            })
        };
        assert_eq!(run(LaunchMode::Sequential), run(LaunchMode::Parallel));
    }

    #[test]
    #[should_panic(expected = "device write OOB")]
    fn parallel_oob_store_panics_like_sequential() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(LaunchMode::Parallel);
        sim.set_parallel_threads(Some(2));
        let bo = sim.mem.alloc(8);
        sim.launch(&LaunchConfig::linear(1, 32), |blk| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                w.gst(bo, &tid, &VF::splat(0.0), LaneMask::ALL);
            });
        });
    }
}

#[cfg(test)]
mod phantom_tests {
    use super::*;

    /// A kernel touching every instrumented space: strided global loads,
    /// shared round-trip, a dynamically indexed private array (local
    /// traffic), and global stores.
    fn mixed(sim: &mut GpuSim) -> KernelStats {
        let n = 32 * 24u32;
        let bi = sim.mem.alloc(n as usize);
        let bo = sim.mem.alloc(n as usize);
        let cfg = LaunchConfig::linear(24, 32).with_shared(64);
        sim.launch(&cfg, |blk| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                let strided = VU::from_fn(|l| (tid.lane(l) * 2) % n);
                let a = w.gld(bi, &strided, LaneMask::ALL);
                w.sst(&w.thread_idx().clone(), &a, LaneMask::ALL);
            });
            blk.barrier();
            blk.each_warp(|w| {
                let mut p = crate::priv_array::PrivArray::<4>::local();
                for i in 0..4 {
                    p.set(w, i, VF::splat(i as f32));
                }
                let didx = VU::from_fn(|l| (l % 4) as u32);
                let d = p.get_dyn(w, &didx, LaneMask::ALL);
                let v = w.sld(&w.thread_idx().clone(), LaneMask::ALL);
                let r = w.fadd(v, d);
                w.gst(bo, &w.global_tid_x(), &r, LaneMask::ALL);
            });
        })
    }

    /// The transaction-subset counters a phantom run must reproduce
    /// bit-for-bit (the cache/DRAM counters are intentionally zero in
    /// phantom mode — nothing reaches L1).
    fn txn_subset(s: &KernelStats) -> Vec<u64> {
        vec![
            s.gld_requests,
            s.gld_transactions,
            s.gst_requests,
            s.gst_transactions,
            s.local_requests,
            s.local_ld_transactions,
            s.local_st_transactions,
            s.smem_accesses,
            s.smem_passes,
        ]
    }

    #[test]
    fn phantom_reproduces_transaction_counters_and_leaves_memory_untouched() {
        let mut real = GpuSim::new(DeviceConfig::test_tiny());
        let real_stats = mixed(&mut real);

        let mut ph = GpuSim::new(DeviceConfig::test_tiny()).with_phantom(PhantomConfig::default());
        let ph_stats = mixed(&mut ph);
        assert!(ph.l2.is_none(), "a phantom launch builds no L2");

        assert_eq!(txn_subset(&real_stats), txn_subset(&ph_stats));
        // Nothing below the coalescer runs in phantom mode.
        assert_eq!(ph_stats.l1_hit_sectors, 0);
        assert_eq!(ph_stats.l2_accesses, 0);
        assert_eq!(ph_stats.dram_read_sectors, 0);
        // The output buffer (second alloc) was never written.
        let report = ph.take_sym_report().expect("phantom armed");
        assert!(report.is_exact(), "closed forms must match the simulator");
        assert_eq!(
            report.data_dependent_sites().len(),
            1,
            "exactly the PrivArray::get_dyn site is top"
        );
    }

    #[test]
    fn phantom_launches_build_no_l2_on_either_engine() {
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny())
                .with_launch_mode(mode)
                .with_phantom(PhantomConfig::default());
            mixed(&mut sim);
            mixed(&mut sim);
            assert!(sim.l2.is_none(), "{mode:?}");
            // Disarmed, the next launch builds it as a fresh simulator's
            // first launch does.
            sim.set_phantom(None);
            let real = mixed(&mut sim);
            assert!(sim.l2.is_some(), "{mode:?}");
            assert_eq!(real, mixed(&mut GpuSim::new(DeviceConfig::test_tiny())));
        }
    }

    #[test]
    fn phantom_sym_report_identical_across_engines_and_canaries() {
        let run = |mode, canary| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny())
                .with_launch_mode(mode)
                .with_phantom(PhantomConfig { canary });
            sim.set_parallel_threads(Some(3));
            let stats = mixed(&mut sim);
            (stats, sim.take_sym_report().expect("phantom armed"))
        };
        let (s_seq, r_seq) = run(LaunchMode::Sequential, 1.0);
        let (s_par, r_par) = run(LaunchMode::Parallel, 1.0);
        assert_eq!(s_seq, s_par, "phantom stats engine-independent");
        assert_eq!(r_seq, r_par, "sym reports engine-independent");
        // Differential phantom execution: a different canary must leave
        // every address-stream hash untouched (data-independent kernel).
        let (_, r_canary) = run(LaunchMode::Sequential, -7.5);
        assert_eq!(r_seq.stream_hashes(), r_canary.stream_hashes());
    }

    #[test]
    #[should_panic(expected = "device write OOB")]
    fn phantom_store_oob_panics_byte_identically() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_phantom(PhantomConfig::default());
        let bo = sim.mem.alloc(8);
        sim.launch(&LaunchConfig::linear(1, 32), |blk| {
            blk.each_warp(|w| {
                let tid = w.global_tid_x();
                w.gst(bo, &tid, &VF::splat(0.0), LaneMask::ALL);
            });
        });
    }

    #[test]
    #[should_panic(expected = "phantom mode excludes")]
    fn phantom_excludes_analysis() {
        let mut sim =
            GpuSim::new(DeviceConfig::test_tiny()).with_analysis(AnalysisConfig::default());
        sim.set_phantom(Some(PhantomConfig::default()));
    }
}
