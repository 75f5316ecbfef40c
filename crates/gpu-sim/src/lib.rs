//! # memconv-gpusim
//!
//! A warp-accurate SIMT GPU simulator in pure Rust, built as the execution
//! substrate for reproducing *"Optimizing GPU Memory Transactions for
//! Convolution Operations"* (Lu, Zhang & Wang, IEEE CLUSTER 2020) without
//! GPU hardware.
//!
//! The simulator executes kernels *functionally* (bit-exact lane-level
//! data flow, warp shuffles, shared memory, divergence masks) while
//! *counting* the events the paper's optimizations target:
//!
//! * global-memory **transactions** — 32-byte sectors after warp-level
//!   coalescing (`gld_transactions`/`gst_transactions` in nvprof terms);
//! * L1/L2 hits and misses through a sectored, set-associative cache model;
//! * DRAM sectors moved (including write-back traffic);
//! * local-memory traffic of dynamically indexed private arrays (the
//!   register-spill cost that motivates the paper's static-index
//!   transformation);
//! * shared-memory bank-conflict passes, shuffle and FP instruction counts.
//!
//! A roofline-style timing model ([`timing`]) converts the counters into
//! estimated runtimes for a configurable device (default: the paper's
//! RTX 2080 Ti).
//!
//! ## Writing a kernel
//!
//! ```
//! use std::sync::Arc;
//! use memconv_gpusim::{GpuSim, LaunchConfig, DeviceConfig, LaneMask, VF};
//!
//! let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
//! // Host storage maps into device memory without a copy (a kernel that
//! // wrote `x` would copy it first, leaving `host` as it is) ...
//! let host = Arc::new(vec![1.0; 1024]);
//! let x = sim.mem.upload_shared(Arc::clone(&host));
//! let y = sim.mem.alloc(1024);
//!
//! let stats = sim.launch(&LaunchConfig::linear(8, 128), |blk| {
//!     blk.each_warp(|w| {
//!         let tid = w.global_tid_x();
//!         let mask = tid.lt_scalar(1024);
//!         let v = w.gld(x, &tid, mask);
//!         let r = w.fma(v, VF::splat(2.0), VF::splat(1.0));
//!         w.gst(y, &tid, &r, mask);
//!     });
//! });
//!
//! assert_eq!(stats.gld_transactions, 32 * 4); // 32 warps, 4 sectors each
//!
//! // ... and the result moves back out.
//! let out: Vec<f32> = sim.mem.take(y);
//! assert_eq!(out[0], 3.0);
//! ```

// The one exception is the lane FMA dispatch in `lane.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod device;
pub mod exec;
pub mod faults;
pub mod lane;
pub mod memory;
pub mod obs;
pub mod priv_array;
pub mod report;
pub mod shuffle;
pub mod stats;
pub mod sym;
pub mod timing;
pub mod trace;

pub use analysis::{
    AccessClass, AnalysisConfig, Hazard, HazardPass, HazardReport, LocalSiteTraffic, Severity,
    SiteId,
};
pub use device::DeviceConfig;
pub use exec::{
    classify_panic, BlockCtx, GpuSim, LaunchConfig, LaunchError, LaunchMode, SampleMode, WarpCtx,
    DEFAULT_BLOCK_INSTRUCTION_BUDGET,
};
pub use faults::{FaultKind, FaultLog, FaultPlan};
pub use lane::{LaneMask, LaneVec, VF, VI, VU, VU64, WARP};
pub use memory::{BufId, GlobalMem};
pub use obs::{BlockSpan, LaunchSpanRecord, SpanConfig};
pub use priv_array::{PrivArray, Residency};
pub use report::{hazard_table, run_table, Profile};
pub use stats::KernelStats;
pub use sym::{PhantomConfig, SiteForm, SymReport, SymSiteRecord};
pub use timing::{launch_time, RunReport, TimeBreakdown};
