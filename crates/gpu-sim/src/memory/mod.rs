//! The simulated memory system: global buffers, the warp coalescer, the
//! sectored cache hierarchy, and shared memory.

pub mod cache;
pub mod coalescer;
pub mod global;
pub mod hierarchy;
pub mod shared;

pub use cache::{Access, CachePolicy, SectoredCache};
pub use coalescer::{coalesce, coalesce_into, CoalesceResult, LaneRun, SectorBuf};
pub use global::{BufId, GlobalMem};
pub use hierarchy::{phantom_access, phantom_access_span, Space};
pub use shared::SharedMem;
