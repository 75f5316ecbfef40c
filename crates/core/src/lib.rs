//! # memconv-core
//!
//! The primary contribution of *"Optimizing GPU Memory Transactions for
//! Convolution Operations"* (Lu, Zhang & Wang, IEEE CLUSTER 2020),
//! implemented as kernels for the [`memconv_gpusim`] simulator:
//!
//! * **Column reuse** ([`column_reuse`], paper §II-A / Algorithm 1):
//!   threads of a warp exchange overlapping input columns with
//!   `shfl_xor`, loading each column from global memory once instead of
//!   `FW` times — with the pack/shift/unpack device keeping every index
//!   static so the exchange buffer stays in registers (§IV).
//! * **Row reuse** ([`row_reuse`], paper §II-B / Algorithm 2): each loaded
//!   input row is applied to all dependent output rows, so rows are
//!   streamed exactly once per output tile.
//! * One fused kernel ([`kernel_nchw`], Fig. 3's and Fig. 4's "ours") for
//!   every geometry: batched multi-channel, grouped/depthwise, strided,
//!   dilated and padded, with the single-channel 2D entry points in
//!   [`kernel2d`].
//! * The [`api`] traits every algorithm (ours and the baselines in
//!   `memconv-baselines`) implements, so harnesses compare them uniformly.
//!
//! All kernels preserve the direct convolution's accumulation order, so
//! their outputs are **bit-exact** against the CPU reference
//! (`memconv-ref`) — equality in tests is `==`, not approximate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod column_reuse;
pub mod kernel2d;
pub mod kernel_multi_filter;
pub mod kernel_nchw;
pub mod plan;
pub mod row_reuse;
pub mod tune;

pub use api::{Conv2dAlgorithm, ConvNchwAlgorithm, Ours};
pub use kernel2d::{conv2d_ours, conv2d_ours_padded, launch_conv2d_ours, OursConfig};
pub use kernel_multi_filter::{conv_nchw_multi_filter, OursMultiFilter};
pub use kernel_nchw::{
    conv_nchw_ours, conv_nchw_ours_geo, launch_conv_nchw_fused, launch_conv_nchw_ours,
    try_conv_nchw_ours, try_launch_conv_nchw_fused, ConvEpilogue,
};
pub use plan::{ColumnPlan, Exchange, StridedPlan};
pub use row_reuse::contributions_geo;
pub use tune::{autotune_2d, TuneError, TuneReport};
