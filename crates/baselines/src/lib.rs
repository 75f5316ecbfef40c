//! # memconv-baselines
//!
//! From-scratch implementations of every algorithm the paper compares
//! against, all running on the `memconv-gpusim` simulator so comparisons
//! with the paper's approach are apples-to-apples:
//!
//! | paper name | module | notes |
//! |---|---|---|
//! | GEMM-im2col (Caffe) | [`im2col_gemm`] | per-image im2col + SGEMM, as Caffe's `Forward` loop does — the baseline of every figure |
//! | cuDNN `gemm` | [`im2col_gemm`] | whole-batch im2col + one SGEMM |
//! | cuDNN `implicit` | [`implicit_gemm`] | GEMM with on-the-fly im2col gather |
//! | cuDNN `precomp` | [`implicit_gemm`] | implicit GEMM with precomputed offset table |
//! | cuDNN `fft` | [`fft`] | full-plane FFT convolution (≤256-px planes, as cuDNN's limit) |
//! | cuDNN `tiling` | [`fft`] | tile-wise FFT (overlap-save, any size) |
//! | cuDNN `winograd` | [`winograd`] | fused F(2×2, 3×3) |
//! | cuDNN `nonfused` | [`winograd`] | transform / GEMM / inverse pipeline |
//! | cuDNN-fastest | [`cudnn`] | min over the cuDNN family (Fig. 3) |
//! | NPP | [`direct`] | cache-reliant direct convolution |
//! | ArrayFire | [`tiled`] | shared-memory tiled direct convolution |
//! | Fig. 1b "optimized" | [`shuffle_dynamic`] | shuffle column reuse with a dynamically indexed (local-memory) buffer — the ablation Algorithm 1 improves on |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Host-side dispatch overhead of one `cudnnConvolutionForward` call
/// (descriptor validation, heuristics, workspace management), seconds.
pub const CUDNN_CALL_OVERHEAD_S: f64 = 20e-6;
/// Host-side dispatch overhead of one NPP / ArrayFire library call.
pub const LIB_CALL_OVERHEAD_S: f64 = 10e-6;
/// Host-side dispatch overhead of one cuBLAS call in Caffe's loop.
pub const CUBLAS_CALL_OVERHEAD_S: f64 = 6e-6;

/// Sampling of an auxiliary copy launch (a pad, crop or staging copy) of
/// `blocks` blocks for a caller that samples its main launches as
/// `caller`: every block for a [`SampleMode::Full`] caller, whose output
/// must be complete, and about 4,096 blocks in locality-preserving chunks
/// for a sampled one.
fn aux_sample(caller: SampleMode, blocks: u32) -> SampleMode {
    match caller {
        SampleMode::Full => SampleMode::Full,
        _ => SampleMode::auto(u64::from(blocks), 4096),
    }
}

pub mod adapter;
pub mod cudnn;
pub mod direct;
pub mod fft;
pub mod gemm_kernel;
pub mod im2col_gemm;
pub mod implicit_gemm;
pub mod mec;
pub mod shuffle_dynamic;
pub mod tiled;
pub mod winograd;

use memconv_gpusim::SampleMode;

pub use adapter::As2d;
pub use cudnn::CudnnFastest;
pub use direct::DirectConv;
pub use fft::{FftConv, FftTiling};
pub use im2col_gemm::Im2colGemm;
pub use implicit_gemm::{ImplicitGemm, PrecompGemm};
pub use mec::MecConv;
pub use shuffle_dynamic::ShuffleDynamic;
pub use tiled::TiledConv;
pub use winograd::{WinogradFused, WinogradNonfused};
