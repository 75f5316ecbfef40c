//! # memconv-ref
//!
//! CPU reference implementations of every convolution variant in the
//! workspace. These are the *ground truth* the simulated GPU kernels are
//! validated against: simple, obviously-correct loops (with a
//! thread-parallel variant for large images used by the examples).
//!
//! Conventions match the paper and cuDNN's cross-correlation mode: no
//! filter flip, `valid` output `OH = IH − FH + 1` unless explicit padding
//! is given.

// The one exception is the FMA dispatch of `nchw::conv_nchw_ref`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conv2d;
pub mod gemm;
pub mod im2col;
pub mod nchw;

pub use conv2d::{conv2d_ref, conv2d_ref_padded, conv2d_ref_par, conv2d_ref_strided};
pub use gemm::gemm_ref;
pub use im2col::{im2col_nchw_ref, im2col_ref};
pub use nchw::{conv_nchw_ref, conv_nchw_ref_geo};
