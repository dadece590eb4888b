//! # zero-tensor
//!
//! Dense tensor substrate for the ZeRO reproduction: a from-scratch IEEE
//! binary16 [`F16`] storage type and the forward/backward kernels a
//! GPT-2-like transformer needs (GEMM, layernorm, softmax, GELU,
//! embedding, cross-entropy), all over flat row-major `&[f32]` slices.
//!
//! The paper's workloads run their FLOPs on V100 tensor cores; here they
//! run on the calling rank's CPU thread. ZeRO itself (`zero-core`) is agnostic to
//! where the FLOPs happen — it only manipulates parameter, gradient and
//! optimizer-state buffers, which this crate represents exactly
//! (2 bytes/element fp16, 4 bytes/element fp32).
//!
//! ```
//! use zero_tensor::F16;
//! use zero_tensor::ops::matmul::sgemm;
//!
//! // Genuine 2-byte fp16 storage with round-to-nearest-even.
//! assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
//! assert_eq!(std::mem::size_of::<F16>(), 2);
//!
//! // 2x2 GEMM.
//! let a = [1.0, 2.0, 3.0, 4.0];
//! let b = [1.0, 0.0, 0.0, 1.0];
//! let mut c = [0.0; 4];
//! sgemm(&a, &b, &mut c, 2, 2, 2);
//! assert_eq!(c, a);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod f16;
pub mod init;
pub mod isa;
pub mod ops;

pub use f16::F16;
