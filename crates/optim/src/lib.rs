//! # zero-optim
//!
//! Optimizers for the ZeRO reproduction: [`Adam`] with the exact fp32
//! state footprint the paper's K = 12 multiplier counts, a low-memory
//! [`Sgd`] baseline, [`DynamicLossScaler`] for mixed precision, and
//! global-norm gradient clipping helpers that compose across shards.
//!
//! All optimizers operate on flat `&mut [f32]` buffers so that the ZeRO
//! engines can run them over 1/N_d partitions (P_os) unchanged.
//!
//! ```
//! use zero_optim::{Adam, AdamConfig};
//!
//! let mut adam = Adam::new(2, AdamConfig::default());
//! let mut params = vec![0.0_f32, 0.0];
//! adam.step(&mut params, &[1.0, -1.0]);
//! // First bias-corrected step moves by ~lr against the gradient sign.
//! assert!(params[0] < 0.0 && params[1] > 0.0);
//! // The K = 12 decomposition: 8 bytes/param of moments here + the
//! // engine's 4-byte fp32 master copy.
//! assert_eq!(adam.state_bytes(), 16);
//! ```

pub mod adam;
pub mod clip;
pub mod scaler;
pub mod sgd;

pub use adam::{Adam, AdamConfig};
pub use clip::{apply_clip, clip_coefficient, local_sq_norm};
pub use scaler::{has_overflow, DynamicLossScaler};
pub use sgd::{Sgd, SgdConfig};
