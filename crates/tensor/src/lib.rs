//! Tensor and numeric substrate for the TFE reproduction.
//!
//! This crate provides everything the rest of the workspace treats as the
//! "ground truth" for CNN arithmetic:
//!
//! * [`shape::LayerShape`] — the shape parameters of a convolutional layer,
//!   mirroring Table I of the paper (`N`, `M`, `H/W`, `E/F`, `K`).
//! * [`fixed::Fx16`] — the 16-bit fixed-point (Q8.8) sample type used by the
//!   TFE datapath, with a widened [`fixed::Accum`] accumulator matching the
//!   hardware's partial-sum registers.
//! * [`tensor::Tensor4`] — a dense NCHW tensor.
//! * [`conv`] — reference (direct, unoptimized) convolution, the golden
//!   model against which the simulator's functional datapath is checked.
//! * [`pool`] / [`activation`] — pooling and activation functions as used by
//!   the TFE output memory system.
//!
//! # Example
//!
//! ```
//! use tfe_tensor::shape::LayerShape;
//! use tfe_tensor::tensor::Tensor4;
//! use tfe_tensor::conv::conv2d_f32;
//!
//! # fn main() -> Result<(), tfe_tensor::TensorError> {
//! let shape = LayerShape::conv("toy", 1, 2, 8, 8, 3, 1, 1)?;
//! let input = Tensor4::filled([1, 1, 8, 8], 1.0f32);
//! let weights = Tensor4::filled([2, 1, 3, 3], 0.5f32);
//! let out = conv2d_f32(&input, &weights, None, &shape)?;
//! assert_eq!(out.dims(), [1, 2, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod conv;
// Every helper of the sample types is called per element across the
// crate boundary: keep each one inlinable (see the module docs).
#[deny(clippy::missing_inline_in_public_items)]
pub mod fixed;
pub mod im2col;
pub mod pool;
pub mod shape;
pub mod tensor;

mod error;

pub use error::TensorError;
