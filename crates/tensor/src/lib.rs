//! # sti-tensor
//!
//! A minimal, dependency-light, deterministic `f32` linear-algebra substrate
//! for the STI reproduction. It provides exactly the kernels a BERT-style
//! transformer needs — dense matrix multiplication, softmax, layer
//! normalization, GELU — plus a seedable pseudo-random generator used to
//! synthesize model weights and datasets reproducibly.
//!
//! The crate is intentionally small and self-contained: the paper's engine
//! (STI, ASPLOS '23) streams *weights*, so what matters for the reproduction
//! is that compute is real (actual FLOPs on actual tensors) and bit-for-bit
//! deterministic across runs. Within that contract the one hot kernel,
//! [`ops::matmul_into`], is register-tiled in safe, portable Rust; its doc
//! comment states the rounding every result in the repository is pinned to.
//!
//! ```
//! use sti_tensor::{Matrix, ops};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod activation;
pub mod math;
pub mod matrix;
pub mod norm;
pub mod ops;
pub mod parallel;
pub mod rng;
pub mod softmax;
pub mod stats;

pub use matrix::Matrix;
pub use rng::Rng;
