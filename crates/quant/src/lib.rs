//! # sti-quant
//!
//! Gaussian outlier-aware dictionary quantization (GOBO, Zadeh et al., MICRO
//! '20) as used by STI (§4.2 / §6 of the paper) to store every model shard in
//! multiple fidelity versions.
//!
//! The scheme: fit the weight population of a group (a shard) to a Gaussian;
//! weights whose log-likelihood falls below a threshold (paper: `-4`) are
//! *outliers* and kept verbatim in FP32; the remaining ~99.9% are sorted and
//! split into `2^k` equal-population clusters whose arithmetic means become
//! the `k`-bit dictionary (*centroids*). A quantized shard then stores packed
//! `k`-bit centroid indexes plus the small outlier table, shrinking IO by
//! roughly `32/k` while preserving the original weight distribution — which is
//! what lets shards of *different* bitwidths execute together in one submodel.
//!
//! ```
//! use sti_quant::{Bitwidth, QuantConfig, QuantizedBlob};
//!
//! let weights: Vec<f32> = (0..256).map(|i| (i as f32 / 17.0).sin()).collect();
//! let blob = QuantizedBlob::quantize(&weights, Bitwidth::B4, &QuantConfig::default());
//! let restored = blob.dequantize();
//! assert_eq!(restored.len(), weights.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod bitpack;
pub mod bitwidth;
pub mod centroid;
pub mod error;
pub mod gaussian;
pub mod shardq;
pub mod uniform;

pub use bitwidth::Bitwidth;
pub use error::QuantError;
pub use gaussian::GaussianFit;
pub use shardq::{CodedView, QuantConfig, QuantizedBlob, WeakBlob, BODY_HEADER};
pub use uniform::UniformBlob;
