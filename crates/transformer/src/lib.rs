//! # sti-transformer
//!
//! A from-scratch, BERT-style transformer encoder whose layers are
//! *vertically sharded* exactly as in STI (§4 of the paper): each of the `N`
//! layers splits into `M` independent slices, slice `i` owning attention head
//! `i` (its Q/K/V/O projections) plus `1/M` of the FFN neurons. Any subset of
//! `m ≤ M` slices of the first `n ≤ N` layers — a *submodel* — can execute
//! and still produce meaningful logits.
//!
//! The crate provides:
//!
//! - [`ModelConfig`] — dimensions and presets scaled for laptop-speed CPU
//!   inference while preserving the paper's 12-layer × 12-head shard grid;
//! - [`ShardWeights`] / [`LayerWeights`] — the sharded parameter layout of
//!   Table 1, with flattening to 1-D weight groups for quantization;
//! - [`Model`] — synthetic-weight model generation, full forward, and
//!   submodel forward over externally assembled (e.g. dequantized) shards.
//!   A model holds its residents; its full-fidelity shards are read one at
//!   a time from a [`ShardWeightSource`] (a synthesised model's seeds, from
//!   which each read regenerates its shard, or a shard store's
//!   full-fidelity records) through [`Model::read_shard`], and no FP32 grid
//!   of all shards is ever built;
//! - [`ForwardScratch`] — the caller-owned working memory every forward
//!   pass runs in, so a warm pass allocates nothing per layer.
//!
//! ```
//! use sti_transformer::{Model, ModelConfig};
//!
//! let cfg = ModelConfig::tiny();
//! let model = Model::synthetic(7, cfg.clone());
//! let logits = model.forward_full(&[1, 2, 3]);
//! assert_eq!(logits.len(), cfg.classes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod assemble;
pub mod attention;
pub mod classifier;
pub mod config;
pub mod decoder;
pub mod embedding;
pub mod ffn;
mod kv_cache;
pub mod layer;
pub mod model;
mod operand;
mod source;
pub mod synthetic;
pub mod weights;

pub use assemble::AssembledSubmodel;
pub use config::{ModelConfig, ShardId};
pub use layer::ForwardScratch;
pub use model::Model;
pub use operand::ShardOperand;
pub use source::{ReadScratch, ShardWeightSource};
pub use weights::{LayerResident, LayerWeights, ModelLayer, ShardWeights};

#[cfg(test)]
mod oracle;
