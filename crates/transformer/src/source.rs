//! Where a model's full-fidelity shard weights are read from.

use std::fmt;

use crate::config::ShardId;
use crate::weights::ShardWeights;

/// The full-fidelity shard weights behind a [`Model`](crate::Model), read
/// one shard at a time into memory the caller owns. A model holds its
/// residents and one of these, never the weights themselves, and every
/// reader goes through [`Model::read_shard`](crate::Model::read_shard).
///
/// Two sources implement it, and neither holds the weights in memory: a
/// synthesised model's seeds, from which a read regenerates the shard
/// ([`synthetic`](crate::synthetic)), and a shard store's `Bitwidth::Full`
/// records (`sti-storage`), which hold the same weights bit for bit. A
/// `TaskContext`'s model reads from its store. No process builds the FP32
/// grid of all shards.
pub trait ShardWeightSource: fmt::Debug + Send + Sync {
    /// Overwrites `out` with shard `id`'s full-fidelity weights. `out`
    /// keeps its buffers when it is already shaped for the model
    /// ([`ShardWeights::zeros`]).
    ///
    /// # Panics
    ///
    /// May panic if `id` is outside the model or the source cannot produce
    /// the shard (a store whose record cannot be read); the implementation
    /// says which.
    fn read_shard(&self, id: ShardId, out: &mut ShardWeights);
}
