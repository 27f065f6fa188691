//! Where a model's full-fidelity shard weights are read from.

use std::fmt;

use crate::config::ShardId;
use crate::weights::ShardWeights;

/// The full-fidelity shard weights behind a [`Model`](crate::Model), read
/// one shard at a time into memory the caller owns. A model holds its
/// residents and one of these, never the weights themselves, and every
/// reader goes through [`Model::read_shard`](crate::Model::read_shard).
///
/// Two sources implement it: the in-memory grid a synthesised model is
/// generated with (its teacher labels the task's splits from it), and a
/// shard store's `Bitwidth::Full` records (`sti-storage`), which hold the
/// same weights bit for bit. A `TaskContext`'s model reads from the store,
/// so no FP32 grid stays in memory once the store is written.
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

/// Every shard of a synthesised model, in `layer·M + slice` order: the
/// source [`Model::synthetic_with_pattern`](crate::Model::synthetic_with_pattern)
/// builds.
#[derive(Debug)]
pub(crate) struct ShardGrid {
    heads: usize,
    shards: Vec<ShardWeights>,
}

impl ShardGrid {
    /// A grid of `heads` shards per layer, in `layer·M + slice` order.
    pub(crate) fn new(heads: usize, shards: Vec<ShardWeights>) -> Self {
        Self { heads, shards }
    }
}

impl ShardWeightSource for ShardGrid {
    /// A copy out of the grid; allocates nothing into a shaped `out`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is past the grid (the model checks the slice).
    fn read_shard(&self, id: ShardId, out: &mut ShardWeights) {
        out.clone_from(&self.shards[id.layer as usize * self.heads + id.slice as usize]);
    }
}
