//! Where a model's full-fidelity shard weights are read from.

use std::fmt;

use crate::config::ShardId;
use crate::weights::ShardWeights;

/// The full-fidelity shard weights behind a [`Model`](crate::Model), read
/// one shard at a time into memory the caller owns. A model holds its
/// residents and one of these, never the weights themselves, and every
/// reader goes through [`Model::read_shard`](crate::Model::read_shard).
///
/// A read works in a [`ReadScratch`] the caller keeps beside its slot,
/// sized once by [`read_scratch`](Self::read_scratch), so it allocates
/// nothing, on whatever thread it runs.
///
/// Two sources implement it, and neither holds the weights in memory: a
/// synthesised model's seeds, from which a read regenerates the shard
/// ([`synthetic`](crate::synthetic)), and a shard store's `Bitwidth::Full`
/// records (`sti-storage`), which hold the same weights bit for bit. A
/// `TaskContext`'s model reads from its store. No process builds the FP32
/// grid of all shards.
pub trait ShardWeightSource: fmt::Debug + Send + Sync {
    /// Overwrites `out` with shard `id`'s full-fidelity weights, working in
    /// `scratch`. `out` keeps its buffers when it is already shaped for the
    /// model ([`ShardWeights::zeros`]), and `scratch` keeps its own when
    /// this source sized it ([`read_scratch`](Self::read_scratch)).
    ///
    /// # Panics
    ///
    /// May panic if `id` is outside the model or the source cannot produce
    /// the shard (a store whose record cannot be read); the implementation
    /// says which.
    fn read_shard(&self, id: ShardId, out: &mut ShardWeights, scratch: &mut ReadScratch);

    /// A scratch every read from this source fits in without growing it
    /// (empty for a source whose reads need no buffer).
    fn read_scratch(&self) -> ReadScratch {
        ReadScratch::default()
    }
}

/// The buffers a [`ShardWeightSource`] reads a shard through, kept beside
/// the slot it lands in: a shard store's record and the `[Q | K | V]`
/// staging its decode fills ([`ShardWeights::read_attention_with`]).
#[derive(Debug, Default)]
pub struct ReadScratch {
    /// One record's bytes, overwritten by each read.
    pub record: Vec<u8>,
    /// The Q, K and V matrices as a record stores them, one after another.
    pub staging: Vec<f32>,
}
