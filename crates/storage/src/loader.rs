//! The layer-granular IO job and its result.
//!
//! STI loads one layer (its selected shard versions) as a single IO job that
//! overlaps with the previous layer's computation (paper §3.1). An
//! engagement submits [`LayerRequest`]s on its
//! [`IoChannel`](crate::scheduler::IoChannel); the
//! [`IoScheduler`](crate::scheduler::IoScheduler) services them in order and
//! produces [`LoadedLayer`]s, accounting the simulated flash delay of each
//! grouped request.
//!
//! **Dispatch and materialisation are two steps.** A dispatch prices the
//! layer — the simulated job, its log entry, the cache lookups, admission
//! and DRAM-residency pricing — and hands every shard on as a
//! [`LoadedShard`]. A hit, a staged prefetch, or a miss the shard cache
//! admits is a [`LoadedShard::Blob`]: it was decoded at dispatch, because
//! later lookups must see it. On a dispatch with no batch members, a miss
//! the cache cannot keep — its payload exceeds the whole budget, so
//! admission would refuse it unchanged — is a [`LoadedShard::Deferred`]
//! key: dispatched and charged like any miss, but not read. A batched
//! dispatch reads such a miss once and fans the payload out, so its
//! members never read one record each. Its consumer reads it when it computes the layer, through
//! [`ShardSource::load_buffered`] into one reused record buffer, and drops
//! it with the layer. So an engagement that streams shards no cache keeps
//! holds one layer of them, not all of its layers from the drive until
//! compute reaches them. Every simulated
//! number is made at dispatch and is the same either way; what moves is
//! where a read error surfaces — from the consumer's read, after the
//! dispatch was charged and logged.

use sti_device::SimTime;
use sti_quant::{Bitwidth, QuantizedBlob};

use crate::error::StorageError;
use crate::store::{ShardKey, ShardSource};

/// A request to load some shard versions of one layer as one IO job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRequest {
    /// The layer to load.
    pub layer: u16,
    /// `(slice, bitwidth)` pairs to fetch, in slice order.
    pub items: Vec<(u16, Bitwidth)>,
}

impl LayerRequest {
    /// Content signature of the request ([`sti_device::content_sig`] of its
    /// layer and items): two requests with equal signatures read identical
    /// bytes — the identity the shared-IO batcher matches on and the
    /// serving planner's `LayerIoJob` carries, so queued requests and
    /// plan-derived IO jobs can be compared for batchability.
    pub fn content_sig(&self) -> u64 {
        sti_device::content_sig(self.layer, self.items.iter().copied())
    }
}

/// One requested shard as a dispatch hands it on (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum LoadedShard {
    /// A handle to the shard's payload: a cache hit, a staged prefetch, or
    /// a miss the cache admitted.
    Blob(QuantizedBlob),
    /// A miss the cache cannot keep, dispatched and charged but not read:
    /// the consumer loads it when it computes the layer.
    Deferred(ShardKey),
}

impl LoadedShard {
    /// The payload, unless the shard is still deferred.
    pub fn blob(&self) -> Option<&QuantizedBlob> {
        match self {
            Self::Blob(blob) => Some(blob),
            Self::Deferred(_) => None,
        }
    }
}

/// The result of one layer load.
///
/// Blobs are shared, never copied: each is a handle to the payload the
/// source or the shard cache holds, and when the scheduler batches identical
/// requests from co-resident engagements every recipient's `LoadedLayer`
/// points at the same one. Only an unbatched layer carries deferred keys,
/// which its one recipient loads for itself.
#[derive(Debug, Clone)]
pub struct LoadedLayer {
    /// The layer that was loaded.
    pub layer: u16,
    /// `(slice, shard)` pairs in request order.
    pub shards: Vec<(u16, LoadedShard)>,
    /// Total serialized bytes fetched.
    pub bytes: u64,
    /// Simulated flash delay of the grouped request.
    pub io_delay: SimTime,
}

impl LoadedLayer {
    /// Loads every deferred shard from `source` (through `record`, one
    /// buffer reused from shard to shard), so each entry is a
    /// [`LoadedShard::Blob`]. Nothing of the dispatch's accounting moves.
    ///
    /// # Errors
    ///
    /// Returns the first load error; shards before it are loaded.
    pub fn materialise(
        &mut self,
        source: &dyn ShardSource,
        record: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        for (_, shard) in &mut self.shards {
            if let LoadedShard::Deferred(key) = *shard {
                *shard = LoadedShard::Blob(source.load_buffered(key, record)?);
            }
        }
        Ok(())
    }
}
