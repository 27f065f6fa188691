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
//! members never read one record each. Its consumer reads it when it
//! computes the layer ([`LoadedLayer::materialise`]): the record, through
//! [`ShardSource::load_deferred`], into one record buffer the consumer
//! reuses, decoded in place from there and dropped with the layer, with no
//! payload built. So an engagement that streams shards no cache keeps
//! holds one layer of their records, not all of its layers from the drive
//! until compute reaches them. Every simulated
//! number is made at dispatch and is the same either way; what moves is
//! where a read error surfaces — from the consumer's read, after the
//! dispatch was charged and logged.

use std::ops::Range;

use sti_device::SimTime;
use sti_quant::{Bitwidth, CodedView, QuantizedBlob};

use crate::error::StorageError;
use crate::format;
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
    /// A deferred shard its consumer has read: its verified record sits at
    /// this byte range of the record buffer the consumer handed
    /// [`LoadedLayer::materialise`], and is decoded from there
    /// ([`format::verified_view`]). `u32` offsets keep the variant no
    /// larger than the others: a layer's records are far under 4 GiB.
    Record(Range<u32>),
}

impl LoadedShard {
    /// The payload, if the shard arrived as one.
    pub fn blob(&self) -> Option<&QuantizedBlob> {
        match self {
            Self::Blob(blob) => Some(blob),
            Self::Deferred(_) | Self::Record(_) => None,
        }
    }

    /// The shard's coded weights, unless it is still deferred: a view of
    /// its payload's body, or of its record in `records`, the buffer a
    /// [`LoadedShard::Record`] range points into. Either way it decodes
    /// through [`CodedView::dequantize_range_into`], to the same bits.
    pub fn view<'r>(&'r self, records: &'r [u8]) -> Option<CodedView<'r>> {
        match self {
            Self::Blob(blob) => Some(blob.view()),
            Self::Record(at) => Some(format::verified_view(record(records, at))),
            Self::Deferred(_) => None,
        }
    }
}

/// The record at `at` in a consumer's record buffer.
fn record<'r>(records: &'r [u8], at: &Range<u32>) -> &'r [u8] {
    &records[at.start as usize..at.end as usize]
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
    /// Reads every deferred shard from `source` into `records`, the
    /// consumer's record buffer, which is emptied first: the records of the
    /// layer before are done with. Each becomes a [`LoadedShard::Record`]
    /// range of it, or the [`LoadedShard::Blob`] a live holder has. The
    /// buffer is sized once for the layer's records, so a buffer reused
    /// from layer to layer grows only for a wider layer. Nothing of the
    /// dispatch's accounting moves.
    ///
    /// # Errors
    ///
    /// Returns the first load error; shards before it are read.
    pub fn materialise(
        &mut self,
        source: &dyn ShardSource,
        records: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        records.clear();
        let mut bytes = 0;
        for (_, shard) in &self.shards {
            if let LoadedShard::Deferred(key) = *shard {
                bytes += source.size_bytes(key)? as usize + format::RECORD_OVERHEAD;
            }
        }
        records.reserve_exact(bytes);
        let offset = |at: usize| u32::try_from(at).expect("a layer's records fit u32 offsets");
        for (_, shard) in &mut self.shards {
            if let LoadedShard::Deferred(key) = *shard {
                let at = offset(records.len());
                *shard = match source.load_deferred(key, records)? {
                    Some(blob) => LoadedShard::Blob(blob),
                    None => LoadedShard::Record(at..offset(records.len())),
                };
            }
        }
        Ok(())
    }
}
