//! The layer-granular IO job and its result.
//!
//! STI loads one layer (its selected shard versions) as a single IO job that
//! overlaps with the previous layer's computation (paper §3.1). An
//! engagement submits [`LayerRequest`]s on its
//! [`IoChannel`](crate::scheduler::IoChannel); the
//! [`IoScheduler`](crate::scheduler::IoScheduler) services them in order and
//! produces [`LoadedLayer`]s, accounting the simulated flash delay of each
//! grouped request.

use sti_device::SimTime;
use sti_quant::{Bitwidth, QuantizedBlob};

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

/// The result of one layer load.
///
/// Blobs are shared, never copied: each is a handle to the payload the
/// source or the shard cache holds, and when the scheduler batches identical
/// requests from co-resident engagements every recipient's `LoadedLayer`
/// points at the same one.
#[derive(Debug, Clone)]
pub struct LoadedLayer {
    /// The layer that was loaded.
    pub layer: u16,
    /// `(slice, blob)` pairs in request order.
    pub blobs: Vec<(u16, QuantizedBlob)>,
    /// Total serialized bytes fetched.
    pub bytes: u64,
    /// Simulated flash delay of the grouped request.
    pub io_delay: SimTime,
}
