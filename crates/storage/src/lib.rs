//! # sti-storage
//!
//! The `N × M × K` shard store (paper §4.2 "storing shards per version"):
//! every shard of every bitwidth lives on disk as a checksummed binary
//! record; records of the same layer and bitwidth are co-located in one file
//! so a layer loads as a single sequential IO job (§6: *"we co-locate disk
//! blocks of shards from the same layer for access locality"*).
//!
//! Components:
//!
//! - [`format`](mod@format) — the binary record encoding (magic, version, checksum);
//! - [`manifest`] — the store index mapping `(layer, slice, bitwidth)` to
//!   file offsets, through the one dense key space
//!   ([`Manifest::file_index`](manifest::Manifest::file_index)) the store's
//!   file handles and payload slots share;
//! - [`store::ShardStore`] — create/open a store directory, read shards and
//!   layer groups. This is the flash every serving path streams from: a
//!   `load` is a positional read on a cached file handle, verified and
//!   decoded, unless some holder still has the shard's payload, which the
//!   store's weak index then hands out; the store keeps none of the bytes
//!   it returns. It is the one source of shards: a `TaskContext` and every
//!   test that needs some store stream from a temporary one
//!   ([`ShardStore::create_temp`]), which removes its directory when its
//!   last handle drops;
//! - [`cache::ShardCache`] — a shared, byte-budgeted LRU cache of compressed
//!   blobs that fronts any source ([`cache::CachedSource`]) so concurrent
//!   engagements reuse each other's reads, with the prefetch staging pool
//!   sized beside it at construction, both behind one lock;
//! - [`scheduler::IoScheduler`] — multiplexes layer-granular load requests
//!   from many concurrent engagements over one flash model (FIFO per
//!   engagement, round-robin across engagements), every load reading
//!   through the one shard cache it was built with, on its callers' threads:
//!   whoever waits for a load drives the queue, one at a time. Inside it, a
//!   lane state machine with no thread or store in it (`lanes`) and the
//!   code that services what it picks (`dispatch`). It records what it
//!   dispatched ([`FlashDispatchEvent`]) and simulates nothing: replaying
//!   that log on a contended device is `sti-pipeline`'s ledger's job;
//! - [`loader`] — the layer-granular [`LayerRequest`] / [`LoadedLayer`]
//!   pair the scheduler's lanes carry; on an unbatched dispatch a shard no
//!   cache would keep rides in a `LoadedLayer` as a
//!   [`LoadedShard::Deferred`] key, read when its layer is computed, not at
//!   dispatch.
//!
//! **Ownership of shard bytes:** one writer at construction, then shared
//! and immutable. A [`ShardSource`] builds or decodes a blob's payload once;
//! `load`, the cache, the staging pool and the scheduler's fan-out pass
//! handles to it (`QuantizedBlob::clone` is a reference count), and nothing
//! downstream can write through one. There is no copy outside the cache,
//! and one copy per shard however many caches read the store: a payload
//! lives exactly as long as its handles do.
//! Byte budgets are charged per holder from `byte_size()` regardless, and
//! [`ShardSource::size_bytes`] is that same payload size for every source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache;
pub mod error;
pub mod format;
pub mod loader;
pub mod manifest;
pub mod scheduler;
pub mod store;

pub use cache::{CachedSource, PrefetchPoolStats, ShardCache, ShardCacheStats};
pub use error::StorageError;
pub use loader::{LayerRequest, LoadedLayer, LoadedShard};
pub use scheduler::{
    BatchStats, FlashDispatchEvent, IoChannel, IoScheduler, IoSchedulerStats, SpeculativeJob,
};
pub use store::{ShardKey, ShardSource, ShardStore};
