//! `dakc-serve`: a persistent, sharded k-mer query service over dakc-net.
//!
//! The counting pipeline ends where most uses of a k-mer table begin:
//! once the distributed count reaches quiescence, every rank holds a
//! sorted `{kmer, count}` run partitioned by the `owner_pe` hash. This
//! crate keeps that partition alive as a service instead of gathering
//! it to rank 0 and exiting:
//!
//! - [`shard`] — the immutable on-disk shard format: a versioned
//!   header, the 2-bit-packed sorted records, a sampled prefix index
//!   for `O(log B)` block lookup with per-block content checksums, and
//!   a checksummed footer. Loading is fallible and typed
//!   ([`ServeError`]) — a damaged file names its damage class, never
//!   panics.
//! - [`wire`] — the request/response protocol (point lookup, batched
//!   multi-lookup, count histogram, top-N) carried in the transport's
//!   `Query`/`Reply` frame kinds.
//! - [`server`] — the resident request loop: a rank announces READY,
//!   then answers queries against its shard until the client shuts the
//!   session down. Heartbeats keep flowing ([`Phase::Serve`]), so the
//!   supervisor doubles as the health check.
//! - [`client`] — the batching frontend: keys grouped by owner rank,
//!   one frame per owner (more past the transport's frame bound),
//!   per-query latency through the standard `flow.*` histograms, and
//!   typed partial results ([`LookupResult::Unavailable`]) when a server
//!   dies mid-session.
//! - [`cluster`] — in-process loopback composition of all of the
//!   above, for tests, benches, and `dakc serve --backend loopback`.
//!
//! [`Phase::Serve`]: dakc_net::Phase::Serve

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod error;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{Aggregate, BatchOutcome, LookupResult, QueryClient};
pub use cluster::{
    build_shards, start_cluster, start_cluster_replicated, ClusterChaos, ServeCluster,
};
pub use error::{ServeError, ServeResult};
pub use server::{serve_shard, serve_shards, ServeOpts, ServeStats};
pub use shard::{
    encode_shard, shard_path, write_shard, Shard, ShardMeta, DEFAULT_BLOCK_RECORDS,
    SHARD_MAGIC, SHARD_VERSION,
};
pub use wire::{Ready, Request, Response};
