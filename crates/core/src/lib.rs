//! # dakc — Distributed Asynchronous k-mer Counting
//!
//! The paper's primary contribution: an FA-BSP k-mer counter that replaces
//! the bulk-synchronous Many-To-Many exchanges of PakMan/HySortK with
//! fine-grained one-sided messages behind a four-layer aggregation stack
//! (Algorithm 3 + Algorithm 4).
//!
//! Algorithm 3 is written once, as a resumable rank program that two
//! runtimes step:
//!
//! * [`engine::count_kmers_sim`] — the [`dakc_sim`] virtual-time cluster
//!   (any node count, Table IV cost model); this is what every
//!   distributed-memory experiment uses.
//! * [`distributed::run_rank`] — real ranks over a `dakc_net` transport
//!   (threads over loopback, or OS processes over TCP).
//!
//! [`threaded::count_kmers_threaded`] runs on real OS threads with
//! in-memory delivery, the configuration the paper benchmarks on single
//! shared-memory nodes (Fig 9), where the runtime turns remote messages
//! into `memcpy`.
//!
//! Layer map (paper §IV):
//!
//! ```text
//!  AsyncAdd(kmer)
//!    └─ L3   heavy-hitter pre-accumulation   (dakc::aggregate)
//!        └─ L2   C2-k-mer packet packing      (dakc::aggregate)
//!            └─ L1   actor staging            (dakc_conveyors::actor)
//!                └─ L0   routed PUT buffers   (dakc_conveyors::conveyor)
//! ```
//!
//! A quickstart:
//!
//! ```
//! use dakc::{engine::count_kmers_sim, DakcConfig};
//! use dakc_io::ReadSet;
//! use dakc_sim::MachineConfig;
//!
//! let mut reads = ReadSet::new();
//! reads.push(b"ACGTACGTACGTACGT");
//! let cfg = DakcConfig::scaled_defaults(5);
//! let machine = MachineConfig::test_machine(2, 2);
//! let out = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
//! assert_eq!(out.counts.iter().map(|c| c.count as usize).sum::<usize>(), 12);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod aggregate;
pub mod config;
pub mod costs;
pub mod distributed;
pub mod engine;
pub mod overlap;
mod rank;
pub mod threaded;

pub use aggregate::{
    decode_packet, encode_heavy_packet, encode_normal_packet, Aggregator, DecodeError,
    ReceiveStore,
};
pub use config::{DakcConfig, DEFAULT_MINIMIZER_LEN};
pub use distributed::{
    count_kmers_loopback, count_kmers_loopback_opts, count_partition, count_partition_on,
    run_rank, run_rank_on, run_rank_opts, NetRun, Partition, RunOpts,
};
pub use engine::{count_kmers_sim, count_kmers_sim_traced, DakcRun};
pub use overlap::{count_kmers_sim_overlap, OverlapRun};
pub use rank::PeOutput;
pub use threaded::{
    count_kmers_threaded, count_kmers_threaded_opts, count_kmers_threaded_traced, ThreadedOpts,
    ThreadedRun, DEFAULT_ROUTE_BATCH,
};
