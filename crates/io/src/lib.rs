//! # dakc-io — sequence I/O and workload generation
//!
//! The paper's experiments consume FASTQ files: synthetic ones produced by
//! the ART Illumina simulator over uniform-random genomes, and real ones
//! downloaded from NCBI SRA (Table V). This crate provides both ends:
//!
//! * [`scan`] — the one FASTA/FASTQ scanner, and byte-range slicing of a
//!   file so `P` ranks each parse `1/P` of it.
//! * [`fastx`], [`stream`] — record-level adapters over the scanner, and
//!   FASTA/FASTQ writing.
//! * [`tsv`] — the `KMER<TAB>COUNT` writer.
//! * [`readset`] — the compact in-memory read container every engine
//!   consumes (flat byte arena + offsets; no per-read allocation).
//! * [`genome`] — synthetic genome generation: uniform random sampling
//!   over `{A,C,G,T}` (paper §VI) plus tandem-repeat injection modelling
//!   the `(AATGG)n` heavy-hitter arrays of complex genomes (§IV-D).
//! * [`reads`] — an ART-style short-read simulator: uniform sampling,
//!   fixed read length, substitution errors with Phred qualities.
//! * [`datasets`] — the Table V registry: all 13 synthetic scales and
//!   surrogate profiles for the 7 real SRA datasets, with the global
//!   scale-down knob documented in DESIGN.md §4.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod datasets;
pub mod fastx;
pub mod genome;
pub mod reads;
pub mod readset;
pub mod rng;
pub mod scan;
pub mod stream;
pub mod tsv;

pub use datasets::{table_v, DatasetSpec, ScaledDataset, DEFAULT_SCALE_SHIFT};
pub use fastx::{parse_fasta, parse_fastq, write_fasta, write_fastq, FastxError, FastxRecord};
pub use genome::{generate_genome, GenomeSpec, RepeatProfile};
pub use reads::{simulate_paired_reads, simulate_reads, PairedSimConfig, ReadSimConfig};
pub use readset::ReadSet;
pub use scan::{load, load_slice, sniff};
pub use stream::{FastxFormat, FastxReader};
pub use tsv::TsvWriter;
