//! # dakc-kmer — the k-mer substrate for DAKC
//!
//! This crate provides everything the k-mer counting algorithms need to go
//! from raw DNA text to fixed-width integer k-mers:
//!
//! * [`encode`] — 2-bit DNA base encoding (`A=0, C=1, G=2, T=3`) and the
//!   ASCII lookup tables used by every parser in the workspace.
//! * [`kmer`] — packed k-mer words ([`Kmer64`] for `k ≤ 32`, [`Kmer128`] for
//!   `k ≤ 64`, the paper's named future-work extension), rolling updates,
//!   reverse complements and canonicalization.
//! * [`extract`] — iterators producing every k-mer of a read, exactly as
//!   Algorithm 1's `GetFirstKmer` + shift loop does, with handling for
//!   non-ACGT characters.
//! * [`hash`] — the `OwnerPE` mapping that assigns each distinct k-mer to
//!   the processing element responsible for counting it.
//! * [`minimizer`] — minimizer / super-k-mer segmentation (the binning
//!   scheme of the KMC3-style shared-memory baseline) and the packed span
//!   wire codec of the L2.5 `--superkmer` encoding.
//! * [`counts`] — the `{k-mer, count}` output representation shared by all
//!   engines, plus helpers for comparing results across engines.
//!
//! The types here are deliberately small `Copy` integers: the paper stores a
//! k-mer of length `k` in a `2^ceil(log2(2k))`-bit unsigned integer and all
//! communication layers move them as raw words.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod counts;
pub mod encode;
pub mod extract;
pub mod hash;
pub mod kmer;
pub mod minimizer;
pub mod spectrum;

pub use counts::KmerCount;
pub use encode::{complement_code, decode_base, encode_base, is_dna_base};
pub use extract::{extract_into, kmers_of_read, CanonicalMode, KmerIter};
pub use hash::{owner_pe, splitmix64};
pub use kmer::{Kmer128, Kmer64, KmerWord};
pub use minimizer::{
    for_each_span, minimizer_of, minimizer_of_mode, pack_span, packed_span_bytes, span_kmers,
    super_kmers, super_kmers_mode, unpack_spans, Span, SpanDecodeError, SpanSummary, SuperKmer,
    SPAN_MAX_BASES,
};
pub use spectrum::{analyze as analyze_spectrum, SpectrumSummary};
