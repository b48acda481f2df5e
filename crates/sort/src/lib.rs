//! # dakc-sort — the sorting substrate
//!
//! Every k-mer counter in this workspace is *sorting-based* (paper §III-A):
//! count = sort the k-mer array, then sweep it accumulating run lengths.
//! This crate provides the sorting algorithms the paper's systems use:
//!
//! * [`lsd`] — least-significant-digit radix sort (the `Θ(mn)` workhorse of
//!   KMC3, HySortK, PakMan\* and DAKC), for any [`RadixKey`] and for
//!   arbitrary records via a key extractor.
//! * [`msd`] — in-place most-significant-digit ("American flag") radix
//!   sort, the Fig 6 comparator.
//! * [`hybrid`] — phase 2 as the cost model charges for it (paper §V,
//!   sorter [47]): sorted input returns after one read, anything larger
//!   than L1 is radix-partitioned out of place by the top 8 bits that vary,
//!   L1-sized buckets are finished by the comparison sort, and
//!   [`sort_count`] emits each bucket's `{key, run length}` runs while it
//!   is still in cache. Every counting engine's phase 2 is this kernel.
//! * [`runs`] — how the engines feed that kernel without ever holding the
//!   received array: arrivals are counting-scattered one cache-resident
//!   batch at a time into [`BucketRuns`] and counted one bucket at a time.
//! * [`parallel`] — multi-threaded radix sort on scoped threads
//!   (the intra-node hybrid parallelism of HySortK and KMC3).
//! * [`quicksort`] — a classic median-of-three quicksort: the sort used by
//!   the *original* PakMan kernel, kept as a baseline so Figure 6's
//!   "radix sort makes PakMan ≈2× faster" experiment can be rerun.
//! * [`accumulate`] — the `Accumulate` sweep of Algorithm 1 on its own
//!   (fused into the sort by [`sort_count`]), plus the weighted variant the
//!   L3 heavy-hitter path needs.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod accumulate;
pub mod hybrid;
pub mod lsd;
pub mod msd;
pub mod parallel;
pub mod quicksort;
pub mod runs;

pub use accumulate::{accumulate, accumulate_weighted, distinct_runs_estimate};
pub use hybrid::{hybrid_sort, hybrid_sort_from, in_cache_keys, sort_count, IN_CACHE_BYTES};
pub use lsd::{lsd_radix_sort, lsd_radix_sort_by};
pub use msd::msd_radix_sort;
pub use parallel::parallel_radix_sort;
pub use quicksort::quicksort;
pub use runs::{BucketRun, BucketRuns, STAGE_WORDS};

use std::ops::{BitOr, BitXor};

/// A fixed-width unsigned key that radix sorts can digit-decompose.
///
/// `LEVELS` is the number of 8-bit digits; `radix_at(0)` is the *least*
/// significant byte. `Default` is the all-zero key.
pub trait RadixKey:
    Copy + Ord + Default + BitXor<Output = Self> + BitOr<Output = Self> + Send + Sync + 'static
{
    /// Number of 8-bit digit levels in the key.
    const LEVELS: usize;

    /// The 8-bit digit at `level` (0 = least significant).
    fn radix_at(self, level: usize) -> u8;

    /// The 8 bits starting at bit `shift` (0 = least significant): a digit
    /// that need not be byte-aligned. `shift` is below the key's width.
    fn bits_at(self, shift: u32) -> u8;

    /// One past the index of the highest set bit; 0 for the zero key.
    fn bit_len(self) -> u32;
}

macro_rules! radix_key {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            const LEVELS: usize = std::mem::size_of::<$t>();

            #[inline]
            fn radix_at(self, level: usize) -> u8 {
                (self >> (8 * level)) as u8
            }

            #[inline]
            fn bits_at(self, shift: u32) -> u8 {
                (self >> shift) as u8
            }

            #[inline]
            fn bit_len(self) -> u32 {
                <$t>::BITS - self.leading_zeros()
            }
        }
    )*};
}
radix_key!(u32, u64, u128);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_digits_of_u64() {
        let x: u64 = 0x0102_0304_0506_0708;
        assert_eq!(x.radix_at(0), 0x08);
        assert_eq!(x.radix_at(7), 0x01);
    }

    #[test]
    fn radix_digits_of_u128() {
        let x: u128 = 0xAB << 120;
        assert_eq!(x.radix_at(15), 0xAB);
        assert_eq!(x.radix_at(0), 0);
    }

    #[test]
    fn radix_digits_of_u32() {
        let x: u32 = 0xDEAD_BEEF;
        assert_eq!(x.radix_at(0), 0xEF);
        assert_eq!(x.radix_at(3), 0xDE);
    }
}
