//! Phase 2 of the paper (§V, sorter [47]): sort the received array, then
//! `Accumulate` — as one cache-aware kernel.
//!
//! The cost model (§V-A, `costs::charge_hybrid_sort`) assumes each radix
//! level reads and writes the array once and that levels stop once
//! partitions are cache-resident. [`sort_count`] has that shape; a slice
//! goes through these steps:
//!
//! 1. **At or below [`IN_CACHE_BYTES`]: finish.** The comparison sort
//!    finishes the slice and its `{key, run length}` runs are emitted while
//!    it is still in L1 — the sorted array is never re-read from memory.
//! 2. **Scan.** Already sorted input returns after one read (why measured
//!    phase-2 cache misses come in *below* the model's worst case);
//!    unsorted input leaves that check at its first inversion. A second read
//!    ORs together the bits in which keys differ.
//! 3. **Partition out of place.** The slice is copied to a scratch buffer
//!    (the histogram is taken during the copy) and counting-scattered back
//!    by the top 8 bits *that vary* — for 2-bit k-mers the top of the 2k-bit
//!    window wherever a byte boundary falls, so no pass is spent on a
//!    half-empty digit or a constant one. The scratch is released before
//!    any bucket is descended into, so the high-water mark is one extra
//!    copy of the slice being partitioned and only while it is partitioned.
//! 4. **Descend** into each bucket from step 1 — except a bucket that kept
//!    more than half of its parent: one prefix dominates it ((AATGG)n
//!    arrays), radix levels would carry the same keys down digit by digit,
//!    and the comparison sort's equal-key partitioning retires them in a
//!    pass or two, so it is finished as in step 1 whatever its size.

use crate::RadixKey;

/// Slices of at most this many bytes are finished by the comparison sort;
/// larger ones are radix-partitioned first. A constant, not a knob: it is
/// an L1d-resident 2 Ki `u64` keys, the middle of the flat stretch
/// (8–32 KiB) of the phase-2 rate measured on this repo's three benchmark
/// workloads (DESIGN.md, "Phase 2"). Larger bounds leave the comparison
/// sort levels a radix pass does cheaper; smaller ones pay a partition's
/// 256 counters and its scratch for a handful of keys per bucket.
pub const IN_CACHE_BYTES: usize = 16 * 1024;

/// [`IN_CACHE_BYTES`] in keys of type `K`.
pub const fn in_cache_keys<K>() -> usize {
    IN_CACHE_BYTES / std::mem::size_of::<K>()
}

/// Sorts ascending, in place (unstable).
pub fn hybrid_sort<K: RadixKey>(data: &mut [K]) {
    sort_slices(data, &mut |_| {});
}

/// [`hybrid_sort`] for a caller that knows every digit above `level` is
/// constant across `data` (a bucket of an earlier radix partition, or
/// k-mers whose 2k-bit window ends in byte `level`). The kernel finds the
/// varying bits itself, so this only states — and in debug builds checks —
/// that contract.
pub fn hybrid_sort_from<K: RadixKey>(data: &mut [K], level: usize) {
    debug_assert!(
        (level + 1..K::LEVELS).all(|l| data.iter().all(|x| x.radix_at(l) == data[0].radix_at(l))),
        "keys differ above digit {level}"
    );
    hybrid_sort(data);
}

/// Sorts `data` and calls `emit(key, occurrences)` once per distinct key in
/// ascending order: [`hybrid_sort`] and [`crate::accumulate`] in one pass
/// over memory. Occurrences saturate at `u32::MAX`.
pub fn sort_count<K: RadixKey>(data: &mut [K], mut emit: impl FnMut(K, u32)) {
    sort_slices(data, &mut |sorted| {
        let mut rest = sorted;
        while let Some(&key) = rest.first() {
            let run = rest.iter().position(|&x| x != key).unwrap_or(rest.len());
            emit(key, saturating_count(run));
            rest = &rest[run..];
        }
    });
}

/// A run length as a count ("from 1 to the maximum supported count").
fn saturating_count(run: usize) -> u32 {
    u32::try_from(run).unwrap_or(u32::MAX)
}

/// Sorts `data`, calling `done` on consecutive sorted sub-slices that cover
/// it left to right; no key occurs in two of them.
fn sort_slices<K: RadixKey>(data: &mut [K], done: &mut impl FnMut(&[K])) {
    if data.len() <= in_cache_keys::<K>() {
        data.sort_unstable();
        return done(data);
    }
    if data.windows(2).all(|w| w[0] <= w[1]) {
        return done(data);
    }
    let first = data[0];
    let varying = data.iter().fold(K::default(), |v, &x| v | (x ^ first));
    // The digit holds the highest varying bit, so at least two buckets fill.
    let shift = varying.bit_len().saturating_sub(8);
    let mut next = [0usize; 256];
    {
        let scratch: Vec<K> = data
            .iter()
            .map(|&x| {
                next[x.bits_at(shift) as usize] += 1;
                x
            })
            .collect();
        let mut start = 0;
        for n in next.iter_mut() {
            start += std::mem::replace(n, start);
        }
        for &x in &scratch {
            let slot = &mut next[x.bits_at(shift) as usize];
            data[*slot] = x;
            *slot += 1;
        }
    }
    // `next[d]` is now where bucket `d` ends and bucket `d + 1` starts.
    let half = data.len() / 2;
    let mut start = 0;
    for end in next {
        let bucket = &mut data[start..end];
        start = end;
        if bucket.len() > half {
            bucket.sort_unstable();
            done(bucket);
        } else if !bucket.is_empty() {
            sort_slices(bucket, done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate;

    fn xorshift_vec(n: usize, mut x: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    /// `hybrid_sort` ≡ `sort_unstable`, and `sort_count` ≡ that +
    /// `accumulate`.
    fn check<K: RadixKey + std::fmt::Debug>(v: &[K]) {
        let mut expect = v.to_vec();
        expect.sort_unstable();
        let mut sorted = v.to_vec();
        hybrid_sort(&mut sorted);
        assert_eq!(sorted, expect);
        let mut counted = Vec::new();
        sort_count(&mut v.to_vec(), |k, c| counted.push((k, c)));
        assert_eq!(counted, accumulate(&expect));
    }

    #[test]
    fn random_matches_std() {
        check(&xorshift_vec(30_000, 1234));
    }

    #[test]
    fn sizes_straddling_the_bound() {
        let bound = in_cache_keys::<u64>();
        for n in [0, 1, 2, bound - 1, bound, bound + 1, 4 * bound] {
            // Distinct keys, then every key about three times.
            check(&xorshift_vec(n, 7));
            check(&xorshift_vec(n, 7).iter().map(|x| x % (n as u64 / 3 + 1)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sorted_reversed_and_one_inversion() {
        let n = 4 * in_cache_keys::<u64>() as u64;
        check(&(0..n).collect::<Vec<_>>());
        check(&(0..n).rev().collect::<Vec<_>>());
        let mut v: Vec<u64> = (0..n).collect();
        v.swap(0, 1);
        check(&v);
        let mut v: Vec<u64> = (0..n).map(|x| x / 3).collect();
        v.swap(n as usize - 2, n as usize - 4);
        check(&v);
    }

    #[test]
    fn all_equal_above_the_bound() {
        check(&vec![0xDEAD_BEEFu64; 3 * in_cache_keys::<u64>()]);
        check(&vec![0u64; in_cache_keys::<u64>() + 1]);
    }

    #[test]
    fn one_key_at_ninety_percent() {
        // The (AATGG)n shape: one bucket keeps most of its parent at every
        // level and must not be carried down digit by digit.
        let repeat = 0x0303_0202_0000u64;
        let v: Vec<u64> = xorshift_vec(40 * in_cache_keys::<u64>(), 5)
            .into_iter()
            .enumerate()
            .map(|(i, x)| if i % 10 != 0 { repeat } else { x >> 2 })
            .collect();
        check(&v);
    }

    #[test]
    fn two_scatter_levels_deep() {
        // 24 varying bits over a duplicated low byte: the first level's 256
        // buckets are still above the bound.
        let n = 300 * in_cache_keys::<u64>();
        let v: Vec<u64> = xorshift_vec(n, 11).iter().map(|x| (x >> 40) << 20 | (x & 0xFF)).collect();
        check(&v);
    }

    #[test]
    fn keys_constant_above_every_level() {
        let n = 3 * in_cache_keys::<u64>();
        for level in 0..8 {
            let low_bits = 8 * (level as u32 + 1);
            let prefix = if low_bits == 64 { 0 } else { 0xA5C3_96F0_1E2D_4B78u64 >> low_bits << low_bits };
            let mut v: Vec<u64> = xorshift_vec(n, 99 + level as u64)
                .into_iter()
                .map(|x| prefix | (x >> (64 - low_bits)))
                .collect();
            check(&v);
            let mut expect = v.clone();
            expect.sort_unstable();
            hybrid_sort_from(&mut v, level);
            assert_eq!(v, expect, "level {level}");
        }
    }

    #[test]
    #[should_panic(expected = "keys differ above digit 2")]
    #[cfg(debug_assertions)]
    fn from_level_contract_is_checked() {
        hybrid_sort_from(&mut [1u64 << 40, 0], 2);
    }

    #[test]
    fn u32_and_u128_keys() {
        let n = 5 * in_cache_keys::<u32>();
        check(&xorshift_vec(n, 3).iter().map(|&x| (x >> 40) as u32).collect::<Vec<_>>());
        // k = 33: a 66-bit window straddling the u64 boundary.
        check(&xorshift_vec(n, 777).iter().map(|&x| (x as u128 * 0x5_0000_0003) >> 34 << 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_lengths_saturate() {
        assert_eq!(saturating_count(7), 7);
        assert_eq!(saturating_count(u32::MAX as usize), u32::MAX);
        #[cfg(target_pointer_width = "64")]
        assert_eq!(saturating_count(u32::MAX as usize + 9), u32::MAX);
    }
}
