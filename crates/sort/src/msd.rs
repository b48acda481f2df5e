//! In-place MSD ("American flag") radix sort.
//!
//! Partitions by the most significant digit using cycle-chasing swaps (no
//! scratch buffer), then recurses into each bucket: one pass per key byte,
//! the worst case the paper's phase-2 model assumes. Kept as a comparator
//! (Fig 6, the `kernels` bench): out of cache the swap chain is one
//! dependent miss per key, which is why [`crate::hybrid`] partitions out
//! of place instead.

use crate::RadixKey;

/// Buckets smaller than this are insertion-sorted instead of recursed.
const INSERTION_CUTOFF: usize = 32;

/// Sorts `data` ascending, in place (unstable), using American-flag
/// partitioning from the most significant digit down.
pub fn msd_radix_sort<K: RadixKey>(data: &mut [K]) {
    if data.len() > 1 {
        sort_level(data, K::LEVELS - 1);
    }
}

fn sort_level<K: RadixKey>(data: &mut [K], level: usize) {
    if data.len() <= INSERTION_CUTOFF {
        insertion_sort(data);
        return;
    }

    let mut hist = [0usize; 256];
    for k in data.iter() {
        hist[k.radix_at(level) as usize] += 1;
    }

    // A constant digit contributes nothing; descend directly.
    if hist.contains(&data.len()) {
        if level > 0 {
            sort_level(data, level - 1);
        } else {
            // All keys equal on every remaining digit ⇒ already sorted.
        }
        return;
    }

    // Bucket start offsets.
    let mut start = [0usize; 256];
    let mut sum = 0usize;
    for (s, &c) in start.iter_mut().zip(hist.iter()) {
        *s = sum;
        sum += c;
    }
    let bucket_start = start; // immutable copy for recursion bounds
    let mut next = start; // next free slot per bucket
    let mut end = [0usize; 256];
    for (e, (&s, &c)) in end.iter_mut().zip(bucket_start.iter().zip(hist.iter())) {
        *e = s + c;
    }

    // Cycle-chasing permutation: place each element into its bucket.
    for b in 0..256 {
        while next[b] < end[b] {
            let mut i = next[b];
            loop {
                let d = data[i].radix_at(level) as usize;
                if d == b {
                    next[b] += 1;
                    break;
                }
                data.swap(i, next[d]);
                next[d] += 1;
                i = next[b];
                // `i` still points at the slot we must fill for bucket b.
            }
        }
    }

    if level > 0 {
        for b in 0..256 {
            let (lo, hi) = (bucket_start[b], end[b]);
            if hi - lo > 1 {
                sort_level(&mut data[lo..hi], level - 1);
            }
        }
    }
}

/// Binary insertion-free classic insertion sort for tiny buckets.
fn insertion_sort<K: Ord + Copy>(data: &mut [K]) {
    for i in 1..data.len() {
        let x = data[i];
        let mut j = i;
        while j > 0 && data[j - 1] > x {
            data[j] = data[j - 1];
            j -= 1;
        }
        data[j] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sorts_small() {
        let mut v: Vec<u64> = vec![9, 1, 4, 1, 0];
        msd_radix_sort(&mut v);
        assert_eq!(v, vec![0, 1, 1, 4, 9]);
    }

    #[test]
    fn sorts_large_random() {
        let mut v = xorshift_vec(20_000, 0xDEAD_BEEF);
        let mut expect = v.clone();
        expect.sort_unstable();
        msd_radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_u128() {
        let mut v: Vec<u128> = xorshift_vec(5_000, 42)
            .into_iter()
            .map(|x| (x as u128) << 64 | (x.rotate_left(17) as u128))
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        msd_radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn handles_duplicates_heavy() {
        // Mimics a heavy-hitter k-mer distribution: 90% one value.
        let mut v: Vec<u64> = Vec::new();
        for i in 0..10_000u64 {
            v.push(if i % 10 == 0 { i } else { 0xAAAA });
        }
        let mut expect = v.clone();
        expect.sort_unstable();
        msd_radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn empty_and_tiny() {
        let mut v: Vec<u64> = vec![];
        msd_radix_sort(&mut v);
        let mut v = vec![3u64, 1];
        msd_radix_sort(&mut v);
        assert_eq!(v, vec![1, 3]);
    }

    #[test]
    fn all_equal() {
        let mut v = vec![7u64; 1000];
        msd_radix_sort(&mut v);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn low_entropy_kmer_like() {
        let mut v: Vec<u64> = xorshift_vec(8_000, 99)
            .into_iter()
            .map(|x| x & ((1 << 62) - 1)) // k = 31 two-bit window
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        msd_radix_sort(&mut v);
        assert_eq!(v, expect);
    }
}
