//! Property tests: every sorter agrees with `std` sort; accumulate is a
//! faithful histogram.

use dakc_sort::{
    accumulate, accumulate_weighted, distinct_runs_estimate, hybrid_sort, hybrid_sort_from,
    in_cache_keys, lsd_radix_sort, lsd_radix_sort_by, msd_radix_sort, parallel_radix_sort,
    quicksort, sort_count, BucketRuns, RadixKey, STAGE_WORDS,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// `sort_count` must emit exactly what `sort_unstable` + `accumulate` do.
fn sort_count_matches<K: RadixKey + std::fmt::Debug>(v: &[K]) {
    let mut expect = v.to_vec();
    expect.sort_unstable();
    let mut counted = Vec::new();
    sort_count(&mut v.to_vec(), |k, c| counted.push((k, c)));
    assert_eq!(counted, accumulate(&expect));
}

/// Lengths on both sides of the out-of-place bound for `K`, up to 4× it.
fn around_bound<K>() -> impl Strategy<Value = usize> {
    let bound = in_cache_keys::<K>();
    prop::sample::select(vec![0, 1, 2, 7, bound - 1, bound, bound + 1, 2 * bound + 5, 4 * bound])
}

/// `n` keys drawn from `distinct` random values of `bits` bits: duplicated,
/// and with every bit above the window constant (zero).
fn keys(n: usize, distinct: usize, bits: u32, seed: u64) -> Vec<u128> {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pool: Vec<u128> = (0..distinct.max(1))
        .map(|_| ((next() as u128) << 64 | next() as u128) >> (128 - bits))
        .collect();
    (0..n).map(|_| pool[next() as usize % pool.len()]).collect()
}

/// `v` cut into batches of the given sizes (the last takes the rest),
/// absorbed from sources 0, 1, 2, 0, … and counted bucket by bucket.
fn absorbed<K: RadixKey>(v: &[K], key_bits: u32, batches: &[usize]) -> BucketRuns<K> {
    let mut runs = BucketRuns::new(key_bits);
    let mut staged = Vec::new();
    let mut rest = v;
    for (i, &n) in batches.iter().enumerate() {
        let n = if i + 1 == batches.len() { rest.len() } else { n.min(rest.len()) };
        staged.extend_from_slice(&rest[..n]);
        rest = &rest[n..];
        runs.absorb(&mut staged, i % 3);
        assert!(staged.is_empty(), "absorb leaves the staging buffer empty");
    }
    assert_eq!(runs.len(), v.len());
    runs
}

fn counted<K: RadixKey>(runs: BucketRuns<K>) -> Vec<(K, u32)> {
    let mut out = Vec::new();
    runs.sort_count(|k, c| out.push((k, c)));
    out
}

/// However the input is cut into batches, counting the runs bucket by
/// bucket is `sort_count` of the concatenation.
fn runs_match_sort_count<K: RadixKey + std::fmt::Debug>(v: &[K], k: u32, batches: &[usize]) {
    let mut expect = Vec::new();
    sort_count(&mut v.to_vec(), |key, c| expect.push((key, c)));
    assert_eq!(counted(absorbed(v, 2 * k, batches)), expect, "k = {k}, batches {batches:?}");
}

/// Batch sizes: empty, one word, exactly the stage constant, one far above
/// it, and a few ordinary ones.
fn batch_sizes() -> impl Strategy<Value = Vec<usize>> {
    let sizes = vec![0, 1, 2, 33, 1000, STAGE_WORDS - 1, STAGE_WORDS, 5 * STAGE_WORDS + 3];
    prop::collection::vec(prop::sample::select(sizes), 1..7)
}

/// k with 2k below 8, equal to 8, filling a word and straddling one.
fn ks(max: u32) -> impl Strategy<Value = u32> {
    prop::sample::select([1, 3, 4, 15, 16, 31, 32, 33, 64].into_iter().filter(|&k| k <= max).collect())
}

proptest! {
    #[test]
    fn runs_match_sort_count_u32(k in ks(16), batches in batch_sizes(), dup in 1usize..20, seed in any::<u64>()) {
        let n: usize = batches.iter().sum();
        let v: Vec<u32> = keys(n, n / dup, 2 * k, seed).iter().map(|&x| x as u32).collect();
        runs_match_sort_count(&v, k, &batches);
    }

    #[test]
    fn runs_match_sort_count_u64(k in ks(32), batches in batch_sizes(), dup in 1usize..20, seed in any::<u64>()) {
        let n: usize = batches.iter().sum();
        let v: Vec<u64> = keys(n, n / dup, 2 * k, seed).iter().map(|&x| x as u64).collect();
        runs_match_sort_count(&v, k, &batches);
    }

    #[test]
    fn runs_match_sort_count_u128(k in ks(64), batches in batch_sizes(), dup in 1usize..20, seed in any::<u64>()) {
        let n: usize = batches.iter().sum();
        runs_match_sort_count(&keys(n, n / dup, 2 * k, seed), k, &batches);
    }

    #[test]
    fn runs_with_a_dominant_key(batches in batch_sizes(), share in 51usize..100, seed in any::<u64>()) {
        // One key holds more than half of all words, the (AATGG)n shape:
        // its bucket goes through the same per-bucket `sort_count`.
        let n: usize = batches.iter().sum();
        let mut v: Vec<u64> = keys(n, n, 62, seed).iter().map(|&x| x as u64).collect();
        for (i, x) in v.iter_mut().enumerate() {
            if i % 100 < share {
                *x = 0x0303_0202_0000;
            }
        }
        runs_match_sort_count(&v, 31, &batches);
    }

    #[test]
    fn dropping_a_source_is_never_having_received_it(
        sizes in prop::collection::vec(0usize..3000, 3..12),
        dead in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Sources 0, 1, 2 interleave batch by batch; after all absorbs,
        // dropping one leaves exactly the other two's batches.
        let n: usize = sizes.iter().sum();
        let v: Vec<u64> = keys(n, n / 3, 62, seed).iter().map(|&x| x as u64).collect();
        let mut batches = sizes.clone();
        batches.push(0); // `absorbed` gives the last batch the rest: none.
        let mut all = absorbed(&v, 62, &batches);
        let (mut kept, mut at) = (Vec::new(), 0);
        for (i, &len) in sizes.iter().enumerate() {
            if i % 3 != dead {
                kept.extend_from_slice(&v[at..at + len]);
            }
            at += len;
        }
        prop_assert_eq!(all.drop_source(dead), n - kept.len());
        prop_assert_eq!(all.len(), kept.len());
        prop_assert_eq!(all.drop_source(dead), 0);
        let mut expect = Vec::new();
        sort_count(&mut kept, |key, c| expect.push((key, c)));
        prop_assert_eq!(counted(all), expect);
    }

    #[test]
    fn sort_count_matches_std_u32(n in around_bound::<u32>(), dup in 1usize..20, bits in 1u32..=32, seed in any::<u64>()) {
        let v: Vec<u32> = keys(n, n / dup, bits, seed).iter().map(|&x| x as u32).collect();
        sort_count_matches(&v);
    }

    #[test]
    fn sort_count_matches_std_u64(n in around_bound::<u64>(), dup in 1usize..20, bits in 1u32..=64, seed in any::<u64>()) {
        let v: Vec<u64> = keys(n, n / dup, bits, seed).iter().map(|&x| x as u64).collect();
        sort_count_matches(&v);
    }

    #[test]
    fn sort_count_matches_std_u128(n in around_bound::<u128>(), dup in 1usize..20, bits in 1u32..=128, seed in any::<u64>()) {
        sort_count_matches(&keys(n, n / dup, bits, seed));
    }

    #[test]
    fn sort_count_with_a_dominant_key(n in around_bound::<u64>(), share in 50usize..100, seed in any::<u64>()) {
        // One key holds `share` % of the slice, the (AATGG)n shape.
        let mut v: Vec<u64> = keys(n, n, 62, seed).iter().map(|&x| x as u64).collect();
        for (i, x) in v.iter_mut().enumerate() {
            if i % 100 < share {
                *x = 0x0303_0202_0000;
            }
        }
        sort_count_matches(&v);
    }

    #[test]
    fn hybrid_from_every_level(n in around_bound::<u64>(), level in 0usize..8, hi in any::<u64>(), seed in any::<u64>()) {
        // Keys agree above digit `level`, so sorting may start there.
        let low = 8 * (level as u32 + 1);
        let prefix = if low == 64 { 0 } else { hi >> low << low };
        let mut v: Vec<u64> = keys(n, n, low, seed).iter().map(|&x| prefix | x as u64).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        hybrid_sort_from(&mut v, level);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn lsd_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..2000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        lsd_radix_sort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn lsd_u128_matches_std(mut v in prop::collection::vec(any::<u128>(), 0..800)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        lsd_radix_sort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn msd_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..2000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        msd_radix_sort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn hybrid_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..2000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        hybrid_sort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn quicksort_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..2000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        quicksort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn parallel_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..40_000), threads in 1usize..8) {
        let mut expect = v.clone();
        expect.sort_unstable();
        parallel_radix_sort(&mut v, threads);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn lsd_by_key_stability(mut v in prop::collection::vec((0u8..4, any::<u32>()), 0..500)) {
        // Tag with original index; after sorting by the small key, equal
        // keys must preserve index order (stability).
        let tagged: Vec<(u8, usize)> = v.iter().enumerate().map(|(i, &(k, _))| (k, i)).collect();
        let mut sorted = tagged.clone();
        lsd_radix_sort_by(&mut sorted, |t| t.0 as u32);
        for w in sorted.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
        v.clear(); // silence unused-mut lint paths
    }

    #[test]
    fn accumulate_is_histogram(v in prop::collection::vec(0u64..50, 0..2000)) {
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let acc = accumulate(&sorted);
        // Compare against a HashMap histogram.
        let mut hist: HashMap<u64, u32> = HashMap::new();
        for x in &v {
            *hist.entry(*x).or_default() += 1;
        }
        prop_assert_eq!(acc.len(), hist.len());
        for (val, count) in &acc {
            prop_assert_eq!(hist[val], *count);
        }
        // Output sorted strictly by value.
        prop_assert!(acc.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn accumulate_weighted_equals_expanding(pairs in prop::collection::vec((0u64..20, 1u32..5), 0..300)) {
        let mut sorted = pairs.clone();
        sorted.sort_unstable_by_key(|p| p.0);
        let weighted = accumulate_weighted(&sorted);
        // Expand pairs into repeats and accumulate plainly.
        let mut expanded: Vec<u64> = Vec::new();
        for &(v, c) in &sorted {
            expanded.extend(std::iter::repeat_n(v, c as usize));
        }
        let plain = accumulate(&expanded);
        prop_assert_eq!(weighted, plain);
    }

    #[test]
    fn distinct_estimate_never_exceeds_len(v in prop::collection::vec(0u64..64, 0..3000)) {
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let est = distinct_runs_estimate(&sorted);
        prop_assert!(est <= sorted.len());
        if !sorted.is_empty() {
            prop_assert!(est >= 1);
        }
    }

    #[test]
    fn hybrid_from_top_level_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..3000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        hybrid_sort_from(&mut v, <u64 as RadixKey>::LEVELS - 1);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn hybrid_from_respects_constant_prefix(low in prop::collection::vec(any::<u16>(), 0..3000), hi in any::<u16>()) {
        // Constant top six bytes, so sorting may start at level 1.
        let mut v: Vec<u64> = low.iter().map(|&x| ((hi as u64) << 48) | x as u64).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        hybrid_sort_from(&mut v, 1);
        prop_assert_eq!(v, expect);
    }
}
