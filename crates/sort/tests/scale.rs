//! Release-mode scale test: arrays far beyond any cache, several scatter
//! levels deep, duplicated and skewed like real k-mer arrays. Ignored by
//! default (debug builds take minutes); CI runs it with
//! `cargo test --release -p dakc-sort -- --include-ignored`.

use dakc_sort::{accumulate, hybrid_sort, sort_count, BucketRuns, RadixKey, STAGE_WORDS};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// `n` keys of `bits` bits drawn from `n / 6` distinct values, a tenth of
/// them one heavy key and another tenth a tight cluster around a second.
fn kmer_like(n: usize, bits: u32, seed: u64) -> Vec<u128> {
    let mut next = xorshift(seed);
    let mut wide = || ((next() as u128) << 64 | next() as u128) >> (128 - bits);
    let pool: Vec<u128> = (0..n / 6).map(|_| wide()).collect();
    let (heavy, cluster) = (wide(), wide() >> 16 << 16);
    let mut next = xorshift(seed ^ 0x9E37_79B9);
    (0..n)
        .map(|_| match next() % 10 {
            0 => heavy,
            1 => cluster | (next() & 0xFFFF) as u128,
            _ => pool[next() as usize % pool.len()],
        })
        .collect()
}

fn check<K: RadixKey + std::fmt::Debug>(v: Vec<K>) {
    let mut expect = v.clone();
    expect.sort_unstable();
    let mut sorted = v.clone();
    hybrid_sort(&mut sorted);
    assert!(sorted == expect, "hybrid_sort differs from sort_unstable");
    let mut counted = Vec::new();
    sort_count(&mut { v }, |k, c| counted.push((k, c)));
    assert!(counted == accumulate(&expect), "sort_count differs from accumulate");
}

#[test]
#[ignore = "release-mode scale test"]
fn eight_million_u64_keys() {
    // k = 31: a 62-bit window.
    check(kmer_like(1 << 23, 62, 0xD1CE).into_iter().map(|x| x as u64).collect::<Vec<_>>());
}

#[test]
#[ignore = "release-mode scale test"]
fn two_million_u128_keys() {
    // k = 33: a 66-bit window across the u64 boundary.
    check(kmer_like(1 << 21, 66, 0xFACE));
}

#[test]
#[ignore = "release-mode scale test"]
fn four_million_keys_in_hundreds_of_runs() {
    // One `uniform_k31`-sized rank: 2^22 62-bit keys arriving as ≈350 runs
    // of uneven length (a stage constant give or take, a packet, nothing).
    let v: Vec<u64> = kmer_like(1 << 22, 62, 0xA551).into_iter().map(|x| x as u64).collect();
    let mut expect = Vec::new();
    sort_count(&mut v.clone(), |k, c| expect.push((k, c)));

    let mut runs = BucketRuns::new(62);
    let mut staged = Vec::new();
    let mut next = xorshift(0xBEEF);
    let mut rest = v.as_slice();
    let mut absorbs = 0;
    while !rest.is_empty() {
        let n = match next() % 8 {
            0 => 0,
            1 => 32,
            _ => STAGE_WORDS / 2 + next() as usize % STAGE_WORDS,
        }
        .min(rest.len());
        staged.extend_from_slice(&rest[..n]);
        rest = &rest[n..];
        runs.absorb(&mut staged, absorbs % 3);
        absorbs += 1;
    }
    assert!(absorbs > 300 && runs.len() == v.len(), "{absorbs} absorbs");
    let mut counted = Vec::new();
    runs.sort_count(|k, c| counted.push((k, c)));
    assert!(counted == expect, "bucket-by-bucket count differs from sort_count");
}
