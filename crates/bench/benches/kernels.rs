//! Criterion microbenchmarks for the hot kernels: k-mer extraction,
//! owner hashing, the sorting substrate, and end-to-end threaded counting.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
use dakc_kmer::{kmers_of_read, owner_pe, CanonicalMode, KmerWord};
use dakc_sort::{
    accumulate, hybrid_sort, in_cache_keys, lsd_radix_sort, msd_radix_sort, parallel_radix_sort,
    quicksort, sort_count, BucketRuns, STAGE_WORDS,
};

fn reads(n: usize) -> dakc_io::ReadSet {
    let genome = generate_genome(&GenomeSpec { bases: 200_000, repeats: None }, 1);
    simulate_reads(&genome, &ReadSimConfig::art_like(n), 1)
}

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

fn bench_extraction(c: &mut Criterion) {
    let rs = reads(2_000);
    let bases = rs.total_bases() as u64;
    let mut g = c.benchmark_group("extraction");
    g.throughput(Throughput::Bytes(bases));
    for k in [15usize, 31] {
        g.bench_with_input(BenchmarkId::new("forward_u64", k), &k, |b, &k| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    for w in kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                        acc ^= w;
                    }
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("canonical_u64", k), &k, |b, &k| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    for w in kmers_of_read::<u64>(r, k, CanonicalMode::Canonical) {
                        acc ^= w;
                    }
                }
                black_box(acc)
            })
        });
    }
    g.bench_function("forward_u128_k41", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for r in rs.iter() {
                for w in kmers_of_read::<u128>(r, 41, CanonicalMode::Forward) {
                    acc ^= w;
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_owner_hash(c: &mut Criterion) {
    let kmers = xorshift_vec(100_000, 7);
    let mut g = c.benchmark_group("owner_pe");
    g.throughput(Throughput::Elements(kmers.len() as u64));
    for p in [48usize, 6144] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let mut acc = 0usize;
                for &w in &kmers {
                    acc = acc.wrapping_add(owner_pe(w, p));
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_sorts(c: &mut Criterion) {
    let n = 1 << 17;
    let data = xorshift_vec(n, 42);
    // k = 31 k-mers occupy 62 bits; mask to be representative.
    let data: Vec<u64> = data.into_iter().map(|x| x & u64::mask(31)).collect();

    let mut g = c.benchmark_group("sort_128k_kmers");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("lsd_radix", |b| {
        b.iter(|| {
            let mut v = data.clone();
            lsd_radix_sort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("msd_radix", |b| {
        b.iter(|| {
            let mut v = data.clone();
            msd_radix_sort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("ska_hybrid", |b| {
        b.iter(|| {
            let mut v = data.clone();
            hybrid_sort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("quicksort", |b| {
        b.iter(|| {
            let mut v = data.clone();
            quicksort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("std_unstable", |b| {
        b.iter(|| {
            let mut v = data.clone();
            v.sort_unstable();
            black_box(v.len())
        })
    });
    g.bench_function("parallel_radix_4t", |b| {
        b.iter(|| {
            let mut v = data.clone();
            parallel_radix_sort(&mut v, 4);
            black_box(v.len())
        })
    });
    g.finish();
}

/// `n` k = 31 keys (62 bits) in which every distinct key occurs about
/// `dup` times, in random order — what phase 2 receives at coverage `dup`.
fn duplicated_kmers(n: usize, dup: usize) -> Vec<u64> {
    let distinct = xorshift_vec(n / dup, 42);
    xorshift_vec(n, 0x9E37)
        .into_iter()
        .map(|i| distinct[(i % distinct.len() as u64) as usize] & u64::mask(31))
        .collect()
}

/// Phase 2 as the engines meet it — out of L2, duplicated keys — which
/// `sort_128k_kmers` (L2-resident, all distinct) says nothing about: the
/// fused `sort_count` against sort-then-accumulate and the other sorters.
fn bench_phase2_out_of_cache(c: &mut Criterion) {
    let n = 1 << 22;
    for dup in [1usize, 3, 12] {
        let data = duplicated_kmers(n, dup);
        let mut g = c.benchmark_group(format!("phase2_4m_dup{dup}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function("sort_count", |b| {
            b.iter(|| {
                let mut v = data.clone();
                let mut counts: Vec<(u64, u32)> = Vec::new();
                sort_count(&mut v, |w, c| counts.push((w, c)));
                black_box(counts.len())
            })
        });
        g.bench_function("hybrid_sort_accumulate", |b| {
            b.iter(|| {
                let mut v = data.clone();
                hybrid_sort(&mut v);
                black_box(accumulate(&v).len())
            })
        });
        g.bench_function("ska_hybrid", |b| {
            b.iter(|| {
                let mut v = data.clone();
                hybrid_sort(&mut v);
                black_box(v.len())
            })
        });
        g.bench_function("std_unstable", |b| {
            b.iter(|| {
                let mut v = data.clone();
                v.sort_unstable();
                black_box(v.len())
            })
        });
        g.bench_function("lsd_radix", |b| {
            b.iter(|| {
                let mut v = data.clone();
                lsd_radix_sort(&mut v);
                black_box(v.len())
            })
        });
        g.finish();
    }
}

/// Phase 2 as a `Fabric` engine meets it — the keys of one `uniform_k31`
/// rank arriving a 32-word NORMAL packet at a time: appended to one received
/// array that `sort_count` then sorts (the paper's shape, and the serial
/// oracle's), against staged batches absorbed into `BucketRuns` and counted
/// one bucket at a time (what the engines do). Both sides pay their own
/// allocations, as a rank does.
fn bench_phase2_arrival(c: &mut Criterion) {
    let n = 1 << 22;
    const PACKET_WORDS: usize = 32;
    for dup in [1usize, 3, 12] {
        let data = duplicated_kmers(n, dup);
        let mut g = c.benchmark_group(format!("phase2_arrival_dup{dup}"));
        g.sample_size(10);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function("one_array_sort_count", |b| {
            b.iter(|| {
                let mut received: Vec<u64> = Vec::new();
                for packet in data.chunks(PACKET_WORDS) {
                    received.extend_from_slice(packet);
                }
                let mut counts: Vec<(u64, u32)> = Vec::new();
                sort_count(&mut received, |w, c| counts.push((w, c)));
                black_box(counts.len())
            })
        });
        g.bench_function("staged_runs_per_bucket", |b| {
            b.iter(|| {
                let mut runs = BucketRuns::new(62);
                let mut staged: Vec<u64> = Vec::new();
                for packet in data.chunks(PACKET_WORDS) {
                    staged.extend_from_slice(packet);
                    if staged.len() >= STAGE_WORDS {
                        runs.absorb(&mut staged, 0);
                    }
                }
                runs.absorb(&mut staged, 0);
                let mut counts: Vec<(u64, u32)> = Vec::new();
                runs.sort_count(|w, c| counts.push((w, c)));
                black_box(counts.len())
            })
        });
        g.finish();
    }
}

/// The candidates for `sort_count`'s in-cache finisher, each run over the
/// `in_cache_keys`-sized buckets of a 2^18-key array that an 8-bit
/// partition has already been through (keys of a bucket share their top
/// byte). The winner is the one `dakc_sort::hybrid` keeps.
fn bench_phase2_in_cache(c: &mut Criterion) {
    let n = 1 << 18;
    let bucket = in_cache_keys::<u64>();
    for dup in [1usize, 3, 12] {
        let mut data = duplicated_kmers(n, dup);
        for (i, x) in data.iter_mut().enumerate() {
            *x = (*x >> 8) | ((i / bucket) as u64 % 64) << 54;
        }
        let mut g = c.benchmark_group(format!("phase2_in_cache_dup{dup}"));
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function("std_unstable", |b| {
            b.iter(|| {
                let mut v = data.clone();
                v.chunks_mut(bucket).for_each(|s| s.sort_unstable());
                black_box(v.len())
            })
        });
        g.bench_function("msd_radix", |b| {
            b.iter(|| {
                let mut v = data.clone();
                v.chunks_mut(bucket).for_each(msd_radix_sort);
                black_box(v.len())
            })
        });
        g.bench_function("lsd_radix", |b| {
            b.iter(|| {
                let mut v = data.clone();
                let mut s = Vec::with_capacity(bucket);
                for chunk in v.chunks_mut(bucket) {
                    s.clear();
                    s.extend_from_slice(chunk);
                    lsd_radix_sort(&mut s);
                    chunk.copy_from_slice(&s);
                }
                black_box(v.len())
            })
        });
        g.finish();
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let rs = reads(4_000);
    let kmers = rs.total_kmers(31) as u64;
    let mut g = c.benchmark_group("count_threaded");
    g.sample_size(10);
    g.throughput(Throughput::Elements(kmers));
    for t in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("dakc", t), &t, |b, &t| {
            b.iter(|| {
                black_box(
                    dakc::count_kmers_threaded::<u64>(&rs, 31, CanonicalMode::Forward, t, None)
                        .counts
                        .len(),
                )
            })
        });
    }
    g.bench_function("kmc3_4t", |b| {
        b.iter(|| {
            black_box(
                dakc_baselines::count_kmers_kmc3::<u64>(
                    &rs,
                    &dakc_baselines::Kmc3Config::defaults(31, 4),
                )
                .counts
                .len(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_owner_hash,
    bench_sorts,
    bench_phase2_out_of_cache,
    bench_phase2_arrival,
    bench_phase2_in_cache,
    bench_end_to_end
);
criterion_main!(benches);
