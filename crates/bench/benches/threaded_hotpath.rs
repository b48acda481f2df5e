//! Criterion microbenchmarks for the contention-free threaded hot path:
//! batch extraction vs the per-k-mer iterator, SPSC route-lane batch
//! sizes end to end, and monolithic vs radix-partitioned phase 2.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dakc::{count_kmers_threaded_opts, ThreadedOpts};
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
use dakc_kmer::{
    extract_into, for_each_span, kmers_of_read, minimizer_of, pack_span, unpack_spans,
    CanonicalMode, KmerCount, KmerWord,
};
use dakc_sort::{accumulate, hybrid_sort, sort_count, BucketRun, BucketRuns};

fn reads(n: usize) -> dakc_io::ReadSet {
    let genome = generate_genome(&GenomeSpec { bases: 200_000, repeats: None }, 1);
    simulate_reads(&genome, &ReadSimConfig::art_like(n), 1)
}

fn kmer_vec(n: usize, mut x: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & u64::mask(31)
        })
        .collect()
}

/// Iterator-based extraction vs the batch `extract_into` path (which
/// carries the rolling reverse complement for O(1) canonical emits).
fn bench_extract_paths(c: &mut Criterion) {
    let rs = reads(2_000);
    let bases = rs.total_bases() as u64;
    let mut g = c.benchmark_group("extract_paths");
    g.throughput(Throughput::Bytes(bases));
    for mode in [CanonicalMode::Forward, CanonicalMode::Canonical] {
        let label = match mode {
            CanonicalMode::Forward => "forward",
            CanonicalMode::Canonical => "canonical",
        };
        g.bench_with_input(BenchmarkId::new("iterator", label), &mode, |b, &mode| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    for w in kmers_of_read::<u64>(r, 31, mode) {
                        acc ^= w;
                    }
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("extract_into", label), &mode, |b, &mode| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    extract_into::<u64>(r, 31, mode, |w| acc ^= w);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// End-to-end threaded counting across route-lane batch sizes: the
/// handoff-frequency vs amortization trade the `route_batch` knob exposes.
fn bench_route_batch(c: &mut Criterion) {
    let rs = reads(4_000);
    let kmers = rs.total_kmers(31) as u64;
    let mut g = c.benchmark_group("route_batch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(kmers));
    for rb in [64usize, 1024, 16_384] {
        g.bench_with_input(BenchmarkId::from_parameter(rb), &rb, |b, &rb| {
            let opts = ThreadedOpts { route_batch: rb, ..ThreadedOpts::default() };
            b.iter(|| {
                black_box(
                    count_kmers_threaded_opts::<u64>(
                        &rs,
                        31,
                        CanonicalMode::Forward,
                        4,
                        None,
                        &opts,
                    )
                    .counts
                    .len(),
                )
            })
        });
    }
    g.finish();
}

/// The span kernels, per base of input (`time ÷ bases` is ns/base): the
/// reference O(k·m) full-window rescan (`minimizer_of`, one call per k-mer
/// position), the producer every span engine and the KMC3 baseline run
/// (`for_each_span` + `pack_span`), and the consumer (`unpack_spans`,
/// forward and canonical) on what the producer packed.
fn bench_minimizer(c: &mut Criterion) {
    let rs = reads(2_000);
    let bases = rs.total_bases() as u64;
    let mut g = c.benchmark_group("minimizer");
    g.throughput(Throughput::Bytes(bases));
    for (k, m) in [(31usize, 7usize), (15, 7)] {
        let km = format!("k{k}_m{m}");
        g.bench_function(BenchmarkId::new("rescan_per_kmer", &km), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    for at in 0..r.len().saturating_sub(k - 1) {
                        if let Some(mz) = minimizer_of(r, at, k, m) {
                            acc ^= mz;
                        }
                    }
                }
                black_box(acc)
            })
        });
        let mut packed: Vec<u8> = Vec::new();
        g.bench_function(BenchmarkId::new("spans_pack", &km), |b| {
            b.iter(|| {
                packed.clear();
                for r in rs.iter() {
                    for_each_span(r, k, m, false, |_, span| pack_span(&mut packed, span));
                }
                black_box(packed.len())
            })
        });
        let mut kmers: Vec<u64> = Vec::new();
        for (label, canonical) in [("forward", false), ("canonical", true)] {
            let id = BenchmarkId::new(&format!("spans_unpack_{label}"), &km);
            g.bench_function(id, |b| {
                b.iter(|| {
                    kmers.clear();
                    unpack_spans(&packed, k, canonical, &mut kmers).expect("packed above");
                    black_box(kmers.len())
                })
            });
        }
    }
    g.finish();
}

/// Phase 2 on one owner's partition: sort then accumulate, the fused
/// `sort_count` on the whole array, and the threaded engine's form
/// (producers scatter each route batch into a `BucketRun`, the owner runs
/// `sort_count` per gathered bucket).
fn bench_phase2(c: &mut Criterion) {
    let n = 1 << 18;
    let data = kmer_vec(n, 42);
    let mut g = c.benchmark_group("phase2_256k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("monolithic_sort_accumulate", |b| {
        b.iter(|| {
            let mut v = data.clone();
            hybrid_sort(&mut v);
            let counts: Vec<(u64, u32)> = accumulate(&v);
            black_box(counts.len())
        })
    });
    g.bench_function("monolithic_sort_count", |b| {
        b.iter(|| {
            let mut v = data.clone();
            let mut counts: Vec<KmerCount<u64>> = Vec::new();
            sort_count(&mut v, |w, c| counts.push(KmerCount::new(w, c)));
            black_box(counts.len())
        })
    });
    g.bench_function("radix_bucketed_fused", |b| {
        b.iter(|| {
            // Producer side: one run per default-sized route batch.
            let mut runs = BucketRuns::new(62);
            for batch in data.chunks(dakc::DEFAULT_ROUTE_BATCH) {
                runs.push(BucketRun::scatter(batch, 62, 0));
            }
            // Owner side: sort and count each bucket while it is in cache.
            let mut counts: Vec<KmerCount<u64>> = Vec::new();
            runs.sort_count(|w, c| counts.push(KmerCount::new(w, c)));
            black_box(counts.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_extract_paths, bench_route_batch, bench_minimizer, bench_phase2);
criterion_main!(benches);
