//! Thread-level ports of the BSP baselines for the single-node
//! comparison (Fig 9).
//!
//! The paper benchmarks PakMan\* and HySortK inside one shared-memory node
//! against DAKC and KMC3. These ports keep Algorithm 2's structure —
//! batched parse, per-destination sort+accumulate, exchange, *barrier per
//! round* — on OS threads, so the extra synchronization and the double
//! sorting that distinguish BSP from DAKC are preserved where it matters.
//! (On one node blocking vs non-blocking collectives barely differ — the
//! paper's §VI-E finding — so a single port covers both.)

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use dakc_io::ReadSet;
use dakc_kmer::{
    counts::merge_disjoint_runs, kmers_of_read, owner_pe, CanonicalMode, KmerCount, KmerWord,
};
use dakc_sort::{accumulate_weighted, lsd_radix_sort_by, quicksort, sort_count, RadixKey};

use crate::bsp::SortBackend;

/// Result of a threaded BSP run.
#[derive(Debug, Clone)]
pub struct BspThreadedRun<W> {
    /// Global histogram sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Exchange rounds executed.
    pub rounds: usize,
}

/// Runs the BSP algorithm on `threads` OS threads with `batch` k-mers per
/// thread per round.
pub fn count_kmers_bsp_threaded<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    threads: usize,
    batch: usize,
    sort: SortBackend,
) -> BspThreadedRun<W> {
    assert!(threads >= 1 && batch >= 1);
    assert!((1..=W::MAX_K).contains(&k));
    let start = Instant::now();

    // Global round count (all threads must hit every barrier).
    let max_kmers = (0..threads)
        .map(|t| {
            reads
                .pe_range(t, threads)
                .map(|i| dakc_kmer::extract::kmer_count_of_read(reads.get(i), k))
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    let rounds = max_kmers.div_ceil(batch).max(1);

    let inboxes: Vec<Mutex<Vec<(W, u32)>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(threads);
    let outputs: Vec<Mutex<Option<Vec<KmerCount<W>>>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for t in 0..threads {
            let inboxes = &inboxes;
            let barrier = &barrier;
            let outputs = &outputs;
            s.spawn(move || {
                let range = reads.pe_range(t, threads);
                let mut cursor = range.start;
                for round in 0..rounds {
                    // Parse up to `batch` k-mers into per-owner buffers.
                    let mut bufs: Vec<Vec<W>> = vec![Vec::new(); threads];
                    let mut parsed = 0usize;
                    let last = round + 1 == rounds;
                    while cursor < range.end && (last || parsed < batch) {
                        for w in kmers_of_read::<W>(reads.get(cursor), k, canonical) {
                            bufs[owner_pe(w, threads)].push(w);
                            parsed += 1;
                        }
                        cursor += 1;
                    }
                    // FlushBuffer: sort + accumulate per destination, ship.
                    for (owner, mut buf) in bufs.into_iter().enumerate() {
                        if buf.is_empty() {
                            continue;
                        }
                        if sort == SortBackend::Quicksort {
                            // `sort_count` then only sweeps the sorted buffer.
                            quicksort(&mut buf);
                        }
                        let mut pairs = Vec::new();
                        sort_count(&mut buf, |w, c| pairs.push((w, c)));
                        inboxes[owner].lock().unwrap().extend_from_slice(&pairs);
                    }
                    // The blocking collective's synchronization.
                    barrier.wait();
                }

                // Phase 2 on my partition.
                let mut pairs = std::mem::take(&mut *inboxes[t].lock().unwrap());
                match sort {
                    SortBackend::RadixHybrid => lsd_radix_sort_by(&mut pairs, |p| p.0),
                    SortBackend::Quicksort => quicksort(&mut pairs),
                }
                let counts: Vec<KmerCount<W>> = accumulate_weighted(&pairs)
                    .into_iter()
                    .map(|(w, c)| KmerCount::new(w, c))
                    .collect();
                *outputs[t].lock().unwrap() = Some(counts);
            });
        }
    });

    let runs: Vec<Vec<KmerCount<W>>> = outputs
        .iter()
        .map(|m| m.lock().unwrap().take().expect("published"))
        .collect();
    let counts = merge_disjoint_runs(runs);

    BspThreadedRun {
        counts,
        elapsed: start.elapsed(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn random_reads(n: usize, seed: u64) -> ReadSet {
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 4000, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: 110, num_reads: n, error_rate: 0.01, both_strands: false },
            seed,
        )
    }

    fn reference(rs: &ReadSet, k: usize) -> Vec<KmerCount<u64>> {
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in rs.iter() {
            for w in kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                *h.entry(w).or_default() += 1;
            }
        }
        h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
    }

    #[test]
    fn matches_reference_multiround() {
        let rs = random_reads(200, 1);
        let run = count_kmers_bsp_threaded::<u64>(
            &rs,
            17,
            CanonicalMode::Forward,
            4,
            1000,
            SortBackend::RadixHybrid,
        );
        assert_eq!(run.counts, reference(&rs, 17));
        assert!(run.rounds > 1);
    }

    #[test]
    fn quicksort_backend_matches() {
        let rs = random_reads(100, 2);
        let run = count_kmers_bsp_threaded::<u64>(
            &rs,
            13,
            CanonicalMode::Forward,
            3,
            100_000,
            SortBackend::Quicksort,
        );
        assert_eq!(run.counts, reference(&rs, 13));
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn single_thread() {
        let rs = random_reads(50, 3);
        let run = count_kmers_bsp_threaded::<u64>(
            &rs,
            11,
            CanonicalMode::Forward,
            1,
            500,
            SortBackend::RadixHybrid,
        );
        assert_eq!(run.counts, reference(&rs, 11));
    }
}
