//! Singleton-skipping counting — the DFCounter/Squeakr idea the paper's
//! related work surveys (§II-A [35], [25]), as an extension of the
//! threaded engine.
//!
//! Sequencing errors make most *distinct* k-mers singletons (count 1),
//! though they carry little of the total mass. Assemblers that only need
//! k-mers with count ≥ 2 can skip them: the first occurrence of each k-mer
//! goes into a Bloom filter; only k-mers whose occurrence *repeats* are
//! routed to owners and counted exactly. The counted value for a k-mer
//! with true multiplicity `c ≥ 2` is `c − 1` (its first sighting fed the
//! filter), so the engine reports `count + 1` for surviving k-mers.
//!
//! Guarantees: never a false negative (every k-mer with count ≥ 2 is
//! reported); Bloom false positives can let a few true singletons through
//! (reported with their exact count 1) — the classic one-sided error of
//! this family. Memory saved: the per-owner arrays never see singleton
//! mass.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dakc_io::ReadSet;
use dakc_kmer::{
    bloom::BloomFilter, counts::merge_disjoint_runs, kmers_of_read, owner_pe, CanonicalMode,
    KmerCount, KmerWord,
};
use dakc_sort::{sort_count, RadixKey};

/// Result of a filtered run.
#[derive(Debug, Clone)]
pub struct FilteredRun<W> {
    /// Histogram of k-mers that repeated (count ≥ 2, plus rare Bloom
    /// false-positive singletons), sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// k-mer occurrences skipped as first sightings.
    pub skipped_first_sightings: u64,
}

/// Counts only repeating k-mers using per-thread Bloom filters.
///
/// `expected_distinct` sizes the filters (a per-thread share is used);
/// `fp_rate` is the per-filter false-positive target.
pub fn count_kmers_filtered<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    threads: usize,
    expected_distinct: usize,
    fp_rate: f64,
) -> FilteredRun<W> {
    assert!(threads >= 1);
    assert!((1..=W::MAX_K).contains(&k));
    let start = Instant::now();

    // Each worker publishes (its partition's counts, singletons skipped).
    type WorkerOut<W> = Mutex<Option<(Vec<KmerCount<W>>, u64)>>;
    let inboxes: Vec<Mutex<Vec<W>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let outputs: Vec<WorkerOut<W>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let barrier = std::sync::Barrier::new(threads);

    std::thread::scope(|s| {
        for t in 0..threads {
            let inboxes = &inboxes;
            let outputs = &outputs;
            let barrier = &barrier;
            s.spawn(move || {
                // NOTE: per-thread filters see only this thread's reads, so
                // a k-mer whose two occurrences land on different threads
                // would be missed — unless filtering happens *after* owner
                // routing. We therefore filter on the OWNER side: parse,
                // route every occurrence, and let the owner's filter decide.
                let mut route: Vec<Vec<W>> = vec![Vec::new(); threads];
                for i in reads.pe_range(t, threads) {
                    for w in kmers_of_read::<W>(reads.get(i), k, canonical) {
                        let owner = owner_pe(w, threads);
                        route[owner].push(w);
                        if route[owner].len() >= 1024 {
                            inboxes[owner].lock().unwrap().append(&mut route[owner]);
                        }
                    }
                }
                for (owner, buf) in route.iter_mut().enumerate() {
                    if !buf.is_empty() {
                        inboxes[owner].lock().unwrap().append(buf);
                    }
                }
                barrier.wait();

                // Owner side: filter + exact count of survivors.
                let mine: Vec<W> = std::mem::take(&mut *inboxes[t].lock().unwrap());
                let mut filter =
                    BloomFilter::with_rate(expected_distinct / threads + 16, fp_rate);
                let mut survivors: Vec<W> = Vec::new();
                let mut skipped = 0u64;
                for w in mine {
                    if filter.insert(w) {
                        survivors.push(w);
                    } else {
                        skipped += 1;
                    }
                }
                let mut counts: Vec<KmerCount<W>> = Vec::new();
                // The first sighting fed the filter: report c + 1.
                sort_count(&mut survivors, |w, c| {
                    counts.push(KmerCount::new(w, c.saturating_add(1)))
                });
                *outputs[t].lock().unwrap() = Some((counts, skipped));
            });
        }
    });

    let mut runs: Vec<Vec<KmerCount<W>>> = Vec::new();
    let mut skipped_first_sightings = 0u64;
    for o in &outputs {
        let (c, s) = o.lock().unwrap().take().expect("published");
        runs.push(c);
        skipped_first_sightings += s;
    }
    let counts = merge_disjoint_runs(runs);

    FilteredRun {
        counts,
        elapsed: start.elapsed(),
        skipped_first_sightings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn reads(n: usize, seed: u64, err: f64) -> ReadSet {
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 3_000, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: 100, num_reads: n, error_rate: err, both_strands: false },
            seed,
        )
    }

    fn exact(rs: &ReadSet, k: usize) -> BTreeMap<u64, u32> {
        let mut h = BTreeMap::new();
        for r in rs.iter() {
            for w in kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                *h.entry(w).or_default() += 1;
            }
        }
        h
    }

    #[test]
    fn repeats_are_exact_and_singletons_skipped() {
        let rs = reads(400, 1, 0.01);
        let k = 21;
        let truth = exact(&rs, k);
        let run = count_kmers_filtered::<u64>(&rs, k, CanonicalMode::Forward, 4, 64_000, 0.01);
        let got: BTreeMap<u64, u32> = run.counts.iter().map(|c| (c.kmer, c.count)).collect();

        // Every true repeat must be present with its exact count.
        for (&w, &c) in truth.iter().filter(|&(_, &c)| c >= 2) {
            assert_eq!(got.get(&w), Some(&c), "repeat k-mer lost or miscounted");
        }
        // Reported singletons are only Bloom false positives: few.
        let reported_singletons = got.values().filter(|&&c| c == 1).count();
        let true_singletons = truth.values().filter(|&&c| c == 1).count();
        assert!(
            reported_singletons <= true_singletons / 10 + 8,
            "too many singletons leaked: {reported_singletons} of {true_singletons}"
        );
        // Everything reported exists in the truth with the same count.
        for (w, c) in &got {
            assert_eq!(truth.get(w), Some(c));
        }
        assert!(run.skipped_first_sightings > 0);
    }

    #[test]
    fn error_free_data_loses_nothing() {
        let rs = reads(200, 2, 0.0);
        let k = 15;
        let truth = exact(&rs, k);
        let run = count_kmers_filtered::<u64>(&rs, k, CanonicalMode::Forward, 3, 16_000, 0.001);
        // At ~13x coverage almost every genomic k-mer repeats.
        let repeats = truth.values().filter(|&&c| c >= 2).count();
        let got = run.counts.len();
        assert!(got >= repeats, "all repeats must survive: {got} < {repeats}");
    }

    #[test]
    fn single_thread_works() {
        let rs = reads(100, 3, 0.02);
        let run = count_kmers_filtered::<u64>(&rs, 17, CanonicalMode::Forward, 1, 20_000, 0.01);
        assert!(!run.counts.is_empty());
    }
}
