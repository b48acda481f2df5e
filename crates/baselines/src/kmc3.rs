//! A KMC3-style shared-memory k-mer counter.
//!
//! KMC3 (paper [27]) is the strongest shared-memory baseline: it bins
//! k-mers by *minimizer*, moving whole super-k-mers (maximal read
//! substrings whose k-mers share a minimizer) into per-bin buffers, then
//! sorts each bin with multithreaded radix sort. The paper runs it forced
//! into in-memory mode for best-case performance; this implementation is
//! in-memory by construction.
//!
//! Structure:
//!
//! 1. **Bin** (parallel over read blocks): stream each read's super-k-mers
//!    out of the scanner and append them, 2-bit packed, to their
//!    minimizer's bin (lock-protected, batched).
//! 2. **Count** (parallel over bins): expand the packed super-k-mers into
//!    k-mers, radix sort, accumulate.
//!
//! Because every occurrence of a k-mer shares its minimizer, bins are
//! independent and the per-bin histograms concatenate into the global one.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dakc_io::ReadSet;
use dakc_kmer::{
    counts::merge_disjoint_runs, for_each_span, pack_span, unpack_spans, CanonicalMode, KmerCount,
    KmerWord,
};
use dakc_sort::{sort_count, RadixKey};

/// KMC3-like configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kmc3Config {
    /// k-mer length.
    pub k: usize,
    /// Minimizer length (KMC3 default is 9; must be ≤ k and ≤ 32).
    pub m: usize,
    /// Number of bins (KMC3 default is 512).
    pub bins: usize,
    /// Worker threads.
    pub threads: usize,
    /// Forward or canonical counting.
    pub canonical: CanonicalMode,
}

impl Kmc3Config {
    /// KMC3-flavoured defaults for a given `k` and thread count.
    pub fn defaults(k: usize, threads: usize) -> Self {
        Self {
            k,
            m: 9.min(k),
            bins: 512,
            threads,
            canonical: CanonicalMode::Forward,
        }
    }
}

/// Result of a KMC3-like run.
#[derive(Debug, Clone)]
pub struct Kmc3Run<W> {
    /// Global histogram sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Packed bytes a thread stages for one bin before taking the bin's lock
/// (about 64 super-k-mers at KMC3's defaults).
const BIN_BATCH_BYTES: usize = 1024;

/// Counts k-mers the KMC3 way.
///
/// # Panics
///
/// Panics on invalid configuration (`m > k`, zero bins/threads, `k` out of
/// range for `W`).
pub fn count_kmers_kmc3<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &Kmc3Config,
) -> Kmc3Run<W> {
    assert!((1..=W::MAX_K).contains(&cfg.k));
    assert!(cfg.m >= 1 && cfg.m <= cfg.k && cfg.m <= 32);
    assert!(cfg.bins >= 1 && cfg.threads >= 1);
    let start = Instant::now();

    // A bin is a stream of packed span records, as KMC3's bin files are.
    let bins: Vec<Mutex<Vec<u8>>> = (0..cfg.bins).map(|_| Mutex::new(Vec::new())).collect();
    let canonical = cfg.canonical == CanonicalMode::Canonical;

    // --- Stage 1: super-k-mer binning ---
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let bins = &bins;
            s.spawn(move || {
                let mut local: Vec<Vec<u8>> = vec![Vec::new(); cfg.bins];
                for i in reads.pe_range(t, cfg.threads) {
                    for_each_span(reads.get(i), cfg.k, cfg.m, canonical, |minimizer, span| {
                        let bin = (minimizer.hash64() % cfg.bins as u64) as usize;
                        pack_span(&mut local[bin], span);
                        if local[bin].len() >= BIN_BATCH_BYTES {
                            bins[bin].lock().unwrap().append(&mut local[bin]);
                        }
                    });
                }
                for (bin, buf) in local.iter_mut().enumerate() {
                    if !buf.is_empty() {
                        bins[bin].lock().unwrap().append(buf);
                    }
                }
            });
        }
    });

    // --- Stage 2: per-bin expand + sort + accumulate ---
    let outputs: Vec<Mutex<Vec<Vec<KmerCount<W>>>>> =
        (0..cfg.threads).map(|_| Mutex::new(Vec::new())).collect();
    let next_bin = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let bins = &bins;
            let outputs = &outputs;
            let next_bin = &next_bin;
            s.spawn(move || {
                // One sorted run per bin.
                let mut out: Vec<Vec<KmerCount<W>>> = Vec::new();
                loop {
                    let b = next_bin.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if b >= cfg.bins {
                        break;
                    }
                    let packed = std::mem::take(&mut *bins[b].lock().unwrap());
                    if packed.is_empty() {
                        continue;
                    }
                    let mut kmers: Vec<W> = Vec::new();
                    unpack_spans(&packed, cfg.k, canonical, &mut kmers)
                        .expect("bins hold what pack_span wrote");
                    let mut run = Vec::new();
                    sort_count(&mut kmers, |w, c| run.push(KmerCount::new(w, c)));
                    out.push(run);
                }
                outputs[t].lock().unwrap().append(&mut out);
            });
        }
    });

    // A k-mer's minimizer names its bin, so the bins' runs are disjoint.
    let runs: Vec<Vec<KmerCount<W>>> = outputs
        .iter()
        .flat_map(|m| std::mem::take(&mut *m.lock().unwrap()))
        .collect();
    let counts = merge_disjoint_runs(runs);

    Kmc3Run {
        counts,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_kmer::kmers_of_read;
    use std::collections::BTreeMap;

    fn random_reads(n: usize, seed: u64) -> ReadSet {
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 5000, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: 120, num_reads: n, error_rate: 0.01, both_strands: false },
            seed,
        )
    }

    fn reference(rs: &ReadSet, k: usize, mode: CanonicalMode) -> Vec<KmerCount<u64>> {
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in rs.iter() {
            for w in kmers_of_read::<u64>(r, k, mode) {
                *h.entry(w).or_default() += 1;
            }
        }
        h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
    }

    #[test]
    fn matches_reference() {
        let rs = random_reads(200, 1);
        let cfg = Kmc3Config::defaults(21, 4);
        let run = count_kmers_kmc3::<u64>(&rs, &cfg);
        assert_eq!(run.counts, reference(&rs, 21, CanonicalMode::Forward));
    }

    #[test]
    fn few_bins_one_thread() {
        let rs = random_reads(50, 2);
        let cfg = Kmc3Config {
            k: 11,
            m: 4,
            bins: 3,
            threads: 1,
            canonical: CanonicalMode::Forward,
        };
        let run = count_kmers_kmc3::<u64>(&rs, &cfg);
        assert_eq!(run.counts, reference(&rs, 11, CanonicalMode::Forward));
    }

    #[test]
    fn canonical_mode() {
        let rs = random_reads(80, 3);
        let cfg = Kmc3Config {
            canonical: CanonicalMode::Canonical,
            ..Kmc3Config::defaults(13, 3)
        };
        let run = count_kmers_kmc3::<u64>(&rs, &cfg);
        assert_eq!(run.counts, reference(&rs, 13, CanonicalMode::Canonical));
    }

    #[test]
    fn reads_with_ns() {
        let mut rs = ReadSet::new();
        rs.push(b"ACGTNNACGTACGTNACGTACG");
        rs.push(b"NNNNN");
        rs.push(b"ACGTACGTACGT");
        let cfg = Kmc3Config::defaults(5, 2);
        let run = count_kmers_kmc3::<u64>(&rs, &cfg);
        assert_eq!(run.counts, reference(&rs, 5, CanonicalMode::Forward));
    }

    #[test]
    fn agrees_with_all_other_engines() {
        let rs = random_reads(150, 4);
        let k = 17;
        let kmc = count_kmers_kmc3::<u64>(&rs, &Kmc3Config::defaults(k, 4));
        let serial = crate::serial::count_kmers_serial::<u64>(
            &rs,
            k,
            CanonicalMode::Forward,
            false,
        );
        assert_eq!(kmc.counts, serial.counts);
    }
}
