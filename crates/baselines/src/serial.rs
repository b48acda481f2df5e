//! Algorithm 1: the serial sorting-based reference.
//!
//! Extract every k-mer into one array, sort it, sweep it. Every other
//! engine in the workspace is tested against this one.

use std::time::{Duration, Instant};

use dakc_io::ReadSet;
use dakc_kmer::{kmers_of_read, CanonicalMode, KmerCount, KmerWord};
use dakc_sort::{quicksort, sort_count, RadixKey};

/// Result of a serial run.
#[derive(Debug, Clone)]
pub struct SerialRun<W> {
    /// The histogram, sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Runs Algorithm 1. `use_quicksort` selects the comparison sort (the
/// original PakMan kernel choice) instead of the radix-hybrid.
pub fn count_kmers_serial<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    use_quicksort: bool,
) -> SerialRun<W> {
    let start = Instant::now();
    let mut t: Vec<W> = Vec::with_capacity(reads.total_kmers(k));
    for r in reads.iter() {
        t.extend(kmers_of_read::<W>(r, k, canonical));
    }
    if use_quicksort {
        // `sort_count` then finds the array sorted and only sweeps it.
        quicksort(&mut t);
    }
    let mut counts = Vec::new();
    sort_count(&mut t, |w, c| counts.push(KmerCount::new(w, c)));
    SerialRun {
        counts,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn reads() -> ReadSet {
        let mut rs = ReadSet::new();
        rs.push(b"ACGTACGTAC");
        rs.push(b"GGGGGGG");
        rs.push(b"ACGTACGTAC");
        rs
    }

    #[test]
    fn matches_hashmap_reference() {
        let rs = reads();
        let k = 4;
        let run = count_kmers_serial::<u64>(&rs, k, CanonicalMode::Forward, false);
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in rs.iter() {
            for w in kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                *h.entry(w).or_default() += 1;
            }
        }
        let want: Vec<KmerCount<u64>> =
            h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect();
        assert_eq!(run.counts, want);
    }

    #[test]
    fn quicksort_backend_agrees_with_radix() {
        let rs = reads();
        let a = count_kmers_serial::<u64>(&rs, 5, CanonicalMode::Forward, false);
        let b = count_kmers_serial::<u64>(&rs, 5, CanonicalMode::Forward, true);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn empty_input_is_empty() {
        let rs = ReadSet::new();
        let run = count_kmers_serial::<u64>(&rs, 4, CanonicalMode::Forward, false);
        assert!(run.counts.is_empty());
    }

    #[test]
    fn total_occurrences_match_formula() {
        let rs = reads();
        let k = 3;
        let run = count_kmers_serial::<u64>(&rs, k, CanonicalMode::Forward, false);
        let total: u64 = run.counts.iter().map(|c| c.count as u64).sum();
        assert_eq!(total as usize, rs.total_kmers(k));
    }
}
