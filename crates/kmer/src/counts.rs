//! The `{k-mer, count}` output representation shared by all engines.
//!
//! Every counting engine in the workspace — serial Algorithm 1, the BSP
//! baselines, and DAKC itself — produces an ordered array of
//! [`KmerCount`] records (the paper's result type `C`). Keeping the output
//! type identical across engines lets the integration tests assert bitwise
//! agreement between them.


use crate::kmer::KmerWord;

/// One histogram entry: a k-mer and its frequency in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KmerCount<W> {
    /// The packed k-mer word.
    pub kmer: W,
    /// Number of occurrences (paper counts from 1 to the maximum supported
    /// count; we use the full `u32` range, saturating).
    pub count: u32,
}

impl<W: KmerWord> KmerCount<W> {
    /// Creates a new entry.
    #[inline]
    pub fn new(kmer: W, count: u32) -> Self {
        Self { kmer, count }
    }
}

/// Merges two *sorted* count arrays into one sorted array, summing counts of
/// equal k-mers (saturating). Used when an engine accumulates partial
/// histograms (e.g. the L3 heavy-hitter path delivers pre-accumulated
/// pairs).
pub fn merge_sorted_counts<W: KmerWord>(
    a: &[KmerCount<W>],
    b: &[KmerCount<W>],
) -> Vec<KmerCount<W>> {
    debug_assert!(is_sorted_strict(a), "left input not strictly sorted");
    debug_assert!(is_sorted_strict(b), "right input not strictly sorted");
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].kmer.cmp(&b[j].kmer) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(KmerCount::new(
                    a[i].kmer,
                    a[i].count.saturating_add(b[j].count),
                ));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// [`merge_sorted_counts`] of two tables the caller is done with: when one
/// side is empty (no HEAVY pair arrives in any run with L3 off) the other is
/// the result as it stands, not a copy of it.
pub fn merge_sorted_counts_owned<W: KmerWord>(
    a: Vec<KmerCount<W>>,
    b: Vec<KmerCount<W>>,
) -> Vec<KmerCount<W>> {
    debug_assert!(is_sorted_strict(&a), "left input not strictly sorted");
    debug_assert!(is_sorted_strict(&b), "right input not strictly sorted");
    if b.is_empty() {
        a
    } else if a.is_empty() {
        b
    } else {
        merge_sorted_counts(&a, &b)
    }
}

/// Merges sorted count runs whose k-mer sets are disjoint — one per owner
/// PE, thread, rank or bin — into the one sorted table. `std`'s stable sort
/// is a natural merge sort: it finds the ascending runs of the
/// concatenation and merges them in `O(n log runs)`, where sorting from
/// scratch would not look at them. Each run is freed as soon as it is
/// copied, so the peak is the table plus the merge's half-table scratch.
pub fn merge_disjoint_runs<W: KmerWord>(runs: Vec<Vec<KmerCount<W>>>) -> Vec<KmerCount<W>> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    for run in runs {
        debug_assert!(is_sorted_strict(&run), "run not strictly sorted");
        out.extend_from_slice(&run);
    }
    out.sort_by_key(|c| c.kmer);
    debug_assert!(is_sorted_strict(&out), "runs shared a k-mer");
    out
}

/// `true` if entries are strictly increasing by k-mer (no duplicates).
pub fn is_sorted_strict<W: KmerWord>(counts: &[KmerCount<W>]) -> bool {
    counts.windows(2).all(|w| w[0].kmer < w[1].kmer)
}

/// Total number of k-mer occurrences a histogram accounts for.
pub fn total_occurrences<W: KmerWord>(counts: &[KmerCount<W>]) -> u64 {
    counts.iter().map(|c| c.count as u64).sum()
}

/// Builds a histogram-of-counts: `result[c]` = number of distinct k-mers
/// occurring exactly `c` times (index 0 unused). This is the classic k-mer
/// spectrum used by assemblers for coverage estimation, capped at
/// `max_count` with an overflow bucket at the end.
pub fn count_spectrum<W: KmerWord>(counts: &[KmerCount<W>], max_count: usize) -> Vec<u64> {
    let mut spectrum = vec![0u64; max_count + 2];
    for c in counts {
        let idx = (c.count as usize).min(max_count + 1);
        spectrum[idx] += 1;
    }
    spectrum
}

/// Magic header of the binary counts format (`DAKC` + version byte).
const BINARY_MAGIC: [u8; 5] = *b"DAKC1";

/// Writes a histogram in the compact binary format: a 5-byte magic, a
/// 1-byte word width, a u64 record count, then `{kmer, count}` records in
/// little-endian. Pipelines that re-read counts (error correction,
/// assembly) prefer this over TSV: 12 bytes per record instead of ~36.
pub fn write_binary<W: KmerWord>(
    out: &mut dyn std::io::Write,
    counts: &[KmerCount<W>],
) -> std::io::Result<()> {
    let wb = (W::BITS / 8) as u8;
    out.write_all(&BINARY_MAGIC)?;
    out.write_all(&[wb])?;
    out.write_all(&(counts.len() as u64).to_le_bytes())?;
    for c in counts {
        out.write_all(&c.kmer.to_u128().to_le_bytes()[..wb as usize])?;
        out.write_all(&c.count.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a histogram written by [`write_binary`].
///
/// Fails if the magic, version or word width do not match `W`.
pub fn read_binary<W: KmerWord>(
    input: &mut dyn std::io::Read,
) -> std::io::Result<Vec<KmerCount<W>>> {
    use std::io::{Error, ErrorKind};
    let mut header = [0u8; 6];
    input.read_exact(&mut header)?;
    if header[..5] != BINARY_MAGIC {
        return Err(Error::new(ErrorKind::InvalidData, "bad magic"));
    }
    let wb = header[5] as usize;
    if wb != (W::BITS / 8) as usize {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("word width {wb} does not match the requested type"),
        ));
    }
    let mut len_bytes = [0u8; 8];
    input.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes) as usize;
    let mut out = Vec::with_capacity(len.min(1 << 24));
    let mut rec = vec![0u8; wb + 4];
    for _ in 0..len {
        input.read_exact(&mut rec)?;
        let mut padded = [0u8; 16];
        padded[..wb].copy_from_slice(&rec[..wb]);
        let kmer = W::from_u128(u128::from_le_bytes(padded));
        let count = u32::from_le_bytes(rec[wb..wb + 4].try_into().expect("count"));
        out.push(KmerCount::new(kmer, count));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kc(kmer: u64, count: u32) -> KmerCount<u64> {
        KmerCount::new(kmer, count)
    }

    #[test]
    fn binary_round_trip_u64() {
        let counts = vec![kc(1, 2), kc(0xDEAD_BEEF, 7), kc(u64::MAX, u32::MAX)];
        let mut buf = Vec::new();
        write_binary(&mut buf, &counts).unwrap();
        assert_eq!(buf.len(), 6 + 8 + 3 * 12);
        let back: Vec<KmerCount<u64>> = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, counts);
    }

    #[test]
    fn binary_round_trip_u128() {
        let counts = vec![KmerCount::new((3u128 << 100) | 9, 5)];
        let mut buf = Vec::new();
        write_binary(&mut buf, &counts).unwrap();
        let back: Vec<KmerCount<u128>> = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, counts);
    }

    #[test]
    fn binary_rejects_wrong_width_and_magic() {
        let counts = vec![kc(1, 1)];
        let mut buf = Vec::new();
        write_binary(&mut buf, &counts).unwrap();
        assert!(read_binary::<u128>(&mut buf.as_slice()).is_err());
        buf[0] = b'X';
        assert!(read_binary::<u64>(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn binary_empty_histogram() {
        let mut buf = Vec::new();
        write_binary::<u64>(&mut buf, &[]).unwrap();
        let back: Vec<KmerCount<u64>> = read_binary(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn merge_disjoint() {
        let a = vec![kc(1, 2), kc(5, 1)];
        let b = vec![kc(3, 4)];
        assert_eq!(merge_sorted_counts(&a, &b), vec![kc(1, 2), kc(3, 4), kc(5, 1)]);
    }

    #[test]
    fn merge_sums_equal_keys() {
        let a = vec![kc(1, 2), kc(3, 1)];
        let b = vec![kc(3, 4), kc(9, 9)];
        assert_eq!(merge_sorted_counts(&a, &b), vec![kc(1, 2), kc(3, 5), kc(9, 9)]);
    }

    #[test]
    fn merge_with_empty() {
        let a = vec![kc(1, 1)];
        assert_eq!(merge_sorted_counts(&a, &[]), a);
        assert_eq!(merge_sorted_counts(&[], &a), a);
        // By value, the non-empty side comes back as the same allocation.
        let at = a.as_ptr();
        let a = merge_sorted_counts_owned(a, Vec::new());
        let a = merge_sorted_counts_owned(Vec::new(), a);
        assert_eq!((a.as_ptr(), a.as_slice()), (at, &[kc(1, 1)][..]));
        assert_eq!(
            merge_sorted_counts_owned(a, vec![kc(1, 2), kc(4, 4)]),
            vec![kc(1, 3), kc(4, 4)]
        );
    }

    #[test]
    fn disjoint_runs_merge_like_concat_and_sort() {
        // 1..8 runs, some empty: deal 0..400 out by a hash, leave every
        // third run empty.
        for nruns in 1..=8usize {
            let mut runs: Vec<Vec<KmerCount<u64>>> = vec![Vec::new(); nruns];
            for x in 0..400u64 {
                let r = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % nruns;
                if r % 3 != 2 {
                    runs[r].push(kc(x, x as u32 + 1));
                }
            }
            let mut expect: Vec<KmerCount<u64>> = runs.concat();
            expect.sort_unstable_by_key(|c| c.kmer);
            assert_eq!(merge_disjoint_runs(runs), expect, "{nruns} runs");
        }
        assert!(merge_disjoint_runs::<u64>(Vec::new()).is_empty());
    }

    #[test]
    fn merge_saturates() {
        let a = vec![kc(1, u32::MAX)];
        let b = vec![kc(1, 5)];
        assert_eq!(merge_sorted_counts(&a, &b), vec![kc(1, u32::MAX)]);
    }

    #[test]
    fn sorted_strict_detects_order_and_dups() {
        assert!(is_sorted_strict(&[kc(1, 1), kc(2, 1)]));
        assert!(!is_sorted_strict(&[kc(2, 1), kc(1, 1)]));
        assert!(!is_sorted_strict(&[kc(1, 1), kc(1, 2)]));
        assert!(is_sorted_strict::<u64>(&[]));
    }

    #[test]
    fn totals_and_spectrum() {
        let counts = vec![kc(1, 1), kc(2, 3), kc(3, 1), kc(4, 100)];
        assert_eq!(total_occurrences(&counts), 105);
        let spec = count_spectrum(&counts, 5);
        assert_eq!(spec[1], 2); // two singletons
        assert_eq!(spec[3], 1);
        assert_eq!(spec[6], 1); // overflow bucket
    }
}
