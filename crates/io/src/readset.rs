//! The flat read container.
//!
//! Reads are stored as one contiguous byte arena plus an offsets array —
//! the layout the paper's phase-1 cache model assumes (`1 + mn/PL` misses
//! to parse the input is only true for a flat sequential layout). Engines
//! index it read-by-read and partition it across PEs by contiguous read
//! ranges.

/// A set of DNA reads in a flat arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSet {
    data: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is read `i`; always starts with 0.
    offsets: Vec<usize>,
}

impl Default for ReadSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Creates an empty set with capacity hints.
    pub fn with_capacity(reads: usize, bases: usize) -> Self {
        let mut offsets = Vec::with_capacity(reads + 1);
        offsets.push(0);
        Self {
            data: Vec::with_capacity(bases),
            offsets,
        }
    }

    /// Appends one read.
    pub fn push(&mut self, read: &[u8]) {
        self.data.extend_from_slice(read);
        self.offsets.push(self.data.len());
    }

    /// Removes every read, keeping the allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.offsets.truncate(1);
    }

    /// Reserves arena capacity for `bases` more bases.
    pub fn reserve_bases(&mut self, bases: usize) {
        self.data.reserve(bases);
    }

    /// Concatenates read sets in order (the first one's arena is reused).
    pub fn concat(parts: Vec<ReadSet>) -> ReadSet {
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        let rest: Vec<ReadSet> = parts.collect();
        all.data.reserve(rest.iter().map(|p| p.data.len()).sum());
        all.offsets.reserve(rest.iter().map(ReadSet::len).sum());
        for p in rest {
            let shift = all.data.len();
            all.data.extend_from_slice(&p.data);
            all.offsets.extend(p.offsets[1..].iter().map(|o| o + shift));
        }
        all
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if there are no reads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read `i` as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates over all reads.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Total bases across all reads (the paper's `n·m`).
    pub fn total_bases(&self) -> usize {
        self.data.len()
    }

    /// Total k-mers all reads yield for a given `k` (ACGT-only reads:
    /// `Σ max(m_i − k + 1, 0)`).
    pub fn total_kmers(&self, k: usize) -> usize {
        self.iter()
            .map(|r| dakc_kmer::extract::kmer_count_of_read(r, k))
            .sum()
    }

    /// The contiguous range of read indices PE `pe` of `num_pes` owns
    /// (block distribution; earlier PEs get the remainder).
    pub fn pe_range(&self, pe: usize, num_pes: usize) -> std::ops::Range<usize> {
        assert!(pe < num_pes, "pe {pe} out of {num_pes}");
        let n = self.len();
        let base = n / num_pes;
        let extra = n % num_pes;
        let start = pe * base + pe.min(extra);
        let len = base + usize::from(pe < extra);
        start..start + len
    }

    /// Memory footprint of the arena in bytes (offsets excluded).
    pub fn arena_bytes(&self) -> usize {
        self.data.len()
    }
}

/// Scanned sequence bytes land in the arena as they are found; a read
/// whose record fails validation part-way stays an unterminated tail that
/// no index reaches.
impl crate::scan::Sink for ReadSet {
    fn seq(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    fn end(&mut self) {
        self.offsets.push(self.data.len());
    }
}

impl<'a> FromIterator<&'a [u8]> for ReadSet {
    fn from_iter<T: IntoIterator<Item = &'a [u8]>>(iter: T) -> Self {
        let mut rs = ReadSet::new();
        for r in iter {
            rs.push(r);
        }
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut rs = ReadSet::new();
        rs.push(b"ACGT");
        rs.push(b"GG");
        rs.push(b"");
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.get(0), b"ACGT");
        assert_eq!(rs.get(1), b"GG");
        assert_eq!(rs.get(2), b"");
        assert_eq!(rs.total_bases(), 6);
    }

    #[test]
    fn iter_matches_get() {
        let rs: ReadSet = [b"AC".as_slice(), b"GTT".as_slice()].into_iter().collect();
        let v: Vec<&[u8]> = rs.iter().collect();
        assert_eq!(v, vec![b"AC".as_slice(), b"GTT".as_slice()]);
    }

    #[test]
    fn total_kmers_counts() {
        let rs: ReadSet = [b"ACGTA".as_slice(), b"AC".as_slice()].into_iter().collect();
        assert_eq!(rs.total_kmers(3), 3); // 3 from the first, 0 from the second
    }

    #[test]
    fn pe_ranges_partition_exactly() {
        let mut rs = ReadSet::new();
        for _ in 0..10 {
            rs.push(b"A");
        }
        for p in [1usize, 2, 3, 4, 7, 10, 13] {
            let mut covered = 0;
            let mut next = 0;
            for pe in 0..p {
                let r = rs.pe_range(pe, p);
                assert_eq!(r.start, next, "contiguous partition");
                next = r.end;
                covered += r.len();
            }
            assert_eq!(covered, 10, "P = {p}");
            assert_eq!(next, 10);
        }
    }

    #[test]
    fn pe_ranges_balanced_within_one() {
        let mut rs = ReadSet::new();
        for _ in 0..11 {
            rs.push(b"A");
        }
        let sizes: Vec<usize> = (0..4).map(|pe| rs.pe_range(pe, 4).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 11);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn empty_set() {
        let rs = ReadSet::new();
        assert!(rs.is_empty());
        assert_eq!(rs.pe_range(0, 3), 0..0);
    }
}
