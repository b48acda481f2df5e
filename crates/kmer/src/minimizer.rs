//! Minimizers, super-k-mers, and the packed span wire codec.
//!
//! The KMC3-style shared-memory baseline (paper §II-A, [27], [32]) bins
//! k-mers by *minimizer*: the m-mer of a k-mer that is smallest under a
//! hashed ordering. Consecutive k-mers of a read usually share a minimizer,
//! so a read decomposes into a small number of *super-k-mers* — maximal
//! substrings whose k-mers all share one minimizer — which are dispatched to
//! per-minimizer bins with far less data movement than per-k-mer binning.
//!
//! We order m-mers by [`KmerWord::hash64`] rather than lexicographically:
//! hashed orderings avoid the pathological `AAA…` minimizer skew noted in
//! the minimizer literature.
//!
//! Extraction is one pass over the read ([`for_each_span`]): each base is
//! encoded once, appended to a 2-bit packed copy of the read, rolled into
//! the forward/reverse m-mer, and its hash key dropped into a fixed ring of
//! the window's last `k - m + 1` keys. The window minimum is tracked, and
//! the ring is rescanned only when the tracked minimum slides out — about
//! once per window on random sequence, never on a periodic one. Spans are
//! handed out as [`Span`] views of the packed copy, so [`pack_span`] is a
//! shift-copy, 32 bases a word. The per-position rescan [`minimizer_of`]
//! is kept as the reference oracle the scanner is tested against.
//!
//! In canonical mode the minimizer of an m-mer window is its *canonical*
//! form (min of the m-mer and its reverse complement): a k-mer and its
//! reverse complement then select the same minimizer m-mer, so routing by
//! minimizer is strand-symmetric — required for canonical counting to
//! partition k-mers disjointly across owners.

use crate::encode::{ENCODE_TABLE, INVALID_CODE};
use crate::kmer::KmerWord;

/// A maximal run of k-mers of one read sharing a single minimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperKmer {
    /// The shared minimizer (an m-mer packed in a `u64`; the canonical
    /// m-mer when extracted in canonical mode).
    pub minimizer: u64,
    /// Byte offset of the super-k-mer within the read.
    pub start: usize,
    /// Length in bases; a super-k-mer of length `len` carries
    /// `len - k + 1` k-mers.
    pub len: usize,
}

fn check_km(k: usize, m: usize) {
    assert!(m >= 1 && m <= k && m <= 32 && k <= 64, "need 1 <= m <= k, m <= 32, k <= 64");
}

/// Returns the minimizer (m-mer minimal under hashed order) of the k-mer
/// starting at `seq[at..at + k]`.
///
/// Reference implementation: rescans the whole window (O(k·m)). The
/// engines use the one-pass scanner behind [`for_each_span`]; this stays
/// as the oracle it is tested against.
///
/// Returns `None` if the window contains a non-ACGT byte or is out of
/// bounds.
pub fn minimizer_of(seq: &[u8], at: usize, k: usize, m: usize) -> Option<u64> {
    minimizer_of_mode(seq, at, k, m, false)
}

/// [`minimizer_of`] with a canonical switch: when `canonical` is set the
/// ordering key and the returned minimizer are the canonical form of each
/// m-mer, making the choice strand-symmetric.
pub fn minimizer_of_mode(seq: &[u8], at: usize, k: usize, m: usize, canonical: bool) -> Option<u64> {
    check_km(k, m);
    let window = seq.get(at..at + k)?;
    let mut best: Option<(u64, u64)> = None; // (hash, mmer)
    let mut fwd = 0u64;
    let mut rc = 0u64;
    let mut filled = 0usize;
    for &b in window {
        let code = ENCODE_TABLE[b as usize];
        if code == INVALID_CODE {
            return None;
        }
        fwd = fwd.push_base(m, code);
        rc = rc.push_base_rc(m, code);
        filled = (filled + 1).min(m);
        if filled == m {
            let mmer = if canonical { fwd.min(rc) } else { fwd };
            let h = mmer.hash64();
            if best.is_none_or(|(bh, _)| h < bh) {
                best = Some((h, mmer));
            }
        }
    }
    best.map(|(_, w)| w)
}

/// Decomposes a read into super-k-mers (forward-strand minimizers).
///
/// Non-ACGT bytes split the read: no super-k-mer spans them. The union of
/// k-mers carried by the returned super-k-mers is exactly the set of k-mers
/// [`crate::kmers_of_read`] yields for the read.
pub fn super_kmers(seq: &[u8], k: usize, m: usize) -> Vec<SuperKmer> {
    super_kmers_mode(seq, k, m, false)
}

/// [`super_kmers`] with a canonical switch (see [`minimizer_of_mode`]).
pub fn super_kmers_mode(seq: &[u8], k: usize, m: usize, canonical: bool) -> Vec<SuperKmer> {
    let mut out = Vec::new();
    scan(seq, k, m, canonical, |minimizer, start, len, _| {
        out.push(SuperKmer { minimizer, start, len });
    });
    out
}

/// One super-k-mer span as [`for_each_span`] hands it out: `len` bases of
/// the read, already 2-bit encoded. [`pack_span`] puts it on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Span<'a> {
    /// The whole read, 32 bases a word (base `i` in bits `2·(i mod 32)` of
    /// word `i / 32` — the wire's bit order), plus one spare word so the
    /// packer's two-word shift never runs off the end.
    words: &'a [u64],
    /// Offset of the span's first base within the read.
    start: usize,
    len: usize,
}

impl Span<'_> {
    /// Length in bases; the span carries `len - k + 1` k-mers.
    #[allow(clippy::len_without_is_empty)] // a span holds at least one k-mer
    pub fn len(&self) -> usize {
        self.len
    }
}

/// Streams a read's super-k-mer spans to `f` as
/// `(minimizer, span)`, splitting any span longer than
/// [`SPAN_MAX_BASES`] into overlapping chunks (overlap `k - 1`, same
/// minimizer) so every span fits the wire codec's u16 length prefix.
///
/// This is the producer hot path: one pass, O(1) amortized per base, and
/// one allocation — the packed copy, a quarter of the read.
pub fn for_each_span(
    seq: &[u8],
    k: usize,
    m: usize,
    canonical: bool,
    mut f: impl FnMut(u64, Span<'_>),
) {
    scan(seq, k, m, canonical, |minimizer, start, len, words| {
        let mut at = start;
        let end = start + len;
        loop {
            let take = (end - at).min(SPAN_MAX_BASES);
            f(minimizer, Span { words, start: at, len: take });
            if at + take == end {
                break;
            }
            // Overlap k-1 bases so the chunk boundary loses no k-mer.
            at = at + take - (k - 1);
        }
    });
}

/// Slots of the scanner's key ring: a power of two no smaller than the
/// widest window, `k - m + 1 <= 64`.
const RING: usize = 64;

/// The one scanner: a single pass over `seq` that 2-bit packs it (layout
/// as in [`Span`]) and emits `(minimizer, start, len, packed)` per
/// super-k-mer, where `packed` is complete up to the span's last base. A
/// non-ACGT byte ends the current ACGT run; runs shorter than `k` emit
/// nothing.
///
/// The minimizer of a k-mer is the m-mer with the smallest
/// [`KmerWord::hash64`] key among the `k - m + 1` it contains. That hash is
/// a bijection on `u64`, so m-mers with equal keys are equal: which of
/// several tied positions is tracked cannot change the minimizer reported
/// (the oracle's leftmost included). The scanner tracks the rightmost,
/// which is the last to leave the window — a periodic run ((AATGG)n,
/// poly-A) then never rescans.
fn scan(
    seq: &[u8],
    k: usize,
    m: usize,
    canonical: bool,
    emit: impl FnMut(u64, usize, usize, &[u64]),
) {
    check_km(k, m);
    if canonical {
        scan_strand::<true>(seq, k, m, emit);
    } else {
        scan_strand::<false>(seq, k, m, emit);
    }
}

/// [`scan`], instantiated per canonicity so the forward loop rolls no
/// reverse complement.
fn scan_strand<const CANONICAL: bool>(
    seq: &[u8],
    k: usize,
    m: usize,
    mut emit: impl FnMut(u64, usize, usize, &[u64]),
) {
    let mut packed = vec![0u64; seq.len() / 32 + 2];
    let window = k - m + 1;
    // Keys and m-mers of the latest `RING` m-mers, indexed by the position
    // of their last base.
    let mut keys = [0u64; RING];
    let mut mmers = [0u64; RING];
    let (mut fwd, mut rc) = (0u64, 0u64);
    // The last 32 bases, oldest in the low bits: the next word of `packed`.
    let mut tail = 0u64;
    // Writes `tail` — bases `..=i` — to its word of `packed`.
    let store_tail =
        |packed: &mut [u64], tail: u64, i: usize| packed[i / 32] = tail >> (62 - 2 * (i % 32));
    // Bases of the current ACGT run seen so far.
    let mut run = 0usize;
    // The window minimum: its key, m-mer and last-base position.
    let (mut min_key, mut min_mmer, mut min_at) = (u64::MAX, 0u64, 0usize);
    // The open span: its minimizer and first base (valid once `run >= k`).
    let (mut span_mmer, mut span_start) = (0u64, 0usize);
    for (i, &b) in seq.iter().enumerate() {
        let code = ENCODE_TABLE[b as usize];
        // A non-ACGT byte takes a slot too (never read back), so a base's
        // place in `packed` is its place in the read.
        tail = (tail >> 2) | ((code as u64 & 0b11) << 62);
        if i % 32 == 31 {
            packed[i / 32] = tail;
        }
        if code == INVALID_CODE {
            if run >= k {
                store_tail(&mut packed, tail, i);
                emit(span_mmer, span_start, i - span_start, &packed);
            }
            run = 0;
            min_key = u64::MAX; // the next run's first m-mer takes over
            continue;
        }
        fwd = fwd.push_base(m, code);
        if CANONICAL {
            rc = rc.push_base_rc(m, code);
        }
        run += 1;
        if run < m {
            continue;
        }
        let mmer = if CANONICAL { fwd.min(rc) } else { fwd };
        let key = mmer.hash64();
        keys[i % RING] = key;
        mmers[i % RING] = mmer;
        if key <= min_key {
            (min_key, min_mmer, min_at) = (key, mmer, i);
        } else if i - min_at >= window {
            // The minimum slid out (only once `run >= k`, so the window's
            // slots all belong to this run): take the rightmost smallest.
            min_key = u64::MAX;
            for j in i + 1 - window..=i {
                if keys[j % RING] <= min_key {
                    (min_key, min_at) = (keys[j % RING], j);
                }
            }
            min_mmer = mmers[min_at % RING];
        }
        if run < k {
            continue;
        }
        if run > k && min_mmer != span_mmer {
            // The k-mer ending at `i` opens a new span; the one before it
            // was the last to share the old minimizer.
            store_tail(&mut packed, tail, i);
            emit(span_mmer, span_start, i - span_start, &packed);
        }
        if run == k || min_mmer != span_mmer {
            (span_mmer, span_start) = (min_mmer, i + 1 - k);
        }
    }
    if run >= k {
        store_tail(&mut packed, tail, seq.len() - 1);
        emit(span_mmer, span_start, seq.len() - span_start, &packed);
    }
}

// ---------------------------------------------------------------------
// Packed span wire codec.
// ---------------------------------------------------------------------

/// Longest span one wire record can carry (u16 length prefix).
pub const SPAN_MAX_BASES: usize = u16::MAX as usize;

/// Wire size of a packed span of `len` bases: 2-byte length prefix plus
/// 2-bit-packed bases.
pub fn packed_span_bytes(len: usize) -> usize {
    2 + len.div_ceil(4)
}

/// A malformed packed-span stream. Corruption on the wire must surface as
/// one of these — never a panic or a silent wrong expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanDecodeError {
    /// The buffer ended inside a record's 2-byte length prefix.
    TruncatedHeader {
        /// Bytes left in the buffer (0 or 1).
        have: usize,
    },
    /// The buffer ended inside a record's packed bases.
    TruncatedBases {
        /// Packed bytes the length prefix announced.
        need: usize,
        /// Packed bytes actually present.
        have: usize,
    },
    /// A record shorter than one k-mer (including a zero length, which
    /// would otherwise stall a decode loop).
    TooShort {
        /// Announced span length in bases.
        len: usize,
        /// The k it must at least reach.
        k: usize,
    },
}

impl std::fmt::Display for SpanDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TruncatedHeader { have } => {
                write!(f, "span record truncated in its length prefix ({have} of 2 bytes)")
            }
            Self::TruncatedBases { need, have } => {
                write!(f, "span record truncated in its bases ({have} of {need} packed bytes)")
            }
            Self::TooShort { len, k } => {
                write!(f, "span of {len} bases cannot carry a k={k} k-mer")
            }
        }
    }
}

impl std::error::Error for SpanDecodeError {}

/// Appends one span record — `[len: u16 LE][2-bit packed bases]` — to
/// `out`. Bases pack little-endian within each byte (base `j` occupies
/// bits `2·(j mod 4)` of byte `j / 4`; pad bits of the last byte are zero).
///
/// The bases are already packed in that bit order ([`Span`]), so this is a
/// shift-copy: 32 bases per word store, whatever the span's offset.
///
/// # Panics
///
/// Panics if the span is longer than [`SPAN_MAX_BASES`] —
/// [`for_each_span`] never hands one out.
pub fn pack_span(out: &mut Vec<u8>, span: Span<'_>) {
    let Span { words, start, len } = span;
    assert!((1..=SPAN_MAX_BASES).contains(&len));
    let source = &words[start / 32..=start / 32 + len.div_ceil(32)];
    out.reserve(2 + 8 * source.len());
    out.extend_from_slice(&(len as u16).to_le_bytes());
    let end = out.len() + len.div_ceil(4);
    let shift = 2 * (start % 32) as u32;
    for pair in source.windows(2) {
        // `<< 1 << (63 - shift)` is `<< (64 - shift)` that is 0 at shift 0.
        let word = pair[0] >> shift | pair[1] << 1 << (63 - shift);
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(end);
    // The last byte's unused high bits may hold the read's next bases.
    out[end - 1] &= 0xFF >> (2 * (len.wrapping_neg() % 4));
}

/// Totals of one packed-span buffer expansion.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span records decoded.
    pub spans: u64,
    /// K-mers expanded out of them.
    pub kmers: u64,
    /// Bases the spans carried.
    pub bases: u64,
}

/// Walks the record headers of a concatenation of packed span records and
/// totals what they announce, validating every record (each at least `k`
/// bases, each with all its packed bytes present) without expanding any.
fn span_summary(buf: &[u8], k: usize) -> Result<SpanSummary, SpanDecodeError> {
    let mut sum = SpanSummary::default();
    let mut rest = buf;
    while !rest.is_empty() {
        let [l0, l1, bases @ ..] = rest else {
            return Err(SpanDecodeError::TruncatedHeader { have: rest.len() });
        };
        let len = u16::from_le_bytes([*l0, *l1]) as usize;
        if len < k {
            return Err(SpanDecodeError::TooShort { len, k });
        }
        let need = len.div_ceil(4);
        if bases.len() < need {
            return Err(SpanDecodeError::TruncatedBases { need, have: bases.len() });
        }
        rest = &bases[need..];
        sum.spans += 1;
        sum.kmers += (len - k + 1) as u64;
        sum.bases += len as u64;
    }
    Ok(sum)
}

/// K-mers a concatenation of packed span records carries, from its record
/// headers alone: what [`unpack_spans`] would append, without expanding.
pub fn span_kmers(buf: &[u8], k: usize) -> Result<u64, SpanDecodeError> {
    span_summary(buf, k).map(|sum| sum.kmers)
}

/// Expands a concatenation of packed span records back into k-mer words,
/// appending to `out` (canonical form when `canonical` is set — the exact
/// words [`crate::kmers_of_read`] would yield for each span).
///
/// Fallible by design: a truncated or bit-flipped buffer yields a typed
/// [`SpanDecodeError`], never a panic or a silent wrong expansion. The
/// whole buffer is validated before anything is appended, so `out` grows
/// once, by exactly the k-mers the headers announce, and is untouched on
/// error.
pub fn unpack_spans<W: KmerWord>(
    buf: &[u8],
    k: usize,
    canonical: bool,
    out: &mut Vec<W>,
) -> Result<SpanSummary, SpanDecodeError> {
    let sum = span_summary(buf, k)?;
    // Bounded by the input: a record announces at most 4 bases per byte.
    out.reserve(sum.kmers as usize);
    if canonical {
        expand::<W, true>(buf, k, out);
    } else {
        expand::<W, false>(buf, k, out);
    }
    Ok(sum)
}

/// The first `N` bytes of `bytes` as an array, zero-padded when fewer are
/// left: the bounds check behind the codec's wide loads.
fn load_padded<const N: usize>(bytes: &[u8]) -> [u8; N] {
    match bytes.first_chunk::<N>() {
        Some(full) => *full,
        None => {
            let mut padded = [0u8; N];
            padded[..bytes.len()].copy_from_slice(bytes);
            padded
        }
    }
}

/// The expansion loop behind [`unpack_spans`], for a buffer
/// [`span_summary`] accepted. A record's first k-mer is read whole out of
/// its first `2k` bits (no `k - 1`-base run-in), the rest roll in from a
/// shift register refilled 8 bytes (32 bases) at a time; the forward
/// instantiation carries no reverse complement. A wide load may run into
/// the next record — those bits are never used — and only the buffer's own
/// last bytes are padded.
fn expand<W: KmerWord, const CANONICAL: bool>(buf: &[u8], k: usize, out: &mut Vec<W>) {
    let mut at = 0usize;
    while at < buf.len() {
        let len = u16::from_le_bytes([buf[at], buf[at + 1]]) as usize;
        at += 2;
        // The wire puts base 0 in the lowest bits, a k-mer word in the
        // highest: the first k bases, complemented, are the reverse
        // complement of the first k-mer as they stand.
        let first = u128::from_le_bytes(load_padded(&buf[at..]));
        let mut rc = W::from_u128(!first & W::mask(k).to_u128());
        let mut fwd = rc.revcomp(k);
        out.push(if CANONICAL { fwd.min(rc) } else { fwd });
        let mut next = k; // the base to shift in
        while next < len {
            let word = u64::from_le_bytes(load_padded(&buf[at + next / 4..]));
            let mut bases = word >> (2 * (next % 4));
            let n = (32 - next % 4).min(len - next);
            out.extend((0..n).map(|_| {
                let code = (bases & 0b11) as u8;
                bases >>= 2;
                fwd = fwd.push_base(k, code);
                if CANONICAL {
                    rc = rc.push_base_rc(k, code);
                    fwd.min(rc)
                } else {
                    fwd
                }
            }));
            next += n;
        }
        at += len.div_ceil(4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{kmers_of_read, CanonicalMode};
    use crate::kmer::Kmer64;

    #[test]
    fn minimizer_of_is_some_mmer_of_window() {
        let seq = b"ACGTACGGTTACG";
        let (k, m) = (8, 3);
        let mz = minimizer_of(seq, 2, k, m).unwrap();
        // Must equal one of the window's m-mers.
        let window = &seq[2..2 + k];
        let mmers: Vec<u64> = kmers_of_read::<Kmer64>(window, m, CanonicalMode::Forward).collect();
        assert!(mmers.contains(&mz));
        // And must be hash-minimal among them.
        let min_hash = mmers.iter().map(|w| w.hash64()).min().unwrap();
        assert_eq!(mz.hash64(), min_hash);
    }

    #[test]
    fn minimizer_rejects_invalid_window() {
        assert_eq!(minimizer_of(b"ACGNACGT", 0, 6, 3), None);
        assert_eq!(minimizer_of(b"ACG", 0, 6, 3), None); // out of bounds
    }

    #[test]
    fn super_kmers_cover_all_kmers_exactly_once() {
        let seq = b"ACGTACGGTTACGGATTACAGGCATTGACCAT";
        let (k, m) = (9, 4);
        let sks = super_kmers(seq, k, m);
        // Reconstruct k-mer list from super-k-mers in order.
        let mut covered = Vec::new();
        for sk in &sks {
            assert!(sk.len >= k);
            for p in sk.start..=sk.start + sk.len - k {
                covered.push(p);
            }
        }
        let expected: Vec<usize> = (0..=seq.len() - k).collect();
        assert_eq!(covered, expected);
    }

    #[test]
    fn super_kmer_kmers_share_their_minimizer() {
        let seq = b"GGATTCAGACCATTGCAGGACCTTAGGACAT";
        let (k, m) = (7, 3);
        for sk in super_kmers(seq, k, m) {
            for p in sk.start..=sk.start + sk.len - k {
                assert_eq!(minimizer_of(seq, p, k, m), Some(sk.minimizer));
            }
        }
    }

    #[test]
    fn super_kmers_respect_n_breaks() {
        let seq = b"ACGTACGGTNACGGATTACAG";
        let (k, m) = (5, 2);
        let sks = super_kmers(seq, k, m);
        let n_pos = seq.iter().position(|&b| b == b'N').unwrap();
        for sk in &sks {
            assert!(
                sk.start + sk.len <= n_pos || sk.start > n_pos,
                "super-k-mer {sk:?} spans the N at {n_pos}"
            );
        }
        // Total carried k-mers match the extractor.
        let total: usize = sks.iter().map(|sk| sk.len - k + 1).sum();
        let direct = kmers_of_read::<Kmer64>(seq, k, CanonicalMode::Forward).count();
        assert_eq!(total, direct);
    }

    #[test]
    fn short_or_empty_reads_yield_no_super_kmers() {
        assert!(super_kmers(b"", 5, 2).is_empty());
        assert!(super_kmers(b"ACGT", 5, 2).is_empty());
    }

    #[test]
    fn single_kmer_read_is_one_super_kmer() {
        let seq = b"ACGTA";
        let sks = super_kmers(seq, 5, 3);
        assert_eq!(sks.len(), 1);
        assert_eq!(sks[0].start, 0);
        assert_eq!(sks[0].len, 5);
    }

    /// Deterministic pseudo-random ACGT+N sequence for oracle sweeps.
    fn noisy_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 37 {
                    0 => b'N',
                    r => b"ACGT"[(r % 4) as usize],
                }
            })
            .collect()
    }

    // The rolling-window path must agree with the per-position rescan
    // oracle on every k-mer's minimizer, both modes, k beyond 32.
    #[test]
    fn rolling_matches_rescan_oracle() {
        for seed in 1..6u64 {
            let seq = noisy_seq(300, seed);
            for &(k, m) in &[(5usize, 2usize), (9, 4), (15, 7), (31, 7), (33, 9), (51, 15)] {
                for canonical in [false, true] {
                    let sks = super_kmers_mode(&seq, k, m, canonical);
                    for sk in &sks {
                        for p in sk.start..=sk.start + sk.len - k {
                            assert_eq!(
                                minimizer_of_mode(&seq, p, k, m, canonical),
                                Some(sk.minimizer),
                                "seed={seed} k={k} m={m} canonical={canonical} p={p}"
                            );
                        }
                    }
                    // Coverage: spans tile the extractable k-mers exactly.
                    let total: usize = sks.iter().map(|sk| sk.len - k + 1).sum();
                    let direct = if k <= 32 {
                        kmers_of_read::<Kmer64>(&seq, k, CanonicalMode::Forward).count()
                    } else {
                        kmers_of_read::<u128>(&seq, k, CanonicalMode::Forward).count()
                    };
                    assert_eq!(total, direct, "seed={seed} k={k} m={m}");
                }
            }
        }
    }

    // A k-mer and its reverse complement must select the same canonical
    // minimizer — the invariant that makes minimizer routing valid for
    // canonical counting.
    #[test]
    fn canonical_minimizer_is_strand_symmetric() {
        for seed in 1..8u64 {
            let seq: Vec<u8> = noisy_seq(64, seed).into_iter().filter(|&b| b != b'N').collect();
            let (k, m) = (11usize, 5usize);
            if seq.len() < k {
                continue;
            }
            let rc: Vec<u8> = seq
                .iter()
                .rev()
                .map(|&b| match b {
                    b'A' => b'T',
                    b'C' => b'G',
                    b'G' => b'C',
                    _ => b'A',
                })
                .collect();
            for p in 0..=seq.len() - k {
                let fwd_mz = minimizer_of_mode(&seq, p, k, m, true);
                let rc_mz = minimizer_of_mode(&rc, seq.len() - k - p, k, m, true);
                assert_eq!(fwd_mz, rc_mz, "seed={seed} p={p}");
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrips_kmers() {
        let seq = b"ACGTACGGTTACGGATTACAGGCATTGACCAT";
        for &(k, m) in &[(5usize, 2usize), (9, 4), (13, 7)] {
            for canonical in [false, true] {
                let mode =
                    if canonical { CanonicalMode::Canonical } else { CanonicalMode::Forward };
                let mut buf = Vec::new();
                for_each_span(seq, k, m, canonical, |_, span| pack_span(&mut buf, span));
                let mut got: Vec<u64> = Vec::new();
                let sum = unpack_spans(&buf, k, canonical, &mut got).unwrap();
                got.sort_unstable();
                let mut want: Vec<u64> = kmers_of_read::<Kmer64>(seq, k, mode).collect();
                want.sort_unstable();
                assert_eq!(got, want, "k={k} m={m} canonical={canonical}");
                assert_eq!(sum.kmers as usize, want.len());
            }
        }
    }

    #[test]
    fn unpack_rejects_malformed_buffers() {
        let mut buf = Vec::new();
        for_each_span(b"ACGTACG", 7, 3, false, |_, span| pack_span(&mut buf, span));
        assert_eq!(buf, [7, 0, 0b1110_0100, 0b0010_0100]);
        let mut out: Vec<u64> = Vec::new();
        // Truncated header.
        assert_eq!(
            unpack_spans::<u64>(&buf[..1], 5, false, &mut out),
            Err(SpanDecodeError::TruncatedHeader { have: 1 })
        );
        // Truncated bases.
        assert_eq!(
            unpack_spans::<u64>(&buf[..3], 5, false, &mut out),
            Err(SpanDecodeError::TruncatedBases { need: 2, have: 1 })
        );
        // Span shorter than k (also catches a zeroed length prefix).
        assert_eq!(
            unpack_spans::<u64>(&buf, 8, false, &mut out),
            Err(SpanDecodeError::TooShort { len: 7, k: 8 })
        );
        let zero = [0u8, 0u8];
        assert_eq!(
            unpack_spans::<u64>(&zero, 5, false, &mut out),
            Err(SpanDecodeError::TooShort { len: 0, k: 5 })
        );
    }

    #[test]
    fn long_spans_split_at_wire_cap_without_losing_kmers() {
        // A poly-A read long enough to exceed the u16 record cap is one
        // super-k-mer; for_each_span must chunk it with k-1 overlap so the
        // expanded k-mer multiset is unchanged.
        let k = 9;
        let m = 4;
        let seq = vec![b'A'; SPAN_MAX_BASES + 1000];
        let mut buf = Vec::new();
        let mut chunks = 0usize;
        for_each_span(&seq, k, m, false, |_, span| {
            assert!(span.len() <= SPAN_MAX_BASES);
            chunks += 1;
            pack_span(&mut buf, span);
        });
        assert!(chunks >= 2, "cap never split the span");
        let mut got: Vec<u64> = Vec::new();
        let sum = unpack_spans(&buf, k, false, &mut got).unwrap();
        assert_eq!(sum.kmers as usize, seq.len() - k + 1);
        assert_eq!(got.len(), seq.len() - k + 1);
        assert!(got.iter().all(|&w| w == 0), "poly-A k-mers pack to zero");
    }
}
