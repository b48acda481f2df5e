//! Property-based tests for the k-mer substrate.

use dakc_kmer::{
    encode::{complement_base, encode_base, pack_sequence, unpack_sequence},
    extract_into, for_each_span, kmers_of_read, minimizer::super_kmers, minimizer_of_mode,
    owner_pe, pack_span, span_kmers, super_kmers_mode, unpack_spans, CanonicalMode, KmerWord,
    SpanDecodeError, SuperKmer, SPAN_MAX_BASES,
};
use proptest::prelude::*;

/// Strategy: a DNA sequence of ACGT bases.
fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 0..max_len)
}

/// Strategy: DNA with occasional Ns.
fn dna_with_n(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(vec![b'A', b'C', b'G', b'T', b'N']),
        0..max_len,
    )
}

/// Strategy: DNA whose Ns are rare enough to leave ACGT runs on both
/// sides of every k up to 64 (one base in 41 is an N).
fn dna_with_rare_n(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    let mut alphabet = b"ACGT".repeat(10);
    alphabet.push(b'N');
    prop::collection::vec(prop::sample::select(alphabet), 0..max_len)
}

fn revcomp_seq(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|&b| complement_base(b).expect("ACGT input"))
        .collect()
}

proptest! {
    #[test]
    fn pack_unpack_round_trip(seq in dna(200)) {
        let packed = pack_sequence(&seq).unwrap();
        prop_assert_eq!(unpack_sequence(&packed, seq.len()), seq);
    }

    #[test]
    fn from_dna_to_string_round_trip(seq in dna(33).prop_filter("nonempty", |s| !s.is_empty())) {
        let k = seq.len().min(32);
        let w = u64::from_dna(&seq, k).unwrap();
        let s = w.to_dna_string(k);
        prop_assert_eq!(s.as_bytes(), &seq[..k]);
    }

    #[test]
    fn revcomp_involution_u64(seq in dna(33).prop_filter("nonempty", |s| !s.is_empty())) {
        let k = seq.len().min(32);
        let w = u64::from_dna(&seq, k).unwrap();
        prop_assert_eq!(w.revcomp(k).revcomp(k), w);
    }

    #[test]
    fn revcomp_matches_string_revcomp(seq in dna(33).prop_filter("len>=1", |s| !s.is_empty())) {
        let k = seq.len().min(32);
        let w = u64::from_dna(&seq, k).unwrap();
        let rc = revcomp_seq(&seq[..k]);
        let wrc = u64::from_dna(&rc, k).unwrap();
        prop_assert_eq!(w.revcomp(k), wrc);
    }

    #[test]
    fn canonical_agrees_across_strands(seq in dna(64).prop_filter("len>=4", |s| s.len() >= 4)) {
        let k = 4;
        let rc = revcomp_seq(&seq);
        let mut fwd: Vec<u64> = kmers_of_read(&seq, k, CanonicalMode::Canonical).collect();
        let mut rev: Vec<u64> = kmers_of_read(&rc, k, CanonicalMode::Canonical).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn extraction_count_formula(seq in dna(300), k in 1usize..=32) {
        let n = kmers_of_read::<u64>(&seq, k, CanonicalMode::Forward).count();
        let expect = seq.len().saturating_sub(k - 1).min(seq.len());
        let expect = if seq.len() >= k { expect } else { 0 };
        prop_assert_eq!(n, expect);
    }

    #[test]
    fn extraction_never_spans_n(seq in dna_with_n(120), k in 2usize..=8) {
        // Every produced k-mer must equal some ACGT window of the read.
        let windows: std::collections::HashSet<u64> = seq
            .windows(k)
            .filter_map(|w| u64::from_dna(w, k))
            .collect();
        for km in kmers_of_read::<u64>(&seq, k, CanonicalMode::Forward) {
            prop_assert!(windows.contains(&km));
        }
    }

    #[test]
    fn u128_and_u64_agree_for_small_k(seq in dna(100), k in 1usize..=32) {
        let a: Vec<u64> = kmers_of_read(&seq, k, CanonicalMode::Forward).collect();
        let b: Vec<u128> = kmers_of_read(&seq, k, CanonicalMode::Forward).collect();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_u128(), *y);
        }
    }

    #[test]
    fn owner_pe_in_range(x in any::<u64>(), p in 1usize..10_000) {
        prop_assert!(owner_pe(x, p) < p);
    }

    #[test]
    fn rolling_canonical_equals_definitional(seq in dna_with_n(150), k in 1usize..=32) {
        // The rolling-revcomp O(1) min must agree with min(w, revcomp(w))
        // at every position, for every k, across N resets.
        let fwd: Vec<u64> = kmers_of_read(&seq, k, CanonicalMode::Forward).collect();
        let can: Vec<u64> = kmers_of_read(&seq, k, CanonicalMode::Canonical).collect();
        prop_assert_eq!(fwd.len(), can.len());
        for (w, c) in fwd.iter().zip(&can) {
            prop_assert_eq!(*c, w.canonical(k));
        }
    }

    #[test]
    fn rolling_canonical_equals_definitional_u128(seq in dna_with_n(150), k in 33usize..=64) {
        let fwd: Vec<u128> = kmers_of_read(&seq, k, CanonicalMode::Forward).collect();
        let can: Vec<u128> = kmers_of_read(&seq, k, CanonicalMode::Canonical).collect();
        prop_assert_eq!(fwd.len(), can.len());
        for (w, c) in fwd.iter().zip(&can) {
            prop_assert_eq!(*c, w.canonical(k));
        }
    }

    #[test]
    fn extract_into_matches_iterator_props(seq in dna_with_n(200), k in 1usize..=32) {
        for mode in [CanonicalMode::Forward, CanonicalMode::Canonical] {
            let want: Vec<u64> = kmers_of_read(&seq, k, mode).collect();
            let mut got: Vec<u64> = Vec::new();
            extract_into(&seq, k, mode, |w| got.push(w));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn super_kmers_partition_kmers(seq in dna_with_n(150), k in 3usize..=10) {
        let m = (k / 2).max(1);
        let sks = super_kmers(&seq, k, m);
        let total: usize = sks.iter().map(|sk| sk.len - k + 1).sum();
        let direct = kmers_of_read::<u64>(&seq, k, CanonicalMode::Forward).count();
        prop_assert_eq!(total, direct);
        // Starts strictly increase and runs never overlap.
        for pair in sks.windows(2) {
            prop_assert!(pair[0].start + pair[0].len - k < pair[1].start + 1);
        }
    }
}

// ---------------------------------------------------------------------
// The span kernels: scanner, packer, unpacker.
// ---------------------------------------------------------------------

fn mode_of(canonical: bool) -> CanonicalMode {
    if canonical {
        CanonicalMode::Canonical
    } else {
        CanonicalMode::Forward
    }
}

/// The (k, m) grid of the scanner tests: both word widths, both ends of
/// the window range (m = 1 is the widest window, m = k a window of one).
fn km_grid() -> Vec<(usize, usize)> {
    let mut grid = Vec::new();
    for k in [5usize, 15, 31, 33, 51, 64] {
        for m in [1, 4, 7, k.min(32)] {
            if m <= k && !grid.contains(&(k, m)) {
                grid.push((k, m));
            }
        }
    }
    grid
}

/// The super-k-mers of `seq` from the per-position rescan oracle alone:
/// consecutive k-mer positions are one super-k-mer while
/// `minimizer_of_mode` names the same m-mer (it is `None` across an N, so
/// no super-k-mer spans one).
fn oracle_super_kmers(seq: &[u8], k: usize, m: usize, canonical: bool) -> Vec<SuperKmer> {
    let mut out: Vec<SuperKmer> = Vec::new();
    let mut open = false;
    for p in 0..(seq.len() + 1).saturating_sub(k) {
        let Some(mz) = minimizer_of_mode(seq, p, k, m, canonical) else {
            open = false;
            continue;
        };
        match out.last_mut() {
            Some(sk) if open && sk.minimizer == mz => sk.len += 1,
            _ => out.push(SuperKmer { minimizer: mz, start: p, len: k }),
        }
        open = true;
    }
    out
}

/// The wire record of one span, written naively: `[len u16 LE]` then base
/// `j` in bits `2·(j mod 4)` of byte `j / 4`.
fn reference_pack(out: &mut Vec<u8>, bases: &[u8]) {
    out.extend_from_slice(&u16::try_from(bases.len()).expect("span fits a record").to_le_bytes());
    let mut packed = vec![0u8; bases.len().div_ceil(4)];
    for (j, &b) in bases.iter().enumerate() {
        packed[j / 4] |= encode_base(b).expect("spans are ACGT") << (2 * (j % 4));
    }
    out.extend_from_slice(&packed);
}

/// What `for_each_span` must hand out for the oracle's super-k-mers: each
/// cut, where longer than a record, into chunks overlapping by `k - 1`.
fn reference_spans<'a>(seq: &'a [u8], k: usize, sks: &[SuperKmer]) -> Vec<(u64, &'a [u8])> {
    let mut out = Vec::new();
    for sk in sks {
        let (mut at, end) = (sk.start, sk.start + sk.len);
        loop {
            let take = (end - at).min(SPAN_MAX_BASES);
            out.push((sk.minimizer, &seq[at..at + take]));
            if at + take == end {
                break;
            }
            at = at + take - (k - 1);
        }
    }
    out
}

/// Decodes `buf` every way the engines do and checks what must hold for
/// any bytes at all: a typed error that `span_kmers` shares and that
/// leaves the output untouched, or a summary that `span_kmers` and the
/// appended words agree with. Returns the verdict.
fn decode_every_way(buf: &[u8], k: usize) -> Result<u64, SpanDecodeError> {
    fn one<W: KmerWord>(buf: &[u8], k: usize, walked: Result<u64, SpanDecodeError>) {
        for canonical in [false, true] {
            let mut out = vec![W::zero()];
            match unpack_spans(buf, k, canonical, &mut out) {
                Ok(sum) => {
                    assert_eq!(walked, Ok(sum.kmers));
                    assert_eq!(out.len() as u64, 1 + sum.kmers);
                    assert_eq!(sum.bases, sum.kmers + sum.spans * (k as u64 - 1));
                }
                Err(e) => {
                    assert_eq!(walked, Err(e));
                    assert_eq!(out.len(), 1, "a rejected buffer appends nothing");
                }
            }
        }
    }
    let walked = span_kmers(buf, k);
    if k <= 32 {
        one::<u64>(buf, k, walked);
    }
    one::<u128>(buf, k, walked);
    walked
}

/// Scanner, packer and unpacker against their references on one read.
fn check_span_kernels(seq: &[u8], k: usize, m: usize, canonical: bool) {
    let ctx = format!("k={k} m={m} canonical={canonical} len={}", seq.len());
    let want = oracle_super_kmers(seq, k, m, canonical);
    assert_eq!(super_kmers_mode(seq, k, m, canonical), want, "{ctx}");

    let want_spans = reference_spans(seq, k, &want);
    let mut want_bytes = Vec::new();
    for (_, bases) in &want_spans {
        reference_pack(&mut want_bytes, bases);
    }
    let (mut got_bytes, mut got_spans) = (Vec::new(), Vec::new());
    for_each_span(seq, k, m, canonical, |mz, span| {
        got_spans.push((mz, span.len()));
        pack_span(&mut got_bytes, span);
    });
    let want_lens: Vec<(u64, usize)> = want_spans.iter().map(|&(mz, b)| (mz, b.len())).collect();
    assert_eq!(got_spans, want_lens, "{ctx}");
    assert_eq!(got_bytes, want_bytes, "{ctx}: wire bytes");

    fn expanded<W: KmerWord>(spans: &[(u64, &[u8])], bytes: &[u8], k: usize, canonical: bool) {
        let want: Vec<W> = spans
            .iter()
            .flat_map(|&(_, bases)| kmers_of_read::<W>(bases, k, mode_of(canonical)))
            .collect();
        let mut got: Vec<W> = Vec::new();
        let sum = unpack_spans(bytes, k, canonical, &mut got).expect("packed above");
        assert_eq!(got, want);
        assert_eq!(sum.spans as usize, spans.len());
    }
    if k <= 32 {
        expanded::<u64>(&want_spans, &got_bytes, k, canonical);
    }
    expanded::<u128>(&want_spans, &got_bytes, k, canonical);
}

/// Deterministic ACGT bases (xorshift64), for the table-driven tests.
fn acgt(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"ACGT"[(x >> 33) as usize % 4]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn span_kernels_match_their_references(seq in dna_with_rare_n(400), dense in dna_with_n(120)) {
        for (k, m) in km_grid() {
            for canonical in [false, true] {
                check_span_kernels(&seq, k, m, canonical);
                check_span_kernels(&dense, k, m, canonical);
            }
        }
    }

    // ROADMAP item 4, span decoder: no truncation and no byte flip of a
    // valid SUPER payload panics or reads past the buffer; each is a typed
    // error or a decode that agrees with the header walk.
    #[test]
    fn damaged_span_payloads_decode_typed(
        reads in prop::collection::vec(dna_with_rare_n(150), 1..5),
        k in prop::sample::select(vec![15usize, 31, 33]),
        canonical in any::<bool>(),
        flips in prop::collection::vec((any::<u32>(), 1u8..=255), 48..49),
    ) {
        let mut payload = Vec::new();
        for r in &reads {
            for_each_span(r, k, 7, canonical, |_, span| pack_span(&mut payload, span));
        }
        let whole = decode_every_way(&payload, k);
        prop_assert!(whole.is_ok());
        for cut in 0..payload.len() {
            // A cut on a record boundary is a shorter valid payload.
            if let Ok(kmers) = decode_every_way(&payload[..cut], k) {
                prop_assert!(kmers <= whole.unwrap());
            }
        }
        for &(at, mask) in &flips {
            if payload.is_empty() {
                break;
            }
            let at = at as usize % payload.len();
            payload[at] ^= mask;
            let _ = decode_every_way(&payload, k);
            payload[at] ^= mask;
        }
    }
}

// Runs shorter than k, of exactly k and of k + 1, alone and between Ns;
// poly-A, where every m-mer ties and the oracle's leftmost rule must still
// be matched; and a period-5 satellite.
#[test]
fn span_kernels_on_boundary_runs() {
    for (k, m) in km_grid() {
        let mut reads: Vec<Vec<u8>> = vec![Vec::new(), b"N".to_vec(), vec![b'A'; 3 * k]];
        for len in [k - 1, k, k + 1] {
            reads.push(acgt(len, 7));
            let mut between = acgt(len, 11);
            between.insert(0, b'N');
            between.push(b'N');
            between.extend(acgt(len, 13));
            reads.push(between);
        }
        reads.push(b"AATGG".repeat(2 * k));
        let mut mixed = vec![b'A'; 2 * k];
        mixed.extend(acgt(2 * k, 17));
        mixed.extend(vec![b'T'; 2 * k]);
        reads.push(mixed);
        for read in &reads {
            for canonical in [false, true] {
                check_span_kernels(read, k, m, canonical);
            }
        }
    }
}

// A super-k-mer longer than one record: poly-A (one minimizer throughout)
// ahead of ordinary sequence, cut into overlapping records.
#[test]
fn span_kernels_on_a_run_longer_than_a_record() {
    let mut read = vec![b'A'; SPAN_MAX_BASES + 777];
    read.extend(acgt(300, 19));
    for (k, m) in [(15, 7), (31, 7), (33, 7), (64, 32)] {
        for canonical in [false, true] {
            check_span_kernels(&read, k, m, canonical);
        }
    }
}

// The unpacker on every tail shape: a record's length modulo 32 decides
// where its last 8-byte load ends and modulo 4 how much of its last byte
// is padding; the buffer's last record ends in a padded load, the others
// load into their successor.
#[test]
fn unpack_matches_extraction_for_every_tail() {
    fn check<W: KmerWord>(k: usize) {
        let spans: Vec<Vec<u8>> = (k..k + 70).map(|len| acgt(len, len as u64)).collect();
        for canonical in [false, true] {
            let mut all = Vec::new();
            for (i, bases) in spans.iter().enumerate() {
                let mut one = Vec::new();
                reference_pack(&mut one, bases);
                let want: Vec<W> = kmers_of_read(bases, k, mode_of(canonical)).collect();
                let mut got: Vec<W> = Vec::new();
                unpack_spans(&one, k, canonical, &mut got).expect("a valid record");
                assert_eq!(got, want, "k={k} len={} alone", bases.len());
                all.extend_from_slice(&one);
                // ...and as the last record of a growing buffer.
                got.clear();
                let sum = unpack_spans(&all, k, canonical, &mut got).expect("valid records");
                assert_eq!(sum.spans as usize, i + 1);
                assert_eq!(&got[got.len() - want.len()..], &want[..], "k={k} len={}", bases.len());
            }
        }
    }
    for k in [1, 5, 15, 31, 32] {
        check::<u64>(k);
        check::<u128>(k);
    }
    for k in [33, 51, 64] {
        check::<u128>(k);
    }
}

// The checked-in regression corpus: `ok-*` payloads decode, `err-*` ones
// are typed errors, none panics; `.kN.` in the name gives the k.
#[test]
fn span_decoder_corpus_replays() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/spans");
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_owned();
        let k: usize = name
            .split('.')
            .find_map(|part| part.strip_prefix('k')?.parse().ok())
            .unwrap_or_else(|| panic!("{name}: no .kN. in the name"));
        let verdict = decode_every_way(&std::fs::read(&path).expect("corpus file"), k);
        assert_eq!(verdict.is_ok(), name.starts_with("ok-"), "{name}: {verdict:?}");
        replayed += 1;
    }
    assert!(replayed >= 10, "corpus went missing: {replayed} files");
}
