//! The one FASTA/FASTQ scanner, and byte-range slicing of a file.
//!
//! [`Scanner`] walks raw bytes through a fixed, reused buffer (never the
//! whole input), finds line ends with a word-at-a-time byte search and
//! hands each record to a [`Sink`] in fragments — a line may be longer
//! than the buffer — so sequence bytes go straight into a
//! [`ReadSet`] arena with no per-record allocation. Every other parser in
//! this crate ([`crate::fastx::parse_fastq`], [`crate::FastxReader`], …)
//! is an adapter over it.
//!
//! Accepted shape: FASTQ is strict 4-line records (`@` header, sequence,
//! `+` line, quality of the sequence's length); FASTA is a `>` header and
//! any number of sequence lines. A line ends at `\n` or end of input and
//! loses one trailing `\r`; blank lines are tolerated between records.
//! Anything else is a [`FastxError::Format`] naming the byte offset.
//!
//! # Slicing
//!
//! [`load_slice`]`(path, r, n)` reads only bytes `[r·S/n, (r+1)·S/n)` of
//! an `S`-byte file, give or take one record: a record belongs to the
//! slice that holds the first byte of its header. Both ends of a slice
//! come from the same function, [`resync`] — the first record header at
//! or after a byte offset — and `resync` is monotone, so the `n` slices
//! tile the file exactly: every byte is parsed, strictly, by exactly one
//! slice, and malformed input surfaces from the slice that owns it.
//!
//! For FASTA a header is the first line that starts with `>`. For FASTQ
//! it is the first line that starts with `@` whose line-after-next starts
//! with `+`: a quality line may start with `@`, but then the line after
//! next is a sequence line (or, past a blank line, a header), neither of
//! which can start with `+`. The scanner rejects a FASTQ sequence line
//! that starts with `@` or `+`, so the rule is exact for every input it
//! accepts, not only for nucleotide text.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

use crate::fastx::FastxError;
use crate::readset::ReadSet;
use crate::stream::FastxFormat;

/// Size of the scanner's reused read buffer. Large enough that a `read`
/// syscall is amortised over a thousand records, small enough to stay in
/// L2 next to the caller's working set (a sweep over 32 KiB – 1 MiB on
/// the benchmark inputs is flat within 8 %, best at 256–512 KiB).
pub const SCAN_BUF_BYTES: usize = 256 << 10;

/// Receives one record at a time from a [`Scanner`]. Header, sequence and
/// quality may each arrive in several fragments, in order.
pub trait Sink {
    /// Header text after the `@`/`>` marker.
    fn header(&mut self, _bytes: &[u8]) {}
    /// Sequence bytes (FASTA line breaks removed).
    fn seq(&mut self, bytes: &[u8]);
    /// Quality bytes (FASTQ only).
    fn qual(&mut self, _bytes: &[u8]) {}
    /// The record is complete and valid.
    fn end(&mut self);
}

/// Index of the first `\n` in `hay`, eight bytes at a time.
fn find_newline(hay: &[u8]) -> Option<usize> {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    const NL: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = hay.chunks_exact(8);
    for (i, w) in words.by_ref().enumerate() {
        // Zero bytes of `x` are the newlines; the lowest flagged byte of
        // the classic has-zero test is exact.
        let x = u64::from_le_bytes(w.try_into().expect("8 bytes")) ^ NL;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(i * 8 + (hit.trailing_zeros() / 8) as usize);
        }
    }
    let done = hay.len() - words.remainder().len();
    words.remainder().iter().position(|&b| b == b'\n').map(|i| done + i)
}

fn bad<T>(offset: u64, what: impl Into<String>) -> Result<T, FastxError> {
    Err(FastxError::Format { offset, what: what.into() })
}

/// A pull-based, allocation-free FASTA/FASTQ record scanner.
pub struct Scanner<R> {
    src: R,
    buf: Box<[u8]>,
    pos: usize,
    len: usize,
    /// Offset in the input of `buf[0]`, for error messages.
    base: u64,
    format: Option<FastxFormat>,
}

impl<R: Read> Scanner<R> {
    /// Scans `src` from its current position, sniffing the format from the
    /// first record unless `format` names it.
    pub fn new(src: R, format: Option<FastxFormat>) -> Self {
        Self::with_buffer(src, format, 0, SCAN_BUF_BYTES)
    }

    /// [`Scanner::new`] for a source whose first byte sits at offset `base`
    /// of the file being parsed, with an explicit buffer size.
    pub fn with_buffer(src: R, format: Option<FastxFormat>, base: u64, buf_bytes: usize) -> Self {
        assert!(buf_bytes >= 1);
        Self { src, buf: vec![0; buf_bytes].into(), pos: 0, len: 0, base, format }
    }

    /// The format, once known.
    pub fn format(&self) -> Option<FastxFormat> {
        self.format
    }

    /// Offset in the input of the next unread byte.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// The next byte, without consuming it; `None` at end of input.
    fn peek(&mut self) -> io::Result<Option<u8>> {
        while self.pos == self.len {
            self.base += self.len as u64;
            (self.pos, self.len) = (0, 0);
            match self.src.read(&mut self.buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.len = n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Some(self.buf[self.pos]))
    }

    /// Consumes the rest of the current line, handing its content (no
    /// terminator) to `f` in fragments; returns the content's length.
    fn line(&mut self, mut f: impl FnMut(&[u8])) -> io::Result<usize> {
        let mut n = 0;
        // A `\r` at the end of a buffer: terminator or content is only
        // known once the next byte is.
        let mut held_cr = false;
        while self.peek()?.is_some() {
            let chunk = &self.buf[self.pos..self.len];
            let nl = find_newline(chunk);
            if held_cr && nl != Some(0) {
                f(b"\r");
                n += 1;
            }
            let mut content = &chunk[..nl.unwrap_or(chunk.len())];
            held_cr = content.last() == Some(&b'\r');
            if held_cr {
                content = &content[..content.len() - 1];
            }
            f(content);
            n += content.len();
            self.pos += nl.map_or(chunk.len(), |i| i + 1);
            if nl.is_some() {
                break;
            }
        }
        Ok(n)
    }

    /// Parses one record into `sink`; `Ok(false)` at end of input.
    pub fn next_record(&mut self, sink: &mut impl Sink) -> Result<bool, FastxError> {
        let (at, marker) = loop {
            let at = self.offset();
            match self.peek()? {
                None => return Ok(false),
                Some(b'\n' | b'\r') => {
                    if self.line(|_| ())? != 0 {
                        return bad(at, "stray carriage return before a record header");
                    }
                }
                Some(b) => break (at, b),
            }
        };
        let format = match (self.format, marker) {
            (Some(f), _) => f,
            (None, b'>') => FastxFormat::Fasta,
            (None, b'@') => FastxFormat::Fastq,
            (None, b) => return bad(at, format!("unrecognized header byte {:?}", b as char)),
        };
        self.format = Some(format);
        match format {
            FastxFormat::Fastq => {
                if marker != b'@' {
                    return bad(at, format!("expected '@' header, got {:?}", marker as char));
                }
                self.pos += 1;
                self.line(|b| sink.header(b))?;
                // What makes `resync` exact: no sequence line can pass for a
                // header or a separator.
                let seq_at = self.offset();
                match self.peek()? {
                    None => return bad(seq_at, "missing sequence line"),
                    Some(b @ (b'@' | b'+')) => {
                        return bad(seq_at, format!("sequence line starts with {:?}", b as char))
                    }
                    Some(_) => {}
                }
                let seq_len = self.line(|b| sink.seq(b))?;
                let plus_at = self.offset();
                match self.peek()? {
                    None => return bad(plus_at, "missing '+' line"),
                    Some(b'+') => self.line(|_| ())?,
                    Some(b) => {
                        return bad(plus_at, format!("expected '+' separator, got {:?}", b as char))
                    }
                };
                let qual_at = self.offset();
                if self.peek()?.is_none() {
                    return bad(qual_at, "missing quality line");
                }
                let qual_len = self.line(|b| sink.qual(b))?;
                if qual_len != seq_len {
                    return bad(
                        qual_at,
                        format!("quality length {qual_len} != sequence length {seq_len}"),
                    );
                }
            }
            FastxFormat::Fasta => {
                if marker != b'>' {
                    return bad(at, "sequence before any '>' header");
                }
                self.pos += 1;
                self.line(|b| sink.header(b))?;
                while !matches!(self.peek()?, None | Some(b'>')) {
                    self.line(|b| sink.seq(b))?;
                }
            }
        }
        sink.end();
        Ok(true)
    }

    /// Parses every remaining record into `sink`; returns how many.
    pub fn scan_all(&mut self, sink: &mut impl Sink) -> Result<usize, FastxError> {
        let mut n = 0;
        while self.next_record(sink)? {
            n += 1;
        }
        Ok(n)
    }
}

/// Opens `path`; for a regular file, also its size and the format
/// sniffed from its first byte. A pipe is left unread.
fn open(path: &Path) -> Result<(File, Option<(u64, FastxFormat)>), FastxError> {
    let mut file = File::open(path)?;
    let meta = file.metadata()?;
    if !meta.is_file() {
        return Ok((file, None));
    }
    let mut first = [0u8; 1];
    let format = match file.read_exact(&mut first) {
        Ok(()) if first[0] == b'>' => FastxFormat::Fasta,
        Ok(()) if first[0] == b'@' => FastxFormat::Fastq,
        Ok(()) => return bad(0, "not FASTA or FASTQ"),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return bad(0, "empty file"),
        Err(e) => return Err(e.into()),
    };
    Ok((file, Some((meta.len(), format))))
}

/// Checks that `path` opens and starts like FASTA or FASTQ, parsing
/// nothing: what a launcher does before it spawns ranks that each parse
/// their own slice.
pub fn sniff(path: &Path) -> Result<(), FastxError> {
    open(path).map(|_| ())
}

/// Offset of the first record header at or after byte `from` of `file`
/// (`size` when there is none) — see the module docs for the rule.
fn resync(
    file: &mut File,
    format: FastxFormat,
    from: u64,
    size: u64,
    buf_bytes: usize,
) -> Result<u64, FastxError> {
    if from == 0 || from >= size {
        return Ok(from.min(size));
    }
    // A line starts at `from` exactly when byte `from − 1` is a newline, so
    // the scan begins one byte early and discards that (partial) line. A
    // few lines decide it: a small buffer keeps the read small.
    file.seek(SeekFrom::Start(from - 1))?;
    let mut s = Scanner::with_buffer(&mut *file, Some(format), from - 1, buf_bytes.min(4 << 10));
    s.line(|_| ())?;
    // (offset, first byte) of the two lines before the current one.
    let mut before = [(0u64, 0u8); 2];
    loop {
        let at = s.offset();
        let Some(first) = s.peek()? else { return Ok(size) };
        match format {
            FastxFormat::Fasta if first == b'>' => return Ok(at),
            FastxFormat::Fastq if first == b'+' && before[0].1 == b'@' => return Ok(before[0].0),
            _ => {}
        }
        before = [before[1], (at, first)];
        s.line(|_| ())?;
    }
}

/// Slice `r` of `n` of the file at `path`, parsed into a [`ReadSet`]; the
/// concatenation of slices `0..n` is the whole file, in order, for every
/// `n`. A path that is not a regular file (a pipe) cannot be cut: slice 0
/// reads all of it and the others are empty.
pub fn load_slice(path: &Path, r: usize, n: usize) -> Result<ReadSet, FastxError> {
    assert!(r < n, "slice {r} out of {n}");
    let cut = |size: u64, i: usize| (size as u128 * i as u128 / n as u128) as u64;
    load_range(path, r == 0, |size| (cut(size, r), cut(size, r + 1)), SCAN_BUF_BYTES)
}

/// The records of `path` whose header starts in the byte range `cuts`
/// computes from the file's size; `first` says who reads an uncuttable
/// pipe.
fn load_range(
    path: &Path,
    first: bool,
    cuts: impl FnOnce(u64) -> (u64, u64),
    buf_bytes: usize,
) -> Result<ReadSet, FastxError> {
    let mut reads = ReadSet::new();
    let (mut file, regular) = open(path)?;
    let Some((size, format)) = regular else {
        if first {
            Scanner::with_buffer(file, None, 0, buf_bytes).scan_all(&mut reads)?;
        }
        return Ok(reads);
    };
    let (lo, hi) = cuts(size);
    let start = resync(&mut file, format, lo, size, buf_bytes)?;
    let end = resync(&mut file, format, hi, size, buf_bytes)?;
    // Sequence is at most half of a FASTQ's bytes; capacity that is never
    // written is never faulted in.
    let bytes = (end - start) as usize;
    reads.reserve_bases(if format == FastxFormat::Fastq { bytes / 2 } else { bytes });
    file.seek(SeekFrom::Start(start))?;
    Scanner::with_buffer(file.take(end - start), Some(format), start, buf_bytes)
        .scan_all(&mut reads)?;
    Ok(reads)
}

/// The whole file at `path`: its `threads` slices parsed on as many
/// threads and concatenated in order.
pub fn load(path: &Path, threads: usize) -> Result<ReadSet, FastxError> {
    let n = threads.max(1);
    let parts: Vec<Result<ReadSet, FastxError>> = std::thread::scope(|s| {
        let rest: Vec<_> = (1..n).map(|r| s.spawn(move || load_slice(path, r, n))).collect();
        let first = load_slice(path, 0, n);
        std::iter::once(first)
            .chain(rest.into_iter().map(|h| h.join().expect("slice loader panicked")))
            .collect()
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(ReadSet::concat(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference the scanner is held to: split on `\n`, strip one
    /// `\r`, walk the lines. `Err` where the scanner must fail.
    fn naive(text: &[u8]) -> Result<Vec<Vec<u8>>, ()> {
        let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
        if lines.last().is_some_and(|l| l.is_empty()) {
            lines.pop();
        }
        let lines: Vec<&[u8]> =
            lines.into_iter().map(|l| l.strip_suffix(b"\r").unwrap_or(l)).collect();
        let fasta = text.first() == Some(&b'>');
        let (mut reads, mut i) = (Vec::new(), 0);
        while i < lines.len() {
            if lines[i].is_empty() {
                i += 1;
            } else if fasta {
                let body = lines[i + 1..].iter().take_while(|l| l.first() != Some(&b'>'));
                reads.push(body.clone().flat_map(|l| l.iter().copied()).collect());
                i += 1 + body.count();
            } else {
                let [h, s, p, q] = lines.get(i..i + 4).ok_or(())? else { unreachable!() };
                let ok = h[0] == b'@'
                    && !matches!(s.first(), Some(b'@' | b'+'))
                    && p.first() == Some(&b'+')
                    && q.len() == s.len();
                if !ok {
                    return Err(());
                }
                reads.push(s.to_vec());
                i += 4;
            }
        }
        Ok(reads)
    }

    fn file_of(name: &str, text: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dakc-io-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    fn reads_of(rs: &ReadSet) -> Vec<Vec<u8>> {
        rs.iter().map(<[u8]>::to_vec).collect()
    }

    fn slices(path: &Path, n: usize, buf: usize) -> Result<Vec<Vec<u8>>, FastxError> {
        let mut all = Vec::new();
        for r in 0..n {
            let cut = move |size: u64| (size * r as u64 / n as u64, size * (r as u64 + 1) / n as u64);
            all.extend(reads_of(&load_range(path, r == 0, cut, buf)?));
        }
        Ok(all)
    }

    /// Whole-file parse, every `n`-way slicing and the naive reference all
    /// agree, through buffers small enough that every line straddles one.
    fn check(name: &str, text: &[u8]) {
        let path = file_of(name, text);
        let want = naive(text).expect("reference accepts the input");
        for buf in [1, 64, 4096] {
            for n in 1..=8 {
                let got = slices(&path, n, buf).unwrap_or_else(|e| panic!("n={n} buf={buf}: {e}"));
                assert_eq!(got, want, "n={n} buf={buf}");
            }
        }
        assert_eq!(reads_of(&load(&path, 3).unwrap()), want);
    }

    /// Every byte offset as the one cut point of a two-way split.
    fn check_every_cut(name: &str, text: &[u8]) {
        let path = file_of(name, text);
        let want = naive(text).expect("reference accepts the input");
        for c in 0..=text.len() as u64 {
            for buf in [3, 64] {
                let mut got = reads_of(&load_range(&path, true, |_| (0, c), buf).unwrap());
                got.extend(reads_of(&load_range(&path, false, |s| (c, s), buf).unwrap()));
                assert_eq!(got, want, "cut at byte {c}, buf={buf}");
            }
        }
    }

    #[test]
    fn find_newline_agrees_with_position() {
        for len in 0..40 {
            for at in 0..=len {
                let mut hay = vec![b'\r'; len];
                if at < len {
                    hay[at] = b'\n';
                    hay[len - 1] = b'\n';
                }
                assert_eq!(find_newline(&hay), hay.iter().position(|&b| b == b'\n'));
            }
        }
        // A byte one above a newline, right after one, must not flag early.
        assert_eq!(find_newline(b"ab\x0b\ncdefgh"), Some(3));
    }

    #[test]
    fn adversarial_fastq_cut_points() {
        // Quality lines that start with '@' and '+', a header holding '+',
        // CRLF endings, runs of blank lines, an empty read, no final newline.
        let text = b"@r1 +x\r\nACGTN\r\n+r1\r\n@+III\r\n\r\n\r\n@r2\nGG\n+\n+@\n@r3\n\n+\n\n\n\n@r4\nacgtnACGT\n+\n@@@@@@@@@";
        check("adv.fq", text);
        check_every_cut("adv_cut.fq", text);
    }

    #[test]
    fn adversarial_fasta_cut_points() {
        let text = b">g1 chr\r\nACGT\r\nAC\r\n\r\n>g2\n>g3\nTTTT\n\nGG\n>g4\nA";
        check("adv.fa", text);
        check_every_cut("adv_cut.fa", text);
    }

    #[test]
    fn more_slices_than_records_leaves_empty_slices() {
        let path = file_of("three.fq", b"@a\nACGT\n+\nIIII\n@b\nCC\n+\nII\n@c\nG\n+\nI\n");
        let sizes: Vec<usize> = (0..8).map(|r| load_slice(&path, r, 8).unwrap().len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 3);
        assert!(sizes.iter().filter(|&&s| s == 0).count() >= 5, "{sizes:?}");
    }

    #[test]
    fn one_huge_fasta_record_belongs_to_slice_zero() {
        let mut text = b">big\n".to_vec();
        for i in 0..40_000u32 {
            text.extend_from_slice(&[b"ACGT"[(i % 4) as usize]; 60]);
            text.push(b'\n');
        }
        let path = file_of("huge.fa", &text);
        let first = load_slice(&path, 0, 4).unwrap();
        assert_eq!((first.len(), first.total_bases()), (1, 2_400_000));
        for r in 1..4 {
            assert!(load_slice(&path, r, 4).unwrap().is_empty(), "slice {r}");
        }
    }

    #[test]
    fn short_reads_and_non_acgt_runs_pass_through() {
        let text = b"@s\nACG\n+\nIII\n@n\nACGTNNNNNNNNACGTACGTNACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIII\n@t\nAC\n+\nII\n";
        check("short.fq", text);
        let whole = load(&file_of("short2.fq", text), 1).unwrap();
        assert_eq!(whole.total_kmers(4), 1 + 5 + 1);
    }

    /// Malformed input: a typed error carrying the offset of the offending
    /// line from whichever slice owns it, for every way of slicing.
    fn check_rejects(name: &str, text: &[u8], offset: u64, what: &str) {
        assert!(naive(text).is_err() || text[0] == b'>', "reference must reject too");
        let path = file_of(name, text);
        for buf in [1, 64, 4096] {
            for n in 1..=5 {
                match slices(&path, n, buf) {
                    Err(FastxError::Format { offset: at, what: w }) => {
                        assert_eq!(at, offset, "n={n} buf={buf}: {w}");
                        assert!(w.contains(what), "n={n} buf={buf}: {w}");
                    }
                    other => panic!("n={n} buf={buf}: expected a format error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn malformed_records_name_their_byte_offset() {
        check_rejects("trunc.fq", b"@a\nAC\n+\nII\n@b\nACGT\n", 19, "missing '+'");
        check_rejects("trunc2.fq", b"@a\nAC\n+\nII\n@b\nACGT\n+\n", 21, "missing quality");
        check_rejects("qual.fq", b"@a\nAC\n+\nII\n@b\nACGT\n+\nIII\n@c\nA\n+\nI\n", 21, "quality length 3");
        check_rejects("plus.fq", b"@a\nAC\n+\nII\n@b\nACGT\nIIII\n@c\nA\n+\nI\n", 19, "expected '+'");
        check_rejects("seq.fq", b"@a\nAC\n+\nII\n@b\n+CGT\n+\nIIII\n", 14, "sequence line starts");
        check_rejects("hdr.fq", b"@a\nAC\n+\nII\nACGT\n", 11, "expected '@'");
    }

    #[test]
    fn headerless_fasta_sequence_is_rejected() {
        let mut rs = ReadSet::new();
        let err = Scanner::new(&b"\nACGT\n"[..], Some(FastxFormat::Fasta)).scan_all(&mut rs);
        assert!(
            matches!(&err, Err(FastxError::Format { offset: 1, what }) if what.contains("before any '>'")),
            "{err:?}"
        );
        // A file's format is sniffed from its first byte.
        let junk = file_of("junk.bin", b"garbage");
        assert!(matches!(sniff(&junk), Err(FastxError::Format { offset: 0, .. })));
        assert!(matches!(load(&junk, 2), Err(FastxError::Format { offset: 0, .. })));
        assert!(matches!(sniff(&junk.with_extension("missing")), Err(FastxError::Io(_))));
    }

    type Rec = (Vec<u8>, Vec<u8>, Vec<u8>, usize);

    /// Strategy: `(header, sequence, quality source, blank lines after)`.
    fn records() -> impl Strategy<Value = Vec<Rec>> {
        let header = prop::collection::vec(prop::sample::select(b"r1 @+>/:\t".to_vec()), 0..12);
        let seq = prop::collection::vec(prop::sample::select(b"ACGTNacgt".to_vec()), 0..90);
        let qual = prop::collection::vec(prop::sample::select(b"@+>I#5".to_vec()), 90..91);
        prop::collection::vec((header, seq, qual, 0usize..3), 0..12)
    }

    proptest! {
        #[test]
        fn fastq_slices_tile_the_file(recs in records(), crlf in any::<bool>(), last_nl in any::<bool>()) {
            let nl: &[u8] = if crlf { b"\r\n" } else { b"\n" };
            let mut text = Vec::new();
            for (h, s, q, blanks) in &recs {
                for line in [&[b"@", &h[..]].concat()[..], s, b"+", &q[..s.len()]] {
                    text.extend_from_slice(line);
                    text.extend_from_slice(nl);
                }
                text.extend(nl.repeat(*blanks));
            }
            if !last_nl && !recs.is_empty() {
                text.truncate(text.len() - nl.len() * (1 + recs.last().unwrap().3));
            }
            if !text.is_empty() {
                check("prop.fq", &text);
            }
        }

        #[test]
        fn fasta_slices_tile_the_file(recs in records(), crlf in any::<bool>(), wrap in 1usize..70) {
            let nl: &[u8] = if crlf { b"\r\n" } else { b"\n" };
            let mut text = Vec::new();
            for (h, s, _, blanks) in &recs {
                text.extend_from_slice(&[b">", &h[..], nl].concat());
                for line in s.chunks(wrap) {
                    text.extend_from_slice(&[line, nl].concat());
                }
                text.extend(nl.repeat(*blanks));
            }
            if !text.is_empty() {
                check("prop.fa", &text);
            }
        }
    }
}
