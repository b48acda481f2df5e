//! FASTA/FASTQ records: batch parsing and writing.
//!
//! Input handling matches what the paper's pipeline expects from
//! `fasterq-dump` output: 4-line FASTQ records (no multi-line sequences in
//! FASTQ; FASTA sequences may wrap). The parsers here are adapters over
//! the one scanner in [`crate::scan`]; records borrow nothing so they can
//! be moved around freely.

use std::io::{self, Read, Write};

use crate::scan::{Scanner, Sink};
use crate::stream::FastxFormat;

/// One FASTA or FASTQ record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FastxRecord {
    /// Record id (text after `>`/`@`, up to the first whitespace).
    pub id: String,
    /// Sequence bytes.
    pub seq: Vec<u8>,
    /// Phred+33 quality string; `None` for FASTA.
    pub qual: Option<Vec<u8>>,
}

/// Parse errors with their position in the input.
#[derive(Debug)]
pub enum FastxError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input.
    Format {
        /// Byte offset of the offending line (or of the place a missing
        /// line should be).
        offset: u64,
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for FastxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastxError::Io(e) => write!(f, "I/O error: {e}"),
            FastxError::Format { offset, what } => write!(f, "byte {offset}: {what}"),
        }
    }
}

impl std::error::Error for FastxError {}

impl From<io::Error> for FastxError {
    fn from(e: io::Error) -> Self {
        FastxError::Io(e)
    }
}

/// Collects scanned records as owned [`FastxRecord`]s.
#[derive(Default)]
pub(crate) struct RecordSink {
    pub(crate) done: Vec<FastxRecord>,
    cur: FastxRecord,
    header: Vec<u8>,
}

impl Sink for RecordSink {
    fn header(&mut self, bytes: &[u8]) {
        self.header.extend_from_slice(bytes);
    }

    fn seq(&mut self, bytes: &[u8]) {
        self.cur.seq.extend_from_slice(bytes);
    }

    fn qual(&mut self, bytes: &[u8]) {
        self.cur.qual.get_or_insert_with(Vec::new).extend_from_slice(bytes);
    }

    fn end(&mut self) {
        let id = self.header.split(u8::is_ascii_whitespace).next().unwrap_or_default();
        self.cur.id = String::from_utf8_lossy(id).into_owned();
        self.header.clear();
        self.done.push(std::mem::take(&mut self.cur));
    }
}

fn parse<R: Read>(reader: R, format: FastxFormat) -> Result<Vec<FastxRecord>, FastxError> {
    let mut sink = RecordSink::default();
    Scanner::new(reader, Some(format)).scan_all(&mut sink)?;
    Ok(sink.done)
}

/// Parses FASTQ (strict 4-line records) from a reader.
pub fn parse_fastq<R: Read>(reader: R) -> Result<Vec<FastxRecord>, FastxError> {
    parse(reader, FastxFormat::Fastq)
}

/// Parses FASTA (possibly line-wrapped sequences) from a reader.
pub fn parse_fasta<R: Read>(reader: R) -> Result<Vec<FastxRecord>, FastxError> {
    parse(reader, FastxFormat::Fasta)
}

/// Writes records as FASTQ (records lacking qualities get `I` — Q40 —
/// throughout, the convention read simulators use for perfect bases).
pub fn write_fastq<W: Write>(mut w: W, records: &[FastxRecord]) -> io::Result<()> {
    for r in records {
        w.write_all(b"@")?;
        w.write_all(r.id.as_bytes())?;
        w.write_all(b"\n")?;
        w.write_all(&r.seq)?;
        w.write_all(b"\n+\n")?;
        match &r.qual {
            Some(q) => w.write_all(q)?,
            None => w.write_all(&vec![b'I'; r.seq.len()])?,
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes records as FASTA with 80-column wrapping.
pub fn write_fasta<W: Write>(mut w: W, records: &[FastxRecord]) -> io::Result<()> {
    for r in records {
        w.write_all(b">")?;
        w.write_all(r.id.as_bytes())?;
        w.write_all(b"\n")?;
        for chunk in r.seq.chunks(80) {
            w.write_all(chunk)?;
            w.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FQ: &str = "@r1 desc\nACGT\n+\nIIII\n@r2\nGG\n+\n##\n";

    #[test]
    fn fastq_round_trip() {
        let recs = parse_fastq(FQ.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "r1");
        assert_eq!(recs[0].seq, b"ACGT");
        assert_eq!(recs[0].qual.as_deref(), Some(b"IIII".as_slice()));
        let mut buf = Vec::new();
        write_fastq(&mut buf, &recs).unwrap();
        let again = parse_fastq(buf.as_slice()).unwrap();
        assert_eq!(recs, again);
    }

    #[test]
    fn fastq_rejects_bad_header() {
        assert!(parse_fastq("ACGT\n".as_bytes()).is_err());
    }

    #[test]
    fn fastq_rejects_quality_length_mismatch() {
        let bad = "@r\nACGT\n+\nII\n";
        assert!(parse_fastq(bad.as_bytes()).is_err());
    }

    #[test]
    fn fastq_rejects_truncated_record() {
        let bad = "@r\nACGT\n";
        assert!(parse_fastq(bad.as_bytes()).is_err());
    }

    #[test]
    fn fasta_wrapped_sequences_concatenate() {
        let fa = ">g1 chromosome\nACGT\nACGT\n>g2\nTT\n";
        let recs = parse_fasta(fa.as_bytes()).unwrap();
        assert_eq!(recs[0].id, "g1");
        assert_eq!(recs[0].seq, b"ACGTACGT");
        assert_eq!(recs[1].seq, b"TT");
    }

    #[test]
    fn fasta_round_trip_with_wrapping() {
        let rec = FastxRecord {
            id: "long".into(),
            seq: vec![b'A'; 200],
            qual: None,
        };
        let mut buf = Vec::new();
        write_fasta(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let again = parse_fasta(buf.as_slice()).unwrap();
        assert_eq!(again[0].seq, rec.seq);
    }

    #[test]
    fn fasta_rejects_headerless_sequence() {
        assert!(parse_fasta("ACGT\n".as_bytes()).is_err());
    }

    #[test]
    fn write_fastq_synthesizes_quality() {
        let rec = FastxRecord {
            id: "x".into(),
            seq: b"ACG".to_vec(),
            qual: None,
        };
        let mut buf = Vec::new();
        write_fastq(&mut buf, std::slice::from_ref(&rec)).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "@x\nACG\n+\nIII\n");
    }
}
