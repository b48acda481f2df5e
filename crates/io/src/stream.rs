//! Streaming FASTA/FASTQ reader.
//!
//! Real datasets (Table V runs to 451 GB) need constant-memory streaming.
//! [`FastxReader`] yields one record — or one reused [`ReadSet`] chunk —
//! at a time from any `Read`, sniffing the format from the first byte; it
//! is the pull-style face of the scanner in [`crate::scan`].

use std::io::Read;

use crate::fastx::{FastxError, FastxRecord, RecordSink};
use crate::readset::ReadSet;
use crate::scan::Scanner;

/// Detected stream format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastxFormat {
    /// `>` headers, possibly wrapped sequences.
    Fasta,
    /// `@` headers, strict 4-line records.
    Fastq,
}

/// A pull-based record reader.
pub struct FastxReader<R> {
    scan: Scanner<R>,
}

impl<R: Read> FastxReader<R> {
    /// Wraps a reader; the format is sniffed on the first record.
    pub fn new(inner: R) -> Self {
        Self { scan: Scanner::new(inner, None) }
    }

    /// The detected format, once the first record has been read.
    pub fn format(&self) -> Option<FastxFormat> {
        self.scan.format()
    }

    /// Reads the next record, or `None` at end of stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<FastxRecord>, FastxError> {
        let mut sink = RecordSink::default();
        self.scan.next_record(&mut sink)?;
        Ok(sink.done.pop())
    }

    /// Streams the remaining records into a [`ReadSet`] in fixed-size
    /// chunks, calling `f` per chunk; the chunk is reused. Returns the
    /// record total.
    pub fn for_each_chunk(
        &mut self,
        chunk_reads: usize,
        mut f: impl FnMut(&ReadSet),
    ) -> Result<usize, FastxError> {
        assert!(chunk_reads >= 1);
        let mut total = 0usize;
        let mut chunk = ReadSet::new();
        loop {
            chunk.clear();
            while chunk.len() < chunk_reads && self.scan.next_record(&mut chunk)? {}
            if chunk.is_empty() {
                return Ok(total);
            }
            total += chunk.len();
            f(&chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_fastq_records() {
        let data = "@r1\nACGT\n+\nIIII\n@r2 extra\nGG\n+x\n##\n";
        let mut r = FastxReader::new(data.as_bytes());
        let a = r.next().unwrap().unwrap();
        assert_eq!(r.format(), Some(FastxFormat::Fastq));
        assert_eq!(a.id, "r1");
        assert_eq!(a.seq, b"ACGT");
        let b = r.next().unwrap().unwrap();
        assert_eq!(b.id, "r2");
        assert_eq!(b.qual.as_deref(), Some(b"##".as_slice()));
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn streams_wrapped_fasta() {
        let data = ">g1\nACGT\nACG\n>g2\nTT\n";
        let mut r = FastxReader::new(data.as_bytes());
        let a = r.next().unwrap().unwrap();
        assert_eq!(r.format(), Some(FastxFormat::Fasta));
        assert_eq!(a.seq, b"ACGTACG");
        let b = r.next().unwrap().unwrap();
        assert_eq!(b.seq, b"TT");
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn agrees_with_batch_parser() {
        let data = "@a\nACGTA\n+\nIIIII\n@b\nCC\n+\n!!\n@c\nGGGG\n+\nIIII\n";
        let batch = crate::fastx::parse_fastq(data.as_bytes()).unwrap();
        let mut streamed = Vec::new();
        let mut r = FastxReader::new(data.as_bytes());
        while let Some(rec) = r.next().unwrap() {
            streamed.push(rec);
        }
        assert_eq!(batch, streamed);
    }

    #[test]
    fn chunked_iteration_covers_everything() {
        let mut data = String::new();
        for i in 0..25 {
            data.push_str(&format!("@r{i}\nACGT\n+\nIIII\n"));
        }
        let mut r = FastxReader::new(data.as_bytes());
        let mut chunks = Vec::new();
        let mut arenas = Vec::new();
        let total = r
            .for_each_chunk(10, |c| {
                chunks.push(c.len());
                arenas.push(c.get(0).as_ptr());
            })
            .unwrap();
        assert_eq!(total, 25);
        assert_eq!(chunks, vec![10, 10, 5]);
        // One chunk, reused: no chunk outgrows the first, so the arena
        // never moves.
        assert!(arenas.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn truncated_fastq_errors_with_byte_offset() {
        let data = "@r1\nACGT\n";
        let mut r = FastxReader::new(data.as_bytes());
        let err = r.next().unwrap_err();
        assert_eq!(format!("{err}"), "byte 9: missing '+' line");
    }

    #[test]
    fn garbage_header_rejected() {
        let mut r = FastxReader::new("ACGT\n".as_bytes());
        assert!(r.next().is_err());
    }

    #[test]
    fn blank_lines_between_records_tolerated() {
        let data = "@a\nAC\n+\nII\n\n\n@b\nGG\n+\nII\n";
        let mut r = FastxReader::new(data.as_bytes());
        assert_eq!(r.next().unwrap().unwrap().id, "a");
        assert_eq!(r.next().unwrap().unwrap().id, "b");
        assert!(r.next().unwrap().is_none());
    }
}
