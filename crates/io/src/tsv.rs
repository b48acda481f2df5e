//! The `KMER<TAB>COUNT` writer behind `dakc count`, `launch` and `query`.
//!
//! Once counting is fast, one `fmt` call and one small `write` per line is
//! what the output costs; [`TsvWriter`] formats into a large byte buffer —
//! four bases per table lookup, a hand-rolled decimal count — and hands
//! the sink whole buffers.

use std::io::{self, Write};

use dakc_kmer::KmerWord;

/// Bytes buffered before a `write_all`.
const FLUSH_BYTES: usize = 256 << 10;

/// Longest line: 64 bases, padding of the last 4-base group, a tab, ten
/// digits and a newline.
const MAX_LINE: usize = 64 + 3 + 1 + 10 + 1;

/// The four bases each byte of a packed k-mer spells, first base in the
/// high bits (the [`KmerWord`] packing).
const QUADS: [[u8; 4]; 256] = {
    let mut t = [[0u8; 4]; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 4 {
            t[b][i] = b"ACGT"[(b >> (6 - 2 * i)) & 3];
            i += 1;
        }
        b += 1;
    }
    t
};

/// Buffered TSV emitter for k-mers of one length `k`.
pub struct TsvWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    k: usize,
}

impl<W: Write> TsvWriter<W> {
    /// A writer of `k`-mers into `out`.
    pub fn new(out: W, k: usize) -> Self {
        assert!((1..=64).contains(&k), "k = {k} out of range");
        Self { out, buf: Vec::with_capacity(FLUSH_BYTES + MAX_LINE), k }
    }

    /// Appends `KMER\tCOUNT\n`; a `None` count prints as `?` (a lookup
    /// nobody could answer).
    pub fn record<K: KmerWord>(&mut self, kmer: K, count: Option<u32>) -> io::Result<()> {
        let k = self.k;
        let at = self.buf.len();
        // Left-align the 2k bits, then peel whole bytes off the top; the
        // last group may spell up to three bases too many, cut below.
        let mut bits = kmer.to_u128() << (128 - 2 * k);
        for _ in 0..k.div_ceil(4) {
            self.buf.extend_from_slice(&QUADS[(bits >> 120) as usize]);
            bits <<= 8;
        }
        self.buf.truncate(at + k);
        self.buf.push(b'\t');
        match count {
            None => self.buf.push(b'?'),
            Some(mut c) => {
                let mut digits = [0u8; 10];
                let mut i = digits.len();
                loop {
                    i -= 1;
                    digits[i] = b'0' + (c % 10) as u8;
                    c /= 10;
                    if c == 0 {
                        break;
                    }
                }
                self.buf.extend_from_slice(&digits[i..]);
            }
        }
        self.buf.push(b'\n');
        if self.buf.len() >= FLUSH_BYTES {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Writes what is buffered and flushes the sink.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line<K: KmerWord>(kmer: K, k: usize, count: Option<u32>) -> String {
        let mut out = Vec::new();
        let mut w = TsvWriter::new(&mut out, k);
        w.record(kmer, count).unwrap();
        w.finish().unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn matches_fmt_for_every_width_and_count() {
        // A bit pattern with every base value at every position parity.
        let pattern = 0x1B_E4_27_D8_93_6C_B1_4E_1B_E4_27_D8_93_6C_B1_4Eu128;
        for k in [1usize, 4, 15, 31, 32, 33, 63, 64] {
            for count in [1u32, 9, 10, 12_345, u32::MAX] {
                let want = |dna: String| format!("{dna}\t{count}\n");
                if k <= 32 {
                    let w = pattern as u64 & u64::mask(k);
                    assert_eq!(line(w, k, Some(count)), want(w.to_dna_string(k)), "k={k}");
                }
                let w = pattern & u128::mask(k);
                assert_eq!(line(w, k, Some(count)), want(w.to_dna_string(k)), "k={k} (u128)");
            }
        }
        assert_eq!(line(0b0110u64, 2, None), "CG\t?\n");
    }

    #[test]
    fn large_outputs_cross_the_flush_threshold_intact() {
        let mut out = Vec::new();
        let mut w = TsvWriter::new(&mut out, 31);
        let n = 3 * FLUSH_BYTES / 34;
        for i in 0..n as u64 {
            w.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & u64::mask(31), Some(i as u32 + 1))
                .unwrap();
        }
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), n);
        for (i, l) in text.lines().enumerate().step_by(997) {
            let w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & u64::mask(31);
            assert_eq!(l, format!("{}\t{}", w.to_dna_string(31), i + 1));
        }
    }

    #[test]
    fn a_failing_sink_is_an_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = TsvWriter::new(Full, 3);
        w.record(5u64, Some(1)).unwrap();
        assert!(w.finish().is_err());
    }
}
