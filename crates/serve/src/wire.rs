//! The serve-protocol payload format.
//!
//! Requests and responses travel as [`FrameKind::Query`] /
//! [`FrameKind::Reply`] frames on the serve mesh (in-process backends
//! have no frame header, so the payload is self-describing: the leading
//! opcode byte tells the receiver what it holds). All integers are
//! little-endian; k-mer words are written at the job's word width,
//! exactly as in the shard record format.
//!
//! ```text
//! READY      1: [rank u32][k u32][word_bytes u32][canonical u8][n_records u64]
//!               (+ [replicas u32] only when the service replicates)
//! LOOKUP     2: [id u64][n u32][n × kmer]
//! LOOKUP_RE  3: [id u64][n u32][n × count u32]      (0 = not present)
//! HIST       4: [id u64][max u32]
//! HIST_RE    5: [id u64][max u32][(max+1) × u64]
//! TOPN       6: [id u64][n u32]
//! TOPN_RE    7: [id u64][n u32][n × (kmer, count u32)]
//! SHUTDOWN   8: []
//! HIST_OWNER 9: [id u64][max u32][owner u32]        (failover: replica shard)
//! TOPN_OWNER 10:[id u64][n u32][owner u32]          (failover: replica shard)
//! ```
//!
//! Point lookups are 1-key LOOKUPs; the batched multi-lookup is the same
//! opcode. A failed-over LOOKUP needs no new opcode — the server hashes
//! each key to its owner and consults that owner's replica shard — but
//! aggregates are per-shard, so the `_OWNER` variants name the shard
//! explicitly. A non-replicated service (`replicas = 1`) emits exactly
//! the pre-replication wire bytes: the READY suffix and the `_OWNER`
//! opcodes only ever appear when failover is possible. Malformed
//! payloads decode to [`ServeError::Wire`] naming the sender — a hostile
//! or corrupt peer cannot panic a server.
//!
//! [`FrameKind::Query`]: dakc_net::FrameKind::Query
//! [`FrameKind::Reply`]: dakc_net::FrameKind::Reply

use dakc_kmer::{KmerCount, KmerWord};

use crate::error::{ServeError, ServeResult};

/// Opcode byte values.
mod op {
    pub const READY: u8 = 1;
    pub const LOOKUP: u8 = 2;
    pub const LOOKUP_RE: u8 = 3;
    pub const HIST: u8 = 4;
    pub const HIST_RE: u8 = 5;
    pub const TOPN: u8 = 6;
    pub const TOPN_RE: u8 = 7;
    pub const SHUTDOWN: u8 = 8;
    pub const HIST_OWNER: u8 = 9;
    pub const TOPN_OWNER: u8 = 10;
}

/// A server's hello: what it serves. Sent once per client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready {
    /// The serving rank.
    pub rank: u32,
    /// K-mer length of the shard.
    pub k: u32,
    /// Bytes per k-mer word on the wire.
    pub word_bytes: u32,
    /// Whether counts are canonical.
    pub canonical: bool,
    /// Records in the rank's shard.
    pub n_records: u64,
    /// Replication factor: owner `o`'s shard is held by ranks
    /// `o..o+replicas-1 (mod servers)`. `1` means no replication and is
    /// omitted from the wire (the pre-replication READY layout).
    pub replicas: u32,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<W> {
    /// Count each key (a point lookup is a 1-key batch).
    Lookup {
        /// Correlates the response to this request.
        id: u64,
        /// Keys, already owner-routed to this server.
        keys: Vec<W>,
    },
    /// The shard's count spectrum up to multiplicity `max`.
    Histogram {
        /// Correlation id.
        id: u64,
        /// Highest explicit multiplicity bucket.
        max: u32,
        /// Which owner's shard to read; `None` (the common case) means
        /// the server's own. `Some` is the failover form: a client
        /// asking a replica holder for a dead owner's shard.
        owner: Option<u32>,
    },
    /// The shard's `n` highest-count records.
    TopN {
        /// Correlation id.
        id: u64,
        /// Records wanted.
        n: u32,
        /// Which owner's shard to read (see [`Request::Histogram`]).
        owner: Option<u32>,
    },
    /// End the serve session; the server exits its request loop.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response<W> {
    /// Per-key counts, parallel to the request's keys (0 = not present).
    Lookup {
        /// The request's correlation id.
        id: u64,
        /// One count per requested key.
        counts: Vec<u32>,
    },
    /// Spectrum buckets (`max + 1` of them, overflow last).
    Histogram {
        /// The request's correlation id.
        id: u64,
        /// Bucket values.
        buckets: Vec<u64>,
    },
    /// Highest-count records, count-descending.
    TopN {
        /// The request's correlation id.
        id: u64,
        /// The records.
        records: Vec<KmerCount<W>>,
    },
}

fn push_word<W: KmerWord>(out: &mut Vec<u8>, w: W, word_bytes: usize) {
    out.extend_from_slice(&w.to_u128().to_le_bytes()[..word_bytes]);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    from: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> ServeResult<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(
            || ServeError::Wire {
                from: self.from,
                detail: format!(
                    "{what}: need {n} bytes at offset {}, payload is {}",
                    self.at,
                    self.bytes.len()
                ),
            },
        )?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> ServeResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> ServeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> ServeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn word<W: KmerWord>(&mut self, word_bytes: usize, what: &str) -> ServeResult<W> {
        let b = self.take(word_bytes, what)?;
        let mut buf = [0u8; 16];
        buf[..word_bytes].copy_from_slice(b);
        Ok(W::from_u128(u128::from_le_bytes(buf)))
    }

    fn done(&self, what: &str) -> ServeResult<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ServeError::Wire {
                from: self.from,
                detail: format!(
                    "{what}: {} trailing bytes",
                    self.bytes.len() - self.at
                ),
            })
        }
    }
}

/// A count-capped element budget for decoded vectors: the serve mesh's
/// frame-size bound already limits payloads, this guards the arithmetic.
const MAX_ELEMS: u64 = 1 << 24;

fn check_elems(from: usize, n: u64, what: &str) -> ServeResult<usize> {
    if n > MAX_ELEMS {
        return Err(ServeError::Wire {
            from,
            detail: format!("{what}: {n} elements exceeds the {MAX_ELEMS} cap"),
        });
    }
    Ok(n as usize)
}

/// Encodes a server hello.
pub fn encode_ready(r: &Ready) -> Vec<u8> {
    let mut out = Vec::with_capacity(22);
    out.push(op::READY);
    out.extend_from_slice(&r.rank.to_le_bytes());
    out.extend_from_slice(&r.k.to_le_bytes());
    out.extend_from_slice(&r.word_bytes.to_le_bytes());
    out.push(u8::from(r.canonical));
    out.extend_from_slice(&r.n_records.to_le_bytes());
    // Wire compatibility: a non-replicated hello is byte-identical to
    // the pre-replication format; the suffix appears only when it
    // carries information.
    if r.replicas > 1 {
        out.extend_from_slice(&r.replicas.to_le_bytes());
    }
    out
}

/// Decodes a server hello (or `Ok(None)` when the payload is some other
/// opcode — the client skips non-hello traffic while connecting).
pub fn decode_ready(from: usize, bytes: &[u8]) -> ServeResult<Option<Ready>> {
    let mut r = Reader { bytes, at: 0, from };
    if r.u8("opcode")? != op::READY {
        return Ok(None);
    }
    let mut ready = Ready {
        rank: r.u32("ready rank")?,
        k: r.u32("ready k")?,
        word_bytes: r.u32("ready word_bytes")?,
        canonical: r.u8("ready canonical")? != 0,
        n_records: r.u64("ready n_records")?,
        replicas: 1,
    };
    // Optional replication suffix (absent on non-replicated services).
    if r.at < r.bytes.len() {
        ready.replicas = r.u32("ready replicas")?;
        if ready.replicas < 2 {
            return Err(ServeError::Wire {
                from,
                detail: format!(
                    "ready carries a replication suffix of {} (must be ≥ 2 when present)",
                    ready.replicas
                ),
            });
        }
    }
    r.done("ready")?;
    Ok(Some(ready))
}

/// The most keys one LOOKUP request can carry at `word_bytes` per key
/// without exceeding the transport's frame bound
/// ([`dakc_net::MAX_PAYLOAD`]): the 13-byte header plus the keys.
pub fn lookup_keys_per_frame(word_bytes: usize) -> usize {
    (dakc_net::MAX_PAYLOAD - 13) / word_bytes
}

/// Encodes a request at the given word width.
pub fn encode_request<W: KmerWord>(req: &Request<W>, word_bytes: usize) -> Vec<u8> {
    match req {
        Request::Lookup { id, keys } => {
            let mut out = Vec::with_capacity(13 + keys.len() * word_bytes);
            out.push(op::LOOKUP);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for &k in keys {
                push_word(&mut out, k, word_bytes);
            }
            out
        }
        Request::Histogram { id, max, owner } => {
            let mut out = Vec::with_capacity(17);
            out.push(if owner.is_some() { op::HIST_OWNER } else { op::HIST });
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&max.to_le_bytes());
            if let Some(o) = owner {
                out.extend_from_slice(&o.to_le_bytes());
            }
            out
        }
        Request::TopN { id, n, owner } => {
            let mut out = Vec::with_capacity(17);
            out.push(if owner.is_some() { op::TOPN_OWNER } else { op::TOPN });
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
            if let Some(o) = owner {
                out.extend_from_slice(&o.to_le_bytes());
            }
            out
        }
        Request::Shutdown => vec![op::SHUTDOWN],
    }
}

/// Decodes a request (server side).
pub fn decode_request<W: KmerWord>(
    from: usize,
    bytes: &[u8],
    word_bytes: usize,
) -> ServeResult<Request<W>> {
    let mut r = Reader { bytes, at: 0, from };
    let opcode = r.u8("opcode")?;
    let req = match opcode {
        op::LOOKUP => {
            let id = r.u64("lookup id")?;
            let n = check_elems(from, u64::from(r.u32("lookup n")?), "lookup keys")?;
            let mut keys = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                keys.push(r.word::<W>(word_bytes, "lookup key")?);
            }
            Request::Lookup { id, keys }
        }
        op::HIST => {
            Request::Histogram { id: r.u64("hist id")?, max: r.u32("hist max")?, owner: None }
        }
        op::TOPN => Request::TopN { id: r.u64("topn id")?, n: r.u32("topn n")?, owner: None },
        op::HIST_OWNER => Request::Histogram {
            id: r.u64("hist id")?,
            max: r.u32("hist max")?,
            owner: Some(r.u32("hist owner")?),
        },
        op::TOPN_OWNER => Request::TopN {
            id: r.u64("topn id")?,
            n: r.u32("topn n")?,
            owner: Some(r.u32("topn owner")?),
        },
        op::SHUTDOWN => Request::Shutdown,
        other => {
            return Err(ServeError::Wire {
                from,
                detail: format!("unknown request opcode {other}"),
            })
        }
    };
    r.done("request")?;
    Ok(req)
}

/// Encodes a response at the given word width.
pub fn encode_response<W: KmerWord>(resp: &Response<W>, word_bytes: usize) -> Vec<u8> {
    match resp {
        Response::Lookup { id, counts } => {
            let mut out = Vec::with_capacity(13 + counts.len() * 4);
            out.push(op::LOOKUP_RE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
            for c in counts {
                out.extend_from_slice(&c.to_le_bytes());
            }
            out
        }
        Response::Histogram { id, buckets } => {
            let mut out = Vec::with_capacity(13 + buckets.len() * 8);
            out.push(op::HIST_RE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&((buckets.len() as u32).saturating_sub(1)).to_le_bytes());
            for b in buckets {
                out.extend_from_slice(&b.to_le_bytes());
            }
            out
        }
        Response::TopN { id, records } => {
            let mut out = Vec::with_capacity(13 + records.len() * (word_bytes + 4));
            out.push(op::TOPN_RE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for rec in records {
                push_word(&mut out, rec.kmer, word_bytes);
                out.extend_from_slice(&rec.count.to_le_bytes());
            }
            out
        }
    }
}

/// Decodes a response (client side). Returns `Ok(None)` for a READY
/// payload (a late hello during the first batch is skipped, not fatal).
pub fn decode_response<W: KmerWord>(
    from: usize,
    bytes: &[u8],
    word_bytes: usize,
) -> ServeResult<Option<Response<W>>> {
    let mut r = Reader { bytes, at: 0, from };
    let opcode = r.u8("opcode")?;
    let resp = match opcode {
        op::READY => return Ok(None),
        op::LOOKUP_RE => {
            let id = r.u64("lookup-response id")?;
            let n =
                check_elems(from, u64::from(r.u32("lookup-response n")?), "lookup counts")?;
            let mut counts = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                counts.push(r.u32("lookup-response count")?);
            }
            Response::Lookup { id, counts }
        }
        op::HIST_RE => {
            let id = r.u64("hist-response id")?;
            let max =
                check_elems(from, u64::from(r.u32("hist-response max")?), "hist buckets")?;
            let mut buckets = Vec::with_capacity((max + 1).min(4096));
            for _ in 0..=max {
                buckets.push(r.u64("hist-response bucket")?);
            }
            Response::Histogram { id, buckets }
        }
        op::TOPN_RE => {
            let id = r.u64("topn-response id")?;
            let n =
                check_elems(from, u64::from(r.u32("topn-response n")?), "topn records")?;
            let mut records = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let w = r.word::<W>(word_bytes, "topn-response kmer")?;
                let c = r.u32("topn-response count")?;
                records.push(KmerCount::new(w, c));
            }
            Response::TopN { id, records }
        }
        other => {
            return Err(ServeError::Wire {
                from,
                detail: format!("unknown response opcode {other}"),
            })
        }
    };
    r.done("response")?;
    Ok(Some(resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ready_roundtrip() {
        let r = Ready {
            rank: 3,
            k: 31,
            word_bytes: 8,
            canonical: true,
            n_records: 12345,
            replicas: 1,
        };
        assert_eq!(decode_ready(3, &encode_ready(&r)).unwrap(), Some(r));
        // Non-ready payloads skip as None.
        let req = encode_request::<u64>(&Request::Shutdown, 8);
        assert_eq!(decode_ready(0, &req).unwrap(), None);
    }

    #[test]
    fn ready_replication_suffix_roundtrips_and_stays_off_the_wire() {
        let plain = Ready {
            rank: 0,
            k: 21,
            word_bytes: 8,
            canonical: false,
            n_records: 7,
            replicas: 1,
        };
        // replicas = 1 must be byte-identical to the pre-replication
        // format: 22 bytes, no suffix.
        assert_eq!(encode_ready(&plain).len(), 22);
        let replicated = Ready { replicas: 3, ..plain };
        let wire = encode_ready(&replicated);
        assert_eq!(wire.len(), 26);
        assert_eq!(decode_ready(0, &wire).unwrap(), Some(replicated));
        // A suffix of 0 or 1 is protocol confusion, not silently 1.
        let mut bad = encode_ready(&plain);
        bad.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(decode_ready(0, &bad), Err(ServeError::Wire { .. })));
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::Lookup { id: 7, keys: vec![1u64, 99, u64::MAX] },
            Request::Lookup { id: 8, keys: vec![] },
            Request::Histogram { id: 9, max: 64, owner: None },
            Request::Histogram { id: 9, max: 64, owner: Some(2) },
            Request::TopN { id: 10, n: 25, owner: None },
            Request::TopN { id: 10, n: 25, owner: Some(0) },
            Request::Shutdown,
        ] {
            let wire = encode_request(&req, 8);
            assert_eq!(decode_request::<u64>(1, &wire, 8).unwrap(), req);
        }
        let req = Request::Lookup { id: 1, keys: vec![u128::MAX >> 2, 5u128] };
        let wire = encode_request(&req, 16);
        assert_eq!(decode_request::<u128>(1, &wire, 16).unwrap(), req);
    }

    #[test]
    fn response_roundtrips() {
        for resp in [
            Response::Lookup { id: 1, counts: vec![0, 3, 9] },
            Response::Histogram { id: 2, buckets: vec![5, 0, 1, 7] },
            Response::TopN {
                id: 3,
                records: vec![KmerCount::new(42u64, 17), KmerCount::new(7, 1)],
            },
        ] {
            let wire = encode_response(&resp, 8);
            assert_eq!(decode_response::<u64>(2, &wire, 8).unwrap(), Some(resp));
        }
        // A READY seen mid-stream is skipped, not an error.
        let hello = encode_ready(&Ready {
            rank: 0,
            k: 15,
            word_bytes: 8,
            canonical: false,
            n_records: 0,
            replicas: 1,
        });
        assert_eq!(decode_response::<u64>(0, &hello, 8).unwrap(), None);
    }

    #[test]
    fn truncated_and_unknown_payloads_are_typed() {
        let wire = encode_request(&Request::Lookup { id: 7, keys: vec![1u64, 2] }, 8);
        for cut in 0..wire.len() {
            match decode_request::<u64>(4, &wire[..cut], 8) {
                Err(ServeError::Wire { from: 4, .. }) => {}
                other => panic!("cut {cut}: {other:?}"),
            }
        }
        assert!(matches!(
            decode_request::<u64>(0, &[200], 8),
            Err(ServeError::Wire { .. })
        ));
        // A count field promising more elements than the payload holds.
        let mut short = encode_request(&Request::Lookup { id: 1, keys: vec![9u64] }, 8);
        short[9] = 200; // n = 200, one key present
        assert!(matches!(
            decode_request::<u64>(0, &short, 8),
            Err(ServeError::Wire { .. })
        ));
    }

    proptest! {
        // Hostile request/response payloads never panic the decoders.
        #[test]
        fn hostile_payloads_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode_request::<u64>(0, &bytes, 8);
            let _ = decode_response::<u64>(0, &bytes, 8);
            let _ = decode_ready(0, &bytes);
            let _ = decode_request::<u128>(0, &bytes, 16);
            let _ = decode_response::<u128>(0, &bytes, 16);
        }

        // The serve mesh's Query/Reply frames pass through the
        // transport's length-capped [`FrameDecoder`] before any payload
        // is buffered. An adversarial length prefix must surface as a
        // typed `Oversized` (or a typed bad-kind error), never as an
        // attacker-sized allocation: the decoder's buffered bytes stay
        // bounded by what was actually fed.
        #[test]
        fn adversarial_length_prefix_is_typed_never_allocated(
            len in any::<u32>(),
            kind in any::<u8>(),
        ) {
            use dakc_net::{FrameDecoder, FrameError};
            const CAP: usize = 1 << 20;
            let mut dec = FrameDecoder::with_max_len(CAP);
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.push(kind);
            dec.feed(&bytes);
            match dec.next_frame() {
                Err(FrameError::Oversized { len: l, max }) => {
                    prop_assert!(l as usize > CAP);
                    prop_assert_eq!(max as usize, CAP);
                }
                // Complete, incomplete, or a typed bad-kind error — all
                // fine as long as an oversized prefix didn't slip by.
                _ => prop_assert!(len as usize <= CAP),
            }
            prop_assert!(dec.pending_bytes() <= bytes.len());
        }

        #[test]
        fn lookup_roundtrip_prop(
            id in any::<u64>(),
            keys in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            let req = Request::Lookup { id, keys };
            let wire = encode_request(&req, 8);
            prop_assert_eq!(decode_request::<u64>(0, &wire, 8).unwrap(), req);
        }
    }
}
