//! Length-prefixed message framing.
//!
//! One frame on the wire is
//!
//! ```text
//! [len: u32 LE] [kind: u8] [payload: len − 1 bytes]
//! ```
//!
//! where `len` counts the kind byte plus the payload. `Data` frames carry
//! one L0 `PUT` buffer verbatim — the conveyor's record wire format
//! (routing header, channel id, length prefix, payload) is opaque here.
//! `Barrier` and `Term` frames carry the collective-protocol payloads of
//! [`crate::protocol`].
//!
//! [`FrameDecoder`] is incremental: feed it whatever byte ranges the
//! socket returns (frames may arrive split at any offset, or many per
//! read) and pull complete frames out.

/// Hard upper bound on one frame's length field, as a corruption guard.
/// L0 buffers are at most `c0_bytes` (40 KiB in production) plus one
/// oversized record; gather frames stay under 1 MiB by construction.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Application bytes (one conveyor `PUT` buffer, or a gather chunk).
    Data,
    /// Barrier announcement: `[epoch: u64 LE]`.
    Barrier,
    /// Termination-detection contribution:
    /// `[round: u64 LE][sent: u64 LE][received: u64 LE]`.
    Term,
    /// Worker liveness beacon to the launch supervisor
    /// ([`crate::supervisor::Heartbeat`] wire format).
    Heartbeat,
    /// A serve-mode request (point/batched lookup, histogram, top-N).
    /// The payload's leading opcode byte belongs to the serve wire
    /// protocol; the framing layer does not interpret it.
    Query,
    /// A serve-mode response paired to an earlier [`FrameKind::Query`].
    Reply,
    /// Recovery announcement from the launch supervisor:
    /// `[rank: u32 LE][incarnation: u32 LE]` — the named rank died and is
    /// being respawned under the given incarnation number. Survivors mask
    /// the rank until its new incarnation dials back in.
    Recover,
}

impl FrameKind {
    /// Wire tag for this kind.
    pub fn to_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Barrier => 1,
            FrameKind::Term => 2,
            FrameKind::Heartbeat => 3,
            FrameKind::Query => 4,
            FrameKind::Reply => 5,
            FrameKind::Recover => 6,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Barrier),
            2 => Some(FrameKind::Term),
            3 => Some(FrameKind::Heartbeat),
            4 => Some(FrameKind::Query),
            5 => Some(FrameKind::Reply),
            6 => Some(FrameKind::Recover),
            _ => None,
        }
    }
}

/// Encodes one frame: length prefix, kind tag, payload.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let len = 1 + payload.len();
    assert!(len <= MAX_FRAME_LEN, "frame payload too large: {len}");
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(kind.to_u8());
    out.extend_from_slice(payload);
    out
}

/// A malformed byte stream (corrupt length or unknown kind tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`] or is zero.
    BadLength(u32),
    /// The kind tag is not a known [`FrameKind`].
    BadKind(u8),
    /// The length prefix exceeds the decoder's configured bound (a
    /// corruption guard: a flipped 4-byte prefix must not trigger a
    /// multi-GB allocation).
    Oversized {
        /// The announced frame length.
        len: u32,
        /// The decoder's configured maximum.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(l) => write!(f, "bad frame length {l}"),
            FrameError::BadKind(k) => write!(f, "bad frame kind {k}"),
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: length {len} > max {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so feeding many small
    /// chunks stays O(bytes).
    at: usize,
    /// Largest acceptable frame length; prefixes past this are rejected
    /// as [`FrameError::Oversized`] before any payload is buffered.
    max_len: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self { buf: Vec::new(), at: 0, max_len: MAX_FRAME_LEN }
    }
}

impl FrameDecoder {
    /// A fresh decoder accepting frames up to [`MAX_FRAME_LEN`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A decoder with a tighter length bound (clamped to
    /// [`MAX_FRAME_LEN`]). Transports size this from the job's L0 buffer
    /// config so a corrupt prefix cannot demand a giant allocation.
    pub fn with_max_len(max_len: usize) -> Self {
        Self { max_len: max_len.clamp(1, MAX_FRAME_LEN), ..Self::default() }
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.at > 0 && self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > (64 << 10).min(self.buf.len()) {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one has fully arrived.
    pub fn next_frame(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, FrameError> {
        let avail = self.buf.len() - self.at;
        if avail < 4 {
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.at..self.at + 4].try_into().expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 {
            return Err(FrameError::BadLength(len));
        }
        if len as usize > self.max_len {
            return Err(FrameError::Oversized { len, max: self.max_len as u32 });
        }
        let len = len as usize;
        if avail < 4 + len {
            return Ok(None);
        }
        let kind_byte = self.buf[self.at + 4];
        let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
        let payload = self.buf[self.at + 5..self.at + 4 + len].to_vec();
        self.at += 4 + len;
        Ok(Some((kind, payload)))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_one_frame() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(FrameKind::Data, b"hello"));
        assert_eq!(
            dec.next_frame().unwrap(),
            Some((FrameKind::Data, b"hello".to_vec()))
        );
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn empty_payload_frame() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(FrameKind::Barrier, &[]));
        assert_eq!(dec.next_frame().unwrap(), Some((FrameKind::Barrier, vec![])));
    }

    #[test]
    fn byte_at_a_time() {
        let wire = encode_frame(FrameKind::Term, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut dec = FrameDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            dec.feed(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some((FrameKind::Term, vec![1, 2, 3, 4, 5, 6, 7, 8])));
            }
        }
    }

    #[test]
    fn rejects_bad_kind() {
        let mut wire = encode_frame(FrameKind::Data, b"x");
        wire[4] = 9;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::BadKind(9)));
    }

    #[test]
    fn rejects_zero_length() {
        let mut dec = FrameDecoder::new();
        dec.feed(&0u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::BadLength(0)));
    }

    #[test]
    fn rejects_oversized_prefix_before_payload_arrives() {
        // A corrupt 4-byte prefix announcing a huge frame fails as soon
        // as the prefix is complete — no payload bytes are demanded or
        // buffered first.
        let mut dec = FrameDecoder::with_max_len(1024);
        dec.feed(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized { len: u32::MAX, max: 1024 })
        );
        assert!(dec.pending_bytes() <= 4, "nothing beyond the prefix buffered");
    }

    #[test]
    fn max_len_bound_is_inclusive() {
        let mut dec = FrameDecoder::with_max_len(6);
        // len = 6: kind byte + 5-byte payload — exactly at the bound.
        dec.feed(&encode_frame(FrameKind::Data, b"01234"));
        assert_eq!(
            dec.next_frame().unwrap(),
            Some((FrameKind::Data, b"01234".to_vec()))
        );
        // One byte more is rejected.
        let mut dec = FrameDecoder::with_max_len(6);
        dec.feed(&encode_frame(FrameKind::Data, b"012345"));
        assert_eq!(dec.next_frame(), Err(FrameError::Oversized { len: 7, max: 6 }));
    }

    // Any sequence of frames, split at arbitrary points, decodes back to
    // the same sequence.
    proptest! {
        #[test]
        fn split_read_roundtrip(
            frames in prop::collection::vec(
                (0u8..7, prop::collection::vec(any::<u8>(), 0..300)),
                1..20,
            ),
            splits in prop::collection::vec(1usize..97, 1..40),
        ) {
            let frames: Vec<(FrameKind, Vec<u8>)> = frames
                .into_iter()
                .map(|(k, p)| (FrameKind::from_u8(k).unwrap(), p))
                .collect();
            let mut wire = Vec::new();
            for (k, p) in &frames {
                wire.extend_from_slice(&encode_frame(*k, p));
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut at = 0usize;
            let mut si = 0usize;
            while at < wire.len() {
                let step = splits[si % splits.len()].min(wire.len() - at);
                si += 1;
                dec.feed(&wire[at..at + step]);
                at += step;
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            prop_assert_eq!(got, frames);
            prop_assert_eq!(dec.pending_bytes(), 0);
        }
    }
}
