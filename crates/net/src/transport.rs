//! The [`Transport`] trait and the four-counter termination detector.
//!
//! A transport is one rank's endpoint in an N-rank job. Data frames are
//! L0 `PUT` buffers (or post-quiescence gather chunks); the transport
//! moves them without inspecting them. Besides nonblocking `send` /
//! `try_recv` it offers two collectives the drain protocol needs:
//!
//! * [`Transport::barrier`] — a full barrier, used at epoch boundaries
//!   (after quiescence, around the final gather);
//! * [`Transport::termination_round`] — one round of four-counter
//!   (Mattern/Dijkstra-style) termination detection: every rank
//!   contributes its monotone totals of data frames *sent* and data
//!   frames *received*, the round computes the global sums `(S, R)`, and
//!   the job is quiescent exactly when two consecutive rounds observe
//!   `S == R` with unchanged totals. A single balanced snapshot is not
//!   enough: a frame can be sent after one rank contributed and received
//!   before another did, making a transient snapshot look balanced; the
//!   confirming round proves no traffic moved in between.
//!
//! Receives are counted when the *application* pulls a frame with
//! `try_recv`, not when bytes land in an OS buffer: an unprocessed
//! conveyor buffer can still generate relay traffic (2D/3D routing), so
//! only consumed frames may count toward quiescence.
//!
//! Every fallible operation returns [`NetResult`]: a dead peer, a corrupt
//! stream, or a deadline overrun surfaces as a typed, rank-attributed
//! [`crate::NetError`] instead of a panic or an indefinite hang.
//! Deadlines and retry/backoff behavior come from [`NetTuning`].

use std::time::Duration;

use dakc_sim::telemetry::MetricsRegistry;

use crate::error::NetResult;
use crate::frame::FrameKind;

/// Rank id within a job (dense, `0..num_ranks`).
pub type Rank = usize;

/// Deadlines and retry policy for a transport endpoint.
///
/// `--net-timeout` maps onto the two deadline fields and `--net-retries`
/// onto `retries`; backoff between retries is capped exponential with
/// deterministic jitter (seeded from rank and attempt, so reruns are
/// reproducible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetTuning {
    /// How long connection setup (dial, accept, rendezvous polling) may
    /// retry before failing with a `Timeout`.
    pub connect_timeout: Duration,
    /// How long a collective wait (barrier, termination round, gather
    /// stall, drain quiescence) may sit without progress before failing
    /// with a `Timeout` carrying the four-counter diagnostic dump.
    pub collective_timeout: Duration,
    /// Retry budget for transient send stalls (`WouldBlock`/`TimedOut`).
    pub retries: u32,
    /// First backoff step; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for NetTuning {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(30),
            collective_timeout: Duration::from_secs(120),
            retries: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

impl NetTuning {
    /// Sets both deadlines from one `--net-timeout` value.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self.collective_timeout = timeout;
        self
    }

    /// Sets the transient-stall retry budget (`--net-retries`).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Backoff before retry `attempt` (1-based): capped exponential with
    /// deterministic jitter in `[delay/2, delay]`, salted so concurrent
    /// ranks do not stampede in lockstep.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.backoff_base.as_micros().max(1) as u64;
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.backoff_cap.as_micros().max(1) as u64);
        let jitter = crate::chaos::splitmix64(salt ^ u64::from(attempt)) % (capped / 2 + 1);
        Duration::from_micros(capped / 2 + jitter)
    }
}

/// Per-peer traffic counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PeerStats {
    /// Data frames sent to this peer.
    pub frames_sent: u64,
    /// Data payload bytes sent to this peer (framing overhead excluded).
    pub bytes_sent: u64,
    /// Data frames received from this peer.
    pub frames_recv: u64,
    /// Data payload bytes received from this peer.
    pub bytes_recv: u64,
}

/// Cap on the [`NetStats::notes`] buffer: a run melting down in a retry
/// storm must not grow the note log without bound.
pub const NOTES_CAP: usize = 4096;

/// A noteworthy transport incident, kept for the flight recorder.
///
/// Transports sit below [`crate::NetFabric`] and have no trace sink of
/// their own, so they append notes here; the fabric drains them with
/// [`NetStats::take_notes`] at its service points and re-records them as
/// wall-clock trace instants. Plain counters (`retries`,
/// `injected_faults`) are unaffected — notes are the per-incident detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetNote {
    /// A send stalled and backed off before retrying.
    Retry {
        /// Destination rank of the stalled frame.
        dest: Rank,
        /// 1-based retry attempt.
        attempt: u32,
        /// Backoff slept before the retry, in microseconds.
        delay_us: u64,
    },
    /// A chaos fault was injected (name from the chaos fault vocabulary:
    /// `drop`/`dup`/`delay`/`truncate`/`die`/`freeze`/`corrupt`).
    Fault {
        /// Static fault name.
        kind: &'static str,
    },
}

/// Transport-level counters, folded into the metrics registry at the end
/// of a run (SimReport-style export from real processes).
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    /// Per-peer traffic (indexed by rank; includes self-sends).
    pub peers: Vec<PeerStats>,
    /// Sends that blocked noticeably on the OS socket (backpressure).
    pub send_stalls: u64,
    /// Termination-detection rounds executed.
    pub term_rounds: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Retries performed (connection attempts and transient send stalls).
    pub retries: u64,
    /// Chaos faults injected by a wrapping [`crate::ChaosTransport`].
    pub injected_faults: u64,
    /// Incident notes awaiting pickup by the fabric's flight recorder
    /// (capped at [`NOTES_CAP`]; overflow counted in `notes_dropped`).
    pub notes: Vec<NetNote>,
    /// Notes discarded because the buffer was full.
    pub notes_dropped: u64,
    /// Peer reconnections completed after a recoverable death
    /// (`--recover` runs only).
    pub recoveries: u64,
    /// Frames discarded because they carried a stale incarnation tag
    /// (traffic from a rank's previous life, after its respawn).
    pub stale_frames: u64,
    /// Sends silently dropped because the destination was dead and
    /// awaiting respawn (the replay resends their content).
    pub masked_sends: u64,
}

impl NetStats {
    /// Fresh stats for a job of `n` ranks.
    pub fn new(n: usize) -> Self {
        Self {
            peers: vec![PeerStats::default(); n],
            ..Self::default()
        }
    }

    /// Total data frames sent (the termination detector's `sent` counter).
    pub fn frames_sent(&self) -> u64 {
        self.peers.iter().map(|p| p.frames_sent).sum()
    }

    /// Total data frames received at the application.
    pub fn frames_recv(&self) -> u64 {
        self.peers.iter().map(|p| p.frames_recv).sum()
    }

    /// Total data payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.peers.iter().map(|p| p.bytes_sent).sum()
    }

    /// Appends an incident note, dropping (and counting) it when the
    /// buffer already holds [`NOTES_CAP`] entries.
    pub fn note(&mut self, note: NetNote) {
        if self.notes.len() < NOTES_CAP {
            self.notes.push(note);
        } else {
            self.notes_dropped += 1;
        }
    }

    /// Drains the pending incident notes (oldest first).
    pub fn take_notes(&mut self) -> Vec<NetNote> {
        std::mem::take(&mut self.notes)
    }

    /// Folds these counters into `m`, namespaced per rank so per-rank
    /// registries merge without collisions on the launcher.
    pub fn fold_into(&self, me: Rank, m: &mut MetricsRegistry) {
        m.inc("net.frames_sent", self.frames_sent());
        m.inc("net.frames_recv", self.frames_recv());
        m.inc("net.bytes_sent", self.bytes_sent());
        m.inc(
            "net.bytes_recv",
            self.peers.iter().map(|p| p.bytes_recv).sum(),
        );
        m.inc("net.send_stalls", self.send_stalls);
        m.inc("net.term_rounds", self.term_rounds);
        m.inc("net.barriers", self.barriers);
        m.inc("net.retries", self.retries);
        m.inc("net.injected_faults", self.injected_faults);
        // Recovery counters only exist on runs that recovered something,
        // keeping the default mode's metrics export unchanged.
        if self.recoveries > 0 {
            m.inc("net.recoveries", self.recoveries);
        }
        if self.stale_frames > 0 {
            m.inc("net.stale_frames", self.stale_frames);
        }
        if self.masked_sends > 0 {
            m.inc("net.masked_sends", self.masked_sends);
        }
        m.inc(&format!("net.rank{me}.bytes_sent"), self.bytes_sent());
        m.inc(&format!("net.rank{me}.frames_sent"), self.frames_sent());
        m.inc(
            &format!("net.rank{me}.bytes_recv"),
            self.peers.iter().map(|p| p.bytes_recv).sum(),
        );
        m.inc(&format!("net.rank{me}.frames_recv"), self.frames_recv());
        m.inc(&format!("net.rank{me}.send_stalls"), self.send_stalls);
        m.inc(&format!("net.rank{me}.retries"), self.retries);
        m.inc(&format!("net.rank{me}.injected_faults"), self.injected_faults);
        // Per-peer communication matrix row: every peer gets an entry,
        // zeros included, so the gather-merged registry always carries the
        // full P×P matrix (`dakc analyze` and `--metrics` read it to spot
        // skew without reconstructing it from trace events).
        for (peer, p) in self.peers.iter().enumerate() {
            m.inc(&format!("net.rank{me}.to{peer}.frames_sent"), p.frames_sent);
            m.inc(&format!("net.rank{me}.to{peer}.bytes_sent"), p.bytes_sent);
        }
    }
}

/// A completed peer recovery: the peer's new incarnation reconnected and
/// the four-counter accounting was rebased. The caller must now purge the
/// peer's prior deliveries and replay its owner-filtered input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// The rank that came back.
    pub rank: Rank,
    /// Its new incarnation number.
    pub incarnation: u32,
}

/// One rank's endpoint: nonblocking data-frame delivery plus the two
/// collectives the drain protocol needs. Every operation that can observe
/// a wire failure returns [`NetResult`].
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> Rank;

    /// Total ranks in the job.
    fn num_ranks(&self) -> usize;

    /// Queues one data frame for `dest` (self-sends allowed). Nonblocking:
    /// bytes may sit in the per-peer send buffer until [`Transport::flush`].
    fn send(&mut self, dest: Rank, frame: &[u8]) -> NetResult<()>;

    /// Queues one frame tagged with an application-level `kind`
    /// ([`FrameKind::Query`] / [`FrameKind::Reply`] for the serve
    /// protocol). Backends with a framing layer put the tag on the wire;
    /// in-process backends have no frame header and deliver the payload
    /// as a plain data frame — receivers must therefore key on the
    /// payload's own opcode, with the wire tag as transport-level
    /// classification only. Counts as a data frame in the four-counter
    /// totals either way.
    fn send_kind(&mut self, dest: Rank, _kind: FrameKind, frame: &[u8]) -> NetResult<()> {
        self.send(dest, frame)
    }

    /// Pulls the next arrived data frame, if any. Frames from one peer
    /// arrive in send order; no order holds across peers. Surfaces a
    /// corrupt peer stream as a typed error.
    fn try_recv(&mut self) -> NetResult<Option<(Rank, Vec<u8>)>>;

    /// Pushes every buffered send to the wire.
    fn flush(&mut self) -> NetResult<()>;

    /// Blocks until every rank has entered this barrier, or fails fast
    /// when a straggler is known dead / the deadline passes.
    fn barrier(&mut self) -> NetResult<()>;

    /// Runs one collective termination-detection round (flushing first)
    /// and returns `true` when the job is quiescent. All ranks must call
    /// this the same number of times; the decision is identical on all
    /// ranks in the same round.
    fn termination_round(&mut self) -> NetResult<bool>;

    /// Traffic counters so far.
    fn stats(&self) -> &NetStats;

    /// Mutable counters — used by fault-injection wrappers to keep the
    /// four-counter totals consistent with the faults they inject (a
    /// "lost on the wire" frame still counts as sent; a wire-level
    /// duplicate counts as one application send).
    fn stats_mut(&mut self) -> &mut NetStats;

    /// The global `(sent, received)` totals of the most recent
    /// termination round, if any — for timeout diagnostics.
    fn last_global_totals(&self) -> Option<(u64, u64)> {
        None
    }

    /// First peer known to have gone away, if the backend can tell.
    fn first_dead_peer(&self) -> Option<Rank> {
        None
    }

    /// Whether `rank`'s connection is known to have ended (in-process
    /// backends cannot tell and report `false`).
    fn peer_dead(&self, _rank: Rank) -> bool {
        false
    }

    /// Writes deliberately malformed bytes to `dest`'s wire, if the
    /// backend has one (chaos hook for corrupt-frame testing; no-op on
    /// in-process backends, which have no framing layer to corrupt).
    fn send_corrupt(&mut self, _dest: Rank) -> NetResult<()> {
        Ok(())
    }

    /// Arms (or disarms) peer-death recovery. While armed, a recoverable
    /// peer death (clean EOF, reset) is absorbed instead of surfaced:
    /// sends to the dead peer are masked and [`Transport::poll_recovery`]
    /// waits for the respawned incarnation to dial back in. Backends
    /// without a recovery path ignore this and keep failing fast.
    fn arm_recovery(&mut self, _armed: bool) {}

    /// Whether any peer is currently dead and awaiting respawn.
    fn recovery_pending(&self) -> bool {
        false
    }

    /// Accepts a respawned peer's reconnection, if one is ready: rewires
    /// the peer's connection, voids its previous incarnation's frame
    /// totals from the four-counter accounting, and resets the
    /// termination-round state. Errors when a pending respawn overruns
    /// the collective deadline. Backends without a recovery path always
    /// report `None`.
    fn poll_recovery(&mut self) -> NetResult<Option<crate::transport::Recovered>> {
        Ok(None)
    }

    /// One-line protocol-state dump for timeout diagnostics: the
    /// four-counter state plus whatever the backend knows about stuck
    /// peers.
    fn diagnostics(&self) -> String {
        let s = self.stats();
        format!(
            "rank {} of {}: sent={} recv={} rounds={} barriers={} last_global={:?}",
            self.rank(),
            self.num_ranks(),
            s.frames_sent(),
            s.frames_recv(),
            s.term_rounds,
            s.barriers,
            self.last_global_totals(),
        )
    }
}

/// The per-rank decision state of the four-counter protocol: remembers the
/// previous round's global `(sent, received)` totals and declares
/// quiescence on a balanced, unchanged repeat.
#[derive(Debug, Default, Clone)]
pub struct TermDetector {
    prev: Option<(u64, u64)>,
}

impl TermDetector {
    /// A fresh detector (no rounds seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one round's global totals; `true` means quiescent.
    pub fn decide(&mut self, sent: u64, received: u64) -> bool {
        let quiescent = sent == received && self.prev == Some((sent, received));
        self.prev = Some((sent, received));
        quiescent
    }

    /// The most recent round's global totals, if any.
    pub fn last(&self) -> Option<(u64, u64)> {
        self.prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_identical_balanced_rounds() {
        let mut d = TermDetector::new();
        assert!(!d.decide(0, 0), "first round never decides");
        assert!(d.decide(0, 0), "confirmed idle");
    }

    #[test]
    fn unbalanced_rounds_never_decide() {
        let mut d = TermDetector::new();
        assert!(!d.decide(5, 3));
        assert!(!d.decide(5, 3), "unchanged but unbalanced");
        assert!(!d.decide(5, 5), "balanced but changed since last round");
        assert!(d.decide(5, 5));
        assert_eq!(d.last(), Some((5, 5)));
    }

    #[test]
    fn progress_resets_confirmation() {
        let mut d = TermDetector::new();
        assert!(!d.decide(2, 2));
        assert!(!d.decide(4, 4), "totals moved: not quiescent yet");
        assert!(d.decide(4, 4));
    }

    #[test]
    fn fold_into_exports_full_peer_matrix_row() {
        let mut s = NetStats::new(3);
        s.peers[1].frames_sent = 4;
        s.peers[1].bytes_sent = 400;
        let mut m = MetricsRegistry::new();
        s.fold_into(2, &mut m);
        assert_eq!(m.counter("net.rank2.to1.frames_sent"), 4);
        assert_eq!(m.counter("net.rank2.to1.bytes_sent"), 400);
        // Zero cells are still materialized: the matrix row is complete.
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        for peer in 0..3 {
            assert!(names.contains(&format!("net.rank2.to{peer}.bytes_sent").as_str()));
            assert!(names.contains(&format!("net.rank2.to{peer}.frames_sent").as_str()));
        }
        assert_eq!(m.counter("net.rank2.to0.frames_sent"), 0);
    }

    #[test]
    fn stats_totals_sum_peers() {
        let mut s = NetStats::new(3);
        s.peers[0].frames_sent = 2;
        s.peers[2].frames_sent = 3;
        s.peers[1].bytes_sent = 100;
        assert_eq!(s.frames_sent(), 5);
        assert_eq!(s.bytes_sent(), 100);
    }

    #[test]
    fn notes_are_capped_and_drain_in_order() {
        let mut s = NetStats::new(2);
        for i in 0..(NOTES_CAP as u64 + 10) {
            s.note(NetNote::Retry { dest: 1, attempt: 1, delay_us: i });
        }
        assert_eq!(s.notes.len(), NOTES_CAP);
        assert_eq!(s.notes_dropped, 10);
        let drained = s.take_notes();
        assert_eq!(drained.len(), NOTES_CAP);
        assert_eq!(drained[0], NetNote::Retry { dest: 1, attempt: 1, delay_us: 0 });
        assert!(s.notes.is_empty(), "drain leaves the buffer empty");
        s.note(NetNote::Fault { kind: "drop" });
        assert_eq!(s.take_notes(), vec![NetNote::Fault { kind: "drop" }]);
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let t = NetTuning::default();
        for attempt in 1..12 {
            let a = t.backoff(attempt, 7);
            let b = t.backoff(attempt, 7);
            assert_eq!(a, b, "same salt and attempt must agree");
            assert!(a <= t.backoff_cap, "attempt {attempt}: {a:?} over cap");
            assert!(a >= t.backoff_base / 2, "attempt {attempt}: {a:?} under floor");
        }
        // Grows (until the cap) as attempts climb.
        assert!(t.backoff(6, 7) >= t.backoff(1, 7));
    }
}
