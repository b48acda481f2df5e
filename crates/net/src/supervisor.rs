//! Launch supervision: worker heartbeats and the launcher-side monitor.
//!
//! Every spawned worker dials the launcher's supervisor socket and an
//! autonomous sender thread emits one [`Heartbeat`] frame per interval —
//! carrying the worker's rank, a sequence number, its current [`Phase`],
//! and its transport frame totals. The launcher's [`Supervisor`] accepts
//! those connections, tracks per-rank freshness, and lets the launch loop
//! answer two questions without blocking on `wait()`: *is any rank silent
//! past the deadline* (a frozen or livelocked worker that will never exit
//! on its own), and *what was everyone doing* when a rank failed (the
//! per-rank diagnostic report).
//!
//! Heartbeats ride their own TCP connection, not the data mesh: a wedged
//! mesh is precisely the condition heartbeats must survive to report.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::frame::{encode_frame, FrameDecoder, FrameKind};
use crate::transport::Rank;

/// Where in the run a worker currently is (reported in heartbeats and in
/// the supervisor's diagnostic report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Connecting the mesh / rendezvous.
    Setup = 0,
    /// Parsing reads and feeding the cascade.
    Parse = 1,
    /// Draining conveyors to quiescence.
    Drain = 2,
    /// Local phase 2 (sort and count).
    Count = 3,
    /// Streaming results to rank 0.
    Gather = 4,
    /// Finished.
    Done = 5,
    /// Exited on an error; the heartbeat's `blame` field names the rank
    /// its typed error points at (an obituary).
    Failed = 6,
    /// Resident in a `dakc serve` request loop — the heartbeat doubles
    /// as the service health check.
    Serve = 7,
}

impl Phase {
    /// Parses the wire tag.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Phase::Setup),
            1 => Some(Phase::Parse),
            2 => Some(Phase::Drain),
            3 => Some(Phase::Count),
            4 => Some(Phase::Gather),
            5 => Some(Phase::Done),
            6 => Some(Phase::Failed),
            7 => Some(Phase::Serve),
            _ => None,
        }
    }

    /// Human name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Parse => "parse",
            Phase::Drain => "drain",
            Phase::Count => "count",
            Phase::Gather => "gather",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Serve => "serve",
        }
    }
}

/// Wire value of [`Heartbeat::blame`] when the beat blames nobody.
pub const NO_BLAME: u32 = u32::MAX;

/// One liveness beacon.
/// Wire payload (45 bytes, little-endian):
/// `[rank u32][seq u64][phase u8][frames_sent u64][frames_recv u64]
/// [retries u64][blame u32][incarnation u32]`. Launcher and workers
/// always run the same binary, so the layout can grow without a version
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Sender's rank.
    pub rank: u32,
    /// Monotone per-sender sequence number.
    pub seq: u64,
    /// What the worker was doing.
    pub phase: Phase,
    /// Transport data frames sent so far.
    pub frames_sent: u64,
    /// Transport data frames received so far.
    pub frames_recv: u64,
    /// Transport send retries so far (backpressure indicator for the live
    /// `--status` table).
    pub retries: u64,
    /// Whom an obituary ([`Phase::Failed`]) blames: the rank the worker's
    /// typed error points at, or [`NO_BLAME`]. Ordinary beats carry
    /// [`NO_BLAME`].
    pub blame: u32,
    /// The sender's incarnation (0 for the first spawn, bumped per
    /// `--recover` respawn). The supervisor drops beats — including
    /// obituaries — from incarnations older than the one it expects, so
    /// a straggling obituary cannot re-convict a rank it already
    /// respawned.
    pub incarnation: u32,
}

impl Heartbeat {
    /// Encodes the 45-byte wire payload.
    pub fn encode(&self) -> [u8; 45] {
        let mut out = [0u8; 45];
        out[..4].copy_from_slice(&self.rank.to_le_bytes());
        out[4..12].copy_from_slice(&self.seq.to_le_bytes());
        out[12] = self.phase as u8;
        out[13..21].copy_from_slice(&self.frames_sent.to_le_bytes());
        out[21..29].copy_from_slice(&self.frames_recv.to_le_bytes());
        out[29..37].copy_from_slice(&self.retries.to_le_bytes());
        out[37..41].copy_from_slice(&self.blame.to_le_bytes());
        out[41..45].copy_from_slice(&self.incarnation.to_le_bytes());
        out
    }

    /// Decodes a wire payload.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        if payload.len() != 45 {
            return Err(format!("heartbeat payload is {} bytes, want 45", payload.len()));
        }
        let u32le = |r: std::ops::Range<usize>| {
            u32::from_le_bytes(payload[r].try_into().expect("4 bytes"))
        };
        let u64le = |r: std::ops::Range<usize>| {
            u64::from_le_bytes(payload[r].try_into().expect("8 bytes"))
        };
        Ok(Self {
            rank: u32le(0..4),
            seq: u64le(4..12),
            phase: Phase::from_u8(payload[12])
                .ok_or_else(|| format!("bad heartbeat phase {}", payload[12]))?,
            frames_sent: u64le(13..21),
            frames_recv: u64le(21..29),
            retries: u64le(29..37),
            blame: u32le(37..41),
            incarnation: u32le(41..45),
        })
    }
}

/// Synchronously delivers one obituary beat over a fresh connection: the
/// worker is about to exit on `error`-naming-`blame`, and the regular
/// sender thread's next interval may never come. Best-effort — a worker
/// that cannot reach the supervisor still exits nonzero and is caught by
/// the exit poll.
pub fn send_obituary(addr: SocketAddr, rank: Rank, blame: Option<Rank>) -> std::io::Result<()> {
    send_obituary_inc(addr, rank, blame, 0)
}

/// [`send_obituary`] from a specific incarnation (respawned workers file
/// obituaries under their own epoch so the supervisor can tell a fresh
/// failure from a stale one).
pub fn send_obituary_inc(
    addr: SocketAddr,
    rank: Rank,
    blame: Option<Rank>,
    incarnation: u32,
) -> std::io::Result<()> {
    let hb = Heartbeat {
        rank: rank as u32,
        seq: u64::MAX,
        phase: Phase::Failed,
        frames_sent: 0,
        frames_recv: 0,
        retries: 0,
        blame: blame.map_or(NO_BLAME, |r| r as u32),
        incarnation,
    };
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&encode_frame(FrameKind::Heartbeat, &hb.encode()))?;
    stream.flush()
}

/// The worker-side state a heartbeat sender samples: updated by the run
/// driver (phase transitions, traffic totals), read by the sender thread.
#[derive(Debug, Default)]
pub struct HeartbeatState {
    phase: AtomicU8,
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    retries: AtomicU64,
    beats: AtomicU64,
    incarnation: AtomicU32,
}

impl HeartbeatState {
    /// Fresh state in [`Phase::Setup`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a phase transition.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Relaxed)).unwrap_or(Phase::Setup)
    }

    /// Records the transport's current frame totals and retry count.
    pub fn record_traffic(&self, sent: u64, recv: u64, retries: u64) {
        self.frames_sent.store(sent, Ordering::Relaxed);
        self.frames_recv.store(recv, Ordering::Relaxed);
        self.retries.store(retries, Ordering::Relaxed);
    }

    /// How many heartbeats have been sent from this state.
    pub fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }

    /// Records this worker's incarnation (0 unless respawned).
    pub fn set_incarnation(&self, inc: u32) {
        self.incarnation.store(inc, Ordering::Relaxed);
    }

    /// The recorded incarnation.
    pub fn incarnation(&self) -> u32 {
        self.incarnation.load(Ordering::Relaxed)
    }
}

/// The worker-side sender thread: one heartbeat per interval until
/// dropped. Muting the shared flag silences it without stopping it (how a
/// chaos `freeze` simulates a silently hung worker).
#[derive(Debug)]
pub struct HeartbeatSender {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatSender {
    /// Dials the supervisor at `addr` and starts beating every
    /// `interval`.
    pub fn spawn(
        addr: SocketAddr,
        rank: Rank,
        state: Arc<HeartbeatState>,
        interval: Duration,
        mute: Arc<AtomicBool>,
    ) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("dakc-hb-{rank}"))
            .spawn(move || {
                let mut seq = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    if !mute.load(Ordering::Relaxed) {
                        let hb = Heartbeat {
                            rank: rank as u32,
                            seq,
                            phase: state.phase(),
                            frames_sent: state.frames_sent.load(Ordering::Relaxed),
                            frames_recv: state.frames_recv.load(Ordering::Relaxed),
                            retries: state.retries.load(Ordering::Relaxed),
                            blame: NO_BLAME,
                            incarnation: state.incarnation.load(Ordering::Relaxed),
                        };
                        seq += 1;
                        let wire = encode_frame(FrameKind::Heartbeat, &hb.encode());
                        if stream.write_all(&wire).and_then(|()| stream.flush()).is_err() {
                            // Supervisor went away; nothing left to tell.
                            return;
                        }
                        state.beats.fetch_add(1, Ordering::Relaxed);
                    }
                    // Parked, not asleep: `drop` unparks, so a worker's
                    // exit never waits out the interval.
                    let next = Instant::now() + interval;
                    while !stop2.load(Ordering::Relaxed) && Instant::now() < next {
                        std::thread::park_timeout(next.saturating_duration_since(Instant::now()));
                    }
                }
            })?;
        Ok(Self { stop, handle: Some(handle) })
    }
}

impl Drop for HeartbeatSender {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// What the supervisor knows about one rank.
#[derive(Debug, Clone, Default)]
pub struct PeerHealth {
    /// When the last heartbeat arrived (`None`: never connected).
    pub last_beat: Option<Instant>,
    /// The last heartbeat's contents.
    pub last: Option<Heartbeat>,
    /// The lowest incarnation whose beats are still current; beats and
    /// obituaries tagged with an older incarnation are dropped as stale.
    pub expected_inc: u32,
}

/// The launcher-side monitor: accepts worker heartbeat connections and
/// tracks per-rank freshness.
#[derive(Debug)]
pub struct Supervisor {
    peers: Arc<Mutex<Vec<PeerHealth>>>,
    stop: Arc<AtomicBool>,
    started: Instant,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Binds a localhost listener for `n` ranks and starts accepting.
    /// Returns the monitor and the address workers should dial.
    pub fn bind(n: usize) -> std::io::Result<(Self, SocketAddr)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let peers = Arc::new(Mutex::new(vec![PeerHealth::default(); n]));
        let stop = Arc::new(AtomicBool::new(false));
        let peers2 = Arc::clone(&peers);
        let stop2 = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name("dakc-supervisor".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let peers = Arc::clone(&peers2);
                            let stop = Arc::clone(&stop2);
                            // Connection readers are detached; they exit
                            // on stop, EOF, or a corrupt stream.
                            let _ = std::thread::Builder::new()
                                .name("dakc-supervisor-conn".to_string())
                                .spawn(move || heartbeat_conn_loop(stream, peers, stop));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // `drop` unparks: the launcher's exit does not
                            // wait out the poll.
                            std::thread::park_timeout(Duration::from_millis(20));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => return,
                    }
                }
            })?;
        Ok((
            Self { peers, stop, started: Instant::now(), accept_handle: Some(accept_handle) },
            addr,
        ))
    }

    /// Records that `rank` was respawned under `incarnation`: its sealed
    /// obituary (if any) is cleared, its staleness clock restarts with a
    /// fresh grace period, and any later beat or obituary from an older
    /// incarnation is ignored.
    pub fn expect_respawn(&mut self, rank: Rank, incarnation: u32) {
        let mut peers = self.peers.lock().expect("supervisor peers");
        if let Some(p) = peers.get_mut(rank) {
            p.expected_inc = incarnation;
            p.last = None;
            p.last_beat = Some(Instant::now());
        }
    }

    /// The rank whose last heartbeat is the stalest, with its silence
    /// duration, provided that silence exceeds `limit`. Ranks that never
    /// connected are aged from the supervisor's start (startup grace).
    pub fn stalest(&self, limit: Duration) -> Option<(Rank, Duration)> {
        let peers = self.peers.lock().expect("supervisor peers");
        peers
            .iter()
            .enumerate()
            .map(|(rank, p)| {
                let age = p.last_beat.unwrap_or(self.started).elapsed();
                (rank, age)
            })
            .filter(|&(_, age)| age > limit)
            .max_by_key(|&(_, age)| age)
    }

    /// Total heartbeats received across all ranks.
    pub fn beats_received(&self) -> u64 {
        let peers = self.peers.lock().expect("supervisor peers");
        peers.iter().filter_map(|p| p.last.map(|h| h.seq + 1)).sum()
    }

    /// A copy of the per-rank health table.
    pub fn snapshot(&self) -> Vec<PeerHealth> {
        self.peers.lock().expect("supervisor peers").clone()
    }

    /// The rank the obituaries point at: each failed worker's typed error
    /// blames a rank (a dying rank blames itself via `Injected`, its
    /// peers blame it via `PeerDisconnected`); the majority verdict
    /// survives cascade noise, where a victim's error names another
    /// victim rather than the root cause. Ties break toward the
    /// lowest-numbered rank. `None` when no obituary blames anyone.
    pub fn blamed(&self) -> Option<Rank> {
        let peers = self.peers.lock().expect("supervisor peers");
        let mut votes: Vec<(Rank, usize)> = Vec::new();
        for hb in peers.iter().filter_map(|p| p.last) {
            if hb.phase == Phase::Failed && hb.blame != NO_BLAME {
                let blame = hb.blame as Rank;
                match votes.iter_mut().find(|(r, _)| *r == blame) {
                    Some((_, n)) => *n += 1,
                    None => votes.push((blame, 1)),
                }
            }
        }
        votes.into_iter().max_by_key(|&(r, n)| (n, std::cmp::Reverse(r))).map(|(r, _)| r)
    }

    /// The per-rank diagnostic report printed when a launch fails: one
    /// line per rank with phase, sequence, frame totals, and heartbeat
    /// age; ranks silent past `stale_limit` are marked `STALE`.
    pub fn report(&self, stale_limit: Duration) -> String {
        let peers = self.peers.lock().expect("supervisor peers");
        let mut out = String::new();
        for (rank, p) in peers.iter().enumerate() {
            let age = p.last_beat.unwrap_or(self.started).elapsed();
            let stale = if age > stale_limit { "  STALE" } else { "" };
            match &p.last {
                Some(h) => {
                    let blames = if h.phase == Phase::Failed && h.blame != NO_BLAME {
                        format!(" blames=rank {}", h.blame)
                    } else {
                        String::new()
                    };
                    out.push_str(&format!(
                        "  rank {rank}: phase={}{blames} sent={} recv={} retries={} last_beat={:.1}s ago{stale}\n",
                        h.phase.name(),
                        h.frames_sent,
                        h.frames_recv,
                        h.retries,
                        age.as_secs_f64(),
                    ));
                }
                None => out.push_str(&format!(
                    "  rank {rank}: no heartbeat ever received ({:.1}s since launch){stale}\n",
                    age.as_secs_f64(),
                )),
            }
        }
        out
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// Reads heartbeat frames off one worker connection until EOF, stop, or a
/// corrupt stream (corrupt heartbeats are dropped, not fatal: supervision
/// must never take a job down on its own).
fn heartbeat_conn_loop(
    stream: TcpStream,
    peers: Arc<Mutex<Vec<PeerHealth>>>,
    stop: Arc<AtomicBool>,
) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    let mut dec = FrameDecoder::with_max_len(1 << 10);
    let mut buf = [0u8; 1 << 10];
    while !stop.load(Ordering::Relaxed) {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(k) => {
                dec.feed(&buf[..k]);
                loop {
                    match dec.next_frame() {
                        Ok(Some((FrameKind::Heartbeat, payload))) => {
                            if let Ok(hb) = Heartbeat::decode(&payload) {
                                let mut peers = peers.lock().expect("supervisor peers");
                                if let Some(p) = peers.get_mut(hb.rank as usize) {
                                    // Beats from an incarnation the rank
                                    // was already respawned past are
                                    // stale — including the previous
                                    // life's obituary.
                                    if hb.incarnation < p.expected_inc {
                                        continue;
                                    }
                                    p.last_beat = Some(Instant::now());
                                    // An obituary is final: a straggling
                                    // regular beat from the sender thread
                                    // must not erase it.
                                    let sealed =
                                        p.last.is_some_and(|h| h.phase == Phase::Failed);
                                    if !sealed || hb.phase == Phase::Failed {
                                        p.last = Some(hb);
                                    }
                                }
                            }
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => return,
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_roundtrip() {
        let hb = Heartbeat {
            rank: 3,
            seq: 41,
            phase: Phase::Drain,
            frames_sent: 1000,
            frames_recv: 998,
            retries: 6,
            blame: NO_BLAME,
            incarnation: 2,
        };
        assert_eq!(Heartbeat::decode(&hb.encode()).unwrap(), hb);
        assert!(Heartbeat::decode(&[0u8; 5]).is_err());
        let mut bad = hb.encode();
        bad[12] = 200;
        assert!(Heartbeat::decode(&bad).is_err(), "unknown phase tag");
        let ob = Heartbeat { phase: Phase::Failed, blame: 2, ..hb };
        assert_eq!(Heartbeat::decode(&ob.encode()).unwrap().blame, 2);
    }

    #[test]
    fn phase_tags_roundtrip() {
        for p in [
            Phase::Setup,
            Phase::Parse,
            Phase::Drain,
            Phase::Count,
            Phase::Gather,
            Phase::Done,
            Phase::Failed,
            Phase::Serve,
        ] {
            assert_eq!(Phase::from_u8(p as u8), Some(p));
        }
        assert_eq!(Phase::from_u8(8), None);
    }

    #[test]
    fn supervisor_sees_beats_and_staleness() {
        let (sup, addr) = Supervisor::bind(2).unwrap();
        let state = Arc::new(HeartbeatState::new());
        state.set_phase(Phase::Parse);
        state.record_traffic(7, 5, 2);
        let mute = Arc::new(AtomicBool::new(false));
        let sender = HeartbeatSender::spawn(
            addr,
            1,
            Arc::clone(&state),
            Duration::from_millis(10),
            Arc::clone(&mute),
        )
        .unwrap();

        // Rank 1's beat arrives and carries the sampled state.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = sup.snapshot();
            if let Some(hb) = snap[1].last {
                assert_eq!(hb.rank, 1);
                assert_eq!(hb.phase, Phase::Parse);
                assert_eq!((hb.frames_sent, hb.frames_recv, hb.retries), (7, 5, 2));
                break;
            }
            assert!(Instant::now() < deadline, "no heartbeat arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(state.beats() > 0);

        // Rank 0 never connected: it is the stalest once the grace runs
        // out, and the report marks it.
        std::thread::sleep(Duration::from_millis(30));
        let (rank, _) = sup.stalest(Duration::from_millis(20)).expect("rank 0 is silent");
        assert_eq!(rank, 0);
        let report = sup.report(Duration::from_millis(20));
        assert!(report.contains("rank 0: no heartbeat ever received"), "{report}");
        assert!(report.contains("phase=parse"), "{report}");

        // Muting the sender makes rank 1 stale too.
        mute.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(120));
        let stale_now: Vec<Rank> = (0..2)
            .filter_map(|_| sup.stalest(Duration::from_millis(100)).map(|(r, _)| r))
            .collect();
        assert!(!stale_now.is_empty());
        drop(sender);
    }

    #[test]
    fn obituaries_vote_out_the_root_cause() {
        let (sup, addr) = Supervisor::bind(4).unwrap();
        // Cascade after rank 2 dies: 2 blames itself (injected), 1 and 3
        // blame 2 (disconnect), 0 blames fellow-victim 1 — majority still
        // convicts rank 2.
        send_obituary(addr, 2, Some(2)).unwrap();
        send_obituary(addr, 1, Some(2)).unwrap();
        send_obituary(addr, 3, Some(2)).unwrap();
        send_obituary(addr, 0, Some(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let done = sup
                .snapshot()
                .iter()
                .filter(|p| p.last.is_some_and(|h| h.phase == Phase::Failed))
                .count();
            if done == 4 {
                break;
            }
            assert!(Instant::now() < deadline, "obituaries never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sup.blamed(), Some(2));
        let report = sup.report(Duration::from_secs(60));
        assert!(report.contains("rank 2: phase=failed blames=rank 2"), "{report}");

        // A straggling regular beat must not unseal rank 2's obituary.
        let state = Arc::new(HeartbeatState::new());
        let mute = Arc::new(AtomicBool::new(false));
        let sender = HeartbeatSender::spawn(
            addr,
            2,
            Arc::clone(&state),
            Duration::from_millis(5),
            mute,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        drop(sender);
        assert_eq!(sup.blamed(), Some(2), "obituary erased by a late beat");
    }

    /// Waits until `n` ranks have a sealed obituary registered.
    fn await_obituaries(sup: &Supervisor, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let done = sup
                .snapshot()
                .iter()
                .filter(|p| p.last.is_some_and(|h| h.phase == Phase::Failed))
                .count();
            if done >= n {
                return;
            }
            assert!(Instant::now() < deadline, "obituaries never arrived ({done}/{n})");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn tied_blame_votes_break_toward_lowest_rank() {
        let (sup, addr) = Supervisor::bind(2).unwrap();
        // Mutual accusation, one vote each: the verdict must still be
        // deterministic, and the tie-break convicts the lowest rank.
        send_obituary(addr, 0, Some(1)).unwrap();
        send_obituary(addr, 1, Some(0)).unwrap();
        await_obituaries(&sup, 2);
        assert_eq!(sup.blamed(), Some(0), "ties must break toward the lowest rank");
    }

    #[test]
    fn simultaneous_two_rank_death_convicts_deterministically() {
        let (sup, addr) = Supervisor::bind(4).unwrap();
        // Ranks 1 and 3 die at once, each blaming itself; each takes one
        // victim down with it. Two-vote tie between 1 and 3 → rank 1.
        send_obituary(addr, 1, Some(1)).unwrap();
        send_obituary(addr, 0, Some(1)).unwrap();
        send_obituary(addr, 3, Some(3)).unwrap();
        send_obituary(addr, 2, Some(3)).unwrap();
        await_obituaries(&sup, 4);
        assert_eq!(sup.blamed(), Some(1));
    }

    #[test]
    fn obituary_from_a_replaced_incarnation_is_ignored() {
        let (mut sup, addr) = Supervisor::bind(2).unwrap();
        // Rank 1's first life dies and is respawned as incarnation 1.
        send_obituary(addr, 1, Some(1)).unwrap();
        await_obituaries(&sup, 1);
        assert_eq!(sup.blamed(), Some(1));
        sup.expect_respawn(1, 1);
        assert_eq!(sup.blamed(), None, "respawn must clear the sealed obituary");
        assert!(sup.snapshot()[1].last_beat.is_some(), "staleness clock restarts");

        // A straggling obituary from the dead incarnation 0 (e.g. its
        // obituary thread losing the race with the respawn) is stale and
        // must not re-convict the fresh incarnation...
        send_obituary_inc(addr, 1, Some(1), 0).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(sup.blamed(), None, "stale-incarnation obituary resurrected the verdict");
        assert!(sup.snapshot()[1].last.is_none());

        // ...while the same obituary tagged with the current incarnation
        // counts as a fresh failure.
        send_obituary_inc(addr, 1, Some(1), 1).unwrap();
        await_obituaries(&sup, 1);
        assert_eq!(sup.blamed(), Some(1));
    }
}
