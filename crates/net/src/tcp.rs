//! [`Transport`] backend over `std::net::TcpStream`.
//!
//! Topology is a full mesh: rank `i` connects to every lower rank and
//! accepts from every higher rank, identifying itself with a 4-byte rank
//! hello, so each socket's peer is known up front. Per peer the endpoint
//! keeps a send-side [`BufWriter`] of [`SOCKET_BUF_BYTES`] (or one L0
//! buffer, if that is larger) that coalesces many L0 `PUT`s into one
//! `write` — the L0 idea applied to the real wire — and a reader thread
//! that reads as much per syscall, decodes frames incrementally and
//! pushes them onto a shared inbox channel. Buffered frames reach the wire
//! when the buffer fills, at every collective (`flush`, `barrier`,
//! `termination_round`) and when `try_recv` finds the rank idle.
//!
//! Control traffic (barrier announcements, termination contributions)
//! shares the sockets with data. Because peers progress at different
//! speeds, control frames for a *future* round can arrive while this rank
//! still waits on the current one; they are keyed by their epoch/round
//! number and buffered until the local rank catches up. Data frames that
//! arrive during a collective wait are stashed and handed to the next
//! `try_recv` — they are *not* counted as received until then, which the
//! termination protocol requires.
//!
//! Failure semantics: nothing here panics or hangs forever. A reader
//! thread that sees EOF, a reset, or a corrupt stream reports a `Gone`
//! event instead of panicking; a clean EOF marks the peer dead (it may
//! simply have finished first), while a decode failure or reset surfaces
//! as a typed [`NetError`] on the next `try_recv`/collective. Collectives
//! fast-fail with [`NetError::PeerDisconnected`] as soon as a dead peer is
//! known to owe a contribution, and otherwise time out after the tuned
//! collective deadline with a four-counter diagnostic dump. Connection
//! setup and transient send stalls retry with capped exponential backoff
//! plus deterministic jitter, within the tuned deadlines.
//!
//! Address discovery is either an explicit list (a rank file, one
//! `host:port` per line) or a rendezvous directory: every rank binds an
//! ephemeral port, atomically publishes `rank<i>.addr`, and polls until
//! all N files exist — which is how `dakc launch` wires up self-spawned
//! workers on localhost.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::error::{NetError, NetResult};
use crate::frame::{encode_frame, FrameDecoder, FrameKind, MAX_FRAME_LEN};
use crate::transport::{NetNote, NetStats, NetTuning, Rank, Recovered, TermDetector, Transport};

/// Per-peer socket buffer, each way: decoupled from the cascade's `C0` so
/// that a small L0 buffer (2 KiB under `scaled_defaults`) does not turn
/// every other `PUT` into a `write` and a `read` syscall. A rank holds
/// `2 × (P − 1)` of them.
pub const SOCKET_BUF_BYTES: usize = 64 << 10;

/// Sleeps `*delay`, then doubles it up to 10 ms: the set-up polls (address
/// files, the accept queue) answer within a millisecond when every rank
/// starts together and must not spin when one is late.
fn poll_backoff(delay: &mut Duration) {
    std::thread::sleep(*delay);
    *delay = (*delay * 2).min(Duration::from_millis(10));
}

/// A send (or flush) slower than this counts as one backpressure stall.
const STALL_THRESHOLD: Duration = Duration::from_millis(1);

/// How long one inbox wait blocks before re-checking deadlines and dead
/// peers. Bounds the latency of fast-fail detection during collectives.
const PUMP_SLICE: Duration = Duration::from_millis(50);

/// Hello rank tag for a supervisor recovery announcement: the connection
/// is not a mesh peer dialing in but the launcher delivering one framed
/// [`FrameKind::Recover`] and closing.
pub const RECOVER_HELLO: u32 = u32::MAX;

/// Announces a respawn to every surviving rank of a recovery-mode mesh:
/// dials each `rank<i>.addr` published under `dir` (skipping `dead`
/// itself), identifies as [`RECOVER_HELLO`], and delivers one typed
/// [`FrameKind::Recover`] frame naming the dead rank and its new
/// incarnation. Best-effort by design — a survivor that cannot be
/// reached still learns of the respawn when the replacement dials it
/// directly; the announcement's job is to refresh reconnect deadlines
/// and pre-authorize the incarnation. Returns how many survivors were
/// notified.
pub fn announce_recovery(dir: &Path, n: usize, dead: Rank, incarnation: u32) -> usize {
    let mut payload = [0u8; 8];
    payload[..4].copy_from_slice(&(dead as u32).to_le_bytes());
    payload[4..].copy_from_slice(&incarnation.to_le_bytes());
    let frame = encode_frame(FrameKind::Recover, &payload);
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&RECOVER_HELLO.to_le_bytes());
    hello[4..].copy_from_slice(&incarnation.to_le_bytes());
    let mut notified = 0;
    for peer in (0..n).filter(|&p| p != dead) {
        let Ok(text) = std::fs::read_to_string(dir.join(format!("rank{peer}.addr"))) else {
            continue;
        };
        let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() else { continue };
        let Ok(mut s) = TcpStream::connect(addr) else { continue };
        if s.write_all(&hello).and_then(|()| s.write_all(&frame)).and_then(|()| s.flush()).is_ok()
        {
            notified += 1;
        }
    }
    notified
}

/// One message from a reader thread.
enum Event {
    /// A decoded frame from `src`.
    Frame {
        src: Rank,
        kind: FrameKind,
        /// The incarnation tag from the recovery-mode frame envelope
        /// (0 when the mesh runs without recovery).
        inc: u32,
        payload: Vec<u8>,
    },
    /// `src`'s connection ended. `error` is `None` for a clean EOF (the
    /// peer may legitimately have finished first) and carries the typed
    /// failure for resets and corrupt streams.
    Gone {
        src: Rank,
        error: Option<NetError>,
    },
}

/// A peer that died recoverably and is awaited back.
struct PendingPeer {
    rank: Rank,
    since: Instant,
}

/// Recovery-mode state: present only on meshes built with
/// [`TcpTransport::rendezvous_recover`]. While armed, a recoverable peer
/// death is absorbed (sends masked, collectives abandoned) until the
/// respawned incarnation dials the retained listener back; completing the
/// reconnect voids the dead incarnation's frame totals and resets the
/// collective round state on this rank.
struct Recovery {
    /// The rendezvous listener, retained past setup so respawned peers
    /// (and the supervisor's announcements) can dial in.
    listener: TcpListener,
    /// Current incarnation: the highest epoch this rank has joined.
    /// Frames carry it in their envelope; stale control frames are
    /// discarded by it.
    incarnation: u32,
    /// Whether peer death is currently absorbed (armed during
    /// parse/drain) or fatal as usual (setup, count, gather).
    armed: bool,
    /// Sends to these ranks are dropped (their replacement replays the
    /// content).
    masked: Vec<bool>,
    /// Peers dead and awaited back.
    pending: Vec<PendingPeer>,
    /// Supervisor-announced incarnation per rank, if an announcement
    /// arrived (refreshes the reconnect deadline).
    announced: Vec<Option<u32>>,
    /// Reconnect dials that arrived before this rank absorbed the
    /// peer's death.
    early: Vec<(Rank, u32, TcpStream)>,
    /// Control frames from a future incarnation, replayed after the bump.
    stash: Vec<Event>,
    /// Frame totals voided from the four-counter accounting: traffic
    /// exchanged with incarnations that no longer exist.
    void_sent: u64,
    void_recv: u64,
    /// Per-peer totals already voided (so repeat recoveries void only the
    /// delta).
    sent_base: Vec<u64>,
    recv_base: Vec<u64>,
    buf_bytes: usize,
    max_frame: usize,
}

/// One rank's TCP endpoint.
pub struct TcpTransport {
    rank: Rank,
    n: usize,
    /// Per-peer buffered writers (`None` at `rank` — self-sends bypass
    /// the wire).
    writers: Vec<Option<BufWriter<TcpStream>>>,
    /// Shared inbox fed by one reader thread per peer.
    rx: mpsc::Receiver<Event>,
    /// Sender half: keeps the channel open when there are no peers and
    /// spawns readers for reconnected peers.
    tx: mpsc::Sender<Event>,
    /// Self-sends and data frames that arrived during a collective wait.
    pending: VecDeque<(Rank, Vec<u8>)>,
    /// Why each gone peer's connection ended (`None` while alive).
    gone: Vec<Option<String>>,
    /// Barrier announcements seen, per epoch, per peer.
    bar_seen: HashMap<u64, Vec<bool>>,
    /// Termination contributions seen, per round, per peer.
    term_seen: HashMap<u64, Vec<Option<(u64, u64)>>>,
    epoch: u64,
    round: u64,
    detector: TermDetector,
    stats: NetStats,
    tuning: NetTuning,
    /// Present only on recovery-mode meshes.
    recovery: Option<Recovery>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

fn io_err(context: String, peer: Option<Rank>, e: &std::io::Error) -> NetError {
    NetError::from_io(context, peer, e)
}

impl TcpTransport {
    /// Connects a full mesh from an explicit address list with default
    /// tuning; `addrs[rank]` must be bindable locally. `buf_bytes` is the
    /// job's L0 `c0_bytes`: the per-peer send and receive buffers are
    /// that or [`SOCKET_BUF_BYTES`], whichever is larger.
    pub fn connect(rank: Rank, addrs: &[SocketAddr], buf_bytes: usize) -> NetResult<Self> {
        Self::connect_tuned(rank, addrs, buf_bytes, NetTuning::default())
    }

    /// [`TcpTransport::connect`] with explicit deadlines/retry tuning.
    pub fn connect_tuned(
        rank: Rank,
        addrs: &[SocketAddr],
        buf_bytes: usize,
        tuning: NetTuning,
    ) -> NetResult<Self> {
        let listener = TcpListener::bind(addrs[rank])
            .map_err(|e| io_err(format!("rank {rank}: bind {}", addrs[rank]), None, &e))?;
        Self::with_listener(rank, addrs, listener, buf_bytes, tuning, None)
    }

    /// Like [`TcpTransport::connect`], reading the address list from a
    /// rank file: one `host:port` per line, line `i` for rank `i`.
    pub fn from_rank_file(rank: Rank, path: &Path, buf_bytes: usize) -> NetResult<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| io_err(format!("rank file {}", path.display()), None, &e))?;
        let addrs = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                l.parse::<SocketAddr>().map_err(|e| NetError::Protocol {
                    detail: format!("rank file line {l:?}: {e}"),
                })
            })
            .collect::<NetResult<Vec<_>>>()?;
        Self::connect(rank, &addrs, buf_bytes)
    }

    /// Binds an ephemeral localhost port, publishes it as
    /// `<dir>/rank<i>.addr` (atomic write), waits for all `n` ranks to
    /// publish, then connects the mesh with default tuning. This is the
    /// `dakc launch` self-spawn path.
    pub fn rendezvous(rank: Rank, n: usize, dir: &Path, buf_bytes: usize) -> NetResult<Self> {
        Self::rendezvous_tuned(rank, n, dir, buf_bytes, NetTuning::default())
    }

    /// [`TcpTransport::rendezvous`] with explicit deadlines/retry tuning.
    pub fn rendezvous_tuned(
        rank: Rank,
        n: usize,
        dir: &Path,
        buf_bytes: usize,
        tuning: NetTuning,
    ) -> NetResult<Self> {
        Self::rendezvous_impl(rank, n, dir, buf_bytes, tuning, None)
    }

    /// [`TcpTransport::rendezvous_tuned`] in recovery mode: the rank
    /// hello and every frame envelope carry an incarnation tag, the
    /// rendezvous listener is retained so a respawned peer can dial back
    /// in, and (once armed) a recoverable peer death is absorbed instead
    /// of surfaced. `incarnation` 0 joins a fresh mesh; a positive
    /// incarnation *rejoins* a running mesh after this rank was respawned
    /// — it republishes its address and dials every surviving peer.
    pub fn rendezvous_recover(
        rank: Rank,
        n: usize,
        dir: &Path,
        buf_bytes: usize,
        tuning: NetTuning,
        incarnation: u32,
    ) -> NetResult<Self> {
        if incarnation == 0 {
            Self::rendezvous_impl(rank, n, dir, buf_bytes, tuning, Some(0))
        } else {
            Self::rejoin(rank, n, dir, buf_bytes, tuning, incarnation)
        }
    }

    fn rendezvous_impl(
        rank: Rank,
        n: usize,
        dir: &Path,
        buf_bytes: usize,
        tuning: NetTuning,
        recover: Option<u32>,
    ) -> NetResult<Self> {
        let ctx = |what: &str| format!("rank {rank}: rendezvous {what}");
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| io_err(ctx("bind"), None, &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err(ctx("local_addr"), None, &e))?;
        let tmp = dir.join(format!(".rank{rank}.addr.tmp"));
        std::fs::write(&tmp, addr.to_string())
            .map_err(|e| io_err(ctx("publish"), None, &e))?;
        std::fs::rename(&tmp, dir.join(format!("rank{rank}.addr")))
            .map_err(|e| io_err(ctx("publish"), None, &e))?;

        let start = Instant::now();
        let mut poll = Duration::from_millis(1);
        let mut addrs = vec![None; n];
        addrs[rank] = Some(addr);
        while addrs.iter().any(Option::is_none) {
            for (i, slot) in addrs.iter_mut().enumerate() {
                if slot.is_none() {
                    if let Ok(text) = std::fs::read_to_string(dir.join(format!("rank{i}.addr"))) {
                        *slot = Some(text.trim().parse().map_err(|e| NetError::Protocol {
                            detail: format!("rank {i} published a bad address: {e}"),
                        })?);
                    }
                }
            }
            if addrs.iter().any(Option::is_none) {
                if start.elapsed() > tuning.connect_timeout {
                    let missing: Vec<usize> = addrs
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.is_none())
                        .map(|(i, _)| i)
                        .collect();
                    return Err(NetError::timeout(
                        "connect",
                        start.elapsed(),
                        format!("rank {rank}: rendezvous missing addresses for ranks {missing:?}"),
                    ));
                }
                poll_backoff(&mut poll);
            }
        }
        let addrs: Vec<SocketAddr> = addrs.into_iter().map(|a| a.expect("filled")).collect();
        Self::with_listener(rank, &addrs, listener, buf_bytes, tuning, recover)
    }

    /// Rejoins a running recovery-mode mesh after a respawn: republishes
    /// this rank's address and dials *every* surviving peer (their
    /// retained listeners accept via `poll_recovery`), identifying itself
    /// with the new incarnation.
    fn rejoin(
        rank: Rank,
        n: usize,
        dir: &Path,
        buf_bytes: usize,
        tuning: NetTuning,
        incarnation: u32,
    ) -> NetResult<Self> {
        let ctx = |what: &str| format!("rank {rank}: rejoin {what}");
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| io_err(ctx("bind"), None, &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err(ctx("listener nonblocking"), None, &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err(ctx("local_addr"), None, &e))?;
        let tmp = dir.join(format!(".rank{rank}.addr.tmp"));
        std::fs::write(&tmp, addr.to_string())
            .map_err(|e| io_err(ctx("publish"), None, &e))?;
        std::fs::rename(&tmp, dir.join(format!("rank{rank}.addr")))
            .map_err(|e| io_err(ctx("publish"), None, &e))?;

        let buf_bytes = buf_bytes.max(SOCKET_BUF_BYTES);
        let max_frame = (buf_bytes * 4).max(1 << 20);
        let (tx, rx) = mpsc::channel();
        let mut writers: Vec<Option<BufWriter<TcpStream>>> = (0..n).map(|_| None).collect();
        for peer in (0..n).filter(|&p| p != rank) {
            let start = Instant::now();
            let mut attempt = 0u32;
            let stream = loop {
                // Re-read the peer's address each attempt: a peer that is
                // itself mid-respawn republishes a new one.
                let dialed = std::fs::read_to_string(dir.join(format!("rank{peer}.addr")))
                    .ok()
                    .and_then(|t| t.trim().parse::<SocketAddr>().ok())
                    .map(TcpStream::connect);
                match dialed {
                    Some(Ok(s)) => break s,
                    other => {
                        if start.elapsed() > tuning.connect_timeout {
                            let last = match other {
                                Some(Err(e)) => e.to_string(),
                                _ => "no published address".to_string(),
                            };
                            return Err(NetError::timeout(
                                "connect",
                                start.elapsed(),
                                format!(
                                    "rank {rank}: rejoin dialing rank {peer} \
                                     ({attempt} retries, last error: {last})"
                                ),
                            ));
                        }
                        attempt += 1;
                        let salt = ((rank as u64) << 32) | peer as u64;
                        std::thread::sleep(tuning.backoff(attempt, salt));
                    }
                }
            };
            let peer_ctx = |what: &str| format!("rank {rank}: rejoin {what} to rank {peer}");
            stream
                .set_nodelay(true)
                .map_err(|e| io_err(peer_ctx("nodelay"), Some(peer), &e))?;
            stream
                .set_write_timeout(Some(tuning.collective_timeout))
                .map_err(|e| io_err(peer_ctx("write timeout"), Some(peer), &e))?;
            let mut s = stream;
            let mut hello = [0u8; 8];
            hello[..4].copy_from_slice(&(rank as u32).to_le_bytes());
            hello[4..].copy_from_slice(&incarnation.to_le_bytes());
            s.write_all(&hello)
                .and_then(|()| s.flush())
                .map_err(|e| io_err(peer_ctx("hello"), Some(peer), &e))?;
            let reader = s
                .try_clone()
                .map_err(|e| io_err(peer_ctx("clone stream"), Some(peer), &e))?;
            let tx = tx.clone();
            std::thread::Builder::new()
                .name(format!("dakc-net-r{rank}p{peer}"))
                .spawn(move || reader_loop(peer, reader, tx, buf_bytes, max_frame, true))
                .map_err(|e| io_err(peer_ctx("spawn reader"), None, &e))?;
            writers[peer] = Some(BufWriter::with_capacity(buf_bytes, s));
        }
        Ok(Self {
            rank,
            n,
            writers,
            rx,
            tx,
            pending: VecDeque::new(),
            gone: vec![None; n],
            bar_seen: HashMap::new(),
            term_seen: HashMap::new(),
            epoch: 0,
            round: 0,
            detector: TermDetector::new(),
            stats: NetStats::new(n),
            tuning,
            recovery: Some(Recovery {
                listener,
                incarnation,
                armed: false,
                masked: vec![false; n],
                pending: Vec::new(),
                announced: vec![None; n],
                early: Vec::new(),
                stash: Vec::new(),
                void_sent: 0,
                void_recv: 0,
                sent_base: vec![0; n],
                recv_base: vec![0; n],
                buf_bytes,
                max_frame,
            }),
        })
    }

    fn with_listener(
        rank: Rank,
        addrs: &[SocketAddr],
        listener: TcpListener,
        buf_bytes: usize,
        tuning: NetTuning,
        recover: Option<u32>,
    ) -> NetResult<Self> {
        let n = addrs.len();
        assert!(rank < n, "rank {rank} out of range for {n} ranks");
        let buf_bytes = buf_bytes.max(SOCKET_BUF_BYTES);
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut setup_retries = 0u64;

        // Lower ranks are dialed (they listen first by construction);
        // higher ranks dial us.
        for (peer, addr) in addrs.iter().enumerate().take(rank) {
            let start = Instant::now();
            let mut attempt = 0u32;
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) => {
                        if start.elapsed() > tuning.connect_timeout {
                            return Err(NetError::timeout(
                                "connect",
                                start.elapsed(),
                                format!(
                                    "rank {rank}: dialing rank {peer} at {addr} \
                                     ({attempt} retries, last error: {e})"
                                ),
                            ));
                        }
                        attempt += 1;
                        setup_retries += 1;
                        let salt = ((rank as u64) << 32) | peer as u64;
                        std::thread::sleep(tuning.backoff(attempt, salt));
                    }
                }
            };
            let peer_ctx = |what: &str| format!("rank {rank}: {what} to rank {peer}");
            stream
                .set_nodelay(true)
                .map_err(|e| io_err(peer_ctx("nodelay"), Some(peer), &e))?;
            let mut s = stream;
            // In recovery mode the hello also carries this rank's
            // incarnation; off, the 4-byte hello stays byte-identical.
            let sent = match recover {
                None => s.write_all(&(rank as u32).to_le_bytes()),
                Some(inc) => {
                    let mut hello = [0u8; 8];
                    hello[..4].copy_from_slice(&(rank as u32).to_le_bytes());
                    hello[4..].copy_from_slice(&inc.to_le_bytes());
                    s.write_all(&hello)
                }
            };
            sent.and_then(|()| s.flush())
                .map_err(|e| io_err(peer_ctx("hello"), Some(peer), &e))?;
            streams[peer] = Some(s);
        }
        // Accept the higher ranks without blocking forever on a spawn
        // that never happened: poll a nonblocking listener under the
        // connect deadline.
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err(format!("rank {rank}: listener nonblocking"), None, &e))?;
        let start = Instant::now();
        let mut poll = Duration::from_millis(1);
        let expected = n - rank - 1;
        let mut accepted = 0usize;
        while accepted < expected {
            match listener.accept() {
                Ok((stream, _)) => {
                    let ctx = |what: &str| format!("rank {rank}: accept {what}");
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| io_err(ctx("blocking"), None, &e))?;
                    stream
                        .set_nodelay(true)
                        .map_err(|e| io_err(ctx("nodelay"), None, &e))?;
                    // A connected-but-mute dialer must not wedge setup.
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .map_err(|e| io_err(ctx("read timeout"), None, &e))?;
                    let mut stream = stream;
                    let src = if recover.is_none() {
                        let mut hello = [0u8; 4];
                        stream
                            .read_exact(&mut hello)
                            .map_err(|e| io_err(ctx("hello"), None, &e))?;
                        u32::from_le_bytes(hello) as usize
                    } else {
                        let mut hello = [0u8; 8];
                        stream
                            .read_exact(&mut hello)
                            .map_err(|e| io_err(ctx("hello"), None, &e))?;
                        u32::from_le_bytes(hello[..4].try_into().expect("4 bytes")) as usize
                    };
                    stream
                        .set_read_timeout(None)
                        .map_err(|e| io_err(ctx("read timeout"), None, &e))?;
                    if src <= rank || src >= n || streams[src].is_some() {
                        return Err(NetError::Protocol {
                            detail: format!("rank {rank}: unexpected hello from rank {src}"),
                        });
                    }
                    streams[src] = Some(stream);
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() > tuning.connect_timeout {
                        return Err(NetError::timeout(
                            "connect",
                            start.elapsed(),
                            format!(
                                "rank {rank}: accepted {accepted} of {expected} higher ranks"
                            ),
                        ));
                    }
                    poll_backoff(&mut poll);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(format!("rank {rank}: accept"), None, &e)),
            }
        }

        let (tx, rx) = mpsc::channel();
        // Bound incoming frames well above any frame the job legitimately
        // produces (one L0 PUT, a gather chunk, a metrics blob) so a
        // flipped length prefix cannot demand a giant allocation.
        let max_frame = (buf_bytes * 4).max(1 << 20);
        let mut writers: Vec<Option<BufWriter<TcpStream>>> = Vec::with_capacity(n);
        for (peer, stream) in streams.into_iter().enumerate() {
            match stream {
                None => writers.push(None),
                Some(s) => {
                    // A send that sits in the OS buffer past the
                    // collective deadline is a wedge, not backpressure.
                    s.set_write_timeout(Some(tuning.collective_timeout))
                        .map_err(|e| io_err(format!("rank {rank}: write timeout"), Some(peer), &e))?;
                    let reader = s
                        .try_clone()
                        .map_err(|e| io_err(format!("rank {rank}: clone stream"), Some(peer), &e))?;
                    let tx = tx.clone();
                    let epoch_env = recover.is_some();
                    std::thread::Builder::new()
                        .name(format!("dakc-net-r{rank}p{peer}"))
                        .spawn(move || reader_loop(peer, reader, tx, buf_bytes, max_frame, epoch_env))
                        .map_err(|e| io_err(format!("rank {rank}: spawn reader"), None, &e))?;
                    writers.push(Some(BufWriter::with_capacity(buf_bytes, s)));
                }
            }
        }
        let mut stats = NetStats::new(n);
        stats.retries = setup_retries;
        let recovery = recover.map(|incarnation| Recovery {
            listener,
            incarnation,
            armed: false,
            masked: vec![false; n],
            pending: Vec::new(),
            announced: vec![None; n],
            early: Vec::new(),
            stash: Vec::new(),
            void_sent: 0,
            void_recv: 0,
            sent_base: vec![0; n],
            recv_base: vec![0; n],
            buf_bytes,
            max_frame,
        });
        Ok(Self {
            rank,
            n,
            writers,
            rx,
            tx,
            pending: VecDeque::new(),
            gone: vec![None; n],
            bar_seen: HashMap::new(),
            term_seen: HashMap::new(),
            epoch: 0,
            round: 0,
            detector: TermDetector::new(),
            stats,
            tuning,
            recovery,
        })
    }

    /// Writes raw wire bytes (`head` then `body`) into a peer's buffered
    /// writer, retrying transient stalls with backoff and classifying
    /// failures.
    fn write_wire(&mut self, dest: Rank, head: &[u8], body: &[u8]) -> NetResult<()> {
        let me = self.rank;
        let Some(w) = self.writers[dest].as_mut() else {
            return Err(NetError::Protocol {
                detail: format!("rank {me} has no connection to rank {dest}"),
            });
        };
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match w.write_all(head).and_then(|()| w.write_all(body)) {
                Ok(()) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if attempt >= self.tuning.retries {
                        return Err(NetError::timeout(
                            "send",
                            t0.elapsed(),
                            format!("rank {me} to rank {dest}: {attempt} retries exhausted ({e})"),
                        ));
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    let salt = ((me as u64) << 32) | dest as u64;
                    let delay = self.tuning.backoff(attempt, salt);
                    self.stats.note(NetNote::Retry {
                        dest,
                        attempt,
                        delay_us: delay.as_micros() as u64,
                    });
                    std::thread::sleep(delay);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(io_err(format!("rank {me} send to rank {dest}"), Some(dest), &e))
                }
            }
        }
        if t0.elapsed() >= STALL_THRESHOLD {
            self.stats.send_stalls += 1;
        }
        Ok(())
    }

    /// Writes one frame — header, then payload — straight into a peer's
    /// buffered writer. In recovery mode the payload is prefixed with this
    /// rank's incarnation (the epoch envelope, stripped back off by the
    /// receiving reader thread); off, the wire bytes are exactly
    /// [`encode_frame`]'s.
    fn write_frame(&mut self, dest: Rank, kind: FrameKind, payload: &[u8]) -> NetResult<()> {
        let envelope = self.recovery.as_ref().map(|r| r.incarnation.to_le_bytes());
        let envelope = envelope.as_ref().map_or(&[][..], |e| e);
        let len = 1 + envelope.len() + payload.len();
        assert!(len <= MAX_FRAME_LEN, "frame payload too large: {len}");
        let mut head = [0u8; 9];
        let head = &mut head[..5 + envelope.len()];
        head[..4].copy_from_slice(&(len as u32).to_le_bytes());
        head[4] = kind.to_u8();
        head[5..].copy_from_slice(envelope);
        self.write_wire(dest, head, payload)
    }

    /// Whether `e` is a peer death this endpoint can absorb and recover
    /// from (recovery armed and the error names the dead peer).
    fn recoverable_send_err(&self, dest: Rank, e: &NetError) -> bool {
        self.recovery.as_ref().is_some_and(|r| r.armed)
            && matches!(e, NetError::PeerDisconnected { rank, .. } if *rank == dest)
    }

    /// Latches `src` as recoverably dead: its writer is dropped, sends to
    /// it are masked, and [`TcpTransport::poll_recovery`] awaits its new
    /// incarnation.
    fn mark_recoverable_gone(&mut self, src: Rank, detail: String) {
        if self.gone[src].is_none() {
            self.gone[src] = Some(detail);
        }
        // Dropping the writer flushes best-effort into the dead socket
        // and closes our side.
        self.writers[src] = None;
        let r = self.recovery.as_mut().expect("recovery mode");
        if !r.masked[src] {
            r.masked[src] = true;
            r.pending.push(PendingPeer { rank: src, since: Instant::now() });
        }
    }

    /// Flushes one peer's buffered writer with the same retry policy as
    /// [`TcpTransport::write_wire`].
    fn flush_peer(&mut self, dest: Rank) -> NetResult<()> {
        let me = self.rank;
        let Some(w) = self.writers[dest].as_mut() else {
            return Ok(());
        };
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match w.flush() {
                Ok(()) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if attempt >= self.tuning.retries {
                        return Err(NetError::timeout(
                            "send",
                            t0.elapsed(),
                            format!("rank {me} flush to rank {dest}: {attempt} retries exhausted"),
                        ));
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    let salt = ((me as u64) << 32) | dest as u64 | 1 << 63;
                    let delay = self.tuning.backoff(attempt, salt);
                    self.stats.note(NetNote::Retry {
                        dest,
                        attempt,
                        delay_us: delay.as_micros() as u64,
                    });
                    std::thread::sleep(delay);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(io_err(format!("rank {me} flush to rank {dest}"), Some(dest), &e))
                }
            }
        }
        if t0.elapsed() >= STALL_THRESHOLD {
            self.stats.send_stalls += 1;
        }
        Ok(())
    }

    /// Handles one event from the inbox: data is stashed for `try_recv`,
    /// control is recorded under its epoch/round key, and connection ends
    /// mark the peer dead (erroring immediately when the end itself was a
    /// failure rather than a clean EOF).
    fn absorb(&mut self, ev: Event) -> NetResult<()> {
        match ev {
            Event::Gone { src, error } => {
                let detail = error
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "clean eof".to_string());
                // While recovery is armed, a peer death (clean EOF from
                // its dying sockets, or a reset) is absorbed: the rank is
                // masked and awaited back instead of failing the run.
                if self.recovery.as_ref().is_some_and(|r| r.armed)
                    && matches!(
                        error,
                        None | Some(NetError::PeerDisconnected { .. })
                    )
                {
                    self.mark_recoverable_gone(src, detail);
                    return Ok(());
                }
                if self.gone[src].is_none() {
                    self.gone[src] = Some(detail);
                }
                match error {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
            Event::Frame { src, kind, inc, payload } => {
                // Stale-incarnation filtering applies to *control* frames
                // only: a Barrier/Term contribution from a dead
                // incarnation must not poison the reset round state, and
                // one from a future incarnation (a respawned peer racing
                // ahead) is stashed until this rank completes the same
                // reconnect. Data frames pass regardless — survivor
                // traffic sent before the local bump is still real data,
                // and a dead incarnation's data is handled by the
                // pending-purge plus the application-level replay.
                if matches!(kind, FrameKind::Barrier | FrameKind::Term) {
                    if let Some(r) = self.recovery.as_mut() {
                        if inc < r.incarnation {
                            self.stats.stale_frames += 1;
                            return Ok(());
                        }
                        if inc > r.incarnation {
                            r.stash.push(Event::Frame { src, kind, inc, payload });
                            return Ok(());
                        }
                    }
                }
                self.absorb_frame(src, kind, payload)
            }
        }
    }

    /// Dispatches one already-envelope-stripped, incarnation-accepted
    /// frame.
    fn absorb_frame(&mut self, src: Rank, kind: FrameKind, payload: Vec<u8>) -> NetResult<()> {
        {
            match kind {
                // Query/Reply frames are serve-protocol application
                // payloads: delivered through `try_recv` exactly like
                // data (the payload's opcode byte disambiguates), and
                // counted as received only when the application pulls
                // them, as the four-counter protocol requires.
                FrameKind::Data | FrameKind::Query | FrameKind::Reply => {
                    self.pending.push_back((src, payload));
                    Ok(())
                }
                FrameKind::Barrier => {
                    let epoch = parse_u64(&payload, 0, src, "barrier epoch")?;
                    let seen = self.bar_seen.entry(epoch).or_insert_with(|| vec![false; self.n]);
                    if std::mem::replace(&mut seen[src], true) {
                        return Err(NetError::Protocol {
                            detail: format!(
                                "duplicate barrier announcement for epoch {epoch} from rank {src}"
                            ),
                        });
                    }
                    Ok(())
                }
                FrameKind::Term => {
                    let round = parse_u64(&payload, 0, src, "termination round")?;
                    let sent = parse_u64(&payload, 8, src, "termination sent")?;
                    let recv = parse_u64(&payload, 16, src, "termination received")?;
                    let seen =
                        self.term_seen.entry(round).or_insert_with(|| vec![None; self.n]);
                    if seen[src].replace((sent, recv)).is_some() {
                        return Err(NetError::Protocol {
                            detail: format!(
                                "duplicate termination contribution for round {round} from rank {src}"
                            ),
                        });
                    }
                    Ok(())
                }
                FrameKind::Heartbeat => Err(NetError::Protocol {
                    detail: format!("unexpected heartbeat frame on the data mesh from rank {src}"),
                }),
                // Recovery announcements arrive on the retained listener
                // (see `poll_recovery`), never on a mesh socket.
                FrameKind::Recover => Err(NetError::Protocol {
                    detail: format!("unexpected recover frame on the data mesh from rank {src}"),
                }),
            }
        }
    }

    /// Waits up to one slice for an inbox event and absorbs it. Errors
    /// with a diagnostic [`NetError::Timeout`] once `start` is older than
    /// the collective deadline.
    fn pump(&mut self, start: Instant, phase: &str) -> NetResult<()> {
        match self.rx.recv_timeout(PUMP_SLICE) {
            Ok(ev) => self.absorb(ev),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let waited = start.elapsed();
                if waited >= self.tuning.collective_timeout {
                    Err(NetError::timeout(phase, waited, self.diagnostics()))
                } else {
                    Ok(())
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Protocol {
                detail: format!("rank {}: inbox channel closed", self.rank),
            }),
        }
    }

    /// Whether some dead-awaiting-respawn peer has not yet contributed to
    /// termination round `round`. Such a round cannot complete until the
    /// peer's replacement rejoins (which resets all round state), so the
    /// caller bails back to `poll_recovery`. A dead peer that *did*
    /// contribute does not block the round — its recorded total is as
    /// good as a live peer's.
    fn round_blocked_on_recovery(&self, round: u64) -> bool {
        let Some(r) = self.recovery.as_ref() else {
            return false;
        };
        if !r.armed {
            return false;
        }
        r.pending.iter().any(|p| {
            self.term_seen
                .get(&round)
                .and_then(|s| s.get(p.rank).copied().flatten())
                .is_none()
        })
    }

    /// The first dead peer that has not contributed, per `contributed`.
    fn dead_straggler(&self, contributed: impl Fn(Rank) -> bool) -> Option<(Rank, &str)> {
        (0..self.n).find_map(|p| {
            if p == self.rank || contributed(p) {
                return None;
            }
            self.gone[p].as_deref().map(|d| (p, d))
        })
    }

    /// Accepts and classifies one connection on the retained recovery
    /// listener: either the supervisor announcing a respawn (hello rank
    /// [`RECOVER_HELLO`], one framed [`FrameKind::Recover`], then close)
    /// or a respawned peer dialing back in (stashed in `early` until the
    /// local side has absorbed that peer's death).
    fn recovery_handle_conn(&mut self, stream: TcpStream) {
        let Some(r) = self.recovery.as_mut() else { return };
        // Announcement and reconnect hellos are both best-effort: a
        // half-open or garbled dialer is dropped, never fatal — the
        // reconnect deadline is the backstop.
        if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        if stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .is_err()
        {
            return;
        }
        let mut stream = stream;
        let mut hello = [0u8; 8];
        if stream.read_exact(&mut hello).is_err() {
            return;
        }
        let who = u32::from_le_bytes(hello[..4].try_into().expect("4 bytes"));
        let inc = u32::from_le_bytes(hello[4..].try_into().expect("4 bytes"));
        if who == RECOVER_HELLO {
            // Supervisor announcement: one plain (non-enveloped) Recover
            // frame follows. Tiny decode bound — the payload is 8 bytes.
            let mut dec = FrameDecoder::with_max_len(1 << 10);
            let mut buf = [0u8; 64];
            loop {
                match dec.next_frame() {
                    Ok(Some((FrameKind::Recover, p))) if p.len() >= 8 => {
                        let dead =
                            u32::from_le_bytes(p[..4].try_into().expect("4 bytes")) as usize;
                        let new_inc = u32::from_le_bytes(p[4..8].try_into().expect("4 bytes"));
                        if dead < r.announced.len() {
                            r.announced[dead] = Some(new_inc);
                            // The respawn restarts the reconnect clock.
                            for p in &mut r.pending {
                                if p.rank == dead {
                                    p.since = Instant::now();
                                }
                            }
                        }
                        return;
                    }
                    Ok(Some(_)) | Err(_) => return,
                    Ok(None) => match stream.read(&mut buf) {
                        Ok(0) => return,
                        Ok(k) => dec.feed(&buf[..k]),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => return,
                    },
                }
            }
        }
        let who = who as usize;
        if who >= r.masked.len() || inc <= r.incarnation {
            // Out-of-range rank, or an incarnation this mesh has already
            // moved past (a late duplicate dial): drop.
            return;
        }
        let _ = stream.set_read_timeout(None);
        r.early.push((who, inc, stream));
    }

    /// Wires a respawned peer back into the mesh and resets the collective
    /// state for the new epoch: spawns its reader, restores its writer,
    /// voids the dead incarnation's frame totals from the four-counter
    /// accounting, drops its undelivered data, bumps the local
    /// incarnation, and zeroes the round/epoch/detector state on this
    /// rank (every survivor does the same, so the mesh restarts
    /// termination from round 0 together).
    fn complete_reconnect(
        &mut self,
        peer: Rank,
        inc: u32,
        stream: TcpStream,
    ) -> NetResult<Recovered> {
        let me = self.rank;
        let ctx = |what: &str| format!("rank {me}: reconnect {what} to rank {peer}");
        stream
            .set_write_timeout(Some(self.tuning.collective_timeout))
            .map_err(|e| io_err(ctx("write timeout"), Some(peer), &e))?;
        let reader = stream
            .try_clone()
            .map_err(|e| io_err(ctx("clone stream"), Some(peer), &e))?;
        let r = self.recovery.as_mut().expect("recovery mode");
        let tx = self.tx.clone();
        let (buf_bytes, max_frame) = (r.buf_bytes, r.max_frame);
        std::thread::Builder::new()
            .name(format!("dakc-net-r{me}p{peer}"))
            .spawn(move || reader_loop(peer, reader, tx, buf_bytes, max_frame, true))
            .map_err(|e| io_err(ctx("spawn reader"), None, &e))?;
        self.writers[peer] = Some(BufWriter::with_capacity(buf_bytes, stream));
        self.gone[peer] = None;

        // Void the dead incarnation's traffic: everything ever exchanged
        // with this peer beyond what previous recoveries already voided.
        // Receive counts are pop-time counts, so frames still sitting in
        // `pending` were never counted — they are dropped below instead.
        let ps = &self.stats.peers[peer];
        let (cur_sent, cur_recv) = (ps.frames_sent, ps.frames_recv);
        let r = self.recovery.as_mut().expect("recovery mode");
        r.void_sent += cur_sent - r.sent_base[peer];
        r.void_recv += cur_recv - r.recv_base[peer];
        r.sent_base[peer] = cur_sent;
        r.recv_base[peer] = cur_recv;
        r.masked[peer] = false;
        r.pending.retain(|p| p.rank != peer);
        r.announced[peer] = None;
        r.incarnation = r.incarnation.max(inc);
        // Undelivered data from the dead incarnation must not reach the
        // application (its replacement replays the content).
        self.pending.retain(|(src, _)| *src != peer);
        // Fresh collective epoch: both sides of the recovery re-enter
        // termination at round 0 with a cleared detector history.
        self.epoch = 0;
        self.round = 0;
        self.bar_seen.clear();
        self.term_seen.clear();
        self.detector = TermDetector::new();
        self.stats.recoveries += 1;
        // Control frames from the new incarnation that raced ahead of
        // this reconnect were stashed; they are valid now.
        let stash = std::mem::take(&mut self.recovery.as_mut().expect("recovery mode").stash);
        for ev in stash {
            self.absorb(ev)?;
        }
        Ok(Recovered { rank: peer, incarnation: inc })
    }
}

/// Reads one little-endian `u64` out of a control payload, typing a short
/// payload as a corrupt frame instead of panicking on the slice.
fn parse_u64(payload: &[u8], at: usize, src: Rank, what: &str) -> NetResult<u64> {
    payload
        .get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| NetError::CorruptFrame {
            rank: src,
            detail: format!("{what}: control payload is {} bytes", payload.len()),
        })
}

fn reader_loop(
    src: Rank,
    mut stream: TcpStream,
    tx: mpsc::Sender<Event>,
    buf_bytes: usize,
    max_frame: usize,
    epoch_env: bool,
) {
    let mut dec = FrameDecoder::with_max_len(max_frame);
    let mut buf = vec![0u8; buf_bytes];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = tx.send(Event::Gone { src, error: None });
                return;
            }
            Ok(k) => {
                dec.feed(&buf[..k]);
                loop {
                    match dec.next_frame() {
                        Ok(Some((kind, mut payload))) => {
                            let inc = if epoch_env {
                                // Recovery mode: every frame leads with the
                                // sender's incarnation; strip it here so
                                // the payload seen upstream is unchanged.
                                if payload.len() < 4 {
                                    let _ = tx.send(Event::Gone {
                                        src,
                                        error: Some(NetError::CorruptFrame {
                                            rank: src,
                                            detail: format!(
                                                "frame too short for epoch envelope: {} bytes",
                                                payload.len()
                                            ),
                                        }),
                                    });
                                    return;
                                }
                                let inc = u32::from_le_bytes(
                                    payload[..4].try_into().expect("4 bytes"),
                                );
                                payload.drain(..4);
                                inc
                            } else {
                                0
                            };
                            if tx.send(Event::Frame { src, kind, inc, payload }).is_err() {
                                // Endpoint dropped: stop reading.
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = tx.send(Event::Gone {
                                src,
                                error: Some(NetError::from_frame(src, &e)),
                            });
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = tx.send(Event::Gone {
                    src,
                    error: Some(NetError::from_io(
                        format!("read from rank {src}"),
                        Some(src),
                        &e,
                    )),
                });
                return;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.n
    }

    fn send(&mut self, dest: Rank, frame: &[u8]) -> NetResult<()> {
        self.send_kind(dest, FrameKind::Data, frame)
    }

    fn send_kind(&mut self, dest: Rank, kind: FrameKind, frame: &[u8]) -> NetResult<()> {
        // Sends to a masked (dead, awaiting respawn) rank are dropped
        // *uncounted*: the replacement incarnation replays this content,
        // and the four-counter totals must not include frames nobody will
        // ever receive.
        if self.recovery.as_ref().is_some_and(|r| r.masked[dest]) {
            self.stats.masked_sends += 1;
            return Ok(());
        }
        self.stats.peers[dest].frames_sent += 1;
        self.stats.peers[dest].bytes_sent += frame.len() as u64;
        if dest == self.rank {
            self.pending.push_back((self.rank, frame.to_vec()));
            return Ok(());
        }
        match self.write_frame(dest, kind, frame) {
            Err(e) if self.recoverable_send_err(dest, &e) => {
                // The peer died under this send: absorb it. The frame was
                // counted but never left — void it back out so the
                // accounting matches what the wire carried.
                self.stats.peers[dest].frames_sent -= 1;
                self.stats.peers[dest].bytes_sent -= frame.len() as u64;
                self.mark_recoverable_gone(dest, e.to_string());
                Ok(())
            }
            other => other,
        }
    }

    fn try_recv(&mut self) -> NetResult<Option<(Rank, Vec<u8>)>> {
        loop {
            if let Some((src, bytes)) = self.pending.pop_front() {
                self.stats.peers[src].frames_recv += 1;
                self.stats.peers[src].bytes_recv += bytes.len() as u64;
                return Ok(Some((src, bytes)));
            }
            match self.rx.try_recv() {
                Ok(ev) => self.absorb(ev)?,
                Err(_) => {
                    // Idle: nothing to process, so whatever sits in the
                    // send buffers is what the peers are waiting for.
                    if self.writers.iter().flatten().any(|w| !w.buffer().is_empty()) {
                        self.flush()?;
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn flush(&mut self) -> NetResult<()> {
        for dest in 0..self.n {
            match self.flush_peer(dest) {
                Err(e) if self.recoverable_send_err(dest, &e) => {
                    self.mark_recoverable_gone(dest, e.to_string());
                }
                other => other?,
            }
        }
        Ok(())
    }

    fn barrier(&mut self) -> NetResult<()> {
        let epoch = self.epoch;
        self.epoch += 1;
        let payload = epoch.to_le_bytes();
        for dest in 0..self.n {
            if dest != self.rank {
                self.write_frame(dest, FrameKind::Barrier, &payload)?;
            }
        }
        self.flush()?;
        let start = Instant::now();
        loop {
            let done = match self.bar_seen.get(&epoch) {
                Some(seen) => (0..self.n).all(|p| p == self.rank || seen[p]),
                None => self.n == 1,
            };
            if done {
                break;
            }
            let straggler = self.dead_straggler(|p| {
                self.bar_seen.get(&epoch).map(|s| s[p]).unwrap_or(false)
            });
            if let Some((p, why)) = straggler {
                return Err(NetError::PeerDisconnected {
                    rank: p,
                    detail: format!("died before barrier epoch {epoch} ({why})"),
                });
            }
            self.pump(start, "barrier")?;
        }
        self.bar_seen.remove(&epoch);
        self.stats.barriers += 1;
        Ok(())
    }

    fn termination_round(&mut self) -> NetResult<bool> {
        self.flush()?;
        // A round cannot complete while a dead-awaiting-respawn peer
        // still owes it a contribution: bail so the caller drives
        // `poll_recovery` instead of waiting on a frame that will never
        // come. (Not a quiescence claim — `false` just keeps the caller
        // in its progress loop.) A dead peer whose contribution for this
        // round already arrived does NOT block it: a rank that decides
        // quiescence drops its connections right after broadcasting its
        // final round, and treating that endgame disconnect as a
        // round-blocking death would livelock the last rank to decide.
        if self.round_blocked_on_recovery(self.round) {
            return Ok(false);
        }
        let round = self.round;
        self.round += 1;
        // Traffic exchanged with dead incarnations was voided out at
        // reconnect time; the four counters must only see frames both
        // ends of which still exist.
        let (vs, vr) = self
            .recovery
            .as_ref()
            .map(|r| (r.void_sent, r.void_recv))
            .unwrap_or((0, 0));
        let mine = (self.stats.frames_sent() - vs, self.stats.frames_recv() - vr);
        let mut payload = [0u8; 24];
        payload[..8].copy_from_slice(&round.to_le_bytes());
        payload[8..16].copy_from_slice(&mine.0.to_le_bytes());
        payload[16..24].copy_from_slice(&mine.1.to_le_bytes());
        for dest in 0..self.n {
            // A masked peer's writer is gone; if it already contributed
            // this round (the endgame case above) it no longer needs our
            // total either.
            let masked = self.recovery.as_ref().is_some_and(|r| r.masked[dest]);
            if dest != self.rank && !masked {
                match self.write_frame(dest, FrameKind::Term, &payload) {
                    Err(e) if self.recoverable_send_err(dest, &e) => {
                        self.mark_recoverable_gone(dest, e.to_string());
                    }
                    other => other?,
                }
            }
        }
        self.flush()?;
        if self.round_blocked_on_recovery(round) {
            return Ok(false);
        }
        let start = Instant::now();
        loop {
            let done = match self.term_seen.get(&round) {
                Some(seen) => (0..self.n).all(|p| p == self.rank || seen[p].is_some()),
                None => self.n == 1,
            };
            if done {
                break;
            }
            if self.round_blocked_on_recovery(round) {
                // A peer died mid-round without contributing: abandon it.
                // Every survivor's reader sees the same death, so all
                // survivors abandon and re-enter at round 0 after the
                // reconnect.
                return Ok(false);
            }
            let straggler = self.dead_straggler(|p| {
                self.term_seen
                    .get(&round)
                    .map(|s| s[p].is_some())
                    .unwrap_or(false)
            });
            if let Some((p, why)) = straggler {
                return Err(NetError::PeerDisconnected {
                    rank: p,
                    detail: format!("died before termination round {round} ({why})"),
                });
            }
            self.pump(start, "termination")?;
        }
        let contribs = self.term_seen.remove(&round).unwrap_or_default();
        let (sent, received) = contribs
            .iter()
            .flatten()
            .fold(mine, |(s, r), &(ps, pr)| (s + ps, r + pr));
        self.stats.term_rounds += 1;
        Ok(self.detector.decide(sent, received))
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    fn arm_recovery(&mut self, armed: bool) {
        if let Some(r) = self.recovery.as_mut() {
            r.armed = armed;
        }
    }

    fn recovery_pending(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| r.armed && !r.pending.is_empty())
    }

    fn poll_recovery(&mut self) -> NetResult<Option<Recovered>> {
        if !self.recovery.as_ref().is_some_and(|r| r.armed) {
            return Ok(None);
        }
        // Drain whatever reader events are queued first: the Gone for a
        // dying peer may not have been absorbed yet, and a reconnect
        // cannot complete before its death is registered.
        while let Ok(ev) = self.rx.try_recv() {
            self.absorb(ev)?;
        }
        // Accept everything waiting on the retained listener.
        loop {
            let accepted = {
                let r = self.recovery.as_ref().expect("recovery mode");
                r.listener.accept()
            };
            match accepted {
                Ok((stream, _)) => self.recovery_handle_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(io_err(
                        format!("rank {}: recovery accept", self.rank),
                        None,
                        &e,
                    ))
                }
            }
        }
        // Complete the first reconnect whose death is registered.
        let hit = {
            let r = self.recovery.as_ref().expect("recovery mode");
            r.early
                .iter()
                .position(|(who, _, _)| r.masked.get(*who).copied().unwrap_or(false))
        };
        if let Some(i) = hit {
            let (who, inc, stream) =
                self.recovery.as_mut().expect("recovery mode").early.remove(i);
            return self.complete_reconnect(who, inc, stream).map(Some);
        }
        // No reconnect ready: enforce the deadline on each pending peer.
        let r = self.recovery.as_ref().expect("recovery mode");
        for p in &r.pending {
            if p.since.elapsed() > self.tuning.collective_timeout {
                let rank = p.rank;
                let waited = p.since.elapsed();
                return Err(NetError::timeout(
                    "recovery",
                    waited,
                    format!(
                        "rank {}: rank {rank} never reconnected; {}",
                        self.rank,
                        self.diagnostics()
                    ),
                ));
            }
        }
        Ok(None)
    }

    fn last_global_totals(&self) -> Option<(u64, u64)> {
        self.detector.last()
    }

    fn first_dead_peer(&self) -> Option<Rank> {
        self.gone.iter().position(Option::is_some)
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        self.gone.get(rank).map(Option::is_some).unwrap_or(false)
    }

    fn send_corrupt(&mut self, dest: Rank) -> NetResult<()> {
        if dest == self.rank {
            return Ok(());
        }
        // An all-ones length prefix: the peer's decoder must reject it as
        // oversized without buffering a giant payload.
        self.write_wire(dest, &[0xFF; 16], &[])?;
        self.flush_peer(dest)
    }

    fn diagnostics(&self) -> String {
        let gone: Vec<String> = self
            .gone
            .iter()
            .enumerate()
            .filter_map(|(p, g)| g.as_ref().map(|d| format!("rank {p} gone ({d})")))
            .collect();
        let recovery = self
            .recovery
            .as_ref()
            .map(|r| {
                let waiting: Vec<Rank> = r.pending.iter().map(|p| p.rank).collect();
                format!("; incarnation={} awaiting={waiting:?}", r.incarnation)
            })
            .unwrap_or_default();
        format!(
            "rank {}/{}: epoch={} round={} sent={} recv={} pending={} last_global={:?}{}{}{}",
            self.rank,
            self.n,
            self.epoch,
            self.round,
            self.stats.frames_sent(),
            self.stats.frames_recv(),
            self.pending.len(),
            self.detector.last(),
            if gone.is_empty() { "" } else { "; " },
            gone.join(", "),
            recovery,
        )
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Flush buffered frames, then shut each socket down both ways.
        // The write shutdown puts FIN on the wire immediately, so peers'
        // reader threads see EOF (and raise `Gone`) even if this rank's
        // own reader threads are parked in a blocking read — death
        // detection must not depend on a peer sending us something first.
        // The read shutdown unblocks those parked reader threads so they
        // exit instead of lingering until process exit.
        for w in self.writers.iter_mut().flatten() {
            let _ = w.flush();
            let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an in-process TCP mesh on localhost ephemeral ports.
    fn tcp_mesh(n: usize) -> Vec<TcpTransport> {
        let dir = std::env::temp_dir().join(format!(
            "dakc-net-test-{}-{n}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    TcpTransport::rendezvous(rank, n, &dir, 8 << 10).unwrap()
                })
            })
            .collect();
        let mesh = handles.into_iter().map(|h| h.join().unwrap()).collect();
        std::fs::remove_dir_all(&dir).ok();
        mesh
    }

    #[test]
    fn single_rank_needs_no_sockets() {
        let dir = std::env::temp_dir().join(format!("dakc-net-1r-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = TcpTransport::rendezvous(0, 1, &dir, 8 << 10).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        t.send(0, b"self").unwrap();
        assert_eq!(t.try_recv().unwrap(), Some((0, b"self".to_vec())));
        assert!(!t.termination_round().unwrap());
        assert!(t.termination_round().unwrap());
        t.barrier().unwrap();
    }

    #[test]
    fn mesh_exchange_and_terminate() {
        let mesh = tcp_mesh(3);
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    let me = t.rank();
                    let n = t.num_ranks();
                    for dest in 0..n {
                        t.send(dest, format!("hi from {me} to {dest}").as_bytes())
                            .unwrap();
                    }
                    t.flush().unwrap();
                    let mut got = Vec::new();
                    while got.len() < n {
                        if let Some((src, bytes)) = t.try_recv().unwrap() {
                            got.push((src, bytes));
                        }
                    }
                    got.sort();
                    for (i, (src, bytes)) in got.iter().enumerate() {
                        assert_eq!(*src, i);
                        assert_eq!(bytes, format!("hi from {i} to {me}").as_bytes());
                    }
                    while !t.termination_round().unwrap() {}
                    t.barrier().unwrap();
                    (t.stats().frames_sent(), t.stats().frames_recv())
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), (3, 3));
        }
    }

    #[test]
    fn skewed_ranks_still_terminate() {
        // Rank 0 sends a burst late; ranks spin termination rounds in the
        // meantime and must not declare quiescence before the burst lands.
        let mesh = tcp_mesh(2);
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    let me = t.rank();
                    if me == 0 {
                        std::thread::sleep(Duration::from_millis(50));
                        for i in 0..100u32 {
                            t.send(1, &i.to_le_bytes()).unwrap();
                        }
                    }
                    let mut recvd = 0u64;
                    loop {
                        while t.try_recv().unwrap().is_some() {
                            recvd += 1;
                        }
                        if t.termination_round().unwrap() {
                            break;
                        }
                    }
                    (me, recvd)
                })
            })
            .collect();
        let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort();
        assert_eq!(results, vec![(0, 0), (1, 100)]);
    }

    #[test]
    fn dead_peer_fails_barrier_with_its_rank() {
        let mut mesh = tcp_mesh(2);
        let t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        drop(t1); // rank 1 "dies": its sockets close, rank 0 sees EOF
        let err = t0.barrier().expect_err("barrier must not complete against a dead peer");
        match err {
            NetError::PeerDisconnected { rank, .. } => assert_eq!(rank, 1),
            // The send itself may observe the closed socket first.
            other => assert_eq!(other.rank(), Some(1), "{other}"),
        }
    }

    #[test]
    fn dead_peer_fails_termination_round_fast() {
        let mut mesh = tcp_mesh(2);
        let t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        drop(t1);
        let start = Instant::now();
        let err = t0.termination_round().unwrap_err();
        assert_eq!(err.rank(), Some(1), "{err}");
        // Fast-fail, not the 120 s collective deadline.
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    /// End-to-end recovery protocol: a 3-rank recovery-mode mesh loses
    /// rank 2, the survivors absorb the death (sends masked, no error), a
    /// replacement incarnation dials back in, and the whole mesh — voided
    /// accounting included — reaches four-counter quiescence again.
    #[test]
    fn recovery_reconnect_and_terminate() {
        let dir = std::env::temp_dir().join(format!(
            "dakc-net-recover-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    TcpTransport::rendezvous_recover(
                        rank,
                        3,
                        &dir,
                        8 << 10,
                        NetTuning::default(),
                        0,
                    )
                    .unwrap()
                })
            })
            .collect();
        let mut mesh: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &mut mesh {
            t.arm_recovery(true);
        }
        // Full exchange: every rank one frame to every rank, all popped.
        for t in &mut mesh {
            for dest in 0..3 {
                t.send(dest, b"pre").unwrap();
            }
            t.flush().unwrap();
        }
        for t in &mut mesh {
            let mut got = 0;
            let start = Instant::now();
            while got < 3 {
                if t.try_recv().unwrap().is_some() {
                    got += 1;
                }
                assert!(start.elapsed() < Duration::from_secs(10));
            }
        }
        let t2 = mesh.pop().unwrap();
        drop(t2); // rank 2 dies

        // Survivors absorb the death instead of erroring; sends to the
        // dead rank are dropped uncounted.
        let start = Instant::now();
        for t in &mut mesh {
            while !t.recovery_pending() {
                t.poll_recovery().unwrap();
                assert!(start.elapsed() < Duration::from_secs(10), "death never absorbed");
                std::thread::sleep(Duration::from_millis(1));
            }
            t.send(2, b"masked").unwrap();
            assert_eq!(t.stats().masked_sends, 1);
        }

        // The replacement incarnation rejoins (dials land in the
        // survivors' listener backlogs, so this completes inline).
        let mut t2 = TcpTransport::rendezvous_recover(
            2,
            3,
            &dir,
            8 << 10,
            NetTuning::default(),
            1,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let start = Instant::now();
        for t in &mut mesh {
            let rec = loop {
                if let Some(rec) = t.poll_recovery().unwrap() {
                    break rec;
                }
                assert!(start.elapsed() < Duration::from_secs(10), "reconnect never completed");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!((rec.rank, rec.incarnation), (2, 1));
            assert!(!t.recovery_pending());
            assert_eq!(t.stats().recoveries, 1);
        }

        // Post-recovery traffic flows in both directions.
        mesh[0].send(2, b"post").unwrap();
        mesh[0].flush().unwrap();
        t2.send(0, b"post-back").unwrap();
        t2.flush().unwrap();
        let start = Instant::now();
        loop {
            if let Some((src, bytes)) = t2.try_recv().unwrap() {
                assert_eq!((src, bytes.as_slice()), (0, b"post".as_slice()));
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(10));
        }
        loop {
            if let Some((src, bytes)) = mesh[0].try_recv().unwrap() {
                assert_eq!((src, bytes.as_slice()), (2, b"post-back".as_slice()));
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(10));
        }

        // The voided accounting still reaches global quiescence.
        mesh.push(t2);
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    loop {
                        while t.try_recv().unwrap().is_some() {}
                        if t.termination_round().unwrap() {
                            return t.rank();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Polls `t.try_recv` until a frame arrives (the reader thread hands
    /// frames over asynchronously) or `deadline` passes.
    fn recv_within(t: &mut TcpTransport, deadline: Duration) -> Option<(Rank, Vec<u8>)> {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if let Some(got) = t.try_recv().unwrap() {
                return Some(got);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn small_frames_wait_in_the_socket_buffer_until_flush() {
        let mut mesh = tcp_mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        // Far smaller than SOCKET_BUF_BYTES: the frames coalesce in the
        // send buffer instead of costing a syscall each.
        for i in 0..10u8 {
            t0.send(1, &[i; 100]).unwrap();
        }
        // Header and payload are written in place, and the bytes are
        // exactly `encode_frame`'s.
        let wire: Vec<u8> =
            (0..10u8).flat_map(|i| encode_frame(FrameKind::Data, &[i; 100])).collect();
        assert_eq!(t0.writers[1].as_ref().unwrap().buffer(), wire);
        assert!(recv_within(&mut t1, Duration::from_millis(50)).is_none(), "nothing flushed yet");
        t0.flush().unwrap();
        for i in 0..10u8 {
            let got = recv_within(&mut t1, Duration::from_secs(10)).expect("delivered after flush");
            assert_eq!(got, (0, vec![i; 100]));
        }
    }

    #[test]
    fn an_idle_try_recv_flushes_what_is_buffered() {
        let mut mesh = tcp_mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t0.send(1, b"queued").unwrap();
        assert!(!t0.writers[1].as_ref().unwrap().buffer().is_empty());
        // `progress` on a rank with nothing to process ends in a
        // `try_recv` that finds the inbox empty: that is the flush.
        assert_eq!(t0.try_recv().unwrap(), None);
        assert!(t0.writers[1].as_ref().unwrap().buffer().is_empty(), "idle poll must flush");
        let got = recv_within(&mut t1, Duration::from_secs(10)).expect("delivered by the idle flush");
        assert_eq!(got, (0, b"queued".to_vec()));
        assert_eq!(t0.stats().frames_sent(), 1);
    }

    #[test]
    fn corrupt_wire_bytes_surface_as_typed_error() {
        let mut mesh = tcp_mesh(2);
        let mut t1 = mesh.pop().unwrap();
        let mut t0 = mesh.pop().unwrap();
        t1.send_corrupt(0).unwrap();
        let start = Instant::now();
        let err = loop {
            match t0.try_recv() {
                Ok(_) => {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "corrupt frame never surfaced"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(
                err,
                NetError::OversizedFrame { rank: 1, .. } | NetError::CorruptFrame { rank: 1, .. }
            ),
            "{err}"
        );
    }
}
