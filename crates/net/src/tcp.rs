//! [`crate::Transport`] backend over `std::net::TcpStream`.
//!
//! This module is the TCP byte mover; barriers, termination rounds and
//! recovery are the shared [`crate::protocol`] core. Topology is a full
//! mesh: rank `i` dials every lower rank and accepts every higher rank,
//! identifying itself with a 4-byte rank hello (8 bytes with the
//! incarnation on recovery-mode meshes), so each socket's peer is known up
//! front. Per peer the endpoint keeps a send-side [`BufWriter`] of
//! [`SOCKET_BUF_BYTES`] (or one L0 buffer, if that is larger) that
//! coalesces many L0 `PUT`s into one `write` — the L0 idea applied to the
//! real wire — and a reader thread that reads as much per syscall, decodes
//! frames incrementally and feeds the endpoint's inbox. Buffered frames
//! reach the wire when the buffer fills, at every collective and when
//! `try_recv` finds the rank idle.
//!
//! Failure semantics: nothing here panics or hangs forever. A reader
//! thread that sees EOF, a reset, or a corrupt stream reports a `Gone`
//! event instead of panicking. Connection setup and transient send stalls
//! retry with capped exponential backoff plus deterministic jitter, within
//! the tuned deadlines.
//!
//! Address discovery is a rendezvous directory: every rank binds an
//! ephemeral port, atomically publishes `rank<i>.addr`, and dials the
//! ranks it must reach as their files appear — which is how `dakc launch`
//! wires up self-spawned workers on localhost.

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::endpoint::{Endpoint, Wire};
use crate::error::{NetError, NetResult};
use crate::frame::{encode_frame, FrameDecoder, FrameKind};
use crate::protocol::{Event, Protocol, MAX_PAYLOAD};
use crate::transport::{NetNote, NetStats, NetTuning, Rank};

/// Per-peer socket buffer, each way: decoupled from the cascade's `C0` so
/// that a small L0 buffer (2 KiB under `scaled_defaults`) does not turn
/// every other `PUT` into a `write` and a `read` syscall. A rank holds
/// `2 × (P − 1)` of them.
pub const SOCKET_BUF_BYTES: usize = 64 << 10;

/// A send (or flush) slower than this counts as one backpressure stall.
const STALL_THRESHOLD: Duration = Duration::from_millis(1);

/// Hello rank tag for a supervisor recovery announcement: the connection
/// is not a mesh peer dialing in but the launcher delivering one framed
/// [`FrameKind::Recover`] and closing.
pub const RECOVER_HELLO: u32 = u32::MAX;

/// Sleeps `*delay`, then doubles it up to 10 ms: the set-up polls (address
/// files, the accept queue) answer within a millisecond when every rank
/// starts together and must not spin when one is late.
fn poll_backoff(delay: &mut Duration) {
    std::thread::sleep(*delay);
    *delay = (*delay * 2).min(Duration::from_millis(10));
}

fn io_err(context: String, peer: Option<Rank>, e: &std::io::Error) -> NetError {
    NetError::from_io(context, peer, e)
}

/// A connection hello: the rank, plus its incarnation on recovery-mode
/// meshes (off, the 4-byte hello is unchanged).
fn hello(rank: u32, incarnation: Option<u32>) -> Vec<u8> {
    let mut h = rank.to_le_bytes().to_vec();
    h.extend(incarnation.map(u32::to_le_bytes).into_iter().flatten());
    h
}

/// Reads a hello as `(rank, incarnation)`. A connected-but-mute dialer
/// fails after 5 s instead of wedging the reader; the timeout stays set
/// until the stream becomes a mesh link.
fn read_hello(stream: &mut TcpStream, with_incarnation: bool) -> std::io::Result<(u32, u32)> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut h = [0u8; 8];
    stream.read_exact(&mut h[..if with_incarnation { 8 } else { 4 }])?;
    let word = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("4 bytes"));
    Ok((word(0), word(4)))
}

/// Where rank `peer` published its listener under `dir`, if it has.
fn published(dir: &Path, peer: Rank) -> Option<SocketAddr> {
    std::fs::read_to_string(dir.join(format!("rank{peer}.addr")))
        .ok()
        .and_then(|t| t.trim().parse().ok())
}

/// Announces a respawn to every surviving rank of a recovery-mode mesh:
/// dials each `rank<i>.addr` published under `dir` (skipping `dead`
/// itself), identifies as [`RECOVER_HELLO`], and delivers one typed
/// [`FrameKind::Recover`] frame naming the dead rank and its new
/// incarnation. Best-effort by design — a survivor that cannot be
/// reached still learns of the respawn when the replacement dials it
/// directly; the announcement's job is to refresh reconnect deadlines.
/// Returns how many survivors were notified.
pub fn announce_recovery(dir: &Path, n: usize, dead: Rank, incarnation: u32) -> usize {
    let mut payload = (dead as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(&incarnation.to_le_bytes());
    let mut wire = hello(RECOVER_HELLO, Some(incarnation));
    wire.extend(encode_frame(FrameKind::Recover, &payload));
    (0..n)
        .filter(|&p| p != dead)
        .filter_map(|p| TcpStream::connect(published(dir, p)?).ok())
        .filter(|mut s| s.write_all(&wire).and_then(|()| s.flush()).is_ok())
        .count()
}

/// Reads the one Recover frame of a supervisor announcement: the rank
/// being respawned. Best-effort: anything else is `None`.
fn read_announcement(stream: &mut TcpStream) -> Option<Rank> {
    let mut frame = [0u8; 13];
    stream.read_exact(&mut frame).ok()?;
    let head = encode_frame(FrameKind::Recover, &[0; 8]);
    (frame[..5] == head[..5])
        .then(|| u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes")) as usize)
}

/// Dials `peer`, re-reading its published address each attempt (a peer
/// that is itself mid-respawn republishes a new one), until the connect
/// deadline. Refused connects back off per `tuning` and count as retries.
fn dial(
    me: Rank,
    peer: Rank,
    dir: &Path,
    tuning: &NetTuning,
    retries: &mut u64,
) -> NetResult<TcpStream> {
    let start = Instant::now();
    let mut attempt = 0u32;
    let mut poll = Duration::from_millis(1);
    loop {
        let addr = published(dir, peer);
        let last = match addr.map(TcpStream::connect) {
            Some(Ok(s)) => return Ok(s),
            Some(Err(e)) => e.to_string(),
            None => "no published address".to_string(),
        };
        if start.elapsed() > tuning.connect_timeout {
            return Err(NetError::timeout(
                "connect",
                start.elapsed(),
                format!("rank {me}: dialing rank {peer} ({attempt} retries, last error: {last})"),
            ));
        }
        if addr.is_some() {
            attempt += 1;
            *retries += 1;
            std::thread::sleep(tuning.backoff(attempt, ((me as u64) << 32) | peer as u64));
        } else {
            poll_backoff(&mut poll);
        }
    }
}

/// Accepts the `n − me − 1` higher ranks without blocking forever on a
/// spawn that never happened: polls the nonblocking listener under the
/// connect deadline.
fn accept_higher(
    me: Rank,
    listener: &TcpListener,
    tuning: &NetTuning,
    with_incarnation: bool,
    streams: &mut [Option<TcpStream>],
) -> NetResult<()> {
    let n = streams.len();
    let ctx = |what: &str| format!("rank {me}: accept {what}");
    let start = Instant::now();
    let mut poll = Duration::from_millis(1);
    let expected = n - me - 1;
    let mut accepted = 0usize;
    while accepted < expected {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let (src, _) = read_hello(&mut stream, with_incarnation)
                    .map_err(|e| io_err(ctx("hello"), None, &e))?;
                let src = src as usize;
                if src <= me || src >= n || streams[src].is_some() {
                    return Err(NetError::Protocol {
                        detail: format!("rank {me}: unexpected hello from rank {src}"),
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
                        format!("rank {me}: accepted {accepted} of {expected} higher ranks"),
                    ));
                }
                poll_backoff(&mut poll);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(ctx("listen"), None, &e)),
        }
    }
    Ok(())
}

/// The TCP byte mover.
pub struct TcpWire {
    me: Rank,
    /// Per-peer buffered writers (`None` at `me` — self-sends bypass the
    /// wire — and for links closed by a recoverable death).
    writers: Vec<Option<BufWriter<TcpStream>>>,
    /// The inbox's sender, cloned into every reader thread.
    tx: mpsc::Sender<Event>,
    tuning: NetTuning,
    buf_bytes: usize,
    /// Recovery mode only: the rendezvous listener, retained so respawned
    /// peers (and the supervisor's announcements) can dial in.
    relisten: Option<TcpListener>,
    /// Reconnect dials that arrived before this rank registered the peer's
    /// death: `(peer, incarnation, stream)`.
    early: Vec<(Rank, u32, TcpStream)>,
}

impl TcpWire {
    /// Makes `stream` the link to `peer`: its writer here, its reader
    /// thread feeding the inbox.
    fn link(&mut self, peer: Rank, stream: TcpStream) -> NetResult<()> {
        let me = self.me;
        let ctx = |what: &str| format!("rank {me}: {what} to rank {peer}");
        let set = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(None))
            // A send that sits in the OS buffer past the collective
            // deadline is a wedge, not backpressure.
            .and_then(|()| stream.set_write_timeout(Some(self.tuning.collective_timeout)));
        set.map_err(|e| io_err(ctx("configure"), Some(peer), &e))?;
        let reader = stream
            .try_clone()
            .map_err(|e| io_err(ctx("clone stream"), Some(peer), &e))?;
        let (tx, buf_bytes, envelope) = (self.tx.clone(), self.buf_bytes, self.relisten.is_some());
        std::thread::Builder::new()
            .name(format!("dakc-net-r{me}p{peer}"))
            .spawn(move || reader_loop(peer, reader, tx, buf_bytes, envelope))
            .map_err(|e| io_err(ctx("spawn reader"), None, &e))?;
        self.writers[peer] = Some(BufWriter::with_capacity(self.buf_bytes, stream));
        Ok(())
    }

    /// Runs `op` on `dest`'s writer, retrying transient stalls
    /// (`WouldBlock`/`TimedOut`) with backoff and classifying failures.
    fn retry(
        &mut self,
        dest: Rank,
        stats: &mut NetStats,
        mut op: impl FnMut(&mut BufWriter<TcpStream>) -> std::io::Result<()>,
    ) -> NetResult<()> {
        let me = self.me;
        let Some(w) = self.writers[dest].as_mut() else {
            return Err(NetError::Protocol {
                detail: format!("rank {me} has no connection to rank {dest}"),
            });
        };
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            match op(w) {
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
                    stats.retries += 1;
                    let delay = self
                        .tuning
                        .backoff(attempt, ((me as u64) << 32) | dest as u64);
                    stats.note(NetNote::Retry {
                        dest,
                        attempt,
                        delay_us: delay.as_micros() as u64,
                    });
                    std::thread::sleep(delay);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(io_err(
                        format!("rank {me} send to rank {dest}"),
                        Some(dest),
                        &e,
                    ))
                }
            }
        }
        if t0.elapsed() >= STALL_THRESHOLD {
            stats.send_stalls += 1;
        }
        Ok(())
    }

    /// Classifies one connection on the retained listener: the supervisor
    /// announcing a respawn (refreshes the reconnect clock), or a
    /// respawned peer dialing back in (kept until its death is
    /// registered). Both are best-effort: a half-open or garbled dialer is
    /// dropped, never fatal — the reconnect deadline is the backstop.
    fn accept_dial(&mut self, mut stream: TcpStream, core: &mut Protocol) {
        let Ok((who, inc)) = read_hello(&mut stream, true) else {
            return;
        };
        if who == RECOVER_HELLO {
            if let Some(dead) = read_announcement(&mut stream) {
                core.announced(dead, Instant::now());
            }
            return;
        }
        if core.welcomes(who as usize, inc) {
            self.early.push((who as usize, inc, stream));
        }
    }
}

impl Wire for TcpWire {
    /// Writes one frame — header, envelope, then payload — straight into
    /// the peer's buffered writer. Without recovery the bytes are exactly
    /// [`encode_frame`]'s; with it the incarnation follows the kind byte
    /// (stripped back off by the receiving reader thread).
    fn send(
        &mut self,
        dest: Rank,
        kind: FrameKind,
        inc: Option<u32>,
        payload: &[u8],
        stats: &mut NetStats,
    ) -> NetResult<()> {
        let mut head = [0u8; 9];
        let head_len = if let Some(inc) = inc {
            head[5..].copy_from_slice(&inc.to_le_bytes());
            9
        } else {
            5
        };
        head[..4].copy_from_slice(&((head_len - 4 + payload.len()) as u32).to_le_bytes());
        head[4] = kind.to_u8();
        let head = &head[..head_len];
        self.retry(dest, stats, |w| {
            w.write_all(head).and_then(|()| w.write_all(payload))
        })
    }

    fn flush(&mut self, dest: Rank, stats: &mut NetStats) -> NetResult<()> {
        if self.writers[dest].is_none() {
            return Ok(());
        }
        self.retry(dest, stats, |w| w.flush())
    }

    fn buffered(&self) -> bool {
        self.writers
            .iter()
            .flatten()
            .any(|w| !w.buffer().is_empty())
    }

    fn close(&mut self, peer: Rank) {
        // Dropping the writer flushes best-effort into the dead socket and
        // closes our side.
        self.writers[peer] = None;
    }

    fn send_corrupt(&mut self, dest: Rank, stats: &mut NetStats) -> NetResult<()> {
        // An all-ones length prefix: the peer's decoder must reject it as
        // oversized without buffering a giant payload.
        self.retry(dest, stats, |w| w.write_all(&[0xFF; 16]))?;
        self.flush(dest, stats)
    }

    fn poll_reconnect(&mut self, core: &mut Protocol) -> NetResult<Option<(Rank, u32)>> {
        loop {
            let Some(listener) = &self.relisten else {
                return Ok(None);
            };
            let accepted = listener.accept();
            match accepted {
                Ok((stream, _)) => self.accept_dial(stream, core),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(io_err(
                        format!("rank {}: recovery accept", self.me),
                        None,
                        &e,
                    ))
                }
            }
        }
        let Some(i) = self.early.iter().position(|&(who, _, _)| core.masked(who)) else {
            return Ok(None);
        };
        let (peer, inc, stream) = self.early.remove(i);
        self.link(peer, stream)?;
        Ok(Some((peer, inc)))
    }
}

impl Drop for TcpWire {
    fn drop(&mut self) {
        // Flush buffered frames, then shut each socket down both ways. The
        // write shutdown puts FIN on the wire immediately, so peers' reader
        // threads see EOF (and raise `Gone`) even if this rank's own reader
        // threads are parked in a blocking read — death detection must not
        // depend on a peer sending us something first. The read shutdown
        // unblocks those parked reader threads so they exit instead of
        // lingering until process exit.
        for w in self.writers.iter_mut().flatten() {
            let _ = w.flush();
            let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
        }
    }
}

fn reader_loop(
    src: Rank,
    mut stream: TcpStream,
    tx: mpsc::Sender<Event>,
    buf_bytes: usize,
    envelope: bool,
) {
    // The frame bound plus the kind byte and the envelope: a flipped
    // length prefix cannot demand a giant allocation.
    let env = if envelope { 4 } else { 0 };
    let mut dec = FrameDecoder::with_max_len(1 + env + MAX_PAYLOAD);
    let mut buf = vec![0u8; buf_bytes];
    let gone = |error| {
        let _ = tx.send(Event::Gone(src, error));
    };
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return gone(None),
            Ok(k) => {
                dec.feed(&buf[..k]);
                loop {
                    match dec.next_frame() {
                        Ok(Some((kind, mut payload))) => {
                            let inc = if envelope {
                                let Some(tag) = payload.get(..4) else {
                                    return gone(Some(NetError::CorruptFrame {
                                        rank: src,
                                        detail: format!(
                                            "frame too short for epoch envelope: {} bytes",
                                            payload.len()
                                        ),
                                    }));
                                };
                                let inc = u32::from_le_bytes(tag.try_into().expect("4 bytes"));
                                payload.drain(..4);
                                inc
                            } else {
                                0
                            };
                            if tx.send(Event::Frame(src, kind, inc, payload)).is_err() {
                                // Endpoint dropped: stop reading.
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => return gone(Some(NetError::from_frame(src, &e))),
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return gone(Some(NetError::from_io(
                    format!("read from rank {src}"),
                    Some(src),
                    &e,
                )))
            }
        }
    }
}

/// One rank's TCP endpoint.
pub type TcpTransport = Endpoint<TcpWire>;

impl TcpTransport {
    /// Binds an ephemeral localhost port, publishes it as
    /// `<dir>/rank<i>.addr` (atomic write), and connects the mesh with
    /// default tuning. `buf_bytes` is the job's L0 `c0_bytes`: the
    /// per-peer send and receive buffers are that or [`SOCKET_BUF_BYTES`],
    /// whichever is larger. This is the `dakc launch` self-spawn path.
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
        connect_mesh(rank, n, dir, buf_bytes, tuning, None)
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
        connect_mesh(rank, n, dir, buf_bytes, tuning, Some(incarnation))
    }
}

/// Publishes this rank's listener, dials the ranks it must reach, accepts
/// the rest, and wires every link. A fresh mesh dials the lower ranks
/// (they publish first by construction) and accepts the higher ones; a
/// respawned rank (incarnation > 0) dials every survivor, whose retained
/// listeners accept it.
fn connect_mesh(
    me: Rank,
    n: usize,
    dir: &Path,
    buf_bytes: usize,
    tuning: NetTuning,
    incarnation: Option<u32>,
) -> NetResult<TcpTransport> {
    assert!(me < n, "rank {me} out of range for {n} ranks");
    let ctx = |what: &str| format!("rank {me}: rendezvous {what}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(ctx("bind"), None, &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| io_err(ctx("local_addr"), None, &e))?;
    let tmp = dir.join(format!(".rank{me}.addr.tmp"));
    std::fs::write(&tmp, addr.to_string())
        .and_then(|()| std::fs::rename(&tmp, dir.join(format!("rank{me}.addr"))))
        .map_err(|e| io_err(ctx("publish"), None, &e))?;

    let rejoin = incarnation.is_some_and(|i| i > 0);
    let mut stats = NetStats::new(n);
    let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    for peer in (0..if rejoin { n } else { me }).filter(|&p| p != me) {
        let mut s = dial(me, peer, dir, &tuning, &mut stats.retries)?;
        s.write_all(&hello(me as u32, incarnation))
            .and_then(|()| s.flush())
            .map_err(|e| io_err(format!("rank {me}: hello to rank {peer}"), Some(peer), &e))?;
        streams[peer] = Some(s);
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(ctx("listener nonblocking"), None, &e))?;
    if !rejoin {
        accept_higher(me, &listener, &tuning, incarnation.is_some(), &mut streams)?;
    }
    let (tx, rx) = mpsc::channel();
    let mut wire = TcpWire {
        me,
        writers: (0..n).map(|_| None).collect(),
        tx,
        tuning: tuning.clone(),
        buf_bytes: buf_bytes.max(SOCKET_BUF_BYTES),
        relisten: incarnation.map(|_| listener),
        early: Vec::new(),
    };
    for (peer, stream) in streams.into_iter().enumerate() {
        if let Some(s) = stream {
            wire.link(peer, s)?;
        }
    }
    Ok(Endpoint::new(
        Protocol::new(me, n, incarnation),
        wire,
        rx,
        stats,
        tuning,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::Transport;

    /// Builds an in-process TCP mesh on localhost ephemeral ports.
    pub(crate) fn tcp_mesh_tuned(n: usize, tuning: NetTuning) -> Vec<TcpTransport> {
        static MESHES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let id = MESHES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dakc-net-test-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let (dir, tuning) = (dir.clone(), tuning.clone());
                std::thread::spawn(move || {
                    TcpTransport::rendezvous_tuned(rank, n, &dir, 8 << 10, tuning).unwrap()
                })
            })
            .collect();
        let mesh = handles.into_iter().map(|h| h.join().unwrap()).collect();
        std::fs::remove_dir_all(&dir).ok();
        mesh
    }

    fn tcp_mesh(n: usize) -> Vec<TcpTransport> {
        tcp_mesh_tuned(n, NetTuning::default())
    }

    conformance_suite!(tcp_mesh_tuned);

    #[test]
    fn single_rank_needs_no_sockets() {
        let mut t = tcp_mesh(1).remove(0);
        assert!(
            t.wire.writers.iter().all(Option::is_none),
            "a lone rank dials nobody"
        );
        t.send(0, b"self").unwrap();
        assert_eq!(t.try_recv().unwrap(), Some((0, b"self".to_vec())));
        assert!(!t.termination_round().unwrap());
        assert!(t.termination_round().unwrap());
        t.barrier().unwrap();
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
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "death never absorbed"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            t.send(2, b"masked").unwrap();
            assert_eq!(t.stats().masked_sends, 1);
        }

        // The replacement incarnation rejoins (dials land in the
        // survivors' listener backlogs, so this completes inline).
        let mut t2 =
            TcpTransport::rendezvous_recover(2, 3, &dir, 8 << 10, NetTuning::default(), 1).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let start = Instant::now();
        for t in &mut mesh {
            let rec = loop {
                if let Some(rec) = t.poll_recovery().unwrap() {
                    break rec;
                }
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "reconnect never completed"
                );
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
                std::thread::spawn(move || loop {
                    while t.try_recv().unwrap().is_some() {}
                    if t.termination_round().unwrap() {
                        return t.rank();
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
        let wire: Vec<u8> = (0..10u8)
            .flat_map(|i| encode_frame(FrameKind::Data, &[i; 100]))
            .collect();
        assert_eq!(t0.wire.writers[1].as_ref().unwrap().buffer(), wire);
        assert!(
            recv_within(&mut t1, Duration::from_millis(50)).is_none(),
            "nothing flushed yet"
        );
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
        assert!(!t0.wire.writers[1].as_ref().unwrap().buffer().is_empty());
        // `progress` on a rank with nothing to process ends in a
        // `try_recv` that finds the inbox empty: that is the flush.
        assert_eq!(t0.try_recv().unwrap(), None);
        assert!(
            t0.wire.writers[1].as_ref().unwrap().buffer().is_empty(),
            "idle poll must flush"
        );
        let got =
            recv_within(&mut t1, Duration::from_secs(10)).expect("delivered by the idle flush");
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
