//! One [`Transport`] implementation over any byte mover.
//!
//! An [`Endpoint`] pairs the collective-protocol core ([`Protocol`]) with
//! a backend's [`Wire`] and one inbox of events that the backend's
//! receive side (TCP reader threads, loopback peers' channel senders)
//! feeds. Everything the two backends used to implement twice lives here:
//! send counting and masking, the frame bound, `try_recv` (pending data,
//! then the inbox), the barrier and termination-round loops, the deadline
//! pump, and diagnostics.
//!
//! Data frames that arrive during a collective wait are kept for the next
//! `try_recv` and are *not* counted as received until then, which the
//! termination protocol requires.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::error::{NetError, NetResult};
use crate::frame::FrameKind;
use crate::protocol::{Event, Protocol, Round, MAX_PAYLOAD};
use crate::transport::{NetStats, NetTuning, Rank, Recovered, Transport};

/// How long one inbox wait blocks before re-checking deadlines and dead
/// peers. Bounds the latency of fast-fail detection during collectives.
const PUMP_SLICE: Duration = Duration::from_millis(50);

/// A backend's byte mover: it moves framed bytes to peers and feeds the
/// endpoint's inbox, and knows nothing of barriers, rounds or
/// incarnations.
pub trait Wire: Send {
    /// Queues one frame for `dest` (never this rank), tagged with the
    /// sender's incarnation `inc` on recovery-mode meshes.
    fn send(
        &mut self,
        dest: Rank,
        kind: FrameKind,
        inc: Option<u32>,
        payload: &[u8],
        stats: &mut NetStats,
    ) -> NetResult<()>;

    /// Pushes `dest`'s buffered bytes to the wire.
    fn flush(&mut self, _dest: Rank, _stats: &mut NetStats) -> NetResult<()> {
        Ok(())
    }

    /// Whether any peer has bytes buffered but not yet flushed.
    fn buffered(&self) -> bool {
        false
    }

    /// Closes this side of `peer`'s link after a recoverable death.
    fn close(&mut self, _peer: Rank) {}

    /// Writes deliberately malformed bytes to `dest`, if there is a framing
    /// layer to corrupt.
    fn send_corrupt(&mut self, _dest: Rank, _stats: &mut NetStats) -> NetResult<()> {
        Ok(())
    }

    /// Accepts a respawned peer's reconnection, if one is ready and its
    /// death is registered in `core`: rewires the link and returns the
    /// peer with its new incarnation.
    fn poll_reconnect(&mut self, _core: &mut Protocol) -> NetResult<Option<(Rank, u32)>> {
        Ok(None)
    }
}

/// One rank's endpoint: the protocol core over a backend's byte mover.
pub struct Endpoint<W> {
    core: Protocol,
    pub(crate) wire: W,
    rx: mpsc::Receiver<Event>,
    /// Self-sends and data frames that arrived during a collective wait.
    pending: VecDeque<(Rank, Vec<u8>)>,
    stats: NetStats,
    tuning: NetTuning,
}

impl<W> std::fmt::Debug for Endpoint<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.core.rank())
            .field("n", &self.core.num_ranks())
            .finish_non_exhaustive()
    }
}

impl<W: Wire> Endpoint<W> {
    /// Assembles an endpoint; `rx` is the inbox `wire`'s receive side
    /// feeds.
    pub(crate) fn new(
        core: Protocol,
        wire: W,
        rx: mpsc::Receiver<Event>,
        stats: NetStats,
        tuning: NetTuning,
    ) -> Self {
        Self {
            core,
            wire,
            rx,
            pending: VecDeque::new(),
            stats,
            tuning,
        }
    }

    /// Sends one control payload to every live peer.
    fn broadcast(&mut self, kind: FrameKind, payload: &[u8]) -> NetResult<()> {
        let inc = self.core.envelope();
        let targets: Vec<Rank> = self.core.targets().collect();
        for dest in targets {
            let sent = self.wire.send(dest, kind, inc, payload, &mut self.stats);
            self.absorb_send(dest, sent)?;
        }
        self.flush()
    }

    /// Routes a failed write through the core: a recoverable death closes
    /// the link (`Ok(true)`), anything else is the caller's error.
    fn absorb_send(&mut self, dest: Rank, sent: NetResult<()>) -> NetResult<bool> {
        let Err(e) = sent else { return Ok(false) };
        self.core.on_send_error(dest, e, Instant::now())?;
        self.wire.close(dest);
        Ok(true)
    }

    /// Handles one inbox event; a data frame comes back for delivery.
    fn absorb(&mut self, ev: Event) -> NetResult<Option<(Rank, Vec<u8>)>> {
        match ev {
            Event::Frame(src, kind, inc, payload) => Ok(self
                .core
                .on_frame(src, kind, inc, payload, &mut self.stats)?
                .map(|p| (src, p))),
            Event::Gone(src, error) => {
                if self.core.on_gone(src, error, Instant::now())? {
                    self.wire.close(src);
                }
                Ok(None)
            }
        }
    }

    /// Waits up to one slice for an inbox event and absorbs it, keeping
    /// data for `try_recv`. Errors with a diagnostic timeout once `start`
    /// is older than the collective deadline.
    fn pump(&mut self, start: Instant, phase: &str) -> NetResult<()> {
        match self.rx.recv_timeout(PUMP_SLICE) {
            Ok(ev) => {
                if let Some(data) = self.absorb(ev)? {
                    self.pending.push_back(data);
                }
                Ok(())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let waited = start.elapsed();
                if waited >= self.tuning.collective_timeout {
                    Err(NetError::timeout(phase, waited, self.diagnostics()))
                } else {
                    Ok(())
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Protocol {
                detail: format!("rank {}: inbox channel closed", self.core.rank()),
            }),
        }
    }
}

impl<W: Wire> Transport for Endpoint<W> {
    fn rank(&self) -> Rank {
        self.core.rank()
    }

    fn num_ranks(&self) -> usize {
        self.core.num_ranks()
    }

    fn send(&mut self, dest: Rank, frame: &[u8]) -> NetResult<()> {
        self.send_kind(dest, FrameKind::Data, frame)
    }

    fn send_kind(&mut self, dest: Rank, kind: FrameKind, frame: &[u8]) -> NetResult<()> {
        let me = self.core.rank();
        if frame.len() > MAX_PAYLOAD {
            return Err(NetError::OversizedFrame {
                rank: me,
                len: u32::try_from(frame.len()).unwrap_or(u32::MAX),
                max: MAX_PAYLOAD as u32,
            });
        }
        // Sends to a masked (dead, awaiting respawn) rank are dropped
        // *uncounted*: the replacement replays this content, and the
        // four-counter totals must not include frames nobody will receive.
        if self.core.masked(dest) {
            self.stats.masked_sends += 1;
            return Ok(());
        }
        self.stats.peers[dest].frames_sent += 1;
        self.stats.peers[dest].bytes_sent += frame.len() as u64;
        if dest == me {
            self.pending.push_back((me, frame.to_vec()));
            return Ok(());
        }
        let sent = self
            .wire
            .send(dest, kind, self.core.envelope(), frame, &mut self.stats);
        if self.absorb_send(dest, sent)? {
            // The peer died under this send: the frame was counted but
            // never left, so void it back out.
            self.stats.peers[dest].frames_sent -= 1;
            self.stats.peers[dest].bytes_sent -= frame.len() as u64;
        }
        Ok(())
    }

    fn try_recv(&mut self) -> NetResult<Option<(Rank, Vec<u8>)>> {
        loop {
            let got = match self.pending.pop_front() {
                Some(data) => Some(data),
                None => match self.rx.try_recv() {
                    Ok(ev) => self.absorb(ev)?,
                    Err(_) => {
                        // Idle: whatever sits in the send buffers is what
                        // the peers are waiting for.
                        if self.wire.buffered() {
                            self.flush()?;
                        }
                        return Ok(None);
                    }
                },
            };
            if let Some((src, bytes)) = got {
                self.stats.peers[src].frames_recv += 1;
                self.stats.peers[src].bytes_recv += bytes.len() as u64;
                return Ok(Some((src, bytes)));
            }
        }
    }

    fn flush(&mut self) -> NetResult<()> {
        for dest in 0..self.core.num_ranks() {
            let flushed = self.wire.flush(dest, &mut self.stats);
            self.absorb_send(dest, flushed)?;
        }
        Ok(())
    }

    fn barrier(&mut self) -> NetResult<()> {
        let (epoch, payload) = self.core.start_barrier();
        self.broadcast(FrameKind::Barrier, &payload)?;
        let start = Instant::now();
        while !self.core.barrier_done(epoch, &mut self.stats)? {
            self.pump(start, "barrier")?;
        }
        Ok(())
    }

    fn termination_round(&mut self) -> NetResult<bool> {
        self.flush()?;
        let Some((round, payload)) = self.core.start_round(&self.stats) else {
            // A dead-awaiting-respawn peer owes this round: `false` keeps
            // the caller in its progress loop, driving `poll_recovery`.
            return Ok(false);
        };
        self.broadcast(FrameKind::Term, &payload)?;
        let start = Instant::now();
        loop {
            match self.core.round_state(round, &mut self.stats)? {
                Round::Decided(quiescent) => return Ok(quiescent),
                Round::Abandoned => return Ok(false),
                Round::Waiting => self.pump(start, "termination")?,
            }
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    fn last_global_totals(&self) -> Option<(u64, u64)> {
        self.core.last_global()
    }

    fn first_dead_peer(&self) -> Option<Rank> {
        self.core.first_gone()
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        self.core.gone(rank)
    }

    fn send_corrupt(&mut self, dest: Rank) -> NetResult<()> {
        if dest == self.core.rank() {
            return Ok(());
        }
        self.wire.send_corrupt(dest, &mut self.stats)
    }

    fn arm_recovery(&mut self, armed: bool) {
        self.core.arm(armed);
    }

    fn recovery_pending(&self) -> bool {
        self.core.recovery_pending()
    }

    fn poll_recovery(&mut self) -> NetResult<Option<Recovered>> {
        if !self.core.armed() {
            return Ok(None);
        }
        // Absorb whatever is queued first: a dying peer's Gone may not have
        // been seen yet, and a reconnect cannot complete before its death
        // is registered.
        while let Ok(ev) = self.rx.try_recv() {
            if let Some(data) = self.absorb(ev)? {
                self.pending.push_back(data);
            }
        }
        if let Some((peer, inc)) = self.wire.poll_reconnect(&mut self.core)? {
            // Undelivered data from the dead incarnation must not reach
            // the application: its replacement replays the content.
            self.pending.retain(|(src, _)| *src != peer);
            self.core.reconnected(peer, inc, &mut self.stats)?;
            return Ok(Some(Recovered {
                rank: peer,
                incarnation: inc,
            }));
        }
        let Some((rank, waited)) = self
            .core
            .overdue(Instant::now(), self.tuning.collective_timeout)
        else {
            return Ok(None);
        };
        let me = self.core.rank();
        let why = format!(
            "rank {me}: rank {rank} never reconnected; {}",
            self.diagnostics()
        );
        Err(NetError::timeout("recovery", waited, why))
    }

    fn diagnostics(&self) -> String {
        self.core.describe(&self.stats, self.pending.len())
    }
}
