//! In-process [`crate::Transport`] backend over channels.
//!
//! [`Loopback::mesh`] builds all N endpoints at once; hand one to each
//! thread (they are `Send`). The byte mover is one channel sender per
//! rank: a send moves the frame into the destination's inbox, so per-peer
//! ordering matches the TCP backend. Barriers and termination rounds are
//! the shared [`crate::protocol`] core, exactly as over TCP. Dropping an
//! endpoint reports it gone to every peer, so a rank whose thread fails
//! makes its peers' collectives fail fast with
//! [`crate::NetError::PeerDisconnected`] naming it.

use std::sync::mpsc;

use crate::endpoint::{Endpoint, Wire};
use crate::error::NetResult;
use crate::frame::FrameKind;
use crate::protocol::{Event, Protocol};
use crate::transport::{NetStats, NetTuning, Rank};

/// The loopback byte mover: a sender into every rank's inbox.
#[derive(Debug)]
pub struct LoopbackWire {
    me: Rank,
    inboxes: Vec<mpsc::Sender<Event>>,
}

impl Wire for LoopbackWire {
    fn send(
        &mut self,
        dest: Rank,
        kind: FrameKind,
        _inc: Option<u32>,
        payload: &[u8],
        _stats: &mut NetStats,
    ) -> NetResult<()> {
        let src = self.me;
        // A closed inbox belongs to a rank that already left; its gone
        // event tells the protocol, as a write into a closed socket would.
        let _ = self.inboxes[dest].send(Event::Frame(src, kind, 0, payload.to_vec()));
        Ok(())
    }
}

impl Drop for LoopbackWire {
    fn drop(&mut self) {
        for (peer, inbox) in self.inboxes.iter().enumerate() {
            if peer != self.me {
                let _ = inbox.send(Event::Gone(self.me, None));
            }
        }
    }
}

/// One rank's endpoint of an in-process mesh.
pub type Loopback = Endpoint<LoopbackWire>;

impl Loopback {
    /// Builds the full mesh with default tuning: element `i` is rank `i`'s
    /// endpoint.
    pub fn mesh(n: usize) -> Vec<Loopback> {
        Self::mesh_tuned(n, NetTuning::default())
    }

    /// Builds the full mesh with explicit deadlines/retry tuning.
    pub fn mesh_tuned(n: usize, tuning: NetTuning) -> Vec<Loopback> {
        assert!(n > 0, "mesh needs at least one rank");
        let (inboxes, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(me, rx)| {
                let wire = LoopbackWire {
                    me,
                    inboxes: inboxes.clone(),
                };
                Endpoint::new(
                    Protocol::new(me, n, None),
                    wire,
                    rx,
                    NetStats::new(n),
                    tuning.clone(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    conformance_suite!(Loopback::mesh_tuned);
}
