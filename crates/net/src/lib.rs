//! # dakc-net — a real multi-process transport under the Conveyor L0
//!
//! The simulator (`dakc-sim`) delivers L0 `PUT` buffers in virtual time;
//! this crate delivers the *same wire bytes* between real endpoints:
//!
//! * [`frame`] — length-prefixed message framing (`[len: u32 LE][kind: u8]
//!   [payload]`) with an incremental decoder that tolerates arbitrarily
//!   split reads;
//! * [`transport`] — the [`Transport`] trait: rank identity, nonblocking
//!   `send`/`try_recv` of data frames, `flush`, a full barrier, and a
//!   four-counter (Mattern/Dijkstra-style) termination-detection round;
//! * [`protocol`] — the collective protocol as a sans-IO state machine:
//!   barriers, termination rounds, incarnation fencing and the logical
//!   half of recovery, plus the frame bound [`MAX_PAYLOAD`];
//! * [`endpoint`] — [`endpoint::Endpoint`], the one [`Transport`]
//!   implementation: the protocol core over a backend's byte mover
//!   ([`endpoint::Wire`]) and one inbox of events;
//! * [`loopback`] — the in-process byte mover (one channel per rank), for
//!   tests and single-host thread-per-rank runs;
//! * [`tcp`] — the `std::net::TcpStream` byte mover: per-peer buffered
//!   writers sized to the L0 buffer config, reader threads feeding the
//!   inbox, rendezvous-directory setup and the recovery listener;
//! * [`fabric`] — [`NetFabric`], the [`dakc_conveyors::Fabric`]
//!   implementation that lets the whole L1–L3 cascade (HEAVY channel and
//!   `{kmer, count}` wire format included) run unchanged over a
//!   [`Transport`];
//! * [`error`] — the typed [`NetError`] taxonomy every fallible operation
//!   returns: rank-attributed disconnects, corrupt/oversized frames, and
//!   phase-attributed timeouts, instead of panics and hangs;
//! * [`chaos`] — [`ChaosTransport`], seeded deterministic fault injection
//!   (drops, duplicates, delays, corrupt writes, scripted rank death and
//!   freezes) over any transport;
//! * [`supervisor`] — worker heartbeat frames and the launcher-side
//!   [`Supervisor`] that detects dead or silently hung ranks and renders
//!   the per-rank diagnostic report;
//! * [`clock`] — NTP-style offset estimation against rank 0, run over
//!   ordinary data frames, so per-rank wall-clock traces merge onto one
//!   timeline (the distributed flight recorder's clock model).

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[cfg(test)]
#[macro_use]
mod conformance;

pub mod chaos;
pub mod clock;
pub mod endpoint;
pub mod error;
pub mod fabric;
pub mod frame;
pub mod loopback;
pub mod protocol;
pub mod supervisor;
pub mod tcp;
pub mod transport;

pub use chaos::{splitmix64, ChaosConfig, ChaosTransport};
pub use clock::{estimate_offset, sync_offset, PingSample, DEFAULT_PINGS};
pub use error::{NetError, NetResult};
pub use fabric::NetFabric;
pub use frame::{encode_frame, FrameDecoder, FrameError, FrameKind, MAX_FRAME_LEN};
pub use loopback::Loopback;
pub use protocol::MAX_PAYLOAD;
pub use supervisor::{
    send_obituary, send_obituary_inc, Heartbeat, HeartbeatSender, HeartbeatState, PeerHealth,
    Phase, Supervisor, NO_BLAME,
};
pub use tcp::{announce_recovery, TcpTransport, RECOVER_HELLO};
pub use transport::{NetNote, NetStats, NetTuning, PeerStats, Rank, TermDetector, Transport};
