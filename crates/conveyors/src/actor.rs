//! The L1 layer: HClib-Actor-style staging (paper §IV-B).
//!
//! The actor runtime buffers `C1` packets per PE before handing them to the
//! conveyor, "ensuring a seamless execution when the Conveyors buffers are
//! full and/or busy" — and hiding all conveyor API calls from the
//! application. [`Actor`] is that façade: applications only ever call
//! [`Actor::send`], [`Actor::progress`] and [`Actor::begin_drain`].

use dakc_sim::{EventKind, FlowTag, PeId};

use crate::conveyor::{ConvStats, Conveyor, ConveyorConfig};
use crate::fabric::Fabric;

/// Software cost of staging one packet in the L1 buffer, in integer ops.
pub const STAGE_ITEM_OPS: u64 = 16;

/// L1 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorConfig {
    /// Packets staged before draining into the conveyor (Table III:
    /// `C1 = 1024`).
    pub c1_packets: usize,
    /// The underlying conveyor configuration.
    pub conveyor: ConveyorConfig,
}

impl ActorConfig {
    /// Table III defaults over the given conveyor config.
    pub fn paper_defaults(conveyor: ConveyorConfig) -> Self {
        Self {
            c1_packets: 1024,
            conveyor,
        }
    }
}

/// One staged packet: destination, channel, payload bytes (flat storage).
#[derive(Debug)]
struct Staged {
    dst: PeId,
    channel: u8,
    /// Offset range into the flat payload arena.
    start: usize,
    len: usize,
    /// Out-of-band causal tag when this packet's flow is sampled.
    flow: Option<FlowTag>,
}

/// The per-PE actor endpoint wrapping a [`Conveyor`].
#[derive(Debug)]
pub struct Actor {
    cfg: ActorConfig,
    conveyor: Conveyor,
    staged: Vec<Staged>,
    arena: Vec<u8>,
}

impl Actor {
    /// Creates the endpoint and registers L1 buffer memory.
    pub fn new<F: Fabric>(cfg: ActorConfig, ctx: &mut F) -> Self {
        let conveyor = Conveyor::new(cfg.conveyor.clone(), ctx);
        // L1 memory: C1 packets of the largest channel budget plus
        // bookkeeping (Table III charges 264 B per element).
        let max_payload = cfg
            .conveyor
            .channels
            .iter()
            .map(|k| k.budget_bytes())
            .max()
            .unwrap_or(0);
        ctx.mem_alloc((cfg.c1_packets * (max_payload + std::mem::size_of::<Staged>())) as u64);
        Self {
            cfg,
            conveyor,
            staged: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Queues one packet for `dst`; drains to the conveyor when `C1`
    /// packets are staged.
    pub fn send<F: Fabric>(&mut self, ctx: &mut F, dst: PeId, channel: u8, payload: &[u8]) {
        self.send_with(ctx, dst, channel, None, |arena| arena.extend_from_slice(payload));
    }

    /// Like [`Actor::send`], but the caller writes the payload — the bytes
    /// `encode` appends to the L1 arena are the packet, so a packet
    /// assembled from words is copied once, not built and then copied —
    /// and may attach a causal flow tag, which rides out of band through
    /// the conveyor to the remote drain.
    pub fn send_with<F: Fabric>(
        &mut self,
        ctx: &mut F,
        dst: PeId,
        channel: u8,
        flow: Option<FlowTag>,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = self.arena.len();
        encode(&mut self.arena);
        let len = self.arena.len() - start;
        self.staged.push(Staged {
            dst,
            channel,
            start,
            len,
            flow,
        });
        // Staging cost: copy into the L1 arena plus bookkeeping.
        ctx.charge_ops(len as u64 / 8 + STAGE_ITEM_OPS);
        if self.staged.len() >= self.cfg.c1_packets {
            self.drain_l1(ctx);
        }
    }

    /// Moves all staged packets into the conveyor's L0 buffers. The arena
    /// and the staging list keep their allocations for the next round.
    fn drain_l1<F: Fabric>(&mut self, ctx: &mut F) {
        let packets = self.staged.len() as u32;
        ctx.trace(|| EventKind::L1Drain { packets });
        let now = ctx.now();
        for s in &mut self.staged {
            if let Some(tag) = &mut s.flow {
                tag.t_l1_drain = now;
            }
            self.conveyor
                .push_flow(ctx, s.dst, s.channel, &self.arena[s.start..s.start + s.len], s.flow);
        }
        self.staged.clear();
        self.arena.clear();
    }

    /// Polls and processes arrivals (delivery + relaying), exactly like
    /// the actor runtime's background progress loop. `deliver` receives
    /// `(src, channel, payload)` — see [`Conveyor::progress`] for the
    /// relay caveat on `src`.
    pub fn progress<F: Fabric>(&mut self, ctx: &mut F, deliver: &mut dyn FnMut(PeId, u8, &[u8])) {
        self.conveyor.progress(ctx, deliver);
    }

    /// Drops every staged and conveyor-buffered record addressed to
    /// `dst`, returning how many were discarded. Recovery replay hook:
    /// see [`Conveyor::purge_dest`]. The arena bytes of purged staged
    /// packets are left in place (offsets of surviving packets must not
    /// move); they are reclaimed by the next L1 drain.
    pub fn purge_dest<F: Fabric>(&mut self, ctx: &mut F, dst: PeId) -> u64 {
        let before = self.staged.len();
        self.staged.retain(|s| s.dst != dst);
        let staged_dropped = (before - self.staged.len()) as u64;
        staged_dropped + self.conveyor.purge_dest(ctx, dst)
    }

    /// Flushes L1 and L0 and enters draining mode (call once the
    /// application has produced all its packets, before the global
    /// barrier).
    pub fn begin_drain<F: Fabric>(&mut self, ctx: &mut F) {
        self.drain_l1(ctx);
        self.conveyor.begin_drain(ctx);
    }

    /// Conveyor counters.
    pub fn conveyor_stats(&self) -> ConvStats {
        self.conveyor.stats()
    }

    /// The wrapped conveyor (for topology/memory queries).
    pub fn conveyor(&self) -> &Conveyor {
        &self.conveyor
    }

    /// Releases registered buffer memory.
    pub fn release<F: Fabric>(&mut self, ctx: &mut F) {
        let max_payload = self
            .cfg
            .conveyor
            .channels
            .iter()
            .map(|k| k.budget_bytes())
            .max()
            .unwrap_or(0);
        ctx.mem_free((self.cfg.c1_packets * (max_payload + std::mem::size_of::<Staged>())) as u64);
        self.conveyor.release(ctx);
    }
}
