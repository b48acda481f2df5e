//! The L0 layer: per-neighbor buffered `PUT`s with routed delivery.
//!
//! Mirrors the Conveyors library (§IV-A): every `push` appends a record to
//! the send buffer of the packet's *next hop*; a full buffer is shipped as
//! one `PUT` through the simulator transport. Receivers parse arrived
//! buffers, delivering records addressed to them and re-buffering the rest
//! toward their next hop (2D/3D relaying).
//!
//! ## Wire format
//!
//! One `PUT` payload is a concatenation of records:
//!
//! ```text
//! 2D/3D:  [final_dst: u32 LE] [channel: u8] [payload: channel size]
//! 1D:                         [channel: u8] [payload: channel size]
//! ```
//!
//! The 32-bit final-destination header exists only under routed protocols
//! — it is exactly the per-packet overhead (§IV-C) that the application's
//! L2 layer amortizes by packing many k-mers into one record.

use dakc_sim::telemetry::metrics::{BYTES_BOUNDS, HOPS_BOUNDS, LATENCY_BOUNDS, PCT_BOUNDS};
use dakc_sim::telemetry::Histogram;
use dakc_sim::{EventKind, FlowTag, Msg, PeId};

use crate::fabric::Fabric;
use crate::topo::{Protocol, Topology};

/// Message tag conveyors traffic uses on the simulator transport.
pub const CONVEYOR_TAG: u32 = 0xC0;

/// Software cost of pushing one record into an L0 buffer, in integer ops
/// (destination lookup, buffer check, flow control — the per-item work
/// whose *reduction* is why the paper's L2 packing pays off on uniform
/// data, §VI-G).
pub const PUSH_ITEM_OPS: u64 = 40;

/// Software cost of processing one received record.
pub const PROCESS_ITEM_OPS: u64 = 32;

/// One stage of the telescoping aggregation cascade a sampled flow
/// traverses (DESIGN.md §6): the per-stage residencies of a closed flow
/// sum exactly to its end-to-end latency, in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// L3 heavy-hitter buffer wait.
    L3,
    /// L2 packet pack wait.
    L2,
    /// L1 actor staging.
    L1,
    /// L0 `PUT` buffer wait.
    L0,
    /// On the wire (or in the simulated transport).
    Net,
    /// Receiver drain queue.
    Drain,
}

impl Stage {
    /// Every stage, in telescoping order — the canonical stage vocabulary
    /// shared by the flow metrics (`flow.stage_s.<name>`), the Chrome
    /// trace `flow_recv` args (`<name>_s`), and the trace analyzer.
    pub const ALL: [Stage; 6] = [Stage::L3, Stage::L2, Stage::L1, Stage::L0, Stage::Net, Stage::Drain];

    /// Stable lower-case name used in metric keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::L3 => "l3",
            Stage::L2 => "l2",
            Stage::L1 => "l1",
            Stage::L0 => "l0",
            Stage::Net => "net",
            Stage::Drain => "drain",
        }
    }
}

/// How a channel frames its records on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Every record carries exactly this many payload bytes (no length
    /// framing needed).
    Fixed(usize),
    /// Records carry a 2-byte length prefix; payloads up to 64 KiB. Used
    /// by the L2 packed channels, whose final flush ships partial packets
    /// without padding.
    Variable,
}

impl ChannelKind {
    /// Planning size for buffer-memory accounting.
    pub fn budget_bytes(self) -> usize {
        match self {
            ChannelKind::Fixed(s) => s,
            ChannelKind::Variable => 256,
        }
    }
}

/// Static conveyor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConveyorConfig {
    /// Routing protocol.
    pub protocol: Protocol,
    /// Capacity of one L0 send buffer in bytes; a buffer reaching it is
    /// `PUT` immediately. Table III's production value is 40 KiB; scaled
    /// experiments use smaller values so multiple flushes occur.
    pub c0_bytes: usize,
    /// Framing per channel id. Channel ids index this table.
    pub channels: Vec<ChannelKind>,
    /// Display names per channel id, used to key per-channel flow-latency
    /// metrics (e.g. `flow.e2e_s.normal`). Channels beyond this table fall
    /// back to `ch<N>`.
    pub channel_names: Vec<&'static str>,
}

impl ConveyorConfig {
    /// Table III production defaults (40 KiB L0 buffers).
    pub fn paper_defaults(protocol: Protocol, channels: Vec<ChannelKind>) -> Self {
        Self {
            protocol,
            c0_bytes: 40 * 1024,
            channels,
            channel_names: Vec::new(),
        }
    }
}

/// Conveyor-level counters (hop and item accounting for Table II/Fig 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvStats {
    /// Records pushed by the local application.
    pub items_pushed: u64,
    /// Records delivered to the local application.
    pub items_delivered: u64,
    /// Records relayed toward their final destination (2D/3D only).
    pub items_forwarded: u64,
    /// `PUT`s issued (buffer flushes).
    pub puts: u64,
    /// Application payload bytes pushed (headers excluded).
    pub payload_bytes_pushed: u64,
    /// Records dropped from local send buffers by
    /// [`Conveyor::purge_dest`] (rank-recovery replay: buffered records
    /// for a dead rank are discarded, then regenerated from input).
    pub items_purged: u64,
}

/// One L0 send buffer: wire bytes plus the out-of-band flow sidecar.
#[derive(Debug, Default)]
struct OutBuf {
    /// Wire bytes (what the `PUT` is charged for).
    bytes: Vec<u8>,
    /// Records appended so far (ordinals key the flow sidecar).
    records: u32,
    /// Causal tags for sampled records, by record ordinal. Never
    /// serialized: flow tracing must not change simulated time.
    flows: Vec<(u32, FlowTag)>,
}

/// One PE's conveyor endpoint.
#[derive(Debug)]
pub struct Conveyor {
    me: PeId,
    topo: Topology,
    cfg: ConveyorConfig,
    /// L0 send buffer per next hop, indexed by `PeId`. A buffer owns no
    /// heap memory until its first record.
    out: Vec<OutBuf>,
    draining: bool,
    stats: ConvStats,
    /// Per-record hop tallies (index = hops to final destination),
    /// accumulated locally so the hot push path stays a single array
    /// increment; folded into the metrics registry at drain time.
    hop_counts: [u64; 8],
    /// `l0.put_fill_pct` and `l0.put_bytes`, tallied per `PUT` and folded
    /// with the hop tallies.
    put_fill: Histogram,
    put_bytes: Histogram,
}

impl Conveyor {
    /// Header bytes per record under this protocol.
    fn header_bytes(&self) -> usize {
        match self.cfg.protocol {
            Protocol::OneD => 0,
            Protocol::TwoD | Protocol::ThreeD => 4,
        }
    }

    /// Creates the endpoint for PE `me` of `p`, and registers the
    /// configured buffer memory with the simulator (Fig 2's protocol
    /// memory overhead).
    pub fn new<F: Fabric>(cfg: ConveyorConfig, ctx: &mut F) -> Self {
        let me = ctx.pe();
        let topo = Topology::new(cfg.protocol, ctx.num_pes());
        let conv = Self {
            me,
            topo,
            cfg,
            out: std::iter::repeat_with(OutBuf::default).take(ctx.num_pes()).collect(),
            draining: false,
            stats: ConvStats::default(),
            hop_counts: [0; 8],
            put_fill: Histogram::with_bounds(PCT_BOUNDS),
            put_bytes: Histogram::with_bounds(BYTES_BOUNDS),
        };
        ctx.mem_alloc(conv.configured_buffer_bytes());
        conv
    }

    /// Bytes of send-buffer capacity this PE is configured with:
    /// `out_degree × C0` (Table III's `40K × P^x`).
    pub fn configured_buffer_bytes(&self) -> u64 {
        self.topo.out_degree(self.me) as u64 * self.cfg.c0_bytes as u64
    }

    /// Counters so far.
    pub fn stats(&self) -> ConvStats {
        self.stats
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Queues one record for `final_dst` on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if the payload violates the channel's framing (wrong size on
    /// a fixed channel, > 64 KiB on a variable one) or the channel id is
    /// unknown.
    pub fn push<F: Fabric>(&mut self, ctx: &mut F, final_dst: PeId, channel: u8, payload: &[u8]) {
        self.push_flow(ctx, final_dst, channel, payload, None);
    }

    /// Like [`Conveyor::push`], but attaches a causal flow tag to the
    /// record. The tag rides out of band (see [`OutBuf::flows`]) and is
    /// closed — per-stage residencies recorded — when the record is
    /// delivered at `final_dst`.
    pub fn push_flow<F: Fabric>(
        &mut self,
        ctx: &mut F,
        final_dst: PeId,
        channel: u8,
        payload: &[u8],
        flow: Option<FlowTag>,
    ) {
        match self.cfg.channels[channel as usize] {
            ChannelKind::Fixed(sz) => assert_eq!(
                payload.len(),
                sz,
                "channel {channel} payload size mismatch"
            ),
            ChannelKind::Variable => assert!(
                payload.len() <= u16::MAX as usize,
                "channel {channel} payload too large"
            ),
        }
        self.stats.items_pushed += 1;
        self.stats.payload_bytes_pushed += payload.len() as u64;
        let hops = self.topo.hops(self.me, final_dst).min(self.hop_counts.len() - 1);
        self.hop_counts[hops] += 1;
        self.enqueue(ctx, final_dst, channel, payload, flow);
    }

    /// Appends a record to the next hop's buffer, flushing if full.
    fn enqueue<F: Fabric>(
        &mut self,
        ctx: &mut F,
        final_dst: PeId,
        channel: u8,
        payload: &[u8],
        flow: Option<FlowTag>,
    ) {
        let hop = if final_dst == self.me {
            self.me
        } else {
            self.topo.next_hop(self.me, final_dst)
        };
        let hdr = self.header_bytes();
        let variable = matches!(self.cfg.channels[channel as usize], ChannelKind::Variable);
        let rec_len = hdr + 1 + if variable { 2 } else { 0 } + payload.len();
        // Buffer append cost: copy plus per-item bookkeeping.
        ctx.charge_ops(rec_len as u64 / 8 + PUSH_ITEM_OPS);

        let buf = &mut self.out[hop];
        if hdr > 0 {
            buf.bytes.extend_from_slice(&(final_dst as u32).to_le_bytes());
        }
        buf.bytes.push(channel);
        if variable {
            buf.bytes.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        }
        buf.bytes.extend_from_slice(payload);
        if let Some(tag) = flow {
            buf.flows.push((buf.records, tag));
        }
        buf.records += 1;
        if buf.bytes.len() >= self.cfg.c0_bytes {
            // A buffer that filled will fill again: its successor starts
            // at the size this one reached instead of regrowing to it.
            let next = OutBuf {
                bytes: Vec::with_capacity(buf.bytes.len()),
                ..OutBuf::default()
            };
            let full = std::mem::replace(buf, next);
            self.stats.puts += 1;
            self.ship(ctx, hop, full);
        }
    }

    /// Ships one L0 buffer as a `PUT`, stamping the wire time on every
    /// flow tag riding with it (re-stamped per hop on relayed routes, so
    /// the in-flight stage measures the final hop).
    fn ship<F: Fabric>(&mut self, ctx: &mut F, hop: PeId, mut buf: OutBuf) {
        self.record_put(ctx, hop, buf.bytes.len());
        let now = ctx.now();
        for (_, tag) in &mut buf.flows {
            tag.t_l0_put = now;
        }
        ctx.send_with_flows(hop, CONVEYOR_TAG, buf.bytes, buf.flows);
    }

    /// Telemetry for one `PUT`: fill/size histograms and a trace event.
    fn record_put<F: Fabric>(&mut self, ctx: &mut F, hop: PeId, bytes: usize) {
        let fill_pct = ((bytes as u64 * 100) / self.cfg.c0_bytes.max(1) as u64).min(100) as u8;
        self.put_fill.observe(fill_pct as f64);
        self.put_bytes.observe(bytes as f64);
        ctx.trace(|| EventKind::PutFlush {
            hop: hop as u32,
            bytes: bytes as u32,
            fill_pct,
        });
    }

    /// Drops every locally buffered record whose *final destination* is
    /// `dst`, returning how many were discarded. The recovery replay hook:
    /// when a rank dies and is respawned, its un-shipped records are
    /// purged here and regenerated from the input instead (shipping them
    /// to the replacement would double-count the replayed keys). Under 1D
    /// the whole per-destination buffer is removed; under routed protocols
    /// the next-hop buffer is filtered record by record.
    pub fn purge_dest<F: Fabric>(&mut self, ctx: &mut F, dst: PeId) -> u64 {
        let hop = if dst == self.me { self.me } else { self.topo.next_hop(self.me, dst) };
        let buf = std::mem::take(&mut self.out[hop]);
        if buf.records == 0 {
            return 0;
        }
        let dropped = if self.header_bytes() == 0 {
            // 1D: one buffer per final destination — drop it whole.
            buf.records as u64
        } else {
            let (kept, dropped) = self.filter_buffer(buf, dst);
            self.out[hop] = kept;
            dropped
        };
        ctx.charge_ops(dropped);
        self.stats.items_purged += dropped;
        dropped
    }

    /// Re-encodes `buf` without the records addressed to `dst`, keeping
    /// the flow sidecar's ordinals consistent. Routed protocols only.
    fn filter_buffer(&self, buf: OutBuf, dst: PeId) -> (OutBuf, u64) {
        let bytes = &buf.bytes;
        let mut kept = OutBuf::default();
        let mut dropped = 0u64;
        let mut at = 0usize;
        let mut flow_at = 0usize;
        let mut ordinal = 0u32;
        while at < bytes.len() {
            let rec_start = at;
            let final_dst =
                u32::from_le_bytes(bytes[at..at + 4].try_into().expect("header")) as PeId;
            at += 4;
            let channel = bytes[at];
            at += 1;
            let size = match self.cfg.channels[channel as usize] {
                ChannelKind::Fixed(sz) => sz,
                ChannelKind::Variable => {
                    let len = u16::from_le_bytes(bytes[at..at + 2].try_into().expect("len prefix"));
                    at += 2;
                    len as usize
                }
            };
            at += size;
            let flow = match buf.flows.get(flow_at) {
                Some(&(ord, tag)) if ord == ordinal => {
                    flow_at += 1;
                    Some(tag)
                }
                _ => None,
            };
            ordinal += 1;
            if final_dst == dst {
                dropped += 1;
            } else {
                if let Some(tag) = flow {
                    kept.flows.push((kept.records, tag));
                }
                kept.bytes.extend_from_slice(&bytes[rec_start..at]);
                kept.records += 1;
            }
        }
        (kept, dropped)
    }

    /// Polls the transport and processes every arrived buffer: records for
    /// this PE are handed to `deliver(src, channel, payload)`; others are
    /// relayed. `src` is the transport-level sender of the carrying
    /// buffer — under 1D that is the record's producer; under routed
    /// protocols it is the last relay hop. In draining mode all partially
    /// filled buffers are flushed afterwards so quiescence can be reached.
    pub fn progress<F: Fabric>(&mut self, ctx: &mut F, deliver: &mut dyn FnMut(PeId, u8, &[u8])) {
        let msgs = ctx.poll();
        for msg in msgs {
            debug_assert_eq!(msg.tag, CONVEYOR_TAG);
            self.process_buffer(ctx, &msg, deliver);
        }
        if self.draining {
            self.flush_all(ctx);
        }
    }

    fn process_buffer<F: Fabric>(
        &mut self,
        ctx: &mut F,
        msg: &Msg,
        deliver: &mut dyn FnMut(PeId, u8, &[u8]),
    ) {
        let bytes = &msg.payload;
        let hdr = self.header_bytes();
        let mut at = 0usize;
        // Flow sidecar entries are ordinal-sorted (appended in push order).
        let mut flow_at = 0usize;
        let mut ordinal = 0u32;
        while at < bytes.len() {
            let final_dst = if hdr > 0 {
                let d = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("header"));
                at += 4;
                d as PeId
            } else {
                self.me
            };
            let channel = bytes[at];
            at += 1;
            let size = match self.cfg.channels[channel as usize] {
                ChannelKind::Fixed(sz) => sz,
                ChannelKind::Variable => {
                    let len =
                        u16::from_le_bytes(bytes[at..at + 2].try_into().expect("len prefix"));
                    at += 2;
                    len as usize
                }
            };
            let payload = &bytes[at..at + size];
            at += size;
            let flow = match msg.flows.get(flow_at) {
                Some(&(ord, tag)) if ord == ordinal => {
                    flow_at += 1;
                    Some(tag)
                }
                _ => None,
            };
            ordinal += 1;
            // Per-record processing cost.
            ctx.charge_ops(size as u64 / 8 + PROCESS_ITEM_OPS);
            if final_dst == self.me {
                self.stats.items_delivered += 1;
                if let Some(tag) = flow {
                    self.close_flow(ctx, msg.arrival, &tag);
                }
                deliver(msg.src, channel, payload);
            } else {
                self.stats.items_forwarded += 1;
                self.enqueue(ctx, final_dst, channel, payload, flow);
            }
        }
    }

    /// Display name for `channel` in metric keys.
    fn channel_name(&self, channel: u8) -> String {
        match self.cfg.channel_names.get(channel as usize) {
            Some(name) => (*name).to_string(),
            None => format!("ch{channel}"),
        }
    }

    /// Closes a sampled flow at its final destination: computes per-stage
    /// residencies from the tag's hand-off timestamps, records them as
    /// latency histograms and emits the Chrome-trace flow-finish event.
    /// The residencies telescope — they sum to the end-to-end latency.
    fn close_flow<F: Fabric>(&self, ctx: &mut F, arrival: f64, tag: &FlowTag) {
        let now = ctx.now();
        let l3_s = tag.t_l2_open - tag.t_open;
        let l2_s = tag.t_l2_ship - tag.t_l2_open;
        let l1_s = tag.t_l1_drain - tag.t_l2_ship;
        let l0_s = tag.t_l0_put - tag.t_l1_drain;
        let net_s = arrival - tag.t_l0_put;
        let drain_s = now - arrival;
        let e2e_s = now - tag.t_open;
        let name = self.channel_name(tag.channel);
        let m = ctx.metrics();
        m.inc("flow.closed", 1);
        m.observe(&format!("flow.e2e_s.{name}"), LATENCY_BOUNDS, e2e_s);
        let residencies = [l3_s, l2_s, l1_s, l0_s, net_s, drain_s];
        for (stage, t) in Stage::ALL.iter().zip(residencies) {
            m.observe(&format!("flow.stage_s.{}", stage.name()), LATENCY_BOUNDS, t);
        }
        let (flow, channel, src) = (tag.flow, tag.channel, tag.src);
        ctx.trace(|| EventKind::FlowRecv {
            flow,
            channel,
            src,
            l3_s,
            l2_s,
            l1_s,
            l0_s,
            net_s,
            drain_s,
            e2e_s,
        });
    }

    /// Ships every nonempty buffer immediately, regardless of fill.
    pub fn flush_all<F: Fabric>(&mut self, ctx: &mut F) {
        // Ascending hop order, so the flush is deterministic.
        for hop in 0..self.out.len() {
            if self.out[hop].bytes.is_empty() {
                continue;
            }
            // Take (not just clear) so idle buffers return their memory:
            // at 6K PEs the all-connected protocol would otherwise pin
            // O(P) send buffers per PE on the host.
            let buf = std::mem::take(&mut self.out[hop]);
            self.stats.puts += 1;
            self.ship(ctx, hop, buf);
        }
    }

    /// Enters draining mode (the application has produced everything) and
    /// flushes. While draining, every `progress` call auto-flushes relayed
    /// records so the global quiescent barrier can complete.
    pub fn begin_drain<F: Fabric>(&mut self, ctx: &mut F) {
        self.draining = true;
        self.fold_metrics(ctx);
        self.flush_all(ctx);
    }

    /// Folds the locally accumulated hop and `PUT` tallies into the run's
    /// metrics registry and resets them.
    fn fold_metrics<F: Fabric>(&mut self, ctx: &mut F) {
        for (hops, n) in self.hop_counts.iter_mut().enumerate() {
            ctx.metrics()
                .observe_n("conv.record_hops", HOPS_BOUNDS, hops as f64, *n);
            *n = 0;
        }
        ctx.metrics().fold_histogram("l0.put_fill_pct", &mut self.put_fill);
        ctx.metrics().fold_histogram("l0.put_bytes", &mut self.put_bytes);
    }

    /// `true` once `begin_drain` was called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Releases the configured buffer memory (call when the communication
    /// epoch ends and the buffers are handed back).
    pub fn release<F: Fabric>(&mut self, ctx: &mut F) {
        self.fold_metrics(ctx);
        ctx.mem_free(self.configured_buffer_bytes());
    }
}
