//! [`NetFabric`]: runs the conveyor cascade over a real [`Transport`].
//!
//! This is the wall-clock implementation of [`dakc_conveyors::Fabric`]:
//! `charge_*` is a no-op (time passes by itself), `now` is seconds since
//! the fabric was created (plus the rank-0 clock offset once
//! [`NetFabric::align_clock`] has run), `send_with_flows` forwards the
//! payload bytes as one data frame, and `poll` drains arrived frames into
//! [`Msg`] values so the conveyor's receive path — including 2D/3D
//! relaying — runs the exact code it runs under the simulator.
//!
//! # The distributed flight recorder
//!
//! With tracing off (the default) the fabric is exactly the PR 5 wire:
//! `trace` is a single branch, flow sidecars are dropped, and the frames
//! on the wire are the raw L0 buffers. [`NetFabric::enable_tracing`]
//! turns on the same ring-buffered [`TraceSink`] the simulator uses, but
//! stamped with wall-clock timestamps, and switches the data-frame wire
//! format so sampled [`FlowTag`] sidecars ride *inside* the frame payload
//! (`[nflows u32 LE][(ordinal u32, 53-byte tag)]* [payload]`). Frame
//! counts are unchanged, so four-counter termination and per-peer FIFO
//! order are untouched — but every rank in the job must agree on the
//! format, which the launcher guarantees by forwarding `--trace` to all
//! workers. Transport incidents (send-retry backoffs, injected chaos
//! faults) are picked up from [`NetStats::take_notes`] at the fabric's
//! service points and re-recorded as trace instants.
//!
//! The [`Fabric`] trait is infallible (the simulator cannot fail), so a
//! wire failure cannot surface through `send_with_flows`/`poll` directly.
//! Instead the first [`NetError`] is *latched*: subsequent sends and polls
//! become no-ops, and the run driver polls [`NetFabric::check`] at its
//! service points to propagate the failure — the cascade stops making
//! progress within one batch of the fault instead of panicking under it.

use std::time::{Duration, Instant};

use dakc_conveyors::conveyor::CONVEYOR_TAG;
use dakc_conveyors::Fabric;
use dakc_sim::telemetry::metrics::BYTES_BOUNDS;
use dakc_sim::telemetry::{Event, Histogram, MetricsRegistry, TraceSink};
use dakc_sim::{EventKind, FlowTag, Msg, PeId};

use crate::error::{NetError, NetResult};
use crate::transport::{NetNote, NetStats, Transport};

/// Bytes in one wire-encoded [`FlowTag`] (8 + 1 + 4 + 5×8).
const TAG_WIRE_LEN: usize = 53;
/// Bytes per sidecar entry: record ordinal + encoded tag.
const FLOW_ENTRY_LEN: usize = 4 + TAG_WIRE_LEN;

/// A [`Fabric`] over a real [`Transport`], with a wall-clock `now` and a
/// run-local metrics registry. Wire failures are latched (see the module
/// docs) and re-surfaced by [`NetFabric::check`].
#[derive(Debug)]
pub struct NetFabric<T: Transport> {
    transport: T,
    metrics: MetricsRegistry,
    /// `msg.payload_bytes`, tallied outside the registry so a send does
    /// not look the name up; folded in by [`NetFabric::finish`].
    payload_bytes: Histogram,
    start: Instant,
    seq: u64,
    /// The first wire failure observed through the infallible `Fabric`
    /// surface; once set, sends and polls are no-ops.
    failure: Option<NetError>,
    /// The flight recorder; [`TraceSink::Off`] unless
    /// [`NetFabric::enable_tracing`] ran. Enabling also switches the
    /// data-frame wire format (see the module docs).
    sink: TraceSink,
    /// Seconds to add to the local clock to land on rank 0's trace clock
    /// (0 until [`NetFabric::align_clock`] runs; always 0 on rank 0).
    clock_offset: f64,
}

impl<T: Transport> NetFabric<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        Self {
            transport,
            metrics: MetricsRegistry::default(),
            payload_bytes: Histogram::with_bounds(BYTES_BOUNDS),
            start: Instant::now(),
            seq: 0,
            failure: None,
            sink: TraceSink::Off,
            clock_offset: 0.0,
        }
    }

    /// The wrapped transport (for collectives and gather traffic).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Turns on the flight recorder (default ring capacity) and the
    /// flow-sidecar wire format. Every rank of a job must either call
    /// this before the first data frame flies, or none may.
    pub fn enable_tracing(&mut self) {
        self.sink = TraceSink::ring_default();
    }

    /// `true` when the flight recorder is on.
    pub fn tracing(&self) -> bool {
        self.sink.enabled()
    }

    /// Runs the NTP-style ping exchange against rank 0 (see
    /// [`crate::clock`]) and aligns this fabric's `now` to rank 0's
    /// clock. Collective: every rank must call it at the same protocol
    /// point, before any other data traffic.
    pub fn align_clock(&mut self, pings: u32, deadline: Duration) -> NetResult<()> {
        let start = self.start;
        self.clock_offset = crate::clock::sync_offset(
            &mut self.transport,
            || start.elapsed().as_secs_f64(),
            pings,
            deadline,
        )?;
        Ok(())
    }

    /// The estimated rank-0 clock offset (0 before alignment).
    pub fn clock_offset(&self) -> f64 {
        self.clock_offset
    }

    /// Propagates the first failure latched by a send or poll, if any.
    /// Run drivers call this at every service point.
    pub fn check(&self) -> NetResult<()> {
        match &self.failure {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Re-records pending transport incident notes (retry backoffs,
    /// injected faults) as trace instants. Notes carry no timestamp of
    /// their own; they are stamped with the drain time, which trails the
    /// incident by at most one service interval.
    fn drain_notes(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        let stats: &mut NetStats = self.transport.stats_mut();
        if stats.notes.is_empty() {
            return;
        }
        let notes = stats.take_notes();
        let ts = self.start.elapsed().as_secs_f64() + self.clock_offset;
        let me = self.transport.rank() as u32;
        for n in notes {
            self.sink.record(ts, me, || match n {
                NetNote::Retry { dest, attempt, delay_us } => {
                    EventKind::NetRetry { dst: dest as u32, attempt, delay_us }
                }
                NetNote::Fault { kind } => {
                    EventKind::NetFault { kind: EventKind::fault_tag(kind) }
                }
            });
        }
    }

    /// Folds the transport's counters into the registry and returns the
    /// transport, the metrics, and the recorded trace events (empty when
    /// tracing was off).
    pub fn finish(mut self) -> (T, MetricsRegistry, Vec<Event>) {
        self.drain_notes();
        self.metrics.fold_histogram("msg.payload_bytes", &mut self.payload_bytes);
        let me = self.transport.rank();
        self.transport.stats().fold_into(me, &mut self.metrics);
        if self.sink.dropped() > 0 {
            self.metrics.inc("trace.dropped_events", self.sink.dropped());
        }
        (self.transport, self.metrics, self.sink.events())
    }
}

/// An ordinal-keyed flow sidecar, as carried by [`Msg::flows`].
type FlowSidecar = Vec<(u32, FlowTag)>;

/// Prepends the flow sidecar to `payload` in the traced wire format.
fn encode_flows(flows: &[(u32, FlowTag)], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + flows.len() * FLOW_ENTRY_LEN + payload.len());
    out.extend_from_slice(&(flows.len() as u32).to_le_bytes());
    for (ordinal, tag) in flows {
        out.extend_from_slice(&ordinal.to_le_bytes());
        out.extend_from_slice(&tag.flow.to_le_bytes());
        out.push(tag.channel);
        out.extend_from_slice(&tag.src.to_le_bytes());
        for v in [tag.t_open, tag.t_l2_open, tag.t_l2_ship, tag.t_l1_drain, tag.t_l0_put] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(payload);
    out
}

/// Splits a traced wire frame back into its sidecar and payload.
fn decode_flows(frame: Vec<u8>) -> Result<(FlowSidecar, Vec<u8>), String> {
    if frame.len() < 4 {
        return Err(format!("traced frame too short: {} bytes", frame.len()));
    }
    // Infallible: the length check above guarantees 4 header bytes, and
    // the `body` check below covers every fixed-size entry slice.
    let n = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    let body = 4 + n * FLOW_ENTRY_LEN;
    if frame.len() < body {
        return Err(format!(
            "traced frame truncated: {} sidecar entries need {body} bytes, frame has {}",
            n,
            frame.len()
        ));
    }
    let mut flows = Vec::with_capacity(n);
    for i in 0..n {
        let at = 4 + i * FLOW_ENTRY_LEN;
        let e = &frame[at..at + FLOW_ENTRY_LEN];
        let ordinal = u32::from_le_bytes(e[..4].try_into().unwrap());
        let f = |j: usize| f64::from_le_bytes(e[j..j + 8].try_into().unwrap());
        flows.push((ordinal, FlowTag {
            flow: u64::from_le_bytes(e[4..12].try_into().unwrap()),
            channel: e[12],
            src: u32::from_le_bytes(e[13..17].try_into().unwrap()),
            t_open: f(17),
            t_l2_open: f(25),
            t_l2_ship: f(33),
            t_l1_drain: f(41),
            t_l0_put: f(49),
        }));
    }
    Ok((flows, frame[body..].to_vec()))
}

impl<T: Transport> Fabric for NetFabric<T> {
    fn pe(&self) -> PeId {
        self.transport.rank()
    }

    fn num_pes(&self) -> usize {
        self.transport.num_ranks()
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() + self.clock_offset
    }

    fn charge_ops(&mut self, _ops: u64) {}

    fn charge_mem(&mut self, _bytes: u64) {}

    fn cache_share_bytes(&self) -> u64 {
        0
    }

    fn mem_alloc(&mut self, _bytes: u64) {}

    fn mem_free(&mut self, _bytes: u64) {}

    fn send_with_flows(
        &mut self,
        dst: PeId,
        _tag: u32,
        payload: Vec<u8>,
        flows: Vec<(u32, FlowTag)>,
    ) {
        if self.failure.is_some() {
            return;
        }
        self.payload_bytes.observe(payload.len() as f64);
        let bytes = payload.len() as u32;
        let traced = self.sink.enabled();
        if traced {
            let ts = self.start.elapsed().as_secs_f64() + self.clock_offset;
            let me = self.transport.rank() as u32;
            self.sink
                .record(ts, me, || EventKind::MsgSend { dst: dst as u32, tag: CONVEYOR_TAG, bytes });
        }
        let wire = if traced { encode_flows(&flows, &payload) } else { payload };
        if let Err(e) = self.transport.send(dst, &wire) {
            self.failure = Some(e);
        }
    }

    fn poll(&mut self) -> Vec<Msg> {
        if self.failure.is_some() {
            return Vec::new();
        }
        self.drain_notes();
        let me = self.transport.rank();
        let now = self.start.elapsed().as_secs_f64() + self.clock_offset;
        let traced = self.sink.enabled();
        let mut out = Vec::new();
        loop {
            match self.transport.try_recv() {
                Ok(Some((src, wire))) => {
                    let (flows, payload) = if traced {
                        match decode_flows(wire) {
                            Ok(split) => split,
                            Err(detail) => {
                                self.failure =
                                    Some(NetError::CorruptFrame { rank: src, detail });
                                break;
                            }
                        }
                    } else {
                        (Vec::new(), wire)
                    };
                    if traced {
                        let bytes = payload.len() as u32;
                        self.sink.record(now, me as u32, || EventKind::MsgDeliver {
                            src: src as u32,
                            tag: CONVEYOR_TAG,
                            bytes,
                        });
                    }
                    let seq = self.seq;
                    self.seq += 1;
                    out.push(Msg {
                        src,
                        dst: me,
                        tag: CONVEYOR_TAG,
                        payload,
                        arrival: now,
                        seq,
                        flows,
                    });
                }
                Ok(None) => break,
                Err(e) => {
                    self.failure = Some(e);
                    break;
                }
            }
        }
        out
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    fn trace(&mut self, make: impl FnOnce() -> EventKind) {
        // The enabled check comes first: `Instant::elapsed` is not free,
        // and the disabled path must stay a single branch (the
        // `cascade/flow_full` Criterion case covers this fabric too).
        if self.sink.enabled() {
            let ts = self.start.elapsed().as_secs_f64() + self.clock_offset;
            let me = self.transport.rank() as u32;
            self.sink.record(ts, me, make);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::Loopback;

    #[test]
    fn fabric_delivers_payload_bytes() {
        let mut mesh = Loopback::mesh(1);
        let mut fab = NetFabric::new(mesh.remove(0));
        fab.send_with_flows(0, CONVEYOR_TAG, vec![1, 2, 3], Vec::new());
        let msgs = fab.poll();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, vec![1, 2, 3]);
        assert_eq!(msgs[0].src, 0);
        assert_eq!(msgs[0].tag, CONVEYOR_TAG);
        let (_, metrics, events) = fab.finish();
        let json = metrics.to_json();
        assert!(json.contains("net.frames_sent"), "{json}");
        assert!(events.is_empty(), "tracing off records nothing");
    }

    #[test]
    fn wire_failure_is_latched_and_checkable() {
        use crate::chaos::{ChaosConfig, ChaosTransport};
        let mut mesh = Loopback::mesh(1);
        let cfg = ChaosConfig::parse("die:0@1", 0, 0).unwrap();
        let chaos = ChaosTransport::new(mesh.remove(0), cfg);
        let mut fab = NetFabric::new(chaos);
        assert!(fab.check().is_ok());
        fab.send_with_flows(0, CONVEYOR_TAG, vec![1], Vec::new());
        let err = fab.check().unwrap_err();
        assert!(matches!(err, NetError::Injected { rank: 0, .. }), "{err}");
        // Latched: later operations are inert, the error stays the first.
        fab.send_with_flows(0, CONVEYOR_TAG, vec![2], Vec::new());
        assert!(fab.poll().is_empty());
        assert_eq!(fab.check().unwrap_err(), err);
    }

    #[test]
    fn flow_sidecars_ride_the_wire_when_tracing() {
        let mut mesh = Loopback::mesh(1);
        let mut fab = NetFabric::new(mesh.remove(0));
        fab.enable_tracing();
        let tag = FlowTag {
            flow: FlowTag::id(0, 7),
            channel: 1,
            src: 0,
            t_open: 0.25,
            t_l2_open: 0.5,
            t_l2_ship: 0.75,
            t_l1_drain: 1.0,
            t_l0_put: 1.25,
        };
        fab.send_with_flows(0, CONVEYOR_TAG, vec![9, 8, 7], vec![(2, tag)]);
        let msgs = fab.poll();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, vec![9, 8, 7], "payload survives the wrap");
        assert_eq!(msgs[0].flows, vec![(2, tag)], "sidecar survives the wire");
        let (_, _, events) = fab.finish();
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::MsgSend { .. }))
                && events.iter().any(|e| matches!(e.kind, EventKind::MsgDeliver { .. })),
            "send and deliver instants recorded: {events:?}"
        );
    }

    #[test]
    fn empty_sidecar_costs_four_bytes_and_roundtrips() {
        let encoded = encode_flows(&[], &[1, 2, 3]);
        assert_eq!(encoded.len(), 7);
        let (flows, payload) = decode_flows(encoded).unwrap();
        assert!(flows.is_empty());
        assert_eq!(payload, vec![1, 2, 3]);
        // Truncation is a decode error, not a panic.
        assert!(decode_flows(vec![1]).is_err());
        assert!(decode_flows(encode_flows(&[(0, FlowTag::open(1, 0, 0, 0.0, 0.0))], &[])[..20].to_vec()).is_err());
    }

    #[test]
    fn trace_hook_is_gated_and_records_when_enabled() {
        let mut mesh = Loopback::mesh(1);
        let mut fab = NetFabric::new(mesh.remove(0));
        // Off: the closure must never be constructed.
        fab.trace(|| panic!("tracing is off"));
        fab.enable_tracing();
        fab.trace(|| EventKind::Phase { phase: 3 });
        let (_, _, events) = fab.finish();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::Phase { phase: 3 }));
        assert!(events[0].ts >= 0.0);
    }

    #[test]
    fn transport_notes_become_trace_instants() {
        use crate::transport::NetNote;
        let mut mesh = Loopback::mesh(1);
        let mut fab = NetFabric::new(mesh.remove(0));
        fab.enable_tracing();
        fab.transport_mut()
            .stats_mut()
            .note(NetNote::Retry { dest: 0, attempt: 2, delay_us: 1234 });
        fab.transport_mut().stats_mut().note(NetNote::Fault { kind: "drop" });
        fab.poll();
        let (_, _, events) = fab.finish();
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::NetRetry { dst: 0, attempt: 2, delay_us: 1234 }),
            "{events:?}"
        );
        let drop_tag = EventKind::fault_tag("drop");
        assert!(
            events.iter().any(|e| e.kind == EventKind::NetFault { kind: drop_tag }),
            "{events:?}"
        );
    }
}
