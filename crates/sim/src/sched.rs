//! The conservative virtual-time scheduler.
//!
//! Programs are stepped in virtual-time order (minimum clock first, PE id
//! breaking ties), so execution is sequential, deterministic and — because
//! a PE is only advanced when it holds the minimum clock among runnable
//! PEs — causally consistent: no PE ever observes a message sent "in its
//! past".
//!
//! ## Execution model
//!
//! A [`Program`] is a resumable state machine. Each call to
//! [`Program::step`] performs a bounded amount of work (parse a batch of
//! reads, drain a receive buffer, run a sort) and reports what it needs
//! next:
//!
//! * [`Step::Yield`] — more work is immediately available.
//! * [`Step::Sleep`] — blocked until a message arrives (a BSP PE waiting
//!   on a collective). The idle time this accrues is exactly the
//!   synchronization waste the paper's Fig 5/§III analysis discusses.
//! * [`Step::Barrier`] — enter the global barrier. The barrier is
//!   *quiescent*: it completes only when every live PE is in it **and** no
//!   message is undelivered or unprocessed, which is the termination
//!   condition the Conveyors runtime provides for the paper's
//!   `GLOBAL BARRIER`. PEs inside the barrier are woken to process late
//!   arrivals, exactly like a conveyor progress loop.
//! * [`Step::Done`] — the program finished.
//!
//! Time is charged explicitly through the [`Ctx`] API; sending charges the
//! sender NIC occupancy (remote) or memory-copy time (colocated — the
//! paper's §VI-B memcpy conversion) and schedules delivery at
//! `send completion + τ` for remote messages.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::machine::{MachineConfig, PeId};
use crate::memory::{MemoryTracker, OomError};
use crate::msg::{ArrivalKey, Msg};
use crate::stats::{Category, PeStats, SimReport};
use crate::telemetry::{metrics as mbounds, EventKind, Histogram, MetricsRegistry, TraceSink};

/// What a program wants after a step. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More work is immediately available.
    Yield,
    /// Blocked until a message arrives.
    Sleep,
    /// Enter the global quiescent barrier.
    Barrier,
    /// Finished.
    Done,
}

/// A resumable per-PE program. See the module docs for the contract.
pub trait Program {
    /// Performs a bounded amount of work and reports the PE's next need.
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step;
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A node exceeded its memory budget (Fig 8's failure mode).
    Oom(OomError),
    /// No PE can make progress: some are asleep with no message ever
    /// coming. Always a bug in the program under simulation.
    Deadlock {
        /// PEs stuck sleeping.
        sleeping: Vec<PeId>,
        /// PEs waiting in the barrier.
        in_barrier: Vec<PeId>,
    },
    /// A message was sent to a PE that already finished.
    MessageToFinishedPe {
        /// Sender.
        src: PeId,
        /// Finished destination.
        dst: PeId,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Oom(e) => write!(
                f,
                "node {} out of memory: {} B live exceeds {} B budget",
                e.node, e.attempted, e.budget
            ),
            SimError::Deadlock { sleeping, in_barrier } => write!(
                f,
                "deadlock: {} sleeping PEs, {} in barrier, no messages in flight",
                sleeping.len(),
                in_barrier.len()
            ),
            SimError::MessageToFinishedPe { src, dst } => {
                write!(f, "PE {src} sent a message to finished PE {dst}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeState {
    Runnable,
    Sleeping,
    InBarrier,
    Done,
}

#[derive(Debug)]
struct InboxEntry(Msg);

impl PartialEq for InboxEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for InboxEntry {}
impl PartialOrd for InboxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InboxEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}
impl InboxEntry {
    fn key(&self) -> ArrivalKey {
        ArrivalKey {
            arrival: self.0.arrival,
            seq: self.0.seq,
        }
    }
}

#[derive(Debug, Default)]
struct Inbox {
    heap: BinaryHeap<Reverse<InboxEntry>>,
}

impl Inbox {
    fn push(&mut self, m: Msg) {
        self.heap.push(Reverse(InboxEntry(m)));
    }

    fn next_arrival(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.0 .0.arrival)
    }

    fn pop_ready(&mut self, now: f64) -> Option<Msg> {
        if self.next_arrival()? <= now {
            Some(self.heap.pop().expect("peeked").0 .0)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The per-step API a [`Program`] uses to interact with the machine.
pub struct Ctx<'a> {
    pe: PeId,
    machine: &'a MachineConfig,
    clock: &'a mut f64,
    stats: &'a mut PeStats,
    inbox: &'a mut Inbox,
    staged: &'a mut Vec<Msg>,
    seq: &'a mut u64,
    mem: &'a mut MemoryTracker,
    oom: &'a mut Option<OomError>,
    delivered: &'a mut u64,
    phase_entry: &'a mut Vec<f64>,
    trace: &'a mut TraceSink,
    metrics: &'a mut MetricsRegistry,
    /// `msg.payload_bytes`, tallied outside the registry so a send does
    /// not look the name up; folded in when the run ends.
    payload_bytes: &'a mut Histogram,
}

impl Ctx<'_> {
    /// This PE's id.
    #[inline]
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Total PEs in the machine.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.machine.num_pes()
    }

    /// The machine description (cost constants, topology).
    #[inline]
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// Current virtual time on this PE, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        *self.clock
    }

    /// Records a flight-recorder event at this PE's current virtual time.
    /// `make` is only invoked when tracing is enabled, so an instrumented
    /// hot path pays one enum-discriminant branch when it is off.
    #[inline]
    pub fn trace(&mut self, make: impl FnOnce() -> EventKind) {
        self.trace.record(*self.clock, self.pe as u32, make);
    }

    /// The run-wide metrics registry. Counters and histograms recorded
    /// here end up on [`crate::SimReport::metrics`].
    #[inline]
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }

    /// Charges `ops` 64-bit integer operations of compute time.
    pub fn charge_ops(&mut self, ops: u64) {
        let t = self.machine.ops_time(ops);
        *self.clock += t;
        self.stats.ops += ops;
        self.stats.charge(Category::Compute, t);
    }

    /// Charges streaming main-memory traffic of `bytes` (intranode).
    pub fn charge_mem(&mut self, bytes: u64) {
        let t = self.machine.mem_time(bytes);
        *self.clock += t;
        self.stats.charge(Category::Intranode, t);
    }

    /// Charges `lines` cache-line transfers (random-access traffic).
    pub fn charge_cache_lines(&mut self, lines: u64) {
        self.charge_mem(lines * self.machine.line_bytes as u64);
    }

    /// Sends `payload` to `dst` on channel `tag`.
    ///
    /// Remote destination: the sender pays NIC injection time and the
    /// message lands at `now + τ`. Colocated destination: the sender pays
    /// a memory copy and the message is visible immediately (the runtime's
    /// memcpy conversion, paper §VI-B).
    pub fn send(&mut self, dst: PeId, tag: u32, payload: Vec<u8>) {
        self.send_with_flows(dst, tag, payload, Vec::new());
    }

    /// Like [`Ctx::send`], but attaches out-of-band causal flow tags
    /// (record-ordinal keyed) to the message. The tags ride in the [`Msg`]
    /// sidecar — they are not payload bytes, so the charged time is
    /// identical to an untagged send.
    pub fn send_with_flows(
        &mut self,
        dst: PeId,
        tag: u32,
        payload: Vec<u8>,
        flows: Vec<(u32, crate::telemetry::FlowTag)>,
    ) {
        let bytes = payload.len() as u64;
        let arrival = if self.machine.colocated(self.pe, dst) {
            let t = self.machine.mem_time(bytes);
            *self.clock += t;
            self.stats.charge(Category::Intranode, t);
            self.stats.msgs_sent_local += 1;
            self.stats.bytes_sent_local += bytes;
            *self.clock
        } else {
            let t = self.machine.link_time(bytes);
            *self.clock += t;
            self.stats.charge(Category::Internode, t);
            self.stats.msgs_sent_remote += 1;
            self.stats.bytes_sent_remote += bytes;
            *self.clock + self.machine.latency
        };
        let seq = *self.seq;
        *self.seq += 1;
        self.payload_bytes.observe(bytes as f64);
        self.trace.record(*self.clock, self.pe as u32, || EventKind::MsgSend {
            dst: dst as u32,
            tag,
            bytes: bytes as u32,
        });
        self.staged.push(Msg {
            src: self.pe,
            dst,
            tag,
            payload,
            arrival,
            seq,
            flows,
        });
    }

    /// Delivers every message that has arrived by `now`, in arrival order.
    pub fn poll(&mut self) -> Vec<Msg> {
        let mut out = Vec::new();
        while let Some(m) = self.inbox.pop_ready(*self.clock) {
            self.stats.msgs_received += 1;
            self.stats.bytes_received += m.len() as u64;
            *self.delivered += 1;
            self.trace.record(*self.clock, self.pe as u32, || EventKind::MsgDeliver {
                src: m.src as u32,
                tag: m.tag,
                bytes: m.len() as u32,
            });
            out.push(m);
        }
        if !out.is_empty() {
            let depth = self.inbox.len() as u32;
            self.trace
                .record(*self.clock, self.pe as u32, || EventKind::QueueDepth { depth });
        }
        out
    }

    /// `true` if a message is deliverable right now.
    pub fn has_ready(&self) -> bool {
        self.inbox.next_arrival().is_some_and(|a| a <= *self.clock)
    }

    /// Arrival time of the earliest pending message, if any (possibly in
    /// the future).
    pub fn next_arrival(&self) -> Option<f64> {
        self.inbox.next_arrival()
    }

    /// Declares `bytes` of allocation; may trip the node budget (the
    /// simulation then aborts with [`SimError::Oom`] after this step).
    pub fn mem_alloc(&mut self, bytes: u64) {
        self.stats.mem_now += bytes;
        self.stats.mem_peak = self.stats.mem_peak.max(self.stats.mem_now);
        let node = self.machine.node_of(self.pe);
        let now = self.stats.mem_now;
        self.trace
            .record(*self.clock, self.pe as u32, || EventKind::MemAlloc { bytes, now });
        if let Err(e) = self.mem.alloc(node, bytes) {
            self.trace
                .record(*self.clock, self.pe as u32, || EventKind::Oom { bytes });
            if self.oom.is_none() {
                *self.oom = Some(e);
            }
        }
        let live = self.mem.live(node);
        self.trace.record(*self.clock, self.pe as u32, || EventKind::NodeMem {
            node: node as u32,
            bytes: live,
        });
    }

    /// Releases `bytes` of allocation.
    pub fn mem_free(&mut self, bytes: u64) {
        self.stats.mem_now = self.stats.mem_now.saturating_sub(bytes);
        let node = self.machine.node_of(self.pe);
        self.mem.free(node, bytes);
        let now = self.stats.mem_now;
        self.trace
            .record(*self.clock, self.pe as u32, || EventKind::MemFree { bytes, now });
        let live = self.mem.live(node);
        self.trace.record(*self.clock, self.pe as u32, || EventKind::NodeMem {
            node: node as u32,
            bytes: live,
        });
    }

    /// Marks entry into `phase` (0-based). Used for the per-phase makespan
    /// decomposition (Fig 4). Every PE should mark the same phases.
    pub fn set_phase(&mut self, phase: usize) {
        if self.phase_entry.len() <= phase {
            self.phase_entry.resize(phase + 1, 0.0);
        }
        self.phase_entry[phase] = self.phase_entry[phase].max(*self.clock);
        self.trace.record(*self.clock, self.pe as u32, || EventKind::Phase {
            phase: phase as u32,
        });
    }
}

/// The simulator: owns the machine description and runs programs to
/// completion.
pub struct Simulator {
    machine: MachineConfig,
}

impl Simulator {
    /// Creates a simulator for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        Self { machine }
    }

    /// The machine this simulator models.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Runs one program per PE to completion and reports accounting.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the machine's PE count.
    pub fn run(&self, programs: Vec<Box<dyn Program>>) -> Result<SimReport, SimError> {
        self.run_traced(programs, &mut TraceSink::Off)
    }

    /// Like [`Simulator::run`], but records flight-recorder events into
    /// `trace`. Pass [`TraceSink::Off`] (what [`Simulator::run`] does) for
    /// zero-overhead untraced execution, or a [`TraceSink::ring`] to keep
    /// the most recent events for Chrome-trace export. The simulator itself
    /// records message sends/deliveries, memory traffic, phase transitions
    /// and barrier enter/exit pairs; programs add cascade-level events
    /// through [`Ctx::trace`].
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the machine's PE count.
    pub fn run_traced(
        &self,
        programs: Vec<Box<dyn Program>>,
        trace: &mut TraceSink,
    ) -> Result<SimReport, SimError> {
        let p = self.machine.num_pes();
        assert_eq!(programs.len(), p, "need one program per PE");

        let mut programs: Vec<Option<Box<dyn Program>>> = programs.into_iter().map(Some).collect();
        let mut clocks = vec![0.0f64; p];
        let mut states = vec![PeState::Runnable; p];
        let mut gens = vec![0u64; p];
        let mut stats = vec![PeStats::default(); p];
        let mut inboxes: Vec<Inbox> = (0..p).map(|_| Inbox::default()).collect();
        let mut mem = MemoryTracker::new(&self.machine);
        let mut phase_entry: Vec<f64> = Vec::new();
        let mut seq = 0u64;
        let mut sent = 0u64;
        let mut delivered = 0u64;
        let mut barriers_completed = 0u64;
        let mut barrier_entry = vec![0.0f64; p];
        let mut metrics = MetricsRegistry::new();
        let mut payload_bytes = Histogram::with_bounds(mbounds::BYTES_BOUNDS);

        // Runnable heap of (clock, pe, generation); stale entries skipped.
        let mut heap: BinaryHeap<Reverse<(ArrivalKey, PeId, u64)>> = BinaryHeap::new();
        let push = |heap: &mut BinaryHeap<Reverse<(ArrivalKey, PeId, u64)>>,
                    clock: f64,
                    pe: PeId,
                    gen: u64| {
            heap.push(Reverse((ArrivalKey { arrival: clock, seq: pe as u64 }, pe, gen)));
        };
        for pe in 0..p {
            push(&mut heap, 0.0, pe, 0);
        }

        let mut staged: Vec<Msg> = Vec::new();
        loop {
            // Find the next genuinely runnable PE.
            let next = loop {
                match heap.pop() {
                    Some(Reverse((key, pe, gen))) => {
                        if states[pe] == PeState::Runnable
                            && gens[pe] == gen
                            && clocks[pe] == key.arrival
                        {
                            break Some(pe);
                        }
                        // stale — skip
                    }
                    None => break None,
                }
            };

            let Some(pe) = next else {
                // No runnable PE: barrier completion, completion, or deadlock.
                let live: Vec<PeId> =
                    (0..p).filter(|&i| states[i] != PeState::Done).collect();
                if live.is_empty() {
                    break;
                }
                let all_in_barrier = live.iter().all(|&i| states[i] == PeState::InBarrier);
                if all_in_barrier && sent == delivered {
                    // Quiescence reached: release the barrier.
                    let t_max = live
                        .iter()
                        .map(|&i| clocks[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    let t_done = t_max + self.machine.barrier_time(live.len());
                    for &i in &live {
                        let wait = t_done - clocks[i];
                        let waited_s = t_done - barrier_entry[i];
                        stats[i].charge(Category::Idle, wait);
                        stats[i].barrier_wait_s += waited_s;
                        metrics.observe("barrier.wait_s", mbounds::SECONDS_BOUNDS, waited_s);
                        trace.record(t_done, i as u32, || EventKind::BarrierExit { waited_s });
                        clocks[i] = t_done;
                        states[i] = PeState::Runnable;
                        gens[i] += 1;
                        push(&mut heap, t_done, i, gens[i]);
                    }
                    barriers_completed += 1;
                    continue;
                }
                return Err(SimError::Deadlock {
                    sleeping: live
                        .iter()
                        .copied()
                        .filter(|&i| states[i] == PeState::Sleeping)
                        .collect(),
                    in_barrier: live
                        .iter()
                        .copied()
                        .filter(|&i| states[i] == PeState::InBarrier)
                        .collect(),
                });
            };

            // Step the program.
            let mut program = programs[pe].take().expect("runnable PE has a program");
            let mut oom: Option<OomError> = None;
            let step = {
                let mut ctx = Ctx {
                    pe,
                    machine: &self.machine,
                    clock: &mut clocks[pe],
                    stats: &mut stats[pe],
                    inbox: &mut inboxes[pe],
                    staged: &mut staged,
                    seq: &mut seq,
                    mem: &mut mem,
                    oom: &mut oom,
                    delivered: &mut delivered,
                    phase_entry: &mut phase_entry,
                    trace,
                    metrics: &mut metrics,
                    payload_bytes: &mut payload_bytes,
                };
                program.step(&mut ctx)
            };
            programs[pe] = Some(program);

            if let Some(e) = oom {
                return Err(SimError::Oom(e));
            }

            // Route staged messages; wake sleeping/barrier destinations.
            for m in staged.drain(..) {
                let dst = m.dst;
                if states[dst] == PeState::Done {
                    return Err(SimError::MessageToFinishedPe { src: m.src, dst });
                }
                let arrival = m.arrival;
                inboxes[dst].push(m);
                sent += 1;
                if matches!(states[dst], PeState::Sleeping | PeState::InBarrier) {
                    let wake = clocks[dst].max(arrival);
                    let idle = wake - clocks[dst];
                    stats[dst].charge(Category::Idle, idle);
                    if states[dst] == PeState::InBarrier {
                        let waited_s = wake - barrier_entry[dst];
                        stats[dst].barrier_wait_s += waited_s;
                        metrics.observe("barrier.wait_s", mbounds::SECONDS_BOUNDS, waited_s);
                        trace.record(wake, dst as u32, || EventKind::BarrierExit { waited_s });
                    }
                    clocks[dst] = wake;
                    states[dst] = PeState::Runnable;
                    gens[dst] += 1;
                    push(&mut heap, wake, dst, gens[dst]);
                }
            }

            // Apply the program's verdict.
            match step {
                Step::Yield => {
                    gens[pe] += 1;
                    push(&mut heap, clocks[pe], pe, gens[pe]);
                }
                Step::Sleep => {
                    if let Some(arrival) = inboxes[pe].next_arrival() {
                        // A message is already on its way: advance and run.
                        let wake = clocks[pe].max(arrival);
                        stats[pe].charge(Category::Idle, wake - clocks[pe]);
                        clocks[pe] = wake;
                        gens[pe] += 1;
                        push(&mut heap, wake, pe, gens[pe]);
                    } else {
                        states[pe] = PeState::Sleeping;
                    }
                }
                Step::Barrier => {
                    if inboxes[pe].next_arrival().is_some() {
                        // Late message: process it before settling in.
                        let arrival = inboxes[pe].next_arrival().expect("checked");
                        let wake = clocks[pe].max(arrival);
                        stats[pe].charge(Category::Idle, wake - clocks[pe]);
                        clocks[pe] = wake;
                        gens[pe] += 1;
                        push(&mut heap, wake, pe, gens[pe]);
                    } else {
                        states[pe] = PeState::InBarrier;
                        barrier_entry[pe] = clocks[pe];
                        stats[pe].barriers += 1;
                        trace.record(clocks[pe], pe as u32, || EventKind::BarrierEnter);
                    }
                }
                Step::Done => {
                    assert_eq!(
                        inboxes[pe].len(),
                        0,
                        "PE {pe} finished with undelivered messages"
                    );
                    states[pe] = PeState::Done;
                }
            }
        }

        let total_time = clocks.iter().copied().fold(0.0, f64::max);
        // Phase spans: entry[i] .. entry[i+1] (last phase runs to the end).
        let mut phase_time = Vec::with_capacity(phase_entry.len());
        for i in 0..phase_entry.len() {
            let start = phase_entry[i];
            let end = if i + 1 < phase_entry.len() {
                phase_entry[i + 1]
            } else {
                total_time
            };
            phase_time.push((end - start).max(0.0));
        }

        metrics.fold_histogram("msg.payload_bytes", &mut payload_bytes);
        Ok(SimReport {
            total_time,
            pes: stats,
            node_mem_peak: mem.peaks().to_vec(),
            barriers_completed,
            phase_time,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A PE that charges fixed compute then finishes.
    struct Burn {
        ops: u64,
        done: bool,
    }
    impl Program for Burn {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if self.done {
                return Step::Done;
            }
            ctx.charge_ops(self.ops);
            self.done = true;
            Step::Done
        }
    }

    #[test]
    fn makespan_is_max_pe_time() {
        let m = MachineConfig::test_machine(1, 2); // 1 GOp/s per PE
        let sim = Simulator::new(m);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(Burn { ops: 1_000_000_000, done: false }),
            Box::new(Burn { ops: 2_000_000_000, done: false }),
        ];
        let r = sim.run(programs).unwrap();
        assert!((r.total_time - 2.0).abs() < 1e-9);
        assert!((r.pes[0].compute_s - 1.0).abs() < 1e-9);
        assert!((r.pes[1].compute_s - 2.0).abs() < 1e-9);
    }

    /// Ping-pong: PE 0 sends, PE 1 replies, both finish.
    enum PingState {
        Start,
        AwaitReply,
        Finish,
    }
    struct Ping(PingState);
    impl Program for Ping {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            match self.0 {
                PingState::Start => {
                    ctx.send(1, 7, vec![42; 100]);
                    self.0 = PingState::AwaitReply;
                    Step::Sleep
                }
                PingState::AwaitReply => {
                    let msgs = ctx.poll();
                    if msgs.is_empty() {
                        return Step::Sleep;
                    }
                    assert_eq!(msgs[0].payload[0], 24);
                    self.0 = PingState::Finish;
                    Step::Done
                }
                PingState::Finish => Step::Done,
            }
        }
    }
    struct Pong {
        replied: bool,
    }
    impl Program for Pong {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if self.replied {
                return Step::Done;
            }
            let msgs = ctx.poll();
            if msgs.is_empty() {
                return Step::Sleep;
            }
            assert_eq!(msgs[0].tag, 7);
            assert_eq!(msgs[0].payload.len(), 100);
            ctx.send(msgs[0].src, 8, vec![24]);
            self.replied = true;
            Step::Done
        }
    }

    #[test]
    fn ping_pong_remote_delivers_and_charges_latency() {
        let m = MachineConfig::test_machine(2, 1); // PEs 0,1 on separate nodes
        let tau = m.latency;
        let sim = Simulator::new(m);
        let r = sim
            .run(vec![
                Box::new(Ping(PingState::Start)),
                Box::new(Pong { replied: false }),
            ])
            .unwrap();
        // Arrival must include latency: total ≥ 2τ.
        assert!(r.total_time >= 2.0 * tau);
        assert_eq!(r.pes[0].msgs_sent_remote, 1);
        assert_eq!(r.pes[1].msgs_received, 1);
        assert_eq!(r.pes[0].bytes_sent_remote, 100);
        assert_eq!(r.pes[1].bytes_received, 100);
        assert!(r.pes[0].idle_s > 0.0, "ping waited for the reply");
    }

    #[test]
    fn ping_pong_local_has_no_latency_and_counts_local() {
        let m = MachineConfig::test_machine(1, 2); // colocated
        let sim = Simulator::new(m);
        let r = sim
            .run(vec![
                Box::new(Ping(PingState::Start)),
                Box::new(Pong { replied: false }),
            ])
            .unwrap();
        assert_eq!(r.pes[0].msgs_sent_local, 1);
        assert_eq!(r.pes[0].msgs_sent_remote, 0);
        assert_eq!(r.remote_bytes(), 0);
        assert_eq!(r.local_bytes(), 101);
    }

    /// All PEs barrier once, with PE 0 slower; everyone leaves at the same
    /// virtual time.
    struct BarrierOnce {
        ops: u64,
        phase: u8,
    }
    impl Program for BarrierOnce {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            match self.phase {
                0 => {
                    ctx.charge_ops(self.ops);
                    self.phase = 1;
                    Step::Barrier
                }
                1 => {
                    // After the barrier all clocks must be equal.
                    self.phase = 2;
                    Step::Done
                }
                _ => Step::Done,
            }
        }
    }

    #[test]
    fn barrier_synchronizes_clocks_and_counts_waits() {
        let m = MachineConfig::test_machine(1, 4);
        let sim = Simulator::new(m);
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|i| {
                Box::new(BarrierOnce {
                    ops: (i as u64 + 1) * 1_000_000_000,
                    phase: 0,
                }) as Box<dyn Program>
            })
            .collect();
        let r = sim.run(programs).unwrap();
        assert_eq!(r.barriers_completed, 1);
        // Slowest PE: 4s of compute. Everyone waits for it.
        assert!(r.total_time >= 4.0);
        // Fastest PE idled ≈ 3 s in the barrier.
        assert!(r.pes[0].barrier_wait_s > 2.9);
        assert!(r.pes[3].barrier_wait_s < 0.5);
    }

    /// Messages sent *to a PE already in the barrier* must wake it.
    struct LateSender {
        sent: bool,
    }
    impl Program for LateSender {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if !self.sent {
                ctx.charge_ops(5_000_000_000); // slow start
                ctx.send(1, 0, vec![9; 8]);
                self.sent = true;
                return Step::Barrier;
            }
            Step::Done
        }
    }
    struct LateReceiver {
        got: bool,
    }
    impl Program for LateReceiver {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            let had_mail = !ctx.poll().is_empty();
            if had_mail {
                self.got = true;
                // Re-enter the barrier after processing the late arrival.
                Step::Barrier
            } else if self.got {
                // Stepped again with no mail ⇒ the barrier released us.
                Step::Done
            } else {
                Step::Barrier
            }
        }
    }

    #[test]
    fn barrier_is_quiescent_messages_processed_before_release() {
        let m = MachineConfig::test_machine(2, 1);
        let sim = Simulator::new(m);
        // Receiver enters the barrier immediately; sender computes 5 s then
        // sends and barriers. Quiescence requires the receiver to wake and
        // poll the message before the barrier completes.
        let r = sim
            .run(vec![
                Box::new(LateSender { sent: false }),
                Box::new(LateReceiver { got: false }),
            ])
            .unwrap();
        assert_eq!(r.barriers_completed, 1);
        assert_eq!(r.pes[1].msgs_received, 1);
    }

    #[test]
    fn deadlock_detected() {
        struct Stuck;
        impl Program for Stuck {
            fn step(&mut self, _ctx: &mut Ctx<'_>) -> Step {
                Step::Sleep
            }
        }
        let m = MachineConfig::test_machine(1, 2);
        let sim = Simulator::new(m);
        let err = sim
            .run(vec![Box::new(Stuck), Box::new(Stuck)])
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn oom_aborts() {
        struct Hog;
        impl Program for Hog {
            fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
                ctx.mem_alloc(u64::MAX / 2);
                Step::Done
            }
        }
        let m = MachineConfig::test_machine(1, 1);
        let sim = Simulator::new(m);
        let err = sim.run(vec![Box::new(Hog)]).unwrap_err();
        assert!(matches!(err, SimError::Oom(_)));
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let m = MachineConfig::test_machine(2, 2);
        let make = || -> Vec<Box<dyn Program>> {
            (0..4)
                .map(|i| {
                    Box::new(BarrierOnce {
                        ops: (i as u64 * 37 + 11) * 1_000_000,
                        phase: 0,
                    }) as Box<dyn Program>
                })
                .collect()
        };
        let r1 = Simulator::new(m.clone()).run(make()).unwrap();
        let r2 = Simulator::new(m).run(make()).unwrap();
        assert_eq!(r1.total_time.to_bits(), r2.total_time.to_bits());
        assert_eq!(r1.pes, r2.pes);
    }

    #[test]
    fn phase_markers_produce_spans() {
        struct TwoPhase {
            at: u8,
        }
        impl Program for TwoPhase {
            fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
                match self.at {
                    0 => {
                        ctx.set_phase(0);
                        ctx.charge_ops(1_000_000_000);
                        self.at = 1;
                        Step::Barrier
                    }
                    1 => {
                        ctx.set_phase(1);
                        ctx.charge_ops(2_000_000_000);
                        self.at = 2;
                        Step::Done
                    }
                    _ => Step::Done,
                }
            }
        }
        let m = MachineConfig::test_machine(1, 2);
        let sim = Simulator::new(m);
        let r = sim
            .run(vec![Box::new(TwoPhase { at: 0 }), Box::new(TwoPhase { at: 0 })])
            .unwrap();
        assert_eq!(r.phase_time.len(), 2);
        // Phase 0 also carries the barrier release cost (a few µs).
        assert!((r.phase_time[0] - 1.0).abs() < 1e-4, "{:?}", r.phase_time);
        assert!((r.phase_time[1] - 2.0).abs() < 1e-4, "{:?}", r.phase_time);
    }
}
