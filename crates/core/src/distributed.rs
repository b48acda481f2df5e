//! The distributed engine: DAKC over a real [`Transport`].
//!
//! Each rank (an OS process under `dakc launch`, or a thread over the
//! loopback backend) steps the same rank program as the simulator
//! (`crate::rank`: Parse → Drain → Count), driving the identical L0–L3
//! cascade through a [`NetFabric`], whose termination rounds answer the
//! drain's "may I count now?". Around the steps this driver adds what only
//! a real runtime needs, then gathers:
//!
//! ```text
//! Recover — with --recover, purge and replay toward a respawned peer.
//! Stall   — fail a drain whose global totals stop moving.
//! Monitor — publish phases and traffic for the launch supervisor.
//! Gather  — every rank streams its `{kmer, count}` pairs (HEAVY wire
//!           format) and its metrics JSON to rank 0, which merges them.
//! ```
//!
//! Every phase is fallible: wire failures latched by the fabric surface at
//! batch boundaries, a drain whose global totals stop moving without
//! reaching quiescence fails with a four-counter diagnostic dump (the
//! stalled-termination path a dropped or duplicated frame produces), and
//! the gather fast-fails when a peer that still owes data is known dead.
//! When a [`HeartbeatState`] monitor is attached via [`RunOpts`], phase
//! transitions and traffic totals are published for the launch supervisor.

use std::sync::Arc;
use std::time::Instant;

use dakc_conveyors::Fabric;
use dakc_io::ReadSet;
use dakc_kmer::{counts::merge_disjoint_runs, KmerCount, KmerWord};
use dakc_net::{
    HeartbeatState, Loopback, NetError, NetFabric, NetResult, NetTuning, Phase, Transport,
    DEFAULT_PINGS,
};
use dakc_sim::telemetry::{decode_events, encode_events, Event, MetricsRegistry};
use dakc_sim::{EventKind, Step};
use dakc_sort::RadixKey;

use crate::aggregate::{decode_packet, encode_heavy_packet, ReceiveStore, CH_HEAVY};
use crate::config::DakcConfig;
use crate::rank::RankMachine;

/// Gather chunk budget in bytes: small enough to interleave fairly on the
/// launcher's inbox, large enough to amortize framing.
const GATHER_CHUNK_BYTES: usize = 60 * 1024;

/// Per-rank run options: transport deadlines/retries and the optional
/// supervision hook.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Deadlines and retry policy for the drain/gather waits (the
    /// transport itself is tuned at construction; this governs the
    /// driver-level stall detection).
    pub tuning: NetTuning,
    /// When set, phase transitions and traffic totals are published here
    /// for the heartbeat sender.
    pub monitor: Option<Arc<HeartbeatState>>,
    /// Turns on the distributed flight recorder: clock alignment against
    /// rank 0, wall-clock event tracing, flow sidecars on the wire, and
    /// the per-rank trace gather. Collective — every rank of a job must
    /// agree (the launcher forwards `--trace` to all workers).
    pub trace: bool,
    /// Rank-death recovery: arms the transport's recovery mode during
    /// Parse and Drain, and on a completed respawn purges the dead
    /// incarnation's contributions and replays this rank's parsed input
    /// owner-filtered toward the replacement. Collective, and requires a
    /// transport built in recovery mode (see
    /// `TcpTransport::rendezvous_recover`); on any other transport the
    /// flag is inert. Mutually exclusive with [`RunOpts::trace`].
    pub recover: bool,
}

impl RunOpts {
    fn set_phase(&self, phase: Phase) {
        if let Some(m) = &self.monitor {
            m.set_phase(phase);
        }
    }

    fn record_traffic(&self, sent: u64, recv: u64, retries: u64) {
        if let Some(m) = &self.monitor {
            m.record_traffic(sent, recv, retries);
        }
    }
}

/// The result of a distributed run, published by rank 0.
#[derive(Debug, Clone)]
pub struct NetRun<W> {
    /// The global histogram, sorted by k-mer — bit-identical to the serial
    /// baseline on the same input.
    pub counts: Vec<KmerCount<W>>,
    /// All ranks' metrics merged: cascade telemetry (L0–L3 histograms)
    /// plus transport counters (`net.*`), SimReport-style.
    pub metrics: MetricsRegistry,
    /// Rank 0's wall-clock seconds from transport hand-off to merged
    /// result.
    pub elapsed_s: f64,
    /// Ranks that participated.
    pub ranks: usize,
    /// Every rank's flight-recorder events on rank 0's clock, merged and
    /// sorted by timestamp (stable, so per-rank recording order is
    /// preserved among ties). Empty unless [`RunOpts::trace`] was set.
    pub trace: Vec<Event>,
}

/// Runs one rank of a distributed count over an already-connected
/// transport, with default options. Collective: every rank of the job
/// must call this once, with the same `cfg`. Returns `Ok(Some)` on rank 0
/// (the merged result), `Ok(None)` elsewhere, and a rank-attributed
/// [`NetError`] when the wire or a peer fails.
pub fn run_rank<W, T>(reads: &ReadSet, cfg: &DakcConfig, transport: T) -> NetResult<Option<NetRun<W>>>
where
    W: KmerWord + RadixKey,
    T: Transport,
{
    run_rank_opts(reads, cfg, transport, &RunOpts::default())
}

/// [`run_rank`] with explicit [`RunOpts`].
pub fn run_rank_opts<W, T>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    transport: T,
    opts: &RunOpts,
) -> NetResult<Option<NetRun<W>>>
where
    W: KmerWord + RadixKey,
    T: Transport,
{
    let mine = reads.pe_range(transport.rank(), transport.num_ranks());
    run_rank_on(reads, mine, cfg, transport, opts)
}

/// [`run_rank_opts`] for a rank that says which reads are its own: the
/// in-process engines hold the whole input and pass their `pe_range`, a
/// `dakc worker` process holds only its byte-range slice of the file
/// (`dakc_io::load_slice`) and passes all of it. Collective like
/// [`run_rank`]; the ranks' ranges must cover the job's input exactly once.
pub fn run_rank_on<W, T>(
    reads: &ReadSet,
    mine: std::ops::Range<usize>,
    cfg: &DakcConfig,
    transport: T,
    opts: &RunOpts,
) -> NetResult<Option<NetRun<W>>>
where
    W: KmerWord + RadixKey,
    T: Transport,
{
    let started = Instant::now();
    let word_bytes = cfg.kmer_bytes::<W>();
    let n = transport.num_ranks();
    let Partition { transport, counts, metrics, trace } =
        count_partition_on(reads, mine, cfg, transport, opts)?;

    opts.set_phase(Phase::Gather);
    let result = gather(transport, counts, metrics, trace, word_bytes, opts)?;
    opts.set_phase(Phase::Done);
    match result {
        None => Ok(None),
        Some((mut transport, counts, metrics, mut trace)) => {
            transport.barrier()?;
            // One timeline: stable sort keeps each rank's recording order
            // among equal (clock-aligned) timestamps.
            trace.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            Ok(Some(NetRun {
                counts,
                metrics,
                elapsed_s: started.elapsed().as_secs_f64(),
                ranks: n,
                trace,
            }))
        }
    }
}

/// One rank's quiescent share of a distributed count, before any gather:
/// the owner-partitioned sorted `{kmer, count}` run this rank is
/// responsible for, the transport handed back for further collectives,
/// and the rank's metrics/trace so far. This is the hand-off point
/// between counting and whatever comes next — [`run_rank_opts`] streams
/// it to rank 0, `dakc serve` writes it to a shard file and stays
/// resident answering queries.
#[derive(Debug)]
pub struct Partition<W, T> {
    /// The transport, post-quiescence: the termination protocol is done
    /// but no final barrier has run, so the caller can keep using it.
    pub transport: T,
    /// This rank's owned `{kmer, count}` table, sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Cascade and transport telemetry folded so far.
    pub metrics: MetricsRegistry,
    /// Flight-recorder events (empty unless [`RunOpts::trace`]).
    pub trace: Vec<Event>,
}

/// Runs the Parse → Drain → Count phases of one rank and stops at the
/// quiescent hand-off instead of gathering: the factored-out front half
/// of [`run_rank_opts`], and the build phase of `dakc serve`. Collective
/// across the job's ranks (drain runs four-counter termination rounds),
/// but the transport comes back alive — a resident service can keep
/// exchanging frames on it indefinitely.
pub fn count_partition<W, T>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    transport: T,
    opts: &RunOpts,
) -> NetResult<Partition<W, T>>
where
    W: KmerWord + RadixKey,
    T: Transport,
{
    let mine = reads.pe_range(transport.rank(), transport.num_ranks());
    count_partition_on(reads, mine, cfg, transport, opts)
}

/// [`count_partition`] over the read range `mine` (see [`run_rank_on`]).
/// Recovery replays index into the same range, so a respawned rank must
/// be handed the reads its predecessor had — a byte-range slice of a file
/// is deterministic, which is all `--recover` needs. A range past the end
/// of `reads`, or recovery and tracing asked for together in a job of
/// more than one rank, is a typed [`NetError::Protocol`] before any frame
/// is sent.
pub fn count_partition_on<W, T>(
    reads: &ReadSet,
    range: std::ops::Range<usize>,
    cfg: &DakcConfig,
    transport: T,
    opts: &RunOpts,
) -> NetResult<Partition<W, T>>
where
    W: KmerWord + RadixKey,
    T: Transport,
{
    if range.end > reads.len() {
        let detail = format!("read range {range:?} runs past the {} reads given", reads.len());
        return Err(NetError::Protocol { detail });
    }
    let mut armed = opts.recover && transport.num_ranks() > 1;
    if armed && opts.trace {
        let detail = "recovery and tracing are mutually exclusive".to_string();
        return Err(NetError::Protocol { detail });
    }
    cfg.validate::<W>();
    let mut fab = NetFabric::new(transport);
    if opts.trace {
        // Order matters: the wire format switches with tracing, and the
        // clock exchange must finish before any cascade frame flies so
        // every later timestamp (trace events and flow-tag stamps alike)
        // is already on rank 0's clock.
        fab.enable_tracing();
        fab.align_clock(DEFAULT_PINGS, opts.tuning.collective_timeout)?;
    }
    let mut store = ReceiveStore::<W>::for_k(cfg.k);
    if armed {
        store.track_sources();
        fab.transport_mut().arm_recovery(true);
    }
    let mut rank = RankMachine::new(cfg.clone(), reads, range, store);

    // A job whose frames were lost or duplicated on the wire never reaches
    // quiescence, yet every round completes promptly (all peers are
    // alive) — the transport's own collective deadline never fires. The
    // driver watches the *global totals* instead: unchanged totals after
    // idle rounds for a full collective deadline means the counters are
    // wedged, and the run fails with the four-counter dump.
    let mut phase = Phase::Setup;
    let mut last_totals: Option<(u64, u64)> = None;
    let mut last_movement = Instant::now();
    loop {
        if armed {
            if let Some(rec) = fab.transport_mut().poll_recovery()? {
                // A respawned peer reconnected: repair this rank, count the
                // repair (recovery-only counters, absent from any run that
                // never recovered) and restart the stall clock.
                let [replayed, purged_recv, purged_sent] = rank.replay(&mut fab, rec.rank);
                let m = fab.metrics();
                m.inc("net.replayed_kmers", replayed);
                m.inc("net.purged_recv_occurrences", purged_recv);
                m.inc("net.purged_sent_occurrences", purged_sent);
                last_movement = Instant::now();
            } else if phase == Phase::Drain && fab.transport_mut().recovery_pending() {
                // A peer is dead awaiting respawn: rounds cannot complete
                // and totals legitimately freeze. Hold the stall detector
                // (the transport's own recovery deadline is the backstop)
                // and don't spin hot.
                last_movement = Instant::now();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        if rank.step(&mut fab)? == Step::Done {
            break;
        }
        if rank.phase != phase {
            phase = rank.phase;
            opts.set_phase(phase);
            last_movement = Instant::now();
            if phase == Phase::Count && armed {
                // Quiescence reached: the recovery window closes here. A
                // rank death from now on (Count/Gather) is fatal — there
                // is no replay story for a partially gathered result.
                assert!(!fab.transport_mut().recovery_pending(), "quiescent with a recovery pending");
                fab.transport_mut().arm_recovery(false);
                armed = false;
            }
        } else if phase == Phase::Parse {
            let s = fab.transport_mut().stats();
            opts.record_traffic(s.frames_sent(), s.frames_recv(), s.retries);
        } else if phase == Phase::Drain && rank.processed == 0 {
            // The step ran a termination round that did not decide.
            let totals = fab.transport_mut().last_global_totals();
            if let Some((s, r)) = totals {
                let retries = fab.transport_mut().stats().retries;
                opts.record_traffic(s, r, retries);
            }
            if totals != last_totals {
                last_totals = totals;
                last_movement = Instant::now();
            } else if last_movement.elapsed() >= opts.tuning.collective_timeout {
                let waited = last_movement.elapsed();
                let diag = fab.transport_mut().diagnostics();
                return Err(NetError::timeout(
                    "termination",
                    waited,
                    format!("quiescence stalled, global totals frozen at {last_totals:?}; {diag}"),
                ));
            }
        }
    }
    let counts = rank.output.take().expect("a counted rank has output").counts;
    if let Some(mon) = &opts.monitor {
        fab.metrics().inc("net.heartbeats_sent", mon.beats());
    }
    fab.check()?;
    fab.trace(|| EventKind::Phase { phase: Phase::Gather as u32 });
    let (transport, metrics, trace) = fab.finish();
    Ok(Partition { transport, counts, metrics, trace })
}

/// Streams every rank's pairs, metrics, and (when tracing) trace buffer
/// to rank 0 over the (now quiescent) transport. Per rank the frame
/// sequence is: one header (`[npairs: u64 LE]`), `ceil` chunk frames in
/// HEAVY `{kmer, count}` wire format, one metrics-JSON frame, and — only
/// when [`RunOpts::trace`] is set on every rank — one trace header
/// (`[nbytes: u64 LE]`) followed by `ceil` chunks of
/// [`encode_events`]-format bytes. Per-peer FIFO ordering makes the
/// sequence self-delimiting. Non-zero ranks run their final barrier here;
/// rank 0's caller does after consuming the result. Rank 0 fast-fails
/// when a peer that still owes frames dies, and times out when no frame
/// arrives for a full collective deadline.
type Gathered<W, T> = Option<(T, Vec<KmerCount<W>>, MetricsRegistry, Vec<Event>)>;

fn gather<W: KmerWord + RadixKey, T: Transport>(
    mut transport: T,
    counts: Vec<KmerCount<W>>,
    metrics: MetricsRegistry,
    trace: Vec<Event>,
    word_bytes: usize,
    opts: &RunOpts,
) -> NetResult<Gathered<W, T>> {
    let rank = transport.rank();
    let n = transport.num_ranks();
    if rank != 0 {
        let pairs: Vec<(W, u32)> = counts.into_iter().map(|c| (c.kmer, c.count)).collect();
        transport.send(0, &(pairs.len() as u64).to_le_bytes())?;
        let chunk_pairs = (GATHER_CHUNK_BYTES / (word_bytes + 4)).max(1);
        for chunk in pairs.chunks(chunk_pairs) {
            transport.send(0, &encode_heavy_packet(chunk, word_bytes))?;
        }
        transport.send(0, metrics.to_json().as_bytes())?;
        if opts.trace {
            let bytes = encode_events(&trace);
            transport.send(0, &(bytes.len() as u64).to_le_bytes())?;
            for chunk in bytes.chunks(GATHER_CHUNK_BYTES) {
                transport.send(0, chunk)?;
            }
        }
        transport.flush()?;
        transport.barrier()?;
        return Ok(None);
    }

    // Rank 0: consume each peer's header → chunks → metrics sequence
    // (continuing into the trace header → chunks when tracing).
    #[derive(Clone, Copy, PartialEq)]
    enum PeerState {
        Header,
        Pairs(u64),
        Metrics,
        TraceHeader,
        Trace(u64),
        Done,
    }
    let mut states: Vec<PeerState> = (0..n)
        .map(|r| if r == 0 { PeerState::Done } else { PeerState::Header })
        .collect();
    let mut merged = metrics;
    // One sorted run per rank; chunks of different ranks interleave on the
    // wire, chunks of one rank arrive in order.
    let mut runs: Vec<Vec<KmerCount<W>>> = vec![Vec::new(); n];
    runs[0] = counts;
    let mut merged_trace = trace;
    let mut trace_bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut outstanding = n - 1;
    let mut last_frame = Instant::now();
    while outstanding > 0 {
        let Some((src, bytes)) = transport.try_recv()? else {
            // Nothing arrived: fail fast on a dead debtor, then on silence.
            if let Some(p) =
                (0..n).find(|&p| states[p] != PeerState::Done && transport.peer_dead(p))
            {
                return Err(NetError::PeerDisconnected {
                    rank: p,
                    detail: "died during gather with results outstanding".to_string(),
                });
            }
            let waited = last_frame.elapsed();
            if waited >= opts.tuning.collective_timeout {
                let owing: Vec<usize> =
                    (0..n).filter(|&p| states[p] != PeerState::Done).collect();
                return Err(NetError::timeout(
                    "gather",
                    waited,
                    format!("ranks {owing:?} still owe frames; {}", transport.diagnostics()),
                ));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
            continue;
        };
        last_frame = Instant::now();
        match states[src] {
            PeerState::Header => {
                let npairs = bytes
                    .get(..8)
                    .and_then(|b| <[u8; 8]>::try_from(b).ok())
                    .map(u64::from_le_bytes)
                    .ok_or_else(|| NetError::Protocol {
                        detail: format!(
                            "gather header from rank {src} is {} bytes, want 8",
                            bytes.len()
                        ),
                    })?;
                states[src] = if npairs == 0 {
                    PeerState::Metrics
                } else {
                    PeerState::Pairs(npairs)
                };
            }
            PeerState::Pairs(remaining) => {
                let mut store = ReceiveStore::<W>::default();
                decode_packet(CH_HEAVY, &bytes, word_bytes, &mut store).map_err(|e| {
                    NetError::CorruptFrame { rank: src, detail: format!("gather chunk: {e}") }
                })?;
                let got = store.pairs.len() as u64;
                if got > remaining {
                    return Err(NetError::Protocol {
                        detail: format!(
                            "gather overrun from rank {src}: got {got} pairs, expected {remaining}"
                        ),
                    });
                }
                runs[src].extend(store.pairs.iter().map(|&(w, c)| KmerCount::new(w, c)));
                states[src] = if got == remaining {
                    PeerState::Metrics
                } else {
                    PeerState::Pairs(remaining - got)
                };
            }
            PeerState::Metrics => {
                let theirs = std::str::from_utf8(&bytes)
                    .map_err(|e| NetError::Protocol {
                        detail: format!("gather metrics from rank {src}: not utf8: {e}"),
                    })
                    .and_then(|text| {
                        MetricsRegistry::from_json(text).map_err(|e| NetError::Protocol {
                            detail: format!("gather metrics from rank {src}: {e}"),
                        })
                    })?;
                merged.merge(&theirs);
                if opts.trace {
                    states[src] = PeerState::TraceHeader;
                } else {
                    states[src] = PeerState::Done;
                    outstanding -= 1;
                }
            }
            PeerState::TraceHeader => {
                let nbytes = bytes
                    .get(..8)
                    .and_then(|b| <[u8; 8]>::try_from(b).ok())
                    .map(u64::from_le_bytes)
                    .ok_or_else(|| NetError::Protocol {
                        detail: format!(
                            "trace header from rank {src} is {} bytes, want 8",
                            bytes.len()
                        ),
                    })?;
                if nbytes == 0 {
                    states[src] = PeerState::Done;
                    outstanding -= 1;
                } else {
                    // No reserve: the header is the peer's claim, and the
                    // buffer grows only by the bytes that really arrive.
                    states[src] = PeerState::Trace(nbytes);
                }
            }
            PeerState::Trace(remaining) => {
                let got = bytes.len() as u64;
                if got > remaining {
                    return Err(NetError::Protocol {
                        detail: format!(
                            "trace overrun from rank {src}: got {got} bytes, expected {remaining}"
                        ),
                    });
                }
                trace_bufs[src].extend_from_slice(&bytes);
                if got == remaining {
                    let events = decode_events(&trace_bufs[src]).map_err(|detail| {
                        NetError::CorruptFrame { rank: src, detail }
                    })?;
                    trace_bufs[src] = Vec::new();
                    merged_trace.extend(events);
                    states[src] = PeerState::Done;
                    outstanding -= 1;
                } else {
                    states[src] = PeerState::Trace(remaining - got);
                }
            }
            PeerState::Done => {
                return Err(NetError::Protocol {
                    detail: format!("unexpected frame from finished rank {src}"),
                })
            }
        }
    }
    merged.inc("net.ranks", n as u64);

    // Owner partitioning makes per-rank k-mer sets disjoint.
    let counts = merge_disjoint_runs(runs);
    Ok(Some((transport, counts, merged, merged_trace)))
}

/// Runs a distributed count in-process: `ranks` threads over a
/// [`Loopback`] mesh. This is `dakc launch --backend loopback`, and the
/// cheap way to exercise the full transport protocol in tests. Fails with
/// the lowest-failing-rank's error when any rank fails.
pub fn count_kmers_loopback<W>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    ranks: usize,
) -> NetResult<NetRun<W>>
where
    W: KmerWord + RadixKey + Send,
{
    count_kmers_loopback_opts(reads, cfg, ranks, &RunOpts::default())
}

/// [`count_kmers_loopback`] with explicit [`RunOpts`] — how a loopback
/// launch turns on the distributed flight recorder; the mesh takes its
/// deadlines from `opts.tuning`. The monitor (if any) is shared by every
/// rank thread, so leave it unset here.
pub fn count_kmers_loopback_opts<W>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    ranks: usize,
    opts: &RunOpts,
) -> NetResult<NetRun<W>>
where
    W: KmerWord + RadixKey + Send,
{
    let mesh = Loopback::mesh_tuned(ranks, opts.tuning.clone());
    std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| s.spawn(move || run_rank_opts::<W, _>(reads, cfg, t, opts)))
            .collect();
        let mut out = None;
        let mut failure = None;
        for h in handles {
            match h.join().expect("rank thread panicked") {
                Ok(Some(run)) => out = Some(run),
                Ok(None) => {}
                Err(e) => failure = Some(failure.unwrap_or(e)),
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(out.expect("rank 0 publishes the result")),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;
    use crate::rank::surface_decode_error;
    use dakc_baselines_shim::reference_counts;

    /// Tiny reference counter, independent of all engines.
    mod dakc_baselines_shim {
        use super::*;
        use std::collections::BTreeMap;

        pub fn reference_counts(
            reads: &ReadSet,
            k: usize,
            canonical: dakc_kmer::CanonicalMode,
        ) -> Vec<KmerCount<u64>> {
            let mut h: BTreeMap<u64, u32> = BTreeMap::new();
            for r in reads.iter() {
                for w in dakc_kmer::kmers_of_read::<u64>(r, k, canonical) {
                    *h.entry(w).or_default() += 1;
                }
            }
            h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
        }
    }

    fn tiny_reads() -> ReadSet {
        let mut rs = ReadSet::new();
        rs.push(b"ACGTACGTAACCGGTTACGT");
        rs.push(b"TTTTTTTTTTTTTTTT");
        rs.push(b"ACGTACGTAACCGGTTACGT");
        rs.push(b"GGGGCCCCAAAATTTT");
        rs
    }

    #[test]
    fn loopback_matches_reference() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(5);
        for ranks in [1, 2, 3] {
            let run = count_kmers_loopback::<u64>(&reads, &cfg, ranks).unwrap();
            assert_eq!(
                run.counts,
                reference_counts(&reads, 5, cfg.canonical),
                "ranks={ranks}"
            );
            assert_eq!(run.ranks, ranks);
            assert!(run.metrics.counter("net.term_rounds") >= 2 * ranks as u64);
        }
    }

    #[test]
    fn loopback_superkmer_matches_reference() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(5).with_superkmer(3);
        for ranks in [1, 2, 3] {
            let run = count_kmers_loopback::<u64>(&reads, &cfg, ranks).unwrap();
            assert_eq!(
                run.counts,
                reference_counts(&reads, 5, cfg.canonical),
                "ranks={ranks}"
            );
            assert!(run.metrics.counter("agg.spans_shipped") > 0, "ranks={ranks}");
            assert!(run.metrics.counter("net.superkmer.spans") > 0, "ranks={ranks}");
        }
    }

    // The aggregator's latched decode failure must come out of the
    // run loop as a typed CorruptFrame naming this rank — the "corrupt
    // super frame never panics or miscounts" contract.
    #[test]
    fn span_decode_error_surfaces_as_corrupt_frame() {
        let mut fab = NetFabric::new(Loopback::mesh(1).remove(0));
        let cfg = DakcConfig::scaled_defaults(5).with_superkmer(3);
        let mut agg = Aggregator::<u64>::new(cfg, &mut fab);
        assert!(surface_decode_error(&mut agg, 1).is_ok(), "no error latched yet");
        agg.inject_decode_error(dakc_kmer::SpanDecodeError::TooShort { len: 2, k: 5 });
        match surface_decode_error(&mut agg, 1) {
            Err(NetError::CorruptFrame { rank, detail }) => {
                assert_eq!(rank, 1);
                assert!(detail.contains("failed to decode"), "{detail}");
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        assert!(surface_decode_error(&mut agg, 1).is_ok(), "take must clear the latch");
    }

    // A trace header is a peer-supplied length: rank 0 must not size an
    // allocation from it (`Vec::reserve(u64::MAX)` panics). The bytes that
    // do arrive are kept and the missing rest is a typed gather timeout
    // naming the debtor.
    #[test]
    fn hostile_trace_header_is_a_typed_error_not_a_panic() {
        let tuning = NetTuning::default().with_timeout(std::time::Duration::from_millis(200));
        let mut mesh = Loopback::mesh_tuned(2, tuning.clone());
        let mut peer = mesh.remove(1);
        let root = mesh.remove(0);
        peer.send(0, &0u64.to_le_bytes()).unwrap();
        peer.send(0, MetricsRegistry::new().to_json().as_bytes()).unwrap();
        peer.send(0, &u64::MAX.to_le_bytes()).unwrap();
        peer.send(0, &[0u8; 16]).unwrap();
        let opts = RunOpts { trace: true, tuning, ..RunOpts::default() };
        let got = gather::<u64, _>(root, Vec::new(), MetricsRegistry::new(), Vec::new(), 8, &opts);
        match got {
            Err(NetError::Timeout { phase, detail, .. }) => {
                assert_eq!(phase, "gather");
                assert!(detail.contains("ranks [1] still owe frames"), "{detail}");
            }
            other => panic!("expected a gather timeout, got {:?}", other.map(|_| ())),
        }
    }

    // Caller input that the CLI rejects at parse time must not panic a
    // library caller either: both are typed errors before any frame flies.
    #[test]
    fn recover_with_trace_is_a_typed_error_not_a_panic() {
        let opts = RunOpts { recover: true, trace: true, ..RunOpts::default() };
        let cfg = DakcConfig::scaled_defaults(5);
        match count_kmers_loopback_opts::<u64>(&tiny_reads(), &cfg, 2, &opts) {
            Err(NetError::Protocol { detail }) => assert!(detail.contains("mutually exclusive")),
            other => panic!("expected a protocol error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn read_range_past_the_input_is_a_typed_error_not_a_panic() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(5);
        let t = Loopback::mesh(1).remove(0);
        let got = count_partition_on::<u64, _>(&reads, 2..5, &cfg, t, &RunOpts::default());
        match got {
            Err(NetError::Protocol { detail }) => assert!(detail.contains("2..5"), "{detail}"),
            other => panic!("expected a protocol error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn metrics_carry_transport_counters() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(4);
        let run = count_kmers_loopback::<u64>(&reads, &cfg, 2).unwrap();
        assert!(run.metrics.counter("net.frames_sent") > 0);
        assert_eq!(run.metrics.counter("net.ranks"), 2);
        assert_eq!(
            run.metrics.counter("agg.kmers_added"),
            reference_counts(&reads, 4, cfg.canonical)
                .iter()
                .map(|c| c.count as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn traced_loopback_merges_aligned_flow_events() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(5).with_trace_sample(1);
        let opts = RunOpts { trace: true, ..RunOpts::default() };
        let run = count_kmers_loopback_opts::<u64>(&reads, &cfg, 3, &opts).unwrap();
        assert_eq!(run.counts, reference_counts(&reads, 5, cfg.canonical));

        // The merged timeline is sorted and carries every rank's events.
        assert!(!run.trace.is_empty());
        assert!(run.trace.windows(2).all(|w| w[0].ts <= w[1].ts), "unsorted merge");
        let mut pes: Vec<u32> = run.trace.iter().map(|e| e.pe).collect();
        pes.sort_unstable();
        pes.dedup();
        assert_eq!(pes, vec![0, 1, 2], "all ranks contribute events");

        // Every flow close pairs an open, and post-alignment the close
        // never precedes its open by more than the estimation error.
        let sends: Vec<&Event> = run
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlowSend { .. }))
            .collect();
        let recvs: Vec<&Event> = run
            .trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlowRecv { .. }))
            .collect();
        assert!(!recvs.is_empty(), "sampling at 1-in-1 must close flows");
        let mut cross_rank = 0;
        for r in &recvs {
            let EventKind::FlowRecv { flow, .. } = r.kind else { unreachable!() };
            let s = sends
                .iter()
                .find(|s| matches!(s.kind, EventKind::FlowSend { flow: f, .. } if f == flow))
                .unwrap_or_else(|| panic!("flow {flow:#x} closed without an open"));
            assert!(r.ts >= s.ts - 5e-3, "close at {} before open at {}", r.ts, s.ts);
            if r.pe != s.pe {
                cross_rank += 1;
            }
        }
        assert!(cross_rank > 0, "3 ranks with owner hashing must cross ranks");
    }

    #[test]
    fn untraced_run_records_nothing() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(5);
        let run = count_kmers_loopback::<u64>(&reads, &cfg, 2).unwrap();
        assert!(run.trace.is_empty());
    }

    #[test]
    fn monitor_sees_phases_and_heartbeat_metric() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(5);
        let mesh = Loopback::mesh(1);
        let monitor = Arc::new(HeartbeatState::new());
        let opts = RunOpts { monitor: Some(Arc::clone(&monitor)), ..RunOpts::default() };
        let mut mesh = mesh;
        let run = run_rank_opts::<u64, _>(&reads, &cfg, mesh.remove(0), &opts)
            .unwrap()
            .expect("rank 0 result");
        assert_eq!(monitor.phase(), Phase::Done);
        // No sender thread was attached, so zero beats were recorded —
        // but the counter exists in the merged metrics.
        assert_eq!(run.metrics.counter("net.heartbeats_sent"), 0);
        assert_eq!(run.counts, reference_counts(&reads, 5, cfg.canonical));
    }
}
