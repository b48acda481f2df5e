//! Algorithm 3, written once: the per-rank DAKC program as a resumable
//! state machine that both runtimes step.
//!
//! ```text
//! Parse  — roll k-mers (or minimizer spans) out of this rank's reads,
//!          AsyncAdd each, service arrivals between batches.
//! Drain  — everything flushed; wait in the quiescent GLOBAL BARRIER,
//!          servicing (and relaying) late arrivals.
//! Count  — phase 2: sort and accumulate what was received.
//! ```
//!
//! The simulator's `Program` (`crate::engine`) is a shim over
//! [`RankMachine::step`]; the real runtime (`crate::distributed`) loops
//! over it, adding stall detection, rank recovery and supervision. Where
//! the two differ — may this rank leave the barrier? — they answer
//! [`RankFabric::may_count`]. `crate::threaded` stays outside: it has no
//! [`Aggregator`] or [`Fabric`], and its producers write owner lanes
//! directly.

use std::ops::{Deref, Range};

use dakc_conveyors::{ConvStats, Fabric};
use dakc_io::ReadSet;
use dakc_kmer::{
    extract_into, for_each_span, owner_pe, packed_span_bytes, CanonicalMode, KmerCount, KmerWord,
};
use dakc_net::{NetError, NetFabric, NetResult, Phase, Transport};
use dakc_sim::{Ctx, EventKind, PeId, Step};
use dakc_sort::RadixKey;

use crate::aggregate::{AggStats, Aggregator, ReceiveStore};
use crate::config::DakcConfig;
use crate::costs;

/// Everything a rank holds when it finishes.
#[derive(Debug, Clone)]
pub struct PeOutput<W> {
    /// This PE's owner-partition of the global histogram, sorted.
    pub counts: Vec<KmerCount<W>>,
    /// Sender-side aggregation counters.
    pub agg: AggStats,
    /// Conveyor counters.
    pub conv: ConvStats,
    /// k-mer occurrences this PE received (owner-side load, for the load
    /// imbalance analysis).
    pub received_occurrences: u64,
    /// Records this PE received (plain k-mers + heavy pairs) — the actual
    /// data volume landing on the owner, which is what L3 rebalances.
    pub received_records: u64,
}

/// What the rank program asks of the runtime beyond the [`Fabric`].
pub(crate) trait RankFabric: Fabric {
    /// The program entered `phase` (Parse, Drain or Count).
    fn enter(&mut self, phase: Phase);
    /// Drain's question: may this rank count now, its latest `progress`
    /// having handled `processed` records?
    fn may_count(&mut self, processed: u64) -> NetResult<bool>;
    /// A wire failure the fabric latched.
    fn latched(&self) -> NetResult<()> {
        Ok(())
    }
    /// Folds the finished rank's cascade counters into the run's metrics.
    fn fold_stats(&mut self, _superkmer: bool, _agg: &AggStats, _conv: &ConvStats) {}
}

/// The simulator: phases are report phase ids, and the barrier is
/// omniscient — a rank may count once nothing arrived and nothing is
/// ready anywhere.
impl RankFabric for Ctx<'_> {
    fn enter(&mut self, phase: Phase) {
        match phase {
            Phase::Parse => self.set_phase(0),
            Phase::Count => self.set_phase(1),
            _ => {}
        }
    }

    fn may_count(&mut self, processed: u64) -> NetResult<bool> {
        Ok(processed == 0 && !self.has_ready())
    }
}

/// A real transport has no global scheduler to ask: an idle rank runs one
/// four-counter termination round, which flushes relayed traffic first so
/// counted sends are on the wire before totals are compared.
impl<T: Transport> RankFabric for NetFabric<T> {
    fn enter(&mut self, phase: Phase) {
        self.trace(|| EventKind::Phase { phase: phase as u32 });
    }

    fn may_count(&mut self, processed: u64) -> NetResult<bool> {
        Ok(processed == 0 && self.transport_mut().termination_round()?)
    }

    fn latched(&self) -> NetResult<()> {
        self.check()
    }

    fn fold_stats(&mut self, superkmer: bool, agg: &AggStats, conv: &ConvStats) {
        let m = self.metrics();
        m.inc("agg.kmers_added", agg.kmers_added);
        m.inc("agg.l3_flushes", agg.l3_flushes);
        m.inc("agg.heavy_pairs", agg.heavy_pairs);
        if superkmer {
            // Only in span mode, so the default mode's metrics JSON (and
            // therefore its gather frames) is byte-for-byte unchanged.
            m.inc("agg.super_packets", agg.super_packets);
            m.inc("agg.spans_shipped", agg.spans_shipped);
            m.inc("agg.span_wire_bytes", agg.span_wire_bytes);
            m.inc("agg.span_bases_saved", agg.span_bases_saved);
        }
        m.inc("conv.items_pushed", conv.items_pushed);
        m.inc("conv.items_delivered", conv.items_delivered);
        m.inc("conv.items_forwarded", conv.items_forwarded);
        m.inc("conv.puts", conv.puts);
    }
}

/// One rank's DAKC program over the reads `R` points at.
pub(crate) struct RankMachine<W, R> {
    cfg: DakcConfig,
    reads: R,
    range: Range<usize>,
    /// End of the reads parsed so far.
    cursor: usize,
    /// Created by the first step, on the fabric that runs the program.
    agg: Option<Aggregator<W>>,
    store: ReceiveStore<W>,
    /// The k-mers of the read being parsed (scratch, reused).
    words: Vec<W>,
    /// Records the latest step's `progress` handled.
    pub(crate) processed: u64,
    /// The phase the next step runs in ([`Phase::Done`] once counted).
    pub(crate) phase: Phase,
    /// The finished rank's output, set by the step that returns
    /// [`Step::Done`].
    pub(crate) output: Option<PeOutput<W>>,
}

impl<W: KmerWord + RadixKey, R: Deref<Target = ReadSet>> RankMachine<W, R> {
    /// The program for the reads `range` of `reads`.
    pub(crate) fn new(cfg: DakcConfig, reads: R, range: Range<usize>, store: ReceiveStore<W>) -> Self {
        Self {
            cfg,
            reads,
            cursor: range.start,
            range,
            agg: None,
            store,
            words: Vec::new(),
            processed: 0,
            phase: Phase::Parse,
            output: None,
        }
    }

    /// Does one bounded piece of work: creates the cascade, parses one
    /// batch, services arrivals while draining, or counts.
    pub(crate) fn step<F: RankFabric>(&mut self, fab: &mut F) -> NetResult<Step> {
        match self.phase {
            Phase::Parse => {
                if self.agg.is_none() {
                    fab.enter(Phase::Parse);
                    self.agg = Some(Aggregator::new(self.cfg.clone(), fab));
                    return Ok(Step::Yield);
                }
                let end = (self.cursor + self.cfg.batch_reads).min(self.range.end);
                self.produce(fab, self.cursor..end, |_| true, |_| true);
                self.cursor = end;
                self.service(fab)?;
                if end < self.range.end {
                    return Ok(Step::Yield);
                }
                fab.enter(Phase::Drain);
                self.agg.as_mut().expect("created").flush(fab);
                self.phase = Phase::Drain;
                Ok(Step::Barrier)
            }
            Phase::Drain => {
                let processed = self.service(fab)?;
                if !fab.may_count(processed)? {
                    return Ok(Step::Barrier);
                }
                // The quiescent barrier released us: phase 2.
                self.phase = Phase::Count;
                Ok(Step::Yield)
            }
            Phase::Count => {
                fab.enter(Phase::Count);
                let agg = self.agg.as_mut().expect("created");
                let store = std::mem::take(&mut self.store);
                let (received_occurrences, received_records) =
                    (store.total_occurrences(), store.records());
                let counts = store.count(fab);
                let (stats, conv) = (agg.stats(), agg.conveyor_stats());
                fab.fold_stats(self.cfg.superkmer, &stats, &conv);
                agg.release(fab);
                let out = PeOutput { counts, agg: stats, conv, received_occurrences, received_records };
                self.output = Some(out);
                self.phase = Phase::Done;
                Ok(Step::Done)
            }
            _ => Ok(Step::Done),
        }
    }

    /// The one producer: AsyncAdds the k-mers of `reads` that `keep`
    /// accepts — in `--superkmer` mode whole spans, by minimizer — and
    /// charges the simulator's parse costs. Returns the k-mers routed.
    fn produce<F: Fabric>(
        &mut self,
        fab: &mut F,
        reads: Range<usize>,
        keep: impl Fn(W) -> bool,
        keep_span: impl Fn(u64) -> bool,
    ) -> u64 {
        let agg = self.agg.as_mut().expect("created");
        let cfg = &self.cfg;
        let (mut kmers, mut bases) = (0u64, 0u64);
        if cfg.superkmer {
            let canonical = cfg.canonical == CanonicalMode::Canonical;
            let mut span_bytes = 0u64;
            for i in reads {
                let read = self.reads.get(i);
                bases += read.len() as u64;
                for_each_span(read, cfg.k, cfg.minimizer_len, canonical, |minimizer, span| {
                    if keep_span(minimizer) {
                        kmers += (span.len() + 1 - cfg.k) as u64;
                        span_bytes += packed_span_bytes(span.len()) as u64;
                        agg.async_add_span(fab, minimizer, span);
                    }
                });
            }
            costs::charge_parse(fab, kmers);
            costs::charge_span_traffic(fab, bases, span_bytes);
            return kmers;
        }
        // One read's k-mers at a time, so the words stay cache-resident
        // between extraction and the cascade.
        for i in reads {
            let read = self.reads.get(i);
            bases += read.len() as u64;
            self.words.clear();
            extract_into::<W>(read, cfg.k, cfg.canonical, |w| {
                if keep(w) {
                    self.words.push(w);
                }
            });
            kmers += self.words.len() as u64;
            agg.async_add_batch(fab, &self.words);
        }
        costs::charge_parse(fab, kmers);
        costs::charge_parse_traffic(fab, bases, kmers, cfg.kmer_bytes::<W>() as u64);
        kmers
    }

    /// Services arrivals; failures surface here, at the batch boundary.
    fn service<F: RankFabric>(&mut self, fab: &mut F) -> NetResult<u64> {
        let agg = self.agg.as_mut().expect("created");
        self.processed = agg.progress(fab, &mut self.store);
        self.store.settle(fab);
        surface_decode_error(agg, fab.pe())?;
        fab.latched()?;
        Ok(self.processed)
    }

    /// Repairs this rank after peer `dead` was respawned:
    ///
    /// 1. Every record the dead incarnation delivered is purged from the
    ///    receive store (the replacement re-runs its whole phase 1, so they
    ///    will all be re-received).
    /// 2. Every not-yet-shipped record destined for the dead rank is purged
    ///    from the cascade buffers (the replay below regenerates them;
    ///    shipping both copies would double-count).
    /// 3. The reads parsed so far are deterministically re-extracted,
    ///    routing *only* k-mers (or spans) owned by the recovered rank back
    ///    through the ordinary cascade — CH_SUPER included. A draining
    ///    cascade is flushed again.
    ///
    /// Determinism argument: the replayed multiset is a pure function of
    /// the input partition and the owner hash, and steps 1–2 remove exactly
    /// the two places a stale copy could hide (received-from-dead,
    /// buffered-for-dead), so after replay every k-mer owned by the
    /// recovered rank from this rank's prefix is in flight exactly once.
    /// Returns `[replayed k-mers, purged received, purged unsent]`
    /// occurrences.
    pub(crate) fn replay<F: Fabric>(&mut self, fab: &mut F, dead: PeId) -> [u64; 3] {
        let purged_recv = self.store.purge_source(dead);
        let purged_sent = self.agg.as_mut().expect("created").purge_dest(fab, dead);
        let (n, range) = (fab.num_pes(), self.range.start..self.cursor);
        let owned = |key| owner_pe(key, n) == dead;
        let replayed = self.produce(fab, range, |w| owner_pe(w, n) == dead, owned);
        if self.phase == Phase::Drain {
            self.agg.as_mut().expect("created").flush(fab);
        }
        [replayed, purged_recv, purged_sent]
    }
}

/// Surfaces a latched decode failure as a typed wire error: a packet or
/// span record that fails to decode means some peer's stream corrupted in
/// a way that framing alone could not catch. The source rank of the bad
/// record is not recoverable post-hoc, so the error names the receiving
/// rank and says so.
pub(crate) fn surface_decode_error<W: KmerWord + RadixKey>(
    agg: &mut Aggregator<W>,
    rank: usize,
) -> NetResult<()> {
    match agg.take_decode_error() {
        None => Ok(()),
        Some(e) => Err(NetError::CorruptFrame {
            rank,
            detail: format!("a record received on this rank failed to decode: {e}"),
        }),
    }
}
