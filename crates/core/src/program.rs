//! The per-PE DAKC program for the simulator engine: Algorithm 3 as a
//! resumable state machine.
//!
//! ```text
//! Parse    — roll k-mers out of this PE's read range, AsyncAdd each,
//!            poll/progress between batches (fine-grained asynchrony).
//! Drain    — everything flushed; sit in the quiescent GLOBAL BARRIER,
//!            waking to process (and relay) late arrivals.
//! Count    — phase 2: sort and accumulate what was received, one bucket
//!            of the absorbed runs at a time, merge the heavy-hitter
//!            pairs; publish this PE's slice of the result.
//! ```
//!
//! The paper's three global synchronization points map to: one implicit
//! start barrier (simulation start), the quiescent barrier between the
//! phases, and simulation completion.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dakc_io::ReadSet;
use dakc_kmer::{
    extract_into, for_each_span, packed_span_bytes, CanonicalMode, KmerCount, KmerWord,
};
use dakc_sim::{Ctx, Program, Step};
use dakc_sort::RadixKey;

use crate::aggregate::{AggStats, Aggregator, ReceiveStore};
use crate::config::DakcConfig;
use crate::costs;

/// Everything a PE publishes when it finishes.
#[derive(Debug, Clone)]
pub struct PeOutput<W> {
    /// This PE's owner-partition of the global histogram, sorted.
    pub counts: Vec<KmerCount<W>>,
    /// Sender-side aggregation counters.
    pub agg: AggStats,
    /// Conveyor counters.
    pub conv: dakc_conveyors::ConvStats,
    /// k-mer occurrences this PE received (owner-side load, for the load
    /// imbalance analysis).
    pub received_occurrences: u64,
    /// Records this PE received (plain k-mers + heavy pairs) — the actual
    /// data volume landing on the owner, which is what L3 rebalances.
    pub received_records: u64,
}

/// Shared collection slot for PE outputs.
pub type OutputSink<W> = Rc<RefCell<Vec<Option<PeOutput<W>>>>>;

enum State {
    Parse,
    Drain,
    Count,
    Finished,
}

/// One PE's DAKC program.
pub struct DakcPeProgram<W: KmerWord> {
    cfg: DakcConfig,
    reads: Arc<ReadSet>,
    range: std::ops::Range<usize>,
    cursor: usize,
    agg: Option<Aggregator<W>>,
    store: ReceiveStore<W>,
    /// The k-mers of the read being parsed (scratch, reused).
    words: Vec<W>,
    sink: OutputSink<W>,
    state: State,
}

impl<W: KmerWord + RadixKey> DakcPeProgram<W> {
    /// Creates the program for one PE. `range` is the PE's slice of read
    /// indices; `sink` collects the result.
    pub fn new(
        cfg: DakcConfig,
        reads: Arc<ReadSet>,
        range: std::ops::Range<usize>,
        sink: OutputSink<W>,
    ) -> Self {
        let cursor = range.start;
        Self {
            store: ReceiveStore::for_k(cfg.k),
            cfg,
            reads,
            range,
            cursor,
            agg: None,
            words: Vec::new(),
            sink,
            state: State::Parse,
        }
    }

    /// Parses up to `batch_reads` reads, AsyncAdd-ing every k-mer.
    fn parse_batch(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let agg = self.agg.as_mut().expect("aggregator created");
        let end = (self.cursor + self.cfg.batch_reads).min(self.range.end);
        let mut kmers = 0u64;
        let mut bases = 0u64;
        if self.cfg.superkmer {
            // L2.5: decompose into minimizer spans and route whole spans.
            let (k, m) = (self.cfg.k, self.cfg.minimizer_len);
            let canonical = self.cfg.canonical == CanonicalMode::Canonical;
            let mut span_bytes = 0u64;
            for i in self.cursor..end {
                let read = self.reads.get(i);
                bases += read.len() as u64;
                for_each_span(read, k, m, canonical, |minimizer, span| {
                    kmers += (span.len() + 1 - k) as u64;
                    span_bytes += packed_span_bytes(span.len()) as u64;
                    agg.async_add_span(ctx, minimizer, span);
                });
            }
            self.cursor = end;
            costs::charge_parse(ctx, kmers);
            costs::charge_span_traffic(ctx, bases, span_bytes);
            return self.cursor == self.range.end;
        }
        for i in self.cursor..end {
            let read = self.reads.get(i);
            bases += read.len() as u64;
            self.words.clear();
            extract_into::<W>(read, self.cfg.k, self.cfg.canonical, |w| self.words.push(w));
            kmers += self.words.len() as u64;
            agg.async_add_batch(ctx, &self.words);
        }
        self.cursor = end;
        costs::charge_parse(ctx, kmers);
        costs::charge_parse_traffic(ctx, bases, kmers, self.cfg.kmer_bytes::<W>() as u64);
        self.cursor == self.range.end
    }

    /// Phase 2: sort + accumulate + merge; publishes the output.
    fn count_phase(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_phase(1);
        let agg = self.agg.as_mut().expect("aggregator created");
        let word_bytes = self.cfg.kmer_bytes::<W>() as u64;
        let store = std::mem::take(&mut self.store);
        let received_occurrences = store.total_occurrences();
        let (plain, pairs) = (store.plain_len() as u64, store.pairs.len() as u64);
        let received_records = plain + pairs;

        // Sort + accumulate the plain stream (the bulk of the data), then
        // the heavy pairs (small). The charges depend only on how many
        // records arrived, not on how the store holds them.
        ctx.mem_alloc(plain * word_bytes);
        costs::charge_hybrid_sort(ctx, plain, word_bytes);
        costs::charge_accumulate(ctx, plain, word_bytes);
        costs::charge_hybrid_sort(ctx, pairs, word_bytes + 4);
        costs::charge_accumulate(ctx, pairs, word_bytes + 4);
        let counts = store.into_counts();
        // Held, not freed: all PEs sort concurrently on a real node, so
        // the OOM accounting must see the summed peak (see the same note
        // in the BSP baseline).

        let out = PeOutput {
            counts,
            agg: agg.stats(),
            conv: agg.conveyor_stats(),
            received_occurrences,
            received_records,
        };
        agg.release(ctx);
        self.sink.borrow_mut()[ctx.pe()] = Some(out);
    }
}

impl<W: KmerWord + RadixKey> Program for DakcPeProgram<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match self.state {
            State::Parse => {
                if self.agg.is_none() {
                    ctx.set_phase(0);
                    self.agg = Some(Aggregator::new(self.cfg.clone(), ctx));
                    return Step::Yield;
                }
                let done = self.parse_batch(ctx);
                // Fine-grained asynchrony: service the network between
                // batches, exactly like the conveyor progress loop.
                let agg = self.agg.as_mut().expect("created");
                agg.progress(ctx, &mut self.store);
                self.store.absorb_batch();
                if let Some(e) = agg.take_decode_error() {
                    // The simulator's in-process wire cannot corrupt.
                    panic!("span decode failed on a lossless wire: {e}");
                }
                if done {
                    self.agg.as_mut().expect("created").flush(ctx);
                    self.state = State::Drain;
                    Step::Barrier
                } else {
                    Step::Yield
                }
            }
            State::Drain => {
                let agg = self.agg.as_mut().expect("created");
                let processed = agg.progress(ctx, &mut self.store);
                self.store.absorb_batch();
                if let Some(e) = agg.take_decode_error() {
                    panic!("span decode failed on a lossless wire: {e}");
                }
                if processed > 0 || ctx.has_ready() {
                    Step::Barrier
                } else {
                    // The quiescent barrier released us: phase 2.
                    self.state = State::Count;
                    Step::Yield
                }
            }
            State::Count => {
                self.count_phase(ctx);
                self.state = State::Finished;
                Step::Done
            }
            State::Finished => Step::Done,
        }
    }
}
