//! Phase-overlapped DAKC — the paper's first future-work item (§VII):
//!
//! > "Our current sorting-based approach still involves an explicit
//! > barrier between phases 1 and 2. This synchronization could be
//! > eliminated, thereby allowing the phases to overlap, by using a
//! > distributed sorted-set data structure that supports asynchronous
//! > queries and updates."
//!
//! [`SortedRunStore`] is that structure's owner-side half: arriving k-mers
//! are absorbed into small sorted-and-accumulated *runs* while phase 1 is
//! still in flight, so the bulk of the sorting work happens during the
//! communication it used to wait behind. After quiescence (the barrier now
//! only detects termination — no sorting hides behind it) the runs are
//! k-way merged in a single pass.
//!
//! [`count_kmers_sim_overlap`] is the resulting engine; the
//! `ext_overlap_ablation` bench compares it against stock DAKC.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::Arc;

use dakc_io::ReadSet;
use dakc_kmer::{counts::merge_disjoint_runs, extract_into, KmerCount, KmerWord};
use dakc_sim::{Ctx, MachineConfig, Program, SimError, SimReport, Simulator, Step};
use dakc_sort::{accumulate_weighted, lsd_radix_sort_by, sort_count, RadixKey};

use crate::aggregate::{Aggregator, ReceiveStore};
use crate::config::DakcConfig;
use crate::costs;

/// Owner-side incremental store: absorbs unordered deliveries into sorted,
/// accumulated runs; one merge pass finalizes.
#[derive(Debug)]
pub struct SortedRunStore<W> {
    pending: Vec<W>,
    pending_pairs: Vec<(W, u32)>,
    runs: Vec<Vec<KmerCount<W>>>,
    /// Pending elements that trigger a run flush. Sized so a run sorts
    /// cache-resident.
    run_threshold: usize,
}

impl<W: KmerWord + RadixKey> SortedRunStore<W> {
    /// Creates a store; `run_threshold` is the run granularity.
    pub fn new(run_threshold: usize) -> Self {
        assert!(run_threshold >= 2);
        Self {
            pending: Vec::new(),
            pending_pairs: Vec::new(),
            runs: Vec::new(),
            run_threshold,
        }
    }

    /// Number of closed runs so far.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total records currently held (pending + in runs).
    pub fn records(&self) -> usize {
        self.pending.len()
            + self.pending_pairs.len()
            + self.runs.iter().map(|r| r.len()).sum::<usize>()
    }

    /// Absorbs one delivered plain k-mer.
    pub fn push_plain(&mut self, ctx: &mut Ctx<'_>, w: W) {
        self.pending.push(w);
        if self.pending.len() + self.pending_pairs.len() >= self.run_threshold {
            self.flush_run(ctx);
        }
    }

    /// Absorbs one delivered pre-accumulated pair.
    pub fn push_pair(&mut self, ctx: &mut Ctx<'_>, w: W, c: u32) {
        self.pending_pairs.push((w, c));
        if self.pending.len() + self.pending_pairs.len() >= self.run_threshold {
            self.flush_run(ctx);
        }
    }

    /// Sorts and accumulates the pending batch into a closed run. This is
    /// the work that overlaps with communication.
    pub fn flush_run(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending.is_empty() && self.pending_pairs.is_empty() {
            return;
        }
        let wb = (W::BITS / 8) as u64;
        let mut plain = std::mem::take(&mut self.pending);
        costs::charge_hybrid_sort(ctx, plain.len() as u64, wb);
        costs::charge_accumulate(ctx, plain.len() as u64, wb);
        let mut plain_counts: Vec<KmerCount<W>> = Vec::new();
        sort_count(&mut plain, |w, c| plain_counts.push(KmerCount::new(w, c)));

        let mut pairs = std::mem::take(&mut self.pending_pairs);
        costs::charge_hybrid_sort(ctx, pairs.len() as u64, wb + 4);
        lsd_radix_sort_by(&mut pairs, |p| p.0);
        let pair_counts: Vec<KmerCount<W>> = accumulate_weighted(&pairs)
            .into_iter()
            .map(|(w, c)| KmerCount::new(w, c))
            .collect();

        let run = dakc_kmer::counts::merge_sorted_counts(&plain_counts, &pair_counts);
        if !run.is_empty() {
            self.runs.push(run);
        }
    }

    /// Final k-way merge of all runs: one streaming pass over the data
    /// (the only work left after quiescence).
    pub fn finalize(mut self, ctx: &mut Ctx<'_>) -> Vec<KmerCount<W>> {
        self.flush_run(ctx);
        let runs = std::mem::take(&mut self.runs);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let wb = (W::BITS / 8) as u64;
        // Merge cost: read every record once through a log(runs)-deep heap
        // and write the output stream.
        let log_runs = (runs.len().max(2) as f64).log2().ceil() as u64;
        ctx.charge_ops(total as u64 * (log_runs + 1));
        ctx.charge_mem(total as u64 * (wb + 4) * 2);
        kway_merge(runs)
    }
}

/// Heap-based k-way merge of sorted count runs, summing equal k-mers.
fn kway_merge<W: KmerWord>(runs: Vec<Vec<KmerCount<W>>>) -> Vec<KmerCount<W>> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out: Vec<KmerCount<W>> = Vec::with_capacity(total);
    let mut heads: BinaryHeap<Reverse<(W, usize)>> = BinaryHeap::new();
    let mut cursors: Vec<std::iter::Peekable<std::vec::IntoIter<KmerCount<W>>>> =
        runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    for (i, c) in cursors.iter_mut().enumerate() {
        if let Some(kc) = c.peek() {
            heads.push(Reverse((kc.kmer, i)));
        }
    }
    while let Some(Reverse((kmer, i))) = heads.pop() {
        let kc = cursors[i].next().expect("peeked entry exists");
        debug_assert_eq!(kc.kmer, kmer);
        match out.last_mut() {
            Some(last) if last.kmer == kmer => last.count = last.count.saturating_add(kc.count),
            _ => out.push(kc),
        }
        if let Some(next) = cursors[i].peek() {
            heads.push(Reverse((next.kmer, i)));
        }
    }
    out
}

type Sink<W> = Rc<RefCell<Vec<Option<Vec<KmerCount<W>>>>>>;

enum St {
    Parse,
    Drain,
    Finalize,
    Done,
}

/// The phase-overlapped per-PE program: like [`crate::DakcPeProgram`] but
/// deliveries go straight into a [`SortedRunStore`].
struct OverlapPeProgram<W: KmerWord> {
    cfg: DakcConfig,
    reads: Arc<ReadSet>,
    range: std::ops::Range<usize>,
    cursor: usize,
    agg: Option<Aggregator<W>>,
    store: Option<SortedRunStore<W>>,
    /// The k-mers of the read being parsed (scratch, reused).
    words: Vec<W>,
    sink: Sink<W>,
    st: St,
}

impl<W: KmerWord + RadixKey> OverlapPeProgram<W> {
    /// Drains arrived packets into the run store. Returns records
    /// processed.
    fn absorb(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let agg = self.agg.as_mut().expect("created");
        let mut tmp = ReceiveStore::<W>::default();
        let processed = agg.progress(ctx, &mut tmp);
        let store = self.store.as_mut().expect("created");
        for w in tmp.plain {
            store.push_plain(ctx, w);
        }
        for (w, c) in tmp.pairs {
            store.push_pair(ctx, w, c);
        }
        processed
    }
}

impl<W: KmerWord + RadixKey> Program for OverlapPeProgram<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match self.st {
            St::Parse => {
                if self.agg.is_none() {
                    ctx.set_phase(0);
                    self.agg = Some(Aggregator::new(self.cfg.clone(), ctx));
                    // Runs small enough to sort cache-resident, but small
                    // enough in absolute terms that runs actually close
                    // *during* phase 1 — that closing is the overlap.
                    let share = ctx.machine().cache_bytes / ctx.machine().pes_per_node;
                    let threshold = (share / (2 * (W::BITS as usize / 8))).clamp(1024, 4096);
                    self.store = Some(SortedRunStore::new(threshold));
                    return Step::Yield;
                }
                // Parse a batch.
                let end = (self.cursor + self.cfg.batch_reads).min(self.range.end);
                let mut kmers = 0u64;
                let mut bases = 0u64;
                for i in self.cursor..end {
                    let read = self.reads.get(i);
                    bases += read.len() as u64;
                    self.words.clear();
                    extract_into::<W>(read, self.cfg.k, self.cfg.canonical, |w| self.words.push(w));
                    kmers += self.words.len() as u64;
                    self.agg.as_mut().expect("created").async_add_batch(ctx, &self.words);
                }
                self.cursor = end;
                costs::charge_parse(ctx, kmers);
                costs::charge_parse_traffic(ctx, bases, kmers, (W::BITS / 8) as u64);
                self.absorb(ctx);
                if self.cursor == self.range.end {
                    self.agg.as_mut().expect("created").flush(ctx);
                    self.st = St::Drain;
                    Step::Barrier
                } else {
                    Step::Yield
                }
            }
            St::Drain => {
                let processed = self.absorb(ctx);
                if processed > 0 || ctx.has_ready() {
                    Step::Barrier
                } else {
                    self.st = St::Finalize;
                    Step::Yield
                }
            }
            St::Finalize => {
                ctx.set_phase(1);
                let counts = self.store.take().expect("created").finalize(ctx);
                self.agg.as_mut().expect("created").release(ctx);
                self.sink.borrow_mut()[ctx.pe()] = Some(counts);
                self.st = St::Done;
                Step::Done
            }
            St::Done => Step::Done,
        }
    }
}

/// Result of a phase-overlapped run.
#[derive(Debug, Clone)]
pub struct OverlapRun<W> {
    /// The global histogram, sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Simulator accounting.
    pub report: SimReport,
}

/// Runs phase-overlapped DAKC on the virtual cluster.
pub fn count_kmers_sim_overlap<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    machine: &MachineConfig,
) -> Result<OverlapRun<W>, SimError> {
    cfg.validate::<W>();
    let p = machine.num_pes();
    let reads = Arc::new(reads.clone());
    let sink: Sink<W> = Rc::new(RefCell::new(vec![None; p]));
    let programs: Vec<Box<dyn Program>> = (0..p)
        .map(|pe| {
            let range = reads.pe_range(pe, p);
            Box::new(OverlapPeProgram::<W> {
                cfg: cfg.clone(),
                reads: Arc::clone(&reads),
                cursor: range.start,
                range,
                agg: None,
                store: None,
                words: Vec::new(),
                sink: sink.clone(),
                st: St::Parse,
            }) as Box<dyn Program>
        })
        .collect();
    let report = Simulator::new(machine.clone()).run(programs)?;
    let per_pe: Vec<Vec<KmerCount<W>>> = Rc::try_unwrap(sink)
        .expect("sole owner")
        .into_inner()
        .into_iter()
        .map(|o| o.expect("published"))
        .collect();
    let counts = merge_disjoint_runs(per_pe);
    Ok(OverlapRun { counts, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_kmer::CanonicalMode;

    fn reads(n: usize, seed: u64) -> ReadSet {
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 4000, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: 120, num_reads: n, error_rate: 0.01, both_strands: false },
            seed,
        )
    }

    fn reference(rs: &ReadSet, k: usize) -> Vec<KmerCount<u64>> {
        use std::collections::BTreeMap;
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in rs.iter() {
            for w in dakc_kmer::kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                *h.entry(w).or_default() += 1;
            }
        }
        h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
    }

    #[test]
    fn kway_merge_merges_and_sums() {
        let runs = vec![
            vec![KmerCount::new(1u64, 2), KmerCount::new(5, 1)],
            vec![KmerCount::new(1u64, 3), KmerCount::new(3, 1)],
            vec![KmerCount::new(5u64, 4)],
        ];
        let merged = kway_merge(runs);
        assert_eq!(
            merged,
            vec![KmerCount::new(1, 5), KmerCount::new(3, 1), KmerCount::new(5, 5)]
        );
    }

    #[test]
    fn kway_merge_empty_and_single() {
        assert!(kway_merge::<u64>(vec![]).is_empty());
        let one = vec![vec![KmerCount::new(7u64, 1)]];
        assert_eq!(kway_merge(one), vec![KmerCount::new(7, 1)]);
    }

    #[test]
    fn overlap_matches_reference() {
        let rs = reads(150, 1);
        let machine = MachineConfig::test_machine(2, 2);
        let run =
            count_kmers_sim_overlap::<u64>(&rs, &DakcConfig::scaled_defaults(17), &machine)
                .unwrap();
        assert_eq!(run.counts, reference(&rs, 17));
    }

    #[test]
    fn overlap_matches_reference_with_l3() {
        let rs = reads(120, 2);
        let machine = MachineConfig::test_machine(3, 1);
        let mut cfg = DakcConfig::scaled_defaults(13).with_l3();
        cfg.c3 = 64;
        let run = count_kmers_sim_overlap::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 13));
    }

    #[test]
    fn overlap_matches_stock_dakc() {
        let rs = reads(200, 3);
        let machine = MachineConfig::phoenix_intel(2);
        let cfg = DakcConfig::scaled_defaults(21);
        let stock = crate::engine::count_kmers_sim::<u64>(&rs, &cfg, &machine).unwrap();
        let ov = count_kmers_sim_overlap::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(stock.counts, ov.counts);
    }

    #[test]
    fn overlap_shrinks_post_barrier_phase() {
        // Needs enough per-PE k-mers that runs close during phase 1.
        let rs = reads(3_000, 4);
        let machine = MachineConfig::phoenix_intel(2);
        let cfg = DakcConfig::scaled_defaults(21);
        let stock = crate::engine::count_kmers_sim::<u64>(&rs, &cfg, &machine).unwrap();
        let ov = count_kmers_sim_overlap::<u64>(&rs, &cfg, &machine).unwrap();
        let stock_p2 = stock.report.phase_time.get(1).copied().unwrap_or(0.0);
        let ov_p2 = ov.report.phase_time.get(1).copied().unwrap_or(0.0);
        assert!(
            ov_p2 < stock_p2,
            "post-barrier work must shrink: {ov_p2} vs {stock_p2}"
        );
    }

    #[test]
    fn run_store_flushes_at_threshold() {
        // Drive the store directly inside a one-PE simulation.
        struct Probe;
        impl Program for Probe {
            fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
                let mut store = SortedRunStore::<u64>::new(4);
                for w in [5u64, 1, 5, 2, 9, 9, 9, 1] {
                    store.push_plain(ctx, w);
                }
                assert_eq!(store.run_count(), 2);
                let counts = store.finalize(ctx);
                assert_eq!(
                    counts,
                    vec![
                        KmerCount::new(1u64, 2),
                        KmerCount::new(2, 1),
                        KmerCount::new(5, 2),
                        KmerCount::new(9, 3),
                    ]
                );
                Step::Done
            }
        }
        Simulator::new(MachineConfig::test_machine(1, 1))
            .run(vec![Box::new(Probe)])
            .unwrap();
    }
}
