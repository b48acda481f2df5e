//! Algorithm 2: the BSP baseline (PakMan\*, PakMan-quicksort, HySortK-like).
//!
//! Each PE parses its reads in batches of `b` k-mers. A batch ends with a
//! Many-To-Many exchange: every per-destination buffer is locally sorted
//! and accumulated (Algorithm 2's `FlushBuffer`), shipped as `{k-mer,
//! count}` pairs, and the round closes with a global synchronization —
//! realized here as the simulator's quiescent barrier, which is precisely
//! the semantics of a blocking `MPI_Alltoallv` (no PE proceeds until all
//! data of the round is delivered).
//!
//! The number of synchronizations is `R = ⌈max-kmers-per-PE / b⌉` — it
//! *grows with input size* (Eq 1), which is the scalability limit DAKC
//! removes.
//!
//! Two communication disciplines:
//!
//! * **blocking** (PakMan\*): parse → exchange → barrier, strictly.
//! * **non-blocking** (HySortK-like): the round-`r` barrier is deferred
//!   until after round `r+1` has been parsed, overlapping computation with
//!   the in-flight exchange (one outstanding collective, like
//!   `MPI_Ialltoallv` + `MPI_Wait`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use dakc_io::ReadSet;
use dakc_kmer::{
    counts::merge_disjoint_runs, kmers_of_read, CanonicalMode, KmerCount, KmerWord,
};
use dakc_sim::{Ctx, MachineConfig, PeId, Program, SimError, SimReport, Simulator, Step};
use dakc_sort::{accumulate_weighted, lsd_radix_sort_by, quicksort, sort_count, RadixKey};

/// Shared per-PE output slot written by each program at completion.
type OutputSink<W> = Rc<RefCell<Vec<Option<Vec<KmerCount<W>>>>>>;

/// The sort used inside `FlushBuffer` and in phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortBackend {
    /// Radix-hybrid (PakMan\*, HySortK).
    RadixHybrid,
    /// Median-of-three quicksort (original PakMan; Fig 6's slow variant).
    Quicksort,
}

/// Configuration of a BSP baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct BspConfig {
    /// k-mer length.
    pub k: usize,
    /// Batch size `b`: k-mers parsed per PE per exchange round (the
    /// paper's tunable with full-scale values ≈ 10⁹).
    pub batch: usize,
    /// Non-blocking collectives (HySortK) vs blocking (PakMan).
    pub non_blocking: bool,
    /// Sort backend.
    pub sort: SortBackend,
    /// Forward or canonical counting.
    pub canonical: CanonicalMode,
    /// Reads parsed per simulator step.
    pub batch_reads: usize,
    /// Phase-2 working memory as a multiple of received bytes; models the
    /// implementation's buffering discipline (PakMan\* ≈ 2× for the
    /// out-of-place radix scratch, HySortK-like ≈ 4.5× for double-buffered
    /// non-blocking exchange plus multithreaded sort staging — the
    /// footprint difference behind Fig 8's OOM pattern).
    pub mem_factor: f64,
    /// Per-destination staging bytes the collective machinery pins for the
    /// whole run (MPI internal Alltoallv buffers). Grows linearly with the
    /// PE count, which — together with `mem_factor` — reproduces Fig 8's
    /// OOM pattern: PakMan\* pins little (≈1 KiB/destination), the
    /// non-blocking + hybrid HySortK pins persistent double buffers
    /// (≈32 KiB/destination).
    pub staging_per_dst: u64,
}

impl BspConfig {
    /// PakMan\*: blocking Many-To-Many + radix sort (the strengthened
    /// baseline of §VI-A).
    pub fn pakman_star(k: usize) -> Self {
        Self {
            k,
            // Scaled equivalent of a memory-bounded full-scale batch
            // (2^14 k-mers/PE/round here ≈ a ~0.8 GB/PE exchange buffer at
            // paper scale): keeps the round count — and with it Eq 1's
            // growing synchronization term — faithful at 2^-12 inputs.
            batch: 1 << 14,
            non_blocking: false,
            sort: SortBackend::RadixHybrid,
            canonical: CanonicalMode::Forward,
            batch_reads: 64,
            mem_factor: 2.0,
            staging_per_dst: 1024,
        }
    }

    /// Original PakMan: the same kernel with quicksort (Fig 6).
    pub fn pakman_qsort(k: usize) -> Self {
        Self {
            sort: SortBackend::Quicksort,
            ..Self::pakman_star(k)
        }
    }

    /// HySortK-like: non-blocking collectives with overlap, radix-hybrid
    /// sort, heavier memory footprint.
    pub fn hysortk(k: usize) -> Self {
        Self {
            non_blocking: true,
            mem_factor: 4.5,
            staging_per_dst: 32 * 1024,
            ..Self::pakman_star(k)
        }
    }
}

/// Result of a simulated BSP run.
#[derive(Debug, Clone)]
pub struct BspRun<W> {
    /// Global histogram sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Simulator accounting.
    pub report: SimReport,
    /// Exchange rounds executed (== synchronizations with data).
    pub rounds: usize,
}

enum St {
    Init,
    Parsing,
    /// Non-blocking only: waiting out the previous round's barrier before
    /// posting this round's sends.
    WaitPrev,
    /// Blocking: waiting out this round's barrier.
    RoundWait,
    /// Non-blocking: final barrier after the last send.
    FinalWait,
    Phase2,
    Done,
}

struct BspPeProgram<W: KmerWord> {
    cfg: BspConfig,
    rounds: usize,
    reads: Arc<ReadSet>,
    range: std::ops::Range<usize>,
    cursor: usize,
    round: usize,
    parsed_this_round: usize,
    send_bufs: HashMap<PeId, Vec<W>>,
    t_r: Vec<(W, u32)>,
    recv_alloc: u64,
    word_bytes: usize,
    sink: OutputSink<W>,
    st: St,
}

impl<W: KmerWord + RadixKey> BspPeProgram<W> {
    /// Decodes arrived pair messages into `T_r`. Returns records decoded.
    fn poll_receives(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let rec = self.word_bytes + 4;
        let mut decoded = 0u64;
        for msg in ctx.poll() {
            let mut at = 0;
            while at + rec <= msg.payload.len() {
                let mut padded = [0u8; 16];
                padded[..self.word_bytes].copy_from_slice(&msg.payload[at..at + self.word_bytes]);
                let w = W::from_u128(u128::from_le_bytes(padded));
                let c = u32::from_le_bytes(
                    msg.payload[at + self.word_bytes..at + rec]
                        .try_into()
                        .expect("count"),
                );
                self.t_r.push((w, c));
                at += rec;
                decoded += 1;
            }
            ctx.charge_ops(msg.payload.len() as u64 / 8 + 2);
        }
        if decoded > 0 {
            // Account receive-array growth.
            let grown = decoded * rec as u64;
            ctx.mem_alloc(grown);
            self.recv_alloc += grown;
        }
        decoded
    }

    /// Parses one simulator step's worth of reads. Returns `true` when the
    /// round's batch (or the whole range on the final round) is complete.
    /// Reads are parsed whole, so a round may overshoot `b` by at most one
    /// read's worth of k-mers — the same granularity real implementations
    /// accept.
    fn parse_step(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let last_round = self.round + 1 == self.rounds;
        let end = (self.cursor + self.cfg.batch_reads).min(self.range.end);
        let mut kmers = 0u64;
        let mut bases = 0u64;
        while self.cursor < end {
            let read = self.reads.get(self.cursor);
            bases += read.len() as u64;
            let before = kmers;
            for w in kmers_of_read::<W>(read, self.cfg.k, self.cfg.canonical) {
                kmers += 1;
                let dst = dakc_kmer::owner_pe(w, ctx.num_pes());
                self.send_bufs.entry(dst).or_default().push(w);
                ctx.charge_ops(2);
            }
            self.cursor += 1;
            self.parsed_this_round += (kmers - before) as usize;
            if !last_round && self.parsed_this_round >= self.cfg.batch {
                break;
            }
        }
        dakc::costs::charge_parse(ctx, kmers);
        dakc::costs::charge_parse_traffic(ctx, bases, kmers, self.word_bytes as u64);

        let exhausted = self.cursor == self.range.end;
        if last_round {
            exhausted
        } else {
            exhausted || self.parsed_this_round >= self.cfg.batch
        }
    }

    /// `FlushBuffer`: sort + accumulate each destination buffer and ship
    /// it as pairs (tag = round).
    fn exchange(&mut self, ctx: &mut Ctx<'_>) {
        // Collective setup: an Alltoallv posts a send and a receive
        // descriptor for every rank and scans the P-length count and
        // displacement arrays, whether or not data flows to that rank —
        // ~64 integer-op equivalents per rank per round. This is the
        // per-round software cost that the paper's fine-grained one-sided
        // design avoids (§IV: direct `PUT`s touch only the ranks that
        // actually receive data).
        ctx.charge_ops(ctx.num_pes() as u64 * 64);
        let mut dsts: Vec<PeId> = self.send_bufs.keys().copied().collect();
        dsts.sort_unstable();
        let wb = self.word_bytes as u64;
        for dst in dsts {
            let mut buf = self.send_bufs.remove(&dst).expect("listed");
            match self.cfg.sort {
                SortBackend::RadixHybrid => {
                    dakc::costs::charge_hybrid_sort(ctx, buf.len() as u64, wb);
                }
                SortBackend::Quicksort => {
                    dakc::costs::charge_comparison_sort(ctx, buf.len() as u64, wb);
                    // `sort_count` then only sweeps the sorted buffer.
                    quicksort(&mut buf);
                }
            }
            dakc::costs::charge_accumulate(ctx, buf.len() as u64, wb);
            let mut payload = Vec::new();
            sort_count(&mut buf, |w, c| {
                payload.extend_from_slice(&w.to_u128().to_le_bytes()[..self.word_bytes]);
                payload.extend_from_slice(&c.to_le_bytes());
            });
            ctx.charge_ops(payload.len() as u64 / 8 + 1);
            ctx.send(dst, self.round as u32, payload);
        }
        self.parsed_this_round = 0;
    }

    /// Phase 2: sort + accumulate the received pairs.
    fn phase2(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_phase(1);
        let wb = self.word_bytes as u64;
        let rec = wb + 4;
        let n = self.t_r.len() as u64;

        // Working-memory discipline of the implementation (OOM model).
        let extra = ((self.cfg.mem_factor - 1.0) * (n * rec) as f64) as u64;
        ctx.mem_alloc(extra);

        let mut pairs = std::mem::take(&mut self.t_r);
        match self.cfg.sort {
            SortBackend::RadixHybrid => {
                dakc::costs::charge_hybrid_sort(ctx, n, rec);
                lsd_radix_sort_by(&mut pairs, |p| p.0);
            }
            SortBackend::Quicksort => {
                dakc::costs::charge_comparison_sort(ctx, n, rec);
                quicksort(&mut pairs);
            }
        }
        dakc::costs::charge_accumulate(ctx, n, rec);
        let counts: Vec<KmerCount<W>> = accumulate_weighted(&pairs)
            .into_iter()
            .map(|(w, c)| KmerCount::new(w, c))
            .collect();
        // The allocation is held, not freed: on a real node all PEs are in
        // phase 2 concurrently, so the node's peak is the SUM of per-PE
        // working sets. (The scheduler serializes equal-virtual-time
        // steps; freeing here would hide that concurrent peak from the
        // OOM accounting.)
        self.sink.borrow_mut()[ctx.pe()] = Some(counts);
    }
}

impl<W: KmerWord + RadixKey> Program for BspPeProgram<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match self.st {
            St::Init => {
                ctx.set_phase(0);
                // Collective staging pinned for the whole run (see
                // `BspConfig::staging_per_dst`).
                ctx.mem_alloc(ctx.num_pes() as u64 * self.cfg.staging_per_dst);
                self.st = St::Parsing;
                Step::Yield
            }
            St::Parsing => {
                self.poll_receives(ctx);
                let round_done = self.parse_step(ctx);
                if !round_done {
                    return Step::Yield;
                }
                if self.cfg.non_blocking {
                    if self.round == 0 {
                        self.exchange(ctx);
                        self.round = 1;
                        if self.rounds == 1 {
                            self.st = St::FinalWait;
                            return Step::Barrier;
                        }
                        Step::Yield
                    } else {
                        self.st = St::WaitPrev;
                        Step::Barrier
                    }
                } else {
                    self.exchange(ctx);
                    self.st = St::RoundWait;
                    Step::Barrier
                }
            }
            St::WaitPrev => {
                // Waiting out round `round - 1`'s barrier.
                if self.poll_receives(ctx) > 0 || ctx.has_ready() {
                    return Step::Barrier;
                }
                // Barrier released: post this round's sends.
                self.exchange(ctx);
                self.round += 1;
                if self.round < self.rounds {
                    self.st = St::Parsing;
                    Step::Yield
                } else {
                    self.st = St::FinalWait;
                    Step::Barrier
                }
            }
            St::RoundWait => {
                if self.poll_receives(ctx) > 0 || ctx.has_ready() {
                    return Step::Barrier;
                }
                self.round += 1;
                if self.round < self.rounds {
                    self.st = St::Parsing;
                    Step::Yield
                } else {
                    self.st = St::Phase2;
                    Step::Yield
                }
            }
            St::FinalWait => {
                if self.poll_receives(ctx) > 0 || ctx.has_ready() {
                    return Step::Barrier;
                }
                self.st = St::Phase2;
                Step::Yield
            }
            St::Phase2 => {
                self.phase2(ctx);
                self.st = St::Done;
                Step::Done
            }
            St::Done => Step::Done,
        }
    }
}

/// Runs the BSP baseline on the virtual cluster.
pub fn count_kmers_bsp_sim<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &BspConfig,
    machine: &MachineConfig,
) -> Result<BspRun<W>, SimError> {
    assert!((1..=W::MAX_K).contains(&cfg.k));
    assert!(cfg.batch >= 1);
    let p = machine.num_pes();
    let reads = Arc::new(reads.clone());

    // Global round count: every PE participates in the same number of
    // exchanges (empty ones for PEs that ran out of data early).
    let max_kmers = (0..p)
        .map(|pe| {
            reads
                .pe_range(pe, p)
                .map(|i| dakc_kmer::extract::kmer_count_of_read(reads.get(i), cfg.k))
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    let rounds = max_kmers.div_ceil(cfg.batch).max(1);

    let sink: OutputSink<W> = Rc::new(RefCell::new(vec![None; p]));
    let programs: Vec<Box<dyn Program>> = (0..p)
        .map(|pe| {
            let range = reads.pe_range(pe, p);
            Box::new(BspPeProgram::<W> {
                cfg: cfg.clone(),
                rounds,
                reads: Arc::clone(&reads),
                cursor: range.start,
                range,
                round: 0,
                parsed_this_round: 0,
                send_bufs: HashMap::new(),
                t_r: Vec::new(),
                recv_alloc: 0,
                word_bytes: (W::BITS / 8) as usize,
                sink: sink.clone(),
                st: St::Init,
            }) as Box<dyn Program>
        })
        .collect();

    let report = Simulator::new(machine.clone()).run(programs)?;
    let per_pe: Vec<Vec<KmerCount<W>>> = Rc::try_unwrap(sink)
        .expect("simulator dropped program references")
        .into_inner()
        .into_iter()
        .map(|o| o.expect("every PE published"))
        .collect();
    let counts = merge_disjoint_runs(per_pe);

    Ok(BspRun {
        counts,
        report,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(n: usize, seed: u64) -> ReadSet {
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 3000, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: 100, num_reads: n, error_rate: 0.005, both_strands: false },
            seed,
        )
    }

    fn reference(rs: &ReadSet, k: usize) -> Vec<KmerCount<u64>> {
        use std::collections::BTreeMap;
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in rs.iter() {
            for w in kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                *h.entry(w).or_default() += 1;
            }
        }
        h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
    }

    #[test]
    fn blocking_matches_reference() {
        let rs = reads(60, 1);
        let mut cfg = BspConfig::pakman_star(15);
        cfg.batch = 500; // force multiple rounds
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_bsp_sim::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 15));
        assert!(run.rounds > 1, "batch 500 over ~1290 k-mers/PE needs >1 rounds");
        assert_eq!(run.report.barriers_completed as usize, run.rounds);
    }

    #[test]
    fn non_blocking_matches_reference() {
        let rs = reads(60, 2);
        let mut cfg = BspConfig::hysortk(15);
        cfg.batch = 500;
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_bsp_sim::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 15));
        assert_eq!(run.report.barriers_completed as usize, run.rounds);
    }

    #[test]
    fn quicksort_backend_matches_reference() {
        let rs = reads(40, 3);
        let cfg = BspConfig::pakman_qsort(11);
        let machine = MachineConfig::test_machine(2, 1);
        let run = count_kmers_bsp_sim::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 11));
    }

    #[test]
    fn single_round_single_pe() {
        let rs = reads(10, 4);
        let cfg = BspConfig::pakman_star(9);
        let machine = MachineConfig::test_machine(1, 1);
        let run = count_kmers_bsp_sim::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 9));
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn bsp_needs_more_syncs_than_dakc() {
        let rs = reads(120, 5);
        let mut cfg = BspConfig::pakman_star(15);
        cfg.batch = 300;
        let machine = MachineConfig::test_machine(2, 2);
        let bsp = count_kmers_bsp_sim::<u64>(&rs, &cfg, &machine).unwrap();
        let dakc_cfg = dakc::DakcConfig::scaled_defaults(15);
        let dakc_run = dakc::count_kmers_sim::<u64>(&rs, &dakc_cfg, &machine).unwrap();
        assert_eq!(dakc_run.counts, bsp.counts);
        assert!(
            bsp.report.barriers_completed > dakc_run.report.barriers_completed,
            "BSP {} barriers vs DAKC {}",
            bsp.report.barriers_completed,
            dakc_run.report.barriers_completed
        );
    }

    #[test]
    fn non_blocking_is_not_slower_than_blocking() {
        let rs = reads(150, 6);
        let machine = MachineConfig::phoenix_intel(2);
        let mut blocking = BspConfig::pakman_star(15);
        blocking.batch = 200;
        let mut nb = BspConfig::hysortk(15);
        nb.batch = 200;
        let b = count_kmers_bsp_sim::<u64>(&rs, &blocking, &machine).unwrap();
        let n = count_kmers_bsp_sim::<u64>(&rs, &nb, &machine).unwrap();
        assert_eq!(b.counts, n.counts);
        assert!(
            n.report.total_time <= b.report.total_time * 1.02,
            "overlap should not hurt: nb {} vs blocking {}",
            n.report.total_time,
            b.report.total_time
        );
    }
}
