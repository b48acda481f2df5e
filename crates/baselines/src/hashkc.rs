//! A hash-table-based distributed counter (kmerind / Pan et al. style).
//!
//! The paper's §II-B: "The primary difference between these distributed
//! memory KC algorithms is the choice between hash table and sorting in
//! the third step." DAKC and HySortK sort; KmerInd [43] and the SC'18
//! hash-table work [29] *hash*: owners insert received k-mers into a
//! local table instead of buffering and sorting them.
//!
//! This baseline reuses the BSP exchange structure of Algorithm 2 but
//! counts with an owner-side open-addressing table, exposing the paper's
//! trade-off: hashing avoids the sort pass but pays a random cache miss
//! per insert (the sort-based engines stream), which is why the
//! sorting-based HySortK "surpassed the performance of KmerInd" and why
//! DAKC adopts sorting too.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use dakc_io::ReadSet;
use dakc_kmer::{
    counts::merge_disjoint_runs, kmers_of_read, CanonicalMode, KmerCount, KmerWord,
};
use dakc_sim::{Ctx, MachineConfig, PeId, Program, SimError, SimReport, Simulator, Step};
use dakc_sort::RadixKey;

/// Shared per-PE output slot written by each program at completion.
type OutputSink<W> = Rc<RefCell<Vec<Option<Vec<KmerCount<W>>>>>>;

/// Configuration of the hash-based baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HashKcConfig {
    /// k-mer length.
    pub k: usize,
    /// Exchange batch size (k-mers per PE per round), as in Algorithm 2.
    pub batch: usize,
    /// Forward or canonical counting.
    pub canonical: CanonicalMode,
    /// Reads parsed per simulator step.
    pub batch_reads: usize,
}

impl HashKcConfig {
    /// kmerind-flavoured defaults.
    pub fn defaults(k: usize) -> Self {
        Self {
            k,
            batch: 1 << 16,
            canonical: CanonicalMode::Forward,
            batch_reads: 64,
        }
    }
}

/// Result of a hash-based run.
#[derive(Debug, Clone)]
pub struct HashKcRun<W> {
    /// Global histogram sorted by k-mer (sorted at output for
    /// cross-engine comparison; the algorithm itself never sorts).
    pub counts: Vec<KmerCount<W>>,
    /// Simulator accounting.
    pub report: SimReport,
    /// Exchange rounds.
    pub rounds: usize,
}

/// The owner-side open-addressing table with virtual-time cost charging:
/// each insert costs a handful of ops plus — once the table outgrows this
/// PE's cache share — one random cache-line transfer. That line is the
/// hash-vs-sort trade.
#[derive(Debug)]
struct CostedTable<W> {
    map: HashMap<W, u32>,
    word_bytes: u64,
}

impl<W: KmerWord> CostedTable<W> {
    fn new(word_bytes: u64) -> Self {
        Self {
            map: HashMap::new(),
            word_bytes,
        }
    }

    fn insert(&mut self, ctx: &mut Ctx<'_>, w: W, c: u32) {
        // Probe + compare + update.
        ctx.charge_ops(6);
        let table_bytes = self.map.len() as u64 * (self.word_bytes + 4) * 2; // ~50% load factor
        let cache_share = (ctx.machine().cache_bytes / ctx.machine().pes_per_node) as u64;
        if table_bytes > cache_share {
            // Random probe misses one cache line.
            ctx.charge_cache_lines(1);
        }
        let slot = self.map.entry(w).or_insert(0);
        *slot = slot.saturating_add(c);
    }
}

enum St {
    Init,
    Parsing,
    RoundWait,
    Publish,
    Done,
}

struct HashKcPeProgram<W: KmerWord> {
    cfg: HashKcConfig,
    rounds: usize,
    round: usize,
    reads: Arc<ReadSet>,
    range: std::ops::Range<usize>,
    cursor: usize,
    parsed_this_round: usize,
    send_bufs: HashMap<PeId, Vec<W>>,
    table: CostedTable<W>,
    word_bytes: usize,
    sink: OutputSink<W>,
    st: St,
}

impl<W: KmerWord + RadixKey> HashKcPeProgram<W> {
    fn poll_inserts(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let mut n = 0u64;
        for msg in ctx.poll() {
            let wb = self.word_bytes;
            let mut at = 0;
            while at + wb <= msg.payload.len() {
                let mut padded = [0u8; 16];
                padded[..wb].copy_from_slice(&msg.payload[at..at + wb]);
                let w = W::from_u128(u128::from_le_bytes(padded));
                self.table.insert(ctx, w, 1);
                at += wb;
                n += 1;
            }
        }
        if n > 0 {
            ctx.mem_alloc(n * (self.word_bytes as u64 + 4) / 2); // amortized growth
        }
        n
    }

    fn parse_step(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let last = self.round + 1 == self.rounds;
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
            if !last && self.parsed_this_round >= self.cfg.batch {
                break;
            }
        }
        dakc::costs::charge_parse(ctx, kmers);
        dakc::costs::charge_parse_traffic(ctx, bases, kmers, self.word_bytes as u64);
        let exhausted = self.cursor == self.range.end;
        if last {
            exhausted
        } else {
            exhausted || self.parsed_this_round >= self.cfg.batch
        }
    }

    fn exchange(&mut self, ctx: &mut Ctx<'_>) {
        let mut dsts: Vec<PeId> = self.send_bufs.keys().copied().collect();
        dsts.sort_unstable();
        for dst in dsts {
            let buf = self.send_bufs.remove(&dst).expect("listed");
            // Raw k-mers on the wire — no pre-sort, no pre-accumulate.
            let mut payload = Vec::with_capacity(buf.len() * self.word_bytes);
            for w in &buf {
                payload.extend_from_slice(&w.to_u128().to_le_bytes()[..self.word_bytes]);
            }
            ctx.charge_ops(payload.len() as u64 / 8 + 1);
            ctx.send(dst, self.round as u32, payload);
        }
        self.parsed_this_round = 0;
    }
}

impl<W: KmerWord + RadixKey> Program for HashKcPeProgram<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        match self.st {
            St::Init => {
                ctx.set_phase(0);
                self.st = St::Parsing;
                Step::Yield
            }
            St::Parsing => {
                self.poll_inserts(ctx);
                if !self.parse_step(ctx) {
                    return Step::Yield;
                }
                self.exchange(ctx);
                self.st = St::RoundWait;
                Step::Barrier
            }
            St::RoundWait => {
                if self.poll_inserts(ctx) > 0 || ctx.has_ready() {
                    return Step::Barrier;
                }
                self.round += 1;
                if self.round < self.rounds {
                    self.st = St::Parsing;
                } else {
                    self.st = St::Publish;
                }
                Step::Yield
            }
            St::Publish => {
                ctx.set_phase(1);
                // Emit the table (the algorithm is done once inserts
                // finish; we sort only to compare against other engines).
                let mut counts: Vec<KmerCount<W>> = self
                    .table
                    .map
                    .iter()
                    .map(|(&w, &c)| KmerCount::new(w, c))
                    .collect();
                ctx.charge_ops(counts.len() as u64);
                counts.sort_unstable_by_key(|c| c.kmer);
                self.sink.borrow_mut()[ctx.pe()] = Some(counts);
                self.st = St::Done;
                Step::Done
            }
            St::Done => Step::Done,
        }
    }
}

/// Runs the hash-table baseline on the virtual cluster.
pub fn count_kmers_hash_sim<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &HashKcConfig,
    machine: &MachineConfig,
) -> Result<HashKcRun<W>, SimError> {
    assert!((1..=W::MAX_K).contains(&cfg.k));
    let p = machine.num_pes();
    let reads = Arc::new(reads.clone());
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
            Box::new(HashKcPeProgram::<W> {
                cfg: cfg.clone(),
                rounds,
                round: 0,
                reads: Arc::clone(&reads),
                cursor: range.start,
                range,
                parsed_this_round: 0,
                send_bufs: HashMap::new(),
                table: CostedTable::new((W::BITS / 8) as u64),
                word_bytes: (W::BITS / 8) as usize,
                sink: sink.clone(),
                st: St::Init,
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
    Ok(HashKcRun {
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
        let g = generate_genome(&GenomeSpec { bases: 3_000, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: 100, num_reads: n, error_rate: 0.005, both_strands: false },
            seed,
        )
    }

    fn reference(rs: &ReadSet, k: usize) -> Vec<KmerCount<u64>> {
        crate::serial::count_kmers_serial::<u64>(rs, k, CanonicalMode::Forward, false).counts
    }

    #[test]
    fn matches_reference() {
        let rs = reads(80, 1);
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_hash_sim::<u64>(&rs, &HashKcConfig::defaults(15), &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 15));
    }

    #[test]
    fn multiround_matches_reference() {
        let rs = reads(100, 2);
        let machine = MachineConfig::test_machine(2, 2);
        let mut cfg = HashKcConfig::defaults(17);
        cfg.batch = 400;
        let run = count_kmers_hash_sim::<u64>(&rs, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference(&rs, 17));
        assert!(run.rounds > 1);
    }

    #[test]
    fn sorting_based_dakc_beats_hashing_once_tables_spill_cache() {
        // §II-B: HySortK "surpassed the performance of KmerInd". The
        // hash-vs-sort trade flips on the table-vs-cache ratio: a
        // cache-resident table probes for free, a spilled one misses a
        // line per insert while the sorter keeps streaming. Build a
        // workload whose per-PE distinct-k-mer table clearly outgrows the
        // test machine's 512 KiB per-PE cache share.
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 60_000, repeats: None }, 3);
        let rs = simulate_reads(
            &g,
            &ReadSimConfig { read_len: 100, num_reads: 3_000, error_rate: 0.01, both_strands: false },
            3,
        );
        let machine = MachineConfig::test_machine(1, 2);
        let hash = count_kmers_hash_sim::<u64>(&rs, &HashKcConfig::defaults(21), &machine).unwrap();
        let dakc_run =
            dakc::count_kmers_sim::<u64>(&rs, &dakc::DakcConfig::scaled_defaults(21), &machine)
                .unwrap();
        assert_eq!(hash.counts, dakc_run.counts);
        assert!(
            dakc_run.report.total_time < hash.report.total_time,
            "sorting {} should beat hashing {}",
            dakc_run.report.total_time,
            hash.report.total_time
        );
    }
}
