//! Phase-overlapped DAKC — the paper's first future-work item (§VII):
//! "this synchronization could be eliminated, thereby allowing the phases
//! to overlap, by using a distributed sorted-set data structure that
//! supports asynchronous queries and updates."
//!
//! [`Compaction`] is that structure's owner-side half: a compacting
//! [`ReceiveStore`] sorts and accumulates arrivals into small runs while
//! phase 1 is still in flight, so after quiescence only a merge of the runs
//! is left. [`count_kmers_sim_overlap`] runs the stock rank program over
//! such stores; the `ext_overlap_ablation` bench compares the two.

use dakc_conveyors::Fabric;
use dakc_io::ReadSet;
use dakc_kmer::counts::{merge_disjoint_runs, merge_sorted_counts_owned};
use dakc_kmer::{KmerCount, KmerWord};
use dakc_sim::{MachineConfig, SimError, SimReport, TraceSink};
use dakc_sort::{accumulate_weighted, lsd_radix_sort_by, sort_count, RadixKey};

use crate::aggregate::ReceiveStore;
use crate::config::DakcConfig;
use crate::costs;

/// Compaction on arrival: a compacting [`ReceiveStore`]'s staged words
/// and pairs are the pending run, closed — sorted, accumulated and set
/// aside — the moment it holds `threshold` records.
#[derive(Debug, Clone)]
pub(crate) struct Compaction<W> {
    /// Pending records that close a run. Sized so a run sorts
    /// cache-resident.
    threshold: usize,
    runs: Vec<Vec<KmerCount<W>>>,
    /// Pairs already pending before the latest arrivals.
    pending_pairs: usize,
    /// Records in closed runs.
    pub(crate) records: u64,
    /// Occurrences in closed runs.
    pub(crate) occurrences: u64,
}

impl<W: KmerWord + RadixKey> Compaction<W> {
    pub(crate) fn new(threshold: usize) -> Self {
        assert!(threshold >= 2);
        Self { threshold, runs: Vec::new(), pending_pairs: 0, records: 0, occurrences: 0 }
    }

    /// Closes every run the latest arrivals filled. The arrivals count one
    /// record at a time, plain words before pairs, so runs close exactly
    /// where pushing them one by one would close them.
    pub(crate) fn settle<F: Fabric>(
        &mut self,
        fab: &mut F,
        plain: &mut Vec<W>,
        pairs: &mut Vec<(W, u32)>,
    ) {
        let arrived_pairs = pairs.split_off(self.pending_pairs);
        let mut cut = 0;
        while plain.len() - cut + pairs.len() >= self.threshold {
            let end = cut + self.threshold - pairs.len();
            self.close(fab, &mut plain[cut..end], pairs);
            cut = end;
        }
        plain.drain(..cut);
        for pair in arrived_pairs {
            pairs.push(pair);
            if plain.len() + pairs.len() >= self.threshold {
                self.close(fab, plain, pairs);
                plain.clear();
            }
        }
        self.pending_pairs = pairs.len();
    }

    /// Sorts and accumulates one run and empties `pairs`. This is the work
    /// that overlaps with communication.
    fn close<F: Fabric>(&mut self, fab: &mut F, plain: &mut [W], pairs: &mut Vec<(W, u32)>) {
        if plain.is_empty() && pairs.is_empty() {
            return;
        }
        let wb = (W::BITS / 8) as u64;
        costs::charge_hybrid_sort(fab, plain.len() as u64, wb);
        costs::charge_accumulate(fab, plain.len() as u64, wb);
        let mut words: Vec<KmerCount<W>> = Vec::new();
        sort_count(plain, |w, c| words.push(KmerCount::new(w, c)));
        costs::charge_hybrid_sort(fab, pairs.len() as u64, wb + 4);
        lsd_radix_sort_by(pairs, |p| p.0);
        let heavy = accumulate_weighted(pairs).into_iter().map(|(w, c)| KmerCount::new(w, c));
        self.records += (plain.len() + pairs.len()) as u64;
        self.occurrences += plain.len() as u64 + pairs.iter().map(|&(_, c)| c as u64).sum::<u64>();
        let run = merge_sorted_counts_owned(words, heavy.collect());
        pairs.clear();
        if !run.is_empty() {
            self.runs.push(run);
        }
    }

    /// Closes the last run and merges them all: one streaming pass over
    /// the data, the only work left after quiescence.
    pub(crate) fn finish<F: Fabric>(
        mut self,
        fab: &mut F,
        plain: &mut [W],
        pairs: &mut Vec<(W, u32)>,
    ) -> Vec<KmerCount<W>> {
        self.close(fab, plain, pairs);
        let total: usize = self.runs.iter().map(Vec::len).sum();
        let wb = (W::BITS / 8) as u64;
        // Merge cost: read every record once through a log(runs)-deep heap
        // and write the output stream.
        let log_runs = (self.runs.len().max(2) as f64).log2().ceil() as u64;
        fab.charge_ops(total as u64 * (log_runs + 1));
        fab.charge_mem(total as u64 * (wb + 4) * 2);
        kway_merge(self.runs)
    }
}

/// Merges sorted count runs, summing equal k-mers: `std`'s stable sort
/// merges the concatenation's ascending runs in `O(n log runs)`.
fn kway_merge<W: KmerWord>(runs: Vec<Vec<KmerCount<W>>>) -> Vec<KmerCount<W>> {
    let mut out = runs.concat();
    out.sort_by_key(|c| c.kmer);
    out.dedup_by(|next, kept| {
        let same = next.kmer == kept.kmer;
        if same {
            kept.count = kept.count.saturating_add(next.count);
        }
        same
    });
    out
}

/// Result of a phase-overlapped run.
#[derive(Debug, Clone)]
pub struct OverlapRun<W> {
    /// The global histogram, sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Simulator accounting.
    pub report: SimReport,
}

/// Runs phase-overlapped DAKC on the virtual cluster: the stock rank
/// program, every PE receiving into a compacting store.
pub fn count_kmers_sim_overlap<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    machine: &MachineConfig,
) -> Result<OverlapRun<W>, SimError> {
    // Runs small enough to sort cache-resident, but small enough in
    // absolute terms that runs actually close *during* phase 1 — that
    // closing is the overlap.
    let share = machine.cache_bytes / machine.pes_per_node;
    let threshold = (share / (2 * (W::BITS as usize / 8))).clamp(1024, 4096);
    let store = || ReceiveStore::compacting(cfg.k, threshold);
    let (report, per_pe) =
        crate::engine::run_programs(reads, cfg, machine, &mut TraceSink::Off, store)?;
    let counts = merge_disjoint_runs(per_pe.into_iter().map(|o| o.counts).collect());
    Ok(OverlapRun { counts, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_kmer::CanonicalMode;
    use dakc_sim::{Ctx, Program, Simulator, Step};

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
        // Drive a compacting store directly inside a one-PE simulation.
        struct Probe;
        impl Program for Probe {
            fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
                let mut store = ReceiveStore::<u64>::compacting(8, 4);
                store.plain.extend([5u64, 1, 5]);
                store.settle(ctx);
                assert_eq!(store.plain.len(), 3, "three records stay pending");
                // Words count before pairs: `2` closes the run, `9` opens
                // the next one and the pair joins it.
                store.plain.extend([2u64, 9]);
                store.pairs.push((9, 3));
                store.settle(ctx);
                assert_eq!((store.plain.clone(), store.pairs.clone()), (vec![9], vec![(9, 3)]));
                assert_eq!((store.records(), store.total_occurrences()), (6, 8));
                let counts = store.count(ctx);
                assert_eq!(
                    counts,
                    vec![
                        KmerCount::new(1u64, 1),
                        KmerCount::new(2, 1),
                        KmerCount::new(5, 2),
                        KmerCount::new(9, 4),
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
