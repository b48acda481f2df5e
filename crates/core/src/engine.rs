//! The simulator engine: run DAKC over a virtual cluster.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dakc_io::ReadSet;
use dakc_kmer::{counts::merge_disjoint_runs, KmerCount, KmerWord};
use dakc_sim::{Ctx, MachineConfig, Program, SimError, SimReport, Simulator, Step, TraceSink};
use dakc_sort::RadixKey;

use crate::aggregate::{AggStats, ReceiveStore};
use crate::config::DakcConfig;
use crate::rank::{PeOutput, RankMachine};

/// The result of a simulated DAKC run.
#[derive(Debug, Clone)]
pub struct DakcRun<W> {
    /// The global histogram, sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Simulator accounting (virtual time, bytes, idle, memory, phases).
    pub report: SimReport,
    /// Per-PE outputs (aggregation/conveyor counters, received load).
    pub per_pe: Vec<PeOutput<W>>,
}

impl<W: KmerWord> DakcRun<W> {
    /// Aggregate sender-side statistics over all PEs.
    pub fn total_agg(&self) -> AggStats {
        let mut t = AggStats::default();
        for p in &self.per_pe {
            t.kmers_added += p.agg.kmers_added;
            t.l3_flushes += p.agg.l3_flushes;
            t.heavy_pairs += p.agg.heavy_pairs;
            t.occurrences_compressed += p.agg.occurrences_compressed;
            t.normal_packets += p.agg.normal_packets;
            t.heavy_packets += p.agg.heavy_packets;
            t.single_packets += p.agg.single_packets;
            t.super_packets += p.agg.super_packets;
            t.spans_shipped += p.agg.spans_shipped;
            t.span_wire_bytes += p.agg.span_wire_bytes;
            t.span_bases_saved += p.agg.span_bases_saved;
        }
        t
    }

    /// Owner-side load imbalance: max over PEs of received *records*
    /// (the data volume that must be stored and sorted) divided by the
    /// mean (1.0 = perfectly balanced). L3's pre-accumulation shrinks a
    /// heavy owner's records while occurrences are conserved.
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<u64> = self.per_pe.iter().map(|p| p.received_records).collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        loads.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

/// Shared collection slot for PE outputs.
type OutputSink<W> = Rc<RefCell<Vec<Option<PeOutput<W>>>>>;

/// One PE's DAKC program on the simulator: the rank program, stepped by
/// the scheduler, publishing its output into a shared sink.
pub(crate) struct DakcPeProgram<W> {
    rank: RankMachine<W, Arc<ReadSet>>,
    sink: OutputSink<W>,
}

impl<W: KmerWord + RadixKey> Program for DakcPeProgram<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        // The simulator's in-process wire cannot corrupt or fail.
        let step = self.rank.step(ctx).unwrap_or_else(|e| panic!("simulated rank failed: {e}"));
        if let Some(out) = self.rank.output.take() {
            self.sink.borrow_mut()[ctx.pe()] = Some(out);
        }
        step
    }
}

/// Runs DAKC on `machine` over `reads` and returns the merged histogram
/// plus full accounting.
///
/// Every PE owns a contiguous block of reads (perfect input balance, the
/// paper's assumption 1) and the hash-owner convention partitions the
/// output.
pub fn count_kmers_sim<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    machine: &MachineConfig,
) -> Result<DakcRun<W>, SimError> {
    count_kmers_sim_traced(reads, cfg, machine, &mut TraceSink::Off)
}

/// Like [`count_kmers_sim`], but records flight-recorder events into
/// `trace` (virtual timestamps; export with
/// [`dakc_sim::telemetry::chrome_trace`]). Identical inputs produce a
/// byte-identical exported trace — tracing never perturbs the simulation.
pub fn count_kmers_sim_traced<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    machine: &MachineConfig,
    trace: &mut TraceSink,
) -> Result<DakcRun<W>, SimError> {
    let store = || ReceiveStore::for_k(cfg.k);
    let (report, per_pe) = run_programs(reads, cfg, machine, trace, store)?;
    // Owner partitioning makes per-PE k-mer sets disjoint: merge the sorted
    // runs (result assembly, not part of the algorithm's timed work).
    let counts = merge_disjoint_runs(per_pe.iter().map(|o| o.counts.clone()).collect());
    Ok(DakcRun { counts, report, per_pe })
}

/// Runs one [`DakcPeProgram`] per PE of `machine`, each receiving into a
/// fresh `store()`, and collects what every PE published.
pub(crate) fn run_programs<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    machine: &MachineConfig,
    trace: &mut TraceSink,
    store: impl Fn() -> ReceiveStore<W>,
) -> Result<(SimReport, Vec<PeOutput<W>>), SimError> {
    cfg.validate::<W>();
    let p = machine.num_pes();
    let reads = Arc::new(reads.clone());
    let sink: OutputSink<W> = Rc::new(RefCell::new(vec![None; p]));
    let programs: Vec<Box<dyn Program>> = (0..p)
        .map(|pe| {
            let range = reads.pe_range(pe, p);
            let rank = RankMachine::new(cfg.clone(), Arc::clone(&reads), range, store());
            Box::new(DakcPeProgram { rank, sink: sink.clone() }) as Box<dyn Program>
        })
        .collect();
    let report = Simulator::new(machine.clone()).run_traced(programs, trace)?;
    let per_pe = Rc::try_unwrap(sink)
        .expect("simulation dropped all other references")
        .into_inner()
        .into_iter()
        .map(|o| o.expect("every PE published"))
        .collect();
    Ok((report, per_pe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_kmer::CanonicalMode;

    fn tiny_reads() -> ReadSet {
        let mut rs = ReadSet::new();
        rs.push(b"ACGTACGTAA");
        rs.push(b"TTTTTTTTTT");
        rs.push(b"ACGTACGTAA");
        rs
    }

    fn reference_counts(reads: &ReadSet, k: usize) -> Vec<KmerCount<u64>> {
        use std::collections::BTreeMap;
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in reads.iter() {
            for w in dakc_kmer::kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                *h.entry(w).or_default() += 1;
            }
        }
        h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
    }

    #[test]
    fn matches_reference_on_tiny_input() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(4);
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference_counts(&reads, 4));
        assert_eq!(run.report.barriers_completed, 1, "exactly one explicit barrier");
    }

    #[test]
    fn l3_mode_matches_reference() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(4).with_l3();
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference_counts(&reads, 4));
    }

    #[test]
    fn l0_l1_only_matches_reference() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(4).l0_l1_only();
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference_counts(&reads, 4));
    }

    #[test]
    fn superkmer_mode_matches_reference() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(4).with_superkmer(3);
        let machine = MachineConfig::test_machine(2, 2);
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference_counts(&reads, 4));
        let agg = run.total_agg();
        assert!(agg.spans_shipped > 0, "span path must carry the data");
        assert!(agg.span_bases_saved > 0, "overlapping k-mers share bases");
    }

    #[test]
    fn single_pe_run() {
        let reads = tiny_reads();
        let cfg = DakcConfig::scaled_defaults(3);
        let machine = MachineConfig::test_machine(1, 1);
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        assert_eq!(run.counts, reference_counts(&reads, 3));
    }
}
