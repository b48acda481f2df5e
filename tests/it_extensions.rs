//! Integration tests for the extension features: phase overlap, the
//! hash-table baseline, and spectrum analytics — all
//! cross-checked against the primary engines.

use dakc::{count_kmers_sim, count_kmers_sim_overlap, count_kmers_threaded, DakcConfig};
use dakc_baselines::{count_kmers_hash_sim, count_kmers_serial, HashKcConfig};
use dakc_io::datasets::synthetic;
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig, RepeatProfile};
use dakc_kmer::{spectrum, CanonicalMode};
use dakc_sim::MachineConfig;

#[test]
fn overlap_engine_agrees_on_registry_dataset() {
    let reads = synthetic(22).scaled(12).generate(5);
    let machine = MachineConfig::phoenix_intel(2);
    let cfg = DakcConfig::scaled_defaults(31);
    let stock = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
    let overlap = count_kmers_sim_overlap::<u64>(&reads, &cfg, &machine).unwrap();
    assert_eq!(stock.counts, overlap.counts);
    assert_eq!(overlap.report.barriers_completed, 1);
}

#[test]
fn overlap_engine_agrees_with_l3_on_skewed_data() {
    let genome = generate_genome(
        &GenomeSpec { bases: 20_000, repeats: Some(RepeatProfile::aatgg(0.15)) },
        9,
    );
    let reads = simulate_reads(&genome, &ReadSimConfig::art_like(2_000), 9);
    let machine = MachineConfig::phoenix_intel(2);
    let cfg = DakcConfig::scaled_defaults(31).with_l3();
    let stock = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
    let overlap = count_kmers_sim_overlap::<u64>(&reads, &cfg, &machine).unwrap();
    assert_eq!(stock.counts, overlap.counts);
}

#[test]
fn hash_baseline_agrees_with_sorting_engines() {
    let reads = synthetic(21).scaled(12).generate(6);
    let machine = MachineConfig::phoenix_intel(2);
    let hash = count_kmers_hash_sim::<u64>(&reads, &HashKcConfig::defaults(31), &machine).unwrap();
    let dakc_run =
        count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(31), &machine).unwrap();
    assert_eq!(hash.counts, dakc_run.counts);
}

#[test]
fn spectrum_analytics_recover_coverage_from_counted_reads() {
    // ~35x base coverage, low error: the genomic peak should be near the
    // k-mer coverage.
    let genome = generate_genome(&GenomeSpec { bases: 50_000, repeats: None }, 4);
    let k = 21;
    let m = 120;
    let cfg = ReadSimConfig {
        read_len: m,
        num_reads: 35 * 50_000 / m,
        error_rate: 0.003,
        both_strands: false,
    };
    let reads = simulate_reads(&genome, &cfg, 4);
    let run = count_kmers_threaded::<u64>(&reads, k, CanonicalMode::Forward, 4, None);
    let summary = spectrum::analyze(&run.counts, 120);
    let cov = summary.coverage.expect("bimodal spectrum");
    let expect = 35.0 * (m - k + 1) as f64 / m as f64;
    assert!(
        (cov - expect).abs() / expect < 0.25,
        "coverage {cov:.1} vs expected {expect:.1}"
    );
    // Genome-size estimate within 20%.
    let gsize = summary.genome_kmers.expect("estimate");
    assert!(
        (gsize - 50_000.0).abs() / 50_000.0 < 0.2,
        "genome size estimate {gsize:.0}"
    );
}

#[test]
fn timeline_renders_for_a_real_run() {
    let reads = synthetic(20).scaled(12).generate(8);
    let machine = MachineConfig::test_machine(2, 2);
    let run = count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(15), &machine).unwrap();
    let text = dakc_sim::Timeline::new(&run.report).render();
    assert_eq!(text.lines().count(), 6); // header + phase ruler + 4 PEs
    assert!(text.contains("phase  |"));
    let summary = dakc_sim::Timeline::new(&run.report).summary();
    assert!(summary.contains("busy split"));
}

#[test]
fn streaming_reader_feeds_the_counter() {
    use dakc_io::FastxReader;
    // Write a FASTQ in memory, stream it back in chunks, count, compare.
    let reads = synthetic(20).scaled(12).generate(9);
    let mut fq = Vec::new();
    for (i, r) in reads.iter().enumerate() {
        fq.extend_from_slice(format!("@r{i}\n").as_bytes());
        fq.extend_from_slice(r);
        fq.extend_from_slice(b"\n+\n");
        fq.extend(std::iter::repeat_n(b'I', r.len()));
        fq.push(b'\n');
    }
    let mut reader = FastxReader::new(fq.as_slice());
    let mut streamed = dakc_io::ReadSet::new();
    let total = reader
        .for_each_chunk(64, |chunk| {
            for r in chunk.iter() {
                streamed.push(r);
            }
        })
        .unwrap();
    assert_eq!(total, reads.len());
    let a = count_kmers_serial::<u64>(&reads, 21, CanonicalMode::Forward, false).counts;
    let b = count_kmers_serial::<u64>(&streamed, 21, CanonicalMode::Forward, false).counts;
    assert_eq!(a, b);
}
