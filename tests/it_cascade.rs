//! The AsyncAdd cascade against history and against the serial oracle.
//!
//! * A golden of the simulator's `SimReport` and metrics JSON for one
//!   pinned small run per cascade mode, captured on the commit *before*
//!   the cascade's per-destination tables went dense — so "virtual time
//!   and telemetry are byte-identical" is asserted against history, not
//!   against the same build.
//! * One engine × mode matrix property: ranks × protocol × cascade mode ×
//!   k, every cell bit-identical to `count_kmers_serial`.

use dakc::{count_kmers_loopback, count_kmers_sim, DakcConfig};
use dakc_baselines::count_kmers_serial;
use dakc_conveyors::Protocol;
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSet, ReadSimConfig, RepeatProfile};
use dakc_kmer::{CanonicalMode, KmerCount, KmerWord};
use dakc_sim::MachineConfig;
use dakc_sort::RadixKey;
use proptest::prelude::*;

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Reads with (AATGG)n arrays, so L3 finds heavy hitters to compress.
fn repeat_reads(seed: u64, num_reads: usize) -> ReadSet {
    let genome = generate_genome(
        &GenomeSpec { bases: 4_000, repeats: Some(RepeatProfile::aatgg(0.12)) },
        seed,
    );
    simulate_reads(
        &genome,
        &ReadSimConfig { read_len: 90, num_reads, error_rate: 0.01, both_strands: false },
        seed,
    )
}

/// The four cascade modes of the matrix, by index.
fn cascade_mode(mode: usize, k: usize, protocol: Protocol) -> DakcConfig {
    let mut cfg = DakcConfig::scaled_defaults(k);
    cfg.protocol = protocol;
    match mode {
        0 => cfg,
        1 => cfg.with_l3(),
        2 => cfg.l0_l1_only(),
        _ => cfg.with_superkmer(7.min(k)),
    }
}

const MODE_NAMES: [&str; 4] = ["l2", "l3", "l0_l1_only", "superkmer"];

#[test]
fn sim_report_and_metrics_match_parent_commit_golden() {
    // (mode, protocol, flow sampling, SimReport digest, metrics JSON digest),
    // captured at commit 3507dfe (PR 11) with this very function.
    const GOLDEN: [(usize, Protocol, bool, u64, u64); 6] = [
        (0, Protocol::OneD, false,
            2785281615194114525, 6142578343272798013),
        (1, Protocol::TwoD, false,
            18270030143870815370, 16843654669376474310),
        (2, Protocol::OneD, false,
            1552344811788824009, 13237049870391925353),
        (3, Protocol::ThreeD, false,
            2166880518998390816, 5259165342389447268),
        (1, Protocol::OneD, true,
            2958297618729848961, 6214825209472264338),
        (3, Protocol::TwoD, true,
            11060996092889359195, 8779523470067948734),
    ];
    let reads = repeat_reads(17, 260);
    let machine = MachineConfig::test_machine(3, 3);
    let mut got = Vec::new();
    for &(mode, protocol, sampled, ..) in &GOLDEN {
        let mut cfg = cascade_mode(mode, 31, protocol);
        if sampled {
            cfg = cfg.with_trace_sample(3);
        }
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        let report = fnv(format!("{:?}", run.report).as_bytes());
        let metrics = fnv(run.report.metrics.to_json().as_bytes());
        got.push((mode, protocol, sampled, report, metrics));
    }
    assert_eq!(got, GOLDEN, "virtual time or telemetry diverged from the parent commit");
}

fn matrix_cell<W: KmerWord + RadixKey + Send>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    ranks: usize,
    protocol: Protocol,
    mode: usize,
) {
    let want: Vec<KmerCount<W>> = count_kmers_serial::<W>(reads, k, canonical, false).counts;
    let mut cfg = cascade_mode(mode, k, protocol);
    cfg.canonical = canonical;
    let cell = format!("ranks={ranks} {protocol:?} {} k={k}", MODE_NAMES[mode]);
    let net = count_kmers_loopback::<W>(reads, &cfg, ranks).unwrap();
    prop_assert_eq!(&net.counts, &want, "loopback {}", &cell);
    let sim = count_kmers_sim::<W>(reads, &cfg, &MachineConfig::test_machine(1, ranks)).unwrap();
    prop_assert_eq!(&sim.counts, &want, "sim {}", &cell);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Ranks {1,2,3,4} × protocol {1D,2D,3D} × {L2 only, L3, L0–L1 only,
    // super-k-mer} × k {15,31,33} per case. Three reads over four ranks
    // leave one rank with an empty range and one with a read that holds no
    // k-mer, and two reads' worth of k-mers leave destination buffers
    // that are never touched.
    #[test]
    fn cascade_matrix_matches_serial(seed in 0u64..1_000, canonical in 0u8..2) {
        let mut reads = repeat_reads(seed, 2);
        reads.push(b"ACGTNNACGTTTGACCA"); // shorter than every k, with N
        let canonical = if canonical == 1 { CanonicalMode::Canonical } else { CanonicalMode::Forward };
        for ranks in 1..=4 {
            for protocol in [Protocol::OneD, Protocol::TwoD, Protocol::ThreeD] {
                for mode in 0..4 {
                    matrix_cell::<u64>(&reads, 15, canonical, ranks, protocol, mode);
                    matrix_cell::<u64>(&reads, 31, canonical, ranks, protocol, mode);
                    matrix_cell::<u128>(&reads, 33, canonical, ranks, protocol, mode);
                }
            }
        }
    }
}
