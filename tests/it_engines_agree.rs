//! Cross-engine agreement: every counting engine in the workspace — the
//! serial reference, the threaded engines, the simulated DAKC, and every
//! BSP baseline — must produce the identical histogram on identical input.

use dakc::{
    count_kmers_loopback, count_kmers_sim, count_kmers_sim_overlap, count_kmers_threaded, run_rank,
    DakcConfig,
};
use dakc_baselines::{
    count_kmers_bsp_sim, count_kmers_bsp_threaded, count_kmers_kmc3, count_kmers_serial,
    BspConfig, Kmc3Config, SortBackend,
};
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSet, ReadSimConfig, RepeatProfile};
use dakc_kmer::{kmers_of_read, CanonicalMode, KmerCount, KmerWord};
use dakc_net::TcpTransport;
use dakc_sim::MachineConfig;
use dakc_sort::RadixKey;

fn workload(seed: u64, skewed: bool) -> ReadSet {
    let repeats = skewed.then(|| RepeatProfile::aatgg(0.15));
    let genome = generate_genome(&GenomeSpec { bases: 6_000, repeats }, seed);
    simulate_reads(
        &genome,
        &ReadSimConfig {
            read_len: 120,
            num_reads: 400,
            error_rate: 0.01,
            both_strands: false,
        },
        seed,
    )
}

fn reference(reads: &ReadSet, k: usize, mode: CanonicalMode) -> Vec<KmerCount<u64>> {
    count_kmers_serial::<u64>(reads, k, mode, false).counts
}

#[test]
fn all_engines_agree_on_uniform_data() {
    let reads = workload(1, false);
    let k = 21;
    let want = reference(&reads, k, CanonicalMode::Forward);
    let machine = MachineConfig::test_machine(3, 2);

    let dakc = count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(k), &machine).unwrap();
    assert_eq!(dakc.counts, want, "DAKC sim");

    let threaded = count_kmers_threaded::<u64>(&reads, k, CanonicalMode::Forward, 5, None);
    assert_eq!(threaded.counts, want, "DAKC threaded");

    let pakman = count_kmers_bsp_sim::<u64>(&reads, &BspConfig::pakman_star(k), &machine).unwrap();
    assert_eq!(pakman.counts, want, "PakMan*");

    let hysortk = count_kmers_bsp_sim::<u64>(&reads, &BspConfig::hysortk(k), &machine).unwrap();
    assert_eq!(hysortk.counts, want, "HySortK");

    let qsort = count_kmers_bsp_sim::<u64>(&reads, &BspConfig::pakman_qsort(k), &machine).unwrap();
    assert_eq!(qsort.counts, want, "PakMan qsort");

    let kmc3 = count_kmers_kmc3::<u64>(&reads, &Kmc3Config::defaults(k, 4));
    assert_eq!(kmc3.counts, want, "KMC3");

    let bsp_t = count_kmers_bsp_threaded::<u64>(
        &reads,
        k,
        CanonicalMode::Forward,
        4,
        2_000,
        SortBackend::RadixHybrid,
    );
    assert_eq!(bsp_t.counts, want, "BSP threaded");
}

#[test]
fn all_engines_agree_on_skewed_data_with_l3() {
    let reads = workload(2, true);
    let k = 15;
    let want = reference(&reads, k, CanonicalMode::Forward);
    let machine = MachineConfig::test_machine(2, 3);

    let dakc_l3 =
        count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(k).with_l3(), &machine)
            .unwrap();
    assert_eq!(dakc_l3.counts, want, "DAKC sim + L3");
    assert!(
        dakc_l3.total_agg().heavy_pairs > 0,
        "the skewed input must exercise the HEAVY path"
    );

    let threaded_l3 = count_kmers_threaded::<u64>(&reads, k, CanonicalMode::Forward, 4, Some(512));
    assert_eq!(threaded_l3.counts, want, "DAKC threaded + L3");

    let l0l1 =
        count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(k).l0_l1_only(), &machine)
            .unwrap();
    assert_eq!(l0l1.counts, want, "DAKC L0-L1 ablation");
}

#[test]
fn engines_agree_under_canonical_counting() {
    let reads = workload(3, false);
    let k = 17;
    let want = reference(&reads, k, CanonicalMode::Canonical);

    let mut cfg = DakcConfig::scaled_defaults(k);
    cfg.canonical = CanonicalMode::Canonical;
    let machine = MachineConfig::test_machine(2, 2);
    let dakc = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
    assert_eq!(dakc.counts, want);

    let threaded = count_kmers_threaded::<u64>(&reads, k, CanonicalMode::Canonical, 3, None);
    assert_eq!(threaded.counts, want);

    let kmc3 = count_kmers_kmc3::<u64>(
        &reads,
        &Kmc3Config {
            canonical: CanonicalMode::Canonical,
            ..Kmc3Config::defaults(k, 3)
        },
    );
    assert_eq!(kmc3.counts, want);
}

#[test]
fn engines_agree_across_protocols() {
    let reads = workload(4, false);
    let k = 19;
    let want = reference(&reads, k, CanonicalMode::Forward);
    let machine = MachineConfig::test_machine(9, 1); // 9 PEs: a 3x3 2D grid

    for proto in [
        dakc_conveyors::Protocol::OneD,
        dakc_conveyors::Protocol::TwoD,
        dakc_conveyors::Protocol::ThreeD,
    ] {
        let mut cfg = DakcConfig::scaled_defaults(k);
        cfg.protocol = proto;
        let run = count_kmers_sim::<u64>(&reads, &cfg, &machine).unwrap();
        assert_eq!(run.counts, want, "protocol {proto:?}");
    }
}

#[test]
fn engines_agree_for_u128_large_k() {
    let reads = workload(5, false);
    let k = 41; // > 32: needs the 128-bit extension
    let want = count_kmers_serial::<u128>(&reads, k, CanonicalMode::Forward, false).counts;

    let machine = MachineConfig::test_machine(2, 2);
    let dakc = count_kmers_sim::<u128>(&reads, &DakcConfig::scaled_defaults(k), &machine).unwrap();
    assert_eq!(dakc.counts, want, "DAKC sim u128");

    let threaded = count_kmers_threaded::<u128>(&reads, k, CanonicalMode::Forward, 4, None);
    assert_eq!(threaded.counts, want, "threaded u128");

    let bsp = count_kmers_bsp_sim::<u128>(&reads, &BspConfig::pakman_star(k), &machine).unwrap();
    assert_eq!(bsp.counts, want, "BSP u128");
}

/// Every engine against a `BTreeMap` count of the same k-mers, on skewed
/// reads whose per-owner arrays are well above the phase-2 kernel's
/// out-of-place bound.
fn agree_with_a_map<W: KmerWord + RadixKey + std::fmt::Debug>(k: usize) {
    let reads = workload(6, true);
    let mut map = std::collections::BTreeMap::<W, u32>::new();
    for r in reads.iter() {
        for w in kmers_of_read::<W>(r, k, CanonicalMode::Canonical) {
            *map.entry(w).or_default() += 1;
        }
    }
    let want: Vec<KmerCount<W>> = map.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect();
    assert!(reads.total_kmers(k) > 8 * dakc_sort::in_cache_keys::<W>());

    let serial = count_kmers_serial::<W>(&reads, k, CanonicalMode::Canonical, false);
    assert_eq!(serial.counts, want, "serial k={k}");
    let threaded = count_kmers_threaded::<W>(&reads, k, CanonicalMode::Canonical, 2, Some(512));
    assert_eq!(threaded.counts, want, "threaded + L3 k={k}");
    let mut cfg = DakcConfig::scaled_defaults(k);
    cfg.canonical = CanonicalMode::Canonical;
    let spans = cfg.clone().with_superkmer(k.min(7));
    let machine = MachineConfig::test_machine(1, 2);
    let sim = count_kmers_sim::<W>(&reads, &cfg, &machine).unwrap();
    assert_eq!(sim.counts, want, "sim k={k}");
    let sim = count_kmers_sim::<W>(&reads, &spans, &machine).unwrap();
    assert_eq!(sim.counts, want, "sim spans k={k}");
    let net = count_kmers_loopback::<W>(&reads, &cfg, 2).unwrap();
    assert_eq!(net.counts, want, "loopback words k={k}");
    let net = count_kmers_loopback::<W>(&reads, &spans, 2).unwrap();
    assert_eq!(net.counts, want, "loopback spans k={k}");
    let kmc3 = count_kmers_kmc3::<W>(
        &reads,
        &Kmc3Config { canonical: CanonicalMode::Canonical, ..Kmc3Config::defaults(k, 2) },
    );
    assert_eq!(kmc3.counts, want, "KMC3 k={k}");
}

/// k = 32 fills every bit of a `u64`; k = 33 is a 66-bit window that
/// straddles the two halves of a `u128`; k = 64 fills the `u128`; at k = 3
/// the window (6 bits) is narrower than the phase-2 bucket digit.
#[test]
fn engines_agree_at_the_word_boundary() {
    agree_with_a_map::<u64>(3);
    agree_with_a_map::<u64>(32);
    agree_with_a_map::<u128>(33);
    agree_with_a_map::<u128>(64);
}

#[test]
fn reads_with_ambiguity_codes_agree() {
    let mut reads = ReadSet::new();
    reads.push(b"ACGTNNACGTACGGTTACANGGTACGATCAGT");
    reads.push(b"NNNN");
    reads.push(b"ACGTACGGTTACAGGGTACGATCAGTACCAGT");
    let k = 9;
    let want = reference(&reads, k, CanonicalMode::Forward);
    let machine = MachineConfig::test_machine(2, 1);
    let dakc = count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(k), &machine).unwrap();
    assert_eq!(dakc.counts, want);
    let kmc3 = count_kmers_kmc3::<u64>(&reads, &Kmc3Config::defaults(k, 2));
    assert_eq!(kmc3.counts, want);
}

/// Runs the distributed engine over an in-process TCP mesh: one thread per
/// rank, rendezvous through a unique temp dir, real sockets on localhost.
fn count_kmers_tcp<W: KmerWord + RadixKey + Send>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    ranks: usize,
    tag: &str,
) -> Vec<KmerCount<W>> {
    let dir = std::env::temp_dir().join(format!("dakc-it-agree-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let counts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let dir = dir.clone();
                s.spawn(move || {
                    let t = TcpTransport::rendezvous(rank, ranks, &dir, cfg.c0_bytes).unwrap();
                    run_rank::<W, _>(reads, cfg, t).unwrap()
                })
            })
            .collect();
        let runs: Vec<_> = handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
        runs.into_iter().flatten().next().expect("rank 0 result").counts
    });
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

/// One engine × mode row set at one `k`: the simulator, the phase-
/// overlapped simulator, loopback and TCP, each at P = 3, in words,
/// words + L3 and spans modes, forward and canonical, against the serial
/// count.
fn engine_mode_matrix<W: KmerWord + RadixKey + Send + std::fmt::Debug>(reads: &ReadSet, k: usize) {
    let machine = MachineConfig::test_machine(3, 1);
    for canonical in [CanonicalMode::Forward, CanonicalMode::Canonical] {
        let want = count_kmers_serial::<W>(reads, k, canonical, false).counts;
        let mut words = DakcConfig::scaled_defaults(k);
        words.canonical = canonical;
        let modes = [
            ("words", words.clone()),
            ("words+l3", words.clone().with_l3()),
            ("spans", words.clone().with_superkmer(k.min(7))),
        ];
        let mut overlap_remote_bytes = Vec::new();
        for (mode, cfg) in &modes {
            let at = format!("k={k} {canonical:?} {mode}");
            let sim = count_kmers_sim::<W>(reads, cfg, &machine).unwrap();
            assert_eq!(sim.counts, want, "sim {at}");
            let overlap = count_kmers_sim_overlap::<W>(reads, cfg, &machine).unwrap();
            assert_eq!(overlap.counts, want, "sim-overlap {at}");
            overlap_remote_bytes.push(overlap.report.remote_bytes());
            let loopback = count_kmers_loopback::<W>(reads, cfg, 3).unwrap();
            assert_eq!(loopback.counts, want, "loopback {at}");
            let tag = format!("{k}-{canonical:?}-{mode}");
            assert_eq!(count_kmers_tcp::<W>(reads, cfg, 3, &tag), want, "tcp {at}");
        }
        // The overlapped engine routes spans when asked to, so they cross
        // the simulated wire in fewer bytes than the words do.
        assert!(
            overlap_remote_bytes[2] < overlap_remote_bytes[0],
            "k={k} {canonical:?}: overlap spans {} B vs words {} B",
            overlap_remote_bytes[2],
            overlap_remote_bytes[0]
        );
    }
}

/// The engine × mode matrix at k = 3 (a 6-bit window, narrower than the
/// phase-2 bucket digit), 21, 32 (every bit of a `u64`), 33 (straddling
/// the halves of a `u128`) and 64 (every bit of a `u128`).
#[test]
fn engine_mode_matrix_matches_serial() {
    let reads = workload(7, true);
    for k in [3, 21, 32] {
        engine_mode_matrix::<u64>(&reads, k);
    }
    for k in [33, 64] {
        engine_mode_matrix::<u128>(&reads, k);
    }
}
