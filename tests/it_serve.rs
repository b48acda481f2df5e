//! Serve-subsystem integration tests: a query service stood up from a
//! distributed count must answer bit-identically to the count itself,
//! across rank counts, k widths, and canonicality modes — and a server
//! killed mid-session must surface as typed partial results, never a
//! hang.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use dakc::DakcConfig;
use dakc_baselines::count_kmers_serial;
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSet, ReadSimConfig, RepeatProfile};
use dakc_kmer::{owner_pe, CanonicalMode, KmerCount, KmerWord};
use dakc_net::{NetError, NetTuning, TcpTransport, MAX_PAYLOAD};
use dakc_serve::{
    build_shards, serve_shard, start_cluster, start_cluster_replicated, shard_path, write_shard,
    ClusterChaos, LookupResult, QueryClient, ServeError, ServeOpts, Shard,
};
use dakc_sort::RadixKey;

fn workload(seed: u64) -> ReadSet {
    let genome = generate_genome(
        &GenomeSpec { bases: 4_000, repeats: Some(RepeatProfile::aatgg(0.10)) },
        seed,
    );
    simulate_reads(
        &genome,
        &ReadSimConfig { read_len: 100, num_reads: 220, error_rate: 0.01, both_strands: false },
        seed,
    )
}

fn reference<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    mode: CanonicalMode,
) -> Vec<KmerCount<W>> {
    count_kmers_serial::<W>(reads, k, mode, false).counts
}

/// Builds shards, serves them, and checks every reference k-mer's count
/// (batched at an odd size so batches straddle owner groups), a handful
/// of absent keys, the merged histogram, and the merged top-N.
fn serve_agrees<W: KmerWord + RadixKey + Send + 'static>(
    ranks: usize,
    k: usize,
    mode: CanonicalMode,
) {
    let reads = workload(0xD5EE + k as u64);
    let mut cfg = DakcConfig::paper_defaults(k);
    cfg.canonical = mode;
    let truth = reference::<W>(&reads, k, mode);
    assert!(!truth.is_empty(), "workload produced no k-mers");

    let shards = build_shards::<W>(&reads, &cfg, ranks).expect("build shards");
    assert_eq!(shards.len(), ranks);
    let total: u64 = shards.iter().map(|s| s.meta().n_records).sum();
    assert_eq!(total, truth.len() as u64, "shards must partition the table");
    for (r, s) in shards.iter().enumerate() {
        for (w, _) in s.iter() {
            assert_eq!(owner_pe(w, ranks), r, "record on wrong shard");
        }
    }

    let mut cluster =
        start_cluster(shards, NetTuning::default().with_timeout(Duration::from_secs(30)), None)
            .expect("start cluster");
    assert_eq!(cluster.client.k(), k);
    assert_eq!(cluster.client.canonical(), mode == CanonicalMode::Canonical);

    let keys: Vec<W> = truth.iter().map(|c| c.kmer).collect();
    for chunk in keys.chunks(777) {
        let out = cluster.client.lookup_batch(chunk).expect("lookup");
        assert!(out.complete(), "no server should be unavailable");
        for (key, res) in chunk.iter().zip(&out.results) {
            let want = truth[truth.binary_search_by_key(key, |c| c.kmer).unwrap()].count;
            assert_eq!(*res, LookupResult::Count(want), "count mismatch for {key:?}");
        }
    }

    // Absent keys answer zero, not an error.
    let present: HashSet<W> = keys.iter().copied().collect();
    let absent: Vec<W> = (0..200u64)
        .map(|i| W::from_u128(i as u128 * 7 + 1))
        .filter(|w| !present.contains(w))
        .collect();
    let out = cluster.client.lookup_batch(&absent).expect("absent lookup");
    assert!(out.results.iter().all(|r| *r == LookupResult::Count(0)));

    // Histogram: merged across shards == spectrum of the serial truth.
    let hist = cluster.client.histogram(16).expect("histogram");
    assert!(hist.unavailable.is_empty());
    let mut want = vec![0u64; 17];
    for c in &truth {
        let b = (c.count as usize - 1).min(16);
        want[b] += 1;
    }
    assert_eq!(hist.value, want);

    // Top-N: merged across shards == top of the serial truth.
    let top = cluster.client.top_n(12).expect("top_n");
    assert!(top.unavailable.is_empty());
    let mut by_count = truth.clone();
    by_count.sort_by(|a, b| b.count.cmp(&a.count).then(a.kmer.cmp(&b.kmer)));
    by_count.truncate(12);
    assert_eq!(top.value, by_count);

    let (metrics, outcomes) = cluster.shutdown().expect("shutdown");
    assert!(outcomes.iter().all(|o| o.is_ok()), "servers must exit cleanly: {outcomes:?}");
    let served: u64 = outcomes.iter().map(|o| o.as_ref().unwrap().lookups).sum();
    assert_eq!(served, (keys.len() + absent.len()) as u64);
    assert_eq!(
        metrics.counter("serve.lookups"),
        (keys.len() + absent.len()) as u64,
        "client must count its lookups"
    );
    assert!(
        metrics.histogram("flow.serve.batch_s").is_some(),
        "batch latency histogram must exist"
    );
}

#[test]
fn serve_matches_count_u64_k15() {
    for ranks in [1, 2, 4] {
        serve_agrees::<u64>(ranks, 15, CanonicalMode::Forward);
        serve_agrees::<u64>(ranks, 15, CanonicalMode::Canonical);
    }
}

#[test]
fn serve_matches_count_u64_k31() {
    for ranks in [1, 2, 4] {
        serve_agrees::<u64>(ranks, 31, CanonicalMode::Forward);
        serve_agrees::<u64>(ranks, 31, CanonicalMode::Canonical);
    }
}

#[test]
fn serve_matches_count_u128_k33() {
    for ranks in [1, 2, 4] {
        serve_agrees::<u128>(ranks, 33, CanonicalMode::Forward);
        serve_agrees::<u128>(ranks, 33, CanonicalMode::Canonical);
    }
}

/// Shard files round-trip through disk: what `write_shard` persists,
/// `Shard::load` reads back bit-identically — the same loader the
/// server boots from.
#[test]
fn shard_files_roundtrip_via_disk() {
    let reads = workload(0xF11E);
    let cfg = DakcConfig::paper_defaults(21);
    let shards = build_shards::<u64>(&reads, &cfg, 3).expect("build");
    let dir = std::env::temp_dir().join(format!("dakc-it-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (r, s) in shards.iter().enumerate() {
        let counts: Vec<KmerCount<u64>> =
            s.iter().map(|(w, c)| KmerCount::new(w, c)).collect();
        let path = shard_path(&dir, r, 3);
        write_shard(&path, &counts, 21, false, r, 3).expect("write");
        let back = Shard::<u64>::load(&path).expect("load");
        assert_eq!(back.meta().n_records, s.meta().n_records);
        for (w, c) in s.iter() {
            assert_eq!(back.get(w), Some(c));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server chaos-killed mid-session degrades to typed partial results
/// within the collective deadline: its keys come back
/// `Unavailable { rank }`, live shards keep answering correctly, later
/// batches fail the dead rank immediately, and the server thread's own
/// verdict is the injected death — never a hang, never a panic.
#[test]
fn chaos_killed_server_yields_typed_partial_results() {
    const RANKS: usize = 4;
    const DEAD: usize = 2;
    let reads = workload(0xDEAD);
    let cfg = DakcConfig::paper_defaults(31);
    let truth = reference::<u64>(&reads, 31, CanonicalMode::Forward);
    let shards = build_shards::<u64>(&reads, &cfg, RANKS).expect("build");
    let tuning = NetTuning::default().with_timeout(Duration::from_secs(2));
    let chaos =
        ClusterChaos { rank: DEAD, profile: format!("die:{DEAD}@25"), seed: 7 };
    let mut cluster = start_cluster(shards, tuning, Some(chaos)).expect("start");

    // Give the doomed server time to burn through its op budget.
    std::thread::sleep(Duration::from_millis(50));

    let keys: Vec<u64> = truth.iter().map(|c| c.kmer).collect();
    let t0 = Instant::now();
    let out = cluster.client.lookup_batch(&keys).expect("lookup must not error out");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "partial results must arrive within the collective deadline"
    );
    assert_eq!(out.unavailable, vec![DEAD], "exactly the killed rank is unavailable");
    for (key, res) in keys.iter().zip(&out.results) {
        let want = truth[truth.binary_search_by_key(key, |c| c.kmer).unwrap()].count;
        if owner_pe(*key, RANKS) == DEAD {
            assert_eq!(*res, LookupResult::Unavailable { rank: DEAD });
        } else {
            assert_eq!(*res, LookupResult::Count(want));
        }
    }
    assert_eq!(cluster.client.dead_ranks(), vec![DEAD]);

    // A later batch fails the dead rank's keys instantly — no second wait.
    let t1 = Instant::now();
    let again = cluster.client.lookup_batch(&keys[..500.min(keys.len())]).expect("relookup");
    assert!(t1.elapsed() < Duration::from_secs(1), "dead rank must be remembered");
    assert!(again.unavailable.iter().all(|&r| r == DEAD));

    let (_, outcomes) = cluster.shutdown().expect("shutdown");
    for (rank, o) in outcomes.iter().enumerate() {
        if rank == DEAD {
            assert!(
                matches!(o, Err(ServeError::Net(NetError::Injected { .. }))),
                "killed server must report its injected death, got {o:?}"
            );
        } else {
            assert!(o.is_ok(), "live server {rank} must exit cleanly: {o:?}");
        }
    }
}

/// With `--replicas 2`-style replication, a chaos-killed server does
/// NOT cost any answers: the dead owner's keys fail over to the
/// successor holding the replica shard, the batch comes back complete
/// and correct, the failover is counted and latency-traced, and the
/// aggregates (histogram, top-N) also merge over all owners via the
/// `_OWNER` redirect — zero `Unavailable` anywhere.
#[test]
fn replicated_cluster_fails_over_a_killed_server_with_complete_results() {
    const RANKS: usize = 4;
    const DEAD: usize = 2;
    let reads = workload(0xFA11);
    let cfg = DakcConfig::paper_defaults(31);
    let truth = reference::<u64>(&reads, 31, CanonicalMode::Forward);
    let shards = build_shards::<u64>(&reads, &cfg, RANKS).expect("build");
    let tuning = NetTuning::default().with_timeout(Duration::from_secs(2));
    let chaos = ClusterChaos { rank: DEAD, profile: format!("die:{DEAD}@25"), seed: 7 };
    let mut cluster =
        start_cluster_replicated(shards, tuning, Some(chaos), 2).expect("start");
    assert_eq!(cluster.client.replicas(), 2);

    // Give the doomed server time to burn through its op budget.
    std::thread::sleep(Duration::from_millis(50));

    let keys: Vec<u64> = truth.iter().map(|c| c.kmer).collect();
    let out = cluster.client.lookup_batch(&keys).expect("lookup");
    assert!(out.complete(), "replication must absorb the death: {:?}", out.unavailable);
    for (key, res) in keys.iter().zip(&out.results) {
        let want = truth[truth.binary_search_by_key(key, |c| c.kmer).unwrap()].count;
        assert_eq!(*res, LookupResult::Count(want), "failover answer for {key:#x}");
    }
    assert_eq!(cluster.client.dead_ranks(), vec![DEAD], "the holder is still marked dead");

    // Later batches route straight to the replica — fast and complete.
    let t1 = Instant::now();
    let again = cluster.client.lookup_batch(&keys[..500.min(keys.len())]).expect("relookup");
    assert!(again.complete());
    assert!(t1.elapsed() < Duration::from_secs(1), "no second deadline wait");

    // Aggregates merge every owner partition exactly once, with the
    // dead owner's shard read from its replica holder.
    let hist = cluster.client.histogram(16).expect("histogram");
    assert!(hist.unavailable.is_empty(), "histogram must cover all owners");
    let mut want = vec![0u64; 17];
    for c in &truth {
        want[(c.count as usize - 1).min(16)] += 1;
    }
    assert_eq!(hist.value, want);
    let top = cluster.client.top_n(8).expect("top_n");
    assert!(top.unavailable.is_empty());

    let (metrics, outcomes) = cluster.shutdown().expect("shutdown");
    assert!(metrics.counter("serve.failovers") > 0, "failovers must be counted");
    assert!(
        metrics.histogram("flow.serve.failover_s").is_some(),
        "failover latency must be flow-traced"
    );
    for (rank, o) in outcomes.iter().enumerate() {
        if rank == DEAD {
            assert!(matches!(o, Err(ServeError::Net(NetError::Injected { .. }))));
        } else {
            assert!(o.is_ok(), "live server {rank} must exit cleanly: {o:?}");
        }
    }
}

/// Over TCP, a batch in which each owner's key group is larger than one
/// frame may carry is split into several LOOKUP frames and answered
/// completely — the receive bound must not take a server down.
#[test]
fn tcp_serve_answers_owner_groups_above_the_frame_bound() {
    const SERVERS: usize = 2;
    let reads = workload(0xB16);
    let cfg = DakcConfig::paper_defaults(21);
    let truth = reference::<u64>(&reads, 21, CanonicalMode::Forward);
    let shards = build_shards::<u64>(&reads, &cfg, SERVERS).expect("build");
    // The table's keys plus enough 42-bit (k = 21) others that every
    // owner's group outgrows one 8-byte-per-key frame.
    let mut keys: Vec<u64> = truth.iter().map(|c| c.kmer).collect();
    let extra = SERVERS * (MAX_PAYLOAD / 8) + 10_000;
    keys.extend((1..=extra as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 22));
    for owner in 0..SERVERS {
        let group = keys.iter().filter(|&&k| owner_pe(k, SERVERS) == owner).count();
        assert!(group * 8 > MAX_PAYLOAD, "owner {owner}'s group of {group} keys fits one frame");
    }
    let dir = std::env::temp_dir().join(format!("dakc-it-serve-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tuning = NetTuning::default().with_timeout(Duration::from_secs(30));
    std::thread::scope(|s| {
        let servers: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(rank, shard)| {
                let (dir, tuning) = (&dir, tuning.clone());
                s.spawn(move || {
                    let t = TcpTransport::rendezvous_tuned(rank, SERVERS + 1, dir, 1 << 12, tuning)?;
                    serve_shard(shard, t, &ServeOpts::default())
                })
            })
            .collect();
        let t = TcpTransport::rendezvous_tuned(SERVERS, SERVERS + 1, &dir, 1 << 12, tuning.clone())
            .expect("client rendezvous");
        let mut client = QueryClient::<u64, _>::connect(t, tuning).expect("connect");
        let out = client.lookup_batch(&keys).expect("lookup");
        assert!(out.complete(), "unavailable: {:?}", out.unavailable);
        let table: std::collections::HashMap<u64, u32> =
            truth.iter().map(|c| (c.kmer, c.count)).collect();
        for (key, res) in keys.iter().zip(&out.results) {
            let want = table.get(key).copied().unwrap_or(0);
            assert_eq!(*res, LookupResult::Count(want), "count mismatch for {key:#x}");
        }
        client.shutdown().expect("shutdown");
        for h in servers {
            let stats = h.join().unwrap().expect("server must exit cleanly");
            assert!(stats.requests >= 2, "each owner's group takes several frames");
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
