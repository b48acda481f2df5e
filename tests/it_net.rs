//! Distributed-runtime integration tests: the real-transport engine
//! (`dakc-net` under the Conveyor L0) must be bit-identical to the serial
//! baseline over both backends, terminate without deadlock in the
//! degenerate topologies, and round-trip every wire format.

use dakc::{count_kmers_loopback, decode_packet, encode_heavy_packet, encode_normal_packet,
    run_rank, run_rank_opts, DakcConfig, NetRun, ReceiveStore, RunOpts};
use dakc_baselines::count_kmers_serial;
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSet, ReadSimConfig, RepeatProfile};
use dakc_kmer::{CanonicalMode, KmerCount, KmerWord};
use dakc_net::{
    ChaosConfig, ChaosTransport, FrameDecoder, FrameError, FrameKind, Loopback, NetError,
    NetResult, NetTuning, TcpTransport,
};
use dakc_sort::RadixKey;
use proptest::prelude::*;
use std::time::Duration;

const CH_NORMAL: u8 = 0;
const CH_HEAVY: u8 = 1;

fn workload(seed: u64) -> ReadSet {
    let genome = generate_genome(
        &GenomeSpec { bases: 5_000, repeats: Some(RepeatProfile::aatgg(0.12)) },
        seed,
    );
    simulate_reads(
        &genome,
        &ReadSimConfig { read_len: 100, num_reads: 300, error_rate: 0.01, both_strands: false },
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

/// Runs the distributed engine over an in-process TCP mesh: one thread
/// per rank, rendezvous through a unique temp dir, real sockets on
/// localhost.
fn count_kmers_tcp_threads<W: KmerWord + RadixKey + Send>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    ranks: usize,
    tag: &str,
) -> NetRun<W> {
    let dir = std::env::temp_dir().join(format!("dakc-it-net-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let dir = dir.clone();
                s.spawn(move || {
                    let t = TcpTransport::rendezvous(rank, ranks, &dir, cfg.c0_bytes).unwrap();
                    run_rank::<W, _>(reads, cfg, t).unwrap()
                })
            })
            .collect();
        let mut out = None;
        for h in handles {
            if let Some(r) = h.join().expect("rank thread panicked") {
                out = Some(r);
            }
        }
        out.expect("rank 0 result")
    });
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Runs the distributed engine with every rank's transport wrapped in a
/// [`ChaosTransport`] — over an in-process TCP mesh when `tcp` is set,
/// else a loopback mesh — returning each rank's verdict (no unwrap: the
/// fault-injection tests assert on the errors).
#[allow(clippy::too_many_arguments)]
fn run_ranks_chaos<W: KmerWord + RadixKey + Send>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    ranks: usize,
    tag: &str,
    profile: Option<&str>,
    seed: u64,
    tuning: NetTuning,
    tcp: bool,
) -> Vec<NetResult<Option<NetRun<W>>>> {
    let chaos_for = |rank: usize| match profile {
        Some(p) => ChaosConfig::parse(p, seed, rank).expect("chaos profile"),
        None => ChaosConfig::off(),
    };
    let dir = std::env::temp_dir().join(format!("dakc-it-chaos-{}-{tag}", std::process::id()));
    if tcp {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut loop_mesh: Vec<Option<Loopback>> = if tcp {
        (0..ranks).map(|_| None).collect()
    } else {
        Loopback::mesh_tuned(ranks, tuning.clone()).into_iter().map(Some).collect()
    };
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = loop_mesh
            .iter_mut()
            .enumerate()
            .map(|(rank, slot)| {
                let dir = dir.clone();
                let tuning = tuning.clone();
                let chaos = chaos_for(rank);
                let slot = slot.take();
                s.spawn(move || {
                    let opts = RunOpts { tuning: tuning.clone(), ..RunOpts::default() };
                    match slot {
                        Some(lo) => run_rank_opts::<W, _>(
                            reads,
                            cfg,
                            ChaosTransport::new(lo, chaos),
                            &opts,
                        ),
                        None => {
                            let t = TcpTransport::rendezvous_tuned(
                                rank, ranks, &dir, cfg.c0_bytes, tuning,
                            )?;
                            run_rank_opts::<W, _>(reads, cfg, ChaosTransport::new(t, chaos), &opts)
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    if tcp {
        let _ = std::fs::remove_dir_all(&dir);
    }
    results
}

#[test]
fn loopback_matches_serial_across_ranks_and_modes() {
    let reads = workload(11);
    for k in [15, 31] {
        for mode in [CanonicalMode::Forward, CanonicalMode::Canonical] {
            let mut cfg = DakcConfig::scaled_defaults(k);
            cfg.canonical = mode;
            let want = reference::<u64>(&reads, k, mode);
            for ranks in [1, 2, 4, 7] {
                let run = count_kmers_loopback::<u64>(&reads, &cfg, ranks).unwrap();
                assert_eq!(run.counts, want, "k={k} mode={mode:?} ranks={ranks}");
            }
        }
    }
}

#[test]
fn loopback_matches_serial_with_l3_enabled() {
    let reads = workload(12);
    let cfg = DakcConfig::scaled_defaults(21).with_l3();
    let want = reference::<u64>(&reads, 21, cfg.canonical);
    for ranks in [2, 5] {
        let run = count_kmers_loopback::<u64>(&reads, &cfg, ranks).unwrap();
        assert_eq!(run.counts, want, "l3 ranks={ranks}");
    }
}

#[test]
fn loopback_matches_serial_for_kmer128() {
    let reads = workload(13);
    let k = 33;
    let cfg = DakcConfig::scaled_defaults(k);
    let want = reference::<u128>(&reads, k, cfg.canonical);
    for ranks in [1, 3] {
        let run = count_kmers_loopback::<u128>(&reads, &cfg, ranks).unwrap();
        assert_eq!(run.counts, want, "u128 ranks={ranks}");
    }
}

#[test]
fn tcp_matches_serial() {
    let reads = workload(14);
    let cfg = DakcConfig::scaled_defaults(19).with_l3();
    let want = reference::<u64>(&reads, 19, cfg.canonical);
    let run = count_kmers_tcp_threads::<u64>(&reads, &cfg, 4, "agree");
    assert_eq!(run.counts, want);
    assert!(run.metrics.counter("net.frames_sent") > 0);
    assert_eq!(run.metrics.counter("net.ranks"), 4);
}

// Regression: ranks=1 has no remote peers — every send is a self-
// delivery and the termination protocol must still converge (two
// confirming rounds on (0, 0) deltas), in both backends.
#[test]
fn single_rank_terminates_loopback_and_tcp() {
    let reads = workload(15);
    let cfg = DakcConfig::scaled_defaults(17);
    let want = reference::<u64>(&reads, 17, cfg.canonical);
    let loop_run = count_kmers_loopback::<u64>(&reads, &cfg, 1).unwrap();
    assert_eq!(loop_run.counts, want, "loopback ranks=1");
    let tcp_run = count_kmers_tcp_threads::<u64>(&reads, &cfg, 1, "single");
    assert_eq!(tcp_run.counts, want, "tcp ranks=1");
}

// Regression: more ranks than reads leaves some ranks with an empty
// read slice. They flush nothing, contribute (0, 0) to every
// termination round, and must neither deadlock the collective nor
// corrupt the histogram.
#[test]
fn zero_input_ranks_terminate_loopback_and_tcp() {
    let mut reads = ReadSet::new();
    reads.push(b"ACGTACGTAACCGGTTACGTACGT");
    reads.push(b"TTTTTTTTTTTTTTTTTTTT");
    let cfg = DakcConfig::scaled_defaults(9);
    let want = reference::<u64>(&reads, 9, cfg.canonical);
    let ranks = 6; // > number of reads / 2: ranks 2.. get empty slices
    let loop_run = count_kmers_loopback::<u64>(&reads, &cfg, ranks).unwrap();
    assert_eq!(loop_run.counts, want, "loopback zero-input ranks");
    let tcp_run = count_kmers_tcp_threads::<u64>(&reads, &cfg, ranks, "zeroin");
    assert_eq!(tcp_run.counts, want, "tcp zero-input ranks");
}

// ---------------------------------------------------------------------
// Wire-format round-trips (satellite: L2 packets and HEAVY pairs over
// the framed transport, fuzzing lengths and split reads).
// ---------------------------------------------------------------------

/// Pushes `wire` through a [`FrameDecoder`] in chunks drawn from
/// `splits`, returning every decoded data payload.
fn decode_split(wire: &[u8], splits: &[usize]) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut at = 0;
    let mut si = 0;
    while at < wire.len() {
        let step = splits[si % splits.len()].min(wire.len() - at);
        si += 1;
        dec.feed(&wire[at..at + step]);
        at += step;
        while let Some((kind, payload)) = dec.next_frame().unwrap() {
            assert_eq!(kind, FrameKind::Data);
            out.push(payload);
        }
    }
    assert_eq!(dec.pending_bytes(), 0);
    out
}

proptest! {
    // NORMAL packets (one k-mer word per record) survive framing with
    // arbitrary read splits, for both word widths.
    #[test]
    fn normal_packet_roundtrip_u64(
        words in prop::collection::vec(any::<u64>(), 1..200),
        splits in prop::collection::vec(1usize..61, 1..20),
    ) {
        let word_bytes = 8;
        let payload = encode_normal_packet(&words, word_bytes);
        let wire = dakc_net::encode_frame(FrameKind::Data, &payload);
        let payloads = decode_split(&wire, &splits);
        prop_assert_eq!(payloads.len(), 1);
        let mut store = ReceiveStore::<u64>::default();
        decode_packet(CH_NORMAL, &payloads[0], word_bytes, &mut store).unwrap();
        prop_assert_eq!(store.plain, words);
        prop_assert!(store.pairs.is_empty());
    }

    // HEAVY `{kmer, count}` pairs round-trip for Kmer128 words (k > 32:
    // 16-byte words, the full 128-bit range).
    #[test]
    fn heavy_packet_roundtrip_u128(
        pairs in prop::collection::vec((any::<u128>(), 1u32..u32::MAX), 1..120),
        splits in prop::collection::vec(1usize..97, 1..20),
    ) {
        let word_bytes = 16;
        let payload = encode_heavy_packet(&pairs, word_bytes);
        let wire = dakc_net::encode_frame(FrameKind::Data, &payload);
        let payloads = decode_split(&wire, &splits);
        prop_assert_eq!(payloads.len(), 1);
        let mut store = ReceiveStore::<u128>::default();
        decode_packet(CH_HEAVY, &payloads[0], word_bytes, &mut store).unwrap();
        prop_assert_eq!(store.pairs, pairs);
        prop_assert!(store.plain.is_empty());
    }

    // Truncated word widths (k ≤ 32 ships 8-byte words even for u128
    // stores in the 9..=16 byte regime): width used on encode must
    // reproduce exactly on decode.
    #[test]
    fn heavy_packet_roundtrip_narrow_width(
        pairs in prop::collection::vec((any::<u64>(), 1u32..1000), 1..80),
        width in 5usize..=8,
    ) {
        let mask = if width == 8 { u64::MAX } else { (1u64 << (width * 8)) - 1 };
        let pairs: Vec<(u64, u32)> = pairs.into_iter().map(|(w, c)| (w & mask, c)).collect();
        let payload = encode_heavy_packet(&pairs, width);
        prop_assert_eq!(payload.len(), pairs.len() * (width + 4));
        let mut store = ReceiveStore::<u64>::default();
        decode_packet(CH_HEAVY, &payload, width, &mut store).unwrap();
        prop_assert_eq!(store.pairs, pairs);
    }

    // A mixed stream of NORMAL and HEAVY packets over one framed
    // connection: every frame decodes on its announced channel.
    #[test]
    fn mixed_channel_stream_roundtrip(
        packets in prop::collection::vec(
            prop::collection::vec((any::<u64>(), 1u32..500), 1..40),
            1..12,
        ),
        heavy_mask in any::<u16>(),
        splits in prop::collection::vec(1usize..53, 1..16),
    ) {
        let word_bytes = 8;
        let mut wire = Vec::new();
        let mut want = ReceiveStore::<u64>::default();
        for (i, pkt) in packets.iter().enumerate() {
            if heavy_mask & (1 << (i as u16 % 16)) != 0 {
                let payload = encode_heavy_packet(pkt, word_bytes);
                wire.push((CH_HEAVY, payload));
                want.pairs.extend_from_slice(pkt);
            } else {
                let words: Vec<u64> = pkt.iter().map(|&(w, _)| w).collect();
                let payload = encode_normal_packet(&words, word_bytes);
                wire.push((CH_NORMAL, payload));
                want.plain.extend(words);
            }
        }
        // Prefix each payload with its channel byte, as one data frame.
        let mut bytes = Vec::new();
        for (ch, payload) in &wire {
            let mut tagged = vec![*ch];
            tagged.extend_from_slice(payload);
            bytes.extend_from_slice(&dakc_net::encode_frame(FrameKind::Data, &tagged));
        }
        let mut store = ReceiveStore::<u64>::default();
        for payload in decode_split(&bytes, &splits) {
            decode_packet(payload[0], &payload[1..], word_bytes, &mut store).unwrap();
        }
        prop_assert_eq!(store.plain, want.plain);
        prop_assert_eq!(store.pairs, want.pairs);
    }
}

// ---------------------------------------------------------------------
// Fault injection (tentpole): the chaos wrapper must be invisible when
// off, deterministic when seeded, and every injected fault must surface
// as a typed error or a diagnosed stall — never a panic or a hang.
// ---------------------------------------------------------------------

/// Joins a chaos mesh's per-rank verdicts into rank 0's run, failing the
/// test if any rank errored.
fn expect_clean_run<W: KmerWord + RadixKey>(
    results: Vec<NetResult<Option<NetRun<W>>>>,
    what: &str,
) -> NetRun<W> {
    let mut root = None;
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(Some(run)) => root = Some(run),
            Ok(None) => {}
            Err(e) => panic!("{what}: rank {rank} failed: {e}"),
        }
    }
    root.expect("rank 0 result")
}

#[test]
fn chaos_off_wrapper_is_bit_identical() {
    let reads = workload(21);
    let cfg = DakcConfig::scaled_defaults(15);
    let want = reference::<u64>(&reads, 15, cfg.canonical);
    for tcp in [false, true] {
        let tag = if tcp { "off-tcp" } else { "off-loop" };
        let results = run_ranks_chaos::<u64>(
            &reads, &cfg, 4, tag, None, 0, NetTuning::default(), tcp,
        );
        let run = expect_clean_run(results, tag);
        assert_eq!(run.counts, want, "tcp={tcp}: chaos-off wrapper changed the result");
        assert_eq!(run.metrics.counter("net.injected_faults"), 0, "tcp={tcp}");
    }
}

#[test]
fn chaos_delay_is_deterministic_and_preserves_counts() {
    let reads = workload(22);
    let cfg = DakcConfig::scaled_defaults(15);
    let want = reference::<u64>(&reads, 15, cfg.canonical);
    let mut seen = None;
    for attempt in 0..2 {
        let results = run_ranks_chaos::<u64>(
            &reads, &cfg, 4, &format!("delay{attempt}"),
            Some("delay=400"), 9, NetTuning::default(), false,
        );
        let run = expect_clean_run(results, "delay profile");
        assert_eq!(run.counts, want, "attempt {attempt}: delays corrupted the result");
        let faults = run.metrics.counter("net.injected_faults");
        assert!(faults > 0, "attempt {attempt}: no delays injected");
        if let Some(prev) = seen {
            assert_eq!(faults, prev, "same --chaos-seed must inject identically");
        }
        seen = Some(faults);
    }
}

// Silently dropped frames leave sends counted but never received: the
// four-counter protocol can never observe S == R, and every rank must
// abort with a diagnosed termination stall instead of spinning forever.
#[test]
fn chaos_drop_stalls_termination_with_typed_timeout() {
    let reads = workload(23);
    let cfg = DakcConfig::scaled_defaults(15);
    let tuning = NetTuning::default().with_timeout(Duration::from_secs(2));
    let results =
        run_ranks_chaos::<u64>(&reads, &cfg, 3, "drop", Some("drop=1000"), 5, tuning, false);
    let errs: Vec<String> = results
        .iter()
        .map(|r| match r {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        })
        .collect();
    assert!(results.iter().all(Result::is_err), "lost frames but ranks converged: {errs:?}");
    let stalled = results.iter().any(|r| {
        matches!(r, Err(NetError::Timeout { phase, .. }) if phase == "termination")
    });
    assert!(stalled, "no rank diagnosed the termination stall: {errs:?}");
}

// A rank dying mid-cascade, over real sockets and over loopback: the dead
// rank surfaces its own injected error, and surviving ranks fast-fail
// with the dead rank's number well before the collective deadline.
#[test]
fn chaos_die_fast_fails_peers_naming_the_dead_rank() {
    let reads = workload(24);
    let cfg = DakcConfig::scaled_defaults(15);
    for tcp in [true, false] {
        let tuning = NetTuning::default().with_timeout(Duration::from_secs(30));
        let tag = if tcp { "die-tcp" } else { "die-loop" };
        let started = std::time::Instant::now();
        let results =
            run_ranks_chaos::<u64>(&reads, &cfg, 3, tag, Some("die:1@40"), 0, tuning, tcp);
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(25), "tcp={tcp}: fast-fail took {elapsed:?}");
        assert!(
            matches!(results[1], Err(NetError::Injected { rank: 1, .. })),
            "tcp={tcp}: rank 1 should die of its injected fault"
        );
        let blamed = results.iter().enumerate().any(|(i, r)| {
            i != 1 && matches!(r, Err(NetError::PeerDisconnected { rank: 1, .. }))
        });
        assert!(blamed, "tcp={tcp}: no surviving rank attributed the failure to rank 1");
    }
}

// ---------------------------------------------------------------------
// Wire robustness (satellite): truncated, bit-flipped, and oversized
// streams must produce typed frame errors or clean parks — never a
// panic, an unbounded allocation, or a hang.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Wire bit-identity golden: with super-k-mer encoding off, the cascade's
// data-frame stream per directed (src, dst) pair must stay byte-for-byte
// what PR 7 shipped. The golden digests below were captured from the
// unmodified PR 7 tree; any change to packet contents, record order, or
// ship thresholds in the default path trips this test.
// ---------------------------------------------------------------------

/// FNV-1a over a frame stream, length-delimited so frame boundaries are
/// part of the digest.
fn fnv_frame(mut h: u64, frame: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in (frame.len() as u32).to_le_bytes().into_iter().chain(frame.iter().copied()) {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Transport wrapper that digests every data frame per directed pair.
///
/// The single gather frame carrying the metrics-JSON registry is skipped:
/// it embeds timing-dependent counters (`net.term_rounds`, stalls) and is
/// the one payload that is legitimately nondeterministic. Everything else
/// — cascade packets, gather headers, HEAVY result chunks — depends only
/// on the sender's own deterministic parse, so a chained digest per
/// (src, dst) pair pins the wire bytes exactly.
struct DigestTransport<T> {
    inner: T,
    digests: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
}

impl<T: dakc_net::Transport> dakc_net::Transport for DigestTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }
    fn send(&mut self, dest: usize, frame: &[u8]) -> NetResult<()> {
        let json = frame.first() == Some(&b'{') && frame.last() == Some(&b'}');
        if !json {
            let n = self.inner.num_ranks();
            let mut d = self.digests.lock().unwrap();
            let slot = &mut d[self.inner.rank() * n + dest];
            *slot = fnv_frame(if *slot == 0 { FNV_OFFSET } else { *slot }, frame);
        }
        self.inner.send(dest, frame)
    }
    fn try_recv(&mut self) -> NetResult<Option<(usize, Vec<u8>)>> {
        self.inner.try_recv()
    }
    fn flush(&mut self) -> NetResult<()> {
        self.inner.flush()
    }
    fn barrier(&mut self) -> NetResult<()> {
        self.inner.barrier()
    }
    fn termination_round(&mut self) -> NetResult<bool> {
        self.inner.termination_round()
    }
    fn stats(&self) -> &dakc_net::NetStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut dakc_net::NetStats {
        self.inner.stats_mut()
    }
    fn last_global_totals(&self) -> Option<(u64, u64)> {
        self.inner.last_global_totals()
    }
    fn first_dead_peer(&self) -> Option<usize> {
        self.inner.first_dead_peer()
    }
    fn peer_dead(&self, rank: usize) -> bool {
        self.inner.peer_dead(rank)
    }
}

/// Runs a digest-wrapped mesh (loopback or in-process TCP) and returns
/// `(counts, per-pair digests)`.
fn run_digest_mesh(
    reads: &ReadSet,
    cfg: &DakcConfig,
    ranks: usize,
    tcp: bool,
    tag: &str,
) -> (Vec<KmerCount<u64>>, Vec<u64>) {
    let digests = std::sync::Arc::new(std::sync::Mutex::new(vec![0u64; ranks * ranks]));
    let dir = std::env::temp_dir().join(format!("dakc-it-digest-{}-{tag}", std::process::id()));
    if tcp {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut loop_mesh: Vec<Option<Loopback>> = if tcp {
        (0..ranks).map(|_| None).collect()
    } else {
        Loopback::mesh(ranks).into_iter().map(Some).collect()
    };
    let run = std::thread::scope(|s| {
        let handles: Vec<_> = loop_mesh
            .iter_mut()
            .enumerate()
            .map(|(rank, slot)| {
                let dir = dir.clone();
                let digests = digests.clone();
                let slot = slot.take();
                s.spawn(move || match slot {
                    Some(lo) => {
                        run_rank::<u64, _>(reads, cfg, DigestTransport { inner: lo, digests })
                            .unwrap()
                    }
                    None => {
                        let t = TcpTransport::rendezvous(rank, ranks, &dir, cfg.c0_bytes).unwrap();
                        run_rank::<u64, _>(reads, cfg, DigestTransport { inner: t, digests })
                            .unwrap()
                    }
                })
            })
            .collect();
        let mut out = None;
        for h in handles {
            if let Some(r) = h.join().expect("rank thread panicked") {
                out = Some(r);
            }
        }
        out.expect("rank 0 result")
    });
    if tcp {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let d = digests.lock().unwrap().clone();
    (run.counts, d)
}

#[test]
fn default_mode_wire_digest_matches_pr7_golden() {
    // Captured from the unmodified PR 7 tree (workload(31), k=31,
    // scaled_defaults + L3, 3 ranks). Row-major [src * ranks + dst].
    const GOLDEN: [u64; 9] = [
        12694026684392949695,
        16696218413624755691,
        6956128918343755458,
        438335224893881240,
        14154194250041189132,
        16480700137519909968,
        8345637009309515526,
        444341173696052613,
        5555719435282938632,
    ];
    let reads = workload(31);
    let cfg = DakcConfig::scaled_defaults(31).with_l3();
    let want = reference::<u64>(&reads, 31, cfg.canonical);
    let (counts, loop_digest) = run_digest_mesh(&reads, &cfg, 3, false, "loop");
    assert_eq!(counts, want, "digest wrapper changed the loopback result");
    let (tcp_counts, tcp_digest) = run_digest_mesh(&reads, &cfg, 3, true, "tcp");
    assert_eq!(tcp_counts, want, "digest wrapper changed the tcp result");
    assert_eq!(
        loop_digest, tcp_digest,
        "loopback and TCP must ship identical per-pair data-frame streams"
    );
    assert_eq!(loop_digest.as_slice(), GOLDEN, "wire bytes diverged from the PR 7 golden");
}

// ---------------------------------------------------------------------
// Super-k-mer mode (tentpole): with `--superkmer` on, minimizer routing
// changes every wire payload but the merged histogram must stay
// bit-identical to the serial reference — across rank counts, both word
// widths, and both strand modes. And corruption of span payloads must
// surface as typed errors, never a panic or silently wrong counts.
// ---------------------------------------------------------------------

fn check_superkmer_identity<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    mode: CanonicalMode,
) {
    let mut off = DakcConfig::scaled_defaults(k);
    off.canonical = mode;
    let on = off.clone().with_superkmer(7);
    let want = reference::<W>(reads, k, mode);
    for ranks in [1usize, 2, 4] {
        let off_run = count_kmers_loopback::<W>(reads, &off, ranks).unwrap();
        assert_eq!(off_run.counts, want, "off: k={k} mode={mode:?} ranks={ranks}");
        let on_run = count_kmers_loopback::<W>(reads, &on, ranks).unwrap();
        assert_eq!(on_run.counts, want, "on: k={k} mode={mode:?} ranks={ranks}");
        assert!(
            on_run.metrics.counter("net.superkmer.spans") > 0,
            "k={k} mode={mode:?} ranks={ranks}: span path not exercised"
        );
    }
}

#[test]
fn superkmer_on_off_bit_identical_across_ranks_k_and_modes() {
    let reads = workload(31);
    for mode in [CanonicalMode::Forward, CanonicalMode::Canonical] {
        check_superkmer_identity::<u64>(&reads, 15, mode);
        check_superkmer_identity::<u64>(&reads, 31, mode);
        check_superkmer_identity::<u128>(&reads, 33, mode);
    }
}

#[test]
fn tcp_superkmer_matches_serial_and_counts_compression() {
    let reads = workload(32);
    let mut cfg = DakcConfig::scaled_defaults(31).with_superkmer(7);
    cfg.canonical = CanonicalMode::Canonical;
    let want = reference::<u64>(&reads, 31, cfg.canonical);
    let run = count_kmers_tcp_threads::<u64>(&reads, &cfg, 3, "superkmer");
    assert_eq!(run.counts, want);
    assert!(run.metrics.counter("net.superkmer.spans") > 0);
    assert!(run.metrics.counter("net.superkmer.bytes_sent") > 0);
    assert!(run.metrics.counter("agg.span_bases_saved") > 0);
}

// Truncation chaos replaces whole frames with garbage bytes while span
// frames are in flight over real sockets: every rank must come back
// with a typed error (the victim a frame-decode error, peers a typed
// timeout/abort) or — if it did finish — the exact reference counts.
// A panic anywhere fails the thread join.
#[test]
fn chaos_truncate_on_superkmer_frames_fails_typed_never_silent() {
    let reads = workload(33);
    let cfg = DakcConfig::scaled_defaults(15).with_superkmer(7);
    let want = reference::<u64>(&reads, 15, cfg.canonical);
    let tuning = NetTuning::default().with_timeout(Duration::from_secs(10));
    let results = run_ranks_chaos::<u64>(
        &reads, &cfg, 3, "sk-trunc", Some("truncate=1000"), 7, tuning, true,
    );
    let mut errs = Vec::new();
    for (rank, r) in results.iter().enumerate() {
        match r {
            Ok(Some(run)) => {
                assert_eq!(run.counts, want, "rank {rank}: silently wrong counts");
            }
            Ok(None) => {}
            Err(e) => errs.push(format!("rank {rank}: {e}")),
        }
    }
    assert!(
        results.iter().any(|r| matches!(
            r,
            Err(NetError::CorruptFrame { .. } | NetError::OversizedFrame { .. })
        )),
        "no rank surfaced a typed frame-decode error: {errs:?}"
    );
}

fn kind_of(tag: u8) -> FrameKind {
    FrameKind::from_u8(tag).expect("valid tag")
}

#[test]
fn oversized_length_prefix_rejected_before_payload() {
    let mut dec = FrameDecoder::with_max_len(1024);
    let mut header = 4096u32.to_le_bytes().to_vec();
    header.push(0); // Data
    dec.feed(&header);
    assert!(matches!(
        dec.next_frame(),
        Err(FrameError::Oversized { len: 4096, max: 1024 })
    ));
}

proptest! {
    // Truncating a valid stream at any byte: the decoder yields exactly
    // the frames whose bytes fully arrived and parks waiting for more —
    // never a phantom frame, never an error (truncation isn't corruption).
    #[test]
    fn truncated_stream_yields_exact_frame_prefix(
        frames in prop::collection::vec(
            (0u8..4, prop::collection::vec(any::<u8>(), 1..64)), 1..8),
        cut_raw in any::<u32>(),
    ) {
        let mut wire = Vec::new();
        let mut boundaries = Vec::new();
        for (tag, payload) in &frames {
            wire.extend_from_slice(&dakc_net::encode_frame(kind_of(*tag), payload));
            boundaries.push(wire.len());
        }
        let cut = cut_raw as usize % (wire.len() + 1);
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        let mut got = Vec::new();
        while let Some(frame) = dec.next_frame().expect("truncation is not corruption") {
            got.push(frame);
        }
        prop_assert_eq!(got.len(), complete);
        for (g, f) in got.iter().zip(frames.iter()) {
            prop_assert_eq!(g.0, kind_of(f.0));
            prop_assert_eq!(&g.1, &f.1);
        }
    }

    // One flipped bit anywhere in the stream, fed in arbitrary chunks:
    // the decoder either keeps producing frames (the flip landed in a
    // payload) or surfaces a typed frame error. It must never panic and
    // the frame count stays bounded by the wire length.
    #[test]
    fn bit_flip_yields_frames_or_typed_error(
        frames in prop::collection::vec(
            (0u8..4, prop::collection::vec(any::<u8>(), 1..64)), 1..8),
        flip_raw in any::<u32>(),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        for (tag, payload) in &frames {
            wire.extend_from_slice(&dakc_net::encode_frame(kind_of(*tag), payload));
        }
        let at = flip_raw as usize % (wire.len() * 8);
        wire[at / 8] ^= 1 << (at % 8);
        let mut dec = FrameDecoder::with_max_len(1 << 16);
        let mut decoded = 0usize;
        'outer: for part in wire.chunks(chunk) {
            dec.feed(part);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {
                        decoded += 1;
                        // A shrunk length prefix can re-frame the tail,
                        // but every frame still costs ≥ 5 wire bytes.
                        prop_assert!(decoded <= wire.len() / 5 + 1);
                    }
                    Ok(None) => break,
                    Err(
                        FrameError::BadKind(_)
                        | FrameError::BadLength(_)
                        | FrameError::Oversized { .. },
                    ) => break 'outer,
                }
            }
        }
    }

    // One level up from frames: a CH_SUPER payload that frames cleanly
    // but carries truncated or bit-flipped span records. The span codec
    // must return a typed `SpanDecodeError` or decode to a bounded
    // number of k-mers (every 2-bit pattern is a valid base, so a flip
    // in the bases decodes — the aggregator's counts then differ from
    // the sender's and the termination protocol stalls typed) — never
    // panic.
    #[test]
    fn corrupted_span_payload_decodes_typed(
        seqs in prop::collection::vec(
            prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 15..120),
            1..6),
        cut_raw in any::<u32>(),
        flip_raw in any::<u32>(),
    ) {
        let k = 15;
        let mut buf = Vec::new();
        for s in &seqs {
            dakc_kmer::for_each_span(s, k, 7, false, |_mz, span| {
                dakc_kmer::pack_span(&mut buf, span);
            });
        }
        let mut clean: Vec<u64> = Vec::new();
        dakc_kmer::unpack_spans(&buf, k, false, &mut clean).expect("clean stream decodes");
        prop_assert!(!clean.is_empty());
        // Truncate anywhere: a prefix of records decodes, the torn
        // record (if the cut is mid-record) is a typed error.
        let cut = cut_raw as usize % buf.len();
        let mut got: Vec<u64> = Vec::new();
        let _typed: Result<_, dakc_kmer::SpanDecodeError> =
            dakc_kmer::unpack_spans(&buf[..cut], k, false, &mut got);
        prop_assert!(got.len() <= clean.len());
        prop_assert_eq!(&got[..], &clean[..got.len()]);
        // Flip one bit anywhere: typed error or bounded decode.
        let mut flipped = buf.clone();
        let at = flip_raw as usize % (buf.len() * 8);
        flipped[at / 8] ^= 1 << (at % 8);
        let mut got: Vec<u64> = Vec::new();
        let _typed: Result<_, dakc_kmer::SpanDecodeError> =
            dakc_kmer::unpack_spans(&flipped, k, false, &mut got);
        prop_assert!(got.len() <= flipped.len() * 4);
    }
}
