//! Every call the benchmark makes into the repository's public API.
//!
//! Nothing else under `perf/src` names a `dakc*` item, so when an entry
//! point is renamed or an engine fork is collapsed (ROADMAP items 2 and
//! 3) the follow-up benchmark change is confined to this file. Each
//! wrapper is a thin pass-through: timing, spans, statistics and checks
//! live in the callers.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::Command;

use dakc::{
    count_kmers_loopback_opts, count_kmers_sim, count_kmers_threaded, count_partition,
    decode_packet, encode_normal_packet, run_rank, Aggregator, DakcConfig, ReceiveStore, RunOpts,
};
use dakc_baselines::{
    count_kmers_bsp_threaded, count_kmers_kmc3, count_kmers_serial, BspConfig, Kmc3Config,
};
use dakc_io::{
    datasets::synthetic, generate_genome, simulate_reads, table_v, FastxReader, FastxRecord,
    GenomeSpec, ReadSimConfig,
};
use dakc_kmer::{
    extract_into, for_each_span, owner_pe, pack_span, unpack_spans, CanonicalMode, KmerCount,
    KmerWord,
};
use dakc_net::{
    encode_frame, FrameDecoder, FrameKind, Loopback, NetFabric, NetTuning, TcpTransport, Transport,
};
use dakc_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use dakc_serve::{
    encode_shard, start_cluster, LookupResult, Request, Response, ServeCluster, Shard,
};
use dakc_sim::MachineConfig;
use dakc_sort::{accumulate, hybrid_sort, parallel_radix_sort};

pub use dakc_io::ReadSet;
pub use dakc_sim::telemetry::json;

/// All three workloads have `k ≤ 32`, so one word width serves.
pub type Word = u64;
/// One histogram entry `(k-mer, count)`; every engine's output is
/// converted to a sorted vector of these before it is compared.
pub type Counts = Vec<(Word, u32)>;

/// Minimizer length of every `--superkmer` measurement (the CLI default).
pub const MINIMIZER_LEN: usize = dakc::DEFAULT_MINIMIZER_LEN;
/// `C3` passed wherever a workload turns L3 on (`scaled_defaults`' value,
/// so CLI and in-process runs use the same buffer).
pub const L3_C3: usize = 2_048;

/// What an engine needs to know about a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub k: usize,
    pub canonical: bool,
    pub l3: bool,
}

impl Mode {
    fn canonical_mode(self) -> CanonicalMode {
        if self.canonical {
            CanonicalMode::Canonical
        } else {
            CanonicalMode::Forward
        }
    }

    /// The cascade configuration `dakc launch` derives for these flags.
    fn cascade(self, superkmer: bool) -> DakcConfig {
        let mut cfg = DakcConfig::scaled_defaults(self.k);
        cfg.canonical = self.canonical_mode();
        if self.l3 {
            cfg = cfg.with_l3();
            cfg.c3 = L3_C3;
        }
        if superkmer {
            cfg = cfg.with_superkmer(MINIMIZER_LEN);
        }
        cfg
    }

    fn l3_buffer(self) -> Option<usize> {
        self.l3.then_some(L3_C3)
    }
}

fn pairs(counts: Vec<KmerCount<Word>>) -> Counts {
    counts.into_iter().map(|c| (c.kmer, c.count)).collect()
}

// ---------------------------------------------------------------- inputs

/// `Synthetic 24` shrunk by `2^shift`.
pub fn gen_uniform(shift: u32, seed: u64) -> ReadSet {
    synthetic(24).scaled(shift).generate(seed)
}

/// The Human surrogate `SRR28206931` shrunk by `2^shift`; also reports
/// whether the paper turns L3 on for it.
pub fn gen_repeats(shift: u32, seed: u64) -> (ReadSet, bool) {
    let spec = table_v()
        .into_iter()
        .find(|d| d.name == "SRR28206931")
        .expect("Table V lists the Human surrogate");
    (spec.scaled(shift).generate(seed), spec.needs_l3())
}

/// Short reads off a uniform genome.
pub fn gen_short(genome_bases: usize, num_reads: usize, read_len: usize, seed: u64) -> ReadSet {
    let genome = generate_genome(
        &GenomeSpec {
            bases: genome_bases,
            repeats: None,
        },
        seed,
    );
    let cfg = ReadSimConfig {
        read_len,
        num_reads,
        error_rate: 0.002,
        both_strands: false,
    };
    simulate_reads(&genome, &cfg, seed ^ 0x5EED)
}

/// Writes `reads` as FASTQ; returns the file size.
pub fn write_fastq(path: &Path, reads: &ReadSet) -> std::io::Result<u64> {
    let records: Vec<FastxRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, seq)| FastxRecord {
            id: format!("r{i}"),
            seq: seq.to_vec(),
            qual: None,
        })
        .collect();
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    dakc_io::write_fastq(&mut w, &records)?;
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

pub fn total_kmers(reads: &ReadSet, k: usize) -> u64 {
    reads.total_kmers(k) as u64
}

// --------------------------------------------------------------- engines

pub fn count_serial(reads: &ReadSet, m: Mode) -> Counts {
    pairs(count_kmers_serial::<Word>(reads, m.k, m.canonical_mode(), false).counts)
}

pub fn count_threaded(reads: &ReadSet, m: Mode, threads: usize) -> Counts {
    pairs(
        count_kmers_threaded::<Word>(reads, m.k, m.canonical_mode(), threads, m.l3_buffer()).counts,
    )
}

/// How a loopback run uses the cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wire {
    Words,
    Spans,
    /// Words with the distributed flight recorder on, as `--trace` sets it.
    WordsTraced,
}

/// Counters a loopback run's merged `MetricsRegistry` returns.
pub struct NetCounters {
    pub bytes_sent: u64,
    pub frames_sent: u64,
    pub term_rounds: u64,
    pub send_stalls: u64,
    pub retries: u64,
    pub super_packets: u64,
}

pub fn count_loopback(
    reads: &ReadSet,
    m: Mode,
    ranks: usize,
    wire: Wire,
) -> Result<(Counts, NetCounters), String> {
    let mut cfg = m.cascade(wire == Wire::Spans);
    let traced = wire == Wire::WordsTraced;
    if traced {
        cfg = cfg.with_trace_sample(64);
    }
    let opts = RunOpts {
        trace: traced,
        ..RunOpts::default()
    };
    let run = count_kmers_loopback_opts::<Word>(reads, &cfg, ranks, &opts)
        .map_err(|e| format!("loopback: {e}"))?;
    let c = |name: &str| run.metrics.counter(name);
    let counters = NetCounters {
        bytes_sent: c("net.bytes_sent"),
        frames_sent: c("net.frames_sent"),
        term_rounds: c("net.term_rounds"),
        send_stalls: c("net.send_stalls"),
        retries: c("net.retries"),
        super_packets: c("agg.super_packets"),
    };
    Ok((pairs(run.counts), counters))
}

/// Parse + drain + phase 2 on `ranks` loopback ranks, no gather.
pub fn partition_loopback(reads: &ReadSet, m: Mode, ranks: usize) -> Result<u64, String> {
    let cfg = m.cascade(false);
    let opts = RunOpts::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = Loopback::mesh(ranks)
            .into_iter()
            .map(|t| {
                let (cfg, opts) = (&cfg, &opts);
                s.spawn(move || {
                    count_partition::<Word, _>(reads, cfg, t, opts).map(|p| p.counts.len())
                })
            })
            .collect();
        let mut distinct = 0u64;
        for h in handles {
            distinct += h
                .join()
                .expect("partition rank panicked")
                .map_err(|e| e.to_string())? as u64;
        }
        Ok(distinct)
    })
}

/// `ranks` threads, each a real `TcpTransport` endpoint running one rank:
/// `dakc launch --backend tcp` without the processes.
pub fn count_tcp_inproc(
    reads: &ReadSet,
    m: Mode,
    ranks: usize,
    dir: &Path,
) -> Result<Counts, String> {
    let cfg = m.cascade(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let cfg = &cfg;
                s.spawn(move || {
                    let t = TcpTransport::rendezvous(rank, ranks, dir, cfg.c0_bytes)?;
                    run_rank::<Word, _>(reads, cfg, t)
                })
            })
            .collect();
        let mut out = None;
        for h in handles {
            if let Some(run) = h
                .join()
                .expect("tcp rank panicked")
                .map_err(|e| e.to_string())?
            {
                out = Some(pairs(run.counts));
            }
        }
        out.ok_or_else(|| "rank 0 published no result".to_string())
    })
}

/// Facts of a simulator run that must not change when it gets faster.
pub struct SimFacts {
    pub virtual_makespan_s: f64,
    pub remote_bytes: u64,
    pub barriers: u64,
}

pub fn count_sim(reads: &ReadSet, m: Mode) -> Result<(Counts, SimFacts), String> {
    let run = count_kmers_sim::<Word>(reads, &m.cascade(false), &MachineConfig::test_machine(2, 4))
        .map_err(|e| format!("sim: {e:?}"))?;
    let facts = SimFacts {
        virtual_makespan_s: run.report.total_time,
        remote_bytes: run.report.remote_bytes(),
        barriers: run.report.barriers_completed,
    };
    Ok((pairs(run.counts), facts))
}

pub fn count_bsp_threaded(reads: &ReadSet, m: Mode, threads: usize) -> Counts {
    let cfg = BspConfig::pakman_star(m.k);
    pairs(
        count_kmers_bsp_threaded::<Word>(
            reads,
            m.k,
            m.canonical_mode(),
            threads,
            cfg.batch,
            cfg.sort,
        )
        .counts,
    )
}

pub fn count_kmc3(reads: &ReadSet, m: Mode, threads: usize) -> Counts {
    let cfg = Kmc3Config {
        canonical: m.canonical_mode(),
        ..Kmc3Config::defaults(m.k, threads)
    };
    pairs(count_kmers_kmc3::<Word>(reads, &cfg).counts)
}

fn common_flags(cmd: &mut Command, m: Mode, out: &Path) {
    cmd.args(["-k", &m.k.to_string()]).arg("-o").arg(out);
    if m.canonical {
        cmd.arg("--canonical");
    }
    if m.l3 {
        cmd.args(["--l3", &L3_C3.to_string()]);
    }
}

/// `dakc count <fastq> -k K --threads P [--canonical] [--l3 C3] -o out`.
pub fn cli_count(dakc: &Path, fastq: &Path, m: Mode, threads: usize, out: &Path) -> Command {
    let mut cmd = Command::new(dakc);
    cmd.arg("count")
        .arg(fastq)
        .args(["--threads", &threads.to_string()]);
    common_flags(&mut cmd, m, out);
    cmd
}

/// `dakc launch <fastq> --ranks P --backend tcp [--superkmer] -o out`.
///
/// A worker's exit joins its heartbeat thread, which sleeps a whole
/// interval at a time; at the default 100 ms the launch wall is a
/// multiple of 100 ms plus a constant and jumps by a fifth when the work
/// ends near a step. `--heartbeat-interval 10ms` keeps the measured path
/// and makes the wall follow the work.
pub fn cli_launch(
    dakc: &Path,
    fastq: &Path,
    m: Mode,
    ranks: usize,
    superkmer: bool,
    out: &Path,
) -> Command {
    let mut cmd = Command::new(dakc);
    cmd.arg("launch")
        .arg(fastq)
        .args(["--ranks", &ranks.to_string(), "--backend", "tcp"])
        .args(["--heartbeat-interval", "10ms"]);
    common_flags(&mut cmd, m, out);
    if superkmer {
        cmd.arg("--superkmer");
    }
    cmd
}

/// `dakc analyze <trace> --out <artifact>`.
pub fn cli_analyze(dakc: &Path, trace: &Path, artifact: &Path) -> Command {
    let mut cmd = Command::new(dakc);
    cmd.arg("analyze").arg(trace).arg("--out").arg(artifact);
    cmd
}

/// The word a TSV line's k-mer column spells.
pub fn word_of_dna(seq: &[u8], k: usize) -> Option<Word> {
    Word::from_dna(seq, k)
}

// --------------------------------------------------------------- kernels

/// `FastxReader::for_each_chunk` over a FASTQ on disk.
pub fn parse_chunks(
    path: &Path,
    chunk_reads: usize,
    f: impl FnMut(&ReadSet),
) -> Result<usize, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    FastxReader::new(BufReader::new(file))
        .for_each_chunk(chunk_reads, f)
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn extract(reads: &ReadSet, m: Mode, out: &mut Vec<Word>) {
    let mode = m.canonical_mode();
    for r in reads.iter() {
        extract_into::<Word>(r, m.k, mode, |w| out.push(w));
    }
}

/// Adds each word's owner among `load.len()` PEs to `load`.
pub fn owners(words: &[Word], load: &mut [u64]) {
    let p = load.len();
    for &w in words {
        load[owner_pe(w, p)] += 1;
    }
}

/// Words in a NORMAL packet (`C2`) and packets' worth of bytes in one L0
/// buffer (`C0`), as `scaled_defaults` sets them.
pub fn packet_geometry(m: Mode) -> (usize, usize) {
    let cfg = m.cascade(false);
    (cfg.c2, cfg.c0_bytes)
}

pub fn encode_words(words: &[Word]) -> Vec<u8> {
    encode_normal_packet(words, 8)
}

/// Receive side of the NORMAL channel: appends the payload's words.
pub fn decode_words(payload: &[u8], store: &mut ReceiveStore<Word>) {
    decode_packet(dakc::aggregate::CH_NORMAL, payload, 8, store);
}

pub fn new_store() -> ReceiveStore<Word> {
    ReceiveStore::default()
}

pub fn take_plain(store: ReceiveStore<Word>) -> Vec<Word> {
    store.plain
}

pub fn frame(payload: &[u8]) -> Vec<u8> {
    encode_frame(FrameKind::Data, payload)
}

/// Feeds `wire` to a fresh decoder and hands every payload to `f`.
pub fn unframe(wire: &[u8], mut f: impl FnMut(Vec<u8>)) -> Result<(), String> {
    let mut dec = FrameDecoder::new();
    dec.feed(wire);
    while let Some((_, payload)) = dec.next_frame().map_err(|e| e.to_string())? {
        f(payload);
    }
    Ok(())
}

/// Packs every super-k-mer span of `reads` into `out`; returns the spans.
pub fn pack_spans(reads: &ReadSet, m: Mode, out: &mut Vec<u8>) -> u64 {
    let mut spans = 0u64;
    for r in reads.iter() {
        for_each_span(r, m.k, MINIMIZER_LEN, m.canonical, |_, span| {
            pack_span(out, span);
            spans += 1;
        });
    }
    spans
}

pub fn unpack(buf: &[u8], m: Mode, out: &mut Vec<Word>) -> Result<u64, String> {
    unpack_spans::<Word>(buf, m.k, m.canonical, out)
        .map(|s| s.kmers)
        .map_err(|e| e.to_string())
}

pub fn sort_hybrid(words: &mut [Word]) {
    hybrid_sort(words);
}

pub fn sort_parallel(words: &mut Vec<Word>, threads: usize) {
    parallel_radix_sort(words, threads);
}

pub fn accumulate_sorted(sorted: &[Word]) -> Counts {
    accumulate(sorted)
}

/// What one rank's cascade did, read from `AggStats`, `ConvStats` and the
/// fabric's registry.
pub struct CascadeFacts {
    pub received: Vec<Word>,
    pub received_pairs: Vec<(Word, u32)>,
    pub kmers_added: u64,
    pub occurrences_compressed: u64,
    pub heavy_pairs: u64,
    pub normal_packets: u64,
    pub heavy_packets: u64,
    pub puts: u64,
    pub items_pushed: u64,
    pub l0_fill_pct_mean: f64,
    pub l2_fill_pct_mean: f64,
}

/// The whole L3→L2→L1→L0 cascade and its decode on a one-rank loopback
/// fabric: `Aggregator::new`, `async_add` per k-mer, `progress` per read
/// batch, `flush`, then the drain loop of `count_partition`. No phase 2.
pub fn cascade_one_rank(reads: &ReadSet, m: Mode) -> Result<CascadeFacts, String> {
    let cfg = m.cascade(false);
    let mode = m.canonical_mode();
    let transport = Loopback::mesh(1).remove(0);
    let mut fab = NetFabric::new(transport);
    let mut agg = Aggregator::<Word>::new(cfg.clone(), &mut fab);
    let mut store = ReceiveStore::<Word>::default();
    for (i, r) in reads.iter().enumerate() {
        extract_into::<Word>(r, m.k, mode, |w| agg.async_add(&mut fab, w));
        if (i + 1) % cfg.batch_reads == 0 {
            agg.progress(&mut fab, &mut store);
        }
    }
    agg.flush(&mut fab);
    loop {
        if agg.progress(&mut fab, &mut store) > 0 {
            continue;
        }
        fab.check().map_err(|e| e.to_string())?;
        if fab
            .transport_mut()
            .termination_round()
            .map_err(|e| e.to_string())?
        {
            break;
        }
    }
    let (s, c) = (agg.stats(), agg.conveyor_stats());
    agg.release(&mut fab);
    let (_, metrics, _) = fab.finish();
    let mean = |name: &str| metrics.histogram(name).map_or(0.0, |h| h.mean());
    Ok(CascadeFacts {
        received: store.plain,
        received_pairs: store.pairs,
        kmers_added: s.kmers_added,
        occurrences_compressed: s.occurrences_compressed,
        heavy_pairs: s.heavy_pairs,
        normal_packets: s.normal_packets,
        heavy_packets: s.heavy_packets,
        puts: c.puts,
        items_pushed: c.items_pushed,
        l0_fill_pct_mean: mean("l0.put_fill_pct"),
        l2_fill_pct_mean: mean("l2.packet_fill_pct"),
    })
}

// ------------------------------------------------------------- transport

/// A mesh of `n` endpoints of one backend, for the transfer and
/// termination-round kernels.
pub fn loopback_mesh(n: usize) -> Vec<Loopback> {
    Loopback::mesh(n)
}

/// Rendezvous of `n` TCP ranks on 127.0.0.1 through `dir` (one thread per
/// rank, as each blocks until the mesh is up).
pub fn tcp_mesh(n: usize, dir: &Path, buf_bytes: usize) -> Result<Vec<TcpTransport>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|rank| s.spawn(move || TcpTransport::rendezvous(rank, n, dir, buf_bytes)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("rendezvous panicked")
                    .map_err(|e| e.to_string())
            })
            .collect()
    })
}

/// Sends `frames` copies of `payload` from endpoint 0 to endpoint 1 and
/// receives them all; returns the mesh for reuse.
pub fn transfer<T: Transport>(mesh: &mut [T], payload: &[u8], frames: usize) -> Result<(), String> {
    let (a, b) = mesh.split_at_mut(1);
    let (tx, rx) = (&mut a[0], &mut b[0]);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(), String> {
            for _ in 0..frames {
                tx.send(1, payload).map_err(|e| e.to_string())?;
            }
            tx.flush().map_err(|e| e.to_string())
        });
        let mut got = 0usize;
        while got < frames {
            match rx.try_recv().map_err(|e| e.to_string())? {
                Some((_, bytes)) => {
                    if bytes.len() != payload.len() {
                        return Err(format!(
                            "frame of {} bytes, sent {}",
                            bytes.len(),
                            payload.len()
                        ));
                    }
                    got += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        sender.join().expect("sender panicked")
    })
}

/// `rounds` collective termination rounds on every endpoint of the mesh.
pub fn termination_rounds<T: Transport>(mesh: &mut [T], rounds: usize) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .iter_mut()
            .map(|t| {
                s.spawn(move || -> Result<(), String> {
                    for _ in 0..rounds {
                        t.termination_round().map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("round panicked"))
    })
}

// ----------------------------------------------------------------- serve

pub type ServeShard = Shard<Word>;

/// The owner of `w` among `servers` shards (the router's convention).
pub fn owner_of(w: Word, servers: usize) -> usize {
    owner_pe(w, servers)
}

pub fn shard_encode(counts: &Counts, m: Mode, rank: usize, ranks: usize) -> Vec<u8> {
    let recs: Vec<KmerCount<Word>> = counts.iter().map(|&(w, c)| KmerCount::new(w, c)).collect();
    encode_shard(&recs, m.k, m.canonical, rank, ranks)
}

/// `Shard::from_bytes`: parse and verify every checksum.
pub fn shard_load(bytes: &[u8]) -> Result<ServeShard, String> {
    Shard::from_bytes(bytes).map_err(|e| e.to_string())
}

pub fn shard_get(shard: &ServeShard, w: Word) -> u32 {
    shard.get(w).unwrap_or(0)
}

/// A running loopback serve cluster and its one client.
pub struct Cluster(ServeCluster<Word>);

pub fn cluster_start(shards: Vec<ServeShard>) -> Result<Cluster, String> {
    start_cluster(shards, NetTuning::default(), None)
        .map(Cluster)
        .map_err(|e| e.to_string())
}

impl Cluster {
    /// One `lookup_batch`; `Err` on a `ServeError`, `None` per key the
    /// service called `Unavailable`.
    pub fn lookup(&mut self, keys: &[Word], out: &mut Vec<Option<u32>>) -> Result<(), String> {
        let outcome = self
            .0
            .client
            .lookup_batch(keys)
            .map_err(|e| e.to_string())?;
        out.clear();
        out.extend(outcome.results.iter().map(|r| match r {
            LookupResult::Count(c) => Some(*c),
            LookupResult::Unavailable { .. } => None,
        }));
        Ok(())
    }

    pub fn histogram(&mut self, max: u32) -> Result<Vec<u64>, String> {
        let agg = self.0.client.histogram(max).map_err(|e| e.to_string())?;
        if agg.unavailable.is_empty() {
            Ok(agg.value)
        } else {
            Err(format!(
                "histogram: ranks {:?} unavailable",
                agg.unavailable
            ))
        }
    }

    pub fn top_n(&mut self, n: usize) -> Result<Counts, String> {
        let agg = self.0.client.top_n(n).map_err(|e| e.to_string())?;
        if agg.unavailable.is_empty() {
            Ok(pairs(agg.value))
        } else {
            Err(format!("top_n: ranks {:?} unavailable", agg.unavailable))
        }
    }

    pub fn shutdown(self) -> Result<(), String> {
        let (_, servers) = self.0.shutdown().map_err(|e| e.to_string())?;
        for s in servers {
            s.map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// One request/response pair through the serve wire codec: encode and
/// decode a lookup of `keys`, then encode and decode its answer.
pub fn serve_wire_round_trip(keys: &[Word], counts: &[u32]) -> Result<usize, String> {
    let req = Request::Lookup {
        id: 1,
        keys: keys.to_vec(),
    };
    let wire = encode_request(&req, 8);
    let back = decode_request::<Word>(0, &wire, 8).map_err(|e| e.to_string())?;
    let resp = Response::<Word>::Lookup {
        id: 1,
        counts: counts.to_vec(),
    };
    let rwire = encode_response(&resp, 8);
    let rback = decode_response::<Word>(0, &rwire, 8).map_err(|e| e.to_string())?;
    if back != req || rback != Some(resp) {
        return Err("serve wire codec did not round-trip".to_string());
    }
    Ok(wire.len() + rwire.len())
}
