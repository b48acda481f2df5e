//! `dakc serve`, the hidden `serve-worker`, and `dakc query` — the
//! persistent, sharded k-mer query service over dakc-net.
//!
//! `serve` is shaped like `launch --backend tcp`: it spawns one
//! `serve-worker` process per server rank plus the heartbeat
//! supervisor. Each worker counts its partition over a private build
//! mesh (the same Parse → Drain → Count pipeline as `launch`, stopped
//! at the quiescent hand-off), persists its owner-hash shard under
//! `DIR/shards/`, reloads it through the validated loader, and goes
//! resident in an `S + 1`-rank serve mesh whose last rank is reserved
//! for one `dakc query` client. Worker heartbeats keep flowing through
//! the serve loop, so the supervisor's staleness check doubles as the
//! service health check.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dakc::{count_partition_on, DakcConfig, Partition, RunOpts};
use dakc_io::TsvWriter;
use dakc_kmer::{CanonicalMode, KmerWord};
use dakc_net::{
    ChaosConfig, ChaosTransport, HeartbeatSender, HeartbeatState, NetTuning, Supervisor,
    TcpTransport, Transport,
};
use dakc_serve::{
    build_shards, serve_shards, shard_path, start_cluster, write_shard, LookupResult, QueryClient,
    ServeOpts, Shard,
};
use dakc_sim::telemetry::MetricsRegistry;
use dakc_sort::RadixKey;

use crate::args::{QueryArgs, ServeArgs, ServeWorkerArgs};
use crate::commands::{
    in_file, load_rank_slice, load_reads, out_writer, print_flow_latencies, supervise, teardown,
};

/// Default heartbeat period for serve workers (matches `launch`).
const HEARTBEAT_DEFAULT: Duration = Duration::from_millis(100);

/// How long a resident serve mesh waits for its query client to join
/// when `--net-timeout` is not given. Rendezvous blocks until the
/// client's endpoint appears, and "no query yet" is the service's idle
/// state, not a fault — so the default is generous where the build
/// mesh's is tight.
const CLIENT_WAIT_DEFAULT: Duration = Duration::from_secs(3600);

fn net_tuning(timeout: Option<Duration>) -> NetTuning {
    match timeout {
        Some(d) => NetTuning::default().with_timeout(d),
        None => NetTuning::default(),
    }
}

/// The engine config of a serve job. Every worker must derive the
/// identical config (owner hashing and canonicality are part of the
/// shard contract), so both the launcher's hint line and the workers
/// funnel through here.
fn serve_config(k: usize, canonical: bool) -> DakcConfig {
    let mut cfg = DakcConfig::scaled_defaults(k);
    cfg.canonical = if canonical {
        CanonicalMode::Canonical
    } else {
        CanonicalMode::Forward
    };
    cfg
}

/// `dakc serve`: spawn one `serve-worker` per rank and supervise the
/// resident mesh until the query session ends (or a rank dies, which
/// tears the service down with the dead rank named).
pub fn serve(a: ServeArgs) -> Result<(), String> {
    // Fail on an unreadable input before spawning N processes; each rank
    // parses its own slice, the launcher none of it.
    dakc_io::sniff(Path::new(&a.input)).map_err(in_file(&a.input))?;
    let dir = PathBuf::from(&a.dir);
    // Stale rank*.addr files from a previous service would wedge the
    // rendezvous; shards are rebuilt (and overwritten) every launch.
    for mesh in ["build", "serve"] {
        let _ = std::fs::remove_dir_all(dir.join(mesh));
    }
    for sub in ["build", "serve", "shards"] {
        let d = dir.join(sub);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let tuning = net_tuning(a.net_timeout);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut sup, sup_addr) =
        Supervisor::bind(a.ranks).map_err(|e| format!("supervisor: {e}"))?;
    let launched = Instant::now();
    let mut children: Vec<Option<std::process::Child>> = Vec::new();
    for rank in 0..a.ranks {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve-worker")
            .arg(&a.input)
            .args(["--rank", &rank.to_string()])
            .args(["--ranks", &a.ranks.to_string()])
            .args(["--dir", &a.dir])
            .args(["--supervisor", &sup_addr.to_string()])
            .args(["-k", &a.k.to_string()]);
        if a.canonical {
            cmd.arg("--canonical");
        }
        if let Some(t) = a.net_timeout {
            cmd.args(["--net-timeout", &format!("{}ms", t.as_millis().max(1))]);
        }
        if let Some(h) = a.heartbeat_interval {
            cmd.args(["--heartbeat-interval", &format!("{}ms", h.as_millis().max(1))]);
        }
        if let Some(s) = a.chaos_seed {
            cmd.args(["--chaos-seed", &s.to_string()]);
        }
        if let Some(p) = &a.chaos_profile {
            cmd.args(["--chaos-profile", p]);
        }
        if a.replicas > 1 {
            cmd.args(["--replicas", &a.replicas.to_string()]);
        }
        match cmd.spawn() {
            Ok(child) => children.push(Some(child)),
            Err(e) => {
                teardown(&mut children);
                return Err(format!("spawn serve rank {rank}: {e}"));
            }
        }
    }
    eprintln!(
        "serve: {} rank(s) counting {} (k = {}{}) into {}{}",
        a.ranks,
        a.input,
        a.k,
        if a.canonical { ", canonical" } else { "" },
        a.dir,
        if a.replicas > 1 {
            format!(", {} replica(s) per shard", a.replicas)
        } else {
            String::new()
        },
    );
    eprintln!(
        "serve: query with: dakc query KEYS.tsv --dir {} --ranks {} -k {}",
        a.dir, a.ranks, a.k
    );
    let status = a
        .status
        .then(|| a.status_interval.unwrap_or(Duration::from_millis(500)));
    supervise(&mut sup, &mut children, &tuning, launched, status, None)
}

/// One server rank of a TCP serve mesh (the hidden `serve-worker`
/// subcommand): build the shard collectively, persist + reload it, then
/// serve until the client shuts the session down.
pub fn serve_worker(w: ServeWorkerArgs) -> Result<(), String> {
    let a = &w.job;
    let rank = w.rank;
    // Heartbeat channel back to the serve supervisor. As in `worker`,
    // the mute flag is shared with chaos `freeze` injection so a frozen
    // serving rank goes silent — the hang signature the supervisor's
    // staleness check exists to catch.
    let mute = Arc::new(AtomicBool::new(false));
    let monitor = Arc::new(HeartbeatState::new());
    let mut sup_addr = None;
    let _hb = match &w.supervisor {
        Some(addr) => {
            let addr: std::net::SocketAddr = addr
                .parse()
                .map_err(|e| format!("rank {rank}: --supervisor {addr}: {e}"))?;
            sup_addr = Some(addr);
            Some(
                HeartbeatSender::spawn(
                    addr,
                    rank,
                    Arc::clone(&monitor),
                    a.heartbeat_interval.unwrap_or(HEARTBEAT_DEFAULT),
                    Arc::clone(&mute),
                )
                .map_err(|e| format!("rank {rank}: supervisor dial: {e}"))?,
            )
        }
        None => None,
    };
    let reads = load_rank_slice(&a.input, rank, a.ranks, |blame| {
        if let Some(addr) = sup_addr {
            let _ = dakc_net::send_obituary(addr, rank, blame);
        }
    })?;
    let cfg = serve_config(a.k, a.canonical);
    // Chaos targets the serve loop (the failure mode under test is a
    // rank dying mid-service); the build mesh runs clean.
    let chaos = match &a.chaos_profile {
        Some(p) => ChaosConfig::parse(p, a.chaos_seed.unwrap_or(0), rank)
            .map_err(|e| format!("rank {rank}: --chaos-profile: {e}"))?,
        None => ChaosConfig::off(),
    };
    if a.k <= 32 {
        worker_run::<u64>(rank, a, &reads, &cfg, chaos, monitor, mute, sup_addr)
    } else {
        worker_run::<u128>(rank, a, &reads, &cfg, chaos, monitor, mute, sup_addr)
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_run<W: KmerWord + RadixKey + Send>(
    rank: usize,
    a: &ServeArgs,
    reads: &dakc_io::ReadSet,
    cfg: &DakcConfig,
    chaos: ChaosConfig,
    monitor: Arc<HeartbeatState>,
    mute: Arc<AtomicBool>,
    sup_addr: Option<std::net::SocketAddr>,
) -> Result<(), String> {
    let dir = Path::new(&a.dir);
    let tuning = net_tuning(a.net_timeout);
    // On failure, file an obituary naming the rank the typed error
    // points at (ourselves for an injected death, the peer for a
    // disconnect) so the supervisor blames the root cause.
    let fail_net = move |e: dakc_net::NetError| {
        if let Some(addr) = sup_addr {
            let _ = dakc_net::send_obituary(addr, rank, e.rank());
        }
        format!("rank {rank}: {e}")
    };
    let fail_serve = move |e: dakc_serve::ServeError| {
        if let Some(addr) = sup_addr {
            let _ = dakc_net::send_obituary(addr, rank, e.rank());
        }
        format!("rank {rank}: {e}")
    };

    // Phase 1: count this rank's partition over the S-rank build mesh.
    let build = TcpTransport::rendezvous_tuned(
        rank,
        a.ranks,
        &dir.join("build"),
        cfg.c0_bytes,
        tuning.clone(),
    )
    .map_err(fail_net)?;
    let opts = RunOpts {
        tuning: tuning.clone(),
        monitor: Some(Arc::clone(&monitor)),
        trace: false,
        recover: false,
    };
    let Partition { transport, counts, .. } =
        count_partition_on::<W, _>(reads, 0..reads.len(), cfg, build, &opts).map_err(fail_net)?;
    let mut build = transport;

    // Phase 2: persist the shard, then barrier on the build mesh. The
    // barrier both syncs the teardown (no rank drops its endpoints while
    // a peer is still finishing the hand-off) and — because it runs
    // *after* the write — guarantees every shard file exists before any
    // rank starts loading its replica set from the shared directory.
    let canonical = cfg.canonical == CanonicalMode::Canonical;
    let shards_dir = dir.join("shards");
    let spath = shard_path(&shards_dir, rank, a.ranks);
    write_shard(&spath, &counts, a.k, canonical, rank, a.ranks).map_err(fail_serve)?;
    drop(counts);
    build.barrier().map_err(fail_net)?;
    drop(build);
    // Reload through the validated loader — the serving index is always
    // the on-disk artifact, never the in-memory table it was written
    // from. Under `--replicas R` this rank also loads the shards of its
    // R-1 predecessor owners, so every shard is held by its owner and
    // the owner's R-1 successors.
    let held: Vec<Shard<W>> = (0..a.replicas)
        .map(|j| {
            let owner = (rank + a.ranks - j) % a.ranks;
            Shard::<W>::load(&shard_path(&shards_dir, owner, a.ranks)).map_err(fail_serve)
        })
        .collect::<Result<_, _>>()?;
    eprintln!(
        "rank {rank}: shard ready: {} ({} records{}), joining serve mesh",
        spath.display(),
        held[0].len(),
        if a.replicas > 1 {
            format!(" + {} replica shard(s)", a.replicas - 1)
        } else {
            String::new()
        },
    );

    // Phase 3: go resident. The serve mesh has one extra rank (the
    // query client), and waiting for it to join is the idle state, not
    // a fault — hence the long default connect deadline.
    let mut serve_tuning = tuning.clone();
    serve_tuning.connect_timeout = a.net_timeout.unwrap_or(CLIENT_WAIT_DEFAULT);
    let st = TcpTransport::rendezvous_tuned(
        rank,
        a.ranks + 1,
        &dir.join("serve"),
        cfg.c0_bytes,
        serve_tuning,
    )
    .map_err(fail_net)?;
    let st = ChaosTransport::new(st, chaos).with_freeze_flag(mute);
    let stats =
        serve_shards(&held, st, &ServeOpts { monitor: Some(monitor) }).map_err(fail_serve)?;
    eprintln!(
        "rank {rank}: session over: {} request(s), {} lookup(s), {} hit(s)",
        stats.requests, stats.lookups, stats.hits
    );
    Ok(())
}

/// `dakc query`: batch the keys file against a serve mesh — a running
/// `dakc serve` joined over TCP (`--dir`), or an in-process loopback
/// cluster counted on the spot (`--serve-reads`).
pub fn query(a: QueryArgs) -> Result<(), String> {
    if a.k <= 32 {
        query_w::<u64>(&a)
    } else {
        query_w::<u128>(&a)
    }
}

fn query_w<W: KmerWord + RadixKey + Send + 'static>(a: &QueryArgs) -> Result<(), String> {
    let tuning = net_tuning(a.net_timeout);
    let (summary, metrics) = match &a.dir {
        Some(dir) => {
            let cfg = serve_config(a.k, a.canonical);
            let t = TcpTransport::rendezvous_tuned(
                a.ranks,
                a.ranks + 1,
                &Path::new(dir).join("serve"),
                cfg.c0_bytes,
                tuning.clone(),
            )
            .map_err(|e| format!("query: join {dir}: {e}"))?;
            let mut client =
                QueryClient::<W, _>::connect(t, tuning).map_err(|e| format!("query: {e}"))?;
            let summary = run_session(&mut client, a)?;
            let metrics = client.shutdown().map_err(|e| format!("query: shutdown: {e}"))?;
            (summary, metrics)
        }
        None => {
            let reads_path = a.serve_reads.as_ref().expect("parser demands --dir or --serve-reads");
            let reads = load_reads(reads_path, a.ranks).map_err(in_file(reads_path))?;
            let cfg = serve_config(a.k, a.canonical);
            let shards = build_shards::<W>(&reads, &cfg, a.ranks)
                .map_err(|e| format!("query: build {reads_path}: {e}"))?;
            let total: u64 = shards.iter().map(|s| s.len() as u64).sum();
            eprintln!(
                "query: counted {reads_path} into {} loopback shard(s) ({total} records)",
                a.ranks
            );
            let mut cluster = start_cluster::<W>(shards, tuning, None)
                .map_err(|e| format!("query: start cluster: {e}"))?;
            let summary = run_session(&mut cluster.client, a)?;
            let (metrics, outcomes) =
                cluster.shutdown().map_err(|e| format!("query: shutdown: {e}"))?;
            for (rank, outcome) in outcomes.iter().enumerate() {
                if let Err(e) = outcome {
                    eprintln!("query: server rank {rank} ended with: {e}");
                }
            }
            (summary, metrics)
        }
    };
    if let Some(path) = &a.metrics {
        std::fs::write(path, metrics.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics: {path}");
        print_flow_latencies(&metrics);
        print_query_counters(&metrics);
    }
    if summary.unavailable.is_empty() {
        Ok(())
    } else {
        // Typed partial failure: name every dead shard so a supervisor
        // (or CI grep) can pick the culprit out of the message.
        let ranks: Vec<String> =
            summary.unavailable.iter().map(|r| format!("rank {r}")).collect();
        Err(format!(
            "query: partial results: {} of {} key(s) unanswered, shard(s) on {} unavailable",
            summary.unanswered,
            summary.keys,
            ranks.join(", ")
        ))
    }
}

struct SessionSummary {
    keys: u64,
    unanswered: u64,
    unavailable: BTreeSet<usize>,
}

/// Runs one query session: batched lookups streamed to the output TSV,
/// then the optional aggregate requests. Returns what went unanswered;
/// transport-level errors (as opposed to typed per-shard losses) abort.
fn run_session<W: KmerWord, T: Transport>(
    client: &mut QueryClient<W, T>,
    a: &QueryArgs,
) -> Result<SessionSummary, String> {
    if client.k() != a.k {
        return Err(format!(
            "query: the service counted k = {}, but -k {} was given",
            client.k(),
            a.k
        ));
    }
    let keys = read_keys::<W>(&a.keys, a.k, client.canonical())?;
    eprintln!(
        "query: {} key(s) against {} shard(s) ({} records total{})",
        keys.len(),
        client.servers(),
        client.total_records(),
        if client.canonical() { ", canonical" } else { "" },
    );
    let mut out = TsvWriter::new(out_writer(&a.output)?, a.k);
    let mut unavailable: BTreeSet<usize> = BTreeSet::new();
    let mut unanswered = 0u64;
    let mut batches = 0u64;
    let t0 = Instant::now();
    for chunk in keys.chunks(a.batch.max(1)) {
        let outcome = client.lookup_batch(chunk).map_err(|e| format!("query: {e}"))?;
        batches += 1;
        unavailable.extend(outcome.unavailable.iter().copied());
        for (w, r) in chunk.iter().zip(&outcome.results) {
            let count = match r {
                LookupResult::Count(c) => Some(*c),
                LookupResult::Unavailable { rank } => {
                    unanswered += 1;
                    unavailable.insert(*rank);
                    None
                }
            };
            out.record(*w, count).map_err(|e| e.to_string())?;
        }
    }
    out.finish().map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64();
    eprintln!(
        "query: {} lookup(s) in {batches} batch(es) of ≤{} in {:.3} s ({:.0} lookups/s)",
        keys.len(),
        a.batch,
        elapsed,
        keys.len() as f64 / elapsed.max(1e-9),
    );
    if let Some(max) = a.histogram {
        let h = client.histogram(max).map_err(|e| format!("query: histogram: {e}"))?;
        unavailable.extend(h.unavailable.iter().copied());
        eprintln!("count spectrum (multiplicity → distinct k-mers, last bucket = >{max}):");
        for (i, n) in h.value.iter().enumerate() {
            if *n > 0 {
                let label = if i as u32 == max {
                    format!(">{max}")
                } else {
                    (i + 1).to_string()
                };
                eprintln!("  {label}\t{n}");
            }
        }
    }
    if let Some(n) = a.top {
        let t = client.top_n(n).map_err(|e| format!("query: top: {e}"))?;
        unavailable.extend(t.unavailable.iter().copied());
        eprintln!("top {} k-mer(s) by count:", t.value.len());
        for rec in &t.value {
            eprintln!("  {}\t{}", rec.kmer.to_dna_string(a.k), rec.count);
        }
    }
    Ok(SessionSummary { keys: keys.len() as u64, unanswered, unavailable })
}

/// Parses the keys file: TSV (or bare lines) whose first column is a
/// k-mer — `dakc count` output works as-is. Keys are canonicalized when
/// the service counts canonically, so either strand of a key matches.
fn read_keys<W: KmerWord>(path: &str, k: usize, canonical: bool) -> Result<Vec<W>, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut keys = Vec::new();
    for (ln, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let field = line.split('\t').next().unwrap_or("");
        if field.is_empty() {
            continue;
        }
        let parsed = (field.len() == k)
            .then(|| W::from_dna(field.as_bytes(), k))
            .flatten()
            .ok_or_else(|| format!("{path}:{}: {field:?} is not a {k}-mer", ln + 1))?;
        keys.push(if canonical { parsed.canonical(k) } else { parsed });
    }
    if keys.is_empty() {
        return Err(format!("{path}: no keys"));
    }
    Ok(keys)
}

/// Prints the client-side `serve.*` counters under `--metrics`.
fn print_query_counters(m: &MetricsRegistry) {
    let lookups = m.counter("serve.lookups");
    if lookups == 0 {
        return;
    }
    eprintln!(
        "query counters: {lookups} lookup(s), {} batch(es), {} server(s) lost, {} failover(s)",
        m.counter("serve.batches"),
        m.counter("serve.servers_lost"),
        m.counter("serve.failovers"),
    );
}
