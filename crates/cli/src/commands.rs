//! Subcommand implementations.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, IsTerminal, Write};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dakc::{
    count_kmers_loopback_opts, count_kmers_sim, count_kmers_sim_traced, count_kmers_threaded_opts,
    run_rank_on, DakcConfig, NetRun, RunOpts, ThreadedOpts,
};
use dakc_io::{fastx, FastxError, ReadSet, TsvWriter};
use dakc_kmer::{CanonicalMode, KmerWord};
use dakc_model::{CommModel, Model, Workload};
use dakc_net::{
    ChaosConfig, ChaosTransport, HeartbeatSender, HeartbeatState, NetTuning, Supervisor,
    TcpTransport,
};
use dakc_analyze::{CommMatrix, Input};
use dakc_sim::telemetry::{chrome_trace, chrome_trace_with, metrics, Event, MetricsRegistry};
use dakc_sim::{EventKind, MachineConfig, Timeline, TraceSink};
use dakc_sort::RadixKey;

use crate::args::{
    AnalyzeArgs, Command, CompareArgs, CountArgs, GenerateArgs, LaunchArgs, ModelArgs, NetBackend,
    SimulateArgs, SpectrumArgs, WorkerArgs, USAGE,
};
use crate::serve_cmd;

/// Runs a parsed command.
pub fn dispatch(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Count(a) => count(a),
        Command::Generate(a) => generate(a),
        Command::Spectrum(a) => spectrum(a),
        Command::Simulate(a) => simulate(a),
        Command::Launch(a) => launch(a),
        Command::Worker(a) => worker(a),
        Command::Model(a) => model(a),
        Command::Compare(a) => compare(a),
        Command::Analyze(a) => analyze(a),
        Command::Serve(a) => serve_cmd::serve(a),
        Command::ServeWorker(a) => serve_cmd::serve_worker(a),
        Command::Query(a) => serve_cmd::query(a),
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

/// Loads reads from a FASTA or FASTQ file (sniffed from the first byte),
/// its `threads` byte-range slices parsed on as many threads.
pub fn load_reads(path: &str, threads: usize) -> Result<ReadSet, FastxError> {
    dakc_io::load(Path::new(path), threads)
}

/// Prefixes an input error with the file it came from.
pub(crate) fn in_file(path: &str) -> impl Fn(FastxError) -> String + '_ {
    move |e| format!("{path}: {e}")
}

/// Loads rank `rank`'s byte-range slice of the input: every read in it is
/// that rank's own, and a respawned incarnation loads the very same reads.
/// A malformed slice is this rank's fault: `obituary` tells the supervisor
/// so before the error (`rank R: FILE: byte N: …`) goes out.
pub(crate) fn load_rank_slice(
    path: &str,
    rank: usize,
    ranks: usize,
    obituary: impl FnOnce(Option<usize>),
) -> Result<ReadSet, String> {
    dakc_io::load_slice(Path::new(path), rank, ranks).map_err(|e| {
        obituary(Some(rank));
        format!("rank {rank}: {path}: {e}")
    })
}

pub(crate) fn out_writer(path: &Option<String>) -> Result<Box<dyn Write>, String> {
    Ok(match path {
        Some(p) => Box::new(BufWriter::new(
            File::create(p).map_err(|e| format!("{p}: {e}"))?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout())),
    })
}

/// Writes counts as TSV lines `KMER<TAB>COUNT`, filtered by `min_count`.
pub fn write_counts<W: KmerWord>(
    out: &mut dyn Write,
    counts: &[dakc_kmer::KmerCount<W>],
    k: usize,
    min_count: u32,
) -> Result<u64, String> {
    let mut tsv = TsvWriter::new(out, k);
    let mut written = 0u64;
    for c in counts.iter().filter(|c| c.count >= min_count) {
        tsv.record(c.kmer, Some(c.count)).map_err(|e| e.to_string())?;
        written += 1;
    }
    tsv.finish().map_err(|e| e.to_string())?;
    Ok(written)
}

fn write_artifact(path: &str, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))
}

/// Distills a metrics registry from a threaded-engine event stream (the
/// threaded engine records events in-line rather than carrying a registry
/// through every worker).
fn metrics_from_events(events: &[Event]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for e in events {
        match e.kind {
            EventKind::MsgSend { bytes, .. } => {
                m.inc("msgs.sent", 1);
                m.observe("msg.payload_bytes", metrics::BYTES_BOUNDS, bytes as f64);
            }
            EventKind::L3Flush { occupancy, cap } => {
                m.inc("l3.flushes", 1);
                m.observe(
                    "l3.flush_occupancy_pct",
                    metrics::PCT_BOUNDS,
                    ((occupancy as u64 * 100) / cap.max(1) as u64).min(100) as f64,
                );
            }
            EventKind::BarrierExit { waited_s } => {
                m.observe("barrier.wait_s", metrics::SECONDS_BOUNDS, waited_s);
            }
            EventKind::FlowSend { .. } => m.inc("flow.opened", 1),
            EventKind::FlowRecv { l2_s, drain_s, e2e_s, .. } => {
                m.inc("flow.closed", 1);
                m.observe("flow.e2e_s.normal", metrics::LATENCY_BOUNDS, e2e_s);
                m.observe("flow.stage_s.l2", metrics::LATENCY_BOUNDS, l2_s);
                m.observe("flow.stage_s.drain", metrics::LATENCY_BOUNDS, drain_s);
            }
            _ => {}
        }
    }
    m
}

/// Prints a p50/p95/p99/max table of every `flow.*` latency histogram in
/// the registry (the output of `--metrics` with flow tracing on).
pub(crate) fn print_flow_latencies(m: &MetricsRegistry) {
    let mut rows: Vec<(&str, &metrics::Histogram)> =
        m.histograms().filter(|(n, _)| n.starts_with("flow.")).collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_unstable_by_key(|(n, _)| *n);
    println!("\nflow latency percentiles (sampled flows):");
    println!("{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}", "stage", "flows", "p50", "p95", "p99", "max");
    for (name, h) in rows {
        let q = |p: f64| h.quantile(p).unwrap_or(0.0);
        println!(
            "{:<24} {:>8} {:>11.1}us {:>11.1}us {:>11.1}us {:>11.1}us",
            name,
            h.count(),
            q(0.50) * 1e6,
            q(0.95) * 1e6,
            q(0.99) * 1e6,
            q(1.0) * 1e6,
        );
    }
}

/// Persists a counted table as a 1-of-1 shard file — the serve index
/// builder's wire format, loadable by `Shard::load` or served directly.
fn write_count_shard<W: KmerWord>(
    path: &str,
    counts: &[dakc_kmer::KmerCount<W>],
    k: usize,
    canonical: bool,
) -> Result<(), String> {
    dakc_serve::write_shard(std::path::Path::new(path), counts, k, canonical, 0, 1)
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote shard: {path} ({} records)", counts.len());
    Ok(())
}

fn count(a: CountArgs) -> Result<(), String> {
    let reads = load_reads(&a.input, a.threads).map_err(in_file(&a.input))?;
    let mode = if a.canonical {
        CanonicalMode::Canonical
    } else {
        CanonicalMode::Forward
    };
    let want_trace = a.trace.is_some() || a.metrics.is_some();
    let opts = ThreadedOpts {
        trace: want_trace,
        // Flow tracing defaults to 1-in-64 packets when any telemetry is
        // requested; `--trace-sample 1` opts into full-rate tagging.
        trace_sample: a.trace_sample.or(want_trace.then_some(64)),
        route_batch: a.route_batch.unwrap_or(ThreadedOpts::default().route_batch),
        superkmer: a.superkmer.then(|| a.minimizer_len.unwrap_or(dakc::DEFAULT_MINIMIZER_LEN)),
    };
    let mut out = out_writer(&a.output)?;
    let (written, elapsed, distinct, events) = if a.k <= 32 {
        let run = count_kmers_threaded_opts::<u64>(&reads, a.k, mode, a.threads, a.l3, &opts);
        if let Some(path) = &a.output_shard {
            write_count_shard(path, &run.counts, a.k, a.canonical)?;
        }
        (
            write_counts(&mut *out, &run.counts, a.k, a.min_count)?,
            run.elapsed,
            run.counts.len(),
            run.trace,
        )
    } else {
        let run = count_kmers_threaded_opts::<u128>(&reads, a.k, mode, a.threads, a.l3, &opts);
        if let Some(path) = &a.output_shard {
            write_count_shard(path, &run.counts, a.k, a.canonical)?;
        }
        (
            write_counts(&mut *out, &run.counts, a.k, a.min_count)?,
            run.elapsed,
            run.counts.len(),
            run.trace,
        )
    };
    out.flush().map_err(|e| e.to_string())?;
    let events = events.unwrap_or_default();
    if let Some(path) = &a.trace {
        // All worker threads share one shared-memory node.
        write_artifact(path, &chrome_trace(&events, a.threads.max(1)))?;
        eprintln!("wrote trace: {path} ({} events)", events.len());
    }
    if let Some(path) = &a.metrics {
        let mut m = metrics_from_events(&events);
        m.inc("run.reads", reads.len() as u64);
        m.inc("run.distinct_kmers", distinct as u64);
        write_artifact(path, &m.to_json())?;
        eprintln!("wrote metrics: {path}");
        print_flow_latencies(&m);
    }
    eprintln!(
        "counted {} reads: {distinct} distinct k-mers ({written} ≥ count {}) in {elapsed:?} on {} threads",
        reads.len(),
        a.min_count,
        a.threads
    );
    Ok(())
}

/// The distributed-engine config for a launch/worker invocation. Every
/// rank of a job must derive the identical config, so both paths funnel
/// through here.
fn net_config(a: &LaunchArgs) -> DakcConfig {
    let mut cfg = DakcConfig::scaled_defaults(a.k);
    cfg.canonical = if a.canonical {
        CanonicalMode::Canonical
    } else {
        CanonicalMode::Forward
    };
    if let Some(c3) = a.l3 {
        cfg = cfg.with_l3();
        cfg.c3 = c3;
    }
    // Flow tracing defaults to 1-in-64 packets when `--trace` is on.
    // Derived from forwarded flags only, so every rank lands on the same
    // sampling rate — flow sidecars are part of the wire format.
    if let Some(n) = a.trace_sample.or(a.trace.is_some().then_some(64)) {
        cfg = cfg.with_trace_sample(n);
    }
    if a.superkmer {
        cfg = cfg.with_superkmer(a.minimizer_len.unwrap_or(dakc::DEFAULT_MINIMIZER_LEN));
    }
    cfg
}

/// Network deadlines/retry budget for a launch/worker invocation,
/// derived from `--net-timeout` / `--net-retries`.
fn net_tuning(a: &LaunchArgs) -> NetTuning {
    let mut t = NetTuning::default();
    if let Some(d) = a.net_timeout {
        t = t.with_timeout(d);
    }
    if let Some(r) = a.net_retries {
        t = t.with_retries(r);
    }
    t
}

/// Writes rank 0's merged result: counts TSV, optional metrics JSON, and
/// a run summary on stderr.
fn emit_net_run<W: KmerWord>(run: &NetRun<W>, a: &LaunchArgs) -> Result<(), String> {
    let mut out = out_writer(&a.output)?;
    let written = write_counts(&mut *out, &run.counts, a.k, a.min_count)?;
    out.flush().map_err(|e| e.to_string())?;
    if let Some(path) = &a.trace {
        // `pes_per_node = 1` maps each rank to its own process track:
        // pid = rank, all on rank 0's clock after alignment. The gathered
        // per-peer transport counters ride along as trace metadata, so
        // `dakc analyze` gets the exact P×P traffic matrix (every frame,
        // not just sampled flows) from the trace file alone.
        let matrix = CommMatrix::from_metrics(&run.metrics);
        let meta = (!matrix.is_empty()).then(|| matrix.to_dakc_meta());
        write_artifact(path, &chrome_trace_with(&run.trace, 1, meta.as_deref()))?;
        eprintln!("wrote trace: {path} ({} events, {} ranks merged)", run.trace.len(), run.ranks);
    }
    if let Some(path) = &a.metrics {
        write_artifact(path, &run.metrics.to_json())?;
        eprintln!("wrote metrics: {path}");
        print_net_rank_table(&run.metrics, run.ranks);
    }
    eprintln!(
        "launch: {} distinct k-mers ({written} ≥ count {}) on {} ranks in {:.3} s",
        run.counts.len(),
        a.min_count,
        run.ranks,
        run.elapsed_s
    );
    Ok(())
}

fn launch_loopback<W: KmerWord + RadixKey + Send>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    a: &LaunchArgs,
) -> Result<(), String> {
    let opts = RunOpts { tuning: net_tuning(a), trace: a.trace.is_some(), ..RunOpts::default() };
    let run = count_kmers_loopback_opts::<W>(reads, cfg, a.ranks, &opts)
        .map_err(|e| format!("loopback: {e}"))?;
    emit_net_run(&run, a)
}

/// Prints the per-rank transport counters gathered on rank 0 — one row
/// per rank, so a hot spot (one rank retrying or stalling) stands out
/// where the merged `net.*` sums would average it away.
fn print_net_rank_table(m: &MetricsRegistry, ranks: usize) {
    let cols = ["frames_sent", "frames_recv", "bytes_sent", "bytes_recv", "send_stalls", "retries"];
    if (0..ranks).all(|r| m.counter(&format!("net.rank{r}.frames_sent")) == 0) {
        return;
    }
    eprintln!("\nper-rank transport counters:");
    eprint!("{:<6}", "rank");
    for c in cols {
        eprint!(" {c:>12}");
    }
    eprintln!();
    for r in 0..ranks {
        eprint!("{r:<6}");
        for c in cols {
            eprint!(" {:>12}", m.counter(&format!("net.rank{r}.{c}")));
        }
        let faults = m.counter(&format!("net.rank{r}.injected_faults"));
        if faults > 0 {
            eprint!("  ({faults} injected faults)");
        }
        eprintln!();
    }
}

/// Removes the file-rendezvous directory on drop, so every exit from
/// `launch` — spawn failure, supervisor teardown, clean finish — leaves
/// no stale `rank*.addr` files behind.
pub(crate) struct DirGuard(pub(crate) std::path::PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills and reaps every still-running worker.
pub(crate) fn teardown(children: &mut [Option<std::process::Child>]) {
    for child in children.iter_mut().flatten() {
        let _ = child.kill();
    }
    for slot in children.iter_mut() {
        if let Some(mut child) = slot.take() {
            let _ = child.wait();
        }
    }
}

/// Watches spawned workers until all exit cleanly, tearing the mesh down
/// on the first failure. Two failure signals feed the verdict: a nonzero
/// exit (a rank crashed or surfaced a net error), and a heartbeat going
/// stale while the rank's process still runs (hung or frozen — the peers
/// may not notice until their own collective deadline, so the launcher
/// acts first). On failure every surviving worker is killed, the per-rank
/// health report is printed, and the error names the blamed rank.
/// One frame of the live `--status` table: per-rank phase, traffic
/// counters, and heartbeat age from the supervisor's health table.
fn status_table(sup: &Supervisor, launched: Instant) -> String {
    let mut out = format!(
        "{:<6} {:<8} {:>12} {:>12} {:>9} {:>9}\n",
        "rank", "phase", "sent", "recv", "retries", "beat"
    );
    for (rank, h) in sup.snapshot().into_iter().enumerate() {
        let age = h.last_beat.map_or_else(|| launched.elapsed(), |t| t.elapsed());
        let (phase, sent, recv, retries) = match h.last {
            Some(b) => (b.phase.name(), b.frames_sent, b.frames_recv, b.retries),
            None => ("-", 0, 0, 0),
        };
        out.push_str(&format!(
            "{rank:<6} {phase:<8} {sent:>12} {recv:>12} {retries:>9} {:>8.1}s\n",
            age.as_secs_f64()
        ));
    }
    out
}

/// Respawn policy of a `--recover` launch: how to rebuild a dead rank's
/// worker process, and how many times the launcher may do so before it
/// gives up and tears the job down like a plain launch.
pub(crate) struct RespawnPolicy<'a> {
    /// Rendezvous directory; the `Recover` control frame is broadcast to
    /// the surviving ranks' listeners registered here.
    pub dir: std::path::PathBuf,
    /// Total rank count of the job.
    pub ranks: usize,
    /// Total respawns allowed across all ranks (default 3).
    pub budget: u32,
    /// Backoff schedule between a verdict and its respawn.
    pub tuning: NetTuning,
    /// Spawns a replacement worker for `(rank, incarnation)`.
    #[allow(clippy::type_complexity)]
    pub spawn: Box<dyn Fn(usize, u32) -> std::io::Result<std::process::Child> + 'a>,
}

/// One respawn: kill whatever is left of the rank's old process, clear
/// its recorded exit and obituary, broadcast `Recover{rank, epoch}` to
/// the survivors, back off briefly, then spawn the replacement with the
/// new incarnation. Broadcasting before spawning matters: survivors must
/// refresh their pending-death deadlines (and learn the epoch) before
/// the replacement starts dialing them.
fn respawn_rank(
    rank: usize,
    sup: &mut Supervisor,
    children: &mut [Option<std::process::Child>],
    exits: &mut Vec<(usize, std::process::ExitStatus)>,
    incarnations: &mut [u32],
    respawns_used: &mut u32,
    pol: &RespawnPolicy<'_>,
) -> Result<(), String> {
    if let Some(mut child) = children[rank].take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    exits.retain(|&(r, _)| r != rank);
    incarnations[rank] += 1;
    let inc = incarnations[rank];
    *respawns_used += 1;
    sup.expect_respawn(rank, inc);
    let notified = dakc_net::announce_recovery(&pol.dir, pol.ranks, rank, inc);
    eprintln!(
        "recover: rank {rank} down; notified {notified} peer(s), respawning as \
         incarnation {inc} (respawn {respawns_used}/{})",
        pol.budget
    );
    std::thread::sleep(pol.tuning.backoff(inc, rank as u64));
    match (pol.spawn)(rank, inc) {
        Ok(child) => {
            children[rank] = Some(child);
            Ok(())
        }
        Err(e) => {
            teardown(children);
            Err(format!("recover: respawn rank {rank}: {e}"))
        }
    }
}

pub(crate) fn supervise(
    sup: &mut Supervisor,
    children: &mut [Option<std::process::Child>],
    tuning: &NetTuning,
    launched: Instant,
    status: Option<Duration>,
    respawn: Option<RespawnPolicy<'_>>,
) -> Result<(), String> {
    // Fire before the workers' own collective deadline so a frozen rank
    // is blamed by name rather than as a generic peer timeout; floor
    // covers spawn + rendezvous before the first heartbeat lands.
    let stale_limit = (tuning.collective_timeout / 2).max(Duration::from_millis(1500));
    let mut exits: Vec<(usize, std::process::ExitStatus)> = Vec::new();
    let mut incarnations = vec![0u32; children.len()];
    let mut respawns_used = 0u32;
    // Live status: redraw in place on a terminal (cursor-up + clear),
    // append plain frames when stderr is piped to a file.
    let redraw_in_place = status.is_some() && std::io::stderr().is_terminal();
    let mut status_lines = 0usize;
    let mut next_status = Instant::now();
    loop {
        if let Some(period) = status {
            if Instant::now() >= next_status {
                let table = status_table(sup, launched);
                let mut err = std::io::stderr().lock();
                if redraw_in_place && status_lines > 0 {
                    let _ = write!(err, "\x1b[{status_lines}A\x1b[0J");
                }
                let _ = write!(err, "{table}");
                let _ = err.flush();
                status_lines = table.lines().count();
                next_status = Instant::now() + period;
            }
        }
        for (rank, slot) in children.iter_mut().enumerate() {
            if let Some(child) = slot {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        exits.push((rank, status));
                        *slot = None;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        teardown(children);
                        return Err(format!("launch failed: wait rank {rank}: {e}"));
                    }
                }
            }
        }
        let failed: Vec<usize> =
            exits.iter().filter(|(_, s)| !s.success()).map(|&(r, _)| r).collect();
        if !failed.is_empty() {
            // Failing workers file obituaries naming the rank their typed
            // error points at; give in-flight ones a moment to land, then
            // let the majority verdict pick the root cause out of the
            // cascade (every victim of a dead rank blames that rank, not
            // itself). Fallback when no obituary blames anyone: the
            // failed rank that stopped heartbeating first — peers keep
            // beating right up to their own exit.
            std::thread::sleep(Duration::from_millis(150));
            let snap = sup.snapshot();
            let rank = sup.blamed().unwrap_or_else(|| {
                failed
                    .iter()
                    .copied()
                    .min_by_key(|&r| snap.get(r).and_then(|h| h.last_beat))
                    .expect("nonempty failures")
            });
            if let Some(pol) = &respawn {
                // Every implicated rank is rebuilt this round: the blamed
                // root cause (which may still be running if only its
                // victims have exited so far) plus every rank that exited
                // nonzero. Respawning clears each rank's obituary, so the
                // next verdict is computed from fresh evidence only.
                let mut todo = failed.clone();
                if !todo.contains(&rank) {
                    todo.push(rank);
                }
                todo.sort_unstable();
                todo.dedup();
                if respawns_used + todo.len() as u32 <= pol.budget {
                    for r in todo {
                        respawn_rank(
                            r,
                            sup,
                            children,
                            &mut exits,
                            &mut incarnations,
                            &mut respawns_used,
                            pol,
                        )?;
                    }
                    continue;
                }
                eprintln!("recover: respawn budget ({}) exhausted", pol.budget);
            }
            teardown(children);
            let verdict = match exits.iter().find(|&&(r, _)| r == rank) {
                Some(&(_, status)) => format!("rank {rank} failed with {status}"),
                None => format!("rank {rank} took down {} peer(s)", failed.len()),
            };
            eprint!("{}", sup.report(stale_limit));
            return Err(format!("launch failed: {verdict}"));
        }
        if children.iter().all(Option::is_none) {
            return Ok(());
        }
        let stale = sup.snapshot().into_iter().enumerate().find_map(|(rank, h)| {
            // Ranks that already exited cleanly are allowed to go quiet.
            if children.get(rank).is_none_or(Option::is_none) {
                return None;
            }
            let age = h.last_beat.map_or_else(|| launched.elapsed(), |t| t.elapsed());
            (age > stale_limit).then_some((rank, age))
        });
        if let Some((rank, age)) = stale {
            if let Some(pol) = &respawn {
                // A hung rank is as dead as a crashed one: kill what is
                // left of it and rebuild, budget permitting.
                if respawns_used < pol.budget {
                    respawn_rank(
                        rank,
                        sup,
                        children,
                        &mut exits,
                        &mut incarnations,
                        &mut respawns_used,
                        pol,
                    )?;
                    continue;
                }
                eprintln!("recover: respawn budget ({}) exhausted", pol.budget);
            }
            teardown(children);
            eprint!("{}", sup.report(stale_limit));
            return Err(format!(
                "launch failed: rank {rank} stopped heartbeating ({:.1} s since last beat)",
                age.as_secs_f64()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn launch(a: LaunchArgs) -> Result<(), String> {
    match a.backend {
        NetBackend::Loopback => {
            let reads = load_reads(&a.input, a.ranks).map_err(in_file(&a.input))?;
            let cfg = net_config(&a);
            if a.k <= 32 {
                launch_loopback::<u64>(&reads, &cfg, &a)
            } else {
                launch_loopback::<u128>(&reads, &cfg, &a)
            }
        }
        NetBackend::Tcp => {
            // Fail on an unreadable input before spawning N processes; each
            // rank parses its own slice, the launcher none of it.
            dakc_io::sniff(Path::new(&a.input)).map_err(in_file(&a.input))?;
            let tuning = net_tuning(&a);
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let dir = std::env::temp_dir().join(format!("dakc-rendezvous-{}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let _guard = DirGuard(dir.clone());
            let (mut sup, sup_addr) =
                Supervisor::bind(a.ranks).map_err(|e| format!("supervisor: {e}"))?;
            let launched = Instant::now();
            let mut children: Vec<Option<std::process::Child>> = Vec::new();
            // One builder serves both the initial spawns (epoch 0) and any
            // `--recover` respawns (epoch = incarnation), so a replacement
            // rank runs under exactly the flags its predecessor had.
            let mk_cmd = |rank: usize, epoch: u32| {
                let mut cmd = std::process::Command::new(&exe);
                cmd.arg("worker")
                    .arg(&a.input)
                    .args(["--rank", &rank.to_string()])
                    .args(["--ranks", &a.ranks.to_string()])
                    .args(["--rendezvous", &dir.to_string_lossy()])
                    .args(["--supervisor", &sup_addr.to_string()])
                    .args(["-k", &a.k.to_string()])
                    .args(["--min-count", &a.min_count.to_string()]);
                if a.recover {
                    cmd.arg("--recover").args(["--epoch", &epoch.to_string()]);
                }
                if a.canonical {
                    cmd.arg("--canonical");
                }
                if let Some(c3) = a.l3 {
                    cmd.args(["--l3", &c3.to_string()]);
                }
                // Routing keys change under --superkmer, so like tracing
                // it must be collective: every rank gets the same flags.
                if a.superkmer {
                    cmd.arg("--superkmer");
                }
                if let Some(m) = a.minimizer_len {
                    cmd.args(["--minimizer-len", &m.to_string()]);
                }
                if let Some(t) = a.net_timeout {
                    cmd.args(["--net-timeout", &format!("{}ms", t.as_millis().max(1))]);
                }
                if let Some(r) = a.net_retries {
                    cmd.args(["--net-retries", &r.to_string()]);
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
                // Tracing is collective (it changes the wire format and
                // runs the clock-sync exchange), so every rank gets the
                // flags; only rank 0 writes the merged trace file.
                if let Some(t) = &a.trace {
                    cmd.args(["--trace", t]);
                }
                if let Some(n) = a.trace_sample {
                    cmd.args(["--trace-sample", &n.to_string()]);
                }
                // Only rank 0 holds the merged result; it inherits this
                // process's stdout, so `-o` absent still prints here.
                if rank == 0 {
                    if let Some(o) = &a.output {
                        cmd.args(["-o", o]);
                    }
                    if let Some(m) = &a.metrics {
                        cmd.args(["--metrics", m]);
                    }
                }
                cmd
            };
            for rank in 0..a.ranks {
                match mk_cmd(rank, 0).spawn() {
                    Ok(child) => children.push(Some(child)),
                    Err(e) => {
                        teardown(&mut children);
                        return Err(format!("spawn rank {rank}: {e}"));
                    }
                }
            }
            let status = a
                .status
                .then(|| a.status_interval.unwrap_or(Duration::from_millis(500)));
            let respawn = a.recover.then(|| RespawnPolicy {
                dir: dir.clone(),
                ranks: a.ranks,
                budget: a.max_respawns.unwrap_or(3),
                tuning: tuning.clone(),
                spawn: Box::new(|rank, inc| mk_cmd(rank, inc).spawn()),
            });
            supervise(&mut sup, &mut children, &tuning, launched, status, respawn)
        }
    }
}

fn worker(w: WorkerArgs) -> Result<(), String> {
    let a = &w.job;
    let rank = w.rank;
    let tuning = net_tuning(a);
    // Heartbeat channel back to the launch supervisor. The mute flag is
    // shared with chaos `freeze` injection: a frozen rank goes silent,
    // which is exactly the hang signature the supervisor must catch.
    let mute = Arc::new(AtomicBool::new(false));
    let monitor = Arc::new(HeartbeatState::new());
    // Respawned workers beat under their own incarnation so the
    // supervisor can tell the replacement's heartbeats (and obituaries)
    // from the dead predecessor's.
    monitor.set_incarnation(w.epoch);
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
                    a.heartbeat_interval.unwrap_or(Duration::from_millis(100)),
                    Arc::clone(&mute),
                )
                .map_err(|e| format!("rank {rank}: supervisor dial: {e}"))?,
            )
        }
        None => None,
    };
    let cfg = net_config(a);
    // On an error, file an obituary with the supervisor before exiting:
    // the typed error names the rank at fault (ourselves for an injected
    // death or a malformed input slice, the peer for a disconnect), and
    // the launcher tallies those verdicts to blame the root cause rather
    // than the first victim.
    let epoch = w.epoch;
    let obituary = move |blame: Option<usize>| {
        if let Some(addr) = sup_addr {
            let _ = dakc_net::send_obituary_inc(addr, rank, blame, epoch);
        }
    };
    let fail = move |e: dakc_net::NetError| {
        obituary(e.rank());
        format!("rank {rank}: {e}")
    };
    let reads = load_rank_slice(&a.input, rank, a.ranks, obituary)?;
    // Under `--recover` the transport keeps its listener after the mesh
    // is up, tags control frames with this incarnation, and survives
    // peer death; without it the plain rendezvous keeps PR-compatible
    // wire bytes.
    let transport = if a.recover {
        TcpTransport::rendezvous_recover(
            rank,
            a.ranks,
            std::path::Path::new(&w.rendezvous),
            cfg.c0_bytes,
            tuning.clone(),
            w.epoch,
        )
    } else {
        TcpTransport::rendezvous_tuned(
            rank,
            a.ranks,
            std::path::Path::new(&w.rendezvous),
            cfg.c0_bytes,
            tuning.clone(),
        )
    }
    .map_err(fail)?;
    // Chaos wrapping is unconditional: with no profile the config is off
    // and the wrapper is pure delegation (verified bit-identical in
    // tests), so real runs pay nothing for the capability. Scripted
    // faults are epoch-gated: a respawned rank must not re-run the death
    // that killed its previous life.
    let chaos = match &a.chaos_profile {
        Some(p) => ChaosConfig::parse_for_epoch(p, a.chaos_seed.unwrap_or(0), rank, w.epoch)
            .map_err(|e| format!("rank {rank}: --chaos-profile: {e}"))?,
        None => ChaosConfig::off(),
    };
    let transport = ChaosTransport::new(transport, chaos).with_freeze_flag(Arc::clone(&mute));
    let opts = RunOpts {
        tuning,
        monitor: Some(Arc::clone(&monitor)),
        trace: a.trace.is_some(),
        recover: a.recover,
    };
    let mine = 0..reads.len();
    if a.k <= 32 {
        if let Some(run) =
            run_rank_on::<u64, _>(&reads, mine, &cfg, transport, &opts).map_err(fail)?
        {
            emit_net_run(&run, a)?;
        }
    } else if let Some(run) =
        run_rank_on::<u128, _>(&reads, mine, &cfg, transport, &opts).map_err(fail)?
    {
        emit_net_run(&run, a)?;
    }
    Ok(())
}

fn generate(a: GenerateArgs) -> Result<(), String> {
    let spec = dakc_io::table_v()
        .into_iter()
        .find(|d| d.name == a.dataset)
        .ok_or_else(|| format!("unknown dataset {:?}; see `dakc help`", a.dataset))?;
    let scaled = spec.scaled(a.scale_shift);
    let reads = scaled.generate(a.seed);
    let records: Vec<fastx::FastxRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, seq)| fastx::FastxRecord {
            id: format!("{}.{i}", spec.name.replace(' ', "_")),
            seq: seq.to_vec(),
            qual: Some(vec![b'I'; seq.len()]),
        })
        .collect();
    let mut out = out_writer(&a.output)?;
    fastx::write_fastq(&mut *out, &records).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "generated {} reads x {} bp of {} (scale 2^-{}), seed {}",
        reads.len(),
        spec.read_len,
        spec.name,
        a.scale_shift,
        a.seed
    );
    Ok(())
}

fn spectrum(a: SpectrumArgs) -> Result<(), String> {
    let f = File::open(&a.input).map_err(|e| format!("{}: {e}", a.input))?;
    let mut spectrum = vec![0u64; a.max + 2];
    let mut total = 0u64;
    for (ln, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.is_empty() {
            continue;
        }
        let count: u64 = line
            .rsplit('\t')
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{}:{}: malformed TSV line", a.input, ln + 1))?;
        let idx = (count as usize).min(a.max + 1);
        spectrum[idx] += 1;
        total += 1;
    }
    println!("count\tdistinct_kmers");
    for (c, &n) in spectrum.iter().enumerate().skip(1) {
        if n > 0 {
            let label = if c == a.max + 1 {
                format!(">{}", a.max)
            } else {
                c.to_string()
            };
            println!("{label}\t{n}");
        }
    }
    eprintln!("{total} distinct k-mers total");
    Ok(())
}

fn simulate(a: SimulateArgs) -> Result<(), String> {
    let reads = load_reads(&a.input, 1).map_err(in_file(&a.input))?;
    let mut machine = MachineConfig::phoenix_intel(a.nodes);
    machine.pes_per_node = a.ppn;
    let mut cfg = DakcConfig::scaled_defaults(a.k);
    cfg.protocol = a.protocol;
    if a.l3 {
        cfg = cfg.with_l3();
    }
    // Flow tracing defaults to 1-in-64 packets when any telemetry is
    // requested; `--trace-sample 1` opts into full-rate tagging.
    let want_telemetry = a.trace.is_some() || a.metrics.is_some();
    if let Some(n) = a.trace_sample.or(want_telemetry.then_some(64)) {
        cfg = cfg.with_trace_sample(n);
    }
    if a.superkmer {
        cfg = cfg.with_superkmer(a.minimizer_len.unwrap_or(dakc::DEFAULT_MINIMIZER_LEN));
    }
    let mut sink = if a.trace.is_some() {
        TraceSink::ring_default()
    } else {
        TraceSink::Off
    };
    let run = count_kmers_sim_traced::<u64>(&reads, &cfg, &machine, &mut sink)
        .map_err(|e| e.to_string())?;
    if let Some(path) = &a.trace {
        let events = sink.events();
        write_artifact(path, &chrome_trace(&events, a.ppn))?;
        eprintln!(
            "wrote trace: {path} ({} events, {} dropped)",
            events.len(),
            sink.dropped()
        );
    }
    if let Some(path) = &a.metrics {
        write_artifact(path, &run.report.metrics.to_json())?;
        eprintln!("wrote metrics: {path}");
        print_flow_latencies(&run.report.metrics);
    }
    let r = &run.report;
    println!("machine          : {} nodes x {} PEs ({:?} conveyors)", a.nodes, a.ppn, a.protocol);
    println!("virtual time     : {:.6} s", r.total_time);
    println!(
        "phase times      : parse+reshuffle {:.6} s, sort+accumulate {:.6} s",
        r.phase_time.first().copied().unwrap_or(0.0),
        r.phase_time.get(1).copied().unwrap_or(0.0)
    );
    println!("global barriers  : {}", r.barriers_completed);
    println!(
        "traffic          : {} remote B, {} local B, {} messages",
        r.remote_bytes(),
        r.local_bytes(),
        r.total_msgs()
    );
    println!("peak node memory : {} B", r.peak_node_memory());
    println!("load imbalance   : {:.3}", run.load_imbalance());
    println!("distinct k-mers  : {}", run.counts.len());
    let [c, i, e] = r.busy_percentages();
    println!("busy-time split  : {c:.1}% compute, {i:.1}% intranode, {e:.1}% internode");
    if a.timeline {
        let t = Timeline::new(r);
        println!("\n{}", t.render());
        println!("{}", t.summary());
    }
    Ok(())
}

fn model(a: ModelArgs) -> Result<(), String> {
    let spec = dakc_io::table_v()
        .into_iter()
        .find(|d| d.name == a.dataset)
        .ok_or_else(|| format!("unknown dataset {:?}", a.dataset))?;
    let w = Workload {
        n_reads: spec.paper_reads,
        read_len: spec.read_len as u64,
        k: 31,
    };
    let m = Model::new(MachineConfig::phoenix_intel(a.nodes), w);
    println!("analytical model for {} on {} Phoenix nodes (paper scale):", spec.name, a.nodes);
    println!("  phase 1 compute    : {:.3} s", m.t_comp1());
    println!("  phase 1 intranode  : {:.3} s", m.t_intra1());
    println!("  phase 1 internode  : {:.3} s", m.t_inter1());
    println!("  phase 2 compute    : {:.3} s", m.t_comp2());
    println!("  phase 2 intranode  : {:.3} s", m.t_intra2());
    println!("  total (Sum model)  : {:.3} s", m.t_total(CommModel::Sum));
    println!("  total (Max model)  : {:.3} s", m.t_total(CommModel::Max));
    let [c, i, e] = m.breakdown_percent();
    println!("  breakdown          : {c:.1}% compute, {i:.1}% intranode, {e:.1}% internode");
    Ok(())
}

fn compare(a: CompareArgs) -> Result<(), String> {
    use dakc_baselines::{count_kmers_bsp_sim, count_kmers_hash_sim, BspConfig, HashKcConfig};
    let reads = load_reads(&a.input, 1).map_err(in_file(&a.input))?;
    let mut machine = MachineConfig::phoenix_intel(a.nodes);
    machine.pes_per_node = a.ppn;
    println!(
        "comparing counters on {} reads, k = {}, {} nodes x {} PEs (virtual time):\n",
        reads.len(),
        a.k,
        a.nodes,
        a.ppn
    );
    let dakc_run = count_kmers_sim::<u64>(&reads, &DakcConfig::scaled_defaults(a.k), &machine)
        .map_err(|e| e.to_string())?;
    let base = dakc_run.report.total_time;
    let mut rows: Vec<(&str, f64, u64)> = vec![(
        "DAKC (FA-BSP)",
        base,
        dakc_run.report.barriers_completed,
    )];
    let pakman = count_kmers_bsp_sim::<u64>(&reads, &BspConfig::pakman_star(a.k), &machine)
        .map_err(|e| e.to_string())?;
    assert_eq!(pakman.counts, dakc_run.counts, "engines disagree");
    rows.push(("PakMan* (BSP blocking)", pakman.report.total_time, pakman.report.barriers_completed));
    let hysortk = count_kmers_bsp_sim::<u64>(&reads, &BspConfig::hysortk(a.k), &machine)
        .map_err(|e| e.to_string())?;
    rows.push(("HySortK-like (BSP non-blocking)", hysortk.report.total_time, hysortk.report.barriers_completed));
    let hash = count_kmers_hash_sim::<u64>(&reads, &HashKcConfig::defaults(a.k), &machine)
        .map_err(|e| e.to_string())?;
    assert_eq!(hash.counts, dakc_run.counts, "engines disagree");
    rows.push(("kmerind-like (hash table)", hash.report.total_time, hash.report.barriers_completed));
    println!("{:<32} {:>12} {:>10} {:>9}", "counter", "time", "vs DAKC", "barriers");
    for (name, t, b) in rows {
        println!("{name:<32} {:>10.3}ms {:>9.2}x {b:>9}", t * 1e3, t / base);
    }
    println!("\ndistinct k-mers: {}", dakc_run.counts.len());
    Ok(())
}

/// `dakc analyze`: post-run trace analytics (critical path, overlap,
/// comm matrix) or, with `--diff`, a regression explanation between two
/// analysis artifacts.
fn analyze(a: AnalyzeArgs) -> Result<(), String> {
    if a.diff {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let (report, regressed) =
            dakc_analyze::diff_bodies(&read(&a.inputs[0])?, &read(&a.inputs[1])?, a.threshold)?;
        print!("{report}");
        return if regressed {
            Err(format!("analyze: regressions above {:.2}x", a.threshold))
        } else {
            Ok(())
        };
    }
    let mut artifact_written = false;
    for path in &a.inputs {
        if a.inputs.len() > 1 {
            println!("== {path}");
        }
        match dakc_analyze::load(std::path::Path::new(path))? {
            Input::Trace(trace) => {
                let analysis = dakc_analyze::analyze(&trace);
                print!("{}", analysis.render());
                // The first trace's analysis becomes the run artifact,
                // diffable later with `analyze --diff`.
                if !artifact_written {
                    let art = analysis.artifact();
                    match &a.out {
                        Some(out) => {
                            write_artifact(out, &art.to_json())?;
                            eprintln!("wrote analysis artifact: {out}");
                        }
                        None => art.write_or_warn(),
                    }
                    artifact_written = true;
                }
            }
            Input::Metrics(m) => {
                let matrix = CommMatrix::from_metrics(&m);
                if matrix.is_empty() {
                    println!("metrics: no per-peer transport counters");
                } else {
                    println!("comm matrix ({} ranks):", matrix.n);
                    print!("{}", matrix.render());
                }
                let spans = m.counter("net.superkmer.spans");
                if spans > 0 {
                    let wire = m.counter("net.superkmer.bytes_sent");
                    let saved = m.counter("net.superkmer.bases_saved");
                    println!(
                        "super-k-mer compression: {spans} spans, {wire} span B on wire, {saved} bases saved vs per-k-mer words"
                    );
                }
                let lookups = m.counter("serve.lookups");
                if lookups > 0 {
                    println!(
                        "query service: {lookups} lookup(s) in {} batch(es), {} server(s) lost",
                        m.counter("serve.batches"),
                        m.counter("serve.servers_lost"),
                    );
                }
                print_flow_latencies(&m);
                // A metrics dump exports as an analyze artifact too, so a
                // --superkmer run and a baseline run diff with --diff.
                if !artifact_written {
                    let art = dakc_analyze::metrics_artifact(&m);
                    match &a.out {
                        Some(out) => {
                            write_artifact(out, &art.to_json())?;
                            eprintln!("wrote analysis artifact: {out}");
                        }
                        None => art.write_or_warn(),
                    }
                    artifact_written = true;
                }
            }
            Input::Artifact { harness, doc, .. } => {
                let rows = doc
                    .get("rows")
                    .and_then(|r| r.as_arr())
                    .map(<[_]>::len)
                    .unwrap_or(0);
                println!("bench artifact: harness {harness:?}, {rows} row(s), schema ok");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("dakc-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_count_round_trip() {
        let fq = tmp("g.fastq");
        let tsv = tmp("g.tsv");
        dispatch(
            parse_args(
                ["dakc", "generate", "--dataset", "Synthetic 20", "--scale-shift", "16", "-o", &fq]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        dispatch(
            parse_args(
                ["dakc", "count", &fq, "-k", "21", "--threads", "2", "-o", &tsv]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        let body = std::fs::read_to_string(&tsv).unwrap();
        assert!(!body.is_empty());
        let (kmer, count) = body.lines().next().unwrap().split_once('\t').unwrap();
        assert_eq!(kmer.len(), 21);
        assert!(count.parse::<u32>().unwrap() >= 1);
        // Lines sorted by k-mer.
        let keys: Vec<&str> = body.lines().map(|l| l.split('\t').next().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn count_large_k_uses_u128() {
        let fq = tmp("big.fastq");
        std::fs::write(&fq, "@r\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n").unwrap();
        let tsv = tmp("big.tsv");
        dispatch(
            parse_args(
                ["dakc", "count", &fq, "-k", "40", "-o", &tsv]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        let body = std::fs::read_to_string(&tsv).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(body.starts_with("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\t1"));
    }

    #[test]
    fn spectrum_of_counts() {
        let tsv = tmp("s.tsv");
        std::fs::write(&tsv, "AAA\t1\nAAC\t1\nAAG\t5\n").unwrap();
        dispatch(Command::Spectrum(crate::args::SpectrumArgs { input: tsv, max: 10 })).unwrap();
    }

    #[test]
    fn load_reads_sniffs_fasta_and_fastq() {
        let fa = tmp("x.fasta");
        std::fs::write(&fa, ">a\nACGT\n").unwrap();
        assert_eq!(load_reads(&fa, 1).unwrap().len(), 1);
        let fq = tmp("x.fastq");
        std::fs::write(&fq, "@a\nACGT\n+\nIIII\n").unwrap();
        assert_eq!(load_reads(&fq, 2).unwrap().len(), 1);
        let bad = tmp("x.bin");
        std::fs::write(&bad, "garbage").unwrap();
        assert!(matches!(load_reads(&bad, 1), Err(FastxError::Format { offset: 0, .. })));
    }

    #[test]
    fn min_count_filters() {
        let counts = vec![
            dakc_kmer::KmerCount::new(0u64, 1),
            dakc_kmer::KmerCount::new(1u64, 3),
        ];
        let mut buf = Vec::new();
        let written = write_counts(&mut buf, &counts, 3, 2).unwrap();
        assert_eq!(written, 1);
        assert_eq!(String::from_utf8(buf).unwrap(), "AAC\t3\n");
    }

    #[test]
    fn write_counts_is_the_fmt_line_and_surfaces_write_errors() {
        fn check<W: KmerWord>(k: usize) {
            let counts: Vec<dakc_kmer::KmerCount<W>> = [1u32, 9, 10, u32::MAX]
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let bits = 0x1BE4_27D8_936C_B14E_1BE4_27D8_936C_B14Eu128 >> i;
                    dakc_kmer::KmerCount::new(W::from_u128(bits & u128::mask(k)), c)
                })
                .collect();
            for min_count in [1u32, 10] {
                let mut buf = Vec::new();
                let written = write_counts(&mut buf, &counts, k, min_count).unwrap();
                let want: String = counts
                    .iter()
                    .filter(|c| c.count >= min_count)
                    .map(|c| format!("{}\t{}\n", c.kmer.to_dna_string(k), c.count))
                    .collect();
                assert_eq!(String::from_utf8(buf).unwrap(), want, "k={k} min={min_count}");
                assert_eq!(written as usize, want.lines().count());
            }
        }
        [1, 4, 15, 31, 32].into_iter().for_each(check::<u64>);
        [33, 63, 64].into_iter().for_each(check::<u128>);

        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let one = [dakc_kmer::KmerCount::new(5u64, 1)];
        assert!(write_counts(&mut Full, &one, 3, 1).unwrap_err().contains("disk full"));
    }

    #[test]
    fn compare_command_runs() {
        let fq = tmp("cmp.fastq");
        std::fs::write(
            &fq,
            "@r\nACGTACGTACGGTTACAGGACCATGGACCAGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
        )
        .unwrap();
        dispatch(Command::Compare(crate::args::CompareArgs {
            input: fq,
            k: 11,
            nodes: 2,
            ppn: 2,
        }))
        .unwrap();
    }

    #[test]
    fn count_writes_trace_and_metrics_artifacts() {
        use dakc_sim::telemetry::json;
        let fq = tmp("obs.fastq");
        std::fs::write(
            &fq,
            "@r\nACGTACGTACGGTTACAGGACCATGGACCAGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
        )
        .unwrap();
        let trace = tmp("obs_trace.json");
        let metrics = tmp("obs_metrics.json");
        let tsv = tmp("obs.tsv");
        dispatch(
            parse_args(
                ["dakc", "count", &fq, "-k", "11", "--threads", "2", "-o", &tsv,
                 "--trace", &trace, "--metrics", &metrics]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        let t = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = t.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata + at least one real event per worker thread.
        assert!(events.len() > 2, "{} events", events.len());
        let m = json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(
            m.get("counters").and_then(|c| c.get("run.reads")).and_then(|v| v.as_f64())
                == Some(1.0)
        );
        assert!(m.get("histograms").and_then(|h| h.get("msg.payload_bytes")).is_some());
    }

    #[test]
    fn simulate_writes_trace_metrics_and_timeline() {
        use dakc_sim::telemetry::json;
        let fq = tmp("sim_obs.fastq");
        std::fs::write(
            &fq,
            "@r\nACGTACGTACGGTTACAGGACCATGGACCAGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
        )
        .unwrap();
        let trace = tmp("sim_trace.json");
        let metrics = tmp("sim_metrics.json");
        dispatch(
            parse_args(
                ["dakc", "simulate", &fq, "-k", "11", "--nodes", "2", "--ppn", "2",
                 "--trace", &trace, "--metrics", &metrics, "--timeline"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        let t = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!t.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        let m = json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(m.get("histograms").and_then(|h| h.get("barrier.wait_s")).is_some());
    }

    #[test]
    fn analyze_sim_trace_writes_diffable_artifact() {
        let fq = tmp("an_obs.fastq");
        std::fs::write(
            &fq,
            "@r\nACGTACGTACGGTTACAGGACCATGGACCAGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
        )
        .unwrap();
        let trace = tmp("an_trace.json");
        let run = |args: &[&str]| {
            dispatch(parse_args(args.iter().map(|s| s.to_string()).collect()).unwrap()).unwrap()
        };
        run(&["dakc", "simulate", &fq, "-k", "11", "--nodes", "2", "--ppn", "2",
              "--trace", &trace, "--trace-sample", "1"]);
        let out = tmp("an_analysis.json");
        run(&["dakc", "analyze", &trace, "--out", &out]);
        let body = std::fs::read_to_string(&out).unwrap();
        assert_eq!(dakc_bench::artifact::validate(&body).unwrap(), "analyze");
        // Re-analysis is deterministic, so a self-diff is clean.
        run(&["dakc", "analyze", "--diff", &out, &out]);
        // Metrics input renders and exports a diffable artifact too.
        let metrics = tmp("an_metrics.json");
        run(&["dakc", "simulate", &fq, "-k", "11", "--nodes", "2", "--ppn", "2",
              "--metrics", &metrics]);
        let mout = tmp("an_metrics_art.json");
        run(&["dakc", "analyze", &metrics, "--out", &mout]);
        let mbody = std::fs::read_to_string(&mout).unwrap();
        assert_eq!(dakc_bench::artifact::validate(&mbody).unwrap(), "analyze");
        run(&["dakc", "analyze", "--diff", &mout, &mout]);
    }

    #[test]
    fn count_output_shard_round_trips() {
        let fq = tmp("shard.fastq");
        std::fs::write(
            &fq,
            "@r\nACGTACGTACGGTTACAGGACCATGGACCAGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
        )
        .unwrap();
        let tsv = tmp("shard.tsv");
        let shard = tmp("shard.dakshard");
        dispatch(
            parse_args(
                ["dakc", "count", &fq, "-k", "11", "-o", &tsv, "--output-shard", &shard]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            )
            .unwrap(),
        )
        .unwrap();
        // The persisted shard loads through the validated loader and
        // agrees record-for-record with the TSV the same run wrote.
        let s = dakc_serve::Shard::<u64>::load(std::path::Path::new(&shard)).unwrap();
        let body = std::fs::read_to_string(&tsv).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(s.len(), lines.len());
        for (line, (kmer, count)) in lines.iter().zip(s.iter()) {
            let (ks, cs) = line.split_once('\t').unwrap();
            assert_eq!(ks, kmer.to_dna_string(11));
            assert_eq!(cs.parse::<u32>().unwrap(), count);
            assert_eq!(s.get(kmer), Some(count));
        }
        assert_eq!(s.meta().k, 11);
        assert!(!s.meta().canonical);
    }

    #[test]
    fn query_loopback_matches_count() {
        let fq = tmp("q.fastq");
        std::fs::write(
            &fq,
            "@r\nACGTACGTACGGTTACAGGACCATGGACCAGTAACCGGTT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
        )
        .unwrap();
        let tsv = tmp("q_count.tsv");
        let ans = tmp("q_answers.tsv");
        let run = |args: &[&str]| {
            dispatch(parse_args(args.iter().map(|s| s.to_string()).collect()).unwrap()).unwrap()
        };
        run(&["dakc", "count", &fq, "-k", "13", "-o", &tsv]);
        // Query the count's own keys against a 3-shard loopback service:
        // the answers must reproduce the counts file byte-for-byte.
        run(&["dakc", "query", &tsv, "-k", "13", "--ranks", "3", "--serve-reads", &fq,
              "-o", &ans, "--batch", "7"]);
        assert_eq!(
            std::fs::read_to_string(&tsv).unwrap(),
            std::fs::read_to_string(&ans).unwrap()
        );
    }

    #[test]
    fn model_command_runs() {
        dispatch(Command::Model(crate::args::ModelArgs {
            dataset: "Synthetic 30".into(),
            nodes: 32,
        }))
        .unwrap();
    }
}
