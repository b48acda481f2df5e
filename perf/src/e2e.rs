//! The end-to-end pass: what a user of the system sees, tracing off.
//!
//! After one untimed warm-up round the engines run round-robin inside
//! each repetition, so a drifting host slows them all alike; every
//! repetition's output is compared with the serial oracle and every
//! lookup with its true count. A rate is k-mer occurrences over the wall
//! of one repetition; the metric is the median over the repetitions.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::api::{self, Cluster, Counts, Wire};
use crate::report::Pass;
use crate::setup::{self, check_counts, check_tsv, Ctx, Keys, Setup};
use crate::stats::{median, percentile};
use crate::workload::Workload;

/// Times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest timed repetitions of an engine, however short the budget.
const MIN_REPS: usize = 5;
/// Repetitions when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 7;
const MAX_REPS: usize = 15;
/// Child processes `count_peak_rss_mb` is the lowest of.
const RSS_PROBES: usize = 3;

/// A counting engine, timed from outside. All but the last make the
/// end-to-end round; the traced pass times PakMan* as well.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// `dakc count`: reads on disk to sorted counts on disk.
    Cli,
    /// `dakc launch --backend tcp`: real processes and sockets.
    Tcp,
    /// `dakc launch --backend tcp --superkmer`.
    TcpSpans,
    /// `count_kmers_threaded`: reads in memory to sorted counts.
    Threaded,
    /// `count_kmers_loopback`: the cascade over in-process ranks, words.
    Loopback,
    /// The same with `.with_superkmer(7)`: spans on the wire.
    LoopbackSpans,
    /// `count_kmers_serial`: the single-thread baseline and the oracle.
    Serial,
    /// `count_kmers_sim` on `test_machine(2, 4)`: the simulator's host wall.
    Sim,
    /// `count_kmers_bsp_threaded`: the PakMan* baseline, `P` threads.
    Pakman,
}

/// The engines of one round, in the order they run, each with the
/// metric its rate is a sample of.
const ROUND: [(Engine, &str); 8] = [
    (Engine::Cli, "count_cli_kmers_per_s"),
    (Engine::Tcp, "count_tcp_kmers_per_s"),
    (Engine::TcpSpans, "count_tcp_sk_kmers_per_s"),
    (Engine::Threaded, "count_threaded_kmers_per_s"),
    (Engine::Loopback, "count_loopback_kmers_per_s"),
    (Engine::LoopbackSpans, "count_loopback_sk_kmers_per_s"),
    (Engine::Serial, "count_serial_kmers_per_s"),
    (Engine::Sim, "sim_kmers_per_s"),
];

/// Runs `cmd` to completion with the scratch directory as its temporary
/// directory (where `dakc launch` puts its rendezvous files); returns the
/// wall time from spawn to exit.
pub fn run_cli(ctx: &Ctx, mut cmd: Command) -> Result<f64, String> {
    cmd.env("TMPDIR", &ctx.tmp)
        .current_dir(&ctx.tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    let t = Instant::now();
    let out = cmd
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{} from {cmd:?}: {}", out.status, err.trim_end()));
    }
    Ok(wall)
}

/// Times `f`, checks the table it returns against the oracle, and hands
/// back the wall time with whatever else `f` returned.
pub fn timed<X>(
    oracle: &Counts,
    f: impl FnOnce() -> Result<(Counts, X), String>,
) -> Result<(f64, X), String> {
    let t = Instant::now();
    let (got, extra) = f()?;
    let wall = t.elapsed().as_secs_f64();
    check_counts(&got, oracle)?;
    Ok((wall, extra))
}

/// One run of `e`, output checked; returns its wall time.
pub fn run_engine(ctx: &Ctx, s: &Setup, e: Engine) -> Result<f64, String> {
    let tsv = ctx.tmp.join("out.tsv");
    let (m, p) = (s.mode, ctx.p);
    let cli = |cmd| {
        // The last run's output must not stand in for this one's.
        match std::fs::remove_file(&tsv) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", tsv.display()))
            }
            _ => {}
        }
        let wall = run_cli(ctx, cmd)?;
        check_tsv(&tsv, m.k, &s.oracle)?;
        Ok(wall)
    };
    let loopback = |wire| timed(&s.oracle, || api::count_loopback(&s.reads, m, p, wire));
    match e {
        Engine::Cli => cli(api::cli_count(&ctx.dakc, &s.fastq, m, p, &tsv)),
        Engine::Tcp => cli(api::cli_launch(&ctx.dakc, &s.fastq, m, p, false, &tsv)),
        Engine::TcpSpans => cli(api::cli_launch(&ctx.dakc, &s.fastq, m, p, true, &tsv)),
        Engine::Threaded => {
            timed(&s.oracle, || Ok((api::count_threaded(&s.reads, m, p), ()))).map(|r| r.0)
        }
        Engine::Loopback => loopback(Wire::Words).map(|r| r.0),
        Engine::LoopbackSpans => loopback(Wire::Spans).map(|r| r.0),
        Engine::Serial => {
            timed(&s.oracle, || Ok((api::count_serial(&s.reads, m), ()))).map(|r| r.0)
        }
        Engine::Sim => timed(&s.oracle, || api::count_sim(&s.reads, m)).map(|r| r.0),
        Engine::Pakman => timed(&s.oracle, || {
            Ok((api::count_bsp_threaded(&s.reads, m, p), ()))
        })
        .map(|r| r.0),
    }
}

/// One closed-loop sweep over `keys` in batches of `batch`; returns each
/// batch's round-trip time. A wrong or unavailable answer is an error.
pub fn sweep(
    cluster: &mut Cluster,
    keys: &Keys,
    batch: usize,
    rtts: &mut Vec<f64>,
) -> Result<(), String> {
    rtts.clear();
    let mut answers = Vec::with_capacity(batch);
    for (ks, truth) in keys.keys.chunks(batch).zip(keys.truth.chunks(batch)) {
        let t = Instant::now();
        cluster.lookup(ks, &mut answers)?;
        rtts.push(t.elapsed().as_secs_f64());
        if let Some(i) = (0..ks.len()).find(|&i| answers.get(i) != Some(&Some(truth[i]))) {
            return Err(format!(
                "lookup of {:#x} answered {:?}, truth is {}",
                ks[i],
                answers.get(i),
                truth[i]
            ));
        }
    }
    Ok(())
}

/// One serve session, run like an engine in every round so that a slow
/// spell of the host cannot cover all its samples: start `P` servers,
/// one untimed sweep over a sixteenth of the keys (fills the servers'
/// caches and the client's buffers), one timed sweep over all keys at
/// batch 1024, the round trips of `batch64` at batch 64 (appended to
/// `rtts64`), shut down.
fn serve(pass: &mut Pass, s: &Setup, batch64: &Keys, rtts64: &mut Vec<f64>) {
    let n = s.keys.keys.len();
    let Some(mut cluster) = pass.op("serve start", api::cluster_start(s.shards.clone())) else {
        return;
    };
    let mut rtts = Vec::new();
    let warm = s.keys.range(0..n / 16);
    pass.ops(
        "serve warm-up",
        warm.keys.len() as u64,
        sweep(&mut cluster, &warm, 1024, &mut rtts),
    );
    let t = Instant::now();
    let swept = sweep(&mut cluster, &s.keys, 1024, &mut rtts);
    let wall = t.elapsed().as_secs_f64();
    if pass.ops("serve batch 1024", n as u64, swept).is_some() {
        pass.push("serve_lookups_per_s", n as f64 / wall);
    }
    let swept = sweep(&mut cluster, batch64, 64, &mut rtts);
    if pass
        .ops("serve batch 64", batch64.keys.len() as u64, swept)
        .is_some()
    {
        rtts64.append(&mut rtts);
    }
    pass.op("serve shutdown", cluster.shutdown());
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The child half of `count_peak_rss_mb`: in this fresh process, whose
/// heap holds nothing but the reads, resets the peak resident set through
/// `/proc/self/clear_refs`, counts once on `p` threads, and prints the
/// growth of the peak in MB with a digest of the counts.
pub fn rss_probe(w: &Workload, seed: u64, shrink: u32, p: usize) -> Result<(), String> {
    let input = w.generate(seed, shrink);
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("/proc/self/clear_refs: {e}"))?;
    let before = status_kb("VmRSS:").ok_or("no VmRSS in /proc/self/status")?;
    let got = api::count_threaded(&input.reads, input.mode, p);
    let peak = status_kb("VmHWM:").ok_or("no VmHWM in /proc/self/status")?;
    let (n, sum) = setup::checksum(got.iter().copied());
    println!("{} {n} {sum}", (peak - before) / 1024.0);
    Ok(())
}

/// Growth of the peak resident set across one `count_kmers_threaded`
/// call, measured in a child process so that no earlier engine's freed
/// memory is there to be reused.
fn peak_rss_mb(ctx: &Ctx, w: &Workload, s: &Setup) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("rss-probe").args([
        w.name,
        &ctx.seed.to_string(),
        &ctx.shrink.to_string(),
        &ctx.p.to_string(),
    ]);
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} from {cmd:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim_end()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace();
    let mut field = || fields.next().ok_or(format!("rss-probe printed {text:?}"));
    let mb: f64 = field()?
        .parse()
        .map_err(|_| format!("rss-probe printed {text:?}"))?;
    let digest = (field()?.parse().ok(), field()?.parse().ok());
    let (n, sum) = setup::checksum(s.oracle.iter().copied());
    if digest != (Some(n), Some(sum)) {
        return Err("the probe's counts differ from the oracle".to_string());
    }
    Ok(mb)
}

pub fn run(ctx: &Ctx, w: &'static Workload) -> Pass {
    let mut pass = Pass::new(w.name, false);
    let mut built = None;
    for _ in 0..if ctx.smoke { 1 } else { SETUPS } {
        let t = Instant::now();
        match setup::build(ctx, w) {
            Ok(s) => {
                pass.push("setup_s", t.elapsed().as_secs_f64());
                built = Some(s);
            }
            Err(e) => {
                pass.fail(format!("set-up: {e}"));
                return pass;
            }
        }
    }
    let s = built.expect("set-up ran at least once");
    pass.fact("input_digest", format!("{:016x}", s.digest));
    pass.fact("reads", s.reads.len());
    pass.fact("fastq_bytes", s.fastq_bytes);
    pass.fact("kmer_occurrences", s.occurrences);
    pass.fact("distinct_kmers", s.oracle.len());
    pass.fact("lookup_keys", s.keys.keys.len());

    let deadline = ctx
        .seconds
        .map(|secs| Instant::now() + Duration::from_secs_f64(secs));
    // What the engine needs is the floor; on top of it thread timing adds
    // up to 7 % on `repeats_k31c` (how far the two owners' sorts overlap),
    // so the metric is the lowest of the probes, not their median.
    let probes: Vec<f64> = (0..if ctx.smoke { 1 } else { RSS_PROBES })
        .filter_map(|_| pass.op("peak rss", peak_rss_mb(ctx, w, &s)))
        .collect();
    if let Some(&floor) = probes.iter().min_by(|a, b| a.total_cmp(b)) {
        pass.fact("peak_rss_probes_mb", format!("{probes:?}"));
        pass.push("count_peak_rss_mb", floor);
    }

    // The batch-64 lookups of a round: half the keys, 8192 round trips,
    // over the `MIN_REPS` rounds a measured run has at least; later
    // rounds start over.
    let share = s.keys.keys.len() / (2 * MIN_REPS);
    let batch64 = |round: usize| {
        let at = round % MIN_REPS * share;
        s.keys.range(at..at + share)
    };
    let mut round_s = 0.0;
    if !ctx.smoke {
        let t = Instant::now();
        for (e, _) in ROUND {
            pass.op(&format!("warm-up {e:?}"), run_engine(ctx, &s, e));
        }
        // A serve session warms itself up, so the warm-up round has none.
        round_s = t.elapsed().as_secs_f64();
    }
    let rounds = ctx.plan_reps(deadline, round_s, 0, MIN_REPS, DEFAULT_REPS, MAX_REPS);
    let mut rtts64 = Vec::new();
    for round in 0..rounds {
        for (e, name) in ROUND {
            if let Some(wall) = pass.op(&format!("{e:?}"), run_engine(ctx, &s, e)) {
                pass.push(name, s.occurrences as f64 / wall);
            }
        }
        serve(&mut pass, &s, &batch64(round), &mut rtts64);
    }
    pass.fact("repetitions", rounds);
    if !rtts64.is_empty() {
        pass.fact("serve_batch64_round_trips", rtts64.len());
        pass.push("serve_batch64_p50_s", median(&rtts64));
        pass.push("serve_batch64_p99_s", percentile(&mut rtts64, 99.0));
    }
    pass
}
