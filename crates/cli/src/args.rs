//! Hand-rolled argument parsing (no external CLI dependency).

use std::time::Duration;

use dakc_conveyors::Protocol;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `dakc count <input> [-k N] [--threads N] [--canonical] [--l3 C3] [-o out]`
    Count(CountArgs),
    /// `dakc generate --dataset NAME [--scale-shift N] [--seed N] [-o out]`
    Generate(GenerateArgs),
    /// `dakc spectrum <counts.tsv> [--max N]`
    Spectrum(SpectrumArgs),
    /// `dakc simulate <input> [-k N] [--nodes N] [--ppn N] [--protocol 1d|2d|3d] [--l3]`
    Simulate(SimulateArgs),
    /// `dakc launch <input> [--ranks N] [--backend tcp|loopback] [-k N]`
    Launch(LaunchArgs),
    /// `dakc worker <input> --rank I --ranks N --rendezvous DIR` (hidden;
    /// spawned by `launch --backend tcp`, one per rank).
    Worker(WorkerArgs),
    /// `dakc model --dataset NAME [--nodes N]`
    Model(ModelArgs),
    /// `dakc compare <input> [-k N] [--nodes N] [--ppn N]`
    Compare(CompareArgs),
    /// `dakc analyze <trace-or-results>... [--out PATH] [--diff] [--threshold X]`
    Analyze(AnalyzeArgs),
    /// `dakc serve <input> [--ranks N] [--dir DIR]` — stand the counted
    /// table up as a resident sharded query service.
    Serve(ServeArgs),
    /// `dakc serve-worker <input> --rank I ...` (hidden; spawned by
    /// `serve`, one server rank each).
    ServeWorker(ServeWorkerArgs),
    /// `dakc query <keys.tsv> [--dir DIR | --serve-reads <input>]` — look
    /// keys up against a serve mesh.
    Query(QueryArgs),
    /// `dakc help`
    Help,
}

/// Arguments of `dakc serve` (and, with rank identity added, of the
/// hidden `dakc serve-worker`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Input FASTA/FASTQ path to count and serve.
    pub input: String,
    /// k-mer length.
    pub k: usize,
    /// Number of server ranks (the query client joins as one more).
    pub ranks: usize,
    /// Canonical (strand-neutral) counting.
    pub canonical: bool,
    /// Service directory: rendezvous files and shard files live here.
    pub dir: String,
    /// Transport deadlines (connection setup and collective waits).
    pub net_timeout: Option<Duration>,
    /// Worker → supervisor heartbeat period (default 100ms).
    pub heartbeat_interval: Option<Duration>,
    /// Live `--status` redraw period (default 500ms).
    pub status_interval: Option<Duration>,
    /// Render the live per-rank status table while serving.
    pub status: bool,
    /// Chaos fault-injection RNG seed (only meaningful with a profile).
    pub chaos_seed: Option<u64>,
    /// Chaos fault-injection profile applied to the serve loop's
    /// transport, e.g. `die:2@200`.
    pub chaos_profile: Option<String>,
    /// Replication factor: each owner's shard is also loaded by its
    /// `replicas - 1` successor ranks, and the query client fails a
    /// dead holder's requests over to the next copy. Default 1 (off).
    pub replicas: usize,
}

/// Arguments of the hidden `dakc serve-worker` subcommand: one server
/// rank of a TCP serve mesh. `serve` spawns these.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWorkerArgs {
    /// This process's server rank.
    pub rank: usize,
    /// The launcher's supervisor address to heartbeat to (`host:port`).
    pub supervisor: Option<String>,
    /// The serve parameters, identical on every rank.
    pub job: ServeArgs,
}

/// Arguments of `dakc query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Keys file: TSV whose first column is a k-mer (the output of
    /// `dakc count` works directly).
    pub keys: String,
    /// k-mer length (must match the service's).
    pub k: usize,
    /// Number of server ranks in the mesh.
    pub ranks: usize,
    /// Service directory of a running `dakc serve` to join (TCP mode).
    pub dir: Option<String>,
    /// Loopback mode: count these reads into an in-process cluster and
    /// query that instead of joining a TCP service.
    pub serve_reads: Option<String>,
    /// Canonical counting for `--serve-reads`.
    pub canonical: bool,
    /// Keys per lookup batch.
    pub batch: usize,
    /// Output TSV path (stdout if absent).
    pub output: Option<String>,
    /// Write the client metrics registry (lookup latency histograms) as
    /// JSON to this path.
    pub metrics: Option<String>,
    /// Also fetch and print the merged count spectrum up to this bucket.
    pub histogram: Option<u32>,
    /// Also fetch and print the global top-N records.
    pub top: Option<usize>,
    /// Transport deadlines (connection setup and collective waits).
    pub net_timeout: Option<Duration>,
}

/// Arguments of `dakc analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Telemetry files to analyze: Chrome traces (`--trace` output),
    /// metrics JSON (`--metrics` output) or bench artifacts.
    pub inputs: Vec<String>,
    /// Write the analysis artifact here (default `results/analyze.json`
    /// for the first trace input).
    pub out: Option<String>,
    /// Diff mode: the two inputs are baseline and current `analyze`
    /// artifacts; explain the regression instead of analyzing.
    pub diff: bool,
    /// Slowdown ratio above which a diffed duration is a regression.
    pub threshold: f64,
}

/// Arguments of `dakc compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Input FASTA/FASTQ path.
    pub input: String,
    /// k-mer length.
    pub k: usize,
    /// Simulated node count.
    pub nodes: usize,
    /// Simulated cores per node.
    pub ppn: usize,
}

/// Arguments of `dakc count`.
#[derive(Debug, Clone, PartialEq)]
pub struct CountArgs {
    /// Input FASTA/FASTQ path.
    pub input: String,
    /// k-mer length.
    pub k: usize,
    /// Worker threads.
    pub threads: usize,
    /// Canonical (strand-neutral) counting.
    pub canonical: bool,
    /// Heavy-hitter L3 buffer size, if enabled.
    pub l3: Option<usize>,
    /// Output TSV path (stdout if absent).
    pub output: Option<String>,
    /// Also persist the final sorted table in the shard wire format
    /// (the serve index builder's input) at this path.
    pub output_shard: Option<String>,
    /// Minimum count to report.
    pub min_count: u32,
    /// Write a Chrome trace-event JSON of the run to this path.
    pub trace: Option<String>,
    /// Write the run's metrics registry as JSON to this path.
    pub metrics: Option<String>,
    /// Causal flow tracing: tag one in `N` packets (`1` = every packet).
    pub trace_sample: Option<u32>,
    /// Words per route-lane batch (engine default if absent).
    pub route_batch: Option<usize>,
    /// Super-k-mer span routing (L2.5).
    pub superkmer: bool,
    /// Minimizer length for `--superkmer` (default
    /// [`dakc::DEFAULT_MINIMIZER_LEN`]).
    pub minimizer_len: Option<usize>,
}

/// Transport backend of `dakc launch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetBackend {
    /// In-process channel mesh: `ranks` threads, no sockets.
    Loopback,
    /// Real OS processes connected over localhost TCP.
    Tcp,
}

/// Arguments of `dakc launch` (and, with rank identity added, of the
/// hidden `dakc worker`).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchArgs {
    /// Input FASTA/FASTQ path.
    pub input: String,
    /// k-mer length.
    pub k: usize,
    /// Number of ranks (processes or loopback threads).
    pub ranks: usize,
    /// Transport backend.
    pub backend: NetBackend,
    /// Canonical (strand-neutral) counting.
    pub canonical: bool,
    /// Heavy-hitter L3 buffer size, if enabled.
    pub l3: Option<usize>,
    /// Minimum count to report.
    pub min_count: u32,
    /// Output TSV path (stdout if absent).
    pub output: Option<String>,
    /// Write the merged metrics registry as JSON to this path.
    pub metrics: Option<String>,
    /// Transport deadline (connection setup and collective waits);
    /// the tuned default when absent. Accepts `500ms`, `5s`, or bare
    /// seconds.
    pub net_timeout: Option<Duration>,
    /// Retry budget for transient send stalls.
    pub net_retries: Option<u32>,
    /// Worker → supervisor heartbeat period (default 100ms).
    pub heartbeat_interval: Option<Duration>,
    /// Live `--status` redraw period (default 500ms).
    pub status_interval: Option<Duration>,
    /// Chaos fault-injection RNG seed (only meaningful with a profile).
    pub chaos_seed: Option<u64>,
    /// Chaos fault-injection profile, e.g. `drop=5,die:2@200`.
    pub chaos_profile: Option<String>,
    /// Write the clock-aligned merged multi-rank Chrome trace here.
    pub trace: Option<String>,
    /// Causal flow tracing: tag one in `N` packets (`1` = every packet).
    pub trace_sample: Option<u32>,
    /// Render the live per-rank status table while the job runs.
    pub status: bool,
    /// Super-k-mer span routing (L2.5).
    pub superkmer: bool,
    /// Minimizer length for `--superkmer` (default
    /// [`dakc::DEFAULT_MINIMIZER_LEN`]).
    pub minimizer_len: Option<usize>,
    /// Survive rank death: retain listeners, tag frames with
    /// incarnations, and respawn + replay a dead rank instead of
    /// tearing the job down. TCP backend only; exclusive with `--trace`.
    pub recover: bool,
    /// Respawn budget under `--recover` (default 3).
    pub max_respawns: Option<u32>,
}

/// Arguments of the hidden `dakc worker` subcommand: one rank of a TCP
/// job. `launch --backend tcp` spawns these; not for interactive use.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// This process's rank.
    pub rank: usize,
    /// This process's incarnation: 0 for an original spawn, `i` for the
    /// `i`-th respawn after a recovered death (`--recover` only).
    pub epoch: u32,
    /// Rendezvous directory where all ranks publish `rank<i>.addr`.
    pub rendezvous: String,
    /// The launcher's supervisor address to heartbeat to (`host:port`).
    pub supervisor: Option<String>,
    /// The count parameters, identical on every rank.
    pub job: LaunchArgs,
}

/// Arguments of `dakc generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Table V dataset name.
    pub dataset: String,
    /// Scale shift (DESIGN.md §4).
    pub scale_shift: u32,
    /// RNG seed.
    pub seed: u64,
    /// Output FASTQ path (stdout if absent).
    pub output: Option<String>,
}

/// Arguments of `dakc spectrum`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumArgs {
    /// Counts TSV produced by `dakc count`.
    pub input: String,
    /// Largest multiplicity bucket to print.
    pub max: usize,
}

/// Arguments of `dakc simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Input FASTA/FASTQ path.
    pub input: String,
    /// k-mer length.
    pub k: usize,
    /// Simulated node count.
    pub nodes: usize,
    /// Simulated cores per node.
    pub ppn: usize,
    /// Conveyors protocol.
    pub protocol: Protocol,
    /// Enable the L3 heavy-hitter layer.
    pub l3: bool,
    /// Write a Chrome trace-event JSON of the virtual-time run here.
    pub trace: Option<String>,
    /// Write the run's metrics registry as JSON to this path.
    pub metrics: Option<String>,
    /// Causal flow tracing: tag one in `N` packets (`1` = every packet).
    pub trace_sample: Option<u32>,
    /// Render the per-PE utilization timeline after the run.
    pub timeline: bool,
    /// Super-k-mer span routing (L2.5).
    pub superkmer: bool,
    /// Minimizer length for `--superkmer` (default
    /// [`dakc::DEFAULT_MINIMIZER_LEN`]).
    pub minimizer_len: Option<usize>,
}

/// Arguments of `dakc model`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArgs {
    /// Table V dataset name.
    pub dataset: String,
    /// Node count `P`.
    pub nodes: usize,
}

/// Usage text.
pub const USAGE: &str = "\
dakc — distributed asynchronous k-mer counting

USAGE:
  dakc count <reads.fasta|fastq> [-k 31] [--threads 8] [--canonical]
             [--l3 C3] [--min-count 1] [-o counts.tsv] [--route-batch N]
             [--output-shard table.dakshard]
             [--superkmer] [--minimizer-len 7]
             [--trace trace.json] [--metrics metrics.json] [--trace-sample N]
  dakc generate --dataset NAME [--scale-shift 12] [--seed 42] [-o out.fastq]
  dakc spectrum <counts.tsv> [--max 100]
  dakc simulate <reads> [-k 31] [--nodes 8] [--ppn 24] [--protocol 1d|2d|3d] [--l3]
                [--superkmer] [--minimizer-len 7]
                [--trace trace.json] [--metrics metrics.json] [--timeline]
                [--trace-sample N]
  dakc launch <reads> [--ranks 4] [--backend tcp|loopback] [-k 31]
              [--canonical] [--l3 C3] [--min-count 1] [-o counts.tsv]
              [--metrics metrics.json] [--net-timeout 5s|500ms] [--net-retries N]
              [--heartbeat-interval 100ms] [--status-interval 500ms]
              [--chaos-seed N] [--chaos-profile SPEC] [--trace trace.json]
              [--trace-sample N] [--status] [--superkmer] [--minimizer-len 7]
              [--recover] [--max-respawns 3]
  dakc serve <reads> --dir DIR [--ranks 4] [-k 31] [--canonical]
             [--net-timeout 30s] [--heartbeat-interval 100ms]
             [--status-interval 500ms] [--status] [--replicas 1]
             [--chaos-seed N] [--chaos-profile SPEC]
  dakc query <keys.tsv> (--dir DIR | --serve-reads <reads>) [--ranks 4] [-k 31]
             [--canonical] [--batch 1024] [-o answers.tsv] [--metrics m.json]
             [--histogram 16] [--top 10] [--net-timeout 5s]
  dakc model --dataset NAME [--nodes 32]
  dakc compare <reads> [-k 31] [--nodes 8] [--ppn 24]
  dakc analyze <trace.json|metrics.json|results/*.json>... [--out PATH]
  dakc analyze --diff baseline.json current.json [--threshold 1.5]
  dakc help

Dataset names are Table V labels, e.g. \"Synthetic 24\" or \"SRR28206931\".";

fn take_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(v: String, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// Parses a humane duration: `500ms`, `5s`, `2.5s`, `1m` — or a bare
/// number, kept meaning seconds for compatibility. Must be positive.
pub fn parse_duration(v: &str, flag: &str) -> Result<Duration, String> {
    let (num, scale) = if let Some(n) = v.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = v.strip_suffix('s').filter(|n| !n.ends_with('m')) {
        (n, 1.0)
    } else if let Some(n) = v.strip_suffix('m') {
        (n, 60.0)
    } else {
        (v, 1.0)
    };
    let secs: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("{flag}: invalid duration {v:?} (try 500ms, 5s, or bare seconds)"))?;
    let secs = secs * scale;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{flag}: duration must be positive, got {v:?}"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn take_duration(
    args: &mut std::vec::IntoIter<String>,
    flag: &str,
) -> Result<Duration, String> {
    parse_duration(&take_value(args, flag)?, flag)
}

/// Validates the `--superkmer`/`--minimizer-len` pair once `k` is known.
fn check_superkmer(
    sub: &str,
    superkmer: bool,
    minimizer_len: Option<usize>,
    k: usize,
) -> Result<(), String> {
    match (superkmer, minimizer_len) {
        (false, Some(_)) => Err(format!("{sub}: --minimizer-len requires --superkmer")),
        (true, Some(m)) if m < 1 || m > k.min(32) => Err(format!(
            "{sub}: --minimizer-len {m} must be in 1..=min(k = {k}, 32)"
        )),
        (true, None) if k < dakc::DEFAULT_MINIMIZER_LEN => Err(format!(
            "{sub}: default minimizer length {} exceeds k = {k}; pass --minimizer-len",
            dakc::DEFAULT_MINIMIZER_LEN
        )),
        _ => Ok(()),
    }
}

/// Parses `argv` (including the program name at index 0).
pub fn parse_args(argv: Vec<String>) -> Result<Command, String> {
    let mut it = argv.into_iter();
    let _prog = it.next();
    let sub = it.next().ok_or_else(|| USAGE.to_string())?;
    match sub.as_str() {
        "count" => {
            let mut input = None;
            let mut a = CountArgs {
                input: String::new(),
                k: 31,
                threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
                canonical: false,
                l3: None,
                output: None,
                min_count: 1,
                output_shard: None,
                trace: None,
                metrics: None,
                trace_sample: None,
                route_batch: None,
                superkmer: false,
                minimizer_len: None,
            };
            let mut rest: Vec<String> = it.collect();
            let mut args = std::mem::take(&mut rest).into_iter();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-k" => a.k = parse_num(take_value(&mut args, "-k")?, "-k")?,
                    "--threads" => {
                        a.threads = parse_num(take_value(&mut args, "--threads")?, "--threads")?
                    }
                    "--canonical" => a.canonical = true,
                    "--l3" => a.l3 = Some(parse_num(take_value(&mut args, "--l3")?, "--l3")?),
                    "-o" | "--output" => a.output = Some(take_value(&mut args, "-o")?),
                    "--output-shard" => {
                        a.output_shard = Some(take_value(&mut args, "--output-shard")?)
                    }
                    "--min-count" => {
                        a.min_count =
                            parse_num(take_value(&mut args, "--min-count")?, "--min-count")?
                    }
                    "--trace" => a.trace = Some(take_value(&mut args, "--trace")?),
                    "--metrics" => a.metrics = Some(take_value(&mut args, "--metrics")?),
                    "--trace-sample" => {
                        a.trace_sample = Some(parse_num(
                            take_value(&mut args, "--trace-sample")?,
                            "--trace-sample",
                        )?)
                    }
                    "--route-batch" => {
                        a.route_batch = Some(parse_num(
                            take_value(&mut args, "--route-batch")?,
                            "--route-batch",
                        )?)
                    }
                    "--superkmer" => a.superkmer = true,
                    "--minimizer-len" => {
                        a.minimizer_len = Some(parse_num(
                            take_value(&mut args, "--minimizer-len")?,
                            "--minimizer-len",
                        )?)
                    }
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(format!("count: unknown argument {other:?}")),
                }
            }
            a.input = input.ok_or("count: missing input file")?;
            if a.k == 0 || a.k > 64 {
                return Err("count: k must be in 1..=64".into());
            }
            check_superkmer("count", a.superkmer, a.minimizer_len, a.k)?;
            Ok(Command::Count(a))
        }
        "generate" => {
            let mut a = GenerateArgs {
                dataset: String::new(),
                scale_shift: dakc_io::DEFAULT_SCALE_SHIFT,
                seed: 42,
                output: None,
            };
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--dataset" => a.dataset = take_value(&mut args, "--dataset")?,
                    "--scale-shift" => {
                        a.scale_shift =
                            parse_num(take_value(&mut args, "--scale-shift")?, "--scale-shift")?
                    }
                    "--seed" => a.seed = parse_num(take_value(&mut args, "--seed")?, "--seed")?,
                    "-o" | "--output" => a.output = Some(take_value(&mut args, "-o")?),
                    other => return Err(format!("generate: unknown argument {other:?}")),
                }
            }
            if a.dataset.is_empty() {
                return Err("generate: --dataset is required".into());
            }
            Ok(Command::Generate(a))
        }
        "spectrum" => {
            let mut input = None;
            let mut max = 100usize;
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--max" => max = parse_num(take_value(&mut args, "--max")?, "--max")?,
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(format!("spectrum: unknown argument {other:?}")),
                }
            }
            Ok(Command::Spectrum(SpectrumArgs {
                input: input.ok_or("spectrum: missing input file")?,
                max,
            }))
        }
        "simulate" => {
            let mut input = None;
            let mut a = SimulateArgs {
                input: String::new(),
                k: 31,
                nodes: 8,
                ppn: 24,
                protocol: Protocol::OneD,
                l3: false,
                trace: None,
                metrics: None,
                trace_sample: None,
                timeline: false,
                superkmer: false,
                minimizer_len: None,
            };
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-k" => a.k = parse_num(take_value(&mut args, "-k")?, "-k")?,
                    "--nodes" => a.nodes = parse_num(take_value(&mut args, "--nodes")?, "--nodes")?,
                    "--ppn" => a.ppn = parse_num(take_value(&mut args, "--ppn")?, "--ppn")?,
                    "--l3" => a.l3 = true,
                    "--trace" => a.trace = Some(take_value(&mut args, "--trace")?),
                    "--metrics" => a.metrics = Some(take_value(&mut args, "--metrics")?),
                    "--trace-sample" => {
                        a.trace_sample = Some(parse_num(
                            take_value(&mut args, "--trace-sample")?,
                            "--trace-sample",
                        )?)
                    }
                    "--timeline" => a.timeline = true,
                    "--superkmer" => a.superkmer = true,
                    "--minimizer-len" => {
                        a.minimizer_len = Some(parse_num(
                            take_value(&mut args, "--minimizer-len")?,
                            "--minimizer-len",
                        )?)
                    }
                    "--protocol" => {
                        a.protocol = match take_value(&mut args, "--protocol")?.as_str() {
                            "1d" | "1D" => Protocol::OneD,
                            "2d" | "2D" => Protocol::TwoD,
                            "3d" | "3D" => Protocol::ThreeD,
                            other => return Err(format!("unknown protocol {other:?}")),
                        }
                    }
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(format!("simulate: unknown argument {other:?}")),
                }
            }
            a.input = input.ok_or("simulate: missing input file")?;
            check_superkmer("simulate", a.superkmer, a.minimizer_len, a.k)?;
            Ok(Command::Simulate(a))
        }
        "launch" | "worker" => {
            let hidden = sub == "worker";
            let mut input = None;
            let mut a = LaunchArgs {
                input: String::new(),
                k: 31,
                ranks: 4,
                backend: NetBackend::Tcp,
                canonical: false,
                l3: None,
                min_count: 1,
                output: None,
                metrics: None,
                net_timeout: None,
                net_retries: None,
                heartbeat_interval: None,
                status_interval: None,
                chaos_seed: None,
                chaos_profile: None,
                trace: None,
                trace_sample: None,
                status: false,
                superkmer: false,
                minimizer_len: None,
                recover: false,
                max_respawns: None,
            };
            let mut rank = None;
            let mut rendezvous = None;
            let mut supervisor = None;
            let mut epoch = 0u32;
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-k" => a.k = parse_num(take_value(&mut args, "-k")?, "-k")?,
                    "--ranks" => a.ranks = parse_num(take_value(&mut args, "--ranks")?, "--ranks")?,
                    "--backend" => {
                        a.backend = match take_value(&mut args, "--backend")?.as_str() {
                            "tcp" => NetBackend::Tcp,
                            "loopback" => NetBackend::Loopback,
                            other => return Err(format!("unknown backend {other:?}")),
                        }
                    }
                    "--canonical" => a.canonical = true,
                    "--l3" => a.l3 = Some(parse_num(take_value(&mut args, "--l3")?, "--l3")?),
                    "--min-count" => {
                        a.min_count =
                            parse_num(take_value(&mut args, "--min-count")?, "--min-count")?
                    }
                    "-o" | "--output" => a.output = Some(take_value(&mut args, "-o")?),
                    "--metrics" => a.metrics = Some(take_value(&mut args, "--metrics")?),
                    "--net-timeout" => {
                        a.net_timeout = Some(take_duration(&mut args, "--net-timeout")?)
                    }
                    "--net-retries" => {
                        a.net_retries = Some(parse_num(
                            take_value(&mut args, "--net-retries")?,
                            "--net-retries",
                        )?)
                    }
                    "--heartbeat-interval" => {
                        a.heartbeat_interval =
                            Some(take_duration(&mut args, "--heartbeat-interval")?)
                    }
                    "--status-interval" => {
                        a.status_interval = Some(take_duration(&mut args, "--status-interval")?)
                    }
                    "--chaos-seed" => {
                        a.chaos_seed = Some(parse_num(
                            take_value(&mut args, "--chaos-seed")?,
                            "--chaos-seed",
                        )?)
                    }
                    "--chaos-profile" => {
                        a.chaos_profile = Some(take_value(&mut args, "--chaos-profile")?)
                    }
                    "--trace" => a.trace = Some(take_value(&mut args, "--trace")?),
                    "--trace-sample" => {
                        a.trace_sample = Some(parse_num(
                            take_value(&mut args, "--trace-sample")?,
                            "--trace-sample",
                        )?)
                    }
                    "--status" => a.status = true,
                    "--superkmer" => a.superkmer = true,
                    "--minimizer-len" => {
                        a.minimizer_len = Some(parse_num(
                            take_value(&mut args, "--minimizer-len")?,
                            "--minimizer-len",
                        )?)
                    }
                    "--recover" => a.recover = true,
                    "--max-respawns" => {
                        a.max_respawns = Some(parse_num(
                            take_value(&mut args, "--max-respawns")?,
                            "--max-respawns",
                        )?)
                    }
                    "--epoch" if hidden => {
                        epoch = parse_num(take_value(&mut args, "--epoch")?, "--epoch")?
                    }
                    "--rank" if hidden => {
                        rank = Some(parse_num(take_value(&mut args, "--rank")?, "--rank")?)
                    }
                    "--rendezvous" if hidden => {
                        rendezvous = Some(take_value(&mut args, "--rendezvous")?)
                    }
                    "--supervisor" if hidden => {
                        supervisor = Some(take_value(&mut args, "--supervisor")?)
                    }
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(format!("{sub}: unknown argument {other:?}")),
                }
            }
            a.input = input.ok_or_else(|| format!("{sub}: missing input file"))?;
            if a.k == 0 || a.k > 64 {
                return Err(format!("{sub}: k must be in 1..=64"));
            }
            if a.ranks == 0 {
                return Err(format!("{sub}: --ranks must be at least 1"));
            }
            check_superkmer(&sub, a.superkmer, a.minimizer_len, a.k)?;
            if a.recover {
                if a.trace.is_some() {
                    return Err(format!(
                        "{sub}: --recover and --trace are mutually exclusive \
                         (the flight recorder cannot splice respawned-rank timelines)"
                    ));
                }
                if a.backend == NetBackend::Loopback {
                    return Err(format!(
                        "{sub}: --recover requires the tcp backend \
                         (loopback ranks share one process and cannot be respawned)"
                    ));
                }
            } else if a.max_respawns.is_some() {
                return Err(format!("{sub}: --max-respawns requires --recover"));
            }
            if a.backend == NetBackend::Loopback {
                // Fault injection, heartbeats and the live status table
                // belong to the process supervisor, which loopback
                // ranks (threads of one process) do not have.
                let unsupported = [
                    ("--chaos-seed", a.chaos_seed.is_some()),
                    ("--chaos-profile", a.chaos_profile.is_some()),
                    ("--heartbeat-interval", a.heartbeat_interval.is_some()),
                    ("--status", a.status),
                    ("--status-interval", a.status_interval.is_some()),
                ];
                if let Some((flag, _)) = unsupported.iter().find(|(_, set)| *set) {
                    return Err(format!("{sub}: {flag} requires the tcp backend"));
                }
            }
            if hidden {
                let rank = rank.ok_or("worker: --rank is required")?;
                if rank >= a.ranks {
                    return Err(format!("worker: rank {rank} out of range 0..{}", a.ranks));
                }
                Ok(Command::Worker(WorkerArgs {
                    rank,
                    rendezvous: rendezvous.ok_or("worker: --rendezvous is required")?,
                    supervisor,
                    epoch,
                    job: a,
                }))
            } else {
                Ok(Command::Launch(a))
            }
        }
        "serve" | "serve-worker" => {
            let hidden = sub == "serve-worker";
            let mut input = None;
            let mut a = ServeArgs {
                input: String::new(),
                k: 31,
                ranks: 4,
                canonical: false,
                dir: String::new(),
                net_timeout: None,
                heartbeat_interval: None,
                status_interval: None,
                status: false,
                chaos_seed: None,
                chaos_profile: None,
                replicas: 1,
            };
            let mut rank = None;
            let mut supervisor = None;
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-k" => a.k = parse_num(take_value(&mut args, "-k")?, "-k")?,
                    "--ranks" => a.ranks = parse_num(take_value(&mut args, "--ranks")?, "--ranks")?,
                    "--canonical" => a.canonical = true,
                    "--dir" => a.dir = take_value(&mut args, "--dir")?,
                    "--net-timeout" => {
                        a.net_timeout = Some(take_duration(&mut args, "--net-timeout")?)
                    }
                    "--heartbeat-interval" => {
                        a.heartbeat_interval =
                            Some(take_duration(&mut args, "--heartbeat-interval")?)
                    }
                    "--status-interval" => {
                        a.status_interval = Some(take_duration(&mut args, "--status-interval")?)
                    }
                    "--status" => a.status = true,
                    "--chaos-seed" => {
                        a.chaos_seed = Some(parse_num(
                            take_value(&mut args, "--chaos-seed")?,
                            "--chaos-seed",
                        )?)
                    }
                    "--chaos-profile" => {
                        a.chaos_profile = Some(take_value(&mut args, "--chaos-profile")?)
                    }
                    "--replicas" => {
                        a.replicas = parse_num(take_value(&mut args, "--replicas")?, "--replicas")?
                    }
                    "--rank" if hidden => {
                        rank = Some(parse_num(take_value(&mut args, "--rank")?, "--rank")?)
                    }
                    "--supervisor" if hidden => {
                        supervisor = Some(take_value(&mut args, "--supervisor")?)
                    }
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(format!("{sub}: unknown argument {other:?}")),
                }
            }
            a.input = input.ok_or_else(|| format!("{sub}: missing input file"))?;
            if a.k == 0 || a.k > 64 {
                return Err(format!("{sub}: k must be in 1..=64"));
            }
            if a.ranks == 0 {
                return Err(format!("{sub}: --ranks must be at least 1"));
            }
            if a.replicas == 0 || a.replicas > a.ranks {
                return Err(format!(
                    "{sub}: --replicas must be in 1..={} (the server count)",
                    a.ranks
                ));
            }
            if a.dir.is_empty() {
                return Err(format!("{sub}: --dir is required (shard + rendezvous directory)"));
            }
            if hidden {
                let rank = rank.ok_or("serve-worker: --rank is required")?;
                if rank >= a.ranks {
                    return Err(format!(
                        "serve-worker: rank {rank} out of range 0..{}",
                        a.ranks
                    ));
                }
                Ok(Command::ServeWorker(ServeWorkerArgs { rank, supervisor, job: a }))
            } else {
                Ok(Command::Serve(a))
            }
        }
        "query" => {
            let mut keys = None;
            let mut a = QueryArgs {
                keys: String::new(),
                k: 31,
                ranks: 4,
                dir: None,
                serve_reads: None,
                canonical: false,
                batch: 1024,
                output: None,
                metrics: None,
                histogram: None,
                top: None,
                net_timeout: None,
            };
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-k" => a.k = parse_num(take_value(&mut args, "-k")?, "-k")?,
                    "--ranks" => a.ranks = parse_num(take_value(&mut args, "--ranks")?, "--ranks")?,
                    "--dir" => a.dir = Some(take_value(&mut args, "--dir")?),
                    "--serve-reads" => {
                        a.serve_reads = Some(take_value(&mut args, "--serve-reads")?)
                    }
                    "--canonical" => a.canonical = true,
                    "--batch" => a.batch = parse_num(take_value(&mut args, "--batch")?, "--batch")?,
                    "-o" | "--output" => a.output = Some(take_value(&mut args, "-o")?),
                    "--metrics" => a.metrics = Some(take_value(&mut args, "--metrics")?),
                    "--histogram" => {
                        a.histogram =
                            Some(parse_num(take_value(&mut args, "--histogram")?, "--histogram")?)
                    }
                    "--top" => a.top = Some(parse_num(take_value(&mut args, "--top")?, "--top")?),
                    "--net-timeout" => {
                        a.net_timeout = Some(take_duration(&mut args, "--net-timeout")?)
                    }
                    other if !other.starts_with('-') && keys.is_none() => {
                        keys = Some(other.to_string())
                    }
                    other => return Err(format!("query: unknown argument {other:?}")),
                }
            }
            a.keys = keys.ok_or("query: missing keys file (TSV, first column = k-mer)")?;
            if a.k == 0 || a.k > 64 {
                return Err("query: k must be in 1..=64".into());
            }
            if a.ranks == 0 {
                return Err("query: --ranks must be at least 1".into());
            }
            if a.batch == 0 {
                return Err("query: --batch must be at least 1".into());
            }
            match (&a.dir, &a.serve_reads) {
                (Some(_), Some(_)) => {
                    return Err("query: --dir and --serve-reads are mutually exclusive".into())
                }
                (None, None) => {
                    return Err(
                        "query: need --dir DIR (join a running serve) or --serve-reads READS (in-process loopback)"
                            .into(),
                    )
                }
                _ => {}
            }
            Ok(Command::Query(a))
        }
        "model" => {
            let mut a = ModelArgs { dataset: String::new(), nodes: 32 };
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--dataset" => a.dataset = take_value(&mut args, "--dataset")?,
                    "--nodes" => a.nodes = parse_num(take_value(&mut args, "--nodes")?, "--nodes")?,
                    other => return Err(format!("model: unknown argument {other:?}")),
                }
            }
            if a.dataset.is_empty() {
                return Err("model: --dataset is required".into());
            }
            Ok(Command::Model(a))
        }
        "compare" => {
            let mut input = None;
            let mut a = CompareArgs { input: String::new(), k: 31, nodes: 8, ppn: 24 };
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "-k" => a.k = parse_num(take_value(&mut args, "-k")?, "-k")?,
                    "--nodes" => a.nodes = parse_num(take_value(&mut args, "--nodes")?, "--nodes")?,
                    "--ppn" => a.ppn = parse_num(take_value(&mut args, "--ppn")?, "--ppn")?,
                    other if !other.starts_with('-') && input.is_none() => {
                        input = Some(other.to_string())
                    }
                    other => return Err(format!("compare: unknown argument {other:?}")),
                }
            }
            a.input = input.ok_or("compare: missing input file")?;
            Ok(Command::Compare(a))
        }
        "analyze" => {
            let mut a = AnalyzeArgs { inputs: Vec::new(), out: None, diff: false, threshold: 1.5 };
            let mut args = it;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--out" => a.out = Some(take_value(&mut args, "--out")?),
                    "--diff" => a.diff = true,
                    "--threshold" => {
                        let t: f64 =
                            parse_num(take_value(&mut args, "--threshold")?, "--threshold")?;
                        if !t.is_finite() || t < 1.0 {
                            return Err("analyze: --threshold must be a ratio >= 1.0".into());
                        }
                        a.threshold = t;
                    }
                    other if !other.starts_with('-') => a.inputs.push(other.to_string()),
                    other => return Err(format!("analyze: unknown argument {other:?}")),
                }
            }
            if a.inputs.is_empty() {
                return Err("analyze: missing input file(s)".into());
            }
            if a.diff && a.inputs.len() != 2 {
                return Err("analyze: --diff needs exactly two artifacts (baseline current)".into());
            }
            Ok(Command::Analyze(a))
        }
        "help" | "-h" | "--help" => Ok(Command::Help),
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("dakc".to_string())
            .chain(s.split_whitespace().map(String::from))
            .collect()
    }

    #[test]
    fn parse_count_full() {
        let cmd = parse_args(argv("count in.fq -k 21 --threads 4 --canonical --l3 1024 -o out.tsv --min-count 2")).unwrap();
        let Command::Count(a) = cmd else { panic!("not count") };
        assert_eq!(a.input, "in.fq");
        assert_eq!(a.k, 21);
        assert_eq!(a.threads, 4);
        assert!(a.canonical);
        assert_eq!(a.l3, Some(1024));
        assert_eq!(a.output.as_deref(), Some("out.tsv"));
        assert_eq!(a.min_count, 2);
    }

    #[test]
    fn parse_count_defaults() {
        let cmd = parse_args(argv("count reads.fa")).unwrap();
        let Command::Count(a) = cmd else { panic!() };
        assert_eq!(a.k, 31);
        assert!(!a.canonical);
        assert_eq!(a.min_count, 1);
    }

    #[test]
    fn count_requires_input() {
        assert!(parse_args(argv("count -k 31")).is_err());
    }

    #[test]
    fn count_rejects_bad_k() {
        assert!(parse_args(argv("count in.fq -k 0")).is_err());
        assert!(parse_args(argv("count in.fq -k 65")).is_err());
        assert!(parse_args(argv("count in.fq -k banana")).is_err());
    }

    #[test]
    fn parse_generate() {
        let cmd =
            parse_args(argv("generate --dataset SRR28206931 --scale-shift 14 --seed 7")).unwrap();
        let Command::Generate(a) = cmd else { panic!() };
        assert_eq!(a.dataset, "SRR28206931");
        assert_eq!(a.scale_shift, 14);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn parse_simulate_protocols() {
        for (txt, proto) in [("1d", Protocol::OneD), ("2D", Protocol::TwoD), ("3d", Protocol::ThreeD)] {
            let cmd =
                parse_args(argv(&format!("simulate r.fq --protocol {txt} --nodes 4"))).unwrap();
            let Command::Simulate(a) = cmd else { panic!() };
            assert_eq!(a.protocol, proto);
            assert_eq!(a.nodes, 4);
        }
    }

    #[test]
    fn parse_count_trace_metrics() {
        let cmd = parse_args(argv("count in.fq --trace t.json --metrics m.json")).unwrap();
        let Command::Count(a) = cmd else { panic!() };
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
    }

    #[test]
    fn parse_simulate_observability_flags() {
        let cmd =
            parse_args(argv("simulate r.fq --trace t.json --metrics m.json --timeline")).unwrap();
        let Command::Simulate(a) = cmd else { panic!() };
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert!(a.timeline);
        let Command::Simulate(b) = parse_args(argv("simulate r.fq")).unwrap() else { panic!() };
        assert!(b.trace.is_none() && !b.timeline);
    }

    #[test]
    fn parse_trace_sample() {
        let Command::Simulate(a) =
            parse_args(argv("simulate r.fq --trace t.json --trace-sample 64")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.trace_sample, Some(64));
        let Command::Count(c) = parse_args(argv("count r.fq --trace-sample 1")).unwrap() else {
            panic!()
        };
        assert_eq!(c.trace_sample, Some(1));
        assert!(parse_args(argv("simulate r.fq --trace-sample zero")).is_err());
    }

    #[test]
    fn parse_route_batch() {
        let Command::Count(a) = parse_args(argv("count r.fq --route-batch 256")).unwrap() else {
            panic!()
        };
        assert_eq!(a.route_batch, Some(256));
        let Command::Count(b) = parse_args(argv("count r.fq")).unwrap() else { panic!() };
        assert_eq!(b.route_batch, None);
        assert!(parse_args(argv("count r.fq --route-batch lots")).is_err());
    }

    #[test]
    fn parse_superkmer_flags() {
        let Command::Count(a) =
            parse_args(argv("count r.fq -k 21 --superkmer --minimizer-len 9")).unwrap()
        else {
            panic!()
        };
        assert!(a.superkmer);
        assert_eq!(a.minimizer_len, Some(9));
        let Command::Count(b) = parse_args(argv("count r.fq --superkmer")).unwrap() else {
            panic!()
        };
        assert!(b.superkmer && b.minimizer_len.is_none());
        let Command::Launch(l) =
            parse_args(argv("launch r.fq --ranks 2 --superkmer --minimizer-len 5")).unwrap()
        else {
            panic!()
        };
        assert!(l.superkmer);
        assert_eq!(l.minimizer_len, Some(5));
        let Command::Simulate(s) = parse_args(argv("simulate r.fq --superkmer")).unwrap() else {
            panic!()
        };
        assert!(s.superkmer);
        // The worker inherits the job's flags from the launcher.
        let Command::Worker(w) = parse_args(argv(
            "worker r.fq --rank 0 --ranks 2 --rendezvous /tmp/rv --superkmer --minimizer-len 11",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(w.job.superkmer);
        assert_eq!(w.job.minimizer_len, Some(11));
        // --minimizer-len without --superkmer is a mistake, not a no-op.
        assert!(parse_args(argv("count r.fq --minimizer-len 7")).is_err());
        // m must fit the k-mer window.
        assert!(parse_args(argv("count r.fq -k 21 --superkmer --minimizer-len 22")).is_err());
        assert!(parse_args(argv("count r.fq -k 21 --superkmer --minimizer-len 0")).is_err());
        // Default m = 7 needs k >= 7.
        assert!(parse_args(argv("count r.fq -k 5 --superkmer")).is_err());
        assert!(parse_args(argv("count r.fq -k 5 --superkmer --minimizer-len 3")).is_ok());
    }

    #[test]
    fn parse_model_and_help() {
        assert!(matches!(parse_args(argv("help")).unwrap(), Command::Help));
        let Command::Model(a) = parse_args(argv("model --dataset \"Synthetic\" --nodes 4")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.nodes, 4);
    }

    #[test]
    fn parse_compare() {
        let Command::Compare(a) = parse_args(argv("compare r.fq --nodes 4 --ppn 6 -k 21")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.nodes, 4);
        assert_eq!(a.ppn, 6);
        assert_eq!(a.k, 21);
    }

    #[test]
    fn parse_launch_full_and_defaults() {
        let cmd = parse_args(argv(
            "launch in.fq --ranks 8 --backend loopback -k 33 --canonical --l3 512 --min-count 2 -o out.tsv --metrics m.json",
        ))
        .unwrap();
        let Command::Launch(a) = cmd else { panic!("not launch") };
        assert_eq!(a.input, "in.fq");
        assert_eq!(a.ranks, 8);
        assert_eq!(a.backend, NetBackend::Loopback);
        assert_eq!(a.k, 33);
        assert!(a.canonical);
        assert_eq!(a.l3, Some(512));
        assert_eq!(a.min_count, 2);
        assert_eq!(a.output.as_deref(), Some("out.tsv"));
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        let Command::Launch(b) = parse_args(argv("launch in.fq")).unwrap() else { panic!() };
        assert_eq!(b.ranks, 4);
        assert_eq!(b.backend, NetBackend::Tcp);
    }

    #[test]
    fn launch_rejects_bad_args() {
        assert!(parse_args(argv("launch")).is_err());
        assert!(parse_args(argv("launch in.fq --ranks 0")).is_err());
        assert!(parse_args(argv("launch in.fq --backend carrier-pigeon")).is_err());
        // Worker-only flags are hidden from `launch`.
        assert!(parse_args(argv("launch in.fq --rank 0")).is_err());
    }

    #[test]
    fn parse_worker() {
        let cmd =
            parse_args(argv("worker in.fq --rank 2 --ranks 4 --rendezvous /tmp/rv")).unwrap();
        let Command::Worker(w) = cmd else { panic!("not worker") };
        assert_eq!(w.rank, 2);
        assert_eq!(w.rendezvous, "/tmp/rv");
        assert_eq!(w.job.ranks, 4);
        assert!(parse_args(argv("worker in.fq --ranks 4 --rendezvous /tmp/rv")).is_err());
        assert!(parse_args(argv("worker in.fq --rank 4 --ranks 4 --rendezvous /tmp/rv")).is_err());
        assert!(parse_args(argv("worker in.fq --rank 0 --ranks 4")).is_err());
    }

    #[test]
    fn parse_launch_fault_tolerance_flags() {
        let cmd = parse_args(argv(
            "launch in.fq --net-timeout 2.5 --net-retries 3 --chaos-seed 42 --chaos-profile drop=5,die:2@100",
        ))
        .unwrap();
        let Command::Launch(a) = cmd else { panic!("not launch") };
        assert_eq!(a.net_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(a.net_retries, Some(3));
        assert_eq!(a.chaos_seed, Some(42));
        assert_eq!(a.chaos_profile.as_deref(), Some("drop=5,die:2@100"));
        let Command::Launch(b) = parse_args(argv("launch in.fq")).unwrap() else { panic!() };
        assert_eq!(b.net_timeout, None);
        assert_eq!(b.net_retries, None);
        assert_eq!(b.chaos_seed, None);
        assert_eq!(b.chaos_profile, None);
        assert!(parse_args(argv("launch in.fq --net-timeout 0")).is_err());
        assert!(parse_args(argv("launch in.fq --net-timeout -1")).is_err());
        assert!(parse_args(argv("launch in.fq --net-retries many")).is_err());
        // The supervisor address is wired by `launch`, not user-settable.
        assert!(parse_args(argv("launch in.fq --supervisor 127.0.0.1:9")).is_err());
    }

    #[test]
    fn parse_launch_recover_flags() {
        let cmd = parse_args(argv("launch in.fq --ranks 4 --backend tcp --recover --max-respawns 5"))
            .unwrap();
        let Command::Launch(a) = cmd else { panic!("not launch") };
        assert!(a.recover);
        assert_eq!(a.max_respawns, Some(5));
        let Command::Launch(b) = parse_args(argv("launch in.fq")).unwrap() else { panic!() };
        assert!(!b.recover);
        assert_eq!(b.max_respawns, None);
        // A respawn budget without the policy is a contradiction.
        assert!(parse_args(argv("launch in.fq --max-respawns 2")).is_err());
        // The flight recorder cannot splice respawned-rank timelines.
        assert!(parse_args(argv("launch in.fq --recover --trace t.json")).is_err());
        // Loopback ranks share one process: nothing to respawn.
        assert!(parse_args(argv("launch in.fq --backend loopback --recover")).is_err());
    }

    #[test]
    fn loopback_rejects_supervisor_only_flags() {
        for flag in [
            "--chaos-seed 3",
            "--chaos-profile die:1@40",
            "--heartbeat-interval 50ms",
            "--status",
            "--status-interval 1s",
        ] {
            let err = parse_args(argv(&format!("launch in.fq --backend loopback {flag}")))
                .expect_err(flag);
            let name = flag.split(' ').next().unwrap();
            assert!(err.contains(name) && err.contains("tcp backend"), "{flag}: {err}");
            assert!(parse_args(argv(&format!("launch in.fq --backend tcp {flag}"))).is_ok());
        }
        // `--epoch` is wired by the launcher, not user-settable.
        assert!(parse_args(argv("launch in.fq --recover --epoch 1")).is_err());
        // The worker receives the forwarded recovery flags.
        let Command::Worker(w) = parse_args(argv(
            "worker in.fq --rank 0 --ranks 2 --rendezvous /tmp/rv --recover --epoch 3",
        ))
        .unwrap() else {
            panic!()
        };
        assert!(w.job.recover);
        assert_eq!(w.epoch, 3);
    }

    #[test]
    fn parse_serve_replicas() {
        let Command::Serve(a) =
            parse_args(argv("serve in.fq --ranks 4 --replicas 2 --dir /tmp/svc")).unwrap()
        else {
            panic!("not serve")
        };
        assert_eq!(a.replicas, 2);
        let Command::Serve(b) = parse_args(argv("serve in.fq --dir /tmp/svc")).unwrap() else {
            panic!()
        };
        assert_eq!(b.replicas, 1);
        assert!(parse_args(argv("serve in.fq --dir /tmp/svc --replicas 0")).is_err());
        // More replicas than ranks would wrap a shard back onto its owner.
        assert!(parse_args(argv("serve in.fq --ranks 3 --replicas 4 --dir /tmp/svc")).is_err());
    }

    #[test]
    fn parse_launch_trace_and_status_flags() {
        let cmd = parse_args(argv(
            "launch in.fq --ranks 4 --trace net.json --trace-sample 16 --status",
        ))
        .unwrap();
        let Command::Launch(a) = cmd else { panic!("not launch") };
        assert_eq!(a.trace.as_deref(), Some("net.json"));
        assert_eq!(a.trace_sample, Some(16));
        assert!(a.status);
        let Command::Launch(b) = parse_args(argv("launch in.fq")).unwrap() else { panic!() };
        assert_eq!(b.trace, None);
        assert_eq!(b.trace_sample, None);
        assert!(!b.status);
        assert!(parse_args(argv("launch in.fq --trace-sample every")).is_err());
        // The worker sees the same trace flags the launcher forwards.
        let Command::Worker(w) = parse_args(argv(
            "worker in.fq --rank 0 --ranks 2 --rendezvous /tmp/rv --trace net.json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(w.job.trace.as_deref(), Some("net.json"));
    }

    #[test]
    fn parse_worker_supervisor() {
        let cmd = parse_args(argv(
            "worker in.fq --rank 1 --ranks 4 --rendezvous /tmp/rv --supervisor 127.0.0.1:7070 --net-timeout 3",
        ))
        .unwrap();
        let Command::Worker(w) = cmd else { panic!("not worker") };
        assert_eq!(w.supervisor.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(w.job.net_timeout, Some(Duration::from_secs(3)));
        let Command::Worker(w2) =
            parse_args(argv("worker in.fq --rank 0 --ranks 2 --rendezvous /tmp/rv")).unwrap()
        else {
            panic!()
        };
        assert_eq!(w2.supervisor, None);
    }

    #[test]
    fn parse_analyze() {
        let Command::Analyze(a) =
            parse_args(argv("analyze trace.json metrics.json --out results/a.json")).unwrap()
        else {
            panic!("not analyze")
        };
        assert_eq!(a.inputs, ["trace.json", "metrics.json"]);
        assert_eq!(a.out.as_deref(), Some("results/a.json"));
        assert!(!a.diff);
        assert_eq!(a.threshold, 1.5);
        let Command::Analyze(d) =
            parse_args(argv("analyze --diff base.json cur.json --threshold 2.0")).unwrap()
        else {
            panic!()
        };
        assert!(d.diff);
        assert_eq!(d.threshold, 2.0);
        assert!(parse_args(argv("analyze")).is_err());
        assert!(parse_args(argv("analyze --diff one.json")).is_err());
        assert!(parse_args(argv("analyze t.json --threshold 0.5")).is_err());
        assert!(parse_args(argv("analyze t.json --frobnicate")).is_err());
    }

    #[test]
    fn parse_durations() {
        assert_eq!(parse_duration("500ms", "-t").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("5s", "-t").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("2.5s", "-t").unwrap(), Duration::from_millis(2500));
        assert_eq!(parse_duration("1m", "-t").unwrap(), Duration::from_secs(60));
        // Bare numbers keep meaning seconds.
        assert_eq!(parse_duration("3", "-t").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_duration("0.25", "-t").unwrap(), Duration::from_millis(250));
        for bad in ["", "ms", "fast", "-1s", "0", "0ms", "1h"] {
            assert!(parse_duration(bad, "-t").is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_launch_duration_flags() {
        let cmd = parse_args(argv(
            "launch in.fq --net-timeout 500ms --heartbeat-interval 50ms --status-interval 2s",
        ))
        .unwrap();
        let Command::Launch(a) = cmd else { panic!("not launch") };
        assert_eq!(a.net_timeout, Some(Duration::from_millis(500)));
        assert_eq!(a.heartbeat_interval, Some(Duration::from_millis(50)));
        assert_eq!(a.status_interval, Some(Duration::from_secs(2)));
        assert!(parse_args(argv("launch in.fq --net-timeout 0")).is_err());
        assert!(parse_args(argv("launch in.fq --net-timeout -1")).is_err());
        assert!(parse_args(argv("launch in.fq --heartbeat-interval soon")).is_err());
    }

    #[test]
    fn parse_count_output_shard() {
        let Command::Count(a) =
            parse_args(argv("count r.fq -k 21 --output-shard t.dakshard")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.output_shard.as_deref(), Some("t.dakshard"));
        let Command::Count(b) = parse_args(argv("count r.fq")).unwrap() else { panic!() };
        assert_eq!(b.output_shard, None);
    }

    #[test]
    fn parse_serve_and_worker() {
        let cmd = parse_args(argv(
            "serve in.fq --dir /tmp/sv --ranks 4 -k 21 --canonical --net-timeout 10s --status",
        ))
        .unwrap();
        let Command::Serve(a) = cmd else { panic!("not serve") };
        assert_eq!(a.input, "in.fq");
        assert_eq!(a.dir, "/tmp/sv");
        assert_eq!(a.ranks, 4);
        assert_eq!(a.k, 21);
        assert!(a.canonical && a.status);
        assert_eq!(a.net_timeout, Some(Duration::from_secs(10)));
        // --dir is mandatory; rank identity is worker-only.
        assert!(parse_args(argv("serve in.fq")).is_err());
        assert!(parse_args(argv("serve in.fq --dir /tmp/sv --rank 0")).is_err());
        let Command::ServeWorker(w) = parse_args(argv(
            "serve-worker in.fq --dir /tmp/sv --ranks 4 --rank 2 --supervisor 127.0.0.1:9 --chaos-profile die:2@50",
        ))
        .unwrap() else {
            panic!("not serve-worker")
        };
        assert_eq!(w.rank, 2);
        assert_eq!(w.supervisor.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(w.job.chaos_profile.as_deref(), Some("die:2@50"));
        assert!(parse_args(argv("serve-worker in.fq --dir /tmp/sv --ranks 4")).is_err());
        assert!(parse_args(argv("serve-worker in.fq --dir /tmp/sv --ranks 4 --rank 4")).is_err());
    }

    #[test]
    fn parse_query() {
        let cmd = parse_args(argv(
            "query keys.tsv --dir /tmp/sv --ranks 4 -k 21 --batch 2048 -o out.tsv --metrics m.json --histogram 8 --top 5",
        ))
        .unwrap();
        let Command::Query(a) = cmd else { panic!("not query") };
        assert_eq!(a.keys, "keys.tsv");
        assert_eq!(a.dir.as_deref(), Some("/tmp/sv"));
        assert_eq!(a.batch, 2048);
        assert_eq!(a.histogram, Some(8));
        assert_eq!(a.top, Some(5));
        let Command::Query(b) =
            parse_args(argv("query keys.tsv --serve-reads in.fq --canonical")).unwrap()
        else {
            panic!()
        };
        assert_eq!(b.serve_reads.as_deref(), Some("in.fq"));
        assert!(b.canonical);
        assert_eq!(b.batch, 1024);
        // One of --dir / --serve-reads, not both, not neither.
        assert!(parse_args(argv("query keys.tsv")).is_err());
        assert!(parse_args(argv("query keys.tsv --dir d --serve-reads r.fq")).is_err());
        assert!(parse_args(argv("query keys.tsv --dir d --batch 0")).is_err());
        assert!(parse_args(argv("query --dir d")).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(parse_args(argv("frobnicate")).is_err());
        assert!(parse_args(vec!["dakc".into()]).is_err());
    }
}
