//! `dakc-perf`: the repository's benchmark harness. `perf/run.sh` builds
//! it beside the `dakc` binary and passes its arguments through; see
//! `perf/README.md` for the metric catalogue and how to read the output.

mod api;
mod catalogue;
mod compare;
mod e2e;
mod layers;
mod ledger;
mod report;
mod setup;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Pass;
use setup::Ctx;
use workload::{Workload, WORKLOADS};

/// `run_seconds` of BENCHMARK.json: how long the driver lets a pass measure.
const RUN_SECONDS: u32 = 30;

const USAGE: &str = "\
usage: perf/run.sh [--workload NAME] [--seed N] [--seconds S | --reps N]
                   [--out DIR] [--trace [0|1]] [--smoke]
       perf/compare.sh A B

  --workload NAME  one of uniform_k31, repeats_k31c, short_k15 (default: all three)
  --seed N         workload seed (default 1)
  --seconds S      seconds a pass may measure for; repetitions are fitted to it
  --reps N         repetitions per engine (at least 5 end to end, 3 traced)
  --out DIR        where result and trace files go (default perf/out)
  --trace [0|1]    0: the end-to-end pass only; 1 or no value: the traced pass only;
                   absent: the end-to-end pass, then the traced pass
  --smoke          every workload at 2^-6 size, one repetition: correctness and
                   metric-name completeness only";

struct Args {
    dakc: PathBuf,
    workload: Option<&'static Workload>,
    out: PathBuf,
    /// `None`: both passes; `Some(traced)`: that pass only.
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    smoke: bool,
    corrupt_oracle: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        dakc: PathBuf::new(),
        workload: None,
        out: PathBuf::from("perf/out"),
        trace: None,
        seed: 1,
        seconds: None,
        reps: None,
        smoke: false,
        corrupt_oracle: false,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| it.next()) {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: invalid value {v:?}"))
        }
        match flag.as_str() {
            "--dakc" => a.dakc = PathBuf::from(value("a path")?),
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--workload" => {
                let name = value("a name")?;
                a.workload =
                    Some(workload::find(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = num(&flag, value("a number")?)?,
            "--seconds" => a.seconds = Some(num(&flag, value("a number")?)?),
            "--reps" => a.reps = Some(num(&flag, value("a number")?)?),
            "--smoke" => a.smoke = true,
            // Test-only: proves a wrong result makes the run fail.
            "--corrupt-oracle" => a.corrupt_oracle = true,
            "--trace" => match it.next() {
                Some(v) if v == "0" => a.trace = Some(false),
                Some(v) if v == "1" => a.trace = Some(true),
                next => {
                    a.trace = Some(true);
                    pending = next;
                }
            },
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if a.dakc.as_os_str().is_empty() {
        return Err(format!(
            "--dakc is required (perf/run.sh passes it)\n{USAGE}"
        ));
    }
    Ok(a)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn absolute(p: &Path) -> Result<PathBuf, String> {
    std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()))
}

fn run(args: Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let out = absolute(&args.out)?;
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _scratch = Scratch(tmp.clone());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        dakc: absolute(&args.dakc)?,
        tmp,
        p: nproc.min(4),
        seed: args.seed,
        shrink: if args.smoke { 6 } else { 0 },
        seconds: args.seconds,
        reps: args.reps,
        smoke: args.smoke,
        corrupt_oracle: args.corrupt_oracle,
    };
    let commit = std::env::var("PERF_GIT_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "dakc-perf: nproc {nproc}, P {} (threads = ranks = servers), seed {}, shrink {}, commit {commit}, load {}",
        ctx.p,
        ctx.seed,
        ctx.shrink,
        loadavg()
    );

    let selected: Vec<&'static Workload> = args
        .workload
        .map_or(WORKLOADS.iter().collect(), |w| vec![w]);
    let mut passes: Vec<Pass> = Vec::new();
    for w in selected {
        for traced in [false, true] {
            if args.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let load_start = loadavg();
            let (mut pass, table) = if traced {
                layers::run(&ctx, w, &out)
            } else {
                (e2e::run(&ctx, w), String::new())
            };
            for name in pass.missing() {
                pass.fail(format!("metric {name} was not measured"));
            }
            pass.fact("nproc", nproc);
            pass.fact("p", ctx.p);
            pass.fact("seed", ctx.seed);
            pass.fact("shrink", ctx.shrink);
            pass.fact("git_commit", &commit);
            pass.fact("loadavg_start", load_start);
            pass.fact("loadavg_end", loadavg());
            print!("{}", pass.render());
            if !table.is_empty() {
                println!(
                    "-- ledger self times, last repetition (trace: {}.trace.json)",
                    w.name
                );
                print!("{table}");
            }
            pass.write(&out)?;
            passes.push(pass);
        }
    }
    let ok = passes.iter().all(Pass::correct);
    // The driver's single-workload, single-pass run: its result object
    // is the last line of standard output.
    if let [only] = passes.as_slice() {
        println!("{}", only.contract_json());
    } else {
        let (attempted, failed) = passes
            .iter()
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
        println!(
            "ops_attempted {attempted}  ops_failed {failed}  {}",
            if ok { "all correct" } else { "FAILED" }
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("run") => parse(argv).and_then(run),
        Some("compare") => match (argv.next(), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => compare::run(Path::new(&a), Path::new(&b)),
            _ => Err(USAGE.to_string()),
        },
        // Internal: the child process of `count_peak_rss_mb`.
        Some("rss-probe") => match (argv.next(), argv.next(), argv.next(), argv.next()) {
            (Some(w), Some(seed), Some(shrink), Some(p)) => {
                match (workload::find(&w), seed.parse(), shrink.parse(), p.parse()) {
                    (Some(w), Ok(seed), Ok(shrink), Ok(p)) => {
                        e2e::rss_probe(w, seed, shrink, p).map(|()| true)
                    }
                    _ => Err(USAGE.to_string()),
                }
            }
            _ => Err(USAGE.to_string()),
        },
        // Renders BENCHMARK.json from the catalogue.
        Some("manifest") => {
            print!("{}", catalogue::manifest(RUN_SECONDS));
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dakc-perf: {e}");
            ExitCode::from(2)
        }
    }
}
