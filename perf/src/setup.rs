//! Set-up: everything a pass needs before the first timed call — reads,
//! the FASTQ on disk, the serial oracle, the lookup keys with their true
//! answers, and the serve shards. Timed as `setup_s`, never folded into a
//! rate.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::api::{self, Counts, Mode, ReadSet, ServeShard, Word};
use crate::workload::{self, Rng, Workload};

/// Host and invocation facts every pass shares.
pub struct Ctx {
    /// The `dakc` binary `run.sh` built beside this harness.
    pub dakc: PathBuf,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
    /// Threads, ranks and servers everywhere: `min(nproc, 4)`.
    pub p: usize,
    pub seed: u64,
    /// Further halvings of the workload: 0 in a measured run, 6 under
    /// `--smoke`.
    pub shrink: u32,
    /// Seconds a pass may measure for; `None` means `reps` decides.
    pub seconds: Option<f64>,
    /// Repetitions per engine; `None` means the time budget decides.
    pub reps: Option<usize>,
    /// One repetition, no warm-up: correctness and completeness only.
    pub smoke: bool,
    /// Test-only: damages the oracle so every comparison must fail.
    pub corrupt_oracle: bool,
}

impl Ctx {
    /// Timed repetitions of a pass, counting the `done` already run: one
    /// under `--smoke`, `--reps` if given (at least `min`), else `done`
    /// plus as many as fit before `deadline` at `rep_s` seconds each
    /// (within `min..=max`), else `default`.
    pub fn plan_reps(
        &self,
        deadline: Option<Instant>,
        rep_s: f64,
        done: usize,
        min: usize,
        default: usize,
        max: usize,
    ) -> usize {
        if self.smoke {
            return 1;
        }
        match (self.reps, deadline) {
            (Some(r), _) => r.max(min),
            (None, Some(d)) => {
                let left = d.saturating_duration_since(Instant::now()).as_secs_f64();
                (done + (left / rep_s) as usize).clamp(min, max)
            }
            (None, None) => default,
        }
    }

    /// A fresh empty directory under the scratch directory.
    pub fn scratch_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.tmp.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Lookup keys drawn by the seed, with their true counts (0 = absent).
pub struct Keys {
    pub keys: Vec<Word>,
    pub truth: Vec<u32>,
}

impl Keys {
    /// The keys at `r` with their answers.
    pub fn range(&self, r: std::ops::Range<usize>) -> Keys {
        Keys {
            keys: self.keys[r.clone()].to_vec(),
            truth: self.truth[r].to_vec(),
        }
    }
}

pub struct Setup {
    pub reads: ReadSet,
    pub mode: Mode,
    pub fastq: PathBuf,
    pub fastq_bytes: u64,
    /// Sorted `(k-mer, count)` table of the serial counter.
    pub oracle: Counts,
    /// K-mer occurrences in the input: the numerator of every rate.
    pub occurrences: u64,
    /// Half present, half absent, alternating.
    pub keys: Keys,
    /// The absent half on its own.
    pub miss_keys: Vec<Word>,
    /// `oracle` split by owner into `p` verified shards.
    pub shards: Vec<ServeShard>,
    pub digest: u64,
}

/// Keys for the serve metrics: 2^20 in a measured run, fewer as the
/// workload shrinks.
fn key_count(shrink: u32) -> usize {
    (1usize << 20) >> shrink.min(12)
}

fn draw_keys(oracle: &Counts, k: usize, n: usize, seed: u64) -> (Keys, Vec<Word>) {
    let mut rng = Rng(seed ^ 0x6B65_7973);
    let mask = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut keys = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    let mut misses = Vec::with_capacity(n / 2);
    for i in 0..n {
        if i % 2 == 0 {
            let (w, c) = oracle[(rng.next() % oracle.len() as u64) as usize];
            keys.push(w);
            truth.push(c);
        } else {
            let w = loop {
                let w = rng.next() & mask;
                if oracle.binary_search_by_key(&w, |e| e.0).is_err() {
                    break w;
                }
            };
            keys.push(w);
            truth.push(0);
            misses.push(w);
        }
    }
    (Keys { keys, truth }, misses)
}

pub fn build(ctx: &Ctx, w: &Workload) -> Result<Setup, String> {
    let input = w.generate(ctx.seed, ctx.shrink);
    let (reads, mode) = (input.reads, input.mode);
    let fastq = ctx.tmp.join(format!("{}.fastq", w.name));
    let fastq_bytes =
        api::write_fastq(&fastq, &reads).map_err(|e| format!("{}: {e}", fastq.display()))?;
    let mut oracle = api::count_serial(&reads, mode);
    if oracle.is_empty() {
        return Err(format!("{}: the oracle counted nothing", w.name));
    }
    let occurrences = api::total_kmers(&reads, mode.k);
    let (keys, miss_keys) = draw_keys(&oracle, mode.k, key_count(ctx.shrink), ctx.seed);
    let mut parts: Vec<Counts> = vec![Vec::new(); ctx.p];
    for &e in &oracle {
        parts[api::owner_of(e.0, ctx.p)].push(e);
    }
    let shards = parts
        .iter()
        .enumerate()
        .map(|(rank, part)| api::shard_load(&api::shard_encode(part, mode, rank, ctx.p)))
        .collect::<Result<Vec<_>, _>>()?;
    if ctx.corrupt_oracle {
        oracle[0].1 += 1;
    }
    let digest = workload::digest(&reads);
    Ok(Setup {
        reads,
        mode,
        fastq,
        fastq_bytes,
        oracle,
        occurrences,
        keys,
        miss_keys,
        shards,
        digest,
    })
}

/// Order-independent digest of a multiset of k-mer occurrences: how many,
/// and their wrapping sum.
pub fn checksum(words: impl Iterator<Item = (Word, u32)>) -> (u64, u64) {
    words.fold((0, 0), |(n, sum), (w, c)| {
        (
            n + u64::from(c),
            sum.wrapping_add(w.wrapping_mul(u64::from(c))),
        )
    })
}

/// Compares an engine's table with the oracle.
pub fn check_counts(got: &Counts, oracle: &Counts) -> Result<(), String> {
    if got == oracle {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(oracle)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(oracle.len()));
    Err(format!(
        "counts differ from the oracle: {} records against {}, first difference at record {at}",
        got.len(),
        oracle.len()
    ))
}

/// Parses a `KMER<TAB>COUNT` file back and compares it with the oracle,
/// record by record.
pub fn check_tsv(path: &Path, k: usize, oracle: &Counts) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut want = oracle.iter();
    let mut n = 0usize;
    for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let bad = || format!("{}: record {n} is malformed", path.display());
        if line.len() < k + 2 || line[k] != b'\t' {
            return Err(bad());
        }
        let word = api::word_of_dna(&line[..k], k).ok_or_else(bad)?;
        let count: u32 = std::str::from_utf8(&line[k + 1..])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        if want.next() != Some(&(word, count)) {
            return Err(format!(
                "{}: record {n} differs from the oracle",
                path.display()
            ));
        }
        n += 1;
    }
    if n != oracle.len() {
        return Err(format!(
            "{}: {n} records, the oracle has {}",
            path.display(),
            oracle.len()
        ));
    }
    Ok(())
}
