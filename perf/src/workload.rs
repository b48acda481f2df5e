//! The three workloads: what they are, why they exist, and how a seed
//! becomes their input. The program under test only ever sees the
//! generated reads (in memory or as a FASTQ on disk).

use crate::api::{self, Mode, ReadSet};

/// Halvings of the sizes the issue names (≈15-21 M k-mer occurrences).
/// The driver's time cap (70 runs and two builds in 3420 s) leaves about
/// 40 s a run; five repetitions of every engine after a warm-up round fit
/// that at half the issue's size and not at the whole (README.md, "Load
/// and sizes").
const SIZE_SHIFT: u32 = 1;

#[derive(Debug, Clone, Copy)]
enum Source {
    /// `Synthetic 24`: uniform genome, 150 bp reads, ≈50× coverage.
    Uniform,
    /// Human surrogate `SRR28206931`: 8 % (AATGG)n arrays, 149 bp, ≈12.7×.
    Repeats,
    /// 60 bp reads off a uniform genome, ≈50×.
    Short,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub k: usize,
    pub canonical: bool,
    source: Source,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "uniform_k31",
        why: "uniform genome, k=31, forward, L3 off: every k-mer crosses the wire once into a long sort of duplicated 62-bit keys; sort, extract and the words wire path dominate, spans are longest",
        k: 31,
        canonical: false,
        source: Source::Uniform,
    },
    Workload {
        name: "repeats_k31c",
        why: "Human surrogate with (AATGG)n arrays, k=31, canonical, L3 on: heavy hitters work L3 and the HEAVY channel, owners are skewed, low coverage makes output, gather and shards largest",
        k: 31,
        canonical: true,
        source: Source::Repeats,
    },
    Workload {
        name: "short_k15",
        why: "60 bp reads, k=15, forward, L3 off: three times the FASTQ records per k-mer so parsing and per-read set-up dominate; 30-bit keys halve the radix passes; spans short, output cache-resident",
        k: 15,
        canonical: false,
        source: Source::Short,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated input and the flags the engines run it with.
pub struct Input {
    pub reads: ReadSet,
    pub mode: Mode,
}

impl Workload {
    /// Generates the reads for `seed`. `shrink` halves the workload that
    /// many more times: 0 in a measured run, more under `--smoke` and in
    /// the tests.
    pub fn generate(&self, seed: u64, shrink: u32) -> Input {
        let total = SIZE_SHIFT + shrink;
        let (reads, l3) = match self.source {
            Source::Uniform => (api::gen_uniform(5 + total, seed), false),
            Source::Repeats => api::gen_repeats(11 + total, seed),
            Source::Short => {
                let genome = ((1usize << 19) >> total).max(240);
                let reads = (436_906usize >> total).max(16);
                (api::gen_short(genome, reads, 60, seed), false)
            }
        };
        Input {
            reads,
            mode: Mode {
                k: self.k,
                canonical: self.canonical,
                l3,
            },
        }
    }
}

/// SplitMix64: the harness's own generator for lookup keys, so key
/// choice depends on nothing but the seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// FNV-1a over every read (length-prefixed): the input digest that shows
/// whether two runs saw the same reads.
pub fn digest(reads: &ReadSet) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for r in reads.iter() {
        (r.len() as u32)
            .to_le_bytes()
            .into_iter()
            .for_each(&mut eat);
        r.iter().copied().for_each(&mut eat);
    }
    h
}
