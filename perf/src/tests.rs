//! Tests of the benchmark's own contract: the files that must agree do,
//! and what is called exact repeats exactly.

use std::path::{Path, PathBuf};

use crate::catalogue::{self, Kind};
use crate::setup::Ctx;
use crate::workload::WORKLOADS;
use crate::{layers, RUN_SECONDS};

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits in the repository")
}

/// The `[profile.release]` table of a manifest: its settings, in order.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_is_the_roots() {
    let root = release_profile(&repo().join("Cargo.toml"));
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release]"
    );
    assert_eq!(release_profile(&repo().join("perf/Cargo.toml")), root);
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = repo().join("BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        on_disk,
        catalogue::manifest(RUN_SECONDS),
        "regenerate with `dakc-perf manifest`"
    );
}

#[test]
fn catalogue_meets_the_contract_limits() {
    let names: Vec<&str> = catalogue::END_TO_END
        .iter()
        .chain(catalogue::PER_LAYER)
        .map(|m| m.name)
        .collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a metric name is used twice");
    assert!(names.iter().all(|n| n.len() <= 64));
    assert!(catalogue::END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!((1..=16).contains(&catalogue::END_TO_END.len()) && catalogue::PER_LAYER.len() <= 128);
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}

fn ctx(seed: u64, tag: &str) -> Ctx {
    let tmp: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    Ctx {
        dakc: PathBuf::new(),
        tmp,
        p: 2,
        seed,
        // Synthetic 24 at 2^-12: 1365 reads.
        shrink: 6,
        seconds: None,
        reps: None,
        smoke: true,
        corrupt_oracle: false,
    }
}

#[test]
fn reps_flag_is_the_number_of_repetitions() {
    let mut c = ctx(1, "reps");
    c.smoke = false;
    c.reps = Some(4);
    // The traced pass has run one repetition when it plans: four in all.
    assert_eq!(c.plan_reps(None, 1.0, 1, 3, 3, 9), 4);
    // Never fewer than the pass's minimum.
    assert_eq!(c.plan_reps(None, 1.0, 0, 5, 7, 15), 5);
    let _ = std::fs::remove_dir_all(c.tmp);
}

#[test]
fn exact_counts_repeat_and_seeds_differ() {
    for w in WORKLOADS {
        let (first, again, other) = (ctx(7, "a"), ctx(7, "b"), ctx(8, "c"));
        let (a, digest_a) = layers::exact_counts(&first, w).expect("first run");
        let (b, digest_b) = layers::exact_counts(&again, w).expect("second run");
        let (_, digest_c) = layers::exact_counts(&other, w).expect("other seed");
        assert_eq!(a.failed + b.failed, 0, "{:?} {:?}", a.failures, b.failures);
        assert_eq!(digest_a, digest_b, "{}: one seed, one input", w.name);
        assert_ne!(
            digest_a, digest_c,
            "{}: another seed, another input",
            w.name
        );
        for m in catalogue::PER_LAYER
            .iter()
            .filter(|m| m.kind == Kind::Exact)
        {
            let (x, y) = (a.summary(m.name), b.summary(m.name));
            assert!(x.is_some(), "{}: {} was not measured", w.name, m.name);
            assert_eq!(x, y, "{}: {} is catalogued exact", w.name, m.name);
        }
        for c in [first, again, other] {
            let _ = std::fs::remove_dir_all(c.tmp);
        }
    }
}
