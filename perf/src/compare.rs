//! `compare A B`: checks result set B against result set A.
//!
//! A result set is a directory of `<workload>.e2e.json` and
//! `<workload>.layers.json` files as a run writes them. End-to-end
//! metrics are held to their bound; exact counts must be equal;
//! timing-dependent counts are listed and never gated; where either
//! side's own spread exceeds the bound the verdict is "unresolved", not
//! "unchanged". Sets taken at different sizes (`--smoke` against a
//! measured run) share metric names and nothing else: they are refused.

use std::path::Path;

use crate::api::json::{self, JsonValue};
use crate::catalogue::{self, Better, Kind};
use crate::workload::WORKLOADS;

struct Entry {
    median: f64,
    spread: f64,
}

fn entry(doc: &JsonValue, name: &str) -> Option<Entry> {
    let m = doc.get("metrics")?.get(name)?;
    let num = |k: &str| m.get(k).and_then(JsonValue::as_f64);
    let (median, q1, q3) = (num("median")?, num("q1")?, num("q3")?);
    let spread = if median == 0.0 {
        0.0
    } else {
        ((q3 - q1) / median).abs()
    };
    Some(Entry { median, spread })
}

fn load(dir: &Path, stem: &str) -> Result<JsonValue, String> {
    let path = dir.join(format!("{stem}.json"));
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(true)` when B holds every bound and every
/// exact count.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let mut ok = true;
    let mut loose = Vec::new();
    for w in WORKLOADS {
        for (suffix, metrics) in [
            ("e2e", catalogue::END_TO_END),
            ("layers", catalogue::PER_LAYER),
        ] {
            let stem = format!("{}.{suffix}", w.name);
            let (da, db) = (load(a, &stem)?, load(b, &stem)?);
            let size = |doc: &JsonValue| {
                let shrink = doc.get("facts")?.get("shrink")?;
                shrink.as_str().map(str::to_string)
            };
            if size(&da).is_none() || size(&da) != size(&db) {
                return Err(format!(
                    "{stem}: the sets were taken at different sizes (shrink {:?} against {:?})",
                    size(&da),
                    size(&db)
                ));
            }
            for (side, doc) in [("A", &da), ("B", &db)] {
                let failed = doc
                    .get("ops_failed")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                if failed != 0.0 {
                    println!("{stem}: set {side} has ops_failed = {failed}");
                    ok = false;
                }
            }
            println!("== {stem}");
            println!(
                "{:<32} {:>16} {:>16} {:>9} {:>8}  verdict",
                "metric", "A", "B", "change", "spread"
            );
            for m in metrics {
                let (Some(ea), Some(eb)) = (entry(&da, m.name), entry(&db, m.name)) else {
                    println!("{:<32} missing from a result set", m.name);
                    ok = false;
                    continue;
                };
                let change = if ea.median == 0.0 {
                    0.0
                } else {
                    (eb.median - ea.median) / ea.median.abs()
                };
                let worse = match m.better {
                    Better::Lower => change,
                    Better::Higher => -change,
                };
                let spread = ea.spread.max(eb.spread);
                let verdict = match (m.kind, m.bound) {
                    (Kind::Exact, _) if ea.median == eb.median => "equal",
                    (Kind::Exact, _) => {
                        ok = false;
                        "DIFFERS (exact count)"
                    }
                    (Kind::TimingCount, _) => {
                        loose.push(format!("{stem} {}: {} -> {}", m.name, ea.median, eb.median));
                        "timing-dependent"
                    }
                    (Kind::Timing, Some(bound)) if worse > bound => {
                        ok = false;
                        "REGRESSED"
                    }
                    (Kind::Timing, Some(bound)) if spread > bound => "unresolved",
                    (Kind::Timing, Some(bound)) if worse < -bound => "improved",
                    (Kind::Timing, Some(_)) => "unchanged",
                    (Kind::Timing, None) => "",
                };
                println!(
                    "{:<32} {:>16.6} {:>16.6} {:>+8.1}% {:>7.1}%  {verdict}",
                    m.name,
                    ea.median,
                    eb.median,
                    100.0 * change,
                    100.0 * spread
                );
            }
        }
    }
    if !loose.is_empty() {
        println!("== timing-dependent counts (not gated)");
        loose.iter().for_each(|l| println!("{l}"));
    }
    println!(
        "{}",
        if ok {
            "compare: B is within every bound of A"
        } else {
            "compare: FAILED"
        }
    );
    Ok(ok)
}
