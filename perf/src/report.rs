//! What a pass produces and how it is printed and written.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalogue::{self, Kind, Metric};
use crate::stats::{summarize, Summary};

/// Samples, operation counts and failures of one pass over one workload.
pub struct Pass {
    pub workload: &'static str,
    pub traced: bool,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Every engine repetition and every lookup is one operation.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Facts about the input and the run, printed and written as given.
    pub facts: Vec<(&'static str, String)>,
}

impl Pass {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            facts: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalogue::find(name).is_some(),
            "{name} is not in the catalogue"
        );
        self.samples.entry(name).or_default().push(value);
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Counts one operation; a failure is recorded, printed and kept.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.ops(what, 1, result)
    }

    /// Counts `n` operations that succeed or fail together.
    pub fn ops<T>(&mut self, what: &str, n: u64, result: Result<T, String>) -> Option<T> {
        self.attempted += n;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, msg: String) {
        eprintln!("FAILED [{}] {msg}", self.workload);
        if self.failures.len() < 32 {
            self.failures.push(msg);
        }
    }

    fn metrics(&self) -> &'static [Metric] {
        if self.traced {
            catalogue::PER_LAYER
        } else {
            catalogue::END_TO_END
        }
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).and_then(|s| summarize(s))
    }

    /// Catalogue metrics of this pass with no finite value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.metrics()
            .iter()
            .map(|m| m.name)
            .filter(|n| self.summary(n).is_none())
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.missing().is_empty()
    }

    /// The table a person reads: every metric by name with its unit.
    pub fn render(&self) -> String {
        let pass = if self.traced {
            "per-layer (traced pass)"
        } else {
            "end-to-end (tracing off)"
        };
        let mut out = format!("== {} · {pass}\n", self.workload);
        for (k, v) in &self.facts {
            out.push_str(&format!("   {k}: {v}\n"));
        }
        out.push_str(&format!(
            "{:<32} {:>16} {:<6} {:>16} {:>16} {:>4}\n",
            "metric", "median", "unit", "q1", "q3", "n"
        ));
        for m in self.metrics() {
            match self.summary(m.name) {
                Some(s) => out.push_str(&format!(
                    "{:<32} {:>16.6} {:<6} {:>16.6} {:>16.6} {:>4}{}\n",
                    m.name,
                    s.median,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.n,
                    match m.kind {
                        Kind::Timing => "",
                        Kind::Exact => "  exact",
                        Kind::TimingCount => "  timing-dependent",
                    }
                )),
                None => out.push_str(&format!("{:<32} {:>16}\n", m.name, "MISSING")),
            }
        }
        out.push_str(&format!(
            "ops_attempted {}  ops_failed {}\n",
            self.attempted, self.failed
        ));
        out
    }

    /// The one-line JSON object the driver reads.
    pub fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .filter_map(|m| {
                let s = self.summary(m.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, s.median, m.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file `compare` reads: each metric with median, quartiles,
    /// sample count and samples, beside the facts of the run.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .filter_map(|m| {
                let s = self.summary(m.name)?;
                let samples: Vec<String> = self.samples[m.name].iter().map(f64::to_string).collect();
                Some(format!(
                    "    \"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \"samples\": [{}]}}",
                    m.name, s.median, s.q1, s.q3, s.n, m.unit, samples.join(", ")
                ))
            })
            .collect();
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("    \"{k}\": \"{}\"", crate::api::json::escape(v)))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"traced\": {},\n  \"ops_attempted\": {},\n  \"ops_failed\": {},\n  \"facts\": {{\n{}\n  }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            self.workload,
            self.traced,
            self.attempted,
            self.failed,
            facts.join(",\n"),
            metrics.join(",\n"),
        )
    }

    pub fn write(&self, out: &Path) -> Result<(), String> {
        let pass = if self.traced { "layers" } else { "e2e" };
        let path = out.join(format!("{}.{pass}.json", self.workload));
        std::fs::write(&path, self.detail_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}
