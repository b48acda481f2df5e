//! The span recorder of the traced pass.
//!
//! Spans are recorded from this crate only, around calls into the layers'
//! public functions; they live in memory until the pass ends. A span's
//! self time is its duration minus its children's, so the self times of a
//! tree sum to its root.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

pub struct Ledger {
    t0: Instant,
    /// `false` runs the same calls with no recording: the base of
    /// `bench.trace_overhead`.
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Ledger {
    pub fn new(enabled: bool) -> Self {
        Self {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the span open now.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span (the root).
    pub fn root_s(&self) -> f64 {
        self.spans.first().map_or(0.0, |s| s.end_s - s.start_s)
    }

    /// Self time summed by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += t;
        }
        by_name
    }

    /// The self-time table: one row per span name, largest first, then the
    /// sum beside the root span.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&str, f64)> = self.self_times().into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let root = self.root_s();
        let mut out = format!("{:<24} {:>12} {:>8}\n", "span", "self_s", "share");
        let mut sum = 0.0;
        for (name, t) in rows {
            sum += t;
            out.push_str(&format!(
                "{name:<24} {t:>12.6} {:>7.1}%\n",
                100.0 * t / root
            ));
        }
        out.push_str(&format!(
            "{:<24} {sum:>12.6} (root span {root:.6})\n",
            "sum of self times"
        ));
        out
    }

    /// The spans as a Chrome trace-event document `dakc analyze` reads:
    /// one complete (`X`) event per span carrying its id, parent and the
    /// workload, a `phase` instant where each child of the root starts and
    /// where the root ends (the event `dakc analyze` builds its phase
    /// table from), and the self-time table under the top-level `dakc` key.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut rows = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"dakc-perf\"}}".to_string(),
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"ledger\"}}".to_string(),
        ];
        let phase_at = |phase: usize, at_s: f64| {
            format!(
                "{{\"name\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\
                 \"args\":{{\"phase\":{phase}}}}}",
                at_s * 1e6
            )
        };
        let mut phase = 0;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            rows.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
            ));
            if s.parent == Some(0) {
                rows.push(phase_at(phase, s.start_s));
                phase += 1;
            }
        }
        // A closing instant, so the analyzer gives the last stage a duration.
        if let Some(root) = self.spans.first() {
            rows.push(phase_at(phase, root.end_s));
        }
        let table: Vec<String> = self
            .self_times()
            .iter()
            .map(|(n, t)| format!("\"{n}\":{t}"))
            .collect();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"dakc\":{{\"workload\":\"{workload}\",\"root_s\":{},\"self_s\":{{{}}}}}}}\n",
            rows.join(",\n"),
            self.root_s(),
            table.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root() {
        let mut l = Ledger::new(true);
        l.span("root", |l| {
            l.span("a", |l| {
                l.span("b", |_| std::hint::black_box((0..10_000).sum::<u64>()));
            });
            l.span("b", |_| ());
        });
        let sum: f64 = l.self_times().values().sum();
        assert!((sum - l.root_s()).abs() <= 1e-9 * l.root_s().max(1.0));
        assert_eq!(l.spans().len(), 4);
        assert_eq!(l.spans()[2].parent, Some(1));
        assert!(l.chrome_trace("w").contains("\"parent\":1"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut l = Ledger::new(false);
        assert_eq!(l.span("root", |l| l.span("a", |_| 7)), 7);
        assert!(l.spans().is_empty());
    }
}
