//! Named counters and fixed-bucket histograms.
//!
//! Means hide exactly what the paper's tuning decisions need: whether L2
//! packets ship full or half-empty, whether L3 batches flush at capacity,
//! how long each PE sat in the barrier. A [`Histogram`] answers those as a
//! distribution; the [`MetricsRegistry`] keys them by name with
//! deterministic (sorted) iteration so two identical runs render
//! byte-identical JSON.

use std::collections::BTreeMap;

use super::json::escape;

/// Bucket bounds for percent-valued metrics (fill ratios, occupancy).
pub const PCT_BOUNDS: &[f64] = &[10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];

/// Bucket bounds for payload sizes in bytes (powers of four).
pub const BYTES_BOUNDS: &[f64] =
    &[64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0];

/// Bucket bounds for barrier waits in (virtual) seconds.
pub const SECONDS_BOUNDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Bucket bounds for message hop counts.
pub const HOPS_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 3.0, 4.0];

/// Bucket bounds for message-latency seconds: a 1–2–5 ladder per decade
/// from 100 ns to 1 s. Fine enough that an interpolated percentile
/// ([`Histogram::quantile`]) is off by at most one bucket width — ≤ 2.5×
/// relative on this ladder — versus the 10× a decade-per-bucket ladder
/// like [`SECONDS_BOUNDS`] would allow.
pub const LATENCY_BOUNDS: &[f64] = &[
    1e-7, 2e-7, 5e-7, 1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,
];

/// A fixed-bucket histogram with conserved totals under merge.
///
/// `counts[i]` counts observations `v <= bounds[i]` (and greater than the
/// previous bound); the final slot counts overflow beyond the last bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over `bounds` (must be non-empty and ascending).
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` identical observations of `v` (used to fold locally
    /// accumulated per-record tallies in one call).
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds `other` into `self`. Merging is associative and commutative and
    /// conserves total counts; both sides must share bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forgets every observation, keeping the bounds.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.max)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation *within* the containing bucket, Prometheus-style.
    ///
    /// The rank `q·n` is located by walking the cumulative bucket counts;
    /// the estimate then assumes in-bucket observations are uniformly
    /// spread over `(lower, upper]`. The result always lies inside the
    /// bucket that truly contains the ranked observation, so the absolute
    /// error is bounded by that bucket's width (the first bucket is
    /// tightened to start at `min`, the overflow bucket to end at `max`,
    /// and the estimate is clamped to `[min, max]`). `q = 0` returns the
    /// exact `min`, `q = 1` the exact `max`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        let target = q * n as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) >= target {
                // First bucket with cum >= target also has c > 0
                // (earlier buckets left cum == prev < target).
                let lower = if i == 0 { self.min } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() { self.bounds[i] } else { self.max };
                let frac = (target - prev as f64) / c as f64;
                let est = lower + frac * (upper - lower);
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Rebuilds a histogram from its serialized parts (the inverse of the
    /// JSON rendering), so per-process registries can be gathered across
    /// a wire. `min`/`max` are `None` for an empty histogram.
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Result<Self, String> {
        if bounds.is_empty() || !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("bounds must be non-empty and strictly ascending".into());
        }
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "counts length {} != bounds length {} + 1",
                counts.len(),
                bounds.len()
            ));
        }
        let total: u64 = counts.iter().sum();
        if (total == 0) != (min.is_none() && max.is_none()) {
            return Err("min/max must be present exactly when counts are nonzero".into());
        }
        Ok(Self {
            bounds,
            counts,
            sum,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        })
    }

    fn to_json(&self, out: &mut String) {
        out.push_str("{\"bounds\":[");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_num(*b));
        }
        out.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("],\"count\":");
        out.push_str(&self.count().to_string());
        out.push_str(",\"sum\":");
        out.push_str(&fmt_num(self.sum));
        if self.count() > 0 {
            out.push_str(",\"min\":");
            out.push_str(&fmt_num(self.min));
            out.push_str(",\"max\":");
            out.push_str(&fmt_num(self.max));
        }
        out.push('}');
    }
}

/// Formats an f64 as JSON (no NaN/Inf — clamped to null-safe 0).
pub(crate) fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Named counters + histograms with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Records `v` into histogram `name`, creating it over `bounds` on
    /// first use. Later calls ignore `bounds` (the first registration
    /// wins), so pass the same constant everywhere.
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::with_bounds(bounds);
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Records `n` identical observations of `v` into histogram `name`
    /// (see [`MetricsRegistry::observe`] for the bounds contract).
    pub fn observe_n(&mut self, name: &str, bounds: &[f64], v: f64, n: u64) {
        if n == 0 {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(h) => h.observe_n(v, n),
            None => {
                let mut h = Histogram::with_bounds(bounds);
                h.observe_n(v, n);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Merges a locally tallied histogram into `name` and empties it. A
    /// hot path observes into its own [`Histogram`] and folds it here
    /// once, instead of looking `name` up per observation; for
    /// integer-valued observations the rendered JSON is the same either
    /// way. An empty `local` leaves the registry untouched, so a metric
    /// nothing observed stays absent.
    pub fn fold_histogram(&mut self, name: &str, local: &mut Histogram) {
        if local.count() > 0 {
            self.absorb(name, local);
            local.reset();
        }
    }

    /// Adds `h` into histogram `name`, creating it as a copy of `h`.
    fn absorb(&mut self, name: &str, h: &Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self` (counters add, histograms merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, h) in &other.histograms {
            self.absorb(k, h);
        }
    }

    /// Deterministic JSON rendering:
    /// `{"counters":{...},"histograms":{name:{bounds,counts,count,sum,min,max}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\":");
            h.to_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// Parses a registry back from [`MetricsRegistry::to_json`] output.
    /// Round-trips every counter exactly; histogram `sum`/`min`/`max` go
    /// through decimal text (f64 `Display` prints shortest-roundtrip, so
    /// in practice these are exact too). Used to gather per-rank
    /// registries from worker processes.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = super::json::parse(text)?;
        let mut m = Self::new();
        let counters = v
            .get("counters")
            .and_then(|c| c.as_obj())
            .ok_or("missing counters object")?;
        for (name, val) in counters {
            let n = val.as_f64().ok_or_else(|| format!("counter {name} not a number"))?;
            m.counters.insert(name.clone(), n as u64);
        }
        let histograms = v
            .get("histograms")
            .and_then(|h| h.as_obj())
            .ok_or("missing histograms object")?;
        for (name, hv) in histograms {
            let nums = |key: &str| -> Result<Vec<f64>, String> {
                hv.get(key)
                    .and_then(|a| a.as_arr())
                    .ok_or_else(|| format!("histogram {name} missing {key}"))?
                    .iter()
                    .map(|x| x.as_f64().ok_or_else(|| format!("{name}.{key}: not a number")))
                    .collect()
            };
            let bounds = nums("bounds")?;
            let counts: Vec<u64> = nums("counts")?.into_iter().map(|c| c as u64).collect();
            let sum = hv
                .get("sum")
                .and_then(|s| s.as_f64())
                .ok_or_else(|| format!("histogram {name} missing sum"))?;
            let min = hv.get("min").and_then(|x| x.as_f64());
            let max = hv.get("max").and_then(|x| x.as_f64());
            let h = Histogram::from_parts(bounds, counts, sum, min, max)
                .map_err(|e| format!("histogram {name}: {e}"))?;
            m.histograms.insert(name.clone(), h);
        }
        Ok(m)
    }

    /// Human-readable rendering, one metric per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<28} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<28} n={} mean={:.3} min={:.3} max={:.3}\n",
                h.count(),
                h.mean(),
                h.min().unwrap_or(0.0),
                h.max().unwrap_or(0.0)
            ));
            let total = h.count().max(1);
            let labels: Vec<String> = h
                .bounds
                .iter()
                .map(|b| format!("<={b}"))
                .chain(std::iter::once(format!(">{}", h.bounds.last().unwrap())))
                .collect();
            for (label, c) in labels.iter().zip(&h.counts) {
                if *c == 0 {
                    continue;
                }
                let bar = "#".repeat(((c * 40) / total).max(1) as usize);
                out.push_str(&format!("  {label:>12} {c:>8} {bar}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_totals() {
        let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(500.0));
    }

    #[test]
    fn folding_a_local_tally_renders_like_direct_observation() {
        let values = [100.0, 37.0, 100.0, 2.0, 64.0];
        let mut direct = MetricsRegistry::new();
        let mut folded = MetricsRegistry::new();
        let mut local = Histogram::with_bounds(PCT_BOUNDS);
        // An empty tally must not create the metric.
        folded.fold_histogram("fill", &mut local);
        assert!(folded.is_empty());
        for (i, &v) in values.iter().enumerate() {
            direct.observe("fill", PCT_BOUNDS, v);
            local.observe(v);
            if i == 2 {
                folded.fold_histogram("fill", &mut local);
                assert_eq!(local.count(), 0, "fold empties the tally");
            }
        }
        folded.fold_histogram("fill", &mut local);
        assert_eq!(folded.to_json(), direct.to_json());
    }

    #[test]
    fn merge_conserves_and_is_associative() {
        let mk = |vals: &[f64]| {
            let mut h = Histogram::with_bounds(PCT_BOUNDS);
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let a = mk(&[5.0, 60.0]);
        let b = mk(&[95.0]);
        let c = mk(&[100.0, 12.0, 30.0]);

        // (a+b)+c == a+(b+c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count(), 6);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::with_bounds(&[10.0, 20.0, 30.0]);
        // 10 observations spread uniformly over (10, 20].
        for i in 1..=10 {
            h.observe(10.0 + i as f64);
        }
        assert_eq!(h.quantile(0.0), Some(11.0)); // exact min
        assert_eq!(h.quantile(1.0), Some(20.0)); // exact max
        // All mass in the (10, 20] bucket: the median interpolates to 15,
        // within one bucket width of the naive sorted-vec answer.
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 15.0).abs() < 1e-9, "p50 = {p50}");
        // Estimates never leave [min, max].
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let v = h.quantile(q).unwrap();
            assert!((11.0..=20.0).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn quantile_handles_overflow_bucket_and_empty() {
        assert_eq!(Histogram::with_bounds(&[1.0]).quantile(0.5), None);
        let mut h = Histogram::with_bounds(&[1.0]);
        h.observe(5.0);
        h.observe(9.0);
        // Both observations overflow: quantiles stay within [5, 9].
        let p50 = h.quantile(0.5).unwrap();
        assert!((5.0..=9.0).contains(&p50));
        assert_eq!(h.quantile(1.0), Some(9.0));
    }

    #[test]
    fn registry_json_is_sorted_and_parses() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last", 2);
        m.inc("a.first", 1);
        m.observe("fill", PCT_BOUNDS, 50.0);
        let j = m.to_json();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        let parsed = crate::telemetry::json::parse(&j).expect("valid JSON");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("a.first")).and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn json_round_trip() {
        let mut m = MetricsRegistry::new();
        m.inc("net.frames_sent", 12345);
        m.inc("a", 0);
        m.observe("lat", LATENCY_BOUNDS, 3.2e-4);
        m.observe("lat", LATENCY_BOUNDS, 7.5e-2);
        m.observe_n("fill", PCT_BOUNDS, 50.0, 7);
        let back = MetricsRegistry::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), m.to_json());
    }

    #[test]
    fn json_round_trip_empty_histogram_rejected_without_counts() {
        assert!(Histogram::from_parts(vec![1.0], vec![0, 0], 0.0, Some(1.0), None).is_err());
        assert!(Histogram::from_parts(vec![1.0], vec![0], 0.0, None, None).is_err());
        let h = Histogram::from_parts(vec![1.0], vec![0, 0], 0.0, None, None).unwrap();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn registry_merge_adds() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.observe("h", PCT_BOUNDS, 10.0);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 5);
        b.observe("h", PCT_BOUNDS, 90.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }
}
