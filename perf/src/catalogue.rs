//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and, for end-to-end metrics, regression bound.
//!
//! `BENCHMARK.json` is rendered from this table (`dakc-perf manifest`)
//! and a test fails when the two disagree. How each metric
//! is measured is in README.md.

use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// How two runs of one commit may differ on a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A wall-clock measurement: compared within a bound.
    Timing,
    /// A count that is a function of the input only: must repeat exactly.
    Exact,
    /// A count that depends on thread interleaving: reported, never gated.
    TimingCount,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Timing,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Timing, TimingCount};

// The issue's thirteen metrics, all gated. The bounds are not the issue's
// 0.10 and 0.05: a bound has to be three times the spread ten seeds show
// (the acceptance rule), and on the shared two-core host this was written
// on no metric's spread is a third of the issue's bound on every workload
// (README.md, "Acceptance runs": rates 2-12 %, lookups 1-5 %, round trips
// 2-6 %, peak memory 7 % between seeds on `repeats_k31c`). Demoting them
// all, as the issue's rule would, leaves nothing gated, so each carries the
// smallest of 0.15, 0.20 and 0.25 that is three times its largest spread;
// for `count_threaded`, `count_serial` and `sim` (10-12 %) 0.25, the widest
// bound the contract allows, is a little over twice.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("count_cli_kmers_per_s", "1/s", Higher, 0.25),
    e2e("count_tcp_kmers_per_s", "1/s", Higher, 0.25),
    e2e("count_tcp_sk_kmers_per_s", "1/s", Higher, 0.25),
    e2e("count_threaded_kmers_per_s", "1/s", Higher, 0.25),
    e2e("count_loopback_kmers_per_s", "1/s", Higher, 0.25),
    e2e("count_loopback_sk_kmers_per_s", "1/s", Higher, 0.25),
    e2e("count_serial_kmers_per_s", "1/s", Higher, 0.25),
    e2e("sim_kmers_per_s", "1/s", Higher, 0.25),
    e2e("serve_lookups_per_s", "1/s", Higher, 0.15),
    e2e("serve_batch64_p50_s", "s", Lower, 0.20),
    e2e("serve_batch64_p99_s", "s", Lower, 0.20),
    e2e("count_peak_rss_mb", "MB", Lower, 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    layer("io.parse_s", "s", Lower, Timing),
    layer("io.parse_mb_per_s", "MB/s", Higher, Timing),
    layer("cli.count_residual_s", "s", Lower, Timing),
    layer("cli.launch_residual_s", "s", Lower, Timing),
    layer("kmer.extract_s", "s", Lower, Timing),
    layer("kmer.extract_mkmers_per_s", "M/s", Higher, Timing),
    layer("kmer.spans_s", "s", Lower, Timing),
    layer("kmer.unpack_spans_s", "s", Lower, Timing),
    layer("kmer.span_bytes_per_kmer", "B", Lower, Exact),
    layer("kmer.owner_s", "s", Lower, Timing),
    layer("kmer.owner_imbalance", "ratio", Lower, Exact),
    layer("sort.hybrid_s", "s", Lower, Timing),
    layer("sort.hybrid_mkeys_per_s", "M/s", Higher, Timing),
    layer("sort.parallel_s", "s", Lower, Timing),
    layer("sort.accumulate_s", "s", Lower, Timing),
    layer("sort.distinct_ratio", "ratio", Lower, Exact),
    layer("core.async_add_s", "s", Lower, Timing),
    layer("core.async_add_ns_per_kmer", "ns", Lower, Timing),
    layer("core.packet_codec_s", "s", Lower, Timing),
    layer("core.l3_compress_ratio", "ratio", Higher, Exact),
    layer("core.heavy_pairs", "count", Lower, Exact),
    layer("core.normal_packets", "count", Lower, Exact),
    layer("core.heavy_packets", "count", Lower, Exact),
    layer("core.super_packets", "count", Lower, Exact),
    layer("core.partition_s", "s", Lower, Timing),
    layer("core.gather_s", "s", Lower, Timing),
    layer("core.loopback1_s", "s", Lower, Timing),
    layer("core.loopback_scaling_eff", "ratio", Higher, Timing),
    layer("core.threaded1_s", "s", Lower, Timing),
    layer("core.threaded_scaling_eff", "ratio", Higher, Timing),
    layer("core.tcp_inproc_s", "s", Lower, Timing),
    layer("conv.puts", "count", Lower, Exact),
    layer("conv.l0_fill_pct_mean", "%", Higher, Exact),
    layer("conv.l2_fill_pct_mean", "%", Higher, Exact),
    layer("conv.items_pushed", "count", Lower, Exact),
    layer("net.bytes_sent", "B", Lower, Exact),
    layer("net.frames_sent", "count", Lower, TimingCount),
    layer("net.sk_bytes_sent", "B", Lower, Exact),
    layer("net.wire_cut", "ratio", Higher, Exact),
    layer("net.term_rounds", "count", Lower, TimingCount),
    layer("net.send_stalls", "count", Lower, TimingCount),
    layer("net.retries", "count", Lower, TimingCount),
    layer("net.frame_codec_s", "s", Lower, Timing),
    layer("net.frame_codec_mb_per_s", "MB/s", Higher, Timing),
    layer("net.loopback_xfer_mb_per_s", "MB/s", Higher, Timing),
    layer("net.tcp_xfer_mb_per_s", "MB/s", Higher, Timing),
    layer("net.tcp_setup_s", "s", Lower, Timing),
    layer("net.loopback_term_round_s", "s", Lower, Timing),
    layer("net.tcp_term_round_s", "s", Lower, Timing),
    layer("serve.shard_encode_s", "s", Lower, Timing),
    layer("serve.shard_load_s", "s", Lower, Timing),
    layer("serve.shard_bytes_per_record", "B", Lower, Exact),
    layer("serve.shard_get_ns", "ns", Lower, Timing),
    layer("serve.wire_codec_s", "s", Lower, Timing),
    layer("serve.rtt_floor_s", "s", Lower, Timing),
    layer("serve.lookups_per_s_b4096", "1/s", Higher, Timing),
    layer("serve.miss_lookups_per_s", "1/s", Higher, Timing),
    layer("serve.histogram_s", "s", Lower, Timing),
    layer("serve.top_n_s", "s", Lower, Timing),
    layer("sim.virtual_makespan_s", "s", Lower, Exact),
    layer("sim.remote_bytes", "B", Lower, Exact),
    layer("sim.barriers", "count", Lower, Exact),
    layer("baselines.bsp_threaded_s", "s", Lower, Timing),
    layer("baselines.kmc3_s", "s", Lower, Timing),
    layer("baselines.dakc_over_pakman", "ratio", Higher, Timing),
    layer("telemetry.trace_overhead", "ratio", Lower, Timing),
    layer("bench.trace_overhead", "ratio", Lower, Timing),
    layer("ledger.sum_s", "s", Lower, Timing),
    layer("ledger.coverage", "ratio", Higher, Timing),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn better_str(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest(run_seconds: u32) -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            better_str(m.better)
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(workloads),
        rows(END_TO_END.iter().map(metric).collect()),
        rows(PER_LAYER.iter().map(metric).collect()),
    )
}
