//! Verifies the zero-cost claim: running the full aggregation cascade
//! under the simulator with tracing *disabled* must cost the same as
//! before the telemetry hooks existed (the `TraceSink::Off` arm is one
//! discriminant test, the event-constructing closures never run, and a
//! disabled `FlowSampler` is a single `Option` check per packet open).
//! Compare `cascade/trace_off` against `cascade/trace_ring` to see what
//! enabling the flight recorder costs, and against `cascade/flow_full`
//! for flight recorder + full-rate causal flow tagging.
//!
//! `cascade/net_words` is the hot path on its own: the words-mode cascade
//! of one rank over a `NetFabric<Loopback>` — extract, `async_add_batch`,
//! L2 → L1 → L0, the loopback wire, decode — with no phase 2, the micro
//! harness next to `threaded_hotpath` for the sender and receiver code.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dakc::{count_kmers_sim_traced, Aggregator, DakcConfig, ReceiveStore};
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSet, ReadSimConfig};
use dakc_kmer::extract_into;
use dakc_net::{Loopback, NetFabric, Transport};
use dakc_sim::{MachineConfig, TraceSink};

fn reads(n: usize) -> dakc_io::ReadSet {
    let genome = generate_genome(&GenomeSpec { bases: 120_000, repeats: None }, 7);
    simulate_reads(&genome, &ReadSimConfig::art_like(n), 7)
}

/// One rank's Parse and Drain over a loopback fabric; returns the words
/// that came back.
fn net_words_cascade(reads: &ReadSet, cfg: &DakcConfig) -> usize {
    let mut fab = NetFabric::new(Loopback::mesh(1).remove(0));
    let mut agg = Aggregator::<u64>::new(cfg.clone(), &mut fab);
    let mut store = ReceiveStore::<u64>::default();
    let mut words = Vec::new();
    for (i, read) in reads.iter().enumerate() {
        words.clear();
        extract_into::<u64>(read, cfg.k, cfg.canonical, |w| words.push(w));
        agg.async_add_batch(&mut fab, &words);
        if (i + 1) % cfg.batch_reads == 0 {
            agg.progress(&mut fab, &mut store);
        }
    }
    agg.flush(&mut fab);
    loop {
        if agg.progress(&mut fab, &mut store) > 0 {
            continue;
        }
        fab.check().expect("loopback wire");
        if fab.transport_mut().termination_round().expect("termination") {
            break;
        }
    }
    agg.release(&mut fab);
    store.plain.len()
}

fn bench_cascade_tracing(c: &mut Criterion) {
    let rs = reads(1_500);
    let cfg = DakcConfig::scaled_defaults(31).with_l3();
    let mut machine = MachineConfig::phoenix_intel(2);
    machine.pes_per_node = 4;

    let mut g = c.benchmark_group("cascade");
    g.bench_function("trace_off", |b| {
        b.iter(|| {
            let mut sink = TraceSink::Off;
            let run = count_kmers_sim_traced::<u64>(&rs, &cfg, &machine, &mut sink).unwrap();
            black_box(run.counts.len())
        })
    });
    g.bench_function("trace_ring", |b| {
        b.iter(|| {
            let mut sink = TraceSink::ring_default();
            let run = count_kmers_sim_traced::<u64>(&rs, &cfg, &machine, &mut sink).unwrap();
            black_box((run.counts.len(), sink.events().len()))
        })
    });
    let flow_cfg = cfg.clone().with_trace_sample(1);
    g.bench_function("flow_full", |b| {
        b.iter(|| {
            let mut sink = TraceSink::ring_default();
            let run = count_kmers_sim_traced::<u64>(&rs, &flow_cfg, &machine, &mut sink).unwrap();
            black_box((run.counts.len(), sink.events().len()))
        })
    });
    let words_cfg = DakcConfig::scaled_defaults(31);
    assert_eq!(net_words_cascade(&rs, &words_cfg), rs.total_kmers(31));
    g.bench_function("net_words", |b| {
        b.iter(|| black_box(net_words_cascade(black_box(&rs), &words_cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench_cascade_tracing);
criterion_main!(benches);
