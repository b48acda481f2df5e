//! The traced pass: the per-layer numbers.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions and reading the counters those functions already return.
//! One repetition is (a) the ledger — the workload driven through the
//! layers in data-flow order on one thread, a span around each call —
//! (b) the same chain with recording off, and (c) the engines whose walls
//! the derived metrics subtract and divide, interleaved so each derived
//! value comes from walls measured seconds apart. The engines' rates
//! themselves are end-to-end metrics (`e2e.rs`), not repeated here.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::api::{self, Wire, Word};
use crate::e2e::{run_cli, run_engine, sweep, timed, Engine};
use crate::ledger::Ledger;
use crate::report::Pass;
use crate::setup::{self, check_counts, checksum, Ctx, Keys, Setup};
use crate::stats::median;
use crate::workload::Workload;

/// Reads handed to the per-chunk layers at a time.
const CHUNK_READS: usize = 4096;
/// Fewest timed repetitions of the traced pass.
const MIN_REPS: usize = 3;
const DEFAULT_REPS: usize = 3;
const MAX_REPS: usize = 9;
/// Payload and frame count of the transfer kernels: 32 MiB in L0-sized frames.
const XFER_PAYLOAD: usize = 2048;
const XFER_FRAMES: usize = 16_384;
const TERM_ROUNDS: usize = 200;
/// Samples of each small fixed-cost kernel (transport set-up, scans).
const MICRO_REPS: usize = 3;

/// What one ledger pass learned besides its spans.
struct Chain {
    wire_bytes: u64,
    span_bytes: u64,
    owner_load: Vec<u64>,
    shard_bytes: usize,
    cascade: api::CascadeFacts,
}

/// Drives the workload through the layers in data-flow order, a span
/// around each call, checking what comes out of each stage.
fn chain(ctx: &Ctx, s: &Setup, l: &mut Ledger) -> Result<Chain, String> {
    let m = s.mode;
    let (c2, c0) = api::packet_geometry(m);
    let payload_words = (c0 / (c2 * 8)).max(1) * c2;
    let want = checksum(s.oracle.iter().copied());
    l.span("ledger", |l| {
        // Phase 1, a chunk of reads at a time: what a rank does between
        // the file and its receive store, with the wire in the middle.
        let mut store = api::new_store();
        let mut owner_load = vec![0u64; ctx.p];
        let mut words: Vec<Word> = Vec::new();
        let mut wire_bytes = 0u64;
        let mut wire_err = None;
        l.span("io.parse", |l| {
            api::parse_chunks(&s.fastq, CHUNK_READS, |chunk| {
                words.clear();
                l.span("kmer.extract", |_| api::extract(chunk, m, &mut words));
                l.span("kmer.owner", |_| api::owners(&words, &mut owner_load));
                // C2-word packets, as many to a payload as fill an L0 buffer.
                let payloads: Vec<Vec<u8>> = l.span("core.packet_encode", |_| {
                    let fill = |ws: &[Word]| {
                        let mut payload = Vec::with_capacity(ws.len() * 8);
                        ws.chunks(c2).for_each(|packet| {
                            payload.extend_from_slice(&api::encode_words(packet))
                        });
                        payload
                    };
                    words.chunks(payload_words).map(fill).collect()
                });
                let wire = l.span("net.frame_encode", |_| {
                    let mut wire = Vec::with_capacity(words.len() * 8 + payloads.len() * 8);
                    payloads
                        .iter()
                        .for_each(|p| wire.extend_from_slice(&api::frame(p)));
                    wire
                });
                wire_bytes += wire.len() as u64;
                let mut arrived = Vec::with_capacity(payloads.len());
                if let Err(e) = l.span("net.frame_decode", |_| {
                    api::unframe(&wire, |p| arrived.push(p))
                }) {
                    wire_err.get_or_insert(e);
                }
                l.span("core.packet_decode", |_| {
                    arrived
                        .iter()
                        .for_each(|p| api::decode_words(p, &mut store))
                });
            })
        })?;
        if let Some(e) = wire_err {
            return Err(format!("frame decode: {e}"));
        }

        // Phase 2 on the whole received array, then the serve index.
        let mut plain = api::take_plain(store);
        l.span("sort.hybrid", |_| api::sort_hybrid(&mut plain));
        let counts = l.span("sort.accumulate", |_| api::accumulate_sorted(&plain));
        check_counts(&counts, &s.oracle)?;
        let image = l.span("serve.shard_encode", |_| {
            api::shard_encode(&counts, m, 0, 1)
        });
        let shard = l.span("serve.shard_load", |_| api::shard_load(&image))?;
        let wrong = l.span("serve.shard_get", |_| {
            s.keys
                .keys
                .iter()
                .zip(&s.keys.truth)
                .filter(|&(&k, &t)| api::shard_get(&shard, k) != t)
                .count()
        });
        if wrong > 0 {
            return Err(format!(
                "{wrong} of {} shard lookups were wrong",
                s.keys.keys.len()
            ));
        }

        // The span branch: the same k-mers as packed super-k-mers.
        let mut packed = Vec::new();
        l.span("kmer.spans", |_| api::pack_spans(&s.reads, m, &mut packed));
        let mut expanded: Vec<Word> = Vec::with_capacity(s.occurrences as usize);
        l.span("kmer.unpack_spans", |_| {
            api::unpack(&packed, m, &mut expanded)
        })?;
        if checksum(expanded.iter().map(|&w| (w, 1))) != want {
            return Err("unpacked spans are not the workload's k-mers".to_string());
        }

        // The cascade branch: L3→L2→L1→L0 and decode on one rank.
        let cascade = l.span("core.async_add", |_| api::cascade_one_rank(&s.reads, m))?;
        let got = checksum(
            cascade
                .received
                .iter()
                .map(|&w| (w, 1))
                .chain(cascade.received_pairs.iter().copied()),
        );
        if got != want || cascade.kmers_added != s.occurrences {
            return Err("the cascade did not deliver the workload's k-mers".to_string());
        }
        Ok(Chain {
            wire_bytes,
            span_bytes: packed.len() as u64,
            owner_load,
            shard_bytes: image.len(),
            cascade,
        })
    })
}

/// Walls of one repetition's engines (`None` where the engine failed),
/// and the counters the words run returned.
#[derive(Default)]
struct Walls {
    cli: Option<f64>,
    launch: Option<f64>,
    threaded: Option<f64>,
    threaded1: Option<f64>,
    loopback: Option<f64>,
    loopback1: Option<f64>,
    partition: Option<f64>,
    tcp_inproc: Option<f64>,
    traced: Option<f64>,
    bsp: Option<f64>,
    kmc3: Option<f64>,
    sort_parallel: Option<f64>,
    words_counters: Option<api::NetCounters>,
}

/// The two runs only the exact counts need, made once: spans at `p`
/// loopback ranks and the simulator.
#[derive(Default)]
struct CountRuns {
    spans: Option<api::NetCounters>,
    sim: Option<api::SimFacts>,
}

fn count_runs(ctx: &Ctx, s: &Setup, pass: &mut Pass) -> CountRuns {
    let o = &s.oracle;
    CountRuns {
        spans: pass
            .op(
                "loopback spans",
                timed(o, || {
                    api::count_loopback(&s.reads, s.mode, ctx.p, Wire::Spans)
                }),
            )
            .map(|r| r.1),
        sim: pass
            .op("simulator", timed(o, || api::count_sim(&s.reads, s.mode)))
            .map(|r| r.1),
    }
}

fn engines(ctx: &Ctx, s: &Setup, pass: &mut Pass) -> Walls {
    let (m, p, o) = (s.mode, ctx.p, &s.oracle);
    let mut w = Walls::default();
    let run = |pass: &mut Pass, what: &str, e| pass.op(what, run_engine(ctx, s, e));
    w.cli = run(pass, "dakc count", Engine::Cli);
    w.launch = run(pass, "dakc launch", Engine::Tcp);
    w.threaded = run(pass, "threaded", Engine::Threaded);
    w.threaded1 = pass
        .op(
            "threaded x1",
            timed(o, || Ok((api::count_threaded(&s.reads, m, 1), ()))),
        )
        .map(|r| r.0);
    let loopback = |pass: &mut Pass, what: &str, ranks, wire| {
        pass.op(
            what,
            timed(o, || api::count_loopback(&s.reads, m, ranks, wire)),
        )
        .unzip()
    };
    (w.loopback, w.words_counters) = loopback(pass, "loopback", p, Wire::Words);
    (w.loopback1, _) = loopback(pass, "loopback x1", 1, Wire::Words);
    (w.traced, _) = loopback(pass, "loopback traced", p, Wire::WordsTraced);
    w.partition = pass.op("partition", {
        let t = Instant::now();
        api::partition_loopback(&s.reads, m, p).and_then(|distinct| {
            let wall = t.elapsed().as_secs_f64();
            if distinct == o.len() as u64 {
                Ok(wall)
            } else {
                Err(format!(
                    "{distinct} distinct k-mers, the oracle has {}",
                    o.len()
                ))
            }
        })
    });
    w.tcp_inproc = pass
        .op(
            "tcp in-process",
            ctx.scratch_dir("rendezvous").and_then(|dir| {
                timed(o, || {
                    api::count_tcp_inproc(&s.reads, m, p, &dir).map(|c| (c, ()))
                })
            }),
        )
        .map(|r| r.0);
    w.bsp = run(pass, "pakman*", Engine::Pakman);
    w.kmc3 = pass
        .op(
            "kmc3",
            timed(o, || Ok((api::count_kmc3(&s.reads, m, p), ()))),
        )
        .map(|r| r.0);
    w.sort_parallel = pass.op("parallel sort", {
        let mut words = Vec::with_capacity(s.occurrences as usize);
        api::extract(&s.reads, m, &mut words);
        let t = Instant::now();
        api::sort_parallel(&mut words, p);
        let wall = t.elapsed().as_secs_f64();
        if words.windows(2).all(|w| w[0] <= w[1]) {
            Ok(wall)
        } else {
            Err("output is not sorted".to_string())
        }
    });
    w
}

/// One timed repetition: the ledger, the same chain unrecorded, the
/// engines; pushes its samples and returns what the exact counts need.
fn repetition(ctx: &Ctx, s: &Setup, pass: &mut Pass) -> Option<(Ledger, Chain, Walls)> {
    let mut led = Ledger::new(true);
    let facts = chain(ctx, s, &mut led);
    let t = Instant::now();
    let untraced = chain(ctx, s, &mut Ledger::new(false));
    let untraced_s = t.elapsed().as_secs_f64();
    let walls = engines(ctx, s, pass);
    let facts = pass.op("ledger", facts);
    pass.op("ledger untraced", untraced)?;
    let facts = facts?;
    push_rep(pass, s, ctx.p, &led, untraced_s, &facts, &walls);
    Some((led, facts, walls))
}

/// Pushes `f(a, b, …)` when every wall it needs was measured.
macro_rules! derive {
    ($pass:expr, $name:expr, |$($v:ident),+| $e:expr) => {
        if let ($(Some($v),)+) = ($($v,)+) {
            $pass.push($name, $e);
        }
    };
}

fn push_rep(
    pass: &mut Pass,
    s: &Setup,
    p: usize,
    led: &Ledger,
    untraced_s: f64,
    facts: &Chain,
    w: &Walls,
) {
    let t = led.self_times();
    let at = |name: &str| t.get(name).copied().unwrap_or(f64::NAN);
    let occ = s.occurrences as f64;
    let parse = at("io.parse");
    pass.push("io.parse_s", parse);
    pass.push("io.parse_mb_per_s", s.fastq_bytes as f64 / 1e6 / parse);
    pass.push("kmer.extract_s", at("kmer.extract"));
    pass.push("kmer.extract_mkmers_per_s", occ / 1e6 / at("kmer.extract"));
    pass.push("kmer.spans_s", at("kmer.spans"));
    pass.push("kmer.unpack_spans_s", at("kmer.unpack_spans"));
    pass.push("kmer.owner_s", at("kmer.owner"));
    pass.push("sort.hybrid_s", at("sort.hybrid"));
    pass.push("sort.hybrid_mkeys_per_s", occ / 1e6 / at("sort.hybrid"));
    pass.push("sort.accumulate_s", at("sort.accumulate"));
    pass.push("core.async_add_s", at("core.async_add"));
    pass.push(
        "core.async_add_ns_per_kmer",
        at("core.async_add") * 1e9 / occ,
    );
    pass.push(
        "core.packet_codec_s",
        at("core.packet_encode") + at("core.packet_decode"),
    );
    let frame_codec = at("net.frame_encode") + at("net.frame_decode");
    pass.push("net.frame_codec_s", frame_codec);
    pass.push(
        "net.frame_codec_mb_per_s",
        facts.wire_bytes as f64 / 1e6 / frame_codec,
    );
    pass.push("serve.shard_encode_s", at("serve.shard_encode"));
    pass.push("serve.shard_load_s", at("serve.shard_load"));
    pass.push(
        "serve.shard_get_ns",
        at("serve.shard_get") * 1e9 / s.keys.keys.len() as f64,
    );
    // What a one-rank counting run cannot avoid: its kernels, no framing
    // (loopback has none), no file, no index.
    let sum = [
        "kmer.extract",
        "kmer.owner",
        "core.packet_encode",
        "core.packet_decode",
        "sort.hybrid",
        "sort.accumulate",
    ]
    .iter()
    .map(|n| at(n))
    .sum::<f64>();
    pass.push("ledger.sum_s", sum);
    pass.push("bench.trace_overhead", led.root_s() / untraced_s);

    let Walls {
        cli,
        launch,
        threaded,
        threaded1,
        loopback,
        loopback1,
        partition,
        tcp_inproc,
        traced,
        bsp,
        kmc3,
        sort_parallel,
        ..
    } = *w;
    let pf = p as f64;
    derive!(pass, "sort.parallel_s", |sort_parallel| sort_parallel);
    derive!(pass, "core.partition_s", |partition| partition);
    derive!(pass, "core.gather_s", |loopback, partition| loopback
        - partition);
    derive!(pass, "core.loopback1_s", |loopback1| loopback1);
    derive!(
        pass,
        "core.loopback_scaling_eff",
        |loopback, loopback1| loopback1 / (pf * loopback)
    );
    derive!(pass, "core.threaded1_s", |threaded1| threaded1);
    derive!(
        pass,
        "core.threaded_scaling_eff",
        |threaded, threaded1| threaded1 / (pf * threaded)
    );
    derive!(pass, "core.tcp_inproc_s", |tcp_inproc| tcp_inproc);
    derive!(pass, "cli.count_residual_s", |cli, threaded| cli
        - threaded
        - parse);
    derive!(pass, "cli.launch_residual_s", |launch, tcp_inproc| launch
        - tcp_inproc);
    derive!(pass, "baselines.bsp_threaded_s", |bsp| bsp);
    derive!(pass, "baselines.kmc3_s", |kmc3| kmc3);
    derive!(pass, "baselines.dakc_over_pakman", |bsp, threaded| bsp
        / threaded);
    derive!(pass, "telemetry.trace_overhead", |traced, loopback| traced
        / loopback);
    derive!(pass, "ledger.coverage", |loopback1| sum / loopback1);
}

/// Counts that are a function of the input alone: the last repetition's
/// ledger pass and words run at `p` ranks, and the span and simulator
/// runs.
fn push_exact(
    ctx: &Ctx,
    s: &Setup,
    pass: &mut Pass,
    facts: &Chain,
    words: Option<&api::NetCounters>,
    runs: &CountRuns,
) {
    let occ = s.occurrences as f64;
    let c = &facts.cascade;
    pass.push("kmer.span_bytes_per_kmer", facts.span_bytes as f64 / occ);
    let max = facts.owner_load.iter().copied().max().unwrap_or(0) as f64;
    pass.push("kmer.owner_imbalance", max * ctx.p as f64 / occ);
    pass.push("sort.distinct_ratio", s.oracle.len() as f64 / occ);
    pass.push(
        "core.l3_compress_ratio",
        c.occurrences_compressed as f64 / c.kmers_added as f64,
    );
    pass.push("core.heavy_pairs", c.heavy_pairs as f64);
    pass.push("core.normal_packets", c.normal_packets as f64);
    pass.push("core.heavy_packets", c.heavy_packets as f64);
    pass.push("conv.puts", c.puts as f64);
    pass.push("conv.l0_fill_pct_mean", c.l0_fill_pct_mean);
    pass.push("conv.l2_fill_pct_mean", c.l2_fill_pct_mean);
    pass.push("conv.items_pushed", c.items_pushed as f64);
    pass.push(
        "serve.shard_bytes_per_record",
        facts.shard_bytes as f64 / s.oracle.len() as f64,
    );
    if let (Some(words), Some(spans)) = (words, &runs.spans) {
        pass.push("net.bytes_sent", words.bytes_sent as f64);
        pass.push("net.frames_sent", words.frames_sent as f64);
        pass.push("net.term_rounds", words.term_rounds as f64);
        pass.push("net.send_stalls", words.send_stalls as f64);
        pass.push("net.retries", words.retries as f64);
        pass.push("net.sk_bytes_sent", spans.bytes_sent as f64);
        pass.push(
            "net.wire_cut",
            words.bytes_sent as f64 / spans.bytes_sent as f64,
        );
        pass.push("core.super_packets", spans.super_packets as f64);
    }
    if let Some(sim) = &runs.sim {
        pass.push("sim.virtual_makespan_s", sim.virtual_makespan_s);
        pass.push("sim.remote_bytes", sim.remote_bytes as f64);
        pass.push("sim.barriers", sim.barriers as f64);
    }
}

/// Transport fixed costs and transfer rates on an otherwise idle mesh.
fn transport_kernels(ctx: &Ctx, pass: &mut Pass) {
    let n = ctx.p.max(2);
    let payload = vec![0xA5u8; XFER_PAYLOAD];
    let mb = (XFER_PAYLOAD * XFER_FRAMES) as f64 / 1e6;
    for _ in 0..MICRO_REPS {
        let mut mesh = api::loopback_mesh(n);
        let t = Instant::now();
        if pass
            .op(
                "loopback transfer",
                api::transfer(&mut mesh, &payload, XFER_FRAMES),
            )
            .is_some()
        {
            pass.push("net.loopback_xfer_mb_per_s", mb / t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        if pass
            .op(
                "loopback termination rounds",
                api::termination_rounds(&mut mesh, TERM_ROUNDS),
            )
            .is_some()
        {
            pass.push(
                "net.loopback_term_round_s",
                t.elapsed().as_secs_f64() / TERM_ROUNDS as f64,
            );
        }

        let t = Instant::now();
        let mesh = ctx
            .scratch_dir("rendezvous")
            .and_then(|dir| api::tcp_mesh(n, &dir, XFER_PAYLOAD));
        let Some(mut mesh) = pass.op("tcp rendezvous", mesh) else {
            continue;
        };
        pass.push("net.tcp_setup_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        if pass
            .op(
                "tcp transfer",
                api::transfer(&mut mesh, &payload, XFER_FRAMES),
            )
            .is_some()
        {
            pass.push("net.tcp_xfer_mb_per_s", mb / t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        if pass
            .op(
                "tcp termination rounds",
                api::termination_rounds(&mut mesh, TERM_ROUNDS),
            )
            .is_some()
        {
            pass.push(
                "net.tcp_term_round_s",
                t.elapsed().as_secs_f64() / TERM_ROUNDS as f64,
            );
        }
    }
}

/// The serve layers beside the end-to-end lookups: codec alone, the
/// round-trip floor, a larger batch, an all-miss mix, and the scan path.
fn serve_kernels(s: &Setup, pass: &mut Pass) {
    let keys = &s.keys;
    let n = keys.keys.len() as u64;
    let t = Instant::now();
    let coded = keys
        .keys
        .chunks(1024)
        .zip(keys.truth.chunks(1024))
        .try_for_each(|(k, c)| {
            api::serve_wire_round_trip(k, c).map(|bytes| {
                std::hint::black_box(bytes);
            })
        });
    if pass.op("serve wire codec", coded).is_some() {
        pass.push("serve.wire_codec_s", t.elapsed().as_secs_f64());
    }

    let Some(mut cluster) = pass.op("serve start", api::cluster_start(s.shards.clone())) else {
        return;
    };
    let mut rtts = Vec::new();
    let one = keys.range(0..keys.keys.len().min(2048));
    if pass
        .ops(
            "serve single-key lookups",
            one.keys.len() as u64,
            sweep(&mut cluster, &one, 1, &mut rtts),
        )
        .is_some()
    {
        pass.push("serve.rtt_floor_s", median(&rtts));
    }
    let t = Instant::now();
    if pass
        .ops(
            "serve batch 4096",
            n,
            sweep(&mut cluster, keys, 4096, &mut rtts),
        )
        .is_some()
    {
        pass.push(
            "serve.lookups_per_s_b4096",
            n as f64 / t.elapsed().as_secs_f64(),
        );
    }
    let misses = Keys {
        keys: s.miss_keys.clone(),
        truth: vec![0; s.miss_keys.len()],
    };
    let t = Instant::now();
    if pass
        .ops(
            "serve all-miss lookups",
            misses.keys.len() as u64,
            sweep(&mut cluster, &misses, 1024, &mut rtts),
        )
        .is_some()
    {
        pass.push(
            "serve.miss_lookups_per_s",
            misses.keys.len() as f64 / t.elapsed().as_secs_f64(),
        );
    }

    // The scan path, checked against the same aggregates of the oracle.
    let mut spectrum = vec![0u64; 17];
    for &(_, c) in &s.oracle {
        spectrum[(c.min(17) - 1) as usize] += 1;
    }
    let mut top = s.oracle.clone();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(10);
    for _ in 0..MICRO_REPS {
        let t = Instant::now();
        let got = cluster.histogram(16).and_then(|h| {
            if h == spectrum {
                Ok(())
            } else {
                Err("histogram differs from the oracle's".to_string())
            }
        });
        if pass.op("serve histogram", got).is_some() {
            pass.push("serve.histogram_s", t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let got = cluster.top_n(10).and_then(|r| {
            if r == top {
                Ok(())
            } else {
                Err("top-10 differs from the oracle's".to_string())
            }
        });
        if pass.op("serve top-n", got).is_some() {
            pass.push("serve.top_n_s", t.elapsed().as_secs_f64());
        }
    }
    pass.op("serve shutdown", cluster.shutdown());
}

/// The exact counts alone (one chain, no engine timing): what the
/// determinism test compares between two runs of one seed.
#[cfg(test)]
pub fn exact_counts(ctx: &Ctx, w: &'static Workload) -> Result<(Pass, u64), String> {
    let s = setup::build(ctx, w)?;
    let mut pass = Pass::new(w.name, true);
    let facts = chain(ctx, &s, &mut Ledger::new(false))?;
    let words = timed(&s.oracle, || {
        api::count_loopback(&s.reads, s.mode, ctx.p, Wire::Words)
    })?
    .1;
    let runs = count_runs(ctx, &s, &mut pass);
    push_exact(ctx, &s, &mut pass, &facts, Some(&words), &runs);
    Ok((pass, s.digest))
}

fn llc() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Runs the traced pass; the last repetition's spans go to
/// `<out>/<workload>.trace.json`, which `dakc analyze` must then read.
/// Returns the pass and the self-time table.
pub fn run(ctx: &Ctx, w: &'static Workload, out: &Path) -> (Pass, String) {
    let mut pass = Pass::new(w.name, true);
    let s = match setup::build(ctx, w) {
        Ok(s) => s,
        Err(e) => {
            pass.fail(format!("set-up: {e}"));
            return (pass, String::new());
        }
    };
    pass.fact("input_digest", format!("{:016x}", s.digest));
    pass.fact("kmer_occurrences", s.occurrences);
    pass.fact("sort_array_bytes", s.occurrences * 8);
    pass.fact("host_llc", llc());

    let deadline = ctx
        .seconds
        .map(|secs| Instant::now() + Duration::from_secs_f64(secs));
    if !ctx.smoke {
        // Untimed: one pass through the layers warms the kernels' memory.
        pass.op("ledger warm-up", chain(ctx, &s, &mut Ledger::new(false)));
    }
    // The first repetition is timed like the rest and tells how many more fit.
    let t = Instant::now();
    let mut last = repetition(ctx, &s, &mut pass);
    let rep_s = t.elapsed().as_secs_f64();
    let reps = ctx.plan_reps(deadline, rep_s, 1, MIN_REPS, DEFAULT_REPS, MAX_REPS);
    for _ in 1..reps {
        last = repetition(ctx, &s, &mut pass).or(last);
    }
    pass.fact("repetitions", reps);

    let mut table = String::new();
    if let Some((traced, facts, walls)) = last {
        let runs = count_runs(ctx, &s, &mut pass);
        push_exact(
            ctx,
            &s,
            &mut pass,
            &facts,
            walls.words_counters.as_ref(),
            &runs,
        );
        table = traced.table();
        let trace = out.join(format!("{}.trace.json", w.name));
        let written = std::fs::write(&trace, traced.chrome_trace(w.name))
            .map_err(|e| format!("{}: {e}", trace.display()));
        if pass.op("write trace", written).is_some() {
            let artifact = ctx.tmp.join("analysis.json");
            pass.op(
                "dakc analyze",
                run_cli(ctx, api::cli_analyze(&ctx.dakc, &trace, &artifact)),
            );
        }
        let self_sum: f64 = traced.self_times().values().sum();
        if (self_sum - traced.root_s()).abs() > 0.01 * traced.root_s() {
            pass.fail(format!(
                "ledger self times sum to {self_sum}, the root span is {}",
                traced.root_s()
            ));
        }
    }
    transport_kernels(ctx, &mut pass);
    serve_kernels(&s, &mut pass);
    (pass, table)
}
