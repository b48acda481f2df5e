//! The real shared-memory engine: DAKC on OS threads.
//!
//! On a single node the paper's runtime "detects when two PEs are
//! colocated … and converts the asynchronous messages into memcpy calls"
//! (§VI-B), which is what makes DAKC competitive with — and ≈2× faster
//! than — KMC3 on one node. This engine is that configuration, built
//! directly on scoped threads, with a contention-free hot path:
//!
//! * every thread parses its block of reads with the batch extractor
//!   ([`dakc_kmer::extract_into`]: rolling canonical form, no per-k-mer
//!   iterator dispatch) and routes k-mers to their owner thread through
//!   **per-(producer, owner) SPSC lanes**: each lane is a single-producer/
//!   single-consumer channel, the producer fills a private batch buffer
//!   and hands off the whole batch in one channel send — no lock any other
//!   thread can contend on (the L2 idea in memcpy form);
//! * at flush time the producer counting-scatters the batch by the **top 8
//!   bits of the 2k-bit window** ([`BucketRun::scatter`]), so batches arrive
//!   as the runs phase 2 gathers its 256 buckets from with pure `memcpy`s;
//! * an optional L3 stage pre-accumulates heavy hitters locally before
//!   routing, shipping `{k-mer, count}` pairs instead of repeats;
//! * after a phase barrier every owner drains its lanes into a
//!   [`ReceiveStore`] — word runs as they are, span batches expanded one
//!   staged batch at a time — and counts it exactly as the `Fabric` engines
//!   do ([`ReceiveStore::into_counts`]: one cache-resident bucket at a time
//!   through `sort_count`).
//!
//! All synchronization is two `std::sync::Barrier` waits — the same
//! synchronization structure as the distributed algorithm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use dakc_io::ReadSet;
use dakc_kmer::{
    counts::merge_disjoint_runs, extract_into, for_each_span, owner_pe, pack_span, unpack_spans,
    CanonicalMode, KmerCount, KmerWord,
};
use dakc_sim::telemetry::Event;
use dakc_sim::{EventKind, FlowSampler};
use dakc_sort::{sort_count, BucketRun, RadixKey};

use crate::aggregate::ReceiveStore;

/// Result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedRun<W> {
    /// The global histogram, sorted by k-mer.
    pub counts: Vec<KmerCount<W>>,
    /// Wall-clock time of the counting (excludes input generation).
    pub elapsed: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Flight-recorder events (timestamps are wall-clock seconds since
    /// run start; `pe` is the worker thread id), present when tracing was
    /// requested via [`count_kmers_threaded_traced`]. Events are grouped
    /// by worker, each worker's stream in chronological order.
    pub trace: Option<Vec<Event>>,
}

/// Default words per route-lane batch (the memcpy analogue of an L2
/// packet); override via [`ThreadedOpts::route_batch`]. A batch becomes one
/// 256-bucket run, and phase 2 copies every bucket slice of every run: at
/// 4 Ki words a slice is ≈16 words (two cache lines); at 1 Ki it is four
/// words per cache miss and `dakc count` runs a quarter slower.
pub const DEFAULT_ROUTE_BATCH: usize = 4096;

/// Options for [`count_kmers_threaded_opts`].
#[derive(Debug, Clone, Copy)]
pub struct ThreadedOpts {
    /// Record flight-recorder events into [`ThreadedRun::trace`].
    pub trace: bool,
    /// Causal flow sampling: tag one in `N` route-buffer opens and record
    /// its wall-clock residency (pack wait + lane drain wait) when the
    /// owner consumes it in phase 2. `None` disables flow tracing.
    pub trace_sample: Option<u32>,
    /// Words a route lane accumulates before the batch is handed to its
    /// owner ([`DEFAULT_ROUTE_BATCH`] by default). Smaller batches hand
    /// off more often (more channel sends, fresher flow samples); larger
    /// batches amortize the per-batch partition-and-send cost and give
    /// phase 2 longer bucket slices to gather.
    pub route_batch: usize,
    /// Super-k-mer span routing (L2.5) with the given minimizer length
    /// `m`: producers decompose reads into minimizer spans, route each
    /// packed span to `owner(minimizer)`, and owners expand spans back
    /// into k-mer words before phase 2. Ownership by minimizer is still a
    /// disjoint partition (a k-mer's minimizer is a pure function of the
    /// k-mer), so the final cross-thread merge is unchanged. `l3_buffer`
    /// is bypassed in this mode — L3 pre-accumulation is per-k-mer and
    /// the producer never materializes individual k-mers.
    pub superkmer: Option<usize>,
}

impl Default for ThreadedOpts {
    fn default() -> Self {
        Self {
            trace: false,
            trace_sample: None,
            route_batch: DEFAULT_ROUTE_BATCH,
            superkmer: None,
        }
    }
}

/// One flushed route batch crossing an SPSC lane: the producer's private
/// buffer, already scattered into the run the owner's store takes as is.
struct RouteBatch<W> {
    run: BucketRun<W>,
    /// Sampled-flow sidecar riding out of band, exactly like the
    /// simulator's `Msg.flows`: (flow id, src worker, open time, send
    /// time). Never changes what the lane carries.
    flow: Option<(u64, u32, f64, f64)>,
}

/// A heavy-hitter shipment: L3-accumulated `(k-mer, count)` pairs.
type PairBatch<W> = Vec<(W, u32)>;

/// Counts k-mers with `threads` workers. `l3_buffer` enables the
/// heavy-hitter pre-accumulation stage with the given `C3`.
pub fn count_kmers_threaded<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    threads: usize,
    l3_buffer: Option<usize>,
) -> ThreadedRun<W> {
    count_kmers_threaded_traced(reads, k, canonical, threads, l3_buffer, false)
}

/// Like [`count_kmers_threaded`], but when `trace` is set each worker
/// records flight-recorder events (lane batch flushes, L3 drains, the
/// phase barrier, phase transitions) into a thread-local buffer, merged
/// into [`ThreadedRun::trace`] after the run. Timestamps are wall-clock
/// seconds since run start — unlike simulator traces they are *not*
/// byte-reproducible across runs.
pub fn count_kmers_threaded_traced<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    threads: usize,
    l3_buffer: Option<usize>,
    trace: bool,
) -> ThreadedRun<W> {
    count_kmers_threaded_opts(
        reads,
        k,
        canonical,
        threads,
        l3_buffer,
        &ThreadedOpts { trace, ..ThreadedOpts::default() },
    )
}

/// Like [`count_kmers_threaded_traced`], with causal flow tracing: when
/// [`ThreadedOpts::trace_sample`] is set, a sampled route-buffer open mints
/// a flow id ([`EventKind::FlowSend`] at the batch handoff into the
/// owner's lane) that the owner closes with an [`EventKind::FlowRecv`]
/// when phase 2 drains the lane. The wall-clock analogue of the
/// simulator's virtual residencies: the pack wait lands in `l2_s`, the
/// lane wait in `drain_s`, and the memcpy stages (`l1/l0/net`) are
/// zero-width.
pub fn count_kmers_threaded_opts<W: KmerWord + RadixKey>(
    reads: &ReadSet,
    k: usize,
    canonical: CanonicalMode,
    threads: usize,
    l3_buffer: Option<usize>,
    opts: &ThreadedOpts,
) -> ThreadedRun<W> {
    let trace = opts.trace;
    let trace_sample = opts.trace_sample;
    let route_batch = opts.route_batch.max(1);
    let superkmer = opts.superkmer;
    assert!(threads >= 1);
    assert!((1..=W::MAX_K).contains(&k), "k out of range");
    if let Some(m) = superkmer {
        assert!(
            m >= 1 && m <= k && m <= 32,
            "minimizer length m = {m} must satisfy 1 <= m <= min(k = {k}, 32)"
        );
    }
    let start = Instant::now();

    // One SPSC lane per (producer, owner) pair, for word batches and for
    // L3 heavy-hitter pairs. `word_txs[p][o]` is producer p's private
    // sender towards owner o; `word_rxs[o][p]` is the matching receiver.
    // No lane is ever touched by more than one producer or one consumer,
    // so a batch handoff is a single channel send with no shared lock.
    let mut word_txs: Vec<Vec<Sender<RouteBatch<W>>>> =
        (0..threads).map(|_| Vec::with_capacity(threads)).collect();
    let mut word_rxs: Vec<Vec<Receiver<RouteBatch<W>>>> =
        (0..threads).map(|_| Vec::with_capacity(threads)).collect();
    let mut pair_txs: Vec<Vec<Sender<PairBatch<W>>>> =
        (0..threads).map(|_| Vec::with_capacity(threads)).collect();
    let mut pair_rxs: Vec<Vec<Receiver<PairBatch<W>>>> =
        (0..threads).map(|_| Vec::with_capacity(threads)).collect();
    // Span lanes (superkmer mode only): packed-span byte batches.
    let mut span_txs: Vec<Vec<Sender<Vec<u8>>>> =
        (0..threads).map(|_| Vec::with_capacity(threads)).collect();
    let mut span_rxs: Vec<Vec<Receiver<Vec<u8>>>> =
        (0..threads).map(|_| Vec::with_capacity(threads)).collect();
    for p in 0..threads {
        for o in 0..threads {
            let (tx, rx) = channel();
            word_txs[p].push(tx);
            word_rxs[o].push(rx);
            let (tx, rx) = channel();
            pair_txs[p].push(tx);
            pair_rxs[o].push(rx);
            let (tx, rx) = channel();
            span_txs[p].push(tx);
            span_rxs[o].push(rx);
        }
    }
    // Staged-words gauge per owner (the memcpy-engine analogue of the
    // simulator's pending-message gauge); only touched when tracing.
    let staged: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let phase_barrier = Barrier::new(threads);
    let outputs: Vec<Mutex<Option<Vec<KmerCount<W>>>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();
    let traces: Vec<Mutex<Vec<Event>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|s| {
        let lanes = word_txs
            .into_iter()
            .zip(word_rxs)
            .zip(pair_txs.into_iter().zip(pair_rxs))
            .zip(span_txs.into_iter().zip(span_rxs));
        for (t, (((wtx, wrx), (ptx, prx)), (stx, srx))) in lanes.enumerate() {
            let staged = &staged;
            let phase_barrier = &phase_barrier;
            let outputs = &outputs;
            let traces = &traces;
            let start = &start;
            s.spawn(move || {
                let mut ev: Option<Vec<Event>> = trace.then(Vec::new);
                let record = |ev: &mut Option<Vec<Event>>, kind: EventKind| {
                    if let Some(ev) = ev {
                        ev.push(Event {
                            ts: start.elapsed().as_secs_f64(),
                            pe: t as u32,
                            kind,
                        });
                    }
                };
                record(&mut ev, EventKind::Phase { phase: 0 });

                // --- Phase 1: parse and route ---
                let mut route: Vec<Vec<W>> =
                    (0..threads).map(|_| Vec::with_capacity(route_batch)).collect();
                let mut pair_route: Vec<Vec<(W, u32)>> = vec![Vec::new(); threads];
                let mut l3: Vec<W> = Vec::new();
                let word_bytes = std::mem::size_of::<W>();
                let mut sampler = FlowSampler::new(t as u32, trace_sample);
                // Open flow per route buffer: (flow id, open time).
                let mut route_flow: Vec<Option<(u64, f64)>> = vec![None; threads];

                // Flow-open hook: one route-buffer open (empty → first
                // push) counts once on the sampler.
                let open_flow = |owner: usize,
                                 route: &[Vec<W>],
                                 route_flow: &mut [Option<(u64, f64)>],
                                 sampler: &mut FlowSampler| {
                    if sampler.enabled() && route[owner].is_empty() {
                        if let Some(flow) = sampler.sample() {
                            route_flow[owner] = Some((flow, start.elapsed().as_secs_f64()));
                        }
                    }
                };
                // Batch handoff: counting-scatter the filled buffer into a
                // fresh run and send it down the SPSC lane. The fill buffer
                // is retained and cleared — the double-buffer swap that
                // keeps the lane contention-free.
                let flush_owner = |owner: usize,
                                   route: &mut [Vec<W>],
                                   route_flow: &mut [Option<(u64, f64)>],
                                   ev: &mut Option<Vec<Event>>| {
                    let buf = &mut route[owner];
                    if buf.is_empty() {
                        return;
                    }
                    let run = BucketRun::scatter(buf, 2 * k as u32, t);
                    record(ev, EventKind::MsgSend {
                        dst: owner as u32,
                        tag: 0,
                        bytes: (run.len() * word_bytes) as u32,
                    });
                    let flow = route_flow[owner].take().map(|(flow, t_open)| {
                        let t_send = start.elapsed().as_secs_f64();
                        record(ev, EventKind::FlowSend {
                            flow,
                            channel: 0,
                            dst: owner as u32,
                        });
                        (flow, t as u32, t_open, t_send)
                    });
                    if trace {
                        // Depth of the receiver's staged words across all
                        // of its lanes.
                        let depth =
                            staged[owner].fetch_add(run.len(), Ordering::Relaxed) + run.len();
                        record(ev, EventKind::QueueDepth { depth: depth as u32 });
                    }
                    buf.clear();
                    wtx[owner]
                        .send(RouteBatch { run, flow })
                        .expect("owner holds its receivers past the barrier");
                };
                let drain_l3 = |l3: &mut Vec<W>,
                                route: &mut [Vec<W>],
                                pair_route: &mut [Vec<(W, u32)>],
                                route_flow: &mut [Option<(u64, f64)>],
                                sampler: &mut FlowSampler,
                                ev: &mut Option<Vec<Event>>| {
                    record(ev, EventKind::L3Flush {
                        occupancy: l3.len() as u32,
                        cap: l3_buffer.unwrap_or(l3.len()) as u32,
                    });
                    sort_count(l3, |w, c| {
                        let owner = owner_pe(w, threads);
                        if c > 2 {
                            pair_route[owner].push((w, c));
                        } else {
                            for _ in 0..c {
                                open_flow(owner, route, route_flow, sampler);
                                route[owner].push(w);
                                if route[owner].len() >= route_batch {
                                    flush_owner(owner, route, route_flow, ev);
                                }
                            }
                        }
                    });
                    l3.clear();
                };

                if let Some(m) = superkmer {
                    // L2.5: decompose into minimizer spans, pack each span
                    // into its owner's byte buffer, hand whole buffers down
                    // the span lane. No per-k-mer word is ever produced on
                    // this side; `l3_buffer` is bypassed (per-k-mer).
                    let span_budget = (route_batch * word_bytes).max(64);
                    let mut span_bufs: Vec<Vec<u8>> = vec![Vec::new(); threads];
                    let canon = canonical == CanonicalMode::Canonical;
                    for i in reads.pe_range(t, threads) {
                        for_each_span(reads.get(i), k, m, canon, |mz, span| {
                            let owner = owner_pe(mz, threads);
                            let buf = &mut span_bufs[owner];
                            pack_span(buf, span);
                            if buf.len() >= span_budget {
                                record(&mut ev, EventKind::MsgSend {
                                    dst: owner as u32,
                                    tag: 2,
                                    bytes: buf.len() as u32,
                                });
                                stx[owner]
                                    .send(std::mem::take(buf))
                                    .expect("owner holds its receivers past the barrier");
                            }
                        });
                    }
                    for (owner, buf) in span_bufs.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            record(&mut ev, EventKind::MsgSend {
                                dst: owner as u32,
                                tag: 2,
                                bytes: buf.len() as u32,
                            });
                            stx[owner]
                                .send(std::mem::take(buf))
                                .expect("owner holds its receivers past the barrier");
                        }
                    }
                } else {
                    match l3_buffer {
                        None => {
                            for i in reads.pe_range(t, threads) {
                                extract_into::<W>(reads.get(i), k, canonical, |w| {
                                    let owner = owner_pe(w, threads);
                                    open_flow(owner, &route, &mut route_flow, &mut sampler);
                                    route[owner].push(w);
                                    if route[owner].len() >= route_batch {
                                        flush_owner(owner, &mut route, &mut route_flow, &mut ev);
                                    }
                                });
                            }
                        }
                        Some(c3) => {
                            for i in reads.pe_range(t, threads) {
                                extract_into::<W>(reads.get(i), k, canonical, |w| {
                                    l3.push(w);
                                    if l3.len() >= c3 {
                                        drain_l3(
                                            &mut l3,
                                            &mut route,
                                            &mut pair_route,
                                            &mut route_flow,
                                            &mut sampler,
                                            &mut ev,
                                        );
                                    }
                                });
                            }
                            if !l3.is_empty() {
                                drain_l3(
                                    &mut l3,
                                    &mut route,
                                    &mut pair_route,
                                    &mut route_flow,
                                    &mut sampler,
                                    &mut ev,
                                );
                            }
                        }
                    }
                    for owner in 0..threads {
                        flush_owner(owner, &mut route, &mut route_flow, &mut ev);
                        if !pair_route[owner].is_empty() {
                            record(&mut ev, EventKind::MsgSend {
                                dst: owner as u32,
                                tag: 1,
                                bytes: (pair_route[owner].len() * (word_bytes + 4)) as u32,
                            });
                            ptx[owner]
                                .send(std::mem::take(&mut pair_route[owner]))
                                .expect("owner holds its receivers past the barrier");
                        }
                    }
                }
                // Hang up the lanes: every batch is in flight before the
                // barrier, so phase 2's drains observe complete channels.
                drop(wtx);
                drop(ptx);
                drop(stx);

                // --- GLOBAL BARRIER (paper's phase boundary) ---
                record(&mut ev, EventKind::BarrierEnter);
                let entered = start.elapsed().as_secs_f64();
                phase_barrier.wait();
                record(&mut ev, EventKind::BarrierExit {
                    waited_s: start.elapsed().as_secs_f64() - entered,
                });
                record(&mut ev, EventKind::Phase { phase: 1 });

                // --- Phase 2: drain lanes, bucket, sort, accumulate ---
                // Word runs arrive scattered; span batches are expanded
                // into the store's staging buffer and absorbed a batch at a
                // time, so neither lane's partition is ever one array. The
                // lane drain is where sampled flows close: drain residency
                // is barrier-exit → now.
                let mut store = ReceiveStore::<W>::for_k(k);
                let now = start.elapsed().as_secs_f64();
                for batch in wrx.iter().flat_map(|rx| rx.try_iter()) {
                    if let Some((flow, src, t_open, t_send)) = batch.flow {
                        record(&mut ev, EventKind::FlowRecv {
                            flow,
                            channel: 0,
                            src,
                            l3_s: 0.0,
                            l2_s: t_send - t_open,
                            l1_s: 0.0,
                            l0_s: 0.0,
                            net_s: 0.0,
                            drain_s: now - t_send,
                            e2e_s: now - t_open,
                        });
                    }
                    store.push_run(batch.run);
                }
                let canon = canonical == CanonicalMode::Canonical;
                for buf in srx.iter().flat_map(|rx| rx.try_iter()) {
                    unpack_spans(&buf, k, canon, &mut store.plain)
                        .expect("in-process span lanes are lossless");
                    store.absorb_batch();
                }
                for batch in prx.iter().flat_map(|rx| rx.try_iter()) {
                    store.pairs.extend(batch);
                }
                *outputs[t].lock().unwrap() = Some(store.into_counts());
                if let Some(ev) = ev {
                    *traces[t].lock().unwrap() = ev;
                }
            });
        }
    });

    let runs: Vec<Vec<KmerCount<W>>> = outputs
        .iter()
        .map(|m| m.lock().unwrap().take().expect("every worker published"))
        .collect();
    let counts = merge_disjoint_runs(runs);

    let trace = trace.then(|| {
        traces
            .iter()
            .flat_map(|m| std::mem::take(&mut *m.lock().unwrap()))
            .collect()
    });

    ThreadedRun {
        counts,
        elapsed: start.elapsed(),
        threads,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_kmer::kmers_of_read;
    use std::collections::BTreeMap;

    fn reference(reads: &ReadSet, k: usize, mode: CanonicalMode) -> Vec<KmerCount<u64>> {
        let mut h: BTreeMap<u64, u32> = BTreeMap::new();
        for r in reads.iter() {
            for w in kmers_of_read::<u64>(r, k, mode) {
                *h.entry(w).or_default() += 1;
            }
        }
        h.into_iter().map(|(w, c)| KmerCount::new(w, c)).collect()
    }

    fn random_reads(n: usize, m: usize, seed: u64) -> ReadSet {
        use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
        let g = generate_genome(&GenomeSpec { bases: 4 * n * m / 3 + 200, repeats: None }, seed);
        simulate_reads(
            &g,
            &ReadSimConfig { read_len: m, num_reads: n, error_rate: 0.01, both_strands: false },
            seed,
        )
    }

    #[test]
    fn matches_reference_various_thread_counts() {
        let reads = random_reads(300, 80, 1);
        let want = reference(&reads, 21, CanonicalMode::Forward);
        for t in [1, 2, 4, 7] {
            let run = count_kmers_threaded::<u64>(&reads, 21, CanonicalMode::Forward, t, None);
            assert_eq!(run.counts, want, "threads = {t}");
        }
    }

    #[test]
    fn tiny_route_batches_exercise_many_handoffs() {
        let reads = random_reads(150, 70, 9);
        for mode in [CanonicalMode::Forward, CanonicalMode::Canonical] {
            let want = reference(&reads, 17, mode);
            for rb in [1usize, 7, 64] {
                let opts = ThreadedOpts { route_batch: rb, ..ThreadedOpts::default() };
                let run =
                    count_kmers_threaded_opts::<u64>(&reads, 17, mode, 4, Some(256), &opts);
                assert_eq!(run.counts, want, "route_batch = {rb}, mode = {mode:?}");
            }
        }
    }

    #[test]
    fn l3_mode_matches_reference() {
        let reads = random_reads(200, 100, 2);
        let want = reference(&reads, 15, CanonicalMode::Forward);
        let run = count_kmers_threaded::<u64>(&reads, 15, CanonicalMode::Forward, 4, Some(512));
        assert_eq!(run.counts, want);
    }

    #[test]
    fn superkmer_mode_matches_reference() {
        let reads = random_reads(300, 80, 5);
        for mode in [CanonicalMode::Forward, CanonicalMode::Canonical] {
            let want = reference(&reads, 21, mode);
            for t in [1, 2, 4] {
                let opts = ThreadedOpts { superkmer: Some(7), ..ThreadedOpts::default() };
                let run = count_kmers_threaded_opts::<u64>(&reads, 21, mode, t, None, &opts);
                assert_eq!(run.counts, want, "threads = {t}, mode = {mode:?}");
            }
        }
    }

    #[test]
    fn canonical_mode_counts_strands_together() {
        let mut reads = ReadSet::new();
        reads.push(b"ACGTT");
        reads.push(b"AACGT"); // revcomp of the first
        let run = count_kmers_threaded::<u64>(&reads, 5, CanonicalMode::Canonical, 2, None);
        assert_eq!(run.counts.len(), 1);
        assert_eq!(run.counts[0].count, 2);
    }

    #[test]
    fn u128_words_large_k() {
        let reads = random_reads(100, 90, 3);
        let k = 41; // needs u128
        let run = count_kmers_threaded::<u128>(&reads, k, CanonicalMode::Forward, 3, None);
        let total: u64 = run.counts.iter().map(|c| c.count as u64).sum();
        assert_eq!(total as usize, reads.total_kmers(k));
    }

    #[test]
    fn small_k_single_byte_window() {
        // 2k ≤ 8 bits: the bucket byte is the whole key, so phase 2's
        // bucket assembly must already be sorted with no sort pass.
        let reads = random_reads(60, 40, 4);
        for k in [1usize, 3, 4] {
            let want = reference(&reads, k, CanonicalMode::Forward);
            let run = count_kmers_threaded::<u64>(&reads, k, CanonicalMode::Forward, 3, None);
            assert_eq!(run.counts, want, "k = {k}");
        }
    }

    #[test]
    fn empty_input() {
        let reads = ReadSet::new();
        let run = count_kmers_threaded::<u64>(&reads, 21, CanonicalMode::Forward, 4, None);
        assert!(run.counts.is_empty());
    }
}
