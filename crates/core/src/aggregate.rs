//! The application-side aggregation cascade: Algorithm 4 (`AsyncAdd`).
//!
//! ```text
//! AsyncAdd(kmer)
//!   └─ L3: append to a C3-element buffer; when full, sort + accumulate it
//!      locally. Heavy hitters (count > 2) travel as {kmer, count} pairs on
//!      the HEAVY channel; light k-mers re-expand into the NORMAL path.
//!       └─ L2: pack C2 same-destination k-mers (or C2/2 heavy pairs) into
//!          one conveyor packet, amortizing the 32-bit routing header.
//!           └─ L1/L0: dakc-conveyors (actor staging + routed PUTs).
//! ```
//!
//! The receiving side (`ProcessReceiveBuffer` in the paper) decodes packets
//! into a [`ReceiveStore`]: plain k-mers and pre-accumulated pairs, which
//! phase 2 sorts and merges.

use dakc_conveyors::{Actor, ActorConfig, ConvStats, ConveyorConfig, Fabric};
use dakc_kmer::{
    counts::merge_sorted_counts_owned, owner_pe, pack_span, packed_span_bytes, span_kmers,
    unpack_spans, CanonicalMode, KmerCount, KmerWord, Span, SpanDecodeError,
};
use dakc_sim::telemetry::metrics::PCT_BOUNDS;
use dakc_sim::telemetry::Histogram;
use dakc_sim::{EventKind, FlowSampler, FlowTag, PeId};
use dakc_sort::{
    accumulate_weighted, lsd_radix_sort_by, sort_count, BucketRun, BucketRuns, RadixKey, STAGE_WORDS,
};

use crate::config::DakcConfig;
use crate::costs;
use crate::overlap::Compaction;

/// Channel id for packed plain k-mers.
pub const CH_NORMAL: u8 = 0;
/// Channel id for packed `{k-mer, count}` heavy-hitter pairs.
pub const CH_HEAVY: u8 = 1;
/// Channel id for single unpacked k-mers (L2 disabled).
pub const CH_SINGLE: u8 = 2;
/// Channel id for packed super-k-mer spans (L2.5, `--superkmer`).
pub const CH_SUPER: u8 = 3;

/// What a PE has received so far: the owner-side `T` array of
/// Algorithm 3/4 — which no engine builds. `plain` is a *staging* buffer:
/// [`Aggregator::progress`] decodes arrivals into it with tight sequential
/// writes, and the engine loop calls [`ReceiveStore::absorb_batch`] after
/// each `progress`, which moves a full batch ([`STAGE_WORDS`]) out of it
/// into bucket-scattered runs while it is still in L2 (see
/// [`dakc_sort::runs`]). Phase 2 is [`ReceiveStore::into_counts`]. A caller
/// that never absorbs finds every plain word it received in `plain`.
///
/// With [`ReceiveStore::track_sources`] on (rank recovery), every
/// delivery batch is indexed by its source rank so that a dead rank's
/// contributions can be [`ReceiveStore::purge_source`]d and re-received
/// from its replacement. The index over the staged records is a segment
/// list (one entry per contiguous same-source delivery run), not a
/// per-record tag, so the tracking overhead is proportional to packets,
/// not k-mers; an absorbed run remembers the one source it came from.
/// [`ReceiveStore::compacting`] is the only way to turn compaction on
/// ([`crate::overlap`]).
#[derive(Debug, Clone)]
pub struct ReceiveStore<W> {
    /// Individual k-mer occurrences (count 1 each) not yet absorbed.
    pub plain: Vec<W>,
    /// Pre-accumulated heavy-hitter deliveries.
    pub pairs: Vec<(W, u32)>,
    /// Every batch absorbed out of `plain` so far.
    runs: BucketRuns<W>,
    /// `(src, plain watermark, pairs watermark)` after each delivery run,
    /// recorded only while tracking.
    segs: Vec<(PeId, usize, usize)>,
    track: bool,
    /// Compaction on arrival (the phase-overlapped engine only).
    compact: Option<Compaction<W>>,
}

impl<W: RadixKey> Default for ReceiveStore<W> {
    /// A store for words that may use every bit of `W`; the engines, which
    /// know `k`, start from [`ReceiveStore::for_k`].
    fn default() -> Self {
        Self::with_runs(BucketRuns::default())
    }
}

impl<W: RadixKey> ReceiveStore<W> {
    /// A store for k-mers of length `k`: runs are bucketed by the top 8
    /// bits of the `2k`-bit window.
    pub fn for_k(k: usize) -> Self {
        Self::with_runs(BucketRuns::new(2 * k as u32))
    }

    fn with_runs(runs: BucketRuns<W>) -> Self {
        Self {
            plain: Vec::new(),
            pairs: Vec::new(),
            runs,
            segs: Vec::new(),
            track: false,
            compact: None,
        }
    }

    /// Records received so far: plain occurrences plus heavy pairs.
    pub(crate) fn records(&self) -> u64 {
        let closed = self.compact.as_ref().map_or(0, |c| c.records);
        (self.plain_len() + self.pairs.len()) as u64 + closed
    }

    /// Plain k-mer occurrences received, absorbed or still staged.
    pub fn plain_len(&self) -> usize {
        self.runs.len() + self.plain.len()
    }

    /// Total occurrences represented.
    pub fn total_occurrences(&self) -> u64 {
        let closed = self.compact.as_ref().map_or(0, |c| c.occurrences);
        self.plain_len() as u64 + self.pairs.iter().map(|&(_, c)| c as u64).sum::<u64>() + closed
    }

    /// Turns on source tracking (call before any records arrive).
    pub fn track_sources(&mut self) {
        assert!(
            self.plain_len() == 0 && self.pairs.is_empty(),
            "source tracking must start before the first delivery"
        );
        self.track = true;
    }

    /// Records that everything appended since the last note came from
    /// `src`. Called by the delivery path after each decoded packet.
    pub fn note_delivery(&mut self, src: PeId) {
        if !self.track {
            return;
        }
        let (p, q) = (self.plain.len(), self.pairs.len());
        let (lp, lq) = self.segs.last().map(|&(_, a, b)| (a, b)).unwrap_or((0, 0));
        if (p, q) == (lp, lq) {
            return; // nothing appended by this delivery
        }
        match self.segs.last_mut() {
            // Extend a same-source run instead of growing the index.
            Some(seg) if seg.0 == src => {
                seg.1 = p;
                seg.2 = q;
            }
            _ => self.segs.push((src, p, q)),
        }
    }

    /// [`ReceiveStore::absorb`] once a whole batch is staged: what an
    /// engine loop calls after every `progress`.
    pub fn absorb_batch(&mut self) {
        if self.plain.len() >= STAGE_WORDS {
            self.absorb();
        }
    }

    /// Moves the staged plain words into bucket-scattered runs — one run,
    /// or while tracking one per source present — and leaves `plain` empty
    /// with its allocation.
    pub fn absorb(&mut self) {
        if !self.track {
            return self.runs.absorb(&mut self.plain, 0);
        }
        let mut srcs: Vec<PeId> = self.segs.iter().map(|seg| seg.0).collect();
        srcs.sort_unstable();
        srcs.dedup();
        let mut from_src: Vec<W> = Vec::new();
        for src in srcs {
            let mut pp = 0;
            for &(s, pe, _) in &self.segs {
                if s == src {
                    from_src.extend_from_slice(&self.plain[pp..pe]);
                }
                pp = pe;
            }
            self.runs.absorb(&mut from_src, src);
        }
        self.plain.clear();
        // The index now covers the staged pairs only.
        let mut qq = 0;
        self.segs.retain_mut(|seg| {
            seg.1 = 0;
            let has_pairs = seg.2 > qq;
            qq = seg.2;
            has_pairs
        });
    }

    /// Takes a run a producer thread scattered itself
    /// (`BucketRun::scatter(.., 2k, ..)`), as if it had been staged and
    /// absorbed here.
    pub fn push_run(&mut self, run: BucketRun<W>) {
        self.runs.push(run);
    }

    /// Drops every record delivered by `src`, returning how many
    /// occurrences were discarded. Requires source tracking; the caller
    /// re-receives the purged content from the rank's replacement.
    pub fn purge_source(&mut self, src: PeId) -> u64 {
        assert!(self.track, "purge_source requires track_sources");
        let mut purged = self.runs.drop_source(src) as u64;
        let mut plain = Vec::with_capacity(self.plain.len());
        let mut pairs = Vec::with_capacity(self.pairs.len());
        let mut segs = Vec::with_capacity(self.segs.len());
        let (mut pp, mut qq) = (0usize, 0usize);
        for &(s, pe, qe) in &self.segs {
            if s == src {
                purged += (pe - pp) as u64;
                purged += self.pairs[qq..qe].iter().map(|&(_, c)| c as u64).sum::<u64>();
            } else {
                plain.extend_from_slice(&self.plain[pp..pe]);
                pairs.extend_from_slice(&self.pairs[qq..qe]);
                segs.push((s, plain.len(), pairs.len()));
            }
            pp = pe;
            qq = qe;
        }
        assert_eq!(
            (pp, qq),
            (self.plain.len(), self.pairs.len()),
            "untracked records in a source-tracked store"
        );
        self.plain = plain;
        self.pairs = pairs;
        self.segs = segs;
        purged
    }
}

impl<W: KmerWord + RadixKey> ReceiveStore<W> {
    /// A store that compacts its arrivals into sorted, accumulated runs of
    /// `threshold` records as they land, for the phase-overlapped engine.
    pub(crate) fn compacting(k: usize, threshold: usize) -> Self {
        Self { compact: Some(Compaction::new(threshold)), ..Self::for_k(k) }
    }

    /// What the rank program calls after every `progress`: absorbs a
    /// staged batch, or closes the runs the arrivals filled.
    pub(crate) fn settle<F: Fabric>(&mut self, fab: &mut F) {
        match &mut self.compact {
            None => self.absorb_batch(),
            Some(c) => c.settle(fab, &mut self.plain, &mut self.pairs),
        }
    }

    /// Phase 2 on the quiescent store: the sorted `{k-mer, count}` table of
    /// everything received — each bucket of the plain runs through
    /// [`dakc_sort::sort_count`], the heavy pairs sorted and summed, the
    /// two merged.
    pub fn into_counts(mut self) -> Vec<KmerCount<W>> {
        self.absorb();
        let mut plain: Vec<KmerCount<W>> = Vec::new();
        self.runs.sort_count(|w, c| plain.push(KmerCount::new(w, c)));
        lsd_radix_sort_by(&mut self.pairs, |p| p.0);
        let heavy: Vec<KmerCount<W>> = accumulate_weighted(&self.pairs)
            .into_iter()
            .map(|(w, c)| KmerCount::new(w, c))
            .collect();
        merge_sorted_counts_owned(plain, heavy)
    }

    /// Phase 2, charged to `fab`. The stock charges depend only on how
    /// many records arrived, not on how the store holds them.
    pub(crate) fn count<F: Fabric>(mut self, fab: &mut F) -> Vec<KmerCount<W>> {
        if let Some(c) = self.compact.take() {
            return c.finish(fab, &mut self.plain, &mut self.pairs);
        }
        let word_bytes = (W::BITS / 8) as u64;
        let (plain, pairs) = (self.plain_len() as u64, self.pairs.len() as u64);
        // Held, not freed: all PEs sort concurrently on a real node, so the
        // OOM accounting must see the summed peak (see the same note in the
        // BSP baseline).
        fab.mem_alloc(plain * word_bytes);
        costs::charge_hybrid_sort(fab, plain, word_bytes);
        costs::charge_accumulate(fab, plain, word_bytes);
        costs::charge_hybrid_sort(fab, pairs, word_bytes + 4);
        costs::charge_accumulate(fab, pairs, word_bytes + 4);
        self.into_counts()
    }
}

/// Aggregation counters for the ablation experiments (Fig 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggStats {
    /// k-mers passed to `AsyncAdd`.
    pub kmers_added: u64,
    /// L3 buffer sort+accumulate rounds.
    pub l3_flushes: u64,
    /// Heavy `{k-mer, count}` pairs shipped.
    pub heavy_pairs: u64,
    /// Occurrences compressed away by heavy-hitter pre-accumulation
    /// (`count − 1` summed over heavy pairs).
    pub occurrences_compressed: u64,
    /// NORMAL packets sent.
    pub normal_packets: u64,
    /// HEAVY packets sent.
    pub heavy_packets: u64,
    /// SINGLE packets sent (L2 disabled).
    pub single_packets: u64,
    /// SUPER span packets sent (`--superkmer`).
    pub super_packets: u64,
    /// Super-k-mer span records shipped.
    pub spans_shipped: u64,
    /// Span payload bytes shipped (length prefixes included).
    pub span_wire_bytes: u64,
    /// Bases the per-k-mer format would have shipped minus the bases the
    /// spans actually carried: `Σ (kmers·k − len)` over shipped spans.
    pub span_bases_saved: u64,
}

/// A payload that failed to decode on arrival. The first one latches in
/// the [`Aggregator`] and the engines surface it as a typed wire error
/// instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A SUPER payload's span stream is malformed.
    Span(SpanDecodeError),
    /// The record names a channel [`decode_packet`] does not decode.
    UnknownChannel {
        /// The channel id found.
        channel: u8,
    },
    /// A NORMAL or HEAVY payload is not a whole number of records, or a
    /// SINGLE payload not exactly one.
    RaggedPayload {
        /// The channel the payload arrived on.
        channel: u8,
        /// Payload bytes received.
        len: usize,
        /// Bytes one record of that channel takes.
        record: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Span(e) => write!(f, "super-k-mer span: {e}"),
            Self::UnknownChannel { channel } => write!(f, "packet on unknown channel {channel}"),
            Self::RaggedPayload { channel, len, record } => write!(
                f,
                "channel {channel} payload of {len} bytes is not made of {record}-byte records"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<SpanDecodeError> for DecodeError {
    fn from(e: SpanDecodeError) -> Self {
        Self::Span(e)
    }
}

/// One channel's L2 state per destination, indexed by `PeId`.
#[derive(Debug)]
struct Lanes<T> {
    /// The packet buffer per destination. A destination never written to
    /// owns no heap memory; one that is reserves a packet's worth on its
    /// first record and keeps it across ships. No entries at all when
    /// the channel is unused in this configuration.
    bufs: Vec<Vec<T>>,
    /// The open flow per destination buffer (sampled opens only). No
    /// entries unless flow sampling is on.
    flows: Vec<Option<FlowTag>>,
}

impl<T> Lanes<T> {
    fn new(used: bool, sampled: bool, num_pes: usize) -> Self {
        let n = if used { num_pes } else { 0 };
        Self {
            bufs: std::iter::repeat_with(Vec::new).take(n).collect(),
            flows: vec![None; if sampled { n } else { 0 }],
        }
    }

    /// Closes `dst`'s open flow, if it has one.
    fn take_flow(&mut self, dst: PeId) -> Option<FlowTag> {
        self.flows.get_mut(dst).and_then(Option::take)
    }
}

/// The per-PE sender-side aggregation state.
#[derive(Debug)]
pub struct Aggregator<W> {
    cfg: DakcConfig,
    me: PeId,
    num_pes: usize,
    actor: Actor,
    l3: Vec<W>,
    /// NORMAL packets in the making.
    normal: Lanes<W>,
    /// HEAVY packets in the making.
    heavy: Lanes<(W, u32)>,
    /// SUPER packets in the making (L2.5, `--superkmer`): packed wire
    /// records accumulate until the packet budget fills.
    spans: Lanes<u8>,
    stats: AggStats,
    word_bytes: usize,
    /// Deterministic 1-in-N flow sampler (disabled unless
    /// [`DakcConfig::trace_sample`] is set).
    sampler: FlowSampler,
    /// `l2.packet_fill_pct`, tallied per shipped packet and folded into
    /// the run's registry by [`Aggregator::release`].
    fill: Histogram,
    /// First decode failure observed while servicing arrivals; the
    /// engines surface it as a typed wire error instead of a panic.
    decode_err: Option<DecodeError>,
    /// Virtual time the current L3 batch opened (first k-mer pushed);
    /// flows opened while it accumulates inherit it as their `t_open`.
    l3_open: Option<f64>,
}

impl<W: KmerWord + RadixKey> Aggregator<W> {
    /// Builds the cascade for this PE and registers its buffer memory.
    pub fn new<F: Fabric>(cfg: DakcConfig, ctx: &mut F) -> Self {
        cfg.validate::<W>();
        let actor_cfg = ActorConfig {
            c1_packets: cfg.c1_packets,
            conveyor: ConveyorConfig {
                protocol: cfg.protocol,
                c0_bytes: cfg.c0_bytes,
                channels: cfg.channels::<W>(),
                channel_names: vec!["normal", "heavy", "single", "super"],
            },
        };
        let actor = Actor::new(actor_cfg, ctx);
        let num_pes = ctx.num_pes();
        ctx.mem_alloc(cfg.app_layer_bytes::<W>(num_pes));
        let word_bytes = cfg.kmer_bytes::<W>();
        let sampler = FlowSampler::new(ctx.pe() as u32, cfg.trace_sample);
        let sampled = sampler.enabled();
        Self {
            me: ctx.pe(),
            num_pes,
            actor,
            l3: Vec::new(),
            normal: Lanes::new(cfg.enable_l2, sampled, num_pes),
            heavy: Lanes::new(cfg.enable_l3, sampled, num_pes),
            spans: Lanes::new(cfg.superkmer, sampled, num_pes),
            stats: AggStats::default(),
            word_bytes,
            sampler,
            fill: Histogram::with_bounds(PCT_BOUNDS),
            decode_err: None,
            l3_open: None,
            cfg,
        }
    }

    /// Aggregation counters.
    pub fn stats(&self) -> AggStats {
        self.stats
    }

    /// The conveyor counters underneath.
    pub fn conveyor_stats(&self) -> ConvStats {
        self.actor.conveyor_stats()
    }

    /// Algorithm 3's `AsyncAdd`: route one parsed k-mer toward its owner.
    /// Always inlined, like [`Aggregator::add_to_l2`]: the per-k-mer path
    /// must not depend on how the compiler sizes up its caller.
    #[inline(always)]
    pub fn async_add<F: Fabric>(&mut self, ctx: &mut F, kmer: W) {
        self.stats.kmers_added += 1;
        if self.cfg.enable_l3 {
            if self.sampler.enabled() && self.l3.is_empty() {
                self.l3_open = Some(ctx.now());
            }
            self.l3.push(kmer);
            ctx.charge_ops(1);
            if self.l3.len() >= self.cfg.c3 {
                self.flush_l3(ctx);
            }
        } else {
            self.add_to_l2(ctx, kmer, 1);
        }
    }

    /// [`Aggregator::async_add`] for every k-mer of `kmers`, in order:
    /// what a Parse loop calls with the words it extracted from a read.
    pub fn async_add_batch<F: Fabric>(&mut self, ctx: &mut F, kmers: &[W]) {
        for &kmer in kmers {
            self.async_add(ctx, kmer);
        }
    }

    /// L2.5 `AsyncAdd`: route one super-k-mer span toward the owner of
    /// its minimizer. Every k-mer the span carries belongs to that owner
    /// (the minimizer is a pure function of k-mer content), so the owner
    /// partition stays disjoint and phase 2 is unchanged.
    ///
    /// Bypasses L3 — pre-accumulation is per-k-mer, and expanding spans
    /// locally just to re-compress them would forfeit the wire savings.
    pub fn async_add_span<F: Fabric>(&mut self, ctx: &mut F, minimizer: u64, span: Span<'_>) {
        debug_assert!(self.cfg.superkmer);
        let kmers = (span.len() + 1 - self.cfg.k) as u64;
        self.stats.kmers_added += kmers;
        self.stats.spans_shipped += 1;
        self.stats.span_bases_saved += kmers * self.cfg.k as u64 - span.len() as u64;
        let dst = owner_pe(minimizer, self.num_pes);
        let budget = self.cfg.super_payload::<W>();
        let record = packed_span_bytes(span.len());
        if self.spans.bufs[dst].len() + record > budget {
            self.ship_super(ctx, dst);
        }
        if self.spans.bufs[dst].is_empty() {
            self.spans.bufs[dst].reserve_exact(budget);
            if let Some(tag) = self.open_flow(ctx, CH_SUPER) {
                self.spans.flows[dst] = Some(tag);
            }
        }
        let buf = &mut self.spans.bufs[dst];
        pack_span(buf, span);
        ctx.charge_ops(span.len() as u64 / 8 + 1);
        if buf.len() >= budget {
            self.ship_super(ctx, dst);
        }
    }

    /// Sorts and accumulates the L3 buffer, then forwards the results
    /// (`AddToL3Buffer`'s full branch).
    fn flush_l3<F: Fabric>(&mut self, ctx: &mut F) {
        if self.l3.is_empty() {
            return;
        }
        self.stats.l3_flushes += 1;
        let mut buf = std::mem::take(&mut self.l3);
        let occupancy = buf.len() as u32;
        let cap = self.cfg.c3 as u32;
        ctx.metrics().observe(
            "l3.flush_occupancy_pct",
            PCT_BOUNDS,
            ((occupancy as u64 * 100) / cap.max(1) as u64).min(100) as f64,
        );
        ctx.trace(|| EventKind::L3Flush { occupancy, cap });
        // Cache-aware sort cost: a cache-resident L3 buffer sorts without
        // re-streaming main memory; an oversized one pays extra scatter
        // levels. This is the "very high C3 values incur additional
        // sorting overheads" effect of Fig 13b.
        costs::charge_hybrid_sort(ctx, buf.len() as u64, self.word_bytes as u64);
        costs::charge_accumulate(ctx, buf.len() as u64, self.word_bytes as u64);
        sort_count(&mut buf, |kmer, count| self.add_to_l2(ctx, kmer, count));
        self.l3_open = None;
        // The next batch fills the same allocation.
        buf.clear();
        self.l3 = buf;
    }

    /// Flow-open hook for one L2 packet-buffer open (empty → nonempty):
    /// counts the open on the sampler and mints a tag when selected. The
    /// tag's `t_open` reaches back to the current L3 batch's open time, so
    /// the L3 stage measures how long k-mers waited in pre-accumulation.
    fn open_flow<F: Fabric>(&mut self, ctx: &mut F, channel: u8) -> Option<FlowTag> {
        if !self.sampler.enabled() {
            return None;
        }
        let flow = self.sampler.sample()?;
        let now = ctx.now();
        let t_open = self.l3_open.unwrap_or(now);
        ctx.metrics().inc("flow.opened", 1);
        Some(FlowTag::open(flow, channel, self.me as u32, t_open, now))
    }

    /// `AddToL2Buffer`: pack toward the owner, splitting heavy hitters
    /// onto the HEAVY channel. Always inlined: a call per k-mer cost the
    /// words path 5–10 % whenever the inliner declined.
    #[inline(always)]
    fn add_to_l2<F: Fabric>(&mut self, ctx: &mut F, kmer: W, count: u32) {
        let dst = owner_pe(kmer, self.num_pes);
        if !self.cfg.enable_l2 {
            // L0–L1 mode: one k-mer per packet, `count` times.
            debug_assert_eq!(count, 1, "without L3 every add carries count 1");
            let word_bytes = self.word_bytes;
            for _ in 0..count {
                self.stats.single_packets += 1;
                // A SINGLE packet opens and ships in the same instant, so
                // its L3/L2 stages are zero-width.
                let opened = self.open_flow(ctx, CH_SINGLE);
                let flow = Self::stamp_ship(ctx, opened, dst);
                self.actor.send_with(ctx, dst, CH_SINGLE, flow, |arena| {
                    arena.extend_from_slice(&kmer.to_u128().to_le_bytes()[..word_bytes])
                });
            }
            return;
        }
        if self.cfg.enable_l3 && count > 2 {
            self.stats.heavy_pairs += 1;
            self.stats.occurrences_compressed += count as u64 - 1;
            let cap = self.cfg.c2 / 2;
            if self.heavy.bufs[dst].is_empty() {
                self.heavy.bufs[dst].reserve_exact(cap);
                if let Some(tag) = self.open_flow(ctx, CH_HEAVY) {
                    self.heavy.flows[dst] = Some(tag);
                }
            }
            let buf = &mut self.heavy.bufs[dst];
            buf.push((kmer, count));
            ctx.charge_ops(2);
            if buf.len() >= cap {
                self.ship_heavy(ctx, dst);
            }
        } else {
            // count ∈ {1, 2}: append `count` copies (Algorithm 4).
            for _ in 0..count {
                if self.normal.bufs[dst].is_empty() {
                    self.normal.bufs[dst].reserve_exact(self.cfg.c2);
                    if let Some(tag) = self.open_flow(ctx, CH_NORMAL) {
                        self.normal.flows[dst] = Some(tag);
                    }
                }
                let buf = &mut self.normal.bufs[dst];
                buf.push(kmer);
                ctx.charge_ops(1);
                if buf.len() >= self.cfg.c2 {
                    self.ship_normal(ctx, dst);
                }
            }
        }
    }

    /// The bookkeeping every L2 ship shares: the encode charge, the fill
    /// tally and the trace event for a packet of `used` of `cap` records.
    fn note_ship<F: Fabric>(
        &mut self,
        ctx: &mut F,
        dst: PeId,
        payload_bytes: usize,
        used: usize,
        cap: usize,
        heavy: bool,
    ) {
        ctx.charge_ops(payload_bytes as u64 / 8 + 1);
        let fill_pct = ((used * 100) / cap.max(1)).min(100) as u8;
        self.fill.observe(fill_pct as f64);
        ctx.trace(|| EventKind::L2Ship {
            dst: dst as u32,
            records: used as u32,
            fill_pct,
            heavy,
        });
    }

    /// Stamps the L2→L1 hand-off time on a shipping packet's flow tag (if
    /// any) and emits the Chrome-trace flow-start event.
    fn stamp_ship<F: Fabric>(ctx: &mut F, flow: Option<FlowTag>, dst: PeId) -> Option<FlowTag> {
        let mut tag = flow?;
        tag.t_l2_ship = ctx.now();
        let (fid, channel, fdst) = (tag.flow, tag.channel, dst as u32);
        ctx.trace(|| EventKind::FlowSend {
            flow: fid,
            channel,
            dst: fdst,
        });
        Some(tag)
    }

    /// Sends `dst`'s NORMAL buffer as one packet, encoded straight into
    /// the L1 arena.
    fn ship_normal<F: Fabric>(&mut self, ctx: &mut F, dst: PeId) {
        let n = self.normal.bufs[dst].len();
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.cfg.c2);
        self.stats.normal_packets += 1;
        let word_bytes = self.word_bytes;
        self.note_ship(ctx, dst, n * word_bytes, n, self.cfg.c2, false);
        let flow = Self::stamp_ship(ctx, self.normal.take_flow(dst), dst);
        let buf = &mut self.normal.bufs[dst];
        self.actor.send_with(ctx, dst, CH_NORMAL, flow, |arena| {
            encode_normal_into(arena, buf, word_bytes)
        });
        buf.clear();
    }

    /// Sends `dst`'s HEAVY buffer as one packet.
    fn ship_heavy<F: Fabric>(&mut self, ctx: &mut F, dst: PeId) {
        let n = self.heavy.bufs[dst].len();
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.cfg.c2 / 2);
        self.stats.heavy_packets += 1;
        let word_bytes = self.word_bytes;
        self.note_ship(ctx, dst, n * (word_bytes + 4), n, self.cfg.c2 / 2, true);
        let flow = Self::stamp_ship(ctx, self.heavy.take_flow(dst), dst);
        let buf = &mut self.heavy.bufs[dst];
        self.actor.send_with(ctx, dst, CH_HEAVY, flow, |arena| {
            encode_heavy_into(arena, buf, word_bytes)
        });
        buf.clear();
    }

    /// Sends `dst`'s span buffer as one SUPER packet; the records are
    /// wire bytes already.
    fn ship_super<F: Fabric>(&mut self, ctx: &mut F, dst: PeId) {
        let len = self.spans.bufs[dst].len();
        if len == 0 {
            return;
        }
        self.stats.super_packets += 1;
        self.stats.span_wire_bytes += len as u64;
        self.note_ship(ctx, dst, len, len, self.cfg.super_payload::<W>(), false);
        let flow = Self::stamp_ship(ctx, self.spans.take_flow(dst), dst);
        let buf = &mut self.spans.bufs[dst];
        self.actor.send_with(ctx, dst, CH_SUPER, flow, |arena| arena.extend_from_slice(buf));
        buf.clear();
    }

    /// Polls and decodes arrived packets into `store`
    /// (`ProcessReceiveBuffer`). Returns the number of records processed
    /// (delivered here or relayed onward).
    pub fn progress<F: Fabric>(&mut self, ctx: &mut F, store: &mut ReceiveStore<W>) -> u64 {
        let before = self.actor.conveyor_stats();
        let word_bytes = self.word_bytes;
        let (k, canonical) = (self.cfg.k, self.cfg.canonical == CanonicalMode::Canonical);
        let decode_err = &mut self.decode_err;
        let mut decoded_ops = 0u64;
        let mut expanded_kmers = 0u64;
        {
            let mut handler = |src: PeId, channel: u8, payload: &[u8]| {
                // Fallible by design: a corrupt payload latches a typed
                // error for the engine instead of panicking.
                let decoded = if channel == CH_SUPER {
                    unpack_spans(payload, k, canonical, &mut store.plain)
                        .map(|sum| expanded_kmers += sum.kmers)
                        .map_err(DecodeError::from)
                } else {
                    decode_packet(channel, payload, word_bytes, store)
                };
                if let Err(e) = decoded {
                    decode_err.get_or_insert(e);
                }
                // No-op unless the store tracks sources (rank recovery).
                store.note_delivery(src);
                decoded_ops += payload.len() as u64 / 8 + 1;
            };
            self.actor.progress(ctx, &mut handler);
        }
        ctx.charge_ops(decoded_ops);
        if expanded_kmers > 0 {
            costs::charge_span_expand(ctx, expanded_kmers, word_bytes as u64);
        }
        let after = self.actor.conveyor_stats();
        (after.items_delivered - before.items_delivered)
            + (after.items_forwarded - before.items_forwarded)
    }

    /// Flushes every level (L3 → L2 → L1 → L0) and enters draining mode;
    /// call once parsing is finished, immediately before the global
    /// barrier. Partial packets ship in ascending destination order,
    /// channel by channel.
    pub fn flush<F: Fabric>(&mut self, ctx: &mut F) {
        if self.cfg.enable_l3 {
            self.flush_l3(ctx);
        }
        for dst in 0..self.heavy.bufs.len() {
            self.ship_heavy(ctx, dst);
        }
        for dst in 0..self.normal.bufs.len() {
            self.ship_normal(ctx, dst);
        }
        for dst in 0..self.spans.bufs.len() {
            self.ship_super(ctx, dst);
        }
        self.actor.begin_drain(ctx);
    }

    /// Drops every not-yet-shipped record destined for `dead` from every
    /// cascade level (L3 k-mers it owns, its L2 packet buffers, L1 staged
    /// packets, L0 send buffers), returning how many k-mer occurrences
    /// were discarded. Recovery replay: shipping this content to the
    /// rank's replacement would double-count it against the
    /// deterministically re-extracted replay, so it is purged first.
    pub fn purge_dest<F: Fabric>(&mut self, ctx: &mut F, dead: PeId) -> u64 {
        let n = self.num_pes;
        let before = self.l3.len();
        self.l3.retain(|&w| owner_pe(w, n) != dead);
        let mut purged = (before - self.l3.len()) as u64;
        if let Some(buf) = self.normal.bufs.get_mut(dead) {
            purged += buf.len() as u64;
            buf.clear();
        }
        if let Some(buf) = self.heavy.bufs.get_mut(dead) {
            purged += buf.iter().map(|&(_, c)| c as u64).sum::<u64>();
            buf.clear();
        }
        if let Some(buf) = self.spans.bufs.get_mut(dead) {
            // Span buffers are already encoded; count k-mers per record.
            purged += span_kmers(buf, self.cfg.k).expect("locally packed spans are well-formed");
            buf.clear();
        }
        // Open flow tags for the purged buffers die with them.
        self.normal.take_flow(dead);
        self.heavy.take_flow(dead);
        self.spans.take_flow(dead);
        self.actor.purge_dest(ctx, dead);
        purged
    }

    /// The first decode failure observed while servicing arrivals, if
    /// any — cleared by the take.
    pub fn take_decode_error(&mut self) -> Option<DecodeError> {
        self.decode_err.take()
    }

    /// Test hook: latches a decode error exactly as servicing a corrupt
    /// payload would (first error wins).
    #[cfg(test)]
    pub(crate) fn inject_decode_error(&mut self, e: impl Into<DecodeError>) {
        self.decode_err.get_or_insert(e.into());
    }

    /// Releases registered buffer memory and folds the locally tallied
    /// telemetry into the run's registry; call once, after the last ship.
    pub fn release<F: Fabric>(&mut self, ctx: &mut F) {
        let m = ctx.metrics();
        m.fold_histogram("l2.packet_fill_pct", &mut self.fill);
        // Present exactly when a span (or a span packet) was shipped, as
        // when they were counted one call per span.
        if self.stats.spans_shipped > 0 {
            m.inc("net.superkmer.spans", self.stats.spans_shipped);
            m.inc("net.superkmer.bases_saved", self.stats.span_bases_saved);
        }
        if self.stats.super_packets > 0 {
            m.inc("net.superkmer.bytes_sent", self.stats.span_wire_bytes);
        }
        ctx.mem_free(self.cfg.app_layer_bytes::<W>(self.num_pes));
        self.actor.release(ctx);
    }

    /// This PE's id (handy for assertions in callers).
    pub fn pe(&self) -> PeId {
        self.me
    }
}

/// Runs `codec` on `word_bytes`, handing it over as the word type's own
/// width — a constant per `W` — when the wire word is the whole word, so
/// that copy of `codec` compiles its per-word copies to fixed-width loads
/// and stores instead of `memcpy` calls.
#[inline(always)]
fn with_wire_width<W: KmerWord, R>(word_bytes: usize, mut codec: impl FnMut(usize) -> R) -> R {
    debug_assert!((1..=16).contains(&word_bytes), "wire words are 1..=16 bytes");
    let full = (W::BITS / 8) as usize;
    if word_bytes == full {
        codec(full)
    } else {
        codec(word_bytes)
    }
}

/// Appends the NORMAL payload of `buf` to `out`.
fn encode_normal_into<W: KmerWord>(out: &mut Vec<u8>, buf: &[W], word_bytes: usize) {
    let start = out.len();
    out.resize(start + buf.len() * word_bytes, 0);
    let out = &mut out[start..];
    with_wire_width::<W, _>(word_bytes, |word_bytes| {
        for (slot, w) in out.chunks_exact_mut(word_bytes).zip(buf) {
            slot.copy_from_slice(&w.to_u128().to_le_bytes()[..word_bytes]);
        }
    })
}

/// Encodes one NORMAL packet: `buf.len()` k-mer words, little-endian,
/// truncated to `word_bytes` each. This *is* the L2 wire format — the
/// transport layers below never re-encode it.
pub fn encode_normal_packet<W: KmerWord>(buf: &[W], word_bytes: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_normal_into(&mut payload, buf, word_bytes);
    payload
}

/// Appends the HEAVY payload of `buf` to `out`.
fn encode_heavy_into<W: KmerWord>(out: &mut Vec<u8>, buf: &[(W, u32)], word_bytes: usize) {
    let start = out.len();
    out.resize(start + buf.len() * (word_bytes + 4), 0);
    let out = &mut out[start..];
    with_wire_width::<W, _>(word_bytes, |word_bytes| {
        for (slot, (w, c)) in out.chunks_exact_mut(word_bytes + 4).zip(buf) {
            slot[..word_bytes].copy_from_slice(&w.to_u128().to_le_bytes()[..word_bytes]);
            slot[word_bytes..].copy_from_slice(&c.to_le_bytes());
        }
    })
}

/// Encodes one HEAVY packet: `{k-mer, count}` pairs, each a little-endian
/// word of `word_bytes` followed by a `u32 LE` count. Shared by the L2
/// heavy channel and the distributed engine's result gather.
pub fn encode_heavy_packet<W: KmerWord>(buf: &[(W, u32)], word_bytes: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_heavy_into(&mut payload, buf, word_bytes);
    payload
}

/// Reads one little-endian word of `bytes.len() <= 16` bytes.
#[inline(always)]
fn read_word<W: KmerWord>(bytes: &[u8]) -> W {
    let mut padded = [0u8; 16];
    padded[..bytes.len()].copy_from_slice(bytes);
    W::from_u128(u128::from_le_bytes(padded))
}

/// Decodes one packet into the receive store (the inverse of
/// [`encode_normal_packet`] / [`encode_heavy_packet`] / the SINGLE
/// channel's bare word). A payload that is not a whole number of records
/// (on SINGLE: not exactly one), or a channel this function does not
/// know, is a typed error and leaves the store untouched.
pub fn decode_packet<W: KmerWord>(
    channel: u8,
    payload: &[u8],
    word_bytes: usize,
    store: &mut ReceiveStore<W>,
) -> Result<(), DecodeError> {
    let record = match channel {
        CH_NORMAL | CH_SINGLE => word_bytes,
        CH_HEAVY => word_bytes + 4,
        other => return Err(DecodeError::UnknownChannel { channel: other }),
    };
    let whole = if channel == CH_SINGLE {
        payload.len() == record
    } else {
        payload.len().is_multiple_of(record)
    };
    if !whole {
        return Err(DecodeError::RaggedPayload { channel, len: payload.len(), record });
    }
    // `chunks_exact` knows its length, so each extend is one reserve and
    // a copy loop with no per-word capacity check.
    with_wire_width::<W, _>(word_bytes, |word_bytes| {
        if channel == CH_HEAVY {
            store.pairs.extend(payload.chunks_exact(word_bytes + 4).map(|pair| {
                let (w, c) = pair.split_at(word_bytes);
                (read_word::<W>(w), u32::from_le_bytes(c.try_into().expect("4 count bytes")))
            }));
        } else {
            store.plain.extend(payload.chunks_exact(word_bytes).map(read_word::<W>));
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_net::{Loopback, NetFabric};

    #[test]
    fn decode_normal_round_trip() {
        let mut store = ReceiveStore::<u64>::default();
        let payload = encode_normal_packet(&[42u64, 7], 8);
        decode_packet(CH_NORMAL, &payload, 8, &mut store).unwrap();
        assert_eq!(store.plain, vec![42, 7]);
    }

    #[test]
    fn decode_heavy_round_trip() {
        let mut store = ReceiveStore::<u64>::default();
        let payload = encode_heavy_packet(&[(99u64, 1000)], 8);
        assert_eq!(payload.len(), 12);
        decode_packet(CH_HEAVY, &payload, 8, &mut store).unwrap();
        assert_eq!(store.pairs, vec![(99, 1000)]);
        assert_eq!(store.total_occurrences(), 1000);
    }

    #[test]
    fn decode_single() {
        let mut store = ReceiveStore::<u64>::default();
        decode_packet(CH_SINGLE, &5u64.to_le_bytes(), 8, &mut store).unwrap();
        assert_eq!(store.plain, vec![5]);
    }

    #[test]
    fn decode_u128_words() {
        let mut store = ReceiveStore::<u128>::default();
        let w: u128 = (3u128 << 100) | 17;
        decode_packet(CH_SINGLE, &w.to_le_bytes(), 16, &mut store).unwrap();
        assert_eq!(store.plain, vec![w]);
    }

    #[test]
    fn narrow_wire_words_round_trip() {
        // Words narrower than the word type take the generic codec path.
        let words = [0x00ab_cdefu64, 1, 0xffff_ffff_ffff];
        let mut store = ReceiveStore::<u64>::default();
        decode_packet(CH_NORMAL, &encode_normal_packet(&words, 6), 6, &mut store).unwrap();
        assert_eq!(store.plain, words);
        let pairs = [(0x0012_3456u64, 9u32), (7, u32::MAX)];
        decode_packet(CH_HEAVY, &encode_heavy_packet(&pairs, 5), 5, &mut store).unwrap();
        assert_eq!(store.pairs, pairs);
    }

    #[test]
    fn decode_unknown_channel_is_a_typed_error() {
        let mut store = ReceiveStore::<u64>::default();
        assert_eq!(
            decode_packet(9, &[0u8; 8], 8, &mut store),
            Err(DecodeError::UnknownChannel { channel: 9 })
        );
        // CH_SUPER payloads are span streams; this codec does not own them.
        assert!(decode_packet(CH_SUPER, &[0u8; 8], 8, &mut store).is_err());
        assert!(store.plain.is_empty() && store.pairs.is_empty());
    }

    #[test]
    fn decode_truncated_payload_is_a_typed_error() {
        let mut store = ReceiveStore::<u64>::default();
        let normal = encode_normal_packet(&[1u64, 2, 3], 8);
        assert_eq!(
            decode_packet(CH_NORMAL, &normal[..20], 8, &mut store),
            Err(DecodeError::RaggedPayload { channel: CH_NORMAL, len: 20, record: 8 })
        );
        let heavy = encode_heavy_packet(&[(1u64, 5), (2, 6)], 8);
        assert_eq!(
            decode_packet(CH_HEAVY, &heavy[..23], 8, &mut store),
            Err(DecodeError::RaggedPayload { channel: CH_HEAVY, len: 23, record: 12 })
        );
        for len in [0, 7, 16] {
            assert_eq!(
                decode_packet(CH_SINGLE, &[0u8; 16][..len], 8, &mut store),
                Err(DecodeError::RaggedPayload { channel: CH_SINGLE, len, record: 8 })
            );
        }
        assert!(store.plain.is_empty() && store.pairs.is_empty(), "a bad payload adds nothing");
    }

    // Three interleaved sources, heavy pairs among the words, absorbs at
    // arbitrary points: purging one source — from the absorbed runs and
    // from the staged tail alike — leaves what never receiving it would.
    #[test]
    fn purge_source_spans_absorbed_runs_and_the_staged_tail() {
        let deliver = |skip: Option<PeId>| {
            let mut store = ReceiveStore::<u64>::for_k(5);
            store.track_sources();
            for i in 0..600u64 {
                let src = (i % 7 % 3) as PeId;
                if Some(src) != skip {
                    store.plain.extend([i * 7 % 101, i]);
                    if i % 5 == 0 {
                        store.pairs.push((i % 11, 3 + i as u32));
                    }
                    store.note_delivery(src);
                }
                if i % 97 == 96 {
                    store.absorb();
                    assert!(store.plain.is_empty());
                }
            }
            store
        };
        for dead in 0..3 {
            let mut with = deliver(None);
            let without = deliver(Some(dead));
            assert!(!with.runs.is_empty() && !with.plain.is_empty(), "both halves hold records");
            let before = with.total_occurrences();
            assert_eq!(with.purge_source(dead), before - without.total_occurrences());
            assert_eq!(with.plain_len(), without.plain_len());
            assert_eq!(with.purge_source(dead), 0, "nothing of the dead source is left");
            assert_eq!(with.into_counts(), without.into_counts(), "dead = {dead}");
        }
    }

    #[test]
    fn an_untouched_store_owns_no_heap_and_counts_to_nothing() {
        let store = ReceiveStore::<u64>::for_k(31);
        assert_eq!((store.plain.capacity(), store.pairs.capacity(), store.segs.capacity()), (0, 0, 0));
        assert_eq!(store.total_occurrences(), 0);
        assert!(store.into_counts().is_empty());
    }

    fn one_rank_of(ranks: usize, cfg: DakcConfig) -> (NetFabric<Loopback>, Aggregator<u64>) {
        let mut fab = NetFabric::new(Loopback::mesh(ranks).remove(0));
        let agg = Aggregator::<u64>::new(cfg, &mut fab);
        (fab, agg)
    }

    // A ragged NORMAL record off the wire latches exactly like a corrupt
    // span: progress keeps going, the first error waits for the engine.
    #[test]
    fn ragged_record_from_the_wire_latches_a_decode_error() {
        let (mut fab, mut agg) = one_rank_of(1, DakcConfig::scaled_defaults(31));
        let mut store = ReceiveStore::<u64>::default();
        agg.actor.send(&mut fab, 0, CH_NORMAL, &[0u8; 9]);
        agg.actor.send(&mut fab, 0, CH_NORMAL, &7u64.to_le_bytes());
        agg.flush(&mut fab);
        assert_eq!(agg.progress(&mut fab, &mut store), 2);
        assert_eq!(store.plain, vec![7], "records after the bad one still land");
        assert_eq!(
            agg.take_decode_error(),
            Some(DecodeError::RaggedPayload { channel: CH_NORMAL, len: 9, record: 8 })
        );
        assert_eq!(agg.take_decode_error(), None, "take clears the latch");
    }

    /// Distinct words owned by `dst` of `ranks`, in a fixed order.
    fn words_owned_by(dst: PeId, ranks: usize, n: usize) -> Vec<u64> {
        (1u64..).filter(|&w| owner_pe(w, ranks) == dst).take(n).collect()
    }

    #[test]
    fn untouched_destinations_never_allocate() {
        let cfg = DakcConfig::scaled_defaults(31).with_l3().with_superkmer(7);
        let (mut fab, mut agg) = one_rank_of(3, cfg.clone());
        for w in words_owned_by(1, 3, 5) {
            agg.add_to_l2(&mut fab, w, 1);
            agg.add_to_l2(&mut fab, w, 3);
        }
        assert_eq!(agg.normal.bufs[1].capacity(), cfg.c2);
        assert_eq!(agg.heavy.bufs[1].capacity(), cfg.c2 / 2);
        for dst in [0, 2] {
            assert_eq!(agg.normal.bufs[dst].capacity(), 0);
            assert_eq!(agg.heavy.bufs[dst].capacity(), 0);
        }
        assert!(agg.spans.bufs.iter().all(|b| b.capacity() == 0));
        // A channel the configuration never uses has no table at all, and
        // no flow table exists without sampling.
        let (_, plain) = one_rank_of(3, DakcConfig::scaled_defaults(31));
        assert!(plain.heavy.bufs.is_empty() && plain.spans.bufs.is_empty());
        assert!(plain.normal.flows.is_empty());
        // Shipping keeps the buffer for the next packet.
        agg.flush(&mut fab);
        assert!(agg.normal.bufs[1].is_empty());
        assert_eq!(agg.normal.bufs[1].capacity(), cfg.c2);
    }

    // A destination with content at every level: words waiting in L3, a
    // partial NORMAL and a partial HEAVY packet in L2, packets staged in
    // L1 and records buffered in L0. The counts are those the hash-map
    // tables returned at commit 3507dfe for this same sequence of calls.
    #[test]
    fn purge_dest_counts_every_level() {
        let mut cfg = DakcConfig::scaled_defaults(31).with_l3();
        (cfg.c3, cfg.c2, cfg.c1_packets, cfg.c0_bytes) = (64, 8, 4, 4096);
        let (mut fab, mut agg) = one_rank_of(2, cfg);
        let theirs = words_owned_by(1, 2, 40);
        let mine = words_owned_by(0, 2, 40);
        // 230 adds = three full L3 batches (whose flushes fill L2, L1 and
        // L0) and 38 words left in L3. Every fifth add repeats one word,
        // so each batch carries a heavy hitter per destination.
        for i in 0..230 {
            let pool = if i % 2 == 0 { &theirs } else { &mine };
            let w = if i % 5 == 0 { pool[0] } else { pool[(i / 2) % pool.len()] };
            agg.async_add(&mut fab, w);
        }
        let before = agg.conveyor_stats();
        assert!(!agg.l3.is_empty() && !agg.normal.bufs[1].is_empty());
        assert!(!agg.heavy.bufs[1].is_empty());
        let purged = agg.purge_dest(&mut fab, 1);
        let after = agg.conveyor_stats();
        assert_eq!(purged, 43, "19 L3 words, 4 NORMAL words, 3 HEAVY pairs worth 20");
        assert_eq!(after.items_purged - before.items_purged, 8, "L0 records");
        assert!(agg.normal.bufs[1].is_empty() && agg.heavy.bufs[1].is_empty());
        assert!(agg.l3.iter().all(|&w| owner_pe(w, 2) == 0));
        // What is left is exactly this rank's own share.
        let mut store = ReceiveStore::<u64>::default();
        agg.flush(&mut fab);
        while agg.progress(&mut fab, &mut store) > 0 {}
        assert_eq!(store.total_occurrences(), 115);
        assert_eq!(agg.take_decode_error(), None);
    }
}
