//! The query frontend: owner-grouped batching, latency histograms, and
//! typed partial-results degradation.
//!
//! The client joins the serve mesh as its last rank. Each batch of keys
//! is grouped by `owner_pe(key, servers)` — the same hash that routed
//! the k-mers at count time, so every key's answer lives on exactly the
//! rank the group is sent to — and shipped as one LOOKUP frame per
//! owner (split into several when the group would exceed the transport's
//! frame bound): the L2-aggregation idea applied to reads. Per-key and
//! per-batch latencies feed `flow.serve.*` histograms in the standard
//! flow-latency bounds, so `--metrics` output reports lookup p50/p95/p99
//! through the existing plumbing.
//!
//! Degradation is staged. When the service replicates (`--replicas R`,
//! announced in the READY hello), owner `o`'s shard also lives on ranks
//! `o+1..o+R-1 (mod S)`, and a request whose holder is dead or
//! deadline-silent *fails over*: the same keys are re-sent to the next
//! live copy (counted in `serve.failovers`, its extra latency in
//! `flow.serve.failover_s`) before any key is given up on. Only when
//! every copy of a shard is gone does the client yield
//! [`LookupResult::Unavailable`] for exactly that owner's key range —
//! typed partial results, never a hang. Once a rank is marked dead the
//! client stops routing to it; later batches go straight to a replica.

use std::collections::HashMap;
use std::time::Instant;

use dakc_kmer::{owner_pe, KmerCount, KmerWord};
use dakc_net::{FrameKind, NetError, NetTuning, Transport};
use dakc_sim::telemetry::{metrics::LATENCY_BOUNDS, MetricsRegistry};

use crate::error::{ServeError, ServeResult};
use crate::wire::{
    decode_ready, decode_response, encode_request, lookup_keys_per_frame, Ready, Request,
    Response,
};

/// One key's outcome in a batch lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The key's count (0 = not present in the table).
    Count(u32),
    /// The owning shard's server is dead or silent: no answer for this
    /// key range, typed instead of hung.
    Unavailable {
        /// The unreachable server rank.
        rank: usize,
    },
}

/// A batch's results plus the ranks that failed to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Per-key results, parallel to the query keys.
    pub results: Vec<LookupResult>,
    /// Server ranks that were (or became) unavailable this batch.
    pub unavailable: Vec<usize>,
}

impl BatchOutcome {
    /// Whether every key got a real count.
    pub fn complete(&self) -> bool {
        self.unavailable.is_empty()
    }
}

/// An aggregate (histogram or top-N) plus the ranks it is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate<V> {
    /// The merged value over the servers that answered.
    pub value: V,
    /// Server ranks whose shard is not reflected in `value`.
    pub unavailable: Vec<usize>,
}

/// The serve-mesh client endpoint.
#[derive(Debug)]
pub struct QueryClient<W, T> {
    transport: T,
    servers: usize,
    /// Replication factor the service announced (1 = no replication).
    replicas: usize,
    k: usize,
    word_bytes: usize,
    canonical: bool,
    total_records: u64,
    tuning: NetTuning,
    next_id: u64,
    /// Servers observed dead (disconnected or deadline-silent).
    dead: Vec<bool>,
    metrics: MetricsRegistry,
    _marker: std::marker::PhantomData<W>,
}

impl<W: KmerWord, T: Transport> QueryClient<W, T> {
    /// Joins the serve mesh (this endpoint must be the last rank) and
    /// waits for every server's READY hello, learning `k`, the word
    /// width, and the canonicality mode from the service itself. A
    /// server that dies before its hello arrives fails the connect with
    /// [`ServeError::ShardUnavailable`]; silence past the connect
    /// deadline fails with a timeout naming the missing ranks.
    pub fn connect(mut transport: T, tuning: NetTuning) -> ServeResult<Self> {
        let n = transport.num_ranks();
        let me = transport.rank();
        assert_eq!(me, n - 1, "the query client must be the mesh's last rank");
        let servers = n - 1;
        assert!(servers > 0, "a serve mesh needs at least one server");
        let mut hellos: Vec<Option<Ready>> = vec![None; servers];
        let start = Instant::now();
        while hellos.iter().any(Option::is_none) {
            match transport.try_recv().map_err(ServeError::from)? {
                Some((src, bytes)) => {
                    if src >= servers {
                        continue;
                    }
                    if let Some(hello) = decode_ready(src, &bytes)? {
                        hellos[src] = Some(hello);
                    }
                }
                None => {
                    if let Some(dead) = (0..servers)
                        .find(|&r| hellos[r].is_none() && transport.peer_dead(r))
                    {
                        return Err(ServeError::ShardUnavailable {
                            rank: dead,
                            detail: "server died before announcing its shard".to_string(),
                        });
                    }
                    if start.elapsed() >= tuning.connect_timeout {
                        let missing: Vec<usize> =
                            (0..servers).filter(|&r| hellos[r].is_none()).collect();
                        return Err(ServeError::Net(NetError::timeout(
                            "serve-connect",
                            start.elapsed(),
                            format!("no READY from server ranks {missing:?}"),
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }
        let hellos: Vec<Ready> = hellos.into_iter().map(|h| h.expect("filled")).collect();
        let first = hellos[0];
        for h in &hellos[1..] {
            if (h.k, h.word_bytes, h.canonical, h.replicas)
                != (first.k, first.word_bytes, first.canonical, first.replicas)
            {
                return Err(ServeError::Mismatch {
                    detail: format!(
                        "rank {} serves k={} wb={} canonical={} replicas={}, \
                         rank 0 serves k={} wb={} canonical={} replicas={}",
                        h.rank, h.k, h.word_bytes, h.canonical, h.replicas,
                        first.k, first.word_bytes, first.canonical, first.replicas
                    ),
                });
            }
        }
        if first.replicas as usize > servers {
            return Err(ServeError::Mismatch {
                detail: format!(
                    "service announces {} replicas over only {servers} server(s)",
                    first.replicas
                ),
            });
        }
        let expected_wb = if W::BITS <= 64 { 8 } else { 16 };
        if first.word_bytes as usize != expected_wb {
            return Err(ServeError::Mismatch {
                detail: format!(
                    "service word width is {}, this client is built for {expected_wb}",
                    first.word_bytes
                ),
            });
        }
        Ok(Self {
            transport,
            servers,
            replicas: (first.replicas as usize).max(1),
            k: first.k as usize,
            word_bytes: first.word_bytes as usize,
            canonical: first.canonical,
            total_records: hellos.iter().map(|h| h.n_records).sum(),
            tuning,
            next_id: 0,
            dead: vec![false; servers],
            metrics: MetricsRegistry::new(),
            _marker: std::marker::PhantomData,
        })
    }

    /// K-mer length the service was counted at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the service's counts are canonical.
    pub fn canonical(&self) -> bool {
        self.canonical
    }

    /// Server ranks in the mesh.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Replication factor the service announced (1 = no replication).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total records across every announced shard.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Server ranks currently considered unavailable.
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.servers).filter(|&r| self.dead[r]).collect()
    }

    /// The client-side metrics: `serve.*` counters and `flow.serve.*`
    /// latency histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn mark_dead(&mut self, rank: usize, _why: &str) {
        if !self.dead[rank] {
            self.dead[rank] = true;
            self.metrics.inc("serve.servers_lost", 1);
        }
    }

    /// The rank holding the `j`-th copy of `owner`'s shard.
    fn replica_rank(&self, owner: usize, j: usize) -> usize {
        (owner + j) % self.servers
    }

    /// The first live copy of `owner`'s shard at or after attempt
    /// `from`, as `(attempt, holder rank)`; `None` when every copy is
    /// on a dead rank.
    fn next_attempt(&self, owner: usize, from: usize) -> Option<(usize, usize)> {
        (from..self.replicas).find_map(|j| {
            let t = self.replica_rank(owner, j);
            (!self.dead[t]).then_some((j, t))
        })
    }

    /// Sends one request for `owner`'s shard to its first live copy at
    /// or after attempt `from`. `mk(id, target)` builds the payload —
    /// it sees the holder rank so aggregate requests can tag the owner
    /// only when failing over. A holder that turns out dead at send
    /// time is marked and skipped, not batch-fatal; returns the
    /// `(attempt, id)` that went out, or `None` when every copy is
    /// gone. Any redirected send (attempt > 0) counts as a failover.
    fn send_with_failover(
        &mut self,
        owner: usize,
        from: usize,
        mut mk: impl FnMut(u64, usize) -> Vec<u8>,
    ) -> ServeResult<Option<(usize, u64)>> {
        let mut from = from;
        loop {
            let Some((j, target)) = self.next_attempt(owner, from) else {
                return Ok(None);
            };
            let id = self.fresh_id();
            let wire = mk(id, target);
            match self.transport.send_kind(target, FrameKind::Query, &wire) {
                Ok(()) => {
                    if j > 0 {
                        self.metrics.inc("serve.failovers", 1);
                    }
                    return Ok(Some((j, id)));
                }
                Err(e) if e.rank() == Some(target) => {
                    // The holder died between batches; the next copy
                    // answers for it.
                    self.mark_dead(target, "send failed");
                    from = j + 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Looks up a batch of keys. Keys are grouped by owner rank and
    /// shipped as one frame per owner — several when the group would
    /// exceed the frame bound; results come back in key order.
    /// A dead or deadline-silent holder fails over to the next live
    /// replica of the owner's shard; only when every copy is gone do
    /// the owner's keys yield [`LookupResult::Unavailable`] (and the
    /// dead ranks are remembered, so later batches route around them
    /// without waiting again).
    pub fn lookup_batch(&mut self, keys: &[W]) -> ServeResult<BatchOutcome> {
        let mut results = vec![LookupResult::Count(0); keys.len()];
        if keys.is_empty() {
            return Ok(BatchOutcome { results, unavailable: vec![] });
        }
        let t0 = Instant::now();
        // Owner-grouped routing: positions[owner] lists the indices of
        // the keys that rank owns, in key order.
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); self.servers];
        for (i, &w) in keys.iter().enumerate() {
            positions[owner_pe(w, self.servers)].push(i as u32);
        }
        // Each request carries one chunk of an owner's group, sized so
        // the LOOKUP frame stays under the transport's frame bound.
        let wb = self.word_bytes;
        let per_frame = lookup_keys_per_frame(wb);
        let chunk = |owner: usize, start: usize| {
            let pos = &positions[owner];
            &pos[start..pos.len().min(start + per_frame)]
        };
        // In-flight request id → (owner whose keys it carries, start of
        // its chunk in the owner's group, replica attempt that sent it).
        let mut pending: HashMap<u64, (usize, usize, usize)> = HashMap::new();
        let mut unavailable: Vec<usize> = Vec::new();
        for (owner, pos) in positions.iter().enumerate() {
            for start in (0..pos.len()).step_by(per_frame) {
                let group: Vec<W> =
                    chunk(owner, start).iter().map(|&i| keys[i as usize]).collect();
                match self.send_with_failover(owner, 0, |id, _| {
                    encode_request(&Request::Lookup { id, keys: group.clone() }, wb)
                })? {
                    Some((j, id)) => {
                        pending.insert(id, (owner, start, j));
                    }
                    None => {
                        for &i in chunk(owner, start) {
                            results[i as usize] = LookupResult::Unavailable { rank: owner };
                        }
                        unavailable.push(owner);
                    }
                }
            }
        }
        self.transport.flush()?;

        // The deadline is per wave of progress, not per batch: every
        // failover resend restarts the clock, and each silent wave
        // marks at least one holder dead, so the loop is bounded by the
        // replica count even under cascading failures.
        let deadline = self.tuning.collective_timeout;
        let mut last_progress = Instant::now();
        while !pending.is_empty() {
            match self.transport.try_recv().map_err(ServeError::from)? {
                Some((src, bytes)) => {
                    let Some(resp) = decode_response::<W>(src, &bytes, self.word_bytes)?
                    else {
                        continue; // late hello
                    };
                    let Response::Lookup { id, counts } = resp else {
                        continue; // stale aggregate from an abandoned call
                    };
                    let Some((owner, start, attempt)) = pending.remove(&id) else {
                        continue; // stale reply from a timed-out batch
                    };
                    let asked = chunk(owner, start);
                    if counts.len() != asked.len() {
                        return Err(ServeError::Wire {
                            from: src,
                            detail: format!(
                                "lookup reply has {} counts for {} keys",
                                counts.len(),
                                asked.len()
                            ),
                        });
                    }
                    let elapsed = t0.elapsed().as_secs_f64();
                    if attempt > 0 {
                        // The answer came from a replica: record what
                        // the detour cost end to end.
                        self.metrics.observe("flow.serve.failover_s", LATENCY_BOUNDS, elapsed);
                    }
                    for (&i, c) in asked.iter().zip(counts) {
                        results[i as usize] = LookupResult::Count(c);
                        self.metrics.observe("flow.serve.lookup_s", LATENCY_BOUNDS, elapsed);
                    }
                    last_progress = Instant::now();
                }
                None => {
                    let timed_out = last_progress.elapsed() >= deadline;
                    let lost: Vec<(u64, usize, usize, usize)> = pending
                        .iter()
                        .filter(|&(_, &(o, _, j))| {
                            timed_out || self.transport.peer_dead(self.replica_rank(o, j))
                        })
                        .map(|(&id, &(o, start, j))| (id, o, start, j))
                        .collect();
                    for (id, owner, start, attempt) in lost {
                        pending.remove(&id);
                        let holder = self.replica_rank(owner, attempt);
                        let why = if timed_out { "deadline-silent" } else { "disconnected" };
                        self.mark_dead(holder, why);
                        let group: Vec<W> =
                            chunk(owner, start).iter().map(|&i| keys[i as usize]).collect();
                        match self.send_with_failover(owner, attempt + 1, |id, _| {
                            encode_request(&Request::Lookup { id, keys: group.clone() }, wb)
                        })? {
                            Some((j, id)) => {
                                self.transport.flush()?;
                                pending.insert(id, (owner, start, j));
                                last_progress = Instant::now();
                            }
                            None => {
                                for &i in chunk(owner, start) {
                                    results[i as usize] =
                                        LookupResult::Unavailable { rank: owner };
                                }
                                unavailable.push(owner);
                            }
                        }
                    }
                    if !pending.is_empty() {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                }
            }
        }
        unavailable.sort_unstable();
        unavailable.dedup();
        self.metrics.inc("serve.lookups", keys.len() as u64);
        self.metrics.inc("serve.batches", 1);
        self.metrics
            .observe("flow.serve.batch_s", LATENCY_BOUNDS, t0.elapsed().as_secs_f64());
        Ok(BatchOutcome { results, unavailable })
    }

    /// Runs one aggregate request per owner shard (normally against the
    /// owner itself, via the `_OWNER` failover form against a replica
    /// holder when the owner is dead) and merges the answers with
    /// `fold`. `req(id, owner_tag)` builds the request; `owner_tag` is
    /// `Some(owner)` exactly when the request is redirected. Owners
    /// whose every copy is gone are reported in `unavailable`.
    fn aggregate<V>(
        &mut self,
        req: impl Fn(u64, Option<u32>) -> Request<W>,
        mut fold: impl FnMut(&mut V, Response<W>) -> ServeResult<()>,
        mut value: V,
    ) -> ServeResult<Aggregate<V>> {
        let t0 = Instant::now();
        let mut pending: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut unavailable: Vec<usize> = Vec::new();
        let wb = self.word_bytes;
        for owner in 0..self.servers {
            match self.send_with_failover(owner, 0, |id, target| {
                let tag = (target != owner).then_some(owner as u32);
                encode_request(&req(id, tag), wb)
            })? {
                Some((j, id)) => {
                    pending.insert(id, (owner, j));
                }
                None => unavailable.push(owner),
            }
        }
        self.transport.flush()?;
        let deadline = self.tuning.collective_timeout;
        let mut last_progress = Instant::now();
        while !pending.is_empty() {
            match self.transport.try_recv().map_err(ServeError::from)? {
                Some((src, bytes)) => {
                    let Some(resp) = decode_response::<W>(src, &bytes, self.word_bytes)?
                    else {
                        continue;
                    };
                    if let Response::Lookup { .. } = resp {
                        continue; // stale lookup reply from a timed-out batch
                    }
                    let id = match &resp {
                        Response::Histogram { id, .. } | Response::TopN { id, .. } => *id,
                        Response::Lookup { .. } => unreachable!(),
                    };
                    let Some((_, attempt)) = pending.remove(&id) else {
                        continue;
                    };
                    if attempt > 0 {
                        self.metrics.observe(
                            "flow.serve.failover_s",
                            LATENCY_BOUNDS,
                            t0.elapsed().as_secs_f64(),
                        );
                    }
                    fold(&mut value, resp)?;
                    last_progress = Instant::now();
                }
                None => {
                    let timed_out = last_progress.elapsed() >= deadline;
                    let lost: Vec<(u64, usize, usize)> = pending
                        .iter()
                        .filter(|&(_, &(o, j))| {
                            timed_out || self.transport.peer_dead(self.replica_rank(o, j))
                        })
                        .map(|(&id, &(o, j))| (id, o, j))
                        .collect();
                    for (id, owner, attempt) in lost {
                        pending.remove(&id);
                        self.mark_dead(self.replica_rank(owner, attempt), "aggregate");
                        match self.send_with_failover(owner, attempt + 1, |id, target| {
                            let tag = (target != owner).then_some(owner as u32);
                            encode_request(&req(id, tag), wb)
                        })? {
                            Some((j, id)) => {
                                self.transport.flush()?;
                                pending.insert(id, (owner, j));
                                last_progress = Instant::now();
                            }
                            None => unavailable.push(owner),
                        }
                    }
                    if !pending.is_empty() {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                }
            }
        }
        unavailable.sort_unstable();
        unavailable.dedup();
        Ok(Aggregate { value, unavailable })
    }

    /// The global count spectrum up to multiplicity `max` (bucket `i`
    /// holds distinct k-mers of multiplicity `i + 1`; the final bucket
    /// is overflow), summed across every live server's shard.
    pub fn histogram(&mut self, max: u32) -> ServeResult<Aggregate<Vec<u64>>> {
        self.aggregate(
            |id, owner| Request::Histogram { id, max, owner },
            |acc: &mut Vec<u64>, resp| {
                if let Response::Histogram { buckets, .. } = resp {
                    for (a, b) in acc.iter_mut().zip(buckets) {
                        *a += b;
                    }
                }
                Ok(())
            },
            vec![0u64; max as usize + 1],
        )
    }

    /// The `n` globally highest-count records across every live server's
    /// shard (count descending, k-mer ascending among ties).
    pub fn top_n(&mut self, n: usize) -> ServeResult<Aggregate<Vec<KmerCount<W>>>> {
        let mut out = self.aggregate(
            |id, owner| Request::TopN { id, n: n as u32, owner },
            |acc: &mut Vec<KmerCount<W>>, resp| {
                if let Response::TopN { records, .. } = resp {
                    acc.extend(records);
                }
                Ok(())
            },
            Vec::new(),
        )?;
        out.value
            .sort_by(|a, b| b.count.cmp(&a.count).then(a.kmer.cmp(&b.kmer)));
        out.value.truncate(n);
        Ok(out)
    }

    /// Ends the serve session: tells every live server to shut down and
    /// returns the client's metrics. Dropping the transport afterwards
    /// closes the sockets, which is what lets TCP servers observe the
    /// session end even if a SHUTDOWN frame was lost.
    pub fn shutdown(mut self) -> ServeResult<MetricsRegistry> {
        for owner in 0..self.servers {
            if !self.dead[owner] {
                let wire = encode_request::<W>(&Request::Shutdown, self.word_bytes);
                // A server that died mid-session must not fail the
                // farewell to the others.
                if self.transport.send_kind(owner, FrameKind::Query, &wire).is_err() {
                    self.mark_dead(owner, "shutdown");
                }
            }
        }
        let _ = self.transport.flush();
        Ok(self.metrics)
    }
}
