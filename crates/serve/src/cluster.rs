//! In-process serve clusters over loopback meshes.
//!
//! This is the single-machine composition of the whole subsystem: count
//! a read set across `S` loopback ranks with [`count_partition`], freeze
//! each rank's owned run into the shard wire format (and re-load it
//! through the validated parser, so even the in-memory path exercises
//! the same checks a file load would), then stand the shards up behind
//! [`serve_shard`] threads on an `S + 1`-rank mesh with a
//! [`QueryClient`] as the last rank. Tests, benches, and
//! `dakc serve --backend loopback` all go through here; the TCP path in
//! the CLI differs only in transport construction.

use std::thread::JoinHandle;

use dakc::{count_partition, DakcConfig, Partition, RunOpts};
use dakc_io::ReadSet;
use dakc_kmer::{KmerCount, KmerWord};
use dakc_net::{ChaosConfig, ChaosTransport, Loopback, NetTuning};
use dakc_sim::telemetry::MetricsRegistry;
use dakc_sort::RadixKey;

use crate::client::QueryClient;
use crate::error::{ServeError, ServeResult};
use crate::server::{serve_shards, ServeOpts, ServeStats};
use crate::shard::{encode_shard, Shard};

/// Counts `reads` across `servers` loopback ranks and returns each
/// rank's owner-partitioned shard, round-tripped through the wire
/// format's validated loader. Shard `r` holds exactly the k-mers
/// `owner_pe` assigns to rank `r` of `servers` — the invariant the
/// query router depends on.
pub fn build_shards<W>(
    reads: &ReadSet,
    cfg: &DakcConfig,
    servers: usize,
) -> ServeResult<Vec<Shard<W>>>
where
    W: KmerWord + RadixKey + Send,
{
    let opts = RunOpts::default();
    let mesh = Loopback::mesh(servers);
    let runs: Vec<Vec<KmerCount<W>>> = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|t| {
                let opts = &opts;
                s.spawn(move || {
                    count_partition::<W, _>(reads, cfg, t, opts)
                        .map(|Partition { counts, .. }| counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("build rank panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let canonical = cfg.canonical == dakc_kmer::CanonicalMode::Canonical;
    runs.into_iter()
        .enumerate()
        .map(|(rank, counts)| {
            let bytes = encode_shard(&counts, cfg.k, canonical, rank, servers);
            Shard::from_bytes(&bytes)
        })
        .collect()
}

/// One server rank's chaos injection for [`start_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterChaos {
    /// The server rank whose serve transport gets the fault plan.
    pub rank: usize,
    /// Profile string, e.g. `"die:1@40"` (see [`ChaosConfig::parse`]).
    pub profile: String,
    /// Deterministic seed for the fault schedule.
    pub seed: u64,
}

/// A running in-process serve cluster: `servers` threads answering
/// queries, and the client endpoint to ask them with.
pub struct ServeCluster<W: KmerWord> {
    /// The query frontend, connected and READY-handshaken.
    pub client: QueryClient<W, Loopback>,
    handles: Vec<JoinHandle<ServeResult<ServeStats>>>,
}

impl<W: KmerWord + Send + 'static> ServeCluster<W> {
    /// Ends the session: shuts the client down, joins every server
    /// thread, and returns the client metrics plus each server's
    /// outcome (a chaos-killed server reports its typed error here).
    pub fn shutdown(self) -> ServeResult<(MetricsRegistry, Vec<ServeResult<ServeStats>>)> {
        let metrics = self.client.shutdown()?;
        let outcomes = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("server thread panicked"))
            .collect();
        Ok((metrics, outcomes))
    }
}

/// Stands `shards` up as serve threads on a fresh `len + 1`-rank
/// loopback mesh and connects a [`QueryClient`] to them. Shard `r` must
/// be the `owner_pe` partition for rank `r` (as [`build_shards`]
/// produces). With `chaos`, the named server's transport is wrapped in
/// a [`ChaosTransport`] so its mid-serve death can be rehearsed: its
/// dropped endpoint reports it gone, and the client stops waiting on it.
pub fn start_cluster<W>(
    shards: Vec<Shard<W>>,
    tuning: NetTuning,
    chaos: Option<ClusterChaos>,
) -> ServeResult<ServeCluster<W>>
where
    W: KmerWord + Send + 'static,
{
    start_cluster_replicated(shards, tuning, chaos, 1)
}

/// [`start_cluster`] with shard replication: server rank `r` holds the
/// shards of owners `r, r-1, …, r-(replicas-1) (mod servers)`, so owner
/// `o`'s shard is answerable on ranks `o..o+replicas-1 (mod servers)`
/// and the [`QueryClient`] fails a dead holder's keys over to the next
/// copy instead of reporting them unavailable.
pub fn start_cluster_replicated<W>(
    shards: Vec<Shard<W>>,
    tuning: NetTuning,
    chaos: Option<ClusterChaos>,
    replicas: usize,
) -> ServeResult<ServeCluster<W>>
where
    W: KmerWord + Send + 'static,
{
    let servers = shards.len();
    assert!(servers > 0, "a serve cluster needs at least one shard");
    assert!(
        (1..=servers).contains(&replicas),
        "replicas must be in 1..={servers}, got {replicas}"
    );
    let mut mesh = Loopback::mesh_tuned(servers + 1, tuning.clone());
    let client_ep = mesh.pop().expect("mesh has servers + 1 endpoints");
    let handles: Vec<JoinHandle<ServeResult<ServeStats>>> = mesh
        .into_iter()
        .enumerate()
        .map(|(rank, transport)| {
            let held: Vec<Shard<W>> = (0..replicas)
                .map(|j| shards[(rank + servers - j) % servers].clone())
                .collect();
            let plan = match &chaos {
                Some(c) if c.rank == rank => Some(
                    ChaosConfig::parse(&c.profile, c.seed, rank)
                        .map_err(|detail| ServeError::BadHeader { detail })?,
                ),
                _ => None,
            };
            Ok(std::thread::spawn(move || {
                let opts = ServeOpts::default();
                match plan {
                    Some(cfg) => {
                        serve_shards(&held, ChaosTransport::new(transport, cfg), &opts)
                    }
                    None => serve_shards(&held, transport, &opts),
                }
            }))
        })
        .collect::<ServeResult<Vec<_>>>()?;
    let client = QueryClient::connect(client_ep, tuning)?;
    Ok(ServeCluster { client, handles })
}
