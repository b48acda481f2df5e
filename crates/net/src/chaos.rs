//! Deterministic fault injection: [`ChaosTransport`] wraps any
//! [`Transport`] and injects failures from a seeded RNG, so every failure
//! mode of the distributed runtime is testable in-process and every test
//! run is reproducible from its `--chaos-seed`.
//!
//! Two fault families exist:
//!
//! * **Probabilistic wire faults**, rolled per data-frame send from the
//!   seeded stream: `drop` (the frame is counted as sent but never
//!   delivered — the four-counter totals wedge with S > R), `dup` (the
//!   frame is delivered twice but counted once — R > S), `delay` (the
//!   frame is held for a few operations, reordering it against other
//!   destinations but never within one), and `truncate` (malformed bytes
//!   hit the peer's wire instead of the frame).
//! * **Scripted rank faults**, triggered when the wrapped endpoint's
//!   operation counter crosses a threshold: `die:R@N` (operation N on
//!   rank R fails with [`NetError::Injected`]), `freeze:R@N` (rank R
//!   stops making progress *and* stops heartbeating — the silent-hang
//!   case only a supervisor deadline can catch), and `corrupt:R@N`
//!   (rank R poisons a peer's stream with garbage bytes).
//!
//! With every fault disabled the wrapper is pure delegation — bit-identical
//! behavior and counters to the bare transport — so production code can be
//! compiled with the wrapper in place unconditionally.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{NetError, NetResult};
use crate::frame::FrameKind;
use crate::transport::{NetNote, NetStats, Rank, Transport};

/// SplitMix64: the tiny, high-quality mixer used for all chaos and
/// backoff-jitter randomness (no external RNG dependency).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How many entries the fault log keeps (oldest kept; it is a debugging
/// aid, not a metric — totals live in `net.injected_faults`).
const FAULT_LOG_CAP: usize = 1024;

/// Parsed fault-injection plan for one rank.
///
/// Built from a profile string (see [`ChaosConfig::parse`]) of
/// comma-separated terms:
///
/// * `drop[=P]`, `dup[=P]`, `delay[=P]`, `truncate[=P]` — probabilistic
///   wire faults at `P` per-mille of data sends (defaults: 10, 10, 20, 5);
/// * `die:R@N`, `freeze:R@N`, `corrupt:R@N` — scripted faults on rank `R`
///   at operation `N` (terms for other ranks are ignored, so one profile
///   string describes the whole job).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Base RNG seed; the effective stream also mixes in the rank so
    /// ranks do not fault in lockstep.
    pub seed: u64,
    /// Per-mille of data sends silently dropped.
    pub drop_per_mille: u16,
    /// Per-mille of data sends delivered twice.
    pub dup_per_mille: u16,
    /// Per-mille of data sends held back for [`ChaosConfig::delay_ops`]
    /// operations.
    pub delay_per_mille: u16,
    /// How many transport operations a delayed frame is held.
    pub delay_ops: u64,
    /// Per-mille of data sends replaced by malformed wire bytes.
    pub truncate_per_mille: u16,
    /// Fail every operation from this operation count on.
    pub die_after_ops: Option<u64>,
    /// Stop progressing (and heartbeating) at this operation count.
    pub freeze_after_ops: Option<u64>,
    /// Poison a peer's stream at this operation count.
    pub corrupt_after_ops: Option<u64>,
    /// Like `die_after_ops`, but declares the death restartable: a
    /// `--recover` launch is expected to respawn this rank. The transport
    /// behavior is identical to `die`; the separate term lets profiles
    /// state intent and lets [`ChaosConfig::parse_for_epoch`] suppress
    /// the fault in respawned incarnations.
    pub die_restart_after_ops: Option<u64>,
    /// Freeze at `(op, ms)`: stop progressing and heartbeating for `ms`
    /// milliseconds (raising the freeze flag), then thaw and continue —
    /// a transient hang rather than `freeze`'s permanent one. One-shot.
    pub freeze_thaw: Option<(u64, u64)>,
}

impl ChaosConfig {
    /// A config that injects nothing (the wrapper becomes pure
    /// delegation).
    pub fn off() -> Self {
        Self::default()
    }

    /// True when no fault can ever fire.
    pub fn is_off(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.delay_per_mille == 0
            && self.truncate_per_mille == 0
            && self.die_after_ops.is_none()
            && self.freeze_after_ops.is_none()
            && self.corrupt_after_ops.is_none()
            && self.die_restart_after_ops.is_none()
            && self.freeze_thaw.is_none()
    }

    /// Whether this plan's scripted death is declared restartable
    /// (`die-restart` rather than `die`).
    pub fn restartable(&self) -> bool {
        self.die_restart_after_ops.is_some()
    }

    /// Parses a job-wide profile string into the plan for `rank` (scripted
    /// terms addressed to other ranks are dropped).
    pub fn parse(profile: &str, seed: u64, rank: Rank) -> Result<Self, String> {
        Self::parse_for_epoch(profile, seed, rank, 0)
    }

    /// [`ChaosConfig::parse`] for a specific incarnation: scripted rank
    /// faults (`die`, `die-restart`, `freeze`, `freeze-thaw`, `corrupt`)
    /// fire only in incarnation 0 — a respawned rank must not re-execute
    /// the death that killed its previous life, or a `--recover` launch
    /// would loop forever. Probabilistic wire faults stay active in every
    /// incarnation.
    pub fn parse_for_epoch(
        profile: &str,
        seed: u64,
        rank: Rank,
        epoch: u32,
    ) -> Result<Self, String> {
        let mut cfg = Self { seed, ..Self::default() };
        cfg.delay_ops = 4;
        for term in profile.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(spec) = term.strip_prefix("freeze-thaw:") {
                // freeze-thaw:R@N@D — rank R, operation N, thaw after D ms.
                let mut parts = spec.splitn(3, '@');
                let (r, op, ms) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(r), Some(op), Some(ms)) => (r, op, ms),
                    _ => return Err(format!("chaos term {term:?}: expected freeze-thaw:RANK@OP@MS")),
                };
                let r: Rank = r
                    .parse()
                    .map_err(|e| format!("chaos term {term:?}: bad rank: {e}"))?;
                let op: u64 = op
                    .parse()
                    .map_err(|e| format!("chaos term {term:?}: bad op count: {e}"))?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|e| format!("chaos term {term:?}: bad thaw delay: {e}"))?;
                if r == rank && epoch == 0 {
                    cfg.freeze_thaw = Some((op, ms));
                }
                continue;
            }
            if let Some(spec) = term
                .strip_prefix("die-restart:")
                .map(|s| ("die-restart", s))
                .or_else(|| term.strip_prefix("die:").map(|s| ("die", s)))
                .or_else(|| term.strip_prefix("freeze:").map(|s| ("freeze", s)))
                .or_else(|| term.strip_prefix("corrupt:").map(|s| ("corrupt", s)))
            {
                let (kind, spec) = spec;
                let (r, op) = spec
                    .split_once('@')
                    .ok_or_else(|| format!("chaos term {term:?}: expected {kind}:RANK@OP"))?;
                let r: Rank = r
                    .parse()
                    .map_err(|e| format!("chaos term {term:?}: bad rank: {e}"))?;
                let op: u64 = op
                    .parse()
                    .map_err(|e| format!("chaos term {term:?}: bad op count: {e}"))?;
                if r == rank && epoch == 0 {
                    match kind {
                        "die" => cfg.die_after_ops = Some(op),
                        "die-restart" => cfg.die_restart_after_ops = Some(op),
                        "freeze" => cfg.freeze_after_ops = Some(op),
                        _ => cfg.corrupt_after_ops = Some(op),
                    }
                }
                continue;
            }
            let (name, value) = match term.split_once('=') {
                Some((n, v)) => {
                    let v: u16 = v
                        .parse()
                        .map_err(|e| format!("chaos term {term:?}: bad per-mille: {e}"))?;
                    (n, Some(v.min(1000)))
                }
                None => (term, None),
            };
            match name {
                "drop" => cfg.drop_per_mille = value.unwrap_or(10),
                "dup" => cfg.dup_per_mille = value.unwrap_or(10),
                "delay" => cfg.delay_per_mille = value.unwrap_or(20),
                "truncate" => cfg.truncate_per_mille = value.unwrap_or(5),
                _ => return Err(format!("unknown chaos term {term:?}")),
            }
        }
        Ok(cfg)
    }
}

/// One frame held back by a `delay` fault.
#[derive(Debug)]
struct Delayed {
    dest: Rank,
    frame: Vec<u8>,
    release_at_op: u64,
}

/// A [`Transport`] wrapper injecting deterministic faults per
/// [`ChaosConfig`]. See the module docs for the fault families.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    cfg: ChaosConfig,
    rng: u64,
    /// Counts every transport operation (sends, receives, collectives);
    /// the clock scripted faults trigger on.
    ops: u64,
    /// Frames held back by `delay`, in queue order per destination.
    delayed: VecDeque<Delayed>,
    /// `(operation, fault name)` of injected faults, capped.
    log: Vec<(u64, &'static str)>,
    /// Raised when a `freeze` fires, so a co-located heartbeat sender
    /// goes silent too.
    freeze_flag: Option<Arc<AtomicBool>>,
    corrupt_done: bool,
    freeze_thaw_done: bool,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: T, cfg: ChaosConfig) -> Self {
        let rng = splitmix64(cfg.seed ^ (inner.rank() as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        Self {
            inner,
            cfg,
            rng,
            ops: 0,
            delayed: VecDeque::new(),
            log: Vec::new(),
            freeze_flag: None,
            corrupt_done: false,
            freeze_thaw_done: false,
        }
    }

    /// Shares the flag a `freeze` fault raises (wire it to the heartbeat
    /// sender's mute flag so a frozen rank also goes silent).
    pub fn with_freeze_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.freeze_flag = Some(flag);
        self
    }

    /// The `(operation, fault name)` log of injected faults so far.
    pub fn fault_log(&self) -> &[(u64, &'static str)] {
        &self.log
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn note(&mut self, fault: &'static str) {
        let stats = self.inner.stats_mut();
        stats.injected_faults += 1;
        // Also queue an incident note so a tracing fabric can put the
        // fault on the timeline as a `net_fault` instant.
        stats.note(NetNote::Fault { kind: fault });
        if self.log.len() < FAULT_LOG_CAP {
            self.log.push((self.ops, fault));
        }
    }

    fn roll(&mut self) -> u16 {
        self.rng = splitmix64(self.rng);
        ((self.rng >> 32) % 1000) as u16
    }

    /// Advances the operation clock and fires any scripted fault that has
    /// come due. Called at the top of every trait operation; pure
    /// arithmetic when the config is off.
    fn tick(&mut self) -> NetResult<()> {
        self.ops += 1;
        if self.cfg.is_off() {
            return Ok(());
        }
        let me = self.inner.rank();
        if let Some(at) = self.cfg.die_after_ops {
            if self.ops >= at {
                self.note("die");
                return Err(NetError::Injected {
                    rank: me,
                    detail: format!("die at operation {}", self.ops),
                });
            }
        }
        if let Some(at) = self.cfg.die_restart_after_ops {
            if self.ops >= at {
                // Same death as `die`; the term's intent is that a
                // `--recover` launch respawns this rank.
                self.note("die-restart");
                return Err(NetError::Injected {
                    rank: me,
                    detail: format!("die-restart at operation {}", self.ops),
                });
            }
        }
        if let Some((at, ms)) = self.cfg.freeze_thaw {
            if self.ops >= at && !self.freeze_thaw_done {
                self.freeze_thaw_done = true;
                self.note("freeze-thaw");
                // Go silent (heartbeats included) for the scripted window,
                // then resume — a transient hang the supervisor's staleness
                // deadline may or may not catch, depending on tuning.
                if let Some(flag) = &self.freeze_flag {
                    flag.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(ms));
                if let Some(flag) = &self.freeze_flag {
                    flag.store(false, Ordering::SeqCst);
                }
            }
        }
        if let Some(at) = self.cfg.freeze_after_ops {
            if self.ops >= at {
                self.note("freeze");
                if let Some(flag) = &self.freeze_flag {
                    flag.store(true, Ordering::SeqCst);
                }
                // A frozen rank makes no progress and says nothing: the
                // silent-hang case. Only an external supervisor deadline
                // (or a peer's collective timeout) gets the job unwedged.
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        if let Some(at) = self.cfg.corrupt_after_ops {
            if self.ops >= at && !self.corrupt_done && self.inner.num_ranks() > 1 {
                self.corrupt_done = true;
                self.note("corrupt");
                let victim = (me + 1) % self.inner.num_ranks();
                self.inner.send_corrupt(victim)?;
            }
        }
        Ok(())
    }

    /// Delivers delayed frames that have come due (or all of them, before
    /// a collective — collectives must observe every send).
    fn release(&mut self, all: bool) -> NetResult<()> {
        while let Some(d) = self.delayed.front() {
            if !all && d.release_at_op > self.ops {
                break;
            }
            let d = self.delayed.pop_front().expect("front exists");
            self.inner.send(d.dest, &d.frame)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    fn send(&mut self, dest: Rank, frame: &[u8]) -> NetResult<()> {
        self.tick()?;
        if self.cfg.is_off() {
            return self.inner.send(dest, frame);
        }
        self.release(false)?;
        // Per-destination FIFO: a frame must never overtake an earlier
        // delayed frame to the same destination (delay reorders across
        // destinations, never within one — the cascade's chunk protocols
        // rely on per-peer ordering). Followers queue behind the held
        // frame and release together with it.
        if self.delayed.iter().any(|d| d.dest == dest) {
            self.note("delay");
            self.delayed.push_back(Delayed {
                dest,
                frame: frame.to_vec(),
                release_at_op: self.ops,
            });
            return Ok(());
        }
        let roll = self.roll();
        let mut edge = self.cfg.drop_per_mille;
        if roll < edge {
            // Lost on the wire: the sender counted it, no receiver ever
            // will — exactly the S > R wedge the termination deadline
            // must catch.
            self.note("drop");
            let stats = self.inner.stats_mut();
            stats.peers[dest].frames_sent += 1;
            stats.peers[dest].bytes_sent += frame.len() as u64;
            return Ok(());
        }
        edge += self.cfg.dup_per_mille;
        if roll < edge {
            // Delivered twice, counted once: R > S.
            self.note("dup");
            self.inner.send(dest, frame)?;
            self.inner.send(dest, frame)?;
            let stats = self.inner.stats_mut();
            stats.peers[dest].frames_sent -= 1;
            stats.peers[dest].bytes_sent -= frame.len() as u64;
            return Ok(());
        }
        edge += self.cfg.delay_per_mille;
        if roll < edge {
            self.note("delay");
            self.delayed.push_back(Delayed {
                dest,
                frame: frame.to_vec(),
                release_at_op: self.ops + self.cfg.delay_ops,
            });
            return Ok(());
        }
        edge += self.cfg.truncate_per_mille;
        if roll < edge {
            // Malformed bytes instead of the frame; count the send so the
            // local counters stay coherent (the victim errors out anyway).
            self.note("truncate");
            self.inner.send_corrupt(dest)?;
            let stats = self.inner.stats_mut();
            stats.peers[dest].frames_sent += 1;
            stats.peers[dest].bytes_sent += frame.len() as u64;
            return Ok(());
        }
        self.inner.send(dest, frame)
    }

    fn send_kind(&mut self, dest: Rank, kind: FrameKind, frame: &[u8]) -> NetResult<()> {
        if self.cfg.is_off() {
            self.tick()?;
            return self.inner.send_kind(dest, kind, frame);
        }
        // Under active chaos the frame goes through the full fault
        // pipeline, which only knows plain data sends; the wire tag is
        // transport-level classification and receivers key on the
        // payload's own opcode, so downgrading to `Data` is harmless.
        self.send(dest, frame)
    }

    fn try_recv(&mut self) -> NetResult<Option<(Rank, Vec<u8>)>> {
        self.tick()?;
        if !self.cfg.is_off() {
            self.release(false)?;
        }
        self.inner.try_recv()
    }

    fn flush(&mut self) -> NetResult<()> {
        self.tick()?;
        if !self.cfg.is_off() {
            self.release(true)?;
        }
        self.inner.flush()
    }

    fn barrier(&mut self) -> NetResult<()> {
        self.tick()?;
        if !self.cfg.is_off() {
            self.release(true)?;
        }
        self.inner.barrier()
    }

    fn termination_round(&mut self) -> NetResult<bool> {
        self.tick()?;
        if !self.cfg.is_off() {
            self.release(true)?;
        }
        self.inner.termination_round()
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        self.inner.stats_mut()
    }

    fn last_global_totals(&self) -> Option<(u64, u64)> {
        self.inner.last_global_totals()
    }

    fn first_dead_peer(&self) -> Option<Rank> {
        self.inner.first_dead_peer()
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        self.inner.peer_dead(rank)
    }

    fn send_corrupt(&mut self, dest: Rank) -> NetResult<()> {
        self.inner.send_corrupt(dest)
    }

    // Recovery hooks delegate without ticking the ops clock: a `--recover`
    // run must keep the same scripted-fault schedule as a plain run.
    fn arm_recovery(&mut self, armed: bool) {
        self.inner.arm_recovery(armed);
    }

    fn recovery_pending(&self) -> bool {
        self.inner.recovery_pending()
    }

    fn poll_recovery(&mut self) -> NetResult<Option<crate::transport::Recovered>> {
        self.inner.poll_recovery()
    }

    fn diagnostics(&self) -> String {
        format!(
            "{}; chaos: ops={} injected={} delayed={}",
            self.inner.diagnostics(),
            self.ops,
            self.inner.stats().injected_faults,
            self.delayed.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::Loopback;

    /// The conformance suite through a chaos wrapper with every fault off.
    mod off_over_loopback {
        use super::*;

        conformance_suite!(|n, tuning| Loopback::mesh_tuned(n, tuning)
            .into_iter()
            .map(|t| ChaosTransport::new(t, ChaosConfig::off()))
            .collect());
    }

    mod off_over_tcp {
        use super::*;

        conformance_suite!(|n, tuning| crate::tcp::tests::tcp_mesh_tuned(n, tuning)
            .into_iter()
            .map(|t| ChaosTransport::new(t, ChaosConfig::off()))
            .collect());
    }

    #[test]
    fn splitmix_is_stable() {
        // Reference values pin the stream so seeds stay meaningful across
        // refactors (determinism is part of the chaos contract).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn parse_full_profile() {
        let cfg = ChaosConfig::parse("drop=5, dup ,delay=100,die:2@40,freeze:1@7", 9, 2).unwrap();
        assert_eq!(cfg.drop_per_mille, 5);
        assert_eq!(cfg.dup_per_mille, 10);
        assert_eq!(cfg.delay_per_mille, 100);
        assert_eq!(cfg.die_after_ops, Some(40), "die term addressed to us");
        assert_eq!(cfg.freeze_after_ops, None, "freeze term addressed to rank 1");
        assert!(!cfg.is_off());
        // The same profile parsed for rank 1 flips which scripted faults
        // apply.
        let cfg1 = ChaosConfig::parse("drop=5,dup,delay=100,die:2@40,freeze:1@7", 9, 1).unwrap();
        assert_eq!(cfg1.die_after_ops, None);
        assert_eq!(cfg1.freeze_after_ops, Some(7));
    }

    #[test]
    fn parse_die_restart_and_freeze_thaw() {
        let cfg = ChaosConfig::parse("die-restart:2@40,freeze-thaw:1@7@50", 9, 2).unwrap();
        assert_eq!(cfg.die_restart_after_ops, Some(40));
        assert_eq!(cfg.die_after_ops, None, "die-restart is not die");
        assert!(cfg.restartable());
        assert_eq!(cfg.freeze_thaw, None, "freeze-thaw term addressed to rank 1");
        let cfg1 = ChaosConfig::parse("die-restart:2@40,freeze-thaw:1@7@50", 9, 1).unwrap();
        assert_eq!(cfg1.freeze_thaw, Some((7, 50)));
        assert_eq!(cfg1.die_restart_after_ops, None);
        assert!(!cfg1.restartable());
        // Malformed variants are typed errors, not panics.
        assert!(ChaosConfig::parse("die-restart:2", 0, 0).is_err());
        assert!(ChaosConfig::parse("freeze-thaw:1@7", 0, 0).is_err());
        assert!(ChaosConfig::parse("freeze-thaw:1@7@", 0, 0).is_err());
    }

    #[test]
    fn respawned_epoch_suppresses_scripted_faults_only() {
        // The exact profile a --recover launch forwards to every
        // incarnation: the respawned rank must not re-run its own death,
        // but probabilistic wire faults stay armed.
        let profile = "drop=5,die:2@40,die-restart:2@41,freeze:2@42,freeze-thaw:2@7@50";
        let first = ChaosConfig::parse_for_epoch(profile, 9, 2, 0).unwrap();
        assert_eq!(first.die_after_ops, Some(40));
        assert_eq!(first.die_restart_after_ops, Some(41));
        assert_eq!(first.freeze_after_ops, Some(42));
        assert_eq!(first.freeze_thaw, Some((7, 50)));
        let respawned = ChaosConfig::parse_for_epoch(profile, 9, 2, 1).unwrap();
        assert_eq!(respawned.die_after_ops, None);
        assert_eq!(respawned.die_restart_after_ops, None);
        assert_eq!(respawned.freeze_after_ops, None);
        assert_eq!(respawned.freeze_thaw, None);
        assert_eq!(respawned.drop_per_mille, 5, "wire faults survive the respawn");
        assert!(!respawned.is_off());
        // Epoch 0 parses identically through the plain entry point.
        assert_eq!(first, ChaosConfig::parse(profile, 9, 2).unwrap());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosConfig::parse("explode", 0, 0).is_err());
        assert!(ChaosConfig::parse("die:x@3", 0, 0).is_err());
        assert!(ChaosConfig::parse("die:3", 0, 0).is_err());
        assert!(ChaosConfig::parse("drop=many", 0, 0).is_err());
        assert_eq!(ChaosConfig::parse("", 7, 0).unwrap().seed, 7);
        assert!(ChaosConfig::parse("", 7, 0).unwrap().is_off());
    }

    #[test]
    fn off_config_is_pure_delegation() {
        let mut mesh = Loopback::mesh(1);
        let mut chaos = ChaosTransport::new(mesh.remove(0), ChaosConfig::off());
        for i in 0..50u8 {
            chaos.send(0, &[i]).unwrap();
        }
        for i in 0..50u8 {
            assert_eq!(chaos.try_recv().unwrap(), Some((0, vec![i])));
        }
        assert!(!chaos.termination_round().unwrap());
        assert!(chaos.termination_round().unwrap());
        let stats = chaos.stats();
        assert_eq!(stats.frames_sent(), 50);
        assert_eq!(stats.frames_recv(), 50);
        assert_eq!(stats.injected_faults, 0);
        assert!(chaos.fault_log().is_empty());
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut mesh = Loopback::mesh(2);
            let _keep = mesh.pop().unwrap(); // rank 1 endpoint stays alive
            let cfg = ChaosConfig::parse("drop=200,dup=200,delay=200", seed, 0).unwrap();
            let mut chaos = ChaosTransport::new(mesh.remove(0), cfg);
            for i in 0..200u32 {
                chaos.send(1, &i.to_le_bytes()).unwrap();
            }
            chaos.flush().unwrap();
            (chaos.fault_log().to_vec(), chaos.stats().injected_faults)
        };
        let (log_a, n_a) = run(42);
        let (log_b, n_b) = run(42);
        assert_eq!(log_a, log_b, "same seed, same faults");
        assert_eq!(n_a, n_b);
        assert!(n_a > 0, "with 600 per-mille fault rate, some must fire");
    }

    #[test]
    fn drop_wedges_the_counters() {
        let mut mesh = Loopback::mesh(2);
        let mut peer = mesh.pop().unwrap();
        let cfg = ChaosConfig::parse("drop=1000", 1, 0).unwrap();
        let mut chaos = ChaosTransport::new(mesh.remove(0), cfg);
        for i in 0..10u32 {
            chaos.send(1, &i.to_le_bytes()).unwrap();
        }
        // Counted as sent, never delivered.
        assert_eq!(chaos.stats().frames_sent(), 10);
        assert_eq!(peer.try_recv().unwrap(), None);
    }

    #[test]
    fn dup_delivers_twice_but_counts_once() {
        let mut mesh = Loopback::mesh(2);
        let mut peer = mesh.pop().unwrap();
        let cfg = ChaosConfig::parse("dup=1000", 1, 0).unwrap();
        let mut chaos = ChaosTransport::new(mesh.remove(0), cfg);
        chaos.send(1, b"x").unwrap();
        assert_eq!(chaos.stats().frames_sent(), 1);
        assert_eq!(peer.try_recv().unwrap(), Some((0, b"x".to_vec())));
        assert_eq!(peer.try_recv().unwrap(), Some((0, b"x".to_vec())));
        assert_eq!(peer.try_recv().unwrap(), None);
    }

    #[test]
    fn delayed_frames_release_before_collectives_in_order() {
        let mut mesh = Loopback::mesh(2);
        let mut peer = mesh.pop().unwrap();
        let cfg = ChaosConfig::parse("delay=1000", 1, 0).unwrap();
        let mut chaos = ChaosTransport::new(mesh.remove(0), cfg);
        for i in 0..5u8 {
            chaos.send(1, &[i]).unwrap();
        }
        chaos.flush().unwrap();
        for i in 0..5u8 {
            assert_eq!(peer.try_recv().unwrap(), Some((0, vec![i])), "FIFO preserved");
        }
        assert_eq!(chaos.stats().injected_faults, 5);
    }

    #[test]
    fn die_fires_exactly_at_threshold() {
        let mut mesh = Loopback::mesh(1);
        let cfg = ChaosConfig::parse("die:0@3", 0, 0).unwrap();
        let mut chaos = ChaosTransport::new(mesh.remove(0), cfg);
        chaos.send(0, b"a").unwrap();
        chaos.send(0, b"b").unwrap();
        let err = chaos.send(0, b"c").unwrap_err();
        assert_eq!(err, NetError::Injected { rank: 0, detail: "die at operation 3".into() });
        // And every operation after stays dead.
        assert!(chaos.try_recv().is_err());
    }
}
