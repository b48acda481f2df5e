//! Virtual-time cost charging shared by every engine that runs in the
//! simulator.
//!
//! These helpers mirror the paper's §V model term-for-term so that the
//! model-validation experiments (Figs 3–5) compare like with like:
//!
//! * parsing charges one integer op per k-mer (Eq 9) plus the streaming
//!   traffic of reading the input and writing the k-mer array (Eq 10);
//! * radix sorting charges one op per key byte (Eq 12) and re-streams the
//!   array once per byte-pass (Eq 13);
//! * accumulation is one pass of reads and comparisons.
//!
//! The *communication* side needs no helpers: bytes cross the simulated
//! NIC through real `send`s, so Eq 11's term is measured, not charged.

use dakc_conveyors::Fabric;

/// Charges the parse-side compute of generating `kmers` k-mers (Eq 9).
pub fn charge_parse<F: Fabric>(ctx: &mut F, kmers: u64) {
    ctx.charge_ops(kmers);
}

/// Charges the streaming memory traffic of reading `input_bytes` of reads
/// and writing `kmers` packed words of `word_bytes` (Eq 10's two miss
/// terms).
pub fn charge_parse_traffic<F: Fabric>(ctx: &mut F, input_bytes: u64, kmers: u64, word_bytes: u64) {
    ctx.charge_mem(input_bytes + kmers * word_bytes);
}

/// Charges the super-k-mer parse path (`--superkmer`): the rolling
/// minimizer scan is O(1)/base (window rescans amortize), and the producer
/// streams the read once while writing only the packed span bytes — not a
/// full word per k-mer. The wire savings are measured, not charged (spans
/// cross the simulated NIC as real `send`s); this covers the producer-
/// side memory traffic asymmetry vs [`charge_parse_traffic`].
pub fn charge_span_traffic<F: Fabric>(ctx: &mut F, input_bytes: u64, span_bytes: u64) {
    ctx.charge_mem(input_bytes + span_bytes);
}

/// Charges the owner-side expansion of received spans back into `kmers`
/// words of `word_bytes`: one op and one word write per k-mer.
pub fn charge_span_expand<F: Fabric>(ctx: &mut F, kmers: u64, word_bytes: u64) {
    ctx.charge_ops(kmers);
    ctx.charge_mem(kmers * word_bytes);
}

/// Charges an LSD radix sort of `n` keys of `key_bytes` bytes: one op per
/// key byte (Eq 12) and one full array stream per byte-pass (Eq 13's
/// worst case). This is the *model's* assumption; engines that actually
/// run the MSD hybrid should use [`charge_hybrid_sort`].
pub fn charge_radix_sort<F: Fabric>(ctx: &mut F, n: u64, key_bytes: u64) {
    ctx.charge_ops(n * key_bytes);
    ctx.charge_mem(n * key_bytes * key_bytes);
}

/// Charges the ska-style MSD hybrid sort the engines actually execute:
/// Eq 12's compute, but memory traffic for only as many scatter levels as
/// it takes for partitions to become cache-resident (each level reads and
/// writes the array once). This is why the paper's *measured* phase 2
/// lands below the Eq 13 worst case (§V-A) — partitions shrink 256× per
/// level and stop missing.
pub fn charge_hybrid_sort<F: Fabric>(ctx: &mut F, n: u64, key_bytes: u64) {
    ctx.charge_ops(n * key_bytes);
    let bytes = n * key_bytes;
    let share = ctx.cache_share_bytes();
    let mut levels = 1u64;
    let mut partition = bytes;
    while partition > share.max(1) && levels < key_bytes {
        partition /= 256;
        levels += 1;
    }
    ctx.charge_mem(2 * bytes * levels);
}

/// Charges the accumulate sweep over `n` sorted records of `rec_bytes`.
pub fn charge_accumulate<F: Fabric>(ctx: &mut F, n: u64, rec_bytes: u64) {
    ctx.charge_ops(n);
    ctx.charge_mem(n * rec_bytes);
}

/// Charges a comparison sort (the quicksort-based original PakMan
/// baseline): ~12 integer-op equivalents per comparison across `log n`
/// partition levels — ≈2.4 ns per compare-exchange at a Phoenix core's
/// ops rate, the low end of measured quicksort throughputs (2–5 ns per
/// element per level once ~50% of random-pivot branches mispredict) —
/// and — like [`charge_hybrid_sort`]
/// — DRAM traffic only for the partition levels that do not yet fit this
/// PE's cache share: each such level reads *and* swap-writes the
/// partition. Quicksort halves partitions per level (radix divides by
/// 256), so it pays ~8× more out-of-cache levels — the cache-behaviour
/// gap behind Fig 6's ≈2× kernel difference.
pub fn charge_comparison_sort<F: Fabric>(ctx: &mut F, n: u64, rec_bytes: u64) {
    if n > 1 {
        let logn = 64 - (n - 1).leading_zeros() as u64;
        ctx.charge_ops(12 * n * logn);
        let bytes = n * rec_bytes;
        let share = ctx.cache_share_bytes();
        let mut dram_levels = 1u64; // the initial read is always a stream
        let mut partition = bytes;
        while partition > share.max(1) && dram_levels < logn {
            partition /= 2;
            dram_levels += 1;
        }
        ctx.charge_mem(2 * bytes * dram_levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dakc_sim::{Ctx, MachineConfig, Program, Simulator, Step};

    struct Probe {
        f: fn(&mut Ctx<'_>),
        done: bool,
    }
    impl Program for Probe {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if !self.done {
                (self.f)(ctx);
                self.done = true;
            }
            Step::Done
        }
    }

    fn run_one(f: fn(&mut Ctx<'_>)) -> dakc_sim::SimReport {
        Simulator::new(MachineConfig::test_machine(1, 1))
            .run(vec![Box::new(Probe { f, done: false })])
            .unwrap()
    }

    #[test]
    fn radix_charges_scale_with_key_width() {
        let r64 = run_one(|ctx| charge_radix_sort(ctx, 1000, 8));
        let r128 = run_one(|ctx| charge_radix_sort(ctx, 1000, 16));
        assert!(r128.pes[0].compute_s > r64.pes[0].compute_s * 1.9);
        assert!(r128.pes[0].intranode_s > r64.pes[0].intranode_s * 3.9);
    }

    #[test]
    fn comparison_sort_costs_more_than_radix_for_large_n() {
        // log2(1M) = 20 > 8 bytes of radix passes.
        let rq = run_one(|ctx| charge_comparison_sort(ctx, 1 << 20, 8));
        let rr = run_one(|ctx| charge_radix_sort(ctx, 1 << 20, 8));
        assert!(rq.pes[0].compute_s > rr.pes[0].compute_s);
    }

    #[test]
    fn parse_traffic_includes_both_streams() {
        let r = run_one(|ctx| charge_parse_traffic(ctx, 1_000_000, 1_000, 8));
        // 1,000,000 + 8,000 bytes at 1 GB/s (test machine, 1 PE).
        assert!((r.pes[0].intranode_s - 1.008e-3).abs() < 1e-6);
    }

    #[test]
    fn tiny_sorts_charge_nothing_pathological() {
        let r = run_one(|ctx| charge_comparison_sort(ctx, 1, 8));
        assert_eq!(r.pes[0].ops, 0);
    }
}
