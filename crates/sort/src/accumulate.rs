//! The `Accumulate` sweep of Algorithm 1.
//!
//! Sweeps a *sorted* array once, emitting `{value, run length}` pairs. The
//! engines' phase 2 runs this sweep fused into the sort
//! ([`crate::sort_count`]); the weighted variant consumes `{value, count}`
//! pairs sorted by value — exactly what the owner PE receives on the L3
//! HEAVY channel, where senders pre-accumulated their local heavy hitters.
//!
//! Output capacity is reserved from a sampled distinct-run estimate so the
//! output vector is sized in one allocation.

/// Estimates the number of distinct runs in a sorted slice by sampling up
/// to 512 adjacent pairs at a fixed stride and extrapolating the boundary
/// density. Always within `1..=len` for non-empty input; exact for slices
/// with at most 513 elements.
pub fn distinct_runs_estimate<T: Ord>(sorted: &[T]) -> usize {
    let n = sorted.len();
    if n <= 1 {
        return n;
    }
    let pairs = n - 1;
    let stride = pairs.div_ceil(512);
    let mut sampled = 0usize;
    let mut boundaries = 0usize;
    let mut i = 0;
    while i < pairs {
        sampled += 1;
        if sorted[i] != sorted[i + 1] {
            boundaries += 1;
        }
        i += stride;
    }
    // runs = boundaries + 1, extrapolated from the sampled fraction.
    (boundaries * pairs / sampled + 1).min(n)
}

/// Collapses a sorted slice into `(value, frequency)` pairs.
///
/// Counts saturate at `u32::MAX` (the paper counts "from 1 to the maximum
/// supported count").
///
/// # Panics
///
/// Debug builds panic if `sorted` is not ascending.
pub fn accumulate<T: Ord + Copy>(sorted: &[T]) -> Vec<(T, u32)> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let mut out: Vec<(T, u32)> = Vec::with_capacity(distinct_runs_estimate(sorted));
    for &v in sorted {
        match out.last_mut() {
            Some((last, c)) if *last == v => *c = c.saturating_add(1),
            _ => out.push((v, 1)),
        }
    }
    out
}

/// Collapses `(value, count)` pairs sorted by value, summing counts of
/// equal values (saturating).
pub fn accumulate_weighted<T: Ord + Copy>(sorted_pairs: &[(T, u32)]) -> Vec<(T, u32)> {
    debug_assert!(
        sorted_pairs.windows(2).all(|w| w[0].0 <= w[1].0),
        "input must be sorted by value"
    );
    let mut out: Vec<(T, u32)> = Vec::with_capacity(distinct_runs_estimate(sorted_pairs));
    for &(v, c) in sorted_pairs {
        match out.last_mut() {
            Some((last, total)) if *last == v => *total = total.saturating_add(c),
            _ => out.push((v, c)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_runs() {
        assert_eq!(accumulate(&[1, 1, 2, 3, 3, 3]), vec![(1, 2), (2, 1), (3, 3)]);
    }

    #[test]
    fn empty_input() {
        assert!(accumulate::<u64>(&[]).is_empty());
        assert!(accumulate_weighted::<u64>(&[]).is_empty());
    }

    #[test]
    fn single_run() {
        assert_eq!(accumulate(&[5u64; 10]), vec![(5, 10)]);
    }

    #[test]
    fn all_distinct() {
        let v: Vec<u64> = (0..100).collect();
        let acc = accumulate(&v);
        assert_eq!(acc.len(), 100);
        assert!(acc.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn weighted_sums_runs() {
        let pairs = [(1u64, 2), (1, 3), (2, 1), (5, 4), (5, 1)];
        assert_eq!(accumulate_weighted(&pairs), vec![(1, 5), (2, 1), (5, 5)]);
    }

    #[test]
    fn weighted_saturates() {
        let pairs = [(1u64, u32::MAX), (1, 10)];
        assert_eq!(accumulate_weighted(&pairs), vec![(1, u32::MAX)]);
    }

    #[test]
    fn accumulate_total_preserved() {
        let v = [3u64, 3, 3, 7, 9, 9];
        let total: u64 = accumulate(&v).iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(total, v.len() as u64);
    }

    #[test]
    fn distinct_estimate_bounds() {
        assert_eq!(distinct_runs_estimate::<u64>(&[]), 0);
        assert_eq!(distinct_runs_estimate(&[9u64]), 1);
        // Exact on small inputs.
        assert_eq!(distinct_runs_estimate(&[1u64, 1, 2, 3, 3]), 3);
        assert_eq!(distinct_runs_estimate(&[5u64; 100]), 1);
        // Large all-distinct input: estimate must land on n (every sampled
        // pair is a boundary) and never exceed it.
        let v: Vec<u64> = (0..100_000).collect();
        assert_eq!(distinct_runs_estimate(&v), v.len());
        // Large constant input: estimate is the single run.
        let c = vec![42u64; 100_000];
        assert_eq!(distinct_runs_estimate(&c), 1);
    }
}
