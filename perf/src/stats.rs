//! Sample summaries: median, quartiles and count.

/// Median and quartiles of a sample, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spreads this
/// benchmark prints are the ones its acceptance rule computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn quantile_exclusive(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = i * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// Summarises `samples`; `None` when empty or not all finite.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        median: quantile_exclusive(&s, 2),
        q1: quantile_exclusive(&s, 1),
        q3: quantile_exclusive(&s, 3),
        n: s.len(),
    })
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

/// The `p`-th percentile (nearest rank) of an unsorted sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([10, 20, 30, 50], n=4) == [12.5, 25.0, 45.0]
        let s = summarize(&[10.0, 20.0, 30.0, 50.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 45.0));
        assert!(summarize(&[]).is_none());
        assert!(summarize(&[f64::NAN]).is_none());
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 50.0), 50.0);
    }
}
