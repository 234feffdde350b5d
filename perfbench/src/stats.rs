//! Percentiles, medians and histogram deltas.

use iofwd::telemetry::HistSnapshot;

/// A nearest-rank percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: u64,
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`:
/// the value at 1-based rank `ceil(p/100 * n)`.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Mean of the values left after dropping the lowest and the highest
/// quarter (the plain mean below four values). Unlike the median it
/// moves smoothly when the values fall in two clusters, as rounds on
/// daemons that settled in two different states do; unlike the mean it
/// ignores a stray stall.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Time `f` over `reps` repetitions of `iters` calls and return the
/// median nanoseconds per call.
pub fn median_ns_per_call(reps: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_rep)
}

/// `after - before`, bucket by bucket.
pub fn hist_delta(after: Option<&HistSnapshot>, before: Option<&HistSnapshot>) -> HistSnapshot {
    let mut d = after.copied().unwrap_or_default();
    if let Some(b) = before {
        for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
            *x = x.saturating_sub(*y);
        }
        d.count = d.count.saturating_sub(b.count);
        d.sum = d.sum.saturating_sub(b.sum);
    }
    d
}

/// Quantile of a log2 histogram, interpolated linearly inside the
/// bucket that holds the target rank (bucket `i` spans `[2^i, 2^(i+1))`,
/// bucket 0 also holds 0 and 1). Returns 0 for an empty histogram.
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * h.count as f64).max(1.0);
    let mut seen = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = 2f64.powi(i as i32 + 1);
            let frac = (target - seen as f64) / c as f64;
            return lo + frac * (hi - lo);
        }
        seen += c;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=1000).collect();
        let p50 = nearest_rank(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (500, 1000, 500));
        let p99 = nearest_rank(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990, 1000, 10));
        let small = nearest_rank(&[5, 7, 9], 99.0).unwrap();
        assert_eq!((small.value, small.beyond), (9, 0));
        assert_eq!(nearest_rank(&[3], 50.0).unwrap().value, 3);
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]),
            3.5
        );
        // Two clusters: the value moves by a step per member, not a jump.
        let a = interquartile_mean(&[80.0, 80.0, 80.0, 80.0, 80.0, 110.0, 110.0, 110.0]);
        let b = interquartile_mean(&[80.0, 80.0, 80.0, 80.0, 110.0, 110.0, 110.0, 110.0]);
        assert_eq!((a, b), (87.5, 95.0));
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn hist_quantile_interpolates_and_deltas_subtract() {
        let mut before = HistSnapshot::default();
        before.record(5000);
        let mut after = before;
        for v in [100u64, 100, 100, 100] {
            after.record(v);
        }
        let d = hist_delta(Some(&after), Some(&before));
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 400);
        // All four samples sit in [64, 128): the median is inside it.
        let q = hist_quantile(&d, 0.5);
        assert!((64.0..128.0).contains(&q), "{q}");
        assert_eq!(hist_quantile(&HistSnapshot::default(), 0.5), 0.0);
    }
}
