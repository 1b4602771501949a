//! Order statistics behind every reported timing.

/// Samples that must lie strictly beyond the reported tail value.
const TAIL_BEYOND: usize = 10;

/// Median plus the tail rule's value for one set of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile the tail sits at (share of samples at or below it).
    pub tail_pct: f64,
    /// Samples strictly beyond the tail value's rank.
    pub beyond: usize,
}

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail rule on sorted samples: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it, i.e. the `TAIL_BEYOND + 1`-th largest
/// sample. Returns `(value, percentile, samples beyond)`. When that sample
/// would not lie above the median (fewer than `2 × TAIL_BEYOND + 2`
/// samples) the maximum is reported, with fewer samples beyond.
pub fn tail_sorted(s: &[f64]) -> (f64, f64, usize) {
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let idx = if n >= 2 * TAIL_BEYOND + 2 {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    let beyond = n - idx - 1;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, beyond)
}

/// Summarize unsorted samples.
pub fn summarize(v: &[f64]) -> Summary {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (tail, tail_pct, beyond) = tail_sorted(&s);
    Summary {
        n: s.len(),
        p50: median_sorted(&s),
        tail,
        tail_pct,
        beyond,
    }
}

/// Median and tail of consecutive windows of at least `window` samples (in
/// the order given; `n / window` equal windows, the remainder spread over
/// them, and one window when there are fewer samples), each reported as
/// the median over windows. A stall then moves the windows it falls in,
/// not the reported value.
pub fn windowed(v: &[f64], window: usize) -> Summary {
    let k = (v.len() / window).max(1);
    let each: Vec<Summary> = (0..k)
        .map(|i| summarize(&v[i * v.len() / k..(i + 1) * v.len() / k]))
        .collect();
    let first = each[0];
    Summary {
        n: v.len(),
        p50: median(&each.iter().map(|s| s.p50).collect::<Vec<_>>()),
        tail: median(&each.iter().map(|s| s.tail).collect::<Vec<_>>()),
        tail_pct: first.tail_pct,
        beyond: first.beyond,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.beyond, 10);
        assert!((s.tail_pct - 99.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let small: Vec<f64> = (0..100).map(f64::from).collect();
        let large: Vec<f64> = (0..10_000).map(f64::from).collect();
        let (_, p_small, _) = tail_sorted(&small);
        let (_, p_large, _) = tail_sorted(&large);
        assert!((p_small - 90.0).abs() < 1e-9);
        assert!((p_large - 99.9).abs() < 1e-9);
    }

    #[test]
    fn tail_with_too_few_samples_is_the_maximum() {
        let (v, p, beyond) = tail_sorted(&[1.0, 2.0, 3.0]);
        assert_eq!((v, p, beyond), (3.0, 100.0, 0));
        let v: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), (14.0, 100.0, 0));
        let v: Vec<f64> = (0..22).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), (11.0, 100.0 * 12.0 / 22.0, 10));
        assert_eq!(tail_sorted(&[]), (0.0, 0.0, 0));
    }

    #[test]
    fn windowed_summary_ignores_one_stalled_window() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from(i % 100)).collect();
        v[1500..1750].iter_mut().for_each(|x| *x = 1e6);
        let s = windowed(&v, 500);
        assert_eq!((s.p50, s.tail, s.n, s.beyond), (49.5, 97.0, 2000, 10));
        assert!((s.tail_pct - 98.0).abs() < 1e-9);
        let one = windowed(&v[..100], 500);
        assert_eq!((one.p50, one.tail, one.tail_pct), (49.5, 89.0, 90.0));
        // 1,100 samples make two windows of 550, using every sample.
        let two = windowed(&v[..1100], 500);
        assert!((two.tail_pct - 100.0 * 540.0 / 550.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
