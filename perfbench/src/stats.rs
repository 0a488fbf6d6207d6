//! The timing helper: a median plus the highest tail percentile the
//! sample supports, with the sample count.

/// Tail percentiles considered, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The low percentile reported as the fast-path latency: the time an
/// operation takes when nothing else delays it. Interference from other
/// tenants of the machine only ever adds time, so a low percentile moves
/// far less with their load than the median does.
pub const FAST_PCT: f64 = 1.0;

/// The 1-based nearest rank of the `p`-th percentile among `n > 0`
/// samples. The small slack keeps `99.9% of 10,000` at 9,990 despite
/// binary rounding.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Samples strictly below the nearest-rank `p`-th percentile of `n`.
pub fn below(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    rank(n, p) - 1
}

/// The highest percentile in [`TAILS`] with at least
/// [`MIN_BEYOND_TAIL`] samples beyond it, or `None` when even the
/// lowest lacks them.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND_TAIL)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency distribution as it is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    /// The [`FAST_PCT`] percentile, and whether at least
    /// [`MIN_BEYOND_TAIL`] samples lie below it.
    pub fast: f64,
    pub fast_supported: bool,
    pub p50: f64,
    /// The fixed tail percentile the metric names (e.g. 99).
    pub fixed_tail_pct: f64,
    pub fixed_tail: f64,
    /// Whether at least [`MIN_BEYOND_TAIL`] samples lie beyond the
    /// fixed tail.
    pub fixed_tail_supported: bool,
    /// The highest supported tail, when any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64], fixed_tail_pct: f64) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Summary {
            n,
            fast: percentile(&v, FAST_PCT),
            fast_supported: below(n, FAST_PCT) >= MIN_BEYOND_TAIL,
            p50: percentile(&v, 50.0),
            fixed_tail_pct,
            fixed_tail: percentile(&v, fixed_tail_pct),
            fixed_tail_supported: beyond(n, fixed_tail_pct) >= MIN_BEYOND_TAIL,
            tail: supported_tail(n).map(|p| (p, percentile(&v, p))),
        }
    }
}

/// Samples per window for a tail percentile `p`: enough that
/// [`MIN_BEYOND_TAIL`] samples lie beyond it in every window.
pub fn window_len(p: f64) -> usize {
    ((MIN_BEYOND_TAIL as f64 / (1.0 - p / 100.0)).round() as usize).max(1)
}

/// Splits samples, given as `(completion time, latency)`, into
/// consecutive windows of [`window_len`]`(p)` samples in completion
/// order (a short last window is dropped) and returns the median over
/// windows of each window's `p`-th percentile; `None` without a full
/// window.
pub fn windowed(samples: &[(u64, f64)], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by_key(|s| s.0);
    let tails: Vec<f64> = v
        .chunks_exact(window_len(p))
        .map(|w| {
            let mut lat: Vec<f64> = w.iter().map(|s| s.1).collect();
            lat.sort_by(f64::total_cmp);
            percentile(&lat, p)
        })
        .collect();
    (!tails.is_empty()).then(|| median(&tails))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn fast_percentile_needs_ten_samples_below_it() {
        assert_eq!(below(1000, 1.0), 9);
        assert_eq!(below(1100, 1.0), 10);
        assert_eq!(below(0, 1.0), 0);
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        let s = Summary::of(&v, 99.0);
        assert_eq!(s.fast, 11.0);
        assert!(s.fast_supported);
        assert!(!Summary::of(&v[..1000], 99.0).fast_supported);
    }

    #[test]
    fn summary_reports_fixed_and_supported_tails() {
        let v: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = Summary::of(&v, 99.0);
        assert_eq!(s.n, 2000);
        assert_eq!(s.fast, 20.0);
        assert!(s.fast_supported);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.fixed_tail, 1980.0);
        assert!(s.fixed_tail_supported);
        assert_eq!(s.tail, Some((99.0, 1980.0)));
        let small = Summary::of(&v[..500], 99.0);
        assert!(!small.fixed_tail_supported);
        assert!(!small.fast_supported);
        assert_eq!(small.tail.map(|t| t.0), Some(95.0));
    }

    #[test]
    fn windows_hold_ten_samples_beyond_their_tail() {
        assert_eq!(window_len(99.0), 1000);
        assert_eq!(window_len(95.0), 200);
        // Three windows of 200 at 1 ms spacing; the middle one is slow.
        let samples: Vec<(u64, f64)> = (0..650u64)
            .map(|i| {
                let slow = (200..400).contains(&i);
                (i * 1_000_000, if slow { 50.0 } else { (i % 200) as f64 })
            })
            .collect();
        // Window p95s: 189, 50, 189 -> median 189; the short last
        // window of 50 samples is dropped.
        assert_eq!(windowed(&samples, 95.0), Some(189.0));
        assert_eq!(windowed(&samples[..150], 95.0), None);
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
