//! Sample summaries: every reported timing is a median and a tail
//! percentile computed from real per-operation samples, always carried
//! with its sample count.

use runtime::percentile;

/// Summary of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples the figures were computed from.
    pub n: usize,
    /// Median (linear interpolation between order statistics).
    pub p50: f64,
    /// 99th percentile (same interpolation).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarise `samples` (any order). An empty set gives `n = 0` and
    /// zero figures, never `NaN`, so a report stays valid JSON.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                n: 0,
                p50: 0.0,
                p99: 0.0,
                mean: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Median of `values` (any order); 0 for an empty set.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Sub-windows a phase is split into for its throughput and tail
/// latency; the reported figure is the median over the sub-windows, so
/// one stalled stretch of the host does not set it.
pub const RATE_WINDOWS: usize = 5;

/// Median over `windows` equal sub-windows of `[0, last time]` of the
/// `q`-quantile of the values in each: `points` holds `(seconds since
/// the phase began, value)` in time order. Empty sub-windows are
/// skipped.
#[must_use]
pub fn windowed_quantile(points: &[(f64, f64)], windows: usize, q: f64) -> f64 {
    let Some(&(end, _)) = points.last() else {
        return 0.0;
    };
    let width = end / windows as f64;
    let mut buckets = vec![Vec::new(); windows];
    for &(at, value) in points {
        let w = if width > 0.0 {
            ((at / width) as usize).min(windows - 1)
        } else {
            0
        };
        buckets[w].push(value);
    }
    let quantiles: Vec<f64> = buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            b.sort_by(f64::total_cmp);
            percentile(b, q)
        })
        .collect();
    median(&quantiles)
}

/// Median completion rate over `windows` equal sub-windows of
/// `[0, last completion]`: `completions` holds `(seconds since the phase
/// began, operations completed)` in time order.
#[must_use]
pub fn windowed_rate(completions: &[(f64, usize)], windows: usize) -> f64 {
    let Some(&(end, _)) = completions.last() else {
        return 0.0;
    };
    let width = end / windows as f64;
    let mut counts = vec![0usize; windows];
    for &(at, ops) in completions {
        let w = ((at / width) as usize).min(windows - 1);
        counts[w] += ops;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}
