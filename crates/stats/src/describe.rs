//! Descriptive statistics used by the experimental assessment:
//! sample means, variances, the relative standard error of the mean (SEM,
//! Table 5), interpolated quantiles (effective diameter, Section 6.3) and
//! boxplot five-number summaries (Figures 2–3).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n-1`); 0 when `n < 2`.
pub fn sample_var(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_var(xs).sqrt()
}

/// Standard error of the mean: `s / sqrt(n)`.
pub fn sem(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sample_std(xs) / (xs.len() as f64).sqrt()
}

/// The *relative* SEM used throughout Table 5: the SEM normalised by the
/// absolute sample mean. Returns 0 when the mean is 0.
pub fn relative_sem(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        sem(xs) / m.abs()
    }
}

/// Relative absolute difference `|estimate - truth| / |truth|` — the
/// per-statistic error aggregated in the last column of Tables 4 and 6.
/// Falls back to the absolute difference when `truth == 0`.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        (estimate - truth).abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Linearly interpolated quantile of a sample (the "type 7" rule used by R
/// and NumPy). `q` is clamped to `[0,1]`. Returns `NaN` for empty input.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile input must be sorted"
    );
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Five-number summary backing the paper's boxplots (Figures 2 and 3):
/// whiskers are the smallest and largest observed values, the box spans the
/// lower and upper quartiles, with the median marked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotSummary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl BoxplotSummary {
    /// Builds the summary from (unsorted) observations. Returns `None` for
    /// empty input.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_known() {
        // Var of {2,4,4,4,5,5,7,9} with n-1 denominator = 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((sample_var(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_degenerate() {
        assert_eq!(sample_var(&[5.0]), 0.0);
        assert_eq!(sample_var(&[]), 0.0);
    }

    #[test]
    fn sem_shrinks_with_n() {
        let a = [1.0, 3.0];
        let b = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0];
        assert!(sem(&b) < sem(&a));
    }

    #[test]
    fn relative_sem_scale_invariant() {
        let xs = [10.0, 12.0, 11.0, 9.5];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 1000.0).collect();
        assert!((relative_sem(&xs) - relative_sem(&scaled)).abs() < 1e-12);
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_and_empty() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn boxplot_ordering_invariant() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let b = BoxplotSummary::of(&xs).unwrap();
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 9.0);
    }

    #[test]
    fn boxplot_empty_is_none() {
        assert!(BoxplotSummary::of(&[]).is_none());
    }
}
