//! Streaming and batch statistics.
//!
//! The experiment harnesses aggregate 1000 Monte-Carlo runs per
//! configuration (Sec. V) and render box plots (Fig. 2a) and heat maps
//! (Fig. 2c). This module provides the numeric building blocks:
//! Welford-style streaming summaries, interpolated quantiles and Tukey
//! box-plot statistics.

/// Streaming summary: count, mean, variance (Welford), min, max.
///
/// Numerically stable for long accumulations; merging two summaries
/// (parallel reduction across worker threads) is supported via
/// [`Summary::merge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The summary's complete state, `(n, mean, m2, min, max)`: the
    /// count, the running mean, the running sum of squared deviations and
    /// the extremes, exactly as [`push`](Self::push) left them. With
    /// [`from_parts`](Self::from_parts) it lets a codec store a summary
    /// bit for bit.
    pub fn parts(&self) -> (u64, f64, f64, f64, f64) {
        let Self {
            n,
            mean,
            m2,
            min,
            max,
        } = *self;
        (n, mean, m2, min, max)
    }

    /// The summary whose [`parts`](Self::parts) are the given ones.
    pub fn from_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Self {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Summary::push requires finite values");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (Chan's parallel algorithm).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean (0 when fewer than two observations).
    pub fn std_err(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the two-sided Student-t confidence interval on the
    /// mean, i.e. `t_{n−1, confidence} · std_err`. Supported confidence
    /// levels are 0.90, 0.95 and 0.99 (see [`t_critical`]). Returns 0 for
    /// fewer than two observations.
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            t_critical(self.n - 1, confidence) * self.std_err()
        }
    }
}

/// Two-sided Student-t critical value for `df` degrees of freedom at the
/// given confidence level (0.90, 0.95 or 0.99).
///
/// Exact table entries for df ≤ 30, interpolated in `1/df` through the
/// 40/60/120 anchors beyond that, and the normal critical value for
/// df > 120 — at which point t and z differ by under 0.5 %.
pub fn t_critical(df: u64, confidence: f64) -> f64 {
    assert!(df > 0, "t_critical requires df ≥ 1");
    // Columns: 0.90, 0.95, 0.99 two-sided.
    const TABLE: [[f64; 3]; 30] = [
        [6.314, 12.706, 63.657],
        [2.920, 4.303, 9.925],
        [2.353, 3.182, 5.841],
        [2.132, 2.776, 4.604],
        [2.015, 2.571, 4.032],
        [1.943, 2.447, 3.707],
        [1.895, 2.365, 3.499],
        [1.860, 2.306, 3.355],
        [1.833, 2.262, 3.250],
        [1.812, 2.228, 3.169],
        [1.796, 2.201, 3.106],
        [1.782, 2.179, 3.055],
        [1.771, 2.160, 3.012],
        [1.761, 2.145, 2.977],
        [1.753, 2.131, 2.947],
        [1.746, 2.120, 2.921],
        [1.740, 2.110, 2.898],
        [1.734, 2.101, 2.878],
        [1.729, 2.093, 2.861],
        [1.725, 2.086, 2.845],
        [1.721, 2.080, 2.831],
        [1.717, 2.074, 2.819],
        [1.714, 2.069, 2.807],
        [1.711, 2.064, 2.797],
        [1.708, 2.060, 2.787],
        [1.706, 2.056, 2.779],
        [1.703, 2.052, 2.771],
        [1.701, 2.048, 2.763],
        [1.699, 2.045, 2.756],
        [1.697, 2.042, 2.750],
    ];
    const ANCHORS: [(u64, [f64; 3]); 3] = [
        (40, [1.684, 2.021, 2.704]),
        (60, [1.671, 2.000, 2.660]),
        (120, [1.658, 1.980, 2.617]),
    ];
    const Z: [f64; 3] = [1.644_853_627, 1.959_963_985, 2.575_829_304];
    let col = if (confidence - 0.90).abs() < 1e-9 {
        0
    } else if (confidence - 0.95).abs() < 1e-9 {
        1
    } else if (confidence - 0.99).abs() < 1e-9 {
        2
    } else {
        panic!("t_critical supports confidence 0.90 / 0.95 / 0.99, got {confidence}")
    };
    if df <= 30 {
        return TABLE[(df - 1) as usize][col];
    }
    if df > 120 {
        return Z[col];
    }
    // Linear interpolation in 1/df between the bracketing anchors (the
    // classical textbook device; error < 0.001 over this range).
    let (mut lo_df, mut lo_v) = (30u64, TABLE[29][col]);
    for &(a_df, a_v) in &ANCHORS {
        if df <= a_df {
            let x = 1.0 / df as f64;
            let x0 = 1.0 / lo_df as f64;
            let x1 = 1.0 / a_df as f64;
            return lo_v + (a_v[col] - lo_v) * (x - x0) / (x1 - x0);
        }
        lo_df = a_df;
        lo_v = a_v[col];
    }
    unreachable!("df ≤ 120 is always bracketed")
}

/// Summary over antithetic *pair means*.
///
/// Feed it per-run values in run order; runs `2p` and `2p+1` form pair
/// `p`, and each completed pair contributes `(x₂ₚ + x₂ₚ₊₁)/2` to an inner
/// [`Summary`]. Because pair members are negatively correlated by
/// construction, the variance over pair means — not the naive per-run
/// variance — is the correct basis for a confidence interval on the mean.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairedSummary {
    pairs: Summary,
    pending: Option<f64>,
}

impl PairedSummary {
    /// Creates an empty paired summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one per-run observation; every second call completes a pair.
    pub fn push(&mut self, x: f64) {
        match self.pending.take() {
            Some(first) => self.pairs.push(0.5 * (first + x)),
            None => self.pending = Some(x),
        }
    }

    /// Number of completed pairs.
    pub fn pairs(&self) -> u64 {
        self.pairs.count()
    }

    /// Mean over completed pair means (equals the plain mean over those
    /// runs). An unpaired trailing value is excluded.
    pub fn mean(&self) -> f64 {
        self.pairs.mean()
    }

    /// Standard error of the mean, estimated over pair means.
    pub fn std_err(&self) -> f64 {
        self.pairs.std_err()
    }

    /// Student-t CI half-width over pair means (df = pairs − 1).
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        self.pairs.ci_half_width(confidence)
    }

    /// The inner summary of pair means.
    pub fn inner(&self) -> &Summary {
        &self.pairs
    }
}

/// Per-stratum [`Summary`]s folded with fixed stratum weights.
///
/// For equal-probability strata (the generator's
/// [`crate::SimRng::set_next_stratum`] remap) every weight is `1/K`. The
/// stratified mean is `Σ wⱼ·meanⱼ` and the estimator variance is
/// `Σ wⱼ²·sⱼ²/nⱼ` — strictly smaller than the crude-Monte-Carlo variance
/// whenever the strata means differ.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedSummary {
    strata: Vec<Summary>,
    weights: Vec<f64>,
}

impl StratifiedSummary {
    /// Creates a stratified summary with `k` equal-weight strata.
    pub fn equal_weights(k: usize) -> Self {
        assert!(k > 0, "at least one stratum");
        Self {
            strata: vec![Summary::new(); k],
            weights: vec![1.0 / k as f64; k],
        }
    }

    /// Creates a stratified summary with explicit stratum weights
    /// (must sum to ≈ 1).
    pub fn with_weights(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "at least one stratum");
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights must sum to 1");
        Self {
            strata: vec![Summary::new(); weights.len()],
            weights,
        }
    }

    /// Adds one observation to stratum `j`.
    pub fn push(&mut self, j: usize, x: f64) {
        self.strata[j].push(x);
    }

    /// Number of strata.
    pub fn strata(&self) -> usize {
        self.strata.len()
    }

    /// Per-stratum summaries, in stratum order.
    pub fn stratum(&self, j: usize) -> &Summary {
        &self.strata[j]
    }

    /// Total observations across strata.
    pub fn count(&self) -> u64 {
        self.strata.iter().map(Summary::count).sum()
    }

    /// Stratum-weighted mean `Σ wⱼ·meanⱼ` (0 until every stratum has at
    /// least one observation).
    pub fn mean(&self) -> f64 {
        if self.strata.iter().any(|s| s.count() == 0) {
            return 0.0;
        }
        self.strata
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| w * s.mean())
            .sum()
    }

    /// Standard error of the stratified mean, `√(Σ wⱼ²·sⱼ²/nⱼ)`.
    /// Requires every stratum to hold ≥ 2 observations; returns 0 before
    /// that.
    pub fn std_err(&self) -> f64 {
        if self.strata.iter().any(|s| s.count() < 2) {
            return 0.0;
        }
        self.strata
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| w * w * s.variance() / s.count() as f64)
            .sum::<f64>()
            .sqrt()
    }

    /// Student-t CI half-width of the stratified mean. Degrees of freedom
    /// are taken conservatively as `Σ(nⱼ − 1)` (Satterthwaite would only
    /// be larger, so this never under-covers by df choice).
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        if self.strata.iter().any(|s| s.count() < 2) {
            return 0.0;
        }
        let df: u64 = self.strata.iter().map(|s| s.count() - 1).sum();
        t_critical(df, confidence) * self.std_err()
    }

    /// Neyman allocation of `n` further observations: stratum `j` receives
    /// a share proportional to `wⱼ·σⱼ` (largest-remainder rounding, ties
    /// to the lower stratum index — fully deterministic). Falls back to a
    /// proportional split while any stratum still lacks a variance
    /// estimate, so pilot batches self-bootstrap.
    pub fn neyman_allocation(&self, n: usize) -> Vec<usize> {
        let k = self.strata.len();
        let mut scores: Vec<f64> = self
            .strata
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| w * s.std_dev())
            .collect();
        let total: f64 = scores.iter().sum();
        if !(total > 0.0) || self.strata.iter().any(|s| s.count() < 2) {
            scores = self.weights.clone();
        }
        let total: f64 = scores.iter().sum();
        let mut alloc = vec![0usize; k];
        let mut rema: Vec<(usize, f64)> = Vec::with_capacity(k);
        let mut assigned = 0usize;
        for j in 0..k {
            let exact = n as f64 * scores[j] / total;
            let base = exact.floor() as usize;
            alloc[j] = base;
            assigned += base;
            rema.push((j, exact - base as f64));
        }
        // Largest remainder first; ties broken by stratum index.
        rema.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for (j, _) in rema.into_iter().take(n - assigned) {
            alloc[j] += 1;
        }
        alloc
    }
}

/// Interpolated quantiles over a sorted copy of a data set.
#[derive(Debug, Clone)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds a quantile table (sorts a copy of `values`). Panics on empty
    /// input or non-finite values.
    pub fn new(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "Quantiles requires at least one value");
        assert!(values.iter().all(|v| v.is_finite()), "values must be finite");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self { sorted }
    }

    /// The q-quantile (linear interpolation, R-7 / NumPy default).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        if i + 1 < n {
            self.sorted[i] * (1.0 - frac) + self.sorted[i + 1] * frac
        } else {
            self.sorted[n - 1]
        }
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Underlying sorted values.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// Tukey box-plot statistics: quartiles, whiskers at 1.5·IQR, outliers.
///
/// This is exactly what Fig. 2a draws per failure sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxPlot {
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lowest observation within `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest observation within `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Observations outside the whiskers.
    pub outliers: Vec<f64>,
    /// Arithmetic mean (annotated beside each box in Fig. 2a).
    pub mean: f64,
}

impl BoxPlot {
    /// Computes box-plot statistics for `values`. Panics on empty input.
    pub fn new(values: &[f64]) -> Self {
        let q = Quantiles::new(values);
        let (q1, median, q3) = (q.quantile(0.25), q.median(), q.quantile(0.75));
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let mut whisker_lo = f64::INFINITY;
        let mut whisker_hi = f64::NEG_INFINITY;
        let mut outliers = Vec::new();
        for &v in q.sorted() {
            if v < lo_fence || v > hi_fence {
                outliers.push(v);
            } else {
                whisker_lo = whisker_lo.min(v);
                whisker_hi = whisker_hi.max(v);
            }
        }
        // All-outlier degenerate case cannot occur: the quartiles themselves
        // always lie inside the fences.
        let mean = Summary::from_slice(values).mean();
        Self {
            q1,
            median,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
            mean,
        }
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Two-sample Kolmogorov–Smirnov comparison.
///
/// Used to validate that a *mined* lead-time distribution (recovered by
/// the chain analyzer from synthetic logs) statistically matches the
/// design ground truth, and available to users for comparing failure
/// traces across configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic D = sup |F₁(x) − F₂(x)|.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution
    /// approximation; accurate for n ≳ 35 per sample).
    pub p_value: f64,
}

impl KsResult {
    /// True if the samples are consistent with a common distribution at
    /// significance level `alpha`.
    pub fn same_distribution(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Two-sample KS test. Panics on empty inputs or non-finite values.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> KsResult {
    assert!(!a.is_empty() && !b.is_empty(), "KS needs non-empty samples");
    assert!(
        a.iter().chain(b).all(|x| x.is_finite()),
        "KS samples must be finite"
    );
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let (n, m) = (sa.len(), sb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = sa[i].min(sb[j]);
        while i < n && sa[i] <= x {
            i += 1;
        }
        while j < m && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / n as f64;
        let fb = j as f64 / m as f64;
        d = d.max((fa - fb).abs());
    }
    // Asymptotic p-value: Q_KS(λ) with λ = (√ne + 0.12 + 0.11/√ne)·D,
    // ne = n·m/(n+m)  (Numerical Recipes formulation).
    let ne = (n as f64 * m as f64) / (n + m) as f64;
    let sqrt_ne = ne.sqrt();
    let lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// One-sample KS goodness-of-fit test of `samples` against a theoretical
/// CDF. Panics on empty input, non-finite values, or a `cdf` that leaves
/// `[0, 1]` on any sample point.
///
/// This is the statistical self-test primitive: every analytic
/// distribution in [`crate::dist`] is validated against its own closed
/// form, and the empirical lead-time mixture against its survival
/// function (Fig. 2a anchors).
pub fn ks_one_sample(samples: &[f64], cdf: impl Fn(f64) -> f64) -> KsResult {
    assert!(!samples.is_empty(), "KS needs a non-empty sample");
    assert!(
        samples.iter().all(|x| x.is_finite()),
        "KS samples must be finite"
    );
    let mut s = samples.to_vec();
    s.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let n = s.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in s.iter().enumerate() {
        let f = cdf(x);
        assert!((0.0..=1.0).contains(&f), "cdf({x}) = {f} outside [0, 1]");
        // The empirical CDF steps from i/n to (i+1)/n at x: both sides
        // of the step bound the deviation.
        d = d.max((f - i as f64 / n).abs());
        d = d.max(((i + 1) as f64 / n - f).abs());
    }
    let sqrt_n = n.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// The Kolmogorov survival function Q(λ) = 2·Σ (−1)^{k−1} e^{−2k²λ²}.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.sum() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_and_singleton() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = Summary::new();
        s1.push(7.0);
        assert_eq!(s1.mean(), 7.0);
        assert_eq!(s1.variance(), 0.0);
        assert_eq!(s1.std_err(), 0.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq = Summary::from_slice(&all);
        let mut a = Summary::from_slice(&all[..37]);
        let b = Summary::from_slice(&all[37..]);
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles_interpolation() {
        let q = Quantiles::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(q.quantile(0.0), 10.0);
        assert_eq!(q.quantile(1.0), 40.0);
        assert!((q.median() - 25.0).abs() < 1e-12);
        assert!((q.quantile(1.0 / 3.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn boxplot_flags_outliers() {
        let mut vals: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        vals.push(1000.0);
        let b = BoxPlot::new(&vals);
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_hi <= 20.0);
        assert!(b.median > 5.0 && b.median < 16.0);
        assert!(b.iqr() > 0.0);
    }

    #[test]
    fn boxplot_uniform_no_outliers() {
        let vals: Vec<f64> = (0..100).map(|x| x as f64).collect();
        let b = BoxPlot::new(&vals);
        assert!(b.outliers.is_empty());
        assert_eq!(b.whisker_lo, 0.0);
        assert_eq!(b.whisker_hi, 99.0);
        assert!((b.mean - 49.5).abs() < 1e-12);
    }

    #[test]
    fn ks_identical_samples_accept() {
        let a: Vec<f64> = (0..200).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let r = ks_two_sample(&a, &a);
        assert_eq!(r.statistic, 0.0);
        assert!(r.p_value > 0.99);
        assert!(r.same_distribution(0.05));
    }

    #[test]
    fn ks_same_distribution_different_samples_accept() {
        use crate::dist::{Distribution, Weibull};
        use crate::rng::SimRng;
        let w = Weibull::new(0.7, 5.0);
        let mut rng = SimRng::seed_from(31);
        let a = w.sample_n(&mut rng, 800);
        let b = w.sample_n(&mut rng, 600);
        let r = ks_two_sample(&a, &b);
        assert!(
            r.same_distribution(0.01),
            "same-law samples rejected: D={}, p={}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn ks_different_distributions_reject() {
        use crate::dist::{Distribution, Exponential, Normal};
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(17);
        let a = Normal::new(10.0, 1.0).sample_n(&mut rng, 500);
        let b = Exponential::new(10.0).sample_n(&mut rng, 500);
        let r = ks_two_sample(&a, &b);
        assert!(
            !r.same_distribution(0.05),
            "different laws accepted: D={}, p={}",
            r.statistic,
            r.p_value
        );
        assert!(r.statistic > 0.2);
    }

    #[test]
    fn ks_shifted_distribution_rejects() {
        let a: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| i as f64 + 100.0).collect();
        let r = ks_two_sample(&a, &b);
        assert!(r.statistic > 0.3);
        assert!(r.p_value < 0.01);
    }

    /// Standard normal CDF via Abramowitz–Stegun 7.1.26 (|err| < 1.5e-7),
    /// plenty for KS at the sample sizes used here.
    fn normal_cdf(z: f64) -> f64 {
        let x = z / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.3275911 * x.abs());
        let poly = t
            * (0.254829592
                + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
        let erf = 1.0 - poly * (-x * x).exp();
        let erf = if x < 0.0 { -erf } else { erf };
        0.5 * (1.0 + erf)
    }

    #[test]
    fn gof_weibull_matches_its_cdf() {
        use crate::dist::{Distribution, Weibull};
        use crate::rng::SimRng;
        // The Titan MTBF law (shape 0.7 — DESIGN.md §3) and a wear-out
        // shape, each against the closed-form CDF.
        for (seed, shape, scale) in [(101, 0.7, 5.0), (102, 1.8, 3600.0)] {
            let w = Weibull::new(shape, scale);
            let mut rng = SimRng::seed_from(seed);
            let samples = w.sample_n(&mut rng, 1500);
            let r = ks_one_sample(&samples, |x| w.cdf(x));
            assert!(
                r.same_distribution(0.01),
                "Weibull({shape}, {scale}) rejected its own CDF: D={}, p={}",
                r.statistic,
                r.p_value
            );
        }
    }

    #[test]
    fn gof_lognormal_matches_its_cdf() {
        use crate::dist::{Distribution, LogNormal};
        use crate::rng::SimRng;
        // from_mean_cv is how the failure generator parameterizes lead
        // errors; validate via the underlying normal on the log scale.
        let d = LogNormal::from_mean_cv(50.0, 0.5);
        let mut rng = SimRng::seed_from(103);
        let samples = d.sample_n(&mut rng, 1500);
        let r = ks_one_sample(&samples, |x| {
            if x <= 0.0 {
                0.0
            } else {
                normal_cdf((x.ln() - d.mu) / d.sigma)
            }
        });
        assert!(
            r.same_distribution(0.01),
            "LogNormal rejected its own CDF: D={}, p={}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn gof_truncated_normal_matches_its_cdf() {
        use crate::dist::{Distribution, TruncatedNormal};
        use crate::rng::SimRng;
        // A Fig.-2a-style sequence: mean 60 s, σ 25 s, truncated at 0 —
        // the rejection sampler must reproduce the renormalized CDF.
        let d = TruncatedNormal::new(60.0, 25.0, 0.0);
        let mut rng = SimRng::seed_from(104);
        let samples = d.sample_n(&mut rng, 1500);
        let mass_below = normal_cdf((d.lower_bound() - d.mu()) / d.sigma());
        let r = ks_one_sample(&samples, |x| {
            if x < d.lower_bound() {
                0.0
            } else {
                ((normal_cdf((x - d.mu()) / d.sigma()) - mass_below) / (1.0 - mass_below))
                    .clamp(0.0, 1.0)
            }
        });
        assert!(
            r.same_distribution(0.01),
            "TruncatedNormal rejected its own CDF: D={}, p={}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn ks_one_sample_rejects_wrong_law() {
        use crate::dist::{Distribution, Exponential};
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from(105);
        let samples = Exponential::new(10.0).sample_n(&mut rng, 800);
        // Test exponential data against a uniform CDF on [0, 30].
        let r = ks_one_sample(&samples, |x| (x / 30.0).clamp(0.0, 1.0));
        assert!(!r.same_distribution(0.05), "wrong law accepted: p={}", r.p_value);
        assert!(r.statistic > 0.15);
    }

    #[test]
    fn kolmogorov_q_edges() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(0.5) > 0.9);
        assert!(kolmogorov_q(2.0) < 0.001);
    }

    #[test]
    fn t_critical_matches_published_table() {
        // Spot values straight from the standard two-sided t table.
        assert_eq!(t_critical(1, 0.95), 12.706);
        assert_eq!(t_critical(4, 0.95), 2.776);
        assert_eq!(t_critical(10, 0.99), 3.169);
        assert_eq!(t_critical(30, 0.90), 1.697);
        // Interpolated range: bracketed by its anchors, monotone.
        let t50 = t_critical(50, 0.95);
        assert!(t50 < t_critical(40, 0.95) && t50 > t_critical(60, 0.95));
        assert!((t_critical(40, 0.95) - 2.021).abs() < 1e-9);
        assert!((t50 - 2.009).abs() < 0.002, "t(50, .95) = {t50}");
        // Normal fallback past 120.
        assert!((t_critical(121, 0.95) - 1.959_963_985).abs() < 1e-9);
        assert!((t_critical(10_000, 0.90) - 1.644_853_627).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn t_critical_rejects_unsupported_confidence() {
        t_critical(10, 0.5);
    }

    #[test]
    fn ci_half_width_known_example() {
        // n = 5, values 1..5: mean 3, s = √2.5, se = √0.5, t₄ = 2.776.
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let want = 2.776 * (0.5f64).sqrt();
        assert!((s.ci_half_width(0.95) - want).abs() < 1e-9);
        // Degenerate cases.
        assert_eq!(Summary::new().ci_half_width(0.95), 0.0);
        assert_eq!(Summary::from_slice(&[7.0]).ci_half_width(0.95), 0.0);
    }

    #[test]
    fn paired_summary_means_and_pending() {
        let mut p = PairedSummary::new();
        for x in [1.0, 3.0, 5.0, 7.0, 100.0] {
            p.push(x);
        }
        // Pairs (1,3) and (5,7); the trailing 100 is pending.
        assert_eq!(p.pairs(), 2);
        assert_eq!(p.mean(), 4.0);
        assert_eq!(p.inner().min(), 2.0);
        assert_eq!(p.inner().max(), 6.0);
    }

    #[test]
    fn paired_summary_kills_variance_of_perfect_antithesis() {
        // x and c − x in each pair: every pair mean is c/2 exactly.
        let mut p = PairedSummary::new();
        let mut plain = Summary::new();
        for i in 0..100 {
            let x = i as f64;
            p.push(x);
            p.push(10.0 - x);
            plain.push(x);
            plain.push(10.0 - x);
        }
        assert_eq!(p.mean(), 5.0);
        assert_eq!(p.std_err(), 0.0);
        assert!(plain.std_err() > 1.0, "plain se {}", plain.std_err());
    }

    #[test]
    fn stratified_equal_weight_fold_matches_flat_merge() {
        // Round-robin over K strata with a count divisible by K: the
        // stratified mean equals the flat mean exactly, and per-stratum
        // merges reassemble the flat summary.
        let values: Vec<f64> = (0..240).map(|i| ((i * 37) % 101) as f64).collect();
        const K: usize = 8;
        let mut strat = StratifiedSummary::equal_weights(K);
        let mut per_stratum = vec![Summary::new(); K];
        for (i, &v) in values.iter().enumerate() {
            strat.push(i % K, v);
            per_stratum[i % K].push(v);
        }
        let mut merged = Summary::new();
        for s in &per_stratum {
            merged.merge(s);
        }
        let flat = Summary::from_slice(&values);
        assert_eq!(merged.count(), flat.count());
        assert!((merged.mean() - flat.mean()).abs() < 1e-9);
        assert!((merged.variance() - flat.variance()).abs() < 1e-9);
        assert!((strat.mean() - flat.mean()).abs() < 1e-9);
        assert_eq!(strat.count(), flat.count());
    }

    #[test]
    fn stratified_variance_drops_when_strata_separate_means() {
        // Values clustered by stratum: stratified se ≪ crude se.
        let mut strat = StratifiedSummary::equal_weights(4);
        let mut flat = Summary::new();
        let mut k = 0u64;
        for j in 0..4usize {
            for _ in 0..50 {
                // Base level 100·j plus small deterministic jitter.
                k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let jitter = (k >> 33) as f64 / u32::MAX as f64;
                let v = 100.0 * j as f64 + jitter;
                strat.push(j, v);
                flat.push(v);
            }
        }
        assert!(strat.std_err() < 0.1 * flat.std_err());
        assert!(strat.ci_half_width(0.95) < 0.1 * flat.ci_half_width(0.95));
    }

    #[test]
    fn neyman_allocation_is_deterministic_and_exhaustive() {
        let mut strat = StratifiedSummary::equal_weights(3);
        // Stratum σ ≈ 0, 1, 10 → allocation skews to stratum 2.
        for i in 0..10 {
            let x = i as f64;
            strat.push(0, 5.0);
            strat.push(1, x * 0.2);
            strat.push(2, x * 2.0);
        }
        let alloc = strat.neyman_allocation(32);
        assert_eq!(alloc.iter().sum::<usize>(), 32);
        assert!(alloc[2] > alloc[1] && alloc[1] > alloc[0]);
        assert_eq!(alloc, strat.neyman_allocation(32));
        // Pilot fallback: no variance yet → proportional split.
        let pilot = StratifiedSummary::equal_weights(4);
        assert_eq!(pilot.neyman_allocation(8), vec![2, 2, 2, 2]);
    }
}
