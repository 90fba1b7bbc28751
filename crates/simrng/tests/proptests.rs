//! Property-based tests of the statistics and distribution layer.

use proptest::prelude::*;

use pckpt_simrng::dist::gamma_fn;
use pckpt_simrng::{
    BoxPlot, Discrete, Distribution, Exponential, LogNormal, Quantiles, SimRng,
    Summary, TruncatedNormal, Uniform, Weibull,
};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..=max_len)
}

proptest! {
    /// Welford summaries agree with naive two-pass computation.
    #[test]
    fn summary_matches_naive(values in finite_vec(200)) {
        let s = Summary::from_slice(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        if values.len() > 1 {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        }
        prop_assert_eq!(s.min(), values.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), values.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging any split of a sequence reproduces the sequential summary.
    #[test]
    fn summary_merge_is_split_invariant(values in finite_vec(200), split in 0usize..200) {
        let split = split.min(values.len());
        let seq = Summary::from_slice(&values);
        let mut a = Summary::from_slice(&values[..split]);
        let b = Summary::from_slice(&values[split..]);
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() <= 1e-6 * (1.0 + seq.mean().abs()));
        prop_assert!((a.variance() - seq.variance()).abs() <= 1e-4 * (1.0 + seq.variance()));
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantiles_monotone(values in finite_vec(100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let q = Quantiles::new(&values);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        prop_assert!(q.quantile(lo) <= q.quantile(hi) + 1e-12);
        prop_assert!(q.quantile(0.0) <= q.quantile(lo));
        prop_assert!(q.quantile(hi) <= q.quantile(1.0));
    }

    /// Box-plot invariants. Note: with interpolated quantiles and tiny
    /// samples, a whisker can land *inside* the box (q3 above the largest
    /// non-outlier), so the orderings asserted here are only the ones
    /// that hold universally: quartile ordering, whisker ordering,
    /// whiskers drawn at actual observations inside the fences, outliers
    /// strictly outside them.
    #[test]
    fn boxplot_invariants(values in finite_vec(100)) {
        let b = BoxPlot::new(&values);
        prop_assert!(b.q1 <= b.median + 1e-12);
        prop_assert!(b.median <= b.q3 + 1e-12);
        prop_assert!(b.whisker_lo <= b.whisker_hi + 1e-12);
        let lo_fence = b.q1 - 1.5 * b.iqr();
        let hi_fence = b.q3 + 1.5 * b.iqr();
        let eps = 1e-9 * (1.0 + b.iqr().abs() + b.median.abs());
        prop_assert!(b.whisker_lo >= lo_fence - eps);
        prop_assert!(b.whisker_hi <= hi_fence + eps);
        // Whiskers are actual observations.
        prop_assert!(values.iter().any(|&v| (v - b.whisker_lo).abs() < 1e-9));
        prop_assert!(values.iter().any(|&v| (v - b.whisker_hi).abs() < 1e-9));
        for &o in &b.outliers {
            prop_assert!(o < lo_fence + eps || o > hi_fence - eps);
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(b.mean >= lo - 1e-9 && b.mean <= hi + 1e-9);
        prop_assert!(b.outliers.len() < values.len().max(1));
    }

    /// Weibull CDF/survival form a valid pair and sampling stays positive.
    #[test]
    fn weibull_cdf_survival(shape in 0.2f64..5.0, scale in 0.01f64..1e4, t in 0.0f64..1e5, seed in any::<u64>()) {
        let w = Weibull::new(shape, scale);
        prop_assert!((w.cdf(t) + w.survival(t) - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&w.cdf(t)));
        let mut rng = SimRng::seed_from(seed);
        prop_assert!(w.sample(&mut rng) > 0.0);
    }

    /// Min-stability rate scaling: shape preserved, survival ordering —
    /// a subsystem (factor < 1) survives longer at any t.
    #[test]
    fn weibull_rate_scaling_orders_survival(
        shape in 0.3f64..3.0,
        scale in 0.1f64..100.0,
        factor in 0.01f64..1.0,
        t in 0.01f64..1e3,
    ) {
        let sys = Weibull::new(shape, scale);
        let sub = sys.rate_scaled(factor);
        prop_assert_eq!(sub.shape, sys.shape);
        prop_assert!(sub.survival(t) >= sys.survival(t) - 1e-12);
    }

    /// Gamma function: recurrence Γ(x+1) = x·Γ(x).
    #[test]
    fn gamma_recurrence(x in 0.05f64..20.0) {
        let lhs = gamma_fn(x + 1.0);
        let rhs = x * gamma_fn(x);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * rhs.abs().max(1.0));
    }

    /// Samplers stay within their supports.
    #[test]
    fn support_bounds(seed in any::<u64>(), lo in -100.0f64..100.0, width in 0.1f64..100.0) {
        let mut rng = SimRng::seed_from(seed);
        let u = Uniform::new(lo, lo + width);
        for _ in 0..100 {
            let x = u.sample(&mut rng);
            prop_assert!(x >= lo && x < lo + width);
        }
        let e = Exponential::new(width);
        prop_assert!(e.sample(&mut rng) >= 0.0);
        let ln = LogNormal::new(0.0, 1.0);
        prop_assert!(ln.sample(&mut rng) > 0.0);
        let tn = TruncatedNormal::new(lo, width, lo);
        prop_assert!(tn.sample(&mut rng) >= lo);
    }

    /// Discrete never selects a zero-weight category.
    #[test]
    fn discrete_zero_weights_never_drawn(
        weights in proptest::collection::vec(0.0f64..10.0, 2..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let d = Discrete::new(&weights);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..200 {
            let idx = d.sample_index(&mut rng);
            prop_assert!(weights[idx] > 0.0, "drew zero-weight index {idx}");
        }
    }

    /// Split streams are deterministic functions of (seed, index).
    #[test]
    fn split_streams_reproducible(seed in any::<u64>(), index in 0u64..1000) {
        let m1 = SimRng::seed_from(seed);
        let m2 = SimRng::seed_from(seed);
        let mut a = m1.split(index);
        let mut b = m2.split(index);
        for _ in 0..16 {
            prop_assert_eq!(a.next_raw(), b.next_raw());
        }
    }
}
