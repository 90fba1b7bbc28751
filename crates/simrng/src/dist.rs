//! Probability distributions.
//!
//! Everything the simulation draws — Weibull failure inter-arrivals
//! (Table III of the paper), truncated-normal per-sequence lead times
//! (Fig. 2a), uniform node selection — goes through the [`Distribution`]
//! trait so that models can be parameterized over distribution families
//! (e.g. the robustness experiments of Observation 7 swap the failure
//! distribution without touching the C/R models).

use crate::rng::SimRng;

/// A real-valued distribution sampled with a [`SimRng`].
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, if it exists in closed form.
    ///
    /// Used for analytic cross-checks (e.g. deriving the failure rate λ for
    /// Young's formula from a Weibull's mean inter-arrival time).
    fn mean(&self) -> Option<f64> {
        None
    }

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut SimRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Lanczos approximation of the gamma function Γ(x) for x > 0.
///
/// Needed for Weibull moments: `E[X] = scale · Γ(1 + 1/shape)`. Accurate to
/// ~1e-13 over the range used here (validated in tests against known
/// values).
pub fn gamma_fn(x: f64) -> f64 {
    assert!(x > 0.0, "gamma_fn requires x > 0, got {x}");
    // g = 7, n = 9 Lanczos coefficients.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Weibull distribution with the (shape, scale) parameterization of
/// Table III in the paper.
///
/// Sampled by inversion: `scale · (−ln U)^(1/shape)`.
///
/// ```
/// use pckpt_simrng::{Distribution, SimRng, Weibull};
///
/// // OLCF Titan's system-wide failure process (Table III): mean time
/// // between failures ≈ 7 hours.
/// let titan = Weibull::new(0.6885, 5.4527);
/// assert!((titan.mean().unwrap() - 7.0).abs() < 0.1);
/// let mut rng = SimRng::seed_from(42);
/// assert!(titan.sample(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Shape parameter k (k < 1 ⇒ infant-mortality-style burstiness, as on
    /// all three systems in Table III).
    pub shape: f64,
    /// Scale parameter λ (same unit as the samples, hours in the paper).
    pub scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution. Panics if either parameter is not
    /// strictly positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "Weibull parameters must be > 0");
        Self { shape, scale }
    }

    /// Survival function `P(X > t)`.
    pub fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            1.0
        } else {
            (-(t / self.scale).powf(self.shape)).exp()
        }
    }

    /// Cumulative distribution function `P(X ≤ t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        1.0 - self.survival(t)
    }

    /// Projects this distribution onto a subsystem carrying `factor` of the
    /// failure sources, using Weibull min-stability.
    ///
    /// If the system-wide time-between-failures is Weibull(k, λ) for `N`
    /// i.i.d. nodes, each node's is Weibull(k, λ·N^(1/k)) (the minimum of
    /// `n` i.i.d. Weibulls is Weibull with scale divided by n^(1/k)), and a
    /// job spanning `c` nodes sees Weibull(k, λ·(N/c)^(1/k)). Pass
    /// `factor = c/N`. The mean inter-arrival therefore grows by
    /// `(N/c)^(1/k)`, *not* by `N/c` — shape < 1 makes small jobs suffer
    /// relatively more early failures than naive rate thinning predicts.
    pub fn rate_scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "rate factor must be > 0");
        Self {
            shape: self.shape,
            scale: self.scale / factor.powf(1.0 / self.shape),
        }
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform01_open();
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.scale * gamma_fn(1.0 + 1.0 / self.shape))
    }
}

/// Exponential distribution with the given mean (inverse rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Mean of the distribution (1/λ).
    pub mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean` (> 0).
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "Exponential mean must be > 0");
        Self { mean }
    }

    /// Creates an exponential distribution with rate `rate` (> 0).
    pub fn from_rate(rate: f64) -> Self {
        Self::new(1.0 / rate)
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.uniform01_open().ln()
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Normal distribution sampled with the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean μ.
    pub mu: f64,
    /// Standard deviation σ (> 0).
    pub sigma: f64,
}

impl Normal {
    /// Creates a normal distribution. Panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "Normal sigma must be > 0");
        Self { mu, sigma }
    }

    /// Draws a standard-normal variate.
    ///
    /// Box–Muller by default (two uniforms; the historical transform every
    /// fixed-run digest depends on). When the stream has
    /// [`SimRng::set_inverse_normals`] set — the antithetic
    /// variance-reduction mode — it switches to the single-uniform inverse
    /// CDF `Φ⁻¹(u)`: Box–Muller's `cos(2πu₂)` is even around `u₂ = ½`, so
    /// reflecting the uniforms would leave the deviate's magnitude
    /// structure intact instead of negating it, defeating the pairing.
    /// `Φ⁻¹(1 − u) = −Φ⁻¹(u)` exactly.
    pub fn standard(rng: &mut SimRng) -> f64 {
        if rng.inverse_normals() {
            return norm_inv_cdf(rng.uniform01_open());
        }
        // Box–Muller; we use only one of the pair for simplicity — the
        // samplers here are nowhere near the simulation's critical path.
        let u1 = rng.uniform01_open();
        let u2 = rng.uniform01();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Standard-normal CDF `Φ(z)` via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * ax);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-ax * ax).exp();
    let signed = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + signed)
}

/// Standard-normal inverse CDF `Φ⁻¹(p)` (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over `(0, 1)`).
///
/// This is the transform behind the antithetic normal path: it is oddly
/// symmetric, `Φ⁻¹(1 − p) = −Φ⁻¹(p)`, so reflecting the driving uniform
/// negates the deviate exactly. Returns ±∞ at the endpoints.
pub fn norm_inv_cdf(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "norm_inv_cdf domain is [0, 1]");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - P_LOW {
        // Tail symmetry keeps the two tails bit-exact mirrors of each
        // other, which the antithetic pairing tests rely on.
        -norm_inv_cdf(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * Self::standard(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Log-normal distribution: `exp(Normal(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log-scale location).
    pub mu: f64,
    /// Standard deviation of the underlying normal (> 0).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution. Panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "LogNormal sigma must be > 0");
        Self { mu, sigma }
    }

    /// Constructs the log-normal that has the given *linear-scale* mean and
    /// coefficient of variation.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv > 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        Self {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }
}

/// Normal distribution truncated to `[lo, ∞)` by rejection.
///
/// Used for the per-failure-sequence lead-time distributions (Fig. 2a):
/// lead times are concentrated around their sequence mean with light tails
/// ("most failures are bounded by the whiskers") and are never negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    inner: Normal,
    lo: f64,
}

impl TruncatedNormal {
    /// Creates a normal(mu, sigma) truncated below at `lo`.
    ///
    /// Panics if the untruncated mass above `lo` would be vanishingly small
    /// (mu more than 8σ below lo), which would make rejection sampling
    /// pathological.
    pub fn new(mu: f64, sigma: f64, lo: f64) -> Self {
        assert!(
            mu - lo > -8.0 * sigma,
            "truncation point {lo} is too far above mean {mu}"
        );
        Self {
            inner: Normal::new(mu, sigma),
            lo,
        }
    }

    /// Lower truncation bound.
    pub fn lower_bound(&self) -> f64 {
        self.lo
    }

    /// Location parameter of the untruncated normal.
    pub fn mu(&self) -> f64 {
        self.inner.mu
    }

    /// Scale parameter of the untruncated normal.
    pub fn sigma(&self) -> f64 {
        self.inner.sigma
    }
}

impl Distribution for TruncatedNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        loop {
            let x = self.inner.sample(rng);
            if x >= self.lo {
                return x;
            }
        }
    }
    // mean() intentionally omitted: the truncated mean involves the normal
    // CDF and is not needed anywhere; tests use sample means instead.
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`. Panics if `hi <= lo`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "Uniform requires hi > lo");
        Self { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.uniform01()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.lo + self.hi) / 2.0)
    }
}

/// Point mass: always returns the same value.
///
/// Handy for ablations that replace a stochastic input with its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    /// The constant value returned by every draw.
    pub value: f64,
}

impl Deterministic {
    /// Creates a point-mass distribution at `value`.
    pub fn new(value: f64) -> Self {
        Self { value }
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }

    fn mean(&self) -> Option<f64> {
        Some(self.value)
    }
}

/// Weighted discrete choice over indices `0..weights.len()`.
///
/// Sampling is O(log n) via a cumulative-weight table.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Builds a discrete distribution from non-negative weights (not
    /// necessarily normalized). Panics if no weight is positive.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "Discrete requires at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "at least one weight must be positive");
        Self { cumulative }
    }

    /// Draws an index in `0..len` with probability proportional to its
    /// weight.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.uniform01() * total;
        // partition_point returns the first index whose cumulative weight
        // exceeds x; zero-weight entries can never be selected because their
        // cumulative value equals their predecessor's.
        self.cumulative.partition_point(|&c| c <= x).min(self.cumulative.len() - 1)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there are no categories (never the case post-construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

/// Mixture of component distributions with given weights.
///
/// The Fig. 2a lead-time model is a mixture of ten truncated normals, one
/// per failure-chain sequence, weighted by the sequences' occurrence
/// counts.
pub struct Mixture {
    components: Vec<Box<dyn Distribution + Send + Sync>>,
    weights: Vec<f64>,
    selector: Discrete,
}

impl Mixture {
    /// Builds a mixture. Panics if `components` and `weights` differ in
    /// length or the weights are all zero.
    pub fn new(components: Vec<Box<dyn Distribution + Send + Sync>>, weights: Vec<f64>) -> Self {
        assert_eq!(
            components.len(),
            weights.len(),
            "one weight per component required"
        );
        let selector = Discrete::new(&weights);
        Self {
            components,
            weights,
            selector,
        }
    }

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the mixture has no components (never post-construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Draws `(component index, sample)` — callers that need to attribute a
    /// sample to its generating component (e.g. tagging a failure with its
    /// chain sequence) use this instead of [`Distribution::sample`].
    pub fn sample_tagged(&self, rng: &mut SimRng) -> (usize, f64) {
        let idx = self.selector.sample_index(rng);
        (idx, self.components[idx].sample(rng))
    }
}

impl Distribution for Mixture {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_tagged(rng).1
    }

    fn mean(&self) -> Option<f64> {
        let total: f64 = self.weights.iter().sum();
        let mut acc = 0.0;
        for (c, &w) in self.components.iter().zip(&self.weights) {
            acc += w * c.mean()?;
        }
        Some(acc / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(0xDEC0DE)
    }

    fn sample_mean(dist: &impl Distribution, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| dist.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        // Γ(1.5) = √π/2
        assert!((gamma_fn(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
    }

    #[test]
    fn weibull_mean_matches_analytic() {
        // Titan parameters from Table III.
        let w = Weibull::new(0.6885, 5.4527);
        let analytic = w.mean().unwrap();
        let empirical = sample_mean(&w, 200_000);
        assert!(
            (empirical - analytic).abs() / analytic < 0.02,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn weibull_survival_consistency() {
        let w = Weibull::new(0.8, 10.0);
        let mut r = rng();
        let n = 100_000;
        let t = 12.0;
        let above = (0..n).filter(|_| w.sample(&mut r) > t).count() as f64 / n as f64;
        assert!((above - w.survival(t)).abs() < 0.01);
        assert!((w.cdf(t) + w.survival(t) - 1.0).abs() < 1e-12);
        assert_eq!(w.survival(0.0), 1.0);
        assert_eq!(w.survival(-5.0), 1.0);
    }

    #[test]
    fn weibull_rate_scaling_scales_mean_inversely() {
        let sys = Weibull::new(0.6885, 5.4527);
        // A job on 2272 of 18868 nodes: min-stability gives scale (and
        // hence mean) scaled by (N/c)^(1/shape).
        let job = sys.rate_scaled(2272.0 / 18868.0);
        let ratio = job.mean().unwrap() / sys.mean().unwrap();
        let expected = (18868.0f64 / 2272.0).powf(1.0 / 0.6885);
        assert!(
            (ratio - expected).abs() / expected < 1e-9,
            "mean must scale by (N/c)^(1/k) = {expected}, got ratio {ratio}"
        );
        assert_eq!(job.shape, sys.shape);
    }

    #[test]
    fn exponential_mean() {
        let e = Exponential::new(4.0);
        let m = sample_mean(&e, 200_000);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
        assert_eq!(Exponential::from_rate(0.25).mean, 4.0);
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_mean_and_positivity() {
        let d = LogNormal::from_mean_cv(50.0, 0.5);
        let m = sample_mean(&d, 200_000);
        assert!((m - 50.0).abs() / 50.0 < 0.02, "mean {m}");
        let mut r = rng();
        assert!((0..10_000).all(|_| d.sample(&mut r) > 0.0));
    }

    #[test]
    fn truncated_normal_respects_bound() {
        let d = TruncatedNormal::new(5.0, 10.0, 1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 1.0);
        }
        // With a bound far below the mean, behaves like the plain normal.
        let d2 = TruncatedNormal::new(100.0, 5.0, 0.0);
        let m = sample_mean(&d2, 100_000);
        assert!((m - 100.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "too far above mean")]
    fn truncated_normal_rejects_pathological_truncation() {
        let _ = TruncatedNormal::new(0.0, 1.0, 100.0);
    }

    #[test]
    fn uniform_range_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((2.0..6.0).contains(&x));
        }
        assert_eq!(d.mean(), Some(4.0));
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.5);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 3.5);
        assert_eq!(d.mean(), Some(3.5));
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[1.0, 0.0, 3.0]);
        let mut r = rng();
        let n = 100_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[d.sample_index(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category must never be drawn");
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.25).abs() < 0.01, "frac0 {frac0}");
    }

    #[test]
    fn mixture_mean_is_weighted_average() {
        let mix = Mixture::new(
            vec![
                Box::new(Deterministic::new(10.0)),
                Box::new(Deterministic::new(20.0)),
            ],
            vec![3.0, 1.0],
        );
        assert_eq!(mix.mean(), Some(12.5));
        let m = sample_mean(&mix, 100_000);
        assert!((m - 12.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn mixture_tagging_matches_component() {
        let mix = Mixture::new(
            vec![
                Box::new(Deterministic::new(1.0)),
                Box::new(Deterministic::new(2.0)),
            ],
            vec![1.0, 1.0],
        );
        let mut r = rng();
        for _ in 0..1000 {
            let (idx, x) = mix.sample_tagged(&mut r);
            assert_eq!(x, (idx + 1) as f64);
        }
    }

    #[test]
    fn norm_inv_cdf_known_quantiles() {
        assert_eq!(norm_inv_cdf(0.5), 0.0);
        for (p, z) in [
            (0.975, 1.959_963_985),
            (0.95, 1.644_853_627),
            (0.995, 2.575_829_304),
            (0.841_344_746, 1.0),
            (0.1, -1.281_551_566),
            (0.001, -3.090_232_306),
        ] {
            let got = norm_inv_cdf(p);
            assert!((got - z).abs() < 1e-6, "Φ⁻¹({p}) = {got}, want {z}");
        }
        assert_eq!(norm_inv_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_inv_cdf(1.0), f64::INFINITY);
    }

    #[test]
    fn norm_inv_cdf_is_oddly_symmetric_bitwise() {
        // Exact antisymmetry is what makes reflection negate deviates.
        // (p = 0.5 maps to ±0.0 — same value, different sign bit — so the
        // midpoint is skipped by the bitwise comparison.)
        for k in (1..512u64).filter(|&k| k != 256) {
            let p = k as f64 / 512.0;
            assert_eq!(
                norm_inv_cdf(1.0 - p).to_bits(),
                (-norm_inv_cdf(p)).to_bits(),
                "asymmetry at p = {p}"
            );
        }
    }

    #[test]
    fn norm_inv_cdf_roundtrips_through_normal_cdf() {
        for k in 1..100 {
            let p = k as f64 / 100.0;
            let back = normal_cdf(norm_inv_cdf(p));
            assert!((back - p).abs() < 2e-7, "Φ(Φ⁻¹({p})) = {back}");
        }
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-8);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-5);
    }

    #[test]
    fn inverse_normal_mode_matches_box_muller_distribution() {
        // Same marginal, different transform: compare moments.
        let mut bm = rng();
        let mut inv = rng();
        inv.set_inverse_normals(true);
        let n = 100_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        let (mut t1, mut t2) = (0.0, 0.0);
        for _ in 0..n {
            let a = Normal::standard(&mut bm);
            let b = Normal::standard(&mut inv);
            s1 += a;
            s2 += a * a;
            t1 += b;
            t2 += b * b;
        }
        let nf = n as f64;
        assert!((s1 / nf).abs() < 0.02 && (t1 / nf).abs() < 0.02);
        assert!((s2 / nf - 1.0).abs() < 0.03 && (t2 / nf - 1.0).abs() < 0.03);
    }

    #[test]
    fn reflected_inverse_normals_negate_exactly() {
        let mut a = rng();
        let mut b = rng();
        a.set_inverse_normals(true);
        b.set_inverse_normals(true);
        b.set_reflected(true);
        for _ in 0..1000 {
            let x = Normal::standard(&mut a);
            let y = Normal::standard(&mut b);
            assert_eq!(x.to_bits(), (-y).to_bits(), "{x} vs {y}");
        }
    }
}
