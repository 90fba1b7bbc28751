//! Per-run failure traces: when, where, and with how much warning.
//!
//! "The failure generation and prediction component uses the failure
//! distribution parameters to generate one of the failures along with its
//! prediction lead time ... For each failure generation, a node is
//! randomly selected from a uniform probability distribution" (Sec. III).
//!
//! A [`FailureTrace`] is everything one simulation run needs to know about
//! fate: the genuine failures (predicted or not) and the false-positive
//! predictions. Generating the trace up front — instead of lazily during
//! the simulation — keeps the C/R models free of RNG plumbing and lets
//! different models be compared on *identical* fault streams (variance
//! reduction for the model-vs-model comparisons in Figs. 6–8).

use crate::leadtime::LeadTimeModel;
use crate::predictor::{Prediction, Predictor};
use crate::system::FailureDistribution;
use pckpt_simrng::dist::{Distribution, Exponential};
use pckpt_simrng::SimRng;

/// How the system-wide failure process is projected onto the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Projection {
    /// Generate job-level Weibull inter-arrivals directly, with the scale
    /// adjusted by min-stability (`(N/c)^{1/k}`). Works for any job size,
    /// including jobs larger than the source system (the LANL
    /// distributions applied to Summit-scale jobs, Fig. 6b).
    #[default]
    MinStability,
    /// Generate system-wide arrivals and keep each with probability `c/N`
    /// (uniform node selection, the paper's literal procedure). Requires
    /// `c ≤ N`.
    Thinning,
}

/// Which node a failure lands on (extension; the paper assumes
/// uniform selection).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NodeSelection {
    /// "a node is randomly selected from a uniform probability
    /// distribution" (Sec. III).
    #[default]
    Uniform,
    /// Production machines show failure *locality*: a small set of
    /// repeat offenders accounts for a disproportionate share of events
    /// (cf. Doomsday's per-node prediction premise). `fraction` of the
    /// job's nodes are `weight`× likelier to fail than the rest.
    Hotspot {
        /// Fraction of nodes that are failure-prone, in (0, 1).
        fraction: f64,
        /// Relative failure weight of a hotspot node (> 1).
        weight: f64,
    },
}

impl NodeSelection {
    /// Picks a job-local node index in `0..n`.
    pub fn pick(&self, rng: &mut SimRng, n: u64) -> u32 {
        match *self {
            NodeSelection::Uniform => rng.below(n) as u32,
            NodeSelection::Hotspot { fraction, weight } => {
                assert!((0.0..1.0).contains(&fraction) && fraction > 0.0);
                assert!(weight > 1.0);
                let hot = ((n as f64 * fraction).ceil() as u64).clamp(1, n);
                let cold = n - hot;
                let hot_mass = hot as f64 * weight;
                let p_hot = hot_mass / (hot_mass + cold as f64);
                if rng.chance(p_hot) || cold == 0 {
                    // Hotspot nodes occupy the low indices.
                    rng.below(hot) as u32
                } else {
                    (hot + rng.below(cold)) as u32
                }
            }
        }
    }
}

/// Configuration of one trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Which system's failure process drives the run (Table III).
    pub distribution: FailureDistribution,
    /// Job size in nodes (`c` in the paper).
    pub job_nodes: u64,
    /// How far to generate, hours (≥ the application's total runtime
    /// including overheads — the C/R driver asks for a generous margin).
    pub horizon_hours: f64,
    /// Projection strategy.
    pub projection: Projection,
    /// Lead-time scaling factor for the variability experiments
    /// (Figs. 4/7/8): 1.5 = "+50 %", 0.5 = "−50 %".
    pub lead_scale: f64,
    /// Node-selection model (extension; defaults to the paper's uniform).
    pub node_selection: NodeSelection,
    /// Coefficient of variation of the *estimated* lead time around the
    /// actual one (extension; the paper assumes exact knowledge — "we
    /// consider the actual lead time of any failure during simulation").
    /// With noise, the C/R model *decides* on the estimate but the
    /// failure fires at the actual time, so an overestimate can make a
    /// live migration lose its race.
    pub lead_error_cv: f64,
}

impl TraceConfig {
    /// Titan-distribution defaults at reference lead times.
    pub fn new(distribution: FailureDistribution, job_nodes: u64, horizon_hours: f64) -> Self {
        assert!(job_nodes >= 1 && horizon_hours > 0.0);
        Self {
            distribution,
            job_nodes,
            horizon_hours,
            projection: Projection::MinStability,
            lead_scale: 1.0,
            node_selection: NodeSelection::Uniform,
            lead_error_cv: 0.0,
        }
    }

    /// Sets the node-selection model.
    pub fn with_node_selection(mut self, selection: NodeSelection) -> Self {
        self.node_selection = selection;
        self
    }

    /// Sets the lead-time estimation error (coefficient of variation;
    /// 0 = the paper's exact-knowledge assumption).
    pub fn with_lead_error(mut self, cv: f64) -> Self {
        assert!((0.0..=2.0).contains(&cv), "lead error CV out of range");
        self.lead_error_cv = cv;
        self
    }

    /// Sets the lead-time variability factor.
    pub fn with_lead_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "lead scale must be positive");
        self.lead_scale = scale;
        self
    }

    /// Sets the projection strategy.
    pub fn with_projection(mut self, projection: Projection) -> Self {
        self.projection = projection;
        self
    }

    /// The scale-invariant core of this configuration.
    ///
    /// `lead_scale` is a *pure per-event transform*: generation draws the
    /// raw lead from the mixture first and only the per-event view
    /// computes `usable_lead_secs(raw × scale)` (see
    /// [`FailureTrace::generate_into`] and [`TraceCore::instantiate_into`],
    /// which share both), so two configs that differ only in
    /// `lead_scale` consume **identical RNG draw sequences**. Campaign
    /// grids exploit this: cells with equal cores share one generated
    /// [`TraceCore`] and instantiate their own lead-scale view from it
    /// bit-identically (the paper's paired-trace variance reduction,
    /// extended across sweep points).
    pub fn scale_invariant(&self) -> TraceConfig {
        TraceConfig {
            lead_scale: 1.0,
            ..*self
        }
    }
}

/// One genuine failure in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Absolute failure time, hours into the run.
    pub time_hours: f64,
    /// Failing node, job-local index `0..job_nodes`.
    pub node: u32,
    /// The failure-chain sequence behind it.
    pub sequence_id: u32,
    /// Actual lead time (seconds) between prediction delivery and the
    /// failure — already scaled by `lead_scale` and net of inference
    /// latency.
    pub lead_secs: f64,
    /// The lead time the predictor *reports* (what the C/R model decides
    /// on). Equals `lead_secs` unless `lead_error_cv > 0`.
    pub est_lead_secs: f64,
    /// Whether the predictor actually announces it (false ⇒ false
    /// negative: the failure strikes unannounced).
    pub predicted: bool,
}

impl FailureEvent {
    /// The moment the prediction is delivered, hours (failure time minus
    /// lead). Meaningless if `!predicted`.
    pub fn prediction_time_hours(&self) -> f64 {
        (self.time_hours - self.lead_secs / 3600.0).max(0.0)
    }
}

/// Number of Bernoulli(`p`) trials up to and including the first success,
/// inverted from the single quantile `u`: `G = 1 + ⌊ln(1−u) / ln(1−p)⌋`.
///
/// This is the variance-reduction form of the thinning projection's
/// membership test: instead of one raw draw per system event ("is this
/// event in the job?"), one *uniform* decides how many system events pass
/// before the next in-job failure. Identical in law — in an i.i.d.
/// Bernoulli sequence the index of the next success is Geometric — but
/// the run's dominant noise now flows through an inversion-sampled
/// uniform, which antithetic reflection mirrors and a stratum remap can
/// confine. `u = 1` (reachable under reflection) saturates: the caller's
/// horizon check terminates the block.
fn geometric_trials(u: f64, p: f64) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    let g = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    (g as u64).saturating_add(1)
}

/// A complete fault stream for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureTrace {
    /// Genuine failures, ascending in time.
    pub failures: Vec<FailureEvent>,
    /// False-positive predictions, ascending in time.
    pub false_positives: Vec<Prediction>,
}

impl FailureTrace {
    /// Generates a trace.
    pub fn generate(
        config: &TraceConfig,
        leads: &LeadTimeModel,
        predictor: &Predictor,
        rng: &mut SimRng,
    ) -> Self {
        let mut trace = Self::default();
        trace.generate_into(config, leads, predictor, rng);
        trace
    }

    /// Regenerates this trace in place: clears and refills the failure and
    /// false-positive buffers, retaining their allocations, with exactly
    /// the same RNG draw sequence as [`generate`](Self::generate) — so a
    /// campaign worker recycling one trace across runs produces
    /// bit-identical streams to one constructing a fresh trace per run.
    ///
    /// The draws come from the routine [`TraceCore::generate_into`] uses;
    /// each is stored as its `config.lead_scale` view, through the
    /// per-event transform [`TraceCore::instantiate_into`] applies.
    pub fn generate_into(
        &mut self,
        config: &TraceConfig,
        leads: &LeadTimeModel,
        predictor: &Predictor,
        rng: &mut SimRng,
    ) {
        self.failures.clear();
        self.false_positives.clear();
        draw_trace(
            config,
            leads,
            predictor,
            rng,
            |f| self.failures.push(f.view(config, predictor)),
            |p| self.false_positives.push(p.view(config, predictor)),
        );
    }

    /// Count of genuine failures.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Count of predicted genuine failures.
    pub fn predicted_count(&self) -> usize {
        self.failures.iter().filter(|f| f.predicted).count()
    }
}

/// Draws one trace under `config` and hands each genuine failure, then
/// each false positive, to the caller as raw draws, in ascending time.
///
/// The one generation loop: [`FailureTrace::generate_into`] stores each
/// draw's lead-scale view, [`TraceCore::generate_into`] the draws
/// themselves, so direct and core traces are bit-identical by
/// construction. No draw depends on `config.lead_scale`.
#[inline]
fn draw_trace(
    config: &TraceConfig,
    leads: &LeadTimeModel,
    predictor: &Predictor,
    rng: &mut SimRng,
    mut failure: impl FnMut(CoreFailure),
    mut false_positive: impl FnMut(CoreFp),
) {
    let mut predicted = 0usize;
    let mut hand_over = |f: CoreFailure| {
        predicted += usize::from(f.predicted);
        failure(f);
    };
    // Variance-reduction structured path (see [`geometric_trials`]):
    // active when the stream is an antithetic pair member or carries
    // an armed stratum. Same law as the literal path; the default
    // path is untouched — every fixed-run digest depends on its
    // exact draw sequence.
    let vr = rng.paired() || rng.stratum_armed();
    let mut event: u64 = 0;
    match config.projection {
        Projection::MinStability => {
            let w = config.distribution.job_weibull(config.job_nodes);
            let mut t = 0.0;
            loop {
                t += w.sample(rng);
                if t >= config.horizon_hours {
                    break;
                }
                if vr {
                    // Attribute draws from a per-event substream keep
                    // the main stream's consumption unconditional, so
                    // a mirrored pair stays draw-aligned all horizon.
                    let mut sub = rng.split(event);
                    hand_over(CoreFailure::draw_vr(config, leads, predictor, &mut sub, t));
                } else {
                    hand_over(CoreFailure::draw(config, leads, predictor, rng, t, None));
                }
                event += 1;
            }
        }
        Projection::Thinning => {
            let n = config.distribution.system_nodes;
            assert!(
                config.job_nodes <= n,
                "thinning projection requires job_nodes ({}) ≤ system nodes ({n})",
                config.job_nodes
            );
            let w = config.distribution.system_weibull();
            let mut t = 0.0;
            if vr {
                // Geometric-block form: the count of system events up
                // to and including the next in-job one is
                // Geometric(c/N), inverted from ONE uniform — the
                // run's first uniform becomes the first-job-failure
                // quantile (what the stratum confines, and what
                // reflection mirrors). Identical law to the literal
                // per-event Bernoulli path below.
                let p = config.job_nodes as f64 / n as f64;
                'events: loop {
                    let g = geometric_trials(rng.uniform01(), p);
                    // Gaps live in the block's substream: the main
                    // stream consumes exactly one uniform per block,
                    // so pair members' j-th geometric quantiles stay
                    // positionally mirrored no matter where either
                    // run's horizon lands.
                    let mut sub = rng.split(event);
                    event += 1;
                    let mut gaps = sub.split(0);
                    for _ in 0..g {
                        t += w.sample(&mut gaps);
                        if t >= config.horizon_hours {
                            break 'events;
                        }
                    }
                    hand_over(CoreFailure::draw_vr(config, leads, predictor, &mut sub, t));
                }
            } else {
                loop {
                    t += w.sample(rng);
                    if t >= config.horizon_hours {
                        break;
                    }
                    // Uniform node over the whole system; in-job nodes
                    // keep the event. Under a non-uniform selection
                    // model the membership probability stays c/N but
                    // the job-local placement is re-drawn from the
                    // selection.
                    let node = rng.below(n);
                    if node < config.job_nodes {
                        let job_node = match config.node_selection {
                            NodeSelection::Uniform => node as u32,
                            sel => sel.pick(rng, config.job_nodes),
                        };
                        let node = Some(job_node);
                        hand_over(CoreFailure::draw(config, leads, predictor, rng, t, node));
                    }
                }
            }
        }
    }

    // False positives: a Poisson process whose expected count keeps
    // the configured share of all predictions false.
    let expected_fp = predicted as f64 * predictor.fp_per_true_prediction();
    if expected_fp > 0.0 {
        let gap = Exponential::from_rate(expected_fp / config.horizon_hours);
        let mut t = gap.sample(rng);
        while t < config.horizon_hours {
            let (sequence_id, raw_lead) = leads.sample(rng);
            false_positive(CoreFp {
                node: config.node_selection.pick(rng, config.job_nodes),
                at_hours: t,
                sequence_id,
                raw_lead,
            });
            t += gap.sample(rng);
        }
    }
}

/// One genuine failure before the lead-scale view is applied.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoreFailure {
    time_hours: f64,
    node: u32,
    sequence_id: u32,
    /// Raw mixture draw, before `× lead_scale` and the latency subtraction.
    raw_lead: f64,
    /// Estimation-noise factor (1.0 when `lead_error_cv == 0`).
    est_noise: f64,
    predicted: bool,
}

impl CoreFailure {
    /// The literal path's draws, all from the run's main stream: the node
    /// (unless the thinning projection already placed it), the mixture
    /// lead, the estimation noise when it is on, the prediction outcome.
    fn draw(
        config: &TraceConfig,
        leads: &LeadTimeModel,
        predictor: &Predictor,
        rng: &mut SimRng,
        time_hours: f64,
        node: Option<u32>,
    ) -> Self {
        let node = node.unwrap_or_else(|| config.node_selection.pick(rng, config.job_nodes));
        let (sequence_id, raw_lead) = leads.sample(rng);
        let est_noise = if config.lead_error_cv > 0.0 {
            pckpt_simrng::dist::LogNormal::from_mean_cv(1.0, config.lead_error_cv).sample(rng)
        } else {
            1.0
        };
        Self {
            time_hours,
            node,
            sequence_id,
            raw_lead,
            est_noise,
            predicted: predictor.predicts(rng),
        }
    }

    /// Variance-reduction variant of [`Self::draw`]: every attribute
    /// class draws from its own child of the event substream, so
    /// variable-length draws in one class (the lead-time mixture's
    /// rejection sampling, a multi-draw node selection) cannot shift the
    /// stream positions of the others. Across an antithetic pair this
    /// keeps each attribute of the j-th failure exactly mirrored — in
    /// particular the predicted flag, whose complement (`u < r` vs
    /// `u > 1 − r`) makes the pair's unpredicted-failure indicators
    /// disjoint for recall > ½.
    fn draw_vr(
        config: &TraceConfig,
        leads: &LeadTimeModel,
        predictor: &Predictor,
        sub: &mut SimRng,
        time_hours: f64,
    ) -> Self {
        let node = config.node_selection.pick(&mut sub.split(1), config.job_nodes);
        let mut lead_rng = sub.split(2);
        let (sequence_id, raw_lead) = leads.sample(&mut lead_rng);
        let est_noise = if config.lead_error_cv > 0.0 {
            pckpt_simrng::dist::LogNormal::from_mean_cv(1.0, config.lead_error_cv)
                .sample(&mut lead_rng)
        } else {
            1.0
        };
        Self {
            time_hours,
            node,
            sequence_id,
            raw_lead,
            est_noise,
            predicted: predictor.predicts(&mut sub.split(3)),
        }
    }

    /// The `config.lead_scale` view: `usable_lead_secs(raw × scale)`,
    /// then `(lead × noise).max(0)` as the estimate when estimation
    /// error is on.
    #[inline]
    fn view(&self, config: &TraceConfig, predictor: &Predictor) -> FailureEvent {
        let lead_secs = predictor.usable_lead_secs(self.raw_lead * config.lead_scale);
        let est_lead_secs = if config.lead_error_cv > 0.0 {
            (lead_secs * self.est_noise).max(0.0)
        } else {
            lead_secs
        };
        FailureEvent {
            time_hours: self.time_hours,
            node: self.node,
            sequence_id: self.sequence_id,
            lead_secs,
            est_lead_secs,
            predicted: self.predicted,
        }
    }
}

/// One false-positive prediction before the lead-scale view is applied.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoreFp {
    at_hours: f64,
    node: u32,
    sequence_id: u32,
    raw_lead: f64,
}

impl CoreFp {
    /// The `config.lead_scale` view: `usable_lead_secs(raw × scale)`.
    #[inline]
    fn view(&self, config: &TraceConfig, predictor: &Predictor) -> Prediction {
        Prediction {
            node: self.node,
            at_hours: self.at_hours,
            lead_secs: predictor.usable_lead_secs(self.raw_lead * config.lead_scale),
            sequence_id: self.sequence_id,
            genuine: false,
        }
    }
}

/// The scale-independent capture of one generated trace.
///
/// Everything `FailureTrace::generate_into` draws from the RNG is stored
/// *before* the lead-scale transform: failure times, nodes, sequence ids,
/// raw mixture leads, estimation-noise factors, predicted flags, and the
/// false-positive process. Any lead-scale view of the same core is then a
/// deterministic, RNG-free transform ([`instantiate_into`]
/// (Self::instantiate_into)) — bit-identical to generating the scaled
/// trace directly, because both go through one draw routine and one
/// per-event view, and `lead_scale` only ever appears as
/// `usable_lead_secs(raw × scale)` downstream of every draw.
///
/// This is what lets a campaign grid share one generation across an
/// entire lead-scale sweep (Figs. 4/7/8, Tables II/IV) while every cell
/// still sees exactly the trace it would have generated alone.
#[derive(Debug, Clone, Default)]
pub struct TraceCore {
    failures: Vec<CoreFailure>,
    false_positives: Vec<CoreFp>,
    /// The scale-invariant config this core was generated under (None
    /// until the first generation); instantiation debug-asserts against
    /// it so a core is never viewed through a non-scale-mate config.
    key: Option<TraceConfig>,
}

impl TraceCore {
    /// Regenerates this core in place, retaining buffer allocations.
    ///
    /// Consumes **exactly** the RNG draw sequence of
    /// [`FailureTrace::generate_into`] under `config` at *any*
    /// `lead_scale` — the draws are scale-independent (see
    /// [`TraceConfig::scale_invariant`]), so the RNG leaves in the same
    /// state and a downstream `rng.split(..)` stream is unaffected by
    /// whether the trace was generated directly or through a core.
    pub fn generate_into(
        &mut self,
        config: &TraceConfig,
        leads: &LeadTimeModel,
        predictor: &Predictor,
        rng: &mut SimRng,
    ) {
        self.failures.clear();
        self.false_positives.clear();
        self.key = Some(config.scale_invariant());
        draw_trace(
            config,
            leads,
            predictor,
            rng,
            |f| self.failures.push(f),
            |p| self.false_positives.push(p),
        );
    }

    /// Fills `out` with the `config.lead_scale` view of this core,
    /// retaining `out`'s allocations.
    ///
    /// Bit-identical to `FailureTrace::generate_into(config, ..)` over
    /// the same RNG stream: both apply the same per-event view to the
    /// same draws.
    pub fn instantiate_into(
        &self,
        config: &TraceConfig,
        predictor: &Predictor,
        out: &mut FailureTrace,
    ) {
        debug_assert_eq!(
            self.key.as_ref(),
            Some(&config.scale_invariant()),
            "a TraceCore may only be viewed through scale-mates of its generation config"
        );
        out.failures.clear();
        out.false_positives.clear();
        out.failures
            .extend(self.failures.iter().map(|f| f.view(config, predictor)));
        out.false_positives.extend(
            self.false_positives
                .iter()
                .map(|p| p.view(config, predictor)),
        );
    }

    /// Count of genuine failures captured in the core.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LeadTimeModel, Predictor) {
        (LeadTimeModel::desh_default(), Predictor::aarohi_default())
    }

    #[test]
    fn failure_rate_matches_distribution_min_stability() {
        let (leads, predictor) = setup();
        let dist = FailureDistribution::OLCF_TITAN;
        let cfg = TraceConfig::new(dist, 2272, 10_000.0);
        let mut rng = SimRng::seed_from(1);
        let mut total = 0usize;
        let runs = 40;
        for _ in 0..runs {
            total += FailureTrace::generate(&cfg, &leads, &predictor, &mut rng).failure_count();
        }
        let rate = total as f64 / (runs as f64 * 10_000.0);
        // Min-stability mean inter-arrival: scale·(N/c)^{1/k}·Γ(1+1/k).
        let expected = 1.0 / dist.job_weibull(2272).mean().unwrap();
        assert!(
            (rate - expected).abs() / expected < 0.1,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn thinning_rate_matches_c_over_n() {
        let (leads, predictor) = setup();
        let dist = FailureDistribution::OLCF_TITAN;
        let cfg = TraceConfig::new(dist, 9434, 5_000.0).with_projection(Projection::Thinning);
        let mut rng = SimRng::seed_from(2);
        let mut total = 0usize;
        let runs = 30;
        for _ in 0..runs {
            total += FailureTrace::generate(&cfg, &leads, &predictor, &mut rng).failure_count();
        }
        let rate = total as f64 / (runs as f64 * 5_000.0);
        // Half the system → half the system event rate.
        let expected = 0.5 / dist.system_mtbf_hours();
        assert!(
            (rate - expected).abs() / expected < 0.12,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "thinning projection requires")]
    fn thinning_rejects_oversized_jobs() {
        let (leads, predictor) = setup();
        let cfg = TraceConfig::new(FailureDistribution::LANL_SYSTEM_8, 2272, 100.0)
            .with_projection(Projection::Thinning);
        let mut rng = SimRng::seed_from(3);
        let _ = FailureTrace::generate(&cfg, &leads, &predictor, &mut rng);
    }

    #[test]
    fn predicted_fraction_tracks_recall() {
        let (leads, _) = setup();
        let predictor = Predictor::new(0.6, 0.0, 0.0);
        let cfg = TraceConfig::new(FailureDistribution::LANL_SYSTEM_18, 1024, 20_000.0);
        let mut rng = SimRng::seed_from(4);
        let trace = FailureTrace::generate(&cfg, &leads, &predictor, &mut rng);
        assert!(trace.failure_count() > 500, "need statistics");
        let frac = trace.predicted_count() as f64 / trace.failure_count() as f64;
        assert!((frac - 0.6).abs() < 0.05, "predicted fraction {frac}");
        assert!(trace.false_positives.is_empty(), "fp share 0 → none");
    }

    #[test]
    fn fp_share_is_respected() {
        let (leads, _) = setup();
        let predictor = Predictor::new(1.0, 0.18, 0.0);
        let cfg = TraceConfig::new(FailureDistribution::LANL_SYSTEM_18, 1024, 20_000.0);
        let mut rng = SimRng::seed_from(5);
        let trace = FailureTrace::generate(&cfg, &leads, &predictor, &mut rng);
        let genuine = trace.predicted_count() as f64;
        let fp = trace.false_positives.len() as f64;
        let share = fp / (fp + genuine);
        assert!((share - 0.18).abs() < 0.03, "fp share {share}");
        assert!(trace
            .false_positives
            .iter()
            .all(|p| !p.genuine && p.at_hours < 20_000.0));
    }

    #[test]
    fn lead_scaling_scales_leads() {
        let (leads, predictor) = setup();
        let base = TraceConfig::new(FailureDistribution::OLCF_TITAN, 2272, 30_000.0);
        let scaled = base.with_lead_scale(1.5);
        let mut rng1 = SimRng::seed_from(6);
        let mut rng2 = SimRng::seed_from(6);
        let t1 = FailureTrace::generate(&base, &leads, &predictor, &mut rng1);
        let t2 = FailureTrace::generate(&scaled, &leads, &predictor, &mut rng2);
        assert_eq!(t1.failure_count(), t2.failure_count(), "same seed, same events");
        for (a, b) in t1.failures.iter().zip(&t2.failures) {
            // usable_lead subtracts the 0.31 ms inference latency *after*
            // scaling, so allow that much slack.
            let latency = predictor.latency_secs();
            assert!((b.lead_secs - 1.5 * a.lead_secs).abs() < 2.0 * latency + 1e-9);
        }
    }

    #[test]
    fn failures_ascend_and_land_inside_job() {
        let (leads, predictor) = setup();
        let cfg = TraceConfig::new(FailureDistribution::OLCF_TITAN, 505, 50_000.0);
        let mut rng = SimRng::seed_from(7);
        let trace = FailureTrace::generate(&cfg, &leads, &predictor, &mut rng);
        assert!(trace
            .failures
            .windows(2)
            .all(|w| w[0].time_hours <= w[1].time_hours));
        assert!(trace.failures.iter().all(|f| f.node < 505));
        assert!(trace.failures.iter().all(|f| f.time_hours < 50_000.0));
    }

    #[test]
    fn hotspot_selection_concentrates_failures() {
        let sel = NodeSelection::Hotspot {
            fraction: 0.1,
            weight: 10.0,
        };
        let mut rng = SimRng::seed_from(8);
        let n = 1000u64;
        let hot_count = 100u64;
        let draws = 100_000;
        let hot_hits = (0..draws)
            .filter(|_| (sel.pick(&mut rng, n) as u64) < hot_count)
            .count();
        // Hot mass: 100·10 / (100·10 + 900) = 1000/1900 ≈ 0.526.
        let frac = hot_hits as f64 / draws as f64;
        assert!((frac - 0.526).abs() < 0.01, "hot fraction {frac}");
        // Uniform stays uniform.
        let uni = NodeSelection::Uniform;
        let uni_hits = (0..draws)
            .filter(|_| (uni.pick(&mut rng, n) as u64) < hot_count)
            .count();
        let ufrac = uni_hits as f64 / draws as f64;
        assert!((ufrac - 0.1).abs() < 0.01, "uniform fraction {ufrac}");
    }

    #[test]
    fn hotspot_traces_remain_well_formed_and_uniform_is_unchanged() {
        let (leads, predictor) = setup();
        let base = TraceConfig::new(FailureDistribution::OLCF_TITAN, 505, 10_000.0);
        // Uniform must be bit-identical with and without the explicit
        // default (regression: adding the extension must not perturb the
        // RNG stream of existing experiments).
        let mut r1 = SimRng::seed_from(3);
        let mut r2 = SimRng::seed_from(3);
        let a = FailureTrace::generate(&base, &leads, &predictor, &mut r1);
        let b = FailureTrace::generate(
            &base.with_node_selection(NodeSelection::Uniform),
            &leads,
            &predictor,
            &mut r2,
        );
        assert_eq!(a, b);
        // Hotspot traces stay valid and actually concentrate.
        let hot_cfg = base.with_node_selection(NodeSelection::Hotspot {
            fraction: 0.05,
            weight: 20.0,
        });
        let mut r3 = SimRng::seed_from(4);
        let t = FailureTrace::generate(&hot_cfg, &leads, &predictor, &mut r3);
        assert!(t.failures.iter().all(|f| (f.node as u64) < 505));
        if t.failure_count() >= 20 {
            let hot_cut = (505.0f64 * 0.05).ceil() as u32;
            let hot = t.failures.iter().filter(|f| f.node < hot_cut).count();
            assert!(
                hot as f64 / t.failure_count() as f64 > 0.25,
                "hotspots must attract failures"
            );
        }
    }

    #[test]
    fn generate_into_matches_generate_and_reuses_buffers() {
        let (leads, predictor) = setup();
        let cfg_a = TraceConfig::new(FailureDistribution::OLCF_TITAN, 505, 5_000.0);
        let cfg_b = TraceConfig::new(FailureDistribution::LANL_SYSTEM_18, 1024, 2_000.0)
            .with_projection(Projection::Thinning);
        let mut reused = FailureTrace::default();
        for (i, cfg) in [cfg_a, cfg_b, cfg_a].iter().enumerate() {
            let seed = 100 + i as u64;
            let mut r1 = SimRng::seed_from(seed);
            let mut r2 = SimRng::seed_from(seed);
            let fresh = FailureTrace::generate(cfg, &leads, &predictor, &mut r1);
            reused.generate_into(cfg, &leads, &predictor, &mut r2);
            assert_eq!(fresh, reused, "identical draws for config {i}");
            assert_eq!(
                r1.uniform01().to_bits(),
                r2.uniform01().to_bits(),
                "RNGs left in the same state"
            );
        }
    }

    /// The run streams the campaign runner derives: plain, both members
    /// of an antithetic pair (as `vr_run_rng` sets them up) and a stream
    /// armed with a stratum — the last three take the VR draw path.
    fn run_streams(seed: u64) -> [SimRng; 4] {
        let pair_member = |reflected: bool| {
            let mut r = SimRng::seed_from(seed);
            r.set_inverse_normals(true);
            r.set_paired(true);
            r.set_reflected(reflected);
            r
        };
        let mut stratified = SimRng::seed_from(seed);
        stratified.set_next_stratum(1, 4);
        [
            SimRng::seed_from(seed),
            pair_member(false),
            pair_member(true),
            stratified,
        ]
    }

    #[test]
    fn core_instantiation_is_bit_identical_to_direct_generation() {
        // For every projection, noise setting, lead scale and run stream
        // (literal and VR draw paths): generating a TraceCore and
        // instantiating a scale view must (a) consume the exact RNG
        // stream of direct generation and (b) reproduce the direct trace
        // bit-for-bit.
        let (leads, predictor) = setup();
        let configs = [
            TraceConfig::new(FailureDistribution::OLCF_TITAN, 505, 5_000.0),
            TraceConfig::new(FailureDistribution::OLCF_TITAN, 2272, 2_000.0)
                .with_projection(Projection::Thinning),
            TraceConfig::new(FailureDistribution::LANL_SYSTEM_18, 1024, 3_000.0)
                .with_lead_error(0.4),
            TraceConfig::new(FailureDistribution::LANL_SYSTEM_8, 40, 20_000.0)
                .with_projection(Projection::Thinning)
                .with_node_selection(NodeSelection::Hotspot {
                    fraction: 0.1,
                    weight: 5.0,
                }),
        ];
        let mut core = TraceCore::default();
        let mut view = FailureTrace::default();
        for (i, base) in configs.iter().enumerate() {
            for (j, scale) in [1.5, 1.1, 1.0, 0.9, 0.5].iter().enumerate() {
                let cfg = base.with_lead_scale(*scale);
                let seed = 1000 + (i * 10 + j) as u64;
                let streams = run_streams(seed).into_iter().zip(run_streams(seed));
                for (k, (mut r1, mut r2)) in streams.enumerate() {
                    let direct = FailureTrace::generate(&cfg, &leads, &predictor, &mut r1);
                    // Generate the core under a *different* scale-mate of
                    // the same config — the draws must not depend on the
                    // scale.
                    core.generate_into(&base.with_lead_scale(2.0), &leads, &predictor, &mut r2);
                    core.instantiate_into(&cfg, &predictor, &mut view);
                    assert_eq!(direct, view, "config {i} scale {scale} stream {k}");
                    assert_eq!(
                        r1.uniform01().to_bits(),
                        r2.uniform01().to_bits(),
                        "config {i} scale {scale} stream {k}: RNGs must leave in the same state"
                    );
                }
            }
        }
    }

    #[test]
    fn vr_streams_take_their_own_draw_path() {
        // The equivalence above covers the VR path only if these streams
        // actually leave the literal one.
        let (leads, predictor) = setup();
        for projection in [Projection::MinStability, Projection::Thinning] {
            let cfg = TraceConfig::new(FailureDistribution::OLCF_TITAN, 2272, 5_000.0)
                .with_projection(projection);
            let [mut plain, vr @ ..] = run_streams(77);
            let literal = FailureTrace::generate(&cfg, &leads, &predictor, &mut plain);
            assert!(literal.failure_count() > 0, "{projection:?}: need failures");
            for (k, mut r) in vr.into_iter().enumerate() {
                let t = FailureTrace::generate(&cfg, &leads, &predictor, &mut r);
                assert_ne!(t, literal, "{projection:?} VR stream {k}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scale-mates")]
    fn core_rejects_non_scale_mate_views() {
        let (leads, predictor) = setup();
        let a = TraceConfig::new(FailureDistribution::OLCF_TITAN, 505, 2_000.0);
        let b = TraceConfig::new(FailureDistribution::OLCF_TITAN, 1024, 2_000.0);
        let mut core = TraceCore::default();
        let mut rng = SimRng::seed_from(9);
        core.generate_into(&a, &leads, &predictor, &mut rng);
        let mut out = FailureTrace::default();
        core.instantiate_into(&b, &predictor, &mut out);
    }

    #[test]
    fn scale_invariant_normalizes_only_the_lead_scale() {
        let cfg = TraceConfig::new(FailureDistribution::OLCF_TITAN, 505, 2_000.0)
            .with_lead_scale(1.5)
            .with_lead_error(0.3)
            .with_projection(Projection::Thinning);
        let core = cfg.scale_invariant();
        assert_eq!(core.lead_scale, 1.0);
        assert_eq!(core, cfg.with_lead_scale(0.5).scale_invariant());
        // Everything else participates in the key.
        assert_ne!(core, cfg.with_lead_error(0.0).scale_invariant());
    }

    #[test]
    fn prediction_time_never_negative() {
        let f = FailureEvent {
            time_hours: 0.001, // failure 3.6 s in, lead 60 s
            node: 0,
            sequence_id: 1,
            lead_secs: 60.0,
            est_lead_secs: 60.0,
            predicted: true,
        };
        assert_eq!(f.prediction_time_hours(), 0.0);
    }
}
