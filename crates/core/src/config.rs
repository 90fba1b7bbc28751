//! Model selection and simulation parameters.

use pckpt_failure::generator::NodeSelection;
use pckpt_failure::{FailureDistribution, Predictor, Projection};
use pckpt_ioperf::IoHierarchy;
use pckpt_workloads::Application;

use crate::oci::SigmaPolicy;

/// Cross-job background PFS traffic (extension).
///
/// Section IV of the paper assumes "the aggregate bandwidth of a job is
/// not affected by the I/O traffic generated by other running
/// applications for now", noting that congestion "will add more overhead
/// for the non-frequent and failure prediction driven proactive
/// checkpoints (safeguard and p-ckpt) as they checkpoint to the PFS
/// directly, but not for the asynchronous periodic checkpoints". This
/// model makes that discussion executable: during every *synchronous*
/// PFS operation (safeguard commits, p-ckpt phases, recovery reads) the
/// job only receives a fraction of its bandwidth, drawn per operation;
/// BB writes and the asynchronous drain are unaffected (the drain is
/// latency-insensitive — it slips into idle windows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundTraffic {
    /// Mean fraction of PFS bandwidth left to the job during a
    /// synchronous operation, in (0, 1].
    pub mean_share: f64,
    /// Half-width of the uniform jitter around `mean_share` (the share
    /// is clamped to stay within (0.05, 1]).
    pub jitter: f64,
}

impl BackgroundTraffic {
    /// A congestion model leaving on average `mean_share` of the
    /// bandwidth, ± `jitter`.
    pub fn new(mean_share: f64, jitter: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&mean_share) && mean_share > 0.0,
            "mean share must be in (0, 1]"
        );
        assert!((0.0..=0.5).contains(&jitter), "jitter must be in [0, 0.5]");
        Self { mean_share, jitter }
    }

    /// Draws the bandwidth share for one synchronous PFS operation.
    pub fn sample_share(&self, rng: &mut pckpt_simrng::SimRng) -> f64 {
        let u = rng.uniform01() * 2.0 - 1.0;
        (self.mean_share + u * self.jitter).clamp(0.05, 1.0)
    }
}

/// How a p-ckpt round schedules its writers — the knobs behind the
/// protocol ablations (`exp_ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinationPolicy {
    /// The paper's protocol: healthy nodes wait; vulnerable nodes commit
    /// one at a time, shortest lead first, each with contention-free PFS
    /// access.
    #[default]
    Prioritized,
    /// Ablation: vulnerable nodes are served in arrival (FIFO) order
    /// instead of by lead time. Coordination still exists (phase
    /// separation), but urgency is ignored.
    FifoQueue,
    /// Ablation: no coordination at all — on a prediction, *all* nodes
    /// write to the PFS together (the vulnerable node gets only its
    /// 1/n share of the aggregate bandwidth, as in safeguard
    /// checkpointing). This removes exactly the paper's contribution and
    /// should collapse large-app FT ratios toward M1's.
    Uncoordinated,
}

/// Which C/R model to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Base model: periodic checkpointing only, predictions ignored.
    B,
    /// Safeguard checkpointing (Bouguerra et al.): on prediction, all
    /// nodes commit to the PFS just-in-time.
    M1,
    /// Live-migration C/R (Behera et al. 2020): migrate the vulnerable
    /// process when the lead time allows.
    M2,
    /// p-ckpt: coordinated prioritized checkpointing (this paper).
    P1,
    /// Hybrid p-ckpt: LM preferred, p-ckpt when leads are short (this
    /// paper).
    P2,
}

impl ModelKind {
    /// All five models in the paper's presentation order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::B,
        ModelKind::M1,
        ModelKind::M2,
        ModelKind::P1,
        ModelKind::P2,
    ];

    /// Display name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::B => "B",
            ModelKind::M1 => "M1",
            ModelKind::M2 => "M2",
            ModelKind::P1 => "P1",
            ModelKind::P2 => "P2",
        }
    }

    /// The model whose display name is `name` (case-insensitive), if
    /// any — the inverse of [`Self::name`] for CLI and recipe parsing.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL
            .iter()
            .copied()
            .find(|m| m.name().eq_ignore_ascii_case(name.trim()))
    }

    /// Does the model react to failure predictions at all?
    pub fn uses_prediction(&self) -> bool {
        !matches!(self, ModelKind::B)
    }

    /// Does the model use live migration?
    pub fn uses_lm(&self) -> bool {
        matches!(self, ModelKind::M2 | ModelKind::P2)
    }

    /// Does the model's OCI account for LM-avoided failures (Eq. 2)?
    pub fn oci_uses_sigma(&self) -> bool {
        self.uses_lm()
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one simulated run needs to know besides its RNG seed.
///
/// `PartialEq` is derived (field-wise, bit-exact for floats) so the grid
/// runner can recognize cells whose simulations are provably identical;
/// every float field is positivity- or range-asserted in [`validate`]
/// (Self::validate), so the `-0.0 == 0.0` quirk of float equality cannot
/// make two behaviourally different configs compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Which C/R model to run.
    pub model: ModelKind,
    /// The application (Table I row).
    pub app: Application,
    /// Storage hierarchy and interconnect.
    pub io: IoHierarchy,
    /// Failure process (Table III row).
    pub distribution: FailureDistribution,
    /// How the system process maps onto the job.
    pub projection: Projection,
    /// Predictor quality (recall / FP share / latency).
    pub predictor: Predictor,
    /// Lead-time scaling factor (the ±50 % experiments); 1.0 = reference.
    pub lead_scale: f64,
    /// LM transfer volume as a multiple of the per-process checkpoint
    /// size (α; the paper's default is 3, swept in Fig. 6c).
    pub lm_transfer_factor: f64,
    /// Pre-copy inefficiency of live migration: effective LM duration =
    /// transfer time × this factor (dirty pages are retransmitted while
    /// the application keeps running; cf. Wang et al.). Calibrated so
    /// M2's FT ratios reproduce Table II.
    pub lm_precopy_factor: f64,
    /// Application slowdown while an LM is in progress (paper: 0.08–2.98 %
    /// measured by Wang et al.; we default to 1 %).
    pub lm_slowdown: f64,
    /// DRAM per node, bytes — the LM transfer bound ("bounded by RAM
    /// size (512 GB)").
    pub dram_per_node: f64,
    /// How many nodes drain BB → PFS concurrently ("the asynchronous
    /// bleed off is optimized by limiting the number of nodes that
    /// transfer data to the PFS at any time").
    pub drain_concurrency: u64,
    /// Delay to bring a replacement node into the job, seconds.
    pub replacement_delay_secs: f64,
    /// Window of the dynamic failure-rate estimator, hours.
    pub rate_window_hours: f64,
    /// Refresh the OCI from the windowed failure-rate estimate at every
    /// periodic checkpoint ("updated periodically ... to better account
    /// for a dynamically changing system failure rate", Sec. III). Turn
    /// off for ablations: with a static OCI an extra failure can never
    /// shorten a run, with the adaptive one it occasionally can (the
    /// estimator learns the burst faster).
    pub dynamic_oci: bool,
    /// How Eq. (2)'s σ is estimated: the paper's lead-time-only form
    /// (default) or the accuracy-aware future-work variant.
    pub sigma_policy: SigmaPolicy,
    /// p-ckpt round scheduling (ablations).
    pub coordination: CoordinationPolicy,
    /// Cross-job background PFS traffic (extension; `None` = the paper's
    /// assumption of an unshared file system). See [`BackgroundTraffic`].
    pub background_traffic: Option<BackgroundTraffic>,
    /// Failure-node selection (extension; the paper's model is uniform).
    pub node_selection: NodeSelection,
    /// Lead-time estimation error (coefficient of variation; extension —
    /// the paper assumes the predictor reports the exact lead). The C/R
    /// model decides on the noisy estimate; failures fire on schedule.
    pub lead_error_cv: f64,
    /// PFS timing model: closed-form durations (the paper's approach) or
    /// fluid-flow sharing where overlapping operations contend
    /// (extension). Fluid mode ignores `background_traffic` (validated).
    pub pfs_mode: crate::iosim::PfsMode,
    /// Trace generation horizon multiplier over the ideal compute time
    /// (overheads extend the run past `compute_hours`).
    pub horizon_factor: f64,
}

impl SimParams {
    /// Paper-default parameters for `model` × `app` under the Titan
    /// failure distribution on the Summit I/O hierarchy.
    pub fn paper_defaults(model: ModelKind, app: Application) -> Self {
        Self::with_distribution(model, app, FailureDistribution::OLCF_TITAN)
    }

    /// Paper defaults under an explicit failure distribution (Fig. 6b/6c).
    ///
    /// The projection follows the paper's literal procedure — thin the
    /// system-wide process by uniform node selection — whenever the job
    /// fits inside the source system; for the LANL distributions applied
    /// to Summit-scale jobs (where c > N) it falls back to Weibull
    /// min-stability rate scaling (see `pckpt-failure`).
    pub fn with_distribution(
        model: ModelKind,
        app: Application,
        distribution: FailureDistribution,
    ) -> Self {
        let projection = if app.nodes <= distribution.system_nodes {
            Projection::Thinning
        } else {
            Projection::MinStability
        };
        Self {
            model,
            app,
            io: IoHierarchy::summit(),
            distribution,
            projection,
            predictor: Predictor::aarohi_default(),
            lead_scale: 1.0,
            lm_transfer_factor: 3.0,
            lm_precopy_factor: 1.45,
            lm_slowdown: 0.01,
            dram_per_node: 512.0e9,
            drain_concurrency: 512,
            replacement_delay_secs: 30.0,
            rate_window_hours: 500.0,
            dynamic_oci: true,
            sigma_policy: SigmaPolicy::LeadTimeOnly,
            coordination: CoordinationPolicy::Prioritized,
            background_traffic: None,
            node_selection: NodeSelection::Uniform,
            lead_error_cv: 0.0,
            pfs_mode: crate::iosim::PfsMode::Analytic,
            horizon_factor: 6.0,
        }
    }

    /// Checkpoint bytes per node.
    pub fn per_node_bytes(&self) -> f64 {
        self.app.checkpoint_per_node()
    }

    /// Bytes live migration must move: α × per-process checkpoint,
    /// bounded by DRAM.
    pub fn lm_bytes(&self) -> f64 {
        (self.lm_transfer_factor * self.per_node_bytes()).min(self.dram_per_node)
    }

    /// Effective live-migration duration θ, seconds (transfer over the
    /// NIC times the pre-copy factor).
    pub fn theta_secs(&self) -> f64 {
        self.io.net.transfer_secs(self.lm_bytes()) * self.lm_precopy_factor
    }

    /// Synchronous BB checkpoint write time, seconds.
    pub fn bb_write_secs(&self) -> f64 {
        self.io.bb.write_secs(self.per_node_bytes())
    }

    /// Validates internal consistency (checkpoint fits BB/DRAM, positive
    /// rates). Panics with a descriptive message on violation.
    pub fn validate(&self) {
        assert!(
            self.io.bb.fits(self.per_node_bytes()),
            "{}: per-node checkpoint exceeds the burst buffer",
            self.app.name
        );
        assert!(
            self.per_node_bytes() <= self.dram_per_node,
            "{}: per-node checkpoint exceeds DRAM",
            self.app.name
        );
        assert!(self.lead_scale > 0.0 && self.lm_transfer_factor > 0.0);
        assert!(self.lm_precopy_factor >= 1.0);
        assert!((0.0..1.0).contains(&self.lm_slowdown));
        assert!(self.drain_concurrency >= 1);
        assert!(self.replacement_delay_secs >= 0.0);
        assert!(self.horizon_factor >= 1.5, "horizon must exceed runtime");
        assert!(
            !(self.pfs_mode == crate::iosim::PfsMode::Fluid
                && self.background_traffic.is_some()),
            "fluid PFS mode and the background-traffic model are mutually exclusive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chimera() -> Application {
        Application::by_name("CHIMERA").unwrap()
    }

    #[test]
    fn model_capability_flags() {
        assert!(!ModelKind::B.uses_prediction());
        assert!(!ModelKind::M1.uses_lm());
        assert!(ModelKind::M2.uses_lm());
        assert!(!ModelKind::P1.uses_lm());
        assert!(ModelKind::P2.uses_lm());
        assert!(ModelKind::P2.oci_uses_sigma() && !ModelKind::P1.oci_uses_sigma());
        assert_eq!(ModelKind::ALL.len(), 5);
        assert_eq!(format!("{}", ModelKind::P2), "P2");
    }

    #[test]
    fn lm_bytes_capped_by_dram() {
        let p = SimParams::paper_defaults(ModelKind::P2, chimera());
        // 3 × 284.5 GB > 512 GB → capped.
        assert_eq!(p.lm_bytes(), 512.0e9);
        let pop = SimParams::paper_defaults(
            ModelKind::P2,
            Application::by_name("POP").unwrap(),
        );
        // 3 × 0.81 GB ≈ 2.44 GB < 512 GB → uncapped.
        assert!((pop.lm_bytes() - 3.0 * pop.per_node_bytes()).abs() < 1.0);
    }

    #[test]
    fn theta_matches_calibration() {
        // CHIMERA: 512 GB (DRAM-capped) / 12.5 GB/s × 1.45 ≈ 59.4 s —
        // calibrated so M2's FT ratio lands at Table II's ≈0.47.
        let p = SimParams::paper_defaults(ModelKind::M2, chimera());
        let theta = p.theta_secs();
        assert!((theta - 59.4).abs() < 0.5, "theta = {theta}");
        // XGC: 296 GB (uncapped) → ≈34 s, giving Table II's ≈0.6 band.
        let xgc = SimParams::paper_defaults(ModelKind::M2, Application::by_name("XGC").unwrap());
        let tx = xgc.theta_secs();
        assert!((tx - 34.4).abs() < 1.0, "theta_xgc = {tx}");
    }

    #[test]
    fn bb_write_time_chimera() {
        let p = SimParams::paper_defaults(ModelKind::B, chimera());
        // 284.5 GB at 2.1 GB/s ≈ 135 s.
        assert!((p.bb_write_secs() - 135.5).abs() < 1.0);
    }

    #[test]
    fn defaults_validate_for_all_apps_and_models() {
        for app in &pckpt_workloads::TABLE_I {
            for model in ModelKind::ALL {
                SimParams::paper_defaults(model, *app).validate();
            }
        }
    }
}
