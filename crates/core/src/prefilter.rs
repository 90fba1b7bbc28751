//! The analytic pre-filter: answering grid cells from Eqs. (4)–(8)
//! instead of simulating them.
//!
//! A grid cell asks a question; for many cells that question is the
//! paper's crossover question — *does p-ckpt beat live migration here?*
//! — and Observation 8's closed form answers it directly from (α, σ).
//! The pre-filter recognizes such cells, computes σ from the cell's own
//! lead-time model, predictor and θ (exactly as the simulator's Eq. (2)
//! machinery would), and asks the margin-aware
//! [`crossover_verdict`](pckpt_analysis::analytic::crossover_verdict). Only
//! cells the analytic model cannot decide *confidently* — inside the
//! margin band around the threshold curves, or in the σ guard band where
//! the printed and exact Eq. (8) forms disagree — are simulated.
//!
//! # Soundness
//!
//! The grid engine's equivalence contract (see [`run_grid`]) guarantees
//! every cell's aggregate is bit-identical to a standalone campaign
//! *regardless of which other cells share the grid*. Removing pruned
//! cells from the simulated set therefore cannot change a surviving
//! cell's results by a single bit — pinned by the prefilter digest
//! oracle in `tests/grid_equivalence.rs`.
//!
//! # Conservatism
//!
//! The filter only prunes cells whose model set is exactly a crossover
//! comparison (`P1` and `M2` present, nothing beyond `B`/`M2`/`P1`), and
//! only when the analytic clearance exceeds the configured margin. Cells
//! with hybrid models (`P2`), safeguard checkpointing (`M1`), or any
//! non-comparison shape always simulate.
//!
//! [`run_grid`]: crate::runner::run_grid

use pckpt_analysis::analytic::{crossover_verdict, Crossing};
use pckpt_failure::LeadTimeModel;

use crate::config::ModelKind;
use crate::oci;
use crate::runner::GridCell;

/// Default relative α-margin required before the filter trusts an
/// analytic verdict: the cell's α must clear the threshold curve by 15 %
/// in the direction of the verdict. Wide enough to absorb the
/// analytic-vs-simulated verdict gap measured in
/// `tests/grid_equivalence.rs` (the paper-shape agreement check), narrow
/// enough to prune the bulk of a crossover sweep.
pub const DEFAULT_MARGIN: f64 = 0.15;

/// What the analytic tier concluded about one grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticVerdict {
    /// `true` → p-ckpt wins the crossover (Eq. 4/7 with margin);
    /// `false` → live migration wins.
    pub pckpt_wins: bool,
    /// The σ the verdict was computed from (Eq. 2's accuracy-aware
    /// avoidable-failure fraction for this cell's θ and predictor).
    pub sigma: f64,
    /// The α the verdict was computed from (the cell's
    /// `lm_transfer_factor`).
    pub alpha: f64,
    /// Relative distance from α to the deciding threshold curve — how
    /// far past the margin the cell sits (≥ the configured margin by
    /// construction).
    pub clearance: f64,
}

/// Configuration of the analytic pre-filter: the opt-in tier of
/// [`run_grid_filtered`] that `PCKPT_PREFILTER=analytic[:margin]` turns
/// on in the binaries that read it.
///
/// [`run_grid_filtered`]: crate::runner::run_grid_filtered
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prefilter {
    /// Relative α-margin a verdict must clear (see [`DEFAULT_MARGIN`]).
    pub margin: f64,
}

impl Default for Prefilter {
    fn default() -> Self {
        Self::new(DEFAULT_MARGIN)
    }
}

impl Prefilter {
    /// A pre-filter with an explicit margin (≥ 0; 0 trusts the raw
    /// analytic crossover with no safety band).
    pub fn new(margin: f64) -> Self {
        assert!(
            margin.is_finite() && margin >= 0.0,
            "prefilter margin must be finite and non-negative, got {margin}"
        );
        Self { margin }
    }

    /// Parses a `PCKPT_PREFILTER` value: empty or `off` → `Some(None)`
    /// (simulate everything, the default); `analytic` → the default
    /// margin; `analytic:<margin>` → a finite, non-negative margin.
    /// `None` for anything else.
    pub fn parse(spec: &str) -> Option<Option<Self>> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" {
            return Some(None);
        }
        if spec == "analytic" {
            return Some(Some(Self::default()));
        }
        let margin: f64 = spec.strip_prefix("analytic:")?.trim().parse().ok()?;
        (margin.is_finite() && margin >= 0.0).then(|| Some(Self::new(margin)))
    }

    /// Renders this filter as a `PCKPT_PREFILTER` value that
    /// [`Self::parse`] maps back to an equal filter (`f64`'s `Display`
    /// round-trips exactly); cell and campaign fingerprints render it,
    /// so a cached cell binds to the filter it was pruned under.
    pub fn spec(&self) -> String {
        format!("analytic:{}", self.margin)
    }

    /// The analytic answer for `cell`, if the filter can decide it
    /// confidently: `None` → simulate (not a crossover cell, σ in the
    /// guard band, or inside the margin band around the threshold).
    pub fn cell_verdict(&self, cell: &GridCell, leads: &LeadTimeModel) -> Option<AnalyticVerdict> {
        if !crossover_cell(cell) {
            return None;
        }
        let p = &cell.params;
        let sigma = oci::sigma(leads, &p.predictor, p.theta_secs(), p.lead_scale);
        let alpha = p.lm_transfer_factor;
        match crossover_verdict(alpha, sigma, self.margin) {
            Crossing::Pckpt { clearance } => Some(AnalyticVerdict {
                pckpt_wins: true,
                sigma,
                alpha,
                clearance,
            }),
            Crossing::Lm { clearance } => Some(AnalyticVerdict {
                pckpt_wins: false,
                sigma,
                alpha,
                clearance,
            }),
            Crossing::Uncertain => None,
        }
    }
}

/// Is `cell` exactly the paper's crossover comparison — p-ckpt vs live
/// migration (optionally with the B baseline alongside)?
///
/// Both contenders must be present (a lone `P1` or lone `M2` cell asks
/// an absolute-overhead question the crossover algebra does not answer)
/// and no model outside `{B, M2, P1}` may ride along (`M1`'s safeguard
/// writes and `P2`'s hybrid scheduling are outside Observation 8's
/// model).
fn crossover_cell(cell: &GridCell) -> bool {
    let has = |m: ModelKind| cell.models.contains(&m);
    has(ModelKind::P1)
        && has(ModelKind::M2)
        && cell
            .models
            .iter()
            .all(|&m| matches!(m, ModelKind::B | ModelKind::M2 | ModelKind::P1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use pckpt_workloads::Application;

    fn cell(app: &str, models: &[ModelKind]) -> GridCell {
        let params = SimParams::paper_defaults(ModelKind::B, Application::by_name(app).unwrap());
        GridCell::new(params, models)
    }

    const CROSSOVER: &[ModelKind] = &[ModelKind::B, ModelKind::M2, ModelKind::P1];

    #[test]
    fn parse_accepts_the_documented_grammar() {
        assert_eq!(Prefilter::parse(""), Some(None));
        assert_eq!(Prefilter::parse("off"), Some(None));
        assert_eq!(Prefilter::parse(" off "), Some(None));
        assert_eq!(
            Prefilter::parse("analytic"),
            Some(Some(Prefilter::new(DEFAULT_MARGIN)))
        );
        assert_eq!(
            Prefilter::parse("analytic:0.3"),
            Some(Some(Prefilter::new(0.3)))
        );
        assert_eq!(
            Prefilter::parse("analytic:0"),
            Some(Some(Prefilter::new(0.0)))
        );
    }

    #[test]
    fn parse_rejects_typos_and_bad_margins() {
        for bad in [
            "analytics",
            "analytic:lots",
            "analytic:-1",
            "analytic:NaN",
            "analytic:inf",
        ] {
            assert_eq!(Prefilter::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn non_crossover_cells_always_simulate() {
        let pf = Prefilter::default();
        let leads = LeadTimeModel::desh_default();
        // Missing one contender, hybrid riding along, safeguard riding
        // along, single model: all simulate.
        for models in [
            vec![ModelKind::B, ModelKind::P1],
            vec![ModelKind::B, ModelKind::M2],
            vec![ModelKind::B, ModelKind::M2, ModelKind::P1, ModelKind::P2],
            vec![ModelKind::M1, ModelKind::M2, ModelKind::P1],
            vec![ModelKind::P1],
        ] {
            let c = cell("CHIMERA", &models);
            assert_eq!(pf.cell_verdict(&c, &leads), None, "{models:?}");
        }
    }

    #[test]
    fn chimera_crossover_is_decided_for_pckpt() {
        // CHIMERA at the paper default α = 3: σ ≈ 0.5, printed threshold
        // ≈ 1.24, exact ≈ 2.41 — α clears the higher curve by ~24 %.
        let pf = Prefilter::default();
        let leads = LeadTimeModel::desh_default();
        let v = pf
            .cell_verdict(&cell("CHIMERA", CROSSOVER), &leads)
            .expect("CHIMERA at alpha=3 is analytically decidable");
        assert!(v.pckpt_wins);
        assert!(v.clearance >= DEFAULT_MARGIN);
        assert!(v.sigma > 0.3 && v.sigma < 0.61, "sigma = {}", v.sigma);
        assert!((v.alpha - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pop_crossover_is_decided_for_lm() {
        // POP's θ is tiny → σ hits the 0.90 cap, far above SIGMA_MAX:
        // LM avoids essentially every failure and wins outright.
        let pf = Prefilter::default();
        let leads = LeadTimeModel::desh_default();
        let v = pf
            .cell_verdict(&cell("POP", CROSSOVER), &leads)
            .expect("POP is analytically decidable");
        assert!(!v.pckpt_wins);
        assert!(v.sigma > 0.61, "sigma = {}", v.sigma);
    }

    #[test]
    fn margin_widening_turns_decisions_into_simulations() {
        // CHIMERA clears the exact threshold by ~24 %; a 50 % margin
        // must push it back into the simulated set.
        let leads = LeadTimeModel::desh_default();
        let c = cell("CHIMERA", CROSSOVER);
        assert!(Prefilter::new(0.15).cell_verdict(&c, &leads).is_some());
        assert_eq!(Prefilter::new(0.50).cell_verdict(&c, &leads), None);
    }
}
