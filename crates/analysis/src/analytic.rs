//! The analytical LM-vs-p-ckpt model (Observation 8, Eqs. 4–8).
//!
//! Definitions, following the paper:
//!
//! * σ — fraction of failures LM can avoid (predicted, lead > θ);
//! * β — fraction of failures p-ckpt can mitigate;
//! * α — ratio of LM's transfer volume to the checkpoint size.
//!
//! LM reduces *checkpoint* overhead (Eq. 2 stretches the interval by
//! `1/√(1−σ)`, so the overhead falls by `1 − √(1−σ)`, Eq. 5); p-ckpt
//! reduces *recomputation* overhead more (it handles shorter leads, so
//! β > σ). p-ckpt wins overall when its extra recomputation savings exceed
//! LM's checkpoint savings (Eq. 4):
//!
//! ```text
//! ckpt_B · (1 − √(1−σ))  <  recomp_B · (β − σ)          (4)+(5)
//! β = (α − 1 + σ) / α                                    (6)
//! ```
//!
//! *Transcription note:* the paper prints Eq. (6) with denominator 2; we
//! implement the `/α` form. The derivation and justification live in
//! DESIGN.md §14.1 (the single canonical reference for this discrepancy).
//!
//! Assuming the base overhead splits half/half between recomputation and
//! checkpointing, Eq. (4) simplifies to the threshold of Eq. (8):
//!
//! ```text
//! α > (σ + 1) / (σ + √(1−σ))                             (8)
//! ```

/// Upper bound on σ for the analytical model's validity: the combined LM
/// reduction cannot exceed the base recomputation overhead (Sec. VII).
pub const SIGMA_MAX: f64 = 0.61;

/// Bisection iterations of [`break_even_sigma`]: 80 halvings of
/// `[0, SIGMA_MAX)` reach f64 resolution with margin, and a fixed count
/// keeps the root bit-stable across hosts.
const BISECT_ITERS: usize = 80;

/// Eq. (6): the failure fraction p-ckpt can mitigate, given α and σ.
pub fn beta_pckpt(alpha: f64, sigma: f64) -> f64 {
    assert!(
        alpha >= 1.0,
        "alpha below 1 means LM moves less than a checkpoint"
    );
    assert!((0.0..1.0).contains(&sigma));
    ((alpha - 1.0 + sigma) / alpha).clamp(0.0, 1.0)
}

/// Eq. (5): LM's fractional reduction of checkpoint overhead,
/// `1 − √(1−σ)`.
pub fn lm_ckpt_reduction(sigma: f64) -> f64 {
    assert!((0.0..1.0).contains(&sigma));
    1.0 - (1.0 - sigma).sqrt()
}

/// Eq. (4)/(7): does p-ckpt beat LM overall?
///
/// `recomp_to_ckpt_ratio` is `recomp_B / ckpt_B` of the base model
/// (Eq. 8 assumes 1).
pub fn pckpt_beats_lm(alpha: f64, sigma: f64, recomp_to_ckpt_ratio: f64) -> bool {
    assert!(recomp_to_ckpt_ratio > 0.0);
    lm_ckpt_reduction(sigma) < recomp_to_ckpt_ratio * (beta_pckpt(alpha, sigma) - sigma)
}

/// Eq. (8) **as printed in the paper**: `α > (σ+1)/(σ+√(1−σ))`, yielding
/// the stated band α ∈ \[1.04, 1.30) over 0 ≤ σ < 0.61. Only meaningful
/// for `sigma < SIGMA_MAX`.
///
/// ```
/// use pckpt_analysis::alpha_threshold;
/// // At the validity boundary the paper's band tops out near 1.30.
/// assert!((alpha_threshold(0.60) - 1.298).abs() < 0.01);
/// assert!((alpha_threshold(0.0) - 1.0).abs() < 1e-12);
/// ```
///
/// Note: this printed formula is *not* the exact solution of Eqs. (4)–(6)
/// under the 50/50 overhead split — see [`alpha_threshold_exact`] for the
/// derivable threshold. We reproduce both: the paper's closed form (its
/// reported 1.04–1.30 band follows from it) and the exact algebra (whose
/// validity bound `√(1−σ) > σ ⇔ σ < 0.618` is evidently where the paper's
/// σ < 0.61 constraint comes from). EXPERIMENTS.md records the
/// discrepancy.
pub fn alpha_threshold(sigma: f64) -> f64 {
    assert!(
        (0.0..SIGMA_MAX).contains(&sigma),
        "Eq. 8 is valid for 0 <= sigma < {SIGMA_MAX}"
    );
    (sigma + 1.0) / (sigma + (1.0 - sigma).sqrt())
}

/// The exact α threshold solving Eq. (4) with Eqs. (5)–(6) and a 50/50
/// overhead split:
///
/// ```text
/// 1 − √(1−σ) < (α−1+σ)/α − σ   ⇔   α > (1−σ) / (√(1−σ) − σ)
/// ```
///
/// Valid while `√(1−σ) > σ`, i.e. `σ < (√5−1)/2 ≈ 0.618`.
pub fn alpha_threshold_exact(sigma: f64) -> f64 {
    let root = (1.0 - sigma).sqrt();
    assert!(
        root > sigma,
        "exact threshold requires sigma < 0.618, got {sigma}"
    );
    (1.0 - sigma) / (root - sigma)
}

/// α ↦ break-even σ: the σ at which a workload with LM transfer factor α
/// sits exactly on the exact threshold, found by fixed-count bisection of
/// [`alpha_threshold_exact`] (strictly increasing) over `[0, SIGMA_MAX)`.
/// `None` when α is outside that curve's range over the band: below
/// α*(0) = 1, or not below its value just inside `SIGMA_MAX`.
pub fn break_even_sigma(alpha: f64) -> Option<f64> {
    let (mut lo, mut hi) = (0.0, SIGMA_MAX);
    let top = alpha_threshold_exact(SIGMA_MAX - SIGMA_MAX * 1e-12);
    if !(alpha_threshold_exact(lo) <= alpha && alpha < top) {
        return None;
    }
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        if alpha_threshold_exact(mid) > alpha {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// σ-guard around [`SIGMA_MAX`]: no analytic verdict is issued within
/// this distance of the validity boundary, on either side. The guard
/// absorbs both the printed-vs-exact model disagreement near the bound
/// and σ-estimation sensitivity (σ is a survival-function value; near
/// the boundary a small lead-model perturbation flips the comparison).
pub const SIGMA_GUARD: f64 = 0.04;

/// A margin-aware analytic answer to the P1-vs-M2 crossover question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crossing {
    /// p-ckpt (P1) beats LM (M2) with the stated relative clearance from
    /// **every** crossover surface (printed and exact threshold).
    Pckpt {
        /// Relative distance of α above the farther threshold.
        clearance: f64,
    },
    /// LM (M2) beats p-ckpt (P1) with the stated clearance — either α
    /// clears both thresholds from below, or σ exceeds the validity
    /// bound by more than [`SIGMA_GUARD`] (beyond it LM's checkpoint
    /// savings exceed anything p-ckpt can recoup; the convention
    /// `exp_analytical` has always printed).
    Lm {
        /// Relative α clearance below the nearer threshold, or the σ
        /// excess beyond `SIGMA_MAX` for out-of-band cells.
        clearance: f64,
    },
    /// Inside the margin of some surface, or α outside Eq. (6)'s domain
    /// — the analytic model abstains; simulate this cell.
    Uncertain,
}

/// Answers "does p-ckpt (P1) beat LM (M2)?" analytically, with a safety
/// margin, under the Eq. (8) 50/50 overhead split.
///
/// The verdict is only `Pckpt`/`Lm` when α clears **both** threshold
/// surfaces — the printed Eq. (8) and the exact algebra — by the given
/// relative `margin` on the same side, and σ stays [`SIGMA_GUARD`] away
/// from the `SIGMA_MAX` validity boundary. Anything closer, and any
/// α < 1 (where Eq. (6) is undefined), returns [`Crossing::Uncertain`]:
/// the caller must fall back to simulation.
pub fn crossover_verdict(alpha: f64, sigma: f64, margin: f64) -> Crossing {
    assert!(sigma >= 0.0, "sigma is a probability");
    assert!(margin >= 0.0);
    if alpha.is_nan() || alpha < 1.0 {
        return Crossing::Uncertain;
    }
    if sigma >= SIGMA_MAX {
        let excess = sigma - SIGMA_MAX;
        return if excess >= SIGMA_GUARD {
            Crossing::Lm { clearance: excess }
        } else {
            Crossing::Uncertain
        };
    }
    if sigma > SIGMA_MAX - SIGMA_GUARD {
        return Crossing::Uncertain;
    }
    let printed = alpha_threshold(sigma);
    let exact = alpha_threshold_exact(sigma);
    let lo = printed.min(exact);
    let hi = printed.max(exact);
    if alpha >= hi * (1.0 + margin) {
        Crossing::Pckpt {
            clearance: alpha / hi - 1.0,
        }
    } else if alpha <= lo * (1.0 - margin) {
        Crossing::Lm {
            clearance: 1.0 - alpha / lo,
        }
    } else {
        Crossing::Uncertain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_limits() {
        // α = 1: LM moves exactly one checkpoint's worth → β = σ (no
        // p-ckpt advantage in coverage).
        assert!((beta_pckpt(1.0, 0.3) - 0.3).abs() < 1e-12);
        // α → ∞: p-ckpt covers everything.
        assert!(beta_pckpt(1e9, 0.3) > 0.999_999);
        // β grows with α.
        assert!(beta_pckpt(3.0, 0.3) > beta_pckpt(1.5, 0.3));
    }

    #[test]
    fn lm_ckpt_reduction_examples() {
        assert_eq!(lm_ckpt_reduction(0.0), 0.0);
        // σ = 0.44 (CHIMERA) → ≈25 %.
        assert!((lm_ckpt_reduction(0.44) - 0.2517).abs() < 1e-3);
        // σ = 0.75 → 50 %.
        assert!((lm_ckpt_reduction(0.75) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eq8_bounds_match_paper() {
        // "Under the constraints of 0 <= σ < 0.61, the LM transfer size to
        // checkpoint size ratio implies 1.04 <= α < 1.30 for p-ckpt to
        // perform better than LM."
        let at_low = alpha_threshold(0.05);
        let at_mid = alpha_threshold(0.3);
        let at_high = alpha_threshold(0.60);
        assert!(
            (1.0..=1.06).contains(&at_low),
            "α threshold near σ→0 ≈ 1.0–1.05, got {at_low}"
        );
        assert!((1.0..1.30).contains(&at_mid));
        assert!(
            (1.28..1.31).contains(&at_high),
            "α threshold near σ→0.61 ≈ 1.30, got {at_high}"
        );
        // Monotone increasing in σ.
        let mut prev = 0.0;
        for i in 0..60 {
            let s = i as f64 * 0.01;
            let a = alpha_threshold(s);
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn exact_threshold_is_consistent_with_inequality() {
        for &sigma in &[0.05, 0.2, 0.4, 0.55] {
            let a_star = alpha_threshold_exact(sigma);
            assert!(
                pckpt_beats_lm(a_star * 1.01, sigma, 1.0),
                "just above the exact threshold p-ckpt must win (σ={sigma})"
            );
            assert!(
                !pckpt_beats_lm(a_star * 0.99, sigma, 1.0),
                "just below the exact threshold LM must win (σ={sigma})"
            );
        }
    }

    #[test]
    fn exact_threshold_diverges_near_golden_ratio_bound() {
        // The exact algebra blows up as σ → (√5−1)/2 ≈ 0.618 — the origin
        // of the paper's σ < 0.61 validity constraint.
        assert!(alpha_threshold_exact(0.6) > 8.0);
        assert!(alpha_threshold_exact(0.0) == 1.0);
        // The printed Eq. 8 stays bounded (its 1.30 ceiling), i.e. the two
        // forms genuinely differ for large σ.
        assert!(alpha_threshold(0.6) < 1.31);
    }

    #[test]
    #[should_panic(expected = "0.618")]
    fn exact_threshold_rejects_sigma_beyond_validity() {
        let _ = alpha_threshold_exact(0.63);
    }

    #[test]
    fn recomp_heavy_workloads_favour_pckpt() {
        // With recomputation dominating (ratio ≫ 1), p-ckpt wins even at
        // modest α; with checkpointing dominating, LM wins.
        assert!(pckpt_beats_lm(1.2, 0.3, 10.0));
        assert!(!pckpt_beats_lm(1.2, 0.3, 0.1));
    }

    #[test]
    #[should_panic(expected = "valid for")]
    fn eq8_rejects_sigma_beyond_validity() {
        let _ = alpha_threshold(0.7);
    }

    #[test]
    fn break_even_sigma_inverts_the_exact_threshold() {
        for &sigma in &[0.05, 0.2, 0.4, 0.55] {
            let alpha = alpha_threshold_exact(sigma);
            let back = break_even_sigma(alpha).unwrap();
            assert!(
                (back - sigma).abs() < 1e-12,
                "σ={sigma} → α={alpha} → σ={back}"
            );
        }
        // The range starts at α*(0) = 1.
        assert!(break_even_sigma(1.0).unwrap() < 1e-12);
        assert_eq!(break_even_sigma(0.5), None, "below every threshold");
        assert_eq!(break_even_sigma(1e6), None, "beyond the band");
    }

    #[test]
    fn verdict_decides_clear_cells_and_abstains_near_boundaries() {
        // CHIMERA-shaped: σ ≈ 0.5, α = 3 → thresholds 1.243 / 2.414; α
        // clears the exact one by 24% > 15% margin.
        assert!(matches!(
            crossover_verdict(3.0, 0.5, 0.15),
            Crossing::Pckpt { clearance } if clearance > 0.2
        ));
        // Same point, margin 0.30: inside the band → abstain.
        assert_eq!(crossover_verdict(3.0, 0.5, 0.30), Crossing::Uncertain);
        // α barely above 1 is far below both thresholds → LM.
        assert!(matches!(
            crossover_verdict(1.0, 0.5, 0.15),
            Crossing::Lm { .. }
        ));
        // α below 1 is outside Eq. (6): abstain, in band and beyond it.
        assert_eq!(crossover_verdict(0.5, 0.5, 0.15), Crossing::Uncertain);
        assert_eq!(crossover_verdict(0.5, 0.85, 0.15), Crossing::Uncertain);
        // σ capped at 0.85 (small apps): far beyond SIGMA_MAX → LM.
        assert!(matches!(
            crossover_verdict(3.0, 0.85, 0.15),
            Crossing::Lm { clearance } if (clearance - 0.24).abs() < 1e-12
        ));
        // Just beyond the validity bound: inside the σ guard → abstain.
        assert_eq!(crossover_verdict(3.0, 0.62, 0.15), Crossing::Uncertain);
        // Just below the bound: also inside the guard → abstain.
        assert_eq!(crossover_verdict(3.0, 0.60, 0.15), Crossing::Uncertain);
        // Between the thresholds (α = 1.8 at σ = 0.5 sits between 1.243
        // and 2.414): no verdict at any margin.
        assert_eq!(crossover_verdict(1.8, 0.5, 0.0), Crossing::Uncertain);
    }
}
