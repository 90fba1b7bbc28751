//! Integration tests asserting the paper's headline *shape*: who wins,
//! in which regime, and by roughly what kind of margin. These are the
//! repository's contract with the paper — if a refactor breaks one of
//! these, it has changed the reproduced science, not just the code.
//!
//! Run counts are moderate (the experiment binaries use 400+); the
//! assertions are correspondingly tolerant.

use pckpt::prelude::*;

const RUNS: usize = 120;
const SEED: u64 = 424_242;

fn campaign(app: &str, models: &[ModelKind]) -> CampaignResult {
    campaign_scaled(app, models, 1.0)
}

fn campaign_scaled(app: &str, models: &[ModelKind], lead_scale: f64) -> CampaignResult {
    let app = Application::by_name(app).expect("Table I app");
    let mut params = SimParams::paper_defaults(ModelKind::B, app);
    params.lead_scale = lead_scale;
    let leads = LeadTimeModel::desh_default();
    run_models(&params, models, &leads, &RunnerConfig::new(RUNS, SEED))
}

#[test]
fn observation2_pckpt_models_beat_base_substantially() {
    // "p-ckpt (P1) and hybrid p-ckpt (P2) help reduce application overhead
    // over the base model by ≈42-55% and ≈53-65% on Summit."
    for app in ["CHIMERA", "XGC"] {
        let c = campaign(app, &[ModelKind::B, ModelKind::P1, ModelKind::P2]);
        let p1 = c.reduction(ModelKind::P1, ModelKind::B).unwrap();
        let p2 = c.reduction(ModelKind::P2, ModelKind::B).unwrap();
        assert!(p1 > 25.0, "{app}: P1 reduction {p1}% too small");
        assert!(p2 > 40.0, "{app}: P2 reduction {p2}% too small");
        assert!(p2 > p1, "{app}: hybrid must beat plain p-ckpt ({p2} vs {p1})");
    }
}

#[test]
fn safeguard_checkpointing_useless_for_large_apps() {
    // Sec. V: "safeguard checkpoints (M1) do not add any benefit" for
    // CHIMERA/XGC — their full-PFS commit takes minutes, leads are seconds.
    let c = campaign("CHIMERA", &[ModelKind::B, ModelKind::M1]);
    let m1 = c.reduction(ModelKind::M1, ModelKind::B).unwrap();
    assert!(
        m1.abs() < 8.0,
        "M1 must be within noise of B for CHIMERA, got {m1}%"
    );
    assert!(
        c.get(ModelKind::M1).unwrap().ft_ratio_pooled() < 0.05,
        "M1's FT ratio for CHIMERA must be near zero (Table II: 0.006)"
    );
}

#[test]
fn safeguard_helps_small_apps_recomputation_only() {
    // Sec. V: M1 "eliminates 85% of recomputation cost for smaller
    // applications" but leaves checkpoint overhead untouched.
    let c = campaign("POP", &[ModelKind::B, ModelKind::M1]);
    let b = c.get(ModelKind::B).unwrap();
    let m1 = c.get(ModelKind::M1).unwrap();
    let recomp_cut = 100.0 * (1.0 - m1.recomp_hours.mean() / b.recomp_hours.mean());
    assert!(recomp_cut > 55.0, "recomp cut {recomp_cut}% too small");
    let ckpt_change = (m1.ckpt_hours.mean() - b.ckpt_hours.mean()).abs() / b.ckpt_hours.mean();
    assert!(
        ckpt_change < 0.15,
        "M1 must not change checkpoint overhead materially"
    );
}

#[test]
fn pckpt_beats_lm_for_large_apps_and_loses_for_small() {
    // Observations 4 & 8.
    let large = campaign("CHIMERA", &[ModelKind::B, ModelKind::M2, ModelKind::P1]);
    let p1 = large.reduction(ModelKind::P1, ModelKind::B).unwrap();
    let m2 = large.reduction(ModelKind::M2, ModelKind::B).unwrap();
    assert!(
        p1 > m2,
        "CHIMERA: p-ckpt ({p1}%) must beat LM ({m2}%) at base leads"
    );
    let small = campaign("POP", &[ModelKind::B, ModelKind::M2, ModelKind::P1]);
    let p1s = small.reduction(ModelKind::P1, ModelKind::B).unwrap();
    let m2s = small.reduction(ModelKind::M2, ModelKind::B).unwrap();
    assert!(
        m2s > p1s,
        "POP: LM ({m2s}%) must beat p-ckpt ({p1s}%) — small apps favour LM"
    );
}

#[test]
fn ft_ratio_tables_ii_and_iv_anchors() {
    let c = campaign(
        "CHIMERA",
        &[ModelKind::M1, ModelKind::M2, ModelKind::P1, ModelKind::P2],
    );
    let ft = |m: ModelKind| c.get(m).unwrap().ft_ratio_pooled();
    // Table II/IV at base leads: M1 ≈ 0.006, M2 ≈ 0.47, P1/P2 ≈ 0.70.
    assert!(ft(ModelKind::M1) < 0.05, "M1 FT = {}", ft(ModelKind::M1));
    assert!(
        (0.3..=0.6).contains(&ft(ModelKind::M2)),
        "M2 FT = {}",
        ft(ModelKind::M2)
    );
    assert!(
        (0.55..=0.8).contains(&ft(ModelKind::P1)),
        "P1 FT = {}",
        ft(ModelKind::P1)
    );
    // "the FT ratios for P1 and P2 are almost equal for all applications".
    assert!(
        (ft(ModelKind::P1) - ft(ModelKind::P2)).abs() < 0.08,
        "P1 and P2 FT must track each other"
    );
}

#[test]
fn lead_time_collapse_hits_lm_before_pckpt() {
    // Observation 3/Fig. 7: at −50 % leads, M2's benefit for CHIMERA
    // collapses while P1 retains a solid FT ratio.
    let half = campaign_scaled("CHIMERA", &[ModelKind::M2, ModelKind::P1], 0.5);
    let m2 = half.get(ModelKind::M2).unwrap().ft_ratio_pooled();
    let p1 = half.get(ModelKind::P1).unwrap().ft_ratio_pooled();
    assert!(m2 < 0.2, "M2 FT at -50% leads must collapse, got {m2}");
    assert!(p1 > 0.4, "P1 FT at -50% leads must survive, got {p1}");
}

#[test]
fn observation6_p2_recomputes_more_than_p1() {
    // "P2 experiences a ≈11-27% increase in recomputation overhead
    // relative to the base model when compared to P1" — the price of the
    // stretched Eq.-2 interval.
    for app in ["CHIMERA", "XGC"] {
        let c = campaign(app, &[ModelKind::P1, ModelKind::P2]);
        let p1 = c.get(ModelKind::P1).unwrap().recomp_hours.mean();
        let p2 = c.get(ModelKind::P2).unwrap().recomp_hours.mean();
        assert!(
            p2 > p1,
            "{app}: P2 recomputation ({p2}h) must exceed P1's ({p1}h)"
        );
    }
}

#[test]
fn observation5_lm_cuts_checkpoint_overhead() {
    // Eq. 2's longer interval shows up as a checkpoint-overhead reduction
    // in P2 relative to P1 (which keeps Eq. 1).
    let c = campaign("XGC", &[ModelKind::P1, ModelKind::P2]);
    let p1 = c.get(ModelKind::P1).unwrap().ckpt_hours.mean();
    let p2 = c.get(ModelKind::P2).unwrap().ckpt_hours.mean();
    assert!(
        p2 < p1 * 0.85,
        "P2's checkpoint overhead ({p2}h) must be well below P1's ({p1}h)"
    );
}

#[test]
fn observation7_robust_across_failure_distributions() {
    // Fig. 6b: the ordering survives under the LANL distributions.
    for dist in FailureDistribution::ALL {
        let app = Application::by_name("XGC").unwrap();
        let params = SimParams::with_distribution(ModelKind::B, app, dist);
        let leads = LeadTimeModel::desh_default();
        let c = run_models(
            &params,
            &[ModelKind::B, ModelKind::M2, ModelKind::P2],
            &leads,
            &RunnerConfig::new(RUNS, SEED),
        );
        let p2 = c.reduction(ModelKind::P2, ModelKind::B).unwrap();
        let m2 = c.reduction(ModelKind::M2, ModelKind::B).unwrap();
        assert!(
            p2 > 35.0,
            "{}: P2 reduction {p2}% too small",
            dist.name
        );
        assert!(p2 > m2, "{}: P2 must beat M2", dist.name);
    }
}

#[test]
fn observation9_false_negatives_erode_all_models() {
    let app = Application::by_name("XGC").unwrap();
    let leads = LeadTimeModel::desh_default();
    let reduction_at = |fnr: f64| {
        let mut params = SimParams::paper_defaults(ModelKind::B, app);
        params.predictor = params.predictor.with_false_negative_rate(fnr);
        let c = run_models(
            &params,
            &[ModelKind::B, ModelKind::P2],
            &leads,
            &RunnerConfig::new(RUNS, SEED),
        );
        c.reduction(ModelKind::P2, ModelKind::B).unwrap()
    };
    let good = reduction_at(0.15);
    let bad = reduction_at(0.40);
    assert!(
        bad < good - 3.0,
        "P2's benefit must erode with the FN rate ({good}% → {bad}%)"
    );
}

// ---------------------------------------------------------------------
// Conformance suite: the EXPERIMENTS.md claim tables, encoded as tests.
//
// Each test below pins one published artifact (Table II, Table IV,
// Fig. 4, Fig. 8) to the bands EXPERIMENTS.md records for this
// implementation. The campaigns are larger (default 200 runs,
// `PCKPT_RUNS` to override) and seeded, so the bands can be tighter
// than the shape tests above without flaking.
// ---------------------------------------------------------------------

/// Conformance-campaign size: `PCKPT_RUNS` if set, else 200 (the
/// EXPERIMENTS.md numbers come from 400+-run sweeps; 200 keeps CI
/// honest but fast).
fn conf_runs() -> usize {
    std::env::var("PCKPT_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(200)
}

fn conf_campaign(app: &str, models: &[ModelKind], lead_scale: f64) -> CampaignResult {
    let app = Application::by_name(app).expect("Table I app");
    let mut params = SimParams::paper_defaults(ModelKind::B, app);
    params.lead_scale = lead_scale;
    let leads = LeadTimeModel::desh_default();
    run_models(&params, models, &leads, &RunnerConfig::new(conf_runs(), SEED))
}

#[test]
fn conformance_table2_ft_ratios_m1_m2() {
    // Table II at base leads (paper / measured): CHIMERA M1 0.006/0.00,
    // M2 0.47/0.50; XGC M1 0.04/0.07, M2 0.66/0.61; POP 0.84-0.85/0.85.
    let models = [ModelKind::M1, ModelKind::M2];
    let ft = |c: &CampaignResult, m: ModelKind| c.get(m).unwrap().ft_ratio_pooled();

    let chimera = conf_campaign("CHIMERA", &models, 1.0);
    let (m1, m2) = (ft(&chimera, ModelKind::M1), ft(&chimera, ModelKind::M2));
    assert!(m1 < 0.05, "CHIMERA M1 FT = {m1} (Table II: 0.006)");
    assert!((0.35..=0.65).contains(&m2), "CHIMERA M2 FT = {m2} (Table II: 0.47)");

    let xgc = conf_campaign("XGC", &models, 1.0);
    let (m1, m2) = (ft(&xgc, ModelKind::M1), ft(&xgc, ModelKind::M2));
    assert!(m1 < 0.20, "XGC M1 FT = {m1} (Table II: 0.04)");
    assert!((0.45..=0.75).contains(&m2), "XGC M2 FT = {m2} (Table II: 0.66)");

    let pop = conf_campaign("POP", &models, 1.0);
    let (m1, m2) = (ft(&pop, ModelKind::M1), ft(&pop, ModelKind::M2));
    assert!((0.75..=0.95).contains(&m1), "POP M1 FT = {m1} (Table II: 0.84)");
    assert!((0.75..=0.95).contains(&m2), "POP M2 FT = {m2} (Table II: 0.85)");

    // Model ordering within the table: LM dominates safeguarding for the
    // large applications, while for POP the safeguard alone already
    // mitigates nearly everything (M1 ≈ M2).
    assert!(ft(&chimera, ModelKind::M2) > ft(&chimera, ModelKind::M1) + 0.3);
    assert!(ft(&xgc, ModelKind::M2) > ft(&xgc, ModelKind::M1) + 0.3);
    assert!((ft(&pop, ModelKind::M2) - ft(&pop, ModelKind::M1)).abs() < 0.1);
}

#[test]
fn conformance_table4_ft_ratios_p1_p2() {
    // Table IV at base leads (paper / measured): CHIMERA 0.70/0.70,
    // XGC 0.84-0.83/0.83, POP 0.84-0.88/0.85 — and "the FT ratios for
    // P1 and P2 are almost equal for all applications".
    let models = [ModelKind::P1, ModelKind::P2];
    for (app, lo, hi) in [
        ("CHIMERA", 0.60, 0.80),
        ("XGC", 0.73, 0.93),
        ("POP", 0.75, 0.95),
    ] {
        let c = conf_campaign(app, &models, 1.0);
        let p1 = c.get(ModelKind::P1).unwrap().ft_ratio_pooled();
        let p2 = c.get(ModelKind::P2).unwrap().ft_ratio_pooled();
        assert!((lo..=hi).contains(&p1), "{app} P1 FT = {p1}, want {lo}..{hi}");
        assert!((lo..=hi).contains(&p2), "{app} P2 FT = {p2}, want {lo}..{hi}");
        assert!(
            (p1 - p2).abs() < 0.05,
            "{app}: P1 ({p1}) and P2 ({p2}) must be almost equal (Table IV)"
        );
    }
}

#[test]
fn conformance_fig4_m1_useless_for_large_apps_robust_for_small() {
    // Fig. 4: "M1 adds no benefit for CHIMERA/XGC" (their full-PFS
    // safeguard commit takes minutes; leads are seconds), while for POP
    // the recomputation cut is large *and robust to lead scaling*
    // (measured +74.3…+81.1 % across −50 %…+50 %).
    for app in ["CHIMERA", "XGC"] {
        let c = conf_campaign(app, &[ModelKind::B, ModelKind::M1], 1.0);
        let red = c.reduction(ModelKind::M1, ModelKind::B).unwrap();
        assert!(
            red.abs() < 10.0,
            "{app}: M1 must be within noise of B (Fig. 4), got {red}%"
        );
    }
    for scale in [0.5, 1.0, 1.5] {
        let c = conf_campaign("POP", &[ModelKind::B, ModelKind::M1], scale);
        let b = c.get(ModelKind::B).unwrap();
        let m1 = c.get(ModelKind::M1).unwrap();
        let cut = 100.0 * (1.0 - m1.recomp_hours.mean() / b.recomp_hours.mean());
        assert!(
            cut > 55.0,
            "POP at lead scale {scale}: M1 recomp cut {cut}% (Fig. 4: 74-81%)"
        );
    }
}

#[test]
fn conformance_fig8_lm_vs_pckpt_crossover() {
    // Fig. 8 plots, per application and lead scale, the difference
    // between LM's and p-ckpt's pooled FT contributions inside P2.
    // Claims: small apps stay LM-dominated (> +0.75) everywhere; the
    // difference shrinks with application size at base leads; p-ckpt
    // takes over as leads shrink, earliest for CHIMERA.
    let diff = |app: &str, scale: f64| {
        let c = conf_campaign(app, &[ModelKind::P2], scale);
        let a = c.get(ModelKind::P2).unwrap();
        a.ft_ratio_lm_pooled() - a.ft_ratio_pckpt_pooled()
    };

    for scale in [0.5, 1.0, 1.5] {
        let d = diff("POP", scale);
        assert!(d > 0.75, "POP at scale {scale}: LM-pckpt diff {d} must stay > 0.75");
    }

    let (chimera, xgc, pop) = (diff("CHIMERA", 1.0), diff("XGC", 1.0), diff("POP", 1.0));
    assert!(
        pop > xgc && pop > chimera,
        "diff must shrink with app size: POP {pop}, XGC {xgc}, CHIMERA {chimera}"
    );
    assert!(chimera > 0.0, "CHIMERA at base leads is still LM-dominated ({chimera})");

    let collapsed = diff("CHIMERA", 0.5);
    assert!(
        collapsed < 0.0,
        "CHIMERA at -50% leads: p-ckpt must take over (diff {collapsed})"
    );
}

#[test]
fn campaign_aggregates_carry_observability_metrics() {
    // The simobs per-run metrics must survive the campaign fold in both
    // PFS modes: event counts and queue depth come from the runner,
    // latency histograms from the model. This is always-on (no `trace`
    // feature needed).
    use pckpt::core::iosim::PfsMode;
    let app = Application::by_name("XGC").expect("Table I app");
    let leads = LeadTimeModel::desh_default();
    for mode in [PfsMode::Analytic, PfsMode::Fluid] {
        let mut params = SimParams::paper_defaults(ModelKind::B, app);
        params.pfs_mode = mode;
        let c = run_models(
            &params,
            &[ModelKind::B, ModelKind::P2],
            &leads,
            &RunnerConfig::new(conf_runs(), SEED),
        );
        for (m, agg) in c.models.iter().zip(&c.aggregates) {
            let obs = &agg.obs;
            assert_eq!(obs.runs as usize, conf_runs());
            assert!(obs.events_handled > 0, "{mode:?} {m:?}: no events recorded");
            assert!(
                obs.events_scheduled >= obs.events_handled,
                "{mode:?} {m:?}: handled more events than were scheduled"
            );
            assert!(
                obs.events_per_run() > 10.0,
                "{mode:?} {m:?}: implausibly few events/run"
            );
            assert!(
                obs.queue_depth_hwm > 1,
                "{mode:?} {m:?}: queue depth high-water mark missing"
            );
            assert!(
                obs.lat_bb.count() > 0,
                "{mode:?} {m:?}: no burst-buffer checkpoint latencies"
            );
        }
        // P2 runs p-ckpt rounds; the base model never does.
        let p2 = &c.get(ModelKind::P2).unwrap().obs;
        let b = &c.get(ModelKind::B).unwrap().obs;
        assert!(
            p2.lat_phase1.count() > 0,
            "{mode:?}: P2 must record phase-1 commit latencies"
        );
        assert_eq!(
            b.lat_phase1.count(),
            0,
            "{mode:?}: B must not record phase-1 commits"
        );
    }
}

#[test]
fn p1_recovery_share_is_visible_but_bounded() {
    // Observation 2: recovery contributes ≈2.5-6 % of P1's total overhead
    // (all-PFS restores after completed rounds), <1 % for the others.
    let c = campaign("XGC", &[ModelKind::B, ModelKind::P1]);
    let p1 = c.get(ModelKind::P1).unwrap();
    let share = p1.recovery_hours.mean() / p1.total_hours.mean();
    assert!(
        share < 0.12,
        "P1 recovery share must stay modest, got {share}"
    );
    let b = c.get(ModelKind::B).unwrap();
    let b_share = b.recovery_hours.mean() / b.total_hours.mean();
    assert!(b_share < 0.03, "B recovery share must be tiny, got {b_share}");
}
