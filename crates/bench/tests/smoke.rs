//! Perf-trajectory smoke tests: one full P2 replication must complete
//! well inside a generous event budget, in both PFS modes. `CrSim::run`
//! itself enforces a 10M-event runaway guard; these tests pin the bound
//! much tighter so an event-loop regression (e.g. a rescheduling storm
//! in the fluid tick) fails fast instead of merely getting slower.

use pckpt_core::iosim::PfsMode;
use pckpt_core::{CrSim, ModelKind, SimParams};
use pckpt_desim::engine::StopReason;
use pckpt_desim::Simulation;
use pckpt_failure::{FailureTrace, LeadTimeModel, TraceConfig};
use pckpt_simrng::SimRng;
use pckpt_workloads::Application;

const EVENT_BUDGET: u64 = 2_000_000;

fn one_p2_replication(mode: PfsMode) {
    let leads = LeadTimeModel::desh_default();
    let app = Application::by_name("XGC").expect("Table I app");
    let mut params = SimParams::paper_defaults(ModelKind::P2, app);
    params.pfs_mode = mode;
    let cfg = TraceConfig::new(
        params.distribution,
        app.nodes,
        app.compute_hours * params.horizon_factor,
    )
    .with_projection(params.projection);
    let mut rng = SimRng::seed_from(4242);
    let trace = FailureTrace::generate(&cfg, &leads, &params.predictor, &mut rng);
    let sim = CrSim::new(params, trace, &leads);
    let mut engine = Simulation::new(sim).with_event_budget(EVENT_BUDGET);
    let stop = engine.run();
    assert_ne!(
        stop,
        StopReason::EventBudget,
        "P2 replication burned through the {EVENT_BUDGET}-event budget"
    );
    assert!(
        engine.events_handled() < EVENT_BUDGET,
        "handled {} events",
        engine.events_handled()
    );
}

#[test]
fn p2_replication_fits_event_budget_analytic() {
    one_p2_replication(PfsMode::Analytic);
}

#[test]
fn p2_replication_fits_event_budget_fluid() {
    one_p2_replication(PfsMode::Fluid);
}

/// `exp_analytical` is pure closed-form arithmetic, so its output is
/// pinned byte for byte: the σ table, the break-even σ and the
/// per-application verdicts must match `results/exp_analytical.txt`.
#[test]
fn exp_analytical_matches_its_results_file() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_exp_analytical"))
        .output()
        .expect("spawn exp_analytical");
    assert!(out.status.success(), "exp_analytical failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, include_str!("../../../results/exp_analytical.txt"));
}
