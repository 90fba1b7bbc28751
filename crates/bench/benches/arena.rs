//! Warm-worker vs fresh-build cost of one campaign run.
//!
//! The campaign steady state recycles per-worker state — one
//! `CrSim` per lane, one event queue, one trace buffer per trace group,
//! all held by a [`GridWorker`] — instead of rebuilding it for every
//! Monte-Carlo run. These benchmarks measure exactly that delta on the
//! same workload (P2 on XGC): `arena_reuse` runs a warm one-cell worker
//! in place per run, `fresh_build` pays the pre-refactor cost of
//! constructing the trace and simulation from scratch. Both execute
//! identical event sequences, so the gap is pure construction/allocation
//! overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pckpt_core::iosim::PfsMode;
use pckpt_core::{CrSim, GridCell, GridPlan, GridWorker, ModelKind, SimParams};
use pckpt_failure::{FailureTrace, LeadTimeModel, TraceConfig};
use pckpt_simrng::SimRng;
use pckpt_workloads::Application;

const SEED: u64 = 20_220_530;
/// Cycle over a fixed set of run indices so both benches average over
/// the same trace mix rather than timing one lucky/unlucky draw.
const RUN_CYCLE: u64 = 32;

fn params(mode: PfsMode) -> SimParams {
    let app = Application::by_name("XGC").expect("Table I app");
    let mut p = SimParams::paper_defaults(ModelKind::P2, app);
    p.pfs_mode = mode;
    p
}

fn trace_config(p: &SimParams) -> TraceConfig {
    TraceConfig::new(
        p.distribution,
        p.app.nodes,
        p.app.compute_hours * p.horizon_factor,
    )
    .with_lead_scale(p.lead_scale)
    .with_projection(p.projection)
    .with_node_selection(p.node_selection)
    .with_lead_error(p.lead_error_cv)
}

fn bench_campaign_run(c: &mut Criterion) {
    let leads = LeadTimeModel::desh_default();
    let mut group = c.benchmark_group("campaign_run");
    for (label, mode) in [("analytic", PfsMode::Analytic), ("fluid", PfsMode::Fluid)] {
        let p = params(mode);
        let master = SimRng::seed_from(SEED);

        let cells = [GridCell::new(p.clone(), &[ModelKind::P2])];
        let plan = GridPlan::new(&cells, &leads);
        let mut worker = GridWorker::new(&plan);
        // Warm the worker past its high-water mark so the measured loop
        // is the allocation-free steady state.
        for run in 0..RUN_CYCLE {
            worker.run_unit(&master, run as usize, 0);
        }
        let mut run = 0u64;
        group.bench_function(format!("arena_reuse_{label}"), |b| {
            b.iter(|| {
                let r = worker.run_unit(&master, (run % RUN_CYCLE) as usize, 0);
                run += 1;
                black_box(r.wall_secs);
            })
        });

        let tcfg = trace_config(&p);
        let mut run = 0u64;
        group.bench_function(format!("fresh_build_{label}"), |b| {
            b.iter(|| {
                let mut rng = master.split(run % RUN_CYCLE);
                run += 1;
                let trace = FailureTrace::generate(&tcfg, &leads, &p.predictor, &mut rng);
                let bg_rng = rng.split(0xB6);
                let sim = CrSim::new(p.clone(), trace, &leads).with_bg_rng(bg_rng);
                black_box(sim.run().wall_secs);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_campaign_run);
criterion_main!(benches);
