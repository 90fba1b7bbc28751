//! Proves the campaign steady state is allocation-free.
//!
//! A counting global allocator wraps `System`; after a warmup pass has
//! grown every buffer of a [`GridWorker`] to its high-water mark,
//! replaying the same `(run, unit)` items must not touch the heap at all
//! — not in the event queue, the fluid link, the p-ckpt round, the trace
//! generator, the trace cache (hits *and* misses, core instantiation
//! included), nor the result hand-off. The workers cover a one-cell grid
//! in both PFS modes (the single-view trace path and the flow link), a
//! multi-view lead-scale sweep, and that sweep under variance reduction.
//!
//! This file is its own test binary on purpose: `#[global_allocator]`
//! is process-wide, and the sole test keeps the counter honest (no
//! parallel test threads allocating in the background).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pckpt_core::iosim::PfsMode;
use pckpt_core::{GridCell, GridPlan, GridWorker, ModelKind, SimParams, VrConfig};
use pckpt_failure::LeadTimeModel;
use pckpt_simrng::SimRng;
use pckpt_workloads::Application;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation delegates to System, preserving its layout
// contract verbatim; the only side effect is a Relaxed atomic add, which
// itself never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Sweeps every unit of `plan` for `runs` runs on `worker` twice — a
/// warmup, then a counted replay of the identical seed set, whose buffer
/// sizes are therefore a deterministic function of the warmup's — and
/// asserts the replay is bit-identical and (in debug builds) allocates
/// nothing.
fn assert_warm_replay_is_silent(worker: &mut GridWorker, plan: &GridPlan, runs: usize, what: &str) {
    let master = SimRng::seed_from(41);
    let mut sweep = || {
        let mut checksum = 0.0f64;
        for run in 0..runs {
            for unit in 0..plan.units() {
                checksum += worker.run_unit(&master, run, unit).wall_secs;
            }
        }
        checksum
    };
    let warm = sweep();
    let before = ALLOCS.load(Ordering::SeqCst);
    let replay = sweep();
    let after = ALLOCS.load(Ordering::SeqCst);

    // Release builds elide some debug-only bookkeeping, and the point
    // of the invariant is to catch regressions where developers run
    // tests — enforce in debug, merely exercise elsewhere.
    #[cfg(debug_assertions)]
    assert_eq!(after - before, 0, "{what} unit executions must not allocate");
    #[cfg(not(debug_assertions))]
    let _ = (before, after);
    assert_eq!(warm.to_bits(), replay.to_bits(), "{what} replay must be bit-identical");
}

fn xgc(model: ModelKind) -> SimParams {
    SimParams::paper_defaults(model, Application::by_name("XGC").expect("known app"))
}

#[test]
fn warm_grid_workers_do_not_allocate() {
    let leads = LeadTimeModel::desh_default();

    // One cell per PFS mode: a single-view trace group whose first unit
    // of a run generates the trace and whose second reuses it.
    for mode in [PfsMode::Analytic, PfsMode::Fluid] {
        let mut p = xgc(ModelKind::B);
        p.pfs_mode = mode;
        let cells = [GridCell::new(p, &[ModelKind::B, ModelKind::P2])];
        let plan = GridPlan::new(&cells, &leads);
        let what = format!("warm one-cell {mode:?}");
        assert_warm_replay_is_silent(&mut GridWorker::new(&plan), &plan, 8, &what);
    }

    // Grid steady state: a warm worker replaying a lead-scale sweep.
    // Replaying run-major order makes every multi-view unit after the
    // first of a run a trace-cache *hit* (instantiate only), and the
    // first a *miss* (full regeneration into cached buffers) — both
    // paths must stay off the heap.
    let cells: Vec<GridCell> = [1.5, 1.0, 0.5]
        .iter()
        .map(|&scale| {
            let mut p = xgc(ModelKind::B);
            p.lead_scale = scale;
            GridCell::new(p, &[ModelKind::B, ModelKind::M2])
        })
        .collect();
    let plan = GridPlan::new(&cells, &leads);
    let mut worker = GridWorker::new(&plan);
    assert_warm_replay_is_silent(&mut worker, &plan, 6, "warm grid");
    assert!(worker.trace_reuses > 0, "sweep must exercise the trace-cache hit path");

    // Variance-reduction steady state: antithetic pairing and stratified
    // generation route draws through per-event split substreams and the
    // geometric-block thinning path. `SimRng::split` is a value
    // transform (no boxing), so a warm VR worker must be exactly as
    // silent as the plain one.
    let vr = VrConfig {
        antithetic: true,
        strata: 4,
        ..VrConfig::default()
    };
    assert_warm_replay_is_silent(&mut GridWorker::with_vr(&plan, vr), &plan, 6, "warm VR grid");
}
