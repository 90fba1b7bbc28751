//! The simulation layers, measured from outside: timed calls into
//! `GridPlan`, `GridWorker::run_unit`, `CellFold` and the trace
//! generators, on a workload's own cells.

use std::hint::black_box;
use std::time::Instant;

use pckpt_core::{
    run_grid_filtered, CellFold, GridCell, GridPlan, GridResult, GridWorker, RunResult,
    RunnerConfig, SimParams,
};
use pckpt_failure::{FailureTrace, LeadTimeModel, Predictor, TraceConfig, TraceCore};
use pckpt_simrng::SimRng;

use crate::report::Tracer;
use crate::stats::percentile;

/// The trace configuration `pckpt_core::runner` derives for a cell.
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

struct Group {
    core_key: TraceConfig,
    predictor: Predictor,
    multi_view: bool,
    solo_cfg: TraceConfig,
}

struct Unit {
    group: usize,
    cell: usize,
    lanes: Vec<usize>,
}

/// Which lanes each execution unit of `GridPlan::new(cells)` feeds, in
/// the plan's unit order. The plan keeps this private, so the
/// benchmark derives it by the plan's documented rules (trace groups by
/// scale-invariant config and predictor; prediction-blind lanes equal
/// up to lead scale share a unit; units stably sorted by group). A
/// wrong derivation cannot pass unnoticed: the traced pass folds
/// through it and must reproduce the untraced grid digest.
pub struct UnitMap {
    groups: Vec<Group>,
    units: Vec<Unit>,
    cell_tcfg: Vec<TraceConfig>,
    lane_base: Vec<usize>,
    lanes: usize,
}

impl UnitMap {
    pub fn new(cells: &[GridCell]) -> UnitMap {
        let mut lane_base = Vec::with_capacity(cells.len());
        let mut lanes = 0;
        for c in cells {
            lane_base.push(lanes);
            lanes += c.models.len();
        }
        let cell_tcfg: Vec<TraceConfig> = cells.iter().map(|c| trace_config(&c.params)).collect();
        let mut groups: Vec<Group> = Vec::new();
        let mut cell_group = Vec::with_capacity(cells.len());
        for (c, cell) in cells.iter().enumerate() {
            let key = cell_tcfg[c].scale_invariant();
            let found = groups
                .iter()
                .position(|g| g.core_key == key && g.predictor == cell.params.predictor);
            let gid = match found {
                Some(g) => {
                    if groups[g].solo_cfg != cell_tcfg[c] {
                        groups[g].multi_view = true;
                    }
                    g
                }
                None => {
                    groups.push(Group {
                        core_key: key,
                        predictor: cell.params.predictor,
                        multi_view: false,
                        solo_cfg: cell_tcfg[c],
                    });
                    groups.len() - 1
                }
            };
            cell_group.push(gid);
        }
        let blind_mates = |a: &SimParams, b: &SimParams| {
            let (mut a, mut b) = (a.clone(), b.clone());
            a.lead_scale = 1.0;
            b.lead_scale = 1.0;
            a.model = b.model;
            a == b
        };
        let mut units: Vec<(Unit, usize)> = Vec::new();
        for (c, cell) in cells.iter().enumerate() {
            for (m, &model) in cell.models.iter().enumerate() {
                let lane = lane_base[c] + m;
                let donor = if model.uses_prediction() {
                    None
                } else {
                    units.iter().position(|(u, um)| {
                        u.group == cell_group[c]
                            && cells[u.cell].models[*um] == model
                            && blind_mates(&cells[u.cell].params, &cell.params)
                    })
                };
                match donor {
                    Some(u) => units[u].0.lanes.push(lane),
                    None => units.push((
                        Unit {
                            group: cell_group[c],
                            cell: c,
                            lanes: vec![lane],
                        },
                        m,
                    )),
                }
            }
        }
        let mut units: Vec<Unit> = units.into_iter().map(|(u, _)| u).collect();
        units.sort_by_key(|u| u.group);
        UnitMap {
            groups,
            units,
            cell_tcfg,
            lane_base,
            lanes,
        }
    }

    pub fn units(&self) -> usize {
        self.units.len()
    }

    pub fn lanes(&self) -> usize {
        self.lanes
    }

    pub fn trace_groups(&self) -> usize {
        self.groups.len()
    }

    /// Lane range `[start, end)` of cell `c`.
    pub fn cell_lanes(&self, c: usize, cells: &[GridCell]) -> (usize, usize) {
        (self.lane_base[c], self.lane_base[c] + cells[c].models.len())
    }
}

/// What one instrumented single-thread execution of a grid measured.
#[derive(Debug, Clone, Default)]
pub struct GridTrace {
    pub plan_s: f64,
    /// Σ of every `GridWorker::run_unit` call.
    pub unit_s: f64,
    pub unit_runs: u64,
    pub fold_s: f64,
    /// Wall time of plan + unit loop + fold, instrumentation included.
    pub traced_wall_s: f64,
    pub results: u64,
    pub events: u64,
    pub scheduled: u64,
    pub hwm: Vec<f64>,
    pub gens: u64,
    pub reuses: u64,
    pub units: usize,
    pub lanes: usize,
    pub groups: usize,
    pub digest: String,
}

impl GridTrace {
    /// Adds the timings and counts of another execution to this one.
    pub fn absorb(&mut self, o: GridTrace) {
        self.plan_s += o.plan_s;
        self.unit_s += o.unit_s;
        self.unit_runs += o.unit_runs;
        self.fold_s += o.fold_s;
        self.traced_wall_s += o.traced_wall_s;
        self.results += o.results;
        self.events += o.events;
        self.scheduled += o.scheduled;
        self.hwm.extend(o.hwm);
        self.gens += o.gens;
        self.reuses += o.reuses;
        self.units += o.units;
        self.lanes += o.lanes;
        self.groups += o.groups;
    }

    /// The per-layer metrics of the grid layers that every workload
    /// reports: `self` sums `grids` executions, `gen` their replayed
    /// trace generation, and `pool_s` their wall time on a pool of
    /// `threads`.
    pub fn layer_metrics(
        &self,
        gen: &GenReplay,
        grids: usize,
        pool_s: f64,
        threads: usize,
    ) -> Vec<(&'static str, f64)> {
        let per = |x: f64, n: u64| x / n.max(1) as f64;
        let sim_s = self.unit_s - gen.secs;
        let hwm = |p| {
            if self.hwm.is_empty() {
                0.0
            } else {
                percentile(&self.hwm, p)
            }
        };
        let threads = threads as f64;
        let grids = grids.max(1) as f64;
        vec![
            ("failure.trace_gen_us", per(gen.secs, gen.gens) * 1e6),
            (
                "failure.trace_hit_rate",
                per(self.reuses as f64, self.gens + self.reuses),
            ),
            ("core.runner.plan_ms", self.plan_s / grids * 1e3),
            (
                "core.runner.units_per_lane",
                per(self.units as f64, self.lanes as u64),
            ),
            (
                "core.runner.pool_busy_frac",
                self.unit_s / (threads * pool_s),
            ),
            (
                "core.runner.pool_overhead_ms",
                (pool_s - (self.plan_s + self.unit_s / threads + self.fold_s)) / grids * 1e3,
            ),
            (
                "core.runner.fold_ns_per_result",
                per(self.fold_s, self.results) * 1e9,
            ),
            ("core.sim.unit_us", per(sim_s, self.unit_runs) * 1e6),
            ("core.sim.ns_per_event", per(sim_s, self.events) * 1e9),
            (
                "core.sim.events_per_run",
                per(self.events as f64, self.unit_runs),
            ),
            (
                "core.sim.handled_per_scheduled",
                per(self.events as f64, self.scheduled),
            ),
            ("core.sim.queue_depth_hwm_p50", hwm(50.0)),
            ("core.sim.queue_depth_hwm_max", hwm(100.0)),
            (
                "desim.queue.hold_ns",
                queue_hold_ns(hwm(50.0) as usize, 200_000),
            ),
        ]
    }
}

/// Executes `cells` single-threaded through the public grid layers —
/// `GridPlan::new`, `GridWorker::run_unit` per `(run, unit)` in the
/// pool's run-major order, `CellFold` per cell — timing each call, and
/// returns the timings plus the per-lane results (lane-major, `runs`
/// per lane) for replaying the service layers on real frames.
pub fn traced_pass(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    cfg: &RunnerConfig,
    map: &UnitMap,
    tracer: &mut Tracer,
    request: u32,
) -> (GridTrace, Vec<RunResult>) {
    let runs = cfg.runs;
    let mut t = GridTrace::default();
    let wall = Instant::now();
    let root = tracer.open("core.runner.grid", None, request, 0);

    let t0 = Instant::now();
    let plan = GridPlan::new(cells, leads);
    let t1 = Instant::now();
    tracer.record("core.runner.plan", t0, t1, Some(root), request, 0);
    t.plan_s = (t1 - t0).as_secs_f64();
    assert_eq!(
        (plan.units(), plan.lanes(), plan.trace_groups()),
        (map.units(), map.lanes(), map.trace_groups()),
        "unit map disagrees with GridPlan"
    );

    let pool = tracer.open("core.runner.pool", Some(root), request, 0);
    let master = SimRng::seed_from(cfg.base_seed);
    let mut worker = GridWorker::new(&plan);
    let mut slots: Vec<Option<RunResult>> = (0..map.lanes * runs).map(|_| None).collect();
    for run in 0..runs {
        for (u, unit) in map.units.iter().enumerate() {
            let a = Instant::now();
            let r = worker.run_unit(&master, run, u);
            let b = Instant::now();
            tracer.record("core.sim.run_unit", a, b, Some(pool), request, 0);
            t.unit_s += (b - a).as_secs_f64();
            t.unit_runs += 1;
            t.events += r.obs.events_handled;
            t.scheduled += r.obs.events_scheduled;
            t.hwm.push(r.obs.queue_depth_hwm as f64);
            for &lane in &unit.lanes[1..] {
                slots[lane * runs + run] = Some(r.clone());
            }
            slots[unit.lanes[0] * runs + run] = Some(r);
        }
    }
    tracer.close(pool);
    t.gens = worker.trace_generations;
    t.reuses = worker.trace_reuses;
    let results: Vec<RunResult> = slots
        .into_iter()
        .map(|s| s.expect("every (lane, run) slot filled"))
        .collect();

    let mut campaigns = Vec::with_capacity(cells.len());
    let mut cis = Vec::with_capacity(cells.len());
    for (c, cell) in cells.iter().enumerate() {
        let (l0, l1) = map.cell_lanes(c, cells);
        let a = Instant::now();
        let mut fold = CellFold::new(cell, cfg, 1);
        for r in &results[l0 * runs..l1 * runs] {
            fold.push(r);
        }
        let (campaign, ci) = fold.finish();
        let b = Instant::now();
        tracer.record("core.runner.fold", a, b, Some(root), request, 0);
        t.fold_s += (b - a).as_secs_f64();
        campaigns.push(campaign);
        cis.push(ci);
    }
    tracer.close(root);
    t.traced_wall_s = wall.elapsed().as_secs_f64();
    t.results = results.len() as u64;
    t.units = map.units();
    t.lanes = map.lanes();
    t.groups = map.trace_groups();

    let grid = GridResult {
        cells: campaigns,
        labels: cells.iter().map(|c| c.label.clone()).collect(),
        runs_per_cell: runs,
        cell_runs: vec![runs; cells.len()],
        cell_ci_rel: cis,
        threads: 1,
        trace_groups: map.trace_groups(),
        lanes: map.lanes(),
        units: map.units(),
        trace_generations: t.gens,
        trace_reuses: t.reuses,
        leads_digest: leads.digest(),
        analytic_verdicts: vec![None; cells.len()],
        cells_pruned: 0,
        shard_meta: None,
    };
    t.digest = pckpt_service::grid_digest(&grid).hex();
    (t, results)
}

/// Trace generation replayed on the inputs a single-thread pool feeds
/// it: one generation per `(group, run)` and one view instantiation per
/// lead-scale change within a multi-view group, in the pool's order.
#[derive(Debug, Clone, Default)]
pub struct GenReplay {
    pub secs: f64,
    /// Generations, not counting view instantiations: the count
    /// `GridWorker::trace_generations` keeps.
    pub gens: u64,
}

impl GenReplay {
    pub fn absorb(&mut self, o: &GenReplay) {
        self.secs += o.secs;
        self.gens += o.gens;
    }
}

pub fn trace_gen_replay(
    map: &UnitMap,
    leads: &LeadTimeModel,
    cfg: &RunnerConfig,
    tracer: &mut Tracer,
    request: u32,
) -> GenReplay {
    struct Slot {
        run: Option<usize>,
        core: TraceCore,
        trace: FailureTrace,
        view: Option<u64>,
    }
    let mut slots: Vec<Slot> = map
        .groups
        .iter()
        .map(|_| Slot {
            run: None,
            core: TraceCore::default(),
            trace: FailureTrace::default(),
            view: None,
        })
        .collect();
    let master = SimRng::seed_from(cfg.base_seed);
    let mut out = GenReplay::default();
    for run in 0..cfg.runs {
        for unit in &map.units {
            let g = &map.groups[unit.group];
            let slot = &mut slots[unit.group];
            if slot.run != Some(run) {
                let mut rng = master.split(run as u64);
                let a = Instant::now();
                if g.multi_view {
                    slot.core
                        .generate_into(&g.core_key, leads, &g.predictor, &mut rng);
                } else {
                    slot.trace
                        .generate_into(&g.solo_cfg, leads, &g.predictor, &mut rng);
                }
                let b = Instant::now();
                tracer.record("failure.generate", a, b, None, request, 1);
                out.secs += (b - a).as_secs_f64();
                out.gens += 1;
                slot.run = Some(run);
                slot.view = None;
                black_box(&slot.trace);
            }
            if g.multi_view {
                let cfg = &map.cell_tcfg[unit.cell];
                let bits = cfg.lead_scale.to_bits();
                if slot.view != Some(bits) {
                    let a = Instant::now();
                    slot.core
                        .instantiate_into(cfg, &g.predictor, &mut slot.trace);
                    let b = Instant::now();
                    tracer.record("failure.instantiate", a, b, None, request, 1);
                    out.secs += (b - a).as_secs_f64();
                    slot.view = Some(bits);
                    black_box(&slot.trace);
                }
            }
        }
    }
    out
}

/// Wall time of one untraced `run_grid_filtered` call and its digest.
pub fn timed_grid(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    cfg: &RunnerConfig,
) -> (f64, GridResult) {
    let t = Instant::now();
    let grid = run_grid_filtered(cells, leads, cfg, None);
    (t.elapsed().as_secs_f64(), grid)
}

/// `EventQueue` hold model at a fixed depth: every step pops the
/// earliest event and schedules one later, so the depth never changes.
/// Returns ns per hold step (one pop + one schedule).
pub fn queue_hold_ns(depth: usize, steps: usize) -> f64 {
    use pckpt_desim::{EventQueue, SimDuration, SimTime};
    let depth = depth.max(1);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1_000_000 + 1
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        q.schedule_at(SimTime::from_nanos(next()), i as u64);
    }
    let started = Instant::now();
    for _ in 0..steps {
        let (t, _, payload) = q.pop().expect("queue holds `depth` events");
        let at = t
            .checked_add(SimDuration::from_nanos(next()))
            .expect("simulated time stays far below u64::MAX ns");
        q.schedule_at(at, black_box(payload));
    }
    started.elapsed().as_secs_f64() * 1e9 / steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{grid_cells, grid_config, Sizes, Workload};

    #[test]
    fn unit_map_matches_the_plan_and_the_traced_fold_matches_run_grid() {
        let leads = LeadTimeModel::desh_default();
        for w in [
            Workload::Fig4Sweep,
            Workload::LanlPanel,
            Workload::FluidCampaign,
        ] {
            let cells = grid_cells(w).expect("simulation workload");
            let mut cfg = grid_config(w, Sizes::new(true), 11, 1);
            cfg.runs = 2;
            let map = UnitMap::new(&cells);
            let mut tracer = Tracer::default();
            let (t, _) = traced_pass(&cells, &leads, &cfg, &map, &mut tracer, 0);
            let (_, grid) = timed_grid(&cells, &leads, &cfg);
            assert_eq!(
                t.digest,
                pckpt_service::grid_digest(&grid).hex(),
                "{}",
                w.name()
            );
            let gens = trace_gen_replay(&map, &leads, &cfg, &mut tracer, 0);
            assert_eq!(gens.gens, t.gens, "{}: replayed generations", w.name());
        }
    }

    #[test]
    fn queue_hold_is_positive_at_any_depth() {
        for depth in [0, 1, 100] {
            assert!(queue_hold_ns(depth, 1000) > 0.0);
        }
    }
}
