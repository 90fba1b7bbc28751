//! Monte-Carlo campaign driver.
//!
//! The paper averages every reported number over 1000 simulation runs
//! (Sec. V). This module provides:
//!
//! * [`run_many`] — N runs of one configuration, aggregated;
//! * [`run_models`] — N runs of *several models over identical failure
//!   traces* (paired comparison: every model faces the same fates, which
//!   removes between-model sampling noise from Figs. 6–8);
//! * [`run_grid`] — an entire sweep (cells × models × runs) through one
//!   work-stealing pool, with cross-cell failure-trace sharing;
//!
//! all thread-parallel with deterministic per-run RNG streams: run *i*
//! always draws from `master.split(i)` regardless of thread count, so
//! results are bit-identical from laptop to CI.
//!
//! ### Execution model
//!
//! A grid is planned into **lanes** (one per `(cell, model)` pair) and
//! **execution units**. Most lanes are their own unit; a lane whose
//! simulation is *provably identical* to an earlier lane's — same
//! prediction-blind model, same trace group, parameters equal up to the
//! lead-time view — joins that lane's unit and receives a bit-identical
//! copy of its per-run result instead of recomputing it (the base model
//! B swept across lead scales is the canonical case; see
//! [`GridPlan`]). The flattened `(run × unit)` index space is handed out
//! by atomic chunk-claiming (work stealing) to one long-lived pool, so a
//! whole table/figure bin saturates the machine instead of
//! barrier-syncing at every sweep point.
//!
//! Each worker owns the per-lane simulators it has touched, one event
//! queue, and one trace cache slot per **trace group** (cells with equal
//! scale-invariant [`TraceConfig`] core + predictor; the lead-time model
//! is shared grid-wide). Within a group the per-run trace is generated
//! once per worker and reused across cells — for groups that differ only
//! in `lead_scale`, through a scale-invariant
//! [`TraceCore`](pckpt_failure::TraceCore) whose per-cell views are
//! RNG-free transforms. After the first visit to each unit the steady
//! state performs no heap allocation (enforced by a counting-allocator
//! test in `crates/core/tests/alloc_free.rs`).
//!
//! Workers publish each run's ledger and wall time into a preallocated
//! lock-free slab: every `(lane, run)` slot is written by exactly one
//! worker (the claim counter partitions the item space), so slot writes
//! need no mutex. The fold into aggregates happens on the main thread in
//! ascending run order per lane, which keeps every cell's aggregate
//! **bit-identical** to a standalone [`run_models`] call for any thread
//! count and any work-stealing interleaving. A run's observability
//! snapshot (its fixed histograms, most of a `RunResult`'s bytes) skips
//! the slab: the worker that ran it adds it to its own per-lane
//! `ObsAggregate`, and the fold merges those per lane, which is integer
//! sums and a max and so bit-identical in any order.
//!
//! ### One driver, one pool, one fold
//!
//! Every sweep runs through one driver that executes runs in sequential
//! batches. A fixed run count is the one-batch schedule; adaptive
//! allocation ([`AdaptiveConfig`]) is the multi-batch schedule, deciding
//! after each batch which cells continue. Each batch runs through the
//! one pool function, which borrows its warm [`GridWorker`]s for the
//! batch and hands them back. Every per-lane accumulation — the
//! driver's and [`CellFold`]'s — goes through one lane fold: an
//! [`Aggregate`], plus the variance-reduction CI estimator when VR is
//! on.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use pckpt_desim::{run_with_queue, EventQueue};
use pckpt_failure::{FailureTrace, LeadTimeModel, Predictor, TraceConfig, TraceCore};
use pckpt_simobs::json::{self, Arr, Fixed, Hex, Writer};
use pckpt_simobs::{ObsAggregate, Recorder, Recording};
use pckpt_simrng::{t_critical, PairedSummary, SimRng, StratifiedSummary, Summary};

use crate::config::{ModelKind, SimParams};
use crate::metrics::{Aggregate, OverheadLedger, RunResult};
use crate::prefilter::{AnalyticVerdict, Prefilter};
use crate::sim::{CrSim, Ev};

/// Variance-reduction strategy selection (the `PCKPT_VR` / `PCKPT_RUNS`
/// knobs). The default — everything off — reproduces the fixed-run
/// engine bit-for-bit; every non-default mode is a *different estimator*
/// of the same quantities, deterministic in `(seed, config)` across any
/// thread count, but not bit-comparable to the plain mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VrConfig {
    /// Generate runs in antithetic (U, 1−U) pairs: run `2p+1` replays run
    /// `2p`'s stream with every uniform reflected, and normal variates
    /// switch from Box–Muller to the inverse CDF so reflection negates
    /// them exactly (see [`SimRng::set_reflected`]).
    pub antithetic: bool,
    /// Stratify the first-failure-time quantile into this many
    /// equal-probability strata (0 = off): each run's first uniform draw
    /// is confined to its stratum's sub-interval and per-stratum
    /// summaries fold with weights `1/K`.
    pub strata: u32,
    /// Sequential CI-driven run allocation (`PCKPT_RUNS=auto`); `None`
    /// runs the fixed `RunnerConfig::runs` count.
    pub adaptive: Option<AdaptiveConfig>,
}

impl VrConfig {
    /// Is any variance-reduction strategy active?
    pub fn is_active(&self) -> bool {
        *self != Self::default()
    }
}

/// Parameters of the adaptive (sequential) run-allocation procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Stop a cell when every lane's Student-t 95% CI half-width on the
    /// primary metric (total overhead hours) is below this fraction of
    /// its mean.
    pub rel_target: f64,
    /// Runs per sequential batch; stopping is re-evaluated on the
    /// main-thread fold after each batch.
    pub batch: usize,
    /// Hard per-cell run cap (a cell that never converges stops here).
    pub max_runs: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            rel_target: 0.01,
            batch: 32,
            max_runs: 4096,
        }
    }
}

/// Confidence level of every reported CI and of the adaptive stopping
/// rule.
const CONFIDENCE: f64 = 0.95;

/// Parses a `PCKPT_VR` value: a comma-separated subset of `antithetic`
/// and `stratified[:K]` (K defaults to 8). Returns `None` when any token
/// is unknown, so a typo cannot silently half-enable a mode. `adaptive`
/// is never set here; that lives in `PCKPT_RUNS`.
pub fn parse_vr_spec(s: &str) -> Option<VrConfig> {
    let mut vr = VrConfig::default();
    for token in s.split(',') {
        let token = token.trim();
        match token {
            "" | "off" => {}
            "antithetic" => vr.antithetic = true,
            "stratified" => vr.strata = 8,
            _ => {
                let k = token.strip_prefix("stratified:")?;
                vr.strata = k.parse::<u32>().ok().filter(|&k| k > 0)?;
            }
        }
    }
    Some(vr)
}

/// Campaign size and execution parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Number of Monte-Carlo runs (the per-cell cap in adaptive mode).
    pub runs: usize,
    /// Master seed; run *i* uses stream `split(i)`.
    pub base_seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Variance-reduction strategy selection (default: all off, which is
    /// bit-identical to the pre-VR engine).
    pub vr: VrConfig,
}

impl RunnerConfig {
    /// `runs` runs from a seed, auto-threaded, no variance reduction.
    pub fn new(runs: usize, base_seed: u64) -> Self {
        Self {
            runs,
            base_seed,
            threads: 0,
            vr: VrConfig::default(),
        }
    }

    /// Worker count for an item space of `items` independent work units
    /// (a lone campaign has one item per run; a grid has
    /// `runs × execution units`): `threads`, or with 0 one per
    /// available core, at most one per item.
    fn effective_threads_for(&self, items: usize) -> usize {
        let t = if self.threads == 0 {
            thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        t.max(1).min(items.max(1))
    }
}

/// Results of a multi-model campaign over paired traces.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The models, in the order requested.
    pub models: Vec<ModelKind>,
    /// One aggregate per model (index-aligned with `models`).
    pub aggregates: Vec<Aggregate>,
    /// Worker threads the campaign actually ran on (after core
    /// auto-detection and the items-per-thread clamp).
    pub threads: usize,
}

impl CampaignResult {
    /// The aggregate for `model`, if it was part of the campaign **and**
    /// the cell was simulated (a cell pruned by the analytic pre-filter
    /// keeps its model list but carries no aggregates).
    pub fn get(&self, model: ModelKind) -> Option<&Aggregate> {
        self.models
            .iter()
            .position(|&m| m == model)
            .and_then(|i| self.aggregates.get(i))
    }

    /// Overhead reduction (%) of `model` relative to `base`.
    pub fn reduction(&self, model: ModelKind, base: ModelKind) -> Option<f64> {
        Some(self.get(model)?.reduction_vs(self.get(base)?))
    }
}

/// Derives run `run`'s RNG stream under `vr`.
///
/// Plain mode is exactly `master.split(run)`. Antithetic mode maps runs
/// to (pair, member): both members of pair `p` seed from
/// `master.split(p)`, the odd member with every uniform reflected, and
/// both with inverse-CDF normals so reflection negates normal variates
/// bit-exactly, and both marked paired so trace generators keep the
/// mirrored streams draw-aligned ([`SimRng::set_paired`]). A nonzero
/// stratum count arms a one-shot remap of the
/// run's *first* uniform draw — the first Weibull inter-arrival, i.e.
/// the first-failure-time quantile — into stratum `stratum`'s
/// sub-interval (armed after the reflection flag, so pair members share
/// a stratum; see [`SimRng::set_next_stratum`]).
fn vr_run_rng(master: &SimRng, run: usize, vr: &VrConfig, stratum: u32) -> SimRng {
    let mut rng = if vr.antithetic {
        let mut r = master.split((run / 2) as u64);
        r.set_inverse_normals(true);
        r.set_paired(true);
        r.set_reflected(run % 2 == 1);
        r
    } else {
        master.split(run as u64)
    };
    if vr.strata > 0 {
        rng.set_next_stratum(stratum, vr.strata);
    }
    rng
}

/// The static (non-adaptive) stratum assignment for run `run`: pairs (or
/// single runs) round-robin through the strata, so any prefix of the run
/// sequence is balanced to within one sample per stratum.
fn fixed_stratum(run: usize, vr: &VrConfig) -> u32 {
    if vr.strata == 0 {
        return 0;
    }
    let idx = if vr.antithetic { run / 2 } else { run };
    (idx % vr.strata as usize) as u32
}

fn trace_config(params: &SimParams) -> TraceConfig {
    TraceConfig::new(
        params.distribution,
        params.app.nodes,
        params.app.compute_hours * params.horizon_factor,
    )
    .with_lead_scale(params.lead_scale)
    .with_projection(params.projection)
    .with_node_selection(params.node_selection)
    .with_lead_error(params.lead_error_cv)
}

/// Runs one simulator over one trace: the grid worker's per-model
/// execution step. Resets the queue and the simulator in place, drives
/// the event loop, and injects the queue's observability counters before
/// extracting the result.
// simlint: hot
fn execute_sim(
    sim: &mut CrSim,
    queue: &mut EventQueue<Ev>,
    trace: &FailureTrace,
    bg_rng: SimRng,
) -> RunResult {
    queue.reset();
    sim.reset_for_run(trace, bg_rng);
    let sched_before = queue.scheduled_total();
    let (_, handled) = run_with_queue(sim, queue, 10_000_000);
    sim.set_queue_obs(
        handled,
        queue.scheduled_total() - sched_before,
        queue.depth_hwm() as u64,
    );
    sim.result()
}

/// Executes a single run of one model under a structured-event recorder
/// and returns the run's result, the captured [`Recording`] (its first
/// `capacity` records) and the failure trace the run was simulated
/// against.
///
/// The run is a one-cell grid's single unit, so it is draw-for-draw
/// identical to the same `(base_seed, run)` pair inside a campaign: the
/// run's RNG stream is `master.split(run)`, trace generation consumes it
/// first, and the background-traffic stream is `rng.split(0xB6)`. The
/// recording holds every record the model and the flow link emit; the
/// queue's SCHED/POP records and the causal parents they set are added
/// under the `trace` feature.
pub fn record_run(
    params: &SimParams,
    leads: &LeadTimeModel,
    base_seed: u64,
    run: usize,
    capacity: usize,
) -> (RunResult, Recording, FailureTrace) {
    let rec = Recorder::enabled(capacity);
    let cells = [GridCell::new(params.clone(), &[params.model])];
    let plan = GridPlan::new(&cells, leads);
    let mut worker = GridWorker::new(&plan);
    worker.queue.set_recorder(rec.clone());
    worker.unit_sim(0).set_recorder(rec.clone());
    let result = worker.run_unit(&SimRng::seed_from(base_seed), run, 0);
    let trace = std::mem::take(&mut worker.slots[plan.units[0].group].trace);
    (result, rec.take(), trace)
}

/// Claims the next chunk of item indices `[start, end)` from the shared
/// counter, or `None` when the work is exhausted.
///
/// Chunk sizing balances claim contention against tail imbalance across
/// item spaces from a lone cell's run count up to a grid's
/// `cells × models × runs`: while plenty of work remains each claim
/// takes ¼ of the remaining items per thread (capped at 64 so early
/// claims on large grids stay bounded), and once the tail is within two
/// items per thread workers drop to single-item claims — the worst-case
/// straggle behind a finished pool is then one item, not one chunk, no
/// matter how large the index space or the thread count.
fn claim_chunk(next: &AtomicUsize, total: usize, threads: usize) -> Option<(usize, usize)> {
    loop {
        let cur = next.load(Ordering::Relaxed);
        if cur >= total {
            return None;
        }
        let remaining = total - cur;
        let k = if remaining <= threads * 2 {
            1
        } else {
            (remaining / (threads * 4)).clamp(1, 64)
        };
        let k = k.min(remaining);
        match next.compare_exchange(cur, cur + k, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some((cur, cur + k)),
            Err(_) => continue, // lost the race; re-read and retry
        }
    }
}

/// Runs one configuration `config.runs` times and aggregates.
pub fn run_many(params: &SimParams, leads: &LeadTimeModel, config: &RunnerConfig) -> Aggregate {
    let campaign = run_models(params, &[params.model], leads, config);
    // run_models returns one aggregate per requested model. simlint: allow(no-unwrap-in-lib)
    campaign.aggregates.into_iter().next().expect("one model")
}

/// Runs several models over paired failure traces.
///
/// `base_params.model` is ignored; each entry of `models` is simulated
/// with otherwise identical parameters. Trace generation consumes the
/// run's RNG stream once, so every model sees the same failures, leads,
/// prediction outcomes and false positives.
///
/// Implemented as a one-cell [`run_grid`]; the aggregate is bit-identical
/// to the dedicated pre-grid implementation (pinned by the serial
/// fresh-build reference test below and the committed campaign digests in
/// `tests/trace_determinism.rs`).
pub fn run_models(
    base_params: &SimParams,
    models: &[ModelKind],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
) -> CampaignResult {
    let cells = [GridCell::new(base_params.clone(), models)];
    // A standalone campaign is always simulated: the analytic pre-filter
    // is a grid-sweep tier, and callers of run_models (and run_many)
    // expect real aggregates unconditionally.
    let mut grid = run_grid_filtered(&cells, leads, config, None);
    // One cell in, one campaign out. simlint: allow(no-unwrap-in-lib)
    grid.cells.pop().expect("one cell")
}

/// One cell of a campaign grid: a parameter point plus the models to run
/// over its (per-run shared) failure traces.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Display label (defaults to the application name).
    pub label: String,
    /// Simulation parameters (`params.model` is ignored; `models` decides
    /// what runs).
    pub params: SimParams,
    /// The models simulated over this cell's traces, in output order.
    pub models: Vec<ModelKind>,
}

impl GridCell {
    /// A cell labelled with its application name.
    pub fn new(params: SimParams, models: &[ModelKind]) -> Self {
        assert!(!models.is_empty(), "at least one model per cell");
        Self {
            label: params.app.name.to_string(),
            params,
            models: models.to_vec(),
        }
    }

    /// Replaces the display label (sweep bins label cells by sweep value).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// May `b`'s lane reuse `a`'s simulation results verbatim, assuming both
/// run a prediction-blind model over the same trace group?
///
/// Within one trace group the failure *stream* is identical across cells
/// (times, nodes, sequence ids, predicted flags, false-positive count —
/// only the lead-time values differ) and so is the post-generation RNG
/// state feeding the background-traffic stream. A prediction-blind model
/// (`!uses_prediction()`) schedules no prediction events and never reads
/// a lead or estimate, so its runs depend only on that invariant stream
/// plus the non-lead parameters — if those are equal too, every run
/// produces bit-identical results and one execution can serve both
/// lanes. The comparison is bit-exact (`SimParams` float fields are
/// positivity-asserted, so derived float equality has no `-0.0` hazard).
fn lead_blind_mates(a: &SimParams, b: &SimParams) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.lead_scale = 1.0;
    b.lead_scale = 1.0;
    a.model = b.model;
    a == b
}

/// How one trace group generates its per-run traces.
struct GroupInfo {
    /// Scale-invariant config — the group key, and the generation config
    /// for multi-view groups.
    core_key: TraceConfig,
    /// Predictor shared by every cell in the group (prediction draws are
    /// part of trace generation, so it participates in the key).
    predictor: Predictor,
    /// Do member cells need more than one lead-scale view? Single-view
    /// groups generate the finished trace directly (the exact pre-grid
    /// hot path); multi-view groups generate a [`TraceCore`] once and
    /// instantiate per-cell views from it.
    multi_view: bool,
    /// The full config of a single-view group's one view.
    solo_cfg: TraceConfig,
}

/// One execution unit: a representative `(cell, model)` lane plus any
/// deduplicated member lanes that receive copies of its results.
struct Unit {
    group: usize,
    cell: usize,
    model_idx: usize,
    /// Member lanes, representative first; every lane gets a bit-identical
    /// copy of the unit's per-run result.
    lanes: Vec<usize>,
}

/// The static execution plan of a grid: lanes, trace groups, and
/// deduplicated execution units.
///
/// Public so the allocation-regression test and the benchmarks can drive
/// a [`GridWorker`] directly; campaign code should call [`run_grid`].
pub struct GridPlan<'a> {
    cells: &'a [GridCell],
    leads: &'a LeadTimeModel,
    cell_tcfg: Vec<TraceConfig>,
    groups: Vec<GroupInfo>,
    units: Vec<Unit>,
    lane_base: Vec<usize>,
    n_lanes: usize,
}

impl<'a> GridPlan<'a> {
    /// Plans `cells`: assigns lanes, groups cells by scale-invariant
    /// trace config + predictor, and collapses provably identical
    /// prediction-blind lanes into shared execution units.
    pub fn new(cells: &'a [GridCell], leads: &'a LeadTimeModel) -> Self {
        assert!(!cells.is_empty(), "at least one cell required");
        let mut lane_base = Vec::with_capacity(cells.len());
        let mut n_lanes = 0usize;
        for cell in cells {
            assert!(!cell.models.is_empty(), "at least one model per cell");
            lane_base.push(n_lanes);
            n_lanes += cell.models.len();
        }
        let cell_tcfg: Vec<TraceConfig> =
            cells.iter().map(|c| trace_config(&c.params)).collect();

        let mut groups: Vec<GroupInfo> = Vec::new();
        let mut cell_group = Vec::with_capacity(cells.len());
        for (c, cell) in cells.iter().enumerate() {
            let key = cell_tcfg[c].scale_invariant();
            let gid = groups
                .iter()
                .position(|g| g.core_key == key && g.predictor == cell.params.predictor);
            let gid = match gid {
                Some(gid) => {
                    if groups[gid].solo_cfg != cell_tcfg[c] {
                        groups[gid].multi_view = true;
                    }
                    gid
                }
                None => {
                    groups.push(GroupInfo {
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

        // Units: one per lane, except prediction-blind lanes that are
        // provably identical to an earlier lane (see lead_blind_mates).
        let mut units: Vec<Unit> = Vec::new();
        for (c, cell) in cells.iter().enumerate() {
            for (m, &model) in cell.models.iter().enumerate() {
                let lane = lane_base[c] + m;
                let donor = if model.uses_prediction() {
                    None
                } else {
                    units.iter().position(|u| {
                        u.group == cell_group[c]
                            && cells[u.cell].models[u.model_idx] == model
                            && lead_blind_mates(&cells[u.cell].params, &cell.params)
                    })
                };
                match donor {
                    Some(u) => units[u].lanes.push(lane),
                    None => units.push(Unit {
                        group: cell_group[c],
                        cell: c,
                        model_idx: m,
                        lanes: vec![lane],
                    }),
                }
            }
        }
        // Group-sort units so a worker sweeping one run's units visits
        // each trace group contiguously (stable: preserves cell order
        // within a group, keeping same-view lanes adjacent). Unit order
        // only affects scheduling — results fold by lane, not by unit.
        units.sort_by_key(|u| u.group);

        Self {
            cells,
            leads,
            cell_tcfg,
            groups,
            units,
            lane_base,
            n_lanes,
        }
    }

    fn lane(&self, cell: usize, model_idx: usize) -> usize {
        self.lane_base[cell] + model_idx
    }

    /// Execution units per run (≤ [`lanes`](Self::lanes); smaller when
    /// prediction-blind lanes deduplicate).
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// `(cell, model)` lanes in the grid.
    pub fn lanes(&self) -> usize {
        self.n_lanes
    }

    /// Distinct trace groups (cells sharing per-run failure traces).
    pub fn trace_groups(&self) -> usize {
        self.groups.len()
    }
}

/// Sentinel: no lead-scale view instantiated in the slot's trace buffer.
/// Never collides with a real `lead_scale` (asserted positive, so its
/// bit pattern is never all-ones).
const STALE_VIEW: u64 = u64::MAX;

/// Per-group trace cache of one worker.
struct TraceSlot {
    /// Which run the slot currently holds, if any.
    run: Option<usize>,
    /// Scale-invariant capture (multi-view groups only).
    core: TraceCore,
    /// The instantiated (or directly generated) trace buffer.
    trace: FailureTrace,
    /// `lead_scale.to_bits()` of the view in `trace` ([`STALE_VIEW`] when
    /// the buffer does not match `core`'s current run).
    view_bits: u64,
    /// RNG state right after trace generation; the background-traffic
    /// stream is `post_rng.split(0xB6)`, exactly as in a standalone
    /// campaign.
    post_rng: SimRng,
}

/// One worker's mutable state: lazily built per-lane simulators, a
/// shared event queue, and one trace cache slot per group.
///
/// Public so the allocation-regression test and the benchmarks can
/// exercise the warm path directly; campaign code should call
/// [`run_grid`].
pub struct GridWorker<'a, 'p> {
    plan: &'p GridPlan<'a>,
    vr: VrConfig,
    sims: Vec<Option<CrSim>>,
    queue: EventQueue<Ev>,
    slots: Vec<TraceSlot>,
    /// Trace generations this worker performed (one per `(group, run)`
    /// cache miss).
    pub trace_generations: u64,
    /// Unit executions that reused this worker's cached per-run trace.
    pub trace_reuses: u64,
    /// Per plan lane, the observability snapshots of the runs this
    /// worker executed in the current pool batch (see [`run_pool`]).
    lane_obs: Vec<ObsAggregate>,
}

impl<'a, 'p> GridWorker<'a, 'p> {
    /// A fresh worker over `plan` (simulators build lazily on first use)
    /// with no variance reduction.
    pub fn new(plan: &'p GridPlan<'a>) -> Self {
        Self::with_vr(plan, VrConfig::default())
    }

    /// A fresh worker whose per-run RNG streams are derived under `vr`
    /// (the default config is bit-identical to [`GridWorker::new`]).
    pub fn with_vr(plan: &'p GridPlan<'a>, vr: VrConfig) -> Self {
        Self {
            plan,
            vr,
            sims: (0..plan.n_lanes).map(|_| None).collect(),
            queue: EventQueue::new(),
            slots: plan
                .groups
                .iter()
                .map(|_| TraceSlot {
                    run: None,
                    core: TraceCore::default(),
                    trace: FailureTrace::default(),
                    view_bits: STALE_VIEW,
                    post_rng: SimRng::seed_from(0),
                })
                .collect(),
            trace_generations: 0,
            trace_reuses: 0,
            lane_obs: vec![ObsAggregate::default(); plan.n_lanes],
        }
    }

    /// Executes `unit` for `run` and returns the run's result (the
    /// caller copies it into every member lane's slot). Deterministic in
    /// `(master, run, unit)` and the worker's [`VrConfig`] alone —
    /// worker-local caches never change results, only whether work is
    /// redone. Stratified runs use the static round-robin stratum; the
    /// grid pool supplies each batch's schedule via
    /// [`run_unit_stratum`](Self::run_unit_stratum).
    pub fn run_unit(&mut self, master: &SimRng, run: usize, unit: usize) -> RunResult {
        let stratum = fixed_stratum(run, &self.vr);
        self.run_unit_stratum(master, run, unit, stratum)
    }

    /// [`run_unit`](Self::run_unit) with an explicit stratum for the
    /// run's first-failure-time draw (ignored unless the worker's config
    /// stratifies). All units of one run must be executed with the same
    /// stratum — the per-run trace cache is keyed by `run` alone.
    pub fn run_unit_stratum(
        &mut self,
        master: &SimRng,
        run: usize,
        unit: usize,
        stratum: u32,
    ) -> RunResult {
        self.unit_sim(unit);
        self.run_unit_warm(master, run, unit, stratum)
    }

    /// The simulator of `unit`'s representative lane, built on first use.
    fn unit_sim(&mut self, unit: usize) -> &mut CrSim {
        let plan = self.plan;
        let u = &plan.units[unit];
        self.sims[plan.lane(u.cell, u.model_idx)].get_or_insert_with(|| {
            let cell = &plan.cells[u.cell];
            let mut p = cell.params.clone();
            p.model = cell.models[u.model_idx];
            CrSim::new(p, FailureTrace::default(), plan.leads)
        })
    }

    /// The grid steady state: once each lane's simulator exists and the
    /// per-group trace buffers have grown, this performs no heap
    /// allocation (enforced by `crates/core/tests/alloc_free.rs`).
    // simlint: hot
    fn run_unit_warm(&mut self, master: &SimRng, run: usize, unit: usize, stratum: u32) -> RunResult {
        let u = &self.plan.units[unit];
        let group = &self.plan.groups[u.group];
        let slot = &mut self.slots[u.group];
        if slot.run != Some(run) {
            // Cache miss: consume the run's RNG stream exactly as a
            // standalone campaign would — trace draws first, then the
            // background stream splits off the post-generation state.
            // Under the default VrConfig this is exactly master.split(run).
            let mut rng = vr_run_rng(master, run, &self.vr, stratum);
            if group.multi_view {
                slot.core
                    .generate_into(&group.core_key, self.plan.leads, &group.predictor, &mut rng);
                slot.view_bits = STALE_VIEW;
            } else {
                slot.trace
                    .generate_into(&group.solo_cfg, self.plan.leads, &group.predictor, &mut rng);
            }
            slot.post_rng = rng;
            slot.run = Some(run);
            self.trace_generations += 1;
        } else {
            self.trace_reuses += 1;
        }
        if group.multi_view {
            let cfg = &self.plan.cell_tcfg[u.cell];
            let bits = cfg.lead_scale.to_bits();
            if slot.view_bits != bits {
                slot.core.instantiate_into(cfg, &group.predictor, &mut slot.trace);
                slot.view_bits = bits;
            }
        }
        let bg_rng = slot.post_rng.split(0xB6);
        let lane = self.plan.lane(u.cell, u.model_idx);
        let slot = &self.slots[u.group];
        // run_unit builds the lane's simulator before delegating here.
        // simlint: allow(no-unwrap-in-lib)
        let sim = self.sims[lane].as_mut().expect("lane simulator built");
        execute_sim(sim, &mut self.queue, &slot.trace, bg_rng)
    }
}

/// What the pool keeps of one `(lane, run)` result until the fold: the
/// ledger and the wall time. The run's observability snapshot (four
/// fixed histograms, ~2.1 KB of a `RunResult`'s ~2.3 KB) goes into the
/// worker's per-lane [`ObsAggregate`] as the run finishes instead, so a
/// slot is ~130 B.
struct PoolRun {
    ledger: OverheadLedger,
    wall_secs: f64,
}

/// Preallocated per-`(lane, run)` result storage with lock-free disjoint
/// writes.
//
// simlint: invariant(slab-claim-partition): the chunk-claim counter hands
// every (run, unit) item to exactly one worker, and a unit's member lanes
// belong to that unit alone, so each (lane, run) slot has exactly one
// writer, which writes it exactly once.
// simlint: invariant(slab-scope-join): slots are read only after
// thread::scope has joined every worker, so no read races a write.
// (Both are model-checked by crates/schedcheck against the claim/put/fold
// operation model.)
struct ResultSlab {
    slots: Vec<UnsafeCell<Option<PoolRun>>>,
}

// SAFETY(slab-claim-partition, slab-scope-join): disjoint single writes
// per slot plus join-ordered reads make cross-thread sharing of the
// UnsafeCell slots sound.
unsafe impl Sync for ResultSlab {}

impl ResultSlab {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// # Safety
    ///
    /// The caller must be the unique writer of `idx` for the lifetime of
    /// the slab's sharing (guaranteed by the claim-counter partition).
    unsafe fn put(&self, idx: usize, v: PoolRun) {
        *self.slots[idx].get() = Some(v);
    }

    fn into_results(self) -> Vec<Option<PoolRun>> {
        self.slots.into_iter().map(|c| c.into_inner()).collect()
    }
}

/// The type of [`GridResult::shard_meta`]. It has no values, so the
/// field is `None` in every grid: every grid runs on the in-process
/// pool. The field stays because the benchmark harness
/// (`crates/bench/pbench`, a workspace of its own) builds `GridResult`
/// as a struct literal with `shard_meta: None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardMeta {}

/// Results and execution metadata of one [`run_grid`] sweep.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// One campaign result per input cell, in input order.
    pub cells: Vec<CampaignResult>,
    /// Cell display labels, index-aligned with `cells`.
    pub labels: Vec<String>,
    /// Monte-Carlo runs per cell (the maximum of `cell_runs` in adaptive
    /// mode, where cells stop individually).
    pub runs_per_cell: usize,
    /// Runs actually executed per input cell (all equal to
    /// `runs_per_cell` in fixed mode; 0 for analytically pruned cells).
    pub cell_runs: Vec<usize>,
    /// Attained relative CI half-width per input cell: the worst (max)
    /// over the cell's model lanes of `ci_half_width(0.95) / |mean|` on
    /// the primary metric (total overhead hours), under the estimator
    /// the sweep actually used (paired / stratified / plain). 0 for
    /// pruned or degenerate cells.
    pub cell_ci_rel: Vec<f64>,
    /// Worker threads the sweep actually ran on.
    pub threads: usize,
    /// Distinct trace groups (cells sharing per-run failure traces).
    pub trace_groups: usize,
    /// `(cell, model)` lanes in the grid.
    pub lanes: usize,
    /// Execution units per run after prediction-blind deduplication.
    pub units: usize,
    /// Trace generations actually performed across all workers. Depends
    /// on work-stealing interleaving (each worker caches privately), so
    /// it is reported for observability but excluded from digests.
    pub trace_generations: u64,
    /// Unit executions that hit a worker's per-run trace cache.
    pub trace_reuses: u64,
    /// Digest of the shared lead-time model (see
    /// [`LeadTimeModel::digest`]).
    pub leads_digest: u64,
    /// The analytic pre-filter's verdict per input cell (index-aligned
    /// with `cells`): `Some` → the cell was answered analytically and
    /// never simulated; `None` → the cell was simulated. All `None`
    /// when no pre-filter was active.
    pub analytic_verdicts: Vec<Option<AnalyticVerdict>>,
    /// Cells answered by the analytic tier instead of simulation.
    pub cells_pruned: usize,
    /// Always `None` ([`ShardMeta`] has no values); kept so existing
    /// `GridResult` struct literals still compile.
    pub shard_meta: Option<ShardMeta>,
}

impl GridResult {
    /// The `i`-th cell's campaign result (input order).
    pub fn cell(&self, i: usize) -> &CampaignResult {
        &self.cells[i]
    }

    /// The first cell labelled `label`, if any.
    pub fn by_label(&self, label: &str) -> Option<&CampaignResult> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| &self.cells[i])
    }

    /// Cells that went through the simulation pool (input cells minus
    /// pre-filter prunes).
    pub fn cells_simulated(&self) -> usize {
        self.cells.len() - self.cells_pruned
    }

    /// Fraction of unit executions served from a worker's trace cache.
    pub fn trace_cache_hit_rate(&self) -> f64 {
        let total = self.trace_generations + self.trace_reuses;
        if total == 0 {
            0.0
        } else {
            self.trace_reuses as f64 / total as f64
        }
    }

    /// All cells' per-model observability aggregates merged into one
    /// grid-wide rollup.
    pub fn obs_merged(&self) -> ObsAggregate {
        ObsAggregate::merge_all(
            self.cells
                .iter()
                .flat_map(|c| c.aggregates.iter().map(|a| &a.obs)),
        )
    }

    /// Total runs executed across all cells (in adaptive mode, usually
    /// far below `cells × runs_per_cell`).
    pub fn total_runs(&self) -> usize {
        self.cell_runs.iter().sum()
    }

    /// Worst attained relative CI half-width across simulated cells.
    pub fn worst_ci_rel(&self) -> f64 {
        self.cell_ci_rel.iter().cloned().fold(0.0, f64::max)
    }

    /// Fewest runs any simulated cell executed (0 when every cell was
    /// answered analytically).
    pub fn runs_min(&self) -> usize {
        self.cell_runs
            .iter()
            .zip(&self.analytic_verdicts)
            .filter(|(_, v)| v.is_none())
            .map(|(&r, _)| r)
            .min()
            .unwrap_or(0)
    }

    /// The pool's execution counts, as [`assemble`](Self::assemble) takes them.
    pub fn pool_counts(&self) -> PoolCounts {
        PoolCounts {
            threads: self.threads,
            trace_groups: self.trace_groups,
            units: self.units,
            trace_generations: self.trace_generations,
            trace_reuses: self.trace_reuses,
        }
    }

    /// Writes the grid's execution metadata, named `name`, into the open
    /// object `o`: cell/lane/unit and thread counts, trace sharing, the
    /// pre-filter split and the run-allocation summary.
    pub fn write_meta(&self, o: &mut Writer, name: &str) {
        let hit_rate = Fixed(self.trace_cache_hit_rate(), 4);
        o.field("name", name)
            .field("cells", self.cells.len())
            .field("lanes", self.lanes)
            .field("units", self.units)
            .field("runs_per_cell", self.runs_per_cell)
            .field("threads", self.threads)
            .field("trace_groups", self.trace_groups)
            .field("trace_generations", self.trace_generations)
            .field("trace_reuses", self.trace_reuses)
            .field("trace_cache_hit_rate", hit_rate)
            .field("leads_digest", Hex(self.leads_digest))
            .field("prefilter_pruned", self.cells_pruned)
            .field("prefilter_simulated", self.cells_simulated())
            .field("total_runs", self.total_runs())
            .field("runs_min", self.runs_min())
            .field("worst_ci_rel", Fixed(self.worst_ci_rel(), 6));
    }

    /// [`write_meta`](Self::write_meta) as a one-line JSON object (the
    /// grid counterpart of the `METRICS_JSON` payload).
    pub fn meta_json(&self, name: &str) -> String {
        let mut s = String::new();
        json::object(&mut s, |o| self.write_meta(o, name));
        s
    }

    /// The per-cell run allocation as a one-line JSON object: total,
    /// fewest and most runs, the worst attained relative CI, and one
    /// `[label, runs, ci_rel]` row per cell (0 runs when pruned).
    pub fn allocation_json(&self, name: &str) -> String {
        let mut s = String::new();
        let runs_max = self.cell_runs.iter().copied().max().unwrap_or(0);
        json::object(&mut s, |o| {
            o.field("name", name)
                .field("total_runs", self.total_runs())
                .field("runs_min", self.runs_min())
                .field("runs_max", runs_max)
                .field("worst_ci_rel", Fixed(self.worst_ci_rel(), 6));
            let cells = self.labels.iter().zip(&self.cell_runs);
            let rows = Arr(|rows| {
                for ((label, &runs), &ci) in cells.zip(&self.cell_ci_rel) {
                    rows.item(Arr(|row| {
                        row.item(label).item(runs).item(Fixed(ci, 6));
                    }));
                }
            });
            o.field("cells", rows);
        });
        s
    }

    /// Builds a grid's result in input order from each cell's pre-filter
    /// verdict, the survivors' folded `(campaign, ci, runs)` in input
    /// order and the pool's execution counts (`None`: no cell reached
    /// the pool, which reports one thread). The in-process sweep and the
    /// campaign service both build their grids here. A pruned cell keeps
    /// its label and models with no aggregates, runs or CI; `lanes`
    /// counts the survivors' lanes and `runs_per_cell` is their most
    /// runs (`config.runs` when none survived).
    pub fn assemble(
        cells: &[GridCell],
        leads: &LeadTimeModel,
        config: &RunnerConfig,
        verdicts: Vec<Option<AnalyticVerdict>>,
        survivors: Vec<(CampaignResult, f64, usize)>,
        pool: Option<PoolCounts>,
    ) -> GridResult {
        let pool = pool.unwrap_or_default();
        let threads = pool.threads.max(1);
        let mut grid = GridResult {
            cells: Vec::with_capacity(cells.len()),
            labels: cells.iter().map(|c| c.label.clone()).collect(),
            runs_per_cell: survivors.iter().map(|s| s.2).max().unwrap_or(config.runs),
            cell_runs: Vec::with_capacity(cells.len()),
            cell_ci_rel: Vec::with_capacity(cells.len()),
            threads,
            trace_groups: pool.trace_groups,
            lanes: 0,
            units: pool.units,
            trace_generations: pool.trace_generations,
            trace_reuses: pool.trace_reuses,
            leads_digest: leads.digest(),
            analytic_verdicts: Vec::new(),
            cells_pruned: 0,
            shard_meta: None,
        };
        let mut survivors = survivors.into_iter();
        for (cell, verdict) in cells.iter().zip(&verdicts) {
            let (mut campaign, ci, runs) = if verdict.is_some() {
                grid.cells_pruned += 1;
                let campaign = CampaignResult {
                    models: cell.models.clone(),
                    aggregates: Vec::new(),
                    threads: 0,
                };
                (campaign, 0.0, 0)
            } else {
                grid.lanes += cell.models.len();
                // One fold per surviving cell, in order. simlint: allow(no-unwrap-in-lib)
                survivors.next().expect("one fold per surviving cell")
            };
            campaign.threads = threads;
            grid.cells.push(campaign);
            grid.cell_ci_rel.push(ci);
            grid.cell_runs.push(runs);
        }
        grid.analytic_verdicts = verdicts;
        grid
    }
}

/// What the pool did for a grid: the execution counts a [`GridResult`]
/// reports beside its results (see [`GridResult::assemble`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolCounts {
    /// Worker threads the pool ran on.
    pub threads: usize,
    /// Distinct trace groups among the cells the pool ran.
    pub trace_groups: usize,
    /// Execution units per run after prediction-blind deduplication.
    pub units: usize,
    /// Trace generations performed across all workers.
    pub trace_generations: u64,
    /// Unit executions that hit a worker's per-run trace cache.
    pub trace_reuses: u64,
}

/// The analytic pre-filter's verdict for each cell (all `None` without
/// a pre-filter) and the cells it leaves to simulate, in input order.
pub fn prefilter_split(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    prefilter: Option<&Prefilter>,
) -> (Vec<Option<AnalyticVerdict>>, Vec<GridCell>) {
    let verdicts: Vec<Option<AnalyticVerdict>> = cells
        .iter()
        .map(|c| prefilter.and_then(|pf| pf.cell_verdict(c, leads)))
        .collect();
    let survivors = cells
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| v.is_none())
        .map(|(c, _)| c.clone())
        .collect();
    (verdicts, survivors)
}

/// Runs an entire sweep — every cell × model × run — through one
/// work-stealing pool with cross-cell trace sharing and prediction-blind
/// deduplication.
///
/// Every cell's aggregate is **bit-identical** to a standalone
/// [`run_models`] call with the same `(params, models, leads, config)`
/// (pinned by the grid-equivalence proptest and the golden digests in
/// `tests/trace_determinism.rs`): sharing only ever skips *provably
/// redundant* work — regenerating an identical trace, re-running an
/// identical simulation — never changes what is computed.
///
/// Every cell is simulated; [`run_grid_filtered`] answers the
/// crossover cells an analytic [`Prefilter`] decides confidently from
/// Eqs. (4)–(8) instead.
pub fn run_grid(cells: &[GridCell], leads: &LeadTimeModel, config: &RunnerConfig) -> GridResult {
    run_grid_filtered(cells, leads, config, None)
}

/// [`run_grid`] with an analytic pre-filter (`None` = simulate every
/// cell, which is [`run_grid`]; [`run_models`] never prunes either).
///
/// Pruned cells keep their slot in the result (input order, labels,
/// model lists) but carry an empty aggregate vector and a `Some`
/// [`AnalyticVerdict`]; plan statistics (`lanes`, `units`,
/// `trace_groups`) cover the *simulated* cells only.
///
/// Pruning is sound because the grid equivalence contract above is
/// per-cell: a surviving cell's aggregate does not depend on which other
/// cells share the pool, so answering some cells analytically cannot
/// change a simulated cell's bits (pinned by the prefilter digest oracle
/// in `tests/grid_equivalence.rs`).
pub fn run_grid_filtered(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    prefilter: Option<&Prefilter>,
) -> GridResult {
    let (verdicts, survivors) = prefilter_split(cells, leads, prefilter);
    let simulated =
        (!survivors.is_empty()).then(|| run_grid_simulated(&survivors, leads, config, None));
    let (folds, pool) = simulated.unzip();
    let folds = folds.unwrap_or_default();
    GridResult::assemble(cells, leads, config, verdicts, folds, pool)
}

/// One lane's running fold: its [`Aggregate`], plus the CI estimator of
/// the active variance-reduction strategies when VR is on.
///
/// Every per-lane accumulation goes through here — the grid driver's
/// batch fold and [`CellFold`]'s replay — so the two produce
/// bit-identical aggregates and CIs from identical push sequences by
/// construction.
#[derive(Clone)]
struct LaneFold {
    agg: Aggregate,
    tracker: Option<CiTracker>,
}

impl LaneFold {
    fn new(vr: &VrConfig) -> Self {
        Self {
            agg: Aggregate::new(),
            tracker: vr.is_active().then(|| CiTracker::new(vr)),
        }
    }

    /// Folds in the ledger and wall time of the next run of this lane
    /// (ascending run order), whose first failure time was drawn from
    /// stratum `stratum`. The run's observability snapshot is the
    /// caller's to fold into `agg.obs`.
    fn push(&mut self, stratum: u32, ledger: &OverheadLedger, wall_secs: f64) {
        self.agg.push_ledger(ledger, wall_secs);
        if let Some(t) = self.tracker.as_mut() {
            t.push(stratum, ledger.total_overhead_secs() / 3600.0);
        }
    }

    /// Relative CI half-width of the primary metric (total overhead
    /// hours), 0 when degenerate: the VR estimator's when VR is on, the
    /// plain aggregate's otherwise.
    fn rel_ci(&self) -> f64 {
        if let Some(t) = &self.tracker {
            return t.rel_ci();
        }
        let m = self.agg.total_hours.mean().abs();
        if m > 0.0 {
            self.agg.total_hours.ci_half_width(CONFIDENCE) / m
        } else {
            0.0
        }
    }

    /// Has this lane's CI cleared the adaptive target? Adaptive runs
    /// always carry a tracker (adaptive allocation is a VR mode).
    fn converged(&self, rel_target: f64) -> bool {
        self.tracker.as_ref().is_some_and(|t| t.converged(rel_target))
    }
}

/// A cell's campaign result and attained relative CI (worst lane) from
/// its lane folds, in model order.
fn finish_cell(
    cell: &GridCell,
    lanes: impl Iterator<Item = LaneFold>,
    threads: usize,
) -> (CampaignResult, f64) {
    let mut ci = 0.0f64;
    let aggregates = lanes
        .map(|lane| {
            ci = ci.max(lane.rel_ci());
            lane.agg
        })
        .collect();
    let campaign = CampaignResult {
        models: cell.models.clone(),
        aggregates,
        threads,
    };
    (campaign, ci)
}

/// Folds one cell's raw lane-major per-run results in the canonical
/// single-process order — per model lane, ascending run — into the
/// cell's campaign result and attained relative CI (worst lane): feed
/// the results one at a time with [`push`](Self::push), then
/// [`finish`](Self::finish).
///
/// The lane fold is the one [`run_grid`] uses, so feeding it a cell's
/// per-run results (from `GridWorker::run_unit`, or decoded from a
/// per-run frame) reproduces the in-process aggregate bit for bit.
/// Borrowing each result keeps exactly one `RunResult` live however the
/// caller produces them — a decode loop can reuse one scratch value for
/// the whole frame. Fixed run counts only; adaptive campaigns are never
/// cell-addressed (see [`run_grid_with_cell_sink`]).
pub struct CellFold<'a> {
    cell: &'a GridCell,
    vr: VrConfig,
    runs: usize,
    threads: usize,
    lanes: Vec<LaneFold>,
    lane: usize,
    run: usize,
}

impl<'a> CellFold<'a> {
    /// An empty fold for `cell` under `config`. Fixed run counts only.
    pub fn new(cell: &'a GridCell, config: &RunnerConfig, threads: usize) -> Self {
        assert!(config.vr.adaptive.is_none(), "fixed run counts only");
        CellFold {
            cell,
            vr: config.vr,
            runs: config.runs,
            threads,
            lanes: cell.models.iter().map(|_| LaneFold::new(&config.vr)).collect(),
            lane: 0,
            run: 0,
        }
    }

    /// Folds the next result in (lane-major order: lane `m`'s runs
    /// `0..runs`, then lane `m+1`'s). Panics past `models × runs`.
    pub fn push(&mut self, r: &RunResult) {
        assert!(self.lane < self.lanes.len(), "more results than models × runs");
        let lane = &mut self.lanes[self.lane];
        lane.push(fixed_stratum(self.run, &self.vr), &r.ledger, r.wall_secs);
        lane.agg.obs.push(&r.obs);
        self.run += 1;
        if self.run == self.runs {
            self.lane += 1;
            self.run = 0;
        }
    }

    /// The folded campaign result and attained relative CI (worst
    /// lane). Panics unless exactly `models × runs` results were
    /// pushed.
    pub fn finish(self) -> (CampaignResult, f64) {
        assert_eq!(
            (self.lane, self.run),
            (self.lanes.len(), 0),
            "fold incomplete: expected models × runs results"
        );
        finish_cell(self.cell, self.lanes.into_iter(), self.threads)
    }
}

/// One simulated cell's folded value, handed to a grid sink as the
/// deterministic main-thread fold completes the cell: the campaign
/// result and attained relative CI the returned grid reports for the
/// cell, bit for bit (the sink gets its own copy; the fold is not
/// repeated).
pub struct CellResults {
    /// Index of the cell among the simulated cells the pool ran (the
    /// caller owns any prefilter splicing back to input order).
    pub cell: usize,
    /// The cell's campaign result (the grid's `cells[cell]`).
    pub campaign: CampaignResult,
    /// Attained relative CI, worst lane (the grid's `cell_ci_rel[cell]`).
    pub ci: f64,
}

/// A per-cell completion callback for [`run_grid_with_cell_sink`].
pub type CellSink<'a> = dyn FnMut(CellResults) + 'a;

/// [`run_grid`] over exactly `cells` (no prefilter), invoking `sink`
/// with each cell's folded value as the main-thread fold completes it
/// — the service layer's journaling/caching hook. Sink order is
/// deterministic (ascending cell index). The returned grid is
/// bit-identical to `run_grid_filtered(cells, leads, config, None)`.
///
/// Requires a fixed run count: under adaptive allocation
/// (`config.vr.adaptive`) a cell's results depend on grid-pooled pilot
/// variances, so per-cell results are not independently addressable and
/// this function panics rather than hand a sink context-dependent data.
pub fn run_grid_with_cell_sink(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    sink: &mut CellSink<'_>,
) -> GridResult {
    assert!(
        config.vr.adaptive.is_none(),
        "per-cell sinks require a fixed run count: adaptive allocation's \
         grid-pooled feedback makes cell results depend on pool composition"
    );
    let (folds, pool) = run_grid_simulated(cells, leads, config, Some(sink));
    let verdicts = vec![None; cells.len()];
    GridResult::assemble(cells, leads, config, verdicts, folds, Some(pool))
}

/// One lane's running CI estimator under the active VR mode.
///
/// The variance basis must match the estimator: under antithetic pairing
/// the per-run values are negatively correlated, so the CI comes from the
/// variance over *pair means*; under stratification from the
/// stratum-weighted fold. Using the crude per-run variance in those modes
/// would overstate (antithetic) or understate (stratified) the CI and
/// corrupt the stopping rule.
#[derive(Clone)]
enum CiTracker {
    /// Crude per-run variance (no VR).
    Plain(Summary),
    /// Variance over antithetic pair means.
    Paired(PairedSummary),
    /// Stratum-weighted fold over equal-probability strata.
    Strat(StratifiedSummary),
    /// Antithetic pairs within equal-probability strata: one paired
    /// summary per stratum, folded with weights `1/K`.
    StratPaired(Vec<PairedSummary>),
}

impl CiTracker {
    fn new(vr: &VrConfig) -> Self {
        match (vr.antithetic, vr.strata) {
            (false, 0) => Self::Plain(Summary::new()),
            (true, 0) => Self::Paired(PairedSummary::new()),
            (false, k) => Self::Strat(StratifiedSummary::equal_weights(k as usize)),
            (true, k) => Self::StratPaired(vec![PairedSummary::new(); k as usize]),
        }
    }

    /// Adds one per-run observation. Callers push in ascending run order
    /// (the fold order), which is what makes consecutive pushes of one
    /// stratum form antithetic pairs.
    fn push(&mut self, stratum: u32, x: f64) {
        match self {
            Self::Plain(s) => s.push(x),
            Self::Paired(p) => p.push(x),
            Self::Strat(s) => s.push(stratum as usize, x),
            Self::StratPaired(v) => v[stratum as usize].push(x),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Self::Plain(s) => s.mean(),
            Self::Paired(p) => p.mean(),
            Self::Strat(s) => s.mean(),
            Self::StratPaired(v) => {
                if v.iter().any(|p| p.pairs() == 0) {
                    return 0.0;
                }
                v.iter().map(PairedSummary::mean).sum::<f64>() / v.len() as f64
            }
        }
    }

    /// CI half-width of the mean, or `None` while the estimator lacks
    /// the observations to state one (e.g. a stratum with fewer than two
    /// pairs).
    fn half_width(&self) -> Option<f64> {
        match self {
            Self::Plain(s) => (s.count() >= 2).then(|| s.ci_half_width(CONFIDENCE)),
            Self::Paired(p) => (p.pairs() >= 2).then(|| p.ci_half_width(CONFIDENCE)),
            Self::Strat(s) => {
                let ready = (0..s.strata()).all(|j| s.stratum(j).count() >= 2);
                ready.then(|| s.ci_half_width(CONFIDENCE))
            }
            Self::StratPaired(v) => {
                if v.iter().any(|p| p.pairs() < 2) {
                    return None;
                }
                let w = 1.0 / v.len() as f64;
                let var: f64 = v.iter().map(|p| w * w * p.std_err() * p.std_err()).sum();
                let df: u64 = v.iter().map(|p| p.pairs() - 1).sum();
                Some(t_critical(df, CONFIDENCE) * var.sqrt())
            }
        }
    }

    /// Relative CI half-width (`half_width / |mean|`), 0 when not yet
    /// statable or degenerate.
    fn rel_ci(&self) -> f64 {
        let m = self.mean().abs();
        match self.half_width() {
            Some(hw) if m > 0.0 => hw / m,
            _ => 0.0,
        }
    }

    /// Has this lane's CI cleared the relative target?
    fn converged(&self, rel_target: f64) -> bool {
        let m = self.mean().abs();
        match self.half_width() {
            Some(hw) => m > 0.0 && hw <= rel_target * m,
            None => false,
        }
    }
}

/// The stratum of each run in the batch `[start, start + n_batch)`,
/// decided deterministically before the batch is scheduled.
///
/// Until `pooled` has a variance estimate in every stratum the schedule
/// is the static round-robin (a self-bootstrapping pilot); afterwards
/// each batch's sample slots follow the Neyman allocation of the pooled
/// per-stratum spreads. Antithetic pairs always occupy consecutive
/// (even, odd) offsets with equal strata: batches are pair-aligned and
/// every allocation block is a multiple of the pair width.
fn batch_schedule(
    start: usize,
    n_batch: usize,
    vr: &VrConfig,
    pooled: Option<&StratifiedSummary>,
) -> Vec<u32> {
    if vr.strata == 0 {
        return vec![0; n_batch];
    }
    let pair_w = if vr.antithetic { 2 } else { 1 };
    let neyman = pooled.filter(|p| (0..p.strata()).all(|j| p.stratum(j).count() >= 2));
    match neyman {
        Some(p) => {
            let alloc = p.neyman_allocation(n_batch / pair_w);
            let mut sched = Vec::with_capacity(n_batch);
            for (j, &n) in alloc.iter().enumerate() {
                sched.extend(std::iter::repeat(j as u32).take(n * pair_w));
            }
            // A final truncated batch may leave a remainder slot; pin it
            // to stratum 0 (deterministic, and weights stay exact because
            // the fold is by stratum, not by position).
            sched.resize(n_batch, 0);
            sched
        }
        None => (0..n_batch).map(|i| fixed_stratum(start + i, vr)).collect(),
    }
}

/// One pool worker per thread for sweeps of `runs` runs of every unit of
/// `plan` (the thread count follows the `runs × units` item space).
fn pool_workers<'a, 'p>(
    plan: &'p GridPlan<'a>,
    config: &RunnerConfig,
    runs: usize,
) -> Vec<GridWorker<'a, 'p>> {
    let threads = config.effective_threads_for(runs * plan.units.len());
    (0..threads).map(|_| GridWorker::with_vr(plan, config.vr)).collect()
}

/// The grid pool: executes the execution units `units` for the global
/// runs `r0 + off`, `off < strata.len()` — run `r0 + off` drawing its
/// first failure time from stratum `strata[off]` — on one work-stealing
/// thread per worker, and returns the per-run ledgers and wall times
/// indexed `lane * strata.len() + off` (`None` for lanes of units not in
/// `units`). Each worker folds the observability snapshot of every run
/// it executes into its `lane_obs` entry of each of the unit's lanes,
/// which this call resets first: after it, summing a lane's entries over
/// the workers gives the batch's observability for that lane.
///
/// Every `(lane, run)` result is deterministic in `(master, vr, run,
/// unit, stratum)` alone — worker caches and chunk interleaving never
/// reach the results — so a sub-range of runs reproduces exactly the
/// slots the same runs fill inside a full sweep. That is what makes the
/// driver's batches bit-identical to a one-shot sweep. The workers are
/// borrowed for the batch and handed back warm, so sequential batches
/// reuse their simulators and trace buffers.
fn run_pool(
    plan: &GridPlan,
    workers: &mut Vec<GridWorker>,
    master: &SimRng,
    r0: usize,
    strata: &[u32],
    units: &[usize],
) -> Vec<Option<PoolRun>> {
    let (n_runs, n_units, threads) = (strata.len(), units.len(), workers.len());
    let total = n_runs * n_units;
    let slab = ResultSlab::new(plan.n_lanes * n_runs);
    let next = AtomicUsize::new(0);
    for worker in workers.iter_mut() {
        worker.lane_obs.fill(ObsAggregate::default());
    }
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for mut worker in workers.drain(..) {
            let (slab, next) = (&slab, &next);
            handles.push(scope.spawn(move || {
                while let Some((start, end)) = claim_chunk(next, total, threads) {
                    for item in start..end {
                        // Run-major: consecutive items sweep one run's
                        // units (group-sorted), maximizing cache hits.
                        let (off, unit) = (item / n_units, units[item % n_units]);
                        let result = worker.run_unit_stratum(master, r0 + off, unit, strata[off]);
                        let lanes = &plan.units[unit].lanes;
                        for &lane in lanes {
                            worker.lane_obs[lane].push(&result.obs);
                        }
                        for &lane in &lanes[1..] {
                            let run = PoolRun {
                                ledger: result.ledger.clone(),
                                wall_secs: result.wall_secs,
                            };
                            // SAFETY(slab-claim-partition): this worker
                            // owns item (run, unit), and with it every
                            // member lane's (lane, run) slot.
                            unsafe { slab.put(lane * n_runs + off, run) };
                        }
                        let run = PoolRun {
                            ledger: result.ledger,
                            wall_secs: result.wall_secs,
                        };
                        // SAFETY(slab-claim-partition): as above.
                        unsafe { slab.put(lanes[0] * n_runs + off, run) };
                    }
                }
                worker
            }));
        }
        for handle in handles {
            // A worker panic is already fatal; re-raise it here. simlint: allow(no-unwrap-in-lib)
            workers.push(handle.join().expect("worker panicked"));
        }
    });
    slab.into_results()
}

/// The grid driver: executes every cell × model × run of `cells` in
/// sequential batches through [`run_pool`], folding each batch on the
/// main thread.
///
/// A fixed run count is the one-batch schedule. Adaptive allocation
/// (`config.vr.adaptive`) is the multi-batch schedule: after each batch
/// it stops every cell whose lanes' CIs cleared the target, and it
/// allocates the next batch's strata from the pooled per-stratum
/// spreads.
///
/// **Determinism.** Within a batch, every `(run, unit)` item is
/// deterministic in `(master, run, unit, stratum)` alone, and the batch's
/// stratum schedule is fixed before any worker starts. Between batches,
/// all feedback — per-cell stopping, the Neyman schedule — is computed
/// from the main-thread fold, which consumes the slab in (cell, model,
/// run) order regardless of which worker produced each slot. Scheduling
/// races therefore cannot reach any statistic that decides what runs
/// next, and the whole procedure — including the adaptive per-cell run
/// counts — is bit-identical for a given `(seed, config)` across any
/// thread count (pinned by the VR determinism tests and the adaptive
/// golden digest in `tests/trace_determinism.rs`).
///
/// A stopped cell's lanes stop folding; its execution units keep running
/// only while a still-active cell shares them (unit activity is the OR
/// of its member lanes' cells). `sink` sees each cell once its batch is
/// folded, so it requires the one-batch schedule (see
/// [`run_grid_with_cell_sink`]).
/// Returns each cell's `(campaign, ci, runs)` and the pool's counts.
fn run_grid_simulated(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    mut sink: Option<&mut CellSink<'_>>,
) -> (Vec<(CampaignResult, f64, usize)>, PoolCounts) {
    assert!(config.runs > 0, "at least one run required");
    debug_assert!(sink.is_none() || config.vr.adaptive.is_none());
    let vr = config.vr;
    let plan = GridPlan::new(cells, leads);
    let n_units = plan.units.len();
    // Pair-align the batch geometry so antithetic pairs never straddle a
    // batch boundary.
    let align = |n: usize| -> usize {
        if vr.antithetic {
            (n.max(1) + 1) & !1
        } else {
            n.max(1)
        }
    };
    let (batch, max_runs) = match vr.adaptive {
        Some(a) => {
            let batch = align(a.batch);
            (batch, align(a.max_runs).max(batch))
        }
        None => (config.runs, config.runs),
    };
    let mut workers = pool_workers(&plan, config, batch.min(max_runs));
    let master = SimRng::seed_from(config.base_seed);

    // lane → cell lookup for unit-activity checks.
    let mut lane_cell = vec![0usize; plan.n_lanes];
    for (c, cell) in cells.iter().enumerate() {
        for m in 0..cell.models.len() {
            lane_cell[plan.lane(c, m)] = c;
        }
    }

    let mut cell_active = vec![true; cells.len()];
    let mut cell_runs = vec![0usize; cells.len()];
    let mut lanes: Vec<LaneFold> = (0..plan.n_lanes).map(|_| LaneFold::new(&vr)).collect();
    // Pooled per-stratum spread of the primary metric across every lane,
    // driving the next batch's Neyman schedule. Grid-level rather than
    // per-cell because a run's stratum is a property of its *shared*
    // trace — one schedule must serve every cell in the batch.
    let mut pooled = (vr.strata > 0 && vr.adaptive.is_some())
        .then(|| StratifiedSummary::equal_weights(vr.strata as usize));

    let mut start = 0usize;
    while start < max_runs && cell_active.iter().any(|&a| a) {
        let n_batch = batch.min(max_runs - start);
        let schedule = batch_schedule(start, n_batch, &vr, pooled.as_ref());
        let active_units: Vec<usize> = (0..n_units)
            .filter(|&u| plan.units[u].lanes.iter().any(|&l| cell_active[lane_cell[l]]))
            .collect();
        let slots = run_pool(&plan, &mut workers, &master, start, &schedule, &active_units);

        // Deterministic main-thread fold, (cell, model, run) order —
        // the only place statistics accumulate, and the only input to
        // the stopping and scheduling decisions below.
        for (c, cell) in cells.iter().enumerate() {
            if !cell_active[c] {
                continue;
            }
            let lane0 = plan.lane(c, 0);
            let cell_slots = &slots[lane0 * n_batch..(lane0 + cell.models.len()) * n_batch];
            for (m, lane_slots) in cell_slots.chunks(n_batch).enumerate() {
                let lane = &mut lanes[lane0 + m];
                for (slot, &stratum) in lane_slots.iter().zip(&schedule) {
                    // Active cells belong to active units, which the
                    // claim counter exhausts. simlint: allow(no-unwrap-in-lib)
                    let r = slot.as_ref().expect("every active unit produced a result");
                    lane.push(stratum, &r.ledger, r.wall_secs);
                    if let Some(p) = pooled.as_mut() {
                        p.push(stratum as usize, r.ledger.total_overhead_secs() / 3600.0);
                    }
                }
                for w in &workers {
                    lane.agg.obs.merge(&w.lane_obs[lane0 + m]);
                }
            }
            if let Some(sink) = sink.as_mut() {
                // The one-batch schedule covers every run, so the cell
                // is complete here. Only a sink pays for the lane
                // clones; the grid below finishes the lanes themselves.
                let done = lanes[lane0..lane0 + cell.models.len()].iter().cloned();
                let (campaign, ci) = finish_cell(cell, done, workers.len());
                sink(CellResults { cell: c, campaign, ci });
            }
            cell_runs[c] += n_batch;
        }
        start += n_batch;

        if let Some(a) = vr.adaptive {
            for (c, cell) in cells.iter().enumerate() {
                if !cell_active[c] || cell_runs[c] < 2 * batch {
                    continue;
                }
                let lane0 = plan.lane(c, 0);
                let done = lanes[lane0..lane0 + cell.models.len()]
                    .iter()
                    .all(|lane| lane.converged(a.rel_target));
                if done {
                    cell_active[c] = false;
                }
            }
        }
    }

    let threads = workers.len();
    let mut lanes = lanes.into_iter();
    let folds = cells
        .iter()
        .zip(cell_runs)
        .map(|(cell, runs)| {
            let (campaign, ci) = finish_cell(cell, lanes.by_ref().take(cell.models.len()), threads);
            (campaign, ci, runs)
        })
        .collect();
    let pool = PoolCounts {
        threads,
        trace_groups: plan.trace_groups(),
        units: plan.units(),
        trace_generations: workers.iter().map(|w| w.trace_generations).sum(),
        trace_reuses: workers.iter().map(|w| w.trace_reuses).sum(),
    };
    (folds, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_workloads::Application;

    fn app_params(model: ModelKind, app: &str) -> SimParams {
        SimParams::paper_defaults(model, Application::by_name(app).unwrap())
    }

    fn digest(a: &Aggregate) -> (u64, u64, u64) {
        (
            a.total_hours.mean().to_bits(),
            a.ft_ratio_pooled().to_bits(),
            a.failures.sum().to_bits(),
        )
    }

    #[test]
    fn run_many_aggregates_requested_runs() {
        let leads = LeadTimeModel::desh_default();
        let agg = run_many(
            &app_params(ModelKind::B, "POP"),
            &leads,
            &RunnerConfig::new(8, 42),
        );
        assert_eq!(agg.runs(), 8);
        assert!(agg.total_hours.mean() > 0.0);
    }

    #[test]
    fn deterministic_regardless_of_thread_count() {
        let leads = LeadTimeModel::desh_default();
        let mut one = RunnerConfig::new(6, 7);
        one.threads = 1;
        let mut four = RunnerConfig::new(6, 7);
        four.threads = 4;
        let a = run_many(&app_params(ModelKind::P2, "XGC"), &leads, &one);
        let b = run_many(&app_params(ModelKind::P2, "XGC"), &leads, &four);
        assert_eq!(a.runs(), b.runs());
        assert!((a.total_hours.mean() - b.total_hours.mean()).abs() < 1e-9);
        assert!((a.ft_ratio_mean() - b.ft_ratio_mean()).abs() < 1e-12);
    }

    #[test]
    fn paired_campaign_shares_traces() {
        let leads = LeadTimeModel::desh_default();
        // XGC sees ~2.7 failures per 240 h run under Titan thinning —
        // enough for the paired comparison to be meaningful at 20 runs.
        let campaign = run_models(
            &app_params(ModelKind::B, "XGC"),
            &[ModelKind::B, ModelKind::P2],
            &leads,
            &RunnerConfig::new(20, 11),
        );
        let b = campaign.get(ModelKind::B).unwrap();
        let p2 = campaign.get(ModelKind::P2).unwrap();
        // Identical traces → identical failure counts.
        assert_eq!(b.failures.mean(), p2.failures.mean());
        assert!(b.failures.mean() > 1.0, "need failures for the comparison");
        assert!(campaign.get(ModelKind::M1).is_none());
        // P2 mitigates; B does not.
        assert!(p2.ft_ratio_mean() > b.ft_ratio_mean());
        let red = campaign.reduction(ModelKind::P2, ModelKind::B).unwrap();
        assert!(red > 0.0, "P2 must reduce overhead vs B, got {red}%");
    }

    #[test]
    fn chunk_claiming_covers_every_item_exactly_once() {
        // Drive claim_chunk directly: any threads/items combination must
        // partition 0..total into disjoint, exhaustive chunks — including
        // grid-sized index spaces far beyond a single cell's run count.
        for (total, threads) in [(1, 1), (7, 3), (100, 8), (1000, 13), (15_000, 32)] {
            let next = AtomicUsize::new(0);
            let mut covered = vec![false; total];
            while let Some((start, end)) = claim_chunk(&next, total, threads) {
                assert!(start < end && end <= total);
                assert!(end - start <= 64, "chunks stay bounded");
                for slot in &mut covered[start..end] {
                    assert!(!*slot, "item claimed twice");
                    *slot = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "items left unclaimed");
        }
    }

    #[test]
    fn chunk_claiming_tail_is_single_item() {
        // Once the tail is within two items per thread, every claim is a
        // single item — the worst-case straggle behind an otherwise idle
        // pool is one item, independent of the index-space size.
        let (total, threads) = (10_000, 16);
        let next = AtomicUsize::new(0);
        while let Some((start, end)) = claim_chunk(&next, total, threads) {
            let remaining_before = total - start;
            if remaining_before <= threads * 2 {
                assert_eq!(end - start, 1, "tail claims must be single items");
            }
        }
    }

    #[test]
    fn campaign_reports_thread_count() {
        let leads = LeadTimeModel::desh_default();
        let mut cfg = RunnerConfig::new(4, 3);
        cfg.threads = 3;
        let campaign = run_models(
            &app_params(ModelKind::B, "POP"),
            &[ModelKind::B],
            &leads,
            &cfg,
        );
        assert_eq!(campaign.threads, 3);
        // The clamp caps threads at the item count.
        cfg.threads = 64;
        let campaign = run_models(
            &app_params(ModelKind::B, "POP"),
            &[ModelKind::B],
            &leads,
            &cfg,
        );
        assert_eq!(campaign.threads, 4);
    }

    #[test]
    fn vr_spec_parses_modes_and_rejects_typos() {
        assert_eq!(parse_vr_spec(""), Some(VrConfig::default()));
        let a = parse_vr_spec("antithetic").unwrap();
        assert!(a.antithetic && a.strata == 0 && a.adaptive.is_none());
        let s = parse_vr_spec("stratified").unwrap();
        assert_eq!(s.strata, 8);
        let both = parse_vr_spec("antithetic,stratified:4").unwrap();
        assert!(both.antithetic);
        assert_eq!(both.strata, 4);
        assert_eq!(parse_vr_spec("stratified:0"), None);
        assert_eq!(parse_vr_spec("antithetc"), None, "typos must not half-apply");
    }

    #[test]
    fn matches_serial_fresh_build_reference() {
        // The grid engine must reproduce the pre-refactor semantics
        // bit-for-bit: run i draws from master.split(i), the trace is
        // generated first, and every model runs against a fresh clone
        // with bg stream split(0xB6).
        let leads = LeadTimeModel::desh_default();
        let base = app_params(ModelKind::B, "XGC");
        let models = [ModelKind::B, ModelKind::P2];
        let cfg = RunnerConfig {
            runs: 12,
            base_seed: 41,
            threads: 3,
            vr: VrConfig::default(),
        };
        let campaign = run_models(&base, &models, &leads, &cfg);

        let master = SimRng::seed_from(cfg.base_seed);
        let tcfg = trace_config(&base);
        let mut reference: Vec<Aggregate> = models.iter().map(|_| Aggregate::new()).collect();
        for run in 0..cfg.runs {
            let mut rng = master.split(run as u64);
            let trace = FailureTrace::generate(&tcfg, &leads, &base.predictor, &mut rng);
            let bg_rng = rng.split(0xB6);
            for (m, &model) in models.iter().enumerate() {
                let mut p = base.clone();
                p.model = model;
                let result = CrSim::new(p, trace.clone(), &leads)
                    .with_bg_rng(bg_rng.clone())
                    .run();
                reference[m].push(&result);
            }
        }
        for (agg, reference) in campaign.aggregates.iter().zip(&reference) {
            assert_eq!(agg.runs(), reference.runs());
            assert_eq!(
                agg.total_hours.mean().to_bits(),
                reference.total_hours.mean().to_bits(),
                "campaign diverged from the serial fresh-build reference"
            );
            assert_eq!(
                agg.ft_ratio_pooled().to_bits(),
                reference.ft_ratio_pooled().to_bits()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let leads = LeadTimeModel::desh_default();
        let a = run_many(
            &app_params(ModelKind::B, "XGC"),
            &leads,
            &RunnerConfig::new(5, 1),
        );
        let b = run_many(
            &app_params(ModelKind::B, "XGC"),
            &leads,
            &RunnerConfig::new(5, 2),
        );
        assert!(
            (a.failures.mean() - b.failures.mean()).abs() > 0.0
                || (a.total_hours.mean() - b.total_hours.mean()).abs() > 1e-12
        );
    }

    /// A fig4-shaped sweep: lead scales × [B, P2] for one app.
    fn scale_sweep_cells(app: &str, scales: &[f64]) -> Vec<GridCell> {
        scales
            .iter()
            .map(|&s| {
                let mut p = app_params(ModelKind::B, app);
                p.lead_scale = s;
                GridCell::new(p, &[ModelKind::B, ModelKind::P2])
                    .with_label(format!("{app}@{s}"))
            })
            .collect()
    }

    #[test]
    fn grid_cells_match_standalone_campaigns_bit_for_bit() {
        // The core equivalence contract, across every sharing mechanism:
        // multi-view lead-scale groups, prediction-blind dedup, and a
        // same-config pair (single-group, multiple cells).
        let leads = LeadTimeModel::desh_default();
        let mut cells = scale_sweep_cells("XGC", &[1.5, 1.0, 0.5]);
        // An α-sweep mate of the 1.0 cell: same trace config, different
        // (non-trace) simulation parameter.
        let mut alpha = app_params(ModelKind::B, "XGC");
        alpha.lm_transfer_factor = 6.0;
        cells.push(GridCell::new(alpha, &[ModelKind::P2]).with_label("alpha6"));
        let cfg = RunnerConfig {
            runs: 10,
            base_seed: 23,
            threads: 3,
            vr: VrConfig::default(),
        };
        let grid = run_grid(&cells, &leads, &cfg);
        assert_eq!(grid.cells.len(), 4);
        // 3 scale cells in one multi-view group (+ the α mate, same
        // group): one trace group total.
        assert_eq!(grid.trace_groups, 1);
        // 7 lanes, B deduplicated across the 3 scale cells → 5 units.
        assert_eq!(grid.lanes, 7);
        assert_eq!(grid.units, 5);
        for (cell, campaign) in cells.iter().zip(&grid.cells) {
            let standalone = run_models(&cell.params, &cell.models, &leads, &cfg);
            for (a, b) in campaign.aggregates.iter().zip(&standalone.aggregates) {
                assert_eq!(digest(a), digest(b), "cell {} diverged", cell.label);
            }
        }
        // Labels resolve.
        assert!(grid.by_label("alpha6").is_some());
        assert!(grid.by_label("nope").is_none());
    }

    #[test]
    fn grid_is_thread_count_invariant() {
        let leads = LeadTimeModel::desh_default();
        let cells = scale_sweep_cells("XGC", &[1.1, 0.9]);
        let mut digests = Vec::new();
        for threads in [1, 3, 8] {
            let cfg = RunnerConfig {
                runs: 9,
                base_seed: 5,
                threads,
                vr: VrConfig::default(),
            };
            let grid = run_grid(&cells, &leads, &cfg);
            let d: Vec<_> = grid
                .cells
                .iter()
                .flat_map(|c| c.aggregates.iter().map(digest))
                .collect();
            digests.push(d);
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn pool_observability_matches_a_per_run_fold() {
        // The pool keeps only ledgers per slot and reduces each run's
        // observability snapshot in the worker that ran it. Replaying the
        // same runs one by one through `CellFold` (which folds whole
        // `RunResult`s) must give the same aggregates, observability
        // included, for lanes that share a unit (the B lanes) and lanes
        // that do not, under a VR mode and on two threads.
        let leads = LeadTimeModel::desh_default();
        let cells = scale_sweep_cells("XGC", &[1.5, 0.5]);
        let mut config = RunnerConfig::new(6, 9);
        config.threads = 2;
        config.vr = parse_vr_spec("antithetic").unwrap();
        let grid = run_grid_filtered(&cells, &leads, &config, None);
        let plan = GridPlan::new(&cells, &leads);
        assert!(plan.units() < plan.lanes(), "some lanes share a unit");
        let master = SimRng::seed_from(config.base_seed);
        let mut worker = GridWorker::with_vr(&plan, config.vr);
        for (c, cell) in cells.iter().enumerate() {
            let mut fold = CellFold::new(cell, &config, grid.threads);
            for m in 0..cell.models.len() {
                let lane = plan.lane(c, m);
                let unit = plan.units.iter().position(|u| u.lanes.contains(&lane)).unwrap();
                for run in 0..config.runs {
                    fold.push(&worker.run_unit(&master, run, unit));
                }
            }
            let (want, ci) = fold.finish();
            assert_eq!(ci.to_bits(), grid.cell_ci_rel[c].to_bits());
            for (got, want) in grid.cells[c].aggregates.iter().zip(&want.aggregates) {
                assert_eq!(got.obs, want.obs, "cell {c}");
                assert!(got.obs.lat_bb.count() > 0);
                assert_eq!(digest(got), digest(want), "cell {c}");
            }
        }
    }

    #[test]
    fn lead_blind_dedup_is_bit_identical_and_counted() {
        // Two B-only cells at different lead scales collapse to one unit;
        // their aggregates are bit-identical to each other *and* to
        // standalone campaigns (model B never reads a lead).
        let leads = LeadTimeModel::desh_default();
        let cells = [
            {
                let mut p = app_params(ModelKind::B, "POP");
                p.lead_scale = 1.5;
                GridCell::new(p, &[ModelKind::B])
            },
            {
                let mut p = app_params(ModelKind::B, "POP");
                p.lead_scale = 0.5;
                GridCell::new(p, &[ModelKind::B])
            },
        ];
        let cfg = RunnerConfig::new(8, 77);
        let grid = run_grid(&cells, &leads, &cfg);
        assert_eq!(grid.units, 1, "B lanes must share one execution unit");
        assert_eq!(grid.lanes, 2);
        let a = &grid.cells[0].aggregates[0];
        let b = &grid.cells[1].aggregates[0];
        assert_eq!(digest(a), digest(b));
        let standalone = run_models(&cells[1].params, &[ModelKind::B], &leads, &cfg);
        assert_eq!(digest(b), digest(&standalone.aggregates[0]));
    }

    #[test]
    fn dedup_requires_equal_non_lead_params() {
        // A differing non-lead parameter (here α, which B ignores in
        // practice but equality cannot prove harmless) blocks dedup.
        let leads = LeadTimeModel::desh_default();
        let mut a = app_params(ModelKind::B, "POP");
        a.lead_scale = 1.5;
        let mut b = app_params(ModelKind::B, "POP");
        b.lead_scale = 0.5;
        b.drain_concurrency = 256;
        let cells = [
            GridCell::new(a, &[ModelKind::B]),
            GridCell::new(b, &[ModelKind::B]),
        ];
        let plan = GridPlan::new(&cells, &leads);
        assert_eq!(plan.units(), 2, "non-lead param difference blocks dedup");
        assert_eq!(plan.trace_groups(), 1, "trace sharing is still fine");
    }

    #[test]
    fn trace_cache_accounting_covers_all_units_single_thread() {
        let leads = LeadTimeModel::desh_default();
        let cells = scale_sweep_cells("XGC", &[1.5, 1.0, 0.5]);
        let mut cfg = RunnerConfig::new(6, 3);
        cfg.threads = 1;
        let grid = run_grid(&cells, &leads, &cfg);
        // One generation per (group, run) on a single thread; every other
        // unit execution is a hit.
        assert_eq!(grid.trace_generations, (grid.trace_groups * 6) as u64);
        assert_eq!(
            grid.trace_generations + grid.trace_reuses,
            (grid.units * 6) as u64
        );
        assert!(grid.trace_cache_hit_rate() > 0.5);
        assert!(grid.meta_json("t").contains("\"trace_groups\":1"));
    }

    #[test]
    fn distinct_predictors_do_not_share_traces() {
        // Prediction draws happen during generation, so cells with
        // different predictors must land in different groups even when
        // the rest of the trace config matches.
        let leads = LeadTimeModel::desh_default();
        let a = app_params(ModelKind::B, "XGC");
        let mut b = app_params(ModelKind::B, "XGC");
        b.predictor = b.predictor.with_false_negative_rate(0.5);
        let cells = [
            GridCell::new(a, &[ModelKind::B]),
            GridCell::new(b, &[ModelKind::B]),
        ];
        let plan = GridPlan::new(&cells, &leads);
        assert_eq!(plan.trace_groups(), 2);
        assert_eq!(plan.units(), 2);
    }

    const CROSSOVER: &[ModelKind] = &[ModelKind::B, ModelKind::M2, ModelKind::P1];

    #[test]
    fn prefilter_splices_pruned_and_simulated_cells_in_input_order() {
        let leads = LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(4, 9);
        // CHIMERA's crossover is analytically decidable (p-ckpt, ~24 %
        // clearance); the XGC [B, P2] cell has a hybrid model and must
        // simulate.
        let cells = [
            GridCell::new(app_params(ModelKind::B, "CHIMERA"), CROSSOVER),
            GridCell::new(app_params(ModelKind::B, "XGC"), &[ModelKind::B, ModelKind::P2]),
        ];
        let filtered = run_grid_filtered(&cells, &leads, &cfg, Some(&Prefilter::default()));
        assert_eq!(filtered.cells_pruned, 1);
        assert_eq!(filtered.cells_simulated(), 1);
        let verdict = filtered.analytic_verdicts[0].expect("CHIMERA is decidable");
        assert!(verdict.pckpt_wins);
        assert!(filtered.analytic_verdicts[1].is_none());

        // The pruned cell keeps its slot, label and model list but has
        // no aggregates — get() answers None rather than panicking.
        assert_eq!(filtered.labels, vec!["CHIMERA", "XGC"]);
        assert_eq!(filtered.cell(0).models, CROSSOVER.to_vec());
        assert!(filtered.cell(0).aggregates.is_empty());
        assert!(filtered.cell(0).get(ModelKind::P1).is_none());

        // The surviving cell is bit-identical to the unfiltered sweep.
        let unfiltered = run_grid_filtered(&cells, &leads, &cfg, None);
        assert_eq!(unfiltered.cells_pruned, 0);
        for (f, u) in filtered
            .cell(1)
            .aggregates
            .iter()
            .zip(&unfiltered.cell(1).aggregates)
        {
            assert_eq!(digest(f), digest(u));
        }

        let meta = filtered.meta_json("prefilter_test");
        assert!(meta.contains("\"prefilter_pruned\":1"), "{meta}");
        assert!(meta.contains("\"prefilter_simulated\":1"), "{meta}");
    }

    #[test]
    fn allocation_json_reports_totals_and_rows() {
        let leads = LeadTimeModel::desh_default();
        let cells = [
            GridCell::new(app_params(ModelKind::B, "POP"), &[ModelKind::B]).with_label("POP@1.5"),
            GridCell::new(app_params(ModelKind::B, "POP"), &[ModelKind::B]).with_label("POP@0.5"),
            GridCell::new(app_params(ModelKind::B, "POP"), &[ModelKind::B]).with_label("pruned"),
        ];
        let campaign = || CampaignResult {
            models: vec![ModelKind::B],
            aggregates: vec![Aggregate::new()],
            threads: 1,
        };
        let verdict = AnalyticVerdict {
            pckpt_wins: false,
            sigma: 0.9,
            alpha: 4.0,
            clearance: 0.5,
        };
        let grid = GridResult::assemble(
            &cells,
            &leads,
            &RunnerConfig::new(256, 1),
            vec![None, None, Some(verdict)],
            vec![(campaign(), 0.008, 64), (campaign(), 0.010, 256)],
            None,
        );
        let j = grid.allocation_json("adaptive_pop");
        assert!(j.contains("\"total_runs\":320"), "{j}");
        assert!(j.contains("\"runs_min\":64"), "{j}");
        assert!(j.contains("\"runs_max\":256"), "{j}");
        assert!(j.contains("\"worst_ci_rel\":0.010000"), "{j}");
        assert!(j.contains("[\"POP@0.5\",256,0.010000]"), "{j}");
        assert!(j.contains("[\"pruned\",0,0.000000]"), "{j}");
        // The grid metadata reports the same allocation summary.
        let meta = grid.meta_json("adaptive_pop_grid");
        for key in [
            "\"total_runs\":320",
            "\"runs_min\":64",
            "\"worst_ci_rel\":0.010000",
        ] {
            assert!(meta.contains(key), "{meta}");
        }
    }

    #[test]
    fn fully_pruned_grid_skips_the_pool_entirely() {
        let leads = LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(4, 9);
        // CHIMERA → p-ckpt, POP (σ at the 0.90 cap) → LM: both decided.
        let cells = [
            GridCell::new(app_params(ModelKind::B, "CHIMERA"), CROSSOVER),
            GridCell::new(app_params(ModelKind::B, "POP"), CROSSOVER),
        ];
        let grid = run_grid_filtered(&cells, &leads, &cfg, Some(&Prefilter::default()));
        assert_eq!(grid.cells_pruned, 2);
        assert_eq!(grid.cells_simulated(), 0);
        assert_eq!((grid.lanes, grid.units, grid.trace_groups), (0, 0, 0));
        assert_eq!(grid.trace_generations + grid.trace_reuses, 0);
        assert!(grid.analytic_verdicts[0].unwrap().pckpt_wins);
        assert!(!grid.analytic_verdicts[1].unwrap().pckpt_wins);
        assert!(grid.cells.iter().all(|c| c.aggregates.is_empty()));
    }

    fn vr_cfg(runs: usize, seed: u64, threads: usize, vr: VrConfig) -> RunnerConfig {
        RunnerConfig {
            runs,
            base_seed: seed,
            threads,
            vr,
        }
    }

    #[test]
    fn vr_modes_are_thread_count_invariant() {
        // Antithetic, stratified, combined, and adaptive: each mode's
        // full grid digest — including adaptive per-cell run counts —
        // must be identical across 1/3/8 threads.
        let leads = LeadTimeModel::desh_default();
        let cells = scale_sweep_cells("XGC", &[1.1, 0.9]);
        let modes = [
            VrConfig {
                antithetic: true,
                ..VrConfig::default()
            },
            VrConfig {
                strata: 4,
                ..VrConfig::default()
            },
            VrConfig {
                antithetic: true,
                strata: 2,
                ..VrConfig::default()
            },
            VrConfig {
                antithetic: true,
                adaptive: Some(AdaptiveConfig {
                    rel_target: 0.05,
                    batch: 8,
                    max_runs: 48,
                }),
                ..VrConfig::default()
            },
        ];
        for vr in modes {
            let mut digests = Vec::new();
            for threads in [1, 3, 8] {
                let grid = run_grid(&cells, &leads, &vr_cfg(16, 5, threads, vr));
                let d: Vec<_> = grid
                    .cells
                    .iter()
                    .flat_map(|c| c.aggregates.iter().map(digest))
                    .collect();
                digests.push((grid.cell_runs.clone(), d));
            }
            assert_eq!(digests[0], digests[1], "{vr:?}");
            assert_eq!(digests[0], digests[2], "{vr:?}");
        }
    }

    #[test]
    fn antithetic_mode_produces_exact_run_counts() {
        // Pair members replay the same stream mirrored (uniforms
        // reflected, bounded integer draws reversed), which anti-
        // correlates their thinning accepts; tests/variance_reduction.rs
        // pins the resulting CI tightening. Here, sanity-check the
        // machinery end to end: antithetic runs still produce valid
        // results and the run count is exact.
        let leads = LeadTimeModel::desh_default();
        let cells = [GridCell::new(
            app_params(ModelKind::B, "XGC"),
            &[ModelKind::B],
        )];
        let vr = VrConfig {
            antithetic: true,
            ..VrConfig::default()
        };
        let grid = run_grid(&cells, &leads, &vr_cfg(32, 9, 2, vr));
        let agg = &grid.cells[0].aggregates[0];
        assert_eq!(agg.runs(), 32);
        assert!(agg.total_hours.mean() > 0.0);
        assert_eq!(grid.cell_runs, vec![32]);
    }

    #[test]
    fn adaptive_mode_stops_cells_individually_and_respects_the_cap() {
        let leads = LeadTimeModel::desh_default();
        // A loose target converges fast; a tight one runs to the cap.
        let cells = scale_sweep_cells("XGC", &[1.5, 0.5]);
        let loose = VrConfig {
            adaptive: Some(AdaptiveConfig {
                rel_target: 0.5,
                batch: 8,
                max_runs: 64,
            }),
            ..VrConfig::default()
        };
        let grid = run_grid(&cells, &leads, &vr_cfg(64, 3, 2, loose));
        // ≥ 2 batches before any stop; every cell's count is a batch
        // multiple and within the cap.
        for (&r, campaign) in grid.cell_runs.iter().zip(&grid.cells) {
            assert!(r >= 16 && r <= 64 && r % 8 == 0, "cell ran {r}");
            for a in &campaign.aggregates {
                assert_eq!(a.runs() as usize, r, "aggregate matches cell_runs");
            }
        }
        assert_eq!(grid.runs_per_cell, *grid.cell_runs.iter().max().unwrap());
        assert!(grid.cell_runs.iter().any(|&r| r < 64), "loose target stops early");

        let tight = VrConfig {
            adaptive: Some(AdaptiveConfig {
                rel_target: 1e-6,
                batch: 8,
                max_runs: 24,
            }),
            ..VrConfig::default()
        };
        let grid = run_grid(&cells, &leads, &vr_cfg(24, 3, 2, tight));
        assert_eq!(grid.cell_runs, vec![24, 24], "unreachable target runs to cap");
        assert!(grid.worst_ci_rel() > 1e-6);
        let meta = grid.meta_json("vr_test");
        assert!(meta.contains("\"total_runs\":48"), "{meta}");
        assert!(meta.contains("\"runs_min\":24"), "{meta}");
    }

    #[test]
    fn stratified_fixed_mode_balances_strata_round_robin() {
        // 12 runs over 4 strata → each stratum holds exactly 3 runs of
        // the lane tracker; verify through the reported rel CI being
        // finite and the aggregate holding all runs.
        let leads = LeadTimeModel::desh_default();
        let cells = [GridCell::new(
            app_params(ModelKind::B, "POP"),
            &[ModelKind::B],
        )];
        let vr = VrConfig {
            strata: 4,
            ..VrConfig::default()
        };
        let grid = run_grid(&cells, &leads, &vr_cfg(12, 17, 2, vr));
        assert_eq!(grid.cells[0].aggregates[0].runs(), 12);
        assert!(grid.cell_ci_rel[0] > 0.0, "stratified CI is statable");
    }

    #[test]
    fn batch_schedule_is_pair_aligned_and_exhaustive() {
        let vr = VrConfig {
            antithetic: true,
            strata: 3,
            ..VrConfig::default()
        };
        // Pilot (no pooled variance): pairs round-robin the strata.
        let sched = batch_schedule(0, 12, &vr, None);
        assert_eq!(sched.len(), 12);
        for p in 0..6 {
            assert_eq!(sched[2 * p], sched[2 * p + 1], "pair members share a stratum");
        }
        // Neyman: all samples flow to the only-variance stratum, blocks
        // stay pair-aligned.
        let mut pooled = StratifiedSummary::equal_weights(3);
        for i in 0..8 {
            pooled.push(0, i as f64); // spread
            pooled.push(1, 1.0); // constant
            pooled.push(2, 1.0); // constant
        }
        let sched = batch_schedule(12, 8, &vr, Some(&pooled));
        assert_eq!(sched, vec![0; 8], "all slots go to the spread stratum");
    }

    #[test]
    fn no_prefilter_means_no_pruning_anywhere() {
        let leads = LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(2, 5);
        let cells = [GridCell::new(app_params(ModelKind::B, "CHIMERA"), CROSSOVER)];
        let grid = run_grid_filtered(&cells, &leads, &cfg, None);
        assert_eq!(grid.cells_pruned, 0);
        assert!(grid.analytic_verdicts.iter().all(|v| v.is_none()));
        assert_eq!(grid.cell(0).aggregates.len(), CROSSOVER.len());
    }
}
