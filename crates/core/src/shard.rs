//! Process-sharding of grid sweeps with a bit-identical coordinator
//! merge.
//!
//! A sharded sweep splits a grid's `(cell × run)` space into shards,
//! executes each shard in a subprocess (`pckpt shard`, or any launcher
//! command that ends up calling [`run_shard_child`]), and folds the
//! returned result frames on the coordinator in the exact `(cell,
//! model, run)` order the single-process fold uses — so the merged
//! campaign is **bit-identical** to [`run_grid`](crate::runner::run_grid)
//! (pinned by `tests/grid_equivalence.rs` and the golden digests in
//! `tests/trace_determinism.rs`).
//!
//! ### Why the merge is exact
//!
//! Every `(lane, run)` result of the pool is deterministic in
//! `(base_seed, vr, run, unit)` alone (see `run_pool` in
//! [`runner`](crate::runner)), so a child executing global runs
//! `[r0, r1)` over a subset of cells produces bit-identical
//! [`RunResult`]s to the same runs inside a full single-process sweep —
//! provided the subset keeps each trace group intact (trace sharing
//! never crosses groups) and the child rebuilds the exact same survivor
//! cells. The planner therefore splits along two axes only: contiguous
//! global-run ranges (antithetic pairs never straddle a boundary) and
//! whole trace groups. Frames carry raw per-`(lane, run)` results; the
//! coordinator replays the single-process push sequence over them
//! through the same lane fold, so every aggregate and CI tracker sees
//! the identical float stream.
//!
//! ### Failure handling
//!
//! A shard that exits non-zero, writes a truncated or corrupted frame,
//! or exceeds the timeout is re-executed deterministically (same
//! geometry, same seed ⇒ same frame) up to
//! [`ShardOptions::max_attempts`]; a persistently failing shard aborts
//! the sweep with an actionable error instead of hanging. The
//! `PCKPT_SHARD_FAIL=<shard>:<mode>[:always]` hook injects these
//! failures in tests (`kill`, `truncate`, `baddigest`, `hang`).

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use pckpt_failure::LeadTimeModel;

use crate::fingerprint::Canon;
use crate::frames::{
    check_seal, decode_run_result, encode_run_result, get_u16, get_u32, get_u64, put_u16, put_u32,
    put_u64, seal, FRAME_VERSION,
};
use crate::metrics::RunResult;
use crate::prefilter::Prefilter;
use crate::runner::{
    batch_schedule, fixed_stratum, pool_workers, run_pool, simulated_grid, splice_pruned,
    vr_env_spec, GridCell, GridPlan, GridResult, LaneFold, RunnerConfig, ShardMeta, VrConfig,
};
use pckpt_simrng::SimRng;

/// Frame magic: `"PKFR"` little-endian.
const FRAME_MAGIC: u32 = 0x5246_4b50;
/// Coordinator poll interval, milliseconds (counted polls substitute for
/// wall-clock timeouts, keeping the simulator free of clock reads).
const POLL_MS: u64 = 5;

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

/// One shard's slice of the `(cell × run)` space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Shard index (`chunk-of-groups × run_splits + run-split`).
    pub index: usize,
    /// Ascending survivor-cell indices this shard simulates (every cell
    /// whose trace group falls in the shard's group chunk).
    pub cells: Vec<usize>,
    /// First global run (inclusive).
    pub run_start: usize,
    /// Last global run (exclusive).
    pub run_end: usize,
}

/// The deterministic shard geometry: contiguous balanced global-run
/// ranges × contiguous balanced trace-group chunks.
///
/// Both axes preserve exactness: run ranges are aligned to antithetic
/// pair width so mirrored runs stay together, and group chunks keep
/// every trace group's cells on one shard so cross-cell trace sharing
/// survives the split. The geometry is a pure function of
/// `(requested, runs, n_groups, vr)`, and children receive it verbatim
/// (`PCKPT_SHARD=<index>/<run_splits>x<group_splits>`) rather than
/// re-deriving it from a shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Splits along the run axis.
    pub run_splits: usize,
    /// Splits along the trace-group axis.
    pub group_splits: usize,
    run_bounds: Vec<usize>,
    group_bounds: Vec<usize>,
}

/// `total` split into `parts` contiguous chunks whose sizes differ by at
/// most one (the first `total % parts` chunks get the extra item).
fn balanced_bounds(total: usize, parts: usize) -> Vec<usize> {
    let (q, r) = (total / parts, total % parts);
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    let mut at = 0;
    for i in 0..parts {
        at += q + usize::from(i < r);
        bounds.push(at);
    }
    bounds
}

impl ShardPlan {
    /// Plans at most `requested` shards over `runs` global runs and
    /// `n_groups` trace groups under `vr`. The actual shard count
    /// (`run_splits × group_splits`) never exceeds the request and both
    /// axes are clamped so every shard gets at least one run block and
    /// one trace group.
    pub fn new(requested: usize, runs: usize, n_groups: usize, vr: &VrConfig) -> Self {
        let pair_w = if vr.antithetic { 2 } else { 1 };
        let blocks = runs.div_ceil(pair_w);
        let run_splits = requested.min(blocks).max(1);
        let group_splits = (requested / run_splits).min(n_groups).max(1);
        // Clamps keep both splits within their axes.
        Self::from_geometry(run_splits, group_splits, runs, n_groups)
            .expect("clamped geometry is always valid") // simlint: allow(no-unwrap-in-lib)
            .with_runs(runs, vr)
    }

    /// Rebuilds a plan from an explicit geometry (the child side of
    /// `PCKPT_SHARD`). Errors when the geometry does not fit the grid —
    /// a mismatched recipe between coordinator and child.
    pub fn from_geometry(
        run_splits: usize,
        group_splits: usize,
        runs: usize,
        n_groups: usize,
    ) -> Result<Self, String> {
        if run_splits == 0 || group_splits == 0 {
            return Err("shard geometry must have at least one split per axis".into());
        }
        if group_splits > n_groups {
            return Err(format!(
                "shard geometry wants {group_splits} group chunks but the grid has {n_groups} trace groups"
            ));
        }
        // Run bounds are balanced over antithetic pair *blocks* so a pair
        // never straddles a shard; the pair width is recoverable from the
        // bounds themselves, so it does not travel in the geometry. The
        // coordinator and child share `vr`, hence the same pair width.
        if run_splits > runs {
            return Err(format!(
                "shard geometry wants {run_splits} run ranges but the sweep has {runs} runs"
            ));
        }
        Ok(Self {
            run_splits,
            group_splits,
            run_bounds: Vec::new(),
            group_bounds: balanced_bounds(n_groups, group_splits),
        })
    }

    /// Finalizes the run axis under `vr` (separate from
    /// [`from_geometry`](Self::from_geometry) so both sides derive pair
    /// alignment from the same `VrConfig` they already share).
    pub fn with_runs(mut self, runs: usize, vr: &VrConfig) -> Self {
        let pair_w = if vr.antithetic { 2 } else { 1 };
        let blocks = runs.div_ceil(pair_w);
        let block_bounds = balanced_bounds(blocks, self.run_splits.min(blocks).max(1));
        self.run_splits = block_bounds.len() - 1;
        self.run_bounds = block_bounds
            .iter()
            .map(|&b| (b * pair_w).min(runs))
            .collect();
        self
    }

    /// Total shards in this plan.
    pub fn shards(&self) -> usize {
        self.run_splits * self.group_splits
    }

    /// The slice shard `index` executes; `cell_groups[c]` is the trace
    /// group of survivor cell `c` (from
    /// [`GridPlan::cell_group`](crate::runner::GridPlan)).
    pub fn assignment(&self, index: usize, cell_groups: &[usize]) -> ShardAssignment {
        assert!(index < self.shards(), "shard index out of range");
        let rs = index % self.run_splits;
        let gc = index / self.run_splits;
        let (g0, g1) = (self.group_bounds[gc], self.group_bounds[gc + 1]);
        ShardAssignment {
            index,
            cells: cell_groups
                .iter()
                .enumerate()
                .filter(|&(_, &g)| g0 <= g && g < g1)
                .map(|(c, _)| c)
                .collect(),
            run_start: self.run_bounds[rs],
            run_end: self.run_bounds[rs + 1],
        }
    }

    /// Which shard owns `(group, run)` — the coordinator fold's lookup.
    pub fn owner(&self, group: usize, run: usize) -> usize {
        let mut gc = 0;
        while group >= self.group_bounds[gc + 1] {
            gc += 1;
        }
        let mut rs = 0;
        while run >= self.run_bounds[rs + 1] {
            rs += 1;
        }
        gc * self.run_splits + rs
    }
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// One shard's compact binary result frame: identity + binding digest,
/// the raw per-`(lane, run)` results, and execution accounting, closed
/// by a trailing FNV-1a digest over everything before it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFrame {
    /// Shard index within the plan.
    pub index: u32,
    /// Total shards in the plan.
    pub shards: u32,
    /// Binding digest over the campaign identity (seed, runs, VR,
    /// prefilter, survivor cells, geometry) — a frame from a different
    /// campaign or geometry never folds.
    pub binding: u64,
    /// Ascending global survivor-cell indices this frame covers.
    pub cells: Vec<u32>,
    /// First global run (inclusive).
    pub run_start: u64,
    /// Last global run (exclusive).
    pub run_end: u64,
    /// Subset lane count (sum of the covered cells' model counts).
    pub lanes: u32,
    /// Subset-lane-major results: `results[lane * span + (run -
    /// run_start)]`.
    pub results: Vec<RunResult>,
    /// Worker threads the child pool ran on.
    pub threads: u32,
    /// Trace generations the child performed.
    pub trace_generations: u64,
    /// Trace-cache hits the child saw.
    pub trace_reuses: u64,
}

/// Serializes a frame: header, results, accounting, trailing FNV-1a
/// digest. [`decode_frame`] of the output is the identity (pinned by the
/// round-trip proptest in `tests/shard_faults.rs`).
pub fn encode_frame(frame: &ShardFrame) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, FRAME_MAGIC);
    put_u16(&mut out, FRAME_VERSION);
    put_u32(&mut out, frame.index);
    put_u32(&mut out, frame.shards);
    put_u64(&mut out, frame.binding);
    put_u32(&mut out, frame.cells.len() as u32);
    for &c in &frame.cells {
        put_u32(&mut out, c);
    }
    put_u64(&mut out, frame.run_start);
    put_u64(&mut out, frame.run_end);
    put_u32(&mut out, frame.lanes);
    for r in &frame.results {
        encode_run_result(&mut out, r);
    }
    put_u32(&mut out, frame.threads);
    put_u64(&mut out, frame.trace_generations);
    put_u64(&mut out, frame.trace_reuses);
    seal(out)
}

/// Parses and validates a frame: magic, version, structural consistency
/// (`results.len() == lanes × span`, no trailing garbage), and the
/// trailing FNV-1a digest — truncation at any prefix length and any
/// corrupted byte are detected.
pub fn decode_frame(bytes: &[u8]) -> Result<ShardFrame, String> {
    let body = check_seal(bytes)?;
    let pos = &mut 0usize;
    let magic = get_u32(body, pos)?;
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:08x}"));
    }
    let version = get_u16(body, pos)?;
    if version != FRAME_VERSION {
        return Err(format!("unsupported frame version {version}"));
    }
    let index = get_u32(body, pos)?;
    let shards = get_u32(body, pos)?;
    let binding = get_u64(body, pos)?;
    let n_cells = get_u32(body, pos)? as usize;
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        cells.push(get_u32(body, pos)?);
    }
    let run_start = get_u64(body, pos)?;
    let run_end = get_u64(body, pos)?;
    if run_end <= run_start {
        return Err(format!("empty run range [{run_start}, {run_end})"));
    }
    let lanes = get_u32(body, pos)?;
    let span = (run_end - run_start) as usize;
    let n_results = (lanes as usize)
        .checked_mul(span)
        .ok_or("result count overflow")?;
    let mut results = Vec::with_capacity(n_results.min(1 << 20));
    for _ in 0..n_results {
        results.push(decode_run_result(body, pos)?);
    }
    let threads = get_u32(body, pos)?;
    let trace_generations = get_u64(body, pos)?;
    let trace_reuses = get_u64(body, pos)?;
    if *pos != body.len() {
        return Err(format!(
            "frame has {} trailing bytes after the accounting block",
            body.len() - *pos
        ));
    }
    Ok(ShardFrame {
        index,
        shards,
        binding,
        cells,
        run_start,
        run_end,
        lanes,
        results,
        threads,
        trace_generations,
        trace_reuses,
    })
}

// ---------------------------------------------------------------------
// Binding digest
// ---------------------------------------------------------------------

/// Digest binding a frame to one exact campaign slice: seed, runs, VR
/// selection, prefilter spec, leads digest, every survivor cell's
/// identity (label, models, full `Debug` parameter rendering — stable
/// within one binary, and coordinator and children are the same binary),
/// the shard geometry, and the shard's own assignment. Coordinator and
/// child compute it independently from their own reconstruction; a
/// mismatch means the child simulated a different campaign. Built on the
/// shared [`Canon`] normal form — the same rendering the service's cell
/// and campaign fingerprints use (`crate::fingerprint`).
fn binding_digest(
    config: &RunnerConfig,
    leads_digest: u64,
    survivors: &[GridCell],
    prefilter_spec: &str,
    plan: &ShardPlan,
    asg: &ShardAssignment,
) -> u64 {
    let mut canon = Canon::new();
    canon.push_u16(FRAME_VERSION);
    canon.push_u64(config.base_seed);
    canon.push_u64(config.runs as u64);
    canon.push_u8(u8::from(config.vr.antithetic));
    canon.push_u32(config.vr.strata);
    canon.push_u64(leads_digest);
    canon.push_str(prefilter_spec);
    canon.push_u64(survivors.len() as u64);
    for cell in survivors {
        canon.push_cell(cell);
    }
    canon.push_u64(plan.run_splits as u64);
    canon.push_u64(plan.group_splits as u64);
    canon.push_u64(asg.index as u64);
    canon.push_u64(asg.run_start as u64);
    canon.push_u64(asg.run_end as u64);
    canon.push_u64(asg.cells.len() as u64);
    for &c in &asg.cells {
        canon.push_u64(c as u64);
    }
    canon.digest()
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// The geometry a shard child receives from its coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// This child's shard index.
    pub index: usize,
    /// Splits along the run axis.
    pub run_splits: usize,
    /// Splits along the trace-group axis.
    pub group_splits: usize,
    /// Where to write the result frame.
    pub out: PathBuf,
}

/// Reads the coordinator-assigned shard geometry
/// (`PCKPT_SHARD=<index>/<run_splits>x<group_splits>`,
/// `PCKPT_SHARD_OUT=<frame path>`) — `None` when this process is not a
/// shard child.
// simlint: config — PCKPT_SHARD / PCKPT_SHARD_OUT carry the
// coordinator-assigned execution geometry, part of the experiment
// definition like the seed; they select which slice runs, never how any
// single run computes.
pub fn shard_spec_from_env() -> Option<ShardSpec> {
    let spec = std::env::var("PCKPT_SHARD").ok()?;
    let out = std::env::var("PCKPT_SHARD_OUT").ok()?;
    let (index, geom) = spec.split_once('/')?;
    let (rs, gs) = geom.split_once('x')?;
    Some(ShardSpec {
        index: index.trim().parse().ok()?,
        run_splits: rs.trim().parse().ok()?,
        group_splits: gs.trim().parse().ok()?,
        out: PathBuf::from(out),
    })
}

/// Builds the child-side runner configuration from the environment the
/// coordinator propagates (`PCKPT_RUNS`, `PCKPT_SEED`, `PCKPT_VR`;
/// threads resolve through the usual `PCKPT_THREADS` path).
// simlint: config — these are the same sanctioned experiment-definition
// reads the bench harness performs; the coordinator sets them explicitly
// for every child, so the child's config mirrors the coordinator's.
pub fn shard_child_config() -> RunnerConfig {
    let runs = std::env::var("PCKPT_RUNS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1);
    let seed = std::env::var("PCKPT_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    RunnerConfig::new(runs, seed).with_env_vr()
}

/// Injected failure modes of the `PCKPT_SHARD_FAIL` test hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailMode {
    /// Exit before writing any frame (a child killed mid-run).
    Kill,
    /// Write a truncated frame.
    Truncate,
    /// Write a frame with a corrupted trailing digest.
    BadDigest,
    /// Never write and never exit (exercises the coordinator timeout; a
    /// counted-sleep backstop eventually exits so a coordinator-less
    /// child cannot leak forever).
    Hang,
}

/// Parses `PCKPT_SHARD_FAIL=<shard>:<mode>[:always]` and applies the
/// attempt gate: without `always` the failure fires only on the first
/// attempt (`PCKPT_SHARD_ATTEMPT` ≤ 1), so the coordinator's retry
/// succeeds and recovery is observable end to end.
// simlint: config — test-only failure-injection hook; it decides whether
// this child sabotages its own output, never what any simulation
// computes.
fn fail_mode_from_env(index: usize) -> Option<FailMode> {
    let spec = std::env::var("PCKPT_SHARD_FAIL").ok()?;
    let attempt: usize = std::env::var("PCKPT_SHARD_ATTEMPT")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1);
    let mut parts = spec.trim().split(':');
    let shard: usize = parts.next()?.trim().parse().ok()?;
    let mode = match parts.next()?.trim() {
        "kill" => FailMode::Kill,
        "truncate" => FailMode::Truncate,
        "baddigest" => FailMode::BadDigest,
        "hang" => FailMode::Hang,
        _ => return None,
    };
    let always = parts.next().is_some_and(|t| t.trim() == "always");
    if shard != index || (!always && attempt > 1) {
        return None;
    }
    Some(mode)
}

/// Executes one shard of `cells` and writes its result frame to
/// `spec.out`.
///
/// The child rebuilds the coordinator's exact view: the prefilter from
/// `PCKPT_PREFILTER` selects the same survivors, the full survivor
/// [`GridPlan`] yields the same trace groups, and the explicit geometry
/// in `spec` yields the same assignment — then the shard's cells run as
/// their own grid over the assigned global-run range, which is
/// bit-identical to the same `(lane, run)` slots of a single-process
/// sweep (see the module docs).
pub fn run_shard_child(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    spec: &ShardSpec,
) -> Result<(), String> {
    let prefilter = Prefilter::from_env();
    let survivors: Vec<GridCell> = cells
        .iter()
        .filter(|c| {
            prefilter
                .as_ref()
                .map_or(true, |pf| pf.cell_verdict(c, leads).is_none())
        })
        .cloned()
        .collect();
    if survivors.is_empty() {
        return Err("no surviving cells to shard".into());
    }
    let plan = GridPlan::new(&survivors, leads);
    let splan = ShardPlan::from_geometry(
        spec.run_splits,
        spec.group_splits,
        config.runs,
        plan.trace_groups(),
    )?
    .with_runs(config.runs, &config.vr);
    if spec.index >= splan.shards() {
        return Err(format!(
            "shard index {} out of range for {} shards",
            spec.index,
            splan.shards()
        ));
    }
    let cell_groups: Vec<usize> = (0..survivors.len()).map(|c| plan.cell_group(c)).collect();
    let asg = splan.assignment(spec.index, &cell_groups);
    let subset: Vec<GridCell> = asg.cells.iter().map(|&c| survivors[c].clone()).collect();
    let sub_plan = GridPlan::new(&subset, leads);
    let span = asg.run_end - asg.run_start;
    let mut workers = pool_workers(&sub_plan, config, span);
    let slots = run_pool(
        &sub_plan,
        &mut workers,
        &SimRng::seed_from(config.base_seed),
        asg.run_start,
        &batch_schedule(asg.run_start, span, &config.vr, None),
        &(0..sub_plan.units()).collect::<Vec<_>>(),
    );

    let mut results = Vec::with_capacity(slots.len());
    for slot in slots {
        results.push(slot.ok_or("pool left a result slot empty")?);
    }
    let frame = ShardFrame {
        index: asg.index as u32,
        shards: splan.shards() as u32,
        binding: binding_digest(
            config,
            leads.digest(),
            &survivors,
            &prefilter.map(|p| p.spec()).unwrap_or_default(),
            &splan,
            &asg,
        ),
        cells: asg.cells.iter().map(|&c| c as u32).collect(),
        run_start: asg.run_start as u64,
        run_end: asg.run_end as u64,
        lanes: sub_plan.lanes() as u32,
        results,
        threads: workers.len() as u32,
        trace_generations: workers.iter().map(|w| w.trace_generations).sum(),
        trace_reuses: workers.iter().map(|w| w.trace_reuses).sum(),
    };
    let mut bytes = encode_frame(&frame);

    match fail_mode_from_env(spec.index) {
        Some(FailMode::Kill) => std::process::exit(3),
        Some(FailMode::Truncate) => {
            let keep = bytes.len() - (bytes.len() / 3).max(1);
            bytes.truncate(keep);
        }
        Some(FailMode::BadDigest) => {
            // Last byte sits inside the trailing digest. simlint: allow(no-unwrap-in-lib)
            *bytes.last_mut().expect("frame is never empty") ^= 0xFF;
        }
        Some(FailMode::Hang) => {
            for _ in 0..1200 {
                thread::sleep(Duration::from_millis(100));
            }
            std::process::exit(4);
        }
        None => {}
    }
    std::fs::write(&spec.out, &bytes)
        .map_err(|e| format!("cannot write frame to {}: {e}", spec.out.display()))
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// How the coordinator launches one shard child: a program, fixed
/// arguments, and extra environment assignments (applied before the
/// per-shard variables, which always win).
#[derive(Debug, Clone)]
pub struct ShardLauncher {
    /// The program to execute.
    pub program: PathBuf,
    /// Arguments passed verbatim to every shard child.
    pub args: Vec<String>,
    /// Extra environment assignments for every shard child.
    pub envs: Vec<(String, String)>,
}

impl ShardLauncher {
    /// Launches the current executable with `args` — the CLI and the
    /// test suites both re-enter themselves this way.
    pub fn current_exe(args: Vec<String>) -> Result<Self, String> {
        Ok(Self {
            program: std::env::current_exe()
                .map_err(|e| format!("cannot resolve current executable: {e}"))?,
            args,
            envs: Vec::new(),
        })
    }

    /// Adds one environment assignment for every child.
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }
}

/// Coordinator knobs: requested shard count, retry cap, and the child
/// timeout (counted in poll ticks, not wall-clock reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Requested shard count (the planner may produce fewer).
    pub shards: usize,
    /// Attempts per shard before the sweep aborts with an error.
    pub max_attempts: usize,
    /// Per-attempt child timeout, milliseconds.
    pub timeout_millis: u64,
}

impl ShardOptions {
    /// Defaults: 3 attempts per shard, 10-minute child timeout.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            max_attempts: 3,
            timeout_millis: 600_000,
        }
    }

    /// [`new`](Self::new) with the `PCKPT_SHARD_TIMEOUT_SECS` override
    /// applied.
    // simlint: config — the timeout shapes failure handling (an
    // execution-environment property, like PCKPT_THREADS), never any
    // result: every validated frame is deterministic in the campaign.
    pub fn from_env(shards: usize) -> Self {
        let mut opts = Self::new(shards);
        if let Some(secs) = std::env::var("PCKPT_SHARD_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&s| s > 0)
        {
            opts.timeout_millis = secs.saturating_mul(1000);
        }
        opts
    }
}

/// Scratch-file counter: distinct paths per coordinator invocation
/// without clock or randomness reads.
static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_path(tag: &str, index: usize, token: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pckpt-shard-{}-{}-{}.{}",
        std::process::id(),
        token,
        index,
        tag
    ))
}

/// One shard's coordinator-side state across attempts.
struct Slot {
    index: usize,
    attempt: usize,
    polls_left: u64,
    child: Option<Child>,
    frame: Option<ShardFrame>,
    out: PathBuf,
    err: PathBuf,
}

fn stderr_tail(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let tail: String = text
        .chars()
        .rev()
        .take(400)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if tail.is_empty() {
        "<empty>".into()
    } else {
        tail
    }
}

/// [`run_grid`](crate::runner::run_grid) across `shards` subprocesses:
/// plans the shard geometry, spawns one child per shard through
/// `launcher`, folds the returned frames in single-process order, and
/// returns a [`GridResult`] whose per-cell aggregates are bit-identical
/// to the in-process sweep. The prefilter comes from `PCKPT_PREFILTER`,
/// exactly like [`run_grid`](crate::runner::run_grid).
pub fn run_grid_sharded(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    shards: usize,
    launcher: &ShardLauncher,
) -> Result<GridResult, String> {
    run_grid_sharded_opts(
        cells,
        leads,
        config,
        &ShardOptions::from_env(shards),
        launcher,
        Prefilter::from_env().as_ref(),
    )
}

/// [`run_grid_sharded`] with explicit coordinator options and prefilter.
///
/// Falls back to the in-process engine (still reporting `shard_meta`)
/// when sharding cannot help or cannot stay exact: one shard requested,
/// a degenerate plan, no surviving cells, or adaptive run allocation
/// (whose sequential feedback needs the whole grid in one fold loop).
pub fn run_grid_sharded_opts(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    opts: &ShardOptions,
    launcher: &ShardLauncher,
    prefilter: Option<&Prefilter>,
) -> Result<GridResult, String> {
    assert!(config.runs > 0, "at least one run required");
    let in_process = |meta: ShardMeta| -> GridResult {
        let mut grid = crate::runner::run_grid_filtered(cells, leads, config, prefilter);
        grid.shard_meta = Some(meta);
        grid
    };
    let fallback = ShardMeta {
        shards: 1,
        reexecutions: 0,
        frame_bytes: 0,
    };
    if opts.shards <= 1 || config.vr.adaptive.is_some() {
        return Ok(in_process(fallback));
    }
    let verdicts: Vec<_> = match prefilter {
        Some(pf) => cells.iter().map(|c| pf.cell_verdict(c, leads)).collect(),
        None => vec![None; cells.len()],
    };
    let survivors: Vec<GridCell> = cells
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| v.is_none())
        .map(|(c, _)| c.clone())
        .collect();
    if survivors.is_empty() {
        return Ok(in_process(fallback));
    }
    let plan = GridPlan::new(&survivors, leads);
    let splan = ShardPlan::new(opts.shards, config.runs, plan.trace_groups(), &config.vr);
    if splan.shards() <= 1 {
        return Ok(in_process(fallback));
    }

    let n_shards = splan.shards();
    let cell_groups: Vec<usize> = (0..survivors.len()).map(|c| plan.cell_group(c)).collect();
    let assignments: Vec<ShardAssignment> = (0..n_shards)
        .map(|i| splan.assignment(i, &cell_groups))
        .collect();
    let prefilter_spec = prefilter.map(|p| p.spec()).unwrap_or_default();
    let bindings: Vec<u64> = assignments
        .iter()
        .map(|asg| binding_digest(config, leads.digest(), &survivors, &prefilter_spec, &splan, asg))
        .collect();

    let token = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let budget = (opts.timeout_millis / POLL_MS).max(1);
    let spawn = |index: usize, attempt: usize, out: &PathBuf, err: &PathBuf| -> Result<Child, String> {
        let _ = std::fs::remove_file(out);
        let _ = std::fs::remove_file(err);
        let err_file = std::fs::File::create(err)
            .map_err(|e| format!("cannot create stderr file {}: {e}", err.display()))?;
        let mut cmd = Command::new(&launcher.program);
        cmd.args(&launcher.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_file);
        for (k, v) in &launcher.envs {
            cmd.env(k, v);
        }
        cmd.env(
            "PCKPT_SHARD",
            format!("{index}/{}x{}", splan.run_splits, splan.group_splits),
        );
        cmd.env("PCKPT_SHARD_OUT", out);
        cmd.env("PCKPT_SHARD_ATTEMPT", attempt.to_string());
        cmd.env("PCKPT_SEED", config.base_seed.to_string());
        cmd.env("PCKPT_RUNS", config.runs.to_string());
        match vr_env_spec(&config.vr) {
            Some(spec) => cmd.env("PCKPT_VR", spec),
            None => cmd.env_remove("PCKPT_VR"),
        };
        match &prefilter_spec {
            s if s.is_empty() => cmd.env_remove("PCKPT_PREFILTER"),
            s => cmd.env("PCKPT_PREFILTER", s),
        };
        if config.threads > 0 {
            cmd.env("PCKPT_THREADS", config.threads.to_string());
        }
        cmd.spawn()
            .map_err(|e| format!("cannot spawn shard {index}: {e}"))
    };

    let mut slots = Vec::with_capacity(n_shards);
    let mut reexecutions = 0usize;
    let mut frame_bytes = 0u64;
    for index in 0..n_shards {
        let out = scratch_path("frame", index, token);
        let err = scratch_path("stderr", index, token);
        let child = spawn(index, 1, &out, &err)?;
        slots.push(Slot {
            index,
            attempt: 1,
            polls_left: budget,
            child: Some(child),
            frame: None,
            out,
            err,
        });
    }

    let cleanup = |slots: &mut Vec<Slot>| {
        for slot in slots.iter_mut() {
            if let Some(child) = slot.child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            let _ = std::fs::remove_file(&slot.out);
            let _ = std::fs::remove_file(&slot.err);
        }
    };

    // Validates a finished child's frame against the shard's expected
    // identity; any failure is a reason string for retry accounting.
    let validate = |slot: &Slot| -> Result<(ShardFrame, u64), String> {
        let bytes = std::fs::read(&slot.out)
            .map_err(|e| format!("no frame written ({e})"))?;
        let frame = decode_frame(&bytes)?;
        let asg = &assignments[slot.index];
        if frame.binding != bindings[slot.index] {
            return Err("binding digest mismatch (different campaign or geometry)".into());
        }
        if frame.index as usize != slot.index
            || frame.shards as usize != n_shards
            || frame.run_start as usize != asg.run_start
            || frame.run_end as usize != asg.run_end
            || frame.cells.len() != asg.cells.len()
            || frame
                .cells
                .iter()
                .zip(&asg.cells)
                .any(|(&a, &b)| a as usize != b)
        {
            return Err("frame does not match the shard assignment".into());
        }
        Ok((frame, bytes.len() as u64))
    };

    loop {
        let mut progressed = false;
        let mut pending = false;
        for s in 0..slots.len() {
            if slots[s].frame.is_some() {
                continue;
            }
            pending = true;
            let status = match slots[s].child.as_mut() {
                Some(child) => child.try_wait().map_err(|e| e.to_string()),
                None => continue,
            };
            let outcome: Result<(ShardFrame, u64), String> = match status {
                Err(e) => Err(format!("wait failed: {e}")),
                Ok(None) => continue, // still running
                Ok(Some(st)) if !st.success() => Err(format!("child exited with {st}")),
                Ok(Some(_)) => validate(&slots[s]),
            };
            progressed = true;
            slots[s].child = None;
            match outcome {
                Ok((frame, bytes)) => {
                    frame_bytes += bytes;
                    slots[s].frame = Some(frame);
                    let _ = std::fs::remove_file(&slots[s].out);
                    let _ = std::fs::remove_file(&slots[s].err);
                }
                Err(reason) => {
                    if slots[s].attempt >= opts.max_attempts {
                        let tail = stderr_tail(&slots[s].err);
                        let (index, attempt) = (slots[s].index, slots[s].attempt);
                        cleanup(&mut slots);
                        return Err(format!(
                            "shard {index} failed after {attempt} attempts: \
                             {reason}; last stderr tail: {tail}"
                        ));
                    }
                    slots[s].attempt += 1;
                    slots[s].polls_left = budget;
                    reexecutions += 1;
                    let (index, attempt) = (slots[s].index, slots[s].attempt);
                    let child = match spawn(index, attempt, &slots[s].out, &slots[s].err) {
                        Ok(c) => c,
                        Err(e) => {
                            cleanup(&mut slots);
                            return Err(e);
                        }
                    };
                    slots[s].child = Some(child);
                }
            }
        }
        if !pending {
            break;
        }
        if !progressed {
            // Nothing finished this scan: sleep one tick and charge every
            // still-running child's poll budget; an exhausted budget is
            // the timeout (killed child → the retry path above).
            thread::sleep(Duration::from_millis(POLL_MS));
            for slot in slots.iter_mut() {
                if slot.frame.is_none() && slot.child.is_some() {
                    slot.polls_left = slot.polls_left.saturating_sub(1);
                    if slot.polls_left == 0 {
                        if let Some(child) = slot.child.as_mut() {
                            let _ = child.kill();
                            // Reap so try_wait observes the exit and the
                            // retry path takes over next scan.
                            let _ = child.wait();
                        }
                    }
                }
            }
        }
    }

    let frames: Vec<ShardFrame> = slots
        .iter_mut()
        // The loop above only exits once every slot holds a validated
        // frame. simlint: allow(no-unwrap-in-lib)
        .map(|s| s.frame.take().expect("all shards completed"))
        .collect();

    let merged = fold_frames(&survivors, config, &plan, &splan, &frames, ShardMeta {
        shards: n_shards,
        reexecutions,
        frame_bytes,
    })?;
    Ok(splice_pruned(cells, leads, config, verdicts, Some(merged)))
}

/// Folds validated frames into a survivor-grid result by replaying the
/// single-process push sequence through the shared lane fold: per cell,
/// per model, ascending global run, with the static stratum labels —
/// each result fetched from its owning shard's frame. Aggregates and CI
/// trackers therefore consume the identical float stream the in-process
/// fold consumes, which is the whole bit-identity argument.
fn fold_frames(
    survivors: &[GridCell],
    config: &RunnerConfig,
    plan: &GridPlan,
    splan: &ShardPlan,
    frames: &[ShardFrame],
    meta: ShardMeta,
) -> Result<GridResult, String> {
    let runs = config.runs;

    // Per-frame lane bases: frame.cells is ascending global survivor
    // indices, and the child's subset plan assigns lanes in that order.
    let mut frame_base: Vec<Vec<Option<usize>>> = Vec::with_capacity(frames.len());
    for frame in frames {
        let mut base = vec![None; survivors.len()];
        let mut at = 0usize;
        for &c in &frame.cells {
            let c = c as usize;
            if c >= survivors.len() {
                return Err(format!("frame cell index {c} out of range"));
            }
            base[c] = Some(at);
            at += survivors[c].models.len();
        }
        if at != frame.lanes as usize {
            return Err("frame lane count does not match its cells".into());
        }
        frame_base.push(base);
    }

    let mut lanes: Vec<LaneFold> = (0..plan.lanes()).map(|_| LaneFold::new(&config.vr)).collect();
    for (c, cell) in survivors.iter().enumerate() {
        let group = plan.cell_group(c);
        for m in 0..cell.models.len() {
            let lane = plan.lane(c, m);
            for run in 0..runs {
                let owner = splan.owner(group, run);
                let frame = &frames[owner];
                let span = (frame.run_end - frame.run_start) as usize;
                let local = frame_base[owner][c]
                    .ok_or_else(|| format!("shard {owner} frame is missing cell {c}"))?;
                let idx = (local + m) * span + (run - frame.run_start as usize);
                let r = frame
                    .results
                    .get(idx)
                    .ok_or_else(|| format!("shard {owner} frame is missing run {run}"))?;
                lanes[lane].push(fixed_stratum(run, &config.vr), r);
            }
        }
    }

    let threads = frames.iter().map(|f| f.threads as usize).max().unwrap_or(1);
    let mut grid = simulated_grid(plan, &config.vr, lanes, vec![runs; survivors.len()], threads);
    grid.trace_generations = frames.iter().map(|f| f.trace_generations).sum();
    grid.trace_reuses = frames.iter().map(|f| f.trace_reuses).sum();
    grid.shard_meta = Some(meta);
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OverheadLedger;
    use pckpt_simobs::RunObs;

    #[test]
    fn balanced_bounds_cover_and_balance() {
        for (total, parts) in [(1, 1), (5, 2), (7, 3), (12, 4), (3, 3)] {
            let b = balanced_bounds(total, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!((b[0], b[parts]), (0, total));
            let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn plan_partitions_the_whole_space() {
        for (req, runs, groups, anti) in
            [(2, 10, 1, false), (4, 10, 2, false), (4, 7, 1, true), (3, 12, 5, false), (8, 3, 2, true)]
        {
            let vr = VrConfig {
                antithetic: anti,
                ..VrConfig::default()
            };
            let plan = ShardPlan::new(req, runs, groups, &vr);
            assert!(plan.shards() >= 1 && plan.shards() <= req);
            let cell_groups: Vec<usize> = (0..groups).collect();
            let mut seen = vec![vec![false; runs]; groups];
            for i in 0..plan.shards() {
                let asg = plan.assignment(i, &cell_groups);
                assert!(asg.run_start < asg.run_end, "empty run range on shard {i}");
                assert!(!asg.cells.is_empty(), "empty cell set on shard {i}");
                if anti {
                    assert_eq!(asg.run_start % 2, 0, "pair straddles shard {i}");
                }
                for &c in &asg.cells {
                    for run in asg.run_start..asg.run_end {
                        assert!(!seen[c][run], "(group {c}, run {run}) claimed twice");
                        seen[c][run] = true;
                        assert_eq!(plan.owner(c, run), i, "owner disagrees with assignment");
                    }
                }
            }
            assert!(
                seen.iter().all(|g| g.iter().all(|&s| s)),
                "uncovered (group, run) slots"
            );
        }
    }

    #[test]
    fn frame_roundtrip_and_tamper_detection() {
        let r = RunResult {
            ledger: OverheadLedger {
                ckpt_secs: 1.5,
                failures_total: 3,
                ..OverheadLedger::default()
            },
            wall_secs: 7200.0,
            ideal_secs: 7000.0,
            final_oci_secs: 600.0,
            obs: RunObs::default(),
        };
        let frame = ShardFrame {
            index: 1,
            shards: 2,
            binding: 0xDEAD_BEEF,
            cells: vec![0, 2],
            run_start: 4,
            run_end: 6,
            lanes: 3,
            results: vec![r.clone(), r.clone(), r.clone(), r.clone(), r.clone(), r],
            threads: 3,
            trace_generations: 12,
            trace_reuses: 4,
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        let mut bad = bytes.clone();
        bad[10] ^= 0x01;
        assert!(decode_frame(&bad).is_err(), "corrupted byte went undetected");
    }

    #[test]
    fn fail_spec_parses_and_gates_on_attempt() {
        let _env = crate::env_test_lock();
        std::env::set_var("PCKPT_SHARD_FAIL", "1:truncate");
        std::env::remove_var("PCKPT_SHARD_ATTEMPT");
        assert_eq!(fail_mode_from_env(1), Some(FailMode::Truncate));
        assert_eq!(fail_mode_from_env(0), None, "other shards unaffected");
        std::env::set_var("PCKPT_SHARD_ATTEMPT", "2");
        assert_eq!(fail_mode_from_env(1), None, "retry must succeed");
        std::env::set_var("PCKPT_SHARD_FAIL", "1:kill:always");
        assert_eq!(fail_mode_from_env(1), Some(FailMode::Kill), "always persists");
        std::env::set_var("PCKPT_SHARD_FAIL", "1:explode");
        assert_eq!(fail_mode_from_env(1), None, "unknown modes are inert");
        std::env::remove_var("PCKPT_SHARD_FAIL");
        std::env::remove_var("PCKPT_SHARD_ATTEMPT");
    }

    #[test]
    fn shard_spec_roundtrips_through_env() {
        let _env = crate::env_test_lock();
        std::env::set_var("PCKPT_SHARD", "3/2x2");
        std::env::set_var("PCKPT_SHARD_OUT", "/tmp/f.frame");
        let spec = shard_spec_from_env().unwrap();
        assert_eq!(
            spec,
            ShardSpec {
                index: 3,
                run_splits: 2,
                group_splits: 2,
                out: PathBuf::from("/tmp/f.frame"),
            }
        );
        std::env::remove_var("PCKPT_SHARD");
        std::env::remove_var("PCKPT_SHARD_OUT");
        assert!(shard_spec_from_env().is_none());
    }
}
