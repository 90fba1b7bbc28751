//! The measurement loop every workload shares, and the simulation
//! workloads' untraced and traced runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pckpt_core::{GridCell, RunnerConfig};
use pckpt_failure::LeadTimeModel;

use crate::golden;
use crate::grid::{timed_grid, trace_gen_replay, traced_pass, UnitMap};
use crate::inputs::{grid_cells, grid_config, Sizes, Workload, DEFAULT_SEED, PROBE_SEED};
use crate::report::{peak_rss_mb, Measured, Outcome, Tracer};
use crate::service::{io_replay, ServiceBench};
use crate::stats::{median, percentile};

/// How a run is configured: everything comes from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Pool size the traced run measures the grid pool at: `min(2, nproc)`.
    pub pool_threads: usize,
}

/// Pool size of every timed operation, set explicitly in each
/// `RunnerConfig` and request. One thread: on a shared 2-core host a
/// 2-thread pool's pass time follows whatever else runs on either core
/// (the quartile spread of 10 s medians of one fluid pass was 0.11 at
/// two threads and 0.03 at one).
pub const OP_THREADS: usize = 1;

impl RunSpec {
    pub fn sizes(&self) -> Sizes {
        Sizes::new(self.quick)
    }

    /// Timed passes a run makes at least, however long they take.
    fn min_passes(&self) -> usize {
        if self.quick {
            1
        } else {
            2
        }
    }

    /// The pinned digest for this run's inputs, when it has one.
    pub fn golden(&self, name: &str) -> Option<&'static str> {
        (self.seed == DEFAULT_SEED)
            .then(|| golden::digest(name, self.quick))
            .flatten()
    }
}

/// One pass over a workload's operations: a grid sweep is one
/// operation; a service pass is one daemon state serving its requests.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each timed operation, seconds.
    pub op_secs: Vec<f64>,
    /// Lane-runs the pass's operations answered.
    pub lane_runs: u64,
    /// Operations attempted, and why any failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// A workload after set-up: warms up once, then runs timed passes.
pub trait Bench {
    /// Untimed first pass; fixes the reference outputs later passes
    /// are checked against.
    fn warm_up(&mut self, out: &mut Outcome);
    fn pass(&mut self) -> Pass;
    /// Exact counters of the work a pass does.
    fn counts(&self, out: &mut Outcome);
}

fn set_up(spec: &RunSpec) -> Result<Box<dyn Bench>, String> {
    if spec.workload.is_service() {
        Ok(Box::new(ServiceBench::new(spec)?))
    } else {
        Ok(Box::new(GridBench::new(spec)))
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Set-ups timed in one run besides the first, spread evenly over it.
const EXTRA_SETUPS: f64 = 20.0;

fn timed_set_up(spec: &RunSpec, setup_s: &mut Vec<f64>) -> Result<Box<dyn Bench>, String> {
    let t = Instant::now();
    let bench = set_up(spec)?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(bench)
}

/// The untraced run: set up, warm up, then time passes until `seconds`
/// have passed.
///
/// `setup_s` is the median of the first set-up and of throwaway ones
/// made between passes, about [`EXTRA_SETUPS`] of them spread over the
/// run: a host that is slow for a second or two moves a median taken
/// over the whole run far less than one taken at its start.
///
/// `op_p50_ms` is the median over every operation; its quartiles (the
/// spread `pbench compare` judges) are those of the per-pass medians,
/// so a workload mixing cheap and dear requests in fixed proportion is
/// not mistaken for a noisy one.
pub fn measure(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::new(spec.workload, false);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = match timed_set_up(spec, &mut setup_s) {
        Ok(b) => b,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let t = Instant::now();
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| bench.warm_up(&mut out))) {
        out.attempted += 1;
        out.fail(format!("warm-up panicked: {}", panic_text(p)));
        return out;
    }
    out.extra
        .push(("warm_up_s".to_string(), t.elapsed().as_secs_f64(), "s"));

    let mut op_ms = Vec::new();
    let mut pass_p50_ms = Vec::new();
    let mut pass_rate = Vec::new();
    let started = Instant::now();
    while pass_p50_ms.len() < spec.min_passes() || started.elapsed().as_secs_f64() < spec.seconds {
        let due = 1.0 + EXTRA_SETUPS * started.elapsed().as_secs_f64() / spec.seconds;
        if spec.seconds > 0.0 && (setup_s.len() as f64) < due {
            if let Err(e) = timed_set_up(spec, &mut setup_s) {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
            }
        }
        match catch_unwind(AssertUnwindSafe(|| bench.pass())) {
            Ok(p) => {
                out.attempted += p.attempted;
                for f in p.failures {
                    out.fail(f);
                }
                if p.op_secs.is_empty() {
                    break;
                }
                let secs: f64 = p.op_secs.iter().sum();
                let ms: Vec<f64> = p.op_secs.iter().map(|s| s * 1e3).collect();
                pass_p50_ms.push(median(&ms));
                pass_rate.push(p.lane_runs as f64 / secs);
                op_ms.extend(ms);
            }
            Err(p) => {
                out.attempted += 1;
                out.fail(format!("pass panicked: {}", panic_text(p)));
                break;
            }
        }
    }
    if op_ms.is_empty() {
        return out;
    }
    bench.counts(&mut out);
    drop(bench);

    out.add_tail("op", &op_ms);
    out.extra
        .push(("passes".to_string(), pass_p50_ms.len() as f64, "count"));
    out.metrics.insert(
        "op_p50_ms",
        Measured {
            value: median(&op_ms),
            samples: pass_p50_ms,
        },
    );
    out.metrics
        .insert("lane_runs_per_s", Measured::median_of(pass_rate));
    out.metrics.insert("setup_s", Measured::median_of(setup_s));
    out.metrics
        .insert("peak_rss_mb", Measured::one(peak_rss_mb()));
    out
}

/// Runs `iteration` until `seconds` have passed (at least once) and
/// reports the median of each per-layer sample.
pub fn trace_iterations(
    spec: &RunSpec,
    out: &mut Outcome,
    mut iteration: impl FnMut(&mut Outcome) -> Vec<(&'static str, f64)>,
) {
    let started = Instant::now();
    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    loop {
        let row = match catch_unwind(AssertUnwindSafe(|| iteration(out))) {
            Ok(row) => row,
            Err(p) => {
                out.attempted += 1;
                out.fail(format!("traced iteration panicked: {}", panic_text(p)));
                return;
            }
        };
        for (name, v) in row {
            match samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => samples.push((name, vec![v])),
            }
        }
        if started.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
    }
    for (name, vs) in samples {
        match crate::report::metric_def(name) {
            Some(d) if out.defs().iter().any(|x| x.name == d.name) => {
                out.metrics.insert(d.name, Measured::median_of(vs));
            }
            _ => out
                .extra
                .push((name.to_string(), median(&vs), unit_of(name))),
        }
    }
}

/// Units of the extra (non-catalogue) rows, by suffix.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else {
        "ratio"
    }
}

/// The traced run: per-layer metrics from timed layer calls, beside an
/// untraced single-thread pass of the same work.
pub fn trace(spec: &RunSpec, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(spec.workload, true);
    if spec.workload.is_service() {
        match ServiceBench::new(spec) {
            Ok(mut b) => b.trace(spec, &mut out, tracer),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
            }
        }
    } else {
        GridBench::new(spec).trace(spec, &mut out, tracer);
    }
    out
}

/// A simulation workload: one paper bin swept through `run_grid`.
pub struct GridBench {
    workload: Workload,
    cells: Vec<GridCell>,
    leads: LeadTimeModel,
    cfg: RunnerConfig,
    golden: Option<&'static str>,
    reference: Option<String>,
    events_per_lane_run: f64,
}

impl GridBench {
    pub fn new(spec: &RunSpec) -> GridBench {
        let cells = grid_cells(spec.workload).expect("simulation workload");
        let leads = LeadTimeModel::desh_default();
        let cfg = grid_config(spec.workload, spec.sizes(), spec.seed, OP_THREADS);
        // The sweep's fixed cost: plan, pool spin-up and every lane's
        // simulator built and run once.
        let mut one = cfg;
        one.runs = 1;
        one.base_seed = PROBE_SEED;
        std::hint::black_box(timed_grid(&cells, &leads, &one));
        GridBench {
            workload: spec.workload,
            golden: spec.golden(spec.workload.name()),
            cells,
            leads,
            cfg,
            reference: None,
            events_per_lane_run: 0.0,
        }
    }

    fn lane_runs(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.models.len() as u64)
            .sum::<u64>()
            * self.cfg.runs as u64
    }

    /// Checks a digest against the reference (and pins the reference on
    /// first use, checking it against the golden digest if any).
    fn check(&mut self, what: &str, digest: String, failures: &mut Vec<String>) {
        match &self.reference {
            Some(r) if *r != digest => {
                failures.push(format!("{what}: digest {digest} != reference {r}"));
            }
            Some(_) => {}
            None => {
                if let Some(g) = self.golden {
                    if g != digest {
                        failures.push(format!("{what}: digest {digest} != golden {g}"));
                    }
                }
                self.reference = Some(digest);
            }
        }
    }

    /// Wall time of one untraced pass at `cfg`, its digest checked.
    fn untraced(&mut self, what: &str, cfg: &RunnerConfig, failures: &mut Vec<String>) -> f64 {
        let (secs, grid) = timed_grid(&self.cells, &self.leads, cfg);
        self.check(what, pckpt_service::grid_digest(&grid).hex(), failures);
        secs
    }

    fn trace(&mut self, spec: &RunSpec, out: &mut Outcome, tracer: &mut Tracer) {
        let threads = spec.pool_threads;
        let mut one = self.cfg;
        one.threads = 1;
        let mut pool = self.cfg;
        pool.threads = threads;
        let map = UnitMap::new(&self.cells);
        let tmp = crate::service::TmpDir::new("io");
        trace_iterations(spec, out, |out| {
            let mut failures = Vec::new();
            // Untraced single-thread passes before and after the traced
            // one: their mean cancels a drift in host speed across it.
            let w_before = self.untraced("single-thread pass", &one, &mut failures);
            let wt = self.untraced("pool pass", &pool, &mut failures);
            let (t, results) = traced_pass(&self.cells, &self.leads, &one, &map, tracer, 0);
            let w1 = (w_before + self.untraced("single-thread pass", &one, &mut failures)) / 2.0;
            self.check("traced pass", t.digest.clone(), &mut failures);
            let gen = trace_gen_replay(&map, &self.leads, &one, tracer, 0);
            if gen.gens != t.gens {
                failures.push(format!(
                    "replayed {} trace generations, worker made {}",
                    gen.gens, t.gens
                ));
            }
            let cells = &self.cells;
            let io = match &tmp {
                Ok(dir) => io_replay(
                    cells,
                    &one,
                    self.leads.digest(),
                    &results,
                    &map,
                    dir.path(),
                    tracer,
                    0,
                ),
                Err(e) => Err(e.clone()),
            };
            drop(results);
            out.attempted += 4;
            for f in failures {
                out.fail(f);
            }
            let io = io.unwrap_or_else(|e| {
                out.fail(format!("service-layer replay: {e}"));
                Default::default()
            });

            let sim_s = t.unit_s - gen.secs;
            let covered = t.plan_s + t.unit_s + t.fold_s;
            out.counts.insert("units", t.units as f64);
            out.counts.insert("lanes", t.lanes as f64);
            out.counts.insert("trace_groups", t.groups as f64);
            out.counts.insert("trace_generations", t.gens as f64);
            out.counts
                .insert("events_per_unit_run", t.events as f64 / t.unit_runs as f64);
            out.counts
                .insert("queue_depth_hwm_max", percentile(&t.hwm, 100.0));
            let mut rows = t.layer_metrics(&gen, 1, wt, threads);
            rows.extend(io.metrics());
            rows.extend([
                ("failure.trace_gens", t.gens as f64),
                ("failure.share", gen.secs / w1),
                ("core.sim.share", sim_s / w1),
                ("service.reuse_ratio", 0.0),
                ("service.computed_cells", cells.len() as f64),
                ("service.share", 0.0),
                // Attribution of the untraced single-thread pass.
                ("layer.pass_1thread_ms", w1 * 1e3),
                ("layer.plan_ms", t.plan_s * 1e3),
                ("layer.failure_ms", gen.secs * 1e3),
                ("layer.sim_ms", sim_s * 1e3),
                ("layer.fold_ms", t.fold_s * 1e3),
                ("layer.pool_residual_ms", (w1 - covered) * 1e3),
                ("layer.coverage", covered / w1),
                ("trace.overhead_ms", (t.traced_wall_s - w1) * 1e3),
                ("trace.overhead_frac", (t.traced_wall_s - w1) / w1),
            ]);
            rows
        });
    }
}

impl Bench for GridBench {
    /// One full pass, untimed: fills the allocator and caches at the
    /// workload's size and pins the reference digest.
    fn warm_up(&mut self, out: &mut Outcome) {
        let p = self.pass();
        out.attempted += p.attempted;
        for f in p.failures {
            out.fail(f);
        }
    }

    fn pass(&mut self) -> Pass {
        let (secs, grid) = timed_grid(&self.cells, &self.leads, &self.cfg);
        let mut failures = Vec::new();
        self.check(
            self.workload.name(),
            pckpt_service::grid_digest(&grid).hex(),
            &mut failures,
        );
        self.events_per_lane_run = grid.obs_merged().events_per_run();
        Pass {
            op_secs: vec![secs],
            lane_runs: self.lane_runs(),
            attempted: 1,
            failures,
        }
    }

    fn counts(&self, out: &mut Outcome) {
        out.counts.insert(
            "lanes",
            self.cells.iter().map(|c| c.models.len()).sum::<usize>() as f64,
        );
        out.counts
            .insert("units", UnitMap::new(&self.cells).units() as f64);
        out.counts
            .insert("events_per_lane_run", self.events_per_lane_run);
        if let Some(r) = &self.reference {
            out.extra_digest("digest.grid", r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_smoke_of_every_workload_checks_digests_and_emits_every_metric() {
        for w in Workload::ALL {
            let spec = RunSpec {
                workload: w,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                quick: true,
                pool_threads: 2,
            };
            let out = measure(&spec);
            assert!(out.correct(), "{} untraced: {:?}", w.name(), out.notes);
            assert!(
                out.missing().is_empty(),
                "{} untraced lacks {:?}",
                w.name(),
                out.missing()
            );
            let mut tracer = Tracer::default();
            let out = trace(&spec, &mut tracer);
            assert!(out.correct(), "{} traced: {:?}", w.name(), out.notes);
            assert!(
                out.missing().is_empty(),
                "{} traced lacks {:?}",
                w.name(),
                out.missing()
            );
            assert!(!tracer.spans.is_empty(), "{} recorded no spans", w.name());
        }
    }

    #[test]
    fn a_wrong_golden_digest_is_a_failure() {
        let spec = RunSpec {
            workload: Workload::FluidCampaign,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            quick: true,
            pool_threads: 1,
        };
        let mut b = GridBench::new(&spec);
        b.golden = Some("00000000000000000000000000000000");
        assert_eq!(b.pass().failures.len(), 1, "golden mismatch counted");
        assert!(b.pass().failures.is_empty(), "later passes match the first");
    }
}
