//! The campaign-service workloads (`pckpt_service::respond` in a closed
//! loop, one client) and the service-layer replays.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pckpt_core::{campaign_fingerprints, Canon, GridCell, RunResult, RunnerConfig};
use pckpt_service::json::{parse, Json};
use pckpt_service::{
    parse_request, respond, CellFrame, CellFrameReader, CellStore, Journal, Service, ServiceConfig,
    SyncPolicy,
};

use crate::grid::{timed_grid, trace_gen_replay, traced_pass, GenReplay, GridTrace, UnitMap};
use crate::inputs::{probe_request, requests, Request, SplitMix, Workload};
use crate::measure::{trace_iterations, Bench, Pass, RunSpec, OP_THREADS};
use crate::report::{Outcome, Tracer};
use crate::stats::median;

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory under `target/pbench/` (relative to the working
/// directory), removed on drop.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn new(tag: &str) -> Result<TmpDir, String> {
        let dir = PathBuf::from("target").join("pbench").join(format!(
            "tmp-{}-{}-{tag}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-unit costs of the service layers, replayed on one grid's cells.
#[derive(Debug, Clone, Default)]
pub struct IoCosts {
    pub fingerprint_us_per_cell: f64,
    pub encode_us_per_cell: f64,
    pub decode_ns_per_result: f64,
    pub put_us: f64,
    pub get_us: f64,
    pub bytes_per_cell: f64,
    pub append_us: f64,
    pub recover_us_per_cell: f64,
}

impl IoCosts {
    /// Field-wise mean (all zero for no samples).
    fn mean(all: &[IoCosts]) -> IoCosts {
        let n = all.len().max(1) as f64;
        let avg = |f: fn(&IoCosts) -> f64| all.iter().map(f).sum::<f64>() / n;
        IoCosts {
            fingerprint_us_per_cell: avg(|c| c.fingerprint_us_per_cell),
            encode_us_per_cell: avg(|c| c.encode_us_per_cell),
            decode_ns_per_result: avg(|c| c.decode_ns_per_result),
            put_us: avg(|c| c.put_us),
            get_us: avg(|c| c.get_us),
            bytes_per_cell: avg(|c| c.bytes_per_cell),
            append_us: avg(|c| c.append_us),
            recover_us_per_cell: avg(|c| c.recover_us_per_cell),
        }
    }

    /// The per-layer metrics these costs are.
    pub fn metrics(&self) -> [(&'static str, f64); 8] {
        [
            ("core.fingerprint.us_per_cell", self.fingerprint_us_per_cell),
            (
                "service.cellframe.encode_us_per_cell",
                self.encode_us_per_cell,
            ),
            (
                "service.cellframe.decode_ns_per_result",
                self.decode_ns_per_result,
            ),
            ("service.cache.get_us", self.get_us),
            ("service.cache.put_us", self.put_us),
            ("service.cache.bytes_per_cell", self.bytes_per_cell),
            ("service.journal.append_us", self.append_us),
            (
                "service.journal.recover_us_per_cell",
                self.recover_us_per_cell,
            ),
        ]
    }
}

/// Replays the service layers on real result frames of `cells`
/// (`results` lane-major as `traced_pass` returns them): fingerprints,
/// frame encode and decode, cache put and get on a scratch store, and
/// journal append (fsync on) and recovery on a scratch journal.
#[allow(clippy::too_many_arguments)]
pub fn io_replay(
    cells: &[GridCell],
    cfg: &RunnerConfig,
    leads_digest: u64,
    results: &[RunResult],
    map: &UnitMap,
    dir: &Path,
    tracer: &mut Tracer,
    request: u32,
) -> Result<IoCosts, String> {
    const FP_REPEATS: usize = 16;
    let n = cells.len() as f64;
    let mut c = IoCosts::default();
    let t = Instant::now();
    let mut fps = Vec::new();
    let mut campaign_fp = None;
    for _ in 0..FP_REPEATS {
        let (f, cf) = campaign_fingerprints(cells, leads_digest, cfg, None);
        fps = f;
        campaign_fp = Some(cf);
    }
    tracer.record("core.fingerprint", t, Instant::now(), None, request, 2);
    c.fingerprint_us_per_cell = t.elapsed().as_secs_f64() * 1e6 / (FP_REPEATS as f64 * n);
    let campaign_fp = campaign_fp.expect("fingerprinted at least once");

    let sub = dir.join(format!(
        "replay-{}",
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let store = CellStore::open(Some(&sub.join("cache")), 1 << 20)?;
    let journal_path = sub.join("journal").join("replay.journal");
    let (mut journal, _) =
        Journal::open(&journal_path, campaign_fp, cells.len(), SyncPolicy::Always)?;
    let runs = cfg.runs;
    let mut decoded = 0u64;
    let mut decode_s = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        let (l0, l1) = map.cell_lanes(i, cells);
        let frame = CellFrame {
            fp: fps[i],
            lanes: cell.models.len() as u32,
            runs: runs as u64,
            results: results[l0 * runs..l1 * runs].to_vec(),
        };
        let a = Instant::now();
        let bytes = frame.encode();
        let b = Instant::now();
        tracer.record("service.cellframe.encode", a, b, None, request, 2);
        c.encode_us_per_cell += (b - a).as_secs_f64() * 1e6 / n;
        c.bytes_per_cell += bytes.len() as f64 / n;

        let a = Instant::now();
        let mut reader = CellFrameReader::open(&bytes, Some(fps[i]))?;
        let mut scratch = RunResult::default();
        for _ in 0..frame.results.len() {
            reader.next_result_into(&mut scratch)?;
        }
        let b = Instant::now();
        tracer.record("service.cellframe.decode", a, b, None, request, 2);
        decode_s += (b - a).as_secs_f64();
        decoded += frame.results.len() as u64;

        let a = Instant::now();
        store.put(fps[i], &bytes)?;
        let b = Instant::now();
        tracer.record("service.cache.put", a, b, None, request, 2);
        c.put_us += (b - a).as_secs_f64() * 1e6 / n;
        let a = Instant::now();
        let back = store.get(fps[i]);
        let b = Instant::now();
        tracer.record("service.cache.get", a, b, None, request, 2);
        c.get_us += (b - a).as_secs_f64() * 1e6 / n;
        if back.as_deref() != Some(&bytes[..]) {
            return Err(format!("cache returned other bytes for cell {i}"));
        }

        let a = Instant::now();
        journal.append_cell(i, &bytes)?;
        let b = Instant::now();
        tracer.record("service.journal.append", a, b, None, request, 2);
        c.append_us += (b - a).as_secs_f64() * 1e6 / n;
    }
    drop(journal);
    let a = Instant::now();
    let (_, recovered) =
        Journal::open(&journal_path, campaign_fp, cells.len(), SyncPolicy::Always)?;
    let b = Instant::now();
    tracer.record("service.journal.recover", a, b, None, request, 2);
    if recovered.len() != cells.len() {
        return Err(format!(
            "journal recovered {} of {} cells",
            recovered.len(),
            cells.len()
        ));
    }
    c.recover_us_per_cell = (b - a).as_secs_f64() * 1e6 / n;
    c.decode_ns_per_result = decode_s * 1e9 / decoded.max(1) as f64;
    let _ = std::fs::remove_dir_all(&sub);
    Ok(c)
}

/// What one response said.
#[derive(Debug, Default, Clone)]
struct Reply {
    digest: Option<String>,
    error: Option<String>,
    computed: u64,
    served: u64,
}

fn read_reply(body: &str) -> Reply {
    let mut r = Reply::default();
    if let Some(e) = body.strip_prefix("ERR ") {
        r.error = Some(e.trim().to_string());
        return r;
    }
    for line in body.lines() {
        if let Some(d) = line.strip_prefix("DIGEST ") {
            r.digest = Some(d.trim().to_string());
        } else if let Some(meta) = line.strip_prefix("SERVICE_JSON ") {
            if let Ok(doc) = parse(meta) {
                let get = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
                r.computed = get("computed_cells");
                r.served = get("cache_hits") + get("journal_recovered") + get("coalesced");
            }
        }
    }
    if r.digest.is_none() {
        r.error = Some("response without DIGEST line".to_string());
    }
    r
}

/// A daemon persisting under `dir` (cell cache plus journal, fsync
/// after every append: `pckptd --cache-dir`), or without `dir` one that
/// keeps computed cells in memory only (`pckptd` with no directory).
/// Every field is explicit: no `PCKPT_*` variable is consulted.
fn open_service(dir: Option<&Path>) -> Result<Service, String> {
    Service::open(ServiceConfig {
        cache_dir: dir.map(|d| d.join("cache")),
        state_dir: dir.map(|d| d.join("state")),
        cache_max: 4096,
        mem_max: 256,
        sync: SyncPolicy::Always,
    })
}

/// Combined digest of a list of response digests, in list order.
fn combined(digests: &[Option<String>]) -> String {
    let mut canon = Canon::new();
    for d in digests {
        canon.push_str(d.as_deref().unwrap_or("-"));
    }
    canon.fingerprint().hex()
}

/// One service workload: `service_cold` serves its requests on a new
/// persisting daemon with empty directories each pass; `service_warm`
/// repeats them, in a fresh seeded order each pass, on an in-memory
/// daemon that the warm-up pass filled, so every repeat is served from
/// memory. (A persisting daemon serves a repeat by reopening the
/// campaign's journal and re-adopting its cells; the traced run prices
/// those layers per cell.)
pub struct ServiceBench {
    phase: Workload,
    requests: Vec<Request>,
    root: TmpDir,
    reference: Vec<Option<String>>,
    svc: Option<Service>,
    order: SplitMix,
    golden: Option<&'static str>,
    computed: Vec<u64>,
    served: Vec<u64>,
}

impl ServiceBench {
    /// Set-up: the requests, a fresh scratch root and a first-touch probe.
    pub fn new(spec: &RunSpec) -> Result<ServiceBench, String> {
        let requests = requests(spec.seed, spec.sizes().service_runs);
        let b = ServiceBench {
            phase: spec.workload,
            reference: vec![None; requests.len()],
            requests,
            root: TmpDir::new(spec.workload.name())?,
            svc: None,
            order: SplitMix::new(spec.seed ^ 0x000D_DE12),
            golden: spec.golden("service_cold"),
            computed: Vec::new(),
            served: Vec::new(),
        };
        // First-touch probe: a one-run request on a throwaway in-memory
        // daemon (pool spin-up, simulator construction, fingerprinting,
        // frame encode).
        let probe = open_service(None)?;
        if let Some(e) = read_reply(&respond(&probe_request().text(OP_THREADS), &probe)).error {
            return Err(format!("probe request: {e}"));
        }
        Ok(b)
    }

    /// Request indices one pass serves.
    fn pass_requests(&mut self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.requests.len()).collect();
        if self.phase == Workload::ServiceWarm {
            self.order.shuffle(&mut v);
        }
        v
    }

    /// Puts the daemon in the state a pass starts from (untimed): for
    /// `service_cold` a new daemon on empty directories; for
    /// `service_warm` the in-memory daemon its first pass, the warm-up,
    /// fills.
    fn start_pass(&mut self, dir: &str) -> Result<(), String> {
        if self.phase == Workload::ServiceCold {
            self.svc = None;
            let d = self.root.path().join(dir);
            let _ = std::fs::remove_dir_all(&d);
            self.svc = Some(open_service(Some(&d))?);
        } else if self.svc.is_none() {
            self.svc = Some(open_service(None)?);
        }
        Ok(())
    }

    /// Serves request `i` and checks it; returns its wall time.
    fn serve(&mut self, i: usize, failures: &mut Vec<String>) -> f64 {
        let text = self.requests[i].text(OP_THREADS);
        let svc = self.svc.as_ref().expect("pass started");
        let t = Instant::now();
        let body = respond(&text, svc);
        let secs = t.elapsed().as_secs_f64();
        let reply = read_reply(&body);
        self.check(i, &reply, failures);
        self.computed.push(reply.computed);
        self.served.push(reply.served);
        secs
    }

    fn check(&mut self, i: usize, reply: &Reply, failures: &mut Vec<String>) {
        if let Some(e) = &reply.error {
            failures.push(format!("request {i}: ERR {e}"));
            return;
        }
        match (&self.reference[i], &reply.digest) {
            (Some(want), Some(got)) if want != got => {
                failures.push(format!("request {i}: digest {got} != cold response {want}"));
            }
            (None, got) => self.reference[i] = got.clone(),
            _ => {}
        }
    }

    fn check_golden(&self, out: &mut Outcome) {
        let cold = combined(&self.reference);
        if let Some(g) = self.golden {
            if g != cold {
                out.fail(format!("cold responses digest {cold} != golden {g}"));
            }
        }
        out.extra_digest("digest.cold", &cold);
    }

    /// One untraced pass: each request's wall time.
    fn serve_pass(&mut self, failures: &mut Vec<String>) -> Vec<f64> {
        let reqs = self.pass_requests();
        if let Err(e) = self.start_pass("pass") {
            failures.push(e);
            return Vec::new();
        }
        reqs.into_iter().map(|i| self.serve(i, failures)).collect()
    }
}

impl Bench for ServiceBench {
    fn warm_up(&mut self, out: &mut Outcome) {
        let mut failures = Vec::new();
        self.serve_pass(&mut failures);
        out.attempted += self.computed.len().max(1) as u64;
        for f in failures {
            out.fail(f);
        }
        self.check_golden(out);
        self.computed.clear();
        self.served.clear();
    }

    fn pass(&mut self) -> Pass {
        let mut failures = Vec::new();
        let before = self.computed.len();
        let op_secs = self.serve_pass(&mut failures);
        let served = (self.computed.len() - before) as u64;
        Pass {
            op_secs,
            lane_runs: served * self.requests[0].lane_runs(),
            attempted: served.max(1),
            failures,
        }
    }

    fn counts(&self, out: &mut Outcome) {
        let cells: u64 = self
            .computed
            .iter()
            .zip(&self.served)
            .map(|(c, s)| c + s)
            .sum();
        let n = self.computed.len().max(1) as f64;
        out.counts.insert(
            "computed_cells_per_request",
            self.computed.iter().sum::<u64>() as f64 / n,
        );
        out.counts.insert(
            "reuse_ratio",
            self.served.iter().sum::<u64>() as f64 / cells.max(1) as f64,
        );
    }
}

/// A grid the service computes, replayed through the grid layers.
struct ComputeGrid {
    /// Index of the request whose cells these are.
    request: usize,
    cells: Vec<GridCell>,
    cfg: RunnerConfig,
}

impl ServiceBench {
    /// Grids the requests simulate: each request's six cells. Warm
    /// requests simulate nothing; their replay grids are the ones the
    /// warm-up pass computed.
    fn compute_grids(&self) -> Result<Vec<ComputeGrid>, String> {
        let mut grids = Vec::new();
        for (i, r) in self.requests.iter().enumerate() {
            let req = parse_request(&r.text(OP_THREADS))?;
            grids.push(ComputeGrid {
                request: i,
                cells: req.cells,
                cfg: req.config,
            });
        }
        Ok(grids)
    }

    /// The traced run: an untraced single-thread pass, a traced pass
    /// timing `parse_request` and `Service::execute` per request, a
    /// render probe (`respond` minus parse and execute on a warm
    /// daemon), and replays of the grid and service layers on the
    /// phase's cells.
    pub fn trace(&mut self, spec: &RunSpec, out: &mut Outcome, tracer: &mut Tracer) {
        Bench::warm_up(self, out);
        let grids = match self.compute_grids() {
            Ok(g) => g,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("compute grids: {e}"));
                return;
            }
        };
        let threads = spec.pool_threads;
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let maps: Vec<UnitMap> = grids.iter().map(|g| UnitMap::new(&g.cells)).collect();
        let tmp = match TmpDir::new("io") {
            Ok(t) => t,
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return;
            }
        };
        trace_iterations(spec, out, |out| {
            let mut failures = Vec::new();
            self.computed.clear();
            self.served.clear();
            // Untraced pass.
            let wall1: f64 = self.serve_pass(&mut failures).iter().sum();
            let ops = self.computed.len().max(1) as f64;
            let reuse = self.served.iter().sum::<u64>() as f64
                / (self.served.iter().sum::<u64>() + self.computed.iter().sum::<u64>()).max(1)
                    as f64;

            // Traced pass on an equivalent state.
            let mut parse_s = 0.0;
            let mut exec_s = 0.0;
            let mut computed = 0u64;
            let mut results_total = 0u64;
            let mut served_results = 0u64;
            let mut computed_reqs = Vec::new();
            let reqs = self.pass_requests();
            let pass_span = tracer.open("service.pass", None, 0, 3);
            if let Err(e) = self.start_pass("traced") {
                failures.push(e);
            }
            for &i in &reqs {
                let id = i as u32 + 1;
                let op = tracer.open("service.request", Some(pass_span), id, 3);
                let text = self.requests[i].text(OP_THREADS);
                let a = Instant::now();
                let req = parse_request(&text);
                let b = Instant::now();
                tracer.record("service.request.parse", a, b, Some(op), id, 3);
                parse_s += (b - a).as_secs_f64();
                let req = match req {
                    Ok(r) => r,
                    Err(e) => {
                        failures.push(format!("request {i}: parse: {e}"));
                        tracer.close(op);
                        continue;
                    }
                };
                let Some(svc) = self.svc.as_ref() else { break };
                let a = Instant::now();
                let res = svc.execute(&req);
                let b = Instant::now();
                tracer.record("service.execute", a, b, Some(op), id, 3);
                tracer.close(op);
                exec_s += (b - a).as_secs_f64();
                match res {
                    Ok(o) => {
                        let got = pckpt_service::grid_digest(&o.grid).hex();
                        if self.reference[i].as_deref() != Some(got.as_str()) {
                            failures.push(format!("request {i}: traced digest {got} differs"));
                        }
                        computed += o.meta.computed_cells;
                        // Every cell of a request has the same models.
                        let cell_results = (req.cells[0].models.len() * req.config.runs) as u64;
                        results_total += req.cells.len() as u64 * cell_results;
                        served_results +=
                            (req.cells.len() as u64 - o.meta.computed_cells) * cell_results;
                        if o.meta.computed_cells > 0 {
                            computed_reqs.push(i);
                        }
                    }
                    Err(e) => failures.push(format!("request {i}: execute: {e}")),
                }
            }
            tracer.close(pass_span);

            // Render probe: respond minus parse and execute, on the now
            // warm daemon, alternating the two per request.
            let mut render = Vec::new();
            if let Some(svc) = self.svc.as_ref() {
                for &i in reqs.iter().chain(&reqs) {
                    let text = self.requests[i].text(OP_THREADS);
                    let a = Instant::now();
                    std::hint::black_box(respond(&text, svc));
                    let whole = a.elapsed().as_secs_f64();
                    let a = Instant::now();
                    let parsed = parse_request(&text).map(|r| svc.execute(&r).map(|o| o.meta));
                    let parts = a.elapsed().as_secs_f64();
                    std::hint::black_box(parsed.is_ok());
                    render.push(whole - parts);
                }
            }
            let render_s = if render.is_empty() {
                0.0
            } else {
                median(&render)
            };

            // Grid and service layers replayed on every request's cells;
            // `on_path` sums the grids this pass computed.
            let (mut all, mut all_gen) = (GridTrace::default(), GenReplay::default());
            let (mut on_path, mut on_path_gen) = (GridTrace::default(), GenReplay::default());
            let mut pool_s = 0.0;
            let mut ios = Vec::new();
            for (g, map) in grids.iter().zip(&maps) {
                let id = g.request as u32 + 1;
                let (tr, res) = traced_pass(&g.cells, &leads, &g.cfg, map, tracer, id);
                let gen = trace_gen_replay(map, &leads, &g.cfg, tracer, id);
                if gen.gens != tr.gens {
                    failures.push(format!(
                        "replayed {} trace generations, worker made {}",
                        gen.gens, tr.gens
                    ));
                }
                let mut pool = g.cfg;
                pool.threads = threads;
                pool_s += timed_grid(&g.cells, &leads, &pool).0;
                match io_replay(
                    &g.cells,
                    &g.cfg,
                    leads.digest(),
                    &res,
                    map,
                    tmp.path(),
                    tracer,
                    id,
                ) {
                    Ok(io) => ios.push(io),
                    Err(e) => failures.push(format!("service-layer replay: {e}")),
                }
                if computed_reqs.contains(&g.request) {
                    on_path.absorb(tr.clone());
                    on_path_gen.absorb(&gen);
                }
                all.absorb(tr);
                all_gen.absorb(&gen);
            }
            let io = IoCosts::mean(&ios);
            let cells_total: u64 = reqs
                .iter()
                .map(|&i| self.requests[i].cells().len() as u64)
                .sum();
            let fp_s = cells_total as f64 * io.fingerprint_us_per_cell * 1e-6;
            let encode_s = computed as f64 * io.encode_us_per_cell * 1e-6;
            let append_s = computed as f64 * io.append_us * 1e-6;
            let put_s = computed as f64 * io.put_us * 1e-6;
            let decode_s = served_results as f64 * io.decode_ns_per_result * 1e-9;
            let fold_s = results_total as f64 * all.fold_s / all.results.max(1) as f64;
            let service_s = fp_s + encode_s + append_s + put_s + decode_s;
            let render_total = render_s * reqs.len() as f64;
            let (plan_s, gen_s) = (on_path.plan_s, on_path_gen.secs);
            let sim_s = on_path.unit_s - gen_s;
            let attributed = plan_s + sim_s + gen_s + fold_s + service_s + parse_s + render_total;
            let traced_s = parse_s + exec_s + render_total;
            out.attempted += reqs.len() as u64 + 1;
            for f in failures {
                out.fail(f);
            }
            out.counts
                .insert("computed_cells_per_request", computed as f64 / ops);
            out.counts.insert("reuse_ratio", reuse);
            out.counts
                .insert("replay_trace_generations", all.gens as f64);
            out.counts.insert(
                "replay_events_per_unit_run",
                all.events as f64 / all.unit_runs.max(1) as f64,
            );
            let mut rows = all.layer_metrics(&all_gen, grids.len(), pool_s, threads);
            rows.extend(io.metrics());
            rows.extend([
                ("failure.trace_gens", on_path.gens as f64 / ops),
                ("failure.share", gen_s / wall1),
                ("core.sim.share", sim_s / wall1),
                ("service.reuse_ratio", reuse),
                ("service.computed_cells", computed as f64 / ops),
                ("service.share", service_s / wall1),
                // Attribution of the untraced single-thread pass, per request.
                ("layer.request_1thread_ms", wall1 / ops * 1e3),
                ("layer.parse_us", parse_s / ops * 1e6),
                ("layer.execute_ms", exec_s / ops * 1e3),
                ("layer.render_us", render_s * 1e6),
                ("layer.plan_us", plan_s / ops * 1e6),
                ("layer.sim_ms", sim_s / ops * 1e3),
                ("layer.failure_ms", gen_s / ops * 1e3),
                ("layer.fold_ms", fold_s / ops * 1e3),
                ("layer.fingerprint_us", fp_s / ops * 1e6),
                ("layer.encode_us", encode_s / ops * 1e6),
                ("layer.journal_append_us", append_s / ops * 1e6),
                ("layer.cache_put_us", put_s / ops * 1e6),
                ("layer.decode_us", decode_s / ops * 1e6),
                ("layer.residual_ms", (wall1 - attributed) / ops * 1e3),
                ("trace.overhead_ms", (traced_s - wall1) / ops * 1e3),
                ("trace.overhead_frac", (traced_s - wall1) / wall1),
            ]);
            rows
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::DEFAULT_SEED;

    #[test]
    fn responses_match_a_direct_grid_sweep() {
        let root = TmpDir::new("oracle").expect("scratch dir");
        let svc = open_service(Some(root.path())).expect("service opens");
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        for r in &requests(DEFAULT_SEED, 2) {
            let text = r.text(OP_THREADS);
            let reply = read_reply(&respond(&text, &svc));
            let req = parse_request(&text).expect("generated requests parse");
            let direct = pckpt_core::run_grid_filtered(&req.cells, &leads, &req.config, None);
            let want = pckpt_service::grid_digest(&direct).hex();
            assert_eq!(reply.digest.as_deref(), Some(want.as_str()), "{text}");
            assert_eq!(reply.computed + reply.served, r.cells().len() as u64);
        }
    }

    #[test]
    fn replies_are_read_and_errors_reported() {
        let r = read_reply("ERR unknown application 'X'\n");
        assert_eq!(r.error.as_deref(), Some("unknown application 'X'"));
        let r = read_reply(
            "SERVICE_JSON {\"computed_cells\":2,\"cache_hits\":1,\"journal_recovered\":1,\"coalesced\":0}\n\
             DIGEST 0123\nOK\n",
        );
        assert_eq!(
            (r.digest.as_deref(), r.computed, r.served),
            (Some("0123"), 2, 2)
        );
        assert!(
            read_reply("OK\n").error.is_some(),
            "a reply without a digest is an error"
        );
    }
}
