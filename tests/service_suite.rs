//! The campaign service's three reuse layers, held to the repo's
//! digest oracle:
//!
//! * **cache equivalence** — a service-served sweep (cold, then warm
//!   through a fresh daemon instance) is bit-identical to a direct
//!   `run_grid_filtered` call, and the warm pass computes nothing;
//! * **single-flight** — N concurrent identical (and overlapping)
//!   requests perform exactly one computation per distinct cell;
//! * **crash/resume** — a daemon killed mid-sweep (via the
//!   `PCKPT_SERVICE_FAIL=crash:<k>` hook) resumes to a bit-identical
//!   merged digest, re-executing only the cells that never hit the
//!   journal;
//! * **journal robustness** — a journal truncated or corrupted at an
//!   *arbitrary byte offset* still resumes to the golden digest
//!   (proptest), because recovery keeps exactly the longest valid
//!   record prefix and recomputes the rest;
//! * **cache robustness** — a damaged, stale-version or misplaced cache
//!   entry is recomputed, never served;
//! * **fold records** — every cell's stored fold decodes to the bits
//!   the grid computed, re-encodes to the same bytes, and rejects every
//!   truncation and every flipped byte (proptest over cells, seeds and
//!   VR modes).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pckpt::core::frames::{seal, FRAME_VERSION};
use pckpt::core::{campaign_fingerprints, parse_vr_spec, run_grid_filtered, run_grid_with_cell_sink};
use pckpt::prelude::*;
use pckpt_service::{
    decode_fold_record, encode_fold_record, grid_digest, parse_request, respond, serve_unix,
    submit_unix, Service, ServiceConfig,
};

static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch root per call (counter + pid; no wall clock).
fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pckpt-service-suite-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_in(root: &PathBuf) -> Service {
    let mut cfg = ServiceConfig::in_dirs(Some(root.join("cache")), Some(root.join("state")));
    cfg.sync = pckpt_service::SyncPolicy::Off; // tests kill processes, not machines
    Service::open(cfg).expect("open service")
}

/// The suite's standard request: 2 apps × 2 scales, 2 models, small
/// fixed run count, single worker thread for cheap determinism.
const REQ: &str = r#"{"name":"suite","apps":["XGC","POP"],"scales":[1.2,0.6],
                     "models":["B","P2"],"runs":6,"seed":61,"threads":1}"#;

/// The digest a direct (service-free) run of `REQ` produces.
fn golden_digest() -> String {
    let req = parse_request(REQ).expect("suite request parses");
    let leads = LeadTimeModel::desh_default();
    let grid = run_grid_filtered(&req.cells, &leads, &req.config, req.prefilter.as_ref());
    grid_digest(&grid).hex()
}

#[test]
fn cold_and_warm_service_match_direct_execution_bit_for_bit() {
    let root = scratch_root("equiv");
    let golden = golden_digest();
    let req = parse_request(REQ).unwrap();

    // Cold: everything computed, journaled, cached.
    let cold_service = service_in(&root);
    let cold = cold_service.execute(&req).expect("cold request");
    assert_eq!(cold.meta.computed_cells, 4);
    assert_eq!(cold.meta.cache_hits, 0);
    assert_eq!(grid_digest(&cold.grid).hex(), golden, "cold != direct");

    // Warm, through a *fresh* service instance (daemon restart): every
    // cell served from persisted frames, nothing computed.
    drop(cold_service);
    let warm = service_in(&root).execute(&req).expect("warm request");
    assert_eq!(warm.meta.computed_cells, 0, "warm pass must not simulate");
    assert_eq!(grid_digest(&warm.grid).hex(), golden, "warm != direct");

    // Warm cells are byte-identical on disk across the two passes:
    // content-addressing means the second pass never rewrote them.
    let cache = root.join("cache");
    let mut cells: Vec<PathBuf> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 4, "one frame per survivor cell");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_identical_requests_compute_each_cell_exactly_once() {
    let root = scratch_root("flight");
    let service = Arc::new(service_in(&root));
    let n = 6;
    let mut handles = Vec::new();
    for _ in 0..n {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let req = parse_request(REQ).unwrap();
            let out = service.execute(&req).expect("request");
            (grid_digest(&out.grid).hex(), out.meta.computed_cells)
        }));
    }
    let results: Vec<(String, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("request thread"))
        .collect();
    let golden = golden_digest();
    for (digest, _) in &results {
        assert_eq!(digest, &golden);
    }
    let total_computed: u64 = results.iter().map(|(_, c)| c).sum();
    assert_eq!(
        total_computed, 4,
        "4 distinct cells → exactly 4 computations across {n} identical requests"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn overlapping_requests_coalesce_shared_cells() {
    // Two *different* campaigns (different cell sets → different
    // journals, so they run concurrently) sharing the POP cells: the
    // shared cells must be computed once globally, whichever request
    // wins the claim.
    let a = r#"{"name":"a","apps":["XGC","POP"],"scales":[1.0],"models":["B","P2"],
                "runs":6,"seed":61,"threads":1}"#;
    let b = r#"{"name":"b","apps":["POP","VULCAN"],"scales":[1.0],"models":["B","P2"],
                "runs":6,"seed":61,"threads":1}"#;
    let root = scratch_root("overlap");
    let service = Arc::new(service_in(&root));
    let mut handles = Vec::new();
    for text in [a, b, a, b] {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let req = parse_request(text).unwrap();
            service.execute(&req).expect("request").meta.computed_cells
        }));
    }
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("request thread"))
        .sum();
    // XGC@1, POP@1, VULCAN@1 — three distinct cells across 4 requests.
    assert_eq!(total, 3, "shared cells must not be recomputed");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn socket_roundtrip_serves_and_coalesces() {
    let root = scratch_root("socket");
    let socket = root.join("pckptd.sock");
    std::fs::create_dir_all(&root).unwrap();
    let service = Arc::new(service_in(&root));
    let server = {
        let socket = socket.clone();
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_unix(&socket, service, Some(2)))
    };
    // Wait for the socket to appear (bounded spin; no clocks in prod
    // code — tests may sleep).
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let one = submit_unix(&socket, REQ).expect("first request");
    let two = submit_unix(&socket, REQ).expect("second request");
    server.join().expect("server thread").expect("serve_unix");
    assert!(one.ends_with("OK\n"), "response must terminate with OK: {one}");
    let digest_line = |body: &str| {
        body.lines()
            .find(|l| l.starts_with("DIGEST "))
            .map(str::to_string)
            .expect("DIGEST line")
    };
    assert_eq!(digest_line(&one), digest_line(&two));
    assert_eq!(
        digest_line(&one),
        format!("DIGEST {}", golden_digest()),
        "socket-served digest must equal direct execution"
    );
    // The warm response must report zero computed cells.
    let meta = two
        .lines()
        .find(|l| l.starts_with("SERVICE_JSON "))
        .expect("meta line");
    assert!(
        meta.contains("\"computed_cells\":0"),
        "warm socket request must be cache-served: {meta}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Child entry for the kill test: when the driver environment is
/// present, runs the suite request against the given directories
/// (crashing at the injected append via `PCKPT_SERVICE_FAIL`) instead
/// of asserting anything.
#[test]
fn service_child_entry() {
    let Ok(root) = std::env::var("PCKPT_SERVICE_SUITE_ROOT") else {
        return;
    };
    let root = PathBuf::from(root);
    let req = parse_request(REQ).unwrap();
    // Crash hook fires inside execute(); reaching the end means the
    // injection threshold exceeded the workload (driver asserts on
    // exit status, so just return).
    let _ = service_in(&root).execute(&req);
}

#[test]
fn killed_daemon_resumes_to_identical_digest_recomputing_only_the_tail() {
    let root = scratch_root("crash");
    std::fs::create_dir_all(&root).unwrap();
    let exe = std::env::current_exe().expect("test binary path");
    const CRASH_AFTER: u64 = 2;
    let status = Command::new(&exe)
        .args(["service_child_entry", "--exact", "--nocapture", "--test-threads=1"])
        .env("PCKPT_SERVICE_SUITE_ROOT", &root)
        .env("PCKPT_SERVICE_FAIL", format!("crash:{CRASH_AFTER}"))
        .status()
        .expect("spawn service child");
    assert!(
        !status.success(),
        "child must die at the injected crash, got {status:?}"
    );

    // The journal holds exactly the cells that completed pre-crash.
    let state = root.join("state");
    let journals: Vec<PathBuf> = std::fs::read_dir(&state)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(journals.len(), 1, "one campaign → one journal file");

    // Resume in-process: only the never-journaled cells re-execute,
    // and the merged digest equals the uninterrupted golden.
    let req = parse_request(REQ).unwrap();
    let resumed = service_in(&root).execute(&req).expect("resumed request");
    assert_eq!(
        resumed.meta.journal_recovered, CRASH_AFTER,
        "crash-surviving cells come from the journal"
    );
    assert_eq!(
        resumed.meta.computed_cells,
        4 - CRASH_AFTER,
        "only uncompleted cells re-execute"
    );
    assert_eq!(
        grid_digest(&resumed.grid).hex(),
        golden_digest(),
        "resumed campaign must be bit-identical to an uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Builds a completed journal for `REQ` and returns its bytes plus the
/// journal path and root (kept alive for the resume pass).
fn completed_journal() -> (PathBuf, PathBuf, Vec<u8>) {
    let root = scratch_root("journal-prop");
    let req = parse_request(REQ).unwrap();
    let out = service_in(&root).execute(&req).expect("seed request");
    assert_eq!(out.meta.computed_cells, 4);
    let state = root.join("state");
    let journal = std::fs::read_dir(&state)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .next()
        .expect("journal file");
    let bytes = std::fs::read(&journal).expect("journal bytes");
    (root, journal, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Damage the journal anywhere — truncate to an arbitrary length
    /// or flip a byte at an arbitrary offset — and the resumed sweep
    /// still merges to the golden digest. Recovery may only lose
    /// *work* (cells recomputed), never *correctness*.
    #[test]
    fn journal_damage_at_any_offset_resumes_to_golden_digest(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
    ) {
        let (root, journal, bytes) = completed_journal();
        let offset = ((bytes.len() as f64 * frac) as usize).min(bytes.len().saturating_sub(1));
        let damaged = if flip {
            let mut d = bytes.clone();
            d[offset] ^= 0xFF;
            d
        } else {
            bytes[..offset].to_vec()
        };
        std::fs::write(&journal, &damaged).expect("write damaged journal");
        // Drop the cell cache so the resume leans on the journal alone
        // (otherwise every cell would trivially cache-hit).
        std::fs::remove_dir_all(root.join("cache")).expect("clear cache");

        let req = parse_request(REQ).unwrap();
        let resumed = service_in(&root).execute(&req).expect("resume over damage");
        prop_assert_eq!(grid_digest(&resumed.grid).hex(), golden_digest());
        prop_assert_eq!(
            resumed.meta.journal_recovered + resumed.meta.computed_cells
                + resumed.meta.cache_hits,
            4,
            "every cell is recovered, cache-served, or recomputed"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn adaptive_requests_bypass_the_reuse_layers() {
    let adaptive = r#"{"name":"adaptive","apps":["POP"],"scales":[1.0],
                       "models":["B","P2"],"runs":8,"seed":61,"threads":1,
                       "vr":"antithetic"}"#;
    // Fixed VR is cacheable; adaptive (set through RunnerConfig) is not.
    let root = scratch_root("adaptive");
    let service = service_in(&root);
    let mut req = parse_request(adaptive).unwrap();
    req.config.vr.adaptive = Some(pckpt::core::AdaptiveConfig {
        rel_target: 0.5,
        confidence: 0.95,
        batch: 4,
        max_runs: 8,
    });
    let out = service.execute(&req).expect("adaptive request");
    assert!(out.meta.uncached, "adaptive sweeps must not be cached");
    assert!(
        out.meta_json("adaptive").contains("\"uncached\":true"),
        "meta must flag the bypass"
    );
    // And nothing was journaled or cached for it.
    assert!(
        !root.join("state").exists()
            || std::fs::read_dir(root.join("state")).map(|d| d.count()).unwrap_or(0) == 0,
        "adaptive requests must leave no journal"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn respond_reports_errors_without_panicking() {
    let root = scratch_root("errors");
    let service = service_in(&root);
    for bad in ["not json", r#"{"app":"NOPE"}"#, r#"{}"#] {
        let body = respond(bad, &service);
        assert!(body.starts_with("ERR "), "{bad:?} → {body}");
        assert!(!body.contains("OK"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Six cells, so damaging four cache entries leaves two intact.
const WIDE: &str = r#"{"name":"wide","apps":["XGC","POP","VULCAN"],"scales":[1.2,0.6],
                      "models":["B","P2"],"runs":6,"seed":61,"threads":1}"#;

#[test]
fn damaged_cache_entries_degrade_to_recompute() {
    let root = scratch_root("damaged-cache");
    let req = parse_request(WIDE).unwrap();
    let leads = LeadTimeModel::desh_default();
    let golden = grid_digest(&run_grid_filtered(&req.cells, &leads, &req.config, None)).hex();
    let cold = service_in(&root).execute(&req).expect("cold request");
    assert_eq!(cold.meta.computed_cells, 6);

    let (fps, _) = campaign_fingerprints(&req.cells, leads.digest(), &req.config, None);
    let entry = |i: usize| root.join("cache").join(format!("{}.cell", fps[i].hex()));
    let read = |i: usize| std::fs::read(entry(i)).expect("cache entry");
    // A record is a 30-byte header, the fold, and an 8-byte seal.
    let mut flipped = read(0);
    let inside_fold = 30 + (flipped.len() - 38) / 2;
    flipped[inside_fold] ^= 0x10;
    std::fs::write(entry(0), flipped).unwrap();
    let whole = read(1);
    std::fs::write(entry(1), &whole[..whole.len() / 2]).unwrap();
    // An otherwise valid record of the previous frame version.
    let current = read(2);
    let mut old = current[..current.len() - 8].to_vec();
    old[4..6].copy_from_slice(&(FRAME_VERSION - 1).to_le_bytes());
    std::fs::write(entry(2), seal(old)).unwrap();
    // Another cell's valid record under this cell's name.
    std::fs::copy(entry(5), entry(3)).unwrap();

    let mut cfg = ServiceConfig::in_dirs(Some(root.join("cache")), Some(root.join("fresh-state")));
    cfg.sync = pckpt_service::SyncPolicy::Off;
    let warm = Service::open(cfg).expect("open service").execute(&req).expect("warm request");
    assert_eq!(grid_digest(&warm.grid).hex(), golden, "a damaged entry was served");
    assert_eq!(warm.meta.computed_cells, 4, "each damaged entry is recomputed");
    assert_eq!(warm.meta.cache_hits, 2, "the intact entries are served");
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fold record of every cell a grid sink sees: decoding it and
    /// re-encoding gives the same bytes, a grid assembled from the
    /// decoded folds has the direct grid's digest, and every strict
    /// prefix and every single-byte flip of the record is rejected.
    #[test]
    fn fold_records_are_exact_and_reject_every_damage(
        apps in proptest::collection::vec(0usize..4, 1..3),
        scale in 0.4f64..1.6,
        with_m2 in any::<bool>(),
        runs in 2usize..6,
        seed in any::<u64>(),
        vr in 0usize..4,
    ) {
        let names = ["XGC", "POP", "CHIMERA", "VULCAN"];
        let models: Vec<ModelKind> = if with_m2 {
            vec![ModelKind::B, ModelKind::M2, ModelKind::P2]
        } else {
            vec![ModelKind::P1]
        };
        let cells: Vec<GridCell> = apps
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let app = Application::by_name(names[a]).expect("table app");
                let mut params = SimParams::paper_defaults(ModelKind::B, app);
                params.lead_scale = scale;
                GridCell::new(params, &models).with_label(format!("{i}:{}", names[a]))
            })
            .collect();
        let mut config = RunnerConfig::new(runs, seed);
        config.threads = 1;
        let vr_specs = ["off", "antithetic", "stratified:2", "antithetic,stratified:2"];
        config.vr = parse_vr_spec(vr_specs[vr]).expect("valid VR spec");
        let leads = LeadTimeModel::desh_default();
        let (fps, _) = campaign_fingerprints(&cells, leads.digest(), &config, None);

        let mut records = Vec::new();
        let mut grid = run_grid_with_cell_sink(&cells, &leads, &config, &mut |done| {
            let fold = (done.campaign, done.ci);
            records.push(encode_fold_record(fps[done.cell], runs as u64, &fold));
        });
        let direct = run_grid_filtered(&cells, &leads, &config, None);
        prop_assert_eq!(records.len(), cells.len());
        for (i, bytes) in records.iter().enumerate() {
            let fold = decode_fold_record(bytes, fps[i], &models, runs).expect("record decodes");
            prop_assert_eq!(&encode_fold_record(fps[i], runs as u64, &fold), bytes);
            grid.cells[i] = CampaignResult { threads: grid.threads, ..fold.0 };
            grid.cell_ci_rel[i] = fold.1;
            for cut in 0..bytes.len() {
                prop_assert!(decode_fold_record(&bytes[..cut], fps[i], &models, runs).is_err());
            }
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0x01;
                prop_assert!(decode_fold_record(&bad, fps[i], &models, runs).is_err());
            }
        }
        prop_assert_eq!(grid_digest(&grid).hex(), grid_digest(&direct).hex());
    }
}
