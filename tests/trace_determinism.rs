//! Trace-determinism regression tests.
//!
//! The goldens here pin three layers, from coarse to raw:
//!
//! 1. **Results** — `GOLDEN_CAMPAIGN_DIGEST`, `GOLDEN_GRID_DIGEST`,
//!    `GOLDEN_ADAPTIVE_DIGEST` and
//!    `GOLDEN_FIXED_GRID_DIGEST`/`GOLDEN_FIXED_VR_GRID_DIGEST` hash the
//!    aggregates the paper's figures are made of. They are asserted under
//!    *both* settings of the `trace` feature (this file is compiled twice
//!    by `scripts/ci.sh`), so they also prove that compiling the recorder
//!    in perturbs no RNG draw, event order or float operation. A change
//!    that moves one of them changes a simulated number.
//! 2. **The protocol stream** — `GOLDEN_PROTOCOL_STREAM` hashes every
//!    record of a fixed-seed run except the queue's own SCHED/POP
//!    records, over `(t, kind, a, b)`: what the handlers did and when, in
//!    all five models and both PFS modes. A default build records exactly
//!    this stream (the queue records need `trace`), so it is checked
//!    under both feature settings. It holds across any change to how the
//!    queue stores or orders equal work, and moves only when the protocol
//!    itself does.
//! 3. **The raw queue stream** — `GOLDEN_STREAM_ANALYTIC` and
//!    `GOLDEN_STREAM_FLUID` (`trace` only) hash the whole structured
//!    stream of one run, queue records and their seq ids included. They
//!    move whenever the set of events scheduled changes, even if no
//!    handler sees a difference (say, an event that could only pop as
//!    a no-op), and catch any re-ordering of dispatch,
//!    flow-wave completion or protocol phases first.
//!
//! Regenerate goldens after an *intentional* change with:
//! `cargo test --features trace --test trace_determinism -- --nocapture`
//! (the failing assertions print the measured values; without
//! `--features trace` the raw-stream goldens are not compiled).

use pckpt::core::iosim::PfsMode;
use pckpt::prelude::*;

/// Golden digest of the 12-run XGC campaign below — identical with and
/// without the `trace` feature.
const GOLDEN_CAMPAIGN_DIGEST: &str = "B:40134339b68338cd-0000000000000000-4041800000000000;\
     P2:3ff84e8dbc526410-3fed41d41d41d41d-4041800000000000;\
     B:40134339b68338cd-0000000000000000-4041800000000000;\
     P2:3ff84847020395d3-3fed41d41d41d41d-4041800000000000;";

/// Golden digest of the 3-cell lead-scale grid below. The cells share
/// one scale-invariant trace group, so this constant also pins the
/// grid engine's cross-cell trace reuse and lead-blind B-lane
/// deduplication: a change to either would shift which cached state
/// feeds which lane and drift a cell digest before anything else.
const GOLDEN_GRID_DIGEST: &str = "XGC@1.5/B:40134339b68338cd-0000000000000000-4041800000000000;\
     XGC@1.5/P2:3ff519dddf7a889d-3fed41d41d41d41d-4041800000000000;\
     XGC@1/B:40134339b68338cd-0000000000000000-4041800000000000;\
     XGC@1/P2:3ff84e8dbc526410-3fed41d41d41d41d-4041800000000000;\
     XGC@0.5/B:40134339b68338cd-0000000000000000-4041800000000000;\
     XGC@0.5/P2:40004dee08fa5a35-3feb6db6db6db6db-4041800000000000;";

/// `pckpt_service::grid_digest` of the same grid at a fixed run count,
/// with VR off and with antithetic pairs in 4 strata. The digest
/// covers `cell_runs`, `cell_ci_rel` and every lane aggregate, so the
/// pair pins both lane CI estimators: `total_hours` with VR off and the
/// VR tracker with VR on.
const GOLDEN_FIXED_GRID_DIGEST: &str = "2e0c06ed7e013155b7dc5cb4d5474985";
const GOLDEN_FIXED_VR_GRID_DIGEST: &str = "405c550f2c60c83647579990d76018c6";

fn xgc_params(mode: PfsMode) -> SimParams {
    let app = Application::by_name("XGC").expect("Table I app");
    let mut params = SimParams::paper_defaults(ModelKind::P2, app);
    params.pfs_mode = mode;
    params
}

/// The golden grid: three XGC cells at different lead scales, [B, P2].
fn golden_cells() -> Vec<GridCell> {
    let models = [ModelKind::B, ModelKind::P2];
    [1.5, 1.0, 0.5]
        .iter()
        .map(|&scale| {
            let mut p = xgc_params(PfsMode::Analytic);
            p.lead_scale = scale;
            GridCell::new(p, &models).with_label(format!("XGC@{scale}"))
        })
        .collect()
}

/// Bit-exact digest of everything figure-feeding in a small two-model,
/// two-mode campaign.
fn campaign_digest() -> String {
    let leads = LeadTimeModel::desh_default();
    let mut s = String::new();
    for mode in [PfsMode::Analytic, PfsMode::Fluid] {
        let c = run_models(
            &xgc_params(mode),
            &[ModelKind::B, ModelKind::P2],
            &leads,
            &RunnerConfig::new(12, 61),
        );
        for (m, a) in c.models.iter().zip(&c.aggregates) {
            s.push_str(&format!(
                "{}:{:016x}-{:016x}-{:016x};",
                m.name(),
                a.total_hours.mean().to_bits(),
                a.ft_ratio_pooled().to_bits(),
                a.failures.sum().to_bits(),
            ));
        }
    }
    s
}

/// Same digest format over a grid sweep: three XGC cells at different
/// lead scales through one `run_grid` pool.
fn grid_digest() -> (String, usize) {
    let leads = LeadTimeModel::desh_default();
    let grid = run_grid(&golden_cells(), &leads, &RunnerConfig::new(12, 61));
    let mut s = String::new();
    for (label, c) in grid.labels.iter().zip(&grid.cells) {
        for (m, a) in c.models.iter().zip(&c.aggregates) {
            s.push_str(&format!(
                "{}/{}:{:016x}-{:016x}-{:016x};",
                label,
                m.name(),
                a.total_hours.mean().to_bits(),
                a.ft_ratio_pooled().to_bits(),
                a.failures.sum().to_bits(),
            ));
        }
    }
    (s, grid.trace_groups)
}

#[test]
fn campaign_digest_matches_golden_with_and_without_trace() {
    let digest = campaign_digest();
    assert_eq!(
        digest, GOLDEN_CAMPAIGN_DIGEST,
        "campaign digest drifted (trace feature {}abled)",
        if cfg!(feature = "trace") { "en" } else { "dis" }
    );
}

#[test]
fn grid_digest_matches_golden_with_and_without_trace() {
    let (digest, trace_groups) = grid_digest();
    assert_eq!(
        trace_groups, 1,
        "lead-scale-only cells must collapse into one trace group"
    );
    assert_eq!(
        digest, GOLDEN_GRID_DIGEST,
        "grid digest drifted (trace feature {}abled)",
        if cfg!(feature = "trace") { "en" } else { "dis" }
    );
}

/// Golden digest of the adaptive variance-reduction grid below: the
/// per-cell run counts the CI stopping rule settles on, then the usual
/// per-lane digests. Pinned under both `trace` feature settings and
/// every thread count — the adaptive fold runs on the main thread in
/// (cell, model, run) order, so batch scheduling and stopping decisions
/// are thread-invariant by construction.
const GOLDEN_ADAPTIVE_DIGEST: &str = "runs[24,16,16]\
     XGC@1.5/B:4011b6bf067d724d-0000000000000000-40513fffffffffff;\
     XGC@1.5/P2:3ff7390d0f8dc4eb-3feca81e9131abed-4050c00000000002;\
     XGC@1/B:40115eb2fae2f990-0000000000000000-4046ffffffffffff;\
     XGC@1/P2:3ffb1d414e932cfd-3fec71c71c71c71c-4046800000000000;\
     XGC@0.5/B:40115eb2fae2f990-0000000000000000-4046ffffffffffff;\
     XGC@0.5/P2:40022cbe64c40fbc-3fea4fa4fa4fa4fa-4046800000000000;";

#[test]
fn adaptive_grid_digest_matches_golden_with_and_without_trace() {
    use pckpt::core::{AdaptiveConfig, VrConfig};
    let leads = LeadTimeModel::desh_default();
    let cells = golden_cells();
    let mut digests = Vec::new();
    for threads in [1, 3, 8] {
        let mut cfg = RunnerConfig::new(64, 61);
        cfg.threads = threads;
        cfg.vr = VrConfig {
            antithetic: true,
            strata: 4,
            adaptive: Some(AdaptiveConfig {
                rel_target: 0.2,
                batch: 8,
                max_runs: 64,
            }),
        };
        let grid = run_grid(&cells, &leads, &cfg);
        let mut s = format!(
            "runs[{}]",
            grid.cell_runs
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        for (label, c) in grid.labels.iter().zip(&grid.cells) {
            for (m, a) in c.models.iter().zip(&c.aggregates) {
                s.push_str(&format!(
                    "{}/{}:{:016x}-{:016x}-{:016x};",
                    label,
                    m.name(),
                    a.total_hours.mean().to_bits(),
                    a.ft_ratio_pooled().to_bits(),
                    a.failures.sum().to_bits(),
                ));
            }
        }
        digests.push(s);
    }
    assert_eq!(digests[0], digests[1], "adaptive grid diverged 1 vs 3 threads");
    assert_eq!(digests[0], digests[2], "adaptive grid diverged 1 vs 8 threads");
    println!("adaptive grid digest: {}", digests[0]);
    assert_eq!(
        digests[0], GOLDEN_ADAPTIVE_DIGEST,
        "adaptive grid digest drifted (trace feature {}abled)",
        if cfg!(feature = "trace") { "en" } else { "dis" }
    );
}

#[test]
fn fixed_run_grid_digests_match_golden_at_any_thread_count() {
    use pckpt::core::VrConfig;
    let leads = LeadTimeModel::desh_default();
    let cells = golden_cells();
    let vr_on = VrConfig {
        antithetic: true,
        strata: 4,
        adaptive: None,
    };
    for (vr, golden) in [
        (VrConfig::default(), GOLDEN_FIXED_GRID_DIGEST),
        (vr_on, GOLDEN_FIXED_VR_GRID_DIGEST),
    ] {
        for threads in [1, 3, 8] {
            let mut cfg = RunnerConfig::new(12, 61);
            cfg.threads = threads;
            cfg.vr = vr;
            let digest = pckpt_service::grid_digest(&run_grid(&cells, &leads, &cfg)).hex();
            assert_eq!(
                digest, golden,
                "{vr:?} grid digest drifted at {threads} threads (trace feature {}abled)",
                if cfg!(feature = "trace") { "en" } else { "dis" }
            );
        }
    }
}

/// Golden FNV digest of the protocol stream of run 0, seed 61, XGC
/// under all five models in both PFS modes: every record except the
/// queue's own SCHED/POP, over `(t, kind, a, b)` only (`seq` and
/// `parent` number queue records too). It pins what the handlers did
/// and when, independently of how the queue got there.
const GOLDEN_PROTOCOL_STREAM: &str = "b66f51ad3267f623";

/// The protocol-stream digest, and the number of queue records the ten
/// recordings held.
fn protocol_stream_digest() -> (String, usize) {
    use pckpt::core::obs::{kind, Record};
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let leads = LeadTimeModel::desh_default();
    let app = Application::by_name("XGC").expect("Table I app");
    let mut queue_records = 0;
    for mode in [PfsMode::Analytic, PfsMode::Fluid] {
        for model in ModelKind::ALL {
            let mut params = SimParams::paper_defaults(model, app);
            params.pfs_mode = mode;
            let (_, rec, _) = pckpt::core::record_run(&params, &leads, 61, 0, 1 << 20);
            assert_eq!(rec.dropped, 0, "ring too small for a golden run");
            let (queue, protocol): (Vec<&Record>, Vec<&Record>) = rec
                .records
                .iter()
                .partition(|r| matches!(r.kind, kind::SCHED | kind::POP));
            queue_records += queue.len();
            for r in &protocol {
                fold(r.t);
                fold(r.kind as u64);
                fold(r.a);
                fold(r.b);
            }
            fold(protocol.len() as u64);
        }
    }
    (format!("{h:016x}"), queue_records)
}

#[test]
fn protocol_stream_digest_matches_golden() {
    // Every build records the protocol stream; only `trace` adds the
    // queue's own records to it.
    let (digest, queue_records) = protocol_stream_digest();
    assert_eq!(digest, GOLDEN_PROTOCOL_STREAM, "protocol stream drifted");
    assert_eq!(
        queue_records > 0,
        cfg!(feature = "trace"),
        "{queue_records} SCHED/POP records (trace feature {}abled)",
        if cfg!(feature = "trace") { "en" } else { "dis" }
    );
}

#[cfg(feature = "trace")]
mod trace_on {
    use super::*;
    use pckpt::core::obs::{kind, Recording, NO_PARENT};
    use pckpt::core::record_run;

    /// Golden FNV digests of the structured event stream of run 0,
    /// seed 61, XGC/P2, per PFS mode.
    const GOLDEN_STREAM_ANALYTIC: &str = "ec17dd6f9f12bc5e";
    const GOLDEN_STREAM_FLUID: &str = "f7c5578b3eeb1acb";

    fn record(mode: PfsMode, seed: u64) -> Recording {
        let leads = LeadTimeModel::desh_default();
        let (_, recording, _) = record_run(&xgc_params(mode), &leads, seed, 0, 1 << 20);
        assert_eq!(recording.dropped, 0, "ring too small for a golden run");
        recording
    }

    #[test]
    fn event_stream_digest_matches_golden_analytic() {
        let rec = record(PfsMode::Analytic, 61);
        assert!(!rec.is_empty());
        assert_eq!(
            rec.digest_hex(),
            GOLDEN_STREAM_ANALYTIC,
            "analytic event stream drifted ({} events)",
            rec.len()
        );
    }

    #[test]
    fn event_stream_digest_matches_golden_fluid() {
        let rec = record(PfsMode::Fluid, 61);
        assert!(!rec.is_empty());
        assert_eq!(
            rec.digest_hex(),
            GOLDEN_STREAM_FLUID,
            "fluid event stream drifted ({} events)",
            rec.len()
        );
    }

    #[test]
    fn recording_is_reproducible_and_seed_sensitive() {
        let a = record(PfsMode::Analytic, 61);
        let b = record(PfsMode::Analytic, 61);
        assert_eq!(a.digest(), b.digest(), "same seed must replay bit-identically");
        let c = record(PfsMode::Analytic, 62);
        assert_ne!(a.digest(), c.digest(), "different seeds must diverge");
        let d = a.first_divergence(&c).expect("different seeds diverge");
        assert_eq!(d.index, 0, "seeds differ from the very first scheduled event");
    }

    #[test]
    fn causal_parents_resolve_within_the_recording() {
        // Every non-root parent id must point at an earlier record; pops
        // must descend from scheds, protocol events from pops.
        let rec = record(PfsMode::Fluid, 61);
        for r in &rec.records {
            if r.parent == NO_PARENT {
                continue;
            }
            let parent = rec
                .by_seq(r.parent)
                .unwrap_or_else(|| panic!("dangling parent {} on seq {}", r.parent, r.seq));
            assert!(parent.seq < r.seq, "parent must precede child");
            if r.kind == kind::POP {
                assert_eq!(parent.kind, kind::SCHED, "a pop descends from its schedule");
            }
        }
        // The protocol actually exercised its phases in this run.
        let count = |k: u16| rec.records.iter().filter(|r| r.kind == k).count();
        assert!(count(kind::POP) > 0);
        assert!(count(kind::STATE) > 0);
        assert!(count(kind::BB_CKPT) > 0);
        assert!(count(kind::FLOW_WAVE) > 0, "fluid mode must emit flow waves");
    }

    #[test]
    fn chrome_trace_export_is_wellformed_json() {
        // The export parses as one JSON document whose events are the
        // process-name record followed by one event per record.
        let rec = record(PfsMode::Analytic, 61);
        let json = rec.to_chrome_trace("xgc-p2");
        let doc = pckpt_service::json::parse(&json).expect("chrome trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents");
        assert_eq!(events.len(), rec.len() + 1);
        let args = events[0].get("args").expect("process_name args");
        assert_eq!(args.get("name").and_then(|n| n.as_str()), Some("xgc-p2"));
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some(kind::name(rec.records[0].kind))
        );
    }
}
