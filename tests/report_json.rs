//! Every report line goes through one JSON writer
//! (`pckpt_core::obs::json`). These tests hold it to two things: any
//! string a caller hands it, as a name or a label, comes back from a
//! JSON parser unchanged, and the lines the binaries print keep their
//! exact bytes.

use pckpt::core::obs::{kind, ObsAggregate, Record, Recording, NO_PARENT};
use pckpt::core::{
    run_grid_filtered, AnalyticVerdict, GridCell, GridResult, ModelKind, Prefilter, RunnerConfig,
    SimParams,
};
use pckpt::failure::LeadTimeModel;
use pckpt::workloads::Application;
use pckpt_service::json::{parse, Json};
use pckpt_service::{respond, Service, ServiceConfig, ServiceMeta, ServiceOutcome};
use proptest::prelude::*;

fn cell(app: &str, scale: f64, models: &[ModelKind]) -> GridCell {
    let mut p = SimParams::paper_defaults(ModelKind::B, Application::by_name(app).unwrap());
    p.lead_scale = scale;
    GridCell::new(p, models).with_label(format!("{app}@{scale}"))
}

/// A character drawn from the shapes that break hand-built JSON:
/// quotes, backslashes, control characters, printable ASCII and any
/// Unicode scalar value.
fn pick_char(shape: u32, x: u32) -> char {
    const SPECIAL: [char; 9] = ['"', '\\', '\n', '\r', '\t', '/', '{', ']', ','];
    match shape {
        0 => SPECIAL[x as usize % SPECIAL.len()],
        1 => char::from_u32(x % 0x20).expect("a control character"),
        2 => char::from_u32(0x20 + x % 95).expect("printable ASCII"),
        _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

/// A grid whose only cell is labelled `label` and was answered
/// analytically, so building it simulates nothing.
fn labelled_grid(label: &str) -> GridResult {
    let cells = [cell("POP", 1.0, &[ModelKind::B]).with_label(label)];
    let verdict = AnalyticVerdict {
        pckpt_wins: false,
        sigma: 0.9,
        alpha: 4.0,
        clearance: 0.5,
    };
    let leads = LeadTimeModel::desh_default();
    let config = RunnerConfig::new(1, 1);
    let verdicts = vec![Some(verdict)];
    GridResult::assemble(&cells, &leads, &config, verdicts, Vec::new(), None)
}

fn parsed(line: &str) -> Json {
    parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn str_at<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .expect("a string member")
}

/// The `name` member of a one-line JSON object.
fn name_of(line: &str) -> String {
    str_at(&parsed(line), "name").to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Names and labels with quotes, backslashes, control characters
    /// and non-ASCII text come back from the parser unchanged, through
    /// every writer that takes one.
    #[test]
    fn arbitrary_names_and_labels_roundtrip_through_every_report(
        drawn in proptest::collection::vec((0u32..4, any::<u32>()), 0..24),
    ) {
        let s: String = drawn.iter().map(|&(shape, x)| pick_char(shape, x)).collect();
        let grid = labelled_grid(&s);

        let alloc = parsed(&grid.allocation_json(&s));
        prop_assert_eq!(str_at(&alloc, "name"), s.as_str());
        let row = &alloc.get("cells").and_then(Json::as_arr).expect("rows")[0];
        prop_assert_eq!(row.as_arr().and_then(|r| r[0].as_str()), Some(s.as_str()));

        prop_assert_eq!(name_of(&grid.meta_json(&s)), s.clone());
        prop_assert_eq!(name_of(&ObsAggregate::default().to_json(&s)), s.clone());
        let outcome = ServiceOutcome { grid, meta: ServiceMeta::default() };
        prop_assert_eq!(name_of(&outcome.meta_json(&s)), s.clone());

        let rec = Recording {
            records: vec![Record { t: 1_500, seq: 0, parent: NO_PARENT, kind: kind::FAILURE, a: 3, b: 0 }],
            dropped: 0,
        };
        let trace = parsed(&rec.to_chrome_trace(&s));
        let events = trace.get("traceEvents").and_then(Json::as_arr).expect("events");
        let args = events[0].get("args").expect("process_name args");
        prop_assert_eq!(str_at(args, "name"), s.as_str());
    }
}

/// The `METRICS_JSON` observability, grid and allocation lines of a
/// small partly pruned grid at one thread, byte for byte.
#[test]
fn metrics_json_lines_keep_their_bytes() {
    let leads = LeadTimeModel::desh_default();
    let crossover = [ModelKind::B, ModelKind::M2, ModelKind::P1];
    let cells = [
        cell("CHIMERA", 1.0, &crossover),
        cell("XGC", 1.5, &[ModelKind::B, ModelKind::P2]),
    ];
    let mut config = RunnerConfig::new(2, 7);
    config.threads = 1;
    let grid = run_grid_filtered(&cells, &leads, &config, Some(&Prefilter::default()));
    assert_eq!(
        grid.obs_merged().to_json("pin"),
        r#"{"name":"pin","runs":4,"events_handled":6,"events_scheduled":114,"events_per_run":1.5,"queue_depth_hwm":46,"lat_bb_ns":{"count":454,"mean":47029702970.0,"buckets":[[36,454]]},"lat_phase1_ns":{"count":0,"mean":0.0,"buckets":[]},"lat_pfs_full_ns":{"count":0,"mean":0.0,"buckets":[]},"recomp_ns":{"count":1,"mean":1187479116857.0,"buckets":[[41,1]]}}"#
    );
    assert_eq!(
        grid.meta_json("pin_grid"),
        r#"{"name":"pin_grid","cells":2,"lanes":2,"units":2,"runs_per_cell":2,"threads":1,"trace_groups":1,"trace_generations":2,"trace_reuses":2,"trace_cache_hit_rate":0.5000,"leads_digest":"9e20ee4132040d5f","prefilter_pruned":1,"prefilter_simulated":1,"total_runs":2,"runs_min":2,"worst_ci_rel":0.975189}"#
    );
    assert_eq!(
        grid.allocation_json("pin_alloc"),
        r#"{"name":"pin_alloc","total_runs":2,"runs_min":2,"runs_max":2,"worst_ci_rel":0.975189,"cells":[["CHIMERA@1",0,0.000000],["XGC@1.5",2,0.975189]]}"#
    );
}

/// A whole `respond` body for one fixed one-thread request, byte for
/// byte: `CELL_JSON` per cell, `SERVICE_JSON`, `DIGEST`, `OK`.
#[test]
fn respond_body_keeps_its_bytes() {
    let service = Service::open(ServiceConfig::in_dirs(None, None)).expect("in-memory service");
    let req = r#"{"name":"pin","apps":["CHIMERA","XGC"],"scales":[1.5,0.5],"models":["B","M2","P1"],"runs":2,"seed":7,"threads":1,"prefilter":"analytic"}"#;
    let want = "\
        CELL_JSON {\"label\":\"CHIMERA@1.5\",\"pruned\":false,\"models\":[\"B\",\"M2\",\"P1\"],\"runs\":2,\"ci_rel\":2.166786,\"total_hours\":[12.159810,10.464280,9.308517],\"ft_ratio\":[0.000000,0.600000,0.700000],\"hours_bits\":[\"402851d2a55df290\",\"4024edb623c2567c\",\"40229df5e62dbb6c\"]}\n\
        CELL_JSON {\"label\":\"CHIMERA@0.5\",\"pruned\":true,\"models\":[\"B\",\"M2\",\"P1\"],\"runs\":0,\"ci_rel\":0.000000,\"total_hours\":[],\"ft_ratio\":[],\"hours_bits\":[]}\n\
        CELL_JSON {\"label\":\"XGC@1.5\",\"pruned\":true,\"models\":[\"B\",\"M2\",\"P1\"],\"runs\":0,\"ci_rel\":0.000000,\"total_hours\":[],\"ft_ratio\":[],\"hours_bits\":[]}\n\
        CELL_JSON {\"label\":\"XGC@0.5\",\"pruned\":true,\"models\":[\"B\",\"M2\",\"P1\"],\"runs\":0,\"ci_rel\":0.000000,\"total_hours\":[],\"ft_ratio\":[],\"hours_bits\":[]}\n\
        SERVICE_JSON {\"name\":\"pin\",\"cells\":4,\"lanes\":3,\"units\":3,\"runs_per_cell\":2,\"threads\":1,\"trace_groups\":1,\"trace_generations\":2,\"trace_reuses\":4,\"trace_cache_hit_rate\":0.6667,\"leads_digest\":\"9e20ee4132040d5f\",\"prefilter_pruned\":3,\"prefilter_simulated\":1,\"total_runs\":2,\"runs_min\":2,\"worst_ci_rel\":2.166786,\"cache_hits\":0,\"cache_misses\":1,\"coalesced\":0,\"computed_cells\":1,\"journal_recovered\":0,\"journal_appended\":0,\"service_pruned\":3,\"uncached\":false}\n\
        DIGEST 8bf8d17099eaf6aa503033d6ed2e9bda\n\
        OK\n\
";
    assert_eq!(respond(req, &service), want);
}
