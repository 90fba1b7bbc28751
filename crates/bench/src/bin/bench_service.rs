//! End-to-end campaign-service timing on the Fig.-4-shaped sweep:
//! cold compute vs warm content-addressed replay, plus crash-resume
//! cost through the sweep journal.
//!
//! Every timed variant is gated on the digest oracle first: the
//! service-served grid must be bit-identical (per
//! [`pckpt_service::grid_digest`]) to a direct `run_grid_filtered`
//! call before any speedup is printed. Machine-readable lines:
//!
//! ```text
//! GRID_JSON {"name":"service_cache_fig4",  ... "cache_hit_speedup":..}
//! GRID_JSON {"name":"service_journal_fig4",... "journal_resume_overhead_pct":..}
//! METRICS_JSON {...,"cache_hits":..,"uncached":false}
//! ```
//!
//! The cold/warm ratio is only meaningful when the cold side actually
//! simulates for a while; at smoke budgets (`PCKPT_RUNS=1`) the
//! numbers are still printed but the ≥ 50× floor is not asserted.

use std::path::PathBuf;
use std::time::Instant;

use pckpt_bench::{figure_apps, runs, seed, sweep_cell};
use pckpt_core::{run_grid_filtered, GridCell, RunnerConfig};
use pckpt_failure::{FailureDistribution, LeadTimeModel};
use pckpt_service::{grid_digest, CampaignRequest, Service, ServiceConfig, SyncPolicy};

const SWEEP_SCALES: [f64; 4] = [1.5, 1.1, 0.9, 0.5];
const MODELS: [pckpt_core::ModelKind; 2] =
    [pckpt_core::ModelKind::B, pckpt_core::ModelKind::M2];

fn fig4_cells() -> Vec<GridCell> {
    figure_apps()
        .into_iter()
        .flat_map(|app| {
            SWEEP_SCALES.iter().map(move |&s| {
                sweep_cell(app, &MODELS, FailureDistribution::OLCF_TITAN, s, None, None)
            })
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pckpt-bench-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(cache: &PathBuf, state: &PathBuf) -> Service {
    let mut cfg = ServiceConfig::in_dirs(Some(cache.clone()), Some(state.clone()));
    cfg.sync = SyncPolicy::Off; // benching compute vs replay, not fsync
    Service::open(cfg).expect("open service")
}

fn main() {
    // Service reuse only applies to fixed-run campaigns, so the bench
    // pins its own budget (still `PCKPT_RUNS`-scalable for smokes).
    let budget = runs().min(1024);
    let cells = fig4_cells();
    let config = RunnerConfig::new(budget, seed());
    let req = CampaignRequest {
        name: "service_fig4".into(),
        cells: cells.clone(),
        config,
        prefilter: None,
    };
    let leads = LeadTimeModel::desh_default();

    println!(
        "service cache/journal bench: {} cells x {budget} runs x {} models",
        cells.len(),
        MODELS.len()
    );

    // The oracle: a direct, service-free sweep.
    let direct = run_grid_filtered(&cells, &leads, &config, None);
    let golden = grid_digest(&direct).hex();

    // Cold: compute everything, journal + cache as we go. Daemons are
    // long-running, so the timers cover request service, not startup.
    let cache_dir = scratch("cache");
    let cold_state = scratch("state-cold");
    let daemon = service(&cache_dir, &cold_state);
    let started = Instant::now();
    let cold = daemon.execute(&req).expect("cold campaign");
    let cold_wall = started.elapsed().as_secs_f64();
    assert_eq!(grid_digest(&cold.grid).hex(), golden, "cold != direct");
    assert_eq!(cold.meta.computed_cells as usize, cells.len());

    // Warm: a fresh daemon instance, fresh journal dir, same cache —
    // every cell must be served from its content-addressed fold record.
    let warm_state = scratch("state-warm");
    let daemon = service(&cache_dir, &warm_state);
    let started = Instant::now();
    let warm = daemon.execute(&req).expect("warm campaign");
    let warm_wall = started.elapsed().as_secs_f64();
    assert_eq!(grid_digest(&warm.grid).hex(), golden, "warm != direct");
    assert_eq!(warm.meta.computed_cells, 0, "warm pass must not simulate");
    let reused = warm.meta.cache_hits + warm.meta.journal_recovered;
    let cache_hit_rate = reused as f64 / cells.len() as f64;
    let cache_hit_speedup = cold_wall / warm_wall.max(1e-9);
    println!(
        "  cold {cold_wall:.3} s, warm {warm_wall:.4} s  ({cache_hit_speedup:.1}x, \
         hit rate {cache_hit_rate:.2}, digests bit-identical)"
    );
    println!(
        "GRID_JSON {{\"name\":\"service_cache_fig4\",\"cells\":{n},\"runs_per_cell\":{budget},\
         \"cold_wall_secs\":{cold_wall:.6},\"warm_wall_secs\":{warm_wall:.6},\
         \"cache_hit_speedup\":{cache_hit_speedup:.3},\"cache_hit_rate\":{cache_hit_rate:.4},\
         \"digest_match\":true}}",
        n = cells.len(),
    );
    println!("METRICS_JSON {}", warm.meta_json("service_fig4_grid"));

    // Crash resume: cut the cold journal at an arbitrary byte offset
    // (half the file — a real crash tears wherever it tears), drop the
    // cache so the journal is the only reuse layer, and resume.
    let journal_path = std::fs::read_dir(&cold_state)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .next()
        .expect("one journal");
    let journal_bytes = std::fs::read(&journal_path).expect("journal bytes");
    std::fs::write(&journal_path, &journal_bytes[..journal_bytes.len() / 2])
        .expect("tear journal");
    std::fs::remove_dir_all(&cache_dir).expect("drop cache");
    let daemon = service(&scratch("cache-resume"), &cold_state);
    let started = Instant::now();
    let resumed = daemon.execute(&req).expect("resumed campaign");
    let resume_wall = started.elapsed().as_secs_f64();
    assert_eq!(grid_digest(&resumed.grid).hex(), golden, "resume != direct");
    assert_eq!(
        resumed.meta.journal_recovered + resumed.meta.computed_cells,
        cells.len() as u64,
        "every cell recovered or recomputed"
    );

    // Replay overhead: resume over the *complete* journal (nothing to
    // recompute) — pure recovery + record-decode cost as a share of cold.
    std::fs::write(&journal_path, &journal_bytes).expect("restore journal");
    let daemon = service(&scratch("cache-replay"), &cold_state);
    let started = Instant::now();
    let replayed = daemon.execute(&req).expect("replayed campaign");
    let replay_wall = started.elapsed().as_secs_f64();
    assert_eq!(grid_digest(&replayed.grid).hex(), golden, "replay != direct");
    assert_eq!(replayed.meta.computed_cells, 0);
    let journal_resume_overhead_pct = 100.0 * replay_wall / cold_wall.max(1e-9);
    println!(
        "  torn-journal resume {resume_wall:.3} s ({} recovered, {} recomputed); \
         full-journal replay {replay_wall:.4} s ({journal_resume_overhead_pct:.2}% of cold)",
        resumed.meta.journal_recovered, resumed.meta.computed_cells,
    );
    println!(
        "GRID_JSON {{\"name\":\"service_journal_fig4\",\"cells\":{n},\"runs_per_cell\":{budget},\
         \"cold_wall_secs\":{cold_wall:.6},\"resume_wall_secs\":{resume_wall:.6},\
         \"replay_wall_secs\":{replay_wall:.6},\
         \"journal_resume_overhead_pct\":{journal_resume_overhead_pct:.3},\
         \"resume_recovered\":{rec},\"resume_computed\":{comp},\"digest_match\":true}}",
        n = cells.len(),
        rec = resumed.meta.journal_recovered,
        comp = resumed.meta.computed_cells,
    );

    for dir in [cache_dir, cold_state, warm_state] {
        let _ = std::fs::remove_dir_all(&dir);
    }
    for tag in ["cache-resume", "cache-replay"] {
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!(
            "pckpt-bench-service-{tag}-{}",
            std::process::id()
        )));
    }

    // The floor is checked last, so a miss still prints the journal
    // line and removes the scratch directories.
    if budget >= 64 {
        assert!(
            cache_hit_speedup >= 50.0,
            "warm replay must be >= 50x faster than cold compute, got {cache_hit_speedup:.1}x"
        );
    }
}
