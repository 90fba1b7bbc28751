//! The campaign engine: three layers between a request and the
//! simulation pool.
//!
//! 1. **Content-addressed cache** ([`crate::cache::CellStore`]): a
//!    cell whose fingerprint was computed before — by any request, any
//!    daemon lifetime — is served from its sealed fold record. The
//!    repo's determinism contract (per-cell grid aggregates are
//!    bit-identical to standalone runs regardless of pool composition)
//!    is what makes per-cell reuse *sound*: the stored fold holds the
//!    bits a fresh simulation of the cell folds to.
//! 2. **Single-flight admission** ([`crate::flight::SingleFlight`]):
//!    concurrent identical cells coalesce onto one computation.
//! 3. **Sweep journal** ([`crate::journal::Journal`]): every computed
//!    cell is appended (digest-checked) before it is published, so a
//!    killed daemon resumes the campaign re-executing only the cells
//!    that never completed — and the merged digest is bit-identical to
//!    an uninterrupted sweep.
//!
//! Adaptive-allocation campaigns (`config.vr.adaptive`) are the one
//! shape none of this applies to: grid-pooled pilot feedback makes a
//! cell's results depend on which other cells share the pool, so such
//! requests bypass cache and journal entirely and are flagged
//! `"uncached":true` in the meta.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pckpt_core::{
    campaign_fingerprints, run_grid_filtered, run_grid_with_cell_sink, splice_pruned,
    AnalyticVerdict, CampaignResult, Fingerprint, GridCell, GridResult, RunnerConfig,
};
use pckpt_failure::LeadTimeModel;

use crate::cache::CellStore;
use crate::cellframe::{decode_fold_record, encode_fold_record, Fold};
use crate::flight::{Claim, LeaderGuard, SingleFlight};
use crate::journal::{Journal, SyncPolicy};
use crate::request::CampaignRequest;

/// Journal appends performed by this process, across all campaigns —
/// the `PCKPT_SERVICE_FAIL=crash:<k>` hook counts against this.
static APPENDS: AtomicU64 = AtomicU64::new(0);

/// Service configuration (directories and retention).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Cell-cache directory (`None` disables the persistent cache).
    pub cache_dir: Option<PathBuf>,
    /// Journal directory (`None` disables crash-safe journaling).
    pub state_dir: Option<PathBuf>,
    /// Maximum cells retained on disk.
    pub cache_max: usize,
    /// Maximum completed cells retained in memory.
    pub mem_max: usize,
    /// Journal sync policy.
    pub sync: SyncPolicy,
}

impl ServiceConfig {
    /// Reads `PCKPT_CACHE_DIR`, `PCKPT_CACHE_MAX`, and
    /// `PCKPT_JOURNAL_SYNC`. The journal lives beside the cache
    /// (`<cache>/journal/`) unless the caller overrides `state_dir`.
    // simlint: config — sanctioned execution-config reads; directory
    // placement and retention never reach a result digest.
    pub fn from_env() -> ServiceConfig {
        let cache_dir = std::env::var("PCKPT_CACHE_DIR").ok().map(PathBuf::from);
        let cache_max = std::env::var("PCKPT_CACHE_MAX")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(4096);
        let state_dir = cache_dir.as_ref().map(|d| d.join("journal"));
        ServiceConfig {
            cache_dir,
            state_dir,
            cache_max,
            mem_max: 256,
            sync: SyncPolicy::from_env(),
        }
    }

    /// A config rooted at explicit directories (tests and `pckptd`
    /// flags).
    pub fn in_dirs(cache_dir: Option<PathBuf>, state_dir: Option<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            cache_dir,
            state_dir,
            cache_max: 4096,
            mem_max: 256,
            sync: SyncPolicy::from_env(),
        }
    }
}

/// Per-request accounting, reported in the response meta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMeta {
    /// Survivor cells served from the persistent cache.
    pub cache_hits: u64,
    /// Survivor cells not found in any reuse layer (computed fresh).
    pub cache_misses: u64,
    /// Survivor cells served by waiting on another request's
    /// computation (single-flight coalescing).
    pub coalesced: u64,
    /// Cells this request actually simulated.
    pub computed_cells: u64,
    /// Cells recovered from a pre-existing journal (crash resume).
    pub journal_recovered: u64,
    /// Cells appended to the journal by this request.
    pub journal_appended: u64,
    /// Cells answered analytically (never simulated, never cached).
    pub pruned: u64,
    /// Whether the request bypassed the reuse layers entirely
    /// (adaptive allocation).
    pub uncached: bool,
}

/// A completed campaign: the spliced grid plus service accounting.
pub struct ServiceOutcome {
    /// The full-input-order grid result (pruned cells spliced in).
    pub grid: GridResult,
    /// Cache/journal/flight accounting for this request.
    pub meta: ServiceMeta,
}

impl ServiceOutcome {
    /// The grid's `meta_json` with the service accounting fields
    /// injected (same object, extra keys), e.g.
    /// `..,"cache_hits":3,"cache_misses":1,..,"uncached":false}`.
    pub fn meta_json(&self, name: &str) -> String {
        let base = self.grid.meta_json(name);
        let open = base.strip_suffix('}').unwrap_or(&base);
        format!(
            "{open},\"cache_hits\":{},\"cache_misses\":{},\"coalesced\":{},\
             \"computed_cells\":{},\"journal_recovered\":{},\"journal_appended\":{},\
             \"service_pruned\":{},\"uncached\":{}}}",
            self.meta.cache_hits,
            self.meta.cache_misses,
            self.meta.coalesced,
            self.meta.computed_cells,
            self.meta.journal_recovered,
            self.meta.journal_appended,
            self.meta.pruned,
            self.meta.uncached,
        )
    }
}

/// Crash-injection hook: `PCKPT_SERVICE_FAIL=crash:<k>` kills the
/// process (exit 13) immediately after the `k`-th journal append it
/// performs, so the resume tests can kill a daemon mid-campaign.
// simlint: config — test-only fault injection; never set in production runs.
fn crash_hook_after_append() {
    let Ok(spec) = std::env::var("PCKPT_SERVICE_FAIL") else {
        return;
    };
    let Some(k) = spec.strip_prefix("crash:").and_then(|s| s.trim().parse::<u64>().ok()) else {
        return;
    };
    if APPENDS.load(Ordering::SeqCst) >= k {
        std::process::exit(13);
    }
}

/// The long-running campaign service. One instance per daemon; shared
/// across connection threads behind an `Arc`.
pub struct Service {
    cfg: ServiceConfig,
    store: CellStore,
    flight: SingleFlight,
    /// Per-campaign journal locks: identical concurrent campaigns
    /// serialize on their shared journal file; distinct campaigns
    /// proceed in parallel.
    journal_locks: Mutex<BTreeMap<u128, Arc<Mutex<()>>>>,
    leads: LeadTimeModel,
}

impl Service {
    /// Opens the service (creating cache directories as needed).
    pub fn open(cfg: ServiceConfig) -> Result<Service, String> {
        let store = CellStore::open(cfg.cache_dir.as_deref(), cfg.cache_max)?;
        let flight = SingleFlight::new(cfg.mem_max);
        Ok(Service {
            store,
            flight,
            journal_locks: Mutex::new(BTreeMap::new()),
            leads: LeadTimeModel::desh_default(),
            cfg,
        })
    }

    /// The shared lead-time model requests run against.
    pub fn leads(&self) -> &LeadTimeModel {
        &self.leads
    }

    fn campaign_lock(&self, fp: Fingerprint) -> Arc<Mutex<()>> {
        let mut locks = self
            .journal_locks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(locks.entry(fp.as_u128()).or_default())
    }

    /// Decodes a cached or journaled fold record as the fold of `cell`
    /// (seal, header, fingerprint and shape, once), publishing the fold
    /// on success. A record that fails any check is a miss: the cell is
    /// recomputed, never served wrong.
    fn adopt(
        &self,
        fp: Fingerprint,
        bytes: &[u8],
        cell: &GridCell,
        config: &RunnerConfig,
    ) -> Option<Arc<Fold>> {
        let fold = Arc::new(decode_fold_record(bytes, fp, &cell.models, config.runs).ok()?);
        self.flight.publish(fp.as_u128(), Arc::clone(&fold));
        Some(fold)
    }

    /// Serves one campaign request through the three reuse layers.
    pub fn execute(&self, req: &CampaignRequest) -> Result<ServiceOutcome, String> {
        if req.config.vr.adaptive.is_some() {
            // Grid-pooled adaptive feedback: cell results depend on
            // pool composition, so cells are not independently
            // addressable. Run uncached.
            let grid = run_grid_filtered(&req.cells, &self.leads, &req.config, req.prefilter.as_ref());
            let meta = ServiceMeta {
                pruned: grid.cells_pruned as u64,
                computed_cells: grid.cells_simulated() as u64,
                uncached: true,
                ..ServiceMeta::default()
            };
            return Ok(ServiceOutcome { grid, meta });
        }

        let config = &req.config;
        let leads_digest = self.leads.digest();
        let verdicts: Vec<Option<AnalyticVerdict>> = match req.prefilter.as_ref() {
            Some(pf) => req.cells.iter().map(|c| pf.cell_verdict(c, &self.leads)).collect(),
            None => vec![None; req.cells.len()],
        };
        let survivors: Vec<GridCell> = req
            .cells
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| v.is_none())
            .map(|(c, _)| c.clone())
            .collect();
        let mut meta = ServiceMeta {
            pruned: (req.cells.len() - survivors.len()) as u64,
            ..ServiceMeta::default()
        };

        let (fps, campaign_fp) =
            campaign_fingerprints(&survivors, leads_digest, config, req.prefilter.as_ref());

        // Serialize identical concurrent campaigns on their journal.
        let lock = self.campaign_lock(campaign_fp);
        let _campaign = lock.lock().unwrap_or_else(PoisonError::into_inner);

        // Every survivor's fold, from whichever layer has it first.
        let mut resolved: Vec<Option<Arc<Fold>>> = vec![None; survivors.len()];
        let mut journal = match self.cfg.state_dir.as_ref() {
            Some(dir) => {
                let path = dir.join(format!("{}.journal", campaign_fp.hex()));
                let (journal, recovered) =
                    Journal::open(&path, campaign_fp, survivors.len(), self.cfg.sync)?;
                // Recovered cells re-enter every layer: a resumed
                // daemon serves them without re-execution.
                for (idx, bytes) in recovered {
                    if let Some(fold) = self.adopt(fps[idx], &bytes, &survivors[idx], config) {
                        self.store.put(fps[idx], &bytes)?;
                        meta.journal_recovered += 1;
                        resolved[idx] = Some(fold);
                    }
                }
                Some(journal)
            }
            None => None,
        };

        // Layer pass: resolve every survivor to Ready / Leader /
        // Pending. All claims happen before any wait (deadlock-free
        // coalescing; see crate::flight). Cells this request just pulled
        // out of its own journal are already resolved and accounted as
        // journal_recovered, not cache hits.
        let mut to_compute: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for (i, cell) in survivors.iter().enumerate() {
            if resolved[i].is_some() {
                continue;
            }
            let fp = fps[i];
            let hit = self.flight.peek(fp.as_u128()).or_else(|| {
                let bytes = self.store.get(fp)?;
                self.adopt(fp, &bytes, cell, config)
            });
            if hit.is_some() {
                resolved[i] = hit;
                meta.cache_hits += 1;
                continue;
            }
            match self.flight.claim(fp.as_u128()) {
                Claim::Ready(fold) => resolved[i] = Some(fold),
                Claim::Leader => {
                    meta.cache_misses += 1;
                    to_compute.push(i);
                }
                Claim::Pending => {
                    meta.coalesced += 1;
                    pending.push(i);
                }
            }
        }

        // Compute everything this request leads as one pooled grid.
        let mut computed_grid: Option<GridResult> = None;
        if !to_compute.is_empty() {
            computed_grid = Some(self.compute_batch(
                &survivors,
                &fps,
                &to_compute,
                config,
                journal.as_mut(),
                &mut resolved,
                &mut meta,
            )?);
        }

        // Only now wait on cells other requests lead.
        for i in pending {
            loop {
                if let Some(fold) = self.flight.wait(fps[i].as_u128()) {
                    resolved[i] = Some(fold);
                    break;
                }
                // The leader abandoned this cell; take over.
                match self.flight.claim(fps[i].as_u128()) {
                    Claim::Ready(fold) => {
                        resolved[i] = Some(fold);
                        break;
                    }
                    Claim::Pending => continue,
                    Claim::Leader => {
                        let solo = [i];
                        let grid = self.compute_batch(
                            &survivors,
                            &fps,
                            &solo,
                            config,
                            journal.as_mut(),
                            &mut resolved,
                            &mut meta,
                        )?;
                        if computed_grid.is_none() {
                            computed_grid = Some(grid);
                        }
                        break;
                    }
                }
            }
        }

        // Assemble the survivor grid from the folds, in canonical order.
        let threads = computed_grid
            .as_ref()
            .map(|g| g.threads)
            .unwrap_or_else(|| config.effective_threads_for(0));
        let mut campaigns = Vec::with_capacity(survivors.len());
        let mut cell_ci_rel = Vec::with_capacity(survivors.len());
        for (i, fold) in resolved.iter().enumerate() {
            let (campaign, ci) = fold
                .as_deref()
                .ok_or_else(|| format!("cell {i} unresolved after compute/wait"))?;
            campaigns.push(CampaignResult {
                threads,
                ..campaign.clone()
            });
            cell_ci_rel.push(*ci);
        }

        let simulated = if survivors.is_empty() {
            None
        } else {
            let lanes: usize = survivors.iter().map(|c| c.models.len()).sum();
            Some(GridResult {
                cells: campaigns,
                labels: survivors.iter().map(|c| c.label.clone()).collect(),
                runs_per_cell: config.runs,
                cell_runs: vec![config.runs; survivors.len()],
                cell_ci_rel,
                threads,
                trace_groups: computed_grid.as_ref().map_or(0, |g| g.trace_groups),
                lanes,
                units: computed_grid.as_ref().map_or(0, |g| g.units),
                trace_generations: computed_grid.as_ref().map_or(0, |g| g.trace_generations),
                trace_reuses: computed_grid.as_ref().map_or(0, |g| g.trace_reuses),
                leads_digest,
                analytic_verdicts: vec![None; survivors.len()],
                cells_pruned: 0,
                shard_meta: None,
            })
        };

        let grid = splice_pruned(&req.cells, &self.leads, config, verdicts, simulated);
        Ok(ServiceOutcome { grid, meta })
    }

    /// Runs the `indices` subset of `survivors` as one pooled grid,
    /// journaling, caching, and publishing each cell's fold record as
    /// the grid folds the cell, and resolving the cell to its fold. The
    /// returned grid keeps the execution accounting.
    #[allow(clippy::too_many_arguments)]
    fn compute_batch(
        &self,
        survivors: &[GridCell],
        fps: &[Fingerprint],
        indices: &[usize],
        config: &RunnerConfig,
        mut journal: Option<&mut Journal>,
        resolved: &mut [Option<Arc<Fold>>],
        meta: &mut ServiceMeta,
    ) -> Result<GridResult, String> {
        let subset: Vec<GridCell> = indices.iter().map(|&i| survivors[i].clone()).collect();
        let mut guard = LeaderGuard::new(
            &self.flight,
            indices.iter().map(|&i| fps[i].as_u128()).collect(),
        );
        let mut sink_err: Option<String> = None;
        let mut appended = 0u64;
        let grid = run_grid_with_cell_sink(&subset, &self.leads, config, &mut |done| {
            if sink_err.is_some() {
                return;
            }
            let survivor_idx = indices[done.cell];
            let fp = fps[survivor_idx];
            let fold = Arc::new((done.campaign, done.ci));
            let bytes = encode_fold_record(fp, config.runs as u64, &fold);
            if let Some(j) = journal.as_deref_mut() {
                if let Err(e) = j.append_cell(survivor_idx, &bytes) {
                    sink_err = Some(e);
                    return;
                }
                appended += 1;
                APPENDS.fetch_add(1, Ordering::SeqCst);
                crash_hook_after_append();
            }
            if let Err(e) = self.store.put(fp, &bytes) {
                sink_err = Some(e);
                return;
            }
            self.flight.publish(fp.as_u128(), Arc::clone(&fold));
            guard.published(fp.as_u128());
            resolved[survivor_idx] = Some(fold);
        });
        drop(guard); // Abandons anything the sink never published.
        if let Some(e) = sink_err {
            return Err(e);
        }
        meta.computed_cells += indices.len() as u64;
        meta.journal_appended += appended;
        Ok(grid)
    }
}
