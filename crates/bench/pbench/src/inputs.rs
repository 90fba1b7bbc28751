//! Workload definitions and the inputs each one runs, all generated
//! from the benchmark seed: the program under test only ever receives
//! these cells and request texts.

use pckpt_core::iosim::PfsMode;
use pckpt_core::{GridCell, ModelKind, RunnerConfig, SimParams};
use pckpt_failure::FailureDistribution;
use pckpt_workloads::{Application, TABLE_I};

/// The seed `pbench run` uses when none is given (the paper
/// harness's default, so the simulation workloads' digests equal the
/// `exp_*` binaries' at the same run count).
pub const DEFAULT_SEED: u64 = 20_220_530;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Sweep,
    LanlPanel,
    FluidCampaign,
    ServiceCold,
    ServiceWarm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fig4Sweep,
        Workload::LanlPanel,
        Workload::FluidCampaign,
        Workload::ServiceCold,
        Workload::ServiceWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Sweep => "fig4_sweep",
            Workload::LanlPanel => "lanl_panel",
            Workload::FluidCampaign => "fluid_campaign",
            Workload::ServiceCold => "service_cold",
            Workload::ServiceWarm => "service_warm",
        }
    }

    /// Why the workload is in the benchmark (mirrored in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig4Sweep => {
                "Fig. 4 paper bin: strongest cross-cell trace sharing, so trace \
                 generation is a small share"
            }
            Workload::LanlPanel => {
                "Fig. 6b LANL 18 panel: heavy failures, long runs and deep event queues, \
                 so the simulation kernel and queue dominate"
            }
            Workload::FluidCampaign => {
                "fluid-PFS P2 runs: many short runs with no trace sharing, so trace \
                 generation and flow-link work are a large share"
            }
            Workload::ServiceCold => {
                "pckptd requests on an empty cache and journal: simulate, encode, fsync \
                 the journal and fill the cache"
            }
            Workload::ServiceWarm => {
                "the same requests repeated on a live daemon: the reuse path only, no \
                 simulation"
            }
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServiceCold | Workload::ServiceWarm)
    }
}

/// Monte-Carlo run counts; `quick` shrinks every workload to a smoke.
///
/// Full sizes keep one grid pass under about 2 s at one thread, so a
/// run takes the median of ten or more passes: on a shared host the
/// median of many short passes holds still where a few long ones do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub fig4_runs: usize,
    pub lanl_runs: usize,
    pub fluid_runs: usize,
    pub service_runs: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                fig4_runs: 4,
                lanl_runs: 2,
                fluid_runs: 4,
                service_runs: 2,
            }
        } else {
            Sizes {
                fig4_runs: 200,
                lanl_runs: 40,
                fluid_runs: 2000,
                service_runs: 64,
            }
        }
    }
}

/// Monte-Carlo seed of the one-run probe every set-up makes. Fixed, so
/// that set-up does the same work whatever `--seed` is.
pub const PROBE_SEED: u64 = 1;

/// SplitMix64: the benchmark's own input generator, independent of
/// the simulator's RNG so that changing one never moves the other.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three applications the paper plots per-app curves for.
pub fn figure_apps() -> [Application; 3] {
    ["CHIMERA", "XGC", "POP"].map(|n| Application::by_name(n).expect("Table I app"))
}

fn cell(app: Application, dist: FailureDistribution, scale: f64, models: &[ModelKind]) -> GridCell {
    let mut params = SimParams::with_distribution(ModelKind::B, app, dist);
    params.lead_scale = scale;
    GridCell::new(params, models).with_label(format!("{}@{scale}", app.name))
}

/// The cells of a simulation workload (`None` for service workloads).
pub fn grid_cells(w: Workload) -> Option<Vec<GridCell>> {
    const LEAD_SCALES: [f64; 5] = [1.5, 1.1, 1.0, 0.9, 0.5];
    let titan = FailureDistribution::OLCF_TITAN;
    let cells = match w {
        Workload::Fig4Sweep => figure_apps()
            .into_iter()
            .flat_map(|app| {
                LEAD_SCALES
                    .map(|s| cell(app, titan, s, &[ModelKind::B, ModelKind::M1, ModelKind::M2]))
            })
            .collect(),
        Workload::LanlPanel => TABLE_I
            .iter()
            .map(|&app| {
                cell(
                    app,
                    FailureDistribution::LANL_SYSTEM_18,
                    1.0,
                    &ModelKind::ALL,
                )
            })
            .collect(),
        Workload::FluidCampaign => figure_apps()
            .into_iter()
            .map(|app| {
                let mut c = cell(app, titan, 1.0, &[ModelKind::P2]);
                c.params.pfs_mode = PfsMode::Fluid;
                c
            })
            .collect(),
        _ => return None,
    };
    Some(cells)
}

/// The runner configuration of a simulation workload, every field set
/// explicitly (no environment knob is read).
pub fn grid_config(w: Workload, sizes: Sizes, seed: u64, threads: usize) -> RunnerConfig {
    let runs = match w {
        Workload::Fig4Sweep => sizes.fig4_runs,
        Workload::LanlPanel => sizes.lanl_runs,
        _ => sizes.fluid_runs,
    };
    let mut cfg = RunnerConfig::new(runs, seed);
    cfg.threads = threads;
    cfg.vr = pckpt_core::VrConfig::default();
    cfg
}

/// The lead scales the requests name: 0.45, 0.50, …, 1.60.
const REQUEST_SCALES: usize = 24;

fn request_scale(k: usize) -> f64 {
    (45 + 5 * k) as f64 / 100.0
}

/// One service request: the three figure apps at two lead scales under
/// [B, M2]. Every request names all three apps and pairs a low scale
/// with a high one, so requests cost about the same and a latency
/// median sits inside one cluster, not on the boundary between cheap
/// requests and dear ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub scales: [f64; 2],
    pub runs: usize,
    pub seed: u64,
}

impl Request {
    /// The request document, with the pool size set explicitly.
    pub fn text(&self, threads: usize) -> String {
        let apps: Vec<String> = figure_apps()
            .iter()
            .map(|a| format!("\"{}\"", a.name))
            .collect();
        format!(
            "{{\"name\":\"pbench\",\"apps\":[{}],\"scales\":[{:.2},{:.2}],\"models\":[\"B\",\"M2\"],\
             \"runs\":{},\"seed\":{},\"threads\":{threads}}}",
            apps.join(","),
            self.scales[0],
            self.scales[1],
            self.runs,
            self.seed,
        )
    }

    /// Cell labels, in the order the request parser enumerates them.
    pub fn cells(&self) -> Vec<String> {
        figure_apps()
            .iter()
            .flat_map(|a| self.scales.map(|s| format!("{}@{s:.2}", a.name)))
            .collect()
    }

    /// Lane-runs the request's answer covers (cells × models × runs).
    pub fn lane_runs(&self) -> u64 {
        (figure_apps().len() * self.scales.len() * 2 * self.runs) as u64
    }
}

/// The service workloads' requests: twelve, with pairwise disjoint
/// cells, in a seeded order. One Monte-Carlo seed, `seed` itself (cut
/// to the 53 bits a JSON number holds exactly), serves them all. The
/// cells are the same for every seed, so a run's work changes with the
/// seed only as much as its Monte-Carlo draws do.
pub fn requests(seed: u64, runs: usize) -> Vec<Request> {
    let half = REQUEST_SCALES / 2;
    let mut reqs: Vec<Request> = (0..half)
        .map(|k| Request {
            scales: [request_scale(k), request_scale(k + half)],
            runs,
            seed: seed % (1 << 53),
        })
        .collect();
    SplitMix::new(seed ^ 0x005E_ED0F_5E41_1CE5).shuffle(&mut reqs);
    reqs
}

/// The one-run request of a service set-up's probe.
pub fn probe_request() -> Request {
    Request {
        scales: [request_scale(0), request_scale(REQUEST_SCALES / 2)],
        runs: 1,
        seed: PROBE_SEED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let texts = |seed| {
            requests(seed, 64)
                .iter()
                .map(|r| r.text(1))
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8));
        let cfg = |seed| grid_config(Workload::LanlPanel, Sizes::new(false), seed, 1);
        assert_eq!(cfg(7).base_seed, 7);
        assert_ne!(cfg(7).base_seed, cfg(8).base_seed);
    }

    #[test]
    fn request_cells_are_disjoint() {
        let reqs = requests(DEFAULT_SEED, 64);
        assert_eq!(reqs.len(), 12);
        let mut seen = std::collections::BTreeSet::new();
        for r in &reqs {
            for c in r.cells() {
                assert!(seen.insert(c), "requests share a cell");
            }
        }
    }
}
