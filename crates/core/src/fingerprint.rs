//! Canonical configuration fingerprints — the normal form the campaign
//! service keys its cache and journal by.
//!
//! A fingerprint is a canonical byte rendering of everything a result
//! depends on (seed, runs, VR selection, prefilter, lead-time model,
//! cell identities), hashed so that a result from a different campaign
//! can never be served. The campaign service (`crates/service`) keys
//! its content-addressed result cache and its sweep journal by it.
//!
//! A cell's parameters are encoded by type, not by a text rendering:
//! [`Canon::push_params`] destructures `SimParams` and every nested
//! struct exhaustively (the types with private fields through their
//! own `parts` methods), enums go in as tags and floats as their bits.
//! Adding a field anywhere in that tree fails to compile until the
//! field is encoded, so no parameter can silently drop out of a cell's
//! identity. The PFS model goes in by the three inputs of
//! `PfsModel::from_parts`; its bandwidth matrix is a pure function of
//! them and is not hashed.
//!
//! [`Canon::fingerprint`] is 128 bits from two independently seeded
//! FNV-1a passes, because the digest **is** the identity (cache keys,
//! journal headers): a 64-bit birthday collision at cache scale would
//! silently serve the wrong cell, so the key is wide.

use pckpt_failure::generator::NodeSelection;
use pckpt_failure::{FailureDistribution, Projection};
use pckpt_ioperf::IoHierarchy;
use pckpt_workloads::Application;

use crate::config::{BackgroundTraffic, CoordinationPolicy, ModelKind, SimParams};
use crate::iosim::PfsMode;
use crate::oci::SigmaPolicy;
use crate::prefilter::Prefilter;
use crate::runner::{GridCell, RunnerConfig};

/// Version word folded into every cell/campaign fingerprint. Bump when
/// the canonical encoding ([`Canon::push_params`] and the context
/// around it) changes incompatibly, or when the simulation's semantics
/// change for unchanged parameters: old cache entries then miss instead
/// of being served stale. Version 2 replaced the `Debug` rendering of
/// `SimParams` with the typed encoding.
pub const FINGERPRINT_VERSION: u16 = 2;

/// FNV-1a offset basis (the standard 64-bit one).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Independent second basis for the fingerprint's low word (the golden
/// ratio, a nothing-up-my-sleeve constant).
const FNV_BASIS_ALT: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` from an explicit basis.
pub fn fnv1a_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` (the frame and journal seal primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS, bytes)
}

/// A 128-bit content-address: two independently seeded FNV-1a passes
/// over the same canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// High word (standard FNV-1a basis).
    pub hi: u64,
    /// Low word (alternate basis).
    pub lo: u64,
}

impl Fingerprint {
    /// The fingerprint as one `u128` (map keys).
    pub fn as_u128(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// 32-hex-digit rendering — stable cache file names.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses [`hex`](Self::hex) output back.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        Some(Self {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

/// Canonical byte-buffer builder: every multi-byte value is rendered
/// little-endian, every variable-length field is length-prefixed, so
/// distinct field sequences can never collide structurally.
#[derive(Debug, Default, Clone)]
pub struct Canon {
    buf: Vec<u8>,
}

impl Canon {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn push_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn push_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn push_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (exact, `-0.0 ≠ 0.0`).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Appends one grid cell's full identity: label, model list, and
    /// its parameters ([`push_params`](Self::push_params)).
    pub fn push_cell(&mut self, cell: &GridCell) {
        self.push_str(&cell.label);
        self.push_u64(cell.models.len() as u64);
        for m in &cell.models {
            self.push_model(*m);
        }
        self.push_params(&cell.params);
    }

    /// Appends a model as its tag.
    fn push_model(&mut self, model: ModelKind) {
        self.push_u8(match model {
            ModelKind::B => 0,
            ModelKind::M1 => 1,
            ModelKind::M2 => 2,
            ModelKind::P1 => 3,
            ModelKind::P2 => 4,
        });
    }

    /// Appends every simulation parameter by type: each struct is
    /// destructured without `..` and each enum matched without `_`, so a
    /// field or variant added anywhere below `SimParams` fails to compile
    /// here until it is encoded.
    pub fn push_params(&mut self, params: &SimParams) {
        let SimParams {
            model,
            app,
            io,
            distribution,
            projection,
            predictor,
            lead_scale,
            lm_transfer_factor,
            lm_precopy_factor,
            lm_slowdown,
            dram_per_node,
            drain_concurrency,
            replacement_delay_secs,
            rate_window_hours,
            dynamic_oci,
            sigma_policy,
            coordination,
            background_traffic,
            node_selection,
            lead_error_cv,
            pfs_mode,
            horizon_factor,
        } = params;
        self.push_model(*model);

        let Application {
            name,
            nodes,
            checkpoint_total,
            compute_hours,
        } = app;
        self.push_str(name);
        self.push_u64(*nodes);
        self.push_f64(*checkpoint_total);
        self.push_f64(*compute_hours);

        let IoHierarchy { bb, pfs, net } = io;
        let (capacity, write_bw, read_bw) = bb.parts();
        self.push_f64(capacity);
        self.push_f64(write_bw);
        self.push_f64(read_bw);
        let (node_model, ceiling, contention_exponent) = pfs.parts();
        let (peak_bw, optimal_tasks, half_saturation, oversubscription_penalty) =
            node_model.parts();
        self.push_f64(peak_bw);
        self.push_u32(optimal_tasks);
        self.push_f64(half_saturation);
        self.push_f64(oversubscription_penalty);
        self.push_f64(ceiling);
        self.push_f64(contention_exponent);
        let (injection_bw, collective_hop_latency) = net.parts();
        self.push_f64(injection_bw);
        self.push_f64(collective_hop_latency);

        let FailureDistribution {
            name,
            shape,
            scale_hours,
            system_nodes,
        } = distribution;
        self.push_str(name);
        self.push_f64(*shape);
        self.push_f64(*scale_hours);
        self.push_u64(*system_nodes);

        self.push_u8(match projection {
            Projection::MinStability => 0,
            Projection::Thinning => 1,
        });

        let (recall, fp_share, latency_secs) = predictor.parts();
        self.push_f64(recall);
        self.push_f64(fp_share);
        self.push_f64(latency_secs);

        self.push_f64(*lead_scale);
        self.push_f64(*lm_transfer_factor);
        self.push_f64(*lm_precopy_factor);
        self.push_f64(*lm_slowdown);
        self.push_f64(*dram_per_node);
        self.push_u64(*drain_concurrency);
        self.push_f64(*replacement_delay_secs);
        self.push_f64(*rate_window_hours);
        self.push_u8(u8::from(*dynamic_oci));
        self.push_u8(match sigma_policy {
            SigmaPolicy::LeadTimeOnly => 0,
            SigmaPolicy::AccuracyAware => 1,
        });
        self.push_u8(match coordination {
            CoordinationPolicy::Prioritized => 0,
            CoordinationPolicy::FifoQueue => 1,
            CoordinationPolicy::Uncoordinated => 2,
        });
        match background_traffic {
            None => self.push_u8(0),
            Some(BackgroundTraffic { mean_share, jitter }) => {
                self.push_u8(1);
                self.push_f64(*mean_share);
                self.push_f64(*jitter);
            }
        }
        match node_selection {
            NodeSelection::Uniform => self.push_u8(0),
            NodeSelection::Hotspot { fraction, weight } => {
                self.push_u8(1);
                self.push_f64(*fraction);
                self.push_f64(*weight);
            }
        }
        self.push_f64(*lead_error_cv);
        self.push_u8(match pfs_mode {
            PfsMode::Analytic => 0,
            PfsMode::Fluid => 1,
        });
        self.push_f64(*horizon_factor);
    }

    /// Splices another builder's bytes in verbatim (no length prefix —
    /// the other builder's own framing carries over unchanged).
    pub fn push_rendered(&mut self, other: &Canon) {
        self.buf.extend_from_slice(&other.buf);
    }

    /// The canonical bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// 128-bit content-address of the canonical bytes.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            hi: fnv1a_from(FNV_BASIS, &self.buf),
            lo: fnv1a_from(FNV_BASIS_ALT, &self.buf),
        }
    }
}

/// Renders the campaign-wide execution context every cell result binds
/// to: fingerprint version, seed, run count, VR selection, lead-time
/// model digest, and the analytic prefilter spec. The adaptive knobs are
/// deliberately *not* rendered here — adaptive campaigns are never
/// cached per cell (their per-cell results depend on grid-pooled pilot
/// variances), and callers must gate on `config.vr.adaptive.is_none()`
/// before fingerprinting.
fn push_context(
    canon: &mut Canon,
    config: &RunnerConfig,
    leads_digest: u64,
    prefilter: Option<&Prefilter>,
) {
    canon.push_u16(FINGERPRINT_VERSION);
    canon.push_u64(config.base_seed);
    canon.push_u64(config.runs as u64);
    canon.push_u8(u8::from(config.vr.antithetic));
    canon.push_u32(config.vr.strata);
    canon.push_u64(leads_digest);
    canon.push_str(&prefilter.map(|p| p.spec()).unwrap_or_default());
}

/// Content-address of one cell's complete simulated result under
/// `config`: the key of the service's result cache.
///
/// Covers everything a cell's per-run result stream depends on — and,
/// by the grid-equivalence contract (`tests/grid_equivalence.rs`),
/// *nothing else*: a cell's aggregate is bit-identical regardless of
/// which other cells share the pool, which is exactly what makes
/// per-cell caching sound.
pub fn cell_fingerprint(
    cell: &GridCell,
    leads_digest: u64,
    config: &RunnerConfig,
    prefilter: Option<&Prefilter>,
) -> Fingerprint {
    let mut canon = Canon::new();
    push_context(&mut canon, config, leads_digest, prefilter);
    canon.push_cell(cell);
    canon.fingerprint()
}

/// Content-address of a whole campaign request (ordered cell list +
/// execution context): the identity a sweep journal binds to, so a
/// journal can only ever resume the exact campaign that wrote it.
pub fn campaign_fingerprint(
    cells: &[GridCell],
    leads_digest: u64,
    config: &RunnerConfig,
    prefilter: Option<&Prefilter>,
) -> Fingerprint {
    let mut canon = Canon::new();
    push_context(&mut canon, config, leads_digest, prefilter);
    canon.push_u64(cells.len() as u64);
    for cell in cells {
        canon.push_cell(cell);
    }
    canon.fingerprint()
}

/// Every cell fingerprint plus the campaign fingerprint in one pass.
///
/// Identical to calling [`cell_fingerprint`] per cell and
/// [`campaign_fingerprint`] once — the canonical byte streams are the
/// same — but each cell is encoded exactly once and its bytes spliced
/// into both streams, so a request with `n` cells pays `n` encodings
/// instead of `2n`.
pub fn campaign_fingerprints(
    cells: &[GridCell],
    leads_digest: u64,
    config: &RunnerConfig,
    prefilter: Option<&Prefilter>,
) -> (Vec<Fingerprint>, Fingerprint) {
    let mut context = Canon::new();
    push_context(&mut context, config, leads_digest, prefilter);
    let mut campaign = context.clone();
    campaign.push_u64(cells.len() as u64);
    let fps = cells
        .iter()
        .map(|cell| {
            let mut rendered = Canon::new();
            rendered.push_cell(cell);
            campaign.push_rendered(&rendered);
            let mut per_cell = context.clone();
            per_cell.push_rendered(&rendered);
            per_cell.fingerprint()
        })
        .collect();
    (fps, campaign.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(app: &str, scale: f64) -> GridCell {
        let mut params =
            SimParams::paper_defaults(ModelKind::B, Application::by_name(app).unwrap());
        params.lead_scale = scale;
        GridCell::new(params, &[ModelKind::B, ModelKind::P2])
            .with_label(format!("{app}@{scale}"))
    }

    #[test]
    fn fingerprint_hex_roundtrip() {
        let fp = Fingerprint { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };
        assert_eq!(Fingerprint::from_hex(&fp.hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
    }

    /// Every `SimParams` field, nested fields included, changed one at a
    /// time from the XGC paper defaults. Variant-carried fields are
    /// changed from a variant that carries them (`Some` traffic, a
    /// hotspot selection), so each entry differs from exactly one other
    /// entry in exactly one field.
    fn one_field_variants() -> Vec<(&'static str, SimParams)> {
        use pckpt_failure::generator::NodeSelection;
        use pckpt_failure::{Predictor, Projection};
        use pckpt_ioperf::{BurstBuffer, Network, NodeIoModel, PfsModel};

        let base = cell("XGC", 1.0).params;
        let (cap, wbw, rbw) = base.io.bb.parts();
        let (node, ceiling, beta) = base.io.pfs.parts();
        let (peak, tasks, half, penalty) = node.parts();
        let (inj, hop) = base.io.net.parts();
        let (recall, fp_share, latency) = base.predictor.parts();
        let pfs = |node: NodeIoModel, ceiling: f64, beta: f64| {
            PfsModel::from_parts(node, ceiling, beta)
        };
        let traffic = BackgroundTraffic::new(0.5, 0.1);
        let hotspot = NodeSelection::Hotspot { fraction: 0.1, weight: 4.0 };
        type Edit = Box<dyn Fn(&mut SimParams)>;
        let edits: Vec<(&'static str, Edit)> = vec![
            ("base", Box::new(|_| {})),
            ("model", Box::new(|p| p.model = ModelKind::P2)),
            ("app.name", Box::new(|p| p.app.name = "XGC-renamed")),
            ("app.nodes", Box::new(|p| p.app.nodes += 1)),
            ("app.checkpoint_total", Box::new(|p| p.app.checkpoint_total *= 2.0)),
            ("app.compute_hours", Box::new(|p| p.app.compute_hours *= 2.0)),
            ("io.bb.capacity", Box::new(move |p| p.io.bb = BurstBuffer::new(cap * 2.0, wbw, rbw))),
            ("io.bb.write_bw", Box::new(move |p| p.io.bb = BurstBuffer::new(cap, wbw * 2.0, rbw))),
            ("io.bb.read_bw", Box::new(move |p| p.io.bb = BurstBuffer::new(cap, wbw, rbw * 2.0))),
            ("io.pfs.node.peak_bw", Box::new(move |p| {
                p.io.pfs = pfs(NodeIoModel::new(peak * 2.0, tasks, half, penalty), ceiling, beta)
            })),
            ("io.pfs.node.optimal_tasks", Box::new(move |p| {
                p.io.pfs = pfs(NodeIoModel::new(peak, tasks + 1, half, penalty), ceiling, beta)
            })),
            ("io.pfs.node.half_saturation", Box::new(move |p| {
                p.io.pfs = pfs(NodeIoModel::new(peak, tasks, half * 2.0, penalty), ceiling, beta)
            })),
            ("io.pfs.node.oversubscription_penalty", Box::new(move |p| {
                p.io.pfs = pfs(NodeIoModel::new(peak, tasks, half, penalty * 2.0), ceiling, beta)
            })),
            ("io.pfs.ceiling", Box::new(move |p| p.io.pfs = pfs(node, ceiling * 2.0, beta))),
            ("io.pfs.contention_exponent", Box::new(move |p| {
                p.io.pfs = pfs(node, ceiling, beta / 2.0)
            })),
            ("io.net.injection_bw", Box::new(move |p| p.io.net = Network::new(inj * 2.0, hop))),
            ("io.net.collective_hop_latency", Box::new(move |p| {
                p.io.net = Network::new(inj, hop * 2.0)
            })),
            ("distribution.name", Box::new(|p| p.distribution.name = "renamed")),
            ("distribution.shape", Box::new(|p| p.distribution.shape *= 1.5)),
            ("distribution.scale_hours", Box::new(|p| p.distribution.scale_hours *= 1.5)),
            ("distribution.system_nodes", Box::new(|p| p.distribution.system_nodes += 1)),
            ("projection", Box::new(|p| {
                p.projection = match p.projection {
                    Projection::MinStability => Projection::Thinning,
                    Projection::Thinning => Projection::MinStability,
                }
            })),
            ("predictor.recall", Box::new(move |p| {
                p.predictor = Predictor::new(recall / 2.0, fp_share, latency)
            })),
            ("predictor.fp_share", Box::new(move |p| {
                p.predictor = Predictor::new(recall, fp_share / 2.0, latency)
            })),
            ("predictor.latency_secs", Box::new(move |p| {
                p.predictor = Predictor::new(recall, fp_share, latency * 2.0)
            })),
            ("lead_scale", Box::new(|p| p.lead_scale = 1.5)),
            ("lm_transfer_factor", Box::new(|p| p.lm_transfer_factor *= 2.0)),
            ("lm_precopy_factor", Box::new(|p| p.lm_precopy_factor *= 2.0)),
            ("lm_slowdown", Box::new(|p| p.lm_slowdown *= 2.0)),
            ("dram_per_node", Box::new(|p| p.dram_per_node *= 2.0)),
            ("drain_concurrency", Box::new(|p| p.drain_concurrency += 1)),
            ("replacement_delay_secs", Box::new(|p| p.replacement_delay_secs *= 2.0)),
            ("rate_window_hours", Box::new(|p| p.rate_window_hours *= 2.0)),
            ("dynamic_oci", Box::new(|p| p.dynamic_oci = !p.dynamic_oci)),
            ("sigma_policy", Box::new(|p| p.sigma_policy = SigmaPolicy::AccuracyAware)),
            ("coordination.fifo", Box::new(|p| p.coordination = CoordinationPolicy::FifoQueue)),
            ("coordination.none", Box::new(|p| p.coordination = CoordinationPolicy::Uncoordinated)),
            ("background_traffic", Box::new(move |p| p.background_traffic = Some(traffic))),
            ("background_traffic.mean_share", Box::new(move |p| {
                p.background_traffic = Some(BackgroundTraffic::new(0.6, traffic.jitter))
            })),
            ("background_traffic.jitter", Box::new(move |p| {
                p.background_traffic = Some(BackgroundTraffic::new(traffic.mean_share, 0.2))
            })),
            ("node_selection", Box::new(move |p| p.node_selection = hotspot)),
            ("node_selection.fraction", Box::new(|p| {
                p.node_selection = NodeSelection::Hotspot { fraction: 0.2, weight: 4.0 }
            })),
            ("node_selection.weight", Box::new(|p| {
                p.node_selection = NodeSelection::Hotspot { fraction: 0.1, weight: 8.0 }
            })),
            ("lead_error_cv", Box::new(|p| p.lead_error_cv = 0.25)),
            ("pfs_mode", Box::new(|p| p.pfs_mode = PfsMode::Fluid)),
            ("horizon_factor", Box::new(|p| p.horizon_factor *= 2.0)),
        ];
        edits
            .into_iter()
            .map(|(name, edit)| {
                let mut p = base.clone();
                edit(&mut p);
                (name, p)
            })
            .collect()
    }

    #[test]
    fn cell_fingerprint_separates_every_axis() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let base = RunnerConfig::new(8, 42);
        let fp = |c: &GridCell, cfg: &RunnerConfig| cell_fingerprint(c, leads.digest(), cfg, None);
        let a = fp(&cell("XGC", 1.0), &base);
        assert_eq!(a, fp(&cell("XGC", 1.0), &base), "deterministic");

        // Every parameter field, one at a time: all fingerprints distinct.
        let variants = one_field_variants();
        let mut seen = std::collections::BTreeMap::new();
        for (name, params) in &variants {
            let c = GridCell::new(params.clone(), &[ModelKind::B, ModelKind::P2])
                .with_label("XGC@1");
            if let Some(other) = seen.insert(fp(&c, &base), *name) {
                panic!("changing {name} leaves the fingerprint of {other}");
            }
        }
        assert_eq!(seen.len(), variants.len());

        assert_ne!(a, fp(&cell("POP", 1.0), &base), "app differs");
        let relabelled = cell("XGC", 1.0).with_label("other");
        assert_ne!(a, fp(&relabelled, &base), "label differs");
        let mut remodelled = cell("XGC", 1.0);
        remodelled.models = vec![ModelKind::B, ModelKind::M2];
        assert_ne!(a, fp(&remodelled, &base), "models differ");
        assert_ne!(a, fp(&cell("XGC", 1.0), &RunnerConfig::new(9, 42)), "runs differ");
        assert_ne!(a, fp(&cell("XGC", 1.0), &RunnerConfig::new(8, 43)), "seed differs");
        let mut vr = base;
        vr.vr.antithetic = true;
        assert_ne!(a, fp(&cell("XGC", 1.0), &vr), "VR mode differs");
        let pf = Some(Prefilter::new(0.2));
        assert_ne!(
            a,
            cell_fingerprint(&cell("XGC", 1.0), leads.digest(), &base, pf.as_ref()),
            "prefilter differs"
        );
        assert_ne!(a, cell_fingerprint(&cell("XGC", 1.0), 7, &base, None), "leads differ");
    }

    #[test]
    fn batched_fingerprints_match_the_one_shot_forms() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(8, 42);
        let cells = [cell("XGC", 1.0), cell("POP", 0.5), cell("XGC", 1.5)];
        let pf = Some(Prefilter::new(0.2));
        for prefilter in [None, pf.as_ref()] {
            let (fps, campaign) =
                campaign_fingerprints(&cells, leads.digest(), &cfg, prefilter);
            for (c, fp) in cells.iter().zip(&fps) {
                assert_eq!(*fp, cell_fingerprint(c, leads.digest(), &cfg, prefilter));
            }
            assert_eq!(
                campaign,
                campaign_fingerprint(&cells, leads.digest(), &cfg, prefilter)
            );
        }
    }

    #[test]
    fn campaign_fingerprint_binds_cell_order() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(4, 1);
        let (a, b) = (cell("XGC", 1.0), cell("POP", 0.5));
        let fwd = campaign_fingerprint(&[a.clone(), b.clone()], leads.digest(), &cfg, None);
        let rev = campaign_fingerprint(&[b, a], leads.digest(), &cfg, None);
        assert_ne!(fwd, rev);
    }
}
