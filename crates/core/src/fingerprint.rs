//! Canonical configuration fingerprints — the normal form the campaign
//! service keys its cache and journal by.
//!
//! A fingerprint is a canonical byte rendering of everything a result
//! depends on (seed, runs, VR selection, prefilter, lead-time model,
//! cell identities), hashed so that a result from a different campaign
//! can never be served or folded. The campaign service
//! (`crates/service`) keys its content-addressed result cache and its
//! sweep journal by it.
//!
//! [`Canon::fingerprint`] is 128 bits from two independently seeded
//! FNV-1a passes, because the digest **is** the identity (cache keys,
//! journal headers): a 64-bit birthday collision at cache scale would
//! silently serve the wrong cell, so the key is wide.

use crate::prefilter::Prefilter;
use crate::runner::{GridCell, RunnerConfig};

/// Version byte folded into every cell/campaign fingerprint. Bump when
/// the canonical rendering (or anything the simulation semantics bind
/// to, e.g. the `Debug` layout of `SimParams`) changes incompatibly:
/// old cache entries then miss instead of being served stale.
pub const FINGERPRINT_VERSION: u16 = 1;

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

    /// Appends one grid cell's full identity: label, model list, and the
    /// complete `Debug` rendering of its parameters (stable within one
    /// binary — the gap a binary upgrade opens is closed by
    /// [`FINGERPRINT_VERSION`] and the leads digest travelling alongside).
    pub fn push_cell(&mut self, cell: &GridCell) {
        self.push_str(&cell.label);
        self.push_u64(cell.models.len() as u64);
        for m in &cell.models {
            self.push_str(m.name());
        }
        self.push_str(&format!("{:?}", cell.params));
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
/// same — but each cell is rendered exactly once (the `Debug` rendering
/// of `SimParams` is by far the most expensive part of fingerprinting),
/// so a request with `n` cells pays `n` renders instead of `2n`.
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
    use crate::config::{ModelKind, SimParams};
    use pckpt_workloads::Application;

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

    #[test]
    fn cell_fingerprint_separates_every_axis() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let base = RunnerConfig::new(8, 42);
        let fp = |c: &GridCell, cfg: &RunnerConfig| cell_fingerprint(c, leads.digest(), cfg, None);
        let a = fp(&cell("XGC", 1.0), &base);
        assert_eq!(a, fp(&cell("XGC", 1.0), &base), "deterministic");
        assert_ne!(a, fp(&cell("XGC", 1.5), &base), "params differ");
        assert_ne!(a, fp(&cell("POP", 1.0), &base), "app differs");
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
