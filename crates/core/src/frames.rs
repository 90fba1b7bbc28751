//! The binary codecs of the campaign service.
//!
//! The wire discipline: little-endian fixed-width fields, every `f64`
//! by bit pattern (so decode ∘ encode is the identity), and a trailing
//! FNV-1a digest over everything before it — truncation at any prefix
//! length and any corrupted byte are detected before a single field is
//! trusted. Two payloads compose these primitives:
//!
//! * the **fold codec** ([`encode_fold`] / [`decode_fold`]): one cell's
//!   folded value, its `(CampaignResult, ci)` — what the service's cache
//!   entries and journal records store and serve;
//! * the **run-result codec** ([`encode_run_result`] /
//!   [`decode_run_result_into`]): one raw per-run result, which the
//!   per-run cell frame replays.
//!
//! There is exactly one implementation of each byte layout.

use pckpt_simobs::{FixedHist, ObsAggregate};
use pckpt_simrng::stats::Summary;

use crate::config::ModelKind;
use crate::metrics::{Aggregate, OverheadLedger, RunResult};
use crate::runner::CampaignResult;

/// Frame format version shared by every frame-shaped artifact (cache
/// cells, journal records, per-run frames). Bump on any layout change.
/// Version 2 made a cache entry and a journal cell record one sealed
/// fold record instead of a per-run frame.
pub const FRAME_VERSION: u16 = 2;

// ---------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` by bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Takes the next `n` bytes or reports the truncation offset.
pub fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], String> {
    let at = *pos;
    if bytes.len().saturating_sub(at) < n {
        return Err(format!("frame truncated at byte {at}"));
    }
    *pos = at + n;
    Ok(&bytes[at..at + n])
}

/// Reads a little-endian `u16`.
pub fn get_u16(bytes: &[u8], pos: &mut usize) -> Result<u16, String> {
    let mut raw = [0u8; 2];
    raw.copy_from_slice(take(bytes, pos, 2)?);
    Ok(u16::from_le_bytes(raw))
}

/// Reads a little-endian `u32`.
pub fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(take(bytes, pos, 4)?);
    Ok(u32::from_le_bytes(raw))
}

/// Reads a little-endian `u64`.
pub fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(take(bytes, pos, 8)?);
    Ok(u64::from_le_bytes(raw))
}

/// Reads an `f64` by bit pattern.
pub fn get_f64(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    Ok(f64::from_bits(get_u64(bytes, pos)?))
}

// ---------------------------------------------------------------------
// RunResult codec
// ---------------------------------------------------------------------

/// Serializes one raw per-run result (ledger, wall/ideal/OCI seconds,
/// observability counters) — the exact stream the deterministic fold
/// replays, so every `f64` travels by bit pattern.
pub fn encode_run_result(out: &mut Vec<u8>, r: &RunResult) {
    let l = &r.ledger;
    put_f64(out, l.ckpt_secs);
    put_f64(out, l.lm_slowdown_secs);
    put_f64(out, l.recomp_secs);
    put_f64(out, l.recovery_secs);
    for c in [
        l.failures_total,
        l.failures_predicted,
        l.mitigated_by_lm,
        l.mitigated_by_pckpt,
        l.mitigated_by_safeguard,
        l.false_positive_actions,
        l.pckpt_rounds,
        l.safeguard_ckpts,
        l.lm_started,
        l.lm_aborted,
        l.periodic_ckpts,
    ] {
        put_u64(out, c);
    }
    put_f64(out, r.wall_secs);
    put_f64(out, r.ideal_secs);
    put_f64(out, r.final_oci_secs);
    r.obs.encode_into(out);
}

/// Inverse of [`encode_run_result`], decoding into a caller-owned
/// result and overwriting its previous contents. A `RunResult` is
/// ~2 KiB (four fixed histograms), so a loop decoding thousands of them
/// reuses one scratch value instead of moving a fresh one out per call.
/// On error the contents are unspecified.
pub fn decode_run_result_into(
    bytes: &[u8],
    pos: &mut usize,
    out: &mut RunResult,
) -> Result<(), String> {
    out.ledger = OverheadLedger {
        ckpt_secs: get_f64(bytes, pos)?,
        lm_slowdown_secs: get_f64(bytes, pos)?,
        recomp_secs: get_f64(bytes, pos)?,
        recovery_secs: get_f64(bytes, pos)?,
        failures_total: get_u64(bytes, pos)?,
        failures_predicted: get_u64(bytes, pos)?,
        mitigated_by_lm: get_u64(bytes, pos)?,
        mitigated_by_pckpt: get_u64(bytes, pos)?,
        mitigated_by_safeguard: get_u64(bytes, pos)?,
        false_positive_actions: get_u64(bytes, pos)?,
        pckpt_rounds: get_u64(bytes, pos)?,
        safeguard_ckpts: get_u64(bytes, pos)?,
        lm_started: get_u64(bytes, pos)?,
        lm_aborted: get_u64(bytes, pos)?,
        periodic_ckpts: get_u64(bytes, pos)?,
    };
    out.wall_secs = get_f64(bytes, pos)?;
    out.ideal_secs = get_f64(bytes, pos)?;
    out.final_oci_secs = get_f64(bytes, pos)?;
    out.obs.decode_into(bytes, pos)
}

// ---------------------------------------------------------------------
// Fold codec
// ---------------------------------------------------------------------

/// Serializes one cell's folded value bit for bit: the model list (one
/// tag byte each), the attained relative CI, and per model its
/// [`Aggregate`] — the ten `Summary`s, the `ObsAggregate` (counters plus
/// `FixedHist::encode_into`) and the per-run total-overhead samples.
/// `campaign.threads` is execution shape, not result, and is not stored.
///
/// ```text
/// models   u32, then one ModelKind tag u8 per model
/// ci       f64
/// per model:
///   10 × Summary   n u64 | mean f64 | m2 f64 | min f64 | max f64
///   obs            runs | events_handled | events_scheduled |
///                  queue_depth_hwm (u64 each), 4 × FixedHist
///   samples        count u64, count × f64
/// ```
pub fn encode_fold(out: &mut Vec<u8>, campaign: &CampaignResult, ci: f64) {
    debug_assert_eq!(campaign.models.len(), campaign.aggregates.len(), "one aggregate per model");
    put_u32(out, campaign.models.len() as u32);
    for &m in &campaign.models {
        out.push(m as u8);
    }
    put_f64(out, ci);
    for agg in &campaign.aggregates {
        let Aggregate {
            ckpt_hours,
            recomp_hours,
            recovery_hours,
            total_hours,
            ft_ratio,
            failures,
            mitigated_lm,
            mitigated_pckpt,
            mitigated_safeguard,
            wall_hours,
            obs,
            total_samples,
        } = agg;
        for s in [
            ckpt_hours,
            recomp_hours,
            recovery_hours,
            total_hours,
            ft_ratio,
            failures,
            mitigated_lm,
            mitigated_pckpt,
            mitigated_safeguard,
            wall_hours,
        ] {
            let (n, mean, m2, min, max) = s.parts();
            put_u64(out, n);
            for v in [mean, m2, min, max] {
                put_f64(out, v);
            }
        }
        let ObsAggregate {
            runs,
            events_handled,
            events_scheduled,
            queue_depth_hwm,
            lat_bb,
            lat_phase1,
            lat_pfs_full,
            recomp,
        } = obs;
        for c in [runs, events_handled, events_scheduled, queue_depth_hwm] {
            put_u64(out, *c);
        }
        for h in [lat_bb, lat_phase1, lat_pfs_full, recomp] {
            h.encode_into(out);
        }
        put_u64(out, total_samples.len() as u64);
        for &x in total_samples {
            put_f64(out, x);
        }
    }
}

fn get_summary(bytes: &[u8], pos: &mut usize) -> Result<Summary, String> {
    let n = get_u64(bytes, pos)?;
    let (mean, m2) = (get_f64(bytes, pos)?, get_f64(bytes, pos)?);
    let (min, max) = (get_f64(bytes, pos)?, get_f64(bytes, pos)?);
    Ok(Summary::from_parts(n, mean, m2, min, max))
}

/// One [`Aggregate`] in [`encode_fold`]'s layout (fields are read in the
/// order written: a struct literal evaluates its fields in source order).
fn get_aggregate(bytes: &[u8], pos: &mut usize) -> Result<Aggregate, String> {
    let mut agg = Aggregate {
        ckpt_hours: get_summary(bytes, pos)?,
        recomp_hours: get_summary(bytes, pos)?,
        recovery_hours: get_summary(bytes, pos)?,
        total_hours: get_summary(bytes, pos)?,
        ft_ratio: get_summary(bytes, pos)?,
        failures: get_summary(bytes, pos)?,
        mitigated_lm: get_summary(bytes, pos)?,
        mitigated_pckpt: get_summary(bytes, pos)?,
        mitigated_safeguard: get_summary(bytes, pos)?,
        wall_hours: get_summary(bytes, pos)?,
        obs: ObsAggregate {
            runs: get_u64(bytes, pos)?,
            events_handled: get_u64(bytes, pos)?,
            events_scheduled: get_u64(bytes, pos)?,
            queue_depth_hwm: get_u64(bytes, pos)?,
            lat_bb: FixedHist::decode_from(bytes, pos)?,
            lat_phase1: FixedHist::decode_from(bytes, pos)?,
            lat_pfs_full: FixedHist::decode_from(bytes, pos)?,
            recomp: FixedHist::decode_from(bytes, pos)?,
        },
        total_samples: Vec::new(),
    };
    let count = get_u64(bytes, pos)?;
    if count != agg.total_hours.count() {
        return Err(format!(
            "aggregate of {} runs carries {count} samples",
            agg.total_hours.count()
        ));
    }
    // The stated count is checked against the bytes that remain before
    // anything is allocated for it.
    let len = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(8))
        .ok_or_else(|| format!("implausible sample count {count}"))?;
    agg.total_samples = take(bytes, pos, len)?
        .chunks_exact(8)
        .map(|w| {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            f64::from_bits(u64::from_le_bytes(b))
        })
        .collect();
    Ok(agg)
}

/// Inverse of [`encode_fold`]: the campaign result (with `threads` 0;
/// the caller sets it) and the CI. Every length the bytes declare — the
/// model count, each sample count, each histogram's entry count — is
/// checked against the bytes that remain before anything is allocated
/// for it, and an aggregate whose sample count differs from its run
/// count is rejected.
pub fn decode_fold(bytes: &[u8], pos: &mut usize) -> Result<(CampaignResult, f64), String> {
    let n = get_u32(bytes, pos)? as usize;
    let models = take(bytes, pos, n)?
        .iter()
        .map(|&tag| {
            ModelKind::ALL
                .into_iter()
                .find(|&m| m as u8 == tag)
                .ok_or_else(|| format!("unknown model tag {tag}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let ci = get_f64(bytes, pos)?;
    // Grown as decoded, not reserved up front: an aggregate is larger in
    // memory than its smallest encoding, so reserving by the stated
    // count would let a damaged count allocate more than the bytes hold.
    let mut aggregates = Vec::new();
    for _ in 0..n {
        aggregates.push(get_aggregate(bytes, pos)?);
    }
    let campaign = CampaignResult {
        models,
        aggregates,
        threads: 0,
    };
    Ok((campaign, ci))
}

// ---------------------------------------------------------------------
// Digest seal
// ---------------------------------------------------------------------

/// Appends the trailing FNV-1a digest that closes every frame-shaped
/// artifact, returning the sealed bytes.
pub fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let digest = crate::fingerprint::fnv1a(&bytes);
    put_u64(&mut bytes, digest);
    bytes
}

/// Verifies a sealed artifact's trailing digest and returns the body it
/// covers. Truncation at any prefix length and any corrupted byte fail
/// here, before any field is decoded.
pub fn check_seal(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < 8 {
        return Err(format!("frame too short ({} bytes)", bytes.len()));
    }
    let body = &bytes[..bytes.len() - 8];
    let mut dpos = bytes.len() - 8;
    let stated = get_u64(bytes, &mut dpos)?;
    let actual = crate::fingerprint::fnv1a(body);
    if stated != actual {
        return Err(format!(
            "frame digest mismatch (stated {stated:016x}, computed {actual:016x})"
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_simobs::RunObs;

    #[test]
    fn run_result_roundtrip_is_exact() {
        let r = RunResult {
            ledger: OverheadLedger {
                ckpt_secs: 1.5e-3,
                lm_slowdown_secs: -0.0,
                recomp_secs: f64::MIN_POSITIVE,
                recovery_secs: 1.0 / 3.0,
                failures_total: u64::MAX,
                failures_predicted: 7,
                ..OverheadLedger::default()
            },
            wall_secs: 7200.0,
            ideal_secs: 7000.25,
            final_oci_secs: 600.125,
            obs: RunObs::default(),
        };
        let mut buf = Vec::new();
        encode_run_result(&mut buf, &r);
        // Decode into a scratch that already holds a different result:
        // every field, histogram buckets included, must be overwritten.
        let mut back = RunResult {
            ledger: OverheadLedger {
                ckpt_secs: 9.0,
                periodic_ckpts: 3,
                ..OverheadLedger::default()
            },
            wall_secs: 1.0,
            obs: RunObs {
                events_handled: 5,
                ..RunObs::default()
            },
            ..RunResult::default()
        };
        back.obs.lat_bb.record(1 << 20);
        back.obs.recomp.record(77);
        let mut pos = 0;
        decode_run_result_into(&buf, &mut pos, &mut back).unwrap();
        assert_eq!(pos, buf.len(), "no trailing bytes");
        assert_eq!(back, r);
        assert_eq!(back.ledger.lm_slowdown_secs.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn seal_detects_truncation_and_corruption() {
        let sealed = seal(b"canonical payload".to_vec());
        assert_eq!(check_seal(&sealed).unwrap(), b"canonical payload");
        for cut in 0..sealed.len() {
            assert!(check_seal(&sealed[..cut]).is_err(), "prefix {cut} passed");
        }
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x40;
            assert!(check_seal(&bad).is_err(), "corrupt byte {at} passed");
        }
    }
}
