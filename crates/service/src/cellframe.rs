//! The service's unit of persistence, and the per-run frame codec.
//!
//! **Fold records.** The service stores and serves each computed cell
//! as its folded value — the `(CampaignResult, ci)` the grid computed —
//! in one sealed record, built from the `pckpt_core::frames`
//! primitives. The same bytes are a cache entry and a sweep-journal
//! payload, and a record read back from disk is either bit-exact or
//! rejected, so a warm answer equals the cold one by construction and
//! no warm path touches per-run results. Layout (all integers
//! little-endian):
//!
//! ```text
//! FOLD_MAGIC  u32   "PKFD"
//! version     u16   frames::FRAME_VERSION
//! fp.hi       u64   cell fingerprint, high half
//! fp.lo       u64   cell fingerprint, low half
//! runs        u64   runs per lane
//! fold        frames::encode_fold (models, ci, one Aggregate per model)
//! digest      u64   FNV-1a over everything above (frames::seal)
//! ```
//!
//! A record is about 16 B per run and lane plus a fixed part: a
//! 1000-run, 2-lane cell is about 20 KB.
//!
//! **Per-run frames.** A [`CellFrame`] holds every `RunResult` for one
//! grid cell (all model lanes × all runs, lane-major, ascending run —
//! the order `pckpt_core::CellFold` replays), about 260 B per result. The
//! service no longer writes them: once the fold is stored, nothing reads
//! per-run results. They remain the codec the benchmark harness replays
//! to price encode and decode per result. Layout:
//!
//! ```text
//! CELL_MAGIC  u32   "PKCL"
//! version     u16   frames::FRAME_VERSION
//! fp.hi       u64   cell fingerprint, high half
//! fp.lo       u64   cell fingerprint, low half
//! lanes       u32   model lanes in the cell
//! runs        u64   runs per lane
//! results     lanes × runs × RunResult   (frames::encode_run_result)
//! digest      u64   FNV-1a over everything above (frames::seal)
//! ```

use pckpt_core::frames::{
    check_seal, decode_fold, decode_run_result_into, encode_fold, encode_run_result, get_u16,
    get_u32, get_u64, put_u16, put_u32, put_u64, seal, FRAME_VERSION,
};
use pckpt_core::{CampaignResult, Fingerprint, ModelKind, RunResult};

/// A cell's folded value as the service stores and serves it: the
/// campaign result (its `threads` is execution shape, set when served)
/// and the attained relative CI.
pub type Fold = (CampaignResult, f64);

/// Magic prefix for fold records ("PKFD" little-endian).
pub const FOLD_MAGIC: u32 = 0x4446_4b50;

/// Encodes and seals the fold record of cell `fp`, folded over `runs`
/// runs per lane.
pub fn encode_fold_record(fp: Fingerprint, runs: u64, fold: &Fold) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + fold.0.models.len() * (600 + 8 * runs as usize));
    put_u32(&mut out, FOLD_MAGIC);
    put_u16(&mut out, FRAME_VERSION);
    put_u64(&mut out, fp.hi);
    put_u64(&mut out, fp.lo);
    put_u64(&mut out, runs);
    encode_fold(&mut out, &fold.0, fold.1);
    seal(out)
}

/// Decodes a sealed fold record as the fold of cell `fp` over `models`
/// × `runs`. Rejects, before trusting any field, a bad seal (any
/// truncation or corrupted byte); then a wrong magic, another
/// `FRAME_VERSION`, another cell's fingerprint (a record copied onto
/// the wrong key), a shape other than `models` × `runs`, and trailing
/// bytes.
pub fn decode_fold_record(
    bytes: &[u8],
    fp: Fingerprint,
    models: &[ModelKind],
    runs: usize,
) -> Result<Fold, String> {
    let body = check_seal(bytes)?;
    let mut pos = 0usize;
    let magic = get_u32(body, &mut pos)?;
    if magic != FOLD_MAGIC {
        return Err(format!("bad fold record magic {magic:#010x}"));
    }
    let version = get_u16(body, &mut pos)?;
    if version != FRAME_VERSION {
        return Err(format!("fold record version {version} (want {FRAME_VERSION})"));
    }
    let stated = Fingerprint {
        hi: get_u64(body, &mut pos)?,
        lo: get_u64(body, &mut pos)?,
    };
    if stated != fp {
        return Err(format!(
            "fold record of cell {} read as cell {}",
            stated.hex(),
            fp.hex()
        ));
    }
    let stated_runs = get_u64(body, &mut pos)?;
    if stated_runs != runs as u64 {
        return Err(format!("fold record of {stated_runs} runs, want {runs}"));
    }
    let (campaign, ci) = decode_fold(body, &mut pos)?;
    if pos != body.len() {
        return Err(format!("{} trailing bytes in fold record", body.len() - pos));
    }
    if campaign.models != models || campaign.aggregates.iter().any(|a| a.runs() != stated_runs) {
        return Err(format!(
            "fold record shape {:?} does not match the cell's {models:?} × {runs}",
            campaign.models
        ));
    }
    Ok((campaign, ci))
}

/// Magic prefix for cell frames ("PKCL" little-endian).
pub const CELL_MAGIC: u32 = 0x4c43_4b50;

/// A decoded cell frame: the full run set for one grid cell. The
/// service no longer writes these (it stores fold records); the frame
/// stays as the per-run codec a benchmark replays.
#[derive(Debug, Clone)]
pub struct CellFrame {
    /// Binding fingerprint of the cell under its execution config.
    pub fp: Fingerprint,
    /// Model lanes in the cell.
    pub lanes: u32,
    /// Runs per lane.
    pub runs: u64,
    /// Lane-major, ascending-run results (`lanes * runs` entries).
    pub results: Vec<RunResult>,
}

impl CellFrame {
    /// Encodes and seals the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34 + self.results.len() * 200);
        put_u32(&mut out, CELL_MAGIC);
        put_u16(&mut out, FRAME_VERSION);
        put_u64(&mut out, self.fp.hi);
        put_u64(&mut out, self.fp.lo);
        put_u32(&mut out, self.lanes);
        put_u64(&mut out, self.runs);
        for r in &self.results {
            encode_run_result(&mut out, r);
        }
        seal(out)
    }

    /// Decodes a sealed frame, verifying digest, magic, version, and
    /// structural consistency. `expect_fp` (when given) must match the
    /// embedded fingerprint — a cache file renamed onto the wrong key
    /// is rejected, not trusted.
    pub fn decode(bytes: &[u8], expect_fp: Option<Fingerprint>) -> Result<CellFrame, String> {
        let mut reader = CellFrameReader::open(bytes, expect_fp)?;
        let count = reader.lanes as u64 * reader.runs;
        let mut results = Vec::with_capacity(count as usize);
        for _ in 0..count {
            results.push(reader.next_result()?);
        }
        Ok(CellFrame {
            fp: reader.fp,
            lanes: reader.lanes,
            runs: reader.runs,
            results,
        })
    }
}

/// Incremental reader over a sealed cell frame: seal and header are
/// verified up front by [`open`](CellFrameReader::open), then each
/// [`next_result`](CellFrameReader::next_result) call decodes one
/// `RunResult` in the frame's lane-major order.
///
/// This is the streaming counterpart to [`CellFrame::decode`]: a fold
/// can consume the frame one result at a time (via `pckpt_core::CellFold`)
/// with a single result struct live, instead of materializing
/// `lanes × runs` of them first. The
/// seal already guarantees the bytes are exactly what `encode` wrote,
/// so deferring the per-result structural checks to consumption time
/// rejects the same inputs, just later.
pub struct CellFrameReader<'a> {
    body: &'a [u8],
    pos: usize,
    remaining: u64,
    /// Binding fingerprint embedded in the frame.
    pub fp: Fingerprint,
    /// Model lanes in the cell.
    pub lanes: u32,
    /// Runs per lane.
    pub runs: u64,
}

impl<'a> CellFrameReader<'a> {
    /// Verifies the seal and the frame header, positioning the reader
    /// at the first result. Rejects exactly what [`CellFrame::decode`]
    /// rejects up to that point (digest, magic, version, fingerprint
    /// mismatch, implausible shape).
    pub fn open(bytes: &'a [u8], expect_fp: Option<Fingerprint>) -> Result<Self, String> {
        let body = check_seal(bytes)?;
        let mut pos = 0usize;
        let magic = get_u32(body, &mut pos)?;
        if magic != CELL_MAGIC {
            return Err(format!("bad cell magic {magic:#010x}"));
        }
        let version = get_u16(body, &mut pos)?;
        if version != FRAME_VERSION {
            return Err(format!("cell frame version {version} (want {FRAME_VERSION})"));
        }
        let fp = Fingerprint {
            hi: get_u64(body, &mut pos)?,
            lo: get_u64(body, &mut pos)?,
        };
        if let Some(want) = expect_fp {
            if fp != want {
                return Err(format!(
                    "cell fingerprint mismatch: frame {} vs expected {}",
                    fp.hex(),
                    want.hex()
                ));
            }
        }
        let lanes = get_u32(body, &mut pos)?;
        let runs = get_u64(body, &mut pos)?;
        let count = (lanes as u64)
            .checked_mul(runs)
            .ok_or("cell frame lane/run overflow")?;
        if count == 0 || count > 1 << 32 {
            return Err(format!("implausible cell frame size: {lanes} lanes × {runs} runs"));
        }
        Ok(CellFrameReader {
            body,
            pos,
            remaining: count,
            fp,
            lanes,
            runs,
        })
    }

    /// Decodes the next result. Errs when the frame is exhausted, when
    /// a result is structurally damaged, or — on the final result —
    /// when trailing bytes follow it.
    pub fn next_result(&mut self) -> Result<RunResult, String> {
        let mut r = RunResult::default();
        self.next_result_into(&mut r)?;
        Ok(r)
    }

    /// [`next_result`](Self::next_result) into a caller-owned scratch
    /// value (a `RunResult` is ~2 KiB; reusing one across a frame's
    /// thousands of results keeps a decode loop allocation- and
    /// copy-free). On error the scratch contents are unspecified.
    pub fn next_result_into(&mut self, out: &mut RunResult) -> Result<(), String> {
        if self.remaining == 0 {
            return Err("cell frame exhausted".into());
        }
        decode_run_result_into(self.body, &mut self.pos, out)?;
        self.remaining -= 1;
        if self.remaining == 0 && self.pos != self.body.len() {
            return Err(format!(
                "{} trailing bytes in cell frame",
                self.body.len() - self.pos
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_core::{
        run_grid_with_cell_sink, GridCell, GridPlan, GridWorker, RunnerConfig, SimParams,
    };
    use pckpt_simrng::SimRng;
    use pckpt_workloads::Application;

    fn xgc_cell() -> GridCell {
        let app = Application::by_name("XGC").expect("table app");
        let params = SimParams::paper_defaults(ModelKind::B, app);
        GridCell::new(params, &[ModelKind::B, ModelKind::P2])
    }

    /// A frame of real results: every unit of one XGC cell for runs
    /// 0..3, straight from the grid worker.
    fn sample_frame() -> CellFrame {
        let cells = vec![xgc_cell()];
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let plan = GridPlan::new(&cells, &leads);
        let master = SimRng::seed_from(7);
        let mut worker = GridWorker::new(&plan);
        let runs = 3;
        let mut results = Vec::new();
        for unit in 0..plan.units() {
            for run in 0..runs {
                results.push(worker.run_unit(&master, run, unit));
            }
        }
        CellFrame {
            fp: Fingerprint { hi: 0x1122, lo: 0x3344 },
            lanes: plan.units() as u32,
            runs: runs as u64,
            results,
        }
    }

    /// The fold of one XGC cell over 4 runs, as the grid sink hands it.
    fn sample_fold() -> Fold {
        let mut config = RunnerConfig::new(4, 7);
        config.threads = 1;
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let mut captured = None;
        run_grid_with_cell_sink(&[xgc_cell()], &leads, &config, &mut |done| {
            captured = Some((done.campaign, done.ci));
        });
        captured.expect("sink ran")
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let frame = sample_frame();
        let bytes = frame.encode();
        let back = CellFrame::decode(&bytes, Some(frame.fp)).unwrap();
        assert_eq!(back.lanes, frame.lanes);
        assert_eq!(back.runs, frame.runs);
        assert_eq!(back.results.len(), frame.results.len());
        // Re-encoding the decode must reproduce the exact bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn streaming_reader_yields_the_decoded_results_in_order() {
        let frame = sample_frame();
        let bytes = frame.encode();
        let mut reader = CellFrameReader::open(&bytes, Some(frame.fp)).unwrap();
        assert_eq!((reader.lanes, reader.runs), (frame.lanes, frame.runs));
        for want in &frame.results {
            let got = reader.next_result().unwrap();
            let mut a = Vec::new();
            let mut b = Vec::new();
            encode_run_result(&mut a, &got);
            encode_run_result(&mut b, want);
            assert_eq!(a, b);
        }
        assert!(reader.next_result().is_err(), "exhausted");
        let mut bad = bytes.clone();
        bad[20] ^= 1;
        assert!(CellFrameReader::open(&bad, None).is_err(), "seal still gates");
    }

    #[test]
    fn rejects_damage_and_identity_mismatch() {
        let frame = sample_frame();
        let bytes = frame.encode();
        // Truncation at any prefix fails the seal or the structure.
        for cut in 0..bytes.len() {
            assert!(CellFrame::decode(&bytes[..cut], None).is_err(), "cut {cut}");
        }
        // Single-byte corruption fails the seal.
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        assert!(CellFrame::decode(&bad, None).is_err());
        // Wrong expected fingerprint is rejected even with a valid seal.
        let other = Fingerprint { hi: 9, lo: 9 };
        assert!(CellFrame::decode(&bytes, Some(other)).is_err());
    }

    #[test]
    fn fold_records_roundtrip_and_reject_another_identity_or_shape() {
        let fold = sample_fold();
        let fp = Fingerprint { hi: 5, lo: 6 };
        let models = [ModelKind::B, ModelKind::P2];
        let bytes = encode_fold_record(fp, 4, &fold);
        let back = decode_fold_record(&bytes, fp, &models, 4).unwrap();
        assert_eq!(encode_fold_record(fp, 4, &back), bytes, "decode re-encodes exactly");
        assert_eq!(back.1.to_bits(), fold.1.to_bits());
        let other = Fingerprint { hi: 5, lo: 7 };
        assert!(decode_fold_record(&bytes, other, &models, 4).is_err(), "other cell");
        assert!(decode_fold_record(&bytes, fp, &models, 5).is_err(), "other run count");
        assert!(decode_fold_record(&bytes, fp, &models[..1], 4).is_err(), "other models");
        // A record sealed with the per-run frame's magic is not a fold.
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body[..4].copy_from_slice(&CELL_MAGIC.to_le_bytes());
        assert!(decode_fold_record(&seal(body), fp, &models, 4).is_err(), "magic");
    }

    #[test]
    fn fold_record_lengths_are_checked_before_allocating() {
        let fold = sample_fold();
        let fp = Fingerprint { hi: 1, lo: 2 };
        let bytes = encode_fold_record(fp, 4, &fold);
        let body = &bytes[..bytes.len() - 8];
        // Header (30 B), then the model count: claim u32::MAX models.
        let mut huge_models = body.to_vec();
        huge_models[30..34].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_fold_record(&seal(huge_models), fp, &[ModelKind::B, ModelKind::P2], 4)
            .unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Every declared count re-sealed at u64::MAX fails cleanly: walk
        // each 8-byte window of the fold section and make it huge.
        for at in 30..body.len() - 8 {
            let mut bad = body.to_vec();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let _ = decode_fold_record(&seal(bad), fp, &[ModelKind::B, ModelKind::P2], 4);
        }
    }
}
