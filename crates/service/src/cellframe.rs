//! Per-cell result frames: the service's unit of persistence.
//!
//! One frame holds every `RunResult` for one grid cell (all model
//! lanes × all runs, lane-major, ascending run — the same push order
//! `pckpt_core::CellFold` replays). The byte layout is built from the
//! `pckpt_core::frames` primitives, including the trailing FNV-1a seal,
//! so a frame read back from disk is either bit-exact or rejected. The
//! same bytes serve as cache entries and as sweep-journal payloads.
//!
//! Layout (all integers little-endian):
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
    check_seal, decode_run_result_into, encode_run_result, get_u16, get_u32, get_u64, put_u16,
    put_u32, put_u64, seal, FRAME_VERSION,
};
use pckpt_core::{Fingerprint, RunResult};

/// Magic prefix for cell frames ("PKCL" little-endian).
pub const CELL_MAGIC: u32 = 0x4c43_4b50;

/// A decoded cell frame: the full run set for one grid cell.
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
/// This is the warm-path counterpart to [`CellFrame::decode`]: a fold
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
    /// thousands of results keeps the warm fold allocation- and
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
    use pckpt_core::{run_grid_with_cell_sink, GridCell, ModelKind, RunnerConfig, SimParams};
    use pckpt_workloads::Application;

    fn sample_frame() -> CellFrame {
        let app = Application::by_name("XGC").expect("table app");
        let params = SimParams::paper_defaults(ModelKind::B, app);
        let cells = vec![GridCell::new(params, &[ModelKind::B, ModelKind::P2])];
        let mut config = RunnerConfig::new(3, 7);
        config.threads = 1;
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let mut captured = None;
        run_grid_with_cell_sink(&cells, &leads, &config, &mut |cr| {
            captured = Some(CellFrame {
                fp: Fingerprint { hi: 0x1122, lo: 0x3344 },
                lanes: cr.lanes as u32,
                runs: cr.runs as u64,
                results: cr.iter().cloned().collect(),
            });
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
}
