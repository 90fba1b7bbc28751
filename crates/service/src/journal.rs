//! Crash-safe append-only sweep journal.
//!
//! One journal file per campaign fingerprint. Every record is
//! self-delimiting and digest-checked, so a daemon killed mid-write
//! leaves at worst one torn tail record, which recovery truncates
//! away; everything before it replays bit-exactly. Layout:
//!
//! ```text
//! record := REC_MAGIC u32 | kind u8 | len u64 | payload[len] | fnv1a u64
//! ```
//!
//! The digest covers the whole preceding record (magic through
//! payload). Record kinds:
//!
//! * `KIND_HEADER` (first record, exactly once): frame version,
//!   campaign fingerprint, cell count. A journal whose header does not
//!   match the campaign being opened is discarded and restarted — the
//!   fingerprint IS the campaign identity, so a stale file from a
//!   different sweep can never leak results into this one.
//! * `KIND_CELL`: survivor index `u64` followed by the cell's sealed
//!   fold record ([`crate::cellframe::encode_fold_record`]) — the same
//!   bytes the cache stores, never per-run results.
//!
//! Recovery scans from the start, accepts the longest valid record
//! prefix, truncates the file there, and returns the recovered cells.
//! The fold records carry their own seals and fingerprints, so journal
//! recovery composes two integrity layers: record framing (torn
//! writes) and record seals (content rot). The journal itself never
//! interprets a payload; the service decodes each recovered record once.
//!
//! Sync policy: [`SyncPolicy::Always`] (the default;
//! `PCKPT_JOURNAL_SYNC=always` in `pckptd`) issues
//! `sync_data` after every append — a killed *machine* loses at most
//! the in-flight cell. `off` leaves flushing to the OS — a killed
//! *process* still loses nothing (the bytes are in the page cache),
//! which is the failure mode the tests exercise.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use pckpt_core::fingerprint::fnv1a;
use pckpt_core::frames::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64, FRAME_VERSION};
use pckpt_core::Fingerprint;

/// Record magic ("PKJL" little-endian).
pub const REC_MAGIC: u32 = 0x4c4a_4b50;
/// Header record kind.
const KIND_HEADER: u8 = 0;
/// Cell record kind.
const KIND_CELL: u8 = 1;
/// Fixed record overhead: magic + kind + len + digest.
const REC_OVERHEAD: usize = 4 + 1 + 8 + 8;

/// When appended records reach the disk (`PCKPT_JOURNAL_SYNC`).
pub use pckpt_core::knobs::SyncPolicy;

/// An open, append-position journal for one campaign.
pub struct Journal {
    file: File,
    sync: SyncPolicy,
}

/// Cells recovered from an existing journal: survivor index → sealed
/// fold-record bytes. Later duplicates win (idempotent re-appends after
/// an ill-timed crash are harmless).
pub type Recovered = std::collections::BTreeMap<usize, Vec<u8>>;

fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(REC_OVERHEAD + payload.len());
    put_u32(&mut rec, REC_MAGIC);
    rec.push(kind);
    put_u64(&mut rec, payload.len() as u64);
    rec.extend_from_slice(payload);
    let digest = fnv1a(&rec);
    put_u64(&mut rec, digest);
    rec
}

/// Parses the record starting at `bytes[at..]`. Returns
/// `(kind, payload, next_offset)` or `None` when the bytes from `at`
/// do not form a complete, digest-valid record.
fn parse_record(bytes: &[u8], at: usize) -> Option<(u8, &[u8], usize)> {
    let rest = bytes.get(at..)?;
    if rest.len() < REC_OVERHEAD {
        return None;
    }
    let mut pos = 0usize;
    let magic = get_u32(rest, &mut pos).ok()?;
    if magic != REC_MAGIC {
        return None;
    }
    let kind = *rest.get(pos)?;
    pos += 1;
    let len = get_u64(rest, &mut pos).ok()? as usize;
    let body_end = pos.checked_add(len)?;
    if rest.len() < body_end.checked_add(8)? {
        return None;
    }
    let payload = &rest[pos..body_end];
    let mut dpos = body_end;
    let stored = get_u64(rest, &mut dpos).ok()?;
    if fnv1a(&rest[..body_end]) != stored {
        return None;
    }
    Some((kind, payload, at + body_end + 8))
}

fn header_payload(campaign_fp: Fingerprint, n_cells: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(2 + 8 + 8 + 8);
    put_u16(&mut p, FRAME_VERSION);
    put_u64(&mut p, campaign_fp.hi);
    put_u64(&mut p, campaign_fp.lo);
    put_u64(&mut p, n_cells as u64);
    p
}

fn header_matches(payload: &[u8], campaign_fp: Fingerprint, n_cells: usize) -> bool {
    let mut pos = 0usize;
    let ok = (|| -> Result<bool, String> {
        Ok(get_u16(payload, &mut pos)? == FRAME_VERSION
            && get_u64(payload, &mut pos)? == campaign_fp.hi
            && get_u64(payload, &mut pos)? == campaign_fp.lo
            && get_u64(payload, &mut pos)? == n_cells as u64)
    })();
    matches!(ok, Ok(true)) && pos == payload.len()
}

impl Journal {
    /// Opens (or creates) the journal for `campaign_fp` at `path` and
    /// recovers every valid cell record already on disk.
    ///
    /// The file is truncated to its longest valid record prefix, so a
    /// torn tail from a crash disappears and appending resumes from a
    /// clean boundary. A file whose header belongs to a different
    /// campaign (or is itself damaged) is restarted from scratch —
    /// recovery never mixes sweeps.
    pub fn open(
        path: &Path,
        campaign_fp: Fingerprint,
        n_cells: usize,
        sync: SyncPolicy,
    ) -> Result<(Journal, Recovered), String> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        let mut bytes = Vec::new();
        if let Ok(mut existing) = File::open(path) {
            existing
                .read_to_end(&mut bytes)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
        }

        let mut recovered = Recovered::new();
        let mut good_end = 0usize;
        if let Some((KIND_HEADER, payload, next)) = parse_record(&bytes, 0) {
            if header_matches(payload, campaign_fp, n_cells) {
                good_end = next;
                while let Some((kind, payload, next)) = parse_record(&bytes, good_end) {
                    if kind == KIND_CELL && payload.len() > 8 {
                        let mut pos = 0usize;
                        if let Ok(idx) = get_u64(payload, &mut pos) {
                            if (idx as usize) < n_cells {
                                recovered.insert(idx as usize, payload[pos..].to_vec());
                            }
                        }
                    }
                    good_end = next;
                }
            }
        }

        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        file.set_len(good_end as u64)
            .map_err(|e| format!("truncate {}: {e}", path.display()))?;
        file.seek(SeekFrom::End(0)).map_err(|e| e.to_string())?;

        let mut journal = Journal { file, sync };
        if good_end == 0 {
            journal.append_record(KIND_HEADER, &header_payload(campaign_fp, n_cells))?;
        }
        Ok((journal, recovered))
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), String> {
        let rec = encode_record(kind, payload);
        self.file
            .write_all(&rec)
            .map_err(|e| format!("journal append: {e}"))?;
        self.file.flush().map_err(|e| e.to_string())?;
        if self.sync == SyncPolicy::Always {
            self.file.sync_data().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Appends one completed cell (survivor index + its sealed record
    /// bytes).
    pub fn append_cell(&mut self, cell_idx: usize, record: &[u8]) -> Result<(), String> {
        let mut payload = Vec::with_capacity(8 + record.len());
        put_u64(&mut payload, cell_idx as u64);
        payload.extend_from_slice(record);
        self.append_record(KIND_CELL, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SCRATCH: AtomicU64 = AtomicU64::new(0);

    fn scratch_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pckpt-journal-test-{tag}-{}-{}.jnl",
            std::process::id(),
            SCRATCH.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn fp() -> Fingerprint {
        Fingerprint { hi: 0xAAAA, lo: 0x5555 }
    }

    #[test]
    fn append_then_recover() {
        let path = scratch_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, recovered) = Journal::open(&path, fp(), 4, SyncPolicy::Off).unwrap();
            assert!(recovered.is_empty());
            j.append_cell(0, b"cell-zero").unwrap();
            j.append_cell(2, b"cell-two").unwrap();
        }
        let (_, recovered) = Journal::open(&path, fp(), 4, SyncPolicy::Off).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[&0], b"cell-zero");
        assert_eq!(recovered[&2], b"cell-two");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = scratch_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, fp(), 4, SyncPolicy::Off).unwrap();
            j.append_cell(0, b"intact").unwrap();
            j.append_cell(1, b"doomed").unwrap();
        }
        // Tear the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut j, recovered) = Journal::open(&path, fp(), 4, SyncPolicy::Off).unwrap();
        assert_eq!(recovered.len(), 1, "torn record dropped");
        assert_eq!(recovered[&0], b"intact");
        // Appending after recovery lands on a clean boundary.
        j.append_cell(1, b"redone").unwrap();
        drop(j);
        let (_, recovered) = Journal::open(&path, fp(), 4, SyncPolicy::Off).unwrap();
        assert_eq!(recovered[&1], b"redone");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_campaign_restarts_journal() {
        let path = scratch_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, fp(), 4, SyncPolicy::Off).unwrap();
            j.append_cell(0, b"old-sweep").unwrap();
        }
        let other = Fingerprint { hi: 1, lo: 2 };
        let (_, recovered) = Journal::open(&path, other, 4, SyncPolicy::Off).unwrap();
        assert!(recovered.is_empty(), "foreign journal must not leak cells");
        // And the file now belongs to the new campaign.
        let (_, recovered) = Journal::open(&path, other, 4, SyncPolicy::Off).unwrap();
        assert!(recovered.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_at_any_offset_keeps_valid_prefix() {
        let path = scratch_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path, fp(), 8, SyncPolicy::Off).unwrap();
            for i in 0..5 {
                j.append_cell(i, format!("payload-{i}").as_bytes()).unwrap();
            }
        }
        let golden = std::fs::read(&path).unwrap();
        for offset in (0..golden.len()).step_by(7) {
            let mut damaged = golden.clone();
            damaged[offset] ^= 0xFF;
            std::fs::write(&path, &damaged).unwrap();
            let (_, recovered) = Journal::open(&path, fp(), 8, SyncPolicy::Off).unwrap();
            // Every recovered record must be one of the originals,
            // and recovery is a prefix: cell i present ⇒ cells < i
            // present (records were appended in index order).
            for (idx, payload) in &recovered {
                assert_eq!(payload.as_slice(), format!("payload-{idx}").as_bytes());
            }
            if let Some(max) = recovered.keys().max() {
                assert_eq!(recovered.len(), max + 1, "recovery must be a prefix");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
