//! Content-addressed cell store: sealed fold records on disk, keyed by
//! fingerprint.
//!
//! Layout under the cache directory (`PCKPT_CACHE_DIR`):
//!
//! ```text
//! <fp-hex32>.cell   one sealed fold record, named by its cell's fingerprint
//! index.log         one fingerprint hex per line, insertion order
//! ```
//!
//! The store is deliberately dumb: it never interprets the bytes
//! (callers validate via [`crate::cellframe::decode_fold_record`], so a
//! corrupt, truncated, stale-version or misplaced file degrades to a
//! cache miss, never a wrong answer), and it never fsyncs (durability
//! belongs to the sweep journal; the cache is a performance layer that
//! may lose recent entries on power cut). Writes go through a scratch
//! file plus rename, so concurrent daemons sharing a directory see
//! either the old state or a complete record. `index.log` only orders
//! eviction: when entries exceed `PCKPT_CACHE_MAX`, the oldest are
//! removed. An insert appends its one line; only an eviction rewrites
//! the file (scratch file plus rename), and re-putting a present entry
//! touches no file. A torn last line (a crash mid-append) is skipped on
//! load, and the next append first ends it, so it cannot swallow the
//! entry that follows.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use pckpt_core::Fingerprint;

/// Monotonic scratch-name counter (no wall clock in sim crates).
static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// The on-disk cell store. `dir = None` disables persistence (every
/// lookup misses, every put is a no-op) — the service still works via
/// single-flight and the journal.
pub struct CellStore {
    dir: Option<PathBuf>,
    max_entries: usize,
    index: Mutex<Index>,
}

/// The in-memory mirror of `index.log`.
#[derive(Default)]
struct Index {
    /// Insertion-ordered fingerprints.
    fps: Vec<Fingerprint>,
    /// Whether the file may end without a newline: a torn line, or an
    /// append that failed part-way.
    torn: bool,
}

impl CellStore {
    /// Opens (creating if needed) a store in `dir`, retaining at most
    /// `max_entries` cells.
    pub fn open(dir: Option<&Path>, max_entries: usize) -> Result<CellStore, String> {
        let Some(dir) = dir else {
            return Ok(CellStore {
                dir: None,
                max_entries,
                index: Mutex::new(Index::default()),
            });
        };
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut index = Index::default();
        let log = dir.join("index.log");
        if let Ok(text) = fs::read_to_string(&log) {
            for line in text.lines() {
                if let Some(fp) = Fingerprint::from_hex(line.trim()) {
                    if !index.fps.contains(&fp) {
                        index.fps.push(fp);
                    }
                }
            }
            index.torn = !text.is_empty() && !text.ends_with('\n');
        }
        Ok(CellStore {
            dir: Some(dir.to_path_buf()),
            max_entries,
            index: Mutex::new(index),
        })
    }

    /// The path a fingerprint's record lives at, if persistence is on.
    pub fn entry_path(&self, fp: Fingerprint) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.cell", fp.hex())))
    }

    /// Reads the raw record bytes for `fp`. Missing file (or disabled
    /// store) is a miss; callers must still validate the bytes.
    pub fn get(&self, fp: Fingerprint) -> Option<Vec<u8>> {
        fs::read(self.entry_path(fp)?).ok()
    }

    /// Persists sealed record bytes under `fp`, evicting the oldest
    /// entries beyond the cap. Already-present entries are left alone
    /// (content-addressed: same key ⇒ same bytes). An insert appends
    /// its line to `index.log`; an eviction rewrites the file.
    pub fn put(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), String> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let path = dir.join(format!("{}.cell", fp.hex()));
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        let indexed = index.fps.contains(&fp);
        if indexed && path.exists() {
            return Ok(());
        }
        let scratch = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SCRATCH.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&scratch, bytes).map_err(|e| format!("write {}: {e}", scratch.display()))?;
        fs::rename(&scratch, &path).map_err(|e| format!("rename {}: {e}", path.display()))?;
        if !indexed {
            index.fps.push(fp);
        }
        let mut evicted = false;
        while index.fps.len() > self.max_entries {
            let oldest = index.fps.remove(0);
            let victim = dir.join(format!("{}.cell", oldest.hex()));
            let _ = fs::remove_file(victim);
            evicted = true;
        }
        if evicted {
            self.rewrite_index(dir, &index.fps)?;
            index.torn = false;
        } else if !indexed {
            append_index(dir, fp, &mut index.torn)?;
        }
        Ok(())
    }

    fn rewrite_index(&self, dir: &Path, index: &[Fingerprint]) -> Result<(), String> {
        let log = dir.join("index.log");
        let scratch = dir.join(format!(
            ".tmp-index-{}-{}",
            std::process::id(),
            SCRATCH.fetch_add(1, Ordering::Relaxed)
        ));
        let mut out = Vec::with_capacity(index.len() * 33);
        for fp in index {
            out.write_all(fp.hex().as_bytes()).map_err(|e| e.to_string())?;
            out.push(b'\n');
        }
        fs::write(&scratch, &out).map_err(|e| format!("write {}: {e}", scratch.display()))?;
        fs::rename(&scratch, &log).map_err(|e| format!("rename {}: {e}", log.display()))?;
        Ok(())
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap_or_else(PoisonError::into_inner).fps.len()
    }

    /// Whether the store currently indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Appends `fp`'s line to `index.log` in one write, first ending a torn
/// last line (`torn`) so it cannot swallow the entry.
fn append_index(dir: &Path, fp: Fingerprint, torn: &mut bool) -> Result<(), String> {
    let log = dir.join("index.log");
    let mut line = String::with_capacity(34);
    if *torn {
        line.push('\n');
    }
    line.push_str(&fp.hex());
    line.push('\n');
    // Until the write is known whole, the file may end mid-line.
    *torn = true;
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("append {}: {e}", log.display()))?;
    *torn = false;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pckpt-cache-test-{tag}-{}-{}",
            std::process::id(),
            SCRATCH.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint { hi: n, lo: !n }
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = scratch_dir("roundtrip");
        let store = CellStore::open(Some(&dir), 8).unwrap();
        assert!(store.get(fp(1)).is_none());
        store.put(fp(1), b"alpha").unwrap();
        store.put(fp(2), b"beta").unwrap();
        assert_eq!(store.get(fp(1)).as_deref(), Some(&b"alpha"[..]));
        // A fresh handle on the same directory sees both entries.
        let again = CellStore::open(Some(&dir), 8).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.get(fp(2)).as_deref(), Some(&b"beta"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicts_oldest_beyond_cap() {
        let dir = scratch_dir("evict");
        let store = CellStore::open(Some(&dir), 2).unwrap();
        store.put(fp(1), b"a").unwrap();
        store.put(fp(2), b"b").unwrap();
        store.put(fp(3), b"c").unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(fp(1)).is_none(), "oldest entry evicted");
        assert!(store.get(fp(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The fingerprints `store` indexes, oldest first.
    fn order(store: &CellStore) -> Vec<Fingerprint> {
        store.index.lock().unwrap().fps.clone()
    }

    #[test]
    fn re_putting_an_indexed_entry_leaves_the_index_file_alone() {
        use std::os::unix::fs::MetadataExt;
        let dir = scratch_dir("reput");
        let store = CellStore::open(Some(&dir), 8).unwrap();
        store.put(fp(1), b"a").unwrap();
        let stat = || {
            let m = fs::metadata(dir.join("index.log")).unwrap();
            (m.ino(), m.len())
        };
        let before = stat();
        // A rewrite renames a scratch file over index.log: a new inode.
        store.put(fp(1), b"a").unwrap();
        assert_eq!(stat(), before, "second put of the same key touched index.log");
        // An insert appends its one 33-byte line in place.
        store.put(fp(2), b"b").unwrap();
        assert_eq!(stat(), (before.0, before.1 + 33));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evictions_rewrite_the_index_in_order_and_reopen_keeps_it() {
        let dir = scratch_dir("reopen-evict");
        let store = CellStore::open(Some(&dir), 2).unwrap();
        for n in 1..=4 {
            store.put(fp(n), b"x").unwrap();
        }
        assert_eq!(order(&store), [fp(3), fp(4)]);
        let log = fs::read_to_string(dir.join("index.log")).unwrap();
        assert_eq!(log, format!("{}\n{}\n", fp(3).hex(), fp(4).hex()));
        // A reopened store evicts in the same order, and its appends
        // land after the rewritten lines.
        let again = CellStore::open(Some(&dir), 3).unwrap();
        assert_eq!(order(&again), [fp(3), fp(4)]);
        again.put(fp(5), b"x").unwrap();
        again.put(fp(6), b"x").unwrap();
        assert_eq!(order(&again), [fp(4), fp(5), fp(6)]);
        assert!(again.get(fp(3)).is_none() && again.get(fp(4)).is_some());
        let third = CellStore::open(Some(&dir), 3).unwrap();
        assert_eq!(order(&third), [fp(4), fp(5), fp(6)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_last_line_does_not_swallow_the_next_entry() {
        let dir = scratch_dir("torn");
        let store = CellStore::open(Some(&dir), 8).unwrap();
        store.put(fp(1), b"a").unwrap();
        // A crash mid-append leaves half a line.
        let log = dir.join("index.log");
        let mut f = fs::OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&fp(2).hex().as_bytes()[..10]).unwrap();
        drop(f);
        let again = CellStore::open(Some(&dir), 8).unwrap();
        assert_eq!(order(&again), [fp(1)], "the torn line is skipped");
        again.put(fp(3), b"c").unwrap();
        let third = CellStore::open(Some(&dir), 8).unwrap();
        assert_eq!(order(&third), [fp(1), fp(3)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = CellStore::open(None, 8).unwrap();
        store.put(fp(1), b"a").unwrap();
        assert!(store.get(fp(1)).is_none());
        assert!(store.is_empty());
    }
}
