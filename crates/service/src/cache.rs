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
//! removed. It is rewritten only when it changes (an insert or an
//! eviction), so re-putting a present entry touches no file.

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
    /// Insertion-ordered fingerprints, mirroring `index.log`.
    index: Mutex<Vec<Fingerprint>>,
}

impl CellStore {
    /// Opens (creating if needed) a store in `dir`, retaining at most
    /// `max_entries` cells.
    pub fn open(dir: Option<&Path>, max_entries: usize) -> Result<CellStore, String> {
        let Some(dir) = dir else {
            return Ok(CellStore {
                dir: None,
                max_entries,
                index: Mutex::new(Vec::new()),
            });
        };
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut index = Vec::new();
        let log = dir.join("index.log");
        if let Ok(text) = fs::read_to_string(&log) {
            for line in text.lines() {
                if let Some(fp) = Fingerprint::from_hex(line.trim()) {
                    if !index.contains(&fp) {
                        index.push(fp);
                    }
                }
            }
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
    /// (content-addressed: same key ⇒ same bytes), and `index.log` is
    /// rewritten only when an insert or an eviction changed it.
    pub fn put(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), String> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let path = dir.join(format!("{}.cell", fp.hex()));
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        let indexed = index.contains(&fp);
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
        let mut changed = !indexed;
        if changed {
            index.push(fp);
        }
        while index.len() > self.max_entries {
            let oldest = index.remove(0);
            let victim = dir.join(format!("{}.cell", oldest.hex()));
            let _ = fs::remove_file(victim);
            changed = true;
        }
        if changed {
            self.rewrite_index(dir, &index)?;
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
        self.index.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the store currently indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
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

    #[test]
    fn re_putting_an_indexed_entry_leaves_the_index_file_alone() {
        use std::os::unix::fs::MetadataExt;
        let dir = scratch_dir("reput");
        let store = CellStore::open(Some(&dir), 8).unwrap();
        store.put(fp(1), b"a").unwrap();
        let inode = || fs::metadata(dir.join("index.log")).unwrap().ino();
        let before = inode();
        // A rewrite renames a scratch file over index.log: a new inode.
        store.put(fp(1), b"a").unwrap();
        assert_eq!(inode(), before, "second put of the same key rewrote index.log");
        // An insert does rewrite it.
        store.put(fp(2), b"b").unwrap();
        assert_ne!(inode(), before);
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
