//! On-disk content-addressed result store.
//!
//! The in-memory response cache dies with the process; this store is
//! what makes a *restarted* server warm. Each entry is one file whose
//! name is the FNV-1a hash of the canonical request encoding and whose
//! content is the canonical string (first line) followed by the encoded
//! report. The embedded canonical string makes reads exact: a 64-bit
//! filename collision can overwrite a neighbour's slot, but it can
//! never alias a *result* — the verify-on-read check turns a collision
//! into a miss, not a wrong answer.
//!
//! Design points:
//!
//! * **Crash safety** — writes go to a temp file in the same directory
//!   and are published with an atomic rename; a crash mid-write leaves
//!   a stale temp (swept on the next open), never a torn entry.
//! * **One-probe misses** — an in-memory admission index (key-hash →
//!   size + last-use clock) is built from a metadata-only directory
//!   scan at open. A cold miss is a `HashMap` probe; the disk is only
//!   touched for hits and inserts.
//! * **Byte-capped reclamation** — resident bytes are accounted against
//!   a cap; inserts that exceed it evict least-recently-used entries
//!   (file unlink + index removal). The clock is logical (bumped on hit
//!   and insert) and seeded from file mtimes at open so reclamation
//!   order survives restarts.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tpharness::wire::fnv1a;

/// Default byte cap for the on-disk store (plenty for ~10⁵ reports).
pub const DEFAULT_STORE_CAP_BYTES: u64 = 256 * 1024 * 1024;

/// Entry file suffix (temp files use `.tmp` and are swept at open).
const ENTRY_SUFFIX: &str = ".rsp";

/// Counters and gauges for `STATS`.
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Entries currently indexed (and resident on disk).
    pub entries: u64,
    /// Bytes currently resident on disk.
    pub resident_bytes: u64,
    /// Probes answered from disk (canonical string verified).
    pub hits: u64,
    /// Probes the admission index rejected without touching disk.
    pub misses: u64,
    /// Entries written (temp + rename publishes).
    pub inserts: u64,
    /// Entries reclaimed to stay under the byte cap.
    pub evictions: u64,
    /// Key-hash collisions detected by verify-on-read (served as miss).
    pub collisions: u64,
    /// Unreadable/corrupt entries dropped from the index.
    pub load_errors: u64,
}

struct Entry {
    bytes: u64,
    last_used: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    clock: u64,
    resident: u64,
    stats: StoreStats,
}

/// A content-addressed, byte-capped result store rooted at one
/// directory. All methods are `&self`; one internal mutex serializes
/// index updates (file I/O for an entry happens under it, which also
/// keeps eviction from unlinking a file mid-read).
pub struct ResultStore {
    dir: PathBuf,
    cap: u64,
    inner: Mutex<Inner>,
}

fn key_of(canonical: &str) -> u64 {
    fnv1a(canonical.as_bytes())
}

fn file_name(key: u64) -> String {
    format!("{key:016x}{ENTRY_SUFFIX}")
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`, sweeping
    /// leftover temp files and indexing existing entries from metadata
    /// alone (no entry is read until it is probed).
    ///
    /// # Errors
    /// Directory creation or scan failures.
    pub fn open(dir: &Path, cap_bytes: u64) -> io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        // Collect (key, bytes, mtime) then seed the LRU clock in mtime
        // order so reclamation order survives restarts.
        let mut found: Vec<(u64, u64, std::time::SystemTime)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(hex) = name.strip_suffix(ENTRY_SUFFIX) else {
                continue;
            };
            let Ok(key) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((key, meta.len(), mtime));
        }
        found.sort_by_key(|&(_, _, mtime)| mtime);
        let mut inner = Inner {
            entries: HashMap::with_capacity(found.len()),
            clock: 0,
            resident: 0,
            stats: StoreStats::default(),
        };
        for (key, bytes, _) in found {
            inner.clock += 1;
            inner.resident += bytes;
            inner.entries.insert(
                key,
                Entry {
                    bytes,
                    last_used: inner.clock,
                },
            );
        }
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            cap: cap_bytes,
            inner: Mutex::new(inner),
        })
    }

    /// Probes for the report addressed by `canonical`. A key absent
    /// from the admission index returns `None` without any disk I/O;
    /// a present key is read and verified against the embedded
    /// canonical string before being served.
    pub fn get(&self, canonical: &str) -> Option<String> {
        self.get_checked(canonical, |_| true)
    }

    /// [`get`](Self::get) for a caller that can tell a damaged body: one
    /// that fails `valid` is dropped as a load error, like an unreadable
    /// file, and the probe is a miss.
    pub(crate) fn get_checked(
        &self,
        canonical: &str,
        valid: impl FnOnce(&str) -> bool,
    ) -> Option<String> {
        let key = key_of(canonical);
        let mut inner = self.inner.lock().expect("store lock");
        if !inner.entries.contains_key(&key) {
            inner.stats.misses += 1;
            return None;
        }
        let content = fs::read_to_string(self.dir.join(file_name(key))).ok();
        match content.as_deref().and_then(|c| c.split_once('\n')) {
            Some((stored_canonical, _)) if stored_canonical != canonical => {
                // A different canonical owns this hash slot.
                inner.stats.collisions += 1;
                inner.stats.misses += 1;
                None
            }
            Some((_, report)) if valid(report) => {
                inner.clock += 1;
                let clock = inner.clock;
                inner.entries.get_mut(&key).expect("probed entry").last_used = clock;
                inner.stats.hits += 1;
                Some(report.to_string())
            }
            _ => {
                self.drop_entry(&mut inner, key);
                inner.stats.load_errors += 1;
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Publishes `report` under `canonical`: temp write + fsync +
    /// atomic rename, then LRU reclamation until resident bytes fit
    /// the cap (the entry just written is never its own victim).
    ///
    /// # Errors
    /// File creation, write, sync, or rename failures (the index is
    /// left unchanged on error).
    pub fn put(&self, canonical: &str, report: &str) -> io::Result<()> {
        let key = key_of(canonical);
        let final_path = self.dir.join(file_name(key));
        let tmp_path = self.dir.join(format!("{key:016x}.tmp"));
        let bytes;
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(canonical.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(report.as_bytes())?;
            f.sync_all()?;
            bytes = canonical.len() as u64 + 1 + report.len() as u64;
        }
        let mut inner = self.inner.lock().expect("store lock");
        fs::rename(&tmp_path, &final_path)?;
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.insert(
            key,
            Entry {
                bytes,
                last_used: clock,
            },
        ) {
            inner.resident -= old.bytes;
        }
        inner.resident += bytes;
        inner.stats.inserts += 1;
        while inner.resident > self.cap {
            let victim = inner
                .entries
                .iter()
                .filter(|&(&k, _)| k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            self.drop_entry(&mut inner, victim);
            inner.stats.evictions += 1;
        }
        Ok(())
    }

    fn drop_entry(&self, inner: &mut Inner, key: u64) {
        if let Some(e) = inner.entries.remove(&key) {
            inner.resident -= e.bytes;
            let _ = fs::remove_file(self.dir.join(file_name(key)));
        }
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        let mut s = inner.stats.clone();
        s.entries = inner.entries.len() as u64;
        s.resident_bytes = inner.resident;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tpserve-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_restart_preserve_bytes() {
        let dir = tmp_dir("roundtrip");
        let canonical = r#"{"workload":"gap.bfs","scale":"test"}"#;
        let report = r#"{"ipc":1.25,"accesses":1000}"#;
        {
            let store = ResultStore::open(&dir, DEFAULT_STORE_CAP_BYTES).unwrap();
            assert_eq!(store.get(canonical), None, "cold probe misses in memory");
            store.put(canonical, report).unwrap();
            assert_eq!(store.get(canonical).as_deref(), Some(report));
        }
        // A fresh handle over the same directory (a "restart") serves
        // the same bytes from its metadata-only index.
        let store = ResultStore::open(&dir, DEFAULT_STORE_CAP_BYTES).unwrap();
        assert_eq!(store.get(canonical).as_deref(), Some(report));
        let s = store.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misses_cost_one_probe_and_collisions_never_alias() {
        let dir = tmp_dir("collide");
        let store = ResultStore::open(&dir, DEFAULT_STORE_CAP_BYTES).unwrap();
        store.put("req-a", "report-a").unwrap();
        assert_eq!(store.get("req-b"), None);
        assert_eq!(store.stats().misses, 1);

        // Forge a collision: write req-a's slot with a different owner.
        let key = key_of("req-a");
        fs::write(dir.join(file_name(key)), "someone-else\nother").unwrap();
        assert_eq!(store.get("req-a"), None, "verify-on-read rejects the alias");
        assert_eq!(store.stats().collisions, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_cap_reclaims_least_recently_used() {
        let dir = tmp_dir("cap");
        // Each entry is ~60 bytes; cap at ~2.5 entries.
        let store = ResultStore::open(&dir, 150).unwrap();
        store
            .put("request-number-one.....", "report-one.....................")
            .unwrap();
        store
            .put("request-number-two.....", "report-two.....................")
            .unwrap();
        // Touch one so three is older than it when the cap trips.
        assert!(store.get("request-number-one.....").is_some());
        store
            .put("request-number-three...", "report-three...................")
            .unwrap();
        let s = store.stats();
        assert!(s.evictions >= 1, "cap must evict: {s:?}");
        assert!(s.resident_bytes <= 150);
        // The just-inserted entry and the recently-used one survive.
        assert!(store.get("request-number-three...").is_some());
        assert!(store.get("request-number-one.....").is_some());
        assert_eq!(store.get("request-number-two....."), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_files_are_swept_at_open() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("deadbeefdeadbeef.tmp"), "torn write").unwrap();
        let store = ResultStore::open(&dir, DEFAULT_STORE_CAP_BYTES).unwrap();
        assert!(!dir.join("deadbeefdeadbeef.tmp").exists());
        assert_eq!(store.stats().entries, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
