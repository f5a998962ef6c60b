//! Content-addressed, self-healing result cache.
//!
//! Each finished cell is stored under `target/results/cache/` in a file
//! named by the FNV-64 hash of its content key ([`crate::CellKind::key`],
//! the cell's derived `Debug` text) prefixed with the source hash: the
//! FNV-64 of every `.rs` file under `crates/*/src`, computed by this
//! crate's build script. The full key is stored alongside the result and
//! verified on load, so a hash collision degrades to a miss, never a wrong
//! answer. Because the key encodes *all* cell inputs and the source the
//! binary was built from:
//!
//! * an edit to any simulator source makes every entry a miss, so a cached
//!   result can never be older than the code that would recompute it,
//! * an interrupted grid resumes exactly where it stopped (finished cells
//!   load, unfinished ones recompute), and
//! * specs sharing cells share results — `fig3` re-reads the grid `fig2`
//!   measured.
//!
//! The store is *self-healing*: every entry wraps its body in a checksum
//! envelope (`{"sum": <fnv64 of body text>, "body": {...}}`). A torn,
//! truncated, or bit-flipped entry fails the checksum on load; the file is
//! quarantined (renamed to `.json.corrupt`) so the poison cannot survive
//! into the next run, and the load reports [`Load::Healed`] so the engine
//! recomputes and rewrites the entry. A well-formed entry whose key text
//! differs is a plain [`Load::Miss`] — that is a hash collision doing its
//! job, not corruption.
//!
//! Stores are write-tmp-then-rename with a per-process tmp name, so
//! concurrent coordinators (or a coordinator racing its own workers) can
//! never interleave partial writes into the final path.

use std::path::{Path, PathBuf};

use htm_analyze::Json;

use crate::cell::CellResult;

include!("fnv.rs");
include!(concat!(env!("OUT_DIR"), "/source_hash.rs"));

/// The key text an entry for `key` is stored and looked up under: the
/// build's `SOURCE_HASH`, then `key`.
fn versioned(key: &str) -> String {
    format!("{SOURCE_HASH:016x}|{key}")
}

/// What a cache load found.
#[derive(Clone, Debug, PartialEq)]
pub enum Load {
    /// A valid entry for this key.
    Hit(CellResult),
    /// No entry (includes hash collisions: a valid entry for a different
    /// key).
    Miss,
    /// A corrupt entry was detected, quarantined, and must be regenerated;
    /// the payload describes the damage.
    Healed(String),
}

/// A directory of cached cell results.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
    enabled: bool,
}

impl ResultCache {
    /// A cache rooted at `dir`; when disabled, loads miss and stores are
    /// skipped (`--no-cache`).
    pub fn new(dir: impl Into<PathBuf>, enabled: bool) -> ResultCache {
        ResultCache { dir: dir.into(), enabled }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives at (exposed for the chaos
    /// harness, which corrupts entries deliberately).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv64(versioned(key))))
    }

    /// Loads the result cached under `key`. Backwards-compatible wrapper
    /// over [`ResultCache::load_checked`] that folds healing into a miss.
    pub fn load(&self, key: &str) -> Option<CellResult> {
        match self.load_checked(key) {
            Load::Hit(r) => Some(r),
            Load::Miss | Load::Healed(_) => None,
        }
    }

    /// Loads the result cached under `key`, distinguishing a clean miss
    /// from a corrupt entry. Corrupt entries are quarantined on the spot
    /// (renamed to `.json.corrupt`, best-effort removal if the rename
    /// fails) so they cannot poison this or any later run.
    pub fn load_checked(&self, key: &str) -> Load {
        if !self.enabled {
            return Load::Miss;
        }
        let path = self.path_for(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Load::Miss,
            Err(e) => return self.quarantine(&path, &format!("unreadable entry: {e}")),
        };
        let Ok(envelope) = Json::parse(&text) else {
            return self.quarantine(&path, "entry is not valid JSON (torn or truncated write)");
        };
        let (Some(sum), Some(body)) =
            (envelope.get("sum").and_then(Json::as_str), envelope.get("body"))
        else {
            return self.quarantine(&path, "entry missing checksum envelope");
        };
        let body_text = body.to_string();
        let expect = format!("{:016x}", fnv64(&body_text));
        if sum != expect {
            return self.quarantine(
                &path,
                &format!("checksum mismatch (stored {sum}, computed {expect}): bit rot"),
            );
        }
        // Past this point the entry is *intact*; a different key is a hash
        // collision, which is a plain miss, never corruption.
        let stored_key = body.get("key").and_then(Json::as_str);
        if stored_key != Some(versioned(key).as_str()) {
            return Load::Miss;
        }
        match body.get("result").map(CellResult::from_json) {
            Some(Ok(r)) => Load::Hit(r),
            _ => self.quarantine(&path, "checksummed body fails result decode"),
        }
    }

    fn quarantine(&self, path: &Path, why: &str) -> Load {
        let dest = path.with_extension("json.corrupt");
        if std::fs::rename(path, &dest).is_err() {
            // Rename across a broken filesystem can fail; removal is the
            // fallback that still un-poisons the next load.
            let _ = std::fs::remove_file(path);
        }
        Load::Healed(format!("{}: {why}", path.display()))
    }

    /// Stores `result` under `key`. Best-effort: a full disk or read-only
    /// tree degrades to recomputation next run, and the warning is printed
    /// once per run by the engine.
    pub fn store(&self, key: &str, id: &str, result: &CellResult) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)?;
        let body = Json::Obj(vec![
            ("key".into(), Json::str(versioned(key))),
            ("id".into(), Json::str(id)),
            ("result".into(), result.to_json()),
        ]);
        let body_text = body.to_string();
        let envelope = Json::Obj(vec![
            ("sum".into(), Json::str(format!("{:016x}", fnv64(&body_text)))),
            ("body".into(), body),
        ]);
        // Write-then-rename so a cell finishing as the process dies never
        // leaves a truncated entry at the final path; the tmp name carries
        // the pid so concurrent coordinators never share a tmp file.
        let path = self.path_for(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, envelope.to_string())?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(name: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("htm-exp-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(dir, true)
    }

    fn sample() -> CellResult {
        let mut r = CellResult::new();
        r.put("speedup", 1.2345678901234567);
        r.note("sum", "42".into());
        r
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64("stamp|a"), fnv64("stamp|b"));
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = temp_cache("roundtrip");
        let r = sample();
        cache.store("stamp|x", "cell-x", &r).unwrap();
        assert_eq!(cache.load("stamp|x"), Some(r.clone()));
        assert_eq!(cache.load_checked("stamp|x"), Load::Hit(r));
        assert_eq!(cache.load("stamp|y"), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_mismatch_in_file_is_a_miss_not_corruption() {
        let cache = temp_cache("mismatch");
        cache.store("key-a", "a", &sample()).unwrap();
        // Simulate a hash collision: move a's entry to where b's would live.
        std::fs::rename(cache.path_for("key-a"), cache.path_for("key-b")).unwrap();
        assert_eq!(cache.load_checked("key-b"), Load::Miss);
        // The intact entry must NOT have been quarantined by the miss.
        assert!(cache.path_for("key-b").exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_heals_to_quarantine() {
        let cache = temp_cache("truncated");
        cache.store("k", "id", &sample()).unwrap();
        let path = cache.path_for("k");
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        match cache.load_checked("k") {
            Load::Healed(why) => assert!(why.contains("torn"), "unexpected cause: {why}"),
            other => panic!("truncated entry must heal, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt entry must leave the load path");
        assert!(path.with_extension("json.corrupt").exists(), "and be quarantined");
        // The next load is a clean miss; a re-store fully recovers.
        assert_eq!(cache.load_checked("k"), Load::Miss);
        cache.store("k", "id", &sample()).unwrap();
        assert_eq!(cache.load("k"), Some(sample()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bit_flip_fails_checksum_and_heals() {
        let cache = temp_cache("bitflip");
        cache.store("k", "id", &sample()).unwrap();
        let path = cache.path_for("k");
        // Flip one digit inside the numeric payload: still valid JSON, so
        // only the checksum can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("1.234", "1.334", 1);
        assert_ne!(text, flipped, "test must actually flip a digit");
        std::fs::write(&path, flipped).unwrap();
        match cache.load_checked("k") {
            Load::Healed(why) => assert!(why.contains("checksum"), "unexpected cause: {why}"),
            other => panic!("bit flip must heal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn old_version_entry_is_a_miss_not_a_hit() {
        let cache = temp_cache("oldversion");
        // Hand-craft stale entries at the exact path this build hashes "k"
        // to: intact checksum envelope, stale key text. The first is "k"
        // under the earlier hand-bumped prefix (a version tag and the
        // run-counter schema hash); the second is "k" under another build's
        // source hash. Both must miss (and recompute), and an intact stale
        // entry is not corruption, so it must not be quarantined either.
        std::fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.path_for("k");
        let schema = fnv64(htm_runtime::ThreadStats::COUNTERS.join(","));
        let stale = [format!("v5.{schema:016x}|k"), format!("{:016x}|k", SOURCE_HASH ^ 1)];
        for stale in stale {
            let body = Json::Obj(vec![
                ("key".into(), Json::str(stale.as_str())),
                ("id".into(), Json::str("id")),
                ("result".into(), sample().to_json()),
            ]);
            let body_text = body.to_string();
            let envelope = Json::Obj(vec![
                ("sum".into(), Json::str(format!("{:016x}", fnv64(&body_text)))),
                ("body".into(), body),
            ]);
            std::fs::write(&path, envelope.to_string()).unwrap();
            assert_eq!(cache.load_checked("k"), Load::Miss, "{stale}");
            assert!(path.exists(), "stale-but-intact entries are not quarantined");
        }
        // A fresh store overwrites it and hits under this build's hash.
        cache.store("k", "id", &sample()).unwrap();
        assert_eq!(cache.load("k"), Some(sample()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_envelope_heals() {
        let cache = temp_cache("envelope");
        cache.store("k", "id", &sample()).unwrap();
        let path = cache.path_for("k");
        std::fs::write(&path, "{\"key\":\"v3|k\",\"result\":{}}").unwrap();
        assert!(matches!(cache.load_checked("k"), Load::Healed(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = temp_cache("disabled");
        let enabled = ResultCache::new(cache.dir().to_path_buf(), true);
        let r = sample();
        enabled.store("k", "id", &r).unwrap();
        let disabled = ResultCache::new(cache.dir().to_path_buf(), false);
        assert_eq!(disabled.load("k"), None);
        assert_eq!(disabled.load_checked("k"), Load::Miss);
        disabled.store("k2", "id", &r).unwrap();
        assert_eq!(enabled.load("k2"), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
