//! The content-addressed result cache.
//!
//! Expensive stage outputs (ensemble statistics, study cells, fabric
//! surveys) are memoized to `target/cache/` keyed by a content hash of
//! the stage's full configuration — the same FNV-1a hash the telemetry
//! [`RunManifest`](selfheal_telemetry::RunManifest) stamps into run
//! records, so a manifest's `config_hash` and the cache entries it hit
//! are directly correlatable.
//!
//! # Invalidation
//!
//! Three independent mechanisms, all explicit:
//!
//! 1. **Key content**: the key string must encode *every* input that
//!    affects the output (parameters, seed, population size, code-level
//!    knobs). Different content → different hash → different file.
//! 2. **Namespace version**: each call site passes a `version` bumped
//!    whenever the *computation itself* changes meaning (model fix,
//!    output schema change). Old entries are simply never read again.
//! 3. **Deletion**: the cache lives under `target/`, so `cargo clean`
//!    (or removing `target/cache/`) wipes it wholesale.
//!
//! Entries verify their stored namespace/version/key on read; a hash
//! collision or truncated file degrades to a miss, never a wrong hit.

use std::io::{BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use selfheal_telemetry::{self as telemetry, json::Json, manifest::fnv1a};

/// Bump to orphan every existing cache entry at once (format changes).
const CACHE_FORMAT: u32 = 1;

/// Process-wide cache switch (the `--no-cache` flag lands here).
static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all [`ResultCache`] reads *and* writes
/// process-wide. Disabled caches report [`CacheOutcome::Disabled`] and
/// always recompute.
pub fn set_cache_enabled(enabled: bool) {
    CACHE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether caching is currently enabled process-wide.
#[must_use]
pub fn cache_enabled() -> bool {
    CACHE_ENABLED.load(Ordering::Relaxed)
}

/// A value that can round-trip through the cache's JSON file format.
///
/// The vendored `serde` stand-in generates no code and the workspace has
/// no `serde_json`, so cache payloads serialize via the telemetry
/// [`Json`] value instead of derive macros. `from_cache_json` returning `None` (schema drift,
/// hand-edited file) degrades to a cache miss.
pub trait CacheRecord: Sized {
    /// Serializes the value into a JSON payload.
    fn to_cache_json(&self) -> Json;
    /// Rebuilds the value from a JSON payload, or `None` if the payload
    /// does not match the expected schema.
    fn from_cache_json(json: &Json) -> Option<Self>;
}

/// What [`ResultCache::get_or_compute`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was loaded from a verified cache entry.
    Hit,
    /// The value was computed and (best-effort) stored.
    Miss,
    /// Caching is off (globally, by env, or no cache root); computed.
    Disabled,
}

/// A content-addressed, versioned, on-disk memo table.
///
/// # Examples
///
/// ```no_run
/// use selfheal_runtime::{ResultCache, CacheRecord};
/// use selfheal_telemetry::json::Json;
///
/// struct Answer(f64);
/// impl CacheRecord for Answer {
///     fn to_cache_json(&self) -> Json { Json::Number(self.0) }
///     fn from_cache_json(json: &Json) -> Option<Self> {
///         json.as_f64().map(Answer)
///     }
/// }
///
/// let cache = ResultCache::standard();
/// let (answer, outcome) = cache.get_or_compute("demo", 1, "n=42", || Answer(42.0));
/// ```
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: Option<PathBuf>,
}

impl ResultCache {
    /// The standard process cache at `target/cache/` (relative to the
    /// working directory). Honors `SELFHEAL_CACHE=off` by constructing
    /// a disabled cache.
    #[must_use]
    pub fn standard() -> ResultCache {
        if std::env::var("SELFHEAL_CACHE").is_ok_and(|v| v == "off" || v == "0") {
            return ResultCache::disabled();
        }
        ResultCache::at(Path::new("target").join("cache"))
    }

    /// A cache rooted at `root` (tests point this at a temp dir).
    #[must_use]
    pub fn at(root: PathBuf) -> ResultCache {
        ResultCache { root: Some(root) }
    }

    /// A cache that never hits and never writes.
    #[must_use]
    pub fn disabled() -> ResultCache {
        ResultCache { root: None }
    }

    /// Whether this cache instance can hit at all right now.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.root.is_some() && cache_enabled()
    }

    /// Returns the cached value for `(namespace, version, key)` or runs
    /// `compute`, storing its result. The `key` string must encode every
    /// input the computation depends on; `version` is the call site's
    /// computation version (bump on semantic change).
    pub fn get_or_compute<T: CacheRecord>(
        &self,
        namespace: &str,
        version: u32,
        key: &str,
        compute: impl FnOnce() -> T,
    ) -> (T, CacheOutcome) {
        // analyzer: trust(io): read-time key verification makes a cache
        // hit bit-exact with recomputation, so disk state cannot change
        // what callers observe — only how fast they observe it.
        if !self.is_active() {
            return (compute(), CacheOutcome::Disabled);
        }
        let path = self.entry_path(namespace, version, key);
        if let Some(value) = self.read_entry(&path, namespace, version, key) {
            if telemetry::metrics::enabled() {
                telemetry::metrics::counter_add("runtime.cache.hits", 1.0);
            }
            telemetry::event!("runtime.cache.hit", namespace = namespace);
            return (value, CacheOutcome::Hit);
        }
        let value = compute();
        let _ = self.write_entry(&path, namespace, version, key, &value);
        if telemetry::metrics::enabled() {
            telemetry::metrics::counter_add("runtime.cache.misses", 1.0);
        }
        (value, CacheOutcome::Miss)
    }

    /// Stores `value` under `(namespace, version, key)` unconditionally,
    /// overwriting any previous entry at that key.
    ///
    /// Unlike [`ResultCache::get_or_compute`] — a memo table for *pure*
    /// recomputable results — `store_record`/[`load_record`](ResultCache::load_record) make the
    /// cache usable as an explicit checkpoint store: the fleet daemon
    /// persists epoch snapshots whose content depends on the request
    /// history, not on the key alone, so the caller owns the
    /// write-then-read protocol. The write is atomic (sibling temp file
    /// + rename) and best-effort, exactly like memoized writes.
    ///
    /// Returns the bytes of the published entry, or `None` when the
    /// cache is disabled or the write failed.
    pub fn store_record<T: CacheRecord>(
        &self,
        namespace: &str,
        version: u32,
        key: &str,
        value: &T,
    ) -> Option<u64> {
        if !self.is_active() {
            return None;
        }
        let path = self.entry_path(namespace, version, key);
        self.write_entry(&path, namespace, version, key, value)
    }

    /// Reads the entry stored under `(namespace, version, key)`, or
    /// `None` when it is absent, corrupt, or fails read-time key
    /// verification. Never computes anything.
    #[must_use]
    pub fn load_record<T: CacheRecord>(&self, namespace: &str, version: u32, key: &str) -> Option<T> {
        if !self.is_active() {
            return None;
        }
        let path = self.entry_path(namespace, version, key);
        self.read_entry(&path, namespace, version, key)
    }

    /// The on-disk location for an entry (exposed for tests/tools).
    #[must_use]
    pub fn entry_path(&self, namespace: &str, version: u32, key: &str) -> PathBuf {
        let root = self.root.clone().unwrap_or_else(|| PathBuf::from("target/cache"));
        let hash = fnv1a(key.as_bytes());
        root.join(namespace)
            .join(format!("f{CACHE_FORMAT}-v{version}-{hash:016x}.json"))
    }

    fn read_entry<T: CacheRecord>(
        &self,
        path: &Path,
        namespace: &str,
        version: u32,
        key: &str,
    ) -> Option<T> {
        // The text is dropped as soon as it is parsed: a checkpoint is
        // megabytes, and the payload decode below allocates its own copy.
        let doc = telemetry::json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
        // Verify identity fields: an FNV collision or stale file format
        // must degrade to a miss, not deserialize someone else's payload.
        if doc.get("namespace").and_then(Json::as_str) != Some(namespace) {
            return None;
        }
        if doc.get("version").and_then(Json::as_f64) != Some(f64::from(version)) {
            return None;
        }
        if doc.get("key").and_then(Json::as_str) != Some(key) {
            return None;
        }
        T::from_cache_json(doc.get("payload")?)
    }

    /// Best-effort write: an unwritable cache directory (read-only CI,
    /// full disk) silently degrades to compute-every-time. Returns the
    /// bytes published, `None` when nothing was.
    fn write_entry<T: CacheRecord>(
        &self,
        path: &Path,
        namespace: &str,
        version: u32,
        key: &str,
        value: &T,
    ) -> Option<u64> {
        let doc = Json::object(vec![
            ("namespace".to_string(), Json::String(namespace.to_string())),
            ("version".to_string(), Json::Number(f64::from(version))),
            ("key".to_string(), Json::String(key.to_string())),
            ("payload".to_string(), value.to_cache_json()),
        ]);
        let dir = path.parent()?;
        std::fs::create_dir_all(dir).ok()?;
        // Atomic publish: stream the document into a sibling temp file,
        // then rename. A concurrent writer computing the same key writes
        // identical bytes, so last-rename-wins is harmless. The bytes are
        // exactly `doc.render_pretty()`, never held in memory whole; the
        // file offset after the flush is their count.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = std::fs::File::create(&tmp).and_then(|file| {
            let mut out = BufWriter::new(file);
            write!(out, "{doc:#}")?;
            out.flush()?;
            out.stream_position()
        });
        // A failed write or rename leaves the temp file behind; remove it
        // so failures do not pile up in the store.
        let published = written.and_then(|bytes| std::fs::rename(&tmp, path).map(|()| bytes));
        if published.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        published.ok()
    }
}

/// Blanket impl so plain `Vec<f64>` payloads (sweep outputs, population
/// statistics) cache without a wrapper type.
impl CacheRecord for Vec<f64> {
    fn to_cache_json(&self) -> Json {
        Json::Array(self.iter().map(|x| Json::Number(*x)).collect())
    }

    fn from_cache_json(json: &Json) -> Option<Self> {
        json.as_array()?.iter().map(Json::as_f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "selfheal-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit_round_trips() {
        let cache = ResultCache::at(temp_root("roundtrip"));
        let (v1, o1) = cache.get_or_compute("t", 1, "k=1", || vec![1.0, 2.5, -3.0]);
        assert_eq!(o1, CacheOutcome::Miss);
        let (v2, o2) = cache.get_or_compute("t", 1, "k=1", || -> Vec<f64> {
            panic!("must not recompute on hit")
        });
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(v1, v2);
    }

    #[test]
    fn version_bump_invalidates() {
        let cache = ResultCache::at(temp_root("version"));
        let (_, o1) = cache.get_or_compute("t", 1, "k", || vec![1.0]);
        assert_eq!(o1, CacheOutcome::Miss);
        let (v, o2) = cache.get_or_compute("t", 2, "k", || vec![9.0]);
        assert_eq!(o2, CacheOutcome::Miss);
        assert_eq!(v, vec![9.0]);
    }

    #[test]
    fn different_keys_do_not_collide() {
        let cache = ResultCache::at(temp_root("keys"));
        let (_, _) = cache.get_or_compute("t", 1, "a", || vec![1.0]);
        let (v, o) = cache.get_or_compute("t", 1, "b", || vec![2.0]);
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(v, vec![2.0]);
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let cache = ResultCache::at(temp_root("corrupt"));
        let path = cache.entry_path("t", 1, "k");
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, "{ not json").expect("write");
        let (v, o) = cache.get_or_compute("t", 1, "k", || vec![4.0]);
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(v, vec![4.0]);
    }

    #[test]
    fn record_store_round_trips_and_overwrites() {
        let cache = ResultCache::at(temp_root("putget"));
        assert_eq!(cache.load_record::<Vec<f64>>("ckpt", 1, "epoch=3"), None);
        cache.store_record("ckpt", 1, "epoch=3", &vec![1.0, 2.0]);
        assert_eq!(
            cache.load_record::<Vec<f64>>("ckpt", 1, "epoch=3"),
            Some(vec![1.0, 2.0])
        );
        // A checkpoint store must overwrite, not memoize; the returned
        // count is the published file's size.
        let bytes = cache.store_record("ckpt", 1, "epoch=3", &vec![7.0]);
        let path = cache.entry_path("ckpt", 1, "epoch=3");
        assert_eq!(bytes, std::fs::metadata(path).ok().map(|meta| meta.len()));
        assert_eq!(
            cache.load_record::<Vec<f64>>("ckpt", 1, "epoch=3"),
            Some(vec![7.0])
        );
        // Disabled caches neither store nor read.
        let off = ResultCache::disabled();
        assert_eq!(off.store_record("ckpt", 1, "k", &vec![1.0]), None);
        assert_eq!(off.load_record::<Vec<f64>>("ckpt", 1, "k"), None);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache = ResultCache::disabled();
        let (_, o) = cache.get_or_compute("t", 1, "k", || vec![1.0]);
        assert_eq!(o, CacheOutcome::Disabled);
        let (_, o2) = cache.get_or_compute("t", 1, "k", || vec![1.0]);
        assert_eq!(o2, CacheOutcome::Disabled);
    }
}
