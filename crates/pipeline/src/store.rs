//! Blob storage for materialized shards: the fallible [`BlobStore`]
//! trait, the production stores ([`MemStore`], [`DirStore`]), and the
//! deterministic fault-injection decorator [`FaultStore`] used to
//! harden — and to test — the executors against the storage failures a
//! remote object store (the paper profiles Ceph over 10 Gb/s) exhibits
//! in production: transient read/write failures, latency spikes,
//! bit-rot, and vanished shards.

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Errors from blob storage operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Permanent I/O failure (disk full, permission denied, ...).
    Io(String),
    /// The blob does not exist.
    NotFound {
        /// The missing blob.
        blob: String,
    },
    /// Transient failure (network hiccup, storage overload): retrying
    /// the same operation may succeed.
    Transient {
        /// The blob the failed operation touched.
        blob: String,
    },
}

impl StoreError {
    /// True when retrying the operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient { .. })
    }

    /// The blob the operation touched, when known.
    pub fn blob(&self) -> Option<&str> {
        match self {
            StoreError::Io(_) => None,
            StoreError::NotFound { blob } | StoreError::Transient { blob } => Some(blob),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(why) => write!(f, "storage I/O failure: {why}"),
            StoreError::NotFound { blob } => write!(f, "blob '{blob}' not found"),
            StoreError::Transient { blob } => {
                write!(f, "transient storage failure on blob '{blob}'")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Named blob storage for materialized shards. Every operation that
/// touches the medium is fallible; callers decide whether to retry
/// (transient errors) or give up.
pub trait BlobStore: Send + Sync {
    /// Store a blob.
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError>;
    /// Fetch a blob.
    fn get(&self, name: &str) -> Result<Bytes, StoreError>;
    /// Names of all stored blobs.
    fn list(&self) -> Vec<String>;
    /// Total stored bytes.
    fn total_bytes(&self) -> u64;
}

impl<S: BlobStore + ?Sized> BlobStore for std::sync::Arc<S> {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        (**self).put(name, data)
    }

    fn get(&self, name: &str) -> Result<Bytes, StoreError> {
        (**self).get(name)
    }

    fn list(&self) -> Vec<String> {
        (**self).list()
    }

    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }
}

/// In-memory blob store.
#[derive(Debug, Default)]
pub struct MemStore {
    blobs: RwLock<HashMap<String, Bytes>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlobStore for MemStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.blobs
            .write()
            .insert(name.to_string(), Bytes::copy_from_slice(data));
        presto_codecs::touch::copy(data.len());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Bytes, StoreError> {
        self.blobs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound {
                blob: name.to_string(),
            })
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.blobs.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn total_bytes(&self) -> u64 {
        self.blobs.read().values().map(|b| b.len() as u64).sum()
    }
}

/// Filesystem-backed blob store.
#[derive(Debug)]
pub struct DirStore {
    root: std::path::PathBuf,
}

impl DirStore {
    /// Store blobs under `root` (created if missing).
    pub fn new(root: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }
}

impl BlobStore for DirStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let path = self.root.join(name);
        std::fs::write(&path, data)
            .map_err(|e| StoreError::Io(format!("write {}: {e}", path.display())))
    }

    fn get(&self, name: &str) -> Result<Bytes, StoreError> {
        let path = self.root.join(name);
        match std::fs::read(&path) {
            Ok(data) => Ok(Bytes::from(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::NotFound {
                blob: name.to_string(),
            }),
            Err(e) => Err(StoreError::Io(format!("read {}: {e}", path.display()))),
        }
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    fn total_bytes(&self) -> u64 {
        std::fs::read_dir(&self.root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

/// Deterministic fault-injection schedule for a [`FaultStore`].
///
/// Every decision is a pure function of the seed, the blob name, and a
/// per-blob attempt counter — the same spec over the same store under
/// the same access pattern injects exactly the same faults, which makes
/// resilience tests reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for the failure schedule.
    pub seed: u64,
    /// Probability (percent, 0–100) that any single `get` attempt
    /// fails transiently.
    pub get_fail_pct: u8,
    /// Probability (percent, 0–100) that any single `put` attempt
    /// fails transiently.
    pub put_fail_pct: u8,
    /// Extra latency added to every successful operation.
    pub latency: Duration,
    /// Blobs served with exactly one bit flipped, at a deterministic
    /// position derived from the seed and blob name.
    pub corrupt: Vec<String>,
    /// Blobs reported as permanently missing.
    pub lost: Vec<String>,
}

impl FaultSpec {
    /// A spec that injects nothing (decorator becomes a pass-through).
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..Default::default()
        }
    }

    /// Fail `pct`% of get attempts transiently.
    pub fn with_get_failures(mut self, pct: u8) -> Self {
        self.get_fail_pct = pct.min(100);
        self
    }

    /// Fail `pct`% of put attempts transiently.
    pub fn with_put_failures(mut self, pct: u8) -> Self {
        self.put_fail_pct = pct.min(100);
        self
    }

    /// Add `latency` to every successful operation.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Serve `blob` with a single deterministic bit flip.
    pub fn with_corrupt_blob(mut self, blob: impl Into<String>) -> Self {
        self.corrupt.push(blob.into());
        self
    }

    /// Report `blob` as permanently missing.
    pub fn with_lost_blob(mut self, blob: impl Into<String>) -> Self {
        self.lost.push(blob.into());
        self
    }
}

/// Snapshot of the faults a [`FaultStore`] has actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Transient get failures injected.
    pub get_failures: u64,
    /// Transient put failures injected.
    pub put_failures: u64,
    /// Gets served with a flipped bit.
    pub corrupted_gets: u64,
    /// Gets answered `NotFound` for a lost blob.
    pub lost_gets: u64,
}

/// A [`BlobStore`] decorator that injects storage faults on a
/// deterministic, seed-driven schedule: transient get/put failures,
/// added latency, single-bit corruption, and missing blobs.
#[derive(Debug)]
pub struct FaultStore<S> {
    inner: S,
    spec: FaultSpec,
    /// Per-(blob, op) attempt counters: retries of the same operation
    /// advance the schedule, so a transiently failing get eventually
    /// succeeds (exactly like a real flaky link).
    attempts: Mutex<HashMap<(String, bool), u64>>,
    get_failures: AtomicU64,
    put_failures: AtomicU64,
    corrupted_gets: AtomicU64,
    lost_gets: AtomicU64,
}

/// SplitMix64: a tiny, high-quality bit mixer (public domain).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// FNV-1a 64-bit hash of a name.
fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for byte in name.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

impl<S: BlobStore> FaultStore<S> {
    /// Decorate `inner` with the fault schedule `spec`.
    pub fn new(inner: S, spec: FaultSpec) -> Self {
        FaultStore {
            inner,
            spec,
            attempts: Mutex::new(HashMap::new()),
            get_failures: AtomicU64::new(0),
            put_failures: AtomicU64::new(0),
            corrupted_gets: AtomicU64::new(0),
            lost_gets: AtomicU64::new(0),
        }
    }

    /// Counters of the faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            get_failures: self.get_failures.load(Ordering::Relaxed),
            put_failures: self.put_failures.load(Ordering::Relaxed),
            corrupted_gets: self.corrupted_gets.load(Ordering::Relaxed),
            lost_gets: self.lost_gets.load(Ordering::Relaxed),
        }
    }

    /// Unwrap the decorated store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn should_fail(&self, name: &str, is_get: bool, pct: u8) -> bool {
        if pct == 0 {
            return false;
        }
        let attempt = {
            let mut attempts = self.attempts.lock();
            let counter = attempts.entry((name.to_string(), is_get)).or_insert(0);
            *counter += 1;
            *counter
        };
        let op_tag: u64 = if is_get { 0x6765 } else { 0x7075 };
        let h = mix(self.spec.seed
            ^ fnv(name)
            ^ op_tag.wrapping_add(attempt.wrapping_mul(0x5851F42D4C957F2D)));
        (h % 100) < u64::from(pct)
    }

    fn add_latency(&self) {
        if !self.spec.latency.is_zero() {
            std::thread::sleep(self.spec.latency);
        }
    }
}

impl<S: BlobStore> BlobStore for FaultStore<S> {
    fn put(&self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        if self.should_fail(name, false, self.spec.put_fail_pct) {
            self.put_failures.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Transient {
                blob: name.to_string(),
            });
        }
        self.add_latency();
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Bytes, StoreError> {
        if self.spec.lost.iter().any(|lost| lost == name) {
            self.lost_gets.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::NotFound {
                blob: name.to_string(),
            });
        }
        if self.should_fail(name, true, self.spec.get_fail_pct) {
            self.get_failures.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Transient {
                blob: name.to_string(),
            });
        }
        self.add_latency();
        let blob = self.inner.get(name)?;
        if self.spec.corrupt.iter().any(|corrupt| corrupt == name) && !blob.is_empty() {
            self.corrupted_gets.fetch_add(1, Ordering::Relaxed);
            let mut data = blob.to_vec();
            presto_codecs::touch::copy(data.len());
            let h = mix(self.spec.seed ^ fnv(name));
            let byte = (h as usize) % data.len();
            let bit = (h >> 32) % 8;
            data[byte] ^= 1 << bit;
            return Ok(Bytes::from(data));
        }
        Ok(blob)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_roundtrip_and_not_found() {
        let store = MemStore::new();
        store.put("a", &[1, 2, 3]).unwrap();
        assert_eq!(store.get("a").unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(
            store.get("b"),
            Err(StoreError::NotFound { blob: "b".into() })
        );
        assert_eq!(store.list(), vec!["a"]);
        assert_eq!(store.total_bytes(), 3);
    }

    #[test]
    fn dir_store_put_propagates_io_errors() {
        let dir = std::env::temp_dir().join(format!("presto-dirstore-io-{}", std::process::id()));
        let store = DirStore::new(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // Root gone: the write must surface as an error, not a panic.
        let err = store.put("shard", &[1]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err:?}");
        assert!(!err.is_transient());
    }

    #[test]
    fn fault_store_is_a_pass_through_without_faults() {
        let store = FaultStore::new(MemStore::new(), FaultSpec::new(1));
        store.put("x", &[9]).unwrap();
        assert_eq!(store.get("x").unwrap().as_ref(), &[9]);
        assert_eq!(store.injected(), InjectedFaults::default());
    }

    #[test]
    fn fault_schedule_is_deterministic_and_transient() {
        let spec = FaultSpec::new(7).with_get_failures(50);
        let run = || {
            let store = FaultStore::new(MemStore::new(), spec.clone());
            store.put("blob", &[1]).unwrap();
            let outcomes: Vec<bool> = (0..32).map(|_| store.get("blob").is_ok()).collect();
            (outcomes, store.injected())
        };
        let (a, ia) = run();
        let (b, ib) = run();
        assert_eq!(a, b, "same seed must inject the same schedule");
        assert_eq!(ia, ib);
        assert!(a.iter().any(|ok| *ok), "50% failures must not be 100%");
        assert!(a.iter().any(|ok| !*ok), "50% failures must not be 0%");
        assert!(ia.get_failures > 0);
        // Failures are transient: retrying the exact operation advances
        // the schedule, so some attempt eventually succeeds.
        let store = FaultStore::new(MemStore::new(), spec);
        store.put("blob", &[1]).unwrap();
        assert!((0..32).any(|_| store.get("blob").is_ok()));
    }

    #[test]
    fn corrupt_blob_differs_by_exactly_one_bit() {
        let store = FaultStore::new(
            MemStore::new(),
            FaultSpec::new(3).with_corrupt_blob("shard"),
        );
        let original = vec![0u8; 128];
        store.put("shard", &original).unwrap();
        let served = store.get("shard").unwrap();
        let flipped_bits: u32 = served
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped_bits, 1);
        // The same bit every time (storage-level bit-rot, not a flaky wire).
        assert_eq!(served, store.get("shard").unwrap());
        assert_eq!(store.injected().corrupted_gets, 2);
    }

    #[test]
    fn lost_blob_is_not_found_forever() {
        let store = FaultStore::new(MemStore::new(), FaultSpec::new(3).with_lost_blob("gone"));
        store.put("gone", &[1]).unwrap();
        for _ in 0..3 {
            assert_eq!(
                store.get("gone"),
                Err(StoreError::NotFound {
                    blob: "gone".into()
                })
            );
        }
        assert_eq!(store.injected().lost_gets, 3);
    }

    #[test]
    fn arc_of_store_is_a_store() {
        let store = std::sync::Arc::new(MemStore::new());
        let dynamic: &dyn BlobStore = &store;
        dynamic.put("k", &[5]).unwrap();
        assert_eq!(dynamic.get("k").unwrap().as_ref(), &[5]);
    }
}
