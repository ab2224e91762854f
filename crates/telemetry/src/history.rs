//! Run-history store: every `presto realrun` appends its sealed
//! `presto.telemetry.v1` snapshot under `.presto/runs/` as
//! `run-NNNN.json` (sequential, so histories diff cleanly and sort
//! lexicographically). `presto history` lists the store and
//! `presto compare` resolves any two entries (by id or by path) into
//! [`RunMetrics`] for the regression analysis in `core::analysis`.

use crate::doc;
use crate::export::{self, RunDocument};
use crate::TelemetrySnapshot;
use std::fs;
use std::path::{Path, PathBuf};

/// Default history directory, relative to the working directory.
pub const DEFAULT_DIR: &str = ".presto/runs";

/// The headline metrics of one stored run, extracted from its
/// `presto.telemetry.v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Samples delivered.
    pub samples: u64,
    /// Samples per second.
    pub sps: f64,
    /// Epoch wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// Worker threads.
    pub threads: u64,
    /// Compressed bytes read.
    pub bytes_read: u64,
    /// Storage retries.
    pub retries: u64,
    /// Samples skipped under a degrade policy.
    pub skipped_samples: u64,
    /// Shards lost under a degrade policy.
    pub lost_shards: u64,
    /// Whether any fault was absorbed.
    pub degraded: bool,
    /// Application-cache hits.
    pub cache_hits: u64,
    /// Application-cache misses.
    pub cache_misses: u64,
    /// Epoch seed (0 for documents predating the field).
    pub seed: u64,
    /// Delivery mode: `"real"` (single-process, the default for
    /// documents predating the field) or `"serve"` (disaggregated
    /// worker/client epoch).
    pub mode: String,
    /// Per-step `(name, busy_ns, p95_ns)`.
    pub steps: Vec<(String, f64, f64)>,
}

impl RunMetrics {
    /// `hits / (hits + misses)`, 0 with no cache activity.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One entry of the store: id, backing file, extracted metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Store id (`run-0003`) or, for out-of-store files, the path stem.
    pub id: String,
    /// Backing JSON file.
    pub path: PathBuf,
    /// Extracted headline metrics.
    pub metrics: RunMetrics,
}

/// Read a `presto.telemetry.v1` document and reduce it to its
/// [`RunMetrics`]. Errors name the missing/mistyped field, never
/// panic.
pub fn parse_run_document(input: &str) -> Result<RunMetrics, String> {
    let RunDocument { mode, snapshot } = doc::read(input)?;
    Ok(RunMetrics {
        samples: snapshot.samples,
        sps: snapshot.samples_per_second(),
        elapsed_ns: snapshot.elapsed_ns,
        threads: snapshot.threads as u64,
        bytes_read: snapshot.bytes_read,
        retries: snapshot.retries,
        skipped_samples: snapshot.skipped_samples,
        lost_shards: snapshot.lost_shards,
        degraded: snapshot.degraded,
        cache_hits: snapshot.cache_hits,
        cache_misses: snapshot.cache_misses,
        seed: snapshot.epoch_seed,
        mode: mode.unwrap_or_else(|| "real".to_string()),
        steps: snapshot
            .steps
            .iter()
            .map(|s| (s.name.clone(), s.busy_ns as f64, s.p95_ns as f64))
            .collect(),
    })
}

/// A directory of sequentially numbered run snapshots.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// A store rooted at `dir` (created lazily on first append).
    pub fn new(dir: impl Into<PathBuf>) -> RunStore {
        RunStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append a sealed snapshot; returns `(run_id, path)`.
    pub fn append_snapshot(
        &self,
        snapshot: &TelemetrySnapshot,
    ) -> Result<(String, PathBuf), String> {
        self.append_document(&export::json(snapshot))
    }

    /// Append a raw `presto.telemetry.v1` document after validating
    /// it; returns `(run_id, path)`.
    pub fn append_document(&self, document: &str) -> Result<(String, PathBuf), String> {
        doc::read::<RunDocument>(document)
            .map_err(|e| format!("refusing to store invalid run: {e}"))?;
        fs::create_dir_all(&self.dir).map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let next = self
            .run_files()?
            .iter()
            .filter_map(|p| run_number(p))
            .max()
            .map_or(1, |n| n + 1);
        let id = format!("run-{next:04}");
        let path = self.dir.join(format!("{id}.json"));
        fs::write(&path, document).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok((id, path))
    }

    /// All stored runs, oldest first. A file that fails validation
    /// fails the whole listing, naming the file and field.
    pub fn runs(&self) -> Result<Vec<RunRecord>, String> {
        self.run_files()?
            .into_iter()
            .map(|path| load_record(&path))
            .collect()
    }

    /// Resolve `spec` — a run id (`run-0002`, `0002`, `2`), a file in
    /// the store, or any path to a snapshot JSON — into a record.
    pub fn resolve(&self, spec: &str) -> Result<RunRecord, String> {
        let mut candidates = vec![PathBuf::from(spec)];
        candidates.push(self.dir.join(spec));
        candidates.push(self.dir.join(format!("{spec}.json")));
        if let Ok(n) = spec.trim_start_matches("run-").parse::<u64>() {
            candidates.push(self.dir.join(format!("run-{n:04}.json")));
        }
        for path in &candidates {
            if path.is_file() {
                return load_record(path);
            }
        }
        Err(format!(
            "no run matching '{spec}' (looked in {} and the filesystem)",
            self.dir.display()
        ))
    }

    /// Delete all but the newest `keep` runs (by run number); returns
    /// the ids removed, oldest first. Numbering keeps counting from
    /// the highest survivor, so pruning never recycles an id.
    pub fn prune(&self, keep: usize) -> Result<Vec<String>, String> {
        let mut files = self.run_files()?;
        let excess = files.len().saturating_sub(keep);
        files.truncate(excess);
        let mut removed = Vec::with_capacity(excess);
        for path in files {
            fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
            removed.push(
                path.file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("run")
                    .to_string(),
            );
        }
        Ok(removed)
    }

    fn run_files(&self) -> Result<Vec<PathBuf>, String> {
        let mut files = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(files),
            Err(e) => return Err(format!("read {}: {e}", self.dir.display())),
        };
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if run_number(&path).is_some() {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }
}

fn run_number(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("run-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

fn load_record(path: &Path) -> Result<RunRecord, String> {
    let raw = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let metrics = parse_run_document(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    let id = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("run")
        .to_string();
    Ok(RunRecord {
        id,
        path: path.to_path_buf(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "presto-history-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sealed_snapshot(samples: u64) -> TelemetrySnapshot {
        let t = Telemetry::new();
        let rec = t.begin_epoch(&["resize".into()], 1, 0);
        rec.set_epoch_seed(5);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, crate::BUILTIN_PHASES, t0);
        rec.samples_done(0, samples);
        rec.finish(
            Duration::from_millis(50),
            samples,
            samples * 100,
            0,
            0,
            0,
            false,
        );
        rec.snapshot()
    }

    #[test]
    fn appends_are_sequential_and_listable() {
        let dir = scratch_dir();
        let store = RunStore::new(&dir);
        assert!(store.runs().expect("empty store lists").is_empty());
        let (id1, _) = store
            .append_snapshot(&sealed_snapshot(10))
            .expect("append 1");
        let (id2, path2) = store
            .append_snapshot(&sealed_snapshot(20))
            .expect("append 2");
        assert_eq!((id1.as_str(), id2.as_str()), ("run-0001", "run-0002"));
        let runs = store.runs().expect("list");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].metrics.samples, 10);
        assert_eq!(runs[1].metrics.samples, 20);
        assert_eq!(runs[1].metrics.seed, 5);
        assert_eq!(runs[1].path, path2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_accepts_ids_numbers_and_paths() {
        let dir = scratch_dir();
        let store = RunStore::new(&dir);
        let (_, path) = store.append_snapshot(&sealed_snapshot(7)).expect("append");
        for spec in [
            "run-0001",
            "0001",
            "1",
            "run-0001.json",
            path.to_str().unwrap(),
        ] {
            let rec = store
                .resolve(spec)
                .unwrap_or_else(|e| panic!("resolve '{spec}': {e}"));
            assert_eq!(rec.metrics.samples, 7, "spec '{spec}'");
        }
        let err = store.resolve("run-0099").unwrap_err();
        assert!(err.contains("run-0099"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_documents_are_refused_with_field_names() {
        let dir = scratch_dir();
        let store = RunStore::new(&dir);
        let err = store
            .append_document("{\"schema\": \"presto.telemetry.v1\"}")
            .unwrap_err();
        assert!(err.contains("epoch"), "error should name the field: {err}");
        assert!(store.runs().expect("still listable").is_empty());
        let err = parse_run_document("{not json").unwrap_err();
        assert!(!err.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_run_document_extracts_headline_metrics() {
        let snap = sealed_snapshot(40);
        let metrics = parse_run_document(&export::json(&snap)).expect("parse own export");
        assert_eq!(metrics.samples, 40);
        assert_eq!(metrics.threads, 1);
        assert!(metrics.sps > 0.0);
        assert!(metrics.steps.iter().any(|(name, _, _)| name == "resize"));
        assert_eq!(metrics.seed, 5);
        assert_eq!(metrics.mode, "real", "untagged documents default to real");
    }

    #[test]
    fn prune_keeps_the_newest_and_numbering_continues() {
        let dir = scratch_dir();
        let store = RunStore::new(&dir);
        for i in 0..5 {
            store
                .append_snapshot(&sealed_snapshot(10 + i))
                .expect("append");
        }
        let removed = store.prune(2).expect("prune");
        assert_eq!(removed, vec!["run-0001", "run-0002", "run-0003"]);
        let runs = store.runs().expect("list survivors");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].id, "run-0004");
        assert_eq!(runs[1].id, "run-0005");
        assert_eq!(runs[1].metrics.samples, 14);
        // Survivors still resolve (compare path) and new appends don't
        // recycle pruned ids.
        assert_eq!(store.resolve("4").expect("resolve").metrics.samples, 13);
        let (id, _) = store.append_snapshot(&sealed_snapshot(99)).expect("append");
        assert_eq!(id, "run-0006");
        // Pruning to a size the store is already under is a no-op.
        assert!(store.prune(10).expect("no-op prune").is_empty());
        assert_eq!(store.runs().expect("list").len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_mode_documents_store_and_parse() {
        let dir = scratch_dir();
        let store = RunStore::new(&dir);
        let document = export::json_with_mode(&sealed_snapshot(12), Some("serve"));
        let (id, _) = store.append_document(&document).expect("append serve run");
        assert_eq!(id, "run-0001");
        let runs = store.runs().expect("list");
        assert_eq!(runs[0].metrics.mode, "serve");
        assert_eq!(runs[0].metrics.samples, 12);
        let _ = fs::remove_dir_all(&dir);
    }
}
