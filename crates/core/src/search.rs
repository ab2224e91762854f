//! Parallel strategy search: a work-stealing profiling pool over the
//! full strategy grid, with shared offline-phase reuse and an optional
//! pruned (successive-halving) mode.
//!
//! PRESTO's value is profiling *every* strategy (§3), which makes
//! search cost the practical limit. Three levers bring it down without
//! changing a single result:
//!
//! - **Parallelism** — the simulator runs on deterministic virtual
//!   time, so grid points are independent pure functions. A
//!   work-stealing pool ([`run_pool`]) fans them across `jobs` threads
//!   and writes each profile into its grid-order slot: the output is
//!   bit-identical to a serial run, regardless of thread schedule (CI's
//!   `search-parity` job diffs the `--jobs 1` and `--jobs 4` JSON
//!   byte-for-byte).
//! - **Offline-phase reuse** — grid points that share (split,
//!   compression, shards) differ only in online knobs, so their offline
//!   materialization simulations are identical. An
//!   [`OfflineMemo`] keyed by [`presto_pipeline::sim::OfflineKey`]
//!   simulates each unique offline phase exactly once, turning
//!   O(splits × codecs × caches × threads) offline runs into
//!   O(splits × codecs).
//! - **Pruning** ([`profile_grid_pruned`]) — subset profiling is cheap
//!   and, per the fidelity study ([`crate::fidelity`]), usually ranks
//!   strategies correctly. The pruned mode probes the whole grid at a
//!   small sample count, keeps the top fraction by the weighted
//!   objective, and re-profiles only the survivors at full fidelity —
//!   reporting exactly what was pruned and how far the probe drifted.

use crate::analysis::{ScoredStrategy, StrategyAnalysis, Weights};
use crate::fidelity;
use crate::profiler::Presto;
use presto_codecs::{Codec, Level};
use presto_pipeline::sim::{OfflineMemo, StrategyProfile};
use presto_pipeline::telemetry::doc::{self, Document, Record, Visitor};
use presto_pipeline::{CacheLevel, Pipeline, SearchProgress, Strategy};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Stable schema identifier of [`report_json`].
pub const JSON_SCHEMA: &str = "presto.search.v1";

/// Knobs of the profiling pool.
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Worker threads (0 = all available cores).
    pub jobs: usize,
    /// Online epochs per strategy (clamped to ≥ 1).
    pub epochs: usize,
    /// Disable the offline-phase memo (cold run; used as the bench
    /// baseline and to cross-check memoized results).
    pub no_memo: bool,
    /// Live progress sink (e.g. [`presto_pipeline::Telemetry::search`]).
    pub progress: Option<Arc<SearchProgress>>,
}

impl SearchOptions {
    /// Serial, memoized, one epoch, no progress reporting.
    pub fn serial() -> Self {
        SearchOptions {
            jobs: 1,
            ..Self::default()
        }
    }

    /// Memoized search on `jobs` threads (0 = all cores).
    pub fn with_jobs(jobs: usize) -> Self {
        SearchOptions {
            jobs,
            ..Self::default()
        }
    }
}

/// Knobs of the pruned (successive-halving) mode.
#[derive(Debug, Clone, Copy)]
pub struct PruneOptions {
    /// Sample count of the cheap probe rung.
    pub probe_samples: u64,
    /// Fraction of the grid kept for full-fidelity re-profiling
    /// (clamped to keep at least one strategy).
    pub keep: f64,
}

impl Default for PruneOptions {
    fn default() -> Self {
        PruneOptions {
            probe_samples: 2_000,
            keep: 0.25,
        }
    }
}

/// What the search did, beyond the profiles themselves.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Grid points enumerated.
    pub grid_size: usize,
    /// Full-fidelity profiles run (equals `grid_size` unless pruned).
    pub profiled: usize,
    /// Labels eliminated by the probe rung, in grid order.
    pub pruned: Vec<String>,
    /// Offline simulations served from the memo.
    pub memo_hits: u64,
    /// Offline simulations actually run (== unique offline phases).
    pub memo_misses: u64,
    /// Probe rung sample count (0 when the search was exhaustive).
    pub probe_samples: u64,
    /// Whether the probe rung and the full-fidelity rung agreed on the
    /// recommended strategy (trivially true when exhaustive).
    pub probe_agreement: bool,
    /// Max relative throughput drift of the probe vs full fidelity
    /// across survivors (0 when exhaustive).
    pub probe_throughput_drift: f64,
}

/// Result of a grid search: the analysis plus search statistics.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Profiles in deterministic grid order, ready for ranking.
    pub analysis: StrategyAnalysis,
    /// What the search did to produce them.
    pub stats: SearchStats,
}

/// The full search grid: every legal split × codecs {none, GZIP, ZLIB}
/// × caches {none, system, application} × `threads`. Codecs are skipped
/// at split 0 (compression without materialization is meaningless), and
/// the enumeration order is deterministic — it defines the canonical
/// profile order of every search report.
pub fn strategy_grid(pipeline: &Pipeline, threads: &[usize]) -> Vec<Strategy> {
    let mut grid = Vec::new();
    for base in Strategy::enumerate(pipeline) {
        for codec in [
            Codec::None,
            Codec::Gzip(Level::DEFAULT),
            Codec::Zlib(Level::DEFAULT),
        ] {
            if base.split == 0 && !matches!(codec, Codec::None) {
                continue;
            }
            for cache in [
                CacheLevel::None,
                CacheLevel::System,
                CacheLevel::Application,
            ] {
                for &t in threads {
                    grid.push(
                        base.clone()
                            .with_threads(t)
                            .with_compression(codec)
                            .with_cache(cache),
                    );
                }
            }
        }
    }
    grid
}

/// Exhaustively profile the full grid (splits × codecs × caches ×
/// [`Strategy::THREAD_SWEEP`]) on the pool described by `opts`.
pub fn profile_grid_parallel(presto: &Presto, opts: &SearchOptions) -> SearchReport {
    let grid = strategy_grid(presto.pipeline(), &Strategy::THREAD_SWEEP);
    profile_strategies(presto, grid, opts)
}

/// Profile an explicit strategy list on the pool described by `opts`.
/// Profiles come back in input order; with the memo enabled each unique
/// offline phase is simulated once and shared.
pub fn profile_strategies(
    presto: &Presto,
    strategies: Vec<Strategy>,
    opts: &SearchOptions,
) -> SearchReport {
    let jobs = effective_jobs(opts.jobs);
    if let Some(progress) = &opts.progress {
        progress.begin(strategies.len() as u64, jobs as u64);
    }
    let memo = (!opts.no_memo).then(OfflineMemo::new);
    let profiles = profile_pool(presto, &strategies, jobs, opts, memo.as_ref());
    let stats = SearchStats {
        grid_size: strategies.len(),
        profiled: strategies.len(),
        pruned: Vec::new(),
        memo_hits: memo.as_ref().map_or(0, |m| m.hits()),
        memo_misses: memo.as_ref().map_or(0, |m| m.misses()),
        probe_samples: 0,
        probe_agreement: true,
        probe_throughput_drift: 0.0,
    };
    if let Some(progress) = &opts.progress {
        progress.set_memo(stats.memo_hits, stats.memo_misses);
        progress.finish();
    }
    SearchReport {
        analysis: StrategyAnalysis::new(profiles),
        stats,
    }
}

/// Pruned (successive-halving) grid search: probe the whole grid at
/// [`PruneOptions::probe_samples`], keep the top [`PruneOptions::keep`]
/// fraction under `weights`, re-profile the survivors at full fidelity.
/// The final analysis contains only the survivors; everything pruned is
/// listed (with the probe-vs-full agreement) in the stats.
pub fn profile_grid_pruned(
    presto: &Presto,
    weights: Weights,
    opts: &SearchOptions,
    prune: &PruneOptions,
) -> SearchReport {
    let grid = strategy_grid(presto.pipeline(), &Strategy::THREAD_SWEEP);
    let jobs = effective_jobs(opts.jobs);
    if let Some(progress) = &opts.progress {
        progress.begin(grid.len() as u64, jobs as u64);
    }

    // Rung 1: cheap probe over the full grid.
    let probe_presto = presto.clone().with_sample_count(prune.probe_samples);
    let probe_memo = (!opts.no_memo).then(OfflineMemo::new);
    let probe_profiles = profile_pool(&probe_presto, &grid, jobs, opts, probe_memo.as_ref());
    let probe_analysis = StrategyAnalysis::new(probe_profiles);
    let ranked = probe_analysis.rank(weights);
    let keep_n = ((ranked.len() as f64 * prune.keep).ceil() as usize).clamp(1, ranked.len().max(1));
    let mut survivor_idx: Vec<usize> = ranked[..keep_n].iter().map(|s| s.index).collect();
    // Grid order keeps the final report deterministic and comparable
    // to the exhaustive search.
    survivor_idx.sort_unstable();
    let survivors: Vec<Strategy> = survivor_idx.iter().map(|&i| grid[i].clone()).collect();
    let pruned: Vec<String> = probe_analysis
        .profiles()
        .iter()
        .enumerate()
        .filter(|(i, _)| !survivor_idx.contains(i))
        .map(|(_, p)| p.label.clone())
        .collect();
    if let Some(progress) = &opts.progress {
        progress.record_pruned(pruned.len() as u64);
        progress.add_total(survivors.len() as u64);
    }

    // Rung 2: full fidelity for the survivors only.
    let memo = (!opts.no_memo).then(OfflineMemo::new);
    let full_profiles = profile_pool(presto, &survivors, jobs, opts, memo.as_ref());
    let analysis = StrategyAnalysis::new(full_profiles);

    let probe_best = ranked.first().map(|s| s.label.clone());
    let final_best = analysis.try_recommend(weights).map(|s| s.label);
    let probe_survivors: Vec<StrategyProfile> = survivor_idx
        .iter()
        .map(|&i| probe_analysis.profiles()[i].clone())
        .collect();
    let (t_drift, _) = fidelity::profile_drift(&probe_survivors, analysis.profiles());

    let stats = SearchStats {
        grid_size: grid.len(),
        profiled: survivors.len(),
        pruned,
        memo_hits: memo.as_ref().map_or(0, |m| m.hits())
            + probe_memo.as_ref().map_or(0, |m| m.hits()),
        memo_misses: memo.as_ref().map_or(0, |m| m.misses())
            + probe_memo.as_ref().map_or(0, |m| m.misses()),
        probe_samples: prune.probe_samples,
        probe_agreement: probe_best == final_best,
        probe_throughput_drift: t_drift,
    };
    if let Some(progress) = &opts.progress {
        progress.set_memo(stats.memo_hits, stats.memo_misses);
        progress.finish();
    }
    SearchReport { analysis, stats }
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn profile_pool(
    presto: &Presto,
    strategies: &[Strategy],
    jobs: usize,
    opts: &SearchOptions,
    memo: Option<&OfflineMemo>,
) -> Vec<StrategyProfile> {
    let epochs = opts.epochs.max(1);
    let progress = opts.progress.as_deref();
    run_pool(jobs, strategies.len(), |i| {
        let profile = presto.profile_strategy_memo(&strategies[i], epochs, memo);
        if let Some(progress) = progress {
            progress.strategy_done();
        }
        profile
    })
}

/// Run `f(0..count)` on a work-stealing pool of `jobs` threads and
/// return the results in index order. Each worker owns a strided slice
/// of the index space and steals from the back of its neighbours' when
/// it runs dry; results travel back over a channel tagged
/// with their index, so the output order — and therefore any report
/// built from it — is independent of the thread schedule.
pub fn run_pool<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let workers = jobs.min(count);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((0..count).filter(|i| i % workers == w).collect()))
        .collect();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, T)>(count);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = next_task(queues, w) {
                    let _ = tx.send((i, f(i)));
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in rx.try_iter() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("pool completed every task"))
        .collect()
}

fn next_task(queues: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    if let Some(i) = queues[own].lock().unwrap().pop_front() {
        return Some(i);
    }
    for offset in 1..queues.len() {
        let victim = (own + offset) % queues.len();
        if let Some(i) = queues[victim].lock().unwrap().pop_back() {
            return Some(i);
        }
    }
    None
}

/// The stable `presto.search.v1` document. Deliberately excludes
/// anything schedule- or wall-clock-dependent (job count, timings):
/// two searches over the same grid must serialize byte-identically
/// however they were executed — CI diffs `--jobs 1` against `--jobs 4`
/// with this document.
struct SearchDocument {
    pipeline: String,
    weights: Weights,
    stats: SearchStats,
    failed: Vec<String>,
    ranking: Vec<ScoredStrategy>,
    recommendation: Option<String>,
}

impl Record for ScoredStrategy {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("label", &mut self.label);
        v.req("score", &mut self.score);
        v.req("throughput_sps", &mut self.throughput_sps);
        v.req("preprocessing_secs", &mut self.preprocessing_secs);
        v.req("storage_bytes", &mut self.storage_bytes);
        let (p, s, t) = self.normalized;
        let mut normalized = vec![p, s, t];
        v.list("normalized", &mut normalized);
        if let [p, s, t] = normalized[..] {
            self.normalized = (p, s, t);
        }
    }
}

impl Record for SearchDocument {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("pipeline", &mut self.pipeline);
        v.object("weights", false, |v| {
            v.req("preprocessing", &mut self.weights.preprocessing);
            v.req("storage", &mut self.weights.storage);
            v.req("throughput", &mut self.weights.throughput);
        });
        let stats = &mut self.stats;
        v.req("grid_size", &mut stats.grid_size);
        v.req("profiled", &mut stats.profiled);
        v.object("memo", false, |v| {
            v.req("hits", &mut stats.memo_hits);
            v.req("misses", &mut stats.memo_misses);
        });
        v.req("probe_samples", &mut stats.probe_samples);
        v.req("probe_agreement", &mut stats.probe_agreement);
        v.req("probe_throughput_drift", &mut stats.probe_throughput_drift);
        v.list("pruned", &mut stats.pruned);
        v.list("failed", &mut self.failed);
        v.records("ranking", &mut self.ranking);
        v.req("recommendation", &mut self.recommendation);
    }
}

impl Document for SearchDocument {
    const SCHEMA: &'static str = JSON_SCHEMA;
}

/// Render a search report as its `presto.search.v1` JSON document.
pub fn report_json(pipeline: &str, weights: Weights, report: &SearchReport) -> String {
    let ranking = report.analysis.rank(weights);
    doc::write(SearchDocument {
        pipeline: pipeline.to_string(),
        weights,
        stats: report.stats.clone(),
        failed: report
            .analysis
            .profiles()
            .iter()
            .filter(|p| p.error.is_some())
            .map(|p| p.label.clone())
            .collect(),
        recommendation: ranking.first().map(|s| s.label.clone()),
        ranking,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_pipeline::sim::{SimDataset, SimEnv, SourceLayout};
    use presto_pipeline::{CostModel, SizeModel, StepSpec};
    use presto_storage::Nanos;

    fn presto() -> Presto {
        let pipeline = Pipeline::new("s")
            .push_spec(StepSpec::native(
                "concatenated",
                CostModel::new(3_000.0, 0.0, 0.0),
                SizeModel::IDENTITY,
            ))
            .push_spec(
                StepSpec::native(
                    "decoded",
                    CostModel::new(0.0, 12.0, 0.0),
                    SizeModel::scale(4.0),
                )
                .with_space_saving(0.5, 0.48),
            )
            .push_spec(StepSpec::native(
                "shrunk",
                CostModel::new(0.0, 1.0, 0.0),
                SizeModel::scale(0.25),
            ));
        let dataset = SimDataset {
            name: "s-data".into(),
            sample_count: 5_000,
            unprocessed_sample_bytes: 150_000.0,
            layout: SourceLayout::FilePerSample {
                penalty: Nanos::ZERO,
            },
        };
        Presto::new(
            pipeline,
            dataset,
            SimEnv {
                subset_samples: 1_000,
                ..SimEnv::paper_vm()
            },
        )
    }

    #[test]
    fn pool_returns_results_in_index_order() {
        let squares = run_pool(4, 37, |i| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_serial_path_matches() {
        assert_eq!(run_pool(1, 5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(run_pool(8, 1, |i| i), vec![0]);
        assert_eq!(run_pool(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn grid_enumerates_splits_codecs_caches_threads() {
        let presto = presto();
        let grid = strategy_grid(presto.pipeline(), &Strategy::THREAD_SWEEP);
        // split 0: 1 codec × 3 caches × 4 threads; splits 1..=3: 3 × 3 × 4.
        assert_eq!(grid.len(), 12 + 3 * 36);
        // Thread choice never changes the shard layout in the sweep.
        assert!(grid.iter().all(|s| s.shards == 8));
    }

    #[test]
    fn parallel_profiles_match_serial_exactly() {
        let presto = presto();
        let serial = profile_grid_parallel(&presto, &SearchOptions::serial());
        let parallel = profile_grid_parallel(&presto, &SearchOptions::with_jobs(4));
        assert_eq!(
            format!("{:?}", serial.analysis.profiles()),
            format!("{:?}", parallel.analysis.profiles())
        );
        let weights = Weights::MAX_THROUGHPUT;
        assert_eq!(
            report_json("s", weights, &serial),
            report_json("s", weights, &parallel)
        );
    }

    #[test]
    fn memo_counts_unique_offline_phases_once() {
        let presto = presto();
        let report = profile_grid_parallel(&presto, &SearchOptions::serial());
        // Materializable grid points: splits 1..=3 × 3 codecs × 3 caches
        // × 4 threads = 108; unique offline phases: 3 splits × 3 codecs
        // (threads and caches are online-only).
        assert_eq!(report.stats.memo_misses, 9);
        assert_eq!(report.stats.memo_hits, 108 - 9);
    }

    #[test]
    fn cold_and_memoized_profiles_are_identical() {
        let presto = presto();
        let cold = profile_grid_parallel(
            &presto,
            &SearchOptions {
                no_memo: true,
                jobs: 1,
                ..SearchOptions::default()
            },
        );
        let memoized = profile_grid_parallel(&presto, &SearchOptions::serial());
        assert_eq!(cold.stats.memo_hits, 0);
        assert!(memoized.stats.memo_hits > 0);
        assert_eq!(
            format!("{:?}", cold.analysis.profiles()),
            format!("{:?}", memoized.analysis.profiles())
        );
    }

    #[test]
    fn pruned_search_reports_survivors_and_pruned() {
        let presto = presto();
        let weights = Weights::MAX_THROUGHPUT;
        let report = profile_grid_pruned(
            &presto,
            weights,
            &SearchOptions::serial(),
            &PruneOptions {
                probe_samples: 500,
                keep: 0.25,
            },
        );
        assert_eq!(report.stats.grid_size, 120);
        assert!(report.stats.profiled < report.stats.grid_size);
        // Failed probes (app-cache overflow) are neither survivors nor
        // listed rankings but are pruned.
        assert_eq!(
            report.stats.profiled + report.stats.pruned.len(),
            report.stats.grid_size
        );
        assert!(report.analysis.try_recommend(weights).is_some());
    }

    #[test]
    fn search_progress_reaches_done() {
        let presto = presto();
        let progress = Arc::new(presto_pipeline::SearchProgress::default());
        let opts = SearchOptions {
            progress: Some(Arc::clone(&progress)),
            ..Default::default()
        };
        let _ = profile_grid_parallel(&presto, &opts);
        let snap = progress.snapshot();
        assert!(snap.done);
        assert_eq!(snap.completed, snap.total);
        assert_eq!(snap.total, 120);
        assert!(snap.memo_hits > 0);
    }
}
