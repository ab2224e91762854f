//! Parallel strategy-search integration: the work-stealing pool must be
//! bit-identical to a serial sweep, the offline-phase memo must run
//! every (split, codec, shards) simulation exactly once without
//! perturbing results, pruned search must land on the exhaustive
//! recommendation, and search progress must be scrapeable over HTTP
//! while the grid is in flight.

use std::sync::Arc;
use std::time::{Duration, Instant};

use presto::search::{
    profile_grid_parallel, profile_grid_pruned, report_json, strategy_grid, PruneOptions,
    SearchOptions,
};
use presto::{Presto, Weights};
use presto_datasets::all_workloads;
use presto_pipeline::sim::SimEnv;
use presto_pipeline::telemetry::{export, http, timeseries, Telemetry};
use presto_pipeline::Strategy;

fn presto_for(workload: &str, samples: u64) -> Presto {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.pipeline.name == workload)
        .unwrap_or_else(|| panic!("workload {workload} not found"));
    Presto::new(w.pipeline, w.dataset, SimEnv::paper_vm()).with_sample_count(samples)
}

/// Offline memo on the real CV grid: the thread sweep and the cache
/// axis share offline phases, so only (splits 1..=4) x (3 codecs) = 12
/// unique simulations may run; every other offline-bearing grid point
/// must be a hit. (Application-cache points that fail feasibility never
/// reach the offline phase on CV.)
#[test]
fn memo_runs_each_offline_phase_exactly_once_on_cv() {
    let presto = presto_for("CV", 1_000);
    let report = profile_grid_parallel(&presto, &SearchOptions::serial());
    assert_eq!(report.stats.grid_size, 156);
    assert_eq!(
        report.stats.memo_misses, 12,
        "one offline sim per (split, codec, shards)"
    );
    assert_eq!(
        report.stats.memo_hits, 84,
        "every other materializable point reuses one"
    );

    // The memo key ignores online knobs: sweeping threads and cache at
    // one split/codec leaves the key unchanged.
    let base = Strategy::at_split(2);
    let key = presto_key(&presto, &base);
    for t in Strategy::THREAD_SWEEP {
        assert_eq!(presto_key(&presto, &base.clone().with_threads(t)), key);
    }
}

fn presto_key(presto: &Presto, strategy: &Strategy) -> presto_pipeline::sim::OfflineKey {
    presto_pipeline::sim::Simulator::new(
        presto.pipeline().clone(),
        presto.dataset().clone(),
        SimEnv::paper_vm(),
    )
    .offline_key(strategy)
}

/// Memoized profiles must equal cold profiles field-for-field — the
/// memo is a pure cache, never an approximation.
#[test]
fn memoized_profiles_equal_cold_profiles() {
    let presto = presto_for("CV", 1_000);
    let cold = profile_grid_parallel(
        &presto,
        &SearchOptions {
            no_memo: true,
            ..SearchOptions::serial()
        },
    );
    let memoized = profile_grid_parallel(&presto, &SearchOptions::serial());
    assert_eq!(cold.stats.memo_hits, 0);
    assert!(memoized.stats.memo_hits > 0);
    for (a, b) in cold
        .analysis
        .profiles()
        .iter()
        .zip(memoized.analysis.profiles().iter())
    {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "profile diverged: {}",
            a.label
        );
    }
}

/// The determinism gate behind CI's `search-parity` job: `--jobs 4`
/// must produce byte-identical output to `--jobs 1`, both as Debug
/// fields and as the stable JSON document the CLI diff runs on.
#[test]
fn four_jobs_match_serial_byte_for_byte() {
    let presto = presto_for("CV", 1_000);
    let serial = profile_grid_parallel(&presto, &SearchOptions::serial());
    let parallel = profile_grid_parallel(&presto, &SearchOptions::with_jobs(4));
    for (a, b) in serial
        .analysis
        .profiles()
        .iter()
        .zip(parallel.analysis.profiles().iter())
    {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "profile diverged: {}",
            a.label
        );
    }
    let weights = Weights::MAX_THROUGHPUT;
    assert_eq!(
        report_json("CV", weights, &serial),
        report_json("CV", weights, &parallel),
        "JSON documents must diff clean byte-for-byte"
    );
}

/// `presto.search.v1` went onto the one document writer without
/// moving a byte: the fixture is what the last hand-written
/// `report_json` printed for this same pruned search.
#[test]
fn search_document_is_byte_identical_to_the_hand_written_writer() {
    let weights = Weights::MAX_THROUGHPUT;
    let pruned = profile_grid_pruned(
        &presto_for("NLP", 500),
        weights,
        &SearchOptions::serial(),
        &PruneOptions::default(),
    );
    assert_eq!(
        report_json("NLP", weights, &pruned),
        include_str!("../crates/telemetry/tests/fixtures/search.json")
    );
}

/// Successive-halving must not change the answer: the pruned search
/// re-profiles probe survivors at full fidelity and must land on the
/// same recommendation as the exhaustive grid, on both CV and NLP.
#[test]
fn pruned_search_matches_exhaustive_recommendation() {
    let weights = Weights::MAX_THROUGHPUT;
    for workload in ["CV", "NLP"] {
        let presto = presto_for(workload, 2_000);
        let exhaustive = profile_grid_parallel(&presto, &SearchOptions::serial());
        let pruned = profile_grid_pruned(
            &presto,
            weights,
            &SearchOptions::serial(),
            &PruneOptions::default(),
        );
        let full_best = exhaustive.analysis.recommend(weights).label.clone();
        let pruned_best = pruned.analysis.recommend(weights).label.clone();
        assert_eq!(
            pruned_best, full_best,
            "{workload}: pruning changed the recommendation"
        );
        assert!(
            pruned.stats.probe_agreement,
            "{workload}: probe disagreed with final"
        );
        assert!(
            !pruned.stats.pruned.is_empty(),
            "{workload}: pruning should cut part of the grid"
        );
        assert!(
            pruned.stats.profiled < exhaustive.stats.profiled,
            "{workload}: pruned search must profile fewer points at full fidelity"
        );
    }
}

/// Live observability: while a search runs on a worker thread, its
/// progress gauges must be scrapeable from /metrics, and after the run
/// the done flag and final counts must land.
#[test]
fn search_progress_is_scraped_live_over_http() {
    let presto = presto_for("CV", 1_000);
    let telemetry = Telemetry::new();
    let progress = telemetry.search();
    let server = http::MetricsServer::serve(
        "127.0.0.1:0",
        Arc::clone(&telemetry),
        timeseries::TimeSeries::new(timeseries::DEFAULT_RING_CAPACITY),
    )
    .expect("bind an ephemeral port");
    let addr = server.addr();

    let opts = SearchOptions {
        progress: Some(Arc::clone(&progress)),
        ..SearchOptions::with_jobs(2)
    };
    let mut live = None;
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| profile_grid_parallel(&presto, &opts));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !worker.is_finished() && Instant::now() < deadline {
            let (status, body) = http::get(addr, "/metrics").expect("GET /metrics");
            assert_eq!(status, 200);
            if body.contains("presto_search_strategies_total") {
                let series = export::parse_prometheus(&body).expect("parseable mid-search");
                if export::series_value(&series, "presto_search_strategies_completed")
                    .unwrap_or(0.0)
                    > 0.0
                {
                    live = Some(series);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.join().unwrap()
    });
    let series = live.expect("at least one scrape landed mid-search");
    assert_eq!(
        export::series_value(&series, "presto_search_strategies_total").unwrap(),
        156.0
    );

    let (_, body) = http::get(addr, "/metrics").expect("final scrape");
    let series = export::parse_prometheus(&body).unwrap();
    assert_eq!(
        export::series_value(&series, "presto_search_done").unwrap(),
        1.0
    );
    assert_eq!(
        export::series_value(&series, "presto_search_strategies_completed").unwrap(),
        156.0
    );
    assert!(export::series_value(&series, "presto_search_memo_hits").unwrap() > 0.0);
    server.stop();

    let snap = progress.snapshot();
    assert!(snap.done);
    assert_eq!(snap.completed, snap.total);
}

/// The grid construction itself: split 0 carries no codecs, every
/// other split carries the full codec x cache x thread cross product.
#[test]
fn cv_grid_shape_is_the_paper_cross_product() {
    let presto = presto_for("CV", 1_000);
    let grid = strategy_grid(presto.pipeline(), &Strategy::THREAD_SWEEP);
    // split 0: 3 caches x 4 threads; splits 1..=4: 3 codecs x 3 caches x 4 threads.
    assert_eq!(grid.len(), 12 + 4 * 36);
    assert!(
        grid.iter().all(|s| s.shards == 8),
        "thread sweep must not disturb sharding"
    );
}

/// The simulator's golden: `presto recommend <P> --json` for all seven
/// pipelines, made the way the command makes it (default weights,
/// `paper_vm`, all cores) and compared byte for byte with the documents
/// under `tests/fixtures/sim/`. A change to the model shows up here as
/// a diff to review, not as a recommendation that moved silently.
/// After a deliberate model change, regenerate them with
///
/// ```sh
/// for p in CV CV2-JPG CV2-PNG NLP NILM MP3 FLAC; do
///   cargo run --release -q -p presto-cli -- recommend $p --json \
///     > tests/fixtures/sim/recommend-$p.json
/// done
/// ```
#[test]
fn recommend_documents_match_the_simulator_golden() {
    let weights = Weights::new(0.0, 0.0, 1.0);
    let opts = SearchOptions {
        jobs: 0,
        epochs: 1,
        no_memo: false,
        progress: None,
    };
    for w in all_workloads() {
        let name = w.pipeline.name.clone();
        let presto = Presto::new(w.pipeline, w.dataset, SimEnv::paper_vm());
        let got = report_json(&name, weights, &profile_grid_parallel(&presto, &opts));
        let path = format!(
            "{}/fixtures/sim/recommend-{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&path).unwrap();
        if got != want {
            let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
            panic!("{path}: the simulator's document differs, first at line {line:?}");
        }
    }
}
