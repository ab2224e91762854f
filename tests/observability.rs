//! Continuous-observability integration: the embedded metrics
//! endpoint answering mid-epoch, the sampler thread building a
//! time-series off a live run, and the run-history store feeding the
//! regression comparison — including committed fixtures that pin the
//! verdict deterministically.

use presto::{compare_runs, diagnose_window, Verdict};
use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{MemStore, RealExecutor};
use presto_pipeline::telemetry::history::{parse_run_document, RunStore};
use presto_pipeline::telemetry::timeseries::{self, TimeSeriesDocument};
use presto_pipeline::telemetry::{doc, export, http, Telemetry};
use presto_pipeline::{Sample, Strategy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cv_source(n: u64) -> Vec<Sample> {
    (0..n)
        .map(|key| {
            let img = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "presto-obs-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The full live stack at once: an executor with telemetry, the
/// sampler polling it, and the HTTP server in front — then epochs run
/// on a worker thread while the "operator" scrapes mid-epoch.
#[test]
fn metrics_endpoint_and_sampler_observe_a_live_run() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(24);
    let strategy = Strategy::at_split(0).with_threads(2).with_shards(4);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(2).with_telemetry(Arc::clone(&telemetry));
    let store = MemStore::new();
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &store)
        .unwrap();

    let sampler =
        timeseries::Sampler::spawn(Arc::clone(&telemetry), Duration::from_millis(1), 1024);
    let server =
        http::MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry), sampler.series())
            .expect("bind an ephemeral port");
    let addr = server.addr();

    let mut live_scrape = None;
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            for epoch in 0..50u64 {
                exec.epoch(&pipeline, &dataset, &store, None, epoch, |_| {})
                    .unwrap();
            }
        });
        // Scrape while the epochs are in flight; the first body with a
        // non-zero sample counter proves mid-run liveness.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !worker.is_finished() && Instant::now() < deadline {
            let (status, body) = http::get(addr, "/metrics").expect("GET /metrics");
            assert_eq!(status, 200);
            if !body.starts_with("# no epoch") {
                let series = export::parse_prometheus(&body).expect("parseable mid-epoch");
                if export::series_value(&series, "presto_epoch_samples_total").unwrap_or(0.0) > 0.0
                {
                    live_scrape = Some(series);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.join().unwrap();
    });
    let series = live_scrape.expect("at least one scrape landed mid-run");
    assert!(export::series_value(&series, "presto_epoch_bytes_read_total").is_ok());

    // /healthz is always up; /timeseries.json validates with the
    // crate's own parser; unknown routes 404.
    assert_eq!(
        http::get(addr, "/healthz").unwrap(),
        (200, "ok\n".to_string())
    );
    let (status, body) = http::get(addr, "/timeseries.json").unwrap();
    assert_eq!(status, 200);
    let served: TimeSeriesDocument = doc::read(&body).expect("valid timeseries document");
    let served_points = served.points.len();
    assert_eq!(http::get(addr, "/nope").unwrap().0, 404);
    server.stop();

    // 50 epochs at ~1 ms sampling must have produced points, every
    // one attributable and well-formed.
    let ring = sampler.stop();
    let points = ring.points();
    assert!(!points.is_empty(), "sampler saw none of the 50 epochs");
    assert!(served_points <= points.len() + ring.evicted() as usize);
    for point in &points {
        assert!(point.interval_ns > 0);
        assert!(point.sps >= 0.0);
        for step in &point.steps {
            assert!(
                (0.0..=1.0).contains(&step.busy_share),
                "{}",
                step.busy_share
            );
        }
    }
    let written = doc::write(TimeSeriesDocument {
        evicted: ring.evicted(),
        points: points.clone(),
    });
    let read: TimeSeriesDocument = doc::read(&written).expect("own document reads back");
    assert_eq!(read.points.len(), points.len());
    // The trend diagnosis consumes the same points the endpoint serves.
    let trend = diagnose_window(&points).expect("non-empty window diagnoses");
    assert_eq!(trend.points.len(), points.len());
}

#[test]
fn history_store_feeds_the_regression_comparison() {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source = cv_source(16);
    let strategy = Strategy::at_split(pipeline.max_split())
        .with_threads(2)
        .with_shards(4);
    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(2).with_telemetry(Arc::clone(&telemetry));
    let mem = MemStore::new();
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &mem)
        .unwrap();

    let dir = scratch_dir("history");
    let store = RunStore::new(&dir);
    for epoch in 1..=2u64 {
        exec.epoch(&pipeline, &dataset, &mem, None, epoch, |_| {})
            .unwrap();
        let snapshot = telemetry.last_epoch().unwrap();
        let (id, path) = store.append_snapshot(&snapshot).expect("append");
        assert_eq!(id, format!("run-{epoch:04}"));
        assert!(path.starts_with(&dir));
    }
    let runs = store.runs().expect("list");
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].metrics.samples, 16);
    assert_eq!(runs[0].metrics.seed, 1);
    assert_eq!(runs[1].metrics.seed, 2);

    // Same workload twice: with the noise bar wide open the verdict
    // must be clean regardless of machine speed.
    let a = store.resolve("1").expect("resolve by number");
    let b = store.resolve("run-0002").expect("resolve by id");
    let comparison = compare_runs(&a.metrics, &b.metrics, 10.0, 20.0);
    assert_eq!(
        comparison.worst,
        Verdict::Unchanged,
        "{:?}",
        comparison.deltas
    );
    assert!(comparison.regressions().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_fixtures_pin_the_regression_verdict() {
    // The same fixtures CI diffs with `presto compare`: run B delivers
    // 30% fewer samples per second than run A, far past the 20% gate.
    let a = parse_run_document(include_str!("fixtures/run-a.json")).expect("fixture A valid");
    let b = parse_run_document(include_str!("fixtures/run-b.json")).expect("fixture B valid");
    // Computed from `samples` and `elapsed_ns`, not read from the
    // document's 3-decimal `samples_per_second`.
    assert!((a.sps - 1000.0).abs() < 1e-6, "{}", a.sps);
    assert!((b.sps - 700.0).abs() < 1e-6, "{}", b.sps);
    assert_eq!((a.seed, b.seed), (41, 42));

    let comparison = compare_runs(&a, &b, 0.05, 0.20);
    assert_eq!(comparison.worst, Verdict::Regression);
    assert_eq!(
        comparison.regressions(),
        ["samples_per_second"],
        "only SPS carries the fail bar"
    );
    // The slower decode step surfaces as a warning, not a gate.
    assert!(comparison
        .deltas
        .iter()
        .any(|d| d.name.contains("decode") && d.verdict == Verdict::Warning));

    // Reversed direction is an improvement, never a gate.
    let reversed = compare_runs(&b, &a, 0.05, 0.20);
    assert!(reversed.worst <= Verdict::Unchanged, "{:?}", reversed.worst);
    assert!(reversed.regressions().is_empty());
    assert!(reversed
        .deltas
        .iter()
        .any(|d| d.name == "samples_per_second" && d.verdict == Verdict::Improved));
}

#[test]
fn fixtures_survive_the_store_and_the_exporter_contract() {
    // The committed fixtures must be valid `presto.telemetry.v1`
    // documents end to end: storable, listable, resolvable.
    let dir = scratch_dir("fixtures");
    let store = RunStore::new(&dir);
    store
        .append_document(include_str!("fixtures/run-a.json"))
        .expect("store fixture A");
    store
        .append_document(include_str!("fixtures/run-b.json"))
        .expect("store fixture B");
    let runs = store.runs().expect("list");
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].metrics.sps, 1000.0);
    assert_eq!(runs[1].metrics.retries, 3);
    assert!((runs[0].metrics.cache_hit_rate() - 0.0).abs() < 1e-9);
    let _ = std::fs::remove_dir_all(&dir);
}
