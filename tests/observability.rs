//! Continuous-observability integration: the embedded metrics
//! endpoint answering mid-epoch and the sampler thread building a
//! time-series off a live run.

use presto::diagnose_window;
use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{MemStore, RealExecutor};
use presto_pipeline::telemetry::timeseries::{self, TimeSeriesDocument};
use presto_pipeline::telemetry::{doc, export, http, Telemetry};
use presto_pipeline::{Sample, Strategy};
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
