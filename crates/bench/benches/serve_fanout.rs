//! Disaggregated serving on loopback: the real TCP service vs the
//! in-process engine on the same workload, then one worker fanning out
//! to concurrent training clients — the measured counterpart of the
//! `distributed::fan_out` model (per-job throughput falls as 1/jobs
//! once the shared preprocessing node is the bottleneck).

use presto::report::TableBuilder;
use presto_bench::banner;
use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{BlobStore, MemStore, RealExecutor};
use presto_pipeline::serve::{serve_epoch, ServeClientConfig, ServeWorker, ServeWorkerConfig};
use presto_pipeline::{Resilience, Sample, Strategy, Telemetry};
use std::sync::Arc;

fn main() {
    banner(
        "Disaggregated serving",
        "Loopback TCP service vs in-process epochs",
    );
    let samples: usize = std::env::var("PRESTO_SERVE_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);
    let pipeline = steps::executable_cv_pipeline(96, 80);
    let source: Vec<Sample> = (0..samples as u64)
        .map(|key| {
            let img = generators::natural_image(160, 120, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let store = Arc::new(MemStore::new());
    let strategy = Strategy::at_split(2).with_threads(4).with_shards(8);
    let exec = RealExecutor::new(4);
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, store.as_ref())
        .expect("materialize");

    // In-process baseline: median of 3 epochs.
    let mut inproc: Vec<f64> = (0..3)
        .map(|epoch| {
            exec.epoch(&pipeline, &dataset, store.as_ref(), None, epoch, |_| {})
                .expect("epoch")
                .samples_per_second()
        })
        .collect();
    inproc.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let inproc_sps = inproc[1];

    let worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        Arc::clone(&store) as Arc<dyn BlobStore>,
        Resilience::default(),
        None,
        ServeWorkerConfig::default(),
    )
    .expect("spawn worker");
    let addr = worker.addr().to_string();
    let config = ServeClientConfig::default();
    // Slowest job of the fleet: what the straggler-bound trainer sees.
    let serve_sps = |jobs: usize| -> f64 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|| {
                        serve_epoch(
                            std::slice::from_ref(&addr),
                            &dataset.shards,
                            1,
                            &config,
                            None,
                            |_| {},
                        )
                        .expect("serve epoch")
                        .samples_per_second()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .fold(f64::INFINITY, f64::min)
        })
    };
    let _ = serve_sps(1); // warm-up

    let mut table = TableBuilder::new(&["mode", "SPS/job", "vs in-process"]);
    table.row(&[
        "in-process".into(),
        format!("{inproc_sps:.0}"),
        "1.00x".into(),
    ]);
    for jobs in [1usize, 2, 4] {
        let sps = serve_sps(jobs);
        table.row(&[
            format!("served, {jobs} job(s)"),
            format!("{sps:.0}"),
            format!("{:.2}x", sps / inproc_sps),
        ]);
    }
    println!("{}", table.render());
    println!("(one serve-worker on loopback; the per-job rate halves with each");
    println!(" doubling of concurrent trainers once the node saturates — the");
    println!(" fan-out trade-off of the paper's Section 7, measured.)");
    drop(worker);

    // Fleet tracing priced against the bare protocol on the same
    // worker: the clock handshake, per-shard client spans, metered
    // reads and the end-of-assignment STATS frame. `tracing: false`
    // skips all of it while keeping the telemetry handle, so the
    // delta is exactly what observability costs.
    let traced_worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        Arc::clone(&store) as Arc<dyn BlobStore>,
        Resilience::default(),
        Some(Telemetry::new()),
        ServeWorkerConfig::default(),
    )
    .expect("spawn traced worker");
    let traced_addr = traced_worker.addr().to_string();
    let epoch_sps = |tracing: bool| -> f64 {
        let telemetry = Telemetry::new();
        let config = ServeClientConfig {
            tracing,
            ..ServeClientConfig::default()
        };
        let mut runs: Vec<f64> = (0..5)
            .map(|seed| {
                serve_epoch(
                    std::slice::from_ref(&traced_addr),
                    &dataset.shards,
                    seed,
                    &config,
                    Some(&telemetry),
                    |_| {},
                )
                .expect("serve epoch")
                .samples_per_second()
            })
            .collect();
        runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runs[2]
    };
    let _ = epoch_sps(false); // warm-up
    let bare = epoch_sps(false);
    let traced = epoch_sps(true);
    println!();
    println!(
        "fleet tracing: {traced:.0} SPS traced vs {bare:.0} SPS bare ({:.1}% overhead)",
        (1.0 - traced / bare) * 100.0
    );
    // CI gate (PRESTO_SERVE_TRACE_GATE=1): tracing must stay within
    // 5% of the untraced protocol.
    if std::env::var("PRESTO_SERVE_TRACE_GATE").is_ok_and(|v| v == "1") {
        assert!(
            traced >= bare * 0.95,
            "tracing overhead gate failed: {traced:.0} SPS < 95% of {bare:.0} SPS"
        );
    }
}
