//! Instrumentation-overhead guard: the same real-engine epoch run
//! four ways — no telemetry, the disabled (no-op) registry, the live
//! registry, and the live registry with the continuous sampler thread
//! attached — plus the raw per-call cost of the recorder ops.
//!
//! Targets (documented in docs/observability.md): the live registry
//! costs < 5% samples-per-second against the un-instrumented engine
//! on the CV workload, and adding the sampler stays < 1% over the
//! live registry alone (it only does relaxed loads off-thread). The
//! no-op registry should be indistinguishable from no telemetry at
//! all (every call is a single branch).

use presto::report::TableBuilder;
use presto_datasets::{generators, steps};
use presto_formats::image::jpg;
use presto_pipeline::real::{DelayPlan, MemStore, RealExecutor};
use presto_pipeline::telemetry::timeseries::Sampler;
use presto_pipeline::telemetry::{Telemetry, PHASE_DECODE};
use presto_pipeline::{Sample, Strategy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median samples-per-second over `epochs` runs of one executor.
fn median_sps(
    exec: &RealExecutor,
    pipeline: &presto_pipeline::Pipeline,
    dataset: &presto_pipeline::real::Materialized,
    store: &MemStore,
    epochs: u64,
) -> f64 {
    let mut runs: Vec<f64> = (0..epochs)
        .map(|epoch| {
            exec.epoch(pipeline, dataset, store, None, epoch, |_| {})
                .expect("epoch")
                .samples_per_second()
        })
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    runs[runs.len() / 2]
}

fn main() {
    println!("\n== Telemetry: Instrumentation overhead: live registry vs none");
    let samples: usize = std::env::var("PRESTO_REAL_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);
    let threads = 4usize;
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source: Vec<Sample> = (0..samples as u64)
        .map(|key| {
            let img = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let store = MemStore::new();
    let strategy = Strategy::at_split(pipeline.max_split())
        .with_threads(threads)
        .with_shards(8);
    let (dataset, _) = RealExecutor::new(threads)
        .materialize(&pipeline, &strategy, &source, &store)
        .expect("materialize");

    // Warm caches, page in the shards, spin up the allocator before
    // any arm is timed — the first measured arm must not pay cold-start.
    RealExecutor::new(threads)
        .epoch(&pipeline, &dataset, &store, None, 0, |_| {})
        .expect("warm-up epoch");

    // The sampled arm polls at 20 ms — 10× the default 200 ms
    // production cadence — so any hot-path perturbation is amplified,
    // and the short bench epochs still collect several points.
    let sampled_telemetry = Telemetry::new();
    let sampler = Sampler::spawn(
        Arc::clone(&sampled_telemetry),
        Duration::from_millis(20),
        4096,
    );
    let arms = [
        ("none", RealExecutor::new(threads)),
        (
            "no-op registry",
            RealExecutor::new(threads).with_telemetry(Telemetry::disabled()),
        ),
        (
            "live registry",
            RealExecutor::new(threads).with_telemetry(Telemetry::new()),
        ),
        (
            "live + sampler (20ms)",
            RealExecutor::new(threads).with_telemetry(sampled_telemetry),
        ),
        (
            // The causal-profiling hooks as shipped by default: alloc
            // scopes compiled in (TLS counters, no counting allocator)
            // and a no-op DelayPlan attached — dilation 1.0 means
            // `after_phase` returns before touching the clock.
            "live + no-op delay plan",
            RealExecutor::new(threads)
                .with_telemetry(Telemetry::new())
                .with_delay_plan(Arc::new(DelayPlan::noop())),
        ),
    ];
    let mut sps = Vec::new();
    let mut table = TableBuilder::new(&["telemetry", "SPS", "overhead"]);
    for (label, exec) in &arms {
        let value = median_sps(exec, &pipeline, &dataset, &store, 5);
        let overhead = if sps.is_empty() {
            0.0
        } else {
            (1.0 - value / sps[0]) * 100.0
        };
        table.row(&[
            label.to_string(),
            format!("{value:.0}"),
            if sps.is_empty() {
                "-".into()
            } else {
                format!("{overhead:+.1}%")
            },
        ]);
        sps.push(value);
    }
    let ring = sampler.stop();
    println!("{}", table.render());

    let live_overhead = (1.0 - sps[2] / sps[0]) * 100.0;
    println!(
        "live-registry overhead: {live_overhead:+.1}% (target < 5%) — {}",
        if live_overhead < 5.0 {
            "OK"
        } else {
            "EXCEEDED"
        }
    );
    let sampler_overhead = (1.0 - sps[3] / sps[2]) * 100.0;
    println!(
        "sampler-thread overhead vs live registry: {sampler_overhead:+.1}% (target < 1%) — {} [{} points sampled]",
        if sampler_overhead < 1.0 { "OK" } else { "EXCEEDED" },
        ring.len() as u64 + ring.evicted()
    );

    let causal_overhead = (1.0 - sps[4] / sps[0]) * 100.0;
    println!(
        "causal instrumentation (disabled) overhead: {causal_overhead:+.1}% (target < 5%) — {}",
        if causal_overhead < 5.0 {
            "OK"
        } else {
            "EXCEEDED"
        }
    );
    // CI gate (PRESTO_CAUSAL_GATE=1): the dormant causal hooks —
    // alloc scoping plus a no-op delay plan — must stay within 5% of
    // the un-instrumented engine.
    if std::env::var("PRESTO_CAUSAL_GATE").is_ok_and(|v| v == "1") {
        assert!(
            sps[4] >= sps[0] * 0.95,
            "causal instrumentation gate failed: {:.0} SPS < 95% of {:.0} SPS",
            sps[4],
            sps[0]
        );
    }

    // Raw recorder-op cost, both arms of the single branch.
    const OPS: u64 = 1_000_000;
    let live = Telemetry::new().begin_epoch(&["op".to_string()], 1, 0);
    let t0 = Instant::now();
    let started = Instant::now();
    for _ in 0..OPS {
        live.phase_done(0, PHASE_DECODE, t0);
    }
    let live_ns = started.elapsed().as_nanos() as f64 / OPS as f64;

    let noop = Telemetry::disabled().begin_epoch(&[], 1, 0);
    let started = Instant::now();
    for _ in 0..OPS {
        if let Some(t) = noop.begin() {
            noop.phase_done(0, PHASE_DECODE, t);
        }
    }
    let noop_ns = started.elapsed().as_nanos() as f64 / OPS as f64;
    println!(
        "recorder op cost: live phase_done {live_ns:.0} ns, disabled begin+branch {noop_ns:.1} ns"
    );
}
