//! Parallel strategy search: wall-clock speedup of the work-stealing
//! pool + offline-phase memo over a cold serial sweep of the CV grid.
//! The CI gate runs this on multi-core runners where `--jobs 4`
//! parallelizes the online simulations on top of the memo's offline
//! reuse; the acceptance bar there is >= 2x with memo hits > 0. On a
//! single-core host the pool degenerates to serial and only the memo
//! contributes (~2x structurally), so the hard bar is relaxed to the
//! memo-only floor. Both arms must agree on the recommendation — the
//! pool is bit-identical to serial by design.

use std::time::Instant;

use presto::search::{profile_grid_parallel, SearchOptions};
use presto::{Presto, Weights};
use presto_datasets::all_workloads;
use presto_pipeline::sim::SimEnv;

fn main() {
    println!("\n== Search: Parallel + memoized strategy search speedup (CV grid)");
    let workload = all_workloads()
        .into_iter()
        .find(|w| w.pipeline.name == "CV")
        .expect("CV workload");
    let presto = Presto::new(workload.pipeline, workload.dataset, SimEnv::paper_vm())
        .with_sample_count(4_000);

    let cold_opts = SearchOptions {
        jobs: 1,
        no_memo: true,
        ..SearchOptions::default()
    };
    let warm_opts = SearchOptions::with_jobs(4);

    // One untimed pass to settle page cache / CPU frequency, then three
    // interleaved timed passes per arm; keep the best of each so a
    // background hiccup in one pass cannot skew the ratio.
    let _ = profile_grid_parallel(&presto, &warm_opts);
    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    let mut cold = None;
    let mut warm = None;
    for _ in 0..3 {
        let t = Instant::now();
        cold = Some(profile_grid_parallel(&presto, &cold_opts));
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        warm = Some(profile_grid_parallel(&presto, &warm_opts));
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
    }
    let (cold, warm) = (cold.unwrap(), warm.unwrap());

    let speedup = cold_secs / warm_secs.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `--jobs 4` needs cores to parallelize the online simulations; with
    // one core only the offline-phase memo contributes.
    let bar = if cores >= 2 { 2.0 } else { 1.4 };
    let weights = Weights::MAX_THROUGHPUT;
    let cold_best = cold.analysis.recommend(weights).label.clone();
    let warm_best = warm.analysis.recommend(weights).label.clone();

    println!("grid points        : {}", warm.stats.grid_size);
    println!("host cores         : {cores}");
    println!("serial cold        : {cold_secs:.3} s  (jobs=1, memo off)");
    println!("parallel + memo    : {warm_secs:.3} s  (jobs=4)");
    println!(
        "memo               : {} hits / {} misses (unique offline phases)",
        warm.stats.memo_hits, warm.stats.memo_misses
    );
    println!("speedup            : {speedup:.2}x  (bar: >= {bar}x)");
    if cores < 2 {
        println!("note               : single-core host — the >= 2x gate is");
        println!("                     enforced by CI on multi-core runners");
    }
    println!("recommendation     : cold '{cold_best}'  warm '{warm_best}'");

    assert!(warm.stats.memo_hits > 0, "memo never hit on the CV grid");
    assert_eq!(cold_best, warm_best, "arms disagree on the recommendation");
    assert!(
        speedup >= bar,
        "search speedup {speedup:.2}x fell below the {bar}x acceptance bar"
    );
    println!("PASS: offline phases shared {}x over", warm.stats.memo_hits);
}
