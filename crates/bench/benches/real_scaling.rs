//! Real-engine thread scaling: actual worker threads decoding actual
//! (stand-in codec) images on this machine — the physical counterpart
//! of the simulated Figure 12, demonstrating that the library's real
//! engine parallelizes.

use presto::report::TableBuilder;
use presto_datasets::generators;
use presto_datasets::steps;
use presto_formats::image::jpg;
use presto_pipeline::real::{MemStore, RealExecutor};
use presto_pipeline::{Sample, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    println!("\n== Real engine: Thread scaling on this machine (actual threads)");
    let samples: usize = std::env::var("PRESTO_REAL_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(160);
    let pipeline = steps::executable_cv_pipeline(96, 80);
    let source: Vec<Sample> = (0..samples as u64)
        .map(|key| {
            let img = generators::natural_image(160, 120, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let store = MemStore::new();
    let available = std::thread::available_parallelism().map_or(4, |n| n.get());

    let mut table = TableBuilder::new(&["strategy", "1t SPS", "2t", "4t", "speedup@4t"]);
    for split in [0usize, 2] {
        let mut sps = Vec::new();
        for threads in [1usize, 2, 4] {
            let exec = RealExecutor::new(threads);
            let strategy = Strategy::at_split(split)
                .with_threads(threads)
                .with_shards(8);
            let (dataset, _) = exec
                .materialize(&pipeline, &strategy, &source, &store)
                .expect("materialize");
            // Median of 3 epochs for stability.
            let mut runs: Vec<f64> = (0..3)
                .map(|epoch| {
                    let count = AtomicU64::new(0);
                    let stats = exec
                        .epoch(&pipeline, &dataset, &store, None, epoch, |_| {
                            count.fetch_add(1, Ordering::Relaxed);
                        })
                        .expect("epoch");
                    assert_eq!(stats.samples as usize, samples);
                    stats.samples_per_second()
                })
                .collect();
            runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sps.push(runs[1]);
        }
        table.row(&[
            pipeline.split_name(split).to_string(),
            format!("{:.0}", sps[0]),
            format!("{:.0}", sps[1]),
            format!("{:.0}", sps[2]),
            format!("{:.1}x", sps[2] / sps[0]),
        ]);
    }
    println!("{}", table.render());
    println!("(host has {available} logical cores; decode-heavy strategies scale,");
    println!(" nearly-free strategies are bound by record framing + memcpy.)");
}
