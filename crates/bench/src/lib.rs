//! Shared helpers for the experiment bench targets.
//!
//! Every bench target regenerates one table or figure of the paper and
//! prints *paper vs measured* rows. Absolute numbers come from a
//! simulator, so the reproduction criterion is shape: orderings,
//! crossovers, and rough factors (see EXPERIMENTS.md).

use presto::report::{format_bytes, TableBuilder};
use presto_codecs::{Codec, Level};
use presto_datasets::all_workloads;
use presto_pipeline::sim::{SimEnv, StrategyProfile};
use presto_pipeline::Strategy;
use std::fmt::Write as _;

/// Print the standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// The environment used by benches: the paper's HDD VM with a subset
/// size tuned for bench runtime (override with `PRESTO_BENCH_SAMPLES`).
pub fn bench_env() -> SimEnv {
    let subset = std::env::var("PRESTO_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);
    SimEnv {
        subset_samples: subset,
        ..SimEnv::paper_vm()
    }
}

/// Same against the SSD cluster.
pub fn bench_env_ssd() -> SimEnv {
    SimEnv {
        device: presto_storage::DeviceProfile::ssd_ceph(),
        ..bench_env()
    }
}

/// Split index for a strategy label ("unprocessed" = 0, else after the
/// named step).
pub fn split_for(workload: &presto_datasets::Workload, label: &str) -> usize {
    if label == "unprocessed" {
        return 0;
    }
    workload
        .pipeline
        .step_names()
        .iter()
        .position(|n| *n == label)
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("{}: no step '{label}'", workload.pipeline.name))
}

/// Profile one labelled strategy with default knobs.
pub fn profile_label(
    workload: &presto_datasets::Workload,
    label: &str,
    env: SimEnv,
    epochs: usize,
) -> StrategyProfile {
    let split = split_for(workload, label);
    workload
        .simulator(env)
        .profile(&Strategy::at_split(split), epochs)
}

/// Print a footer summarizing pass/fail of shape checks.
pub fn summarize_shape(violations: &[(String, String)]) {
    if violations.is_empty() {
        println!("shape check: OK (all paper orderings preserved)");
    } else {
        println!("shape check: {} ordering violation(s):", violations.len());
        for (a, b) in violations {
            println!("  paper has {a} > {b}, measurement disagrees");
        }
    }
}

/// Figure 10's tables under `env`: for every pipeline, each strategy
/// (unprocessed omitted, as in the paper) stored plain, GZIP and ZLIB,
/// with storage, space saving, throughput and offline time relative to
/// the plain store.
pub fn fig10_compression_tables(env: SimEnv) -> String {
    let mut out = String::new();
    for workload in all_workloads() {
        let sim = workload.simulator(env.clone());
        let mut table = TableBuilder::new(&[
            "strategy",
            "codec",
            "storage",
            "saving",
            "SPS",
            "SPS vs none",
            "offline vs none",
        ]);
        // The paper omits unprocessed (bound by random access anyway).
        for base in Strategy::enumerate(&workload.pipeline).into_iter().skip(1) {
            let plain = sim.profile(&base, 1);
            let plain_sps = plain.throughput_sps();
            let plain_offline = plain.preprocessing_secs();
            for codec in [
                Codec::None,
                Codec::Gzip(Level::DEFAULT),
                Codec::Zlib(Level::DEFAULT),
            ] {
                let profile = sim.profile(&base.clone().with_compression(codec), 1);
                let saving = 1.0 - profile.storage_bytes as f64 / plain.storage_bytes as f64;
                table.row(&[
                    plain.label.clone(),
                    codec.name().to_string(),
                    format_bytes(profile.storage_bytes),
                    format!("{:.0}%", saving * 100.0),
                    format!("{:.0}", profile.throughput_sps()),
                    format!("{:.2}x", profile.throughput_sps() / plain_sps),
                    format!(
                        "{:.2}x",
                        profile.preprocessing_secs() / plain_offline.max(1e-9)
                    ),
                ]);
            }
        }
        let _ = writeln!(out, "-- {}\n{}", workload.pipeline.name, table.render());
    }
    out
}
