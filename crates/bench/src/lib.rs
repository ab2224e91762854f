//! The paper's reproduction and the helpers its bench targets share.
//!
//! [`repro`] regenerates every table and figure of the paper as a
//! function that prints *paper vs measured* rows; the `repro` bench
//! target prints them, and goldens under `tests/fixtures/sim/` pin
//! them. Absolute numbers come from a simulator, so the reproduction
//! criterion is shape: orderings, crossovers, and rough factors (see
//! EXPERIMENTS.md). The remaining bench targets time the real engine.

pub mod repro;

use presto_pipeline::sim::SimEnv;

/// The environment the reproduction runs in, and the one its goldens
/// pin: the paper's HDD VM, simulating an 8 000-sample subset.
pub fn bench_env() -> SimEnv {
    SimEnv {
        subset_samples: 8_000,
        ..SimEnv::paper_vm()
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
