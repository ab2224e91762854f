//! `presto` — command-line interface to the preprocessing-strategy
//! profiler; `presto help` lists every command and flag.
//!
//! ```text
//! presto pipelines                     list built-in workloads
//! presto steps CV                      show a pipeline's steps (Fig. 2 style)
//! presto profile CV [options]          strategy sweep table
//! presto recommend CV --wt 1 --wp 1    weighted recommendation
//! presto cost CV --epochs 90           cheapest strategy for a campaign
//! presto fio --device ssd              Table-3-style storage profile
//! ```

mod args;
mod commands;
mod render;

use std::process::ExitCode;

/// With `--features alloc-profile`, every heap allocation is counted
/// into the active worker's phase scope, so `presto causal` reports
/// bytes/allocations/peak-live per step. Without the feature the
/// stock allocator runs and the alloc table is empty.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: presto_pipeline::telemetry::alloc::CountingAllocator =
    presto_pipeline::telemetry::alloc::CountingAllocator::system();

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprint!("{}", commands::usage(argv.first().map(String::as_str)));
            ExitCode::FAILURE
        }
    }
}
