//! Prints the paper's tables and figures from the simulator:
//!
//! ```sh
//! cargo bench -p presto-bench --bench repro -- [ID ...]
//! ```
//!
//! Every id when given none, each under a `== id: title` heading. One
//! id prints exactly its golden, `tests/fixtures/sim/<id>.txt`.

use presto_bench::bench_env;
use presto_bench::repro::EXPERIMENTS;
use std::process::ExitCode;

fn main() -> ExitCode {
    // cargo passes `--bench` to every bench target.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let mut chosen = Vec::new();
    for id in &ids {
        match EXPERIMENTS.iter().find(|(known, _, _)| known == id) {
            Some(experiment) => chosen.push(experiment),
            None => {
                let known: Vec<_> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
                eprintln!("repro: unknown id '{id}'; ids: {}", known.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS);
    }
    for (id, title, run) in &chosen {
        if chosen.len() > 1 {
            println!("\n== {id}: {title}");
        }
        print!("{}", run(bench_env()));
    }
    ExitCode::SUCCESS
}
