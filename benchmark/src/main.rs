//! `presto-benchmark`: steady-state workloads over the local, serve and
//! fleetd paths of presto-rs, with a per-module ladder.
//!
//! ```text
//! presto-benchmark --workload W --seed N --seconds S --trace 0|1
//! presto-benchmark run [--seed N] [--out FILE]
//! presto-benchmark compare A.json B.json
//! ```
//!
//! The first form is one run: it prints every metric by name with its
//! unit, and ends with one JSON object on the last line of stdout. `run`
//! makes a complete set — every workload in turn, round after round, each
//! in a fresh child process, then one traced child per workload — and
//! `compare` judges one set against another by the bounds of
//! `BENCHMARK.json`. See `benchmark/README.md`.

mod ladder;
mod measure;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use measure::{EpochTimes, RunResult};
use report::{json_number, Results, Verdict, WorkloadResults};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Rounds of a complete set.
const ROUNDS: u64 = 3;
/// Seconds each child of a complete set measures for.
const SET_SECONDS: f64 = 4.0;
/// What an untraced run prints before its epoch-time distribution.
const EPOCH_LINE: &str = "epoch_ms ";

const USAGE: &str = "usage:
  presto-benchmark --workload W --seed N --seconds S --trace 0|1
  presto-benchmark run [--seed N] [--out FILE]
  presto-benchmark compare A.json B.json
workloads: cv-online cv-offline cv-offline-gzip cv-materialize-gzip serve-direct fleetd-2tenant";

/// The value of `--name` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .and_then(|value| value.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

/// Fails on any argument that is not one of the `allowed` flags or a
/// flag's value, so a mistyped or retired flag is never silently ignored.
fn only_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    match args
        .chunks(2)
        .find(|pair| !allowed.contains(&pair[0].as_str()))
    {
        Some(pair) => Err(format!("unexpected argument '{}'\n{USAGE}", pair[0])),
        None => Ok(()),
    }
}

/// The last line of a run's stdout: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_number(*value),
                spec::unit_of(name).unwrap_or("")
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

/// One run, in the form the acceptance driver calls.
fn single(args: &[String]) -> Result<ExitCode, String> {
    only_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload =
        Workload::named(&name, false).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.ok_or("--seconds is required")?;
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let result = measure::run(&workload, seed, seconds, traced)?;
    println!(
        "{name}: seed {seed}, {seconds} s, trace {}",
        u8::from(traced)
    );
    for (metric, value) in &result.metrics {
        let unit = spec::unit_of(metric).unwrap_or("");
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
    for note in &result.notes {
        println!("  {note}");
    }
    if let Some(epochs) = &result.epochs {
        println!("{EPOCH_LINE}{}", report::epoch_times_json(epochs));
    }
    println!(
        "  attempted {} samples, failed {}",
        result.attempted, result.failed
    );
    // A value that is not a number would not be valid JSON: a bug here,
    // never a result.
    let all_finite = result.metrics.iter().all(|(_, v)| v.is_finite());
    println!("{}", result_line(&result));
    Ok(if result.correct && all_finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What a child run printed: its last line, and its epoch times.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    epochs: Option<EpochTimes>,
}

/// Run this program again as a child for one (workload, trace) and parse
/// what it printed.
fn child(name: &str, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &SET_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = presto_telemetry::export::parse_json(last).map_err(|e| {
        format!(
            "{name}: child printed no result ({e}): {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() {
        return Err(format!(
            "{name}: child failed its correctness check: {last}"
        ));
    }
    let metrics = match parsed.require("metrics")? {
        presto_telemetry::export::JsonValue::Object(members) => members
            .iter()
            .map(|(metric, entry)| Ok((metric.clone(), entry.require_f64("value")?)))
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err(format!("{name}: 'metrics' is not an object")),
    };
    let epochs = stdout
        .lines()
        .find_map(|line| line.strip_prefix(EPOCH_LINE))
        .map(|json| report::epoch_times(&presto_telemetry::export::parse_json(json)?))
        .transpose()?;
    Ok(ChildRun {
        attempted: parsed.require_f64("attempted")? as u64,
        failed: parsed.require_f64("failed")? as u64,
        metrics,
        epochs,
    })
}

/// A complete set: [`ROUNDS`] rounds over all workloads, then the traced
/// children. Visiting every workload once per round spreads slow host
/// drift over all of them alike.
fn full_run(args: &[String]) -> Result<ExitCode, String> {
    only_flags(args, &["--seed", "--out"])?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let out: std::path::PathBuf = flag(args, "--out")?.unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("run-seed{seed}.json"))
    });
    let mut results = Results {
        seed,
        seconds: SET_SECONDS,
        rounds: ROUNDS,
        workloads: workloads::NAMES
            .iter()
            .map(|name| WorkloadResults {
                name: name.to_string(),
                ..WorkloadResults::default()
            })
            .collect(),
    };
    for round in 1..=ROUNDS {
        for slot in &mut results.workloads {
            let run = child(&slot.name, seed, false)?;
            eprintln!("round {round}/{ROUNDS} {:<20} ok", slot.name);
            slot.attempted += run.attempted;
            slot.failed += run.failed;
            slot.epochs.push(
                run.epochs
                    .ok_or_else(|| format!("{}: child printed no epoch times", slot.name))?,
            );
            for (metric, value) in run.metrics {
                match slot.end_to_end.iter_mut().find(|(name, _)| *name == metric) {
                    Some((_, values)) => values.push(value),
                    None => slot.end_to_end.push((metric, vec![value])),
                }
            }
        }
    }
    for slot in &mut results.workloads {
        let run = child(&slot.name, seed, true)?;
        eprintln!("traced {:<26} ok", slot.name);
        slot.attempted += run.attempted;
        slot.failed += run.failed;
        slot.per_layer = run.metrics;
    }

    for w in &results.workloads {
        println!(
            "{} (failed_share {} of {} samples)",
            w.name,
            json_number(w.failed_share()),
            w.attempted
        );
        for (metric, values) in &w.end_to_end {
            let (q1, q3) = stats::quartiles(values);
            println!(
                "  {metric:<34} {:>16.4} {:<6} [{q1:.4}, {q3:.4}] n={}",
                stats::median(values),
                spec::unit_of(metric).unwrap_or(""),
                values.len()
            );
        }
        let epochs = report::epoch_summary(w);
        println!(
            "  {} timed epochs: median {:.4} ms, p95 {:.4} ms",
            epochs.count, epochs.median_ms, epochs.p95_ms
        );
        for (metric, value) in &w.per_layer {
            let unit = spec::unit_of(metric).unwrap_or("");
            println!("  {metric:<34} {value:>16.4} {unit}");
        }
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, results.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// Judge set B against set A; fails on any `worse` and on more failures.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let comparison = report::compare(&a, &b)?;
    println!(
        "{:<20} {:<24} {:>12} {:>25} {:>12} {:>25}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]"
    );
    for row in &comparison.rows {
        println!(
            "{:<20} {:<24} {:>12.4} {:>25} {:>12.4} {:>25}  {}",
            row.workload,
            row.metric,
            row.a.median,
            format!("[{:.4}, {:.4}]", row.a.q1, row.a.q3),
            row.b.median,
            format!("[{:.4}, {:.4}]", row.b.q1, row.b.q3),
            row.verdict.label()
        );
    }
    println!("all timed epochs, not judged: count, median ms, p95 ms");
    for (workload, ea, eb) in &comparison.epochs {
        println!(
            "{workload:<20} A {:>6} {:>12.4} {:>12.4}   B {:>6} {:>12.4} {:>12.4}",
            ea.count, ea.median_ms, ea.p95_ms, eb.count, eb.median_ms, eb.p95_ms
        );
    }
    let count = |verdict| {
        comparison
            .rows
            .iter()
            .filter(|r| r.verdict == verdict)
            .count()
    };
    let worse = count(Verdict::Worse);
    println!(
        "{} rows: {worse} worse, {} unresolved; failed_share rose on {:?}",
        comparison.rows.len(),
        count(Verdict::Unresolved),
        comparison.more_failures
    );
    Ok(if worse == 0 && comparison.more_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => full_run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(first) if first.starts_with("--") => single(&args),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("presto-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_telemetry::export::{parse_json, JsonValue};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn word(better: spec::Better) -> &'static str {
        match better {
            spec::Better::Higher => "higher",
            spec::Better::Lower => "lower",
        }
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<JsonValue> {
        doc.get(key).and_then(|v| v.as_array()).unwrap().to_vec()
    }

    fn benchmark_json() -> JsonValue {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// A tiny run of `name`, traced or not.
    fn smoke(name: &str, traced: bool) -> RunResult {
        let workload = Workload::named(name, true).unwrap();
        measure::run(&workload, 3, 0.05, traced).unwrap()
    }

    #[test]
    fn all_six_workloads_run_and_pass_the_checksum_gate() {
        let doc = benchmark_json();
        let names = |key: &str| -> BTreeSet<String> {
            declared(&doc, key)
                .iter()
                .map(|m| m.require_str("name").unwrap().to_string())
                .collect()
        };
        let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));
        for name in workloads::NAMES {
            for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
                let result = smoke(name, traced);
                assert!(result.correct, "{name} traced={traced}: {result:?}");
                assert_eq!(result.failed, 0);
                assert!(result.attempted > 0);
                assert_eq!(result.epochs.is_some(), !traced);
                let emitted: BTreeSet<String> =
                    result.metrics.iter().map(|(n, _)| n.to_string()).collect();
                assert_eq!(&emitted, expected, "{name} traced={traced}");
                assert_eq!(emitted.len(), result.metrics.len(), "a metric twice");
                for (metric, value) in &result.metrics {
                    assert!(value.is_finite(), "{name} {metric} = {value}");
                }
                let line = parse_json(&result_line(&result)).unwrap();
                let JsonValue::Object(keys) = &line else {
                    panic!("result line is not an object")
                };
                let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            // End-to-end metrics are never 0.
            for (metric, value) in smoke(name, false).metrics {
                assert!(value > 0.0, "{name} {metric} = {value}");
            }
        }
    }

    #[test]
    fn the_dominant_layer_shows_in_each_ladder() {
        let share = |name: &str, layers: &[&str]| {
            let result = smoke(name, true);
            let get = |metric: &str| {
                result
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == metric)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            (
                layers.iter().map(|l| get(l)).sum::<f64>(),
                get("ladder.serial_ns_per_sample"),
                result,
            )
        };
        let steps = [
            "steps.decode-image_ns",
            "steps.resize_ns",
            "steps.pixel-center_ns",
        ];
        let (in_steps, serial, _) = share("cv-online", &steps);
        assert!(in_steps > 0.5 * serial, "steps {in_steps} of {serial}");
        // Fully preprocessed: the first three steps and both codecs never run.
        let (in_steps, _, offline) = share("cv-offline", &steps);
        assert_eq!(in_steps, 0.0);
        for (metric, value) in &offline.metrics {
            if metric.starts_with("codecs.inflate") || metric.starts_with("codecs.deflate") {
                assert_eq!(*value, 0.0, "{metric}");
            }
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc = benchmark_json();
        let JsonValue::Object(keys) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: BTreeSet<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        let expected = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        assert_eq!(keys, BTreeSet::from(expected));

        let workloads: Vec<String> = declared(&doc, "workloads")
            .iter()
            .map(|w| w.require_str("name").unwrap().to_string())
            .collect();
        assert_eq!(workloads, workloads::NAMES);
        for w in declared(&doc, "workloads") {
            let why = w.require_str("why").unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let end_to_end = declared(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), spec::END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&spec::END_TO_END) {
            assert_eq!(entry.require_str("name").unwrap(), metric.name);
            assert_eq!(entry.require_str("unit").unwrap(), metric.unit);
            assert_eq!(entry.require_str("better").unwrap(), word(metric.better));
            assert_eq!(entry.require_f64("bound").unwrap(), metric.bound);
            assert!(metric.bound <= 0.25);
        }
        let per_layer = declared(&doc, "per_layer");
        assert_eq!(per_layer.len(), spec::PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(&spec::PER_LAYER) {
            assert_eq!(entry.require_str("name").unwrap(), metric.name);
            assert_eq!(entry.require_str("unit").unwrap(), metric.unit);
            assert_eq!(entry.require_str("better").unwrap(), word(metric.better));
        }

        let mut seen = BTreeSet::new();
        let all = spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all.chain(workloads::NAMES.iter().map(|n| (*n, "count"))) {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(spec::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == spec::Better::Lower));
    }

    #[test]
    fn flags_parse_or_say_why_not() {
        let args: Vec<String> = ["--seed", "9", "--seconds", "x"].map(String::from).to_vec();
        assert_eq!(flag::<u64>(&args, "--seed"), Ok(Some(9)));
        assert_eq!(flag::<u64>(&args, "--trace"), Ok(None));
        assert!(flag::<f64>(&args, "--seconds").is_err());
        assert!(only_flags(&args, &["--seed", "--seconds"]).is_ok());
        let error = only_flags(&args, &["--seed", "--out"]).unwrap_err();
        assert!(error.contains("'--seconds'"), "{error}");
    }
}
