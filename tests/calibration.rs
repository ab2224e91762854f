//! Calibration integration tests: the simulated pipelines must
//! reproduce the *shape* of the paper's results — orderings always,
//! magnitudes within a tolerance factor (the substrate is a simulator,
//! not the authors' cluster).
//!
//! Run with `-- --nocapture` to see full paper-vs-measured tables.

use presto::report::{comparison_table, shape_check, Comparison};
use presto_datasets::{all_workloads, anchors, cv, nlp};
use presto_integration_tests::{fast_env, fast_env_ssd};
use presto_pipeline::sim::{SimEnv, StrategyProfile};
use presto_pipeline::{CacheLevel, Strategy};

/// Measured (SPS, MB/s) of one split under an env.
fn measure(
    workload: &presto_datasets::Workload,
    split: usize,
    env: presto_pipeline::sim::SimEnv,
) -> StrategyProfile {
    workload
        .simulator(env)
        .profile(&Strategy::at_split(split), 1)
}

fn split_index(workload: &presto_datasets::Workload, label: &str) -> usize {
    if label == "unprocessed" {
        return 0;
    }
    workload
        .pipeline
        .step_names()
        .iter()
        .position(|n| *n == label)
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("{}: no step {label}", workload.pipeline.name))
}

#[test]
fn table4_throughputs_reproduce() {
    let mut comparisons = Vec::new();
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        for strategy in ["unprocessed", "concatenated"] {
            let Some(paper) = anchors::find(
                anchors::TABLE4_HDD,
                &name,
                strategy,
                anchors::Metric::ThroughputSps,
            ) else {
                continue;
            };
            let split = split_index(&workload, strategy);
            let profile = measure(&workload, split, fast_env());
            comparisons.push(Comparison::new(
                &format!("{name} {strategy} SPS"),
                paper,
                profile.throughput_sps(),
            ));
        }
    }
    println!("{}", comparison_table("Table 4 (HDD)", &comparisons));
    let violations = shape_check(&comparisons);
    assert!(violations.is_empty(), "ordering violations: {violations:?}");
    for c in &comparisons {
        assert!(c.within_factor(2.0), "{} off by {:.2}x", c.what, c.ratio());
    }
}

#[test]
fn table4_ssd_rows_reproduce() {
    let mut comparisons = Vec::new();
    for (name, workload) in [("CV", cv::cv()), ("NLP", nlp::nlp())] {
        for strategy in ["unprocessed", "concatenated"] {
            let paper = anchors::find(
                anchors::TABLE4_SSD,
                name,
                strategy,
                anchors::Metric::ThroughputSps,
            )
            .unwrap();
            let split = split_index(&workload, strategy);
            let profile = measure(&workload, split, fast_env_ssd());
            comparisons.push(Comparison::new(
                &format!("{name} {strategy} SSD SPS"),
                paper,
                profile.throughput_sps(),
            ));
        }
    }
    println!("{}", comparison_table("Table 4 (SSD)", &comparisons));
    // The paper's NLP-on-SSD anomaly (3 SPS < HDD's 6) is a cluster
    // artifact it does not explain; we check CV tightly and NLP loosely
    // (CPU-bound ⇒ storage-independent).
    for c in &comparisons {
        let factor = if c.what.starts_with("CV") { 2.0 } else { 3.0 };
        assert!(
            c.within_factor(factor),
            "{} off by {:.2}x",
            c.what,
            c.ratio()
        );
    }
}

#[test]
fn table1_cv_tradeoffs_reproduce() {
    let workload = cv::cv();
    let mut comparisons = Vec::new();
    for (label, paper_sps, paper_gb) in [
        ("unprocessed", 107.0, 146.0),
        ("pixel-centered", 576.0, 1_535.0),
        ("resized", 1_789.0, 494.0),
    ] {
        let split = split_index(&workload, label);
        let profile = measure(&workload, split, fast_env());
        comparisons.push(Comparison::new(
            &format!("CV {label} SPS"),
            paper_sps,
            profile.throughput_sps(),
        ));
        // Tab. 1 storage for "all steps once" includes the decode
        // blow-up; our figure tracks the materialized set (text values).
        let measured_gb = profile.storage_bytes as f64 / 1e9;
        comparisons.push(Comparison::new(
            &format!("CV {label} storage GB"),
            paper_gb,
            measured_gb,
        ));
    }
    println!("{}", comparison_table("Table 1", &comparisons));
    for c in comparisons.iter().filter(|c| c.what.ends_with("SPS")) {
        assert!(c.within_factor(2.0), "{} off by {:.2}x", c.what, c.ratio());
    }
    // The headline: resized beats both alternatives decisively.
    let sps: Vec<f64> = comparisons
        .iter()
        .filter(|c| c.what.ends_with("SPS"))
        .map(|c| c.measured)
        .collect();
    assert!(
        sps[2] > 2.0 * sps[1],
        "resized must beat pixel-centered ~3x"
    );
    assert!(sps[2] > 8.0 * sps[0], "resized must beat unprocessed >>");
}

#[test]
fn fig6_best_strategies_match_paper() {
    // The winner per pipeline, from the paper's Figure 6 + Section 4.1.
    let expected: &[(&str, &str)] = &[
        ("CV", "resized"),
        ("CV2-JPG", "resized"),
        ("CV2-PNG", "resized"),
        ("NLP", "bpe-encoded"),
        ("NILM", "aggregated"),
        ("MP3", "spectrogram-encoded"),
        ("FLAC", "spectrogram-encoded"),
    ];
    for (workload, (name, best_label)) in all_workloads().iter().zip(expected) {
        assert_eq!(&workload.pipeline.name, name);
        let sim = workload.simulator(fast_env());
        let profiles = sim.profile_all(1);
        let best = profiles
            .iter()
            .max_by(|a, b| a.throughput_sps().partial_cmp(&b.throughput_sps()).unwrap())
            .unwrap();
        println!(
            "{name}: best = {} at {:.0} SPS ({:?})",
            best.label,
            best.throughput_sps(),
            profiles
                .iter()
                .map(|p| format!("{}={:.0}", p.label, p.throughput_sps()))
                .collect::<Vec<_>>()
        );
        assert_eq!(&best.label, best_label, "{name} best strategy");
    }
}

#[test]
fn fully_preprocessing_is_not_best_for_cv_family_and_nlp() {
    // Lesson 1: in 4 of 7 pipelines the fully preprocessed dataset is
    // not the fastest.
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        let sim = workload.simulator(fast_env());
        let profiles = sim.profile_all(1);
        let last = profiles.last().unwrap();
        let best_sps = profiles
            .iter()
            .map(StrategyProfile::throughput_sps)
            .fold(0.0, f64::max);
        let full_is_best = last.throughput_sps() >= best_sps * 0.999;
        match name.as_str() {
            "CV" | "CV2-JPG" | "CV2-PNG" | "NLP" => {
                assert!(!full_is_best, "{name}: full preprocessing should not win");
            }
            _ => {
                assert!(full_is_best, "{name}: full preprocessing should win");
            }
        }
    }
}

#[test]
fn unprocessed_is_never_the_best_strategy() {
    // The paper's conclusion: "not preprocessing the dataset before
    // training is never the best solution for all pipelines".
    for workload in all_workloads() {
        let sim = workload.simulator(fast_env());
        let profiles = sim.profile_all(1);
        let unprocessed = profiles.first().unwrap().throughput_sps();
        let best = profiles
            .iter()
            .map(StrategyProfile::throughput_sps)
            .fold(0.0, f64::max);
        assert!(
            best > unprocessed * 1.01,
            "{}: unprocessed ({unprocessed:.0}) must not be best ({best:.0})",
            workload.pipeline.name
        );
    }
}

#[test]
fn table5_caching_speedups_reproduce() {
    let mut rows = Vec::new();
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        let last = workload.pipeline.max_split();
        let last_label = workload.pipeline.split_name(last).to_string();
        let Some(paper_sys) = anchors::find(
            anchors::TABLE5,
            &name,
            &last_label,
            anchors::Metric::SysCacheSpeedup,
        ) else {
            continue;
        };
        let paper_app = anchors::find(
            anchors::TABLE5,
            &name,
            &last_label,
            anchors::Metric::AppCacheSpeedup,
        )
        .unwrap();
        let sim = workload.simulator(fast_env());
        let base = sim.profile(&Strategy::at_split(last), 1).throughput_sps();
        let sys = sim
            .profile(&Strategy::at_split(last).with_cache(CacheLevel::System), 2)
            .epochs[1]
            .throughput_sps;
        let app_profile = sim.profile(
            &Strategy::at_split(last).with_cache(CacheLevel::Application),
            2,
        );
        let app = app_profile.epochs.get(1).map_or(0.0, |e| e.throughput_sps);
        rows.push((
            Comparison::new(&format!("{name} sys-cache speedup"), paper_sys, sys / base),
            Comparison::new(&format!("{name} app-cache speedup"), paper_app, app / base),
        ));
    }
    let flat: Vec<Comparison> = rows
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    println!("{}", comparison_table("Table 5 caching speedups", &flat));
    for (sys, app) in &rows {
        // Shape: caching never hurts, app ≥ sys, magnitudes loose.
        assert!(sys.measured >= 0.95, "{}: cache made it slower", sys.what);
        assert!(
            app.measured >= sys.measured * 0.9,
            "{}: app < sys",
            app.what
        );
        assert!(
            sys.within_factor(3.0),
            "{} off {:.2}x",
            sys.what,
            sys.ratio()
        );
        assert!(
            app.within_factor(3.0),
            "{} off {:.2}x",
            app.what,
            app.ratio()
        );
    }
}

#[test]
fn app_cache_fails_for_cv_and_nlp_last_strategies() {
    // Table 5's footnote: CV and NLP last strategies "failed to run
    // with application-level caching" (dataset exceeds memory).
    for workload in [cv::cv(), nlp::nlp()] {
        let last = workload.pipeline.max_split();
        let sim = workload.simulator(fast_env());
        let profile = sim.profile(
            &Strategy::at_split(last).with_cache(CacheLevel::Application),
            2,
        );
        assert!(
            matches!(
                profile.error,
                Some(presto_pipeline::PipelineError::CacheOverflow { .. })
            ),
            "{} should overflow the app cache",
            workload.pipeline.name
        );
    }
}

#[test]
fn fig10_compression_shapes_reproduce() {
    use presto_codecs::{Codec, Level};
    // The paper's Section 4.3: CV-family pixel-centered gains 1.6-2.4x
    // from compression; NLP never gains (CPU-bound); MP3/FLAC/NILM
    // slow down.
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        let sim = workload.simulator(fast_env());
        let last = workload.pipeline.max_split();
        let plain = sim.profile(&Strategy::at_split(last), 1);
        let gz = sim.profile(
            &Strategy::at_split(last).with_compression(Codec::Gzip(Level::DEFAULT)),
            1,
        );
        let gain = gz.throughput_sps() / plain.throughput_sps();
        match name.as_str() {
            "CV" | "CV2-JPG" | "CV2-PNG" => {
                assert!(
                    gain > 1.2 && gain < 2.6,
                    "{name} pixel-centered compression gain {gain:.2} (paper 1.6-2.4x)"
                );
            }
            "NLP" => assert!(gain < 1.05, "{name} must not gain: {gain:.2}"),
            _ => assert!(gain < 1.05, "{name} must slow down or stay flat: {gain:.2}"),
        }
        // Compression always shrinks storage and inflates offline time.
        assert!(gz.storage_bytes < plain.storage_bytes, "{name}");
        assert!(
            gz.preprocessing_secs() >= plain.preprocessing_secs() * 0.999,
            "{name} offline time should not shrink"
        );
    }
}

/// The Figure 10 tables `presto-bench`'s `fig10_compression` prints, at
/// the bench's default environment (`PRESTO_BENCH_SAMPLES` unset),
/// compared byte for byte with `tests/fixtures/sim/fig10_compression.txt`.
/// A change to the compression model shows up here as a diff to review.
/// After a deliberate model change, regenerate it with
///
/// ```sh
/// cargo bench -q -p presto-bench --bench fig10_compression \
///   | tail -n +5 | head -n -3 > tests/fixtures/sim/fig10_compression.txt
/// ```
#[test]
fn fig10_compression_tables_match_the_simulator_golden() {
    let env = SimEnv {
        subset_samples: 8_000,
        ..SimEnv::paper_vm()
    };
    let got = presto_bench::fig10_compression_tables(env);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/sim/fig10_compression.txt"
    );
    let want = std::fs::read_to_string(path).unwrap();
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
        panic!("{path}: the simulator's tables differ, first at line {line:?}");
    }
}

#[test]
fn bottleneck_attribution_matches_paper_analysis() {
    // The paper's Section 4 narrative, automated:
    //  - NLP unprocessed: CPU bottleneck in the GIL-held decode → Lock.
    //  - NILM aggregated: tiny samples → dispatch-bound.
    //  - CV resized: reads near the bandwidth limit → Storage.
    use presto::{diagnose, Bottleneck, Presto};
    let cases: &[(&presto_datasets::Workload, &str, Bottleneck)] = &[
        (&nlp::nlp(), "unprocessed", Bottleneck::Lock),
        (
            &presto_datasets::nilm::nilm(),
            "aggregated",
            Bottleneck::Dispatch,
        ),
        (&cv::cv(), "resized", Bottleneck::Storage),
    ];
    for (workload, label, expected) in cases {
        let env = fast_env();
        let presto = Presto::new(
            workload.pipeline.clone(),
            workload.dataset.clone(),
            env.clone(),
        );
        let split = split_index(workload, label);
        let profile = presto.profile_strategy(&Strategy::at_split(split), 1);
        let diagnosis = diagnose(&profile, &env).unwrap();
        assert_eq!(
            diagnosis.bottleneck, *expected,
            "{} {label}: {diagnosis:?}",
            workload.pipeline.name
        );
    }
}

#[test]
fn sixteen_threads_improve_cv_throughput() {
    // Section 4.1 observation 3: running the CV pipeline with 16
    // threads (on 8 VCPUs) still improves decoded/resized/pixel-centered
    // throughput — more outstanding reads hide I/O latency.
    let workload = cv::cv();
    let sim = workload.simulator(fast_env());
    for label in ["decoded", "resized", "pixel-centered"] {
        let split = split_index(&workload, label);
        let eight = sim.profile(&Strategy::at_split(split).with_threads(8), 1);
        let sixteen = sim.profile(&Strategy::at_split(split).with_threads(16), 1);
        assert!(
            sixteen.throughput_sps() >= eight.throughput_sps() * 0.98,
            "{label}: 16t {:.0} vs 8t {:.0}",
            sixteen.throughput_sps(),
            eight.throughput_sps()
        );
    }
}

#[test]
fn fig3_stall_analysis_matches() {
    // Measured CV strategies vs the accelerator ingestion constants.
    let workload = cv::cv();
    let sim = workload.simulator(fast_env());
    let resized = sim
        .profile(&Strategy::at_split(split_index(&workload, "resized")), 1)
        .throughput_sps();
    let stalled = presto_datasets::hardware::stalled_at(resized);
    assert!(
        !stalled.contains(&"V100"),
        "optimal strategy must feed a V100 (got {resized:.0} SPS)"
    );
    let unprocessed = sim.profile(&Strategy::at_split(0), 1).throughput_sps();
    assert_eq!(
        presto_datasets::hardware::stalled_at(unprocessed).len(),
        presto_datasets::hardware::ACCELERATORS.len(),
        "unprocessed stalls everything"
    );
}
