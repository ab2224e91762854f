//! The paper's evaluation as pinned functions: one per table and
//! figure, each rendering what the paper reports beside what the
//! simulator gives under `env`.
//!
//! `cargo bench -p presto-bench --bench repro -- <id>` prints one of
//! them, and `tests/fixtures/sim/<id>.txt` pins that output byte for
//! byte, so a change to the simulator or to `SimEnv::paper_vm()` shows
//! up as a diff of the reproduction. [`scorecard`] gathers every
//! paper-vs-ours comparison the experiments make into one report,
//! which EXPERIMENTS.md embeds.

use crate::split_for;
use presto::fidelity::{sufficient_sample_count, sweep};
use presto::report::{comparison_table, format_bytes, shape_check, Comparison, TableBuilder};
use presto::{Presto, Weights};
use presto_codecs::{Codec, Level};
use presto_datasets::growth::{log_growth_per_year, Domain, GROWTH};
use presto_datasets::hardware::{keeps_busy, ACCELERATORS};
use presto_datasets::synthetic::{records, rms, sample_sizes_mb, RmsImpl, SynthDType};
use presto_datasets::{all_workloads, anchors, cv, nlp, Workload};
use presto_pipeline::distributed::{fan_out, offline_scaling};
use presto_pipeline::sim::{SimEnv, StrategyProfile};
use presto_pipeline::{CacheLevel, Strategy};
use presto_storage::fio::{self, FioWorkload};
use presto_storage::DeviceProfile;
use std::fmt::Write as _;

/// One experiment: its id (the name of its golden), the part of the
/// paper it reproduces, and the function that renders it.
pub type Experiment = (&'static str, &'static str, fn(SimEnv) -> String);

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig1_growth", "Figure 1", fig1_growth),
    ("table2_datasets", "Table 2", table2_datasets),
    ("table3_fio", "Table 3", table3_fio),
    ("fig3_hardware", "Figure 3", fig3_hardware),
    ("table1_cv_tradeoffs", "Table 1", table1_cv_tradeoffs),
    ("table4_concat", "Table 4", table4_concat),
    ("fig6_strategies", "Figure 6", fig6_strategies),
    ("fig7_sample_size", "Figure 7", fig7_sample_size),
    ("fig8_caching", "Figure 8", fig8_caching),
    ("fig9_cache_levels", "Figure 9", fig9_cache_levels),
    ("table5_cache_speedup", "Table 5", table5_cache_speedup),
    ("fig10_compression", "Figure 10", fig10_compression),
    ("fig11_scaling_synth", "Figure 11", fig11_scaling_synth),
    ("fig12_scaling", "Figure 12", fig12_scaling),
    ("fig13_extlib", "Figure 13", fig13_extlib),
    ("fig14_greyscale", "Figure 14", fig14_greyscale),
    (
        "discussion_distributed",
        "Section 7",
        discussion_distributed,
    ),
    ("subset_fidelity", "Section 2", subset_fidelity),
    ("scorecard", "Scorecard", scorecard),
];

/// An experiment's text and the paper-vs-ours comparisons behind it, in
/// groups whose orderings are shape-checked apart.
type Scored = (String, Vec<Vec<Comparison>>);

/// The footer that reports the shape check's violated pairs.
fn shape_summary(violations: &[(String, String)]) -> String {
    if violations.is_empty() {
        return "shape check: OK (all paper orderings preserved)\n".into();
    }
    let mut out = format!("shape check: {} ordering violation(s):\n", violations.len());
    for (a, b) in violations {
        let _ = writeln!(out, "  paper has {a} > {b}, measurement disagrees");
    }
    out
}

/// Profile one labelled strategy with default knobs for one epoch.
fn profile_label(workload: &Workload, label: &str, env: SimEnv) -> StrategyProfile {
    let split = split_for(workload, label);
    workload
        .simulator(env)
        .profile(&Strategy::at_split(split), 1)
}

/// Every comparison of Tables 1, 3, 4 and 5 and Figures 6 and 14, one
/// table per experiment, each followed by its shape check.
pub fn scorecard(env: SimEnv) -> String {
    let scored = [
        ("Table 1 (table1_cv_tradeoffs)", table1(env.clone())),
        ("Table 3 (table3_fio)", table3(env.clone())),
        ("Table 4 (table4_concat)", table4(env.clone())),
        ("Table 5 (table5_cache_speedup)", table5(env.clone())),
        ("Figure 6 (fig6_strategies)", fig6(env.clone())),
        ("Figure 14 (fig14_greyscale)", fig14(env)),
    ];
    let tables: Vec<String> = scored
        .iter()
        .map(|(title, (_, groups))| {
            let violations: Vec<_> = groups.iter().flat_map(|g| shape_check(g)).collect();
            format!(
                "{}\n{}",
                comparison_table(title, &groups.concat()),
                shape_summary(&violations)
            )
        })
        .collect();
    tables.join("\n")
}

/// Table 1: trade-offs for the CV pipeline at the three motivating
/// strategies — throughput and storage for "all steps at every
/// iteration" (unprocessed), "all steps once" (pixel-centered) and
/// "until resize step once" (resized).
pub fn table1_cv_tradeoffs(env: SimEnv) -> String {
    table1(env).0
}

fn table1(env: SimEnv) -> Scored {
    let mut out = String::new();
    let workload = cv::cv();
    let rows: &[(&str, &str, f64, f64)] = &[
        ("all steps at every iteration", "unprocessed", 107.0, 146.0),
        ("all steps once", "pixel-centered", 576.0, 1_535.0),
        ("until resize step once", "resized", 1_789.0, 494.0),
    ];
    let mut table = TableBuilder::new(&[
        "preprocessing strategy",
        "paper SPS",
        "measured SPS",
        "paper GB",
        "measured GB",
    ]);
    let mut sps_comparisons = Vec::new();
    let mut gb_comparisons = Vec::new();
    for (strategy_name, label, paper_sps, paper_gb) in rows {
        let profile = profile_label(&workload, label, env.clone());
        let measured_sps = profile.throughput_sps();
        let measured_gb = profile.storage_bytes as f64 / 1e9;
        table.row(&[
            strategy_name.to_string(),
            format!("{paper_sps:.0}"),
            format!("{measured_sps:.0}"),
            format!("{paper_gb:.0}"),
            format!("{measured_gb:.0}"),
        ]);
        sps_comparisons.push(Comparison::new(
            &format!("CV {label} SPS"),
            *paper_sps,
            measured_sps,
        ));
        gb_comparisons.push(Comparison::new(
            &format!("CV {label} GB"),
            *paper_gb,
            measured_gb,
        ));
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "{}",
        comparison_table("throughput detail", &sps_comparisons)
    );
    let [unprocessed, centered, resized] = &sps_comparisons[..] else {
        unreachable!("three strategies")
    };
    let _ = writeln!(
        out,
        "paper: resized is {:.1}x pixel-centered and {:.1}x unprocessed",
        1_789.0 / 576.0,
        1_789.0 / 107.0
    );
    let _ = writeln!(
        out,
        "ours : resized is {:.1}x pixel-centered and {:.1}x unprocessed",
        resized.measured / centered.measured,
        resized.measured / unprocessed.measured
    );
    out.push_str(&shape_summary(&shape_check(&sps_comparisons)));
    (out, vec![sps_comparisons, gb_comparisons])
}

/// Table 2: metadata of all profiled datasets — sample count, total
/// size, average sample size, source format.
pub fn table2_datasets(_env: SimEnv) -> String {
    let formats = ["JPG", "JPG", "PNG", "TXT", "HDF5", "MP3", "FLAC"];
    let paper: &[(u64, f64, f64)] = &[
        (1_300_000, 146.90, 0.1147),
        (4_890, 2.54, 0.5203),
        (4_890, 85.17, 17.4176),
        (181_000, 7.71, 0.0427),
        (268_000, 39.56, 0.1477),
        (13_000, 0.25, 0.0197),
        (29_000, 6.61, 0.2319),
    ];
    let mut table = TableBuilder::new(&[
        "pipeline",
        "samples",
        "paper GB",
        "ours GB",
        "paper MB/sample",
        "ours MB/sample",
        "format",
    ]);
    for ((workload, (count, gb, mb)), format) in all_workloads().iter().zip(paper).zip(formats) {
        assert_eq!(workload.dataset.sample_count, *count);
        table.row(&[
            workload.pipeline.name.clone(),
            format!("{count}"),
            format!("{gb:.2}"),
            format!("{:.2}", workload.dataset.total_bytes() / 1e9),
            format!("{mb:.4}"),
            format!("{:.4}", workload.dataset.unprocessed_sample_bytes / 1e6),
            format.to_string(),
        ]);
    }
    format!(
        "{}\n(formats are the stand-in codecs documented in DESIGN.md)\n",
        table.render()
    )
}

/// Table 3: fio profile of the storage cluster — sequential vs random
/// access bandwidth at 1 and 8 threads, on the simulated HDD Ceph
/// device (plus the SSD profile for comparison).
pub fn table3_fio(env: SimEnv) -> String {
    table3(env).0
}

fn table3(_env: SimEnv) -> Scored {
    let mut out = String::new();
    let paper = [219.0, 910.0, 6.6, 40.4];
    let hdd = DeviceProfile::hdd_ceph();
    let ssd = DeviceProfile::ssd_ceph();
    let mut table = TableBuilder::new(&[
        "threads",
        "files/thread",
        "paper MB/s",
        "hdd MB/s",
        "ssd MB/s",
        "requests/s",
    ]);
    let mut comparisons = Vec::new();
    for (workload, paper_mbps) in FioWorkload::table3().iter().zip(paper) {
        let hdd_result = fio::run(&hdd, *workload);
        let ssd_result = fio::run(&ssd, *workload);
        table.row(&[
            workload.threads.to_string(),
            workload.files_per_thread.to_string(),
            format!("{paper_mbps:.1}"),
            format!("{:.1}", hdd_result.bandwidth_mbps),
            format!("{:.1}", ssd_result.bandwidth_mbps),
            format!("{:.0}", hdd_result.iops),
        ]);
        comparisons.push(Comparison::new(
            &format!("{}t/{}f", workload.threads, workload.files_per_thread),
            paper_mbps,
            hdd_result.bandwidth_mbps,
        ));
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "{}", comparison_table("HDD calibration", &comparisons));
    // Ablation: without the processor-sharing aggregate cap, the
    // 8-thread sequential ceiling disappears.
    let mut uncapped = hdd.clone();
    uncapped.aggregate_bw = f64::INFINITY;
    let capped = fio::run(&hdd, FioWorkload::table3()[1]).bandwidth_mbps;
    let open = fio::run(&uncapped, FioWorkload::table3()[1]).bandwidth_mbps;
    let _ = writeln!(
        out,
        "ablation (aggregate-bandwidth cap): capped {capped:.0} MB/s vs uncapped {open:.0} MB/s"
    );
    out.push_str(&shape_summary(&shape_check(&comparisons)));
    (out, vec![comparisons])
}

/// Table 4: throughput and average network read speed for the
/// unprocessed vs concatenated strategies, on HDD and SSD.
pub fn table4_concat(env: SimEnv) -> String {
    table4(env).0
}

fn table4(env: SimEnv) -> Scored {
    let ssd_env = SimEnv {
        device: DeviceProfile::ssd_ceph(),
        ..env.clone()
    };
    let mut table = TableBuilder::new(&[
        "pipeline",
        "strategy",
        "paper SPS",
        "ours SPS",
        "paper MB/s",
        "ours MB/s",
    ]);
    let (mut sps, mut net, mut ssd_sps) = (Vec::new(), Vec::new(), Vec::new());
    for workload in &[cv::cv(), cv::cv2_jpg(), cv::cv2_png(), nlp::nlp()] {
        let name = workload.pipeline.name.clone();
        for strategy in ["unprocessed", "concatenated"] {
            let paper_sps = anchors::find(
                anchors::TABLE4_HDD,
                &name,
                strategy,
                anchors::Metric::ThroughputSps,
            )
            .unwrap();
            let paper_net = anchors::find(
                anchors::TABLE4_HDD,
                &name,
                strategy,
                anchors::Metric::NetworkMbps,
            );
            let profile = profile_label(workload, strategy, env.clone());
            let ours_net = profile.epochs[0].network_read_mbps;
            table.row(&[
                name.clone(),
                strategy.to_string(),
                format!("{paper_sps:.0}"),
                format!("{:.0}", profile.throughput_sps()),
                paper_net.map_or("-".into(), |v| format!("{v:.0}")),
                format!("{ours_net:.0}"),
            ]);
            sps.push(Comparison::new(
                &format!("{name} {strategy}"),
                paper_sps,
                profile.throughput_sps(),
            ));
            if let Some(paper_net) = paper_net {
                net.push(Comparison::new(
                    &format!("{name} {strategy} MB/s"),
                    paper_net,
                    ours_net,
                ));
            }
        }
    }
    for (name, workload) in [("CV", cv::cv()), ("NLP", nlp::nlp())] {
        for strategy in ["unprocessed", "concatenated"] {
            let paper_sps = anchors::find(
                anchors::TABLE4_SSD,
                name,
                strategy,
                anchors::Metric::ThroughputSps,
            )
            .unwrap();
            let profile = profile_label(&workload, strategy, ssd_env.clone());
            table.row(&[
                format!("{name} (SSD)"),
                strategy.to_string(),
                format!("{paper_sps:.0}"),
                format!("{:.0}", profile.throughput_sps()),
                "-".into(),
                format!("{:.0}", profile.epochs[0].network_read_mbps),
            ]);
            ssd_sps.push(Comparison::new(
                &format!("{name} (SSD) {strategy}"),
                paper_sps,
                profile.throughput_sps(),
            ));
        }
    }
    let out = format!(
        "{}\n\
         observation 1: concatenating increases CV-family throughput 1.4x-9x;\n\
         NLP stays CPU-bound at the GIL-held HTML decode (no gain).\n{}",
        table.render(),
        shape_summary(&shape_check(&sps))
    );
    (out, vec![sps, net, ssd_sps])
}

/// Table 5: throughput increase of system- vs application-level
/// caching, for each pipeline's last strategy, against no caching.
pub fn table5_cache_speedup(env: SimEnv) -> String {
    table5(env).0
}

fn table5(env: SimEnv) -> Scored {
    let mut table = TableBuilder::new(&[
        "pipeline",
        "sample MB",
        "paper sys",
        "ours sys",
        "paper app",
        "ours app",
    ]);
    let (mut sys_rows, mut app_rows) = (Vec::new(), Vec::new());
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        let last = workload.pipeline.max_split();
        let label = workload.pipeline.split_name(last).to_string();
        let sim = workload.simulator(env.clone());
        let base = sim.profile(&Strategy::at_split(last), 1);
        let sys = sim.profile(&Strategy::at_split(last).with_cache(CacheLevel::System), 2);
        let app = sim.profile(
            &Strategy::at_split(last).with_cache(CacheLevel::Application),
            2,
        );
        let sys_speedup =
            sys.epochs.get(1).map_or(0.0, |e| e.throughput_sps) / base.throughput_sps();
        let app_speedup = match &app.error {
            Some(_) => None, // failed to run (paper: CV, NLP)
            None => Some(app.epochs[1].throughput_sps / base.throughput_sps()),
        };
        let paper_sys = anchors::find(
            anchors::TABLE5,
            &name,
            &label,
            anchors::Metric::SysCacheSpeedup,
        );
        let paper_app = anchors::find(
            anchors::TABLE5,
            &name,
            &label,
            anchors::Metric::AppCacheSpeedup,
        );
        table.row(&[
            name.clone(),
            format!("{:.3}", base.stored_sample_bytes / 1e6),
            paper_sys.map_or("-".into(), |v| format!("{v:.1}x")),
            format!("{sys_speedup:.1}x"),
            paper_app.map_or("failed".into(), |v| format!("{v:.1}x")),
            app_speedup.map_or("failed".into(), |v| format!("{v:.1}x")),
        ]);
        if let Some(paper) = paper_sys {
            sys_rows.push(Comparison::new(
                &format!("{name} sys speedup"),
                paper,
                sys_speedup,
            ));
        }
        if let (Some(paper), Some(ours)) = (paper_app, app_speedup) {
            app_rows.push(Comparison::new(&format!("{name} app speedup"), paper, ours));
        }
    }
    let out = format!(
        "{}\n\
         paper's observation 4: speedups decline with smaller sample sizes;\n\
         CV and NLP last strategies fail app-level caching (dataset > RAM).\n{}",
        table.render(),
        shape_summary(&shape_check(&sys_rows))
    );
    (out, vec![sys_rows, app_rows])
}

/// Figure 1: storage consumption of real-world CV and NLP datasets
/// over time (log scale) — the motivation figure.
pub fn fig1_growth(_env: SimEnv) -> String {
    let mut table = TableBuilder::new(&["year", "dataset", "domain", "size GB", "log10"]);
    let mut points: Vec<_> = GROWTH.to_vec();
    points.sort_by_key(|p| p.year);
    for p in &points {
        table.row(&[
            p.year.to_string(),
            p.name.to_string(),
            format!("{:?}", p.domain),
            format!("{:.2}", p.size_gb),
            format!("{:.2}", p.size_gb.log10()),
        ]);
    }
    let cv = log_growth_per_year(Domain::Cv);
    let nlp = log_growth_per_year(Domain::Nlp);
    format!(
        "{}\n\
         log10(GB)/year growth: CV {cv:.3} (~{:.1}x/decade), NLP {nlp:.3} (~{:.1}x/decade)\n\
         paper's claim: exponential storage growth in both domains.\n",
        table.render(),
        10f64.powf(cv * 10.0),
        10f64.powf(nlp * 10.0)
    )
}

/// Figure 3: ResNet-50 ingestion rates of modern accelerators vs the
/// throughput of the CV preprocessing strategies — which devices stall
/// under which strategy.
pub fn fig3_hardware(env: SimEnv) -> String {
    let workload = cv::cv();
    let strategies = [
        ("all steps at every iteration", "unprocessed"),
        ("all steps once", "pixel-centered"),
        ("until resize step once", "resized"),
    ];
    let measured: Vec<_> = strategies
        .iter()
        .map(|(title, label)| {
            let sps = profile_label(&workload, label, env.clone()).throughput_sps();
            (*title, sps)
        })
        .collect();
    let mut table = TableBuilder::new(&["accelerator", "ResNet-50 SPS", "strategy", "fed?"]);
    for accelerator in ACCELERATORS {
        for (title, sps) in &measured {
            table.row(&[
                accelerator.name.to_string(),
                format!("{:.0}", accelerator.resnet50_sps),
                title.to_string(),
                if keeps_busy(accelerator, *sps) {
                    format!("yes ({sps:.0} SPS)")
                } else {
                    format!("STALLS ({sps:.0} SPS)")
                },
            ]);
        }
    }
    format!(
        "{}\n\
         paper's claim: the optimal strategy prevents stalls on A10/A30/V100;\n\
         TPU-class ingestion still outruns a single preprocessing VM.\n",
        table.render()
    )
}

/// Figure 6 (a–g): throughput and storage consumption for every
/// strategy of all seven pipelines — the paper's central figure.
pub fn fig6_strategies(env: SimEnv) -> String {
    fig6(env).0
}

fn fig6(env: SimEnv) -> Scored {
    let mut out = String::new();
    let mut groups = Vec::new();
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        let profiles = workload.simulator(env.clone()).profile_all(1);
        let mut table = TableBuilder::new(&[
            "strategy",
            "SPS",
            "paper SPS",
            "net MB/s",
            "paper MB/s",
            "storage",
            "prep time",
        ]);
        let (mut sps, mut net) = (Vec::new(), Vec::new());
        for profile in &profiles {
            let find = |sources: &[&[anchors::Anchor]], metric| {
                sources
                    .iter()
                    .find_map(|source| anchors::find(source, &name, &profile.label, metric))
            };
            let paper_sps = find(
                &[anchors::TABLE4_HDD, anchors::SECTION41, anchors::TABLE1],
                anchors::Metric::ThroughputSps,
            );
            let paper_net = find(
                &[anchors::SECTION41, anchors::TABLE4_HDD],
                anchors::Metric::NetworkMbps,
            );
            let ours_net = profile.epochs[0].network_read_mbps;
            table.row(&[
                profile.label.clone(),
                format!("{:.0}", profile.throughput_sps()),
                paper_sps.map_or("-".into(), |v| format!("{v:.0}")),
                format!("{ours_net:.0}"),
                paper_net.map_or("-".into(), |v| format!("{v:.0}")),
                format_bytes(profile.storage_bytes),
                format!("{:.0}s", profile.preprocessing_secs()),
            ]);
            let what = format!("{name} {}", profile.label);
            if let Some(paper) = paper_sps {
                sps.push(Comparison::new(
                    &format!("{what} SPS"),
                    paper,
                    profile.throughput_sps(),
                ));
            }
            if let Some(paper) = paper_net {
                net.push(Comparison::new(&format!("{what} MB/s"), paper, ours_net));
            }
        }
        groups.extend([sps, net]);
        let best = profiles
            .iter()
            .max_by(|a, b| a.throughput_sps().total_cmp(&b.throughput_sps()))
            .expect("every pipeline has a strategy");
        let _ = writeln!(
            out,
            "-- {name}\n{}\nbest strategy: {} at {:.0} SPS\n",
            table.render(),
            best.label,
            best.throughput_sps()
        );
    }
    out.push_str(
        "paper's qualitative claims: CV-family + NLP best at an intermediate\n\
         strategy; NILM/MP3/FLAC best fully preprocessed.\n",
    );
    (out, groups)
}

/// Figure 7: processing time of reading + deserializing a synthetic
/// 15 GB dataset at sample sizes 0.01–20.5 MB, for uint8 and float32.
pub fn fig7_sample_size(env: SimEnv) -> String {
    let mut table = TableBuilder::new(&[
        "sample MB",
        "samples",
        "u8 time (s)",
        "f32 time (s)",
        "SPS (f32)",
    ]);
    let mut smallest = 0.0f64;
    let mut largest = 0.0f64;
    for &size_mb in &sample_sizes_mb() {
        let mut row = vec![format!("{size_mb:.2}")];
        let mut f32_secs = 0.0;
        let mut f32_sps = 0.0;
        for dtype in [SynthDType::U8, SynthDType::F32] {
            let workload = records(size_mb, dtype);
            if dtype == SynthDType::U8 {
                row.push(workload.dataset.sample_count.to_string());
            }
            let profile = workload
                .simulator(env.clone())
                .profile(&Strategy::at_split(1), 1);
            let secs = profile.epochs[0].elapsed_full.as_secs_f64();
            row.push(format!("{secs:.1}"));
            if dtype == SynthDType::F32 {
                f32_secs = secs;
                f32_sps = profile.throughput_sps();
            }
        }
        row.push(format!("{f32_sps:.0}"));
        table.row(&row);
        if size_mb <= 0.011 {
            smallest = f32_secs;
        }
        largest = f32_secs;
    }
    format!(
        "{}\n\
         paper: 0.01 MB samples take >11x longer than 20.5 MB; measured {:.1}x\n\
         paper: dtype has no impact; columns above should match closely.\n",
        table.render(),
        smallest / largest
    )
}

/// Figure 8 (a–g): throughput over two epochs with system-level
/// caching enabled, for every strategy of every pipeline. Shows which
/// strategies benefit from the page cache (small datasets, no CPU
/// bottleneck) and which cannot (dataset > RAM, or CPU-bound).
pub fn fig8_caching(env: SimEnv) -> String {
    let mut out = String::new();
    for workload in all_workloads() {
        let name = workload.pipeline.name.clone();
        let sim = workload.simulator(env.clone());
        let mut table = TableBuilder::new(&[
            "strategy",
            "storage GB",
            "fits RAM?",
            "epoch1 SPS",
            "epoch2 SPS",
            "speedup",
        ]);
        for base in Strategy::enumerate(&workload.pipeline) {
            let strategy = base.with_cache(CacheLevel::System);
            let profile = sim.profile(&strategy, 2);
            if profile.epochs.len() < 2 {
                continue;
            }
            let e1 = profile.epochs[0].throughput_sps;
            let e2 = profile.epochs[1].throughput_sps;
            table.row(&[
                profile.label.replace("+sys-cache", ""),
                format!("{:.1}", profile.storage_bytes as f64 / 1e9),
                if profile.storage_bytes < env.ram_bytes {
                    "yes".into()
                } else {
                    "no".into()
                },
                format!("{e1:.0}"),
                format!("{e2:.0}"),
                format!("{:.2}x", e2 / e1),
            ]);
        }
        let _ = writeln!(out, "-- {name}\n{}", table.render());
    }
    out.push_str(
        "paper's observations: (1) no caching benefit when storage > 80 GB;\n\
         (2) caching does not remove CPU bottlenecks (NLP stays at ~6 SPS).\n",
    );
    out
}

/// Figure 9: online processing time of the synthetic 15 GB float32
/// dataset for no-cache / sys-cache / app-cache across sample sizes —
/// plus the paper's derived deserialization-share computation.
pub fn fig9_cache_levels(env: SimEnv) -> String {
    let epoch2_secs = |size_mb: f64, cache: CacheLevel| {
        let sim = records(size_mb, SynthDType::F32).simulator(env.clone());
        let epochs = if cache == CacheLevel::None { 1 } else { 2 };
        let profile = sim.profile(&Strategy::at_split(1).with_cache(cache), epochs);
        profile.epochs.last().unwrap().elapsed_full.as_secs_f64()
    };
    let mut table = TableBuilder::new(&[
        "sample MB",
        "no-cache (s)",
        "sys-cache (s)",
        "app-cache (s)",
        "deser share",
    ]);
    let mut rows = Vec::new();
    for &size_mb in &sample_sizes_mb() {
        let no_cache = epoch2_secs(size_mb, CacheLevel::None);
        let sys = epoch2_secs(size_mb, CacheLevel::System);
        let app = epoch2_secs(size_mb, CacheLevel::Application);
        // The paper's derivation: deser share = (sys - app) / sys.
        let share = ((sys - app) / sys).max(0.0);
        table.row(&[
            format!("{size_mb:.2}"),
            format!("{no_cache:.1}"),
            format!("{sys:.1}"),
            format!("{app:.1}"),
            format!("{:.0}%", share * 100.0),
        ]);
        rows.push((no_cache, sys, app));
    }
    let (no_small, sys_small, _) = rows[0];
    let (_, sys_large, app_large) = rows[rows.len() - 1];
    format!(
        "{}\n\
         paper: at <=0.04 MB sys-cache ~ no-cache (nullified): measured {:.2}x apart\n\
         paper: at large samples deserialization dominates sys-cache time \
         (94-98%): measured sys {sys_large:.1}s vs app {app_large:.1}s\n\
         (app-cache feasibility: 15 GB < 80 GB RAM, so every size runs)\n",
        table.render(),
        no_small / sys_small
    )
}

/// Figure 10 (a–n): for every pipeline, each strategy (unprocessed
/// omitted, as in the paper) stored plain, GZIP and ZLIB, with storage,
/// space saving, throughput and offline time relative to the plain
/// store.
pub fn fig10_compression(env: SimEnv) -> String {
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
    out.push_str(
        "paper's observations: high space saving does not guarantee higher\n\
         throughput (CPU-bound strategies never gain); CV-family pixel-centered\n\
         gains 1.6-2.4x at 73-93% saving; NILM/MP3/FLAC slow down.\n",
    );
    out
}

/// Figure 11: multi-threaded speedup of reading + deserializing the
/// synthetic 15 GB dataset, by sample size — the small-sample scaling
/// collapse, traced to serialized per-sample dispatch.
pub fn fig11_scaling_synth(env: SimEnv) -> String {
    // The 8-thread dispatch rate and the speedups at 1/2/4/8 threads.
    let speedups = |size_mb: f64, env: SimEnv| {
        let sim = records(size_mb, SynthDType::F32).simulator(env);
        let sps: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                sim.profile(&Strategy::at_split(1).with_threads(threads), 1)
                    .throughput_sps()
            })
            .collect();
        let profile = sim.profile(&Strategy::at_split(1).with_threads(8), 1);
        let dispatch_rate = profile.epochs[0].stats.dispatches_per_second();
        (
            dispatch_rate,
            sps.iter().map(|s| s / sps[0]).collect::<Vec<_>>(),
        )
    };
    let mut table = TableBuilder::new(&["sample MB", "1t", "2t", "4t", "8t", "dispatch/s @8t"]);
    for &size_mb in &sample_sizes_mb() {
        let (dispatches, speedup) = speedups(size_mb, env.clone());
        table.row(&[
            format!("{size_mb:.2}"),
            format!("{:.1}x", speedup[0]),
            format!("{:.1}x", speedup[1]),
            format!("{:.1}x", speedup[2]),
            format!("{:.1}x", speedup[3]),
            format!("{dispatches:.0}"),
        ]);
    }
    // Ablation: cut the serialized dispatch cost — the collapse point
    // moves to smaller samples, confirming the mechanism.
    let cheap = SimEnv {
        dispatch_ns: env.dispatch_ns / 4.0,
        ..env.clone()
    };
    let (_, base) = speedups(0.04, env);
    let (_, fast_dispatch) = speedups(0.04, cheap);
    format!(
        "{}\n\
         paper: ~1x speedup at 0.01 MB (100k context switches/s), good\n\
         scaling at 20.5 MB. The dispatch column is the context-switch proxy.\n\
         ablation (dispatch cost /4) at 0.04 MB: 8-thread speedup {:.1}x -> {:.1}x\n",
        table.render(),
        base[3],
        fast_dispatch[3]
    )
}

/// Figure 12 (a–n): per-strategy speedup at 1/2/4/8 threads for every
/// pipeline, without caching (left column) and with system-level
/// caching on the second epoch (right column).
pub fn fig12_scaling(env: SimEnv) -> String {
    let mut out = String::new();
    for workload in all_workloads() {
        let sim = workload.simulator(env.clone());
        let mut table = TableBuilder::new(&[
            "strategy",
            "no-cache 2t",
            "no-cache 4t",
            "no-cache 8t",
            "sys-cache 2t",
            "sys-cache 4t",
            "sys-cache 8t",
        ]);
        for base in Strategy::enumerate(&workload.pipeline) {
            let mut cells = vec![workload.pipeline.split_name(base.split).to_string()];
            for cache in [CacheLevel::None, CacheLevel::System] {
                let epochs = if cache == CacheLevel::None { 1 } else { 2 };
                let last_epoch_sps = |threads: usize| {
                    let strategy = base.clone().with_threads(threads).with_cache(cache);
                    let profile = sim.profile(&strategy, epochs);
                    profile.epochs.last().map_or(0.0, |e| e.throughput_sps)
                };
                let single = last_epoch_sps(1);
                for threads in [2usize, 4, 8] {
                    cells.push(format!("{:.1}x", last_epoch_sps(threads) / single));
                }
            }
            table.row(&cells);
        }
        let _ = writeln!(out, "-- {}\n{}", workload.pipeline.name, table.render());
    }
    out.push_str(
        "paper's observations: (1) small samples cap the speedup (dispatch\n\
         serialization); (2) py_function strategies (NLP decode, NILM decode)\n\
         show speedup <= 1 even from memory; (3) random file access depresses\n\
         no-cache speedups that recover under sys-cache (MP3/FLAC unprocessed).\n",
    );
    out
}

/// Figure 13: the RMS(period=500) step implemented via an external
/// library under the interpreter lock vs a native framework op —
/// scaling and absolute speed, across sample sizes.
pub fn fig13_extlib(env: SimEnv) -> String {
    let mut table = TableBuilder::new(&[
        "sample MB",
        "ext 1t SPS",
        "ext 8t speedup",
        "native 1t SPS",
        "native 8t speedup",
        "ext/native @8t",
    ]);
    // The paper's figure focuses on the larger sizes.
    for &size_mb in sample_sizes_mb().iter().filter(|&&mb| mb >= 0.3) {
        let mut row = vec![format!("{size_mb:.2}")];
        let mut at8 = [0.0f64; 2];
        for (slot, implementation) in [RmsImpl::External, RmsImpl::Native].iter().enumerate() {
            let sim = rms(size_mb, *implementation).simulator(env.clone());
            let sps = |threads| {
                sim.profile(&Strategy::at_split(1).with_threads(threads), 1)
                    .throughput_sps()
            };
            let (one, eight) = (sps(1), sps(8));
            row.push(format!("{one:.1}"));
            row.push(format!("{:.1}x", eight / one));
            at8[slot] = eight;
        }
        row.push(format!("{:.1}x", at8[0] / at8[1]));
        table.row(&row);
    }
    format!(
        "{}\n\
         paper: the external implementation does not scale (speedup ~1, even\n\
         <1 under contention) but is ~2.9x faster absolutely at 20.5 MB —\n\
         'it pays off to use the less scalable but more efficient implementation'.\n",
        table.render()
    )
}

/// Figure 14 / Section 4.6: inserting an `applied-greyscale` step into
/// the already-profiled CV pipeline, before vs after pixel centering.
pub fn fig14_greyscale(env: SimEnv) -> String {
    fig14(env).0
}

fn fig14(env: SimEnv) -> Scored {
    let mut out = String::new();
    let mut groups = Vec::new();
    for (setup, before) in [
        ("greyscale BEFORE pixel-centering", true),
        ("greyscale AFTER", false),
    ] {
        let workload = cv::cv_with_greyscale(before);
        let profiles = workload.simulator(env.clone()).profile_all(1);
        let mut table = TableBuilder::new(&["strategy", "storage GB", "SPS", "paper SPS"]);
        let anchor_name = if before {
            "CV+grey-before"
        } else {
            "CV+grey-after"
        };
        let mut comparisons = Vec::new();
        for profile in &profiles {
            let paper = anchors::find(
                anchors::FIG14,
                anchor_name,
                &profile.label,
                anchors::Metric::ThroughputSps,
            );
            table.row(&[
                profile.label.clone(),
                format!("{:.0}", profile.storage_bytes as f64 / 1e9),
                format!("{:.0}", profile.throughput_sps()),
                paper.map_or("-".into(), |v| format!("{v:.0}")),
            ]);
            if let Some(paper) = paper {
                comparisons.push(Comparison::new(
                    &format!("{anchor_name} {}", profile.label),
                    paper,
                    profile.throughput_sps(),
                ));
            }
        }
        let _ = writeln!(out, "-- {setup}\n{}", table.render());
        out.push_str(&shape_summary(&shape_check(&comparisons)));
        groups.push(comparisons);
    }
    // The headline: the best strategy with greyscale-before against
    // the plain pipeline's best.
    let best_sps = |workload: Workload| {
        workload
            .simulator(env.clone())
            .profile_all(1)
            .iter()
            .map(|p| p.throughput_sps())
            .fold(0.0, f64::max)
    };
    let plain_best = best_sps(cv::cv());
    let grey_best = best_sps(cv::cv_with_greyscale(true));
    let gain = grey_best / plain_best;
    let _ = writeln!(
        out,
        "max pipeline throughput: plain {plain_best:.0} SPS -> with greyscale {grey_best:.0} SPS \
         ({gain:.1}x; paper: 2.8x)"
    );
    groups.push(vec![Comparison::new("max-throughput gain", 2.8, gain)]);
    (out, groups)
}

/// Section 7 (Discussion): distributed preprocessing and concurrent
/// training, made quantitative — how many preprocessing VMs until the
/// shared cluster, not CPU, is the bottleneck, and how many training
/// jobs one pipeline can feed before the fan-out link saturates.
pub fn discussion_distributed(env: SimEnv) -> String {
    let mut out = String::from("-- offline preprocessing with multiple worker VMs (CV)\n");
    let workload = cv::cv();
    let sim = workload.simulator(env);
    let mut table = TableBuilder::new(&["strategy", "1 VM", "2 VMs", "4 VMs", "8 VMs"]);
    for label in ["decoded", "resized", "pixel-centered"] {
        let strategy = Strategy::at_split(split_for(&workload, label));
        let results = offline_scaling(&sim, &strategy, &[1, 2, 4, 8]);
        table.row(&[
            label.to_string(),
            format!("{:.0}s", results[0].elapsed.as_secs_f64()),
            format!("{:.1}x", results[1].speedup),
            format!("{:.1}x", results[2].speedup),
            format!("{:.1}x", results[3].speedup),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    out.push_str("(speedups saturate where the shared cluster bandwidth binds —\n");
    out.push_str(" preprocessing is trivially parallel only until then.)\n\n");
    out.push_str("-- fanning T4 out to concurrent training jobs (10 Gb/s link)\n");
    let mut table = TableBuilder::new(&[
        "strategy",
        "T4 SPS",
        "final MB/sample",
        "jobs until link-bound",
        "per-job SPS @8 jobs",
    ]);
    for label in ["resized", "pixel-centered"] {
        let split = split_for(&workload, label);
        let t4 = sim.profile(&Strategy::at_split(split), 1).throughput_sps();
        let final_bytes = workload.pipeline.size_after(
            workload.pipeline.len().min(5),
            workload.dataset.unprocessed_sample_bytes,
        ) * 0.766; // after the online random crop
        let link = 1.25e9;
        let first_bound = (1..=64).find(|&jobs| fan_out(t4, final_bytes, link, jobs).link_bound);
        let at8 = fan_out(t4, final_bytes, link, 8);
        table.row(&[
            label.to_string(),
            format!("{t4:.0}"),
            format!("{:.2}", final_bytes / 1e6),
            first_bound.map_or(">64".into(), |jobs| jobs.to_string()),
            format!(
                "{:.0}{}",
                at8.per_job_sps,
                if at8.link_bound { " (link-bound)" } else { "" }
            ),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    out.push_str(
        "paper: 'if the network can not handle the duplicated load of fanning\n\
         out the preprocessed data per training job, it will become a new\n\
         bottleneck' — quantified above.\n",
    );
    out
}

/// Section 2's open question: is profiling a small sample of the
/// dataset enough to estimate throughput, storage and prep time? Sweeps
/// subset sizes and reports metric drift and recommendation stability
/// per pipeline.
pub fn subset_fidelity(env: SimEnv) -> String {
    let sizes = [250u64, 1_000, 4_000, 16_000];
    let mut table = TableBuilder::new(&[
        "pipeline",
        "250",
        "1k",
        "4k",
        "16k (ref)",
        "sufficient @10%",
    ]);
    for workload in all_workloads() {
        let presto = Presto::new(
            workload.pipeline.clone(),
            workload.dataset.clone(),
            env.clone(),
        );
        let points = sweep(&presto, &sizes, Weights::MAX_THROUGHPUT);
        let mut cells = vec![workload.pipeline.name.clone()];
        for p in &points {
            cells.push(format!(
                "{}{:.0}%",
                if p.recommendation_stable { "" } else { "!" },
                p.max_throughput_drift * 100.0
            ));
        }
        cells.push(sufficient_sample_count(&points, 0.10).map_or("-".into(), |n| n.to_string()));
        table.row(&cells);
    }
    format!(
        "{}\n\
         cells: max throughput drift vs the 16k reference; '!' marks a\n\
         changed recommendation. The paper's caveat — 'some bottlenecks only\n\
         show after local caches are full' — argues for full-dataset profiling\n\
         when caching is part of the strategy; steady-state rates converge fast.\n",
        table.render()
    )
}
