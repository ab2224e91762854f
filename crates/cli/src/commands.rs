//! Command dispatch and implementations. Every command (and every mode
//! of one, selected by a flag) is declared once in [`COMMANDS`]: usage,
//! flag validation and parsing all come from that table.

use crate::args::{find, parse, switch, value, Args, Flag};
use crate::render;
use presto::cost::{cheapest, cheapest_feeding, cost_of, Campaign, CloudPricing};
use presto::report::{format_bytes, TableBuilder};
use presto::{Presto, Weights};
use presto_codecs::{Codec, Level};
use presto_datasets::{all_workloads, cv, generators, steps, Workload};
use presto_pipeline::chaos::{ChaosFault, ChaosProxy};
use presto_pipeline::distributed;
use presto_pipeline::real::{
    AppCache, BlobStore, EpochStats, EpochStream, FaultSpec, FaultStore, Materialized, MemStore,
    RealExecutor, RetryPolicy,
};
use presto_pipeline::serve::{
    serve_epoch, serve_stream, ServeClientConfig, ServeReport, ServeWorker, ServeWorkerConfig,
    TenantSpec,
};
use presto_pipeline::sim::{SimEnv, Simulator};
use presto_pipeline::telemetry::causal as telemetry_causal;
use presto_pipeline::telemetry::doc;
use presto_pipeline::telemetry::export as telemetry_export;
use presto_pipeline::telemetry::fleet as telemetry_fleet;
use presto_pipeline::telemetry::http::MetricsServer;
use presto_pipeline::telemetry::tenants::{self as telemetry_tenants, TenantsSnapshot};
use presto_pipeline::telemetry::timeseries::{self, Sampler};
use presto_pipeline::tenant::{AdmissionPolicy, FleetDaemon, FleetDaemonConfig};
use presto_pipeline::{
    CacheLevel, FaultPolicy, Pipeline, PipelineError, Resilience, Sample, Strategy, Telemetry,
};
use presto_storage::fio::{self, FioWorkload};
use presto_storage::DeviceProfile;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Flag groups shared by several commands, declared once.

/// The simulator's environment: `profile`, `recommend`, `cost`,
/// `diagnose`, `watch --search`.
const SIM: &[Flag] = &[
    value("samples", "N", "simulated subset size"),
    switch("ssd", "the paper's SSD VM instead of its HDD one"),
];

/// The strategy grid search: `recommend`, `watch --search`.
const SEARCH: &[Flag] = &[
    value("wp", "W", "weight of preprocessing time"),
    value("ws", "W", "weight of storage"),
    value("wt", "W", "weight of throughput"),
    value("jobs", "N", "search threads (0 = one per core)"),
    switch("prune", "probe all on a subset, profile the best"),
    value("probe-samples", "N", "--prune: probe subset size"),
    value("keep", "F", "--prune: share kept after probing"),
];

/// The real engine's shape: `realrun`, live `causal`, `watch`.
const ENGINE: &[Flag] = &[
    value("samples", "N", "synthetic CV samples to materialize"),
    value("threads", "N", "engine worker threads"),
    value("split", "N", "steps applied offline"),
];
const PREFETCH: Flag = value("prefetch", "N", "prefetch ring capacity in samples");

/// Fault handling: `realrun`, `serve-worker`, `train-client`.
const FAULT_POLICY: &[Flag] = &[
    value("policy", "failfast|degrade", "stop at a fault or skip it"),
    value("max-skip", "N", "degrade: samples that may be skipped"),
    value("max-lost", "N", "degrade: shards that may be lost"),
];
/// Storage read retries: the commands that read storage (`realrun`,
/// `serve-worker`).
const RETRIES: Flag = value("retries", "N", "attempts per storage read");

const SERVE: Flag = value("serve", "ADDR", "serve /metrics and /*.json while running");

/// The sampled live endpoint of every long-running command; `watch
/// --search` serves its gauges unsampled.
const ENDPOINT: &[Flag] = &[
    SERVE,
    value("sample-ms", "MS", "--serve: time-series sampling period"),
];

/// The served dataset; a client must name the workers' values.
const DATASET: &[Flag] = &[
    value("samples", "N", "synthetic CV samples"),
    value("split", "N", "steps applied before serving"),
    value("shards", "N", "shards the samples are written to"),
];

/// `refresh-ms`/`plain`: every `watch` mode.
const DASHBOARD: &[Flag] = &[
    value("refresh-ms", "MS", "frame period"),
    switch("plain", "append frames instead of redrawing"),
];

const BIND: Flag = value("bind", "ADDR", "listen address (port 0 picks one)");
const RUN_SECS: Flag = value("run-secs", "S", "exit after S seconds (default: never)");
const JSON: Flag = switch("json", "print one JSON document on stdout only");

/// The causal profile's output: both `causal` modes.
const CAUSAL: &[Flag] = &[
    value("seed", "S", "latency-draw seed"),
    value("trials", "N", "trials per experiment"),
    JSON,
    value("out", "FILE", "also write the presto.causal.v1 document"),
];

/// One command, or one mode of a command: what `presto help` prints,
/// which flags the parser accepts, and the handler.
struct Command {
    name: &'static str,
    /// The flag selecting this mode; `None` for the command's default.
    mode: Option<&'static str>,
    /// The positional operands, as `presto help` shows them.
    operands: &'static str,
    about: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), String>,
}

impl Command {
    /// `name operands --mode VALUE`, as `presto help` prints it.
    fn synopsis(&self) -> String {
        let mode = self.mode.and_then(|m| find(self.flags, m));
        let mode = mode.map(Flag::synopsis).unwrap_or_default();
        [self.name, self.operands, &mode]
            .into_iter()
            .filter(|part| !part.is_empty())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "pipelines",
        mode: None,
        operands: "",
        about: "list built-in workloads",
        flags: &[],
        run: cmd_pipelines,
    },
    Command {
        name: "steps",
        mode: None,
        operands: "<pipeline>",
        about: "show the step chain and a split",
        flags: &[&[value("split", "N", "split to show (default: deepest)")]],
        run: cmd_steps,
    },
    Command {
        name: "profile",
        mode: None,
        operands: "<pipeline>",
        about: "profile every strategy",
        flags: &[
            SIM,
            &[
                value("epochs", "N", "epochs per strategy"),
                value("codec", "gzip|zlib", "compress offline-processed data"),
                value("cache", "sys|app", "cache level"),
                value("threads", "N", "preprocessing threads"),
                switch("csv", "print CSV instead of a table"),
            ],
        ],
        run: cmd_profile,
    },
    Command {
        name: "recommend",
        mode: None,
        operands: "<pipeline>",
        about: "search the full strategy grid and rank",
        flags: &[
            SIM,
            SEARCH,
            &[
                value("top", "N", "ranked strategies to print"),
                switch("json", "print the presto.search.v1 document only"),
            ],
        ],
        run: cmd_recommend,
    },
    Command {
        name: "cost",
        mode: None,
        operands: "<pipeline>",
        about: "cheapest strategy for a campaign",
        flags: &[
            SIM,
            &[
                value("epochs", "N", "training epochs"),
                value("months", "M", "storage retention"),
                value("vm", "$/h", "VM price"),
                value("gb-month", "$", "storage price"),
                value("feed", "SPS", "cheapest strategy reaching this throughput"),
            ],
        ],
        run: cmd_cost,
    },
    Command {
        name: "diagnose",
        mode: None,
        operands: "<pipeline>",
        about: "bottleneck attribution per strategy",
        flags: &[SIM],
        run: cmd_diagnose,
    },
    Command {
        name: "causal",
        mode: None,
        operands: "[<pipeline>]",
        about: "causal profile of a live real-engine epoch",
        flags: &[
            ENGINE,
            CAUSAL,
            &[
                PREFETCH,
                switch("live-experiments", "check the top two with dilated epochs"),
            ],
        ],
        run: cmd_causal_live,
    },
    Command {
        name: "causal",
        mode: Some("from"),
        operands: "",
        about: "causal profile replayed from a recorded run",
        flags: &[
            CAUSAL,
            &[value("from", "FILE", "a presto.telemetry.v1 document")],
        ],
        run: cmd_causal_replay,
    },
    Command {
        name: "fio",
        mode: None,
        operands: "",
        about: "storage microbenchmark (Table 3)",
        flags: &[&[value("device", "hdd|ssd|nvme", "device profile")]],
        run: cmd_fio,
    },
    Command {
        name: "realrun",
        mode: None,
        operands: "[<pipeline>]",
        about: "run the real engine over synthetic data",
        flags: &[
            ENGINE,
            FAULT_POLICY,
            ENDPOINT,
            &[
                PREFETCH,
                RETRIES,
                value("epochs", "N", "epochs to run"),
                switch("inject-faults", "read through a fault-injecting store"),
                value("fault-seed", "S", "fault draw seed"),
                value("fail-pct", "P", "share of reads that fail"),
                value("corrupt-shard", "I", "bit-flip shard I"),
                value("lose-shard", "I", "lose shard I"),
                value("metrics", "table|prom", "last-epoch telemetry format"),
                value("trace-out", "FILE", "write a Chrome trace"),
                JSON,
            ],
        ],
        run: cmd_realrun,
    },
    Command {
        name: "serve-worker",
        mode: None,
        operands: "[<pipeline>]",
        about: "serve preprocessed sample batches over TCP",
        flags: &[
            DATASET,
            FAULT_POLICY,
            ENDPOINT,
            &[
                value("batch", "N", "samples per wire batch"),
                value("wire-codec", "none|gzip|zlib", "wire compression"),
                RETRIES,
                BIND,
                value("kill-after-batches", "N", "crash after N batches"),
                value("batch-pace-ms", "MS", "sleep between batches"),
                RUN_SECS,
            ],
        ],
        run: cmd_serve_worker,
    },
    Command {
        name: "train-client",
        mode: None,
        operands: "[<pipeline>]",
        about: "consume one epoch from serve-workers or fleetd",
        flags: &[
            DATASET,
            FAULT_POLICY,
            ENDPOINT,
            &[
                value("workers", "A,B,...", "serve-worker or fleetd addresses"),
                value("seed", "S", "epoch seed"),
                value("tenant", "NAME", "register as a fleetd tenant"),
                value("weight", "W", "--tenant: fair-share weight"),
                value("credits", "N", "batches in flight per worker"),
                value("timeout-ms", "MS", "read timeout"),
                value("connect-timeout-ms", "MS", "connect timeout"),
                value("reconnect-attempts", "N", "connection attempts per worker"),
                value("reconnect-base-ms", "MS", "first reconnect backoff"),
                value("reconnect-deadline-ms", "MS", "stop reconnecting after MS"),
                value("fleet-out", "FILE", "write the presto.fleet.v1 document"),
                value("serve-linger-ms", "MS", "--serve: keep serving MS longer"),
                JSON,
            ],
        ],
        run: cmd_train_client,
    },
    Command {
        name: "fleetd",
        mode: None,
        operands: "",
        about: "multi-tenant scheduler daemon",
        flags: &[
            ENDPOINT,
            &[
                BIND,
                value("backends", "A,B,...", "running serve-worker addresses"),
                value("max-jobs", "N", "admitted tenants at once"),
                value("quota", "N", "shards per tenant"),
                value("max-requeues", "N", "requeues before a tenant fails"),
                value("credits", "N", "batches in flight per backend"),
                value("quantum", "N", "deficit round robin quantum"),
                value("max-inflight", "N", "shards in flight per tenant"),
                RUN_SECS,
            ],
        ],
        run: cmd_fleetd,
    },
    Command {
        name: "sim-vs-real",
        mode: None,
        operands: "[<pipeline>]",
        about: "fan-out model vs the real TCP service",
        flags: &[
            DATASET,
            &[value("jobs", "J", "most concurrent training jobs")],
        ],
        run: cmd_sim_vs_real,
    },
    Command {
        name: "chaos-proxy",
        mode: None,
        operands: "",
        about: "deterministic fault-injecting TCP proxy",
        flags: &[&[
            value("upstream", "ADDR", "the serve-worker or fleetd to proxy"),
            value("seed", "S", "fault draw seed"),
            value("throttle-bps", "N", "bandwidth cap"),
            value("delay-ms", "MS", "delay windows by MS"),
            value("delay-pct", "P", "share of windows delayed"),
            value("partition-ms", "MS", "stall windows by MS"),
            value("partition-pct", "P", "share of windows stalled"),
            value("corrupt-pct", "P", "share of windows bit-flipped"),
            value("disconnect-pct", "P", "share of windows cut"),
            value("events-out", "FILE", "write the presto.chaos.v1 event log"),
            RUN_SECS,
        ]],
        run: cmd_chaos_proxy,
    },
    Command {
        name: "trace",
        mode: None,
        operands: "",
        about: "merge fleet + chaos documents into one Chrome trace",
        flags: &[&[
            value("fleet", "FILE", "a presto.fleet.v1 document"),
            value("chaos", "FILE", "a presto.chaos.v1 event log"),
            value("out", "FILE", "write here instead of stdout"),
        ]],
        run: cmd_trace,
    },
    Command {
        name: "watch",
        mode: None,
        operands: "[<pipeline>]",
        about: "live dashboard over a real-engine run",
        flags: &[
            ENGINE,
            DASHBOARD,
            &[
                value("epochs", "N", "epochs to run"),
                switch("cache", "serve later epochs from an app cache"),
                value("sample-ms", "MS", "time-series sampling period"),
            ],
        ],
        run: cmd_watch,
    },
    Command {
        name: "watch",
        mode: Some("attach"),
        operands: "",
        about: "serve, fleet and tenant gauges scraped from a --serve endpoint",
        flags: &[
            DASHBOARD,
            &[
                value("attach", "ADDR", "the endpoint to scrape"),
                value("frames", "N", "stop after N frames"),
            ],
        ],
        run: watch_attach,
    },
    Command {
        name: "watch",
        mode: Some("search"),
        operands: "<pipeline>",
        about: "live strategy-search progress (any pipeline)",
        flags: &[
            SIM,
            SEARCH,
            DASHBOARD,
            &[SERVE, switch("search", "watch a grid search")],
        ],
        run: watch_search,
    },
    Command {
        name: "validate",
        mode: None,
        operands: "<file>",
        about: "check a document with presto's own parsers",
        flags: &[],
        run: cmd_validate,
    },
];

/// The command (mode) `argv` invokes and its parsed arguments. A mode
/// is chosen by the presence of its selecting flag; flags of any other
/// mode are then unknown.
fn resolve(argv: &[String]) -> Result<(&'static Command, Args), String> {
    let name = argv.first().map_or("help", String::as_str);
    let modes = || COMMANDS.iter().filter(move |c| c.name == name);
    let given = |flag: &str| argv.iter().any(|w| w.strip_prefix("--") == Some(flag));
    let command = modes()
        .find(|c| c.mode.is_some_and(given))
        .or_else(|| modes().find(|c| c.mode.is_none()))
        .ok_or_else(|| format!("unknown command '{name}'"))?;
    let invocation = match command.mode {
        Some(mode) => format!("presto {name} --{mode}"),
        None => format!("presto {name}"),
    };
    let args = parse(argv, command.flags).map_err(|e| format!("{invocation}: {e}"))?;
    Ok((command, args))
}

/// Dispatch a CLI invocation.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        None | Some("help" | "--help") => {
            print!("{}", usage(argv.get(1).map(String::as_str)));
            Ok(())
        }
        Some(_) => {
            let (command, args) = resolve(argv)?;
            (command.run)(&args)
        }
    }
}

/// Usage of one command (every mode), or of all when `command` is not
/// one: every declared flag with its help line.
pub fn usage(command: Option<&str>) -> String {
    let only = command.filter(|name| COMMANDS.iter().any(|c| c.name == *name));
    let mut out = String::new();
    if only.is_none() {
        out.push_str("usage: presto <command> [options]\n\ncommands:\n");
    }
    for c in COMMANDS
        .iter()
        .filter(|c| only.is_none_or(|name| name == c.name))
    {
        usage_row(&mut out, 2, &c.synopsis(), c.about);
        for flag in c.flags.iter().flat_map(|group| group.iter()) {
            usage_row(&mut out, 6, &flag.synopsis(), flag.help);
        }
    }
    if only.is_none() {
        usage_row(
            &mut out,
            2,
            "help [<command>]",
            "this text, or one command's",
        );
    }
    out
}

/// One `left  right` usage line, `right` aligned (or on its own line
/// when `left` is too long).
fn usage_row(out: &mut String, indent: usize, left: &str, right: &str) {
    const COLUMN: usize = 34;
    let width = COLUMN - indent - 1;
    if left.len() > width {
        let _ = writeln!(out, "{:indent$}{left}\n{:COLUMN$}{right}", "", "");
    } else {
        let _ = writeln!(out, "{:indent$}{left:width$} {right}", "");
    }
}

/// A progress line: stdout, or stderr under `--json` so stdout stays
/// one pure document.
fn note(json: bool, line: String) {
    if json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// The `<pipeline>` operand of the real-engine commands; `CV` when
/// omitted.
fn pipeline_arg(args: &Args) -> &str {
    args.positional.get(1).map_or("CV", String::as_str)
}

/// The required `<pipeline>` operand of the simulator commands.
fn find_workload(args: &Args) -> Result<Workload, String> {
    let name = args
        .positional
        .get(1)
        .ok_or_else(|| "missing pipeline name (try `presto pipelines`)".to_string())?;
    workload_named(name)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    if name == "CV+grey" {
        return Ok(cv::cv_with_greyscale(true));
    }
    all_workloads()
        .into_iter()
        .find(|w| w.pipeline.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown pipeline '{name}' (try `presto pipelines`)"))
}

fn env_from(args: &Args) -> Result<SimEnv, String> {
    let mut env = if args.has("ssd") {
        SimEnv::paper_vm_ssd()
    } else {
        SimEnv::paper_vm()
    };
    env.subset_samples = args.get_or("samples", env.subset_samples)?;
    Ok(env)
}

/// A comma-separated address list flag (`--workers`, `--backends`).
fn addr_list(args: &Args, key: &str) -> Result<Vec<String>, String> {
    let list: Vec<String> = args
        .get_str(key)
        .ok_or_else(|| format!("missing --{key} A,B,... (serve-worker addresses)"))?
        .split(',')
        .map(|w| w.trim().to_string())
        .filter(|w| !w.is_empty())
        .collect();
    if list.is_empty() {
        return Err(format!("--{key} lists no addresses"));
    }
    Ok(list)
}

/// Block until `--run-secs` elapses (forever without it) or `stopped`
/// turns true; returns whether `stopped` ended the wait.
fn run_until(args: &Args, stopped: impl Fn() -> bool) -> Result<bool, String> {
    let limit = args.get_opt("run-secs")?.map(Duration::from_secs);
    let started = Instant::now();
    loop {
        if stopped() {
            return Ok(true);
        }
        if limit.is_some_and(|limit| started.elapsed() >= limit) {
            return Ok(false);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `--serve ADDR`: the HTTP endpoint over `telemetry`, shut down when
/// dropped. When `sampled`, a sampler every `--sample-ms` feeds its
/// time series; otherwise the series stays empty.
fn serve_endpoint(
    args: &Args,
    telemetry: &Arc<Telemetry>,
    sampled: bool,
    json: bool,
) -> Result<Option<(Option<Sampler>, MetricsServer)>, String> {
    let Some(addr) = args.get_str("serve") else {
        return Ok(None);
    };
    let sampler = if sampled {
        let period = Duration::from_millis(args.get_or("sample-ms", 200u64)?.max(1));
        let capacity = timeseries::DEFAULT_RING_CAPACITY;
        Some(Sampler::spawn(Arc::clone(telemetry), period, capacity))
    } else {
        None
    };
    let series = sampler.as_ref().map_or_else(
        || timeseries::TimeSeries::new(timeseries::DEFAULT_RING_CAPACITY),
        Sampler::series,
    );
    let server = MetricsServer::serve(addr, Arc::clone(telemetry), series)
        .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    note(json, format!("serving http://{}/metrics", server.addr()));
    Ok(Some((sampler, server)))
}

fn cmd_pipelines(_: &Args) -> Result<(), String> {
    let mut table = TableBuilder::new(&["pipeline", "dataset", "samples", "size", "steps"]);
    for workload in all_workloads() {
        table.row(&[
            workload.pipeline.name.clone(),
            workload.dataset.name.clone(),
            workload.dataset.sample_count.to_string(),
            format_bytes(workload.dataset.total_bytes() as u64),
            workload.pipeline.step_names().join(", "),
        ]);
    }
    println!("{}", table.render());
    println!("also: CV+grey (the Section 4.6 greyscale case study)");
    Ok(())
}

fn cmd_steps(args: &Args) -> Result<(), String> {
    let workload = find_workload(args)?;
    println!("{}", render::pipeline_chain(&workload.pipeline));
    println!();
    let split: usize = args.get_or("split", workload.pipeline.max_split())?;
    if split > workload.pipeline.max_split() {
        return Err(format!(
            "split {split} crosses a non-deterministic step (max {})",
            workload.pipeline.max_split()
        ));
    }
    println!("strategy '{}':", workload.pipeline.split_name(split));
    println!("{}", render::strategy_split(&workload.pipeline, split));
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let workload = find_workload(args)?;
    let env = env_from(args)?;
    let epochs: usize = args.get_or("epochs", 1)?;
    let codec = match args.get_str("codec") {
        None => Codec::None,
        Some("gzip") => Codec::Gzip(Level::DEFAULT),
        Some("zlib") => Codec::Zlib(Level::DEFAULT),
        Some(other) => return Err(format!("unknown codec '{other}'")),
    };
    let cache = match args.get_str("cache") {
        None => CacheLevel::None,
        Some("sys") => CacheLevel::System,
        Some("app") => CacheLevel::Application,
        Some(other) => return Err(format!("unknown cache level '{other}'")),
    };
    let threads: usize = args.get_or("threads", 8)?;

    let presto = Presto::new(workload.pipeline.clone(), workload.dataset.clone(), env);
    let want_csv = args.has("csv");
    let mut profiles = Vec::new();
    let mut table = TableBuilder::new(&[
        "strategy",
        "SPS",
        "net MB/s",
        "storage",
        "prep",
        "T1/T2/T3 MB/s",
    ]);
    for base in Strategy::enumerate(&workload.pipeline) {
        // Only offline-processed data is stored, so only it compresses.
        let step_codec = if base.split > 0 { codec } else { Codec::None };
        let strategy = base
            .with_threads(threads)
            .with_compression(step_codec)
            .with_cache(cache);
        let profile = presto.profile_strategy(&strategy, epochs);
        if want_csv {
            profiles.push(profile.clone());
        }
        if let Some(error) = &profile.error {
            table.row(&[
                profile.label,
                format!("{error}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let t = profile.throughputs();
        table.row(&[
            profile.label.clone(),
            format!("{:.0}", profile.throughput_sps()),
            format!("{:.0}", profile.epochs.last().unwrap().network_read_mbps),
            format_bytes(profile.storage_bytes),
            format!("{:.0}s", profile.preprocessing_secs()),
            format!("{:.0}/{:.0}/{:.0}", t.t1_mbps, t.t2_mbps, t.t3_mbps),
        ]);
    }
    if want_csv {
        print!("{}", presto::report::profiles_to_csv(&profiles));
    } else {
        println!("{}", table.render());
    }
    Ok(())
}

fn weights(args: &Args) -> Result<Weights, String> {
    Ok(Weights::new(
        args.get_or("wp", 0.0)?,
        args.get_or("ws", 0.0)?,
        args.get_or("wt", 1.0)?,
    ))
}

fn search_options(args: &Args) -> Result<presto::SearchOptions, String> {
    Ok(presto::SearchOptions {
        jobs: args.get_or("jobs", 0usize)?,
        epochs: 1,
        no_memo: false,
        progress: None,
    })
}

fn run_search(
    presto: &Presto,
    weights: Weights,
    opts: &presto::SearchOptions,
    args: &Args,
) -> Result<presto::SearchReport, String> {
    if !args.has("prune") {
        return Ok(presto::profile_grid_parallel(presto, opts));
    }
    let defaults = presto::PruneOptions::default();
    let prune = presto::PruneOptions {
        probe_samples: args.get_or("probe-samples", defaults.probe_samples)?,
        keep: args.get_or("keep", defaults.keep)?,
    };
    Ok(presto::profile_grid_pruned(presto, weights, opts, &prune))
}

fn cmd_recommend(args: &Args) -> Result<(), String> {
    let workload = find_workload(args)?;
    let env = env_from(args)?;
    let weights = weights(args)?;
    let presto = Presto::new(workload.pipeline.clone(), workload.dataset.clone(), env);
    let opts = search_options(args)?;
    let report = run_search(&presto, weights, &opts, args)?;

    if args.has("json") {
        // Stable `presto.search.v1` document: identical bytes for any
        // --jobs value (CI's search-parity gate diffs them).
        print!(
            "{}",
            presto::search::report_json(&workload.pipeline.name, weights, &report)
        );
        return Ok(());
    }

    println!(
        "weights: w_p={} w_s={} w_t={}",
        weights.preprocessing, weights.storage, weights.throughput
    );
    println!("{}", render::search_summary(&report.stats));
    let top = args.get_or("top", 15usize)?.max(1);
    let ranked = report.analysis.rank(weights);
    let mut table = TableBuilder::new(&["rank", "strategy", "score", "SPS", "storage", "prep"]);
    for (rank, scored) in ranked.iter().take(top).enumerate() {
        table.row(&[
            (rank + 1).to_string(),
            scored.label.clone(),
            format!("{:.3}", scored.score),
            format!("{:.0}", scored.throughput_sps),
            format_bytes(scored.storage_bytes),
            format!("{:.0}s", scored.preprocessing_secs),
        ]);
    }
    println!("{}", table.render());
    if ranked.len() > top {
        println!("({} more; raise --top to see them)", ranked.len() - top);
    }
    Ok(())
}

fn cmd_cost(args: &Args) -> Result<(), String> {
    let workload = find_workload(args)?;
    let env = env_from(args)?;
    let campaign = Campaign {
        epochs: args.get_or("epochs", 90u32)?,
        retention_months: args.get_or("months", 1.0)?,
    };
    let typical = CloudPricing::typical();
    let pricing = CloudPricing {
        vm_per_hour: args.get_or("vm", typical.vm_per_hour)?,
        storage_per_gb_month: args.get_or("gb-month", typical.storage_per_gb_month)?,
    };
    let presto = Presto::new(workload.pipeline.clone(), workload.dataset.clone(), env);
    let analysis = presto.profile_all(1);

    let mut table = TableBuilder::new(&["strategy", "prep $", "storage $", "online $", "total $"]);
    for profile in analysis.profiles() {
        if profile.error.is_some() {
            continue;
        }
        let cost = cost_of(profile, &pricing, &campaign);
        table.row(&[
            profile.label.clone(),
            format!("{:.2}", cost.preprocessing_usd),
            format!("{:.2}", cost.storage_usd),
            format!("{:.2}", cost.online_usd),
            format!("{:.2}", cost.total()),
        ]);
    }
    println!(
        "campaign: {} epochs, {:.1} months retention, VM ${}/h, storage ${}/GB-month",
        campaign.epochs,
        campaign.retention_months,
        pricing.vm_per_hour,
        pricing.storage_per_gb_month
    );
    println!("{}", table.render());
    match args.get_or::<f64>("feed", 0.0)? {
        floor if floor > 0.0 => match cheapest_feeding(&analysis, &pricing, &campaign, floor) {
            Some((profile, cost)) => println!(
                "cheapest strategy feeding {floor:.0} SPS: {} (${:.2})",
                profile.label,
                cost.total()
            ),
            None => println!("no strategy reaches {floor:.0} SPS"),
        },
        _ => {
            if let Some((profile, cost)) = cheapest(&analysis, &pricing, &campaign) {
                println!(
                    "cheapest strategy: {} (${:.2})",
                    profile.label,
                    cost.total()
                );
            }
        }
    }
    Ok(())
}

fn cmd_diagnose(args: &Args) -> Result<(), String> {
    let workload = find_workload(args)?;
    let env = env_from(args)?;
    let presto = Presto::new(
        workload.pipeline.clone(),
        workload.dataset.clone(),
        env.clone(),
    );
    let mut table = TableBuilder::new(&[
        "strategy",
        "SPS",
        "bottleneck",
        "storage",
        "cpu",
        "dispatch",
        "lock wait",
    ]);
    for strategy in Strategy::enumerate(&workload.pipeline) {
        let profile = presto.profile_strategy(&strategy, 1);
        let Some(diagnosis) = presto::diagnose(&profile, &env) else {
            continue;
        };
        table.row(&[
            profile.label.clone(),
            format!("{:.0}", profile.throughput_sps()),
            diagnosis.bottleneck.to_string(),
            format!("{:.0}%", diagnosis.storage_util * 100.0),
            format!("{:.0}%", diagnosis.cpu_util * 100.0),
            format!("{:.0}%", diagnosis.dispatch_util * 100.0),
            format!("{:.0}%", diagnosis.lock_wait_fraction * 100.0),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_fio(args: &Args) -> Result<(), String> {
    let device = match args.get_str("device").unwrap_or("hdd") {
        "hdd" => DeviceProfile::hdd_ceph(),
        "ssd" => DeviceProfile::ssd_ceph(),
        "nvme" => DeviceProfile::local_nvme(),
        other => return Err(format!("unknown device '{other}'")),
    };
    println!("device: {}", device.name);
    let mut table = TableBuilder::new(&["threads", "files/thread", "MB/s", "requests/s"]);
    for workload in FioWorkload::table3() {
        let result = fio::run(&device, workload);
        table.row(&[
            workload.threads.to_string(),
            workload.files_per_thread.to_string(),
            format!("{:.1}", result.bandwidth_mbps),
            format!("{:.0}", result.iops),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

/// The executable CV pipeline, the only one the real engine runs.
fn cv_pipeline(name: &str) -> Result<Pipeline, String> {
    if !name.eq_ignore_ascii_case("CV") {
        return Err(format!(
            "the real engine currently supports the CV pipeline only (got '{name}')"
        ));
    }
    Ok(steps::executable_cv_pipeline(64, 56))
}

/// `samples` synthetic JPEG-encoded natural images.
fn cv_source(samples: usize) -> Vec<Sample> {
    (0..samples as u64)
        .map(|key| {
            let img = generators::natural_image(96, 80, key);
            Sample::from_bytes(key, presto_formats::image::jpg::encode(&img, 85))
        })
        .collect()
}

/// The real engine's workload: `samples` synthetic CV images
/// materialized by `exec` into a fresh in-memory store, at `--split`
/// (default `default_split`, capped at the deepest) in the strategy
/// `shape` makes of it.
fn materialize_cv(
    args: &Args,
    exec: &RealExecutor,
    samples: usize,
    default_split: usize,
    shape: impl FnOnce(Strategy) -> Strategy,
    json: bool,
) -> Result<(Pipeline, Materialized, Arc<dyn BlobStore>), String> {
    let pipeline = cv_pipeline(pipeline_arg(args))?;
    let split = args.get_or("split", default_split.min(pipeline.max_split()))?;
    let store: Arc<dyn BlobStore> = Arc::new(MemStore::new());
    let (dataset, prep) = exec
        .materialize(
            &pipeline,
            &shape(Strategy::at_split(split)),
            &cv_source(samples),
            store.as_ref(),
        )
        .map_err(|e| e.to_string())?;
    note(
        json,
        format!(
            "materialized {} samples into {} shards ({}) in {:.2?}",
            dataset.sample_count,
            dataset.shards.len(),
            format_bytes(dataset.stored_bytes),
            prep
        ),
    );
    Ok((pipeline, dataset, store))
}

fn cmd_realrun(args: &Args) -> Result<(), String> {
    let samples = args.get_or("samples", 32usize)?;
    let threads = args.get_or("threads", 4usize)?;
    let epochs = args.get_or("epochs", 2usize)?;
    let prefetch = args.get_or("prefetch", 16usize)?;
    // --json: one presto.telemetry.v1 document on stdout, nothing else.
    let json = args.has("json");
    let prom = match args.get_str("metrics").unwrap_or("table") {
        "table" => false,
        "prom" => true,
        other => return Err(format!("unknown metrics format '{other}' (table|prom)")),
    };

    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(threads).with_telemetry(Arc::clone(&telemetry));
    let _endpoint = serve_endpoint(args, &telemetry, true, json)?;
    let (pipeline, dataset, base) = materialize_cv(
        args,
        &exec,
        samples,
        usize::MAX,
        |s| s.with_threads(threads),
        json,
    )?;
    let resilience = parse_resilience(args, samples as u64, dataset.shards.len() as u64)?;

    let fault_store = if args.has("inject-faults") {
        let mut spec = FaultSpec::new(args.get_or("fault-seed", 47u64)?)
            .with_get_failures(args.get_or("fail-pct", 20u8)?);
        if let Some(idx) = args.get_opt::<usize>("corrupt-shard")? {
            let shard = dataset
                .shards
                .get(idx)
                .ok_or("--corrupt-shard out of range")?;
            spec = spec.with_corrupt_blob(shard.clone());
        }
        if let Some(idx) = args.get_opt::<usize>("lose-shard")? {
            let shard = dataset.shards.get(idx).ok_or("--lose-shard out of range")?;
            spec = spec.with_lost_blob(shard.clone());
        }
        Some(Arc::new(FaultStore::new(Arc::clone(&base), spec)))
    } else {
        None
    };
    let store: Arc<dyn BlobStore> = match &fault_store {
        Some(faulty) => Arc::clone(faulty) as Arc<dyn BlobStore>,
        None => base,
    };

    let mut table = TableBuilder::new(&[
        "epoch", "samples", "SPS", "read", "retries", "skipped", "lost", "degraded",
    ]);
    for epoch in 0..epochs {
        let stats = exec
            .stream_epoch_with(
                &pipeline,
                &dataset,
                Arc::clone(&store),
                None,
                prefetch,
                epoch as u64,
                resilience.clone(),
            )
            .and_then(drain_epoch)
            .map_err(|e| format!("epoch {epoch} failed: {e}"))?;
        table.row(&[
            epoch.to_string(),
            stats.samples.to_string(),
            format!("{:.0}", stats.samples_per_second()),
            format_bytes(stats.bytes_read),
            stats.retries.to_string(),
            stats.skipped_samples.to_string(),
            stats.lost_shards.to_string(),
            if stats.degraded { "yes" } else { "no" }.into(),
        ]);
    }
    let snapshot = telemetry
        .last_epoch()
        .ok_or_else(|| "no telemetry recorded (zero epochs?)".to_string())?;
    let document = telemetry_export::json(&snapshot);
    if let Some(path) = args.get_str("trace-out") {
        write_file(path, &telemetry_export::chrome_trace(&snapshot))?;
        note(
            json,
            format!(
                "wrote Chrome trace ({} spans) to {path}",
                snapshot.spans.len()
            ),
        );
    }
    if json {
        println!("{document}");
        return Ok(());
    }
    println!("{}", table.render());
    if prom {
        print!("{}", telemetry_export::prometheus(&snapshot));
    } else {
        println!("last epoch telemetry:");
        println!("{}", render::telemetry_table(&snapshot));
        if let Some(diagnosed) = presto::diagnose_real(&snapshot) {
            println!("{}", render::real_diagnosis(&diagnosed));
        }
    }
    if let Some(faulty) = fault_store {
        let injected = faulty.injected();
        println!(
            "injected faults: {} failed gets, {} failed puts, {} corrupted gets, {} lost gets",
            injected.get_failures,
            injected.put_failures,
            injected.corrupted_gets,
            injected.lost_gets
        );
    }
    Ok(())
}

/// `--policy` with its `--max-skip`/`--max-lost` budgets (defaults
/// `max_skip`/`max_lost`).
fn parse_policy(args: &Args, max_skip: u64, max_lost: u64) -> Result<FaultPolicy, String> {
    match args.get_str("policy").unwrap_or("failfast") {
        "failfast" => Ok(FaultPolicy::FailFast),
        "degrade" => Ok(FaultPolicy::Degrade {
            max_skipped_samples: args.get_or("max-skip", max_skip)?,
            max_lost_shards: args.get_or("max-lost", max_lost)?,
        }),
        other => Err(format!("unknown policy '{other}' (failfast|degrade)")),
    }
}

/// [`parse_policy`] plus `--retries` per storage read.
fn parse_resilience(args: &Args, max_skip: u64, max_lost: u64) -> Result<Resilience, String> {
    let retry = RetryPolicy {
        max_attempts: args.get_or("retries", 3u32)?,
        ..RetryPolicy::default()
    };
    Ok(Resilience::new(
        retry,
        parse_policy(args, max_skip, max_lost)?,
    ))
}

/// Drain one streamed epoch, local or served, as a training loop
/// would, and return its stats.
fn drain_epoch(mut stream: EpochStream) -> Result<EpochStats, PipelineError> {
    for result in &mut stream {
        result?;
    }
    stream.join()
}

fn causal_options(args: &Args) -> Result<presto::CausalOptions, String> {
    Ok(presto::CausalOptions {
        seed: args.get_or("seed", 42u64)?,
        trials: args.get_or("trials", 3u32)?,
    })
}

/// `causal --from FILE`: profile a recorded run.
fn cmd_causal_replay(args: &Args) -> Result<(), String> {
    let path = args.get_str("from").unwrap_or_default();
    let run: telemetry_export::RunDocument = doc::read(&read_file(path)?)?;
    let profile = presto::profile_from_snapshot(
        &run.snapshot,
        &format!("file:{path}"),
        &causal_options(args)?,
    )?;
    print_causal(args, &profile)
}

/// Live causal profiling: run a baseline epoch of the real engine,
/// profile its telemetry snapshot with the virtual evaluator, attach
/// the epoch's allocation attribution and — under
/// `--live-experiments` — validate the top predictions with actual
/// Coz-style dilated epochs.
fn cmd_causal_live(args: &Args) -> Result<(), String> {
    let opts = causal_options(args)?;
    let samples = args.get_or("samples", 64usize)?;
    let threads = args.get_or("threads", 4usize)?;
    let prefetch = args.get_or("prefetch", 16usize)?;
    let json = args.has("json");

    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(threads).with_telemetry(Arc::clone(&telemetry));
    let (pipeline, dataset, store) = materialize_cv(
        args,
        &exec,
        samples,
        usize::MAX,
        |s| s.with_threads(threads),
        json,
    )?;
    let resilience = Resilience::default();
    let timed_epoch = |exec: &RealExecutor| {
        exec.stream_epoch_with(
            &pipeline,
            &dataset,
            Arc::clone(&store),
            None,
            prefetch,
            1,
            resilience.clone(),
        )
        .and_then(drain_epoch)
        .map(|stats| stats.samples_per_second())
        .map_err(|e| e.to_string())
    };

    let baseline_sps = timed_epoch(&exec)?;
    let snapshot = telemetry
        .last_epoch()
        .ok_or_else(|| "no telemetry recorded".to_string())?;
    let alloc = telemetry
        .current_recorder()
        .map(|r| r.alloc_profile())
        .unwrap_or_default();
    let label = format!("live:{}", pipeline_arg(args));
    let mut profile = presto::profile_from_snapshot(&snapshot, &label, &opts)?;
    profile.alloc = alloc;

    if args.has("live-experiments") {
        // Validate the two strongest predictions with real dilated
        // epochs: every phase EXCEPT the target spins by the dilation,
        // and dividing the dilated clock back out yields the virtual
        // run where the target alone got 50% faster.
        for rank in profile.ranking.clone().iter().take(2) {
            let plan = if rank.step == "deliver" {
                presto::plan_for_deliver(50)
            } else if let Some(idx) = snapshot.steps.iter().position(|s| s.name == rank.step) {
                presto::plan_for_phase(idx, 50)
            } else {
                continue;
            };
            let exp_exec = RealExecutor::new(threads)
                .with_telemetry(Telemetry::new())
                .with_delay_plan(Arc::new(plan));
            let exp_sps = timed_epoch(&exp_exec)?;
            profile.measured.push(presto::measured_point(
                &rank.step,
                50,
                baseline_sps,
                exp_sps,
            ));
        }
    }
    print_causal(args, &profile)
}

fn print_causal(args: &Args, profile: &telemetry_causal::CausalProfile) -> Result<(), String> {
    let json = args.has("json");
    let document = doc::write(profile.clone());
    if let Some(path) = args.get_str("out") {
        write_file(path, &document)?;
        note(
            json,
            format!("wrote {} to {path}", telemetry_causal::CAUSAL_SCHEMA),
        );
    }
    if json {
        print!("{document}");
    } else {
        println!("{}", render::causal_table(profile));
    }
    Ok(())
}

/// Worker-reconnect policy from `--reconnect-*` flags. The default
/// (one attempt, no backoff) reproduces the pre-rejoin behavior: a
/// failed worker is dropped for the rest of the epoch.
fn parse_reconnect(args: &Args) -> Result<RetryPolicy, String> {
    let attempts = args.get_or("reconnect-attempts", 1u32)?;
    let base = args.get_or("reconnect-base-ms", 50u64)?;
    Ok(RetryPolicy {
        max_attempts: attempts.max(1),
        base_backoff: Duration::from_millis(base),
        max_backoff: Duration::from_millis(base.saturating_mul(16).max(1)),
        jitter: true,
        deadline: args
            .get_opt("reconnect-deadline-ms")?
            .map(Duration::from_millis),
    })
}

fn parse_wire_codec(args: &Args) -> Result<Codec, String> {
    Ok(match args.get_str("wire-codec").unwrap_or("none") {
        "none" => Codec::None,
        "gzip" => Codec::Gzip(Level::FAST),
        "zlib" => Codec::Zlib(Level::FAST),
        other => return Err(format!("unknown wire codec '{other}' (none|gzip|zlib)")),
    })
}

fn cmd_serve_worker(args: &Args) -> Result<(), String> {
    let bind = args
        .get_str("bind")
        .ok_or("missing --bind ADDR (use 127.0.0.1:0 for an ephemeral port)")?;
    let samples = args.get_or("samples", 32usize)?;
    let shards = args.get_or("shards", 4usize)?;
    let config = ServeWorkerConfig {
        batch_samples: args.get_or("batch", 16usize)?,
        wire_codec: parse_wire_codec(args)?,
        batch_pace: Duration::from_millis(args.get_or("batch-pace-ms", 0u64)?),
        fail_after_batches: args.get_opt("kill-after-batches")?,
    };
    let exec = RealExecutor::new(2);
    let (pipeline, dataset, store) = materialize_cv(
        args,
        &exec,
        samples,
        usize::MAX,
        |s| s.with_shards(shards),
        false,
    )?;
    let resilience = parse_resilience(args, samples as u64, dataset.shards.len() as u64)?;

    let telemetry = Telemetry::new();
    let _endpoint = serve_endpoint(args, &telemetry, true, false)?;
    let worker = ServeWorker::spawn(
        bind,
        &pipeline,
        &dataset,
        store,
        resilience,
        Some(Arc::clone(&telemetry)),
        config,
    )
    .map_err(|e| e.to_string())?;
    // The line scripts and CI parse: with --bind 127.0.0.1:0 this is
    // the only way to learn the kernel-assigned port. Rust's stdout is
    // line-buffered, so the address is visible before the first client
    // connects.
    println!("worker listening on {}", worker.addr());

    if run_until(args, || worker.is_stopped())? {
        println!("worker stopped (kill switch or fatal error)");
    }
    let snapshot = telemetry.serve().snapshot();
    println!(
        "served {} batches ({}) with {} credit stalls",
        worker.batches_sent(),
        format_bytes(snapshot.bytes_sent),
        snapshot.credit_stalls
    );
    Ok(())
}

fn cmd_train_client(args: &Args) -> Result<(), String> {
    let workers = addr_list(args, "workers")?;
    let samples = args.get_or("samples", 32usize)?;
    let json = args.has("json");
    let pipeline = cv_pipeline(pipeline_arg(args))?;
    let split = args.get_or("split", pipeline.max_split())?;
    let shards = args.get_or("shards", 4usize)?;
    // Must mirror the worker's materialization exactly: same count
    // clamp, same naming scheme.
    let shard_count = shards.max(1).min(samples.max(1));
    let shard_names: Vec<String> = (0..shard_count)
        .map(|i| format!("{}-split{}-shard{:04}", pipeline.name, split, i))
        .collect();
    let seed = args.get_or("seed", 0u64)?;
    let config = ServeClientConfig {
        credits: args.get_or("credits", 8u32)?,
        policy: parse_policy(args, samples as u64, shard_count as u64)?,
        read_timeout: Duration::from_millis(args.get_or("timeout-ms", 30_000u64)?),
        connect_timeout: Duration::from_millis(args.get_or("connect-timeout-ms", 5_000u64)?),
        reconnect: parse_reconnect(args)?,
        tenant: match args.get_str("tenant") {
            Some(name) => Some(TenantSpec::new(name, args.get_or("weight", 1u32)?.max(1))),
            None if args.has("weight") => return Err("--weight needs --tenant NAME".into()),
            None => None,
        },
        ..ServeClientConfig::default()
    };

    let telemetry = Telemetry::new();
    // --serve: the fleet aggregator endpoint. /metrics carries the
    // merged epoch + serve + fleet gauge families, /fleet.json the
    // presto.fleet.v1 bundle, live while the epoch runs.
    let endpoint = serve_endpoint(args, &telemetry, true, json)?;
    let report = serve_stream(&workers, &shard_names, seed, &config, Some(&telemetry))
        .and_then(drain_epoch)
        .map(|stats| stats.served.unwrap_or_default())
        .map_err(|e| e.to_string())?;
    let snapshot = telemetry
        .last_epoch()
        .ok_or_else(|| "no telemetry recorded".to_string())?;
    let document = telemetry_export::json_with_mode(&snapshot, Some("serve"));
    let serve_snapshot = telemetry.serve().snapshot();
    let fleet = telemetry.fleet().snapshot();
    if let Some(path) = args.get_str("fleet-out") {
        write_file(
            path,
            &telemetry_fleet::fleet_json(&snapshot, &serve_snapshot, &fleet),
        )?;
        note(json, format!("fleet trace -> {path}"));
    }
    // Keep the aggregator scrapeable after the epoch so CI (and
    // humans) can pull the finished /fleet.json.
    let linger = args.get_or("serve-linger-ms", 0u64)?;
    if endpoint.is_some() && linger > 0 {
        std::thread::sleep(Duration::from_millis(linger));
    }
    if json {
        println!("{document}");
        return Ok(());
    }
    println!(
        "epoch complete: {} samples in {:.2?} ({:.0} SPS) from {} worker(s)",
        report.samples,
        report.elapsed,
        report.samples_per_second(),
        report.workers
    );
    println!(
        "{} batches, {} on the wire, {} reassignment(s) over {} round(s)",
        report.batches,
        format_bytes(report.bytes_received),
        report.reassignments,
        report.rounds
    );
    if report.degraded {
        println!(
            "DEGRADED: {} shard(s) lost (allowed by --policy degrade)",
            report.lost_shards
        );
    }
    if let Some(diag) = presto::diagnose_fleet(&snapshot, &serve_snapshot, &fleet) {
        println!(
            "fleet bottleneck: {} (gap {:.0}% · stream {:.0}% · consume {:.0}% · worker produce {:.0}% · credit {:.0}%)",
            diag.bottleneck,
            diag.gap_share * 100.0,
            diag.stream_share * 100.0,
            diag.consume_share * 100.0,
            diag.produce_share * 100.0,
            diag.credit_share * 100.0,
        );
    }
    println!("multiset checksum: 0x{:016x}", report.checksum.digest());
    Ok(())
}

/// `presto chaos-proxy`: a deterministic fault-injecting TCP proxy in
/// front of one serve-worker. Every fault it fires lands in a bounded
/// event log; `--events-out` writes that log as `presto.chaos.v1` so
/// `presto trace --chaos` can lay the faults on their own track of the
/// merged fleet trace.
fn cmd_chaos_proxy(args: &Args) -> Result<(), String> {
    let upstream = args
        .get_str("upstream")
        .ok_or("missing --upstream ADDR (a serve-worker address)")?;
    let seed = args.get_or("seed", 1u64)?;
    let mut faults = Vec::new();
    if let Some(bytes_per_sec) = args.get_opt::<u64>("throttle-bps")? {
        faults.push(ChaosFault::Throttle {
            bytes_per_sec: bytes_per_sec.max(1),
        });
    }
    if let Some(ms) = args.get_opt("delay-ms")? {
        faults.push(ChaosFault::Delay {
            probability: args.get_or("delay-pct", 100.0f64)? / 100.0,
            hold: Duration::from_millis(ms),
        });
    }
    if let Some(ms) = args.get_opt("partition-ms")? {
        faults.push(ChaosFault::Partition {
            probability: args.get_or("partition-pct", 100.0f64)? / 100.0,
            hold: Duration::from_millis(ms),
        });
    }
    if let Some(pct) = args.get_opt::<f64>("corrupt-pct")? {
        faults.push(ChaosFault::Corrupt {
            probability: pct / 100.0,
        });
    }
    if let Some(pct) = args.get_opt::<f64>("disconnect-pct")? {
        faults.push(ChaosFault::Disconnect {
            probability: pct / 100.0,
        });
    }
    let proxy = ChaosProxy::start(upstream, seed, faults).map_err(|e| e.to_string())?;
    // Scripts parse this line the same way they parse the worker's.
    println!("chaos proxy listening on {} -> {upstream}", proxy.addr());

    run_until(args, || false)?;
    let stats = proxy.injected();
    let (events, dropped) = proxy.events();
    if let Some(path) = args.get_str("events-out") {
        write_file(path, &proxy.events_json())?;
        println!(
            "chaos events -> {path} ({} events, {dropped} dropped)",
            events.len()
        );
    }
    println!(
        "proxied {} connection(s), {} windows ({}): {} delays, {} partitions, {} corruptions, {} disconnects",
        stats.connections,
        stats.windows,
        format_bytes(stats.bytes),
        stats.delays,
        stats.partitions,
        stats.corruptions,
        stats.disconnects,
    );
    proxy.stop();
    Ok(())
}

/// `presto trace`: merge a `presto.fleet.v1` bundle (and optionally a
/// `presto.chaos.v1` event log) into one Chrome trace covering the
/// whole fleet — client, workers on the offset-corrected client clock,
/// and chaos faults on their own track.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let fleet_path = args
        .get_str("fleet")
        .ok_or("missing --fleet FILE (a presto.fleet.v1 document)")?;
    let fleet_doc = read_file(fleet_path)?;
    let chaos_doc = args.get_str("chaos").map(read_file).transpose()?;
    let merged = telemetry_fleet::merge_chrome_trace(&fleet_doc, chaos_doc.as_deref())?;
    let events = telemetry_export::validate_chrome_trace(&merged)
        .map_err(|e| format!("merged trace failed self-validation: {e}"))?;
    match args.get_str("out") {
        Some(path) => {
            write_file(path, &merged)?;
            println!("merged trace -> {path} ({events} complete events)");
        }
        None => print!("{merged}"),
    }
    Ok(())
}

/// `presto fleetd`: the multi-tenant scheduler daemon. A pure relay —
/// it holds no dataset of its own; `--backends` names running
/// serve-workers and clients register weighted jobs against the
/// daemon's admission policy with `train-client --tenant`.
fn cmd_fleetd(args: &Args) -> Result<(), String> {
    let bind = args
        .get_str("bind")
        .ok_or("missing --bind ADDR (use 127.0.0.1:0 for an ephemeral port)")?;
    let backends = addr_list(args, "backends")?;
    let config = FleetDaemonConfig {
        policy: AdmissionPolicy {
            max_jobs: args.get_or("max-jobs", 8usize)?.max(1),
            shard_quota: args.get_or("quota", 1024u32)?.max(1),
            max_requeues: args.get_or("max-requeues", 16u64)?,
        },
        backend_credits: args.get_or("credits", 8u32)?.max(1),
        quantum: args.get_or("quantum", 32u64)?.max(1),
        max_inflight: args.get_or("max-inflight", 2usize)?.max(1),
        ..FleetDaemonConfig::default()
    };
    let telemetry = Telemetry::new();
    let _endpoint = serve_endpoint(args, &telemetry, true, false)?;
    let daemon = FleetDaemon::spawn(bind, &backends, config, Some(Arc::clone(&telemetry)))
        .map_err(|e| e.to_string())?;
    // The line scripts and CI parse: with --bind 127.0.0.1:0 this is
    // the only way to learn the kernel-assigned port.
    println!("fleetd listening on {}", daemon.addr());
    run_until(args, || false)?;
    let snapshot = telemetry.tenants().snapshot();
    let count = |state: &str| {
        snapshot
            .tenants
            .iter()
            .filter(|t| t.state.label() == state)
            .count()
    };
    println!(
        "fleetd saw {} tenant(s): {} done, {} failed, {} rejected",
        snapshot.tenants.len(),
        count("done"),
        count("failed"),
        snapshot.rejected
    );
    Ok(())
}

/// Where fan-out saturates, as `(model, measurement)` job counts: the
/// first fan-out the model calls link-bound, and the first whose
/// measured straggler falls below 70% of the one-client `sps1`.
/// `predicted[i]` and `measured[i]` are the figures at `i + 1` jobs.
fn fan_out_saturation(
    sps1: f64,
    predicted: &[distributed::FanOut],
    measured: &[f64],
) -> (Option<usize>, Option<usize>) {
    let model = predicted.iter().position(|p| p.link_bound);
    let measurement = measured.iter().position(|&sps| sps < 0.7 * sps1);
    (model.map(|i| i + 1), measurement.map(|i| i + 1))
}

fn cmd_sim_vs_real(args: &Args) -> Result<(), String> {
    let samples = args.get_or("samples", 32usize)?;
    let jobs = args.get_or("jobs", 3usize)?.max(1);
    let shards = args.get_or("shards", 4usize)?;

    // One fixed-capacity preprocessing node shared by every training
    // job: the paper's concurrent-training fan-out, run for real. A
    // mid split by default: enough online work (JPEG decode + crop)
    // that serving time dominates connection overhead.
    let exec = RealExecutor::new(2);
    let (pipeline, dataset, store) =
        materialize_cv(args, &exec, samples, 2, |s| s.with_shards(shards), false)?;
    let worker = ServeWorker::spawn(
        "127.0.0.1:0",
        &pipeline,
        &dataset,
        store,
        Resilience::default(),
        None,
        ServeWorkerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let addr = worker.addr().to_string();
    let client_config = ServeClientConfig::default();

    let run_clients = |n: usize| -> Result<Vec<ServeReport>, String> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        serve_epoch(
                            std::slice::from_ref(&addr),
                            &dataset.shards,
                            7,
                            &client_config,
                            None,
                            |_| {},
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "client panicked".to_string())?
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
    };

    // Warm up (allocators, code paths), then calibrate on one client:
    // its throughput and wire volume define the link the fan-out model
    // reasons about, so the model and the measurement agree at j=1 by
    // construction and are compared at every j > 1.
    run_clients(1)?;
    let single = run_clients(1)?.remove(0);
    let sps1 = single.samples_per_second();
    if sps1 <= 0.0 {
        return Err("calibration run measured zero throughput".into());
    }
    let wire_sample_bytes = single.bytes_received as f64 / single.samples.max(1) as f64;
    let link_bw = sps1 * wire_sample_bytes;
    let reference_digest = single.checksum.digest();
    println!(
        "calibration: {sps1:.0} SPS per client, {} per sample on the wire",
        format_bytes(wire_sample_bytes as u64)
    );

    let mut table = TableBuilder::new(&["jobs", "sim SPS/job", "link-bound", "real SPS/job"]);
    let mut all_predicted = Vec::new();
    let mut all_measured = Vec::new();
    for j in 1..=jobs {
        let predicted = distributed::fan_out(sps1, wire_sample_bytes, link_bw, j);
        let reports = if j == 1 {
            vec![single.clone()]
        } else {
            run_clients(j)?
        };
        for report in &reports {
            if report.checksum.digest() != reference_digest {
                return Err(format!(
                    "a job at fan-out {j} delivered a different sample multiset"
                ));
            }
        }
        // The straggler bounds the fleet — exactly what the link-bound
        // model predicts per job.
        let real_sps = reports
            .iter()
            .map(|r| r.samples_per_second())
            .fold(f64::INFINITY, f64::min);
        all_predicted.push(predicted);
        all_measured.push(real_sps);
        table.row(&[
            j.to_string(),
            format!("{:.0}", predicted.per_job_sps),
            if predicted.link_bound { "yes" } else { "no" }.into(),
            format!("{real_sps:.0}"),
        ]);
    }
    worker.stop();
    println!("{}", table.render());
    // The throughput half of `fidelity::profile_drift`, on bare numbers.
    let t_drift = all_predicted
        .iter()
        .zip(&all_measured)
        .filter(|(p, _)| p.per_job_sps > 0.0)
        .map(|(p, real)| (real - p.per_job_sps).abs() / p.per_job_sps)
        .fold(0.0, f64::max);
    println!(
        "max per-job throughput drift vs the fan-out model: {:.0}%",
        t_drift * 100.0
    );

    // Context: the simulator's distributed offline-phase scaling for
    // the same pipeline and split.
    if let Ok(workload) = workload_named(pipeline_arg(args)) {
        let mut env = SimEnv::paper_vm();
        env.subset_samples = 256;
        let sim = Simulator::new(workload.pipeline.clone(), workload.dataset.clone(), env);
        let sim_strategy =
            Strategy::at_split(dataset.split.min(workload.pipeline.max_split()).max(1));
        let mut scaling = TableBuilder::new(&["workers", "offline", "speedup"]);
        for row in distributed::offline_scaling(&sim, &sim_strategy, &[1, 2, 4]) {
            scaling.row(&[
                row.workers.to_string(),
                format!("{:.0}s", row.elapsed.as_secs_f64()),
                format!("{:.2}x", row.speedup),
            ]);
        }
        println!("simulated offline scaling at split {}:", sim_strategy.split);
        println!("{}", scaling.render());
    }

    match fan_out_saturation(sps1, &all_predicted, &all_measured) {
        (Some(s), Some(r)) if s == r => {
            println!(
                "verdict: fan-out saturates at {s} jobs in both the model and the measurement"
            );
            Ok(())
        }
        (None, None) => {
            println!(
                "verdict: no saturation within {jobs} jobs in either the model or the measurement"
            );
            Ok(())
        }
        (sim, real) => Err(format!(
            "fan-out verdicts disagree: model saturates at {sim:?} jobs, measurement at {real:?}"
        )),
    }
}

/// Redraw in place (clear screen + home) unless `--plain` asks for
/// appended frames (tests, CI, non-ANSI terminals).
fn clear_frame(args: &Args) {
    if !args.has("plain") {
        print!("\x1b[2J\x1b[H");
    }
}

fn refresh(args: &Args) -> Result<Duration, String> {
    Ok(Duration::from_millis(
        args.get_or("refresh-ms", 250u64)?.max(10),
    ))
}

fn cmd_watch(args: &Args) -> Result<(), String> {
    let samples = args.get_or("samples", 64usize)?;
    let threads = args.get_or("threads", 4usize)?;
    let epochs = args.get_or("epochs", 3usize)?;
    let refresh = refresh(args)?;
    let sample_ms = args.get_or("sample-ms", 100u64)?.max(1);
    // Default to split 0 (everything online) so the dashboard has the
    // full step chain to show; with --cache the verdict visibly moves
    // once epoch 2 serves from the warm cache.
    let cache = args.has("cache").then(|| AppCache::new(1 << 28));

    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(threads).with_telemetry(Arc::clone(&telemetry));
    let (pipeline, dataset, store) =
        materialize_cv(args, &exec, samples, 0, |s| s.with_threads(threads), false)?;
    let sampler = Sampler::spawn(
        Arc::clone(&telemetry),
        Duration::from_millis(sample_ms),
        timeseries::DEFAULT_RING_CAPACITY,
    );
    let series = sampler.series();

    let result = std::thread::scope(|scope| {
        let worker = scope.spawn(|| -> Result<(), String> {
            for epoch in 0..epochs {
                exec.stream_epoch_with(
                    &pipeline,
                    &dataset,
                    Arc::clone(&store),
                    cache.as_ref(),
                    threads, // one bundle in flight per worker, as `epoch` drains
                    epoch as u64,
                    Resilience::default(),
                )
                .and_then(drain_epoch)
                .map_err(|e| format!("epoch {epoch} failed: {e}"))?;
            }
            Ok(())
        });
        while !worker.is_finished() {
            std::thread::sleep(refresh);
            let points = series.points();
            let trend = presto::diagnose_window(&points);
            clear_frame(args);
            println!("{}", render::watch_frame(&points, trend.as_ref()));
        }
        worker
            .join()
            .map_err(|_| "watch worker panicked".to_string())?
    });
    let series = sampler.stop();
    result?;

    // Final frame over the full window, then the sealed verdict.
    let points = series.points();
    let trend = presto::diagnose_window(&points);
    println!("{}", render::watch_frame(&points, trend.as_ref()));
    if let Some(snapshot) = telemetry.last_epoch() {
        if let Some(diagnosed) = presto::diagnose_real(&snapshot) {
            println!("{}", render::real_diagnosis(&diagnosed));
        }
    }
    println!(
        "watched {epochs} epochs ({} samples each)",
        dataset.sample_count
    );
    Ok(())
}

/// `watch --attach ADDR`: render the serve-session and fleet gauge
/// families scraped from a running `--serve` endpoint's `/metrics`,
/// and the tenant registry of a `fleetd --serve` endpoint.
/// `--frames N` stops after N frames (CI); without it the dashboard
/// runs until the endpoint goes away.
fn watch_attach(args: &Args) -> Result<(), String> {
    let addr: std::net::SocketAddr = args
        .get_str("attach")
        .unwrap_or_default()
        .parse()
        .map_err(|_| "bad --attach ADDR (need host:port of a /metrics endpoint)".to_string())?;
    let refresh = refresh(args)?;
    let frames = args.get_or("frames", 0u64)?;
    let mut rendered = 0u64;
    loop {
        let body = match presto_pipeline::telemetry::http::get(addr, "/metrics") {
            Ok((200, body)) => body,
            Ok((status, _)) => return Err(format!("{addr}/metrics returned HTTP {status}")),
            Err(e) => {
                if rendered == 0 {
                    return Err(format!("cannot scrape {addr}/metrics: {e}"));
                }
                // The endpoint went away mid-watch: the session ended.
                println!("endpoint {addr} closed after {rendered} frame(s)");
                return Ok(());
            }
        };
        let frame = attach_frame(addr, &body)?;
        clear_frame(args);
        println!("{frame}");
        rendered += 1;
        if frames > 0 && rendered >= frames {
            return Ok(());
        }
        std::thread::sleep(refresh);
    }
}

/// One `watch --attach` frame from the endpoint's scraped `/metrics`
/// body, with its tenant registry appended when `/tenants.json`
/// answers 200 (a 404 means the endpoint has none).
fn attach_frame(addr: std::net::SocketAddr, metrics: &str) -> Result<String, String> {
    let series = telemetry_export::parse_prometheus(metrics)?;
    let tenants: Option<TenantsSnapshot> =
        match presto_pipeline::telemetry::http::get(addr, "/tenants.json") {
            Ok((200, body)) => Some(doc::read(&body)?),
            // A failed connection means the endpoint went away after
            // answering `/metrics`; the next scrape reports that.
            Ok((404, _)) | Err(_) => None,
            Ok((status, _)) => return Err(format!("{addr}/tenants.json returned HTTP {status}")),
        };
    Ok(render::attach_frame(&series, tenants.as_ref()))
}

/// `watch --search`: live dashboard over a simulated strategy search.
/// Unlike the real-engine dashboard this works for every built-in
/// pipeline — the search runs on a worker thread and the frame renders
/// the [`presto_pipeline::SearchProgress`] gauges the pool updates.
/// With `--serve ADDR` the same gauges are scrapeable at `/metrics`
/// while the search runs.
fn watch_search(args: &Args) -> Result<(), String> {
    let workload = workload_named(pipeline_arg(args))?;
    let env = env_from(args)?;
    let weights = weights(args)?;
    let refresh = refresh(args)?;
    let presto = Presto::new(workload.pipeline.clone(), workload.dataset.clone(), env);

    // Progress lives in the telemetry registry so `/metrics` can serve
    // it live when --serve is given.
    let telemetry = Telemetry::new();
    let progress = telemetry.search();
    let _endpoint = serve_endpoint(args, &telemetry, false, false)?;
    let mut opts = search_options(args)?;
    opts.progress = Some(Arc::clone(&progress));
    let frame = || render::search_frame(&workload.pipeline.name, &progress.snapshot());

    let report = std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_search(&presto, weights, &opts, args));
        while !worker.is_finished() {
            std::thread::sleep(refresh);
            clear_frame(args);
            println!("{}", frame());
        }
        worker
            .join()
            .map_err(|_| "search worker panicked".to_string())?
    })?;

    println!("{}", frame());
    println!("{}", render::search_summary(&report.stats));
    if let Some(best) = report.analysis.try_recommend(weights) {
        println!(
            "recommendation: {} ({:.0} SPS, {} stored, {:.0}s preprocessing)",
            best.label,
            best.throughput_sps,
            format_bytes(best.storage_bytes),
            best.preprocessing_secs
        );
    }
    Ok(())
}

/// `presto validate FILE`: the document says what it is — a JSON
/// object by its `schema` member, a JSON array is a Chrome trace, and
/// anything else must be Prometheus text.
fn cmd_validate(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("usage: presto validate <file>")?;
    let input = read_file(path)?;
    let what = match input.trim_start().as_bytes().first() {
        Some(b'{') => {
            let json = telemetry_export::parse_json(&input)?;
            let schema = json.require_str("schema")?;
            let detail = match schema {
                telemetry_export::JSON_SCHEMA => {
                    doc::read::<telemetry_export::RunDocument>(&input)?;
                    String::new()
                }
                timeseries::TIMESERIES_SCHEMA => {
                    let series: timeseries::TimeSeriesDocument = doc::read(&input)?;
                    format!(" ({} points)", series.points.len())
                }
                telemetry_fleet::FLEET_SCHEMA => {
                    let fleet: telemetry_fleet::FleetDocument = doc::read(&input)?;
                    format!(
                        " ({} worker(s), trace 0x{:016x})",
                        fleet.workers.len(),
                        fleet.trace_id
                    )
                }
                telemetry_causal::CAUSAL_SCHEMA => {
                    let profile: telemetry_causal::CausalProfile = doc::read(&input)?;
                    format!(" ({} experiments)", profile.experiments.len())
                }
                telemetry_tenants::TENANTS_SCHEMA => {
                    let snapshot: TenantsSnapshot = doc::read(&input)?;
                    format!(
                        " ({} tenant(s), {} rejected)",
                        snapshot.tenants.len(),
                        snapshot.rejected
                    )
                }
                other => return Err(format!("{path}: no validator for schema '{other}'")),
            };
            format!("{schema}{detail}")
        }
        Some(b'[') => {
            let complete = telemetry_export::validate_chrome_trace(&input)?;
            format!("Chrome trace ({complete} complete events)")
        }
        _ => {
            let series = telemetry_export::parse_prometheus(&input)?;
            if series.is_empty() {
                return Err(format!("{path}: no metric samples in exposition"));
            }
            format!("Prometheus exposition ({} series)", series.len())
        }
    };
    println!("{path}: valid {what}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(words: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn help_and_pipelines_succeed() {
        run(&["help"]).unwrap();
        run(&["pipelines"]).unwrap();
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&["frobnicate"]).is_err());
        for retired in ["history", "compare", "tenants"] {
            let err = run(&[retired]).unwrap_err();
            assert!(err.contains("unknown command"), "{err}");
        }
    }

    #[test]
    fn steps_renders_named_pipeline() {
        run(&["steps", "CV"]).unwrap();
        run(&["steps", "CV", "--split", "2"]).unwrap();
        assert!(run(&["steps", "CV", "--split", "99"]).is_err());
        assert!(run(&["steps", "NOPE"]).is_err());
    }

    #[test]
    fn profile_small_run_succeeds() {
        run(&["profile", "MP3", "--samples", "500"]).unwrap();
        run(&["profile", "MP3", "--samples", "500", "--codec", "zlib"]).unwrap();
        run(&["profile", "MP3", "--samples", "500", "--csv"]).unwrap();
        assert!(run(&["profile", "MP3", "--codec", "rar"]).is_err());
        assert!(run(&["profile", "MP3", "--epohcs", "2"]).is_err());
    }

    #[test]
    fn recommend_and_cost_run() {
        run(&["recommend", "FLAC", "--samples", "500", "--wp", "1"]).unwrap();
        run(&["cost", "FLAC", "--samples", "500", "--epochs", "10"]).unwrap();
        run(&["cost", "FLAC", "--samples", "500", "--feed", "1000"]).unwrap();
    }

    #[test]
    fn recommend_search_modes_run() {
        run(&["recommend", "FLAC", "--samples", "500", "--jobs", "2"]).unwrap();
        run(&[
            "recommend",
            "FLAC",
            "--samples",
            "500",
            "--jobs",
            "1",
            "--json",
        ])
        .unwrap();
        run(&["recommend", "FLAC", "--samples", "500", "--top", "3"]).unwrap();
        run(&[
            "recommend",
            "FLAC",
            "--samples",
            "500",
            "--prune",
            "--probe-samples",
            "200",
            "--keep",
            "0.5",
        ])
        .unwrap();
        assert!(run(&["recommend", "FLAC", "--jobs", "two"]).is_err());
        assert!(run(&["recommend", "FLAC", "--no-memo"]).is_err());
    }

    #[test]
    fn watch_search_runs_for_any_pipeline() {
        run(&[
            "watch",
            "NLP",
            "--search",
            "--samples",
            "500",
            "--jobs",
            "2",
            "--plain",
            "--refresh-ms",
            "20",
        ])
        .unwrap();
        run(&[
            "watch",
            "CV",
            "--search",
            "--samples",
            "300",
            "--prune",
            "--probe-samples",
            "100",
            "--plain",
            "--refresh-ms",
            "20",
            "--serve",
            "127.0.0.1:0",
        ])
        .unwrap();
        assert!(run(&["watch", "NOPE", "--search"]).is_err());
    }

    #[test]
    fn diagnose_runs() {
        run(&["diagnose", "MP3", "--samples", "500"]).unwrap();
        assert!(run(&["diagnose", "NOPE"]).is_err());
    }

    #[test]
    fn realrun_clean_and_degraded() {
        run(&[
            "realrun",
            "CV",
            "--samples",
            "8",
            "--threads",
            "2",
            "--epochs",
            "1",
        ])
        .unwrap();
        run(&[
            "realrun",
            "CV",
            "--samples",
            "8",
            "--threads",
            "2",
            "--epochs",
            "1",
            "--inject-faults",
            "--fail-pct",
            "20",
            "--corrupt-shard",
            "0",
            "--policy",
            "degrade",
            "--retries",
            "6",
        ])
        .unwrap();
        assert!(run(&["realrun", "NLP"]).is_err());
        assert!(run(&["realrun", "CV", "--policy", "sometimes"]).is_err());
        assert!(run(&[
            "realrun",
            "CV",
            "--samples",
            "4",
            "--corrupt-shard",
            "99",
            "--inject-faults"
        ])
        .is_err());
    }

    #[test]
    fn realrun_exports_metrics_and_trace() {
        let base = [
            "realrun",
            "CV",
            "--samples",
            "8",
            "--threads",
            "2",
            "--epochs",
            "1",
        ];
        let with = |extra: &[&str]| {
            let mut words = base.to_vec();
            words.extend_from_slice(extra);
            run(&words)
        };
        with(&["--metrics", "prom"]).unwrap();
        with(&["--json"]).unwrap();
        // `--json` is the document; `--metrics` only picks a text format.
        assert!(with(&["--metrics", "json"]).is_err());
        assert!(with(&["--metrics", "xml"]).is_err());

        let path = std::env::temp_dir().join(format!("presto-trace-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        with(&["--trace-out", &path_str]).unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(telemetry_export::validate_chrome_trace(&trace).unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn realrun_failfast_surfaces_the_corrupt_shard() {
        let err = run(&[
            "realrun",
            "CV",
            "--samples",
            "8",
            "--threads",
            "1",
            "--epochs",
            "1",
            "--inject-faults",
            "--fail-pct",
            "0",
            "--corrupt-shard",
            "0",
            "--policy",
            "failfast",
        ])
        .unwrap_err();
        assert!(err.contains("corrupt"), "unexpected error: {err}");
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("presto-cli-{tag}-{}", std::process::id()))
    }

    /// The committed replay fixture, wherever the test runs from.
    fn bench_doc() -> &'static str {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/realrun-epoch.json"
        )
    }

    #[test]
    fn causal_replay_is_deterministic_and_validates() {
        let dir = scratch_dir("causal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out_a = dir.join("a.json");
        let out_b = dir.join("b.json");
        for out in [&out_a, &out_b] {
            run(&[
                "causal",
                "--from",
                bench_doc(),
                "--seed",
                "42",
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
        }
        let a = std::fs::read_to_string(&out_a).unwrap();
        let b = std::fs::read_to_string(&out_b).unwrap();
        assert_eq!(a, b, "same seed must produce byte-identical documents");
        run(&["validate", out_a.to_str().unwrap()]).unwrap();
        // The batched data plane retired the deliver bottleneck: the
        // committed run must rank real compute on top, not hand-off.
        let profile: telemetry_causal::CausalProfile = doc::read(&a).unwrap();
        assert_ne!(profile.ranking[0].step, "deliver");
        assert!(profile.verdicts.agree, "{:?}", profile.verdicts);
        // A different seed draws different latencies.
        let out_c = dir.join("c.json");
        run(&[
            "causal",
            "--from",
            bench_doc(),
            "--seed",
            "7",
            "--out",
            out_c.to_str().unwrap(),
        ])
        .unwrap();
        assert_ne!(a, std::fs::read_to_string(&out_c).unwrap());
        assert!(run(&["causal", "--from", "/definitely/missing.json"]).is_err());
        assert!(run(&["causal", "--from", bench_doc(), "--sede", "3"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn causal_live_mode_profiles_a_real_epoch() {
        run(&["causal", "CV", "--samples", "8", "--threads", "2"]).unwrap();
        assert!(run(&["causal", "NLP"]).is_err());
    }

    #[test]
    fn realrun_serves_metrics_while_running() {
        // --serve with port 0 binds an ephemeral port; the run itself
        // must stay healthy with the sampler + endpoint attached.
        run(&[
            "realrun",
            "CV",
            "--samples",
            "8",
            "--threads",
            "2",
            "--epochs",
            "2",
            "--serve",
            "127.0.0.1:0",
            "--sample-ms",
            "5",
        ])
        .unwrap();
        assert!(run(&[
            "realrun",
            "CV",
            "--samples",
            "4",
            "--epochs",
            "1",
            "--serve",
            "256.0.0.1:bad"
        ])
        .is_err());
    }

    #[test]
    fn watch_runs_in_plain_mode() {
        run(&[
            "watch",
            "CV",
            "--samples",
            "8",
            "--threads",
            "2",
            "--epochs",
            "2",
            "--cache",
            "--plain",
            "--refresh-ms",
            "20",
            "--sample-ms",
            "5",
        ])
        .unwrap();
        assert!(run(&["watch", "NLP"]).is_err());
        assert!(run(&["watch", "CV", "--refreshms", "10"]).is_err());
    }

    #[test]
    fn validate_checks_documents_with_own_parsers() {
        let dir = scratch_dir("validate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("run.json");
        let json_str = json_path.to_str().unwrap().to_string();
        // A real run in --json mode emits a schema-valid document.
        run(&["realrun", "CV", "--samples", "8", "--epochs", "1", "--json"]).unwrap();
        // Build one directly for the validator (stdout isn't captured here).
        let telemetry = Telemetry::new();
        let rec = telemetry.begin_epoch(&["s".into()], 1, 0);
        rec.finish(Duration::from_millis(1), 1, 1, 0, 0, 0, false);
        std::fs::write(&json_path, telemetry_export::json(&rec.snapshot())).unwrap();
        run(&["validate", &json_str]).unwrap();
        let prom_path = dir.join("metrics.prom");
        std::fs::write(&prom_path, telemetry_export::prometheus(&rec.snapshot())).unwrap();
        run(&["validate", prom_path.to_str().unwrap()]).unwrap();
        // The document names its own format: a lying schema, a
        // schema-less object, an unknown schema and non-Prometheus text
        // all fail, and --format is gone.
        let bad = dir.join("bad.txt");
        for content in [
            "{\"schema\": \"presto.tenants.v1\"}",
            "{\"epoch\": {}}",
            "{\"schema\": \"presto.nope.v1\"}",
            "[{\"ph\": 7}]",
            "not a metric line at all",
            "",
        ] {
            std::fs::write(&bad, content).unwrap();
            assert!(
                run(&["validate", bad.to_str().unwrap()]).is_err(),
                "{content}"
            );
        }
        assert!(run(&["validate", &json_str, "--format", "json"]).is_err());
        assert!(run(&["validate", "/definitely/missing.json"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_worker_binds_an_ephemeral_port_and_exits() {
        // --run-secs 0: print the bound address, serve nobody, exit.
        run(&[
            "serve-worker",
            "CV",
            "--samples",
            "8",
            "--bind",
            "127.0.0.1:0",
            "--run-secs",
            "0",
        ])
        .unwrap();
        assert!(run(&["serve-worker", "CV"]).is_err()); // missing --bind
        assert!(run(&[
            "serve-worker",
            "CV",
            "--bind",
            "127.0.0.1:0",
            "--wire-codec",
            "lz77"
        ])
        .is_err());
        assert!(run(&[
            "serve-worker",
            "CV",
            "--bind",
            "127.0.0.1:0",
            "--policy",
            "sometimes"
        ])
        .is_err());
    }

    /// A library-level worker matching `train-client`'s defaults for
    /// `--samples 8`: same pipeline, split, shard count and naming.
    fn spawn_cli_compatible_worker(samples: usize) -> (ServeWorker, String) {
        let (pipeline, source) = (cv_pipeline("CV").unwrap(), cv_source(samples));
        let strategy = Strategy::at_split(pipeline.max_split()).with_shards(4);
        let store = Arc::new(MemStore::new());
        let exec = RealExecutor::new(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source, store.as_ref())
            .unwrap();
        let worker = ServeWorker::spawn(
            "127.0.0.1:0",
            &pipeline,
            &dataset,
            store as Arc<dyn BlobStore>,
            Resilience::default(),
            None,
            ServeWorkerConfig::default(),
        )
        .unwrap();
        let addr = worker.addr().to_string();
        (worker, addr)
    }

    #[test]
    fn train_client_consumes_an_epoch() {
        let (worker, addr) = spawn_cli_compatible_worker(8);
        run(&["train-client", "CV", "--samples", "8", "--workers", &addr]).unwrap();
        worker.stop();
    }

    #[test]
    fn train_client_fault_policy_gates_dead_workers() {
        // Nothing listens on the reserved discard port: every shard
        // fails over, and the policy decides the exit.
        let dead = ["train-client", "CV", "--samples", "8"];
        let with = |extra: &[&str]| {
            let mut words = dead.to_vec();
            words.extend_from_slice(extra);
            run(&words)
        };
        assert!(with(&["--workers", "127.0.0.1:9", "--timeout-ms", "500"]).is_err());
        with(&[
            "--workers",
            "127.0.0.1:9",
            "--timeout-ms",
            "500",
            "--policy",
            "degrade",
        ])
        .unwrap();
        assert!(with(&[]).is_err()); // missing --workers
        assert!(with(&["--workers", "not-an-addr"]).is_err());
    }

    #[test]
    fn sim_vs_real_verdicts_agree_on_fanout_saturation() {
        // The verdict itself is pinned on synthetic numbers: a link
        // sized to one 1000-SPS client is model-bound from two jobs.
        let model: Vec<_> = (1..=3)
            .map(|j| distributed::fan_out(1000.0, 100.0, 100_000.0, j))
            .collect();
        let roomy: Vec<_> = (1..=3)
            .map(|j| distributed::fan_out(1000.0, 100.0, 1e9, j))
            .collect();
        let halved = [1000.0, 500.0, 333.0];
        let flat = [1000.0, 990.0, 980.0];
        // agree / model-only / measurement-only / neither
        assert_eq!(
            fan_out_saturation(1000.0, &model, &halved),
            (Some(2), Some(2))
        );
        assert_eq!(fan_out_saturation(1000.0, &model, &flat), (Some(2), None));
        assert_eq!(fan_out_saturation(1000.0, &roomy, &halved), (None, Some(2)));
        assert_eq!(fan_out_saturation(1000.0, &roomy, &flat), (None, None));
        // Exactly at the bar is not saturated.
        assert_eq!(
            fan_out_saturation(1000.0, &roomy, &[1000.0, 700.0]),
            (None, None)
        );

        // The command still runs the real service at every fan-out and
        // fails on any multiset mismatch. Whether two real client
        // threads land under 0.7x of a millisecond-scale calibration
        // epoch is scheduler luck until the link is virtual (ROADMAP
        // item 1), so either verdict outcome is accepted here.
        match run(&["sim-vs-real", "CV", "--samples", "24", "--jobs", "2"]) {
            Ok(()) => {}
            Err(e) => assert!(e.starts_with("fan-out verdicts disagree"), "{e}"),
        }
        assert!(run(&["sim-vs-real", "NLP"]).is_err());
    }

    #[test]
    fn fio_devices() {
        run(&["fio"]).unwrap();
        run(&["fio", "--device", "ssd"]).unwrap();
        run(&["fio", "--device", "nvme"]).unwrap();
        assert!(run(&["fio", "--device", "floppy"]).is_err());
    }

    #[test]
    fn fleet_cli_writes_validates_and_merges_the_trace() {
        let dir = scratch_dir("fleet");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fleet_path = dir.join("fleet.json");
        let fleet_str = fleet_path.to_str().unwrap().to_string();
        let (worker, addr) = spawn_cli_compatible_worker(8);
        run(&[
            "train-client",
            "CV",
            "--samples",
            "8",
            "--workers",
            &addr,
            "--fleet-out",
            &fleet_str,
        ])
        .unwrap();
        worker.stop();
        run(&["validate", &fleet_str]).unwrap();

        let merged_path = dir.join("merged.json");
        let merged_str = merged_path.to_str().unwrap().to_string();
        run(&["trace", "--fleet", &fleet_str, "--out", &merged_str]).unwrap();
        let merged = std::fs::read_to_string(&merged_path).unwrap();
        assert!(telemetry_export::validate_chrome_trace(&merged).unwrap() > 0);
        assert!(merged.contains("train-client"), "{merged}");

        // A chaos event log rides along on its own track.
        let chaos_path = dir.join("chaos.json");
        std::fs::write(
            &chaos_path,
            "{\"schema\": \"presto.chaos.v1\", \"dropped_events\": 0, \"events\": [\
             {\"kind\": \"delay\", \"conn\": 0, \"dir\": \"down\", \"window\": 1, \
             \"t_ns\": 5, \"dur_ns\": 7}]}",
        )
        .unwrap();
        run(&[
            "trace",
            "--fleet",
            &fleet_str,
            "--chaos",
            chaos_path.to_str().unwrap(),
            "--out",
            &merged_str,
        ])
        .unwrap();
        let merged = std::fs::read_to_string(&merged_path).unwrap();
        assert!(merged.contains("chaos-proxy"), "{merged}");

        assert!(run(&["trace", "--merge", "--fleet", &fleet_str]).is_err()); // --merge is gone
        assert!(run(&["trace"]).is_err()); // missing --fleet
        assert!(run(&["trace", "--fleet", "/missing.json"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_proxy_cli_binds_and_writes_an_event_log() {
        let dir = scratch_dir("chaos-cli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("events.json");
        run(&[
            "chaos-proxy",
            "--upstream",
            "127.0.0.1:9",
            "--delay-ms",
            "5",
            "--run-secs",
            "0",
            "--events-out",
            events_path.to_str().unwrap(),
        ])
        .unwrap();
        let doc = std::fs::read_to_string(&events_path).unwrap();
        assert!(doc.contains("presto.chaos.v1"), "{doc}");
        assert!(run(&["chaos-proxy", "--run-secs", "0"]).is_err()); // missing --upstream
        assert!(run(&["chaos-proxy", "--upstraem", "127.0.0.1:9"]).is_err()); // typo
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The frame `watch --attach ADDR` prints for the endpoint now.
    fn attach_frame_of(addr: std::net::SocketAddr) -> String {
        let (status, metrics) = presto_pipeline::telemetry::http::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        attach_frame(addr, &metrics).unwrap()
    }

    #[test]
    fn watch_attach_scrapes_a_live_metrics_endpoint() {
        let telemetry = Telemetry::new();
        // Populate the serve + fleet gauge families the frame renders,
        // and a tenant registry as fleetd keeps one.
        telemetry.serve().begin(1);
        telemetry.fleet().begin(0xBEEF);
        telemetry
            .fleet()
            .record_handshake("127.0.0.1:7001", 0, 2, -41_000, 90_000);
        telemetry.tenants().begin(4, 32);
        telemetry.tenants().admitted("alpha", 2, 8);
        let series = timeseries::TimeSeries::new(16);
        let server =
            MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry), Arc::clone(&series))
                .unwrap();
        let frame = attach_frame_of(server.addr());
        assert!(frame.contains("1 peer(s)"), "{frame}");
        assert!(frame.contains("127.0.0.1:7001"), "{frame}");
        assert!(
            frame.contains("admission: max 4 jobs, shard quota 32, 0 rejected"),
            "{frame}"
        );
        assert!(
            frame
                .lines()
                .any(|l| l.contains("alpha") && l.contains("serving") && l.contains("0/8")),
            "{frame}"
        );
        run(&[
            "watch",
            "--attach",
            &server.addr().to_string(),
            "--plain",
            "--frames",
            "2",
            "--refresh-ms",
            "10",
        ])
        .unwrap();
        server.stop();
        // Nothing listens on the discard port: the first scrape fails.
        assert!(run(&[
            "watch",
            "--attach",
            "127.0.0.1:9",
            "--plain",
            "--frames",
            "1"
        ])
        .is_err());
        assert!(run(&["watch", "--attach", "not-an-addr"]).is_err());
    }

    #[test]
    fn fleetd_cli_parses_and_tenant_clients_complete_through_the_relay() {
        // --run-secs 0 exercises daemon bring-up and teardown alone.
        run(&[
            "fleetd",
            "--bind",
            "127.0.0.1:0",
            "--backends",
            "127.0.0.1:9",
            "--run-secs",
            "0",
        ])
        .unwrap();
        assert!(run(&["fleetd", "--backends", "127.0.0.1:9"]).is_err()); // missing --bind
        assert!(run(&["fleetd", "--bind", "127.0.0.1:0"]).is_err()); // missing --backends
        assert!(run(&["fleetd", "--bind", "127.0.0.1:0", "--backends", " , "]).is_err());

        // A library-level daemon in front of a CLI-compatible worker:
        // `train-client --tenant` registers, is admitted, and drains a
        // full epoch through the relay.
        let (worker, addr) = spawn_cli_compatible_worker(8);
        let telemetry = Telemetry::new();
        let daemon = FleetDaemon::spawn(
            "127.0.0.1:0",
            &[addr],
            FleetDaemonConfig::default(),
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        let daemon_addr = daemon.addr().to_string();
        run(&[
            "train-client",
            "CV",
            "--samples",
            "8",
            "--workers",
            &daemon_addr,
            "--tenant",
            "alice",
            "--weight",
            "2",
        ])
        .unwrap();
        let err = run(&[
            "train-client",
            "CV",
            "--samples",
            "8",
            "--workers",
            &daemon_addr,
            "--weight",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("--weight needs --tenant"), "{err}");
        let snapshot = telemetry.tenants().snapshot();
        assert_eq!(snapshot.tenants.len(), 1, "{snapshot:?}");
        assert_eq!(snapshot.tenants[0].name, "alice");
        assert_eq!(snapshot.tenants[0].state.label(), "done");

        // `watch --attach` renders the same registry over HTTP.
        let series = timeseries::TimeSeries::new(16);
        let server =
            MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry), Arc::clone(&series))
                .unwrap();
        let frame = attach_frame_of(server.addr());
        assert!(frame.starts_with("admission: max "), "{frame}");
        assert!(
            frame
                .lines()
                .any(|l| l.contains("alice") && l.contains("done")),
            "{frame}"
        );
        let metrics_addr = server.addr().to_string();
        run(&[
            "watch",
            "--attach",
            &metrics_addr,
            "--plain",
            "--frames",
            "1",
        ])
        .unwrap();
        server.stop();
        daemon.stop();
        worker.stop();

        // An endpoint with neither a serve session nor a tenant
        // registry (`/tenants.json` 404s) says so in one line.
        let idle = Telemetry::new();
        let idle_series = timeseries::TimeSeries::new(16);
        let idle_server =
            MetricsServer::serve("127.0.0.1:0", Arc::clone(&idle), Arc::clone(&idle_series))
                .unwrap();
        let frame = attach_frame_of(idle_server.addr());
        assert_eq!(
            frame,
            "no serve session or tenant registry at this endpoint…"
        );
        idle_server.stop();
    }

    #[test]
    fn validate_tenants_document_roundtrips() {
        let dir = scratch_dir("tenants-doc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let telemetry = Telemetry::new();
        let reg = telemetry.tenants();
        reg.begin(8, 1024);
        reg.admitted("alice", 2, 4);
        reg.delivered("alice", 16, 4, 4096);
        reg.shard_done("alice");
        reg.finished("alice");
        reg.rejected();
        let path = dir.join("tenants.json");
        std::fs::write(&path, doc::write(reg.snapshot())).unwrap();
        run(&["validate", path.to_str().unwrap()]).unwrap();
        // A tenants schema over another document's body fails loudly.
        let bogus = dir.join("bogus.json");
        std::fs::write(
            &bogus,
            "{\"schema\": \"presto.tenants.v1\", \"rejected\": 0}",
        )
        .unwrap();
        assert!(run(&["validate", bogus.to_str().unwrap()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn resolved(words: &[&str]) -> Result<(&'static str, Vec<String>), String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        resolve(&argv).map(|(c, args)| (c.mode.unwrap_or(""), args.positional))
    }

    #[test]
    fn switches_never_swallow_the_next_word() {
        // Each switch first and last: same positionals, same run.
        for (switch_first, switch_last) in [
            (
                vec!["recommend", "--json", "CV", "--samples", "500"],
                vec!["recommend", "CV", "--samples", "500", "--json"],
            ),
            (
                vec!["profile", "--csv", "MP3", "--samples", "500"],
                vec!["profile", "MP3", "--samples", "500", "--csv"],
            ),
            (
                vec!["realrun", "--json", "CV", "--samples", "4", "--epochs", "1"],
                vec!["realrun", "CV", "--samples", "4", "--epochs", "1", "--json"],
            ),
        ] {
            assert_eq!(resolved(&switch_first), resolved(&switch_last));
            run(&switch_first).unwrap();
            run(&switch_last).unwrap();
        }
        // A value flag never takes a flag as its value.
        let err = run(&["realrun", "CV", "--serve", "--json"]).unwrap_err();
        assert!(err.contains("--serve needs a value"), "{err}");
    }

    #[test]
    fn modes_refuse_each_others_flags() {
        let attach = ["watch", "--attach", "127.0.0.1:9"];
        let with = |extra: &[&str]| {
            let mut words = attach.to_vec();
            words.extend_from_slice(extra);
            resolved(&words)
        };
        assert_eq!(with(&["--refresh-ms", "50"]).unwrap().0, "attach");
        for foreign in [["--epochs", "2"], ["--threads", "2"]] {
            let err = with(&foreign).unwrap_err();
            assert!(
                err.starts_with("presto watch --attach: unknown option"),
                "{err}"
            );
        }
        assert!(resolved(&["watch", "CV", "--search", "--attach", "127.0.0.1:9"]).is_err());
        assert!(resolved(&["watch", "CV", "--search", "--sample-ms", "5"]).is_err());
        assert!(resolved(&["watch", "CV", "--attach", "127.0.0.1:9", "--epochs", "2"]).is_err());
        assert!(resolved(&["causal", "--from", "run.json", "--samples", "8"]).is_err());
        assert_eq!(resolved(&["causal", "CV", "--samples", "8"]).unwrap().0, "");
        assert!(run(&[
            "train-client",
            "CV",
            "--workers",
            "127.0.0.1:9",
            "--no-trace"
        ])
        .is_err());
        assert!(run(&["serve-worker", "CV", "--metrics", "127.0.0.1:0"]).is_err());
    }

    #[test]
    fn help_lists_every_declared_flag() {
        let all = usage(None);
        for command in COMMANDS {
            let own = usage(Some(command.name));
            let synopsis = command.synopsis();
            assert!(all.contains(&own), "{synopsis} missing from help");
            assert!(own.contains(&synopsis), "{synopsis}");
            for flag in command.flags.iter().flat_map(|group| group.iter()) {
                assert!(
                    own.contains(&flag.synopsis()),
                    "{synopsis}: --{}",
                    flag.name
                );
            }
            if let Some(mode) = command.mode {
                assert!(
                    find(command.flags, mode).is_some(),
                    "--{mode} selects but is undeclared"
                );
            }
        }
        run(&["help", "train-client"]).unwrap();
    }

    /// The `presto <command> …` invocations the docs and CI show, with
    /// `\` continuations joined, must parse: every flag declared by the
    /// mode the invocation selects.
    #[test]
    fn documented_invocations_use_declared_flags() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![
            root.join("README.md"),
            root.join(".github/workflows/ci.yml"),
        ];
        for entry in std::fs::read_dir(root.join("docs")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
        let mut checked = 0;
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap().replace("\\\n", " ");
            for line in text.lines() {
                for (at, _) in line.match_indices("presto") {
                    let rest = &line[at + "presto".len()..];
                    let Some(rest) = rest.strip_prefix(' ').or(rest.strip_prefix("-cli -- "))
                    else {
                        continue;
                    };
                    // The word after `presto` names a command; prose
                    // (`let presto = …`) starts with no name at all.
                    let word = rest.split_whitespace().next().unwrap_or("");
                    let name = word
                        .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                        .map_or(word, |end| &word[..end]);
                    if !name.starts_with(|c: char| c.is_ascii_lowercase()) || name == "help" {
                        continue;
                    }
                    assert!(
                        COMMANDS.iter().any(|c| c.name == name),
                        "{}: `presto {name}` is not a command: {line}",
                        file.display()
                    );
                    let end = rest
                        .find(['`', '|', '>', ';', '#', ')'])
                        .unwrap_or(rest.len());
                    let mut argv: Vec<String> = rest[..end]
                        .split_whitespace()
                        .map(|word| word.trim_end_matches([',', '.', '"', '\'']).to_string())
                        .collect();
                    // Prose may end on a value flag without its value:
                    // supply the placeholder the table declares.
                    let last = argv.last().and_then(|w| w.strip_prefix("--"));
                    let placeholder = last.and_then(|flag| {
                        COMMANDS
                            .iter()
                            .filter(|c| c.name == name)
                            .find_map(|c| find(c.flags, flag)?.value)
                    });
                    argv.extend(placeholder.map(String::from));
                    if let Err(e) = resolve(&argv) {
                        panic!("{}: {e}: {line}", file.display());
                    }
                    checked += argv.iter().filter(|w| w.starts_with("--")).count();
                }
            }
        }
        assert!(checked > 100, "only {checked} documented flags found");
    }
}
