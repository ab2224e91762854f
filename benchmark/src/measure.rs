//! One benchmark run: one workload, one seed, traced or not.
//!
//! An untraced run reports the end-to-end metrics; a traced run reports
//! the per-layer ones, from three sources: the ladder replay ([`crate::
//! ladder`]), the program's own public telemetry read after traced
//! epochs, and differential runs on identical inputs.

use crate::ladder::{self, Replayer};
use crate::spec;
use crate::stats::{mean_of, median, percentile, quartiles, undisturbed, undisturbed_mean};
use crate::trace::{Span, Tracer};
use crate::workloads::{
    sources, Env, EpochOut, Kind, Probe, Probes, Reference, Workload, CONSUMER_BATCH, EPOCH_SEEDS,
    TENANTS, THREADS,
};
use presto_pipeline::{PipelineError, Sample};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the least disturbed, that is the fastest.
const SETUP_REPS: usize = 10;
/// Timed epochs a run takes at the very least, however short `--seconds`.
const MIN_EPOCHS: usize = 3;
/// Spans written to the trace file; metrics use all of them.
const TRACE_FILE_SPANS: usize = 40_000;

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output matched its reference.
    pub correct: bool,
    /// Samples the run asked the program for.
    pub attempted: u64,
    /// Samples not delivered, delivered wrongly, or in a failed epoch.
    pub failed: u64,
    /// Metric name and value, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// All timed epochs of an untraced run, not only the least disturbed.
    pub epochs: Option<EpochTimes>,
    /// Lines for the human reader.
    pub notes: Vec<String>,
}

/// Wall time of a run's timed epochs, ms: the whole distribution, beside
/// the least disturbed epochs that `sps` is taken from, so a change that
/// only hurts the tail still shows in a set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochTimes {
    /// Timed epochs.
    pub count: u64,
    /// Median.
    pub median_ms: f64,
    /// First quartile.
    pub q1_ms: f64,
    /// Third quartile.
    pub q3_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
}

impl EpochTimes {
    fn of(wall_s: &[f64]) -> EpochTimes {
        let (q1, q3) = quartiles(wall_s);
        EpochTimes {
            count: wall_s.len() as u64,
            median_ms: median(wall_s) * 1e3,
            q1_ms: q1 * 1e3,
            q3_ms: q3 * 1e3,
            p95_ms: percentile(wall_s, 0.95) * 1e3,
        }
    }
}

/// Counts what was asked for and what went wrong.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Check one epoch against its reference; a failed epoch loses all
    /// its samples. Returns the epoch when it ran at all.
    fn check(
        &mut self,
        env: &Env,
        out: Result<EpochOut, PipelineError>,
        reference: &Reference,
    ) -> Option<EpochOut> {
        self.attempted += env.samples_per_epoch();
        match out {
            Ok(out) => {
                self.failed += out.failed(reference);
                Some(out)
            }
            Err(e) => {
                eprintln!("{}: epoch failed: {e}", env.workload.name);
                self.failed += env.samples_per_epoch();
                None
            }
        }
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process so far (user + system, all threads, exited
/// ones too), seconds. `/proc/self/stat` has the same number in 10 ms
/// ticks, too coarse for one epoch; std has no call for it.
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std links; it
    // writes one `struct timespec` through the pointer, which points to a
    // live, writable `Timespec` of that layout (two 64-bit fields on the
    // 64-bit Linux targets this benchmark builds for), and keeps nothing.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Time a fixed integer spin. It does the same work on every run of
/// every commit, so a change in it is the host, not the program.
fn host_calibration_ns() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E3779B97F4A7C15u64;
    for _ in 0..20_000_000u32 {
        x = black_box(x ^ (x << 13));
        x = black_box(x ^ (x >> 7));
        x = black_box(x ^ (x << 17));
    }
    black_box(x);
    started.elapsed().as_nanos() as f64
}

/// Run `workload` once: generate its inputs from `seed`, set the program
/// up, check it, and measure for `seconds`.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let source = sources(seed, workload.samples);
    let inputgen_s = started.elapsed().as_secs_f64();
    if traced {
        traced_run(workload, &source, seconds, inputgen_s)
    } else {
        untraced_run(workload, &source, seconds)
    }
}

/// Time epochs for `seconds`, in [`SETUP_REPS`] equal slices, each on a
/// program set up afresh; the first also checks all four epoch seeds.
///
/// The set-ups are spread over the run, not done back to back, because
/// the host keeps one state for a second or so: set-ups in a row all meet
/// the same one, set-ups that are seconds apart do not.
fn untraced_run(workload: &Workload, source: &[Sample], seconds: f64) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut setups: Vec<f64> = Vec::new();
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let mut references = Vec::new();
    let mut env: Option<Env> = None;
    'slices: for slice in 0..SETUP_REPS {
        // One program at a time: the old one goes before the new one comes.
        drop(env.take());
        // Set-up is the program's set-up calls plus the first, cold epoch,
        // so work a later change defers from either into the other still
        // shows.
        let started = Instant::now();
        let fresh = Env::setup(workload, source, None).map_err(|e| e.to_string())?;
        let cold = fresh.epoch(EPOCH_SEEDS[0], Probe::Plain);
        setups.push(started.elapsed().as_secs_f64());
        let env = env.insert(fresh);
        if slice == 0 {
            references = env.references().map_err(|e| e.to_string())?;
            for (seed, reference) in EPOCH_SEEDS.iter().zip(&references) {
                tally.check(env, env.epoch(*seed, Probe::Checked), reference);
            }
        }
        tally.check(env, cold, &references[0]);

        let window = Instant::now();
        let share = seconds / SETUP_REPS as f64;
        // At least one timed epoch per slice, however short `--seconds`.
        while window.elapsed().as_secs_f64() < share || wall.len() <= slice {
            let turn = wall.len() % EPOCH_SEEDS.len();
            let cpu_before = cpu_seconds();
            let out = env.epoch(EPOCH_SEEDS[turn], Probe::Plain);
            let cpu_spent = cpu_seconds() - cpu_before;
            match tally.check(env, out, &references[turn]) {
                Some(out) => {
                    wall.push(out.elapsed.as_secs_f64());
                    cpu.push(cpu_spent);
                }
                None => break 'slices,
            }
        }
    }
    let env = env.expect("at least one set-up ran");
    if wall.is_empty() {
        return Err(format!("{}: no timed epoch completed", workload.name));
    }

    // Throughput and CPU cost both come from the same, least disturbed
    // epochs of the run; set-up time from the least disturbed set-up.
    let calm = undisturbed(&wall);
    let per_epoch = env.samples_per_epoch() as f64;
    let metrics = vec![
        ("sps", per_epoch / mean_of(&wall, &calm)),
        ("cpu_us_per_sample", mean_of(&cpu, &calm) * 1e6 / per_epoch),
        (
            "stored_bytes_per_sample",
            env.dataset.stored_bytes as f64 / env.dataset.sample_count as f64,
        ),
        ("peak_rss_mib", peak_rss_mib()),
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ];
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        epochs: Some(EpochTimes::of(&wall)),
        notes: vec![format!(
            "{} set-ups (median {:.4} s), {} of {} timed epochs are the least disturbed, {} cores",
            setups.len(),
            median(&setups),
            calm.len(),
            wall.len(),
            cores()
        )],
    })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What the program's own telemetry said, one value per traced epoch.
#[derive(Debug, Default)]
struct TelemetryReadings {
    busy_share: Vec<f64>,
    idle_share: Vec<f64>,
    queue_depth: Vec<f64>,
    pool_hit_ratio: Vec<f64>,
    bundles: Vec<f64>,
    steps_ns_per_sample: Vec<f64>,
    gap_wait_share: Vec<f64>,
    stream_read_share: Vec<f64>,
    consume_share: Vec<f64>,
}

impl TelemetryReadings {
    /// Read the handles after one traced epoch of `elapsed`.
    fn read(&mut self, probes: &Probes, kind: Kind, elapsed: Duration, connections: usize) {
        // Executor epochs and serve-worker assignments both leave an epoch
        // recorder on the engine handle; its span timeline is not needed.
        let recorder = probes.engine.current_recorder();
        if let Some(epoch) = recorder.map(|r| r.light_snapshot()) {
            let wall = (epoch.elapsed_ns * epoch.threads.max(1) as u64) as f64;
            let busy: u64 = epoch.workers.iter().map(|w| w.busy_ns).sum();
            let idle: u64 = epoch.workers.iter().map(|w| w.idle_ns).sum();
            self.busy_share.push(busy as f64 / wall);
            self.idle_share.push(idle as f64 / wall);
            if epoch.samples > 0 {
                let steps: u64 = epoch.pipeline_steps().iter().map(|s| s.busy_ns).sum();
                self.steps_ns_per_sample
                    .push(steps as f64 / epoch.samples as f64);
            }
            if kind == Kind::Stream {
                self.queue_depth.push(epoch.queue.mean_depth);
                self.pool_hit_ratio.push(epoch.data_plane.pool_hit_rate());
                self.bundles.push(epoch.data_plane.bundles as f64);
            }
        }
        if matches!(kind, Kind::Serve | Kind::Fleet) {
            let client = probes.client.serve().snapshot();
            let wall = elapsed.as_nanos() as f64 * connections.max(1) as f64;
            self.gap_wait_share.push(client.gap_wait_ns as f64 / wall);
            self.stream_read_share
                .push(client.stream_read_ns as f64 / wall);
            self.consume_share.push(client.consume_ns as f64 / wall);
        }
    }
}

/// One single-consumer epoch of some kind, by epoch seed.
type EpochFn<'a> = &'a dyn Fn(u64) -> Result<EpochOut, PipelineError>;

/// Run epochs of each of `sides` in turn for `budget`; the wall time of
/// each side's least disturbed epochs, seconds. Taking turns puts host
/// drift on all sides of a difference alike.
fn in_turn(
    budget: f64,
    tally: &mut Tally,
    references: &[Reference],
    sides: &[EpochFn],
) -> Vec<f64> {
    let started = Instant::now();
    let mut times = vec![Vec::new(); sides.len()];
    while started.elapsed().as_secs_f64() < budget || times[0].len() < MIN_EPOCHS {
        let turn = times[0].len() % EPOCH_SEEDS.len();
        for (run, times) in sides.iter().zip(&mut times) {
            tally.attempted += references[turn].samples;
            match run(EPOCH_SEEDS[turn]) {
                Ok(out) => {
                    tally.failed += out.failed(&references[turn]);
                    times.push(out.elapsed.as_secs_f64());
                }
                Err(e) => {
                    eprintln!("differential epoch failed: {e}");
                    tally.failed += references[turn].samples;
                    return vec![0.0; sides.len()];
                }
            }
        }
    }
    times.iter().map(|t| undisturbed_mean(t)).collect()
}

/// The consumer's view of one traced epoch, as spans: the epoch, and one
/// child per batch of [`CONSUMER_BATCH`] samples. Adds the time to the
/// first batch (ms) and the gaps between later ones (us) to the two lists.
fn record_consumer_spans(
    tracer: &mut Tracer,
    out: &EpochOut,
    trace: u32,
    first_batch_ms: &mut Vec<f64>,
    gaps_us: &mut Vec<f64>,
) {
    let epoch_start = tracer.ns_at(out.started);
    let epoch = tracer.record(Span {
        name: "epoch",
        start_ns: epoch_start,
        end_ns: epoch_start + out.elapsed.as_nanos() as u64,
        parent: None,
        trace,
        units: out.delivered.iter().map(|d| d.samples).sum(),
        bytes: 0,
    });
    for delivered in &out.delivered {
        let mut previous = epoch_start;
        for (index, mark) in delivered.marks.iter().enumerate() {
            let at = tracer.ns_at(*mark);
            if index == 0 {
                first_batch_ms.push((at - epoch_start) as f64 / 1e6);
            } else {
                gaps_us.push((at - previous) as f64 / 1e3);
            }
            tracer.record(Span {
                name: "consumer.batch",
                start_ns: previous,
                end_ns: at,
                parent: Some(epoch),
                trace,
                units: CONSUMER_BATCH,
                bytes: 0,
            });
            previous = at;
        }
    }
}

/// Differential runs: the same inputs with one layer taken out. Returns
/// `real.handoff_ns_per_sample`, `real.epoch_fixed_us` and
/// `tenant.relay_ns_per_sample`; a kind has the ones that apply to it.
fn differentials(
    budget: f64,
    tally: &mut Tally,
    env: &Env,
    references: &[Reference],
) -> Result<(f64, f64, f64), String> {
    let samples = env.workload.samples as f64;
    match env.workload.kind {
        Kind::Stream => {
            let stream: EpochFn = &|seed| env.epoch(seed, Probe::Plain);
            let callback: EpochFn = &|seed| env.callback_epoch(seed);
            let times = in_turn(budget * 0.7, tally, references, &[stream, callback]);
            // An epoch with next to no samples is all fixed cost: thread
            // spawn and join, ring set-up, the first shard fetch.
            let small = Workload {
                samples: 8,
                ..env.workload.clone()
            };
            let small_env =
                Env::setup(&small, &env.source()[..8], None).map_err(|e| e.to_string())?;
            let small_refs = small_env.references().map_err(|e| e.to_string())?;
            let fixed = in_turn(
                budget * 0.3,
                tally,
                &small_refs,
                &[&|seed| small_env.epoch(seed, Probe::Plain)],
            );
            Ok(((times[0] - times[1]) * 1e9 / samples, fixed[0] * 1e6, 0.0))
        }
        Kind::Fleet => {
            let relayed: EpochFn = &|seed| env.relayed_epoch(seed);
            let direct: EpochFn = &|seed| env.direct_epoch(seed);
            let times = in_turn(budget, tally, references, &[relayed, direct]);
            Ok((0.0, 0.0, (times[0] - times[1]) * 1e9 / samples))
        }
        Kind::Materialize | Kind::Serve => Ok((0.0, 0.0, 0.0)),
    }
}

/// The traced run: (A) the workload's epochs with and without tracing,
/// in turn; (B) the ladder replay; (C) differential runs.
fn traced_run(
    workload: &Workload,
    source: &[Sample],
    seconds: f64,
    inputgen_s: f64,
) -> Result<RunResult, String> {
    let calib_ns = host_calibration_ns();
    let mut tally = Tally::default();
    let probes = Probes::new();
    let plain = Env::setup(workload, source, None).map_err(|e| e.to_string())?;
    let references = plain.references().map_err(|e| e.to_string())?;
    let traced = Env::setup(workload, source, Some(&probes)).map_err(|e| e.to_string())?;
    for env in [&plain, &traced] {
        for (seed, reference) in EPOCH_SEEDS.iter().zip(&references) {
            tally.check(env, env.epoch(*seed, Probe::Checked), reference);
        }
    }
    let differential = matches!(workload.kind, Kind::Stream | Kind::Fleet);
    let (share_a, share_b) = if differential {
        (0.4, 0.3)
    } else {
        (0.55, 0.45)
    };
    let connections = match workload.kind {
        Kind::Serve => THREADS,
        _ => 1,
    };

    // (A) Tracing on and off, in turn, so host drift hits both alike.
    let mut tracer = Tracer::new();
    let mut readings = TelemetryReadings::default();
    let (mut plain_times, mut traced_times) = (Vec::new(), Vec::new());
    let (mut gaps_us, mut first_batch_ms) = (Vec::new(), Vec::new());
    let (mut batches, mut wire_bytes_per_sample, mut share_err) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut trace_id = 0u32;
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < seconds * share_a || traced_times.len() < MIN_EPOCHS {
        let turn = traced_times.len() % EPOCH_SEEDS.len();
        let seed = EPOCH_SEEDS[turn];
        let Some(out) = tally.check(&plain, plain.epoch(seed, Probe::Plain), &references[turn])
        else {
            break;
        };
        plain_times.push(out.elapsed.as_secs_f64());
        let Some(out) = tally.check(
            &traced,
            traced.epoch(seed, Probe::Traced),
            &references[turn],
        ) else {
            break;
        };
        traced_times.push(out.elapsed.as_secs_f64());
        readings.read(&probes, workload.kind, out.elapsed, connections);
        batches.push(out.batches as f64);
        wire_bytes_per_sample.push(out.wire_bytes as f64 / traced.samples_per_epoch() as f64);
        if workload.kind == Kind::Fleet {
            let fair =
                f64::from(TENANTS[0].1) / TENANTS.iter().map(|t| f64::from(t.1)).sum::<f64>();
            share_err.push((out.lead_share - fair).abs());
        }
        record_consumer_spans(
            &mut tracer,
            &out,
            trace_id,
            &mut first_batch_ms,
            &mut gaps_us,
        );
        trace_id += 1;
    }
    if plain_times.is_empty() || traced_times.is_empty() {
        return Err(format!("{}: no traced epoch completed", workload.name));
    }
    let per_epoch = plain.samples_per_epoch() as f64;
    let sps = per_epoch / undisturbed_mean(&plain_times);
    let traced_sps = per_epoch / undisturbed_mean(&traced_times);

    // (B) The ladder, over the same shards. The first replay is checked.
    let mut replayer = Replayer::new(workload.kind)?;
    let mut replayed = 0u64;
    let mut replays = 0usize;
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < seconds * share_b || replays < 2 {
        let turn = replays % EPOCH_SEEDS.len();
        let check = (replays == 0).then_some(&references[turn].checksum);
        replayed += replayer.replay(&mut tracer, &plain, trace_id, EPOCH_SEEDS[turn], check)?;
        replays += 1;
        trace_id += 1;
    }
    drop(replayer);
    let mut metrics = ladder::metrics(&tracer.totals(), replayed);

    // (C) Differentials: the same inputs with one layer taken out.
    let budget = seconds * (1.0 - share_a - share_b);
    let (handoff_ns, fixed_us, relay_ns) = differentials(budget, &mut tally, &plain, &references)?;

    let serial_ns = metrics
        .iter()
        .find(|(name, _)| *name == "ladder.serial_ns_per_sample")
        .map_or(0.0, |(_, value)| *value);
    let e2e_ns = cores().min(THREADS) as f64 * 1e9 / sps;
    let tenants = probes.engine.tenants().snapshot();
    metrics.extend([
        ("dataplane.pool_hit_ratio", median(&readings.pool_hit_ratio)),
        ("dataplane.bundles", median(&readings.bundles)),
        ("real.handoff_ns_per_sample", handoff_ns),
        ("real.epoch_fixed_us", fixed_us),
        ("real.worker_busy_share", median(&readings.busy_share)),
        ("real.worker_idle_share", median(&readings.idle_share)),
        ("real.queue_mean_depth", median(&readings.queue_depth)),
        (
            "real.steps_ns_per_sample",
            median(&readings.steps_ns_per_sample),
        ),
        (
            "serve.wire_bytes_per_sample",
            median(&wire_bytes_per_sample),
        ),
        ("serve.batches", median(&batches)),
        (
            "serve.credit_stalls",
            probes.engine.serve().snapshot().credit_stalls as f64 / traced_times.len() as f64,
        ),
        ("serve.gap_wait_share", median(&readings.gap_wait_share)),
        (
            "serve.stream_read_share",
            median(&readings.stream_read_share),
        ),
        ("serve.consume_share", median(&readings.consume_share)),
        ("tenant.relay_ns_per_sample", relay_ns),
        ("tenant.share_err", median(&share_err)),
        (
            "tenant.requeues",
            tenants.tenants.iter().map(|t| t.requeues).sum::<u64>() as f64,
        ),
        ("consumer.batch_gap_p50_us", median(&gaps_us)),
        ("consumer.batch_gap_p99_us", percentile(&gaps_us, 0.99)),
        ("consumer.first_batch_ms", median(&first_batch_ms)),
        ("ladder.e2e_ns_per_sample", e2e_ns),
        ("ladder.unattributed_share", 1.0 - serial_ns / e2e_ns),
        ("trace.overhead_share", 1.0 - traced_sps / sps),
        ("trace.spans", tracer.spans().len() as f64),
        ("host.calib_ns", calib_ns),
        ("bench.inputgen_s", inputgen_s),
    ]);
    // Declaration order, so every run prints the same table.
    metrics.sort_by_key(|(name, _)| spec::PER_LAYER.iter().position(|m| m.name == *name));

    let trace_path = trace_file(workload.name);
    write_trace(&tracer, &trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        epochs: None,
        notes: vec![
            format!(
                "{} epoch pairs (untraced {:.1} sps, traced {:.1} sps), {} ladder replays of {} samples",
                traced_times.len(),
                sps,
                traced_sps,
                replays,
                replayed / replays as u64
            ),
            format!("trace: {}", trace_path.display()),
        ],
    })
}

/// Where a traced run of `workload` leaves its spans.
fn trace_file(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("trace-{workload}.json"))
}

fn write_trace(tracer: &Tracer, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_chrome(&mut out, TRACE_FILE_SPANS)?;
    out.flush()
}
