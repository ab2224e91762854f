//! ASCII rendering of pipelines and strategies (Figure 2 style), plus
//! the human-readable telemetry tables behind `presto realrun`.

use presto::report::{format_bytes, TableBuilder};
use presto::search::SearchStats;
use presto::{RealDiagnosis, TrendDiagnosis};
use presto_pipeline::telemetry::causal::CausalProfile;
use presto_pipeline::telemetry::tenants::TenantsSnapshot;
use presto_pipeline::telemetry::timeseries::TimePoint;
use presto_pipeline::telemetry::TelemetrySnapshot;
use presto_pipeline::{Pipeline, SearchSnapshot};

/// Render the pipeline's step chain, marking non-deterministic steps
/// (which must stay online) with a dotted arrow, like the paper's
/// Figure 2.
pub fn pipeline_chain(pipeline: &Pipeline) -> String {
    let mut out = String::from("read");
    for step in pipeline.steps() {
        if step.spec.deterministic {
            out.push_str(" --> ");
        } else {
            out.push_str(" ..> "); // non-deterministic: online only
        }
        out.push_str(&step.spec.name);
    }
    out.push_str(" --> train");
    out
}

/// Render one strategy's offline/online split under the chain.
pub fn strategy_split(pipeline: &Pipeline, split: usize) -> String {
    let mut offline = vec!["read".to_string()];
    let mut online = Vec::new();
    for (i, step) in pipeline.steps().iter().enumerate() {
        if i < split {
            offline.push(step.spec.name.clone());
        } else {
            online.push(step.spec.name.clone());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("offline (once): {}\n", offline.join(" -> ")));
    if split > 0 {
        out.push_str("                `-> save to storage\n");
        out.push_str("online (every epoch): load");
        for name in &online {
            out.push_str(" -> ");
            out.push_str(name);
        }
    } else {
        out.push_str("online (every epoch): ");
        out.push_str(&online.join(" -> "));
    }
    out.push_str(" -> train");
    out
}

/// Format a nanosecond duration at a human scale.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render one epoch's telemetry as a per-phase/step latency table plus
/// worker-utilization and queue-depth summary lines.
pub fn telemetry_table(snapshot: &TelemetrySnapshot) -> String {
    let total_busy: u64 = snapshot.steps.iter().map(|s| s.busy_ns).sum();
    let mut table = TableBuilder::new(&[
        "phase/step",
        "kind",
        "count",
        "busy",
        "share",
        "p50",
        "p95",
        "p99",
        "max",
    ]);
    for step in &snapshot.steps {
        table.row(&[
            step.name.clone(),
            step.kind.label().to_string(),
            step.count.to_string(),
            fmt_ns(step.busy_ns),
            format!(
                "{:.0}%",
                step.busy_ns as f64 * 100.0 / total_busy.max(1) as f64
            ),
            fmt_ns(step.p50_ns),
            fmt_ns(step.p95_ns),
            fmt_ns(step.p99_ns),
            fmt_ns(step.max_ns),
        ]);
    }
    let mut out = table.render();
    if snapshot.elapsed_ns > 0 && !snapshot.workers.is_empty() {
        let busy_pct = |w: &presto_pipeline::telemetry::WorkerSnapshot| {
            w.busy_ns as f64 * 100.0 / snapshot.elapsed_ns as f64
        };
        let min = snapshot
            .workers
            .iter()
            .map(busy_pct)
            .fold(f64::INFINITY, f64::min);
        let max = snapshot.workers.iter().map(busy_pct).fold(0.0, f64::max);
        let mean =
            snapshot.workers.iter().map(busy_pct).sum::<f64>() / snapshot.workers.len() as f64;
        out.push_str(&format!(
            "\nworkers: {} busy {:.0}-{:.0}% (mean {:.0}%)",
            snapshot.workers.len(),
            min,
            max,
            mean
        ));
    }
    if snapshot.queue.capacity > 0 {
        out.push_str(&format!(
            "\nprefetch queue: capacity {}, mean depth {:.1}, max {}",
            snapshot.queue.capacity, snapshot.queue.mean_depth, snapshot.queue.max_depth
        ));
    }
    if snapshot.cache_hits > 0 || snapshot.cache_misses > 0 {
        out.push_str(&format!(
            "\ncache: {} hits, {} misses",
            snapshot.cache_hits, snapshot.cache_misses
        ));
    }
    out
}

/// Render a real-run bottleneck verdict and its straggler step.
pub fn real_diagnosis(diagnosed: &RealDiagnosis) -> String {
    let d = &diagnosed.diagnosis;
    let mut out = format!(
        "bottleneck: {} (storage {:.0}%, cpu {:.0}%, dispatch {:.0}%)",
        d.bottleneck,
        d.storage_util * 100.0,
        d.cpu_util * 100.0,
        d.dispatch_util * 100.0
    );
    if let Some(straggler) = &diagnosed.straggler {
        out.push_str(&format!(
            "\nstraggler step: '{}' ({:.0}% of busy time, p99 {})",
            straggler.step,
            straggler.busy_share * 100.0,
            fmt_ns(straggler.p99_ns)
        ));
    }
    out
}

/// Unicode block sparkline of `values`, scaled from 0 to their max
/// (so a flat-but-busy series renders high, not mid).
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = (v / max * (BLOCKS.len() - 1) as f64).round() as usize;
                BLOCKS[idx.min(BLOCKS.len() - 1)]
            }
        })
        .collect()
}

/// One `presto watch` dashboard frame: headline gauges, an SPS
/// sparkline, a per-step activity table with sparklines, and the
/// current bottleneck verdict with any shifts seen in the window.
pub fn watch_frame(points: &[TimePoint], trend: Option<&TrendDiagnosis>) -> String {
    let Some(last) = points.last() else {
        return String::from("waiting for samples…");
    };
    let window = 48.min(points.len());
    let tail = &points[points.len() - window..];
    let mut out = format!(
        "epoch seed {} · {:.0} samples/s · queue depth {:.1} · cache hit {:.0}% · retries {}\n",
        last.epoch_seed,
        last.sps,
        last.queue_depth,
        last.cache_hit_rate * 100.0,
        last.retries
    );
    let sps: Vec<f64> = tail.iter().map(|p| p.sps).collect();
    out.push_str(&format!("SPS {}\n", sparkline(&sps)));
    if last.dropped_spans > 0 {
        out.push_str(&format!(
            "warning: {} spans dropped (ring full) — traces are incomplete; raise the span budget\n",
            last.dropped_spans
        ));
    }
    let mut table = TableBuilder::new(&["phase/step", "kind", "busy", "activity", "calls"]);
    for (i, step) in last.steps.iter().enumerate() {
        let shares: Vec<f64> = tail
            .iter()
            .filter_map(|p| p.steps.get(i).map(|s| s.busy_share))
            .collect();
        table.row(&[
            step.name.clone(),
            step.kind.label().to_string(),
            format!("{:.0}%", step.busy_share * 100.0),
            sparkline(&shares),
            step.invocations.to_string(),
        ]);
    }
    out.push_str(&table.render());
    if let Some(trend) = trend {
        out.push_str(&format!("\nbottleneck now: {}", trend.current));
        for (t_ns, from, to) in &trend.shifts {
            out.push_str(&format!(
                "\n  shifted {from} -> {to} at t+{}",
                fmt_ns(*t_ns)
            ));
        }
    }
    out
}

/// Value of a bare (unlabeled) series in a parsed Prometheus
/// exposition, if present.
fn prom_value(series: &[(String, f64)], name: &str) -> Option<f64> {
    series
        .iter()
        .find(|(s, _)| s == name)
        .map(|(_, value)| *value)
}

/// Per-worker values of a `worker="addr"`-labeled series family.
fn prom_labeled(series: &[(String, f64)], name: &str) -> Vec<(String, f64)> {
    let prefix = format!("{name}{{worker=\"");
    series
        .iter()
        .filter_map(|(s, value)| {
            s.strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix("\"}"))
                .map(|addr| (addr.to_string(), *value))
        })
        .collect()
}

/// One `presto watch --attach` frame: the serve session read from a
/// scraped `/metrics` exposition, then the tenant registry when the
/// endpoint has one (its `/tenants.json` document).
pub fn attach_frame(series: &[(String, f64)], tenants: Option<&TenantsSnapshot>) -> String {
    let serve = serve_frame(series);
    if serve.is_none() && tenants.is_none() {
        return String::from("no serve session or tenant registry at this endpoint…");
    }
    let mut out = serve.unwrap_or_default();
    if let Some(snapshot) = tenants {
        out.push_str(&tenants_table(snapshot));
    }
    out
}

/// The `presto_serve_*` session gauges (wait-state buckets, flow
/// control, failover counters) and, when a fleet trace is active, the
/// `presto_fleet_*` per-worker breakout; `None` without a session.
fn serve_frame(series: &[(String, f64)]) -> Option<String> {
    let v = |name: &str| prom_value(series, name).unwrap_or(0.0);
    let workers = prom_value(series, "presto_serve_workers")?;
    let state = if v("presto_serve_done") > 0.0 {
        "done"
    } else {
        "serving"
    };
    let mut out = format!(
        "serve session · {workers:.0} peer(s) · {state}\n\
         {:.0} batches · {} on the wire · {:.0} credit stalls ({} waited)\n\
         waits: gap {} · stream {} · consume {} · produce {}\n\
         failover: {:.0} reassignments · {:.0} preemptions · {:.0} rejoins\n",
        v("presto_serve_batches_sent_total"),
        format_bytes(v("presto_serve_bytes_sent_total") as u64),
        v("presto_serve_credit_stalls_total"),
        fmt_ns(v("presto_serve_credit_wait_ns_total") as u64),
        fmt_ns(v("presto_serve_gap_wait_ns_total") as u64),
        fmt_ns(v("presto_serve_stream_read_ns_total") as u64),
        fmt_ns(v("presto_serve_consume_ns_total") as u64),
        fmt_ns(v("presto_serve_produce_ns_total") as u64),
        v("presto_serve_reassignments_total"),
        v("presto_serve_preemptions_total"),
        v("presto_serve_rejoins_total"),
    );
    if let Some(trace_id) = prom_value(series, "presto_fleet_trace_id") {
        out.push_str(&format!(
            "fleet trace 0x{:016x} · {:.0} worker(s)\n",
            trace_id as u64,
            prom_value(series, "presto_fleet_workers").unwrap_or(0.0)
        ));
        let offsets = prom_labeled(series, "presto_fleet_worker_clock_offset_ns");
        let rtts = prom_labeled(series, "presto_fleet_worker_rtt_ns");
        let samples = prom_labeled(series, "presto_fleet_worker_samples_total");
        let produce = prom_labeled(series, "presto_fleet_worker_produce_ns_total");
        let find = |family: &[(String, f64)], addr: &str| {
            family
                .iter()
                .find(|(a, _)| a == addr)
                .map(|(_, value)| *value)
                .unwrap_or(0.0)
        };
        let mut table = TableBuilder::new(&["worker", "clock offset", "rtt", "samples", "produce"]);
        for (addr, offset) in &offsets {
            table.row(&[
                addr.clone(),
                format!("{:+}ns", *offset as i64),
                fmt_ns(find(&rtts, addr) as u64),
                format!("{:.0}", find(&samples, addr)),
                fmt_ns(find(&produce, addr) as u64),
            ]);
        }
        if !offsets.is_empty() {
            out.push_str(&table.render());
        }
    }
    Some(out)
}

/// One `presto watch --search` frame: a progress bar over the grid
/// plus the memo and pruning gauges the profiling pool maintains.
pub fn search_frame(pipeline: &str, snap: &SearchSnapshot) -> String {
    const WIDTH: usize = 32;
    let filled = if snap.total > 0 {
        (snap.completed as usize * WIDTH / snap.total as usize).min(WIDTH)
    } else {
        0
    };
    let bar: String = std::iter::repeat_n('#', filled)
        .chain(std::iter::repeat_n('.', WIDTH - filled))
        .collect();
    let state = if snap.done { "done" } else { "searching" };
    format!(
        "strategy search · {pipeline} · {state}\n\
         [{bar}] {}/{} strategies · {} jobs\n\
         pruned {} · offline memo: {} hits / {} misses",
        snap.completed, snap.total, snap.jobs, snap.pruned, snap.memo_hits, snap.memo_misses
    )
}

/// One-line summary of what a finished search did.
pub fn search_summary(stats: &SearchStats) -> String {
    let mut out = format!(
        "searched {} of {} grid points (memo: {} hits / {} misses",
        stats.profiled, stats.grid_size, stats.memo_hits, stats.memo_misses
    );
    if stats.probe_samples > 0 {
        out.push_str(&format!(
            "; pruned {} at {}-sample probe, agreement {}, drift {:.1}%",
            stats.pruned.len(),
            stats.probe_samples,
            if stats.probe_agreement { "yes" } else { "NO" },
            stats.probe_throughput_drift * 100.0
        ));
    }
    out.push(')');
    out
}

/// Render a causal profile: the experiment matrix (step rows, one
/// column per published speedup), the ranking, knob predictions,
/// live measurements (when present), allocation attribution (when
/// recorded) and the cross-validation verdict.
pub fn causal_table(profile: &CausalProfile) -> String {
    let mut out = format!(
        "causal profile of {} · seed {} · {} trials · {} threads · queue {}\n\
         observed {:.0} SPS · calibrated model {:.0} SPS (error {:.1}%) · consumer {:.1}us/sample\n",
        profile.source,
        profile.seed,
        profile.trials,
        profile.threads,
        profile.queue_capacity,
        profile.observed_sps,
        profile.baseline_sps,
        profile.calibration.sps_error * 100.0,
        profile.calibration.consumer_ns_per_sample / 1_000.0,
    );
    let mut matrix = TableBuilder::new(&["step", "kind", "+10%", "+25%", "+50%", "+75%"]);
    let mut steps: Vec<&str> = Vec::new();
    for e in &profile.experiments {
        if !steps.contains(&e.step.as_str()) {
            steps.push(&e.step);
        }
    }
    for step in steps {
        let cell = |pct: u32| {
            profile
                .experiments
                .iter()
                .find(|e| e.step == step && e.speedup_pct == pct)
                .map(|e| format!("{:+.1}% ±{:.1}", e.mean_gain * 100.0, e.stddev * 100.0))
                .unwrap_or_else(|| "-".into())
        };
        let kind = profile
            .experiments
            .iter()
            .find(|e| e.step == step)
            .map(|e| e.kind.clone())
            .unwrap_or_default();
        matrix.row(&[
            step.to_string(),
            kind,
            cell(10),
            cell(25),
            cell(50),
            cell(75),
        ]);
    }
    out.push_str(&matrix.render());
    if let Some(top) = profile.ranking.first() {
        out.push_str(&format!(
            "\noptimize first: {} ({}) — a 50% speedup predicts {:+.1}% SPS\n",
            top.step,
            top.kind,
            top.score * 100.0
        ));
    }
    if !profile.knobs.is_empty() {
        let mut knobs = TableBuilder::new(&["knob", "value", "predicted SPS", "gain"]);
        for k in &profile.knobs {
            knobs.row(&[
                k.knob.clone(),
                k.value.to_string(),
                format!("{:.0}", k.predicted_sps),
                format!("{:+.1}%", k.predicted_gain * 100.0),
            ]);
        }
        out.push_str(&knobs.render());
    }
    if !profile.measured.is_empty() {
        let mut measured = TableBuilder::new(&[
            "step",
            "speedup",
            "baseline SPS",
            "virtual SPS",
            "measured gain",
        ]);
        for m in &profile.measured {
            measured.row(&[
                m.step.clone(),
                format!("{}%", m.speedup_pct),
                format!("{:.0}", m.baseline_sps),
                format!("{:.0}", m.virtual_sps),
                format!("{:+.1}%", m.measured_gain * 100.0),
            ]);
        }
        out.push('\n');
        out.push_str(&measured.render());
    }
    if !profile.alloc.steps.is_empty() {
        let mut alloc = TableBuilder::new(&["phase/step", "bytes", "allocs", "peak live"]);
        for s in &profile.alloc.steps {
            alloc.row(&[
                s.name.clone(),
                format_bytes(s.bytes),
                s.allocations.to_string(),
                format_bytes(s.peak_live),
            ]);
        }
        out.push('\n');
        out.push_str(&alloc.render());
        out.push_str(&format!(
            "buffers: {} allocated, {} reused\n",
            profile.alloc.buffer_allocs, profile.alloc.buffer_reuses
        ));
    }
    out.push_str(&format!(
        "\nverdicts: causal={} ({}) · busy-time={} · simulator={} — {}",
        profile.verdicts.causal_top,
        profile.verdicts.causal_kind,
        profile.verdicts.observed,
        profile.verdicts.simulated,
        if profile.verdicts.agree {
            "agree"
        } else {
            "DISAGREE"
        }
    ));
    for d in &profile.verdicts.disagreements {
        out.push_str(&format!("\n  {d}"));
    }
    out
}

/// The admission line, then the per-tenant status table: one row per
/// registered job with its DRR weight, lifecycle state, shard and
/// sample progress, fault-budget consumption, and — once the fairness
/// window has data — the weight-proportional fair share next to the
/// share actually measured.
fn tenants_table(snapshot: &TenantsSnapshot) -> String {
    let window = if snapshot.window_closed {
        "closed"
    } else if snapshot.window_open {
        "open"
    } else {
        "not yet open"
    };
    let admission = format!(
        "admission: max {} jobs, shard quota {}, {} rejected; fairness window {window}\n",
        snapshot.max_jobs, snapshot.shard_quota, snapshot.rejected,
    );
    if snapshot.tenants.is_empty() {
        return admission + "no tenants registered\n";
    }
    let mut table = TableBuilder::new(&[
        "tenant",
        "weight",
        "state",
        "shards",
        "samples",
        "requeues",
        "fair share",
        "measured",
    ]);
    let share = |s: Option<f64>| match s {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "-".into(),
    };
    for t in &snapshot.tenants {
        table.row(&[
            t.name.clone(),
            t.weight.to_string(),
            t.state.label().to_string(),
            format!("{}/{}", t.shards_done, t.shards_total),
            t.samples.to_string(),
            t.requeues.to_string(),
            share(snapshot.fair_share(&t.name)),
            share(snapshot.measured_share(&t.name)),
        ]);
    }
    admission + &table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_pipeline::{CostModel, SizeModel, StepSpec};

    fn pipeline() -> Pipeline {
        Pipeline::new("t")
            .push_spec(StepSpec::native(
                "decoded",
                CostModel::FREE,
                SizeModel::IDENTITY,
            ))
            .push_spec(
                StepSpec::native("random-crop", CostModel::FREE, SizeModel::IDENTITY)
                    .non_deterministic(),
            )
    }

    #[test]
    fn chain_marks_non_deterministic_steps() {
        let chain = pipeline_chain(&pipeline());
        assert_eq!(chain, "read --> decoded ..> random-crop --> train");
    }

    #[test]
    fn fmt_ns_picks_a_human_scale() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn telemetry_table_lists_phases_steps_and_summaries() {
        use presto_pipeline::telemetry::{Telemetry, PHASE_READ};
        let telemetry = Telemetry::new();
        let rec = telemetry.begin_epoch(&["resize".to_string()], 2, 8);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, PHASE_READ, t0);
        rec.samples_done(0, 3);
        rec.queue_depth(5);
        rec.finish(std::time::Duration::from_millis(10), 3, 100, 0, 0, 0, false);
        let snapshot = telemetry.last_epoch().unwrap();
        let table = telemetry_table(&snapshot);
        assert!(table.contains("read"), "{table}");
        assert!(table.contains("resize"), "{table}");
        assert!(table.contains("workers: 2"), "{table}");
        assert!(table.contains("prefetch queue: capacity 8"), "{table}");
    }

    #[test]
    fn serve_frame_renders_serve_and_fleet_families() {
        use presto_pipeline::telemetry::export;
        use presto_pipeline::telemetry::fleet::FleetWorkerEntry;
        use presto_pipeline::{FleetSnapshot, ServeSnapshot};

        // Neither a serve session nor a tenant registry: a quiet
        // placeholder, not a panic.
        assert!(attach_frame(&[], None).contains("no serve session"));

        let serve = ServeSnapshot {
            workers: 2,
            batches_sent: 12,
            bytes_sent: 4096,
            gap_wait_ns: 1_500_000,
            stream_read_ns: 250_000,
            consume_ns: 90_000,
            produce_ns: 2_000_000,
            ..ServeSnapshot::default()
        };
        let fleet = FleetSnapshot {
            active: true,
            trace_id: 0xABC,
            epoch_start_mono_ns: 0,
            workers: vec![FleetWorkerEntry {
                addr: "127.0.0.1:7001".into(),
                clock_offset_ns: -42_000,
                rtt_ns: 80_000,
                samples: 64,
                produce_ns: 2_000_000,
                ..FleetWorkerEntry::default()
            }],
        };
        let mut exposition = export::prometheus_serve(&serve);
        exposition.push_str(&export::prometheus_fleet(&fleet));
        let series = export::parse_prometheus(&exposition).expect("own exposition parses");
        let frame = attach_frame(&series, None);
        assert!(frame.contains("2 peer(s)"), "{frame}");
        assert!(frame.contains("12 batches"), "{frame}");
        assert!(frame.contains("gap 1.5ms"), "{frame}");
        assert!(frame.contains("fleet trace 0x0000000000000abc"), "{frame}");
        assert!(frame.contains("127.0.0.1:7001"), "{frame}");
        assert!(frame.contains("-42000ns"), "{frame}");

        // A fleetd endpoint: a tenant registry and no serve session.
        let telemetry = presto_pipeline::Telemetry::new();
        telemetry.tenants().begin(4, 32);
        let frame = attach_frame(&[], Some(&telemetry.tenants().snapshot()));
        assert_eq!(
            frame,
            "admission: max 4 jobs, shard quota 32, 0 rejected; fairness window not yet open\n\
             no tenants registered\n"
        );
    }

    #[test]
    fn sparkline_scales_to_the_window_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'), "{line}");
        // Flat non-zero series renders at the top, not the middle.
        assert_eq!(sparkline(&[3.0, 3.0]), "██");
    }

    #[test]
    fn watch_frame_shows_gauges_steps_and_verdict() {
        use presto_pipeline::telemetry::timeseries::{point_between, TimePoint};
        use presto_pipeline::telemetry::{Telemetry, PHASE_READ};
        let telemetry = Telemetry::new();
        let rec = telemetry.begin_epoch(&["resize".to_string()], 1, 4);
        rec.set_epoch_seed(2);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, PHASE_READ, t0);
        rec.samples_done(0, 5);
        let points: Vec<TimePoint> = vec![point_between(
            None,
            &rec.light_snapshot(),
            1_000_000,
            1_000_000,
        )];
        let trend = presto::diagnose_window(&points).unwrap();
        let frame = watch_frame(&points, Some(&trend));
        assert!(frame.contains("epoch seed 2"), "{frame}");
        assert!(frame.contains("resize"), "{frame}");
        assert!(frame.contains("bottleneck now:"), "{frame}");
        assert_eq!(watch_frame(&[], None), "waiting for samples…");
    }

    #[test]
    fn split_renders_offline_and_online_parts() {
        let rendered = strategy_split(&pipeline(), 1);
        assert!(rendered.contains("offline (once): read -> decoded"));
        assert!(rendered.contains("load -> random-crop -> train"));
        let unprocessed = strategy_split(&pipeline(), 0);
        assert!(unprocessed.contains("decoded -> random-crop -> train"));
        assert!(!unprocessed.contains("save"));
    }
}
