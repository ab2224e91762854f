//! Causal profiling: deterministic virtual-speedup experiments over a
//! recorded epoch, Coz-style delay-injection plans for live epochs,
//! and knob predictions for the autotuner.
//!
//! Busy-time profiles answer *where did the time go*; they cannot
//! answer *what would happen if step X were faster*, because in a
//! pipelined engine most step time overlaps other work. A causal
//! profile answers exactly that question. Two complementary modes:
//!
//! - **Virtual replay** ([`profile_from_snapshot`]): rebuild the
//!   recorded epoch as a discrete-event model — `threads` producer
//!   lanes feeding one consumer through the bounded prefetch queue —
//!   with per-sample phase durations drawn from each phase's recorded
//!   latency quantiles. The consumer's per-sample cost is not recorded
//!   directly, so it is *calibrated by bisection* until the simulated
//!   queue-wait total matches the recorded one. Each experiment then
//!   scales one step's draws by `1 − k` and re-runs the model on the
//!   same draws; the SPS delta is the predicted end-to-end effect of a
//!   `k`% speedup. The model runs on the simulator's
//!   [`EventLoop`](presto_storage::time::EventLoop) in integer ns
//!   (draws rounded to the nearest ns), so lanes ready at the same
//!   instant go in the loop's FIFO order. Everything is seeded
//!   ([`SplitMix64`]-derived), so the same seed produces a
//!   byte-identical `presto.causal.v1` document.
//! - **Live injection** ([`plan_for_phase`], [`plan_for_deliver`],
//!   [`virtual_gain`]): run a real epoch in which every phase *except*
//!   X is dilated by `1 / (1 − k)` (the engine spins after each timed
//!   phase, see `presto_pipeline::real::DelayPlan`); dividing the
//!   dilated run's time by the dilation recovers the virtual run where
//!   X alone got faster. This is the Coz construction adapted to a
//!   throughput pipeline.
//!
//! The experiment matrix runs each candidate step at the published
//! speedups ([`SPEEDUPS`]) across seeded trials; the ranking scores
//! steps by their mean predicted gain at 50%. [`CausalProfile::knobs`]
//! re-runs the calibrated model at different thread counts and queue
//! capacities — the signal an autotuner would consume.

use crate::diagnosis::{cross_validate_causal, Bottleneck};
use presto_pipeline::real::DelayPlan;
use presto_pipeline::telemetry::causal::{
    CausalCalibration, CausalExperiment, CausalKnob, CausalProfile, CausalRank, MeasuredPoint,
};
use presto_pipeline::telemetry::{
    StepSnapshot, TelemetrySnapshot, BUILTIN_PHASES, PHASE_DECODE, PHASE_DECOMPRESS, PHASE_HANDOFF,
    PHASE_QUEUE_WAIT, PHASE_READ,
};
use presto_storage::time::{EventLoop, Nanos};
use std::collections::VecDeque;

/// The published virtual-speedup matrix, percent.
pub const SPEEDUPS: [u32; 4] = [10, 25, 50, 75];

/// Options for a causal profiling run.
#[derive(Debug, Clone)]
pub struct CausalOptions {
    /// Root seed: every trial and experiment seed derives from it.
    pub seed: u64,
    /// Seeded trials per experiment cell (mean ± stddev come from
    /// these).
    pub trials: u32,
}

impl Default for CausalOptions {
    fn default() -> Self {
        CausalOptions {
            seed: 42,
            trials: 3,
        }
    }
}

/// SplitMix64: the tiny, seedable, reproducible generator driving
/// every latency draw (presto-core deliberately has no RNG
/// dependency; this matches the chaos module's hand-rolled approach).
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent stream seed from the root seed.
fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut rng = SplitMix64::new(root ^ stream.wrapping_mul(0x9E3779B97F4A7C15));
    rng.next_u64()
}

/// A per-sample latency distribution reconstructed from one phase's
/// recorded quantiles: piecewise-linear through `(0, p50/2)`,
/// `(0.5, p50)`, `(0.95, p95)`, `(0.99, p99)`, `(1, max)`, then
/// rescaled so the expected value equals the recorded mean
/// (`busy_ns / count`) — the totals are what the causal model must
/// conserve, the quantiles only shape the variance.
#[derive(Debug, Clone)]
struct PhaseDist {
    /// Quantile anchors (monotone).
    values: [f64; 5],
    /// Multiplier aligning the distribution mean with the recorded
    /// mean.
    scale: f64,
}

const ANCHORS: [f64; 5] = [0.0, 0.5, 0.95, 0.99, 1.0];

impl PhaseDist {
    fn zero() -> PhaseDist {
        PhaseDist {
            values: [0.0; 5],
            scale: 0.0,
        }
    }

    fn from_step(step: &StepSnapshot) -> PhaseDist {
        if step.count == 0 || step.busy_ns == 0 {
            return PhaseDist::zero();
        }
        let mean = step.busy_ns as f64 / step.count as f64;
        let mut values = [
            step.p50_ns as f64 * 0.5,
            step.p50_ns as f64,
            step.p95_ns as f64,
            step.p99_ns as f64,
            step.max_ns as f64,
        ];
        for i in 1..values.len() {
            values[i] = values[i].max(values[i - 1]);
        }
        if values[4] <= 0.0 {
            // No recorded quantiles (e.g. a hand-built snapshot):
            // degenerate to a constant at the mean.
            return PhaseDist {
                values: [mean; 5],
                scale: 1.0,
            };
        }
        // Expected value of the piecewise-linear quantile function.
        let mut expected = 0.0;
        for i in 0..values.len() - 1 {
            expected += (ANCHORS[i + 1] - ANCHORS[i]) * (values[i] + values[i + 1]) / 2.0;
        }
        let scale = if expected > 0.0 { mean / expected } else { 1.0 };
        PhaseDist { values, scale }
    }

    /// One latency draw, nanoseconds.
    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        if self.scale == 0.0 {
            return 0.0;
        }
        let u = rng.next_f64();
        // `u < 1.0` always, so idx is at most 3 and idx + 1 in range.
        let idx = ANCHORS.iter().rposition(|&a| u >= a).unwrap_or(0).min(3);
        let (lo, hi) = (ANCHORS[idx], ANCHORS[idx + 1]);
        let t = if hi > lo { (u - lo) / (hi - lo) } else { 0.0 };
        self.scale * (self.values[idx] + t * (self.values[idx + 1] - self.values[idx]))
    }
}

/// The recorded epoch reduced to what the event model needs.
#[derive(Debug, Clone)]
struct Workload {
    samples: u64,
    shards: u64,
    threads: usize,
    capacity: usize,
    /// Engine-phase + pipeline-step distributions, snapshot order.
    dists: Vec<PhaseDist>,
}

/// Per-phase speedup multipliers for one experiment (1.0 = untouched).
#[derive(Debug, Clone)]
struct ExperimentScale {
    phases: Vec<f64>,
    consumer: f64,
}

impl ExperimentScale {
    fn unit(n: usize) -> ExperimentScale {
        ExperimentScale {
            phases: vec![1.0; n],
            consumer: 1.0,
        }
    }
}

/// One simulated epoch's outcome.
#[derive(Debug, Clone, Copy)]
struct SimOutcome {
    sps: f64,
    queue_wait_ns: f64,
    busy_io_ns: f64,
    busy_cpu_ns: f64,
    busy_deliver_ns: f64,
}

impl Workload {
    fn from_snapshot(snapshot: &TelemetrySnapshot) -> Result<Workload, String> {
        if snapshot.samples == 0 {
            return Err("cannot causally profile an empty epoch (0 samples)".into());
        }
        if snapshot.steps.len() < BUILTIN_PHASES {
            return Err(format!(
                "snapshot has {} step entries, need at least the {BUILTIN_PHASES} engine phases",
                snapshot.steps.len()
            ));
        }
        let shards = snapshot.steps[PHASE_READ].count.max(1);
        Ok(Workload {
            samples: snapshot.samples,
            shards,
            threads: snapshot.threads.max(1),
            capacity: snapshot.queue.capacity as usize,
            dists: snapshot.steps.iter().map(PhaseDist::from_step).collect(),
        })
    }

    /// Run the event model on the shared [`EventLoop`], in integer ns:
    /// `threads` producer lanes process shards round-robin (per-shard
    /// read+decompress overhead, then per-sample decode + steps +
    /// hand-off), feeding one consumer of `consumer_ns` per sample
    /// through a queue of `capacity`. A producer whose queue slot is
    /// taken blocks until the consumer has *started* the sample
    /// `capacity` positions earlier — that blocked time is the model's
    /// queue-wait. Each lane's next sample is a lane-ready event;
    /// same-instant lanes go in the loop's FIFO order.
    fn simulate(&self, seed: u64, scale: &ExperimentScale, consumer_ns: f64) -> SimOutcome {
        let mut rng = SplitMix64::new(seed);
        // One latency draw of phase `idx`, scaled and rounded to the ns.
        let mut draw = |idx: usize| {
            Nanos((self.dists[idx].sample(&mut rng) * scale.phases[idx]).round() as u64)
        };
        let threads = self.threads;
        // Per lane, the time from the previous sample's enqueue to the
        // next sample's readiness: a shard's overhead rides on its
        // lane's next sample.
        let mut lanes: Vec<VecDeque<Nanos>> = vec![VecDeque::new(); threads];
        let mut overhead = vec![Nanos::ZERO; threads];
        let mut busy_io = Nanos::ZERO;
        let mut busy_cpu = Nanos::ZERO;
        let mut busy_deliver = Nanos::ZERO;
        // Draws happen in shard order, independent of the thread
        // count, so a knob experiment re-uses the exact same latency
        // draws as its baseline.
        let base = self.samples / self.shards;
        let remainder = (self.samples % self.shards) as usize;
        for shard in 0..self.shards as usize {
            let lane = shard % threads;
            let read = draw(PHASE_READ);
            let decompress = draw(PHASE_DECOMPRESS);
            busy_io += read;
            busy_cpu += decompress;
            overhead[lane] += read + decompress;
            let in_shard = base + u64::from(shard < remainder);
            for _ in 0..in_shard {
                let mut cost = draw(PHASE_DECODE);
                busy_cpu += cost;
                for idx in BUILTIN_PHASES..self.dists.len() {
                    let step = draw(idx);
                    busy_cpu += step;
                    cost += step;
                }
                let handoff = draw(PHASE_HANDOFF);
                busy_deliver += handoff;
                cost += handoff;
                lanes[lane].push_back(std::mem::take(&mut overhead[lane]) + cost);
            }
        }

        let mut events = EventLoop::new();
        for (lane, costs) in lanes.iter_mut().enumerate() {
            if let Some(cost) = costs.pop_front() {
                events.schedule(cost, lane);
            }
        }
        // A served worker's epoch record has no prefetch queue
        // (capacity 0): nothing ever blocks.
        let capacity = match self.capacity {
            0 => usize::MAX,
            c => c,
        };
        let consume = Nanos((consumer_ns * scale.consumer).round() as u64);
        let mut starts: Vec<Nanos> = Vec::with_capacity(self.samples as usize);
        let mut consumer_free = Nanos::ZERO;
        let mut queue_wait = Nanos::ZERO;
        while let Some((ready, lane)) = events.pop() {
            let gate = starts
                .len()
                .checked_sub(capacity)
                .map_or(Nanos::ZERO, |i| starts[i]);
            let enqueue = ready.max(gate);
            queue_wait += enqueue - ready;
            // Starts never go backwards and never precede their enqueue,
            // so the consumer's last finish is the epoch's end.
            let start = enqueue.max(consumer_free);
            consumer_free = start + consume;
            starts.push(start);
            if let Some(cost) = lanes[lane].pop_front() {
                events.schedule(enqueue + cost, lane);
            }
        }
        busy_deliver += queue_wait;
        let elapsed = consumer_free;
        SimOutcome {
            sps: if elapsed > Nanos::ZERO {
                starts.len() as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            queue_wait_ns: queue_wait.0 as f64,
            busy_io_ns: busy_io.0 as f64,
            busy_cpu_ns: busy_cpu.0 as f64,
            busy_deliver_ns: busy_deliver.0 as f64,
        }
    }
}

/// Bisect the consumer's per-sample cost until the simulated
/// queue-wait total matches the recorded one (monotone: a slower
/// consumer backs the queue up more). A run with no recorded
/// queue-wait gets a free consumer.
fn calibrate_consumer(workload: &Workload, target_ns: u64, seed: u64) -> (f64, f64) {
    let unit = ExperimentScale::unit(workload.dists.len());
    if target_ns == 0 {
        let qw = workload.simulate(seed, &unit, 0.0).queue_wait_ns;
        return (0.0, qw);
    }
    let target = target_ns as f64;
    let mut hi = 1_000.0f64;
    let mut grow = 0;
    while workload.simulate(seed, &unit, hi).queue_wait_ns < target && grow < 40 {
        hi *= 2.0;
        grow += 1;
    }
    let mut lo = 0.0f64;
    for _ in 0..48 {
        let mid = (lo + hi) / 2.0;
        if workload.simulate(seed, &unit, mid).queue_wait_ns < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let consumer = (lo + hi) / 2.0;
    let qw = workload.simulate(seed, &unit, consumer).queue_wait_ns;
    (consumer, qw)
}

/// The experiment targets: each engine phase and pipeline step with
/// recorded busy time, plus the `deliver` composite (hand-off +
/// consumer — the queue-wait it causes disappears with it).
fn experiment_targets(snapshot: &TelemetrySnapshot) -> Vec<(String, String, Option<usize>)> {
    let mut targets = Vec::new();
    for (idx, step) in snapshot.steps.iter().enumerate() {
        if idx == PHASE_QUEUE_WAIT || idx == PHASE_HANDOFF {
            continue; // folded into the deliver composite
        }
        if step.busy_ns == 0 {
            continue;
        }
        targets.push((step.name.clone(), step.kind.label().to_string(), Some(idx)));
    }
    targets.push(("deliver".to_string(), "deliver".to_string(), None));
    targets
}

fn scale_for(workload: &Workload, target: Option<usize>, pct: u32) -> ExperimentScale {
    let mut scale = ExperimentScale::unit(workload.dists.len());
    let factor = 1.0 - pct as f64 / 100.0;
    match target {
        Some(idx) => scale.phases[idx] = factor,
        None => {
            scale.phases[PHASE_HANDOFF] = factor;
            scale.consumer = factor;
        }
    }
    scale
}

fn mean_stddev(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

/// The facility the virtual model says binds: the argmax of its
/// io/cpu/deliver busy shares (consumer time counts as deliver — it
/// is what queue-wait measures from the producer side).
fn simulated_verdict(outcome: &SimOutcome) -> Bottleneck {
    let shares = [
        (Bottleneck::Storage, outcome.busy_io_ns),
        (Bottleneck::Cpu, outcome.busy_cpu_ns),
        (Bottleneck::Dispatch, outcome.busy_deliver_ns),
    ];
    shares
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(b, _)| *b)
        .unwrap_or(Bottleneck::None)
}

/// Build a complete causal profile from a recorded epoch: calibrate
/// the virtual model, run the (step × speedup) experiment matrix over
/// seeded trials, rank, predict the thread/queue knobs and
/// cross-validate the verdicts. Deterministic: the same snapshot,
/// `source` and options always produce an identical profile (and so,
/// written as its `presto.causal.v1` document, byte-identical output).
pub fn profile_from_snapshot(
    snapshot: &TelemetrySnapshot,
    source: &str,
    opts: &CausalOptions,
) -> Result<CausalProfile, String> {
    let workload = Workload::from_snapshot(snapshot)?;
    let trials = opts.trials.max(1);
    let calibration_seed = derive_seed(opts.seed, 0xCA11);
    let target_qw = snapshot.steps[PHASE_QUEUE_WAIT].busy_ns;
    let (consumer_ns, qw_sim) = calibrate_consumer(&workload, target_qw, calibration_seed);

    let unit = ExperimentScale::unit(workload.dists.len());
    let trial_seeds: Vec<u64> = (0..trials)
        .map(|t| derive_seed(opts.seed, t as u64 + 1))
        .collect();
    let baselines: Vec<SimOutcome> = trial_seeds
        .iter()
        .map(|&s| workload.simulate(s, &unit, consumer_ns))
        .collect();
    let baseline_sps = baselines.iter().map(|o| o.sps).sum::<f64>() / baselines.len() as f64;
    let observed_sps = if snapshot.elapsed_ns > 0 {
        snapshot.samples as f64 / (snapshot.elapsed_ns as f64 / 1e9)
    } else {
        0.0
    };
    let sps_error = if observed_sps > 0.0 {
        (baseline_sps - observed_sps).abs() / observed_sps
    } else {
        0.0
    };

    let mut experiments = Vec::new();
    let mut ranking = Vec::new();
    for (name, kind, target) in experiment_targets(snapshot) {
        for pct in SPEEDUPS {
            let scale = scale_for(&workload, target, pct);
            let gains: Vec<f64> = trial_seeds
                .iter()
                .zip(baselines.iter())
                .map(|(&s, base)| {
                    let out = workload.simulate(s, &scale, consumer_ns);
                    if base.sps > 0.0 {
                        out.sps / base.sps - 1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let (mean_gain, stddev) = mean_stddev(&gains);
            if pct == 50 {
                ranking.push(CausalRank {
                    step: name.clone(),
                    kind: kind.clone(),
                    score: mean_gain,
                });
            }
            experiments.push(CausalExperiment {
                step: name.clone(),
                kind: kind.clone(),
                speedup_pct: pct,
                mean_gain,
                stddev,
                trials,
            });
        }
    }
    ranking.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());

    // Knob predictions: re-simulate the calibrated model at other
    // thread counts and queue capacities — same draws, new topology.
    let knob_seed = trial_seeds[0];
    let knob_base = baselines[0].sps;
    let mut knobs = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut alt = workload.clone();
        alt.threads = threads;
        let out = alt.simulate(knob_seed, &unit, consumer_ns);
        knobs.push(CausalKnob {
            knob: "threads".to_string(),
            value: threads as u64,
            predicted_sps: out.sps,
            predicted_gain: if knob_base > 0.0 {
                out.sps / knob_base - 1.0
            } else {
                0.0
            },
        });
    }
    if workload.capacity > 0 {
        let c0 = workload.capacity as u64;
        for capacity in [(c0 / 2).max(1), c0, c0 * 2, c0 * 4] {
            let mut alt = workload.clone();
            alt.capacity = capacity as usize;
            let out = alt.simulate(knob_seed, &unit, consumer_ns);
            knobs.push(CausalKnob {
                knob: "queue-capacity".to_string(),
                value: capacity,
                predicted_sps: out.sps,
                predicted_gain: if knob_base > 0.0 {
                    out.sps / knob_base - 1.0
                } else {
                    0.0
                },
            });
        }
    }

    let verdicts = cross_validate_causal(snapshot, &ranking, simulated_verdict(&baselines[0]));
    Ok(CausalProfile {
        source: source.to_string(),
        seed: opts.seed,
        trials,
        threads: workload.threads,
        queue_capacity: snapshot.queue.capacity,
        samples: snapshot.samples,
        observed_sps,
        baseline_sps,
        calibration: CausalCalibration {
            consumer_ns_per_sample: consumer_ns,
            queue_wait_target_ns: target_qw,
            queue_wait_sim_ns: qw_sim,
            sps_error,
        },
        experiments,
        ranking,
        knobs,
        measured: Vec::new(),
        verdicts,
        alloc: Default::default(),
    })
}

/// Dilation factor realizing a `pct`% virtual speedup: `1 / (1 − k)`.
pub fn dilation_for(pct: u32) -> f64 {
    assert!(pct < 100, "a 100% speedup has no finite dilation");
    1.0 / (1.0 - pct as f64 / 100.0)
}

/// Delay plan virtually speeding up worker phase `phase` by `pct`%:
/// every *other* worker-side phase gets dilated.
pub fn plan_for_phase(phase: usize, pct: u32) -> DelayPlan {
    DelayPlan::new(dilation_for(pct), vec![phase])
}

/// Delay plan virtually speeding up the hand-off by `pct`%: worker
/// compute phases get dilated, hand-off does not.
pub fn plan_for_deliver(pct: u32) -> DelayPlan {
    DelayPlan::new(dilation_for(pct), vec![PHASE_HANDOFF])
}

/// Estimated end-to-end gain from one dilated experiment epoch: the
/// virtual run is the experiment with its clock divided by the
/// dilation, so its SPS is `dilation × experiment_sps` and the gain
/// is that over the undilated baseline, minus one.
pub fn virtual_gain(baseline_sps: f64, experiment_sps: f64, dilation: f64) -> f64 {
    if baseline_sps <= 0.0 {
        return 0.0;
    }
    dilation * experiment_sps / baseline_sps - 1.0
}

/// Build a [`MeasuredPoint`] from a live baseline/experiment SPS pair.
pub fn measured_point(
    step: impl Into<String>,
    pct: u32,
    baseline_sps: f64,
    experiment_sps: f64,
) -> MeasuredPoint {
    let dilation = dilation_for(pct);
    MeasuredPoint {
        step: step.into(),
        speedup_pct: pct,
        baseline_sps,
        experiment_sps,
        virtual_sps: dilation * experiment_sps,
        measured_gain: virtual_gain(baseline_sps, experiment_sps, dilation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_pipeline::telemetry::doc::write as causal_json;
    use presto_pipeline::telemetry::{PhaseKind, QueueSnapshot};

    /// A synthetic sealed snapshot: engine phases + one pipeline step,
    /// with plausible quantiles derived from the given means.
    fn snapshot(
        threads: usize,
        samples: u64,
        shards: u64,
        capacity: u64,
        phase_mean_ns: [u64; 5],
        step_mean_ns: u64,
        elapsed_ns: u64,
    ) -> TelemetrySnapshot {
        let step = |name: &str, kind: PhaseKind, count: u64, mean: u64| StepSnapshot {
            name: name.to_string(),
            kind,
            count,
            busy_ns: count * mean,
            p50_ns: mean,
            p95_ns: mean * 2,
            p99_ns: mean * 3,
            max_ns: mean * 4,
        };
        TelemetrySnapshot {
            elapsed_ns,
            epoch_seed: 1,
            threads,
            samples,
            bytes_read: samples * 100,
            bytes_decoded: samples * 200,
            cache_hits: 0,
            cache_misses: 0,
            retries: 0,
            skipped_samples: 0,
            lost_shards: 0,
            degraded: false,
            steps: vec![
                step("read", PhaseKind::Io, shards, phase_mean_ns[0]),
                step("decompress", PhaseKind::Cpu, shards, phase_mean_ns[1]),
                step("decode", PhaseKind::Cpu, samples, phase_mean_ns[2]),
                step(
                    "queue-wait",
                    PhaseKind::Deliver,
                    samples / 2,
                    phase_mean_ns[3],
                ),
                step("hand-off", PhaseKind::Deliver, samples, phase_mean_ns[4]),
                step("crop", PhaseKind::Step, samples, step_mean_ns),
            ],
            workers: Vec::new(),
            queue: QueueSnapshot {
                capacity,
                observations: samples,
                max_depth: capacity,
                mean_depth: capacity as f64 / 2.0,
            },
            data_plane: Default::default(),
            spans: Vec::new(),
            dropped_spans: 0,
        }
    }

    /// Consumer-bound: heavy queue-wait, light compute. The deliver
    /// composite must rank on top and predict a large gain.
    fn deliver_bound() -> TelemetrySnapshot {
        snapshot(
            4,
            256,
            8,
            16,
            [20_000, 5_000, 10_000, 400_000, 15_000],
            10_000,
            120_000_000,
        )
    }

    /// CPU-bound: a fat pipeline step, no queue-wait at all.
    fn cpu_bound() -> TelemetrySnapshot {
        let mut snap = snapshot(
            2,
            256,
            8,
            16,
            [20_000, 5_000, 10_000, 0, 5_000],
            500_000,
            80_000_000,
        );
        snap.steps[PHASE_QUEUE_WAIT].busy_ns = 0;
        snap.steps[PHASE_QUEUE_WAIT].count = 0;
        snap
    }

    #[test]
    fn same_seed_means_byte_identical_json() {
        let snap = deliver_bound();
        let opts = CausalOptions::default();
        let a = profile_from_snapshot(&snap, "file:test", &opts).unwrap();
        let b = profile_from_snapshot(&snap, "file:test", &opts).unwrap();
        assert_eq!(causal_json(a.clone()), causal_json(b));
        let other = profile_from_snapshot(
            &snap,
            "file:test",
            &CausalOptions {
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(
            causal_json(a),
            causal_json(other),
            "a different seed draws different latencies"
        );
    }

    #[test]
    fn deliver_bound_epoch_ranks_deliver_on_top() {
        let profile =
            profile_from_snapshot(&deliver_bound(), "file:test", &CausalOptions::default())
                .unwrap();
        assert_eq!(profile.ranking[0].step, "deliver");
        assert_eq!(profile.verdicts.causal_top, "deliver");
        let top50 = profile
            .experiments
            .iter()
            .find(|e| e.step == "deliver" && e.speedup_pct == 50)
            .unwrap();
        assert!(
            top50.mean_gain > 0.3,
            "halving the consumer must matter, got {}",
            top50.mean_gain
        );
        // Compute steps barely matter when the consumer binds.
        let crop50 = profile
            .experiments
            .iter()
            .find(|e| e.step == "crop" && e.speedup_pct == 50)
            .unwrap();
        assert!(crop50.mean_gain < top50.mean_gain / 4.0);
        // Calibration hit its queue-wait target.
        let target = profile.calibration.queue_wait_target_ns as f64;
        assert!(
            (profile.calibration.queue_wait_sim_ns - target).abs() / target < 0.15,
            "sim queue-wait {} vs target {target}",
            profile.calibration.queue_wait_sim_ns
        );
        assert!(profile.verdicts.agree, "{:?}", profile.verdicts);
    }

    #[test]
    fn cpu_bound_epoch_ranks_the_fat_step_and_likes_more_threads() {
        let profile =
            profile_from_snapshot(&cpu_bound(), "file:test", &CausalOptions::default()).unwrap();
        assert_eq!(profile.ranking[0].step, "crop", "{:?}", profile.ranking);
        assert_eq!(
            profile.calibration.consumer_ns_per_sample, 0.0,
            "no queue-wait, free consumer"
        );
        let t2 = profile
            .knobs
            .iter()
            .find(|k| k.knob == "threads" && k.value == 2)
            .unwrap();
        let t8 = profile
            .knobs
            .iter()
            .find(|k| k.knob == "threads" && k.value == 8)
            .unwrap();
        assert!(
            t8.predicted_sps > t2.predicted_sps * 1.5,
            "CPU-bound work scales with threads: {} vs {}",
            t8.predicted_sps,
            t2.predicted_sps
        );
        assert!(profile.verdicts.agree, "{:?}", profile.verdicts);
    }

    #[test]
    fn speedup_matrix_is_complete_and_monotonic_for_the_top_step() {
        let profile =
            profile_from_snapshot(&deliver_bound(), "file:test", &CausalOptions::default())
                .unwrap();
        for (name, _, _) in experiment_targets(&deliver_bound()) {
            for pct in SPEEDUPS {
                assert!(
                    profile
                        .experiments
                        .iter()
                        .any(|e| e.step == name && e.speedup_pct == pct),
                    "missing cell {name}@{pct}"
                );
            }
        }
        let gains: Vec<f64> = SPEEDUPS
            .iter()
            .map(|&pct| {
                profile
                    .experiments
                    .iter()
                    .find(|e| e.step == "deliver" && e.speedup_pct == pct)
                    .unwrap()
                    .mean_gain
            })
            .collect();
        for w in gains.windows(2) {
            assert!(
                w[1] >= w[0] - 0.05,
                "bigger speedups of the bottleneck must not predict smaller gains: {gains:?}"
            );
        }
    }

    #[test]
    fn phase_dist_preserves_the_recorded_mean() {
        let step = StepSnapshot {
            name: "x".into(),
            kind: PhaseKind::Cpu,
            count: 1000,
            busy_ns: 250_000_000, // mean 250µs
            p50_ns: 200_000,
            p95_ns: 600_000,
            p99_ns: 900_000,
            max_ns: 2_000_000,
        };
        let dist = PhaseDist::from_step(&step);
        let mut rng = SplitMix64::new(99);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
        let mean = total / n as f64;
        assert!(
            (mean - 250_000.0).abs() / 250_000.0 < 0.02,
            "rescaled sketch must reproduce the mean, got {mean}"
        );
    }

    #[test]
    fn live_injection_math_round_trips() {
        assert!((dilation_for(50) - 2.0).abs() < 1e-12);
        assert!((dilation_for(75) - 4.0).abs() < 1e-12);
        // A dilated epoch that ran at half the baseline SPS under 2x
        // dilation means the virtual speedup bought nothing.
        assert!((virtual_gain(1000.0, 500.0, 2.0)).abs() < 1e-12);
        let point = measured_point("crop", 50, 1000.0, 900.0);
        assert!((point.virtual_sps - 1800.0).abs() < 1e-9);
        assert!((point.measured_gain - 0.8).abs() < 1e-9);
        let plan = plan_for_deliver(50);
        assert!((plan.dilation() - 2.0).abs() < 1e-12);
        let plan = plan_for_phase(BUILTIN_PHASES, 25);
        assert!((plan.dilation() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_epochs_are_rejected() {
        let mut snap = deliver_bound();
        snap.samples = 0;
        assert!(profile_from_snapshot(&snap, "file:test", &CausalOptions::default()).is_err());
        let mut snap = deliver_bound();
        snap.steps.clear();
        assert!(profile_from_snapshot(&snap, "file:test", &CausalOptions::default()).is_err());
    }
}
