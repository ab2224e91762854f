//! The `presto.causal.v1` schema: the data model of causal-profile
//! documents and their one field list.
//!
//! A causal profile answers the question busy-time shares cannot:
//! *if step X were K% faster, how much would end-to-end SPS actually
//! improve?* It is produced by `presto-core`'s virtual-speedup
//! evaluator (deterministic seeded experiments over a recorded
//! [`TelemetrySnapshot`]) and, in live mode, by real delay-injection
//! epochs. This module owns only the stable document format; the
//! experiment machinery lives in `presto::causal`.
//!
//! The document is written and read through [`crate::doc`] with fixed
//! float precision, so the same profile always serializes to the same
//! bytes — `same seed ⇒ byte-identical JSON` is part of the contract
//! tests rely on.

use crate::alloc::{AllocProfile, AllocStepReport};
use crate::doc::{Document, Record, Visitor};

/// Current causal-profile schema identifier.
pub const CAUSAL_SCHEMA: &str = "presto.causal.v1";

/// One virtual-speedup experiment: the predicted end-to-end SPS gain
/// from making `step` `speedup_pct`% faster, averaged over seeded
/// trials.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CausalExperiment {
    /// Phase or step name (`deliver` is the queue-wait + hand-off +
    /// consumer composite).
    pub step: String,
    /// Phase kind label (`io`/`cpu`/`step`/`deliver`).
    pub kind: String,
    /// Virtual speedup applied, percent (10/25/50/75).
    pub speedup_pct: u32,
    /// Mean predicted relative SPS gain across trials (0.42 = +42%).
    pub mean_gain: f64,
    /// Standard deviation of the gain across trials.
    pub stddev: f64,
    /// Seeded trials run.
    pub trials: u32,
}

/// One entry of the causal ranking (most causal first).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CausalRank {
    /// Phase or step name.
    pub step: String,
    /// Phase kind label.
    pub kind: String,
    /// Ranking score: the mean predicted gain at the 50% speedup.
    pub score: f64,
}

/// Predicted effect of turning a real knob — the signal an autotuner
/// consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CausalKnob {
    /// Knob name (`threads` or `queue-capacity`).
    pub knob: String,
    /// Knob setting simulated.
    pub value: u64,
    /// Predicted SPS at that setting.
    pub predicted_sps: f64,
    /// Predicted relative gain vs the baseline setting.
    pub predicted_gain: f64,
}

/// One live delay-injection experiment (Coz-style): every phase
/// *except* `step` was dilated, and the measured SPS scaled back by
/// the dilation estimates the virtually-sped-up run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasuredPoint {
    /// The step virtually sped up (the only one not dilated).
    pub step: String,
    /// Virtual speedup, percent.
    pub speedup_pct: u32,
    /// Measured baseline SPS (no dilation).
    pub baseline_sps: f64,
    /// Measured SPS of the dilated epoch.
    pub experiment_sps: f64,
    /// `dilation × experiment_sps`: the virtual-world SPS estimate.
    pub virtual_sps: f64,
    /// `virtual_sps / baseline_sps − 1`.
    pub measured_gain: f64,
}

/// How well the virtual model reproduces the recorded epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CausalCalibration {
    /// Calibrated consumer cost per sample, nanoseconds (bisected so
    /// the simulated queue-wait matches the recorded one).
    pub consumer_ns_per_sample: f64,
    /// Recorded queue-wait busy time, nanoseconds.
    pub queue_wait_target_ns: u64,
    /// Simulated queue-wait busy time at the calibrated cost.
    pub queue_wait_sim_ns: f64,
    /// `|simulated baseline SPS − observed SPS| / observed SPS`.
    pub sps_error: f64,
}

/// Cross-validation of three bottleneck verdicts: the causal ranking,
/// `diagnose_real` over the same snapshot, and the virtual model's
/// utilization argument. Disagreements are the paper's "hidden
/// trade-offs" — reported, never papered over.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CausalVerdicts {
    /// Top-ranked step of the causal profile.
    pub causal_top: String,
    /// Its phase kind label.
    pub causal_kind: String,
    /// `diagnose_real` verdict label (`storage`/`cpu`/`dispatch`/…).
    pub observed: String,
    /// The virtual model's verdict label.
    pub simulated: String,
    /// True when all available verdicts point at the same resource.
    pub agree: bool,
    /// Human-readable description of each disagreement.
    pub disagreements: Vec<String>,
}

/// A complete causal profile — everything `presto causal` prints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CausalProfile {
    /// Where the baseline came from (`file:<path>` or `live:<name>`).
    pub source: String,
    /// Experiment seed.
    pub seed: u64,
    /// Seeded trials per experiment cell.
    pub trials: u32,
    /// Worker threads of the baseline epoch.
    pub threads: usize,
    /// Prefetch-queue capacity of the baseline epoch.
    pub queue_capacity: u64,
    /// Samples in the baseline epoch.
    pub samples: u64,
    /// SPS recorded by the baseline epoch.
    pub observed_sps: f64,
    /// SPS of the calibrated virtual model's baseline run.
    pub baseline_sps: f64,
    /// Calibration quality.
    pub calibration: CausalCalibration,
    /// The (step × speedup) experiment matrix.
    pub experiments: Vec<CausalExperiment>,
    /// Steps ranked by causal impact, most causal first.
    pub ranking: Vec<CausalRank>,
    /// Knob predictions (threads, queue capacity).
    pub knobs: Vec<CausalKnob>,
    /// Live delay-injection measurements (empty in replay mode).
    pub measured: Vec<MeasuredPoint>,
    /// Cross-validated bottleneck verdicts.
    pub verdicts: CausalVerdicts,
    /// Per-phase allocation attribution (zeros unless the counting
    /// allocator was installed).
    pub alloc: AllocProfile,
}

impl Record for CausalExperiment {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("step", &mut self.step);
        v.req("kind", &mut self.kind);
        v.req("speedup_pct", &mut self.speedup_pct);
        v.fixed("mean_gain", &mut self.mean_gain, 4);
        v.fixed("stddev", &mut self.stddev, 4);
        v.req("trials", &mut self.trials);
    }
}

impl Record for CausalRank {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("step", &mut self.step);
        v.req("kind", &mut self.kind);
        v.fixed("score", &mut self.score, 4);
    }
}

impl Record for CausalKnob {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("knob", &mut self.knob);
        v.req("value", &mut self.value);
        v.fixed("predicted_sps", &mut self.predicted_sps, 3);
        v.fixed("predicted_gain", &mut self.predicted_gain, 4);
    }
}

impl Record for MeasuredPoint {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("step", &mut self.step);
        v.req("speedup_pct", &mut self.speedup_pct);
        v.fixed("baseline_sps", &mut self.baseline_sps, 3);
        v.fixed("experiment_sps", &mut self.experiment_sps, 3);
        v.fixed("virtual_sps", &mut self.virtual_sps, 3);
        v.fixed("measured_gain", &mut self.measured_gain, 4);
    }
}

impl Record for CausalCalibration {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.fixed(
            "consumer_ns_per_sample",
            &mut self.consumer_ns_per_sample,
            1,
        );
        v.req("queue_wait_target_ns", &mut self.queue_wait_target_ns);
        v.fixed("queue_wait_sim_ns", &mut self.queue_wait_sim_ns, 1);
        v.fixed("sps_error", &mut self.sps_error, 4);
    }
}

impl Record for CausalVerdicts {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("causal_top", &mut self.causal_top);
        v.req("causal_kind", &mut self.causal_kind);
        v.req("observed", &mut self.observed);
        v.req("simulated", &mut self.simulated);
        v.req("agree", &mut self.agree);
        v.list("disagreements", &mut self.disagreements);
    }
}

impl Record for AllocStepReport {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.req("bytes", &mut self.bytes);
        v.req("allocations", &mut self.allocations);
        v.req("peak_live", &mut self.peak_live);
    }
}

impl Record for AllocProfile {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("buffer_allocs", &mut self.buffer_allocs);
        v.req("buffer_reuses", &mut self.buffer_reuses);
        v.records("steps", &mut self.steps);
    }
}

/// The stable `presto.causal.v1` document. Every float is printed with
/// fixed precision, so equal profiles serialize to identical bytes.
impl Record for CausalProfile {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("source", &mut self.source);
        v.req("seed", &mut self.seed);
        v.req("trials", &mut self.trials);
        v.object("baseline", false, |v| {
            v.req("threads", &mut self.threads);
            v.req("queue_capacity", &mut self.queue_capacity);
            v.req("samples", &mut self.samples);
            v.fixed("observed_sps", &mut self.observed_sps, 3);
            v.fixed("simulated_sps", &mut self.baseline_sps, 3);
        });
        v.record("calibration", &mut self.calibration);
        v.records("experiments", &mut self.experiments);
        v.records("ranking", &mut self.ranking);
        v.records("knobs", &mut self.knobs);
        v.records("measured", &mut self.measured);
        v.record("verdicts", &mut self.verdicts);
        v.record("alloc", &mut self.alloc);
    }
}

impl Document for CausalProfile {
    const SCHEMA: &'static str = CAUSAL_SCHEMA;

    /// A non-empty ranking sorted by descending score whose head is
    /// `verdicts.causal_top`, and every experiment's speedup inside
    /// the published matrix.
    fn check(&self) -> Result<(), String> {
        let head = self.ranking.first().ok_or("ranking must not be empty")?;
        if head.step != self.verdicts.causal_top {
            return Err(format!(
                "ranking head '{}' does not match verdicts.causal_top '{}'",
                head.step, self.verdicts.causal_top
            ));
        }
        if self.ranking.windows(2).any(|w| w[0].score < w[1].score) {
            return Err("ranking must be sorted by descending score".into());
        }
        match self
            .experiments
            .iter()
            .find(|e| !matches!(e.speedup_pct, 10 | 25 | 50 | 75))
        {
            Some(e) => Err(format!("unexpected speedup_pct {}", e.speedup_pct)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::export::RunDocument;
    use crate::PhaseKind;

    fn causal_json(profile: &CausalProfile) -> String {
        doc::write(profile.clone())
    }

    fn parse_causal_json(input: &str) -> Result<CausalProfile, String> {
        doc::read(input)
    }

    fn parse_telemetry_snapshot(input: &str) -> Result<crate::TelemetrySnapshot, String> {
        doc::read::<RunDocument>(input).map(|run| run.snapshot)
    }

    fn sample_profile() -> CausalProfile {
        CausalProfile {
            source: "file:realrun-epoch.json".into(),
            seed: 42,
            trials: 3,
            threads: 4,
            queue_capacity: 16,
            samples: 64,
            observed_sps: 4384.451,
            baseline_sps: 4400.0,
            calibration: CausalCalibration {
                consumer_ns_per_sample: 180_000.0,
                queue_wait_target_ns: 7_566_493,
                queue_wait_sim_ns: 7_500_000.0,
                sps_error: 0.0036,
            },
            experiments: vec![
                CausalExperiment {
                    step: "deliver".into(),
                    kind: "deliver".into(),
                    speedup_pct: 50,
                    mean_gain: 0.95,
                    stddev: 0.01,
                    trials: 3,
                },
                CausalExperiment {
                    step: "decode".into(),
                    kind: "cpu".into(),
                    speedup_pct: 50,
                    mean_gain: 0.002,
                    stddev: 0.001,
                    trials: 3,
                },
            ],
            ranking: vec![
                CausalRank {
                    step: "deliver".into(),
                    kind: "deliver".into(),
                    score: 0.95,
                },
                CausalRank {
                    step: "decode".into(),
                    kind: "cpu".into(),
                    score: 0.002,
                },
            ],
            knobs: vec![CausalKnob {
                knob: "threads".into(),
                value: 8,
                predicted_sps: 4400.0,
                predicted_gain: 0.0,
            }],
            measured: vec![MeasuredPoint {
                step: "deliver".into(),
                speedup_pct: 50,
                baseline_sps: 4384.0,
                experiment_sps: 4300.0,
                virtual_sps: 8600.0,
                measured_gain: 0.9617,
            }],
            verdicts: CausalVerdicts {
                causal_top: "deliver".into(),
                causal_kind: "deliver".into(),
                observed: "dispatch".into(),
                simulated: "deliver".into(),
                agree: true,
                disagreements: Vec::new(),
            },
            alloc: AllocProfile {
                steps: vec![AllocStepReport {
                    name: "decode".into(),
                    bytes: 1024,
                    allocations: 4,
                    peak_live: 512,
                }],
                buffer_allocs: 64,
                buffer_reuses: 0,
            },
        }
    }

    #[test]
    fn causal_json_round_trips() {
        let profile = sample_profile();
        let rendered = causal_json(&profile);
        let parsed = parse_causal_json(&rendered).expect("round-trips");
        assert_eq!(parsed, profile);
    }

    #[test]
    fn rendering_is_deterministic() {
        let profile = sample_profile();
        assert_eq!(causal_json(&profile), causal_json(&profile));
    }

    #[test]
    fn validator_accepts_good_and_rejects_broken() {
        let good = causal_json(&sample_profile());
        assert_eq!(parse_causal_json(&good).map(|p| p.experiments.len()), Ok(2));
        assert!(parse_causal_json("{").is_err());
        assert!(parse_causal_json("{}").is_err());
        let wrong_schema = good.replace(CAUSAL_SCHEMA, "presto.causal.v2");
        assert!(parse_causal_json(&wrong_schema).is_err());
        let bad_pct = good.replace("\"speedup_pct\": 50", "\"speedup_pct\": 33");
        assert!(parse_causal_json(&bad_pct).is_err());
        let bad_head = good.replace("\"causal_top\": \"deliver\"", "\"causal_top\": \"decode\"");
        assert!(parse_causal_json(&bad_head)
            .unwrap_err()
            .contains("causal_top"));
    }

    #[test]
    fn telemetry_snapshot_parses_back_from_its_json() {
        let t = crate::Telemetry::new();
        let rec = t.begin_epoch(&["crop".into()], 2, 8);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, crate::PHASE_READ, t0);
        rec.samples_done(0, 5);
        rec.queue_depth(3);
        rec.set_epoch_seed(9);
        rec.finish(std::time::Duration::from_millis(10), 5, 100, 0, 0, 0, false);
        let snap = rec.snapshot();
        let parsed = parse_telemetry_snapshot(&crate::export::json(&snap)).expect("parses");
        assert_eq!(parsed.samples, 5);
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.epoch_seed, 9);
        assert_eq!(parsed.steps.len(), snap.steps.len());
        assert_eq!(parsed.steps[crate::PHASE_READ].count, 1);
        assert_eq!(parsed.steps[crate::PHASE_READ].kind, PhaseKind::Io);
        assert_eq!(parsed.queue.capacity, 8);
        assert!(parsed.spans.is_empty(), "spans are not part of the schema");
    }

    #[test]
    fn telemetry_snapshot_parser_rejects_non_schema_documents() {
        assert!(parse_telemetry_snapshot("{}").is_err());
        assert!(parse_telemetry_snapshot("not json").is_err());
    }
}
