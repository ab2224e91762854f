//! Cross-engine consistency: the same `Pipeline`/`Strategy` types feed
//! both engines, and where their outputs overlap (storage consumption
//! shape, strategy legality, relative ordering of materialized sizes)
//! they must agree.

use presto_datasets::generators;
use presto_datasets::steps;
use presto_formats::image::jpg;
use presto_pipeline::real::{MemStore, RealExecutor};
use presto_pipeline::sim::{SimDataset, SimEnv, Simulator, SourceLayout};
use presto_pipeline::{Sample, Strategy};
use presto_storage::Nanos;

/// Build matched real + sim views of the same small CV workload.
fn matched_cv() -> (presto_pipeline::Pipeline, Vec<Sample>, Simulator) {
    let pipeline = steps::executable_cv_pipeline(64, 56);
    let source: Vec<Sample> = (0..50u64)
        .map(|key| {
            let img = generators::natural_image(128, 96, key);
            Sample::from_bytes(key, jpg::encode(&img, 85))
        })
        .collect();
    let avg_bytes = source.iter().map(Sample::nbytes).sum::<usize>() as f64 / source.len() as f64;
    // Derive the sim dataset from the real data, and the sim pipeline
    // from the executable steps' own specs — one source of truth.
    let mut sim_pipeline = presto_pipeline::Pipeline::new("CV-real");
    for step in pipeline.steps() {
        sim_pipeline = sim_pipeline.push_spec(step.spec.clone());
    }
    let dataset = SimDataset {
        name: "matched-cv".into(),
        sample_count: source.len() as u64,
        unprocessed_sample_bytes: avg_bytes,
        layout: SourceLayout::FilePerSample {
            penalty: Nanos::ZERO,
        },
    };
    let env = SimEnv {
        subset_samples: 50,
        ..SimEnv::paper_vm()
    };
    (pipeline, source, Simulator::new(sim_pipeline, dataset, env))
}

#[test]
fn strategy_legality_agrees_between_engines() {
    let (pipeline, source, sim) = matched_cv();
    let exec = RealExecutor::new(2);
    let store = MemStore::new();
    for split in 0..=pipeline.len() {
        let strategy = Strategy::at_split(split).with_threads(2);
        let real_ok = exec
            .materialize(&pipeline, &strategy, &source, &store)
            .is_ok();
        let sim_ok = sim.profile(&strategy, 1).error.is_none();
        assert_eq!(real_ok, sim_ok, "split {split} legality must agree");
    }
}

#[test]
fn storage_size_ordering_agrees_between_engines() {
    let (pipeline, source, sim) = matched_cv();
    let exec = RealExecutor::new(2);
    let store = MemStore::new();
    let mut real_sizes = Vec::new();
    let mut sim_sizes = Vec::new();
    for split in 0..=pipeline.max_split() {
        let strategy = Strategy::at_split(split).with_threads(2);
        let (dataset, _) = exec
            .materialize(&pipeline, &strategy, &source, &store)
            .unwrap();
        real_sizes.push(dataset.stored_bytes as f64);
        sim_sizes.push(sim.profile(&strategy, 1).storage_bytes as f64);
    }
    // Pairwise ordering must agree wherever the real sizes are
    // decisively apart (>20% — record framing and synthetic-image
    // compressibility add noise).
    for i in 0..real_sizes.len() {
        for j in i + 1..real_sizes.len() {
            if (real_sizes[i] - real_sizes[j]).abs() / real_sizes[i].max(real_sizes[j]) < 0.2 {
                continue;
            }
            assert_eq!(
                real_sizes[i] > real_sizes[j],
                sim_sizes[i] > sim_sizes[j],
                "size ordering split {i} vs {j}: real {real_sizes:?} sim {sim_sizes:?}"
            );
        }
    }
}

/// A step that busy-waits `ns` nanoseconds per sample — CPU time its
/// own [`presto_pipeline::CostModel`] expresses exactly, so the same
/// definition drives both engines.
struct BusyStep {
    name: &'static str,
    ns: u64,
}

impl presto_pipeline::Step for BusyStep {
    fn spec(&self) -> presto_pipeline::StepSpec {
        presto_pipeline::StepSpec::native(
            self.name,
            presto_pipeline::CostModel::new(self.ns as f64, 0.0, 0.0),
            presto_pipeline::SizeModel::IDENTITY,
        )
    }

    fn apply(
        &self,
        sample: Sample,
        _rng: &mut rand::rngs::SmallRng,
    ) -> Result<Sample, presto_pipeline::PipelineError> {
        let start = std::time::Instant::now();
        while (start.elapsed().as_nanos() as u64) < self.ns {
            std::hint::spin_loop();
        }
        Ok(sample)
    }
}

#[test]
fn skewed_step_diagnosis_agrees_between_engines() {
    // One online step 10× slower than the other: the real engine's
    // telemetry-driven diagnosis must name that step as the straggler
    // and reach the same verdict as the simulator fed the same specs.
    use presto::{diagnose, diagnose_real, Bottleneck};
    use presto_pipeline::Telemetry;
    use std::sync::Arc;

    let pipeline = presto_pipeline::Pipeline::new("skewed")
        .push_step(Arc::new(BusyStep {
            name: "light-aug",
            ns: 400_000,
        }))
        .push_step(Arc::new(BusyStep {
            name: "heavy-aug",
            ns: 4_000_000,
        }));
    let source: Vec<Sample> = (0..64u64)
        .map(|key| Sample::from_bytes(key, vec![7u8; 2048]))
        .collect();
    let strategy = Strategy::at_split(0).with_threads(8);

    let telemetry = Telemetry::new();
    let exec = RealExecutor::new(8).with_telemetry(Arc::clone(&telemetry));
    let store = MemStore::new();
    let (dataset, _) = exec
        .materialize(&pipeline, &strategy, &source, &store)
        .unwrap();
    exec.epoch(&pipeline, &dataset, &store, None, 1, |_| {})
        .unwrap();
    let real = diagnose_real(&telemetry.snapshot()).unwrap();
    assert_eq!(real.diagnosis.bottleneck, Bottleneck::Cpu, "{real:?}");
    let straggler = real.straggler.as_ref().unwrap();
    assert_eq!(straggler.step, "heavy-aug", "{real:?}");
    assert!(straggler.busy_share > 0.5, "{straggler:?}");

    // The simulated twin: same step specs, same strategy shape.
    let mut sim_pipeline = presto_pipeline::Pipeline::new("skewed-sim");
    for step in pipeline.steps() {
        sim_pipeline = sim_pipeline.push_spec(step.spec.clone());
    }
    // Shards are large record files, not a file per sample — match
    // that in the sim's source layout so per-file seek latency does
    // not drown the CPU signal.
    let sim_dataset = SimDataset {
        name: "skewed".into(),
        sample_count: source.len() as u64,
        unprocessed_sample_bytes: 2_100.0,
        layout: SourceLayout::LargeFiles {
            file_bytes: 1 << 30,
        },
    };
    let env = SimEnv {
        subset_samples: 64,
        ..SimEnv::paper_vm()
    };
    let sim = Simulator::new(sim_pipeline, sim_dataset, env.clone());
    let profile = sim.profile(&strategy, 1);
    let simulated = diagnose(&profile, &env).unwrap();
    assert_eq!(
        simulated.bottleneck, real.diagnosis.bottleneck,
        "verdicts must agree: sim {simulated:?}, real {real:?}"
    );
}

#[test]
fn sim_size_models_track_real_step_output_sizes() {
    // For each executable step, applying it to real data must land in
    // the ballpark of its own SizeModel (the sim's input).
    use presto_pipeline::Step;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(5);
    let img = generators::natural_image(128, 96, 3);
    let encoded = jpg::encode(&img, 85);
    let sample = Sample::from_bytes(0, encoded);
    let in_bytes = sample.nbytes() as f64;

    let decode = steps::DecodeImage(steps::ImageCodec::Jpg);
    let decoded = decode.apply(sample, &mut rng).unwrap();
    let predicted = decode.spec().size.eval(in_bytes);
    let actual = decoded.nbytes() as f64;
    // Synthetic images compress differently from ImageNet photos; only
    // the direction and rough magnitude are modelled.
    assert!(
        actual / predicted > 0.2 && actual / predicted < 5.0,
        "decode size: predicted {predicted:.0}, actual {actual:.0}"
    );

    let center = steps::PixelCenter;
    let centered = center.apply(decoded.clone(), &mut rng).unwrap();
    let ratio = centered.nbytes() as f64 / decoded.nbytes() as f64;
    assert!(
        (ratio - 4.0).abs() < 0.01,
        "pixel centering is exactly 4x for u8"
    );
}
