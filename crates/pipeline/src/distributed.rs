//! Distributed preprocessing and concurrent training — the paper's
//! Section 7 discussion points, made executable.
//!
//! **Distributed offline preprocessing**: the dataset is split into
//! equal chunks processed by `workers` identical VMs simultaneously
//! (trivially parallel, as the paper notes). All workers read from and
//! write to the *same* storage cluster, so its aggregate bandwidth and
//! IOPS budget are shared — the speedup saturates once the cluster,
//! not the VMs' CPUs, is the bottleneck.
//!
//! **Concurrent training fan-out**: one preprocessing pipeline feeds
//! `jobs` training processes (hyperparameter search). Every job
//! receives the full sample stream, so the link between the
//! preprocessing node and the trainers carries `jobs × T4 ×
//! final_sample_bytes` — beyond the link capacity, the fan-out becomes
//! the new bottleneck.

use crate::sim::Simulator;
use crate::strategy::Strategy;
use presto_storage::time::Nanos;

/// Result of a distributed offline run.
#[derive(Debug, Clone)]
pub struct DistributedOffline {
    /// Worker VM count.
    pub workers: usize,
    /// Wall time of the offline phase (all workers in parallel).
    pub elapsed: Nanos,
    /// Speedup over a single worker VM.
    pub speedup: f64,
}

/// Simulate the offline phase of `strategy` across `workers` VMs.
///
/// Each VM contributes `env.cores` cores; the storage cluster (and its
/// IOPS budget) is shared by everyone. Returns one entry per requested
/// worker count.
pub fn offline_scaling(
    simulator: &Simulator,
    strategy: &Strategy,
    worker_counts: &[usize],
) -> Vec<DistributedOffline> {
    let mut results = Vec::with_capacity(worker_counts.len());
    let mut single: Option<f64> = None;
    for &workers in worker_counts {
        assert!(workers > 0);
        // W workers with C cores each behave like one machine with W·C
        // cores and W·threads pipeline workers sharing one cluster —
        // exactly the shared-substrate model of the paper's discussion.
        let mut env = simulator.env.clone();
        env.cores *= workers;
        let mut scaled_strategy = strategy.clone();
        scaled_strategy.threads *= workers;
        scaled_strategy.shards = scaled_strategy.shards.max(scaled_strategy.threads);
        let sim = Simulator::new(simulator.pipeline.clone(), simulator.dataset.clone(), env);
        let profile = sim.profile(&scaled_strategy, 1);
        let elapsed = profile
            .offline
            .as_ref()
            .map_or(Nanos::ZERO, |o| o.elapsed_full);
        let secs = elapsed.as_secs_f64();
        let base = *single.get_or_insert(secs * workers as f64 / worker_counts[0] as f64);
        results.push(DistributedOffline {
            workers,
            elapsed,
            speedup: if secs > 0.0 { base / secs } else { 0.0 },
        });
    }
    // Normalize speedups to the first (usually 1-worker) entry.
    if let Some(first) = results.first().map(|r| r.elapsed.as_secs_f64()) {
        for r in &mut results {
            let secs = r.elapsed.as_secs_f64();
            r.speedup = if secs > 0.0 { first / secs } else { 0.0 };
        }
    }
    results
}

/// Result of a fan-out analysis.
#[derive(Debug, Clone, Copy)]
pub struct FanOut {
    /// Concurrent training jobs.
    pub jobs: usize,
    /// Samples/s delivered to *each* job.
    pub per_job_sps: f64,
    /// Total bytes/s on the preprocessing→training link.
    pub link_bytes_per_sec: f64,
    /// True when the link, not the pipeline, is the bottleneck.
    pub link_bound: bool,
}

/// Fan a pipeline's T4 throughput out to `jobs` concurrent trainers
/// over a link of `link_bw` bytes/s (the paper's concurrent-training
/// discussion: the duplicated load can become the new bottleneck).
pub fn fan_out(t4_sps: f64, final_sample_bytes: f64, link_bw: f64, jobs: usize) -> FanOut {
    assert!(jobs > 0);
    let demand = t4_sps * final_sample_bytes * jobs as f64;
    let (per_job, link_bound) = if demand <= link_bw {
        (t4_sps, false)
    } else {
        (link_bw / (final_sample_bytes * jobs as f64), true)
    };
    FanOut {
        jobs,
        per_job_sps: per_job,
        link_bytes_per_sec: demand.min(link_bw),
        link_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::sim::{SimDataset, SimEnv, SourceLayout};
    use crate::step::{CostModel, SizeModel, StepSpec};

    /// A dataset layout irrelevant to the probes below.
    fn probe_layout() -> SourceLayout {
        SourceLayout::LargeFiles {
            file_bytes: 1 << 30,
        }
    }

    fn cpu_heavy_workload() -> Simulator {
        // Decode is expensive (CPU-bound offline), data is small.
        let pipeline = Pipeline::new("dist").push_spec(StepSpec::native(
            "decoded",
            CostModel::new(5_000_000.0, 0.0, 0.0),
            SizeModel::IDENTITY,
        ));
        let dataset = SimDataset {
            name: "dist-data".into(),
            sample_count: 4_000,
            // Tiny samples: the shared cluster stays idle, isolating
            // the CPU-scaling path.
            unprocessed_sample_bytes: 10_000.0,
            layout: probe_layout(),
        };
        let env = SimEnv {
            subset_samples: 4_000,
            ..SimEnv::paper_vm()
        };
        Simulator::new(pipeline, dataset, env)
    }

    #[test]
    fn cpu_bound_offline_scales_with_workers() {
        let sim = cpu_heavy_workload();
        let results = offline_scaling(&sim, &Strategy::at_split(1), &[1, 2, 4]);
        assert_eq!(results.len(), 3);
        assert!(
            results[1].speedup > 1.7,
            "2 workers: {:.2}x",
            results[1].speedup
        );
        assert!(
            results[2].speedup > 3.2,
            "4 workers: {:.2}x",
            results[2].speedup
        );
    }

    #[test]
    fn io_bound_offline_saturates_the_cluster() {
        // Trivial CPU, big data: the shared cluster caps scaling.
        let pipeline = Pipeline::new("io").push_spec(StepSpec::native(
            "concatenated",
            CostModel::new(1_000.0, 0.0, 0.0),
            SizeModel::IDENTITY,
        ));
        let dataset = SimDataset {
            name: "io-data".into(),
            sample_count: 2_000,
            unprocessed_sample_bytes: 5_000_000.0,
            layout: probe_layout(),
        };
        let env = SimEnv {
            subset_samples: 2_000,
            ..SimEnv::paper_vm()
        };
        let sim = Simulator::new(pipeline, dataset, env);
        let results = offline_scaling(&sim, &Strategy::at_split(1), &[1, 4, 16]);
        // 1 worker: 8 streams already near the 910 MB/s aggregate —
        // more workers cannot beat bandwidth/(bandwidth).
        assert!(
            results[2].speedup < 2.0,
            "16 workers should saturate, got {:.2}x",
            results[2].speedup
        );
    }

    #[test]
    fn fan_out_becomes_link_bound() {
        // 1000 SPS of 1 MB samples over a 10 Gb/s (1.25 GB/s) link.
        let fine = fan_out(1_000.0, 1e6, 1.25e9, 1);
        assert!(!fine.link_bound);
        assert_eq!(fine.per_job_sps, 1_000.0);
        let saturated = fan_out(1_000.0, 1e6, 1.25e9, 4);
        assert!(saturated.link_bound);
        assert!((saturated.per_job_sps - 312.5).abs() < 1.0);
        assert!((saturated.link_bytes_per_sec - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn fan_out_smaller_samples_feed_more_jobs() {
        // The strategy choice interacts with fan-out: smaller final
        // samples postpone the link bottleneck.
        let big = fan_out(1_000.0, 1e6, 1.25e9, 8);
        let small = fan_out(1_000.0, 0.1e6, 1.25e9, 8);
        assert!(big.link_bound && !small.link_bound);
    }
}
