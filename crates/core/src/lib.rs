#![warn(missing_docs)]

//! # presto
//!
//! **Pre**processing **St**rategy **O**ptimizer — a Rust reproduction of
//! the PRESTO library from *"Where Is My Training Bottleneck? Hidden
//! Trade-Offs in Deep Learning Preprocessing Pipelines"* (SIGMOD '22).
//!
//! PRESTO profiles every legal way of splitting a preprocessing
//! pipeline into an offline (run once, materialized) and an online
//! (run every epoch) part, measures three metrics per strategy —
//!
//! - **throughput** (samples/s, the paper's `T4`),
//! - **storage consumption** of the materialized dataset,
//! - **offline preprocessing time**,
//!
//! — and ranks strategies with a user-weighted objective function, so
//! the best strategy for a given goal (max throughput, fast start,
//! small footprint) can be picked automatically.
//!
//! ```
//! use presto::{Presto, Weights};
//! use presto_pipeline::sim::{SimDataset, SimEnv, SourceLayout};
//! use presto_pipeline::{Pipeline, StepSpec, CostModel, SizeModel};
//! use presto_storage::Nanos;
//!
//! let pipeline = Pipeline::new("demo")
//!     .push_spec(StepSpec::native("concatenated",
//!         CostModel::new(5_000.0, 0.0, 0.0), SizeModel::IDENTITY))
//!     .push_spec(StepSpec::native("decoded",
//!         CostModel::new(0.0, 15.0, 0.0), SizeModel::scale(5.0)));
//! let dataset = SimDataset {
//!     name: "demo-data".into(),
//!     sample_count: 10_000,
//!     unprocessed_sample_bytes: 120_000.0,
//!     layout: SourceLayout::FilePerSample { penalty: Nanos::ZERO },
//! };
//! let presto = Presto::new(pipeline, dataset, SimEnv::paper_vm());
//! let analysis = presto.profile_all(1);
//! let best = analysis.recommend(Weights::MAX_THROUGHPUT);
//! println!("use strategy: {}", best.label);
//! ```

pub mod analysis;
pub mod causal;
pub mod cost;
pub mod diagnosis;
pub mod fidelity;
pub mod profiler;
pub mod report;
pub mod search;

pub use analysis::{ScoredStrategy, StrategyAnalysis, Weights};
pub use causal::{
    dilation_for, measured_point, plan_for_deliver, plan_for_phase, profile_from_snapshot,
    virtual_gain, CausalOptions, SPEEDUPS,
};
pub use cost::{Campaign, CloudPricing};
pub use diagnosis::{
    cross_validate_causal, diagnose, diagnose_fleet, diagnose_point, diagnose_real,
    diagnose_window, Bottleneck, Diagnosis, FleetBottleneck, FleetDiagnosis, RealDiagnosis,
    Straggler, TrendDiagnosis, TrendPoint,
};
pub use profiler::Presto;
pub use report::{shape_check, Comparison, TableBuilder};
pub use search::{
    profile_grid_parallel, profile_grid_pruned, PruneOptions, SearchOptions, SearchReport,
    SearchStats,
};
