//! Strategy ranking: the paper's objective function.
//!
//! Each profiled strategy yields three metrics — preprocessing time
//! `p`, storage consumption `s`, throughput `t`. The paper min–max
//! normalizes each metric vector to `[0, 1]` and combines them with
//! user weights `f(w_p, w_s, w_t) = w_p·|p| + w_s·|s| + w_t·|t|`. Here
//! normalization is oriented so *higher is always better* (time and
//! storage are inverted); the strategy maximizing the weighted sum
//! wins, which matches the paper's usage (e.g. `(1, 0, 1)` = fast
//! start + high throughput; `(0, 0, 1)` = throughput only, the
//! recommended default).

use presto_pipeline::sim::StrategyProfile;

/// Objective weights `(w_p, w_s, w_t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Weight on (low) offline preprocessing time.
    pub preprocessing: f64,
    /// Weight on (low) storage consumption.
    pub storage: f64,
    /// Weight on (high) throughput.
    pub throughput: f64,
}

impl Weights {
    /// The paper's recommended default: throughput only.
    pub const MAX_THROUGHPUT: Weights = Weights {
        preprocessing: 0.0,
        storage: 0.0,
        throughput: 1.0,
    };

    /// The paper's hyperparameter-tuning-before-a-deadline example:
    /// low preprocessing time + high throughput, storage irrelevant.
    pub const DEADLINE: Weights = Weights {
        preprocessing: 1.0,
        storage: 0.0,
        throughput: 1.0,
    };

    /// Equal weight on all three metrics.
    pub const BALANCED: Weights = Weights {
        preprocessing: 1.0,
        storage: 1.0,
        throughput: 1.0,
    };

    /// Custom weights.
    pub const fn new(preprocessing: f64, storage: f64, throughput: f64) -> Self {
        Weights {
            preprocessing,
            storage,
            throughput,
        }
    }
}

/// A strategy with its normalized metrics and objective score.
#[derive(Debug, Clone, Default)]
pub struct ScoredStrategy {
    /// Display label of the strategy.
    pub label: String,
    /// Index into the analysis' profile list.
    pub index: usize,
    /// Raw metrics.
    pub preprocessing_secs: f64,
    /// Materialized dataset bytes.
    pub storage_bytes: u64,
    /// Steady-state samples/s.
    pub throughput_sps: f64,
    /// Normalized goodness per metric, each in `[0, 1]`.
    pub normalized: (f64, f64, f64),
    /// Weighted objective value.
    pub score: f64,
}

/// Analysis over a set of profiled strategies — the paper's
/// `StrategyAnalysis` class.
#[derive(Debug, Clone)]
pub struct StrategyAnalysis {
    profiles: Vec<StrategyProfile>,
}

/// The `(min, max)` of a metric vector — the paper's normalization
/// bounds.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Min–max normalize `v` into `[0,1]`; degenerate ranges map to 1.0
/// (all candidates equally good on this metric).
pub fn norm(v: f64, min: f64, max: f64) -> f64 {
    if !(max - min).is_normal() {
        return 1.0;
    }
    (v - min) / (max - min)
}

impl StrategyAnalysis {
    /// Analyse a set of profiles. Failed strategies (e.g. app-cache
    /// overflows) are kept but never recommended.
    pub fn new(profiles: Vec<StrategyProfile>) -> Self {
        StrategyAnalysis { profiles }
    }

    /// The underlying profiles.
    pub fn profiles(&self) -> &[StrategyProfile] {
        &self.profiles
    }

    /// Usable (non-failed) profiles with their indices.
    fn usable(&self) -> Vec<(usize, &StrategyProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.error.is_none() && !p.epochs.is_empty())
            .collect()
    }

    /// Score every usable strategy under `weights`, best first.
    pub fn rank(&self, weights: Weights) -> Vec<ScoredStrategy> {
        let usable = self.usable();
        if usable.is_empty() {
            return Vec::new();
        }
        let p: Vec<f64> = usable.iter().map(|(_, x)| x.preprocessing_secs()).collect();
        let s: Vec<f64> = usable.iter().map(|(_, x)| x.storage_bytes as f64).collect();
        let t: Vec<f64> = usable.iter().map(|(_, x)| x.throughput_sps()).collect();
        let (p_min, p_max) = min_max(&p);
        let (s_min, s_max) = min_max(&s);
        let (t_min, t_max) = min_max(&t);

        let mut scored: Vec<ScoredStrategy> = usable
            .iter()
            .enumerate()
            .map(|(row, (index, profile))| {
                // Orient every metric so 1.0 = best.
                let pn = 1.0 - norm(p[row], p_min, p_max);
                let sn = 1.0 - norm(s[row], s_min, s_max);
                let tn = norm(t[row], t_min, t_max);
                ScoredStrategy {
                    label: profile.label.clone(),
                    index: *index,
                    preprocessing_secs: p[row],
                    storage_bytes: profile.storage_bytes,
                    throughput_sps: t[row],
                    normalized: (pn, sn, tn),
                    score: weights.preprocessing * pn
                        + weights.storage * sn
                        + weights.throughput * tn,
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.index.cmp(&b.index))
        });
        scored
    }

    /// The best strategy under `weights`. Panics if no strategy ran —
    /// use [`StrategyAnalysis::try_recommend`] to handle that case.
    pub fn recommend(&self, weights: Weights) -> ScoredStrategy {
        self.try_recommend(weights)
            .expect("no usable strategy to recommend")
    }

    /// The best strategy under `weights`, if any ran successfully.
    pub fn try_recommend(&self, weights: Weights) -> Option<ScoredStrategy> {
        self.rank(weights).into_iter().next()
    }

    /// The Pareto front over (throughput ↑, storage ↓, preprocessing
    /// time ↓): strategies not dominated by any other. Every weighted
    /// recommendation lies on this front, so it is the complete answer
    /// set for *any* objective weighting.
    pub fn pareto_front(&self) -> Vec<&StrategyProfile> {
        let usable = self.usable();
        let dominates = |a: &StrategyProfile, b: &StrategyProfile| {
            let at_least = a.throughput_sps() >= b.throughput_sps()
                && a.storage_bytes <= b.storage_bytes
                && a.preprocessing_secs() <= b.preprocessing_secs();
            let strictly = a.throughput_sps() > b.throughput_sps()
                || a.storage_bytes < b.storage_bytes
                || a.preprocessing_secs() < b.preprocessing_secs();
            at_least && strictly
        };
        usable
            .iter()
            .filter(|(_, candidate)| !usable.iter().any(|(_, other)| dominates(other, candidate)))
            .map(|(_, profile)| *profile)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_pipeline::sim::{EpochReport, StrategyProfile};
    use presto_pipeline::Strategy;
    use presto_storage::{Dstat, Nanos};

    fn profile(label: &str, prep: f64, storage: u64, sps: f64) -> StrategyProfile {
        StrategyProfile {
            strategy: Strategy::at_split(0),
            label: label.into(),
            storage_bytes: storage,
            stored_sample_bytes: 0.0,
            sample_bytes: 0.0,
            offline: (prep > 0.0).then(|| presto_pipeline::sim::OfflineReport {
                elapsed_full: Nanos::from_secs_f64(prep),
                bytes_written: storage,
                stats: Dstat::new(),
            }),
            epochs: vec![EpochReport {
                epoch: 1,
                throughput_sps: sps,
                network_read_mbps: 0.0,
                elapsed_full: Nanos::from_secs(1),
                stats: Dstat::new(),
            }],
            error: None,
        }
    }

    fn failed(label: &str) -> StrategyProfile {
        StrategyProfile {
            epochs: vec![],
            error: Some(presto_pipeline::PipelineError::Other("boom".into())),
            ..profile(label, 0.0, 0, 0.0)
        }
    }

    #[test]
    fn throughput_only_picks_fastest() {
        let analysis = StrategyAnalysis::new(vec![
            profile("slow", 10.0, 100, 100.0),
            profile("fast", 500.0, 900, 1800.0),
            profile("mid", 50.0, 400, 600.0),
        ]);
        let best = analysis.recommend(Weights::MAX_THROUGHPUT);
        assert_eq!(best.label, "fast");
    }

    #[test]
    fn deadline_weights_trade_prep_time_against_throughput() {
        // "fast" costs enormous preprocessing time; "mid" is nearly as
        // fast with almost no prep → deadline objective prefers "mid".
        let analysis = StrategyAnalysis::new(vec![
            profile("slow", 0.0, 100, 100.0),
            profile("fast", 10_000.0, 900, 1800.0),
            profile("mid", 10.0, 400, 1700.0),
        ]);
        let best = analysis.recommend(Weights::DEADLINE);
        assert_eq!(best.label, "mid");
    }

    #[test]
    fn storage_weight_penalizes_bloat() {
        let analysis = StrategyAnalysis::new(vec![
            profile("small", 10.0, 100, 900.0),
            profile("huge", 10.0, 1_000_000, 1000.0),
        ]);
        let best = analysis.recommend(Weights::new(0.0, 1.0, 0.2));
        assert_eq!(best.label, "small");
    }

    #[test]
    fn failed_strategies_never_recommended() {
        let analysis = StrategyAnalysis::new(vec![
            failed("broken-but-would-win"),
            profile("ok", 1.0, 10, 10.0),
        ]);
        let best = analysis.recommend(Weights::MAX_THROUGHPUT);
        assert_eq!(best.label, "ok");
        let all_failed = StrategyAnalysis::new(vec![failed("a"), failed("b")]);
        assert!(all_failed.try_recommend(Weights::MAX_THROUGHPUT).is_none());
    }

    #[test]
    fn normalized_values_bounded() {
        let analysis = StrategyAnalysis::new(vec![
            profile("a", 1.0, 10, 10.0),
            profile("b", 2.0, 20, 20.0),
            profile("c", 3.0, 30, 30.0),
        ]);
        for scored in analysis.rank(Weights::BALANCED) {
            let (p, s, t) = scored.normalized;
            for v in [p, s, t] {
                assert!((0.0..=1.0).contains(&v), "normalized {v} out of range");
            }
        }
    }

    #[test]
    fn single_strategy_degenerate_ranges_are_safe() {
        let analysis = StrategyAnalysis::new(vec![profile("only", 1.0, 10, 10.0)]);
        let best = analysis.recommend(Weights::BALANCED);
        assert_eq!(best.label, "only");
        assert!(best.score.is_finite());
    }

    #[test]
    fn pareto_front_excludes_dominated_strategies() {
        let analysis = StrategyAnalysis::new(vec![
            profile("dominated", 100.0, 500, 500.0), // worse everywhere than "balanced"
            profile("balanced", 50.0, 400, 900.0),
            profile("fastest", 500.0, 900, 1800.0),
            profile("cheapest", 0.0, 100, 100.0),
        ]);
        let front: Vec<&str> = analysis
            .pareto_front()
            .iter()
            .map(|p| p.label.as_str())
            .collect();
        assert!(front.contains(&"balanced"));
        assert!(front.contains(&"fastest"));
        assert!(front.contains(&"cheapest"));
        assert!(!front.contains(&"dominated"));
        // Every weighted recommendation lies on the front.
        for weights in [
            Weights::MAX_THROUGHPUT,
            Weights::DEADLINE,
            Weights::BALANCED,
        ] {
            let best = analysis.recommend(weights);
            assert!(front.contains(&best.label.as_str()), "{:?}", weights);
        }
    }

    #[test]
    fn ranking_is_total_and_stable() {
        let analysis = StrategyAnalysis::new(vec![
            profile("a", 1.0, 10, 10.0),
            profile("b", 1.0, 10, 10.0),
        ]);
        let ranked = analysis.rank(Weights::MAX_THROUGHPUT);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].label, "a"); // tie broken by index
    }
}
