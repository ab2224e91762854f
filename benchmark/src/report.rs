//! The results document of a full `run`, and the comparison of two.

use crate::measure::EpochTimes;
use crate::spec::{self, Better};
use crate::stats::{median, quartiles, spread};
use crate::workloads;
use presto_telemetry::export::{json_escape, parse_json, JsonValue};
use std::fmt::Write;

/// Schema tag of the results document.
pub const SCHEMA: &str = "presto.benchmark.v1";

/// What all rounds of one workload measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResults {
    /// Workload name.
    pub name: String,
    /// Samples asked for, over all rounds.
    pub attempted: u64,
    /// Samples that failed, over all rounds.
    pub failed: u64,
    /// End-to-end metric → one value per round.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// Epoch-time distribution of each round's timed window.
    pub epochs: Vec<EpochTimes>,
    /// Per-layer metric → the traced run's value.
    pub per_layer: Vec<(String, f64)>,
}

impl WorkloadResults {
    /// Failed samples over attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One complete set of runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Results {
    /// Input seed.
    pub seed: u64,
    /// Seconds each child measured for.
    pub seconds: f64,
    /// Rounds over all workloads.
    pub rounds: u64,
    /// Per workload, in run order.
    pub workloads: Vec<WorkloadResults>,
}

/// A JSON number: `Display` for `f64` never uses an exponent and keeps
/// every digit; JSON has no NaN or infinity, so those become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "null".into()
    }
}

impl Results {
    /// Render as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{SCHEMA}\",\"seed\":{},\"seconds\":{},\"rounds\":{},\"workloads\":[",
            self.seed,
            json_number(self.seconds),
            self.rounds
        );
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"attempted\":{},\"failed\":{},\"end_to_end\":{{",
                if i > 0 { "," } else { "" },
                json_escape(&w.name),
                w.attempted,
                w.failed
            );
            for (j, (name, values)) in w.end_to_end.iter().enumerate() {
                let values: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
                let _ = write!(
                    out,
                    "{}\"{}\":[{}]",
                    if j > 0 { "," } else { "" },
                    json_escape(name),
                    values.join(",")
                );
            }
            out.push_str("},\"epochs\":[");
            let epochs: Vec<String> = w.epochs.iter().map(epoch_times_json).collect();
            out.push_str(&epochs.join(","));
            out.push_str("],\"per_layer\":{");
            for (j, (name, value)) in w.per_layer.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{}\":{}",
                    if j > 0 { "," } else { "" },
                    json_escape(name),
                    json_number(*value)
                );
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parse a document written by [`Results::to_json`].
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = parse_json(text)?;
        if doc.require_str("schema")? != SCHEMA {
            return Err(format!("not a {SCHEMA} document"));
        }
        let members = |value: &JsonValue, what: &str| match value {
            JsonValue::Object(members) => Ok(members.clone()),
            _ => Err(format!("'{what}' is not an object")),
        };
        let mut workloads = Vec::new();
        for w in doc
            .require("workloads")?
            .as_array()
            .ok_or("'workloads' is not an array")?
        {
            let mut end_to_end = Vec::new();
            for (name, values) in members(w.require("end_to_end")?, "end_to_end")? {
                let values = values
                    .as_array()
                    .ok_or("end-to-end values are not an array")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("end-to-end value is not a number"))
                    .collect::<Result<Vec<f64>, _>>()?;
                end_to_end.push((name, values));
            }
            let epochs = w
                .require("epochs")?
                .as_array()
                .ok_or("'epochs' is not an array")?
                .iter()
                .map(epoch_times)
                .collect::<Result<Vec<_>, _>>()?;
            let mut per_layer = Vec::new();
            for (name, value) in members(w.require("per_layer")?, "per_layer")? {
                per_layer.push((name, value.as_f64().unwrap_or(f64::NAN)));
            }
            workloads.push(WorkloadResults {
                name: w.require_str("name")?.to_string(),
                attempted: w.require_f64("attempted")? as u64,
                failed: w.require_f64("failed")? as u64,
                end_to_end,
                epochs,
                per_layer,
            });
        }
        Ok(Results {
            seed: doc.require_f64("seed")? as u64,
            seconds: doc.require_f64("seconds")?,
            rounds: doc.require_f64("rounds")? as u64,
            workloads,
        })
    }
}

/// One round's epoch times as a JSON object: an entry of a results
/// document, and what an untraced run prints after `epoch_ms`.
pub fn epoch_times_json(e: &EpochTimes) -> String {
    format!(
        "{{\"count\":{},\"median_ms\":{},\"q1_ms\":{},\"q3_ms\":{},\"p95_ms\":{}}}",
        e.count,
        json_number(e.median_ms),
        json_number(e.q1_ms),
        json_number(e.q3_ms),
        json_number(e.p95_ms)
    )
}

/// The reverse of [`epoch_times_json`].
pub fn epoch_times(value: &JsonValue) -> Result<EpochTimes, String> {
    Ok(EpochTimes {
        count: value.require_f64("count")? as u64,
        median_ms: value.require_f64("median_ms")?,
        q1_ms: value.require_f64("q1_ms")?,
        q3_ms: value.require_f64("q3_ms")?,
        p95_ms: value.require_f64("p95_ms")?,
    })
}

/// How the second set stands against the first on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the bound either way.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Better by more than the bound.
    Better,
    /// A set's own spread is wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// The first set.
    pub a: Summary,
    /// The second set.
    pub b: Summary,
    /// The verdict, by the metric's bound.
    pub verdict: Verdict,
}

/// Judge `b` against `a` on one metric. A spread wider than the bound, on
/// either side, means the two sets cannot resolve a change of that size.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    // From a baseline of 0 every change is beyond any relative bound.
    let worsening = match (better, base == 0.0) {
        (_, true) if new == 0.0 => 0.0,
        (Better::Higher, true) => f64::NEG_INFINITY,
        (Better::Lower, true) => f64::INFINITY,
        (Better::Higher, false) => (base - new) / base,
        (Better::Lower, false) => (new - base) / base,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The declared workloads of `set`, in declaration order; an error names
/// the first one that is missing, so a truncated set never passes.
fn declared_workloads<'a>(
    set: &'a Results,
    which: &str,
) -> Result<Vec<&'a WorkloadResults>, String> {
    workloads::NAMES
        .iter()
        .map(|name| {
            set.workloads
                .iter()
                .find(|w| w.name == *name)
                .ok_or_else(|| format!("set {which} has no workload '{name}'"))
        })
        .collect()
}

/// Set B against set A.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Every declared (workload, end-to-end metric), judged.
    pub rows: Vec<Row>,
    /// Workloads on which B failed a larger share of samples.
    pub more_failures: Vec<String>,
    /// Per workload, [`epoch_summary`] of A and of B. Shown beside the
    /// verdicts and not judged: the host's slow state alone moves a
    /// median epoch by a third.
    pub epochs: Vec<(String, EpochSummary, EpochSummary)>,
}

/// Two sets compare only when they were made the same way (seconds per
/// child, rounds) and both hold every declared workload and metric.
pub fn compare(a: &Results, b: &Results) -> Result<Comparison, String> {
    if (a.seconds, a.rounds) != (b.seconds, b.rounds) {
        return Err(format!(
            "the sets were not made the same way: A has {} rounds of {} s, B {} rounds of {} s",
            a.rounds, a.seconds, b.rounds, b.seconds
        ));
    }
    let mut comparison = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
        epochs: Vec::new(),
    };
    for (wa, wb) in declared_workloads(a, "A")?
        .into_iter()
        .zip(declared_workloads(b, "B")?)
    {
        for metric in &spec::END_TO_END {
            let values = |w: &WorkloadResults, which: &str| {
                w.end_to_end
                    .iter()
                    .find(|(name, values)| name == metric.name && !values.is_empty())
                    .map(|(_, values)| values.clone())
                    .ok_or_else(|| format!("set {which} has no {} on {}", metric.name, w.name))
            };
            let (va, vb) = (values(wa, "A")?, values(wb, "B")?);
            let exact = metric.name == spec::EXACT_PER_SEED && a.seed == b.seed;
            let bound = if exact { 0.0 } else { metric.bound };
            comparison.rows.push(Row {
                workload: wa.name.clone(),
                metric: metric.name,
                a: Summary::of(&va),
                b: Summary::of(&vb),
                verdict: judge(&va, &vb, metric.better, bound),
            });
        }
        if wb.failed_share() > wa.failed_share() {
            comparison.more_failures.push(wb.name.clone());
        }
        comparison
            .epochs
            .push((wa.name.clone(), epoch_summary(wa), epoch_summary(wb)));
    }
    Ok(comparison)
}

/// The whole epoch-time distribution of one workload in one set: epochs
/// timed over all rounds, and the medians over the rounds of each round's
/// median and 95th percentile, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSummary {
    /// Timed epochs, all rounds together.
    pub count: u64,
    /// Median over the rounds of the round's median epoch, ms.
    pub median_ms: f64,
    /// Median over the rounds of the round's 95th percentile, ms.
    pub p95_ms: f64,
}

/// Summarise the rounds of `w`.
pub fn epoch_summary(w: &WorkloadResults) -> EpochSummary {
    let over_rounds =
        |f: fn(&EpochTimes) -> f64| median(&w.epochs.iter().map(f).collect::<Vec<_>>());
    EpochSummary {
        count: w.epochs.iter().map(|e| e.count).sum(),
        median_ms: over_rounds(|e| e.median_ms),
        p95_ms: over_rounds(|e| e.p95_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete set: every declared workload with every declared metric.
    fn sample() -> Results {
        let workload = |name: &str| WorkloadResults {
            name: name.into(),
            attempted: 1000,
            failed: 0,
            end_to_end: vec![
                ("sps".into(), vec![2900.125, 2950.5, 2875.0]),
                ("cpu_us_per_sample".into(), vec![600.0, 610.0, 605.5]),
                ("stored_bytes_per_sample".into(), vec![4777.0; 3]),
                ("peak_rss_mib".into(), vec![9.0, 9.25, 9.5]),
                ("setup_s".into(), vec![0.09, 0.1, 0.11]),
            ],
            epochs: vec![
                EpochTimes {
                    count: 40,
                    median_ms: 88.5,
                    q1_ms: 80.25,
                    q3_ms: 110.0,
                    p95_ms: 131.125,
                };
                3
            ],
            per_layer: vec![
                ("steps.resize_ns".into(), 41234.75),
                ("trace.spans".into(), 0.0),
            ],
        };
        Results {
            seed: 7,
            seconds: 2.5,
            rounds: 3,
            workloads: workloads::NAMES.iter().map(|n| workload(n)).collect(),
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let results = sample();
        assert_eq!(Results::parse(&results.to_json()).unwrap(), results);
        assert!(Results::parse("{\"schema\":\"other\"}").is_err());
        assert!(Results::parse("not json").is_err());
    }

    #[test]
    fn json_numbers_keep_every_digit_and_never_print_nan() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.000_001_5), "0.0000015");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&base, &[95.0, 96.0, 94.0], Better::Higher, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0], Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        // Either side's spread above the bound: no verdict, not "same".
        assert_eq!(
            judge(&base, &[60.0, 100.0, 140.0], Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[60.0, 100.0, 140.0], &base, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // An exact count with a zero bound.
        assert_eq!(
            judge(&[5.0, 5.0], &[5.0, 5.0], Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            judge(&[5.0, 5.0], &[6.0, 6.0], Better::Lower, 0.0),
            Verdict::Worse
        );
        // A baseline of 0 that moved is never "unresolved".
        let zero = [0.0, 0.0];
        assert_eq!(judge(&zero, &zero, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(
            judge(&zero, &[1.0, 1.0], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&zero, &[1.0, 1.0], Better::Higher, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn compare_reports_each_workload_and_metric_in_its_own_row() {
        let a = sample();
        let mut b = sample();
        b.workloads[0].end_to_end[0].1 = vec![2000.0, 2010.0, 1990.0];
        b.workloads[0].failed = 3;
        let comparison = compare(&a, &b).unwrap();
        let rows = &comparison.rows;
        assert_eq!(rows.len(), workloads::NAMES.len() * spec::END_TO_END.len());
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].metric, rows[0].verdict),
            ("cv-online", "sps", Verdict::Worse)
        );
        assert!(rows[1..].iter().all(|r| r.verdict == Verdict::Same));
        assert_eq!(rows[0].a.median, 2900.125);
        assert_eq!(comparison.more_failures, ["cv-online"]);
        assert!(compare(&a, &a).unwrap().more_failures.is_empty());
        let epochs = EpochSummary {
            count: 120,
            median_ms: 88.5,
            p95_ms: 131.125,
        };
        assert_eq!(
            comparison.epochs[5],
            ("fleetd-2tenant".into(), epochs, epochs)
        );
    }

    #[test]
    fn stored_bytes_are_exact_between_sets_of_one_seed() {
        let a = sample();
        let mut b = sample();
        // Half a percent more: inside the bound across seeds, a change on
        // the same inputs.
        b.workloads[2].end_to_end[2].1 = vec![4800.0; 3];
        let verdict = |comparison: Comparison| {
            let row = comparison
                .rows
                .iter()
                .find(|r| r.workload == "cv-offline-gzip" && r.metric == spec::EXACT_PER_SEED);
            row.unwrap().verdict
        };
        assert_eq!(verdict(compare(&a, &b).unwrap()), Verdict::Worse);
        b.seed += 1;
        assert_eq!(verdict(compare(&a, &b).unwrap()), Verdict::Same);
    }

    #[test]
    fn an_incomplete_or_differently_made_set_does_not_compare() {
        let a = sample();
        let mut truncated = sample();
        truncated.workloads.truncate(4);
        let error = compare(&a, &truncated).unwrap_err();
        assert!(
            error.contains("B") && error.contains("serve-direct"),
            "{error}"
        );
        assert!(compare(&truncated, &a).unwrap_err().contains("A"));

        let mut no_metric = sample();
        no_metric.workloads[1].end_to_end.remove(3);
        let error = compare(&a, &no_metric).unwrap_err();
        assert!(
            error.contains("peak_rss_mib") && error.contains("cv-offline"),
            "{error}"
        );
        let mut no_values = sample();
        no_values.workloads[1].end_to_end[0].1.clear();
        assert!(compare(&a, &no_values).is_err());

        let mut longer = sample();
        longer.seconds = 5.0;
        assert!(compare(&a, &longer).is_err());
        let mut fewer = sample();
        fewer.rounds = 2;
        assert!(compare(&a, &fewer).is_err());
    }
}
