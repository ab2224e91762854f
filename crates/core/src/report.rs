//! Report formatting: plain-text tables and paper-vs-measured
//! comparisons with shape checking — every bench target prints these.

use std::fmt::Write as _;

/// A builder for aligned plain-text tables.
#[derive(Debug, Default)]
pub struct TableBuilder {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        TableBuilder {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row/header length mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}");
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// A paper-vs-measured comparison of one quantity.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared (e.g. "CV concatenated SPS").
    pub what: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Build a comparison.
    pub fn new(what: &str, paper: f64, measured: f64) -> Self {
        Comparison {
            what: what.to_string(),
            paper,
            measured,
        }
    }

    /// Measured/paper ratio (∞ when the paper value is 0).
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            if self.measured == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured / self.paper
        }
    }

    /// True when measured is within `[paper/factor, paper·factor]` —
    /// the reproduction criterion for absolute values (the substrate is
    /// a simulator, so only the magnitude is expected to match).
    pub fn within_factor(&self, factor: f64) -> bool {
        assert!(factor >= 1.0);
        let ratio = self.ratio();
        ratio >= 1.0 / factor && ratio <= factor
    }

    /// One formatted report row.
    pub fn row(&self) -> Vec<String> {
        vec![
            self.what.clone(),
            format_quantity(self.paper),
            format_quantity(self.measured),
            format!("{:.2}x", self.ratio()),
        ]
    }
}

/// Render a list of comparisons as a table.
pub fn comparison_table(title: &str, comparisons: &[Comparison]) -> String {
    let mut table = TableBuilder::new(&["metric", "paper", "measured", "ratio"]);
    for comparison in comparisons {
        table.row(&comparison.row());
    }
    format!("== {title}\n{}", table.render())
}

/// Check that measured values preserve the *ordering* of the paper's
/// values — the primary reproduction criterion (who wins). Returns the
/// violated pairs, each with the paper's larger value first.
pub fn shape_check(comparisons: &[Comparison]) -> Vec<(String, String)> {
    let mut violations = Vec::new();
    for i in 0..comparisons.len() {
        for j in i + 1..comparisons.len() {
            let (a, b) = (&comparisons[i], &comparisons[j]);
            // Only check decisive orderings (>10% apart in the paper).
            if (a.paper - b.paper).abs() / a.paper.abs().max(b.paper.abs()).max(1e-12) < 0.1 {
                continue;
            }
            let paper_order = a.paper > b.paper;
            let measured_order = a.measured > b.measured;
            if paper_order != measured_order {
                let (larger, smaller) = if paper_order { (a, b) } else { (b, a) };
                violations.push((larger.what.clone(), smaller.what.clone()));
            }
        }
    }
    violations
}

/// Export strategy profiles as CSV (for external plotting — the
/// paper's workflow hands Pandas dataframes to its figure scripts).
pub fn profiles_to_csv(profiles: &[presto_pipeline::sim::StrategyProfile]) -> String {
    let mut out = String::from(
        "strategy,split,threads,codec,cache,throughput_sps,network_read_mbps,\
         storage_bytes,stored_sample_bytes,preprocessing_secs,error\n",
    );
    for profile in profiles {
        let epoch = profile.epochs.last();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.3},{},{:.1},{:.3},{}",
            csv_escape(&profile.label),
            profile.strategy.split,
            profile.strategy.threads,
            profile.strategy.compression.name(),
            profile.strategy.cache.name(),
            epoch.map_or(0.0, |e| e.throughput_sps),
            epoch.map_or(0.0, |e| e.network_read_mbps),
            profile.storage_bytes,
            profile.stored_sample_bytes,
            profile.preprocessing_secs(),
            profile
                .error
                .as_ref()
                .map_or(String::new(), |e| csv_escape(&e.to_string())),
        );
    }
    out
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Human-friendly magnitude formatting: three significant digits from
/// 1 000 up, so a miss of 1% still shows ("1.79k" against "1.81k").
pub fn format_quantity(value: f64) -> String {
    let abs = value.abs();
    if abs >= 1e12 {
        format!("{}T", three_digits(value / 1e12))
    } else if abs >= 1e9 {
        format!("{}G", three_digits(value / 1e9))
    } else if abs >= 1e6 {
        format!("{}M", three_digits(value / 1e6))
    } else if abs >= 1e3 {
        format!("{}k", three_digits(value / 1e3))
    } else if abs >= 1.0 || abs == 0.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}

/// A mantissa in [1, 1000) to three significant digits.
fn three_digits(mantissa: f64) -> String {
    let decimals = match mantissa.abs() {
        m if m < 10.0 => 2,
        m if m < 100.0 => 1,
        _ => 0,
    };
    format!("{mantissa:.decimals$}")
}

/// Bytes with binary-ish units (decimal, as the paper reports).
pub fn format_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e12 {
        format!("{:.2} TB", b / 1e12)
    } else if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut table = TableBuilder::new(&["name", "value"]);
        table.row(&["a".into(), "1".into()]);
        table.row(&["longer-name".into(), "12345".into()]);
        let out = table.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("longer-name"));
        // Aligned: all rows same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_row_panics() {
        TableBuilder::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn comparison_ratio_and_factor() {
        let c = Comparison::new("x", 100.0, 150.0);
        assert!((c.ratio() - 1.5).abs() < 1e-12);
        assert!(c.within_factor(2.0));
        assert!(!c.within_factor(1.2));
        let zero = Comparison::new("z", 0.0, 0.0);
        assert_eq!(zero.ratio(), 1.0);
    }

    #[test]
    fn shape_check_catches_inversions() {
        let good = vec![
            Comparison::new("fast", 1789.0, 2100.0),
            Comparison::new("slow", 576.0, 700.0),
        ];
        assert!(shape_check(&good).is_empty());
        let bad = vec![
            Comparison::new("fast", 1789.0, 500.0),
            Comparison::new("slow", 576.0, 700.0),
        ];
        assert_eq!(shape_check(&bad).len(), 1);
        // The paper's larger value second: the pair still names it first.
        let bad = vec![
            Comparison::new("slow", 576.0, 700.0),
            Comparison::new("fast", 1789.0, 500.0),
        ];
        assert_eq!(shape_check(&bad), vec![("fast".into(), "slow".into())]);
    }

    #[test]
    fn shape_check_ignores_near_ties() {
        let ties = vec![
            Comparison::new("a", 962.0, 900.0),
            Comparison::new("b", 944.0, 950.0), // paper within 10% → skip
        ];
        assert!(shape_check(&ties).is_empty());
    }

    #[test]
    fn csv_export_has_one_row_per_profile() {
        use presto_pipeline::sim::{EpochReport, StrategyProfile};
        use presto_pipeline::Strategy;
        use presto_storage::{Dstat, Nanos};
        let profile = StrategyProfile {
            strategy: Strategy::at_split(1),
            label: "decoded, with comma".into(),
            storage_bytes: 1000,
            stored_sample_bytes: 10.0,
            sample_bytes: 10.0,
            offline: None,
            epochs: vec![EpochReport {
                epoch: 1,
                throughput_sps: 123.456,
                network_read_mbps: 7.0,
                elapsed_full: Nanos::from_secs(1),
                stats: Dstat::new(),
            }],
            error: None,
        };
        let csv = profiles_to_csv(&[profile]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("strategy,split,threads"));
        assert!(lines[1].starts_with("\"decoded, with comma\",1,8,none,no-cache,123.456"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn quantity_formatting() {
        assert_eq!(format_quantity(1789.0), "1.79k");
        assert_eq!(format_quantity(962.0), "962.0");
        assert_eq!(format_quantity(1019.0), "1.02k");
        assert_eq!(format_quantity(56_500.0), "56.5k");
        assert_eq!(format_quantity(312_000.0), "312k");
        assert_eq!(format_quantity(-2_340_000.0), "-2.34M");
        assert_eq!(format_quantity(0.0427), "0.0427");
        assert_eq!(format_quantity(1.53e12), "1.53T");
        assert_eq!(format_bytes(146_900_000_000), "146.90 GB");
        assert_eq!(format_bytes(512), "512 B");
    }
}
