//! Minimal markdown table rendering for the experiment harness — results
//! paste straight into EXPERIMENTS.md — plus the JSON fragments the
//! committed artefacts share.

use gc_core::HealthSnapshot;
use gc_telemetry::{HistogramSnapshot, StageSpans};

/// A markdown table under construction.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Renders github-flavored markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a speedup as `N.NNx`.
pub fn spx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a ratio as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// A JSON string literal (the harness's names need no escaping).
pub(crate) fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// A flat JSON object on one line from `(name, value)` pairs whose values
/// are already JSON.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = (fields.iter())
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A JSON array with one element per line, the layout of the committed
/// count files (`BENCH_kernel.json`, `REPRO.json`), so a diff names the
/// lines that moved.
pub(crate) fn json_lines(elements: &[String]) -> String {
    format!("[\n  {}\n]\n", elements.join(",\n  "))
}

/// Stage-span totals as a compact JSON object (`{"prefilter": ns, ...}`).
pub(crate) fn spans_json(spans: &StageSpans) -> String {
    let fields: Vec<String> = spans
        .iter()
        .map(|(stage, nanos)| format!("\"{}\": {}", stage.name(), nanos))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Health counters as a compact JSON object (`{"load_shed": n, ...}`).
pub fn health_json(health: &HealthSnapshot) -> String {
    let fields: Vec<String> = health
        .iter()
        .map(|(counter, n)| format!("\"{}\": {}", counter.name(), n))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Histogram quantiles as a compact JSON object (values in the unit the
/// histogram was recorded in — microseconds for latency).
pub(crate) fn latency_json(snap: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        snap.count,
        snap.p50(),
        snap.p95(),
        snap.p99(),
        snap.max()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Figure X", &["workload", "speedup"]);
        t.row(vec!["ZZ".into(), spx(7.85)]);
        t.row(vec!["UU".into(), spx(5.13)]);
        let md = t.render();
        assert!(md.contains("### Figure X"));
        assert!(md.contains("| workload | speedup |"));
        assert!(md.contains("| ZZ | 7.85x |"));
        assert!(md.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f1(2.34), "2.3");
        assert_eq!(spx(7.849), "7.85x");
        assert_eq!(pct(0.0123), "1.23%");
    }
}
