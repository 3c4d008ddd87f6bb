//! Structured experiment output.
//!
//! Every experiment produces an [`Experiment`]: named series of
//! `(x, modeled, actual)` rows plus free-form notes. Renderers turn them
//! into aligned text tables (for the console) and markdown (for
//! EXPERIMENTS.md).

use serde::{Deserialize, Serialize};
use simcore::stats::{ape, mape, max_ape};
use std::fmt::Write as _;

/// One measurement: a sweep point with modeled and actual values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Sweep coordinate (matrix size, message words, …).
    pub x: f64,
    /// The contention model's prediction, seconds.
    pub modeled: f64,
    /// The simulated platform's measurement, seconds.
    pub actual: f64,
}

impl Row {
    /// Absolute percentage error of the prediction.
    pub fn ape(&self) -> f64 {
        ape(self.modeled, self.actual)
    }
}

/// A named sweep series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Display name (e.g. `"p=3"`).
    pub name: String,
    /// Rows in sweep order.
    pub rows: Vec<Row>,
}

impl Series {
    /// Builds a series.
    pub fn new(name: impl Into<String>, rows: Vec<Row>) -> Self {
        Series { name: name.into(), rows }
    }

    /// Mean absolute percentage error across rows.
    pub fn mape(&self) -> f64 {
        mape(self.rows.iter().map(|r| (r.modeled, r.actual)))
    }

    /// Largest absolute percentage error across rows.
    pub fn max_ape(&self) -> f64 {
        max_ape(self.rows.iter().map(|r| (r.modeled, r.actual)))
    }
}

/// A complete table/figure reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Identifier matching the paper ("fig1", "tab1-4", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x column.
    pub x_label: String,
    /// The data series.
    pub series: Vec<Series>,
    /// Free-form notes (errors, crossovers, Gantt charts, …).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Builds an experiment shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
    ) -> Self {
        Experiment {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub(crate) fn push_series(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Adds a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders an aligned text table: one block per series.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        for s in &self.series {
            let _ = writeln!(out, "-- {}", s.name);
            let _ = writeln!(
                out,
                "   {:>12} {:>14} {:>14} {:>8}",
                self.x_label, "modeled(s)", "actual(s)", "err%"
            );
            for r in &s.rows {
                let _ = writeln!(
                    out,
                    "   {:>12.1} {:>14.6} {:>14.6} {:>8.2}",
                    r.x,
                    r.modeled,
                    r.actual,
                    r.ape()
                );
            }
            if !s.rows.is_empty() {
                let _ = writeln!(out, "   (MAPE {:.2}%  max {:.2}%)", s.mape(), s.max_ape());
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "   note: {n}");
        }
        out
    }

    /// Renders a markdown section for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        for s in &self.series {
            let _ = writeln!(out, "**{}**\n", s.name);
            let _ = writeln!(out, "| {} | modeled (s) | actual (s) | err % |", self.x_label);
            let _ = writeln!(out, "|---|---|---|---|");
            for r in &s.rows {
                let _ = writeln!(
                    out,
                    "| {:.1} | {:.6} | {:.6} | {:.2} |",
                    r.x,
                    r.modeled,
                    r.actual,
                    r.ape()
                );
            }
            if !s.rows.is_empty() {
                let _ = writeln!(out, "\nMAPE {:.2}%, max {:.2}%\n", s.mape(), s.max_ape());
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "> {}\n", n.replace('\n', "\n> "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Experiment {
        let mut e = Experiment::new("figX", "Sample", "M");
        e.push_series(Series::new(
            "p=0",
            vec![
                Row { x: 100.0, modeled: 1.0, actual: 1.1 },
                Row { x: 200.0, modeled: 2.0, actual: 2.0 },
            ],
        ));
        e.note("hello");
        e
    }

    #[test]
    fn row_and_series_errors() {
        let e = sample();
        let s = &e.series[0];
        assert!((s.rows[0].ape() - 9.0909).abs() < 0.01);
        assert!((s.mape() - 4.5454).abs() < 0.01);
        assert!((s.max_ape() - 9.0909).abs() < 0.01);
    }

    #[test]
    fn text_render_contains_everything() {
        let t = sample().render_text();
        assert!(t.contains("figX"));
        assert!(t.contains("p=0"));
        assert!(t.contains("MAPE"));
        assert!(t.contains("note: hello"));
    }

    #[test]
    fn markdown_render_is_tabular() {
        let m = sample().render_markdown();
        assert!(m.contains("### figX"));
        assert!(m.contains("| M | modeled (s) | actual (s) | err % |"));
        assert!(m.contains("> hello"));
    }

    #[test]
    fn serde_roundtrip() {
        let e = sample();
        let json = serde_json::to_string(&e).unwrap();
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
