//! Baseline regression gating: compares a fresh results document against
//! a baseline document, cell by cell, and reports throughput
//! regressions beyond a configurable tolerance. CI's baselines are runs
//! made moments earlier on the same machine, so the tolerance bounds an
//! overhead ratio, not a hardware difference.

use std::fmt::Write as _;

use stmbench7_core::JsonValue;

use crate::run::check_format;

/// The allowed slowdown factor. `1.25` means a cell may be up to 25%
/// slower than baseline before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance(pub f64);

impl Tolerance {
    /// Parses `NN%` (relative slack), `NNx` (multiplicative factor), or
    /// a bare factor like `1.5`.
    pub fn parse(s: &str) -> Option<Tolerance> {
        let factor = if let Some(pct) = s.strip_suffix('%') {
            1.0 + pct.trim().parse::<f64>().ok()? / 100.0
        } else if let Some(x) = s.strip_suffix('x') {
            x.trim().parse::<f64>().ok()?
        } else {
            s.parse::<f64>().ok()?
        };
        (factor >= 1.0 && factor.is_finite()).then_some(Tolerance(factor))
    }
}

/// One cell's baseline-vs-current verdict.
#[derive(Clone, Debug)]
pub struct CellComparison {
    pub key: String,
    /// Median throughput in the baseline document.
    pub baseline: f64,
    /// Median throughput in the current document.
    pub current: f64,
    /// Slowdown factor `baseline / current` (> 1 means slower now).
    pub slowdown: f64,
    pub regressed: bool,
}

/// The full comparison of two results documents.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub tolerance: Tolerance,
    pub cells: Vec<CellComparison>,
    /// Baseline cell keys absent from the current run — treated as
    /// regressions (a vanished configuration must not pass the gate).
    pub missing: Vec<String>,
}

impl Comparison {
    /// True when no cell regressed and none disappeared.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.cells.iter().all(|c| !c.regressed)
    }

    /// Number of regressed cells (missing cells included).
    pub fn regression_count(&self) -> usize {
        self.cells.iter().filter(|c| c.regressed).count() + self.missing.len()
    }

    /// The human-readable regression report the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline comparison (tolerance {:.2}x, {} cells):",
            self.tolerance.0,
            self.cells.len()
        );
        for c in &self.cells {
            let verdict = if c.regressed {
                "REGRESSED"
            } else if c.slowdown < 1.0 {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:<40} baseline {:>10.1} op/s   now {:>10.1} op/s   {:>5.2}x  {}",
                c.key, c.baseline, c.current, c.slowdown, verdict
            );
        }
        for key in &self.missing {
            let _ = writeln!(out, "  {key:<40} MISSING from current run (REGRESSED)");
        }
        let _ = match self.regression_count() {
            0 => writeln!(out, "verdict: OK — no cell slower than tolerance allows"),
            n => writeln!(
                out,
                "verdict: {n} REGRESSION(S) beyond {:.2}x",
                self.tolerance.0
            ),
        };
        out
    }
}

fn cell_map(doc: &JsonValue) -> Result<Vec<(&str, f64)>, String> {
    check_format(doc)?;
    let cells = doc
        .get("cells")
        .and_then(JsonValue::as_array)
        .ok_or("document has no \"cells\" array")?;
    cells
        .iter()
        .map(|cell| {
            let key = cell
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or("cell has no \"key\"")?;
            let median = cell
                .get("throughput")
                .and_then(|t| t.get("median"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("cell {key} has no throughput.median"))?;
            Ok((key, median))
        })
        .collect()
}

/// Compares `current` against `baseline`, matching cells by key. Cells
/// only present in the current run are ignored (a grown grid is not a
/// regression); cells only present in the baseline are.
pub fn compare_documents(
    baseline: &JsonValue,
    current: &JsonValue,
    tolerance: Tolerance,
) -> Result<Comparison, String> {
    let base_cells = cell_map(baseline)?;
    let cur_cells = cell_map(current)?;
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for (key, base_median) in base_cells {
        match cur_cells.iter().find(|(k, _)| *k == key) {
            None => missing.push(key.to_string()),
            Some(&(_, cur_median)) => {
                let slowdown = if cur_median > 0.0 {
                    base_median / cur_median
                } else {
                    f64::INFINITY
                };
                cells.push(CellComparison {
                    key: key.to_string(),
                    baseline: base_median,
                    current: cur_median,
                    slowdown,
                    regressed: slowdown > tolerance.0,
                });
            }
        }
    }
    Ok(Comparison {
        tolerance,
        cells,
        missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::FORMAT;

    fn doc(cells: &[(&str, f64)]) -> JsonValue {
        JsonValue::obj(vec![
            ("format", JsonValue::str(FORMAT)),
            (
                "cells",
                JsonValue::Arr(
                    cells
                        .iter()
                        .map(|(key, median)| {
                            JsonValue::obj(vec![
                                ("key", JsonValue::str(*key)),
                                (
                                    "throughput",
                                    JsonValue::obj(vec![("median", JsonValue::num(*median))]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn tolerance_parsing() {
        assert_eq!(Tolerance::parse("25%"), Some(Tolerance(1.25)));
        assert_eq!(Tolerance::parse("10x"), Some(Tolerance(10.0)));
        assert_eq!(Tolerance::parse("1.5"), Some(Tolerance(1.5)));
        assert_eq!(
            Tolerance::parse("0.5x"),
            None,
            "speedup-only gate is nonsense"
        );
        assert_eq!(Tolerance::parse("abc"), None);
    }

    #[test]
    fn detects_regressions_and_improvements() {
        let baseline = doc(&[("a/rw/1t", 1000.0), ("b/rw/1t", 1000.0)]);
        let current = doc(&[("a/rw/1t", 500.0), ("b/rw/1t", 2000.0)]);
        let cmp = compare_documents(&baseline, &current, Tolerance(1.25)).unwrap();
        assert!(!cmp.ok());
        assert_eq!(cmp.regression_count(), 1);
        assert!(cmp.cells[0].regressed);
        assert!((cmp.cells[0].slowdown - 2.0).abs() < 1e-9);
        assert!(!cmp.cells[1].regressed);
        let report = cmp.render();
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("improved"));
        assert!(report.contains("1 REGRESSION"));
    }

    #[test]
    fn loose_tolerance_passes_the_same_pair() {
        let baseline = doc(&[("a/rw/1t", 1000.0)]);
        let current = doc(&[("a/rw/1t", 500.0)]);
        let cmp = compare_documents(&baseline, &current, Tolerance(10.0)).unwrap();
        assert!(cmp.ok());
        assert!(cmp.render().contains("verdict: OK"));
    }

    #[test]
    fn missing_cells_fail_extra_cells_pass() {
        let baseline = doc(&[("a/rw/1t", 1000.0)]);
        let current = doc(&[("b/rw/1t", 1000.0)]);
        let cmp = compare_documents(&baseline, &current, Tolerance(2.0)).unwrap();
        assert!(!cmp.ok());
        assert_eq!(cmp.missing, vec!["a/rw/1t".to_string()]);
        // Extra current-only cells don't fail the gate.
        let cmp2 = compare_documents(&doc(&[]), &current, Tolerance(2.0)).unwrap();
        assert!(cmp2.ok());
    }

    #[test]
    fn rejects_wrong_format() {
        let good = doc(&[]);
        // A foreign document, and the previous lab version: only the
        // current format is read.
        for format in ["other/9", "stmbench7-lab/6"] {
            let bad = JsonValue::obj(vec![("format", JsonValue::str(format))]);
            let err = compare_documents(&bad, &good, Tolerance(1.5)).unwrap_err();
            assert!(err.contains(format), "{err}");
            assert!(compare_documents(&good, &bad, Tolerance(1.5)).is_err());
        }
    }

    #[test]
    fn zero_current_throughput_is_infinite_slowdown() {
        let baseline = doc(&[("a/rw/1t", 100.0)]);
        let current = doc(&[("a/rw/1t", 0.0)]);
        let cmp = compare_documents(&baseline, &current, Tolerance(1000.0)).unwrap();
        assert!(!cmp.ok());
    }
}
