//! `stmbench7-lab` — the declarative experiment harness.
//!
//! STMBench7's contribution is a *measurement methodology*; this crate
//! turns the reproduction into a living benchmark by making experiments
//! first-class values:
//!
//! * [`spec`] — [`spec::ExperimentSpec`]: a named grid of backend ×
//!   workload × threads cells with structure preset, duration, warmup,
//!   repetition count and pinned seeds;
//! * [`registry`] — the built-in specs, one [`registry::CATALOG`] row
//!   each (`smoke`, the `paper_*` figure/table grids, `scaling`, …);
//! * [`run`] — executes a spec, aggregating repetitions into
//!   median/min/max/p95 with abort rates and per-category rollups;
//! * [`json`] — the parser matching `stmbench7_core::JsonValue::render`
//!   (the build is offline; no serde);
//! * [`compare`] — baseline regression gating over two results
//!   documents with a configurable tolerance.
//!
//! The CLI front door is `stmbench7 lab <spec> [--compare baseline.json]`;
//! results land in versioned `results/BENCH_<spec>.json` documents.

pub mod compare;
pub mod json;
pub mod registry;
pub mod run;
pub mod spec;
pub mod stats;

pub use compare::{compare_documents, Comparison, Tolerance};
pub use run::{
    check_format, check_slos, run_spec, CellResult, RepResult, SloCheck, SpecResult, FORMAT,
};
pub use spec::{grid, net_grid, service_grid, Cell, ExperimentSpec, NetPlan, ServicePlan, Slo};
pub use stats::Summary;
