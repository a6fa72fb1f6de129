//! STMBench7 core: operations, workloads, engine and reporting.
//!
//! This crate contains the benchmark logic of the paper:
//!
//! * [`ops`] — the 45 operations of Appendix B, written once against
//!   `stmbench7_data::Sb7Tx`, plus each operation's lock declaration;
//! * [`workload`] — the ratio solver implementing Table 2 semantics and
//!   the operation filter used by the §5 experiments;
//! * [`engine`] — the multi-threaded driver (duration- or count-bounded);
//! * [`ledger`] — run accounting every harness shares: per-thread
//!   operation rows and their merge, the windowed-telemetry accumulator,
//!   the backend counter deltas;
//! * [`histogram`] — TTC histograms;
//! * [`report`] — Appendix-A-format output plus CSV for the bench
//!   harness;
//! * [`json`] — the hand-rolled JSON document model backing the lab
//!   harness's machine-readable results (the build is offline, no serde).

#![warn(missing_docs)]

pub mod engine;
pub mod histogram;
pub mod json;
pub mod ledger;
pub mod ops;
pub mod report;
pub mod workload;

pub use engine::{run_benchmark, BenchConfig, RunMode};
pub use histogram::{Histogram, Resolution};
pub use json::JsonValue;
pub use ledger::{merge_ops, op_ledger, BackendCounters, Flight, WindowAcc};
pub use ops::{access_spec, primary_shard, run_op, Category, OpCtx, OpKind};
pub use report::{CategoryLatency, OpReport, Report, SampleError, ServiceStats, Timeseries};
pub use workload::{OpFilter, WorkloadMix, WorkloadType};
