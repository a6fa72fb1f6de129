//! Cross-backend equivalence and integrity.
//!
//! With one thread and a fixed seed, every backend executes the exact same
//! operation sequence with the exact same random choices — so every
//! synchronization strategy must produce identical per-operation
//! outcome counts and identical final structures — object for object and
//! index entry for index entry ([`structural_diff`]). This is the strongest
//! end-to-end correctness check in the suite: it exercises all 45
//! operations over every `Sb7Tx` implementation at once (for the
//! fine-grained strategy that includes discovery, execution and the
//! exclusive path).

use stmbench7::backend::Backend;
use stmbench7::core::{run_benchmark, BenchConfig, WorkloadType};
use stmbench7::data::{structural_diff, validate, StructureParams, Workspace};
use stmbench7::{strategy_catalog, AnyBackend, BackendChoice};

fn all_choices() -> Vec<(&'static str, BackendChoice)> {
    strategy_catalog()
}

/// The reference profile of one run: backend name, per-op (completed,
/// failed) counts, the final structure census and the exported structure.
type Profile = (String, Vec<(u64, u64)>, stmbench7::data::Census, Workspace);

/// Runs the same deterministic workload on every backend and compares.
/// `shards` exercises the sharded-index axis: routing and per-shard
/// locking must never change a single outcome.
fn check_equivalence(workload: WorkloadType, ops: u64, seed: u64, shards: usize) {
    let params = StructureParams::tiny().with_shards(shards);
    let cfg = BenchConfig::deterministic(workload, ops, seed);

    let mut reference: Option<Profile> = None;
    for (name, choice) in all_choices() {
        let ws = Workspace::build(params.clone(), 99);
        let backend = AnyBackend::build(choice, ws);
        let report = run_benchmark(&backend, &params, &cfg);
        let counts: Vec<(u64, u64)> = report
            .per_op
            .iter()
            .map(|o| (o.completed, o.failed))
            .collect();
        let exported = backend.export();
        let census = validate(&exported)
            .unwrap_or_else(|e| panic!("{name}: structure corrupted after run: {e}"));
        match &reference {
            None => reference = Some((name.to_string(), counts, census, exported)),
            Some((ref_name, ref_counts, ref_census, ref_ws)) => {
                assert_eq!(
                    &counts, ref_counts,
                    "{name} and {ref_name} disagree on per-op outcomes"
                );
                assert_eq!(
                    &census, ref_census,
                    "{name} and {ref_name} disagree on the final census"
                );
                // No strategy is exempt: every one must leave the exact
                // structure the reference leaves.
                if let Err(e) = structural_diff(&exported, ref_ws) {
                    panic!("{name} and {ref_name} leave different structures: {e}");
                }
            }
        }
    }
}

#[test]
fn backends_agree_read_dominated() {
    check_equivalence(WorkloadType::ReadDominated, 400, 11, 1);
}

#[test]
fn backends_agree_read_write() {
    check_equivalence(WorkloadType::ReadWrite, 400, 22, 1);
}

#[test]
fn backends_agree_write_dominated() {
    check_equivalence(WorkloadType::WriteDominated, 400, 33, 1);
}

#[test]
fn backends_agree_read_write_sharded_8() {
    check_equivalence(WorkloadType::ReadWrite, 400, 22, 8);
}

#[test]
fn backends_agree_write_dominated_sharded_8() {
    check_equivalence(WorkloadType::WriteDominated, 400, 33, 8);
}
