//! STM runtime counters pinned to constants.
//!
//! At one thread, with a fixed seed and a fixed operation count, an STM
//! backend's [`StatsSnapshot`] does not depend on the hardware: no
//! transaction aborts, and every read, write, validation step and
//! copy-on-write clone follows from the operation stream alone. This test
//! runs [`run_benchmark`] for each STM row of the strategy catalog ×
//! r/rw/w and compares the counters with constants recorded before the
//! STM backend's index representation last changed. A refactor of the
//! backend or a runtime may get faster; it may not read, write, validate
//! or copy a different number of times without re-recording a pin and
//! saying why.

use stmbench7::backend::Backend;
use stmbench7::core::{run_benchmark, BenchConfig, WorkloadType};
use stmbench7::data::{StructureParams, Workspace};
use stmbench7::stm::StatsSnapshot;
use stmbench7::{strategy_catalog, AnyBackend, BackendChoice};

const OPS: u64 = 2_000;
const SEED: u64 = 5;

/// One pinned run: strategy, mix, then commits, aborts, reads, writes,
/// validation steps and clones.
type Pinned = (&'static str, &'static str, [u64; 6]);

const PINNED: &[Pinned] = &[
    ("astm", "r", [2000, 0, 14582, 1025, 251837, 1025]),
    ("astm", "rw", [2000, 0, 14696, 3096, 269724, 3096]),
    ("astm", "w", [2000, 0, 9422, 5017, 103719, 5017]),
    ("astm-sharded", "r", [2000, 0, 76632, 1853, 6957557, 1853]),
    ("astm-sharded", "rw", [2000, 0, 56951, 8415, 4697295, 8415]),
    ("astm-sharded", "w", [2000, 0, 26140, 14113, 1538858, 14113]),
    ("astm-visible", "r", [2000, 0, 14582, 1025, 0, 1025]),
    ("astm-visible", "rw", [2000, 0, 14696, 3096, 0, 3096]),
    ("astm-visible", "w", [2000, 0, 9422, 5017, 0, 5017]),
    ("tl2", "r", [2000, 0, 57143, 1025, 0, 1025]),
    ("tl2", "rw", [2000, 0, 42663, 3096, 0, 3096]),
    ("tl2", "w", [2000, 0, 11546, 5017, 0, 5017]),
    ("tl2-sharded", "r", [2000, 0, 116009, 1853, 0, 1853]),
    ("tl2-sharded", "rw", [2000, 0, 82875, 8415, 0, 8415]),
    ("tl2-sharded", "w", [2000, 0, 28038, 14113, 0, 14113]),
    ("norec", "r", [2000, 0, 15449, 1025, 0, 1025]),
    ("norec", "rw", [2000, 0, 15739, 3096, 0, 3096]),
    ("norec", "w", [2000, 0, 10771, 5017, 0, 5017]),
    ("norec-sharded", "r", [2000, 0, 78341, 1853, 0, 1853]),
    ("norec-sharded", "rw", [2000, 0, 59938, 8415, 0, 8415]),
    ("norec-sharded", "w", [2000, 0, 30775, 14113, 0, 14113]),
];

fn counters(s: &StatsSnapshot) -> [u64; 6] {
    [
        s.commits,
        s.aborts,
        s.reads,
        s.writes,
        s.validation_steps,
        s.clones,
    ]
}

fn run(strategy: &str, workload: &str) -> [u64; 6] {
    let choice = strategy_catalog()
        .into_iter()
        .find(|(name, _)| *name == strategy)
        .unwrap_or_else(|| panic!("'{strategy}' is not in the catalog"))
        .1;
    let params = StructureParams::tiny();
    let backend = AnyBackend::build(choice, Workspace::build(params.clone(), SEED));
    let cfg = BenchConfig::deterministic(WorkloadType::parse(workload).unwrap(), OPS, SEED);
    run_benchmark(&backend, &params, &cfg);
    counters(
        &backend
            .stm_stats()
            .expect("an STM strategy reports STM stats"),
    )
}

#[test]
fn stm_counters_match_the_pins() {
    // Every run happens before any assertion, so one failure reports
    // the actual counters of every run.
    let mut mismatches = Vec::new();
    for &(strategy, workload, pinned) in PINNED {
        let got = run(strategy, workload);
        if got != pinned {
            mismatches.push(format!("(\"{strategy}\", \"{workload}\", {got:?}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} runs differ from their pins; actual:\n{}",
        mismatches.len(),
        PINNED.len(),
        mismatches.join("\n")
    );
}

#[test]
fn every_stm_strategy_is_pinned_for_every_mix() {
    // A new STM row in the catalog must get its pins, not skip the test.
    let stm_rows = strategy_catalog().into_iter().filter(|(_, choice)| {
        matches!(
            choice,
            BackendChoice::Astm { .. } | BackendChoice::Tl2 { .. } | BackendChoice::Norec { .. }
        )
    });
    for (name, _) in stm_rows {
        for workload in ["r", "rw", "w"] {
            assert!(
                PINNED.iter().any(|p| p.0 == name && p.1 == workload),
                "{name} / {workload} has no pin"
            );
        }
    }
}
