//! Property tests over the synchronization backends: for arbitrary
//! workloads, seeds and operation mixes, the optimistic and plan-based
//! backends must agree with the sequential oracle operation-by-operation
//! and leave exactly the oracle's structure ([`structural_diff`]).

use proptest::prelude::*;

use stmbench7::backend::{Backend, FineBackend, SequentialBackend, Tl2Backend};
use stmbench7::core::{run_benchmark, BenchConfig, WorkloadType};
use stmbench7::data::{structural_diff, validate, StructureParams, Workspace};

fn arb_workload() -> impl Strategy<Value = WorkloadType> {
    prop_oneof![
        Just(WorkloadType::ReadDominated),
        Just(WorkloadType::ReadWrite),
        Just(WorkloadType::WriteDominated),
    ]
}

/// Runs one deterministic single-thread benchmark and returns the per-op
/// (completed, failed) counts, the final census and the exported structure.
fn profile<B: Backend>(
    backend: &B,
    params: &StructureParams,
    cfg: &BenchConfig,
) -> (Vec<(u64, u64)>, stmbench7::data::Census, Workspace) {
    let report = run_benchmark(backend, params, cfg);
    let counts = report
        .per_op
        .iter()
        .map(|o| (o.completed, o.failed))
        .collect();
    let exported = backend.export();
    let census = validate(&exported).expect("structure corrupted");
    (counts, census, exported)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // Each case runs three full benchmark configurations.
        ..ProptestConfig::default()
    })]

    /// The fine-grained (discover/sort/acquire) and TL2 backends replay
    /// any deterministic workload exactly like the sequential oracle.
    #[test]
    fn fine_and_tl2_match_the_sequential_oracle(
        workload in arb_workload(),
        seed in 0u64..1_000_000,
        build_seed in 0u64..1_000,
        ops in 50u64..150,
        long_traversals in proptest::bool::ANY,
        structure_mods in proptest::bool::ANY,
    ) {
        let params = StructureParams::tiny();
        let mut cfg = BenchConfig::deterministic(workload, ops, seed);
        cfg.long_traversals = long_traversals;
        cfg.structure_mods = structure_mods;

        let seq = SequentialBackend::new(Workspace::build(params.clone(), build_seed));
        let (oracle_counts, oracle_census, oracle_ws) = profile(&seq, &params, &cfg);

        let fine = FineBackend::new(Workspace::build(params.clone(), build_seed));
        let (fine_counts, fine_census, fine_ws) = profile(&fine, &params, &cfg);
        prop_assert_eq!(&fine_counts, &oracle_counts, "fine disagrees with the oracle");
        prop_assert_eq!(&fine_census, &oracle_census);
        prop_assert_eq!(structural_diff(&fine_ws, &oracle_ws), Ok(()));

        let tl2 = Tl2Backend::from_workspace(
            &Workspace::build(params.clone(), build_seed),
            stmbench7::stm::Tl2Runtime::default(),
            stmbench7::backend::Granularity::Sharded,
        );
        let (tl2_counts, tl2_census, tl2_ws) = profile(&tl2, &params, &cfg);
        prop_assert_eq!(&tl2_counts, &oracle_counts, "tl2 disagrees with the oracle");
        prop_assert_eq!(&tl2_census, &oracle_census);
        prop_assert_eq!(structural_diff(&tl2_ws, &oracle_ws), Ok(()));
    }

    /// Single-threaded fine-grained execution never needs plan retries or
    /// fallbacks: with no concurrent date-index writers, discovery is
    /// always exact.
    #[test]
    fn fine_plans_are_exact_without_concurrency(
        workload in arb_workload(),
        seed in 0u64..1_000_000,
    ) {
        let params = StructureParams::tiny();
        let cfg = BenchConfig::deterministic(workload, 80, seed);
        let fine = FineBackend::new(Workspace::build(params.clone(), 3));
        run_benchmark(&fine, &params, &cfg);
        let stats = fine.fine_stats();
        prop_assert_eq!(stats.plan_retries, 0);
        prop_assert_eq!(stats.fallbacks, 0);
        prop_assert!(stats.planned_ops + stats.exclusive_ops >= 80);
    }
}
