//! A tour of every synchronization strategy: run the identical
//! deterministic workload on each backend, check they all agree (the
//! benchmark's core correctness property), and show what each strategy
//! paid for its answer.
//!
//! ```sh
//! cargo run --release --example strategy_tour
//! ```

use std::time::Instant;

use stmbench7::backend::{Backend, Granularity};
use stmbench7::core::{run_benchmark, BenchConfig, WorkloadType};
use stmbench7::data::{validate, StructureParams, Workspace};
use stmbench7::{AnyBackend, BackendChoice};

fn strategies() -> Vec<BackendChoice> {
    vec![
        BackendChoice::Sequential,
        BackendChoice::Coarse,
        BackendChoice::Medium,
        BackendChoice::Fine,
        BackendChoice::ASTM_PAPER,
        BackendChoice::Tl2 {
            granularity: Granularity::Sharded,
        },
        BackendChoice::Norec {
            granularity: Granularity::Sharded,
        },
    ]
}

fn main() {
    let params = StructureParams::tiny();
    let cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 800, 42);

    println!("Running 800 identical operations under every strategy:\n");
    println!(
        "{:>14} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "strategy", "wall ms", "completed", "failed", "stm aborts", "census ok"
    );

    let mut reference: Option<(u64, u64)> = None;
    for choice in strategies() {
        let ws = Workspace::build(params.clone(), 9);
        let backend = AnyBackend::build(choice, ws);
        let t0 = Instant::now();
        let report = run_benchmark(&backend, &params, &cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        let key = (report.total_completed(), report.total_failed());
        match &reference {
            None => reference = Some(key),
            Some(expected) => assert_eq!(
                &key,
                expected,
                "{} disagrees with the sequential oracle",
                backend.name()
            ),
        }

        let aborts = backend
            .stm_stats()
            .map(|s| s.aborts.to_string())
            .unwrap_or_else(|| "-".into());
        let valid = validate(&backend.export()).is_ok();
        println!(
            "{:>14} {:>9.1} {:>9} {:>9} {:>11} {:>9}",
            backend.name(),
            ms,
            report.total_completed(),
            report.total_failed(),
            aborts,
            valid
        );

        if let Some(fine) = backend.fine_stats() {
            println!(
                "{:>14} planned={} exclusive={} locks={} retries={} fallbacks={}",
                "└ fine:",
                fine.planned_ops,
                fine.exclusive_ops,
                fine.locks_acquired,
                fine.plan_retries,
                fine.fallbacks
            );
        }
    }

    println!("\nAll strategies produced identical per-operation outcomes.");
    println!("Single-threaded, the strategies differ only in overhead:");
    println!("  coarse     — one RwLock acquisition per operation;");
    println!("  medium     — up to ten group locks per operation;");
    println!("  fine       — runs every operation twice (discover + execute);");
    println!("  astm/tl2/norec — full STM instrumentation per object access.");
}
