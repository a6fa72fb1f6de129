//! Criterion benches, one group per paper table/figure plus
//! micro-benchmarks of the substrates. These run at CI scale (tiny
//! structure, fixed operation counts) so `cargo bench` terminates
//! quickly; the full parameter sweeps are the `paper_fig3`/`paper_fig4`/
//! `paper_table3`/`paper_fig6`/`ultimate_baseline` lab specs
//! (`stmbench7 lab <spec>`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use stmbench7::backend::{Backend, Granularity, SequentialBackend, TxOperation};
use stmbench7::core::ops::{run_op, OpCtx, OpKind};
use stmbench7::core::{access_spec, run_benchmark, BenchConfig, OpFilter, WorkloadType};
use stmbench7::data::btree::BTree;
use stmbench7::data::{OpOutcome, Sb7Tx, StructureParams, TxR, Workspace};
use stmbench7::stm::{AstmRuntime, NorecRuntime, StmRuntime, Tl2Runtime};
use stmbench7::{AnyBackend, BackendChoice};

struct Runner<'c> {
    op: OpKind,
    ctx: &'c mut OpCtx,
}

impl TxOperation<OpOutcome> for Runner<'_> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<OpOutcome> {
        run_op(self.op, tx, self.ctx)
    }
}

fn params() -> StructureParams {
    StructureParams::tiny()
}

/// Figure 3 (CI scale): one long-traversal execution per strategy.
fn fig3_latency(c: &mut Criterion) {
    let p = params();
    let ws = Workspace::build(p.clone(), 1);
    let mut group = c.benchmark_group("fig3_long_traversal_latency");
    for (name, choice) in [
        ("coarse", BackendChoice::Coarse),
        ("medium", BackendChoice::Medium),
        ("fine", BackendChoice::Fine),
    ] {
        let backend = AnyBackend::build(choice, ws.clone());
        for op in [OpKind::T1, OpKind::T2b] {
            let spec = access_spec(op, p.assembly_levels);
            group.bench_function(format!("{}_{}", op.name(), name), |b| {
                let mut ctx = OpCtx::new(p.clone(), 3);
                b.iter(|| backend.execute(&spec, &mut Runner { op, ctx: &mut ctx }));
            });
        }
    }
    group.finish();
}

/// Figure 4 (CI scale): 200-operation runs, long traversals disabled.
fn fig4_throughput(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("fig4_lock_throughput");
    group.sample_size(10);
    for workload in WorkloadType::all() {
        for (name, choice) in [
            ("coarse", BackendChoice::Coarse),
            ("medium", BackendChoice::Medium),
        ] {
            group.bench_function(format!("{}_{}", workload.name(), name), |b| {
                b.iter_batched(
                    || AnyBackend::build(choice, Workspace::build(p.clone(), 1)),
                    |backend| {
                        let mut cfg = BenchConfig::deterministic(workload, 200, 5);
                        cfg.long_traversals = false;
                        cfg.histograms = false;
                        run_benchmark(&backend, &p, &cfg)
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

/// Table 3 (CI scale): coarse vs ASTM, long traversals disabled.
fn table3_astm(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("table3_coarse_vs_astm");
    group.sample_size(10);
    for (name, choice) in [
        ("coarse", BackendChoice::Coarse),
        ("astm", BackendChoice::ASTM_PAPER),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || AnyBackend::build(choice, Workspace::build(p.clone(), 1)),
                |backend| {
                    let mut cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 150, 5);
                    cfg.long_traversals = false;
                    cfg.histograms = false;
                    run_benchmark(&backend, &p, &cfg)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Figure 6 (CI scale): the ASTM-friendly filter.
fn fig6_astm_friendly(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("fig6_astm_friendly");
    group.sample_size(10);
    for (name, choice) in [
        ("coarse", BackendChoice::Coarse),
        ("medium", BackendChoice::Medium),
        ("astm", BackendChoice::ASTM_PAPER),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || AnyBackend::build(choice, Workspace::build(p.clone(), 1)),
                |backend| {
                    let mut cfg = BenchConfig::deterministic(WorkloadType::ReadDominated, 150, 5);
                    cfg.long_traversals = false;
                    cfg.filter = OpFilter::astm_friendly();
                    cfg.histograms = false;
                    run_benchmark(&backend, &p, &cfg)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Micro: the B+tree index substrate.
fn micro_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_btree");
    group.bench_function("insert_1k", |b| {
        b.iter(|| {
            let mut t = BTree::new();
            for i in 0..1000u32 {
                t.insert(i.wrapping_mul(2_654_435_761), i);
            }
            t
        });
    });
    let mut tree = BTree::new();
    for i in 0..10_000u32 {
        tree.insert(i, i);
    }
    group.bench_function("get_hit", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            tree.get(&k).copied()
        });
    });
    group.bench_function("range_100", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            tree.for_range(&4000, &4100, |_, v| sum += u64::from(*v));
            sum
        });
    });
    group.finish();
}

/// Micro: STM primitives (read and update transactions).
fn micro_stm(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_stm");
    let tl2 = Tl2Runtime::default();
    let astm = AstmRuntime::default();
    let vt = tl2.new_var(0u64);
    let va = astm.new_var(0u64);
    group.bench_function("tl2_read_tx", |b| {
        b.iter(|| tl2.atomic(|tx| Ok(*Tl2Runtime::read(tx, &vt)?)));
    });
    group.bench_function("tl2_update_tx", |b| {
        b.iter(|| tl2.atomic(|tx| Tl2Runtime::update(tx, &vt, |n| *n += 1)));
    });
    group.bench_function("astm_read_tx", |b| {
        b.iter(|| astm.atomic(|tx| Ok(*AstmRuntime::read(tx, &va)?)));
    });
    group.bench_function("astm_update_tx", |b| {
        b.iter(|| astm.atomic(|tx| AstmRuntime::update(tx, &va, |n| *n += 1)));
    });
    // The O(k²) tax: read k vars in one ASTM transaction.
    let vars: Vec<_> = (0..64u64).map(|i| astm.new_var(i)).collect();
    group.bench_function("astm_read64_incremental_validation", |b| {
        b.iter(|| {
            astm.atomic(|tx| {
                let mut sum = 0;
                for v in &vars {
                    sum += *AstmRuntime::read(tx, v)?;
                }
                Ok(sum)
            })
        });
    });
    let tvars: Vec<_> = (0..64u64).map(|i| tl2.new_var(i)).collect();
    group.bench_function("tl2_read64_constant_validation", |b| {
        b.iter(|| {
            tl2.atomic(|tx| {
                let mut sum = 0;
                for v in &tvars {
                    sum += *Tl2Runtime::read(tx, v)?;
                }
                Ok(sum)
            })
        });
    });
    group.bench_function("tl2_read64_readonly_fast_path", |b| {
        b.iter(|| {
            tl2.atomic_read_only(|tx| {
                let mut sum = 0;
                for v in &tvars {
                    sum += *Tl2Runtime::read(tx, v)?;
                }
                Ok(sum)
            })
        });
    });
    let norec = NorecRuntime::new();
    let vn = norec.new_var(0u64);
    group.bench_function("norec_read_tx", |b| {
        b.iter(|| norec.atomic(|tx| Ok(*NorecRuntime::read(tx, &vn)?)));
    });
    group.bench_function("norec_update_tx", |b| {
        b.iter(|| norec.atomic(|tx| NorecRuntime::update(tx, &vn, |n| *n += 1)));
    });
    let nvars: Vec<_> = (0..64u64).map(|i| norec.new_var(i)).collect();
    group.bench_function("norec_read64_value_validation", |b| {
        b.iter(|| {
            norec.atomic(|tx| {
                let mut sum = 0;
                for v in &nvars {
                    sum += *NorecRuntime::read(tx, v)?;
                }
                Ok(sum)
            })
        });
    });
    group.finish();
}

/// Extension (§6): the ultimate-baseline strategies at CI scale.
fn ultimate_baseline_ci(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("ultimate_baseline");
    group.sample_size(10);
    for (name, choice) in [
        ("fine", BackendChoice::Fine),
        (
            "tl2_sharded",
            BackendChoice::Tl2 {
                granularity: Granularity::Sharded,
            },
        ),
        (
            "norec_sharded",
            BackendChoice::Norec {
                granularity: Granularity::Sharded,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || AnyBackend::build(choice, Workspace::build(p.clone(), 1)),
                |backend| {
                    let mut cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 150, 5);
                    cfg.long_traversals = false;
                    cfg.histograms = false;
                    run_benchmark(&backend, &p, &cfg)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Micro: representative operations over the sequential backend.
fn micro_ops(c: &mut Criterion) {
    let p = params();
    let ws = Workspace::build(p.clone(), 1);
    let backend = SequentialBackend::new(ws);
    let mut group = c.benchmark_group("micro_ops");
    for op in [OpKind::St1, OpKind::Op1, OpKind::Op4, OpKind::Q7] {
        let spec = access_spec(op, p.assembly_levels);
        group.bench_function(op.name(), |b| {
            let mut ctx = OpCtx::new(p.clone(), 11);
            b.iter(|| backend.execute(&spec, &mut Runner { op, ctx: &mut ctx }));
        });
    }
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = configure();
    targets = fig3_latency, fig4_throughput, table3_astm, fig6_astm_friendly,
              ultimate_baseline_ci, micro_btree, micro_stm, micro_ops
}
criterion_main!(benches);
