//! The built-in spec registry: the named experiments `stmbench7 lab`
//! knows how to run. [`CATALOG`] declares each once — name, description
//! and builder; CLI flags (`--secs`, `--reps`, `--threads`, `--preset`,
//! `--seed`) override the protocol without touching the grid definition.

use stmbench7_backend::{BackendChoice, Granularity};
use stmbench7_core::WorkloadType;
use stmbench7_data::StructureParams;
use stmbench7_service::{Admission, Affinity, Schedule};
use stmbench7_stm::ContentionManager;

use crate::spec::{
    grid, net_grid, service_grid, sharded_grid, Cell, ExperimentSpec, NetPlan, ServicePlan, Slo,
};

/// `(name, one-line description, builder)` of one built-in spec.
pub type CatalogEntry = (&'static str, &'static str, fn() -> ExperimentSpec);

/// Every built-in spec, in display order — the one table `lab --list`,
/// [`build`] and the unknown-spec error all read.
pub const CATALOG: &[CatalogEntry] = &[
    (
        "smoke",
        "CI gate: coarse/medium/tl2-sharded, rw, 1-2 threads, tiny structure",
        smoke,
    ),
    (
        "paper_fig3",
        "Figure 3 grid: coarse vs medium, r and w workloads, all ops on",
        paper_fig3,
    ),
    (
        "paper_fig4",
        "Figure 4 grid: coarse vs medium, r/rw/w, no long traversals",
        paper_fig4,
    ),
    (
        "paper_table3",
        "Table 3 grid: coarse locking vs the paper's ASTM, r/rw/w, no long traversals",
        paper_table3,
    ),
    (
        "paper_fig6",
        "Figure 6 grid: locks vs ASTM under the astm-friendly filter",
        paper_fig6,
    ),
    (
        "ultimate_baseline",
        "§6 baseline: sequential/coarse/medium/fine vs sharded TL2, r/rw/w, no long traversals",
        ultimate_baseline,
    ),
    (
        "scaling",
        "thread-scaling of every serious strategy, rw, no long traversals",
        scaling,
    ),
    (
        "write_storm",
        "4-thread write-dominated contention shootout across strategies",
        write_storm,
    ),
    (
        "mixed_custom",
        "update-ratio sweep (u10..u90) across lock granularities and the sharded STMs",
        mixed_custom,
    ),
    (
        "latency_open",
        "open-loop latency: medium vs sharded TL2 under fixed-rate arrivals, queue-wait/service split",
        latency_open,
    ),
    (
        "latency_bursty",
        "burst absorption: medium vs sharded TL2 under clumped arrivals, same average rate",
        latency_bursty,
    ),
    (
        "saturation",
        "offered-load sweep over the knee on medium locking, reject-on-full",
        saturation,
    ),
    (
        "latency_ramp",
        "open-loop rate ladder on medium locking: latency vs offered load up to the saturation knee",
        latency_ramp,
    ),
    (
        "sharded_scaling",
        "index-sharding axis: medium/fine/sharded-TL2 at 1/4/16 shards, 1-2 threads",
        sharded_scaling,
    ),
    (
        "combining_scaling",
        "delegation axis: flatcomb/rcl vs coarse/medium, rw, 1-4 threads",
        combining_scaling,
    ),
    (
        "net_loopback",
        "loopback wire zero point: medium vs sharded TL2 behind net-serve, client/network/server lanes",
        net_loopback,
    ),
    (
        "net_c10k",
        "connection scaling: thousands of idle connections plus a hot pipelined subset on the event-loop server",
        net_c10k,
    ),
    (
        "affinity_batching",
        "group-commit batching + shard-affine workers vs the plain shared queue, medium/sharded-TL2 at 8 shards",
        affinity_batching,
    ),
    (
        "slo_burst",
        "windowed SLO gate: rare bursts on medium vs sharded TL2 — burst windows breach a p99 the aggregate satisfies",
        slo_burst,
    ),
];

/// Builds a built-in spec by name.
pub fn build(name: &str) -> Option<ExperimentSpec> {
    let (name, description, builder) = CATALOG.iter().find(|(n, ..)| *n == name)?;
    Some(ExperimentSpec {
        name: name.to_string(),
        description: description.to_string(),
        ..builder()
    })
}

/// A spec's measurement protocol and grid; [`build`] stamps the name and
/// description from the [`CATALOG`] row.
fn spec(
    params: StructureParams,
    secs_per_cell: f64,
    warmup_secs: f64,
    repetitions: u32,
    cells: Vec<Cell>,
) -> ExperimentSpec {
    ExperimentSpec {
        name: String::new(),
        description: String::new(),
        params,
        secs_per_cell,
        warmup_secs,
        repetitions,
        seed: 1,
        cells,
    }
}

const TL2_SHARDED: BackendChoice = BackendChoice::Tl2 {
    granularity: Granularity::Sharded,
};
const NOREC_SHARDED: BackendChoice = BackendChoice::Norec {
    granularity: Granularity::Sharded,
};
const LATENCY_BACKENDS: [BackendChoice; 2] = [BackendChoice::Medium, TL2_SHARDED];

/// The paper's thread axis (Figures 3-6, Table 3).
const PAPER_THREADS: [usize; 4] = [1, 2, 4, 8];

fn smoke() -> ExperimentSpec {
    spec(
        StructureParams::tiny(),
        0.2,
        0.05,
        3,
        grid(
            &[BackendChoice::Coarse, BackendChoice::Medium, TL2_SHARDED],
            &[WorkloadType::ReadWrite],
            &[1, 2],
            true,
            true,
            false,
        ),
    )
}

/// A `small`-structure paper grid: 3 × 1 s repetitions per cell.
fn paper_grid(
    backends: &[BackendChoice],
    workloads: &[WorkloadType],
    long_traversals: bool,
    astm_friendly: bool,
) -> ExperimentSpec {
    spec(
        StructureParams::small(),
        1.0,
        0.1,
        3,
        grid(
            backends,
            workloads,
            &PAPER_THREADS,
            long_traversals,
            true,
            astm_friendly,
        ),
    )
}

fn paper_fig3() -> ExperimentSpec {
    paper_grid(
        &[BackendChoice::Coarse, BackendChoice::Medium],
        &[WorkloadType::ReadDominated, WorkloadType::WriteDominated],
        true,
        false,
    )
}

fn paper_fig4() -> ExperimentSpec {
    paper_grid(
        &[BackendChoice::Coarse, BackendChoice::Medium],
        &WorkloadType::all(),
        false,
        false,
    )
}

fn paper_table3() -> ExperimentSpec {
    paper_grid(
        &[BackendChoice::Coarse, BackendChoice::ASTM_PAPER],
        &WorkloadType::all(),
        false,
        false,
    )
}

fn paper_fig6() -> ExperimentSpec {
    paper_grid(
        &[
            BackendChoice::Coarse,
            BackendChoice::Medium,
            BackendChoice::ASTM_PAPER,
        ],
        &WorkloadType::all(),
        false,
        true,
    )
}

/// A `small`-structure extension grid: 0.5 s repetitions, long
/// traversals off.
fn short_ops_grid(
    repetitions: u32,
    backends: &[BackendChoice],
    workloads: &[WorkloadType],
    threads: &[usize],
) -> ExperimentSpec {
    spec(
        StructureParams::small(),
        0.5,
        0.1,
        repetitions,
        grid(backends, workloads, threads, false, true, false),
    )
}

fn ultimate_baseline() -> ExperimentSpec {
    // "Adding a fine-grained, highly-optimized locking strategy would
    // help define the 'ultimate' baseline test of STMs" (§6): every lock
    // granularity against the sharded TL2 remedy, Figure 4's switches.
    short_ops_grid(
        2,
        &[
            BackendChoice::Sequential,
            BackendChoice::Coarse,
            BackendChoice::Medium,
            BackendChoice::Fine,
            TL2_SHARDED,
        ],
        &WorkloadType::all(),
        &PAPER_THREADS,
    )
}

fn scaling() -> ExperimentSpec {
    short_ops_grid(
        2,
        &[
            BackendChoice::Coarse,
            BackendChoice::Medium,
            BackendChoice::Fine,
            TL2_SHARDED,
            NOREC_SHARDED,
        ],
        &[WorkloadType::ReadWrite],
        &PAPER_THREADS,
    )
}

fn write_storm() -> ExperimentSpec {
    short_ops_grid(
        3,
        &[
            BackendChoice::Coarse,
            BackendChoice::Medium,
            BackendChoice::Fine,
            BackendChoice::Astm {
                granularity: Granularity::Sharded,
                cm: ContentionManager::Polka,
                visible: false,
            },
            TL2_SHARDED,
            NOREC_SHARDED,
        ],
        &[WorkloadType::WriteDominated],
        &[4],
    )
}

fn mixed_custom() -> ExperimentSpec {
    // §6's "more workloads need to be explored": the paper's r/rw/w are
    // three points of this update-ratio curve.
    short_ops_grid(
        2,
        &[
            BackendChoice::Coarse,
            BackendChoice::Medium,
            BackendChoice::Fine,
            TL2_SHARDED,
            NOREC_SHARDED,
        ],
        &[10u8, 25, 50, 75, 90].map(|update_pct| WorkloadType::Custom { update_pct }),
        &[4],
    )
}

/// A `tiny`-structure, CI-sized service or net spec (2 × 0.2 s).
fn ci_sized(cells: Vec<Cell>) -> ExperimentSpec {
    spec(StructureParams::tiny(), 0.2, 0.05, 2, cells)
}

fn latency_open() -> ExperimentSpec {
    ci_sized(service_grid(
        &LATENCY_BACKENDS,
        WorkloadType::ReadWrite,
        2,
        // ~1/10 of the tiny-structure single-thread capacity: queue wait
        // reflects arrival jitter, not saturation.
        &[Schedule::Open { rate: 20_000.0 }],
        false,
        |schedule| ServicePlan::open_loop(schedule, 256, 4_000),
    ))
}

fn latency_bursty() -> ExperimentSpec {
    ci_sized(service_grid(
        &LATENCY_BACKENDS,
        WorkloadType::ReadWrite,
        2,
        // Same 20k average rate as latency_open, but clumped: each 10 ms
        // period opens with a 100-request burst.
        &[Schedule::Bursty {
            rate: 20_000.0,
            burst: 100,
            period_ms: 10,
        }],
        false,
        |schedule| ServicePlan::open_loop(schedule, 256, 4_000),
    ))
}

fn saturation() -> ExperimentSpec {
    ci_sized(service_grid(
        &[BackendChoice::Medium],
        WorkloadType::ReadWrite,
        2,
        // Below, near and beyond the tiny-structure capacity; the
        // queue-wait knee and the reject counts locate the cliff.
        &[50_000.0, 200_000.0, 800_000.0].map(|rate| Schedule::Open { rate }),
        false,
        |schedule| ServicePlan {
            admission: Admission::Reject,
            batch_max: 8,
            ..ServicePlan::open_loop(schedule, 128, 10_000)
        },
    ))
}

fn latency_ramp() -> ExperimentSpec {
    ci_sized(service_grid(
        &[BackendChoice::Medium],
        WorkloadType::ReadWrite,
        2,
        // A geometric ladder from ~1/40 to ~4/5 of the tiny-structure
        // capacity: the p99 queue-wait knee along this axis *is* the
        // saturation point. Each rung offers the same 100 ms of work
        // (requests = rate / 10), so the ladder measures rate, not
        // duration.
        &[5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0]
            .map(|rate| Schedule::Open { rate }),
        false,
        |schedule| {
            let Schedule::Open { rate } = schedule else {
                unreachable!("the ramp axis is open-loop by construction");
            };
            ServicePlan::open_loop(schedule, 256, (rate / 10.0).round() as u64)
        },
    ))
}

fn sharded_scaling() -> ExperimentSpec {
    // The backends whose lock/variable sets actually scale with the
    // shard axis: medium (per-shard atomic locks), fine (per-shard date
    // index), sharded TL2 (per-shard variables). Long traversals are off
    // so the short-operation mix — where narrowing applies — dominates.
    ci_sized(sharded_grid(
        &[BackendChoice::Medium, BackendChoice::Fine, TL2_SHARDED],
        WorkloadType::ReadWrite,
        &[1, 4, 16],
        &[1, 2],
    ))
}

fn combining_scaling() -> ExperimentSpec {
    // The delegation question from the paper's Figures 3–6: does moving
    // operations to the lock (flat combining, RCL) beat moving the lock
    // between threads (coarse/medium)? Long traversals off, so the
    // short-operation mix — where the convoy forms — dominates.
    ci_sized(grid(
        &[
            BackendChoice::Coarse,
            BackendChoice::Medium,
            BackendChoice::FlatCombining,
            BackendChoice::DedicatedServer,
        ],
        &[WorkloadType::ReadWrite],
        &[1, 2, 4],
        false,
        true,
        false,
    ))
}

fn net_loopback() -> ExperimentSpec {
    ci_sized(net_grid(
        &LATENCY_BACKENDS,
        WorkloadType::ReadWrite,
        2,
        // The latency_open rate, now crossing a loopback socket over two
        // connections: the delta against latency_open's lanes *is* the
        // wire's price (see EXPERIMENTS.md).
        &[Schedule::Open { rate: 20_000.0 }],
        false,
        |schedule| NetPlan::hot(schedule, 256, 2, 4_000),
    ))
}

fn net_c10k() -> ExperimentSpec {
    ci_sized(net_grid(
        &[BackendChoice::Medium],
        WorkloadType::ReadWrite,
        2,
        // The net_loopback rate concentrated on a hot subset of 8
        // pipelined connections, while 5000 idle connections sit on the
        // same event loop: the cell's lanes must match net_loopback's —
        // idle readiness is not allowed to cost.
        &[Schedule::Open { rate: 20_000.0 }],
        false,
        |schedule| NetPlan {
            inflight: 8,
            idle_conns: 5_000,
            ..NetPlan::hot(schedule, 256, 8, 4_000)
        },
    ))
}

fn affinity_batching() -> ExperimentSpec {
    // The before/after pair for the hot-path engine work: each backend
    // runs the same open-loop stream through the plain shared queue
    // (batch 1, no affinity) and through group-commit batching +
    // shard-affine workers. 8 index shards so the shard router has real
    // spread; long traversals off so the short, narrowable operations —
    // the ones batching and affinity help — dominate.
    let mut cells = Vec::new();
    for backend in LATENCY_BACKENDS {
        for (batch_max, affinity) in [(1, Affinity::None), (8, Affinity::Shard)] {
            let mut cell = Cell::new(backend, WorkloadType::ReadWrite, 2);
            cell.shards = Some(8);
            cell.long_traversals = false;
            cell.service = Some(ServicePlan {
                batch_max,
                affinity,
                ..ServicePlan::open_loop(Schedule::Open { rate: 20_000.0 }, 256, 4_000)
            });
            cells.push(cell);
        }
    }
    ci_sized(cells)
}

fn slo_burst() -> ExperimentSpec {
    // The flight recorder's reason to exist: a stream that is healthy on
    // average but stalls during rare bursts. Each 1000 ms period opens
    // with 150 back-to-back requests — 0.75% of the run's traffic, so
    // the *aggregate* p99 barely moves, but the 50 ms windows containing
    // a burst see the whole convoy's queueing delay. The per-cell SLO
    // bounds the per-window p99: burst windows are expected to breach it
    // (that is what proves the gate can see them — see EXPERIMENTS.md),
    // and `max_violation_windows` tolerates exactly those; a regression
    // that slows the steady windows too blows past the allowance and
    // fails `--compare`.
    let mut cells = service_grid(
        &LATENCY_BACKENDS,
        WorkloadType::ReadWrite,
        2,
        &[Schedule::Bursty {
            rate: 20_000.0,
            burst: 150,
            period_ms: 1_000,
        }],
        false,
        |schedule| ServicePlan::open_loop(schedule, 512, 40_000),
    );
    // 1500 us sits in the gap of the observed bimodal window p99s:
    // steady windows land in the 127–1023 us histogram buckets, burst
    // windows in 2047–4095 us, and the aggregate p99 stays ≤ 1023 us —
    // so the objective is satisfied in aggregate yet breached by
    // individual burst windows. The allowance (16 of ~40 windows) is 2×
    // the breach count observed on a 1-vCPU runner, leaving headroom
    // for noise.
    for cell in &mut cells {
        cell.window_ms = Some(50);
        cell.slo = Some(Slo {
            p99_us: 1_500,
            max_violation_windows: 16,
        });
    }
    spec(StructureParams::tiny(), 2.0, 0.05, 1, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_entry_builds() {
        for (name, ..) in CATALOG {
            let spec = build(name).unwrap_or_else(|| panic!("{name} must build"));
            assert_eq!(spec.name, *name);
            assert!(!spec.description.is_empty());
            assert!(!spec.cells.is_empty(), "{name} has cells");
            assert!(spec.repetitions >= 1);
            assert!(spec.secs_per_cell > 0.0);
            // Cell keys are unique within a spec (compare relies on it).
            let mut keys: Vec<String> = spec.cells.iter().map(|c| c.key()).collect();
            let before = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), before, "{name} has duplicate cell keys");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(build("nope").is_none());
    }

    #[test]
    fn latency_specs_are_service_cells() {
        for name in [
            "latency_open",
            "latency_bursty",
            "saturation",
            "latency_ramp",
        ] {
            let spec = build(name).unwrap();
            assert!(
                spec.cells.iter().all(|c| c.service.is_some()),
                "{name}: every cell must run through the service layer"
            );
            let offered: u64 = spec
                .cells
                .iter()
                .map(|c| c.service.as_ref().unwrap().requests * u64::from(spec.repetitions))
                .sum();
            assert!(offered <= 100_000, "{name} must stay CI-sized: {offered}");
        }
        // The saturation sweep rejects on overflow; the latency pair
        // blocks (no lost requests below the knee).
        let sat = build("saturation").unwrap();
        assert!(sat
            .cells
            .iter()
            .all(|c| c.service.as_ref().unwrap().admission == Admission::Reject));
        let open = build("latency_open").unwrap();
        assert!(open
            .cells
            .iter()
            .all(|c| c.service.as_ref().unwrap().admission == Admission::Block));
        assert_eq!(open.cells[0].key(), "medium/rw/2t/no-lt/open20000/q256");
    }

    #[test]
    fn net_loopback_is_a_net_spec_and_stays_ci_sized() {
        let spec = build("net_loopback").unwrap();
        assert_eq!(spec.cells.len(), 2, "medium + tl2-sharded");
        assert!(
            spec.cells
                .iter()
                .all(|c| c.net.is_some() && c.service.is_none()),
            "every cell crosses the wire"
        );
        let offered: u64 = spec
            .cells
            .iter()
            .map(|c| c.net.as_ref().unwrap().requests * u64::from(spec.repetitions))
            .sum();
        assert!(offered <= 100_000, "must stay CI-sized: {offered}");
        assert_eq!(
            spec.cells[0].key(),
            "medium/rw/2t/no-lt/open20000/q256/net2c"
        );
    }

    #[test]
    fn latency_ramp_climbs_a_geometric_rate_ladder() {
        let spec = build("latency_ramp").unwrap();
        assert_eq!(spec.cells.len(), 6, "one backend × six rungs");
        let rates: Vec<f64> = spec
            .cells
            .iter()
            .map(|c| match c.service.as_ref().unwrap().schedule {
                Schedule::Open { rate } => rate,
                other => panic!("ramp rung is not open-loop: {other:?}"),
            })
            .collect();
        for pair in rates.windows(2) {
            assert_eq!(pair[1], pair[0] * 2.0, "the ladder is geometric");
        }
        // Every rung offers the same wall-clock window of work.
        for cell in &spec.cells {
            let plan = cell.service.as_ref().unwrap();
            let Schedule::Open { rate } = plan.schedule else {
                unreachable!()
            };
            assert_eq!(plan.requests as f64, rate / 10.0);
        }
        assert_eq!(spec.cells[0].key(), "medium/rw/2t/no-lt/open5000/q256");
    }

    #[test]
    fn net_c10k_holds_an_idle_herd_next_to_a_hot_pipelined_subset() {
        let spec = build("net_c10k").unwrap();
        assert_eq!(spec.cells.len(), 1);
        let plan = spec.cells[0].net.as_ref().unwrap();
        assert!(plan.idle_conns >= 5_000, "the c10k axis needs the herd");
        assert_eq!(plan.inflight, 8, "the hot subset pipelines");
        assert_eq!(
            spec.cells[0].key(),
            "medium/rw/2t/no-lt/open20000/q256/net8c/in8/idle5000"
        );
        let offered = plan.requests * u64::from(spec.repetitions);
        assert!(offered <= 100_000, "must stay CI-sized: {offered}");
    }

    #[test]
    fn sharded_scaling_spans_the_shard_axis_and_stays_ci_sized() {
        let spec = build("sharded_scaling").unwrap();
        assert_eq!(spec.cells.len(), 18, "3 backends × 3 shard counts × 2t");
        assert!(spec.cells.iter().all(|c| c.shards.is_some()));
        let mut shard_counts: Vec<usize> = spec.cells.iter().filter_map(|c| c.shards).collect();
        shard_counts.sort_unstable();
        shard_counts.dedup();
        assert_eq!(shard_counts, vec![1, 4, 16]);
        assert_eq!(spec.cells[0].key(), "medium/rw/1t/s1/no-lt");
        assert!(spec.measured_secs() < 10.0, "must stay CI-sized");
    }

    #[test]
    fn combining_scaling_sweeps_delegation_against_locks_and_stays_ci_sized() {
        let spec = build("combining_scaling").unwrap();
        assert_eq!(spec.cells.len(), 12, "4 backends × 3 thread counts");
        let mut backends: Vec<&str> = spec.cells.iter().map(|c| c.backend.key()).collect();
        backends.sort_unstable();
        backends.dedup();
        assert_eq!(backends, vec!["coarse", "flatcomb", "medium", "rcl"]);
        assert_eq!(spec.cells[0].key(), "coarse/rw/1t/no-lt");
        assert!(spec.measured_secs() < 10.0, "must stay CI-sized");
    }

    #[test]
    fn slo_burst_declares_a_windowed_objective_on_every_cell() {
        let spec = build("slo_burst").unwrap();
        assert_eq!(spec.cells.len(), 2, "medium + tl2-sharded");
        let mut offered = 0;
        for cell in &spec.cells {
            let plan = cell.service.as_ref().expect("service cell");
            assert!(
                matches!(plan.schedule, Schedule::Bursty { .. }),
                "the spec is about bursts"
            );
            assert_eq!(cell.window_ms, Some(50), "windows finer than the period");
            let slo = cell.slo.expect("windowed SLO declared");
            assert!(slo.p99_us > 0);
            assert!(
                slo.max_violation_windows > 0,
                "burst windows are expected to breach; the allowance covers them"
            );
            // Observation axes stay out of the cell identity, so the
            // baseline comparison matches windowed runs against any.
            let mut unobserved = cell.clone();
            unobserved.window_ms = None;
            unobserved.slo = None;
            assert_eq!(cell.key(), unobserved.key());
            offered += plan.requests * u64::from(spec.repetitions);
        }
        assert_eq!(
            spec.cells[0].key(),
            "medium/rw/2t/no-lt/bursty20000x150@1000/q512"
        );
        assert!(offered <= 100_000, "must stay CI-sized: {offered}");
    }

    #[test]
    fn smoke_is_ci_sized() {
        let spec = build("smoke").unwrap();
        assert_eq!(spec.cells.len(), 6);
        assert!(spec.measured_secs() < 10.0, "smoke must stay CI-sized");
    }
}
