//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds — the same tables `BENCHMARK.json`
//! lists (a unit test holds the two to each other).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: a fixed configuration plus the reason it exists.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which
/// the metric may worsen before it counts as a regression; per-layer
/// metrics carry none.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "closed_rw_medium",
        why: "small structure, rw mix, medium locks, 2 threads: half the ops are sub-us misses, the rest tens of us: lock realisation and dispatch weigh, the threads contend; the lock-side comparator for STM claims",
    },
    Workload {
        name: "closed_rw_tl2",
        why: "same stream and sizes on tl2-sharded: STM read/write-set bookkeeping, validation and aborts dominate; an STM gain must show here and leave closed_rw_medium flat",
    },
    Workload {
        name: "closed_r_traversal",
        why: "standard structure (100k atomic parts), r mix with long traversals, 1 thread: operation bodies walking a working set beyond L2 are >90% of time; sync changes must not show",
    },
    Workload {
        name: "net_open_rw",
        why: "loopback serve_net driven open-loop at 20000 req/s (a fraction of capacity), latency from due time: wire decode/flush, poll wake-ups and the queue hand-off own the number",
    },
    Workload {
        name: "net_peak_w",
        why: "loopback serve_net driven closed, 2 connections x 256 in flight, w mix, 8 shards, batch 8, shard affinity: group commit, routing and stealing work where net_open_rw bypasses them",
    },
];

/// Every end-to-end metric is reported on every workload.
pub fn end_to_end() -> Vec<Metric> {
    let m = |name: &str, unit, better, bound| Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        m("ops_per_s", "op/s", Better::Higher, 0.25),
        m("p50_us", "us", Better::Lower, 0.25),
        m("tail_us", "us", Better::Lower, 0.25),
        m("within_limit_share", "ratio", Better::Higher, 0.05),
        m("setup_s", "s", Better::Lower, 0.25),
        m("peak_rss_mb", "MiB", Better::Lower, 0.20),
    ]
}

/// The thirteen `-g` strategies of the product's catalog.
pub const STRATEGIES: [&str; 13] = [
    "sequential",
    "coarse",
    "medium",
    "fine",
    "flatcomb",
    "rcl",
    "astm",
    "astm-sharded",
    "astm-visible",
    "tl2",
    "tl2-sharded",
    "norec",
    "norec-sharded",
];

/// Strategies whose synchronization tax is measured.
pub const TAXED: [&str; 8] = [
    "coarse",
    "medium",
    "fine",
    "flatcomb",
    "rcl",
    "tl2-sharded",
    "norec-sharded",
    "astm-sharded",
];

pub const STM_RUNTIMES: [&str; 3] = ["tl2", "norec", "astm"];

/// Operation categories, in `Category::all()` order.
pub const CATEGORIES: [&str; 4] = [
    "long_traversal",
    "short_traversal",
    "short_operation",
    "structure_mod",
];

/// The span kinds of the traced replay whose self-time shares are
/// reported per workload (zero where the workload never enters them).
pub const SPAN_SHARES: [&str; 7] = [
    "body",
    "backend_sync",
    "stm_sync",
    "client_late",
    "net_lane",
    "server_queue",
    "server_service",
];

/// Every per-layer metric, prefix = crate. All of them are reported by
/// every traced run; the `trace.*` rows and the workload-replay rows
/// (`core.benign_fail_share`, `core.residual_share`, `net.*_p50_us`, …)
/// describe the workload being run, the rest are workload-independent.
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better| {
        out.push(Metric {
            name,
            unit,
            better,
            bound: None,
        })
    };
    let lo = Better::Lower;
    let hi = Better::Higher;

    for n in [
        "data.build_ms.small",
        "data.build_ms.standard",
        "data.clone_ms.standard",
        "data.validate_ms.standard",
    ] {
        add(n.into(), "ms", lo);
    }
    for n in [
        "data.index_get_ns",
        "data.index_get_ns.s8",
        "data.index_update_ns",
        "data.index_range_ns_per_entry",
    ] {
        add(n.into(), "ns", lo);
    }

    for cat in CATEGORIES {
        add(format!("core.op_ns.{cat}.standard"), "ns", lo);
    }
    for cat in &CATEGORIES[1..] {
        add(format!("core.op_ns.{cat}.small"), "ns", lo);
    }
    add("core.spec_ns".into(), "ns", lo);
    add("core.engine_overhead_ns".into(), "ns", lo);
    add("core.benign_fail_share".into(), "ratio", lo);
    add("core.residual_share".into(), "ratio", lo);

    for s in STRATEGIES {
        add(format!("backend.execute_empty_ns.{s}"), "ns", lo);
    }
    for s in TAXED {
        add(format!("backend.sync_tax_ns.{s}"), "ns", lo);
    }
    add("backend.lock_wait_share".into(), "ratio", lo);
    add("backend.lock_contended_share".into(), "ratio", lo);
    add("backend.queue_handoff_ns".into(), "ns", lo);
    add("backend.queue_drain_ns_per_item".into(), "ns", lo);

    for rt in STM_RUNTIMES {
        for m in ["empty_tx_ns", "read_ns", "ro_read_ns", "write_ns"] {
            add(format!("stm.{m}.{rt}"), "ns", lo);
        }
    }
    add("stm.abort_share".into(), "ratio", lo);
    add("stm.reads_per_commit".into(), "count", lo);
    add("stm.validation_steps_per_commit".into(), "count", lo);

    add("service.schedule_gen_ns".into(), "ns", lo);
    add("service.dispatch_tax_ns".into(), "ns", lo);
    add("service.queue_wait_p50_us".into(), "us", lo);
    add("service.service_time_p50_us".into(), "us", lo);
    add("service.batch_mean".into(), "count", hi);
    add("service.write_batch_share".into(), "ratio", hi);
    add("service.steals_per_kreq".into(), "count", lo);
    add("service.worker_busy_share".into(), "ratio", hi);

    add("net.encode_ns".into(), "ns", lo);
    add("net.decode_ns".into(), "ns", lo);
    for n in [
        "net.rtt_floor_us",
        "net.client_late_p99_us",
        "net.lane_p50_us",
        "net.lane_p99_us",
        "net.server_queue_p50_us",
        "net.server_service_p50_us",
    ] {
        add(n.into(), "us", lo);
    }
    add("net.residual_share".into(), "ratio", lo);
    add("net.cpu_us_per_req".into(), "us", lo);
    add("net.driver_req_per_s".into(), "req/s", hi);

    add("poll.wake_us".into(), "us", lo);
    add("poll.poll_ready_ns".into(), "ns", lo);

    add("obs.record_off_ns".into(), "ns", lo);
    add("obs.record_on_ns".into(), "ns", lo);
    add("obs.trace_ratio".into(), "ratio", hi);
    add("obs.window_ratio".into(), "ratio", hi);

    add("lab.json_parse_ms".into(), "ms", lo);
    add("lab.json_write_ms".into(), "ms", lo);

    for s in SPAN_SHARES {
        add(format!("trace.self_share.{s}"), "ratio", lo);
    }
    add("benchmark.span_overhead_ratio".into(), "ratio", hi);
    add("benchmark.error_share".into(), "ratio", lo);
    out
}

/// A name starts with a letter or digit and holds at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit holds 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the vocabulary against the limits `BENCHMARK.json` is held
/// to: charsets, list sizes, unique names, bounds, a `setup_s` row.
pub fn check_vocabulary(
    workloads: &[Workload],
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, need 2..=8", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, need 1..=16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, need 1..=128",
            per_layer.len()
        ));
    }
    if let Some(w) = workloads
        .iter()
        .find(|w| w.why.len() > 200 || w.why.contains('\n'))
    {
        return Err(format!("{}: `why` is not one line of at most 200", w.name));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(end_to_end.iter().chain(per_layer).map(|m| m.name.as_str()));
    for name in names {
        if !valid_name(name) {
            return Err(format!("bad name '{name}'"));
        }
        if !seen.insert(name) {
            return Err(format!("name '{name}' used twice"));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_unit(m.unit) {
            return Err(format!("bad unit '{}' on {}", m.unit, m.name));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => return Err(format!("{}: bound {other:?} outside (0, 0.25]", m.name)),
        }
    }
    if let Some(m) = per_layer.iter().find(|m| m.bound.is_some()) {
        return Err(format!("per-layer metric {} carries a bound", m.name));
    }
    let setup = end_to_end.iter().find(|m| m.name == "setup_s");
    if !matches!(setup, Some(m) if m.unit == "s" && m.better == Better::Lower) {
        return Err("setup_s (unit s, lower is better) is required".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmbench7_core::JsonValue;

    #[test]
    fn names_and_units_follow_the_charset() {
        for ok in [
            "p99_us",
            "closed_rw_tl2",
            "backend.sync_tax_ns.tl2-sharded",
            "7z",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "_x", ".x", "p99 us", "p99/us", "µs", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "op/s", "1/s", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "op per s", "seventeen_letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn names() -> Vec<Workload> {
        WORKLOADS.to_vec()
    }

    #[test]
    fn the_vocabulary_is_within_its_limits() {
        check_vocabulary(&names(), &end_to_end(), &per_layer()).unwrap();
    }

    #[test]
    fn the_validator_refuses_what_the_contract_refuses() {
        let (e2e, layers) = (end_to_end(), per_layer());
        let many = |n: usize| -> Vec<Metric> {
            (0..n)
                .map(|i| Metric {
                    name: format!("m{i}"),
                    ..e2e[0].clone()
                })
                .collect()
        };
        let mut seventeen = many(16);
        seventeen.push(e2e[4].clone());
        assert!(check_vocabulary(&names(), &seventeen, &layers).is_err());
        let unbounded: Vec<Metric> = many(129)
            .into_iter()
            .map(|m| Metric { bound: None, ..m })
            .collect();
        assert!(check_vocabulary(&names(), &e2e, &unbounded).is_err());
        assert!(check_vocabulary(&names()[..1], &e2e, &layers).is_err());
        let mut dup = names();
        dup[1].name = dup[0].name;
        assert!(check_vocabulary(&dup, &e2e, &layers).is_err());
        let mut wide = e2e.clone();
        wide[0].bound = Some(0.3);
        assert!(check_vocabulary(&names(), &wide, &layers).is_err());
        let no_setup: Vec<Metric> = e2e
            .iter()
            .filter(|m| m.name != "setup_s")
            .cloned()
            .collect();
        assert!(check_vocabulary(&names(), &no_setup, &layers).is_err());
        let mut two_lines = names();
        two_lines[0].why = "one reason\nand another";
        assert!(check_vocabulary(&two_lines, &e2e, &layers).is_err());
        let mut clash = layers.clone();
        clash[0].name = "ops_per_s".into();
        assert!(check_vocabulary(&names(), &e2e, &clash).is_err());
    }

    /// `BENCHMARK.json` and the harness must name the same workloads
    /// and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let doc = stmbench7_lab::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let rows = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap().to_vec();
        let text = |row: &JsonValue, key: &str| row.get(key).unwrap().as_str().unwrap().to_string();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let metric = |row: &JsonValue| {
            (
                text(row, "name"),
                text(row, "unit"),
                text(row, "better"),
                row.get("bound").and_then(JsonValue::as_f64),
            )
        };
        let flat = |m: &Metric| {
            (
                m.name.clone(),
                m.unit.to_string(),
                m.better.key().to_string(),
                m.bound,
            )
        };
        let listed: Vec<_> = rows("end_to_end").iter().map(metric).collect();
        assert_eq!(listed, end_to_end().iter().map(flat).collect::<Vec<_>>());
        let listed: Vec<_> = rows("per_layer").iter().map(metric).collect();
        assert_eq!(listed, per_layer().iter().map(flat).collect::<Vec<_>>());

        let paths = rows("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
