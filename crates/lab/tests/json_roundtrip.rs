//! Round-trip guarantee of the offline JSON path: a real `Report`
//! emitted by `Report::to_json_value()` (core's writer) must parse back
//! through the lab's reader with throughput, operation counts and STM
//! abort statistics intact.

use stmbench7_backend::{AnyBackend, BackendChoice};
use stmbench7_core::{run_benchmark, BenchConfig, JsonValue, Report, WorkloadType};
use stmbench7_data::{StructureParams, Workspace};
use stmbench7_lab::json::parse;

fn real_report(choice: BackendChoice) -> Report {
    let params = StructureParams::tiny();
    let ws = Workspace::build(params.clone(), 7);
    let backend = AnyBackend::build(choice, ws);
    let cfg = BenchConfig::deterministic(WorkloadType::ReadWrite, 300, 42);
    run_benchmark(&backend, &params, &cfg)
}

fn roundtrip(report: &Report) -> JsonValue {
    let rendered = report.to_json_value().render();
    parse(&rendered).expect("report JSON must parse back")
}

#[test]
fn lock_report_round_trips() {
    let report = real_report(BackendChoice::Coarse);
    let doc = roundtrip(&report);
    assert_eq!(
        doc.get("backend").and_then(JsonValue::as_str),
        Some("coarse")
    );
    assert_eq!(
        doc.get("completed").and_then(JsonValue::as_u64),
        Some(report.total_completed())
    );
    assert_eq!(
        doc.get("failed").and_then(JsonValue::as_u64),
        Some(report.total_failed())
    );
    let throughput = doc.get("throughput").and_then(JsonValue::as_f64).unwrap();
    assert!((throughput - report.throughput()).abs() < 1e-9 * report.throughput().max(1.0));
    // Locks have no STM statistics.
    assert_eq!(doc.get("stm"), Some(&JsonValue::Null));
    // Per-op rows cover exactly the operations that started.
    let per_op = doc.get("per_op").and_then(JsonValue::as_array).unwrap();
    let started = report.per_op.iter().filter(|o| o.started() > 0).count();
    assert_eq!(per_op.len(), started);
    let completed_sum: u64 = per_op
        .iter()
        .map(|o| o.get("completed").and_then(JsonValue::as_u64).unwrap())
        .sum();
    assert_eq!(completed_sum, report.total_completed());
}

#[test]
fn stm_report_round_trips_abort_counts() {
    let report = real_report(BackendChoice::Tl2 {
        granularity: stmbench7_backend::Granularity::Monolithic,
    });
    let doc = roundtrip(&report);
    let stm = report.stm.as_ref().expect("tl2 reports STM statistics");
    let stm_doc = doc.get("stm").expect("stm object present");
    assert_eq!(
        stm_doc.get("commits").and_then(JsonValue::as_u64),
        Some(stm.commits)
    );
    assert_eq!(
        stm_doc.get("aborts").and_then(JsonValue::as_u64),
        Some(stm.aborts)
    );
    assert_eq!(
        stm_doc.get("validation_steps").and_then(JsonValue::as_u64),
        Some(stm.validation_steps)
    );
    let ratio = stm_doc
        .get("abort_ratio")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!((ratio - stm.abort_ratio()).abs() < 1e-12);
}

#[test]
fn service_report_round_trips_the_latency_split() {
    use stmbench7_service::{serve, Schedule, ServeConfig};

    let params = StructureParams::tiny();
    let ws = Workspace::build(params.clone(), 7);
    let backend = AnyBackend::build(BackendChoice::Coarse, ws);
    let cfg = ServeConfig::new(
        Schedule::Open { rate: 200_000.0 },
        WorkloadType::ReadWrite,
        42,
    );
    let requests = cfg.generate(300);
    let report = serve(&backend, &params, &cfg, &requests).report;

    let doc = roundtrip(&report);
    let svc_doc = doc.get("service").expect("service object present");
    let svc = report.service.as_ref().unwrap();
    assert_eq!(
        svc_doc.get("schedule").and_then(JsonValue::as_str),
        Some("open200000")
    );
    assert_eq!(
        svc_doc.get("offered").and_then(JsonValue::as_u64),
        Some(svc.offered)
    );
    assert_eq!(
        svc_doc.get("rejected").and_then(JsonValue::as_u64),
        Some(svc.rejected)
    );
    for (key, hist) in [
        ("queue_wait_us", &svc.queue_wait),
        ("service_time_us", &svc.service_time),
        ("e2e_us", &svc.e2e),
    ] {
        let lat = svc_doc.get(key).unwrap_or_else(|| panic!("missing {key}"));
        assert_eq!(
            lat.get("p95").and_then(JsonValue::as_u64),
            hist.percentile_us(95.0),
            "{key}.p95"
        );
        assert_eq!(
            lat.get("samples").and_then(JsonValue::as_u64),
            Some(hist.samples()),
            "{key}.samples"
        );
    }
}

#[test]
fn rendering_is_stable_through_a_parse_cycle() {
    let report = real_report(BackendChoice::Medium);
    let first = report.to_json_value().render();
    let second = parse(&first).unwrap().render();
    assert_eq!(
        first, second,
        "render∘parse must be the identity on rendered docs"
    );
}
