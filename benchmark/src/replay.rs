//! The traced replay: one rep of a workload at one thread / one
//! worker with the span recorder on, and the same rep with it off (the
//! ratio of the two is the recorder's overhead).
//!
//! Wire path: `request → client_late | net_lane | server_queue |
//! server_service`, from the client's own clocks and the two times
//! every response frame carries. Closed path: `op → sync | body`; the
//! split cannot be seen from outside one `execute`, so the identical
//! 1-thread stream runs twice — bare bodies on a plain workspace, then
//! through the backend — and `sync` is what the backend adds.

use std::time::{Duration, Instant};

use stmbench7_backend::{AnyBackend, BackendChoice};
use stmbench7_core::OpKind;
use stmbench7_data::Workspace;

use crate::closed::{engine_stream, via_backend, via_direct, ClosedWorkload};
use crate::net::{with_server, Client, Drive, NetWorkload, Pacing};
use crate::spec::SPAN_SHARES;
use crate::trace::Spans;

/// What a traced replay yields.
pub struct Replay {
    pub spans: Spans,
    /// Self-time share per [`SPAN_SHARES`] entry, of the root spans'
    /// total duration.
    pub shares: Vec<f64>,
    /// Traced throughput ÷ untraced throughput.
    pub overhead_ratio: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Self-time shares from the summed table: each span kind's self time
/// over the total duration of the `root` spans.
fn shares(spans: &Spans, root: &str) -> Vec<f64> {
    let table = spans.table();
    let total = table.get(root).map_or(0, |r| r.total_ns).max(1) as f64;
    SPAN_SHARES
        .iter()
        .map(|name| table.get(name).map_or(0.0, |r| r.self_ns as f64 / total))
        .collect()
}

fn is_stm(strategy: &str) -> bool {
    matches!(
        BackendChoice::parse(strategy),
        Some(BackendChoice::Astm { .. } | BackendChoice::Tl2 { .. } | BackendChoice::Norec { .. })
    )
}

/// Closed path, `ops` operations of thread 0's stream for `seed`.
pub fn closed(w: &ClosedWorkload, seed: u64, ops: u64) -> Replay {
    let built = Workspace::build(w.params.clone(), seed);

    // Bare bodies, timed per operation kind.
    let mut plain = built.clone();
    let mut body_ns = [0u64; 45];
    let mut direct = via_direct(&mut plain);
    engine_stream(w, seed, ops, |op, spec, ctx| {
        let t0 = Instant::now();
        let out = direct(op, spec, ctx);
        body_ns[op.index()] += t0.elapsed().as_nanos() as u64;
        out
    });
    drop(direct);

    // Through the backend, each operation timed.
    let backend = AnyBackend::build(w.choice(), built.clone());
    let mut timed: Vec<(OpKind, u64, u64)> = Vec::with_capacity(ops as usize);
    let mut exec = via_backend(&backend);
    let epoch = Instant::now();
    engine_stream(w, seed, ops, |op, spec, ctx| {
        let start = epoch.elapsed().as_nanos() as u64;
        let out = exec(op, spec, ctx);
        timed.push((op, start, epoch.elapsed().as_nanos() as u64));
        out
    });
    let traced_s = epoch.elapsed().as_secs_f64();
    drop(exec);

    // One bare body set against one backend execution is mostly noise,
    // and a span cannot be negative; clamping per operation would
    // count the noise as synchronization. So each operation's span is
    // split in the proportion its *kind* shows over the whole replay.
    let mut op_ns = [0u64; 45];
    for (op, start, end) in &timed {
        op_ns[op.index()] += end - start;
    }
    let body_share = |op: OpKind| {
        let i = op.index();
        (body_ns[i] as f64 / op_ns[i].max(1) as f64).min(1.0)
    };
    let sync_name = if is_stm(w.strategy) {
        "stm_sync"
    } else {
        "backend_sync"
    };
    let mut spans = Spans::on();
    for (i, (op, start, end)) in timed.iter().enumerate() {
        let body_start = end - ((end - start) as f64 * body_share(*op)) as u64;
        spans.push(i as u64, "op", None, *start, *end);
        spans.push(i as u64, sync_name, Some("op"), *start, body_start);
        spans.push(i as u64, "body", Some("op"), body_start, *end);
    }

    // The same again with no clock reads and no spans.
    let backend = AnyBackend::build(w.choice(), built);
    let t0 = Instant::now();
    engine_stream(w, seed, ops, via_backend(&backend));
    let untraced_s = t0.elapsed().as_secs_f64();

    Replay {
        shares: shares(&spans, "op"),
        spans,
        overhead_ratio: untraced_s / traced_s,
        attempted: ops,
        failed: 0,
    }
}

/// One window of the workload's stream against a fresh one-worker
/// server; returns the drive and how many requests were attempted.
pub fn net_drive(
    w: &NetWorkload,
    seed: u64,
    window: Duration,
    spans: &mut Spans,
) -> std::io::Result<(Drive, u64)> {
    let requests = w.stream(seed, window);
    let cfg = w.serve_config(1, seed);
    let deadline = matches!(w.pacing, Pacing::Closed { .. }).then_some(window);
    let backend = w.backend(seed);
    let drive = with_server(&backend, &w.params, &cfg, |addr| {
        Client::connect(addr, w.connections)?.drive(&requests, w.pacing, deadline, false, spans)
    })?;
    let attempted = match w.pacing {
        Pacing::Open { .. } => requests.len() as u64,
        Pacing::Closed { .. } => drive.sent(),
    };
    Ok((drive, attempted))
}

/// Wire path: the window driven twice, spans on and spans off.
pub fn net(w: &NetWorkload, seed: u64, window: Duration) -> std::io::Result<Replay> {
    let throughput =
        |d: &Drive| d.answered() as f64 / ((d.last_recv_ns - d.first_send_ns).max(1) as f64 / 1e9);
    let mut spans = Spans::on();
    let (traced, attempted) = net_drive(w, seed, window, &mut spans)?;
    let (untraced, _) = net_drive(w, seed, window, &mut Spans::off())?;
    Ok(Replay {
        shares: shares(&spans, "request"),
        spans,
        overhead_ratio: throughput(&traced) / throughput(&untraced),
        attempted,
        failed: attempted - traced.answered() + traced.stray_responses,
    })
}
