//! The remote load driver: replays a deterministic arrival schedule over
//! N persistent TCP connections and decomposes what each request
//! experienced into *client queue wait* (scheduled arrival → send),
//! *network* (round trip minus the server-reported time), and
//! *server-reported service time* — the three lanes the in-process
//! service layer cannot distinguish because it has no wire.
//!
//! The stream is the same one `stmbench7 serve` would replay in-process:
//! identical `(schedule, workload, seed)` triples materialize identical
//! requests, request `i` rides connection `i % N`, and each request's
//! `rng_seed` pins its random choices server-side — which is what the
//! remote-vs-local oracle test leans on.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use stmbench7_core::{
    merge_ops, op_ledger, Histogram, OpFilter, OpKind, OpReport, Report, ServiceStats, WorkloadMix,
    WorkloadType,
};
use stmbench7_service::{Request, Schedule};

use crate::wire::{self, Frame, NetRequest, WireOutcome};

/// Full configuration of a remote drive.
#[derive(Clone, Debug)]
pub struct DriveConfig {
    pub schedule: Schedule,
    /// Persistent connections the stream is striped over (request `i`
    /// rides connection `i % connections`).
    pub connections: usize,
    /// Pipelining window: at most this many requests in flight per
    /// connection (the writer waits for responses past the cap, an
    /// admission control of the client's own). `0` = unbounded — issue
    /// purely by schedule, however far responses lag.
    pub inflight: usize,
    pub workload: WorkloadType,
    pub long_traversals: bool,
    pub structure_mods: bool,
    pub filter: OpFilter,
    pub seed: u64,
}

impl DriveConfig {
    /// A deterministic single-connection drive, all operations on.
    pub fn new(schedule: Schedule, workload: WorkloadType, seed: u64) -> Self {
        DriveConfig {
            schedule,
            connections: 1,
            inflight: 0,
            workload,
            long_traversals: true,
            structure_mods: true,
            filter: OpFilter::none(),
            seed,
        }
    }

    /// The operation mix requests are drawn from — the same pool the
    /// in-process service and the closed-loop engine share.
    pub fn mix(&self) -> WorkloadMix {
        WorkloadMix::compute(
            self.workload,
            self.long_traversals,
            self.structure_mods,
            &self.filter,
        )
    }

    /// The first `n` requests of this configuration's schedule —
    /// byte-identical to the in-process service's stream for the same
    /// `(schedule, workload, seed)`.
    pub fn generate(&self, n: u64) -> Vec<Request> {
        self.schedule.generate(&self.mix(), self.seed, n)
    }

    /// Every request arriving before `horizon` (`None` for closed
    /// schedules, whose request count is not duration-bounded).
    pub fn generate_for(&self, horizon: Duration) -> Option<Vec<Request>> {
        self.schedule.generate_for(&self.mix(), self.seed, horizon)
    }
}

/// A completed remote drive: the client-side [`Report`] (per-operation
/// round-trip latencies plus the three-lane [`ServiceStats`] with the
/// network histogram populated) and the per-request outcomes as they
/// crossed the wire, indexed by request id (`None` = no response, which
/// [`drive`] treats as an error).
pub struct DriveResult {
    pub report: Report,
    pub outcomes: Vec<Option<WireOutcome>>,
}

/// Client-side ledger of one connection: round-trip rows per operation,
/// the three-lane latency split (its `rejected` and `reconnects`
/// counters included), and the outcomes as they crossed the wire.
struct ConnStats {
    ops: Vec<OpReport>,
    svc: ServiceStats,
    outcomes: Vec<(u64, WireOutcome)>,
}

impl ConnStats {
    fn new(mix: &WorkloadMix) -> Self {
        ConnStats {
            ops: op_ledger(mix),
            svc: ServiceStats {
                network: Some(Histogram::micros()),
                ..ServiceStats::default()
            },
            outcomes: Vec::new(),
        }
    }

    fn record(
        &mut self,
        op: OpKind,
        arrival_ns: u64,
        send_ns: u64,
        recv_ns: u64,
        resp: &wire::NetResponse,
    ) {
        self.outcomes.push((resp.id, resp.outcome.clone()));
        let done = match &resp.outcome {
            // Never executed: counted, but no latency to decompose.
            WireOutcome::Rejected => {
                self.svc.rejected += 1;
                return;
            }
            WireOutcome::Done(_) => true,
            WireOutcome::Fail(_) => false,
        };
        let rtt_ns = recv_ns.saturating_sub(send_ns);
        self.ops[op.index()].record(done, rtt_ns, true);
        self.svc.record(
            op.category(),
            send_ns.saturating_sub(arrival_ns),
            resp.service_ns,
            recv_ns.saturating_sub(arrival_ns),
        );
        // The transport's share: everything between send and receive the
        // server does not account for (syscalls, the loopback or real
        // network, frame codec). Server-side queueing is deliberately
        // excluded — it shows up in the server's own report.
        let network_ns = rtt_ns.saturating_sub(resp.queue_ns.saturating_add(resp.service_ns));
        if let Some(network) = &mut self.svc.network {
            network.record(network_ns);
        }
    }
}

/// Reconnect policy: a broken connection is re-established up to this
/// many times per connection before the drive gives up …
const RECONNECT_MAX: u64 = 8;
/// … with exponential backoff between attempts, from here …
const BACKOFF_START: Duration = Duration::from_millis(10);
/// … capped here.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Transport-shaped errors worth a reconnect; protocol violations
/// (`InvalidData`) are not — retrying a server that talks garbage only
/// hides the bug.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
            | io::ErrorKind::WriteZero
            | io::ErrorKind::TimedOut
    )
}

/// Connects with Nagle off: a pipelined writer waits on responses, so a
/// small request lingering in Nagle's buffer behind a delayed ACK would
/// stall the whole window.
fn connect_nodelay(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The per-connection pipelining window, shared between the writer (the
/// session thread) and the response reader.
struct Window {
    state: Mutex<WindowState>,
    drained: Condvar,
}

struct WindowState {
    outstanding: usize,
    failed: bool,
}

/// Replays `requests` (see [`DriveConfig::generate`]) against a running
/// `stmbench7 net-serve` at `addr`, over `cfg.connections` persistent
/// connections, honoring scheduled arrival times, with at most
/// `cfg.inflight` requests in flight per connection (0 = unbounded).
/// Returns when every request has been answered; a connection broken
/// mid-drive is re-established with capped backoff and its unanswered
/// requests are re-sent (counted in the report's `reconnects` — note the
/// at-least-once caveat: a request whose response was lost executes
/// again server-side).
pub fn drive(
    addr: impl ToSocketAddrs,
    cfg: &DriveConfig,
    requests: &[Request],
) -> io::Result<DriveResult> {
    assert!(cfg.connections >= 1, "at least one connection required");
    let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?;
    let mix = cfg.mix();

    // Stripe the stream: connection c carries requests i ≡ c (mod N), in
    // stream order within the connection.
    let mut slices: Vec<Vec<Request>> = vec![Vec::new(); cfg.connections];
    for (i, req) in requests.iter().enumerate() {
        slices[i % cfg.connections].push(*req);
    }
    // Connect up-front (fail fast if the server is absent) so connection
    // setup doesn't eat into the schedule.
    let streams: Vec<TcpStream> = (0..cfg.connections)
        .map(|_| connect_nodelay(addr))
        .collect::<io::Result<_>>()?;

    // Send timestamps cross from writer to reader threads by request id.
    let send_ns: Vec<AtomicU64> = (0..requests.len()).map(|_| AtomicU64::new(0)).collect();

    let epoch = Instant::now();
    let all_stats: io::Result<Vec<ConnStats>> = std::thread::scope(|scope| {
        let mut sessions = Vec::with_capacity(cfg.connections);
        for (slice, stream) in slices.iter().zip(streams) {
            let send_ns = &send_ns;
            let stats = ConnStats::new(&mix);
            sessions.push(scope.spawn(move || -> io::Result<ConnStats> {
                run_connection(addr, cfg.inflight, epoch, slice, stream, send_ns, stats)
            }));
        }
        sessions
            .into_iter()
            .map(|h| h.join().expect("connection session panicked"))
            .collect()
    });
    let all_stats = all_stats?;
    let elapsed = epoch.elapsed();

    Ok(merge(cfg, &mix, requests, elapsed, all_stats))
}

/// One connection's session: replay its slice of the schedule, windowed
/// by `inflight`, reconnecting (and re-sending whatever is still
/// unanswered) on transport errors until the slice is fully answered.
fn run_connection(
    addr: SocketAddr,
    inflight: usize,
    epoch: Instant,
    slice: &[Request],
    first: TcpStream,
    send_ns: &[AtomicU64],
    mut stats: ConnStats,
) -> io::Result<ConnStats> {
    let mut answered = vec![false; slice.len()];
    let pos_of: HashMap<u64, usize> = slice.iter().enumerate().map(|(k, r)| (r.id, k)).collect();
    let mut stream = Some(first);
    loop {
        if answered.iter().all(|a| *a) {
            return Ok(stats);
        }
        let current = match stream.take() {
            Some(s) => s,
            None => match connect_nodelay(addr) {
                Ok(s) => s,
                Err(e) => {
                    back_off_or_bail(&mut stats, e)?;
                    continue;
                }
            },
        };
        match run_attempt(
            &current,
            inflight,
            epoch,
            slice,
            &pos_of,
            &mut answered,
            &mut stats,
            send_ns,
        ) {
            Ok(()) => return Ok(stats),
            Err(e) => back_off_or_bail(&mut stats, e)?,
        }
    }
}

/// Counts a reconnect and sleeps the capped exponential backoff, or
/// propagates the error once the budget is spent (or the error is not
/// transport-shaped).
fn back_off_or_bail(stats: &mut ConnStats, e: io::Error) -> io::Result<()> {
    let reconnects = &mut stats.svc.reconnects;
    if !retryable(&e) || *reconnects >= RECONNECT_MAX {
        return Err(e);
    }
    *reconnects += 1;
    let exp = (*reconnects - 1).min(5) as u32;
    std::thread::sleep((BACKOFF_START * 2u32.pow(exp)).min(BACKOFF_CAP));
    Ok(())
}

/// One attempt over one live stream: write every still-unanswered
/// request (in stream order, honoring arrivals and the window), while a
/// scoped reader thread collects responses in whatever order the
/// pipelined server completes them.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    stream: &TcpStream,
    inflight: usize,
    epoch: Instant,
    slice: &[Request],
    pos_of: &HashMap<u64, usize>,
    answered: &mut [bool],
    stats: &mut ConnStats,
    send_ns: &[AtomicU64],
) -> io::Result<()> {
    let cap = if inflight == 0 { usize::MAX } else { inflight };
    let to_send: Vec<Request> = slice
        .iter()
        .zip(answered.iter())
        .filter(|(_, done)| !**done)
        .map(|(req, _)| *req)
        .collect();
    let expect = to_send.len();
    let window = Window {
        state: Mutex::new(WindowState {
            outstanding: 0,
            failed: false,
        }),
        drained: Condvar::new(),
    };

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| -> io::Result<()> {
            let mut reader = BufReader::new(stream);
            let result = (|| -> io::Result<()> {
                for _ in 0..expect {
                    let frame = wire::read_frame(&mut reader)?.ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed with responses outstanding",
                        )
                    })?;
                    let Frame::Response(resp) = frame else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "server sent a non-response frame mid-stream",
                        ));
                    };
                    let recv_ns = epoch.elapsed().as_nanos() as u64;
                    let &pos = pos_of.get(&resp.id).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("response for unknown request id {}", resp.id),
                        )
                    })?;
                    if answered[pos] {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("duplicate response for request id {}", resp.id),
                        ));
                    }
                    let req = &slice[pos];
                    let sent = send_ns[req.id as usize].load(Ordering::Acquire);
                    stats.record(req.op, req.arrival_ns, sent, recv_ns, &resp);
                    answered[pos] = true;
                    let mut w = window.state.lock().expect("window poisoned");
                    w.outstanding = w.outstanding.saturating_sub(1);
                    drop(w);
                    window.drained.notify_all();
                }
                Ok(())
            })();
            if result.is_err() {
                // Unblock a writer waiting on the window.
                window.state.lock().expect("window poisoned").failed = true;
                window.drained.notify_all();
            }
            result
        });

        // Writer: this thread replays the unanswered share of the slice.
        let mut writer_result: io::Result<()> = Ok(());
        let mut write_half = stream;
        for req in &to_send {
            {
                let mut w = window.state.lock().expect("window poisoned");
                while !w.failed && w.outstanding >= cap {
                    w = window.drained.wait(w).expect("window poisoned");
                }
                if w.failed {
                    break; // the reader's error wins
                }
                w.outstanding += 1;
            }
            let target = epoch + Duration::from_nanos(req.arrival_ns);
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            }
            // Release: the socket round trip is not a formal
            // happens-before edge for this atomic; pair with the reader's
            // Acquire so it never observes the initial 0.
            send_ns[req.id as usize].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
            if let Err(e) = wire::write_frame(
                &mut write_half,
                &Frame::Request(NetRequest {
                    id: req.id,
                    op: req.op,
                    rng_seed: req.rng_seed,
                }),
            ) {
                window.state.lock().expect("window poisoned").failed = true;
                // Unblock the reader out of its blocking read.
                let _ = stream.shutdown(Shutdown::Both);
                writer_result = Err(e);
                break;
            }
        }
        let reader_result = reader.join().expect("response reader panicked");
        reader_result.and(writer_result)
    })
}

/// Sends the graceful-shutdown control frame on a fresh connection and
/// waits for the acknowledgement.
pub fn shutdown(addr: impl ToSocketAddrs) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?)?;
    wire::write_frame(&mut stream, &Frame::Shutdown)?;
    match wire::read_frame(&mut BufReader::new(stream))? {
        Some(Frame::ShutdownAck) => Ok(()),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected shutdown ack, got {other:?}"),
        )),
    }
}

fn merge(
    cfg: &DriveConfig,
    mix: &WorkloadMix,
    requests: &[Request],
    elapsed: Duration,
    all_stats: Vec<ConnStats>,
) -> DriveResult {
    let mut per_op = op_ledger(mix);
    // The client's "workers" are its connections; it has no bounded
    // queue or batching of its own (cap 0, batch 1).
    let mut svc = ServiceStats {
        schedule: cfg.schedule.key(),
        workers: cfg.connections,
        affinity: "none".to_string(),
        offered: requests.len() as u64,
        network: Some(Histogram::micros()),
        ..ServiceStats::default()
    };
    let mut outcomes: Vec<Option<WireOutcome>> = vec![None; requests.len()];
    for stats in &all_stats {
        merge_ops(&mut per_op, &stats.ops);
        svc.merge(&stats.svc);
        for (id, outcome) in &stats.outcomes {
            outcomes[*id as usize] = Some(outcome.clone());
        }
    }
    svc.batches = svc.queue_wait.samples();
    let report = Report {
        backend: "net".to_string(),
        threads: cfg.connections,
        workload: cfg.workload,
        long_traversals: cfg.long_traversals,
        structure_mods: cfg.structure_mods,
        seed: cfg.seed,
        elapsed,
        per_op,
        stm: None,
        contention: None,
        service: Some(svc),
        timeseries: None,
    };
    DriveResult { report, outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NetResponse;
    use stmbench7_core::Category;

    fn response(id: u64, outcome: WireOutcome) -> NetResponse {
        NetResponse {
            id,
            outcome,
            queue_ns: 4_000,
            service_ns: 10_000,
        }
    }

    #[test]
    fn conn_stats_split_a_round_trip_into_three_lanes() {
        let cfg = DriveConfig::new(Schedule::Closed { clients: 1 }, WorkloadType::ReadWrite, 1);
        let mut stats = ConnStats::new(&cfg.mix());
        let op = OpKind::Op1;
        // Due at 0, sent at 2 µs, answered at 50 µs: 48 µs round trip,
        // of which the server accounts for 14 µs.
        stats.record(op, 0, 2_000, 50_000, &response(0, WireOutcome::Done(7)));
        stats.record(
            op,
            0,
            2_000,
            50_000,
            &response(1, WireOutcome::Fail("x".into())),
        );
        stats.record(op, 0, 2_000, 50_000, &response(2, WireOutcome::Rejected));

        let row = &stats.ops[op.index()];
        assert_eq!((row.completed, row.failed), (1, 1));
        assert_eq!(row.max_ns, 48_000, "per-op latency is the round trip");
        assert_eq!(stats.svc.rejected, 1);
        assert_eq!(stats.outcomes.len(), 3, "every response is an outcome");
        assert_eq!(
            stats.svc.queue_wait.samples(),
            2,
            "rejections carry no split"
        );
        let network = stats.svc.network.as_ref().expect("network lane");
        assert_eq!(network.samples(), 2);
        assert_eq!(
            network.percentile_us(50.0),
            Some(63),
            "34 µs lands in 32..63"
        );
        assert_eq!(
            stats.svc.per_category[Category::ShortOperation.index()]
                .service_time
                .samples(),
            2
        );
    }
}
