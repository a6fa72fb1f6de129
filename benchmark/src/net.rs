//! The wire workloads: the product's `serve_net` on a loopback socket
//! in this process, driven by the harness's own single-thread client.
//! The client speaks the public wire format (`wire::encode`,
//! `FrameDecoder`) and keeps a raw nanosecond record per request:
//! due, sent, received, plus the queue and service time the response
//! frame carries. Loopback only — no real link is crossed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use stmbench7_backend::{AnyBackend, Backend, BackendChoice};
use stmbench7_core::{OpFilter, WorkloadMix, WorkloadType};
use stmbench7_data::{validate, OpOutcome, StructureParams, Workspace};
use stmbench7_net::wire::{self, Frame, FrameDecoder, NetRequest};
use stmbench7_net::{serve_net, WireOutcome};
use stmbench7_poll::{Events, Interest, Poller, Token};
use stmbench7_service::{run_stream_closed, Affinity, Request, Schedule, ServeConfig};

use crate::fingerprint::{peak_rss_mib, reset_peak_rss};
use crate::stats;
use crate::trace::Spans;
use crate::workload::{latency_stats, rep_seed, tail_us, Rep, RunOutcome, Sizing};

/// How the client releases requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// On the stream's schedule whether or not responses keep up; at
    /// most `inflight` unanswered per connection, beyond which sending
    /// stalls — and the stall shows, because latency runs from each
    /// request's due time.
    Open { rate: f64, inflight: usize },
    /// Each connection keeps `inflight` requests outstanding and sends
    /// the next only when a response returns.
    Closed { inflight: usize },
}

/// One wire workload's fixed configuration.
#[derive(Clone, Debug)]
pub struct NetWorkload {
    pub params: StructureParams,
    pub mix: WorkloadType,
    pub strategy: &'static str,
    pub workers: usize,
    pub batch_max: usize,
    pub affinity: Affinity,
    pub connections: usize,
    pub pacing: Pacing,
    pub reps: usize,
    pub warmup_requests: u64,
    pub limit_us: u64,
    pub check_requests: u64,
}

impl NetWorkload {
    pub fn workload_mix(&self) -> WorkloadMix {
        WorkloadMix::compute(self.mix, false, true, &OpFilter::none())
    }

    pub fn serve_config(&self, workers: usize, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(Schedule::Closed { clients: workers }, self.mix, seed);
        cfg.workers = workers;
        cfg.batch_max = self.batch_max;
        cfg.affinity = self.affinity;
        cfg.long_traversals = false;
        cfg
    }

    pub fn backend(&self, seed: u64) -> AnyBackend {
        let choice = BackendChoice::parse(self.strategy).expect("catalog strategy");
        AnyBackend::build(choice, Workspace::build(self.params.clone(), seed))
    }

    /// The timed stream of one rep: schedule-bounded when open, sized
    /// well past what the window can absorb when closed (the deadline
    /// ends it).
    pub fn stream(&self, seed: u64, window: Duration) -> Vec<Request> {
        let mix = self.workload_mix();
        match self.pacing {
            Pacing::Open { rate, .. } => Schedule::Open { rate }
                .generate_for(&mix, seed, window)
                .expect("open schedules are horizon-bounded"),
            Pacing::Closed { .. } => {
                let n = (window.as_secs_f64() * CLOSED_STREAM_RATE) as u64;
                Schedule::Closed {
                    clients: self.connections,
                }
                .generate(&mix, seed, n)
            }
        }
    }
}

/// One drive: per request its due, send and receive times and the
/// queue and service time its response carried, plus the protocol
/// violations seen. All times are nanoseconds since the drive's epoch;
/// the vectors hold `time + 1` so that zero — an untouched, never
/// resident page — means "never happened".
#[derive(Debug, Default)]
pub struct Drive {
    due: Vec<u64>,
    sent: Vec<u64>,
    recv: Vec<u64>,
    queue_ns: Vec<u64>,
    service_ns: Vec<u64>,
    /// Outcomes by request, kept only for oracle drives.
    pub outcomes: Vec<Option<WireOutcome>>,
    pub rejected: u64,
    /// Responses for an id already answered or never sent.
    pub stray_responses: u64,
    pub first_send_ns: u64,
    pub last_recv_ns: u64,
}

/// The lanes of one answered request, nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lanes {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub queue_ns: u64,
    pub service_ns: u64,
}

impl Lanes {
    /// Received − due: what the user of an open-loop service waits.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }

    /// Sent − due: how late the generator ran.
    pub fn client_late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Round trip minus the time the server reports: wire, kernel,
    /// event-loop decode and flush, both directions.
    pub fn net_lane_ns(&self) -> u64 {
        (self.recv_ns - self.sent_ns).saturating_sub(self.queue_ns + self.service_ns)
    }
}

impl Lanes {
    /// The request's span and its four children, laid end to end.
    fn record(&self, request: u64, spans: &mut Spans) {
        let lane_end = self.sent_ns + self.net_lane_ns();
        let queue_end = lane_end + self.queue_ns;
        let parent = Some("request");
        spans.push(request, "request", None, self.due_ns, self.recv_ns);
        spans.push(request, "client_late", parent, self.due_ns, self.sent_ns);
        spans.push(request, "net_lane", parent, self.sent_ns, lane_end);
        spans.push(request, "server_queue", parent, lane_end, queue_end);
        spans.push(
            request,
            "server_service",
            parent,
            queue_end,
            queue_end + self.service_ns,
        );
    }
}

impl Drive {
    fn new(requests: &[Request], keep_outcomes: bool) -> Drive {
        let n = requests.len();
        Drive {
            due: requests.iter().map(|r| r.arrival_ns + 1).collect(),
            sent: vec![0; n],
            recv: vec![0; n],
            queue_ns: vec![0; n],
            service_ns: vec![0; n],
            outcomes: if keep_outcomes {
                vec![None; n]
            } else {
                Vec::new()
            },
            ..Drive::default()
        }
    }

    pub fn sent(&self) -> u64 {
        self.sent.iter().filter(|t| **t != 0).count() as u64
    }

    /// Sent requests that got exactly one executed (not rejected)
    /// response.
    pub fn answered(&self) -> u64 {
        self.recv.iter().filter(|t| **t != 0).count() as u64 - self.rejected
    }

    /// The lanes of every answered request, in request order.
    pub fn lanes(&self) -> impl Iterator<Item = (usize, Lanes)> + '_ {
        (0..self.recv.len())
            .filter(|i| self.recv[*i] != 0)
            .map(|i| {
                (
                    i,
                    Lanes {
                        due_ns: self.due[i] - 1,
                        sent_ns: self.sent[i] - 1,
                        recv_ns: self.recv[i] - 1,
                        queue_ns: self.queue_ns[i],
                        service_ns: self.service_ns[i],
                    },
                )
            })
    }

    /// Ascending latencies of answered requests: received − due.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.lanes().map(|(_, l)| l.latency_ns()).collect();
        v.sort_unstable();
        v
    }

    /// Ascending latencies of answered requests, one vector per whole
    /// `window_ns` of due time in `span_ns`; what is due after the last
    /// whole window counts into it.
    pub fn windowed_latencies_ns(&self, span_ns: u64, window_ns: u64) -> Vec<Vec<u64>> {
        let windows = (span_ns / window_ns).max(1) as usize;
        let mut out = vec![Vec::new(); windows];
        for (_, l) in self.lanes() {
            let window = (l.due_ns / window_ns) as usize;
            out[window.min(windows - 1)].push(l.latency_ns());
        }
        for w in &mut out {
            w.sort_unstable();
        }
        out
    }

    /// Ascending generator lateness of sent requests: sent − due.
    pub fn lateness_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .sent
            .iter()
            .zip(&self.due)
            .filter(|(s, _)| **s != 0)
            .map(|(s, due)| s.saturating_sub(*due))
            .collect();
        v.sort_unstable();
        v
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    inflight: usize,
    wants_write: bool,
}

/// The harness's load generator: one thread, nonblocking connections.
pub struct Client {
    conns: Vec<Conn>,
    poller: Poller,
    events: Events,
}

extern "C" {
    fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
}

/// Asks the kernel to wake this thread's sleeps on time. By default a
/// sleeping thread may be woken up to 50 us late (timer slack) so that
/// wake-ups coalesce — the whole send interval at 20000 req/s, and a
/// quarter of the latency this client would then report as its own
/// lateness. A refusal is harmless: the generator just runs later, and
/// its lateness is measured either way.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, nanoseconds) takes integers only,
    // touches no memory of this process and affects only the calling
    // thread's timer expiries.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Requests generated per second of a closed-pacing window: above what
/// the server can answer here, so the deadline, not the stream, ends
/// the window.
const CLOSED_STREAM_RATE: f64 = 160_000.0;

/// A drive gives up after this long without a byte moving either way.
const STALL_LIMIT: Duration = Duration::from_secs(10);

impl Client {
    pub fn connect(addr: SocketAddr, connections: usize) -> io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(connections);
        for i in 0..connections {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(stream.as_raw_fd(), Token(i), Interest::READABLE)?;
            conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                inflight: 0,
                wants_write: false,
            });
        }
        Ok(Client {
            conns,
            poller,
            events: Events::with_capacity(16),
        })
    }

    /// Drives `requests` under `pacing`. `due_ns` of request `i` is its
    /// scheduled arrival when open, its send time when closed. Sending
    /// stops at `deadline`; the drive ends once everything sent is
    /// answered (or nothing has moved for [`STALL_LIMIT`]).
    pub fn drive(
        &mut self,
        requests: &[Request],
        pacing: Pacing,
        deadline: Option<Duration>,
        keep_outcomes: bool,
        spans: &mut Spans,
    ) -> io::Result<Drive> {
        let n = requests.len();
        let mut drive = Drive::new(requests, keep_outcomes);
        let cap = match pacing {
            Pacing::Open { inflight, .. } | Pacing::Closed { inflight } => inflight,
        };
        let deadline_ns = deadline.map_or(u64::MAX, |d| d.as_nanos() as u64);
        if matches!(pacing, Pacing::Open { .. }) {
            tighten_timer_slack();
        }
        let epoch = Instant::now();
        let now_ns = || epoch.elapsed().as_nanos() as u64;
        let (mut next, mut sent, mut answered) = (0usize, 0u64, 0u64);
        let mut last_progress = Instant::now();
        let mut buf = vec![0u8; 64 * 1024];

        loop {
            let mut progressed = false;

            // Send whatever is due and fits the in-flight window, always
            // on the connection with the fewest outstanding.
            while next < n {
                let now = now_ns();
                if now >= deadline_ns {
                    next = n;
                    break;
                }
                if matches!(pacing, Pacing::Open { .. }) && drive.due[next] - 1 > now {
                    break;
                }
                let conn = self
                    .conns
                    .iter_mut()
                    .min_by_key(|c| c.inflight)
                    .expect("at least one connection");
                if conn.inflight >= cap {
                    break;
                }
                let payload = wire::encode(&Frame::Request(NetRequest {
                    id: next as u64,
                    op: requests[next].op,
                    rng_seed: requests[next].rng_seed,
                }));
                conn.out
                    .extend_from_slice(&(payload.len() as u32).to_be_bytes());
                conn.out.extend_from_slice(&payload);
                conn.inflight += 1;
                if matches!(pacing, Pacing::Closed { .. }) {
                    drive.due[next] = now + 1;
                }
                drive.sent[next] = now + 1;
                if sent == 0 {
                    drive.first_send_ns = now;
                }
                sent += 1;
                next += 1;
                progressed = true;
            }

            for (i, conn) in self.conns.iter_mut().enumerate() {
                // Flush.
                let mut written = 0;
                while written < conn.out.len() {
                    match conn.stream.write(&conn.out[written..]) {
                        Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                        Ok(k) => written += k,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                conn.out.drain(..written);
                let wants_write = !conn.out.is_empty();
                if wants_write != conn.wants_write {
                    let interest = if wants_write {
                        Interest::BOTH
                    } else {
                        Interest::READABLE
                    };
                    self.poller
                        .reregister(conn.stream.as_raw_fd(), Token(i), interest)?;
                    conn.wants_write = wants_write;
                }
                // Receive until the socket runs dry.
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "server closed the connection mid-drive",
                            ))
                        }
                        Ok(k) => {
                            conn.decoder.extend(&buf[..k]);
                            let recv_ns = now_ns();
                            while let Some(frame) = conn.decoder.next_frame()? {
                                let Frame::Response(resp) = frame else {
                                    return Err(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        format!("unexpected frame {frame:?}"),
                                    ));
                                };
                                progressed = true;
                                conn.inflight = conn.inflight.saturating_sub(1);
                                let i = resp.id as usize;
                                if i >= n || drive.sent[i] == 0 || drive.recv[i] != 0 {
                                    drive.stray_responses += 1;
                                    continue;
                                }
                                drive.recv[i] = recv_ns + 1;
                                drive.queue_ns[i] = resp.queue_ns;
                                drive.service_ns[i] = resp.service_ns;
                                if resp.outcome == WireOutcome::Rejected {
                                    drive.rejected += 1;
                                }
                                if keep_outcomes {
                                    drive.outcomes[i] = Some(resp.outcome);
                                }
                                answered += 1;
                                drive.last_recv_ns = recv_ns;
                                Lanes {
                                    due_ns: drive.due[i] - 1,
                                    sent_ns: drive.sent[i] - 1,
                                    recv_ns,
                                    queue_ns: resp.queue_ns,
                                    service_ns: resp.service_ns,
                                }
                                .record(resp.id, spans);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }

            if next >= n && answered >= sent {
                return Ok(drive);
            }
            if progressed {
                last_progress = Instant::now();
                continue;
            }
            if last_progress.elapsed() > STALL_LIMIT {
                return Ok(drive);
            }

            // Nothing moved: wait for the next due time or for a socket.
            // epoll timeouts are whole milliseconds, far coarser than a
            // 50 us send interval, so short waits yield-spin instead.
            let until_due = match pacing {
                Pacing::Open { .. } if next < n && self.conns.iter().any(|c| c.inflight < cap) => {
                    Some((drive.due[next] - 1).saturating_sub(now_ns()))
                }
                _ => None,
            };
            match until_due {
                Some(ns) if ns < 2_000_000 => std::thread::sleep(Duration::from_nanos(ns)),
                Some(ns) => self
                    .poller
                    .poll(&mut self.events, Some(Duration::from_nanos(ns - 1_000_000)))?,
                None => self
                    .poller
                    .poll(&mut self.events, Some(Duration::from_millis(100)))?,
            }
        }
    }
}

/// Runs `body` against an in-process `serve_net` on an ephemeral
/// loopback port, then shuts the server down and joins it.
pub fn with_server<B: Backend, R>(
    backend: &B,
    params: &StructureParams,
    cfg: &ServeConfig,
    body: impl FnOnce(SocketAddr) -> io::Result<R>,
) -> io::Result<R> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_net(backend, params, cfg, listener, None));
        // Shut down before looking at the body's result: a failed drive
        // must not leave the scope joining a server that never stops.
        let out = body(addr);
        let stopped = stmbench7_net::shutdown(addr);
        let served = server.join().expect("server thread panicked");
        let out = out?;
        stopped?;
        served?;
        Ok(out)
    })
}

/// Runs the workload untraced: `reps` × (rebuild → backend → server →
/// stream → connect → warm-up → timed drive), validated after each.
pub fn run(w: &NetWorkload, seed: u64, sizing: &Sizing) -> RunOutcome {
    let mut out = RunOutcome::default();
    let window = Duration::from_secs_f64(sizing.seconds / w.reps as f64);
    for rep in 0..w.reps {
        reset_peak_rss();
        let setup_t0 = Instant::now();
        let stream_seed = rep_seed(seed, rep);
        let backend = w.backend(stream_seed);
        let cfg = w.serve_config(w.workers, stream_seed);
        let requests = w.stream(stream_seed, window);
        let warmup = Schedule::Closed {
            clients: w.connections,
        }
        .generate(
            &w.workload_mix(),
            !stream_seed,
            sizing.scale(w.warmup_requests),
        );
        let driven = with_server(&backend, &w.params, &cfg, |addr| {
            let mut client = Client::connect(addr, w.connections)?;
            client.drive(
                &warmup,
                Pacing::Closed { inflight: 32 },
                None,
                false,
                &mut Spans::off(),
            )?;
            let setup_s = setup_t0.elapsed().as_secs_f64();
            let deadline = matches!(w.pacing, Pacing::Closed { .. }).then_some(window);
            let drive = client.drive(&requests, w.pacing, deadline, false, &mut Spans::off())?;
            Ok((setup_s, drive, peak_rss_mib()))
        });
        let (setup_s, drive, peak_rss_mb) = match driven {
            Ok(v) => v,
            Err(e) => {
                out.fail(format!("rep {rep}: transport error: {e}"));
                continue;
            }
        };
        if let Err(e) = validate(&backend.export()) {
            out.fail(format!("rep {rep}: structure invalid after the run: {e}"));
        }
        if drive.stray_responses > 0 {
            out.fail(format!(
                "rep {rep}: {} responses for ids already answered or never sent",
                drive.stray_responses
            ));
        }
        // Open loop: every scheduled request was offered, sent or not.
        let attempted = match w.pacing {
            Pacing::Open { .. } => requests.len() as u64,
            Pacing::Closed { .. } => drive.sent(),
        };
        let failed = attempted - drive.answered();
        if failed > 0 {
            out.fail(format!(
                "rep {rep}: {failed} of {attempted} requests rejected or unanswered"
            ));
        }
        if let Pacing::Open { .. } = w.pacing {
            let late = drive.lateness_ns();
            let late_p99_us = stats::percentile(&late, 99.0) as f64 / 1_000.0;
            if !sizing.quick && late_p99_us > CLIENT_LATE_LIMIT_US {
                // The generator, not the server, was the bottleneck:
                // the rep says nothing about the server and is left out.
                eprintln!(
                    "rep {rep} invalid: generator lateness p99 {late_p99_us:.0} us > {CLIENT_LATE_LIMIT_US} us"
                );
                out.invalid_reps += 1;
                continue;
            }
        }
        let samples = drive.latencies_ns();
        let (p50_us, within) = latency_stats(&samples, w.limit_us, attempted, &mut out);
        let window_tails: Vec<f64> = drive
            .windowed_latencies_ns(window.as_nanos() as u64, TAIL_WINDOW_NS)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| tail_us(w, 99.0, sizing, &mut out))
            .collect();
        let wall_s = (drive.last_recv_ns - drive.first_send_ns) as f64 / 1e9;
        out.reps.push(Rep {
            setup_s,
            ops_per_s: drive.answered() as f64 / wall_s,
            p50_us,
            tail_us: if window_tails.is_empty() {
                f64::NAN
            } else {
                stats::median(&window_tails)
            },
            within_limit_share: within,
            peak_rss_mb,
            attempted,
            failed,
            samples: samples.len(),
        });
    }
    if out.reps.len() < MIN_VALID_REPS.min(w.reps) {
        out.fail(format!(
            "only {} of {} reps had a generator on schedule",
            out.reps.len(),
            w.reps
        ));
    }
    check_oracle(w, seed, sizing, &mut out);
    out
}

/// `tail_us` of a wire rep is the median, over windows this long, of
/// the window's p99. The p99 of a whole rep is set by its worst 1% —
/// one 20 ms stall in two seconds — which on a shared host says more
/// about the neighbours than about the server; a stall spoils only the
/// windows it falls into, and `within_limit_share` still counts every
/// request it delayed. 2 000 samples a window at 20 000 req/s.
const TAIL_WINDOW_NS: u64 = 100_000_000;

/// Medians rest on at least this many reps.
const MIN_VALID_REPS: usize = 3;

/// A rep whose generator ran later than this at p99 measured the
/// client, not the server.
pub const CLIENT_LATE_LIMIT_US: f64 = 500.0;

/// The oracle: the workload's stream served over the wire by one
/// worker on one connection, hence in stream order, must produce
/// outcome for outcome what `run_stream_closed` on `sequential` does.
fn check_oracle(w: &NetWorkload, seed: u64, sizing: &Sizing, out: &mut RunOutcome) {
    let n = sizing.scale(w.check_requests);
    let requests = Schedule::Closed { clients: 1 }.generate(&w.workload_mix(), seed, n);
    let cfg = w.serve_config(1, seed);

    let oracle_backend = AnyBackend::build(
        BackendChoice::Sequential,
        Workspace::build(w.params.clone(), seed),
    );
    let expected = run_stream_closed(&oracle_backend, &w.params, &cfg, &requests).outcomes;

    let backend = w.backend(seed);
    let served = with_server(&backend, &w.params, &cfg, |addr| {
        Client::connect(addr, 1)?.drive(
            &requests,
            Pacing::Closed { inflight: 32 },
            None,
            true,
            &mut Spans::off(),
        )
    });
    let drive = match served {
        Ok(d) => d,
        Err(e) => return out.fail(format!("oracle: transport error: {e}")),
    };
    let diverged = drive
        .outcomes
        .iter()
        .zip(&expected)
        .position(|(got, want)| {
            let want: Option<OpOutcome> = *want;
            *got != want.map(WireOutcome::from)
        });
    if let Some(at) = diverged {
        out.fail(format!(
            "oracle: request {at} ({:?}) answered {:?} over the wire, {:?} on sequential",
            requests[at].op, drive.outcomes[at], expected[at]
        ));
    }
    if validate(&backend.export()) != validate(&oracle_backend.export()) {
        out.fail("oracle: structure census differs from the sequential replay".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use stmbench7_core::OpKind;
    use stmbench7_net::NetResponse;

    /// A one-connection server that answers every request at once,
    /// except that it sleeps `stall` before answering `stall_at` and
    /// answers `twice` two times.
    fn fake_server(
        stall_at: u64,
        stall: Duration,
        twice: Option<u64>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(Some(Frame::Request(req))) = wire::read_frame(&mut reader) {
                if req.id == stall_at {
                    std::thread::sleep(stall);
                }
                let copies = if twice == Some(req.id) { 2 } else { 1 };
                for _ in 0..copies {
                    let response = Frame::Response(NetResponse {
                        id: req.id,
                        outcome: WireOutcome::Done(0),
                        queue_ns: 0,
                        service_ns: 0,
                    });
                    if wire::write_frame(&mut writer, &response).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn every_millisecond(n: u64) -> Vec<Request> {
        (0..n)
            .map(|id| Request {
                id,
                arrival_ns: id * 1_000_000,
                op: OpKind::Op5,
                rng_seed: 0,
            })
            .collect()
    }

    #[test]
    fn a_stall_inflates_the_due_time_latency_of_later_requests() {
        const MS: u64 = 1_000_000;
        let (addr, server) = fake_server(5, Duration::from_millis(40), None);
        let requests = every_millisecond(80);
        let mut client = Client::connect(addr, 1).unwrap();
        // One in flight: while the server sits on request 5 the
        // generator cannot send, and requests 6.. go out late.
        let pacing = Pacing::Open {
            rate: 1_000.0,
            inflight: 1,
        };
        let drive = client
            .drive(&requests, pacing, None, false, &mut Spans::off())
            .unwrap();
        drop(client);
        server.join().unwrap();

        assert_eq!(drive.sent(), 80);
        assert_eq!(drive.answered(), 80);
        assert_eq!(drive.stray_responses, 0);
        let lanes: Vec<Lanes> = drive.lanes().map(|(_, l)| l).collect();
        // Before the stall: on time, fast.
        assert!(lanes[2].latency_ns() < 10 * MS, "{:?}", lanes[2]);
        // The stalled request itself waits out the stall.
        assert!(lanes[5].latency_ns() >= 40 * MS, "{:?}", lanes[5]);
        // The next one was due at 6 ms but could only be sent once 5
        // was answered: its round trip is short, its latency is not —
        // a clock started at send time would have hidden the stall.
        let after = lanes[6];
        assert!(after.client_late_ns() >= 30 * MS, "{after:?}");
        assert!(after.recv_ns - after.sent_ns < 10 * MS, "{after:?}");
        assert!(after.latency_ns() >= 30 * MS, "{after:?}");
        // The backlog drains in order, each request a little less late.
        assert!(lanes[20].latency_ns() >= 15 * MS, "{:?}", lanes[20]);
        assert!(lanes[20].latency_ns() < lanes[6].latency_ns());
        // Long after the stall the generator is on schedule again.
        assert!(lanes[79].latency_ns() < 10 * MS, "{:?}", lanes[79]);
        assert!(lanes[79].client_late_ns() < 5 * MS, "{:?}", lanes[79]);
        // And the lateness distribution reports the generator's delay.
        let late = drive.lateness_ns();
        assert!(*late.last().unwrap() >= 30 * MS);
    }

    #[test]
    fn a_stall_spoils_only_the_windows_it_falls_into() {
        const MS: u64 = 1_000_000;
        // One request due every millisecond for 350 ms, answered 1 ms
        // later — except those due in [120, 140) ms, answered at 150 ms.
        let requests = every_millisecond(350);
        let mut drive = Drive::new(&requests, false);
        for i in 0..350u64 {
            let due = i * MS;
            let recv = if (120..140).contains(&i) {
                150 * MS
            } else {
                due + MS
            };
            drive.sent[i as usize] = due + 1;
            drive.recv[i as usize] = recv + 1;
        }
        // 350 ms hold three whole windows; the last takes the rest.
        let windows = drive.windowed_latencies_ns(350 * MS, 100 * MS);
        let sizes: Vec<usize> = windows.iter().map(Vec::len).collect();
        assert_eq!(sizes, [100, 100, 150]);
        let p99: Vec<u64> = windows.iter().map(|w| stats::percentile(w, 99.0)).collect();
        assert_eq!(p99, [MS, 29 * MS, MS]);
        // The whole drive's p99 is the stall; the median window's is not.
        assert_eq!(stats::percentile(&drive.latencies_ns(), 99.0), 27 * MS);
    }

    #[test]
    fn a_second_response_for_one_id_is_counted_not_believed() {
        let (addr, server) = fake_server(u64::MAX, Duration::ZERO, Some(3));
        let requests = every_millisecond(10);
        let mut client = Client::connect(addr, 1).unwrap();
        let drive = client
            .drive(
                &requests,
                Pacing::Closed { inflight: 1 },
                None,
                true,
                &mut Spans::off(),
            )
            .unwrap();
        drop(client);
        server.join().unwrap();
        assert_eq!(drive.answered(), 10);
        assert_eq!(drive.stray_responses, 1);
        assert!(drive
            .outcomes
            .iter()
            .all(|o| *o == Some(WireOutcome::Done(0))));
    }

    #[test]
    fn the_wire_workloads_pass_their_own_checks_when_run_briefly() {
        for name in ["net_open_rw", "net_peak_w"] {
            let w = crate::workload::net_config(name);
            let sizing = Sizing {
                seconds: 0.6,
                quick: true,
            };
            let outcome = run(&w, 11, &sizing);
            assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
            assert_eq!(outcome.reps.len(), w.reps);
            assert!(outcome
                .reps
                .iter()
                .all(|r| r.failed == 0 && r.attempted > 0));
        }
    }
}
