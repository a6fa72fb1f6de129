//! Per-layer microbenchmarks: each layer's public functions called
//! directly, the harness's timers around the calls. Nothing here reads
//! a product histogram except the two `service.*_p50_us` rows, which
//! say so. Sizes are fixed: a layer number is a property of the code,
//! not of `--seconds`.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stmbench7_backend::{AnyBackend, Backend, BackendChoice, BoundedQueue, TxOperation};
use stmbench7_core::{
    access_spec, primary_shard, run_benchmark, run_op, Category, OpCtx, OpFilter, OpKind, RunMode,
    WorkloadMix, WorkloadType,
};
use stmbench7_data::{validate, DirectTx, Sb7Tx, ShardedIndex, StructureParams, TxR, Workspace};
use stmbench7_net::wire::{self, Frame, FrameDecoder, NetRequest, NetResponse};
use stmbench7_net::WireOutcome;
use stmbench7_obs::{EventKind, Layer, Recorder};
use stmbench7_poll::{Events, Interest, Poller, Token};
use stmbench7_service::{run_stream_closed, serve, Schedule, ServeConfig};
use stmbench7_stm::{AstmRuntime, NorecRuntime, StmRuntime, Tl2Runtime};

use crate::closed::{engine_stream, via_backend, via_direct, ClosedWorkload};
use crate::spec::{CATEGORIES, STRATEGIES, TAXED};
use crate::stats;
use crate::workload::closed_config;

/// Named values, in emission order.
pub type Rows = Vec<(String, f64)>;

/// Nanoseconds per iteration of `f`, `iters` iterations.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Median of three timings: one descheduling must not own a row.
fn median3(mut f: impl FnMut() -> f64) -> f64 {
    stats::median(&[f(), f(), f()])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `data`: building, copying and checking the structure; the index.
pub fn data(seed: u64, rows: &mut Rows) -> Workspace {
    rows.push((
        "data.build_ms.small".into(),
        median3(|| {
            let t0 = Instant::now();
            black_box(Workspace::build(StructureParams::small(), seed));
            ms(t0.elapsed())
        }),
    ));
    let t0 = Instant::now();
    let standard = Workspace::build(StructureParams::standard(), seed);
    rows.push(("data.build_ms.standard".into(), ms(t0.elapsed())));
    rows.push((
        "data.clone_ms.standard".into(),
        median3(|| {
            let t0 = Instant::now();
            black_box(standard.clone());
            ms(t0.elapsed())
        }),
    ));
    rows.push((
        "data.validate_ms.standard".into(),
        median3(|| {
            let t0 = Instant::now();
            validate(&standard).expect("a fresh structure is valid");
            ms(t0.elapsed())
        }),
    ));

    const KEYS: u32 = 100_000;
    let filled = |shards| {
        let mut index: ShardedIndex<u32, u32> = ShardedIndex::new(shards);
        for k in 0..KEYS {
            index.insert(k, k);
        }
        index
    };
    let (one, mut eight) = (filled(1), filled(8));
    for (name, index) in [
        ("data.index_get_ns", &one),
        ("data.index_get_ns.s8", &eight),
    ] {
        let mut rng = SmallRng::seed_from_u64(seed);
        rows.push((
            name.into(),
            median3(|| {
                ns_per_iter(200_000, |_| {
                    black_box(index.get(&rng.gen_range(0..KEYS)));
                })
            }),
        ));
    }
    rows.push((
        "data.index_update_ns".into(),
        median3(|| {
            ns_per_iter(100_000, |i| {
                let k = KEYS + (i as u32 % KEYS);
                eight.insert(k, k);
                black_box(eight.remove(&k));
            })
        }),
    ));
    rows.push((
        "data.index_range_ns_per_entry".into(),
        median3(|| {
            let mut seen = 0u64;
            let t0 = Instant::now();
            eight.for_range(&0, &KEYS, |k, _| seen += u64::from(*k & 1) + 1);
            black_box(seen);
            t0.elapsed().as_nanos() as f64 / f64::from(KEYS)
        }),
    ));
    standard
}

/// Mean body time per category on a plain workspace: every operation
/// of the category in turn, `rounds` times, each with its own seed.
fn op_ns_by_category(ws: &mut Workspace, seed: u64, cat: Category, rounds: u64) -> f64 {
    let ops: Vec<OpKind> = OpKind::ALL
        .iter()
        .copied()
        .filter(|op| op.category() == cat)
        .collect();
    let mut ctx = OpCtx::new(ws.params.clone(), seed);
    let mut count = 0u64;
    let t0 = Instant::now();
    for round in 0..rounds {
        for (i, op) in ops.iter().enumerate() {
            ctx.rng = SmallRng::seed_from_u64(seed ^ (round << 8 | i as u64));
            black_box(
                run_op(*op, &mut DirectTx::writing(ws), &mut ctx)
                    .expect("a direct transaction cannot abort"),
            );
            count += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / count as f64
}

/// The `closed_rw_medium` configuration at one thread — `small`, `rw`
/// — over one fixed stream: the common ground of the per-operation
/// `core` and `backend` rows, so that their differences are
/// differences of code, not of input.
pub struct SmallRw {
    pub w: ClosedWorkload,
    pub seed: u64,
    pub ops: u64,
    /// Per-operation nanoseconds of the bare bodies on a plain
    /// workspace.
    pub body_ns: f64,
}

impl SmallRw {
    pub fn measure(seed: u64) -> SmallRw {
        let mut w = closed_config("closed_rw_medium");
        w.threads = 1;
        let ops = 10_000;
        let body_ns = median3(|| {
            let mut ws = Workspace::build(w.params.clone(), seed);
            let t0 = Instant::now();
            black_box(engine_stream(&w, seed, ops, via_direct(&mut ws)));
            t0.elapsed().as_nanos() as f64 / ops as f64
        });
        SmallRw {
            w,
            seed,
            ops,
            body_ns,
        }
    }

    fn backend(&self, strategy: &str) -> AnyBackend {
        let choice = BackendChoice::parse(strategy).expect("catalog strategy");
        AnyBackend::build(choice, Workspace::build(self.w.params.clone(), self.seed))
    }

    /// Per-operation nanoseconds of the stream through `strategy`,
    /// driven by the harness's bare loop.
    fn loop_ns_per_op(&self, strategy: &str) -> f64 {
        median3(|| {
            let backend = self.backend(strategy);
            let t0 = Instant::now();
            black_box(engine_stream(
                &self.w,
                self.seed,
                self.ops,
                via_backend(&backend),
            ));
            t0.elapsed().as_nanos() as f64 / self.ops as f64
        })
    }

    /// Per-operation nanoseconds of the stream through `strategy`,
    /// driven by the product's engine.
    pub fn engine_ns_per_op(&self, strategy: &str) -> f64 {
        median3(|| {
            let backend = self.backend(strategy);
            let cfg = self
                .w
                .bench_config(RunMode::FixedOps(self.ops), 1, self.seed);
            let t0 = Instant::now();
            run_benchmark(&backend, &self.w.params, &cfg);
            t0.elapsed().as_nanos() as f64 / self.ops as f64
        })
    }
}

/// `core`: operation bodies by category, spec computation, and what
/// the engine adds per operation over a bare loop.
pub fn core(seed: u64, mut standard: Workspace, small_rw: &SmallRw, rows: &mut Rows) {
    let rounds = [1, 20, 40, 20];
    for (i, cat) in Category::all().into_iter().enumerate() {
        rows.push((
            format!("core.op_ns.{}.standard", CATEGORIES[i]),
            op_ns_by_category(&mut standard, seed, cat, rounds[i]),
        ));
    }
    drop(standard);
    let mut small = Workspace::build(StructureParams::small(), seed);
    for (i, cat) in Category::all().into_iter().enumerate().skip(1) {
        rows.push((
            format!("core.op_ns.{}.small", CATEGORIES[i]),
            op_ns_by_category(&mut small, seed, cat, 200),
        ));
    }

    let sharded = StructureParams::small().with_shards(8);
    let mix = WorkloadMix::compute(WorkloadType::WriteDominated, false, true, &OpFilter::none());
    let stream = Schedule::Closed { clients: 1 }.generate(&mix, seed, 100_000);
    rows.push((
        "core.spec_ns".into(),
        median3(|| {
            ns_per_iter(stream.len() as u64, |i| {
                let req = &stream[i as usize];
                black_box(access_spec(req.op, sharded.assembly_levels));
                black_box(primary_shard(req.op, &sharded, req.rng_seed));
            })
        }),
    ));

    rows.push((
        "core.engine_overhead_ns".into(),
        small_rw.engine_ns_per_op("sequential") - small_rw.body_ns,
    ));
}

/// An operation that touches nothing: what is left is pure acquire and
/// release, begin and commit, or the delegation round trip.
struct Empty;

impl TxOperation<()> for Empty {
    fn run<T: Sb7Tx>(&mut self, _: &mut T) -> TxR<()> {
        Ok(())
    }
}

/// `backend`: the empty execute and the synchronization tax per
/// strategy; the submission queue's hand-off and drain.
pub fn backend(seed: u64, small_rw: &SmallRw, rows: &mut Rows) {
    let params = StructureParams::small();
    let spec = access_spec(OpKind::Op5, params.assembly_levels);
    for strategy in STRATEGIES {
        let choice = BackendChoice::parse(strategy).expect("catalog strategy");
        let backend = AnyBackend::build(choice, Workspace::build(params.clone(), seed));
        rows.push((
            format!("backend.execute_empty_ns.{strategy}"),
            median3(|| ns_per_iter(5_000, |_| backend.execute(&spec, &mut Empty))),
        ));
    }

    for strategy in TAXED {
        rows.push((
            format!("backend.sync_tax_ns.{strategy}"),
            small_rw.loop_ns_per_op(strategy) - small_rw.body_ns,
        ));
    }
}

/// The queue rows of `backend` (emitted after the contention rows).
pub fn backend_queue(rows: &mut Rows) {
    // Hand-off: one consumer blocked in `pop_batch`, the producer
    // pushes the push time, the consumer reports how old it was.
    let queue: BoundedQueue<Instant> = BoundedQueue::new(8);
    let (ack, acks) = mpsc::channel::<u64>();
    let mut waits: Vec<u64> = std::thread::scope(|scope| {
        let queue = &queue;
        scope.spawn(move || loop {
            let batch = queue.pop_batch(1, |_, _| false);
            let Some(pushed) = batch.first() else { break };
            if ack.send(pushed.elapsed().as_nanos() as u64).is_err() {
                break;
            }
        });
        let waits = (0..5_000)
            .map(|_| {
                queue.push_blocking(Instant::now());
                acks.recv().expect("consumer thread is alive")
            })
            .collect();
        queue.close();
        waits
    });
    waits.sort_unstable();
    rows.push((
        "backend.queue_handoff_ns".into(),
        stats::percentile(&waits, 50.0) as f64,
    ));

    const ITEMS: u64 = 8_192;
    let queue: BoundedQueue<u64> = BoundedQueue::new(ITEMS as usize);
    rows.push((
        "backend.queue_drain_ns_per_item".into(),
        median3(|| {
            for i in 0..ITEMS {
                queue.push_blocking(i);
            }
            let t0 = Instant::now();
            while !queue.is_empty() {
                black_box(queue.try_pop_batch(8, |_, _| true));
            }
            t0.elapsed().as_nanos() as f64 / ITEMS as f64
        }),
    ));
}

fn stm_runtime<R: StmRuntime>(rt: R, name: &str, rows: &mut Rows) {
    let vars: Vec<R::Var<u64>> = (0..64).map(|i| rt.new_var(i)).collect();
    rows.push((
        format!("stm.empty_tx_ns.{name}"),
        median3(|| ns_per_iter(50_000, |_| rt.atomic(|_| Ok(())))),
    ));
    // A read-write transaction: 64 reads, one update, commit included.
    rows.push((
        format!("stm.read_ns.{name}"),
        median3(|| {
            ns_per_iter(3_000, |_| {
                rt.atomic(|tx| {
                    let mut sum = 0u64;
                    for v in &vars {
                        sum += *R::read(tx, v)?;
                    }
                    R::update(tx, &vars[0], |n| *n = n.wrapping_add(1))?;
                    Ok(black_box(sum))
                });
            }) / 64.0
        }),
    ));
    rows.push((
        format!("stm.ro_read_ns.{name}"),
        median3(|| {
            ns_per_iter(3_000, |_| {
                rt.atomic_read_only(|tx| {
                    let mut sum = 0u64;
                    for v in &vars {
                        sum += *R::read(tx, v)?;
                    }
                    Ok(black_box(sum))
                });
            }) / 64.0
        }),
    ));
    rows.push((
        format!("stm.write_ns.{name}"),
        median3(|| {
            ns_per_iter(3_000, |_| {
                rt.atomic(|tx| {
                    for v in &vars[..16] {
                        R::update(tx, v, |n| *n = n.wrapping_add(1))?;
                    }
                    Ok(())
                });
            }) / 16.0
        }),
    ));
}

/// `stm`: the three runtimes' fixed costs, no conflicts.
pub fn stm(rows: &mut Rows) {
    stm_runtime(Tl2Runtime::default(), "tl2", rows);
    stm_runtime(NorecRuntime::default(), "norec", rows);
    stm_runtime(AstmRuntime::default(), "astm", rows);
}

/// `service`: stream generation, what the queue and worker pool add to
/// a request, and the in-process queue/service split at the open-loop
/// workload's rate.
pub fn service(seed: u64, rows: &mut Rows) {
    let mix = WorkloadMix::compute(WorkloadType::ReadWrite, false, true, &OpFilter::none());
    rows.push((
        "service.schedule_gen_ns".into(),
        median3(|| {
            let t0 = Instant::now();
            black_box(Schedule::Open { rate: 20_000.0 }.generate(&mix, seed, 100_000));
            t0.elapsed().as_nanos() as f64 / 100_000.0
        }),
    ));

    let params = StructureParams::small();
    let medium = || {
        AnyBackend::build(
            BackendChoice::Medium,
            Workspace::build(params.clone(), seed),
        )
    };
    let mut cfg = ServeConfig::new(
        Schedule::Closed { clients: 1 },
        WorkloadType::ReadWrite,
        seed,
    );
    cfg.workers = 1;
    cfg.long_traversals = false;
    let stream = cfg.generate(20_000);
    let per_request = |run: &dyn Fn(&AnyBackend)| {
        median3(|| {
            let backend = medium();
            let t0 = Instant::now();
            run(&backend);
            t0.elapsed().as_nanos() as f64 / stream.len() as f64
        })
    };
    let served = per_request(&|b| drop(serve(b, &params, &cfg, &stream)));
    let closed = per_request(&|b| drop(run_stream_closed(b, &params, &cfg, &stream)));
    rows.push(("service.dispatch_tax_ns".into(), served - closed));

    let mut open = cfg.clone();
    open.schedule = Schedule::Open { rate: 20_000.0 };
    open.workers = 2;
    let stream = open.generate(20_000);
    let report = serve(&medium(), &params, &open, &stream).report;
    let svc = report.service.expect("serve attaches service stats");
    // Product histograms: log2-microsecond bucket upper bounds.
    rows.push((
        "service.queue_wait_p50_us".into(),
        svc.queue_wait.percentile_us(50.0).unwrap_or(0) as f64,
    ));
    rows.push((
        "service.service_time_p50_us".into(),
        svc.service_time.percentile_us(50.0).unwrap_or(0) as f64,
    ));
}

/// `net`: the wire codec alone.
pub fn net_codec(rows: &mut Rows) {
    let request = Frame::Request(NetRequest {
        id: 123_456,
        op: OpKind::Op9,
        rng_seed: 0x9E37_79B9_7F4A_7C15,
    });
    rows.push((
        "net.encode_ns".into(),
        median3(|| {
            ns_per_iter(200_000, |_| {
                black_box(wire::encode(black_box(&request)));
            })
        }),
    ));

    let mut bytes = Vec::new();
    for id in 0..1_000u64 {
        let payload = wire::encode(&Frame::Response(NetResponse {
            id,
            outcome: WireOutcome::Done(id as i64),
            queue_ns: 12_345,
            service_ns: 6_789,
        }));
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
    }
    rows.push((
        "net.decode_ns".into(),
        median3(|| {
            ns_per_iter(50, |_| {
                let mut decoder = FrameDecoder::new();
                let mut frames = 0;
                for chunk in bytes.chunks(4096) {
                    decoder.extend(chunk);
                    while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                        black_box(frame);
                        frames += 1;
                    }
                }
                assert_eq!(frames, 1_000);
            }) / 1_000.0
        }),
    ));
}

/// `poll`: a cross-thread wake, and a poll that finds work waiting.
pub fn poll(rows: &mut Rows) -> std::io::Result<()> {
    let poller = Poller::new()?;
    let waker = poller.waker();
    let (woke, wakes) = mpsc::channel::<Instant>();
    let (go, gos) = mpsc::channel::<()>();
    let mut waits: Vec<u64> = std::thread::scope(|scope| -> std::io::Result<Vec<u64>> {
        let poller = &poller;
        scope.spawn(move || {
            let mut events = Events::with_capacity(4);
            // One poll per round; a round the main thread never starts
            // (the channel closed) ends the thread.
            while gos.recv().is_ok() {
                if poller.poll(&mut events, None).is_err() || woke.send(Instant::now()).is_err() {
                    break;
                }
            }
        });
        let mut waits = Vec::with_capacity(2_000);
        for _ in 0..2_000 {
            go.send(()).expect("poller thread is alive");
            // Let the other thread reach epoll_wait before waking it.
            std::thread::sleep(Duration::from_micros(50));
            let t0 = Instant::now();
            waker.wake()?;
            let t1 = wakes.recv().expect("poller thread is alive");
            waits.push(t1.saturating_duration_since(t0).as_nanos() as u64);
        }
        drop(go);
        Ok(waits)
    })?;
    waits.sort_unstable();
    rows.push((
        "poll.wake_us".into(),
        stats::percentile(&waits, 50.0) as f64 / 1e3,
    ));

    let (mut a, b) = std::os::unix::net::UnixStream::pair()?;
    std::io::Write::write_all(&mut a, b"x")?;
    let poller = Poller::new()?;
    poller.register(
        std::os::fd::AsRawFd::as_raw_fd(&b),
        Token(1),
        Interest::READABLE,
    )?;
    let mut events = Events::with_capacity(4);
    rows.push((
        "poll.poll_ready_ns".into(),
        median3(|| {
            ns_per_iter(20_000, |_| {
                poller
                    .poll(&mut events, Some(Duration::ZERO))
                    .expect("epoll_wait");
                assert_eq!(events.len(), 1);
            })
        }),
    ));
    Ok(())
}

/// `obs`: one probe, recorder off and on.
pub fn obs_probe(rows: &mut Rows) {
    for (name, recorder) in [
        ("obs.record_off_ns", Recorder::off()),
        ("obs.record_on_ns", Recorder::enabled()),
    ] {
        rows.push((
            name.into(),
            median3(|| {
                ns_per_iter(500_000, |i| {
                    let t0 = recorder.now_ns();
                    black_box(&recorder).span(Layer::Engine, EventKind::Op, "probe", t0, i);
                })
            }),
        ));
    }
}

/// `lab`: the JSON reader and writer on a committed results document.
pub fn lab(rows: &mut Rows) {
    let text = include_str!("../../results/BENCH_slo_baseline.json");
    let doc = stmbench7_lab::json::parse(text).expect("the committed baseline parses");
    rows.push((
        "lab.json_parse_ms".into(),
        median3(|| {
            let t0 = Instant::now();
            for _ in 0..20 {
                black_box(stmbench7_lab::json::parse(black_box(text)).expect("parses"));
            }
            ms(t0.elapsed()) / 20.0
        }),
    ));
    rows.push((
        "lab.json_write_ms".into(),
        median3(|| {
            let t0 = Instant::now();
            for _ in 0..20 {
                black_box(doc.render());
            }
            ms(t0.elapsed()) / 20.0
        }),
    ));
}
