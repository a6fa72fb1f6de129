//! The `stmbench7` command line, mirroring Appendix A.1 of the paper:
//!
//! ```text
//! stmbench7 -t numThreads -l length -w r|rw|w -g coarse|medium|...
//!           [--no-traversals] [--no-sms] [--ttc-histograms]
//! ```
//!
//! plus the `lab`, `serve`, `net-serve`, `net-drive` and `trace-summary`
//! subcommands. Every mode is driven through one vocabulary: [`FLAGS`]
//! declares each flag once (spelling, value kind, where it stores, help
//! line, and which modes take it), [`parse`] is the only argument loop,
//! and [`Command::usage`] renders `--help` from the same table, so the
//! text cannot drift from what is accepted. Adding a flag is one row.

mod modes;

use std::process::ExitCode;

use crate::backend::BackendChoice;
use crate::core::WorkloadType;
use crate::data::StructureParams;
use crate::lab::Tolerance;
use crate::service::{Admission, Affinity, Schedule};
use crate::stm::ContentionManager;

/// What the command line said. Unset fields stay `None`; the mode that
/// consumes one resolves its default (the help text documents them).
#[derive(Default)]
pub struct Opts {
    help: bool,
    /// The lab spec name or the trace-summary file.
    operand: Option<String>,
    schedule: Option<Schedule>,
    // structure
    preset: Option<StructureParams>,
    shards: Option<usize>,
    // mix
    workload: Option<WorkloadType>,
    no_traversals: bool,
    no_sms: bool,
    astm_friendly: bool,
    // strategy
    backend: Option<BackendChoice>,
    cm: Option<ContentionManager>,
    // pool
    workers: Option<usize>,
    queue_cap: Option<usize>,
    admission: Option<Admission>,
    batch: Option<usize>,
    affinity: Option<Affinity>,
    // observe
    trace: Option<String>,
    window: Option<u64>,
    // run
    seed: Option<u64>,
    length: Option<f64>,
    requests: Option<u64>,
    validate: bool,
    // the closed-loop engine
    threads: Option<usize>,
    ops: Option<u64>,
    histograms: bool,
    csv: Option<String>,
    describe: bool,
    // lab
    list: bool,
    secs: Option<f64>,
    warmup: Option<f64>,
    reps: Option<u32>,
    thread_axis: Option<Vec<usize>>,
    rates: Option<Vec<f64>>,
    out: Option<String>,
    compare: Option<String>,
    tolerance: Option<Tolerance>,
    // net
    addr: Option<String>,
    metrics: Option<String>,
    connections: Option<usize>,
    inflight: usize,
    shutdown: bool,
    // trace-summary
    top: Option<usize>,
}

impl Opts {
    /// The structure the run builds: `-s` (default `small`) with
    /// `--shards` applied, whichever came first on the command line.
    pub fn params(&self) -> StructureParams {
        let preset = self.preset.clone().unwrap_or_else(StructureParams::small);
        match self.shards {
            Some(n) => preset.with_shards(n),
            None => preset,
        }
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(1)
    }

    fn workload(&self) -> WorkloadType {
        self.workload.unwrap_or(WorkloadType::ReadDominated)
    }

    /// `-g`, with `--cm` composed in when the strategy is an ASTM one.
    fn strategy(&self) -> BackendChoice {
        let mut choice = self.backend.unwrap_or(BackendChoice::Coarse);
        if let (BackendChoice::Astm { cm, .. }, Some(chosen)) = (&mut choice, self.cm) {
            *cm = chosen;
        }
        choice
    }
}

/// Why a mode did not run to completion.
enum Failure {
    /// The command line is wrong: exit 2, usage on stderr.
    Usage(String),
    /// The run itself failed: exit 1.
    Failed(String),
}

/// A flag's value kind — which validator its argument goes through — and
/// where the validated value is stored.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Takes no value.
    Switch(fn(&mut Opts)),
    /// An integer ≥ 1.
    Count(fn(&mut Opts, usize)),
    /// A comma-separated list of integers ≥ 1.
    Counts(fn(&mut Opts, Vec<usize>)),
    /// An integer ≥ 0.
    Number(fn(&mut Opts, u64)),
    /// A finite number > 0 (seconds, a rate).
    Positive(fn(&mut Opts, f64)),
    /// A comma-separated list of finite numbers > 0.
    Positives(fn(&mut Opts, Vec<f64>)),
    /// Free text: a path or an address.
    Text(fn(&mut Opts, String)),
    /// A name (of the given sort) resolved by its type's own `parse`;
    /// the store reports whether it resolved.
    Named(&'static str, fn(&mut Opts, &str) -> bool),
    /// Anything else: the store validates.
    Parsed(fn(&mut Opts, &str) -> Result<(), String>),
}
use Kind::*;

fn count(v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("expected a count ≥ 1, got '{v}'")),
    }
}

fn positive(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("expected a number > 0, got '{v}'")),
    }
}

fn list<T>(v: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(item).collect()
}

/// Stores a `parse` result; `false` when it did not resolve.
fn set<T>(slot: &mut Option<T>, parsed: Option<T>) -> bool {
    *slot = parsed;
    slot.is_some()
}

impl Kind {
    fn store(self, o: &mut Opts, v: &str) -> Result<(), String> {
        match self {
            Kind::Switch(put) => put(o),
            Kind::Count(put) => put(o, count(v)?),
            Kind::Counts(put) => put(o, list(v, count)?),
            Kind::Number(put) => match v.parse() {
                Ok(n) => put(o, n),
                Err(_) => return Err(format!("expected a number ≥ 0, got '{v}'")),
            },
            Kind::Positive(put) => put(o, positive(v)?),
            Kind::Positives(put) => put(o, list(v, positive)?),
            Kind::Text(put) => put(o, v.to_string()),
            Kind::Named(_, put) if put(o, v) => {}
            Kind::Named(what, _) => return Err(format!("unknown {what} '{v}'")),
            Kind::Parsed(put) => return put(o, v),
        }
        Ok(())
    }
}

/// One row of the flag table.
pub struct Flag {
    /// Spellings and value placeholder: `-g|--backend <s>`.
    pub spec: &'static str,
    /// Bitmask of the modes that accept this flag.
    takers: u8,
    /// The value kind and the store.
    pub kind: Kind,
    /// The `--help` text, wrapped when rendered.
    pub help: &'static str,
}

impl Flag {
    /// The accepted spellings.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        self.spec.split(' ').next().unwrap_or("").split('|')
    }
}

const RUN: u8 = 1 << 0;
const LAB: u8 = 1 << 1;
const SERVE: u8 = 1 << 2;
const NET_SERVE: u8 = 1 << 3;
const NET_DRIVE: u8 = 1 << 4;
const TRACE_SUMMARY: u8 = 1 << 5;

// The shared flag sets, as the modes that take them.
const STRUCTURE: u8 = RUN | SERVE | NET_SERVE;
const MIX: u8 = RUN | SERVE | NET_DRIVE;
const STRATEGY: u8 = RUN | SERVE | NET_SERVE;
const POOL: u8 = SERVE | NET_SERVE;
const OBSERVE: u8 = RUN | LAB | SERVE | NET_SERVE;
const STREAM: u8 = SERVE | NET_DRIVE;

const fn flag(spec: &'static str, takers: u8, kind: Kind, help: &'static str) -> Flag {
    Flag {
        spec,
        takers,
        kind,
        help,
    }
}

/// The flag table: every flag of every mode, declared once.
// One row per flag, laid out by hand so the table scans.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    // structure
    flag("-s <preset>", STRUCTURE,
        Named("preset", |o, v| set(&mut o.preset, StructureParams::parse(v))),
        "structure size: tiny, small, standard, paper-full [default: small]"),
    flag("--shards <n>", STRUCTURE | LAB, Parsed(|o, v| {
            let n = count(v)?;
            StructureParams::small().with_shards(n).check()?;
            o.shards = Some(n);
            Ok(())
        }),
        "split every index into N shards (1..=64); backends with per-shard locks/variables \
         scale their lock sets with it; lab: overrides the spec preset's count (cells with \
         their own shard axis keep it) [default: 1]"),
    // mix
    flag("-w <r|rw|w|uNN>", MIX | NET_SERVE,
        Named("workload", |o, v| set(&mut o.workload, WorkloadType::parse(v))),
        "workload type; uNN = custom NN% updates (net-serve: report ratios only, clients \
         pick the operations) [default: r]"),
    flag("--no-traversals", MIX, Switch(|o| o.no_traversals = true),
        "disable long traversals"),
    flag("--no-sms", MIX, Switch(|o| o.no_sms = true),
        "disable structure modification operations"),
    flag("--astm-friendly", MIX, Switch(|o| o.astm_friendly = true),
        "apply the paper's §5 operation filter"),
    // strategy
    flag("-g|--backend <s>", STRATEGY,
        Named("strategy", |o, v| set(&mut o.backend, BackendChoice::parse(v))),
        "synchronization strategy: sequential, coarse, medium, fine, flatcomb, rcl, astm, \
         astm-sharded, astm-visible, tl2, tl2-sharded, norec, norec-sharded [default: coarse]"),
    flag("--cm <name>", RUN,
        Named("contention manager", |o, v| set(&mut o.cm, ContentionManager::parse(v))),
        "ASTM contention manager: aggressive, suicide, backoff, karma, timestamp, polka \
         [default: polka]"),
    // pool
    flag("--workers <n>", POOL, Count(|o, n| o.workers = Some(n)),
        "worker threads [default: 2, or N under serve closed:N]"),
    flag("--queue-cap <n>", POOL, Count(|o, n| o.queue_cap = Some(n)),
        "request queue bound [default: 1024]"),
    flag("--admission <p>", POOL,
        Named("admission policy", |o, v| set(&mut o.admission, Admission::parse(v))),
        "block | reject (drop-on-full; over the wire, answered with an explicit rejection \
         frame) [default: block]"),
    flag("--batch <k>", POOL, Count(|o, k| o.batch = Some(k)),
        "fold up to K lock-compatible requests into one execution (group commit) [default: 1]"),
    flag("--affinity <a>", POOL, Named("affinity", |o, v| set(&mut o.affinity, Affinity::parse(v))),
        "none | shard (route requests to workers by declared primary shard, steal when \
         idle) [default: none]"),
    // observe
    flag("--trace <path>", OBSERVE, Text(|o, v| o.trace = Some(v)),
        "record a transaction-lifecycle trace and write it as Chrome trace_event JSON (open \
         in Perfetto or chrome://tracing; summarize with `trace-summary`); lab: a directory, \
         one file per cell (traced cells keep their keys, so --compare still matches an \
         untraced baseline)"),
    flag("--window <ms>", OBSERVE, Count(|o, ms| o.window = Some(ms as u64)),
        "sample the flight recorder every <ms> ms and attach a per-window timeseries \
         (throughput, latency percentiles, queue depth) to the report; lab: to every cell \
         (windowed cells keep their keys, like --trace)"),
    // run
    flag("--seed <num>", RUN | LAB | SERVE | NET_SERVE | NET_DRIVE, Number(|o, n| o.seed = Some(n)),
        "RNG seed (lab: overrides the spec's) [default: 1]"),
    flag("-l <seconds>", RUN | STREAM, Positive(|o, secs| o.length = Some(secs)),
        "benchmark length [default: 10]; serve/net-drive: the stream horizon of open/bursty \
         schedules, offering rate x seconds requests [default: 5]"),
    flag("--requests <n>", STREAM, Number(|o, n| o.requests = Some(n)),
        "length of the request stream (instead of -l)"),
    flag("--validate", RUN | SERVE | NET_SERVE, Switch(|o| o.validate = true),
        "validate the structure after the run"),
    // the closed-loop engine
    flag("-t <num>", RUN, Count(|o, n| o.threads = Some(n)),
        "number of threads [default: 1]"),
    flag("--ops <num>", RUN, Number(|o, n| o.ops = Some(n)),
        "run a fixed number of operations per thread instead of a timed run"),
    flag("--ttc-histograms", RUN, Switch(|o| o.histograms = true),
        "print TTC (latency) histograms"),
    flag("--csv <file>", RUN, Text(|o, v| o.csv = Some(v)),
        "append per-operation CSV rows to <file>"),
    flag("--describe", RUN, Switch(|o| o.describe = true),
        "print the structure census and indexes, then exit"),
    // lab
    flag("--list", LAB, Switch(|o| o.list = true),
        "list the built-in specs and exit"),
    flag("--preset <name>", LAB,
        Named("preset", |o, v| set(&mut o.preset, StructureParams::parse(v))),
        "override the spec's structure preset"),
    flag("--secs <f>", LAB, Positive(|o, secs| o.secs = Some(secs)),
        "override seconds per measured repetition"),
    flag("--warmup <f>", LAB, Parsed(|o, v| match v.parse::<f64>() {
            Ok(secs) if secs.is_finite() && secs >= 0.0 => {
                o.warmup = Some(secs);
                Ok(())
            }
            _ => Err(format!("expected seconds ≥ 0, got '{v}'")),
        }),
        "override discarded warmup seconds per repetition"),
    flag("--reps <n>", LAB, Count(|o, n| o.reps = Some(n as u32)),
        "override the repetition count"),
    flag("--threads <a,b,c>", LAB, Counts(|o, axis| o.thread_axis = Some(axis)),
        "override the thread axis (re-grids the cells)"),
    flag("--rates <a,b,c>", LAB, Positives(|o, axis| o.rates = Some(axis)),
        "override the arrival-rate axis of open-loop cells (re-grids, scaling request counts \
         so every rung measures the same wall-clock window)"),
    flag("--out <path>", LAB, Text(|o, v| o.out = Some(v)),
        "results path [default: results/BENCH_<spec>.json]"),
    flag("--compare <path>", LAB, Text(|o, v| o.compare = Some(v)),
        "compare against a baseline results document; exit nonzero on regression"),
    flag("--tolerance <t>", LAB,
        Named("tolerance", |o, v| set(&mut o.tolerance, Tolerance::parse(v))),
        "allowed slowdown vs baseline: NN% or NNx [default: 25%]"),
    // net
    flag("--addr <host:port>", NET_SERVE | NET_DRIVE, Text(|o, v| o.addr = Some(v)),
        "net-serve: listen address; port 0 picks an ephemeral port, printed as `listening \
         on <addr>` [default: 127.0.0.1:7117]; net-drive: the server's address [required]"),
    flag("--metrics <h:p>", NET_SERVE, Text(|o, v| o.metrics = Some(v)),
        "also serve a Prometheus text exposition of the live flight-recorder counters at \
         http://<h:p>/metrics, scrapeable mid-run (the scrape rides the same event loop as \
         the benchmark traffic); implies --window 250 unless --window is given; port 0 \
         picks an ephemeral port, printed as `metrics on <addr>`"),
    flag("--connections <n>", NET_DRIVE, Count(|o, n| o.connections = Some(n)),
        "persistent connections the stream is striped over (request i rides connection \
         i mod N) [default: 2]"),
    flag("--inflight <n>", NET_DRIVE, Number(|o, n| o.inflight = n as usize),
        "per-connection pipelining window: at most n requests awaiting responses on a \
         connection (0 = unbounded, issue purely by schedule) [default: 0]"),
    flag("--shutdown", NET_DRIVE, Switch(|o| o.shutdown = true),
        "send the graceful-shutdown frame after the run"),
    // trace-summary
    flag("--top <n>", TRACE_SUMMARY, Count(|o, n| o.top = Some(n)),
        "also list the N slowest individual spans per layer — the concrete worst-case \
         operations, not aggregates"),
];

/// The positional argument of `serve` and `net-drive`.
const SCHEDULE: Flag = flag(
    "<schedule>",
    0,
    Named("schedule", |o, v| set(&mut o.schedule, Schedule::parse(v))),
    "one of: closed:N — everything arrives at t=0 (N suggests --workers), requires \
     --requests; open:RATE — fixed-rate arrivals (req/s) with deterministic slot jitter; \
     bursty:RATE:BURST:PERIOD_MS — average RATE req/s, clumped: each period opens with a \
     BURST of back-to-back arrivals",
);

/// One mode of the binary: the default closed-loop run or a subcommand.
pub struct Command {
    /// The subcommand word; empty for the default run mode.
    pub name: &'static str,
    mask: u8,
    /// One line, for the title and the top-level subcommand list.
    summary: &'static str,
    /// What the mode does.
    about: &'static str,
    /// The positional argument, if the mode takes one.
    operand: Option<Flag>,
    run: fn(&Opts) -> Result<ExitCode, Failure>,
}

/// Every mode: the default run mode first, the subcommands after it.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "",
        mask: RUN,
        summary: "the EuroSys 2007 STM benchmark, in Rust",
        about: "Runs the closed-loop benchmark: -t threads draw operations from the -w mix\n\
                against one -g strategy for -l seconds. -t -l -w -g --no-traversals --no-sms\n\
                --ttc-histograms are the paper's Appendix A.1; the rest are extensions.\n",
        operand: None,
        run: modes::run,
    },
    Command {
        name: "lab",
        mask: LAB,
        summary: "run a named experiment grid and write JSON results",
        about: "Runs every cell of the named spec (warmup + repetitions, each on a fresh\n\
                structure), aggregates repetitions into median/min/max/p95, writes a\n\
                versioned JSON results document, and optionally gates against a baseline.\n\
                \n\
                Cells that declare an `slo` (a windowed p99 objective) are checked after\n\
                the run: a window breaches when its p99 exceeds the objective, and the\n\
                cell fails when more windows breach than the objective allows, or when\n\
                it sampled no window at all. Any failed SLO check exits 1, with or\n\
                without --compare.\n",
        operand: Some(flag(
            "<spec>",
            0,
            Text(|o, v| o.operand = Some(v)),
            "a built-in spec; `lab --list` names them",
        )),
        run: modes::lab,
    },
    Command {
        name: "serve",
        mask: SERVE,
        summary: "serve an open-loop request stream through a backend",
        about: "Replays a deterministic arrival schedule into a bounded request queue\n\
                drained by a worker pool, and reports per-request latency decomposed\n\
                into queue wait vs service time (p50/p95/p99) plus reject counts.\n",
        operand: Some(SCHEDULE),
        run: modes::serve,
    },
    Command {
        name: "net-serve",
        mask: NET_SERVE,
        summary: "serve STMBench7 over TCP until a shutdown frame",
        about: "Binds a TCP listener, decodes length-prefixed request frames, and feeds\n\
                them into the service worker pool (admission control, batching and the\n\
                queue-wait/service-time decomposition are the `serve` machinery). Runs\n\
                until a client sends the graceful-shutdown control frame, then prints\n\
                the server-side report and exits 0.\n",
        operand: None,
        run: modes::net_serve,
    },
    Command {
        name: "net-drive",
        mask: NET_DRIVE,
        summary: "replay a schedule against a net-serve over sockets",
        about: "Replays a deterministic arrival schedule (the same schedules `serve`\n\
                replays in-process) over N persistent connections, and decomposes\n\
                per-request latency into client queue wait, network round trip, and\n\
                server-reported service time.\n",
        operand: Some(SCHEDULE),
        run: modes::net_drive,
    },
    Command {
        name: "trace-summary",
        mask: TRACE_SUMMARY,
        summary: "aggregate a --trace file into a per-event table",
        about: "Reads a Chrome trace_event JSON file written by `--trace` and prints a\n\
                per-(layer, kind, name) table: event counts and, for span kinds, total\n\
                and maximum duration, heaviest row first.\n",
        operand: Some(flag(
            "<file>",
            0,
            Text(|o, v| o.operand = Some(v)),
            "a trace written by --trace",
        )),
        run: modes::trace_summary,
    },
];

/// Appends one usage row: `left` in a 24-column gutter, `help` wrapped
/// at 80 columns beside it (below it when `left` overflows the gutter).
fn usage_row(out: &mut String, left: &str, help: &str) {
    let mut flush = |line: &mut String| {
        out.push_str(line);
        out.push('\n');
        line.clear();
    };
    let mut line = format!("    {left}");
    if line.len() > 23 {
        flush(&mut line);
    }
    for word in help.split_whitespace() {
        if line.len() + 1 + word.len() > 80 {
            flush(&mut line);
        }
        line = format!("{line:<23} {word}");
    }
    flush(&mut line);
}

impl Command {
    /// The flags this mode accepts, in table order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        FLAGS.iter().filter(|f| f.takers & self.mask != 0)
    }

    /// The `--help` text, rendered from the tables.
    pub fn usage(&self) -> String {
        let join = |words: &[&str]| {
            let words: Vec<&str> = words.iter().copied().filter(|w| !w.is_empty()).collect();
            words.join(" ")
        };
        let operand = self.operand.as_ref().map_or("", |f| f.spec);
        let mut out = format!(
            "{} — {}\n\nUSAGE:\n    {}\n\n{}\n",
            join(&["stmbench7", self.name]),
            self.summary,
            join(&["stmbench7", self.name, operand, "[OPTIONS]"]),
            self.about
        );
        if let Some(operand) = &self.operand {
            out.push_str("ARGUMENTS:\n");
            usage_row(&mut out, operand.spec, operand.help);
            out.push('\n');
        }
        out.push_str("OPTIONS:\n");
        for f in self.flags() {
            let (names, meta) = f.spec.split_once(' ').unwrap_or((f.spec, ""));
            usage_row(
                &mut out,
                &format!("{} {meta}", names.replace('|', ", ")),
                f.help,
            );
        }
        usage_row(&mut out, "-h, --help", "this text");
        if self.name.is_empty() {
            out.push_str("\nSUBCOMMANDS:\n");
            for cmd in &COMMANDS[1..] {
                let operand = cmd.operand.as_ref().map_or("", |f| f.spec);
                let help = format!("{} (see `stmbench7 {} --help`)", cmd.summary, cmd.name);
                usage_row(&mut out, &format!("{} {operand}", cmd.name), &help);
            }
        }
        out
    }
}

/// The one argument loop: resolves every argument of `argv` against the
/// flags `cmd` takes and stores its validated value.
pub fn parse(cmd: &Command, argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut operand = cmd.operand.as_ref();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            opts.help = true;
            return Ok(opts);
        }
        if !arg.starts_with('-') {
            if let Some(flag) = operand.take() {
                flag.kind.store(&mut opts, arg)?;
                continue;
            }
        }
        let flag = cmd
            .flags()
            .find(|f| f.names().any(|n| n == arg))
            .ok_or_else(|| format!("unknown argument '{arg}'"))?;
        let value = match flag.kind {
            Kind::Switch(_) => "",
            _ => args
                .next()
                .ok_or_else(|| format!("missing value for {arg}"))?,
        };
        flag.kind
            .store(&mut opts, value)
            .map_err(|e| format!("{arg}: {e}"))?;
    }
    Ok(opts)
}

/// The binary's entry point: picks the mode from the dispatch table,
/// parses its arguments and runs it. Usage errors exit 2 with the
/// mode's usage on stderr; runtime failures exit 1.
pub fn main(argv: &[String]) -> ExitCode {
    let subcommand = argv
        .first()
        .and_then(|word| COMMANDS[1..].iter().find(|c| c.name == word));
    let (cmd, argv) = match subcommand {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&COMMANDS[0], argv),
    };
    let outcome = parse(cmd, argv).map_err(Failure::Usage).and_then(|opts| {
        if opts.help {
            print!("{}", cmd.usage());
            return Ok(ExitCode::SUCCESS);
        }
        (cmd.run)(&opts)
    });
    match outcome {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{}", cmd.usage());
            ExitCode::from(2)
        }
        Err(Failure::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
