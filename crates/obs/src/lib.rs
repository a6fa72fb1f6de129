//! Observability for the STMBench7 stack.
//!
//! The source paper insists a TM benchmark must expose *why* a strategy
//! wins — abort rates, contention, per-operation behavior — not just a
//! throughput number. This crate is the plumbing for that: a
//! low-overhead, dependency-free layer every other crate threads a
//! handle through.
//!
//! Three pieces:
//!
//! * [`Recorder`] — a per-thread ring-buffer trace recorder capturing
//!   typed lifecycle [`Event`]s (operation spans, STM retries, lock
//!   acquire-waits, combiner batches, queue admission, net frames).
//!   Cloning is cheap, recording is lock-free on the hot path (a
//!   thread-local ring), and a disabled recorder — the default — costs
//!   one branch per call site. Traces export to Chrome `trace_event`
//!   JSON ([`chrome_trace_json`]) loadable in `chrome://tracing` or
//!   Perfetto, or render as a compact text table ([`summarize`]).
//! * [`ContentionCounters`] — always-on atomic counters a backend owns
//!   (lock waits, CAS retries, shard conflicts) and snapshots into
//!   reports; the contention column every lab spec gains for free.
//! * [`FlightRecorder`] — the windowed flight recorder: a sampler
//!   thread cuts cumulative counters into per-window deltas
//!   ([`WindowSample`]: throughput, latency percentiles, queue depth,
//!   busy time, steals, contention deltas), feeding the `timeseries`
//!   report section, the live Prometheus endpoint, and the lab's
//!   windowed SLO gates. Like the trace recorder it costs one branch
//!   per probe site when off.

mod counters;
mod event;
mod export;
mod flight;
mod recorder;
mod ring;

pub use counters::{ContentionCounters, ContentionSnapshot};
pub use event::{Event, EventKind, Layer};
pub use export::{chrome_trace_json, summarize, top_spans, write_json_escaped};
pub use flight::{
    FlightProbes, FlightRecorder, FlightTotals, LatencyCut, WindowSample, DEFAULT_WINDOW_MS,
};
pub use recorder::{Recorder, Trace, DEFAULT_RING_CAPACITY};
pub use ring::Ring;
