//! The recorder handle threaded through the stack.
//!
//! A [`Recorder`] is either *off* — the default, a `None` that makes
//! every call site one predictable branch — or *on*, a shared handle to
//! a trace in progress. Recording threads each own a private
//! [`Ring`] in thread-local storage, so the hot path takes no locks:
//! a lane flushes its ring into the shared spool only when its thread
//! exits or the thread starts recording into a different trace.
//!
//! Collection ([`Recorder::take_trace`]) therefore expects worker
//! threads to have exited first — which every runner in this workspace
//! guarantees by scoping its workers (`std::thread::scope`) inside the
//! run that owns the recorder.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::{Event, EventKind, Layer};
use crate::ring::Ring;

/// Per-thread ring capacity of a default-sized recorder: recent-window
/// tracing, bounded at ~¾ MB of events per thread.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// How long [`Recorder::take_trace`] waits for exiting threads' lanes
/// to flush; a lane still live after this belongs to a thread that is
/// not exiting, and its events stay unflushed.
const LANE_EXIT_GRACE: Duration = Duration::from_millis(100);

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    ring_capacity: usize,
    next_tid: AtomicU32,
    /// Rings flushed by exiting (or re-bound) lanes.
    spool: Mutex<Vec<Event>>,
    dropped: AtomicU64,
    /// Lanes bound to this trace that have not flushed on drop yet. A
    /// lane's drop decrements with `Release` after its flush, pairing
    /// with the `Acquire` load in [`Recorder::take_trace`].
    live_lanes: AtomicU32,
}

struct Lane {
    shared: Arc<Shared>,
    tid: u32,
    ring: Ring,
}

impl Lane {
    fn flush(&mut self) {
        let (events, dropped) = self.ring.drain();
        if dropped > 0 {
            self.shared.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        if !events.is_empty() {
            let mut spool = self.shared.spool.lock().unwrap();
            spool.extend(events);
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.flush();
        self.shared.live_lanes.fetch_sub(1, Ordering::Release);
    }
}

thread_local! {
    static LANE: RefCell<Option<Lane>> = const { RefCell::new(None) };
}

/// A finished trace: every recorded event merged across threads in
/// timestamp order, plus how many events the rings had to drop.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All events, sorted by `t_ns` (ties keep lane-flush order).
    pub events: Vec<Event>,
    /// Events lost to ring wraparound across all threads.
    pub dropped: u64,
}

impl Trace {
    /// The distinct layers that produced at least one event.
    pub fn layers(&self) -> Vec<Layer> {
        Layer::all()
            .into_iter()
            .filter(|l| self.events.iter().any(|e| e.layer == *l))
            .collect()
    }
}

/// Cheap, clonable handle to a trace in progress (or to nothing).
///
/// `Recorder::default()` is off: every `record*` call returns after one
/// branch, and [`Recorder::now_ns`] never reads the clock.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl Recorder {
    /// An enabled recorder with the default per-thread ring capacity.
    pub fn enabled() -> Recorder {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder whose per-thread rings hold `ring_capacity`
    /// events each.
    pub fn with_capacity(ring_capacity: usize) -> Recorder {
        Recorder {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                ring_capacity,
                next_tid: AtomicU32::new(0),
                spool: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                live_lanes: AtomicU32::new(0),
            })),
        }
    }

    /// A disabled recorder (same as `Recorder::default()`).
    pub fn off() -> Recorder {
        Recorder::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Nanoseconds since this recorder's epoch; 0 when disabled (the
    /// disabled path must not pay for a clock read).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records an instant event (no duration).
    #[inline]
    pub fn instant(&self, layer: Layer, kind: EventKind, name: &'static str, arg: u64) {
        if self.shared.is_some() {
            let t_ns = self.now_ns();
            self.push(layer, kind, name, t_ns, 0, arg);
        }
    }

    /// Records a span that started at `t0_ns` (a prior [`Recorder::now_ns`])
    /// and ends now.
    #[inline]
    pub fn span(&self, layer: Layer, kind: EventKind, name: &'static str, t0_ns: u64, arg: u64) {
        if self.shared.is_some() {
            let now = self.now_ns();
            self.push(layer, kind, name, t0_ns, now.saturating_sub(t0_ns), arg);
        }
    }

    /// Records a fully specified event.
    #[inline]
    pub fn push(
        &self,
        layer: Layer,
        kind: EventKind,
        name: &'static str,
        t_ns: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        let Some(shared) = &self.shared else { return };
        LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            let rebind = match slot.as_ref() {
                Some(lane) => !Arc::ptr_eq(&lane.shared, shared),
                None => true,
            };
            if rebind {
                // Dropping the previous lane (if any) flushes it into
                // its own trace's spool.
                *slot = Some(Lane {
                    shared: Arc::clone(shared),
                    tid: shared.next_tid.fetch_add(1, Ordering::Relaxed),
                    ring: Ring::new(shared.ring_capacity),
                });
                shared.live_lanes.fetch_add(1, Ordering::Relaxed);
            }
            let lane = slot.as_mut().expect("lane bound above");
            let tid = lane.tid;
            lane.ring.push(Event {
                layer,
                kind,
                name,
                t_ns,
                dur_ns,
                arg,
                tid,
            });
        });
    }

    /// Total events dropped so far by flushed lanes (a live lane's
    /// drops only become visible once it flushes).
    pub fn dropped(&self) -> u64 {
        match &self.shared {
            Some(s) => s.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Collects the trace: flushes the calling thread's lane, merges
    /// every flushed ring and sorts by timestamp. Worker threads must
    /// have exited (their lanes flush on thread exit); events recorded
    /// after this call start a fresh trace window on the same handle.
    ///
    /// A joined thread's lane flushes in its thread-local destructors,
    /// which can still be running after `join`/scope exit returns, so
    /// this waits (briefly, bounded) for other threads' lanes to land.
    pub fn take_trace(&self) -> Trace {
        let Some(shared) = &self.shared else {
            return Trace::default();
        };
        let own = LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            match slot.as_mut() {
                Some(lane) if Arc::ptr_eq(&lane.shared, shared) => {
                    lane.flush();
                    1
                }
                _ => 0,
            }
        });
        let deadline = Instant::now() + LANE_EXIT_GRACE;
        while shared.live_lanes.load(Ordering::Acquire) > own && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut events = std::mem::take(&mut *shared.spool.lock().unwrap());
        events.sort_by_key(|e| e.t_ns);
        Trace {
            events,
            dropped: shared.dropped.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::off();
        assert!(!rec.is_enabled());
        assert_eq!(rec.now_ns(), 0);
        rec.instant(Layer::Engine, EventKind::Op, "noop", 0);
        let trace = rec.take_trace();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn records_and_collects_on_one_thread() {
        let rec = Recorder::enabled();
        let t0 = rec.now_ns();
        rec.span(Layer::Backend, EventKind::LockWait, "coarse", t0, 0);
        rec.instant(Layer::Service, EventKind::QueueAdmit, "admit", 7);
        let trace = rec.take_trace();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events[1].arg, 7);
        assert_eq!(
            trace.layers(),
            vec![Layer::Backend, Layer::Service],
            "layers() reports stack order"
        );
    }

    #[test]
    fn cross_thread_merge_is_timestamp_ordered() {
        let rec = Recorder::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        rec.instant(Layer::Engine, EventKind::Op, "op", i);
                    }
                });
            }
        });
        rec.instant(Layer::Engine, EventKind::Op, "main", 0);
        let trace = rec.take_trace();
        assert_eq!(trace.events.len(), 4 * 50 + 1);
        assert!(
            trace.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "merged events are globally timestamp-ordered"
        );
        let mut tids: Vec<u32> = trace.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 5, "each thread got its own lane id");
    }

    #[test]
    fn take_trace_waits_boundedly_for_a_live_lane() {
        use std::sync::mpsc::channel;

        let rec = Recorder::enabled();
        let (release, parked) = channel::<()>();
        let (ready, recorded) = channel::<()>();
        let worker = {
            let rec = rec.clone();
            std::thread::spawn(move || {
                rec.instant(Layer::Engine, EventKind::Op, "held", 1);
                ready.send(()).unwrap();
                parked.recv().unwrap();
            })
        };
        recorded.recv().unwrap();
        let t0 = Instant::now();
        assert!(
            rec.take_trace().events.is_empty(),
            "a live thread's lane has not flushed yet"
        );
        assert!(t0.elapsed() < Duration::from_secs(5), "the wait is bounded");
        release.send(()).unwrap();
        worker.join().unwrap();
        assert_eq!(
            rec.take_trace().events.len(),
            1,
            "the lane lands once its thread exits"
        );
    }

    #[test]
    fn ring_overflow_surfaces_in_the_trace_drop_count() {
        let rec = Recorder::with_capacity(8);
        for i in 0..20u64 {
            rec.instant(Layer::Engine, EventKind::Op, "op", i);
        }
        let trace = rec.take_trace();
        assert_eq!(trace.events.len(), 8);
        assert_eq!(trace.dropped, 12);
        assert_eq!(
            trace.events.first().map(|e| e.arg),
            Some(12),
            "the surviving window is the most recent one"
        );
    }

    #[test]
    fn take_trace_resets_the_window() {
        let rec = Recorder::enabled();
        rec.instant(Layer::Net, EventKind::FrameDecode, "frame", 1);
        assert_eq!(rec.take_trace().events.len(), 1);
        rec.instant(Layer::Net, EventKind::FrameDecode, "frame", 2);
        let second = rec.take_trace();
        assert_eq!(second.events.len(), 1);
        assert_eq!(second.events[0].arg, 2);
    }

    #[test]
    fn rebinding_a_thread_to_a_new_trace_flushes_the_old_lane() {
        let first = Recorder::enabled();
        first.instant(Layer::Engine, EventKind::Op, "one", 1);
        let second = Recorder::enabled();
        second.instant(Layer::Engine, EventKind::Op, "two", 2);
        // Recording into `second` rebound this thread's lane, flushing
        // the event held for `first`.
        assert_eq!(first.take_trace().events.len(), 1);
        assert_eq!(second.take_trace().events.len(), 1);
    }
}
