//! The event vocabulary: which layer spoke, what happened, when, and
//! for how long. Events are small `Copy` records so the ring buffer is
//! a flat array and recording is a handful of stores.

/// The stack layer an event was recorded from. Doubles as the Chrome
/// trace category, so traces can be filtered per layer in the viewer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The benchmark engine / operation dispatch (closed-loop run loop
    /// or the service worker executing a batch).
    Engine,
    /// A locking or combining backend (lock waits, combiner batches).
    Backend,
    /// The STM adapter (aborts and re-runs of the transaction body).
    Stm,
    /// The open-loop service queue (admission decisions).
    Service,
    /// The wire server (frame decode, write flush).
    Net,
}

impl Layer {
    /// Stable lowercase name; the `cat` field of the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Backend => "backend",
            Layer::Stm => "stm",
            Layer::Service => "service",
            Layer::Net => "net",
        }
    }

    /// All layers, in stack order.
    pub fn all() -> [Layer; 5] {
        [
            Layer::Engine,
            Layer::Backend,
            Layer::Stm,
            Layer::Service,
            Layer::Net,
        ]
    }

    /// Inverse of [`Layer::name`]; `None` for foreign categories (the
    /// exported trace also carries an `obs` counter event).
    pub fn parse(name: &str) -> Option<Layer> {
        Layer::all().into_iter().find(|l| l.name() == name)
    }
}

/// What kind of lifecycle moment an [`Event`] records. Span kinds carry
/// a duration; instant kinds have `dur_ns == 0` and render as instant
/// events in the trace viewer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Span: one operation execution, begin-to-outcome. `name` is the
    /// operation (`"T1"`, `"OP3"`, …), `arg` the attempt count.
    Op,
    /// Instant: an operation whose final outcome was a failure.
    OpFail,
    /// Instant: an STM attempt aborted and the body is re-run. `arg` is
    /// the attempt number that failed (1-based).
    StmRetry,
    /// Span: a blocking lock acquisition that had to wait. `name` is
    /// the lock (`"coarse"`, `"sm-gate"`, `"shard"`, …).
    LockWait,
    /// Instant: a combiner formed a batch; `arg` is the batch size.
    CombineBatch,
    /// Instant: the service queue admitted a request; `arg` is its id.
    QueueAdmit,
    /// Instant: the service queue rejected a request; `arg` is its id.
    QueueReject,
    /// Instant: a request frame was decoded off the wire; `arg` is the
    /// request id.
    FrameDecode,
    /// Span: a connection's write buffer was flushed; `arg` is the
    /// number of bytes written.
    NetFlush,
}

impl EventKind {
    /// Stable lowercase name, exported in the Chrome trace `args`.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Op => "op",
            EventKind::OpFail => "op-fail",
            EventKind::StmRetry => "stm-retry",
            EventKind::LockWait => "lock-wait",
            EventKind::CombineBatch => "combine-batch",
            EventKind::QueueAdmit => "queue-admit",
            EventKind::QueueReject => "queue-reject",
            EventKind::FrameDecode => "frame-decode",
            EventKind::NetFlush => "net-flush",
        }
    }

    /// True when events of this kind carry a meaningful duration.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Op | EventKind::LockWait | EventKind::NetFlush
        )
    }

    /// Every kind, in declaration order.
    pub fn all() -> [EventKind; 9] {
        [
            EventKind::Op,
            EventKind::OpFail,
            EventKind::StmRetry,
            EventKind::LockWait,
            EventKind::CombineBatch,
            EventKind::QueueAdmit,
            EventKind::QueueReject,
            EventKind::FrameDecode,
            EventKind::NetFlush,
        ]
    }

    /// Inverse of [`EventKind::name`].
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::all().into_iter().find(|k| k.name() == name)
    }
}

/// One recorded lifecycle moment. 48 bytes, `Copy`, no heap — the ring
/// buffer holds these inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub layer: Layer,
    pub kind: EventKind,
    /// Display name (operation, lock, …). `'static` keeps the
    /// record `Copy`; every producer names events with string literals
    /// or `OpKind::name()`.
    pub name: &'static str,
    /// Start time in nanoseconds since the recorder's epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds; 0 for instant kinds.
    pub dur_ns: u64,
    /// Kind-specific argument (attempt count, batch size, request id,
    /// bytes, …).
    pub arg: u64,
    /// Recorder-assigned lane id of the recording thread.
    pub tid: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_and_kind_names_are_stable() {
        assert_eq!(Layer::Engine.name(), "engine");
        assert_eq!(Layer::Net.name(), "net");
        assert_eq!(EventKind::LockWait.name(), "lock-wait");
        assert_eq!(Layer::all().len(), 5);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for layer in Layer::all() {
            assert_eq!(Layer::parse(layer.name()), Some(layer));
        }
        for kind in EventKind::all() {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Layer::parse("obs"), None);
        assert_eq!(EventKind::parse("bogus"), None);
    }

    #[test]
    fn span_kinds_are_the_duration_carriers() {
        assert!(EventKind::Op.is_span());
        assert!(EventKind::NetFlush.is_span());
        assert!(!EventKind::QueueAdmit.is_span());
        assert!(!EventKind::StmRetry.is_span());
    }
}
