//! Property tests for the trace exporter: arbitrary event sequences —
//! arbitrary timestamps, durations, args, and names full of quotes,
//! backslashes, control characters and non-ASCII text — must always
//! render to well-formed output, never panic.

use proptest::prelude::*;

use stmbench7_obs::{chrome_trace_json, summarize, Event, EventKind, Layer, Trace};

fn layer(sel: u8) -> Layer {
    Layer::all()[(sel as usize) % Layer::all().len()]
}

fn kind(sel: u8) -> EventKind {
    match (sel / 5) % 9 {
        0 => EventKind::Op,
        1 => EventKind::OpFail,
        2 => EventKind::StmRetry,
        3 => EventKind::LockWait,
        4 => EventKind::CombineBatch,
        5 => EventKind::QueueAdmit,
        6 => EventKind::QueueReject,
        7 => EventKind::FrameDecode,
        _ => EventKind::NetFlush,
    }
}

/// Builds a hostile name from a seed: every nibble picks from a palette
/// of JSON-significant and control characters. Leaked per case — the
/// `'static` bound on [`Event::name`] makes this test-only leak the
/// cheapest way to feed arbitrary strings through.
fn name(seed: u64) -> &'static str {
    const PALETTE: [char; 16] = [
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'a', 'Z', '0', ' ', 'é', '→',
        '𝕊', '/',
    ];
    let len = (seed % 13) as usize;
    let s: String = (0..len)
        .map(|i| PALETTE[((seed >> (4 * (i % 16))) & 0xf) as usize])
        .collect();
    Box::leak(s.into_boxed_str())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Export never panics and always yields a bracketed JSON array
    /// with one object per event plus the drop marker.
    #[test]
    fn export_never_panics_on_arbitrary_events(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
            0..60,
        ),
        dropped in any::<u64>(),
    ) {
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(sel, name_seed, t_ns, dur_ns, arg, tid)| Event {
                layer: layer(sel),
                kind: kind(sel),
                name: name(name_seed),
                t_ns,
                dur_ns,
                arg,
                tid,
            })
            .collect();
        let n = events.len();
        let trace = Trace { events, dropped };

        let json = chrome_trace_json(&trace);
        prop_assert!(json.starts_with('['));
        prop_assert!(json.ends_with(']'));
        // One object per event, plus the trailing drop-count marker.
        prop_assert_eq!(json.matches("\"ph\":").count(), n + 1);
        let marker = format!("\"dropped\":{}", dropped);
        prop_assert!(json.contains(&marker));
        // No raw control characters may survive into the JSON text
        // (newlines between objects are the only ones we emit).
        prop_assert!(json.chars().all(|c| c == '\n' || (c as u32) >= 0x20));

        let summary = summarize(&trace);
        let head = format!("{} events", n);
        prop_assert!(summary.contains(&head));
    }
}
