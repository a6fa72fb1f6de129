//! The harness's own span recorder. Spans are taken around calls into
//! the product, kept in memory, and written out when the run ends:
//! as a Chrome `trace_event` file and as a table of self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One span: a named interval on one request, caused by `parent`.
/// Spans of one request share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; `off()` drops everything at the cost of one
/// branch, which is what the untraced side of the overhead ratio runs.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

/// Per span name: how many, their total duration, and the self time —
/// duration minus the part of it child spans of the same request cover.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Row {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn on() -> Spans {
        Spans {
            on: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Spans {
        Spans::default()
    }

    pub fn push(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                request,
                name,
                parent,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The summed table. A span's children are the spans of the same
    /// request naming it as parent; they tile it without overlap here
    /// (each layer hands the request to the next), so covered time is
    /// the sum of their durations, clipped to the parent's.
    pub fn table(&self) -> BTreeMap<&'static str, Row> {
        let mut covered: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *covered.entry((s.request, parent)).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let child = covered.get(&(s.request, s.name)).copied().unwrap_or(0);
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(child);
        }
        rows
    }

    /// Chrome `trace_event` JSON, one complete ("X") event per span,
    /// at most `cap` spans (the first ones: a bounded file that still
    /// shows the steady state).
    pub fn chrome_json(&self, process: &str, cap: usize) -> String {
        let mut out = String::from("[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in self.spans.iter().take(cap) {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":\"{}\"}}}}",
                s.request % 64,
                s.name,
                s.start_ns as f64 / 1_000.0,
                (s.end_ns - s.start_ns) as f64 / 1_000.0,
                s.request,
                s.parent.unwrap_or(""),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut spans = Spans::on();
        for request in 0..2 {
            spans.push(request, "request", None, 0, 100);
            spans.push(request, "net_lane", Some("request"), 0, 30);
            spans.push(request, "server_queue", Some("request"), 30, 50);
            spans.push(request, "server_service", Some("request"), 50, 90);
        }
        let table = spans.table();
        assert_eq!(
            table["request"],
            Row {
                count: 2,
                total_ns: 200,
                self_ns: 20
            }
        );
        assert_eq!(table["server_service"].self_ns, 80);
        assert_eq!(table["net_lane"].total_ns, 60);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut spans = Spans::off();
        spans.push(1, "op", None, 0, 10);
        assert_eq!(spans.len(), 0);
        assert!(spans.table().is_empty());
    }

    #[test]
    fn the_chrome_file_is_json_the_product_parser_reads() {
        let mut spans = Spans::on();
        spans.push(7, "op", None, 1_000, 3_500);
        spans.push(7, "body", Some("op"), 1_000, 3_000);
        let doc = stmbench7_lab::json::parse(&spans.chrome_json("closed_rw_medium", 10)).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("op"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("op")
        );
    }
}
