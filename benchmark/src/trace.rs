//! In-memory span store and its hand-rendered Chrome-trace JSON
//! (`chrome://tracing`, Perfetto): one track for the driver thread and one
//! per rank.

use crate::pipeline::{stage, Rep, Span};
use std::fmt::Write;

/// The driver thread's track id; rank `r` is track `r + 1`.
const DRIVER_TRACK: usize = 0;

struct Event {
    span: Span,
    track: usize,
    parent: &'static str,
    /// The rep that caused the span; `None` for the kernel replays.
    rep: Option<u64>,
}

/// Every span of a traced run, kept until the run ends.
#[derive(Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Adds the spans of one rep: the driver's stages under `"rep"`, the
    /// ranks' stages under the `Machine::run` span that caused them.
    pub fn add_rep(&mut self, rep: &Rep, id: u64) {
        self.add(DRIVER_TRACK, &rep.driver_spans, "rep", Some(id));
        for (rank, spans) in rep.rank_spans.iter().enumerate() {
            self.add_rank(rank, spans, stage::MACHINE, Some(id));
        }
    }

    /// Adds spans recorded on `rank`.
    pub fn add_rank(
        &mut self,
        rank: usize,
        spans: &[Span],
        parent: &'static str,
        rep: Option<u64>,
    ) {
        self.add(rank + 1, spans, parent, rep);
    }

    fn add(&mut self, track: usize, spans: &[Span], parent: &'static str, rep: Option<u64>) {
        self.events.extend(spans.iter().map(|&span| Event {
            span,
            track,
            parent,
            rep,
        }));
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the Chrome-trace JSON document. Span names are the fixed
    /// identifiers of this crate, so they need no escaping.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let tracks = self
            .events
            .iter()
            .map(|e| e.track)
            .max()
            .map_or(0, |t| t + 1);
        for track in 0..tracks {
            let label = match track {
                DRIVER_TRACK => "driver".to_string(),
                t => format!("rank {}", t - 1),
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"args\":{{\"name\":\"{label}\"}}}},"
            );
        }
        for e in &self.events {
            let rep = e.rep.map_or("null".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\",\"rep\":{rep},\"sim_s\":{:e}}}}},",
                e.span.name,
                e.track,
                e.span.start_s * 1e6,
                e.span.wall() * 1e6,
                e.parent,
                e.span.sim(),
            );
        }
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"pilut-benchmark {workload}\"}}}}"
        );
        out.push_str("]}\n");
        out
    }
}
