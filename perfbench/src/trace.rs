//! The traced run's collector: an in-memory sink that keeps only the
//! span ends of the spans the program already emits, with their self
//! time (own wall time minus the wall time of their child spans).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use selfheal_telemetry::{Event, EventKind, FieldValue, Sink, SinkGuard};

/// The spans the benchmark reads.
pub const SPANS: [&str; 5] = [
    "fleet.client.request",
    "fleet.request",
    "fleet.execute",
    "experiment.chip",
    "testbench.phase",
];

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanEnd {
    /// Span name (one of [`SPANS`]).
    pub name: &'static str,
    /// The `kind` field (request kind), when present.
    pub kind: Option<String>,
    /// The `trace_id` field, when present.
    pub trace_id: Option<u64>,
    /// Wall time, ns.
    pub wall_ns: u64,
    /// Wall time minus child spans, ns.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanEnd>,
    /// Child wall time accumulated per still-open parent span id.
    child_ns: HashMap<u64, u128>,
}

/// The collecting sink.
#[derive(Debug, Default)]
pub struct SpanSink {
    inner: Mutex<Inner>,
}

impl SpanSink {
    /// Installs a fresh collector; events flow until the guard drops.
    pub fn install() -> (Arc<SpanSink>, SinkGuard) {
        let sink = Arc::new(SpanSink::default());
        let guard = selfheal_telemetry::install_sink(sink.clone());
        (sink, guard)
    }

    /// Removes and returns every span collected so far.
    pub fn drain(&self) -> Vec<SpanEnd> {
        std::mem::take(
            &mut self
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .spans,
        )
    }
}

impl Sink for SpanSink {
    fn record(&self, event: &Event) {
        if event.kind != EventKind::SpanEnd {
            return;
        }
        let wall = event.wall_ns.unwrap_or(0);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let child = inner.child_ns.remove(&event.span_id).unwrap_or(0);
        if event.parent_id != 0 {
            *inner.child_ns.entry(event.parent_id).or_default() += wall;
        }
        let Some(name) = SPANS.iter().copied().find(|n| *n == event.name) else {
            return;
        };
        let field = |key: &str| event.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        inner.spans.push(SpanEnd {
            name,
            kind: match field("kind") {
                Some(FieldValue::Str(kind)) => Some(kind.clone()),
                _ => None,
            },
            trace_id: match field("trace_id") {
                Some(FieldValue::U64(id)) => Some(*id),
                _ => None,
            },
            wall_ns: u64::try_from(wall).unwrap_or(u64::MAX),
            self_ns: u64::try_from(wall.saturating_sub(child)).unwrap_or(u64::MAX),
        });
    }
}
