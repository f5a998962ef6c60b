//! In-memory span recorder, written at exit as Chrome trace-event JSON.
//!
//! Spans nest workload → cell → phase; every span of one cell carries the
//! cell's id, so a trace viewer groups a cell's phases under it. Recording
//! is off unless the run is traced; an untraced run keeps nothing.

use std::time::Instant;

use htm_analyze::Json;

/// One recorded span.
#[derive(Clone, Debug)]
struct Span {
    /// Phase, cell or workload name.
    name: String,
    /// `workload`, `cell` or `phase`.
    cat: &'static str,
    /// Start, in microseconds since the tracer's origin.
    start_us: f64,
    /// Duration in microseconds.
    dur_us: f64,
    /// Id of the cell the span belongs to (0 for workload spans).
    cell: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    cell: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recorder, off until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer { enabled: false, origin: Instant::now(), cell: 0, spans: Vec::new() }
    }

    /// Switches recording on or off (untraced passes of a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Starts a new cell: later phase spans carry its id.
    pub fn begin_cell(&mut self) {
        self.cell += 1;
    }

    fn push(&mut self, name: String, cat: &'static str, start: Instant, end: Instant, cell: u64) {
        if self.enabled {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let (start_us, end_us) = (us(start), us(end));
            self.spans.push(Span { name, cat, start_us, dur_us: end_us - start_us, cell });
        }
    }

    /// Records a phase span of the current cell.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(name.to_string(), "phase", start, end, self.cell);
    }

    /// Records the current cell's span.
    pub fn cell_span(&mut self, id: &str, start: Instant, end: Instant) {
        self.push(id.to_string(), "cell", start, end, self.cell);
    }

    /// Records a workload pass span.
    pub fn workload_span(&mut self, name: &str, start: Instant, end: Instant) {
        self.push(name.to_string(), "workload", start, end, 0);
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&s.name)),
                    ("cat".into(), Json::str(s.cat)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::Num(s.start_us)),
                    ("dur".into(), Json::Num(s.dur_us)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    ("args".into(), Json::Obj(vec![("cell".into(), Json::Num(s.cell as f64))])),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }
}
