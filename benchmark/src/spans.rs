//! The benchmark's own spans: recorded around its calls into each layer's
//! public functions, kept in memory, written to `spans.jsonl` at exit.
//! Spans inside the program are a later change.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one operation (request or frame) share this.
    pub op_id: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log, shared by the generator's client threads.
pub struct Recorder {
    epoch: Instant,
    /// Flipped per block in a traced run, so traced and untraced blocks
    /// interleave and their difference is the tracing overhead.
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        // publishes nothing: a span racing the flip is recorded or not
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; `None` while recording is off. Close it with
    /// [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> Option<SpanId> {
        if !self.is_on() {
            return None;
        }
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span { name, start_us, end_us: start_us, parent, op_id });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_us = self.now_us();
            self.spans.lock().expect("no span holder panics")[id].end_us = end_us;
        }
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent, op_id);
        let value = f(id);
        self.close(id);
        value
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_us, s.end_us, s.op_id
            )?;
        }
        w.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover (children of concurrent clients may overlap, so
/// the cover is the union of their intervals, clipped to the parent).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (s.start_us.max(spans[p].start_us), s.end_us.min(spans[p].end_us));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Per-name totals for the traced run's listing: (name, count, total µs,
/// self µs), in first-seen order.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_us(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_us();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_us(), own)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span { name, start_us: start, end_us: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("block", 0.0, 100.0, None),
            span("request", 10.0, 50.0, Some(0)),
            span("request", 30.0, 70.0, Some(0)), // overlaps the first
            span("request", 80.0, 120.0, Some(0)), // clipped to the parent
            span("submit", 10.0, 15.0, Some(1)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![100.0 - 60.0 - 20.0, 35.0, 40.0, 40.0, 5.0]);
        let rows = summary(&spans);
        assert_eq!(rows[0], ("block", 1, 100.0, 20.0));
        assert_eq!(rows[1], ("request", 3, 120.0, 115.0));
    }

    #[test]
    fn recorder_records_only_while_on_and_links_parents() {
        let r = Recorder::new();
        assert_eq!(r.span("off", None, 1, |id| id), None);
        r.set_on(true);
        let inner = r.span("outer", None, 7, |outer| r.span("inner", outer, 7, |id| id));
        r.set_on(false);
        let spans = r.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op_id), ("outer", None, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(inner, Some(1));
        assert!(spans[0].end_us >= spans[1].end_us && spans[1].dur_us() >= 0.0);
    }
}
