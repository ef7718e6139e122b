//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::time`], traced or not, so the
//! untraced and traced passes execute the same code; tracing only adds
//! the in-memory span record, which is written out once the pass ends.

use lnoc_bench::json::Obj;
use std::time::Instant;

/// One timed call: its layer-qualified name, the span that enclosed it,
/// and its start and end in seconds since the pass began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, returning its value and its wall time in seconds; when
    /// tracing, records a span named `name` under the innermost open span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
            });
            let idx = self.spans.len() - 1;
            self.open.push(idx);
            idx
        });
        let start = Instant::now();
        let value = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(idx) = slot {
            self.open.pop();
            self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        }
        (value, secs)
    }

    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                Obj::new()
                    .str("name", &s.name)
                    .raw("parent", parent)
                    .raw("start_s", crate::num(s.start_s))
                    .raw("end_s", crate::num(s.end_s))
                    .build()
            })
            .collect();
        // One line: the span list travels inside the pass's record.
        format!("[{}]", items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans() {
        let mut tr = Tracer::new(true);
        let ((), outer) = tr.time("outer", |tr| {
            tr.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(outer >= 0.002);
        assert!(tr.spans[1].end_s - tr.spans[1].start_s <= tr.spans[0].end_s - tr.spans[0].start_s);
    }

    #[test]
    fn untraced_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans.is_empty());
    }
}
