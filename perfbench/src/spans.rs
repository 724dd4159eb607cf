//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans are opened and closed by the benchmark's own code only — never
//! inside the simulator, and never per analysis callback — so a traced run
//! executes exactly the same program as an untraced one. They are kept in
//! memory and written out once, when the benchmark ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span: a named interval and its parent.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called, e.g. `run.aikido.w1`.
    pub name: String,
    /// The preset the span belongs to, empty for whole-round spans.
    pub preset: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at the top level.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>, preset: &str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            preset: preset.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an enter/exit imbalance in the caller).
    pub fn exit(&mut self) -> Duration {
        let id = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(span.duration_ns())
    }

    /// Runs `f` inside a span and returns its result and the span's duration.
    pub fn span<T>(&mut self, name: &str, preset: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name, preset);
        let out = f();
        (out, self.exit())
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serialises the spans, with their self times, as a JSON array.
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("[");
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"preset\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
                s.name, s.preset, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted once and
/// children are clipped to their parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            preset: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(100, 200, None),
            span(90, 130, Some(0)),
            span(120, 150, Some(0)),
            span(190, 260, Some(0)),
        ];
        // Children cover [100, 150) and [190, 200) of the parent.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_reports_durations() {
        let mut t = Tracer::default();
        t.enter("round", "");
        let (value, inner) = t.span("run.native.w1", "raytrace", || 7);
        let outer = t.exit();
        assert_eq!(value, 7);
        assert!(outer >= inner);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].preset, "raytrace");
        let own = self_times(spans);
        assert_eq!(own[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(t.to_json().contains("\"name\":\"run.native.w1\""));
    }
}
