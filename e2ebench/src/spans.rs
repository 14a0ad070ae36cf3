//! In-memory spans around the benchmark's calls into each layer.
//!
//! Each worker thread owns a [`Recorder`]. A span records its name, the
//! request it belongs to, its start and end, and the span that was open
//! when it began (its parent). Nothing is written while the benchmark
//! runs; the spans are reduced to per-layer figures when it ends.

use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call or structural scope, e.g. `protocol.parse_request`.
    pub name: &'static str,
    /// The request (or op) this span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; pass it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

/// Records spans for one thread. A disabled recorder records nothing, so
/// the same replay code serves traced and untraced requests.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    request: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch`, enabled.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: true,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; switch only between requests, with no
    /// span open.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "switched with a span open");
        self.enabled = enabled;
    }

    /// Tags every span begun from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end = self.now();
        self.spans[index].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The finished spans, in the order they began.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, index for index: its duration minus the part
/// of its interval that its children cover. Children are clipped to the
/// parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// A span reduced to what the per-layer figures need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// Span name.
    pub name: &'static str,
    /// Request (or op) id.
    pub request: u64,
    /// Wall duration, ns.
    pub duration: u64,
    /// Duration minus the time children cover, ns.
    pub self_time: u64,
}

/// Reduces the spans of several recorders (one per thread) to
/// [`Timed`] records.
pub fn flatten(per_thread: Vec<Vec<Span>>) -> Vec<Timed> {
    let mut out = Vec::new();
    for spans in per_thread {
        let selfs = self_times(&spans);
        out.extend(spans.iter().zip(selfs).map(|(s, self_time)| Timed {
            name: s.name,
            request: s.request,
            duration: s.duration(),
            self_time,
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 20, 30),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("x", Some(0), 10, 50),
            span("y", Some(0), 30, 70),
            span("z", Some(0), 90, 130),
        ];
        // Covered: [10, 70) and [90, 100) = 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_request(7);
        let op = rec.begin("op");
        rec.time("child", || std::hint::black_box(3));
        rec.end(op);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Recorder::new(Instant::now());
        off.set_enabled(false);
        let id = off.begin("op");
        off.end(id);
        assert!(off.into_spans().is_empty());
    }
}
