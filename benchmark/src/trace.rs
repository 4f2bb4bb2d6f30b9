//! In-memory span recorder for the traced run.
//!
//! Spans come only from `benchmark/` code timing public functions of the
//! product: around every `submit`/`wait`, with `serve.queued` /
//! `serve.serviced` children synthesised from the returned completion,
//! and around every direct call of the layer replays. They are kept in
//! memory and written to `benchmark/out/trace.json` when the run ends.
//! A span's self time is its duration minus what its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Reference to a recorded span (`NONE` = no parent / recording off).
pub type SpanId = u32;
pub const NONE: SpanId = 0;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `NONE` or 1 + the index of the parent span.
    pub parent: SpanId,
    /// Spans of one request share this; 0 for layer replays.
    pub request: u64,
}

/// Most per-request spans [`Tracer::write_json`] lists one by one.
pub const MAX_REQUEST_SPANS_WRITTEN: usize = 100_000;

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Record a finished span; a no-op returning `NONE` when off.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Time `f`, record it as a span when on, and return its result and
    /// duration in nanoseconds (measured either way).
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, 0);
        (out, end - start)
    }

    /// Start a span that encloses the ones recorded until [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now();
        self.push(name, now, now, parent, 0)
    }

    /// End a span started by [`Self::open`].
    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize - 1].end_ns = self.now();
        }
    }

    /// Duration of a recorded span (0 for `NONE`).
    pub fn span_ns(&self, id: SpanId) -> u64 {
        if id == NONE {
            return 0;
        }
        let s = &self.spans[id as usize - 1];
        s.end_ns - s.start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total ns, self ns)`, self = total minus
    /// the time covered by direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let row = by_name.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(covered);
        }
        by_name
    }

    /// Write `{"spans_total", "spans": [...], "summary": {...}}` to
    /// `path`. The summary covers every span; the list holds every
    /// ladder span but only the first [`MAX_REQUEST_SPANS_WRITTEN`]
    /// request spans (a saturated run records several hundred thousand
    /// alike).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"spans_total\":{},\"spans\":[", self.spans.len())?;
        let mut request_spans = 0usize;
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.request != 0 {
                request_spans += 1;
                if request_spans > MAX_REQUEST_SPANS_WRITTEN {
                    continue;
                }
            }
            if !std::mem::take(&mut first) {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.write_all(b"\n],\"summary\":{")?;
        for (i, (name, (count, total, own))) in self.summary().into_iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        out.write_all(b"\n}}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.push("root", 0, 100, NONE, 1);
        t.push("child", 10, 40, root, 1);
        t.push("child", 50, 70, root, 1);
        let s = t.summary();
        assert_eq!(s["root"], (1, 100, 50));
        assert_eq!(s["child"], (2, 50, 50));
        assert_eq!(t.span_ns(root), 100);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.push("x", 0, 1, NONE, 0), NONE);
        assert_eq!(t.timed("y", NONE, || 7).0, 7);
        assert_eq!(t.len(), 0);
    }
}
