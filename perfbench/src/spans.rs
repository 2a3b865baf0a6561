//! The benchmark's own host-time span log. Spans are recorded from the
//! benchmark's code around public calls into each layer (the program
//! itself is not instrumented), kept in memory, and written out once at
//! the end of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `owner` is the device or session the span belongs
/// to; every span of one device shares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Index of the span in its log.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, such as `core.step` or `ml.stt`.
    pub name: &'static str,
    /// Device or session id.
    pub owner: u64,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
}

impl SpanTotals {
    /// Mean duration in µs (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// An in-memory span log with an explicit open-span stack.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, owner: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            name,
            owner,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, owner: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, owner);
        let value = f();
        self.exit(id);
        value
    }

    /// Records an already measured leaf span that ended now.
    pub fn record(&mut self, name: &'static str, owner: u64, duration_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(SpanRecord {
            id: self.spans.len() as u32,
            parent: self.open.last().copied(),
            name,
            owner,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
        });
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Count and total duration per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
        }
        totals
    }

    /// The log as a JSON document: one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"owner\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
                s.id,
                parent,
                s.name,
                s.owner,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_name() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer", 7);
        log.leaf("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.record("inner", 7, 1_000);
        log.exit(outer);
        let totals = log.totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["inner"].count, 2);
        assert!(totals["inner"].total_ns >= 2_001_000);
        assert!(totals["outer"].total_ns >= totals["inner"].total_ns - 1_000);
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(log.spans()[2].parent, Some(0));
        assert!(log.to_json().contains("\"name\":\"inner\""));
    }
}
