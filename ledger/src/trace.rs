//! An in-memory span recorder for the traced pass.
//!
//! The benchmark wraps its calls into each layer's public functions in
//! [`Recorder::span`]. Spans stay in memory while the workload runs and
//! are written out once, as Chrome trace-event JSON, when it has ended.
//! A layer's *self time* is its spans' duration minus the part of that
//! interval their child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list; spans
/// of one operation share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Per-name totals over all recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

pub struct Recorder {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Indices of the spans currently open, innermost last.
    open: RefCell<Vec<u32>>,
    op: Cell<u64>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switch recording on or off between operations.
    pub fn set_enabled(&self, enabled: bool) {
        debug_assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.enabled.set(enabled);
    }

    /// Begin the next operation: spans recorded from now on carry its id.
    pub fn next_op(&self) -> u64 {
        self.op.set(self.op.get() + 1);
        self.op.get()
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. With the recorder off this is a plain call.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            index
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time, total time and span count per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += self_ns;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.count += 1;
        }
        out
    }

    /// The first `limit` spans as Chrome trace-event JSON (complete `X`
    /// events, microsecond timestamps, one event to a line), loadable in
    /// `chrome://tracing` and Perfetto. `pid` is the process the viewer
    /// files them under.
    pub fn chrome_json(&self, limit: usize, pid: usize) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"ledger\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
                span.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span, in input order: its duration minus the union
/// of its children's intervals, each clipped to the span. Children may
/// overlap one another (work fanned out under one parent); the union
/// counts the covered part once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let parent_span = &spans[parent as usize];
            let start = span.start_ns.max(parent_span.start_ns);
            let end = span.end_ns.min(parent_span.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("op", 0, 100, None),
            span("parse", 10, 40, Some(0)),
            span("lex", 15, 25, Some(1)),
            span("plan", 50, 90, Some(0)),
        ];
        // op: 100 - (30 + 40); parse: 30 - 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_the_covered_part_once() {
        let spans = [
            span("fanout", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 80, Some(0)),
            span("worker", 45, 50, Some(0)), // inside the union already
            span("late", 90, 130, Some(0)),  // clipped to the parent's end
        ];
        // Union of children inside the parent: [10, 80) and [90, 100).
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_can_be_switched_off() {
        let recorder = Recorder::new(true);
        let op = recorder.next_op();
        let value = recorder.span("outer", || recorder.span("inner", || 7));
        assert_eq!(value, 7);
        recorder.set_enabled(false);
        recorder.span("ignored", || ());
        assert_eq!(recorder.span_count(), 2);

        let spans = recorder.spans.borrow();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == op && s.end_ns >= s.start_ns));
        drop(spans);

        let times = recorder.layer_times();
        assert_eq!(times["outer"].count, 1);
        assert_eq!(
            times["outer"].self_ns + times["inner"].self_ns,
            times["outer"].total_ns
        );
        let json = recorder.chrome_json(usize::MAX, 1);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"ph\":\"X\""));
    }
}
