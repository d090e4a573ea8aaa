//! In-memory span log for the traced run.
//!
//! A span is one call across a layer boundary: its name, host start and
//! end (nanoseconds since the log was opened), the span that was open
//! when it began (its parent), and the run it belongs to. Spans stay in
//! memory while the run executes and are written out once it has ended.
//!
//! A layer's *self time* is its spans' durations minus the part of each
//! interval that the span's children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary crossed (`drive`, `on_tick`, ...).
    pub name: &'static str,
    /// Host nanoseconds since the log was opened.
    pub start_ns: u64,
    /// Host nanoseconds since the log was opened.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run this span belongs to.
    pub run: u64,
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Log {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A cheap, cloneable handle to a span log. [`Tracer::off`] records
/// nothing and costs one branch per call.
#[derive(Clone, Debug)]
pub struct Tracer(Option<Rc<RefCell<Log>>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer whose spans carry `run` as their run id.
    pub fn on(run: u64) -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(Log {
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` become
    /// its children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(log) = &self.0 else {
            return f();
        };
        let id = {
            let mut l = log.borrow_mut();
            let span = Span {
                name,
                start_ns: l.now(),
                end_ns: 0,
                parent: l.open.last().copied(),
                run: l.run,
            };
            l.spans.push(span);
            let id = l.spans.len() - 1;
            l.open.push(id);
            id
        };
        let out = f();
        let mut l = log.borrow_mut();
        l.spans[id].end_ns = l.now();
        l.open.pop();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|l| l.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Total self time per span name: each span's duration minus the union
/// of its children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered(kids, s.start_ns, s.end_ns);
        *out.entry(s.name).or_insert(0) += dur - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Summed duration of the spans that have no parent.
pub fn root_time(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum()
}

/// Writes `spans` to `path`, one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        // drive [0, 100) holds two ticks [10, 30) and [50, 60); the first
        // tick holds a nested fault [15, 20).
        let spans = [
            span("drive", 0, 100, None),
            span("on_tick", 10, 30, Some(0)),
            span("on_fault", 15, 20, Some(1)),
            span("on_tick", 50, 60, Some(0)),
            span("fill_chunk", 100, 110, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["drive"], 100 - 20 - 10);
        assert_eq!(t["on_tick"], (20 - 5) + 10);
        assert_eq!(t["on_fault"], 5);
        assert_eq!(t["fill_chunk"], 10);
        assert_eq!(t.values().sum::<u64>(), root_time(&spans));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("drive", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)["drive"], 10);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let t = Tracer::on(7);
        let v = t.span("outer", || t.span("inner", || 3));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }
}
