//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. No product file carries a span for this benchmark.

use std::cell::{Cell, RefCell};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Marks "no span" (a root's parent, or a span begun while recording is
/// off).
pub const NONE: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to, or is a probe for.
    pub op: u32,
    /// Index of the enclosing span in the recording, [`NONE`] for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What workload code records into. The untraced run uses [`Off`], which
/// compiles to nothing; the traced run uses a [`Recorder`].
pub trait Tracer {
    /// Whether spans are being kept right now.
    fn on(&self) -> bool;
    /// Starts the next operation: spans begun from here on carry its id.
    fn next_op(&self);
    fn begin(&self, name: &'static str) -> u32;
    fn end(&self, id: u32);
}

/// The tracer of the untraced run.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn on(&self) -> bool {
        false
    }
    #[inline(always)]
    fn next_op(&self) {}
    #[inline(always)]
    fn begin(&self, _: &'static str) -> u32 {
        NONE
    }
    #[inline(always)]
    fn end(&self, _: u32) {}
}

/// Keeps spans in memory; they are written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    on: Cell<bool>,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Recorder {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            on: Cell::new(false),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for Recorder {
    fn on(&self) -> bool {
        self.on.get()
    }

    fn next_op(&self) {
        self.op.set(self.op.get().wrapping_add(1));
    }

    fn begin(&self, name: &'static str) -> u32 {
        if !self.on.get() {
            return NONE;
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            op: self.op.get(),
            parent: open.last().copied().unwrap_or(NONE),
            start_ns: 0,
            end_ns: 0,
        });
        open.push(id);
        // The clock is read last on the way in and first on the way out, so
        // the bookkeeping lands in the parent's self time, not in this span.
        spans[id as usize].start_ns = self.now_ns();
        id
    }

    fn end(&self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = now;
        let mut open = self.open.borrow_mut();
        debug_assert_eq!(open.last(), Some(&id), "spans close innermost first");
        open.pop();
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted once;
/// the part of a child outside its parent's interval is ignored; a span
/// whose parent index is not in the recording is a root.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Share of the `op` spans' wall time that named child spans account for:
/// 1 − Σ self time ÷ Σ duration over spans called `op`.
pub fn closure_ratio(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&selfs) {
        if s.name == "op" {
            own += own_ns;
            total += s.dur_ns();
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - own as f64 / total as f64
}

/// Writes one JSON object per span, in recording order; a span's `id` is
/// its line number from 0, and `parent` refers to that (−1 for a root).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        let spans = vec![
            span("op", NONE, 0, 100),     // 0: children cover 10..60 and 70..100
            span("pan.send", 0, 10, 50),  // 1: child covers 20..40
            span("core.send", 1, 20, 40), // 2: leaf
            span("pan.recv", 0, 40, 60),  // 3: overlaps span 1 on 40..50
            span("pan.late", 0, 70, 120), // 4: runs past its parent's end
            span("orphan", 77, 5, 15),    // 5: parent not in the recording
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (50 - 10) - (60 - 50) - (100 - 70));
        assert_eq!(own[1], 40 - 20);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 20);
        assert_eq!(own[4], 50);
        assert_eq!(own[5], 10, "a span with a missing parent is a root");
        let ratio = closure_ratio(&spans);
        assert!((ratio - 0.8).abs() < 1e-12, "{ratio}");
    }

    #[test]
    fn closure_of_nothing_is_zero() {
        assert_eq!(closure_ratio(&[]), 0.0);
        assert_eq!(closure_ratio(&[span("pan.send", NONE, 0, 10)]), 0.0);
    }

    #[test]
    fn recorder_nests_and_respects_the_switch() {
        let rec = Recorder::new();
        assert_eq!(rec.begin("ignored"), NONE, "off until switched on");
        rec.end(NONE);
        rec.set_on(true);
        rec.next_op();
        let op = rec.begin("op");
        let inner = rec.begin("pan.send");
        rec.end(inner);
        rec.end(op);
        rec.next_op();
        let probe = rec.begin("control.pathdb.paths");
        rec.end(probe);
        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (NONE, 0, NONE)
        );
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
