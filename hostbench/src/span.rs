//! In-memory spans around calls into the measured crates.
//!
//! A span records name, start, end, parent and op id. Spans are kept in a
//! thread-local buffer while the run lasts and written out once at the
//! end. Recording is off unless [`start`] armed it, so the untraced run
//! pays one thread-local flag read per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since [`start`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the buffer, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to; `None` for set-up and probes.
    pub op: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: None,
    });
}

/// Arms (or disarms) span recording on this thread.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Whether spans are being recorded on this thread outside any op.
pub fn recording_outside_ops() -> bool {
    REC.with(|r| {
        let r = r.borrow();
        r.on && r.op.is_none()
    })
}

/// Starts recording with an empty buffer.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.op = None;
    });
}

/// Tags spans opened from now on with `op` (`None` outside ops).
pub fn set_op(op: Option<u64>) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let op = r.op;
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        let i = r.spans.len() - 1;
        r.open.push(i);
        Some(i)
    });
    let out = f();
    if let Some(i) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[i].end = end;
            r.open.pop();
        });
    }
    out
}

/// Stops recording and hands back every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Per span, the time its direct children cover.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ns();
        }
    }
    child
}

/// Self time per span name: each span's duration minus the part of its
/// interval its direct children cover. Only spans with an op id count,
/// so set-up and probes do not dilute the per-op figures.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let child_ns = child_ns(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.op.is_some() {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(child_ns[i]);
        }
    }
    out
}

/// For each op span called `root`, the share of its wall time that its
/// direct children cover.
pub fn coverage(spans: &[Span], root: &str) -> Vec<f64> {
    let child_ns = child_ns(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && s.ns() > 0)
        .map(|(i, s)| child_ns[i] as f64 / s.ns() as f64)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = s.op.map_or("null".to_string(), |o| o.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
            s.name, s.start, s.end
        )?;
    }
    w.flush()
}
