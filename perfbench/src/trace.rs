//! Bench-side tracing: spans recorded around calls into the library.
//!
//! Spans live in memory on the tracing thread and are written out once,
//! when the benchmark ends. A span's self time is its duration minus the
//! time its child spans cover; per-layer figures sum self times, so a
//! container (a residual unit, a stack) contributes only its own glue.
//! With no tracer installed every hook is a single thread-local check.

use pelican_nn::{Layer, Mode, Param};
use pelican_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. `parent` and `root` are span ids; a root span is its
/// own root and has parent 0 (ids start at 1).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub root: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u32,
    root: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Tracer {
    origin: Instant,
    next_id: u32,
    stack: Vec<Frame>,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (dropping any earlier ones).
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        })
    });
}

/// Stops recording and returns every closed span, in closing order.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// Whether a tracer is recording on this thread.
#[cfg(test)]
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

fn open() -> Option<()> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut()?;
        let id = tr.next_id;
        tr.next_id += 1;
        let root = tr.stack.last().map_or(id, |f| f.root);
        let start_ns = tr.origin.elapsed().as_nanos() as u64;
        tr.stack.push(Frame {
            id,
            root,
            start_ns,
            child_ns: 0,
        });
        Some(())
    })
}

fn close(name: &'static str) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tr) = t.as_mut() else { return };
        let end_ns = tr.origin.elapsed().as_nanos() as u64;
        let frame = tr.stack.pop().expect("span closed without being opened");
        let dur = end_ns - frame.start_ns;
        let parent = tr.stack.last_mut().map_or(0, |p| {
            p.child_ns += dur;
            p.id
        });
        tr.spans.push(Span {
            id: frame.id,
            parent,
            root: frame.root,
            name,
            start_ns: frame.start_ns,
            end_ns,
            self_ns: dur.saturating_sub(frame.child_ns),
        });
    });
}

/// Runs `f` with recording paused on this thread.
pub fn suspended<R>(f: impl FnOnce() -> R) -> R {
    let saved = TRACER.with(|t| t.borrow_mut().take());
    let r = f();
    TRACER.with(|t| *t.borrow_mut() = saved);
    r
}

/// Runs `f` inside a span named `name` (a no-op wrapper when untraced).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if open().is_none() {
        return f();
    }
    let r = f();
    close(name);
    r
}

/// The layer families per-layer metrics are reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BatchNorm,
    Conv1d,
    Gru,
    Dense,
    Dropout,
    /// Shape plumbing and cheap element-wise work: relu, maxpool1d,
    /// reshape, global average pooling, and the self time of containers
    /// (the residual shortcut add, stack bookkeeping).
    Glue,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Gru,
        Kind::Conv1d,
        Kind::BatchNorm,
        Kind::Dropout,
        Kind::Dense,
        Kind::Glue,
    ];

    /// The family's name in metric names (`nn.<family>.…`).
    pub fn family(self) -> &'static str {
        match self {
            Kind::BatchNorm => "batchnorm",
            Kind::Conv1d => "conv1d",
            Kind::Gru => "gru",
            Kind::Dense => "dense",
            Kind::Dropout => "dropout",
            Kind::Glue => "glue",
        }
    }

    /// Span names of a training forward, a backward and an Eval forward.
    fn names(self) -> [&'static str; 3] {
        match self {
            Kind::BatchNorm => [
                "nn.batchnorm.fwd",
                "nn.batchnorm.bwd",
                "nn.batchnorm.eval_fwd",
            ],
            Kind::Conv1d => ["nn.conv1d.fwd", "nn.conv1d.bwd", "nn.conv1d.eval_fwd"],
            Kind::Gru => ["nn.gru.fwd", "nn.gru.bwd", "nn.gru.eval_fwd"],
            Kind::Dense => ["nn.dense.fwd", "nn.dense.bwd", "nn.dense.eval_fwd"],
            Kind::Dropout => ["nn.dropout.fwd", "nn.dropout.bwd", "nn.dropout.eval_fwd"],
            Kind::Glue => ["nn.glue.fwd", "nn.glue.bwd", "nn.glue.eval_fwd"],
        }
    }
}

/// A transparent wrapper that records a span around every call into the
/// wrapped layer. Parameters, names and numerics are the inner layer's.
pub struct Timed<L: Layer> {
    kind: Kind,
    inner: L,
}

impl<L: Layer> Timed<L> {
    pub fn new(kind: Kind, inner: L) -> Self {
        Self { kind, inner }
    }
}

impl<L: Layer> Layer for Timed<L> {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let [fwd, _, eval] = self.kind.names();
        let name = if mode == Mode::Train { fwd } else { eval };
        span(name, || self.inner.forward(input, mode))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [_, bwd, _] = self.kind.names();
        span(bwd, || self.inner.backward(grad_out))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn param_layer_count(&self) -> usize {
        self.inner.param_layer_count()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }
}

/// Per-root sums of self time by span name: one map per root span whose
/// name is `root_name`, in closing order.
pub fn self_times_by_root(spans: &[Span], root_name: &str) -> Vec<BTreeMap<&'static str, u64>> {
    let mut roots: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.id == s.root && s.name == root_name)
    {
        roots.insert(s.id, BTreeMap::new());
    }
    for s in spans {
        if let Some(sums) = roots.get_mut(&s.root) {
            *sums.entry(s.name).or_default() += s.self_ns;
        }
    }
    roots.into_values().collect()
}

/// Durations (ns) of every root span named `root_name`, in closing order.
pub fn root_durations(spans: &[Span], root_name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.id == s.root && s.name == root_name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`, `self_ns`).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        install();
        span("root", || {
            span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        span("untraced.sibling", || {});
        let spans = take();
        assert!(!active());
        let by_root = self_times_by_root(&spans, "root");
        assert_eq!(by_root.len(), 1);
        let child = by_root[0]["child"];
        let root_self = by_root[0]["root"];
        assert!(child >= 5_000_000);
        assert!(root_self < child);
        assert_eq!(root_durations(&spans, "root").len(), 1);
    }
}
