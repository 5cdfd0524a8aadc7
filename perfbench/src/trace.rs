//! The benchmark's own spans: recorded around the calls it makes into each
//! layer, kept in memory, and written out when the run ends.
//!
//! Nothing here reaches inside the program. Phase spans come from
//! [`Timed`], which wraps any [`PhaseExecutor`] the benchmark hands to
//! `build_over` or `run_traffic_over`; where no executor seam exists
//! (`build_under_faults`), [`Tracer::derived`] records the phase durations the
//! program already reports in `BuildReport::phase_metrics[].wall`.

use overlay_core::{ExecutedPhase, Phase, PhaseExecSpec, PhaseExecutor, Summarize};
use overlay_netsim::wire::Wire;
use overlay_scenarios::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The operation id of spans recorded outside any measured operation
/// (set-up, reference builds).
pub const NO_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed (a call or a pipeline phase name).
    pub name: &'static str,
    /// The layer the time is attributed to.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created. `None` for a
    /// derived span, whose duration the program reported but whose start
    /// the benchmark did not observe.
    pub start_ns: Option<u64>,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The measured operation this span belongs to ([`NO_OP`] outside one).
    pub op: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing; its
/// calls cost a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(NO_OP),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span recorded until the next call with operation `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name`, attributed to `layer`.
    pub fn span<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: Some(nanos(start - self.origin)),
                dur_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].dur_ns = nanos(start.elapsed());
        out
    }

    /// Records a child of the innermost open span whose duration was
    /// measured by the program, not by the benchmark.
    pub fn derived(&self, name: &'static str, layer: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            layer,
            start_ns: None,
            dur_ns: nanos(dur),
            parent,
            op: self.op.get(),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns);
        }
    }
    out
}

/// Per-layer self time, in seconds, summed over the spans of measured
/// operations, plus the summed duration of the operation spans themselves
/// (the roots whose layer self times must add up to them).
pub fn layer_self_seconds(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let selfs = self_times(spans);
    let mut layers = BTreeMap::new();
    let mut roots = 0.0;
    for (s, own) in spans.iter().zip(selfs) {
        if s.op == NO_OP {
            continue;
        }
        *layers.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        if s.parent.is_none() {
            roots += s.dur_ns as f64 * 1e-9;
        }
    }
    (layers, roots)
}

/// Summed duration, in seconds, of the operation spans named `name` in
/// `layer`; with `own`, their self time instead.
pub fn total_seconds(spans: &[Span], name: &str, layer: &str, own: bool) -> f64 {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.op != NO_OP && s.name == name && s.layer == layer)
        .map(|(s, o)| if own { o } else { s.dur_ns } as f64 * 1e-9)
        .sum()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
    for (i, s) in spans.iter().enumerate() {
        let span = Json::obj(vec![
            ("id", Json::UInt(i as u64)),
            ("name", Json::Str(s.name.into())),
            ("layer", Json::Str(s.layer.into())),
            ("start_ns", opt(s.start_ns)),
            ("end_ns", opt(s.start_ns.map(|t| t + s.dur_ns))),
            ("dur_ns", Json::UInt(s.dur_ns)),
            ("parent", opt(s.parent.map(|p| p as u64))),
            ("op", opt((s.op != NO_OP).then_some(s.op))),
        ]);
        writeln!(out, "{}", span.render())?;
    }
    out.flush()
}

/// A [`PhaseExecutor`] that records one span per executed phase, attributed
/// to the medium the inner executor runs on, and otherwise forwards the call.
pub struct Timed<'t, E> {
    pub inner: E,
    tracer: &'t Tracer,
    layer: &'static str,
}

impl<'t, E> Timed<'t, E> {
    pub fn new(inner: E, tracer: &'t Tracer, layer: &'static str) -> Self {
        Timed {
            inner,
            tracer,
            layer,
        }
    }
}

impl<E: PhaseExecutor> PhaseExecutor for Timed<'_, E> {
    type Error = E::Error;

    fn execute<P: Summarize + Send>(
        &mut self,
        phase: Phase<P>,
        spec: PhaseExecSpec,
    ) -> Result<ExecutedPhase<P::Summary>, Self::Error>
    where
        P::Message: Wire + Send,
    {
        let inner = &mut self.inner;
        self.tracer
            .span(phase.id().name(), self.layer, || inner.execute(phase, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_add_up_to_the_operation_span() {
        let t = Tracer::new(true);
        t.set_op(0);
        t.span("op", "bench", || {
            t.span("build", "core", || {
                t.span("create-expander", "netsim", || {
                    std::thread::sleep(Duration::from_millis(3))
                });
                // A phase the program timed: its duration lies inside the build.
                std::thread::sleep(Duration::from_millis(2));
                t.derived("bfs", "netsim", Duration::from_millis(1));
            });
            std::thread::sleep(Duration::from_millis(1));
        });
        let spans = t.spans();
        let (layers, roots) = layer_self_seconds(&spans);
        let sum: f64 = layers.values().sum();
        assert!((sum - roots).abs() < 1e-9, "{layers:?} vs {roots}");
        assert!(layers["netsim"] >= 0.004 - 1e-9);
        assert!(total_seconds(&spans, "create-expander", "netsim", false) >= 0.003);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("op", "bench", || 7), 7);
        t.derived("bfs", "netsim", Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
