//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer's public API; the program itself is not
//! instrumented. A span's layer is the part of its name before the
//! first dot (`drc.check` belongs to `drc`). Spans named without a dot
//! (`pass`, `job`, `request`) are benchmark glue: their self time is the
//! untraced remainder.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Job or request id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer this span is charged to; glue spans yield `None`.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Records spans of one thread. Not `Sync`: each client thread owns one.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    id: Cell<u64>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            id: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Sets the job or request id stamped on spans opened from now on.
    pub fn set_id(&self, id: u64) {
        self.id.set(id);
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent,
            id: self.id.get(),
        });
        let idx = spans.len() - 1;
        self.open.borrow_mut().push(idx);
        idx
    }

    /// Closes span `idx` (the innermost open one), optionally renaming
    /// it now that its outcome is known (`incr.hit` vs `incr.miss`).
    pub fn close(&self, idx: usize, name: Option<&'static str>) {
        let end = self.now_us();
        let top = self.open.borrow_mut().pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_us = end;
        if let Some(name) = name {
            spans[idx].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let out = f();
        self.close(idx, None);
        out
    }

    /// Adds `value` to the counter `name` (a count a layer's public API
    /// returned).
    pub fn add(&self, name: &'static str, value: f64) {
        *self.counters.borrow_mut().entry(name).or_insert(0.0) += value;
    }

    /// Removes and returns every span and counter recorded so far.
    pub fn take(&self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        debug_assert!(self.open.borrow().is_empty());
        (
            std::mem::take(&mut *self.spans.borrow_mut()),
            std::mem::take(&mut *self.counters.borrow_mut()),
        )
    }
}

/// Self time (span minus its children) per span, in microseconds.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

/// Running sums over recorded spans: self time per layer (glue charged
/// to `untraced`) and per span name with its count, the wall time the
/// root spans cover, and the counters. Layer self times sum to the root
/// spans' wall time.
#[derive(Default)]
pub struct Totals {
    layer_ms: BTreeMap<&'static str, f64>,
    named: BTreeMap<&'static str, (f64, u64)>,
    pub root_ms: f64,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Totals {
    pub fn of(spans: &[Span], counters: &BTreeMap<&'static str, f64>) -> Totals {
        let mut t = Totals::default();
        t.add(spans, counters);
        t
    }

    pub fn add(&mut self, spans: &[Span], counters: &BTreeMap<&'static str, f64>) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let layer = s.layer().unwrap_or("untraced");
            *self.layer_ms.entry(layer).or_insert(0.0) += own / 1e3;
            let named = self.named.entry(s.name).or_insert((0.0, 0));
            named.0 += own / 1e3;
            named.1 += 1;
        }
        self.root_ms += root_ms(spans);
        for (name, v) in counters {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn merge(&mut self, other: &Totals) {
        for (layer, ms) in &other.layer_ms {
            *self.layer_ms.entry(layer).or_insert(0.0) += ms;
        }
        for (name, (ms, n)) in &other.named {
            let named = self.named.entry(name).or_insert((0.0, 0));
            named.0 += ms;
            named.1 += n;
        }
        self.root_ms += other.root_ms;
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Self time (ms) of a layer.
    pub fn layer(&self, layer: &str) -> f64 {
        self.layer_ms.get(layer).copied().unwrap_or(0.0)
    }

    /// Self time (ms) and count of the spans named exactly `name`.
    pub fn named(&self, name: &str) -> (f64, u64) {
        self.named.get(name).copied().unwrap_or((0.0, 0))
    }
}

/// Appends `src` to `dst`, re-basing its parent indices.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Total duration (ms) of the root spans: the wall time they cover.
pub fn root_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_us)
        .sum::<f64>()
        / 1e3
}

/// Appends spans as JSON lines, `group` naming the pass or client.
pub fn write_jsonl(out: &mut String, group: usize, spans: &[Span]) {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"group\":{group},\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
            s.name, s.id, s.start_us, s.end_us
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_add_up_to_the_root() {
        let rec = Recorder::new(Instant::now());
        rec.span("pass", || {
            rec.span("incr.miss", || {
                rec.span("drc.check", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            rec.span("cif.write", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let (spans, counters) = rec.take();
        let totals = Totals::of(&spans, &counters);
        let sum: f64 = totals.layer_ms.values().sum();
        assert!((sum - totals.root_ms).abs() < 1e-6);
        assert!(totals.layer("drc") >= 2.0 && totals.layer("cif") >= 1.0);
        assert_eq!(totals.named("incr.miss").1, 1);
        assert_eq!(spans[2].parent, Some(1));
    }
}
