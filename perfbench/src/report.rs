//! Turns recorded spans and counters into the per-layer metrics.

use crate::spans::Totals;
use std::collections::BTreeMap;

/// Metric name → value; units come from `BENCHMARK.json`.
pub type Metrics = BTreeMap<String, f64>;

/// The layers a share is reported for, in table order. `untraced` is
/// the glue remainder.
pub const LAYERS: &[&str] = &[
    "lang", "layout", "drc", "cif", "extract", "netlist", "pnr", "rtl", "exec", "synth", "logic",
    "pla", "verify", "incr", "serve", "untraced",
];

/// Counters the twins record, reported under the same name.
const COUNTS: &[&str] = &[
    "layout.rects",
    "cif.bytes",
    "extract.transistors",
    "pnr.cells",
    "pnr.ripup_rounds",
    "pnr.wirelength",
    "exec.ops",
    "synth.control_terms",
    "pla.terms",
    "verify.sim_rounds",
    "verify.exact_decided",
];

/// Per-layer metrics of `t` (one pass, or many requests when `per` is
/// their count): self times in ms divided by `per`, counts divided by
/// `per`, mean incr query costs in µs, and each layer's share of the
/// covered wall time.
pub fn layer_metrics(t: &Totals, per: f64) -> Metrics {
    let layer = |name: &str| t.layer(name);
    let named = |name: &str| t.named(name).0;
    let mut m = Metrics::new();
    let times = [
        ("lang.elaborate_ms", named("lang.elaborate")),
        ("layout.flatten_ms", layer("layout")),
        ("drc.check_ms", layer("drc")),
        ("cif.write_ms", layer("cif")),
        ("extract.extract_ms", layer("extract")),
        ("netlist.signature_ms", named("netlist.signature")),
        ("netlist.lvs_ms", named("netlist.lvs")),
        ("pnr.route_ms", named("pnr.place_and_route")),
        ("rtl.parse_ms", layer("rtl")),
        ("exec.compile_ms", named("exec.compile")),
        ("exec.run_ms", named("exec.run")),
        ("synth.allocate_ms", layer("synth")),
        ("logic.minimize_ms", layer("logic")),
        ("pla.layout_ms", layer("pla")),
        ("verify.check_ms", layer("verify")),
        ("untraced_ms", layer("untraced")),
        ("pass_ms", t.root_ms),
    ];
    for (name, ms) in times {
        m.insert(name.into(), ms / per);
    }
    for name in COUNTS {
        m.insert(
            (*name).into(),
            t.counters.get(name).copied().unwrap_or(0.0) / per,
        );
    }
    let cycles = t.counters.get("exec.cycles").copied().unwrap_or(0.0);
    m.insert("exec.mcycles".into(), cycles / 1e6 / per);
    let (hit_ms, hits) = t.named("incr.hit");
    let (miss_ms, misses) = t.named("incr.miss");
    let mean_us = |ms: f64, n: u64| if n == 0 { 0.0 } else { ms * 1e3 / n as f64 };
    m.insert("incr.hit_us".into(), mean_us(hit_ms, hits));
    m.insert("incr.miss_overhead_us".into(), mean_us(miss_ms, misses));
    if hits + misses > 0 {
        m.insert(
            "incr.hit_ratio".into(),
            hits as f64 / (hits + misses) as f64,
        );
    }
    for name in LAYERS {
        m.insert(format!("{name}.share"), layer(name) / t.root_ms.max(1e-9));
    }
    m
}
