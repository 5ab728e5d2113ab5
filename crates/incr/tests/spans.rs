//! The netlist signature, the pnr LVS gate and placement each run
//! inside a span of their own, so `--stats`/`--trace` attribute their
//! time instead of leaving it in the untraced remainder.

use silc_incr::{compile_sil, pnr_sil, CompileOptions, Engine, EngineConfig, JobStats};
use silc_trace::Tracer;

/// Four stacked transistors: the CI pnr smoke design.
const COLUMN: &str = "cell inv() {
        box diff (0, 0) (4, 30);
        box poly (-4, 8) (8, 10);
        box poly (-4, 20) (8, 22);
        box implant (-2, 18) (6, 24);
        box contact (1, 14) (3, 16);
        box metal (0, 13) (12, 17);
    }
    cell column(n) { array inv() at (0, 0) step (0, 0) (0, 36) count 1 n; }
    place column(4) at (0, 0);";

#[test]
fn signature_lvs_and_placement_are_traced() {
    let tracer = Tracer::enabled();
    let engine = Engine::new(EngineConfig {
        tracer: tracer.clone(),
        ..EngineConfig::default()
    })
    .expect("in-memory engine");
    let mut stats = JobStats::default();
    let options = CompileOptions {
        extract: true,
        ..CompileOptions::default()
    };
    compile_sil(&engine, COLUMN, &options, &mut stats).expect("column compiles");
    pnr_sil(&engine, COLUMN, "mead-conway-nmos", false, &mut stats).expect("column routes");
    let report = tracer.finish();
    for stage in ["netlist.signature", "netlist.lvs", "pnr.place"] {
        assert!(
            report.spans().iter().any(|s| s.name == stage),
            "no `{stage}` span in {:?}",
            report.spans().iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
}
