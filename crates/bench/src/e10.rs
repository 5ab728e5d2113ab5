//! E10 — the place-and-route ablation: seeded random netlists routed
//! through `silc-pnr` at growing cell counts, each run checked three
//! ways (all nets routed, routed geometry DRC-clean, extraction
//! recovers the source connectivity) and timed serial vs parallel.
//!
//! The corpus is the same splitmix64-seeded generator the router's
//! proptests draw from, so every row replays bit-for-bit. The
//! serial/parallel pair also asserts the router's determinism contract:
//! both runs must emit byte-identical CIF, which is what lets the
//! incremental cache key P&R products on (netlist, stack, floorplan)
//! alone. Before timing, each point also holds the placement order and
//! the LVS signature to their quadratic oracles.

use silc_cif::CifWriter;
use silc_drc::RuleSet;
use silc_pnr::{
    gen::random_netlist, greedy_order_oracle, place, place_and_route, Floorplan, RouteStack,
};
use silc_trace::Tracer;
use std::time::Instant;

/// One (cells, seed) run of the corpus.
#[derive(Debug, Clone)]
pub struct PnrRow {
    /// Instances in the generated netlist.
    pub cells: usize,
    /// Generator seed.
    pub seed: u64,
    /// Cell sites per row in the squarish floorplan.
    pub per_row: usize,
    /// Multi-pin nets needing routing.
    pub nets: u64,
    /// Nets routed (must equal `nets`).
    pub routed: u64,
    /// Total routed wirelength in lambda.
    pub wirelength: u64,
    /// Vias dropped.
    pub vias: u64,
    /// Negotiation rounds run.
    pub rounds: u64,
    /// Rounds that ripped up and rerouted.
    pub ripup_rounds: u64,
    /// Serial routing wall time, microseconds.
    pub serial_us: u128,
    /// Parallel routing wall time, microseconds.
    pub parallel_us: u128,
    /// Serial and parallel CIF are byte-identical.
    pub identical: bool,
    /// Routed geometry passes the Mead–Conway rules.
    pub drc_clean: bool,
    /// Extraction of the routed layout structurally matches the source.
    pub lvs_ok: bool,
}

impl PnrRow {
    /// All three acceptance checks hold and every net routed.
    pub fn accepted(&self) -> bool {
        self.routed == self.nets && self.identical && self.drc_clean && self.lvs_ok
    }
}

/// The default corpus: (cells, seeds-per-size). Sizes stay inside the
/// router's verified convergence envelope — the negotiation loop is
/// proptest-clean through ~50 cells but the margin thins past 40, so
/// the largest corpus point is 40.
pub const CORPUS: &[(usize, u64)] = &[(4, 3), (8, 3), (12, 3), (16, 3), (24, 3), (32, 2), (40, 2)];

/// Routes one seeded netlist serial and parallel, with all checks.
///
/// # Panics
///
/// When the placement order or the netlist signature departs from its
/// quadratic oracle, checked before anything is timed.
pub fn run_one(cells: usize, seed: u64) -> PnrRow {
    let netlist = random_netlist(seed, cells);
    let stack = RouteStack::mead_conway_nmos();
    let floorplan = Floorplan::squarish(cells);

    let placed =
        place(&netlist, &stack, &floorplan, &Tracer::disabled()).expect("corpus nets place");
    let oracle_order = greedy_order_oracle(&netlist);
    assert!(
        placed
            .cells
            .iter()
            .map(|c| c.instance.as_str())
            .eq(oracle_order
                .iter()
                .map(|&i| netlist.instances()[i].name.as_str())),
        "placement order departs from the oracle at cells={cells} seed={seed}"
    );
    assert_eq!(
        netlist.isomorphic_signature(),
        netlist.isomorphic_signature_oracle(),
        "signature departs from the oracle at cells={cells} seed={seed}"
    );

    let started = Instant::now();
    let serial =
        place_and_route(&netlist, &stack, &floorplan, false).expect("corpus nets route serially");
    let serial_us = started.elapsed().as_micros();
    let started = Instant::now();
    let parallel =
        place_and_route(&netlist, &stack, &floorplan, true).expect("corpus nets route in parallel");
    let parallel_us = started.elapsed().as_micros();

    let cif = |r: &silc_pnr::PnrResult| {
        CifWriter::new()
            .write_to_string(&r.library, r.root)
            .expect("routed layout writes")
    };
    let identical = cif(&serial) == cif(&parallel);
    let drc_clean = silc_drc::check(&serial.library, serial.root, &RuleSet::mead_conway_nmos())
        .map(|report| report.is_clean())
        .unwrap_or(false);
    let lvs_ok = silc_extract::extract(&serial.library, serial.root)
        .map(|ex| ex.netlist.structurally_matches(&netlist))
        .unwrap_or(false);

    PnrRow {
        cells,
        seed,
        per_row: floorplan.cells_per_row,
        nets: serial.report.nets,
        routed: serial.report.routed,
        wirelength: serial.report.wirelength,
        vias: serial.report.vias,
        rounds: serial.report.rounds,
        ripup_rounds: serial.report.ripup_rounds,
        serial_us,
        parallel_us,
        identical,
        drc_clean,
        lvs_ok,
    }
}

/// Runs `corpus` (pairs of cells and seed count, seeds `0..n`).
pub fn run_corpus(corpus: &[(usize, u64)]) -> Vec<PnrRow> {
    let mut rows = Vec::new();
    for &(cells, seeds) in corpus {
        for seed in 0..seeds {
            rows.push(run_one(cells, seed));
        }
    }
    rows
}

/// Table rows for [`crate::render_table`].
pub fn pnr_table(rows: &[PnrRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.cells.to_string(),
                r.seed.to_string(),
                format!("{}/{}", r.routed, r.nets),
                r.wirelength.to_string(),
                r.vias.to_string(),
                format!("{} ({} ripup)", r.rounds, r.ripup_rounds),
                r.serial_us.to_string(),
                r.parallel_us.to_string(),
                (if r.accepted() { "yes" } else { "NO" }).to_string(),
            ]
        })
        .collect()
}

/// One JSON object per row, newline-terminated — the artifact CI
/// uploads and validates.
pub fn pnr_json(rows: &[PnrRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in rows {
        let _ = writeln!(
            s,
            "{{\"bench\":\"e10/pnr\",\"cells\":{},\"seed\":{},\"per_row\":{},\"nets\":{},\
             \"routed\":{},\"wirelength\":{},\"vias\":{},\"rounds\":{},\"ripup_rounds\":{},\
             \"serial_us\":{},\"parallel_us\":{},\"identical\":{},\"drc_clean\":{},\
             \"lvs_ok\":{}}}",
            r.cells,
            r.seed,
            r.per_row,
            r.nets,
            r.routed,
            r.wirelength,
            r.vias,
            r.rounds,
            r.ripup_rounds,
            r.serial_us,
            r.parallel_us,
            r.identical,
            r.drc_clean,
            r.lvs_ok,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_point_passes_every_check() {
        let row = run_one(8, 0);
        assert_eq!(row.routed, row.nets);
        assert!(row.identical, "serial vs parallel CIF differ");
        assert!(row.drc_clean);
        assert!(row.lvs_ok);
        assert!(row.accepted());
    }

    #[test]
    fn json_rows_are_single_line_objects() {
        let rows = vec![run_one(4, 1)];
        let json = pnr_json(&rows);
        let mut lines = json.lines();
        let line = lines.next().expect("one row");
        assert!(lines.next().is_none());
        assert!(line.starts_with("{\"bench\":\"e10/pnr\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"identical\":true"), "{line}");
    }
}
