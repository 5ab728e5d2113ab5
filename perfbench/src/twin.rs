//! Traced twins of the `silc_incr` pipeline functions.
//!
//! Each twin answers the same queries through the same [`Engine`] with
//! the same keys as its pipeline counterpart, but computes a miss by
//! calling the layer crates' public functions directly, each inside a
//! span. An `incr.hit`/`incr.miss` span wraps every query, so its self
//! time is the cache's own cost: key hashing, lookup and insert. The
//! untraced passes call the pipeline functions themselves; the gap
//! between the two pass times is the tracing overhead.

use crate::spans::Recorder;
use silc_drc::{Report, RuleSet};
use silc_geom::{Fingerprint, Fp};
use silc_incr::{
    Engine, ExtractSnapshot, FlatSnapshot, JobStats, PlaSnapshot, PnrSnapshot, SimEngine,
    SimSnapshot, Stage, SynthSnapshot, VerifySnapshot,
};
use silc_lang::{Compiler, Design, PRELUDE};
use silc_logic::TruthTable;
use silc_pla::{Minimize, PlaSpec};
use silc_pnr::{Floorplan, RouteStack};
use silc_rtl::Machine;
use silc_synth::{Sharing, SynthOptions};
use silc_trace::Tracer;
use silc_verify::{check_against_table_traced, Network, Options as VerifyOptions};
use std::sync::Arc;

/// What one compile produced; mirrors `silc_incr::CompileOutput` with
/// DRC, CIF and extraction all requested.
pub struct Compiled {
    pub drc: Arc<Report>,
    pub cif: Option<Arc<String>>,
    pub extract: Arc<ExtractSnapshot>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One cache query inside an `incr.hit` or `incr.miss` span; the key is
/// hashed inside the span too.
fn query<T, F>(
    rec: &Recorder,
    engine: &Engine,
    stage: Stage,
    key: impl FnOnce() -> Fp,
    stats: &mut JobStats,
    compute: F,
) -> Result<Arc<T>, String>
where
    T: silc_incr::Persist + Send + Sync + 'static,
    F: FnOnce() -> Result<T, String>,
{
    let misses = stats.misses;
    let idx = rec.open("incr.query");
    let out = engine.query(stage, key(), stats, compute);
    let name = if stats.misses > misses {
        "incr.miss"
    } else {
        "incr.hit"
    };
    rec.close(idx, Some(name));
    out
}

pub fn elaborate(
    rec: &Recorder,
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<Design>, String> {
    query(
        rec,
        engine,
        Stage::ELABORATE,
        || (source, PRELUDE).fingerprint(),
        stats,
        || {
            rec.span("lang.elaborate", || {
                Compiler::new().compile(source).map_err(err)
            })
        },
    )
}

/// Twin of `compile_sil` with DRC, CIF and extraction on.
pub fn compile(
    rec: &Recorder,
    engine: &Engine,
    source: &str,
    rules: &RuleSet,
    stats: &mut JobStats,
) -> Result<Compiled, String> {
    let design = elaborate(rec, engine, source, stats)?;
    let flat = query(
        rec,
        engine,
        Stage::FLATTEN,
        || design.fingerprint(),
        stats,
        || {
            let layers = rec.span("layout.flatten", || {
                silc_layout::flatten_to_rects(&design.library, design.top).map_err(err)
            })?;
            rec.add(
                "layout.rects",
                layers.iter().map(Vec::len).sum::<usize>() as f64,
            );
            let cell_stats = rec.span("layout.stats", || {
                silc_layout::CellStats::compute(&design.library, design.top).map_err(err)
            })?;
            Ok(FlatSnapshot {
                layers,
                flat_elements: cell_stats.flat_elements as u64,
                bbox: cell_stats.bbox,
            })
        },
    )?;
    let drc = query(
        rec,
        engine,
        Stage::DRC,
        || (&flat.layers, rules).fingerprint(),
        stats,
        || Ok(rec.span("drc.check", || silc_drc::check_flat(&flat.layers, rules))),
    )?;
    let cif = if drc.is_clean() {
        Some(query(
            rec,
            engine,
            Stage::CIF,
            || design.fingerprint(),
            stats,
            || {
                let text = rec.span("cif.write", || {
                    silc_cif::CifWriter::new()
                        .write_to_string(&design.library, design.top)
                        .map_err(err)
                })?;
                rec.add("cif.bytes", text.len() as f64);
                Ok(text)
            },
        )?)
    } else {
        None
    };
    let extract = query(
        rec,
        engine,
        Stage::EXTRACT,
        || design.fingerprint(),
        stats,
        || {
            let extracted = rec.span("extract.extract", || {
                silc_extract::extract(&design.library, design.top).map_err(err)
            })?;
            rec.add("extract.transistors", extracted.transistor_count() as f64);
            let signature = rec.span("netlist.signature", || {
                extracted.netlist.isomorphic_signature()
            });
            Ok(ExtractSnapshot {
                signature,
                transistors: extracted.transistor_count() as u64,
                nets: extracted.nets as u64,
            })
        },
    )?;
    Ok(Compiled { drc, cif, extract })
}

/// Twin of `pnr_sil` (parallel routing, as serve and the CLI run it).
/// Returns the same gate errors: a dirty or non-matching routed layout
/// is an error.
pub fn pnr(
    rec: &Recorder,
    engine: &Engine,
    source: &str,
    stack_name: &str,
    stats: &mut JobStats,
) -> Result<Arc<PnrSnapshot>, String> {
    let stack = RouteStack::by_name(stack_name).map_err(|e| format!("pnr: {e}"))?;
    let design = elaborate(rec, engine, source, stats)?;
    let extracted = rec.span("extract.extract", || {
        silc_extract::extract(&design.library, design.top).map_err(|e| format!("extract: {e}"))
    })?;
    let netlist = &extracted.netlist;
    let floorplan = Floorplan::squarish(netlist.instances().len());
    let out = query(
        rec,
        engine,
        Stage::PNR,
        || (netlist, &stack, &floorplan).fingerprint(),
        stats,
        || {
            let routed = rec.span("pnr.place_and_route", || {
                silc_pnr::place_and_route(netlist, &stack, &floorplan, true).map_err(err)
            })?;
            let rules = RuleSet::mead_conway_nmos();
            let drc = rec.span("drc.check", || {
                silc_drc::check(&routed.library, routed.root, &rules).map_err(err)
            })?;
            let back = rec.span("extract.extract", || {
                silc_extract::extract(&routed.library, routed.root).map_err(err)
            })?;
            let lvs_ok = rec.span("netlist.lvs", || back.netlist.structurally_matches(netlist));
            let cif = rec.span("cif.write", || {
                silc_cif::CifWriter::new()
                    .write_to_string(&routed.library, routed.root)
                    .map_err(err)
            })?;
            let r = &routed.report;
            rec.add("pnr.cells", r.cells as f64);
            rec.add("pnr.ripup_rounds", r.ripup_rounds as f64);
            rec.add("pnr.wirelength", r.wirelength as f64);
            Ok(PnrSnapshot {
                cells: r.cells,
                nets: r.nets,
                routed: r.routed,
                wirelength: r.wirelength,
                vias: r.vias,
                rounds: r.rounds,
                ripup_rounds: r.ripup_rounds,
                drc,
                lvs_ok,
                cif,
            })
        },
    )?;
    if !out.drc.is_clean() {
        return Err(format!(
            "drc: routed layout has {} violation(s)",
            out.drc.violations.len()
        ));
    }
    if !out.lvs_ok {
        return Err("pnr: extract-back does not match the source netlist".into());
    }
    Ok(out)
}

/// Parses an ISL source, charged to `rtl`.
pub fn parse_isl(rec: &Recorder, source: &str) -> Result<Machine, String> {
    rec.span("rtl.parse", || {
        silc_rtl::parse(source).map_err(|e| format!("isl.parse: {e}"))
    })
}

/// Twin of `sim_results` on the compiled engine.
pub fn sim(
    rec: &Recorder,
    engine: &Engine,
    machine: &Machine,
    cycles: u64,
    stats: &mut JobStats,
) -> Result<Arc<SimSnapshot>, String> {
    let key = || (machine, cycles, SimEngine::Compiled.tag()).fingerprint();
    query(rec, engine, Stage::SIM, key, stats, || {
        let compiled = rec.span("exec.compile", || silc_exec::compile(machine));
        rec.add("exec.ops", compiled.stats().ops as f64);
        let mut sim = silc_exec::CompiledSim::new(&compiled);
        let report = rec.span("exec.run", || sim.run(cycles).map_err(err))?;
        rec.add("exec.cycles", report.cycles as f64);
        let read = |names: Vec<&String>, get: &dyn Fn(&str) -> Option<u64>| {
            names
                .into_iter()
                .map(|n| {
                    get(n)
                        .map(|v| (n.clone(), v))
                        .ok_or_else(|| format!("simulator has no `{n}`"))
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(SimSnapshot {
            cycles: report.cycles,
            halted: report.halted,
            state: sim.state_name().to_string(),
            regs: read(machine.regs.iter().map(|r| &r.name).collect(), &|n| {
                sim.reg(n)
            })?,
            outputs: read(machine.outputs.iter().map(|p| &p.name).collect(), &|n| {
                sim.output(n)
            })?,
        })
    })
}

/// Twin of `synth_allocation`.
pub fn synth(
    rec: &Recorder,
    engine: &Engine,
    machine: &Machine,
    stats: &mut JobStats,
) -> Result<Arc<SynthSnapshot>, String> {
    query(
        rec,
        engine,
        Stage::SYNTH,
        || machine.fingerprint(),
        stats,
        || {
            let allocation = rec.span("synth.allocate", || {
                silc_synth::synthesize(
                    machine,
                    &SynthOptions {
                        sharing: Sharing::Shared,
                    },
                )
            });
            rec.add("synth.control_terms", f64::from(allocation.control.3));
            Ok(SynthSnapshot {
                display: allocation.to_string(),
                control: allocation.control,
            })
        },
    )
}

fn parse_table(rec: &Recorder, source: &str) -> Result<TruthTable, String> {
    rec.span("logic.parse", || TruthTable::parse_pla(source).map_err(err))
}

fn minimize(rec: &Recorder, table: &TruthTable, mode: Minimize) -> Result<PlaSpec, String> {
    let spec = rec.span("logic.minimize", || {
        PlaSpec::from_truth_table(table, mode).map_err(err)
    })?;
    Ok(spec)
}

fn check_table(
    rec: &Recorder,
    check: &str,
    spec: &PlaSpec,
    table: &TruthTable,
) -> Result<VerifySnapshot, String> {
    let report = rec.span("verify.check", || {
        let outputs: Vec<(String, silc_logic::Cover)> = spec
            .output_names()
            .iter()
            .enumerate()
            .map(|(o, n)| (n.clone(), spec.output_cover(o)))
            .collect();
        let net = Network::from_covers(spec.input_names(), &outputs).map_err(err)?;
        check_against_table_traced(&net, table, &VerifyOptions::default(), &Tracer::disabled())
            .map_err(err)
    })?;
    rec.add("verify.sim_rounds", report.sim_rounds as f64);
    rec.add("verify.exact_decided", report.exact_decided as f64);
    Ok(VerifySnapshot {
        check: check.to_string(),
        equivalent: report.equivalent,
        outputs: report.outputs as u64,
        strash_merged: report.strash_merged as u64,
        sim_rounds: report.sim_rounds as u64,
        sim_refuted: report.sim_refuted as u64,
        exact_decided: report.exact_decided as u64,
        mismatches: report.mismatches,
    })
}

/// Twin of `verify_pla`.
pub fn verify_pla(
    rec: &Recorder,
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let key = || ("verify-pla", source).fingerprint();
    query(rec, engine, Stage::VERIFY, key, stats, || {
        let table = parse_table(rec, source)?;
        let spec = minimize(rec, &table, Minimize::Heuristic)?;
        check_table(rec, "pla", &spec, &table)
    })
}

/// Twin of `verify_isl`.
pub fn verify_isl(
    rec: &Recorder,
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let machine = parse_isl(rec, source)?;
    let key = || ("verify-isl", &machine).fingerprint();
    query(rec, engine, Stage::VERIFY, key, stats, || {
        let control = rec.span("synth.control_table", || {
            silc_synth::control_table(&machine)
        });
        let spec = minimize(rec, &control.table, Minimize::Heuristic)?;
        check_table(rec, "isl", &spec, &control.table)
    })
}

/// Twin of `verify_against`.
pub fn verify_against(
    rec: &Recorder,
    engine: &Engine,
    impl_source: &str,
    spec_source: &str,
    stats: &mut JobStats,
) -> Result<Arc<VerifySnapshot>, String> {
    let key = || ("verify-against", impl_source, spec_source).fingerprint();
    query(rec, engine, Stage::VERIFY, key, stats, || {
        let impl_table = parse_table(rec, impl_source).map_err(|e| format!("impl: {e}"))?;
        let spec_table = parse_table(rec, spec_source).map_err(|e| format!("spec: {e}"))?;
        let spec = minimize(rec, &impl_table, Minimize::None)?;
        check_table(rec, "against", &spec, &spec_table)
    })
}

/// Twin of `pla_products` (minimized).
pub fn pla_products(
    rec: &Recorder,
    engine: &Engine,
    source: &str,
    stats: &mut JobStats,
) -> Result<Arc<PlaSnapshot>, String> {
    let key = || (source, false).fingerprint();
    query(rec, engine, Stage::PLA, key, stats, || {
        let table = parse_table(rec, source)?;
        let spec = minimize(rec, &table, Minimize::Heuristic)?;
        rec.add("pla.terms", spec.num_terms() as f64);
        let (w, h) = spec.area_estimate();
        let personality = format!(
            "personality: {} terms ({} AND + {} OR devices), {}x{} lambda",
            spec.num_terms(),
            spec.and_plane_devices(),
            spec.or_plane_devices(),
            w,
            h
        );
        let mut lib = silc_layout::Library::new();
        let id = rec.span("pla.layout", || {
            silc_pla::generate_layout(&spec, &mut lib, "pla").map_err(err)
        })?;
        let report = rec.span("drc.check", || {
            silc_drc::check(&lib, id, &RuleSet::mead_conway_nmos()).map_err(err)
        })?;
        let cif = rec.span("cif.write", || {
            silc_cif::CifWriter::new()
                .write_to_string(&lib, id)
                .map_err(err)
        })?;
        Ok(PlaSnapshot {
            personality,
            report,
            cif,
        })
    })
}
