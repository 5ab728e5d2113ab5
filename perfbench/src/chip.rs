//! `chip_build`: a cold structural batch.
//!
//! One pass compiles (DRC + CIF + extraction) and places-and-routes a
//! fixed ladder of generated designs, one job at a time, on a fresh
//! in-memory engine, so every query misses and the cache is written but
//! never read. The seed moves each design to another origin, so every
//! source and fingerprint differs between seeds; the designs' sizes, and
//! so the work per pass, are the same for every seed.

use crate::report::{layer_metrics, Metrics};
use crate::spans::{root_ms, write_jsonl, Recorder, Span, Totals};
use crate::twin;
use crate::util::{
    fnv64, loglog_slope, median, median_index, ms_since, PassClock, PassTimes, Rng, SetupClock,
    Tally,
};
use crate::{Args, Outcome};
use silc_bench::e2;
use silc_drc::RuleSet;
use silc_incr::{compile_sil, pnr_sil, CompileOptions, Engine, JobStats, PnrSnapshot};
use silc_pnr::{Floorplan, RouteStack};
use silc_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const STACK: &str = "mead-conway-nmos";
/// Shift-array sizes compiled with extraction; their growth gives the
/// compile-side exponents.
const COMPILE_LADDER: &[usize] = &[16, 24, 32, 40];
/// Shift-array sizes placed and routed; their growth gives the pnr
/// exponents.
const PNR_LADDER: &[usize] = &[12, 16, 20, 24, 28];
/// Set-ups per run; the median is reported.
const SETUPS: usize = 21;

/// A traced pass: its spans, its counters and the cache's evictions.
type TracedPass = (Vec<Span>, BTreeMap<&'static str, f64>, u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Compile,
    Pnr,
}

struct Job {
    kind: Kind,
    family: &'static str,
    n: usize,
    source: String,
    /// Transistors the generator's closed form predicts.
    transistors: u64,
}

/// Moves the design's top-level placement to `(dx, dy)`: a new source
/// and new fingerprints, the same work.
fn at_origin(source: &str, dx: i64, dy: i64) -> String {
    let (head, tail) = source
        .rsplit_once("at (0, 0);")
        .expect("generated designs end with a placement at the origin");
    format!("{head}at ({dx}, {dy});{tail}")
}

fn corpus(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    let mut push = |kind, family, n, gen: fn(usize) -> String, transistors| {
        let (dx, dy) = (rng.below(64) as i64 * 4, rng.below(64) as i64 * 4);
        let source = at_origin(&gen(n), dx, dy);
        jobs.push(Job {
            kind,
            family,
            n,
            source,
            transistors,
        });
    };
    for &n in COMPILE_LADDER {
        push(
            Kind::Compile,
            "shift_array",
            n,
            e2::shift_array,
            2 * (n * n) as u64,
        );
    }
    for &n in PNR_LADDER {
        push(
            Kind::Pnr,
            "shift_array",
            n,
            e2::shift_array,
            2 * (n * n) as u64,
        );
    }
    for kind in [Kind::Compile, Kind::Pnr] {
        push(kind, "adder_row", 28, e2::adder_row, 4 * 28);
        push(kind, "crossbar", 20, e2::crossbar, 20);
    }
    // The decoder strip is not DRC-clean as generated, so it only runs
    // through pnr, which builds (and gates) its own routed geometry.
    push(Kind::Pnr, "decoder", 20, e2::decoder, 20);
    jobs
}

/// What a job produced, reduced to what the checks read.
enum Produced {
    Compile {
        clean: bool,
        cif: Option<Arc<String>>,
        transistors: u64,
    },
    Pnr(Arc<PnrSnapshot>),
}

/// Digest of a job's manufacturing output: CIF for a compile, the
/// routed CIF for pnr. `None` when the job failed a check.
type Digest = Option<u64>;

/// Checks one pass's outputs (outside its timing); returns their digests.
fn check(jobs: &[Job], produced: Vec<Result<Produced, String>>, tally: &mut Tally) -> Vec<Digest> {
    jobs.iter()
        .zip(produced)
        .map(|(job, out)| {
            let (ok, cif) = match &out {
                Ok(Produced::Compile {
                    clean,
                    cif,
                    transistors,
                }) => (*clean && *transistors == job.transistors, cif.as_deref()),
                Ok(Produced::Pnr(p)) => (p.cells == job.transistors, Some(&p.cif)),
                Err(_) => (false, None),
            };
            let ok = ok && cif.is_some();
            tally.check(ok, || {
                let got = match &out {
                    Ok(Produced::Compile {
                        clean, transistors, ..
                    }) => {
                        format!("clean={clean} transistors={transistors}")
                    }
                    Ok(Produced::Pnr(p)) => format!("{} cells", p.cells),
                    Err(e) => e.clone(),
                };
                format!(
                    "{:?} {}({}): {got}; want {} transistors",
                    job.kind, job.family, job.n, job.transistors
                )
            });
            cif.filter(|_| ok).map(|c| fnv64(c.as_bytes()))
        })
        .collect()
}

/// One untraced pass through the pipeline functions, on a fresh engine.
/// Returns the pass's clock and what each job produced.
fn pass_untraced(jobs: &[Job]) -> (PassClock, Vec<Result<Produced, String>>) {
    let options = CompileOptions {
        extract: true,
        ..CompileOptions::default()
    };
    let mut clock = PassClock::default();
    let engine = Engine::in_memory();
    let mut stats = JobStats::default();
    let produced = jobs
        .iter()
        .map(|job| {
            clock.job(|| match job.kind {
                Kind::Compile => {
                    compile_sil(&engine, &job.source, &options, &mut stats).map(|out| {
                        Produced::Compile {
                            clean: out.is_clean(),
                            transistors: out.extract.as_ref().map_or(0, |e| e.transistors),
                            cif: out.cif,
                        }
                    })
                }
                Kind::Pnr => {
                    pnr_sil(&engine, &job.source, STACK, true, &mut stats).map(Produced::Pnr)
                }
            })
        })
        .collect();
    (clock, produced)
}

/// One traced pass through the twins, on a fresh engine: every job is a
/// `job` span under the `pass` span. Also returns the cache evictions.
fn pass_traced(jobs: &[Job], rec: &Recorder) -> (Vec<Result<Produced, String>>, u64) {
    let rules = RuleSet::mead_conway_nmos();
    let pass = rec.open("pass");
    let engine = Engine::in_memory();
    let mut stats = JobStats::default();
    let produced =
        jobs.iter()
            .enumerate()
            .map(|(i, job)| {
                rec.set_id(i as u64);
                rec.span("job", || match job.kind {
                    Kind::Compile => twin::compile(rec, &engine, &job.source, &rules, &mut stats)
                        .map(|out| Produced::Compile {
                            clean: out.drc.is_clean(),
                            transistors: out.extract.transistors,
                            cif: out.cif,
                        }),
                    Kind::Pnr => {
                        twin::pnr(rec, &engine, &job.source, STACK, &mut stats).map(Produced::Pnr)
                    }
                })
            })
            .collect();
    rec.close(pass, None);
    let (entries, _) = engine.mem_occupancy();
    (produced, stats.misses.saturating_sub(entries as u64))
}

/// Every pass must reproduce the first pass's outputs byte for byte.
fn check_digests(reference: &mut Option<Vec<Digest>>, digests: Vec<Digest>, tally: &mut Tally) {
    match reference {
        None => *reference = Some(digests),
        Some(first) => {
            let same = first
                .iter()
                .zip(&digests)
                .filter(|(a, b)| a == b && a.is_some())
                .count();
            tally.check(same == first.len(), || {
                format!(
                    "{} of {} outputs differ from the first pass",
                    first.len() - same,
                    first.len()
                )
            });
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up is input generation plus engine construction; repeat it so
    // the reported figure is a median, not one cold sample.
    let mut setups = SetupClock::default();
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        jobs = setups.time(|| -> Result<Vec<Job>, String> {
            let jobs = corpus(args.seed);
            for job in &jobs {
                silc_lang::Compiler::new()
                    .compile(&job.source)
                    .map_err(|e| {
                        format!(
                            "generated {}({}) does not elaborate: {e}",
                            job.family, job.n
                        )
                    })?;
            }
            std::hint::black_box(Engine::in_memory());
            Ok(jobs)
        })?;
    }
    let mut tally = Tally::default();
    let mut reference = None;
    let seconds = args.seconds as f64;

    // The end-to-end run times untraced passes for the whole window. The
    // traced run alternates untraced and traced passes, so host drift
    // hits both alike and their gap is the tracing overhead.
    let origin = Instant::now();
    let mut clocks = Vec::new();
    let mut passes: Vec<TracedPass> = Vec::new();
    let start = Instant::now();
    while clocks.len() < 3
        || (args.trace && passes.len() < 3)
        || start.elapsed().as_secs_f64() < seconds
    {
        let produced = if args.trace && passes.len() < clocks.len() {
            let rec = Recorder::new(origin);
            let (produced, evictions) = pass_traced(&jobs, &rec);
            let (spans, counters) = rec.take();
            passes.push((spans, counters, evictions));
            produced
        } else {
            let (clock, produced) = pass_untraced(&jobs);
            clocks.push(clock);
            produced
        };
        let digests = check(&jobs, produced, &mut tally);
        check_digests(&mut reference, digests, &mut tally);
    }
    let times = PassTimes::of("chip_build", &clocks);
    let pass_ms = times.wall_ms;

    let mut m = Metrics::new();
    if !args.trace {
        times.insert(&mut m, jobs.len());
    } else {
        let place = place_probe(&jobs)?;
        let walls: Vec<f64> = passes.iter().map(|p| root_ms(&p.0)).collect();
        let (spans, counters, evictions) = &passes[median_index(&walls)];
        m = layer_metrics(&Totals::of(spans, counters), 1.0);
        let place_total: f64 = place.values().sum();
        m.insert("pnr.place_ms".into(), place_total);
        *m.get_mut("pnr.route_ms").expect("always reported") -= place_total;
        m.insert("incr.evictions".into(), *evictions as f64);
        m.insert("untraced_pass_ms".into(), pass_ms);
        m.insert("tracing_overhead_ms".into(), median(&walls) - pass_ms);
        growth(&jobs, &passes, &place, &mut m);
        let mut out = String::new();
        for (i, p) in passes.iter().enumerate() {
            write_jsonl(&mut out, i, &p.0);
        }
        crate::write_spans("chip_build", &out)?;
    }
    setups.insert(&mut m);
    Ok(Outcome { tally, metrics: m })
}

/// `silc_pnr::place` alone per pnr job (median of three), so the traced
/// place-and-route time splits into placement and routing.
fn place_probe(jobs: &[Job]) -> Result<BTreeMap<usize, f64>, String> {
    let stack = RouteStack::by_name(STACK).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate().filter(|(_, j)| j.kind == Kind::Pnr) {
        let design = silc_lang::Compiler::new()
            .compile(&job.source)
            .map_err(|e| e.to_string())?;
        let extracted =
            silc_extract::extract(&design.library, design.top).map_err(|e| e.to_string())?;
        let floorplan = Floorplan::squarish(extracted.netlist.instances().len());
        let mut times = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            silc_pnr::place(&extracted.netlist, &stack, &floorplan, &Tracer::disabled())
                .map_err(|e| e.to_string())?;
            times.push(ms_since(start));
        }
        out.insert(i, median(&times));
    }
    Ok(out)
}

/// The spans of job `i`, re-rooted at its `job` span. Spans are stored
/// in open order, so a job's subtree runs up to the next `job` span.
fn job_spans(spans: &[Span], i: usize) -> Vec<Span> {
    let Some(first) = spans
        .iter()
        .position(|s| s.name == "job" && s.id == i as u64)
    else {
        return Vec::new();
    };
    let last = spans[first + 1..]
        .iter()
        .position(|s| s.name == "job")
        .map_or(spans.len(), |k| first + 1 + k);
    spans[first..last]
        .iter()
        .cloned()
        .map(|mut s| {
            s.parent = s.parent.and_then(|p| p.checked_sub(first));
            s
        })
        .collect()
}

/// Log-log growth exponents over the shift-array ladders: per-job self
/// times (median over traced passes) against transistor count.
fn growth(jobs: &[Job], passes: &[TracedPass], place: &BTreeMap<usize, f64>, m: &mut Metrics) {
    let none = BTreeMap::new();
    let layer = |own: &[Span], name: &str| Totals::of(own, &none).layer(name);
    let named = |own: &[Span], name: &str| Totals::of(own, &none).named(name).0;
    let mut compile: Vec<(f64, [f64; 3])> = Vec::new();
    let mut pnr: Vec<(f64, [f64; 3])> = Vec::new();
    for (i, job) in jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.family == "shift_array")
    {
        let time = |pick: &dyn Fn(&[Span]) -> f64| {
            let per_pass: Vec<f64> = passes.iter().map(|p| pick(&job_spans(&p.0, i))).collect();
            median(&per_pass)
        };
        let x = job.transistors as f64;
        match job.kind {
            Kind::Compile => compile.push((
                x,
                [
                    time(&|s| layer(s, "extract")),
                    time(&|s| named(s, "netlist.signature")),
                    time(&|s| layer(s, "drc")),
                ],
            )),
            Kind::Pnr => {
                let placed = place[&i];
                let routed = time(&|s| named(s, "pnr.place_and_route")) - placed;
                pnr.push((x, [time(&|s| named(s, "netlist.lvs")), placed, routed]));
            }
        }
    }
    let fit = |pts: &[(f64, [f64; 3])], k: usize| {
        loglog_slope(&pts.iter().map(|(x, y)| (*x, y[k])).collect::<Vec<_>>())
    };
    let names = [
        [
            "extract.growth_exp",
            "netlist.signature_growth_exp",
            "drc.growth_exp",
        ],
        [
            "netlist.lvs_growth_exp",
            "pnr.place_growth_exp",
            "pnr.route_growth_exp",
        ],
    ];
    for (pts, names) in [&compile, &pnr].into_iter().zip(names) {
        for (k, name) in names.into_iter().enumerate() {
            m.insert(name.into(), fit(pts, k));
        }
    }
}
