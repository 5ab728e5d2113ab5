//! `behav_build`: a cold behavioural batch.
//!
//! One pass, on a fresh in-memory engine, simulates the PDP-8 ISP
//! machine and a set of register mills at long cycle budgets on the
//! compiled engine, synthesizes and control-store-verifies every
//! machine, and programs, verifies and mutation-checks a set of PLA
//! tables. Exec, verify, logic and pla carry it; geometry is limited to
//! the small PLA layouts. The seed picks the mills' increments, the
//! small machines and a renaming of each PLA table; widths, sizes and
//! cycle budgets are fixed, so the work per pass is the same for every
//! seed.

use crate::report::{layer_metrics, Metrics};
use crate::spans::{root_ms, write_jsonl, Recorder, Span, Totals};
use crate::twin;
use crate::util::{
    fnv64, median, median_index, ms_since, PassClock, PassTimes, Rng, SetupClock, Tally,
};
use crate::{Args, Outcome};
use silc_incr::{
    pla_products, sim_results, synth_allocation, verify_against, verify_isl, verify_pla, Engine,
    JobStats, SimEngine, SimSnapshot,
};
use silc_logic::TruthTable;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const PDP8_CYCLES: u64 = 2_000_000;
const MILL_CYCLES: u64 = 1_500_000;
const MILLS: usize = 4;
const SMALL_MACHINES: usize = 4;
const PLA_TABLES: usize = 6;
const PLA_INPUTS: usize = 10;
const PLA_OUTPUTS: usize = 6;
const PLA_ROWS: usize = 36;
/// Budget at which the compiled PDP-8 run is compared with the
/// interpreter, after the timed passes.
const CROSS_CHECK_CYCLES: u64 = 50_000;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;

/// What a simulation's final registers must be.
enum Expect {
    /// `a := a + k; b := b + a` on `w`-bit registers: after `c` cycles
    /// `a = k·c` and `b = k·c(c-1)/2`, both mod 2^w.
    Mill { w: u32, k: u64 },
    /// The same state on every pass (and the interpreter's, checked
    /// once after the passes).
    Stable,
}

enum Job {
    Sim {
        source: String,
        cycles: u64,
        expect: Expect,
    },
    Synth(String),
    VerifyIsl(String),
    /// A PLA table: program it (`pla_products`) and verify the
    /// minimized personality against the table (`verify_pla`).
    Pla(String),
    /// A table and a function-changing mutant of it: the checker must
    /// refute the pair.
    Mutant {
        mutant: String,
        spec: String,
    },
}

fn mill_source(id: u64, w: u32, k: u64) -> String {
    format!(
        "machine mill{id} {{ reg a[{w}]; reg b[{w}]; state run {{ a := a + {k}; b := b + a; }} }}"
    )
}

/// A small random control machine (states, conditional gotos, halts),
/// in the shape of the E11 verify corpus.
fn small_machine(rng: &mut Rng, id: usize) -> String {
    let states = 2 + rng.below(3) as usize;
    let regs = 1 + rng.below(2) as usize;
    let mut src = format!("machine ctl{id} {{\n");
    for r in 0..regs {
        src.push_str(&format!("  reg r{r}[{}];\n", 2 + rng.below(3)));
    }
    for s in 0..states {
        let r = rng.below(regs as u64);
        let assign = match rng.below(3) {
            0 => format!("r{r} := r{r} + 1;"),
            1 => format!("r{r} := r{r} ^ r{};", rng.below(regs as u64)),
            _ => format!("r{r} := {};", rng.below(4)),
        };
        let target = rng.below(states as u64);
        src.push_str(&format!("  state s{s} {{\n"));
        if rng.below(10) < 7 {
            let other = if rng.below(10) < 3 {
                "halt;".to_string()
            } else {
                format!("goto s{};", rng.below(states as u64))
            };
            src.push_str(&format!(
                "    if r{} == {} {{ {assign} goto s{target}; }} else {{ {other} }}\n",
                rng.below(regs as u64),
                rng.below(4)
            ));
        } else {
            src.push_str(&format!("    {assign} goto s{target};\n"));
        }
        src.push_str("  }\n");
    }
    src.push('}');
    src
}

/// Rows of a PLA table: `(input cube, output bits)`. The base table is
/// fixed per index; the seed renames it (permutes and complements the
/// inputs, permutes the outputs), so every seed gets a different table
/// whose minimization and verification cost the same.
fn pla_rows(index: usize, rng: &mut Rng) -> Vec<(String, Vec<u8>)> {
    let mut base = Rng::new(0x91A0 + index as u64);
    let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..PLA_ROWS)
        .map(|_| {
            let cube = (0..PLA_INPUTS)
                .map(|_| [b'0', b'1', b'-'][base.below(3) as usize])
                .collect();
            let outs = (0..PLA_OUTPUTS)
                .map(|_| [b'1', b'1', b'0', b'-'][base.below(4) as usize])
                .collect();
            (cube, outs)
        })
        .collect();
    let mut inputs: Vec<usize> = (0..PLA_INPUTS).collect();
    rng.shuffle(&mut inputs);
    let complement: Vec<bool> = (0..PLA_INPUTS).map(|_| rng.below(2) == 1).collect();
    let mut outputs: Vec<usize> = (0..PLA_OUTPUTS).collect();
    rng.shuffle(&mut outputs);
    rows.into_iter()
        .map(|(cube, outs)| {
            let cube = inputs
                .iter()
                .map(|&i| match (cube[i], complement[i]) {
                    (b'0', true) => '1',
                    (b'1', true) => '0',
                    (c, _) => char::from(c),
                })
                .collect();
            (cube, outputs.iter().map(|&o| outs[o]).collect())
        })
        .collect()
}

fn pla_text(rows: &[(String, Vec<u8>)]) -> String {
    let mut s = format!(".i {PLA_INPUTS}\n.o {PLA_OUTPUTS}\n");
    for (cube, outs) in rows {
        s.push_str(cube);
        s.push(' ');
        s.push_str(std::str::from_utf8(outs).expect("output bits are ASCII"));
        s.push('\n');
    }
    s.push_str(".e\n");
    s
}

/// Brute-force oracle over every minterm (all of them, so its cost does
/// not depend on the answer): does `impl_table`'s ON-set realize `spec`
/// (don't-cares free)? Independent of the checker.
fn realizes(impl_table: &TruthTable, spec: &TruthTable) -> Result<bool, String> {
    let e = |e: silc_logic::LogicError| e.to_string();
    let mut mismatches = 0usize;
    for o in 0..spec.num_outputs() {
        let (on, dc, got) = (
            spec.on_cover(o).map_err(e)?,
            spec.dc_cover(o).map_err(e)?,
            impl_table.on_cover(o).map_err(e)?,
        );
        for m in 0..(1u64 << spec.num_inputs()) {
            mismatches += usize::from(!dc.eval(m) && on.eval(m) != got.eval(m));
        }
    }
    Ok(mismatches == 0)
}

/// Candidate mutants tried per table. The oracle runs on all of them,
/// so set-up costs the same for every seed.
const MUTANT_CANDIDATES: usize = 8;

/// A seeded function-changing mutant of `rows`: one output bit changed.
/// The first of [`MUTANT_CANDIDATES`] seeded candidates that the oracle
/// confirms moves the function.
fn mutant(rng: &mut Rng, rows: &[(String, Vec<u8>)], spec: &TruthTable) -> Result<String, String> {
    let mut chosen = None;
    for _ in 0..MUTANT_CANDIDATES {
        let mut mutated = rows.to_vec();
        let (r, o) = (
            rng.below(PLA_ROWS as u64) as usize,
            rng.below(PLA_OUTPUTS as u64) as usize,
        );
        let bit = &mut mutated[r].1[o];
        *bit = if *bit == b'1' { b'0' } else { b'1' };
        let text = pla_text(&mutated);
        let table = TruthTable::parse_pla(&text).map_err(|e| e.to_string())?;
        if !realizes(&table, spec)? && chosen.is_none() {
            chosen = Some(text);
        }
    }
    chosen.ok_or_else(|| "no function-changing mutant among the candidates".to_string())
}

fn corpus(seed: u64) -> Result<Vec<Job>, String> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    let pdp8 = silc_pdp8::isp_source().to_string();
    jobs.push(Job::Sim {
        source: pdp8.clone(),
        cycles: PDP8_CYCLES,
        expect: Expect::Stable,
    });
    jobs.push(Job::Synth(pdp8.clone()));
    jobs.push(Job::VerifyIsl(pdp8));
    for i in 0..MILLS {
        let w = 16 + 4 * i as u32;
        let k = 1 + 2 * rng.below(500);
        let source = mill_source(i as u64, w, k);
        jobs.push(Job::Sim {
            source: source.clone(),
            cycles: MILL_CYCLES,
            expect: Expect::Mill { w, k },
        });
        jobs.push(Job::Synth(source.clone()));
        jobs.push(Job::VerifyIsl(source));
    }
    for i in 0..SMALL_MACHINES {
        jobs.push(Job::VerifyIsl(small_machine(&mut rng, i)));
    }
    for index in 0..PLA_TABLES {
        let rows = pla_rows(index, &mut rng);
        let spec = pla_text(&rows);
        let table = TruthTable::parse_pla(&spec).map_err(|e| e.to_string())?;
        let mutant = mutant(&mut rng, &rows, &table)?;
        jobs.push(Job::Pla(spec.clone()));
        jobs.push(Job::Mutant { mutant, spec });
    }
    Ok(jobs)
}

fn mill_ok(sim: &SimSnapshot, w: u32, k: u64) -> bool {
    let c = u128::from(sim.cycles);
    let mask = (1u128 << w) - 1;
    let a = (u128::from(k) * c) & mask;
    let b = (u128::from(k) * (c * c.saturating_sub(1) / 2)) & mask;
    sim.regs == [("a".to_string(), a as u64), ("b".to_string(), b as u64)]
}

/// One job's result, reduced to what the checks need.
enum Done {
    Sim(Result<Arc<SimSnapshot>, String>),
    Synth(Result<String, String>),
    Verdict(Result<bool, String>),
    Pla(Result<(bool, bool, u64), String>),
}

fn sim_digest(s: &SimSnapshot) -> u64 {
    fnv64(format!("{s:?}").as_bytes())
}

/// Checks one pass's results; returns a digest per job for the
/// cross-pass comparison.
fn check(jobs: &[Job], done: &[Done], tally: &mut Tally) -> Vec<Option<u64>> {
    jobs.iter()
        .zip(done)
        .enumerate()
        .map(|(i, (job, done))| {
            let (ok, digest) = match (job, done) {
                (Job::Sim { expect, .. }, Done::Sim(Ok(s))) => {
                    let ok = match expect {
                        Expect::Mill { w, k } => mill_ok(s, *w, *k),
                        Expect::Stable => !s.halted,
                    };
                    (ok, Some(sim_digest(s)))
                }
                (Job::Synth(_), Done::Synth(Ok(display))) => {
                    (true, Some(fnv64(display.as_bytes())))
                }
                (Job::VerifyIsl(_), Done::Verdict(Ok(eq))) => (*eq, None),
                (Job::Pla(_), Done::Pla(Ok((clean, eq, cif)))) => (*clean && *eq, Some(*cif)),
                (Job::Mutant { .. }, Done::Verdict(Ok(eq))) => (!eq, None),
                _ => (false, None),
            };
            tally.check(ok, || format!("behav job {i}: wrong or failed output"));
            digest.filter(|_| ok)
        })
        .collect()
}

/// Times `sim_results`-style calls so the simulation rate uses host time
/// spent simulating only.
#[derive(Default)]
struct SimClock {
    ms: f64,
    cycles: u64,
}

fn run_job_untraced(
    engine: &Engine,
    job: &Job,
    clock: &mut SimClock,
    stats: &mut JobStats,
) -> Done {
    let parse = |s: &str| silc_rtl::parse(s).map_err(|e| format!("isl.parse: {e}"));
    match job {
        Job::Sim { source, cycles, .. } => Done::Sim(parse(source).and_then(|m| {
            let start = Instant::now();
            let out = sim_results(engine, &m, *cycles, SimEngine::Compiled, stats);
            clock.ms += ms_since(start);
            clock.cycles += out.as_ref().map_or(0, |s| s.cycles);
            out
        })),
        Job::Synth(source) => Done::Synth(
            parse(source)
                .and_then(|m| synth_allocation(engine, &m, stats))
                .map(|s| s.display.clone()),
        ),
        Job::VerifyIsl(source) => {
            Done::Verdict(verify_isl(engine, source, stats).map(|v| v.equivalent))
        }
        Job::Pla(source) => Done::Pla(pla_products(engine, source, false, stats).and_then(|p| {
            let v = verify_pla(engine, source, stats)?;
            Ok((p.report.is_clean(), v.equivalent, fnv64(p.cif.as_bytes())))
        })),
        Job::Mutant { mutant, spec } => {
            Done::Verdict(verify_against(engine, mutant, spec, stats).map(|v| v.equivalent))
        }
    }
}

fn run_job_traced(rec: &Recorder, engine: &Engine, job: &Job, stats: &mut JobStats) -> Done {
    match job {
        Job::Sim { source, cycles, .. } => Done::Sim(
            twin::parse_isl(rec, source).and_then(|m| twin::sim(rec, engine, &m, *cycles, stats)),
        ),
        Job::Synth(source) => Done::Synth(
            twin::parse_isl(rec, source)
                .and_then(|m| twin::synth(rec, engine, &m, stats))
                .map(|s| s.display.clone()),
        ),
        Job::VerifyIsl(source) => {
            Done::Verdict(twin::verify_isl(rec, engine, source, stats).map(|v| v.equivalent))
        }
        Job::Pla(source) => Done::Pla(twin::pla_products(rec, engine, source, stats).and_then(
            |p| {
                let v = twin::verify_pla(rec, engine, source, stats)?;
                Ok((p.report.is_clean(), v.equivalent, fnv64(p.cif.as_bytes())))
            },
        )),
        Job::Mutant { mutant, spec } => Done::Verdict(
            twin::verify_against(rec, engine, mutant, spec, stats).map(|v| v.equivalent),
        ),
    }
}

fn check_digests(
    reference: &mut Option<Vec<Option<u64>>>,
    digests: Vec<Option<u64>>,
    tally: &mut Tally,
) {
    match reference {
        None => *reference = Some(digests),
        Some(first) => {
            let differ = first.iter().zip(&digests).filter(|(a, b)| a != b).count();
            tally.check(differ == 0, || {
                format!("{differ} outputs differ from the first pass")
            });
        }
    }
}

/// After the passes: the compiled PDP-8 run must equal the `silc-rtl`
/// interpreter's at one budget.
fn cross_check(tally: &mut Tally) -> Result<(), String> {
    let machine = silc_pdp8::isp_machine().map_err(|e| e.to_string())?;
    let run = |engine| {
        sim_results(
            &Engine::in_memory(),
            &machine,
            CROSS_CHECK_CYCLES,
            engine,
            &mut JobStats::default(),
        )
    };
    let (compiled, interp) = (run(SimEngine::Compiled)?, run(SimEngine::Interp)?);
    tally.check(compiled == interp, || {
        format!("compiled PDP-8 {compiled:?} differs from the interpreter {interp:?}")
    });
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = SetupClock::default();
    let mut jobs = Vec::new();
    for _ in 0..SETUPS {
        jobs = setups.time(|| {
            let jobs = corpus(args.seed);
            std::hint::black_box(Engine::in_memory());
            jobs
        })?;
    }
    let mut tally = Tally::default();
    let mut reference = None;
    let seconds = args.seconds as f64;

    // As in chip_build: untraced passes only for the end-to-end run;
    // alternating untraced and traced passes for the traced run.
    let origin = Instant::now();
    let (mut clocks, mut rates) = (Vec::new(), Vec::new());
    let mut passes: Vec<(Vec<Span>, BTreeMap<&'static str, f64>, u64)> = Vec::new();
    let start = Instant::now();
    while clocks.len() < 3
        || (args.trace && passes.len() < 3)
        || start.elapsed().as_secs_f64() < seconds
    {
        let engine = Engine::in_memory();
        let mut stats = JobStats::default();
        let done: Vec<Done> = if args.trace && passes.len() < clocks.len() {
            let rec = Recorder::new(origin);
            let pass = rec.open("pass");
            let done = jobs
                .iter()
                .enumerate()
                .map(|(i, j)| {
                    rec.set_id(i as u64);
                    rec.span("job", || run_job_traced(&rec, &engine, j, &mut stats))
                })
                .collect();
            rec.close(pass, None);
            let (entries, _) = engine.mem_occupancy();
            let (spans, counters) = rec.take();
            passes.push((spans, counters, stats.misses.saturating_sub(entries as u64)));
            done
        } else {
            let mut sim = SimClock::default();
            let mut clock = PassClock::default();
            let done = jobs
                .iter()
                .map(|j| clock.job(|| run_job_untraced(&engine, j, &mut sim, &mut stats)))
                .collect();
            clocks.push(clock);
            rates.push(sim.cycles as f64 / sim.ms.max(1e-9) / 1e3);
            done
        };
        let digests = check(&jobs, &done, &mut tally);
        check_digests(&mut reference, digests, &mut tally);
    }
    let times = PassTimes::of("behav_build", &clocks);
    let pass_ms = times.wall_ms;
    let mut m = Metrics::new();
    if !args.trace {
        times.insert(&mut m, jobs.len());
        m.insert("sim_mcycles_per_s".into(), median(&rates));
    } else {
        let walls: Vec<f64> = passes.iter().map(|p| root_ms(&p.0)).collect();
        let (spans, counters, evictions) = &passes[median_index(&walls)];
        m = layer_metrics(&Totals::of(spans, counters), 1.0);
        m.insert("incr.evictions".into(), *evictions as f64);
        m.insert("untraced_pass_ms".into(), pass_ms);
        m.insert("tracing_overhead_ms".into(), median(&walls) - pass_ms);
        let mut out = String::new();
        for (i, p) in passes.iter().enumerate() {
            write_jsonl(&mut out, i, &p.0);
        }
        crate::write_spans("behav_build", &out)?;
    }
    cross_check(&mut tally)?;
    setups.insert(&mut m);
    Ok(Outcome { tally, metrics: m })
}
