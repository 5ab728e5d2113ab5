//! `serve_editloop`: a warm compile farm under an editor loop.
//!
//! An in-process `silc serve` (2 workers, the default cache budget)
//! answers two closed-loop clients over loopback; each client waits for
//! its reply before sending the next request, as an editor does. The
//! seeded mix:
//!
//! - ~60% comment-only edits of hot SIL designs, compiled with
//!   extraction: elaboration runs live, every later stage hits;
//! - ~30% re-runs of hot ISL simulations: pure hits;
//! - ~10% cold compiles of small one-off designs, whose stream outgrows
//!   the cache budget, so inserts and LRU evictions run beside hot reads.
//!
//! Serve, incr and lang carry it; the compute layers are nearly idle.
//! The seed moves the hot designs, picks the machines' increments, the
//! cold design ids and each client's request order; the design sizes,
//! and so the work per request class, are the same for every seed.

use crate::report::{layer_metrics, Metrics, LAYERS};
use crate::spans::{append, write_jsonl, Recorder, Span, Totals};
use crate::twin;
use crate::util::{
    median, ms_since, process_cpu_s, samples_beyond, Histogram, Rng, SetupClock, Tally,
};
use crate::{Args, Outcome};
use silc_bench::{e2, e9};
use silc_drc::RuleSet;
use silc_incr::{compile_sil, sim_results, CompileOptions, Engine, JobStats, SimEngine};
use silc_serve::{parse_request, Json, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SIM_CYCLES: u64 = 20_000;
const SETUPS: usize = 15;
/// Every this many requests a traced client times an inline `stats`
/// round trip (the control path, which never queues).
const CONTROL_EVERY: u64 = 16;
/// Spans each traced client keeps for the span dump.
const SPANS_KEPT: usize = 20_000;

/// The hot SIL designs: fixed families and sizes, seeded origins.
type Generator = fn(usize) -> String;
const HOT_DESIGNS: &[(Generator, usize)] = &[
    (e2::shift_array, 6),
    (e2::shift_array, 8),
    (e2::shift_array, 10),
    (e2::shift_array, 12),
    (e2::adder_row, 16),
    (e2::adder_row, 24),
    (e2::crossbar, 12),
    (e2::crossbar, 16),
];
const HOT_MACHINES: usize = 8;

struct Corpus {
    designs: Vec<String>,
    machines: Vec<String>,
    /// First cold design id; clients draw disjoint ids above it.
    cold_base: u64,
    seed: u64,
}

fn corpus(seed: u64) -> Corpus {
    let mut rng = Rng::new(seed);
    let designs = HOT_DESIGNS
        .iter()
        .map(|(gen, n)| {
            let (dx, dy) = (rng.below(64) * 4, rng.below(64) * 4);
            let source = gen(*n);
            let (head, tail) = source
                .rsplit_once("at (0, 0);")
                .expect("generated designs end with a placement at the origin");
            format!("{head}at ({dx}, {dy});{tail}")
        })
        .collect();
    let machines = (0..HOT_MACHINES)
        .map(|i| {
            let k = 1 + 2 * rng.below(500);
            format!("machine hot{i} {{ reg a[16]; reg b[16]; state run {{ a := a + {k}; b := b + a; }} }}")
        })
        .collect();
    Corpus {
        designs,
        machines,
        cold_base: 1_000_000 + rng.below(1 << 30) * 1000,
        seed,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Edit(usize),
    Sim(usize),
    Cold(u64),
}

fn line_for(corpus: &Corpus, class: Class, client: usize, seq: u64) -> String {
    let quoted = |s: &str| Json::Str(s.to_string()).to_string();
    match class {
        Class::Edit(d) => {
            let source = format!("{}\n// edit {client}.{seq}\n", corpus.designs[d]);
            format!(
                "{{\"op\":\"compile\",\"source\":{},\"extract\":true}}\n",
                quoted(&source)
            )
        }
        Class::Sim(m) => format!(
            "{{\"op\":\"sim\",\"source\":{},\"cycles\":{SIM_CYCLES}}}\n",
            quoted(&corpus.machines[m])
        ),
        Class::Cold(id) => format!(
            "{{\"op\":\"compile\",\"source\":{},\"extract\":true}}\n",
            quoted(&e9::design_source(id, 2))
        ),
    }
}

/// Each client's request stream: hot picks cycle through the hot sets
/// (as an editor revisits its open designs), cold ids never repeat.
struct Plan {
    rng: Rng,
    seq: u64,
    design: usize,
    machine: usize,
    cold_base: u64,
}

impl Plan {
    fn new(corpus: &Corpus, client: usize) -> Plan {
        Plan {
            rng: Rng::new(corpus.seed.wrapping_add(0xC11E_0000 + client as u64)),
            seq: 0,
            design: client * HOT_DESIGNS.len() / CLIENTS,
            machine: client * HOT_MACHINES / CLIENTS,
            cold_base: corpus.cold_base + client as u64 * 100_000_000,
        }
    }

    fn next(&mut self) -> Class {
        self.seq += 1;
        match self.rng.below(100) {
            0..=59 => {
                self.design = (self.design + 1) % HOT_DESIGNS.len();
                Class::Edit(self.design)
            }
            60..=89 => {
                self.machine = (self.machine + 1) % HOT_MACHINES;
                Class::Sim(self.machine)
            }
            _ => Class::Cold(self.cold_base + self.seq),
        }
    }
}

/// The reply fragments a correct answer must contain, from direct
/// pipeline calls on an engine of the benchmark's own.
struct Expected {
    designs: Vec<String>,
    machines: Vec<String>,
}

fn expected(corpus: &Corpus) -> Result<Expected, String> {
    let engine = Engine::in_memory();
    let options = CompileOptions {
        extract: true,
        ..CompileOptions::default()
    };
    let mut stats = JobStats::default();
    let mut designs = Vec::new();
    for source in &corpus.designs {
        let out = compile_sil(&engine, source, &options, &mut stats)?;
        let cif = out.cif.ok_or("a hot design is not DRC-clean")?;
        designs.push(format!("\"cif\":{}", Json::Str(cif.to_string())));
    }
    let mut machines = Vec::new();
    for source in &corpus.machines {
        let machine = silc_rtl::parse(source).map_err(|e| e.to_string())?;
        let sim = sim_results(
            &engine,
            &machine,
            SIM_CYCLES,
            SimEngine::Compiled,
            &mut stats,
        )?;
        let regs = sim
            .regs
            .iter()
            .map(|(n, v)| (n.clone(), Json::Int(i128::from(*v))))
            .collect();
        machines.push(format!("\"regs\":{}", Json::Obj(regs)));
    }
    Ok(Expected { designs, machines })
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(reply)
    }
}

/// A running server and how to stop it.
struct Farm {
    addr: String,
    stop: silc_serve::ShutdownHandle,
    thread: JoinHandle<Result<(), String>>,
}

impl Farm {
    fn start() -> Result<Farm, String> {
        let server = Server::bind(ServerConfig {
            jobs: WORKERS,
            queue_capacity: WORKERS * 4,
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let stop = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Farm { addr, stop, thread })
    }

    fn stop(self) -> Result<(), String> {
        self.stop.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// Cache misses a reply reports (`0` when absent).
fn reply_count(reply: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    reply
        .find(&tag)
        .map(|at| &reply[at + tag.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// Compiles every hot design and simulates every hot machine once over
/// one connection. Returns the cache misses the warm-up inserted.
fn warm(addr: &str, corpus: &Corpus) -> Result<u64, String> {
    let mut conn = Conn::open(addr)?;
    let mut misses = 0;
    let classes = (0..HOT_DESIGNS.len())
        .map(Class::Edit)
        .chain((0..HOT_MACHINES).map(Class::Sim));
    for (seq, class) in classes.enumerate() {
        let reply = conn.roundtrip(&line_for(corpus, class, usize::MAX, seq as u64))?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("warm-up failed: {}", reply.trim()));
        }
        misses += reply_count(&reply, "cache_misses");
    }
    Ok(misses)
}

/// One client's samples, in fixed-size histograms so the benchmark's
/// own memory does not grow with the request count.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    /// Untraced round trips per request class: edit, sim, cold.
    latency: [Histogram; 3],
    /// Round trips of the requests a traced client traced.
    traced: Histogram,
    /// Completed requests per whole second since the run started.
    per_second: Vec<u32>,
    hits: u64,
    misses: u64,
    control: Histogram,
    parse: Histogram,
    /// Sums over every traced request's spans.
    totals: Totals,
    /// The first traced requests' spans, for the span dump.
    spans: Vec<Span>,
}

/// Moves the recorder's spans into the client's sums, keeping the first
/// [`SPANS_KEPT`] for the dump, so memory stays bounded.
fn flush(rec: &Recorder, log: &mut ClientLog) {
    let (spans, counters) = rec.take();
    log.totals.add(&spans, &counters);
    if log.spans.len() < SPANS_KEPT {
        append(&mut log.spans, spans);
    }
}

/// What a traced client does beside each request: the twin computes the
/// same answer on the benchmark's own warm engine, under spans.
struct Tracing<'a> {
    engine: &'a Engine,
    rec: Recorder,
}

fn twin_compute(t: &Tracing<'_>, corpus: &Corpus, class: Class, line: &str) -> Result<(), String> {
    let rules = RuleSet::mead_conway_nmos();
    let mut stats = JobStats::default();
    match class {
        Class::Edit(_) | Class::Cold(_) => {
            let source = match parse_request(line.trim_end(), false)?.request {
                silc_serve::Request::Compile { source, .. } => source,
                _ => return Err("not a compile request".into()),
            };
            twin::compile(&t.rec, t.engine, &source, &rules, &mut stats).map(|_| ())
        }
        Class::Sim(m) => {
            let machine = twin::parse_isl(&t.rec, &corpus.machines[m])?;
            twin::sim(&t.rec, t.engine, &machine, SIM_CYCLES, &mut stats).map(|_| ())
        }
    }
}

fn client(
    addr: &str,
    corpus: &Corpus,
    expect: &Expected,
    id: usize,
    origin: Instant,
    until: Instant,
    tracing: Option<&Tracing<'_>>,
) -> Result<ClientLog, String> {
    let mut conn = Conn::open(addr)?;
    let mut plan = Plan::new(corpus, id);
    let mut log = ClientLog::default();
    while Instant::now() < until {
        let class = plan.next();
        let line = line_for(corpus, class, id, plan.seq);
        // A traced client traces every other request, so drift hits the
        // traced and untraced round trips alike.
        let traced = tracing.filter(|_| plan.seq.is_multiple_of(2));
        let sent = Instant::now();
        let reply = conn.roundtrip(&line)?;
        let took = ms_since(sent);
        if traced.is_some() {
            log.traced.add(took);
        } else {
            let index = match class {
                Class::Edit(_) => 0,
                Class::Sim(_) => 1,
                Class::Cold(_) => 2,
            };
            log.latency[index].add(took);
        }
        let second = origin.elapsed().as_secs() as usize;
        if log.per_second.len() <= second {
            log.per_second.resize(second + 1, 0);
        }
        log.per_second[second] += 1;
        let ok = reply.contains("\"ok\":true")
            && match class {
                Class::Edit(d) => reply.contains(&expect.designs[d]),
                Class::Sim(m) => reply.contains(&expect.machines[m]),
                Class::Cold(_) => reply.contains("\"transistors\":0"),
            };
        log.tally.check(ok, || {
            format!(
                "client {id}: wrong reply {}",
                &reply[..reply.len().min(200)]
            )
        });
        log.hits += reply_count(&reply, "cache_hits");
        log.misses += reply_count(&reply, "cache_misses");
        if let Some(t) = traced {
            let start = Instant::now();
            std::hint::black_box(parse_request(line.trim_end(), false)?);
            log.parse.add(ms_since(start));
            t.rec.set_id(((id as u64) << 48) | plan.seq);
            let request = t.rec.open("request");
            let twin = twin_compute(t, corpus, class, &line);
            t.rec.close(request, None);
            twin?;
            if plan.seq.is_multiple_of(CONTROL_EVERY) {
                flush(&t.rec, &mut log);
                let start = Instant::now();
                let reply = conn.roundtrip("{\"op\":\"stats\"}\n")?;
                log.control.add(ms_since(start));
                if !reply.contains("\"ok\":true") {
                    return Err(format!("stats failed: {}", reply.trim()));
                }
            }
        }
    }
    if let Some(t) = tracing {
        flush(&t.rec, &mut log);
    }
    Ok(log)
}

/// Runs both clients until `seconds` pass; merges their logs.
fn drive(
    addr: &str,
    corpus: &Corpus,
    expect: &Expected,
    seconds: f64,
    engine: Option<&Engine>,
) -> Result<Drive, String> {
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(seconds);
    let mut cpu = vec![process_cpu_s()];
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                s.spawn(move || {
                    let tracing = engine.map(|engine| Tracing {
                        engine,
                        rec: Recorder::new(origin),
                    });
                    client(addr, corpus, expect, id, origin, until, tracing.as_ref())
                })
            })
            .collect();
        // The process's CPU time at each window boundary, while the
        // clients run.
        for w in 1.. {
            let boundary = origin + Duration::from_secs(w);
            if boundary > until {
                break;
            }
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu.push(process_cpu_s());
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Drive {
        logs,
        elapsed: origin.elapsed().as_secs_f64(),
        cpu,
    })
}

/// What the clients of one run logged, and the process's CPU time (s)
/// at the start of each one-second window and at the end of the last.
struct Drive {
    logs: Vec<ClientLog>,
    elapsed: f64,
    cpu: Vec<f64>,
}

impl Drive {
    /// Completions in whole one-second window `w`.
    fn completed(&self, w: usize) -> f64 {
        self.logs
            .iter()
            .map(|l| f64::from(l.per_second.get(w).copied().unwrap_or(0)))
            .sum()
    }

    /// Median of the whole one-second windows' completions.
    fn wall_rate(&self) -> f64 {
        let windows = self.elapsed.floor().max(1.0) as usize;
        median(&(0..windows).map(|w| self.completed(w)).collect::<Vec<_>>())
    }

    /// Median over the whole one-second windows of completions per CPU
    /// second the process used in the window: the farm's throughput per
    /// core, which CPU time taken by the host's other tenants does not
    /// move.
    fn cpu_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .cpu
            .windows(2)
            .enumerate()
            .filter(|(_, c)| c[1] > c[0])
            .map(|(w, c)| self.completed(w) / (c[1] - c[0]))
            .collect();
        median(&rates)
    }
}

/// Evictions so far: entries inserted (one per miss, the engine being
/// memory-only) minus entries resident.
fn evictions(addr: &str, inserted: u64) -> Result<u64, String> {
    let reply = Conn::open(addr)?.roundtrip("{\"op\":\"stats\"}\n")?;
    Ok(inserted.saturating_sub(reply_count(&reply, "mem_entries")))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up: inputs, server bind and warming the hot set — what every
    // restarted farm pays. Repeated; the last farm serves the run.
    let mut setups = SetupClock::default();
    let mut running: Option<(Farm, Corpus, u64)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _, _)) = running.take() {
            old.stop()?;
        }
        running = Some(setups.time(|| -> Result<_, String> {
            let corpus = corpus(args.seed);
            let farm = Farm::start()?;
            let misses = warm(&farm.addr, &corpus)?;
            Ok((farm, corpus, misses))
        })?);
    }
    let (farm, corp, warm_misses) = running.expect("at least one set-up ran");
    let expect = expected(&corp)?;
    let result = measure(
        args,
        &farm.addr,
        &corp,
        &expect,
        args.seconds as f64,
        warm_misses,
    );
    farm.stop()?;
    let (tally, mut m) = result?;
    setups.insert(&mut m);
    Ok(Outcome { tally, metrics: m })
}

fn measure(
    args: &Args,
    addr: &str,
    corpus: &Corpus,
    expect: &Expected,
    seconds: f64,
    warm_misses: u64,
) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let mut inserted = warm_misses;
    let mut m = Metrics::new();
    if !args.trace {
        let run = drive(addr, corpus, expect, seconds, None)?;
        let (logs, elapsed) = (&run.logs, run.elapsed);
        let mut all = Histogram::default();
        for l in logs {
            tally.merge(l.tally);
        }
        for (class, name) in ["edit", "sim", "cold"].iter().enumerate() {
            let mut own = Histogram::default();
            for l in logs {
                own.merge(&l.latency[class]);
            }
            eprintln!(
                "  {name}: {} requests, p50 {:.4} ms, p99 {:.4} ms",
                own.len(),
                own.percentile(50.0),
                own.percentile(99.0)
            );
            all.merge(&own);
        }
        eprintln!(
            "serve_editloop: {} requests in {elapsed:.1} s; p99 has {} samples beyond it",
            all.len(),
            samples_beyond(all.len(), 99.0)
        );
        m.insert("jobs_per_s".into(), run.cpu_rate());
        m.insert("wall.jobs_per_s".into(), run.wall_rate());
        m.insert("latency_p50_ms".into(), all.percentile(50.0));
        m.insert("latency_p99_ms".into(), all.percentile(99.0));
        return Ok((tally, m));
    }

    // The traced run: the twin engine holds the same hot set as the farm.
    let engine = Engine::in_memory();
    let rec = Recorder::new(Instant::now());
    let rules = RuleSet::mead_conway_nmos();
    let mut stats = JobStats::default();
    for source in &corpus.designs {
        twin::compile(&rec, &engine, source, &rules, &mut stats)?;
    }
    for source in &corpus.machines {
        let machine = twin::parse_isl(&rec, source)?;
        twin::sim(&rec, &engine, &machine, SIM_CYCLES, &mut stats)?;
    }
    drop(rec.take());
    let logs = drive(addr, corpus, expect, seconds, Some(&engine))?.logs;
    let mut totals = Totals::default();
    let (mut hits, mut misses, mut failed) = (0, 0, 0);
    let mut out = String::new();
    for (i, l) in logs.iter().enumerate() {
        tally.merge(l.tally);
        failed += l.tally.failed;
        hits += l.hits;
        misses += l.misses;
        totals.merge(&l.totals);
        write_jsonl(&mut out, i, &l.spans);
    }
    crate::write_spans("serve_editloop", &out)?;
    let merged = |pick: &dyn Fn(&ClientLog) -> &Histogram| {
        let mut h = Histogram::default();
        for l in &logs {
            h.merge(pick(l));
        }
        h
    };
    let traced = merged(&|l| &l.traced);
    let mut untraced = Histogram::default();
    for l in &logs {
        for h in &l.latency {
            untraced.merge(h);
        }
    }
    let requests = traced.len().max(1) as f64;
    let all_requests = (traced.len() + untraced.len()).max(1) as f64;
    let roundtrip_ms = traced.mean();
    let untraced_ms = untraced.mean();
    let control_us = merged(&|l| &l.control).mean() * 1e3;
    let direct_ms = totals.root_ms / requests;

    // Per request: the round trip splits into the direct compute (the
    // twin's layers plus its glue) and the serve layer's own time, the
    // control round trip plus queueing and hand-off.
    m = layer_metrics(&totals, requests);
    let scale = direct_ms / roundtrip_ms;
    for name in LAYERS {
        if let Some(share) = m.get_mut(&format!("{name}.share")) {
            *share *= scale;
        }
    }
    m.insert("serve.share".into(), 1.0 - scale);
    m.insert("pass_ms".into(), roundtrip_ms);
    m.insert("serve.parse_us".into(), merged(&|l| &l.parse).mean() * 1e3);
    m.insert("serve.control_rtt_us".into(), control_us);
    m.insert(
        "serve.queue_wait_ms".into(),
        roundtrip_ms - control_us / 1e3 - direct_ms,
    );
    m.insert("serve.failed".into(), failed as f64);
    m.insert(
        "incr.hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    inserted += misses;
    m.insert(
        "incr.evictions".into(),
        evictions(addr, inserted)? as f64 / all_requests,
    );
    m.insert("untraced_pass_ms".into(), untraced_ms);
    m.insert("tracing_overhead_ms".into(), roundtrip_ms - untraced_ms);
    Ok((tally, m))
}
