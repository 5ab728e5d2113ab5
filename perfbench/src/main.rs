//! SILC benchmark: end-to-end and per-layer performance of the silicon
//! compiler's pipeline over seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chip_build --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The metric names and units come from
//! `BENCHMARK.json`: `--trace 0` prints its `end_to_end` metrics,
//! `--trace 1` its `per_layer` metrics (from a separate traced run).
//! A human-readable summary goes to stderr; the last line of stdout is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod behav;
mod chip;
mod report;
mod serve;
mod spans;
mod twin;
mod util;

use report::Metrics;
use std::process::ExitCode;
use util::Tally;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload hands back: its check tally and its metrics.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

const USAGE: &str =
    "usage: silc-perfbench --workload <chip_build|behav_build|serve_editloop> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// Names and units are plain identifiers there (no brackets, braces or
/// quotes), so scanning the section's list suffices.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let missing = || format!("BENCHMARK.json has no `{section}` list");
    let rest = &text[text.find(&format!("\"{section}\"")).ok_or_else(missing)?..];
    let open = rest.find('[').ok_or_else(missing)?;
    let close = open + rest[open..].find(']').ok_or_else(missing)?;
    let field = |entry: &str, key: &str| -> Option<String> {
        let after = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
        let value = &after[after.find('"')? + 1..];
        Some(value[..value.find('"')?].to_string())
    };
    rest[open + 1..close]
        .split('}')
        .filter(|entry| entry.contains('{'))
        .map(|entry| {
            let name = field(entry, "name");
            let unit = field(entry, "unit");
            name.zip(unit)
                .ok_or_else(|| format!("BENCHMARK.json: a `{section}` entry lacks a name or unit"))
        })
        .collect()
}

/// Writes the traced run's spans, one JSON object per line, under
/// `perfbench/out/`.
pub fn write_spans(workload: &str, jsonl: &str) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}.jsonl"));
    std::fs::write(&path, jsonl).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run() -> Result<String, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wanted = declared(section)?;
    let mut outcome = match args.workload.as_str() {
        "chip_build" => chip::run(&args)?,
        "behav_build" => behav::run(&args)?,
        "serve_editloop" => serve::run(&args)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    outcome
        .metrics
        .insert("peak_rss_mb".into(), util::peak_rss_mb()?);
    let tally = outcome.tally;
    eprintln!(
        "{} seed {} ({}): {} operations, {} failed, fail_ratio {:.6}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload never calls did no work.
            None if args.trace => 0.0,
            None => return Err(format!("{} measured no `{name}`", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{} measured `{name}` as {value}", args.workload));
        }
        eprintln!("  {name:<32} {value:>14.4} {unit}");
        // Names and units are plain identifiers (BENCHMARK.json's rules),
        // so they need no escaping.
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for (name, value) in &outcome.metrics {
        if !wanted.iter().any(|(w, _)| w == name) {
            eprintln!("  {name:<32} {value:>14.4} (reported, not gated)");
        }
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("silc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
