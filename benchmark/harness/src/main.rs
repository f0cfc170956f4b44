//! `hlf-benchmark`: the repo's ordering benchmark. See benchmark/README.md.

mod check;
mod cluster;
mod drive;
mod gen;
mod layers;
mod probes;
mod run;
mod selftest;
mod spec;
mod stats;
mod trace;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

use run::{Metric, Outcome};
use std::path::PathBuf;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where a traced run writes `trace-<workload>.json`.
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: hlf-benchmark --workload W [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]\n\
         \x20      hlf-benchmark --list | selftest\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--list") => {
            spec::WORKLOADS.iter().for_each(|w| println!("{}", w.name));
            std::process::exit(0);
        }
        Some("selftest") => std::process::exit(if selftest::run().is_empty() { 0 } else { 1 }),
        _ => {}
    }
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--seconds" => args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => usage(),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        eprintln!("--seconds must be between 1 and 60");
        usage();
    }
    args
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints every metric by name with its unit, the remarks, then the result
/// line the driver reads: one JSON object, last on standard output.
fn print_outcome(workload: &str, outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{workload}/{name} {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
}

fn main() {
    let args = parse_args();
    let Some(name) = &args.workload else { usage() };
    let Some(spec) = spec::find(name) else {
        eprintln!("unknown workload {name}");
        usage()
    };
    let outcome = run::run(
        spec,
        args.seed,
        args.seconds,
        args.trace.then_some(args.out.as_path()),
    );
    print_outcome(spec.name, &outcome);
    if !outcome.correct {
        std::process::exit(1);
    }
}
