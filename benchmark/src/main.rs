//! The repo benchmark. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, one JSON object `{"correct", "attempted", "failed",
//!   "metrics"}` — the end-to-end metrics with `--trace 0`, the
//!   per-layer metrics with `--trace 1`.
//! * without `--workload`, every workload runs in a child process of
//!   its own (so `peak_rss_mb` is per workload): an untraced pass, then a
//!   traced pass. `--repeat K` does that K times and prints median,
//!   quartiles and relative spread; `--quick` shrinks every count by 20.

// `x % n == 0` reads fine and builds on the workspace's MSRV, which
// `is_multiple_of` does not.
#![allow(clippy::manual_is_multiple_of)]

mod drive;
mod gen;
mod ladder;
mod layers;
mod model;
mod report;
mod rng;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;
use workloads::{Cfg, Workload};

/// Parsed command line.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub quick: bool,
}

const USAGE: &str = "usage: cbb-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <k>] [--quick]\n\
workloads: read_saturated read_interactive mixed_rw join_batch";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Scratch directory: `benchmark/out` of the checkout the command runs
/// from (the driver's working directory), else next to the manifest.
fn out_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(err) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {err}", out.display());
        return ExitCode::from(2);
    }
    match args.workload {
        None => suite::run(&args),
        Some(workload) => {
            let cfg = Cfg {
                seed: args.seed,
                seconds: if args.quick {
                    args.seconds / 20.0
                } else {
                    args.seconds
                },
                quick: args.quick,
                out,
            };
            run_one(workload, &cfg, args.trace)
        }
    }
}

/// One workload in this process, per the driver's contract.
fn run_one(workload: Workload, cfg: &Cfg, trace: bool) -> ExitCode {
    println!(
        "# workload={} seed={} seconds={} trace={} quick={} cores={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(trace),
        cfg.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut tracer = Tracer::new(Instant::now(), false);
    let outcome = workloads::run(workload, cfg, trace, &mut tracer);
    let mut report = Report::new(cfg.quick);
    report.client_side(workload, &outcome, trace);
    if trace {
        report.serve_side(&outcome);
        tracer.set_on(true);
        ladder::run(cfg, &mut tracer, &mut report);
        let path = cfg.out.join("trace.json");
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "# {} spans recorded, trace in {}",
                tracer.len(),
                path.display()
            ),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                report.failed += 1;
            }
        }
    }
    report.print(trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
