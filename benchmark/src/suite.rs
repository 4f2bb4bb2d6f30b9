//! The whole suite: every workload in a child process of its own (so
//! peak RSS is per workload), an untraced pass then a traced pass, and
//! with `--repeat K` the same again under seeds `seed .. seed + K`, with
//! median, quartiles and relative spread per metric — the same spread
//! rule (interquartile range over median) the driver applies.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::NAMES;
use crate::Args;

/// One child's metrics by name, and whether it exited cleanly.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> (BTreeMap<String, f64>, bool) {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = match command.output() {
        Ok(output) => output,
        Err(err) => {
            eprintln!("cannot start the {workload} child: {err}");
            return (BTreeMap::new(), false);
        }
    };
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        // "metric <name> = <value> <unit>"
        let mut words = line.split_whitespace();
        if words.next() == Some("metric") {
            if let (Some(name), Some("="), Some(value)) = (words.next(), words.next(), words.next())
            {
                if let Ok(value) = value.parse::<f64>() {
                    metrics.insert(name.to_string(), value);
                }
            }
        }
    }
    (metrics, output.status.success())
}

pub fn run(args: &Args) -> ExitCode {
    println!(
        "# suite seed={} seconds={} repeat={} quick={} cores={}",
        args.seed,
        args.seconds,
        args.repeat,
        args.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // values[(workload, metric)] = one value per repeat.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut clean = true;
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        for workload in NAMES {
            for trace in [false, true] {
                let (metrics, ok) = run_child(args, workload, seed, trace);
                clean &= ok;
                println!(
                    "# {workload} seed={seed} trace={} {}",
                    u8::from(trace),
                    if ok { "ok" } else { "FAILED" }
                );
                for (name, value) in metrics {
                    values.entry((workload, name)).or_default().push(value);
                }
            }
        }
    }

    for (title, table) in [
        ("end-to-end", &END_TO_END[..]),
        ("per-layer", &PER_LAYER[..]),
    ] {
        println!(
            "\n== {title} metrics: median over {} run(s), seeds {}..{} ==",
            args.repeat,
            args.seed,
            args.seed + args.repeat as u64
        );
        for (name, unit) in table {
            for workload in NAMES {
                let Some(v) = values.get(&(workload, name.to_string())) else {
                    continue;
                };
                let mut line = format!(
                    "{name:<40} {workload:<17} {:>16.6} {unit:<6}",
                    stats::median(v)
                );
                if let (Some((q1, q3)), Some(spread)) =
                    (stats::quartiles(v), stats::relative_spread(v))
                {
                    line.push_str(&format!(
                        " q1 {q1:.6} q3 {q3:.6} spread {:.2}%",
                        spread * 100.0
                    ));
                }
                println!("{line}");
            }
        }
    }
    if args.quick {
        println!("\n\"quick\": true — counts divided by 20; these numbers are never compared");
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
