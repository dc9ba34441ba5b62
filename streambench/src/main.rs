//! `streambench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metadata line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when a
//! check fails or an operation fails.

use std::io::Write;
use std::process::ExitCode;
use streambench::bench::{self, json_str, num, Args};

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streambench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("streambench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &out.problems {
        eprintln!("streambench: {p}");
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, out.spans.join("\n") + "\n"));
        if let Err(e) = written {
            eprintln!("streambench: cannot write spans to {path}: {e}");
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*value),
                json_str(unit)
            )
        })
        .collect();
    let mut stdout = std::io::stdout().lock();
    let printed = writeln!(stdout, "{{\"info\": {}}}", out.info).and_then(|_| {
        writeln!(
            stdout,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            out.correct,
            out.attempted,
            out.failed,
            metrics.join(", ")
        )
    });
    if printed.and_then(|_| stdout.flush()).is_err() || !out.correct {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
