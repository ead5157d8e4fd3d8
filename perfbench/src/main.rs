//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or, with `all`, every workload, each in its own
//! process) and prints a run header, one line per metric with its unit
//! and sample count, and as the last line the JSON result. Exits 1 when
//! any output check fails. `--flip-bit` flips one served output bit
//! before the checks, to show that they catch it.

use std::process::{Command, ExitCode};

use perfbench::{constants, run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    flip: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        flip: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--flip-bit" {
            args.flip = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (known: {}, all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing read outside the checkout).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn header(args: &Args, workload: &str) {
    let hw = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} commit={} rustc=\"{}\" \
         hw_threads={hw}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        rustc()
    );
    println!("# constants: {}", constants(workload));
}

/// Run every workload in its own child process; print each child's
/// output, then one combined JSON line (metrics keyed `workload/name`).
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if args.flip {
            child.arg("--flip-bit");
        }
        let output = child.output().expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        correct &= output.status.success();
        let Some(last) = stdout.lines().last() else {
            correct = false;
            continue;
        };
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        if let Some(body) = last
            .split_once("\"metrics\":{")
            .and_then(|(_, rest)| rest.strip_suffix("}}"))
        {
            metrics.extend(body.split("},\"").map(|m| {
                let m = m.trim_start_matches('"');
                let close = if m.ends_with('}') { "" } else { "}" };
                format!("\"{workload}/{m}{close}")
            }));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        correct && failed == 0,
        metrics.join(",")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    header(&args, &args.workload);
    let report = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.flip,
    );
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
