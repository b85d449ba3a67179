//! `hta-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints every metric with its unit, then one
//! closing JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` every workload instance runs in a child process of
//! this executable, started with `--instance 1`, which prints one
//! [`Instance`] as text.
//! Exits 2 when a correctness or coverage check failed, 1 on bad
//! arguments. Run it from the repository root with
//! `cargo run --release --manifest-path hta-benchmark/Cargo.toml -- ...`.

use std::process::ExitCode;

use hta_benchmark::{end_to_end, per_layer, Instance, Scale, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    instance: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut instance = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (stream-churn, stream-chaos, mpc-fig10)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" | "--instance" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    instance = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        instance,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hta-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    if args.instance {
        print!(
            "{}",
            Instance::run(args.workload, args.seed, Scale::Full).to_text()
        );
        return ExitCode::SUCCESS;
    }
    let report = if args.trace {
        per_layer(args.workload, args.seed, Scale::Full, args.seconds)
    } else {
        match std::env::current_exe() {
            Ok(exe) => end_to_end(args.workload, args.seed, args.seconds, |seed| {
                Instance::spawn(&exe, args.workload, seed)
            }),
            Err(e) => {
                eprintln!("hta-benchmark: cannot locate own executable: {e}");
                return ExitCode::from(1);
            }
        }
    };
    println!(
        "# {} seed={} trace={} runs={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted
    );
    for m in &report.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
