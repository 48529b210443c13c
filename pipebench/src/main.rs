//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric with its unit (and sample counts), then one JSON
//! result object as the last line. Exits non-zero, without a result, on
//! any integrity violation.

use pipebench::driver::{self, Options, RunResult};
use pipebench::report::{self, Metric};
use pipebench::workload::{Workload, NAMES};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    kernel_baseline_us: f64,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut kernel_baseline_us = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {NAMES:?}")
                })?)
            }
            "--seed" => seed = Some(parse_u64(&value).ok_or("--seed: not an integer")?),
            "--seconds" => seconds = parse_u64(&value).ok_or("--seconds: not an integer")?,
            "--trace" => trace = value == "1",
            "--kernel-baseline-us" => {
                kernel_baseline_us = Some(
                    value
                        .parse()
                        .map_err(|_| "--kernel-baseline-us: not a number".to_owned())?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
        kernel_baseline_us: kernel_baseline_us.ok_or("--kernel-baseline-us is required")?,
    })
}

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 5;

/// Wall time between reference-kernel samples.
const KERNEL_EVERY: Duration = Duration::from_millis(25);

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<52} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn stamp(args: &Args) -> String {
    format!(
        "pipebench seed {:#x} workload {} seconds {} trace {}",
        args.seed,
        args.workload.name,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Runs once and enforces integrity: a violation ends the process.
fn checked_run(args: &Args, options: &Options) -> Result<RunResult, ExitCode> {
    let result = driver::run(options);
    if result.violations.is_empty() {
        return Ok(result);
    }
    eprintln!(
        "{}: {} integrity violation(s)",
        stamp(args),
        result.violations.len()
    );
    for violation in result.violations.iter().take(50) {
        eprintln!("  {violation}");
    }
    Err(ExitCode::from(1))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --kernel-baseline-us <us> --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let options = Options {
        workload: args.workload.clone(),
        seed: args.seed,
        ops: args.seconds as usize * args.workload.ops_per_second,
        trace: false,
        setups: SETUPS,
        kernel_every: Some(KERNEL_EVERY),
        kernel_baseline_us: args.kernel_baseline_us,
    };
    println!("{}", stamp(&args));
    let untraced = match checked_run(&args, &options) {
        Ok(result) => result,
        Err(code) => return code,
    };
    println!(
        "ops {} (writes {}, reads {}), failed {}, measured {:.2} s wall, sweep {:.2} s",
        untraced.attempted,
        untraced.writes,
        untraced.attempted - untraced.writes,
        untraced.failed,
        untraced.measure_wall_s,
        untraced.sweep_wall_s
    );
    println!(
        "write p50/p99 over n={} samples; read p50/p99 over n={} samples",
        untraced.write.n, untraced.read.n
    );
    println!(
        "norm_cpu_us_per_op {:.3} us (raw {:.3} us; kernel median {:.1} us over {} samples, within-run spread {:.2}%)",
        untraced.norm_cpu_us_per_op,
        untraced.raw_cpu_us_per_op,
        untraced.kernel_median_us,
        untraced.kernel_samples,
        untraced.kernel_spread * 100.0
    );
    println!("setup wall samples {:?} s", untraced.setup_samples);
    let (metrics, attempted, failed) = if args.trace {
        let traced = match checked_run(
            &args,
            &Options {
                trace: true,
                setups: 1,
                ..options.clone()
            },
        ) {
            Ok(result) => result,
            Err(code) => return code,
        };
        let probe = driver::seed_probe(&args.workload, args.seed);
        let metrics = report::per_layer(&traced, &untraced, &probe);
        (metrics, traced.attempted, traced.failed)
    } else {
        (
            report::end_to_end(&untraced),
            untraced.attempted,
            untraced.failed,
        )
    };
    print_metrics(&metrics);
    println!("{}", report::json_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
