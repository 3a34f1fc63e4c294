//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON line describing the run, then the result line last:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//!
//! `perfbench --prepare <name>` only fills the model cache for the workload and prints
//! `{"train_s": <seconds>}`; run it first so that training, and the memory it leaves
//! resident, stay out of the measured process.

use perfbench::report::result_line;
use perfbench::workloads::{RunConfig, Workload};
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let missing = |name: &str| format!("--{name} is required");
    Ok(RunConfig::new(
        workload.ok_or_else(|| missing("workload"))?,
        seed.ok_or_else(|| missing("seed"))?,
        seconds.ok_or_else(|| missing("seconds"))?,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = perfbench::check_env(|name| std::env::var_os(name).is_some()) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if let [flag, name] = args.as_slice() {
        if flag == "--prepare" {
            let prepared = Workload::parse(name).and_then(|workload| {
                perfbench::models::QuickModels::new(
                    &RunConfig::new(workload, 0, 0.0, false).cache_dir,
                )
                .ensure(workload.model())
            });
            return match prepared {
                Ok(train_s) => {
                    println!("{{\"train_s\": {train_s}}}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    match parse_args(&args).and_then(|config| perfbench::run(&config)) {
        Ok(report) => {
            println!("{}", report.info);
            println!(
                "{}",
                result_line(
                    report.failed == 0,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
