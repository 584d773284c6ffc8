//! `select-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//! plus `--smoke`, `--repeat <n>`, `--seeds <n>` and `--print-spec`.

use select_benchmark::orchestrate::{self, Mode};
use select_benchmark::workloads::{self, RunArgs};
use select_benchmark::{report, spec};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: select-benchmark --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--repeat N | --seeds N] | --print-spec";

fn parse() -> Result<(RunArgs, Mode, bool), String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let (mut mode, mut print_spec) = (Mode::Once, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(0.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => {
                args.smoke = true;
                args.seconds = 0.0;
            }
            "--repeat" => {
                mode = Mode::Repeat(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?)
            }
            "--seeds" => mode = Mode::Seeds(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--print-spec" => print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = args.workload == "all" || spec::WORKLOADS.iter().any(|w| w.name == args.workload);
    if !print_spec && !known {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok((args, mode, print_spec))
}

fn main() -> ExitCode {
    let (args, mode, print_spec) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if print_spec {
        print!("{}", spec::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" || mode != Mode::Once {
        let names = if args.workload == "all" {
            orchestrate::all_workloads()
        } else {
            vec![args.workload.as_str()]
        };
        return if orchestrate::run(&args, &names, mode) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let started = Instant::now();
    let outcome = workloads::run(&args);
    report::emit(&args, &outcome, started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
