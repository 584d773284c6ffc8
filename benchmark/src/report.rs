//! Output of one run: a provenance stamp, the metrics by name with their
//! units, the result file under `benchmark/out/`, and — as the last line of
//! standard output — the one JSON object the driver reads.

use crate::span;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::{Outcome, RunArgs};
use std::path::PathBuf;
use std::process::Command;

/// `benchmark/`: from cargo at run time, else as compiled.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::to_string)
}

/// Commit of the checkout the benchmark sits in; `unknown` outside git.
fn commit() -> String {
    let repo = benchmark_dir().join("..");
    if !repo.join(".git").exists() {
        return "unknown".to_string();
    }
    let rev = first_line_of(Command::new("git").arg("-C").arg(&repo).args([
        "rev-parse",
        "--short=12",
        "HEAD",
    ]));
    let dirty = first_line_of(
        Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["status", "--porcelain"]),
    )
    .is_some();
    match rev {
        Some(r) if dirty => format!("{r}+dirty"),
        Some(r) => r,
        None => "unknown".to_string(),
    }
}

/// Where a result came from: `(key, value)` pairs, in print order.
pub fn provenance(args: &RunArgs, out: &Outcome, run_wall_s: f64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("smoke".into(), args.smoke.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("commit".into(), commit()),
        (
            "rustc".into(),
            first_line_of(Command::new("rustc").arg("--version")).unwrap_or("unknown".into()),
        ),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("nproc".into(), nproc.to_string()),
        ("threads".into(), out.threads.to_string()),
        ("measured_s".into(), format!("{:.3}", out.measured_s)),
        ("run_wall_s".into(), format!("{run_wall_s:.3}")),
        ("digest".into(), format!("{:016x}", out.digest)),
        (
            "delivery_digest".into(),
            format!("{:016x}", out.delivery_digest),
        ),
    ];
    rows.extend(
        out.params
            .iter()
            .map(|(k, v)| (format!("param.{k}"), v.clone())),
    );
    rows.extend(
        out.samples
            .iter()
            .map(|(k, v)| (format!("samples.{k}"), v.to_string())),
    );
    rows
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metrics of this run in contract order: end-to-end for the untraced
/// run, per-layer (absent layers 0) for the traced one.
pub fn metrics_of(args: &RunArgs, out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    if args.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    out.per_layer.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    out.end_to_end.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// Prints the stamp and the metric table, writes `out/<workload>.result.json`
/// (and the span file on a traced run), then prints the driver's line last.
pub fn emit(args: &RunArgs, out: &Outcome, run_wall_s: f64) {
    let stamp = provenance(args, out, run_wall_s);
    for (k, v) in &stamp {
        println!("# {k}: {v}");
    }
    let metrics = metrics_of(args, out);
    // A metric that is not a finite number is a harness failure, not a 0.
    let finite = metrics.iter().all(|m| m.2.is_finite());
    let correct = out.correct() && finite;
    for v in &out.violations {
        println!("# VIOLATION: {v}");
        eprintln!("oracle violation: {v}");
    }
    println!("{:<36} {:>18}  unit", "metric", "value");
    for (name, unit, v) in &metrics {
        println!("{name:<36} {v:>18.4}  {unit}");
    }
    if args.trace {
        println!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (name, count, total, own) in span::summary(out.recorder.spans()) {
            println!(
                "{name:<28} {count:>8} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    let line = result_line(correct, out, &metrics);

    let dir = benchmark_dir().join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let stamp_json: Vec<String> = stamp
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        let suffix = if args.trace { "trace-result" } else { "result" };
        std::fs::write(
            dir.join(format!("{}.{suffix}.json", args.workload)),
            format!(
                "{{\"schema\": \"select-benchmark/v1\", \"provenance\": {{{}}},\n\"result\": {line}}}\n",
                stamp_json.join(", ")
            ),
        )?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{}.trace.json", args.workload)),
                span::to_json(&args.workload, args.seed, out.recorder.spans()),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", dir.display());
    }
    println!("{line}");
}
