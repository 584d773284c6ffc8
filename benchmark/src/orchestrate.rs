//! Running several workloads or several runs: `--workload all`,
//! `--repeat N` (same seed; end-to-end metrics must agree within their
//! bounds and exact counts exactly) and `--seeds N` (N seeds; the quartile
//! spread the acceptance criterion holds against each bound). Every run is a
//! child process of its own, so `peak_rss_mb` stays per run.

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::workloads::RunArgs;
use std::process::{Command, Stdio};

/// How to repeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Each workload once.
    Once,
    /// Each workload this many times on one seed.
    Repeat(u64),
    /// Each workload on this many consecutive seeds.
    Seeds(u64),
}

/// What the parent reads back from one child run.
pub struct ChildRun {
    /// The driver's line.
    pub line: String,
    /// `# digest:` of the run.
    pub digest: String,
    /// `# delivery_digest:` of the run.
    pub delivery_digest: String,
}

/// Value of `name` in a result line this harness printed.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn run_child(args: &RunArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let tagged = |tag: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(tag))
            .unwrap_or("")
            .trim()
            .to_string()
    };
    let line = text.lines().last().unwrap_or("").to_string();
    if !out.status.success() || !line.starts_with('{') {
        return Err(format!(
            "{} exited with {} and no result line",
            args.workload, out.status
        ));
    }
    Ok(ChildRun {
        digest: tagged("# digest:"),
        delivery_digest: tagged("# delivery_digest:"),
        line,
    })
}

/// Runs `workloads` under `mode`; returns whether every check passed.
pub fn run(template: &RunArgs, workloads: &[&str], mode: Mode) -> bool {
    let mut ok = true;
    let mut inproc_tcp: Vec<(String, String)> = Vec::new();
    for &w in workloads {
        let runs: Vec<RunArgs> = match mode {
            Mode::Once => vec![0],
            Mode::Repeat(n) => vec![0; n as usize],
            Mode::Seeds(n) => (0..n).collect(),
        }
        .into_iter()
        .map(|offset| RunArgs {
            workload: w.to_string(),
            seed: template.seed + offset,
            ..template.clone()
        })
        .collect();
        let mut children = Vec::new();
        for r in &runs {
            match run_child(r) {
                Ok(c) => {
                    println!("{w} seed {} {}", r.seed, c.line);
                    ok &= c.line.contains("\"correct\": true");
                    children.push(c);
                }
                Err(e) => {
                    println!("{w} seed {}: FAILED: {e}", r.seed);
                    ok = false;
                }
            }
        }
        if let (Some(c), true) = (
            children.first(),
            w.starts_with("publish_") && w != "publish_sim",
        ) {
            inproc_tcp.push((w.to_string(), c.delivery_digest.clone()));
        }
        if children.len() < 2 {
            continue;
        }
        if template.trace {
            // Traced runs have no bounds; the counts the program makes must
            // still repeat exactly for one seed.
            if matches!(mode, Mode::Repeat(_)) {
                for m in PER_LAYER.iter().filter(|m| m.exact) {
                    let first = metric_value(&children[0].line, m.name);
                    let same = children
                        .iter()
                        .all(|c| metric_value(&c.line, m.name) == first);
                    if !same {
                        println!("{w:<16} {:<32} NOT EXACT", m.name);
                        ok = false;
                    }
                }
                println!("{w:<16} per-layer counts compared");
            }
            continue;
        }
        println!(
            "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
            "workload", "metric", "first/median", "worst", "share", "bound", "spread"
        );
        for m in &END_TO_END {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| metric_value(&c.line, m.name))
                .collect();
            if values.len() != children.len() {
                println!("{w:<16} {:<16} missing from a result line", m.name);
                ok = false;
                continue;
            }
            let (reference, other, share) = match mode {
                Mode::Seeds(_) => (median(&values), 0.0, quartile_spread(&values)),
                _ => {
                    // Worst later run against the first, in the direction
                    // that counts as worse.
                    let first = values[0];
                    let worst = values[1..]
                        .iter()
                        .copied()
                        .fold(first, |a, v| match m.better {
                            Better::Lower => a.max(v),
                            Better::Higher => a.min(v),
                        });
                    let share = match m.better {
                        Better::Lower => (worst - first) / first.abs().max(f64::MIN_POSITIVE),
                        Better::Higher => (first - worst) / first.abs().max(f64::MIN_POSITIVE),
                    };
                    (first, worst, share)
                }
            };
            let exact_ok = !(m.exact && matches!(mode, Mode::Repeat(_)))
                || values.iter().all(|v| *v == values[0]);
            let pass = share <= m.bound && exact_ok;
            ok &= pass;
            println!(
                "{w:<16} {:<16} {reference:>14.4} {other:>14.4} {:>8.2}% {:>6.1}% {:>8.2}%  {}",
                m.name,
                share * 100.0,
                m.bound * 100.0,
                quartile_spread(&values) * 100.0,
                if pass {
                    "ok"
                } else if exact_ok {
                    "OUT OF BOUND"
                } else {
                    "NOT EXACT"
                }
            );
        }
        if matches!(mode, Mode::Repeat(_)) {
            let same = children.iter().all(|c| c.digest == children[0].digest);
            println!(
                "{w:<16} exact counts and delivery sets: {}",
                if same { "identical" } else { "DIFFER" }
            );
            ok &= same;
        }
    }
    if let [(_, a), (_, b)] = inproc_tcp.as_slice() {
        let same = a == b && !a.is_empty();
        println!(
            "publish_inproc and publish_tcp delivery sets: {}",
            if same { "identical" } else { "DIFFER" }
        );
        ok &= same;
    }
    ok
}

/// Names of all workloads, in run order.
pub fn all_workloads() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}
