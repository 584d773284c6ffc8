//! Command-line entry point of the workspace lint pass (L3 hotpath-alloc, L6
//! lock-order).
//!
//! * `cargo run -p selint` — lints the whole workspace with path-based rule
//!   scopes; exits non-zero if any finding survives waivers.
//! * `cargo run -p selint -- <file>...` — lints explicit files with
//!   **every** rule enabled (used for the seeded violation fixture in CI).
//! * `--json` — emit the `selint-report/v2` artifact on stdout instead of
//!   the human-readable finding list.
//!
//! Exit codes: `0` clean, `1` findings (incl. stale waivers), `2` internal
//! error (I/O, walk failure) — CI distinguishes 1 from 2 so an unreadable
//! fixture can't masquerade as a tripped negative control.

#![forbid(unsafe_code)]

use selint::{analyze, json, lint_workspace, workspace_root, Report, Scope, SourceFile};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut want_json = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => want_json = true,
            _ => paths.push(arg),
        }
    }

    let report: Report = if paths.is_empty() {
        match lint_workspace(workspace_root()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("selint: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut sources = Vec::new();
        for arg in &paths {
            match std::fs::read_to_string(arg) {
                Ok(src) => sources.push(SourceFile {
                    rel: arg.clone(),
                    source: src,
                    scope: Scope::all(),
                }),
                Err(e) => {
                    eprintln!("selint: cannot read {arg}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        analyze(sources)
    };

    if want_json {
        println!("{}", json::report_json(&report));
    } else {
        println!("selint: scanned {} files", report.files);
        for f in &report.findings {
            println!("{f}");
        }
        if report.findings.is_empty() {
            println!(
                "selint: clean ({} waiver(s), all in use)",
                report.waivers.len()
            );
        } else {
            println!("selint: {} finding(s)", report.findings.len());
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
