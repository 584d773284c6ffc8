//! `repro` — regenerates every table and figure of the SELECT paper.
//!
//! ```text
//! repro [--quick|--standard|--full] [--seed N] <subcommand>
//!
//! Subcommands:
//!   table2        Table II data-set calibration
//!   links-sweep   §IV-C hops-vs-K sweep
//!   fig2          average hops per social lookup
//!   fig3          average relay nodes per routing path
//!   fig4          load balance by social degree
//!   fig5          overlay construction iterations
//!   fig6          availability under churn
//!   star          §IV-D simultaneous-transfer star experiment
//!   fig7          dissemination latency (realistic model)
//!   fig8          identifier distribution after SELECT
//!   ablations     SELECT design-choice ablation study
//!   scalability   construction cost and quality vs network size
//!   sessions      CMA recovery under realistic session traces
//!   churn-compare availability under churn across all five systems
//!   hotpath       converge/publish hot-path bench → BENCH_hotpath.json
//!                 (with --check: validate an existing file and enforce the
//!                 2x batched-routing throughput gate)
//!   obs           observability overhead bench → BENCH_obs.json
//!                 (with --check: validate + enforce the ≤5% overhead gate)
//!   wire          transport bench: publishes/sec + p50/p95/p99 delivery
//!                 latency, per-tag frame/byte telemetry and tracing
//!                 overhead over in-process channels vs loopback TCP →
//!                 BENCH_wire.json (with --check: validate the schema and
//!                 enforce the ≤5% tracing-overhead, span-completeness and
//!                 inproc-throughput regression gates)
//!   wiretrace     tracing conformance: inproc canonical trace trees must
//!                 be bit-identical at converge threads 1 and 8, TCP runs
//!                 must yield a complete causal span chain per delivered
//!                 publish, and live tracing overhead must stay ≤5%
//!   scale [key]   full-size convergence → BENCH_scale.json. By default runs
//!                 the 63k Facebook preset; `scale <key>` runs one named
//!                 preset (facebook, slashdot, gplus, twitter); `--full`
//!                 sweeps all four Table II presets (3.99M-peer Twitter
//!                 included — release mode, see EXPERIMENTS.md); `--quick`
//!                 smoke-runs 1% replicas without
//!                 touching the JSON. Fresh runs merge into the existing
//!                 file, so partial invocations keep the other presets'
//!                 recorded numbers. With --check: re-runs Facebook and
//!                 enforces its converge wall-time + bytes/peer budgets.
//!   all           everything above, in paper order
//! ```
//!
//! Build with `--features count-allocs` to include allocations/publish in
//! the hotpath report.

use osn_bench::report::report_to_csv as report_to_csv_blocks;
use osn_bench::*;
use osn_graph::datasets::Dataset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::standard();
    let mut preset = "standard";
    let mut seed: Option<u64> = None;
    let mut cmd: Option<String> = None;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut check_only = false;
    let mut scale_preset: Option<&scale::ScalePreset> = None;

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                scale = Scale::quick();
                preset = "quick";
            }
            "--standard" => {
                scale = Scale::standard();
                preset = "standard";
            }
            "--full" => {
                scale = Scale::full();
                preset = "full";
            }
            "--check" => check_only = true,
            "--csv" => {
                csv_dir = it.next().map(std::path::PathBuf::from);
                if csv_dir.is_none() {
                    panic!("--csv needs a directory");
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .or_else(|| panic!("--seed needs a number"));
            }
            other if cmd.is_none() => cmd = Some(other.to_string()),
            key if cmd.as_deref() == Some("scale") && scale_preset.is_none() => {
                scale_preset = Some(scale::preset(key).unwrap_or_else(|| {
                    eprintln!("unknown scale preset: {key}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(s) = seed {
        scale.seed = s;
    }
    let cmd = cmd.unwrap_or_else(|| "all".to_string());

    // Optional CSV sink: every rendered table also lands in --csv DIR as
    // <subcommand>-<index>.csv for plotting.
    let write_csv = |name: &str, output: &str| {
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            for (i, (_title, csv)) in report_to_csv_blocks(output).into_iter().enumerate() {
                let path = dir.join(format!("{name}-{i}.csv"));
                std::fs::write(&path, csv).expect("write csv");
            }
        }
    };

    let run_one = |name: &str, scale: &Scale| -> Option<String> {
        match name {
            "table2" => Some(table2::run(0.01, scale.seed)),
            "links-sweep" => {
                let g = std::sync::Arc::new(
                    Dataset::Facebook.generate_with_nodes(*scale.sizes.last().unwrap(), scale.seed),
                );
                Some(exp_links::run(&g, scale.trials * 3, scale.seed))
            }
            "fig2" => Some(exp_hops::run(scale)),
            "fig3" => Some(exp_relays::run(scale)),
            "fig4" => Some(exp_load::run(scale)),
            "fig5" => Some(exp_iterations::run(scale)),
            "fig6" => Some(exp_churn::run(scale)),
            "star" => Some(exp_star::run(scale.seed)),
            "fig7" => Some(exp_latency::run(scale)),
            "fig8" => Some(exp_ids::run(scale)),
            "ablations" => Some(exp_ablation::run(scale)),
            "scalability" => Some(exp_scalability::run(&scale.sizes, scale.trials, scale.seed)),
            "churn-compare" => Some(exp_churn_compare::run(
                *scale.sizes.first().unwrap(),
                20.max(scale.trials / 2),
                scale.seed,
            )),
            "sessions" => Some(exp_sessions::run(
                *scale.sizes.first().unwrap(),
                30.max(scale.trials),
                scale.seed,
            )),
            "hotpath" => {
                if check_only {
                    let text = std::fs::read_to_string("BENCH_hotpath.json")
                        .expect("read BENCH_hotpath.json (run `repro hotpath` first)");
                    if let Err(e) = hotpath::check_json(&text) {
                        eprintln!("BENCH_hotpath.json: schema violation: {e}");
                        std::process::exit(1);
                    }
                    // Batched-routing acceptance gate: the recorded run must
                    // hold at least 2x the pre-refactor baseline throughput.
                    match hotpath::check_speedup(&text, 2.0) {
                        Ok(Some(ratio)) => Some(format!(
                            "BENCH_hotpath.json: schema OK, throughput {ratio:.2}x baseline (gate: 2.0x)\n"
                        )),
                        Ok(None) => {
                            Some("BENCH_hotpath.json: schema OK (no baseline to gate against)\n".to_string())
                        }
                        Err(e) => {
                            eprintln!("BENCH_hotpath.json: {e}");
                            std::process::exit(1);
                        }
                    }
                } else {
                    let (n, publishes) = hotpath::preset_params(preset);
                    let m = hotpath::measure(n, publishes, scale.seed);
                    let json = hotpath::render_json(preset, scale.seed, &m);
                    hotpath::check_json(&json).expect("emitted JSON failed its own schema check");
                    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
                    Some(format!(
                        "{}\nwrote BENCH_hotpath.json\n",
                        hotpath::render_table(preset, &m)
                    ))
                }
            }
            "obs" => {
                if check_only {
                    let text = std::fs::read_to_string("BENCH_obs.json")
                        .expect("read BENCH_obs.json (run `repro obs` first)");
                    match obs_overhead::check_json(&text) {
                        Ok(()) => Some("BENCH_obs.json: schema + overhead gate OK\n".to_string()),
                        Err(e) => {
                            eprintln!("BENCH_obs.json: {e}");
                            std::process::exit(1);
                        }
                    }
                } else {
                    let (n, publishes) = obs_overhead::preset_params(preset);
                    let m = obs_overhead::measure(n, publishes, scale.seed);
                    let json = obs_overhead::render_json(preset, scale.seed, &m);
                    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
                    Some(format!(
                        "{}\nwrote BENCH_obs.json\n",
                        obs_overhead::render_table(preset, &m)
                    ))
                }
            }
            "wire" => {
                if check_only {
                    let text = std::fs::read_to_string("BENCH_wire.json")
                        .expect("read BENCH_wire.json (run `repro wire` first)");
                    match wire::check_json(&text) {
                        Ok(()) => Some(
                            "BENCH_wire.json: schema OK; tracing-overhead, trace-completeness \
                             and inproc-throughput gates hold\n"
                                .to_string(),
                        ),
                        Err(e) => {
                            eprintln!("BENCH_wire.json: {e}");
                            std::process::exit(1);
                        }
                    }
                } else {
                    let (n, publishes) = wire::preset_params(preset);
                    let m = wire::measure(n, publishes, scale.seed);
                    let json = wire::render_json(preset, scale.seed, &m);
                    wire::check_json(&json).expect("emitted JSON failed its own schema check");
                    std::fs::write("BENCH_wire.json", &json).expect("write BENCH_wire.json");
                    Some(format!(
                        "{}\nwrote BENCH_wire.json\n",
                        wire::render_table(preset, &m)
                    ))
                }
            }
            "wiretrace" => {
                let (n, publishes) = wire::preset_params(preset);
                match wire::wiretrace(n, publishes, scale.seed) {
                    Ok(report) => Some(report),
                    Err(e) => {
                        eprintln!("wiretrace: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "scale" => {
                if preset == "quick" && !check_only {
                    // Smoke run: 1% replicas of all four presets, table only.
                    let runs: Vec<scale::ScaleRun> = scale::PRESETS
                        .iter()
                        .map(|p| {
                            eprintln!("[repro] scale smoke: {} …", p.key);
                            scale::measure_at(
                                p.dataset,
                                p.dataset.scaled_users(0.01),
                                p.max_rounds,
                                scale.seed,
                            )
                        })
                        .collect();
                    Some(scale::render_table(&runs))
                } else {
                    let to_run: Vec<&scale::ScalePreset> = match scale_preset {
                        Some(one) if !check_only => vec![one],
                        None if !check_only && preset == "full" => scale::PRESETS.iter().collect(),
                        _ => vec![scale::preset("facebook").unwrap()],
                    };
                    let fresh: Vec<scale::ScaleRun> = to_run
                        .iter()
                        .map(|p| {
                            eprintln!(
                                "[repro] scale: {} ({} peers) …",
                                p.key,
                                p.dataset.paper_users()
                            );
                            scale::measure(p, scale.seed)
                        })
                        .collect();
                    let existing = std::fs::read_to_string("BENCH_scale.json")
                        .ok()
                        .and_then(|t| scale::parse_runs(&t).ok())
                        .unwrap_or_default();
                    let merged = scale::merge_runs(existing, fresh);
                    let json = scale::render_json(scale.seed, &merged);
                    scale::check_json(&json).expect("emitted JSON failed its own schema check");
                    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
                    if check_only {
                        match scale::check_gate(&json) {
                            Ok(fb) => Some(format!(
                                "BENCH_scale.json: Facebook gate OK ({:.0} ms converge, {:.0} bytes/peer)\n",
                                fb.converge_wall_ms, fb.bytes_per_peer
                            )),
                            Err(e) => {
                                eprintln!("BENCH_scale.json: {e}");
                                std::process::exit(1);
                            }
                        }
                    } else {
                        Some(format!(
                            "{}\nwrote BENCH_scale.json\n",
                            scale::render_table(&merged)
                        ))
                    }
                }
            }
            _ => None,
        }
    };

    let order = [
        "table2",
        "links-sweep",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "star",
        "fig7",
        "fig8",
        "ablations",
        "scalability",
        "sessions",
        "churn-compare",
    ];

    match cmd.as_str() {
        "all" => {
            for name in order {
                eprintln!("[repro] running {name} …");
                if name == "fig2" {
                    // fig2/fig3 share one measurement sweep.
                    let cells = exp_hops::sweep(&scale);
                    let f2 = exp_hops::render_fig2(&cells);
                    let f3 = exp_hops::render_fig3(&cells);
                    println!("{f2}");
                    eprintln!("[repro] running fig3 …");
                    println!("{f3}");
                    write_csv("fig2", &f2);
                    write_csv("fig3", &f3);
                    continue;
                }
                if name == "fig3" {
                    continue;
                }
                let out = run_one(name, &scale).unwrap();
                println!("{out}");
                write_csv(name, &out);
            }
        }
        name => match run_one(name, &scale) {
            Some(out) => {
                println!("{out}");
                write_csv(name, &out);
            }
            None => {
                eprintln!("unknown subcommand '{name}'; see source header for the list");
                std::process::exit(2);
            }
        },
    }
}
