//! The harness's own arithmetic and determinism: percentiles, medians,
//! quartile spread, span self time, seeded inputs, and the contract file.

use select_benchmark::inputs::{self, Sizes};
use select_benchmark::orchestrate::metric_value;
use select_benchmark::span::{self_times_ns, summary, Recorder, Span};
use select_benchmark::stats::{median, percentile, quartile_spread, quartiles, sorted};
use select_benchmark::workloads::{self, RunArgs};
use select_benchmark::{report, spec};

#[test]
fn percentiles_are_nearest_rank() {
    let s = sorted((1..=100).map(f64::from).collect());
    assert_eq!(percentile(&s, 50.0), 50.0);
    assert_eq!(percentile(&s, 99.0), 99.0);
    assert_eq!(percentile(&s, 100.0), 100.0);
    assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
    // Five samples: p50 is the 3rd (ceil(2.5)), p99 the 5th.
    let s = sorted(vec![30.0, 10.0, 50.0, 20.0, 40.0]);
    assert_eq!(percentile(&s, 50.0), 30.0);
    assert_eq!(percentile(&s, 99.0), 50.0);
    assert_eq!(percentile(&s, 20.0), 10.0);
    assert_eq!(percentile(&s, 21.0), 20.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn rates_are_the_median_over_passes() {
    assert_eq!(median(&[900.0, 1100.0, 1000.0]), 1000.0);
    // One stalled pass does not move the reported rate.
    assert_eq!(median(&[1000.0, 1010.0, 990.0, 100.0, 1005.0]), 1000.0);
    assert_eq!(
        median(&[4.0, 2.0]),
        3.0,
        "even count: mean of the middle two"
    );
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    // statistics.quantiles([10, 9, 11, 10, 10, 10, 9, 11, 10, 10], n=4)
    //   == [9.75, 10.0, 10.25]
    let rounds = [10.0, 9.0, 11.0, 10.0, 10.0, 10.0, 9.0, 11.0, 10.0, 10.0];
    assert_eq!(quartiles(&rounds), (9.75, 10.25));
    assert!((quartile_spread(&rounds) - 0.05).abs() < 1e-12);
    assert_eq!(quartile_spread(&[1.0; 10]), 0.0);
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        id: 7,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_span_minus_children() {
    // publish [0, 100) → plan [5, 35) and publish_over [40, 95) → ack [50, 60)
    let spans = [
        span("publish", None, 0, 100),
        span("plan", Some(0), 5, 35),
        span("publish_over", Some(0), 40, 95),
        span("ack", Some(2), 50, 60),
    ];
    assert_eq!(self_times_ns(&spans), vec![15, 30, 45, 10]);
    let rows = summary(&spans);
    assert_eq!(rows[0], ("ack", 1, 10, 10));
    assert_eq!(rows[2], ("publish", 1, 100, 15));
    // Self times add up to the root: nothing is counted twice.
    assert_eq!(rows.iter().map(|r| r.3).sum::<u64>(), 100);
}

#[test]
fn recorder_nests_and_disabled_recorder_records_nothing() {
    let mut rec = Recorder::new();
    assert_eq!(rec.scope("off", 1, |_| 5), 5);
    assert!(rec.spans().is_empty());
    rec.set_enabled(true);
    rec.scope("pass", 1, |rec| {
        rec.scope("bootstrap", 1, |_| ());
        rec.scope("round", 1, |_| ());
        rec.scope("round", 1, |_| ());
    });
    let spans = rec.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, None);
    assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.id == 1));
    assert!(spans
        .iter()
        .all(|s| s.start_ns <= s.end_ns && s.end_ns <= spans[0].end_ns));
    assert_eq!(rec.durations_ns("round").len(), 2);
}

#[test]
fn same_seed_same_schedule_other_seed_other_schedule() {
    let sizes = Sizes::smoke("publish_sim");
    let (g1, g2) = (inputs::graph(&sizes, 11, 0), inputs::graph(&sizes, 11, 0));
    assert_eq!(g1.num_directed_edges(), g2.num_directed_edges());
    let a = inputs::schedule(&g1, 200, 11, 0);
    assert_eq!(a, inputs::schedule(&g2, 200, 11, 0));
    assert_eq!(a.len(), 200);
    let other = inputs::schedule(&inputs::graph(&sizes, 12, 0), 200, 12, 0);
    assert_ne!(a, other);
    assert_ne!(
        a,
        inputs::schedule(&g1, 200, 11, 1),
        "schedules of one run differ"
    );
    // The overlays of one run differ from each other too.
    assert_ne!(
        inputs::config(11, 0, 1, false).seed,
        inputs::config(11, 1, 1, false).seed
    );
}

fn smoke(workload: &str, seed: u64) -> workloads::Outcome {
    workloads::run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace: false,
        smoke: true,
    })
}

#[test]
fn exact_count_metrics_repeat_for_a_seed() {
    for w in ["converge_sparse", "publish_sim", "churn_faults"] {
        let (a, b) = (smoke(w, 5), smoke(w, 5));
        assert!(a.correct(), "{w}: {:?}", a.violations);
        assert_eq!(a.digest, b.digest, "{w}: exact counts differ for one seed");
        for m in spec::END_TO_END.iter().filter(|m| m.exact) {
            assert_eq!(a.end_to_end[m.name], b.end_to_end[m.name], "{w} {}", m.name);
        }
        assert_ne!(
            a.digest,
            smoke(w, 6).digest,
            "{w}: another seed gave the same counts"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let args = RunArgs {
        workload: "publish_inproc".to_string(),
        seed: 2,
        seconds: 0.0,
        trace: false,
        smoke: true,
    };
    let out = workloads::run(&args);
    assert!(out.correct(), "{:?}", out.violations);
    assert_eq!(out.failed, 0);
    let metrics = report::metrics_of(&args, &out);
    assert_eq!(metrics.len(), spec::END_TO_END.len());
    assert!(metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0));
    let line = report::result_line(true, &out, &metrics);
    for (name, _, v) in &metrics {
        assert_eq!(metric_value(&line, name), Some(*v), "{name}");
    }
}

#[test]
fn benchmark_json_is_the_spec() {
    assert_eq!(
        include_str!("../../BENCHMARK.json"),
        spec::render_benchmark_json()
    );
    let mut names: Vec<&str> = spec::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(spec::PER_LAYER.iter().map(|m| m.name))
        .chain(spec::WORKLOADS.iter().map(|w| w.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= 0.25));
    assert!(spec::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}
