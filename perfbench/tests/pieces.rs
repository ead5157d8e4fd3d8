//! Tests of the benchmark's own pieces: sample summaries, the arrival
//! schedule, span arithmetic, the metric catalogue and the command's
//! output contract.

use std::process::Command;
use std::time::Duration;

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::sched::poisson;
use perfbench::spans::{covered, self_time, Span};
use perfbench::stats::{median, windowed_quantile, windowed_rate, Summary};

#[test]
fn summary_reports_its_sample_count_at_small_n() {
    let empty = Summary::of(&[]);
    assert_eq!((empty.n, empty.p50, empty.p99), (0, 0.0, 0.0));

    let one = Summary::of(&[7.0]);
    assert_eq!((one.n, one.p50, one.p99, one.mean), (1, 7.0, 7.0, 7.0));

    let two = Summary::of(&[3.0, 1.0]);
    assert_eq!(two.n, 2);
    assert_eq!(two.p50, 2.0);
    assert!((two.p99 - 2.98).abs() < 1e-12);

    let five = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!((five.n, five.p50, five.mean), (5, 3.0, 3.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn windowed_figures_take_the_median_sub_window() {
    // Five 1 s windows completing 10, 10, 50, 10, 0 operations.
    let mut completions = Vec::new();
    for (w, ops) in [10usize, 10, 50, 10, 0].into_iter().enumerate() {
        for i in 0..ops {
            completions.push((w as f64 + (i as f64 + 0.5) / ops as f64, 1));
        }
    }
    completions.push((5.0, 0));
    assert_eq!(windowed_rate(&completions, 5), 10.0);
    assert_eq!(windowed_rate(&[], 5), 0.0);

    // One stalled window does not set the tail.
    let points: Vec<(f64, f64)> = (0..500)
        .map(|i| {
            let at = f64::from(i) / 100.0;
            let value = if (100..200).contains(&i) { 50.0 } else { 1.0 };
            (at, value)
        })
        .collect();
    assert_eq!(windowed_quantile(&points, 5, 0.99), 1.0);
}

#[test]
fn poisson_schedule_reproduces_by_seed() {
    let horizon = Duration::from_secs(4);
    let a = poisson(7, 250.0, horizon);
    assert_eq!(a, poisson(7, 250.0, horizon));
    assert_ne!(a, poisson(8, 250.0, horizon));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&d| d < horizon));
    // 1000 expected arrivals; 5 σ is about 160.
    assert!((840..1160).contains(&a.len()), "{} arrivals", a.len());
}

fn span(start: u64, end: u64) -> Span {
    Span { start, end }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    let parent = span(0, 100);
    let children = [span(10, 50), span(20, 30)];
    assert_eq!(covered(parent, &children), 40);
    assert_eq!(self_time(parent, &children), 60);
}

#[test]
fn self_time_merges_overlapping_children() {
    let parent = span(100, 200);
    let children = [span(140, 180), span(110, 150), span(185, 190)];
    assert_eq!(covered(parent, &children), 75);
    assert_eq!(self_time(parent, &children), 25);
}

#[test]
fn self_time_clips_children_to_the_parent() {
    let parent = span(100, 200);
    let children = [span(50, 120), span(190, 260), span(300, 400)];
    assert_eq!(covered(parent, &children), 30);
    assert_eq!(self_time(parent, &children), 70);
    assert_eq!(self_time(parent, &[]), 100);
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let body = text
        .split_once(&format!("\"{section}\": ["))
        .expect("section present")
        .1
        .split_once(']')
        .expect("section closes")
        .0;
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .split_once(&format!("\"{key}\": \""))
                    .expect("field present")
                    .1
                    .split_once('"')
                    .expect("string closes")
                    .0
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

#[test]
fn a_failed_check_makes_the_result_incorrect() {
    let mut report = Report::new(false);
    for (name, _) in END_TO_END {
        report.set(name, 1.0, 1);
    }
    report.attempted = 10;
    assert!(report.correct());
    report.failed = 1;
    assert!(!report.correct());
    let last = report
        .render()
        .lines()
        .last()
        .expect("a result line")
        .to_string();
    assert!(last.starts_with("{\"correct\":false,\"attempted\":10,\"failed\":1,"));
}

fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn assert_names_every_metric(stdout: &str, catalogue: &[(&str, &str)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    for (name, unit) in catalogue {
        let entry = format!("\"{name}\":{{\"value\":");
        assert!(last.contains(&entry), "{name} missing from {last}");
        let unit = format!("\"unit\":\"{unit}\"");
        let after = last.split_once(&entry).expect("entry").1;
        assert!(
            after
                .split_once('}')
                .expect("entry closes")
                .0
                .contains(&unit),
            "{name} lacks its unit"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name) && l.contains(" n=")),
            "{name} has no human-readable line with a sample count"
        );
    }
}

#[test]
fn the_command_prints_every_end_to_end_metric_with_its_unit() {
    let (ok, stdout) = run(&[
        "--workload",
        "mlp-sparse",
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("# perfbench workload=mlp-sparse seed=3"));
    assert_names_every_metric(&stdout, END_TO_END);
}

#[test]
fn the_traced_run_prints_every_per_layer_metric_with_its_unit() {
    let (ok, stdout) = run(&[
        "--workload",
        "mlp-sparse",
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        "1",
    ]);
    assert!(ok, "{stdout}");
    assert_names_every_metric(&stdout, PER_LAYER);
}

#[test]
fn a_flipped_output_bit_fails_the_command() {
    let (ok, stdout) = run(&[
        "--workload",
        "mlp-sparse",
        "--seed",
        "3",
        "--seconds",
        "0.5",
        "--trace",
        "0",
        "--flip-bit",
    ]);
    assert!(!ok, "a wrong output bit must fail the run");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(last.contains("\"failed\":1,"), "{last}");
}
