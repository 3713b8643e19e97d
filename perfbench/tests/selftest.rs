//! Self-tests at tiny sizes: every workload, untraced and traced, prints
//! every metric of `BENCHMARK.json` by name with its unit and ends with a
//! well-formed result line; a deliberately corrupted output is counted as
//! a failure and turns the exit code non-zero.
//!
//! Run from the repository root: `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["paper_scores", "search_10k", "served_2k"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn catalogue(section: &str) -> Vec<(String, String)> {
    benchmark_json()[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

/// The `study` binary, built once into the same target directory.
fn study_exe() -> PathBuf {
    static EXE: OnceLock<PathBuf> = OnceLock::new();
    EXE.get_or_init(|| {
        let target = Path::new(env!("CARGO_BIN_EXE_perfbench"))
            .parent()
            .and_then(Path::parent)
            .expect("binary inside <target>/<profile>")
            .to_path_buf();
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "-q",
                "-p",
                "fp-study",
                "--bin",
                "study",
            ])
            .current_dir(repo_root())
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the study binary failed");
        target.join("release").join("study")
    })
    .clone()
}

fn run(workload: &str, trace: bool, corrupt: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--study-exe")
    .arg(study_exe())
    .current_dir(repo_root());
    if corrupt {
        cmd.arg("--corrupt");
    }
    cmd.output().expect("benchmark binary runs")
}

fn result_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {last}"))
}

fn assert_reports_every_metric(workload: &str, trace: bool) {
    let out = run(workload, trace, false);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = result_line(&out);
    let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
    assert_eq!(keys.len(), 4, "{keys:?}");
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);

    let wanted = catalogue(if trace { "per_layer" } else { "end_to_end" });
    let metrics = result["metrics"].as_object().expect("metrics object");
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload}: {:?}",
        metrics.keys().collect::<Vec<_>>()
    );
    for (name, unit) in &wanted {
        let metric = &metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(metric["unit"].as_str(), Some(unit.as_str()), "{name}");
        assert!(metric["value"].as_f64().expect("numeric value").is_finite());
        // The human-readable table names it too, with its unit.
        assert!(
            stdout.lines().any(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                words.first() == Some(&name.as_str()) && words.get(2) == Some(&unit.as_str())
            }),
            "{workload}: {name} ({unit}) not printed:\n{stdout}"
        );
    }
    if !trace {
        let mut unbounded = vec!["failed_frac", "p99_ms"];
        if workload == "served_2k" {
            unbounded.push("max_rate_qps");
        }
        for name in unbounded {
            assert!(
                stdout.lines().any(|l| l.trim_start().starts_with(name)),
                "{workload}: {name} not printed"
            );
        }
        // Each metric of the workload's own kind is non-zero.
        for (name, _) in &wanted {
            assert!(
                metrics
                    .get(name)
                    .and_then(|m| m["value"].as_f64())
                    .unwrap_or(0.0)
                    > 0.0,
                "{workload}: {name}"
            );
        }
    }
}

fn assert_corruption_counted(workload: &str, trace: bool) {
    let out = run(workload, trace, true);
    assert!(
        !out.status.success(),
        "{workload}: a corrupted output must fail the run"
    );
    let result = result_line(&out);
    assert_eq!(result["correct"].as_bool(), Some(false));
    assert!(result["failed"].as_u64().expect("failed") >= 1);
}

#[test]
fn paper_scores_reports_every_metric() {
    assert_reports_every_metric("paper_scores", false);
    assert_reports_every_metric("paper_scores", true);
}

#[test]
fn search_10k_reports_every_metric() {
    assert_reports_every_metric("search_10k", false);
    assert_reports_every_metric("search_10k", true);
}

#[test]
fn served_2k_reports_every_metric() {
    assert_reports_every_metric("served_2k", false);
    assert_reports_every_metric("served_2k", true);
}

#[test]
fn corrupted_outputs_count_as_failures() {
    for workload in WORKLOADS {
        assert_corruption_counted(workload, false);
        assert_corruption_counted(workload, true);
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--study-exe", "study"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
