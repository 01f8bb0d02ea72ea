//! Smoke tests for the `hpcqc-sim` binary target: the manifests declare it,
//! so guard that it builds, parses `--help`, and rejects junk cleanly.

use std::process::Command;

#[test]
fn help_parses_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .arg("--help")
        .output()
        .expect("hpcqc-sim runs");
    assert!(out.status.success(), "--help must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage:"), "help text missing: {stdout}");
    assert!(
        stdout.contains("co-schedule"),
        "strategies not listed: {stdout}"
    );
}

#[test]
fn no_args_shows_usage_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "bare invocation must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage:"),
        "usage missing on stderr: {stderr}"
    );
}

#[test]
fn unknown_strategy_enumerates_and_hints() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload", "x.hqwf", "--strategy", "workflw"])
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "bad strategy must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean `workflow`"),
        "missing hint: {stderr}"
    );
    for form in [
        "co-schedule",
        "workflow",
        "vqpu:N",
        "malleable:N",
        "adaptive",
    ] {
        assert!(
            stderr.contains(form),
            "valid strategy `{form}` not enumerated: {stderr}"
        );
    }
}

#[test]
fn adaptive_strategy_parses() {
    // `adaptive` and `adaptive:N` must both be accepted; a junk trace is
    // rejected *after* strategy parsing, so exit 1 (not the arg-error 2).
    for spec in ["adaptive", "adaptive:8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--workload", "/nonexistent.hqwf", "--strategy", spec])
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(1), "`{spec}` must parse: {out:?}");
    }
}

#[test]
fn advise_prints_recommendation_and_rationale() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args([
            "advise",
            "--quantum-secs",
            "1800",
            "--classical-secs",
            "300",
            "--queue-wait-secs",
            "600",
        ])
        .output()
        .expect("hpcqc-sim runs");
    assert!(out.status.success(), "advise failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("recommended strategy: workflow"),
        "long quantum phases must get workflow: {stdout}"
    );
    assert!(stdout.contains("rationale"), "rationale missing: {stdout}");
}

#[test]
fn advise_requires_the_three_profile_numbers() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["advise", "--quantum-secs", "10"])
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--classical-secs"), "{stderr}");
}

fn spec_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/gen/day_small.json")
}

#[test]
fn gen_demand_summarizes_the_spec() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["gen", "--spec"])
        .arg(spec_path())
        .arg("--demand")
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "gen --demand failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("jobs/hour"), "{stdout}");
    assert!(stdout.contains("day-small"), "{stdout}");
}

#[test]
fn gen_streams_a_trace_then_run_consumes_it() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_gen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("gen.hqwf");
    let gen = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["gen", "--spec"])
        .arg(spec_path())
        .args(["--seed", "3", "--jobs", "40", "--out"])
        .arg(&trace)
        .output()
        .expect("gen runs");
    assert!(gen.status.success(), "gen failed: {gen:?}");
    let stderr = String::from_utf8_lossy(&gen.stderr);
    assert!(stderr.contains("generated 40 jobs"), "{stderr}");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert_eq!(text.lines().count(), 42, "2 header lines + 40 jobs");
    let run = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(&trace)
        .args(["--strategy", "vqpu:2", "--nodes", "64"])
        .output()
        .expect("run runs");
    assert!(
        run.status.success(),
        "run on generated trace failed: {run:?}"
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn run_streams_a_generator_source() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--source"])
        .arg(format!("gen:{}", spec_path().display()))
        .args(["--strategy", "vqpu:4", "--nodes", "64", "--seed", "7"])
        .output()
        .expect("run runs");
    assert!(out.status.success(), "streamed run failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("peak in-flight"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vqpu(x4)"), "{stdout}");
}

#[test]
fn run_rejects_trace_source_conflicts_and_bad_source() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload", "x.hqwf", "--source", "gen:y.json"])
        .output()
        .expect("run runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--source", "nope:y.json"])
        .output()
        .expect("run runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("gen:<spec.json>"));
}

#[test]
fn gen_hints_on_typoed_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["gen", "--spce", "x.json"])
        .output()
        .expect("gen runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("did you mean `--spec`"));
}

#[test]
fn generate_then_run_round_trips() {
    // Unique per process so concurrent test runs don't race on the file.
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("smoke.hqwf");
    let gen = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["generate", "--count", "5", "--seed", "3", "--out"])
        .arg(&trace)
        .output()
        .expect("generate runs");
    assert!(gen.status.success(), "generate failed: {gen:?}");
    let run = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(&trace)
        .args(["--strategy", "vqpu:2", "--nodes", "64"])
        .output()
        .expect("run runs");
    assert!(run.status.success(), "run failed: {run:?}");
    std::fs::remove_file(&trace).ok();
}

/// A known policy with a bad knob value names the knob and its rule
/// rather than calling the policy unknown, and still exits 2.
#[test]
fn bad_policy_knob_names_the_knob() {
    for (policy, rule) in [
        ("priority-backfill:age=-1", "`age=H`"),
        ("quantum-aware:boost=nan", "`boost=P`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--workload", "x.hqwf", "--policy", policy])
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(2), "bad knob must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad knob in policy `{policy}`")) && stderr.contains(rule),
            "`{policy}`: {stderr}"
        );
        assert!(!stderr.contains("unknown policy"), "`{policy}`: {stderr}");
    }
}

#[test]
fn unknown_policy_enumerates_and_hints() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload", "x.hqwf", "--policy", "quantum-awre"])
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "bad policy must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean `quantum-aware`"),
        "missing hint: {stderr}"
    );
    for form in [
        "fcfs",
        "easy[-backfill]",
        "conservative[-backfill]",
        "priority-backfill[:age=H]",
        "quantum-aware[:boost=P]",
    ] {
        assert!(
            stderr.contains(form),
            "valid policy `{form}` not enumerated: {stderr}"
        );
    }
}

#[test]
fn new_policies_parse_with_and_without_knobs() {
    // A junk trace is rejected *after* policy parsing, so exit 1 (not the
    // arg-error 2).
    for spec in [
        "priority-backfill",
        "priority-backfill:age=20",
        "quantum-aware",
        "quantum-aware:boost=500",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--workload", "/nonexistent.hqwf", "--policy", spec])
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(1), "`{spec}` must parse: {out:?}");
    }
    // A malformed knob is an argument error.
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args([
            "run",
            "--workload",
            "x.hqwf",
            "--policy",
            "priority-backfill:age=zero",
        ])
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "bad knob must exit 2: {out:?}");
}

#[test]
fn priority_knob_flags_are_validated() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload", "x.hqwf", "--fairshare-half-life", "-5"])
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("positive"));
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload", "x.hqwf", "--age-weight", "lots"])
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("finite number"));
}

fn contended_workload() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/workloads/contended.hqwf")
}

#[test]
fn zero_node_flag_is_rejected_by_run_and_explain() {
    for command in ["run", "explain"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args([command, "--workload"])
            .arg(contended_workload())
            .args(["--nodes", "0"])
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(2), "{command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("positive node count"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn zero_node_scenario_file_is_rejected() {
    use hpcqc::prelude::*;
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_zero_nodes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = Scenario {
        classical_nodes: 0,
        ..Scenario::default()
    };
    let path = dir.join("zero.json");
    std::fs::write(&path, serde_json::to_string_pretty(&scenario).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--scenario")
        .arg(&path)
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("classical_nodes"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_a_non_finite_hybrid_share() {
    for share in ["nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["generate", "--count", "3", "--hybrid-share", share])
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(2), "{share}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--hybrid-share"), "{share}: {stderr}");
    }
}

#[test]
fn run_trace_output_is_perfetto_valid_and_byte_identical() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let record = |path: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--workload"])
            .arg(contended_workload())
            .arg("--trace")
            .arg(path)
            .output()
            .expect("run runs");
        assert!(out.status.success(), "traced run failed: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("wrote trace"), "{stderr}");
        std::fs::read_to_string(path).expect("trace written")
    };
    let first = record(&dir.join("a.json"));
    let second = record(&dir.join("b.json"));
    assert_eq!(first, second, "same-seed traces must be byte-identical");
    hpcqc::trace::chrome::check_json(&first).expect("trace-event JSON parses");
    for track in ["scheduler", "devices", "jobs", "qpu0"] {
        assert!(first.contains(track), "missing track `{track}`");
    }
    for counter in hpcqc::trace::COUNTER_TRACKS {
        assert!(first.contains(counter), "missing counter `{counter}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_metrics_output_in_csv_and_json() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("m.csv");
    let json_path = dir.join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--metrics")
        .arg(&csv_path)
        .args(["--metrics-interval", "600"])
        .output()
        .expect("run runs");
    assert!(out.status.success(), "{out:?}");
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("t_s,"), "header row missing: {csv}");
    assert!(csv.contains("jobs_started"), "{csv}");
    assert!(csv.lines().count() > 2, "expected multiple samples: {csv}");
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--metrics")
        .arg(&json_path)
        .output()
        .expect("run runs");
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    hpcqc::trace::chrome::check_json(&json).expect("metrics JSON parses");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_profile_reports_cycle_phases() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--profile")
        .output()
        .expect("run runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("scheduler profile:"), "{stderr}");
    for phase in ["order", "admit", "allocate", "cycle total"] {
        assert!(stderr.contains(phase), "phase `{phase}` missing: {stderr}");
    }
}

#[test]
fn run_hints_when_trace_is_used_as_input() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--trace", "old-style.hqwf"])
        .output()
        .expect("run runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workload"),
        "migration hint missing: {stderr}"
    );
}

#[test]
fn run_instrumentation_conflicts_with_compare() {
    for instrument in ["--profile", "--gantt"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--workload", "x.hqwf", "--compare", instrument])
            .output()
            .expect("run runs");
        assert_eq!(out.status.code(), Some(2), "{instrument}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("instrument a single run; drop --compare"),
            "{instrument}: {stderr}"
        );
    }
}

/// `--gantt` renders the run's chart on stderr, byte for byte as the
/// committed fixture.
#[test]
fn run_gantt_matches_the_recorded_chart() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args([
            "run",
            "--nodes",
            "16",
            "--seed",
            "42",
            "--gantt",
            "--workload",
        ])
        .arg(contended_workload())
        .output()
        .expect("run runs");
    assert!(out.status.success(), "{out:?}");
    let want = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gantt_contended.txt"),
    )
    .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stderr), want);
}

fn hetero_fleet() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fleets/hetero.json")
}

#[test]
fn devices_lists_the_fleet_without_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .arg("devices")
        .arg("--fleet")
        .arg(hetero_fleet())
        .output()
        .expect("devices runs");
    assert!(out.status.success(), "devices failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("route"), "route line missing: {stdout}");
    for column in ["device", "technology", "qubits", "status"] {
        assert!(
            stdout.contains(column),
            "column `{column}` missing: {stdout}"
        );
    }
    for device in ["helios-sc", "ares-ion"] {
        assert!(
            stdout.contains(device),
            "device `{device}` missing: {stdout}"
        );
    }
}

#[test]
fn devices_rejects_a_malformed_fleet_file() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_badfleet_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{ \"name\": \"broken\", \"devices\": [").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .arg("devices")
        .arg("--fleet")
        .arg(&path)
        .output()
        .expect("devices runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed fleet must exit 2: {out:?}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("panicked"),
        "must not panic on a malformed fleet: {out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn devices_hints_on_typoed_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["devices", "--flete", "x.json"])
        .output()
        .expect("devices runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("did you mean `--fleet`"));
}

#[test]
fn explain_blames_the_queue_wait_by_cause() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["explain", "--workload"])
        .arg(contended_workload())
        .args(["--by", "cause", "--format", "csv"])
        .output()
        .expect("explain runs");
    assert!(out.status.success(), "explain failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("cause,wait_s,share"),
        "cause columns missing: {stdout}"
    );
    assert!(
        stdout.contains("qpu-contention"),
        "qpu-contention row missing on the contended workload: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("attributed") && stderr.contains("QPU-contention share"),
        "summary line missing: {stderr}"
    );
}

#[test]
fn explain_rejects_unknown_by_dimension() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["explain", "--workload", "x.hqwf", "--by", "vibes"])
        .output()
        .expect("explain runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cause | tenant | device"), "{stderr}");
}

#[test]
fn run_attribution_writes_the_blame_table() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_attr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blame.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--attribution")
        .arg(&path)
        .output()
        .expect("run runs");
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("wrote wait attribution"),
        "{out:?}"
    );
    let csv = std::fs::read_to_string(&path).unwrap();
    assert!(csv.starts_with("cause,wait_s,share"), "{csv}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_file_with_broken_policy_knobs_fails_gracefully() {
    use hpcqc::prelude::*;
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_badpolicy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A real trace, so the run gets past input loading to the scenario.
    let trace = dir.join("tiny.hqwf");
    let gen = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["generate", "--count", "5", "--seed", "1", "--out"])
        .arg(&trace)
        .output()
        .expect("generate runs");
    assert!(gen.status.success(), "{gen:?}");
    // A scenario whose policy knobs serde cannot reject.
    let mut scenario = Scenario::default();
    scenario.policy.fairshare_half_life_secs = 0.0;
    let path = dir.join("bad.json");
    std::fs::write(&path, serde_json::to_string_pretty(&scenario).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--nodes", "64", "--workload"])
        .arg(&trace)
        .arg("--scenario")
        .arg(&path)
        .output()
        .expect("hpcqc-sim runs");
    // The broken knob must produce a graceful failure, never a panic.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid scenario policy"),
        "expected the policy validation error: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on a bad scenario policy: {stderr}"
    );
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&path).ok();
}

fn degraded_fault_plan() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/faults/degraded.json")
}

#[test]
fn run_accepts_a_fault_plan() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--faults")
        .arg(degraded_fault_plan())
        .output()
        .expect("run runs");
    assert!(out.status.success(), "faulted run failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fault plan `degraded`"),
        "fault plan line missing: {stderr}"
    );
}

#[test]
fn run_rejects_a_malformed_fault_plan_with_line_info() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_badfaults_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{\n  \"name\": \"broken\",\n  \"device\": [\n").unwrap();
    // A real workload, so the run gets past input loading to the plan.
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--faults")
        .arg(&path)
        .output()
        .expect("run runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed fault plan must exit 2: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot parse fault plan") && stderr.contains("line"),
        "parse error must point at the line: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on a malformed fault plan: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_hints_on_typoed_faults_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload", "x.hqwf", "--fualts", "plan.json"])
        .output()
        .expect("run runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("did you mean `--faults`"),
        "{out:?}"
    );
}

#[test]
fn sweep_hints_on_typoed_faults_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["sweep", "--grid", "x.json", "--fault", "plan.json"])
        .output()
        .expect("sweep runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("did you mean `--faults`"),
        "{out:?}"
    );
}

#[test]
fn sweep_rejects_broken_loaded_facility_workloads() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_badgrid_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/grids/crossover.json"),
    )
    .unwrap();
    // A zero mean runtime would panic a sweep worker; an inverted node
    // range would wrap into a machine-sized background job.
    for (name, from, to) in [
        ("mean", r#""bg_mean_secs": 1500"#, r#""bg_mean_secs": 0"#),
        ("range", r#""bg_nodes_lo": 2"#, r#""bg_nodes_lo": 9"#),
    ] {
        assert!(grid.contains(from), "crossover.json no longer has {from}");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, grid.replace(from, to)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["sweep", "--threads", "1", "--grid"])
            .arg(&path)
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("invalid grid"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_rejects_fault_plans_that_share_a_label() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_duplabel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/grids/faults.json"),
    )
    .unwrap();
    // Unnamed, both plans are labelled `faults`: their rows would read
    // alike and the summary would merge them into one group.
    let mut unnamed = grid.clone();
    for name in [r#""name": "none","#, r#""name": "degraded","#] {
        assert!(grid.contains(name), "faults.json no longer has {name}");
        unnamed = unnamed.replace(name, "");
    }
    let path = dir.join("unnamed.json");
    std::fs::write(&path, unnamed).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["sweep", "--threads", "1", "--grid"])
        .arg(&path)
        .output()
        .expect("hpcqc-sim runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid grid"), "{stderr}");
    assert!(
        stderr.contains("grid axis `faults`: two entries share the label `faults`"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faults_subcommand_describes_the_plan() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .arg("faults")
        .arg("--plan")
        .arg(degraded_fault_plan())
        .output()
        .expect("faults runs");
    assert!(out.status.success(), "faults subcommand failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fault plan `degraded`: active"),
        "summary line missing: {stdout}"
    );
    for needle in [
        "process",
        "outage",
        "drift",
        "kernel error rate",
        "recovery",
    ] {
        assert!(stdout.contains(needle), "`{needle}` missing: {stdout}");
    }
}

#[test]
fn faults_subcommand_requires_exactly_one_source() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .arg("faults")
        .output()
        .expect("faults runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--plan"), "{stderr}");
}

fn nodes_fault_plan() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/faults/nodes.json"),
    )
    .unwrap()
}

/// Runs `hpcqc-sim` with `args` followed by the path of a fresh temp
/// file holding `contents`.
fn run_with_file(tag: &str, args: &[&str], contents: &str) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("input.json");
    std::fs::write(&path, contents).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(args)
        .arg(&path)
        .output()
        .expect("hpcqc-sim runs");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn retired_scenario_node_failures_key_exits_2_unless_null() {
    use hpcqc::prelude::*;
    let workload = contended_workload();
    let run = [
        "run",
        "--workload",
        workload.to_str().unwrap(),
        "--scenario",
    ];
    let scenario = serde_json::to_string_pretty(&Scenario::default()).unwrap();
    // Every scenario serialized before the fold carries a null key.
    let legacy = scenario.replacen('{', r#"{"node_failures": null,"#, 1);
    let out = run_with_file("nf_null", &run, &legacy);
    assert!(
        out.status.success(),
        "a null node_failures must load: {out:?}"
    );
    let set = scenario.replacen(
        '{',
        r#"{"node_failures": {"mtbf": {"Constant": {"value": 0}},
            "repair": {"Constant": {"value": 60}}, "max_requeues": 3},"#,
        1,
    );
    let out = run_with_file("nf_set", &run, &set);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("node_failures") && stderr.contains("faults.node"),
        "the error must name the replacement: {stderr}"
    );
}

#[test]
fn retired_node_max_requeues_key_exits_2_in_plans_and_grids() {
    let plan = nodes_fault_plan();
    let retired = plan.replacen(r#""node": {"#, r#""node": {"max_requeues": 2,"#, 1);
    assert_ne!(plan, retired, "nodes.json no longer has a node section");
    let workload = contended_workload();
    let run = ["run", "--workload", workload.to_str().unwrap(), "--faults"];
    let out = run_with_file("nmr_plan", &run, &retired);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recovery.max_requeues"), "{stderr}");
    // The same key inside a sweep grid's `faults` axis.
    let grid = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/grids/smoke.json"),
    )
    .unwrap();
    let grid = grid.replacen('{', &format!(r#"{{"faults": [{retired}],"#), 1);
    let out = run_with_file("nmr_grid", &["sweep", "--threads", "1", "--grid"], &grid);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recovery.max_requeues"), "{stderr}");
}

#[test]
fn sub_nanosecond_mtbf_exits_2_instead_of_livelocking() {
    let plan = nodes_fault_plan().replacen(
        r#""Exponential": {
        "mean": 7200
      }"#,
        r#""Constant": {"value": 1e-10}"#,
        1,
    );
    assert!(
        plan.contains("1e-10"),
        "nodes.json no longer has a 7200 s MTBF"
    );
    let workload = contended_workload();
    let run = ["run", "--workload", workload.to_str().unwrap(), "--faults"];
    let out = run_with_file("tiny_mtbf", &run, &plan);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mtbf"), "{stderr}");
}

#[test]
fn run_header_names_the_fleet_it_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--nodes", "16", "--workload"])
        .arg(contended_workload())
        .arg("--fleet")
        .arg(hetero_fleet())
        .output()
        .expect("run runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fleet `hetero`") && stderr.contains("helios-sc (superconducting)"),
        "header must name the fleet's devices: {stderr}"
    );
    assert!(
        !stderr.contains("qpu0"),
        "header must not name the unused device list: {stderr}"
    );
}

#[test]
fn device_next_to_a_fleet_is_rejected() {
    use hpcqc::prelude::*;
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_devfleet_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fleet: FleetSpec =
        serde_json::from_str(&std::fs::read_to_string(hetero_fleet()).unwrap()).unwrap();
    let scenario = Scenario::builder().fleet(fleet).build();
    let scenario_json = serde_json::to_string(&scenario).unwrap();
    let scenario_path = dir.join("fleet-scenario.json");
    std::fs::write(&scenario_path, &scenario_json).unwrap();
    for (flag, path) in [("--fleet", hetero_fleet()), ("--scenario", scenario_path)] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--device", "neutral-atom", "--workload"])
            .arg(contended_workload())
            .arg(flag)
            .arg(&path)
            .output()
            .expect("run runs");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--device") && stderr.contains("fleet"),
            "{flag}: {stderr}"
        );
    }
    // Every scenario serialized before Gantt recording became an observer
    // carries a retired `record_gantt` key; such a file still runs.
    let legacy_path = dir.join("record-gantt-scenario.json");
    let legacy = scenario_json.replacen('{', r#"{"record_gantt":true,"#, 1);
    std::fs::write(&legacy_path, legacy).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["run", "--workload"])
        .arg(contended_workload())
        .arg("--scenario")
        .arg(&legacy_path)
        .output()
        .expect("run runs");
    assert!(out.status.success(), "record_gantt must load: {out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_scenario_file_exits_2_with_its_location() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_truncsc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.json");
    std::fs::write(&path, "{\n  \"classical_nodes\": 16,\n  \"devices\": [").unwrap();
    let workload = contended_workload();
    let commands: [Vec<&std::ffi::OsStr>; 2] = [
        vec!["run".as_ref(), "--workload".as_ref(), workload.as_os_str()],
        vec!["devices".as_ref()],
    ];
    for args in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(&args)
            .arg("--scenario")
            .arg(&path)
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot parse scenario") && stderr.contains("(line 3 column 15)"),
            "{args:?}: parse error must point at the location: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `run` and `explain` share one scenario-flag parser: every scenario
/// flag error reads the same under both.
#[test]
fn run_and_explain_share_the_scenario_flag_parser() {
    let workload = contended_workload();
    let workload = workload.to_str().unwrap();
    let cases: [(&[&str], &str); 7] = [
        (&["--strategy", "workflw"], "did you mean `workflow`"),
        (&["--nodes", "many"], "--nodes needs a positive node count"),
        (&["--device", "neutral-adam"], "did you mean `neutral-atom`"),
        (&["--policy", "easyy"], "did you mean `easy`"),
        (&["--route", "least-loaded"], "--route needs a fleet"),
        (&["--seed", "x"], "--seed needs a numeric seed"),
        (&["--fleeet", "f.json"], "did you mean `--fleet`"),
    ];
    for (flags, expected) in cases {
        let stderr: Vec<String> = ["run", "explain"]
            .into_iter()
            .map(|command| {
                let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
                    .args([command, "--workload", workload])
                    .args(flags)
                    .output()
                    .expect("hpcqc-sim runs");
                assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {out:?}");
                String::from_utf8_lossy(&out.stderr).into_owned()
            })
            .collect();
        assert!(stderr[0].contains(expected), "{flags:?}: {}", stderr[0]);
        assert_eq!(stderr[0], stderr[1], "{flags:?}: run and explain differ");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
        .args(["explain", "--workload", workload, "--age-weight", "2"])
        .output()
        .expect("explain runs");
    assert!(
        out.status.success(),
        "explain must take priority knobs: {out:?}"
    );
    // The announce line names the knob, not just the discipline.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("policy easy-backfill;age-weight=2\n"),
        "{stderr}"
    );
}

/// A reader that closes stdout early (`| head -1`) ends the output, not
/// the command: exit 0, with no panic in `print!` and no broken-pipe error.
#[test]
fn closed_stdout_exits_zero() {
    let mut generate = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"));
    generate.args(["generate", "--count", "2000"]);
    let mut gen = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"));
    gen.args(["gen", "--spec"]).arg(spec_path());
    for mut command in [generate, gen] {
        let mut child = command
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("hpcqc-sim runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("hpcqc-sim exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command:?}: {out:?}");
        assert!(!stderr.contains("panicked"), "{command:?}: {stderr}");
    }
}

#[test]
fn zero_strategy_counts_exit_2_on_the_command_line() {
    for spec in ["vqpu:0", "adaptive:0", "malleable:0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--workload"])
            .arg(contended_workload())
            .args(["--strategy", spec])
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(2), "{spec}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("at least 1 (got 0)"), "{spec}: {stderr}");
    }
}

#[test]
fn zero_strategy_count_in_a_scenario_file_exits_2() {
    use hpcqc::prelude::*;
    let scenario = Scenario {
        strategy: Strategy::Vqpu { vqpus: 0 },
        ..Scenario::default()
    };
    let workload = contended_workload();
    let out = run_with_file(
        "zero_vqpus_scenario",
        &[
            "run",
            "--workload",
            workload.to_str().unwrap(),
            "--scenario",
        ],
        &serde_json::to_string_pretty(&scenario).unwrap(),
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`vqpus` of at least 1"), "{stderr}");
}

#[test]
fn zero_strategy_count_in_a_sweep_grid_exits_2() {
    let grid = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/grids/smoke.json"),
    )
    .unwrap();
    let mut grid: hpcqc::prelude::Grid = serde_json::from_str(&grid).unwrap();
    grid.strategies = vec![
        hpcqc::prelude::Strategy::Vqpu { vqpus: 0 },
        hpcqc::prelude::Strategy::Vqpu { vqpus: 1 },
    ];
    let out = run_with_file(
        "zero_vqpus_grid",
        &["sweep", "--threads", "1", "--grid"],
        &serde_json::to_string(&grid).unwrap(),
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`vqpus` of at least 1"), "{stderr}");
}

#[test]
fn sweep_rejects_invalid_generated_workloads() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_badgen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let grid = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/grids/generated.json"),
    )
    .unwrap();
    // Each of these would panic the first cell's generator stream.
    for (name, from, to) in [
        ("users", r#""users": 2000"#, r#""users": 0"#),
        ("campaign", r#""campaign_min": 1"#, r#""campaign_min": 40"#),
        ("nodes", r#""nodes_lo": 2"#, r#""nodes_lo": 0"#),
        (
            "alpha",
            r#""campaign_alpha": 2.2"#,
            r#""campaign_alpha": 0.5"#,
        ),
    ] {
        assert!(grid.contains(from), "generated.json no longer has {from}");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, grid.replace(from, to)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["sweep", "--threads", "1", "--grid"])
            .arg(&path)
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("invalid grid"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hqwf_times_past_the_longest_span_exit_1_with_their_line() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_long_span_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (tag, job, field) in [
        (
            "walltime",
            "10 u a 2 classical 0 quantum 1e30 C:5",
            "walltime_s",
        ),
        (
            "phase",
            "10 u a 2 classical 0 quantum 600 C:1e30",
            "classical phase seconds",
        ),
    ] {
        let path = dir.join(format!("{tag}.hqwf"));
        std::fs::write(
            &path,
            format!(
                "; one job, then one past the span\n0 u ok 1 classical 0 quantum 60 C:5\n{job}\n"
            ),
        )
        .unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--nodes", "4", "--policy", "easy", "--workload"])
            .arg(&path)
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(1), "{tag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("line 3") && stderr.contains(field) && stderr.contains("1e30"),
            "{tag}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hqwf_sums_past_the_end_of_time_saturate() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_end_of_time_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Each field is within bounds, but submit + phases runs past
    // `SimTime::MAX`: the job's instants saturate there instead of
    // overflowing.
    for (tag, job) in [
        (
            "two-phases",
            "1 u a 1 classical 0 quantum 1e3 C:1e10 C:1e10",
        ),
        (
            "late-submit",
            "1.7e10 u a 1 classical 0 quantum 1e3 C:1.7e10",
        ),
        (
            "kernel-after",
            "0 u a 1 classical 0 quantum 1e3 C:1.8e10 Q:sampling,8,32,1000",
        ),
        // The phase saturates, so the kernel reaches the device at the
        // end of time.
        (
            "kernel-at-the-end",
            "1e5 u a 1 classical 0 quantum 1e3 C:1.84467e10 Q:sampling,8,32,1000",
        ),
    ] {
        let path = dir.join(format!("{tag}.hqwf"));
        std::fs::write(&path, format!("{job}\n")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
            .args(["run", "--nodes", "4", "--policy", "easy", "--workload"])
            .arg(&path)
            .output()
            .expect("hpcqc-sim runs");
        assert_eq!(out.status.code(), Some(0), "{tag}: {out:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_instants_past_the_end_of_time_are_not_scheduled() {
    let dir = std::env::temp_dir().join(format!("hpcqc_cli_fault_end_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The job runs to `SimTime::MAX`, and the fault processes keep drawing
    // failures and repairs until then: one that lands past it is dropped.
    for (tag, job) in [
        (
            "two-phases",
            "1 u a 1 classical 0 quantum 1e3 C:1e10 C:1e10",
        ),
        (
            "late-submit",
            "1.7e10 u a 1 classical 0 quantum 1e3 C:1.7e10",
        ),
    ] {
        let path = dir.join(format!("{tag}.hqwf"));
        std::fs::write(&path, format!("{job}\n")).unwrap();
        for plan in ["degraded", "nodes"] {
            let out = Command::new(env!("CARGO_BIN_EXE_hpcqc-sim"))
                .args(["run", "--nodes", "4", "--policy", "easy", "--workload"])
                .arg(&path)
                .arg("--faults")
                .arg(
                    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join(format!("examples/faults/{plan}.json")),
                )
                .output()
                .expect("hpcqc-sim runs");
            assert_eq!(out.status.code(), Some(0), "{tag} under {plan}: {out:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
