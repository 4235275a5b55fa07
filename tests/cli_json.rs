//! End-to-end contract of the `owl-detect` CLI: `--format json` emits a
//! schema-versioned [`DetectionSummary`] that parses, the exit code encodes
//! the verdict (0 = clean, 2 = leaky, 3 = inconclusive, 1 = error), stdout
//! is byte-identical across `--parallelism` settings, and `--metrics-out`
//! captures the wall-clock side in a separate file.

use std::process::{Command, Output};

fn owl_detect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_owl-detect"))
        .args(args)
        .output()
        .expect("spawn owl-detect")
}

/// Looks up `key` in a JSON object value (the vendored `Value` has no
/// `Index` impl).
fn get<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_map()
        .expect("expected a JSON object")
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

#[test]
fn leaky_workload_emits_schema_versioned_json_and_exits_two() {
    let out = owl_detect(&["dummy", "--runs", "8", "--format", "json"]);
    assert_eq!(out.status.code(), Some(2), "leaky verdict must exit 2");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        *get(&value, "schema_version"),
        serde_json::Value::Int(i128::from(owl::core::SCHEMA_VERSION))
    );
    assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
    assert_eq!(get(&value, "workload").as_str(), Some("dummy"));
    let instructions = get(get(&value, "counters"), "instructions");
    assert!(
        matches!(instructions, serde_json::Value::Int(n) if *n > 0),
        "counters must record execution, got {instructions:?}"
    );
}

#[test]
fn clean_workload_exits_zero() {
    let out = owl_detect(&["rsa-ladder", "--runs", "6", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "clean verdict must exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    let verdict = get(&value, "verdict").as_str().expect("verdict string");
    assert!(
        verdict == "leak_free" || verdict == "no_input_dependence",
        "unexpected verdict {verdict:?}"
    );
}

#[test]
fn injected_quarantine_exits_three_with_fault_log() {
    // `--inject quarantine` persistently kills the whole random evidence
    // stream: E_rnd falls below quorum, the verdict is inconclusive, and
    // the summary carries the quarantine log.
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--inject",
        "quarantine",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "inconclusive verdict must exit 3"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("inconclusive"));
    let quarantined = get(get(get(&value, "faults"), "evidence"), "quarantined");
    assert_eq!(*quarantined, serde_json::Value::Int(8));
    let log = get(&value, "fault_log").as_seq().expect("fault_log array");
    assert_eq!(log.len(), 8, "one record per lost run");
    assert_eq!(
        get(&log[0], "error_kind").as_str(),
        Some("exec_fuel_exhausted")
    );
    assert_eq!(get(&log[0], "phase").as_str(), Some("evidence"));
}

#[test]
fn injected_transient_faults_keep_the_verdict_and_exit_code() {
    // `--inject transient` fails every random run's first two attempts;
    // the default retry budget recovers all of them, so the workload's
    // normal verdict (leaky → exit 2) stands and only the fault counters
    // record the turbulence.
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--inject",
        "transient",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "recovered runs keep the verdict"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
    let evidence = get(get(&value, "faults"), "evidence");
    assert_eq!(*get(evidence, "quarantined"), serde_json::Value::Int(0));
    assert_eq!(*get(evidence, "retried"), serde_json::Value::Int(16));
    assert!(get(&value, "fault_log")
        .as_seq()
        .expect("fault_log array")
        .is_empty());
}

#[test]
fn injected_fault_stdout_is_byte_identical_across_parallelism() {
    let base = [
        "dummy",
        "--runs",
        "8",
        "--inject",
        "quarantine",
        "--format",
        "json",
        "--parallelism",
    ];
    let serial = owl_detect(&[&base[..], &["1"]].concat());
    let parallel = owl_detect(&[&base[..], &["4"]].concat());
    assert_eq!(serial.status.code(), Some(3));
    assert_eq!(parallel.status.code(), Some(3));
    assert_eq!(
        String::from_utf8(serial.stdout).expect("utf8"),
        String::from_utf8(parallel.stdout).expect("utf8"),
        "fault log and counters on stdout must not depend on the worker count"
    );
}

/// A stdout closed by its reader (`owl-detect … | head -c 10`) is an
/// error: exit 1 with one line on stderr, never a panic. The pipe's reader
/// is dropped before the spawn, so every write fails with `EPIPE`.
#[test]
fn closed_stdout_exits_one_without_a_panic() {
    for format in ["json", "text"] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_owl-detect"))
            .args(["dummy", "--runs", "8", "--format", format])
            .stdout(writer)
            .output()
            .expect("spawn owl-detect");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{format}: {stderr}");
        assert!(!stderr.contains("panicked"), "{format}: {stderr}");
        assert!(
            stderr.starts_with("error: writing the report:") && stderr.lines().count() == 1,
            "{format}: {stderr}"
        );
    }
}

#[test]
fn unknown_inject_scenario_exits_one() {
    let out = owl_detect(&["dummy", "--runs", "8", "--inject", "no-such-fault"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        stderr.contains("unknown --inject scenario"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_workload_exits_one() {
    let out = owl_detect(&["no-such-workload"]);
    assert_eq!(out.status.code(), Some(1), "errors must exit 1");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("unknown workload"), "stderr: {stderr}");
}

#[test]
fn dummy_sizes_outside_nonzero_u32_exit_one() {
    // 0 threads used to panic in `DummySbox::new`; sizes above `u32::MAX`
    // used to wrap into the launch geometry.
    for workload in ["dummy:0", "dummy:4294967296", "dummy:4294967297"] {
        let out = owl_detect(&[workload, "--runs", "4"]);
        assert_eq!(out.status.code(), Some(1), "{workload}");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(stderr.contains("bad dummy size"), "{workload}: {stderr}");
    }
}

#[test]
fn json_stdout_is_byte_identical_across_parallelism() {
    let base = ["dummy", "--runs", "8", "--format", "json", "--parallelism"];
    let serial = owl_detect(&[&base[..], &["1"]].concat());
    let parallel = owl_detect(&[&base[..], &["2"]].concat());
    assert_eq!(serial.status.code(), parallel.status.code());
    assert_eq!(
        String::from_utf8(serial.stdout).expect("utf8"),
        String::from_utf8(parallel.stdout).expect("utf8"),
        "the summary on stdout must not depend on the worker count"
    );
}

#[test]
fn default_engine_is_ks_and_comparison_is_off() {
    let out = owl_detect(&["dummy", "--runs", "8", "--format", "json"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    let config = get(&value, "config");
    assert_eq!(get(config, "engine").as_str(), Some("ks"));
    assert_eq!(
        *get(config, "compare_engines"),
        serde_json::Value::Bool(false)
    );
    assert_eq!(
        *get(&value, "engine_comparison"),
        serde_json::Value::Null,
        "no agreement table outside comparison mode"
    );
}

#[test]
fn engine_flag_selects_the_engine_and_keeps_exit_codes() {
    for (engine, echoed) in [("tvla", "tvla"), ("mi", "mi"), ("ks", "ks")] {
        let out = owl_detect(&[
            "dummy", "--runs", "8", "--engine", engine, "--format", "json",
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "dummy is leaky under the {engine} engine too"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        let value: serde_json::Value =
            serde_json::from_str(&stdout).expect("stdout parses as JSON");
        assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
        assert_eq!(get(get(&value, "config"), "engine").as_str(), Some(echoed));
    }
}

#[test]
fn welch_flag_is_rejected_as_an_unknown_option() {
    // `--welch` was the deprecated spelling of `--engine tvla`; it is gone.
    let out = owl_detect(&["dummy", "--runs", "8", "--welch", "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        stderr.contains("unknown option --welch"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_engine_exits_one() {
    let out = owl_detect(&["dummy", "--runs", "8", "--engine", "anova"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("unknown engine"), "stderr: {stderr}");
}

#[test]
fn compare_engines_nests_per_engine_verdicts_under_each_leak() {
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "20",
        "--compare-engines",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "the primary (ks) verdict still drives the exit code"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        *get(get(&value, "config"), "compare_engines"),
        serde_json::Value::Bool(true)
    );
    let cmp = get(&value, "engine_comparison");
    let engines = get(cmp, "engines").as_seq().expect("engines array");
    let engine_names: Vec<_> = engines.iter().filter_map(|e| e.as_str()).collect();
    assert_eq!(engine_names, ["ks", "tvla", "mi"]);
    let rows = get(cmp, "rows").as_seq().expect("rows array");
    assert!(
        !rows.is_empty(),
        "dummy must produce at least one table row"
    );
    for row in rows {
        let verdicts = get(row, "verdicts").as_seq().expect("verdicts array");
        assert_eq!(verdicts.len(), 3, "one verdict per engine");
        for (verdict, expected) in verdicts.iter().zip(&engine_names) {
            assert_eq!(get(verdict, "engine").as_str(), Some(*expected));
            assert!(
                matches!(get(verdict, "flagged"), serde_json::Value::Bool(_)),
                "flagged is a boolean"
            );
        }
        // The MI verdict quantifies whenever it flags.
        let mi = &verdicts[2];
        if *get(mi, "flagged") == serde_json::Value::Bool(true) {
            assert!(
                matches!(get(mi, "bits"), serde_json::Value::Float(b) if *b > 0.0),
                "a flagging MI verdict carries a positive bits estimate"
            );
        }
    }
    let agreements = get(cmp, "agreements");
    let disagreements = get(cmp, "disagreements");
    let (a, d) = match (agreements, disagreements) {
        (serde_json::Value::Int(a), serde_json::Value::Int(d)) => (*a, *d),
        other => panic!("agreement counts must be integers, got {other:?}"),
    };
    assert_eq!(a + d, rows.len() as i128, "every row is agreed or split");
}

#[test]
fn compare_engines_stdout_is_byte_identical_across_parallelism() {
    let base = [
        "dummy",
        "--runs",
        "12",
        "--compare-engines",
        "--format",
        "json",
        "--parallelism",
    ];
    let serial = owl_detect(&[&base[..], &["1"]].concat());
    let parallel = owl_detect(&[&base[..], &["4"]].concat());
    assert_eq!(serial.status.code(), parallel.status.code());
    assert_eq!(
        String::from_utf8(serial.stdout).expect("utf8"),
        String::from_utf8(parallel.stdout).expect("utf8"),
        "the agreement table must not depend on the worker count"
    );
}

#[test]
fn zero_budget_flag_exits_one_with_friendly_error() {
    let out = owl_detect(&["dummy", "--runs", "8", "--max-instructions", "0"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "nonsense budgets are usage errors"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("invalid configuration"), "stderr: {stderr}");
    assert!(stderr.contains("instructions"), "stderr: {stderr}");
}

#[test]
fn runaway_workload_under_instruction_budget_exits_three() {
    let out = owl_detect(&[
        "runaway",
        "--runs",
        "4",
        "--max-instructions",
        "10000",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a runaway kernel under budget is inconclusive, not a hang"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("inconclusive"));
    let trace = get(get(&value, "faults"), "trace_collection");
    assert_eq!(*get(trace, "budget_exhausted"), serde_json::Value::Int(3));
    assert_eq!(
        *get(get(&value, "config"), "max_instructions"),
        serde_json::Value::Int(10000)
    );
}

#[test]
fn injected_budget_exhaustion_exits_three() {
    let out = owl_detect(&[
        "dummy", "--runs", "8", "--inject", "budget", "--format", "json",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("inconclusive"));
    let log = get(&value, "fault_log").as_seq().expect("fault_log array");
    assert_eq!(log.len(), 8, "the whole random stream is lost");
    assert_eq!(
        get(&log[0], "error_kind").as_str(),
        Some("budget_exhausted")
    );
}

#[test]
fn injected_deadline_expiry_keeps_a_quorum_intact_verdict() {
    let out = owl_detect(&[
        "dummy", "--runs", "8", "--inject", "deadline", "--format", "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "one cancelled run leaves the quorum intact"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
    let evidence = get(get(&value, "faults"), "evidence");
    assert_eq!(*get(evidence, "cancelled"), serde_json::Value::Int(1));
}

#[test]
fn deadline_flag_is_echoed_without_affecting_a_fast_run() {
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--deadline-ms",
        "60000",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a generous deadline never fires"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        *get(get(&value, "config"), "deadline_millis"),
        serde_json::Value::Int(60000)
    );
}

#[test]
fn metrics_out_writes_wall_clock_report() {
    let dir = std::env::temp_dir().join("owl-cli-json-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.json");
    let path_str = path.to_str().expect("utf8 path");
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--format",
        "json",
        "--metrics-out",
        path_str,
    ]);
    assert_eq!(out.status.code(), Some(2));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let value: serde_json::Value = serde_json::from_str(&text).expect("metrics file parses");
    assert_eq!(
        *get(&value, "schema_version"),
        serde_json::Value::Int(i128::from(owl::core::SCHEMA_VERSION))
    );
    assert!(
        matches!(get(&value, "parallelism"), serde_json::Value::Int(n) if *n >= 1),
        "metrics echo the worker count"
    );
    let spans = get(&value, "spans").as_seq().expect("spans array");
    assert!(!spans.is_empty(), "phase spans must be recorded");
    let stats = get(&value, "phase_stats");
    assert!(
        matches!(get(stats, "total_ms"), serde_json::Value::Float(ms) if *ms >= 0.0),
        "wall-clock totals live in the metrics file"
    );
}

/// Asserts the summary's `config` echo holds exactly `expected`, key by key
/// and in order.
fn assert_config_echo(value: &serde_json::Value, expected: &[(&str, serde_json::Value)]) {
    let config = get(value, "config").as_map().expect("config object");
    let actual: Vec<_> = config
        .iter()
        .map(|(k, v)| (k.as_str().expect("string key"), v))
        .collect();
    let expected: Vec<_> = expected.iter().map(|(k, v)| (*k, v)).collect();
    assert_eq!(actual, expected);
}

#[test]
fn every_config_flag_reaches_the_config_echo() {
    use serde_json::Value::{Bool, Float, Int, Str};
    let dir = std::env::temp_dir().join("owl-cli-json-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("every-flag-metrics.json");
    let path_str = path.to_str().expect("utf8 path");
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--alpha",
        "0.9",
        "--engine",
        "tvla",
        "--compare-engines",
        "--aslr",
        "7",
        "--parallelism",
        "2",
        "--retries",
        "2",
        "--min-runs",
        "3",
        "--max-instructions",
        "5000000",
        "--max-mem-events",
        "100000000",
        "--max-allocations",
        "1000",
        "--max-evidence-bytes",
        "100000000",
        "--deadline-ms",
        "600000",
        "--format",
        "json",
        "--metrics-out",
        path_str,
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_config_echo(
        &value,
        &[
            ("runs", Int(8)),
            ("alpha", Float(0.9)),
            ("seed", Int(7_429_869)),
            ("force_analysis", Bool(false)),
            ("engine", Str("tvla".into())),
            ("compare_engines", Bool(true)),
            ("warp_size", Int(32)),
            ("aslr_seed", Int(7)),
            ("retry_max_attempts", Int(2)),
            ("min_runs_per_set", Int(3)),
            ("max_instructions", Int(5_000_000)),
            ("max_mem_events", Int(100_000_000)),
            ("max_allocations", Int(1000)),
            ("max_evidence_bytes", Int(100_000_000)),
            ("deadline_millis", Int(600_000)),
        ],
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let metrics: serde_json::Value = serde_json::from_str(&text).expect("metrics file parses");
    assert_eq!(*get(&metrics, "parallelism"), Int(2));
}

#[test]
fn no_flags_echo_the_cli_defaults() {
    use serde_json::Value::{Bool, Float, Int, Null, Str};
    let out = owl_detect(&["dummy", "--format", "json"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_config_echo(
        &value,
        &[
            ("runs", Int(60)),
            ("alpha", Float(0.95)),
            ("seed", Int(7_429_869)),
            ("force_analysis", Bool(false)),
            ("engine", Str("ks".into())),
            ("compare_engines", Bool(false)),
            ("warp_size", Int(32)),
            ("aslr_seed", Null),
            ("retry_max_attempts", Int(3)),
            ("min_runs_per_set", Null),
            ("max_instructions", Int(2_000_000_000)),
            ("max_mem_events", Null),
            ("max_allocations", Null),
            ("max_evidence_bytes", Null),
            ("deadline_millis", Null),
        ],
    );
}
