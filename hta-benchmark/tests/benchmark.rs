//! The benchmark's own tests, on tiny task counts: every workload runs in
//! both modes with its checks passing, and every metric it prints is the
//! one `BENCHMARK.json` names, with a unit.

use hta_benchmark::calibrate;
use hta_benchmark::measure::{window_cost, Outcome, Slice};
use hta_benchmark::workload::ALL;
use hta_benchmark::{
    coverage_problems, end_to_end, instance_count, per_layer, Instance, Report, Scale, Workload,
    DEFAULT_SEED, END_TO_END, PER_LAYER, SECOND_SEED,
};
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<String> {
    match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Uint(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(x) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    items(field(&benchmark_json(), key))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The closing JSON line carries exactly the report's metrics, each with
/// its unit, and every name and unit is well formed.
fn assert_printed(report: &Report, table: &[(&str, &str)]) {
    let json = serde_json::parse(&report.to_json()).expect("report JSON parses");
    assert_eq!(
        keys(&json),
        ["correct", "attempted", "failed", "metrics"].map(String::from)
    );
    assert!(number(field(&json, "attempted")) >= 1.0);
    let metrics = field(&json, "metrics");
    let names = keys(metrics);
    // No "-0": an empty float sum is -0.0 unless normalised.
    assert!(report
        .metrics
        .iter()
        .all(|m| !m.value.is_sign_negative() || m.value < 0.0));
    let expected: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names, expected);
    for &(name, unit) in table {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        let m = field(metrics, name);
        assert_eq!(text(field(m, "unit")), unit);
        assert!(number(field(m, "value")).is_finite());
    }
}

/// End-to-end over in-process tiny instances.
fn tiny_end_to_end(w: Workload, seed: u64) -> Report {
    end_to_end(w, seed, 0.0, |s| Ok(Instance::run(w, s, Scale::Tiny)))
}

fn assert_correct(report: &Report) {
    assert!(report.correct(), "checks failed: {:#?}", report.problems);
    assert_eq!(report.failed, 0);
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_prints() {
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = items(field(&benchmark_json(), "workloads"))
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect();
    assert_eq!(workloads, ALL.map(Workload::name));
    for w in &workloads {
        assert!(valid_name(w));
        assert_eq!(Workload::parse(w).map(Workload::name), Some(w.as_str()));
    }
}

#[test]
fn every_workload_runs_end_to_end() {
    for w in ALL {
        let report = tiny_end_to_end(w, DEFAULT_SEED);
        assert_correct(&report);
        assert_printed(&report, END_TO_END);
        assert_eq!(report.attempted, 3, "{}: instances", w.name());
        assert_eq!(report.value("completed_ratio"), Some(1.0), "{}", w.name());
        for &(name, _) in END_TO_END {
            let v = report.value(name).expect("reported");
            assert!(v > 0.0, "{}: {name} reads {v}", w.name());
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in ALL {
        let report = per_layer(w, DEFAULT_SEED, Scale::Tiny, 0.0);
        assert_correct(&report);
        assert_printed(&report, PER_LAYER);
        let v = |name| report.value(name).expect("reported");
        assert!(v("sim.events") > 0.0);
        assert!(v("core.policy.calls") > 0.0);
        assert!(v("core.whatif.fork_us_p50") > 0.0);
        // The attributed layer times account for the traced wall time.
        let attributed = [
            "core.driver.loop_s",
            "core.policy.decide_s",
            "core.whatif.branch_s",
            "trace.gen_s",
            "core.whatif.fork_probe_s",
            "core.driver.finalize_s",
            "core.driver.unattributed_s",
        ]
        .into_iter()
        .map(v)
        .sum::<f64>();
        assert!((attributed - v("traced_wall_s")).abs() < 1e-9);
        match w {
            Workload::MpcFig10 => {
                assert!(v("core.whatif.branches") > 0.0);
                assert_eq!(v("trace.arrivals"), 0.0);
            }
            _ => {
                assert_eq!(v("core.whatif.branches"), 0.0);
                assert!(v("trace.arrivals") > 0.0);
                assert!(v("trace.gen_us_per_arrival") > 0.0);
            }
        }
    }
}

#[test]
fn checks_pass_on_the_second_seed() {
    for w in ALL {
        assert_correct(&tiny_end_to_end(w, SECOND_SEED));
    }
    assert_correct(&per_layer(
        Workload::StreamChaos,
        SECOND_SEED,
        Scale::Tiny,
        0.0,
    ));
}

#[test]
fn seeds_change_the_inputs() {
    let a = tiny_end_to_end(Workload::StreamChurn, DEFAULT_SEED);
    let b = tiny_end_to_end(Workload::StreamChurn, SECOND_SEED);
    assert_ne!(a.value("makespan_s"), b.value("makespan_s"));
}

fn outcome() -> Outcome {
    Outcome {
        events: 10,
        timed_out: false,
        tasks: 5,
        completed: 5,
        abandoned: 0,
        makespan_s: 100.0,
        waste_core_s: 1.0,
        shortage_core_s: 1.0,
        mean_response_s: 1.0,
        peak_workers: 4.0,
        worker_connects: 20.0,
        faults: Default::default(),
        completed_digest: 0,
    }
}

#[test]
fn correctness_checks_catch_bad_runs() {
    let good = outcome();
    assert!(good.problems().is_empty());
    let lost = Outcome {
        completed: 4,
        ..good.clone()
    };
    assert_eq!(lost.problems().len(), 1);
    let timed_out = Outcome {
        timed_out: true,
        ..good.clone()
    };
    assert_eq!(timed_out.problems().len(), 1);
    // One extra event in the traced run is expected; two is not, nor is
    // any change to the simulated metrics.
    let one_more = Outcome {
        events: 11,
        ..good.clone()
    };
    assert!(one_more.traced_problems(&good).is_empty());
    let two_more = Outcome {
        events: 12,
        ..good.clone()
    };
    assert_eq!(two_more.traced_problems(&good).len(), 1);
    let drifted = Outcome {
        waste_core_s: 1.5,
        ..good.clone()
    };
    assert_eq!(drifted.traced_problems(&good).len(), 1);
}

#[test]
fn coverage_gate_fails_on_zero_counts() {
    let churned = outcome();
    assert!(coverage_problems(Workload::StreamChurn, &churned, None).is_empty());
    let flat = Outcome {
        worker_connects: 4.0,
        ..outcome()
    };
    assert_eq!(
        coverage_problems(Workload::StreamChurn, &flat, None).len(),
        1
    );
    // No faults at all: every chaos count reads zero.
    assert_eq!(
        coverage_problems(Workload::StreamChaos, &outcome(), None).len(),
        5
    );
    let mut faulted = outcome();
    faulted.faults.task_retries = 1;
    faulted.faults.oom_kills = 1;
    faulted.faults.wal_replayed = 1;
    faulted.faults.msgs_dropped = 1;
    faulted.faults.partition_s = 90.0;
    assert!(coverage_problems(Workload::StreamChaos, &faulted, None).is_empty());
    let no_branches = hta_benchmark::probe::PolicyProbe::default();
    assert_eq!(
        coverage_problems(Workload::MpcFig10, &outcome(), Some(&no_branches)).len(),
        1
    );
}

#[test]
fn window_cost_compares_first_and_last_complete_windows() {
    // 10 s slices over 2,000 simulated seconds: two complete 900 s
    // windows; the partial third one is ignored.
    let slices: Vec<Slice> = (0..200)
        .map(|i| Slice {
            start_s: i as f64 * 10.0,
            wall_s: if i < 90 { 0.001 } else { 0.004 },
            completed: 10,
        })
        .collect();
    let (first, last) = window_cost(&slices);
    assert!((first - 100.0).abs() < 1e-9, "{first}");
    assert!((last - 400.0).abs() < 1e-9, "{last}");
}

#[test]
fn instance_count_depends_on_seconds_only() {
    assert_eq!(instance_count(Workload::StreamChurn, 0.0), 3);
    assert_eq!(instance_count(Workload::StreamChurn, f64::NAN), 3);
    assert_eq!(instance_count(Workload::StreamChurn, 35.0), 7);
    assert_eq!(instance_count(Workload::StreamChaos, 35.0), 39);
    assert_eq!(instance_count(Workload::MpcFig10, 35.0), 9);
}

#[test]
fn instance_text_round_trips() {
    let run = Instance::run(Workload::StreamChurn, DEFAULT_SEED, Scale::Tiny);
    assert!(run.problems.is_empty());
    assert_eq!(Instance::parse(&run.to_text()), Ok(run.clone()));
    let failed = Instance {
        problems: vec!["two\nlines".into()],
        ..run
    };
    let parsed = Instance::parse(&failed.to_text()).expect("parses");
    assert_eq!(parsed.problems, ["two lines"]);
}

#[test]
fn host_times_are_scaled_to_the_reference_speed() {
    let run = Instance::run(Workload::MpcFig10, DEFAULT_SEED, Scale::Tiny);
    assert!(run.kernel_s > 0.0);
    // A host at half the reference speed: the kernel takes twice as long.
    let slow = Instance {
        setup_s: 0.004,
        wall_s: 3.0,
        kernel_s: 2.0 * calibrate::REFERENCE_S,
        ..run
    };
    let report = end_to_end(Workload::MpcFig10, DEFAULT_SEED, 0.0, |_| Ok(slow.clone()));
    let v = |name| report.value(name).expect("reported");
    assert!((v("wall_s") - 1.5).abs() < 1e-12);
    assert!((v("setup_s") - 0.002).abs() < 1e-12);
    assert!((v("events_per_s") - slow.events as f64 / 1.5).abs() < 1e-6);
    assert!(
        report.notes[0].contains("wall_s 3.000000 s"),
        "{:?}",
        report.notes
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--seed", "1"][..],
        &["--workload", "nope"],
        &["--workload", "mpc-fig10", "--trace", "2"],
        &["--workload", "mpc-fig10", "--seconds"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hta-benchmark"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
