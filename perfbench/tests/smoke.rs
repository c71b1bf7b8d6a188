//! Tiny runs of every workload, plain and traced, with every correctness
//! check on: each must pass its checks and report every declared metric.

use std::time::Duration;

use perfbench::{Config, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> perfbench::Report {
    let cfg = Config {
        workload: workload.into(),
        seed: 7,
        seconds: Duration::ZERO,
        trace,
        scale: Scale::Tiny,
    };
    let report = perfbench::run(&cfg).expect("known workload");
    assert!(
        report.correct(),
        "{workload} (trace {trace}) failed: {:?}",
        report.errors
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let last = report.json();
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    report
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_end_to_end_metrics() {
    for (workload, _) in WORKLOADS {
        let report = tiny(workload, false);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{workload}");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
        }
        assert_eq!(report.get("success_frac"), Some(1.0), "{workload}");
        assert!(
            report.get("cost_ratio").unwrap() >= 1.0 - 1e-9,
            "{workload}"
        );
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    for (workload, _) in WORKLOADS {
        let report = tiny(workload, true);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{workload}");
        let get = |name| report.get(name).unwrap();
        if workload == "dynamic_mixed" {
            assert!(get("core.apply_ms.arrive") > 0.0);
            assert!(get("rtree.page_reads_per_op") > 0.0);
        } else {
            assert!(get("net.request_bytes") > 0.0, "{workload}");
            assert!(get("net.decode_ms") > 0.0, "{workload}");
            assert!(get("core.solve_ms") > 0.0, "{workload}");
            assert!(get("trace.span_coverage") > 0.5, "{workload}");
        }
        if workload.starts_with("inline") {
            assert!(get("flow.sspa_ms") > 0.0, "{workload}");
            assert_eq!(
                get("rtree.page_reads_per_op"),
                0.0,
                "{workload} bypasses storage"
            );
        }
        if workload == "dataset_scarce" {
            assert!(
                get("storage.faults_per_op") > 0.0,
                "the buffer must overflow"
            );
        }
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let cfg = Config {
        workload: "nope".into(),
        seed: 1,
        seconds: Duration::ZERO,
        trace: false,
        scale: Scale::Tiny,
    };
    assert!(perfbench::run(&cfg).is_err());
}
