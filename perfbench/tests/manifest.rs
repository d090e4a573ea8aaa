//! `BENCHMARK.json` at the repository root must list exactly the metrics
//! the benchmark reports, with the same units and directions.

use perfbench::report::{Better, Metric, END_TO_END, PER_LAYER};

fn entry(m: &Metric) -> String {
    let better = match m.better {
        Better::Higher => "higher",
        Better::Lower => "lower",
    };
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
        m.name, m.unit
    )
}

#[test]
fn manifest_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            manifest.contains(&entry(m)),
            "{} missing or different",
            m.name
        );
    }
    let listed = manifest.matches("\"name\": ").count();
    let workloads = perfbench::harness::Workload::ALL.len();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
}
