//! The benchmark's own guards: exact metrics repeat for a seed and move
//! with it, the timing wrappers leave the simulation untouched, and the
//! output checks catch a broken end state.

use perfbench::harness::{self, Workload};
use perfbench::spans::Tracer;
use std::path::PathBuf;

/// A short run: enough chunks for daemon ticks and, on `roms_m5_ras`,
/// every run checkpoint.
const BUDGET: u64 = 64 * 4096;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("perfbench-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).expect("temp dir creatable");
    d
}

fn exact(w: Workload, seed: u64, tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let dir = scratch(&format!("{}-{seed}", w.name()));
    let mut p = harness::prepare(w, seed, BUDGET, tracer);
    let ex = harness::execute(w, &mut p, BUDGET, tracer, &dir);
    let audit = harness::audit(w, &mut p, &ex, BUDGET, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(audit.failed(), 0, "{}: {:?}", w.name(), audit.messages);
    harness::exact_counts(w, &p, &ex).into_iter().collect()
}

#[test]
fn exact_metrics_repeat_for_a_seed_and_move_with_it() {
    for w in Workload::ALL {
        let a = exact(w, 42, &Tracer::off());
        let b = exact(w, 42, &Tracer::on(1));
        assert_eq!(a, b, "{}: same seed, traced or not, must repeat", w.name());
        let c = exact(w, 1042, &Tracer::off());
        let sim = |v: &[(&str, f64)]| v.iter().find(|(k, _)| *k == "sim_time_ms").map(|kv| kv.1);
        assert_ne!(
            sim(&a),
            sim(&c),
            "{}: a second seed must change the run",
            w.name()
        );
    }
}

#[test]
fn wrapped_pipeline_reports_exactly_what_run_does() {
    for w in Workload::ALL {
        let dir = scratch(&format!("{}-wrapped", w.name()));
        let tracer = Tracer::on(0);
        let mut p = harness::prepare(w, 7, BUDGET, &tracer);
        let wrapped = harness::execute(w, &mut p, BUDGET, &tracer, &dir).report;
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!tracer.spans().is_empty());

        let mut q = harness::prepare(w, 7, BUDGET, &Tracer::off());
        let plain =
            cxl_sim::system::run(&mut q.sys, &mut q.trace.inner, &mut q.daemon.inner, BUDGET);
        assert_eq!(format!("{wrapped:?}"), format!("{plain:?}"), "{}", w.name());
    }
}

#[test]
fn audit_counts_a_lost_page() {
    let w = Workload::RedisM5;
    let dir = scratch("lost-page");
    let mut p = harness::prepare(w, 3, BUDGET, &Tracer::off());
    let ex = harness::execute(w, &mut p, BUDGET, &Tracer::off(), &dir);
    let vpn = p.region.vpns().next().expect("region is not empty");
    p.sys.page_table_mut().unmap(vpn);
    let audit = harness::audit(w, &mut p, &ex, BUDGET + 5, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(audit.pages_lost, 1);
    assert_eq!(audit.unexecuted, 5);
    assert!(audit.failed() >= 6);
}
