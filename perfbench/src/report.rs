//! Repetitions, their aggregation, and the result line.
//!
//! Each repetition runs in a child process of its own (a fresh process
//! regenerates the per-process graph cache, so set-up time and peak RSS
//! are those of a cold start). The parent keeps starting repetitions
//! until the measuring time is spent, then reports medians. With tracing
//! on, untraced and traced repetitions alternate, so the tracing overhead
//! compares runs from the same time window.

use crate::canary::REFERENCE_MOPS;
use crate::harness::{self, Policy, Workload};
use crate::spans::{self, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Whether smaller or larger values of a metric are better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Where a metric's value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host wall clock; varies run to run.
    Host,
    /// Simulated or counted; repeats exactly for a workload and seed.
    Exact,
}

/// A reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Host-timed or exact.
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: [Metric; 5] = [
    m("throughput_macc_s", "Macc/s", Higher, Host),
    m("setup_s", "s", Lower, Host),
    m("peak_rss_mb", "MB", Lower, Host),
    m("sim_time_ms", "ms", Lower, Exact),
    m("sim_p99_op_ns", "ns", Lower, Exact),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [Metric; 44] = [
    m("workloads.build_ms", "ms", Lower, Host),
    m("workloads.trace_bytes", "bytes", Lower, Exact),
    m("workloads.fill_ms", "ms", Lower, Host),
    m("engine.self_ms", "ms", Lower, Host),
    m("engine.ns_per_access", "ns", Lower, Host),
    m("engine.translate_ns", "ns", Lower, Host),
    m("engine.llc_ns", "ns", Lower, Host),
    m("engine.bill_ns", "ns", Lower, Host),
    m("engine.tracker_ns", "ns", Lower, Host),
    m("engine.staged_share", "ratio", Higher, Exact),
    m("tlb.hit_ratio", "ratio", Higher, Exact),
    m("llc.hit_ratio", "ratio", Higher, Exact),
    m("llc.writebacks", "count", Lower, Exact),
    m("dram.ddr_read_share", "ratio", Higher, Exact),
    m("paging.hinting_faults", "count", Lower, Exact),
    m("manager.ticks", "count", Lower, Exact),
    m("manager.tick_ms", "ms", Lower, Host),
    m("manager.migrate_epochs", "count", Lower, Exact),
    m("baseline.ticks", "count", Lower, Exact),
    m("baseline.tick_ms", "ms", Lower, Host),
    m("baseline.faults", "count", Lower, Exact),
    m("baseline.fault_ms", "ms", Lower, Host),
    m("migration.promotions", "count", Higher, Exact),
    m("migration.demotions", "count", Lower, Exact),
    m("migration.rejected", "count", Lower, Exact),
    m("kernel.migration_sim_ns", "ns", Lower, Exact),
    m("kernel.total_sim_ns", "ns", Lower, Exact),
    m("contention.cxl_congestion", "ratio", Lower, Exact),
    m("ras.faults_injected", "count", Lower, Exact),
    m("ras.poison_repairs", "count", Lower, Exact),
    m("ras.frames_offlined", "count", Lower, Exact),
    m("ras.recoveries", "count", Lower, Exact),
    m("ras.promoter_gave_up", "count", Lower, Exact),
    m("ckpt.captures", "count", Lower, Exact),
    m("ckpt.bytes", "bytes", Lower, Exact),
    m("ckpt.capture_ms", "ms", Lower, Host),
    m("ckpt.commit_ms", "ms", Lower, Host),
    m("telemetry.finish_ms", "ms", Lower, Host),
    m("telemetry.metrics", "count", Lower, Exact),
    m("host.canary_mops", "Mop/s", Higher, Host),
    m("host.throughput_raw_macc_s", "Macc/s", Higher, Host),
    m("trace.throughput_macc_s", "Macc/s", Higher, Host),
    m("trace.overhead", "ratio", Lower, Host),
    m("trace.coverage", "ratio", Higher, Host),
];

/// One repetition's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Whether the repetition was traced.
    pub traced: bool,
    /// Host-timed values.
    pub host: BTreeMap<String, f64>,
    /// Exact values.
    pub exact: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Check failures, for the log.
    pub messages: Vec<String>,
}

/// Runs one repetition in this process. Scratch files (checkpoints, the
/// span log) go under `scratch`.
pub fn rep(w: Workload, seed: u64, traced: bool, run_id: u64, scratch: &Path) -> Rep {
    let budget = w.budget();
    let tracer = if traced {
        Tracer::on(run_id)
    } else {
        Tracer::off()
    };
    let mut p = harness::prepare(w, seed, budget, &tracer);
    if traced {
        p.sys.enable_stage_timing();
    }
    let ckpt_dir = scratch.join(format!("ckpt-{}-{run_id}", std::process::id()));
    let mut out = Rep {
        traced,
        attempted: harness::attempted(w, budget),
        ..Rep::default()
    };
    if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
        out.messages
            .push(format!("cannot create {}: {e}", ckpt_dir.display()));
    }
    let ex = harness::execute(w, &mut p, budget, &tracer, &ckpt_dir);
    let audit = harness::audit(w, &mut p, &ex, budget, &ckpt_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    out.failed = audit.failed();
    out.messages.extend(audit.messages.iter().cloned());

    let accesses = ex.report.accesses.max(1) as f64;
    let raw_throughput = accesses / ex.run_s / 1e6;
    let speed = ex.canary_mops / REFERENCE_MOPS;
    let mut host = BTreeMap::from([
        ("setup_s", p.setup_s),
        ("workloads.build_ms", p.build_ms),
        ("peak_rss_mb", vm_hwm_mb()),
        ("host.canary_mops", ex.canary_mops),
        ("throughput_macc_s", raw_throughput / speed),
        ("host.throughput_raw_macc_s", raw_throughput),
    ]);
    let mut exact = harness::exact_counts(w, &p, &ex);
    if traced {
        let spans = tracer.spans();
        let t = spans::self_times(&spans);
        let ms = |name: &str| t.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let m5 = matches!(p.daemon.inner, Policy::M5(_));
        let only = |on: bool, v: f64| if on { v } else { 0.0 };
        host.extend([
            ("workloads.fill_ms", ms("fill_chunk")),
            ("engine.self_ms", ms("drive")),
            ("engine.ns_per_access", ms("drive") * 1e6 / accesses),
            ("manager.tick_ms", only(m5, ms("on_tick"))),
            ("baseline.tick_ms", only(!m5, ms("on_tick"))),
            ("baseline.fault_ms", only(!m5, ms("on_fault"))),
            ("ckpt.capture_ms", ms("capture")),
            ("ckpt.commit_ms", ms("commit")),
            ("telemetry.finish_ms", ms("finish")),
            (
                "trace.coverage",
                spans::root_time(&spans) as f64 / (ex.run_s * 1e9),
            ),
        ]);
        if let Some(st) = p.sys.stage_times() {
            let staged = st.staged_accesses.max(1) as f64;
            host.extend([
                ("engine.translate_ns", st.translate_ns as f64 / staged),
                ("engine.llc_ns", st.llc_ns as f64 / staged),
                ("engine.bill_ns", st.bill_ns as f64 / staged),
                ("engine.tracker_ns", st.tracker_ns as f64 / staged),
            ]);
            exact.insert("engine.staged_share", st.staged_accesses as f64 / accesses);
        }
        let path = scratch.join(format!("spans-{}.jsonl", w.name()));
        if let Err(e) = spans::write_jsonl(&spans, &path) {
            out.messages
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    out.host = host.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    out.exact = exact.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    out
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 if unknown.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Rep {
    /// The line protocol a child process prints for its parent.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "traced {}", u8::from(self.traced));
        let _ = writeln!(s, "attempted {}", self.attempted);
        let _ = writeln!(s, "failed {}", self.failed);
        for (k, v) in &self.host {
            let _ = writeln!(s, "host {k} {v}");
        }
        for (k, v) in &self.exact {
            let _ = writeln!(s, "exact {k} {v}");
        }
        for msg in &self.messages {
            let _ = writeln!(s, "msg {}", msg.replace('\n', " "));
        }
        s
    }

    /// Parses [`Rep::to_lines`] output.
    pub fn from_lines(text: &str) -> Option<Rep> {
        let mut r = Rep::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ')?;
            match tag {
                "traced" => r.traced = rest == "1",
                "attempted" => r.attempted = rest.parse().ok()?,
                "failed" => r.failed = rest.parse().ok()?,
                "msg" => r.messages.push(rest.to_string()),
                "host" | "exact" => {
                    let (k, v) = rest.split_once(' ')?;
                    let map = if tag == "host" {
                        &mut r.host
                    } else {
                        &mut r.exact
                    };
                    map.insert(k.to_string(), v.parse().ok()?);
                }
                _ => return None,
            }
        }
        Some(r)
    }
}

/// Runs one repetition in a child process of `exe`.
fn spawn_rep(exe: &Path, w: Workload, seed: u64, traced: bool, run_id: u64) -> Result<Rep, String> {
    let out = Command::new(exe)
        .args(["--rep", w.name(), "--seed", &seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--run-id", &run_id.to_string()])
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "repetition {run_id} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Rep::from_lines(&stdout)
        .ok_or_else(|| format!("repetition {run_id} printed an unreadable report"))
}

/// The aggregated result of one workload's measurement.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// The workload's name.
    pub workload: &'static str,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions.
    pub failed: u64,
    /// Reported metrics with their first and third quartiles over the
    /// repetitions.
    pub metrics: Vec<(Metric, f64, f64, f64)>,
    /// Medians of the untraced repetitions' unscaled host times and of
    /// the canary's rate, for the table.
    pub raw: Vec<(&'static str, &'static str, f64)>,
    /// Repetitions run (untraced, traced).
    pub reps: (usize, usize),
    /// Check failures.
    pub messages: Vec<String>,
}

/// Measures `w` for at least `seconds`, running repetitions in child
/// processes of `exe`. With `trace`, untraced and traced repetitions
/// alternate and the per-layer metrics are reported; otherwise the
/// end-to-end metrics are.
pub fn measure(exe: &Path, w: Workload, seed: u64, seconds: u64, trace: bool) -> Summary {
    let start = Instant::now();
    let min_reps = if trace { 4 } else { 3 };
    let mut reps = Vec::new();
    let mut messages = Vec::new();
    let mut broken = 0;
    for run_id in 0.. {
        let traced = trace && run_id % 2 == 1;
        match spawn_rep(exe, w, seed, traced, run_id) {
            Ok(r) => reps.push(r),
            Err(e) => {
                messages.push(e);
                broken += 1;
                break;
            }
        }
        let done = reps.len() >= min_reps && start.elapsed() >= Duration::from_secs(seconds);
        if done && (!trace || run_id % 2 == 1) {
            break;
        }
    }
    summarize(w, reps, trace, broken, messages)
}

fn summarize(
    w: Workload,
    reps: Vec<Rep>,
    trace: bool,
    broken: u64,
    mut messages: Vec<String>,
) -> Summary {
    let mut attempted = broken * harness::attempted(w, w.budget());
    let mut failed = attempted;
    for r in &reps {
        attempted += r.attempted;
        failed += r.failed;
        messages.extend(r.messages.iter().cloned());
    }
    // Exact values must repeat in every repetition, traced or not; each
    // repetition that disagrees with the first counts one failure.
    // `engine.staged_share` exists only on traced repetitions.
    let traced_only = ["engine.staged_share"];
    if let Some(first) = reps.first() {
        for (i, r) in reps.iter().enumerate().skip(1) {
            let differs = first
                .exact
                .iter()
                .filter(|(k, _)| !traced_only.contains(&k.as_str()))
                .any(|(k, v)| r.exact.get(k) != Some(v));
            if differs {
                failed += 1;
                messages.push(format!("repetition {i} disagrees on an exact metric"));
            }
        }
    }

    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let spread = |sel: &[&Rep], name: &str| -> (f64, f64, f64) {
        let v: Vec<f64> = sel
            .iter()
            .filter_map(|r| r.host.get(name).or_else(|| r.exact.get(name)).copied())
            .collect();
        quartiles(&v)
    };
    let mut metrics = Vec::new();
    if trace {
        for metric in PER_LAYER {
            let (q1, med, q3) = match metric.name {
                "trace.throughput_macc_s" => spread(&traced, "throughput_macc_s"),
                "trace.overhead" => {
                    let t = spread(&traced, "throughput_macc_s").1;
                    let u = spread(&untraced, "throughput_macc_s").1;
                    let o = if u > 0.0 { 1.0 - t / u } else { 0.0 };
                    (o, o, o)
                }
                name if name.starts_with("host.") => spread(&untraced, name),
                name => spread(&traced, name),
            };
            metrics.push((metric, med, q1, q3));
        }
    } else {
        for metric in END_TO_END {
            let (q1, med, q3) = spread(&untraced, metric.name);
            metrics.push((metric, med, q1, q3));
        }
    }
    let raw = [
        ("host.canary_mops", "Mop/s"),
        ("host.throughput_raw_macc_s", "Macc/s"),
    ]
    .map(|(name, unit)| (name, unit, spread(&untraced, name).1))
    .to_vec();
    let finite = metrics.iter().all(|(_, v, _, _)| v.is_finite());
    if !finite {
        messages.push("a metric is not a finite number".into());
    }
    Summary {
        workload: w.name(),
        correct: failed == 0 && broken == 0 && finite && !reps.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        raw,
        reps: (untraced.len(), traced.len()),
        messages,
    }
}

/// First quartile, median and third quartile of `v` (the exclusive
/// method of Python's `statistics.quantiles`); zeros when `v` is empty.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |p: f64| {
        let pos = p * (n + 1) as f64 - 1.0;
        let lo = pos.floor().clamp(0.0, (n - 1) as f64) as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = (pos - pos.floor()).clamp(0.0, 1.0);
        if pos < 0.0 {
            v[0]
        } else {
            v[lo] + (v[hi] - v[lo]) * frac
        }
    };
    (at(0.25), at(0.5), at(0.75))
}

impl Summary {
    /// A human-readable table: one metric a line with its unit, whether
    /// it is host-timed or exact, and its quartiles over the repetitions.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# {}: {} untraced + {} traced repetitions, {} attempted, {} failed",
            self.workload, self.reps.0, self.reps.1, self.attempted, self.failed
        );
        let error_rate = self.failed as f64 / self.attempted as f64;
        let _ = writeln!(
            s,
            "{:<28} {:>16} {:<7} {:<6} exact",
            "error_rate", error_rate, "ratio", "lower"
        );
        for (name, unit, v) in &self.raw {
            let _ = writeln!(s, "# unscaled {name} {v} {unit}");
        }
        for (m, v, q1, q3) in &self.metrics {
            let better = match m.better {
                Higher => "higher",
                Lower => "lower",
            };
            let kind = match m.kind {
                Host => format!("host  q1 {q1:.4} q3 {q3:.4}"),
                Exact => "exact".to_string(),
            };
            let _ = writeln!(
                s,
                "{:<28} {:>16.4} {:<7} {better:<6} {kind}",
                m.name, v, m.unit
            );
        }
        for msg in &self.messages {
            let _ = writeln!(s, "# check failed: {msg}");
        }
        s
    }

    /// The benchmark's result line: one JSON object.
    pub fn json(&self) -> String {
        json_line(
            self.correct,
            self.attempted,
            self.failed,
            self.metrics
                .iter()
                .map(|(m, v, _, _)| (m.name.to_string(), *m, *v)),
        )
    }
}

/// Formats a result line from `(name, metric, value)` triples.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, Metric, f64)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, m, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), (1.0, 3.0, 4.0));
    }

    #[test]
    fn rep_lines_roundtrip() {
        let r = Rep {
            traced: true,
            host: BTreeMap::from([("setup_s".to_string(), 0.123_456_789)]),
            exact: BTreeMap::from([("sim_time_ms".to_string(), 16.384_001)]),
            attempted: 10,
            failed: 1,
            messages: vec!["lost page".into()],
        };
        assert_eq!(Rep::from_lines(&r.to_lines()), Some(r));
    }
}
