//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <pr_m5|redis_m5|mcf_anb|roms_m5_ras|all> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero if any output check fails. Scratch files
//! (checkpoints, span logs) are written under `.perfbench/` in the
//! working directory.

use perfbench::harness::Workload;
use perfbench::report::{self, Rep};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <pr_m5|redis_m5|mcf_anb|roms_m5_ras|all> \
--seed <n> --seconds <s> --trace <0|1>";

const SCRATCH: &str = ".perfbench";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str| get(flag).and_then(|v| v.parse::<u64>().ok());
    if let Err(e) = std::fs::create_dir_all(SCRATCH) {
        eprintln!("cannot create {SCRATCH}: {e}");
        return ExitCode::from(2);
    }

    // A child process running one repetition.
    if let Some(name) = get("--rep") {
        let (Some(w), Some(seed), Some(traced), Some(run_id)) = (
            Workload::parse(name),
            num("--seed"),
            num("--traced"),
            num("--run-id"),
        ) else {
            eprintln!("bad repetition arguments");
            return ExitCode::from(2);
        };
        let r: Rep = report::rep(w, seed, traced == 1, run_id, Path::new(SCRATCH));
        print!("{}", r.to_lines());
        return ExitCode::SUCCESS;
    }

    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        get("--workload"),
        num("--seed"),
        num("--seconds"),
        num("--trace"),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let workloads: Vec<Workload> = match name {
        "all" => Workload::ALL.to_vec(),
        _ => match Workload::parse(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    if trace > 1 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };

    let summaries: Vec<report::Summary> = workloads
        .iter()
        .map(|&w| report::measure(&exe, w, seed, seconds, trace == 1))
        .collect();
    for s in &summaries {
        print!("{}", s.table());
    }
    let correct = summaries.iter().all(|s| s.correct);
    let line = match summaries.as_slice() {
        [one] => one.json(),
        many => report::json_line(
            correct,
            many.iter().map(|s| s.attempted).sum(),
            many.iter().map(|s| s.failed).sum(),
            many.iter().flat_map(|s| {
                s.metrics
                    .iter()
                    .map(move |(m, v, _, _)| (format!("{}.{}", s.workload, m.name), *m, *v))
            }),
        ),
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
