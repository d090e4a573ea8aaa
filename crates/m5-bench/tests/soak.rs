//! RAS chaos soak: seeded fault campaigns (every one including a live
//! CXL-node evacuation) run through the full M5 manager, judged on the
//! RAS contract — budget completes, invariants clean, zero pages lost or
//! double-mapped, bounded incremental drain, graceful survivor
//! exhaustion.
//!
//! Set `M5_SOAK_ARTIFACTS=<dir>` to write the campaign artifact there
//! (CI uploads it when the soak fails).

use m5_bench::soak::{
    all_failures, artifact, default_campaigns, soak_parallel, soak_sequential, SoakScenario,
    SoakSpec,
};
use std::path::PathBuf;

fn artifact_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("M5_SOAK_ARTIFACTS")?);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// The default campaign set (8 chaos seeds + 2 clean evacuations + 1
/// squeezed survivor) upholds every clause of the RAS contract.
#[test]
fn default_soak_campaigns_uphold_the_ras_contract() {
    let specs = default_campaigns(false);
    let chaos = specs
        .iter()
        .filter(|s| s.scenario == SoakScenario::Chaos)
        .count();
    assert!(chaos >= 8, "at least eight seeded chaos campaigns");

    let reports = soak_parallel(&specs);
    if let Some(dir) = artifact_dir() {
        let _ = std::fs::write(dir.join("ras_soak.txt"), artifact(&reports));
    }
    let failures = all_failures(&specs, &reports);
    assert!(
        failures.is_empty(),
        "{} campaigns violated the RAS contract:\n{}\n{}",
        failures.len(),
        failures.join("\n"),
        artifact(&reports),
    );
}

/// The parallel fan-out must be byte-identical to the sequential
/// reference — campaigns share nothing and merge in input order.
#[test]
fn parallel_soak_matches_sequential() {
    // A reduced budget keeps the double run in test-friendly time; this
    // test checks determinism, not the contract.
    let specs: Vec<SoakSpec> = default_campaigns(false)
        .into_iter()
        .filter(|s| s.scenario == SoakScenario::Chaos)
        .take(3)
        .map(|s| SoakSpec {
            accesses: 60_000,
            ..s
        })
        .collect();
    let par = artifact(&soak_parallel(&specs));
    let seq = artifact(&soak_sequential(&specs));
    assert_eq!(par, seq, "parallel soak artifact diverged from sequential");
}
