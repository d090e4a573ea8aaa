//! Property net for the chunked driver's quiet loop: on *random* access
//! streams — not just the golden workloads — `run_chunked`, which runs
//! bare `access_core` calls up to each boundary while the injector is
//! idle, must stay byte-identical to the `run_per_access` oracle.
//! Four properties:
//!
//! * with fault windows active, the contention model enabled, and the M5
//!   manager or the hinting-fault heavy ANB daemon, so quiet segments are
//!   short and cut by wakes, faults, and flushes;
//! * with no boundary at all (no daemon wake, no TLB flush, no fault
//!   plan), so a whole chunk runs as one quiet segment;
//! * with RAS faults recorded and a fault still scheduled past the run's
//!   end, where the quiet window is bounded by the next scheduled fault
//!   and all but a handful of accesses stay off the checked path;
//! * a mid-chunk checkpoint/restore split lands on the exact same final
//!   state as the run that never stopped.
//!
//! The deterministic suites (`chunk_determinism.rs`, `checkpoint.rs`)
//! pin the golden workloads; this file fuzzes the space between them:
//! arbitrary page-collision patterns, write/op-end mixes, chunk
//! capacities that misalign with the quiet segments, and split points
//! that cut a chunk (and the quiet segment inside it) anywhere.

use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan};
use cxl_sim::prelude::*;
use cxl_sim::system::{run_chunked, run_per_access, NoMigration, Region};
use m5_baselines::anb::{Anb, AnbConfig};
use m5_bench::checkpoint::{capture, drive_to, resume};
use m5_bench::golden;
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::{AccessRecorder, ReplayWorkload};
use proptest::prelude::*;

/// A fault plan whose spike/stall/poison/pressure windows all land inside
/// even the shortest generated run (a few hundred accesses simulate tens
/// of microseconds on the scaled machine).
fn active_plan() -> FaultPlan {
    FaultPlan::none()
        .with(
            Nanos::from_micros(1),
            FaultKind::LatencySpike {
                extra: Nanos::from_micros(1),
                duration: Nanos::from_micros(3),
            },
        )
        .with(
            Nanos::from_micros(5),
            FaultKind::ControllerStall {
                duration: Nanos::from_micros(2),
            },
        )
        .with(Nanos::from_micros(8), FaultKind::PoisonLine { reads: 2 })
        .with(
            Nanos::from_micros(10),
            FaultKind::DdrPressure {
                duration: Nanos::from_micros(4),
            },
        )
}

/// A plan that records a correctable error and a link degrade early,
/// poisons two reads mid-run, and keeps one fault scheduled long after the
/// run ends, so the schedule is never exhausted.
fn ras_plan() -> FaultPlan {
    FaultPlan::none()
        .with(
            Nanos::from_micros(2),
            FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 5 }),
        )
        .with(
            Nanos::from_micros(4),
            FaultKind::Device(DeviceFault::LinkDegrade { factor: 150 }),
        )
        .with(Nanos::from_micros(100), FaultKind::PoisonLine { reads: 2 })
        .with(
            Nanos::from_millis(10_000),
            FaultKind::MigrationCopyFail { attempts: 1 },
        )
}

/// The contended machine: the workload's pages on CXL (so snoops,
/// contention billing, and migration all have traffic).
fn contended_config(pages: u64) -> SystemConfig {
    SystemConfig::scaled_default()
        .with_cxl_frames(pages + 64)
        .with_ddr_frames((pages / 2).max(2))
        .with_contention(ContentionConfig::enabled_default().with_cxl_background(0.6))
}

/// A machine built from `config` executing `plan`, with a `pages`-page
/// region on CXL.
fn boot(config: SystemConfig, pages: u64, plan: &FaultPlan) -> (System, Region) {
    let mut sys = System::with_fault_plan(config, plan);
    let region = sys
        .alloc_region(pages, Placement::AllOnCxl)
        .expect("CXL sized to fit");
    (sys, region)
}

/// [`contended_config`] executing `plan`.
fn contended_system(pages: u64, plan: &FaultPlan) -> (System, Region) {
    boot(contended_config(pages), pages, plan)
}

/// Replay workload over `region` built from raw (offset, write, op-end)
/// triples.
fn replay(ops: &[(u64, bool, bool)], pages: u64, region: &Region) -> ReplayWorkload {
    let mut rec = AccessRecorder::with_capacity(ops.len());
    let span = pages * 4096;
    for &(off, w, end) in ops {
        rec.push(off % span, w, end);
    }
    rec.into_workload("quiet-prop", region.base)
}

/// Full-fidelity observation: rendered telemetry snapshot + report debug.
fn snapshot(sys: &mut System, report: &RunReport) -> (String, String) {
    sys.telemetry_mut().flush();
    let snap = golden::render("quiet-prop", &sys.telemetry().snapshot());
    (snap, format!("{report:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunked ≡ per-access oracle on random streams, faults and
    /// contention live, under both the M5 manager and the hinting-fault
    /// heavy ANB daemon, at chunk capacities that slice quiet segments at
    /// awkward points.
    #[test]
    fn chunked_matches_per_access_oracle(
        ops in prop::collection::vec(
            (any::<u64>(), prop::bool::weighted(0.3), prop::bool::weighted(0.05)),
            64..1024,
        ),
        pages in 8u64..48,
        cap_idx in 0usize..5,
        use_anb in any::<bool>(),
    ) {
        let cap = [3usize, 7, 64, 509, 4096][cap_idx];
        let plan = active_plan();
        let accesses = ops.len() as u64;

        let oracle = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let report = if use_anb {
                let mut d = Anb::new(AnbConfig::default());
                run_per_access(&mut sys, &mut wl, &mut d, accesses)
            } else {
                let mut d = M5Manager::new(M5Config::default());
                run_per_access(&mut sys, &mut wl, &mut d, accesses)
            };
            snapshot(&mut sys, &report)
        };

        let chunked = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let report = if use_anb {
                let mut d = Anb::new(AnbConfig::default());
                run_chunked(&mut sys, &mut wl, &mut d, accesses, cap)
            } else {
                let mut d = M5Manager::new(M5Config::default());
                run_chunked(&mut sys, &mut wl, &mut d, accesses, cap)
            };
            snapshot(&mut sys, &report)
        };

        prop_assert_eq!(&oracle.1, &chunked.1, "report diverged (cap={})", cap);
        prop_assert_eq!(&oracle.0, &chunked.0, "telemetry diverged (cap={})", cap);
    }

    /// Chunked ≡ per-access oracle when nothing bounds the quiet segment:
    /// no daemon wake, no TLB flush, no fault plan. The horizon is
    /// unbounded, so each chunk — a whole 4096-access one at the largest
    /// capacity — runs as a single quiet segment.
    #[test]
    fn unbounded_quiet_segment_matches_per_access_oracle(
        ops in prop::collection::vec(
            (any::<u64>(), prop::bool::weighted(0.3), prop::bool::weighted(0.05)),
            4096..6000,
        ),
        pages in 8u64..48,
    ) {
        let plan = FaultPlan::none();
        let accesses = ops.len() as u64;
        let observe = |cap: Option<usize>| {
            let mut config = contended_config(pages);
            config.tlb_flush_interval = None;
            let (mut sys, region) = boot(config, pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            prop_assert_eq!(sys.fault_injector().next_scheduled(), None);
            let mut wl = replay(&ops, pages, &region);
            let report = match cap {
                None => run_per_access(&mut sys, &mut wl, &mut NoMigration, accesses),
                Some(cap) => run_chunked(&mut sys, &mut wl, &mut NoMigration, accesses, cap),
            };
            prop_assert_eq!(report.accesses, accesses);
            prop_assert_eq!(report.hinting_faults, 0, "a hinting fault would end the segment");
            snapshot(&mut sys, &report)
        };

        let oracle = observe(None);
        for cap in [1usize, 7, 509, 4096] {
            let chunked = observe(Some(cap));
            prop_assert_eq!(&oracle.1, &chunked.1, "report diverged (cap={})", cap);
            prop_assert_eq!(&oracle.0, &chunked.0, "telemetry diverged (cap={})", cap);
        }
    }

    /// Chunked ≡ per-access oracle while the RAS layer carries a
    /// correctable error and a degraded link and the injector still has a
    /// fault scheduled: the quiet window is "idle injector, bounded by the
    /// next scheduled fault", so fewer than 1 % of accesses take the
    /// checked path. Telemetry on and off (untraced fault events only
    /// hold the quiet window closed when telemetry is on).
    #[test]
    fn scheduled_faults_keep_the_quiet_window_open(
        ops in prop::collection::vec(
            (any::<u64>(), prop::bool::weighted(0.3), prop::bool::weighted(0.05)),
            4096..6000,
        ),
        pages in 8u64..48,
        telemetry in any::<bool>(),
    ) {
        let plan = ras_plan();
        let accesses = ops.len() as u64;
        let observe = |cap: Option<usize>| {
            let mut config = contended_config(pages);
            config.tlb_flush_interval = None;
            let (mut sys, region) = boot(config, pages, &plan);
            if telemetry {
                sys.install_telemetry(Telemetry::enabled());
            }
            let mut wl = replay(&ops, pages, &region);
            let report = match cap {
                None => run_per_access(&mut sys, &mut wl, &mut NoMigration, accesses),
                Some(cap) => {
                    let mut run = ChunkedRun::begin(&mut sys, &mut NoMigration);
                    let mut chunk = AccessChunk::with_capacity(cap);
                    while run.step(&mut sys, &mut wl, &mut NoMigration, &mut chunk, accesses) {}
                    let checked = run.checked_accesses();
                    prop_assert!(
                        checked * 100 < accesses,
                        "{} of {} accesses checked (cap={})", checked, accesses, cap
                    );
                    run.finish(&mut sys, &NoMigration)
                }
            };
            prop_assert_eq!(report.accesses, accesses);
            let inj = sys.fault_injector();
            prop_assert_eq!(inj.injected_total(), 3, "CE, link degrade and poison armed");
            prop_assert!(inj.next_scheduled().is_some(), "schedule not exhausted");
            prop_assert!(!sys.ras().quiescent());
            snapshot(&mut sys, &report)
        };

        let oracle = observe(None);
        for cap in [1usize, 7, 509, 4096] {
            let chunked = observe(Some(cap));
            prop_assert_eq!(&oracle.1, &chunked.1, "report diverged (cap={})", cap);
            prop_assert_eq!(&oracle.0, &chunked.0, "telemetry diverged (cap={})", cap);
        }
    }

    /// Checkpointing at an arbitrary access index — almost always inside
    /// a chunk, and usually inside a quiet segment — and restoring into a
    /// fresh machine must produce the byte-identical final checkpoint,
    /// report, and telemetry of the uninterrupted run.
    #[test]
    fn restore_equals_continue_at_any_split(
        ops in prop::collection::vec(
            (any::<u64>(), prop::bool::weighted(0.3), prop::bool::weighted(0.05)),
            128..1024,
        ),
        pages in 8u64..48,
        split_num in 1u64..99,
    ) {
        let plan = active_plan();
        let accesses = ops.len() as u64;
        let split = (accesses * split_num / 100).max(1);

        let uninterrupted = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let mut m5 = M5Manager::new(M5Config::default());
            let mut run = ChunkedRun::begin(&mut sys, &mut m5);
            drive_to(&mut sys, &mut m5, &mut run, &mut wl, accesses);
            let cp = capture(&mut sys, &m5, &run, &wl).encode();
            let report = run.finish(&mut sys, &m5);
            let (snap, rep) = snapshot(&mut sys, &report);
            (cp, snap, rep)
        };

        let restored = {
            let (mut sys, region) = contended_system(pages, &plan);
            sys.install_telemetry(Telemetry::enabled());
            let mut wl = replay(&ops, pages, &region);
            let mut m5 = M5Manager::new(M5Config::default());
            let mut run = ChunkedRun::begin(&mut sys, &mut m5);
            drive_to(&mut sys, &mut m5, &mut run, &mut wl, split);
            prop_assert_eq!(run.accesses(), split, "split point not reached");
            let mid = capture(&mut sys, &m5, &run, &wl).encode();
            let config = sys.config().clone();
            drop((sys, wl, m5, run));

            let cp = Checkpoint::decode(&mid).expect("mid-run snapshot decodes");
            let (_, region2) = contended_system(pages, &plan);
            prop_assert_eq!(region2.base, region.base, "deterministic layout");
            let mut wl = replay(&ops, pages, &region2);
            let resumed = resume(&cp, config, &plan, M5Config::default(), &mut wl)
                .expect("mid-run snapshot restores");
            let (mut sys, mut m5, mut run) = (resumed.sys, resumed.m5, resumed.run);
            drive_to(&mut sys, &mut m5, &mut run, &mut wl, accesses);
            let cp = capture(&mut sys, &m5, &run, &wl).encode();
            let report = run.finish(&mut sys, &m5);
            let (snap, rep) = snapshot(&mut sys, &report);
            (cp, snap, rep)
        };

        prop_assert_eq!(&uninterrupted.2, &restored.2, "report diverged at split {}", split);
        prop_assert_eq!(&uninterrupted.1, &restored.1, "telemetry diverged at split {}", split);
        prop_assert_eq!(&uninterrupted.0, &restored.0, "final checkpoints differ at split {}", split);
    }
}
