//! Deterministic fault injection for the CXL tier (robustness harness).
//!
//! Real CXL memory expansion is a *device*: it can run slow (thermal
//! throttling, link retraining), go mute (controller resets), hand back
//! poisoned cache lines (ECC), or corrupt its near-memory SRAM state
//! (PAC/WAC/HPT/HWT counters are not protected like host DRAM). A manager
//! that only works on a healthy device is not a manager. This module gives
//! the simulator a way to schedule those failures — reproducibly — so the
//! rest of the stack can prove it degrades instead of crashing.
//!
//! The design has three layers:
//!
//! * [`FaultPlan`] — *what* goes wrong and *when*, as a sorted schedule of
//!   [`ScheduledFault`]s. Plans are built explicitly ([`FaultPlan::with`])
//!   or pseudo-randomly from a seed ([`FaultPlan::chaos`]). A plan is pure
//!   data: two runs with the same workload seed and the same plan produce
//!   identical [`crate::report::RunReport`]s.
//! * [`FaultInjector`] — the runtime consulted by
//!   [`crate::system::System`] on every access and migration. It arms
//!   scheduled faults as simulated time passes, answers "is a stall window
//!   active?"-style queries, and keeps a per-class ledger for the report.
//! * [`DeviceFault`] — the command delivered to near-memory devices
//!   ([`crate::controller::CxlDevice::on_fault`]) so trackers and
//!   profilers can flip, saturate, or kill their SRAM counters.
//!
//! Everything is driven by the *simulated* clock, never wall time, and the
//! empty plan ([`FaultPlan::none`]) is the default everywhere — a run
//! without faults is byte-identical to a run on a build that predates this
//! module.

use crate::addr::VirtAddr;
use crate::memory::OutOfFrames;
use crate::migration::MigrateError;
use crate::time::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The taxonomy of injectable faults, used for counting and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// CXL access latency inflated for a window (link retraining, thermal
    /// throttling).
    LatencySpike,
    /// The controller stops forwarding snoops for a window: near-memory
    /// devices observe nothing (transient controller stall/reset).
    ControllerStall,
    /// A CXL DRAM read returns a poisoned cache line (uncorrectable ECC);
    /// the kernel's memory-failure handling recovers it.
    PoisonedLine,
    /// A single SRAM counter bit flips in every attached device.
    CounterBitFlip,
    /// Every SRAM counter in every attached device saturates at once.
    CounterSaturation,
    /// A near-memory device fails permanently and returns garbage.
    DeviceFailure,
    /// `migrate_pages()`' copy phase fails transiently (DMA error).
    MigrationCopyFail,
    /// DDR allocations fail artificially for a window (external memory
    /// pressure on the fast tier).
    DdrPressure,
    /// The CXL controller resets mid-migration: in-flight transactions are
    /// lost and the migration engine is fenced until
    /// [`crate::system::System::recover`] replays the journal.
    ControllerReset,
    /// A CXL DRAM read was corrected by ECC: harmless in isolation, but
    /// the RAS layer trends the per-frame count and soft-offlines frames
    /// that keep correcting.
    CorrectableEcc,
    /// The CXL link renegotiates to a degraded rate; accesses to the node
    /// slow down by a multiplicative factor until the node is retired.
    LinkDegrade,
    /// The operator (or fabric manager) announces an orderly hot-remove:
    /// the node must be evacuated live and taken offline.
    HotRemove,
    /// The next checkpoint commit crashes mid-write, leaving a torn
    /// snapshot on disk. Consumed by the checkpointing harness (not the
    /// `System` hot path): the commit is truncated at a manifest section
    /// boundary so restore must either reject it and fall back or — for a
    /// crash between the commit renames — find the previous snapshot
    /// still valid.
    TornCheckpoint,
}

impl FaultClass {
    /// All classes, in display order. The RAS classes are appended *after*
    /// the original nine — and [`FaultClass::TornCheckpoint`] after those —
    /// so [`FaultPlan::chaos`]'s per-class RNG draws for the earlier
    /// classes are unchanged for a given seed.
    pub const ALL: [FaultClass; 13] = [
        FaultClass::LatencySpike,
        FaultClass::ControllerStall,
        FaultClass::PoisonedLine,
        FaultClass::CounterBitFlip,
        FaultClass::CounterSaturation,
        FaultClass::DeviceFailure,
        FaultClass::MigrationCopyFail,
        FaultClass::DdrPressure,
        FaultClass::ControllerReset,
        FaultClass::CorrectableEcc,
        FaultClass::LinkDegrade,
        FaultClass::HotRemove,
        FaultClass::TornCheckpoint,
    ];

    fn index(self) -> usize {
        match self {
            FaultClass::LatencySpike => 0,
            FaultClass::ControllerStall => 1,
            FaultClass::PoisonedLine => 2,
            FaultClass::CounterBitFlip => 3,
            FaultClass::CounterSaturation => 4,
            FaultClass::DeviceFailure => 5,
            FaultClass::MigrationCopyFail => 6,
            FaultClass::DdrPressure => 7,
            FaultClass::ControllerReset => 8,
            FaultClass::CorrectableEcc => 9,
            FaultClass::LinkDegrade => 10,
            FaultClass::HotRemove => 11,
            FaultClass::TornCheckpoint => 12,
        }
    }

    fn from_index(i: u64) -> Option<FaultClass> {
        FaultClass::ALL.get(i as usize).copied()
    }

    /// The class's stable kebab-case name (also used as a telemetry label).
    pub const fn label(self) -> &'static str {
        match self {
            FaultClass::LatencySpike => "latency-spike",
            FaultClass::ControllerStall => "controller-stall",
            FaultClass::PoisonedLine => "poisoned-line",
            FaultClass::CounterBitFlip => "counter-bit-flip",
            FaultClass::CounterSaturation => "counter-saturation",
            FaultClass::DeviceFailure => "device-failure",
            FaultClass::MigrationCopyFail => "migration-copy-fail",
            FaultClass::DdrPressure => "ddr-pressure",
            FaultClass::ControllerReset => "controller-reset",
            FaultClass::CorrectableEcc => "correctable-ecc",
            FaultClass::LinkDegrade => "link-degrade",
            FaultClass::HotRemove => "hot-remove",
            FaultClass::TornCheckpoint => "torn-checkpoint",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fault command delivered to attached [`crate::controller::CxlDevice`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceFault {
    /// Flip bit `bit` of SRAM counter slot `slot` (devices reduce both
    /// modulo their own geometry).
    SramBitFlip {
        /// Counter slot index (device reduces modulo its SRAM size).
        slot: u64,
        /// Bit position to flip (device reduces modulo its counter width).
        bit: u32,
    },
    /// Saturate every SRAM counter to its maximum value.
    SramSaturate,
    /// Permanent failure: the device stops tracking and serves garbage.
    Fail,
    /// ECC corrected a read of CXL frame `pfn` (a raw frame index the RAS
    /// layer reduces modulo the node's capacity, like `SramBitFlip::slot`).
    /// Routed to [`crate::ras::RasState`], never to snoop devices.
    CorrectableEcc {
        /// Frame index on the CXL node (reduced modulo capacity).
        pfn: u64,
    },
    /// The CXL link retrained to `factor` percent of nominal latency
    /// (`factor >= 100`; 150 means reads take 1.5× as long). Persistent
    /// until the node is retired. Routed to the RAS layer.
    LinkDegrade {
        /// New access latency as a percentage of nominal (>= 100).
        factor: u32,
    },
    /// Orderly hot-remove announcement: the RAS layer must evacuate the
    /// node live and take it offline. Routed to the RAS layer.
    HotRemovePrepare,
}

impl DeviceFault {
    /// The report class of this device fault.
    pub fn class(self) -> FaultClass {
        match self {
            DeviceFault::SramBitFlip { .. } => FaultClass::CounterBitFlip,
            DeviceFault::SramSaturate => FaultClass::CounterSaturation,
            DeviceFault::Fail => FaultClass::DeviceFailure,
            DeviceFault::CorrectableEcc { .. } => FaultClass::CorrectableEcc,
            DeviceFault::LinkDegrade { .. } => FaultClass::LinkDegrade,
            DeviceFault::HotRemovePrepare => FaultClass::HotRemove,
        }
    }

    /// Whether this fault targets the memory device's RAS machinery (and is
    /// therefore delivered to [`crate::ras::RasState`]) rather than the
    /// attached near-memory snoop devices.
    pub fn is_ras(self) -> bool {
        matches!(
            self,
            DeviceFault::CorrectableEcc { .. }
                | DeviceFault::LinkDegrade { .. }
                | DeviceFault::HotRemovePrepare
        )
    }
}

/// What a [`ScheduledFault`] does when it triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Add `extra` to every CXL DRAM access for `duration`.
    LatencySpike {
        /// Additional latency per CXL access while active.
        extra: Nanos,
        /// Window length.
        duration: Nanos,
    },
    /// Drop all snoops for `duration` (devices observe nothing).
    ControllerStall {
        /// Window length.
        duration: Nanos,
    },
    /// Poison the next `reads` CXL miss fills.
    PoisonLine {
        /// Number of subsequent CXL reads that return poison.
        reads: u32,
    },
    /// Deliver a [`DeviceFault`] to every attached device.
    Device(DeviceFault),
    /// Fail the next `attempts` page-migration copies.
    MigrationCopyFail {
        /// Number of subsequent migration attempts that fail.
        attempts: u32,
    },
    /// Make DDR allocations fail for `duration`.
    DdrPressure {
        /// Window length.
        duration: Nanos,
    },
    /// Reset the CXL controller at migration-journal step `at_step` (the
    /// first append whose step counter reaches it after the fault arms):
    /// the in-flight migration dies at exactly that write-ahead boundary
    /// and the engine is fenced until [`crate::system::System::recover`]
    /// runs. Journal-step addressing — rather than a timestamp — is what
    /// lets the crash-point sweep hit *every* transaction state
    /// deterministically.
    ControllerReset {
        /// Journal step index at which the reset strikes.
        at_step: u64,
    },
    /// Tear the next checkpoint commit: the snapshot write crashes after
    /// `at_section` manifest sections have reached disk (an index `>=` the
    /// section count models a crash between the commit renames — the new
    /// snapshot is complete but never promoted into place). Consumed by
    /// the checkpointing harness via
    /// [`FaultInjector::take_torn_checkpoint`].
    TornCheckpoint {
        /// Manifest section index at which the commit is cut short.
        at_section: u64,
    },
}

impl FaultKind {
    /// The report class of this fault.
    pub fn class(self) -> FaultClass {
        match self {
            FaultKind::LatencySpike { .. } => FaultClass::LatencySpike,
            FaultKind::ControllerStall { .. } => FaultClass::ControllerStall,
            FaultKind::PoisonLine { .. } => FaultClass::PoisonedLine,
            FaultKind::Device(d) => d.class(),
            FaultKind::MigrationCopyFail { .. } => FaultClass::MigrationCopyFail,
            FaultKind::DdrPressure { .. } => FaultClass::DdrPressure,
            FaultKind::ControllerReset { .. } => FaultClass::ControllerReset,
            FaultKind::TornCheckpoint { .. } => FaultClass::TornCheckpoint,
        }
    }
}

/// One fault on the schedule: trigger at simulated instant `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Simulated instant at (or after) which the fault triggers.
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// One fault that actually triggered, for the run log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated instant at which the fault armed.
    pub at: Nanos,
    /// Its class.
    pub class: FaultClass,
}

/// A deterministic schedule of faults. Pure data: cloneable, comparable,
/// and reusable across systems.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The empty plan: nothing ever goes wrong. This is the default used by
    /// `System::new`, so fault-free runs are unchanged by this module.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from an explicit schedule (sorted by trigger time; ties keep
    /// insertion order).
    pub fn from_schedule(mut schedule: Vec<ScheduledFault>) -> FaultPlan {
        schedule.sort_by_key(|f| f.at);
        FaultPlan { schedule }
    }

    /// Builder-style: adds one fault and returns the plan.
    pub fn with(mut self, at: Nanos, kind: FaultKind) -> FaultPlan {
        self.schedule.push(ScheduledFault { at, kind });
        self.schedule.sort_by_key(|f| f.at);
        self
    }

    /// A seeded pseudo-random mix of every fault class spread over
    /// `[0, horizon)` — the chaos-harness workhorse. The same `seed` and
    /// `horizon` always produce the same plan.
    pub fn chaos(seed: u64, horizon: Nanos) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4d35_fa17);
        let mut schedule = Vec::new();
        let span = horizon.0.max(8);
        let window = Nanos(span / 20 + 1);
        for class in FaultClass::ALL {
            // Torn checkpoints are harness-level faults: they only matter to
            // runs that actually checkpoint, and scheduling them here would
            // change every existing chaos plan's RNG stream. Skipped before
            // any draw so plans for a given seed are unchanged.
            if class == FaultClass::TornCheckpoint {
                continue;
            }
            for _ in 0..rng.gen_range(1u32..=3) {
                let at = Nanos(rng.gen_range(0..span));
                let kind = match class {
                    FaultClass::LatencySpike => FaultKind::LatencySpike {
                        extra: Nanos(rng.gen_range(100u64..=1_000)),
                        duration: window,
                    },
                    FaultClass::ControllerStall => FaultKind::ControllerStall { duration: window },
                    FaultClass::PoisonedLine => FaultKind::PoisonLine {
                        reads: rng.gen_range(1u32..=4),
                    },
                    FaultClass::CounterBitFlip => FaultKind::Device(DeviceFault::SramBitFlip {
                        slot: rng.gen(),
                        bit: rng.gen_range(0u32..16),
                    }),
                    FaultClass::CounterSaturation => FaultKind::Device(DeviceFault::SramSaturate),
                    FaultClass::DeviceFailure => FaultKind::Device(DeviceFault::Fail),
                    FaultClass::MigrationCopyFail => FaultKind::MigrationCopyFail {
                        attempts: rng.gen_range(1u32..=8),
                    },
                    FaultClass::DdrPressure => FaultKind::DdrPressure { duration: window },
                    FaultClass::ControllerReset => FaultKind::ControllerReset {
                        at_step: rng.gen_range(1u64..=48),
                    },
                    // CE hits are drawn from a small "weak region" so the
                    // same frame can cross the offline threshold within one
                    // campaign — uniformly random frames almost never repeat.
                    FaultClass::CorrectableEcc => FaultKind::Device(DeviceFault::CorrectableEcc {
                        pfn: rng.gen_range(0u64..8),
                    }),
                    FaultClass::LinkDegrade => FaultKind::Device(DeviceFault::LinkDegrade {
                        factor: rng.gen_range(110u32..=300),
                    }),
                    FaultClass::HotRemove => FaultKind::Device(DeviceFault::HotRemovePrepare),
                    // Skipped above before any RNG draw.
                    FaultClass::TornCheckpoint => continue,
                };
                schedule.push(ScheduledFault { at, kind });
            }
        }
        FaultPlan::from_schedule(schedule)
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// The schedule, sorted by trigger time.
    pub fn schedule(&self) -> &[ScheduledFault] {
        &self.schedule
    }
}

/// The runtime that arms [`FaultPlan`] entries as simulated time passes and
/// answers the `System`'s "what is broken right now?" queries.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    schedule: Vec<ScheduledFault>,
    next: usize,
    spike_extra: Nanos,
    spike_until: Nanos,
    stall_until: Nanos,
    pressure_until: Nanos,
    poison_pending: u32,
    copy_fail_pending: u32,
    reset_steps: Vec<u64>,
    torn_sections: Vec<u64>,
    device_queue: Vec<DeviceFault>,
    ras_queue: Vec<DeviceFault>,
    log: Vec<FaultEvent>,
    counts: [u64; FaultClass::ALL.len()],
    poison_repairs: u64,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// An injector that never injects.
    pub fn none() -> FaultInjector {
        FaultInjector::from_plan(&FaultPlan::none())
    }

    /// An injector executing `plan`.
    pub fn from_plan(plan: &FaultPlan) -> FaultInjector {
        FaultInjector {
            schedule: plan.schedule.clone(),
            next: 0,
            spike_extra: Nanos::ZERO,
            spike_until: Nanos::ZERO,
            stall_until: Nanos::ZERO,
            pressure_until: Nanos::ZERO,
            poison_pending: 0,
            copy_fail_pending: 0,
            reset_steps: Vec::new(),
            torn_sections: Vec::new(),
            device_queue: Vec::new(),
            ras_queue: Vec::new(),
            log: Vec::new(),
            counts: [0; FaultClass::ALL.len()],
            poison_repairs: 0,
        }
    }

    /// Arms every scheduled fault whose trigger time has passed. Called by
    /// the `System` on each access and migration; cheap when idle.
    #[inline]
    pub fn poll(&mut self, now: Nanos) {
        while let Some(f) = self.schedule.get(self.next) {
            if f.at > now {
                break;
            }
            let f = *f;
            self.next += 1;
            self.counts[f.kind.class().index()] += 1;
            self.log.push(FaultEvent {
                at: now,
                class: f.kind.class(),
            });
            match f.kind {
                FaultKind::LatencySpike { extra, duration } => {
                    self.spike_extra = self.spike_extra.max(extra);
                    self.spike_until = self.spike_until.max(now + duration);
                }
                FaultKind::ControllerStall { duration } => {
                    self.stall_until = self.stall_until.max(now + duration);
                }
                FaultKind::PoisonLine { reads } => {
                    self.poison_pending += reads;
                }
                FaultKind::Device(d) if d.is_ras() => self.ras_queue.push(d),
                FaultKind::Device(d) => self.device_queue.push(d),
                FaultKind::MigrationCopyFail { attempts } => {
                    self.copy_fail_pending += attempts;
                }
                FaultKind::DdrPressure { duration } => {
                    self.pressure_until = self.pressure_until.max(now + duration);
                }
                FaultKind::ControllerReset { at_step } => {
                    self.reset_steps.push(at_step);
                }
                FaultKind::TornCheckpoint { at_section } => {
                    self.torn_sections.push(at_section);
                }
            }
        }
    }

    /// Whether the injector has nothing armed, queued, or in flight at
    /// `now`: no unfired schedule entries, nothing [`idle`] rules out, and
    /// no armed copy failure, controller reset, or torn checkpoint. Only a
    /// quiescent injector lets [`poll`] be skipped outright, which is what
    /// the `System`'s per-access fault service does on fault-free runs.
    ///
    /// [`idle`]: FaultInjector::idle
    /// [`poll`]: FaultInjector::poll
    #[inline]
    pub fn quiescent(&self, now: Nanos) -> bool {
        self.idle(now)
            && self.next >= self.schedule.len()
            && self.copy_fail_pending == 0
            && self.reset_steps.is_empty()
            && self.torn_sections.is_empty()
    }

    /// Whether nothing a memory access consults or delivers is live at
    /// `now`: no open latency-spike, stall, or DDR-pressure window, no
    /// pending poisoned read, and empty device and RAS queues. Unfired
    /// schedule entries do not count, and neither do armed copy failures,
    /// controller resets, or torn checkpoints: the migration engine and the
    /// checkpoint harness consume those outside the access path.
    ///
    /// An idle injector stays idle until [`poll`] arms the next schedule
    /// entry, so up to [`next_scheduled`] every per-access fault query is
    /// a constant; the batch driver runs that stretch without them.
    ///
    /// [`poll`]: FaultInjector::poll
    /// [`next_scheduled`]: FaultInjector::next_scheduled
    #[inline]
    pub fn idle(&self, now: Nanos) -> bool {
        now >= self.spike_until
            && now >= self.stall_until
            && now >= self.pressure_until
            && self.poison_pending == 0
            && self.device_queue.is_empty()
            && self.ras_queue.is_empty()
    }

    /// The trigger time of the earliest scheduled fault [`poll`] has not
    /// yet armed, or `None` when the schedule is exhausted. An [`idle`]
    /// injector cannot open a window, queue a device or RAS fault, or arm
    /// a poisoned read before this instant, so it bounds the stretch the
    /// batch driver runs without per-access fault checks.
    ///
    /// [`poll`]: FaultInjector::poll
    /// [`idle`]: FaultInjector::idle
    #[inline]
    pub fn next_scheduled(&self) -> Option<Nanos> {
        self.schedule.get(self.next).map(|f| f.at)
    }

    /// Extra latency added to a CXL access at `now` (zero outside spikes).
    #[inline]
    pub fn cxl_extra_latency(&self, now: Nanos) -> Nanos {
        if now < self.spike_until {
            self.spike_extra
        } else {
            Nanos::ZERO
        }
    }

    /// Whether the controller is stalled (snoops dropped) at `now`.
    #[inline]
    pub fn controller_stalled(&self, now: Nanos) -> bool {
        now < self.stall_until
    }

    /// How much longer the current controller stall lasts at `now` (zero
    /// when no stall is active). The migration watchdog compares this to
    /// its deadline to decide between waiting out the stall and rolling
    /// the transaction back.
    pub fn stall_remaining(&self, now: Nanos) -> Nanos {
        if now < self.stall_until {
            Nanos(self.stall_until.0 - now.0)
        } else {
            Nanos::ZERO
        }
    }

    /// Consumes the controller reset armed for the lowest journal step
    /// index `<= step`, if any. Called by the `System` immediately after
    /// each journal append; `step` is the post-append step counter.
    pub fn take_reset(&mut self, step: u64) -> bool {
        let due = self
            .reset_steps
            .iter()
            .enumerate()
            .filter(|(_, &s)| s <= step)
            .min_by_key(|(_, &s)| s)
            .map(|(i, _)| i);
        match due {
            Some(i) => {
                self.reset_steps.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Whether any armed controller reset has not yet struck.
    pub fn reset_pending(&self) -> bool {
        !self.reset_steps.is_empty()
    }

    /// Consumes the next armed torn-checkpoint fault, if any, returning the
    /// manifest section index at which the commit must be cut short. Called
    /// by the checkpointing harness immediately before each commit.
    pub fn take_torn_checkpoint(&mut self) -> Option<u64> {
        if self.torn_sections.is_empty() {
            None
        } else {
            Some(self.torn_sections.remove(0))
        }
    }

    /// Whether an armed torn-checkpoint fault has not yet been consumed.
    pub fn torn_checkpoint_pending(&self) -> bool {
        !self.torn_sections.is_empty()
    }

    /// Whether DDR allocations are artificially failing at `now`.
    pub fn ddr_pressure(&self, now: Nanos) -> bool {
        now < self.pressure_until
    }

    /// Consumes one pending poisoned read, if armed.
    pub fn take_poisoned_read(&mut self) -> bool {
        if self.poison_pending > 0 {
            self.poison_pending -= 1;
            true
        } else {
            false
        }
    }

    /// Consumes one pending migration copy failure, if armed.
    pub fn take_copy_failure(&mut self) -> bool {
        if self.copy_fail_pending > 0 {
            self.copy_fail_pending -= 1;
            true
        } else {
            false
        }
    }

    /// Pops the next queued device fault for controller delivery.
    #[inline]
    pub fn pop_device_fault(&mut self) -> Option<DeviceFault> {
        if self.device_queue.is_empty() {
            None
        } else {
            Some(self.device_queue.remove(0))
        }
    }

    /// Pops the next queued RAS fault ([`DeviceFault::is_ras`]) for
    /// delivery to the memory device's [`crate::ras::RasState`].
    #[inline]
    pub fn pop_ras_fault(&mut self) -> Option<DeviceFault> {
        if self.ras_queue.is_empty() {
            None
        } else {
            Some(self.ras_queue.remove(0))
        }
    }

    /// Records one poisoned line recovered by memory-failure handling.
    pub fn note_poison_repaired(&mut self) {
        self.poison_repairs += 1;
    }

    /// Poisoned lines recovered so far.
    pub fn poison_repairs(&self) -> u64 {
        self.poison_repairs
    }

    /// Every fault that has armed so far, in arming order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Total faults armed so far.
    pub fn injected_total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Faults of `class` armed so far.
    pub fn count_of(&self, class: FaultClass) -> u64 {
        self.counts[class.index()]
    }

    /// Serializes the injector's dynamic state for a checkpoint. The
    /// schedule itself is not written — it is pure plan data the restoring
    /// process supplies again — only the arming cursor and everything armed
    /// but not yet consumed.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64(self.next as u64);
        w.put_u64(self.spike_extra.0);
        w.put_u64(self.spike_until.0);
        w.put_u64(self.stall_until.0);
        w.put_u64(self.pressure_until.0);
        w.put_u32(self.poison_pending);
        w.put_u32(self.copy_fail_pending);
        w.put_u64_slice(&self.reset_steps);
        w.put_u64_slice(&self.torn_sections);
        w.put_u64(self.device_queue.len() as u64);
        for d in &self.device_queue {
            save_device_fault(*d, w);
        }
        w.put_u64(self.ras_queue.len() as u64);
        for d in &self.ras_queue {
            save_device_fault(*d, w);
        }
        w.put_u64(self.log.len() as u64);
        for e in &self.log {
            w.put_u64(e.at.0);
            w.put_u64(e.class.index() as u64);
        }
        for c in &self.counts {
            w.put_u64(*c);
        }
        w.put_u64(self.poison_repairs);
    }

    /// Rebuilds an injector executing `plan` from a checkpoint section.
    /// The supplied plan must be the one the checkpointed run used; the
    /// arming cursor is validated against its length.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, or a
    /// cursor past the end of `plan`.
    pub fn restore(
        plan: &FaultPlan,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<FaultInjector, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let mut inj = FaultInjector::from_plan(plan);
        let next = r.get_u64()?;
        if next as usize > inj.schedule.len() {
            return Err(CodecError::BadValue {
                what: "fault-injector schedule cursor",
                value: next,
            });
        }
        inj.next = next as usize;
        inj.spike_extra = Nanos(r.get_u64()?);
        inj.spike_until = Nanos(r.get_u64()?);
        inj.stall_until = Nanos(r.get_u64()?);
        inj.pressure_until = Nanos(r.get_u64()?);
        inj.poison_pending = r.get_u32()?;
        inj.copy_fail_pending = r.get_u32()?;
        inj.reset_steps = r.get_u64_vec()?;
        inj.torn_sections = r.get_u64_vec()?;
        let n_dev = r.get_u64()?;
        for _ in 0..n_dev {
            inj.device_queue.push(restore_device_fault(r)?);
        }
        let n_ras = r.get_u64()?;
        for _ in 0..n_ras {
            inj.ras_queue.push(restore_device_fault(r)?);
        }
        let n_log = r.get_u64()?;
        for _ in 0..n_log {
            let at = Nanos(r.get_u64()?);
            let idx = r.get_u64()?;
            let class = FaultClass::from_index(idx).ok_or(CodecError::BadValue {
                what: "fault-event class",
                value: idx,
            })?;
            inj.log.push(FaultEvent { at, class });
        }
        for c in &mut inj.counts {
            *c = r.get_u64()?;
        }
        inj.poison_repairs = r.get_u64()?;
        Ok(inj)
    }
}

fn save_device_fault(d: DeviceFault, w: &mut crate::checkpoint::StateWriter) {
    match d {
        DeviceFault::SramBitFlip { slot, bit } => {
            w.put_u8(0);
            w.put_u64(slot);
            w.put_u32(bit);
        }
        DeviceFault::SramSaturate => w.put_u8(1),
        DeviceFault::Fail => w.put_u8(2),
        DeviceFault::CorrectableEcc { pfn } => {
            w.put_u8(3);
            w.put_u64(pfn);
        }
        DeviceFault::LinkDegrade { factor } => {
            w.put_u8(4);
            w.put_u32(factor);
        }
        DeviceFault::HotRemovePrepare => w.put_u8(5),
    }
}

fn restore_device_fault(
    r: &mut crate::checkpoint::StateReader<'_>,
) -> Result<DeviceFault, crate::checkpoint::CodecError> {
    let tag = r.get_u8()?;
    Ok(match tag {
        0 => DeviceFault::SramBitFlip {
            slot: r.get_u64()?,
            bit: r.get_u32()?,
        },
        1 => DeviceFault::SramSaturate,
        2 => DeviceFault::Fail,
        3 => DeviceFault::CorrectableEcc { pfn: r.get_u64()? },
        4 => DeviceFault::LinkDegrade {
            factor: r.get_u32()?,
        },
        5 => DeviceFault::HotRemovePrepare,
        t => {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "device-fault tag",
                value: t as u64,
            })
        }
    })
}

/// Unified simulator error taxonomy: things that can go wrong on the hot
/// paths and are *recoverable* by the caller (as opposed to invariant
/// violations, which remain `debug_assert!`s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An access touched an address no region maps.
    Unmapped(VirtAddr),
    /// A page migration failed.
    Migrate(MigrateError),
    /// A frame allocation failed.
    OutOfFrames(OutOfFrames),
    /// An allocation targeted a node the RAS layer has taken offline.
    NodeOffline(crate::memory::NodeId),
    /// No node in the tier can absorb the request: the survivor's free
    /// list is exhausted (e.g. mid-evacuation drain with a full fast tier).
    CapacityExhausted(crate::memory::NodeId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unmapped(a) => write!(f, "access to unmapped address {a:?}"),
            SimError::Migrate(e) => write!(f, "migration failed: {e}"),
            SimError::OutOfFrames(e) => write!(f, "allocation failed: {e}"),
            SimError::NodeOffline(n) => write!(f, "allocation on offline node {}", n.label()),
            SimError::CapacityExhausted(n) => {
                write!(f, "capacity exhausted on survivor node {}", n.label())
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Migrate(e) => Some(e),
            SimError::OutOfFrames(e) => Some(e),
            SimError::Unmapped(_) | SimError::NodeOffline(_) | SimError::CapacityExhausted(_) => {
                None
            }
        }
    }
}

impl From<MigrateError> for SimError {
    fn from(e: MigrateError) -> SimError {
        SimError::Migrate(e)
    }
}

impl From<OutOfFrames> for SimError {
    fn from(e: OutOfFrames) -> SimError {
        SimError::OutOfFrames(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_arms() {
        let mut inj = FaultInjector::none();
        inj.poll(Nanos::from_secs(10));
        assert_eq!(inj.injected_total(), 0);
        assert!(inj.log().is_empty());
        assert_eq!(inj.cxl_extra_latency(Nanos(5)), Nanos::ZERO);
        assert!(!inj.controller_stalled(Nanos(5)));
        assert!(!inj.ddr_pressure(Nanos(5)));
        assert!(!inj.take_poisoned_read());
        assert!(!inj.take_copy_failure());
        assert!(inj.pop_device_fault().is_none());
    }

    #[test]
    fn windows_open_and_close_on_the_simulated_clock() {
        let plan = FaultPlan::none()
            .with(
                Nanos(100),
                FaultKind::LatencySpike {
                    extra: Nanos(500),
                    duration: Nanos(50),
                },
            )
            .with(
                Nanos(100),
                FaultKind::ControllerStall {
                    duration: Nanos(30),
                },
            )
            .with(
                Nanos(100),
                FaultKind::DdrPressure {
                    duration: Nanos(70),
                },
            );
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(99));
        assert_eq!(inj.injected_total(), 0, "nothing due yet");
        inj.poll(Nanos(100));
        assert_eq!(inj.injected_total(), 3);
        assert_eq!(inj.cxl_extra_latency(Nanos(120)), Nanos(500));
        assert!(inj.controller_stalled(Nanos(120)));
        assert!(inj.ddr_pressure(Nanos(120)));
        // Windows close independently.
        assert!(!inj.controller_stalled(Nanos(130)));
        assert_eq!(inj.cxl_extra_latency(Nanos(150)), Nanos::ZERO);
        assert!(inj.ddr_pressure(Nanos(169)));
        assert!(!inj.ddr_pressure(Nanos(170)));
    }

    #[test]
    fn one_shot_faults_are_consumed() {
        let plan = FaultPlan::none()
            .with(Nanos::ZERO, FaultKind::PoisonLine { reads: 2 })
            .with(Nanos::ZERO, FaultKind::MigrationCopyFail { attempts: 1 })
            .with(Nanos::ZERO, FaultKind::Device(DeviceFault::Fail));
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos::ZERO);
        assert!(inj.take_poisoned_read());
        assert!(inj.take_poisoned_read());
        assert!(!inj.take_poisoned_read());
        assert!(inj.take_copy_failure());
        assert!(!inj.take_copy_failure());
        assert_eq!(inj.pop_device_fault(), Some(DeviceFault::Fail));
        assert!(inj.pop_device_fault().is_none());
        assert_eq!(inj.count_of(FaultClass::PoisonedLine), 1);
        assert_eq!(inj.count_of(FaultClass::DeviceFailure), 1);
    }

    #[test]
    fn chaos_plans_are_seed_deterministic_and_cover_all_classes() {
        let a = FaultPlan::chaos(7, Nanos::from_millis(10));
        let b = FaultPlan::chaos(7, Nanos::from_millis(10));
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::chaos(8, Nanos::from_millis(10));
        assert_ne!(a, c, "different seed, different plan");
        for class in FaultClass::ALL {
            if class == FaultClass::TornCheckpoint {
                // Harness-level fault: excluded from chaos plans so seeded
                // plans predating it are byte-identical.
                assert!(
                    !a.schedule().iter().any(|f| f.kind.class() == class),
                    "chaos plans must not schedule torn checkpoints"
                );
                continue;
            }
            assert!(
                a.schedule().iter().any(|f| f.kind.class() == class),
                "chaos plan misses {class}"
            );
        }
        // Sorted by trigger time.
        assert!(a.schedule().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn torn_checkpoints_arm_and_consume_in_order() {
        let plan = FaultPlan::none()
            .with(Nanos(10), FaultKind::TornCheckpoint { at_section: 3 })
            .with(Nanos(20), FaultKind::TornCheckpoint { at_section: 0 });
        let mut inj = FaultInjector::from_plan(&plan);
        assert!(inj.take_torn_checkpoint().is_none());
        inj.poll(Nanos(10));
        assert!(inj.torn_checkpoint_pending());
        assert!(!inj.quiescent(Nanos(15)));
        assert_eq!(inj.take_torn_checkpoint(), Some(3));
        assert!(inj.take_torn_checkpoint().is_none());
        inj.poll(Nanos(25));
        assert_eq!(inj.take_torn_checkpoint(), Some(0));
        assert!(!inj.torn_checkpoint_pending());
        assert!(inj.quiescent(Nanos(25)));
        assert_eq!(inj.count_of(FaultClass::TornCheckpoint), 2);
    }

    #[test]
    fn idle_ignores_faults_consumed_outside_the_access_path() {
        let plan = FaultPlan::none()
            .with(Nanos(10), FaultKind::MigrationCopyFail { attempts: 1 })
            .with(Nanos(10), FaultKind::ControllerReset { at_step: 3 })
            .with(Nanos(10), FaultKind::TornCheckpoint { at_section: 1 })
            .with(Nanos(30), FaultKind::PoisonLine { reads: 1 })
            .with(
                Nanos(50),
                FaultKind::LatencySpike {
                    extra: Nanos(5),
                    duration: Nanos(10),
                },
            )
            .with(
                Nanos(70),
                FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 1 }),
            );
        let mut inj = FaultInjector::from_plan(&plan);
        assert!(inj.idle(Nanos(0)) && !inj.quiescent(Nanos(0)));
        assert_eq!(inj.next_scheduled(), Some(Nanos(10)));
        inj.poll(Nanos(10));
        assert!(
            inj.idle(Nanos(10)),
            "copy-fail/reset/torn stay off the access path"
        );
        assert!(!inj.quiescent(Nanos(10)));
        assert_eq!(inj.next_scheduled(), Some(Nanos(30)));
        inj.poll(Nanos(30));
        assert!(!inj.idle(Nanos(30)), "a pending poisoned read is live");
        assert!(inj.take_poisoned_read());
        assert!(inj.idle(Nanos(30)));
        inj.poll(Nanos(50));
        assert!(!inj.idle(Nanos(59)), "inside the spike window");
        assert!(inj.idle(Nanos(60)));
        inj.poll(Nanos(70));
        assert!(!inj.idle(Nanos(70)), "a queued RAS fault awaits delivery");
        assert!(inj.pop_ras_fault().is_some());
        assert!(inj.idle(Nanos(70)));
        assert_eq!(inj.next_scheduled(), None);
    }

    #[test]
    fn injector_checkpoint_roundtrip_preserves_armed_state() {
        let plan = FaultPlan::none()
            .with(
                Nanos(50),
                FaultKind::LatencySpike {
                    extra: Nanos(700),
                    duration: Nanos(100),
                },
            )
            .with(Nanos(50), FaultKind::PoisonLine { reads: 3 })
            .with(Nanos(60), FaultKind::ControllerReset { at_step: 9 })
            .with(
                Nanos(60),
                FaultKind::Device(DeviceFault::SramBitFlip { slot: 12, bit: 5 }),
            )
            .with(
                Nanos(60),
                FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 4 }),
            )
            .with(Nanos(70), FaultKind::TornCheckpoint { at_section: 2 })
            .with(Nanos(500), FaultKind::Device(DeviceFault::Fail));
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(80));
        inj.note_poison_repaired();
        assert!(inj.take_poisoned_read());

        let mut w = crate::checkpoint::StateWriter::new();
        inj.save(&mut w);
        let bytes = w.finish();
        let mut r = crate::checkpoint::StateReader::new(&bytes);
        let restored = FaultInjector::restore(&plan, &mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(format!("{inj:?}"), format!("{restored:?}"));
        // The unfired schedule entry still arms after restore.
        let mut restored = restored;
        restored.poll(Nanos(500));
        assert_eq!(
            restored.pop_device_fault(),
            Some(DeviceFault::SramBitFlip { slot: 12, bit: 5 })
        );
        assert_eq!(restored.pop_device_fault(), Some(DeviceFault::Fail));
        assert_eq!(restored.take_torn_checkpoint(), Some(2));
        assert!(restored.take_reset(9));
    }

    #[test]
    fn injector_restore_rejects_cursor_past_schedule() {
        let plan = FaultPlan::none().with(Nanos(1), FaultKind::PoisonLine { reads: 1 });
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(5));
        let mut w = crate::checkpoint::StateWriter::new();
        inj.save(&mut w);
        let bytes = w.finish();
        // Restoring against the empty plan: cursor 1 > schedule length 0.
        let mut r = crate::checkpoint::StateReader::new(&bytes);
        let err = FaultInjector::restore(&FaultPlan::none(), &mut r).unwrap_err();
        assert!(matches!(
            err,
            crate::checkpoint::CodecError::BadValue {
                what: "fault-injector schedule cursor",
                ..
            }
        ));
    }

    #[test]
    fn controller_resets_fire_at_journal_steps() {
        let plan = FaultPlan::none()
            .with(Nanos::ZERO, FaultKind::ControllerReset { at_step: 3 })
            .with(Nanos::ZERO, FaultKind::ControllerReset { at_step: 7 });
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos::ZERO);
        assert_eq!(inj.count_of(FaultClass::ControllerReset), 2);
        assert!(inj.reset_pending());
        assert!(!inj.take_reset(2), "step 2 is before both resets");
        assert!(inj.take_reset(5), "step 5 consumes the step-3 reset");
        assert!(inj.reset_pending());
        assert!(!inj.take_reset(5));
        assert!(inj.take_reset(7));
        assert!(!inj.reset_pending());
        assert!(!inj.take_reset(100));
    }

    #[test]
    fn stall_remaining_tracks_the_window() {
        let plan = FaultPlan::none().with(
            Nanos(100),
            FaultKind::ControllerStall {
                duration: Nanos(40),
            },
        );
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(100));
        assert_eq!(inj.stall_remaining(Nanos(110)), Nanos(30));
        assert_eq!(inj.stall_remaining(Nanos(140)), Nanos::ZERO);
        assert_eq!(inj.stall_remaining(Nanos(90)), Nanos(50));
    }

    #[test]
    fn sim_error_displays_and_chains() {
        let e = SimError::from(MigrateError::Pinned);
        assert!(e.to_string().contains("migration failed"));
        assert!(std::error::Error::source(&e).is_some());
        let u = SimError::Unmapped(VirtAddr(0x1000));
        assert!(std::error::Error::source(&u).is_none());
        let o = SimError::from(OutOfFrames {
            node: crate::memory::NodeId::Ddr,
        });
        assert!(o.to_string().contains("allocation failed"));
    }

    #[test]
    fn overlapping_spikes_take_the_max() {
        let plan = FaultPlan::none()
            .with(
                Nanos(0),
                FaultKind::LatencySpike {
                    extra: Nanos(200),
                    duration: Nanos(100),
                },
            )
            .with(
                Nanos(10),
                FaultKind::LatencySpike {
                    extra: Nanos(900),
                    duration: Nanos(20),
                },
            );
        let mut inj = FaultInjector::from_plan(&plan);
        inj.poll(Nanos(10));
        assert_eq!(inj.cxl_extra_latency(Nanos(15)), Nanos(900));
        assert_eq!(inj.count_of(FaultClass::LatencySpike), 2);
    }
}
