//! The four benchmark workloads and the single-threaded pipeline that
//! drives them.
//!
//! Every workload is built through the simulator's public API: the
//! machine from `m5_bench::standard_system*`, the trace from
//! `WorkloadSpec::build(.., seed)`, and the run from `ChunkedRun`'s
//! `begin` / `drive` / `finish` with [`DEFAULT_CHUNK_ACCESSES`] — the
//! schedule of `cxl_sim::system::run`, so a run here reports exactly what
//! `run` would. The daemon and the trace are wrapped in thin forwarding
//! types ([`Traced`], [`TracedStream`]) that open one span per call when
//! a [`Tracer`] is recording and otherwise only forward.

use crate::canary::Canary;
use crate::spans::Tracer;
use cxl_sim::chunk::AccessChunk;
use cxl_sim::faults::{DeviceFault, FaultKind, FaultPlan};
use cxl_sim::kernel::CostKind;
use cxl_sim::prelude::*;
use cxl_sim::report::LatencyHistogram;
use cxl_sim::system::{ChunkedRun, Region, DEFAULT_CHUNK_ACCESSES};
use m5_baselines::anb::{Anb, AnbConfig};
use m5_bench::checkpoint::StreamCheckpoint;
use m5_core::manager::{M5Config, M5Manager};
use m5_workloads::access::ReplayWorkload;
use m5_workloads::graph::{self, CsrGraph, GapKernel, GraphLayout};
use m5_workloads::registry::{Benchmark, WorkloadSpec};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GAP PageRank under M5, telemetry off.
    PrM5,
    /// Redis (Zipf keys, op markers) under M5 with telemetry on.
    RedisM5,
    /// mcf under ANB (NUMA hinting faults).
    McfAnb,
    /// roms under M5 on a contended link with a RAS fault plan and
    /// periodic run checkpoints.
    RomsM5Ras,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PrM5,
        Workload::RedisM5,
        Workload::McfAnb,
        Workload::RomsM5Ras,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrM5 => "pr_m5",
            Workload::RedisM5 => "redis_m5",
            Workload::McfAnb => "mcf_anb",
            Workload::RomsM5Ras => "roms_m5_ras",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Accesses simulated per repetition: about half a host second each,
    /// a multiple of the chunk size.
    pub fn budget(self) -> u64 {
        let chunks = match self {
            Workload::PrM5 => 2048,
            Workload::RedisM5 => 1024,
            Workload::McfAnb => 1536,
            Workload::RomsM5Ras => 1024,
        };
        chunks * DEFAULT_CHUNK_ACCESSES as u64
    }

    fn benchmark(self) -> Benchmark {
        match self {
            Workload::PrM5 => Benchmark::Pr,
            Workload::RedisM5 => Benchmark::Redis,
            Workload::McfAnb => Benchmark::Mcf,
            Workload::RomsM5Ras => Benchmark::Roms,
        }
    }

    /// Whether the trace carries op markers (the Redis YCSB ops).
    fn has_ops(self) -> bool {
        self == Workload::RedisM5
    }

    /// Run checkpoints captured and committed per repetition.
    fn checkpoints(self) -> u64 {
        match self {
            Workload::RomsM5Ras => 4,
            _ => 0,
        }
    }
}

/// Chunks between two canary bursts: the bursts take about 3 % of the
/// run phase.
const CANARY_EVERY: usize = 32;

/// Offered CXL background load on `roms_m5_ras`, as a fraction of the
/// link's peak: past the loaded-latency knee.
const ROMS_BACKGROUND: f64 = 0.75;

/// The fixed RAS fault plan of `roms_m5_ras`, spread over the first
/// three simulated seconds of the workload's run (about 3.3 s): a
/// correctable-error burst on one frame, poisoned reads, one controller
/// reset, a link degrade, and migration copy failures. No hot-remove, so
/// no page leaves the region.
fn roms_fault_plan() -> FaultPlan {
    let ms = Nanos::from_millis;
    let mut plan = FaultPlan::none();
    for i in 0..6 {
        plan = plan.with(
            ms(200 + 50 * i),
            FaultKind::Device(DeviceFault::CorrectableEcc { pfn: 5 }),
        );
    }
    plan.with(ms(500), FaultKind::PoisonLine { reads: 4 })
        .with(ms(2_000), FaultKind::PoisonLine { reads: 4 })
        .with(ms(800), FaultKind::MigrationCopyFail { attempts: 4 })
        .with(ms(1_000), FaultKind::ControllerReset { at_step: 6 })
        .with(
            ms(1_500),
            FaultKind::Device(DeviceFault::LinkDegrade { factor: 150 }),
        )
        .with(ms(2_500), FaultKind::MigrationCopyFail { attempts: 4 })
}

/// The migration policy under test.
// One per run, built once in set-up: the variant size does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Policy {
    /// The M5 manager with its default configuration.
    M5(M5Manager),
    /// Linux automatic NUMA balancing.
    Anb(Anb),
}

impl MigrationDaemon for Policy {
    fn name(&self) -> &str {
        match self {
            Policy::M5(d) => d.name(),
            Policy::Anb(d) => d.name(),
        }
    }

    fn on_start(&mut self, sys: &mut System) {
        match self {
            Policy::M5(d) => d.on_start(sys),
            Policy::Anb(d) => d.on_start(sys),
        }
    }

    fn next_wake(&self) -> Option<Nanos> {
        match self {
            Policy::M5(d) => d.next_wake(),
            Policy::Anb(d) => d.next_wake(),
        }
    }

    fn on_tick(&mut self, sys: &mut System) {
        match self {
            Policy::M5(d) => d.on_tick(sys),
            Policy::Anb(d) => d.on_tick(sys),
        }
    }

    fn on_fault(&mut self, vpn: Vpn, sys: &mut System) {
        match self {
            Policy::M5(d) => d.on_fault(vpn, sys),
            Policy::Anb(d) => d.on_fault(vpn, sys),
        }
    }
}

/// Forwards every [`MigrationDaemon`] call to `inner`, opening an
/// `on_tick` / `on_fault` span around the callbacks and counting them.
#[derive(Debug)]
pub struct Traced<D> {
    /// The wrapped daemon.
    pub inner: D,
    tracer: Tracer,
    /// `on_tick` calls delivered.
    pub ticks: u64,
    /// `on_fault` calls delivered.
    pub faults: u64,
    /// Ticks that began with a fenced migration engine (a controller
    /// reset) and left it recovered.
    pub recoveries: u64,
}

impl<D> Traced<D> {
    /// Wraps `inner`.
    pub fn new(inner: D, tracer: Tracer) -> Traced<D> {
        Traced {
            inner,
            tracer,
            ticks: 0,
            faults: 0,
            recoveries: 0,
        }
    }
}

impl<D: MigrationDaemon> MigrationDaemon for Traced<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, sys: &mut System) {
        self.inner.on_start(sys);
    }

    fn next_wake(&self) -> Option<Nanos> {
        self.inner.next_wake()
    }

    fn on_tick(&mut self, sys: &mut System) {
        let fenced = sys.needs_recovery();
        self.tracer.span("on_tick", || self.inner.on_tick(sys));
        self.ticks += 1;
        if fenced && !sys.needs_recovery() {
            self.recoveries += 1;
        }
    }

    fn on_fault(&mut self, vpn: Vpn, sys: &mut System) {
        self.tracer
            .span("on_fault", || self.inner.on_fault(vpn, sys));
        self.faults += 1;
    }
}

/// Forwards every [`AccessStream`] call to `inner`, opening a
/// `fill_chunk` span around chunk generation.
#[derive(Debug)]
pub struct TracedStream<W> {
    /// The wrapped stream.
    pub inner: W,
    tracer: Tracer,
}

impl<W> TracedStream<W> {
    /// Wraps `inner`.
    pub fn new(inner: W, tracer: Tracer) -> TracedStream<W> {
        TracedStream { inner, tracer }
    }
}

impl<W: AccessStream> AccessStream for TracedStream<W> {
    fn next_access(&mut self) -> Option<cxl_sim::system::Access> {
        self.inner.next_access()
    }

    fn fill_chunk(&mut self, chunk: &mut AccessChunk) -> usize {
        self.tracer
            .span("fill_chunk", || self.inner.fill_chunk(chunk))
    }
}

impl<W: StreamCheckpoint> StreamCheckpoint for TracedStream<W> {
    fn save_cursor(&self, w: &mut cxl_sim::checkpoint::StateWriter) {
        self.inner.save_cursor(w);
    }

    fn load_cursor(
        &mut self,
        r: &mut cxl_sim::checkpoint::StateReader<'_>,
    ) -> Result<(), cxl_sim::checkpoint::CodecError> {
        self.inner.load_cursor(r)
    }
}

/// A machine, trace and policy ready to run.
pub struct Prepared {
    /// The machine.
    pub sys: System,
    /// The workload's region.
    pub region: Region,
    /// The generated trace.
    pub trace: TracedStream<ReplayWorkload>,
    /// The policy.
    pub daemon: Traced<Policy>,
    /// Host seconds spent building all of the above.
    pub setup_s: f64,
    /// Host milliseconds of that spent generating the input graph (on
    /// `pr_m5`) and the trace.
    pub build_ms: f64,
}

/// Seed of the registry's social graph (an R-MAT graph of scale 17 and
/// average degree 16). `pr_m5` generates the same kind of graph from
/// this seed XOR the benchmark seed: the registry's PageRank trace does
/// not depend on its seed, so the graph is what the seed varies. Seed 0
/// reproduces the registry's graph.
const SOCIAL_GRAPH_SEED: u64 = 0x50c1a1;

/// Builds the machine, generates a `budget`-access trace from `seed` and
/// allocates the region (all pages on CXL, caches empty). The trace and
/// the policy report their calls to `tracer`.
pub fn prepare(w: Workload, seed: u64, budget: u64, tracer: &Tracer) -> Prepared {
    let t0 = Instant::now();
    let graph = (w == Workload::PrM5).then(|| CsrGraph::rmat(17, 16, SOCIAL_GRAPH_SEED ^ seed));
    let mut build = t0.elapsed();
    let spec = match &graph {
        Some(g) => WorkloadSpec {
            benchmark: Benchmark::Pr,
            footprint_pages: GraphLayout::for_graph(g).total_pages,
        },
        None => w.benchmark().spec(),
    };
    let (mut sys, region) = match w {
        Workload::RomsM5Ras => m5_bench::standard_contended_system_with_faults(
            &spec,
            &roms_fault_plan(),
            ROMS_BACKGROUND,
        ),
        _ => m5_bench::standard_system(&spec),
    };
    if matches!(w, Workload::RedisM5 | Workload::RomsM5Ras) {
        sys.install_telemetry(Telemetry::enabled());
    }
    let policy = match w {
        Workload::McfAnb => Policy::Anb(Anb::new(AnbConfig::default())),
        _ => Policy::M5(M5Manager::new(M5Config::default())),
    };
    let t1 = Instant::now();
    let trace = match &graph {
        Some(g) => graph::generate(GapKernel::Pr, g, region.base, budget, seed),
        None => spec.build(region.base, budget, seed),
    };
    build += t1.elapsed();
    Prepared {
        sys,
        region,
        trace: TracedStream::new(trace, tracer.clone()),
        daemon: Traced::new(policy, tracer.clone()),
        setup_s: t0.elapsed().as_secs_f64(),
        build_ms: build.as_secs_f64() * 1e3,
    }
}

/// What one pass through the pipeline produced.
pub struct Execution {
    /// The run report, as `cxl_sim::system::run` would return it.
    pub report: RunReport,
    /// Host seconds of the run phase (begin through finish), less the
    /// canary bursts.
    pub run_s: f64,
    /// The canary's rate over the run phase (see [`Canary`]).
    pub canary_mops: f64,
    /// Simulated nanoseconds each chunk took.
    pub chunk_sim_ns: Vec<u64>,
    /// Mean over chunk boundaries of CXL loaded / unloaded latency.
    pub cxl_congestion: f64,
    /// Daemon callbacks delivered.
    pub ticks: u64,
    /// Hinting faults delivered to the daemon.
    pub faults: u64,
    /// Fenced engines recovered by a tick.
    pub recoveries: u64,
    /// Epochs in which M5's elector chose to migrate.
    pub migrate_epochs: u64,
    /// Pages M5's promoter gave up on.
    pub promoter_gave_up: u64,
    /// Checkpoints captured.
    pub captures: u64,
    /// Encoded bytes of the last checkpoint.
    pub ckpt_bytes: u64,
    /// Commits that returned an error.
    pub commit_errors: u64,
}

/// Runs `p` for `budget` accesses, opening spans on `tracer`. Run
/// checkpoints of the workloads that take them are committed under
/// `ckpt_dir`.
pub fn execute(
    w: Workload,
    p: &mut Prepared,
    budget: u64,
    tracer: &Tracer,
    ckpt_dir: &Path,
) -> Execution {
    let ckpt_every = match w.checkpoints() {
        0 => u64::MAX,
        n => budget / n,
    };
    let ckpt_path = ckpt_dir.join("run.ckpt");
    let Prepared {
        sys, trace, daemon, ..
    } = p;
    let unloaded = sys.config().cxl.access_latency.0 as f64;
    let mut chunk = AccessChunk::with_capacity(DEFAULT_CHUNK_ACCESSES);
    let mut chunk_sim_ns =
        Vec::with_capacity(budget.div_ceil(DEFAULT_CHUNK_ACCESSES as u64) as usize);
    let mut congestion = 0.0;
    let mut last_cp = None;
    let (mut captures, mut commit_errors) = (0, 0);
    let mut next_ckpt = ckpt_every;

    let mut canary = Canary::new();
    let t0 = Instant::now();
    let mut run = tracer.span("begin", || ChunkedRun::begin(sys, daemon));
    while run.accesses() < budget {
        chunk.clear();
        let left = budget - run.accesses();
        chunk.set_limit(left.min(chunk.capacity() as u64) as usize);
        if trace.fill_chunk(&mut chunk) == 0 {
            break;
        }
        if chunk_sim_ns.len() % CANARY_EVERY == 0 {
            canary.burst();
        }
        let before = sys.now();
        tracer.span("drive", || run.drive(sys, daemon, &chunk, budget));
        chunk_sim_ns.push((sys.now() - before).0);
        congestion += sys.loaded_latency(NodeId::Cxl).0 as f64 / unloaded;
        if run.accesses() >= next_ckpt {
            next_ckpt += ckpt_every;
            if let Policy::M5(m5) = &daemon.inner {
                let cp = tracer.span("capture", || {
                    m5_bench::checkpoint::capture(sys, m5, &run, trace)
                });
                captures += 1;
                let committed = tracer.span("commit", || {
                    m5_bench::checkpoint::commit(sys, &cp, &ckpt_path)
                });
                commit_errors += u64::from(committed.is_err());
                last_cp = Some(cp);
            }
        }
    }
    let report = tracer.span("finish", || run.finish(sys, daemon));
    let run_s = t0.elapsed().as_secs_f64() - canary.secs();

    let (migrate_epochs, promoter_gave_up) = match &daemon.inner {
        Policy::M5(m5) => (m5.migrate_epochs(), m5.promoter_stats().gave_up),
        Policy::Anb(_) => (0, 0),
    };
    let n_chunks = chunk_sim_ns.len().max(1) as f64;
    Execution {
        report,
        run_s,
        canary_mops: canary.mops(),
        chunk_sim_ns,
        cxl_congestion: congestion / n_chunks,
        ticks: daemon.ticks,
        faults: daemon.faults,
        recoveries: daemon.recoveries,
        migrate_epochs,
        promoter_gave_up,
        captures,
        ckpt_bytes: last_cp.map_or(0, |cp| cp.encode().len() as u64),
        commit_errors,
    }
}

/// The output checks. Each entry counts failed operations of one kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Audit {
    /// Accesses of the budget that did not execute.
    pub unexecuted: u64,
    /// `check_invariants` violations.
    pub invariant_violations: u64,
    /// Region pages with no mapping.
    pub pages_lost: u64,
    /// Region pages sharing a frame with another region page, plus one
    /// if the two nodes' page counts do not add up to the region.
    pub pages_double_mapped: u64,
    /// Failed commits, plus one if the last committed image does not
    /// load back.
    pub commit_failures: u64,
    /// The violation messages, for the log.
    pub messages: Vec<String>,
}

impl Audit {
    /// Failed operations in total.
    pub fn failed(&self) -> u64 {
        self.unexecuted
            + self.invariant_violations
            + self.pages_lost
            + self.pages_double_mapped
            + self.commit_failures
    }
}

/// Checks the outputs of a finished run.
pub fn audit(w: Workload, p: &mut Prepared, ex: &Execution, budget: u64, ckpt_dir: &Path) -> Audit {
    let sys = &mut p.sys;
    // A reset striking after the last epoch leaves the engine fenced;
    // replay the journal before judging the end state.
    if sys.needs_recovery() {
        sys.recover();
    }
    let mut a = Audit {
        unexecuted: budget.saturating_sub(ex.report.accesses),
        ..Audit::default()
    };
    let violations = sys.check_invariants();
    a.invariant_violations = violations.len() as u64;
    a.messages.extend(violations);

    let mut frames = HashSet::new();
    for vpn in p.region.vpns() {
        match sys.page_table().get(vpn) {
            Some(pte) => {
                if !frames.insert(pte.pfn) {
                    a.pages_double_mapped += 1;
                }
            }
            None => a.pages_lost += 1,
        }
    }
    if sys.nr_pages(NodeId::Ddr) + sys.nr_pages(NodeId::Cxl) != p.region.pages {
        a.pages_double_mapped += 1;
        a.messages
            .push("node page counts do not add up to the region".into());
    }

    a.commit_failures = ex.commit_errors;
    if w.checkpoints() > 0 {
        let loads = cxl_sim::checkpoint::Checkpoint::load(&ckpt_dir.join("run.ckpt"))
            .is_ok_and(|l| !l.fell_back);
        if ex.captures != w.checkpoints() || !loads {
            a.commit_failures += 1;
            a.messages
                .push("last committed checkpoint does not load".into());
        }
    }
    a
}

/// Operations attempted in a run: accesses plus checkpoint commits.
pub fn attempted(w: Workload, budget: u64) -> u64 {
    budget + w.checkpoints()
}

/// The simulated p99 operation latency in nanoseconds. On the workload
/// with op markers it comes from the report's op-latency histogram;
/// elsewhere an operation is one chunk of [`DEFAULT_CHUNK_ACCESSES`]
/// accesses, timed exactly.
pub fn sim_p99_op_ns(w: Workload, ex: &Execution) -> f64 {
    if w.has_ops() {
        return interpolated_quantile(&ex.report.op_latency, 0.99);
    }
    let mut v = ex.chunk_sim_ns.clone();
    v.sort_unstable();
    let rank = ((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).map_or(0.0, |&n| n as f64)
}

/// The `q`-quantile of `h`, interpolated inside its bucket.
///
/// [`LatencyHistogram::quantile`] returns the lower bound of the bucket
/// holding the quantile's rank: 64 buckets per power of two, so nearby
/// distributions often share it exactly. This places the rank linearly
/// within that bucket, from the ranks at which the bucket starts and
/// ends.
pub fn interpolated_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let total = h.count();
    let Some(lower) = h.quantile(q) else {
        return 0.0;
    };
    let at_rank = |k: u64| h.quantile((k as f64 - 0.5) / total as f64);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    // First rank whose value reaches `lower`, and the last that stays in
    // its bucket.
    let first = partition_point(1, rank, |k| at_rank(k) < Some(lower));
    let last = partition_point(rank, total + 1, |k| at_rank(k) == Some(lower)) - 1;
    let width = match lower.0 {
        n if n < 64 => 1,
        n => 1u64 << (63 - n.leading_zeros() - 6),
    };
    let pos = (rank - first) as f64 + 0.5;
    lower.0 as f64 + width as f64 * pos / (last - first + 1) as f64
}

/// The first `k` in `[lo, hi)` for which `pred` is false (`pred` must be
/// true on a prefix of the range).
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The exact (simulated) per-layer counts of a finished run, by metric
/// name. They repeat exactly for a given workload and seed.
pub fn exact_counts(w: Workload, p: &Prepared, ex: &Execution) -> BTreeMap<&'static str, f64> {
    let r = &ex.report;
    let sys = &p.sys;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (tlb_hits, tlb_misses) = (sys.tlb().hits(), sys.tlb().misses());
    let ddr = r.reads_on(NodeId::Ddr);
    let cxl = r.reads_on(NodeId::Cxl);
    let m5 = matches!(p.daemon.inner, Policy::M5(_));
    let pick = |on: bool, v: u64| if on { v as f64 } else { 0.0 };
    let snapshot = sys.telemetry().snapshot();
    let metrics = snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
    BTreeMap::from([
        ("sim_time_ms", r.total_time.0 as f64 / 1e6),
        ("sim_p99_op_ns", sim_p99_op_ns(w, ex)),
        ("workloads.trace_bytes", (p.trace.inner.len() * 8) as f64),
        ("tlb.hit_ratio", ratio(tlb_hits, tlb_hits + tlb_misses)),
        (
            "llc.hit_ratio",
            ratio(r.llc_hits, r.llc_hits + r.llc_misses),
        ),
        ("llc.writebacks", sys.llc().writebacks() as f64),
        ("dram.ddr_read_share", ratio(ddr, ddr + cxl)),
        ("paging.hinting_faults", r.hinting_faults as f64),
        ("manager.ticks", pick(m5, ex.ticks)),
        ("manager.migrate_epochs", ex.migrate_epochs as f64),
        ("baseline.ticks", pick(!m5, ex.ticks)),
        ("baseline.faults", pick(!m5, ex.faults)),
        ("migration.promotions", r.migrations.promotions as f64),
        ("migration.demotions", r.migrations.demotions as f64),
        ("migration.rejected", r.migrations.rejected as f64),
        (
            "kernel.migration_sim_ns",
            r.kernel.of(CostKind::Migration).0 as f64,
        ),
        ("kernel.total_sim_ns", r.kernel.total().0 as f64),
        ("contention.cxl_congestion", ex.cxl_congestion),
        ("ras.faults_injected", r.health.faults_injected as f64),
        ("ras.poison_repairs", r.health.poison_repairs as f64),
        (
            "ras.frames_offlined",
            sys.offlined_frames(NodeId::Cxl) as f64,
        ),
        ("ras.recoveries", ex.recoveries as f64),
        ("ras.promoter_gave_up", ex.promoter_gave_up as f64),
        ("ckpt.captures", ex.captures as f64),
        ("ckpt.bytes", ex.ckpt_bytes as f64),
        ("telemetry.metrics", metrics as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_in_its_bucket_and_moves_with_the_data() {
        let mut h = LatencyHistogram::new();
        for v in 1000..1100 {
            h.record(Nanos(v));
        }
        // Rank 99 is 1098, in the 16 ns wide bucket starting at 1088 that
        // holds ranks 89..=100.
        assert_eq!(h.quantile(0.99), Some(Nanos(1088)));
        let q = interpolated_quantile(&h, 0.99);
        assert_eq!(q, 1088.0 + 16.0 * 10.5 / 12.0);

        let mut g = h.clone();
        g.record(Nanos(1090));
        let moved = interpolated_quantile(&g, 0.99);
        assert!(moved != q && (1088.0..1104.0).contains(&moved));
        assert_eq!(interpolated_quantile(&LatencyHistogram::new(), 0.99), 0.0);
    }
}
