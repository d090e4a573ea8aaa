//! The named benchmark registry: the paper's twelve Table 3 workloads
//! (plus the Memcached and CacheLib variants of Figure 4) at simulator
//! scale.
//!
//! Footprints are scaled ~200× down from the paper's 5–7 GB (to ~32 MiB
//! class) so a full figure harness runs in seconds; the *ratios* that
//! matter — footprint : DDR capacity (2:1), footprint : LLC, hot-set
//! skew, page sparsity — are preserved.

use crate::access::ReplayWorkload;
use crate::graph::{CsrGraph, GapKernel};
use crate::kv::{self, KvConfig};
use crate::liblinear::{self, LiblinearConfig};
use crate::spec;
use cxl_sim::addr::VirtAddr;
use std::sync::{Arc, OnceLock};

/// The evaluated benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Liblinear on KDD-2012-like data.
    Liblinear,
    /// GAP betweenness centrality (directed web graph).
    Bc,
    /// GAP breadth-first search (undirected social graph).
    Bfs,
    /// GAP connected components.
    Cc,
    /// GAP PageRank.
    Pr,
    /// GAP single-source shortest paths (directed web graph).
    Sssp,
    /// GAP triangle counting.
    Tc,
    /// SPEC 507.cactuBSSN_r.
    CactuBssn,
    /// SPEC 548.fotonik3d_r.
    Fotonik3d,
    /// SPEC 505.mcf_r.
    Mcf,
    /// SPEC 554.roms_r.
    Roms,
    /// Redis 6.0 under YCSB-A.
    Redis,
    /// Memcached under YCSB-A (Figure 4 only).
    Memcached,
    /// CacheLib under a mildly skewed trace (Figure 4 only).
    CacheLib,
}

impl Benchmark {
    /// The twelve benchmarks of Figures 3 and 9, in the paper's x-axis
    /// order.
    pub const MAIN_TWELVE: [Benchmark; 12] = [
        Benchmark::Liblinear,
        Benchmark::Bc,
        Benchmark::Bfs,
        Benchmark::Cc,
        Benchmark::Pr,
        Benchmark::Sssp,
        Benchmark::Tc,
        Benchmark::CactuBssn,
        Benchmark::Fotonik3d,
        Benchmark::Mcf,
        Benchmark::Roms,
        Benchmark::Redis,
    ];

    /// The Figure 4 set (the twelve plus Memcached and CacheLib).
    pub const FIGURE4: [Benchmark; 14] = [
        Benchmark::Liblinear,
        Benchmark::Bc,
        Benchmark::Bfs,
        Benchmark::Cc,
        Benchmark::Pr,
        Benchmark::Sssp,
        Benchmark::Tc,
        Benchmark::CactuBssn,
        Benchmark::Fotonik3d,
        Benchmark::Mcf,
        Benchmark::Roms,
        Benchmark::Redis,
        Benchmark::Memcached,
        Benchmark::CacheLib,
    ];

    /// The paper's x-axis label.
    pub fn label(self) -> &'static str {
        match self {
            Benchmark::Liblinear => "lib.",
            Benchmark::Bc => "bc",
            Benchmark::Bfs => "bfs",
            Benchmark::Cc => "cc",
            Benchmark::Pr => "pr",
            Benchmark::Sssp => "sssp",
            Benchmark::Tc => "tc",
            Benchmark::CactuBssn => "cactu.",
            Benchmark::Fotonik3d => "foto.",
            Benchmark::Mcf => "mcf",
            Benchmark::Roms => "roms",
            Benchmark::Redis => "redis",
            Benchmark::Memcached => "mcd",
            Benchmark::CacheLib => "c.-lib",
        }
    }

    /// Whether the Figure 9 performance metric is p99 latency (Redis-like)
    /// rather than execution time.
    pub fn scored_by_p99(self) -> bool {
        matches!(
            self,
            Benchmark::Redis | Benchmark::Memcached | Benchmark::CacheLib
        )
    }

    /// This benchmark's ready-to-build specification.
    pub fn spec(self) -> WorkloadSpec {
        let footprint_pages = match self {
            Benchmark::Redis => KvConfig::redis(REDIS_KEYS).footprint_pages(),
            Benchmark::Memcached => KvConfig::memcached(MCD_KEYS).footprint_pages(),
            Benchmark::CacheLib => KvConfig::cachelib(CLIB_KEYS).footprint_pages(),
            Benchmark::Liblinear => LiblinearConfig::kdd(2048, 6144).footprint_pages(),
            Benchmark::Mcf | Benchmark::CactuBssn | Benchmark::Fotonik3d | Benchmark::Roms => {
                SPEC_PAGES
            }
            Benchmark::Bfs | Benchmark::Cc | Benchmark::Pr | Benchmark::Tc => {
                crate::graph::GraphLayout::for_graph(&social_graph()).total_pages
            }
            Benchmark::Bc | Benchmark::Sssp => {
                crate::graph::GraphLayout::for_graph(&web_graph()).total_pages
            }
        };
        WorkloadSpec {
            benchmark: self,
            footprint_pages,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const REDIS_KEYS: u64 = 7 * 8192;
const MCD_KEYS: u64 = 8 * 8192;
const CLIB_KEYS: u64 = 9 * 8192;
const SPEC_PAGES: u64 = 8192;

/// The Twitter-graph stand-in (undirected R-MAT, scale 17, degree 16),
/// generated once per process and shared.
pub fn social_graph() -> Arc<CsrGraph> {
    static GRAPH: OnceLock<Arc<CsrGraph>> = OnceLock::new();
    Arc::clone(GRAPH.get_or_init(|| Arc::new(CsrGraph::rmat(17, 16, 0x50c1a1))))
}

/// The Google-web-graph stand-in (directed uniform, 128K vertices),
/// generated once per process and shared.
pub fn web_graph() -> Arc<CsrGraph> {
    static GRAPH: OnceLock<Arc<CsrGraph>> = OnceLock::new();
    Arc::clone(GRAPH.get_or_init(|| Arc::new(CsrGraph::uniform(128 * 1024, 12, 0x90091e))))
}

/// A buildable benchmark description.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// Pages the workload's region must span.
    pub footprint_pages: u64,
}

impl WorkloadSpec {
    /// Generates the trace: ~`target_accesses` accesses starting at
    /// `base`, deterministic in `seed`.
    pub fn build(&self, base: VirtAddr, target_accesses: u64, seed: u64) -> ReplayWorkload {
        match self.benchmark {
            Benchmark::Redis => {
                let mut c = KvConfig::redis(REDIS_KEYS);
                c.seed ^= seed;
                kv::generate(&c, base, target_accesses)
            }
            Benchmark::Memcached => {
                let mut c = KvConfig::memcached(MCD_KEYS);
                c.seed ^= seed;
                kv::generate(&c, base, target_accesses)
            }
            Benchmark::CacheLib => {
                let mut c = KvConfig::cachelib(CLIB_KEYS);
                c.seed ^= seed;
                kv::generate(&c, base, target_accesses)
            }
            Benchmark::Liblinear => {
                let mut c = LiblinearConfig::kdd(2048, 6144);
                c.seed ^= seed;
                liblinear::generate(&c, base, target_accesses)
            }
            Benchmark::Mcf => spec::mcf(SPEC_PAGES, base, target_accesses, seed),
            Benchmark::CactuBssn => spec::cactubssn(SPEC_PAGES, base, target_accesses, seed),
            Benchmark::Fotonik3d => spec::fotonik3d(SPEC_PAGES, base, target_accesses, seed),
            Benchmark::Roms => spec::roms(SPEC_PAGES, base, target_accesses, seed),
            Benchmark::Bfs => {
                crate::graph::generate(GapKernel::Bfs, &social_graph(), base, target_accesses, seed)
            }
            Benchmark::Cc => {
                crate::graph::generate(GapKernel::Cc, &social_graph(), base, target_accesses, seed)
            }
            Benchmark::Pr => {
                crate::graph::generate(GapKernel::Pr, &social_graph(), base, target_accesses, seed)
            }
            Benchmark::Tc => {
                crate::graph::generate(GapKernel::Tc, &social_graph(), base, target_accesses, seed)
            }
            Benchmark::Bc => {
                crate::graph::generate(GapKernel::Bc, &web_graph(), base, target_accesses, seed)
            }
            Benchmark::Sssp => {
                crate::graph::generate(GapKernel::Sssp, &web_graph(), base, target_accesses, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_main_benchmarks_in_paper_order() {
        let labels: Vec<&str> = Benchmark::MAIN_TWELVE.iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            [
                "lib.", "bc", "bfs", "cc", "pr", "sssp", "tc", "cactu.", "foto.", "mcf", "roms",
                "redis"
            ]
        );
        assert_eq!(Benchmark::FIGURE4.len(), 14);
    }

    #[test]
    fn only_kv_benchmarks_use_p99() {
        assert!(Benchmark::Redis.scored_by_p99());
        assert!(!Benchmark::Mcf.scored_by_p99());
        assert!(!Benchmark::Pr.scored_by_p99());
    }

    #[test]
    fn every_benchmark_builds_and_fits_its_footprint() {
        use cxl_sim::addr::PAGE_SIZE;
        for b in Benchmark::FIGURE4 {
            let spec = b.spec();
            assert!(spec.footprint_pages > 1000, "{b}: tiny footprint");
            let wl = spec.build(VirtAddr(0), 20_000, 1);
            assert!(wl.len() >= 20_000, "{b}: short trace ({})", wl.len());
            assert!(
                wl.max_extent() <= spec.footprint_pages * PAGE_SIZE as u64,
                "{b}: trace escapes footprint"
            );
        }
    }

    #[test]
    fn graphs_are_cached_and_shared() {
        let a = social_graph();
        let b = social_graph();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.num_vertices(), 128 * 1024);
    }
}
