//! The GAP benchmark suite substrate: a CSR graph, an R-MAT generator,
//! and real implementations of the six kernels (BFS, PR, CC, SSSP, BC,
//! TC), instrumented so that every data-structure touch is emitted as a
//! simulated memory access.
//!
//! The paper runs GAP on the Twitter graph (undirected; BFS/CC/TC/PR) and
//! the Google web graph (directed; BC/SSSP). We substitute synthetic
//! R-MAT graphs (the generator GAP itself uses for its synthetic inputs)
//! with the classic Graph500 parameters, which reproduce the power-law
//! degree skew that makes PR dense-but-skewed and BFS/CC/TC sparser in
//! page terms.
//!
//! ## Memory layout (region-relative)
//!
//! | array     | element | semantics                         |
//! |-----------|---------|-----------------------------------|
//! | `offsets` | u32     | CSR row starts (n+1)              |
//! | `targets` | u32     | CSR adjacency                     |
//! | `prop_a`  | u64     | rank / parent / component / dist / sigma |
//! | `prop_b`  | u64     | next-rank / delta                 |
//! | `prop_c`  | u64     | centrality accumulators           |
//! | `visited` | bits    | BFS/SSSP frontier membership      |

use crate::access::{AccessRecorder, ReplayWorkload};
use cxl_sim::addr::{VirtAddr, PAGE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

const PAGE: u64 = PAGE_SIZE as u64;

/// A compressed-sparse-row graph.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list over `n` vertices. Adjacency
    /// lists come out sorted (TC relies on that).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut degree = vec![0u32; n];
        for &(s, _) in edges {
            degree[s as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(s, t) in edges {
            targets[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        CsrGraph { offsets, targets }
    }

    /// An R-MAT graph (Graph500 parameters a=0.57, b=0.19, c=0.19) with
    /// `1 << scale` vertices and ~`avg_degree` edges per vertex,
    /// symmetrized (undirected).
    ///
    /// Each level picks its quadrant without branching: it takes
    /// `x = next_u64() >> 11` and compares `x` with the integer
    /// thresholds `⌈c·2⁵³⌉` of the cumulative probabilities
    /// c = 0.57, 0.76, 0.95. This is the same decision as comparing the
    /// uniform float `r = gen::<f64>()` with `c`, bit for bit: `gen`
    /// returns `r = x·2⁻⁵³`, which is exact (`x < 2⁵³` converts exactly
    /// and scaling by a power of two is exact), and `c·2⁵³` is exact for
    /// the same reason, so for an integer `x`,
    /// `r < c ⇔ x < c·2⁵³ ⇔ x < ⌈c·2⁵³⌉`. Every seed therefore yields
    /// the same random stream and the same graph as the float draw.
    pub fn rmat(scale: u32, avg_degree: usize, seed: u64) -> CsrGraph {
        let n = 1usize << scale;
        let m = n * avg_degree / 2;
        let (t57, t76, t95) = (
            unit_threshold(0.57),
            unit_threshold(0.76),
            unit_threshold(0.95),
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m * 2);
        for _ in 0..m {
            let (mut s, mut t) = (0u32, 0u32);
            for _ in 0..scale {
                let x = rng.next_u64() >> 11;
                // Quadrants in draw order: (0,0), (0,1), (1,0), (1,1).
                let s_bit = x >= t76;
                let t_bit = ((x >= t57) & !s_bit) | (x >= t95);
                s = (s << 1) | s_bit as u32;
                t = (t << 1) | t_bit as u32;
            }
            if s != t {
                edges.push((s, t));
                edges.push((t, s));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// A uniform-random directed graph (the Google web-graph stand-in for
    /// BC and SSSP).
    pub fn uniform(n: usize, avg_degree: usize, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(n * avg_degree);
        for _ in 0..n * avg_degree {
            let s = rng.gen_range(0..n as u32);
            let t = rng.gen_range(0..n as u32);
            if s != t {
                edges.push((s, t));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (CSR entries).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted adjacency list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The out-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }
}

/// The least 53-bit draw `x` with `x·2⁻⁵³ ≥ c`, for `c` in `[0, 1]`:
/// `⌈c·2⁵³⌉`, computed exactly because `c·2⁵³` is an exact `f64`.
fn unit_threshold(c: f64) -> u64 {
    (c * (1u64 << 53) as f64).ceil() as u64
}

/// Region-relative byte addresses of the graph's arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphLayout {
    offsets_at: u64,
    targets_at: u64,
    prop_a_at: u64,
    prop_b_at: u64,
    prop_c_at: u64,
    visited_at: u64,
    /// Total pages the layout occupies.
    pub total_pages: u64,
}

fn page_align(x: u64) -> u64 {
    x.div_ceil(PAGE) * PAGE
}

impl GraphLayout {
    /// Lays the arrays of `g` out contiguously, page-aligned.
    pub fn for_graph(g: &CsrGraph) -> GraphLayout {
        let n = g.num_vertices() as u64;
        let m = g.num_edges() as u64;
        let offsets_at = 0;
        let targets_at = page_align(offsets_at + (n + 1) * 4);
        let prop_a_at = page_align(targets_at + m * 4);
        let prop_b_at = page_align(prop_a_at + n * 8);
        let prop_c_at = page_align(prop_b_at + n * 8);
        let visited_at = page_align(prop_c_at + n * 8);
        let end = page_align(visited_at + n.div_ceil(8));
        GraphLayout {
            offsets_at,
            targets_at,
            prop_a_at,
            prop_b_at,
            prop_c_at,
            visited_at,
            total_pages: end / PAGE,
        }
    }

    fn offset(&self, v: u32) -> u64 {
        self.offsets_at + v as u64 * 4
    }
    fn target(&self, e: u64) -> u64 {
        self.targets_at + e * 4
    }
    fn prop_a(&self, v: u32) -> u64 {
        self.prop_a_at + v as u64 * 8
    }
    fn prop_b(&self, v: u32) -> u64 {
        self.prop_b_at + v as u64 * 8
    }
    fn prop_c(&self, v: u32) -> u64 {
        self.prop_c_at + v as u64 * 8
    }
    fn visited(&self, v: u32) -> u64 {
        self.visited_at + v as u64 / 8
    }
}

/// Reads `v`'s CSR row bounds, emitting the two offset reads.
fn row(g: &CsrGraph, l: &GraphLayout, rec: &mut AccessRecorder, v: u32) -> (u64, u64) {
    rec.read(l.offset(v));
    rec.read(l.offset(v + 1));
    (
        g.offsets[v as usize] as u64,
        g.offsets[v as usize + 1] as u64,
    )
}

/// PageRank (pull-based), emitting offset/target/rank reads and next-rank
/// writes. Returns the final ranks (scaled by 2⁳² into u64 arithmetic to
/// keep the trace deterministic across platforms).
pub fn pagerank(
    g: &CsrGraph,
    l: &GraphLayout,
    rec: &mut AccessRecorder,
    budget: u64,
    max_iters: usize,
) -> Vec<u64> {
    let n = g.num_vertices();
    let scale = 1u64 << 32;
    let mut rank = vec![scale / n as u64; n];
    let mut next = vec![0u64; n];
    let mut contrib = vec![0u64; n];
    for _ in 0..max_iters {
        // Dangling (degree-0) vertices redistribute their mass uniformly,
        // as in the GAP reference implementation.
        let mut dangling = 0u64;
        for v in 0..n as u32 {
            let d = g.degree(v) as u64;
            match rank[v as usize].checked_div(d) {
                Some(c) => contrib[v as usize] = c,
                None => {
                    dangling += rank[v as usize];
                    contrib[v as usize] = 0;
                }
            }
        }
        let dangling_share = dangling / n as u64;
        for v in 0..n as u32 {
            let (s, e) = row(g, l, rec, v);
            let mut sum = 0u64;
            for edge in s..e {
                rec.read(l.target(edge));
                let u = g.targets[edge as usize];
                rec.read(l.prop_a(u));
                sum += contrib[u as usize];
            }
            // next = 0.15/n + 0.85 * (sum + dangling share), fixed-point.
            next[v as usize] = (scale * 15 / 100) / n as u64 + (sum + dangling_share) * 85 / 100;
            rec.write(l.prop_b(v));
            if rec.len() as u64 >= budget {
                return rank;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Breadth-first search from `source`; returns the parent array (u32::MAX
/// = unreached).
pub fn bfs(
    g: &CsrGraph,
    l: &GraphLayout,
    rec: &mut AccessRecorder,
    budget: u64,
    source: u32,
) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent = vec![u32::MAX; n];
    parent[source as usize] = source;
    rec.write(l.visited(source));
    rec.write(l.prop_a(source));
    let mut frontier = vec![source];
    while !frontier.is_empty() && (rec.len() as u64) < budget {
        let mut next = Vec::new();
        for &v in &frontier {
            let (s, e) = row(g, l, rec, v);
            for edge in s..e {
                rec.read(l.target(edge));
                let u = g.targets[edge as usize];
                rec.read(l.visited(u));
                if parent[u as usize] == u32::MAX {
                    parent[u as usize] = v;
                    rec.write(l.visited(u));
                    rec.write(l.prop_a(u));
                    next.push(u);
                }
            }
            if rec.len() as u64 >= budget {
                break;
            }
        }
        frontier = next;
    }
    parent
}

/// Connected components by label propagation; returns the component
/// labels.
pub fn connected_components(
    g: &CsrGraph,
    l: &GraphLayout,
    rec: &mut AccessRecorder,
    budget: u64,
) -> Vec<u32> {
    let n = g.num_vertices();
    let mut comp: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        rec.write(l.prop_a(v));
    }
    loop {
        let mut changed = false;
        for v in 0..n as u32 {
            let (s, e) = row(g, l, rec, v);
            rec.read(l.prop_a(v));
            let mut best = comp[v as usize];
            for edge in s..e {
                rec.read(l.target(edge));
                let u = g.targets[edge as usize];
                rec.read(l.prop_a(u));
                best = best.min(comp[u as usize]);
            }
            if best < comp[v as usize] {
                comp[v as usize] = best;
                rec.write(l.prop_a(v));
                changed = true;
            }
            if rec.len() as u64 >= budget {
                return comp;
            }
        }
        if !changed {
            return comp;
        }
    }
}

/// Deterministic edge weight in 1..=15 derived from the edge's endpoints.
fn edge_weight(s: u32, t: u32) -> u64 {
    (crate::dist::hash_slot(s as u64, t as u64, 0x77) % 15) + 1
}

/// Single-source shortest paths (Bellman-Ford over active frontiers);
/// returns the distance array.
pub fn sssp(
    g: &CsrGraph,
    l: &GraphLayout,
    rec: &mut AccessRecorder,
    budget: u64,
    source: u32,
) -> Vec<u64> {
    let n = g.num_vertices();
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    rec.write(l.prop_a(source));
    let mut frontier = vec![source];
    while !frontier.is_empty() && (rec.len() as u64) < budget {
        let mut next = Vec::new();
        for &v in &frontier {
            let (s, e) = row(g, l, rec, v);
            rec.read(l.prop_a(v));
            for edge in s..e {
                rec.read(l.target(edge));
                let u = g.targets[edge as usize];
                rec.read(l.prop_a(u));
                let cand = dist[v as usize].saturating_add(edge_weight(v, u));
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    rec.write(l.prop_a(u));
                    next.push(u);
                }
            }
            if rec.len() as u64 >= budget {
                break;
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    dist
}

/// Betweenness centrality (Brandes) from `sources.len()` roots; returns
/// the centrality accumulators (×2²⁰ fixed point).
pub fn betweenness(
    g: &CsrGraph,
    l: &GraphLayout,
    rec: &mut AccessRecorder,
    budget: u64,
    sources: &[u32],
) -> Vec<u64> {
    let n = g.num_vertices();
    let mut centrality = vec![0u64; n];
    for &src in sources {
        if rec.len() as u64 >= budget {
            break;
        }
        // Forward phase: BFS computing path counts (sigma = prop_a).
        let mut sigma = vec![0u64; n];
        let mut depth = vec![u32::MAX; n];
        sigma[src as usize] = 1;
        depth[src as usize] = 0;
        rec.write(l.prop_a(src));
        let mut stack: Vec<u32> = Vec::new();
        let mut frontier = vec![src];
        let mut level = 0;
        while !frontier.is_empty() && (rec.len() as u64) < budget {
            stack.extend_from_slice(&frontier);
            let mut next = Vec::new();
            for &v in &frontier {
                let (s, e) = row(g, l, rec, v);
                for edge in s..e {
                    rec.read(l.target(edge));
                    let u = g.targets[edge as usize];
                    rec.read(l.prop_a(u));
                    if depth[u as usize] == u32::MAX {
                        depth[u as usize] = level + 1;
                        next.push(u);
                    }
                    if depth[u as usize] == level + 1 {
                        sigma[u as usize] += sigma[v as usize];
                        rec.write(l.prop_a(u));
                    }
                }
            }
            frontier = next;
            level += 1;
        }
        // Backward phase: dependency accumulation (delta = prop_b).
        let mut delta = vec![0u64; n];
        for &v in stack.iter().rev() {
            let (s, e) = row(g, l, rec, v);
            for edge in s..e {
                rec.read(l.target(edge));
                let u = g.targets[edge as usize];
                if depth[u as usize] == depth[v as usize] + 1 && sigma[u as usize] > 0 {
                    rec.read(l.prop_a(u));
                    rec.read(l.prop_b(u));
                    let share = (sigma[v as usize] << 20) / sigma[u as usize].max(1);
                    delta[v as usize] += (share * ((1 << 20) + delta[u as usize])) >> 20;
                    rec.write(l.prop_b(v));
                }
            }
            if v != src {
                centrality[v as usize] += delta[v as usize];
                rec.read(l.prop_c(v));
                rec.write(l.prop_c(v));
            }
            if rec.len() as u64 >= budget {
                break;
            }
        }
    }
    centrality
}

/// Triangle counting by sorted adjacency intersection; returns the count.
pub fn triangle_count(g: &CsrGraph, l: &GraphLayout, rec: &mut AccessRecorder, budget: u64) -> u64 {
    let n = g.num_vertices();
    let mut triangles = 0u64;
    for v in 0..n as u32 {
        let (vs, ve) = row(g, l, rec, v);
        for edge in vs..ve {
            rec.read(l.target(edge));
            let u = g.targets[edge as usize];
            if u <= v {
                continue;
            }
            // Merge-walk both sorted lists, emitting the sequential reads.
            let (us, ue) = row(g, l, rec, u);
            let (mut i, mut j) = (vs, us);
            while i < ve && j < ue {
                rec.read(l.target(i));
                rec.read(l.target(j));
                let (a, b) = (g.targets[i as usize], g.targets[j as usize]);
                // Only count each triangle once (w > u > v).
                if a == b {
                    if a > u {
                        triangles += 1;
                    }
                    i += 1;
                    j += 1;
                } else if a < b {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            if rec.len() as u64 >= budget {
                return triangles;
            }
        }
    }
    triangles
}

/// Which GAP kernel to trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GapKernel {
    /// Breadth-first search (repeated from random sources).
    Bfs,
    /// PageRank.
    Pr,
    /// Connected components.
    Cc,
    /// Single-source shortest paths (repeated from random sources).
    Sssp,
    /// Betweenness centrality.
    Bc,
    /// Triangle counting.
    Tc,
}

/// Generates a trace of ~`target_accesses` for `kernel` over `g`.
pub fn generate(
    kernel: GapKernel,
    g: &CsrGraph,
    base: VirtAddr,
    target_accesses: u64,
    seed: u64,
) -> ReplayWorkload {
    let l = GraphLayout::for_graph(g);
    let mut rec = AccessRecorder::with_capacity(target_accesses as usize + 64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_vertices() as u32;
    match kernel {
        GapKernel::Pr => {
            while (rec.len() as u64) < target_accesses {
                pagerank(g, &l, &mut rec, target_accesses, 32);
            }
        }
        GapKernel::Cc => {
            while (rec.len() as u64) < target_accesses {
                connected_components(g, &l, &mut rec, target_accesses);
            }
        }
        GapKernel::Tc => {
            while (rec.len() as u64) < target_accesses {
                triangle_count(g, &l, &mut rec, target_accesses);
            }
        }
        GapKernel::Bfs => {
            while (rec.len() as u64) < target_accesses {
                bfs(g, &l, &mut rec, target_accesses, rng.gen_range(0..n));
            }
        }
        GapKernel::Sssp => {
            while (rec.len() as u64) < target_accesses {
                sssp(g, &l, &mut rec, target_accesses, rng.gen_range(0..n));
            }
        }
        GapKernel::Bc => {
            while (rec.len() as u64) < target_accesses {
                let sources: Vec<u32> = (0..8).map(|_| rng.gen_range(0..n)).collect();
                betweenness(g, &l, &mut rec, target_accesses, &sources);
            }
        }
    }
    rec.into_workload(format!("{kernel:?}").to_lowercase(), base)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A triangle plus a pendant: 0-1-2-0, 2-3.
    fn toy() -> CsrGraph {
        let edges = [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 0),
            (0, 2),
            (2, 3),
            (3, 2),
        ];
        CsrGraph::from_edges(4, &edges)
    }

    #[test]
    fn csr_structure() {
        let g = toy();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn rmat_has_power_law_ish_degrees() {
        let g = CsrGraph::rmat(10, 8, 42);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 6_000);
        let max_deg = (0..1024u32).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_edges() / 1024;
        assert!(
            max_deg > avg * 8,
            "hub degree {max_deg} should dwarf the average {avg}"
        );
    }

    /// The original R-MAT draw: one uniform float per level and a
    /// four-way comparison against the cumulative quadrant
    /// probabilities. [`CsrGraph::rmat`] must reproduce it bit for bit.
    fn rmat_float_reference(scale: u32, avg_degree: usize, seed: u64) -> CsrGraph {
        let n = 1usize << scale;
        let m = n * avg_degree / 2;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m * 2);
        for _ in 0..m {
            let (mut s, mut t) = (0u32, 0u32);
            for _ in 0..scale {
                s <<= 1;
                t <<= 1;
                let r: f64 = rng.gen();
                if r < 0.57 {
                    // top-left quadrant
                } else if r < 0.76 {
                    t |= 1;
                } else if r < 0.95 {
                    s |= 1;
                } else {
                    s |= 1;
                    t |= 1;
                }
            }
            if s != t {
                edges.push((s, t));
                edges.push((t, s));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn rmat_matches_the_float_reference_draw() {
        let seeds = [
            0,
            1,
            7,
            42,
            1042,
            0x50c1a1,
            0x50c1a1 ^ 42,
            0x50c1a1 ^ 1042,
            u64::MAX,
        ];
        for scale in [1, 4, 8, 12] {
            for seed in seeds {
                let fast = CsrGraph::rmat(scale, 16, seed);
                let reference = rmat_float_reference(scale, 16, seed);
                assert_eq!(fast.num_vertices(), reference.num_vertices());
                assert_eq!(fast.num_edges(), reference.num_edges());
                for v in 0..reference.num_vertices() as u32 {
                    assert_eq!(
                        fast.neighbors(v),
                        reference.neighbors(v),
                        "scale {scale}, seed {seed:#x}: vertex {v} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn rmat_thresholds_split_the_float_draw_exactly() {
        let unit = 1.0 / (1u64 << 53) as f64;
        for c in [0.57, 0.76, 0.95] {
            let t = unit_threshold(c);
            assert!(((t - 1) as f64 * unit) < c, "{c}: last draw below");
            assert!((t as f64 * unit) >= c, "{c}: first draw at or above");
        }
    }

    #[test]
    fn social_graph_digest_is_pinned() {
        let g = CsrGraph::rmat(17, 16, 0x50c1a1);
        let mut bytes = Vec::with_capacity((g.offsets.len() + g.targets.len()) * 4);
        for w in g.offsets.iter().chain(&g.targets) {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(
            cxl_sim::checkpoint::fnv64(&bytes),
            0x93fd_ceac_daad_867a,
            "the scale-17 social graph changed"
        );
    }

    #[test]
    fn bfs_reaches_exactly_the_connected_component() {
        let g = toy();
        let l = GraphLayout::for_graph(&g);
        let mut rec = AccessRecorder::new();
        let parent = bfs(&g, &l, &mut rec, u64::MAX, 0);
        assert!(parent.iter().all(|&p| p != u32::MAX), "toy is connected");
        assert_eq!(parent[0], 0);
        assert!(!rec.is_empty());
    }

    #[test]
    fn cc_labels_match_components() {
        // Two components: {0,1,2,3} and {4,5}.
        let mut edges = vec![
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 0),
            (0, 2),
            (2, 3),
            (3, 2),
        ];
        edges.push((4, 5));
        edges.push((5, 4));
        let g = CsrGraph::from_edges(6, &edges);
        let l = GraphLayout::for_graph(&g);
        let mut rec = AccessRecorder::new();
        let comp = connected_components(&g, &l, &mut rec, u64::MAX);
        assert_eq!(comp[0], comp[3]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[0], comp[4]);
    }

    #[test]
    fn triangle_count_is_exact_on_the_toy() {
        let g = toy();
        let l = GraphLayout::for_graph(&g);
        let mut rec = AccessRecorder::new();
        assert_eq!(triangle_count(&g, &l, &mut rec, u64::MAX), 1);
    }

    #[test]
    fn sssp_distances_satisfy_triangle_inequality() {
        let g = CsrGraph::rmat(8, 6, 7);
        let l = GraphLayout::for_graph(&g);
        let mut rec = AccessRecorder::new();
        let dist = sssp(&g, &l, &mut rec, u64::MAX, 0);
        assert_eq!(dist[0], 0);
        for v in 0..g.num_vertices() as u32 {
            if dist[v as usize] == u64::MAX {
                continue;
            }
            for &u in g.neighbors(v) {
                assert!(
                    dist[u as usize] <= dist[v as usize] + edge_weight(v, u),
                    "relaxation left an improvable edge {v}->{u}"
                );
            }
        }
    }

    #[test]
    fn pagerank_conserves_mass_approximately() {
        let g = CsrGraph::rmat(8, 6, 3);
        let l = GraphLayout::for_graph(&g);
        let mut rec = AccessRecorder::new();
        let ranks = pagerank(&g, &l, &mut rec, u64::MAX, 10);
        let total: u64 = ranks.iter().sum();
        let expect = 1u64 << 32;
        let err = (total as f64 - expect as f64).abs() / expect as f64;
        // Fixed-point truncation plus dangling-vertex leakage stays small.
        assert!(err < 0.2, "rank mass error {err}");
        assert!(rec.len() > 1000);
    }

    #[test]
    fn betweenness_finds_the_bridge() {
        // Path graph 0-1-2: vertex 1 carries all shortest paths.
        let edges = [(0, 1), (1, 0), (1, 2), (2, 1)];
        let g = CsrGraph::from_edges(3, &edges);
        let l = GraphLayout::for_graph(&g);
        let mut rec = AccessRecorder::new();
        let c = betweenness(&g, &l, &mut rec, u64::MAX, &[0, 1, 2]);
        assert!(c[1] > c[0]);
        assert!(c[1] > c[2]);
    }

    #[test]
    fn traces_stay_within_layout_and_budget() {
        let g = CsrGraph::rmat(9, 8, 5);
        let l = GraphLayout::for_graph(&g);
        for kernel in [
            GapKernel::Bfs,
            GapKernel::Pr,
            GapKernel::Cc,
            GapKernel::Sssp,
            GapKernel::Bc,
            GapKernel::Tc,
        ] {
            let wl = generate(kernel, &g, VirtAddr(0), 50_000, 1);
            assert!(wl.len() as u64 >= 50_000, "{kernel:?} under budget");
            assert!(
                wl.len() as u64 <= 50_000 + 10_000,
                "{kernel:?} overshot: {}",
                wl.len()
            );
            assert!(
                wl.max_extent() <= l.total_pages * PAGE,
                "{kernel:?} escaped the layout"
            );
        }
    }
}
