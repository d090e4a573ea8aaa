//! A set-associative, write-allocate last-level cache (LLC).
//!
//! Profilers and trackers in a CXL controller only ever see *cache-filtered*
//! traffic: the stream of LLC miss fills and writebacks. This module supplies
//! that filter. It also models the cache pollution caused by page migration
//! (§4.1): migrating a page drags all 64 of its lines through the hierarchy,
//! evicting useful data — one of the reasons migrating sparse pages is
//! harmful.
//!
//! # Layout
//!
//! The cache is one contiguous `Vec<u64>` of `sets × ways` packed entries —
//! no per-set allocation, no pointer chasing. An entry packs the line
//! address in bits 0..63 and the dirty flag in bit 63; `u64::MAX` is the
//! empty sentinel (a real line address never reaches 2^63 − 1). Under the
//! default [`ReplacementPolicy::ExactLru`] each set's slice is
//! recency-ordered (way 0 = MRU, valid entries form a prefix), which
//! reproduces the original nested-`Vec` LRU decisions bit for bit. The
//! opt-in [`ReplacementPolicy::TreeLru`] keeps entries in stable ways and
//! drives victim selection from a per-set pseudo-LRU bit tree instead —
//! cheaper per touch, but it approximates LRU, so it is *not* the default:
//! golden traces are pinned to exact LRU.

use crate::addr::CacheLineAddr;
use serde::{Deserialize, Serialize};

/// LLC geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl LlcConfig {
    /// Scaled default: 1 MiB, 16-way. The paper CAT-partitions a 60 MB LLC
    /// proportionally to cores (≈37 MB for 5–7 GB footprints, a ~0.6 %
    /// LLC:footprint ratio); with ~32 MiB scaled footprints, 1 MiB keeps
    /// the ratio within the same regime (~3 %).
    pub fn scaled_default() -> LlcConfig {
        LlcConfig {
            size_bytes: 1 << 20,
            ways: 16,
        }
    }

    /// A tiny cache for unit tests.
    pub fn tiny() -> LlcConfig {
        LlcConfig {
            size_bytes: 4096,
            ways: 2,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / 64 / self.ways
    }
}

/// Victim-selection policy for [`Llc`] (and the TLB, which shares the
/// flat-array design).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// True LRU, order-encoded within each set's contiguous slice. The
    /// default: byte-compatible with the original nested-`Vec`
    /// implementation and with every checked-in golden trace.
    #[default]
    ExactLru,
    /// Tree pseudo-LRU: a per-set binary bit tree points at the
    /// approximately-least-recent way. O(log ways) bit flips per touch
    /// instead of an O(ways) shift, at the cost of approximating LRU.
    /// Requires power-of-two associativity.
    TreeLru,
}

/// The outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was already resident.
    pub hit: bool,
    /// A dirty line evicted to make room, which must be written back to DRAM.
    pub writeback: Option<CacheLineAddr>,
}

/// Empty-slot sentinel: all ones (dirty bit set *and* an impossible
/// address), so a single compare rules a slot out.
const EMPTY: u64 = u64::MAX;
/// Dirty flag, packed above the 63 usable address bits.
const DIRTY: u64 = 1 << 63;
const ADDR_MASK: u64 = !DIRTY;

/// "No writeback" sentinel in [`Llc::access_grouped`]'s output array (a
/// real line address never reaches `u64::MAX`).
pub const NO_WRITEBACK: u64 = u64::MAX;

/// Write flag in [`Llc::access_grouped`]'s packed request words (bit 63,
/// above the 63 usable address bits — the same packing as the entry array).
pub const REQ_WRITE_BIT: u64 = DIRTY;

/// Batch density (requests per set) above which [`Llc::access_grouped`]
/// switches from the prefetched in-order probe to the counting-sort
/// grouped sweep. Below this, most sets are touched at most once, so
/// grouping has no same-set locality to exploit and only adds sort
/// passes; well above it, consecutive same-set probes amortize each
/// set's entry lines across several accesses.
const GROUP_MIN_REQS_PER_SET: usize = 4;

/// Reusable counting-sort scratch for [`Llc::access_grouped`].
///
/// All buffers are preallocated to the cache's set count on first use and
/// only the touched entries are reset between batches, so a batch over `n`
/// accesses costs `O(n)` regardless of how many sets the cache has.
#[derive(Clone, Debug, Default)]
pub struct LlcSetScratch {
    /// Per-set access count for the current batch (zeroed lazily).
    count: Vec<u32>,
    /// Per-set write cursor while scattering (valid only for touched sets).
    cursor: Vec<u32>,
    /// Sets touched by the current batch, in first-appearance order.
    touched: Vec<u32>,
    /// Per-access set index.
    set_of: Vec<u32>,
    /// Access indices grouped by set, preserving per-set arrival order.
    order: Vec<u32>,
}

impl LlcSetScratch {
    fn ensure(&mut self, n_sets: usize) {
        if self.count.len() < n_sets {
            self.count.resize(n_sets, 0);
            self.cursor.resize(n_sets, 0);
        }
    }
}

/// A set-associative LLC with per-set LRU replacement and write-allocate,
/// writeback semantics, stored as a single flat array of packed entries.
#[derive(Clone, Debug)]
pub struct Llc {
    /// `n_sets × ways` packed entries; see module docs for the layout.
    entries: Vec<u64>,
    /// Per-set pseudo-LRU bit trees; empty unless `policy` is `TreeLru`.
    plru: Vec<u64>,
    policy: ReplacementPolicy,
    n_sets: usize,
    /// `n_sets − 1` when `n_sets` is a power of two (mask indexing), else 0.
    set_mask: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

#[inline]
fn pack(addr: CacheLineAddr, dirty: bool) -> u64 {
    debug_assert!(addr.0 < DIRTY, "line address overflows packed entry");
    addr.0 | if dirty { DIRTY } else { 0 }
}

/// Marks `way` most-recently-used: each tree bit on the root→leaf path is
/// pointed *away* from the way just touched.
#[inline]
pub(crate) fn plru_touch(tree: &mut u64, levels: u32, way: usize) {
    let mut node = 1usize;
    for level in (0..levels).rev() {
        let took_right = (way >> level) & 1;
        if took_right == 1 {
            *tree &= !(1u64 << node);
        } else {
            *tree |= 1u64 << node;
        }
        node = node * 2 + took_right;
    }
}

/// Follows the tree bits root→leaf to the pseudo-least-recent way.
#[inline]
pub(crate) fn plru_victim(tree: u64, levels: u32) -> usize {
    let mut node = 1usize;
    let mut way = 0usize;
    for _ in 0..levels {
        let bit = ((tree >> node) & 1) as usize;
        way = way * 2 + bit;
        node = node * 2 + bit;
    }
    way
}

/// Probes one exact-LRU set slice (valid entries form a recency-ordered
/// prefix, way 0 = MRU). The replacement decision behind every exact-LRU
/// demand probe, scalar and grouped alike.
#[inline]
fn lru_probe_set(
    set: &mut [u64],
    line: CacheLineAddr,
    is_write: bool,
    hits: &mut u64,
    misses: &mut u64,
    writebacks: &mut u64,
) -> CacheAccess {
    let mut len = set.len();
    for (i, &e) in set.iter().enumerate() {
        if e == EMPTY {
            len = i;
            break;
        }
        if e & ADDR_MASK == line.0 {
            let promoted = e | if is_write { DIRTY } else { 0 };
            set.copy_within(0..i, 1);
            set[0] = promoted;
            *hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
    }
    *misses += 1;
    let writeback = if len == set.len() {
        let victim = set[len - 1];
        if victim & DIRTY != 0 {
            *writebacks += 1;
            Some(CacheLineAddr(victim & ADDR_MASK))
        } else {
            None
        }
    } else {
        len += 1;
        None
    };
    set.copy_within(0..len - 1, 1);
    set[0] = pack(line, is_write);
    CacheAccess {
        hit: false,
        writeback,
    }
}

/// Probes one tree-pLRU set slice (stable ways, per-set bit tree); the
/// tree-pLRU counterpart of [`lru_probe_set`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn plru_probe_set(
    set: &mut [u64],
    tree: &mut u64,
    levels: u32,
    line: CacheLineAddr,
    is_write: bool,
    hits: &mut u64,
    misses: &mut u64,
    writebacks: &mut u64,
) -> CacheAccess {
    let mut empty_way = None;
    for (w, &e) in set.iter().enumerate() {
        if e == EMPTY {
            if empty_way.is_none() {
                empty_way = Some(w);
            }
            continue;
        }
        if e & ADDR_MASK == line.0 {
            set[w] = e | if is_write { DIRTY } else { 0 };
            plru_touch(tree, levels, w);
            *hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
    }
    *misses += 1;
    let (way, writeback) = match empty_way {
        Some(w) => (w, None),
        None => {
            let w = plru_victim(*tree, levels);
            let victim = set[w];
            if victim & DIRTY != 0 {
                *writebacks += 1;
                (w, Some(CacheLineAddr(victim & ADDR_MASK)))
            } else {
                (w, None)
            }
        }
    };
    set[way] = pack(line, is_write);
    plru_touch(tree, levels, way);
    CacheAccess {
        hit: false,
        writeback,
    }
}

impl Llc {
    /// Builds an empty cache with the default exact-LRU policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(config: LlcConfig) -> Llc {
        Llc::with_policy(config, ReplacementPolicy::ExactLru)
    }

    /// Builds an empty cache under an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets, or if `TreeLru` is asked
    /// for with a non-power-of-two associativity.
    pub fn with_policy(config: LlcConfig, policy: ReplacementPolicy) -> Llc {
        let n_sets = config.sets();
        assert!(n_sets > 0, "LLC too small for its associativity");
        if policy == ReplacementPolicy::TreeLru {
            assert!(
                config.ways.is_power_of_two() && config.ways <= 64,
                "tree pseudo-LRU needs power-of-two associativity ≤ 64"
            );
        }
        Llc {
            entries: vec![EMPTY; n_sets * config.ways],
            plru: if policy == ReplacementPolicy::TreeLru {
                vec![0; n_sets]
            } else {
                Vec::new()
            },
            policy,
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                0
            },
            ways: config.ways,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The replacement policy this cache was built with.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Serializes the packed entry array (LRU order included), pseudo-LRU
    /// trees, and hit/miss/writeback counters for a checkpoint. Geometry
    /// and policy are rebuilt from configuration on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.entries);
        w.put_u64_slice(&self.plru);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }

    /// Rebuilds a cache from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects arrays that do not match the
    /// geometry implied by `config`/`policy`.
    pub fn restore(
        config: LlcConfig,
        policy: ReplacementPolicy,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Llc, crate::checkpoint::CodecError> {
        let mut llc = Llc::with_policy(config, policy);
        let entries = r.get_u64_vec()?;
        if entries.len() != llc.entries.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "llc entry count",
                value: entries.len() as u64,
            });
        }
        let plru = r.get_u64_vec()?;
        if plru.len() != llc.plru.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "llc plru tree count",
                value: plru.len() as u64,
            });
        }
        llc.entries = entries;
        llc.plru = plru;
        llc.hits = r.get_u64()?;
        llc.misses = r.get_u64()?;
        llc.writebacks = r.get_u64()?;
        Ok(llc)
    }

    #[inline]
    fn set_index(&self, line: CacheLineAddr) -> usize {
        if self.set_mask != 0 {
            (line.0 as usize) & self.set_mask
        } else {
            (line.0 as usize) % self.n_sets
        }
    }

    #[inline]
    fn levels(&self) -> u32 {
        self.ways.trailing_zeros()
    }

    /// Prefetch hint for the entry slice of `set_idx`: touch-loads one
    /// entry per cache line of the set (the crate forbids `unsafe`, so
    /// this is a `black_box` read rather than a prefetch intrinsic — an
    /// out-of-order core overlaps the resulting fills all the same). The
    /// batch probe issues this a few requests ahead of the demand access,
    /// so the set's lines are in flight while earlier probes retire — the
    /// memory-level parallelism a serial probe loop cannot express. No
    /// observable effect: the loaded values are discarded.
    #[inline]
    fn prefetch_set(&self, set_idx: usize) {
        let base = set_idx * self.ways;
        std::hint::black_box(self.entries[base]);
        if self.ways > 8 {
            std::hint::black_box(self.entries[base + 8]);
        }
    }

    /// Performs a demand access to `line`. On a miss the line is allocated
    /// (write-allocate: even stores first fill the line).
    #[inline]
    pub fn access(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        match self.policy {
            ReplacementPolicy::ExactLru => self.access_lru(line, is_write),
            ReplacementPolicy::TreeLru => self.access_plru(line, is_write),
        }
    }

    /// One demand access with the set index already computed (the batch
    /// probe hands sets out in grouped order).
    #[inline]
    fn access_at(&mut self, set_idx: usize, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        match self.policy {
            ReplacementPolicy::ExactLru => self.access_lru_at(set_idx, line, is_write),
            ReplacementPolicy::TreeLru => self.access_plru_at(set_idx, line, is_write),
        }
    }

    /// Probes the cache for a whole batch of packed requests (`line | `
    /// [`REQ_WRITE_BIT`]), choosing between two byte-identical probe
    /// orders by batch density.
    ///
    /// `hit_out[i]` / `wb_out[i]` ([`NO_WRITEBACK`] when none) receive the
    /// outcome of request `i` in the *original* order.
    ///
    /// **Dense batches** (several requests per set on average) are grouped
    /// by set with a stable counting sort so the per-set entry slice stays
    /// cache-resident across consecutive probes. Grouping preserves exact
    /// replacement semantics: a set's entries are touched only by accesses
    /// mapping to that set, and within each group the original arrival
    /// order is kept (the scatter is stable), so every hit/miss/victim/
    /// writeback decision — LRU recency order and pLRU tree alike — is
    /// identical to calling [`Llc::access`] per request in order. Only the
    /// interleaving *between* independent sets changes, which no cache
    /// state observes.
    ///
    /// **Sparse batches** (the common case: quiet-segment blocks are a few
    /// hundred to a few thousand requests over ~1 K sets, so most sets see
    /// at most one probe) gain nothing from grouping — there is no
    /// same-set reuse to create — and would pay the sort's extra passes.
    /// They run in original order with a [`Llc::prefetch_set`] lookahead
    /// instead: the whole request vector is known up front, so the probe
    /// `i` can start the line fills for request `i + 8` concurrently.
    pub fn access_grouped(
        &mut self,
        reqs: &[u64],
        hit_out: &mut Vec<bool>,
        wb_out: &mut Vec<u64>,
        scratch: &mut LlcSetScratch,
    ) {
        let n = reqs.len();
        hit_out.clear();
        hit_out.resize(n, false);
        wb_out.clear();
        wb_out.resize(n, NO_WRITEBACK);
        if n < GROUP_MIN_REQS_PER_SET * self.n_sets {
            // Probe in original order, one warm window at a time: a burst
            // of independent touch-loads pulls every set the window will
            // probe into L1 with full memory-level parallelism, then the
            // (serially dependent) probe loop runs against warm lines.
            // A window of 32 touches at most 64 cache lines — comfortably
            // L1-resident until the probe reaches them.
            const WARM_WINDOW: usize = 32;
            match self.policy {
                // Replacement policy hoisted out of the loop. Under exact
                // LRU, any probe — hit or fill — leaves its line at way 0
                // (MRU), so a *consecutive* re-probe of the same line
                // would scan exactly one entry and its move-to-front
                // would be a no-op: the only state changes are the dirty
                // bit and the hit counter, which the fast path applies
                // directly. Word-granular streams revisit the same 64 B
                // line in runs, so this skips most probes entirely.
                ReplacementPolicy::ExactLru => {
                    let mut prev = EMPTY; // no line address is ever EMPTY
                    let mut prev_base = 0usize;
                    let mut w0 = 0usize;
                    while w0 < n {
                        let w1 = (w0 + WARM_WINDOW).min(n);
                        for &r in &reqs[w0..w1] {
                            self.prefetch_set(self.set_index(CacheLineAddr(r & ADDR_MASK)));
                        }
                        for i in w0..w1 {
                            let r = reqs[i];
                            let line = r & ADDR_MASK;
                            if line == prev {
                                if r & REQ_WRITE_BIT != 0 {
                                    self.entries[prev_base] |= DIRTY;
                                }
                                self.hits += 1;
                                hit_out[i] = true;
                                continue;
                            }
                            let set_idx = self.set_index(CacheLineAddr(line));
                            let res = self.access_lru_at(
                                set_idx,
                                CacheLineAddr(line),
                                r & REQ_WRITE_BIT != 0,
                            );
                            hit_out[i] = res.hit;
                            if let Some(wb) = res.writeback {
                                wb_out[i] = wb.0;
                            }
                            prev = line;
                            prev_base = set_idx * self.ways;
                        }
                        w0 = w1;
                    }
                }
                ReplacementPolicy::TreeLru => {
                    let mut w0 = 0usize;
                    while w0 < n {
                        let w1 = (w0 + WARM_WINDOW).min(n);
                        for &r in &reqs[w0..w1] {
                            self.prefetch_set(self.set_index(CacheLineAddr(r & ADDR_MASK)));
                        }
                        for i in w0..w1 {
                            let line = CacheLineAddr(reqs[i] & ADDR_MASK);
                            let res = self.access_plru_at(
                                self.set_index(line),
                                line,
                                reqs[i] & REQ_WRITE_BIT != 0,
                            );
                            hit_out[i] = res.hit;
                            if let Some(wb) = res.writeback {
                                wb_out[i] = wb.0;
                            }
                        }
                        w0 = w1;
                    }
                }
            }
            return;
        }
        scratch.ensure(self.n_sets);
        scratch.set_of.clear();
        scratch.touched.clear();
        for &r in reqs {
            let si = self.set_index(CacheLineAddr(r & ADDR_MASK)) as u32;
            scratch.set_of.push(si);
            if scratch.count[si as usize] == 0 {
                scratch.touched.push(si);
            }
            scratch.count[si as usize] += 1;
        }
        let mut off = 0u32;
        for &si in &scratch.touched {
            scratch.cursor[si as usize] = off;
            off += scratch.count[si as usize];
        }
        scratch.order.clear();
        scratch.order.resize(n, 0);
        for (i, &si) in scratch.set_of.iter().enumerate() {
            let c = &mut scratch.cursor[si as usize];
            scratch.order[*c as usize] = i as u32;
            *c += 1;
        }
        let mut pos = 0usize;
        for (j, &si) in scratch.touched.iter().enumerate() {
            if let Some(&next) = scratch.touched.get(j + 1) {
                self.prefetch_set(next as usize);
            }
            let cnt = scratch.count[si as usize] as usize;
            for &i in &scratch.order[pos..pos + cnt] {
                let i = i as usize;
                let r = reqs[i];
                let res = self.access_at(
                    si as usize,
                    CacheLineAddr(r & ADDR_MASK),
                    r & REQ_WRITE_BIT != 0,
                );
                hit_out[i] = res.hit;
                if let Some(wb) = res.writeback {
                    wb_out[i] = wb.0;
                }
            }
            pos += cnt;
            scratch.count[si as usize] = 0;
        }
    }

    fn access_lru(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        self.access_lru_at(self.set_index(line), line, is_write)
    }

    #[inline]
    fn access_lru_at(
        &mut self,
        set_idx: usize,
        line: CacheLineAddr,
        is_write: bool,
    ) -> CacheAccess {
        let base = set_idx * self.ways;
        lru_probe_set(
            &mut self.entries[base..base + self.ways],
            line,
            is_write,
            &mut self.hits,
            &mut self.misses,
            &mut self.writebacks,
        )
    }

    fn access_plru(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        self.access_plru_at(self.set_index(line), line, is_write)
    }

    #[inline]
    fn access_plru_at(&mut self, idx: usize, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        let base = idx * self.ways;
        let levels = self.levels();
        plru_probe_set(
            &mut self.entries[base..base + self.ways],
            &mut self.plru[idx],
            levels,
            line,
            is_write,
            &mut self.hits,
            &mut self.misses,
            &mut self.writebacks,
        )
    }

    /// Fills `line` without a demand access (page-migration pollution: the
    /// copy engine pulls the line through the hierarchy). Returns a dirty
    /// victim needing writeback, if any.
    pub fn fill(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        match self.policy {
            ReplacementPolicy::ExactLru => self.fill_lru(line, dirty),
            ReplacementPolicy::TreeLru => self.fill_plru(line, dirty),
        }
    }

    fn fill_lru(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        let base = self.set_index(line) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        let mut len = set.len();
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY {
                len = i;
                break;
            }
            if e & ADDR_MASK == line.0 {
                let promoted = e | if dirty { DIRTY } else { 0 };
                set.copy_within(0..i, 1);
                set[0] = promoted;
                return None;
            }
        }
        let writeback = if len == set.len() {
            let victim = set[len - 1];
            if victim & DIRTY != 0 {
                self.writebacks += 1;
                Some(CacheLineAddr(victim & ADDR_MASK))
            } else {
                None
            }
        } else {
            len += 1;
            None
        };
        set.copy_within(0..len - 1, 1);
        set[0] = pack(line, dirty);
        writeback
    }

    fn fill_plru(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        let idx = self.set_index(line);
        let base = idx * self.ways;
        let levels = self.levels();
        let set = &mut self.entries[base..base + self.ways];
        let mut empty_way = None;
        for (w, &e) in set.iter().enumerate() {
            if e == EMPTY {
                if empty_way.is_none() {
                    empty_way = Some(w);
                }
                continue;
            }
            if e & ADDR_MASK == line.0 {
                set[w] = e | if dirty { DIRTY } else { 0 };
                plru_touch(&mut self.plru[idx], levels, w);
                return None;
            }
        }
        let (way, writeback) = match empty_way {
            Some(w) => (w, None),
            None => {
                let w = plru_victim(self.plru[idx], levels);
                let victim = set[w];
                if victim & DIRTY != 0 {
                    self.writebacks += 1;
                    (w, Some(CacheLineAddr(victim & ADDR_MASK)))
                } else {
                    (w, None)
                }
            }
        };
        set[way] = pack(line, dirty);
        plru_touch(&mut self.plru[idx], levels, way);
        writeback
    }

    /// Invalidates `line` if resident, returning it if it was dirty.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let base = self.set_index(line) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY {
                break;
            }
            if e & ADDR_MASK == line.0 {
                match self.policy {
                    ReplacementPolicy::ExactLru => {
                        // Close the gap to keep the valid prefix contiguous.
                        set.copy_within(i + 1.., i);
                        set[self.ways - 1] = EMPTY;
                    }
                    ReplacementPolicy::TreeLru => set[i] = EMPTY,
                }
                if e & DIRTY != 0 {
                    self.writebacks += 1;
                    return Some(CacheLineAddr(e & ADDR_MASK));
                }
                return None;
            }
        }
        None
    }

    /// Whether `line` is currently resident (does not touch LRU state).
    #[inline]
    pub fn contains(&self, line: CacheLineAddr) -> bool {
        let base = self.set_index(line) * self.ways;
        self.entries[base..base + self.ways]
            .iter()
            .any(|&e| e != EMPTY && e & ADDR_MASK == line.0)
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|&&e| e != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let c = LlcConfig::tiny();
        assert_eq!(c.sets(), 32);
        assert_eq!(LlcConfig::scaled_default().sets(), 1024);
    }

    #[test]
    fn miss_then_hit() {
        let mut llc = Llc::new(LlcConfig::tiny());
        let a = CacheLineAddr(100);
        assert!(!llc.access(a, false).hit);
        assert!(llc.access(a, false).hit);
        assert_eq!(llc.hits(), 1);
        assert_eq!(llc.misses(), 1);
    }

    #[test]
    fn write_allocate_and_writeback() {
        // tiny: 32 sets, 2 ways. Lines 0, 32, 64 collide in set 0.
        let mut llc = Llc::new(LlcConfig::tiny());
        let (a, b, c) = (CacheLineAddr(0), CacheLineAddr(32), CacheLineAddr(64));
        llc.access(a, true); // dirty
        llc.access(b, false);
        let r = llc.access(c, false); // evicts a (LRU), which is dirty
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(a));
        assert_eq!(llc.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), false);
        llc.access(CacheLineAddr(32), false);
        let r = llc.access(CacheLineAddr(64), false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), false); // clean fill
        llc.access(CacheLineAddr(0), true); // dirtied by write hit
        llc.access(CacheLineAddr(32), false);
        llc.access(CacheLineAddr(0), false); // make 32 the LRU
        let r = llc.access(CacheLineAddr(64), false); // evicts 32 (clean)
        assert_eq!(r.writeback, None);
        let r = llc.access(CacheLineAddr(96), false); // evicts 0 (dirty)
        assert_eq!(r.writeback, Some(CacheLineAddr(0)));
    }

    #[test]
    fn fill_pollutes_and_can_evict() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), true);
        llc.access(CacheLineAddr(32), false);
        // Migration-style fill evicts the dirty LRU line 0.
        llc.access(CacheLineAddr(32), false); // make 0 LRU
        let wb = llc.fill(CacheLineAddr(64), false);
        assert_eq!(wb, Some(CacheLineAddr(0)));
        assert!(llc.contains(CacheLineAddr(64)));
    }

    #[test]
    fn invalidate_returns_dirty_line() {
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(5), true);
        assert_eq!(llc.invalidate(CacheLineAddr(5)), Some(CacheLineAddr(5)));
        assert!(!llc.contains(CacheLineAddr(5)));
        assert_eq!(llc.invalidate(CacheLineAddr(5)), None);
    }

    #[test]
    fn invalidate_middle_of_full_set_keeps_lru_order() {
        // 2-way tiny cache: fill set 0 with {32 (MRU), 0 (LRU)}, then
        // invalidate the MRU and check the survivor still evicts last.
        let mut llc = Llc::new(LlcConfig::tiny());
        llc.access(CacheLineAddr(0), false);
        llc.access(CacheLineAddr(32), false);
        llc.invalidate(CacheLineAddr(32));
        assert!(llc.contains(CacheLineAddr(0)));
        assert_eq!(llc.occupancy(), 1);
        llc.access(CacheLineAddr(64), false); // fills the freed way
        assert!(llc.contains(CacheLineAddr(0)));
        assert!(llc.contains(CacheLineAddr(64)));
    }

    #[test]
    fn tree_plru_basic_hit_miss_and_full_set_eviction() {
        let mut llc = Llc::with_policy(LlcConfig::tiny(), ReplacementPolicy::TreeLru);
        assert_eq!(llc.policy(), ReplacementPolicy::TreeLru);
        let (a, b) = (CacheLineAddr(0), CacheLineAddr(32));
        assert!(!llc.access(a, true).hit);
        assert!(!llc.access(b, false).hit);
        assert!(llc.access(a, false).hit);
        assert_eq!(llc.occupancy(), 2);
        // Set 0 is full; b was touched least recently, so the pLRU tree
        // must pick it (for 2 ways pLRU *is* exact LRU).
        let r = llc.access(CacheLineAddr(64), false);
        assert!(!r.hit);
        assert!(llc.contains(a));
        assert!(!llc.contains(b));
        assert_eq!(r.writeback, None, "b was clean");
        // a is dirty; evicting it must write back.
        let r = llc.access(CacheLineAddr(96), false);
        assert_eq!(r.writeback, Some(a));
    }

    #[test]
    fn tree_plru_invalidate_frees_the_way() {
        let mut llc = Llc::with_policy(LlcConfig::tiny(), ReplacementPolicy::TreeLru);
        llc.access(CacheLineAddr(0), true);
        assert_eq!(llc.invalidate(CacheLineAddr(0)), Some(CacheLineAddr(0)));
        assert_eq!(llc.occupancy(), 0);
        assert!(!llc.contains(CacheLineAddr(0)));
    }

    #[test]
    fn grouped_probe_matches_scalar_access_for_both_policies() {
        for policy in [ReplacementPolicy::ExactLru, ReplacementPolicy::TreeLru] {
            let mut scalar = Llc::with_policy(LlcConfig::tiny(), policy);
            let mut grouped = scalar.clone();
            let mut x = 0x1234_5u64;
            let reqs: Vec<u64> = (0..512)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 20) % 256) | if x & 1 == 1 { REQ_WRITE_BIT } else { 0 }
                })
                .collect();
            let (mut hits, mut wbs) = (Vec::new(), Vec::new());
            let mut scratch = LlcSetScratch::default();
            // Two batches, to exercise the lazy scratch reset between them.
            for batch in reqs.chunks(256) {
                let expect: Vec<CacheAccess> = batch
                    .iter()
                    .map(|&r| {
                        scalar.access(CacheLineAddr(r & !REQ_WRITE_BIT), r & REQ_WRITE_BIT != 0)
                    })
                    .collect();
                grouped.access_grouped(batch, &mut hits, &mut wbs, &mut scratch);
                for (i, e) in expect.iter().enumerate() {
                    assert_eq!(hits[i], e.hit, "{policy:?} req {i}");
                    assert_eq!(
                        wbs[i],
                        e.writeback.map_or(NO_WRITEBACK, |w| w.0),
                        "{policy:?} req {i}"
                    );
                }
            }
            assert_eq!(scalar.entries, grouped.entries, "{policy:?}");
            assert_eq!(scalar.plru, grouped.plru, "{policy:?}");
            assert_eq!(
                (scalar.hits, scalar.misses, scalar.writebacks),
                (grouped.hits, grouped.misses, grouped.writebacks),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn plru_tree_victim_walks_touch_history() {
        // 8 ways, 3 levels: touching every way in order leaves way 0 as
        // the pseudo-LRU victim (it was touched longest ago and no other
        // touch redirected the tree back toward it... verify against a
        // brute-force expectation for this specific sequence).
        let mut tree = 0u64;
        for w in 0..8 {
            plru_touch(&mut tree, 3, w);
        }
        assert_eq!(plru_victim(tree, 3), 0);
        plru_touch(&mut tree, 3, 0);
        assert_ne!(plru_victim(tree, 3), 0);
    }
}
