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
//! empty sentinel (a real line address never reaches 2^63 − 1). Each set's
//! slice is recency-ordered (way 0 = MRU, valid entries form a prefix), so
//! replacement is exact LRU and reproduces the original nested-`Vec`
//! decisions bit for bit — the golden traces are pinned to it.

use crate::addr::CacheLineAddr;

/// LLC geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// A set-associative LLC with per-set LRU replacement and write-allocate,
/// writeback semantics, stored as a single flat array of packed entries.
#[derive(Clone, Debug)]
pub struct Llc {
    /// `n_sets × ways` packed entries; see module docs for the layout.
    entries: Vec<u64>,
    n_sets: usize,
    /// `n_sets − 1` when `n_sets` is a power of two (mask indexing), else 0.
    set_mask: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Llc {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(config: LlcConfig) -> Llc {
        let n_sets = config.sets();
        assert!(n_sets > 0, "LLC too small for its associativity");
        Llc {
            entries: vec![EMPTY; n_sets * config.ways],
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

    /// Serializes the packed entry array (LRU order included) and the
    /// hit/miss/writeback counters for a checkpoint. Geometry is rebuilt
    /// from configuration on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.entries);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.writebacks);
    }

    /// Rebuilds a cache from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects an entry array that does not match
    /// the geometry implied by `config`.
    pub fn restore(
        config: LlcConfig,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Llc, crate::checkpoint::CodecError> {
        let mut llc = Llc::new(config);
        let entries = r.get_u64_vec()?;
        if entries.len() != llc.entries.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "llc entry count",
                value: entries.len() as u64,
            });
        }
        llc.entries = entries;
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

    /// Performs a demand access to `line`. On a miss the line is allocated
    /// (write-allocate: even stores first fill the line).
    #[inline]
    pub fn access(&mut self, line: CacheLineAddr, is_write: bool) -> CacheAccess {
        let (hit, writeback) = self.touch(line, is_write);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        CacheAccess { hit, writeback }
    }

    /// Fills `line` without a demand access (page-migration pollution: the
    /// copy engine pulls the line through the hierarchy). Returns a dirty
    /// victim needing writeback, if any.
    pub fn fill(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        self.touch(line, dirty).1
    }

    /// Makes `line` the MRU entry of its set, OR-ing in `dirty`. On a miss
    /// the line is allocated, evicting the LRU entry of a full set. Returns
    /// whether the line was resident and the dirty victim to write back;
    /// counts writebacks but not hits or misses.
    ///
    /// One pass: the new MRU value goes into way 0 up front and each
    /// displaced entry is carried one way down as the scan proceeds. A hit
    /// at way `i` stops the carry there (ways `1..=i` now hold the old
    /// `0..i`, as a shift would leave them); otherwise the entry carried
    /// off the end is the LRU victim. Empty ways need no test inside the
    /// loop: no compare can match one (line addresses stay below
    /// `ADDR_MASK`), carrying through the empty suffix rewrites `EMPTY`
    /// over `EMPTY`, and a set that had room carries `EMPTY` off the end.
    #[inline]
    fn touch(&mut self, line: CacheLineAddr, dirty: bool) -> (bool, Option<CacheLineAddr>) {
        debug_assert!(line.0 < ADDR_MASK, "line address collides with EMPTY");
        let dirty_bit = if dirty { DIRTY } else { 0 };
        let base = self.set_index(line) * self.ways;
        let (mru, older) = self.entries[base..base + self.ways]
            .split_first_mut()
            .expect("a set has at least one way");
        let mut carried = *mru;
        if carried & ADDR_MASK == line.0 {
            *mru = carried | dirty_bit;
            return (true, None);
        }
        *mru = line.0 | dirty_bit;
        if carried == EMPTY {
            return (false, None);
        }
        for slot in older {
            carried = std::mem::replace(slot, carried);
            if carried & ADDR_MASK == line.0 {
                *mru = carried | dirty_bit;
                return (true, None);
            }
        }
        if carried == EMPTY || carried & DIRTY == 0 {
            return (false, None);
        }
        self.writebacks += 1;
        (false, Some(CacheLineAddr(carried & ADDR_MASK)))
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
                // Close the gap to keep the valid prefix contiguous.
                set.copy_within(i + 1.., i);
                set[self.ways - 1] = EMPTY;
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
}
