//! A set-associative TLB.
//!
//! The TLB determines when the hardware page walker runs and therefore when
//! PTE accessed bits get set — the signal DAMON samples. It is also the
//! target of shootdowns: ANB's hinting-fault protocol and every page
//! migration must invalidate translations, which is a large part of their
//! CPU cost (§2.1, §4.2).
//!
//! # Layout
//!
//! Like the LLC, the TLB is one contiguous `Vec<u64>` of `sets × ways`
//! VPN entries with `u64::MAX` as the empty sentinel. Each set's slice is
//! recency-ordered (way 0 = MRU), so replacement is exact LRU and
//! reproduces the original nested-`Vec` decisions exactly.

use crate::addr::Vpn;

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbConfig {
    /// A geometry similar to a modern x86 second-level TLB, scaled to the
    /// simulator's reduced footprints.
    pub fn scaled_default() -> TlbConfig {
        TlbConfig {
            entries: 512,
            ways: 8,
        }
    }

    /// A tiny TLB for unit tests.
    pub fn tiny() -> TlbConfig {
        TlbConfig {
            entries: 8,
            ways: 2,
        }
    }
}

/// Empty-slot sentinel (a VPN never reaches 2^64 − 1: virtual addresses
/// top out 12 shift bits earlier).
const EMPTY: u64 = u64::MAX;

/// A single-core, set-associative TLB with per-set LRU replacement,
/// stored as a single flat entry array.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// `n_sets × ways` VPN slots; see module docs for the layout.
    entries: Vec<u64>,
    n_sets: usize,
    /// `n_sets − 1` when `n_sets` is a power of two (mask indexing), else 0.
    set_mask: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.ways > 0 && config.entries > 0);
        assert_eq!(
            config.entries % config.ways,
            0,
            "entries must be a multiple of ways"
        );
        let n_sets = config.entries / config.ways;
        Tlb {
            entries: vec![EMPTY; config.entries],
            n_sets,
            set_mask: if n_sets.is_power_of_two() {
                n_sets - 1
            } else {
                0
            },
            ways: config.ways,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Serializes the entry array (LRU order included) and the
    /// hit/miss/invalidation counters for a checkpoint. Geometry is rebuilt
    /// from configuration on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.entries);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.invalidations);
    }

    /// Rebuilds a TLB from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects an entry array that does not match
    /// the geometry implied by `config`.
    pub fn restore(
        config: TlbConfig,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Tlb, crate::checkpoint::CodecError> {
        let mut tlb = Tlb::new(config);
        let entries = r.get_u64_vec()?;
        if entries.len() != tlb.entries.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "tlb entry count",
                value: entries.len() as u64,
            });
        }
        tlb.entries = entries;
        tlb.hits = r.get_u64()?;
        tlb.misses = r.get_u64()?;
        tlb.invalidations = r.get_u64()?;
        Ok(tlb)
    }

    #[inline]
    fn set_index(&self, vpn: Vpn) -> usize {
        if self.set_mask != 0 {
            (vpn.0 as usize) & self.set_mask
        } else {
            (vpn.0 as usize) % self.n_sets
        }
    }

    /// Translates `vpn`: the probe and, on a miss, the fill after the page
    /// walk, in one pass over the set. Returns whether the translation was
    /// cached; either way `vpn` leaves as the set's MRU entry, and a miss
    /// on a full set evicts its LRU entry.
    ///
    /// `vpn` goes into way 0 up front and each displaced entry is carried
    /// one way down as the scan proceeds. A hit at way `i` stops the carry
    /// there; otherwise the entry carried off the end is the evicted one.
    /// Empty ways need no test inside the loop: no VPN equals `EMPTY`, and
    /// carrying through the empty suffix rewrites `EMPTY` over `EMPTY`.
    #[inline]
    pub fn access(&mut self, vpn: Vpn) -> bool {
        debug_assert_ne!(vpn.0, EMPTY, "VPN collides with EMPTY");
        let base = self.set_index(vpn) * self.ways;
        let (mru, older) = self.entries[base..base + self.ways]
            .split_first_mut()
            .expect("a set has at least one way");
        let mut carried = *mru;
        if carried == vpn.0 {
            self.hits += 1;
            return true;
        }
        *mru = vpn.0;
        if carried != EMPTY {
            for slot in older {
                carried = std::mem::replace(slot, carried);
                if carried == vpn.0 {
                    self.hits += 1;
                    return true;
                }
            }
        }
        self.misses += 1;
        false
    }

    /// Invalidates the translation for `vpn`, if cached (a shootdown for one
    /// page). Returns `true` if an entry was removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let base = self.set_index(vpn) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY {
                break;
            }
            if e == vpn.0 {
                set.copy_within(i + 1.., i);
                set[self.ways - 1] = EMPTY;
                self.invalidations += 1;
                return true;
            }
        }
        false
    }

    /// Flushes the whole TLB (context switch / full shootdown).
    pub fn flush(&mut self) {
        self.invalidations += self.occupancy() as u64;
        self.entries.fill(EMPTY);
    }

    /// Number of translation hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of translation misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries invalidated so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of valid entries currently cached.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|&&e| e != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        assert!(!tlb.access(Vpn(1)));
        assert!(tlb.access(Vpn(1)));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // tiny: 8 entries, 2 ways -> 4 sets. VPNs 0, 4, 8 all map to set 0.
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.access(Vpn(0));
        tlb.access(Vpn(4));
        assert!(tlb.access(Vpn(0))); // 0 becomes MRU; 4 is LRU
        assert!(!tlb.access(Vpn(8))); // evicts 4
        assert!(tlb.access(Vpn(0)));
        assert!(tlb.access(Vpn(8)));
        assert!(!tlb.access(Vpn(4)), "LRU way was evicted");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.access(Vpn(1));
        tlb.access(Vpn(2));
        assert!(tlb.invalidate(Vpn(1)));
        assert!(!tlb.invalidate(Vpn(1)));
        assert!(!tlb.access(Vpn(1)));
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.access(Vpn(2)));
        // One shootdown plus the two entries the flush dropped.
        assert_eq!(tlb.invalidations(), 3);
    }

    #[test]
    fn repeated_access_is_idempotent() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        assert!(!tlb.access(Vpn(3)));
        assert!(tlb.access(Vpn(3)));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn invalidate_middle_entry_keeps_order() {
        // Set 0 holds {4 (MRU), 0 (LRU)}; drop the MRU, fill two more and
        // check the survivor ages out first.
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.access(Vpn(0));
        tlb.access(Vpn(4));
        assert!(tlb.invalidate(Vpn(4)));
        tlb.access(Vpn(8)); // set now {8 (MRU), 0}
        tlb.access(Vpn(12)); // evicts 0 (LRU)
        assert!(tlb.access(Vpn(8)));
        assert!(tlb.access(Vpn(12)));
        assert!(!tlb.access(Vpn(0)));
    }

    #[test]
    fn single_way_sets_replace_on_every_miss() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 4,
            ways: 1,
        });
        assert!(!tlb.access(Vpn(1)));
        assert!(!tlb.access(Vpn(5))); // same set: evicts 1
        assert!(tlb.access(Vpn(5)));
        assert!(!tlb.access(Vpn(1)));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 7,
            ways: 2,
        });
    }
}
