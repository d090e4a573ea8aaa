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
//! VPN entries with `u64::MAX` as the empty sentinel. Under the default
//! [`ReplacementPolicy::ExactLru`] each set's slice is recency-ordered
//! (way 0 = MRU), reproducing the original nested-`Vec` decisions
//! exactly; [`ReplacementPolicy::TreeLru`] is available opt-in via
//! [`Tlb::with_policy`].

use crate::addr::Vpn;
use crate::cache::{plru_touch, plru_victim, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Per-set pseudo-LRU bit trees; empty unless `policy` is `TreeLru`.
    plru: Vec<u64>,
    policy: ReplacementPolicy,
    n_sets: usize,
    /// `n_sets − 1` when `n_sets` is a power of two (mask indexing), else 0.
    set_mask: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Builds an empty TLB with the default exact-LRU policy.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(config: TlbConfig) -> Tlb {
        Tlb::with_policy(config, ReplacementPolicy::ExactLru)
    }

    /// Builds an empty TLB under an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid, or if `TreeLru` is asked for
    /// with a non-power-of-two associativity.
    pub fn with_policy(config: TlbConfig, policy: ReplacementPolicy) -> Tlb {
        assert!(config.ways > 0 && config.entries > 0);
        assert_eq!(
            config.entries % config.ways,
            0,
            "entries must be a multiple of ways"
        );
        let n_sets = config.entries / config.ways;
        if policy == ReplacementPolicy::TreeLru {
            assert!(
                config.ways.is_power_of_two() && config.ways <= 64,
                "tree pseudo-LRU needs power-of-two associativity ≤ 64"
            );
        }
        Tlb {
            entries: vec![EMPTY; config.entries],
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
            invalidations: 0,
        }
    }

    /// The replacement policy this TLB was built with.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Serializes the entry array (LRU order included), pseudo-LRU trees,
    /// and hit/miss/invalidation counters for a checkpoint. Geometry and
    /// policy are rebuilt from configuration on restore.
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64_slice(&self.entries);
        w.put_u64_slice(&self.plru);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.invalidations);
    }

    /// Rebuilds a TLB from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors; rejects arrays that do not match the
    /// geometry implied by `config`/`policy`.
    pub fn restore(
        config: TlbConfig,
        policy: ReplacementPolicy,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Tlb, crate::checkpoint::CodecError> {
        let mut tlb = Tlb::with_policy(config, policy);
        let entries = r.get_u64_vec()?;
        if entries.len() != tlb.entries.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "tlb entry count",
                value: entries.len() as u64,
            });
        }
        let plru = r.get_u64_vec()?;
        if plru.len() != tlb.plru.len() {
            return Err(crate::checkpoint::CodecError::BadValue {
                what: "tlb plru tree count",
                value: plru.len() as u64,
            });
        }
        tlb.entries = entries;
        tlb.plru = plru;
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

    #[inline]
    fn levels(&self) -> u32 {
        self.ways.trailing_zeros()
    }

    /// Looks up `vpn`. On a hit the entry becomes most-recently-used and the
    /// method returns `true`. On a miss it returns `false`; the caller is
    /// expected to walk the page table and then [`Tlb::insert`].
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        let idx = self.set_index(vpn);
        let base = idx * self.ways;
        match self.policy {
            ReplacementPolicy::ExactLru => {
                let set = &mut self.entries[base..base + self.ways];
                for (i, &e) in set.iter().enumerate() {
                    if e == EMPTY {
                        break;
                    }
                    if e == vpn.0 {
                        // Move to front: front = most recently used.
                        set.copy_within(0..i, 1);
                        set[0] = vpn.0;
                        self.hits += 1;
                        return true;
                    }
                }
                self.misses += 1;
                false
            }
            ReplacementPolicy::TreeLru => {
                let levels = self.levels();
                let set = &self.entries[base..base + self.ways];
                for (w, &e) in set.iter().enumerate() {
                    if e == vpn.0 {
                        plru_touch(&mut self.plru[idx], levels, w);
                        self.hits += 1;
                        return true;
                    }
                }
                self.misses += 1;
                false
            }
        }
    }

    /// Records a hit on a VPN that is already most-recently-used, without
    /// re-scanning its set. Correct only when the caller's previous TLB
    /// operation was a `lookup(vpn)` hit or an `insert(vpn)` for the same
    /// VPN with nothing touched in between: a repeated `lookup` would find
    /// the entry at the MRU way and its move-to-front (exact LRU) or
    /// `plru_touch` (tree LRU) would be a no-op, so the only state change
    /// is the hit counter. The staged translate pass uses this for the
    /// second and later accesses of a same-page run.
    #[inline]
    pub fn repeat_hit(&mut self) {
        self.hits += 1;
    }

    /// Inserts a translation, evicting the LRU entry of the set if full.
    #[inline]
    pub fn insert(&mut self, vpn: Vpn) {
        let idx = self.set_index(vpn);
        let base = idx * self.ways;
        match self.policy {
            ReplacementPolicy::ExactLru => {
                let set = &mut self.entries[base..base + self.ways];
                let mut len = set.len();
                for (i, &e) in set.iter().enumerate() {
                    if e == vpn.0 {
                        return;
                    }
                    if e == EMPTY {
                        len = i;
                        break;
                    }
                }
                // Full set: the LRU tail entry is simply shifted off the end.
                let shift_upto = if len == set.len() { len - 1 } else { len };
                set.copy_within(0..shift_upto, 1);
                set[0] = vpn.0;
            }
            ReplacementPolicy::TreeLru => {
                let levels = self.levels();
                let mut empty_way = None;
                {
                    let set = &self.entries[base..base + self.ways];
                    for (w, &e) in set.iter().enumerate() {
                        if e == vpn.0 {
                            return;
                        }
                        if e == EMPTY && empty_way.is_none() {
                            empty_way = Some(w);
                        }
                    }
                }
                let way = empty_way.unwrap_or_else(|| plru_victim(self.plru[idx], levels));
                self.entries[base + way] = vpn.0;
                plru_touch(&mut self.plru[idx], levels, way);
            }
        }
    }

    /// Invalidates the translation for `vpn`, if cached (a shootdown for one
    /// page). Returns `true` if an entry was removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let base = self.set_index(vpn) * self.ways;
        let set = &mut self.entries[base..base + self.ways];
        for (i, &e) in set.iter().enumerate() {
            if e == EMPTY && self.policy == ReplacementPolicy::ExactLru {
                break;
            }
            if e == vpn.0 {
                match self.policy {
                    ReplacementPolicy::ExactLru => {
                        set.copy_within(i + 1.., i);
                        set[self.ways - 1] = EMPTY;
                    }
                    ReplacementPolicy::TreeLru => set[i] = EMPTY,
                }
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
        self.plru.fill(0);
    }

    /// Number of lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookup misses so far.
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
        assert!(!tlb.lookup(Vpn(1)));
        tlb.insert(Vpn(1));
        assert!(tlb.lookup(Vpn(1)));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // tiny: 8 entries, 2 ways -> 4 sets. VPNs 0, 4, 8 all map to set 0.
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(0));
        tlb.insert(Vpn(4));
        assert!(tlb.lookup(Vpn(0))); // 0 becomes MRU; 4 is LRU
        tlb.insert(Vpn(8)); // evicts 4
        assert!(tlb.lookup(Vpn(0)));
        assert!(tlb.lookup(Vpn(8)));
        assert!(!tlb.lookup(Vpn(4)), "LRU way was evicted");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(1));
        tlb.insert(Vpn(2));
        assert!(tlb.invalidate(Vpn(1)));
        assert!(!tlb.invalidate(Vpn(1)));
        assert!(!tlb.lookup(Vpn(1)));
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
        assert!(!tlb.lookup(Vpn(2)));
        assert_eq!(tlb.invalidations(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(3));
        tlb.insert(Vpn(3));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn invalidate_middle_entry_keeps_order() {
        // Set 0 holds {8 (MRU), 4, 0 (LRU)} in a 4-way set... tiny is
        // 2-way, so use {4 (MRU), 0 (LRU)}, drop the MRU, insert two more
        // and check the survivor ages out correctly.
        let mut tlb = Tlb::new(TlbConfig::tiny());
        tlb.insert(Vpn(0));
        tlb.insert(Vpn(4));
        assert!(tlb.invalidate(Vpn(4)));
        tlb.insert(Vpn(8)); // set now {8 (MRU), 0}
        tlb.insert(Vpn(12)); // evicts 0 (LRU)
        assert!(!tlb.lookup(Vpn(0)));
        assert!(tlb.lookup(Vpn(8)));
        assert!(tlb.lookup(Vpn(12)));
    }

    #[test]
    fn tree_plru_policy_hits_and_evicts() {
        let mut tlb = Tlb::with_policy(TlbConfig::tiny(), ReplacementPolicy::TreeLru);
        assert_eq!(tlb.policy(), ReplacementPolicy::TreeLru);
        tlb.insert(Vpn(0));
        tlb.insert(Vpn(4));
        assert!(tlb.lookup(Vpn(0))); // 4 becomes the pLRU victim
        tlb.insert(Vpn(8)); // evicts 4
        assert!(tlb.lookup(Vpn(0)));
        assert!(tlb.lookup(Vpn(8)));
        assert!(!tlb.lookup(Vpn(4)));
        assert!(tlb.invalidate(Vpn(8)));
        assert_eq!(tlb.occupancy(), 1);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
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
