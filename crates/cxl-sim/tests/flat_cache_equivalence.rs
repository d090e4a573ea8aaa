//! Differential property tests pinning the flattened LLC/TLB to the old
//! nested-`Vec<Vec<_>>` implementation.
//!
//! The flat structures encode each set's exact-LRU order positionally in a
//! contiguous slice of a single array (MRU at the valid prefix's front,
//! packed dirty bit, `u64::MAX` empty sentinel). These tests drive the
//! real [`Llc`]/[`Tlb`] and a faithful re-implementation of the pre-flat
//! nested data structures through identical random operation streams and
//! demand equality of *every* observable: hit/miss results, writeback
//! victims, counters, and occupancy.

use cxl_sim::addr::{CacheLineAddr, Vpn};
use cxl_sim::cache::{Llc, LlcConfig};
use cxl_sim::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;

/// The old nested-Vec LLC: one MRU-ordered `Vec<(addr, dirty)>` per set.
struct NestedLlc {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl NestedLlc {
    fn new(config: LlcConfig) -> NestedLlc {
        NestedLlc {
            sets: vec![Vec::new(); config.sets()],
            ways: config.ways,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_of(&mut self, line: CacheLineAddr) -> &mut Vec<(u64, bool)> {
        let n = self.sets.len();
        &mut self.sets[(line.0 as usize) % n]
    }

    fn access(&mut self, line: CacheLineAddr, is_write: bool) -> (bool, Option<CacheLineAddr>) {
        let ways = self.ways;
        let set = self.set_of(line);
        if let Some(p) = set.iter().position(|&(a, _)| a == line.0) {
            let (a, d) = set.remove(p);
            set.insert(0, (a, d || is_write));
            self.hits += 1;
            return (true, None);
        }
        let wb = if set.len() == ways {
            let (a, d) = set.pop().expect("full set");
            d.then_some(CacheLineAddr(a))
        } else {
            None
        };
        set.insert(0, (line.0, is_write));
        self.misses += 1;
        if wb.is_some() {
            self.writebacks += 1;
        }
        (false, wb)
    }

    fn fill(&mut self, line: CacheLineAddr, dirty: bool) -> Option<CacheLineAddr> {
        let ways = self.ways;
        let set = self.set_of(line);
        if let Some(p) = set.iter().position(|&(a, _)| a == line.0) {
            let (a, d) = set.remove(p);
            set.insert(0, (a, d || dirty));
            return None;
        }
        let wb = if set.len() == ways {
            let (a, d) = set.pop().expect("full set");
            d.then_some(CacheLineAddr(a))
        } else {
            None
        };
        set.insert(0, (line.0, dirty));
        if wb.is_some() {
            self.writebacks += 1;
        }
        wb
    }

    fn invalidate(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let set = self.set_of(line);
        let p = set.iter().position(|&(a, _)| a == line.0)?;
        let (a, d) = set.remove(p);
        if d {
            self.writebacks += 1;
            Some(CacheLineAddr(a))
        } else {
            None
        }
    }

    fn contains(&self, line: CacheLineAddr) -> bool {
        self.sets[(line.0 as usize) % self.sets.len()]
            .iter()
            .any(|&(a, _)| a == line.0)
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The old nested-Vec TLB: one MRU-ordered `Vec<u64>` per set.
struct NestedTlb {
    sets: Vec<Vec<u64>>,
    ways: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl NestedTlb {
    fn new(config: TlbConfig) -> NestedTlb {
        NestedTlb {
            sets: vec![Vec::new(); config.entries / config.ways],
            ways: config.ways,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn set_of(&mut self, vpn: Vpn) -> &mut Vec<u64> {
        let n = self.sets.len();
        &mut self.sets[(vpn.0 as usize) % n]
    }

    fn lookup(&mut self, vpn: Vpn) -> bool {
        let set = self.set_of(vpn);
        if let Some(p) = set.iter().position(|&v| v == vpn.0) {
            let v = set.remove(p);
            set.insert(0, v);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, vpn: Vpn) {
        let ways = self.ways;
        let set = self.set_of(vpn);
        if set.contains(&vpn.0) {
            return;
        }
        if set.len() == ways {
            set.pop();
        }
        set.insert(0, vpn.0);
    }

    fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set_of(vpn);
        match set.iter().position(|&v| v == vpn.0) {
            Some(p) => {
                set.remove(p);
                self.invalidations += 1;
                true
            }
            None => false,
        }
    }

    fn flush(&mut self) {
        self.invalidations += self.occupancy() as u64;
        for s in &mut self.sets {
            s.clear();
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat exact-LRU LLC ≡ nested reference under interleaved demand
    /// accesses, migration fills, and invalidations, across geometries.
    #[test]
    fn flat_llc_equals_nested_llc(
        ways_sel in 0usize..3,
        ops in prop::collection::vec((0u64..192, any::<bool>(), 0u8..8), 1..500),
    ) {
        let config = match ways_sel {
            0 => LlcConfig { size_bytes: 2048, ways: 1 },
            1 => LlcConfig { size_bytes: 4096, ways: 2 },
            _ => LlcConfig { size_bytes: 8192, ways: 4 },
        };
        let mut flat = Llc::new(config);
        let mut nested = NestedLlc::new(config);
        for (addr, write, op) in ops {
            let line = CacheLineAddr(addr);
            match op {
                // Mostly demand accesses, some fills, some invalidations.
                0..=4 => {
                    let got = flat.access(line, write);
                    let (hit, wb) = nested.access(line, write);
                    prop_assert_eq!(got.hit, hit, "hit diverged at {}", addr);
                    prop_assert_eq!(got.writeback, wb, "writeback diverged at {}", addr);
                }
                5..=6 => {
                    prop_assert_eq!(flat.fill(line, write), nested.fill(line, write));
                }
                _ => {
                    prop_assert_eq!(flat.invalidate(line), nested.invalidate(line));
                }
            }
            prop_assert_eq!(flat.contains(line), nested.contains(line));
            prop_assert_eq!(flat.occupancy(), nested.occupancy());
        }
        prop_assert_eq!(flat.hits(), nested.hits);
        prop_assert_eq!(flat.misses(), nested.misses);
        prop_assert_eq!(flat.writebacks(), nested.writebacks);
    }

    /// Flat exact-LRU TLB ≡ nested reference under lookups, inserts,
    /// invalidations, and full flushes.
    #[test]
    fn flat_tlb_equals_nested_tlb(
        ways_sel in 0usize..2,
        ops in prop::collection::vec((0u64..96, 0u8..8), 1..500),
    ) {
        let config = match ways_sel {
            0 => TlbConfig { entries: 16, ways: 2 },
            _ => TlbConfig { entries: 64, ways: 4 },
        };
        let mut flat = Tlb::new(config);
        let mut nested = NestedTlb::new(config);
        for (v, op) in ops {
            let vpn = Vpn(v);
            match op {
                0..=3 => {
                    let got = flat.lookup(vpn);
                    prop_assert_eq!(got, nested.lookup(vpn), "lookup diverged at {}", v);
                    if !got {
                        flat.insert(vpn);
                        nested.insert(vpn);
                    }
                }
                4..=5 => {
                    flat.insert(vpn);
                    nested.insert(vpn);
                }
                6 => {
                    prop_assert_eq!(flat.invalidate(vpn), nested.invalidate(vpn));
                }
                _ => {
                    flat.flush();
                    nested.flush();
                }
            }
            prop_assert_eq!(flat.occupancy(), nested.occupancy());
        }
        prop_assert_eq!(flat.hits(), nested.hits);
        prop_assert_eq!(flat.misses(), nested.misses);
        prop_assert_eq!(flat.invalidations(), nested.invalidations);
    }
}
