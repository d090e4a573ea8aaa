//! Differential property tests pinning the flattened LLC/TLB to the old
//! nested-`Vec<Vec<_>>` implementation, and the one-pass TLB access to the
//! two-pass lookup-then-insert it replaced.
//!
//! The flat structures encode each set's exact-LRU order positionally in a
//! contiguous slice of a single array (MRU at the valid prefix's front,
//! packed dirty bit, `u64::MAX` empty sentinel). These tests drive the
//! real [`Llc`]/[`Tlb`] and a faithful re-implementation of the pre-flat
//! nested data structures through identical random operation streams and
//! demand equality of *every* observable: hit/miss results, writeback
//! victims, counters, and occupancy. Geometries include one-way sets and
//! set counts that are not a power of two (modulo set indexing).

use cxl_sim::addr::{CacheLineAddr, Vpn};
use cxl_sim::cache::{Llc, LlcConfig};
use cxl_sim::checkpoint::StateWriter;
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

    /// A translation: lookup, then insert after the page walk on a miss.
    fn access(&mut self, vpn: Vpn) -> bool {
        let hit = self.lookup(vpn);
        if !hit {
            self.insert(vpn);
        }
        hit
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

/// The flat TLB as it was before the one-pass access: a probe that moves
/// a hit to the front, then on a miss a second scan to insert at the
/// front, evicting the LRU way of a full set.
struct TwoPassTlb {
    entries: Vec<u64>,
    n_sets: usize,
    ways: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl TwoPassTlb {
    const EMPTY: u64 = u64::MAX;

    fn new(config: TlbConfig) -> TwoPassTlb {
        TwoPassTlb {
            entries: vec![Self::EMPTY; config.entries],
            n_sets: config.entries / config.ways,
            ways: config.ways,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn set(&mut self, vpn: Vpn) -> &mut [u64] {
        let base = (vpn.0 as usize % self.n_sets) * self.ways;
        &mut self.entries[base..base + self.ways]
    }

    fn lookup(&mut self, vpn: Vpn) -> bool {
        let set = self.set(vpn);
        for (i, &e) in set.iter().enumerate() {
            if e == Self::EMPTY {
                break;
            }
            if e == vpn.0 {
                set.copy_within(0..i, 1);
                set[0] = vpn.0;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    fn insert(&mut self, vpn: Vpn) {
        let set = self.set(vpn);
        let mut len = set.len();
        for (i, &e) in set.iter().enumerate() {
            if e == vpn.0 {
                return;
            }
            if e == Self::EMPTY {
                len = i;
                break;
            }
        }
        let shift_upto = if len == set.len() { len - 1 } else { len };
        set.copy_within(0..shift_upto, 1);
        set[0] = vpn.0;
    }

    fn invalidate(&mut self, vpn: Vpn) -> bool {
        let ways = self.ways;
        let set = self.set(vpn);
        for (i, &e) in set.iter().enumerate() {
            if e == Self::EMPTY {
                break;
            }
            if e == vpn.0 {
                set.copy_within(i + 1.., i);
                set[ways - 1] = Self::EMPTY;
                self.invalidations += 1;
                return true;
            }
        }
        false
    }

    fn flush(&mut self) {
        self.invalidations += self.entries.iter().filter(|&&e| e != Self::EMPTY).count() as u64;
        self.entries.fill(Self::EMPTY);
    }

    /// The bytes [`Tlb::save`] writes for the same state.
    fn saved(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64_slice(&self.entries);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.invalidations);
        w.finish()
    }
}

fn saved(tlb: &Tlb) -> Vec<u8> {
    let mut w = StateWriter::new();
    tlb.save(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One-pass [`Tlb::access`] ≡ lookup-then-insert on random VPN streams
    /// with shootdowns and full flushes interleaved: same hit/miss answers
    /// and counters, and the same saved entry array (LRU order included)
    /// after every operation. 24/3 and 512/8 have eight and 64 sets; 36/3
    /// has twelve, which indexes by modulo rather than by mask.
    #[test]
    fn fused_tlb_access_equals_two_pass_reference(
        geo_sel in 0usize..5,
        ops in prop::collection::vec((0u64..1200, 0u8..16), 1..400),
    ) {
        let (entries, ways) = [(8, 2), (512, 8), (24, 3), (36, 3), (4, 1)][geo_sel];
        let config = TlbConfig { entries, ways };
        let mut tlb = Tlb::new(config);
        let mut reference = TwoPassTlb::new(config);
        // Fold VPNs onto a few sets' worth of conflicts so sets fill up.
        let span = (entries as u64 * 3).max(8);
        for (v, op) in ops {
            let vpn = Vpn(v % span);
            match op {
                0..=12 => {
                    let hit = reference.lookup(vpn);
                    if !hit {
                        reference.insert(vpn);
                    }
                    prop_assert_eq!(tlb.access(vpn), hit, "access diverged at {}", vpn.0);
                }
                13..=14 => {
                    prop_assert_eq!(tlb.invalidate(vpn), reference.invalidate(vpn));
                }
                _ => {
                    tlb.flush();
                    reference.flush();
                }
            }
            prop_assert_eq!(saved(&tlb), reference.saved());
        }
        prop_assert_eq!(tlb.hits(), reference.hits);
        prop_assert_eq!(tlb.misses(), reference.misses);
    }

    /// Flat exact-LRU LLC ≡ nested reference under interleaved demand
    /// accesses, migration fills, and invalidations, across geometries.
    #[test]
    fn flat_llc_equals_nested_llc(
        ways_sel in 0usize..5,
        ops in prop::collection::vec((0u64..192, any::<bool>(), 0u8..8), 1..500),
    ) {
        let config = match ways_sel {
            0 => LlcConfig { size_bytes: 2048, ways: 1 },
            1 => LlcConfig { size_bytes: 4096, ways: 2 },
            2 => LlcConfig { size_bytes: 8192, ways: 4 },
            // 24 one-way sets: direct-mapped, modulo set indexing.
            3 => LlcConfig { size_bytes: 64 * 24, ways: 1 },
            // 12 three-way sets.
            _ => LlcConfig { size_bytes: 64 * 3 * 12, ways: 3 },
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

    /// Flat exact-LRU TLB ≡ nested reference under translations,
    /// invalidations, and full flushes.
    #[test]
    fn flat_tlb_equals_nested_tlb(
        ways_sel in 0usize..4,
        ops in prop::collection::vec((0u64..96, 0u8..8), 1..500),
    ) {
        let config = match ways_sel {
            0 => TlbConfig { entries: 16, ways: 2 },
            1 => TlbConfig { entries: 64, ways: 4 },
            // Four one-way sets.
            2 => TlbConfig { entries: 4, ways: 1 },
            // Twelve three-way sets.
            _ => TlbConfig { entries: 36, ways: 3 },
        };
        let mut flat = Tlb::new(config);
        let mut nested = NestedTlb::new(config);
        for (v, op) in ops {
            let vpn = Vpn(v);
            match op {
                0..=5 => {
                    let got = flat.access(vpn);
                    prop_assert_eq!(got, nested.access(vpn), "access diverged at {}", v);
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
