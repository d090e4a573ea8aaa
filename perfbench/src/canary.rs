//! A machine-speed probe that runs interleaved with the simulation.
//!
//! On a shared virtual machine the host's speed drifts by a third or more
//! between time windows (co-tenants on the same cores and memory), which
//! swamps any difference between two versions of the simulator. The
//! canary is a fixed piece of work that shares nothing with the simulator
//! — random read-modify-writes over a 1 MiB table — run in short bursts
//! between chunks. Its rate measures the machine during the very windows
//! the simulation ran in, so the simulation's throughput can be scaled to
//! a reference machine speed.
//!
//! The table size was chosen by measurement on a 2-vCPU Xeon virtual
//! machine (2 MiB L2 per core): of register-only, 16 KiB, 1 MiB and
//! 16 MiB tables and 16–64 MiB pointer chases, the 1 MiB table's rate
//! followed the simulator's throughput most closely (log-log correlation
//! 0.88–0.96 across the workloads). The drift is in the cache, not the
//! clock: the register-only loop's rate did not move. The table is not
//! warmed before a burst: a warmed table measured the core's private
//! cache alone and at times swung three times as far as the simulator.

use std::time::Instant;

/// Canary rate, in million updates per host second, that throughput is
/// scaled to. It is about what the canary reaches on a 2.1 GHz Xeon
/// virtual machine.
pub const REFERENCE_MOPS: f64 = 75.0;

/// Table size in 64-bit words (1 MiB).
const WORDS: usize = 128 << 10;

/// Updates per burst: about a quarter of a millisecond.
const BURST: u64 = 16_384;

/// The probe's table, generator state, and accumulated timing.
#[derive(Debug)]
pub struct Canary {
    table: Vec<u64>,
    x: u64,
    ops: u64,
    secs: f64,
}

impl Default for Canary {
    fn default() -> Canary {
        Canary::new()
    }
}

impl Canary {
    /// Allocates and touches the table.
    pub fn new() -> Canary {
        Canary {
            table: vec![1; WORDS],
            x: 0x9e37_79b9_7f4a_7c15,
            ops: 0,
            secs: 0.0,
        }
    }

    /// Runs one timed burst of updates.
    pub fn burst(&mut self) {
        let t0 = Instant::now();
        let mask = WORDS - 1;
        let mut x = self.x;
        for _ in 0..BURST {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.table[i] = self.table[i].wrapping_add(x) ^ (self.table[(i + 1) & mask] >> 3);
        }
        self.x = x;
        std::hint::black_box(&self.table);
        self.ops += BURST;
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// Host seconds spent in bursts so far.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// Updates per host second over all bursts, in millions (0 before the
    /// first burst).
    pub fn mops(&self) -> f64 {
        if self.secs > 0.0 {
            self.ops as f64 / self.secs / 1e6
        } else {
            0.0
        }
    }
}
