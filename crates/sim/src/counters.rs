//! Cumulative hardware counters, mirroring the Nsight Compute metrics the
//! paper reports in Table 4.

use serde::{Deserialize, Serialize};

/// Cumulative per-device counters.
///
/// The fields correspond to the profiler metrics of Table 4: total cycles,
/// warp instructions, DRAM traffic, load requests and the sectors they
/// touched, plus L2 hit/miss totals from the simulator's cache model.
///
/// This is also the record of *one* launch: [`crate::KernelBuilder::launch`]
/// builds a `Counters` with `kernel_launches: 1`, and the lane counters, the
/// trace's kernel events and per-name stats, and the metrics totals are all
/// that record folded with `+=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Total simulated cycles across all launches (device clock domain).
    pub cycles: f64,
    /// Total warp instructions issued.
    pub warp_instructions: u64,
    /// Bytes read from DRAM (sequential + gather misses).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM: sequential stores plus the write-back half of
    /// read-modify-write scatter stores (each DRAM-missing store sector is
    /// fetched and written back).
    pub dram_write_bytes: u64,
    /// Warp-level load requests issued by gather-style accesses.
    pub load_requests: u64,
    /// Sectors touched by those load requests (before the L2 filter).
    pub sectors_requested: u64,
    /// Gather sectors that hit in the modeled L2.
    pub l2_hits: u64,
    /// Gather sectors that missed L2 and paid DRAM traffic.
    pub l2_misses: u64,
    /// Global atomic operations performed.
    pub atomics: u64,
}

impl Counters {
    /// Average sectors touched per warp load request — the coalescing
    /// quality metric of Table 4 (≈18 unclustered vs ≈6 clustered).
    pub fn sectors_per_request(&self) -> f64 {
        if self.load_requests == 0 {
            0.0
        } else {
            self.sectors_requested as f64 / self.load_requests as f64
        }
    }

    /// L2 hit rate over gather traffic.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Average cycles per warp instruction — Table 4 reports ~1037 for the
    /// unclustered gather vs ~116 for the clustered one.
    pub fn cycles_per_warp_instruction(&self) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.cycles / self.warp_instructions as f64
        }
    }

    /// Counter-wise difference `self - earlier`; use to isolate one
    /// kernel or phase out of a longer run.
    pub fn delta_since(&self, earlier: &Counters) -> CountersDelta {
        CountersDelta(Counters {
            kernel_launches: self.kernel_launches - earlier.kernel_launches,
            cycles: self.cycles - earlier.cycles,
            warp_instructions: self.warp_instructions - earlier.warp_instructions,
            dram_read_bytes: self.dram_read_bytes - earlier.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes - earlier.dram_write_bytes,
            load_requests: self.load_requests - earlier.load_requests,
            sectors_requested: self.sectors_requested - earlier.sectors_requested,
            l2_hits: self.l2_hits - earlier.l2_hits,
            l2_misses: self.l2_misses - earlier.l2_misses,
            atomics: self.atomics - earlier.atomics,
        })
    }
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, rhs: &Counters) {
        self.kernel_launches += rhs.kernel_launches;
        self.cycles += rhs.cycles;
        self.warp_instructions += rhs.warp_instructions;
        self.dram_read_bytes += rhs.dram_read_bytes;
        self.dram_write_bytes += rhs.dram_write_bytes;
        self.load_requests += rhs.load_requests;
        self.sectors_requested += rhs.sectors_requested;
        self.l2_hits += rhs.l2_hits;
        self.l2_misses += rhs.l2_misses;
        self.atomics += rhs.atomics;
    }
}

impl std::ops::Add<&Counters> for Counters {
    type Output = Counters;
    fn add(mut self, rhs: &Counters) -> Counters {
        self += rhs;
        self
    }
}

/// A counter delta between two snapshots; dereferences to [`Counters`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountersDelta(pub Counters);

impl std::ops::Deref for CountersDelta {
    type Target = Counters;
    fn deref(&self) -> &Counters {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let c = Counters::default();
        assert_eq!(c.sectors_per_request(), 0.0);
        assert_eq!(c.l2_hit_rate(), 0.0);
        assert_eq!(c.cycles_per_warp_instruction(), 0.0);
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let a = Counters {
            kernel_launches: 1,
            cycles: 10.0,
            dram_read_bytes: 64,
            ..Default::default()
        };
        let b = Counters {
            kernel_launches: 2,
            cycles: 5.0,
            atomics: 7,
            ..Default::default()
        };
        let sum = a + &b;
        assert_eq!(sum.kernel_launches, 3);
        assert_eq!(sum.cycles, 15.0);
        assert_eq!(sum.dram_read_bytes, 64);
        assert_eq!(sum.atomics, 7);
        let mut acc = a;
        acc += &b;
        assert_eq!(acc, sum);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = Counters {
            kernel_launches: 1,
            cycles: 100.0,
            warp_instructions: 10,
            dram_read_bytes: 64,
            ..Default::default()
        };
        let late = Counters {
            kernel_launches: 3,
            cycles: 400.0,
            warp_instructions: 50,
            dram_read_bytes: 256,
            load_requests: 4,
            sectors_requested: 40,
            ..Default::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.kernel_launches, 2);
        assert_eq!(d.cycles, 300.0);
        assert_eq!(d.warp_instructions, 40);
        assert_eq!(d.dram_read_bytes, 192);
        assert_eq!(d.sectors_per_request(), 10.0);
    }
}
