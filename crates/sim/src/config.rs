//! Device configurations mirroring Table 3 of the paper, plus the cost-model
//! calibration constants derived from its microbenchmarks.

use serde::{Deserialize, Serialize};

/// Static description of a simulated GPU plus cost-model calibration.
///
/// The hardware columns come from Table 3 of the paper; the calibration
/// fields are fitted so that the simulator reproduces the microarchitectural
/// measurements of Table 4 and the speedups of Figure 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Human-readable device name, e.g. `"A100"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Warp schedulers per SM (each can issue one warp instruction/cycle).
    pub warp_schedulers_per_sm: u32,
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Theoretical DRAM bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Fraction of theoretical bandwidth achievable by well-formed streaming
    /// kernels (empirically ~0.85-0.9 on Ampere).
    pub bandwidth_efficiency: f64,
    /// L2 cache size in bytes.
    pub l2_bytes: u64,
    /// L1 cache size per SM in bytes (informational; the L1 is not modeled).
    pub l1_bytes: u64,
    /// Maximum shared memory configurable per SM, bytes. Partitioned hash
    /// joins size their partitions against this.
    pub shared_mem_bytes: u64,
    /// Global memory capacity in bytes. Allocations beyond this fail.
    pub global_mem_bytes: u64,
    /// Maximum radix bits a single RADIX-PARTITION pass can produce
    /// (8 on Ampere, i.e. 256 partitions — see Section 2.3).
    pub max_radix_bits_per_pass: u32,
    /// Fixed per-kernel launch overhead, seconds.
    pub kernel_launch_overhead: f64,
    /// Latency-bound penalty applied to poorly coalesced DRAM sectors:
    /// effective cost per sector is `1 + penalty * (spr/ideal - 1)` where
    /// `spr` is the measured sectors-per-request. Calibrated so the
    /// unclustered/clustered gather cycle ratio matches Table 4 (~8.5x).
    pub uncoalesced_penalty: f64,
    /// L2 cache bandwidth in bytes/second; gather sectors that hit in L2
    /// are charged against this instead of DRAM bandwidth.
    pub l2_bandwidth: f64,
    /// Cycles for which an atomic RMW to a *contended* address occupies the
    /// L2 atomic unit; the hottest address serializes at this rate.
    pub atomic_serialize_cycles: f64,
    /// Baseline throughput cost of an uncontended global atomic, in warp
    /// instructions charged per atomic.
    pub atomic_instr_cost: f64,
}

impl DeviceConfig {
    /// NVIDIA A100-SXM4-40GB (compute capability 8.0). Table 3, right column.
    pub fn a100() -> Self {
        DeviceConfig {
            name: "A100".to_string(),
            sms: 108,
            warp_schedulers_per_sm: 4,
            clock_hz: 1.095e9,
            mem_bandwidth: 1555.0e9,
            bandwidth_efficiency: 0.87,
            l2_bytes: 40 << 20,
            l1_bytes: 192 << 10,
            shared_mem_bytes: 164 << 10,
            global_mem_bytes: 40 << 30,
            max_radix_bits_per_pass: 8,
            kernel_launch_overhead: 3.0e-6,
            l2_bandwidth: 5.0e12,
            uncoalesced_penalty: 0.35,
            atomic_serialize_cycles: 2.0,
            atomic_instr_cost: 2.0,
        }
    }

    /// NVIDIA GeForce RTX 3090 (compute capability 8.6). Table 3, left
    /// column. Less L2 (6 MB) and lower bandwidth make unclustered gathers
    /// comparatively more expensive, which is why Figure 7's GFTR speedups
    /// are larger on this part.
    pub fn rtx3090() -> Self {
        DeviceConfig {
            name: "RTX3090".to_string(),
            sms: 82,
            warp_schedulers_per_sm: 4,
            clock_hz: 1.395e9,
            mem_bandwidth: 936.0e9,
            bandwidth_efficiency: 0.85,
            l2_bytes: 6 << 20,
            l1_bytes: 128 << 10,
            shared_mem_bytes: 100 << 10,
            global_mem_bytes: 24 << 30,
            max_radix_bits_per_pass: 8,
            kernel_launch_overhead: 3.0e-6,
            l2_bandwidth: 2.2e12,
            uncoalesced_penalty: 0.35,
            atomic_serialize_cycles: 2.0,
            atomic_instr_cost: 2.0,
        }
    }

    /// NVIDIA H100-SXM5-80GB (compute capability 9.0) — one hardware
    /// generation past the paper's machines; used by the device-sweep
    /// ablation to ask how the GFTR trade-off moves as caches and bandwidth
    /// grow together.
    pub fn h100() -> Self {
        DeviceConfig {
            name: "H100".to_string(),
            sms: 132,
            warp_schedulers_per_sm: 4,
            clock_hz: 1.98e9,
            mem_bandwidth: 3350.0e9,
            bandwidth_efficiency: 0.87,
            l2_bytes: 50 << 20,
            l1_bytes: 256 << 10,
            shared_mem_bytes: 228 << 10,
            global_mem_bytes: 80u64 << 30,
            max_radix_bits_per_pass: 8,
            kernel_launch_overhead: 3.0e-6,
            l2_bandwidth: 9.0e12,
            uncoalesced_penalty: 0.35,
            atomic_serialize_cycles: 2.0,
            atomic_instr_cost: 2.0,
        }
    }

    /// Shrink the device's *capacity* parameters by `factor`, keeping its
    /// *rate* parameters — the paper-regime scaling used by the benchmark
    /// harness. Running 2^22-tuple workloads against an A100 whose L2 has
    /// been scaled by 32 puts data and cache in the same ratio as the
    /// paper's 2^27 tuples against the real 40 MB part, so cache-residency
    /// crossovers (and thus every GFUR-vs-GFTR shape) land in the same
    /// relative place. Absolute times shrink by ~`factor`; throughput
    /// comparisons and speedup factors are preserved.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "scaling factor must be >= 1");
        let div = |v: u64| ((v as f64 / factor).round() as u64).max(1);
        self.name = format!("{}/{factor:.0}", self.name);
        self.l2_bytes = div(self.l2_bytes);
        self.l1_bytes = div(self.l1_bytes);
        self.shared_mem_bytes = div(self.shared_mem_bytes);
        self.global_mem_bytes = div(self.global_mem_bytes);
        self.kernel_launch_overhead /= factor;
        self
    }

    /// Does nothing: warp traffic is charged on one sequential path (see
    /// `kernel.rs`), so there is no thread count to set. Kept only because
    /// the frozen `perf/` benchmark, its only caller, still calls it; the
    /// next benchmark PR drops it.
    pub fn with_host_threads(self, _threads: usize) -> Self {
        self
    }

    /// Peak warp-instruction issue rate across the whole chip, in
    /// instructions per second.
    pub fn issue_rate(&self) -> f64 {
        self.sms as f64 * self.warp_schedulers_per_sm as f64 * self.clock_hz
    }

    /// Achievable streaming bandwidth in bytes/second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.bandwidth_efficiency
    }

    /// L2 bandwidth in bytes/second.
    pub fn l2_bandwidth(&self) -> f64 {
        self.l2_bandwidth
    }

    /// Number of tuples of `tuple_bytes` each that fit in the shared-memory
    /// hash table of one thread block, leaving room for the table's ~50%
    /// fill-factor headroom. Used to size radix partitions.
    pub fn shared_mem_tuples(&self, tuple_bytes: u64) -> u64 {
        (self.shared_mem_bytes / 2) / tuple_bytes.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3() {
        let a = DeviceConfig::a100();
        assert_eq!(a.sms, 108);
        assert_eq!(a.l2_bytes, 40 << 20);
        assert_eq!(a.global_mem_bytes, 40 << 30);
        let r = DeviceConfig::rtx3090();
        assert_eq!(r.sms, 82);
        assert_eq!(r.l2_bytes, 6 << 20);
        assert!(r.mem_bandwidth < a.mem_bandwidth);
        assert!(r.clock_hz > a.clock_hz); // 1395 MHz vs 1095 MHz
    }

    #[test]
    fn h100_extends_the_ampere_trend() {
        let h = DeviceConfig::h100();
        let a = DeviceConfig::a100();
        assert!(h.mem_bandwidth > 2.0 * a.mem_bandwidth);
        assert!(h.l2_bytes > a.l2_bytes);
        assert!(h.sms > a.sms);
    }

    #[test]
    fn scaled_shrinks_capacity_not_rates() {
        let a = DeviceConfig::a100();
        let s = DeviceConfig::a100().scaled(32.0);
        assert_eq!(s.l2_bytes, a.l2_bytes / 32);
        assert_eq!(s.shared_mem_bytes, a.shared_mem_bytes / 32);
        assert_eq!(s.mem_bandwidth, a.mem_bandwidth, "rates untouched");
        assert_eq!(s.clock_hz, a.clock_hz);
        assert!(s.name.contains("A100"));
    }

    #[test]
    fn derived_rates_positive() {
        let a = DeviceConfig::a100();
        assert!(a.issue_rate() > 1e11);
        assert!(a.effective_bandwidth() > 1.0e12);
        assert!(a.shared_mem_tuples(8) > 1000);
    }
}
