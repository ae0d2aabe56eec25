//! Bottleneck attribution: the paper's analysis, applied automatically.
//!
//! Every claim in the evaluation is argued by holding counters against the
//! hardware's roofline — "the gather is latency-bound because it touches 18
//! sectors per request", "partitioning saturates bandwidth", "atomics on the
//! hot group serialize". The simulator records the same counters
//! ([`Counters`], [`crate::trace::KernelEvent`]); this module performs the
//! *interpretation*, so `EXPLAIN ANALYZE` output and trace summaries can say
//! what the paper's authors would say about each operator and kernel:
//!
//! * [`roofline`] — splits a counter delta into the cost model's components
//!   (compute, DRAM, L2, launch overhead, and the residual latency/atomic
//!   term) and classifies the bottleneck against the device's peaks.
//! * [`diagnose`] — maps the access-pattern metrics (sectors/request vs the
//!   ideal 4, L2 hit rate, write-back share, atomic contention) to the
//!   paper's named pathologies: random gather (Table 4), partition scatter,
//!   contended global hash table.
//! * [`analyze_kernels`] — the per-kernel-name version over recorded traces,
//!   layered on [`crate::trace::kernel_stats`].
//!
//! Everything here is a pure function of recorded state, so reports are
//! bit-identical across re-runs and scheduling policies, like the counters
//! they are derived from.

use crate::trace::{kernel_stats, Trace};
use crate::{Counters, DeviceConfig, SECTOR_BYTES};
use serde::Serialize;

/// Sectors per warp request of a perfectly coalesced 4-byte access: 32
/// lanes x 4 bytes span four 32-byte sectors (the "ideal 4" the paper
/// compares every gather against in Table 4).
pub const IDEAL_SECTORS_PER_REQUEST: f64 = 4.0;

/// Which wall of the roofline the work ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Bottleneck {
    /// DRAM/L2 traffic bounds the time (the streaming regime).
    MemoryBound,
    /// Warp-instruction issue bounds the time.
    ComputeBound,
    /// Neither peak is approached: time goes to per-sector latency from
    /// poor coalescing or to fixed kernel-launch overhead.
    LatencyBound,
    /// Serialized atomic updates on a hot address dominate.
    AtomicBound,
    /// No cycles recorded (aliasing-only operators).
    Idle,
}

impl Bottleneck {
    /// Stable lowercase label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Bottleneck::MemoryBound => "memory-bound",
            Bottleneck::ComputeBound => "compute-bound",
            Bottleneck::LatencyBound => "latency-bound",
            Bottleneck::AtomicBound => "atomic-bound",
            Bottleneck::Idle => "idle",
        }
    }
}

/// A counter delta decomposed against the calibrated cost model.
///
/// The components mirror `kernel.rs`: a launch costs
/// `max(compute, memory) + atomic_serialization + launch_overhead`, with
/// poorly coalesced gather sectors paying a latency penalty on top of their
/// raw bytes. The counters record *raw* traffic, so `residual_secs` —
/// actual time minus launch overhead minus the larger of the compute and
/// raw-memory terms — is exactly the latency-penalty plus atomic-
/// serialization time the cost model added.
#[derive(Debug, Clone, Serialize)]
pub struct Roofline {
    /// Recorded time (cycles / clock), seconds.
    pub actual_secs: f64,
    /// Warp instructions at the chip's peak issue rate, seconds.
    pub compute_secs: f64,
    /// Raw DRAM traffic at effective bandwidth, seconds.
    pub dram_secs: f64,
    /// L2-served gather sectors at L2 bandwidth, seconds.
    pub l2_secs: f64,
    /// Fixed launch overhead: launches x overhead, seconds.
    pub launch_secs: f64,
    /// Un-modeled remainder: coalescing latency penalty plus serialized
    /// atomics, seconds (never negative).
    pub residual_secs: f64,
    /// `compute_secs / actual_secs` — fraction of peak issue rate achieved.
    pub issue_utilization: f64,
    /// `(dram_secs + l2_secs) / actual_secs` — fraction of peak memory
    /// throughput achieved.
    pub memory_utilization: f64,
    /// Achieved DRAM bandwidth, bytes/second.
    pub achieved_dram_bps: f64,
    /// The device's effective (streaming) DRAM bandwidth, bytes/second.
    pub peak_dram_bps: f64,
    /// The classification the numbers above support.
    pub bottleneck: Bottleneck,
}

/// Decompose a counter delta against `cfg`'s roofline and classify it.
pub fn roofline(c: &Counters, cfg: &DeviceConfig) -> Roofline {
    let actual = c.cycles / cfg.clock_hz;
    let compute = c.warp_instructions as f64 / cfg.issue_rate();
    let dram = c.dram_bytes() as f64 / cfg.effective_bandwidth();
    let l2 = (c.l2_hits * SECTOR_BYTES) as f64 / cfg.l2_bandwidth();
    let launch = c.kernel_launches as f64 * cfg.kernel_launch_overhead;
    let memory = dram + l2;
    let residual = (actual - launch - compute.max(memory)).max(0.0);
    let bottleneck = if actual <= 0.0 {
        Bottleneck::Idle
    } else if launch / actual > 0.5 {
        // Many tiny launches: fixed overhead, not any throughput wall.
        Bottleneck::LatencyBound
    } else if residual / actual > 0.3 {
        // The cost model added substantial time beyond raw traffic. Two
        // sources exist: hot-address atomic serialization and the
        // uncoalesced-gather penalty. Attribute to atomics when they are
        // present in volume; otherwise it is per-sector latency.
        if c.atomics > 0 && c.atomics as f64 >= c.load_requests as f64 {
            Bottleneck::AtomicBound
        } else {
            Bottleneck::LatencyBound
        }
    } else if memory >= compute {
        Bottleneck::MemoryBound
    } else {
        Bottleneck::ComputeBound
    };
    Roofline {
        actual_secs: actual,
        compute_secs: compute,
        dram_secs: dram,
        l2_secs: l2,
        launch_secs: launch,
        residual_secs: residual,
        issue_utilization: if actual > 0.0 { compute / actual } else { 0.0 },
        memory_utilization: if actual > 0.0 { memory / actual } else { 0.0 },
        achieved_dram_bps: if actual > 0.0 {
            c.dram_bytes() as f64 / actual
        } else {
            0.0
        },
        peak_dram_bps: cfg.effective_bandwidth(),
        bottleneck,
    }
}

impl Roofline {
    /// One-line summary, e.g.
    /// `memory-bound (DRAM 78% of peak, issue 12%)`.
    pub fn summary(&self) -> String {
        format!(
            "{} (DRAM {:.0}% of peak, issue {:.0}%)",
            self.bottleneck.as_str(),
            100.0 * self.achieved_dram_bps / self.peak_dram_bps,
            100.0 * self.issue_utilization,
        )
    }
}

/// A named access pattern the counters witness — the paper's pathologies
/// plus the two healthy regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AccessPattern {
    /// Sequential, fully coalesced traffic (or clustered gathers at the
    /// ideal sector count) — the regime GFTR buys.
    Streaming,
    /// Unclustered gather from DRAM: many sectors per request, low L2 hit
    /// rate (Table 4's random-gather pathology; what GFUR pays).
    RandomGather,
    /// Unclustered gather *served by L2*: the relation is cache-resident,
    /// so the random access is cheap (the TPC-H J3 / few-groups regime).
    CacheResidentGather,
    /// Scattered read-modify-write stores — the partitioning kernel's
    /// write pattern (visible as RMW write-back traffic).
    PartitionScatter,
    /// Atomic updates serializing on hot addresses — the contended global
    /// hash table / bucket-chain skew collapse (Figure 14).
    ContendedHashTable,
}

impl AccessPattern {
    /// Stable kebab-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            AccessPattern::Streaming => "streaming",
            AccessPattern::RandomGather => "random-gather",
            AccessPattern::CacheResidentGather => "cache-resident-gather",
            AccessPattern::PartitionScatter => "partition-scatter",
            AccessPattern::ContendedHashTable => "contended-hash-table",
        }
    }
}

/// One diagnosed pattern with the evidence that supports it.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnosis {
    /// The pattern.
    pub pattern: AccessPattern,
    /// The metrics that triggered it, human-readable.
    pub evidence: String,
}

/// Diagnose the access patterns a counter delta witnesses, in a stable
/// order. May return several (a partitioned join both scatters and
/// streams); returns none for pure aliasing work with no traffic.
pub fn diagnose(c: &Counters, cfg: &DeviceConfig) -> Vec<Diagnosis> {
    let mut out = Vec::new();
    let spr = c.sectors_per_request();
    let l2 = c.l2_hit_rate();
    if c.load_requests > 0 && spr > 2.0 * IDEAL_SECTORS_PER_REQUEST {
        if l2 >= 0.5 {
            out.push(Diagnosis {
                pattern: AccessPattern::CacheResidentGather,
                evidence: format!(
                    "{spr:.2} sectors/request (ideal {IDEAL_SECTORS_PER_REQUEST:.0}) but L2 \
                     serves {:.0}% — unclustered access into a cache-resident relation",
                    100.0 * l2
                ),
            });
        } else {
            out.push(Diagnosis {
                pattern: AccessPattern::RandomGather,
                evidence: format!(
                    "{spr:.2} sectors/request vs ideal {IDEAL_SECTORS_PER_REQUEST:.0}, L2 \
                     {:.0}% — unclustered gather paying DRAM latency per sector (Table 4)",
                    100.0 * l2
                ),
            });
        }
    }
    // RMW write-back: dram_write_bytes beyond the sequential stores means
    // scattered stores fetched-and-wrote whole sectors — the partitioning
    // scatter. We cannot split sequential from scattered writes in the
    // aggregate, so require the gather-side evidence (load_requests with
    // poor coalescing) alongside write traffic.
    if c.dram_write_bytes > 0
        && c.load_requests > 0
        && spr > 1.5 * IDEAL_SECTORS_PER_REQUEST
        && c.dram_write_bytes as f64 >= 0.25 * c.dram_bytes() as f64
    {
        out.push(Diagnosis {
            pattern: AccessPattern::PartitionScatter,
            evidence: format!(
                "{:.0}% of DRAM traffic is writes at {spr:.2} sectors/request — scattered \
                 read-modify-write stores (partitioning)",
                100.0 * c.dram_write_bytes as f64 / c.dram_bytes() as f64
            ),
        });
    }
    if c.atomics > 0 {
        let r = roofline(c, cfg);
        if r.actual_secs > 0.0 && r.residual_secs / r.actual_secs > 0.15 {
            out.push(Diagnosis {
                pattern: AccessPattern::ContendedHashTable,
                evidence: format!(
                    "{} atomic updates with {:.0}% of time in serialization — contended \
                     global hash table (hot keys, Figure 14)",
                    c.atomics,
                    100.0 * r.residual_secs / r.actual_secs
                ),
            });
        }
    }
    if out.is_empty() && c.dram_bytes() > 0 {
        out.push(Diagnosis {
            pattern: AccessPattern::Streaming,
            evidence: if c.load_requests == 0 {
                "sequential streaming traffic, fully coalesced".to_string()
            } else {
                format!("{spr:.2} sectors/request — clustered access near the coalesced ideal")
            },
        });
    }
    out
}

/// Per-kernel-name analysis: the aggregate stat plus its roofline and
/// diagnosed patterns — [`crate::trace::kernel_stats`] with the
/// interpretation attached.
#[derive(Debug, Clone, Serialize)]
pub struct KernelAnalysis {
    /// Kernel name.
    pub name: &'static str,
    /// Launch count.
    pub launches: u64,
    /// Summed simulated time, seconds.
    pub total_secs: f64,
    /// Summed DRAM traffic, bytes.
    pub dram_bytes: u64,
    /// Average sectors per warp load request.
    pub sectors_per_request: f64,
    /// L2 hit rate over gather traffic.
    pub l2_hit_rate: f64,
    /// Roofline decomposition of the aggregate.
    pub roofline: Roofline,
    /// Diagnosed access patterns.
    pub patterns: Vec<Diagnosis>,
}

/// Analyze every kernel name appearing in `traces`, in
/// [`kernel_stats`]'s order (total time descending).
pub fn analyze_kernels(traces: &[Trace], cfg: &DeviceConfig) -> Vec<KernelAnalysis> {
    kernel_stats(traces)
        .into_iter()
        .map(|s| {
            // The name's time is the summed durations the summary prints;
            // the summed per-launch cycle products round differently.
            let c = Counters {
                cycles: s.total_secs * cfg.clock_hz,
                ..s.work
            };
            KernelAnalysis {
                name: s.name,
                launches: c.kernel_launches,
                total_secs: s.total_secs,
                dram_bytes: c.dram_bytes(),
                sectors_per_request: c.sectors_per_request(),
                l2_hit_rate: c.l2_hit_rate(),
                roofline: roofline(&c, cfg),
                patterns: diagnose(&c, cfg),
            }
        })
        .collect()
}

/// Human-scale byte count: powers of 1024 with two decimals (`256.00 MiB`),
/// plain `B` below 1 KiB. The one formatter every report in the workspace
/// shares, so plan trees and kernel summaries agree on units.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    #[test]
    fn streaming_kernel_classifies_memory_bound() {
        let dev = Device::a100();
        let before = dev.counters();
        dev.kernel("stream")
            .items(1 << 26, 4.0)
            .seq_read_bytes(1 << 28)
            .seq_write_bytes(1 << 28)
            .launch();
        let d = dev.counters().delta_since(&before);
        let r = roofline(&d, dev.config());
        assert_eq!(r.bottleneck, Bottleneck::MemoryBound);
        assert!(
            r.achieved_dram_bps / r.peak_dram_bps > 0.9,
            "streaming should approach peak bandwidth: {r:?}"
        );
        let pats = diagnose(&d, dev.config());
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].pattern, AccessPattern::Streaming);
    }

    #[test]
    fn instruction_heavy_kernel_classifies_compute_bound() {
        let dev = Device::a100();
        let before = dev.counters();
        dev.kernel("alu")
            .items(1 << 26, 400.0)
            .seq_read_bytes(1 << 20)
            .launch();
        let d = dev.counters().delta_since(&before);
        let r = roofline(&d, dev.config());
        assert_eq!(r.bottleneck, Bottleneck::ComputeBound);
        assert!(r.issue_utilization > 0.9);
    }

    #[test]
    fn unclustered_gather_classifies_latency_bound_random_gather() {
        let dev = Device::a100();
        // 64 MB footprint at stride 16: misses L2, touches ~16x the ideal
        // sectors, pays the coalescing penalty.
        let n = 1usize << 20;
        let buf = dev.alloc::<i32>(n * 16, "x");
        let before = dev.counters();
        dev.kernel("gather")
            .items(n as u64, 18.5)
            .warp_loads(4, (0..n).map(|i| buf.addr_of((i * 16 + 5) % (n * 16))))
            .launch();
        let d = dev.counters().delta_since(&before);
        let r = roofline(&d, dev.config());
        assert_eq!(r.bottleneck, Bottleneck::LatencyBound);
        assert!(r.residual_secs > 0.0, "penalty time must be visible");
        let pats = diagnose(&d, dev.config());
        assert_eq!(pats[0].pattern, AccessPattern::RandomGather);
        assert!(pats[0].evidence.contains("sectors/request"));
    }

    #[test]
    fn cache_resident_gather_is_its_own_diagnosis() {
        let dev = Device::a100();
        let n = 1usize << 14; // 64 KiB, far below L2
        let buf = dev.alloc::<i32>(n, "small");
        dev.kernel("warmup")
            .warp_loads(4, (0..n).map(|i| buf.addr_of((i * 769) % n)))
            .launch();
        let before = dev.counters();
        dev.kernel("hot")
            .warp_loads(4, (0..n).map(|i| buf.addr_of((i * 769 + 13) % n)))
            .launch();
        let d = dev.counters().delta_since(&before);
        let pats = diagnose(&d, dev.config());
        assert_eq!(pats[0].pattern, AccessPattern::CacheResidentGather);
    }

    #[test]
    fn hot_atomics_classify_atomic_bound_contended_table() {
        let dev = Device::a100();
        let before = dev.counters();
        let n = 1u64 << 22;
        dev.kernel("agg").items(n, 4.0).atomics(n, n / 2).launch();
        let d = dev.counters().delta_since(&before);
        let r = roofline(&d, dev.config());
        assert_eq!(r.bottleneck, Bottleneck::AtomicBound);
        let pats = diagnose(&d, dev.config());
        assert!(pats
            .iter()
            .any(|p| p.pattern == AccessPattern::ContendedHashTable));
    }

    #[test]
    fn scattered_stores_diagnose_partition_scatter() {
        let dev = Device::a100();
        dev.enable_tracing();
        let n = 1usize << 18;
        let buf = dev.alloc::<i32>(n * 64, "parts");
        let before = dev.counters();
        dev.kernel("scatter")
            .items(n as u64, 8.0)
            .warp_stores(4, (0..n).map(|i| buf.addr_of((i * 64 + 31) % (n * 64))))
            .launch();
        let d = dev.counters().delta_since(&before);
        let pats = diagnose(&d, dev.config());
        assert!(
            pats.iter()
                .any(|p| p.pattern == AccessPattern::PartitionScatter),
            "scatter store must be diagnosed: {pats:?}"
        );
        // The per-kernel analysis reads the same record off the trace —
        // reads == RMW write-backs here, so the writes must be in it.
        let tr = dev.take_trace().unwrap();
        let ka = analyze_kernels(&[tr], dev.config());
        assert_eq!(ka[0].name, "scatter");
        assert_eq!(ka[0].dram_bytes, d.dram_bytes());
        assert!(
            ka[0]
                .patterns
                .iter()
                .any(|p| p.pattern == AccessPattern::PartitionScatter),
            "per-kernel analysis must see the write-backs: {:?}",
            ka[0].patterns
        );
    }

    #[test]
    fn empty_counters_are_idle_with_no_patterns() {
        let cfg = crate::DeviceConfig::a100();
        let c = Counters::default();
        let r = roofline(&c, &cfg);
        assert_eq!(r.bottleneck, Bottleneck::Idle);
        assert_eq!(r.actual_secs, 0.0);
        assert!(diagnose(&c, &cfg).is_empty());
        assert!(r.summary().contains("idle"));
    }

    #[test]
    fn components_never_exceed_actual_by_construction() {
        // For any single launch, max(compute, dram+l2) + launch <= actual:
        // the model only ever adds (penalty, atomics) on top.
        let dev = Device::a100();
        let n = 1usize << 16;
        let buf = dev.alloc::<i32>(n * 16, "x");
        let before = dev.counters();
        dev.kernel("mixed")
            .items(n as u64, 12.0)
            .seq_read_bytes(1 << 22)
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i * 16)))
            .atomics(1 << 12, 1 << 6)
            .launch();
        let d = dev.counters().delta_since(&before);
        let r = roofline(&d, dev.config());
        assert!(
            r.compute_secs.max(r.dram_secs + r.l2_secs) + r.launch_secs <= r.actual_secs + 1e-15
        );
        assert!(r.residual_secs >= 0.0);
    }

    #[test]
    fn analyze_kernels_orders_like_kernel_stats() {
        let dev = Device::a100();
        dev.enable_tracing();
        dev.kernel("big")
            .items(1 << 24, 4.0)
            .seq_read_bytes(1 << 28)
            .launch();
        dev.kernel("small").items(32, 1.0).launch();
        let tr = dev.take_trace().unwrap();
        let ka = analyze_kernels(std::slice::from_ref(&tr), dev.config());
        assert_eq!(ka.len(), 2);
        assert_eq!(ka[0].name, "big");
        assert_eq!(ka[0].roofline.bottleneck, Bottleneck::MemoryBound);
        assert_eq!(ka[1].name, "small");
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1 << 20), "1.00 MiB");
        assert_eq!(human_bytes(256 << 20), "256.00 MiB");
        assert_eq!(human_bytes(3 * (1 << 30)), "3.00 GiB");
        assert_eq!(human_bytes(1_500_000_000), "1.40 GiB");
    }
}
