//! The shared per-operator execution report.
//!
//! The paper's central observation is that joins and grouped aggregations
//! decompose into the *same* three phases (transformation / match finding /
//! materialization, Section 2.2); this type is that observation as data:
//! every physical operator in the workspace — joins, grouped aggregations,
//! engine plan nodes, pipelines — reports the same record of phase times,
//! output cardinality, peak memory (Table 5) and hardware-counter deltas
//! (Table 4), so any two operators can be compared under one harness.

use crate::{Counters, PhaseTimes, SimTime};
use serde::{Deserialize, Serialize};

/// Execution report of one physical operator.
///
/// Produced by `joins::run_join` (`JoinOutput::stats`),
/// `groupby::run_group_by` (`GroupByOutput::stats`) and every `engine` plan
/// node. Which algorithm ran is not part of the report: the caller chose
/// it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpStats {
    /// The paper's three-phase breakdown (zero for operators without one,
    /// e.g. scans and filters).
    pub phases: PhaseTimes,
    /// Device time outside the three phases: statistics sampling, plan
    /// glue, and the entire cost of operators that do not decompose
    /// (filters, sorts, projections).
    pub other: SimTime,
    /// Output cardinality: result rows for joins and plan nodes, groups
    /// for aggregations.
    pub rows: usize,
    /// Peak device memory over the operator, bytes (inputs included) — the
    /// Table 5 measurement.
    pub peak_mem_bytes: u64,
    /// Hardware-counter delta over the operator: DRAM bytes,
    /// sectors/request, L2 hit rate, atomics (the Table 4 metrics).
    pub counters: Counters,
    /// The query this operator executed under when run through a query
    /// handle of a multi-query scheduling session; `None` for single-query
    /// execution. Skipped in JSON when absent so pre-scheduler results
    /// files keep their exact bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub query: Option<u32>,
}

impl OpStats {
    /// Assemble from the measurements every operator takes directly; the
    /// counter delta and `other` time are filled in by the measuring
    /// harness (`run_join` / `run_group_by` / the engine's operator
    /// driver).
    pub fn new(phases: PhaseTimes, rows: usize, peak_mem_bytes: u64) -> Self {
        OpStats {
            phases,
            other: SimTime::ZERO,
            rows,
            peak_mem_bytes,
            counters: Counters::default(),
            query: None,
        }
    }

    /// Total simulated time of the operator: the three phases plus
    /// everything outside them.
    pub fn total_time(&self) -> SimTime {
        self.phases.total() + self.other
    }

    /// End-to-end throughput in input tuples per second — the paper's
    /// `(|R| + |S|) / total time` metric (Section 5.1). Returns `0.0` for
    /// a zero total time: `inf` is not representable in JSON and would
    /// serialize as `null`, corrupting results files.
    pub fn throughput_tuples(&self, input_tuples: usize) -> f64 {
        let t = self.total_time().secs();
        if t <= 0.0 {
            0.0
        } else {
            input_tuples as f64 / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_include_other_time() {
        let mut s = OpStats::new(
            PhaseTimes {
                transform: SimTime::from_millis(1.0),
                match_find: SimTime::from_millis(2.0),
                materialize: SimTime::from_millis(3.0),
            },
            10,
            1 << 20,
        );
        assert!((s.total_time().millis() - 6.0).abs() < 1e-9);
        s.other = SimTime::from_millis(4.0);
        assert!((s.total_time().millis() - 10.0).abs() < 1e-9);
        // Throughput uses the full operator time.
        assert!((s.throughput_tuples(100) - 100.0 / 10.0e-3).abs() < 1e-6);
    }

    #[test]
    fn throughput_of_zero_time_is_zero_not_inf() {
        let s = OpStats::default();
        assert_eq!(s.total_time(), SimTime::ZERO);
        let tp = s.throughput_tuples(1_000_000);
        assert_eq!(tp, 0.0, "zero-time throughput must stay JSON-safe");
        assert!(tp.is_finite());
    }

    #[test]
    fn default_is_zeroed() {
        let s = OpStats::default();
        assert_eq!(s.rows, 0);
        assert_eq!(s.peak_mem_bytes, 0);
        assert_eq!(s.total_time(), SimTime::ZERO);
        assert_eq!(s.counters, Counters::default());
    }
}
