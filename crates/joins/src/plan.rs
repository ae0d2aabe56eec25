//! Sequences of joins (Section 5.2.7, Figure 16): a fact table with `N`
//! foreign keys joined against `N` dimension tables in a pipeline.
//!
//! Following the paper, the fact table carries physical tuple identifiers
//! and each foreign-key column is materialized (gathered by the surviving
//! tuple IDs) *right before* the join that needs it, so irrelevant FKs are
//! never moved. The i-th join processes `(FK_i, ID, P_1..P_{i-1}) ⋈ D_i`,
//! accumulating one more dimension payload column per step — which is why
//! later joins materialize ever wider tuples and the GFTR implementations
//! pull ahead as the sequence grows.

use crate::{run_join, timed, Algorithm, JoinConfig};
use columnar::{Column, Relation};
use primitives::gather_column;
use sim::{Device, OpStats, PhaseTimes, SimTime};

/// A fact table for star-schema pipelines: `N` foreign-key columns
/// (`FK_1..FK_N`), one per dimension table.
pub struct FactTable {
    fks: Vec<Column>,
}

impl FactTable {
    /// Assemble from equally long FK columns.
    pub fn new(fks: Vec<Column>) -> Self {
        assert!(!fks.is_empty(), "a fact table needs at least one FK column");
        let n = fks[0].len();
        assert!(
            fks.iter().all(|c| c.len() == n),
            "all FK columns must have the same length"
        );
        FactTable { fks }
    }

    /// Number of fact rows.
    pub fn len(&self) -> usize {
        self.fks[0].len()
    }

    /// True when there are no fact rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of foreign-key columns (= joins in the pipeline).
    pub fn num_fks(&self) -> usize {
        self.fks.len()
    }

    /// FK column `i`.
    pub fn fk(&self, i: usize) -> &Column {
        &self.fks[i]
    }
}

/// Statistics for one step of the pipeline.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Time to materialize this step's FK column from the surviving IDs.
    pub fk_fetch: SimTime,
    /// The join itself.
    pub join: OpStats,
}

/// Result of a join sequence.
pub struct SequenceOutput {
    /// One materialized payload column per dimension joined, in join order.
    pub payloads: Vec<Column>,
    /// Per-step statistics.
    pub steps: Vec<StepStats>,
    /// Surviving fact rows.
    pub rows: usize,
}

impl SequenceOutput {
    /// Total simulated time across all steps (FK fetches included).
    pub fn total_time(&self) -> SimTime {
        self.steps
            .iter()
            .map(|s| s.fk_fetch + s.join.phases.total())
            .sum()
    }

    /// Summed phase breakdown across steps (FK fetch counts as
    /// materialization, since it is a gather of fact data).
    pub fn phases(&self) -> PhaseTimes {
        let mut p = PhaseTimes::default();
        for s in &self.steps {
            p += s.join.phases;
            p.materialize += s.fk_fetch;
        }
        p
    }

    /// The whole sequence as one shared [`OpStats`] record: summed phases
    /// and counters, peak memory of the worst step, final cardinality.
    pub fn op_stats(&self) -> OpStats {
        let mut stats = OpStats::new(
            self.phases(),
            self.rows,
            self.steps
                .iter()
                .map(|s| s.join.peak_mem_bytes)
                .max()
                .unwrap_or(0),
        );
        for s in &self.steps {
            stats.other += s.join.other;
            stats.counters += &s.join.counters;
        }
        stats
    }
}

/// Run the pipeline `F ⋈ D_1 ⋈ ... ⋈ D_N` with the given join algorithm.
///
/// Each `dims[i]` must be a relation whose key matches `fact.fk(i)`'s type
/// and whose payloads are the columns to carry into the result. Dimension
/// keys are assumed unique (the PK-FK star-schema setting of Figure 16).
pub fn join_sequence(
    dev: &Device,
    fact: &FactTable,
    dims: &[Relation],
    algorithm: Algorithm,
    config: &JoinConfig,
) -> SequenceOutput {
    assert_eq!(
        fact.num_fks(),
        dims.len(),
        "need one dimension table per FK column"
    );

    // Surviving fact rows, as IDs into the fact table. Starts as identity
    // (None avoids materializing an explicit iota for the first join).
    let mut ids: Option<sim::DeviceBuffer<u32>> = None;
    let mut carried: Vec<Column> = Vec::new();
    let mut steps: Vec<StepStats> = Vec::new();

    for (i, dim) in dims.iter().enumerate() {
        // Materialize FK_i for the surviving rows.
        let (fk_col, fk_fetch) = match &ids {
            None => {
                // First join: FK_1 is used in place (no gather needed).
                let col = match fact.fk(i) {
                    Column::I32(b) => Column::from_i32(dev, b.to_vec(), "seq.fk"),
                    Column::I64(b) => Column::from_i64(dev, b.to_vec(), "seq.fk"),
                };
                (col, SimTime::ZERO)
            }
            Some(ids) => timed(dev, || gather_column(dev, fact.fk(i), ids)),
        };

        // Surviving IDs ride along as a payload column of the probe side.
        let id_col = match &ids {
            None => Column::from_i32(dev, (0..fact.len() as i32).collect(), "seq.ids"),
            Some(ids) => Column::from_i32(dev, ids.iter().map(|&v| v as i32).collect(), "seq.ids"),
        };

        let mut s_payloads: Vec<Column> = Vec::with_capacity(carried.len() + 1);
        s_payloads.append(&mut carried);
        s_payloads.push(id_col);
        let probe = Relation::new(format!("F_step{i}"), fk_col, s_payloads);

        let out = run_join(dev, algorithm, dim, &probe, config);

        // Unpack: dim payloads join the carried set; the ID column (last S
        // payload) becomes the new survivor list.
        let mut s_pay = out.s_payloads;
        let id_col = s_pay.pop().expect("ID column is always carried");
        ids = Some(dev.upload(
            id_col.iter_i64().map(|v| v as u32).collect(),
            "seq.ids.next",
        ));
        carried = s_pay;
        carried.extend(out.r_payloads);

        steps.push(StepStats {
            fk_fetch,
            join: out.stats,
        });
    }

    let rows = carried
        .first()
        .map_or_else(|| ids.as_ref().map_or(0, |i| i.len()), Column::len);
    SequenceOutput {
        payloads: carried,
        steps,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    /// Build a star schema: |F| fact rows, N dimensions of |D| rows each.
    /// FK_i of row j = (j * (i + 3)) % |D|; payload of D_i's key k = the
    /// recognizable value k * 10^0..  (i+1)*1000 + k.
    fn star(dev: &Device, f: usize, d: usize, n: usize) -> (FactTable, Vec<Relation>) {
        let fks = (0..n)
            .map(|i| {
                Column::from_i32(
                    dev,
                    (0..f).map(|j| ((j * (i + 3)) % d) as i32).collect(),
                    "fk",
                )
            })
            .collect();
        let dims = (0..n)
            .map(|i| {
                let keys: Vec<i32> = (0..d as i32).rev().collect();
                Relation::new(
                    format!("D{i}"),
                    Column::from_i32(dev, keys.clone(), "k"),
                    vec![Column::from_i64(
                        dev,
                        keys.iter()
                            .map(|&k| (i as i64 + 1) * 1000 + k as i64)
                            .collect(),
                        "p",
                    )],
                )
            })
            .collect();
        (FactTable::new(fks), dims)
    }

    #[test]
    fn sequence_produces_correct_values_for_all_algorithms() {
        let dev = Device::a100();
        let (fact, dims) = star(&dev, 500, 64, 3);
        for alg in [
            Algorithm::SmjUm,
            Algorithm::SmjOm,
            Algorithm::PhjUm,
            Algorithm::PhjOm,
            Algorithm::Nphj,
        ] {
            let out = join_sequence(&dev, &fact, &dims, alg, &JoinConfig::default());
            assert_eq!(out.rows, 500, "{alg}: all FKs match, rows survive");
            assert_eq!(out.payloads.len(), 3, "{alg}");
            // Every output row must agree with the direct computation,
            // regardless of row order: collect (p1, p2, p3) sets.
            let mut got: Vec<(i64, i64, i64)> = (0..out.rows)
                .map(|r| {
                    (
                        out.payloads[0].value(r),
                        out.payloads[1].value(r),
                        out.payloads[2].value(r),
                    )
                })
                .collect();
            got.sort_unstable();
            let mut expected: Vec<(i64, i64, i64)> = (0..500usize)
                .map(|j| {
                    let fk = |i: usize| ((j * (i + 3)) % 64) as i64;
                    (1000 + fk(0), 2000 + fk(1), 3000 + fk(2))
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "{alg}");
        }
    }

    #[test]
    fn later_joins_cost_more_through_widening() {
        let dev = Device::a100();
        let (fact, dims) = star(&dev, 1 << 15, 1 << 12, 4);
        let out = join_sequence(&dev, &fact, &dims, Algorithm::PhjOm, &JoinConfig::default());
        assert_eq!(out.steps.len(), 4);
        let first = out.steps[0].join.phases.total();
        let last = out.steps[3].join.phases.total();
        assert!(
            last.secs() > first.secs(),
            "join 4 materializes 3 extra columns and must cost more: {first} vs {last}"
        );
        assert!(out.total_time().secs() > 0.0);
        // The shared record sums the whole sequence.
        let agg = out.op_stats();
        assert_eq!(agg.rows, out.rows);
        assert_eq!(agg.phases.total(), out.phases().total());
        let per_step: u64 = out.steps.iter().map(|s| s.join.counters.dram_bytes()).sum();
        assert_eq!(agg.counters.dram_bytes(), per_step);
        assert!(agg.peak_mem_bytes >= out.steps[0].join.peak_mem_bytes);
    }

    #[test]
    #[should_panic(expected = "one dimension table per FK")]
    fn mismatched_dims_rejected() {
        let dev = Device::a100();
        let (fact, mut dims) = star(&dev, 10, 4, 2);
        dims.pop();
        let _ = join_sequence(&dev, &fact, &dims, Algorithm::PhjOm, &JoinConfig::default());
    }
}
