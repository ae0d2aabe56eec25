//! `groupby_mix`: the five group-by algorithms over three inputs (few
//! groups, many groups, skewed groups), each `groupby::run_group_by` call
//! timed from outside.

use crate::common::{
    closed_loop_sim_metrics, columns_checksum, device, hash_counters, host_threads, metric,
    per_kind_throughput, sim_matches, timed_call, Op, Params, Pass, Size, Status, Summary,
    Workload,
};
use crate::spans::Tracer;
use crate::stats::{median, Fnv};
use columnar::Relation;
use groupby::{run_group_by, AggFn, GroupByAlgorithm, GroupByConfig, GroupByOutput};
use sim::Device;
use std::time::Instant;
use workloads::agg::AggWorkload;

pub const ALGORITHMS: [(GroupByAlgorithm, &str); 5] = [
    (GroupByAlgorithm::HashGlobal, "hash_global"),
    (GroupByAlgorithm::SortGftr, "sort_gftr"),
    (GroupByAlgorithm::SortGfur, "sort_gfur"),
    (GroupByAlgorithm::PartitionedGftr, "part_gftr"),
    (GroupByAlgorithm::PartitionedGfur, "part_gfur"),
];

const AGGS: [AggFn; 1] = [AggFn::Sum];

pub fn scale_log2(size: Size) -> u32 {
    match size {
        Size::Full | Size::Traced => 18,
        Size::Probe => 16,
        Size::Smoke => 12,
    }
}

/// The three inputs at `2^l` rows: (name, groups, Zipf exponent). Group
/// counts keep the ratio to the row count that 2^8, 2^18 and 2^16 groups
/// have to 2^20 rows, because the device shrinks with the rows.
fn inputs(l: u32) -> [(&'static str, usize, f64); 3] {
    [
        ("few_uniform", 1usize << l.saturating_sub(12).max(2), 0.0),
        ("many_uniform", 1usize << (l - 2), 0.0),
        ("zipf", 1usize << (l - 4), 1.25),
    ]
}

struct Expected {
    groups: usize,
    checksum: u64,
    sim_s: f64,
}

pub struct GroupByBench {
    dev: Device,
    /// One relation per input, with the expectation per algorithm.
    inputs: Vec<(Relation, Vec<Expected>)>,
    note: String,
}

fn checksum(out: &GroupByOutput) -> u64 {
    columns_checksum(std::iter::once(&out.keys).chain(&out.aggregates))
}

impl GroupByBench {
    pub fn setup(p: &Params) -> Result<Self, String> {
        let l = scale_log2(p.size);
        let dev = device(l, host_threads());
        let mut prepared = Vec::new();
        for (i, (name, groups, zipf)) in inputs(l).into_iter().enumerate() {
            let rel = AggWorkload {
                zipf,
                seed: p.seed.wrapping_add(i as u64),
                ..AggWorkload::uniform(1 << l, groups)
            }
            .generate(&dev);
            let oracle = groupby::oracle::group_by_oracle(&rel, &AGGS);
            let mut expected = Vec::new();
            for (algorithm, key) in ALGORITHMS {
                let out = run_group_by(&dev, algorithm, &rel, &AGGS, &GroupByConfig::default());
                if out.rows_sorted() != oracle {
                    return Err(format!(
                        "{key} on {name}: output differs from group_by_oracle"
                    ));
                }
                expected.push(Expected {
                    groups: out.len(),
                    checksum: checksum(&out),
                    sim_s: out.stats.total_time().secs(),
                });
            }
            prepared.push((rel, expected));
        }
        let note = format!(
            "inputs: 2^{l} rows, 4 B key + one 4 B value, SUM; groups {}; device a100 scaled \
             2^{}; L2 cold at device start, not flushed between passes",
            inputs(l)
                .iter()
                .map(|(name, groups, zipf)| format!(
                    "{name}=2^{} (zipf {zipf})",
                    groups.trailing_zeros()
                ))
                .collect::<Vec<_>>()
                .join(", "),
            27 - l
        );
        Ok(GroupByBench {
            dev,
            inputs: prepared,
            note,
        })
    }
}

impl Workload for GroupByBench {
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let wall = Instant::now();
        let before = self.dev.counters();
        let mut fingerprint = Fnv::new();
        let mut ops = Vec::new();
        let mut sim_s = 0.0;
        for (rel, expected) in &self.inputs {
            let tuples = rel.len() as u64;
            for ((algorithm, key), expected) in ALGORITHMS.iter().zip(expected) {
                tracer.next_op();
                let dev = &self.dev;
                let op = tracer.span("groupby", key, Some(dev), tuples, |_| {
                    let (host_s, (ok, sim_latency_s, rows)) = timed_call(
                        || run_group_by(dev, *algorithm, rel, &AGGS, &GroupByConfig::default()),
                        |out| {
                            let stats = &out.stats;
                            let sim_s = stats.total_time().secs();
                            fingerprint.word(out.len() as u64);
                            fingerprint.word(stats.peak_mem_bytes);
                            hash_counters(&mut fingerprint, &stats.counters);
                            fingerprint.float(sim_s);
                            let ok = out.len() == expected.groups
                                && checksum(out) == expected.checksum
                                && sim_matches(sim_s, expected.sim_s);
                            (ok, sim_s, out.len() as u64)
                        },
                    );
                    let op = Op {
                        kind: key,
                        host_s,
                        sim_latency_s,
                        tuples,
                        status: if ok { Status::Ok } else { Status::Failed },
                    };
                    (op, rows)
                });
                sim_s += op.sim_latency_s;
                ops.push(op);
            }
        }
        Pass {
            ops,
            wall_s: wall.elapsed().as_secs_f64(),
            sim_s,
            dram_bytes: self.dev.counters().delta_since(&before).dram_bytes(),
            fingerprint: fingerprint.finish(),
        }
    }

    fn summarize(&self, passes: &[Pass]) -> Summary {
        let kinds: Vec<&'static str> = ALGORITHMS.iter().map(|(_, k)| *k).collect();
        let mut layer = per_kind_throughput("groupby", &kinds, passes);
        // Skew slowdown of the global hash table: simulated time on the Zipf
        // input over the median of the two uniform inputs.
        let hash_sim = |input: usize| self.inputs[input].1[0].sim_s;
        layer.push(metric(
            "groupby.hash_global.skew_slowdown",
            hash_sim(2) / median(&[hash_sim(0), hash_sim(1)]),
            "ratio",
        ));
        Summary {
            sim: closed_loop_sim_metrics(passes),
            layer,
            notes: vec![
                self.note.clone(),
                "model unvalidated: the repo holds no paper numbers for G1/G2".into(),
            ],
        }
    }
}
