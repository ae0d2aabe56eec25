//! `join_narrow` and `join_wide`: the five join algorithms on one uploaded
//! `(R, S)` pair, each call to `joins::run_join` timed from outside.

use crate::common::{
    closed_loop_sim_metrics, columns_checksum, device, hash_counters, host_threads, metric,
    per_kind_throughput, sim_matches, timed_call, Op, Params, Pass, Size, Status, Summary,
    Workload,
};
use crate::spans::Tracer;
use crate::stats::Fnv;
use columnar::Relation;
use joins::{run_join, Algorithm, JoinConfig, JoinOutput};
use sim::Device;
use std::time::Instant;
use workloads::JoinWorkload;

/// The algorithms of a pass, with the name each goes by in metric names.
pub const ALGORITHMS: [(Algorithm, &str); 5] = [
    (Algorithm::Nphj, "nphj"),
    (Algorithm::SmjUm, "smj_um"),
    (Algorithm::SmjOm, "smj_om"),
    (Algorithm::PhjUm, "phj_um"),
    (Algorithm::PhjOm, "phj_om"),
];

/// Figure 10 of the paper, as throughput ratios on wide joins:
/// (faster, slower, paper's ratio).
const FIG10: [(&str, &str, f64); 3] = [
    ("smj_om", "smj_um", 1.6),
    ("phj_om", "phj_um", 2.3),
    ("phj_om", "smj_om", 1.4),
];

pub fn scale_log2(size: Size) -> u32 {
    match size {
        Size::Full | Size::Traced => 17,
        Size::Probe => 16,
        Size::Smoke => 12,
    }
}

/// What a correct output of one algorithm looks like, and what its warm-up
/// call reported.
struct Expected {
    rows: usize,
    checksum: u64,
    sim_s: f64,
    materialize_frac: f64,
    peak_mem_mb: f64,
}

pub struct JoinBench {
    wide: bool,
    dev: Device,
    r: Relation,
    s: Relation,
    expected: Vec<Expected>,
}

fn checksum(out: &JoinOutput) -> u64 {
    columns_checksum(
        std::iter::once(&out.keys)
            .chain(&out.r_payloads)
            .chain(&out.s_payloads),
    )
}

impl JoinBench {
    /// Generate and upload the inputs, check every algorithm against the
    /// hash-join oracle, and record what each returns.
    pub fn setup(wide: bool, p: &Params) -> Result<Self, String> {
        let l = scale_log2(p.size);
        let dev = device(l, host_threads());
        let workload = JoinWorkload {
            seed: p.seed,
            ..if wide {
                JoinWorkload::wide(1 << l)
            } else {
                JoinWorkload::narrow(1 << l)
            }
        };
        let (r, s) = workload.generate(&dev);
        let oracle = joins::oracle::hash_join_oracle(&r, &s);
        let mut expected = Vec::new();
        for (algorithm, key) in ALGORITHMS {
            let out = run_join(&dev, algorithm, &r, &s, &JoinConfig::default());
            if out.rows_sorted() != oracle {
                return Err(format!("{key}: output differs from hash_join_oracle"));
            }
            expected.push(Expected {
                rows: out.len(),
                checksum: checksum(&out),
                sim_s: out.stats.total_time().secs(),
                materialize_frac: out.stats.phases.materialize_fraction(),
                peak_mem_mb: out.stats.peak_mem_bytes as f64 / 1e6,
            });
        }
        Ok(JoinBench {
            wide,
            dev,
            r,
            s,
            expected,
        })
    }

    fn fig10_ratios(&self) -> Vec<(String, f64, f64)> {
        let sim_of = |key: &str| {
            let i = ALGORITHMS
                .iter()
                .position(|(_, k)| *k == key)
                .expect("known algorithm");
            self.expected[i].sim_s
        };
        FIG10
            .iter()
            .map(|&(fast, slow, paper)| {
                (format!("{fast}/{slow}"), sim_of(slow) / sim_of(fast), paper)
            })
            .collect()
    }
}

impl Workload for JoinBench {
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let wall = Instant::now();
        let before = self.dev.counters();
        let tuples = (self.r.len() + self.s.len()) as u64;
        let mut fingerprint = Fnv::new();
        let mut ops = Vec::with_capacity(ALGORITHMS.len());
        let mut sim_s = 0.0;
        for ((algorithm, key), expected) in ALGORITHMS.iter().zip(&self.expected) {
            tracer.next_op();
            let (dev, r, s) = (&self.dev, &self.r, &self.s);
            let op = tracer.span("joins", key, Some(dev), tuples, |_| {
                let (host_s, (ok, sim_latency_s, rows)) = timed_call(
                    || run_join(dev, *algorithm, r, s, &JoinConfig::default()),
                    |out| {
                        let stats = &out.stats;
                        fingerprint.word(out.len() as u64);
                        fingerprint.word(stats.peak_mem_bytes);
                        hash_counters(&mut fingerprint, &stats.counters);
                        for t in [
                            stats.phases.transform,
                            stats.phases.match_find,
                            stats.phases.materialize,
                            stats.other,
                        ] {
                            fingerprint.float(t.secs());
                        }
                        let sim_s = stats.total_time().secs();
                        let ok = out.len() == expected.rows
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
        let mut layer = per_kind_throughput("joins", &kinds, passes);
        for (key, expected) in kinds.iter().zip(&self.expected) {
            layer.push(metric(
                format!("joins.{key}.materialize_frac"),
                expected.materialize_frac,
                "ratio",
            ));
            layer.push(metric(
                format!("joins.{key}.peak_mem_mb"),
                expected.peak_mem_mb,
                "sim_MB",
            ));
        }
        let l = self.r.len().trailing_zeros();
        let mut notes = vec![format!(
            "inputs: JoinWorkload::{}(2^{l}), |R|=2^{l}, |S|=2^{}, uniform keys, 100% match; \
             device a100 scaled 2^{}; L2 cold at device start, not flushed between passes",
            if self.wide { "wide" } else { "narrow" },
            l + 1,
            27 - l,
        )];
        if self.wide {
            let ratios = self.fig10_ratios();
            let max_err = ratios
                .iter()
                .map(|(_, measured, paper)| (measured / paper - 1.0).abs())
                .fold(0.0, f64::max);
            layer.push(metric("joins.fidelity_max_rel_err", max_err, "ratio"));
            for (name, measured, paper) in ratios {
                notes.push(format!(
                    "fidelity (Fig 10) {name}: simulated {measured:.3}x, paper {paper}x"
                ));
            }
            notes.push(format!("fidelity_max_rel_err {max_err:.4} against Fig 10"));
        } else {
            notes.push("model unvalidated: the repo holds no paper numbers for this input".into());
        }
        Summary {
            sim: closed_loop_sim_metrics(passes),
            layer,
            notes,
        }
    }
}
