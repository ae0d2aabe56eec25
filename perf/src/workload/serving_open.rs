//! `serving_open`: queries arrive on the simulated clock at four fixed
//! rates, whether or not the device keeps up, and go through admission
//! control and the multi-query scheduler (`run_open_loop_with`).
//!
//! Arrivals are stamped on the simulated clock before the session starts,
//! so the generator is never late: its lateness is zero by construction.

use crate::common::{
    device, hash_counters, host_threads, metric, Metric, Op, Params, Pass, Size, Status, Summary,
    Workload,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile, Fnv, SplitMix};
use engine::demo::{q18_like, q1_like, q3_like, tpch_mini};
use engine::scheduler::{run_open_loop_with, OpenQuery, Policy, QuerySpec, ServingConfig};
use engine::{Catalog, EngineError, Plan, QueryReport};
use sim::{Device, SimTime};
use std::time::Instant;

/// `orders` of `tpch_mini`; the device is scaled for its 2^14 line items.
const ORDERS_LOG2: u32 = 12;
const DEVICE_SCALE_LOG2: u32 = ORDERS_LOG2 + 4;

/// Mean solo simulated service time of the q18/q3/q1 mix, measured once at
/// seed 42 on the commit that introduced this benchmark. The rates and the
/// latency limit derive from it and are frozen: a later change to simulated
/// service time must move latency at a fixed rate, not move the rate.
pub const FROZEN_MEAN_SERVICE_S: f64 = 3.3314e-6;
/// Offered rates as multiples of `1 / FROZEN_MEAN_SERVICE_S`.
pub const RATES: [(&str, f64); 4] = [("r050", 0.5), ("r080", 0.8), ("r100", 1.0), ("r150", 1.5)];
/// The latency limit on the p95, as a multiple of `FROZEN_MEAN_SERVICE_S`.
pub const LIMIT_FACTOR: f64 = 6.5;
/// Admission control sheds arrivals beyond this many queries in the system.
const TOTAL_DEPTH: usize = 16;
/// A backlog is growing when the second half of a session's arrivals waits
/// this much longer, on average, than the first half.
const BACKLOG_GROWTH: f64 = 1.5;

pub fn rate_qps(factor: f64) -> f64 {
    factor / FROZEN_MEAN_SERVICE_S
}

pub fn limit_s() -> f64 {
    LIMIT_FACTOR * FROZEN_MEAN_SERVICE_S
}

pub fn arrivals_per_rate(size: Size) -> usize {
    match size {
        Size::Full | Size::Probe => 240,
        Size::Traced => 60,
        Size::Smoke => 12,
    }
}

const CLASSES: [&str; 3] = ["q18", "q3", "q1"];

fn plan_of(class: usize) -> Plan {
    match class {
        0 => q18_like(),
        1 => q3_like(),
        _ => q1_like(),
    }
}

/// Arrival offsets in simulated seconds: a pure function of `(rate, n)`.
///
/// The gaps are exponential with mean `1 / rate_qps`: one uniform per `1/n`
/// slice of the unit interval, pushed through the inverse CDF, then
/// shuffled by a generator seeded from the rate. The schedule is frozen like
/// the rates themselves and does not follow `--seed`, which still feeds the
/// tables. Tail latency at 80 % load is set by the few bursts a schedule
/// happens to hold: with arrivals drawn afresh per seed (plain, stratified,
/// or one schedule rotated) the p95 of 240 arrivals moved by 22 to 26 % of
/// its median from seed to seed, against 0.7 % with the schedule fixed, and
/// would have drowned any change to the system.
pub fn arrival_offsets(rate_qps: f64, n: usize) -> Vec<f64> {
    let mut schedule = SplitMix(rate_qps.to_bits() ^ n as u64);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + schedule.unit()) / n as f64;
            -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate_qps
        })
        .collect();
    schedule.shuffle(&mut gaps);
    let mut at = 0.0;
    gaps.iter()
        .map(|gap| {
            at += gap;
            at
        })
        .collect()
}

/// One query run alone on a fresh device: what serving must reproduce.
struct Solo {
    rows: usize,
    sim_s: f64,
    host_s: f64,
    tuples: u64,
}

/// What is kept of one rate's session.
struct Session {
    rate: &'static str,
    wall_s: f64,
    executed: usize,
    shed: usize,
    kernel_launches: u64,
    /// Completion minus arrival of every arrival, in arrival order; infinite
    /// for the ones that were shed.
    latency_s: Vec<f64>,
    queue_wait_s: f64,
    busy_s: f64,
    span_s: f64,
}

pub struct ServingBench {
    seed: u64,
    arrivals: usize,
    solo: Vec<Solo>,
    sessions: Vec<Session>,
}

fn fresh(seed: u64) -> (Device, Catalog) {
    let dev = device(DEVICE_SCALE_LOG2, host_threads());
    let catalog = tpch_mini(&dev, 1 << ORDERS_LOG2, seed);
    (dev, catalog)
}

fn serving_config() -> ServingConfig {
    CLASSES.iter().fold(
        ServingConfig::new().with_total_depth(TOTAL_DEPTH),
        |config, class| config.with_slo(*class, limit_s()),
    )
}

impl ServingBench {
    pub fn setup(p: &Params) -> Result<Self, String> {
        let mut solo = Vec::new();
        for (class, class_name) in CLASSES.iter().enumerate() {
            let (dev, catalog) = fresh(p.seed);
            let plan = plan_of(class);
            let rows_of = |t: &str| catalog.get(t).map_or(0, |t| t.num_rows() as u64);
            let tuples = match class {
                0 => rows_of("orders") + rows_of("lineitem"),
                1 => rows_of("customer") + rows_of("orders") + rows_of("lineitem"),
                _ => rows_of("lineitem"),
            };
            let mut sim_s = 0.0;
            let mut rows = 0;
            let mut host = Vec::new();
            for _ in 0..5 {
                let t = Instant::now();
                let out = engine::execute(&dev, &catalog, &plan)
                    .map_err(|e| format!("solo {class_name}: {e}"))?;
                host.push(t.elapsed().as_secs_f64());
                // The first run, on the cold device, is the calibration.
                if host.len() == 1 {
                    sim_s = out.stats.total_time().secs();
                    rows = out.table.num_rows();
                }
            }
            solo.push(Solo {
                rows,
                sim_s,
                host_s: median(&host),
                tuples,
            });
        }
        let mut bench = ServingBench {
            seed: p.seed,
            arrivals: arrivals_per_rate(p.size),
            solo,
            sessions: Vec::new(),
        };
        // Warm-up: a short session through the timed path.
        let (ops, _) = bench.session("r080", 0.8, 12, &mut Tracer::new(false));
        if ops.iter().any(|op| op.status != Status::Ok) {
            return Err(
                "warm-up session: a query failed or its rows differ from its solo run".into(),
            );
        }
        bench.sessions.clear();
        Ok(bench)
    }

    fn mean_solo_sim_s(&self) -> f64 {
        self.solo.iter().map(|s| s.sim_s).sum::<f64>() / self.solo.len() as f64
    }

    /// Run one rate's session on a fresh device; returns its operations and
    /// the hash of its simulated observables.
    fn session(
        &mut self,
        rate: &'static str,
        factor: f64,
        n: usize,
        tracer: &mut Tracer,
    ) -> (Vec<Op>, SessionSim) {
        let (dev, catalog) = fresh(self.seed);
        let start = dev.elapsed().secs();
        let arrivals: Vec<OpenQuery> = arrival_offsets(rate_qps(factor), n)
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let class = i % CLASSES.len();
                OpenQuery::new(
                    SimTime::from_secs(start + at),
                    CLASSES[class],
                    QuerySpec::new(plan_of(class)),
                )
            })
            .collect();
        let before = dev.counters();
        let tuples: u64 = (0..n).map(|i| self.solo[i % CLASSES.len()].tuples).sum();
        tracer.next_op();
        let t = Instant::now();
        let reports = tracer.span("scheduler", rate, Some(&dev), tuples, |_| {
            let reports = run_open_loop_with(
                &dev,
                &catalog,
                arrivals,
                Policy::SjfAging,
                &serving_config(),
            );
            let rows = reports
                .iter()
                .filter_map(|r| r.result.as_ref().ok())
                .map(|out| out.table.num_rows() as u64)
                .sum();
            (reports, rows)
        });
        let wall_s = t.elapsed().as_secs_f64();
        let delta = dev.counters().delta_since(&before);

        let status_of = |i: usize, r: &QueryReport| match &r.result {
            Ok(out) if out.table.num_rows() == self.solo[i % CLASSES.len()].rows => Status::Ok,
            Err(EngineError::QueueShed { .. }) | Err(EngineError::AdmissionRejected { .. }) => {
                Status::Shed
            }
            _ => Status::Failed,
        };
        let executed = reports.iter().filter(|r| r.result.is_ok()).count();
        let mut fingerprint = Fnv::new();
        hash_counters(&mut fingerprint, &delta);
        let mut latency_s = Vec::with_capacity(n);
        let mut ops = Vec::with_capacity(n);
        for (i, r) in reports.iter().enumerate() {
            let status = status_of(i, r);
            let latency = if r.result.is_ok() {
                (r.completion - r.arrival).secs()
            } else {
                f64::INFINITY
            };
            fingerprint.word(status as u64);
            fingerprint.float(latency);
            fingerprint.float(r.busy.secs());
            latency_s.push(latency);
            ops.push(Op {
                kind: CLASSES[i % CLASSES.len()],
                // Queries overlap inside the session and cannot be timed
                // singly from outside: each gets an equal share.
                host_s: if r.result.is_ok() {
                    wall_s / executed as f64
                } else {
                    0.0
                },
                sim_latency_s: latency,
                tuples: if r.result.is_ok() {
                    self.solo[i % CLASSES.len()].tuples
                } else {
                    0
                },
                status,
            });
        }
        let done = || reports.iter().filter(|r| r.result.is_ok());
        let first_arrival = reports
            .iter()
            .map(|r| r.arrival.secs())
            .fold(f64::INFINITY, f64::min);
        let last_completion = done().map(|r| r.completion.secs()).fold(0.0, f64::max);
        let busy_s: f64 = done().map(|r| r.busy.secs()).sum();
        self.sessions.push(Session {
            rate,
            wall_s,
            executed,
            shed: n - executed,
            kernel_launches: delta.kernel_launches,
            latency_s,
            queue_wait_s: done().map(|r| r.queue_wait().secs()).sum(),
            busy_s,
            span_s: last_completion - first_arrival,
        });
        let sim = SessionSim {
            busy_s,
            dram_bytes: delta.dram_bytes(),
            fingerprint: fingerprint.finish(),
        };
        (ops, sim)
    }

    /// The sessions of the first timed sweep at `rate`.
    fn first(&self, rate: &str) -> &Session {
        self.sessions
            .iter()
            .find(|s| s.rate == rate)
            .expect("every rate has a session")
    }
}

struct SessionSim {
    busy_s: f64,
    dram_bytes: u64,
    fingerprint: u64,
}

/// Latencies of the arrivals that completed.
fn completed(latency_s: &[f64]) -> Vec<f64> {
    latency_s
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect()
}

/// A session meets the limit when its p95 over *all* arrivals (shed ones
/// count as never completing) is within it, nothing was shed, and the second
/// half's mean latency shows no growing backlog.
fn meets_limit(s: &Session) -> bool {
    let Some(p95) = percentile(&s.latency_s, 95.0) else {
        return false;
    };
    let (first, second) = s.latency_s.split_at(s.latency_s.len() / 2);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    s.shed == 0 && p95 <= limit_s() && mean(second) <= BACKLOG_GROWTH * mean(first)
}

impl Workload for ServingBench {
    /// One sweep: the four rates in order, a fresh device for each.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let wall = Instant::now();
        let mut pass = Pass {
            ops: Vec::new(),
            wall_s: 0.0,
            sim_s: 0.0,
            dram_bytes: 0,
            fingerprint: 0,
        };
        let mut fingerprint = Fnv::new();
        for (rate, factor) in RATES {
            let (ops, sim) = self.session(rate, factor, self.arrivals, tracer);
            pass.ops.extend(ops);
            pass.sim_s += sim.busy_s;
            pass.dram_bytes += sim.dram_bytes;
            fingerprint.word(sim.fingerprint);
        }
        pass.wall_s = wall.elapsed().as_secs_f64();
        pass.fingerprint = fingerprint.finish();
        pass
    }

    fn summarize(&self, passes: &[Pass]) -> Summary {
        let first = &passes[0];
        let mut sim = vec![
            metric("sim_s", first.sim_s, "sim_s"),
            metric("sim_dram_gb", first.dram_bytes as f64 / 1e9, "sim_GB"),
        ];
        let r080 = completed(&self.first("r080").latency_s);
        let ms = |xs: &[f64]| xs.iter().map(|l| l * 1e3).collect::<Vec<_>>();
        sim.push(metric("sim_latency_ms_p50", median(&ms(&r080)), "sim_ms"));
        if let Some(p95) = percentile(&ms(&r080), 95.0) {
            sim.push(metric("sim_latency_ms_p95", p95, "sim_ms"));
        }
        let r150 = self.first("r150");
        let within = r150.latency_s.iter().filter(|l| **l <= limit_s()).count();
        sim.push(metric(
            "sim_goodput_qps",
            within as f64 / r150.span_s,
            "sim_1/s",
        ));
        let max_rate = RATES
            .iter()
            .filter(|(rate, _)| meets_limit(self.first(rate)))
            .map(|(_, factor)| rate_qps(*factor))
            .fold(0.0, f64::max);
        if max_rate > 0.0 {
            sim.push(metric("sim_slo_max_rate_qps", max_rate, "sim_1/s"));
        }

        let per_session = |f: fn(&Session) -> f64| -> f64 {
            median(&self.sessions.iter().map(f).collect::<Vec<_>>())
        };
        let host_ms_per_query = per_session(|s| s.wall_s * 1e3 / s.executed as f64);
        let solo_host_ms =
            self.solo.iter().map(|s| s.host_s * 1e3).sum::<f64>() / self.solo.len() as f64;
        let mut layer: Vec<Metric> = vec![
            metric("scheduler.host_ms_per_query", host_ms_per_query, "ms"),
            metric(
                "scheduler.host_us_per_kernel_turn",
                per_session(|s| s.wall_s * 1e6 / s.kernel_launches as f64),
                "us",
            ),
            metric(
                "scheduler.overhead_ratio",
                host_ms_per_query / solo_host_ms,
                "ratio",
            ),
            metric(
                "scheduler.sim_capacity_qps",
                1.0 / self.mean_solo_sim_s(),
                "sim_1/s",
            ),
        ];
        let s080 = self.first("r080");
        layer.push(metric(
            "scheduler.sim_util.r080",
            s080.busy_s / s080.span_s,
            "ratio",
        ));
        layer.push(metric(
            "scheduler.sim_queue_wait_frac.r080",
            s080.queue_wait_s / completed(&s080.latency_s).iter().sum::<f64>(),
            "ratio",
        ));
        layer.push(metric(
            "scheduler.shed_frac.r150",
            r150.shed as f64 / r150.latency_s.len() as f64,
            "ratio",
        ));
        // Over the arrivals that completed. At r150 a quarter is shed, which
        // leaves too few for a p95: its tail is reported as the p90.
        for (rate, _) in RATES {
            let (name, pct) = if rate == "r150" {
                ("p90", 90.0)
            } else {
                ("p95", 95.0)
            };
            if let Some(tail) = percentile(&ms(&completed(&self.first(rate).latency_s)), pct) {
                layer.push(metric(
                    format!("scheduler.sim_latency_ms_{name}.{rate}"),
                    tail,
                    "sim_ms",
                ));
            }
        }

        let rates = RATES
            .iter()
            .map(|(rate, factor)| format!("{rate}={:.0}", rate_qps(*factor)))
            .collect::<Vec<_>>()
            .join(" ");
        Summary {
            sim,
            layer,
            notes: vec![
                format!(
                    "inputs: tpch_mini(orders = 2^{ORDERS_LOG2}); open loop on the simulated clock, \
                     {} arrivals per rate, classes q18/q3/q1 cycling, Policy::SjfAging, total depth \
                     {TOTAL_DEPTH}, fresh device (cold L2) per rate",
                    self.arrivals
                ),
                format!(
                    "frozen rates (simulated q/s): {rates}; latency limit on the p95: {:.4} sim_ms \
                     ({LIMIT_FACTOR} x the frozen mean service time)",
                    limit_s() * 1e3
                ),
                format!(
                    "sim_latency_ms_* are at r080 (n = {} completed), sim_goodput_qps at r150 \
                     ({} of {} shed, expected under overload)",
                    r080.len(),
                    r150.shed,
                    r150.latency_s.len()
                ),
                "arrivals are stamped on the simulated clock: generator lateness is 0 by construction"
                    .into(),
                "model unvalidated: the repo holds no paper numbers for serving".into(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_offsets_are_a_pure_function_of_their_arguments() {
        let a = arrival_offsets(rate_qps(0.8), 240);
        assert_eq!(a, arrival_offsets(rate_qps(0.8), 240));
        assert_eq!(a.len(), 240);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets increase");
        assert_ne!(a, arrival_offsets(rate_qps(1.0), 240));
        assert_ne!(a[..60], arrival_offsets(rate_qps(0.8), 60)[..]);
    }

    #[test]
    fn arrival_gaps_average_to_the_nominal_rate() {
        for (_, factor) in RATES {
            let rate = rate_qps(factor);
            let offsets = arrival_offsets(rate, 240);
            let mean_gap = offsets.last().unwrap() / 240.0;
            assert!(
                (mean_gap * rate - 1.0).abs() < 0.02,
                "mean gap {mean_gap} at rate {rate}"
            );
        }
    }
}
