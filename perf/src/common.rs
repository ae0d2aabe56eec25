//! What every workload shares: the device, the record of a timed pass, and
//! the end-to-end metrics computed from those records.

use crate::spans::Tracer;
use crate::stats::{median, percentile, rel_diff, Fnv};
use columnar::{Column, DType};
use sim::{Counters, Device, DeviceConfig};

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper: full inputs, timed passes until `seconds` is up
    /// and the pass floor is met, set-up repeated [`SETUP_REPS`] times.
    Full,
    /// The per-layer probes: smaller inputs, five passes.
    Probe,
    /// The traced run: full inputs, a few passes with spans off and on.
    Traced,
    /// Unit tests: 2^12 rows, one pass.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Set-ups per `Size::Full` run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Feeds every generator: `JoinWorkload.seed`, `AggWorkload.seed`,
    /// `tpch_full` / `tpch_mini`, and the arrival process.
    pub seed: u64,
    /// Wall-clock target of the timed loop (`Size::Full` only).
    pub seconds: f64,
    pub size: Size,
}

/// Host threads the simulator may use: `min(2, nproc)`.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The device every workload runs on: an A100 shrunk with the data so that a
/// `2^scale_log2`-tuple input stresses it as 2^27 tuples stress the real one
/// (the paper-regime scaling of `bench::Args::device`). The modelled L2
/// starts cold and is never flushed between passes.
pub fn device(scale_log2: u32, threads: usize) -> Device {
    let factor = 2f64.powi(27 - scale_log2 as i32).max(1.0);
    Device::new(
        DeviceConfig::a100()
            .scaled(factor)
            .with_host_threads(threads),
    )
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ran and its output matched the expectation recorded in warm-up.
    Ok,
    /// Refused by admission control (`serving_open` under overload). Counts
    /// against `ok_frac` and as missing the latency limit, but is expected.
    Shed,
    /// Errored, or its output check failed. Makes the run incorrect.
    Failed,
}

/// One timed operation: a join call, a group-by call, a query, an arrival.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which kind of operation (algorithm, SQL text, class); groups the
    /// per-layer numbers.
    pub kind: &'static str,
    /// Wall time of the call, measured around it; 0 for shed arrivals.
    pub host_s: f64,
    /// Simulated latency: service time in a closed loop, completion minus
    /// arrival in the open loop.
    pub sim_latency_s: f64,
    /// Input tuples the operation read.
    pub tuples: u64,
    pub status: Status,
}

/// One pass over a workload's operations.
#[derive(Debug, Clone)]
pub struct Pass {
    pub ops: Vec<Op>,
    /// Wall time of the whole pass, checks and span bookkeeping included;
    /// only the trace-overhead figure uses it.
    pub wall_s: f64,
    /// Simulated device seconds the pass's operations took.
    pub sim_s: f64,
    /// `Counters::dram_bytes()` delta of the pass.
    pub dram_bytes: u64,
    /// Hash of every counter and simulated time of the pass.
    pub fingerprint: u64,
}

impl Pass {
    /// Host seconds spent inside the timed calls.
    pub fn host_s(&self) -> f64 {
        self.ops.iter().map(|op| op.host_s).sum()
    }

    /// Tuples read by the operations that ran.
    pub fn tuples(&self) -> u64 {
        self.ops.iter().map(|op| op.tuples).sum()
    }
}

/// What a workload reports beyond the generic host metrics.
#[derive(Debug, Default)]
pub struct Summary {
    /// The simulated-clock end-to-end metrics.
    pub sim: Vec<Metric>,
    /// Per-layer metrics read off the passes.
    pub layer: Vec<Metric>,
    /// Lines for the human reader: parameters, fidelity, caveats.
    pub notes: Vec<String>,
}

pub trait Workload {
    /// Run every operation once, timing each call from outside.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;
    /// Turn the timed passes into this workload's own metrics.
    fn summarize(&self, passes: &[Pass]) -> Summary;
    /// Whether every pass must reproduce the first one's simulated
    /// statistics bit for bit (up to clock rounding).
    fn sim_repeats_exactly(&self) -> bool {
        true
    }
}

/// Fold the integer counters and the cycle count into `h`.
pub fn hash_counters(h: &mut Fnv, c: &Counters) {
    for w in [
        c.kernel_launches,
        c.warp_instructions,
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.load_requests,
        c.sectors_requested,
        c.l2_hits,
        c.l2_misses,
        c.atomics,
    ] {
        h.word(w);
    }
    h.float(c.cycles);
}

/// Whether a timed call's simulated time equals its warm-up's. Simulated
/// statistics are deterministic; anything beyond clock rounding is a change.
pub fn sim_matches(measured_s: f64, warmup_s: f64) -> bool {
    rel_diff(measured_s, warmup_s) <= 1e-9
}

/// Order-independent checksum of a column: the wrapping sum of its values.
/// Algorithms emit result rows in different orders, the sum is the same.
pub fn column_checksum(col: &Column) -> u64 {
    match col.dtype() {
        DType::I32 => col
            .as_i32()
            .as_slice()
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(v as i64 as u64)),
        DType::I64 => col
            .as_i64()
            .as_slice()
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(v as u64)),
    }
}

/// Checksum of a result: its columns' checksums, folded in column order.
pub fn columns_checksum<'a>(cols: impl IntoIterator<Item = &'a Column>) -> u64 {
    cols.into_iter().fold(0u64, |acc, col| {
        acc.rotate_left(7).wrapping_add(column_checksum(col))
    })
}

/// Time one call from outside. `inspect` looks at the result between the
/// call and its release and is not timed; releasing the result is, because
/// it is part of what a caller pays.
pub fn timed_call<T, R>(call: impl FnOnce() -> T, inspect: impl FnOnce(&T) -> R) -> (f64, R) {
    let t = std::time::Instant::now();
    let out = call();
    let call_s = t.elapsed().as_secs_f64();
    let seen = inspect(&out);
    let t = std::time::Instant::now();
    drop(out);
    (call_s + t.elapsed().as_secs_f64(), seen)
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host-clock end-to-end metrics, identical in definition for every
/// workload. `host_query_ms_p95` is left out when fewer than 200 operations
/// were timed (the percentile helper refuses it).
pub fn host_metrics(passes: &[Pass]) -> Vec<Metric> {
    let pass_s: Vec<f64> = passes.iter().map(Pass::host_s).collect();
    let tuples = median(&passes.iter().map(|p| p.tuples() as f64).collect::<Vec<_>>());
    let ops: usize = passes.iter().map(|p| p.ops.len()).sum();
    let mut out = vec![
        metric(
            "host_mtuples_per_s",
            tuples / median(&pass_s) / 1e6,
            "Mtuples/s",
        ),
        metric(
            "host_queries_per_s",
            ops as f64 / pass_s.iter().sum::<f64>(),
            "1/s",
        ),
    ];
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.ops)
        .filter(|op| op.status != Status::Shed)
        .map(|op| op.host_s * 1e3)
        .collect();
    if let Some(p95) = percentile(&op_ms, 95.0) {
        out.push(metric("host_query_ms_p95", p95, "ms"));
    }
    out
}

/// The simulated-clock end-to-end metrics of a closed loop with one client.
/// Nothing queues, so an operation's latency is its simulated service time,
/// and both the goodput and the highest sustainable rate are the rate the
/// loop itself achieves: operations per simulated second.
pub fn closed_loop_sim_metrics(passes: &[Pass]) -> Vec<Metric> {
    let first = &passes[0];
    let lat_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.ops)
        .map(|op| op.sim_latency_s * 1e3)
        .collect();
    let rate = first.ops.len() as f64 / first.sim_s;
    let mut out = vec![
        metric("sim_s", first.sim_s, "sim_s"),
        metric("sim_dram_gb", first.dram_bytes as f64 / 1e9, "sim_GB"),
        metric("sim_latency_ms_p50", median(&lat_ms), "sim_ms"),
    ];
    if let Some(p95) = percentile(&lat_ms, 95.0) {
        out.push(metric("sim_latency_ms_p95", p95, "sim_ms"));
    }
    out.push(metric("sim_goodput_qps", rate, "sim_1/s"));
    out.push(metric("sim_slo_max_rate_qps", rate, "sim_1/s"));
    out
}

/// Per-kind layer metrics shared by the operator workloads:
/// `<layer>.<kind>.mtuples_per_host_s` and `<layer>.<kind>.sim_mtuples_per_s`,
/// each from the median call of that kind.
pub fn per_kind_throughput(layer: &str, kinds: &[&'static str], passes: &[Pass]) -> Vec<Metric> {
    let mut out = Vec::new();
    for kind in kinds {
        let of_kind = |f: fn(&Op) -> f64| -> Vec<f64> {
            passes
                .iter()
                .map(|p| {
                    p.ops
                        .iter()
                        .filter(|op| op.kind == *kind)
                        .map(f)
                        .sum::<f64>()
                })
                .collect()
        };
        let tuples = of_kind(|op| op.tuples as f64)[0];
        out.push(metric(
            format!("{layer}.{kind}.mtuples_per_host_s"),
            tuples / median(&of_kind(|op| op.host_s)) / 1e6,
            "Mtuples/s",
        ));
        out.push(metric(
            format!("{layer}.{kind}.sim_mtuples_per_s"),
            tuples / median(&of_kind(|op| op.sim_latency_s)) / 1e6,
            "sim_Mtuples/s",
        ));
    }
    out
}

/// Time `f` from outside, `reps` times; the median in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}
