//! Simulated-clock tracing: an "Nsight Systems for the simulator".
//!
//! Every claim in the paper is argued from profiler evidence — per-kernel
//! counters (Table 4), phase breakdowns (Figures 1, 9, 10), memory
//! timelines (Table 5). This module records the same evidence from the
//! simulator: timestamped events on the **simulated clock**, captured while
//! the device lock is held so recording is deterministic and bit-identical
//! across re-runs.
//!
//! Three event classes:
//!
//! * [`KernelEvent`] — one per kernel launch: its simulated start time and
//!   duration plus `work`, the launch's own [`Counters`] record (warp
//!   instructions, DRAM bytes, load requests and sectors, L2 hits and
//!   misses, atomics) — the same value the lane's counters were bumped by.
//! * [`SpanEvent`] — nested intervals opened by the execution harnesses:
//!   one per operator node (`engine::op::run_operator`), per join / grouped
//!   aggregation (`joins::run_join`, `groupby::run_group_by`), per
//!   out-of-core chunk, and per paper phase (transformation / match
//!   finding / materialization / other).
//! * [`MemEvent`] / [`InstantEvent`] — memory-ledger samples at every
//!   allocation and free (peak memory becomes a timeline, not one number)
//!   and point markers such as `reset_stats`.
//!
//! [`TraceEvent`] is also the simulator's one observation stream. The
//! device emits every event once, from one site, under its lock; a
//! [`Trace`] is one of the two folds over that stream (it keeps the
//! events, coalescing same-instant memory samples and evicting the oldest
//! past a flight-recorder cap), and [`crate::metrics`] is the other (it
//! folds the base lane's events, and operator spans from any lane, into
//! totals, distributions and time series). Tracing is opt-in per handle
//! ([`crate::Device::enable_tracing`]) and costs nothing when no fold
//! would take the event: the emit site checks two `Option`s and returns
//! before building it. Because events are derived from state that is
//! already bit-identical across re-runs, the exported bytes are too — and
//! attaching metrics changes none of them.
//!
//! Exporters:
//!
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON (load in Perfetto or
//!   `chrome://tracing`): one process per device, spans and kernels on
//!   separate tracks, memory as a counter track.
//! * [`jsonl`] — one JSON object per line, for `jq`-style analysis.
//! * [`render_kernel_summary`] — an `nsys stats`-style per-kernel-name
//!   aggregation table (launches, total time, % of kernel time, traffic).

use crate::{Counters, SimTime};

/// Category of a [`SpanEvent`] — which harness opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanCat {
    /// An `engine::op::run_operator` plan-node bracket.
    Operator,
    /// A `joins::run_join` execution (one per chunk when out-of-core).
    Join,
    /// A `groupby::run_group_by` execution.
    GroupBy,
    /// One out-of-core chunk of a chunked join (Section 4.4).
    Chunk,
    /// One paper phase: `transform`, `match_find`, `materialize`, `other`.
    Phase,
}

impl SpanCat {
    /// Stable lowercase label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCat::Operator => "operator",
            SpanCat::Join => "join",
            SpanCat::GroupBy => "group_by",
            SpanCat::Chunk => "chunk",
            SpanCat::Phase => "phase",
        }
    }
}

/// One kernel launch: simulated interval plus that launch's work.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// The name passed to [`crate::Device::kernel`].
    pub name: &'static str,
    /// Simulated start time, seconds.
    pub start: f64,
    /// Simulated duration, seconds.
    pub dur: f64,
    /// The query this launch belonged to, when it ran through a query
    /// handle of a multi-query scheduling session (`None` otherwise). In a
    /// query's private trace `start` is on the query's own clock; in the
    /// base device's trace the same launch appears at its device-clock
    /// position, tagged with this id — the multi-tenant timeline.
    pub query: Option<u32>,
    /// The launch's one-kernel [`Counters`] record (`kernel_launches: 1`,
    /// `cycles: dur * clock_hz`) — the very value the lane's counters were
    /// bumped by, so a trace's `work` records sum to the counter delta.
    pub work: Counters,
}

/// A nested interval opened by one of the execution harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Which harness opened the span.
    pub cat: SpanCat,
    /// Human-readable label (operator label, algorithm name, phase name).
    pub name: String,
    /// Simulated start time, seconds.
    pub start: f64,
    /// Simulated end time, seconds.
    pub end: f64,
    /// What an operator span reports to the metrics fold; `None` on every
    /// other span. The trace writers do not print it.
    pub op: Option<OperatorRecord>,
}

/// The operator-node measurement an [`SpanCat::Operator`] span carries:
/// the metrics recorder folds `operator_seconds`, `operator_rows_total`
/// and `operator_rows_per_sec` from it, on any lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorRecord {
    /// Stable operator-kind tag (`"join"`, `"aggregate"`, …), the `op`
    /// label of the metric families.
    pub kind: &'static str,
    /// Output rows.
    pub rows: u64,
    /// The node's `OpStats::total_time()`, seconds. Carried rather than
    /// derived from the span: `end - start` may differ in the last bit.
    pub secs: f64,
}

impl SpanEvent {
    /// Span duration in simulated seconds.
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// A memory-ledger sample: device memory in use at a simulated timestamp.
///
/// Samples taken at the same timestamp (the clock only advances at kernel
/// launches, so a phase's allocations share one instant) are coalesced into
/// a single event keeping both the last value and the within-instant
/// high-water mark.
#[derive(Debug, Clone, PartialEq)]
pub struct MemEvent {
    /// Simulated timestamp, seconds.
    pub ts: f64,
    /// Bytes in use after the last allocation/free at this timestamp.
    pub current_bytes: u64,
    /// Highest bytes-in-use observed at this timestamp.
    pub high_water_bytes: u64,
}

/// The [`InstantEvent`] name `Device::reset_stats` leaves at the old clock;
/// the metrics fold rebases its sample grid on it.
pub(crate) const RESET_STATS: &str = "reset_stats";

/// A point marker (e.g. `reset_stats`, chunk boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Marker label.
    pub name: &'static str,
    /// Simulated timestamp, seconds.
    pub ts: f64,
}

/// A stage of a query's serving-path lifecycle.
///
/// Stages come in two shapes: *spans* (`queued`, `exec_slice`,
/// `interference`) cover an interval of the query's wall time, and
/// *instants* (everything else) mark a point. Together, a completed query's
/// spans tile `[arrival, completion]` exactly — see
/// [`LifecycleEvent`] for the partition guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// The query arrived at the serving path (instant).
    Arrival,
    /// Waiting for admission: `[arrival, admitted]` (span).
    Queued,
    /// Admission control granted the memory reservation (instant).
    Admitted,
    /// Admission control shed the query from the queue (terminal instant).
    Shed,
    /// Admission control rejected the query outright (terminal instant).
    Rejected,
    /// The plan cache served a compiled plan (instant).
    PlanCacheHit,
    /// The plan cache compiled and inserted a plan (instant).
    PlanCacheMiss,
    /// The plan cache evicted its least recently used plan to make room
    /// (instant).
    PlanCacheEvict,
    /// One contiguous run of kernel turns designated to this query (span).
    ExecSlice,
    /// Runnable but not designated by the policy: device time spent
    /// waiting on co-tenants' kernels or idle advances (span).
    Interference,
    /// The query retired (instant).
    Complete,
}

impl LifecycleStage {
    /// Stable lowercase label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            LifecycleStage::Arrival => "arrival",
            LifecycleStage::Queued => "queued",
            LifecycleStage::Admitted => "admitted",
            LifecycleStage::Shed => "shed",
            LifecycleStage::Rejected => "rejected",
            LifecycleStage::PlanCacheHit => "plan_cache_hit",
            LifecycleStage::PlanCacheMiss => "plan_cache_miss",
            LifecycleStage::PlanCacheEvict => "plan_cache_evict",
            LifecycleStage::ExecSlice => "exec_slice",
            LifecycleStage::Interference => "interference",
            LifecycleStage::Complete => "complete",
        }
    }

    /// Whether this stage covers an interval (vs. marking a point).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            LifecycleStage::Queued | LifecycleStage::ExecSlice | LifecycleStage::Interference
        )
    }
}

/// One stage of one query's end-to-end lifecycle on the serving path.
///
/// For every completed query the span stages partition its latency
/// *exactly*: converting each boundary with
/// [`crate::metrics::secs_to_ticks`] and summing per-span tick differences,
/// `queued + Σ exec_slice + Σ interference == complete − arrival` to the
/// nanosecond, because consecutive spans share their boundary timestamps
/// and the tick sum telescopes.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleEvent {
    /// The query this stage belongs to. `None` for events that predate a
    /// query id (admission-rejected specs) or standalone plan-cache use.
    pub query: Option<u32>,
    /// Which lifecycle stage.
    pub stage: LifecycleStage,
    /// Simulated start time, seconds. Equal to `end` for instant stages.
    pub start: f64,
    /// Simulated end time, seconds.
    pub end: f64,
    /// How the query ended, on its terminal instant (`complete`, `shed`
    /// or `rejected`); `None` on every other stage. The trace writers do
    /// not print it; the metrics recorder folds the `query_*` and `slo_*`
    /// families from it.
    pub outcome: Option<Box<QueryOutcome>>,
}

/// What a query's terminal lifecycle instant reports about it: the
/// scheduler's record (class, SLO target, arrival, admission and
/// completion stamps) and whether it ended in an error its terminal stage
/// does not name — a budget overrun mid-run on `complete`, a budget the
/// session can never grant on `rejected`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The scheduler's record of the query as it ended.
    pub sched: crate::QuerySchedStats,
    /// The query failed rather than completed, was shed or was rejected by
    /// the admission gate.
    pub failed: bool,
}

impl LifecycleEvent {
    /// Stage duration in simulated seconds (zero for instants).
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A kernel launch.
    Kernel(KernelEvent),
    /// A harness span.
    Span(SpanEvent),
    /// A memory-ledger sample.
    Mem(MemEvent),
    /// A point marker.
    Instant(InstantEvent),
    /// A query-lifecycle stage on the serving path.
    Lifecycle(LifecycleEvent),
}

/// A device's recorded event log, in recording order.
///
/// Obtain via [`crate::Device::take_trace`] or
/// [`crate::Device::trace_snapshot`]; export with [`chrome_trace_json`],
/// [`jsonl`] or [`render_kernel_summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The device name this trace was recorded on.
    pub device: String,
    /// All events, in recording order. Spans are recorded retroactively
    /// (when they close), so a parent span appears *after* its children.
    pub events: Vec<TraceEvent>,
    /// Flight-recorder capacity ([`crate::Device::enable_tracing_ring`]):
    /// `None` records unbounded.
    capacity: Option<usize>,
    /// Total events evicted by the flight recorder.
    dropped: u64,
}

impl Trace {
    pub(crate) fn new(device: String) -> Self {
        Trace {
            device,
            events: Vec::new(),
            capacity: None,
            dropped: 0,
        }
    }

    /// Cap the recorder at `capacity` events, keeping the newest.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = Some(capacity.max(1));
    }

    /// Total events evicted by the flight recorder so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Evict the oldest events if the flight recorder is over capacity,
    /// returning how many were dropped. Eviction removes a block (a
    /// quarter of the capacity) at a time so steady-state recording is not
    /// a per-event `Vec` front-drain.
    fn enforce_capacity(&mut self) -> u64 {
        let Some(cap) = self.capacity else { return 0 };
        if self.events.len() <= cap {
            return 0;
        }
        let block = (cap / 4).max(1).max(self.events.len() - cap);
        self.events.drain(..block);
        self.dropped += block as u64;
        block as u64
    }

    /// Iterate over the kernel events.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Kernel(k) => Some(k),
            _ => None,
        })
    }

    /// Iterate over the span events.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
    }

    /// Iterate over the memory samples.
    pub fn mem_samples(&self) -> impl Iterator<Item = &MemEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Mem(m) => Some(m),
            _ => None,
        })
    }

    /// Iterate over the query-lifecycle events.
    pub fn lifecycles(&self) -> impl Iterator<Item = &LifecycleEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Lifecycle(l) => Some(l),
            _ => None,
        })
    }

    /// Append one event — the trace's only write. A memory sample that
    /// lands on the same instant as the previous event's sample is folded
    /// into it instead (the clock is frozen between kernel launches, so a
    /// burst of allocations is one sample keeping the last value and the
    /// within-instant high-water mark). Returns the events the flight
    /// recorder evicted to make room.
    pub(crate) fn record(&mut self, event: TraceEvent) -> u64 {
        if let (TraceEvent::Mem(m), Some(TraceEvent::Mem(last))) = (&event, self.events.last_mut())
        {
            if last.ts == m.ts {
                last.current_bytes = m.current_bytes;
                last.high_water_bytes = last.high_water_bytes.max(m.high_water_bytes);
                return 0;
            }
        }
        self.events.push(event);
        self.enforce_capacity()
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Microseconds with nanosecond precision — the Chrome `trace_event`
/// timestamp unit, formatted deterministically.
fn us(secs: f64) -> String {
    format!("{:.3}", secs * 1e6)
}

/// Render traces as Chrome `trace_event` JSON (the format Perfetto and
/// `chrome://tracing` load).
///
/// Layout: one *process* per device (pid = index + 1) named after the
/// device; *thread* 1 carries the harness spans, *thread* 2 the kernel
/// launches (both as `"X"` complete events, nested by containment);
/// memory samples become a `"C"` counter track; markers become `"i"`
/// instant events. Timestamps are simulated microseconds with nanosecond
/// precision.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    for (i, tr) in traces.iter().enumerate() {
        let pid = i + 1;
        let mut name = String::new();
        escape_into(&mut name, &tr.device);
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
        for (tid, tname) in [(1, "operators & phases"), (2, "kernels")] {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{tname}\"}}}}"
                ),
            );
        }
        // One lifecycle track per query (tid 100 + id; tid 99 for events
        // with no query id). Emitted only when lifecycle events exist, so
        // pre-serving traces keep their exact historical bytes.
        let mut life_tids: Vec<(u64, String)> = Vec::new();
        for ev in &tr.events {
            if let TraceEvent::Lifecycle(l) = ev {
                let (tid, tname) = match l.query {
                    Some(q) => (100 + q as u64, format!("q{q} lifecycle")),
                    None => (99, "lifecycle".to_string()),
                };
                if !life_tids.iter().any(|(t, _)| *t == tid) {
                    life_tids.push((tid, tname));
                }
            }
        }
        life_tids.sort_by_key(|(t, _)| *t);
        for (tid, tname) in &life_tids {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{tname}\"}}}}"
                ),
            );
        }
        // Emit "X" events sorted by start time, longest-first on ties, so
        // viewers that build stacks in array order nest parents before
        // children (spans are recorded child-first).
        let mut timed: Vec<(f64, f64, String)> = Vec::new();
        for ev in &tr.events {
            match ev {
                TraceEvent::Kernel(k) => {
                    let mut kname = String::new();
                    escape_into(&mut kname, k.name);
                    // Query attribution is emitted only when present, so
                    // single-query traces keep their exact historical bytes.
                    let qarg = match k.query {
                        Some(q) => format!("\"query\":{q},"),
                        None => String::new(),
                    };
                    timed.push((
                        k.start,
                        k.dur,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":2,\"cat\":\"kernel\",\
                             \"name\":\"{kname}\",\"ts\":{ts},\"dur\":{dur},\"args\":{{{qarg}\
                             \"warp_instructions\":{wi},\"dram_read_bytes\":{dr},\
                             \"dram_write_bytes\":{dw},\"load_requests\":{lr},\
                             \"sectors_per_request\":{spr:.3},\"l2_hit_rate\":{l2:.4},\
                             \"atomics\":{at}}}}}",
                            ts = us(k.start),
                            dur = us(k.dur),
                            wi = k.work.warp_instructions,
                            dr = k.work.dram_read_bytes,
                            dw = k.work.dram_write_bytes,
                            lr = k.work.load_requests,
                            spr = k.work.sectors_per_request(),
                            l2 = k.work.l2_hit_rate(),
                            at = k.work.atomics,
                        ),
                    ));
                }
                TraceEvent::Span(s) => {
                    let mut sname = String::new();
                    escape_into(&mut sname, &s.name);
                    timed.push((
                        s.start,
                        s.dur(),
                        format!(
                            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"cat\":\"{cat}\",\
                             \"name\":\"{sname}\",\"ts\":{ts},\"dur\":{dur}}}",
                            cat = s.cat.as_str(),
                            ts = us(s.start),
                            dur = us(s.dur()),
                        ),
                    ));
                }
                TraceEvent::Mem(m) => {
                    timed.push((
                        m.ts,
                        0.0,
                        format!(
                            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"name\":\"device memory\",\
                             \"ts\":{ts},\"args\":{{\"bytes\":{bytes}}}}}",
                            ts = us(m.ts),
                            bytes = m.high_water_bytes,
                        ),
                    ));
                }
                TraceEvent::Instant(ins) => {
                    let mut iname = String::new();
                    escape_into(&mut iname, ins.name);
                    timed.push((
                        ins.ts,
                        0.0,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":1,\"name\":\"{iname}\",\
                             \"ts\":{ts},\"s\":\"p\"}}",
                            ts = us(ins.ts),
                        ),
                    ));
                }
                TraceEvent::Lifecycle(l) => {
                    let tid = match l.query {
                        Some(q) => 100 + q as u64,
                        None => 99,
                    };
                    if l.stage.is_span() {
                        timed.push((
                            l.start,
                            l.dur(),
                            format!(
                                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                                 \"cat\":\"lifecycle\",\"name\":\"{name}\",\
                                 \"ts\":{ts},\"dur\":{dur}}}",
                                name = l.stage.as_str(),
                                ts = us(l.start),
                                dur = us(l.dur()),
                            ),
                        ));
                    } else {
                        timed.push((
                            l.start,
                            0.0,
                            format!(
                                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\
                                 \"cat\":\"lifecycle\",\"name\":\"{name}\",\
                                 \"ts\":{ts},\"s\":\"t\"}}",
                                name = l.stage.as_str(),
                                ts = us(l.start),
                            ),
                        ));
                    }
                }
            }
        }
        timed.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        for (_, _, line) in timed {
            push(&mut out, line);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render traces as JSON Lines: one self-describing object per event, in
/// recording order, with a `device` field on every line. Suited to `jq`.
pub fn jsonl(traces: &[Trace]) -> String {
    let mut out = String::new();
    for tr in traces {
        let mut dev = String::new();
        escape_into(&mut dev, &tr.device);
        for ev in &tr.events {
            match ev {
                TraceEvent::Kernel(k) => {
                    let mut name = String::new();
                    escape_into(&mut name, k.name);
                    // As in the Chrome exporter, `query` appears only when
                    // set, keeping pre-scheduler trace bytes unchanged.
                    let qfield = match k.query {
                        Some(q) => format!("\"query\":{q},"),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{{\"type\":\"kernel\",\"device\":\"{dev}\",\"name\":\"{name}\",\
                         {qfield}\"start\":{},\"dur\":{},\"warp_instructions\":{},\
                         \"dram_read_bytes\":{},\"dram_write_bytes\":{},\
                         \"load_requests\":{},\"sectors_requested\":{},\
                         \"l2_hits\":{},\"l2_misses\":{},\"atomics\":{}}}\n",
                        k.start,
                        k.dur,
                        k.work.warp_instructions,
                        k.work.dram_read_bytes,
                        k.work.dram_write_bytes,
                        k.work.load_requests,
                        k.work.sectors_requested,
                        k.work.l2_hits,
                        k.work.l2_misses,
                        k.work.atomics,
                    ));
                }
                TraceEvent::Span(s) => {
                    let mut name = String::new();
                    escape_into(&mut name, &s.name);
                    out.push_str(&format!(
                        "{{\"type\":\"span\",\"device\":\"{dev}\",\"cat\":\"{}\",\
                         \"name\":\"{name}\",\"start\":{},\"end\":{}}}\n",
                        s.cat.as_str(),
                        s.start,
                        s.end,
                    ));
                }
                TraceEvent::Mem(m) => {
                    out.push_str(&format!(
                        "{{\"type\":\"mem\",\"device\":\"{dev}\",\"ts\":{},\
                         \"current_bytes\":{},\"high_water_bytes\":{}}}\n",
                        m.ts, m.current_bytes, m.high_water_bytes,
                    ));
                }
                TraceEvent::Instant(ins) => {
                    let mut name = String::new();
                    escape_into(&mut name, ins.name);
                    out.push_str(&format!(
                        "{{\"type\":\"instant\",\"device\":\"{dev}\",\
                         \"name\":\"{name}\",\"ts\":{}}}\n",
                        ins.ts,
                    ));
                }
                TraceEvent::Lifecycle(l) => {
                    let qfield = match l.query {
                        Some(q) => format!("\"query\":{q},"),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{{\"type\":\"lifecycle\",\"device\":\"{dev}\",{qfield}\
                         \"stage\":\"{stage}\",\"start\":{},\"end\":{}}}\n",
                        l.start,
                        l.end,
                        stage = l.stage.as_str(),
                    ));
                }
            }
        }
    }
    out
}

/// Per-kernel-name aggregate over one or more traces — the rows of the
/// `nsys stats`-style summary.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Kernel name.
    pub name: &'static str,
    /// Summed simulated duration, seconds.
    pub total_secs: f64,
    /// Every launch's [`KernelEvent::work`], folded with `+=`
    /// (`work.kernel_launches` is the launch count).
    pub work: Counters,
}

/// Aggregate kernel events by name, sorted by total simulated time
/// descending (name ascending on ties).
pub fn kernel_stats(traces: &[Trace]) -> Vec<KernelStat> {
    let mut by_name: Vec<KernelStat> = Vec::new();
    for tr in traces {
        for k in tr.kernels() {
            let stat = match by_name.iter_mut().find(|s| s.name == k.name) {
                Some(s) => s,
                None => {
                    by_name.push(KernelStat {
                        name: k.name,
                        total_secs: 0.0,
                        work: Counters::default(),
                    });
                    by_name.last_mut().unwrap()
                }
            };
            stat.total_secs += k.dur;
            stat.work += &k.work;
        }
    }
    by_name.sort_by(|a, b| {
        b.total_secs
            .partial_cmp(&a.total_secs)
            .unwrap()
            .then_with(|| a.name.cmp(b.name))
    });
    by_name
}

/// Render the per-kernel-name aggregation as an `nsys stats`-style text
/// table: launches, total simulated time, share of total kernel time,
/// coalescing quality, L2 hit rate, DRAM traffic.
pub fn render_kernel_summary(traces: &[Trace]) -> String {
    let stats = kernel_stats(traces);
    let grand_total: f64 = stats.iter().map(|s| s.total_secs).sum();
    let name_w = stats
        .iter()
        .map(|s| s.name.len())
        .chain(["kernel".len()])
        .max()
        .unwrap_or(6);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$}  {:>8}  {:>12}  {:>6}  {:>8}  {:>6}  {:>14}\n",
        "kernel", "launches", "time", "%", "sect/req", "l2hit", "dram"
    ));
    for s in &stats {
        let pct = if grand_total > 0.0 {
            100.0 * s.total_secs / grand_total
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>12}  {:>5.1}%  {:>8.2}  {:>5.1}%  {:>14}\n",
            s.name,
            s.work.kernel_launches,
            format!("{}", SimTime::from_secs(s.total_secs)),
            pct,
            s.work.sectors_per_request(),
            100.0 * s.work.l2_hit_rate(),
            crate::analysis::human_bytes(s.work.dram_bytes()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, SpanCat};

    fn traced_device() -> Device {
        let dev = Device::a100();
        dev.enable_tracing();
        dev
    }

    #[test]
    fn kernel_events_carry_per_launch_deltas() {
        let dev = traced_device();
        dev.kernel("a")
            .items(1 << 10, 2.0)
            .seq_read_bytes(4096)
            .launch();
        dev.kernel("b").items(1 << 10, 2.0).atomics(64, 8).launch();
        let tr = dev.take_trace().unwrap();
        let kernels: Vec<_> = tr.kernels().collect();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].name, "a");
        assert_eq!(kernels[0].start, 0.0);
        assert!(kernels[0].dur > 0.0);
        assert_eq!(kernels[0].work.dram_read_bytes, 4096);
        assert_eq!(kernels[0].work.atomics, 0);
        assert_eq!(kernels[1].name, "b");
        assert_eq!(kernels[1].start, kernels[0].dur);
        assert_eq!(kernels[1].work.atomics, 64);
        // The per-launch deltas sum back to the cumulative counters.
        let c = dev.counters();
        assert_eq!(
            kernels
                .iter()
                .map(|k| k.work.warp_instructions)
                .sum::<u64>(),
            c.warp_instructions
        );
        let t_sum: f64 = kernels.iter().map(|k| k.dur).sum();
        assert!((t_sum - c.cycles / dev.config().clock_hz).abs() <= 1e-12);
    }

    #[test]
    fn disabled_tracing_records_nothing_and_take_is_none() {
        let dev = Device::a100();
        dev.kernel("k").items(32, 1.0).launch();
        assert!(!dev.tracing_enabled());
        assert!(dev.take_trace().is_none());
    }

    #[test]
    fn take_trace_disables_and_snapshot_does_not() {
        let dev = traced_device();
        dev.kernel("k").items(32, 1.0).launch();
        let snap = dev.trace_snapshot().unwrap();
        assert_eq!(snap.kernels().count(), 1);
        assert!(dev.tracing_enabled());
        let tr = dev.take_trace().unwrap();
        assert_eq!(tr, snap);
        assert!(!dev.tracing_enabled());
    }

    #[test]
    fn ring_capacity_bounds_events_and_counts_drops() {
        let dev = Device::a100();
        dev.enable_tracing_ring(2);
        for i in 0..5 {
            dev.kernel(if i % 2 == 0 { "a" } else { "b" })
                .items(32, 1.0)
                .launch();
        }
        let tr = dev.take_trace().unwrap();
        assert!(tr.events.len() <= 2, "capacity must bound retained events");
        assert_eq!(
            tr.events.len() as u64 + tr.dropped_events(),
            5,
            "every launch is either retained or counted as dropped"
        );
        // The retained suffix is the *newest* events: flight-recorder
        // semantics, the oldest go first.
        let last = tr.kernels().last().unwrap();
        assert!(last.start > 0.0, "the first (oldest) launch was dropped");
    }

    #[test]
    fn ring_capacity_one_never_underflows() {
        let dev = Device::a100();
        dev.enable_tracing_ring(1);
        dev.kernel("a").items(32, 1.0).launch();
        dev.kernel("b").items(32, 1.0).launch();
        let tr = dev.take_trace().unwrap();
        assert_eq!(tr.events.len(), 1);
        assert_eq!(tr.dropped_events(), 1);
    }

    #[test]
    fn lifecycle_events_round_trip_both_exports() {
        let dev = traced_device();
        dev.trace_lifecycle(
            Some(3),
            LifecycleStage::Arrival,
            crate::SimTime::from_secs(1e-6),
            crate::SimTime::from_secs(1e-6),
            None,
        );
        dev.trace_lifecycle(
            Some(3),
            LifecycleStage::Queued,
            crate::SimTime::from_secs(1e-6),
            crate::SimTime::from_secs(3e-6),
            None,
        );
        dev.trace_lifecycle(
            None,
            LifecycleStage::Rejected,
            crate::SimTime::from_secs(2e-6),
            crate::SimTime::from_secs(2e-6),
            None,
        );
        let tr = dev.take_trace().unwrap();
        assert_eq!(tr.lifecycles().count(), 3);

        // Chrome export: per-query lifecycle track, spans as "X" with a
        // duration, instants as "i".
        let chrome = chrome_trace_json(std::slice::from_ref(&tr));
        assert!(chrome.contains("\"q3 lifecycle\""), "per-query track name");
        assert!(chrome.contains("\"cat\":\"lifecycle\""));
        let event_of = |name: &str| {
            chrome
                .lines()
                .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
                .unwrap_or_else(|| panic!("chrome export has a '{name}' event"))
                .to_string()
        };
        let queued = event_of("queued");
        assert!(queued.contains("\"ph\":\"X\"") && queued.contains("\"dur\":"));
        assert!(event_of("arrival").contains("\"ph\":\"i\""));
        assert!(event_of("rejected").contains("\"ph\":\"i\""));

        // JSONL export: one lifecycle object per event, query omitted when
        // none was assigned.
        let lines = jsonl(&[tr]);
        let life: Vec<&str> = lines
            .lines()
            .filter(|l| l.contains("\"type\":\"lifecycle\""))
            .collect();
        assert_eq!(life.len(), 3);
        assert!(life[0].contains("\"query\":3"));
        assert!(life[1].contains("\"stage\":\"queued\""));
        assert!(!life[2].contains("\"query\""), "query: None is omitted");
    }

    #[test]
    fn lifecycle_stage_spans_vs_instants() {
        assert!(LifecycleStage::Queued.is_span());
        assert!(LifecycleStage::ExecSlice.is_span());
        assert!(LifecycleStage::Interference.is_span());
        for s in [
            LifecycleStage::Arrival,
            LifecycleStage::Admitted,
            LifecycleStage::Shed,
            LifecycleStage::Rejected,
            LifecycleStage::PlanCacheHit,
            LifecycleStage::PlanCacheMiss,
            LifecycleStage::PlanCacheEvict,
            LifecycleStage::Complete,
        ] {
            assert!(!s.is_span(), "{} is an instant", s.as_str());
        }
    }

    #[test]
    fn mem_samples_coalesce_within_one_instant() {
        let dev = traced_device();
        {
            let _a = dev.alloc::<i64>(1 << 10, "a");
            let _b = dev.alloc::<i64>(1 << 10, "b");
        } // both freed at the same instant too
        dev.kernel("k").items(32, 1.0).launch();
        let _c = dev.alloc::<i32>(64, "c");
        let tr = dev.take_trace().unwrap();
        let mem: Vec<_> = tr.mem_samples().collect();
        // One coalesced sample at t=0 (alloc+alloc+free+free), one after
        // the kernel advanced the clock.
        assert_eq!(mem.len(), 2);
        assert_eq!(mem[0].ts, 0.0);
        assert_eq!(mem[0].current_bytes, 0);
        assert_eq!(mem[0].high_water_bytes, 2 * 8 * 1024);
        assert!(mem[1].ts > 0.0);
        assert_eq!(mem[1].current_bytes, 256);
    }

    #[test]
    fn spans_record_retroactively() {
        let dev = traced_device();
        let t0 = dev.elapsed();
        dev.kernel("k").items(32, 1.0).launch();
        let t1 = dev.elapsed();
        dev.trace_span(SpanCat::Phase, "match_find", t0, t1);
        let tr = dev.take_trace().unwrap();
        let spans: Vec<_> = tr.spans().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].cat, SpanCat::Phase);
        assert_eq!(spans[0].name, "match_find");
        assert_eq!(spans[0].start, 0.0);
        assert_eq!(spans[0].end, t1.secs());
    }

    #[test]
    fn reset_stats_leaves_a_marker() {
        let dev = traced_device();
        dev.kernel("k").items(32, 1.0).launch();
        let before = dev.elapsed().secs();
        dev.reset_stats();
        let tr = dev.take_trace().unwrap();
        let marker = tr
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Instant(i) => Some(i),
                _ => None,
            })
            .expect("reset marker");
        assert_eq!(marker.name, "reset_stats");
        assert_eq!(marker.ts, before);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let dev = traced_device();
        let buf = dev.alloc::<i32>(1 << 10, "x");
        dev.kernel("gather")
            .warp_loads(4, (0..buf.len()).map(|i| buf.addr_of(i)))
            .launch();
        let t1 = dev.elapsed();
        dev.trace_span(SpanCat::Operator, "probe \"quoted\"", SimTime::ZERO, t1);
        let tr = dev.take_trace().unwrap();
        let json = chrome_trace_json(&[tr]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"gather\""));
        assert!(json.contains("probe \\\"quoted\\\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.trim_end().ends_with("]}"));
        // Every X event carries ts and dur.
        for line in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
            assert!(line.contains("\"ts\":"), "missing ts: {line}");
            assert!(line.contains("\"dur\":"), "missing dur: {line}");
        }
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let dev = traced_device();
        dev.kernel("k").items(32, 1.0).launch();
        dev.trace_span(SpanCat::Join, "phj_um", SimTime::ZERO, dev.elapsed());
        let tr = dev.take_trace().unwrap();
        let n_events = tr.events.len();
        let text = jsonl(&[tr]);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), n_events);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"device\":"));
        }
    }

    #[test]
    fn kernel_summary_aggregates_by_name() {
        let dev = traced_device();
        for _ in 0..3 {
            dev.kernel("small").items(32, 1.0).launch();
        }
        dev.kernel("big")
            .items(1 << 22, 4.0)
            .seq_read_bytes(1 << 28)
            .launch();
        let tr = dev.take_trace().unwrap();
        let stats = kernel_stats(std::slice::from_ref(&tr));
        assert_eq!(stats.len(), 2);
        // Sorted by total time descending: the big streaming kernel first.
        assert_eq!(stats[0].name, "big");
        assert_eq!(stats[0].work.kernel_launches, 1);
        assert_eq!(stats[1].name, "small");
        assert_eq!(stats[1].work.kernel_launches, 3);
        let table = render_kernel_summary(&[tr]);
        assert!(table.contains("kernel"));
        assert!(table.contains("big"));
        assert!(table.contains("small"));
        assert!(table.contains("256.00 MiB"));
    }

    #[test]
    fn kernel_summary_stays_aligned_past_a_gigabyte() {
        let dev = traced_device();
        // > 1e9 bytes of traffic in one kernel, plus a tiny one: the DRAM
        // column must hold both without pushing its row wider.
        dev.kernel("huge")
            .items(1 << 22, 4.0)
            .seq_read_bytes(3 << 30)
            .launch();
        dev.kernel("tiny")
            .items(32, 1.0)
            .seq_read_bytes(64)
            .launch();
        let tr = dev.take_trace().unwrap();
        let table = render_kernel_summary(&[tr]);
        assert!(table.contains("3.00 GiB"), "GiB units expected: {table}");
        let widths: Vec<usize> = table.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "rows must stay column-aligned: {table}"
        );
        // Sectors/request prints to two decimals, like the plan tree.
        assert!(table.contains("0.00"));
    }
}
