//! Service-level metrics on the simulated clock.
//!
//! `trace` observes one run in depth; this module observes the *system in
//! aggregate over time*: a [`MetricsRegistry`] of counters, gauges and
//! log-bucketed HDR-style latency histograms, plus a periodic [`Sampler`]
//! that snapshots utilization time-series (DRAM bandwidth, L2 hit rate,
//! memory-ledger occupancy, kernel-launch rate, busy fraction, queue depth)
//! on the *simulated* clock. The serving bench (`m02_serving`) derives its
//! whole latency-throughput curve from this subsystem.
//!
//! ## Determinism rules
//!
//! Everything here must be **bit-identical across re-runs and scheduling
//! policies**, which dictates three design rules:
//!
//! 1. **Integer instruments.** Histograms store `u64` tick counts in `u64`
//!    buckets and an integer sum; counters are `u64`. A serving session
//!    executes each query ahead of the device clock, at the moment its
//!    reservation is granted — an order that depends on the policy — so
//!    the events a query delivers from inside its execution (its operator
//!    spans, its plan-cache instants) may feed only these: bucket
//!    increments and integer adds commute, and the exported bytes cannot
//!    depend on execution order. (Gauges are last-writer-wins `f64`s: fold
//!    them only from events ordered by the device clock or emitted after
//!    the session.)
//! 2. **The sampler advances only at device-clock kernel charges.** A
//!    session charges kernels to the device one policy-designated turn at
//!    a time, so their order and timestamps are a pure function of
//!    simulated state. What a query does on its private handle ahead of
//!    the clock — its allocations above all — is never sampled live:
//!    base-ledger occupancy is fed from the (program-ordered) base
//!    allocation path, and per-query lifecycle series (queue depth,
//!    in-flight tenants) are **post-computed at snapshot time** from
//!    simulated timestamps.
//! 3. **Export order is sorted, not insertion order.** Which query first
//!    touches a metric family depends on the order the policy admitted
//!    them in; exporters sort by (name, labels), so the text is identical
//!    under every policy. The sorted order is the file format.
//!
//! ## One stream, base lane only
//!
//! The recorder is a fold over the device's one observation stream, the
//! [`crate::trace::TraceEvent`]s the trace also keeps, and nothing else
//! writes it: the emit site hands every *base-lane* event to
//! `DeviceMetrics::observe` — a kernel charged to the device clock, a
//! base-ledger memory sample, the `reset_stats` marker, and the lifecycle
//! stages the serving path records on the base lane (plan-cache hits,
//! misses and evictions; each query's terminal instant with its
//! [`crate::trace::QueryOutcome`], emitted in spec order after the
//! session). From a query lane it folds one kind only: the operator span
//! with its [`crate::trace::OperatorRecord`], whose families are
//! integer-only (rule 1), so the order a policy executes queries in
//! cannot reach them. Every other query-lane event stays out (rule 2).
//! Metrics therefore never depend on a trace being attached, and what a
//! trace's flight recorder evicts is already folded: a ring-capped trace
//! changes no metric but `trace_events_dropped_total`, which the emit site
//! counts. The retired query's [`QueryLifecycle`] is the one record
//! delivered directly.
//!
//! The per-query **dual accounting** follows from that rule: a kernel
//! charged on a query's turn reaches the base lane tagged with its query
//! id, so it bumps the device-wide totals *and* `tenant_*`-labelled
//! counters for that id, just as the launch's record lands in the query's
//! trace at launch and, tagged, in the base trace at its turn.
//!
//! ## Records
//!
//! This module declares no launch-work or schedule fields of its own.
//! [`KernelTotals`] and the sampler's window embed a [`Counters`] and fold
//! each launch's record — the one `KernelBuilder::launch` built and the
//! lane counters and trace event also hold — with `+=`, adding only the
//! integer `busy_ns`. [`QueryLifecycle`] embeds the scheduler's
//! [`QuerySchedStats`] as of the query's retire. The exporters print
//! those records' fields under the names they always had.
//!
//! ## Cadence
//!
//! The sampler emits at most one point per kernel launch: when a launch's
//! completion crosses one or more `interval` ticks, the window since the
//! previous emission is summarized into rates and stamped at the *last*
//! crossed tick. Long idle gaps (open-loop arrivals) therefore collapse
//! into one low-rate sample — the window denominator is real elapsed
//! simulated time, not the nominal interval.
//!
//! Histogram quantiles are bounded at **≤ 1% relative error**: values below
//! 2^8 are exact, larger values land in 128 sub-buckets per power of two
//! (half-width/value ≤ 2^-8 ≈ 0.4%), and bucket representatives clamp to
//! the recorded min/max. Merging two histograms is bucket-wise addition —
//! exactly the histogram of the concatenated stream.

use crate::trace::{
    LifecycleEvent, LifecycleStage, OperatorRecord, SpanEvent, TraceEvent, RESET_STATS,
};
use crate::{Counters, QueryId, QuerySchedStats};

/// Scale for histograms that record seconds as integer nanoseconds.
pub const SECONDS_SCALE: f64 = 1e-9;

/// Convert simulated seconds to the integer nanosecond ticks recorded into
/// `SECONDS_SCALE` histograms (deterministic round-to-nearest).
pub fn secs_to_ticks(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9).round() as u64
}

/// Label set of one metric: `(key, value)` pairs, compared as a whole.
pub type Labels = Vec<(&'static str, String)>;

/// Sub-bucket resolution: 2^7 = 128 buckets per power of two.
const SUB_BITS: u32 = 7;
/// Values below `2 * 2^SUB_BITS` get width-1 (exact) buckets.
const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1);

/// A log-bucketed HDR-style histogram over `u64` ticks.
///
/// Records are exact below `LINEAR_MAX`; above it each power of two is
/// split into 128 sub-buckets, bounding the relative quantile error at
/// half a bucket width — ≤ 2^-8 of the value, comfortably inside the 1%
/// contract the tests assert. `scale` converts ticks back to the caller's
/// unit on output (e.g. [`SECONDS_SCALE`] for nanosecond ticks).
#[derive(Debug, Clone, PartialEq)]
pub struct HdrHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    scale: f64,
}

impl HdrHistogram {
    /// An empty histogram whose outputs are `ticks * scale`.
    pub fn new(scale: f64) -> Self {
        HdrHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            scale,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < LINEAR_MAX {
            v as usize
        } else {
            let e = 63 - v.leading_zeros(); // >= SUB_BITS + 1
            let block = (e - SUB_BITS - 1) as usize;
            let sub = ((v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
            LINEAR_MAX as usize + (block << SUB_BITS) + sub
        }
    }

    /// Midpoint representative of a bucket, in ticks.
    fn representative(idx: usize) -> u64 {
        if idx < LINEAR_MAX as usize {
            idx as u64
        } else {
            let block = (idx - LINEAR_MAX as usize) >> SUB_BITS;
            let sub = ((idx - LINEAR_MAX as usize) & ((1 << SUB_BITS) - 1)) as u64;
            let e = block as u32 + SUB_BITS + 1;
            let lo = (1u64 << e) + (sub << (e - SUB_BITS));
            lo + (1u64 << (e - SUB_BITS - 1))
        }
    }

    /// Inclusive upper edge of a bucket, in ticks (OpenMetrics `le`).
    fn upper_edge(idx: usize) -> u64 {
        if idx < LINEAR_MAX as usize {
            idx as u64
        } else {
            let block = (idx - LINEAR_MAX as usize) >> SUB_BITS;
            let sub = ((idx - LINEAR_MAX as usize) & ((1 << SUB_BITS) - 1)) as u64;
            let e = block as u32 + SUB_BITS + 1;
            let lo = (1u64 << e) + (sub << (e - SUB_BITS));
            lo + (1u64 << (e - SUB_BITS)) - 1
        }
    }

    /// Record one value (in ticks).
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, scaled to the caller's unit.
    pub fn sum_scaled(&self) -> f64 {
        self.sum as f64 * self.scale
    }

    /// Smallest recorded value, scaled (0 when empty).
    pub fn min_scaled(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min as f64 * self.scale
        }
    }

    /// Largest recorded value, scaled (0 when empty).
    pub fn max_scaled(&self) -> f64 {
        self.max as f64 * self.scale
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), scaled. Matches the rank definition
    /// `sorted[ceil(q*n)-1]` within the bucket-resolution error bound;
    /// returns 0 for an empty histogram (no NaN, always renderable).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let rep = Self::representative(idx).clamp(self.min, self.max);
                return rep as f64 * self.scale;
            }
        }
        self.max as f64 * self.scale
    }

    /// Merge another histogram in: the result is bucket-for-bucket the
    /// histogram of the concatenated record streams.
    pub fn merge(&mut self, other: &HdrHistogram) {
        assert!(
            self.scale == other.scale,
            "merging histograms of different scales"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(scaled inclusive upper edge, count)`, in
    /// ascending edge order — the OpenMetrics bucket list before
    /// cumulation.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::upper_edge(i) as f64 * self.scale, c))
            .collect()
    }
}

/// One instrument in the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum Instrument {
    /// Monotone `u64` counter.
    Counter(u64),
    /// Last-writer-wins `f64` gauge.
    Gauge(f64),
    /// Latency/size distribution.
    Histogram(HdrHistogram),
}

/// One named, labelled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Family name (`snake_case`; counters end in `_total`).
    pub name: &'static str,
    /// Label set distinguishing this series within the family.
    pub labels: Labels,
    /// The instrument and its current value.
    pub value: Instrument,
}

/// A registry of counters, gauges and histograms.
///
/// Lookup is linear over a small vector — registries hold tens of series,
/// and the traversal order never leaks into exports (those sort).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    fn find_or_insert(&mut self, name: &'static str, labels: Labels, make: Instrument) -> usize {
        if let Some(i) = self
            .metrics
            .iter()
            .position(|m| m.name == name && m.labels == labels)
        {
            return i;
        }
        self.metrics.push(Metric {
            name,
            labels,
            value: make,
        });
        self.metrics.len() - 1
    }

    /// Add `delta` to a counter (creating it at zero on first touch).
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        let i = self.find_or_insert(name, labels, Instrument::Counter(0));
        match &mut self.metrics[i].value {
            Instrument::Counter(v) => *v += delta,
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: f64) {
        let i = self.find_or_insert(name, labels, Instrument::Gauge(0.0));
        match &mut self.metrics[i].value {
            Instrument::Gauge(g) => *g = v,
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// Record `ticks` into a histogram whose outputs are `ticks * scale`.
    pub fn hist_record(&mut self, name: &'static str, labels: Labels, scale: f64, ticks: u64) {
        let i = self.find_or_insert(
            name,
            labels,
            Instrument::Histogram(HdrHistogram::new(scale)),
        );
        match &mut self.metrics[i].value {
            Instrument::Histogram(h) => h.record(ticks),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Current counter value (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(Instrument::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A histogram by name and labels, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HdrHistogram> {
        match self.get(name, labels) {
            Some(Instrument::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Current gauge value (0 when absent) — lets the spec-ordered outcome
    /// fold read-modify-write an accumulating gauge such as
    /// `slo_debt_seconds_total`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.get(name, labels) {
            Some(Instrument::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Instrument> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels.len() == labels.len()
                    && m.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|m| &m.value)
    }

    /// All metrics, sorted by `(name, labels)` — the export order.
    pub fn sorted(&self) -> Vec<&Metric> {
        let mut out: Vec<&Metric> = self.metrics.iter().collect();
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }

    /// Merge another registry in: counters add, histograms merge, gauges
    /// take the other side's value.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for m in &other.metrics {
            match &m.value {
                Instrument::Counter(v) => self.counter_add(m.name, m.labels.clone(), *v),
                Instrument::Gauge(g) => self.gauge_set(m.name, m.labels.clone(), *g),
                Instrument::Histogram(h) => {
                    let i = self.find_or_insert(
                        m.name,
                        m.labels.clone(),
                        Instrument::Histogram(HdrHistogram::new(h.scale)),
                    );
                    match &mut self.metrics[i].value {
                        Instrument::Histogram(dst) => dst.merge(h),
                        _ => panic!("metric '{}' is not a histogram", m.name),
                    }
                }
            }
        }
    }
}

/// Cumulative launch-derived totals, independent of `Counters` resets, so
/// the exported `*_total` series are monotone by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotals {
    /// Busy simulated time, integer nanoseconds.
    pub busy_ns: u64,
    /// Every launch's [`Counters`] record since metrics were enabled,
    /// folded with `+=`.
    pub work: Counters,
}

/// One sampled time-series: points are `(simulated seconds, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (gauge-like; `*_total` series are cumulative counters).
    pub name: &'static str,
    /// Label set (e.g. `tenant="3"`).
    pub labels: Labels,
    /// Points in ascending time order.
    pub points: Vec<(f64, f64)>,
}

/// Deterministic lifecycle record of one query, written at retire: the
/// scheduler's own record of it (`arrival ≤ admitted ≤ completion`, busy
/// time, budget, class and latency target), tagged with its id.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLifecycle {
    /// Device-side query id.
    pub query: QueryId,
    /// The query's scheduling outcome as of its retire.
    pub sched: QuerySchedStats,
}

/// Per-query busy series are emitted only for the first few query ids —
/// per-tenant cardinality must not explode in a several-hundred-query
/// serving sweep (aggregate busy fraction and the post-computed queue
/// depth carry the story there).
const PER_QUERY_SERIES_CAP: u32 = 8;

#[derive(Debug, Clone, Default)]
struct Window {
    busy_ns: u64,
    work: Counters,
    query_busy_ns: Vec<(QueryId, u64)>,
    mem_high_water: u64,
}

/// The periodic sampler: accumulates a window of launch-derived work and
/// emits one multi-series sample each time the simulated clock crosses an
/// `interval` tick (at most one per launch; see the module docs for the
/// cadence and determinism rules).
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: f64,
    next_tick: f64,
    window_start: f64,
    window: Window,
    mem_current: u64,
    series: Vec<Series>,
}

impl Sampler {
    fn new(interval: f64, start_clock: f64, start_mem: u64) -> Self {
        Sampler {
            interval,
            next_tick: start_clock + interval,
            window_start: start_clock,
            window: Window {
                mem_high_water: start_mem,
                ..Window::default()
            },
            mem_current: start_mem,
            series: Vec::new(),
        }
    }

    fn push_point(&mut self, name: &'static str, labels: Labels, t: f64, v: f64) {
        if let Some(s) = self
            .series
            .iter_mut()
            .find(|s| s.name == name && s.labels == labels)
        {
            s.points.push((t, v));
            return;
        }
        self.series.push(Series {
            name,
            labels,
            points: vec![(t, v)],
        });
    }

    fn maybe_emit(&mut self, clock: f64, totals: &KernelTotals) {
        if clock < self.next_tick {
            return;
        }
        // Stamp at the last crossed tick; one emission covers the window.
        let crossed = ((clock - self.next_tick) / self.interval).floor();
        let tick = self.next_tick + crossed * self.interval;
        self.next_tick = tick + self.interval;
        let elapsed = (clock - self.window_start).max(self.interval * 1e-9);
        let w = std::mem::take(&mut self.window);
        self.window_start = clock;

        let rate = |v: f64| v / elapsed;
        self.push_point(
            "dram_read_bw_gbps",
            Vec::new(),
            tick,
            rate(w.work.dram_read_bytes as f64) / 1e9,
        );
        self.push_point(
            "dram_write_bw_gbps",
            Vec::new(),
            tick,
            rate(w.work.dram_write_bytes as f64) / 1e9,
        );
        self.push_point("l2_hit_rate", Vec::new(), tick, w.work.l2_hit_rate());
        self.push_point(
            "kernel_launch_rate",
            Vec::new(),
            tick,
            rate(w.work.kernel_launches as f64),
        );
        self.push_point(
            "busy_fraction",
            Vec::new(),
            tick,
            rate(w.busy_ns as f64 * 1e-9),
        );
        self.push_point(
            "mem_current_bytes",
            Vec::new(),
            tick,
            self.mem_current as f64,
        );
        self.push_point(
            "mem_high_water_bytes",
            Vec::new(),
            tick,
            w.mem_high_water.max(self.mem_current) as f64,
        );
        for (q, busy) in w.query_busy_ns {
            self.push_point(
                "tenant_busy_fraction",
                vec![("tenant", q.to_string())],
                tick,
                rate(busy as f64 * 1e-9),
            );
        }
        // Cumulative (monotone) series, for the exporter's counter check.
        self.push_point(
            "kernel_launches_total",
            Vec::new(),
            tick,
            totals.work.kernel_launches as f64,
        );
        self.push_point(
            "dram_bytes_total",
            Vec::new(),
            tick,
            totals.work.dram_bytes() as f64,
        );
    }
}

/// The device-side metrics recorder: lives inside the device state (like
/// the trace) and is fed under the device lock, so a disabled recorder
/// costs one `Option` check and an enabled one perturbs nothing simulated.
#[derive(Debug, Clone)]
pub struct DeviceMetrics {
    /// Counters, gauges and histograms folded from the event stream.
    pub registry: MetricsRegistry,
    sampler: Sampler,
    totals: KernelTotals,
    lifecycles: Vec<QueryLifecycle>,
    device: String,
}

impl DeviceMetrics {
    /// A recorder attached at device clock `start_clock` with `start_mem`
    /// bytes of the base ledger in use.
    pub(crate) fn new(
        device: String,
        interval_secs: f64,
        start_clock: f64,
        start_mem: u64,
    ) -> Self {
        assert!(
            interval_secs > 0.0 && interval_secs.is_finite(),
            "metrics sample interval must be positive"
        );
        DeviceMetrics {
            registry: MetricsRegistry::default(),
            sampler: Sampler::new(interval_secs, start_clock, start_mem),
            totals: KernelTotals::default(),
            lifecycles: Vec::new(),
            device,
        }
    }

    /// Fold one event in — the recorder's only input besides the retire
    /// record, called from the device's one emit site under its lock. A
    /// kernel adds its `work` record to the totals and the sampler window
    /// (plus its query's `tenant_*` counters on a session turn) and may
    /// emit a sample at its completion; a memory sample moves the
    /// occupancy series; the `reset_stats` marker re-bases the sample grid
    /// to the rewound clock; an operator span records its node's duration
    /// and rows; a plan-cache instant counts a hit, miss or eviction; a
    /// terminal lifecycle instant records its query's outcome. Other spans
    /// and stages are the trace's alone.
    pub(crate) fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Kernel(k) => {
                let ns = secs_to_ticks(k.dur);
                self.totals.busy_ns += ns;
                self.totals.work += &k.work;
                self.sampler.window.busy_ns += ns;
                self.sampler.window.work += &k.work;
                if let Some(q) = k.query {
                    // Dual accounting: the device-wide totals above, plus the
                    // query's own labelled counters.
                    let tenant = || vec![("tenant", q.to_string())];
                    self.registry
                        .counter_add("tenant_kernel_launches_total", tenant(), 1);
                    self.registry
                        .counter_add("tenant_busy_ns_total", tenant(), ns);
                    if q < PER_QUERY_SERIES_CAP {
                        let w = &mut self.sampler.window;
                        match w.query_busy_ns.iter_mut().find(|(id, _)| *id == q) {
                            Some((_, b)) => *b += ns,
                            None => w.query_busy_ns.push((q, ns)),
                        }
                    }
                }
                // The device clock at the launch's completion: `start + dur` is
                // the very sum that advanced it.
                self.sampler.maybe_emit(k.start + k.dur, &self.totals);
            }
            TraceEvent::Mem(m) => {
                self.sampler.mem_current = m.current_bytes;
                let w = &mut self.sampler.window;
                w.mem_high_water = w.mem_high_water.max(m.current_bytes);
            }
            TraceEvent::Instant(i) if i.name == RESET_STATS => {
                // Cumulative totals stay monotone across the reset; only
                // the sample grid rebases.
                self.sampler.next_tick = self.sampler.interval;
                self.sampler.window_start = 0.0;
                self.sampler.window = Window::default();
            }
            TraceEvent::Span(SpanEvent { op: Some(op), .. }) => self.observe_operator(op),
            TraceEvent::Lifecycle(l) => {
                let cache = match l.stage {
                    LifecycleStage::PlanCacheHit => "plan_cache_hits_total",
                    LifecycleStage::PlanCacheMiss => "plan_cache_misses_total",
                    LifecycleStage::PlanCacheEvict => "plan_cache_evictions_total",
                    _ => return self.observe_outcome(l),
                };
                self.registry.counter_add(cache, Vec::new(), 1);
            }
            _ => {}
        }
    }

    /// Per-operator-kind duration and throughput distributions. Integer
    /// instruments only, so a query lane may deliver them ahead of the
    /// device clock in any order and the exported bytes do not move.
    fn observe_operator(&mut self, op: &OperatorRecord) {
        let reg = &mut self.registry;
        let labels = || vec![("op", op.kind.to_string())];
        let ticks = secs_to_ticks(op.secs);
        reg.hist_record("operator_seconds", labels(), SECONDS_SCALE, ticks);
        reg.counter_add("operator_rows_total", labels(), op.rows);
        if op.secs > 0.0 {
            let rows_per_sec = (op.rows as f64 / op.secs).round() as u64;
            reg.hist_record("operator_rows_per_sec", labels(), 1.0, rows_per_sec);
        }
    }

    /// Per-class service-level observations of the query whose terminal
    /// instant `l` is (other stages carry no outcome). A completed query
    /// records its queue wait, execution time and latency and, against its
    /// class's SLO target, met or missed plus the debt; a shed, rejected or
    /// failed query only counts in its own family, since a zero-latency
    /// observation would corrupt the percentiles. The serving driver emits
    /// terminal instants in spec order, so the `f64` debt sum is a function
    /// of the specs alone.
    fn observe_outcome(&mut self, l: &LifecycleEvent) {
        let Some(outcome) = &l.outcome else { return };
        let reg = &mut self.registry;
        let s = &outcome.sched;
        let class = s.class.as_deref().unwrap_or("default");
        let labels = || vec![("class", class.to_string())];
        let family = match (l.stage, outcome.failed) {
            (_, true) => "query_failed_total",
            (LifecycleStage::Shed, _) => "query_shed_total",
            (LifecycleStage::Rejected, _) => "query_rejected_total",
            _ => "query_completed_total",
        };
        reg.counter_add(family, labels(), 1);
        if family != "query_completed_total" {
            return;
        }
        // `secs_to_ticks` clamps at zero, as `SimTime` subtraction does.
        let (arrival, admitted, completion) = (s.arrival_secs, s.admitted_secs, s.completion_secs);
        let latency_ticks = secs_to_ticks(completion - arrival);
        for (name, ticks) in [
            (
                "query_queue_wait_seconds",
                secs_to_ticks(admitted - arrival),
            ),
            ("query_exec_seconds", secs_to_ticks(completion - admitted)),
            ("query_latency_seconds", latency_ticks),
        ] {
            reg.hist_record(name, labels(), SECONDS_SCALE, ticks);
        }
        let Some(slo) = s.slo_secs else { return };
        // Met/missed compare tick-quantized values — the same quantization
        // the latency histogram stores — so the counters and the histogram
        // never disagree about which side of the target a query landed on.
        let slo_ticks = secs_to_ticks(slo);
        if latency_ticks <= slo_ticks {
            reg.counter_add("slo_met_total", labels(), 1);
        } else {
            reg.counter_add("slo_missed_total", labels(), 1);
            let debt = (latency_ticks - slo_ticks) as f64 * SECONDS_SCALE;
            let prior = reg.gauge("slo_debt_seconds_total", &[("class", class)]);
            reg.gauge_set("slo_debt_seconds_total", labels(), prior + debt);
        }
        // The attainment ratio rolls up the cumulative counters, so
        // repeated sessions on one device keep it consistent with them.
        let met = reg.counter("slo_met_total", &[("class", class)]);
        let missed = reg.counter("slo_missed_total", &[("class", class)]);
        let ratio = met as f64 / (met + missed).max(1) as f64;
        reg.gauge_set("slo_attainment_ratio", labels(), ratio);
    }

    /// Record a retired query's lifecycle. Pushed in retire order;
    /// snapshots sort by query id, the export's order.
    pub(crate) fn push_lifecycle(&mut self, lc: QueryLifecycle) {
        self.lifecycles.push(lc);
    }

    /// Immutable snapshot for export.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut lifecycles = self.lifecycles.clone();
        lifecycles.sort_by_key(|lc| lc.query);
        let mut series = self.sampler.series.clone();
        let scheds: Vec<&QuerySchedStats> = lifecycles.iter().map(|l| &l.sched).collect();
        series.extend(lifecycle_series(&scheds, self.sampler.interval));
        series.extend(slo_burn_series(&scheds, self.sampler.interval));
        series.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        MetricsSnapshot {
            device: self.device.clone(),
            interval_secs: self.sampler.interval,
            registry: self.registry.clone(),
            totals: self.totals,
            series,
            lifecycles,
        }
    }
}

/// Post-compute queue-depth series from lifecycle records on the sample
/// grid: `queue_depth` counts queries with `arrival ≤ t < completion`
/// (in system: queued or running), `running_depth` those already admitted.
/// Derived from the lifecycle timestamps rather than sampled live: the
/// sampler only sees kernel charges, and arrivals, idle gaps, shed and
/// zero-kernel queries move the depths without one.
fn lifecycle_series(lifecycles: &[&QuerySchedStats], interval: f64) -> Vec<Series> {
    if lifecycles.is_empty() {
        return Vec::new();
    }
    // Both depths are step functions of time, changing only at lifecycle
    // events; on the sample grid the change becomes visible at the first
    // tick ≥ the event. Evaluating just those ticks (plus the grid point
    // at the earliest arrival) keeps the series size proportional to the
    // number of queries, not to span/interval — a long idle gap must not
    // produce a long series.
    let t0 = lifecycles
        .iter()
        .map(|l| l.arrival_secs)
        .fold(f64::INFINITY, f64::min);
    let mut ticks = vec![(t0 / interval).floor() * interval];
    for l in lifecycles {
        for e in [l.arrival_secs, l.admitted_secs, l.completion_secs] {
            ticks.push((e / interval).ceil() * interval);
        }
    }
    ticks.sort_by(|a, b| a.partial_cmp(b).expect("lifecycle timestamps are finite"));
    ticks.dedup();
    let mut queue = Vec::new();
    let mut running = Vec::new();
    for t in ticks {
        let in_system = lifecycles
            .iter()
            .filter(|l| l.arrival_secs <= t && t < l.completion_secs)
            .count();
        let admitted = lifecycles
            .iter()
            .filter(|l| l.admitted_secs <= t && t < l.completion_secs && l.arrival_secs <= t)
            .count();
        queue.push((t, in_system as f64));
        running.push((t, admitted as f64));
    }
    vec![
        Series {
            name: "queue_depth",
            labels: Vec::new(),
            points: queue,
        },
        Series {
            name: "running_depth",
            labels: Vec::new(),
            points: running,
        },
    ]
}

/// Post-compute per-class SLO burn-rate series from lifecycle records:
/// each completion past its class target adds `latency − slo` of debt to
/// the window ending at the first grid tick ≥ the completion; the point
/// value is window debt divided by the interval (seconds of debt per
/// second — the classic burn rate). Like the depth series this is computed
/// at snapshot time from deterministic timestamps, never sampled live, and
/// its size is bounded by the number of completions.
fn slo_burn_series(lifecycles: &[&QuerySchedStats], interval: f64) -> Vec<Series> {
    // (class, tick) -> accumulated debt ticks in the window ending at tick.
    let mut classes: Vec<(&str, Vec<(f64, u64)>)> = Vec::new();
    for l in lifecycles {
        let (Some(class), Some(slo)) = (l.class.as_deref(), l.slo_secs) else {
            continue;
        };
        let latency = secs_to_ticks(l.completion_secs) - secs_to_ticks(l.arrival_secs);
        let debt = latency.saturating_sub(secs_to_ticks(slo));
        let tick = (l.completion_secs / interval).ceil() * interval;
        let buckets = match classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, b)) => b,
            None => {
                classes.push((class, Vec::new()));
                &mut classes.last_mut().unwrap().1
            }
        };
        match buckets.iter_mut().find(|(t, _)| *t == tick) {
            Some((_, d)) => *d += debt,
            None => buckets.push((tick, debt)),
        }
    }
    classes.sort_by_key(|(c, _)| c.to_string());
    classes
        .into_iter()
        .map(|(class, mut buckets)| {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite completion ticks"));
            Series {
                name: "slo_burn_rate",
                labels: vec![("class", class.to_string())],
                points: buckets
                    .into_iter()
                    .map(|(t, d)| (t, d as f64 * SECONDS_SCALE / interval))
                    .collect(),
            }
        })
        .collect()
}

/// Everything one device's metrics recorder observed, frozen for export.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Device name (config name).
    pub device: String,
    /// The sampler's tick interval, simulated seconds.
    pub interval_secs: f64,
    /// Counters, gauges and histograms.
    pub registry: MetricsRegistry,
    /// Cumulative launch-derived totals.
    pub totals: KernelTotals,
    /// Sampled and post-computed time-series, sorted by (name, labels).
    pub series: Vec<Series>,
    /// Per-query lifecycle records, sorted by query id.
    pub lifecycles: Vec<QueryLifecycle>,
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn fmt_f64(v: f64) -> String {
    // Deterministic shortest decimal; guard the non-finite cases so both
    // exporters always render (satellite contract: no NaN in any output).
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn label_text(labels: &Labels, extra: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (k, v) in extra
        .iter()
        .copied()
        .chain(labels.iter().map(|(k, v)| (*k, v.as_str())))
    {
        let mut escaped = String::new();
        escape_into(&mut escaped, v);
        parts.push(format!("{k}=\"{escaped}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render snapshots in the OpenMetrics text exposition format.
///
/// Families sort by name; multiple devices disambiguate with a
/// `device="<name>#<index>"` label. Histograms emit cumulative non-empty
/// buckets plus `+Inf`, `_sum` and `_count`; time-series don't fit a
/// point-in-time exposition and live in the JSON export only. Ends with
/// `# EOF` per the spec.
pub fn openmetrics(snaps: &[MetricsSnapshot]) -> String {
    // family name -> (type, lines)
    let mut families: Vec<(String, &'static str, Vec<String>)> = Vec::new();
    let mut push = |name: String, kind: &'static str, line: String| match families
        .iter_mut()
        .find(|(n, _, _)| *n == name)
    {
        Some((_, _, lines)) => lines.push(line),
        None => families.push((name, kind, vec![line])),
    };
    for (i, snap) in snaps.iter().enumerate() {
        let dev = format!("{}#{i}", snap.device);
        let extra = [("device", dev.as_str())];
        let (busy_ns, t) = (snap.totals.busy_ns, &snap.totals.work);
        for (name, v) in [
            ("sim_kernel_launches_total", t.kernel_launches),
            ("sim_busy_ns_total", busy_ns),
            ("sim_dram_read_bytes_total", t.dram_read_bytes),
            ("sim_dram_write_bytes_total", t.dram_write_bytes),
            ("sim_warp_instructions_total", t.warp_instructions),
            ("sim_load_requests_total", t.load_requests),
            ("sim_sectors_requested_total", t.sectors_requested),
            ("sim_l2_hits_total", t.l2_hits),
            ("sim_l2_misses_total", t.l2_misses),
            ("sim_atomics_total", t.atomics),
        ] {
            push(
                name.to_string(),
                "counter",
                format!("{name}{} {v}", label_text(&Vec::new(), &extra)),
            );
        }
        for m in snap.registry.sorted() {
            match &m.value {
                Instrument::Counter(v) => push(
                    m.name.to_string(),
                    "counter",
                    format!("{}{} {v}", m.name, label_text(&m.labels, &extra)),
                ),
                Instrument::Gauge(g) => push(
                    m.name.to_string(),
                    "gauge",
                    format!(
                        "{}{} {}",
                        m.name,
                        label_text(&m.labels, &extra),
                        fmt_f64(*g)
                    ),
                ),
                Instrument::Histogram(h) => {
                    let mut cum = 0u64;
                    for (le, c) in h.buckets() {
                        cum += c;
                        let mut labels = m.labels.clone();
                        labels.push(("le", fmt_f64(le)));
                        push(
                            m.name.to_string(),
                            "histogram",
                            format!("{}_bucket{} {cum}", m.name, label_text(&labels, &extra)),
                        );
                    }
                    let mut inf = m.labels.clone();
                    inf.push(("le", "+Inf".to_string()));
                    push(
                        m.name.to_string(),
                        "histogram",
                        format!(
                            "{}_bucket{} {}",
                            m.name,
                            label_text(&inf, &extra),
                            h.count()
                        ),
                    );
                    push(
                        m.name.to_string(),
                        "histogram",
                        format!(
                            "{}_sum{} {}",
                            m.name,
                            label_text(&m.labels, &extra),
                            fmt_f64(h.sum_scaled())
                        ),
                    );
                    push(
                        m.name.to_string(),
                        "histogram",
                        format!(
                            "{}_count{} {}",
                            m.name,
                            label_text(&m.labels, &extra),
                            h.count()
                        ),
                    );
                }
            }
        }
    }
    families.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, kind, lines) in families {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Render snapshots as one JSON document (hand-rolled like the trace
/// exporters — `sim` carries no JSON dependency — and deterministic:
/// series and registry entries are pre-sorted).
pub fn metrics_json(snaps: &[MetricsSnapshot]) -> String {
    let mut out = String::from("{\"devices\":[");
    for (i, snap) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut dev = String::new();
        escape_into(&mut dev, &snap.device);
        out.push_str(&format!(
            "{{\"device\":\"{dev}\",\"sample_interval_s\":{},",
            fmt_f64(snap.interval_secs)
        ));
        let t = &snap.totals.work;
        out.push_str(&format!(
            "\"totals\":{{\"kernel_launches\":{},\"busy_ns\":{},\"dram_read_bytes\":{},\
             \"dram_write_bytes\":{},\"warp_instructions\":{},\"load_requests\":{},\
             \"sectors_requested\":{},\"l2_hits\":{},\"l2_misses\":{},\"atomics\":{}}},",
            t.kernel_launches,
            snap.totals.busy_ns,
            t.dram_read_bytes,
            t.dram_write_bytes,
            t.warp_instructions,
            t.load_requests,
            t.sectors_requested,
            t.l2_hits,
            t.l2_misses,
            t.atomics
        ));
        let labels_json = |labels: &Labels| {
            let mut s = String::from("{");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let mut escaped = String::new();
                escape_into(&mut escaped, v);
                s.push_str(&format!("\"{k}\":\"{escaped}\""));
            }
            s.push('}');
            s
        };
        let (mut counters, mut gauges, mut hists) = (Vec::new(), Vec::new(), Vec::new());
        for m in snap.registry.sorted() {
            let labels = labels_json(&m.labels);
            match &m.value {
                Instrument::Counter(v) => counters.push(format!(
                    "{{\"name\":\"{}\",\"labels\":{labels},\"value\":{v}}}",
                    m.name
                )),
                Instrument::Gauge(g) => gauges.push(format!(
                    "{{\"name\":\"{}\",\"labels\":{labels},\"value\":{}}}",
                    m.name,
                    fmt_f64(*g)
                )),
                Instrument::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets()
                        .iter()
                        .map(|(le, c)| format!("{{\"le\":{},\"count\":{c}}}", fmt_f64(*le)))
                        .collect();
                    hists.push(format!(
                        "{{\"name\":\"{}\",\"labels\":{labels},\"count\":{},\"sum\":{},\
                         \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
                         \"buckets\":[{}]}}",
                        m.name,
                        h.count(),
                        fmt_f64(h.sum_scaled()),
                        fmt_f64(h.min_scaled()),
                        fmt_f64(h.max_scaled()),
                        fmt_f64(h.quantile(0.50)),
                        fmt_f64(h.quantile(0.90)),
                        fmt_f64(h.quantile(0.99)),
                        buckets.join(",")
                    ));
                }
            }
        }
        out.push_str(&format!("\"counters\":[{}],", counters.join(",")));
        out.push_str(&format!("\"gauges\":[{}],", gauges.join(",")));
        out.push_str(&format!("\"histograms\":[{}],", hists.join(",")));
        let series: Vec<String> = snap
            .series
            .iter()
            .map(|s| {
                let points: Vec<String> = s
                    .points
                    .iter()
                    .map(|(t, v)| format!("[{},{}]", fmt_f64(*t), fmt_f64(*v)))
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"labels\":{},\"points\":[{}]}}",
                    s.name,
                    labels_json(&s.labels),
                    points.join(",")
                )
            })
            .collect();
        out.push_str(&format!("\"series\":[{}],", series.join(",")));
        let queries: Vec<String> = snap
            .lifecycles
            .iter()
            .map(|l| {
                // Class and SLO fields appear only when set, keeping
                // non-serving exports byte-identical to their history.
                let mut extra = String::new();
                if let Some(class) = &l.sched.class {
                    let mut escaped = String::new();
                    escape_into(&mut escaped, class);
                    extra.push_str(&format!(",\"class\":\"{escaped}\""));
                }
                if let Some(slo) = l.sched.slo_secs {
                    extra.push_str(&format!(",\"slo_s\":{}", fmt_f64(slo)));
                }
                format!(
                    "{{\"query\":{},\"arrival_s\":{},\"admitted_s\":{},\"completion_s\":{},\
                     \"busy_s\":{},\"budget_bytes\":{}{extra}}}",
                    l.query,
                    fmt_f64(l.sched.arrival_secs),
                    fmt_f64(l.sched.admitted_secs),
                    fmt_f64(l.sched.completion_secs),
                    fmt_f64(l.sched.busy_secs),
                    l.sched.budget_bytes
                )
            })
            .collect();
        out.push_str(&format!("\"queries\":[{}]}}", queries.join(",")));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile per the histogram's rank definition.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_quantiles_within_1pct(values: &[u64]) {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut h = HdrHistogram::new(1.0);
        for &v in values {
            h.record(v);
        }
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q) as f64;
            let approx = h.quantile(q);
            assert!(approx.is_finite(), "q{q}: non-finite quantile");
            let err = (approx - exact).abs();
            assert!(
                err <= 0.01 * exact.max(1.0),
                "q{q}: approx {approx} vs exact {exact} (err {err})"
            );
        }
    }

    #[test]
    fn constant_sequence_is_exact() {
        assert_quantiles_within_1pct(&vec![123_456_789; 1000]);
        let mut h = HdrHistogram::new(1.0);
        for _ in 0..1000 {
            h.record(123_456_789);
        }
        // Min/max clamping makes every quantile of a constant stream exact.
        assert_eq!(h.quantile(0.5), 123_456_789.0);
        assert_eq!(h.quantile(0.999), 123_456_789.0);
    }

    #[test]
    fn bimodal_sequence_within_bound() {
        let mut v = vec![100u64; 500];
        v.extend(vec![90_000_000u64; 500]);
        assert_quantiles_within_1pct(&v);
    }

    #[test]
    fn heavy_tailed_sequence_within_bound() {
        // Deterministic Pareto-ish tail: value = 1000 * i^3 + small noise.
        let v: Vec<u64> = (1..4000u64)
            .map(|i| 1000 + i * i * i + (i * 7919) % 997)
            .collect();
        assert_quantiles_within_1pct(&v);
    }

    #[test]
    fn adversarial_bucket_edges_within_bound() {
        // Values straddling power-of-two bucket boundaries.
        let mut v = Vec::new();
        for e in 8..40u32 {
            for d in [0i64, -1, 1, 63, 64, 65] {
                v.push(((1i64 << e) + d) as u64);
            }
        }
        assert_quantiles_within_1pct(&v);
    }

    #[test]
    fn single_sample_is_exact() {
        let mut h = HdrHistogram::new(SECONDS_SCALE);
        h.record(777_777_777);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!((h.quantile(q) - 0.777777777).abs() < 1e-12);
        }
        assert_eq!(h.count(), 1);
        assert!((h.sum_scaled() - 0.777777777).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_renders_without_nan() {
        let h = HdrHistogram::new(1.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min_scaled(), 0.0);
        assert_eq!(h.max_scaled(), 0.0);
        let mut reg = MetricsRegistry::default();
        reg.metrics.push(Metric {
            name: "empty_hist",
            labels: Vec::new(),
            value: Instrument::Histogram(h),
        });
        let snap = MetricsSnapshot {
            device: "test".into(),
            interval_secs: 1.0,
            registry: reg,
            totals: KernelTotals::default(),
            series: Vec::new(),
            lifecycles: Vec::new(),
        };
        let om = openmetrics(std::slice::from_ref(&snap));
        let js = metrics_json(std::slice::from_ref(&snap));
        assert!(!om.contains("NaN") && !js.contains("NaN"));
        assert!(om.ends_with("# EOF\n"));
        assert!(js.contains("\"empty_hist\""));
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let (a, b): (Vec<u64>, Vec<u64>) = (
            (0..500u64).map(|i| i * i + 3).collect(),
            (0..700u64).map(|i| i * 31 + 1_000_000).collect(),
        );
        let mut h1 = HdrHistogram::new(1.0);
        let mut h2 = HdrHistogram::new(1.0);
        let mut concat = HdrHistogram::new(1.0);
        for &v in &a {
            h1.record(v);
            concat.record(v);
        }
        for &v in &b {
            h2.record(v);
            concat.record(v);
        }
        h1.merge(&h2);
        assert_eq!(h1, concat, "merge must equal recording the concatenation");
    }

    #[test]
    fn registry_merge_combines_instruments() {
        let mut r1 = MetricsRegistry::default();
        let mut r2 = MetricsRegistry::default();
        r1.counter_add("c_total", vec![("k", "a".into())], 3);
        r2.counter_add("c_total", vec![("k", "a".into())], 4);
        r2.counter_add("c_total", vec![("k", "b".into())], 1);
        r1.hist_record("h", Vec::new(), 1.0, 10);
        r2.hist_record("h", Vec::new(), 1.0, 20);
        r1.merge(&r2);
        assert_eq!(r1.counter("c_total", &[("k", "a")]), 7);
        assert_eq!(r1.counter("c_total", &[("k", "b")]), 1);
        assert_eq!(r1.histogram("h", &[]).unwrap().count(), 2);
    }

    #[test]
    fn export_order_is_insertion_order_independent() {
        let snap = |order: &[usize]| {
            let mut reg = MetricsRegistry::default();
            let entries: [(&'static str, &str); 3] =
                [("z_total", "1"), ("a_total", "2"), ("m_total", "0")];
            for &i in order {
                let (name, tenant) = entries[i];
                reg.counter_add(name, vec![("tenant", tenant.to_string())], 5);
            }
            MetricsSnapshot {
                device: "test".into(),
                interval_secs: 1.0,
                registry: reg,
                totals: KernelTotals::default(),
                series: Vec::new(),
                lifecycles: Vec::new(),
            }
        };
        let a = snap(&[0, 1, 2]);
        let b = snap(&[2, 0, 1]);
        assert_eq!(
            openmetrics(std::slice::from_ref(&a)),
            openmetrics(std::slice::from_ref(&b))
        );
        assert_eq!(
            metrics_json(std::slice::from_ref(&a)),
            metrics_json(std::slice::from_ref(&b))
        );
    }

    #[test]
    fn openmetrics_buckets_are_cumulative_and_sorted() {
        let mut reg = MetricsRegistry::default();
        for v in [1u64, 1, 5, 1000, 100_000] {
            reg.hist_record("lat_seconds", Vec::new(), SECONDS_SCALE, v);
        }
        let snap = MetricsSnapshot {
            device: "d".into(),
            interval_secs: 1.0,
            registry: reg,
            totals: KernelTotals::default(),
            series: Vec::new(),
            lifecycles: Vec::new(),
        };
        let om = openmetrics(&[snap]);
        let counts: Vec<u64> = om
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert!(om.contains("lat_seconds_count{device=\"d#0\"} 5"));
    }

    #[test]
    fn sampler_emits_on_tick_crossings_with_monotone_totals() {
        let mut m = DeviceMetrics::new("dev".into(), 1.0, 0.0, 0);
        let d = Counters {
            kernel_launches: 1,
            warp_instructions: 10,
            dram_read_bytes: 1 << 20,
            dram_write_bytes: 1 << 19,
            load_requests: 4,
            sectors_requested: 16,
            l2_hits: 12,
            l2_misses: 4,
            ..Default::default()
        };
        let mut clock = 0.0;
        for _ in 0..10 {
            m.observe(&TraceEvent::Kernel(crate::trace::KernelEvent {
                name: "k",
                start: clock,
                dur: 0.7,
                query: None,
                work: d,
            }));
            clock += 0.7;
        }
        let snap = m.snapshot();
        let launches = snap
            .series
            .iter()
            .find(|s| s.name == "kernel_launches_total")
            .expect("cumulative series present");
        assert!(launches.points.len() >= 5, "{:?}", launches.points);
        assert!(launches
            .points
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        let busy = snap
            .series
            .iter()
            .find(|s| s.name == "busy_fraction")
            .unwrap();
        for (_, v) in &busy.points {
            assert!((*v - 1.0).abs() < 1e-6, "fully busy device: {v}");
        }
        assert_eq!(snap.totals.work.kernel_launches, 10);
    }

    #[test]
    fn lifecycle_series_count_in_system_queries() {
        let lc = |arrival_secs, admitted_secs, completion_secs| QuerySchedStats {
            arrival_secs,
            admitted_secs,
            completion_secs,
            ..Default::default()
        };
        let lcs = [lc(0.0, 0.0, 4.0), lc(1.0, 4.0, 6.0)];
        let lcs: Vec<&QuerySchedStats> = lcs.iter().collect();
        let series = lifecycle_series(&lcs, 1.0);
        let queue = &series[0];
        assert_eq!(queue.name, "queue_depth");
        // Points exist only where the depth changes; between them the
        // series is a step function, so read the last point at or before t.
        let at = |t: f64| {
            queue
                .points
                .iter()
                .rev()
                .find(|(pt, _)| *pt <= t + 1e-9)
                .unwrap()
                .1
        };
        assert_eq!(at(0.0), 1.0);
        assert_eq!(at(2.0), 2.0, "both in system at t=2");
        assert_eq!(at(5.0), 1.0);
        assert_eq!(at(6.0), 0.0);
    }
}
