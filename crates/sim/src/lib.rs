//! # sim — a software GPU execution simulator
//!
//! This crate stands in for the CUDA substrate used by the paper
//! *Efficiently Processing Large Relational Joins on GPUs* (and its SIGMOD'25
//! successor covering grouped aggregations). No physical GPU is required:
//! algorithms execute on the host over real data, while every kernel charges
//! its memory traffic and instruction work to a calibrated cost model that
//! mirrors how NVIDIA hardware (and the Nsight Compute profiler) accounts for
//! it.
//!
//! The simulator models exactly the effects the paper's results hinge on:
//!
//! * **Coalescing** — warp-level loads are grouped 32 lanes at a time and
//!   deduplicated to distinct 32-byte *sectors*, the unit DRAM traffic is
//!   measured in. A clustered gather touches ~`elem_size` sectors per warp
//!   request; an unclustered gather touches up to 32.
//! * **L2 reach** — a direct-mapped sector cache sized to the device's L2
//!   (40 MB on A100, 6 MB on RTX 3090). Gathers into small relations hit in
//!   L2 and stop being expensive, which is why the paper's TPC-H J3 favors
//!   unoptimized materialization.
//! * **Latency-bound penalty** — poorly coalesced traffic cannot saturate
//!   DRAM bandwidth; the model applies a penalty proportional to the excess
//!   sectors per request, calibrated to Table 4 of the paper (8.5x cycle gap
//!   between unclustered and clustered gathers at 3x the bytes).
//! * **Atomic contention** — bucket-chain partitioning serializes atomics on
//!   hot partitions; the hottest partition's update stream bounds the kernel,
//!   reproducing the Zipf collapse of Figure 14.
//! * **Memory ledger** — every intermediate allocation flows through
//!   [`DeviceBuffer`], giving the peak-usage numbers of Table 5.
//!
//! ## Warp-traffic accounting
//!
//! The hot loop of every experiment is [`KernelBuilder::warp_loads`]: one
//! simulated address per lane, 32 lanes per request. It is a single
//! sequential, allocation-free stream — addresses are pulled into a stack
//! chunk outside the device lock, and [`L2Cache::access_warp`] charges each
//! warp without sorting it, in a branch-free lane pass that rolls back and
//! replays only the sets that two distinct sectors of one warp map to. A
//! stream whose sectors are known without its lanes — every element of a
//! buffer in order, as a gather reads its map — goes through
//! [`KernelBuilder::contiguous_loads`] instead, which probes each warp's
//! sector range once. Counters, hit/miss outcomes and simulated times are
//! **bit-identical** to sorting every warp of the per-lane stream;
//! `DESIGN.md` ("Warp-traffic accounting") has the argument.
//!
//! ## One record per observed thing
//!
//! What a kernel did is a [`Counters`]: [`KernelBuilder::launch`] builds
//! one with `kernel_launches: 1`, and that value — not a copy of its
//! fields — is what the lane's counters add, what the trace's
//! [`trace::KernelEvent`] and per-name [`trace::KernelStat`] hold as
//! `work`, and what [`metrics::KernelTotals`] folds. What the scheduler
//! decided about a query is a [`QuerySchedStats`]: the session updates it
//! in place, [`Device::sched_query_stats`] clones it, and
//! [`QueryLifecycle`] embeds it. "Metrics totals == counter deltas == trace
//! sums" therefore holds by construction, and a new consumer of either
//! record has one type to read.
//!
//! Each record is also *delivered* once. Every observation — a launch, a
//! memory-ledger sample, a span, a lifecycle stage, the `reset_stats`
//! marker, and the engine's operator spans, plan-cache instants and query
//! outcomes among them — is one [`TraceEvent`] emitted at one private
//! site, which pushes it into the lane's [`Trace`] if one is attached and
//! folds the same value into the [`metrics`] recorder: from the base lane,
//! and from a query lane only for an operator span, whose instruments are
//! integer-only. With no recorder to take it the event is never built.
//! The retired query's [`QueryLifecycle`] is the one record metrics
//! receive directly; nothing outside this crate writes a metric.
//!
//! ## Multi-query scheduling
//!
//! A device can host several concurrent queries (see [`sched`]). The base
//! handle starts a session with [`Device::sched_start`] and registers each
//! query with [`Device::sched_register`], which reserves the query a memory
//! budget and returns a *query handle* — a `Device` whose counters, clock,
//! L2 image, memory ledger and trace are private to that query. A kernel
//! launched through a query handle touches only that private state and
//! leaves a record on the query's timeline; [`Device::sched_run`] — one
//! loop on the caller's thread — executes each query when its reservation
//! is granted and charges the recorded kernels to the device in the order
//! the session's policy designates. The interleaving (and every per-query
//! byte of state) is a pure function of simulated time — concurrent
//! execution is bit-identical to serial.
//!
//! Inside the crate that private state is one `Lane`, and the base device
//! is a `Lane` as well, so every [`Device`] method is a single path over
//! "this handle's lane". The few things that do differ — the capacity, what
//! exceeding it raises, where a launch is delivered, who feeds [`metrics`],
//! the trace name, a buffer outliving its session — are each decided in one
//! place (`DESIGN.md`, "Multi-query execution", lists them).
//!
//! ## Quick example
//!
//! ```
//! use sim::{Device, DeviceConfig};
//!
//! let dev = Device::a100();
//! // A streaming kernel over 1M 4-byte items:
//! dev.kernel("copy")
//!     .items(1 << 20, 4.0)
//!     .seq_read_bytes(4 << 20)
//!     .seq_write_bytes(4 << 20)
//!     .launch();
//! assert!(dev.elapsed().secs() > 0.0);
//! ```

pub mod analysis;
mod config;
mod counters;
mod element;
mod kernel;
mod l2;
mod memory;
pub mod metrics;
pub mod sched;
mod stats;
mod time;
pub mod trace;

pub use analysis::{
    diagnose, roofline, AccessPattern, Bottleneck, Diagnosis, KernelAnalysis, Roofline,
};
pub use config::DeviceConfig;
pub use counters::{Counters, CountersDelta};
pub use element::Element;
pub use kernel::KernelBuilder;
pub use l2::L2Cache;
pub use memory::{DeviceBuffer, MemReport, Reservation};
pub use metrics::{
    metrics_json, openmetrics, secs_to_ticks, HdrHistogram, MetricsRegistry, MetricsSnapshot,
    QueryLifecycle, SECONDS_SCALE,
};
pub use sched::{AdmissionError, BudgetError, QueryId, QuerySchedStats, SchedPolicy};
pub use stats::OpStats;
pub use time::{PhaseTimes, SimTime};
pub use trace::{
    LifecycleEvent, LifecycleStage, OperatorRecord, QueryOutcome, SpanCat, Trace, TraceEvent,
};

use std::sync::{Arc, Mutex, MutexGuard};

/// Number of 32-bit lanes in a warp. Fixed across all NVIDIA architectures
/// the paper evaluates.
pub const WARP_SIZE: usize = 32;

/// Size in bytes of a DRAM sector — the granularity at which the memory
/// subsystem moves data and at which Nsight Compute reports traffic.
pub const SECTOR_BYTES: u64 = 32;

/// Base simulated address of every query's private sub-ledger. All queries
/// start at the *same* base: their address spaces only need to be disjoint
/// from the base ledger's (catalog-resident buffers), not from each other,
/// because each query probes its own private L2 image. Identical bases are
/// what make a query's sector stream — and therefore its L2 hits, penalties
/// and simulated times — independent of which co-tenants run beside it.
pub(crate) const QUERY_ADDR_BASE: u64 = 1 << 40;

/// One private copy of the device: everything a handle can observe about
/// its own execution. The base handle and every query handle read and write
/// exactly one of these, so a query's lane evolves under its own kernels in
/// program order — identically under any scheduling policy — and the base
/// lane evolves under the turns the session loop replays onto it.
pub(crate) struct Lane {
    pub(crate) counters: Counters,
    pub(crate) l2: L2Cache,
    pub(crate) mem: memory::MemLedger,
    /// Simulated seconds: the sum of the kernel times charged to this lane.
    pub(crate) clock: f64,
    /// Opt-in event recorder (see [`trace`]); `None` costs nothing.
    pub(crate) trace: Option<Box<Trace>>,
    /// The bytes `mem` may hold: the device's global memory on the base
    /// lane, the query's reservation on a query lane.
    pub(crate) capacity: u64,
    /// Every event [`DeviceState::emit`] built for this lane, with its
    /// fold, while [`Device::sched_record`] runs the query; `None`
    /// otherwise.
    pub(crate) log: Option<Vec<(Fold, TraceEvent)>>,
}

impl Lane {
    fn new(config: &DeviceConfig, addr_base: u64, capacity: u64) -> Self {
        Lane {
            counters: Counters::default(),
            l2: L2Cache::new(config.l2_bytes),
            mem: memory::MemLedger::with_base(addr_base),
            clock: 0.0,
            trace: None,
            capacity,
            log: None,
        }
    }

    /// A sample of this lane's ledger occupancy at its clock, emitted
    /// after every allocation and every free that moved the ledger.
    pub(crate) fn mem_sample(&self) -> TraceEvent {
        let current_bytes = self.mem.report().current_bytes;
        TraceEvent::Mem(trace::MemEvent {
            ts: self.clock,
            current_bytes,
            high_water_bytes: current_bytes,
        })
    }
}

/// Which lanes an event reaches the metrics recorder from.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Fold {
    /// The base lane only, the default: what an event may move — the
    /// sampler, a gauge — must see events in device-clock order (metrics
    /// rule 2).
    BaseLane,
    /// Any lane: the event feeds integer instruments alone, which commute
    /// (metrics rule 1), so a query lane running ahead of the device clock
    /// may deliver it.
    AnyLane,
}

/// A query of the current scheduling session: its lane, and what the session
/// loop still owes the device on its behalf.
pub(crate) struct QueryState {
    pub(crate) lane: Lane,
    /// The kernels the query launched that the session loop has not yet
    /// charged to the device, in program order; one leaves per turn.
    pub(crate) timeline: std::collections::VecDeque<kernel::KernelCharge>,
}

/// What one query's execution left on its lane, recorded by
/// [`Device::sched_record`] and installed on a later query of the same
/// session by [`Device::sched_install`]: the kernel timeline, the lane's
/// counters, clock and ledger (the live result buffers' charges and
/// addresses included), and every event emitted on the lane, in order.
///
/// Installing it is exact because a query lane's history is a function of
/// its plan, its data and its budget alone: every query lane starts at
/// `QUERY_ADDR_BASE` with an empty ledger and a cold private L2, so two
/// executions of one plan over one resident catalog under one budget
/// allocate the same addresses, probe the same L2 image and charge the
/// same kernels. The L2 image itself is not carried: nothing reads a
/// query's L2 after the query has run.
pub struct LaneRecord {
    timeline: Vec<kernel::KernelCharge>,
    counters: Counters,
    clock: f64,
    mem: memory::MemLedger,
    events: Vec<(Fold, TraceEvent)>,
}

pub(crate) struct DeviceState {
    pub(crate) base: Lane,
    /// Opt-in service-level metrics recorder (see [`metrics`]); like the
    /// trace, `None` costs one branch per launch.
    pub(crate) metrics: Option<Box<metrics::DeviceMetrics>>,
    /// The current scheduling session's queries, indexed by [`QueryId`].
    /// Cleared by the next [`Device::sched_start`].
    pub(crate) queries: Vec<QueryState>,
    /// Policy state of the scheduling session (see [`sched`]).
    pub(crate) sched: sched::SchedState,
}

impl DeviceState {
    /// The lane a handle routes to, or `None` for a query handle whose
    /// session is gone: the next [`Device::sched_start`] clears the query
    /// slots, and a buffer may legally be dropped after that.
    pub(crate) fn try_lane(&mut self, query: Option<QueryId>) -> Option<&mut Lane> {
        match query {
            Some(q) => self.queries.get_mut(q as usize).map(|q| &mut q.lane),
            None => Some(&mut self.base),
        }
    }

    /// The lane a handle routes to.
    pub(crate) fn lane(&mut self, query: Option<QueryId>) -> &mut Lane {
        self.try_lane(query)
            .expect("query handle used after its session's slots were cleared")
    }

    /// The one observation site: deliver `event` to the trace of the lane
    /// `query` routes to and to the metrics recorder — from the base lane
    /// always, from a query lane only for [`Fold::AnyLane`] events. A
    /// query's lane runs ahead of the device clock in an order the policy
    /// decides, so its allocations and resets would race co-tenant sample
    /// points (query peaks are reported per query instead), while its
    /// kernels reach the base lane, tagged with the query, at their
    /// session turn. Events a lane's flight recorder evicts count into
    /// `trace_events_dropped_total`. With no recorder that would take it
    /// the event is never built.
    pub(crate) fn emit(
        &mut self,
        query: Option<QueryId>,
        fold: Fold,
        event: impl FnOnce(&Lane) -> TraceEvent,
    ) {
        let DeviceState {
            base,
            metrics,
            queries,
            ..
        } = self;
        let lane = match query {
            Some(q) => &mut queries[q as usize].lane,
            None => base,
        };
        let mut metrics = metrics.as_deref_mut();
        let folds = metrics.is_some() && (query.is_none() || fold == Fold::AnyLane);
        if lane.trace.is_none() && !folds {
            return;
        }
        let event = event(lane);
        if let Some(log) = lane.log.as_mut() {
            log.push((fold, event.clone()));
        }
        if let Some(m) = metrics.as_mut().filter(|_| folds) {
            m.observe(&event);
        }
        if let Some(tr) = lane.trace.as_deref_mut() {
            let dropped = tr.record(event);
            if let Some(m) = metrics.filter(|_| dropped > 0) {
                m.registry
                    .counter_add("trace_events_dropped_total", Vec::new(), dropped);
            }
        }
    }

    /// One step of the session loop with the turn at `qid`: charge the
    /// query's next recorded kernel to the device, complete the turn, and
    /// retire the query if that was its last kernel.
    fn replay_turn(&mut self, qid: QueryId) {
        let timeline = &mut self.queries[qid as usize].timeline;
        let k = timeline
            .pop_front()
            .expect("a runnable query has kernels left");
        let exhausted = timeline.is_empty();
        let start = self.base.clock;
        self.sched.complete_turn(&mut self.base.clock, qid, k.secs);
        self.base.counters += &k.work;
        self.emit(None, Fold::BaseLane, |_| k.event(start, Some(qid)));
        if exhausted {
            self.retire(qid);
        }
    }

    /// Retire `qid` at the current clock: release its reservation
    /// (possibly admitting queued queries) and record its lifecycle.
    fn retire(&mut self, qid: QueryId) {
        self.sched.retire(qid, self.base.clock);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.push_lifecycle(QueryLifecycle {
                query: qid,
                sched: self.sched.stats(qid),
            });
        }
    }
}

pub(crate) struct DeviceInner {
    pub(crate) config: DeviceConfig,
    pub(crate) state: Mutex<DeviceState>,
}

/// A handle to a simulated GPU.
///
/// Cheap to clone (it is an `Arc` internally); all clones observe the same
/// counters, memory ledger and simulated clock. A `Device` is the first
/// argument of every primitive and operator in this workspace.
///
/// A handle returned by [`Device::sched_register`] is a *query handle*: it
/// shares the physical device but routes counters, clock, L2, memory and
/// tracing to that query's private virtual state; its kernel launches reach
/// the device-wide state when [`Device::sched_run`] replays them in the
/// order the session's scheduling policy designates. A handle returned by
/// [`Device::planning`] routes like its parent but launches for free.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
    /// `Some(q)` on a query handle; `None` on the base device handle.
    pub(crate) query: Option<QueryId>,
    /// Set on a [`Device::planning`] handle: kernel launches charge nothing.
    pub(crate) planning: bool,
}

impl Device {
    /// Create a device from an explicit configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let state = DeviceState {
            base: Lane::new(&config, 0, config.global_mem_bytes),
            metrics: None,
            queries: Vec::new(),
            sched: sched::SchedState::default(),
        };
        Device {
            inner: Arc::new(DeviceInner {
                config,
                state: Mutex::new(state),
            }),
            query: None,
            planning: false,
        }
    }

    /// Lock the device state. Never poisoned: a budget overrun unwinds out
    /// of a query (see [`BudgetError`]) with the state valid at every step,
    /// and must not take the device — or its co-tenants — down with it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, DeviceState> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The name this handle's trace goes by: the device's, suffixed
    /// `#q<id>` on a query handle.
    fn trace_name(&self) -> String {
        let name = &self.inner.config.name;
        match self.query {
            Some(qid) => format!("{name}#q{qid}"),
            None => name.clone(),
        }
    }

    /// An NVIDIA A100 (40 GB, SXM) — the data-center GPU the paper reports
    /// most results on.
    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// An NVIDIA GeForce RTX 3090 — the consumer Ampere part used as the
    /// paper's second machine.
    pub fn rtx3090() -> Self {
        Self::new(DeviceConfig::rtx3090())
    }

    /// The configuration this device was created with.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// The query this handle routes to, if it is a query handle.
    pub fn query_id(&self) -> Option<QueryId> {
        self.query
    }

    /// The memory capacity visible to this handle: the query's budget on a
    /// query handle, the device's global memory otherwise. Out-of-core
    /// planning (`joins::chunked`) sizes chunks against this.
    pub fn mem_capacity(&self) -> u64 {
        self.lock().lane(self.query).capacity
    }

    /// Begin describing a kernel launch. Call accounting methods on the
    /// returned builder and finish with [`KernelBuilder::launch`].
    pub fn kernel(&self, name: &'static str) -> KernelBuilder<'_> {
        KernelBuilder::new(self, name)
    }

    /// Snapshot of the cumulative hardware counters (this query's own
    /// counters on a query handle; device-wide totals otherwise).
    pub fn counters(&self) -> Counters {
        self.lock().lane(self.query).counters
    }

    /// Total simulated time elapsed: the query's private clock (sum of its
    /// own kernels) on a query handle, the device clock otherwise.
    pub fn elapsed(&self) -> SimTime {
        SimTime::from_secs(self.lock().lane(self.query).clock)
    }

    /// Current and peak device-memory usage (the query's sub-ledger on a
    /// query handle).
    pub fn mem_report(&self) -> MemReport {
        self.lock().lane(self.query).mem.report()
    }

    /// Reset the peak-memory watermark to the current usage. Call between
    /// experiments that share a device.
    pub fn reset_peak_mem(&self) {
        self.lock().lane(self.query).mem.reset_peak();
    }

    /// Reset counters, simulated clock, and the peak-memory watermark. Live
    /// allocations and L2 contents are kept — resetting *statistics* does
    /// not cool down the hardware cache; use [`Device::flush_l2`] for that.
    ///
    /// An active trace records a `reset_stats` marker at the old clock:
    /// events after the reset restart at timestamp zero, so a multi-reset
    /// trace is a sequence of overlapping timelines separated by markers.
    pub fn reset_stats(&self) {
        let mut st = self.lock();
        st.emit(self.query, Fold::BaseLane, |lane| {
            TraceEvent::Instant(trace::InstantEvent {
                name: trace::RESET_STATS,
                ts: lane.clock,
            })
        });
        let lane = st.lane(self.query);
        lane.counters = Counters::default();
        lane.clock = 0.0;
        lane.mem.reset_peak();
    }

    /// Start recording trace events (see the [`trace`] module). Idempotent:
    /// enabling an already-tracing device keeps the existing event log. On a
    /// query handle this starts the query's private trace, named
    /// `"<device>#q<id>"`.
    pub fn enable_tracing(&self) {
        self.lock()
            .lane(self.query)
            .trace
            .get_or_insert_with(|| Box::new(Trace::new(self.trace_name())));
    }

    /// [`Device::enable_tracing`] in bounded flight-recorder mode: the
    /// recorder keeps at most `capacity` events, evicting the oldest when
    /// full and counting evictions into the `trace_events_dropped_total`
    /// metric (and [`Trace::dropped_events`]). Long open-loop serving runs
    /// can keep tracing on without unbounded memory. Calling this on an
    /// already-tracing handle keeps the event log and (re)sets the cap.
    pub fn enable_tracing_ring(&self, capacity: usize) {
        self.lock()
            .lane(self.query)
            .trace
            .get_or_insert_with(|| Box::new(Trace::new(self.trace_name())))
            .set_capacity(capacity);
    }

    /// Whether this handle is currently recording trace events. Check this
    /// before doing work (string formatting, snapshotting `elapsed`) whose
    /// only purpose is a [`Device::trace_span`] call.
    pub fn tracing_enabled(&self) -> bool {
        self.lock().lane(self.query).trace.is_some()
    }

    /// Stop tracing and return the recorded event log, if tracing was on.
    pub fn take_trace(&self) -> Option<Trace> {
        self.lock().lane(self.query).trace.take().map(|b| *b)
    }

    /// Clone the event log recorded so far without stopping the recorder.
    pub fn trace_snapshot(&self) -> Option<Trace> {
        self.lock().lane(self.query).trace.as_deref().cloned()
    }

    /// Record a retroactive span `[start, end]` on the simulated clock into
    /// this handle's trace, if it has one. Harnesses call this after
    /// measuring an interval they already bracket with [`Device::elapsed`];
    /// children therefore appear in the log before their enclosing parent.
    pub fn trace_span(&self, cat: SpanCat, name: &str, start: SimTime, end: SimTime) {
        self.span(cat, name, None, start, end);
    }

    /// Record one operator node's [`SpanCat::Operator`] span, carrying its
    /// [`OperatorRecord`]: the handle's trace keeps the span, and the
    /// metrics recorder folds the record — from a query handle too, since
    /// the families it feeds are integer-only.
    pub fn trace_operator(&self, name: &str, op: OperatorRecord, start: SimTime, end: SimTime) {
        self.span(SpanCat::Operator, name, Some(op), start, end);
    }

    fn span(&self, cat: SpanCat, name: &str, op: Option<OperatorRecord>, t0: SimTime, t1: SimTime) {
        let fold = op.map_or(Fold::BaseLane, |_| Fold::AnyLane);
        self.lock().emit(self.query, fold, |_| {
            TraceEvent::Span(trace::SpanEvent {
                cat,
                name: name.to_string(),
                start: t0.secs(),
                end: t1.secs(),
                op,
            })
        });
    }

    /// Record a query-lifecycle stage `[start, end]` (equal for instants)
    /// on the *base* lane — the serving path's multi-tenant timeline —
    /// regardless of which handle this is called on: into the base trace,
    /// if one is attached, and into the metrics recorder, which counts the
    /// plan-cache instants and folds a terminal instant's (`complete`,
    /// `shed` or `rejected`) [`QueryOutcome`] into the query's latency,
    /// outcome and SLO families. `query` is `None` for stages that predate
    /// a query id (admission-rejected specs, standalone plan-cache use);
    /// `outcome` is `Some` on terminal instants only. Record terminal
    /// instants in a fixed order (the serving driver's spec order): the SLO
    /// debt gauge is an `f64` sum.
    pub fn trace_lifecycle(
        &self,
        query: Option<QueryId>,
        stage: LifecycleStage,
        start: SimTime,
        end: SimTime,
        outcome: Option<QueryOutcome>,
    ) {
        self.lock().emit(None, Fold::BaseLane, |_| {
            TraceEvent::Lifecycle(LifecycleEvent {
                query,
                stage,
                start: start.secs(),
                end: end.secs(),
                outcome: outcome.map(Box::new),
            })
        });
    }

    /// Start recording service-level metrics (see the [`metrics`] module):
    /// a registry of counters/gauges/histograms plus time-series sampled
    /// every `interval` of *simulated* time. Call on the base handle; query
    /// handles feed the same recorder with per-tenant labels (dual
    /// accounting, like counters and traces). Idempotent: enabling an
    /// already-recording device keeps the existing recorder and interval.
    pub fn enable_metrics(&self, interval: SimTime) {
        assert!(self.query.is_none(), "enable_metrics on a query handle");
        let mut st = self.lock();
        if st.metrics.is_none() {
            let m = metrics::DeviceMetrics::new(
                self.inner.config.name.clone(),
                interval.secs(),
                st.base.clock,
                st.base.mem.report().current_bytes,
            );
            st.metrics = Some(Box::new(m));
        }
    }

    /// Whether this device is currently recording service-level metrics.
    pub fn metrics_enabled(&self) -> bool {
        self.lock().metrics.is_some()
    }

    /// Snapshot the metrics recorded so far without stopping the recorder.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.lock().metrics.as_deref().map(|m| m.snapshot())
    }

    /// A *planning* handle on this handle's lane (same query, if any):
    /// kernels launched through it (the planner's statistics-sampling
    /// kernels) charge nothing — no clock, counters, trace, metrics or
    /// timeline record. Planning work models what a plan-cache hit skips, so
    /// a recording (cold) run and its cached replay observe identical bytes
    /// on every clock. Only launches are charge-free, so only kernels that
    /// stream charges without touching shared state (no `warp_loads`, no
    /// allocations) belong on it — the sampling estimators qualify.
    pub fn planning(&self) -> Device {
        Device {
            planning: true,
            ..self.clone()
        }
    }

    /// Invalidate the modeled L2 (the query's private image on a query
    /// handle), e.g. to measure a cold run.
    pub fn flush_l2(&self) {
        self.lock().lane(self.query).l2.clear();
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc<T: Element>(&self, len: usize, label: &'static str) -> DeviceBuffer<T> {
        DeviceBuffer::zeroed(self.clone(), len, label)
    }

    /// Charge `bytes` of device memory to the ledger without backing them
    /// with host storage: the same ledger entry, address range and timeline
    /// sample as an [`alloc`](Device::alloc) of that size, credited when the
    /// guard drops. For memory the simulated protocol holds but no kernel
    /// touches.
    pub fn reserve(&self, bytes: u64, label: &'static str) -> Reservation {
        Reservation::new(self.clone(), bytes, label)
    }

    /// Move a host vector into device memory, charging the allocation to the
    /// ledger (but not the transfer: the paper measures join time only, with
    /// inputs resident).
    pub fn upload<T: Element>(&self, data: Vec<T>, label: &'static str) -> DeviceBuffer<T> {
        DeviceBuffer::from_vec(self.clone(), data, label)
    }

    /// [`Device::upload`] of a host vector other holders keep sharing: a
    /// new allocation with its own ledger charge and address range, but no
    /// host copy (the buffer is copy-on-write, like an alias). For one
    /// result several allocations hold, e.g. the keys every application of
    /// one transform order produces.
    pub fn upload_shared<T: Element>(
        &self,
        data: &Arc<Vec<T>>,
        label: &'static str,
    ) -> DeviceBuffer<T> {
        DeviceBuffer::from_shared(self.clone(), Arc::clone(data), label)
    }

    // --- Multi-query scheduling session (see the `sched` module) ---

    /// Begin a scheduling session on this device. Call on the base handle.
    ///
    /// Snapshots the currently free device memory (capacity minus resident
    /// allocations, e.g. a catalog) as the pool query budgets are reserved
    /// from, and discards any previous session's per-query state. Panics if
    /// a session is already active.
    ///
    /// `total_depth` bounds the waiting room (arrived queries not yet
    /// holding a reservation): an arrival that cannot be admitted
    /// immediately and finds that many already waiting is *shed* — it
    /// never runs, and its [`QuerySchedStats::shed`] is set. `Some(0)`
    /// admits on arrival or sheds; `None` is unbounded.
    pub fn sched_start(&self, policy: SchedPolicy, total_depth: Option<usize>) {
        assert!(self.query.is_none(), "sched_start on a query handle");
        let mut st = self.lock();
        st.queries.clear();
        let used = st.base.mem.report().current_bytes;
        let available = st.base.capacity.saturating_sub(used);
        st.sched.start(policy, available, total_depth);
        // Exec slices exist for the lifecycle timeline; record them only
        // when the base trace will consume them.
        st.sched.record_slices = st.base.trace.is_some();
    }

    /// Register a query that is present now, with no cost prediction,
    /// class or SLO (see [`Device::sched_register_spec`]).
    pub fn sched_register(&self, weight: f64, budget_bytes: u64) -> Result<Device, AdmissionError> {
        self.sched_register_spec(weight, budget_bytes, None, SimTime::ZERO, None, None)
    }

    /// Register a query with the active session, reserving it a memory
    /// budget of `budget_bytes`, and return its query handle.
    ///
    /// Budgets are granted in policy order (FIFO in registration order for
    /// the fair-share policies); a query whose budget does not currently
    /// fit queues until earlier queries retire. A budget that can *never*
    /// fit — larger than the session's free pool — is rejected here.
    ///
    /// `arrival` is `None` for a query present now, or a time on the
    /// simulated clock for open-loop load generation: admission and
    /// scheduling ignore the query until the clock reaches it, and if the
    /// device drains idle while only future arrivals remain, the clock
    /// jumps forward to the earliest one (an open-loop service sees real
    /// inter-arrival gaps, not a back-to-back batch). Register arrivals in
    /// non-decreasing time order — query ids are assigned in call order,
    /// and id order must equal arrival order for FIFO to mean
    /// FIFO-by-arrival. `predicted` is the cost model's execution time
    /// (the ranking key of the shortest-job policies). `class` and `slo`
    /// (a latency target on `completion - arrival`) label the query's
    /// [`QuerySchedStats`] for lifecycle exports and SLO accounting.
    pub fn sched_register_spec(
        &self,
        weight: f64,
        budget_bytes: u64,
        arrival: Option<SimTime>,
        predicted: SimTime,
        class: Option<&str>,
        slo: Option<SimTime>,
    ) -> Result<Device, AdmissionError> {
        assert!(
            self.query.is_none(),
            "sched_register_spec on a query handle"
        );
        let mut st = self.lock();
        let now = st.base.clock;
        let stats = QuerySchedStats {
            arrival_secs: arrival.map_or(now, SimTime::secs),
            budget_bytes,
            class: class.map(str::to_string),
            slo_secs: slo.map(SimTime::secs),
            ..Default::default()
        };
        let qid = st
            .sched
            .register_spec(now, weight, predicted.secs(), stats)?;
        debug_assert_eq!(st.queries.len(), qid as usize);
        st.queries.push(QueryState {
            lane: Lane::new(&self.inner.config, QUERY_ADDR_BASE, budget_bytes),
            timeline: Default::default(),
        });
        st.sched.on_register(qid, now);
        Ok(Device {
            inner: Arc::clone(&self.inner),
            query: Some(qid),
            planning: false,
        })
    }

    /// Run the session to completion on the calling thread, then end it.
    /// Call on the base handle after registering every query. Per-query
    /// stats, slices and traces stay readable until the next
    /// [`Device::sched_start`].
    ///
    /// Execute, then schedule: the moment a query's reservation is granted,
    /// `exec` is called with its id and must run the query to completion on
    /// its query handle — every kernel it launches lands on the query's
    /// private state and timeline, never on the device clock. Between those
    /// calls the loop gives the policy's designated query a turn (its next
    /// recorded kernel is charged to the device clock, counters, trace and
    /// metrics), retires a query the instant its timeline is exhausted —
    /// before any later turn, so the budget it frees is re-granted at its
    /// completion time — and jumps the clock to the next arrival when
    /// nothing is runnable. Shed queries are never passed to `exec`.
    ///
    /// `exec` may replay instead of executing: a query whose lane would
    /// repeat one already recorded this session ([`Device::sched_record`])
    /// — same plan, data and budget — gets that record installed
    /// ([`Device::sched_install`]). The replay is exact because every query
    /// lane starts at the same base address with an empty ledger and a cold
    /// private L2, so its kernels, ledger and events depend on nothing a
    /// co-tenant or an earlier query did.
    ///
    /// If `exec` unwinds, the session is left active and the device must
    /// not be used for another one; catch a query's own failures inside
    /// `exec` (the kernels it launched before failing are still scheduled,
    /// then it retires and releases its reservation like any other).
    pub fn sched_run(&self, mut exec: impl FnMut(QueryId)) {
        assert!(self.query.is_none(), "sched_run on a query handle");
        let mut st = self.lock();
        assert!(st.sched.active(), "sched_run outside a session");
        loop {
            while let Some(qid) = st.sched.pop_admitted() {
                // The query's launches take the lock themselves.
                drop(st);
                exec(qid);
                st = self.lock();
                if st.queries[qid as usize].timeline.is_empty() {
                    st.retire(qid);
                }
            }
            let dev = &mut *st;
            match dev.sched.designated() {
                Some(qid) => dev.replay_turn(qid),
                None => {
                    if !dev.sched.idle_advance(&mut dev.base.clock) {
                        dev.sched.finish();
                        return;
                    }
                }
            }
        }
    }

    /// Run `exec` on this query handle — the query's whole execution — and
    /// return its result with a [`LaneRecord`] of what it left on the
    /// query's lane. Call from [`Device::sched_run`]'s callback, on the
    /// handle of the query the callback was given.
    pub fn sched_record<R>(&self, exec: impl FnOnce() -> R) -> (R, LaneRecord) {
        let qid = self.query.expect("sched_record on a non-query handle");
        self.lock().lane(self.query).log = Some(Vec::new());
        let out = exec();
        let mut st = self.lock();
        let q = &mut st.queries[qid as usize];
        let record = LaneRecord {
            timeline: q.timeline.iter().copied().collect(),
            counters: q.lane.counters,
            clock: q.lane.clock,
            mem: q.lane.mem.clone(),
            events: q.lane.log.take().unwrap_or_default(),
        };
        (out, record)
    }

    /// Install `record`, made by [`Device::sched_record`] for another query
    /// of this session with the same plan and budget, as this query's
    /// execution: its lane takes the recorded counters, clock and ledger,
    /// its timeline the recorded kernels, and every recorded event is
    /// emitted again on this lane, kernels re-tagged with this query — so
    /// its trace, the metrics fold and the session loop see what executing
    /// the plan would have produced. Call from [`Device::sched_run`]'s
    /// callback instead of executing; the result's buffers move to this
    /// lane with [`DeviceBuffer::rebind`].
    pub fn sched_install(&self, record: &LaneRecord) {
        let qid = self.query.expect("sched_install on a non-query handle");
        let mut st = self.lock();
        let q = &mut st.queries[qid as usize];
        assert!(
            q.timeline.is_empty() && q.lane.clock == 0.0 && q.lane.mem.report().peak_bytes == 0,
            "sched_install on a query lane that already ran"
        );
        q.timeline = record.timeline.iter().copied().collect();
        q.lane.counters = record.counters;
        q.lane.clock = record.clock;
        q.lane.mem = record.mem.clone();
        for (fold, event) in &record.events {
            st.emit(Some(qid), *fold, |_| match event {
                TraceEvent::Kernel(k) => TraceEvent::Kernel(trace::KernelEvent {
                    query: Some(qid),
                    ..k.clone()
                }),
                other => other.clone(),
            });
        }
    }

    /// The exec slices (contiguous runs of kernel turns, device-clock
    /// `[start, end]` pairs) recorded for a query of the current or
    /// just-finished session. Empty unless the base trace was enabled when
    /// the session started.
    pub fn sched_query_slices(&self, query: QueryId) -> Vec<(f64, f64)> {
        self.lock().sched.slices(query)
    }

    /// Scheduling outcome (busy time, completion time, budget) of a query in
    /// the current or just-finished session.
    pub fn sched_query_stats(&self, query: QueryId) -> QuerySchedStats {
        self.lock().sched.stats(query)
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.config.name)
            .field("query", &self.query)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_starts_clean() {
        let dev = Device::a100();
        assert_eq!(dev.counters().kernel_launches, 0);
        assert_eq!(dev.elapsed().secs(), 0.0);
        assert_eq!(dev.mem_report().current_bytes, 0);
        assert_eq!(dev.query_id(), None);
        assert_eq!(dev.mem_capacity(), dev.config().global_mem_bytes);
    }

    #[test]
    fn clones_share_state() {
        let dev = Device::a100();
        let dev2 = dev.clone();
        dev.kernel("k").items(1024, 1.0).launch();
        assert_eq!(dev2.counters().kernel_launches, 1);
    }

    #[test]
    fn reset_stats_clears_clock_and_counters() {
        let dev = Device::rtx3090();
        dev.kernel("k")
            .items(1 << 20, 2.0)
            .seq_read_bytes(1 << 22)
            .launch();
        assert!(dev.elapsed().secs() > 0.0);
        dev.reset_stats();
        assert_eq!(dev.elapsed().secs(), 0.0);
        assert_eq!(dev.counters().kernel_launches, 0);
    }

    /// Launch one streaming kernel over `items` items; returns its duration.
    fn stream(dev: &Device, items: u64) -> f64 {
        dev.kernel("k").items(items, 2.0).launch().secs()
    }

    #[test]
    fn query_handles_virtualize_device_state() {
        let dev = Device::a100();
        dev.sched_start(SchedPolicy::RoundRobin, None);
        let q0 = dev.sched_register(1.0, 1 << 30).unwrap();
        let q1 = dev.sched_register(1.0, 1 << 30).unwrap();
        assert_eq!(q0.query_id(), Some(0));
        assert_eq!(q1.mem_capacity(), 1 << 30);

        let mut ran = Vec::new();
        dev.sched_run(|qid| {
            ran.push(qid);
            if qid == 0 {
                stream(&q0, 1 << 20);
                // Query state is private, and execution runs ahead of the
                // device: the base aggregates see the kernel at its turn.
                assert_eq!(q0.counters().kernel_launches, 1);
                assert_eq!(q1.counters().kernel_launches, 0);
                assert_eq!(dev.counters().kernel_launches, 0);
                assert!(q0.elapsed().secs() > 0.0);
                assert_eq!(dev.elapsed().secs(), 0.0);
            } else {
                let buf = q1.alloc::<i64>(1024, "q1.buf");
                assert_eq!(q1.mem_report().current_bytes, 8192);
                assert_eq!(q0.mem_report().current_bytes, 0);
                assert_eq!(dev.mem_report().current_bytes, 0, "base ledger untouched");
                drop(buf);
            }
        });
        assert_eq!(ran, vec![0, 1]);
        assert_eq!(dev.counters().kernel_launches, 1);
        assert_eq!(dev.elapsed(), q0.elapsed());
        assert_eq!(q1.elapsed().secs(), 0.0);
        let s0 = dev.sched_query_stats(0);
        assert!(s0.busy_secs > 0.0);
        assert_eq!(s0.budget_bytes, 1 << 30);
        assert_eq!(s0.completion_secs, dev.elapsed().secs());
    }

    #[test]
    fn zero_kernel_query_completes_at_admission_before_the_next_turn() {
        // q0 and q1 hold the whole pool; q2 waits for q1's budget. q1 runs
        // no kernel, so it retires the moment it is admitted — before q0's
        // first turn — and q2 is granted the freed budget at that clock.
        let dev = Device::a100();
        let half = dev.config().global_mem_bytes / 2;
        dev.sched_start(SchedPolicy::RoundRobin, None);
        let q: Vec<Device> = (0..3)
            .map(|_| dev.sched_register(1.0, half).unwrap())
            .collect();
        let mut t = [0.0f64; 3];
        dev.sched_run(|qid| match qid {
            0 => t[0] = stream(&q[0], 1 << 20) + stream(&q[0], 1 << 21),
            1 => {}
            _ => t[2] = stream(&q[2], 1 << 22),
        });
        let s: Vec<QuerySchedStats> = (0..3).map(|i| dev.sched_query_stats(i)).collect();
        assert_eq!((s[1].admitted_secs, s[1].completion_secs), (0.0, 0.0));
        assert_eq!(s[1].started_secs, None);
        assert_eq!(s[2].admitted_secs, 0.0, "granted at q1's completion");
        assert_eq!(s[0].started_secs, Some(0.0));
        // Round robin from there: q0, q2, q0.
        assert_eq!(s[0].busy_secs, t[0]);
        assert_eq!(s[2].busy_secs, t[2]);
        assert_eq!(s[0].completion_secs, dev.elapsed().secs());
        assert!(s[2].completion_secs < s[0].completion_secs);
        assert_eq!(dev.counters().kernel_launches, 3);
        // The drained loop ended the session: the next one starts at once.
        dev.sched_start(SchedPolicy::Serial, None);
        assert_eq!(dev.sched_register(1.0, half).unwrap().query_id(), Some(0));
    }

    #[test]
    fn budget_failed_query_replays_its_kernels_then_releases_its_reservation() {
        let mut cfg = DeviceConfig::a100();
        cfg.global_mem_bytes = 1 << 20;
        let dev = Device::new(cfg);
        let cap = dev.config().global_mem_bytes;
        dev.sched_start(SchedPolicy::Serial, None);
        let q0 = dev.sched_register(1.0, cap).unwrap();
        let q1 = dev.sched_register(1.0, cap).unwrap();
        let (mut t0, mut t1) = (Vec::new(), 0.0);
        dev.sched_run(|qid| {
            if qid == 1 {
                t1 = stream(&q1, 1 << 18);
                return;
            }
            t0.push(stream(&q0, 1 << 20));
            t0.push(stream(&q0, 1 << 21));
            let oom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q0.alloc::<u8>(cap as usize + 1, "too.big")
            }));
            let err = oom.unwrap_err().downcast::<BudgetError>().unwrap();
            assert_eq!((err.query, err.budget_bytes), (0, cap));
        });
        let (s0, s1) = (dev.sched_query_stats(0), dev.sched_query_stats(1));
        // Both pre-failure kernels were charged to the device, in order...
        assert_eq!(s0.busy_secs, t0[0] + t0[1]);
        assert_eq!(s0.completion_secs, t0[0] + t0[1]);
        // ...and the retire released the reservation q1 was waiting for.
        assert_eq!(s1.admitted_secs, s0.completion_secs);
        assert_eq!(s1.completion_secs, s0.completion_secs + t1);
        assert_eq!(dev.counters().kernel_launches, 3);
        assert_eq!(dev.elapsed().secs(), s1.completion_secs);
    }

    /// Everything a handle can do to its lane, once. Returns the lane's
    /// counters and clock as they stood just before its `reset_stats`.
    fn lane_program(dev: &Device) -> (Counters, SimTime) {
        // Small enough that the program below evicts.
        dev.enable_tracing_ring(6);
        let a = dev.alloc::<i32>(1 << 12, "a");
        let view = a.alias();
        let empty = dev.alloc::<i64>(0, "empty");
        let b = dev.upload(vec![7i64; 300], "b");
        let t0 = dev.elapsed();
        stream(dev, 1 << 20);
        dev.kernel("gather")
            .warp_loads(4, (0..a.len()).map(|i| a.addr_of((i * 769) % a.len())))
            .launch();
        dev.trace_span(SpanCat::Phase, "transform", t0, dev.elapsed());
        drop(view);
        drop(b);
        dev.reset_peak_mem();
        let before_reset = (dev.counters(), dev.elapsed());
        dev.reset_stats();
        // Exactly one kernel after the reset, so "before + after" below is
        // the same f64 sum the device accumulates kernel by kernel.
        dev.kernel("regather")
            .warp_loads(4, (0..a.len()).map(|i| a.addr_of(i)))
            .launch();
        drop(empty);
        let _c = dev.alloc::<u8>(100, "c");
        before_reset
    }

    #[test]
    fn base_and_query_lanes_run_one_program_identically() {
        type Observed = (Counters, SimTime, MemReport, u64);
        let observe = |h: &Device| -> Observed {
            (h.counters(), h.elapsed(), h.mem_report(), h.mem_capacity())
        };

        let base = Device::a100();
        lane_program(&base);
        let base_seen = observe(&base);
        let base_trace = base.take_trace().unwrap();

        let dev = Device::a100();
        dev.sched_start(SchedPolicy::Serial, None);
        let q = dev
            .sched_register(1.0, dev.config().global_mem_bytes)
            .unwrap();
        let mut seen = None;
        dev.sched_run(|_| {
            let before_reset = lane_program(&q);
            seen = Some((before_reset, observe(&q)));
        });
        let (before_reset, query_seen) = seen.unwrap();
        let mut query_trace = q.take_trace().unwrap();

        assert_eq!(query_seen, base_seen);
        assert!(
            base_trace.dropped_events() > 0,
            "the ring must have evicted"
        );
        assert_eq!(query_trace.dropped_events(), base_trace.dropped_events());
        // The streams differ only in the trace name and the kernels' tag.
        assert_eq!(base_trace.device, dev.config().name);
        assert_eq!(query_trace.device, format!("{}#q0", dev.config().name));
        for e in &mut query_trace.events {
            if let TraceEvent::Kernel(k) = e {
                assert_eq!(k.query.take(), Some(0));
            }
        }
        assert_eq!(query_trace.events, base_trace.events);

        // The session replayed every kernel of the query onto the base
        // lane, which no `reset_stats` of the query's rewinds.
        assert_eq!(dev.counters(), before_reset.0 + &q.counters());
        assert_eq!(dev.elapsed(), before_reset.1 + q.elapsed());
        assert_eq!(
            dev.mem_report(),
            MemReport::default(),
            "base ledger unmoved"
        );
    }

    #[test]
    fn what_differs_between_the_base_lane_and_a_query_lane() {
        let mut cfg = DeviceConfig::a100();
        cfg.global_mem_bytes = 1 << 20;
        let dev = Device::new(cfg);
        let cap = dev.config().global_mem_bytes;
        dev.enable_metrics(SimTime::from_secs(1e-9));
        let resident = dev.alloc::<u8>(4096, "resident");

        // Over capacity on the base lane: the device OOM panic.
        let oom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.alloc::<u8>(cap as usize, "too.big")
        }));
        let msg = *oom.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.starts_with("device out of memory allocating 1048576 bytes for 'too.big': "),
            "{msg}"
        );
        assert_eq!(dev.mem_report().current_bytes, 4096);

        // On a query lane: a typed `BudgetError` against the lane capacity,
        // with the lock released and nothing device-wide touched.
        dev.sched_start(SchedPolicy::Serial, None);
        let q = dev.sched_register(1.0, cap / 2).unwrap();
        let mut outlives = None;
        dev.sched_run(|_| {
            let kept = q.alloc::<u8>(1 << 16, "kept");
            stream(&q, 1 << 16);
            let over = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.alloc::<u8>(cap as usize / 2, "over.budget")
            }));
            let err = over.unwrap_err().downcast::<BudgetError>().unwrap();
            assert_eq!(err.budget_bytes, q.mem_capacity());
            assert_eq!((err.query, err.in_use_bytes), (0, 1 << 16));
            assert_eq!(q.mem_report().current_bytes, 1 << 16);
            stream(&q, 1 << 16);
            outlives = Some(kept);
        });
        assert_eq!(dev.mem_report().current_bytes, 4096);
        let snap = dev.metrics_snapshot().unwrap();
        for name in ["mem_current_bytes", "mem_high_water_bytes"] {
            let series = snap.series.iter().find(|s| s.name == name).unwrap();
            assert!(series.points.len() >= 2, "{name}: one point per kernel");
            assert!(series.points.iter().all(|&(_, v)| v == 4096.0), "{name}");
        }

        // A query buffer may outlive its session: once the next
        // `sched_start` has cleared the slots its drop credits nothing.
        dev.sched_start(SchedPolicy::Serial, None);
        drop(outlives);
        assert_eq!(dev.mem_report().current_bytes, 4096);
        drop(resident);
        assert_eq!(dev.mem_report().live_allocations, 0);
    }

    #[test]
    fn one_launch_is_one_record_in_counters_trace_and_metrics() {
        let dev = Device::a100();
        dev.enable_tracing();
        dev.enable_metrics(SimTime::from_secs(1e-6));
        let buf = dev.alloc::<i32>(1 << 12, "x");
        let launch = |h: &Device| {
            h.kernel("k")
                .items(1 << 12, 2.0)
                .seq_read_bytes(4096)
                .warp_stores(
                    4,
                    (0..buf.len()).map(|i| buf.addr_of((i * 769) % buf.len())),
                )
                .atomics(64, 8)
                .launch();
        };
        let totals = |d: &Device| d.metrics_snapshot().unwrap().totals.work;
        let last_kernel = |tr: Trace| tr.kernels().last().unwrap().clone();

        // Base lane, everything at zero before: the counter delta and the
        // metrics totals are the event's record itself, cycles included.
        launch(&dev);
        let work = last_kernel(dev.trace_snapshot().unwrap()).work;
        assert_eq!(work.kernel_launches, 1);
        assert!(work.dram_write_bytes > 0 && work.atomics == 64);
        assert_eq!(dev.counters().delta_since(&Counters::default()).0, work);
        assert_eq!(totals(&dev), work);

        // Query lane: the private counters start at zero, so they equal the
        // record bit for bit; the turn replays that same record onto the
        // base lane, whose counters and metrics totals grow by it together.
        let (c0, t0) = (dev.counters(), totals(&dev));
        dev.sched_start(SchedPolicy::Serial, None);
        let q = dev.sched_register(1.0, 1 << 20).unwrap();
        q.enable_tracing();
        dev.sched_run(|_| launch(&q));
        let work = last_kernel(q.take_trace().unwrap()).work;
        assert_eq!(q.counters(), work);
        let turn = last_kernel(dev.take_trace().unwrap());
        assert_eq!((turn.query, turn.work), (Some(0), work));
        let grown = dev.counters().delta_since(&c0).0;
        assert_eq!(grown, totals(&dev).delta_since(&t0).0);
        // `(a + b) - a` on the f64 cycles; the integers are exact.
        assert!((grown.cycles - work.cycles).abs() <= 1e-9 * work.cycles);
        assert_eq!(
            Counters {
                cycles: work.cycles,
                ..grown
            },
            work
        );
    }

    #[test]
    fn a_planning_handle_launches_for_free_on_its_lane() {
        let dev = Device::a100();
        dev.enable_tracing();
        assert!(stream(&dev.planning(), 1 << 20) > 0.0);
        assert_eq!(dev.counters(), Counters::default());
        assert_eq!(dev.trace_snapshot().unwrap().events.len(), 0);

        dev.sched_start(SchedPolicy::Serial, None);
        let q = dev.sched_register(1.0, 1 << 20).unwrap();
        q.enable_tracing();
        let observe = |h: &Device| {
            let events = h.trace_snapshot().unwrap().events.len();
            let timeline = h.lock().queries[0].timeline.len();
            (h.counters(), h.elapsed(), events, timeline)
        };
        let mut t = 0.0;
        dev.sched_run(|_| {
            let plan = q.planning();
            assert_eq!(plan.query_id(), Some(0), "same lane as its parent");
            let before = observe(&q);
            assert!(stream(&plan, 1 << 20) > 0.0, "still reports its duration");
            assert_eq!(observe(&q), before, "query lane unmoved");
            t = stream(&q, 1 << 20);
            let (counters, elapsed, events, timeline) = observe(&q);
            assert_eq!(counters.kernel_launches, 1);
            assert_eq!((elapsed.secs(), events, timeline), (t, 1, 1));
        });
        // Only the query handle's launch reached the base lane.
        assert_eq!(dev.counters(), q.counters());
        assert_eq!(dev.elapsed().secs(), t);
        assert_eq!(dev.trace_snapshot().unwrap().kernels().count(), 1);
    }

    #[test]
    fn oversized_budget_is_rejected() {
        let dev = Device::a100();
        dev.sched_start(SchedPolicy::Serial, None);
        let cap = dev.config().global_mem_bytes;
        let err = dev.sched_register(1.0, cap + 1).unwrap_err();
        assert_eq!(err.available_bytes, cap);
    }
}
