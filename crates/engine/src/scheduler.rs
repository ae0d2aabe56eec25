//! Multi-query execution: admit N logical plans onto one simulated device.
//!
//! The paper's operators assume they own the GPU; a production engine
//! serves many tenants. This module is the engine-side driver over the
//! device-side machinery in [`sim::sched`]:
//!
//! 1. **Admission** — each [`QuerySpec`] reserves a memory budget out of
//!    the device's free capacity (an equal share by default). Budgets are
//!    granted FIFO in registration order; a query whose budget cannot be
//!    granted *yet* queues, and one whose budget can *never* be granted is
//!    rejected with [`EngineError::BudgetUnsatisfiable`]. Because granted
//!    reservations never sum past the free capacity, no tenant can OOM a
//!    co-tenant.
//! 2. **Budgeted execution, ahead of the clock** — the moment a query's
//!    reservation is granted it runs to completion on its own query
//!    handle: private counters, clock, L2 image, trace, a sub-ledger capped
//!    at its budget, and a timeline recording every kernel it launched. A
//!    kernel's simulated cost depends only on its own traffic, so nothing
//!    a co-tenant does can change that timeline. Every query lane starts
//!    at the same base address with an empty ledger and a cold L2 (the
//!    `QUERY_ADDR_BASE` contract in `sim`), so over the catalog the
//!    session borrows, a lane's whole history is a function of (plan,
//!    budget). So with [`ServingConfig::replay`] each (plan, budget)
//!    executes once per session: the first arrival executes under
//!    [`Device::sched_record`], and every later one gets that recorded lane
//!    installed ([`Device::sched_install`]: timeline, counters, clock,
//!    ledger, and the lane's events re-emitted under its own id) and the
//!    recorded result rebound to its lane and re-tagged with its query,
//!    instead of executing. Only successful executions are recorded.
//!    `joins::chunked::plan_chunks` sizes chunks against the budget, so an
//!    over-budget join re-plans out-of-core; an allocation that still
//!    exceeds the budget unwinds with a typed `sim::BudgetError` which is
//!    caught at the per-query boundary and converted to
//!    [`EngineError::BudgetExceeded`] — the kernels before the failure
//!    stay scheduled and co-tenants are untouched.
//! 3. **Computed interleaving** — one loop on the caller's thread
//!    ([`sim::Device::sched_run`]) gives kernel turns to the query the
//!    policy designates ([`Policy::RoundRobin`], [`Policy::WeightedFair`],
//!    [`Policy::Sjf`] or [`Policy::SjfAging`] — a pure function of
//!    simulated state), charging its next recorded kernel to the device
//!    clock, and retires a query the instant its timeline is exhausted,
//!    so the budget it frees is re-granted at its completion time. What
//!    couples tenants — reservation order, the bounded waiting room, the
//!    policy comparator — is all that lives in the loop. Per-query
//!    outputs, `OpStats` and traces are *byte-identical* to running the
//!    same specs under [`Policy::Serial`], and every timestamp and export
//!    is a function of the specs alone — the properties
//!    `tests/scheduler_equivalence.rs` and `tests/admission_invariants.rs`
//!    prove.
//! 4. **Admission control** — [`run_open_loop_with`] takes a
//!    [`ServingConfig`]: a bounded admission queue that sheds overflow
//!    arrivals with a typed [`EngineError::QueueShed`], and a
//!    predicted-memory gate that rejects queries whose [`cost::estimate`]
//!    memory floor exceeds their budget ([`EngineError::AdmissionRejected`])
//!    before they ever register.
//!
//! Every query registers once, with everything the session knows about
//! it: arrival, budget, predicted cost, class and SLO. A closed-loop
//! tenant of [`run_queries`] is an [`OpenQuery`] arriving at session start
//! in class `"default"`.
//!
//! ```
//! use engine::{scheduler, Catalog, Plan, Table};
//! use columnar::Column;
//! use sim::Device;
//!
//! let dev = Device::a100();
//! let mut catalog = Catalog::new();
//! catalog.insert(Table::new(
//!     "t",
//!     vec![("k", Column::from_i32(&dev, vec![1, 2, 3], "k"))],
//! ));
//! let specs = vec![
//!     scheduler::QuerySpec::new(Plan::scan("t")),
//!     scheduler::QuerySpec::new(Plan::scan("t").distinct("k")),
//! ];
//! let reports = scheduler::run_queries(&dev, &catalog, specs, scheduler::Policy::RoundRobin);
//! assert_eq!(reports.len(), 2);
//! assert!(reports.iter().all(|r| r.result.is_ok()));
//! ```

use crate::explain::QueryExplain;
use crate::{cost, execute, Catalog, EngineError, NodeStats, Plan, QueryOutput, Table};
use sim::{Device, DeviceConfig, LaneRecord, SimTime, Trace};
use std::collections::HashMap;
use std::panic::{resume_unwind, AssertUnwindSafe};

/// The scheduling policies a session can run under (re-exported from
/// [`sim::SchedPolicy`]): `Serial`, `RoundRobin`, `WeightedFair`, `Sjf`
/// (shortest predicted job first, by the cost model's predicted time), or
/// `SjfAging` (SJF with waiting-time decay, so long jobs cannot starve).
pub type Policy = sim::SchedPolicy;

/// Admission-control configuration for a serving session: how deep the
/// waiting room may grow before arrivals are shed, and whether the
/// predicted-memory gate rejects queries whose cost-model memory floor
/// already exceeds their budget.
///
/// The default is an unbounded queue, no gate and no replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingConfig {
    /// Maximum queries *waiting for admission* (arrived, not yet holding a
    /// reservation) across all classes — running queries do not count,
    /// exactly as [`Device::sched_start`] documents. An arrival that
    /// cannot be admitted on the spot and finds that many already waiting
    /// is shed with [`EngineError::QueueShed`]; `Some(0)` means nothing
    /// ever waits. `None` is unbounded.
    pub total_depth: Option<usize>,
    /// When set, a query whose predicted peak memory
    /// ([`cost::estimate`]) exceeds its budget is rejected before
    /// registration with [`EngineError::AdmissionRejected`] instead of
    /// admitting it and unwinding mid-flight on `BudgetExceeded`.
    pub memory_gate: bool,
    /// Per-class latency SLO targets, seconds of `completion - arrival`.
    /// Classes not listed have no target. A class listed twice keeps the
    /// *tightest* (minimum) target. Targets feed the per-class
    /// `slo_met_total` / `slo_missed_total` counters, the
    /// `slo_attainment_ratio` and `slo_debt_seconds_total` gauges, and
    /// the windowed `slo_burn_rate` series in the metrics export.
    pub slo: Vec<(String, f64)>,
    /// When set, each (plan, budget) executes once per session and every
    /// later arrival with the same key gets the first one's recorded lane
    /// installed instead of executing (module doc, step 2). Replay moves no
    /// simulated number, export or result byte; it only saves host time.
    /// The serving experiments (`bench`'s m02–m04) turn it on. It is off by
    /// default while `perf`'s `serving_open` counts one host record per
    /// arrival served into its `peak_rss_mb`, so that a faster session
    /// reads as a larger one (`DESIGN.md`, "Multi-query execution").
    pub replay: bool,
}

impl ServingConfig {
    /// The default: unbounded queue, no memory gate, no replay.
    pub fn new() -> Self {
        ServingConfig::default()
    }

    /// Bound the number of queries waiting for admission.
    pub fn with_total_depth(mut self, depth: usize) -> Self {
        self.total_depth = Some(depth);
        self
    }

    /// Reject queries whose predicted peak memory exceeds their budget.
    pub fn with_memory_gate(mut self) -> Self {
        self.memory_gate = true;
        self
    }

    /// Execute each (plan, budget) once per session and replay it for
    /// every later arrival with the same key.
    pub fn with_replay(mut self) -> Self {
        self.replay = true;
        self
    }

    /// Set one class's latency SLO target (seconds, end-to-end
    /// `completion - arrival`). Listing a class twice keeps the tightest
    /// target.
    pub fn with_slo(mut self, class: impl Into<String>, target_seconds: f64) -> Self {
        self.slo.push((class.into(), target_seconds));
        self
    }

    /// The SLO target for `class`, if one is configured (minimum over
    /// duplicate entries).
    pub fn slo_for(&self, class: &str) -> Option<f64> {
        self.slo
            .iter()
            .filter(|(c, _)| c == class)
            .map(|(_, s)| *s)
            .reduce(f64::min)
    }
}

/// One tenant query: a plan plus its scheduling parameters.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The logical plan to execute.
    pub plan: Plan,
    /// Fair-share weight under [`Policy::WeightedFair`]; ignored by the
    /// other policies. Defaults to 1.0.
    pub weight: f64,
    /// Explicit memory budget, bytes. `None` reserves an equal share of
    /// the device memory left free by the catalog.
    pub budget_bytes: Option<u64>,
}

impl QuerySpec {
    /// A spec with default weight (1.0) and an equal-share budget.
    pub fn new(plan: Plan) -> Self {
        QuerySpec {
            plan,
            weight: 1.0,
            budget_bytes: None,
        }
    }

    /// Set the fair-share weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Set an explicit memory budget.
    pub fn with_budget(mut self, budget_bytes: u64) -> Self {
        self.budget_bytes = Some(budget_bytes);
        self
    }
}

/// One served request: a [`QuerySpec`] that *arrives* at a simulated time,
/// in a tenant class. An open-loop request arrives on its own schedule; a
/// closed-loop tenant of [`run_queries`] arrives at session start in class
/// `"default"`. The `class` labels the request's latency observations in
/// the device's metrics registry (`query_latency_seconds{class=...}` and
/// friends).
#[derive(Debug, Clone)]
pub struct OpenQuery {
    /// Scheduled arrival on the simulated clock.
    pub at: SimTime,
    /// Tenant class for per-class latency accounting (e.g. `"q3"`).
    pub class: String,
    /// The query itself.
    pub spec: QuerySpec,
}

impl OpenQuery {
    /// An open-loop request arriving at `at`.
    pub fn new(at: SimTime, class: impl Into<String>, spec: QuerySpec) -> Self {
        OpenQuery {
            at,
            class: class.into(),
            spec,
        }
    }
}

/// Outcome of one tenant query in a [`run_queries`] or
/// [`run_open_loop_with`] session.
pub struct QueryReport {
    /// Index of the originating spec in the `specs` argument (equal to the
    /// device-side query id when every spec passed registration).
    pub query: u32,
    /// The query's result, or the typed error that stopped it.
    pub result: Result<QueryOutput, EngineError>,
    /// The budget the query ran under (or requested, if rejected), bytes.
    pub budget_bytes: u64,
    /// Simulated device time the query's kernels received.
    pub busy: SimTime,
    /// When the query arrived: session start for [`run_queries`] tenants,
    /// the scheduled arrival for [`run_open_loop_with`] requests.
    pub arrival: SimTime,
    /// Device-clock time at which the query's memory reservation was
    /// granted; `admitted - arrival` is its admission-queue wait.
    pub admitted: SimTime,
    /// Device-clock time at which the query's first kernel turn began —
    /// the moment it first held the device. Equal to `admitted` for
    /// queries that never ran a kernel.
    pub started: SimTime,
    /// Device-clock time at which the query retired — its completion time
    /// on the shared timeline, the metric the fairness suite bounds.
    pub completion: SimTime,
    /// Peak bytes of the query's private ledger — never above
    /// `budget_bytes` by construction.
    pub peak_mem_bytes: u64,
    /// The query's private trace, when the base device was tracing at
    /// session start (events on the query's own clock, named
    /// `"<device>#q<id>"`).
    pub trace: Option<Trace>,
}

impl QueryReport {
    /// The query's attributed EXPLAIN ANALYZE report against the device it
    /// ran on. `None` when the query failed.
    pub fn explain(&self, cfg: &DeviceConfig) -> Option<QueryExplain> {
        let out = self.result.as_ref().ok()?;
        Some(QueryExplain::from_stats(cfg, &out.stats))
    }

    /// Admission-queue wait, `admitted - arrival`. Zero for shed and
    /// rejected queries (which were never admitted).
    pub fn queue_wait(&self) -> SimTime {
        if self.admitted < self.arrival {
            SimTime::ZERO
        } else {
            self.admitted - self.arrival
        }
    }
}

/// Execute `specs` concurrently on `dev` under `policy`; returns one
/// [`QueryReport`] per spec, in spec order.
///
/// Call on the base (non-query) handle of the device holding `catalog`.
/// Each spec gets a budget reservation (equal shares of the free capacity
/// by default) and runs `execute(qdev, catalog, plan)` on its own query
/// handle when the reservation is granted; the session loop then
/// interleaves the recorded kernels on the device clock in policy order,
/// all on the calling thread. A query that exceeds its budget fails alone,
/// with co-tenants' results, stats and ledgers untouched.
///
/// With [`Policy::Serial`] the same machinery runs queries to completion in
/// spec order — the oracle the concurrent policies are byte-compared
/// against.
pub fn run_queries(
    dev: &Device,
    catalog: &Catalog,
    specs: Vec<QuerySpec>,
    policy: Policy,
) -> Vec<QueryReport> {
    let n = specs.len().max(1) as u64;
    let start = dev.elapsed();
    let tenants = specs
        .into_iter()
        .map(|spec| OpenQuery::new(start, "default", spec))
        .collect();
    // Equal shares of the free capacity: every tenant is present at
    // session start, so all budgets can be live at once.
    run_session(
        dev,
        catalog,
        tenants,
        policy,
        &ServingConfig::default(),
        |free| free / n,
    )
}

/// Execute an open-loop arrival schedule on `dev` under `policy`; returns
/// one [`QueryReport`] per request, in request order.
///
/// Unlike [`run_queries`] (a *closed* system: all tenants present at start,
/// load adapts to service), `arrivals` scheds each request onto the
/// simulated clock at its own `at` time, independent of how the service
/// keeps up — the open-loop model a latency-throughput curve requires.
/// Arrival times must be non-decreasing (FIFO admission is in registration
/// order, and registration order must equal arrival order for that to mean
/// FIFO-by-arrival). When the device drains idle before the next arrival,
/// the simulated clock jumps forward to it.
///
/// Per-request latency decomposes as `completion - arrival =
/// (admitted - arrival) + (completion - admitted)`: admission-queue wait
/// plus service. With metrics enabled on `dev`, each request's wait,
/// service and total latency are recorded into per-class histograms
/// (`query_queue_wait_seconds`, `query_exec_seconds`,
/// `query_latency_seconds`, labelled `class=...`) — `m02_serving` derives
/// its whole curve from those.
///
/// Requests default to a quarter of the free capacity as memory budget
/// (set explicit budgets with [`QuerySpec::with_budget`]): an open-loop
/// queue has no meaningful "equal share", and a quarter keeps a few
/// requests admissible concurrently while still exercising admission
/// queueing under load.
///
/// `serving` adds admission control ([`ServingConfig::default`] has none):
/// a bounded queue that sheds arrivals with [`EngineError::QueueShed`]
/// when full, and an optional predicted-memory gate that rejects doomed
/// queries with [`EngineError::AdmissionRejected`] before they register.
/// Shed and rejected queries never execute, never hold a reservation, and
/// leave co-tenant observables untouched; they count into the per-class
/// `query_shed_total` / `query_rejected_total` metrics instead of the
/// latency histograms.
pub fn run_open_loop_with(
    dev: &Device,
    catalog: &Catalog,
    arrivals: Vec<OpenQuery>,
    policy: Policy,
    serving: &ServingConfig,
) -> Vec<QueryReport> {
    assert!(
        arrivals.windows(2).all(|w| w[0].at <= w[1].at),
        "open-loop arrivals must be scheduled in non-decreasing time order"
    );
    run_session(dev, catalog, arrivals, policy, serving, |free| free / 4)
}

fn run_session(
    dev: &Device,
    catalog: &Catalog,
    entries: Vec<OpenQuery>,
    policy: Policy,
    serving: &ServingConfig,
    default_budget: impl Fn(u64) -> u64,
) -> Vec<QueryReport> {
    assert!(
        dev.query_id().is_none(),
        "scheduling sessions must start on the base device handle"
    );
    if entries.is_empty() {
        return Vec::new();
    }
    // A traced device gives every query handle its own trace.
    let trace_queries = dev.tracing_enabled();
    dev.sched_start(policy, serving.total_depth);
    let free = dev
        .mem_capacity()
        .saturating_sub(dev.mem_report().current_bytes);
    let fallback_budget = default_budget(free);

    // Register every spec in spec order: device query ids are assigned in
    // call order, and id order is the policies' tie-break.
    enum Registered {
        Query { qdev: Device },
        Rejected { budget: u64, err: EngineError },
    }
    let registered: Vec<Registered> = entries
        .iter()
        .map(|entry| {
            let spec = &entry.spec;
            let budget = spec.budget_bytes.unwrap_or(fallback_budget);
            // The cost model's prediction drives SJF ordering and the
            // memory gate. An estimation error (unknown table) predicts
            // zero and gates nothing — execution will surface the real
            // error.
            let predicted =
                cost::estimate(dev.config(), catalog, &spec.plan).unwrap_or(cost::CostEstimate {
                    secs: 0.0,
                    peak_bytes: 0,
                });
            if serving.memory_gate && predicted.peak_bytes > budget {
                return Registered::Rejected {
                    budget,
                    err: EngineError::AdmissionRejected {
                        predicted_peak_bytes: predicted.peak_bytes,
                        budget_bytes: budget,
                    },
                };
            }
            // The class and its SLO target label the scheduler-side record,
            // so retire-time lifecycle rows (and the burn-rate series)
            // carry them.
            let handle = dev.sched_register_spec(
                spec.weight,
                budget,
                Some(entry.at),
                SimTime::from_secs(predicted.secs),
                Some(&entry.class),
                serving.slo_for(&entry.class).map(SimTime::from_secs),
            );
            match handle {
                Ok(qdev) => {
                    if trace_queries {
                        qdev.enable_tracing();
                    }
                    Registered::Query { qdev }
                }
                Err(e) => Registered::Rejected {
                    budget,
                    err: EngineError::BudgetUnsatisfiable {
                        requested_bytes: e.requested_bytes,
                        available_bytes: e.available_bytes,
                    },
                },
            }
        })
        .collect();

    // Execute, then schedule: the device loop calls back the moment a
    // query's reservation is granted, the query runs to completion on its
    // private handle, and the loop charges its recorded kernels to the
    // device in policy order. Shed queries are never called back.
    let mut results: Vec<Option<Result<QueryOutput, EngineError>>> =
        registered.iter().map(|_| None).collect();
    // Device query ids count registered specs only; map them back.
    let tenants: Vec<(usize, &Device)> = registered
        .iter()
        .enumerate()
        .filter_map(|(i, reg)| match reg {
            Registered::Query { qdev } => Some((i, qdev)),
            Registered::Rejected { .. } => None,
        })
        .collect();
    // With replay, one execution per (plan, budget): a query lane's
    // history is a function of its plan, the resident catalog (borrowed for
    // the whole session, so it cannot change) and its budget, so a later
    // arrival with the same key gets the first one's recorded lane
    // installed instead of executing. Keyed by the full plan rendering,
    // never a hash: a collision would hand out another plan's rows. Only
    // successes are recorded; a tenant that overran its budget runs again.
    let mut recorded: HashMap<(String, u64), (usize, LaneRecord)> = HashMap::new();
    dev.sched_run(|qid| {
        let (i, qdev) = tenants[qid as usize];
        let spec = &entries[i].spec;
        if !serving.replay {
            results[i] = Some(execute_tenant(qdev, catalog, &spec.plan));
            return;
        }
        let key = (
            format!("{:?}", spec.plan),
            spec.budget_bytes.unwrap_or(fallback_budget),
        );
        let result = match recorded.get(&key) {
            Some((first, record)) => {
                qdev.sched_install(record);
                match &results[*first] {
                    Some(Ok(out)) => Ok(replayed(out, qdev)),
                    _ => unreachable!("only successful executions are recorded"),
                }
            }
            None => {
                let (result, record) =
                    qdev.sched_record(|| execute_tenant(qdev, catalog, &spec.plan));
                if result.is_ok() {
                    recorded.insert(key, (i, record));
                }
                result
            }
        };
        results[i] = Some(result);
    });

    registered
        .into_iter()
        .zip(results)
        .zip(&entries)
        .enumerate()
        .map(|(i, ((reg, result), entry))| {
            let (query, sched, result, peak_mem_bytes, trace) = match reg {
                Registered::Rejected { budget, err } => {
                    // Rejected before registration: no device query id
                    // exists, and every stamp is the arrival.
                    let at = entry.at.secs();
                    let sched = sim::QuerySchedStats {
                        arrival_secs: at,
                        admitted_secs: at,
                        completion_secs: at,
                        budget_bytes: budget,
                        class: Some(entry.class.clone()),
                        slo_secs: serving.slo_for(&entry.class),
                        ..Default::default()
                    };
                    (None, sched, Err(err), 0, None)
                }
                Registered::Query { qdev } => {
                    let qid = qdev.query_id().expect("query handle");
                    let sched = dev.sched_query_stats(qid);
                    let result = if sched.shed {
                        // Shed at the queue: never admitted, never run (the
                        // device finalized it with completion = arrival).
                        // Co-tenants see nothing.
                        Err(EngineError::QueueShed { query: qid })
                    } else {
                        result.expect("every admitted query was executed")
                    };
                    let peak = qdev.mem_report().peak_bytes;
                    (Some(qid), sched, result, peak, qdev.take_trace())
                }
            };
            let report = QueryReport {
                query: i as u32,
                budget_bytes: sched.budget_bytes,
                busy: SimTime::from_secs(sched.busy_secs),
                arrival: SimTime::from_secs(sched.arrival_secs),
                admitted: SimTime::from_secs(sched.admitted_secs),
                started: SimTime::from_secs(sched.started_secs.unwrap_or(sched.admitted_secs)),
                completion: SimTime::from_secs(sched.completion_secs),
                peak_mem_bytes,
                trace,
                result,
            };
            emit_lifecycle(dev, query, sched, &report.result);
            report
        })
        .collect()
}

/// `out`, a recorded execution's result, as the query of `qdev` returns it
/// once [`Device::sched_install`] gave it the recorded lane: the same rows,
/// their buffers held for `qdev`'s lane, and every node tagged with
/// `qdev`'s query.
fn replayed(out: &QueryOutput, qdev: &Device) -> QueryOutput {
    fn tag(stats: &mut NodeStats, query: Option<u32>) {
        stats.op.query = query;
        for child in &mut stats.children {
            tag(child, query);
        }
    }
    let columns = out
        .table
        .columns()
        .iter()
        .map(|(name, col)| (name.clone(), col.rebind(qdev)))
        .collect();
    let mut stats = out.stats.clone();
    tag(&mut stats, qdev.query_id());
    QueryOutput {
        table: Table::from_columns(out.table.name(), columns),
        stats,
    }
}

/// Run one admitted tenant to completion on its query handle — the
/// per-query isolation boundary. A budget overrun unwinds out of
/// `DeviceBuffer` construction with a typed `sim::BudgetError`; it is
/// caught here and becomes [`EngineError::BudgetExceeded`], and the kernels
/// the query launched before failing stay on its timeline. Any other panic
/// is a simulator invariant violation, not a tenant failure, and
/// propagates.
fn execute_tenant(
    qdev: &Device,
    catalog: &Catalog,
    plan: &Plan,
) -> Result<QueryOutput, EngineError> {
    #[cfg(test)]
    tests::EXECUTIONS.with(|n| n.set(n.get() + 1));
    match std::panic::catch_unwind(AssertUnwindSafe(|| execute(qdev, catalog, plan))) {
        Ok(res) => res,
        Err(payload) => match payload.downcast::<sim::BudgetError>() {
            Ok(b) => Err(EngineError::BudgetExceeded {
                query: b.query,
                budget_bytes: b.budget_bytes,
                requested_bytes: b.requested_bytes,
                in_use_bytes: b.in_use_bytes,
                label: b.label.clone(),
            }),
            Err(other) => resume_unwind(other),
        },
    }
}

/// Emit one finished query's lifecycle onto the base lane, after the
/// session, in spec order: the base trace keeps the stages, and the
/// metrics recorder folds the terminal instant's outcome into the
/// per-class latency, outcome and SLO families. `q` is `None` for a spec
/// rejected before registration.
///
/// The span set *tiles* `[arrival, completion]` exactly:
/// `queued` covers `[arrival, admitted]`, the recorded exec slices cover
/// the turns the query held the device, and `interference` fills every
/// gap between them — so the tick-quantized durations telescope to
/// `completion - arrival` with no remainder, the identity
/// `tests/lifecycle_invariants.rs` asserts to the nanosecond.
fn emit_lifecycle(
    dev: &Device,
    q: Option<u32>,
    sched: sim::QuerySchedStats,
    result: &Result<QueryOutput, EngineError>,
) {
    use sim::LifecycleStage as Stage;
    // Failed: ended in an error its terminal stage does not name.
    let failed = !matches!(
        result,
        Ok(_) | Err(EngineError::QueueShed { .. } | EngineError::AdmissionRejected { .. })
    );
    let emit = |stage, start: f64, end: f64, outcome| {
        let (start, end) = (SimTime::from_secs(start), SimTime::from_secs(end));
        dev.trace_lifecycle(q, stage, start, end, outcome);
    };
    let (arrival, admitted) = (sched.arrival_secs, sched.admitted_secs);
    emit(Stage::Arrival, arrival, arrival, None);
    let (Some(qid), false) = (q, sched.shed) else {
        // Rejected or shed: terminal instant at arrival (its completion
        // stamp), no spans — the query never waited admitted, never ran.
        let stage = if sched.shed {
            Stage::Shed
        } else {
            Stage::Rejected
        };
        let at = sched.completion_secs;
        emit(stage, at, at, Some(sim::QueryOutcome { sched, failed }));
        return;
    };
    emit(Stage::Queued, arrival, admitted, None);
    emit(Stage::Admitted, admitted, admitted, None);
    // Slice boundaries are exact mirrors of the scheduler clock, so gap
    // detection compares the same f64 values the stamps hold — equality
    // is exact, not approximate.
    let mut prev = admitted;
    for (start, end) in dev.sched_query_slices(qid) {
        if start > prev {
            emit(Stage::Interference, prev, start, None);
        }
        emit(Stage::ExecSlice, start, end, None);
        prev = end;
    }
    let completion = sched.completion_secs;
    if completion > prev {
        emit(Stage::Interference, prev, completion, None);
    }
    let outcome = sim::QueryOutcome { sched, failed };
    emit(Stage::Complete, completion, completion, Some(outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;
    use columnar::Column;
    use std::cell::Cell;

    thread_local! {
        /// Tenants this thread's sessions executed rather than replayed.
        pub(super) static EXECUTIONS: Cell<usize> = const { Cell::new(0) };
    }

    /// A closed-loop session of 11 tenants over three (plan, budget) keys
    /// that succeed, plus two tenants of a fourth key that overrun their
    /// budget, run under `RoundRobin` with or without replay; returns how
    /// many tenants executed, and checks every tenant's outcome.
    fn executions(replay: bool) -> usize {
        let dev = Device::new(DeviceConfig::a100().scaled(8192.0));
        let mut catalog = Catalog::new();
        catalog.insert(Table::new(
            "t",
            vec![
                (
                    "k",
                    Column::from_i32(&dev, (0..512).map(|i| i % 37).collect(), "k"),
                ),
                ("v", Column::from_i64(&dev, (0..512).collect(), "v")),
            ],
        ));
        let distinct = Plan::scan("t").distinct("k");
        let filter = Plan::scan("t").filter(Expr::col("v").gt(Expr::lit(100)));
        let mut specs = Vec::new();
        for i in 0..11 {
            specs.push(match i % 4 {
                0 | 1 => QuerySpec::new(distinct.clone()),
                2 => QuerySpec::new(filter.clone()),
                _ => QuerySpec::new(distinct.clone()).with_budget(1 << 20),
            });
        }
        specs.push(QuerySpec::new(distinct.clone()).with_budget(1024));
        specs.push(QuerySpec::new(distinct.clone()).with_budget(1024));
        let n = specs.len() as u64;
        let start = dev.elapsed();
        let tenants = specs
            .into_iter()
            .map(|spec| OpenQuery::new(start, "default", spec))
            .collect();
        let serving = ServingConfig {
            replay,
            ..ServingConfig::default()
        };
        EXECUTIONS.with(|n| n.set(0));
        let reports = run_session(
            &dev,
            &catalog,
            tenants,
            Policy::RoundRobin,
            &serving,
            |free| free / n,
        );
        for (i, r) in reports.iter().enumerate() {
            match &r.result {
                Ok(out) => {
                    assert_eq!(out.stats.op.query, Some(i as u32));
                    let rows = if i % 4 == 2 { 411 } else { 37 };
                    assert_eq!(out.table.num_rows(), rows, "tenant {i}");
                }
                Err(e) => assert!(
                    matches!(e, EngineError::BudgetExceeded { query, .. } if *query == i as u32),
                    "tenant {i}: {e:?}"
                ),
            }
        }
        assert!(reports[11..].iter().all(|r| r.result.is_err()));
        EXECUTIONS.with(Cell::get)
    }

    /// With replay the session executes three plus two times: once per
    /// succeeding key, and every overrunning tenant again. Without it,
    /// every tenant executes.
    #[test]
    fn a_replaying_session_executes_once_per_plan_and_budget() {
        assert_eq!(executions(true), 3 + 2);
        assert_eq!(executions(false), 13);
    }
}
