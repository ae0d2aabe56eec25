//! Multi-query scheduling on one simulated device.
//!
//! The paper's framework assumes an operator owns the whole GPU; a
//! production engine serves many tenants on one device. On the simulated
//! clock a kernel's cost is a pure function of its own traffic, so a
//! serving session is *executed, then scheduled*: each query runs to
//! completion on its private handle, leaving a timeline of kernel charges,
//! and one single-threaded loop ([`crate::Device::sched_run`]) computes the
//! interleaving from those timelines. This module is the policy core that
//! loop drives — a plain state machine over simulated time:
//!
//! * **Admission control** — each query reserves a fixed memory budget out
//!   of the device's free capacity before it runs. Reservations are granted
//!   in policy order (query-id FIFO for the fair-share policies, predicted
//!   cost for the shortest-job policies); a query whose budget does not fit
//!   queues behind the head of that line until earlier queries retire and
//!   release theirs. Because the sum of granted budgets never exceeds the
//!   free capacity, no tenant can OOM a co-tenant. A session may also bound
//!   the waiting room (the `total_depth` of [`crate::Device::sched_start`]):
//!   an arrival that cannot be admitted immediately and finds that many
//!   queries already waiting is *shed* — marked finished without ever
//!   holding a reservation — rather than waiting forever.
//! * **Kernel-granular interleaving** — the loop asks for the designated
//!   query, charges that query's next recorded kernel to the device clock,
//!   and completes the turn. The designation is a pure function of
//!   *simulated* state (query ids, per-query busy time, weights, predicted
//!   costs), so the interleaving — and with it every counter, clock and
//!   trace byte — is a function of the registered specs alone.
//! * **Retire at the last kernel** — a query retires the instant its
//!   timeline is exhausted, before any later turn: its completion time is
//!   the clock right after its last kernel (its admission time if it ran
//!   none), and the budget it releases is re-granted at that same clock.
//! * **Virtualized device state** — each query gets its own counters,
//!   clock, L2 image, trace and budget-capped memory sub-ledger (see
//!   `lib.rs`), so a query's observable execution is touched only by its
//!   own kernels, in program order. That is the whole concurrent-equals-
//!   serial argument, and what lets execution run ahead of scheduling.
//!
//! What couples tenants — reservation order, the bounded waiting room, the
//! policy comparator — lives here; what does not (kernel durations,
//! per-query state) is computed before the loop needs it. The device clock
//! is stored once, in the device state: methods that stamp a time take it
//! as `now`, and the two that move it (`complete_turn`, `idle_advance`)
//! take it by `&mut`.
//!
//! The engine's `scheduler` module drives this API; it is exposed on
//! [`crate::Device`] as the `sched_*` methods.

use serde::{Deserialize, Serialize};

/// Identifier of one admitted query on a device, assigned densely from 0
/// in registration order.
pub type QueryId = u32;

/// How a session picks the next query to run a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Run admitted queries to completion in query-id order — the serial
    /// baseline the equivalence suite compares against. (It still uses the
    /// same budgets, ids and accounting as the concurrent policies.)
    Serial,
    /// Cycle through runnable queries in id order, one kernel per turn.
    RoundRobin,
    /// Designate the runnable query with the smallest `busy_time / weight`
    /// (lowest id on ties): long-run device time is shared in proportion
    /// to the configured weights.
    WeightedFair,
    /// Shortest job first: designate the runnable query with the smallest
    /// *predicted* execution time (lowest id on ties), and grant budget
    /// reservations in the same order. Preemptive at kernel granularity: a
    /// newly arrived shorter job takes the turn at the next kernel
    /// boundary.
    Sjf,
    /// Shortest job first with aging: rank by
    /// `predicted / (1 + wait_time)`, so a long job's effective rank decays
    /// toward zero the longer it waits and it cannot starve behind an
    /// endless stream of short arrivals.
    SjfAging,
}

impl SchedPolicy {
    /// Stable lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Serial => "serial",
            SchedPolicy::RoundRobin => "round_robin",
            SchedPolicy::WeightedFair => "weighted_fair",
            SchedPolicy::Sjf => "sjf",
            SchedPolicy::SjfAging => "sjf_aging",
        }
    }

    /// Whether admission and designation rank by predicted cost rather
    /// than id order.
    fn cost_ordered(self) -> bool {
        matches!(self, SchedPolicy::Sjf | SchedPolicy::SjfAging)
    }
}

/// Typed payload carried by the panic a budget-capped allocation raises
/// when a query's sub-ledger would exceed its reservation.
///
/// The device cannot return a `Result` from deep inside an executing
/// operator (the OOM surface is `DeviceBuffer` construction), so — like the
/// device-capacity OOM — the failure unwinds; unlike it, the payload is
/// typed so a scheduler can catch the unwind at the per-query boundary,
/// downcast, and convert it into its own error type while co-tenants keep
/// running.
#[derive(Debug, Clone)]
pub struct BudgetError {
    /// The query whose allocation failed.
    pub query: QueryId,
    /// The query's reserved budget, bytes.
    pub budget_bytes: u64,
    /// Bytes the failing allocation requested (after alignment rounding).
    pub requested_bytes: u64,
    /// Bytes the query already had in use.
    pub in_use_bytes: u64,
    /// Label of the failing allocation.
    pub label: String,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query {} exceeded its {} byte memory budget allocating {} bytes \
             for '{}' ({} already in use)",
            self.query, self.budget_bytes, self.requested_bytes, self.label, self.in_use_bytes
        )
    }
}

/// Error returned by [`crate::Device::sched_register`] when a query's
/// requested budget can never be satisfied on this device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionError {
    /// Bytes the query asked to reserve.
    pub requested_bytes: u64,
    /// Free device bytes when the scheduling session started (capacity
    /// minus catalog residents) — the most any reservation can get.
    pub available_bytes: u64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested budget of {} bytes exceeds the device's {} free bytes",
            self.requested_bytes, self.available_bytes
        )
    }
}

/// Scheduling outcome of one query, for fairness reporting — and the
/// scheduler's own per-query record: the session updates these fields in
/// place, [`crate::Device::sched_query_stats`] clones them, and the metrics
/// lifecycle row written at retire embeds them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuerySchedStats {
    /// Simulated seconds of kernel time this query received.
    pub busy_secs: f64,
    /// Device clock when the query retired (seconds): the clock right
    /// after its last kernel turn (its admission time if it ran no
    /// kernels; its arrival time if it was shed).
    pub completion_secs: f64,
    /// Device clock when the query's budget reservation was granted.
    pub admitted_secs: f64,
    /// Device clock when the query arrived — registration time for
    /// closed-loop queries, the scheduled open-loop arrival otherwise.
    pub arrival_secs: f64,
    /// Device clock at the query's first completed kernel turn — when it
    /// first actually ran. `None` if it never launched a kernel.
    pub started_secs: Option<f64>,
    /// The reservation the query ran under, bytes.
    pub budget_bytes: u64,
    /// The query was shed by the bounded queue: it never held a
    /// reservation and ran nothing.
    pub shed: bool,
    /// Serving class label, when the query registered with one.
    pub class: Option<String>,
    /// Per-class latency target (seconds), when the query registered with
    /// one.
    pub slo_secs: Option<f64>,
}

/// Per-query scheduling bookkeeping.
pub(crate) struct QuerySched {
    weight: f64,
    /// Predicted execution time (seconds) from the engine's cost model;
    /// the ranking key of the shortest-job policies. Zero when the caller
    /// has no estimate.
    predicted_secs: f64,
    admitted: bool,
    finished: bool,
    /// Whether the clock has reached `stats.arrival_secs`. Until then the
    /// query is invisible to admission and designation.
    arrived: bool,
    /// Contiguous runs of this query's kernel turns `[(start, end)]` on the
    /// device clock, recorded only when [`SchedState::record_slices`] is
    /// set (lifecycle tracing active). Consecutive turns with no foreign
    /// clock advance in between coalesce into one slice.
    slices: Vec<(f64, f64)>,
    /// What the session reports about the query, kept up to date in place.
    stats: QuerySchedStats,
}

/// The policy state of a scheduling session. Lives in the device state,
/// under its one lock.
#[derive(Default)]
pub(crate) struct SchedState {
    policy: Option<SchedPolicy>,
    /// Maximum queries that may wait for admission at once; `None` is
    /// unbounded, `Some(0)` admits on arrival or sheds.
    total_depth: Option<usize>,
    queries: Vec<QuerySched>,
    designated: Option<QueryId>,
    /// Round-robin resume point: the first id considered for the next turn.
    rr_cursor: u32,
    /// Sum of granted (admitted, unretired) reservations.
    reserved_bytes: u64,
    /// Free device bytes at session start (capacity minus base residents).
    available_bytes: u64,
    /// Queries holding a reservation that the session loop has not
    /// executed yet (see [`SchedState::pop_admitted`]).
    to_run: Vec<QueryId>,
    /// Record per-query exec slices in [`SchedState::complete_turn`]. Set
    /// by the device when lifecycle tracing is active at session start;
    /// zero-cost (one branch per turn) otherwise.
    pub(crate) record_slices: bool,
}

impl SchedState {
    pub(crate) fn start(
        &mut self,
        policy: SchedPolicy,
        available_bytes: u64,
        total_depth: Option<usize>,
    ) {
        assert!(
            self.policy.is_none(),
            "a scheduling session is already active on this device"
        );
        self.policy = Some(policy);
        self.total_depth = total_depth;
        self.queries.clear();
        self.designated = None;
        self.rr_cursor = 0;
        self.reserved_bytes = 0;
        self.available_bytes = available_bytes;
        self.to_run.clear();
        self.record_slices = false;
    }

    /// End the session once its loop has drained. Per-query stats and
    /// slices stay readable until the next [`SchedState::start`].
    pub(crate) fn finish(&mut self) {
        assert!(
            self.queries.iter().all(|q| q.finished),
            "a session ended with unretired queries"
        );
        self.policy = None;
        self.designated = None;
    }

    pub(crate) fn active(&self) -> bool {
        self.policy.is_some()
    }

    /// Register a query; returns its id. `stats` starts the query's
    /// record: its arrival, budget, class and SLO. Admission (the actual
    /// reservation) happens separately, in policy order. The arrival may
    /// lie in the future (open-loop load generation): until the clock
    /// reaches it the query is invisible to admission and designation, and
    /// when every in-system query has drained and only future arrivals
    /// remain the clock jumps forward (see [`SchedState::idle_advance`]).
    /// `predicted_secs` is the shortest-job ranking key.
    pub(crate) fn register_spec(
        &mut self,
        now: f64,
        weight: f64,
        predicted_secs: f64,
        stats: QuerySchedStats,
    ) -> Result<QueryId, AdmissionError> {
        assert!(self.active(), "sched_register outside a session");
        assert!(weight > 0.0, "query weight must be positive");
        assert!(
            stats.arrival_secs.is_finite(),
            "query arrival time must be finite"
        );
        assert!(
            predicted_secs.is_finite() && predicted_secs >= 0.0,
            "predicted time must be finite and non-negative"
        );
        if stats.budget_bytes > self.available_bytes {
            return Err(AdmissionError {
                requested_bytes: stats.budget_bytes,
                available_bytes: self.available_bytes,
            });
        }
        let id = self.queries.len() as QueryId;
        self.queries.push(QuerySched {
            weight,
            predicted_secs,
            admitted: false,
            finished: false,
            arrived: stats.arrival_secs <= now,
            slices: Vec::new(),
            stats,
        });
        Ok(id)
    }

    /// The exec slices recorded for a query (empty unless
    /// [`SchedState::record_slices`] was set for the session).
    pub(crate) fn slices(&self, id: QueryId) -> Vec<(f64, f64)> {
        self.queries[id as usize].slices.clone()
    }

    /// Flip queries whose arrival time the clock has reached to arrived;
    /// returns the newly arrived ids in id order (the shed check runs over
    /// exactly these).
    fn mark_arrivals(&mut self, now: f64) -> Vec<QueryId> {
        let mut newly = Vec::new();
        for (i, q) in self.queries.iter_mut().enumerate() {
            if !q.arrived && q.stats.arrival_secs <= now {
                q.arrived = true;
                newly.push(i as QueryId);
            }
        }
        newly
    }

    /// A query occupying the waiting room: in the system but not yet
    /// holding a reservation.
    fn waiting(q: &QuerySched) -> bool {
        q.arrived && !q.admitted && !q.finished
    }

    /// The policy's ranking key for a waiting or runnable query. Lower
    /// runs (or is admitted) first; ties break toward the lower id at the
    /// call sites.
    fn rank(&self, q: &QuerySched, now: f64) -> f64 {
        match self.policy {
            Some(SchedPolicy::SjfAging) => {
                // A job's rank decays with its time in system, so waiting
                // long jobs eventually outrank fresh short ones.
                q.predicted_secs / (1.0 + (now - q.stats.arrival_secs).max(0.0))
            }
            _ => q.predicted_secs,
        }
    }

    /// Grant reservations in policy order until one does not fit: id
    /// (FIFO) order for the fair-share policies, predicted-cost order for
    /// the shortest-job policies. The head of the chosen line blocks
    /// everyone behind it, which keeps admission order — and therefore
    /// everything downstream — deterministic. Queries that have not yet
    /// *arrived* are skipped rather than blocking. Every grant is queued
    /// for the session loop to execute ([`SchedState::pop_admitted`]).
    fn admit_pass(&mut self, now: f64) {
        let cost_ordered = self.policy.is_some_and(|p| p.cost_ordered());
        let mut order: Vec<QueryId> = (0..self.queries.len() as QueryId)
            .filter(|&id| Self::waiting(&self.queries[id as usize]))
            .collect();
        if cost_ordered {
            order.sort_by(|&a, &b| {
                let (qa, qb) = (&self.queries[a as usize], &self.queries[b as usize]);
                self.rank(qa, now)
                    .partial_cmp(&self.rank(qb, now))
                    .unwrap()
                    .then(a.cmp(&b))
            });
        }
        for id in order {
            let q = &mut self.queries[id as usize];
            if self.reserved_bytes + q.stats.budget_bytes > self.available_bytes {
                break;
            }
            self.reserved_bytes += q.stats.budget_bytes;
            q.admitted = true;
            q.stats.admitted_secs = now;
            self.to_run.push(id);
        }
        if self.designated.is_none() {
            self.redesignate(now);
        }
    }

    /// The lowest-id query that holds a reservation but has not been
    /// executed yet, removed from the pending set. The session loop runs
    /// it to completion on its private handle before the next turn.
    pub(crate) fn pop_admitted(&mut self) -> Option<QueryId> {
        let i = (0..self.to_run.len()).min_by_key(|&i| self.to_run[i])?;
        Some(self.to_run.swap_remove(i))
    }

    /// The query the policy gives the next kernel turn to.
    pub(crate) fn designated(&self) -> Option<QueryId> {
        self.designated
    }

    /// Shed newly arrived queries that were not admitted on arrival and
    /// find the waiting room full. `candidates` are processed in id order;
    /// a shed query finishes immediately (completion = arrival) without
    /// ever holding a reservation. With an unbounded room this is a no-op.
    fn shed_overflow(&mut self, candidates: &[QueryId]) {
        let Some(cap) = self.total_depth else {
            return;
        };
        for &id in candidates {
            if !Self::waiting(&self.queries[id as usize]) {
                continue;
            }
            let others = self
                .queries
                .iter()
                .enumerate()
                .filter(|&(i, q)| i as QueryId != id && Self::waiting(q))
                .count();
            if others >= cap {
                let q = &mut self.queries[id as usize];
                q.finished = true;
                q.stats.shed = true;
                q.stats.completion_secs = q.stats.arrival_secs;
            }
        }
    }

    /// Run the arrival pipeline after a registration: admission pass, then
    /// the shed check for the new query if it arrived unadmitted.
    pub(crate) fn on_register(&mut self, id: QueryId, now: f64) {
        self.admit_pass(now);
        self.shed_overflow(&[id]);
    }

    /// The arrival pipeline after the clock moved to `now`: new arrivals
    /// enter the system, reservations are granted, overflow is shed, and
    /// the turn is re-designated.
    fn on_clock_moved(&mut self, now: f64) {
        let newly = self.mark_arrivals(now);
        self.admit_pass(now);
        self.shed_overflow(&newly);
        self.redesignate(now);
    }

    /// If the device is idle (no runnable query) but future arrivals
    /// exist, jump `clock` to the earliest one and run the arrival
    /// pipeline there; returns whether the clock moved. Any admitted
    /// unfinished query would be designated and therefore block the jump.
    pub(crate) fn idle_advance(&mut self, clock: &mut f64) -> bool {
        if self.designated.is_some() {
            return false;
        }
        let next = self
            .queries
            .iter()
            .filter(|q| !q.arrived && !q.finished && q.stats.arrival_secs > *clock)
            .map(|q| q.stats.arrival_secs)
            .fold(f64::INFINITY, f64::min);
        if !next.is_finite() {
            return false;
        }
        // Added as a delta, not assigned: `clock + (next - clock)` can land
        // an ulp off `next` after a long jump, and every recorded baseline
        // holds the sum. An undershoot leaves the arrival pending and the
        // next call (now an exact subtraction) reaches it.
        *clock += next - *clock;
        self.on_clock_moved(*clock);
        true
    }

    /// Account a kernel turn of the designated query and pass the turn on:
    /// `clock` advances by the kernel's duration and new arrivals may enter
    /// the system.
    pub(crate) fn complete_turn(&mut self, clock: &mut f64, id: QueryId, kernel_secs: f64) {
        debug_assert_eq!(self.designated, Some(id), "turn completed out of order");
        let turn_start = *clock;
        *clock += kernel_secs;
        let clock = *clock;
        {
            let q = &mut self.queries[id as usize];
            q.stats.busy_secs += kernel_secs;
            q.stats.started_secs.get_or_insert(turn_start);
            if self.record_slices {
                match q.slices.last_mut() {
                    // Back-to-back turns share a boundary: extend the slice.
                    Some(last) if last.1 == turn_start => last.1 = clock,
                    _ => q.slices.push((turn_start, clock)),
                }
            }
        }
        if self.policy == Some(SchedPolicy::RoundRobin) {
            self.rr_cursor = id + 1;
        }
        self.on_clock_moved(clock);
    }

    /// Mark an admitted query finished at `now`, release its reservation,
    /// and re-run the admission pass for queued queries. The session loop
    /// calls this the instant the query's timeline is exhausted, so `now`
    /// is the clock right after its last kernel.
    pub(crate) fn retire(&mut self, id: QueryId, now: f64) {
        let q = &mut self.queries[id as usize];
        assert!(q.admitted && !q.finished, "retire of a query not running");
        q.finished = true;
        q.stats.completion_secs = now;
        self.reserved_bytes -= q.stats.budget_bytes;
        self.admit_pass(now);
        self.redesignate(now);
    }

    pub(crate) fn stats(&self, id: QueryId) -> QuerySchedStats {
        self.queries[id as usize].stats.clone()
    }

    /// Recompute the designated query from simulated state only.
    fn redesignate(&mut self, now: f64) {
        let runnable = |q: &QuerySched| q.arrived && q.admitted && !q.finished;
        let n = self.queries.len() as u32;
        self.designated = match self.policy {
            None => None,
            Some(SchedPolicy::Serial) => {
                self.queries.iter().position(runnable).map(|i| i as QueryId)
            }
            Some(SchedPolicy::RoundRobin) => (0..n)
                .map(|off| (self.rr_cursor + off) % n.max(1))
                .find(|&id| runnable(&self.queries[id as usize])),
            Some(SchedPolicy::WeightedFair) => self
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| runnable(q))
                .min_by(|(_, a), (_, b)| {
                    (a.stats.busy_secs / a.weight)
                        .partial_cmp(&(b.stats.busy_secs / b.weight))
                        .unwrap()
                })
                .map(|(i, _)| i as QueryId),
            Some(SchedPolicy::Sjf) | Some(SchedPolicy::SjfAging) => self
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| runnable(q))
                .min_by(|(ia, a), (ib, b)| {
                    self.rank(a, now)
                        .partial_cmp(&self.rank(b, now))
                        .unwrap()
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i as QueryId),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session plus the clock the device would own.
    struct Session {
        st: SchedState,
        clock: f64,
    }

    impl Session {
        fn new(policy: SchedPolicy, available: u64, total_depth: Option<usize>) -> Self {
            let mut st = SchedState::default();
            st.start(policy, available, total_depth);
            Session { st, clock: 0.0 }
        }

        /// Unbounded session with unit-weight queries present at the start,
        /// admitted in one pass.
        fn closed(policy: SchedPolicy, budgets: &[u64], available: u64) -> Self {
            let mut s = Session::new(policy, available, None);
            for &b in budgets {
                s.add(1.0, b, 0.0, 0.0);
            }
            s.admit();
            s
        }

        /// Register without running the arrival pipeline.
        fn add(&mut self, weight: f64, budget: u64, arrival: f64, predicted: f64) {
            let stats = QuerySchedStats {
                arrival_secs: arrival,
                budget_bytes: budget,
                ..Default::default()
            };
            self.st
                .register_spec(self.clock, weight, predicted, stats)
                .unwrap();
        }

        /// Register the way the device does: arrival pipeline included.
        fn arrive(&mut self, budget: u64) {
            self.add(1.0, budget, self.clock, 0.0);
            let id = self.st.queries.len() as QueryId - 1;
            self.st.on_register(id, self.clock);
        }

        fn admit(&mut self) {
            self.st.admit_pass(self.clock);
        }

        fn turn(&mut self, id: QueryId, secs: f64) {
            self.st.complete_turn(&mut self.clock, id, secs);
        }

        fn retire(&mut self, id: QueryId) {
            self.st.retire(id, self.clock);
        }

        fn idle(&mut self) -> bool {
            self.st.idle_advance(&mut self.clock)
        }

        fn designated(&self) -> Option<QueryId> {
            self.st.designated
        }

        fn admitted(&self, id: QueryId) -> bool {
            self.st.queries[id as usize].admitted
        }

        fn shed(&self, id: QueryId) -> bool {
            self.st.queries[id as usize].stats.shed
        }

        fn stats(&self, id: QueryId) -> QuerySchedStats {
            self.st.stats(id)
        }
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let mut s = Session::closed(SchedPolicy::RoundRobin, &[10, 10, 10], 100);
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = s.designated().unwrap();
            order.push(id);
            s.turn(id, 1.0);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        s.retire(1);
        let id = s.designated().unwrap();
        assert_eq!(id, 0, "cursor wraps past the retired query");
        s.turn(id, 1.0);
        assert_eq!(s.designated(), Some(2));
    }

    #[test]
    fn serial_runs_to_completion_in_id_order() {
        let mut s = Session::closed(SchedPolicy::Serial, &[10, 10], 100);
        for _ in 0..5 {
            assert_eq!(s.designated(), Some(0));
            s.turn(0, 1.0);
        }
        s.retire(0);
        assert_eq!(s.designated(), Some(1));
        assert_eq!(
            s.stats(0).completion_secs,
            5.0,
            "completion is the post-kernel clock"
        );
    }

    #[test]
    fn weighted_fair_shares_busy_time_by_weight() {
        let mut s = Session::new(SchedPolicy::WeightedFair, 100, None);
        s.add(3.0, 10, 0.0, 0.0);
        s.add(1.0, 10, 0.0, 0.0);
        s.admit();
        let mut turns = [0u32; 2];
        for _ in 0..8 {
            let id = s.designated().unwrap();
            turns[id as usize] += 1;
            s.turn(id, 1.0);
        }
        assert_eq!(turns, [6, 2], "3:1 weights split equal-cost turns 3:1");
    }

    #[test]
    fn fifo_admission_blocks_behind_the_head_of_line() {
        // Query 1 does not fit while 0 runs; query 2 would fit but must
        // queue behind 1.
        let mut s = Session::closed(SchedPolicy::RoundRobin, &[60, 60, 10], 100);
        assert!(s.admitted(0));
        assert!(!s.admitted(1));
        assert!(!s.admitted(2), "FIFO: 2 queues behind 1");
        assert_eq!(s.designated(), Some(0));
        assert_eq!(s.st.pop_admitted(), Some(0));
        assert_eq!(s.st.pop_admitted(), None, "only granted queries run");
        s.retire(0);
        assert!(s.admitted(1));
        assert!(s.admitted(2), "both fit after 0 released its budget");
        assert_eq!(s.st.pop_admitted(), Some(1));
        assert_eq!(s.st.pop_admitted(), Some(2));
    }

    #[test]
    fn future_arrivals_are_invisible_until_the_clock_reaches_them() {
        let mut s = Session::new(SchedPolicy::Serial, 100, None);
        s.add(1.0, 10, 5.0, 0.0);
        s.admit();
        assert!(!s.admitted(0), "query 0 has not arrived yet");
        assert_eq!(s.designated(), None);

        // The device is idle with one future arrival: jump to it.
        assert!(s.idle());
        assert_eq!(s.clock, 5.0);
        assert!(s.admitted(0));
        assert_eq!(s.designated(), Some(0));
        assert_eq!(s.stats(0).arrival_secs, 5.0);
        assert_eq!(s.stats(0).admitted_secs, 5.0);
        assert!(!s.idle(), "no advance while a query is runnable");
        s.retire(0);
        assert!(!s.idle(), "no advance without a future arrival");
        assert_eq!(s.clock, 5.0);
    }

    #[test]
    fn kernel_turns_advance_the_clock_and_admit_arrivals() {
        let mut s = Session::new(SchedPolicy::Serial, 100, None);
        s.add(1.0, 10, 0.0, 0.0);
        s.add(1.0, 10, 2.5, 0.0);
        s.admit();
        assert_eq!(s.designated(), Some(0));
        assert!(!s.admitted(1));

        s.turn(0, 1.0);
        assert!(!s.admitted(1), "clock at 1.0 < arrival 2.5");
        s.turn(0, 2.0);
        assert_eq!(s.clock, 3.0);
        assert!(s.admitted(1), "clock at 3.0 >= arrival 2.5");
        assert_eq!(s.stats(1).admitted_secs, 3.0);
        assert_eq!(s.designated(), Some(0), "serial still runs query 0");

        s.retire(0);
        assert_eq!(s.designated(), Some(1));
        assert_eq!(s.stats(0).completion_secs, 3.0);
        assert_eq!(s.stats(0).started_secs, Some(0.0));
        assert!(!s.idle(), "no advance while a query is runnable");
    }

    #[test]
    fn a_finished_best_candidate_retires_without_a_clock_advance() {
        // The shortest job's last kernel leaves it the policy's best
        // candidate; the retire that follows passes the turn on at the
        // same clock, and the budget it frees is granted there too.
        for policy in [SchedPolicy::Sjf, SchedPolicy::Serial] {
            let mut s = Session::new(policy, 100, None);
            s.add(1.0, 40, 0.0, 1.0);
            s.add(1.0, 40, 0.0, 5.0);
            s.add(1.0, 40, 0.0, 9.0);
            s.admit();
            assert!(s.admitted(0) && s.admitted(1) && !s.admitted(2));
            s.turn(0, 0.25);
            s.turn(0, 0.5);
            assert_eq!(
                s.designated(),
                Some(0),
                "{policy:?}: still the best candidate"
            );
            s.retire(0);
            assert_eq!(s.clock, 0.75);
            assert_eq!(s.designated(), Some(1), "{policy:?}: turn passes on");
            assert_eq!(s.stats(0).completion_secs, 0.75);
            assert_eq!(
                s.stats(2).admitted_secs,
                0.75,
                "freed budget granted at once"
            );
            assert_eq!(s.stats(1).started_secs, None, "no turn ran in between");
        }
    }

    #[test]
    fn sjf_designates_by_predicted_time() {
        let mut s = Session::new(SchedPolicy::Sjf, 100, None);
        s.add(1.0, 10, 0.0, 5.0);
        s.add(1.0, 10, 0.0, 1.0);
        s.add(1.0, 10, 0.0, 3.0);
        s.admit();
        assert_eq!(s.designated(), Some(1), "smallest predicted time first");
        s.turn(1, 1.0);
        s.retire(1);
        assert_eq!(s.designated(), Some(2));
        s.retire(2);
        assert_eq!(s.designated(), Some(0));
        s.retire(0);
    }

    #[test]
    fn sjf_preempts_at_kernel_boundaries() {
        let mut s = Session::new(SchedPolicy::Sjf, 100, None);
        s.add(1.0, 10, 0.0, 10.0);
        s.add(1.0, 10, 0.5, 1.0);
        s.admit();
        assert_eq!(s.designated(), Some(0), "only job in the system");
        s.turn(0, 1.0);
        assert_eq!(
            s.designated(),
            Some(1),
            "shorter arrival takes the next turn"
        );
    }

    #[test]
    fn sjf_admits_reservations_in_cost_order() {
        let mut s = Session::new(SchedPolicy::Sjf, 100, None);
        s.add(1.0, 80, 0.0, 9.0);
        s.add(1.0, 80, 0.0, 2.0);
        s.admit();
        assert!(
            !s.admitted(0) && s.admitted(1),
            "the shorter job gets the reservation even with a higher id"
        );
        s.retire(1);
        assert!(s.admitted(0));
        s.retire(0);
    }

    #[test]
    fn aging_decays_rank_with_waiting_time() {
        let mut s = Session::new(SchedPolicy::SjfAging, 100, None);
        // A long job arrives first; short jobs keep arriving behind it.
        // Pure SJF would hand every turn to the freshest short job; aging
        // divides a job's rank by its time in system, so the long job's
        // effective rank decays below a fresh short job's.
        s.add(1.0, 10, 0.0, 8.0); // long
        s.add(1.0, 10, 1.0, 1.0); // short @ 1s
        s.add(1.0, 10, 8.0, 1.0); // short @ 8s
        s.admit();
        assert_eq!(s.designated(), Some(0), "only arrival so far");
        s.turn(0, 1.0);
        // Clock 1: the fresh short job (rank 1/1) outranks the barely aged
        // long one (rank 8/2) and preempts it.
        assert_eq!(s.designated(), Some(1));
        s.turn(1, 1.0);
        s.retire(1);
        assert_eq!(s.designated(), Some(0));
        for _ in 0..6 {
            s.turn(0, 1.0);
        }
        // Clock 8: a brand-new short job arrives (rank 1/1 = 1), but the
        // long job has aged to rank 8/9 < 1 and keeps the device — no
        // starvation.
        assert_eq!(
            s.designated(),
            Some(0),
            "aged long job outranks fresh short"
        );
        s.turn(0, 1.0);
        s.retire(0);
        s.retire(2);
    }

    #[test]
    fn full_queue_sheds_on_arrival() {
        let mut s = Session::new(SchedPolicy::Serial, 100, Some(1));
        // 0 takes the whole device; 1 waits (depth 1); 2 finds the waiting
        // room full and is shed.
        s.arrive(100);
        s.arrive(10);
        s.arrive(10);
        assert!(s.admitted(0) && !s.shed(0));
        assert!(!s.admitted(1) && !s.shed(1), "within depth: waits");
        assert!(s.shed(2), "overflow arrival is shed");
        let shed = s.stats(2);
        assert!(shed.shed);
        assert_eq!(shed.completion_secs, shed.arrival_secs);
        s.retire(0);
        assert!(s.admitted(1), "the queued query still runs");
        s.retire(1);
        s.st.finish();
    }

    #[test]
    fn zero_capacity_queue_admits_immediately_or_sheds() {
        let mut s = Session::new(SchedPolicy::Serial, 100, Some(0));
        // Fits right away: admitted, never waited, never shed.
        s.arrive(60);
        assert!(s.admitted(0) && !s.shed(0));
        // Would have to wait: shed on the spot.
        s.arrive(60);
        assert!(s.shed(1));
        s.retire(0);
        s.st.finish();
    }

    #[test]
    fn oversized_budget_is_rejected_at_registration() {
        let mut s = Session::new(SchedPolicy::Serial, 100, None);
        let stats = QuerySchedStats {
            budget_bytes: 101,
            ..Default::default()
        };
        let err = s.st.register_spec(0.0, 1.0, 0.0, stats).unwrap_err();
        assert_eq!(err.requested_bytes, 101);
        assert_eq!(err.available_bytes, 100);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn budget_error_display_names_the_query() {
        let e = BudgetError {
            query: 3,
            budget_bytes: 1024,
            requested_bytes: 4096,
            in_use_bytes: 512,
            label: "probe.out".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("query 3"));
        assert!(msg.contains("probe.out"));
        assert!(msg.contains("budget"));
    }
}
