//! Plan caching for the serving path: steady-state traffic skips planning.
//!
//! The adaptive planner runs statistics-sampling kernels that feed the
//! decision trees (match ratio and skew for joins, distinct count and skew
//! for aggregations); repeat traffic does not need to pay for them twice.
//! A [`PlanCache`] entry holds the plan and its recorded observations,
//! keyed on the plan's normalized shape *and* the catalog version — a
//! statistics refresh or reload bumps [`Catalog::version`] and silently
//! invalidates every entry recorded against stale statistics.
//!
//! **Byte-identity contract.** A cache hit compiles the cached plan again
//! (a tree walk, no kernels) and replays the recorded sampling
//! observations positionally into it, so its output
//! table, `OpStats`, and EXPLAIN tree are byte-identical to the recording
//! (cold) run. The cold run itself launches its sampling kernels on the
//! query's [`sim::Device::planning`] handle — charge-free on every clock —
//! which is what makes the two runs indistinguishable to every observer. The
//! property suite (`tests/admission_invariants.rs`) holds the cache to
//! exactly this contract.
//!
//! Every hit, miss and eviction is one lifecycle instant
//! (`plan_cache_hit`, `plan_cache_miss`, `plan_cache_evict`) on the
//! device's base lane, whatever handle executes: the base trace keeps it,
//! and the metrics recorder folds it into `plan_cache_hits_total`,
//! `plan_cache_misses_total` and `plan_cache_evictions_total`. Each
//! execution also reports its [`PlanCacheInfo`], which
//! [`crate::explain::QueryExplain::with_cache`] renders as cache
//! provenance.

use crate::exec::{Catalog, QueryOutput};
use crate::op::{compile, run_operator, ExecContext, SiteSample};
use crate::{EngineError, Plan};
use serde::Serialize;
use sim::Device;
use std::collections::HashMap;

/// Whether an execution was served from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheOutcome {
    /// Cached plan and sampled statistics reused; sampling skipped.
    Hit,
    /// Cold: sampled fresh, then cached.
    Miss,
}

/// Cache provenance for one execution, rendered into EXPLAIN.
#[derive(Debug, Clone, Serialize)]
pub struct PlanCacheInfo {
    /// Hit or miss.
    pub outcome: CacheOutcome,
    /// The plan-shape fingerprint the lookup used.
    pub fingerprint: u64,
    /// The catalog version the entry is valid for.
    pub catalog_version: u64,
}

/// FNV-1a 64-bit over a byte string: stable, dependency-free, and good
/// enough for shape fingerprints (collisions only cost a wrong-entry
/// *replay*, which the positional type check turns into a live-sampling
/// fallback, not a wrong answer).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a logical plan's shape: the debug rendering is a
/// deterministic, total serialization of the tree (tables, columns,
/// predicates, pinned algorithms), so equal plans — however they were
/// built — fingerprint equal.
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    fnv1a(format!("{plan:?}").as_bytes())
}

/// An LRU cache of plans plus their recorded sampling observations, keyed
/// by `(fingerprint, catalog version)`.
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<(u64, u64), (Plan, Vec<SiteSample>)>,
    /// Keys in recency order, most recent last.
    recency: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            recency: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Execute `plan`, fingerprinting its shape for the cache key.
    pub fn execute(
        &mut self,
        dev: &Device,
        catalog: &Catalog,
        plan: &Plan,
    ) -> Result<(QueryOutput, PlanCacheInfo), EngineError> {
        self.execute_keyed(plan_fingerprint(plan), dev, catalog, plan)
    }

    /// Execute `plan` under a caller-supplied fingerprint — the SQL
    /// frontend passes `sql::fingerprint(text)` here so textual variants
    /// of one query (whitespace, case, comments) share an entry without
    /// re-planning.
    pub fn execute_keyed(
        &mut self,
        fingerprint: u64,
        dev: &Device,
        catalog: &Catalog,
        plan: &Plan,
    ) -> Result<(QueryOutput, PlanCacheInfo), EngineError> {
        let key = (fingerprint, catalog.version());
        let info = |outcome| PlanCacheInfo {
            outcome,
            fingerprint,
            catalog_version: catalog.version(),
        };
        if self.entries.contains_key(&key) {
            self.hits += 1;
            instant(dev, sim::LifecycleStage::PlanCacheHit);
            self.touch(key);
            let (cached, samples) = &self.entries[&key];
            let ctx = ExecContext::with_replay(dev, catalog, samples.clone());
            let (table, stats) = run_operator(&ctx, &compile(cached))?;
            return Ok((QueryOutput { table, stats }, info(CacheOutcome::Hit)));
        }
        self.misses += 1;
        instant(dev, sim::LifecycleStage::PlanCacheMiss);
        let ctx = ExecContext::with_recording(dev, catalog);
        let (table, stats) = run_operator(&ctx, &compile(plan))?;
        let samples = ctx.take_samples();
        self.insert(key, (plan.clone(), samples), dev);
        Ok((QueryOutput { table, stats }, info(CacheOutcome::Miss)))
    }

    fn touch(&mut self, key: (u64, u64)) {
        if let Some(pos) = self.recency.iter().position(|&k| k == key) {
            self.recency.remove(pos);
        }
        self.recency.push(key);
    }

    fn insert(&mut self, key: (u64, u64), entry: (Plan, Vec<SiteSample>), dev: &Device) {
        if !self.entries.contains_key(&key) && self.entries.len() == self.capacity {
            let victim = self.recency.remove(0);
            self.entries.remove(&victim);
            self.evictions += 1;
            instant(dev, sim::LifecycleStage::PlanCacheEvict);
        }
        self.entries.insert(key, entry);
        self.touch(key);
    }
}

/// One plan-cache lifecycle instant at the handle's clock, on the base
/// lane: the base trace keeps it and the metrics recorder counts it.
fn instant(dev: &Device, stage: sim::LifecycleStage) {
    let now = dev.elapsed();
    dev.trace_lifecycle(dev.query_id(), stage, now, now, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, AggSpec, Expr, Table};
    use columnar::Column;
    use groupby::AggFn;

    fn catalog(dev: &Device) -> Catalog {
        let n = 4096usize;
        let mut c = Catalog::new();
        c.insert(Table::new(
            "facts",
            vec![
                (
                    "k",
                    Column::from_i64(dev, (0..n as i64).map(|i| i % 97).collect(), "k"),
                ),
                ("v", Column::from_i64(dev, (0..n as i64).collect(), "v")),
            ],
        ));
        c
    }

    fn plan() -> Plan {
        Plan::scan("facts")
            .filter(Expr::col("v").lt(Expr::lit(3000)))
            .aggregate("k", vec![AggSpec::new(AggFn::Sum, "v", "s")])
    }

    #[test]
    fn equal_plans_fingerprint_equal_and_different_plans_differ() {
        assert_eq!(plan_fingerprint(&plan()), plan_fingerprint(&plan()));
        assert_ne!(
            plan_fingerprint(&plan()),
            plan_fingerprint(&Plan::scan("facts"))
        );
    }

    #[test]
    fn hit_matches_cold_run_byte_for_byte() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let mut cache = PlanCache::new(4);
        // Compare cold and hot from identical device state (two fresh
        // devices with identically built catalogs — the cache key is
        // device-independent). Back-to-back runs on one device differ by
        // real carryover: warm L2, leftover allocations, and clock offset
        // (solo OpStats subtract absolute device clocks, so a different
        // start offset shifts float rounding at the last ulp).
        let (cold, i0) = cache.execute(&dev, &cat, &plan()).unwrap();
        let dev2 = Device::a100();
        let cat2 = catalog(&dev2);
        let (hot, i1) = cache.execute(&dev2, &cat2, &plan()).unwrap();
        assert_eq!(i0.outcome, CacheOutcome::Miss);
        assert_eq!(i1.outcome, CacheOutcome::Hit);
        assert_eq!(cold.table.rows_sorted(), hot.table.rows_sorted());
        assert_eq!(cold.table.column_names(), hot.table.column_names());
        assert_eq!(format!("{:?}", cold.stats), format!("{:?}", hot.stats));
        assert_eq!(cache.stats(), (1, 1, 0));
    }

    #[test]
    fn cached_run_matches_plain_execute_results() {
        // The cache must change performance accounting only, never answers:
        // same result rows as the ordinary uncached path.
        let dev = Device::a100();
        let cat = catalog(&dev);
        let mut cache = PlanCache::new(4);
        let plain = execute(&dev, &cat, &plan()).unwrap();
        let (cached, _) = cache.execute(&dev, &cat, &plan()).unwrap();
        assert_eq!(plain.table.rows_sorted(), cached.table.rows_sorted());
    }

    #[test]
    fn catalog_version_bump_invalidates() {
        let dev = Device::a100();
        let mut cat = catalog(&dev);
        let mut cache = PlanCache::new(4);
        let (_, i0) = cache.execute(&dev, &cat, &plan()).unwrap();
        cat.insert(Table::new(
            "other",
            vec![("x", Column::from_i64(&dev, vec![1], "x"))],
        ));
        let (_, i1) = cache.execute(&dev, &cat, &plan()).unwrap();
        assert_eq!(i0.outcome, CacheOutcome::Miss);
        assert_eq!(i1.outcome, CacheOutcome::Miss);
        assert_ne!(i0.catalog_version, i1.catalog_version);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let mut cache = PlanCache::new(1);
        cache.execute(&dev, &cat, &plan()).unwrap();
        cache.execute(&dev, &cat, &Plan::scan("facts")).unwrap();
        let (_, again) = cache.execute(&dev, &cat, &plan()).unwrap();
        assert_eq!(again.outcome, CacheOutcome::Miss, "evicted by capacity 1");
        assert_eq!(cache.stats().2, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn counters_reach_the_metrics_registry() {
        let dev = Device::a100();
        dev.enable_metrics(sim::SimTime::from_secs(1.0));
        let cat = catalog(&dev);
        let mut cache = PlanCache::new(4);
        cache.execute(&dev, &cat, &plan()).unwrap();
        cache.execute(&dev, &cat, &plan()).unwrap();
        let snap = dev.metrics_snapshot().unwrap();
        assert_eq!(snap.registry.counter("plan_cache_misses_total", &[]), 1);
        assert_eq!(snap.registry.counter("plan_cache_hits_total", &[]), 1);
    }

    #[test]
    fn instants_reach_the_base_trace_from_an_untraced_query_handle() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        dev.enable_tracing();
        dev.sched_start(sim::SchedPolicy::Serial);
        let q = dev.sched_register(1.0, 1 << 30).unwrap();
        let mut cache = PlanCache::new(4);
        dev.sched_run(|_| {
            assert!(!q.tracing_enabled());
            cache.execute(&q, &cat, &plan()).unwrap();
            cache.execute(&q, &cat, &plan()).unwrap();
        });
        dev.sched_finish();
        let stages: Vec<_> = dev
            .take_trace()
            .unwrap()
            .lifecycles()
            .map(|l| (l.query, l.stage))
            .collect();
        assert_eq!(
            stages,
            [
                (Some(0), sim::LifecycleStage::PlanCacheMiss),
                (Some(0), sim::LifecycleStage::PlanCacheHit)
            ]
        );
    }
}
