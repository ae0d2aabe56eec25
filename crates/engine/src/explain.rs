//! EXPLAIN ANALYZE: the executed plan, annotated the way the paper argues.
//!
//! [`execute`](crate::execute) already returns a [`NodeStats`] tree carrying
//! the shared per-operator report; this module attaches the *interpretation*
//! to every node, so a query report reads like the paper's evaluation
//! sections rather than a bare counter dump:
//!
//! * **Roofline attribution** ([`sim::analysis::roofline`]) — is the
//!   operator memory-bound, compute-bound, latency-bound or stuck on
//!   serialized atomics, and how close to the device's peaks did it run?
//! * **Access-pattern diagnosis** ([`sim::analysis::diagnose`]) — the named
//!   pathologies (random gather, partition scatter, contended global hash
//!   table) with the metric evidence (sectors/request vs the ideal 4, L2
//!   hit rate, write-back share).
//! * **Phase breakdown** — the paper's transformation / processing /
//!   materialization split, labeled with the GFUR/GFTR strategy that
//!   produced it.
//! * **Decision provenance** ([`heuristics::Provenance`]) — what the
//!   planner sampled (Chao1 group estimate, skew signal, input sizes, free
//!   memory), which decision-tree branch fired, and which branches were
//!   rejected on the way.
//!
//! Everything is a pure function of the recorded [`NodeStats`] and the
//! [`DeviceConfig`], so rendered reports are byte-identical across
//! re-runs and scheduler policies — the invariant
//! `tests/explain_invariants.rs` locks.

use crate::NodeStats;
use heuristics::Provenance;
use serde::Serialize;
use sim::analysis::{diagnose, human_bytes, roofline, Diagnosis, Roofline};
use sim::{Counters, DeviceConfig, PhaseTimes, SimTime};

/// One plan node with its full attribution.
#[derive(Debug, Clone, Serialize)]
pub struct ExplainNode {
    /// Node description (operator + parameters + chosen algorithm).
    pub label: String,
    /// Output rows.
    pub rows: usize,
    /// Simulated time in this node, children excluded, seconds.
    pub time_secs: f64,
    /// The paper's three-phase breakdown (all zero for operators without
    /// one).
    pub phases: PhaseTimes,
    /// Roofline decomposition and bottleneck classification of this node's
    /// counter delta.
    pub roofline: Roofline,
    /// Diagnosed access patterns with evidence.
    pub patterns: Vec<Diagnosis>,
    /// The raw hardware-counter delta the attribution is derived from.
    pub counters: Counters,
    /// How the planner picked this operator's algorithm, when it had a
    /// decision to make.
    pub provenance: Option<Provenance>,
    /// Children, inputs first.
    pub children: Vec<ExplainNode>,
}

/// A whole executed query, attributed: [`ExplainNode`] tree plus the device
/// it ran on.
#[derive(Debug, Clone, Serialize)]
pub struct QueryExplain {
    /// Device name the configuration peaks came from.
    pub device: String,
    /// Plan-cache provenance, when the execution went through a
    /// [`crate::plan_cache::PlanCache`] (attach with
    /// [`QueryExplain::with_cache`]); `None` for uncached executions.
    pub cache: Option<crate::plan_cache::PlanCacheInfo>,
    /// The attributed plan tree.
    pub root: ExplainNode,
}

impl ExplainNode {
    fn from_node(cfg: &DeviceConfig, stats: &NodeStats) -> ExplainNode {
        ExplainNode {
            label: stats.label.clone(),
            rows: stats.op.rows,
            time_secs: stats.time().secs(),
            phases: stats.op.phases,
            roofline: roofline(&stats.op.counters, cfg),
            patterns: diagnose(&stats.op.counters, cfg),
            counters: stats.op.counters,
            provenance: stats.provenance.clone(),
            children: stats
                .children
                .iter()
                .map(|c| ExplainNode::from_node(cfg, c))
                .collect(),
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{pad}{} [{} rows, {}]",
            self.label,
            self.rows,
            SimTime::from_secs(self.time_secs),
        );
        // Aliasing-only nodes (scans, projections of existing columns) have
        // nothing to attribute; keep their lines bare.
        let c = &self.counters;
        if c.cycles > 0.0 {
            let _ = writeln!(out, "{pad}  bottleneck: {}", self.roofline.summary());
            if c.dram_bytes() > 0 {
                let _ = write!(out, "{pad}  traffic: {} DRAM", human_bytes(c.dram_bytes()));
                if c.load_requests > 0 {
                    let _ = write!(out, ", {:.2} sect/req", c.sectors_per_request());
                }
                if c.l2_hits + c.l2_misses > 0 {
                    let _ = write!(out, ", L2 {:.0}%", c.l2_hit_rate() * 100.0);
                }
                if c.atomics > 0 {
                    let _ = write!(out, ", {} atomics", c.atomics);
                }
                let _ = writeln!(out);
            }
            for d in &self.patterns {
                let _ = writeln!(
                    out,
                    "{pad}  pattern: {}: {}",
                    d.pattern.as_str(),
                    d.evidence
                );
            }
            if self.phases.total().secs() > 0.0 {
                let strategy = self
                    .provenance
                    .as_ref()
                    .and_then(Provenance::decision)
                    .map(|d| format!(" ({} materialization)", d.materialization))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}  phases: transform {} | match {} | materialize {}{strategy}",
                    self.phases.transform, self.phases.match_find, self.phases.materialize,
                );
            }
        }
        if let Some(p) = &self.provenance {
            render_provenance(p, out, &pad);
        }
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

fn render_provenance(p: &Provenance, out: &mut String, pad: &str) {
    use std::fmt::Write;
    let mut stats = String::new();
    let d = match p {
        Provenance::Join(j) => {
            let _ = write!(
                stats,
                "build {} rows, probe {} rows, {} free",
                j.build_rows,
                j.probe_rows,
                human_bytes(j.free_mem_bytes)
            );
            if let Some(s) = &j.sampled {
                let _ = write!(
                    stats,
                    "; sampled {} rows: match ratio {:.2}, top key {:.1}%",
                    s.sample_size,
                    s.match_ratio,
                    100.0 * s.top_key_share
                );
            }
            if j.profile.is_some_and(|prof| prof.skewed) {
                stats.push_str(" (skewed)");
            }
            if j.chunks > 1 {
                let _ = write!(stats, "; out-of-core in {} chunks", j.chunks);
            }
            &j.decision
        }
        Provenance::GroupBy(g) => {
            let _ = write!(stats, "{} input rows", g.rows);
            if let Some(s) = &g.sampled {
                let _ = write!(
                    stats,
                    "; sampled {} rows: ~{} groups (Chao1), top key {:.1}%{}",
                    s.sample_size,
                    s.est_groups,
                    100.0 * s.top_key_share,
                    if s.skewed() { " (skewed)" } else { "" }
                );
            }
            &g.decision
        }
        Provenance::Fusion(f) => {
            let _ = writeln!(
                out,
                "{pad}  fused: {} steps ({}), {} predicate{} in one evaluation",
                f.steps.len(),
                f.steps.join("+"),
                f.predicates,
                if f.predicates == 1 { "" } else { "s" }
            );
            let _ = writeln!(
                out,
                "{pad}    selection: {} of {} rows ({:.1}%)",
                f.selected_rows,
                f.input_rows,
                if f.input_rows == 0 {
                    100.0
                } else {
                    100.0 * f.selected_rows as f64 / f.input_rows as f64
                }
            );
            let _ = writeln!(
                out,
                "{pad}    materialization: {} — {} column{} deferred as tickets, {} computed; boundary: {}",
                if f.materialized_here { "GFUR (here)" } else { "GFTR (deferred)" },
                f.deferred_cols,
                if f.deferred_cols == 1 { "" } else { "s" },
                f.computed_cols,
                f.boundary
            );
            return;
        }
    };
    let _ = writeln!(
        out,
        "{pad}  decision: {} via \"{}\" — {}",
        d.choice, d.guard, d.rationale
    );
    let _ = writeln!(out, "{pad}    stats: {stats}");
    for r in &d.rejected {
        let _ = writeln!(
            out,
            "{pad}    rejected: {} (guard \"{}\" did not hold)",
            r.algorithm, r.guard
        );
    }
}

impl QueryExplain {
    /// Attribute an executed plan tree against `cfg`'s roofline. A pure
    /// function of its inputs: equal `NodeStats` produce byte-equal
    /// explains regardless of host threading or scheduling policy.
    pub fn from_stats(cfg: &DeviceConfig, stats: &NodeStats) -> QueryExplain {
        QueryExplain {
            device: cfg.name.clone(),
            cache: None,
            root: ExplainNode::from_node(cfg, stats),
        }
    }

    /// Attach plan-cache provenance (hit/miss, fingerprint, catalog
    /// version) to the report. Rendering and serialization stay unchanged
    /// when no provenance is attached.
    pub fn with_cache(mut self, info: crate::plan_cache::PlanCacheInfo) -> Self {
        self.cache = Some(info);
        self
    }

    /// Render the annotated plan tree.
    pub fn render(&self) -> String {
        let mut out = format!("EXPLAIN ANALYZE ({})\n", self.device);
        if let Some(cache) = &self.cache {
            let outcome = match cache.outcome {
                crate::plan_cache::CacheOutcome::Hit => "hit",
                crate::plan_cache::CacheOutcome::Miss => "miss",
            };
            out.push_str(&format!(
                "plan cache: {outcome} (shape {:#018x}, catalog v{})\n",
                cache.fingerprint, cache.catalog_version
            ));
        }
        self.root.render_into(&mut out, 0);
        out
    }

    /// The same report as a JSON value (for `explain.json` files and CI
    /// artifacts).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, AggSpec, Catalog, Expr, Plan, Table};
    use columnar::Column;
    use groupby::AggFn;
    use sim::Device;

    fn q18_catalog(dev: &Device) -> Catalog {
        let n = 4096usize;
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "orders",
            vec![
                (
                    "o_id",
                    Column::from_i32(dev, (0..n as i32).collect(), "o_id"),
                ),
                (
                    "o_cust",
                    Column::from_i32(dev, (0..n as i32).map(|i| i % 97).collect(), "o_cust"),
                ),
            ],
        ));
        cat.insert(Table::new(
            "lineitem",
            vec![
                (
                    "l_oid",
                    Column::from_i32(
                        dev,
                        (0..4 * n as i32).map(|i| i % n as i32).collect(),
                        "l_oid",
                    ),
                ),
                (
                    "l_qty",
                    Column::from_i64(dev, (0..4 * n as i64).map(|i| i % 50).collect(), "l_qty"),
                ),
            ],
        ));
        cat
    }

    fn q18_plan() -> Plan {
        Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .aggregate("o_id", vec![AggSpec::new(AggFn::Sum, "l_qty", "total")])
    }

    #[test]
    fn explain_annotates_every_layer() {
        let dev = Device::a100();
        let cat = q18_catalog(&dev);
        let out = execute(&dev, &cat, &q18_plan()).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        let text = ex.render();
        assert!(text.starts_with("EXPLAIN ANALYZE (A100)"), "{text}");
        // Roofline attribution on nodes that did device work.
        assert!(text.contains("bottleneck:"), "{text}");
        // Access-pattern diagnosis with evidence.
        assert!(text.contains("pattern:"), "{text}");
        // Phase breakdown labeled with the materialization strategy.
        assert!(text.contains("phases: transform"), "{text}");
        assert!(
            text.contains("GFUR materialization") || text.contains("GFTR materialization"),
            "{text}"
        );
        // Decision provenance: branch taken, sampled stats, rejections.
        assert!(text.contains("decision:"), "{text}");
        assert!(text.contains("Chao1"), "{text}");
        assert!(text.contains("rejected:"), "{text}");
    }

    #[test]
    fn scan_nodes_stay_bare() {
        let dev = Device::a100();
        let cat = q18_catalog(&dev);
        let out = execute(&dev, &cat, &Plan::scan("orders")).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        let text = ex.render();
        // A scan is pure aliasing: exactly the header plus one node line.
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(!text.contains("bottleneck"), "{text}");
    }

    #[test]
    fn explain_json_mirrors_the_tree() {
        let dev = Device::a100();
        let cat = q18_catalog(&dev);
        let out = execute(&dev, &cat, &q18_plan()).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        let v = ex.to_json();
        assert_eq!(v.get("device").and_then(|d| d.as_str()), Some("A100"));
        let root = v.get("root").expect("root node");
        assert!(root.get("roofline").is_some());
        assert!(root.get("provenance").is_some());
        let children = root.get("children").and_then(|c| c.as_array()).unwrap();
        assert_eq!(children.len(), 1, "aggregate has the join as its child");
        // Serialization is deterministic: same stats, same bytes.
        let again = QueryExplain::from_stats(dev.config(), &out.stats);
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            serde_json::to_string(&again.to_json()).unwrap()
        );
    }

    #[test]
    fn pinned_plans_report_pinned_provenance() {
        let dev = Device::a100();
        let cat = q18_catalog(&dev);
        let plan = Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .with_join_algorithm(joins::Algorithm::SmjOm);
        let out = execute(&dev, &cat, &plan).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        let text = ex.render();
        assert!(
            text.contains("decision: SMJ-OM via \"pinned by plan\""),
            "{text}"
        );
        assert!(
            !text.contains("rejected:"),
            "pinned plans reject nothing: {text}"
        );
    }

    #[test]
    fn contended_aggregation_is_called_out() {
        // A group domain too large for shared-memory privatization with
        // half the rows in one hot group: the global hash table serializes
        // on its atomic updates.
        let dev = Device::a100();
        let n: i32 = 1 << 18;
        let groups = 1 << 16;
        let keys: Vec<i32> = (0..n)
            .map(|i| if i % 2 == 0 { 0 } else { i % groups })
            .collect();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "t",
            vec![
                ("k", Column::from_i32(&dev, keys, "k")),
                ("v", Column::from_i64(&dev, (0..n as i64).collect(), "v")),
            ],
        ));
        let plan = Plan::scan("t")
            .aggregate("k", vec![AggSpec::new(AggFn::Sum, "v", "s")])
            .with_group_algorithm(groupby::GroupByAlgorithm::HashGlobal);
        let out = execute(&dev, &cat, &plan).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        let text = ex.render();
        assert!(
            text.contains("contended-hash-table"),
            "hot-key aggregation must be diagnosed: {text}"
        );
    }

    #[test]
    fn fused_nodes_render_their_provenance() {
        let dev = Device::a100();
        let cat = q18_catalog(&dev);
        // A run below the join (deferred to the join boundary) and a run at
        // the root (materializes the query output): both strategies show up.
        let plan = Plan::scan("lineitem")
            .filter(Expr::col("l_qty").gt(Expr::lit(10)))
            .join(Plan::scan("orders"), "l_oid", "o_id")
            .filter(Expr::col("l_qty").lt(Expr::lit(40)))
            .project(vec![("q2", Expr::col("l_qty").mul(Expr::lit(2)))]);
        let out = execute(&dev, &cat, &plan).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        let text = ex.render();
        assert!(text.contains("Fused(Filter+Project)"), "{text}");
        assert!(text.contains("Fused(Filter)"), "{text}");
        assert!(text.contains("fused: 2 steps (Filter+Project)"), "{text}");
        assert!(text.contains("selection:"), "{text}");
        assert!(
            text.contains("materialization: GFUR (here)"),
            "the root run materializes the output: {text}"
        );
        assert!(
            text.contains("materialization: GFTR (deferred)"),
            "the below-join run rides tickets to the join: {text}"
        );
        assert!(text.contains("boundary:"), "{text}");
    }

    #[test]
    fn filter_predicate_work_is_attributed() {
        let dev = Device::a100();
        let cat = q18_catalog(&dev);
        let plan = Plan::scan("lineitem").filter(Expr::col("l_qty").gt(Expr::lit(10)));
        let out = execute(&dev, &cat, &plan).unwrap();
        let ex = QueryExplain::from_stats(dev.config(), &out.stats);
        // The filter ran kernels; its node carries a bottleneck line even
        // though it has no phase breakdown.
        let text = ex.render();
        assert!(text.contains("bottleneck:"), "{text}");
        assert!(!text.contains("phases:"), "{text}");
    }
}
