//! EXPLAIN ANALYZE invariants: the attributed report must be *accounting*,
//! not estimation.
//!
//! 1. **Counter conservation** — the per-operator counter deltas in the
//!    [`engine::NodeStats`] tree sum to exactly the whole-query delta
//!    measured around `execute`: every byte, sector, atomic and launch is
//!    attributed to exactly one plan node.
//! 2. **Provenance replay** — feeding a recorded decision profile back
//!    through the decision trees reproduces the recorded [`Decision`] whole
//!    (choice, materialization, guard, rationale, rejection list): the
//!    explain cannot claim a branch the tree would not take.
//! 3. **Determinism** — rendered text and JSON are byte-identical across
//!    re-runs and scheduler policies, and between a solo
//!    run and a multi-tenant session of the same plan: attribution is a
//!    pure function of the recorded counters.

use engine::demo::{q18_like, q1_like, q3_like, tpch_mini};
use engine::scheduler::{Policy, QuerySpec};
use engine::{execute, NodeStats, Plan};
use heuristics::{choose_group_by, choose_join, Decision, Provenance};
use sim::{Counters, Device, DeviceConfig};

fn device() -> Device {
    Device::new(DeviceConfig::a100())
}

fn sum_tree(stats: &NodeStats, acc: &mut Counters) {
    *acc += &stats.op.counters;
    for child in &stats.children {
        sum_tree(child, acc);
    }
}

#[test]
fn per_node_counters_sum_to_the_query_delta() {
    let dev = device();
    let catalog = tpch_mini(&dev, 4096, 7);
    for plan in [q18_like(), q3_like(), q1_like()] {
        let before = dev.counters();
        let out = execute(&dev, &catalog, &plan).unwrap();
        let whole = dev.counters().delta_since(&before);
        let mut attributed = Counters::default();
        sum_tree(&out.stats, &mut attributed);
        // Cycles are f64: the telescoping per-node subtractions can differ
        // from the end-to-end subtraction by fp rounding only.
        let denom = whole.cycles.max(1.0);
        assert!(
            (attributed.cycles - whole.cycles).abs() / denom < 1e-9,
            "cycles attributed {} vs measured {}",
            attributed.cycles,
            whole.cycles
        );
        // Integer counters conserve exactly: every launch, byte, sector and
        // atomic lands in exactly one plan node.
        attributed.cycles = whole.cycles;
        assert_eq!(attributed, whole.0);
        assert!(whole.kernel_launches > 0, "the plan must do device work");
    }
}

fn check_replay(stats: &NodeStats, seen: &mut usize, rejected_seen: &mut usize) {
    if let Some(p) = &stats.provenance {
        *seen += 1;
        match p {
            Provenance::Join(j) if !j.decision.pinned => {
                let profile = j
                    .profile
                    .as_ref()
                    .expect("unpinned join decisions carry their profile");
                let e = choose_join(profile);
                let alg = e.algorithm;
                let replayed = Decision::walked(e, alg.name(), alg.materialization());
                assert_eq!(
                    replayed, j.decision,
                    "replaying the recorded profile must reproduce the recorded decision"
                );
                *rejected_seen += j.decision.rejected.len();
            }
            Provenance::GroupBy(g) if !g.decision.pinned => {
                let profile = g
                    .profile
                    .as_ref()
                    .expect("unpinned group-by decisions carry their profile");
                let e = choose_group_by(profile);
                let alg = e.algorithm;
                let replayed = Decision::walked(e, alg.name(), alg.materialization());
                assert_eq!(replayed, g.decision);
                *rejected_seen += g.decision.rejected.len();
            }
            Provenance::Join(j) => {
                assert_eq!(j.decision.guard, "pinned by plan");
                assert!(j.decision.rejected.is_empty());
            }
            Provenance::GroupBy(g) => assert!(g.decision.rejected.is_empty()),
            Provenance::Fusion(f) => {
                assert!(
                    f.selected_rows <= f.input_rows,
                    "a selection cannot grow its input"
                );
                if f.predicates == 0 {
                    assert_eq!(
                        f.selected_rows, f.input_rows,
                        "with no filter there is nothing to select away"
                    );
                    assert!(
                        f.materialized_here,
                        "projection-only runs have no ticket to defer"
                    );
                }
                assert!(
                    !f.steps.is_empty(),
                    "a fused node collapses at least one step"
                );
            }
        }
    }
    for child in &stats.children {
        check_replay(child, seen, rejected_seen);
    }
}

#[test]
fn provenance_replays_through_the_decision_trees() {
    let dev = device();
    let catalog = tpch_mini(&dev, 4096, 7);
    let (mut seen, mut rejected) = (0usize, 0usize);
    for plan in [q18_like(), q3_like(), q1_like()] {
        let out = execute(&dev, &catalog, &plan).unwrap();
        check_replay(&out.stats, &mut seen, &mut rejected);
    }
    assert!(seen >= 3, "the demo mix makes at least three decisions");
    assert!(
        rejected > 0,
        "at least one decision rejects earlier branches on its way down the tree"
    );
}

/// Render + JSON of every tenant's explain in one session.
fn session_explains(policy: Policy) -> (String, String) {
    let dev = device();
    let catalog = tpch_mini(&dev, 2048, 7);
    let specs: Vec<QuerySpec> = vec![
        QuerySpec::new(q18_like()),
        QuerySpec::new(q3_like()),
        QuerySpec::new(q1_like()),
    ];
    let reports = engine::run_queries(&dev, &catalog, specs, policy);
    let mut text = String::new();
    let mut json = String::new();
    for r in &reports {
        let ex = r
            .explain(dev.config())
            .expect("successful query has an explain");
        text.push_str(&ex.render());
        text.push('\n');
        json.push_str(&serde_json::to_string(&ex.to_json()).unwrap());
        json.push('\n');
    }
    (text, json)
}

#[test]
fn explain_is_byte_identical_across_reruns_and_policies() {
    let baseline = session_explains(Policy::Serial);
    for policy in [Policy::Serial, Policy::RoundRobin, Policy::WeightedFair] {
        let got = session_explains(policy);
        assert_eq!(
            got.0, baseline.0,
            "rendered explain must not depend on the run or policy ({policy:?})"
        );
        assert_eq!(got.1, baseline.1, "JSON explain drifted ({policy:?})");
    }
}

#[test]
fn scheduler_explain_matches_a_solo_run() {
    // The explain a tenant gets in a shared session is byte-identical to
    // the explain of the same plan run alone under the same budget:
    // attribution never leaks co-tenant state. (The budget is pinned
    // because a tenant's planner sees its reservation as device capacity —
    // an equal share would differ between a 1- and a 2-tenant session.)
    let budget = 1u64 << 28;
    let shared = {
        let dev = device();
        let catalog = tpch_mini(&dev, 2048, 7);
        let specs = vec![
            QuerySpec::new(q18_like()).with_budget(budget),
            QuerySpec::new(q3_like()).with_budget(budget),
        ];
        let reports = engine::run_queries(&dev, &catalog, specs, Policy::RoundRobin);
        reports
            .iter()
            .map(|r| r.explain(dev.config()).unwrap().render())
            .collect::<Vec<_>>()
    };
    let solo: Vec<String> = [q18_like(), q3_like()]
        .into_iter()
        .map(|plan| {
            let dev = device();
            let catalog = tpch_mini(&dev, 2048, 7);
            let specs = vec![QuerySpec::new(plan).with_budget(budget)];
            let reports = engine::run_queries(&dev, &catalog, specs, Policy::Serial);
            reports[0].explain(dev.config()).unwrap().render()
        })
        .collect();
    assert_eq!(shared, solo);
}

#[test]
fn chunked_joins_record_their_chunk_count() {
    // Starve the device so the join must go out-of-core; the provenance
    // reports the chunk count the planner settled on.
    let mut cfg = DeviceConfig::a100();
    cfg.global_mem_bytes = 24 << 20;
    let dev = Device::new(cfg);
    let catalog = tpch_mini(&dev, 60_000, 7);
    let plan = Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid");
    let out = execute(&dev, &catalog, &plan).unwrap();
    fn find_join(stats: &NodeStats) -> Option<&heuristics::JoinProvenance> {
        if let Some(Provenance::Join(j)) = &stats.provenance {
            return Some(j);
        }
        stats.children.iter().find_map(find_join)
    }
    let j = find_join(&out.stats).expect("join node carries provenance");
    assert!(
        j.chunks > 1,
        "a starved device must re-plan out-of-core (got {} chunks): {}",
        j.chunks,
        out.stats.render()
    );
    assert!(j.free_mem_bytes < 24 << 20);
}
