//! Q — TPC-H Q3 and Q18 arriving as SQL text.
//!
//! The end-to-end frontend demonstration: each query goes SQL → parse →
//! bind → lower → adaptive execution, with the lowering's composite-key
//! decisions (packed GROUP BY vs functional-dependency reduction, packed
//! multi-key ORDER BY) recorded alongside the timings. Every query runs
//! both fused and unfused and the experiment asserts the outputs are
//! byte-identical — the frontend must not perturb the engine.
//!
//! `--sql '<query>'` replaces the built-in pair with an ad-hoc query over
//! the same catalog.

use crate::{Claim, Report, Session};
use engine::demo::{q18_sql, q3_sql, tpch_full};
use engine::{execute, execute_unfused};

/// Run Q3/Q18 (or `--sql`) through the SQL frontend.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("q_tpch", "TPC-H Q3/Q18 through the SQL frontend", session);
    let dev = session.device();
    let lineitems = session.tuples() / 2;
    let catalog = tpch_full(&dev, lineitems, 42);

    let queries: Vec<(String, String)> = match session.sql() {
        Some(sql) => vec![("adhoc".to_string(), sql.to_string())],
        None => vec![
            ("Q3".to_string(), q3_sql().to_string()),
            ("Q18".to_string(), q18_sql().to_string()),
        ],
    };

    for (name, text) in &queries {
        let lowered = match sql::plan_sql(text, &catalog) {
            Ok(l) => l,
            Err(e) => {
                report.push(serde_json::json!({"query": name, "error": e.to_string()}));
                continue;
            }
        };
        let fused = execute(&dev, &catalog, &lowered.plan).expect("lowered plan runs");
        let unfused =
            execute_unfused(&dev, &catalog, &lowered.plan).expect("lowered plan runs unfused");
        // Byte-identical means names, values AND row order — no sorting
        // before the comparison.
        assert_eq!(
            fused.table.column_names(),
            unfused.table.column_names(),
            "{name}: fused and unfused schemas must match"
        );
        for (col, c) in fused.table.columns() {
            assert_eq!(
                c.to_vec_i64(),
                unfused.table.column(col).unwrap().to_vec_i64(),
                "{name}: fused and unfused must agree byte-for-byte in {col}"
            );
        }
        let t_fused = fused.stats.total_time().secs();
        let t_unfused = unfused.stats.total_time().secs();
        if session.observing() {
            session.record_explain(
                &format!("q_tpch {name}"),
                &engine::QueryExplain::from_stats(dev.config(), &fused.stats),
            );
        }
        report.push(serde_json::json!({
            "query": name,
            "rows": fused.table.num_rows(),
            "fused_s": t_fused,
            "unfused_s": t_unfused,
            "notes": lowered.notes,
        }));
        if name == "Q3" {
            let fusion = t_unfused / t_fused;
            report.claim(Claim::new("q3_fusion_speedup", fusion).says(format!(
                "Q3 from SQL lowers to a packed composite GROUP BY and a packed \
                 two-key ORDER BY, and fusion wins {fusion:.2}x over unfused execution"
            )));
        }
        if name == "Q18" {
            let group_by = lowered.notes.iter().find(|n| n.starts_with("GROUP BY"));
            let fd_reduced = group_by.is_some_and(|n| n.contains("FD-REDUCE"));
            let strategy = match group_by {
                Some(_) if fd_reduced => "functional-dependency reduction",
                Some(_) => "composite-key packing",
                None => "single-key grouping",
            };
            report.claim(Claim::yes_no("q18_fd_reduced", fd_reduced).says(format!(
                "Q18's five-column GROUP BY lowers via {strategy} at this scale"
            )));
        }
    }
    report
}
