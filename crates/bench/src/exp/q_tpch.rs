//! Q — TPC-H Q3 and Q18 arriving as SQL text.
//!
//! The end-to-end frontend demonstration: each query goes SQL → parse →
//! bind → lower → adaptive execution, with the lowering's composite-key
//! decisions (packed GROUP BY vs functional-dependency reduction, packed
//! multi-key ORDER BY) printed alongside the timings. Every query runs
//! both fused and unfused and the experiment asserts the outputs are
//! byte-identical — the frontend must not perturb the engine.
//!
//! `--sql '<query>'` replaces the built-in pair with an ad-hoc query over
//! the same catalog.

use crate::{Report, Session};
use engine::demo::{q18_sql, q3_sql, tpch_full};
use engine::{execute, execute_unfused};

/// Run Q3/Q18 (or `--sql`) through the SQL frontend.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("q_tpch", "TPC-H Q3/Q18 through the SQL frontend", session);
    let dev = session.device();
    let lineitems = session.tuples() / 2;
    let catalog = tpch_full(&dev, lineitems, 42);
    println!(
        "Q — SQL frontend, ~{} lineitems / {} orders ({})\n",
        lineitems,
        lineitems / 4,
        report.device
    );

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
                println!("{name}: SQL error: {e}");
                report.push(serde_json::json!({"query": name, "error": e.to_string()}));
                continue;
            }
        };
        for note in &lowered.notes {
            println!("{name}: {note}");
        }
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
        println!(
            "{name}: {} rows, fused {:.3}ms, unfused {:.3}ms ({:.2}x)\n",
            fused.table.num_rows(),
            t_fused * 1e3,
            t_unfused * 1e3,
            t_unfused / t_fused
        );
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
            report.finding(format!(
                "Q3 from SQL lowers to a packed composite GROUP BY and a packed \
                 two-key ORDER BY, and fusion wins {:.2}x over unfused execution",
                t_unfused / t_fused
            ));
        }
        if name == "Q18" {
            let strategy = lowered
                .notes
                .iter()
                .find(|n| n.starts_with("GROUP BY"))
                .map(|n| {
                    if n.contains("FD-REDUCE") {
                        "functional-dependency reduction"
                    } else {
                        "composite-key packing"
                    }
                })
                .unwrap_or("single-key grouping");
            report.finding(format!(
                "Q18's five-column GROUP BY lowers via {strategy} at this scale"
            ));
        }
    }
    report
}
