//! Ablations of the design choices DESIGN.md calls out:
//!
//! * radix fan-out for PHJ-OM (the paper's 15-16 bits at 2^27 tuples is the
//!   shared-memory sweet spot — too few bits overflow the shared-memory
//!   tables into block-nested loops, too many waste passes);
//! * domain-restricted sorting for SMJ-OM (when the optimizer knows keys lie
//!   in `0..|R|`, SORT-PAIRS can skip the constant high digits — the
//!   digit-skipping CUB performs);
//! * the GFTR/GFUR flexibility of the paper's PHJ implementation
//!   (Section 4.3: the same partitioned join can skip payload partitioning,
//!   which wins at low match ratios).

use crate::exp::run_algorithms;
use crate::{Report, Session};
use joins::{Algorithm, JoinConfig};
use primitives::{merge_join, sort_pairs_bits};
use workloads::JoinWorkload;

/// Ablation A1: PHJ-OM total time as a function of the radix fan-out.
pub fn radix_bits(session: &mut Session) -> Report {
    let mut report = Report::new("ablation_radix_bits", "PHJ-OM vs radix fan-out", session);
    let dev = session.device();
    let w = JoinWorkload {
        s_tuples: session.tuples() * 2,
        ..JoinWorkload::wide(session.tuples())
    };
    println!(
        "Ablation — PHJ-OM radix bits, |R| = {} ({})\n",
        w.r_tuples, report.device
    );
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "bits", "transform", "match", "total"
    );
    let mut best = (0u32, f64::INFINITY);
    let auto_time;
    for bits in [4u32, 8, 12, 14, 16, 18] {
        let cfg = JoinConfig {
            radix_bits: Some(bits),
            ..JoinConfig::default()
        };
        let (_, stats) = run_algorithms(&dev, &w, &[Algorithm::PhjOm], &cfg)
            .pop()
            .expect("one result");
        println!(
            "{bits:<8} {:>12} {:>12} {:>12}",
            stats.phases.transform.to_string(),
            stats.phases.match_find.to_string(),
            stats.phases.total().to_string()
        );
        report.push(serde_json::json!({
            "bits": bits,
            "transform_s": stats.phases.transform.secs(),
            "match_s": stats.phases.match_find.secs(),
            "total_s": stats.phases.total().secs(),
        }));
        if stats.phases.total().secs() < best.1 {
            best = (bits, stats.phases.total().secs());
        }
    }
    {
        let (_, stats) = run_algorithms(&dev, &w, &[Algorithm::PhjOm], &JoinConfig::default())
            .pop()
            .expect("one result");
        auto_time = stats.phases.total().secs();
        println!(
            "{:<8} {:>12} {:>12} {:>12}",
            "auto",
            stats.phases.transform.to_string(),
            stats.phases.match_find.to_string(),
            stats.phases.total().to_string()
        );
    }
    println!();
    report.finding(format!(
        "best fan-out is {} bits; the shared-memory auto-choice lands within {:.2}x of it",
        best.0,
        auto_time / best.1
    ));
    report
}

/// Ablation A2: domain-restricted sorting. With keys known to lie in
/// `0..|R|`, sorting `ceil(log2 |R|)` bits gives the same merge join with
/// fewer RADIX-PARTITION passes.
pub fn sort_bits(session: &mut Session) -> Report {
    let mut report = Report::new(
        "ablation_sort_bits",
        "Domain-restricted SORT-PAIRS for SMJ",
        session,
    );
    let dev = session.device();
    let n = session.tuples();
    let w = JoinWorkload::narrow(n);
    let (r, s) = w.generate(&dev);
    let domain_bits = usize::BITS - (n - 1).leading_zeros();
    println!(
        "Ablation — sort width for |R| = {n} (domain needs {domain_bits} bits) ({})\n",
        report.device
    );

    let mut rows = Vec::new();
    for (label, bits) in [("full 32-bit", 32u32), ("domain-restricted", domain_bits)] {
        let ids_r = dev.upload((0..r.len() as u32).collect::<Vec<u32>>(), "ab.ids");
        let ids_s = dev.upload((0..s.len() as u32).collect::<Vec<u32>>(), "ab.ids");
        dev.reset_stats();
        let (rk, _) = sort_pairs_bits(&dev, r.key().as_i32(), &ids_r, bits);
        let (sk, _) = sort_pairs_bits(&dev, s.key().as_i32(), &ids_s, bits);
        let m = merge_join(&dev, &rk, &sk, true);
        let t = dev.elapsed();
        println!("{label:<20} {:>12}   ({} matches)", t.to_string(), m.len());
        rows.push((label, t.secs(), m.len()));
        report.push(serde_json::json!({"sort": label, "bits": bits, "total_s": t.secs()}));
    }
    println!();
    assert_eq!(rows[0].2, rows[1].2, "restriction must not change results");
    report.finding(format!(
        "domain-restricted sorting is {:.2}x faster and produces identical matches",
        rows[0].1 / rows[1].1
    ));
    report
}

/// Ablation A3: the same PHJ implementation flipping between GFTR and GFUR
/// across match ratios — the Section 4.3 flexibility argument.
pub fn phj_patterns(session: &mut Session) -> Report {
    let mut report = Report::new(
        "ablation_phj_patterns",
        "PHJ-OM pattern choice (GFTR vs GFUR) vs match ratio",
        session,
    );
    let dev = session.device();
    let n = session.tuples();
    println!(
        "Ablation — one PHJ implementation, two patterns, |R| = |S| = {n} ({})\n",
        report.device
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "match %", "GFTR", "GFUR", "winner"
    );
    let mut crossover = None;
    for pct in [5.0f64, 15.0, 30.0, 60.0, 100.0] {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            match_ratio: pct / 100.0,
            ..JoinWorkload::wide(n)
        };
        let results = run_algorithms(
            &dev,
            &w,
            &[Algorithm::PhjOm, Algorithm::PhjOmGfur],
            &JoinConfig::default(),
        );
        let gftr = results[0].1.phases.total();
        let gfur = results[1].1.phases.total();
        let winner = if gftr < gfur { "GFTR" } else { "GFUR" };
        if winner == "GFTR" && crossover.is_none() {
            crossover = Some(pct);
        }
        println!(
            "{pct:<10} {:>12} {:>12} {:>10}",
            gftr.to_string(),
            gfur.to_string(),
            winner
        );
        report.push(serde_json::json!({
            "match_pct": pct, "gftr_s": gftr.secs(), "gfur_s": gfur.secs(),
        }));
    }
    println!();
    report.finding(match crossover {
        Some(pct) => format!(
            "the GFTR pattern starts paying off at ~{pct}% match ratio; below that the \
             implementation should skip payload partitioning (Section 4.3)"
        ),
        None => "GFUR won at every match ratio — check the cache regime".to_string(),
    });
    report
}
