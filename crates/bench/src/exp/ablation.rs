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

use crate::exp::{run_algorithms, total_of};
use crate::{Claim, Report, Session};
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
    let mut best = (0u32, f64::INFINITY);
    for bits in [4u32, 8, 12, 14, 16, 18] {
        let cfg = JoinConfig {
            radix_bits: Some(bits),
            ..JoinConfig::default()
        };
        let (_, stats) = run_algorithms(&dev, &w, &[Algorithm::PhjOm], &cfg)
            .pop()
            .expect("one result");
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
    let auto_time = total_of(
        &run_algorithms(&dev, &w, &[Algorithm::PhjOm], &JoinConfig::default()),
        Algorithm::PhjOm,
    );
    let auto_gap = auto_time / best.1;
    report.claim(Claim::new("auto_bits_gap", auto_gap).says(format!(
        "best fan-out is {} bits; the shared-memory auto-choice lands within {auto_gap:.2}x \
         of it",
        best.0
    )));
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

    let mut rows = Vec::new();
    for (label, bits) in [("full 32-bit", 32u32), ("domain-restricted", domain_bits)] {
        let ids_r = dev.upload((0..r.len() as u32).collect::<Vec<u32>>(), "ab.ids");
        let ids_s = dev.upload((0..s.len() as u32).collect::<Vec<u32>>(), "ab.ids");
        dev.reset_stats();
        let (rk, _) = sort_pairs_bits(&dev, r.key().as_i32(), &ids_r, bits);
        let (sk, _) = sort_pairs_bits(&dev, s.key().as_i32(), &ids_s, bits);
        let m = merge_join(&dev, &rk, &sk, true);
        let t = dev.elapsed();
        rows.push((t.secs(), m.len()));
        report.push(serde_json::json!({"sort": label, "bits": bits, "total_s": t.secs()}));
    }
    assert_eq!(rows[0].1, rows[1].1, "restriction must not change results");
    let speedup = rows[0].0 / rows[1].0;
    report.claim(Claim::new("restricted_sort_speedup", speedup).says(format!(
        "domain-restricted sorting is {speedup:.2}x faster and produces identical matches"
    )));
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
        if gftr < gfur && crossover.is_none() {
            crossover = Some(pct);
        }
        report.push(serde_json::json!({
            "match_pct": pct, "gftr_s": gftr.secs(), "gfur_s": gfur.secs(),
        }));
    }
    let sentence = match crossover {
        Some(pct) => format!(
            "the GFTR pattern starts paying off at ~{pct}% match ratio; below that the \
             implementation should skip payload partitioning (Section 4.3)"
        ),
        None => "GFUR won at every match ratio — check the cache regime".to_string(),
    };
    report.claim(Claim::new("gftr_crossover_pct", crossover.unwrap_or(f64::NAN)).says(sentence));
    report
}
