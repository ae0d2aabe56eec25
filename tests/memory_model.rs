//! Validate the Section 4.4 analysis against *measured* simulator peaks:
//! the optimized (GFTR) implementations never consume more device memory
//! than their GFUR counterparts — the claim of Table 5.

use gpu_join::prelude::*;
use gpu_join::workloads::JoinWorkload;

fn measure(alg: Algorithm, w: &JoinWorkload) -> u64 {
    let dev = Device::a100();
    let (r, s) = w.generate(&dev);
    run_join(&dev, alg, &r, &s, &JoinConfig::default())
        .stats
        .peak_mem_bytes
}

#[test]
fn smj_om_peaks_at_or_below_smj_um() {
    let w = JoinWorkload {
        r_payloads: vec![DType::I32; 2],
        s_payloads: vec![DType::I32; 2],
        ..JoinWorkload::narrow(1 << 16)
    };
    let um = measure(Algorithm::SmjUm, &w);
    let om = measure(Algorithm::SmjOm, &w);
    assert!(om <= um, "SMJ-OM {om} should be <= SMJ-UM {um} (Table 5)");
}

#[test]
fn phj_om_peaks_below_phj_um() {
    let w = JoinWorkload {
        r_payloads: vec![DType::I32; 2],
        s_payloads: vec![DType::I32; 2],
        ..JoinWorkload::narrow(1 << 16)
    };
    let um = measure(Algorithm::PhjUm, &w);
    let om = measure(Algorithm::PhjOm, &w);
    // Bucket chaining over-allocates its pool (fragmentation), so the gap
    // is strict.
    assert!(om < um, "PHJ-OM {om} should be < PHJ-UM {um} (Table 5)");
}

#[test]
fn eight_byte_payloads_scale_memory_like_table5() {
    // Table 5: moving from 4B to 8B payloads grows every implementation's
    // footprint; the OM <= UM ordering is preserved.
    let mk = |dtype: DType| JoinWorkload {
        r_payloads: vec![dtype; 2],
        s_payloads: vec![dtype; 2],
        ..JoinWorkload::narrow(1 << 15)
    };
    for alg in [
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
    ] {
        let small = measure(alg, &mk(DType::I32));
        let big = measure(alg, &mk(DType::I64));
        assert!(
            big > small,
            "{alg}: 8B payloads must cost more ({big} vs {small})"
        );
    }
    let um = measure(Algorithm::PhjUm, &mk(DType::I64));
    let om = measure(Algorithm::PhjOm, &mk(DType::I64));
    assert!(om < um, "PHJ-OM {om} vs PHJ-UM {um} at 8B payloads");
}

#[test]
fn analytic_tables_print_and_serialize() {
    // The bench harness serializes the analytic tables; make sure the rows
    // carry the paper's structure (4 GFUR rows, 5 GFTR rows).
    let gfur = gpu_join::memory_model::gfur_table(16, 1 << 20);
    let gftr = gpu_join::memory_model::gftr_table(16, 1 << 20);
    assert_eq!(gfur.len(), 4);
    assert_eq!(gftr.len(), 5);
    let json = serde_json::to_string(&gfur).expect("rows serialize");
    assert!(json.contains("Initialize ID_R"));
}
