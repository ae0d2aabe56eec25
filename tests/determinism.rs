//! Cross-cutting exactness of the warp-traffic core: full `gather` and
//! PHJ-OM runs must reproduce, bit for bit, the `Counters` (including the
//! f64 cycle total) and `SimTime` of the sort-per-warp reference core the
//! streaming core replaced.
//!
//! That reference now lives only as `#[cfg(test)]` code inside `sim::l2`
//! (where `sim`'s own property suite compares the two warp by warp), so this
//! suite pins what it produced end to end: every `REFERENCE` row was
//! recorded by running this file against commit 1fc75e8 — the last one whose
//! `warp_loads` sorted each warp — on a `host_threads = 1` device. Inputs
//! come from the generator below, not from a crate, so the rows mean the
//! same on every toolchain. A change that *intends* to move the cost model
//! re-records them: a failing case prints its observed row.

use columnar::{Column, Relation};
use joins::{Algorithm, JoinConfig};
use primitives::gather;
use sim::{Device, DeviceConfig};

/// Everything the simulation lets a caller observe, as exact bits:
/// the ten `Counters` fields in declaration order, then `elapsed`.
type Row = [u64; 11];

fn observe(dev: &Device) -> Row {
    let c = dev.counters();
    [
        c.kernel_launches,
        c.cycles.to_bits(),
        c.warp_instructions,
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.load_requests,
        c.sectors_requested,
        c.l2_hits,
        c.l2_misses,
        c.atomics,
        dev.elapsed().secs().to_bits(),
    ]
}

/// An A100 whose L2 (and the other capacities) are `shrink` times smaller:
/// at 1024 the L2 has 1024 sets, so scattered warps hit, miss *and* map
/// several sectors to one set — every path of the core runs.
fn device(shrink: f64) -> Device {
    Device::new(DeviceConfig::a100().scaled(shrink))
}

/// splitmix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unclustered gather of `n` elements through a seeded permutation.
fn gather_run(shrink: f64, n: usize, seed: u64) -> Row {
    let dev = device(shrink);
    let src = dev.upload((0..n as i32).collect::<Vec<_>>(), "d.src");
    let mut map: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        map.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
    }
    let map = dev.upload(map, "d.map");
    let out = gather(&dev, &src, &map);
    assert!(out.iter().zip(map.iter()).all(|(&o, &m)| o == m as i32));
    observe(&dev)
}

/// PHJ-OM join of `r_len` x `s_len` keys drawn from `0..domain`.
fn join_run(shrink: f64, r_len: usize, s_len: usize, domain: u64, seed: u64) -> Row {
    let dev = device(shrink);
    let mut state = seed;
    let mut rel = |len: usize, name: &'static str| {
        let keys: Vec<i32> = (0..len)
            .map(|_| (next(&mut state) % domain) as i32)
            .collect();
        let payload: Vec<i64> = keys.iter().map(|&k| k as i64 * 10 + 1).collect();
        Relation::new(
            name,
            Column::from_i32(&dev, keys, "k"),
            vec![Column::from_i64(&dev, payload, "p")],
        )
    };
    let (r, s) = (rel(r_len, "R"), rel(s_len, "S"));
    let config = JoinConfig {
        unique_build: false,
        ..JoinConfig::default()
    };
    let out = joins::run_join(&dev, Algorithm::PhjOm, &r, &s, &config);
    assert_eq!(
        out.rows_sorted(),
        joins::oracle::hash_join_oracle(&r, &s),
        "join output"
    );
    observe(&dev)
}

fn assert_reference(case: &str, observed: Row, reference: Row) {
    assert_eq!(
        observed, reference,
        "{case} left the reference core's counters/clock; observed row:\n{observed:?}"
    );
}

#[test]
fn gather_reproduces_the_reference_core() {
    // (shrink, n, seed, reference row)
    #[rustfmt::skip]
    const REFERENCE: [(f64, usize, u64, Row); 6] = [
        (1.0, 1, 1, [1, 4659442327501046264, 19, 64, 4, 2, 2, 0, 2, 0, 4524194094660033084]),
        (1.0, 33, 2, [1, 4659443051309868284, 37, 320, 132, 4, 11, 1, 10, 0, 4524194804416932429]),
        (1024.0, 1_000, 3, [1, 4627879298306897827, 592, 8000, 4000, 64, 1017, 767, 250, 0, 4492631799927178812]),
        (1024.0, 19_999, 4, [1, 4653536917055508483, 11563, 490208, 79996, 1250, 22410, 7091, 15319, 0, 4518315898772569553]),
        (1.0, 1 << 16, 7, [1, 4662045610369473225, 37888, 524288, 262144, 4096, 73634, 57250, 16384, 0, 4526834270010759014]),
        (1024.0, 1 << 16, 7, [1, 4662973226513086150, 37888, 2129344, 262144, 4096, 73634, 7092, 66542, 0, 4527743877545019094]),
    ];
    for (shrink, n, seed, reference) in REFERENCE {
        let case = format!("gather(shrink {shrink}, n {n}, seed {seed})");
        assert_reference(&case, gather_run(shrink, n, seed), reference);
    }
}

#[test]
fn phj_om_reproduces_the_reference_core() {
    // (shrink, |R|, |S|, key domain, seed, reference row)
    #[rustfmt::skip]
    const REFERENCE: [(f64, usize, usize, u64, u64, Row); 4] = [
        (1.0, 0, 10, 50, 11, [14, 4676553676831937668, 72, 232, 168, 0, 0, 0, 0, 0, 4541322975660673469]),
        (1.0, 300, 300, 50, 12, [14, 4676565377524116642, 3302, 33760, 58012, 228, 1816, 1212, 604, 0, 4541334449197260056]),
        (4096.0, 5_000, 9_000, 2_000, 13, [14, 4653176690633677778, 52434, 632192, 807708, 2848, 16349, 7157, 9192, 0, 4517962665735830289]),
        (1024.0, 1 << 14, 1 << 15, 1 << 14, 14, [14, 4658813478542777688, 139974, 1896232, 1513652, 4108, 33101, 12757, 20344, 0, 4523577454086999478]),
    ];
    for (shrink, r_len, s_len, domain, seed, reference) in REFERENCE {
        let case = format!("phj_om(shrink {shrink}, {r_len} x {s_len} of {domain}, seed {seed})");
        assert_reference(
            &case,
            join_run(shrink, r_len, s_len, domain, seed),
            reference,
        );
    }
}
