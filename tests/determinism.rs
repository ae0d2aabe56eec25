//! Cross-cutting exactness of the simulated clock, in two layers.
//!
//! **The warp-traffic core**: full `gather` and PHJ-OM runs must reproduce,
//! bit for bit, the `Counters` (including the f64 cycle total) and `SimTime`
//! of the sort-per-warp reference core the streaming core replaced.
//!
//! That reference now lives only as `#[cfg(test)]` code inside `sim::l2`
//! (where `sim`'s own property suite compares the two warp by warp), so this
//! suite pins what it produced end to end: every `REFERENCE` row was
//! recorded by running this file against commit 1fc75e8 — the last one whose
//! `warp_loads` sorted each warp — on a `host_threads = 1` device. Inputs
//! come from the generator below, not from a crate, so the rows mean the
//! same on every toolchain. A change that *intends* to move the cost model
//! re-records them: a failing case prints its observed row.
//!
//! **Gathers**: `gather` on i32 and i64 sources and `gather_or` on i32 with
//! every third map entry `NULL_ID`, each through an identity, a sorted
//! with repeats and a shuffled map, on a full-size and a 1024x shrunken L2,
//! in the same 11-word format. A row runs the gather back to back on one
//! device for lengths from 0 through many 1024-lane chunks, so L2 state
//! carries across kernels. These rows were recorded at commit d770981,
//! whose gathers charged the map read lane by lane through `warp_loads`.
//!
//! **The operator drivers**: every GPU join algorithm x {narrow, wide} x
//! {inner, outer, semi} and every group-by algorithm x {0, 1, 3} aggregate
//! columns must reproduce its recorded [`OpRow`] — the same eleven words
//! plus the operator's own report (`peak_mem_bytes`, `rows`, the three
//! `PhaseTimes`). The memory ledger hands out addresses by bumping a
//! pointer and the L2 maps by absolute address, so a driver that allocates,
//! launches or frees in a different order moves these rows; "bit-identical"
//! for a driver refactor means these rows pass unmodified. They were
//! recorded at commit a0f76cf (six hand-written join drivers).
//!
//! **The transforms**: SMJ-OM, PHJ-OM and PHJ-OM/GFUR on four mixed-width
//! payload columns per side over spread i64 keys (no constant radix digit),
//! and `sort_pairs` / `radix_partition` at 9 and 16 bits on i32 and i64 keys
//! with and without constant high digits, in the same 16-word format. These
//! rows were recorded at commit 1db8202, whose host ran every transform pass
//! by pass for every column; a host that computes one order per key column
//! and replays it must reproduce them unmodified.
//!
//! **Output order**: the driver rows above hash counters and stats, not the
//! order in which groups or matches come out, so a group finder that
//! numbered the same groups differently would pass them. The last two tables
//! digest the outputs themselves, in output order: every group-by algorithm
//! on i32 keys and on i64 keys that differ only above bit 32, PART-OM and
//! PART-UM at 1, 5, 12 and 16 radix bits, a skewed input whose partition 0
//! holds nine rows in ten, and `join_copartitions` with duplicates on both
//! sides and build partitions of several shared-memory chunks. They were
//! recorded at commit 96bbd0b, whose PART group finding used a SipHash map
//! per partition.
//!
//! **Group-by phases and ledger steps**: the driver rows pin totals, not
//! when each allocation, free and phase boundary happens. Three more
//! group-by tables do, for every algorithm: a digest of a traced run's
//! spans and `mem` samples at 0 and 3 aggregate columns; the sequence of
//! budget errors a query lane raises as its budget is raised to just past
//! each failing ledger step; and the 16-word driver row on 0 and 1 input
//! rows. They were recorded at commit c442524, whose group-by ran three
//! hand-written bodies (HASH, SORT, PART).
//!
//! **Serving sessions**: a traced, metered open-loop session that sends
//! the demo's q18, q3 and q1 plans over and over, under every policy, in
//! three digests: the base trace's JSONL, the metrics export and the
//! slow-query digest. The session's queries share plans, so these pin
//! what every later arrival of a plan contributes to the device-wide
//! observables, executed and replayed alike. They were recorded at commit
//! 5369149, which executed every arrival. A closed-loop session of the same
//! plans, nine tenants present at session start under round robin and
//! weighted fair share, is pinned the same way; it was recorded at commit
//! 33ae263, whose closed loop registered tenants with no arrival stamp and
//! labelled their class after registration.

use columnar::{Column, Relation};
use engine::scheduler::{OpenQuery, QuerySpec, ServingConfig};
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use joins::{Algorithm, JoinConfig, JoinKind};
use primitives::{gather, gather_or, NULL_ID};
use sim::{BudgetError, Device, DeviceConfig, Element, SchedPolicy, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Seeded Fisher-Yates shuffle.
fn shuffle(map: &mut [u32], state: &mut u64) {
    for i in (1..map.len()).rev() {
        map.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
}

/// Unclustered gather of `n` elements through a seeded permutation.
fn gather_run(shrink: f64, n: usize, seed: u64) -> Row {
    let dev = device(shrink);
    let src = dev.upload((0..n as i32).collect::<Vec<_>>(), "d.src");
    let mut map: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    shuffle(&mut map, &mut state);
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

/// How a gather-table map orders its `n` entries of `0..n`.
#[derive(Clone, Copy, Debug)]
enum MapShape {
    Identity,
    /// Seeded draws, sorted: clustered, with repeats and gaps.
    SortedRepeats,
    Shuffled,
}

fn map_of(shape: MapShape, n: usize, state: &mut u64) -> Vec<u32> {
    match shape {
        MapShape::Identity => (0..n as u32).collect(),
        MapShape::SortedRepeats => {
            let mut map: Vec<u32> = (0..n).map(|_| (next(state) % n as u64) as u32).collect();
            map.sort_unstable();
            map
        }
        MapShape::Shuffled => {
            let mut map: Vec<u32> = (0..n as u32).collect();
            shuffle(&mut map, state);
            map
        }
    }
}

/// Map lengths of one gather-table row: empty, a partial, whole and
/// overhanging warp, the same around a 1024-lane chunk, and many chunks
/// with a partial last warp.
const GATHER_LENGTHS: [usize; 9] = [0, 1, 31, 32, 33, 1023, 1024, 1025, 33 * 1024 + 7];

/// One gather-table row: on one device, a gather of `value(0..n)` through a
/// `shape` map for every length of [`GATHER_LENGTHS`], back to back, so each
/// kernel starts from the L2 state the one before left. With a `fallback`
/// the gather is `gather_or` and every third map entry is `NULL_ID`. Each
/// output is checked against the host.
fn gather_table_run<T: Element>(
    shrink: f64,
    shape: MapShape,
    fallback: Option<T>,
    value: fn(usize) -> T,
) -> Row {
    let dev = device(shrink);
    let mut state = 71;
    for n in GATHER_LENGTHS {
        let vals: Vec<T> = (0..n).map(value).collect();
        let mut map = map_of(shape, n, &mut state);
        if fallback.is_some() {
            for m in map.iter_mut().skip(2).step_by(3) {
                *m = NULL_ID;
            }
        }
        let src = dev.upload(vals.clone(), "d.src");
        let map = dev.upload(map, "d.map");
        let out = match fallback {
            None => gather(&dev, &src, &map),
            Some(f) => gather_or(&dev, &src, &map, f),
        };
        assert_eq!(out.len(), n);
        for (i, (&o, &m)) in out.iter().zip(map.iter()).enumerate() {
            let want = match fallback {
                Some(f) if m == NULL_ID => f,
                _ => vals[m as usize],
            };
            assert_eq!(o.to_radix(), want.to_radix(), "{shape:?} n {n}: out[{i}]");
        }
    }
    observe(&dev)
}

#[test]
fn gathers_by_source_kind_and_map_shape_reproduce_their_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[Row] = &[
        [9, 4673954720709727187, 21444, 295936, 147872, 2318, 9248, 0, 9248, 0, 4538687043057321482], // gather i32 Identity shrink 1
        [9, 4674020519854808914, 21444, 443808, 295744, 2318, 13869, 0, 13869, 0, 4538751564787054536], // gather i64 Identity shrink 1
        [9, 4673960447342744552, 21444, 295904, 147872, 1934, 9247, 0, 9247, 0, 4538692658514290836], // gather_or i32 Identity shrink 1
        [9, 4673959600505397890, 21444, 295872, 147872, 2318, 10255, 1009, 9246, 0, 4538691828117325326], // gather i32 SortedRepeats shrink 1
        [9, 4674027073647796928, 21444, 438976, 295744, 2318, 14597, 879, 13718, 0, 4538757991345627200], // gather i64 SortedRepeats shrink 1
        [9, 4673963975564099620, 21444, 295744, 147872, 1934, 9814, 572, 9242, 0, 4538696118239252724], // gather_or i32 SortedRepeats shrink 1
        [9, 4674095367538558938, 21444, 295936, 147872, 2318, 41068, 31820, 9248, 0, 4538824959388398760], // gather i32 Shuffled shrink 1
        [9, 4674210164184905435, 21444, 443808, 295744, 2318, 41323, 27454, 13869, 0, 4538937527388798004], // gather i64 Shuffled shrink 1
        [9, 4674072059789972711, 21444, 295904, 147872, 1934, 28946, 19699, 9247, 0, 4538802104133165602], // gather_or i32 Shuffled shrink 1
        [9, 4645534990870049953, 21444, 295936, 147872, 2318, 9248, 0, 9248, 0, 4510294456357124844], // gather i32 Identity shrink 1024
        [9, 4648730475800816185, 21444, 443808, 295744, 2318, 13869, 0, 13869, 0, 4513515336842638656], // gather i64 Identity shrink 1024
        [9, 4645901495383161314, 21444, 295904, 147872, 1934, 9247, 0, 9247, 0, 4510653845603163587], // gather_or i32 Identity shrink 1024
        [9, 4645847297792974972, 21444, 295872, 147872, 2318, 10255, 1009, 9246, 0, 4510600700197370814], // gather i32 SortedRepeats shrink 1024
        [9, 4648940197176432588, 21444, 438976, 295744, 2318, 14597, 879, 13718, 0, 4513720986716963903], // gather i64 SortedRepeats shrink 1024
        [9, 4646127301549885662, 21444, 295744, 147872, 1934, 9814, 572, 9242, 0, 4510875268000724363], // gather_or i32 SortedRepeats shrink 1024
        [9, 4658247387459370591, 21444, 1013856, 147872, 2318, 41068, 9385, 31683, 0, 4523022353016271008], // gather i32 Shuffled shrink 1024
        [9, 4658701835249847467, 21444, 1156928, 295744, 2318, 41323, 5169, 36154, 0, 4523467978221256771], // gather i64 Shuffled shrink 1024
        [9, 4656192216719753103, 21444, 729568, 147872, 1934, 28946, 6147, 22799, 0, 4520919648822571932], // gather_or i32 Shuffled shrink 1024
    ];
    let mut observed = Vec::new();
    for shrink in [1.0, 1024.0] {
        for shape in [
            MapShape::Identity,
            MapShape::SortedRepeats,
            MapShape::Shuffled,
        ] {
            let case = |kind: &str| format!("{kind} {shape:?} shrink {shrink}");
            let i32_row = gather_table_run(shrink, shape, None, |i| i as i32 * 3 - 50_000);
            observed.push((case("gather i32"), i32_row));
            let i64_row = gather_table_run(shrink, shape, None, |i| (i as i64 - 9) << 33);
            observed.push((case("gather i64"), i64_row));
            let or_row = gather_table_run(shrink, shape, Some(i32::MIN), |i| 7 - i as i32);
            observed.push((case("gather_or i32"), or_row));
        }
    }
    assert_reference_table("gathers", &observed, REFERENCE);
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

/// [`Row`] plus what the operator reports about itself: `peak_mem_bytes`,
/// `rows`, then the transform / match-finding / materialize phase times as
/// f64 bits.
type OpRow = [u64; 16];

fn observe_op(dev: &Device, stats: &sim::OpStats) -> OpRow {
    let mut row = [0; 16];
    row[..11].copy_from_slice(&observe(dev));
    row[11] = stats.peak_mem_bytes;
    row[12] = stats.rows as u64;
    row[13] = stats.phases.transform.secs().to_bits();
    row[14] = stats.phases.match_find.secs().to_bits();
    row[15] = stats.phases.materialize.secs().to_bits();
    row
}

/// Compare a whole table at once so that a re-recording run prints every
/// row, ready to paste.
fn assert_reference_table<const W: usize>(
    what: &str,
    observed: &[(String, [u64; W])],
    reference: &[[u64; W]],
) {
    let rows: Vec<[u64; W]> = observed.iter().map(|(_, row)| *row).collect();
    if rows.as_slice() != reference {
        let table: String = observed
            .iter()
            .map(|(case, row)| format!("        {row:?}, // {case}\n"))
            .collect();
        let moved: Vec<&str> = observed
            .iter()
            .zip(reference)
            .filter(|((_, o), r)| o != *r)
            .map(|((case, _), _)| case.as_str())
            .collect();
        panic!("{what}: {moved:?} left the recorded rows; observed table:\n{table}");
    }
}

/// `len` seeded values of `0..domain`, each as key and as the base of the
/// payload columns `10k + 1`, `10k + 2`, ...
fn keys_in(state: &mut u64, len: usize, domain: u64) -> Vec<i64> {
    (0..len).map(|_| (next(state) % domain) as i64).collect()
}

/// A relation over `keys`: narrow is an i32 key with one payload column,
/// wide an i64 key with two or more payload columns of mixed width.
fn op_relation(dev: &Device, name: &'static str, keys: &[i64], dtypes: &[bool]) -> Relation {
    let wide_key = dtypes.len() > 1;
    let key = if wide_key {
        Column::from_i64(dev, keys.to_vec(), "k")
    } else {
        Column::from_i32(dev, keys.iter().map(|&k| k as i32).collect(), "k")
    };
    let payloads = dtypes
        .iter()
        .enumerate()
        .map(|(j, &is_i64)| {
            let vals = keys
                .iter()
                .map(|&k| k.wrapping_mul(10).wrapping_add(j as i64 + 1));
            if is_i64 {
                Column::from_i64(dev, vals.collect(), "p")
            } else {
                Column::from_i32(dev, vals.map(|v| v as i32).collect(), "p")
            }
        })
        .collect();
    Relation::new(name, key, payloads)
}

const JOIN_ALGS: [Algorithm; 6] = [
    Algorithm::SmjUm,
    Algorithm::SmjOm,
    Algorithm::PhjUm,
    Algorithm::PhjOm,
    Algorithm::PhjOmGfur,
    Algorithm::Nphj,
];

/// One join on a fresh shrunken device: 3000 x 7000 keys of `0..4000`, so
/// both sides hold duplicates and part of S dangles.
fn join_op_run(alg: Algorithm, wide: bool, kind: JoinKind) -> OpRow {
    let dev = device(1024.0);
    let mut state = if wide { 22 } else { 21 };
    let (r_types, s_types): (&[bool], &[bool]) = if wide {
        (&[false, true], &[true, false])
    } else {
        (&[true], &[false])
    };
    let r = op_relation(&dev, "R", &keys_in(&mut state, 3_000, 4_000), r_types);
    let s = op_relation(&dev, "S", &keys_in(&mut state, 7_000, 4_000), s_types);
    let config = JoinConfig {
        unique_build: false,
        kind,
        ..JoinConfig::default()
    };
    let out = joins::run_join(&dev, alg, &r, &s, &config);
    assert_eq!(
        out.rows_sorted(),
        joins::oracle::join_oracle_kind(&r, &s, kind),
        "{alg} {} output",
        kind.name()
    );
    observe_op(&dev, &out.stats)
}

#[test]
fn every_join_driver_reproduces_its_recorded_row() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [29, 4652608711860378003, 70506, 748928, 503376, 664, 3186, 288, 2898, 0, 4517405713622555236, 353536, 5298, 4515137214410803799, 4504554509758601240, 4503892692054446508], // SMJ-UM narrow inner
        [32, 4653990134064239558, 81329, 938012, 671155, 1169, 6149, 1202, 4947, 0, 4518760317090033234, 461824, 8527, 4515137214410803799, 4510718813451814406, 4505949629647109416], // SMJ-UM narrow outer
        [31, 4652821487766829050, 72241, 789928, 500136, 708, 3853, 336, 3517, 0, 4517614358727483092, 378112, 3771, 4515137214410803799, 4508572568737358314, 4498002526218364352], // SMJ-UM narrow semi
        [59, 4659183032593032407, 123480, 2143968, 1272768, 2004, 18246, 9259, 8987, 0, 4523939833666896358, 669696, 5340, 4522051489750530786, 4510258190317578912, 4512047815754337664], // SMJ-UM wide inner
        [62, 4660338676479107565, 138155, 2449616, 1527563, 2820, 24507, 10926, 13581, 0, 4525073042045096166, 669696, 8580, 4522051489750530786, 4514573732074044004, 4513718931099950508], // SMJ-UM wide outer
        [60, 4659272256214779540, 121188, 2186256, 1249888, 1612, 14315, 4674, 9641, 0, 4524027325113799238, 669696, 3760, 4522051489750530786, 4512893554014773348, 4509825656242829912], // SMJ-UM wide semi
        [29, 4652608711860378003, 70506, 748928, 503376, 664, 3186, 288, 2898, 0, 4517405713622555236, 353536, 5298, 4515137214410803799, 4504554509758601240, 4503892692054446508], // SMJ-OM narrow inner
        [32, 4653990134064239558, 81329, 938012, 671155, 1169, 6149, 1202, 4947, 0, 4518760317090033234, 461824, 8527, 4515137214410803799, 4510718813451814406, 4505949629647109416], // SMJ-OM narrow outer
        [31, 4652821487766829050, 72241, 789928, 500136, 708, 3853, 336, 3517, 0, 4517614358727483092, 378112, 3771, 4515137214410803799, 4508572568737358314, 4498002526218364352], // SMJ-OM narrow semi
        [103, 4662852637412173899, 190940, 3973536, 2486496, 1336, 6628, 979, 5649, 0, 4527625629543952388, 685312, 5340, 4522749753419241524, 4508309675707134536, 4522905550371842443], // SMJ-OM wide inner
        [106, 4663395995771877957, 205615, 4265680, 2741291, 2152, 12319, 2498, 9821, 0, 4528158439220878674, 780032, 8580, 4522749753419241524, 4513428287155329776, 4523228660728409012], // SMJ-OM wide outer
        [80, 4661942552215595656, 165576, 3424688, 2071392, 944, 6479, 393, 6086, 0, 4526733212613386796, 685312, 3760, 4522749753419241524, 4511231766793865328, 4519896884369761836], // SMJ-OM wide semi
        [14, 4647488395565536294, 24860, 307424, 220192, 664, 4531, 1581, 2950, 0, 4512209937928578424, 332800, 5298, 4507632786726303914, 4500819960775368516, 4504666123546305188], // PHJ-UM narrow inner
        [17, 4650392570166657767, 35683, 497372, 387971, 1169, 7619, 2593, 5026, 0, 4515145163542217527, 461824, 8527, 4507632786726303914, 4509614374944370749, 4506697519789601720], // PHJ-UM narrow outer
        [16, 4647848189241921330, 26595, 348136, 216952, 708, 3890, 330, 3560, 0, 4512650178870914050, 378112, 3771, 4507632786726303914, 4506691536176560880, 4498310988790690232], // PHJ-UM narrow semi
        [12, 4656171686939256560, 34770, 574752, 493600, 1336, 18102, 11391, 6711, 20000, 4520899517604346655, 782592, 5340, 4517868868085462268, 4505054391120120240, 4512674935191386586], // PHJ-UM wide inner
        [15, 4657591862585067447, 49445, 872848, 748395, 2152, 24363, 13294, 11069, 20000, 4522379554409685045, 782592, 8580, 4517868868085462268, 4512734041444751232, 4514024842258841436], // PHJ-UM wide outer
        [13, 4656164586143474236, 32478, 608144, 470720, 944, 11439, 4352, 7087, 20000, 4520892554662415001, 782592, 3760, 4517868868085462268, 4509506111247345048, 4509787889801457884], // PHJ-UM wide semi
        [14, 4647488395565536294, 24860, 307424, 220192, 664, 4531, 1581, 2950, 0, 4512209937928578424, 332800, 5298, 4507632786726303914, 4500819960775368516, 4504666123546305188], // PHJ-OM narrow inner
        [17, 4650392570166657767, 35683, 497372, 387971, 1169, 7619, 2593, 5026, 0, 4515145163542217527, 461824, 8527, 4507632786726303914, 4509614374944370749, 4506697519789601720], // PHJ-OM narrow outer
        [16, 4647848189241921330, 26595, 348136, 216952, 708, 3890, 330, 3560, 0, 4512650178870914050, 378112, 3771, 4507632786726303914, 4506691536176560880, 4498310988790690232], // PHJ-OM narrow semi
        [26, 4653194823700852222, 43662, 872224, 495680, 1336, 9057, 3114, 5943, 0, 4517980446770188829, 602880, 5340, 4510548849127557273, 4503937373509506882, 4514165519967644189], // PHJ-OM wide inner
        [29, 4655529071461146117, 58337, 1180240, 750475, 2152, 15303, 4692, 10611, 0, 4520269377772751277, 780032, 8580, 4510548849127557273, 4512297438372553097, 4515604812913335881], // PHJ-OM wide outer
        [22, 4652666025302011108, 37578, 812240, 424280, 944, 6757, 340, 6417, 0, 4517461914389092996, 663296, 3760, 4510548849127557273, 4508940991109693795, 4510729392929660948], // PHJ-OM wide semi
        [18, 4649586984750436284, 33506, 377792, 290576, 1328, 12699, 7175, 5524, 0, 4514355217647969623, 363264, 5298, 4508202090848650135, 4506507488726521528, 4507487602403833718], // PHJ-OM/GFUR narrow inner
        [21, 4652297377405405736, 44329, 567868, 458355, 1833, 15786, 8182, 7604, 0, 4517090420489204412, 369408, 8527, 4508202090848650135, 4511760489536729793, 4508810688708783904], // PHJ-OM/GFUR narrow outer
        [20, 4649671831619058700, 35241, 418472, 287336, 1372, 10237, 4104, 6133, 0, 4514438417311417406, 363264, 3771, 4508202090848650135, 4509545902999546039, 4503078994195345592], // PHJ-OM/GFUR narrow semi
        [20, 4652958299923302086, 39762, 658336, 417360, 2004, 21831, 12540, 9291, 0, 4517748514831991520, 617984, 5340, 4510436126069876859, 4508185610163686191, 4512675362665090027], // PHJ-OM/GFUR wide inner
        [23, 4655249014556843922, 54437, 956464, 672155, 2820, 28092, 14442, 13650, 0, 4519994757853802206, 631808, 8580, 4510436126069876859, 4513537441997097642, 4514026625106075348], // PHJ-OM/GFUR wide outer
        [21, 4652948010636221097, 37470, 691760, 394480, 1612, 15133, 5465, 9668, 0, 4517738425299682843, 617984, 3760, 4510436126069876859, 4511106301019693297, 4509782849719701248], // PHJ-OM/GFUR wide semi
        [4, 4649351311824335747, 9898, 334880, 194608, 1289, 20152, 10937, 9215, 0, 4514124120042911534, 338688, 5298, 0, 4512015316750968286, 4506348221162361084], // NPHJ narrow inner
        [7, 4652140965833288224, 20721, 524956, 362387, 1794, 23239, 11944, 11295, 0, 4516859616101269109, 369408, 8527, 0, 4514538637525370530, 4508241584522293158], // NPHJ narrow outer
        [6, 4649168803565653317, 11633, 375592, 191368, 1333, 16532, 6707, 9825, 0, 4513945154973895336, 338688, 3771, 0, 4513431866286022831, 4498301447494344592], // NPHJ narrow semi
        [6, 4651600395703785144, 16116, 466464, 282240, 1959, 28440, 16363, 12077, 0, 4516329540524234815, 552960, 5340, 0, 4512746404490644032, 4510765899437677566], // NPHJ wide inner
        [9, 4654253726664678603, 30791, 777264, 537035, 2775, 34701, 17869, 16832, 0, 4519018792340798826, 631808, 8580, 0, 4515887628093280083, 4513142757333576577], // NPHJ wide outer
        [7, 4650907743254929678, 13824, 505936, 259360, 1567, 19366, 6723, 12643, 0, 4515650335132607294, 552960, 3760, 0, 4514206097276534197, 4504872979167417892], // NPHJ wide semi
    ];
    let mut observed = Vec::new();
    for alg in JOIN_ALGS {
        for wide in [false, true] {
            for kind in [JoinKind::Inner, JoinKind::Outer, JoinKind::Semi] {
                let shape = if wide { "wide" } else { "narrow" };
                let case = format!("{alg} {shape} {}", kind.name());
                observed.push((case, join_op_run(alg, wide, kind)));
            }
        }
    }
    assert_reference_table("join drivers", &observed, REFERENCE);
}

/// Keys of `0..domain` spread over the whole i64 range by an odd (so
/// injective) multiplier: negatives, more than 32 significant bits, and no
/// radix digit on which all keys agree.
fn spread_keys_in(state: &mut u64, len: usize, domain: u64) -> Vec<i64> {
    let keys = keys_in(state, len, domain);
    keys.iter()
        .map(|&k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64))
        .collect()
}

/// One GFTR-heavy join on a fresh shrunken device: the 3000 x 7000 shape of
/// [`join_op_run`] with spread i64 keys and four mixed-width payload columns
/// per side, so every column after the first is transformed lazily.
fn wide4_join_op_run(alg: Algorithm, kind: JoinKind) -> OpRow {
    let dev = device(1024.0);
    let mut state = 23;
    let r_keys = spread_keys_in(&mut state, 3_000, 4_000);
    let s_keys = spread_keys_in(&mut state, 7_000, 4_000);
    let r = op_relation(&dev, "R", &r_keys, &[false, true, true, false]);
    let s = op_relation(&dev, "S", &s_keys, &[true, false, false, true]);
    let config = JoinConfig {
        unique_build: false,
        kind,
        ..JoinConfig::default()
    };
    let out = joins::run_join(&dev, alg, &r, &s, &config);
    assert_eq!(
        out.rows_sorted(),
        joins::oracle::join_oracle_kind(&r, &s, kind),
        "{alg} {} output",
        kind.name()
    );
    observe_op(&dev, &out.stats)
}

#[test]
fn four_column_joins_on_spread_keys_reproduce_their_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [203, 4667206449349192720, 355436, 7712064, 4885440, 2656, 13158, 1704, 11454, 0, 4531982349438125673, 974080, 5307, 4522749753419241524, 4508302303390904488, 4530229892906939822], // SMJ-OM wide4 inner
        [206, 4667555650601603653, 377822, 8070524, 5220963, 4098, 22705, 5009, 17696, 0, 4532324771346533712, 1083904, 8593, 4522749753419241524, 4513417895109329440, 4530544320461098562], // SMJ-OM wide4 outer
        [130, 4665806117642514883, 275970, 5995884, 3698592, 1404, 9707, 779, 8928, 0, 4530597182013800323, 974080, 3714, 4522749753419241524, 4511204350870012896, 4527302223211763499], // SMJ-OM wide4 semi
        [50, 4657365738779805703, 81038, 1654464, 903808, 2656, 17870, 6296, 11574, 0, 4522157820540176763, 890880, 5307, 4510548849127557273, 4503922628877046786, 4520360984619370064], // PHJ-OM wide4 inner
        [53, 4658899890341909928, 103424, 2049404, 1239331, 4098, 28357, 9401, 18956, 0, 4523662188299616249, 1068544, 8593, 4510548849127557273, 4512294940073305553, 4521706621492132396], // PHJ-OM wide4 outer
        [34, 4655717042913094157, 59412, 1335276, 664072, 1404, 10303, 694, 9609, 0, 4520453699973367365, 951040, 3714, 4510548849127557273, 4508912896137431665, 4517388077342368130], // PHJ-OM wide4 semi
        [24, 4655243185771167764, 51932, 856224, 543144, 3320, 39817, 24342, 15475, 0, 4519989042227351409, 905472, 5307, 4510436126069876859, 4508158037352476317, 4517140315057011115], // PHJ-OM/GFUR wide4 inner
        [27, 4657495445497386499, 74318, 1240380, 878667, 4762, 50490, 27970, 22520, 0, 4522285009149784307, 920320, 8593, 4510436126069876859, 4513543436170510246, 4518526763158423540], // PHJ-OM/GFUR wide4 outer
        [23, 4654495185953211630, 41682, 815244, 436968, 2068, 23156, 9625, 13531, 0, 4519255563972662929, 905472, 3714, 4510436126069876859, 4511058005552451341, 4514253263252050270], // PHJ-OM/GFUR wide4 semi
    ];
    let mut observed = Vec::new();
    for alg in [Algorithm::SmjOm, Algorithm::PhjOm, Algorithm::PhjOmGfur] {
        for kind in [JoinKind::Inner, JoinKind::Outer, JoinKind::Semi] {
            let case = format!("{alg} wide4 {}", kind.name());
            observed.push((case, wide4_join_op_run(alg, kind)));
        }
    }
    assert_reference_table("four-column joins", &observed, REFERENCE);
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01B3)
    })
}

/// One transform primitive on a fresh shrunken device: 5000 keys, either
/// small non-negative (constant high radix digits) or full-width seeded
/// values, with their row number as the value. The last five words are the
/// ledger peak, the row count, and digests of the output keys, of the output
/// values with the partition offsets, and of both outputs' simulated base
/// addresses (which fix every allocation before them).
fn transform_run<K: Element, V: Element>(
    bits: Option<u32>,
    small: bool,
    key: fn(u64) -> K,
    val: fn(u32) -> V,
) -> OpRow {
    let dev = device(1024.0);
    let mut state = 41;
    let n = 5_000;
    let modulus = if small { 200 } else { u64::MAX };
    let keys: Vec<K> = (0..n).map(|_| key(next(&mut state) % modulus)).collect();
    let keys = dev.upload(keys, "d.keys");
    let vals = dev.upload((0..n as u32).map(val).collect(), "d.vals");
    let (k, v, offsets) = match bits {
        None => {
            let (k, v) = primitives::sort_pairs(&dev, &keys, &vals);
            (k, v, Vec::new())
        }
        Some(bits) => {
            let p = primitives::radix_partition(&dev, &keys, &vals, bits);
            (p.keys, p.vals, p.offsets)
        }
    };
    let mut row = [0; 16];
    row[..11].copy_from_slice(&observe(&dev));
    row[11] = dev.mem_report().peak_bytes;
    row[12] = n as u64;
    row[13] = digest(k.iter().map(|k| k.to_radix()));
    let offsets = offsets.iter().map(|&o| o as u64);
    row[14] = digest(v.iter().map(|v| v.to_radix()).chain(offsets));
    row[15] = digest([k.addr_of(0), v.addr_of(0)]);
    row
}

#[test]
fn sort_pairs_and_radix_partition_reproduce_their_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [12, 4645197384487153558, 19096, 244096, 164112, 0, 0, 0, 0, 0, 4509963404217065284, 121344, 5000, 16189031026581353752, 10583000699630302013, 17851011092526023405], // sort_pairs i32/u32 small
        [24, 4653807531019430601, 38192, 968192, 648224, 0, 0, 0, 0, 0, 4518581259075055037, 241152, 5000, 9452937515060737304, 8596201070689357741, 6284078543150987501], // sort_pairs i64/i64 small
        [12, 4645197384487153558, 19096, 244096, 164112, 0, 0, 0, 0, 0, 4509963404217065284, 121344, 5000, 5342154433379432238, 17071448184717113101, 17851011092526023405], // sort_pairs i32/u32 full-width
        [24, 4653807531019430601, 38192, 968192, 648224, 0, 0, 0, 0, 0, 4518581259075055037, 241152, 5000, 4145390089772906758, 4562083301153579177, 6284078543150987501], // sort_pairs i64/i64 full-width
        [8, 4641548069775958685, 11190, 143080, 83092, 0, 0, 0, 0, 0, 4506297504538653783, 121344, 5000, 16189031026581353752, 12598790291541302062, 6849843137098586861], // radix_partition 9 bits i32/u32 small
        [8, 4645512257365308160, 11190, 283080, 163092, 0, 0, 0, 0, 0, 4510272164197446885, 241152, 5000, 9452937515060737304, 13605661658656995742, 17282994589492961517], // radix_partition 9 bits i64/i64 small
        [8, 4641548069775958685, 11190, 143080, 83092, 0, 0, 0, 0, 0, 4506297504538653783, 121344, 5000, 1148753132159966502, 17012113423407292428, 6849843137098586861], // radix_partition 9 bits i32/u32 full-width
        [8, 4645512257365308160, 11190, 283080, 163092, 0, 0, 0, 0, 0, 4510272164197446885, 241152, 5000, 5040588243637312806, 16491744312686274556, 17282994589492961517], // radix_partition 9 bits i64/i64 full-width
        [8, 4648765223418495012, 27502, 404192, 344204, 0, 0, 0, 0, 0, 4513549409874954745, 121344, 5000, 16189031026581353752, 6569542647469185838, 6849843137098586861], // radix_partition 16 bits i32/u32 small
        [8, 4650331530702414076, 27502, 544192, 424204, 0, 0, 0, 0, 0, 4515085309089548118, 241152, 5000, 9452937515060737304, 15193317773872920990, 17282994589492961517], // radix_partition 16 bits i64/i64 small
        [8, 4648765223418495012, 27502, 404192, 344204, 0, 0, 0, 0, 0, 4513549409874954745, 121344, 5000, 16744728111200432178, 8726425285628415246, 6849843137098586861], // radix_partition 16 bits i32/u32 full-width
        [8, 4650331530702414076, 27502, 544192, 424204, 0, 0, 0, 0, 0, 4515085309089548118, 241152, 5000, 16560146157873492018, 8209817717703512958, 17282994589492961517], // radix_partition 16 bits i64/i64 full-width
    ];
    let mut observed = Vec::new();
    for bits in [None, Some(9), Some(16)] {
        for small in [true, false] {
            let what = match bits {
                None => "sort_pairs".to_string(),
                Some(b) => format!("radix_partition {b} bits"),
            };
            let keys = if small { "small" } else { "full-width" };
            let i32_row = transform_run(bits, small, |k| k as i32, |v| v);
            observed.push((format!("{what} i32/u32 {keys}"), i32_row));
            let i64_row = transform_run(bits, small, |k| k as i64, |v| v as i64 * -3);
            observed.push((format!("{what} i64/i64 {keys}"), i64_row));
        }
    }
    assert_reference_table("transform primitives", &observed, REFERENCE);
}

/// The aggregate functions of the group-by driver rows, one per column.
static GROUP_BY_AGGS: [AggFn; 3] = [AggFn::Sum, AggFn::Min, AggFn::Max];

/// The input of the group-by driver rows: `rows` seeded keys of `0..1500`
/// with the first `cols` of three mixed-width payload columns, and their
/// aggregate functions.
fn group_by_input(dev: &Device, rows: usize, cols: usize) -> (Relation, &'static [AggFn]) {
    let mut state = 31;
    let keys = keys_in(&mut state, rows, 1_500);
    let input = op_relation(dev, "T", &keys, &[true, false, true][..cols]);
    (input, &GROUP_BY_AGGS[..cols])
}

/// One grouped aggregation of `rows` rows over up to 1500 groups with
/// `cols` aggregate columns on a fresh shrunken device.
fn group_by_op_run(alg: GroupByAlgorithm, rows: usize, cols: usize) -> OpRow {
    let dev = device(1024.0);
    let (input, aggs) = group_by_input(&dev, rows, cols);
    let out = groupby::run_group_by(&dev, alg, &input, aggs, &GroupByConfig::default());
    assert_eq!(
        out.rows_sorted(),
        groupby::oracle::group_by_oracle(&input, aggs),
        "{alg} x{cols} output"
    );
    observe_op(&dev, &out.stats)
}

#[test]
fn every_group_by_driver_reproduces_its_recorded_row() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [2, 4653757261129026656, 23884, 1097280, 86000, 625, 19783, 12569, 7214, 0, 4518531965117233474, 684544, 1500, 0, 4514393580745664098, 4513663150234061858], // HASH x0
        [3, 4655534052080846473, 30134, 1349280, 98000, 1250, 38018, 30429, 7589, 20000, 4520274261699401242, 868608, 1500, 0, 4514393580745664098, 4517129084825502441], // HASH x1
        [5, 4657922586320358793, 42634, 1854912, 128000, 2500, 74488, 66098, 8390, 60000, 4522703857520892190, 1212672, 1500, 0, 4514979869986712008, 4520355367667383640], // HASH x3
        [15, 4654863359567381528, 86126, 1097632, 736116, 94, 1674, 1, 1673, 0, 4519616589916067002, 480768, 1500, 4518679676337388042, 4499617188173799104, 4504078956343535136], // SORT-OM x0
        [15, 4657095570011315328, 86126, 1577632, 988116, 94, 1674, 1, 1673, 0, 4521892896790161526, 720384, 1500, 4520620622097906144, 4499617188173799104, 4508548019765740672], // SORT-OM x1
        [77, 4669699220300676049, 472406, 11518592, 7118676, 94, 1688, 0, 1688, 0, 4534426726084938389, 1384192, 1500, 4527296450032232601, 4503842442993374272, 4531511351270525944], // SORT-OM x3
        [15, 4654863359567381528, 86126, 1097632, 736116, 94, 1674, 1, 1673, 0, 4519616589916067002, 480768, 1500, 4518679676337388042, 4499617188173799104, 4504078956343535136], // SORT-UM x0
        [17, 4659569845856561384, 102689, 1879712, 908116, 1344, 24116, 3003, 21113, 0, 4524319137392128323, 640768, 1500, 4518679676337388042, 4499617188173799104, 4520637351688499856], // SORT-UM x1
        [33, 4666405156237378918, 211071, 5559712, 2462228, 3844, 68957, 12972, 55985, 0, 4531196612518091342, 1120512, 1500, 4526252704786796396, 4503842442993374272, 4526984995518075022], // SORT-UM x3
        [10, 4651554003170501632, 57700, 643080, 489092, 0, 0, 0, 0, 0, 4516284048649067856, 480768, 1500, 4515097472761945929, 4503842331291613212, 0], // PART-OM x0
        [10, 4653637625448676045, 57700, 1043080, 581092, 0, 0, 0, 0, 0, 4518414652027155716, 720384, 1500, 4516745329061755407, 4503842331291613212, 4506243919154431944], // PART-OM x1
        [28, 4662077273248354765, 155600, 4009240, 1897276, 0, 0, 0, 0, 0, 4526865318190962990, 1464320, 1500, 4518882658475754830, 4506243919154431936, 4524028351736111929], // PART-OM x3
        [10, 4651554003170501632, 57700, 643080, 489092, 0, 0, 0, 0, 0, 4516284048649067856, 480768, 1500, 4515097472761945929, 4503842331291613212, 0], // PART-UM x0
        [12, 4658222452588794089, 74263, 1505032, 661092, 1250, 22438, 3002, 19436, 0, 4522997902227765056, 652544, 1500, 4515097472761945929, 4503842331291613212, 4520291367749951448], // PART-UM x1
        [16, 4663880791826615865, 107389, 3501864, 1091092, 3750, 67239, 12902, 54337, 0, 4528633823513191265, 1120512, 1500, 4518058730325850091, 4506243919154431944, 4527047475981434664], // PART-UM x3
    ];
    let mut observed = Vec::new();
    for alg in GroupByAlgorithm::ALL {
        for cols in [0, 1, 3] {
            observed.push((format!("{alg} x{cols}"), group_by_op_run(alg, 20_000, cols)));
        }
    }
    assert_reference_table("group-by drivers", &observed, REFERENCE);
}

#[test]
fn group_by_on_zero_and_one_rows_reproduces_its_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [2, 4618931681167222585, 8, 24, 0, 0, 0, 0, 0, 0, 4483683026068701268, 256, 0, 0, 4479157979703206996, 4479200873179454548], // HASH n=0 x0
        [5, 4657953598488502932, 8, 24, 0, 0, 0, 0, 0, 0, 4522734267623165507, 256, 0, 0, 4479157979703206996, 4522727350094137866], // HASH n=0 x3
        [2, 4618971778633690913, 20, 60, 8, 1, 1, 0, 1, 0, 4483722345088594859, 768, 1, 0, 4479229468830286251, 4479208022092162475], // HASH n=1 x0
        [5, 4657972201947288752, 125, 96, 10380, 1, 1, 0, 1, 1296, 4522752509917018836, 2560, 1, 0, 4479236617742994177, 4522745515593030465], // HASH n=1 x3
        [14, 4632452634793233596, 256, 4096, 4112, 0, 0, 0, 0, 0, 4497203782551942367, 0, 0, 4496761060694173338, 0, 4479157979703206992], // SORT-OM n=0 x0
        [76, 4643697992342256014, 1536, 24576, 24672, 0, 0, 0, 0, 0, 4508493121060395364, 0, 0, 4500821938463774808, 0, 4505768259948914332], // SORT-OM n=0 x3
        [15, 4632956174103200036, 411, 4212, 4160, 2, 2, 0, 2, 0, 4497697546220562522, 1536, 1, 4496801951132854707, 4479198870141888368, 4479279511219241728], // SORT-OM n=1 x0
        [77, 4643786076866804773, 2307, 25212, 25064, 2, 2, 0, 2, 0, 4508579495524372674, 2816, 1, 4500860273250038589, 4479198870141888352, 4505810522106190408], // SORT-OM n=1 x3
        [14, 4632452634793233596, 256, 4096, 4112, 0, 0, 0, 0, 0, 4497203782551942367, 0, 0, 4496761060694173338, 0, 4479157979703206992], // SORT-UM n=0 x0
        [32, 4637859208344915131, 512, 8192, 8224, 0, 0, 0, 0, 0, 4502592825894850928, 0, 0, 4501043299392659323, 0, 4491783334869780436], // SORT-UM n=0 x3
        [15, 4632956174103200036, 411, 4212, 4160, 2, 2, 0, 2, 0, 4497697546220562522, 1536, 1, 4496801951132854707, 4479198870141888368, 4479279511219241728], // SORT-UM n=1 x0
        [33, 4638144952794961889, 868, 8572, 8384, 8, 8, 2, 6, 0, 4502873022942331364, 2816, 1, 4501082912005131896, 4479198870141888352, 4491855117589438660], // SORT-UM n=1 x3
        [7, 4627024460151443608, 16, 16, 24, 0, 0, 0, 0, 0, 4491793557479450768, 0, 0, 4490908113763912709, 4479157979703207000, 0], // PART-OM n=0 x0
        [19, 4633790707089160420, 48, 48, 72, 0, 0, 0, 0, 0, 4498515877700501580, 0, 0, 4489956511608364789, 4479157979703206996, 4495854435249052234], // PART-OM n=0 x3
        [7, 4627064857023101156, 78, 36, 44, 0, 0, 0, 0, 0, 4491833170091923342, 1280, 1, 4490938781592923734, 4479229537970899392, 0], // PART-OM n=1 x0
        [19, 4633842180522401488, 206, 180, 152, 0, 0, 0, 0, 0, 4498566351835748895, 2560, 1, 4490007624656716498, 4479229537970899392, 4495887658730480846], // PART-OM n=1 x3
        [7, 4627024460151443608, 16, 16, 24, 0, 0, 0, 0, 0, 4491793557479450768, 0, 0, 4490908113763912709, 4479157979703207000, 0], // PART-UM n=0 x0
        [13, 4631071360317089868, 16, 16, 24, 0, 0, 0, 0, 0, 4495849323944217062, 0, 0, 4490908113763912709, 4479157979703207000, 4490897891154242364], // PART-UM n=0 x3
        [7, 4627064857023101156, 78, 36, 44, 0, 0, 0, 0, 0, 4491833170091923342, 1280, 1, 4490938781592923734, 4479229537970899392, 0], // PART-UM n=1 x0
        [13, 4631119958943252301, 159, 212, 96, 6, 6, 2, 4, 0, 4495896979083486055, 2816, 1, 4490938781592923734, 4479229537970899392, 4490953588820307776], // PART-UM n=1 x3
    ];
    let mut observed = Vec::new();
    for alg in GroupByAlgorithm::ALL {
        for rows in [0, 1] {
            for cols in [0, 3] {
                let row = group_by_op_run(alg, rows, cols);
                observed.push((format!("{alg} n={rows} x{cols}"), row));
            }
        }
    }
    assert_reference_table("group-by on 0 and 1 rows", &observed, REFERENCE);
}

/// A string as digest words: its length, then its bytes.
fn text_words(s: &str) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(s.len() as u64).chain(s.bytes().map(u64::from))
}

/// The trace of one group-by driver run on the input of the driver rows,
/// recorded from the call on: the span count, a digest of every span's
/// name and start/end bits, the `mem` sample count, and a digest of every
/// sample's time bits, in-use and high-water bytes. The driver rows pin
/// totals; these pin where each phase opens and closes and what is alive
/// at each instant, so a free moved across a span or an allocation moves
/// them.
fn group_by_trace_run(alg: GroupByAlgorithm, cols: usize) -> [u64; 4] {
    let dev = device(1024.0);
    let (input, aggs) = group_by_input(&dev, 20_000, cols);
    dev.enable_tracing();
    let out = groupby::run_group_by(&dev, alg, &input, aggs, &GroupByConfig::default());
    let trace = dev.take_trace().expect("tracing was enabled");
    drop(out);
    let spans: Vec<_> = trace.spans().collect();
    let samples: Vec<_> = trace.mem_samples().collect();
    let span_words = spans
        .iter()
        .flat_map(|s| text_words(&s.name).chain([s.start.to_bits(), s.end.to_bits()]));
    let sample_words = samples
        .iter()
        .flat_map(|m| [m.ts.to_bits(), m.current_bytes, m.high_water_bytes]);
    [
        spans.len() as u64,
        digest(span_words),
        samples.len() as u64,
        digest(sample_words),
    ]
}

#[test]
fn group_by_traces_reproduce_their_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[[u64; 4]] = &[
        [3, 8957308758271624134, 2, 5371074551501568679], // HASH x0
        [3, 14506170230249531394, 6, 549323190975321112], // HASH x3
        [4, 9145684674705153485, 8, 15049330549020071810], // SORT-OM x0
        [4, 15488312772042153011, 29, 11882303708814530689], // SORT-OM x3
        [4, 10008027262158007331, 8, 15049330549020071810], // SORT-UM x0
        [4, 13937002615750616243, 17, 3509797960310400618], // SORT-UM x3
        [4, 11764158880487066370, 6, 2299376584242367576], // PART-OM x0
        [4, 9420019903736881546, 13, 3158469247684696719], // PART-OM x3
        [4, 6349276077527671852, 6, 2299376584242367576], // PART-UM x0
        [4, 2482477736513607228, 12, 17350151266609226224], // PART-UM x3
    ];
    let mut observed = Vec::new();
    for alg in GroupByAlgorithm::ALL {
        for cols in [0, 3] {
            observed.push((format!("{alg} x{cols}"), group_by_trace_run(alg, cols)));
        }
    }
    assert_reference_table("group-by traces", &observed, REFERENCE);
}

/// The budget error one group-by run on 2000 rows raises on a query lane
/// of `budget` bytes, as (label, requested bytes, in-use bytes); `None` if
/// it fits.
fn group_by_budget_error(
    alg: GroupByAlgorithm,
    cols: usize,
    budget: u64,
) -> Option<(String, u64, u64)> {
    let dev = device(1024.0);
    let (input, aggs) = group_by_input(&dev, 2_000, cols);
    dev.sched_start(SchedPolicy::Serial, None);
    let q = dev
        .sched_register(1.0, budget)
        .expect("the device has room");
    let mut seen = None;
    dev.sched_run(|_| {
        let run = || groupby::run_group_by(&q, alg, &input, aggs, &GroupByConfig::default());
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            let err = payload.downcast::<BudgetError>().expect("a budget error");
            seen = Some((err.label.clone(), err.requested_bytes, err.in_use_bytes));
        }
    });
    seen
}

/// Every ledger step of one group-by run: starting from a zero budget,
/// each run's budget is raised to just past the step the last one failed
/// at, so it fails at the next step that raises the high-water mark. The
/// row is the step count and a digest of the (label, requested, in-use)
/// sequence.
fn group_by_budget_sweep(alg: GroupByAlgorithm, cols: usize) -> [u64; 2] {
    let (mut budget, mut steps) = (0, 0);
    let mut words = Vec::new();
    while let Some((label, requested, in_use)) = group_by_budget_error(alg, cols, budget) {
        budget = in_use + requested;
        steps += 1;
        words.extend(text_words(&label).chain([requested, in_use]));
    }
    [steps, digest(words)]
}

#[test]
fn group_by_budget_errors_reproduce_their_recorded_steps() {
    #[rustfmt::skip]
    const REFERENCE: &[[u64; 2]] = &[
        [2, 341252319716061882], // HASH x0
        [6, 17954139572760045491], // HASH x3
        [5, 2721345188438482662], // SORT-OM x0
        [8, 14856575410707104445], // SORT-OM x3
        [5, 2721345188438482662], // SORT-UM x0
        [7, 12148318892232296173], // SORT-UM x3
        [4, 15273361681256995356], // PART-OM x0
        [7, 16435798680557767186], // PART-OM x3
        [4, 15273361681256995356], // PART-UM x0
        [8, 10461481549752097539], // PART-UM x3
    ];
    let mut observed = Vec::new();
    for alg in GroupByAlgorithm::ALL {
        for cols in [0, 3] {
            observed.push((format!("{alg} x{cols}"), group_by_budget_sweep(alg, cols)));
        }
    }
    assert_reference_table("group-by budget steps", &observed, REFERENCE);
}

/// `len` seeded values of `-bound..bound`.
fn values_in(state: &mut u64, len: usize, bound: u64) -> Vec<i64> {
    (0..len)
        .map(|_| (next(state) % (2 * bound)) as i64 - bound as i64)
        .collect()
}

/// One grouped aggregation of `keys` (i64 when `wide_key`, else i32) on a
/// fresh shrunken device, with four payload columns of seeded values (i32,
/// i64, i32, i64) drawn independently of the keys, so every aggregate
/// depends on which rows its group holds. The last five words are the
/// ledger peak, the group count, and digests of the output keys, of every
/// aggregate column in output order, and of the three phase times: a group
/// finder that numbered the same groups differently moves words 13 and 14.
fn ordered_group_by_run(
    alg: GroupByAlgorithm,
    keys: &[i64],
    wide_key: bool,
    radix_bits: Option<u32>,
) -> OpRow {
    let dev = device(1024.0);
    let mut state = 53;
    let n = keys.len();
    let key = if wide_key {
        Column::from_i64(&dev, keys.to_vec(), "k")
    } else {
        Column::from_i32(&dev, keys.iter().map(|&k| k as i32).collect(), "k")
    };
    let mut narrow = |bound| {
        values_in(&mut state, n, bound)
            .iter()
            .map(|&v| v as i32)
            .collect()
    };
    let (p0, p2) = (narrow(1_000), narrow(1 << 20));
    let payloads = vec![
        Column::from_i32(&dev, p0, "p"),
        Column::from_i64(&dev, values_in(&mut state, n, 1 << 40), "p"),
        Column::from_i32(&dev, p2, "p"),
        Column::from_i64(&dev, values_in(&mut state, n, 7), "p"),
    ];
    let input = Relation::new("T", key, payloads);
    let aggs = [AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count];
    let config = GroupByConfig { radix_bits };
    let out = groupby::run_group_by(&dev, alg, &input, &aggs, &config);
    assert_eq!(
        out.rows_sorted(),
        groupby::oracle::group_by_oracle(&input, &aggs),
        "{alg} output"
    );
    let mut row = [0; 16];
    row[..11].copy_from_slice(&observe(&dev));
    row[11] = out.stats.peak_mem_bytes;
    row[12] = out.stats.rows as u64;
    row[13] = digest(out.keys.iter_i64().map(|k| k as u64));
    row[14] = digest(
        out.aggregates
            .iter()
            .flat_map(|c| c.iter_i64())
            .map(|v| v as u64),
    );
    let p = &out.stats.phases;
    row[15] = digest([p.transform, p.match_find, p.materialize].map(|t| t.secs().to_bits()));
    row
}

#[test]
fn group_by_output_order_reproduces_its_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [6, 4658510261893477042, 48884, 1945824, 134000, 3125, 92772, 84041, 8731, 80000, 4523280124043084184, 1224960, 1500, 7084455493747195509, 15725998959622279142, 5855960104074773375], // HASH i32
        [6, 4659240612577851396, 48884, 2158208, 140000, 3125, 92772, 79904, 12868, 80000, 4523996295801988082, 1304832, 1500, 3305402661970229149, 15725998959622279142, 15020549677673925047], // HASH i64
        [54, 4664478634908196723, 326894, 5110016, 3276452, 94, 1676, 0, 1676, 0, 4529220060153266528, 1156864, 1500, 10395444509572005805, 1202226708108406496, 5083988620037087173], // SORT-OM i32
        [102, 4671151315906059512, 627918, 14806784, 9058900, 94, 1688, 0, 1688, 0, 4535938063160243411, 1476352, 1500, 15947752299197357065, 1202226708108406496, 18377681597761294716], // SORT-OM i64
        [23, 4665397186872157001, 152378, 3812224, 1264116, 5094, 91384, 19880, 71504, 0, 4530120779478582958, 961024, 1500, 10395444509572005805, 1202226708108406496, 4902320792231119029], // SORT-UM i32
        [35, 4667186158688614145, 227634, 6136704, 2554228, 5094, 91396, 19880, 71516, 0, 4531962452697577902, 1200640, 1500, 15947752299197357065, 1202226708108406496, 152043599162640141], // SORT-UM i64
        [37, 4661479091355851208, 204550, 3452320, 1746368, 0, 0, 0, 0, 0, 4526278749317592633, 1236992, 1500, 9710994431792550369, 12034439902614368846, 2192980925420442060], // PART-OM i32
        [37, 4663549108823121517, 204550, 5132320, 2392368, 0, 0, 0, 0, 0, 4528308579756879100, 1556480, 1500, 7549607476732680777, 468475652212419168, 9484560656482586834], // PART-OM i64
        [18, 4664923271890233483, 123952, 3674120, 1017092, 5000, 89648, 19928, 69720, 0, 4529656065015467446, 1008896, 1500, 9710994431792550369, 12034439902614368846, 17968979519209772684], // PART-UM i32
        [18, 4665355840152405187, 123952, 4158152, 1183092, 5000, 87180, 17334, 69846, 0, 4530080235458233434, 1200640, 1500, 7549607476732680777, 468475652212419168, 2319381193217439077], // PART-UM i64
        [25, 4660618216190112506, 128814, 3360064, 1260096, 0, 0, 0, 0, 0, 4525347154811465920, 1236480, 1500, 1527932473423873979, 7905719030797944140, 10561108901399736638], // PART-OM i64 1 bits
        [25, 4660621592589742357, 128814, 3361024, 1261056, 0, 0, 0, 0, 0, 4525350465662148217, 1236480, 1500, 8736603403177318841, 2829899895411317374, 10966182553402460461], // PART-OM i64 5 bits
        [37, 4663651563548283949, 208134, 5189888, 2449936, 0, 0, 0, 0, 0, 4528409045440416387, 1556480, 1500, 7549607476732680777, 468475652212419168, 9121484437953924905], // PART-OM i64 12 bits
        [37, 4665408105971413549, 269798, 6176768, 3436816, 0, 0, 0, 0, 0, 4530131486595982191, 1556480, 1500, 7549607476732680777, 468475652212419168, 6613745563318384589], // PART-OM i64 16 bits
        [15, 4659891033197831630, 105018, 2758864, 940024, 5000, 40328, 1614, 38714, 0, 4524634089247526699, 1168640, 1500, 1527932473423873979, 7905719030797944140, 12443964707034730587], // PART-UM i64 1 bits
        [15, 4664562900245129503, 105018, 3745536, 940264, 5000, 84290, 14750, 69540, 0, 4529302689574799111, 1168640, 1500, 8736603403177318841, 2829899895411317374, 17420863164689444680], // PART-UM i64 5 bits
        [18, 4665381453833695795, 124848, 4172544, 1197484, 5000, 87180, 17334, 69846, 0, 4530105351879117754, 1200640, 1500, 7549607476732680777, 468475652212419168, 143399769179026420], // PART-UM i64 12 bits
        [18, 4665774901697656026, 140264, 4419264, 1444204, 5000, 87180, 17334, 69846, 0, 4530535962168009206, 1200640, 1500, 7549607476732680777, 468475652212419168, 415732400962253449], // PART-UM i64 16 bits
        [6, 4659363723585624407, 48884, 1770272, 127372, 3126, 82067, 78822, 3245, 80000, 4524117016749970430, 1218560, 1315, 1333148208605580638, 18301560137693952755, 17771123848761518318], // HASH skewed
        [54, 4664355602462659784, 326801, 5076160, 3269052, 84, 644, 26, 618, 0, 4529099416242324047, 1153024, 1315, 10498271609846526246, 17732930127296198173, 7350892890750470948], // SORT-OM skewed
        [23, 4665208076606994218, 152285, 3766144, 1256716, 5084, 89820, 19756, 70064, 0, 4529935340573511713, 961024, 1315, 10498271609846526246, 17732930127296198173, 5485988754878197345], // SORT-UM skewed
        [37, 4661473164306697287, 204550, 3452320, 1739708, 0, 0, 0, 0, 0, 4526272937335337411, 1233152, 1315, 16024033963370955102, 5978592409107643423, 3770490739808408053], // PART-OM skewed
        [18, 4659386245633920235, 123952, 2429000, 1010432, 5000, 34850, 4040, 30810, 0, 4524139101558388127, 1003776, 1315, 16024033963370955102, 5978592409107643423, 1414417331184022549], // PART-UM skewed
    ];
    let mut state = 51;
    let base = keys_in(&mut state, 20_000, 1_500);
    // i32: negatives. i64: negatives, and 64 keys per low-33-bit pattern
    // that differ only above bit 32 (so at most 64 partitions at 16 bits).
    let i32_keys: Vec<i64> = base.iter().map(|&k| k - 750).collect();
    let i64_keys: Vec<i64> = base
        .iter()
        .map(|&k| (k % 64 - 32) + ((k / 64) << 33))
        .collect();
    // Nine rows in ten fall in partition 0 at any fan-out up to 2^16, over
    // 200 groups; the rest spread over 1500 keys.
    let skewed: Vec<i64> = (0..20_000)
        .map(|_| {
            let r = next(&mut state);
            let k = (r >> 8) as i64;
            if r.is_multiple_of(10) {
                k % 1_500
            } else {
                (k % 200) << 16
            }
        })
        .collect();
    let mut observed = Vec::new();
    for alg in GroupByAlgorithm::ALL {
        let i32_row = ordered_group_by_run(alg, &i32_keys, false, None);
        observed.push((format!("{alg} i32"), i32_row));
        let i64_row = ordered_group_by_run(alg, &i64_keys, true, None);
        observed.push((format!("{alg} i64"), i64_row));
    }
    for alg in [
        GroupByAlgorithm::PartitionedGftr,
        GroupByAlgorithm::PartitionedGfur,
    ] {
        for bits in [1, 5, 12, 16] {
            let row = ordered_group_by_run(alg, &i64_keys, true, Some(bits));
            observed.push((format!("{alg} i64 {bits} bits"), row));
        }
    }
    for alg in GroupByAlgorithm::ALL {
        let row = ordered_group_by_run(alg, &skewed, false, None);
        observed.push((format!("{alg} skewed"), row));
    }
    assert_reference_table("group-by output order", &observed, REFERENCE);
}

/// PHJ match finding on its own: 1200 x 2000 keys of `0..300` and `0..400`
/// partitioned 3 bits wide, so both sides hold duplicates and every build
/// partition (~150 rows) spans several 64-tuple shared-memory chunks. The
/// last five words are the ledger peak, the match count, and digests of the
/// matched keys, of `r_idx` then `s_idx` in output order, and of the chunk
/// diagnostics with the outputs' simulated base addresses.
#[test]
fn copartition_join_reproduces_its_recorded_row() {
    #[rustfmt::skip]
    const REFERENCE: &[OpRow] = &[
        [12, 4640631946091520568, 8564, 79124, 99028, 0, 0, 0, 0, 0, 4505399166350582382, 99840, 6107, 18028399502021924337, 5156425201525373329, 11425628763070848551], // copartition join 1200 x 2000
    ];
    let dev = device(1024.0);
    let mut state = 61;
    let mut side = |len: usize, domain: u64| {
        let keys: Vec<i32> = keys_in(&mut state, len, domain)
            .iter()
            .map(|&k| k as i32)
            .collect();
        let ids = dev.upload((0..len as u32).collect(), "d.ids");
        let pairs = primitives::radix_partition(&dev, &dev.upload(keys.clone(), "d.keys"), &ids, 3);
        (keys, pairs)
    };
    let (r, rp) = side(1_200, 300);
    let (s, sp) = side(2_000, 400);
    let (m, cost) =
        primitives::join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);
    assert!(cost.max_build_chunks > 1, "{cost:?}");
    let pairs: usize = r.iter().map(|k| s.iter().filter(|&v| v == k).count()).sum();
    assert_eq!(m.len(), pairs);
    let mut row = [0; 16];
    row[..11].copy_from_slice(&observe(&dev));
    row[11] = dev.mem_report().peak_bytes;
    row[12] = m.len() as u64;
    row[13] = digest(m.keys.iter().map(|k| k.to_radix()));
    row[14] = digest(m.r_idx.iter().chain(m.s_idx.iter()).map(|&i| i as u64));
    row[15] = digest([
        cost.max_build_chunks as u64,
        cost.probe_rereads,
        m.keys.addr_of(0),
        m.r_idx.addr_of(0),
        m.s_idx.addr_of(0),
    ]);
    let observed = [("copartition join 1200 x 2000".to_string(), row)];
    assert_reference_table("copartition join", &observed, REFERENCE);
}

/// One repeated-spec serving session: 36 arrivals cycling through the
/// demo's q18, q3 and q1 plans over `tpch_mini(256)`, 1e-7 simulated
/// seconds apart, with per-class SLOs and a waiting room of four, traced
/// and metered. The row is the number of completed queries, then digests
/// of the base trace's JSONL, of the metrics JSON and of the slow-query
/// digest's JSON. `replay` serves every later arrival of a plan from the
/// first one's recorded lane.
fn serving_session_run(policy: SchedPolicy, replay: bool) -> [u64; 4] {
    let dev = device(8192.0);
    dev.enable_tracing();
    dev.enable_metrics(SimTime::from_secs(1e-7));
    let catalog = engine::demo::tpch_mini(&dev, 256, 7);
    let classes = ["q18", "q3", "q1"];
    let plans = [
        engine::demo::q18_like(),
        engine::demo::q3_like(),
        engine::demo::q1_like(),
    ];
    let arrivals = (0..36)
        .map(|i| {
            let at = SimTime::from_secs(i as f64 * 1e-7);
            OpenQuery::new(at, classes[i % 3], QuerySpec::new(plans[i % 3].clone()))
        })
        .collect();
    let serving = ServingConfig {
        replay,
        ..classes
            .iter()
            .fold(ServingConfig::new().with_total_depth(4), |c, class| {
                c.with_slo(*class, 2e-6)
            })
    };
    let reports = engine::run_open_loop_with(&dev, &catalog, arrivals, policy, &serving);
    let explains: Vec<_> = reports
        .iter()
        .filter_map(|r| Some((r.query, r.explain(dev.config())?)))
        .collect();
    let trace = dev.take_trace().expect("tracing was enabled");
    let snap = dev.metrics_snapshot().expect("metrics were enabled");
    let slow = engine::slow_queries(&trace, &snap, &explains);
    [
        reports.iter().filter(|r| r.result.is_ok()).count() as u64,
        digest(text_words(&sim::trace::jsonl(std::slice::from_ref(&trace)))),
        digest(text_words(&sim::metrics_json(std::slice::from_ref(&snap)))),
        digest(text_words(&slow.to_json())),
    ]
}

#[test]
fn repeated_spec_serving_sessions_reproduce_their_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[[u64; 4]] = &[
        [24, 18421346334533276083, 6947959382743796846, 5622707316815376379], // serial
        [23, 11078518839412493539, 5679996989445582777, 6476461822001419076], // round_robin
        [21, 7995781100738163892, 4947454299612256292, 10568674777070399373], // weighted_fair
        [23, 5919287447005948236, 195186364479088084, 7781935657232210977], // sjf
        [23, 5919287447005948236, 195186364479088084, 7781935657232210977], // sjf_aging
    ];
    for replay in [false, true] {
        let observed: Vec<_> = [
            SchedPolicy::Serial,
            SchedPolicy::RoundRobin,
            SchedPolicy::WeightedFair,
            SchedPolicy::Sjf,
            SchedPolicy::SjfAging,
        ]
        .into_iter()
        .map(|policy| {
            (
                policy.name().to_string(),
                serving_session_run(policy, replay),
            )
        })
        .collect();
        let table = if replay {
            "repeated-spec serving sessions, replayed"
        } else {
            "repeated-spec serving sessions, executed"
        };
        assert_reference_table(table, &observed, REFERENCE);
    }
}

/// One closed-loop serving session: nine tenants cycling through the demo's
/// q18, q3 and q1 plans over `tpch_mini(256)`, all present at session
/// start with equal-share budgets and weights 1, 2 and 4, traced and
/// metered. The row is the number of completed queries, then digests of
/// the base trace's JSONL, of the metrics JSON and of the slow-query
/// digest's JSON.
fn closed_session_run(policy: SchedPolicy) -> [u64; 4] {
    let dev = device(8192.0);
    dev.enable_tracing();
    dev.enable_metrics(SimTime::from_secs(1e-7));
    let catalog = engine::demo::tpch_mini(&dev, 256, 7);
    let plans = [
        engine::demo::q18_like(),
        engine::demo::q3_like(),
        engine::demo::q1_like(),
    ];
    let specs = (0..9)
        .map(|i| QuerySpec::new(plans[i % 3].clone()).with_weight([1.0, 2.0, 4.0][i % 3]))
        .collect();
    let reports = engine::run_queries(&dev, &catalog, specs, policy);
    let explains: Vec<_> = reports
        .iter()
        .filter_map(|r| Some((r.query, r.explain(dev.config())?)))
        .collect();
    let trace = dev.take_trace().expect("tracing was enabled");
    let snap = dev.metrics_snapshot().expect("metrics were enabled");
    let slow = engine::slow_queries(&trace, &snap, &explains);
    [
        reports.iter().filter(|r| r.result.is_ok()).count() as u64,
        digest(text_words(&sim::trace::jsonl(std::slice::from_ref(&trace)))),
        digest(text_words(&sim::metrics_json(std::slice::from_ref(&snap)))),
        digest(text_words(&slow.to_json())),
    ]
}

#[test]
fn closed_loop_serving_sessions_reproduce_their_recorded_rows() {
    #[rustfmt::skip]
    const REFERENCE: &[[u64; 4]] = &[
        [9, 5407267114019931477, 11278271246940956753, 3924661330088861106], // round_robin
        [9, 16864036055333031702, 7782158923200436411, 253971501859041806], // weighted_fair
    ];
    let observed: Vec<_> = [SchedPolicy::RoundRobin, SchedPolicy::WeightedFair]
        .into_iter()
        .map(|policy| (policy.name().to_string(), closed_session_run(policy)))
        .collect();
    assert_reference_table("closed-loop serving sessions", &observed, REFERENCE);
}
