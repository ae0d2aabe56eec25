//! Algorithm 1, once: the single three-phase driver behind every GPU join.
//!
//! The paper's Algorithm 1 is one computation — *transform* both relations,
//! *find matches* in the transformed keys, *materialize* the payloads — with
//! two free choices: the [`Transform`] and the [`Pattern`], i.e. where the
//! payload gathers read from. [`Algorithm::recipe`] is the one table mapping
//! each algorithm to its choices; [`typed`] is the one body that runs them.
//!
//! # Ordering invariants
//!
//! The memory ledger hands out addresses by bumping a pointer and the L2
//! model maps by absolute address, so the *order* of allocations, kernels
//! and frees is part of every simulated number, and
//! [`sim::OpStats::peak_mem_bytes`] (Table 5) depends on what is still alive
//! at each allocation:
//!
//! * GFUR over sort/radix creates both ID columns before transforming either
//!   side and keeps them to the end of the phase; GFTR (and bucket chaining)
//!   finishes R before touching S, and a payload-less GFTR side drops its ID
//!   column at once.
//! * The key reservation is released right before the match kernel — for
//!   NPHJ that is *between* build and probe.
//! * GFUR frees everything transformed *before* the kind adjustment (which
//!   reads the original S keys); GFTR frees the transformed keys *after* it
//!   (it reads them) and keeps only the first transformed payload columns
//!   (Section 4.4). A semi/anti join never gathers R's, which therefore
//!   lives to the end.
//! * Each further GFTR column is transformed lazily, its keys dropped at
//!   once, its output reservation released, gathered, then freed — one
//!   transformed column alive at a time (Table 2).
//! * One order serves a side: each side's stable order is computed on the
//!   host at most once per join ([`KeyOrder`]) and replayed for its first
//!   and every lazily transformed GFTR column, while every application is
//!   charged the whole transform — so the host's order never shows in the
//!   simulated sequence above.

use crate::kinds::{apply_kind_timed, JoinKind};
use crate::phj_um::{bucket_join, bucket_partition, BucketChains};
use crate::{choose_radix_bits, estimated_out_rows, Algorithm, JoinConfig, JoinOutput};
use columnar::{Column, ColumnElement, Relation};
use primitives::{
    gather, gather_column, gather_column_or_null, iota, join_copartitions, merge_join, timed_phase,
    GlobalHashTable, KeyOrder, MatchResult,
};
use sim::{Device, DeviceBuffer, Element, OpStats, PhaseTimes};

/// The transformation strategy of Algorithm 1.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Transform {
    /// Stable radix sort; matches are found by a merge join.
    Sort,
    /// Stable radix partitioning; per-partition shared-memory hash join.
    Radix,
    /// Bucket chaining (Sioulas et al.): non-deterministic and fragmented,
    /// so it can only carry IDs (see [`crate::phj_um`]).
    BucketChain,
    /// No transformation: a global hash table over the original keys.
    None,
}

/// Where materialization gathers payloads from.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Pattern {
    /// Gather From Untransformed Relations: transform `(key, physical ID)`,
    /// gather from the original columns — unclustered.
    Gfur,
    /// Gather From Transformed Relations: transform every payload column
    /// with the keys, gather by virtual ID — clustered.
    Gftr,
}

impl Algorithm {
    /// The `(transform, pattern)` of a GPU algorithm plus the allocation
    /// labels of the two ID columns a sort/radix transform creates; `None`
    /// for the CPU baseline.
    ///
    /// A *narrow* join (at most one payload column per side) in its classic
    /// implementation carries the payload directly as the value of the
    /// `(key, value)` pair instead of taking the ID + gather detour, which
    /// makes SMJ-UM operationally identical to SMJ-OM ("since the joins are
    /// narrow, SMJ-OM is identical to SMJ-UM", Section 5.2.2) and puts
    /// PHJ-UM "very close" to PHJ-OM: with `narrow` set the UM variants
    /// resolve to their OM rows.
    #[rustfmt::skip]
    pub(crate) fn recipe(self, narrow: bool) -> Option<(Transform, Pattern, [&'static str; 2])> {
        use {Algorithm::*, Pattern::*, Transform as T};
        let (transform, pattern, narrow_as, id_labels) = match self {
            SmjUm     => (T::Sort,        Gfur, Some(SmjOm), ["smj_um.r_ids", "smj_um.s_ids"]),
            SmjOm     => (T::Sort,        Gftr, None,        ["smj_om.r_ids", "smj_om.s_ids"]),
            PhjUm     => (T::BucketChain, Gfur, Some(PhjOm), [""; 2]),
            PhjOm     => (T::Radix,       Gftr, None,        ["phj_om.r_ids", "phj_om.s_ids"]),
            PhjOmGfur => (T::Radix,       Gfur, None,        ["phj_gfur.r_ids", "phj_gfur.s_ids"]),
            Nphj      => (T::None,        Gfur, None,        [""; 2]),
            CpuRadix  => return None,
        };
        match narrow_as {
            Some(om) if narrow => om.recipe(narrow),
            _ => Some((transform, pattern, id_labels)),
        }
    }
}

/// One relation after a sort or radix transformation.
struct Pairs<K: Element> {
    /// Keys in transformed order.
    keys: DeviceBuffer<K>,
    /// Physical tuple IDs in transformed order (GFUR).
    ids: Option<DeviceBuffer<u32>>,
    /// The first payload column in transformed order (GFTR).
    payload0: Option<Column>,
    /// Partition offsets (radix; empty when sorted).
    offsets: Vec<u32>,
}

/// Both relations after the transformation phase.
enum Transformed<K: Element> {
    Pairs(Pairs<K>, Pairs<K>),
    Chains(BucketChains<K>, BucketChains<K>),
    Untransformed,
}

/// Run the join `transform` x `pattern` on typed keys: Algorithm 1.
pub(crate) fn typed<'a, K: ColumnElement>(
    r_keys: &'a DeviceBuffer<K>,
    s_keys: &'a DeviceBuffer<K>,
    dev: &Device,
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
    (transform, pattern, id_labels): (Transform, Pattern, [&'static str; 2]),
) -> JoinOutput {
    dev.reset_peak_mem();
    let mut reservation = crate::OutputReservation::new(dev, r, s, estimated_out_rows(config, s));
    let mut phases = PhaseTimes::default();
    let bits = choose_radix_bits(dev, r.len().max(1), K::SIZE, config);

    // Each side's stable order, computed at most once per join: replayed
    // for every GFTR column when several ride with the keys, while a lone
    // column (or GFUR's ID column) rides the host passes itself.
    let order_of = |keys: &'a DeviceBuffer<K>, rel: &Relation| {
        let columns = match pattern {
            Pattern::Gftr => rel.payloads().len(),
            Pattern::Gfur => 1,
        };
        match transform {
            Transform::Sort => KeyOrder::sort(keys, columns),
            _ => KeyOrder::partition(keys, bits, columns),
        }
    };
    let (r_order, s_order) = (order_of(r_keys, r), order_of(s_keys, s));

    // An ID column riding through `transform` with its keys, kept only when
    // GFUR will translate positions through it.
    let ids_with_keys = |order: &KeyOrder<K>, ids: &DeviceBuffer<u32>, keep: bool| {
        let (keys, ids, offsets) = order.apply(dev, ids);
        let ids = keep.then_some(ids);
        Pairs {
            keys,
            ids,
            payload0: None,
            offsets,
        }
    };

    // Transformation (Algorithm 1, lines 1-2). GFTR carries the *first*
    // payload column of each side with the keys; a payload-less side sorts
    // keys alone (modeled as a key-ID pair transform, as GFUR's is). NPHJ
    // has no such phase at all.
    let transform_phase = || match (transform, pattern) {
        (Transform::None, _) => Transformed::Untransformed,
        (Transform::BucketChain, _) => Transformed::Chains(
            bucket_partition(dev, r_keys, bits, config),
            bucket_partition(dev, s_keys, bits, config),
        ),
        (_, Pattern::Gfur) => {
            let r_ids = iota(dev, r_keys.len(), id_labels[0]);
            let s_ids = iota(dev, s_keys.len(), id_labels[1]);
            Transformed::Pairs(
                ids_with_keys(&r_order, &r_ids, true),
                ids_with_keys(&s_order, &s_ids, true),
            )
        }
        (_, Pattern::Gftr) => {
            let side = |order: &KeyOrder<K>, rel: &Relation, label| match rel.payloads().first() {
                Some(p) => {
                    let (keys, p, offsets) = order.apply_column(dev, p);
                    Pairs {
                        keys,
                        ids: None,
                        payload0: Some(p),
                        offsets,
                    }
                }
                None => ids_with_keys(order, &iota(dev, rel.len(), label), false),
            };
            Transformed::Pairs(
                side(&r_order, r, id_labels[0]),
                side(&s_order, s, id_labels[1]),
            )
        }
    };
    let transformed = if transform == Transform::None {
        transform_phase()
    } else {
        let (transformed, t) = timed_phase(dev, "transform", transform_phase);
        phases.transform = t;
        transformed
    };

    // Match finding (line 3). Over sort/radix the matches are positions in
    // the transformed relations: GFTR's virtual IDs as they are, translated
    // for GFUR into physical IDs by clustered lookups into the transformed
    // ID arrays (on hardware the IDs ride through the match kernel).
    let (m, t) = timed_phase(dev, "match_find", || match &transformed {
        Transformed::Pairs(rt, st) => {
            reservation.release_keys();
            let m = if transform == Transform::Sort {
                merge_join(dev, &rt.keys, &st.keys, config.unique_build)
            } else {
                join_copartitions(dev, &rt.keys, &rt.offsets, &st.keys, &st.offsets).0
            };
            match (&rt.ids, &st.ids) {
                (Some(r_ids), Some(s_ids)) => {
                    let r_idx = gather(dev, r_ids, &m.r_idx);
                    let s_idx = gather(dev, s_ids, &m.s_idx);
                    let keys = m.keys;
                    MatchResult { keys, r_idx, s_idx }
                }
                _ => m,
            }
        }
        Transformed::Chains(rc, sc) => {
            reservation.release_keys();
            let (keys, r_ids, s_ids) = bucket_join(dev, rc, sc);
            MatchResult {
                keys: dev.upload(keys, "phj_um.out_keys"),
                r_idx: dev.upload(r_ids, "phj_um.out_r_ids"),
                s_idx: dev.upload(s_ids, "phj_um.out_s_ids"),
            }
        }
        Transformed::Untransformed => {
            let mut ht = GlobalHashTable::new(dev, r_keys.len());
            ht.build(dev, r_keys);
            reservation.release_keys();
            ht.probe(dev, s_keys)
        }
    });
    phases.match_find = t;

    // Kind adjustment, in the ID space materialization gathers through: the
    // transformed S keys supply unmatched-row key values under GFTR, the
    // original ones under GFUR. (The first columns are bound before `adj` so
    // that whatever the join leaves of them is freed after its maps.)
    let (mut r_first, mut s_first, adj) = match (pattern, transformed) {
        (Pattern::Gftr, Transformed::Pairs(rt, st)) => {
            let adj = apply_kind_timed(dev, config.kind, m, &st.keys, st.keys.len());
            drop((rt.keys, st.keys));
            (rt.payload0, st.payload0, adj)
        }
        (_, transformed) => {
            drop(transformed);
            (
                None,
                None,
                apply_kind_timed(dev, config.kind, m, s_keys, s.len()),
            )
        }
    };
    phases.match_find += adj.time;

    // Materialization (lines 4-9), one column at a time. GFUR gathers from
    // the untransformed column. GFTR gathers from the transformed one: the
    // first rode along in phase 1, the rest are transformed now.
    let materialize = |rel: &Relation,
                       order: &KeyOrder<K>,
                       first: &mut Option<Column>,
                       map: &DeviceBuffer<u32>,
                       reserved: &mut [Option<sim::Reservation>],
                       nulls: bool| {
        let columns = rel.payloads().iter().enumerate().map(|(i, c)| {
            let transformed = (pattern == Pattern::Gftr)
                .then(|| first.take().unwrap_or_else(|| order.apply_column(dev, c).1));
            reserved[i] = None;
            let src = transformed.as_ref().unwrap_or(c);
            if nulls {
                gather_column_or_null(dev, src, map)
            } else {
                gather_column(dev, src, map)
            }
        });
        columns.collect::<Vec<Column>>()
    };
    let ((r_payloads, s_payloads), t) = timed_phase(dev, "materialize", || {
        let (r_out, s_out) = (&mut reservation.r_cols, &mut reservation.s_cols);
        let rp = if adj.materialize_r {
            let nulls = config.kind == JoinKind::Outer;
            materialize(r, &r_order, &mut r_first, &adj.r_map, r_out, nulls)
        } else {
            Vec::new()
        };
        let sp = materialize(s, &s_order, &mut s_first, &adj.s_map, s_out, false);
        (rp, sp)
    });
    phases.materialize = t;

    let rows = adj.keys.len();
    JoinOutput {
        keys: K::wrap(adj.keys),
        r_payloads,
        s_payloads,
        stats: OpStats::new(phases, rows, dev.mem_report().peak_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_join;
    use sim::{SimTime, SpanCat};

    /// Every `(transform, pattern)` the table can resolve to on a wide join.
    const RECIPES: [(Algorithm, Transform, Pattern); 6] = [
        (Algorithm::SmjUm, Transform::Sort, Pattern::Gfur),
        (Algorithm::SmjOm, Transform::Sort, Pattern::Gftr),
        (Algorithm::PhjUm, Transform::BucketChain, Pattern::Gfur),
        (Algorithm::PhjOm, Transform::Radix, Pattern::Gftr),
        (Algorithm::PhjOmGfur, Transform::Radix, Pattern::Gfur),
        (Algorithm::Nphj, Transform::None, Pattern::Gfur),
    ];

    /// A relation with duplicate keys `i * stride mod domain` and two
    /// payload columns, so the UM variants take their own transforms.
    fn wide(dev: &Device, name: &str, len: i32, stride: i32, domain: i32) -> Relation {
        let keys: Vec<i32> = (0..len).map(|i| (i * stride) % domain).collect();
        let p32 = Column::from_i32(dev, keys.iter().map(|&k| k + 1).collect(), "p32");
        let p64 = Column::from_i64(dev, keys.iter().map(|&k| k as i64 * 3).collect(), "p64");
        Relation::new(name, Column::from_i32(dev, keys, "k"), vec![p32, p64])
    }

    #[test]
    fn narrow_joins_resolve_um_variants_to_their_om_rows() {
        for (alg, transform, pattern) in RECIPES {
            let (t, p, _) = alg.recipe(false).expect("a GPU algorithm");
            assert!(t == transform && p == pattern, "{alg} wide");
        }
        for (um, om) in [
            (Algorithm::SmjUm, Algorithm::SmjOm),
            (Algorithm::PhjUm, Algorithm::PhjOm),
        ] {
            let (t, p, labels) = um.recipe(true).expect("a GPU algorithm");
            let (om_t, om_p, om_labels) = om.recipe(false).expect("a GPU algorithm");
            assert!(t == om_t && p == om_p && labels == om_labels, "{um} narrow");
            assert_eq!(um.materialization(), "GFUR");
        }
        assert!(Algorithm::CpuRadix.recipe(false).is_none());
    }

    /// The trace of one join: phase spans of a name sum, in log order and
    /// bit for bit, to the reported phase time; the kind adjustment is a
    /// second `match_find` span that continues the first and holds every
    /// `kind.*` kernel.
    #[test]
    fn phase_spans_reproduce_phase_times_bit_for_bit() {
        for (alg, transform, _) in RECIPES {
            for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Outer] {
                let dev = Device::new(sim::DeviceConfig::a100().scaled(1024.0));
                dev.enable_tracing();
                let (r, s) = (wide(&dev, "R", 900, 7, 500), wide(&dev, "S", 2_000, 3, 700));
                let config = JoinConfig {
                    unique_build: false,
                    kind,
                    ..JoinConfig::default()
                };
                let out = run_join(&dev, alg, &r, &s, &config);
                let trace = dev.take_trace().expect("tracing was enabled");
                let case = format!("{alg} {}", kind.name());

                let spans = |phase: &str| -> Vec<(f64, f64)> {
                    let of_phase =
                        |s: &&sim::trace::SpanEvent| s.cat == SpanCat::Phase && s.name == phase;
                    let found = trace.spans().filter(of_phase);
                    found.map(|s| (s.start, s.end)).collect()
                };
                let sum = |spans: &[(f64, f64)]| {
                    let durs = spans.iter().map(|&(t0, t1)| SimTime::from_secs(t1 - t0));
                    durs.fold(SimTime::ZERO, |acc, d| acc + d).secs().to_bits()
                };
                let phases = out.stats.phases;
                let (transformed, found, gathered) = (
                    spans("transform"),
                    spans("match_find"),
                    spans("materialize"),
                );
                assert_eq!(transformed.len(), (transform != Transform::None) as usize);
                assert_eq!(
                    sum(&transformed),
                    phases.transform.secs().to_bits(),
                    "{case}"
                );
                assert_eq!(sum(&found), phases.match_find.secs().to_bits(), "{case}");
                assert_eq!(
                    sum(&gathered),
                    phases.materialize.secs().to_bits(),
                    "{case}"
                );

                let [matching, adjusting] = found[..] else {
                    panic!("{case}: expected two match_find spans, got {found:?}");
                };
                assert_eq!(
                    matching.1, adjusting.0,
                    "{case}: adjustment continues the match"
                );
                assert_eq!(adjusting.1, gathered[0].0, "{case}: materialize follows");
                let kind_kernels: Vec<_> = trace
                    .kernels()
                    .filter(|k| k.name.starts_with("kind."))
                    .collect();
                assert_eq!(kind_kernels.is_empty(), kind == JoinKind::Inner, "{case}");
                for k in kind_kernels {
                    assert!(
                        adjusting.0 <= k.start && k.start < adjusting.1,
                        "{case}: {} runs outside the kind-adjustment span",
                        k.name
                    );
                }
            }
        }
    }
}
