//! Composite grouping/ordering keys on single-key kernels.
//!
//! The paper's join and grouped-aggregation kernels take one integer key
//! column. SQL's multi-column GROUP BY / ORDER BY therefore lowers to a
//! *synthesized* key, and this module is the decision tree that picks how:
//!
//! - **Pack** — when the columns' value ranges fit 63 bits together, pack
//!   them into one i64 (each column shifted into its own bit field, offsets
//!   removed). The packed key sorts/hashes exactly like the tuple it
//!   encodes — lexicographic order is preserved — and unpacks at the
//!   boundary with one Div/Mod projection per column.
//! - **FdReduce** — when the ranges are too wide but one grouping column
//!   functionally determines the rest (a declared primary key surviving
//!   the joins), group by the determinant alone and carry the determined
//!   columns through as `MAX` aggregates (constant per group, so any
//!   exemplar aggregate reproduces them).
//! - **Reject** — neither applies; the query is outside the supported
//!   subset and the binder reports it rather than silently overflowing.
//!
//! Like the join and aggregation trees in the crate root, the tree is data:
//! the planner and the EXPLAIN provenance walk the same branches by
//! construction.

use super::{walk_tree, Branch, Explained};

/// What the lowering knows about a composite key when it must choose a
/// strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositeProfile {
    /// Number of key columns.
    pub columns: usize,
    /// Total bits needed to pack every column's `[min, max]` range
    /// side by side (sum of per-column `ceil(log2(span + 1))`).
    pub bits_required: u32,
    /// Rows feeding the grouping/sort.
    pub rows: usize,
    /// Whether one key column functionally determines all the others.
    pub fd_available: bool,
}

/// How to run a multi-column GROUP BY / ORDER BY on single-key kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositeStrategy {
    /// Pack the columns into one 63-bit integer key.
    Pack,
    /// Group by the functionally-determining column; carry the rest as
    /// exemplar aggregates.
    FdReduce,
    /// Unsupported: ranges too wide and no functional dependency.
    Reject,
}

impl CompositeStrategy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CompositeStrategy::Pack => "PACK",
            CompositeStrategy::FdReduce => "FD-REDUCE",
            CompositeStrategy::Reject => "REJECT",
        }
    }
}

/// Bits needed to distinguish `span + 1` values (a column whose range is
/// `[min, max]` has span `max - min`). Zero-span (constant) columns still
/// take one bit so every column owns a field and unpacking stays uniform.
pub fn bits_for_span(span: u64) -> u32 {
    64 - span.max(1).leading_zeros()
}

static COMPOSITE_TREE: [Branch<CompositeProfile, CompositeStrategy>; 3] = [
    Branch {
        guard: "ranges pack into 63 bits",
        holds: |p| p.bits_required <= 63,
        algorithm: CompositeStrategy::Pack,
        rationale: "the columns' value ranges fit one i64 side by side: pack them into \
                    a synthesized key (order-preserving), run the single-key kernel, \
                    unpack at the boundary with one Div/Mod projection per column",
    },
    Branch {
        guard: "a key column determines the rest",
        holds: |p| p.fd_available,
        algorithm: CompositeStrategy::FdReduce,
        rationale: "ranges overflow 63 bits but one grouping column functionally \
                    determines the others (primary key surviving the joins): group by \
                    the determinant alone and carry the rest as exemplar aggregates",
    },
    Branch {
        guard: "otherwise",
        holds: |_| true,
        algorithm: CompositeStrategy::Reject,
        rationale: "ranges overflow 63 bits and no functional dependency covers the \
                    key: outside the supported subset, reported rather than silently \
                    overflowing the packed key",
    },
];

/// Walk the composite-key tree. ORDER BY asks with `fd_available: false`:
/// ordering needs the actual lexicographic value, so only PACK serves it.
pub fn choose_composite(p: &CompositeProfile) -> Explained<CompositeStrategy> {
    walk_tree(&COMPOSITE_TREE, p, CompositeStrategy::name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(bits: u32, fd: bool) -> CompositeProfile {
        CompositeProfile {
            columns: 3,
            bits_required: bits,
            rows: 1 << 20,
            fd_available: fd,
        }
    }

    #[test]
    fn narrow_ranges_pack() {
        let e = choose_composite(&profile(55, false));
        assert_eq!(e.algorithm, CompositeStrategy::Pack);
        assert!(e.rejected.is_empty());
    }

    #[test]
    fn wide_ranges_fall_back_to_the_functional_dependency() {
        let e = choose_composite(&profile(76, true));
        assert_eq!(e.algorithm, CompositeStrategy::FdReduce);
        assert_eq!(e.rejected.len(), 1);
        assert_eq!(e.rejected[0].algorithm, "PACK");
    }

    #[test]
    fn wide_ranges_without_fd_reject() {
        let e = choose_composite(&profile(76, false));
        assert_eq!(e.algorithm, CompositeStrategy::Reject);
        assert_eq!(e.rejected.len(), 2);
    }

    #[test]
    fn bit_widths() {
        assert_eq!(bits_for_span(0), 1); // constant column still owns a bit
        assert_eq!(bits_for_span(1), 1);
        assert_eq!(bits_for_span(2), 2);
        assert_eq!(bits_for_span(255), 8);
        assert_eq!(bits_for_span(256), 9);
        assert_eq!(bits_for_span(u64::MAX - 1), 64);
    }
}
