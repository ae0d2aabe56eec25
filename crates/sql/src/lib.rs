//! SQL frontend for the adaptive GPU query engine.
//!
//! A hand-written pipeline from SQL text to an executable [`engine::Plan`]:
//!
//! ```text
//! SQL text ──lexer──▶ tokens ──parser──▶ [`ast::Query`]
//!      ──binder──▶ [`logical::LogicalPlan`]  (names/types resolved
//!                                             against the [`Catalog`])
//!      ──lower───▶ [`engine::Plan`] + decision notes
//! ```
//!
//! The grammar covers the analytical core the engine runs: `SELECT`
//! (expressions, aggregates, aliases, `DISTINCT`), `FROM` with comma or
//! `JOIN ... ON` equi-joins, `WHERE`, `GROUP BY`, `HAVING`, `ORDER BY`,
//! `LIMIT`, plus `DATE 'YYYY-MM-DD'` literals and dictionary-encoded
//! string comparisons. Everything downstream of [`lower()`] — operator
//! fusion, algorithm heuristics, scheduling, EXPLAIN — is unchanged: a
//! query arriving as SQL and the same plan assembled by hand take exactly
//! the same path through the engine.
//!
//! Errors at every stage are typed [`EngineError`] values carrying a
//! source [`engine::SqlSpan`]; nothing in the pipeline panics on bad
//! input.

#![warn(missing_docs)]

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod logical;
pub mod lower;
pub mod parser;

pub use ast::Query;
pub use binder::bind;
pub use logical::LogicalPlan;
pub use lower::{lower, lower_unpruned, Lowered};
pub use parser::parse;

use engine::{Catalog, EngineError};

/// Parse, bind and lower `sql` against `catalog` in one call.
///
/// Returns the executable plan plus the lowering's composite-key decision
/// notes (one line per multi-column GROUP BY / ORDER BY rewrite).
pub fn plan_sql(sql: &str, catalog: &Catalog) -> Result<Lowered, EngineError> {
    let query = parse(sql)?;
    let logical = bind(&query, catalog)?;
    lower(&logical, catalog)
}

/// Normalized shape fingerprint of a SQL text: FNV-1a 64 over the lexed
/// token stream. The lexer already normalizes everything that should not
/// distinguish two queries — whitespace, line comments, and keyword case
/// all vanish, while identifier spelling and literal values survive (the
/// catalog is case-sensitive and different constants are different
/// plans). Textual variants of one query therefore share a
/// [`engine::PlanCache`] entry without being re-planned; pass this to
/// [`engine::PlanCache::execute_keyed`].
pub fn fingerprint(sql: &str) -> Result<u64, EngineError> {
    let tokens = lexer::lex(sql)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for token in &tokens {
        // Hash the token's debug form (kind + payload), never its span:
        // source positions are exactly the formatting noise the
        // fingerprint exists to erase.
        for b in format!("{:?}\u{0}", token.tok).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::fingerprint;

    #[test]
    fn formatting_noise_does_not_change_the_fingerprint() {
        let canonical = fingerprint("SELECT a FROM t WHERE a >= 10").unwrap();
        for variant in [
            "select a from t where a >= 10",
            "SELECT a\n  FROM t -- push the filter\n  WHERE a >= 10",
            "  SELECT   a FROM t WHERE a >= 10  ",
        ] {
            assert_eq!(fingerprint(variant).unwrap(), canonical, "{variant:?}");
        }
    }

    #[test]
    fn semantic_differences_change_the_fingerprint() {
        let base = fingerprint("SELECT a FROM t WHERE a >= 10").unwrap();
        for variant in [
            "SELECT a FROM t WHERE a >= 11", // different constant
            "SELECT b FROM t WHERE a >= 10", // different column
            "SELECT A FROM t WHERE a >= 10", // identifiers are case-sensitive
            "SELECT a FROM t WHERE a > 10",  // different operator
        ] {
            assert_ne!(fingerprint(variant).unwrap(), base, "{variant:?}");
        }
    }

    #[test]
    fn token_boundaries_are_not_ambiguous() {
        // Adjacent tokens must not concatenate into the same byte stream.
        assert_ne!(
            fingerprint("SELECT ab FROM t").unwrap(),
            fingerprint("SELECT a FROM t").unwrap()
        );
    }
}
