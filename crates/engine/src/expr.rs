//! Column-at-a-time scalar expressions.
//!
//! Expressions evaluate over a [`Table`] into either a value column
//! (widened to `i64`) or, for predicates, a selection bitmap. Every
//! evaluation charges one streaming kernel over its inputs — the
//! vectorized-execution cost shape of a columnar GPU engine.

use crate::{EngineError, Table};
use columnar::Column;
use primitives::STREAM_WARP_INSTR;
use serde::{Deserialize, Serialize};
use sim::{Device, DeviceBuffer};
use std::borrow::Cow;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ge => a >= b,
            CmpOp::Gt => a > b,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference by name.
    Col(String),
    /// A literal.
    Lit(i64),
    /// Arithmetic: `lhs + rhs`.
    Add(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs - rhs`.
    Sub(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs * rhs`.
    Mul(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs / rhs` (truncating; division by zero yields 0, the
    /// GPU-safe convention — no lane ever faults).
    Div(Box<Expr>, Box<Expr>),
    /// Arithmetic: `lhs % rhs` (remainder; modulo zero yields 0). Together
    /// with [`Expr::Div`] this is how packed composite keys unpack:
    /// `(key / 2^shift) % 2^width`.
    Mod(Box<Expr>, Box<Expr>),
    /// Comparison producing a predicate.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Pack two 32-bit-ranged values into one 64-bit key:
    /// `(hi << 32) | (lo & 0xFFFF_FFFF)` — the standard composite-join-key
    /// encoding (both TPC-H and TPC-DS join on multi-column keys in places).
    Pack(Box<Expr>, Box<Expr>),
    /// Conjunction of predicates.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction of predicates.
    Or(Box<Expr>, Box<Expr>),
}

// The builder methods deliberately mirror operator names (`add`, `sub`,
// `mul`): they build AST nodes rather than computing, like other query DSLs.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal value.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs` (truncating; `x / 0 == 0`).
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// `self % rhs` (remainder; `x % 0 == 0`).
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::Mod(Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// Composite key: `(self << 32) | (rhs & 0xFFFF_FFFF)`. Lossless for any
    /// pair of 32-bit-ranged values; join two tables on multi-column keys by
    /// projecting this on both sides first.
    pub fn pack(self, rhs: Expr) -> Expr {
        Expr::Pack(Box::new(self), Box::new(rhs))
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// All column names the expression references.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(n) => out.push(n),
            Expr::Lit(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Pack(a, b)
            | Expr::Cmp(_, a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }

    /// Evaluate to a value column (widened to `i64`). Predicates evaluate
    /// to 0/1. Charges one streaming kernel per expression node over the
    /// table's rows.
    pub fn eval(&self, dev: &Device, input: &Table) -> Result<Column, EngineError> {
        let vals = self.eval_values(input)?;
        self.charge(dev, input);
        Ok(Column::from_i64(dev, vals, "expr.out"))
    }

    /// Evaluate as a predicate into a host selection mask (oracle/test
    /// helper). Charges the predicate kernel but not the mask write —
    /// operators use [`Expr::eval_mask_device`], which accounts for both.
    pub fn eval_mask(&self, dev: &Device, input: &Table) -> Result<Vec<bool>, EngineError> {
        let vals = self.eval_values(input)?;
        self.charge(dev, input);
        Ok(vals.into_iter().map(|v| v != 0).collect())
    }

    /// Evaluate as a predicate into a device byte mask (1 byte per row),
    /// charging one fused kernel: every referenced column streamed in once,
    /// the mask streamed out once. Feed the result to
    /// [`primitives::compact_mask`] for the selection vector.
    pub fn eval_mask_device(
        &self,
        dev: &Device,
        input: &Table,
    ) -> Result<DeviceBuffer<u8>, EngineError> {
        let vals = self.eval_values(input)?;
        let n = input.num_rows() as u64;
        // Dedupe references: a fused AND of several predicates may name the
        // same base column more than once, but the kernel loads it once.
        let mut refs = self.columns();
        refs.sort_unstable();
        refs.dedup();
        let mut read = 0u64;
        for c in refs {
            if let Ok(col) = input.column(c) {
                read += col.size_bytes();
            }
        }
        dev.kernel("expr.mask")
            .items(n, STREAM_WARP_INSTR)
            .seq_read_bytes(read)
            .seq_write_bytes(n)
            .launch();
        Ok(dev.upload(
            vals.into_iter().map(|v| (v != 0) as u8).collect(),
            "expr.mask",
        ))
    }

    /// Rewrite every column reference through a substitution environment:
    /// `Col(name)` becomes `env[name]`. This is how the fusion pass pushes
    /// predicates and projections below intervening projections — the
    /// resulting expression reads directly from the base schema. References
    /// absent from the environment are reported as [`EngineError::
    /// UnknownColumn`] with the environment's names, exactly the error the
    /// unfused Project-then-Filter execution would raise at runtime.
    pub fn substitute(&self, env: &[(String, Expr)]) -> Result<Expr, EngineError> {
        let lookup = |name: &str| -> Result<Expr, EngineError> {
            env.iter()
                .find(|(n, _)| n == name)
                .map(|(_, e)| e.clone())
                .ok_or_else(|| EngineError::UnknownColumn {
                    column: name.to_string(),
                    available: env.iter().map(|(n, _)| n.clone()).collect(),
                })
        };
        Ok(match self {
            Expr::Col(n) => lookup(n)?,
            Expr::Lit(v) => Expr::Lit(*v),
            Expr::Add(a, b) => {
                Expr::Add(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Sub(a, b) => {
                Expr::Sub(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Mul(a, b) => {
                Expr::Mul(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Div(a, b) => {
                Expr::Div(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Mod(a, b) => {
                Expr::Mod(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Pack(a, b) => {
                Expr::Pack(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.substitute(env)?),
                Box::new(b.substitute(env)?),
            ),
            Expr::And(a, b) => {
                Expr::And(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?))
            }
            Expr::Or(a, b) => Expr::Or(Box::new(a.substitute(env)?), Box::new(b.substitute(env)?)),
        })
    }

    fn charge(&self, dev: &Device, input: &Table) {
        // One fused kernel: read every referenced column once, write the
        // result once.
        let n = input.num_rows() as u64;
        let mut read = 0u64;
        for c in self.columns() {
            if let Ok(col) = input.column(c) {
                read += col.size_bytes();
            }
        }
        dev.kernel("expr.eval")
            .items(n, STREAM_WARP_INSTR)
            .seq_read_bytes(read)
            .seq_write_bytes(n * 8)
            .launch();
    }

    fn eval_values(&self, input: &Table) -> Result<Vec<i64>, EngineError> {
        Ok(match self.operand(input)? {
            Operand::I32(s) => s.iter().map(|&v| v as i64).collect(),
            Operand::I64(v) => v.into_owned(),
            Operand::Lit(v) => vec![v; input.num_rows()],
        })
    }

    /// Column and literal leaves are read where they are; each interior
    /// node writes one result vector.
    fn operand<'a>(&self, input: &'a Table) -> Result<Operand<'a>, EngineError> {
        match self {
            Expr::Col(name) => Ok(match input.column(name)? {
                Column::I32(b) => Operand::I32(b.as_slice()),
                Column::I64(b) => Operand::I64(Cow::Borrowed(b.as_slice())),
            }),
            Expr::Lit(v) => Ok(Operand::Lit(*v)),
            Expr::Add(a, b) => zip(a, b, input, |x, y| x.wrapping_add(y)),
            Expr::Sub(a, b) => zip(a, b, input, |x, y| x.wrapping_sub(y)),
            Expr::Mul(a, b) => zip(a, b, input, |x, y| x.wrapping_mul(y)),
            Expr::Div(a, b) => zip(a, b, input, |x, y| match y {
                0 => 0,
                _ => x.wrapping_div(y),
            }),
            Expr::Mod(a, b) => zip(a, b, input, |x, y| match y {
                0 => 0,
                _ => x.wrapping_rem(y),
            }),
            Expr::Pack(a, b) => zip(a, b, input, |x, y| (x << 32) | (y & 0xFFFF_FFFF)),
            Expr::Cmp(op, a, b) => zip(a, b, input, |x, y| op.apply(x, y) as i64),
            Expr::And(a, b) => zip(a, b, input, |x, y| ((x != 0) && (y != 0)) as i64),
            Expr::Or(a, b) => zip(a, b, input, |x, y| ((x != 0) || (y != 0)) as i64),
        }
    }
}

/// One side of a binary node, widened to `i64` on read.
enum Operand<'a> {
    I32(&'a [i32]),
    I64(Cow<'a, [i64]>),
    Lit(i64),
}

impl Operand<'_> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            Operand::I32(s) => s[i] as i64,
            Operand::I64(s) => s[i],
            Operand::Lit(v) => *v,
        }
    }
}

fn zip<'a>(
    a: &Expr,
    b: &Expr,
    input: &'a Table,
    f: impl Fn(i64, i64) -> i64,
) -> Result<Operand<'a>, EngineError> {
    let (a, b) = (a.operand(input)?, b.operand(input)?);
    let out = (0..input.num_rows())
        .map(|i| f(a.get(i), b.get(i)))
        .collect();
    Ok(Operand::I64(Cow::Owned(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    fn table(dev: &Device) -> Table {
        Table::new(
            "t",
            vec![
                ("a", Column::from_i32(dev, vec![1, 2, 3, 4], "a")),
                ("b", Column::from_i64(dev, vec![10, 20, 30, 40], "b")),
            ],
        )
    }

    #[test]
    fn arithmetic_and_comparison() {
        let dev = Device::a100();
        let t = table(&dev);
        let e = Expr::col("a").mul(Expr::lit(10)).add(Expr::col("b"));
        assert_eq!(e.eval(&dev, &t).unwrap().to_vec_i64(), vec![20, 40, 60, 80]);
        let p = Expr::col("a")
            .ge(Expr::lit(2))
            .and(Expr::col("b").lt(Expr::lit(40)));
        assert_eq!(
            p.eval_mask(&dev, &t).unwrap(),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn leaves_evaluate_at_the_root_and_on_either_side() {
        let dev = Device::a100();
        let t = table(&dev);
        assert_eq!(
            Expr::col("a").eval(&dev, &t).unwrap().to_vec_i64(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(
            Expr::lit(7).eval(&dev, &t).unwrap().to_vec_i64(),
            vec![7; 4]
        );
        let e = Expr::lit(100).sub(Expr::col("b")).sub(Expr::col("a"));
        assert_eq!(e.eval(&dev, &t).unwrap().to_vec_i64(), vec![89, 78, 67, 56]);
        assert_eq!(
            Expr::lit(2).lt(Expr::lit(3)).eval_mask(&dev, &t).unwrap(),
            vec![true; 4]
        );
    }

    #[test]
    fn or_and_ne() {
        let dev = Device::a100();
        let t = table(&dev);
        let p = Expr::col("a")
            .eq(Expr::lit(1))
            .or(Expr::col("a").ne(Expr::lit(3)));
        assert_eq!(
            p.eval_mask(&dev, &t).unwrap(),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let dev = Device::a100();
        let t = table(&dev);
        assert!(matches!(
            Expr::col("zzz").eval(&dev, &t),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn pack_is_lossless_for_32_bit_pairs() {
        let dev = Device::a100();
        let t = Table::new(
            "t",
            vec![
                ("hi", Column::from_i32(&dev, vec![0, 1, -1, i32::MAX], "hi")),
                ("lo", Column::from_i32(&dev, vec![7, -7, 0, i32::MIN], "lo")),
            ],
        );
        let packed = Expr::col("hi")
            .pack(Expr::col("lo"))
            .eval(&dev, &t)
            .unwrap();
        for i in 0..4 {
            let v = packed.value(i);
            let hi = (v >> 32) as i32;
            let lo = (v & 0xFFFF_FFFF) as u32 as i32;
            assert_eq!(hi as i64, t.column("hi").unwrap().value(i));
            assert_eq!(lo as i64, t.column("lo").unwrap().value(i));
        }
        // Distinct pairs stay distinct.
        let vals = packed.to_vec_i64();
        let set: std::collections::HashSet<i64> = vals.iter().copied().collect();
        assert_eq!(set.len(), vals.len());
    }

    #[test]
    fn div_mod_unpack_a_packed_key() {
        let dev = Device::a100();
        let t = Table::new(
            "t",
            vec![("v", Column::from_i64(&dev, vec![7, 0, -9, 100], "v"))],
        );
        let q = Expr::col("v").div(Expr::lit(4)).eval(&dev, &t).unwrap();
        assert_eq!(q.to_vec_i64(), vec![1, 0, -2, 25]);
        let r = Expr::col("v").rem(Expr::lit(4)).eval(&dev, &t).unwrap();
        assert_eq!(r.to_vec_i64(), vec![3, 0, -1, 0]);
        // Division / modulo by zero are total: every lane yields 0.
        let z = Expr::col("v").div(Expr::lit(0)).eval(&dev, &t).unwrap();
        assert_eq!(z.to_vec_i64(), vec![0; 4]);
        let z = Expr::col("v").rem(Expr::lit(0)).eval(&dev, &t).unwrap();
        assert_eq!(z.to_vec_i64(), vec![0; 4]);
        // The composite-key identity: c == (pack(c) / 2^s) % 2^w for
        // in-range values.
        let packed = Expr::col("v")
            .add(Expr::lit(9)) // shift into [0, 109]
            .mul(Expr::lit(1 << 8))
            .add(Expr::lit(5));
        let unpacked = packed
            .div(Expr::lit(1 << 8))
            .rem(Expr::lit(1 << 7))
            .sub(Expr::lit(9));
        assert_eq!(
            unpacked.eval(&dev, &t).unwrap().to_vec_i64(),
            t.column("v").unwrap().to_vec_i64()
        );
    }

    #[test]
    fn columns_collects_references() {
        let e = Expr::col("x").add(Expr::col("y").mul(Expr::lit(2)));
        assert_eq!(e.columns(), vec!["x", "y"]);
    }

    #[test]
    fn mask_device_matches_host_mask_and_charges_write() {
        let dev = Device::a100();
        let t = table(&dev);
        let p = Expr::col("a").ge(Expr::lit(2));
        let host = p.eval_mask(&dev, &t).unwrap();
        dev.reset_stats();
        let mask = p.eval_mask_device(&dev, &t).unwrap();
        assert_eq!(
            mask.iter().map(|&b| b != 0).collect::<Vec<_>>(),
            host,
            "device mask disagrees with host oracle"
        );
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 1);
        // The 1-byte-per-row mask write is part of the accounted traffic.
        assert!(c.dram_bytes() >= t.num_rows() as u64);
    }

    #[test]
    fn substitute_pushes_references_through_projections() {
        let env = vec![
            ("x".to_string(), Expr::col("a").add(Expr::col("b"))),
            ("y".to_string(), Expr::lit(3)),
        ];
        let e = Expr::col("x").mul(Expr::col("y")).substitute(&env).unwrap();
        assert_eq!(e.columns(), vec!["a", "b"]);
        let missing = Expr::col("z").substitute(&env);
        match missing {
            Err(EngineError::UnknownColumn { column, available }) => {
                assert_eq!(column, "z");
                assert_eq!(available, vec!["x".to_string(), "y".to_string()]);
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
    }

    #[test]
    fn evaluation_charges_device_time() {
        let dev = Device::a100();
        let t = table(&dev);
        let before = dev.elapsed();
        let _ = Expr::col("a").add(Expr::lit(1)).eval(&dev, &t).unwrap();
        assert!(dev.elapsed() > before);
    }
}
