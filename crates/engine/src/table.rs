//! Named-column tables: the engine-facing view of [`columnar`] data.

use crate::EngineError;
use columnar::Column;

/// A table: an ordered list of named columns of equal length.
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
}

impl Table {
    /// Assemble a table; panics on ragged columns (a construction bug, not
    /// a plan error).
    pub fn new(name: impl Into<String>, columns: Vec<(&str, Column)>) -> Self {
        let name = name.into();
        let columns: Vec<(String, Column)> = columns
            .into_iter()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        if let Some((_, first)) = columns.first() {
            let n = first.len();
            assert!(
                columns.iter().all(|(_, c)| c.len() == n),
                "ragged table '{name}'"
            );
        }
        Table { name, columns }
    }

    /// Assemble from already-owned `(String, Column)` pairs (executor use).
    pub fn from_columns(name: impl Into<String>, columns: Vec<(String, Column)>) -> Self {
        let name = name.into();
        if let Some((_, first)) = columns.first() {
            let n = first.len();
            assert!(
                columns.iter().all(|(_, c)| c.len() == n),
                "ragged table '{name}'"
            );
        }
        Table { name, columns }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows (0 for a column-less table).
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Look a column up by name.
    pub fn column(&self, name: &str) -> Result<&Column, EngineError> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: name.to_string(),
                available: self.column_names(),
            })
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize, EngineError> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: name.to_string(),
                available: self.column_names(),
            })
    }

    /// All columns with names, in order.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.columns
    }

    /// Rows widened to `i64`, sorted — the order-insensitive comparison form
    /// used by tests.
    pub fn rows_sorted(&self) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = (0..self.num_rows())
            .map(|i| self.columns.iter().map(|(_, c)| c.value(i)).collect())
            .collect();
        rows.sort_unstable();
        rows
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("rows", &self.num_rows())
            .field("columns", &self.column_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Device;

    #[test]
    fn lookup_and_shape() {
        let dev = Device::a100();
        let t = Table::new(
            "t",
            vec![
                ("a", Column::from_i32(&dev, vec![1, 2], "a")),
                ("b", Column::from_i64(&dev, vec![3, 4], "b")),
            ],
        );
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column("b").unwrap().value(1), 4);
        assert_eq!(t.column_index("a").unwrap(), 0);
        assert!(matches!(
            t.column("zzz"),
            Err(EngineError::UnknownColumn { .. })
        ));
        assert_eq!(t.rows_sorted(), vec![vec![1, 3], vec![2, 4]]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("t", vec![]);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }
}
