//! Minimal CSV writing for result artifacts.
//!
//! Every figure binary writes its series under `results/` in plain CSV so
//! the numbers behind each panel are auditable (EXPERIMENTS.md quotes
//! them) and plottable with any external tool.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A simple columnar table: named `f64` columns of equal length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// Column names.
    pub headers: Vec<String>,
    /// Columns, aligned with `headers`.
    pub columns: Vec<Vec<f64>>,
}

impl Table {
    /// Build directly from `(name, column)` pairs.
    ///
    /// # Panics
    /// Panics if column lengths differ.
    pub fn from_pairs(pairs: Vec<(&str, Vec<f64>)>) -> Self {
        let (headers, columns): (Vec<String>, Vec<Vec<f64>>) = pairs
            .into_iter()
            .map(|(name, column)| (name.to_string(), column))
            .unzip();
        if let Some(first) = columns.first() {
            for (h, c) in headers.iter().zip(&columns) {
                assert_eq!(c.len(), first.len(), "column '{h}' length mismatch");
            }
        }
        Self { headers, columns }
    }

    /// Write as CSV.
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "{}", self.headers.join(","))?;
        let rows = self.columns.first().map_or(0, Vec::len);
        for row in 0..rows {
            let line: Vec<String> = self.columns.iter().map(|c| format_float(c[row])).collect();
            writeln!(w, "{}", line.join(","))?;
        }
        w.flush()
    }
}

/// Compact float formatting: integers stay integral, everything else gets
/// enough digits to round-trip plot-quality values.
fn format_float(v: f64) -> String {
    // epilint: allow(float-eq, lossy-cast) — exact integrality test: fract() == 0.0 is the definition of "prints as an integer", and the cast is then exact
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_csv_formats_integers_and_fractions() {
        let t = Table::from_pairs(vec![
            ("day", vec![1.0, 2.0, 3.0]),
            ("cases", vec![10.0, 20.5, 30.0]),
        ]);
        let dir = std::env::temp_dir().join("epidata-io-test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(text, "day,cases\n1,10\n2,20.500000\n3,30\n");
    }

    #[test]
    #[should_panic]
    fn from_pairs_rejects_ragged_columns() {
        Table::from_pairs(vec![("a", vec![1.0]), ("b", vec![1.0, 2.0])]);
    }
}
