//! Shared experiment runners for the HPDR benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a runner
//! here; the `reproduce` binary prints them all.
//!
//! ## Scaling discipline
//!
//! The paper's experiments use 0.5 GB – 67 TB inputs; this harness runs on
//! one machine, so experiments execute at a reduced size with the device
//! models' saturation knees reduced by the *same factor*
//! ([`Scale::spec`]). Saturated bandwidths and kernel plateaus are
//! untouched, so throughputs, overlap ratios, speedup factors and
//! crossovers — the paper's *shapes* — are preserved while wall time and
//! memory stay laptop-sized.

pub mod figures;
pub mod scaling;
pub mod tables;

pub use figures::*;
pub use scaling::*;
pub use tables::*;

use hpdr::CpuParallelAdapter;
use hpdr_core::DeviceAdapter;
use std::sync::Arc;

/// The host worker pool used to execute kernels inside simulations.
pub fn work() -> Arc<dyn DeviceAdapter> {
    Arc::new(CpuParallelAdapter::with_defaults())
}

/// Simple fixed-width text table builder for figure output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = width[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123456".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
