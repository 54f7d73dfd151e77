//! Table rendering and CSV output for the experiment harnesses.

use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned table that prints to stdout and saves as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes [`to_csv`](Self::to_csv) to `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let path = results_dir().join(format!("{name}.csv"));
        fs::write(&path, self.to_csv()).expect("write csv");
        println!("[csv] {}", path.display());
    }
}

/// The `results/` directory (created on demand).
fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    dir.to_owned()
}

/// Formats a ratio with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints the Table II machine parameters for provenance.
pub fn print_machine(machine: &cobra_sim::MachineConfig) {
    println!(
        "machine: {}-wide OoO, ROB {}, LQ {}, MSHRs {}, mispredict {} cyc | \
         L1 {}KB/{}w {:?} | L2 {}KB/{}w {:?} | LLC {}MB/{}w {:?} | \
         DRAM {} cyc latency, {} cyc per 64B line",
        machine.issue_width,
        machine.rob,
        machine.load_queue,
        machine.mshrs,
        machine.mispredict_penalty,
        machine.l1.size_bytes / 1024,
        machine.l1.ways,
        machine.l1.replacement,
        machine.l2.size_bytes / 1024,
        machine.l2.ways,
        machine.l2.replacement,
        machine.llc.size_bytes / (1024 * 1024),
        machine.llc.ways,
        machine.llc.replacement,
        machine.dram_latency,
        machine.dram_line_occupancy,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
        assert_eq!(t.to_csv(), "a,long-header,c\n1,2,3\n");
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
