//! The per-cell outputs of one orchestrated pass, saved bit-exactly so a
//! separate process can check them and compare passes bit for bit.
//!
//! Text format, one cell per three lines:
//!
//! ```text
//! cell <input> <grid index> <elapsed ns> <clustered> <degraded> <resumed> <expected bits> <lost bits> <dim>
//! w <weight bits>...
//! c <centroid coordinate bits>...
//! ```

use pmkm_stream::PlanetReport;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub input: usize,
    pub cell: u32,
    pub elapsed_ns: u64,
    pub clustered: bool,
    pub degraded: bool,
    pub resumed: bool,
    pub expected_points: f64,
    pub lost_points: f64,
    pub dim: usize,
    pub weights: Vec<f64>,
    /// `weights.len() × dim` coordinates, centroid-major.
    pub centroids: Vec<f64>,
}

impl CellResult {
    /// Bit-level identity of the clustering (elapsed time excluded).
    pub fn same_clustering(&self, other: &CellResult) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.cell == other.cell
            && self.dim == other.dim
            && bits(&self.weights) == bits(&other.weights)
            && bits(&self.centroids) == bits(&other.centroids)
    }
}

pub fn from_report(report: &PlanetReport) -> Vec<CellResult> {
    report
        .cells
        .iter()
        .map(|o| {
            let c = o.clustering.as_ref();
            CellResult {
                input: o.input,
                cell: c.map_or(u32::MAX, |c| c.cell.index()),
                elapsed_ns: o.elapsed.as_nanos() as u64,
                clustered: c.is_some(),
                degraded: o.degraded,
                resumed: o.resumed,
                expected_points: c.map_or(0.0, |c| c.expected_points),
                lost_points: c.map_or(0.0, |c| c.lost_points),
                dim: c.map_or(0, |c| c.output.centroids.dim()),
                weights: c.map_or_else(Vec::new, |c| c.output.cluster_weights.clone()),
                centroids: c.map_or_else(Vec::new, |c| c.output.centroids.as_flat().to_vec()),
            }
        })
        .collect()
}

fn hex_line(tag: &str, values: &[f64]) -> String {
    let mut line = tag.to_string();
    for v in values {
        let _ = write!(line, " {:016x}", v.to_bits());
    }
    line
}

pub fn write(path: &Path, cells: &[CellResult]) -> std::io::Result<()> {
    std::fs::write(path, to_text(cells))
}

pub fn read(path: &Path) -> Result<Vec<CellResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn to_text(cells: &[CellResult]) -> String {
    let mut text = String::new();
    for c in cells {
        let _ = writeln!(
            text,
            "cell {} {} {} {} {} {} {:016x} {:016x} {}",
            c.input,
            c.cell,
            c.elapsed_ns,
            u8::from(c.clustered),
            u8::from(c.degraded),
            u8::from(c.resumed),
            c.expected_points.to_bits(),
            c.lost_points.to_bits(),
            c.dim
        );
        text.push_str(&hex_line("w", &c.weights));
        text.push('\n');
        text.push_str(&hex_line("c", &c.centroids));
        text.push('\n');
    }
    text
}

fn parse(text: &str) -> Result<Vec<CellResult>, String> {
    let bad = |what: &str| format!("malformed {what}");
    let mut lines = text.lines();
    let mut out = Vec::new();
    while let Some(head) = lines.next() {
        let f: Vec<&str> = head.split_whitespace().collect();
        if f.len() != 10 || f[0] != "cell" {
            return Err(bad("cell line"));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad("number"));
        let bits =
            |s: &str| u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|_| bad("bits"));
        let floats = |line: Option<&str>, tag: &str| -> Result<Vec<f64>, String> {
            let mut it = line.ok_or_else(|| bad(tag))?.split_whitespace();
            if it.next() != Some(tag) {
                return Err(bad(tag));
            }
            it.map(bits).collect()
        };
        out.push(CellResult {
            input: num(f[1])? as usize,
            cell: num(f[2])? as u32,
            elapsed_ns: num(f[3])?,
            clustered: f[4] == "1",
            degraded: f[5] == "1",
            resumed: f[6] == "1",
            expected_points: bits(f[7])?,
            lost_points: bits(f[8])?,
            dim: num(f[9])? as usize,
            weights: floats(lines.next(), "w")?,
            centroids: floats(lines.next(), "c")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_exactly() {
        let cell = CellResult {
            input: 3,
            cell: 4242,
            elapsed_ns: 123_456,
            clustered: true,
            degraded: false,
            resumed: false,
            expected_points: 3.0,
            lost_points: 0.0,
            dim: 2,
            weights: vec![1.0, 2.0],
            centroids: vec![0.1, -0.0, f64::MIN_POSITIVE, 1e300],
        };
        let back = parse(&to_text(std::slice::from_ref(&cell))).unwrap();
        assert_eq!(back, vec![cell.clone()]);
        assert!(back[0].same_clustering(&cell));
    }
}
