//! Matrix Market coordinate-format I/O.
//!
//! Supports `matrix coordinate real {general|symmetric}` — the format the
//! paper-era test matrices (Harwell–Boeing successors) ship in. Symmetric
//! files are expanded to full storage on read.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    Io(std::io::Error),
    /// Malformed header/body with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(s) => write!(f, "Matrix Market parse error: {s}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Reads a matrix from a Matrix Market stream.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix, MmError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let h: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_ascii_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(parse_err(format!("bad header line: {header:?}")));
    }
    if h[2] != "coordinate" {
        return Err(parse_err("only coordinate format is supported"));
    }
    if h[3] != "real" && h[3] != "integer" {
        return Err(parse_err(format!("unsupported field type {:?}", h[3])));
    }
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry {other:?}"))),
    };
    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let mut it = size_line.split_whitespace();
    let n_rows: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad row count"))?;
    let n_cols: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad col count"))?;
    let nnz: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad nnz count"))?;
    // The counts are outside input: every index downstream is 32-bit, and
    // the triplets grow with the entries actually read, not the claimed nnz.
    if n_rows > u32::MAX as usize || n_cols > u32::MAX as usize {
        return Err(parse_err(format!(
            "{n_rows} x {n_cols} exceeds 32-bit indices"
        )));
    }
    let mut coo = CooMatrix::new(n_rows, n_cols);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad entry line: {t:?}")))?;
        let j: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad entry line: {t:?}")))?;
        let v: f64 = match it.next() {
            Some(s) => s
                .parse()
                .map_err(|_| parse_err(format!("bad value in {t:?}")))?,
            None => 1.0, // pattern-style line
        };
        if i == 0 || j == 0 || i > n_rows || j > n_cols {
            return Err(parse_err(format!("entry ({i},{j}) out of range")));
        }
        coo.push(i - 1, j - 1, v);
        if symmetric && i != j {
            coo.push(j - 1, i - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csr())
}

/// Writes a matrix in `matrix coordinate real general` form.
pub fn write_matrix_market<W: Write>(matrix: &CsrMatrix, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.n_rows(),
        matrix.n_cols(),
        matrix.nnz()
    )?;
    for i in 0..matrix.n_rows() {
        let (cols, vals) = matrix.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            writeln!(writer, "{} {} {:.17e}", i + 1, j + 1, v)?;
        }
    }
    Ok(())
}

/// Convenience: read from a file path.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<CsrMatrix, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Convenience: write to a file path.
pub fn write_matrix_market_file(matrix: &CsrMatrix, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_matrix_market(matrix, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip_general() {
        let a = gen::convection_diffusion_2d(5, 4, 3.0, -1.0);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..a.n_rows() {
            let (ca, va) = a.row(i);
            let (cb, vb) = b.row(i);
            assert_eq!(ca, cb);
            for (x, y) in va.iter().zip(vb) {
                assert!((x - y).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn reads_symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 1 -1.0\n\
                    2 2 2.0\n\
                    3 3 2.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 1), Some(-1.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
    }

    #[test]
    fn rejects_bad_header() {
        let text = "%%NotMatrixMarket nope\n1 1 0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn hostile_header_counts_are_parse_errors() {
        // Each once aborted or panicked before reading a single entry.
        let sizes = [
            ("general", "2 2 1000000000000".to_string()),
            ("general", format!("2 2 {}", 1u64 << 62)),
            ("general", format!("{} 2 0", usize::MAX)),
            ("general", format!("2 {} 0", usize::MAX)),
            ("general", format!("{} 1 0", 1u64 << 40)),
            ("symmetric", format!("2 2 {}", (1u64 << 63) + 1)),
        ];
        for (symmetry, size) in sizes {
            let text = format!("%%MatrixMarket matrix coordinate real {symmetry}\n{size}\n");
            let got = read_matrix_market(text.as_bytes());
            assert!(matches!(got, Err(MmError::Parse(_))), "{size}: {got:?}");
        }
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let a = gen::laplace_2d(3, 3);
        let dir = std::env::temp_dir().join("pilut_io_test.mtx");
        write_matrix_market_file(&a, &dir).unwrap();
        let b = read_matrix_market_file(&dir).unwrap();
        assert_eq!(a.nnz(), b.nnz());
        let _ = std::fs::remove_file(&dir);
    }
}
