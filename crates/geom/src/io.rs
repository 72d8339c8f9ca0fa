//! Minimal CSV input/output for point-sets.
//!
//! The format is one point per line, `D` comma-separated floating-point
//! fields, optional `#`-prefixed comment lines and one optional non-numeric
//! header line. This is deliberately small: the workspace's datasets are
//! synthetic, and real users can export from any GIS tool in this form.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{GeomError, Point, PointSet};

/// Reads a `D`-dimensional point-set from a CSV file.
///
/// The dataset name is taken from the file stem.
pub fn read_csv<const D: usize>(path: impl AsRef<Path>) -> Result<PointSet<D>, GeomError> {
    let path = path.as_ref();
    let file = File::open(path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_owned());
    let set = read_csv_reader(BufReader::new(file))?;
    Ok(set.with_name(name))
}

/// Reads a point-set from any reader (see module docs for the format).
pub fn read_csv_reader<const D: usize, R: Read>(reader: R) -> Result<PointSet<D>, GeomError> {
    let mut points = Vec::new();
    let buf = BufReader::new(reader);
    for (idx, line) in buf.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        // Allow a single header line: if the very first data-bearing line is
        // entirely non-numeric, skip it.
        let numeric = fields.iter().all(|f| f.parse::<f64>().is_ok());
        if !numeric && points.is_empty() {
            continue;
        }
        if fields.len() != D {
            return Err(GeomError::Arity {
                line: line_no,
                found: fields.len(),
                expected: D,
            });
        }
        let mut coords = [0.0; D];
        for (c, f) in coords.iter_mut().zip(fields.iter()) {
            *c = f.parse::<f64>().map_err(|_| GeomError::Parse {
                line: line_no,
                field: (*f).to_owned(),
            })?;
        }
        points.push(Point(coords));
    }
    Ok(PointSet::new("unnamed", points))
}

/// Writes a point-set to a CSV file (no header, full float precision).
pub fn write_csv<const D: usize>(
    path: impl AsRef<Path>,
    set: &PointSet<D>,
) -> Result<(), GeomError> {
    let file = File::create(path)?;
    write_csv_writer(BufWriter::new(file), set)
}

/// Writes a point-set to any writer.
pub fn write_csv_writer<const D: usize, W: Write>(
    mut w: W,
    set: &PointSet<D>,
) -> Result<(), GeomError> {
    for p in set.iter() {
        let mut first = true;
        for i in 0..D {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            // RFC-compatible shortest roundtrip representation.
            write!(w, "{}", p[i])?;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_points() {
        let set = PointSet::new(
            "t",
            vec![Point([1.5, -2.25]), Point([0.1, 0.2]), Point([1e-10, 1e10])],
        );
        let mut buf = Vec::new();
        write_csv_writer(&mut buf, &set).unwrap();
        let back: PointSet<2> = read_csv_reader(&buf[..]).unwrap();
        assert_eq!(back.points(), set.points());
    }

    #[test]
    fn comments_blank_lines_and_header_are_skipped() {
        let text = "# a comment\nx,y\n\n1.0, 2.0\n3.0,4.0\n";
        let set: PointSet<2> = read_csv_reader(text.as_bytes()).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.points()[0].coords(), [1.0, 2.0]);
    }

    #[test]
    fn wrong_arity_is_reported_with_line_number() {
        let text = "1.0,2.0\n1.0,2.0,3.0\n";
        let err = read_csv_reader::<2, _>(text.as_bytes()).unwrap_err();
        match err {
            GeomError::Arity {
                line,
                found,
                expected,
            } => {
                assert_eq!((line, found, expected), (2, 3, 2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_number_after_data_starts_is_an_error() {
        let text = "1.0,2.0\nfoo,3.0\n";
        let err = read_csv_reader::<2, _>(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GeomError::Parse { line: 2, .. }));
    }

    #[test]
    fn empty_input_gives_empty_set() {
        let set: PointSet<3> = read_csv_reader("".as_bytes()).unwrap();
        assert!(set.is_empty());
    }

    /// A scratch directory owned by one test and removed when dropped
    /// (also on panic), so concurrent test runs never share files.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// A fresh directory named from the test, the process and a counter.
    fn tmpdir(test: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("sjpl_geom_{test}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        TempDir(d)
    }

    #[test]
    fn file_roundtrip_and_name_from_stem() {
        let dir = tmpdir("file_roundtrip_and_name_from_stem");
        let path = dir.0.join("mydata.csv");
        let set = PointSet::new("ignored", vec![Point([1.0, 2.0, 3.0, 4.0])]);
        write_csv(&path, &set).unwrap();
        let back: PointSet<4> = read_csv(&path).unwrap();
        assert_eq!(back.name(), "mydata");
        assert_eq!(back.points(), set.points());
    }
}
