//! Error type for the geometry layer.

use std::fmt;
use std::io;

/// Errors produced while loading, saving, or validating point data.
#[derive(Debug)]
pub enum GeomError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A CSV field failed to parse as `f64`.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// The raw field text.
        field: String,
    },
    /// A CSV field parsed to NaN or an infinity.
    NonFinite {
        /// 1-based line number of the offending record.
        line: usize,
        /// The raw field text.
        field: String,
    },
    /// A CSV record had the wrong number of fields.
    Arity {
        /// 1-based line number of the offending record.
        line: usize,
        /// Number of fields found.
        found: usize,
        /// Number of fields expected (the compile-time dimension).
        expected: usize,
    },
    /// A point contained NaN or infinite coordinates.
    Degenerate {
        /// Index of the offending point.
        index: usize,
    },
    /// An operation required a non-empty point-set.
    EmptySet,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::Io(e) => write!(f, "I/O error: {e}"),
            GeomError::Parse { line, field } => {
                write!(f, "line {line}: cannot parse {field:?} as a number")
            }
            GeomError::NonFinite { line, field } => {
                write!(f, "line {line}: coordinate {field:?} is not finite")
            }
            GeomError::Arity {
                line,
                found,
                expected,
            } => write!(
                f,
                "line {line}: expected {expected} coordinates, found {found}"
            ),
            GeomError::Degenerate { index } => {
                write!(f, "point {index} has NaN or infinite coordinates")
            }
            GeomError::EmptySet => write!(f, "operation requires a non-empty point-set"),
        }
    }
}

impl std::error::Error for GeomError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GeomError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GeomError {
    fn from(e: io::Error) -> Self {
        GeomError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GeomError::Arity {
            line: 3,
            found: 2,
            expected: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("line 3") && msg.contains('2') && msg.contains('4'));

        let e = GeomError::Parse {
            line: 7,
            field: "abc".into(),
        };
        assert!(e.to_string().contains("abc"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e = GeomError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
    }
}
