//! Typed CLI errors.
//!
//! Every failure carries the context a user needs to act on it: the file
//! path for I/O and parse errors, the subcommand name for dispatch
//! failures, and the underlying [`CoreError`] for model-layer rejections.
//! `main` prints these via `Display`, so the rendered messages stay
//! byte-compatible with the old stringly-typed errors where possible.

use std::fmt;
use std::io;

use upskill_core::error::CoreError;
use upskill_serve::ServeError;

/// An error surfaced by the `upskill` command-line tool.
#[derive(Debug)]
pub enum CliError {
    /// Reading or writing a file failed.
    Io {
        /// What we were doing ("read" or "write").
        op: &'static str,
        /// The file involved.
        path: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A JSON artifact failed to deserialize.
    Parse {
        /// The file that failed to parse.
        path: String,
        /// Parser diagnostic.
        detail: String,
    },
    /// A dataset file parsed but breaks a dataset invariant (unsorted
    /// sequence, unknown item, schema mismatch).
    InvalidData {
        /// The offending file.
        path: String,
        /// The violated invariant.
        source: CoreError,
    },
    /// An artifact failed to serialize (pre-write).
    Serialize {
        /// The output file the artifact was destined for.
        path: String,
        /// Serializer diagnostic.
        detail: String,
    },
    /// The core library rejected the operation.
    Core(CoreError),
    /// The serving layer rejected the operation.
    Serve(ServeError),
    /// Bad command line: unknown command or flag, missing or unparsable
    /// value. The message includes usage help where appropriate.
    Usage(String),
    /// Wraps a failure with the subcommand it occurred in.
    Command {
        /// The subcommand that failed.
        command: String,
        /// The underlying failure.
        source: Box<CliError>,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io { op, path, source } => write!(f, "cannot {op} {path}: {source}"),
            CliError::Parse { path, detail } => write!(f, "cannot parse {path}: {detail}"),
            CliError::InvalidData { path, source } => write!(f, "invalid dataset {path}: {source}"),
            CliError::Serialize { path, detail } => {
                write!(f, "cannot serialize {path}: {detail}")
            }
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Command { command, source } => write!(f, "{command}: {source}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::InvalidData { source, .. } | CliError::Core(source) => Some(source),
            CliError::Serve(e) => Some(e),
            CliError::Command { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = CliError::Io {
            op: "read",
            path: "data.json".into(),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        let msg = e.to_string();
        assert!(msg.contains("read"), "{msg}");
        assert!(msg.contains("data.json"), "{msg}");

        let wrapped = CliError::Command {
            command: "train".into(),
            source: Box::new(CliError::Usage("missing required flag --data".into())),
        };
        let msg = wrapped.to_string();
        assert!(msg.starts_with("train: "), "{msg}");
        assert!(msg.contains("--data"), "{msg}");
    }

    #[test]
    fn source_chain_reaches_core_error() {
        use std::error::Error;
        let e = CliError::Command {
            command: "sweep".into(),
            source: Box::new(CliError::Core(CoreError::InvalidSkillCount {
                requested: 0,
            })),
        };
        let inner = e.source().and_then(|s| s.source());
        assert!(inner.is_some());
        assert!(inner.unwrap().to_string().contains("skill"));
    }
}
