//! The `OBFUREQLOG v1` structured request log.
//!
//! A request log is a plain-text file: a header line, then one
//! tab-separated record per answered request, in answer order:
//!
//! ```text
//! OBFUREQLOG v1
//! <ts_micros> TAB <trace_id:016x> TAB <verb> TAB <args|-> TAB <hash:016x> TAB <ok|err> TAB <micros>
//! ```
//!
//! * `ts_micros` — wall-clock microseconds since the Unix epoch when
//!   the request was answered.
//! * `trace_id` — the request's trace id, 16 lowercase hex digits.
//! * `verb` — the request verb (`STAT`, `EXPECTED_DEGREE`, …), or
//!   `INVALID` for lines that failed to parse.
//! * `args` — the rest of the request line after the verb, verbatim
//!   (request lines are single-line, space-separated text and contain
//!   no tabs); `-` when the verb takes no arguments.
//! * `hash` — FNV-1a 64 over the full request line bytes, 16 lowercase
//!   hex digits. Lets a replayer detect corrupted records.
//! * `ok|err` — whether the reply line started `OK`.
//! * `micros` — answer-handling duration in microseconds.
//!
//! The normative spec lives in `docs/FORMATS.md` § "Request logs";
//! the P1 `formats-doc` audit rule lexes the magic out of this file.
//!
//! The format is replayable: `verb` + `args` reconstruct the exact
//! request line, so `loadgen --replay <log>` can re-drive a recorded
//! mix. Parsing reports the offending 1-based line number on any
//! malformed record, matching the workspace IO-error convention.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// File magic of a request log (first header token).
pub const REQLOG_MAGIC: &str = "OBFUREQLOG";

/// Current request-log format version.
pub const REQLOG_VERSION: u32 = 1;

/// The exact header line of a version-1 log.
pub fn header_line() -> String {
    format!("{REQLOG_MAGIC} v{REQLOG_VERSION}")
}

/// FNV-1a 64-bit over a byte string — the same hash family the bench
/// harness uses for answer digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reply status recorded for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqStatus {
    Ok,
    Err,
}

impl ReqStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            ReqStatus::Ok => "ok",
            ReqStatus::Err => "err",
        }
    }
}

/// One parsed request-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqLogEntry {
    pub ts_micros: u64,
    pub trace: u64,
    pub verb: String,
    /// Argument tail of the request line (empty when the verb takes no
    /// arguments; serialised as `-`).
    pub args: String,
    pub args_hash: u64,
    pub status: ReqStatus,
    pub micros: u64,
}

impl ReqLogEntry {
    /// Reconstruct the request line this record was logged for.
    pub fn request_line(&self) -> String {
        if self.args.is_empty() {
            self.verb.clone()
        } else {
            format!("{} {}", self.verb, self.args)
        }
    }

    /// Serialise as one log line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{:016x}\t{}\t{}\t{:016x}\t{}\t{}",
            self.ts_micros,
            self.trace,
            self.verb,
            if self.args.is_empty() {
                "-"
            } else {
                &self.args
            },
            self.args_hash,
            self.status.as_str(),
            self.micros
        )
    }

    /// Parse one record line. Errors name what is wrong; the caller
    /// prefixes the line number.
    pub fn parse(line: &str) -> Result<ReqLogEntry, String> {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 7 {
            return Err(format!(
                "expected 7 tab-separated fields, got {}",
                fields.len()
            ));
        }
        let ts_micros = fields[0]
            .parse::<u64>()
            .map_err(|_| format!("bad timestamp `{}`", fields[0]))?;
        let trace = u64::from_str_radix(fields[1], 16)
            .map_err(|_| format!("bad trace id `{}`", fields[1]))?;
        let verb = fields[2].to_string();
        if verb.is_empty() {
            return Err("empty verb".to_string());
        }
        let args = if fields[3] == "-" {
            String::new()
        } else {
            fields[3].to_string()
        };
        let args_hash = u64::from_str_radix(fields[4], 16)
            .map_err(|_| format!("bad request hash `{}`", fields[4]))?;
        let status = match fields[5] {
            "ok" => ReqStatus::Ok,
            "err" => ReqStatus::Err,
            other => return Err(format!("bad status `{other}` (expected ok|err)")),
        };
        let micros = fields[6]
            .parse::<u64>()
            .map_err(|_| format!("bad duration `{}`", fields[6]))?;
        let entry = ReqLogEntry {
            ts_micros,
            trace,
            verb,
            args,
            args_hash,
            status,
            micros,
        };
        let expect = fnv1a(entry.request_line().as_bytes());
        if expect != entry.args_hash {
            return Err(format!(
                "request hash mismatch: recorded {:016x}, recomputed {expect:016x} \
                 (corrupted record?)",
                entry.args_hash
            ));
        }
        Ok(entry)
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqLogError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ReqLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReqLogError {}

/// Parse a whole log text (header + records). Blank trailing lines are
/// tolerated; anything else malformed is an error naming its line.
pub fn parse_log(text: &str) -> Result<Vec<ReqLogEntry>, ReqLogError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == header_line() => {}
        Some((_, h)) => {
            return Err(ReqLogError {
                line: 1,
                message: format!("bad header `{h}` (expected `{}`)", header_line()),
            })
        }
        None => {
            return Err(ReqLogError {
                line: 1,
                message: "empty file (expected OBFUREQLOG header)".to_string(),
            })
        }
    }
    let mut out = Vec::new();
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let entry = ReqLogEntry::parse(line).map_err(|message| ReqLogError {
            line: idx + 1,
            message,
        })?;
        out.push(entry);
    }
    Ok(out)
}

/// Appending writer for a request log. Serialisation of concurrent
/// writers is a `Mutex` — request logging is explicitly opt-in
/// (`--request-log`) and off the default hot path.
///
/// The file is unbuffered: each record reaches the kernel by one
/// `write_all` of its whole line before [`ReqLogWriter::log`] returns, so
/// a killed process keeps every record it had logged.
#[derive(Debug)]
pub struct ReqLogWriter {
    inner: Mutex<File>,
}

impl ReqLogWriter {
    /// Create (truncate) a log file and write the header, so the file
    /// is a valid (empty) log from the moment it exists.
    pub fn create(path: &Path) -> std::io::Result<ReqLogWriter> {
        let mut f = File::create(path)?;
        f.write_all(format!("{}\n", header_line()).as_bytes())?;
        Ok(ReqLogWriter {
            inner: Mutex::new(f),
        })
    }

    /// Append one record. Write errors after creation are swallowed:
    /// a full disk must degrade the log, never the serving path.
    pub fn log(&self, entry: &ReqLogEntry) {
        let line = format!("{}\n", entry.to_line());
        if let Ok(mut f) = self.inner.lock() {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(verb: &str, args: &str) -> ReqLogEntry {
        let line = if args.is_empty() {
            verb.to_string()
        } else {
            format!("{verb} {args}")
        };
        ReqLogEntry {
            ts_micros: 1_700_000_000_000_000,
            trace: 0x2a,
            verb: verb.to_string(),
            args: args.to_string(),
            args_hash: fnv1a(line.as_bytes()),
            status: ReqStatus::Ok,
            micros: 123,
        }
    }

    #[test]
    fn roundtrip_with_and_without_args() {
        for e in [entry("PING", ""), entry("STAT", "expected_degree 7")] {
            let parsed = ReqLogEntry::parse(&e.to_line()).unwrap();
            assert_eq!(parsed, e);
            assert_eq!(
                parsed.request_line(),
                if e.args.is_empty() {
                    e.verb.clone()
                } else {
                    format!("{} {}", e.verb, e.args)
                }
            );
        }
    }

    #[test]
    fn parse_log_reports_line_numbers() {
        let good = entry("PING", "").to_line();
        let text = format!("{}\n{good}\nnot a record\n", header_line());
        let err = parse_log(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("7 tab-separated fields"), "{err}");

        let bad_header = "OBFUREQLOG v9\n";
        let err = parse_log(bad_header).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bad header"), "{err}");
    }

    #[test]
    fn parse_rejects_corrupted_hash() {
        let mut e = entry("STAT", "expected_degree 7");
        e.args = "expected_degree 8".to_string(); // hash no longer matches
        let err = ReqLogEntry::parse(&e.to_line()).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn writer_then_parse_roundtrips() {
        let dir = std::env::temp_dir().join(format!("obf_obs_reqlog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("req.log");
        let w = ReqLogWriter::create(&path).unwrap();
        let a = entry("PING", "");
        let b = entry("EXPECTED_DEGREE", "3");
        w.log(&a);
        w.log(&b);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_log(&text).unwrap();
        assert_eq!(parsed, vec![a, b]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
