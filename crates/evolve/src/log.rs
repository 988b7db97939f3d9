//! The versioned delta-log format: a header plus timestamped batches of
//! edge inserts/deletes over a fixed vertex set.
//!
//! Like the TSV publication format, the log is a line-oriented text
//! artifact — auditable with `grep`, diffable in review — with a strict
//! parser that names the offending line on any error:
//!
//! ```text
//! OBFUDELTA v1 n=<n> batches=<b>
//! batch <timestamp> +<inserts> -<deletes>
//! + <u> <v>
//! - <u> <v>
//! ...
//! ```
//!
//! Timestamps must be non-decreasing across batches, every pair must be
//! canonical for the declared vertex count, and the per-batch operation
//! counts in the `batch` line must match the body — a truncated or
//! hand-edited log can never half-apply.
//!
//! The normative grammar lives in `docs/FORMATS.md` § "Delta logs
//! (OBFUDELTA v1)".

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use obf_graph::{EdgeBatch, Graph};

/// Magic first token of a delta log.
pub const DELTA_LOG_MAGIC: &str = "OBFUDELTA";

/// Current delta-log format version.
pub const DELTA_LOG_VERSION: u32 = 1;

/// Errors from delta-log reading.
#[derive(Debug)]
pub enum DeltaLogError {
    Io(std::io::Error),
    /// Malformed content, with the 1-based line number.
    Invalid {
        line: usize,
        msg: String,
    },
}

impl std::fmt::Display for DeltaLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaLogError::Io(e) => write!(f, "I/O error: {e}"),
            DeltaLogError::Invalid { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for DeltaLogError {}

impl From<std::io::Error> for DeltaLogError {
    fn from(e: std::io::Error) -> Self {
        DeltaLogError::Io(e)
    }
}

/// A validated delta log: the vertex count it applies to plus its
/// batches in timestamp order.
///
/// # Examples
///
/// ```
/// use obf_evolve::DeltaLog;
/// use obf_graph::EdgeBatch;
///
/// let log = DeltaLog::new(
///     4,
///     vec![
///         EdgeBatch::new(10, vec![(0, 2)], vec![]).unwrap(),
///         EdgeBatch::new(20, vec![(1, 3)], vec![(0, 2)]).unwrap(),
///     ],
/// )
/// .unwrap();
/// let mut buf = Vec::new();
/// log.write(&mut buf).unwrap();
/// assert_eq!(DeltaLog::read(&buf[..]).unwrap(), log);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaLog {
    n: usize,
    batches: Vec<EdgeBatch>,
}

impl DeltaLog {
    /// Validates vertex ranges and timestamp monotonicity. The batches
    /// themselves are already canonical by [`EdgeBatch`] construction.
    pub fn new(n: usize, batches: Vec<EdgeBatch>) -> Result<Self, String> {
        let mut last_ts = 0u64;
        for (i, b) in batches.iter().enumerate() {
            if i > 0 && b.timestamp < last_ts {
                return Err(format!(
                    "batch {i} timestamp {} decreases below {last_ts}",
                    b.timestamp
                ));
            }
            last_ts = b.timestamp;
            for &(u, v) in b.inserts.iter().chain(&b.deletes) {
                if v as usize >= n {
                    return Err(format!("batch {i} pair ({u},{v}) out of range for n={n}"));
                }
            }
        }
        Ok(Self { n, batches })
    }

    /// Vertex count of the graphs this log applies to.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The batches, in timestamp order.
    pub fn batches(&self) -> &[EdgeBatch] {
        &self.batches
    }

    /// Total edge operations across all batches.
    pub fn num_ops(&self) -> usize {
        self.batches.iter().map(|b| b.num_ops()).sum()
    }

    /// Replays every batch on `base`, returning one graph per release
    /// (`base` itself first).
    pub fn replay(&self, base: &Graph) -> Result<Vec<Graph>, String> {
        if base.num_vertices() != self.n {
            return Err(format!(
                "log is for n={} but base graph has n={}",
                self.n,
                base.num_vertices()
            ));
        }
        let mut out = Vec::with_capacity(self.batches.len() + 1);
        out.push(base.clone());
        for (i, b) in self.batches.iter().enumerate() {
            let next = out
                .last()
                .unwrap()
                .apply_batch(b)
                .map_err(|e| format!("batch {i}: {e}"))?;
            out.push(next);
        }
        Ok(out)
    }

    /// Serialises the log.
    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "{DELTA_LOG_MAGIC} v{DELTA_LOG_VERSION} n={} batches={}",
            self.n,
            self.batches.len()
        )?;
        for b in &self.batches {
            writeln!(
                w,
                "batch {} +{} -{}",
                b.timestamp,
                b.inserts.len(),
                b.deletes.len()
            )?;
            for &(u, v) in &b.inserts {
                writeln!(w, "+ {u} {v}")?;
            }
            for &(u, v) in &b.deletes {
                writeln!(w, "- {u} {v}")?;
            }
        }
        w.flush()
    }

    /// Parses a log, verifying header, per-batch counts, pair validity
    /// and timestamp order; errors carry the offending line number. A
    /// log that ends early names its last line (line 1 when empty).
    ///
    /// The declared counts come from outside bytes, so nothing is
    /// pre-sized from them: memory grows only with the lines actually
    /// read.
    pub fn read<R: Read>(r: R) -> Result<Self, DeltaLogError> {
        let invalid = |line: usize, msg: String| DeltaLogError::Invalid { line, msg };
        let mut lines = Lines::new(r);
        let header = lines
            .next_line()?
            .ok_or_else(|| invalid(1, "empty delta log".into()))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some(DELTA_LOG_MAGIC) {
            return Err(invalid(1, format!("not a delta log: {header:?}")));
        }
        match parts.next() {
            Some(v) if v == format!("v{DELTA_LOG_VERSION}") => {}
            other => {
                return Err(invalid(
                    1,
                    format!("unsupported version {other:?} (expected v{DELTA_LOG_VERSION})"),
                ))
            }
        }
        let n: usize = parse_kv(parts.next(), "n").map_err(|m| invalid(1, m))?;
        let declared: usize = parse_kv(parts.next(), "batches").map_err(|m| invalid(1, m))?;
        if parts.next().is_some() {
            return Err(invalid(1, "trailing tokens in header".into()));
        }

        let mut batches: Vec<EdgeBatch> = Vec::new();
        let mut last_ts = 0u64;
        while let Some(line) = lines.next_line()? {
            let lineno = lines.lineno;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("batch") {
                return Err(invalid(lineno, format!("expected a batch line: {line:?}")));
            }
            let ts: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| invalid(lineno, "invalid batch timestamp".into()))?;
            if ts < last_ts {
                return Err(invalid(
                    lineno,
                    format!("batch timestamp {ts} decreases below {last_ts}"),
                ));
            }
            last_ts = ts;
            let n_ins: usize = parse_count(parts.next(), '+').map_err(|m| invalid(lineno, m))?;
            let n_del: usize = parse_count(parts.next(), '-').map_err(|m| invalid(lineno, m))?;
            if parts.next().is_some() {
                return Err(invalid(lineno, "trailing tokens in batch line".into()));
            }
            let n_ops = n_ins
                .checked_add(n_del)
                .ok_or_else(|| invalid(lineno, "batch op counts overflow".into()))?;
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for _ in 0..n_ops {
                let op = lines
                    .next_line()?
                    .ok_or_else(|| invalid(lines.lineno, "log ends inside a batch body".into()))?;
                let lineno = lines.lineno;
                let mut parts = op.split_whitespace();
                let (sign, u, v) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(sign @ ("+" | "-")), Some(u), Some(v), None) => {
                        let vertex = |t: &str| {
                            t.parse::<u32>()
                                .ok()
                                .filter(|&x| (x as usize) < n)
                                .ok_or_else(|| {
                                    invalid(lineno, format!("invalid vertex {t:?} for n={n}"))
                                })
                        };
                        (sign, vertex(u)?, vertex(v)?)
                    }
                    _ => return Err(invalid(lineno, format!("malformed op line: {op:?}"))),
                };
                if sign == "+" {
                    inserts.push((u, v));
                } else {
                    deletes.push((u, v));
                }
            }
            if inserts.len() != n_ins || deletes.len() != n_del {
                return Err(invalid(
                    lines.lineno,
                    format!(
                        "batch declared +{n_ins} -{n_del} but carries +{} -{}",
                        inserts.len(),
                        deletes.len()
                    ),
                ));
            }
            let batch =
                EdgeBatch::new(ts, inserts, deletes).map_err(|m| invalid(lines.lineno, m))?;
            batches.push(batch);
        }
        if batches.len() != declared {
            return Err(invalid(
                lines.lineno,
                format!(
                    "header declared {declared} batches, found {}",
                    batches.len()
                ),
            ));
        }
        Ok(Self { n, batches })
    }

    /// Saves the log to a file path.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write(std::io::BufWriter::new(file))
    }

    /// Loads a log from a file path.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, DeltaLogError> {
        Self::read(std::fs::File::open(path)?)
    }
}

/// Newline-split reader that keeps the 1-based number of the last line
/// returned and turns a line that is not UTF-8 into a typed error at
/// that line, instead of the untyped I/O error `BufRead::lines` gives.
struct Lines<R> {
    inner: std::io::Split<BufReader<R>>,
    lineno: usize,
}

impl<R: Read> Lines<R> {
    fn new(r: R) -> Self {
        Self {
            inner: BufReader::new(r).split(b'\n'),
            lineno: 0,
        }
    }

    fn next_line(&mut self) -> Result<Option<String>, DeltaLogError> {
        let Some(bytes) = self.inner.next().transpose()? else {
            return Ok(None);
        };
        self.lineno += 1;
        String::from_utf8(bytes)
            .map(Some)
            .map_err(|e| DeltaLogError::Invalid {
                line: self.lineno,
                msg: format!("line is not valid UTF-8: {e}"),
            })
    }
}

fn parse_kv<T: std::str::FromStr>(token: Option<&str>, key: &str) -> Result<T, String> {
    token
        .and_then(|t| t.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("header missing {key}=<value>"))
}

fn parse_count(token: Option<&str>, sign: char) -> Result<usize, String> {
    token
        .and_then(|t| t.strip_prefix(sign))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("batch line missing {sign}<count>"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeltaLog {
        DeltaLog::new(
            5,
            vec![
                EdgeBatch::new(100, vec![(0, 1), (2, 4)], vec![]).unwrap(),
                EdgeBatch::new(200, vec![(1, 3)], vec![(0, 1)]).unwrap(),
                EdgeBatch::new(200, vec![], vec![(2, 4)]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let log = sample();
        let mut buf = Vec::new();
        log.write(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("OBFUDELTA v1 n=5 batches=3\n"), "{text}");
        assert_eq!(DeltaLog::read(&buf[..]).unwrap(), log);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("obf_evolve_log_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deltas.log");
        let log = sample();
        log.save(&path).unwrap();
        assert_eq!(DeltaLog::load(&path).unwrap(), log);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_applies_in_order() {
        let log = sample();
        let base = Graph::from_edges(5, &[(3, 4)]);
        let releases = log.replay(&base).unwrap();
        assert_eq!(releases.len(), 4);
        assert_eq!(
            *releases.last().unwrap(),
            Graph::from_edges(5, &[(3, 4), (1, 3)])
        );
        // Vertex-count mismatch is an error.
        assert!(log.replay(&Graph::empty(3)).is_err());
    }

    /// Reads `bytes`, turning a parser panic into a failure that names
    /// the input.
    fn read_unwinding(bytes: &[u8]) -> Result<DeltaLog, DeltaLogError> {
        std::panic::catch_unwind(|| DeltaLog::read(bytes))
            .unwrap_or_else(|_| panic!("parser panicked on {:?}", String::from_utf8_lossy(bytes)))
    }

    fn invalid_line(bytes: &[u8]) -> usize {
        match read_unwinding(bytes) {
            Err(DeltaLogError::Invalid { line, .. }) => line,
            other => panic!("{:?} gave {other:?}", String::from_utf8_lossy(bytes)),
        }
    }

    /// Truncation at every line boundary, a bit flip at every byte,
    /// non-UTF-8 lines and huge declared counts: every case is a typed
    /// `Invalid` error naming the offending line, and none panics.
    #[test]
    fn corruption_campaign_names_the_offending_line() {
        let mut text = Vec::new();
        sample().write(&mut text).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                text.iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let num_lines = line_starts.len() - 1;

        // A log cut after k whole lines names its last line (line 1
        // when empty).
        for (k, &end) in line_starts[..num_lines].iter().enumerate() {
            assert_eq!(invalid_line(&text[..end]), k.max(1), "cut after {k} lines");
        }

        // The format has no checksum, so a flip inside a number may
        // yield another well-formed log, and one that breaks a declared
        // count or the timestamp order surfaces on a later line. A flip
        // of any other byte is an error on its own line; a flip of the
        // final newline to a vertical tab is trailing whitespace.
        for at in 0..text.len() {
            let line = line_starts.partition_point(|&s| s <= at);
            for bit in 0..8 {
                let mut flipped = text.clone();
                flipped[at] ^= 1 << bit;
                match read_unwinding(&flipped) {
                    Ok(_) => assert!(
                        text[at].is_ascii_digit() || at == text.len() - 1,
                        "flip of bit {bit} at byte {at} went undetected"
                    ),
                    Err(DeltaLogError::Invalid { line: got, .. }) => {
                        if text[at].is_ascii_digit() {
                            assert!((line..=num_lines).contains(&got), "byte {at}: line {got}");
                        } else {
                            assert_eq!(got, line, "flip of bit {bit} at byte {at}");
                        }
                    }
                    Err(e) => panic!("flip of bit {bit} at byte {at} gave {e:?}"),
                }
            }
        }

        // A non-UTF-8 byte in the header, a batch line and an op line.
        for line in 1..=3 {
            let mut bad = text.clone();
            bad.insert(line_starts[line - 1] + 1, 0xff);
            assert_eq!(invalid_line(&bad), line, "0xff in line {line}");
        }

        // Declared counts far beyond the body must not size anything.
        let max = u64::MAX;
        let cases: &[(String, usize)] = &[
            (format!("OBFUDELTA v1 n=4 batches={max}\n"), 1),
            (
                format!("OBFUDELTA v1 n=4 batches={max}\nbatch 1 +1 -0\n+ 0 1\n"),
                3,
            ),
            (
                format!("OBFUDELTA v1 n=4 batches=1\nbatch 1 +{max} -0\n"),
                2,
            ),
            (
                format!("OBFUDELTA v1 n=4 batches=1\nbatch 1 +0 -{max}\n- 0 1\n"),
                3,
            ),
            (
                format!("OBFUDELTA v1 n=4 batches=1\nbatch 1 +{max} -{max}\n+ 0 1\n"),
                2,
            ),
            (
                format!("OBFUDELTA v1 n=4 batches=1\nbatch 1 +{max}0 -0\n"),
                2,
            ),
        ];
        for (log, want) in cases {
            assert_eq!(invalid_line(log.as_bytes()), *want, "log {log:?}");
        }
    }

    #[test]
    fn rejects_malformed_logs_with_line_numbers() {
        let cases: &[(&str, usize)] = &[
            ("", 1),
            ("NOPE v1 n=3 batches=0", 1),
            ("OBFUDELTA v9 n=3 batches=0", 1),
            ("OBFUDELTA v1 n=x batches=0", 1),
            ("OBFUDELTA v1 n=3 batches=0 extra", 1),
            ("OBFUDELTA v1 n=3 batches=1", 1),
            ("OBFUDELTA v1 n=3 batches=1\nbogus 1 +0 -0", 2),
            ("OBFUDELTA v1 n=3 batches=1\nbatch x +0 -0", 2),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0", 2),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0\n* 0 1", 3),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0\n+ 0 9", 3),
            ("OBFUDELTA v1 n=3 batches=1\nbatch 1 +1 -0\n+ 0 0", 3),
            (
                "OBFUDELTA v1 n=3 batches=2\nbatch 9 +1 -0\n+ 0 1\nbatch 3 +0 -0",
                4,
            ),
        ];
        for (text, want_line) in cases {
            match DeltaLog::read(text.as_bytes()) {
                Err(DeltaLogError::Invalid { line, .. }) => {
                    assert_eq!(line, *want_line, "log {text:?}")
                }
                other => panic!("log {text:?} gave {other:?}"),
            }
        }
    }
}
