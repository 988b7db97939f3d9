//! Wire protocol: length-prefixed UTF-8 lines.
//!
//! Every message — request or response — is a 4-byte little-endian
//! length followed by that many bytes of UTF-8 text (no trailing
//! newline). Responses start with `OK ` or `ERR `. The text layer keeps
//! the protocol greppable (`printf '\x04\x00\x00\x00PING' | nc ..`
//! works); the length prefix keeps framing trivial and rejects rogue
//! payloads before allocation.
//!
//! Requests:
//!
//! ```text
//! PING
//! INFO                         n, candidates, probability mass, pinned epoch;
//!                              the mass is scanned by the release's first
//!                              INFO and read back by later ones (O(1))
//! EXPECTED_DEGREE <v>          exact μ_v = Σ_{e∋v} p(e)
//! DEGREE_DIST <v>              exact Poisson-binomial row of v (Lemma 1)
//! NEIGHBORHOOD <v>             incident candidates as <target>:<prob>
//! EXPECTED <stat>              exact expectation via linearity (Section 6.2)
//!                              stat ∈ num_edges | avg_degree | degree_variance | triangles;
//!                              the release's first request per stat pays the
//!                              scan, later ones read the stored value (O(1))
//! STAT <stat> <worlds> <seed> [eps]
//!                              Monte-Carlo over worlds 0..<worlds> of the
//!                              <seed> stream (Eq. 9), Hoeffding bound
//!                              attached when [eps] is given (Lemma 2);
//!                              stat ∈ num_edges | avg_degree | max_degree |
//!                                     degree_variance | clustering
//! METRICS                      full metrics-registry dump: one
//!                              `name{labels} value` line per metric
//!                              (counters, gauges, histogram
//!                              count/sum/max/p50/p90/p99 expansions),
//!                              serving-core and world-memo counters
//!                              included
//! RELOAD <path>                admin: swap in a new release (snapshot or
//!                              TSV, auto-detected); bumps the serve
//!                              epoch, invalidates memoized worlds and
//!                              re-pins the issuing connection
//! HEALTH                       liveness probe: `OK ok epoch=<e> n=<n>`
//!                              about the server's current release
//! SHUTDOWN                     admin: stop accepting connections
//! QUIT
//! ```
//!
//! The normative verb/reply table lives in `docs/FORMATS.md` § "Server request/reply
//! protocol"; CI fails if a verb exists here but not there.

use std::io::{Read, Write};

use obf_uncertain::WorldStat;

/// Frames larger than this are a protocol error, not an allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Largest world count a single `STAT` query may demand.
pub const MAX_WORLDS: usize = 100_000;

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(mut w: W, text: &str) -> std::io::Result<()> {
    let bytes = text.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME);
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before the length prefix.
pub fn read_frame<R: Read>(mut r: R) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Statistics with a closed-form expectation (Section 6.2 linearity plus
/// the exact `E[S_DV]` and expected triangle count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactStat {
    NumEdges,
    AvgDegree,
    DegreeVariance,
    Triangles,
}

impl ExactStat {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "num_edges" => ExactStat::NumEdges,
            "avg_degree" => ExactStat::AvgDegree,
            "degree_variance" => ExactStat::DegreeVariance,
            "triangles" => ExactStat::Triangles,
            _ => return None,
        })
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Info,
    ExpectedDegree(u32),
    DegreeDist(u32),
    Neighborhood(u32),
    Expected(ExactStat),
    Stat {
        stat: WorldStat,
        worlds: usize,
        seed: u64,
        eps: Option<f64>,
    },
    /// Full metrics-registry dump in `name{labels} value` text form.
    Metrics,
    /// Admin: load the file at the path and swap it in as the new
    /// release.
    Reload(String),
    /// Liveness probe: the server's current epoch and vertex count.
    Health,
    /// Admin: stop the accept loop.
    Shutdown,
    Quit,
}

impl Request {
    /// Parses a request line; `Err` carries the message for the `ERR`
    /// reply.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut parts = line.split_whitespace();
        let verb = parts.next().ok_or("empty request")?;
        let req = match verb {
            "PING" => Request::Ping,
            "INFO" => Request::Info,
            "EXPECTED_DEGREE" => Request::ExpectedDegree(parse_vertex(parts.next())?),
            "DEGREE_DIST" => Request::DegreeDist(parse_vertex(parts.next())?),
            "NEIGHBORHOOD" => Request::Neighborhood(parse_vertex(parts.next())?),
            "EXPECTED" => {
                let name = parts.next().ok_or("EXPECTED needs a statistic name")?;
                Request::Expected(
                    ExactStat::parse(name)
                        .ok_or_else(|| format!("unknown exact statistic {name:?}"))?,
                )
            }
            "STAT" => {
                let name = parts.next().ok_or("STAT needs a statistic name")?;
                let stat = WorldStat::parse(name)
                    .ok_or_else(|| format!("unknown sampled statistic {name:?}"))?;
                let worlds: usize = parts
                    .next()
                    .ok_or("STAT needs a world count")?
                    .parse()
                    .map_err(|_| "invalid world count".to_string())?;
                if worlds == 0 || worlds > MAX_WORLDS {
                    return Err(format!("world count must be in 1..={MAX_WORLDS}"));
                }
                let seed: u64 = parts
                    .next()
                    .ok_or("STAT needs a seed")?
                    .parse()
                    .map_err(|_| "invalid seed".to_string())?;
                let eps = match parts.next() {
                    None => None,
                    Some(raw) => {
                        let eps: f64 = raw.parse().map_err(|_| "invalid eps".to_string())?;
                        if !eps.is_finite() || eps <= 0.0 {
                            return Err("eps must be a positive finite number".into());
                        }
                        Some(eps)
                    }
                };
                Request::Stat {
                    stat,
                    worlds,
                    seed,
                    eps,
                }
            }
            "METRICS" => Request::Metrics,
            "RELOAD" => {
                let path = parts.next().ok_or("RELOAD needs a file path")?;
                Request::Reload(path.to_string())
            }
            "HEALTH" => Request::Health,
            "SHUTDOWN" => Request::Shutdown,
            "QUIT" => Request::Quit,
            other => return Err(format!("unknown request {other:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing arguments after {verb}"));
        }
        Ok(req)
    }

    /// The canonical verb of this request — the metric label the
    /// serving core files its per-verb counters and latency histograms
    /// under. Every name here appears in [`Request::VERBS`].
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "PING",
            Request::Info => "INFO",
            Request::ExpectedDegree(_) => "EXPECTED_DEGREE",
            Request::DegreeDist(_) => "DEGREE_DIST",
            Request::Neighborhood(_) => "NEIGHBORHOOD",
            Request::Expected(_) => "EXPECTED",
            Request::Stat { .. } => "STAT",
            Request::Metrics => "METRICS",
            Request::Reload(_) => "RELOAD",
            Request::Health => "HEALTH",
            Request::Shutdown => "SHUTDOWN",
            Request::Quit => "QUIT",
        }
    }

    /// Every canonical verb, plus [`INVALID_VERB`] — the fixed label
    /// space of per-verb metrics (bounded by construction, so a
    /// malformed flood cannot mint unbounded metric names).
    pub const VERBS: &'static [&'static str] = &[
        "PING",
        "INFO",
        "EXPECTED_DEGREE",
        "DEGREE_DIST",
        "NEIGHBORHOOD",
        "EXPECTED",
        "STAT",
        "METRICS",
        "RELOAD",
        "HEALTH",
        "SHUTDOWN",
        "QUIT",
        INVALID_VERB,
    ];
}

/// The verb label filed for request lines that fail to parse.
pub const INVALID_VERB: &str = "INVALID";

fn parse_vertex(raw: Option<&str>) -> Result<u32, String> {
    raw.ok_or("missing vertex id")?
        .parse()
        .map_err(|_| "invalid vertex id".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(Request::parse("PING"), Ok(Request::Ping));
        assert_eq!(Request::parse("INFO"), Ok(Request::Info));
        assert_eq!(
            Request::parse("EXPECTED_DEGREE 7"),
            Ok(Request::ExpectedDegree(7))
        );
        assert_eq!(Request::parse("DEGREE_DIST 0"), Ok(Request::DegreeDist(0)));
        assert_eq!(
            Request::parse("NEIGHBORHOOD 3"),
            Ok(Request::Neighborhood(3))
        );
        assert_eq!(
            Request::parse("EXPECTED degree_variance"),
            Ok(Request::Expected(ExactStat::DegreeVariance))
        );
        assert_eq!(
            Request::parse("STAT clustering 10 42"),
            Ok(Request::Stat {
                stat: WorldStat::Clustering,
                worlds: 10,
                seed: 42,
                eps: None
            })
        );
        assert_eq!(
            Request::parse("STAT num_edges 100 7 0.5"),
            Ok(Request::Stat {
                stat: WorldStat::NumEdges,
                worlds: 100,
                seed: 7,
                eps: Some(0.5)
            })
        );
        assert_eq!(Request::parse("METRICS"), Ok(Request::Metrics));
        assert_eq!(
            Request::parse("RELOAD /tmp/release1.snap"),
            Ok(Request::Reload("/tmp/release1.snap".into()))
        );
        assert_eq!(Request::parse("HEALTH"), Ok(Request::Health));
        assert_eq!(Request::parse("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "BOGUS",
            "EXPECTED_DEGREE",
            "EXPECTED_DEGREE x",
            "EXPECTED nope",
            "STAT clustering",
            "STAT clustering 0 1",
            "STAT clustering 10",
            "STAT clustering 10 x",
            "STAT clustering 10 1 -0.5",
            "STAT clustering 10 1 nan",
            "STAT nope 10 1",
            "PING extra",
            "RELOAD",
            "RELOAD two paths",
            "CACHE_STATS",
            "SERVER_STATS",
            "HEALTH check",
            "SHUTDOWN now",
            "METRICS now",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Request::parse(&format!("STAT num_edges {} 1", MAX_WORLDS + 1)).is_err());
    }

    #[test]
    fn verb_labels_are_canonical_and_bounded() {
        for line in [
            "PING",
            "INFO",
            "EXPECTED_DEGREE 7",
            "DEGREE_DIST 0",
            "NEIGHBORHOOD 3",
            "EXPECTED num_edges",
            "STAT num_edges 1 1",
            "METRICS",
            "RELOAD /p",
            "HEALTH",
            "SHUTDOWN",
            "QUIT",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.verb(), line.split_whitespace().next().unwrap());
            assert!(Request::VERBS.contains(&req.verb()), "{line}");
        }
        assert!(Request::VERBS.contains(&INVALID_VERB));
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "HELLO world").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("HELLO world"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(read_frame(&buf[..]).is_err());
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&buf[..]).is_err());
    }
}
