//! Deterministic serving traffic shared by `loadgen` and the serving
//! tests: the published graph, the mixed query stream, the FNV answers
//! digest, and the small scraping/parsing utilities around them.
//!
//! The digest contract: [`probe_digest`] is a pure function of
//! `(seed, worlds, probe_len, served n, the served graph's answers)`.
//! Any way of answering — `ServerState::answer` called directly, the
//! event loop at any shard count or poller — must produce the same
//! digest for the same published graph, which is how CI pins "the
//! transport may change, the answers may not".

use obf_datasets::{Dataset, DatasetSpec};
use obf_server::{Client, WorldStat};
use obf_uncertain::UncertainGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The graph `loadgen` serves: a synthetic dblp-shaped graph of
/// `scale` × the dataset's default size (at least 200 vertices), each
/// edge published as a candidate with a seeded probability in
/// `[0.2, 1)`. At scale 0.05 and the harness's default seed it is the
/// graph behind the pinned answers digest.
pub fn published_graph(scale: f64, seed: u64) -> UncertainGraph {
    let n = ((Dataset::Dblp.default_scale() as f64 * scale) as usize).max(200);
    let base = DatasetSpec::synthetic(Dataset::Dblp, n, seed).graph;
    let mut prng = SmallRng::seed_from_u64(seed ^ 0x5e4e);
    let cands: Vec<(u32, u32, f64)> = base
        .edges()
        .map(|(u, v)| (u, v, 0.2 + 0.8 * prng.gen::<f64>()))
        .collect();
    UncertainGraph::new(base.num_vertices(), cands).expect("edges are valid candidates")
}

/// The mixed traffic: a pure function of `(seed, index, served n)` so
/// every run with the same seed against the same graph issues the same
/// queries in the same per-connection order. Exact queries dominate
/// (they are the cheap hot path); sampled statistics reuse a handful of
/// seeds so the world cache sees real sharing.
pub fn mixed_query(seed: u64, i: usize, worlds: usize, n: u64) -> String {
    let h = obf_graph::splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let v = (h >> 8) % n.max(1);
    match h % 10 {
        0 | 1 => format!("EXPECTED_DEGREE {v}"),
        2 | 3 => format!("DEGREE_DIST {v}"),
        4 | 5 => format!("NEIGHBORHOOD {v}"),
        6 => "EXPECTED num_edges".to_string(),
        7 => "EXPECTED degree_variance".to_string(),
        8 => {
            let stat = WorldStat::ALL[(h >> 16) as usize % WorldStat::ALL.len()];
            let r = (worlds.max(2) / 2) + (h >> 24) as usize % worlds.max(2);
            format!(
                "STAT {} {} {}",
                stat.name(),
                r.clamp(1, 200),
                seed ^ (h % 4)
            )
        }
        _ => "INFO".to_string(),
    }
}

/// Runs the `probe_len`-query determinism probe through `ask` (one
/// connection's requests, or direct calls into a server state) and
/// folds every `(query, reply)` pair into an FNV-1a digest. Returns the
/// 16-hex-digit digest string plus the count of non-`OK` replies (each
/// also reported on stderr).
pub fn probe_digest(
    mut ask: impl FnMut(&str) -> String,
    seed: u64,
    worlds: usize,
    probe_len: usize,
    served_n: u64,
) -> (String, usize) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut errors = 0usize;
    for i in 0..probe_len {
        let q = mixed_query(seed, i, worlds, served_n);
        let reply = ask(&q);
        if !reply.starts_with("OK ") {
            errors += 1;
            eprintln!("[probe protocol error on {q:?}: {reply}]");
        }
        for b in q.bytes().chain([b'\n']).chain(reply.bytes()).chain([b'\n']) {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (format!("{digest:016x}"), errors)
}

/// The server's `METRICS` dump, scraped over `client`: the text after
/// the `OK metrics` line, one `name value` line per series (read values
/// back with [`obf_obs::metrics::text_value`]).
pub fn scrape_metrics(client: &mut Client) -> std::io::Result<String> {
    let reply = client.request("METRICS")?;
    reply
        .strip_prefix("OK metrics\n")
        .map(str::to_string)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected METRICS reply: {reply}"),
            )
        })
}

/// Latency percentile in milliseconds over a *sorted* slice of
/// nanosecond samples.
pub fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// `key=value` scraping from a protocol reply.
pub fn field_f64(reply: &str, key: &str) -> Option<f64> {
    reply
        .split(key)
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `5s` / `2.5s` / `500ms` / bare seconds.
pub fn parse_duration(raw: &str) -> Option<Duration> {
    let (num, scale) = if let Some(ms) = raw.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(s) = raw.strip_suffix('s') {
        (s, 1.0)
    } else {
        (raw, 1.0)
    };
    let secs: f64 = num.parse().ok()?;
    if !secs.is_finite() || secs <= 0.0 {
        return None;
    }
    Some(Duration::from_secs_f64(secs * scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_query_is_deterministic_and_in_range() {
        for i in 0..200 {
            let a = mixed_query(7, i, 10, 50);
            let b = mixed_query(7, i, 10, 50);
            assert_eq!(a, b);
            if let Some(rest) = a
                .strip_prefix("EXPECTED_DEGREE ")
                .or_else(|| a.strip_prefix("DEGREE_DIST "))
                .or_else(|| a.strip_prefix("NEIGHBORHOOD "))
            {
                let v: u64 = rest.parse().unwrap();
                assert!(v < 50, "vertex {v} out of served range in {a:?}");
            }
        }
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[2_000_000], 0.99), 2.0);
        let sorted = [1_000_000, 2_000_000, 3_000_000];
        assert_eq!(percentile_ms(&sorted, 0.0), 1.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 3.0);
    }

    #[test]
    fn field_scraping() {
        let reply = "OK n=42 candidates=7 hit_rate=0.93";
        assert_eq!(field_f64(reply, "n="), Some(42.0));
        assert_eq!(field_f64(reply, "hit_rate="), Some(0.93));
        assert_eq!(field_f64(reply, "absent="), None);
    }

    #[test]
    fn durations_parse_or_reject() {
        assert_eq!(parse_duration("5s"), Some(Duration::from_secs(5)));
        assert_eq!(parse_duration("500ms"), Some(Duration::from_millis(500)));
        assert_eq!(parse_duration("2.5"), Some(Duration::from_secs_f64(2.5)));
        assert_eq!(parse_duration("-1s"), None);
        assert_eq!(parse_duration("abc"), None);
    }
}
