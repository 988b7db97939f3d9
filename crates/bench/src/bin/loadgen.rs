//! `loadgen`: drive mixed query traffic against an `obf_server` and
//! record the serving bench trajectory (`results/BENCH_server.json`).
//!
//! By default it stands up the whole pipeline in one process: synthesise
//! the 0.05-scale dblp-like graph, publish it as an uncertain graph,
//! write both the TSV and the binary snapshot (timing the two load
//! paths against each other), spawn an in-process `obf_server` on an
//! ephemeral port, and hammer it with `--connections` concurrent
//! connections for `--duration`. Pass `--addr` to aim at an external
//! server instead.
//!
//! Determinism: before the timed phase, one connection runs a fixed
//! 64-query probe script (a pure function of the seed) and folds every
//! `(query, answer)` pair into an FNV digest. Two runs with the same
//! `--seed` report the bit-identical `answers_digest` — throughput and
//! latency may differ, the answers may not. `--shards N` serves the
//! same graph from N event loops in the one server; the digest must not
//! depend on N, and `--expect-digest` turns a drift into a non-zero
//! exit.
//!
//! Observability: `--request-log <path>` makes the in-process server
//! append an `OBFUREQLOG v1` record per answered request, and
//! `--replay <log>` re-drives a recorded log as the timed traffic mix
//! (reporting a `replay_digest` over the `(request, reply)` pairs in
//! log order, written to `results/BENCH_replay.json`). After the timed
//! phase the server's `METRICS` text is always dumped to
//! `results/METRICS.txt`, and the cache figures in the bench record
//! are read from it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obf_bench::json::Json;
use obf_bench::traffic::{
    field_f64, mixed_query, parse_duration, percentile_ms, probe_digest, published_graph,
    scrape_metrics,
};
use obf_bench::HarnessConfig;
use obf_obs::metrics::text_value;
use obf_server::{Client, Server, ServerConfig};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "usage:
  loadgen [--connections 4] [--duration 5s] [--addr host:port] [--probe 64]
          [--shards 1] [--expect-digest <hex>]
          [--open-loop-points 6] [--open-loop-secs 600ms]
          [--request-log <path>] [--replay <log>]
options:
  --connections <N>        concurrent client connections (default 4)
  --duration <D>           timed-phase length, e.g. 5s / 2.5s / 500ms (default 5s)
  --addr <host:port>       drive an external server instead of an in-process one
  --probe <N>              probe-script length for the determinism digest (default 64)
  --shards <N>             event loops in the in-process server (default 1);
                           conflicts with --addr
  --expect-digest <hex>    exit non-zero unless answers_digest equals this value
  --open-loop-points <N>   offered-load sweep points after the closed-loop
                           phase, 0 disables the sweep (default 6)
  --open-loop-secs <D>     offered-arrival window per sweep point (default 600ms)
  --request-log <path>     the in-process server appends an OBFUREQLOG v1 record
                           per answered request; conflicts with --addr
  --replay <log>           re-drive a recorded OBFUREQLOG v1 log as the timed
                           traffic (admin verbs are skipped; --duration and the
                           open-loop sweep do not apply; results go to
                           results/BENCH_replay.json with a replay_digest over
                           the (request, reply) pairs in log order)";

fn main() {
    if obf_bench::help_requested() {
        println!("loadgen: serving benchmark against obf_server");
        println!("{USAGE}");
        println!("{}", obf_bench::HARNESS_USAGE);
        return;
    }
    reject_unknown_flags();
    let cfg = HarnessConfig::init();
    let connections = match arg_value("--connections") {
        None => 4usize,
        Some(v) => v.parse().unwrap_or_else(|_| bad_flag("--connections", &v)),
    };
    let duration = match arg_value("--duration") {
        None => Duration::from_secs(5),
        Some(v) => parse_duration(&v).unwrap_or_else(|| bad_flag("--duration", &v)),
    };
    let probe_len = match arg_value("--probe") {
        None => 64usize,
        Some(v) => v.parse().unwrap_or_else(|_| bad_flag("--probe", &v)),
    };
    let open_loop_points = match arg_value("--open-loop-points") {
        None => 6usize,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bad_flag("--open-loop-points", &v)),
    };
    let open_loop_secs = match arg_value("--open-loop-secs") {
        None => Duration::from_millis(600),
        Some(v) => parse_duration(&v).unwrap_or_else(|| bad_flag("--open-loop-secs", &v)),
    };
    let shards_flag = arg_value("--shards");
    let shards = match &shards_flag {
        None => 1usize,
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| bad_flag("--shards", v)),
    };
    let expect_digest = arg_value("--expect-digest");
    let external_addr = arg_value("--addr");
    let request_log = arg_value("--request-log");
    let replay_path = arg_value("--replay");
    if connections == 0 {
        bad_flag("--connections", "0");
    }
    if shards_flag.is_some() && external_addr.is_some() {
        eprintln!("error: --shards configures the in-process server and conflicts with --addr");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if request_log.is_some() && external_addr.is_some() {
        eprintln!(
            "error: --request-log configures the in-process server and conflicts with --addr"
        );
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // Parse the replay log up front, before any server is stood up: a
    // malformed log is a usage error (with the offending line number),
    // not a half-run bench.
    let replay_lines: Option<Vec<String>> = replay_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("loadgen: {path}: {e}");
            std::process::exit(2);
        });
        let entries = obf_obs::reqlog::parse_log(&text).unwrap_or_else(|e| {
            eprintln!("loadgen: {path}: {e}");
            std::process::exit(2);
        });
        let total = entries.len();
        let lines: Vec<String> = entries
            .iter()
            .filter(|e| is_replayable_verb(&e.verb))
            .map(|e| e.request_line())
            .collect();
        if lines.is_empty() {
            eprintln!("loadgen: {path}: no replayable requests (admin verbs are skipped)");
            std::process::exit(2);
        }
        if lines.len() < total {
            eprintln!(
                "[replay: skipping {} admin/invalid records of {total}]",
                total - lines.len()
            );
        }
        lines
    });

    // In-process mode publishes the 0.05-scale dblp shape (unless
    // OBF_SCALE overrides) and records the TSV-vs-snapshot load timing;
    // external mode (`--addr`) measures only the server it was pointed
    // at — synthesising a local graph there would record stats about a
    // graph that was never served.
    let (server, load_timing) = if external_addr.is_none() {
        let scale = if std::env::var("OBF_SCALE").is_ok() {
            cfg.scale
        } else {
            0.05
        };
        let graph = Arc::new(published_graph(scale, cfg.seed));
        eprintln!(
            "[published graph: n = {}, |E_C| = {}]",
            graph.num_vertices(),
            graph.num_candidates()
        );

        // Snapshot vs TSV load timing — the O(bytes) start-up claim,
        // recorded per run so the trajectory catches regressions.
        let (tsv_secs, snap_secs) = time_load_paths(&graph);
        eprintln!(
            "[load paths: TSV parse {tsv_secs:.4}s, snapshot load {snap_secs:.4}s, speedup {:.1}x]",
            tsv_secs / snap_secs
        );
        let config = ServerConfig {
            world_cache_capacity: 1024,
            shards,
            request_log: request_log.as_ref().map(std::path::PathBuf::from),
            ..ServerConfig::default()
        };
        let server = Server::bind_with(graph, "127.0.0.1:0", config).expect("bind server");
        (Some(server), Some((tsv_secs, snap_secs)))
    } else {
        (None, None)
    };
    let addr = match (&external_addr, &server) {
        (Some(a), _) => a.clone(),
        (None, Some(server)) => server.addr().to_string(),
        (None, None) => unreachable!("no in-process server implies --addr"),
    };
    eprintln!("[driving {addr}]");

    // Learn the served graph's shape over the protocol — the query mix
    // must stay in the *served* vertex range, and the bench record must
    // describe the graph that actually answered.
    let mut probe = Client::connect(&*addr).expect("connect probe");
    let info = probe.request("INFO").expect("INFO request");
    let served_n = field_f64(&info, "n=").unwrap_or(0.0) as u64;
    let served_candidates = field_f64(&info, "candidates=").unwrap_or(0.0) as u64;
    assert!(served_n > 0, "server reports an empty graph: {info}");

    // Probe phase: the determinism digest.
    let (answers_digest, probe_errors) = probe_digest(
        |q| probe.request(q).expect("probe request"),
        cfg.seed,
        cfg.worlds,
        probe_len,
        served_n,
    );
    eprintln!("[probe done: answers_digest = {answers_digest}]");
    if let Some(expected) = &expect_digest {
        if expected != &answers_digest {
            eprintln!(
                "loadgen: answers_digest {answers_digest} does not match \
                 the expected {expected} — the serving path changed an answer"
            );
            std::process::exit(1);
        }
        eprintln!("[answers_digest matches the pinned {expected}]");
    }

    // Timed phase: replay a recorded log, or N connections of the
    // synthetic mixed traffic.
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = probe_errors;
    let mut replay_digest: Option<String> = None;
    if let Some(lines) = &replay_lines {
        let (l, e, digest) = replay_phase(&addr, lines, connections);
        latencies = l;
        errors += e;
        replay_digest = Some(digest);
    } else {
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let stop = Arc::clone(&stop);
                let addr = addr.clone();
                let seed = cfg.seed;
                let worlds = cfg.worlds;
                std::thread::spawn(move || {
                    let mut client = Client::connect(&*addr).expect("connect worker");
                    let mut latencies_ns: Vec<u64> = Vec::new();
                    let mut errors = 0usize;
                    // Interleaved query streams: connection c walks indices
                    // c, c + N, c + 2N, … so the N connections issue
                    // disjoint slices of the same deterministic mix.
                    let mut i = conn;
                    while !stop.load(Ordering::Relaxed) {
                        let q = mixed_query(seed, i, worlds, served_n);
                        let t0 = Instant::now();
                        match client.request(&q) {
                            Ok(reply) if reply.starts_with("OK ") => {
                                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                            }
                            Ok(_) | Err(_) => errors += 1,
                        }
                        i += connections;
                    }
                    (latencies_ns, errors)
                })
            })
            .collect();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (l, e) = h.join().expect("worker panicked");
            latencies.extend(l);
            errors += e;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let total = latencies.len();
    let throughput = total as f64 / elapsed;
    let p50 = percentile_ms(&latencies, 0.50);
    let p99 = percentile_ms(&latencies, 0.99);

    // Open-loop sweep: the closed-loop throughput above is the capacity
    // estimate; offer Poisson arrivals at fixed fractions of it and
    // measure latency from each request's *scheduled arrival time*, so
    // queueing delay counts. Past capacity the backlog grows for the
    // whole window and the tail blows up — the saturation knee.
    let sweep = if open_loop_points > 0 && replay_lines.is_none() {
        let points = open_loop_sweep(
            &addr,
            cfg.seed,
            cfg.worlds,
            served_n,
            throughput,
            open_loop_points,
            open_loop_secs,
        );
        errors += points.iter().map(|p| p.errors).sum::<usize>();
        Some(points)
    } else {
        None
    };

    // The full metrics registry, scraped over the METRICS verb (so an
    // external server reports the same way) and saved for CI artifacts.
    let mut admin = Client::connect(&*addr).expect("connect admin");
    let metrics = scrape_metrics(&mut admin).expect("METRICS scrape");
    let path = obf_bench::results_dir().join("METRICS.txt");
    if let Err(e) = std::fs::write(&path, &metrics) {
        eprintln!("loadgen: writing {}: {e}", path.display());
    } else {
        eprintln!("[metrics dumped to {}]", path.display());
    }
    let cache_hits = text_value(&metrics, "obf_cache_hits_total").unwrap_or(0) as f64;
    let cache_misses = text_value(&metrics, "obf_cache_misses_total").unwrap_or(0) as f64;
    let cache_lookups = cache_hits + cache_misses;
    let cache_hit_rate = if cache_lookups > 0.0 {
        cache_hits / cache_lookups
    } else {
        0.0
    };

    println!(
        "loadgen: {total} requests in {elapsed:.2}s over {connections} connections \
         ({throughput:.0} req/s, p50 {p50:.3} ms, p99 {p99:.3} ms, {errors} protocol errors, \
         cache hit rate {cache_hit_rate:.3})"
    );

    if let Some(digest) = &replay_digest {
        // Replay runs get their own artifact: BENCH_server.json stays
        // the synthetic-mix trajectory the trend tooling folds.
        println!("loadgen: replay_digest = {digest}");
        let json = Json::obj([
            ("bench", Json::str("replay")),
            (
                "config",
                Json::obj([
                    ("connections", Json::from(connections)),
                    ("seed", Json::from(cfg.seed)),
                    ("worlds", Json::from(cfg.worlds)),
                    ("shards", Json::from(shards)),
                    (
                        "replay_log",
                        match &replay_path {
                            Some(p) => Json::str(p.clone()),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            (
                "results",
                Json::obj([
                    ("requests", Json::from(total)),
                    ("elapsed_secs", Json::Num(elapsed)),
                    ("throughput_qps", Json::Num(throughput)),
                    ("latency_p50_ms", Json::Num(p50)),
                    ("latency_p99_ms", Json::Num(p99)),
                    ("protocol_errors", Json::from(errors)),
                    ("answers_digest", Json::str(answers_digest.clone())),
                    ("replay_digest", Json::str(digest.clone())),
                ]),
            ),
        ]);
        obf_bench::write_json("BENCH_replay.json", &json);
        if let Some(server) = server {
            server.shutdown();
        }
        if errors > 0 {
            eprintln!("loadgen: {errors} protocol errors");
            std::process::exit(1);
        }
        return;
    }

    let json = Json::obj([
        ("bench", Json::str("server")),
        (
            "config",
            Json::obj([
                ("connections", Json::from(connections)),
                ("duration_secs", Json::Num(duration.as_secs_f64())),
                ("seed", Json::from(cfg.seed)),
                ("worlds", Json::from(cfg.worlds)),
                ("probe_len", Json::from(probe_len)),
                ("open_loop_points", Json::from(open_loop_points)),
                ("open_loop_secs", Json::Num(open_loop_secs.as_secs_f64())),
                ("shards", Json::from(shards)),
                (
                    "external_addr",
                    match &external_addr {
                        Some(a) => Json::str(a.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            // The graph the server actually answered from (via INFO).
            "graph",
            Json::obj([
                ("n", Json::from(served_n)),
                ("candidates", Json::from(served_candidates)),
            ]),
        ),
        (
            // Only measured in in-process mode: external servers loaded
            // a graph we never saw.
            "load_paths",
            match load_timing {
                Some((tsv_secs, snap_secs)) => Json::obj([
                    ("tsv_parse_secs", Json::Num(tsv_secs)),
                    ("snapshot_load_secs", Json::Num(snap_secs)),
                    ("snapshot_speedup", Json::Num(tsv_secs / snap_secs)),
                ]),
                None => Json::Null,
            },
        ),
        (
            "results",
            Json::obj([
                ("requests", Json::from(total)),
                ("elapsed_secs", Json::Num(elapsed)),
                ("throughput_qps", Json::Num(throughput)),
                ("latency_p50_ms", Json::Num(p50)),
                ("latency_p99_ms", Json::Num(p99)),
                ("protocol_errors", Json::from(errors)),
                ("cache_hits", Json::Num(cache_hits)),
                ("cache_misses", Json::Num(cache_misses)),
                ("cache_hit_rate", Json::Num(cache_hit_rate)),
                ("answers_digest", Json::str(answers_digest)),
            ]),
        ),
        (
            // Latency vs offered load, measured open-loop: each point
            // offers a Poisson arrival stream at a fixed fraction of the
            // closed-loop capacity estimate and reports scheduled-to-
            // completion latency. `offered > achieved` plus a p99 cliff
            // marks the saturation knee.
            "open_loop",
            match &sweep {
                Some(points) => Json::Arr(
                    points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("offered_fraction", Json::Num(p.offered_fraction)),
                                ("offered_qps", Json::Num(p.offered_qps)),
                                ("achieved_qps", Json::Num(p.achieved_qps)),
                                ("requests", Json::from(p.requests)),
                                ("latency_p50_ms", Json::Num(p.p50_ms)),
                                ("latency_p99_ms", Json::Num(p.p99_ms)),
                                ("protocol_errors", Json::from(p.errors)),
                            ])
                        })
                        .collect(),
                ),
                None => Json::Null,
            },
        ),
    ]);
    obf_bench::write_json("BENCH_server.json", &json);

    if let Some(server) = server {
        server.shutdown();
    }
    if errors > 0 {
        eprintln!("loadgen: {errors} protocol errors");
        std::process::exit(1);
    }
}

/// Verbs a replay may re-issue. Admin verbs would mutate or stop the
/// server being driven (a recorded SHUTDOWN would end the bench), and
/// INVALID records cannot be reconstructed faithfully.
fn is_replayable_verb(verb: &str) -> bool {
    !matches!(verb, "SHUTDOWN" | "QUIT" | "RELOAD" | "INVALID")
}

/// Verbs whose replies embed live counters (cache hits, request
/// totals, span histograms). They are replayed — the recorded mix
/// includes their cost — but excluded from the replay digest, which
/// must be a pure function of the log and the served graph, not of
/// scheduling.
fn reply_is_counter_bearing(line: &str) -> bool {
    line.split_whitespace().next() == Some("METRICS")
}

/// Re-drives `lines` round-robin over `connections` connections and
/// returns `(latencies_ns, errors, replay_digest)`. The digest folds
/// FNV-1a over every deterministic `(request, reply)` pair **in log
/// order** — thread interleaving cannot change it, so two replays of
/// the same log against equivalent servers report the same digest.
fn replay_phase(addr: &str, lines: &[String], connections: usize) -> (Vec<u64>, usize, String) {
    let lines = Arc::new(lines.to_vec());
    let handles: Vec<_> = (0..connections)
        .map(|conn| {
            let addr = addr.to_string();
            let lines = Arc::clone(&lines);
            std::thread::spawn(move || {
                let mut client = Client::connect(&*addr).expect("connect replay worker");
                let mut latencies_ns: Vec<u64> = Vec::new();
                // (entry index, fnv1a(request + "\n" + reply)) pairs for
                // the ordered digest fold in the parent.
                let mut pair_hashes: Vec<(usize, u64)> = Vec::new();
                let mut errors = 0usize;
                let mut i = conn;
                while i < lines.len() {
                    let q = &lines[i];
                    let t0 = Instant::now();
                    match client.request(q) {
                        Ok(reply) => {
                            if reply.starts_with("OK ") {
                                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                            } else {
                                errors += 1;
                            }
                            if !reply_is_counter_bearing(q) {
                                let mut buf = q.clone().into_bytes();
                                buf.push(b'\n');
                                buf.extend_from_slice(reply.as_bytes());
                                pair_hashes.push((i, obf_obs::reqlog::fnv1a(&buf)));
                            }
                        }
                        Err(_) => errors += 1,
                    }
                    i += connections;
                }
                (latencies_ns, pair_hashes, errors)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut pair_hashes: Vec<(usize, u64)> = Vec::new();
    let mut errors = 0usize;
    for h in handles {
        let (l, p, e) = h.join().expect("replay worker panicked");
        latencies.extend(l);
        pair_hashes.extend(p);
        errors += e;
    }
    pair_hashes.sort_unstable_by_key(|&(i, _)| i);
    let mut fold = Vec::with_capacity(pair_hashes.len() * 8);
    for (_, h) in &pair_hashes {
        fold.extend_from_slice(&h.to_le_bytes());
    }
    let digest = format!("{:016x}", obf_obs::reqlog::fnv1a(&fold));
    (latencies, errors, digest)
}

/// One measured point of the open-loop sweep.
struct SweepPoint {
    offered_fraction: f64,
    offered_qps: f64,
    achieved_qps: f64,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    errors: usize,
}

/// How many worker connections carry the open-loop arrival stream. Each
/// worker is a blocking connection serving a round-robin slice of the
/// schedule; 16 of them can carry far more than one event-loop core can
/// answer, so the workers never become the bottleneck being measured.
const SWEEP_WORKERS: usize = 16;

/// Arrivals per point are capped so a mis-calibrated capacity estimate
/// cannot turn one sweep point into minutes of backlog drain.
const SWEEP_MAX_ARRIVALS: usize = 60_000;

/// Offers Poisson arrivals at `0.25 × k × capacity` for `k = 1..=points`
/// (so ≥5 points always straddle the knee at k = 4) and measures
/// latency from the scheduled arrival, not the send: a request that
/// waits behind a backlog pays that wait in its latency, which is what
/// an open-loop client observes and a closed-loop one hides.
fn open_loop_sweep(
    addr: &str,
    seed: u64,
    worlds: usize,
    served_n: u64,
    capacity_qps: f64,
    points: usize,
    window: Duration,
) -> Vec<SweepPoint> {
    let capacity = capacity_qps.max(100.0);
    let mut out = Vec::with_capacity(points);
    for k in 1..=points {
        let fraction = 0.25 * k as f64;
        let rate = capacity * fraction;
        let arrivals =
            ((rate * window.as_secs_f64()) as usize).clamp(SWEEP_WORKERS, SWEEP_MAX_ARRIVALS);

        // The Poisson schedule: exponential inter-arrival gaps from a
        // per-point deterministic RNG, as absolute offsets from t0.
        let mut rng = SmallRng::seed_from_u64(seed ^ (0xa11c_0de0 + k as u64));
        let mut offsets = Vec::with_capacity(arrivals);
        let mut t = 0.0f64;
        for _ in 0..arrivals {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            offsets.push(t);
        }

        // Round-robin the schedule across the workers; a barrier aligns
        // everyone's t0 after the connects.
        let barrier = Arc::new(std::sync::Barrier::new(SWEEP_WORKERS + 1));
        let handles: Vec<_> = (0..SWEEP_WORKERS)
            .map(|w| {
                let offsets: Vec<(usize, f64)> = offsets
                    .iter()
                    .enumerate()
                    .skip(w)
                    .step_by(SWEEP_WORKERS)
                    .map(|(i, &off)| (i, off))
                    .collect();
                let barrier = Arc::clone(&barrier);
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&*addr).expect("connect sweep worker");
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut latencies_ns = Vec::with_capacity(offsets.len());
                    let mut errors = 0usize;
                    for (i, off) in offsets {
                        let scheduled = Duration::from_secs_f64(off);
                        if let Some(wait) = scheduled.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let q = mixed_query(seed, i, worlds, served_n);
                        match client.request(&q) {
                            Ok(reply) if reply.starts_with("OK ") => {
                                let sojourn = t0.elapsed().saturating_sub(scheduled);
                                latencies_ns.push(sojourn.as_nanos() as u64);
                            }
                            Ok(_) | Err(_) => errors += 1,
                        }
                    }
                    (latencies_ns, errors, t0.elapsed())
                })
            })
            .collect();
        barrier.wait();
        let mut latencies: Vec<u64> = Vec::new();
        let mut errors = 0usize;
        let mut drained = Duration::ZERO;
        for h in handles {
            let (l, e, took) = h.join().expect("sweep worker panicked");
            latencies.extend(l);
            errors += e;
            drained = drained.max(took);
        }
        latencies.sort_unstable();
        let point = SweepPoint {
            offered_fraction: fraction,
            offered_qps: rate,
            achieved_qps: latencies.len() as f64 / drained.as_secs_f64().max(1e-9),
            requests: latencies.len(),
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
            errors,
        };
        eprintln!(
            "[open-loop {:.2}x: offered {:.0} req/s, achieved {:.0} req/s, \
             p50 {:.3} ms, p99 {:.3} ms]",
            point.offered_fraction,
            point.offered_qps,
            point.achieved_qps,
            point.p50_ms,
            point.p99_ms
        );
        out.push(point);
        // Let the server drain fully between points so one overloaded
        // point cannot pollute the next one's latencies.
        std::thread::sleep(Duration::from_millis(50));
    }
    out
}

/// Times TSV parse vs snapshot load of the same graph: three batches of
/// ten full loads each (open + read + decode), per-load time = best
/// batch / 10, so one-off syscall spikes don't decide the ratio.
fn time_load_paths(g: &UncertainGraph) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("obfugraph_loadgen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let tsv_path = dir.join("published.up");
    let snap_path = dir.join("published.snap");
    obf_uncertain::save_uncertain_edge_list(g, &tsv_path).expect("write TSV");
    obf_uncertain::save_snapshot(g, &snap_path).expect("write snapshot");
    const PER_BATCH: usize = 10;
    let mut tsv_best = f64::INFINITY;
    let mut snap_best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..PER_BATCH {
            let loaded = obf_uncertain::load_uncertain_edge_list(&tsv_path, 0).expect("load TSV");
            assert_eq!(loaded.num_candidates(), g.num_candidates());
        }
        tsv_best = tsv_best.min(t0.elapsed().as_secs_f64() / PER_BATCH as f64);
        let t0 = Instant::now();
        for _ in 0..PER_BATCH {
            let loaded = obf_uncertain::load_snapshot(&snap_path).expect("load snapshot");
            assert_eq!(loaded.num_candidates(), g.num_candidates());
        }
        snap_best = snap_best.min(t0.elapsed().as_secs_f64() / PER_BATCH as f64);
    }
    // Loss-free round trips, asserted once outside the timed loops.
    assert_eq!(
        &obf_uncertain::load_uncertain_edge_list(&tsv_path, 0).unwrap(),
        g
    );
    assert_eq!(&obf_uncertain::load_snapshot(&snap_path).unwrap(), g);
    std::fs::remove_dir_all(&dir).ok();
    (tsv_best, snap_best.max(1e-9))
}

/// Flags that take a value, in either `--name value` or `--name=value`
/// form (`--threads` belongs to the shared harness).
const VALUE_FLAGS: [&str; 11] = [
    "--connections",
    "--duration",
    "--addr",
    "--probe",
    "--threads",
    "--shards",
    "--expect-digest",
    "--open-loop-points",
    "--open-loop-secs",
    "--request-log",
    "--replay",
];

/// A misspelled flag must not silently fall back to a default — the
/// hardened-CLI contract is usage + exit 2 for anything unrecognised.
fn reject_unknown_flags() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--help" || a == "-h" {
            i += 1;
        } else if VALUE_FLAGS.contains(&a) {
            i += 2; // the value; a missing one is caught by arg_value
        } else if VALUE_FLAGS
            .iter()
            .any(|f| a.starts_with(f) && a.as_bytes().get(f.len()) == Some(&b'='))
        {
            i += 1;
        } else {
            eprintln!("error: unknown argument {a:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `--name value` / `--name=value` lookup (string-valued).
fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let eq_prefix = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args
                .get(i + 1)
                .cloned()
                .or_else(|| bad_flag(name, "<missing>"));
        }
        if let Some(v) = a.strip_prefix(&eq_prefix) {
            return Some(v.to_string());
        }
    }
    None
}

fn bad_flag(name: &str, value: &str) -> ! {
    eprintln!("error: invalid value {value:?} for {name}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}
