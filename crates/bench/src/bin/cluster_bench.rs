//! `cluster_bench`: the fleet-serving trajectory
//! (`results/BENCH_cluster.json`).
//!
//! **Router serving** — closed-loop throughput of one `obf_server`
//! driven directly versus `--replicas` replicas behind the
//! `obf_cluster` router, over the same published graph `loadgen`
//! serves, with the same deterministic probe digest on both paths. The
//! digest must not change when the fleet path is interposed; a
//! mismatch exits non-zero.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obf_bench::json::Json;
use obf_bench::traffic::{mixed_query, parse_duration, percentile_ms, probe_digest};
use obf_bench::HarnessConfig;
use obf_cluster::{Fleet, RouterConfig};
use obf_datasets::Dataset;
use obf_server::{Client, Server, ServerConfig};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USAGE: &str = "usage:
  cluster_bench [--duration 1s] [--connections 4] [--replicas 2]
options:
  --duration <D>      closed-loop window per serving side, e.g. 1s / 500ms (default 1s)
  --connections <N>   concurrent connections in the serving phase (default 4)
  --replicas <N>      fleet replicas behind the router (default 2)";

fn main() {
    if obf_bench::help_requested() {
        println!("cluster_bench: fleet-serving benchmark");
        println!("{USAGE}");
        println!("{}", obf_bench::HARNESS_USAGE);
        return;
    }
    reject_unknown_flags();
    let cfg = HarnessConfig::init();
    let duration = match arg_value("--duration") {
        None => Duration::from_secs(1),
        Some(v) => parse_duration(&v).unwrap_or_else(|| bad_flag("--duration", &v)),
    };
    let connections = match arg_value("--connections") {
        None => 4usize,
        Some(v) => v.parse().unwrap_or_else(|_| bad_flag("--connections", &v)),
    };
    let replicas = match arg_value("--replicas") {
        None => 2usize,
        Some(v) => v.parse().unwrap_or_else(|_| bad_flag("--replicas", &v)),
    };
    if connections == 0 {
        bad_flag("--connections", "0");
    }
    if replicas == 0 {
        bad_flag("--replicas", "0");
    }

    // The same published graph loadgen serves: the 0.05-scale dblp
    // shape (unless OBF_SCALE overrides), so the serving digest here is
    // the same pinned value the `serve` CI step checks.
    let scale = if std::env::var("OBF_SCALE").is_ok() {
        cfg.scale
    } else {
        0.05
    };
    let n = ((Dataset::Dblp.default_scale() as f64 * scale) as usize).max(200);
    let base = obf_datasets::DatasetSpec::synthetic(Dataset::Dblp, n, cfg.seed).graph;
    let mut prng = SmallRng::seed_from_u64(cfg.seed ^ 0x5e4e);
    let cands: Vec<(u32, u32, f64)> = base
        .edges()
        .map(|(u, v)| (u, v, 0.2 + 0.8 * prng.gen::<f64>()))
        .collect();
    let published = Arc::new(UncertainGraph::new(base.num_vertices(), cands).unwrap());
    eprintln!(
        "[published graph: n = {}, |E_C| = {}]",
        published.num_vertices(),
        published.num_candidates()
    );

    // ---- Router vs direct serving. ----
    let direct = {
        let server =
            Server::bind(Arc::clone(&published), "127.0.0.1:0", 1024).expect("bind server");
        let out = serve_side(
            "direct",
            &server.addr().to_string(),
            &cfg,
            connections,
            duration,
        );
        server.shutdown();
        out
    };
    let routed = {
        let config = ServerConfig {
            world_cache_capacity: 1024,
            ..ServerConfig::default()
        };
        let fleet = Fleet::launch(
            Arc::clone(&published),
            replicas,
            config,
            RouterConfig::default(),
        )
        .expect("launch fleet");
        let out = serve_side(
            "router",
            &fleet.addr().to_string(),
            &cfg,
            connections,
            duration,
        );
        fleet.shutdown();
        out
    };
    let digest_match = direct.digest == routed.digest;
    if !digest_match {
        eprintln!(
            "cluster_bench: answers_digest changed through the router \
             (direct {} vs routed {})",
            direct.digest, routed.digest
        );
    }

    println!(
        "cluster_bench: direct {:.0} req/s vs router×{replicas} {:.0} req/s; \
         answers_digest {} ({})",
        direct.qps,
        routed.qps,
        direct.digest,
        if digest_match { "stable" } else { "DRIFTED" }
    );

    let json = Json::obj([
        ("bench", Json::str("cluster")),
        (
            "config",
            Json::obj([
                ("seed", Json::from(cfg.seed)),
                ("worlds", Json::from(cfg.worlds)),
                ("duration_secs", Json::Num(duration.as_secs_f64())),
                ("connections", Json::from(connections)),
                ("replicas", Json::from(replicas)),
            ]),
        ),
        (
            "graph",
            Json::obj([
                ("n", Json::from(published.num_vertices())),
                ("candidates", Json::from(published.num_candidates())),
            ]),
        ),
        (
            "serving",
            Json::obj([
                ("direct_qps", Json::Num(direct.qps)),
                ("direct_p50_ms", Json::Num(direct.p50_ms)),
                ("direct_p99_ms", Json::Num(direct.p99_ms)),
                ("router_qps", Json::Num(routed.qps)),
                ("router_p50_ms", Json::Num(routed.p50_ms)),
                ("router_p99_ms", Json::Num(routed.p99_ms)),
                (
                    "router_relative",
                    Json::Num(routed.qps / direct.qps.max(1e-9)),
                ),
                ("answers_digest", Json::str(direct.digest.clone())),
                ("digest_match", Json::Bool(digest_match)),
            ]),
        ),
    ]);
    obf_bench::write_json("BENCH_cluster.json", &json);

    let errors = direct.errors + routed.errors;
    if errors > 0 || !digest_match {
        eprintln!("cluster_bench: {errors} protocol errors, digest_match={digest_match}");
        std::process::exit(1);
    }
}

/// One serving side: probe digest, then a closed-loop timed phase.
struct ServeResult {
    digest: String,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    errors: usize,
}

fn serve_side(
    label: &str,
    addr: &str,
    cfg: &HarnessConfig,
    connections: usize,
    duration: Duration,
) -> ServeResult {
    let mut probe = Client::connect(addr).expect("connect probe");
    let info = probe.request("INFO").expect("INFO request");
    let served_n = obf_bench::traffic::field_f64(&info, "n=").unwrap_or(0.0) as u64;
    assert!(served_n > 0, "server reports an empty graph: {info}");
    let (digest, mut errors) = probe_digest(&mut probe, cfg.seed, cfg.worlds, 64, served_n);

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|conn| {
            let stop = Arc::clone(&stop);
            let addr = addr.to_string();
            let (seed, worlds) = (cfg.seed, cfg.worlds);
            std::thread::spawn(move || {
                let mut client = Client::connect(&*addr).expect("connect worker");
                let mut latencies_ns: Vec<u64> = Vec::new();
                let mut errors = 0usize;
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
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let (l, e) = h.join().expect("serving worker panicked");
        latencies.extend(l);
        errors += e;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let result = ServeResult {
        digest,
        qps: latencies.len() as f64 / elapsed,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        errors,
    };
    eprintln!(
        "[{label}: {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms, digest {}]",
        result.qps, result.p50_ms, result.p99_ms, result.digest
    );
    result
}

const VALUE_FLAGS: [&str; 4] = ["--duration", "--connections", "--replicas", "--threads"];

/// A misspelled flag must not silently fall back to a default — usage
/// plus exit 2 for anything unrecognised (the hardened-CLI contract).
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
