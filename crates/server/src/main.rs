//! `obf_server` binary: load a published uncertain graph (binary
//! snapshot or TSV edge list, auto-detected by magic bytes) and serve
//! possible-world queries until killed or told to `SHUTDOWN`.
//!
//! ```text
//! obf_server <graph.snap|graph.up> [--port 0] [--cache 256] [--idle-timeout 60]
//!            [--max-conns 4096] [--poller epoll|poll] [--shards 1]
//!            [--request-log <path>]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once bound — scripts scrape this
//! to learn the ephemeral port — and serves until the listener closes.
//! A `RELOAD <path>` request swaps in a new release without a restart.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use obf_server::{load_published_graph_with_source, PollerKind, Server, ServerConfig};

const USAGE: &str = "usage:
  obf_server <graph.snap|graph.up> [--port 0] [--cache 256] [--idle-timeout 60]
             [--max-conns 4096] [--poller epoll|poll] [--shards 1]
             [--request-log <path>]
options:
  --port <P>          TCP port to bind on 127.0.0.1 (default 0 = ephemeral)
  --cache <N>         world-cache capacity: how many sampled worlds' STAT
                      statistics (40 bytes each) to keep (default 256)
  --idle-timeout <S>  close connections idle for S seconds (0 = never; default 60)
  --max-conns <N>     admission control: reject connections past N, counted
                      across every shard, with ERR BUSY (default 4096)
  --poller <B>        readiness backend: epoll (Linux default) or poll; the
                      OBF_POLLER env var sets the same
  --shards <N>        event loops sharing the listener and the loaded release,
                      one thread each (default 1); answers do not depend on N
  --request-log <F>   append an OBFUREQLOG v1 record per answered request to F
                      (truncates F at start-up; purely observational — replies
                      are byte-identical with or without it)
  --help, -h          print this help and exit
The graph file is auto-detected: binary snapshot (OBFUSNAP magic) or
whitespace-separated `u v p` TSV. Admin commands over the protocol:
RELOAD <path> swaps in a new release live (connections already open keep
answering from the release they started on); SHUTDOWN stops every shard.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut port: u16 = 0;
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    if let Ok(raw) = std::env::var("OBF_POLLER") {
        config.poller =
            PollerKind::parse(&raw).ok_or(format!("invalid OBF_POLLER value {raw:?}"))?;
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                let raw = it.next().ok_or("flag --port needs a value")?;
                port = raw
                    .parse()
                    .map_err(|_| format!("invalid value {raw:?} for --port"))?;
            }
            "--cache" => {
                let raw = it.next().ok_or("flag --cache needs a value")?;
                config.world_cache_capacity = raw
                    .parse()
                    .map_err(|_| format!("invalid value {raw:?} for --cache"))?;
            }
            "--idle-timeout" => {
                let raw = it.next().ok_or("flag --idle-timeout needs a value")?;
                let secs: u64 = raw
                    .parse()
                    .map_err(|_| format!("invalid value {raw:?} for --idle-timeout"))?;
                config.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--max-conns" => {
                let raw = it.next().ok_or("flag --max-conns needs a value")?;
                config.max_connections = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("invalid value {raw:?} for --max-conns"))?;
            }
            "--poller" => {
                let raw = it.next().ok_or("flag --poller needs a value")?;
                config.poller =
                    PollerKind::parse(raw).ok_or(format!("invalid value {raw:?} for --poller"))?;
            }
            "--shards" => {
                let raw = it.next().ok_or("flag --shards needs a value")?;
                config.shards = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("invalid value {raw:?} for --shards"))?;
            }
            "--request-log" => {
                let raw = it.next().ok_or("flag --request-log needs a value")?;
                config.request_log = Some(raw.into());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => {
                if path.replace(other).is_some() {
                    return Err("more than one graph path given".into());
                }
            }
        }
    }
    let path = path.ok_or("missing graph path")?;
    let (graph, meta, source) = load_published_graph_with_source(path)?;
    eprintln!(
        "loaded {path} ({source}): n = {}, |E_C| = {}, E[edges] = {:.1}{}",
        graph.num_vertices(),
        graph.num_candidates(),
        obf_uncertain::expected_num_edges(&graph),
        match meta {
            Some(m) => format!(", snapshot epoch {}", m.epoch),
            None => String::new(),
        }
    );
    let server = Server::bind_with(Arc::new(graph), ("127.0.0.1", port), config)
        .map_err(|e| format!("bind failed: {e}"))?;
    // Stdout, flushed: the contract line that loadgen and ci.sh scrape.
    println!("LISTENING {}", server.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.join();
    Ok(())
}
