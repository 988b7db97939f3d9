//! High-concurrency smoke tests: the event loop must hold ≥1000
//! simultaneous connections in one process while still answering
//! admin queries (INFO, METRICS) promptly, and the admission
//! control must shed load past `max_connections` with a BUSY reply
//! instead of hanging or crashing. A 10k variant is `#[ignore]`-gated
//! for nightly runs.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obf_obs::metrics::text_value;
use obf_server::sys::raise_nofile_limit;
use obf_server::{read_frame, write_frame, Client, Server, ServerConfig, BUSY_REPLY};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn published_graph(n: usize, seed: u64) -> Arc<UncertainGraph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cands = Vec::new();
    for u in 0..n as u32 {
        for step in 1..=3u32 {
            let v = (u + step) % n as u32;
            if u < v {
                cands.push((u, v, rng.gen::<f64>()));
            }
        }
    }
    Arc::new(UncertainGraph::new(n, cands).unwrap())
}

/// Open `want` connections (client and server ends both live in this
/// process, so each costs two fds), forcing each through the accept
/// path with a PING round-trip. Returns the still-open sockets.
/// One series of the server's `METRICS` reply.
fn metric(server: &Server, name: &str) -> u64 {
    text_value(&server.state().answer("METRICS"), name).expect(name)
}

fn open_connections(server: &Server, want: usize) -> Vec<TcpStream> {
    let mut held = Vec::with_capacity(want);
    for i in 0..want {
        let mut s = TcpStream::connect(server.addr())
            .unwrap_or_else(|e| panic!("connect #{i} failed: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write_frame(&mut s, "PING").unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert_eq!(reply.as_deref(), Some("OK pong"), "connection #{i}");
        held.push(s);
    }
    held
}

/// The body shared by the 1k (tier-1) and 10k (nightly) variants.
fn swarm(target: usize, max_connections: usize) {
    // Both socket ends live here: 2 fds per connection, plus slack for
    // the listener, the test harness, and stdio.
    let limit = raise_nofile_limit((2 * target + 512) as u64).unwrap_or(1024);
    let conns = target.min((limit.saturating_sub(512) / 2) as usize);
    assert!(
        conns >= 256,
        "fd limit {limit} too low for a meaningful swarm"
    );

    let server = Server::bind_with(
        published_graph(40, 1),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 256,
            // No reaping mid-test: every held connection must stay up.
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let start = Instant::now();
    let mut held = open_connections(&server, conns);
    let peak = metric(&server, "obf_server_peak_connections");
    assert!(peak >= conns as u64, "peak connections {peak} < {conns}");
    assert_eq!(metric(&server, "obf_server_busy_rejections_total"), 0);

    // With the full swarm connected and idle, admin queries on a sample
    // of the held connections still answer correctly and promptly.
    let probe = Instant::now();
    for i in (0..conns).step_by((conns / 16).max(1)) {
        let s = &mut held[i];
        write_frame(&mut *s, "INFO").unwrap();
        let info = read_frame(&mut *s).unwrap().unwrap();
        assert!(info.starts_with("OK n=40 "), "{info}");
        write_frame(&mut *s, "METRICS").unwrap();
        let metrics = read_frame(&mut *s).unwrap().unwrap();
        assert_eq!(
            text_value(&metrics, "obf_cache_capacity"),
            Some(256),
            "{metrics}"
        );
        write_frame(&mut *s, &format!("EXPECTED_DEGREE {}", i % 40)).unwrap();
        let deg = read_frame(&mut *s).unwrap().unwrap();
        assert!(deg.starts_with("OK "), "{deg}");
    }
    assert!(
        probe.elapsed() < Duration::from_secs(10),
        "admin probes starved under {conns} connections: {:?}",
        probe.elapsed()
    );

    eprintln!(
        "swarm: {} connections held, probed in {:?} (total {:?})",
        conns,
        probe.elapsed(),
        start.elapsed()
    );
    drop(held);
    server.shutdown();
}

#[test]
fn a_thousand_simultaneous_connections_are_served() {
    swarm(1000, 4096);
}

/// Nightly-scale variant: `cargo test -p obf_server --test high_concurrency -- --ignored`.
/// Scales down automatically if the fd hard limit cannot cover 10k
/// two-fd connections.
#[test]
#[ignore = "10k fds; run explicitly in nightly"]
fn ten_thousand_simultaneous_connections_are_served() {
    swarm(10_000, 16_384);
}

#[test]
fn admission_control_sheds_load_with_busy_reply() {
    let server = Server::bind_with(
        published_graph(10, 3),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 16,
            max_connections: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let held = open_connections(&server, 8);

    // Connection #9: accepted by the OS, then immediately told BUSY and
    // closed by the admission check — never serviced.
    let mut extra = TcpStream::connect(server.addr()).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reply = read_frame(&mut extra).unwrap();
    assert_eq!(reply.as_deref(), Some(BUSY_REPLY));
    assert_eq!(
        read_frame(&mut extra).unwrap(),
        None,
        "expected close after BUSY"
    );
    assert!(metric(&server, "obf_server_busy_rejections_total") >= 1);

    // The held connections were untouched by the rejection.
    for (i, mut s) in held.into_iter().enumerate() {
        write_frame(&mut s, "PING").unwrap();
        assert_eq!(
            read_frame(&mut s).unwrap().as_deref(),
            Some("OK pong"),
            "held connection #{i} disturbed"
        );
        drop(s); // free the slot as we go
    }

    // Slots freed: retrying (as BUSY instructs) succeeds once the loop
    // observes the departures.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = Client::connect(server.addr()).unwrap();
        match c.request("PING") {
            Ok(reply) if reply == "OK pong" => break,
            Ok(reply) if reply == BUSY_REPLY => {
                assert!(Instant::now() < deadline, "slots never freed");
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(other) => panic!("unexpected reply: {other}"),
            Err(_) => {
                // BUSY frame + close can race the request write; retry.
                assert!(Instant::now() < deadline, "slots never freed");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    server.shutdown();
}
