//! Fault-injection integration tests: hostile connection behavior —
//! slowloris writers, half-open peers, mid-request disconnects, and
//! clients that never read — must be contained by the event loop's
//! idle reaping, bounded buffers and backpressure, with zero impact on
//! concurrent well-behaved clients' transcripts.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obf_obs::metrics::text_value;
use obf_server::{read_frame, Client, Server, ServerConfig};
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

/// Deterministic well-behaved traffic, same shape as the loadgen mix.
fn query(i: usize) -> String {
    match i % 6 {
        0 => format!("EXPECTED_DEGREE {}", i % 40),
        1 => format!("DEGREE_DIST {}", i % 40),
        2 => format!("NEIGHBORHOOD {}", i % 40),
        3 => "EXPECTED degree_variance".to_string(),
        4 => format!("STAT num_edges {} 42 0.5", 5 + i % 7),
        _ => format!("STAT clustering {} 7", 3 + i % 5),
    }
}

fn run_script(addr: std::net::SocketAddr, len: usize) -> Vec<String> {
    let mut c = Client::connect(addr).unwrap();
    (0..len).map(|i| c.request(&query(i)).unwrap()).collect()
}

/// Slowloris: clients that dribble a valid request one byte at a time.
/// In the thread-per-connection world each one pinned a thread; the
/// event loop just keeps their partial frames in per-connection buffers
/// while fast clients are served. The slow requests still complete
/// correctly at the end.
#[test]
fn slowloris_writers_dont_starve_fast_clients() {
    let g = published_graph(40, 1);
    let server = Server::bind(Arc::clone(&g), "127.0.0.1:0", 512).unwrap();
    let addr = server.addr();

    // Reference transcript from an unloaded identical server.
    let clean = Server::bind(g, "127.0.0.1:0", 512).unwrap();
    let reference = run_script(clean.addr(), 64);
    clean.shutdown();

    let slow_handles: Vec<_> = (0..4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let line = format!("EXPECTED_DEGREE {k}");
                let mut frame = (line.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(line.as_bytes());
                for b in frame {
                    s.write_all(&[b]).unwrap();
                    s.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(15));
                }
                read_frame(&mut s).unwrap().expect("slow request answered")
            })
        })
        .collect();

    // While the slowloris writers dribble, a well-behaved client's
    // transcript must be exactly the unloaded reference.
    let under_attack = run_script(addr, 64);
    assert_eq!(under_attack, reference);

    for (k, h) in slow_handles.into_iter().enumerate() {
        let reply = h.join().unwrap();
        let expected = format!("OK {}", server.state().graph().expected_degree(k as u32));
        assert_eq!(reply, expected);
    }
    server.shutdown();
}

/// Half-open connections (peer connects, then goes silent — e.g. a NAT
/// dropped it) are reaped by the idle sweep, freeing their slots.
#[test]
fn half_open_connections_are_reaped() {
    let server = Server::bind_with(
        published_graph(10, 3),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 16,
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut silent: Vec<TcpStream> = (0..5)
        .map(|_| {
            let s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        })
        .collect();
    // Force the handshakes through the accept loop before going silent.
    std::thread::sleep(Duration::from_millis(50));

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.state().idle_reaped() < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        server.state().idle_reaped() >= 5,
        "idle sweep reaped only {} of 5 half-open connections",
        server.state().idle_reaped()
    );
    // The server actually closed them: reads observe EOF.
    for s in &mut silent {
        assert_eq!(read_frame(s).unwrap(), None, "expected EOF after reap");
    }
    // Fresh, active connections are unaffected.
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    server.shutdown();
}

/// Disconnecting mid-request (after the length prefix, before the
/// payload) must not leak the half-frame or disturb anyone else.
#[test]
fn mid_request_disconnects_are_contained() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    for i in 0..20 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&vec![b'Q'; i]).unwrap(); // 0..20 of 64 declared bytes
        drop(s);
    }
    // Give the loop a beat to observe the disconnects, then verify
    // every slot was released and service is intact.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c = loop {
        if let Ok(c) = Client::connect(server.addr()) {
            break c;
        }
        assert!(Instant::now() < deadline);
    };
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    assert!(server.state().connections_accepted() >= 21);
    server.shutdown();
}

/// A client that pipelines requests but never reads replies hits the
/// write-buffer high-water mark: the loop stops reading from it
/// (backpressure), its buffered bytes stay bounded, concurrent clients
/// are untouched — and when the slacker finally reads, every queued
/// reply arrives intact and in order.
#[test]
fn never_reading_client_is_backpressured_with_bounded_buffers() {
    const WRITE_CAP: usize = 4 * 1024;
    const READ_CAP: usize = 8 * 1024;
    let server = Server::bind_with(
        published_graph(40, 1),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 64,
            // Long enough that the slacker is never idle-reaped here.
            idle_timeout: Some(Duration::from_secs(60)),
            read_buffer_cap: READ_CAP,
            write_buffer_cap: WRITE_CAP,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The slacker floods requests whose replies are much larger than
    // the write cap in aggregate, and reads nothing.
    const FLOOD: usize = 2000;
    let mut slacker = TcpStream::connect(addr).unwrap();
    slacker.set_nodelay(true).unwrap();
    slacker
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut batch = Vec::new();
    for i in 0..FLOOD {
        let line = format!("DEGREE_DIST {}", i % 40);
        batch.extend_from_slice(&(line.len() as u32).to_le_bytes());
        batch.extend_from_slice(line.as_bytes());
    }
    slacker.write_all(&batch).unwrap();
    slacker.flush().unwrap();

    // Let the loop absorb what it is willing to; concurrent clients
    // must see a completely normal server meanwhile.
    let reference = {
        let clean = Server::bind(published_graph(40, 1), "127.0.0.1:0", 64).unwrap();
        let t = run_script(clean.addr(), 48);
        clean.shutdown();
        t
    };
    assert_eq!(run_script(addr, 48), reference);

    // Bounded memory: the slacker's buffered bytes can reach the read
    // cap plus the write high-water mark plus one in-flight reply —
    // never the ~full flood of replies an unbounded server would hold.
    let mut c = Client::connect(addr).unwrap();
    let metrics = c.request("METRICS").unwrap();
    let peak = text_value(&metrics, "obf_server_buffer_peak_bytes").expect("buffer peak gauge");
    let largest_reply = 4 + server
        .state()
        .answer("DEGREE_DIST 0")
        .len()
        .max(server.state().answer("DEGREE_DIST 39").len()) as u64;
    let bound = (READ_CAP + WRITE_CAP) as u64 + largest_reply;
    assert!(
        peak <= bound,
        "per-connection buffers unbounded: peak {peak} > bound {bound}"
    );
    assert!(peak > 0, "peak gauge never sampled");

    // The slacker repents: reading now must yield all FLOOD replies,
    // in order, each matching the out-of-band answer bit for bit.
    let mut replies = Vec::with_capacity(FLOOD);
    for _ in 0..FLOOD {
        replies.push(
            read_frame(&mut slacker)
                .unwrap()
                .expect("reply survived backpressure"),
        );
    }
    for (i, reply) in replies.iter().enumerate() {
        let expected = server.state().answer(&format!("DEGREE_DIST {}", i % 40));
        assert_eq!(reply, &expected, "reply {i} diverged");
    }
    server.shutdown();
}
