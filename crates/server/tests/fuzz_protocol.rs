//! Protocol fuzz/property tests: proptest-generated malformed frames
//! must never panic the event loop. Every violation either gets an
//! `ERR` reply (and the connection survives when framing can resync)
//! or a clean close (when it cannot), `obf_server_protocol_errors_total`
//! counts it, and the server keeps answering well-formed traffic
//! afterwards.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use obf_obs::metrics::text_value;
use obf_server::protocol::MAX_FRAME;
use obf_server::{read_frame, Client, Server, ServerConfig};
use obf_uncertain::UncertainGraph;

use proptest::prelude::*;

fn test_server() -> Server {
    let g = Arc::new(
        UncertainGraph::new(5, vec![(0, 1, 0.7), (1, 2, 0.4), (2, 3, 0.9), (3, 4, 0.5)]).unwrap(),
    );
    Server::bind_with(
        g,
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn raw_stream(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    // A wedged server must fail the test, not hang it.
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// The server's `obf_server_protocol_errors_total`, read from `METRICS`.
fn protocol_error_count(server: &Server) -> u64 {
    let metrics = server.state().answer("METRICS");
    text_value(&metrics, "obf_server_protocol_errors_total").expect("protocol error counter")
}

/// The liveness probe run after every abusive exchange: a *fresh*
/// well-behaved connection must still be served normally.
fn assert_alive(server: &Server) {
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), "OK pong");
}

/// Request bytes that arrive only after the `ERR` of a fatal framing
/// error must not turn the close into a reset: the server half-closes
/// and discards them, so the peer reads a clean EOF and can still finish
/// writing. A server that drops the socket at once answers the late bytes
/// with an RST, and the peer's next write fails.
#[test]
fn late_tail_after_an_oversized_prefix_still_ends_in_a_clean_eof() {
    let server = test_server();
    let mut s = raw_stream(&server);
    s.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
    let reply = read_frame(&mut s)
        .unwrap()
        .expect("an ERR reply before close");
    assert!(reply.contains("exceeds"), "got {reply:?}");
    s.write_all(&[0xAB; 512]).unwrap();
    assert_eq!(read_frame(&mut s).unwrap(), None, "no clean EOF");
    // Give a reset to the late bytes time to arrive before writing again.
    std::thread::sleep(Duration::from_millis(50));
    s.write_all(&[0xCD; 512])
        .expect("the server reset the connection");
    s.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(protocol_error_count(&server), 1);
    assert_alive(&server);
    server.shutdown();
}

/// A peer that neither sends nor closes after the `ERR` of a fatal
/// framing error does not hold its socket open: the lingering close
/// gives up after a fixed deadline, so a write long after it is reset.
#[test]
fn silent_peer_after_an_oversized_prefix_is_closed_after_the_deadline() {
    let server = test_server();
    let mut s = raw_stream(&server);
    s.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
    let reply = read_frame(&mut s)
        .unwrap()
        .expect("an ERR reply before close");
    assert!(reply.contains("exceeds"), "got {reply:?}");
    assert_eq!(read_frame(&mut s).unwrap(), None, "no clean EOF");
    std::thread::sleep(Duration::from_secs(2));
    // The first write after the close draws the reset; the next fails.
    let _ = s.write_all(&[0xAB; 16]);
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        s.write_all(&[0xCD; 16]).is_err(),
        "the lingering socket outlived its deadline"
    );
    assert_alive(&server);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Oversized length prefixes: an `ERR` reply naming the cap, then a
    /// clean close (framing cannot resync after a garbage length).
    #[test]
    fn oversized_length_prefix_is_rejected_and_closed(
        excess in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
        tail in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let server = test_server();
        let mut s = raw_stream(&server);
        let len = (MAX_FRAME as u64 + excess) as u32;
        s.write_all(&len.to_le_bytes()).unwrap();
        s.write_all(&tail).unwrap();
        let reply = read_frame(&mut s).unwrap().expect("an ERR reply before close");
        prop_assert!(reply.starts_with("ERR "), "got {reply:?}");
        prop_assert!(reply.contains("exceeds"), "got {reply:?}");
        // Clean close after the reply, not a reset or a hang.
        prop_assert_eq!(read_frame(&mut s).unwrap(), None);
        prop_assert!(protocol_error_count(&server) >= 1);
        assert_alive(&server);
        server.shutdown();
    }

    /// Non-UTF-8 payloads: the byte count still delimits the frame, so
    /// the connection gets an `ERR` reply and *survives*.
    #[test]
    fn non_utf8_payload_gets_err_and_connection_survives(
        mut payload in proptest::collection::vec(0u8..=255, 1..256),
        poison_at in 0usize..256,
    ) {
        let pos = poison_at % payload.len();
        payload[pos] = 0xFF; // 0xFF is never valid in UTF-8
        let server = test_server();
        let mut s = raw_stream(&server);
        s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&payload).unwrap();
        let reply = read_frame(&mut s).unwrap().expect("an ERR reply");
        prop_assert!(reply.starts_with("ERR "), "got {reply:?}");
        prop_assert_eq!(protocol_error_count(&server), 1);
        // Same connection, next frame: served normally.
        s.write_all(&4u32.to_le_bytes()).unwrap();
        s.write_all(b"PING").unwrap();
        let pong = read_frame(&mut s).unwrap();
        prop_assert_eq!(pong.as_deref(), Some("OK pong"));
        server.shutdown();
    }

    /// Interior NULs and other unparseable-but-valid-UTF-8 lines: an
    /// `ERR` reply per frame, connection intact.
    #[test]
    fn interior_nuls_and_garbage_lines_get_err_replies(
        head in proptest::collection::vec(b'A'..=b'Z', 0..8),
        tail in proptest::collection::vec(b'a'..=b'z', 0..8),
    ) {
        let line = format!(
            "{}\0{}",
            String::from_utf8(head).unwrap(),
            String::from_utf8(tail).unwrap()
        );
        let server = test_server();
        let mut c = Client::connect(server.addr()).unwrap();
        let reply = c.request(&line).unwrap();
        prop_assert!(reply.starts_with("ERR "), "got {reply:?}");
        prop_assert_eq!(protocol_error_count(&server), 1);
        prop_assert_eq!(c.request("PING").unwrap(), "OK pong");
        server.shutdown();
    }

    /// Truncated frames: the peer declares more bytes than it sends and
    /// disappears. The server just closes the half-frame — no reply, no
    /// panic, and the loop keeps serving everyone else.
    #[test]
    fn truncated_frame_then_disconnect_is_harmless(
        declared in 1u32..1024,
        sent_frac in 0u32..100,
    ) {
        let server = test_server();
        let mut s = raw_stream(&server);
        let sent = (declared as usize * sent_frac as usize / 100).min(declared as usize - 1);
        s.write_all(&declared.to_le_bytes()).unwrap();
        s.write_all(&vec![b'x'; sent]).unwrap();
        drop(s); // mid-frame disconnect
        assert_alive(&server);
        server.shutdown();
    }

    /// Pipelined garbage: a burst mixing valid requests with malformed
    /// frames. Every frame up to the first unresyncable one is answered
    /// in order; the loop never panics and other connections never
    /// notice.
    #[test]
    fn pipelined_garbage_answers_in_order(
        n_valid in 1usize..8,
        junk in proptest::collection::vec(0u8..=255, 1..64),
    ) {
        let server = test_server();
        let mut s = raw_stream(&server);
        let mut batch = Vec::new();
        for _ in 0..n_valid {
            batch.extend_from_slice(&4u32.to_le_bytes());
            batch.extend_from_slice(b"PING");
        }
        // One definitely-invalid frame (0xFF byte), then trailing junk
        // that may or may not parse as frames.
        let mut poisoned = junk.clone();
        poisoned[0] = 0xFF;
        batch.extend_from_slice(&(poisoned.len() as u32).to_le_bytes());
        batch.extend_from_slice(&poisoned);
        batch.extend_from_slice(&junk);
        s.write_all(&batch).unwrap();
        for _ in 0..n_valid {
            let pong = read_frame(&mut s).unwrap();
            prop_assert_eq!(pong.as_deref(), Some("OK pong"));
        }
        let reply = read_frame(&mut s).unwrap().expect("ERR for the poisoned frame");
        prop_assert!(reply.starts_with("ERR "), "got {reply:?}");
        prop_assert!(protocol_error_count(&server) >= 1);
        drop(s);
        assert_alive(&server);
        server.shutdown();
    }
}

/// A zero-length frame is a well-formed frame carrying an empty line —
/// answered `ERR empty request`, connection intact.
#[test]
fn empty_frame_is_an_empty_request() {
    let server = test_server();
    let mut s = raw_stream(&server);
    s.write_all(&0u32.to_le_bytes()).unwrap();
    let reply = read_frame(&mut s).unwrap().unwrap();
    assert_eq!(reply, "ERR empty request");
    s.write_all(&4u32.to_le_bytes()).unwrap();
    s.write_all(b"PING").unwrap();
    assert_eq!(read_frame(&mut s).unwrap().as_deref(), Some("OK pong"));
    server.shutdown();
}

/// A length prefix delivered one byte at a time across many writes must
/// assemble into the same frame (no assumption that the 4 length bytes
/// arrive together).
#[test]
fn length_prefix_split_across_packets() {
    let server = test_server();
    let mut s = raw_stream(&server);
    let frame: Vec<u8> = 4u32.to_le_bytes().iter().chain(b"PING").copied().collect();
    for b in frame {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(read_frame(&mut s).unwrap().as_deref(), Some("OK pong"));
    server.shutdown();
}

/// Fuzz the `Request` parser directly with arbitrary UTF-8-ish lines:
/// parsing must never panic, only return `Ok`/`Err`.
#[test]
fn request_parser_never_panics() {
    use obf_server::Request;
    let mut rng = proptest::new_rng();
    let strat = proptest::collection::vec(0u8..=255, 0..128);
    for _ in 0..2000 {
        let bytes = strat.generate(&mut rng);
        let line = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&line);
    }
}
