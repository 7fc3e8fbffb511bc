//! The agents' request reader is bounded: a peer that sends more than
//! `MAX_FRAME_BYTES` without a newline loses its connection within seconds,
//! and the same router keeps serving other connections.

use bench::agent;
use bench::harness::ScenarioConfig;
use runtime::json::Json;
use shard::wire::MAX_FRAME_BYTES;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn an_unterminated_oversized_request_closes_only_its_own_connection() {
    let config = ScenarioConfig::named("frame_cap");
    let streams = Arc::new(agent::Streams::new(&config));
    let router = Arc::new(agent::build_router(&config).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let acceptor = std::thread::spawn(move || {
        let mut connections = Vec::new();
        for stream in listener.incoming().take(2) {
            let stream = stream.unwrap();
            let (router, streams) = (Arc::clone(&router), Arc::clone(&streams));
            connections.push(std::thread::spawn(move || {
                agent::serve_connection(stream, router, streams, None, None, false)
            }));
        }
        connections
    });

    // One peer sends MAX_FRAME_BYTES + 1 bytes and never ends the line.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    hog.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]).unwrap();
    let mut reply = [0u8; 64];
    match hog.read(&mut reply) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n}-byte reply to an unfinished line"),
        Err(e) => assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the server left the connection open: {e}"
        ),
    }
    assert!(start.elapsed() < Duration::from_secs(5), "closed after {:?}", start.elapsed());

    // A second connection to the same router is then served.
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    client.write_all(b"{\"id\":1,\"stream\":0,\"seed\":3}\n").unwrap();
    let mut line = String::new();
    BufReader::new(client.try_clone().unwrap()).read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim()).unwrap();
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"), "{line}");
    drop(client);
    for connection in acceptor.join().unwrap() {
        connection.join().unwrap();
    }
}
