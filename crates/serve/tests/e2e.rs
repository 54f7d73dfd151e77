//! End-to-end tests: a real [`Server`] on an ephemeral localhost port,
//! driven by [`ServeClient`]s (and, for the malformed-input tests, by a
//! raw socket speaking deliberately broken bytes).

use cobra_serve::protocol::{self, opcodes, Frame, MAX_FRAME};
use cobra_serve::{ClientError, ErrorCode, ServeClient, ServeConfig, Server};
use cobra_stream::StreamConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn small_server(num_keys: u32) -> Server {
    let stream_cfg = StreamConfig::new().shards(2).batch_tuples(8);
    let serve_cfg = ServeConfig::new()
        .cache_blocks(8)
        .read_timeout(Duration::from_millis(10));
    Server::start(num_keys, stream_cfg, serve_cfg).expect("bind ephemeral server")
}

/// Polls QUERY until the server answers out of an epoch >= `min_epoch`
/// (publication is asynchronous after SEAL).
fn query_at_epoch(client: &mut ServeClient, key: u32, min_epoch: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (epoch, value) = client.query(key).expect("query");
        if epoch >= min_epoch {
            return value;
        }
        assert!(
            Instant::now() < deadline,
            "epoch {min_epoch} never published (stuck at {epoch})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn query_after_seal_sees_the_sealed_epoch() {
    let server = small_server(256);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    client
        .update_all(&[(3, 5), (3, 7), (200, 1)])
        .expect("update");
    let sealed = client.seal().expect("seal");
    assert_eq!(sealed, 1);

    assert_eq!(query_at_epoch(&mut client, 3, sealed), 12);
    assert_eq!(query_at_epoch(&mut client, 200, sealed), 1);
    // A key nobody touched reads the reducer identity, not an error.
    assert_eq!(query_at_epoch(&mut client, 0, sealed), 0);

    let (snapshot, stats) = server.shutdown();
    assert_eq!(*snapshot.get(3), 12);
    assert_eq!(stats.tuples_ingested, 3);
    assert!(stats.queries >= 3);
}

#[test]
fn multi_client_shutdown_loses_nothing() {
    let server = small_server(512);
    let addr = server.local_addr();

    const CLIENTS: u64 = 4;
    const TUPLES_PER_CLIENT: u64 = 5_000;

    let mut sent_sum = 0u64;
    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        for i in 0..TUPLES_PER_CLIENT {
            sent_sum += c * TUPLES_PER_CLIENT + i;
        }
        joins.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            let tuples: Vec<(u32, u64)> = (0..TUPLES_PER_CLIENT)
                .map(|i| (((c * 131 + i) % 512) as u32, c * TUPLES_PER_CLIENT + i))
                .collect();
            for chunk in tuples.chunks(64) {
                client.update_all(chunk).expect("update_all");
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }

    let (snapshot, stats) = server.shutdown();
    let server_sum: u64 = snapshot.iter().sum();
    assert_eq!(
        server_sum, sent_sum,
        "accepted updates were lost or duplicated"
    );
    assert_eq!(stats.tuples_ingested, CLIENTS * TUPLES_PER_CLIENT);
}

#[test]
fn skewed_queries_hit_the_snapshot_cache() {
    let server = small_server(256);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    client.update_all(&[(10, 1), (20, 2)]).expect("update");
    let sealed = client.seal().expect("seal");
    query_at_epoch(&mut client, 10, sealed);

    // Hammer two keys in the same published epoch: the first access per
    // (epoch, block) misses, everything after hits.
    for _ in 0..100 {
        client.query(10).expect("query");
        client.query(20).expect("query");
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.cache_hits > 0 && stats.cache_hit_rate() > 0.5,
        "expected a warm cache, got {stats:?}"
    );
    server.shutdown();
}

#[test]
fn out_of_range_query_and_update_answer_with_error_frames() {
    let server = small_server(64);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    match client.query(64) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::KeyOutOfRange),
        other => panic!("expected KeyOutOfRange, got {other:?}"),
    }
    // A bad key mid-batch reports how much of the prefix was accepted.
    match client.update(&[(1, 1), (999, 1), (2, 2)]) {
        Err(ClientError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::KeyOutOfRange);
            assert!(detail.contains("first 1 tuples"), "detail: {detail}");
        }
        other => panic!("expected KeyOutOfRange, got {other:?}"),
    }
    // The connection survives both errors.
    client.update_all(&[(5, 5)]).expect("update after error");
    client.seal().expect("seal");

    let (snapshot, _) = server.shutdown();
    assert_eq!(*snapshot.get(1), 1);
    assert_eq!(*snapshot.get(5), 5);
}

#[test]
fn snapshot_slices_and_bad_ranges() {
    let server = small_server(128);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    client
        .update_all(&[(0, 3), (1, 4), (127, 9)])
        .expect("update");
    let sealed = client.seal().expect("seal");
    query_at_epoch(&mut client, 0, sealed);

    let (epoch, lo, values) = client.snapshot(0, 0, 4).expect("latest slice");
    assert_eq!((epoch, lo), (sealed, 0));
    assert_eq!(values, vec![3, 4, 0, 0]);

    let (_, _, tail) = client.snapshot(sealed, 120, 128).expect("pinned slice");
    assert_eq!(tail[7], 9);

    for (lo, hi) in [(4u32, 4u32), (5, 4), (0, 129)] {
        match client.snapshot(0, lo, hi) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadRange),
            other => panic!("expected BadRange for {lo}..{hi}, got {other:?}"),
        }
    }
    match client.snapshot(sealed + 40, 0, 4) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::SnapshotUnavailable)
        }
        other => panic!("expected SnapshotUnavailable, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn malformed_bytes_get_an_error_frame_and_the_server_survives() {
    let server = small_server(64);
    let addr = server.local_addr();

    // Speak garbage on a raw socket: a frame with an unknown opcode.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&[2, 0, 0, 0, 0x7E, 0xFF])
        .expect("write garbage");
    let reply = read_one_frame(&mut raw);
    match reply {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error frame, got {other:?}"),
    }
    // The server hangs up after a framing error.
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).expect("read EOF"), 0);

    // An oversized length prefix is refused the same way.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
    raw.write_all(&huge).expect("write oversized prefix");
    match read_one_frame(&mut raw) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error frame, got {other:?}"),
    }

    // A response-kind opcode from a client is refused without hanging up
    // the worker pool: a well-behaved client still gets service.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut scratch = Vec::new();
    protocol::write_frame(&mut raw, &Frame::Sealed { epoch: 9 }, &mut scratch)
        .expect("write response-kind frame");
    match read_one_frame(&mut raw) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error frame, got {other:?}"),
    }
    drop(raw);

    let mut client = ServeClient::connect(addr).expect("connect");
    client.update_all(&[(1, 1)]).expect("server still serves");
    server.shutdown();
}

/// Sanity-check the opcode module is exported for raw-socket tooling.
#[test]
fn opcode_constants_are_public() {
    assert_eq!(opcodes::UPDATE, 0x01);
    assert_eq!(opcodes::ERROR, 0x8F);
}

fn read_one_frame(stream: &mut TcpStream) -> Frame {
    match protocol::read_frame(stream) {
        Ok(Some(frame)) => frame,
        other => panic!("expected one frame, got {other:?}"),
    }
}
