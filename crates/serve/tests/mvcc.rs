//! MVCC end-to-end tests: time travel, diff reads, push subscriptions
//! and retention GC against a real [`Server`] on an ephemeral port.
//!
//! The centerpiece is `subscribers_reconstruct_state_from_deltas_alone`:
//! three concurrent subscribers fold 50 epochs of pushed deltas (one of
//! them deliberately forced through the `LAGGED` + diff re-sync path)
//! and every reconstructed per-epoch state must be bit-identical to the
//! server's own `SNAPSHOT{epoch}` answer.

mod common;

use cobra_serve::protocol::{self, opcodes, Frame, FrameBuf, MAX_UPDATE_TUPLES, PROTOCOL_VERSION};
use cobra_serve::{ClientError, ErrorCode, ServeClient, ServeConfig, Server, SubEvent, WireError};
use cobra_stream::StreamConfig;
use common::{next_frame, read_one_frame};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const KEYS: u32 = 256;

fn mvcc_server_with_keys(keys: u32, retain: usize, sub_queue_epochs: usize) -> Server {
    let stream_cfg = StreamConfig::new().shards(2).batch_tuples(64);
    let serve_cfg = ServeConfig::new()
        .cache_blocks(16)
        .retain_epochs(retain)
        .sub_queue_epochs(sub_queue_epochs);
    Server::start(keys, stream_cfg, serve_cfg).expect("bind ephemeral server")
}

fn mvcc_server(retain: usize, sub_queue_epochs: usize) -> Server {
    mvcc_server_with_keys(KEYS, retain, sub_queue_epochs)
}

/// Seals one epoch carrying `tuples` and blocks until it is published.
fn seal_and_publish(client: &mut ServeClient, tuples: &[(u32, u64)]) -> u64 {
    client.update_all(tuples).expect("update");
    let sealed = client.seal().expect("seal");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (epoch, _) = client.query(0).expect("query");
        if epoch >= sealed {
            return sealed;
        }
        assert!(Instant::now() < deadline, "epoch {sealed} never published");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn time_travel_reads_every_retained_epoch() {
    let server = mvcc_server(8, 16);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Epoch e adds e to key 7, so the history is 1, 3, 6, 10 — cumulative.
    let mut expect = HashMap::new();
    let mut sum = 0u64;
    for e in 1..=4u64 {
        sum += e;
        assert_eq!(seal_and_publish(&mut client, &[(7, e)]), e);
        expect.insert(e, sum);
    }

    for e in 1..=4u64 {
        let (epoch, value) = client.query_at(e, 7).expect("time travel");
        assert_eq!((epoch, value), (e, expect[&e]));
        // Pinned snapshots agree with the point reads.
        let (sepoch, _, values) = client.snapshot(e, 0, KEYS).expect("pinned snapshot");
        assert_eq!(sepoch, e);
        assert_eq!(values[7], expect[&e]);
    }
    // Epoch 0 resolves to the latest.
    let (epoch, value) = client.query_at(0, 7).expect("latest");
    assert_eq!((epoch, value), (4, expect[&4]));
    // A future epoch is "not yet published", not "evicted".
    match client.query_at(99, 7) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SnapshotUnavailable),
        other => panic!("expected SnapshotUnavailable, got {other:?}"),
    }

    // DIFF between adjacent epochs returns exactly the changed key.
    for e in 1..=3u64 {
        let (from, to, entries) = client.diff(e, e + 1, 0, KEYS).expect("diff");
        assert_eq!((from, to), (e, e + 1));
        assert_eq!(entries, vec![(7, expect[&(e + 1)])]);
    }
    // to_epoch 0 resolves to the latest; a self-diff is empty.
    let (_, to, entries) = client.diff(1, 0, 0, KEYS).expect("diff to latest");
    assert_eq!(to, 4);
    assert_eq!(entries, vec![(7, expect[&4])]);
    let (_, _, none) = client.diff(2, 2, 0, KEYS).expect("self diff");
    assert_eq!(none, vec![]);

    server.shutdown();
}

#[test]
fn eviction_is_typed_and_window_of_one_behaves_like_before() {
    // Default retention (1): the pre-MVCC behavior.
    let server = mvcc_server(1, 16);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    seal_and_publish(&mut client, &[(3, 10)]);
    seal_and_publish(&mut client, &[(3, 20)]);

    // Epoch 0 and the exact latest both work...
    assert_eq!(client.query_at(0, 3).expect("latest").1, 30);
    assert_eq!(client.query_at(2, 3).expect("exact latest").1, 30);
    // ...but the previous epoch is evicted, with a typed error naming it.
    match client.query_at(1, 3) {
        Err(ClientError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::EpochEvicted);
            assert!(
                detail.contains('1'),
                "detail should name the epoch: {detail}"
            );
        }
        other => panic!("expected EpochEvicted, got {other:?}"),
    }
    // DIFF against an evicted epoch is refused the same way.
    match client.diff(1, 2, 0, KEYS) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::EpochEvicted),
        other => panic!("expected EpochEvicted, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.retained_epochs, 1);
    assert!(stats.retained_bytes > 0);
    server.shutdown();
}

#[test]
fn retention_gc_frees_memory_when_epochs_narrow() {
    let server = mvcc_server(4, 16);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Four epochs that each rewrite EVERY segment: the window holds four
    // fully divergent snapshot versions.
    let all_keys: Vec<(u32, u64)> = (0..KEYS).map(|k| (k, 1)).collect();
    for _ in 0..4 {
        seal_and_publish(&mut client, &all_keys);
    }
    let wide = client.stats().expect("stats").retained_bytes;

    // Four more epochs that each touch ONE key: eviction drops the
    // full-rewrite snapshots and the survivors share all but one segment,
    // so the unique-bytes accounting must shrink.
    for _ in 0..4 {
        seal_and_publish(&mut client, &[(0, 1)]);
    }
    let narrow_stats = client.stats().expect("stats");
    assert_eq!(narrow_stats.retained_epochs, 4);
    assert!(
        narrow_stats.retained_bytes < wide,
        "GC should free evicted segment versions: {} -> {}",
        wide,
        narrow_stats.retained_bytes
    );
    server.shutdown();
}

/// Folds one subscriber's event stream over 50 epochs into per-epoch
/// state vectors, re-syncing through DIFF on its own aux connection when
/// lagged. Returns (states by epoch, number of LAGGED events absorbed).
fn reconstruct(
    sub_client: ServeClient,
    addr: std::net::SocketAddr,
    keys: u32,
    last_epoch: u64,
    delay: Duration,
) -> (HashMap<u64, Vec<u64>>, u64) {
    let mut sub = sub_client.subscribe(0, keys).expect("subscribe");
    let mut aux = ServeClient::connect(addr).expect("connect aux");
    // Baseline state: the retained snapshot at the subscription's start
    // epoch (epoch 0 is the seed — all reducer identities).
    let (mut state, mut last) = if sub.start_epoch() == 0 {
        (vec![0u64; keys as usize], 0)
    } else {
        let (e, _, v) = aux
            .snapshot(sub.start_epoch(), 0, keys)
            .expect("baseline snapshot");
        (v, e)
    };
    std::thread::sleep(delay); // force the slow subscriber to overflow
    let mut states = HashMap::new();
    let mut lags = 0u64;
    while last < last_epoch {
        match sub.next_event().expect("push event") {
            SubEvent::Delta {
                from_epoch,
                to_epoch,
                entries,
            } => {
                // The gap-free guarantee: every epoch arrives, in order.
                assert_eq!(from_epoch, last, "delta must chain to the last epoch");
                assert_eq!(to_epoch, last + 1, "delta must advance by one epoch");
                for (k, v) in entries {
                    state[k as usize] = v;
                }
                last = to_epoch;
                states.insert(last, state.clone());
            }
            SubEvent::Lagged { resume_epoch } => {
                assert!(resume_epoch > last, "lag must move forward");
                lags += 1;
                // Lossless re-sync: one DIFF covers the missed epochs.
                let (_, to, entries) = aux.diff(last, resume_epoch, 0, keys).expect("re-sync diff");
                assert_eq!(to, resume_epoch);
                for (k, v) in entries {
                    state[k as usize] = v;
                }
                last = resume_epoch;
                states.insert(last, state.clone());
            }
        }
    }
    let (_, bye_epoch) = sub.unsubscribe().expect("unsubscribe");
    assert!(bye_epoch >= last_epoch);
    (states, lags)
}

#[test]
fn subscribers_reconstruct_state_from_deltas_alone() {
    const EPOCHS: u64 = 50;
    // A key space big enough that full-rewrite epochs produce ~200 KB
    // deltas: the sleeping subscriber's socket fills, its outbox reaches
    // the high-water mark, and its bounded hub queue must overflow into
    // LAGGED.
    const BIG_KEYS: u32 = 16 * 1024;
    // Retain every epoch so both the verification snapshots and the
    // lagged re-sync diff can reach arbitrarily far back.
    let server = mvcc_server_with_keys(BIG_KEYS, EPOCHS as usize + 4, 8);
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");

    // Subscribers register BEFORE any epoch publishes. The third sleeps
    // through the whole run, so its 8-epoch queue must overflow into the
    // LAGGED + re-sync path.
    let mut joins = Vec::new();
    for delay_ms in [0u64, 0, 4000] {
        let sub_client = ServeClient::connect(addr).expect("connect subscriber");
        joins.push(std::thread::spawn(move || {
            reconstruct(
                sub_client,
                addr,
                BIG_KEYS,
                EPOCHS,
                Duration::from_millis(delay_ms),
            )
        }));
    }

    // 50 epochs, each rewriting every key (value e ensures every key's
    // accumulated sum changes every epoch).
    for e in 1..=EPOCHS {
        let tuples: Vec<(u32, u64)> = (0..BIG_KEYS).map(|k| (k, e)).collect();
        assert_eq!(seal_and_publish(&mut driver, &tuples), e);
    }

    // Ground truth: the server's own pinned snapshots at every epoch.
    let mut truth = HashMap::new();
    for e in 1..=EPOCHS {
        let (epoch, _, values) = driver.snapshot(e, 0, BIG_KEYS).expect("truth snapshot");
        assert_eq!(epoch, e);
        truth.insert(e, values);
    }

    let mut total_lags = 0u64;
    for (i, join) in joins.into_iter().enumerate() {
        let (states, lags) = join.join().expect("subscriber thread");
        total_lags += lags;
        assert!(
            states.contains_key(&EPOCHS),
            "subscriber {i} never reached epoch {EPOCHS}"
        );
        for (epoch, state) in &states {
            assert_eq!(
                state, &truth[epoch],
                "subscriber {i} diverged from the server at epoch {epoch}"
            );
        }
        if i < 2 {
            // The fast subscribers must have replayed EVERY epoch from
            // deltas alone.
            for e in 1..=EPOCHS {
                assert!(states.contains_key(&e), "subscriber {i} missed epoch {e}");
            }
        }
    }
    assert!(
        total_lags >= 1,
        "the slow subscriber should have been forced through LAGGED"
    );

    let stats = driver.stats().expect("stats");
    assert_eq!(stats.active_subscribers, 0, "all subscribers unsubscribed");
    assert!(stats.deltas_pushed > 0);
    server.shutdown();
}

#[test]
fn unsubscribe_returns_the_connection_to_request_mode() {
    let server = mvcc_server(4, 16);
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");

    let sub_client = ServeClient::connect(addr).expect("connect subscriber");
    let mut sub = sub_client.subscribe(0, KEYS).expect("subscribe");

    seal_and_publish(&mut driver, &[(5, 55)]);
    match sub.next_event().expect("first push") {
        SubEvent::Delta {
            to_epoch, entries, ..
        } => {
            assert_eq!(to_epoch, 1);
            assert_eq!(entries, vec![(5, 55)]);
        }
        other => panic!("expected a delta, got {other:?}"),
    }
    assert_eq!(driver.stats().expect("stats").active_subscribers, 1);

    // Back to request mode: the same connection answers queries again.
    let (mut client, _) = sub.unsubscribe().expect("unsubscribe");
    assert_eq!(client.query(5).expect("query after unsubscribe").1, 55);
    assert_eq!(client.stats().expect("stats").active_subscribers, 0);

    // Dropping a subscribed connection (disconnect) also unregisters.
    let sub2 = ServeClient::connect(addr).expect("connect subscriber 2");
    let _sub2 = sub2.subscribe(0, KEYS).expect("subscribe 2");
    assert_eq!(driver.stats().expect("stats").active_subscribers, 1);
    drop(_sub2);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if driver.stats().expect("stats").active_subscribers == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "disconnect never unsubscribed");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();

    // The connection comes back as it went in: a client must return
    // from a subscription still pipelining. Only a scripted peer can see
    // that — it withholds the first chunk's acknowledgement and watches
    // for a second chunk, which a pipelining client has already sent.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted peer");
    let peer_addr = listener.local_addr().expect("local addr");
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut inbox = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut reply = |sock: &mut TcpStream, frame: Frame| {
            protocol::write_frame(sock, &frame, &mut scratch).expect("reply")
        };
        let mut read = |sock: &mut TcpStream| read_one_frame(sock, &mut inbox);
        assert!(matches!(read(&mut sock), Frame::Subscribe { .. }));
        reply(&mut sock, Frame::Subscribed { epoch: 0 });
        assert!(matches!(read(&mut sock), Frame::Unsubscribe));
        reply(&mut sock, Frame::Unsubscribed { epoch: 0 });
        let Frame::Update(first) = read(&mut sock) else {
            panic!("expected the first UPDATE chunk");
        };
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set timeout");
        let early = match next_frame(&mut sock, &mut inbox) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                None
            }
            Ok(Some(Frame::Update(second))) => Some(second),
            other => panic!("scripted peer got {other:?}"),
        };
        sock.set_read_timeout(None).expect("clear timeout");
        let pipelined = early.is_some();
        let accepted = first.len() as u32;
        reply(&mut sock, Frame::Accepted { accepted });
        let second = early.unwrap_or_else(|| match read_one_frame(&mut sock, &mut inbox) {
            Frame::Update(second) => second,
            other => panic!("expected the second UPDATE chunk, got {other:?}"),
        });
        let accepted = second.len() as u32;
        reply(&mut sock, Frame::Accepted { accepted });
        pipelined
    });
    let client = ServeClient::connect(peer_addr).expect("connect scripted peer");
    let sub = client.subscribe(0, KEYS).expect("scripted subscribe");
    let (mut client, _) = sub.unsubscribe().expect("scripted unsubscribe");
    let two_chunks = vec![(0u32, 1u64); MAX_UPDATE_TUPLES as usize + 1];
    client
        .update_all(&two_chunks)
        .expect("update through the scripted peer");
    assert!(
        peer.join().expect("scripted peer"),
        "unsubscribe left the client in lockstep: chunk 2 waited for chunk 1's acknowledgement"
    );
}

#[test]
fn subscribe_rejects_bad_ranges_without_killing_the_connection() {
    let server = mvcc_server(2, 16);
    let client = ServeClient::connect(server.local_addr()).expect("connect");
    match client.subscribe(KEYS, KEYS + 10) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadRange),
        Err(other) => panic!("expected BadRange, got {other:?}"),
        Ok(_) => panic!("expected BadRange, got a subscription"),
    }
    server.shutdown();
}

/// Reads one length-prefixed frame body off a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("read length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("read body");
    body
}

#[test]
fn mixed_version_peers_are_refused_in_both_directions() {
    // Old client vs new server: a v2 QUERY is refused with a clean error
    // frame before its opcode is ever interpreted, then the server hangs
    // up — no desync, no crash.
    let server = mvcc_server(2, 16);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut v2_query = Vec::new();
    protocol::encode(&Frame::Query { key: 1 }, &mut v2_query);
    v2_query[4] = PROTOCOL_VERSION - 1; // regress the version byte
    raw.write_all(&v2_query).expect("send v2 frame");
    let body = read_raw_frame(&mut raw);
    let reply = protocol::decode(&body).expect("decode error frame");
    match reply {
        Frame::Error { code, detail } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(
                detail.contains("protocol version"),
                "detail should name the mismatch: {detail}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    server.shutdown();

    // New client vs old server: a fake "old" server answers with a v2
    // frame; the client surfaces a typed VersionMismatch, not a hang.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let fake_addr = listener.local_addr().expect("fake addr");
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let _ = read_raw_frame(&mut conn); // swallow the request
        let mut reply = Vec::new();
        protocol::encode(
            &Frame::Value {
                epoch: 1,
                value: 42,
            },
            &mut reply,
        );
        reply[4] = PROTOCOL_VERSION - 1; // speak the old revision
        conn.write_all(&reply).expect("send v2 reply");
    });
    let mut client = ServeClient::connect(fake_addr).expect("connect fake");
    match client.query(1) {
        Err(ClientError::Wire(WireError::VersionMismatch { got, want })) => {
            assert_eq!(got, PROTOCOL_VERSION - 1);
            assert_eq!(want, PROTOCOL_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    fake.join().expect("fake server thread");

    // The version byte sits in every frame, so the rejection covers every
    // opcode — including the new MVCC ones.
    let mut buf = Vec::new();
    protocol::encode(&Frame::Unsubscribe, &mut buf);
    assert_eq!(buf[5], opcodes::UNSUBSCRIBE);
}
