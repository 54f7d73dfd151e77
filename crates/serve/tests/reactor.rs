//! Reactor-specific end-to-end tests: protocol pipelining against a full
//! shard FIFO (admission stalls, never refuses), slow-loris /
//! partial-frame robustness under the
//! per-connection frame budget, write backpressure against clients that
//! pipeline without reading, client-side frame alignment after a
//! mid-pipeline server error, the `max_conns` refusal, and a
//! 1000-connection storm.

mod common;

use cobra_serve::client::DEFAULT_PIPELINE_WINDOW;
use cobra_serve::protocol::{self, ErrorCode, Frame, FrameBuf, MAX_UPDATE_TUPLES};
use cobra_serve::{ClientError, ServeClient, ServeConfig, Server, SubEvent};
use cobra_stream::StreamConfig;
use common::{next_frame, read_one_frame};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// A server whose shard FIFO is one single-tuple batch deep, so any
/// sustained UPDATE stream stalls admission on the full FIFO.
fn congested_server(num_keys: u32) -> Server {
    congested_server_batching(num_keys, 1)
}

/// [`congested_server`] with `batch_tuples`-tuple batches: above 1, a
/// round's last partial batch is still in the reactor's handle when the
/// round settles, and the one FIFO slot it needs is usually taken.
fn congested_server_batching(num_keys: u32, batch_tuples: usize) -> Server {
    let stream_cfg = StreamConfig::new()
        .shards(1)
        .channel_capacity(1)
        .batch_tuples(batch_tuples);
    let serve_cfg = ServeConfig::new().cache_blocks(8);
    Server::start(num_keys, stream_cfg, serve_cfg).expect("bind ephemeral server")
}

/// A server with a deliberately short per-connection frame budget.
fn short_budget_server(num_keys: u32, budget: Duration) -> Server {
    let stream_cfg = StreamConfig::new().shards(2).batch_tuples(8);
    let serve_cfg = ServeConfig::new().cache_blocks(8).idle_budget(budget);
    Server::start(num_keys, stream_cfg, serve_cfg).expect("bind ephemeral server")
}

/// Appends one encoded frame to `out` (`protocol::encode` clears its
/// output buffer, so pipelined byte streams need this detour).
fn append_frame(frame: &Frame, out: &mut Vec<u8>) {
    let mut scratch = Vec::new();
    protocol::encode(frame, &mut scratch);
    out.extend_from_slice(&scratch);
}

/// A window of pipelined UPDATE frames against a 1-deep shard FIFO: the
/// reactor stalls on the full FIFO instead of refusing, so every
/// acknowledgement counts its whole frame, and the final snapshot sum
/// shows no tuple lost or applied twice.
#[test]
fn pipelined_updates_against_a_full_fifo_are_accepted_whole() {
    let server = congested_server(64);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    const TUPLES: u64 = 4096;
    const FRAME: usize = 64;
    let batch: Vec<(u32, u64)> = (0..TUPLES).map(|i| ((i % 64) as u32, i + 1)).collect();
    let expected: u64 = batch.iter().map(|&(_, v)| v).sum();

    // Every frame holds 64 batches for a FIFO that holds one.
    for window in batch.chunks(FRAME * DEFAULT_PIPELINE_WINDOW) {
        for frame in window.chunks(FRAME) {
            client.send_update(frame).expect("send");
        }
        for frame in window.chunks(FRAME) {
            assert_eq!(client.recv_update().expect("ack"), frame.len() as u32);
        }
    }
    client.seal().expect("seal");

    let (snapshot, stats) = server.shutdown();
    let total: u64 = snapshot.iter().sum();
    assert_eq!(total, expected, "tuples dropped or applied twice");
    assert_eq!(stats.tuples_ingested, TUPLES);
    assert_eq!(stats.busy_tuples, 0, "the server refused tuples");
}

/// The settle guarantee under congestion, across connections: whatever
/// connection A was told is `ACCEPTED` is in the epoch that connection B
/// seals the moment A's last
/// acknowledgement arrives — the settle waited for the full FIFO, it did
/// not give up and it did not let the acknowledgement out early. Nothing
/// acknowledged is lost or applied twice by the end.
#[test]
fn accepted_on_one_connection_is_visible_to_a_seal_on_another() {
    const KEYS: u32 = 64;
    const ROUNDS: u64 = 200;
    const PER_ROUND: u64 = 29; // never a multiple of the batch size below
    for batch_tuples in [1, 8] {
        let server = congested_server_batching(KEYS, batch_tuples);
        let mut a = ServeClient::connect(server.local_addr()).expect("connect a");
        let mut b = ServeClient::connect(server.local_addr()).expect("connect b");
        let mut acknowledged = 0u64;
        for round in 0..ROUNDS {
            let first = round * PER_ROUND;
            let batch: Vec<(u32, u64)> = (first..first + PER_ROUND)
                .map(|i| ((i % KEYS as u64) as u32, i + 1))
                .collect();
            a.update_all(&batch).expect("update");
            acknowledged += batch.iter().map(|&(_, v)| v).sum::<u64>();

            let sealed = b.seal().expect("seal");
            b.wait_epoch(sealed).expect("wait");
            let (epoch, _, values) = b.snapshot(sealed, 0, KEYS).expect("snapshot");
            assert_eq!(epoch, sealed);
            assert_eq!(
                values.iter().sum::<u64>(),
                acknowledged,
                "batch_tuples={batch_tuples} round {round}: epoch {sealed} misses acknowledged tuples"
            );
        }
        let (snapshot, stats) = server.shutdown();
        assert_eq!(snapshot.iter().sum::<u64>(), acknowledged);
        assert_eq!(stats.tuples_ingested, ROUNDS * PER_ROUND);
    }
}

/// A client dribbling one byte at a time must be decoded exactly like a
/// whole read, as long as each frame completes inside the budget.
#[test]
fn one_byte_dribble_completes_within_the_frame_budget() {
    let server = short_budget_server(16, Duration::from_millis(500));
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut inbox = FrameBuf::new();

    let mut bytes = Vec::new();
    protocol::encode(&Frame::Update(vec![(3, 39), (3, 3)]), &mut bytes);
    for chunk in bytes.chunks(1) {
        raw.write_all(chunk).expect("dribble byte");
        raw.flush().expect("flush byte");
        std::thread::sleep(Duration::from_millis(2));
    }
    match read_one_frame(&mut raw, &mut inbox) {
        Frame::Accepted { accepted } => assert_eq!(accepted, 2),
        other => panic!("dribbled UPDATE not accepted: {other:?}"),
    }
    drop(raw);
    let (snapshot, _) = server.shutdown();
    assert_eq!(*snapshot.get(3), 42);
}

/// A connection that stalls mid-frame is disconnected once the budget
/// runs out — and a healthy connection on the same reactor keeps making
/// progress the whole time (no head-of-line blocking across sockets).
#[test]
fn mid_frame_stall_is_cut_without_stalling_healthy_connections() {
    let budget = Duration::from_millis(200);
    let server = short_budget_server(16, budget);
    let addr = server.local_addr();

    // The attacker: half a frame, then silence with the socket open.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    let mut bytes = Vec::new();
    protocol::encode(&Frame::Update(vec![(1, 7)]), &mut bytes);
    stalled
        .write_all(&bytes[..bytes.len() / 2])
        .expect("write partial frame");
    stalled.flush().expect("flush partial frame");

    // The victim that must not be starved: full round-trips throughout
    // the attacker's budget window and beyond.
    let mut healthy = ServeClient::connect(addr).expect("connect healthy");
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < 2 * budget {
        healthy.update_all(&[(5, 1)]).expect("healthy update");
        healthy.query(5).expect("healthy query");
        rounds += 1;
    }
    assert!(rounds > 0);

    // The stalled socket must observe the disconnect (EOF or reset).
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let mut buf = [0u8; 64];
    match stalled.read(&mut buf) {
        Ok(0) => {}  // clean EOF: the reactor dropped us
        Err(_) => {} // reset also counts as disconnected
        Ok(n) => panic!("stalled connection unexpectedly received {n} bytes"),
    }

    let (snapshot, _) = server.shutdown();
    // The attacker's torn half-update must not have landed…
    assert_eq!(*snapshot.get(1), 0);
    // …while every healthy round did.
    assert_eq!(*snapshot.get(5), rounds);
}

/// Write backpressure: a client that pipelines amplifying requests
/// (SNAPSHOT turns ~25 request bytes into ~512KB of response) without
/// ever reading replies must not make the server stage the whole answer
/// set in memory. Dispatch pauses at the outbox high-water mark, the
/// backlog clock cuts the connection at the idle budget, and a healthy
/// client keeps round-tripping throughout.
#[test]
fn unread_response_flood_is_bounded_and_cut_by_backpressure() {
    const KEYS: u32 = 65_536; // one full-range SNAPSHOT = 512KB of values
    const REQS: usize = 128; // ~64MB of responses if staged unchecked
    let budget = Duration::from_millis(300);
    let stream_cfg = StreamConfig::new().shards(2).batch_tuples(64);
    let serve_cfg = ServeConfig::new().idle_budget(budget);
    let server = Server::start(KEYS, stream_cfg, serve_cfg).expect("bind ephemeral server");
    let addr = server.local_addr();

    // The flooder: every request on the wire at once, replies unread.
    let mut flood = TcpStream::connect(addr).expect("connect flooder");
    let mut bytes = Vec::new();
    for _ in 0..REQS {
        append_frame(
            &Frame::Snapshot {
                epoch: 0,
                lo: 0,
                hi: KEYS,
            },
            &mut bytes,
        );
    }
    flood.write_all(&bytes).expect("write request flood");
    flood.flush().expect("flush request flood");

    // A healthy connection must not be starved while the flooder is
    // paused, clocked, and cut.
    let mut healthy = ServeClient::connect(addr).expect("connect healthy");
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < 3 * budget {
        healthy.update_all(&[(9, 1)]).expect("healthy update");
        healthy.query(9).expect("healthy query");
        rounds += 1;
    }
    assert!(rounds > 0);

    // The flooder was disconnected with only a bounded prefix of its
    // ~64MB answer set ever produced: whatever the kernel socket
    // buffers took plus one high-water mark of staged outbox — far
    // below half of what full staging would have delivered.
    flood
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut received = 0usize;
    let mut buf = [0u8; 64 * 1024];
    loop {
        match flood.read(&mut buf) {
            Ok(0) => break,  // EOF: the reactor dropped us
            Err(_) => break, // reset also counts as disconnected
            Ok(n) => received += n,
        }
    }
    assert!(
        received < REQS * 512 * 1024 / 2,
        "flooder received {received} bytes — backpressure never paused dispatch"
    );

    let (snapshot, _) = server.shutdown();
    assert_eq!(*snapshot.get(9), rounds, "healthy updates were lost");
}

/// A connection parked on WAIT_EPOCH with the first bytes of a
/// pipelined next frame already buffered must not be cut by the frame
/// budget while it waits: parking pauses the partial-frame clock and
/// unparking re-arms it.
#[test]
fn parked_waiter_with_pipelined_partial_frame_survives_the_budget() {
    let budget = Duration::from_millis(200);
    let server = short_budget_server(16, budget);
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut inbox = FrameBuf::new();
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");

    // Arm the partial clock: half an UPDATE frame, then a pause long
    // enough for the reactor to notice the incomplete frame.
    let mut first = Vec::new();
    protocol::encode(&Frame::Update(vec![(5, 5)]), &mut first);
    raw.write_all(&first[..first.len() / 2])
        .expect("half frame");
    raw.flush().expect("flush half frame");
    std::thread::sleep(Duration::from_millis(50));

    // Complete it, pipeline a WAIT_EPOCH for a not-yet-committed epoch,
    // and start dribbling the next frame — all in one write. The
    // connection parks with those partial bytes buffered.
    let mut second = Vec::new();
    second.extend_from_slice(&first[first.len() / 2..]);
    append_frame(&Frame::WaitEpoch { epoch: 1 }, &mut second);
    let mut next = Vec::new();
    protocol::encode(&Frame::Update(vec![(7, 42)]), &mut next);
    second.extend_from_slice(&next[..next.len() / 2]);
    raw.write_all(&second).expect("pipeline wait + partial");
    raw.flush().expect("flush pipeline");
    match read_one_frame(&mut raw, &mut inbox) {
        Frame::Accepted { accepted } => assert_eq!(accepted, 1),
        other => panic!("first UPDATE not accepted: {other:?}"),
    }

    // Wait well past the budget: a parked connection is a legitimate
    // waiter, not a mid-frame staller, and must survive.
    std::thread::sleep(3 * budget);

    // Commit epoch 1 on another connection; the waiter must be
    // answered, not found dead.
    let mut sealer = ServeClient::connect(addr).expect("connect sealer");
    sealer.update_all(&[(3, 3)]).expect("sealer update");
    sealer.seal().expect("seal epoch 1");
    match read_one_frame(&mut raw, &mut inbox) {
        Frame::EpochCommitted { epoch } => assert!(epoch >= 1),
        other => panic!("parked waiter was not answered: {other:?}"),
    }

    // The budget re-arms on unpark: completing the dribbled frame
    // promptly still works.
    raw.write_all(&next[next.len() / 2..])
        .expect("finish frame");
    raw.flush().expect("flush finish");
    match read_one_frame(&mut raw, &mut inbox) {
        Frame::Accepted { accepted } => assert_eq!(accepted, 1),
        other => panic!("post-unpark UPDATE not accepted: {other:?}"),
    }

    drop(raw);
    let (snapshot, _) = server.shutdown();
    assert_eq!(*snapshot.get(5), 5);
    assert_eq!(*snapshot.get(7), 42);
}

/// A server `Error` reply to one chunk of a pipelined `update_all` must
/// not desync the connection: the acknowledgements owed to the chunks
/// still in flight are drained before the error returns, so the next
/// call reads its own response.
#[test]
fn update_all_stays_frame_aligned_after_mid_pipeline_server_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    // A scripted peer: refuses the first UPDATE with an Error frame,
    // acks the rest normally, and answers QUERY — enough protocol to
    // prove the client drains the in-flight acknowledgements.
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut inbox = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut updates_seen = 0usize;
        loop {
            match next_frame(&mut sock, &mut inbox) {
                Ok(Some(Frame::Update(tuples))) => {
                    updates_seen += 1;
                    let reply = if updates_seen == 1 {
                        Frame::Error {
                            code: ErrorCode::Internal,
                            detail: "injected fault".to_string(),
                        }
                    } else {
                        Frame::Accepted {
                            accepted: tuples.len() as u32,
                        }
                    };
                    protocol::write_frame(&mut sock, &reply, &mut scratch).expect("reply");
                }
                Ok(Some(Frame::Query { key })) => {
                    let reply = Frame::Value {
                        epoch: 9,
                        value: u64::from(key),
                    };
                    protocol::write_frame(&mut sock, &reply, &mut scratch).expect("reply");
                }
                Ok(None) => break, // client hung up
                other => panic!("fake server got {other:?}"),
            }
        }
        updates_seen
    });

    let mut client = ServeClient::connect(addr).expect("connect");
    // One chunk more than the window: a window's worth rides the wire
    // before the first acknowledgement (the injected Error) is read.
    let tuples: Vec<(u32, u64)> = (0..(DEFAULT_PIPELINE_WINDOW + 1) * MAX_UPDATE_TUPLES as usize)
        .map(|i| (i as u32 % 8, 1))
        .collect();
    let err = client
        .update_all(&tuples)
        .expect_err("injected fault surfaces");
    assert!(
        matches!(err, ClientError::Server { .. }),
        "expected the server error, got {err:?}"
    );

    // The connection must still be frame-aligned: this QUERY has to get
    // ITS Value back, not a stale Accepted from the aborted pipeline.
    let (epoch, value) = client
        .query(3)
        .expect("connection desynced after update_all error");
    assert_eq!((epoch, value), (9, 3));

    drop(client);
    // Exactly the window's in-flight chunks reached the wire — the error
    // stopped the window from refilling.
    assert_eq!(fake.join().expect("fake server"), DEFAULT_PIPELINE_WINDOW);
}

/// Idling BETWEEN frames is free: the budget clocks a started frame, not
/// a quiet connection. A client may sit silent far longer than the
/// budget and still be served afterwards.
#[test]
fn idle_between_frames_is_not_budgeted() {
    let budget = Duration::from_millis(150);
    let server = short_budget_server(16, budget);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    client.update_all(&[(2, 20)]).expect("first update");
    std::thread::sleep(4 * budget);
    client
        .update_all(&[(2, 22)])
        .expect("update after long idle");
    client.seal().expect("seal");

    let (snapshot, _) = server.shutdown();
    assert_eq!(*snapshot.get(2), 42);
}

/// Past `max_conns` the accept round closes the newcomer: its first call
/// fails with a typed error instead of hanging, the admitted connections
/// never notice, and a slot freed by a disconnect is handed out again.
#[test]
fn connections_past_max_conns_are_closed_and_freed_slots_are_reused() {
    let deadline = Duration::from_secs(5);
    let serve_cfg = ServeConfig::new().max_conns(2);
    let server = Server::start(16, StreamConfig::new().shards(1), serve_cfg).expect("bind server");
    let addr = server.local_addr();

    // A round trip each, so both hold their slot before the third knocks.
    let mut a = ServeClient::connect(addr).expect("connect a");
    let mut b = ServeClient::connect(addr).expect("connect b");
    a.query(1).expect("a admitted");
    b.query(1).expect("b admitted");

    // The kernel completes the handshake; the reactor accepts and drops.
    let mut refused = ServeClient::connect(addr).expect("tcp connect");
    let t0 = Instant::now();
    let err = refused.query(1).expect_err("a third connection was served");
    assert!(
        matches!(err, ClientError::Disconnected | ClientError::Io(_)),
        "expected a closed socket, got {err:?}"
    );
    assert!(t0.elapsed() < deadline, "refusal took {:?}", t0.elapsed());

    a.update_all(&[(1, 41)]).expect("a still served");
    b.update_all(&[(1, 1)]).expect("b still served");

    // The reactor may meet the newcomer before it reads `a`'s EOF, so
    // knock until the freed slot is seen.
    drop(a);
    let t0 = Instant::now();
    let mut fresh = loop {
        let mut c = ServeClient::connect(addr).expect("tcp connect");
        if c.query(1).is_ok() {
            break c;
        }
        assert!(t0.elapsed() < deadline, "freed slot never handed out");
    };
    fresh.seal().expect("fresh connection seals");
    let (snapshot, _) = server.shutdown();
    assert_eq!(*snapshot.get(1), 42);
}

/// The gate only a load generator used to check: 1000 connections open
/// at once on the one reactor thread (16 driver threads; about 3000
/// descriptors in this process), one UPDATE in flight on every
/// connection per round against a FIFO that stalls admission, and a
/// subscriber registered before the first of them connects. Every
/// acknowledgement counts its whole batch; nothing may be refused, lost,
/// duplicated, or pushed with a gap.
#[test]
fn thousand_connection_storm_loses_nothing_and_pushes_gap_free() {
    const CONNS: usize = 1000;
    const DRIVERS: usize = 16;
    const ROUNDS: u64 = 4;
    const PER_ROUND: u64 = 16;
    const KEYS: u32 = 1 << 10;
    const SENT: u64 = CONNS as u64 * ROUNDS * PER_ROUND;
    // One 16-tuple batch of FIFO: 16 000 tuples a round stall admission.
    let server = congested_server_batching(KEYS, 16);
    let addr = server.local_addr();

    let subscriber = ServeClient::connect(addr).expect("connect subscriber");
    let mut sub = subscriber.subscribe(0, KEYS).expect("subscribe");
    let mut prev = sub.start_epoch();
    let (tx, events) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        while let Ok(event) = sub.next_event() {
            if tx.send(event).is_err() {
                break;
            }
        }
    });

    let all_open = Barrier::new(DRIVERS);
    let driver = |d: usize| {
        let share = CONNS / DRIVERS + usize::from(d < CONNS % DRIVERS);
        let mut clients: Vec<ServeClient> = (0..share)
            .map(|_| {
                // A round trip each: the burst stays inside the listen
                // backlog, and past the barrier the reactor holds all 1000.
                let mut client = ServeClient::connect(addr).expect("storm connect");
                client.query(0).expect("storm admit");
                client
            })
            .collect();
        all_open.wait();
        let mut sum = 0u64;
        for round in 0..ROUNDS {
            let batches: Vec<Vec<(u32, u64)>> = (0..share)
                .map(|c| {
                    (0..PER_ROUND)
                        .map(|i| ((c as u64 * PER_ROUND + i) as u32 % KEYS, round + i + 1))
                        .collect()
                })
                .collect();
            for (client, batch) in clients.iter_mut().zip(&batches) {
                client.send_update(batch).expect("storm send");
            }
            for (client, batch) in clients.iter_mut().zip(&batches) {
                let accepted = client.recv_update().expect("storm ack");
                assert_eq!(
                    accepted as usize,
                    batch.len(),
                    "a partial ack in round {round}"
                );
                sum += batch.iter().map(|&(_, v)| v).sum::<u64>();
            }
            if d == 0 {
                clients[0].seal().expect("storm seal");
            }
        }
        sum
    };
    let sent_sum: u64 = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..DRIVERS)
            .map(|d| scope.spawn(move || driver(d)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("storm driver"))
            .sum()
    });

    let mut sealer = ServeClient::connect(addr).expect("connect sealer");
    let last = sealer.seal().expect("final seal");
    while prev < last {
        let event = events
            .recv_timeout(Duration::from_secs(10))
            .expect("subscriber starved before the final seal");
        match event {
            SubEvent::Delta {
                from_epoch,
                to_epoch,
                ..
            } => {
                assert_eq!(
                    (from_epoch, to_epoch),
                    (prev, prev + 1),
                    "gap in the push stream"
                );
                prev = to_epoch;
            }
            SubEvent::Lagged { resume_epoch } => {
                panic!("subscriber lagged to epoch {resume_epoch} under the storm")
            }
        }
    }
    let (snapshot, stats) = server.shutdown();
    reader.join().expect("subscriber reader");
    assert_eq!(
        snapshot.iter().sum::<u64>(),
        sent_sum,
        "the storm lost updates"
    );
    assert_eq!(stats.tuples_ingested, SENT);
    assert_eq!(
        stats.connections,
        CONNS as u64 + 2,
        "a connection was refused"
    );
}
