//! SUBSCRIBE and REPLICATE as reactor connection states: the self-wake
//! path (a publish or a shutdown must not wait for some later event), flow
//! control against a subscriber that stops reading, and in-order handling
//! of frames pipelined behind a streaming request.

mod common;

use cobra_serve::protocol::{self, ErrorCode, Frame, FrameBuf};
use cobra_serve::{ServeClient, ServeConfig, Server, SubEvent};
use cobra_stream::StreamConfig;
use common::{next_frame, read_one_frame};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn stream_cfg() -> StreamConfig {
    StreamConfig::new().shards(2).batch_tuples(64)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cobra-serve-streams-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Encodes `frames` back to back: one TCP write, one readiness event.
fn pipelined(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut one = Vec::new();
    for frame in frames {
        protocol::encode(frame, &mut one);
        out.extend_from_slice(&one);
    }
    out
}

/// Wake, not tick: the reactor has no poll tick, yet a subscriber sees
/// the delta of a sealed epoch at once (the publish hook wakes the
/// reactor), and `shutdown()` with a live subscription returns at once
/// (the same wake, not a connect-to-self, and no thread waiting out a
/// read timeout).
#[test]
fn publish_and_shutdown_wake_the_reactor_without_waiting_for_the_tick() {
    let serve_cfg = ServeConfig::new().cache_blocks(8);
    let server = Server::start(256, stream_cfg(), serve_cfg).expect("bind ephemeral server");
    let addr = server.local_addr();
    let mut writer = ServeClient::connect(addr).expect("connect writer");
    let mut sub = ServeClient::connect(addr)
        .expect("connect subscriber")
        .subscribe(0, 256)
        .expect("subscribe");

    // Let the reactor go back to sleep in its poll.
    std::thread::sleep(Duration::from_millis(50));
    writer.update_all(&[(7, 41)]).expect("update");
    let t0 = Instant::now();
    let sealed = writer.seal().expect("seal");
    match sub.next_event().expect("push") {
        SubEvent::Delta {
            to_epoch, entries, ..
        } => {
            assert_eq!(to_epoch, sealed);
            assert_eq!(entries, vec![(7, 41)]);
        }
        other => panic!("expected a delta, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "delta took {waited:?}: the publish did not wake the reactor"
    );

    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    let (snapshot, _) = server.shutdown();
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "shutdown took {waited:?} with a live subscriber"
    );
    assert_eq!(*snapshot.get(7), 41);
    // The subscriber sees a clean close, not a hang.
    assert!(sub.next().is_none());
}

/// Slow subscriber: a subscriber that stops reading is held to the
/// outbox high-water mark (plus one frame) of server memory — the rest
/// backs up into its bounded hub queue and turns into `LAGGED`. Once it
/// reads again, a diff re-sync reconstructs the exact final state.
#[test]
fn stalled_subscriber_is_bounded_gets_lagged_and_resyncs_exactly() {
    const KEYS: u32 = 65_536; // a full rewrite = one ~768 KB Delta frame
    const EPOCHS: u64 = 64; // ~48 MB of deltas if staged unchecked
    let serve_cfg = ServeConfig::new()
        .retain_epochs(EPOCHS as usize + 4)
        .sub_queue_epochs(2);
    let server = Server::start(KEYS, stream_cfg(), serve_cfg).expect("bind ephemeral server");
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");
    let mut sub = ServeClient::connect(addr)
        .expect("connect subscriber")
        .subscribe(0, KEYS)
        .expect("subscribe");
    assert_eq!(sub.start_epoch(), 0);

    // The subscriber reads nothing while every epoch rewrites every key.
    for e in 1..=EPOCHS {
        let tuples: Vec<(u32, u64)> = (0..KEYS).map(|k| (k, e + u64::from(k))).collect();
        assert_eq!(seal_and_publish(&mut driver, &tuples), e);
    }

    // Now it reads: a bounded prefix of deltas (kernel socket buffers,
    // one high-water mark of outbox, two queued epochs), then LAGGED.
    let mut state = vec![0u64; KEYS as usize];
    let mut last = 0u64;
    let mut deltas_before_lag = 0u64;
    let mut lags = 0u64;
    while last < EPOCHS {
        match sub.next_event().expect("push event") {
            SubEvent::Delta {
                from_epoch,
                to_epoch,
                entries,
            } => {
                assert_eq!((from_epoch, to_epoch), (last, last + 1), "gap in deltas");
                if lags == 0 {
                    deltas_before_lag += 1;
                }
                for (k, v) in entries {
                    state[k as usize] = v;
                }
                last = to_epoch;
            }
            SubEvent::Lagged { resume_epoch } => {
                assert!(resume_epoch > last, "lag must move forward");
                lags += 1;
                let (_, to, entries) = driver
                    .diff(last, resume_epoch, 0, KEYS)
                    .expect("re-sync diff");
                assert_eq!(to, resume_epoch);
                for (k, v) in entries {
                    state[k as usize] = v;
                }
                last = resume_epoch;
            }
        }
    }
    assert!(lags >= 1, "a stalled subscriber must be pushed into LAGGED");
    assert!(
        deltas_before_lag < EPOCHS / 2,
        "{deltas_before_lag} of {EPOCHS} epochs were staged for a peer that read nothing"
    );
    let (_, _, truth) = driver.snapshot(EPOCHS, 0, KEYS).expect("truth snapshot");
    assert_eq!(state, truth, "re-synced state diverged from the server");

    sub.unsubscribe().expect("unsubscribe");
    assert_eq!(driver.stats().expect("stats").active_subscribers, 0);
    server.shutdown();
}

/// A subscriber that never reads at all is cut once its backlog has sat
/// at the high-water mark for the idle budget, and its hub registration
/// goes with it.
#[test]
fn subscriber_that_never_reads_is_cut_at_the_idle_budget() {
    const KEYS: u32 = 65_536;
    let serve_cfg = ServeConfig::new()
        .idle_budget(Duration::from_millis(300))
        .sub_queue_epochs(2);
    let server = Server::start(KEYS, stream_cfg(), serve_cfg).expect("bind ephemeral server");
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");
    let mut raw = TcpStream::connect(addr).expect("connect raw subscriber");
    let mut inbox = FrameBuf::new();
    raw.write_all(&pipelined(&[Frame::Subscribe { lo: 0, hi: KEYS }]))
        .expect("subscribe");
    assert!(matches!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Subscribed { epoch: 0 }
    ));
    assert_eq!(driver.stats().expect("stats").active_subscribers, 1);

    // Full rewrites until the unread backlog trips the budget.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut e = 0u64;
    while driver.stats().expect("stats").active_subscribers > 0 {
        assert!(Instant::now() < deadline, "stalled subscriber never cut");
        e += 1;
        let tuples: Vec<(u32, u64)> = (0..KEYS).map(|k| (k, e)).collect();
        seal_and_publish(&mut driver, &tuples);
    }

    // The socket was closed under it: what the kernel already held drains
    // to EOF (or a reset), never to a hang.
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut buf = [0u8; 64 * 1024];
    loop {
        match raw.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    server.shutdown();
}

/// Ordering: frames pipelined behind SUBSCRIBE in the same TCP segment
/// are handled in order, in the mode the earlier frames left behind.
#[test]
fn frames_pipelined_behind_subscribe_are_handled_in_order() {
    let serve_cfg = ServeConfig::new().cache_blocks(8);
    let server = Server::start(256, stream_cfg(), serve_cfg).expect("bind ephemeral server");
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");
    let sealed = seal_and_publish(&mut driver, &[(9, 90)]);

    // SUBSCRIBE, UNSUBSCRIBE and a QUERY in one write: the subscription
    // opens and closes, then the QUERY is answered in request mode.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut inbox = FrameBuf::new();
    raw.write_all(&pipelined(&[
        Frame::Subscribe { lo: 0, hi: 256 },
        Frame::Unsubscribe,
        Frame::Query { key: 9 },
    ]))
    .expect("pipeline");
    assert_eq!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Subscribed { epoch: sealed }
    );
    assert_eq!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Unsubscribed { epoch: sealed }
    );
    assert_eq!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Value {
            epoch: sealed,
            value: 90
        }
    );
    assert_eq!(driver.stats().expect("stats").active_subscribers, 0);

    // Anything but UNSUBSCRIBE behind a SUBSCRIBE is a protocol
    // violation: typed error, close, registration released.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut inbox = FrameBuf::new();
    raw.write_all(&pipelined(&[
        Frame::Subscribe { lo: 0, hi: 256 },
        Frame::Query { key: 9 },
    ]))
    .expect("pipeline");
    assert!(matches!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Subscribed { .. }
    ));
    match read_one_frame(&mut raw, &mut inbox) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert!(matches!(next_frame(&mut raw, &mut inbox), Ok(None)));
    assert_eq!(driver.stats().expect("stats").active_subscribers, 0);
    server.shutdown();
}

/// Ordering: frames pipelined behind REPLICATE wait until the round's
/// `ReplDone` is staged, so response order per connection is unchanged.
#[test]
fn frames_pipelined_behind_replicate_wait_for_repl_done() {
    const KEYS: u32 = 65_536;
    let dir = temp_dir("repl-order");
    let serve_cfg = ServeConfig::new().data_dir(&dir);
    let server = Server::start(KEYS, stream_cfg(), serve_cfg).expect("bind durable server");
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");
    // ~1 MB of WAL: the round spans several chunks, hence several rounds.
    let tuples: Vec<(u32, u64)> = (0..KEYS).map(|k| (k, u64::from(k) + 1)).collect();
    let sealed = seal_and_publish(&mut driver, &tuples);
    driver.wait_epoch(sealed).expect("commit");

    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut inbox = FrameBuf::new();
    raw.write_all(&pipelined(&[
        Frame::Replicate {
            manifest: Vec::new(),
        },
        Frame::Query { key: 9 },
        Frame::Seal,
    ]))
    .expect("pipeline");
    let mut segments = 0u32;
    let mut shipped = 0u64;
    let mut commit_log_seen = false;
    let (files, bytes) = loop {
        match read_one_frame(&mut raw, &mut inbox) {
            Frame::Segment { name, bytes, .. } => {
                assert!(
                    !commit_log_seen || name.starts_with("commit/"),
                    "{name} shipped after the commit log"
                );
                commit_log_seen |= name.starts_with("commit/");
                segments += 1;
                shipped += bytes.len() as u64;
            }
            Frame::ReplDone {
                epoch,
                files,
                bytes,
            } => {
                assert!(epoch >= sealed);
                break (files, bytes);
            }
            other => panic!("{other:?} overtook the replication round"),
        }
    };
    assert!(commit_log_seen, "the commit log ships last, but it ships");
    assert!(segments > files, "expected a multi-chunk file in the round");
    assert_eq!(shipped, bytes);
    assert_eq!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Value {
            epoch: sealed,
            value: 10
        }
    );
    assert!(matches!(
        read_one_frame(&mut raw, &mut inbox),
        Frame::Sealed { .. }
    ));

    let stats = driver.stats().expect("stats");
    assert_eq!(stats.repl_rounds, 1);
    assert_eq!(stats.repl_bytes_shipped, bytes);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A round ships each file up to the length it was listed at: shard-log
/// bytes appended after the round started arrive in the next round, and
/// in both rounds the commit log arrives last.
#[test]
fn bytes_appended_during_a_round_ship_next_round() {
    // ~11 MB of log per shard: far more than the outbox high-water mark
    // and the socket buffers, so most of a shard log is read from disk
    // after the follower's first callback has returned.
    const KEYS: u32 = 1 << 20;
    let dir = temp_dir("repl-next-round");
    let serve_cfg = ServeConfig::new().data_dir(&dir);
    let server = Server::start(KEYS, stream_cfg(), serve_cfg).expect("bind durable server");
    let addr = server.local_addr();
    let mut writer = ServeClient::connect(addr).expect("connect writer");
    let tuples: Vec<(u32, u64)> = (0..KEYS).map(|k| (k, 1)).collect();
    let first = seal_and_publish(&mut writer, &tuples);
    writer.wait_epoch(first).expect("commit");

    // The follower: file name → bytes held, kept in memory.
    let mut held: HashMap<String, Vec<u8>> = HashMap::new();
    let mut follower = ServeClient::connect(addr).expect("connect follower");
    let mut round = |held: &mut HashMap<String, Vec<u8>>, mut during: Option<&mut ServeClient>| {
        let manifest = held
            .iter()
            .map(|(n, b)| (n.clone(), b.len() as u64))
            .collect();
        let mut order = Vec::new();
        let (epoch, _, _) = follower
            .replicate(manifest, |name, offset, bytes| {
                if let Some(writer) = during.take() {
                    // The round has listed its files: commit one more epoch.
                    let sealed = seal_and_publish(writer, &tuples);
                    writer.wait_epoch(sealed).expect("commit");
                }
                let file = held.entry(name.to_string()).or_default();
                assert_eq!(file.len() as u64, offset, "{name} shipped with a gap");
                file.extend_from_slice(bytes);
                order.push(name.to_string());
                Ok(())
            })
            .expect("replicate");
        let commit_from = order.iter().position(|n| n.starts_with("commit/"));
        let commit_from = commit_from.expect("the commit log ships");
        assert!(
            order[commit_from..]
                .iter()
                .all(|n| n.starts_with("commit/")),
            "shipped after the commit log: {order:?}"
        );
        epoch
    };
    let on_disk = |name: &str| std::fs::read(dir.join(name)).expect("read primary file");

    assert_eq!(round(&mut held, Some(&mut writer)), first);
    let short = held
        .iter()
        .filter(|(name, bytes)| name.starts_with("shard-") && bytes.len() < on_disk(name).len())
        .count();
    assert_eq!(short, 2, "both shard logs grew after the listing");
    assert!(held
        .iter()
        .all(|(name, bytes)| on_disk(name).starts_with(bytes)));

    assert_eq!(round(&mut held, None), first + 1);
    assert!(held.iter().all(|(name, bytes)| *bytes == on_disk(name)));
    let mut listed = cobra_stream::commit_files(&dir).expect("list commit log");
    listed.extend(cobra_stream::data_files(&dir).expect("list data files"));
    assert_eq!(listed.len(), held.len(), "every file shipped");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
