//! Half-closed and hung-up peers. A peer that half-closes
//! (`shutdown(Write)`) still gets every reply to what it sent: each
//! request, a subscription's queued deltas and its `UNSUBSCRIBED`, a
//! replication round through `REPL_DONE`, then the end of the stream.
//! And a peer that hangs up while the reactor is not reading its socket
//! must not spin the reactor: a half-close with replies unread is armed
//! only with read interest, which a connection paused at the outbox
//! high-water mark has dropped, and a reset heard without read interest
//! drops the connection. Alone in their own test binary, one server at
//! a time: the spin tests read the reactor thread's CPU time from
//! `/proc/self/task`, and another reactor would carry the same thread
//! name.

mod common;

use cobra_serve::protocol::{self, Frame, FrameBuf};
use cobra_serve::{ServeClient, ServeConfig, Server};
use cobra_stream::StreamConfig;
use common::{next_frame, read_one_frame};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Held by each test for its whole run.
static ONE_SERVER: Mutex<()> = Mutex::new(());

/// The reactor thread's name (`cobra-serve-reactor`) as `comm` has it.
const REACTOR: &str = "cobra-serve-rea";

/// CPU time in ns of this process's threads whose name starts with
/// `prefix` (`comm` is cut at 15 bytes), or `None` off Linux.
fn thread_cpu_ns(prefix: &str) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.starts_with(prefix) {
            // The first `schedstat` field is the thread's CPU time in ns.
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// Waits until the reactor has spent no CPU for `quiet` (at most 30 s),
/// or just for `quiet` off Linux. A connection's idle-budget clock
/// restarts whenever a flush makes progress, and the kernel keeps taking
/// small amounts of an unread stream for a few seconds (zero-window
/// probes), so a fixed wait cannot say when the budget has run out.
fn wait_for_a_quiet_reactor(quiet: Duration) {
    let give_up = Instant::now() + Duration::from_secs(30);
    let (mut last, mut since) = (thread_cpu_ns(REACTOR), Instant::now());
    while since.elapsed() < quiet && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(50));
        let now = thread_cpu_ns(REACTOR);
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
}

/// Asserts that the reactor used under 10 % of a core over one second
/// (skipped off Linux).
fn assert_reactor_idles(what: &str) {
    let t0 = Instant::now();
    let before = thread_cpu_ns(REACTOR);
    std::thread::sleep(Duration::from_secs(1));
    let after = thread_cpu_ns(REACTOR);
    if let (Some(before), Some(after)) = (before, after) {
        let share = (after - before) as f64 / t0.elapsed().as_nanos() as f64;
        assert!(
            share < 0.10,
            "the reactor used {:.0}% of a core while {what}",
            share * 100.0
        );
    }
}

#[test]
fn a_half_closed_peer_with_unread_replies_idles_the_reactor_until_the_cut() {
    let _one = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
    const KEYS: u32 = 65_536; // one full-range SNAPSHOT = 512KB of values
    const REQS: usize = 32;
    let budget = Duration::from_secs(1);
    let stream_cfg = StreamConfig::new().shards(2);
    let serve_cfg = ServeConfig::new().idle_budget(budget);
    let server = Server::start(KEYS, stream_cfg, serve_cfg).expect("bind ephemeral server");

    // Every request on the wire at once, replies never read. Once the
    // reactor has staged replies up to the outbox mark it stops reading
    // the socket, and the write side shuts.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let (mut bytes, mut scratch) = (Vec::new(), Vec::new());
    let request = Frame::Snapshot {
        epoch: 0,
        lo: 0,
        hi: KEYS,
    };
    for _ in 0..REQS {
        protocol::encode(&request, &mut scratch);
        bytes.extend_from_slice(&scratch);
    }
    raw.write_all(&bytes).expect("write requests");
    std::thread::sleep(Duration::from_millis(250));
    raw.shutdown(Shutdown::Write).expect("half-close");

    // The hangup nobody reads must not wake the reactor.
    assert_reactor_idles("the peer sat half-closed");

    // The idle budget cut the connection: reading only now finds what
    // the socket buffers took before the cut, then the end of the
    // stream — far less than the whole answer set.
    wait_for_a_quiet_reactor(budget + Duration::from_millis(500));
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut received = 0usize;
    let mut buf = [0u8; 64 * 1024];
    loop {
        match raw.read(&mut buf) {
            Ok(0) | Err(_) => break, // end of stream or reset: cut
            Ok(n) => received += n,
        }
    }
    assert!(
        received < REQS * 512 * 1024 / 2,
        "received {received} bytes: the connection was served, not cut"
    );
    server.shutdown();
}

#[test]
fn a_reset_peer_parked_on_wait_epoch_is_dropped_not_polled() {
    let _one = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
    let stream_cfg = StreamConfig::new().shards(2);
    let server = Server::start(64, stream_cfg, ServeConfig::new()).expect("bind ephemeral server");
    let addr = server.local_addr();

    // A reply left unread makes the close a reset; the wait parks, with
    // nothing left to flush, so the connection has no interest at all.
    let mut raw = TcpStream::connect(addr).expect("connect");
    let (mut bytes, mut scratch) = (Vec::new(), Vec::new());
    for frame in [Frame::Stats, Frame::WaitEpoch { epoch: 1 << 40 }] {
        protocol::encode(&frame, &mut scratch);
        bytes.extend_from_slice(&scratch);
    }
    raw.write_all(&bytes).expect("write requests");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    raw.peek(&mut [0u8; 1]).expect("the STATS reply arrives");
    std::thread::sleep(Duration::from_millis(100));
    drop(raw);
    std::thread::sleep(Duration::from_millis(250));

    assert_reactor_idles("a parked peer sat reset");
    let mut client = ServeClient::connect(addr).expect("connect");
    client.stats().expect("the server still serves");
    server.shutdown();
}

/// `reqs` full-range `SNAPSHOT`s of a `keys`-key server, back to back.
fn snapshot_requests(keys: u32, reqs: usize) -> Vec<u8> {
    let (mut bytes, mut scratch) = (Vec::new(), Vec::new());
    let request = Frame::Snapshot {
        epoch: 0,
        lo: 0,
        hi: keys,
    };
    for _ in 0..reqs {
        protocol::encode(&request, &mut scratch);
        bytes.extend_from_slice(&scratch);
    }
    bytes
}

#[test]
fn a_half_closed_peer_that_reads_gets_every_reply() {
    let _one = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
    const KEYS: u32 = 65_536; // one full-range SNAPSHOT = 512KB of values
    const REQS: usize = 32;
    const PEERS: usize = 4;
    let stream_cfg = StreamConfig::new().shards(2);
    let server =
        Server::start(KEYS, stream_cfg, ServeConfig::new()).expect("bind ephemeral server");

    // Each peer puts every request on the wire at once, half-closes and
    // reads only later: far more than the outbox mark and the socket
    // buffers hold is owed when the reactor hears the half-close.
    let requests = snapshot_requests(KEYS, REQS);
    let mut peers: Vec<TcpStream> = (0..PEERS)
        .map(|_| {
            let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
            raw.write_all(&requests).expect("write requests");
            raw.shutdown(Shutdown::Write).expect("half-close");
            raw
        })
        .collect();
    std::thread::sleep(Duration::from_millis(500));

    let mut reply = Vec::new();
    protocol::encode(
        &Frame::SnapshotSlice {
            epoch: 0,
            lo: 0,
            values: vec![0; KEYS as usize],
        },
        &mut reply,
    );
    for (peer, raw) in peers.iter_mut().enumerate() {
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        let mut received = Vec::new();
        raw.read_to_end(&mut received)
            .expect("the stream ends cleanly");
        assert_eq!(
            received.len(),
            REQS * reply.len(),
            "peer {peer} got {} of {} bytes",
            received.len(),
            REQS * reply.len()
        );
        let (mut wire, mut inbox) = (received.as_slice(), FrameBuf::new());
        while inbox.read_from(&mut wire).expect("a slice reads") > 0 {}
        for _ in 0..REQS {
            let frame = inbox.next_frame().expect("a well-formed frame");
            assert!(
                matches!(&frame, Some(Frame::SnapshotSlice { values, .. }) if values.len() == KEYS as usize),
                "peer {peer}: expected a full slice"
            );
        }
    }
    server.shutdown();
}

#[test]
fn a_half_closed_subscriber_gets_its_queued_deltas_then_unsubscribed() {
    let _one = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
    let stream_cfg = StreamConfig::new().shards(2);
    let server = Server::start(64, stream_cfg, ServeConfig::new()).expect("bind ephemeral server");
    let mut driver = ServeClient::connect(server.local_addr()).expect("connect driver");

    let mut raw = TcpStream::connect(server.local_addr()).expect("connect subscriber");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut inbox = FrameBuf::new();
    protocol::write_frame(
        &mut raw,
        &Frame::Subscribe { lo: 0, hi: 64 },
        &mut Vec::new(),
    )
    .expect("subscribe");
    let Frame::Subscribed { epoch: baseline } = read_one_frame(&mut raw, &mut inbox) else {
        panic!("expected SUBSCRIBED");
    };

    // Three epochs publish while the subscriber reads nothing; then it
    // half-closes.
    let mut last = baseline;
    for key in 1..=3u32 {
        driver.update_all(&[(key, 1)]).expect("update");
        last = driver.seal().expect("seal");
        driver.wait_epoch(last).expect("wait for the epoch");
    }
    raw.shutdown(Shutdown::Write).expect("half-close");

    // Every delta in order, then the acknowledgement, then the end.
    let mut at = baseline;
    let unsubscribed = loop {
        match read_one_frame(&mut raw, &mut inbox) {
            Frame::Delta {
                from_epoch,
                to_epoch,
                done: true,
                ..
            } => {
                assert_eq!((from_epoch, to_epoch), (at, at + 1), "a gap in the deltas");
                at = to_epoch;
            }
            Frame::Unsubscribed { epoch } => break epoch,
            other => panic!("expected a delta or UNSUBSCRIBED, got {other:?}"),
        }
    };
    assert_eq!(at, last, "a queued delta was dropped");
    assert!(unsubscribed >= last);
    assert_eq!(
        next_frame(&mut raw, &mut inbox).expect("end of stream"),
        None
    );
    assert_eq!(driver.stats().expect("stats").active_subscribers, 0);
    server.shutdown();
}

#[test]
fn a_half_closed_replicate_peer_gets_its_round_through_repl_done() {
    let _one = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
    const KEYS: u32 = 65_536;
    const REQS: usize = 32;
    let dir = std::env::temp_dir().join(format!("cobra-serve-halfclose-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stream_cfg = StreamConfig::new().shards(2);
    let serve_cfg = ServeConfig::new().data_dir(&dir);
    let server = Server::start(KEYS, stream_cfg, serve_cfg).expect("bind durable server");
    let mut driver = ServeClient::connect(server.local_addr()).expect("connect driver");
    let tuples: Vec<(u32, u64)> = (0..KEYS).map(|k| (k, 1)).collect();
    driver.update_all(&tuples).expect("update");
    let sealed = driver.seal().expect("seal");
    driver.wait_epoch(sealed).expect("commit");

    // Replies past the outbox mark stop the reactor reading; the
    // REPLICATE and the half-close then arrive together behind them.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    raw.write_all(&snapshot_requests(KEYS, REQS))
        .expect("write requests");
    std::thread::sleep(Duration::from_millis(250));
    let replicate = Frame::Replicate {
        manifest: Vec::new(),
    };
    protocol::write_frame(&mut raw, &replicate, &mut Vec::new()).expect("replicate");
    raw.shutdown(Shutdown::Write).expect("half-close");

    let mut inbox = FrameBuf::new();
    for _ in 0..REQS {
        let frame = read_one_frame(&mut raw, &mut inbox);
        assert!(
            matches!(frame, Frame::SnapshotSlice { .. }),
            "got {frame:?}"
        );
    }
    let mut shipped = 0u64;
    loop {
        match read_one_frame(&mut raw, &mut inbox) {
            Frame::Segment { bytes, .. } => shipped += bytes.len() as u64,
            Frame::ReplDone { epoch, bytes, .. } => {
                assert!(epoch >= sealed);
                assert_eq!(bytes, shipped);
                break;
            }
            other => panic!("expected a segment or REPL_DONE, got {other:?}"),
        }
    }
    assert!(shipped > 0, "the round shipped the log");
    assert_eq!(
        next_frame(&mut raw, &mut inbox).expect("end of stream"),
        None
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
