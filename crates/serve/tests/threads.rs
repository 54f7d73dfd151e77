//! One I/O model: streaming requests are reactor connection states, so
//! they cost no threads. Alone in its own test binary — the count is of
//! this process's threads, and sibling tests would move it.

#![cfg(target_os = "linux")]

use cobra_serve::{ServeClient, ServeConfig, Server, SubEvent};
use cobra_stream::StreamConfig;

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .count()
}

#[test]
fn subscriptions_and_replication_add_no_server_threads() {
    const KEYS: u32 = 4096;
    const SUBSCRIBERS: usize = 32;
    let dir = std::env::temp_dir().join(format!("cobra-serve-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_cfg = ServeConfig::new().data_dir(&dir);
    let stream_cfg = StreamConfig::new().shards(2).batch_tuples(64);
    let server = Server::start(KEYS, stream_cfg, serve_cfg).expect("bind durable server");
    let addr = server.local_addr();
    let mut driver = ServeClient::connect(addr).expect("connect driver");
    let mut follower = ServeClient::connect(addr).expect("connect follower");
    let clients: Vec<ServeClient> = (0..SUBSCRIBERS)
        .map(|_| ServeClient::connect(addr).expect("connect subscriber"))
        .collect();
    // Round-trip once so every connection is accepted and served before
    // the baseline is taken.
    driver.stats().expect("stats");
    let before = process_threads();

    let mut subs: Vec<_> = clients
        .into_iter()
        .map(|c| c.subscribe(0, KEYS).expect("subscribe"))
        .collect();
    driver.update_all(&[(3, 30)]).expect("update");
    let sealed = driver.seal().expect("seal");
    driver.wait_epoch(sealed).expect("commit");
    for sub in &mut subs {
        match sub.next_event().expect("push") {
            SubEvent::Delta { to_epoch, .. } => assert_eq!(to_epoch, sealed),
            other => panic!("expected a delta, got {other:?}"),
        }
    }
    let (epoch, files, bytes) = follower
        .replicate(Vec::new(), |_, _, _| Ok(()))
        .expect("replication round");
    assert!(epoch >= sealed && files > 0 && bytes > 0);
    assert_eq!(
        driver.stats().expect("stats").active_subscribers,
        SUBSCRIBERS as u64
    );

    assert_eq!(
        process_threads(),
        before,
        "{SUBSCRIBERS} live subscriptions and a replication round must not spawn threads"
    );
    drop(subs);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
