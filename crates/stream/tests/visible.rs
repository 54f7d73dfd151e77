//! `Publish::Visible(e)` is the event "epoch `e` is visible": while the
//! notification runs, `published_epoch() >= e` and
//! `committed_epoch() >= e` already read so on another thread, durable
//! or not. The serve layer answers parked `WAIT_EPOCH`s on it.

use cobra_stream::{Count, DurableConfig, IngestPipeline, Publish, PublishHook};
use cobra_stream::{StreamConfig, SyncPolicy};
use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

fn each_notification_finds_its_epoch_visible(durable: Option<&Path>) {
    let (seen_tx, seen) = mpsc::channel::<u64>();
    let (looked, looked_rx) = mpsc::channel::<()>();
    let hook: PublishHook<u32> = Box::new(move |step| {
        // Hold the accumulator inside the notification until the test
        // thread has read the counters (or has stopped looking).
        if let Publish::Visible(e) = step {
            if seen_tx.send(e).is_ok() {
                let _ = looked_rx.recv();
            }
        }
    });
    let cfg = StreamConfig::new().shards(2);
    let p = match durable {
        None => IngestPipeline::with_publish_hook(64, Count, cfg, hook),
        Some(dir) => {
            let durable = DurableConfig::new(dir).sync(SyncPolicy::Never);
            IngestPipeline::recover_with_hook(64, Count, cfg, durable, Some(hook))
                .expect("fresh data dir")
                .0
        }
    };
    let mut h = p.handle();
    for k in 0..8u32 {
        h.send(k, ()).expect("pipeline open");
        let e = h.seal_epoch().expect("pipeline open");
        let notified = seen
            .recv_timeout(Duration::from_secs(10))
            .expect("a notification per sealed epoch");
        assert_eq!(notified, e);
        assert!(
            p.published_epoch() >= e && p.committed_epoch() >= e,
            "notified for epoch {e}: published {}, committed {}",
            p.published_epoch(),
            p.committed_epoch()
        );
        looked.send(()).expect("accumulator waiting");
    }
    // The drain epoch's notification must not wait for a reader that
    // is inside `shutdown`.
    drop((seen, looked, h));
    let (snap, _) = p.shutdown();
    assert_eq!(snap.iter().sum::<u32>(), 8);
}

#[test]
fn a_visible_notification_follows_the_publish() {
    each_notification_finds_its_epoch_visible(None);
}

#[test]
fn a_visible_notification_follows_the_commit_and_the_publish() {
    let dir = std::env::temp_dir().join(format!("cobra-stream-visible-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    each_notification_finds_its_epoch_visible(Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}
