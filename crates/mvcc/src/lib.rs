//! # cobra-mvcc — multi-epoch retention, time travel, diffs, and push
//! subscriptions
//!
//! Propagation-blocked ingestion already versions the state for free:
//! every sealed epoch publishes an immutable, copy-on-write-segmented
//! [`EpochSnapshot`](cobra_stream::EpochSnapshot). This crate turns that
//! version boundary into an MVCC subsystem:
//!
//! * [`EpochStore`] — a retention window over the last K epochs
//!   (count- and/or age-bounded, [`RetentionConfig`]). Because epochs
//!   share unrewritten segments by `Arc`, the window costs unique
//!   segment versions only, and "GC" is simply dropping the evicted
//!   epoch's handles — a segment still named by any retained epoch
//!   survives by construction. Lookups are epoch-or-latest with a typed
//!   [`EpochEvicted`] outside the window.
//! * [`diff_range`] — changed keys between two retained epochs,
//!   computed by segment `Arc` identity (shared handle ⇒ skip,
//!   divergent ⇒ value scan), with entries carrying absolute values so
//!   application is idempotent.
//! * [`DeltaHub`] — publish-time fan-out of per-epoch deltas to
//!   registered subscribers over bounded queues, with a lossless lag
//!   protocol: overflow never drops an epoch silently, it surfaces as
//!   [`SubMsg::Lagged`]`{resume_epoch}` and a diff re-sync closes the
//!   gap.
//! * [`feed_publish_hook`] — the one-line integration with
//!   [`cobra_stream`]: a [`PublishHook`] that admits every published
//!   snapshot into the store and fans its delta out to subscribers,
//!   *before* the epoch becomes observable as latest.
//!
//! The serve layer (`cobra-serve`) maps this onto the wire as
//! `QUERY_AT` / `DIFF` / `SUBSCRIBE` / `UNSUBSCRIBE` frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod hub;
pub mod store;

pub use diff::diff_range;
pub use hub::{DeltaHub, SubDelta, SubMsg, Subscriber};
pub use store::{EpochEvicted, EpochStore, RetentionConfig};

use cobra_stream::{Publish, PublishHook};
use std::sync::Arc;

/// Builds the [`PublishHook`] that wires a pipeline to an
/// [`EpochStore`] + [`DeltaHub`] pair: at every publish's
/// [`Publish::Admit`] it (1) computes the epoch's changed entries against
/// the store's current latest, (2) admits the new snapshot (evicting per
/// the retention policy), and (3) fans the delta out to subscribers; it
/// ignores [`Publish::Visible`]. Runs on the accumulator thread —
/// cost is O(segments + keys-in-rewritten-segments) per epoch, and the
/// diff is skipped entirely while nobody subscribes.
///
/// Seed the store with the pipeline's initial (or recovered) snapshot
/// before the first seal; a publish that arrives against an unseeded
/// store is still safe — the full state is emitted as the delta (a
/// correct over-approximation, since entries are absolute values).
pub fn feed_publish_hook<A>(store: Arc<EpochStore<A>>, hub: Arc<DeltaHub<A>>) -> PublishHook<A>
where
    A: Clone + PartialEq + Default + Send + Sync + 'static,
{
    Box::new(move |step| {
        let Publish::Admit(snap) = step else { return };
        let prev = store.latest();
        store.admit(Arc::clone(snap));
        if hub.active_subscribers() == 0 {
            // Keep the publish path O(segments) while nobody listens; a
            // subscriber registered after this check simply starts at
            // the next epoch.
            hub.fan_out(snap.epoch(), Vec::new());
            return;
        }
        let changed = match &prev {
            Some(prev) => diff_range(prev, snap, 0, snap.num_keys()),
            // Unseeded store: every non-default key "changed".
            None => {
                let zero = A::default();
                let mut all = Vec::new();
                for (k, v) in snap.iter().enumerate() {
                    if *v != zero {
                        all.push((k as u32, v.clone()));
                    }
                }
                all
            }
        };
        hub.fan_out(snap.epoch(), changed);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_stream::EpochSnapshot;
    use std::time::Duration;

    #[test]
    fn hook_admits_and_fans_out_per_epoch_deltas() {
        let store = Arc::new(EpochStore::new(RetentionConfig::new().max_epochs(4)));
        let hub: Arc<DeltaHub<u64>> = Arc::new(DeltaHub::new());
        let seg = |vals: [u64; 4]| Arc::new(vals.to_vec());

        let e0 = Arc::new(EpochSnapshot::from_segments(0, 4, vec![seg([0; 4])]));
        store.admit(Arc::clone(&e0));

        let sub = hub.subscribe(0, 4, 8);
        let mut hook = feed_publish_hook(Arc::clone(&store), Arc::clone(&hub));

        let e1 = Arc::new(EpochSnapshot::from_segments(1, 4, vec![seg([0, 7, 0, 0])]));
        hook(Publish::Admit(&e1));
        let e2 = Arc::new(EpochSnapshot::from_segments(2, 4, vec![seg([0, 7, 0, 9])]));
        hook(Publish::Admit(&e2));

        assert_eq!(store.bounds(), Some((0, 2)));
        match sub.next_msg(Duration::from_millis(50)) {
            SubMsg::Delta(d) => {
                assert_eq!(d.epoch(), 1);
                assert_eq!(d.entries(), &[(1, 7)]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        match sub.next_msg(Duration::from_millis(50)) {
            SubMsg::Delta(d) => {
                assert_eq!(d.epoch(), 2);
                assert_eq!(d.entries(), &[(3, 9)]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn hook_on_unseeded_store_emits_full_state() {
        let store = Arc::new(EpochStore::new(RetentionConfig::new()));
        let hub: Arc<DeltaHub<u64>> = Arc::new(DeltaHub::new());
        let sub = hub.subscribe(0, 4, 8);
        let mut hook = feed_publish_hook(Arc::clone(&store), Arc::clone(&hub));
        let e1 = Arc::new(EpochSnapshot::from_segments(
            1,
            4,
            vec![Arc::new(vec![5, 0, 0, 6])],
        ));
        hook(Publish::Admit(&e1));
        match sub.next_msg(Duration::from_millis(50)) {
            SubMsg::Delta(d) => assert_eq!(d.entries(), &[(0, 5), (3, 6)]),
            other => panic!("expected delta, got {other:?}"),
        }
    }
}
