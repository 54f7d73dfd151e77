//! The one routing body of every Binning level.
//!
//! COBRA bins at every level of a hierarchy with power-of-two ranges, and
//! each level does the same thing: shift a key to name its destination,
//! stage the tuple in that destination's frame, and hand the frame off
//! whole when it fills. [`route`] is that loop, written once. A level
//! supplies its frames and a [`Destinations`] value saying what a full
//! frame is handed to, whether the handoff can be refused, and whether a
//! tuple may merge into a staged one instead of taking a slot:
//!
//! * [`Binner`](crate::Binner): C-Buffer frames flushed into bin memory,
//!   with Coup-style fusion as its merge step;
//! * `cobra-stream`'s ingest handles: frames moved into shard FIFOs,
//!   which refuse a frame when full if the caller asked not to block;
//! * `cobra-cluster`'s router: frames sent to a node as one `UPDATE`;
//! * `cobra-core`'s simulated software PB (`SwPb`): one-line C-Buffers
//!   bulk-written to bin memory, with the per-tuple instruction trace
//!   reported from the merge step, which never merges;
//! * `cobra-core`'s COBRA model: the L1 → L2 → LLC C-Buffer chain, where
//!   a full line is shipped into the next level's eviction buffer and a
//!   full LLC line is written to memory.

use cobra_bins::CBufFrame;

/// A staging frame: the tuples bound for one destination, in arrival
/// order, until the frame is handed off.
pub trait Frame<V> {
    /// Stages one tuple; `true` once the frame holds `capacity` tuples,
    /// the size [`route`] hands it off at. A frame that allocates takes
    /// all `capacity` slots at once.
    fn push(&mut self, key: u32, value: V, capacity: usize) -> bool;

    /// Takes the last staged tuple back out.
    fn pop(&mut self);
}

impl<V: Copy> Frame<V> for CBufFrame<V> {
    #[inline]
    fn push(&mut self, key: u32, value: V, capacity: usize) -> bool {
        CBufFrame::push(self, key, value);
        self.len() >= capacity
    }

    fn pop(&mut self) {
        CBufFrame::pop(self);
    }
}

/// A `Vec` frame that left whole (its buffer moved on with it, as a shard
/// FIFO message does) is reallocated at full capacity by its next tuple,
/// so staging never regrows one.
impl<V, T: From<(u32, V)>> Frame<V> for Vec<T> {
    #[inline]
    fn push(&mut self, key: u32, value: V, capacity: usize) -> bool {
        if self.capacity() == 0 {
            self.reserve_exact(capacity);
        }
        Vec::push(self, T::from((key, value)));
        self.len() >= capacity
    }

    fn pop(&mut self) {
        Vec::pop(self);
    }
}

/// Where one level's full frames go, indexed by destination.
pub trait Destinations<V> {
    /// The staging frame of one destination.
    type Frame: Frame<V>;
    /// Why a destination refused a frame.
    type Refusal;
    /// `false` compiles [`merge`](Self::merge) out of [`route`].
    const MERGES: bool = false;

    /// Offers `(key, value)` to destination `d`'s staged tuples before it
    /// takes a slot of its own; `true` means it was folded into one of
    /// them. A level may also only observe the tuple here, seeing the
    /// frame as it is before the push, and return `false`. Called only
    /// when [`MERGES`](Self::MERGES) is `true`.
    fn merge(&mut self, d: usize, frame: &mut Self::Frame, key: u32, value: &V) -> bool {
        let _ = (d, frame, key, value);
        false
    }

    /// Hands destination `d` its frame. On success the frame is left
    /// empty; a refused frame must be left holding what it held.
    fn ship(&mut self, d: usize, frame: &mut Self::Frame) -> Result<(), Self::Refusal>;
}

/// Why [`route`] stopped before the end of its run. Neither the tuple
/// named nor any after it was accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop<R> {
    /// This key is `>= num_keys`; nothing was staged from it on.
    KeyOutOfRange(u32),
    /// A destination refused the frame this tuple completed; the tuple
    /// was taken back out, so its frame is one short of full.
    Refused(R),
}

/// Routes `run` in order: per tuple, check the key against `num_keys`,
/// name its destination `d = key >> shift`, offer it to `to.merge` (when
/// the level merges), else stage it in `frames[d]` and hand the frame to
/// `to.ship` once it holds `capacity` tuples. Returns how many tuples
/// were accepted and, if the run ended early, why: resending the
/// unaccepted suffix verbatim delivers every tuple exactly once.
///
/// # Panics
///
/// Panics if a key in range names a destination past `frames`.
#[inline]
pub fn route<V, D: Destinations<V>>(
    run: impl IntoIterator<Item = (u32, V)>,
    frames: &mut [D::Frame],
    to: &mut D,
    num_keys: u32,
    shift: u32,
    capacity: usize,
) -> (usize, Result<(), Stop<D::Refusal>>) {
    let mut accepted = 0;
    for (key, value) in run {
        if key >= num_keys {
            return (accepted, Err(Stop::KeyOutOfRange(key)));
        }
        let d = (key >> shift) as usize;
        let frame = &mut frames[d];
        let merged = D::MERGES && to.merge(d, frame, key, &value);
        if !merged && frame.push(key, value, capacity) {
            if let Err(refusal) = to.ship(d, frame) {
                frame.pop();
                return (accepted, Err(Stop::Refused(refusal)));
            }
        }
        accepted += 1;
    }
    (accepted, Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_bins::FRAME_KEYS;

    /// Destinations that record every frame they accept and refuse the
    /// `n`th handoff (counting from 0) while `refuse_at` names it.
    struct Sink {
        shipped: Vec<Vec<(u32, u64)>>,
        handoffs: usize,
        refuse_at: Option<usize>,
    }

    impl Sink {
        fn new(refuse_at: Option<usize>) -> Self {
            Sink {
                shipped: Vec::new(),
                handoffs: 0,
                refuse_at,
            }
        }
    }

    impl Destinations<u64> for Sink {
        type Frame = Vec<(u32, u64)>;
        type Refusal = &'static str;

        fn ship(&mut self, _: usize, frame: &mut Self::Frame) -> Result<(), &'static str> {
            let n = self.handoffs;
            self.handoffs += 1;
            if self.refuse_at == Some(n) {
                return Err("busy");
            }
            self.shipped.push(std::mem::take(frame));
            Ok(())
        }
    }

    /// Four destinations of 16 keys each.
    const KEYS: u32 = 64;
    const SHIFT: u32 = 4;

    fn frames() -> Vec<Vec<(u32, u64)>> {
        (0..KEYS >> SHIFT).map(|_| Vec::new()).collect()
    }

    fn tuples(n: u64) -> Vec<(u32, u64)> {
        (0..n)
            .map(|i| (((i * 0x9E37_79B9) >> 3) as u32 % KEYS, i))
            .collect()
    }

    #[test]
    fn a_refused_handoff_leaves_the_frame_one_short_and_the_suffix_resends() {
        let run = tuples(40);
        let mut staged = frames();
        let mut sink = Sink::new(Some(1));
        let (accepted, stopped) =
            route(run.iter().copied(), &mut staged, &mut sink, KEYS, SHIFT, 3);
        assert_eq!(stopped, Err(Stop::Refused("busy")));
        assert!(accepted < run.len());
        // The refused frame is the one the last offered tuple completed.
        let d = (run[accepted].0 >> SHIFT) as usize;
        assert_eq!(staged[d].len(), 2, "one short of full");
        assert_eq!(sink.shipped.len(), 1);

        // Resending the unaccepted suffix verbatim, then draining every
        // frame, delivers each tuple exactly once.
        sink.refuse_at = None;
        let rest = route(
            run[accepted..].iter().copied(),
            &mut staged,
            &mut sink,
            KEYS,
            SHIFT,
            3,
        );
        assert_eq!(rest, (run.len() - accepted, Ok(())));
        let mut delivered: Vec<(u32, u64)> = sink.shipped.concat();
        delivered.extend(staged.concat());
        delivered.sort_unstable_by_key(|&(_, i)| i);
        assert_eq!(delivered, run);
    }

    #[test]
    fn an_out_of_range_key_stops_the_run_with_nothing_staged_after_it() {
        let run = [(1, 10), (17, 20), (KEYS, 30), (2, 40), (KEYS + 5, 50)];
        let mut staged = frames();
        let mut sink = Sink::new(None);
        assert_eq!(
            route(run, &mut staged, &mut sink, KEYS, SHIFT, 4),
            (2, Err(Stop::KeyOutOfRange(KEYS)))
        );
        assert_eq!(staged[0], [(1, 10)]);
        assert_eq!(staged[1], [(17, 20)]);
        assert!(sink.shipped.is_empty());
        assert_eq!(staged.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn runs_equal_the_per_tuple_loop_at_every_frame_capacity() {
        let run = tuples(20_000);
        for capacity in [1, 3, FRAME_KEYS, 4096] {
            let (mut by_run, mut by_one) = (frames(), frames());
            let (mut run_sink, mut one_sink) = (Sink::new(None), Sink::new(None));
            let whole = route(
                run.iter().copied(),
                &mut by_run,
                &mut run_sink,
                KEYS,
                SHIFT,
                capacity,
            );
            assert_eq!(whole, (run.len(), Ok(())), "capacity {capacity}");
            for &t in &run {
                let one = route([t], &mut by_one, &mut one_sink, KEYS, SHIFT, capacity);
                assert_eq!(one, (1, Ok(())));
            }
            assert_eq!(run_sink.shipped, one_sink.shipped, "capacity {capacity}");
            assert_eq!(by_run, by_one, "capacity {capacity}");
            assert!(!run_sink.shipped.is_empty(), "capacity {capacity}");
            assert!(run_sink.shipped.iter().all(|f| f.len() == capacity));
        }
    }

    #[test]
    fn an_empty_run_ships_nothing() {
        let mut staged = frames();
        let mut sink = Sink::new(None);
        assert_eq!(
            route(std::iter::empty(), &mut staged, &mut sink, KEYS, SHIFT, 1),
            (0, Ok(()))
        );
        assert_eq!(sink.handoffs, 0);
        assert!(staged.iter().all(Vec::is_empty));
    }
}
