//! Update semantics for the streaming Accumulate phase.
//!
//! A [`Reducer`] folds incoming `(key, value)` tuples into a per-key
//! accumulator. The split mirrors the paper's Section III argument:
//!
//! * **Non-commutative** reducers (the general case — Neighbor-Populate,
//!   Integer Sort, Transpose, ...) only require *unordered parallelism*:
//!   any per-key application order is acceptable, but each update must be
//!   applied exactly once, unduplicated and uncoalesced, in a well-defined
//!   order. The pipeline replays bins tuple-by-tuple in per-shard arrival
//!   order for these ([`Reducer::apply`]).
//! * **Commutative** reducers (Degree-Count, Pagerank contributions)
//!   additionally allow *merge-on-flush*: a shard pre-reduces each sealed
//!   epoch's bins into per-key partial accumulators before shipping them,
//!   the software analogue of COBRA-COMM's at-the-LLC update coalescing
//!   (paper, Section V-G). The accumulator then folds partials with
//!   [`Reducer::merge`].

/// Folds streamed update values into per-key accumulators.
pub trait Reducer: Send + Sync + 'static {
    /// The streamed update payload.
    type Value: Copy + Send + 'static;
    /// The per-key accumulated state.
    type Acc: Clone + Send + Sync + 'static;

    /// Whether updates commute (`apply` in any order yields the same
    /// accumulator). Enables the merge-on-flush fast path.
    const COMMUTATIVE: bool = false;

    /// Whether two *values* for the same key may be coalesced into one
    /// while still staged in a C-Buffer frame (Coup-style reducer
    /// fusion; see [`fuse_values`](Self::fuse_values)). Requires
    /// [`COMMUTATIVE`](Self::COMMUTATIVE): fusion reassociates the
    /// reduction, two updates arrive at the accumulator as one.
    ///
    /// `COMMUTATIVE && FUSABLE` is the one switch between the binner's
    /// two merge policies: shard workers and WAL replay both read it (a
    /// compile-time constant) and bin through
    /// [`Binner::insert_fused`](cobra_pb::Binner::insert_fused) with
    /// `fuse_values` as the merge when it holds, through plain
    /// [`Binner::insert`](cobra_pb::Binner::insert) otherwise.
    const FUSABLE: bool = false;

    /// Coalesces the incoming value `b` into the staged value `a`, such
    /// that `apply(acc, a_fused)` equals `apply(acc, a); apply(acc, b)`.
    /// Returns `false` when this particular pair is not combinable (the
    /// tuple then stages normally — refusal is always legal). Only called
    /// when [`FUSABLE`](Self::FUSABLE) is `true`.
    fn fuse_values(&self, a: &mut Self::Value, b: &Self::Value) -> bool {
        let _ = (a, b);
        false
    }

    /// The accumulator every key starts from.
    fn identity(&self) -> Self::Acc;

    /// Applies one update to a key's accumulator.
    fn apply(&self, acc: &mut Self::Acc, value: &Self::Value);

    /// Merges a pre-reduced partial accumulator into a key's accumulator.
    /// Only called when [`COMMUTATIVE`](Self::COMMUTATIVE) is `true`.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        let _ = (into, from);
        unreachable!("merge is only invoked for commutative reducers");
    }
}

/// Degree-Count-style occurrence counting: every tuple increments its
/// key's counter. Commutative — but **not fusable**: the `()` payload
/// cannot encode "this tuple stands for two increments", so frame-level
/// coalescing would silently drop counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Count;

impl Reducer for Count {
    type Value = ();
    type Acc = u32;
    const COMMUTATIVE: bool = true;

    fn identity(&self) -> u32 {
        0
    }

    fn apply(&self, acc: &mut u32, _value: &()) {
        *acc += 1;
    }

    fn merge(&self, into: &mut u32, from: u32) {
        *into += from;
    }
}

/// Pagerank-contribution-style summation. Commutative.
///
/// Note `f32`/`f64` addition is commutative but not associative, so the
/// merged total can differ from serial replay in the last bits; the
/// pipeline's per-shard, per-bin replay order is deterministic, which is
/// what the equality tests rely on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl Reducer for Sum {
    type Value = f64;
    type Acc = f64;
    const COMMUTATIVE: bool = true;
    // Two staged contributions to the same key can pre-add in the frame.
    const FUSABLE: bool = true;

    fn identity(&self) -> f64 {
        0.0
    }

    fn apply(&self, acc: &mut f64, value: &f64) {
        *acc += value;
    }

    fn merge(&self, into: &mut f64, from: f64) {
        *into += from;
    }

    fn fuse_values(&self, a: &mut f64, b: &f64) -> bool {
        *a += *b;
        true
    }
}

/// Neighbor-Populate-style arrival log: appends each value to its key's
/// sequence. **Non-commutative** — per-key order is the result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Append;

impl Reducer for Append {
    type Value = u32;
    type Acc = Vec<u32>;

    fn identity(&self) -> Vec<u32> {
        Vec::new()
    }

    fn apply(&self, acc: &mut Vec<u32>, value: &u32) {
        acc.push(*value);
    }
}

/// Last-writer-wins register. **Non-commutative** — the surviving value is
/// decided by application order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latest;

impl Reducer for Latest {
    type Value = u64;
    type Acc = Option<u64>;

    fn identity(&self) -> Option<u64> {
        None
    }

    fn apply(&self, acc: &mut Option<u64>, value: &u64) {
        *acc = Some(*value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_applies_and_merges() {
        let r = Count;
        let mut a = r.identity();
        r.apply(&mut a, &());
        r.apply(&mut a, &());
        let mut b = r.identity();
        r.apply(&mut b, &());
        r.merge(&mut a, b);
        assert_eq!(a, 3);
    }

    #[test]
    fn append_preserves_order() {
        let r = Append;
        let mut a = r.identity();
        for v in [3, 1, 2] {
            r.apply(&mut a, &v);
        }
        assert_eq!(a, vec![3, 1, 2]);
    }

    #[test]
    fn latest_keeps_last() {
        let r = Latest;
        let mut a = r.identity();
        r.apply(&mut a, &10);
        r.apply(&mut a, &7);
        assert_eq!(a, Some(7));
    }

    #[test]
    #[should_panic]
    fn non_commutative_merge_is_unreachable() {
        let r = Append;
        let mut a = r.identity();
        r.merge(&mut a, vec![1]);
    }

    #[test]
    fn sum_fuses_values_equivalently() {
        // apply(acc, fuse(a, b)) == apply(apply(acc, a), b) for Sum.
        let r = Sum;
        const { assert!(Sum::FUSABLE && Sum::COMMUTATIVE) };
        let (mut a, b) = (1.25f64, 2.5f64);
        assert!(r.fuse_values(&mut a, &b));
        let mut fused = r.identity();
        r.apply(&mut fused, &a);
        let mut serial = r.identity();
        r.apply(&mut serial, &1.25);
        r.apply(&mut serial, &2.5);
        assert_eq!(fused.to_bits(), serial.to_bits());
    }

    #[test]
    fn default_fuse_refuses() {
        // Non-fusable reducers refuse every pair by default.
        const { assert!(!Count::FUSABLE) };
        let r = Append;
        let mut a = 1u32;
        assert!(!r.fuse_values(&mut a, &2));
        assert_eq!(a, 1, "a refused fuse must not mutate the staged value");
    }
}
