//! Update semantics for the streaming Accumulate phase.
//!
//! A [`Reducer`] folds incoming `(key, value)` tuples into a per-key
//! accumulator with [`Reducer::apply`], and that is the only accumulate
//! step there is: every sealed epoch's bins replay tuple-by-tuple in
//! per-shard arrival order, each update applied exactly once. The paper's
//! Section III split shows up in what may happen *before* bin memory:
//!
//! * **Non-commutative** reducers (the general case — Neighbor-Populate,
//!   Integer Sort, Transpose, ...) only require *unordered parallelism*:
//!   any per-key application order is acceptable, but updates must reach
//!   the accumulator unduplicated and uncoalesced.
//! * **Commutative** reducers (Degree-Count, Pagerank contributions) may
//!   additionally declare their values [`FUSABLE`](Reducer::FUSABLE): two
//!   updates to one key coalesce while still staged in a C-Buffer frame,
//!   the software analogue of COBRA-COMM's update coalescing (paper,
//!   Section V-G), and arrive at the accumulator as one.

/// Folds streamed update values into per-key accumulators.
pub trait Reducer: Send + Sync + 'static {
    /// The streamed update payload. `Sync` because Accumulate
    /// (`cobra_pb::accumulate`) may lend one bin's value column to
    /// several workers.
    type Value: Copy + Send + Sync + 'static;
    /// The per-key accumulated state.
    type Acc: Clone + Send + Sync + 'static;

    /// Whether updates commute (`apply` in any order yields the same
    /// accumulator). The pipeline reads it in one place — it gates
    /// [`FUSABLE`](Self::FUSABLE) — and `cobra-check`'s oracle validates
    /// the declaration against observed behaviour.
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
    /// [`Binner::extend_fused`](cobra_pb::Binner::extend_fused) with
    /// `fuse_values` as the merge when it holds, through plain
    /// [`Binner::extend`](cobra_pb::Binner::extend) otherwise.
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
}

/// Pagerank-contribution-style summation. Commutative.
///
/// Note `f32`/`f64` addition is commutative but not associative, so a
/// fused pair (`acc + (a + b)`) can differ from serial replay
/// (`(acc + a) + b`) in the last bits; which pairs fuse is a deterministic
/// function of per-shard arrival order, which is what the equality tests
/// rely on.
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
    fn count_applies() {
        let r = Count;
        let mut a = r.identity();
        r.apply(&mut a, &());
        r.apply(&mut a, &());
        assert_eq!(a, 2);
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
