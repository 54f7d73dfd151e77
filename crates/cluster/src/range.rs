//! The cluster's key partition: contiguous ranges, one per node.
//!
//! The map deliberately reuses [`cobra_stream::shard_plan`] — the same
//! power-of-two geometry that assigns keys to shard workers inside one
//! pipeline assigns keys to nodes across the cluster, so routing at every
//! tier is one shift (`key >> shift`) and the tiers compose: a key's
//! cluster node, and within that node its shard, are both locale
//! decisions made by truncating the same key bits.

use std::ops::Range;

/// Immutable key → node map over `num_keys` keys and a fixed node set.
#[derive(Debug, Clone)]
pub struct RangeMap {
    num_keys: u32,
    shift: u32,
    ranges: Vec<Range<u32>>,
}

impl RangeMap {
    /// Partitions `0..num_keys` over `nodes` contiguous ranges.
    ///
    /// The realized node count can differ from the request when the
    /// power-of-two range span does not divide evenly (exactly as
    /// [`cobra_stream::shard_plan`] documents); [`len`](Self::len) is
    /// authoritative, and the router refuses a cluster whose address
    /// list does not match it.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0` or `nodes == 0` (programmer error: the
    /// cluster shape is operator configuration, not client input).
    pub fn new(num_keys: u32, nodes: usize) -> RangeMap {
        assert!(num_keys > 0, "need a non-empty key space");
        assert!(nodes > 0, "need at least one node");
        let (shift, ranges) = cobra_stream::shard_plan(num_keys, nodes);
        RangeMap {
            num_keys,
            shift,
            ranges,
        }
    }

    /// Number of nodes the map actually routes over.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Always false: a map routes over at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The key space size.
    pub fn num_keys(&self) -> u32 {
        self.num_keys
    }

    /// log2 of the keys per node range: the node of an in-range key is
    /// `key >> shift`.
    pub(crate) fn shift(&self) -> u32 {
        self.shift
    }

    /// The node owning `key`, or `None` when `key >= num_keys`.
    pub fn node_of(&self, key: u32) -> Option<usize> {
        if key >= self.num_keys {
            return None;
        }
        Some((key >> self.shift) as usize)
    }

    /// The contiguous key range owned by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= len()`.
    pub fn range(&self, node: usize) -> Range<u32> {
        self.ranges[node].clone()
    }

    /// Iterates `(node, range)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Range<u32>)> + '_ {
        self.ranges.iter().cloned().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_key_space() {
        for (keys, nodes) in [(1u32, 1), (100, 3), (1 << 16, 2), (1 << 16, 5), (4097, 4)] {
            let map = RangeMap::new(keys, nodes);
            let mut next = 0u32;
            for (n, range) in map.iter() {
                assert_eq!(range.start, next, "gap before node {n}");
                assert!(range.end > range.start, "empty range on node {n}");
                next = range.end;
            }
            assert_eq!(next, keys, "ranges must cover the key space");
        }
    }

    #[test]
    fn every_key_routes_to_the_node_owning_it() {
        let map = RangeMap::new(4097, 4);
        for key in 0..4097u32 {
            let node = map.node_of(key).expect("in range");
            assert!(
                map.range(node).contains(&key),
                "key {key} routed to node {node} owning {:?}",
                map.range(node)
            );
        }
        assert_eq!(map.node_of(4097), None);
        assert_eq!(map.node_of(u32::MAX), None);
    }

    #[test]
    fn matches_the_pipeline_shard_plan() {
        // The whole point: one geometry at every tier.
        let (shift, ranges) = cobra_stream::shard_plan(1 << 16, 4);
        let map = RangeMap::new(1 << 16, 4);
        assert_eq!(map.shift, shift);
        assert_eq!(map.ranges, ranges);
    }
}
