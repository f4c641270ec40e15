//! Min-heap plumbing for Dijkstra over `f64` distances.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ord::cmp_dist;

/// A node of the search: a door (by dense index) or a query target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// A door, by `DoorId::index()`.
    Door(u32),
    /// A virtual target node `pt`, by its index within the search's target
    /// set (always 0 for a per-query search).
    Target(u32),
}

/// A heap entry ordered so that `BinaryHeap` (a max-heap) pops the smallest
/// distance first. Ties break on the node for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub dist: f64,
    pub node: Node,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller distance = greater priority. Total order: a NaN
        // distance (corrupt DM entry, degenerate geometry) sorts as the
        // *worst* priority instead of panicking the search.
        cmp_dist(other.dist, self.dist)
            .then_with(|| node_rank(other.node).cmp(&node_rank(self.node)))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn node_rank(n: Node) -> u64 {
    match n {
        Node::Door(i) => u64::from(i),
        // Targets rank after every door (doors settle first on distance
        // ties); multiple targets tie-break among themselves by index.
        Node::Target(k) => (1 << 32) + u64::from(k),
    }
}

/// A min-heap that tracks its peak size (for the memory-cost metric).
#[derive(Debug, Default)]
pub(crate) struct MinHeap {
    heap: BinaryHeap<Entry>,
    peak: usize,
}

impl MinHeap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, dist: f64, node: Node) {
        self.heap.push(Entry { dist, node });
        self.peak = self.peak.max(self.heap.len());
    }

    pub fn pop(&mut self) -> Option<Entry> {
        self.heap.pop()
    }

    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_ascending_distance_order() {
        let mut h = MinHeap::new();
        h.push(5.0, Node::Door(1));
        h.push(1.0, Node::Door(2));
        h.push(3.0, Node::Target(0));
        h.push(2.0, Node::Door(0));
        let order: Vec<f64> = std::iter::from_fn(|| h.pop().map(|e| e.dist)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_distances_pop_door_before_target_deterministically() {
        let mut h = MinHeap::new();
        h.push(1.0, Node::Target(1));
        h.push(1.0, Node::Target(0));
        h.push(1.0, Node::Door(7));
        h.push(1.0, Node::Door(3));
        assert_eq!(h.pop().unwrap().node, Node::Door(3));
        assert_eq!(h.pop().unwrap().node, Node::Door(7));
        assert_eq!(h.pop().unwrap().node, Node::Target(0));
        assert_eq!(h.pop().unwrap().node, Node::Target(1));
    }

    #[test]
    fn nan_distance_pops_last_instead_of_panicking() {
        let mut h = MinHeap::new();
        h.push(f64::NAN, Node::Door(0));
        h.push(2.0, Node::Door(1));
        h.push(f64::INFINITY, Node::Door(2));
        assert_eq!(h.pop().unwrap().dist, 2.0);
        assert_eq!(h.pop().unwrap().dist, f64::INFINITY);
        assert!(h.pop().unwrap().dist.is_nan());
    }

    #[test]
    fn tracks_peak() {
        let mut h = MinHeap::new();
        h.push(1.0, Node::Door(0));
        h.push(2.0, Node::Door(1));
        h.pop();
        h.push(3.0, Node::Door(2));
        assert_eq!(h.peak(), 2);
    }
}
