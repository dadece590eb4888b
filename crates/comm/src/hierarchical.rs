//! Node topology of the two-level all-reduce.
//!
//! On a DGX-2 cluster the flat ring crosses the slow inter-node links
//! (N−1) times per element. The standard topology-aware alternative —
//! what NCCL trees/hierarchies approximate — reduces in three phases, and
//! a `CommPlan` lists them as three ordinary ops the engine issues one by
//! one:
//!
//! 1. **intra-node reduce-scatter** over the fast fabric ([`NodeTopology::node_group`]):
//!    each local rank ends up owning 1/G of the node's sum (G = ranks per
//!    node);
//! 2. **inter-node all-reduce** of each owner's chunk across nodes
//!    ([`NodeTopology::cross_group`]): only 1/G of the data crosses the
//!    slow links per rank;
//! 3. **intra-node all-gather** to redistribute the final sums.
//!
//! Total per-rank volume matches the flat ring asymptotically, but the
//! *inter-node* share drops from ≈2Ψ to ≈2Ψ/G — why MP-in-the-node ×
//! DP-across-nodes (the paper's §1 layout) is bandwidth-sane. The
//! distinction is measurable here because phases run in different groups
//! whose traffic is metered under different kinds.

use crate::group::Group;

/// Topology for the two-level reduction: ranks `[node·G, node·G + G)`
/// share a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeTopology {
    /// Ranks per node G.
    pub ranks_per_node: usize,
}

impl NodeTopology {
    /// Creates a topology; world size must be a multiple of `g`.
    pub fn new(g: usize) -> NodeTopology {
        assert!(g > 0, "ranks_per_node must be positive");
        NodeTopology { ranks_per_node: g }
    }

    /// The intra-node group of `rank`.
    pub fn node_group(&self, rank: usize) -> Group {
        let g = self.ranks_per_node;
        let base = rank / g * g;
        Group::new((base..base + g).collect())
    }

    /// The inter-node group of `rank`: the same local slot on every node.
    pub fn cross_group(&self, rank: usize, world: usize) -> Group {
        let g = self.ranks_per_node;
        let slot = rank % g;
        Group::new((0..world / g).map(|n| n * g + slot).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_cross_groups_partition_the_world() {
        let topo = NodeTopology::new(4);
        for rank in 0..8 {
            let ng = topo.node_group(rank);
            let cg = topo.cross_group(rank, 8);
            assert_eq!(ng.len(), 4);
            assert_eq!(cg.len(), 2);
            assert!(ng.contains(rank) && cg.contains(rank));
            // They intersect exactly at `rank`.
            let overlap: Vec<usize> = ng
                .members()
                .iter()
                .filter(|m| cg.contains(**m))
                .copied()
                .collect();
            assert_eq!(overlap, vec![rank]);
        }
    }
}
