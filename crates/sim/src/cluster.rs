//! Cluster topology: nodes × GPUs.

use crate::{GpuSpec, ResourceKind};

/// The class of link a (source, destination) rank pair communicates over.
///
/// Cost models price transfers per class: a self-copy moves through HBM, an
/// intra-node transfer rides NVLink and an inter-node transfer crosses the
/// InfiniBand fabric, each with its own latency and achieved-bandwidth curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Source and destination are the same rank (HBM-to-HBM copy).
    SelfCopy,
    /// Both ranks share a node (NVLink).
    IntraNode,
    /// The ranks live on different nodes (InfiniBand).
    InterNode,
}

impl LinkClass {
    /// All classes, in calibration-table order.
    pub const ALL: [LinkClass; 3] = [
        LinkClass::SelfCopy,
        LinkClass::IntraNode,
        LinkClass::InterNode,
    ];

    /// Stable tag used in calibration TSV files (`self`, `nvlink`, `ib`).
    pub fn tag(&self) -> &'static str {
        match self {
            LinkClass::SelfCopy => "self",
            LinkClass::IntraNode => "nvlink",
            LinkClass::InterNode => "ib",
        }
    }

    /// Parses a calibration-table tag back into a class.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "self" => Some(LinkClass::SelfCopy),
            "nvlink" => Some(LinkClass::IntraNode),
            "ib" => Some(LinkClass::InterNode),
            _ => None,
        }
    }
}

/// A homogeneous cluster of `nodes` machines with `gpus_per_node` GPUs each.
///
/// The paper evaluates on one node of 8×H800 (Figures 8–10, left of Figure 11)
/// and two nodes of 8×H800 (right of Figure 11). Intra-node traffic travels
/// over NVLink, inter-node traffic over InfiniBand; [`ClusterSpec::link_bytes_per_s`]
/// picks the correct bandwidth for a (source, destination) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-GPU hardware description.
    pub gpu: GpuSpec,
    /// Number of GPUs per node.
    pub gpus_per_node: usize,
    /// Number of nodes.
    pub nodes: usize,
}

impl ClusterSpec {
    /// Creates a cluster specification.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_node` or `nodes` is zero, or if their product
    /// (the world size) overflows `usize`.
    pub fn new(gpu: GpuSpec, gpus_per_node: usize, nodes: usize) -> Self {
        assert!(gpus_per_node > 0, "gpus_per_node must be positive");
        assert!(nodes > 0, "nodes must be positive");
        assert!(
            gpus_per_node.checked_mul(nodes).is_some(),
            "gpus_per_node * nodes overflows usize"
        );
        Self {
            gpu,
            gpus_per_node,
            nodes,
        }
    }

    /// A single node of `gpus` H800 GPUs (the paper's main platform).
    pub fn h800_node(gpus: usize) -> Self {
        Self::new(GpuSpec::h800(), gpus, 1)
    }

    /// `nodes` nodes of 8×H800 each (the paper's multi-node platform).
    pub fn h800_multi_node(nodes: usize) -> Self {
        Self::new(GpuSpec::h800(), 8, nodes)
    }

    /// Total number of GPUs (ranks).
    pub fn world_size(&self) -> usize {
        self.gpus_per_node * self.nodes
    }

    /// Node index of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.world_size(), "rank out of range");
        rank / self.gpus_per_node
    }

    /// Returns `true` if two ranks share a node (and therefore NVLink).
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Point-to-point bandwidth between two ranks in bytes/s.
    ///
    /// Returns HBM bandwidth for a self-copy, NVLink bandwidth within a node and
    /// InfiniBand bandwidth across nodes.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn link_bytes_per_s(&self, src: usize, dst: usize) -> f64 {
        match self.link_class(src, dst) {
            LinkClass::SelfCopy => self.gpu.hbm_bytes_per_s(),
            LinkClass::IntraNode => self.gpu.nvlink_bytes_per_s(),
            LinkClass::InterNode => self.gpu.ib_bytes_per_s(),
        }
    }

    /// Capacity of one resource kind on every rank of this cluster (the
    /// simulator models homogeneous clusters, so capacities are per-kind).
    ///
    /// This is the single source of truth shared by the scheduler's resource
    /// tables and the trace utilisation report.
    pub fn resource_capacity(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::Sm => self.gpu.sm_count,
            ResourceKind::DmaEngine => self.gpu.dma_engines,
            ResourceKind::LinkOut | ResourceKind::LinkIn => GpuSpec::LINK_PORT_SHARES,
            ResourceKind::Host => 1,
        }
    }

    /// Link class of a (source, destination) rank pair.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn link_class(&self, src: usize, dst: usize) -> LinkClass {
        if src == dst {
            LinkClass::SelfCopy
        } else if self.same_node(src, dst) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        }
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::h800_node(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_size_and_nodes() {
        let c = ClusterSpec::h800_multi_node(2);
        assert_eq!(c.world_size(), 16);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(8), 1);
        assert!(c.same_node(0, 7));
        assert!(!c.same_node(7, 8));
    }

    #[test]
    fn link_bandwidth_depends_on_locality() {
        let c = ClusterSpec::h800_multi_node(2);
        let local = c.link_bytes_per_s(0, 0);
        let nvlink = c.link_bytes_per_s(0, 1);
        let ib = c.link_bytes_per_s(0, 8);
        assert!(local > nvlink);
        assert!(nvlink > ib);
    }

    #[test]
    fn link_class_matches_topology() {
        let c = ClusterSpec::h800_multi_node(2);
        assert_eq!(c.link_class(3, 3), LinkClass::SelfCopy);
        assert_eq!(c.link_class(0, 7), LinkClass::IntraNode);
        assert_eq!(c.link_class(0, 8), LinkClass::InterNode);
        for class in LinkClass::ALL {
            assert_eq!(LinkClass::from_tag(class.tag()), Some(class));
        }
        assert_eq!(LinkClass::from_tag("bogus"), None);
    }

    #[test]
    fn default_is_8_gpu_node() {
        assert_eq!(ClusterSpec::default().world_size(), 8);
    }

    #[test]
    fn resource_capacities_come_from_the_gpu_spec() {
        let c = ClusterSpec::h800_node(2);
        assert_eq!(c.resource_capacity(ResourceKind::Sm), c.gpu.sm_count);
        assert_eq!(
            c.resource_capacity(ResourceKind::DmaEngine),
            c.gpu.dma_engines
        );
        assert_eq!(
            c.resource_capacity(ResourceKind::LinkOut),
            GpuSpec::LINK_PORT_SHARES
        );
        assert_eq!(
            c.resource_capacity(ResourceKind::LinkIn),
            GpuSpec::LINK_PORT_SHARES
        );
        assert_eq!(c.resource_capacity(ResourceKind::Host), 1);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn node_of_out_of_range_panics() {
        ClusterSpec::h800_node(2).node_of(5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_gpus_panics() {
        ClusterSpec::new(GpuSpec::h800(), 0, 1);
    }
}
