//! Resource mapping: who gets the SMs, the copy engines and the link.

use crate::config::{CommMapping, OverlapConfig};
use crate::ir::{BlockRole, TileProgram};
use crate::{Result, TileLinkError};
use tilelink_sim::{CostProvider, GpuSpec};

/// Which lane a communication block's transfers travel on in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferLane {
    /// SM-driven copies: the transfer saturates a share of the NVLink port and
    /// the block occupies one of the reserved communication SMs.
    SmPort {
        /// Percentage of the port granted to each communication block.
        port_share: u64,
    },
    /// Copy-engine (DMA) transfers triggered from the host.
    CopyEngine,
}

/// The outcome of the resource-mapping pass for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcePlan {
    /// SMs reserved for communication blocks on every rank.
    pub comm_sms: u64,
    /// SMs left for computation blocks on every rank.
    pub compute_sms: u64,
    /// SMs each computation block occupies (1, as on real hardware where one
    /// thread block resides on one SM).
    pub sms_per_compute_block: u64,
    /// Transfer lane of the communication blocks.
    pub lane: TransferLane,
    /// Whether host-driven copies add a kernel-launch latency per transfer.
    pub host_launch_per_copy: bool,
    /// Achieved GEMM efficiency of the computation tiles (fed to the cost model).
    pub compute_efficiency: f64,
}

/// The facts the resource-mapping pass needs from a program: everything else
/// in [`ResourcePlan::derive`] depends only on the config and the device.
///
/// Extracting this tiny summary ([`BlockCounts::plan_inputs`]) is what lets
/// the incremental recompilation path re-derive a plan for a patched
/// candidate without walking (or even keeping) the `TileProgram` it came
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanInputs {
    /// Number of ranks the program runs on.
    pub world_size: usize,
    /// Maximum number of communication (producer) blocks on any rank (≥ 1).
    pub comm_blocks_per_rank: usize,
    /// Maximum number of computation (consumer) blocks on any rank (≥ 1).
    pub consumer_blocks_per_rank: usize,
}

/// Per-rank block counts of a program, from which its [`PlanInputs`] follow
/// for any number of entries its templates are instantiated for (every
/// instance of a template is a consumer block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCounts {
    world_size: usize,
    comm_blocks_per_rank: usize,
    /// Per rank: fixed consumer blocks and templates.
    consumers: Vec<(usize, usize)>,
}

impl BlockCounts {
    /// Counts a program's blocks and templates in one pass.
    pub fn of_program(program: &TileProgram) -> Self {
        let mut comm = vec![0usize; program.world_size];
        let mut consumers = vec![(0usize, 0usize); program.world_size];
        for b in &program.blocks {
            match b.role {
                BlockRole::Producer => comm[b.rank] += 1,
                BlockRole::Consumer => consumers[b.rank].0 += 1,
                BlockRole::Host => {}
            }
        }
        for (_, t) in &program.templates {
            consumers[t.rank].1 += 1;
        }
        Self {
            world_size: program.world_size,
            comm_blocks_per_rank: comm.into_iter().max().unwrap_or(0).max(1),
            consumers,
        }
    }

    /// The plan inputs with every template instantiated `entries` times.
    pub fn plan_inputs(&self, entries: usize) -> PlanInputs {
        PlanInputs {
            world_size: self.world_size,
            comm_blocks_per_rank: self.comm_blocks_per_rank,
            consumer_blocks_per_rank: self
                .consumers
                .iter()
                .map(|&(fixed, templates)| fixed + templates * entries)
                .max()
                .unwrap_or(0)
                .max(1),
        }
    }
}

impl ResourcePlan {
    /// Derives the plan from the kernel configuration and a program summary,
    /// for the device `cost` prices (its cluster's GPU) and with the
    /// provider's GEMM-efficiency heuristic.
    ///
    /// # Errors
    ///
    /// Returns [`TileLinkError::InvalidConfig`] if the configuration is invalid
    /// for the device (for example reserving every SM for communication).
    pub fn derive(
        config: &OverlapConfig,
        inputs: PlanInputs,
        cost: &dyn CostProvider,
    ) -> Result<Self> {
        let gpu = &cost.cluster().gpu;
        config.validate(gpu.sm_count)?;
        let comm_sms = config.comm_mapping.comm_sms();
        let compute_sms = gpu.sm_count - comm_sms;
        let comm_blocks_per_rank = inputs.comm_blocks_per_rank;
        let consumer_blocks_per_rank = inputs.consumer_blocks_per_rank;
        let lane = match config.comm_mapping {
            CommMapping::CopyEngine => TransferLane::CopyEngine,
            CommMapping::Sm { .. } => TransferLane::SmPort {
                port_share: (GpuSpec::LINK_PORT_SHARES / comm_blocks_per_rank as u64).max(1),
            },
            CommMapping::Hybrid { .. } => TransferLane::CopyEngine,
        };
        if compute_sms == 0 {
            return Err(TileLinkError::InvalidConfig {
                reason: "no SMs left for computation".to_string(),
            });
        }
        // Tile efficiency of the computation side: decoupling lets the compute
        // tile stay large even when the communication tile is small.
        // The K extent is unknown at this level; use a deep-reduction proxy.
        let compute_efficiency =
            cost.gemm_tile_efficiency(config.compute_tile.m, config.compute_tile.n, 4096);
        // Each coarse consumer block of the tile program stands for a row of
        // real thread blocks. Spread them so the grid drains in a handful of
        // waves: early tiles finish first and release their consumers, which is
        // what makes fused overlap effective on real hardware.
        let target_waves = 4;
        let sms_per_compute_block =
            (compute_sms * target_waves / consumer_blocks_per_rank as u64).clamp(1, compute_sms);
        Ok(Self {
            comm_sms,
            compute_sms,
            sms_per_compute_block,
            lane,
            host_launch_per_copy: matches!(
                config.comm_mapping,
                CommMapping::CopyEngine | CommMapping::Hybrid { .. }
            ),
            compute_efficiency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileShape;
    use crate::ir::{BlockDesc, TileProgram};
    use tilelink_sim::{analytic_cost, ClusterSpec};

    /// Plans `cfg` on an H800 for a one-rank program with `producers`
    /// communication and `consumers` computation blocks.
    fn derive(cfg: &OverlapConfig, producers: usize, consumers: usize) -> Result<ResourcePlan> {
        let mut p = TileProgram::new("p", 1);
        for i in 0..producers {
            p.add_block(BlockDesc::new(format!("comm{i}"), 0, BlockRole::Producer));
        }
        for i in 0..consumers {
            p.add_block(BlockDesc::new(format!("gemm{i}"), 0, BlockRole::Consumer));
        }
        let cost = analytic_cost(&ClusterSpec::h800_node(8));
        ResourcePlan::derive(cfg, BlockCounts::of_program(&p).plan_inputs(0), &*cost)
    }

    #[test]
    fn sm_mapping_reserves_comm_sms() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 20 });
        let plan = derive(&cfg, 20, 112).unwrap();
        assert_eq!(plan.comm_sms, 20);
        assert_eq!(plan.compute_sms, 112);
        assert!(matches!(plan.lane, TransferLane::SmPort { port_share } if port_share == 5));
        assert!(!plan.host_launch_per_copy);
    }

    #[test]
    fn copy_engine_mapping_keeps_all_sms_for_compute() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::CopyEngine);
        let plan = derive(&cfg, 1, 100).unwrap();
        assert_eq!(plan.comm_sms, 0);
        assert_eq!(plan.compute_sms, 132);
        assert_eq!(plan.lane, TransferLane::CopyEngine);
        assert!(plan.host_launch_per_copy);
    }

    #[test]
    fn hybrid_mapping_reserves_sms_and_uses_copy_engine() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Hybrid { sms: 16 });
        let plan = derive(&cfg, 16, 100).unwrap();
        assert_eq!(plan.comm_sms, 16);
        assert_eq!(plan.lane, TransferLane::CopyEngine);
        assert!(plan.host_launch_per_copy);
    }

    #[test]
    fn larger_compute_tiles_give_better_efficiency() {
        let small = OverlapConfig::default().with_compute_tile(TileShape::new(32, 32));
        let large = OverlapConfig::default().with_compute_tile(TileShape::new(128, 256));
        let e_small = derive(&small, 1, 1).unwrap().compute_efficiency;
        let e_large = derive(&large, 1, 1).unwrap().compute_efficiency;
        assert!(e_large > e_small);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 200 });
        assert!(derive(&cfg, 1, 1).is_err());
    }
}
