//! The TileLink compiler: frontend IR → executable kernel description.
//!
//! Besides the classic [`Compiler::compile`] entry point, the compiler keeps a
//! process-wide cache of lowered programs ([`Compiler::compile_cached`]) so
//! that the thousands of neighbouring candidates a search evaluates do not
//! rebuild and re-lower the same program from scratch. Only a few
//! `OverlapConfig` axes actually change the lowered program:
//!
//! * `comm_tile`, `compute_tile` and `channels_per_rank` feed the program
//!   builders and the tile mapping, so changing them forces a full rebuild;
//! * `num_stages` only drives the (cheap, in-place) pipelining pass, and
//!   `comm_mapping` only drives resource planning — changing either reuses
//!   the cached lowered program and just re-runs those final steps;
//! * `order` and `mode` are read by no builder or pass, so changing either
//!   reuses the cached program too.
//!
//! The config-delta classification is encoded structurally: the cache key
//! contains exactly the axes that force a rebuild, so a lookup *is* the
//! classifier. Hits and misses are counted in the `tune.compile.patched` /
//! `tune.compile.full_rebuilds` probe counters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use tilelink_sim::SharedCost;

use crate::config::{OverlapConfig, TileShape};
use crate::ir::{Symbol, TileProgram};
use crate::mapping::TileMapping;
use crate::passes::{
    check_consistency, lower, pipeline_program, LoweredBlockRef, LoweredProgram, PlanInputs,
    ResourcePlan,
};
use crate::Result;

/// A fused kernel after lowering, consistency checking, pipelining and resource
/// mapping.
///
/// A `CompiledKernel` can be handed to the timed executor
/// ([`crate::exec::timed::simulate_report`]) to measure its overlapped
/// execution on the cluster simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name (interned — copying a kernel never clones the name).
    pub name: Symbol,
    /// Number of ranks.
    pub world_size: usize,
    /// Lowered, pipelined program (flat op and block tables).
    pub lowered: LoweredProgram,
    /// Resource-mapping decisions.
    pub plan: ResourcePlan,
    /// The configuration the kernel was compiled with.
    pub config: OverlapConfig,
    /// SMs granted to each communication (producer/host) block's compute
    /// steps: `plan.comm_sms` split across the busiest rank's comm blocks.
    /// Derived once here so graph builds don't rescan the block table.
    pub sms_per_comm_block: u64,
    /// Per-rank bytes the communication blocks move across ranks, in block/op
    /// order. Feeds the timed executor's comm-SM reservation tasks; invariant
    /// under pipelining (which never reorders transfer ops).
    pub rank_comm_bytes: Vec<f64>,
}

impl CompiledKernel {
    /// Builds a kernel from its parts plus the precomputed communication
    /// summary of its lowered program.
    fn assemble(
        name: Symbol,
        world_size: usize,
        lowered: LoweredProgram,
        plan: ResourcePlan,
        config: OverlapConfig,
        comm: CommSummary,
    ) -> Self {
        let sms_per_comm_block = (plan.comm_sms / comm.busiest_rank_blocks).max(1);
        Self {
            name,
            world_size,
            lowered,
            plan,
            config,
            sms_per_comm_block,
            rank_comm_bytes: comm.rank_bytes,
        }
    }

    /// Iterates the kernel's blocks as views over the flat op table.
    pub fn blocks(&self) -> impl Iterator<Item = LoweredBlockRef<'_>> {
        self.lowered.iter_blocks()
    }

    /// Total floating-point work of the kernel.
    pub fn total_flops(&self) -> f64 {
        self.blocks().map(|b| b.total_flops()).sum()
    }
}

/// Identity of a call site for [`Compiler::compile_cached`]: a static site
/// name (one per program builder) plus a hash of every non-config input the
/// builder reads (shape dimensions, world size, routing samples...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSite {
    /// Builder identity, e.g. `"moe.ag_group_gemm"`.
    pub site: &'static str,
    /// FNV-1a hash of the builder's non-config inputs (see [`detail_hash`]).
    pub detail: u64,
}

impl CacheSite {
    /// Creates a cache site key.
    pub fn new(site: &'static str, detail: u64) -> Self {
        Self { site, detail }
    }
}

/// FNV-1a over a stream of `u64` words; used to build [`CacheSite::detail`]
/// from shape dimensions, world sizes and routing samples.
pub fn detail_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The cache key: the call site plus exactly the config axes the program
/// builders and the mapping read. `num_stages`, `comm_mapping`, `order` and
/// `mode` are deliberately absent — candidates differing only in those axes
/// share an entry and take the patched fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    site: &'static str,
    detail: u64,
    comm_tile: TileShape,
    compute_tile: TileShape,
    channels_per_rank: usize,
}

impl CacheKey {
    fn new(site: CacheSite, config: &OverlapConfig) -> Self {
        Self {
            site: site.site,
            detail: site.detail,
            comm_tile: config.comm_tile,
            compute_tile: config.compute_tile,
            channels_per_rank: config.channels_per_rank,
        }
    }
}

/// Per-rank communication-block summary of a lowered program: how many comm
/// blocks the busiest rank runs, and how many bytes each rank moves across
/// ranks. Both are invariant under pipelining (which only hoists loads past
/// compute steps), so the summary is computed once per lowered program and
/// shared by every patched compile.
#[derive(Debug, Clone, PartialEq)]
struct CommSummary {
    busiest_rank_blocks: u64,
    rank_bytes: Vec<f64>,
}

impl CommSummary {
    fn of_lowered(lowered: &LoweredProgram, world_size: usize) -> Self {
        let mut comm_blocks = vec![0u64; world_size];
        let mut rank_bytes = vec![0.0f64; world_size];
        for b in lowered.iter_blocks() {
            if b.role == crate::ir::BlockRole::Consumer {
                continue;
            }
            comm_blocks[b.rank] += 1;
            rank_bytes[b.rank] += b
                .ops
                .iter()
                .map(|o| match o.op {
                    crate::ir::TileOp::PushTile { bytes, .. }
                    | crate::ir::TileOp::PullTile { bytes, .. }
                    | crate::ir::TileOp::HostCopy { bytes, .. } => bytes,
                    _ => 0.0,
                })
                .sum::<f64>();
        }
        Self {
            busiest_rank_blocks: comm_blocks.into_iter().max().unwrap_or(0).max(1),
            rank_bytes,
        }
    }
}

/// A cached compile artifact: the *unpipelined*, consistency-checked lowered
/// program plus the program summary resource planning needs. Pipelining and
/// planning re-run per candidate (they are the axis-dependent parts).
struct CachedLowered {
    name: Symbol,
    world_size: usize,
    lowered: LoweredProgram,
    plan_inputs: PlanInputs,
    comm: CommSummary,
}

impl CachedLowered {
    /// Lowers `program` through `mapping` and checks its consistency: the
    /// axis-independent head of every compile.
    fn lower(program: &TileProgram, mapping: &dyn TileMapping) -> Result<Self> {
        let _span = tilelink_probe::span("compile.lower");
        let lowered = lower(program, mapping)?;
        check_consistency(&lowered)?;
        Ok(Self {
            name: program.name,
            world_size: program.world_size,
            comm: CommSummary::of_lowered(&lowered, program.world_size),
            lowered,
            plan_inputs: PlanInputs::of_program(program),
        })
    }
}

/// Bound on distinct (site, shape, structural-config) entries; a quick tune
/// touches a few dozen. Hitting the cap clears the map (simple, and never
/// wrong — a miss just rebuilds).
const COMPILE_CACHE_CAP: usize = 512;

fn compile_cache() -> &'static Mutex<HashMap<CacheKey, Arc<CachedLowered>>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<CachedLowered>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Clears the process-wide compile cache (used by benchmarks that need a
/// deterministic cold-compile measurement, and by bit-identity tests).
pub fn reset_compile_cache() {
    compile_cache()
        .lock()
        .expect("compile cache poisoned")
        .clear();
}

/// Compiles [`TileProgram`]s against a device and an overlap configuration.
///
/// The pass order follows the paper's backend (Section 4): tile-centric
/// lowering through the mapping, memory-consistency enforcement, software
/// pipelining, then resource mapping.
#[derive(Debug, Clone)]
pub struct Compiler {
    config: OverlapConfig,
    cost: SharedCost,
}

impl Compiler {
    /// Creates a compiler for one configuration on the device `cost` prices
    /// (its cluster's GPU); resource mapping uses the provider's GEMM
    /// efficiency heuristic.
    pub fn new(config: OverlapConfig, cost: &SharedCost) -> Self {
        Self {
            config,
            cost: cost.clone(),
        }
    }

    /// The configuration this compiler applies.
    pub fn config(&self) -> &OverlapConfig {
        &self.config
    }

    /// Rejects a configuration the device cannot run.
    fn validate(&self) -> Result<()> {
        self.config.validate(self.cost.cluster().gpu.sm_count)
    }

    /// Compiles `program` using `mapping` for tile resolution.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid for the device, a tile
    /// id cannot be resolved through the mapping, or the program violates the
    /// memory-consistency rules.
    pub fn compile(
        &self,
        program: &TileProgram,
        mapping: &dyn TileMapping,
    ) -> Result<CompiledKernel> {
        self.validate()?;
        let kernel = self.finish(&CachedLowered::lower(program, mapping)?)?;
        // Pipelining must preserve consistency; verify the invariant.
        check_consistency(&kernel.lowered)?;
        Ok(kernel)
    }

    /// Compiles through the process-wide incremental cache.
    ///
    /// `build` constructs the program and its mapping; it only runs on a cache
    /// miss (a *full rebuild*). On a hit (a *patched* compile) the cached
    /// lowered program is copied (a flat memcpy — ops are `Copy`), pipelined
    /// in place for this config's `num_stages`, and re-planned for this
    /// config's `comm_mapping`. The result is bit-identical to a cold
    /// [`Self::compile`] of the same inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid for the device or the
    /// builder / lowering / consistency steps fail on a miss.
    pub fn compile_cached<M: TileMapping>(
        &self,
        site: CacheSite,
        build: impl FnOnce() -> Result<(TileProgram, M)>,
    ) -> Result<CompiledKernel> {
        self.validate()?;
        let key = CacheKey::new(site, &self.config);
        let hit = {
            let cache = compile_cache().lock().expect("compile cache poisoned");
            cache.get(&key).cloned()
        };
        if let Some(cached) = hit {
            tilelink_probe::metrics::TUNE_COMPILE_PATCHED.inc();
            return self.finish(&cached);
        }
        let (program, mapping) = build()?;
        let entry = Arc::new(CachedLowered::lower(&program, &mapping)?);
        {
            let mut cache = compile_cache().lock().expect("compile cache poisoned");
            if cache.len() >= COMPILE_CACHE_CAP {
                cache.clear();
            }
            cache.insert(key, Arc::clone(&entry));
        }
        tilelink_probe::metrics::TUNE_COMPILE_FULL_REBUILDS.inc();
        self.finish(&entry)
    }

    /// Applies the per-candidate (axis-dependent) tail of the pipeline to a
    /// lowered program: pipelining and resource planning.
    fn finish(&self, cached: &CachedLowered) -> Result<CompiledKernel> {
        let lowered = {
            let _span = tilelink_probe::span("compile.lower");
            let mut lowered = cached.lowered.clone();
            pipeline_program(&mut lowered, self.config.num_stages);
            // The program was consistency-checked when it was lowered and
            // pipelining preserves consistency by construction (it never moves
            // a load across a wait/notify/transfer); spot-check in debug.
            debug_assert!(check_consistency(&lowered).is_ok());
            lowered
        };
        let plan = {
            let _span = tilelink_probe::span("compile.plan");
            ResourcePlan::derive(&self.config, cached.plan_inputs, &*self.cost)?
        };
        Ok(CompiledKernel::assemble(
            cached.name,
            cached.world_size,
            lowered,
            plan,
            self.config,
            cached.comm.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommMapping, TileOrder, TransferMode};
    use crate::ir::{BlockDesc, BlockRole, ComputeKind, TileOp};
    use crate::mapping::StaticMapping;
    use crate::primitives::{NotifyScope, PushTarget};
    use crate::TileLinkError;
    use tilelink_probe::metrics::TUNE_COMPILE_PATCHED;
    use tilelink_sim::{analytic_cost, ClusterSpec};

    fn h800() -> SharedCost {
        analytic_cost(&ClusterSpec::h800_node(8))
    }

    fn ag_gemm_program(world: usize, tiles: usize) -> TileProgram {
        let mut p = TileProgram::new("ag_gemm", world);
        for rank in 0..world {
            let mut comm = BlockDesc::new(format!("comm/r{rank}"), rank, BlockRole::Producer);
            for t in (0..tiles).filter(|t| t % world == rank) {
                comm = comm
                    .op(TileOp::PushTile {
                        buffer: "tokens".into(),
                        bytes: 512.0,
                        tile: t,
                        target: PushTarget::Broadcast,
                    })
                    .op(TileOp::ProducerNotify {
                        tile: t,
                        scope: NotifyScope::Broadcast,
                    });
            }
            p.add_block(comm);
            let mut gemm = BlockDesc::new(format!("gemm/r{rank}"), rank, BlockRole::Consumer);
            for t in 0..tiles {
                gemm = gemm
                    .op(TileOp::ConsumerWait { tile: t })
                    .op(TileOp::LoadTile {
                        buffer: "tokens".into(),
                        bytes: 512.0,
                        tile: Some(t),
                    })
                    .op(TileOp::Compute(ComputeKind::MatmulTile {
                        m: 64,
                        n: 64,
                        k: 64,
                    }));
            }
            p.add_block(gemm);
        }
        p
    }

    #[test]
    fn compile_produces_blocks_and_plan() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let compiler = Compiler::new(OverlapConfig::default(), &h800());
        let kernel = compiler.compile(&ag_gemm_program(2, 4), &mapping).unwrap();
        assert_eq!(kernel.world_size, 2);
        assert_eq!(kernel.lowered.block_count(), 4);
        assert!(kernel.total_flops() > 0.0);
        assert_eq!(kernel.plan.comm_sms, 20);
    }

    #[test]
    fn inconsistent_program_is_rejected() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let compiler = Compiler::new(OverlapConfig::default(), &h800());
        let mut p = TileProgram::new("bad", 2);
        p.add_block(
            BlockDesc::new("gemm", 0, BlockRole::Consumer)
                .op(TileOp::LoadTile {
                    buffer: "tokens".into(),
                    bytes: 8.0,
                    tile: Some(0),
                })
                .op(TileOp::ConsumerWait { tile: 0 }),
        );
        assert!(matches!(
            compiler.compile(&p, &mapping),
            Err(TileLinkError::ConsistencyViolation { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected_before_lowering() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 999 });
        let compiler = Compiler::new(cfg, &h800());
        assert!(compiler.compile(&ag_gemm_program(2, 4), &mapping).is_err());
    }

    #[test]
    fn pipelining_is_applied_to_compiled_blocks() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let cfg = OverlapConfig {
            num_stages: 3,
            ..OverlapConfig::default()
        };
        let compiler = Compiler::new(cfg, &h800());
        let kernel = compiler.compile(&ag_gemm_program(2, 4), &mapping).unwrap();
        // after pipelining, some load is directly followed by another load
        let gemm = kernel.blocks().find(|b| b.name == "gemm/r0").unwrap();
        let mut found_adjacent_loads = false;
        for w in gemm.ops.windows(2) {
            if matches!(w[0].op, TileOp::LoadTile { .. })
                && matches!(w[1].op, TileOp::LoadTile { .. })
            {
                found_adjacent_loads = true;
            }
        }
        // The k-loop here has one load per wait, so adjacency is not guaranteed;
        // what matters is that compilation succeeded with stages > 1 and stayed
        // consistent.
        let _ = found_adjacent_loads;
        assert_eq!(kernel.config.num_stages, 3);
    }

    #[test]
    fn cached_compile_is_bit_identical_to_cold_compile() {
        let site = CacheSite::new("test.compile.cache", detail_hash([2, 4]));
        reset_compile_cache();
        let builds = std::cell::Cell::new(0);
        let make = || {
            builds.set(builds.get() + 1);
            Ok((ag_gemm_program(2, 4), StaticMapping::new(256, 64, 2, 2)))
        };
        // Cold compile through the cache (miss), then patched neighbours that
        // differ only in axes the key omits (hits, which never run the
        // builder): num_stages, comm_mapping, and the unread order and mode.
        let base = OverlapConfig::default();
        let neighbours = [
            base,
            OverlapConfig {
                num_stages: 2,
                ..base
            },
            OverlapConfig {
                num_stages: 4,
                ..base
            },
            base.with_comm_mapping(CommMapping::CopyEngine),
            base.with_comm_mapping(CommMapping::Hybrid { sms: 16 }),
            base.with_order(TileOrder::Ring),
            base.with_mode(TransferMode::Push),
        ];
        let cost = h800();
        for (i, cfg) in neighbours.iter().enumerate() {
            let compiler = Compiler::new(*cfg, &cost);
            let (builds_before, patched_before) = (builds.get(), TUNE_COMPILE_PATCHED.get());
            let cached = compiler.compile_cached(site, make).unwrap();
            if i > 0 {
                assert_eq!(builds.get(), builds_before, "neighbour {i} rebuilt");
                assert!(
                    TUNE_COMPILE_PATCHED.get() > patched_before,
                    "neighbour {i} not counted as patched"
                );
            }
            let (program, mapping) = make().map_err(|_: TileLinkError| ()).unwrap();
            let cold = compiler.compile(&program, &mapping).unwrap();
            assert_eq!(cached, cold, "neighbour {i} diverged");
        }
        // Changing a structural axis is classified as a rebuild, not a patch.
        let builds_before = builds.get();
        Compiler::new(base.with_comm_tile(TileShape::new(64, 128)), &cost)
            .compile_cached(site, make)
            .unwrap();
        assert_eq!(builds.get(), builds_before + 1);
    }

    #[test]
    fn detail_hash_distinguishes_inputs() {
        assert_ne!(detail_hash([1, 2, 3]), detail_hash([1, 2, 4]));
        assert_ne!(detail_hash([]), detail_hash([0]));
        assert_eq!(detail_hash([7, 7]), detail_hash([7, 7]));
    }
}
