//! The TileLink compiler: frontend IR → executable kernel description.
//!
//! Besides the classic [`Compiler::compile`] entry point, the compiler keeps a
//! process-wide cache of lowered programs ([`Compiler::compile_cached`]) so
//! that the up to 648 configs a search judges do not rebuild and re-lower the
//! same program from scratch. The cache is keyed by a [`CacheSite`] alone:
//! the builder's name and every value the builder reads, including the few
//! config values it reads. Every config whose builder inputs are equal
//! compiles from one lowered program, so changing any other axis
//! (`num_stages`, `comm_mapping`, a tile's column count...) only re-runs the
//! per-config tail:
//!
//! * pipelining, which shares the cached program as it is unless the stage
//!   count moves an op (no builder's program has a load a stage count can
//!   move today), and otherwise pipelines a copy;
//! * resource planning, which reads the whole config.
//!
//! Hits and misses are counted in the `tune.compile.patched` /
//! `tune.compile.full_rebuilds` probe counters; concurrent compiles of one
//! key build it once. Debug builds also rebuild and lower the program behind
//! the first hit of each config on a cache entry and assert that it equals
//! the cached one, so a site that leaves out a value its builder reads fails
//! the first search that changes that value.
//!
//! A program with template blocks (the routed MoE halves) is compiled the
//! same way, routing-free: its templates are lowered once with the rest, and
//! the [`BlockTable`] they are instantiated from is bound to each kernel when
//! [`Compiler::compile_cached_with_table`] plans it. The table supplies the
//! plan's consumer block count, and its digest goes into the kernel's key,
//! but the cache site never sees it.
//!
//! The same site names the compiled kernel: its [`KernelKey`] is the site,
//! the stage count if pipelining moved an op, the plan and the bound table's
//! digest, which together fix everything the timed executor reads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use tilelink_sim::SharedCost;

use crate::config::OverlapConfig;
use crate::ir::{BlockRole, BlockTable, Symbol, TileProgram};
use crate::mapping::TileMapping;
use crate::passes::{
    check_consistency, lower, pipeline_program, pipelining_moves, BlockCounts, BlockWalk,
    LoweredOp, LoweredProgram, ResourcePlan, TransferLane,
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
    /// Lowered, pipelined program (flat op and block tables, and its
    /// templates). A kernel whose stage count moves no op shares it with the
    /// compile cache and with every other such kernel compiled from the same
    /// program.
    pub lowered: Arc<LoweredProgram>,
    /// The table the program's templates are instantiated from (`None` for a
    /// program without templates).
    pub table: Option<Arc<BlockTable>>,
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
    /// The kernel's identity: kernels with equal keys simulate to the same
    /// makespan under one cost provider, whatever configs they were
    /// compiled from.
    pub key: KernelKey,
}

impl CompiledKernel {
    /// A walk over the kernel's blocks in block order whose role `include`
    /// accepts, each template instantiated once per entry of the kernel's
    /// table in `buffer`: the walk the timed executor builds its graphs by
    /// ([`LoweredProgram::walk`]).
    pub fn walk<'k, 'b, F: Fn(BlockRole) -> bool>(
        &'k self,
        buffer: &'b mut Vec<LoweredOp>,
        include: F,
    ) -> BlockWalk<'k, 'b, F> {
        self.lowered.walk(self.table.as_deref(), buffer, include)
    }
}

/// The key of a program in the compile cache ([`Compiler::compile_cached`]):
/// a static site name (one per program builder) plus a 128-bit hash of every
/// value the builder reads. Those are shape dimensions, the world size and
/// the config values the builder reads (tile row counts,
/// `channels_per_rank`), but no config value it ignores: configs that differ
/// only in those share one cached program. A table bound to the program
/// ([`Compiler::compile_cached_with_table`]) is no builder input: the
/// kernel's key names it. A site that leaves out a value its builder reads
/// hands a stale program to a compile that changes it, and a stale price to
/// the [`KernelKey`]s built from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheSite {
    site: &'static str,
    inputs: u128,
}

/// A 128-bit hash of `words`: two 64-bit lanes with different multipliers,
/// one step per word. For a fixed word each step is a bijection of a lane's
/// state, so equally long inputs that differ in a single word never collide;
/// the word count goes in last.
pub(crate) fn words_digest(words: impl IntoIterator<Item = usize>) -> u128 {
    let (mut lo, mut hi) = (0x243f_6a88_85a3_08d3_u64, 0x1319_8a2e_0370_7344_u64);
    let mut word = |w: u64| {
        lo = (lo ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
        hi = (hi ^ w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).rotate_left(27);
    };
    let mut len = 0;
    for w in words {
        word(w as u64);
        len += 1;
    }
    word(len);
    u128::from(hi) << 64 | u128::from(lo)
}

impl CacheSite {
    /// The key of the program that builder `site` builds from `inputs`
    /// (every value it reads, in a fixed order).
    pub fn new(site: &'static str, inputs: impl IntoIterator<Item = usize>) -> Self {
        Self {
            site,
            inputs: words_digest(inputs),
        }
    }
}

/// A compiled kernel's identity: the [`CacheSite`] of its program, the stage
/// count if pipelining moved an op of it (0 otherwise), every field of its
/// [`ResourcePlan`], bit for bit, and the digest of the table bound to it
/// (0 without one). The timed executor reads nothing else (the site fixes
/// the lowered program, the digest the instances of its templates), so
/// [`crate::exec::MakespanMemo`] prices each key once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    site: CacheSite,
    stages: usize,
    plan: [u64; 7],
    table: u128,
}

impl KernelKey {
    fn new(site: CacheSite, stages: usize, plan: &ResourcePlan, table: u128) -> Self {
        let (lane, port_share) = match plan.lane {
            TransferLane::SmPort { port_share } => (0, port_share),
            TransferLane::CopyEngine => (1, 0),
        };
        Self {
            site,
            stages,
            plan: [
                plan.comm_sms,
                plan.compute_sms,
                plan.sms_per_compute_block,
                lane,
                port_share,
                u64::from(plan.host_launch_per_copy),
                plan.compute_efficiency.to_bits(),
            ],
            table,
        }
    }

    /// The compile-cache site of the kernel's program.
    pub fn site(&self) -> CacheSite {
        self.site
    }
}

/// Per-rank communication-block summary of a lowered program: how many comm
/// blocks the busiest rank runs, and how many bytes each rank moves across
/// ranks. Both are invariant under pipelining (which only hoists loads past
/// compute steps) and under the table a kernel binds (every template
/// instance is a consumer block), so the summary is computed once per
/// lowered program and shared by every patched compile.
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
/// program plus the program summaries resource planning and the timed
/// executor need. Pipelining and planning re-run per candidate (they are the
/// axis-dependent parts).
struct CachedLowered {
    name: Symbol,
    world_size: usize,
    lowered: Arc<LoweredProgram>,
    /// Whether pipelining at two or more stages moves an op of `lowered`.
    hoists: bool,
    counts: BlockCounts,
    comm: CommSummary,
    /// Configs whose hits on this entry were checked against a rebuild.
    #[cfg(debug_assertions)]
    checked: Mutex<std::collections::HashSet<OverlapConfig>>,
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
            hoists: pipelining_moves(&lowered),
            lowered: Arc::new(lowered),
            counts: BlockCounts::of_program(program),
            #[cfg(debug_assertions)]
            checked: Mutex::default(),
        })
    }

    /// Rebuilds and lowers the program behind a hit of `config` on this
    /// entry, the first time that config hits it, and asserts that it
    /// equals the cached one: a `site` that leaves out a value its builder
    /// reads fails here instead of handing out a stale program.
    #[cfg(debug_assertions)]
    fn assert_rebuild_matches<M: TileMapping>(
        &self,
        site: CacheSite,
        config: &OverlapConfig,
        build: impl FnOnce() -> Result<(TileProgram, M)>,
    ) {
        let mut checked = self.checked.lock().unwrap_or_else(|e| e.into_inner());
        if !checked.insert(*config) {
            return;
        }
        drop(checked);
        let rebuilt = build()
            .and_then(|(program, mapping)| Self::lower(&program, &mapping))
            .unwrap_or_else(|e| panic!("{site:?}: rebuilding a cached program failed: {e}"));
        assert!(
            rebuilt.name == self.name
                && rebuilt.world_size == self.world_size
                && rebuilt.lowered == self.lowered
                && rebuilt.counts == self.counts
                && rebuilt.comm == self.comm,
            "{site:?}: the builder's program for {} differs from the cached one; \
             the site must name every value its builder reads",
            config.cache_key()
        );
    }
}

/// Bound on distinct cache sites. A layer search over the standard space
/// compiles 8 distinct programs (6 AllGather and 2 ReduceScatter builder
/// inputs), routed or not, whatever its sample count: a routed kernel binds
/// its sampled routing as a table instead of compiling it in. So 64 searches
/// of distinct layers fit. Hitting the cap clears the map (simple, and never
/// wrong — a miss just rebuilds).
const COMPILE_CACHE_CAP: usize = 512;

/// One cache entry, filled by the first compile of its key. The slot stays
/// locked while that compile builds and lowers the program, so concurrent
/// compiles of the key wait for it instead of building the program again.
type CacheSlot = Arc<Mutex<Option<Arc<CachedLowered>>>>;

fn compile_cache() -> &'static Mutex<HashMap<CacheSite, CacheSlot>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheSite, CacheSlot>>> = OnceLock::new();
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

    /// Compiles `program` using `mapping` for tile resolution, bypassing the
    /// compile cache: the cold twin of [`Self::compile_cached`] for the
    /// program `site` names, key included.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid for the device, a tile
    /// id cannot be resolved through the mapping, or the program violates the
    /// memory-consistency rules.
    pub fn compile(
        &self,
        site: CacheSite,
        program: &TileProgram,
        mapping: &dyn TileMapping,
    ) -> Result<CompiledKernel> {
        self.compile_cold(site, program, mapping, None)
    }

    /// [`Self::compile`] of a program with templates, instantiated from
    /// `table`: the cold twin of [`Self::compile_cached_with_table`].
    ///
    /// # Errors
    ///
    /// As [`Self::compile`].
    pub fn compile_with_table(
        &self,
        site: CacheSite,
        program: &TileProgram,
        mapping: &dyn TileMapping,
        table: &Arc<BlockTable>,
    ) -> Result<CompiledKernel> {
        self.compile_cold(site, program, mapping, Some(table))
    }

    fn compile_cold(
        &self,
        site: CacheSite,
        program: &TileProgram,
        mapping: &dyn TileMapping,
        table: Option<&Arc<BlockTable>>,
    ) -> Result<CompiledKernel> {
        self.validate()?;
        let kernel = self.finish(site, &CachedLowered::lower(program, mapping)?, table)?;
        // Pipelining must preserve consistency; verify the invariant.
        check_consistency(&kernel.lowered)?;
        Ok(kernel)
    }

    /// Compiles through the process-wide incremental cache.
    ///
    /// `build` constructs the program and its mapping; it runs on a cache
    /// miss (a *full rebuild*), so `site` must name every value it reads. On
    /// a hit (a *patched* compile) the cached lowered program is pipelined for
    /// this config's `num_stages` (shared as it is when that moves no op,
    /// copied and pipelined otherwise) and re-planned for this config. The
    /// result is bit-identical to a cold [`Self::compile`] of the same
    /// inputs. Concurrent compiles of one key build it once: the others
    /// wait for it and patch. Debug builds also run `build` on the first hit
    /// of each config on an entry, to check the cached program against it.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid for the device, the
    /// builder / lowering / consistency steps fail on a miss, or the program
    /// has templates (which compile through
    /// [`Self::compile_cached_with_table`]).
    pub fn compile_cached<M: TileMapping>(
        &self,
        site: CacheSite,
        build: impl FnOnce() -> Result<(TileProgram, M)>,
    ) -> Result<CompiledKernel> {
        self.compile_through_cache(site, None, build)
    }

    /// [`Self::compile_cached`] of a program with templates, binding `table`
    /// to the kernel: the program is cached by `site` alone, routing-free,
    /// and the table supplies the plan's consumer block count and the key's
    /// table digest. Build each table once and pass it to every compile that
    /// binds it.
    ///
    /// # Errors
    ///
    /// As [`Self::compile_cached`], and if the program has no templates.
    pub fn compile_cached_with_table<M: TileMapping>(
        &self,
        site: CacheSite,
        table: &Arc<BlockTable>,
        build: impl FnOnce() -> Result<(TileProgram, M)>,
    ) -> Result<CompiledKernel> {
        self.compile_through_cache(site, Some(table), build)
    }

    fn compile_through_cache<M: TileMapping>(
        &self,
        site: CacheSite,
        table: Option<&Arc<BlockTable>>,
        build: impl FnOnce() -> Result<(TileProgram, M)>,
    ) -> Result<CompiledKernel> {
        self.validate()?;
        let slot = {
            let mut cache = compile_cache().lock().expect("compile cache poisoned");
            if cache.len() >= COMPILE_CACHE_CAP && !cache.contains_key(&site) {
                cache.clear();
            }
            Arc::clone(cache.entry(site).or_default())
        };
        // A compile that panicked while building left the slot empty.
        let mut entry = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cached) = entry.clone() {
            drop(entry);
            tilelink_probe::metrics::TUNE_COMPILE_PATCHED.inc();
            #[cfg(debug_assertions)]
            cached.assert_rebuild_matches(site, &self.config, build);
            return self.finish(site, &cached, table);
        }
        let (program, mapping) = build()?;
        let cached = Arc::new(CachedLowered::lower(&program, &mapping)?);
        *entry = Some(Arc::clone(&cached));
        drop(entry);
        tilelink_probe::metrics::TUNE_COMPILE_FULL_REBUILDS.inc();
        self.finish(site, &cached, table)
    }

    /// Applies the per-candidate (axis-dependent) tail of the pipeline to
    /// the lowered program `site` names: pipelining, and resource planning
    /// with `table` bound (a program has templates exactly when it is given
    /// one).
    fn finish(
        &self,
        site: CacheSite,
        cached: &CachedLowered,
        table: Option<&Arc<BlockTable>>,
    ) -> Result<CompiledKernel> {
        if cached.lowered.templates.is_empty() != table.is_none() {
            return Err(crate::TileLinkError::InvalidConfig {
                reason: format!(
                    "{site:?}: a program is bound to a table exactly when it has templates"
                ),
            });
        }
        let stages = self.config.num_stages;
        let moves = cached.hoists && stages > 1;
        let lowered = if moves {
            let _span = tilelink_probe::span("compile.lower");
            let mut lowered = LoweredProgram::clone(&cached.lowered);
            let moved = pipeline_program(&mut lowered, stages);
            debug_assert!(moved, "pipelining moved no op of a hoisting program");
            // The program was consistency-checked when it was lowered and
            // pipelining preserves consistency by construction (it never moves
            // a load across a wait/notify/transfer); spot-check in debug.
            debug_assert!(check_consistency(&lowered).is_ok());
            Arc::new(lowered)
        } else {
            // Pipelining would leave the program as it is: share it.
            debug_assert!(
                !pipeline_program(&mut LoweredProgram::clone(&cached.lowered), stages),
                "pipelining moved an op of a shared program"
            );
            Arc::clone(&cached.lowered)
        };
        let plan = {
            let _span = tilelink_probe::span("compile.plan");
            let inputs = cached.counts.plan_inputs(table.map_or(0, |t| t.len()));
            ResourcePlan::derive(&self.config, inputs, &*self.cost)?
        };
        let digest = table.map_or(0, |t| t.digest());
        let key = KernelKey::new(site, if moves { stages } else { 0 }, &plan, digest);
        Ok(CompiledKernel {
            name: cached.name,
            world_size: cached.world_size,
            lowered,
            table: table.cloned(),
            sms_per_comm_block: (plan.comm_sms / cached.comm.busiest_rank_blocks).max(1),
            rank_comm_bytes: cached.comm.rank_bytes.clone(),
            plan,
            config: self.config,
            key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommMapping, TileOrder, TileShape, TransferMode};
    use crate::ir::{BlockDesc, BlockTemplate, ComputeKind, NamePattern, TableEntry, TileOp};
    use crate::mapping::StaticMapping;
    use crate::primitives::{NotifyScope, PushTarget};
    use crate::TileLinkError;
    use std::collections::HashSet;
    use tilelink_probe::metrics::{TUNE_COMPILE_FULL_REBUILDS, TUNE_COMPILE_PATCHED};
    use tilelink_sim::{analytic_cost, ClusterSpec};

    fn h800() -> SharedCost {
        analytic_cost(&ClusterSpec::h800_node(8))
    }

    /// Serialises the tests that empty the process-wide compile cache.
    static CACHE_TESTS: Mutex<()> = Mutex::new(());

    /// The site of a program compiled cold, past the cache.
    fn cold_site() -> CacheSite {
        CacheSite::new("test.compile.cold", [])
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

    /// wait, load, compute, load, compute: two stages hoist the second load
    /// past the first compute.
    fn k_loop_program() -> TileProgram {
        let mut p = TileProgram::new("k_loop", 1);
        let mut gemm =
            BlockDesc::new("gemm", 0, BlockRole::Consumer).op(TileOp::ConsumerWait { tile: 0 });
        for _ in 0..2 {
            gemm = gemm
                .op(TileOp::LoadTile {
                    buffer: "tokens".into(),
                    bytes: 512.0,
                    tile: Some(0),
                })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 64,
                    n: 64,
                    k: 64,
                }));
        }
        p.add_block(gemm);
        p
    }

    #[test]
    fn compile_produces_blocks_and_plan() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let compiler = Compiler::new(OverlapConfig::default(), &h800());
        let kernel = compiler
            .compile(cold_site(), &ag_gemm_program(2, 4), &mapping)
            .unwrap();
        assert_eq!(kernel.world_size, 2);
        assert_eq!(kernel.lowered.block_count(), 4);
        let (mut flops, mut buffer) = (0.0, Vec::new());
        let mut walk = kernel.walk(&mut buffer, |_| true);
        while let Some(block) = walk.next_block() {
            flops += block.total_flops();
        }
        assert!(flops > 0.0);
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
            compiler.compile(cold_site(), &p, &mapping),
            Err(TileLinkError::ConsistencyViolation { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected_before_lowering() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 999 });
        let compiler = Compiler::new(cfg, &h800());
        assert!(compiler
            .compile(cold_site(), &ag_gemm_program(2, 4), &mapping)
            .is_err());
    }

    #[test]
    fn three_stage_compile_without_a_hoistable_load_keeps_its_stage_count() {
        // Every load of this program follows its wait: nothing to hoist.
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let cfg = OverlapConfig {
            num_stages: 3,
            ..OverlapConfig::default()
        };
        let kernel = Compiler::new(cfg, &h800())
            .compile(cold_site(), &ag_gemm_program(2, 4), &mapping)
            .unwrap();
        assert_eq!(kernel.config.num_stages, 3);
    }

    #[test]
    fn cached_compile_is_bit_identical_to_cold_compile() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // The builder reads its world size and tile count, and no config
        // value.
        let site = CacheSite::new("test.compile.cache", [2, 4]);
        reset_compile_cache();
        let make = || Ok((ag_gemm_program(2, 4), StaticMapping::new(256, 64, 2, 2)));
        // Cold compile through the cache (miss), then patched neighbours that
        // differ only in config values the builder does not read (hits,
        // which never rebuild the cache entry).
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
            base.with_comm_tile(TileShape::new(64, 128)),
            base.with_compute_tile(TileShape::new(64, 256)),
            OverlapConfig {
                channels_per_rank: 1,
                ..base
            },
        ];
        let cost = h800();
        for (i, cfg) in neighbours.iter().enumerate() {
            let compiler = Compiler::new(*cfg, &cost);
            let (rebuilds_before, patched_before) =
                (TUNE_COMPILE_FULL_REBUILDS.get(), TUNE_COMPILE_PATCHED.get());
            let cached = compiler.compile_cached(site, make).unwrap();
            if i > 0 {
                assert_eq!(
                    TUNE_COMPILE_FULL_REBUILDS.get(),
                    rebuilds_before,
                    "neighbour {i} rebuilt"
                );
                assert!(
                    TUNE_COMPILE_PATCHED.get() > patched_before,
                    "neighbour {i} not counted as patched"
                );
            }
            let (program, mapping) = make().map_err(|_: TileLinkError| ()).unwrap();
            let cold = compiler.compile(site, &program, &mapping).unwrap();
            assert_eq!(cached.key, cold.key, "neighbour {i}");
            assert_eq!(cached, cold, "neighbour {i} diverged");
        }
        // A different builder input rebuilds.
        let rebuilds_before = TUNE_COMPILE_FULL_REBUILDS.get();
        Compiler::new(base, &cost)
            .compile_cached(CacheSite::new("test.compile.cache", [2, 8]), || {
                Ok((ag_gemm_program(2, 8), StaticMapping::new(512, 64, 2, 2)))
            })
            .unwrap();
        assert_eq!(TUNE_COMPILE_FULL_REBUILDS.get(), rebuilds_before + 1);
    }

    #[test]
    fn compiles_whose_stage_counts_move_nothing_share_one_program() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        reset_compile_cache();
        let site = CacheSite::new("test.compile.shared", [2, 4]);
        let cost = h800();
        let compile = |num_stages| {
            let cfg = OverlapConfig {
                num_stages,
                ..OverlapConfig::default()
            };
            Compiler::new(cfg, &cost)
                .compile_cached(site, || {
                    Ok((ag_gemm_program(2, 4), StaticMapping::new(256, 64, 2, 2)))
                })
                .unwrap()
        };
        // Every load of this program follows its wait, so no stage count
        // moves an op.
        let (two, four) = (compile(2), compile(4));
        assert!(Arc::ptr_eq(&two.lowered, &four.lowered));
    }

    #[test]
    fn a_program_pipelining_moves_gets_its_own_copy() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        reset_compile_cache();
        let site = CacheSite::new("test.compile.hoisting", [1]);
        let mapping = StaticMapping::new(256, 64, 1, 1);
        let cost = h800();
        let cfg = |num_stages| OverlapConfig {
            num_stages,
            ..OverlapConfig::default()
        };
        let compile = |num_stages| {
            Compiler::new(cfg(num_stages), &cost)
                .compile_cached(site, || Ok((k_loop_program(), mapping.clone())))
                .unwrap()
        };
        // One stage moves nothing and shares the cached program; two stages
        // hoist a load, so each such compile pipelines its own copy.
        let (one, two) = (compile(1), compile(2));
        assert!(Arc::ptr_eq(&one.lowered, &compile(1).lowered));
        assert!(!Arc::ptr_eq(&two.lowered, &one.lowered));
        assert!(!Arc::ptr_eq(&two.lowered, &compile(2).lowered));
        assert_ne!(two.lowered, one.lowered);
        let cold = Compiler::new(cfg(2), &cost)
            .compile(site, &k_loop_program(), &mapping)
            .unwrap();
        assert_eq!(two, cold);
    }

    #[test]
    fn concurrent_compiles_of_one_key_build_it_once() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        reset_compile_cache();
        let site = CacheSite::new("test.compile.concurrent", [2, 4]);
        let rebuilds_before = TUNE_COMPILE_FULL_REBUILDS.get();
        let cost = h800();
        let compile = || {
            Compiler::new(OverlapConfig::default(), &cost)
                .compile_cached(site, || {
                    // Hold the build open so every thread looks the key up
                    // while it is still being built.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Ok((ag_gemm_program(2, 4), StaticMapping::new(256, 64, 2, 2)))
                })
                .unwrap()
        };
        let kernels: Vec<CompiledKernel> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4).map(|_| scope.spawn(compile)).collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(TUNE_COMPILE_FULL_REBUILDS.get(), rebuilds_before + 1);
        assert!(kernels.iter().all(|k| *k == kernels[0]));
    }

    #[test]
    fn neighbours_that_compile_to_one_kernel_share_its_key() {
        // Every load of this program follows its wait, so no stage count
        // moves an op: order, mode and stage neighbours are one kernel.
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let program = ag_gemm_program(2, 4);
        let cost = h800();
        let key = |cfg: OverlapConfig| {
            Compiler::new(cfg, &cost)
                .compile(cold_site(), &program, &mapping)
                .unwrap()
                .key
        };
        let base = OverlapConfig::default();
        let stages = |num_stages| OverlapConfig { num_stages, ..base };
        for cfg in [
            base.with_order(TileOrder::Ring),
            base.with_mode(TransferMode::Push),
            stages(1),
            stages(2),
            stages(4),
        ] {
            assert_eq!(key(cfg), key(base), "{cfg:?}");
        }
        // A different lane, or only a different compute efficiency (the
        // compute tile feeds nothing else here), is another kernel.
        for cfg in [
            base.with_comm_mapping(CommMapping::CopyEngine),
            base.with_compute_tile(TileShape::new(64, 128)),
        ] {
            assert_ne!(key(cfg), key(base), "{cfg:?}");
        }
    }

    #[test]
    fn pipelining_that_moves_an_op_changes_the_key() {
        let p = k_loop_program();
        let mapping = StaticMapping::new(256, 64, 1, 1);
        let cost = h800();
        let compile = |num_stages| {
            let cfg = OverlapConfig {
                num_stages,
                ..OverlapConfig::default()
            };
            Compiler::new(cfg, &cost)
                .compile(cold_site(), &p, &mapping)
                .unwrap()
        };
        let (unmoved, moved) = (compile(1), compile(2));
        assert_ne!(unmoved.lowered, moved.lowered);
        assert_ne!(unmoved.key, moved.key);
        assert_eq!(compile(2).key, moved.key);
        assert_ne!(compile(3).key, moved.key);
    }

    #[test]
    fn a_table_is_bound_exactly_to_a_program_with_templates() {
        let mapping = StaticMapping::new(256, 64, 2, 2);
        let compiler = Compiler::new(OverlapConfig::default(), &h800());
        let table = |slices: &[usize]| {
            let mut start = 0;
            Arc::new(BlockTable::new(
                (slices.iter())
                    .map(|&rows| {
                        start += rows;
                        TableEntry {
                            rows: start - rows..start,
                            group: 0,
                        }
                    })
                    .collect(),
            ))
        };
        let plain = ag_gemm_program(2, 4);
        assert!(compiler
            .compile_with_table(cold_site(), &plain, &mapping, &table(&[4]))
            .is_err());
        let mut templated = plain;
        for rank in 0..2 {
            templated.add_template(
                BlockTemplate::new(NamePattern::new("t/r{}/e{}"), rank)
                    .per_row(TileOp::Compute(ComputeKind::Elementwise { elems: 8 })),
            );
        }
        assert!(compiler.compile(cold_site(), &templated, &mapping).is_err());
        let compile = |t: &Arc<BlockTable>| {
            compiler
                .compile_with_table(cold_site(), &templated, &mapping, t)
                .unwrap()
        };
        let (one, eight, other) = (
            compile(&table(&[4])),
            compile(&table(&[1; 8])),
            compile(&table(&[2, 0, 1, 1, 1, 1, 1, 1])),
        );
        // Each rank runs its fixed consumer block plus one instance per
        // entry, which the plan counts.
        let rank_blocks = |k: &CompiledKernel| {
            let (mut count, mut buffer) = (0, Vec::new());
            let mut walk = k.walk(&mut buffer, |role| role == BlockRole::Consumer);
            while walk.next_block().is_some() {
                count += 1;
            }
            count / 2
        };
        assert_eq!((rank_blocks(&one), rank_blocks(&eight)), (2, 9));
        assert!(one.plan.sms_per_compute_block > eight.plan.sms_per_compute_block);
        // Tables of equal length are other kernels of one program.
        assert_eq!(eight.plan, other.plan);
        assert_eq!(eight.key.site(), other.key.site());
        assert_ne!(eight.key, other.key);
    }

    #[test]
    fn cache_sites_differ_in_input_order_length_and_name() {
        let site = |name, inputs: &[usize]| CacheSite::new(name, inputs.iter().copied());
        assert_eq!(site("a", &[7, 7]), site("a", &[7, 7]));
        assert_ne!(site("a", &[1, 2, 3]), site("a", &[1, 2, 4]));
        assert_ne!(site("a", &[1, 2]), site("a", &[2, 1]));
        assert_ne!(site("a", &[]), site("a", &[0]));
        assert_ne!(site("a", &[0]), site("a", &[0, 0]));
        assert_ne!(site("a", &[1, 2, 3]), site("b", &[1, 2, 3]));
    }

    #[test]
    fn every_plan_field_moves_the_key() {
        let plan = ResourcePlan {
            comm_sms: 20,
            compute_sms: 112,
            sms_per_compute_block: 1,
            lane: TransferLane::SmPort { port_share: 5 },
            host_launch_per_copy: false,
            compute_efficiency: 0.8,
        };
        let key = |plan: &ResourcePlan| KernelKey::new(cold_site(), 0, plan, 0);
        assert_eq!(key(&plan), key(&plan.clone()));
        let variants = [
            ResourcePlan {
                lane: TransferLane::CopyEngine,
                ..plan.clone()
            },
            ResourcePlan {
                lane: TransferLane::SmPort { port_share: 4 },
                ..plan.clone()
            },
            ResourcePlan {
                compute_efficiency: 0.81,
                ..plan.clone()
            },
            ResourcePlan {
                comm_sms: 16,
                ..plan.clone()
            },
            ResourcePlan {
                compute_sms: 116,
                ..plan.clone()
            },
            ResourcePlan {
                sms_per_compute_block: 2,
                ..plan.clone()
            },
            ResourcePlan {
                host_launch_per_copy: true,
                ..plan.clone()
            },
        ];
        let keys: HashSet<KernelKey> = variants.iter().chain([&plan]).map(key).collect();
        assert_eq!(keys.len(), variants.len() + 1, "{variants:?}");
    }
}
