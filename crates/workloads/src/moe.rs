//! Mixture-of-experts layer with dynamic routing and dynamic tile mapping.
//!
//! The MoE layer splits into two halves (Section 7.2):
//!
//! 1. `AllGather + Gather + GroupGEMM` — tokens are gathered across ranks and
//!    shuffled to experts according to the runtime routing, then multiplied by
//!    each expert's first-layer weight shard;
//! 2. `GroupGEMM + Scatter + TopK-Reduce + ReduceScatter` — the second expert
//!    GEMM followed by the weighted combine of the top-k expert outputs and a
//!    ReduceScatter of the partial results.
//!
//! Because routing decides at runtime which tokens each expert tile needs, the
//! consumer side cannot be described by an affine mapping: this is the paper's
//! *dynamic mapping* case. The functional kernel below fills a
//! [`DynamicMapping`] from the routing (one entry per consumer tile describing
//! the dispatched-row range and the expert that consumes it) and uses the
//! static AllGather mapping to wait for exactly the token tiles each consumer
//! tile touches.
//!
//! Each half has one timed kernel entry, [`ag_group_gemm_kernel`] and
//! [`group_gemm_rs_kernel`], which compiles the expected-routing program
//! without a routing and the routed program with one. Both builders of a
//! half emit only its Group-GEMM blocks: the AllGather and the ring
//! ReduceScatter come from the communication module the MLP builders use
//! too.
//!
//! The timed kernels treat a sampled routing the way the paper's dynamic
//! mapping treats its tables: as data, late-bound. A routed builder emits
//! one Group-GEMM *template* block per rank ([`BlockTemplate`]), so a routed
//! half compiles once per shape, world and config inputs, like an
//! expected-routing one. [`RoutingTables`] lays a sampled routing out as one
//! [`BlockTable`] per half (one entry per Group-GEMM block: its
//! dispatched-row slice and expert), built once per compute-tile row count;
//! the kernel binds it when it is planned, and the timed executor
//! instantiates the template once per entry.

use tilelink::config::{CommMapping, OverlapConfig, TileShape};
use tilelink::exec::{run_comm_compute, simulate_report};
use tilelink::ir::{
    BlockDesc, BlockRole, BlockTable, BlockTemplate, ComputeKind, NamePattern, Symbol, TableEntry,
    TemplateOp, TileOp, TileProgram, TileShare,
};
use tilelink::primitives::{NotifyScope, PushTarget};
use tilelink::tile::{read_tile, TileRect};
use tilelink::{
    BlockChannel, CacheSite, CompiledKernel, Compiler, DeviceHandle, DynamicMapping, OverlapReport,
    StaticMapping, TileMapping,
};
use tilelink_compute::gemm::matmul;
use tilelink_compute::group_gemm::expert_weight;
use tilelink_compute::topk::{topk_routing, Routing};
use tilelink_compute::{Dispatch, Tensor};
use tilelink_shmem::ProcessGroup;
use tilelink_sim::{CostProvider, SharedCost};

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

use crate::mlp::BYTES_PER_ELEM;
use crate::{comm, MoeShape};

/// Recommended configuration for the MoE halves: AllGather on the copy engine,
/// large compute tiles, dynamic routing handled by the dynamic mapping.
pub fn moe_config() -> OverlapConfig {
    OverlapConfig {
        comm_tile: TileShape::new(128, 128),
        compute_tile: TileShape::new(128, 128),
        comm_mapping: CommMapping::CopyEngine,
        ..OverlapConfig::default()
    }
}

/// Result of the functional overlapped MoE first half on one rank.
#[derive(Debug, Clone)]
pub struct MoeForwardResult {
    /// Expert outputs for every dispatched row (sorted by expert), `[M*topk, I_r]`.
    pub expert_out: Tensor,
    /// The routing used (identical on every rank).
    pub routing: Routing,
}

/// Overlapped AllGather + Gather + GroupGEMM on real data.
///
/// * `tokens`: full `[M, H]` token matrix (rank `r` owns rows `r*M/world ..`);
/// * `router_logits`: full `[M, E]` router logits (replicated, as routing is
///   deterministic given the tokens);
/// * `expert_weights[r]`: rank `r`'s `[E, H, I_r]` first-layer expert weights.
///
/// Every rank returns the expert outputs for all dispatched rows computed with
/// its own weight shard, which must equal the unoverlapped reference
/// (`Dispatch::gather` + grouped GEMM).
///
/// # Panics
///
/// Panics if `M` is not divisible by `world * comm_tile_m`.
pub fn ag_moe_functional(
    world: usize,
    tokens: &Tensor,
    router_logits: &Tensor,
    expert_weights: &[Tensor],
    top_k: usize,
    comm_tile_m: usize,
    dispatch_tile_m: usize,
) -> Vec<MoeForwardResult> {
    let m = tokens.shape()[0];
    let h = tokens.shape()[1];
    let m_per_rank = m / world;
    assert_eq!(m % (world * comm_tile_m), 0, "M must divide evenly");
    let ag_mapping = StaticMapping::new(m, comm_tile_m, world, 2);

    // Routing is computed identically on every rank from the (replicated) logits.
    let routing = topk_routing(router_logits, top_k);
    let dispatch = Dispatch::new(&routing);

    ProcessGroup::launch(world, |ctx| {
        let rank = ctx.rank();
        let src = ctx.alloc("moe/src", m_per_rank * h);
        src.write_slice(
            0,
            tokens
                .slice_rows(rank * m_per_rank..(rank + 1) * m_per_rank)
                .data(),
        );
        ctx.alloc("moe/gathered", m * h);
        let num_dispatch_tiles = dispatch.num_rows().div_ceil(dispatch_tile_m);
        let bc = BlockChannel::derive(
            rank,
            world,
            &ag_mapping,
            ag_mapping.num_tiles() / world,
            num_dispatch_tiles,
        );
        let dev = DeviceHandle::new(&ctx, "moe_ag_group_gemm", bc, 0);
        dev.barrier_all();

        // Fill the dynamic mapping from the routing: one entry per consumer
        // (dispatched-row) tile. The "rank" slot records the expert group the
        // tile belongs to, which is what the Group GEMM needs at runtime.
        let dyn_mapping = DynamicMapping::new(num_dispatch_tiles, num_dispatch_tiles);
        for t in 0..num_dispatch_tiles {
            let rows = t * dispatch_tile_m..((t + 1) * dispatch_tile_m).min(dispatch.num_rows());
            let expert = dispatch.expert_of_row[rows.start];
            dyn_mapping
                .fill(t, rows, expert, t)
                .expect("fill dynamic mapping");
        }

        let own_tiles = ag_mapping.tiles_of_rank(rank);
        let weights = expert_weights[rank].clone();
        let i_local = weights.shape()[2];

        let (_, results) = run_comm_compute(
            own_tiles.len(),
            num_dispatch_tiles,
            // AllGather producer blocks (push mode)
            |b| {
                let tile = own_tiles[b];
                let rows = ag_mapping.rows_of(tile).expect("tile in range");
                let local_rows = (rows.start - rank * m_per_rank)..(rows.end - rank * m_per_rank);
                let data = read_tile(&src, h, &TileRect::full_rows(local_rows, h));
                dev.tile_push_data(
                    "moe/gathered",
                    &ag_mapping,
                    tile,
                    h,
                    &data,
                    PushTarget::Broadcast,
                );
                dev.producer_tile_notify(&ag_mapping, tile, NotifyScope::Broadcast);
            },
            // Group GEMM consumer blocks: one per dispatched-row tile
            |t| {
                let rows = dyn_mapping.rows_of(t).expect("tile filled");
                // wait for exactly the token tiles this dispatch tile gathers from
                for row in rows.clone() {
                    let token = dispatch.token_of_row[row];
                    let token_tile = token / comm_tile_m;
                    dev.consumer_tile_wait(&ag_mapping, token_tile);
                }
                // gather the rows (fused gather, as in vLLM's kernels) and run
                // each row against the weight of the expert it routes to.
                let gathered = dev.buffer_on(rank, "moe/gathered");
                let mut out = Tensor::zeros(&[rows.len(), i_local]);
                for (i, row) in rows.clone().enumerate() {
                    let token = dispatch.token_of_row[row];
                    let vals = read_tile(&gathered, h, &TileRect::full_rows(token..token + 1, h));
                    let a = Tensor::from_vec(vals, &[1, h]);
                    let w = expert_weight(&weights, dispatch.expert_of_row[row]);
                    let product = matmul(&a, &w);
                    for c in 0..i_local {
                        out.set(&[i, c], product.at(&[0, c]));
                    }
                }
                (rows, out)
            },
        );

        let mut expert_out = Tensor::zeros(&[dispatch.num_rows(), i_local]);
        for (rows, tile) in results {
            for (i, r) in rows.enumerate() {
                for c in 0..i_local {
                    expert_out.set(&[r, c], tile.at(&[i, c]));
                }
            }
        }
        MoeForwardResult {
            expert_out,
            routing: routing.clone(),
        }
    })
}

// ---------------------------------------------------------------------------
// Timed kernels
// ---------------------------------------------------------------------------

/// Expected number of dispatched rows per rank-sharded expert group.
pub fn dispatched_rows(shape: &MoeShape) -> usize {
    shape.tokens * shape.top_k
}

/// Dispatch tiles per Group-GEMM consumer block, in both the expected-routing
/// and the routed first-half builders.
const DISPATCH_TILES_PER_BLOCK: usize = 8;

/// Builds the AG + Gather + GroupGEMM tile program for one MoE shape.
///
/// The routing is load-balanced in expectation, so the timed program assumes a
/// uniform distribution of dispatched rows over experts (the benchmark harness
/// regenerates the routing with a seeded RNG, so tests stay deterministic).
pub fn ag_group_gemm_program(
    shape: &MoeShape,
    world: usize,
    cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let m = shape.tokens;
    let h = shape.hidden;
    let i_local = shape.intermediate / world;
    let mapping = StaticMapping::new(m, cfg.comm_tile.m, world, cfg.channels_per_rank);
    let rows = dispatched_rows(shape);
    let compute_tiles = rows.div_ceil(cfg.compute_tile.m * DISPATCH_TILES_PER_BLOCK);
    // Buffer names and block name patterns are interned once here instead of
    // once per op or block: the intern table lookup takes a global lock, and
    // these loops run for every block of every rank on every cache-miss
    // compile.
    let gathered = Symbol::intern("gathered");
    let expert_out = Symbol::intern("expert_out");
    let ggemm = NamePattern::new("ggemm/r{}/b{}");
    let mut program = TileProgram::new("moe_ag_group_gemm", world);
    for rank in 0..world {
        comm::allgather_blocks(&mut program, rank, &mapping, h);
        let rows_per_block = rows.div_ceil(compute_tiles);
        for b in 0..compute_tiles {
            // Each Group-GEMM block consumes tokens scattered across the whole
            // gathered matrix, so it waits on a spread of producer tiles.
            let mut block = BlockDesc::new(ggemm.name([rank, b]), rank, BlockRole::Consumer);
            let wait_tiles =
                (mapping.num_tiles() * (b + 1) / compute_tiles).min(mapping.num_tiles());
            for tile in (mapping.num_tiles() * b / compute_tiles)..wait_tiles {
                block = block.op(TileOp::ConsumerWait { tile });
            }
            block = block
                .op(TileOp::LoadTile {
                    buffer: gathered,
                    bytes: rows_per_block as f64 * h as f64 * BYTES_PER_ELEM,
                    tile: None,
                })
                .op(TileOp::Compute(ComputeKind::MatmulTile {
                    m: rows_per_block,
                    n: i_local,
                    k: h,
                }))
                .op(TileOp::StoreTile {
                    buffer: expert_out,
                    bytes: rows_per_block as f64 * i_local as f64 * BYTES_PER_ELEM,
                    tile: None,
                });
            program.add_block(block);
        }
    }
    (program, mapping)
}

/// Builds the GroupGEMM + Scatter + TopK-Reduce + ReduceScatter program for one
/// MoE shape (the layer's second half, with an extended producer-consumer
/// chain: GroupGEMM → TopK reduce → ReduceScatter).
pub fn group_gemm_rs_program(
    shape: &MoeShape,
    world: usize,
    cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let m = shape.tokens;
    let h = shape.hidden;
    let i_local = shape.intermediate / world;
    let rows = dispatched_rows(shape);
    let tile_m = cfg.compute_tile.m;
    let mapping = StaticMapping::new(m, tile_m, world, cfg.channels_per_rank);
    let tile_out_bytes = tile_m as f64 * h as f64 * BYTES_PER_ELEM;
    // Interned once per compile, not once per op (see ag_group_gemm_program).
    let expert_act = Symbol::intern("expert_act");
    let gemm_out = Symbol::intern("gemm_out");
    let ggemm2 = NamePattern::new("ggemm2/r{}/t{}");
    let mut program = TileProgram::new("moe_group_gemm_rs", world);
    for rank in 0..world {
        // Group GEMM producing partial token outputs, fused with the scatter +
        // top-k reduce epilogue (each output tile combines top_k expert rows).
        for tile in 0..mapping.num_tiles() {
            let trows = mapping.rows_of(tile).expect("tile in range");
            let rows_of_tile = trows.len() * rows / m; // dispatched rows feeding this tile
            program.add_block(
                BlockDesc::new(ggemm2.name([rank, tile]), rank, BlockRole::Consumer)
                    .op(TileOp::LoadTile {
                        buffer: expert_act,
                        bytes: rows_of_tile as f64 * i_local as f64 * BYTES_PER_ELEM,
                        tile: None,
                    })
                    .op(TileOp::Compute(ComputeKind::MatmulTile {
                        m: rows_of_tile,
                        n: h,
                        k: i_local,
                    }))
                    // top-k weighted combine of the expert rows into token rows
                    .op(TileOp::Compute(ComputeKind::Elementwise {
                        elems: rows_of_tile * h,
                    }))
                    .op(TileOp::StoreTile {
                        buffer: gemm_out,
                        bytes: tile_out_bytes,
                        tile: Some(tile),
                    })
                    .op(TileOp::ProducerNotify {
                        tile,
                        scope: NotifyScope::Local,
                    }),
            );
        }
        // Ring ReduceScatter blocks: one per tile of this rank's segment.
        comm::ring_reduce_scatter_blocks(&mut program, rank, world, m, tile_m, h);
    }
    (program, mapping)
}

/// Compile-cache site of one MoE half: the shape, the cluster size and
/// `cfg_inputs` (the config values the half's builder reads). A routed
/// half's routing is bound as a table, not built into the program, so it is
/// no site input.
fn moe_site(
    site: &'static str,
    shape: &MoeShape,
    world: usize,
    cfg_inputs: impl IntoIterator<Item = usize>,
) -> CacheSite {
    CacheSite::new(
        site,
        [
            shape.tokens,
            shape.hidden,
            shape.intermediate,
            shape.experts,
            shape.top_k,
            world,
        ]
        .into_iter()
        .chain(cfg_inputs),
    )
}

/// The transfer lane both second-half kernels compile onto, whatever the
/// config's `comm_mapping` says: the ring's pushes on the copy engine, its
/// reductions on 20 SMs.
pub(crate) const SECOND_HALF_MAPPING: CommMapping = CommMapping::Hybrid { sms: 20 };

/// The TileLink AG + Gather + GroupGEMM kernel for one MoE shape, compiled
/// for `cfg` on the cluster `cost` prices: laid out for the expected routing
/// ([`ag_group_gemm_program`]) when `routing` is `None`, or else the routed
/// program ([`routed_ag_group_gemm_program`]), compiled once per config
/// inputs, bound to the routing's first-half table for `cfg`'s compute
/// tiles. Price it exactly with [`tilelink::exec::simulate_report`], or its
/// makespan under a cutoff with [`tilelink::exec::simulate_makespan`].
///
/// # Errors
///
/// Returns an error if compilation fails.
pub fn ag_group_gemm_kernel(
    shape: &MoeShape,
    cfg: &OverlapConfig,
    cost: &SharedCost,
    routing: Option<&RoutingTables>,
) -> tilelink::Result<CompiledKernel> {
    let world = cost.cluster().world_size();
    let compiler = Compiler::new(*cfg, cost);
    let inputs = comm::allgather_config_inputs(cfg);
    let site = |name| moe_site(name, shape, world, inputs);
    match routing {
        None => compiler.compile_cached(site("moe.ag_group_gemm"), || {
            Ok(ag_group_gemm_program(shape, world, cfg))
        }),
        Some(routing) => compiler.compile_cached_with_table(
            site("moe.routed_ag_group_gemm"),
            &routing.first_half(cfg.compute_tile.m),
            || Ok(routed_ag_group_gemm_program(shape, world, cfg)),
        ),
    }
}

/// The TileLink GroupGEMM + Scatter + TopK-Reduce + RS kernel for one MoE
/// shape, compiled the same way as [`ag_group_gemm_kernel`] from
/// [`group_gemm_rs_program`] or [`routed_group_gemm_rs_program`] (bound to
/// the routing's second-half table). The kernel always compiles onto the
/// hybrid transfer lane, whatever `cfg.comm_mapping` says.
///
/// # Errors
///
/// Returns an error if compilation fails.
pub fn group_gemm_rs_kernel(
    shape: &MoeShape,
    cfg: &OverlapConfig,
    cost: &SharedCost,
    routing: Option<&RoutingTables>,
) -> tilelink::Result<CompiledKernel> {
    let world = cost.cluster().world_size();
    let cfg = cfg.with_comm_mapping(SECOND_HALF_MAPPING);
    let compiler = Compiler::new(cfg, cost);
    let inputs = comm::reduce_scatter_config_inputs(&cfg);
    let site = |name| moe_site(name, shape, world, inputs);
    match routing {
        None => compiler.compile_cached(site("moe.group_gemm_rs"), || {
            Ok(group_gemm_rs_program(shape, world, &cfg))
        }),
        Some(routing) => compiler.compile_cached_with_table(
            site("moe.routed_group_gemm_rs"),
            &routing.second_half(),
            || Ok(routed_group_gemm_rs_program(shape, world, &cfg)),
        ),
    }
}

/// Simulates the full TileLink MoE layer (both halves plus the activation)
/// under the recommended configuration and the expected routing, priced
/// exactly by `cost`.
///
/// # Errors
///
/// Returns an error if either half fails.
pub fn timed_full_moe(shape: &MoeShape, cost: &SharedCost) -> tilelink::Result<OverlapReport> {
    let cfg = moe_config();
    let first = simulate_report(&ag_group_gemm_kernel(shape, &cfg, cost, None)?, cost)?;
    let second = simulate_report(&group_gemm_rs_kernel(shape, &cfg, cost, None)?, cost)?;
    Ok(OverlapReport::layer(
        first,
        activation_seconds(shape, &**cost),
        second,
    ))
}

/// Time of the expert-MLP activation between the two MoE halves, priced by an
/// explicit cost provider (memory bound; three passes over the dispatched
/// intermediate activations).
pub fn activation_seconds(shape: &MoeShape, cost: &dyn CostProvider) -> f64 {
    let cluster = cost.cluster();
    let world = cluster.world_size();
    let act_elems = dispatched_rows(shape) as f64 * (shape.intermediate / world) as f64;
    cost.hbm_seconds(3.0 * act_elems * BYTES_PER_ELEM) + cluster.gpu.kernel_launch_s()
}

// ---------------------------------------------------------------------------
// Routing distributions: sampler, routing tables + routed programs
// ---------------------------------------------------------------------------

/// Relative traffic of a hot expert under [`RoutingProfile::HotExpert`]
/// (cold experts have weight 1).
const HOT_EXPERT_WEIGHT: f64 = 8.0;

/// How dispatched rows distribute over experts when sampling routings.
///
/// The timed MoE kernels historically priced the *expected* (load-balanced)
/// routing; real MoE layers route with skew, and the skew — not the mean —
/// determines how much overlap is achievable. A profile describes the expert
/// popularity distribution the [`RoutingSampler`] draws from; which experts
/// are popular is re-drawn per sample, so a set of samples covers "any expert
/// may be hot", not "expert 0 is hot".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingProfile {
    /// Every expert equally likely (sampled, so counts still fluctuate around
    /// the mean the way a balanced router's do).
    Uniform,
    /// Zipf-distributed popularity: the `i`-th most popular expert has weight
    /// `(i + 1)^-s`. `s ≈ 1.0–1.5` matches reported MoE routing skew.
    Zipf {
        /// The Zipf exponent (`> 0`; larger is more skewed).
        s: f64,
    },
    /// `hot` experts receive 8× (`HOT_EXPERT_WEIGHT`) the traffic of the rest —
    /// the "few hot experts" regime of capacity-overflow studies. With
    /// `hot >= experts` every expert is "hot", which degenerates to
    /// [`RoutingProfile::Uniform`] (the sampler cannot know the expert count
    /// at parse time, so this is not rejected — pick `hot` well below the
    /// shape's expert count for actual skew).
    HotExpert {
        /// Number of hot experts (`>= 1`).
        hot: usize,
    },
}

impl RoutingProfile {
    /// Weight of the expert holding popularity rank `rank` (0 = most popular).
    fn weight_of_rank(&self, rank: usize) -> f64 {
        match self {
            RoutingProfile::Uniform => 1.0,
            RoutingProfile::Zipf { s } => ((rank + 1) as f64).powf(-s),
            RoutingProfile::HotExpert { hot } => {
                if rank < *hot {
                    HOT_EXPERT_WEIGHT
                } else {
                    1.0
                }
            }
        }
    }
}

impl fmt::Display for RoutingProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingProfile::Uniform => write!(f, "uniform"),
            RoutingProfile::Zipf { s } => write!(f, "zipf:{s}"),
            RoutingProfile::HotExpert { hot } => write!(f, "hot:{hot}"),
        }
    }
}

impl FromStr for RoutingProfile {
    type Err = String;

    /// Parses the `--routing` flag values: `uniform`, `zipf:<s>` or `hot:<k>`.
    fn from_str(text: &str) -> Result<Self, String> {
        if text == "uniform" {
            return Ok(RoutingProfile::Uniform);
        }
        if let Some(s) = text.strip_prefix("zipf:") {
            return match s.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => Ok(RoutingProfile::Zipf { s }),
                _ => Err(format!(
                    "zipf exponent must be a positive number, got {s:?}"
                )),
            };
        }
        if let Some(k) = text.strip_prefix("hot:") {
            return match k.parse::<usize>() {
                Ok(hot) if hot >= 1 => Ok(RoutingProfile::HotExpert { hot }),
                _ => Err(format!("hot expert count must be >= 1, got {k:?}")),
            };
        }
        Err(format!(
            "unknown routing profile {text:?} (expected uniform, zipf:<s> or hot:<k>)"
        ))
    }
}

/// One sampled routing: how many dispatched rows land on each expert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingSample {
    /// Dispatched rows per expert (sums to the shape's dispatched row count).
    pub rows_per_expert: Vec<usize>,
}

impl RoutingSample {
    /// The exactly-balanced sample the expected-routing kernels assume.
    pub fn balanced(experts: usize, rows: usize) -> Self {
        let base = rows / experts;
        let extra = rows % experts;
        Self {
            rows_per_expert: (0..experts)
                .map(|e| base + usize::from(e < extra))
                .collect(),
        }
    }

    /// Total dispatched rows.
    pub fn total_rows(&self) -> usize {
        self.rows_per_expert.iter().sum()
    }

    /// Rows on the most-loaded expert.
    pub fn max_rows(&self) -> usize {
        self.rows_per_expert.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: max over mean (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let n = self.rows_per_expert.len();
        if n == 0 || self.total_rows() == 0 {
            return 1.0;
        }
        self.max_rows() as f64 / (self.total_rows() as f64 / n as f64)
    }
}

/// A splitmix64 generator: deterministic, seedable, no dependencies (the
/// builtin-sampler approach of the repository's property tests).
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Guide-table buckets per expert: enough that a draw's scan rarely steps
/// past its first candidate.
const GUIDE_BUCKETS_PER_EXPERT: usize = 32;

/// A guide table over non-decreasing cumulative weights: `[0, total)` split
/// into equal buckets, each holding the first expert whose cumulative weight
/// passes the bucket's lower edge.
///
/// A draw scans linearly from the entry of the bucket *below* its own, so
/// rounding in the bucket arithmetic can never start it past its expert: the
/// scan returns exactly what a binary search over the cumulative weights
/// does, in O(1) expected steps instead of O(log experts).
struct GuideTable {
    start: Vec<usize>,
    total: f64,
}

impl GuideTable {
    fn new(cumulative: &[f64]) -> Self {
        let experts = cumulative.len();
        let buckets = experts * GUIDE_BUCKETS_PER_EXPERT;
        let total = cumulative.last().copied().unwrap_or(0.0);
        let mut start = Vec::with_capacity(buckets);
        let mut e = 0;
        for b in 0..buckets {
            let edge = total * (b as f64 / buckets as f64);
            while e < experts && cumulative[e] <= edge {
                e += 1;
            }
            start.push(e);
        }
        Self { start, total }
    }

    /// The expert a uniform `unit` in `[0, 1)` draws: the first whose
    /// cumulative weight exceeds `unit * total`, or the last expert.
    fn draw(&self, cumulative: &[f64], unit: f64) -> usize {
        let experts = cumulative.len();
        let buckets = self.start.len();
        let u = unit * self.total;
        let bucket = ((unit * buckets as f64) as usize).min(buckets - 1);
        let mut e = self.start[bucket.saturating_sub(1)];
        while e < experts && cumulative[e] <= u {
            e += 1;
        }
        e.min(experts - 1)
    }
}

/// Deterministic, seedable sampler of per-expert routing loads.
///
/// Every `(seed, sample index)` pair maps to exactly one [`RoutingSample`],
/// independent of call order and thread count — tuned winners built on
/// sampled routings are bit-identical across runs. (The Zipf profile's
/// weights go through `f64::powf`, so samples are bit-stable per platform
/// libm rather than across every platform; persistent tuning caches carry
/// the cluster and workload key, not the sample values, so a cross-platform
/// cache at worst re-simulates.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingSampler {
    profile: RoutingProfile,
    seed: u64,
}

impl RoutingSampler {
    /// Creates a sampler for one profile and seed.
    pub fn new(profile: RoutingProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// Draws sample `index`: `rows` dispatched rows over `experts` experts.
    ///
    /// Expert popularity ranks are re-permuted per sample (so different
    /// samples have different hot experts), then each row picks an expert by
    /// weighted draw.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is zero.
    pub fn sample(&self, experts: usize, rows: usize, index: usize) -> RoutingSample {
        assert!(experts > 0, "expert count must be positive");
        tilelink_probe::metrics::WORKLOADS_ROUTING_SAMPLES.inc();
        let (mut rng, cumulative) = self.weights(experts, index);
        let guide = GuideTable::new(&cumulative);
        let mut rows_per_expert = vec![0usize; experts];
        for _ in 0..rows {
            rows_per_expert[guide.draw(&cumulative, rng.next_f64())] += 1;
        }
        RoutingSample { rows_per_expert }
    }

    /// Sample `index`'s generator, after it has drawn the popularity
    /// permutation, and the cumulative expert weights that permutation gives.
    fn weights(&self, experts: usize, index: usize) -> (SplitMix, Vec<f64>) {
        let mut rng = SplitMix::new(
            self.seed
                .wrapping_add((index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
        );
        // Fisher–Yates permutation of popularity ranks over experts.
        let mut rank_of_expert: Vec<usize> = (0..experts).collect();
        for i in (1..experts).rev() {
            let j = rng.below(i + 1);
            rank_of_expert.swap(i, j);
        }
        let mut total = 0.0;
        let cumulative = rank_of_expert
            .iter()
            .map(|&r| {
                total += self.profile.weight_of_rank(r);
                total
            })
            .collect();
        (rng, cumulative)
    }

    /// Draws the first `n` samples for one MoE shape, inside a
    /// `routing.draw` span.
    pub fn samples_for(&self, shape: &MoeShape, n: usize) -> Vec<RoutingSample> {
        let _span = tilelink_probe::span("routing.draw");
        (0..n)
            .map(|i| self.sample(shape.experts, dispatched_rows(shape), i))
            .collect()
    }
}

/// One sampled routing laid out as the Group-GEMM block tables of both MoE
/// halves, each built once, on first use, inside a `compile.build` span:
/// the second half's table, and the first half's per compute-tile row
/// count. A routed kernel binds the table of its half
/// ([`ag_group_gemm_kernel`], [`group_gemm_rs_kernel`]), so one layer
/// oracle builds each table once however many configs it prices.
#[derive(Debug)]
pub struct RoutingTables {
    sample: RoutingSample,
    first: Mutex<Vec<(usize, Arc<BlockTable>)>>,
    second: OnceLock<Arc<BlockTable>>,
}

impl Clone for RoutingTables {
    fn clone(&self) -> Self {
        Self {
            sample: self.sample.clone(),
            first: Mutex::new(self.first.lock().expect("routing tables poisoned").clone()),
            second: self.second.clone(),
        }
    }
}

impl From<RoutingSample> for RoutingTables {
    fn from(sample: RoutingSample) -> Self {
        Self {
            sample,
            first: Mutex::new(Vec::new()),
            second: OnceLock::new(),
        }
    }
}

impl RoutingTables {
    /// The first half's table for compute tiles of `compute_tile_m` rows:
    /// one entry per Group-GEMM block, a slice of at most `compute_tile_m ×
    /// DISPATCH_TILES_PER_BLOCK` (8) dispatched rows of one expert (the
    /// expected-routing builder's block granularity), experts in order, each
    /// expert's rows split into equal slices but the last. A hot expert gets
    /// proportionally more, and past the slice target proportionally
    /// *larger*, blocks, so skewed samples price to longer makespans than
    /// balanced ones.
    pub fn first_half(&self, compute_tile_m: usize) -> Arc<BlockTable> {
        let mut tables = self.first.lock().expect("routing tables poisoned");
        if let Some((_, table)) = tables.iter().find(|(m, _)| *m == compute_tile_m) {
            return Arc::clone(table);
        }
        let _span = tilelink_probe::span("compile.build");
        let target = (compute_tile_m * DISPATCH_TILES_PER_BLOCK).max(1);
        let mut entries = Vec::new();
        let mut cursor = 0usize;
        for (expert, &rows) in self.sample.rows_per_expert.iter().enumerate() {
            if rows == 0 {
                continue;
            }
            let per_block = rows.div_ceil(rows.div_ceil(target));
            let expert_end = cursor + rows;
            while cursor < expert_end {
                let end = (cursor + per_block).min(expert_end);
                entries.push(TableEntry {
                    rows: cursor..end,
                    group: expert,
                });
                cursor = end;
            }
        }
        let table = Arc::new(BlockTable::new(entries));
        tables.push((compute_tile_m, Arc::clone(&table)));
        table
    }

    /// The second half's table: one entry per expert with rows, its
    /// dispatched rows in expert order.
    pub fn second_half(&self) -> Arc<BlockTable> {
        Arc::clone(self.second.get_or_init(|| {
            let _span = tilelink_probe::span("compile.build");
            let mut cursor = 0usize;
            let entries = (self.sample.rows_per_expert.iter().enumerate())
                .filter(|&(_, &rows)| rows > 0)
                .map(|(expert, &rows)| {
                    cursor += rows;
                    TableEntry {
                        rows: cursor - rows..cursor,
                        group: expert,
                    }
                })
                .collect();
            Arc::new(BlockTable::new(entries))
        }))
    }
}

/// Builds the routed AG + Gather + GroupGEMM program: the AllGather blocks
/// and, per rank, one Group-GEMM template `ggemm/r{rank}/e{expert}/d{d}`
/// instantiated once per entry `d` of a [`RoutingTables::first_half`] table.
///
/// Instance `d` of `D` waits on a prefix spread of the `T` AllGather tiles,
/// `[T·d/D, min(T·(d+1)/D, T))` (tokens routed to one expert are scattered
/// over the whole gathered matrix: the expected-routing builder's arrival
/// model), then loads, multiplies and stores its slice's rows. It stores
/// dispatch tile `T + d`, which signals channel `C + d % channels_per_rank`
/// past the AllGather mapping's `C` channels. The returned mapping is the
/// AllGather mapping.
pub fn routed_ag_group_gemm_program(
    shape: &MoeShape,
    world: usize,
    cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let h = shape.hidden;
    let i_local = shape.intermediate / world;
    let ag = StaticMapping::new(shape.tokens, cfg.comm_tile.m, world, cfg.channels_per_rank);
    let (ag_tiles, ag_channels) = (ag.num_tiles(), ag.num_channels());
    // Interned once per build, not once per op (see ag_group_gemm_program).
    let gathered = Symbol::intern("gathered");
    let expert_out = Symbol::intern("expert_out");
    let ggemm = NamePattern::new("ggemm/r{}/e{}/d{}");
    let mut program = TileProgram::new("moe_routed_ag_group_gemm", world);
    for rank in 0..world {
        comm::allgather_blocks(&mut program, rank, &ag, h);
        program.add_template(
            BlockTemplate::new(ggemm, rank)
                .entry_channels(ag_channels..ag_channels + cfg.channels_per_rank)
                .each_tile(
                    TileShare::ByIndex { tiles: ag_tiles },
                    [TileOp::ConsumerWait { tile: 0 }],
                )
                .per_row(TileOp::LoadTile {
                    buffer: gathered,
                    bytes: h as f64 * BYTES_PER_ELEM,
                    tile: None,
                })
                .per_row(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 1,
                    n: i_local,
                    k: h,
                }))
                .step(TemplateOp {
                    op: TileOp::StoreTile {
                        buffer: expert_out,
                        bytes: i_local as f64 * BYTES_PER_ELEM,
                        tile: Some(ag_tiles),
                    },
                    per_row: true,
                    entry_tile: true,
                }),
        );
    }
    (program, ag)
}

/// Builds the routed GroupGEMM + Scatter + TopK-Reduce + ReduceScatter
/// program: per rank, one Group-GEMM template `ggemm2/r{rank}/e{expert}`
/// instantiated once per entry of a [`RoutingTables::second_half`] table,
/// then the ring ReduceScatter blocks.
///
/// The second-half Group GEMM runs per expert, so its block sizes follow the
/// routing. The instance of the expert whose rows are `[c, c + r)` of `R`
/// publishes token tiles `[N·c/R, N·(c+r)/R)` of the `N` tiles: token tiles
/// are apportioned to experts by cumulative load, so every tile is
/// published exactly once, and the ReduceScatter waits behind hot experts
/// exactly the way a skewed scatter does.
pub fn routed_group_gemm_rs_program(
    shape: &MoeShape,
    world: usize,
    cfg: &OverlapConfig,
) -> (TileProgram, StaticMapping) {
    let _span = tilelink_probe::span("compile.build");
    let m = shape.tokens;
    let h = shape.hidden;
    let i_local = shape.intermediate / world;
    let tile_m = cfg.compute_tile.m;
    let mapping = StaticMapping::new(m, tile_m, world, cfg.channels_per_rank);
    let tile_out_bytes = tile_m as f64 * h as f64 * BYTES_PER_ELEM;
    // Interned once per build, not once per op (see ag_group_gemm_program).
    let expert_act = Symbol::intern("expert_act");
    let gemm_out = Symbol::intern("gemm_out");
    let ggemm2 = NamePattern::new("ggemm2/r{}/e{}");
    let mut program = TileProgram::new("moe_routed_group_gemm_rs", world);
    for rank in 0..world {
        // Per-expert Group GEMM, fused with the scatter + top-k reduce
        // epilogue.
        program.add_template(
            BlockTemplate::new(ggemm2, rank)
                .per_row(TileOp::LoadTile {
                    buffer: expert_act,
                    bytes: i_local as f64 * BYTES_PER_ELEM,
                    tile: None,
                })
                .per_row(TileOp::Compute(ComputeKind::MatmulTile {
                    m: 1,
                    n: h,
                    k: i_local,
                }))
                // top-k weighted combine of the expert rows into token rows
                .per_row(TileOp::Compute(ComputeKind::Elementwise { elems: h }))
                .each_tile(
                    TileShare::ByRows {
                        tiles: mapping.num_tiles(),
                    },
                    [
                        TileOp::StoreTile {
                            buffer: gemm_out,
                            bytes: tile_out_bytes,
                            tile: Some(0),
                        },
                        TileOp::ProducerNotify {
                            tile: 0,
                            scope: NotifyScope::Local,
                        },
                    ],
                ),
        );
        // The ring ReduceScatter itself is routing-independent; only *when*
        // its inputs become ready depends on the routing.
        comm::ring_reduce_scatter_blocks(&mut program, rank, world, m, tile_m, h);
    }
    (program, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_compute::group_gemm::group_gemm;
    use tilelink_sim::{analytic_cost, ClusterSpec};

    fn cost() -> SharedCost {
        analytic_cost(&ClusterSpec::h800_node(8))
    }

    fn reference(
        tokens: &Tensor,
        logits: &Tensor,
        weights: &Tensor,
        top_k: usize,
    ) -> (Tensor, Routing) {
        let routing = topk_routing(logits, top_k);
        let dispatch = Dispatch::new(&routing);
        let gathered = dispatch.gather(tokens);
        (
            group_gemm(&gathered, &dispatch.expert_offsets, weights),
            routing,
        )
    }

    #[test]
    fn functional_ag_moe_matches_reference() {
        let world = 2;
        let (m, h, experts, i_local, top_k) = (16, 6, 4, 5, 2);
        let tokens = Tensor::random(&[m, h], 1);
        let logits = Tensor::random(&[m, experts], 2);
        let weights: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[experts, h, i_local], 50 + r as u64))
            .collect();
        let results = ag_moe_functional(world, &tokens, &logits, &weights, top_k, 4, 4);
        for (rank, result) in results.iter().enumerate() {
            let (expected, routing) = reference(&tokens, &logits, &weights[rank], top_k);
            assert_eq!(result.routing, routing);
            assert!(
                result.expert_out.allclose(&expected, 1e-3),
                "rank {rank} diff {}",
                result.expert_out.max_abs_diff(&expected)
            );
        }
    }

    #[test]
    fn functional_ag_moe_with_uneven_dispatch_tiles() {
        // dispatch tile size that does not divide the dispatched row count
        let world = 2;
        let tokens = Tensor::random(&[8, 4], 7);
        let logits = Tensor::random(&[8, 3], 8);
        let weights: Vec<Tensor> = (0..world)
            .map(|r| Tensor::random(&[3, 4, 3], 60 + r as u64))
            .collect();
        let results = ag_moe_functional(world, &tokens, &logits, &weights, 2, 2, 3);
        let (expected, _) = reference(&tokens, &logits, &weights[0], 2);
        assert!(results[0].expert_out.allclose(&expected, 1e-3));
    }

    #[test]
    fn timed_moe_first_half_overlaps() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cost = cost();
        let kernel = ag_group_gemm_kernel(&shape, &moe_config(), &cost, None).unwrap();
        let report = simulate_report(&kernel, &cost).unwrap();
        assert!(report.total_s < report.comm_only_s + report.comp_only_s);
        assert!(report.total_ms() > 0.01 && report.total_ms() < 20.0);
    }

    #[test]
    fn timed_moe_second_half_overlaps() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cost = cost();
        let kernel = group_gemm_rs_kernel(&shape, &moe_config(), &cost, None).unwrap();
        let report = simulate_report(&kernel, &cost).unwrap();
        assert!(report.total_s < report.comm_only_s + report.comp_only_s);
    }

    #[test]
    fn timed_full_moe_scales_with_topk() {
        let shapes = crate::shapes::moe_shapes();
        let k2 = timed_full_moe(&shapes[1], &cost()).unwrap(); // MoE-2: topk 2
        let k5 = timed_full_moe(&shapes[2], &cost()).unwrap(); // MoE-3: topk 5
        assert!(k5.total_s > k2.total_s);
    }

    #[test]
    fn routing_profile_parse_round_trips() {
        for text in ["uniform", "zipf:1.2", "zipf:0.5", "hot:4", "hot:1"] {
            let profile: RoutingProfile = text.parse().unwrap();
            assert_eq!(profile.to_string(), text);
        }
        for bad in ["zipf", "zipf:-1", "zipf:abc", "hot:0", "hot:x", "skewed"] {
            assert!(bad.parse::<RoutingProfile>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sampler_is_deterministic_and_conserves_rows() {
        let shape = crate::shapes::moe_shapes()[2].clone(); // 32 experts, topk 5
        let rows = dispatched_rows(&shape);
        for profile in [
            RoutingProfile::Uniform,
            RoutingProfile::Zipf { s: 1.2 },
            RoutingProfile::HotExpert { hot: 2 },
        ] {
            let a = RoutingSampler::new(profile, 42).samples_for(&shape, 4);
            let b = RoutingSampler::new(profile, 42).samples_for(&shape, 4);
            assert_eq!(a, b, "{profile}: same seed must be bit-identical");
            for s in &a {
                assert_eq!(s.total_rows(), rows, "{profile}: rows must be conserved");
                assert_eq!(s.rows_per_expert.len(), shape.experts);
            }
            // Different seeds and different indices draw different routings.
            let c = RoutingSampler::new(profile, 43).sample(shape.experts, rows, 0);
            assert_ne!(a[0], c, "{profile}: different seed");
            assert_ne!(a[0], a[1], "{profile}: different index");
        }
    }

    /// [`RoutingSampler::sample`] with every draw a binary search over the
    /// cumulative weights.
    fn sample_by_partition_point(
        sampler: &RoutingSampler,
        experts: usize,
        rows: usize,
        index: usize,
    ) -> RoutingSample {
        let (mut rng, cumulative) = sampler.weights(experts, index);
        let total = *cumulative.last().unwrap();
        let mut rows_per_expert = vec![0usize; experts];
        for _ in 0..rows {
            let u = rng.next_f64() * total;
            rows_per_expert[cumulative.partition_point(|&c| c <= u).min(experts - 1)] += 1;
        }
        RoutingSample { rows_per_expert }
    }

    #[test]
    fn guide_table_draws_match_a_binary_search() {
        for profile in [
            RoutingProfile::Uniform,
            RoutingProfile::Zipf { s: 1.2 },
            RoutingProfile::Zipf { s: 3.0 },
            RoutingProfile::HotExpert { hot: 2 },
        ] {
            for experts in [1, 8, 32, 160] {
                for seed in 0..8 {
                    let sampler = RoutingSampler::new(profile, seed);
                    for index in 0..2 {
                        assert_eq!(
                            sampler.sample(experts, 4096, index),
                            sample_by_partition_point(&sampler, experts, 4096, index),
                            "{profile}, {experts} experts, seed {seed}, sample {index}"
                        );
                    }
                    // Draws on and beside every bucket edge, and the largest
                    // unit value.
                    let (_, cumulative) = sampler.weights(experts, 0);
                    let guide = GuideTable::new(&cumulative);
                    let total = guide.total;
                    for b in 0..=experts {
                        let edge = b as f64 / experts as f64;
                        for unit in [edge.next_down(), edge, edge.next_up(), 1.0f64.next_down()] {
                            if !(0.0..1.0).contains(&unit) {
                                continue;
                            }
                            let u = unit * total;
                            let expected = cumulative.partition_point(|&c| c <= u).min(experts - 1);
                            assert_eq!(
                                guide.draw(&cumulative, unit),
                                expected,
                                "{profile}, {unit}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn skewed_profiles_are_more_imbalanced_than_uniform() {
        let shape = crate::shapes::moe_shapes()[2].clone();
        let mean_imbalance = |profile| {
            let sampler = RoutingSampler::new(profile, 7);
            let samples = sampler.samples_for(&shape, 8);
            samples.iter().map(RoutingSample::imbalance).sum::<f64>() / 8.0
        };
        let uniform = mean_imbalance(RoutingProfile::Uniform);
        let zipf = mean_imbalance(RoutingProfile::Zipf { s: 1.2 });
        let hot = mean_imbalance(RoutingProfile::HotExpert { hot: 2 });
        assert!(uniform < zipf, "uniform {uniform} vs zipf {zipf}");
        assert!(uniform < hot, "uniform {uniform} vs hot {hot}");
        // Sampled-uniform still hovers near balance.
        assert!(uniform < 1.5, "uniform imbalance {uniform}");
        assert!(zipf > 2.0, "zipf:1.2 imbalance {zipf}");
    }

    /// The full routed MoE layer for one sampled routing, priced exactly.
    fn timed_routed_layer(
        shape: &MoeShape,
        cfg: &OverlapConfig,
        cost: &SharedCost,
        sample: &RoutingSample,
    ) -> tilelink::Result<OverlapReport> {
        let routing = RoutingTables::from(sample.clone());
        let first = simulate_report(
            &ag_group_gemm_kernel(shape, cfg, cost, Some(&routing))?,
            cost,
        )?;
        let second = simulate_report(
            &group_gemm_rs_kernel(shape, cfg, cost, Some(&routing))?,
            cost,
        )?;
        Ok(OverlapReport::layer(
            first,
            activation_seconds(shape, &**cost),
            second,
        ))
    }

    #[test]
    fn routed_kernels_price_skew_higher_than_balance() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cost = cost();
        let cfg = moe_config();
        let rows = dispatched_rows(&shape);
        let balanced = RoutingSample::balanced(shape.experts, rows);
        // Everything on one expert: the worst possible skew.
        let mut all_on_one = vec![0usize; shape.experts];
        all_on_one[3] = rows;
        let skewed = RoutingSample {
            rows_per_expert: all_on_one,
        };
        let flat = timed_routed_layer(&shape, &cfg, &cost, &balanced).unwrap();
        let hot = timed_routed_layer(&shape, &cfg, &cost, &skewed).unwrap();
        assert!(
            hot.total_s > flat.total_s,
            "skewed {} ms <= balanced {} ms",
            hot.total_ms(),
            flat.total_ms()
        );
        // Both are real overlapped kernels in a sane range.
        assert!(flat.total_s < flat.comm_only_s + flat.comp_only_s);
        assert!(flat.total_ms() > 0.01 && hot.total_ms() < 50.0);
    }

    #[test]
    fn routed_kernel_is_deterministic_for_a_fixed_sample() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let cost = cost();
        let sample = RoutingSampler::new(RoutingProfile::Zipf { s: 1.2 }, 42).sample(
            shape.experts,
            dispatched_rows(&shape),
            0,
        );
        let price = || timed_routed_layer(&shape, &moe_config(), &cost, &sample);
        assert_eq!(price().unwrap(), price().unwrap());
    }

    #[test]
    fn routing_tables_cover_every_dispatched_row_once() {
        let shape = crate::shapes::moe_shapes()[0].clone();
        let rows = dispatched_rows(&shape);
        let mut rows_per_expert = RoutingSample::balanced(shape.experts, rows).rows_per_expert;
        // A hot expert past the slice target, and an idle one.
        rows_per_expert[2] += rows_per_expert[5];
        rows_per_expert[5] = 0;
        let routing = RoutingTables::from(RoutingSample { rows_per_expert });
        for tile_m in [64, 128] {
            let first = routing.first_half(tile_m);
            assert!(
                Arc::ptr_eq(&first, &routing.first_half(tile_m)),
                "built once"
            );
            assert_eq!(first.total_rows(), rows);
            for entry in first.entries() {
                assert!(!entry.rows.is_empty() && entry.rows.len() <= tile_m * 8);
                assert_ne!(entry.group, 5, "an idle expert gets no block");
            }
        }
        let second = routing.second_half();
        assert_eq!(second.total_rows(), rows);
        assert_eq!(second.len(), shape.experts - 1);
        let experts: Vec<usize> = second.entries().iter().map(|e| e.group).collect();
        assert!(experts.windows(2).all(|w| w[0] < w[1]) && !experts.contains(&5));
    }
}
