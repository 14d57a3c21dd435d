//! The compile cache's key names every input of every builder.
//!
//! `Compiler::compile_cached` keys a program by its `CacheSite` alone, so
//! each kernel function's site must name every value its builder reads: the
//! shape, the world size and the config values the builder reads. A routed
//! kernel's routing is no builder input: it is bound as a table, which the
//! kernel's key names. A site that leaves one out hands a stale program to a
//! config that changes it. This test compiles a grid of configs through one
//! warm compile cache, in a fixed order, at all seven cache sites of the
//! five cached kernel functions at world 2 and 16. Each kernel must equal a
//! cold compile of the same config (with the same table, for a routed one),
//! and price to the same exact report, bit for bit. The full rebuilds must
//! number exactly the distinct builder inputs in the grid, and two kernels
//! must share a `KernelKey` (and so a makespan-memo price) exactly when
//! their builder inputs and resource plans agree.
//!
//! The compile cache and its rebuild counter are process-wide, so this file
//! holds one test.

use std::collections::HashSet;

use tilelink::exec::simulate_report;
use tilelink::ir::TileProgram;
use tilelink::{
    reset_compile_cache, CommMapping, CompiledKernel, Compiler, OverlapConfig, TileMapping,
    TileOrder, TileShape, TransferMode,
};
use tilelink_probe::metrics::TUNE_COMPILE_FULL_REBUILDS;
use tilelink_sim::{analytic_cost, ClusterSpec, SharedCost};
use tilelink_workloads::moe::dispatched_rows;
use tilelink_workloads::{
    attention, mlp, moe, AttnShape, MlpShape, MoeShape, RoutingProfile, RoutingSampler,
    RoutingTables,
};

/// Every value of every axis of `SearchSpace::standard()` (mirrored here),
/// plus other tile column counts and channel counts {1, 2, 4}. The tile and
/// channel axes are crossed; the order/mode, mapping and stage axes cycle
/// through their values along the way, so configs with equal builder inputs
/// differ in the axes their builders do not read.
fn grid() -> Vec<OverlapConfig> {
    let comm_tiles = [
        TileShape::new(64, 64),
        TileShape::new(128, 128),
        TileShape::new(256, 128),
        TileShape::new(128, 256),
    ];
    let compute_tiles = [
        TileShape::new(64, 128),
        TileShape::new(128, 128),
        TileShape::new(128, 256),
        TileShape::new(64, 256),
    ];
    let orders_and_modes = [
        (TileOrder::AllToAll, TransferMode::Pull),
        (TileOrder::AllToAll, TransferMode::Push),
        (TileOrder::Ring, TransferMode::Push),
    ];
    let mappings = [
        CommMapping::CopyEngine,
        CommMapping::Sm { sms: 8 },
        CommMapping::Sm { sms: 20 },
        CommMapping::Sm { sms: 40 },
        CommMapping::Hybrid { sms: 8 },
        CommMapping::Hybrid { sms: 20 },
    ];
    let stages = [2, 3, 4];
    let mut grid = Vec::new();
    for comm_tile in comm_tiles {
        for compute_tile in compute_tiles {
            for channels_per_rank in [1, 2, 4] {
                let i = grid.len();
                let (order, mode) = orders_and_modes[i % 3];
                grid.push(OverlapConfig {
                    comm_tile,
                    compute_tile,
                    order,
                    mode,
                    comm_mapping: mappings[i % 6],
                    channels_per_rank,
                    num_stages: stages[(i / 6) % 3],
                });
            }
        }
    }
    grid
}

/// The seven cache sites: the MLP and attention kernel functions, and each
/// MoE kernel function with and without a routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kernel {
    MlpAg,
    MlpRs,
    MoeAg,
    MoeRs,
    RoutedAg,
    RoutedRs,
    Attention,
}

const KERNELS: [Kernel; 7] = [
    Kernel::MlpAg,
    Kernel::MlpRs,
    Kernel::MoeAg,
    Kernel::MoeRs,
    Kernel::RoutedAg,
    Kernel::RoutedRs,
    Kernel::Attention,
];

/// Small shapes on which every kernel compiles at world 16: the ring splits
/// `tokens` into 16 segments of whole compute tiles.
struct Shapes {
    mlp: MlpShape,
    moe: MoeShape,
    attn: AttnShape,
    routing: RoutingTables,
}

impl Shapes {
    fn new() -> Self {
        let moe = MoeShape {
            name: "moe-small",
            tokens: 2048,
            hidden: 512,
            intermediate: 1024,
            experts: 8,
            top_k: 2,
        };
        let routing = RoutingSampler::new(RoutingProfile::Zipf { s: 1.2 }, 11)
            .sample(moe.experts, dispatched_rows(&moe), 0)
            .into();
        Self {
            mlp: MlpShape {
                name: "mlp-small",
                tokens: 2048,
                hidden: 512,
                intermediate: 1024,
                source: "test",
            },
            moe,
            attn: AttnShape {
                name: "attn-small",
                heads: 8,
                head_dim: 128,
                seq_lens: vec![4096],
            },
            routing,
        }
    }
}

impl Kernel {
    /// The kernel, compiled through the compile cache.
    fn cached(self, s: &Shapes, cfg: &OverlapConfig, cost: &SharedCost) -> CompiledKernel {
        match self {
            Kernel::MlpAg => mlp::ag_gemm_kernel(&s.mlp, cfg, cost),
            Kernel::MlpRs => mlp::gemm_rs_kernel(&s.mlp, cfg, cost),
            Kernel::MoeAg => moe::ag_group_gemm_kernel(&s.moe, cfg, cost, None),
            Kernel::MoeRs => moe::group_gemm_rs_kernel(&s.moe, cfg, cost, None),
            Kernel::RoutedAg => moe::ag_group_gemm_kernel(&s.moe, cfg, cost, Some(&s.routing)),
            Kernel::RoutedRs => moe::group_gemm_rs_kernel(&s.moe, cfg, cost, Some(&s.routing)),
            Kernel::Attention => {
                attention::sp_attention_kernel(&s.attn, s.attn.seq_lens[0], cfg, cost)
            }
        }
        .unwrap_or_else(|e| panic!("{self:?} {cfg:?}: {e}"))
    }

    /// The kernel's program and mapping, built directly.
    fn program(
        self,
        s: &Shapes,
        cfg: &OverlapConfig,
        world: usize,
    ) -> (TileProgram, Box<dyn TileMapping>) {
        fn boxed<M: TileMapping + 'static>(
            (p, m): (TileProgram, M),
        ) -> (TileProgram, Box<dyn TileMapping>) {
            (p, Box::new(m))
        }
        let (mlp, moe) = (&s.mlp, &s.moe);
        match self {
            Kernel::MlpAg => boxed(mlp::ag_gemm_program(
                mlp.tokens,
                mlp.hidden,
                mlp.intermediate,
                world,
                cfg,
            )),
            Kernel::MlpRs => boxed(mlp::gemm_rs_program(
                mlp.tokens,
                mlp.hidden,
                mlp.intermediate,
                world,
                cfg,
            )),
            Kernel::MoeAg => boxed(moe::ag_group_gemm_program(moe, world, cfg)),
            Kernel::MoeRs => boxed(moe::group_gemm_rs_program(moe, world, cfg)),
            Kernel::RoutedAg => boxed(moe::routed_ag_group_gemm_program(moe, world, cfg)),
            Kernel::RoutedRs => boxed(moe::routed_group_gemm_rs_program(moe, world, cfg)),
            Kernel::Attention => boxed(attention::sp_attention_program(
                s.attn.heads,
                s.attn.head_dim,
                s.attn.seq_lens[0],
                world,
                cfg,
            )),
        }
    }

    /// The config values the kernel's builder reads.
    fn config_inputs(self, cfg: &OverlapConfig) -> Vec<usize> {
        match self {
            Kernel::MlpAg | Kernel::MoeAg | Kernel::RoutedAg => {
                vec![cfg.comm_tile.m, cfg.compute_tile.m, cfg.channels_per_rank]
            }
            Kernel::MlpRs | Kernel::MoeRs | Kernel::RoutedRs => {
                vec![cfg.compute_tile.m, cfg.channels_per_rank]
            }
            Kernel::Attention => Vec::new(),
        }
    }
}

#[test]
fn warm_cached_compiles_equal_cold_compiles_and_rebuild_once_per_builder_input() {
    let shapes = Shapes::new();
    let grid = grid();
    reset_compile_cache();
    let rebuilds_before = TUNE_COMPILE_FULL_REBUILDS.get();
    let mut distinct_inputs = HashSet::new();
    let mut compiled = Vec::new();
    for world in [2, 16] {
        let cost = analytic_cost(&ClusterSpec::h800_node(world));
        let report_bits = |compiled: &CompiledKernel| {
            let report = simulate_report(compiled, &cost).expect("report");
            [report.total_s, report.comm_only_s, report.comp_only_s].map(f64::to_bits)
        };
        for cfg in &grid {
            for kernel in KERNELS {
                let ctx = format!("{kernel:?} at world {world}, {cfg:?}");
                let inputs = (world, kernel, kernel.config_inputs(cfg));
                distinct_inputs.insert(inputs.clone());
                let warm = kernel.cached(&shapes, cfg, &cost);
                // The second-half kernels compile onto their forced lane, so
                // the cold compile takes the config the kernel reports; a
                // routed one binds the table the warm one bound.
                let (program, mapping) = kernel.program(&shapes, cfg, world);
                let compiler = Compiler::new(warm.config, &cost);
                let cold = match &warm.table {
                    None => compiler.compile(warm.key.site(), &program, &*mapping),
                    Some(table) => {
                        compiler.compile_with_table(warm.key.site(), &program, &*mapping, table)
                    }
                }
                .unwrap_or_else(|e| panic!("cold compile: {ctx}: {e}"));
                assert_eq!(warm, cold, "kernel: {ctx}");
                assert_eq!(report_bits(&warm), report_bits(&cold), "report: {ctx}");
                compiled.push((inputs, warm.plan.clone(), warm.key, ctx));
            }
        }
    }
    // No builder's program has a load a stage count moves, so a kernel is
    // its builder inputs and its plan.
    let mut shared = 0;
    for (i, (inputs, plan, key, ctx)) in compiled.iter().enumerate() {
        for (other_inputs, other_plan, other_key, other_ctx) in &compiled[..i] {
            let same_kernel = inputs == other_inputs && plan == other_plan;
            assert_eq!(key == other_key, same_kernel, "{ctx} vs {other_ctx}");
            shared += usize::from(same_kernel);
        }
    }
    assert!(shared > 0, "no two configs compiled to one kernel");
    let rebuilds = TUNE_COMPILE_FULL_REBUILDS.get() - rebuilds_before;
    assert_eq!(rebuilds as usize, distinct_inputs.len());
    // Guard against a grid that stops sharing builder inputs: most compiles
    // must have been patches.
    assert!(rebuilds as usize * 3 < grid.len() * KERNELS.len() * 2);
}
