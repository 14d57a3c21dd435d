//! Every program builder's block names render as the strings the builders
//! used to format once per block (`ag/r{rank}/b{i}`, `ggemm/r{rank}/e{expert}/d{d}`,
//! ...). The names are patterns plus indices now, rendered only where they
//! are shown, and `reproduce --trace-out` labels and consistency errors
//! show them, so a pattern or an index order that drifts changes those
//! outputs. The expected names below are built with `format!`, block by
//! block, in the order each builder emits its blocks.

use tilelink::ir::{BlockRole, TileProgram};
use tilelink::{CompiledKernel, OverlapConfig, StaticMapping, TileMapping};
use tilelink_sim::{analytic_cost, ClusterSpec};
use tilelink_workloads::{
    attention, mlp, moe, MlpShape, MoeShape, RoutingProfile, RoutingSample, RoutingSampler,
    RoutingTables,
};

fn rendered(program: &TileProgram) -> Vec<String> {
    program.blocks.iter().map(|b| b.name.to_string()).collect()
}

/// The block names of a compiled kernel in block order, its templates
/// instantiated from its table by the walk the timed executor builds its
/// graphs by.
fn instantiated(kernel: &CompiledKernel) -> Vec<String> {
    let (mut names, mut buffer) = (Vec::new(), Vec::new());
    let mut blocks = kernel.walk(&mut buffer, |_| true);
    while let Some(block) = blocks.next_block() {
        names.push(block.name.to_string());
    }
    names
}

/// Rank `rank`'s consumer blocks, which a builder numbers `b0`, `b1`, ... in
/// emission order.
fn consumer_count(program: &TileProgram, rank: usize) -> usize {
    program.block_count(rank, BlockRole::Consumer)
}

/// `comm::allgather_blocks`: one block per token tile the rank owns.
fn allgather(rank: usize, mapping: &StaticMapping) -> Vec<String> {
    (0..mapping.tiles_of_rank(rank).len())
        .map(|i| format!("ag/r{rank}/b{i}"))
        .collect()
}

/// `comm::ring_reduce_scatter_blocks`: one block per tile of the rank's
/// segment.
fn ring(rank: usize, world: usize, tokens: usize, tile_m: usize) -> Vec<String> {
    let tiles_per_segment = ((tokens / world) / tile_m).max(1);
    (0..tiles_per_segment)
        .map(|t| format!("rs/r{rank}/t{t}"))
        .collect()
}

fn small_mlp() -> MlpShape {
    MlpShape {
        name: "small",
        tokens: 1024,
        hidden: 256,
        intermediate: 512,
        source: "test",
    }
}

fn small_moe() -> MoeShape {
    MoeShape {
        name: "small",
        tokens: 512,
        hidden: 256,
        intermediate: 512,
        experts: 8,
        top_k: 2,
    }
}

fn worlds() -> [usize; 2] {
    [
        ClusterSpec::h800_node(2).world_size(),
        ClusterSpec::h800_node(4).world_size(),
    ]
}

#[test]
fn mlp_block_names_render_as_formatted() {
    let shape = small_mlp();
    let cfg = OverlapConfig::default();
    for world in worlds() {
        let (program, mapping) =
            mlp::ag_gemm_program(shape.tokens, shape.hidden, shape.intermediate, world, &cfg);
        let mut expected = Vec::new();
        for rank in 0..world {
            expected.extend(allgather(rank, &mapping));
            let compute_tiles = shape.tokens.div_ceil(cfg.compute_tile.m);
            expected.extend((0..compute_tiles).map(|b| format!("gemm/r{rank}/b{b}")));
        }
        assert_eq!(rendered(&program), expected, "MLP AG, world {world}");

        let (program, mapping) =
            mlp::gemm_rs_program(shape.tokens, shape.hidden, shape.intermediate, world, &cfg);
        let mut expected = Vec::new();
        for rank in 0..world {
            expected.extend((0..mapping.num_tiles()).map(|t| format!("gemm/r{rank}/t{t}")));
            expected.extend(ring(rank, world, shape.tokens, cfg.compute_tile.m));
        }
        assert_eq!(rendered(&program), expected, "MLP RS, world {world}");
    }
}

#[test]
fn moe_block_names_render_as_formatted() {
    let shape = small_moe();
    let cfg = OverlapConfig::default();
    for world in worlds() {
        let (program, mapping) = moe::ag_group_gemm_program(&shape, world, &cfg);
        let mut expected = Vec::new();
        for rank in 0..world {
            expected.extend(allgather(rank, &mapping));
            let compute_blocks = consumer_count(&program, rank);
            expected.extend((0..compute_blocks).map(|b| format!("ggemm/r{rank}/b{b}")));
        }
        assert_eq!(rendered(&program), expected, "MoE AG, world {world}");

        let (program, mapping) = moe::group_gemm_rs_program(&shape, world, &cfg);
        let mut expected = Vec::new();
        for rank in 0..world {
            expected.extend((0..mapping.num_tiles()).map(|t| format!("ggemm2/r{rank}/t{t}")));
            expected.extend(ring(rank, world, shape.tokens, cfg.compute_tile.m));
        }
        assert_eq!(rendered(&program), expected, "MoE RS, world {world}");
    }
}

#[test]
fn routed_moe_block_names_render_as_formatted() {
    let shape = small_moe();
    let cfg = OverlapConfig::default();
    let sample = RoutingSampler::new(RoutingProfile::Zipf { s: 1.2 }, 3).sample(
        shape.experts,
        moe::dispatched_rows(&shape),
        0,
    );
    // Skewed and balanced routings, and one that leaves experts idle.
    let mut idle = vec![0; shape.experts];
    idle[1] = moe::dispatched_rows(&shape) / 2;
    idle[6] = moe::dispatched_rows(&shape) - idle[1];
    let samples = [
        sample,
        RoutingSample::balanced(shape.experts, moe::dispatched_rows(&shape)),
        RoutingSample {
            rows_per_expert: idle,
        },
    ];
    for world in worlds() {
        let cost = analytic_cost(&ClusterSpec::h800_node(world));
        for sample in &samples {
            let routing = RoutingTables::from(sample.clone());
            let kernel = moe::ag_group_gemm_kernel(&shape, &cfg, &cost, Some(&routing))
                .expect("routed first half compiles");
            let ag =
                StaticMapping::new(shape.tokens, cfg.comm_tile.m, world, cfg.channels_per_rank);
            let table = routing.first_half(cfg.compute_tile.m);
            let mut expected = Vec::new();
            for rank in 0..world {
                expected.extend(allgather(rank, &ag));
                for (d, entry) in table.entries().iter().enumerate() {
                    expected.push(format!("ggemm/r{rank}/e{}/d{d}", entry.group));
                }
            }
            assert_eq!(
                instantiated(&kernel),
                expected,
                "routed MoE AG, world {world}"
            );

            let kernel = moe::group_gemm_rs_kernel(&shape, &cfg, &cost, Some(&routing))
                .expect("routed second half compiles");
            let mut expected = Vec::new();
            for rank in 0..world {
                for (expert, &rows) in sample.rows_per_expert.iter().enumerate() {
                    if rows > 0 {
                        expected.push(format!("ggemm2/r{rank}/e{expert}"));
                    }
                }
                expected.extend(ring(rank, world, shape.tokens, cfg.compute_tile.m));
            }
            assert_eq!(
                instantiated(&kernel),
                expected,
                "routed MoE RS, world {world}"
            );
        }
    }
}

#[test]
fn attention_block_names_render_as_formatted() {
    let cfg = OverlapConfig::default();
    for world in worlds() {
        let (program, _) = attention::sp_attention_program(4, 64, 4096, world, &cfg);
        let mut expected = Vec::new();
        for rank in 0..world {
            expected.push(format!("agkv/r{rank}"));
            expected
                .extend((0..consumer_count(&program, rank)).map(|b| format!("fa/r{rank}/b{b}")));
        }
        assert_eq!(rendered(&program), expected, "SP attention, world {world}");
    }
}
