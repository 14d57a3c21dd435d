//! The routed MoE halves compile once per config and bind their routing as
//! a table; the graphs they simulate must be the ones the per-sample
//! builders they replaced laid out.
//!
//! [`reference`] keeps those builders as they were: one program per sampled
//! routing, its Group-GEMM blocks laid out through a filled
//! `DynamicMapping`, compiled cold. Over MoE-1 and MoE-3 at world 8 and
//! MoE-3 at world 2, the 8 default `zipf:1.2` samples and one with every row
//! on one expert, every distinct first-half (comm rows, compute rows) pair
//! and second-half compute rows of `SearchSpace::standard()`, on a
//! copy-engine and an SM-port lane, the routed kernel must equal its
//! reference block for block (lowered ops included), in its plan, and in
//! its labelled task graph (tasks, labels, edge order). One config per lane
//! is also priced by `simulate_report` under both cost models, bit for bit.

use std::collections::BTreeSet;
use std::sync::Arc;

use tilelink::exec::{simulate_report, task_graph};
use tilelink::ir::BlockRole;
use tilelink::passes::LoweredOp;
use tilelink::{CacheSite, CommMapping, CompiledKernel, Compiler, OverlapConfig, TileShape};
use tilelink_sim::{analytic_cost, CalibratedCostModel, ClusterSpec, SharedCost};
use tilelink_tune::SearchSpace;
use tilelink_workloads::moe::{self, RoutingTables};
use tilelink_workloads::shapes::moe_shapes;
use tilelink_workloads::{MoeShape, RoutingProfile, RoutingSample, RoutingSpec, WorkloadSpec};

/// The routed builders as they laid out one sampled routing per program.
mod reference {
    use std::ops::Range;

    use tilelink::ir::{
        BlockDesc, BlockRole, ComputeKind, NamePattern, Symbol, TileOp, TileProgram,
    };
    use tilelink::primitives::{NotifyScope, PushTarget};
    use tilelink::{DynamicMapping, OverlapConfig, StaticMapping, TileMapping};
    use tilelink_workloads::{MoeShape, RoutingSample};

    const BYTES_PER_ELEM: f64 = 2.0;
    const DISPATCH_TILES_PER_BLOCK: usize = 8;

    fn allgather_blocks(
        program: &mut TileProgram,
        rank: usize,
        mapping: &StaticMapping,
        hidden: usize,
    ) {
        let gathered = Symbol::intern("gathered");
        let ag = NamePattern::new("ag/r{}/b{}");
        let bytes = mapping.tile_rows() as f64 * hidden as f64 * BYTES_PER_ELEM;
        for (i, tile) in mapping.tiles_of_rank(rank).into_iter().enumerate() {
            program.add_block(
                BlockDesc::new(ag.name([rank, i]), rank, BlockRole::Producer)
                    .op(TileOp::PushTile {
                        buffer: gathered,
                        bytes,
                        tile,
                        target: PushTarget::Broadcast,
                    })
                    .op(TileOp::ProducerNotify {
                        tile,
                        scope: NotifyScope::Broadcast,
                    }),
            );
        }
    }

    fn ring_reduce_scatter_blocks(
        program: &mut TileProgram,
        rank: usize,
        world: usize,
        tokens: usize,
        tile_m: usize,
        hidden: usize,
    ) {
        let gemm_out = Symbol::intern("gemm_out");
        let out = Symbol::intern("out");
        let partial = Symbol::intern("partial");
        let rs = NamePattern::new("rs/r{}/t{}");
        let tiles_per_segment = ((tokens / world) / tile_m).max(1);
        let bytes = tile_m as f64 * hidden as f64 * BYTES_PER_ELEM;
        let to_rank = (rank + world - 1) % world;
        for tid_m in 0..tiles_per_segment {
            let mut block = BlockDesc::new(rs.name([rank, tid_m]), rank, BlockRole::Producer);
            for stage in 0..world {
                let seg = (rank + stage + 1) % world;
                let tile_global = seg * tiles_per_segment + tid_m;
                block = block
                    .op(TileOp::ConsumerWait { tile: tile_global })
                    .op(TileOp::LoadTile {
                        buffer: gemm_out,
                        bytes,
                        tile: Some(tile_global),
                    });
                if stage != 0 {
                    block = block
                        .op(TileOp::PeerWait {
                            slot: tile_global,
                            expected: 1,
                        })
                        .op(TileOp::Compute(ComputeKind::Reduction {
                            elems: tile_m * hidden,
                        }));
                }
                if stage == world - 1 {
                    block = block.op(TileOp::StoreTile {
                        buffer: out,
                        bytes,
                        tile: None,
                    });
                } else {
                    block = block
                        .op(TileOp::PushTile {
                            buffer: partial,
                            bytes,
                            tile: tile_global,
                            target: PushTarget::Rank(to_rank),
                        })
                        .op(TileOp::PeerNotify {
                            slot: tile_global,
                            dst_rank: to_rank,
                        });
                }
            }
            program.add_block(block);
        }
    }

    pub fn routed_ag_group_gemm_program(
        shape: &MoeShape,
        world: usize,
        cfg: &OverlapConfig,
        sample: &RoutingSample,
    ) -> tilelink::Result<(TileProgram, DynamicMapping)> {
        let m = shape.tokens;
        let h = shape.hidden;
        let i_local = shape.intermediate / world;
        let ag = StaticMapping::new(m, cfg.comm_tile.m, world, cfg.channels_per_rank);
        let ag_tiles = ag.num_tiles();
        let ag_channels = ag.num_channels();
        let rows_per_block_target = (cfg.compute_tile.m * DISPATCH_TILES_PER_BLOCK).max(1);
        let mut block_rows: Vec<Range<usize>> = Vec::new();
        let mut block_expert: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        for (expert, &rows_e) in sample.rows_per_expert.iter().enumerate() {
            if rows_e == 0 {
                continue;
            }
            let blocks_e = rows_e.div_ceil(rows_per_block_target);
            let per_block = rows_e.div_ceil(blocks_e);
            let expert_end = cursor + rows_e;
            while cursor < expert_end {
                let end = (cursor + per_block).min(expert_end);
                block_rows.push(cursor..end);
                block_expert.push(expert);
                cursor = end;
            }
        }
        let dispatch_tiles = block_rows.len();
        let dyn_map = DynamicMapping::new(
            ag_tiles + dispatch_tiles.max(1),
            ag_channels + cfg.channels_per_rank,
        );
        for t in 0..ag_tiles {
            dyn_map.fill(t, ag.rows_of(t)?, ag.rank_of(t)?, ag.channel_of(t)?)?;
        }
        for (d, rows) in block_rows.iter().enumerate() {
            dyn_map.fill(
                ag_tiles + d,
                m + rows.start..m + rows.end,
                block_expert[d],
                ag_channels + d % cfg.channels_per_rank,
            )?;
        }
        let gathered = Symbol::intern("gathered");
        let expert_out = Symbol::intern("expert_out");
        let ggemm = NamePattern::new("ggemm/r{}/e{}/d{}");
        let mut program = TileProgram::new("moe_routed_ag_group_gemm", world);
        for rank in 0..world {
            allgather_blocks(&mut program, rank, &ag, h);
            for d in 0..dispatch_tiles {
                let rows = dyn_map.rows_of(ag_tiles + d)?;
                let expert = dyn_map.rank_of(ag_tiles + d)?;
                let rows_blk = rows.len();
                let mut block =
                    BlockDesc::new(ggemm.name([rank, expert, d]), rank, BlockRole::Consumer);
                let wait_hi = (ag_tiles * (d + 1) / dispatch_tiles).min(ag_tiles);
                for tile in (ag_tiles * d / dispatch_tiles)..wait_hi {
                    block = block.op(TileOp::ConsumerWait { tile });
                }
                block = block
                    .op(TileOp::LoadTile {
                        buffer: gathered,
                        bytes: rows_blk as f64 * h as f64 * BYTES_PER_ELEM,
                        tile: None,
                    })
                    .op(TileOp::Compute(ComputeKind::MatmulTile {
                        m: rows_blk,
                        n: i_local,
                        k: h,
                    }))
                    .op(TileOp::StoreTile {
                        buffer: expert_out,
                        bytes: rows_blk as f64 * i_local as f64 * BYTES_PER_ELEM,
                        tile: Some(ag_tiles + d),
                    });
                program.add_block(block);
            }
        }
        Ok((program, dyn_map))
    }

    pub fn routed_group_gemm_rs_program(
        shape: &MoeShape,
        world: usize,
        cfg: &OverlapConfig,
        sample: &RoutingSample,
    ) -> (TileProgram, StaticMapping) {
        let m = shape.tokens;
        let h = shape.hidden;
        let i_local = shape.intermediate / world;
        let rows_total = sample.total_rows().max(1);
        let tile_m = cfg.compute_tile.m;
        let mapping = StaticMapping::new(m, tile_m, world, cfg.channels_per_rank);
        let num_tiles = mapping.num_tiles();
        let tile_out_bytes = tile_m as f64 * h as f64 * BYTES_PER_ELEM;
        let expert_act = Symbol::intern("expert_act");
        let gemm_out = Symbol::intern("gemm_out");
        let ggemm2 = NamePattern::new("ggemm2/r{}/e{}");
        let mut program = TileProgram::new("moe_routed_group_gemm_rs", world);
        for rank in 0..world {
            let mut cumulative = 0usize;
            for (expert, &rows_e) in sample.rows_per_expert.iter().enumerate() {
                if rows_e == 0 {
                    continue;
                }
                let tile_lo = num_tiles * cumulative / rows_total;
                cumulative += rows_e;
                let tile_hi = num_tiles * cumulative / rows_total;
                let mut block =
                    BlockDesc::new(ggemm2.name([rank, expert]), rank, BlockRole::Consumer)
                        .op(TileOp::LoadTile {
                            buffer: expert_act,
                            bytes: rows_e as f64 * i_local as f64 * BYTES_PER_ELEM,
                            tile: None,
                        })
                        .op(TileOp::Compute(ComputeKind::MatmulTile {
                            m: rows_e,
                            n: h,
                            k: i_local,
                        }))
                        .op(TileOp::Compute(ComputeKind::Elementwise {
                            elems: rows_e * h,
                        }));
                for tile in tile_lo..tile_hi {
                    block = block
                        .op(TileOp::StoreTile {
                            buffer: gemm_out,
                            bytes: tile_out_bytes,
                            tile: Some(tile),
                        })
                        .op(TileOp::ProducerNotify {
                            tile,
                            scope: NotifyScope::Local,
                        });
                }
                program.add_block(block);
            }
            ring_reduce_scatter_blocks(&mut program, rank, world, m, tile_m, h);
        }
        (program, mapping)
    }
}

/// A kernel's blocks in block order, as the timed executor walks them.
type Blocks = Vec<(String, usize, BlockRole, Vec<LoweredOp>)>;

fn blocks(kernel: &CompiledKernel) -> Blocks {
    let (mut out, mut buffer) = (Vec::new(), Vec::new());
    let mut blocks = kernel.walk(&mut buffer, |_| true);
    while let Some(b) = blocks.next_block() {
        out.push((b.name.to_string(), b.rank, b.role, b.ops.to_vec()));
    }
    out
}

/// The reference kernel, compiled cold for the config `kernel` compiled
/// with (the second half forces its lane).
fn reference(
    half: Half,
    shape: &MoeShape,
    kernel: &CompiledKernel,
    sample: &RoutingSample,
    cost: &SharedCost,
) -> CompiledKernel {
    let world = cost.cluster().world_size();
    let compiler = Compiler::new(kernel.config, cost);
    let site = CacheSite::new("test.routed_parity.reference", []);
    match half {
        Half::First => {
            let (program, mapping) =
                reference::routed_ag_group_gemm_program(shape, world, &kernel.config, sample)
                    .expect("reference first half builds");
            compiler.compile(site, &program, &mapping)
        }
        Half::Second => {
            let (program, mapping) =
                reference::routed_group_gemm_rs_program(shape, world, &kernel.config, sample);
            compiler.compile(site, &program, &mapping)
        }
    }
    .expect("reference compiles")
}

#[derive(Debug, Clone, Copy)]
enum Half {
    First,
    Second,
}

/// The routed `half` of `shape` for `cfg`: through its kernel entry, or,
/// for a second half on another lane than the one its entry forces,
/// through the cold twin with `cfg`'s lane.
fn routed(
    half: Half,
    shape: &MoeShape,
    cfg: &OverlapConfig,
    routing: &RoutingTables,
    cost: &SharedCost,
) -> CompiledKernel {
    match half {
        Half::First => moe::ag_group_gemm_kernel(shape, cfg, cost, Some(routing)),
        Half::Second if cfg.comm_mapping == CommMapping::CopyEngine => {
            moe::group_gemm_rs_kernel(shape, cfg, cost, Some(routing))
        }
        Half::Second => {
            let world = cost.cluster().world_size();
            let (program, mapping) = moe::routed_group_gemm_rs_program(shape, world, cfg);
            Compiler::new(*cfg, cost).compile_with_table(
                CacheSite::new("test.routed_parity.second", []),
                &program,
                &mapping,
                &routing.second_half(),
            )
        }
    }
    .unwrap_or_else(|e| panic!("routed {half:?} {cfg:?}: {e}"))
}

/// The distinct (comm rows, compute rows, channels) a half's builder reads
/// over the standard space.
fn builder_inputs(shape: &MoeShape, cost: &SharedCost, half: Half) -> Vec<OverlapConfig> {
    let oracle = WorkloadSpec::from(shape.clone()).oracle(cost.clone(), Default::default());
    let mut seen = BTreeSet::new();
    SearchSpace::standard()
        .candidates(&oracle)
        .into_iter()
        .filter(|c| {
            let comm_m = match half {
                Half::First => c.comm_tile.m,
                Half::Second => 0,
            };
            seen.insert((comm_m, c.compute_tile.m, c.channels_per_rank))
        })
        .collect()
}

fn samples(shape: &MoeShape) -> Vec<RoutingSample> {
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    let mut samples = spec.sampler().samples_for(shape, spec.samples);
    let mut all_on_one = vec![0; shape.experts];
    all_on_one[shape.experts / 2] = moe::dispatched_rows(shape);
    samples.push(RoutingSample {
        rows_per_expert: all_on_one,
    });
    samples
}

#[test]
fn routed_kernels_lay_out_what_the_per_sample_builders_did() {
    let shapes = moe_shapes();
    let lanes = [CommMapping::CopyEngine, CommMapping::Sm { sms: 20 }];
    let mut compared = 0;
    for (shape, world) in [(&shapes[0], 8), (&shapes[2], 8), (&shapes[2], 2)] {
        let cluster = ClusterSpec::h800_node(world);
        let costs: [SharedCost; 2] = [
            analytic_cost(&cluster),
            Arc::new(CalibratedCostModel::h800_defaults(cluster.clone())),
        ];
        let samples = samples(shape);
        let routings: Vec<RoutingTables> = samples.iter().cloned().map(Into::into).collect();
        for half in [Half::First, Half::Second] {
            for (i, base) in builder_inputs(shape, &costs[0], half).iter().enumerate() {
                for lane in lanes {
                    let cfg = base.with_comm_mapping(lane);
                    for (sample, routing) in samples.iter().zip(&routings) {
                        let ctx =
                            format!("{} world {world} {half:?} {cfg:?} {sample:?}", shape.name);
                        let kernel = routed(half, shape, &cfg, routing, &costs[0]);
                        let expected = reference(half, shape, &kernel, sample, &costs[0]);
                        assert_eq!(kernel.plan, expected.plan, "plan: {ctx}");
                        assert_eq!(kernel.sms_per_comm_block, expected.sms_per_comm_block);
                        assert_eq!(kernel.rank_comm_bytes, expected.rank_comm_bytes);
                        assert!(blocks(&kernel) == blocks(&expected), "blocks: {ctx}");
                        assert!(
                            task_graph(&kernel, &cluster) == task_graph(&expected, &cluster),
                            "task graph: {ctx}"
                        );
                        compared += 1;
                    }
                    // One config per lane (and the skewed sample) priced
                    // under both cost models.
                    if i > 0 {
                        continue;
                    }
                    for cost in &costs {
                        let kernel = routed(half, shape, &cfg, routings.last().unwrap(), cost);
                        let expected =
                            reference(half, shape, &kernel, samples.last().unwrap(), cost);
                        let bits = |k: &CompiledKernel| {
                            let r = simulate_report(k, cost).expect("priced");
                            [r.total_s, r.comm_only_s, r.comp_only_s].map(f64::to_bits)
                        };
                        assert_eq!(
                            bits(&kernel),
                            bits(&expected),
                            "{cfg:?} {}",
                            cost.revision()
                        );
                    }
                }
            }
        }
        // Samples share the routed programs, not the kernels' keys.
        let cfg = OverlapConfig::default()
            .with_compute_tile(TileShape::new(128, 128))
            .with_comm_mapping(CommMapping::CopyEngine);
        for half in [Half::First, Half::Second] {
            let [a, b] =
                [&routings[0], &routings[1]].map(|r| routed(half, shape, &cfg, r, &costs[0]));
            assert_eq!(a.key.site(), b.key.site(), "{half:?}");
            assert_ne!(a.key, b.key, "{half:?}");
            assert!(Arc::ptr_eq(&a.lowered, &b.lowered), "{half:?}");
        }
    }
    // 3 layers × (6 first-half + 2 second-half builder inputs) × 2 lanes ×
    // 9 samples.
    assert_eq!(compared, 3 * 8 * 2 * 9);
}
