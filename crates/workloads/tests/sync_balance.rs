//! Signal balance of every program builder: each wait is met by exactly the
//! notifies that can reach it.
//!
//! A consumer wait on rank `r` blocks until its channel has seen the
//! channel's producer threshold, so the notifies that reach `r` on that
//! channel (a `Local` notify from `r`, an `Owner` notify of a tile `r` owns,
//! a `Broadcast` notify from any rank) must number exactly that threshold:
//! fewer deadlock the wait, more let it pass before the data it guards has
//! landed. A peer wait `PeerWait { slot, expected }` on rank `r` must
//! likewise be met by exactly `expected` `PeerNotify`s addressed to `r` on
//! that slot. This is the exact producer counting the acquire/release rules
//! of Section 4.2 rely on, checked on the programs themselves over a grid of
//! world sizes, tile sizes and channel counts.

use std::collections::HashMap;

use tilelink::ir::{BlockDesc, TileOp, TileProgram};
use tilelink::primitives::NotifyScope;
use tilelink::{CompiledKernel, OverlapConfig, TileMapping, TileShape};
use tilelink_sim::{analytic_cost, ClusterSpec};
use tilelink_workloads::{
    attention, mlp, moe, shapes, RoutingProfile, RoutingSampler, RoutingTables,
};

/// Waits checked in one program, by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Checked {
    consumer_waits: usize,
    peer_waits: usize,
}

/// Asserts that every wait of `program` is met by exactly the notifies that
/// reach it through `mapping`, and returns how many waits it checked.
fn check_balance(what: &str, program: &TileProgram, mapping: &dyn TileMapping) -> Checked {
    let world = program.world_size;
    // Notifies reaching each rank, per channel and per peer slot.
    let mut channel_notifies = vec![vec![0u64; mapping.num_channels()]; world];
    let mut peer_notifies: HashMap<(usize, usize), u64> = HashMap::new();
    for block in &program.blocks {
        for op in &block.ops {
            match *op {
                TileOp::ProducerNotify { tile, scope } => {
                    let channel = mapping.channel_of(tile).unwrap();
                    let reached = match scope {
                        NotifyScope::Local => block.rank..block.rank + 1,
                        NotifyScope::Owner => {
                            let owner = mapping.rank_of(tile).unwrap();
                            owner..owner + 1
                        }
                        NotifyScope::Broadcast => 0..world,
                    };
                    for rank in reached {
                        channel_notifies[rank][channel] += 1;
                    }
                }
                TileOp::PeerNotify { slot, dst_rank } => {
                    *peer_notifies.entry((dst_rank, slot)).or_default() += 1;
                }
                _ => {}
            }
        }
    }
    let mut checked = Checked::default();
    for block in &program.blocks {
        for op in &block.ops {
            match *op {
                TileOp::ConsumerWait { tile } => {
                    let channel = mapping.channel_of(tile).unwrap();
                    assert_eq!(
                        channel_notifies[block.rank][channel],
                        mapping.channel_threshold(channel),
                        "{what}: block {} waits on tile {tile} (channel {channel})",
                        block.name
                    );
                    checked.consumer_waits += 1;
                }
                TileOp::PeerWait { slot, expected } => {
                    let got = peer_notifies.get(&(block.rank, slot)).copied().unwrap_or(0);
                    assert_eq!(
                        got, expected,
                        "{what}: block {} waits for {expected} peer notifies on slot {slot}",
                        block.name
                    );
                    checked.peer_waits += 1;
                }
                _ => {}
            }
        }
    }
    checked
}

/// The grid every builder runs over: world sizes × comm tiles × compute
/// tiles × channels per rank.
fn grid() -> Vec<(usize, OverlapConfig)> {
    let mut out = Vec::new();
    for world in [2, 8, 16] {
        for comm_m in [64, 128, 256] {
            for compute_m in [64, 128] {
                for channels in [1, 4] {
                    let mut cfg = OverlapConfig::default()
                        .with_comm_tile(TileShape::new(comm_m, 128))
                        .with_compute_tile(TileShape::new(compute_m, 128));
                    cfg.channels_per_rank = channels;
                    out.push((world, cfg));
                }
            }
        }
    }
    out
}

/// The blocks of a compiled kernel in block order, its templates
/// instantiated from its table by the walk the timed executor builds its
/// graphs by.
fn instantiated(kernel: &CompiledKernel) -> TileProgram {
    let mut program = TileProgram::new(kernel.name, kernel.world_size);
    let mut buffer = Vec::new();
    let mut blocks = kernel.walk(&mut buffer, |_| true);
    while let Some(block) = blocks.next_block() {
        program.add_block(
            BlockDesc::new(block.name, block.rank, block.role).ops(block.ops.iter().map(|o| o.op)),
        );
    }
    program
}

/// Checks a program with a wait-for-data half only (an AllGather or a host
/// copy feeding its consumers).
fn check_gather(what: &str, program: &TileProgram, mapping: &dyn TileMapping) {
    let checked = check_balance(what, program, mapping);
    assert!(checked.consumer_waits > 0, "{what}: checked no wait");
}

/// Checks a GEMM + ring ReduceScatter program, which has both kinds of wait.
fn check_ring(what: &str, program: &TileProgram, mapping: &dyn TileMapping) {
    let checked = check_balance(what, program, mapping);
    assert!(
        checked.consumer_waits > 0 && checked.peer_waits > 0,
        "{what}: {checked:?}"
    );
}

#[test]
fn every_wait_is_met_by_exactly_the_notifies_that_reach_it() {
    let mlp_shape = &shapes::mlp_shapes()[0];
    let (tokens, hidden, inter) = (mlp_shape.tokens, mlp_shape.hidden, mlp_shape.intermediate);
    let moe_shape = &shapes::moe_shapes()[0];
    let routing: RoutingTables = RoutingSampler::new(RoutingProfile::Zipf { s: 1.2 }, 7)
        .sample(moe_shape.experts, moe::dispatched_rows(moe_shape), 0)
        .into();
    let attn = &shapes::attn_shapes()[0];
    for (world, cfg) in grid() {
        let what = |kernel: &str| format!("{kernel}, world {world}, {cfg:?}");

        let (program, mapping) = mlp::ag_gemm_program(tokens, hidden, inter, world, &cfg);
        check_gather(&what("MLP AG"), &program, &mapping);
        let (program, mapping) = mlp::gemm_rs_program(tokens, hidden, inter, world, &cfg);
        check_ring(&what("MLP RS"), &program, &mapping);

        let (program, mapping) = moe::ag_group_gemm_program(moe_shape, world, &cfg);
        check_gather(&what("MoE AG"), &program, &mapping);
        let (program, mapping) = moe::group_gemm_rs_program(moe_shape, world, &cfg);
        check_ring(&what("MoE RS"), &program, &mapping);

        // The routed halves' Group-GEMM blocks are templates: check the
        // instances a compiled kernel's graphs are built from.
        let cost = analytic_cost(&ClusterSpec::h800_node(world));
        let kernel = moe::ag_group_gemm_kernel(moe_shape, &cfg, &cost, Some(&routing)).unwrap();
        let (_, mapping) = moe::routed_ag_group_gemm_program(moe_shape, world, &cfg);
        check_gather(&what("routed MoE AG"), &instantiated(&kernel), &mapping);
        let kernel = moe::group_gemm_rs_kernel(moe_shape, &cfg, &cost, Some(&routing)).unwrap();
        let (_, mapping) = moe::routed_group_gemm_rs_program(moe_shape, world, &cfg);
        check_ring(&what("routed MoE RS"), &instantiated(&kernel), &mapping);

        let (program, mapping) = attention::sp_attention_program(
            attn.heads,
            attn.head_dim,
            attn.seq_lens[0],
            world,
            &cfg,
        );
        check_gather(&what("SP attention"), &program, &mapping);
    }
}
