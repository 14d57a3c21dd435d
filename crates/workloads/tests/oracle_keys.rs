//! The tuning cache's keys of the real layer oracles, pinned as text.
//!
//! The persistent TSV at `TuneCache::default_path()` and the tuning daemon's
//! warm map are keyed by `TuneCache::oracle_prefix` of the oracle that
//! `WorkloadSpec::oracle` builds: `workload|cluster|cost revision|objective`.
//! A key that changes text silently orphans every entry tuned under the old
//! one, so this file pins the prefix of each Table 4 layer, unrouted and
//! routed, under both cost models on a one-node and a two-node cluster.

use tilelink_sim::{ClusterSpec, CostModelSpec, GpuSpec};
use tilelink_tune::{CostOracle, Objective, TuneCache};
use tilelink_workloads::shapes::{mlp_shapes, moe_shapes};
use tilelink_workloads::{RoutingProfile, RoutingSpec, WorkloadSpec};

/// `TuneCache::oracle_prefix` of an oracle, whether it is held as a trait
/// object or as a concrete type.
trait Prefix {
    fn prefix(&self) -> String;
}

impl Prefix for dyn CostOracle {
    fn prefix(&self) -> String {
        TuneCache::oracle_prefix(self)
    }
}

impl<O: CostOracle> Prefix for O {
    fn prefix(&self) -> String {
        TuneCache::oracle_prefix(self)
    }
}

/// The prefixes, in the order the test walks them: per cluster and cost
/// model, MLP-1..6, MoE-1..6 with expected routing, MoE-3 routed at the
/// default `zipf:1.2` spec, and MoE-3 routed at `samples=3 seed=5` for p95.
const PINNED: &str = "\
mlp/S8192-H4096-I11008|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
mlp/S8192-H4096-I14336|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
mlp/S8192-H3584-I14336|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
mlp/S8192-H4608-I36864|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
mlp/S8192-H8192-I28672|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
mlp/S8192-H8192-I29568|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H2048-I1536-E8-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K5|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H4096-I2048-E8-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H4096-I2048-E32-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H4096-I2048-E32-K5|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=8,seed=2115101966|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=3,seed=5|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|analytic-v2|p95
mlp/S8192-H4096-I11008|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
mlp/S8192-H4096-I14336|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
mlp/S8192-H3584-I14336|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
mlp/S8192-H4608-I36864|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
mlp/S8192-H8192-I28672|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
mlp/S8192-H8192-I29568|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E8-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K5|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H4096-I2048-E8-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H4096-I2048-E32-K2|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H4096-I2048-E32-K5|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=8,seed=2115101966|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=3,seed=5|H800-sm132-t989-hbm3350-nv200-ib50-dma4-kl5.0-hs20.0x8x1|calibrated-c160e76db1a2f187|p95
mlp/S8192-H4096-I11008|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
mlp/S8192-H4096-I14336|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
mlp/S8192-H3584-I14336|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
mlp/S8192-H4608-I36864|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
mlp/S8192-H8192-I28672|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
mlp/S8192-H8192-I29568|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H2048-I1536-E8-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K5|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H4096-I2048-E8-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H4096-I2048-E32-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H4096-I2048-E32-K5|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=8,seed=2115101966|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=3,seed=5|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|analytic-v2|p95
mlp/S8192-H4096-I11008|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
mlp/S8192-H4096-I14336|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
mlp/S8192-H3584-I14336|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
mlp/S8192-H4608-I36864|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
mlp/S8192-H8192-I28672|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
mlp/S8192-H8192-I29568|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E8-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K5|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H4096-I2048-E8-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H4096-I2048-E32-K2|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H4096-I2048-E32-K5|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=8,seed=2115101966|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|mean
moe/S8192-H2048-I1536-E32-K5/rt=zipf:1.2,n=3,seed=5|H100-sm132-t989-hbm3350-nv450-ib50-dma4-kl5.0-hs20.0x4x2|calibrated-c160e76db1a2f187|p95";

/// Every pinned workload with the objective its daemon request names.
fn workloads() -> Vec<(WorkloadSpec, Objective)> {
    let zipf = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    let moe3 = moe_shapes()[2].clone();
    let mut specs: Vec<_> = mlp_shapes()
        .into_iter()
        .map(|shape| (WorkloadSpec::Mlp(shape), Objective::Mean))
        .collect();
    specs.extend(moe_shapes().into_iter().map(|shape| {
        let spec = WorkloadSpec::Moe {
            shape,
            routing: None,
        };
        (spec, Objective::Mean)
    }));
    let routed = |routing| WorkloadSpec::Moe {
        shape: moe3.clone(),
        routing: Some(routing),
    };
    specs.push((routed(zipf), Objective::Mean));
    let small = RoutingSpec {
        samples: 3,
        seed: 5,
        ..zipf
    };
    specs.push((routed(small), Objective::Percentile(95)));
    specs
}

#[test]
fn layer_oracle_prefixes_are_pinned() {
    let mut keys = Vec::new();
    for cluster in [
        ClusterSpec::h800_node(8),
        ClusterSpec::new(GpuSpec::h100(), 4, 2),
    ] {
        for model in [
            CostModelSpec::Analytic,
            CostModelSpec::Calibrated { path: None },
        ] {
            let cost = model.build(&cluster).expect("built-in cost model");
            for (spec, objective) in workloads() {
                keys.push(spec.oracle(cost.clone(), objective).prefix());
            }
        }
    }
    let pinned: Vec<_> = PINNED.lines().collect();
    assert_eq!(keys.len(), pinned.len());
    for (key, pinned) in keys.iter().zip(pinned) {
        assert_eq!(key, pinned);
    }
}

/// An MLP layer is deterministic, so its key ignores the requested
/// objective: `TUNE workload=MLP-1 objective=p95` shares the mean entry.
#[test]
fn mlp_keys_ignore_the_objective() {
    let cost = CostModelSpec::Analytic
        .build(&ClusterSpec::h800_node(8))
        .expect("analytic cost model");
    let spec = WorkloadSpec::Mlp(mlp_shapes()[0].clone());
    let mean = spec.oracle(cost.clone(), Objective::Mean).prefix();
    for objective in [Objective::Percentile(95), Objective::WorstCase] {
        assert_eq!(spec.oracle(cost.clone(), objective).prefix(), mean);
    }
}
