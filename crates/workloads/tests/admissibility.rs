//! Branch-and-bound admissibility property suite.
//!
//! The tuner's pruning is only sound if every oracle lower bound *floors* the
//! simulated objective and every bounded evaluation is bit-identical to the
//! unbounded one whenever the cutoff is not hit. These tests drive seeded
//! random constrained sub-spaces of the overlap design space through both
//! cost models (analytic and calibrated) and assert, for each:
//!
//! * (a) every candidate the bounded search pruned or aborted, when force-
//!   simulated unbounded, prices no better than the final winner;
//! * (b) the bounded and unbounded searches return bit-identical winners and
//!   winning makespans;
//! * the raw bound invariant `lower_bound(cfg) <= evaluate(cfg).total_s`
//!   (or the folded objective value) for every candidate in the space, and
//!   that an infinite-cutoff bounded evaluation finishes with exactly that
//!   `total_s`.

use std::collections::HashSet;
use std::sync::Arc;

use tilelink::{CommMapping, OverlapConfig, TileShape};
use tilelink_sim::{analytic_cost, CalibratedCostModel, ClusterSpec, SharedCost};
use tilelink_tune::{
    BoundedEval, CostOracle, Objective, SearchSpace, Strategy, Tuner, RING_REQUIRES_PUSH,
};
use tilelink_workloads::autotune::{MlpOracle, MoeOracle};
use tilelink_workloads::{RoutingProfile, RoutingSpec};

/// Tiny deterministic xorshift so the sub-spaces are seeded and reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Picks a random non-empty subset of `pool`.
    fn subset<T: Copy>(&mut self, pool: &[T]) -> Vec<T> {
        loop {
            let mask = self.next() as usize;
            let picked: Vec<T> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if !picked.is_empty() {
                return picked;
            }
        }
    }
}

/// A random constrained sub-space of the standard axes (always includes the
/// default config's values so the search is never empty).
fn random_space(rng: &mut Rng) -> SearchSpace {
    let compute = rng.subset(&[
        TileShape::new(128, 128),
        TileShape::new(128, 256),
        TileShape::new(256, 256),
    ]);
    let mappings = rng.subset(&[
        CommMapping::CopyEngine,
        CommMapping::Sm { sms: 20 },
        CommMapping::Hybrid { sms: 16 },
    ]);
    // The comm-tile, channel and stage axes stay full-width so exhaustive
    // runs span several incumbent chunks — cutoff-bounded aborts only bite
    // once an incumbent exists.
    SearchSpace::new()
        .with_comm_tiles([TileShape::new(64, 64), TileShape::new(128, 128)])
        .with_compute_tiles(compute)
        .with_mappings(mappings)
        .with_channels([1, 2])
        .with_stages([2, 3, 4])
        .with_constraint(RING_REQUIRES_PUSH)
}

/// Drives one oracle through one sub-space with pruning on and off and checks
/// the full admissibility contract.
fn assert_admissible<O: CostOracle>(oracle: &O, space: &SearchSpace, strategy: Strategy) -> usize {
    // Raw bound invariant plus bounded-evaluation parity at infinite cutoff.
    for cfg in space.candidates(oracle) {
        let report = oracle.evaluate(&cfg).expect("candidate simulates");
        if let Some(lb) = oracle.lower_bound(&cfg) {
            assert!(
                lb <= report.total_s,
                "inadmissible bound {lb} > simulated {} for {cfg:?}",
                report.total_s
            );
        }
        match oracle
            .evaluate_bounded(&cfg, f64::INFINITY)
            .expect("bounded eval succeeds")
        {
            BoundedEval::Finished(total) => assert_eq!(
                total.to_bits(),
                report.total_s.to_bits(),
                "infinite-cutoff evaluation diverged for {cfg:?}"
            ),
            BoundedEval::Exceeded(_) => panic!("infinite cutoff aborted for {cfg:?}"),
        }
    }

    let bounded = Tuner::new(strategy)
        .tune(oracle, space)
        .expect("bounded search succeeds");
    let unbounded = Tuner::new(strategy)
        .with_pruning(false)
        .tune(oracle, space)
        .expect("unbounded search succeeds");

    // (b) bit-identical winners and makespans.
    assert_eq!(bounded.best.config, unbounded.best.config);
    assert_eq!(
        bounded.best.report.total_s.to_bits(),
        unbounded.best.report.total_s.to_bits(),
        "winning makespan changed under pruning"
    );

    // (a) every candidate the bounded search did not rank (bound-pruned or
    // abort-short) force-simulates no better than the winner. Only meaningful
    // for the exhaustive strategy: a beam legitimately never visits parts of
    // the space, pruned or not.
    if matches!(strategy, Strategy::Exhaustive) {
        let ranked: HashSet<OverlapConfig> = bounded.ranked.iter().map(|c| c.config).collect();
        for cfg in space.candidates(oracle) {
            if ranked.contains(&cfg) {
                continue;
            }
            let report = oracle.evaluate(&cfg).expect("pruned candidate simulates");
            assert!(
                report.total_s >= bounded.best.report.total_s,
                "pruned candidate {cfg:?} beats the winner: {} < {}",
                report.total_s,
                bounded.best.report.total_s
            );
        }
    }

    bounded.failed.bound_pruned
}

fn providers(cluster: &ClusterSpec) -> [(&'static str, SharedCost); 2] {
    [
        ("analytic", analytic_cost(cluster)),
        (
            "calibrated",
            Arc::new(CalibratedCostModel::h800_defaults(cluster.clone())),
        ),
    ]
}

#[test]
fn mlp_pruning_is_admissible_across_random_subspaces_and_cost_models() {
    let shape = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let mut rng = Rng(0x1517_5d00_d1ce_d001);
    let mut pruned_total = 0;
    for round in 0..2 {
        let space = random_space(&mut rng);
        for (name, cost) in providers(&cluster) {
            let oracle = MlpOracle::new(shape.clone(), cluster.clone()).with_cost(cost);
            let pruned = assert_admissible(&oracle, &space, Strategy::Exhaustive);
            eprintln!("round {round} ({name}): {pruned} bound-pruned");
            pruned_total += pruned;
        }
    }
    // The bounds must actually bite somewhere across the rounds, or the
    // branch-and-bound machinery is silently inert.
    assert!(pruned_total > 0, "no candidate was ever bound-pruned");
}

#[test]
fn expected_routing_moe_pruning_is_admissible_across_random_subspaces_and_cost_models() {
    // The expected-routing oracle is what every standard MoE tune runs; its
    // two halves share the residual-budget composer with the MLP oracle.
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let mut rng = Rng(0x0e40_e5ca_1ab1_e000);
    let mut pruned_total = 0;
    for round in 0..2 {
        let space = random_space(&mut rng);
        for (name, cost) in providers(&cluster) {
            let oracle = MoeOracle::new(shape.clone(), cluster.clone()).with_cost(cost);
            let pruned = assert_admissible(&oracle, &space, Strategy::Exhaustive);
            eprintln!("round {round} ({name}): {pruned} bound-pruned");
            pruned_total += pruned;
        }
    }
    assert!(pruned_total > 0, "no candidate was ever bound-pruned");
}

#[test]
fn routed_moe_pruning_is_admissible_for_tail_objectives() {
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let space = SearchSpace::new()
        .with_comm_tiles([TileShape::new(128, 128)])
        .with_compute_tiles([TileShape::new(128, 128), TileShape::new(256, 256)])
        .with_mappings([CommMapping::CopyEngine, CommMapping::Sm { sms: 20 }])
        .with_constraint(RING_REQUIRES_PUSH);
    let spec = RoutingSpec {
        samples: 3,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    for objective in [
        Objective::Mean,
        Objective::Percentile(67),
        Objective::WorstCase,
    ] {
        let oracle = MoeOracle::new(shape.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(objective);
        assert_admissible(&oracle, &space, Strategy::Exhaustive);
    }
}

#[test]
fn beam_search_winners_survive_pruning_bit_for_bit() {
    let shape = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let mut rng = Rng(0xbeef_cafe_f00d_0005);
    let space = random_space(&mut rng);
    let oracle = MlpOracle::new(shape, cluster);
    assert_admissible(
        &oracle,
        &space,
        Strategy::Beam {
            width: 2,
            sweeps: 2,
        },
    );
}
