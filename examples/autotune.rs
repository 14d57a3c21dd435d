//! End-to-end autotuning demo: search the overlap design space for the MLP-1
//! layer on a simulated 8×H800 node instead of replaying the hand-picked
//! defaults.
//!
//! Run with `cargo run --release --example autotune`.
//!
//! Pass `--cost-model {analytic|calibrated[:path]}` to pick the cost provider
//! the candidates are priced with; the provider's revision is part of the
//! tuning-cache key, so analytic and calibrated results never alias.
//!
//! Pass `--routing {uniform|zipf:<s>|hot:<k>}` (optionally with
//! `--objective {mean|p<1-99>|worst}`) to additionally run a
//! routing-distribution-aware MoE search: MoE-1 is tuned once for the
//! expected uniform routing and once over sampled routings for the chosen
//! objective, and both winners are printed side by side.

use tilelink::OverlapConfig;
use tilelink_bench::cli::{self, Arity};
use tilelink_sim::{ClusterSpec, CostModelSpec};
use tilelink_tune::{CostOracle, Objective, SearchSpace, Strategy, Tuner};
use tilelink_workloads::autotune::{self, TuneOptions};
use tilelink_workloads::moe::RoutingProfile;
use tilelink_workloads::{shapes, RoutingSpec, WorkloadSpec};

fn main() {
    let cluster = ClusterSpec::h800_node(8);
    let known = [
        ("--cost-model", Arity::Value),
        ("--routing", Arity::Value),
        ("--objective", Arity::Value),
    ];
    let (spec, routing, objective) = cli::parse(std::env::args().skip(1), &known)
        .and_then(|p| {
            Ok((
                p.parse::<CostModelSpec>("--cost-model")?
                    .unwrap_or_default(),
                p.parse::<RoutingProfile>("--routing")?,
                p.parse::<Objective>("--objective")?
                    .unwrap_or(Objective::Mean),
            ))
        })
        .unwrap_or_else(|e| cli::exit_usage(&e));
    let cost = spec
        .build(&cluster)
        .unwrap_or_else(|e| panic!("cannot build cost model {spec}: {e}"));
    let shape = shapes::mlp_shapes()[0].clone();
    println!(
        "tuning {} (S={} H={} I={}) on 8xH800 with the {} cost model (revision {})...\n",
        shape.name,
        shape.tokens,
        shape.hidden,
        shape.intermediate,
        spec,
        cost.revision()
    );

    // What the hand-picked default costs.
    let oracle = WorkloadSpec::Mlp(shape.clone()).oracle(cost.clone(), Objective::Mean);
    let default_report = oracle
        .evaluate(&OverlapConfig::default())
        .expect("default config evaluates");
    println!("default config: {default_report}");

    // Beam search over the standard space (the high-level path).
    let opts = TuneOptions::default().with_cost(cost.clone());
    let tuned = autotune::tuned_full_mlp(&shape, &cluster, &opts).expect("beam search succeeds");
    println!("\nbeam search ({} evaluations):", tuned.search.evaluations);
    println!("tuned config:   {}", tuned.layer);
    println!("config:         {}", tuned.config.cache_key());
    println!(
        "speedup over default: {:.2}x",
        default_report.total_s / tuned.layer.total_s
    );

    // The low-level path: a custom space searched exhaustively, with a
    // cross-axis constraint pruning ring+pull pairs at enumeration time.
    let space = SearchSpace::new()
        .with_comm_tiles([
            tilelink::TileShape::new(128, 128),
            tilelink::TileShape::new(256, 128),
        ])
        .with_compute_tiles([
            tilelink::TileShape::new(128, 256),
            tilelink::TileShape::new(256, 256),
        ])
        .with_mappings([
            tilelink::CommMapping::CopyEngine,
            tilelink::CommMapping::Sm { sms: 20 },
            tilelink::CommMapping::Hybrid { sms: 20 },
        ])
        .with_stages([2, 3])
        .with_constraint(tilelink_tune::RING_REQUIRES_PUSH);
    let report = Tuner::new(Strategy::Exhaustive)
        .tune(&oracle, &space)
        .expect("exhaustive search succeeds");
    println!(
        "\nexhaustive search over a custom {}-point space:",
        space.len_unpruned()
    );
    print!("{}", report.summary(5));

    // Routing-distribution-aware MoE search: tune MoE-1 for the expected
    // uniform routing and for the sampled distribution, side by side.
    // `--objective` without `--routing` implies sampled uniform routing.
    let Some(spec) = RoutingSpec::for_objective(routing, objective) else {
        return;
    };
    let profile = spec.profile;
    let moe_shape = shapes::moe_shapes()[0].clone();
    let moe_opts = TuneOptions::default().with_cost(cost.clone());
    println!(
        "\ntuning {} under routing {profile}, objective {objective}...",
        moe_shape.name
    );
    let mean_tuned =
        autotune::tuned_full_moe(&moe_shape, &cluster, &moe_opts).expect("mean search succeeds");
    let routed_opts = moe_opts.with_routing(spec).with_objective(objective);
    let routed = autotune::tuned_full_moe(&moe_shape, &cluster, &routed_opts)
        .expect("routed search succeeds");
    println!(
        "mean/uniform winner: {}  ({})",
        mean_tuned.config.cache_key(),
        mean_tuned.layer
    );
    println!(
        "{profile}/{objective} winner:  {}  ({})",
        routed.config.cache_key(),
        routed.layer
    );
    if routed.config == mean_tuned.config {
        println!("the sampled distribution keeps the mean-tuned config");
    } else {
        println!("the sampled distribution picks a different config");
    }
}
