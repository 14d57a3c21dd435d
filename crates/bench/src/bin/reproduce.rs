//! Prints every table and figure of the paper's evaluation from the simulated
//! cluster. Run with `cargo run -p tilelink-bench --bin reproduce --release`.
//!
//! Flags (combine freely; no flags prints everything):
//! `--table2 --shapes --fig8 --fig9 --fig10 --fig11 --ablation`
//! Each argument may appear once, and the command line is checked before
//! anything is printed: an unknown argument, a missing value, a value that
//! is itself a flag, a repeated argument, `--quick` with a section other
//! than `--tune`, or `--routing`/`--objective`/`--verbose` without `--tune`
//! exits 2.
//!
//! `--quick` prints a fast smoke subset (shapes + Table 2) — used by CI to
//! keep this binary from rotting.
//!
//! `--cost-model {analytic|calibrated[:path]}` selects the cost provider the
//! simulator prices transfers with: the default `analytic` model reproduces
//! the historical figures; `calibrated` layers the α/β + achieved-bandwidth
//! table (built-in H800 defaults, or a TSV you measured) over it, repricing
//! baselines and TileLink kernels consistently. The provider's revision is
//! folded into the persistent tuning-cache key, so `--tune` results obtained
//! under different cost models never alias.
//!
//! `--tune` additionally runs the `tilelink-tune` design-space search on the
//! Figure 8 MLP and Figure 9 MoE shapes and prints tuned-vs-default speedups.
//! It is opt-in (not part of the no-flag default) because a cold search
//! compiles and simulates its candidate kernels (about 30 simulations per
//! shape on a traced `tune-cold` run of tunebench); a rerun answers every
//! ranked candidate from the persistent tuning cache and re-prices only the
//! candidates branch-and-bound disposed of. Combined with `--fig11`
//! (`--fig11 --tune`) the end-to-end rows gain a third, tuned-TileLink column
//! whose per-layer configs come from the same search and cache.
//!
//! `--serve` runs a small smoke of the `tilelink-serve` tuning daemon: boots
//! it on an ephemeral port, then exercises PING, a cold search, a warm hit
//! and a concurrent dedup volley through real client connections, and checks
//! the counters its `STATS` reply reports. Like `--tune` it is opt-in (not
//! part of the no-flag default).
//!
//! `--routing {uniform|zipf:<s>|hot:<k>}` and `--objective {mean|p<1-99>|worst}`
//! make the MoE part of `--tune` routing-distribution-aware: candidates are
//! priced over sampled routings through the dynamic tile mapping and the
//! search minimises the chosen statistic (e.g. the p95 makespan) instead of
//! the expected-routing mean. The report prints the mean/uniform-tuned and the
//! skew-tuned winner side by side per Figure 9 shape. `--quick --tune` runs a
//! reduced smoke version of the same comparison (used by CI).
//!
//! Observability (combine with any of the above, including `--quick`):
//!
//! * `--profile[=<path>]` enables the `tilelink-probe` span profiler for the
//!   whole run and prints a per-phase wall-time table (count, total, mean,
//!   p95, max, self-minus-children) on exit; with `=<path>` it also writes
//!   the report plus the metrics-registry snapshot as JSON.
//! * `--trace-out <dir>` simulates the three benchmark graphs and writes one
//!   Chrome `trace_event` JSON per graph into `<dir>` (ranks as processes,
//!   resource lanes as threads — open in Perfetto or `chrome://tracing`),
//!   printing each trace's utilisation/overlap summary. Combined with
//!   `--profile` it also writes `host.trace.json` with the host-side spans.
//! * `--verbose` (requires `--tune`) prints per-beam-round search progress
//!   (round, best-so-far, evaluations) to stderr while tuning.

use tilelink_bench::cli::{self, Arity};
use tilelink_bench::{
    benchmark_graphs, cost_for, default_cluster, fig10, fig11, fig11_tuned, fig8, fig9, geomean,
    table2, MlpPanel, MoePanel,
};
use tilelink_sim::{ClusterSpec, CostModelSpec, SharedCost};
use tilelink_tune::{Objective, SearchExecutor, TuneCache};
use tilelink_workloads::moe::RoutingProfile;
use tilelink_workloads::{shapes, RoutingSpec, TuneOptions};

/// Every section flag `reproduce` knows. `--tune` and `--serve` are opt-in:
/// the no-flag default run leaves them out.
const SECTIONS: [&str; 9] = [
    "--shapes",
    "--table2",
    "--fig8",
    "--fig9",
    "--fig10",
    "--fig11",
    "--ablation",
    "--tune",
    "--serve",
];

/// The options besides the section flags.
const OPTIONS: [(&str, Arity); 7] = [
    ("--quick", Arity::Flag),
    ("--verbose", Arity::Flag),
    ("--profile", Arity::OptionalValue),
    ("--cost-model", Arity::Value),
    ("--routing", Arity::Value),
    ("--objective", Arity::Value),
    ("--trace-out", Arity::Value),
];

/// A parsed `reproduce` command line.
struct Args {
    /// The section flags given; none selects every default section.
    sections: Vec<&'static str>,
    quick: bool,
    verbose: bool,
    cost: CostModelSpec,
    routing: Option<RoutingSpec>,
    objective: Objective,
    /// `--profile`: `Some(None)` for the bare flag (table on stdout only),
    /// `Some(Some(path))` when a JSON report was also requested.
    profile: Option<Option<String>>,
    trace_out: Option<String>,
}

impl Args {
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let known: Vec<(&str, Arity)> = SECTIONS
            .iter()
            .map(|&s| (s, Arity::Flag))
            .chain(OPTIONS)
            .collect();
        let p = cli::parse(argv, &known)?;
        let sections: Vec<&'static str> = p.names().filter(|n| SECTIONS.contains(n)).collect();
        // `--quick` replaces section selection entirely; combining it with
        // section flags would silently drop them. `--tune` is the one
        // exception: `--quick --tune` runs a reduced tuning smoke (the CI
        // entry point for the routing-aware search).
        if p.has("--quick") {
            if let Some(flag) = sections.iter().find(|&&f| f != "--tune") {
                return Err(format!("--quick cannot be combined with {flag}"));
            }
        }
        // These only change the tuning pass; accepting them without `--tune`
        // would silently drop them.
        for option in ["--routing", "--objective", "--verbose"] {
            if p.has(option) && !p.has("--tune") {
                return Err(format!("{option} requires --tune"));
            }
        }
        // `--objective` without `--routing` implies sampled uniform routing
        // (a percentile needs a distribution to take the percentile of).
        let objective = p.parse("--objective")?.unwrap_or(Objective::Mean);
        let routing = match (p.parse::<RoutingProfile>("--routing")?, objective) {
            (Some(profile), _) => Some(RoutingSpec::new(profile)),
            (None, Objective::Mean) => None,
            (None, _) => Some(RoutingSpec::new(RoutingProfile::Uniform)),
        };
        Ok(Self {
            sections,
            quick: p.has("--quick"),
            verbose: p.has("--verbose"),
            cost: p.parse("--cost-model")?.unwrap_or_default(),
            routing,
            objective,
            profile: p
                .has("--profile")
                .then(|| p.value("--profile").map(String::from)),
            trace_out: p.value("--trace-out").map(String::from),
        })
    }

    /// Whether a default section runs: no section flag means all of them.
    fn wants(&self, section: &str) -> bool {
        self.sections.is_empty() || self.has(section)
    }

    /// Whether a section flag was given (the opt-in `--tune` and `--serve`).
    fn has(&self, section: &str) -> bool {
        self.sections.contains(&section)
    }
}

fn print_groups(title: &str, groups: &[tilelink_bench::Group], baseline: &str) {
    println!("\n== {title} ==");
    for g in groups {
        print!("{:<12}", g.label);
        for e in &g.entries {
            print!(" {:>14}: {:>9.3} ms", e.method, e.ms);
        }
        println!();
    }
    println!(
        "geomean speedup of TileLink over {}: {:.2}x",
        baseline,
        geomean(groups.iter().map(|g| g.speedup("TileLink", baseline)))
    );
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_usage(&e));
    let cluster = default_cluster();
    // Build once and fail fast on an unloadable calibration file; every
    // single-cluster section below shares this provider (fig11 picks its own
    // clusters, so it takes the spec instead).
    let cost = cost_for(&cluster, &args.cost);
    println!("(cost model: {}, revision {})", args.cost, cost.revision());
    if args.profile.is_some() {
        // Enabled before any section runs so the exit report attributes the
        // whole run; disabled sites cost one relaxed atomic load each.
        tilelink_probe::set_enabled(true);
    }

    run(&args, &cluster, &cost);

    if let Some(dir) = &args.trace_out {
        write_traces(dir, &args.cost);
    }
    if let Some(json_path) = &args.profile {
        finish_profile(json_path.as_deref(), args.trace_out.as_deref());
    }
}

/// Everything the selected flags asked for, in section order. Split out of
/// `main` so its early return (`--quick`) still falls through to the
/// `--trace-out` / `--profile` epilogue.
fn run(args: &Args, cluster: &ClusterSpec, cost: &SharedCost) {
    if args.quick {
        // CI smoke subset: cheap, but exercises shapes, baselines and one
        // compiled TileLink kernel per MLP half.
        print_shapes();
        print_groups(
            "Table 2: motivational example (MLP-1)",
            &table2(cost),
            "Non-Overlap",
        );
        if args.has("--tune") {
            quick_tune_smoke(cluster, cost, args);
            quick_e2e_tune_smoke(args);
        }
        return;
    }

    if args.wants("--shapes") {
        print_shapes();
    }

    if args.wants("--table2") {
        print_groups(
            "Table 2: motivational example (MLP-1)",
            &table2(cost),
            "Non-Overlap",
        );
    }

    if args.wants("--fig8") {
        print_groups(
            "Figure 8: AG+GEMM",
            &fig8(MlpPanel::AgGemm, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 8: GEMM+RS",
            &fig8(MlpPanel::GemmRs, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 8: full MLP",
            &fig8(MlpPanel::Full, cost),
            "cuBLAS+NCCL",
        );
    }

    if args.wants("--fig9") {
        print_groups(
            "Figure 9: AG+Gather+GroupGEMM",
            &fig9(MoePanel::First, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 9: GroupGEMM+Scatter+TopK+RS",
            &fig9(MoePanel::Second, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 9: full MoE",
            &fig9(MoePanel::Full, cost),
            "cuBLAS+NCCL",
        );
    }

    if args.wants("--fig10") {
        for idx in 0..shapes::attn_shapes().len() {
            let rows = fig10(idx, cost);
            println!("\n== Figure 10: {} ==", shapes::attn_shapes()[idx].name);
            for r in &rows {
                print!("{:<16}", r.label);
                for e in &r.group.entries {
                    print!(" {:>9}: {:>9.3} ms", e.method, e.ms);
                }
                println!("  overlap ratio: {:.1}%", r.overlap_ratio * 100.0);
            }
            println!(
                "geomean speedup over Torch: {:.2}x, over RingAttn: {:.2}x, mean overlap ratio {:.1}%",
                geomean(rows.iter().map(|r| r.group.speedup("TileLink", "Torch"))),
                geomean(rows.iter().map(|r| r.group.speedup("TileLink", "RingAttn"))),
                100.0 * rows.iter().map(|r| r.overlap_ratio).sum::<f64>() / rows.len() as f64
            );
        }
    }

    if args.wants("--fig11") {
        // Under --tune the Figure 11 rows gain a third, tuned-TileLink column:
        // per-layer configs searched by tilelink-tune (persistent cache, so
        // reruns answer from disk with zero simulations).
        let tune_opts = args.has("--tune").then(|| {
            let opts = TuneOptions::default()
                .with_default_cache()
                .with_executor(SearchExecutor::global())
                .with_verbose(args.verbose);
            let opts = match args.routing {
                Some(spec) => opts.with_routing(spec).with_objective(args.objective),
                None => opts.with_objective(args.objective),
            };
            println!(
                "\n(figure 11 tuning cache: {})",
                TuneCache::default_path().display()
            );
            if let Some(spec) = &opts.routing {
                // The tuned MoE estimate is the objective statistic over
                // sampled routings — a harder workload than the
                // uniform-routing default column.
                println!(
                    "(MoE layers tuned and priced under routing {spec}, objective {})",
                    args.objective
                );
            }
            opts
        });
        for (two_nodes, label) in [(false, "8xH800"), (true, "16xH800")] {
            let rows = match &tune_opts {
                Some(opts) => fig11_tuned(two_nodes, usize::MAX, &args.cost, opts),
                None => fig11(two_nodes, usize::MAX, &args.cost),
            };
            println!("\n== Figure 11: end-to-end, {label} ==");
            for r in &rows {
                print!(
                    "{:<16} Torch {:>10.1} ms   TileLink {:>10.1} ms   speedup {:.2}x",
                    r.model,
                    r.torch_ms,
                    r.tilelink_ms,
                    r.speedup()
                );
                match (&r.tuned, r.tuned_speedup()) {
                    (Some(t), Some(s)) => println!(
                        "   tuned {:>10.1} ms   speedup {s:.2}x ({} evaluations, {} cached)",
                        t.ms, t.evaluations, t.cache_hits
                    ),
                    _ => println!(),
                }
            }
            print!(
                "geomean speedup: {:.2}x",
                geomean(rows.iter().map(|r| r.speedup()))
            );
            if rows.iter().all(|r| r.tuned.is_some()) {
                println!(
                    "   tuned geomean: {:.2}x",
                    geomean(rows.iter().filter_map(|r| r.tuned_speedup()))
                );
            } else {
                println!();
            }
        }
    }

    if args.wants("--ablation") {
        ablations(cost);
    }

    // Opt-in only: a cold tuning run simulates hundreds of candidates.
    if args.has("--tune") {
        tune(cluster, cost, args);
    }

    // Opt-in only, like --tune: boots a real daemon on an ephemeral port.
    if args.has("--serve") {
        serve_smoke(&args.cost);
    }
}

/// `--trace-out` epilogue: simulates the three benchmark graphs and writes
/// one Chrome `trace_event` JSON per graph into `dir`, printing each trace's
/// per-rank utilisation and overlap summary.
fn write_traces(dir: &str, spec: &CostModelSpec) {
    use tilelink_sim::Engine;

    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    for (name, cost, graph) in benchmark_graphs(spec) {
        let trace = Engine::with_cost(cost)
            .run(&graph)
            .expect("benchmark graph simulates");
        let path = format!("{dir}/{name}.trace.json");
        std::fs::write(&path, trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\n== Trace: {name} (wrote {path}) ==");
        print!("{}", trace.summary());
    }
}

/// `--profile` epilogue: drains every span recorded during the run, prints
/// the per-phase attribution table and — when a path was given — writes the
/// JSON report (phases plus the metrics-registry snapshot). When `--trace-out`
/// was also given, the host spans are additionally exported as a Chrome trace
/// next to the simulated ones.
fn finish_profile(json_path: Option<&str>, trace_dir: Option<&str>) {
    let spans = tilelink_probe::take_spans();
    let report = tilelink_probe::ProfileReport::from_spans(&spans);
    println!("\n== Host profile ({} spans) ==", spans.len());
    print!("{}", report.render());
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
    if let Some(dir) = trace_dir {
        let path = format!("{dir}/host.trace.json");
        std::fs::write(&path, tilelink_probe::chrome::spans_to_chrome(&spans))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
}

fn print_shapes() {
    println!("== Table 4: benchmark shapes ==");
    for s in shapes::mlp_shapes() {
        println!(
            "{}: S={} H={} I={} ({})",
            s.name, s.tokens, s.hidden, s.intermediate, s.source
        );
    }
    for s in shapes::moe_shapes() {
        println!(
            "{}: S={} H={} I={} E={} topk={}",
            s.name, s.tokens, s.hidden, s.intermediate, s.experts, s.top_k
        );
    }
    for s in shapes::attn_shapes() {
        println!(
            "{}: heads={} head_dim={} seq={:?}",
            s.name, s.heads, s.head_dim, s.seq_lens
        );
    }
}

/// Tuned-vs-default comparison on the Figure 8 MLP and Figure 9 MoE shapes,
/// plus — when a routing distribution was requested — the mean/uniform-tuned
/// vs skew-tuned winner comparison per Figure 9 shape.
fn tune(cluster: &ClusterSpec, cost: &SharedCost, args: &Args) {
    use tilelink_workloads::autotune::{self, MlpOracle, MoeOracle};

    let opts = TuneOptions::default()
        .with_default_cache()
        .with_cost(cost.clone())
        .with_executor(SearchExecutor::global())
        .with_verbose(args.verbose);
    if let Some(path) = &opts.cache_path {
        println!(
            "\n(tuning cache: {}, cost-model revision {})",
            path.display(),
            cost.revision()
        );
    }

    println!("\n== Autotune: Figure 8 MLP layers (tuned vs default config) ==");
    let mut speedups = Vec::new();
    for shape in shapes::mlp_shapes() {
        let tuned = autotune::tuned_full_mlp(&shape, cluster, &opts).expect("tuning succeeds");
        let default_ms = default_ms(
            &tuned,
            &MlpOracle::new(shape.clone(), cluster.clone()).with_cost(cost.clone()),
        );
        let speedup = default_ms / tuned.layer.total_ms();
        speedups.push(speedup);
        println!(
            "{:<8} default {:>9.3} ms -> tuned {:>9.3} ms ({:.2}x, {} evaluations, {} cached) best: {}",
            shape.name,
            default_ms,
            tuned.layer.total_ms(),
            speedup,
            tuned.search.evaluations,
            tuned.search.cache_hits,
            tuned.config.cache_key()
        );
    }
    println!(
        "geomean tuned-vs-default speedup: {:.2}x",
        geomean(speedups)
    );

    println!("\n== Autotune: Figure 9 MoE layers (tuned vs default config) ==");
    let mut speedups = Vec::new();
    let mut mean_winners = Vec::new();
    for shape in shapes::moe_shapes() {
        let tuned = autotune::tuned_full_moe(&shape, cluster, &opts).expect("tuning succeeds");
        let default_ms = default_ms(
            &tuned,
            &MoeOracle::new(shape.clone(), cluster.clone()).with_cost(cost.clone()),
        );
        let speedup = default_ms / tuned.layer.total_ms();
        speedups.push(speedup);
        println!(
            "{:<8} default {:>9.3} ms -> tuned {:>9.3} ms ({:.2}x, {} evaluations, {} cached) best: {}",
            shape.name,
            default_ms,
            tuned.layer.total_ms(),
            speedup,
            tuned.search.evaluations,
            tuned.search.cache_hits,
            tuned.config.cache_key()
        );
        mean_winners.push((shape, tuned));
    }
    println!(
        "geomean tuned-vs-default speedup: {:.2}x",
        geomean(speedups)
    );

    // Routing-distribution-aware pass: retune each MoE shape over sampled
    // routings and print the skew winner next to the mean/uniform winner.
    let Some(spec) = args.routing else { return };
    let objective = args.objective;
    let routed_opts = opts.with_routing(spec).with_objective(objective);
    println!("\n== Autotune: Figure 9 MoE layers under routing {spec}, objective {objective} ==");
    for (shape, mean_tuned) in &mean_winners {
        let routed =
            autotune::tuned_full_moe(shape, cluster, &routed_opts).expect("tuning succeeds");
        let marker = if routed.config == mean_tuned.config {
            "same config"
        } else {
            "DIFFERS"
        };
        println!(
            "{:<8} mean/uniform best: {:<44} {:>9.3} ms",
            shape.name,
            mean_tuned.config.cache_key(),
            mean_tuned.layer.total_ms(),
        );
        println!(
            "         {}/{} best:   {:<44} {:>9.3} ms  ({} evaluations, {} cached)  [{marker}]",
            spec.profile,
            objective,
            routed.config.cache_key(),
            routed.layer.total_ms(),
            routed.search.evaluations,
            routed.search.cache_hits,
        );
    }
}

/// Reduced tuning smoke for `--quick --tune`: one MoE shape, a compact space,
/// few routing samples — enough to exercise the routing-aware search end to
/// end without the cost of the full `--tune` pass. CI runs this under both
/// cost models.
fn quick_tune_smoke(cluster: &ClusterSpec, cost: &SharedCost, args: &Args) {
    use tilelink::{CommMapping, TileShape};
    use tilelink_tune::{SearchSpace, Strategy};
    use tilelink_workloads::autotune;

    let shape = shapes::moe_shapes()[0].clone();
    let space = SearchSpace::new()
        .with_comm_tiles([TileShape::new(128, 128), TileShape::new(256, 128)])
        .with_compute_tiles([TileShape::new(128, 256), TileShape::new(256, 256)])
        .with_mappings([CommMapping::CopyEngine, CommMapping::Hybrid { sms: 20 }])
        .with_stages([2, 3]);
    let base = TuneOptions {
        strategy: Strategy::Beam {
            width: 2,
            sweeps: 1,
        },
        space,
        ..TuneOptions::default()
    }
    .with_cost(cost.clone())
    .with_executor(SearchExecutor::global())
    .with_verbose(args.verbose);

    println!("\n== Autotune smoke: {} (compact space) ==", shape.name);
    let mean_tuned =
        autotune::tuned_full_moe(&shape, cluster, &base).expect("mean tuning succeeds");
    println!(
        "mean/uniform best: {:<44} {:>9.3} ms ({} evaluations)",
        mean_tuned.config.cache_key(),
        mean_tuned.layer.total_ms(),
        mean_tuned.search.evaluations,
    );
    let Some(mut spec) = args.routing else {
        return;
    };
    spec.samples = 4; // smoke: fewer sampled routings per candidate
    let routed_opts = base.with_routing(spec).with_objective(args.objective);
    let routed =
        autotune::tuned_full_moe(&shape, cluster, &routed_opts).expect("routed tuning succeeds");
    let marker = if routed.config == mean_tuned.config {
        "same config"
    } else {
        "DIFFERS"
    };
    println!(
        "{}/{} best:     {:<44} {:>9.3} ms ({} evaluations)  [{marker}]",
        spec.profile,
        args.objective,
        routed.config.cache_key(),
        routed.layer.total_ms(),
        routed.search.evaluations,
    );
}

/// Reduced tuned-e2e smoke for `--quick --tune`: one dense and one MoE model
/// on the single-node setup plus the dense model on the two-node setup,
/// against the persistent default cache (so CI's repeated steps reuse the
/// tuning TSV instead of re-simulating). Unlike the layer smoke above this
/// searches the *standard* space — the tuned column is only meaningful if the
/// search can reach configurations at least as good as the hand-picked ones.
fn quick_e2e_tune_smoke(args: &Args) {
    let objective = args.objective;
    let mut opts = TuneOptions::default()
        .with_default_cache()
        .with_objective(objective)
        .with_executor(SearchExecutor::global())
        .with_verbose(args.verbose);
    if let Some(mut spec) = args.routing {
        spec.samples = 4; // smoke: fewer sampled routings per candidate
        opts = opts.with_routing(spec);
    }
    println!(
        "\n== Tuned e2e smoke (Figure 11 subset, cache {}) ==",
        TuneCache::default_path().display()
    );
    if let Some(spec) = &opts.routing {
        // The tuned MoE estimate is then the objective statistic over sampled
        // routings — a harder workload than the uniform-routing default
        // column, so the two speedups are not directly comparable.
        println!("(MoE layers tuned and priced under routing {spec}, objective {objective})");
    }
    let models = shapes::model_configs();
    // One dense and one MoE model on the single-node setup (the MoE model is
    // what --routing/--objective act on), the dense one again on two nodes.
    for (two_nodes, names, label) in [
        (false, &["LLaMA2-7B", "Mixtral-8x7B"][..], "8xH800"),
        (true, &["LLaMA2-7B"][..], "16xH800"),
    ] {
        let (cluster, tokens) = if two_nodes {
            tilelink_workloads::e2e::two_node_setup()
        } else {
            tilelink_workloads::e2e::single_node_setup()
        };
        let cost = cost_for(&cluster, &args.cost);
        for model in models.iter().filter(|m| names.contains(&m.name)) {
            let cmp = tilelink_workloads::e2e::compare_model_tuned(model, tokens, &cost, &opts)
                .expect("tuned e2e smoke");
            println!(
                "{label:<8} {:<14} default speedup {:.2}x   tuned speedup {:.2}x ({} evaluations, {} cached)",
                model.name,
                cmp.default_speedup(),
                cmp.tuned_speedup(),
                cmp.tuned.evaluations,
                cmp.tuned.cache_hits
            );
        }
    }
}

/// `--serve` smoke: boots the daemon on an ephemeral localhost port and
/// exercises every request path through real client connections — PING, a
/// cold quick-space search, a warm hit of the same key, and a concurrent
/// volley of identical requests that must collapse into one search — then
/// panics unless `STATS` counts exactly that traffic.
fn serve_smoke(spec: &CostModelSpec) {
    use std::sync::{Arc, Barrier};
    use tilelink_serve::protocol::{parse_reply, Reply};
    use tilelink_serve::server::{serve_ephemeral, Client};
    use tilelink_serve::service::{ServeOptions, TuneService};

    let server = serve_ephemeral(TuneService::new(ServeOptions {
        cost: spec.clone(),
        cache_path: None, // smoke stays hermetic: no shared TSV
        ..ServeOptions::quick()
    }))
    .expect("bind ephemeral port");
    println!("\n== Serve smoke (daemon on {}) ==", server.addr());

    let mut client = Client::connect(server.addr()).expect("connect");
    let pong = client.request("PING").expect("ping");
    println!("PING -> {pong}");

    let line = "TUNE workload=MLP-1";
    for pass in ["cold", "warm"] {
        let reply = client.request(line).expect("tune request");
        let Ok(Reply::Ok(fields)) = parse_reply(&reply) else {
            panic!("{pass} request failed: {reply}");
        };
        println!(
            "{line} -> source={} total {:.3} ms ({} evaluations) best: {}",
            fields.source, fields.total_ms, fields.evals, fields.config
        );
    }

    // Concurrent identical cold requests: the daemon must run one search and
    // broadcast it to everyone else.
    const WAITERS: usize = 4;
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(WAITERS));
    let handles: Vec<_> = (0..WAITERS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client
                    .request("TUNE workload=MoE-1 routing=zipf:1.2 objective=p95")
                    .expect("dedup request")
            })
        })
        .collect();
    let (mut cold, mut deduped) = (0, 0);
    for handle in handles {
        match parse_reply(&handle.join().expect("waiter thread")) {
            Ok(Reply::Ok(fields)) if fields.source == "cold" => cold += 1,
            Ok(Reply::Ok(fields)) if fields.source == "deduped" => deduped += 1,
            other => panic!("dedup volley reply unexpected: {other:?}"),
        }
    }
    println!("{WAITERS} concurrent identical requests -> {cold} search, {deduped} deduped");

    // The fixed mix above leaves exact counters: one warm hit, the two
    // searches, the volley's followers, nothing in flight, two cached keys.
    let reply = client.request("STATS").expect("stats");
    println!("{reply}");
    let stats = parse_reply(&reply)
        .and_then(|r| r.stats())
        .unwrap_or_else(|e| panic!("STATS reply does not parse: {e}"));
    assert_eq!(
        (
            stats.warm,
            stats.cold,
            stats.deduped,
            stats.inflight,
            stats.cached
        ),
        (1, 2, 3, 0, 2),
        "STATS after PING, cold + warm MLP-1 and a {WAITERS}-way MoE-1 volley: {reply}"
    );
    server.shutdown();
}

/// Ablations over the paper's design space (Section 3.1): decoupled tile
/// sizes, number of communication SMs and resource mapping.
fn ablations(cost: &tilelink_sim::SharedCost) {
    use tilelink::config::{CommMapping, TileShape};
    use tilelink::exec::simulate_report;
    use tilelink_workloads::mlp;

    let shape = &shapes::mlp_shapes()[0];
    println!("\n== Ablation: compute tile size (AG+GEMM, MLP-1) ==");
    for tile in [64usize, 128, 256] {
        let cfg = mlp::ag_gemm_config().with_compute_tile(TileShape::new(128, tile));
        let kernel = mlp::ag_gemm_kernel(shape, &cfg, cost).expect("ablation");
        let r = simulate_report(&kernel, cost).expect("ablation");
        println!("compute tile 128x{tile:<4} -> {:>9.3} ms", r.total_ms());
    }

    println!("\n== Ablation: communication SMs (GEMM+RS, MLP-1) ==");
    for sms in [8u64, 20, 40] {
        let cfg = mlp::gemm_rs_config().with_comm_mapping(CommMapping::Hybrid { sms });
        let kernel = mlp::gemm_rs_kernel(shape, &cfg, cost).expect("ablation");
        let r = simulate_report(&kernel, cost).expect("ablation");
        println!("comm SMs {sms:<3} -> {:>9.3} ms", r.total_ms());
    }

    println!("\n== Ablation: resource mapping (AG+GEMM, MLP-1) ==");
    for (name, mapping) in [
        ("copy engine", CommMapping::CopyEngine),
        ("20 SMs", CommMapping::Sm { sms: 20 }),
        ("hybrid", CommMapping::Hybrid { sms: 20 }),
    ] {
        let cfg = mlp::ag_gemm_config().with_comm_mapping(mapping);
        let kernel = mlp::ag_gemm_kernel(shape, &cfg, cost).expect("ablation");
        let r = simulate_report(&kernel, cost).expect("ablation");
        println!("{name:<12} -> {:>9.3} ms", r.total_ms());
    }
}

/// Milliseconds of the default config: served from the search's own ranking
/// (the default is always a beam seed), falling back to one oracle call only
/// if an exotic space excluded it.
fn default_ms(
    tuned: &tilelink_workloads::TunedLayer,
    oracle: &dyn tilelink_tune::CostOracle,
) -> f64 {
    let default = tilelink::OverlapConfig::default();
    tuned
        .search
        .ranked
        .iter()
        .find(|c| c.config == default)
        .map(|c| c.total_s * 1e3)
        .unwrap_or_else(|| {
            oracle
                .evaluate(&default)
                .expect("default config evaluates")
                .total_ms()
        })
}
