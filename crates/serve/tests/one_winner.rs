//! One request, one winner: the daemon's cold search and the library's
//! `tuned_full_*` constructors run the same search, so a request answered
//! by the service names exactly the config, and the price, that the
//! constructor returns for the same workload, cluster, routing and
//! objective.

use tilelink_serve::protocol::{parse_command, Command, TuneRequest, WorkloadSpec};
use tilelink_serve::service::{ServeOptions, Source, TuneService};
use tilelink_workloads::autotune::{self, TuneOptions};

fn request(line: &str) -> TuneRequest {
    match parse_command(line).unwrap() {
        Command::Tune(req) => *req,
        other => panic!("expected TUNE, got {other:?}"),
    }
}

#[test]
fn cold_service_outcome_equals_the_tuned_full_constructor() {
    let service = TuneService::new(ServeOptions {
        cache_path: None,
        ..ServeOptions::default()
    });
    for line in [
        "TUNE workload=MLP-1",
        "TUNE workload=MoE-3 routing=zipf:1.2 samples=2 objective=p95",
        "TUNE workload=MoE-2 cluster=h100x4",
    ] {
        let req = request(line);
        let (served, source) = service.tune(&req).unwrap();
        assert_eq!(source, Source::Cold, "{line}");

        let opts = TuneOptions::default().with_objective(req.objective);
        let tuned = match &req.workload {
            WorkloadSpec::Mlp(shape) => autotune::tuned_full_mlp(shape, &req.cluster, &opts),
            WorkloadSpec::Moe { shape, routing } => {
                let opts = match routing {
                    Some(spec) => opts.with_routing(*spec),
                    None => opts,
                };
                autotune::tuned_full_moe(shape, &req.cluster, &opts)
            }
        }
        .unwrap();

        assert_eq!(served.config_key, tuned.config.cache_key(), "{line}");
        assert_eq!(
            served.total_s.to_bits(),
            tuned.layer.total_s.to_bits(),
            "{line}: total_s"
        );
        assert_eq!(
            served.comm_s.to_bits(),
            tuned.layer.comm_only_s.to_bits(),
            "{line}: comm_s"
        );
        assert_eq!(
            served.comp_s.to_bits(),
            tuned.layer.comp_only_s.to_bits(),
            "{line}: comp_s"
        );
    }
}
