//! A routed search compiles its programs once, whatever its sample count.
//!
//! A routed MoE half binds its sampled routing as a table when it is
//! planned, so the compile cache holds one program per builder input, as
//! for an expected-routing search: over the standard space, 6 AllGather
//! and 2 ReduceScatter programs. A search at more samples, on the same
//! shape and cluster, finds all of them cached.
//!
//! The rebuild counter is process-wide, so this file holds one test.

use tilelink::reset_compile_cache;
use tilelink_probe::metrics::TUNE_COMPILE_FULL_REBUILDS;
use tilelink_sim::ClusterSpec;
use tilelink_tune::Objective;
use tilelink_workloads::autotune::{tuned_full_moe, TuneOptions};
use tilelink_workloads::shapes::moe_shapes;
use tilelink_workloads::{RoutingProfile, RoutingSpec};

#[test]
fn a_routed_search_compiles_each_program_once_whatever_its_sample_count() {
    let moe1 = moe_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let rebuilds = |samples| {
        let routing = RoutingSpec {
            samples,
            ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
        };
        let opts = TuneOptions::default()
            .with_routing(routing)
            .with_objective(Objective::Percentile(95));
        let before = TUNE_COMPILE_FULL_REBUILDS.get();
        tuned_full_moe(&moe1, &cluster, &opts).expect("routed search");
        TUNE_COMPILE_FULL_REBUILDS.get() - before
    };
    reset_compile_cache();
    assert_eq!(rebuilds(2), 8, "a routed search over the standard space");
    assert_eq!(rebuilds(9), 0, "the same programs at more samples");
}
