//! The line-oriented wire protocol of the tuning daemon.
//!
//! One request per line, one response line per request, all UTF-8. The
//! grammar (space-separated `key=value` pairs, order-insensitive):
//!
//! ```text
//! request   = tune | "PING" | "STATS"
//! tune      = "TUNE" SP pair (SP pair)*       ; each key at most once
//! pair      = "workload=" name            ; required: "MLP-1".."MLP-6" or
//!                                         ; "MoE-1".."MoE-6" (Table 4)
//!           | "cluster=" cluster          ; default "h800x8"
//!           | "objective=" objective      ; default "mean"
//!           | "routing=" profile          ; MoE only: uniform | zipf:<s> | hot:<k>
//!           | "samples=" uint             ; routing samples per candidate,
//!                                         ; 1..=MAX_ROUTING_SAMPLES
//!           | "seed=" uint                ; routing sampler seed
//! cluster   = ("h800" | "h100" | "a100") "x" gpus ["x" nodes]
//! objective = "mean" | "worst" | "p" <1-99>
//!
//! response  = ok | "ERR " message | "PONG" | "STATS " pairs
//! ok        = "OK workload=<name> source=<warm|cold|deduped> config=<key>
//!              total_ms=<f> comm_ms=<f> comp_ms=<f> evals=<n> cache_hits=<n>"
//! ```
//!
//! The five request axes — workload shape, cluster, routing, objective, and
//! (chosen by the search) config — are exactly the parts of the persistent
//! tune-cache key quintuple, so a request maps 1:1 onto a cache scope.
//!
//! A request the daemon cannot parse answers `ERR` and keeps the connection
//! open; clients send any number of requests over one connection.

use std::str::FromStr;

use tilelink_sim::{ClusterSpec, GpuSpec};
use tilelink_tune::Objective;
use tilelink_workloads::autotune::DEFAULT_ROUTING_SAMPLES;
use tilelink_workloads::moe::RoutingProfile;
use tilelink_workloads::shapes::{mlp_shapes, moe_shapes};
use tilelink_workloads::RoutingSpec;

pub use tilelink_workloads::WorkloadSpec;

/// The most routing samples one request may ask to price per candidate (8×
/// the default): a routed search draws and keeps every sample and prices
/// each candidate over all of them, so the wire must bound what one request
/// line can make a daemon worker allocate and simulate.
pub const MAX_ROUTING_SAMPLES: usize = 8 * DEFAULT_ROUTING_SAMPLES;

/// One parsed `TUNE` request: the cache-key quintuple minus the config,
/// which the search chooses.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRequest {
    /// What to tune.
    pub workload: WorkloadSpec,
    /// The simulated cluster to tune for.
    pub cluster: ClusterSpec,
    /// The statistic of the sampled makespans the search minimises.
    pub objective: Objective,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run (or answer from cache) one tuning search.
    Tune(Box<TuneRequest>),
    /// Liveness probe; answered with `PONG`.
    Ping,
    /// One-line snapshot of the serve counters.
    Stats,
}

/// Parses `cluster=` values: `h800x8`, `a100x4`, `h800x8x2`, …
fn parse_cluster(value: &str) -> Result<ClusterSpec, String> {
    let mut parts = value.split('x');
    let gpu = match parts.next() {
        Some("h800") => GpuSpec::h800(),
        Some("h100") => GpuSpec::h100(),
        Some("a100") => GpuSpec::a100(),
        other => {
            return Err(format!(
                "unknown GPU {:?} in cluster (expected h800, h100 or a100)",
                other.unwrap_or("")
            ))
        }
    };
    let gpus_per_node = parts
        .next()
        .ok_or_else(|| format!("cluster {value:?} is missing a GPU count (e.g. h800x8)"))?
        .parse::<usize>()
        .map_err(|_| format!("bad GPU count in cluster {value:?}"))?;
    let nodes = match parts.next() {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| format!("bad node count in cluster {value:?}"))?,
        None => 1,
    };
    if parts.next().is_some() {
        return Err(format!(
            "cluster {value:?} has too many components (expected <gpu>x<gpus>[x<nodes>])"
        ));
    }
    if gpus_per_node == 0 || nodes == 0 {
        return Err(format!("cluster {value:?} has a zero component"));
    }
    if gpus_per_node.checked_mul(nodes).is_none() {
        return Err(format!("GPU count of cluster {value:?} overflows"));
    }
    if gpus_per_node < 2 && nodes < 2 {
        return Err(format!(
            "cluster {value:?} has a single GPU; overlap tuning needs at least 2 ranks"
        ));
    }
    Ok(ClusterSpec::new(gpu, gpus_per_node, nodes))
}

/// Parses one request line into a [`Command`].
///
/// # Errors
///
/// Returns a human-readable message (sent back as `ERR …`) when the line
/// does not match the grammar above.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    match line {
        "PING" => return Ok(Command::Ping),
        "STATS" => return Ok(Command::Stats),
        _ => {}
    }
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    if verb != "TUNE" {
        return Err(format!(
            "unknown request {verb:?} (expected TUNE, PING or STATS)"
        ));
    }

    let mut workload_name: Option<&str> = None;
    let mut cluster: Option<&str> = None;
    let mut objective: Option<Objective> = None;
    let mut routing: Option<RoutingProfile> = None;
    let mut samples: Option<usize> = None;
    let mut seed: Option<u64> = None;
    for pair in rest.split_whitespace() {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("malformed pair {pair:?} (expected key=value)"));
        };
        let repeated = match key {
            "workload" => workload_name.replace(value).is_some(),
            "cluster" => cluster.replace(value).is_some(),
            "objective" => objective.replace(Objective::from_str(value)?).is_some(),
            "routing" => routing.replace(RoutingProfile::from_str(value)?).is_some(),
            "samples" => samples
                .replace(
                    value
                        .parse()
                        .ok()
                        .filter(|n| (1..=MAX_ROUTING_SAMPLES).contains(n))
                        .ok_or_else(|| {
                            format!(
                                "samples must be an integer in 1..={MAX_ROUTING_SAMPLES}, \
                                 got {value:?}"
                            )
                        })?,
                )
                .is_some(),
            "seed" => seed
                .replace(
                    value
                        .parse()
                        .map_err(|_| format!("seed must be an unsigned integer, got {value:?}"))?,
                )
                .is_some(),
            _ => return Err(format!("unknown key {key:?}")),
        };
        if repeated {
            return Err(format!("repeated key {key:?} (each key may appear once)"));
        }
    }
    let objective = objective.unwrap_or(Objective::Mean);

    let Some(name) = workload_name else {
        return Err("TUNE requires workload=<name> (MLP-1..MLP-6 or MoE-1..MoE-6)".to_string());
    };
    let cluster = match cluster {
        Some(value) => parse_cluster(value)?,
        None => ClusterSpec::h800_node(8),
    };

    let workload = if let Some(shape) = mlp_shapes().into_iter().find(|s| s.name == name) {
        if routing.is_some() || samples.is_some() || seed.is_some() {
            return Err(format!(
                "routing applies only to MoE workloads, {name} is an MLP"
            ));
        }
        if objective != Objective::Mean {
            return Err(format!(
                "objective {} needs sampled routings; {name} is a deterministic MLP \
                 (only objective=mean is meaningful)",
                objective.key()
            ));
        }
        WorkloadSpec::Mlp(shape)
    } else if let Some(shape) = moe_shapes().into_iter().find(|s| s.name == name) {
        if routing.is_none() && (samples.is_some() || seed.is_some()) {
            return Err("samples/seed require routing=<profile>".to_string());
        }
        // A tail objective without an explicit routing profile means "over
        // sampled uniform routings", as in every front end.
        let routing = RoutingSpec::for_objective(routing, objective).map(|mut spec| {
            if let Some(samples) = samples {
                spec.samples = samples;
            }
            if let Some(seed) = seed {
                spec.seed = seed;
            }
            spec
        });
        WorkloadSpec::Moe { shape, routing }
    } else {
        return Err(format!(
            "unknown workload {name:?} (expected MLP-1..MLP-6 or MoE-1..MoE-6)"
        ));
    };

    Ok(Command::Tune(Box::new(TuneRequest {
        workload,
        cluster,
        objective,
    })))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The payload of an `OK` response line.
#[derive(Debug, Clone, PartialEq)]
pub struct OkFields {
    /// Catalog name of the tuned workload.
    pub workload: String,
    /// How the answer was produced: `warm`, `cold` or `deduped`.
    pub source: String,
    /// [`tilelink::OverlapConfig::cache_key`] of the winning config.
    pub config: String,
    /// Simulated layer time under the winning config, milliseconds.
    pub total_ms: f64,
    /// Exposed (non-overlapped) communication time, milliseconds.
    pub comm_ms: f64,
    /// Computation time, milliseconds.
    pub comp_ms: f64,
    /// Oracle evaluations the producing search ran (0 when every candidate
    /// came from the persistent cache).
    pub evals: usize,
    /// Candidates the producing search answered from the persistent cache.
    pub cache_hits: usize,
}

impl OkFields {
    /// Renders the `OK …` response line (no trailing newline).
    pub fn render(&self) -> String {
        format!(
            "OK workload={} source={} config={} total_ms={:.6} comm_ms={:.6} comp_ms={:.6} \
             evals={} cache_hits={}",
            self.workload,
            self.source,
            self.config,
            self.total_ms,
            self.comm_ms,
            self.comp_ms,
            self.evals,
            self.cache_hits
        )
    }
}

/// The parsed payload of a `STATS` response: request sources, warm-map
/// occupancy and evictions, and request-pool pressure. Gauges are signed so
/// a transiently skewed snapshot still parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsFields {
    /// Requests answered from the warm cache.
    pub warm: u64,
    /// Requests that ran a search.
    pub cold: u64,
    /// Requests that piggybacked on an in-flight search.
    pub deduped: u64,
    /// Requests currently being answered.
    pub inflight: i64,
    /// Entries in the warm result map.
    pub cached: u64,
    /// Warm entries evicted by the LRU cap so far.
    pub evictions: u64,
    /// Requests sitting in the worker-pool queue.
    pub pool_queued: i64,
    /// Requests executing on pool workers.
    pub pool_active: i64,
    /// Requests answered `ERR busy` because the queue was full.
    pub pool_rejected: u64,
}

/// Parses the pair list of a `STATS` response into [`StatsFields`] (keys a
/// line omits stay 0).
///
/// # Errors
///
/// Returns a message on a malformed pair, an unknown key, or a bad number.
pub fn parse_stats(pairs: &str) -> Result<StatsFields, String> {
    let mut fields = StatsFields::default();
    for pair in pairs.split_whitespace() {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("malformed stats pair {pair:?}"));
        };
        let bad_num = || format!("bad number in stats pair {pair:?}");
        match key {
            "warm" => fields.warm = value.parse().map_err(|_| bad_num())?,
            "cold" => fields.cold = value.parse().map_err(|_| bad_num())?,
            "deduped" => fields.deduped = value.parse().map_err(|_| bad_num())?,
            "inflight" => fields.inflight = value.parse().map_err(|_| bad_num())?,
            "cached" => fields.cached = value.parse().map_err(|_| bad_num())?,
            "evictions" => fields.evictions = value.parse().map_err(|_| bad_num())?,
            "pool_queued" => fields.pool_queued = value.parse().map_err(|_| bad_num())?,
            "pool_active" => fields.pool_active = value.parse().map_err(|_| bad_num())?,
            "pool_rejected" => fields.pool_rejected = value.parse().map_err(|_| bad_num())?,
            _ => return Err(format!("unknown stats key {key:?}")),
        }
    }
    Ok(fields)
}

/// One parsed response line, as seen by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A successful tuning answer.
    Ok(OkFields),
    /// The daemon rejected or failed the request.
    Err(String),
    /// Answer to `PING`.
    Pong,
    /// Answer to `STATS` (the raw pair list; see [`parse_stats`]).
    Stats(String),
}

impl Reply {
    /// Parses this reply's `STATS` payload, if it is one.
    ///
    /// # Errors
    ///
    /// Returns the [`parse_stats`] error, or a message when the reply is not
    /// a `STATS` response at all.
    pub fn stats(&self) -> Result<StatsFields, String> {
        match self {
            Reply::Stats(pairs) => parse_stats(pairs),
            other => Err(format!("not a STATS reply: {other:?}")),
        }
    }
}

/// Parses one response line into a [`Reply`] (the client half of the
/// protocol; used by the `reproduce --serve` smoke and the wire tests).
///
/// # Errors
///
/// Returns a message when the line matches no response form.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let line = line.trim_end();
    if line == "PONG" {
        return Ok(Reply::Pong);
    }
    if let Some(rest) = line.strip_prefix("STATS ") {
        return Ok(Reply::Stats(rest.to_string()));
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        return Ok(Reply::Err(rest.to_string()));
    }
    let Some(rest) = line.strip_prefix("OK ") else {
        return Err(format!("unparseable response line {line:?}"));
    };
    let mut fields = OkFields {
        workload: String::new(),
        source: String::new(),
        config: String::new(),
        total_ms: f64::NAN,
        comm_ms: f64::NAN,
        comp_ms: f64::NAN,
        evals: 0,
        cache_hits: 0,
    };
    for pair in rest.split_whitespace() {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("malformed response pair {pair:?}"));
        };
        let bad_num = || format!("bad number in response pair {pair:?}");
        match key {
            "workload" => fields.workload = value.to_string(),
            "source" => fields.source = value.to_string(),
            "config" => fields.config = value.to_string(),
            "total_ms" => fields.total_ms = value.parse().map_err(|_| bad_num())?,
            "comm_ms" => fields.comm_ms = value.parse().map_err(|_| bad_num())?,
            "comp_ms" => fields.comp_ms = value.parse().map_err(|_| bad_num())?,
            "evals" => fields.evals = value.parse().map_err(|_| bad_num())?,
            "cache_hits" => fields.cache_hits = value.parse().map_err(|_| bad_num())?,
            _ => return Err(format!("unknown response key {key:?}")),
        }
    }
    if fields.workload.is_empty() || fields.source.is_empty() || !fields.total_ms.is_finite() {
        return Err(format!("incomplete OK response {line:?}"));
    }
    Ok(Reply::Ok(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_and_stats_parse() {
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(parse_command("  STATS \n").unwrap(), Command::Stats);
    }

    #[test]
    fn minimal_tune_request_defaults() {
        let Command::Tune(req) = parse_command("TUNE workload=MLP-1").unwrap() else {
            panic!("expected TUNE");
        };
        assert_eq!(req.workload.name(), "MLP-1");
        assert_eq!(req.cluster, ClusterSpec::h800_node(8));
        assert_eq!(req.objective, Objective::Mean);
    }

    #[test]
    fn full_moe_request_parses_every_axis() {
        let line = "TUNE workload=MoE-3 cluster=h800x8x2 routing=zipf:1.2 samples=4 seed=99 \
                    objective=p95";
        let Command::Tune(req) = parse_command(line).unwrap() else {
            panic!("expected TUNE");
        };
        assert_eq!(req.workload.name(), "MoE-3");
        assert_eq!(req.cluster, ClusterSpec::h800_multi_node(2));
        assert_eq!(req.objective, Objective::Percentile(95));
        let WorkloadSpec::Moe { routing, .. } = &req.workload else {
            panic!("expected MoE");
        };
        let spec = routing.expect("routing parsed");
        assert_eq!(spec.profile, RoutingProfile::Zipf { s: 1.2 });
        assert_eq!(spec.samples, 4);
        assert_eq!(spec.seed, 99);
    }

    #[test]
    fn tail_objective_without_routing_implies_uniform_sampling() {
        let Command::Tune(req) = parse_command("TUNE workload=MoE-1 objective=worst").unwrap()
        else {
            panic!("expected TUNE");
        };
        let WorkloadSpec::Moe { routing, .. } = &req.workload else {
            panic!("expected MoE");
        };
        assert_eq!(routing.unwrap().profile, RoutingProfile::Uniform);
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("FETCH workload=MLP-1", "unknown request"),
            ("TUNE", "requires workload"),
            ("TUNE workload=MLP-9", "unknown workload"),
            ("TUNE workload=MLP-1 routing=uniform", "only to MoE"),
            ("TUNE workload=MLP-1 objective=p95", "sampled routings"),
            ("TUNE workload=MoE-1 samples=4", "require routing"),
            (
                "TUNE workload=MoE-1 routing=uniform samples=0",
                "samples must be",
            ),
            (
                "TUNE workload=MoE-1 routing=uniform samples=18446744073709551615",
                "samples must be",
            ),
            (
                "TUNE workload=MoE-1 routing=uniform samples=65",
                "samples must be",
            ),
            ("TUNE workload=MoE-1 routing=zipf:x", "zipf exponent"),
            ("TUNE workload=MLP-1 cluster=b200x8", "unknown GPU"),
            ("TUNE workload=MLP-1 cluster=h800x1", "at least 2 ranks"),
            (
                "TUNE workload=MLP-1 cluster=h800x8x2x2",
                "too many components",
            ),
            (
                "TUNE workload=MLP-1 cluster=h800x9223372036854775809x2",
                "GPU count of cluster \"h800x9223372036854775809x2\" overflows",
            ),
            (
                "TUNE workload=MLP-1 cluster=h800x4294967296x4294967296",
                "GPU count of cluster \"h800x4294967296x4294967296\" overflows",
            ),
            ("TUNE workload=MLP-1 frobnicate=yes", "unknown key"),
            ("TUNE workload", "malformed pair"),
            ("TUNEworkload=MLP-1", "unknown request"),
            (
                "TUNE workload=MLP-1 cluster=h800x8 cluster=a100x4",
                "repeated key \"cluster\"",
            ),
            ("TUNE workload=MLP-1 workload=MLP-2", "repeated key"),
            (
                "TUNE workload=MoE-1 objective=p95 objective=mean",
                "repeated key",
            ),
        ] {
            let err = parse_command(line).unwrap_err();
            assert!(
                err.contains(needle),
                "{line:?} should fail with {needle:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn routing_sample_counts_up_to_the_cap_parse() {
        for samples in [1, MAX_ROUTING_SAMPLES] {
            let line = format!("TUNE workload=MoE-1 routing=uniform samples={samples}");
            let Command::Tune(req) = parse_command(&line).unwrap() else {
                panic!("expected TUNE");
            };
            let WorkloadSpec::Moe { routing, .. } = &req.workload else {
                panic!("expected MoE");
            };
            assert_eq!(routing.unwrap().samples, samples);
        }
    }

    #[test]
    fn a100_cluster_parses() {
        let Command::Tune(req) = parse_command("TUNE workload=MLP-1 cluster=a100x4").unwrap()
        else {
            panic!("expected TUNE");
        };
        assert_eq!(req.cluster.gpu.name, "A100");
        assert_eq!(req.cluster.world_size(), 4);
    }

    #[test]
    fn ok_response_roundtrips() {
        let fields = OkFields {
            workload: "MoE-1".into(),
            source: "warm".into(),
            config: "ct128x128-gt256x256".into(),
            total_ms: 1.25,
            comm_ms: 0.5,
            comp_ms: 1.0,
            evals: 17,
            cache_hits: 3,
        };
        let parsed = parse_reply(&fields.render()).unwrap();
        assert_eq!(parsed, Reply::Ok(fields));
    }

    #[test]
    fn err_pong_and_stats_replies_parse() {
        assert_eq!(
            parse_reply("ERR unknown workload \"MLP-9\"").unwrap(),
            Reply::Err("unknown workload \"MLP-9\"".to_string())
        );
        assert_eq!(parse_reply("PONG\n").unwrap(), Reply::Pong);
        assert!(matches!(
            parse_reply("STATS warm=1 cold=2").unwrap(),
            Reply::Stats(s) if s == "warm=1 cold=2"
        ));
        assert!(parse_reply("BOGUS").is_err());
    }

    #[test]
    fn stats_payload_roundtrips_through_the_typed_parser() {
        let line = "STATS warm=12 cold=3 deduped=5 inflight=2 cached=7 evictions=4 \
                    pool_queued=6 pool_active=8 pool_rejected=9";
        let stats = parse_reply(line).unwrap().stats().unwrap();
        assert_eq!(
            stats,
            StatsFields {
                warm: 12,
                cold: 3,
                deduped: 5,
                inflight: 2,
                cached: 7,
                evictions: 4,
                pool_queued: 6,
                pool_active: 8,
                pool_rejected: 9,
            }
        );
        // Shorter lines from older daemons still parse; absent keys stay 0.
        let old = parse_stats("warm=1 cold=2 deduped=0 inflight=0 cached=3").unwrap();
        assert_eq!(old.evictions, 0);
        assert_eq!(old.warm, 1);
        // A non-STATS reply refuses the typed accessor.
        assert!(parse_reply("PONG").unwrap().stats().is_err());
    }

    #[test]
    fn invalid_stats_payloads_are_rejected_with_reasons() {
        for (pairs, needle) in [
            ("warm", "malformed stats pair"),
            ("warm=x", "bad number"),
            ("inflight=1.5", "bad number"),
            ("frobnications=3", "unknown stats key"),
        ] {
            let err = parse_stats(pairs).unwrap_err();
            assert!(
                err.contains(needle),
                "{pairs:?} should fail with {needle:?}, got {err:?}"
            );
        }
    }
}
