//! # tilelink-serve
//!
//! Tuning-as-a-service: a long-running daemon that answers "what is the best
//! overlap config for this workload on this cluster?" over a line-oriented
//! socket protocol, serving warm answers from a sharded in-memory cache in
//! microseconds and collapsing concurrent identical cold misses into a
//! single beam search.
//!
//! The request path is a staged, bounded pipeline — every stage has a fixed
//! resource bound, so load shows up as queueing (visible in `STATS` and the
//! probe gauges), never as unbounded threads or memory:
//!
//! ```text
//! conns (any number)                         ← one nonblocking reactor thread
//!   └─ bounded dispatch queue (ERR busy when full)
//!        └─ fixed worker pool               ← serve.pool.{queued,active,rejected}
//!             └─ TuneService: warm hit │ in-flight piggyback │ leader search
//!                  └─ shared SearchExecutor ← tune.executor.{reuses,queue_depth}
//! ```
//!
//! The pieces, bottom up:
//!
//! * [`shard::ShardedCache`] — the warm path: N independently `RwLock`ed
//!   shards keyed by FNV hash, so concurrent warm hits touch disjoint locks;
//!   bounded by a per-shard LRU entry cap and an idle TTL
//!   ([`shard::CachePolicy`]), with churn counted in
//!   `serve.cache.{evictions,expired}`;
//! * [`service::TuneService`] — request → cache-key quintuple → warm hit /
//!   in-flight piggyback / leader search, with the persistent
//!   [`tilelink_tune::TuneCache`] as write-behind storage and the probe
//!   counters `serve.requests.{warm,cold,deduped}` + `serve.inflight`
//!   threaded through;
//! * [`protocol`] — the wire grammar (`TUNE workload=MoE-1 routing=zipf:1.2
//!   objective=p95`, `PING`, `STATS`) and its response forms;
//! * [`server`] — the TCP front end: one reactor thread multiplexing every
//!   connection over nonblocking sockets, a fixed worker pool behind a
//!   bounded queue, and a minimal blocking [`server::Client`].
//!
//! Cold searches reuse the existing tuning stack unchanged: the same
//! [`tilelink_workloads::autotune::MlpOracle`]/[`tilelink_workloads::autotune::MoeOracle`],
//! the same [`tilelink_tune::Objective`] statistics, the same revision-keyed
//! cache invalidation — but evaluation now runs on the process-shared
//! [`tilelink_tune::SearchExecutor`], so concurrent cold searches interleave
//! on one warm thread pool instead of each spawning their own.

#![deny(missing_docs)]

pub mod protocol;
pub mod server;
pub mod service;
pub mod shard;

pub use protocol::{
    parse_command, parse_reply, parse_stats, Command, Reply, StatsFields, TuneRequest,
    WorkloadSpec, MAX_ROUTING_SAMPLES,
};
pub use server::{serve, serve_ephemeral, Client, ServerHandle, MAX_LINE_BYTES};
pub use service::{ServeOptions, Source, TuneOutcome, TuneService};
pub use shard::{CachePolicy, ShardedCache};
