//! # tilelink-serve
//!
//! Tuning-as-a-service: a long-running daemon that answers "what is the best
//! overlap config for this workload on this cluster?" over a line-oriented
//! socket protocol, serving warm answers from an in-memory LRU map in
//! microseconds and collapsing concurrent identical cold misses into a
//! single beam search.
//!
//! The request path is a staged, bounded pipeline — every stage has a fixed
//! resource bound, so load shows up as queueing (visible in `STATS` and the
//! probe gauges), never as unbounded threads or memory:
//!
//! ```text
//! conns (any number)                         ← one nonblocking reactor thread
//!   ├─ warm hits answered inline             ← serve.requests.warm
//!   └─ bounded dispatch queue (ERR busy when full)
//!        └─ fixed worker pool               ← serve.pool.{queued,active,rejected}
//!             └─ TuneService: warm hit │ in-flight piggyback │ leader search
//!                  └─ shared SearchExecutor ← tune.executor.{reuses,queue_depth}
//! ```
//!
//! The pieces, bottom up:
//!
//! * [`service::TuneService`] — request → oracle → cache-key prefix → warm
//!   hit / in-flight piggyback / leader search. Warm results live in one
//!   lock-guarded map capped at 4,096 entries that evicts its least recently
//!   used entry (`serve.cache.evictions`); the persistent
//!   [`tilelink_tune::TuneCache`] is write-behind storage, and the probe
//!   counters `serve.requests.{warm,cold,deduped}` + `serve.inflight` are
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
//! cache invalidation — and evaluation runs on the process-shared
//! [`tilelink_tune::SearchExecutor::global`], so concurrent cold searches
//! interleave on one warm thread pool instead of each spawning their own.

#![deny(missing_docs)]

pub mod protocol;
pub mod server;
pub mod service;

pub use protocol::{
    parse_command, parse_reply, parse_stats, Command, Reply, StatsFields, TuneRequest,
    WorkloadSpec, MAX_ROUTING_SAMPLES,
};
pub use server::{serve, serve_ephemeral, Client, ServerHandle, MAX_LINE_BYTES};
pub use service::{ServeOptions, Source, TuneOutcome, TuneService};
