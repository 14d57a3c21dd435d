//! # tilelink-workloads
//!
//! The distributed layers the paper evaluates (Section 7), built on the
//! `tilelink` primitives and compiler, together with every baseline the paper
//! compares against:
//!
//! * [`shapes`] — Table 4's MLP / MoE / attention configurations and the eight
//!   end-to-end model configurations of Figure 11;
//! * [`mlp`] — tensor-parallel MLP: AllGather + GEMM and GEMM + ReduceScatter,
//!   both as *functional* overlapped kernels (real data, checked against an
//!   unoverlapped reference) and as *timed* kernels on the cluster simulator;
//! * [`moe`] — the MoE layer with dynamic routing and dynamic tile mapping;
//! * [`attention`] — sequence-parallel self-attention with copy-engine AllGather
//!   of the KV cache overlapped with flash attention;
//! * [`baselines`] — cuBLAS+NCCL (non-overlap), Async-TP (decomposition),
//!   FLUX-style fusion, CUTLASS+NCCL, vLLM-style fused MoE operators,
//!   RingAttention and the non-flash "Torch" attention baseline;
//! * [`e2e`] — end-to-end per-model estimates combining the layer results
//!   (Figure 11): one comparison per model of PyTorch against TileLink under
//!   the hand-picked layer configurations, with an optional tuned column;
//! * [`autotune`] — the [`autotune::LayerOracle`] that prices every MLP and
//!   MoE layer (routed or not) for `tilelink-tune`, and `tuned_*`
//!   constructors that *search* the overlap design space per layer instead
//!   of replaying the hand-picked defaults.
//!
//! The MLP, MoE and routed MoE program builders share one AllGather and one
//! ring ReduceScatter emitter (the private `comm` module), which also owns
//! the egress the tuner's lower bounds read.

#![deny(missing_docs)]

pub mod attention;
pub mod autotune;
pub mod baselines;
mod bounds;
mod comm;
pub mod e2e;
pub mod mlp;
pub mod moe;
pub mod shapes;

pub use autotune::{RoutingSpec, TuneOptions, TunedLayer, WorkloadSpec};
pub use e2e::{E2eComparison, TunedModelTiming};
pub use moe::{RoutingProfile, RoutingSample, RoutingSampler};
pub use shapes::{AttnShape, MlpShape, ModelConfig, MoeShape};
