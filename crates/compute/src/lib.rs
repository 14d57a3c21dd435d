//! # tilelink-compute
//!
//! Functional (f32) implementations of the dense kernels that the paper's
//! workloads are built from, standing in for cuBLAS, CUTLASS, vLLM's fused MoE
//! kernels and Flash-Attention:
//!
//! * [`Tensor`] — a minimal row-major dense tensor;
//! * [`gemm`] — reference and tiled matrix multiplication, plus single-tile
//!   helpers used by the TileLink tile programs;
//! * [`group_gemm`] — grouped GEMM over per-expert weights for MoE layers;
//! * [`attention`] — reference attention and an online-softmax (flash)
//!   accumulator that consumes KV tiles incrementally, exactly the shape of
//!   computation the overlapped AG-KV + attention kernel needs;
//! * [`activation`] — SiLU, the SiLU-mul gate of LLaMA-style MLPs and a row
//!   softmax;
//! * [`topk`] — softmax gating, top-k expert selection and token dispatch for
//!   MoE layers.
//!
//! Everything here is single-device math: distribution, tiling across ranks and
//! overlap are handled by the `tilelink` and `tilelink-workloads` crates.

#![deny(missing_docs)]

pub mod activation;
pub mod attention;
pub mod gemm;
pub mod group_gemm;
pub mod tensor;
pub mod topk;

pub use attention::FlashAccumulator;
pub use tensor::Tensor;
pub use topk::Dispatch;
