//! Analytic cost model: converts work descriptions into durations.

use crate::{ClusterSpec, LinkClass, Seconds, Task, Work};

/// Per-message latency floor (α) of a self-copy, in seconds.
///
/// Even a zero-byte message (a barrier release, a signal flag) costs a memory
/// round trip; without the floor the simulator prices such tasks at exactly
/// 0 s, which lets degenerate schedules look free.
pub const ALPHA_SELF_S: Seconds = 0.15e-6;
/// Per-message latency floor (α) of an intra-node NVLink transfer, in seconds.
pub const ALPHA_INTRA_NODE_S: Seconds = 0.5e-6;
/// Per-message latency floor (α) of an inter-node InfiniBand transfer, in seconds.
pub const ALPHA_INTER_NODE_S: Seconds = 2.0e-6;

/// α floor for one link class (see [`ALPHA_SELF_S`] and friends).
pub fn link_alpha_s(class: LinkClass) -> Seconds {
    match class {
        LinkClass::SelfCopy => ALPHA_SELF_S,
        LinkClass::IntraNode => ALPHA_INTRA_NODE_S,
        LinkClass::InterNode => ALPHA_INTER_NODE_S,
    }
}

/// Fraction of the link a transfer task gets: port resources are percentage
/// shares, any other carrier (a DMA engine, the host) owns the full port.
pub(crate) fn link_share(task: &Task, units: u64) -> f64 {
    match task.resource {
        crate::ResourceKind::LinkOut | crate::ResourceKind::LinkIn => {
            (units as f64 / 100.0).clamp(1e-3, 1.0)
        }
        _ => 1.0,
    }
}

/// Converts [`Work`] into durations given a [`ClusterSpec`] and the number of
/// resource units a task was granted.
///
/// The model also provides the GEMM efficiency heuristics used when *building*
/// task graphs (tile efficiency and wave quantisation), because the achieved
/// fraction of peak depends on tile shape decisions made by the compiler, not
/// by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    cluster: ClusterSpec,
}

impl CostModel {
    /// Stable fingerprint of the analytic model's formulas and constants.
    ///
    /// Folded into tuning-cache keys (see `tilelink-tune`) so cached results
    /// evaluated under an older model revision self-invalidate. Bump this
    /// whenever a formula or constant in this file changes observable
    /// durations.
    pub const REVISION: &'static str = "analytic-v2";

    /// Creates a cost model for a cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self { cluster }
    }

    /// The cluster this model describes.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Duration of `task` when granted `units` of its resource.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero (the engine validates this before starting a task).
    pub fn duration(&self, task: &Task, units: u64) -> Seconds {
        assert!(units > 0, "granted units must be positive");
        let gpu = &self.cluster.gpu;
        match task.work {
            Work::MatmulFlops { flops, efficiency } => {
                let fraction = units as f64 / gpu.sm_count as f64;
                let fraction = fraction.min(1.0);
                flops / (gpu.peak_flops() * fraction * efficiency.clamp(1e-3, 1.0))
            }
            Work::HbmBytes { bytes } => {
                let fraction = (units as f64 / gpu.sm_count as f64).min(1.0);
                // A handful of SMs is enough to saturate HBM; model bandwidth as
                // saturating once ~25% of the SMs participate.
                let achievable = (fraction * 4.0).min(1.0);
                bytes / (gpu.hbm_bytes_per_s() * achievable.max(1e-3))
            }
            Work::LinkBytes { bytes, dst_rank } => {
                let bw = self.cluster.link_bytes_per_s(task.rank, dst_rank);
                let share = link_share(task, units);
                // A transfer can never beat the per-message latency of its
                // link class: the α floor keeps barrier/signal-sized messages
                // from costing 0 s. Sub-floor transfers only occur for
                // messages well under ~100 KB, so bandwidth-bound transfers
                // are priced exactly as before.
                let alpha = link_alpha_s(self.cluster.link_class(task.rank, dst_rank));
                (bytes / (bw * share)).max(alpha)
            }
            Work::Latency { seconds } => seconds,
        }
    }

    /// Total floating-point operations of an `m × n × k` GEMM.
    pub fn matmul_flops(m: usize, n: usize, k: usize) -> f64 {
        2.0 * m as f64 * n as f64 * k as f64
    }

    /// Achieved fraction of peak for a GEMM executed with `tile_m × tile_n`
    /// output tiles over `k` reduction steps.
    ///
    /// The heuristic captures the two effects the paper leans on when arguing
    /// for decoupled tile sizes (Section 3.1 and the Async-TP discussion in
    /// Section 7.2):
    ///
    /// * small output tiles cannot keep the tensor cores busy (low arithmetic
    ///   intensity → lower efficiency);
    /// * small `k` extents pay a larger share of prologue/epilogue overhead.
    pub fn gemm_tile_efficiency(tile_m: usize, tile_n: usize, k: usize) -> f64 {
        // Reference point: a 128x128 tile with a deep reduction reaches ~85% of peak.
        let tile_area = (tile_m * tile_n) as f64;
        let area_factor = (tile_area / (128.0 * 128.0)).min(1.0).powf(0.35);
        let depth_factor = (k as f64 / 512.0).min(1.0).powf(0.25);
        (0.85 * area_factor * depth_factor).clamp(0.05, 0.92)
    }

    /// Wave-quantisation efficiency: the fraction of the last wave that does
    /// useful work when `tiles` thread blocks are scheduled onto `sms` SMs.
    ///
    /// This is the "resource quantization inefficiency" the paper attributes to
    /// decomposed kernels (Section 2.2, citing Stream-K).
    pub fn wave_quantization(tiles: usize, sms: u64) -> f64 {
        if tiles == 0 || sms == 0 {
            return 1.0;
        }
        let waves = (tiles as f64 / sms as f64).ceil();
        let useful = tiles as f64 / sms as f64;
        (useful / waves).clamp(0.05, 1.0)
    }

    /// Combined GEMM efficiency for an `m × n × k` problem tiled as
    /// `tile_m × tile_n` on `sms` SMs.
    pub fn gemm_efficiency(
        m: usize,
        n: usize,
        k: usize,
        tile_m: usize,
        tile_n: usize,
        sms: u64,
    ) -> f64 {
        let tiles = m.div_ceil(tile_m) * n.div_ceil(tile_n);
        Self::gemm_tile_efficiency(tile_m, tile_n, k) * Self::wave_quantization(tiles, sms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostProvider, GpuSpec, ResourceKind};

    fn model() -> CostModel {
        CostModel::new(ClusterSpec::h800_node(8))
    }

    #[test]
    fn matmul_duration_scales_with_sms() {
        let m = model();
        let task_full = Task::new(
            "g",
            0,
            ResourceKind::Sm,
            132,
            Work::MatmulFlops {
                flops: 1e12,
                efficiency: 0.8,
            },
        );
        let full = m.duration(&task_full, 132);
        let half = m.duration(&task_full, 66);
        assert!((half / full - 2.0).abs() < 1e-9);
    }

    #[test]
    fn link_duration_uses_topology() {
        let multi = CostModel::new(ClusterSpec::h800_multi_node(2));
        let intra = Task::new(
            "c",
            0,
            ResourceKind::LinkOut,
            100,
            Work::LinkBytes {
                bytes: 1e9,
                dst_rank: 1,
            },
        );
        let inter = Task::new(
            "c",
            0,
            ResourceKind::LinkOut,
            100,
            Work::LinkBytes {
                bytes: 1e9,
                dst_rank: 8,
            },
        );
        assert!(multi.duration(&inter, 100) > multi.duration(&intra, 100));
    }

    #[test]
    fn tiny_link_messages_pay_the_alpha_floor() {
        // A 1-byte signal used to cost ~0 s; it must now pay the per-message
        // latency of its link class.
        let multi = CostModel::new(ClusterSpec::h800_multi_node(2));
        for (dst, alpha) in [
            (0usize, ALPHA_SELF_S),
            (1, ALPHA_INTRA_NODE_S),
            (8, ALPHA_INTER_NODE_S),
        ] {
            let t = Task::new(
                "sig",
                0,
                ResourceKind::DmaEngine,
                1,
                Work::LinkBytes {
                    bytes: 1.0,
                    dst_rank: dst,
                },
            );
            assert_eq!(multi.duration(&t, 1), alpha, "dst {dst}");
        }
    }

    #[test]
    fn bulk_link_transfers_are_unaffected_by_the_alpha_floor() {
        // 1 GB over NVLink takes 5 ms >> α: the floor must not perturb it.
        let m = model();
        let t = Task::new(
            "c",
            0,
            ResourceKind::DmaEngine,
            1,
            Work::LinkBytes {
                bytes: 1e9,
                dst_rank: 1,
            },
        );
        let expected = 1e9 / m.cluster().gpu.nvlink_bytes_per_s();
        assert_eq!(m.duration(&t, 1), expected);
    }

    #[test]
    fn latency_is_independent_of_units() {
        let m = model();
        let t = Task::new(
            "l",
            0,
            ResourceKind::Host,
            1,
            Work::Latency { seconds: 1e-5 },
        );
        assert_eq!(m.duration(&t, 1), 1e-5);
    }

    #[test]
    fn hbm_saturates_with_quarter_of_sms() {
        let m = model();
        let t = Task::new("h", 0, ResourceKind::Sm, 132, Work::HbmBytes { bytes: 1e9 });
        let quarter = m.duration(&t, 33);
        let full = m.duration(&t, 132);
        assert!((quarter / full - 1.0).abs() < 0.05);
        // ...but a very small SM share is bandwidth-limited.
        let tiny = m.duration(&t, 4);
        assert!(tiny > full * 2.0);
    }

    #[test]
    fn tile_efficiency_prefers_larger_tiles() {
        let small = CostModel::gemm_tile_efficiency(32, 32, 4096);
        let large = CostModel::gemm_tile_efficiency(128, 256, 4096);
        assert!(large > small);
        assert!(large <= 0.92);
        assert!(small >= 0.05);
    }

    #[test]
    fn wave_quantization_penalises_partial_waves() {
        // 133 tiles on 132 SMs → two waves, second nearly empty.
        let bad = CostModel::wave_quantization(133, 132);
        let good = CostModel::wave_quantization(264, 132);
        assert!(bad < 0.55);
        assert!(good > 0.99);
    }

    #[test]
    fn gemm_seconds_sane_magnitude() {
        // 8192 x 11008 x 4096 BF16 GEMM on a full H800 should take on the order
        // of a millisecond (the paper's Table 2 measures ~0.5 ms for the
        // tensor-parallel shard of this GEMM).
        let m = model();
        let t = m.gemm_seconds(8192, 11008, 4096, 128, 128, 132);
        assert!(t > 1e-4 && t < 5e-3, "unexpected GEMM time {t}");
    }

    #[test]
    fn gemm_seconds_decreases_with_more_sms() {
        let m = model();
        let few = m.gemm_seconds(4096, 4096, 4096, 128, 128, 32);
        let many = m.gemm_seconds(4096, 4096, 4096, 128, 128, 128);
        assert!(many < few);
    }

    #[test]
    fn link_seconds_helper_applies_the_same_alpha_floor_as_duration() {
        // The closed-form helper the baselines use must agree with the
        // engine's per-task pricing on tiny messages.
        let m = CostModel::new(ClusterSpec::h800_multi_node(2));
        assert_eq!(m.link_seconds(0, 1, 1.0), ALPHA_INTRA_NODE_S);
        assert_eq!(m.link_seconds(0, 8, 1.0), ALPHA_INTER_NODE_S);
        assert_eq!(m.link_seconds(0, 0, 1.0), ALPHA_SELF_S);
        // Bandwidth-bound transfers are unaffected.
        let bulk = 1e9 / m.cluster().gpu.nvlink_bytes_per_s();
        assert_eq!(m.link_seconds(0, 1, 1e9), bulk);
    }

    #[test]
    fn helper_times_positive() {
        let m = model();
        assert!(m.hbm_seconds(1e6) > 0.0);
        assert!(m.link_seconds(0, 1, 1e6) > 0.0);
        assert!(CostModel::matmul_flops(2, 3, 4) == 48.0);
        let _ = GpuSpec::h800();
    }
}
