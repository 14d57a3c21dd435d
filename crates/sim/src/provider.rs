//! The cost-provider abstraction: anything that can price simulated work.
//!
//! The engine, the timed executor and the autotuner used to hard-wire the
//! analytic [`CostModel`]; this module turns the cost model into a trait
//! boundary so alternative providers (e.g. the measured
//! [`crate::CalibratedCostModel`]) can be threaded through every consumer
//! without touching the scheduler.
//!
//! Each provider exposes a [`CostProvider::revision`] fingerprint. Consumers
//! that cache derived results (the `tilelink-tune` persistent tuning cache)
//! fold the revision into their keys, so caches self-invalidate whenever the
//! cost model changes.

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use crate::{CalibratedCostModel, ClusterSpec, CostModel, Result, Seconds, SimError, Task};

/// Converts simulated work into durations for one cluster.
///
/// The trait carries both the per-task pricing used by the discrete-event
/// engine ([`CostProvider::duration`]) and the closed-form helpers the
/// analytic baselines are built from, so a provider swap changes *every*
/// consumer consistently: the simulator, the timed executor, the resource
/// pass, the workload baselines and the tuner oracles.
pub trait CostProvider: std::fmt::Debug + Send + Sync {
    /// The cluster this provider prices work for.
    fn cluster(&self) -> &ClusterSpec;

    /// Duration of `task` when granted `units` of its resource.
    fn duration(&self, task: &Task, units: u64) -> Seconds;

    /// Stable fingerprint of the provider's formulas, constants and any
    /// loaded calibration data.
    ///
    /// Two providers that can return different durations for some task must
    /// return different revisions; the tuning cache relies on this to
    /// invalidate stale entries.
    fn revision(&self) -> String;

    /// Achieved fraction of peak for a GEMM tiled as `tile_m × tile_n` over
    /// `k` reduction steps (see [`CostModel::gemm_tile_efficiency`]).
    fn gemm_tile_efficiency(&self, tile_m: usize, tile_n: usize, k: usize) -> f64 {
        CostModel::gemm_tile_efficiency(tile_m, tile_n, k)
    }

    /// Seconds needed to run an `m × n × k` GEMM on `sms` SMs with the given
    /// tiling: its flops at the [`CostModel::gemm_efficiency`] of the
    /// cluster GPU's peak, scaled to the share of SMs it runs on.
    fn gemm_seconds(
        &self,
        m: usize,
        n: usize,
        k: usize,
        tile_m: usize,
        tile_n: usize,
        sms: u64,
    ) -> Seconds {
        let gpu = &self.cluster().gpu;
        let eff = CostModel::gemm_efficiency(m, n, k, tile_m, tile_n, sms);
        let fraction = (sms as f64 / gpu.sm_count as f64).min(1.0);
        CostModel::matmul_flops(m, n, k) / (gpu.peak_flops() * fraction * eff)
    }

    /// Seconds to stream `bytes` through HBM at full bandwidth.
    fn hbm_seconds(&self, bytes: f64) -> Seconds {
        bytes / self.cluster().gpu.hbm_bytes_per_s()
    }

    /// Seconds to move `bytes` from `src` to `dst` at full port bandwidth,
    /// floored at the link class's per-message α (consistent with how
    /// [`CostModel::duration`] prices [`crate::Work::LinkBytes`], so the
    /// closed-form baselines and the simulated path agree on small
    /// messages).
    fn link_seconds(&self, src: usize, dst: usize, bytes: f64) -> Seconds {
        let cluster = self.cluster();
        let alpha = crate::link_alpha_s(cluster.link_class(src, dst));
        (bytes / cluster.link_bytes_per_s(src, dst)).max(alpha)
    }
}

/// A shareable, thread-safe cost provider (the form every consumer threads).
pub type SharedCost = Arc<dyn CostProvider>;

/// The default provider: the analytic [`CostModel`] for `cluster`.
pub fn analytic_cost(cluster: &ClusterSpec) -> SharedCost {
    Arc::new(CostModel::new(cluster.clone()))
}

impl CostProvider for CostModel {
    fn cluster(&self) -> &ClusterSpec {
        self.cluster()
    }

    fn duration(&self, task: &Task, units: u64) -> Seconds {
        self.duration(task, units)
    }

    fn revision(&self) -> String {
        Self::REVISION.to_string()
    }
}

/// Which cost model to simulate with, as selected on a command line.
///
/// The string form accepted by [`CostModelSpec::from_str`] is the value of the
/// `--cost-model` flag of the `reproduce` binary and the `autotune` example:
/// `analytic`, `calibrated` (built-in H800 table) or `calibrated:<path>` (a
/// calibration TSV, see [`crate::LinkCalibration`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CostModelSpec {
    /// The analytic [`CostModel`] (the default; matches historical results).
    #[default]
    Analytic,
    /// The α/β + bucketed-bandwidth [`CalibratedCostModel`].
    Calibrated {
        /// Calibration TSV to load; `None` uses the built-in H800 defaults.
        path: Option<PathBuf>,
    },
}

impl CostModelSpec {
    /// Builds the provider this spec describes for `cluster`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Calibration`] if a calibration file cannot be read
    /// or parsed.
    pub fn build(&self, cluster: &ClusterSpec) -> Result<SharedCost> {
        match self {
            CostModelSpec::Analytic => Ok(analytic_cost(cluster)),
            CostModelSpec::Calibrated { path: None } => Ok(Arc::new(
                CalibratedCostModel::h800_defaults(cluster.clone()),
            )),
            CostModelSpec::Calibrated { path: Some(path) } => Ok(Arc::new(
                CalibratedCostModel::from_tsv_file(cluster.clone(), path)?,
            )),
        }
    }
}

impl FromStr for CostModelSpec {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "analytic" => Ok(CostModelSpec::Analytic),
            "calibrated" => Ok(CostModelSpec::Calibrated { path: None }),
            _ => match s.strip_prefix("calibrated:") {
                Some(path) if !path.is_empty() => Ok(CostModelSpec::Calibrated {
                    path: Some(PathBuf::from(path)),
                }),
                _ => Err(SimError::Calibration {
                    message: format!(
                        "unknown cost model {s:?} (expected analytic, calibrated or calibrated:<path>)"
                    ),
                }),
            },
        }
    }
}

impl std::fmt::Display for CostModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostModelSpec::Analytic => write!(f, "analytic"),
            CostModelSpec::Calibrated { path: None } => write!(f, "calibrated"),
            CostModelSpec::Calibrated { path: Some(p) } => {
                write!(f, "calibrated:{}", p.display())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResourceKind, Work};

    #[test]
    fn analytic_provider_matches_the_concrete_model() {
        let cluster = ClusterSpec::h800_node(8);
        let model = CostModel::new(cluster.clone());
        let provider = analytic_cost(&cluster);
        let task = Task::new(
            "g",
            0,
            ResourceKind::Sm,
            132,
            Work::MatmulFlops {
                flops: 1e12,
                efficiency: 0.8,
            },
        );
        assert_eq!(provider.duration(&task, 132), model.duration(&task, 132));
        assert_eq!(
            provider.gemm_seconds(4096, 4096, 4096, 128, 128, 132),
            model.gemm_seconds(4096, 4096, 4096, 128, 128, 132)
        );
        assert_eq!(provider.hbm_seconds(1e9), model.hbm_seconds(1e9));
        assert_eq!(
            provider.link_seconds(0, 1, 1e9),
            model.link_seconds(0, 1, 1e9)
        );
        assert_eq!(provider.revision(), CostModel::REVISION);
        assert_eq!(
            provider.gemm_tile_efficiency(128, 256, 4096),
            CostModel::gemm_tile_efficiency(128, 256, 4096)
        );
    }

    #[test]
    fn spec_round_trips_through_strings() {
        for text in ["analytic", "calibrated", "calibrated:/tmp/table.tsv"] {
            let spec: CostModelSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
        }
        assert!("bogus".parse::<CostModelSpec>().is_err());
        assert!("calibrated:".parse::<CostModelSpec>().is_err());
        assert_eq!(CostModelSpec::default(), CostModelSpec::Analytic);
    }

    #[test]
    fn spec_builds_distinct_revisions() {
        let cluster = ClusterSpec::h800_node(8);
        let analytic = CostModelSpec::Analytic.build(&cluster).unwrap();
        let calibrated = CostModelSpec::Calibrated { path: None }
            .build(&cluster)
            .unwrap();
        assert_ne!(analytic.revision(), calibrated.revision());
        assert!(calibrated.revision().starts_with("calibrated-"));
    }
}
