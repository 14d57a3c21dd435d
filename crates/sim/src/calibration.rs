//! Measured transfer-cost calibration: α/β latency plus size-bucketed
//! achieved bandwidth per link class.
//!
//! The analytic [`CostModel`] prices a transfer as `bytes / bandwidth` with a
//! small per-message α floor. Real interconnects behave differently: achieved
//! bandwidth ramps with message size (a 4 KB NVLink put reaches a few percent
//! of peak, a 64 MB put reaches ~95%), and every message pays a fixed launch
//! latency. Both T3 (Pati et al.) and AMD's DMA design-space exploration model
//! transfers exactly this way — `t = α + bytes / (β · achieved(bytes))` — and
//! that is what [`CalibratedCostModel`] implements on top of the analytic
//! base: GEMM/HBM/latency work is priced unchanged, link work goes through the
//! calibration table.
//!
//! Tables are loadable from a TSV (one bucket per line) so measured numbers
//! from a real machine can be dropped in without recompiling:
//!
//! ```text
//! # class  max_bytes  alpha_us  achieved_frac
//! nvlink   4096       1.2       0.05
//! nvlink   65536      1.2       0.35
//! nvlink   inf        1.2       0.95
//! ```
//!
//! `class` is one of `self`, `nvlink`, `ib` (see [`LinkClass`]); `max_bytes`
//! is the inclusive upper edge of the bucket (`inf` for the last); `alpha_us`
//! is the per-message latency in microseconds; `achieved_frac` is the
//! fraction of the class's peak bandwidth reached inside the bucket.

use std::path::Path;

use crate::{
    cost, ClusterSpec, CostModel, CostProvider, LinkClass, Result, Seconds, SimError, Task, Work,
};

/// One size bucket of a link class's achieved-bandwidth curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthBucket {
    /// Inclusive upper edge of the bucket in bytes (`f64::INFINITY` for the last).
    pub max_bytes: f64,
    /// Per-message latency (α) inside this bucket, in microseconds.
    pub alpha_us: f64,
    /// Fraction of the class's peak bandwidth achieved inside this bucket.
    pub achieved_frac: f64,
}

impl BandwidthBucket {
    /// α in seconds.
    pub fn alpha_s(&self) -> Seconds {
        self.alpha_us * 1e-6
    }
}

/// A per-link-class calibration table (see the module docs for the format).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkCalibration {
    /// Buckets per class, sorted by ascending `max_bytes`. Indexed through
    /// [`LinkCalibration::class_index`]; an empty class falls back to the
    /// analytic model.
    buckets: [Vec<BandwidthBucket>; 3],
}

fn class_index(class: LinkClass) -> usize {
    match class {
        LinkClass::SelfCopy => 0,
        LinkClass::IntraNode => 1,
        LinkClass::InterNode => 2,
    }
}

impl LinkCalibration {
    /// An empty table: every class falls back to the analytic model.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Built-in defaults for the paper's H800 platform: the table shipped as
    /// `data/h800-calibration.tsv`, compiled in.
    ///
    /// The bucket edges and fractions follow the shape of published NVLink /
    /// InfiniBand message-rate curves (latency-bound below ~64 KB, ramping to
    /// ~95% of peak beyond a few MB); they are deliberately coarse — the point
    /// is the *structure* (α plus size-dependent β), with the TSV loader as
    /// the path for dropping in measured numbers.
    pub fn h800_defaults() -> Self {
        Self::from_tsv(include_str!("../../../data/h800-calibration.tsv"))
            .expect("the shipped H800 calibration table parses")
    }

    /// Replaces one class's buckets (kept sorted by `max_bytes`).
    pub fn set_class(&mut self, class: LinkClass, mut buckets: Vec<BandwidthBucket>) {
        buckets.sort_by(|a, b| a.max_bytes.total_cmp(&b.max_bytes));
        self.buckets[class_index(class)] = buckets;
    }

    /// The buckets of one class (empty slice if uncalibrated).
    pub fn class(&self, class: LinkClass) -> &[BandwidthBucket] {
        &self.buckets[class_index(class)]
    }

    /// Returns `true` if no class has any bucket.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// The bucket pricing a `bytes`-sized message on `class`, or `None` if
    /// the class is uncalibrated. Messages beyond the last bucket edge use
    /// the last bucket.
    pub fn bucket(&self, class: LinkClass, bytes: f64) -> Option<&BandwidthBucket> {
        let buckets = self.class(class);
        buckets
            .iter()
            .find(|b| bytes <= b.max_bytes)
            .or_else(|| buckets.last())
    }

    /// Calibrated seconds for `bytes` on `class` at `peak_bytes_per_s`, or
    /// `None` if the class is uncalibrated.
    pub fn transfer_seconds(
        &self,
        class: LinkClass,
        peak_bytes_per_s: f64,
        bytes: f64,
    ) -> Option<Seconds> {
        self.bucket(class, bytes)
            .map(|b| b.alpha_s() + bytes / (peak_bytes_per_s * b.achieved_frac))
    }

    /// Parses a calibration table from TSV text (see the module docs).
    ///
    /// Unlike the forgiving tuning-cache loader, parsing is strict: a
    /// calibration table is authored, not appended, so a malformed line is an
    /// error rather than silently dropped data.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Calibration`] on an unknown class tag, a
    /// non-numeric field, an achieved fraction outside `(0, 1]`, a negative
    /// or non-finite α, non-monotone bucket edges within a class, or a class whose last
    /// bucket edge is not `inf`.
    pub fn from_tsv(text: &str) -> Result<Self> {
        let bad = |line_no: usize, message: String| SimError::Calibration {
            message: format!("line {line_no}: {message}"),
        };
        let mut per_class: [Vec<BandwidthBucket>; 3] = Default::default();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [class, max_bytes, alpha_us, achieved_frac] = fields.as_slice() else {
                return Err(bad(
                    line_no,
                    format!(
                        "expected 4 fields (class, max_bytes, alpha_us, achieved_frac), got {}",
                        fields.len()
                    ),
                ));
            };
            let class = LinkClass::from_tag(class).ok_or_else(|| {
                bad(
                    line_no,
                    format!("unknown link class {class:?} (expected self, nvlink or ib)"),
                )
            })?;
            let max_bytes = if *max_bytes == "inf" {
                f64::INFINITY
            } else {
                max_bytes
                    .parse::<f64>()
                    .map_err(|e| bad(line_no, format!("bad max_bytes: {e}")))?
            };
            let alpha_us = alpha_us
                .parse::<f64>()
                .map_err(|e| bad(line_no, format!("bad alpha_us: {e}")))?;
            let achieved_frac = achieved_frac
                .parse::<f64>()
                .map_err(|e| bad(line_no, format!("bad achieved_frac: {e}")))?;
            if max_bytes.is_nan() || max_bytes <= 0.0 {
                return Err(bad(
                    line_no,
                    format!("max_bytes must be positive, got {max_bytes}"),
                ));
            }
            // An infinite α (`inf`, or a literal like `1e309` that overflows)
            // would make every transfer of the class infinitely slow.
            if !alpha_us.is_finite() || alpha_us < 0.0 {
                return Err(bad(
                    line_no,
                    format!("alpha_us must be >= 0 and finite, got {alpha_us}"),
                ));
            }
            if achieved_frac.is_nan() || achieved_frac <= 0.0 || achieved_frac > 1.0 {
                return Err(bad(
                    line_no,
                    format!("achieved_frac must be in (0, 1], got {achieved_frac}"),
                ));
            }
            per_class[class_index(class)].push(BandwidthBucket {
                max_bytes,
                alpha_us,
                achieved_frac,
            });
        }
        let mut cal = Self::empty();
        for class in LinkClass::ALL {
            let buckets = std::mem::take(&mut per_class[class_index(class)]);
            // Bucket edges must be authored in strictly increasing order: a
            // duplicated or out-of-order edge is almost always a typo in a
            // hand-edited table, and silently re-sorting it would hide which
            // bucket actually prices a message.
            for pair in buckets.windows(2) {
                if pair[1].max_bytes <= pair[0].max_bytes {
                    return Err(SimError::Calibration {
                        message: format!(
                            "class {:?} bucket edges must be strictly increasing, got {} after {}",
                            class.tag(),
                            pair[1].max_bytes,
                            pair[0].max_bytes
                        ),
                    });
                }
            }
            // A calibrated class must cover every message size: without a
            // final `inf` bucket, arbitrarily large transfers would silently
            // inherit the last (typically small-message) achieved fraction.
            if let Some(last) = buckets.iter().map(|b| b.max_bytes).reduce(f64::max) {
                if last.is_finite() {
                    return Err(SimError::Calibration {
                        message: format!(
                            "class {:?} has no `inf` bucket: its largest edge is {last} bytes,                              leaving bigger messages priced by the wrong bucket",
                            class.tag()
                        ),
                    });
                }
            }
            cal.set_class(class, buckets);
        }
        if cal.is_empty() {
            return Err(SimError::Calibration {
                message: "calibration table contains no buckets".to_string(),
            });
        }
        Ok(cal)
    }

    /// Loads a calibration table from a TSV file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Calibration`] if the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SimError::Calibration {
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::from_tsv(&text).map_err(|e| match e {
            SimError::Calibration { message } => SimError::Calibration {
                message: format!("{}: {message}", path.display()),
            },
            other => other,
        })
    }

    /// Serialises the table back to its canonical TSV form.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# class\tmax_bytes\talpha_us\tachieved_frac\n");
        for class in LinkClass::ALL {
            for b in self.class(class) {
                let edge = if b.max_bytes.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{}", b.max_bytes)
                };
                out.push_str(&format!(
                    "{}\t{edge}\t{}\t{}\n",
                    class.tag(),
                    b.alpha_us,
                    b.achieved_frac
                ));
            }
        }
        out
    }

    /// Order-independent fingerprint of the table contents (FNV-1a over the
    /// canonical TSV form). Feeds [`CostProvider::revision`].
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut hash = FNV_OFFSET;
        for byte in self.to_tsv().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash
    }
}

/// A [`CostProvider`] layering a [`LinkCalibration`] over the analytic model.
///
/// Compute, HBM and latency work is priced by the analytic [`CostModel`]
/// unchanged; link transfers pay `α + bytes / (peak · achieved(bytes) · share)`
/// from the calibration table of their link class. Classes absent from the
/// table fall back to the analytic pricing (including its α floor).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedCostModel {
    base: CostModel,
    calibration: LinkCalibration,
}

impl CalibratedCostModel {
    /// Creates a calibrated model from an explicit table.
    pub fn new(cluster: ClusterSpec, calibration: LinkCalibration) -> Self {
        Self {
            base: CostModel::new(cluster),
            calibration,
        }
    }

    /// Creates a calibrated model with the built-in H800 defaults.
    pub fn h800_defaults(cluster: ClusterSpec) -> Self {
        Self::new(cluster, LinkCalibration::h800_defaults())
    }

    /// Creates a calibrated model from a calibration TSV file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Calibration`] if the file cannot be read or parsed.
    pub fn from_tsv_file(cluster: ClusterSpec, path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::new(cluster, LinkCalibration::load(path)?))
    }

    /// The calibration table in use.
    pub fn calibration(&self) -> &LinkCalibration {
        &self.calibration
    }
}

impl CostProvider for CalibratedCostModel {
    fn cluster(&self) -> &ClusterSpec {
        self.base.cluster()
    }

    fn duration(&self, task: &Task, units: u64) -> Seconds {
        match task.work {
            Work::LinkBytes { bytes, dst_rank } => {
                let cluster = self.base.cluster();
                let class = cluster.link_class(task.rank, dst_rank);
                let peak = cluster.link_bytes_per_s(task.rank, dst_rank);
                match self.calibration.bucket(class, bytes) {
                    Some(b) => {
                        let share = cost::link_share(task, units);
                        b.alpha_s() + bytes / (peak * b.achieved_frac * share)
                    }
                    None => self.base.duration(task, units),
                }
            }
            _ => self.base.duration(task, units),
        }
    }

    fn link_seconds(&self, src: usize, dst: usize, bytes: f64) -> Seconds {
        let cluster = self.base.cluster();
        let class = cluster.link_class(src, dst);
        let peak = cluster.link_bytes_per_s(src, dst);
        self.calibration
            .transfer_seconds(class, peak, bytes)
            .unwrap_or_else(|| self.base.link_seconds(src, dst, bytes))
    }

    fn revision(&self) -> String {
        format!("calibrated-{:016x}", self.calibration.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResourceKind;

    fn calibrated() -> CalibratedCostModel {
        CalibratedCostModel::h800_defaults(ClusterSpec::h800_multi_node(2))
    }

    fn link_task(bytes: f64, dst: usize) -> Task {
        Task::new(
            "c",
            0,
            ResourceKind::DmaEngine,
            1,
            Work::LinkBytes {
                bytes,
                dst_rank: dst,
            },
        )
    }

    #[test]
    fn small_messages_cost_strictly_more_than_zero() {
        let m = calibrated();
        for dst in [0usize, 1, 8] {
            for bytes in [0.0, 1.0, 512.0] {
                let t = m.duration(&link_task(bytes, dst), 1);
                assert!(t > 0.0, "dst {dst} bytes {bytes}: {t}");
            }
        }
    }

    #[test]
    fn small_messages_are_latency_bound_and_slower_than_analytic() {
        let m = calibrated();
        let analytic = CostModel::new(ClusterSpec::h800_multi_node(2));
        let t = link_task(4096.0, 1);
        let calibrated_s = CostProvider::duration(&m, &t, 1);
        let analytic_s = analytic.duration(&t, 1);
        // 4 KB over NVLink: α ≈ 1.2 µs dominates; the analytic α floor is 0.5 µs.
        assert!(calibrated_s > analytic_s, "{calibrated_s} vs {analytic_s}");
        assert!(calibrated_s > 1.2e-6);
    }

    #[test]
    fn large_messages_approach_peak_bandwidth() {
        let m = calibrated();
        let bytes = 256e6;
        let t = CostProvider::duration(&m, &link_task(bytes, 1), 1);
        let at_peak = bytes / m.cluster().gpu.nvlink_bytes_per_s();
        assert!(t < at_peak / 0.9, "{t} vs {at_peak}");
        assert!(t > at_peak, "achieved bandwidth can never beat peak");
    }

    #[test]
    fn achieved_bandwidth_is_monotone_in_message_size() {
        let m = calibrated();
        let sizes = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
        let mut last = 0.0;
        for &bytes in &sizes {
            let t = CostProvider::duration(&m, &link_task(bytes, 1), 1);
            let achieved = bytes / t;
            assert!(achieved > last, "bandwidth dips at {bytes} B");
            last = achieved;
        }
    }

    #[test]
    fn non_link_work_is_priced_by_the_analytic_base() {
        let m = calibrated();
        let analytic = CostModel::new(ClusterSpec::h800_multi_node(2));
        let gemm = Task::new(
            "g",
            0,
            ResourceKind::Sm,
            132,
            Work::MatmulFlops {
                flops: 1e12,
                efficiency: 0.8,
            },
        );
        assert_eq!(
            CostProvider::duration(&m, &gemm, 132),
            analytic.duration(&gemm, 132)
        );
        let hbm = Task::new("h", 0, ResourceKind::Sm, 132, Work::HbmBytes { bytes: 1e9 });
        assert_eq!(
            CostProvider::duration(&m, &hbm, 132),
            analytic.duration(&hbm, 132)
        );
    }

    #[test]
    fn tsv_round_trip_preserves_table_and_fingerprint() {
        let table = LinkCalibration::h800_defaults();
        let reparsed = LinkCalibration::from_tsv(&table.to_tsv()).unwrap();
        assert_eq!(table, reparsed);
        assert_eq!(table.fingerprint(), reparsed.fingerprint());
    }

    #[test]
    fn different_tables_have_different_fingerprints() {
        let a = LinkCalibration::h800_defaults();
        let mut b = a.clone();
        b.set_class(
            LinkClass::IntraNode,
            vec![BandwidthBucket {
                max_bytes: f64::INFINITY,
                alpha_us: 2.0,
                achieved_frac: 0.5,
            }],
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        let ma = CalibratedCostModel::new(ClusterSpec::default(), a);
        let mb = CalibratedCostModel::new(ClusterSpec::default(), b);
        assert_ne!(ma.revision(), mb.revision());
    }

    #[test]
    fn malformed_tables_are_rejected_with_line_numbers() {
        for (text, needle) in [
            ("nvlink\t100", "expected 4 fields"),
            ("warp\t100\t1.0\t0.5", "unknown link class"),
            ("nvlink\tabc\t1.0\t0.5", "bad max_bytes"),
            ("nvlink\t100\t-1.0\t0.5", "alpha_us must be >= 0"),
            ("nvlink\tinf\tinf\t0.5", "alpha_us must be >= 0 and finite"),
            (
                "nvlink\tinf\t1e309\t0.5",
                "alpha_us must be >= 0 and finite",
            ),
            ("nvlink\t100\t1.0\t1.5", "achieved_frac must be in (0, 1]"),
            ("nvlink\t100\t1.0\t0.0", "achieved_frac must be in (0, 1]"),
            ("nvlink\t-5\t1.0\t0.5", "max_bytes must be positive"),
            ("nvlink\t4096\t1.2\t0.05", "no `inf` bucket"),
            ("# only a comment\n", "no buckets"),
        ] {
            let err = LinkCalibration::from_tsv(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?}: {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn shipped_calibration_tsv_round_trips_to_the_builtin_defaults() {
        // The repository ships data/h800-calibration.tsv as the worked example
        // of the TSV format; it must stay loadable and exactly equal to the
        // built-in defaults (same buckets, same fingerprint, same revision),
        // so `--cost-model calibrated` and `--cost-model calibrated:<path>`
        // price identically out of the box.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../data/h800-calibration.tsv"
        );
        let shipped = LinkCalibration::load(path).unwrap();
        let builtin = LinkCalibration::h800_defaults();
        assert_eq!(shipped, builtin);
        assert_eq!(shipped.fingerprint(), builtin.fingerprint());
        let cluster = ClusterSpec::h800_node(8);
        assert_eq!(
            CalibratedCostModel::new(cluster.clone(), shipped.clone()).revision(),
            CalibratedCostModel::new(cluster, builtin).revision()
        );
        // And the canonical serialisation round-trips the shipped table.
        let reparsed = LinkCalibration::from_tsv(&shipped.to_tsv()).unwrap();
        assert_eq!(shipped, reparsed);
    }

    #[test]
    fn loader_failure_modes_produce_distinct_errors() {
        // Each malformed table must fail with its own diagnosable message:
        // a missing `inf` bucket, non-monotone bucket edges and an unknown
        // link class are different authoring mistakes.
        let missing_inf = LinkCalibration::from_tsv("nvlink\t4096\t1.2\t0.05")
            .unwrap_err()
            .to_string();
        let non_monotone = LinkCalibration::from_tsv(
            "nvlink\t65536\t1.2\t0.35\nnvlink\t4096\t1.2\t0.05\nnvlink\tinf\t1.2\t0.95",
        )
        .unwrap_err()
        .to_string();
        let duplicate_edge = LinkCalibration::from_tsv(
            "nvlink\t4096\t1.2\t0.05\nnvlink\t4096\t1.2\t0.35\nnvlink\tinf\t1.2\t0.95",
        )
        .unwrap_err()
        .to_string();
        let bad_class = LinkCalibration::from_tsv("pcie\tinf\t1.2\t0.5")
            .unwrap_err()
            .to_string();
        assert!(missing_inf.contains("no `inf` bucket"), "{missing_inf}");
        assert!(
            non_monotone.contains("strictly increasing"),
            "{non_monotone}"
        );
        assert!(
            duplicate_edge.contains("strictly increasing"),
            "{duplicate_edge}"
        );
        assert!(bad_class.contains("unknown link class"), "{bad_class}");
        for (a, b) in [
            (&missing_inf, &non_monotone),
            (&missing_inf, &bad_class),
            (&non_monotone, &bad_class),
        ] {
            assert_ne!(a, b, "failure modes must be distinguishable");
        }
    }

    #[test]
    fn missing_class_falls_back_to_analytic() {
        let table = LinkCalibration::from_tsv("nvlink\tinf\t1.0\t0.9").unwrap();
        let cluster = ClusterSpec::h800_multi_node(2);
        let m = CalibratedCostModel::new(cluster.clone(), table);
        let analytic = CostModel::new(cluster);
        // IB is uncalibrated here: identical to the analytic model.
        let inter = link_task(1e8, 8);
        assert_eq!(
            CostProvider::duration(&m, &inter, 1),
            analytic.duration(&inter, 1)
        );
        assert_eq!(m.link_seconds(0, 8, 1e8), analytic.link_seconds(0, 8, 1e8));
        // NVLink is calibrated: slower than the pure-bandwidth analytic price.
        let intra = link_task(1e8, 1);
        assert!(CostProvider::duration(&m, &intra, 1) > analytic.duration(&intra, 1));
    }

    #[test]
    fn load_surfaces_io_errors_with_the_path() {
        let err = LinkCalibration::load("/nonexistent/calibration.tsv").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/calibration.tsv"));
    }
}
