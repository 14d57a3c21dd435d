//! Overlap reports: the measurements the paper's figures plot.

/// Timing summary of one kernel or layer execution.
///
/// `comm_only` and `comp_only` are the times the communication and computation
/// parts would take in isolation; `total` is the overlapped execution time.
/// [`OverlapReport::overlap_ratio`] is the paper's metric from Section 7.2:
///
/// ```text
/// ratio = (comp_only_time + comm_only_time − overlap_time) / comm_only_time
/// ```
///
/// i.e. the fraction of the communication time that was hidden underneath
/// computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapReport {
    /// Overlapped wall-clock time, in seconds.
    pub total_s: f64,
    /// Communication-only time, in seconds.
    pub comm_only_s: f64,
    /// Computation-only time, in seconds.
    pub comp_only_s: f64,
}

impl OverlapReport {
    /// Creates a report.
    pub fn new(total_s: f64, comm_only_s: f64, comp_only_s: f64) -> Self {
        Self {
            total_s,
            comm_only_s,
            comp_only_s,
        }
    }

    /// The report of a layer that runs `first`, an elementwise step of
    /// `act_s` seconds (counted as computation) and `second` back to back.
    ///
    /// Totals sum as `(first + second) + act_s`: every pinned layer figure
    /// and the tuner's makespan composition use that association, so exact
    /// and makespan-only layer prices agree to the bit.
    pub fn layer(first: OverlapReport, act_s: f64, second: OverlapReport) -> Self {
        Self::new(
            first.total_s + second.total_s + act_s,
            first.comm_only_s + second.comm_only_s,
            first.comp_only_s + second.comp_only_s + act_s,
        )
    }

    /// Overlapped time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// Fraction of the communication time hidden by overlap (Section 7.2).
    ///
    /// Returns 0 when there is no communication.
    pub fn overlap_ratio(&self) -> f64 {
        if self.comm_only_s <= 0.0 {
            return 0.0;
        }
        ((self.comp_only_s + self.comm_only_s - self.total_s) / self.comm_only_s).clamp(0.0, 1.0)
    }

    /// Speed-up of this execution relative to `baseline` (`baseline / self`).
    pub fn speedup_over(&self, baseline: &OverlapReport) -> f64 {
        baseline.total_s / self.total_s
    }
}

impl std::fmt::Display for OverlapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:.3} ms (comm-only {:.3} ms, compute-only {:.3} ms, overlap ratio {:.1}%)",
            self.total_s * 1e3,
            self.comm_only_s * 1e3,
            self.comp_only_s * 1e3,
            self.overlap_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_ratio_matches_paper_formula() {
        // compute 2ms, comm 1ms, overlapped total 2.4ms → 60% of comm hidden.
        let r = OverlapReport::new(2.4e-3, 1e-3, 2e-3);
        assert!((r.overlap_ratio() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn fully_serial_execution_has_zero_ratio() {
        let r = OverlapReport::new(3e-3, 1e-3, 2e-3);
        assert_eq!(r.overlap_ratio(), 0.0);
    }

    #[test]
    fn fully_hidden_communication_has_ratio_one() {
        let r = OverlapReport::new(2e-3, 1e-3, 2e-3);
        assert_eq!(r.overlap_ratio(), 1.0);
    }

    #[test]
    fn zero_comm_is_well_defined() {
        let r = OverlapReport::new(1.0, 0.0, 1.0);
        assert_eq!(r.overlap_ratio(), 0.0);
    }

    #[test]
    fn speedups() {
        let fast = OverlapReport::new(1e-3, 0.0, 0.0);
        let slow = OverlapReport::new(2e-3, 0.0, 0.0);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-9);
        assert!((fast.total_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_contains_ms() {
        let r = OverlapReport::new(1e-3, 1e-4, 9e-4);
        assert!(r.to_string().contains("ms"));
    }
}
