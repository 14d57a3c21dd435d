//! The tuning objective: how per-sample makespans fold into one score.
//!
//! The tuner historically minimised the single deterministic makespan of each
//! candidate. Workloads with runtime-dependent behaviour — MoE layers whose
//! tile mapping is decided by the routing — are better tuned against a
//! *distribution* of executions: FLUX and the fused-MoE line of work both
//! observe that expert skew, not the mean, determines achievable overlap. An
//! [`Objective`] picks the statistic of the sampled makespans the search
//! minimises, and is folded into the persistent tuning-cache key so
//! mean-tuned and tail-tuned entries never alias.

use std::fmt;
use std::str::FromStr;

use tilelink::OverlapReport;

/// Statistic of the per-sample makespans that a [`crate::CostOracle`]
/// minimises.
///
/// Oracles that evaluate a single deterministic execution report
/// [`Objective::Mean`]; sampling oracles fold their per-sample reports with
/// [`Objective::fold_reports`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Arithmetic mean over the samples (the historical behaviour; identical
    /// to the single evaluation for deterministic oracles).
    #[default]
    Mean,
    /// Nearest-rank percentile of the sampled makespans (1..=99). `p50` tunes
    /// the median, `p95`/`p99` tune the tail.
    Percentile(u8),
    /// The slowest sample (the `p100` limit): tune for the worst routing seen.
    WorstCase,
}

impl Objective {
    /// Stable identifier used in tuning-cache keys (`mean`, `p95`, `worst`).
    ///
    /// Folded into [`crate::TuneCache::oracle_prefix`] alongside the
    /// cost-model revision, so entries tuned under different objectives
    /// never collide.
    pub fn key(&self) -> String {
        match self {
            Objective::Mean => "mean".to_string(),
            Objective::Percentile(p) => format!("p{p}"),
            Objective::WorstCase => "worst".to_string(),
        }
    }

    /// Folds sampled makespans (seconds) into the objective's scalar.
    ///
    /// Percentiles use the nearest-rank method ([`Objective::picked_sample`]),
    /// so the result is always one of the input values (no interpolation —
    /// the folded value corresponds to a routing that was actually priced).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fold(&self, samples: &[f64]) -> f64 {
        assert!(!samples.is_empty(), "cannot fold zero samples");
        match self.picked_sample(samples) {
            Some(picked) => samples[picked],
            None => samples.iter().sum::<f64>() / samples.len() as f64,
        }
    }

    /// Folds per-sample reports into one report.
    ///
    /// [`Objective::Mean`] averages every field; the percentile and worst-case
    /// objectives return the report of the sample whose *total* the objective
    /// selects, so the comm/comp split stays internally consistent.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn fold_reports(&self, reports: &[OverlapReport]) -> OverlapReport {
        assert!(!reports.is_empty(), "cannot fold zero reports");
        let totals: Vec<f64> = reports.iter().map(|r| r.total_s).collect();
        if let Some(picked) = self.picked_sample(&totals) {
            return reports[picked];
        }
        let n = reports.len() as f64;
        OverlapReport::new(
            totals.iter().sum::<f64>() / n,
            reports.iter().map(|r| r.comm_only_s).sum::<f64>() / n,
            reports.iter().map(|r| r.comp_only_s).sum::<f64>() / n,
        )
    }

    /// The index of the sample this objective selects from per-sample
    /// `totals` (nearest-rank over a stable ascending sort, so tied totals
    /// rank in sample order), or `None` for [`Objective::Mean`], which
    /// averages instead of picking.
    ///
    /// [`Objective::fold`] and [`Objective::fold_reports`] pick through it,
    /// so an oracle that knows every sample's total can choose the one sample
    /// whose full report a fold would return and price only that one.
    ///
    /// # Panics
    ///
    /// Panics if `totals` is empty and the objective picks.
    pub fn picked_sample(&self, totals: &[f64]) -> Option<usize> {
        let rank = self.sorted_pick_index(totals.len())?;
        let mut order: Vec<usize> = (0..totals.len()).collect();
        order.sort_by(|&a, &b| totals[a].total_cmp(&totals[b]));
        Some(order[rank])
    }

    /// Index into an ascending-sorted sample list of length `n` that this
    /// objective selects (nearest-rank), or `None` for [`Objective::Mean`],
    /// which averages instead of picking.
    ///
    /// Exposed so cutoff-bounded oracle evaluations can reason about the
    /// order statistic: with `i = sorted_pick_index(n)`, up to `n - 1 - i`
    /// samples may abort above the cutoff before the folded value itself
    /// provably exceeds it.
    pub fn sorted_pick_index(&self, n: usize) -> Option<usize> {
        match self {
            Objective::Mean => None,
            Objective::Percentile(p) => {
                let rank = (*p as f64 / 100.0 * n as f64).ceil() as usize;
                Some(rank.clamp(1, n) - 1)
            }
            Objective::WorstCase => Some(n - 1),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

impl FromStr for Objective {
    type Err = String;

    /// Parses the `--objective` flag values: `mean`, `worst` or `p<1-99>`
    /// (e.g. `p50`, `p95`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mean" => Ok(Objective::Mean),
            "worst" => Ok(Objective::WorstCase),
            _ => match s.strip_prefix('p').map(str::parse::<u8>) {
                Some(Ok(p)) if (1..=99).contains(&p) => Ok(Objective::Percentile(p)),
                _ => Err(format!(
                    "unknown objective {s:?} (expected mean, p<1-99> or worst)"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(Objective::Mean.key(), "mean");
        assert_eq!(Objective::Percentile(95).key(), "p95");
        assert_eq!(Objective::WorstCase.key(), "worst");
        assert_eq!(Objective::default(), Objective::Mean);
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        for text in ["mean", "p50", "p95", "p1", "p99", "worst"] {
            let obj: Objective = text.parse().unwrap();
            assert_eq!(obj.to_string(), text);
        }
        for bad in ["p0", "p100", "median", "", "p", "p-5"] {
            assert!(bad.parse::<Objective>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn fold_computes_the_right_statistic() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert!((Objective::Mean.fold(&samples) - 3.9).abs() < 1e-12);
        assert_eq!(Objective::WorstCase.fold(&samples), 9.0);
        // sorted: 1 1 2 3 3 4 5 5 6 9; nearest-rank p50 = 5th value = 3.
        assert_eq!(Objective::Percentile(50).fold(&samples), 3.0);
        // p95 → ceil(0.95·10) = 10th value = 9.
        assert_eq!(Objective::Percentile(95).fold(&samples), 9.0);
        // p1 → first value.
        assert_eq!(Objective::Percentile(1).fold(&samples), 1.0);
    }

    #[test]
    fn fold_reports_selects_a_consistent_sample() {
        let reports = [
            OverlapReport::new(2.0, 0.5, 1.5),
            OverlapReport::new(1.0, 0.2, 0.8),
            OverlapReport::new(4.0, 3.0, 1.0),
        ];
        let worst = Objective::WorstCase.fold_reports(&reports);
        assert_eq!(worst, reports[2], "worst case is the slowest sample");
        let median = Objective::Percentile(50).fold_reports(&reports);
        assert_eq!(median, reports[0]);
        let mean = Objective::Mean.fold_reports(&reports);
        assert!((mean.total_s - 7.0 / 3.0).abs() < 1e-12);
        assert!((mean.comm_only_s - 3.7 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn picked_sample_is_the_stable_nearest_rank_pick() {
        // Tied totals rank in sample order, so the lowest tied rank picks
        // the earliest tied sample.
        let tied = [2.0, 1.0, 2.0, 2.0];
        assert_eq!(Objective::Percentile(50).picked_sample(&tied), Some(0));
        assert_eq!(Objective::Percentile(75).picked_sample(&tied), Some(2));
        assert_eq!(Objective::WorstCase.picked_sample(&tied), Some(3));
        assert_eq!(Objective::Percentile(1).picked_sample(&tied), Some(1));
        assert_eq!(Objective::Mean.picked_sample(&tied), None);

        // Seeded random totals on a coarse grid, so ties are common.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 5) as f64 * 0.25 + 1.0
        };
        for n in 1..=16 {
            for _ in 0..8 {
                let totals: Vec<f64> = (0..n).map(|_| next()).collect();
                let mut sorted = totals.clone();
                sorted.sort_by(f64::total_cmp);
                assert_eq!(Objective::Mean.picked_sample(&totals), None);
                for objective in [
                    Objective::Percentile(1),
                    Objective::Percentile(50),
                    Objective::Percentile(95),
                    Objective::Percentile(99),
                    Objective::WorstCase,
                ] {
                    let picked = objective.picked_sample(&totals).unwrap();
                    let rank = objective.sorted_pick_index(n).unwrap();
                    // The nearest-rank value, and exactly `rank` samples
                    // ahead of the pick in (total, index) order.
                    assert_eq!(totals[picked], sorted[rank]);
                    let ahead = (0..n)
                        .filter(|&i| (totals[i], i) < (totals[picked], picked))
                        .count();
                    assert_eq!(ahead, rank, "{objective} over {totals:?}");
                    assert_eq!(objective.fold(&totals), totals[picked]);
                    let reports: Vec<OverlapReport> = totals
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| OverlapReport::new(t, i as f64, 0.0))
                        .collect();
                    assert_eq!(objective.fold_reports(&reports), reports[picked]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn folding_nothing_panics() {
        Objective::Mean.fold(&[]);
    }
}
