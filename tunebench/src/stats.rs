//! Small, self-tested helpers: seeded shuffling, nearest-rank percentiles,
//! medians, geometric means, interval unions and the reference-winner file.

use std::collections::BTreeMap;

/// SplitMix64: a tiny deterministic generator, so the same `--seed` always
/// yields the same key orders and collision points.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median as the mean of the two middle values (even counts) — the
/// statistic reported for run-level figures; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Geometric mean of strictly positive values; `None` when empty or when a
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Total length covered by the union of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// One search winner: the config key and the exact simulated objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Winner {
    pub config: String,
    pub total_s: f64,
}

impl Winner {
    /// The objective as the daemon prints it (`total_ms=` has six decimals).
    pub fn wire_ms(&self) -> String {
        format!("{:.6}", self.total_s * 1e3)
    }
}

/// Reference winners keyed by request line, read from `reference.tsv`.
///
/// Each line is `request<TAB>config<TAB>total_s bits (hex)<TAB>total_ms`;
/// `#` starts a comment. The bits are authoritative; the millisecond column
/// is for readers.
#[derive(Debug, Default)]
pub struct Reference {
    winners: BTreeMap<String, Winner>,
}

impl Reference {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut winners = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [request, config, bits, _ms] = fields[..] else {
                return Err(format!("reference line {}: expected 4 fields", no + 1));
            };
            let bits = u64::from_str_radix(bits, 16)
                .map_err(|e| format!("reference line {}: bad bits {bits:?}: {e}", no + 1))?;
            let winner = Winner {
                config: config.to_string(),
                total_s: f64::from_bits(bits),
            };
            if winners.insert(request.to_string(), winner).is_some() {
                return Err(format!("reference line {}: duplicate {request:?}", no + 1));
            }
        }
        Ok(Self { winners })
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# request\tconfig\ttotal_s bits\ttotal_ms (regenerate with --write-reference)\n",
        );
        for (request, w) in &self.winners {
            out.push_str(&format!(
                "{request}\t{}\t{:016x}\t{}\n",
                w.config,
                w.total_s.to_bits(),
                w.wire_ms()
            ));
        }
        out
    }

    pub fn insert(&mut self, request: &str, winner: Winner) {
        self.winners.insert(request.to_string(), winner);
    }

    pub fn get(&self, request: &str) -> Option<&Winner> {
        self.winners.get(request)
    }

    /// Checks an in-process winner: config key and objective bits must match.
    pub fn check_exact(&self, request: &str, got: &Winner) -> Result<(), String> {
        let want = self
            .get(request)
            .ok_or_else(|| format!("no reference for {request:?}"))?;
        if want.config != got.config || want.total_s.to_bits() != got.total_s.to_bits() {
            return Err(format!(
                "{request}: got {} {:e}, reference {} {:e}",
                got.config, got.total_s, want.config, want.total_s
            ));
        }
        Ok(())
    }

    /// Checks a wire answer: config key and the six-decimal `total_ms`.
    pub fn check_wire(&self, request: &str, config: &str, total_ms: f64) -> Result<(), String> {
        let want = self
            .get(request)
            .ok_or_else(|| format!("no reference for {request:?}"))?;
        if want.config != config || want.wire_ms() != format!("{total_ms:.6}") {
            return Err(format!(
                "{request}: daemon answered {config} {total_ms:.6} ms, reference {} {} ms",
                want.config,
                want.wire_ms()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        // Overlapping and nested intervals from two threads.
        assert_eq!(union_len(&[(0, 10), (5, 15), (6, 7)]), 15);
        // Touching intervals merge; a gap does not count.
        assert_eq!(union_len(&[(20, 30), (0, 10), (10, 12)]), 22);
        // Empty and inverted intervals are ignored.
        assert_eq!(union_len(&[(5, 5), (9, 3), (1, 2)]), 1);
    }

    #[test]
    fn self_time_is_wall_minus_union() {
        // A 100 ns search with oracle calls on two threads covering 10..60.
        let calls = [(10, 40), (20, 60), (50, 55)];
        assert_eq!(100 - union_len(&calls), 50);
    }

    #[test]
    fn reference_round_trips_and_compares_exactly() {
        let mut reference = Reference::default();
        let w = Winner {
            config: "cfg-a".into(),
            total_s: 0.000186853_f64,
        };
        reference.insert("TUNE workload=MoE-1", w.clone());
        let parsed = Reference::parse(&reference.render()).unwrap();
        assert_eq!(parsed.get("TUNE workload=MoE-1"), Some(&w));
        assert!(parsed.check_exact("TUNE workload=MoE-1", &w).is_ok());

        let next_bit = Winner {
            total_s: f64::from_bits(w.total_s.to_bits() + 1),
            ..w.clone()
        };
        assert!(parsed
            .check_exact("TUNE workload=MoE-1", &next_bit)
            .is_err());
        let other_cfg = Winner {
            config: "cfg-b".into(),
            ..w.clone()
        };
        assert!(parsed
            .check_exact("TUNE workload=MoE-1", &other_cfg)
            .is_err());
        assert!(parsed.check_exact("TUNE workload=MoE-9", &w).is_err());

        assert!(parsed
            .check_wire("TUNE workload=MoE-1", "cfg-a", w.total_s * 1e3)
            .is_ok());
        assert!(parsed
            .check_wire("TUNE workload=MoE-1", "cfg-a", w.total_s * 1e3 + 1e-5)
            .is_err());
    }

    #[test]
    fn reference_rejects_malformed_lines() {
        assert!(Reference::parse("a\tb\tzz\t1\n").is_err());
        assert!(Reference::parse("a\tb\n").is_err());
        assert!(Reference::parse("a\tb\t0\t1\na\tb\t0\t1\n").is_err());
        assert!(Reference::parse("# comment\n\n")
            .unwrap()
            .get("a")
            .is_none());
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
