//! Order statistics for slot timings: nearest-rank percentiles, the tail
//! level that a sample of a given size can support, and each slot's fastest
//! time over same-seed repeats.

/// Percentile levels the tail is chosen from, in per-mille, highest first.
const TAIL_LEVELS_PER_MILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// How many samples must lie beyond a percentile before it is reported as
/// the tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `per_mille` level in `n` samples.
fn rank(n: usize, per_mille: u64) -> usize {
    let n = n as u64;
    // ceil(level · n) in integers, so 99.9 % of 1000 is exactly rank 999.
    let r = (per_mille * n).div_ceil(1000);
    r.max(1) as usize - 1
}

/// Samples strictly above the `per_mille` level's rank in `n` samples.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    n - 1 - rank(n, per_mille)
}

/// The highest level, in per-mille, that leaves at least [`MIN_BEYOND`]
/// samples beyond it in a sample of `n`; `None` when even the median does
/// not.
pub fn tail_level(n: usize) -> Option<u64> {
    if n == 0 {
        return None;
    }
    TAIL_LEVELS_PER_MILLE.into_iter().find(|&l| beyond(n, l) >= MIN_BEYOND)
}

/// Each slot's fastest time over `repeats` same-seed passes.
///
/// `passes` holds per-slot times in run order, pass `i` having run seed
/// `i % seeds`; the first `repeats` passes of every seed are used. A slot
/// that failed in any of them, or that one of them did not reach, counts as
/// infinitely slow, so a failure still shows. Otherwise a slot is slow here
/// only if it was slow every time it ran: a stall of the host during one
/// pass does not make it so.
pub fn fastest_of(passes: &[&[f64]], seeds: usize, repeats: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for k in 0..seeds {
        let runs: Vec<&[f64]> =
            (0..repeats).map(|r| passes.get(k + r * seeds).copied().unwrap_or(&[])).collect();
        let slots = runs.iter().map(|p| p.len()).max().unwrap_or(0);
        out.extend((0..slots).map(|j| {
            let times = runs.iter().map(|p| p.get(j).copied().unwrap_or(f64::INFINITY));
            if times.clone().any(f64::is_infinite) {
                f64::INFINITY
            } else {
                times.fold(f64::INFINITY, f64::min)
            }
        }));
    }
    out
}

/// Nearest-rank percentile of `samples` at `per_mille` (NaN when empty).
/// Infinite samples sort last, so a failed slot counts as slower than any
/// finished one.
pub fn percentile(samples: &[f64], per_mille: u64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), per_mille)]
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Formats a per-mille level as a percentile name (`950` → `p95`).
pub fn level_name(per_mille: u64) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_level(100), Some(900));
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(100, 950), 5);
        // 99 samples cannot support p90 (9 beyond), so the tail drops to p75.
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(tail_level(99), Some(750));
        // Exactly at each threshold the higher level becomes available.
        assert_eq!(tail_level(200), Some(950));
        assert_eq!(tail_level(1000), Some(990));
        assert_eq!(tail_level(10_000), Some(999));
        // Too few samples for even the median to have ten beyond it.
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(500));
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn every_level_the_rule_picks_keeps_ten_beyond() {
        for n in 1..3000 {
            if let Some(l) = tail_level(n) {
                assert!(beyond(n, l) >= MIN_BEYOND, "n={n} level={l}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), 90.0);
        assert_eq!(percentile(&xs, 999), 100.0);
        assert_eq!(median(&xs), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 500).is_nan());
    }

    #[test]
    fn failed_slots_sort_last() {
        let xs = [1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&xs, 999), f64::INFINITY);
        assert_eq!(median(&xs), 2.0);
    }

    #[test]
    fn fastest_of_takes_each_slots_minimum_over_repeats() {
        // Two seeds, two repeats: passes run seeds 0, 1, 0, 1, then a
        // fifth pass (seed 0 again) that is not used.
        let passes: [&[f64]; 5] =
            [&[5.0, 1.0], &[2.0, 9.0, 3.0], &[4.0, 7.0], &[8.0, 1.0, 6.0], &[0.0, 0.0]];
        assert_eq!(fastest_of(&passes, 2, 2), vec![4.0, 1.0, 2.0, 1.0, 3.0]);
        // One repeat is every pass of the first round, unchanged.
        assert_eq!(fastest_of(&passes, 2, 1), vec![5.0, 1.0, 2.0, 9.0, 3.0]);
        // A slot that failed in one repeat, or that a repeat never reached
        // (it stopped on a failure), stays infinitely slow.
        let broken: [&[f64]; 2] = [&[1.0, 2.0, 3.0], &[f64::INFINITY, 1.0]];
        assert_eq!(fastest_of(&broken, 1, 2), vec![f64::INFINITY, 1.0, f64::INFINITY]);
        // A missing repeat counts as a failed one.
        assert_eq!(fastest_of(&passes[..1], 1, 2), vec![f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    fn level_names() {
        assert_eq!(level_name(900), "p90");
        assert_eq!(level_name(999), "p99.9");
    }
}
