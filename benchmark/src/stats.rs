//! Order statistics over small samples of measurements.

/// The values in ascending order (total order, so NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, as Python's `statistics.median`. 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` (the exclusive method) — the same arithmetic the acceptance
/// driver uses for its spread. Fewer than two values have no spread:
/// both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let m = median(values);
        return (m, m);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // May be negative or above 4 at the clamped ends: the exclusive
        // method extrapolates there.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

/// Percentile `q` in `[0, 1]` with linear interpolation between the
/// closest ranks. 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Share of a run's epochs that count as its least disturbed ones.
const UNDISTURBED_SHARE: f64 = 0.05;
/// ... but never fewer than this many (or all of them, if fewer ran).
const UNDISTURBED_MIN: usize = 3;

/// Indices of the least disturbed epochs of a run: the fastest 5 %, at
/// least three.
///
/// On the shared two-core box the host flips, every second or so, between
/// a fast state and one in which compute-bound epochs take about a third
/// longer, and the share of slow time in a run ranges from a tenth to
/// nearly all of it. The median epoch then measures the host; the fastest
/// epochs measure the program. Nothing makes an epoch faster than the
/// program allows, so the low end of the distribution is also its
/// steadiest part (see the README for the numbers).
pub fn undisturbed(wall: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..wall.len()).collect();
    order.sort_by(|&a, &b| wall[a].total_cmp(&wall[b]));
    let keep = ((wall.len() as f64 * UNDISTURBED_SHARE) as usize)
        .max(UNDISTURBED_MIN)
        .min(wall.len());
    order.truncate(keep);
    order
}

/// Mean of `values` over the epochs `picked` (0 when none).
pub fn mean_of(values: &[f64], picked: &[usize]) -> f64 {
    if picked.is_empty() {
        return 0.0;
    }
    picked.iter().map(|&i| values[i]).sum::<f64>() / picked.len() as f64
}

/// Mean wall time of the least disturbed epochs.
pub fn undisturbed_mean(wall: &[f64]) -> f64 {
    mean_of(wall, &undisturbed(wall))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 45.0, 50.0]), (15.0, 47.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn undisturbed_picks_the_fastest_epochs() {
        // 100 epochs: the five fastest are picked, wherever they are.
        let wall: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 + 10.0).collect();
        let mut picked = undisturbed(&wall);
        picked.sort_by(|&a, &b| wall[a].total_cmp(&wall[b]));
        let fastest: Vec<f64> = picked.iter().map(|&i| wall[i]).collect();
        assert_eq!(fastest, [10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(undisturbed_mean(&wall), 12.0);
        // A second series is averaged over the same epochs.
        let cpu: Vec<f64> = wall.iter().map(|w| w * 2.0).collect();
        assert_eq!(mean_of(&cpu, &picked), 24.0);
        // Never fewer than three, never more than there are.
        assert_eq!(undisturbed_mean(&[9.0, 1.0, 5.0, 3.0, 7.0, 8.0]), 3.0);
        assert_eq!(undisturbed_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(undisturbed_mean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.95), 48.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
