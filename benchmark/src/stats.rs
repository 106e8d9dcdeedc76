//! Order statistics and the delivery digest.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one unit.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`0 < p <= 100`) of a sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Percentile of whole-number data by the grouped-data formula: the value
/// `v` stands for the interval `[v - 0.5, v + 0.5)` and the percentile is
/// interpolated inside the interval it falls in. Delivery latencies are
/// whole rounds; a nearest-rank percentile of them flips between adjacent
/// integers from one seed to the next, this one moves with the counts.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn grouped_percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let target = p / 100.0 * v.len() as f64;
    let bin = v[rank(v.len(), p) - 1];
    let below = v.iter().filter(|&&x| x < bin).count() as f64;
    let inside = v.iter().filter(|&&x| x == bin).count() as f64;
    bin - 0.5 + (target - below) / inside
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it — the tail a sample of size `n` can support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// FNV-1a (64-bit) over the sorted `(wid, process, round)` deliveries — the
/// construction the repo's golden trace digests use, applied to the delivery
/// set so the traced pass, the untraced pass and the in-memory reference
/// cluster can be compared by one number.
pub fn delivery_digest(deliveries: &[(u64, u64, u64)]) -> u64 {
    let mut sorted = deliveries.to_vec();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (wid, process, round) in sorted {
        for word in [wid, process, round] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// SplitMix64: the benchmark's own generator RNG, so the inputs a seed
/// produces do not change when the workspace's vendored `rand` does.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is below 2^-40 for the bounds
    /// used here).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_by_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=128).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 64.0);
        assert_eq!(percentile(&xs, 90.0), 116.0);
        assert_eq!(percentile(&xs, 100.0), 128.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn grouped_percentile_interpolates_inside_the_round() {
        // 4 deliveries at round 10, 4 at 11, 2 at 12: the median splits the
        // round-11 interval [10.5, 11.5) a quarter of the way in.
        let xs = [10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 11.0, 11.0, 12.0, 12.0];
        assert_eq!(grouped_percentile(&xs, 50.0), 10.75);
        assert_eq!(grouped_percentile(&xs, 90.0), 12.0);
        assert_eq!(grouped_percentile(&xs, 100.0), 12.5);
        // One value: every percentile lies inside its interval.
        assert_eq!(grouped_percentile(&[7.0, 7.0], 50.0), 7.0);
        // Moving one delivery a round later moves the median a little, not
        // by a whole round.
        let ys = [10.0, 10.0, 10.0, 11.0, 11.0, 11.0, 11.0, 11.0, 12.0, 12.0];
        assert_eq!(grouped_percentile(&ys, 50.0), 10.9);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 128 rounds: p90 leaves 12 samples beyond, p95 only 6.
        assert_eq!(samples_beyond(128, 90.0), 12);
        assert_eq!(samples_beyond(128, 95.0), 6);
        assert_eq!(highest_supported_percentile(128), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn digest_is_order_independent_and_pinned() {
        let a = [(1, 2, 3), (0, 5, 9), (1, 1, 3)];
        let b = [(0, 5, 9), (1, 1, 3), (1, 2, 3)];
        assert_eq!(delivery_digest(&a), delivery_digest(&b));
        assert_ne!(delivery_digest(&a), delivery_digest(&a[..2]));
        // Pinned: the empty set is the FNV offset basis, and one known
        // triple keeps the byte order from drifting.
        assert_eq!(delivery_digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(delivery_digest(&[(1, 2, 3)]), 0xda2b_fb22_5e0d_1f05);
    }

    #[test]
    fn generator_rng_is_pinned() {
        let mut rng = SplitMix64(7);
        assert_eq!(rng.next_u64(), 0x63cb_e1e4_5932_0dd7);
        assert!(rng.below(10) < 10);
    }
}
