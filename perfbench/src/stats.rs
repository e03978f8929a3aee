//! Seeded generators and the summary statistics every metric goes through.
//!
//! Everything random in the benchmark derives from the `--seed` argument
//! through [`SplitMix64`], so one seed always yields the same lots, product
//! mix, Zipf draws, Poisson schedule and marginal selection.

/// SplitMix64: a tiny, fully specified 64-bit generator. The benchmark uses
/// its own generator (not the program's) so that its inputs cannot shift when
/// the program's random-number code changes.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A generator for an independent stream `stream` of the same seed.
    pub fn derive(seed: u64, stream: u64) -> Self {
        SplitMix64::new(SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Zipf law over `n` ranks: rank `k` (0-based) has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf law needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// Due times (seconds from the start) of a Poisson arrival process at `rate`
/// per second, covering `[0, seconds)`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so ln is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= seconds {
            return out;
        }
        out.push(at);
    }
}

/// Nearest-rank quantile of ascending `sorted` at fraction `q` in `(0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: the highest whole
/// percentile, capped at `cap`, with at least ten samples beyond it. `None`
/// when the sample cannot support even the median that way (`n < 20`).
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    if n < 20 {
        return None;
    }
    // Largest p with n * (100 - p) / 100 >= 10, i.e. p <= 100 - 1000 / n.
    let p = 100 - 1000usize.div_ceil(n);
    Some((p as u32).min(cap))
}

/// Median and tail (at [`tail_percentile`]) of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50: f64,
    pub tail_pct: u32,
    pub tail: f64,
}

pub fn summarize(values: &[f64], cap: u32) -> Option<LatencySummary> {
    let tail_pct = tail_percentile(values.len(), cap)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(LatencySummary {
        samples: sorted.len(),
        p50: quantile_sorted(&sorted, 0.5),
        tail_pct,
        tail: quantile_sorted(&sorted, f64::from(tail_pct) / 100.0),
    })
}

/// The `q` quantile of a registry histogram, interpolated linearly inside
/// the bucket that holds it (the registry itself reports the bucket's upper
/// bound, a power of two). The top of the highest bucket is clamped to the
/// exact maximum the registry kept. 0 for an empty histogram.
pub fn bucket_quantile(h: &dsig_obs::HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).max(1.0);
    let (mut seen, mut lower) = (0.0, 0.0);
    for &(upper, n) in &h.buckets {
        let upper = if h.max_us > 0 { upper.min(h.max_us) } else { upper } as f64;
        if n > 0 && seen + n as f64 >= rank {
            return lower + (upper - lower) * (rank - seen) / n as f64;
        }
        seen += n as f64;
        lower = upper;
    }
    h.max_us as f64
}

/// Requests per latency window, and the most windows a run is split into.
pub const WINDOW_SAMPLES: usize = 1000;
pub const MAX_WINDOWS: usize = 20;

/// The quieter-quarter value of per-window figures: the lower quartile
/// when lower is better, the upper quartile otherwise. On a shared VM, host
/// preemption stalls hit whole stretches of a run; a change to the system
/// itself moves every window, the quiet ones included.
pub fn quiet_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, if lower_is_better { 0.25 } else { 0.75 })
}

/// [`best_share`] averages one slice in every `SLICES_PER_BEST`: the best 2%.
const SLICES_PER_BEST: usize = 50;

/// Best-of-N timing: the mean of the best 2% of per-slice figures (at least
/// one), the lowest when lower is better, the highest otherwise. On a shared
/// host, other tenants' load only ever slows a slice down, so the run's best
/// slices are the ones the system itself sets; a change to the system moves
/// them with every other slice.
pub fn best_share(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best share of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !lower_is_better {
        sorted.reverse();
    }
    let k = sorted.len().div_ceil(SLICES_PER_BEST);
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Per-window medians of a run's latencies in completion order, the run cut
/// into up to [`MAX_WINDOWS`] windows of at least [`WINDOW_SAMPLES`].
pub fn window_medians(values: &[f64]) -> Vec<f64> {
    windows(values)
        .map(|w| summarize(w, 50).map_or(f64::NAN, |s| s.p50))
        .collect()
}

fn windows(values: &[f64]) -> impl Iterator<Item = &[f64]> {
    let count = (values.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    (0..count).map(move |w| &values[w * values.len() / count..(w + 1) * values.len() / count])
}

/// [`summarize`] over consecutive windows of a run's latencies (in
/// completion order): the run is cut into up to [`MAX_WINDOWS`] windows of
/// at least [`WINDOW_SAMPLES`] requests, and the [`quiet_quartile`] of the
/// windows' medians and tails is reported. Runs too short for two windows
/// are summarized whole.
pub fn summarize_windows(values: &[f64], cap: u32) -> Option<LatencySummary> {
    if values.len() < 2 * WINDOW_SAMPLES {
        return summarize(values, cap);
    }
    let parts: Vec<LatencySummary> = windows(values)
        .map(|w| summarize(w, cap).expect("a window holds at least WINDOW_SAMPLES samples"))
        .collect();
    let p50s: Vec<f64> = parts.iter().map(|p| p.p50).collect();
    let tails: Vec<f64> = parts.iter().map(|p| p.tail).collect();
    Some(LatencySummary {
        samples: values.len(),
        p50: quiet_quartile(&p50s, true),
        tail_pct: parts.iter().map(|p| p.tail_pct).min().expect("at least two windows"),
        tail: quiet_quartile(&tails, true),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19, 99), None);
        assert_eq!(tail_percentile(20, 99), Some(50));
        assert_eq!(tail_percentile(60, 99), Some(83));
        assert_eq!(tail_percentile(100, 99), Some(90));
        assert_eq!(tail_percentile(250, 99), Some(96));
        assert_eq!(tail_percentile(999, 99), Some(98));
        assert_eq!(tail_percentile(1000, 99), Some(99));
        assert_eq!(tail_percentile(1_000_000, 99), Some(99));
        // The end-to-end tail stops at p95.
        assert_eq!(tail_percentile(176, 95), Some(94));
        assert_eq!(tail_percentile(200, 95), Some(95));
        assert_eq!(tail_percentile(1_000_000, 95), Some(95));
        for n in 20..5000 {
            let p = f64::from(tail_percentile(n, 99).unwrap());
            let beyond = n as f64 * (100.0 - p) / 100.0;
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p}");
            // One percentile higher would leave fewer than ten (unless capped).
            if p < 99.0 {
                assert!(n as f64 * (99.0 - p) / 100.0 < 10.0, "n={n} p={p} is not the highest");
            }
        }
    }

    #[test]
    fn summary_reads_nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&values, 99).unwrap();
        assert_eq!((s.samples, s.tail_pct), (100, 90));
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, 90.0);
        assert!(summarize(&values[..10], 99).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn windowed_summary_reports_the_quiet_quarter() {
        // 20 windows of 1000 requests at 1 ms.
        let mut values = vec![1.0; 20_000];
        // A burst: 2% of the run, all inside window 4, sets the run's p99.
        for v in &mut values[4000..4400] {
            *v = 50.0;
        }
        assert_eq!(summarize(&values, 99).unwrap().tail, 50.0);
        let windowed = summarize_windows(&values, 99).unwrap();
        assert_eq!((windowed.samples, windowed.tail_pct), (20_000, 99));
        assert_eq!((windowed.p50, windowed.tail), (1.0, 1.0));
        // Stalls in 12 of the 20 windows move the median window, not the
        // quiet quarter; a slower system moves every window.
        for w in 0..12 {
            for v in &mut values[w * 1000..w * 1000 + 600] {
                *v = 20.0;
            }
        }
        assert_eq!(median(&window_medians(&values)), 20.0);
        assert_eq!(summarize_windows(&values, 95).unwrap().p50, 1.0);
        let slower: Vec<f64> = values.iter().map(|v| v * 1.5).collect();
        assert_eq!(summarize_windows(&slower, 95).unwrap().p50, 1.5);
        // Short runs are summarized whole, at the percentile they support.
        assert_eq!(summarize_windows(&values[..1999], 99), summarize(&values[..1999], 99));
        assert_eq!(quiet_quartile(&[4.0, 1.0, 3.0, 2.0], false), 3.0);
    }

    #[test]
    fn best_share_averages_the_best_slices() {
        // 100 slices at 10/s, 60 of them slowed down by other tenants: the
        // best two are what the system does.
        let mut rates = vec![10.0; 100];
        for r in &mut rates[..60] {
            *r = 6.0;
        }
        assert_eq!(best_share(&rates, false), 10.0);
        // One fast outlier counts for half of a 100-slice figure.
        rates[99] = 14.0;
        assert_eq!(best_share(&rates, false), 12.0);
        // Costs take the lowest; a slower system moves every slice.
        let costs: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        assert_eq!(best_share(&costs, true), (1.0 / 14.0 + 0.1) / 2.0);
        let slower: Vec<f64> = rates.iter().map(|r| r * 0.5).collect();
        assert_eq!(best_share(&slower, false), 6.0);
        // Fewer than 50 slices: the single best one.
        assert_eq!(best_share(&[3.0, 5.0, 4.0], false), 5.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let h = dsig_obs::HistogramSnapshot {
            count: 10,
            sum_us: 0,
            max_us: 50,
            buckets: vec![(1, 0), (2, 2), (4, 0), (8, 4), (64, 4), (u64::MAX, 0)],
        };
        // Rank 5 is the 3rd of 4 samples in (4, 8].
        assert_eq!(bucket_quantile(&h, 0.5), 4.0 + 4.0 * 3.0 / 4.0);
        // Rank 1 is the first of 2 samples in (1, 2].
        assert_eq!(bucket_quantile(&h, 0.1), 1.5);
        // The top bucket ends at the recorded maximum, not at 64.
        assert_eq!(bucket_quantile(&h, 1.0), 50.0);
        let empty = dsig_obs::HistogramSnapshot {
            count: 0,
            sum_us: 0,
            max_us: 0,
            buckets: Vec::new(),
        };
        assert_eq!(bucket_quantile(&empty, 0.5), 0.0);
    }

    #[test]
    fn zipf_draws_are_deterministic_per_seed() {
        let zipf = Zipf::new(8, 1.2);
        let draw = |seed| {
            let mut rng = SplitMix64::derive(seed, 3);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // The hot product takes ~43% of the mass, and the draws follow it.
        assert!((zipf.probability(0) - 0.4286).abs() < 1e-3);
        let hot = draw(11).iter().filter(|&&k| k == 0).count();
        assert!((380..=480).contains(&hot), "hot share {hot}/1000");
        let total: f64 = (0..8).map(|k| zipf.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_at_rate() {
        let make = |seed| poisson_schedule(&mut SplitMix64::derive(seed, 5), 2000.0, 5.0);
        let a = make(1);
        assert_eq!(a, make(1));
        assert_ne!(a, make(2));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 5.0);
        assert!((9600..=10400).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = SplitMix64::derive(9, 1);
        let mut b = SplitMix64::derive(9, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut r = SplitMix64::new(4);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
