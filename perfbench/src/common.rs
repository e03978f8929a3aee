//! Workload-independent configuration and the measurement record every
//! workload fills in.

use cut_filters::BiquadParams;
use dsig_core::{AcceptanceBand, TestSetup};
use dsig_engine::{Campaign, DevicePopulation};

use crate::stats::{best_share, median, summarize_windows, LatencySummary};

/// Observation sample rate of every capture: 2 MS/s, 400 samples per
/// Lissajous period (the rate the repository's throughput benches use).
pub const SAMPLE_RATE: f64 = 2e6;
/// Acceptance threshold on the NDF.
pub const NDF_THRESHOLD: f64 = 0.03;
/// Sigma of the Monte-Carlo `f0` deviation, percent.
pub const SIGMA_PCT: f64 = 3.0;
/// Tolerance that defines a truly good device, percent.
pub const TOLERANCE_PCT: f64 = 3.0;

/// The product family: each product is one filter design, given as its
/// `(f0 shift %, Q shift %)` from the paper's biquad. The lot workloads
/// cycle through the first four; the screening fleet serves all eight.
pub const PRODUCTS: [(f64, f64); 8] = [
    (0.0, 0.0),
    (5.0, 0.0),
    (-5.0, 0.0),
    (0.0, 15.0),
    (10.0, 0.0),
    (-10.0, 0.0),
    (0.0, -15.0),
    (5.0, 15.0),
];

pub fn product(index: usize) -> BiquadParams {
    let (f0, q) = PRODUCTS[index];
    BiquadParams::paper_default().with_f0_shift_pct(f0).with_q_shift_pct(q)
}

/// The paper's setup (stimulus, Table I monitors, capture clock, front-end
/// bandwidth) at [`SAMPLE_RATE`], without noise.
pub fn paper_setup() -> TestSetup {
    TestSetup::paper_default()
        .and_then(|s| s.with_sample_rate(SAMPLE_RATE))
        .expect("the paper setup resolves the stimulus at 2 MS/s")
}

pub fn band() -> AcceptanceBand {
    AcceptanceBand::new(NDF_THRESHOLD).expect("a positive threshold is a valid band")
}

/// A Monte-Carlo lot of `devices` instances of `product`.
pub fn mc_campaign(setup: TestSetup, product_index: usize, devices: usize, seed: u64) -> Campaign {
    Campaign::new(
        setup,
        product(product_index),
        DevicePopulation::MonteCarlo {
            devices,
            sigma_pct: SIGMA_PCT,
        },
        band(),
        TOLERANCE_PCT,
    )
    .expect("a non-empty lot with a finite tolerance is a valid campaign")
    .with_seed(seed)
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Verdicts requested.
    pub attempted: u64,
    /// Verdicts that were wrong or never arrived.
    pub failed: u64,
    /// Verdicts returned (devices for lots).
    pub items: u64,
    /// Wall seconds the timed operations took.
    pub seconds: f64,
    /// Process CPU seconds spent over the timed operations.
    pub cpu_seconds: f64,
    /// Per-request latency, milliseconds, in completion order (a request is
    /// one lot for the lot workloads).
    pub latencies_ms: Vec<f64>,
    /// Open loop only: how late the generator sent each request behind its
    /// due time.
    pub lateness_ms: Vec<f64>,
    /// Open loop only: the largest number of requests due but not yet
    /// answered at any send.
    pub backlog_max: u64,
    /// Open loop only: the backlog at the end of the run (median over the
    /// last quarter of the sends).
    pub backlog_end: f64,
    /// Whether the open loop fell behind the offered rate.
    pub saturated: bool,
    /// First few error messages, for the log.
    pub errors: Vec<String>,
    /// The phase cut into consecutive slices (one per lot, or one per
    /// sampling interval of a load loop), for the rates.
    pub slices: Vec<Slice>,
    /// How the slices fold into the rates.
    pub fold: Fold,
}

/// How a phase's slices fold into its rates.
#[derive(Debug, Clone, Copy, Default)]
pub enum Fold {
    /// The median slice: load loops, which hand every request across threads
    /// and sockets, and long lots. Their fastest slices are luck, not a floor.
    #[default]
    Median,
    /// The [`best_share`] of the slices: short single-threaded compute,
    /// whose fastest slices are the floor the hardware sets whenever other
    /// tenants leave the core alone.
    Best,
}

/// Work done over one stretch of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub items: u64,
    pub seconds: f64,
    pub cpu_seconds: f64,
}

impl Phase {
    /// Items per second over the slices, folded by [`Phase::fold`], so host
    /// stalls in part of the run do not move the figure. A phase without
    /// slices is taken whole.
    pub fn items_per_s(&self) -> f64 {
        self.folded(false, |s| s.items as f64 / s.seconds)
            .unwrap_or(self.items as f64 / self.seconds)
    }

    /// Process CPU microseconds per item, folded like [`Phase::items_per_s`].
    pub fn cpu_us_per_item(&self) -> f64 {
        self.folded(true, |s| s.cpu_seconds * 1e6 / s.items as f64)
            .unwrap_or(self.cpu_seconds * 1e6 / self.items.max(1) as f64)
    }

    /// Slices that returned nothing (a failed lot) carry no rate.
    fn folded(&self, lower_is_better: bool, rate: impl Fn(&Slice) -> f64) -> Option<f64> {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.items > 0 && s.seconds > 0.0)
            .map(rate)
            .collect();
        if rates.is_empty() {
            return None;
        }
        Some(match self.fold {
            Fold::Median => median(&rates),
            Fold::Best => best_share(&rates, lower_is_better),
        })
    }

    /// Windowed median and tail: p99, or the highest percentile the sample
    /// supports with ten samples beyond it.
    pub fn latency(&self) -> Option<LatencySummary> {
        summarize_windows(&self.latencies_ms, 99)
    }

    pub fn note_error(&mut self, message: String) {
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}
