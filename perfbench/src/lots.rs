//! The lot workloads: back-to-back 1,000-device Monte-Carlo lots scored
//! locally by the campaign engine.

use std::time::Instant;

use dsig_core::{TestFlow, TestSetup};
use dsig_engine::{Campaign, CampaignReport, CampaignRunner};
use sim_signal::NoiseModel;
use xy_monitor::ProcessVariation;

use crate::common::{mc_campaign, paper_setup, product, Fold, Phase, Slice};
use crate::jobs::Verdict;
use crate::probe::device_partition;
use crate::stats::SplitMix64;
use crate::sys;
use crate::trace::Tracer;

pub const LOT_DEVICES: usize = 1000;
pub const LOT_PRODUCTS: usize = 4;
/// Devices of every lot re-evaluated through the per-device reference.
const AUDITED_PER_LOT: usize = 4;
/// Seed stream of the warm-up lot (measured lots use streams from 0).
const WARMUP_STREAM: u64 = u64::MAX;

/// `lot_batched` (noiseless, shared-stimulus batched capture) or
/// `lot_monitor_var` (per-device monitor variation and measurement noise,
/// which sends every lot down the per-device capture path).
#[derive(Debug, Clone, Copy)]
pub struct LotShape {
    pub monitor_variation: bool,
}

impl LotShape {
    /// Engine threads of the lot's runner. `lot_batched` scores on one: its
    /// ~70 ms lots on every vCPU of the shared host swung between two speeds
    /// ~25 % apart from run to run, while one thread held within a few
    /// percent. `lot_monitor_var`'s lots run ~4× longer and held steady on
    /// `nproc` threads. The traced run's engine probe measures the
    /// `nproc`-thread pool either way (`engine.pool_efficiency`).
    pub fn threads(self, nproc: usize) -> usize {
        if self.monitor_variation {
            nproc
        } else {
            1
        }
    }

    /// How the lots fold into the rates: a one-thread `lot_batched` lot is
    /// short enough to land whole in a stretch the neighbours leave quiet,
    /// so its fastest lots are a floor; a `lot_monitor_var` lot is too long
    /// for that, and its median lot is the steadier figure.
    fn fold(self) -> Fold {
        if self.monitor_variation {
            Fold::Median
        } else {
            Fold::Best
        }
    }

    fn setup(self) -> TestSetup {
        let setup = paper_setup();
        if self.monitor_variation {
            setup.with_noise(NoiseModel::paper_default())
        } else {
            setup
        }
    }

    /// Lot `lot` of the run: products cycle in order, every lot has its own
    /// seed derived from the run seed.
    pub fn campaign(self, seed: u64, lot: u64) -> Campaign {
        let lot_seed = SplitMix64::derive(seed, 0x4c4f_5400 ^ lot).next_u64();
        let campaign = mc_campaign(
            self.setup(),
            (lot % LOT_PRODUCTS as u64) as usize,
            LOT_DEVICES,
            lot_seed,
        );
        if self.monitor_variation {
            campaign.with_monitor_variation(ProcessVariation::nominal_65nm())
        } else {
            campaign
        }
    }

    /// Builds a ready runner: every product's golden, the stimulus bank and
    /// one warm-up lot.
    pub fn set_up(self, seed: u64, threads: usize, tracer: &Tracer) -> Result<CampaignRunner, String> {
        let runner = CampaignRunner::with_threads(threads);
        let setup = self.setup();
        for index in 0..LOT_PRODUCTS {
            let _span = tracer.span("core.golden", 0, index as u64);
            runner
                .cache()
                .flow_for(&setup, &product(index))
                .map_err(|e| format!("golden of product {index}: {e}"))?;
        }
        {
            let _span = tracer.span("core.stimulus_build", 0, 0);
            runner
                .stimulus_bank()
                .shared_for(&setup)
                .map_err(|e| format!("stimulus bank: {e}"))?;
        }
        runner
            .run(&self.campaign(seed, WARMUP_STREAM))
            .map_err(|e| format!("warm-up lot: {e}"))?;
        Ok(runner)
    }

    /// The reference flows the audit evaluates against, one per product,
    /// built independently of the runner's golden cache.
    pub fn audit_flows(self) -> Result<Vec<TestFlow>, String> {
        let noiseless = paper_setup();
        (0..LOT_PRODUCTS)
            .map(|index| TestFlow::new(noiseless.clone(), product(index)).map_err(|e| e.to_string()))
            .collect()
    }
}

/// A lot the measurement ran, kept for the traced run's stage replay.
pub struct RanLot {
    pub lot: u64,
    pub campaign: Campaign,
    pub report: CampaignReport,
}

/// The reference verdicts of a runner report, in device order.
pub fn report_verdicts(report: &CampaignReport) -> Vec<Verdict> {
    report.results.iter().map(|r| Verdict::new(r.ndf, r.outcome)).collect()
}

/// Runs lots back to back from `first_lot` for `seconds` of wall time. Each
/// lot's run is timed; the audit of a seeded sample of its devices runs
/// outside the timed region.
pub fn measure(
    shape: LotShape,
    runner: &CampaignRunner,
    flows: &[TestFlow],
    seed: u64,
    first_lot: u64,
    seconds: f64,
    tracer: &Tracer,
) -> (Phase, Option<RanLot>) {
    let mut phase = Phase {
        fold: shape.fold(),
        ..Phase::default()
    };
    let mut last = None;
    let started = Instant::now();
    let mut lot = first_lot;
    while started.elapsed().as_secs_f64() < seconds {
        let campaign = shape.campaign(seed, lot);
        let (cpu_before, sent) = (sys::cpu_seconds(), Instant::now());
        let result = {
            let _span = tracer.span("engine.run", 0, lot);
            runner.run(&campaign)
        };
        let elapsed = sent.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu_before;
        phase.cpu_seconds += cpu;
        phase.seconds += elapsed;
        phase.slices.push(Slice {
            items: result.as_ref().map_or(0, |r| r.results.len() as u64),
            seconds: elapsed,
            cpu_seconds: cpu,
        });
        phase.latencies_ms.push(elapsed * 1e3);
        phase.attempted += LOT_DEVICES as u64;
        match result {
            Ok(report) => {
                phase.items += report.results.len() as u64;
                let _span = tracer.span("audit", 0, lot);
                let wrong = audit(shape, &campaign, &report, flows, seed, lot);
                phase.failed += wrong.unwrap_or_else(|e| {
                    phase.note_error(e);
                    LOT_DEVICES as u64
                });
                last = Some(RanLot { lot, campaign, report });
            }
            Err(e) => {
                phase.failed += LOT_DEVICES as u64;
                phase.note_error(format!("lot {lot}: {e}"));
            }
        }
        lot += 1;
    }
    (phase, last)
}

/// Re-evaluates a seeded sample of a lot's devices through the per-device
/// reference path (`TestFlow::evaluate`, or — for devices observed through
/// their own varied monitor bank — the same capture through that bank,
/// scored against the product's golden) and counts wrong verdicts. A report
/// with missing devices counts every missing device as wrong.
fn audit(
    shape: LotShape,
    campaign: &Campaign,
    report: &CampaignReport,
    flows: &[TestFlow],
    seed: u64,
    lot: u64,
) -> Result<u64, String> {
    let mut wrong = LOT_DEVICES.abs_diff(report.results.len()) as u64;
    let flow = &flows[(lot % LOT_PRODUCTS as u64) as usize];
    let mut rng = SplitMix64::derive(seed, 0x4155_4400 ^ lot);
    for _ in 0..AUDITED_PER_LOT {
        let index = rng.below(LOT_DEVICES);
        let spec = campaign.device(index).map_err(|e| e.to_string())?;
        let ndf = match device_partition(campaign, spec.monitor_seed)? {
            None => {
                flow.evaluate(&spec.cut, spec.noise_seed)
                    .map_err(|e| e.to_string())?
                    .ndf
            }
            Some(partition) => {
                let observed_through = TestSetup {
                    partition,
                    ..shape.setup()
                };
                let observed = observed_through
                    .signature_of(&spec.cut, spec.noise_seed)
                    .map_err(|e| e.to_string())?;
                dsig_core::ndf(flow.golden(), &observed).map_err(|e| e.to_string())?
            }
        };
        let expected = Verdict::new(ndf, campaign.band.decide(ndf));
        let got = report
            .results
            .get(index)
            .filter(|r| r.index == index)
            .map(|r| Verdict::new(r.ndf, r.outcome));
        if got != Some(expected) {
            wrong += 1;
        }
    }
    Ok(wrong)
}
