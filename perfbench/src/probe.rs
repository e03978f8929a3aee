//! The traced run's layer probes. Each probe calls one layer's public
//! functions on the workload's own inputs, inside benchmark-side spans, and
//! checks what comes back against the workload's reference verdicts.

use std::hint::black_box;
use std::time::Instant;

use dsig_core::{capture_signatures_batch, signature_from_codes, BatchDevice, SharedStimulus, Signature};
use dsig_engine::{Campaign, CampaignRunner, DEFAULT_CHUNK};
use dsig_obs::{MetricsSnapshot, Registry};
use dsig_router::RouterClient;
use dsig_serve::{group_by_fingerprint, ServeClient, ServeHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_signal::lowpass_in_place;
use xy_monitor::{saturation_current, CurrentComparator, ZonePartition};

use crate::fleet::Fleet;
use crate::jobs::{count_wrong, Job, Upload, Verdict};
use crate::stats::bucket_quantile;
use crate::trace::Tracer;

/// What the stage replay of one campaign measured and checked.
#[derive(Debug, Default)]
pub struct CaptureProbe {
    pub devices: usize,
    /// Replayed verdicts that differ from the runner's in any NDF bit or in
    /// the outcome.
    pub replay_mismatches: usize,
    /// Batched-capture signatures that differ from the replay (checked only
    /// where the campaign itself takes the batched path).
    pub batch_mismatches: usize,
    pub saturation_calls: u64,
    pub comparator_calls: u64,
    /// The replayed signatures, in device order.
    pub signatures: Vec<Signature>,
}

/// The observation partition a device of `campaign` is captured through: the
/// setup's own bank, or the device's varied monitor instance — drawn from
/// its monitor seed exactly as the campaign engine draws it.
pub(crate) fn device_partition(campaign: &Campaign, monitor_seed: u64) -> Result<Option<ZonePartition>, String> {
    let Some(variation) = &campaign.monitor_variation else {
        return Ok(None);
    };
    let mut rng = StdRng::seed_from_u64(monitor_seed);
    let varied: Vec<CurrentComparator> = campaign
        .setup
        .partition
        .monitors()
        .iter()
        .map(|monitor| variation.sample_comparator(monitor, &mut rng))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    ZonePartition::new(varied).map(Some).map_err(|e| e.to_string())
}

/// Replays every device of `campaign` stage by stage — response synthesis,
/// noise and front-end filtering, zone encoding, run-length encoding,
/// deglitching and scoring — with one span per stage, and checks each
/// verdict against `expected` (the runner's report for the same campaign).
///
/// It then times the batched capture kernel over the same devices (with
/// the setup's nominal monitor bank: on a monitor-variation campaign that
/// is the cost a batched path would have), and the transistor and
/// comparator models over the replayed trajectories.
pub fn capture_probe(
    campaign: &Campaign,
    golden: &Signature,
    expected: &[Verdict],
    tracer: &Tracer,
) -> Result<CaptureProbe, String> {
    let setup = &campaign.setup;
    let devices = campaign.device_count();
    if expected.len() != devices {
        return Err(format!("{} reference verdicts for {devices} devices", expected.len()));
    }
    let x_raw = setup.stimulus.sample(1, setup.sample_rate);
    let dt = x_raw.dt();
    let noisy = !setup.noise.is_none();
    let mut x_shared = x_raw.samples().to_vec();
    if let Some(bandwidth) = setup.monitor_bandwidth_hz {
        lowpass_in_place(&mut x_shared, dt, bandwidth);
    }

    let mut probe = CaptureProbe {
        devices,
        ..CaptureProbe::default()
    };
    let mut replayed: Vec<Signature> = Vec::with_capacity(devices);
    let mut trajectories: Vec<(Vec<f64>, Vec<f64>, Option<ZonePartition>)> = Vec::new();
    let (mut x_dev, mut y) = (Vec::new(), Vec::new());
    for (index, want) in expected.iter().enumerate() {
        let spec = campaign.device(index).map_err(|e| e.to_string())?;
        let partition = device_partition(campaign, spec.monitor_seed)?;
        let root = tracer.span("replay.device", 0, index as u64);
        {
            let _span = tracer.span("filters.response", root.id(), index as u64);
            spec.cut
                .steady_state_response_into(&setup.stimulus, 1, setup.sample_rate, &mut y);
        }
        let x: &[f64] = {
            let _span = tracer.span("signal.noise_filter", root.id(), index as u64);
            if noisy {
                setup
                    .noise
                    .apply_in_place(&mut y, spec.noise_seed.wrapping_mul(2).wrapping_add(1));
            }
            if let Some(bandwidth) = setup.monitor_bandwidth_hz {
                lowpass_in_place(&mut y, dt, bandwidth);
            }
            if noisy {
                x_dev.clear();
                x_dev.extend_from_slice(x_raw.samples());
                setup.noise.apply_in_place(&mut x_dev, spec.noise_seed.wrapping_mul(2));
                if let Some(bandwidth) = setup.monitor_bandwidth_hz {
                    lowpass_in_place(&mut x_dev, dt, bandwidth);
                }
                &x_dev
            } else {
                &x_shared
            }
        };
        let points: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
        let codes = {
            let _span = tracer.span("monitor.encode", root.id(), index as u64);
            partition.as_ref().unwrap_or(&setup.partition).encode_points(&points)
        };
        let raw = {
            let _span = tracer.span("core.rle", root.id(), index as u64);
            signature_from_codes(codes.iter().copied(), dt, setup.clock.as_ref()).map_err(|e| e.to_string())?
        };
        let observed = {
            let _span = tracer.span("core.deglitch", root.id(), index as u64);
            raw.deglitched(setup.transition_min_dwell)
        };
        let verdict = {
            let _span = tracer.span("core.score", root.id(), index as u64);
            Verdict::score(golden, &campaign.band, &observed).map_err(|e| e.to_string())?
        };
        drop(root);
        if verdict != *want {
            probe.replay_mismatches += 1;
        }
        if trajectories.len() < 8 {
            trajectories.push((x.to_vec(), y.clone(), partition));
        }
        replayed.push(observed);
    }

    // The batched kernel over the same devices, one engine-sized chunk per
    // call, against a freshly built shared stimulus.
    let shared = SharedStimulus::new(setup).map_err(|e| e.to_string())?;
    let batch: Vec<BatchDevice> = (0..devices)
        .map(|i| campaign.device(i).map(|s| BatchDevice::new(s.cut, s.noise_seed)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    for (chunk_index, chunk) in batch.chunks(DEFAULT_CHUNK).enumerate() {
        let signatures = {
            let _span = tracer.span("core.batch_capture", 0, chunk_index as u64);
            capture_signatures_batch(setup, &shared, chunk).map_err(|e| e.to_string())?
        };
        if campaign.monitor_variation.is_none() {
            let from = chunk_index * DEFAULT_CHUNK;
            probe.batch_mismatches += count_differing(&signatures, &replayed[from..from + chunk.len()]);
        }
    }

    probe.signatures = replayed;

    // The transistor model and the comparator over the replayed
    // trajectories' (x, y) points, in the partitions that observed them.
    const ROUNDS: u64 = 10;
    {
        let _span = tracer.span("spice.saturation_current", 0, 0);
        let mut sum = 0.0;
        for _ in 0..ROUNDS {
            for (x, y, partition) in &trajectories {
                for monitor in partition.as_ref().unwrap_or(&setup.partition).monitors() {
                    for (t, input) in monitor.transistors.iter().zip(&monitor.inputs) {
                        for (&xk, &yk) in x.iter().zip(y) {
                            sum += saturation_current(t, black_box(input.voltage(xk, yk)));
                            probe.saturation_calls += 1;
                        }
                    }
                }
            }
        }
        black_box(sum);
    }
    {
        let _span = tracer.span("monitor.comparator", 0, 0);
        let mut sum = 0.0;
        for _ in 0..ROUNDS {
            for (x, y, partition) in &trajectories {
                for monitor in partition.as_ref().unwrap_or(&setup.partition).monitors() {
                    for (&xk, &yk) in x.iter().zip(y) {
                        sum += monitor.current_difference(black_box(xk), black_box(yk));
                        probe.comparator_calls += 1;
                    }
                }
            }
        }
        black_box(sum);
    }
    Ok(probe)
}

fn count_differing(a: &[Signature], b: &[Signature]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
}

/// The engine measured on the workload's own campaigns.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineProbe {
    pub run_us_per_device: f64,
    pub pool_efficiency: f64,
    /// Per-device fallbacks counted by the engine, per campaign run.
    pub fallback_per_run: f64,
    pub capture_us_p50: f64,
    pub score_us_p50: f64,
}

/// Runs `campaigns` on a `threads`-thread runner and on a one-thread runner
/// (both warmed first), and reads the engine's own registry.
pub fn engine_probe(threads: usize, campaigns: &[Campaign], tracer: &Tracer) -> Result<EngineProbe, String> {
    let (runner, serial) = (CampaignRunner::with_threads(threads), CampaignRunner::with_threads(1));
    for warmed in [&runner, &serial] {
        for campaign in campaigns {
            warmed
                .cache()
                .flow_for(&campaign.setup, &campaign.reference)
                .map_err(|e| e.to_string())?;
            warmed
                .stimulus_bank()
                .shared_for(&campaign.setup)
                .map_err(|e| e.to_string())?;
        }
    }
    let devices: usize = campaigns.iter().map(Campaign::device_count).sum();
    let fallbacks = || {
        Registry::global()
            .snapshot()
            .counter("engine.fallback.per_device")
            .unwrap_or(0)
    };

    let before = fallbacks();
    let started = Instant::now();
    for (i, campaign) in campaigns.iter().enumerate() {
        let _span = tracer.span("engine.run", 0, i as u64);
        runner.run(campaign).map_err(|e| e.to_string())?;
    }
    let parallel_s = started.elapsed().as_secs_f64();
    let fallback_per_run = (fallbacks() - before) as f64 / campaigns.len() as f64;
    let snapshot = Registry::global().snapshot();
    let p50 = |name: &str| snapshot.histogram(name).map_or(0.0, |h| bucket_quantile(h, 0.5));

    let started = Instant::now();
    for (i, campaign) in campaigns.iter().enumerate() {
        let _span = tracer.span("engine.run_serial", 0, i as u64);
        serial.run(campaign).map_err(|e| e.to_string())?;
    }
    let serial_s = started.elapsed().as_secs_f64();

    let parallel_rate = devices as f64 / parallel_s;
    let serial_rate = devices as f64 / serial_s;
    Ok(EngineProbe {
        run_us_per_device: parallel_s * 1e6 / devices as f64,
        pool_efficiency: parallel_rate / (runner.threads() as f64 * serial_rate),
        fallback_per_run,
        capture_us_p50: p50("engine.capture_us"),
        score_us_p50: p50("engine.score_us"),
    })
}

/// The serving and routing layers measured on the workload's own uploads,
/// one request at a time.
#[derive(Debug, Default)]
pub struct ServeProbe {
    pub requests: usize,
    pub items: usize,
    pub bytes: usize,
    pub wrong: usize,
}

/// Passes of the serving probe over the workload's uploads.
const SERVE_ROUNDS: usize = 2;

/// One piece of an upload as the owning backend sees it: `DSRM` uploads
/// split into one `DSRQ` per golden, as the router splits them.
struct Part<'a> {
    owner: usize,
    job: std::borrow::Cow<'a, Job>,
    /// Where each of the part's verdicts goes in the whole upload's answer.
    positions: Vec<usize>,
}

fn parts_of<'a>(fleet: &Fleet, job: &'a Job) -> Vec<Part<'a>> {
    let owner_of = |key: u64| {
        let label = fleet.router.handle().rank_labels(key).into_iter().next();
        fleet
            .servers
            .iter()
            .position(|s| Some(s.local_addr().to_string()) == label)
            .expect("every ranked label is one of the fleet's backends")
    };
    match &job.upload {
        Upload::Screen { key, .. } => vec![Part {
            owner: owner_of(*key),
            job: std::borrow::Cow::Borrowed(job),
            positions: (0..job.items()).collect(),
        }],
        Upload::Retest(request) => vec![Part {
            owner: owner_of(request.golden_key),
            job: std::borrow::Cow::Borrowed(job),
            positions: (0..job.items()).collect(),
        }],
        Upload::Multi { items } => group_by_fingerprint(items)
            .into_iter()
            .map(|(key, positions)| Part {
                owner: owner_of(key),
                job: std::borrow::Cow::Owned(Job {
                    upload: Upload::Screen {
                        key,
                        signatures: positions.iter().map(|&p| items[p].1.clone()).collect(),
                    },
                    expected: positions.iter().map(|&p| job.expected[p]).collect(),
                }),
                positions,
            })
            .collect(),
    }
}

/// Sends every job through the codec, the owning backend's in-process
/// handle, a TCP client straight to the owner, the router's in-process
/// handle and the router's TCP front, [`SERVE_ROUNDS`] times, with one span per
/// request and layer. At most one client connection is open at a time.
pub fn serve_probe(fleet: &Fleet, jobs: &[Job], tracer: &Tracer) -> Result<ServeProbe, String> {
    let mut probe = ServeProbe::default();
    let parts: Vec<Vec<Part<'_>>> = jobs.iter().map(|job| parts_of(fleet, job)).collect();
    let mut owners: Vec<ServeHandle> = fleet.servers.iter().map(|s| s.handle()).collect();
    let mut router = fleet.router.handle();
    let mut request = 0u64;
    for _ in 0..SERVE_ROUNDS {
        for job in jobs {
            let _span = tracer.span("serve.codec", 0, request);
            probe.bytes += job.codec_round_trip()?;
            probe.requests += 1;
            probe.items += job.items();
            request += 1;
        }
        for (job, job_parts) in jobs.iter().zip(&parts) {
            let span = tracer.span("serve.handle", 0, request);
            let mut got = vec![None; job.items()];
            for part in job_parts {
                let verdicts = part.job.send(&mut owners[part.owner]).map_err(|e| e.to_string())?;
                place(&mut got, &part.positions, verdicts);
            }
            drop(span);
            probe.wrong += wrong_in(job, got);
            request += 1;
        }
        // Straight to the owners over TCP, one backend connection at a time.
        let mut answers: Vec<Vec<Option<Verdict>>> = jobs.iter().map(|j| vec![None; j.items()]).collect();
        for (backend, server) in fleet.servers.iter().enumerate() {
            let mut client: Option<ServeClient> = None;
            for (j, job_parts) in parts.iter().enumerate() {
                for part in job_parts.iter().filter(|p| p.owner == backend) {
                    if client.is_none() {
                        client = Some(ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?);
                    }
                    let peer = client.as_mut().expect("connected above");
                    let _span = tracer.span("serve.tcp", 0, request + j as u64);
                    let verdicts = part.job.send(peer).map_err(|e| e.to_string())?;
                    place(&mut answers[j], &part.positions, verdicts);
                }
            }
        }
        for (job, got) in jobs.iter().zip(answers) {
            probe.wrong += wrong_in(job, got);
        }
        request += jobs.len() as u64;
        for job in jobs {
            let verdicts = {
                let _span = tracer.span("router.handle", 0, request);
                job.send(&mut router).map_err(|e| e.to_string())?
            };
            probe.wrong += count_wrong(&job.expected, &verdicts);
            request += 1;
        }
        let mut front = RouterClient::connect(fleet.router.local_addr()).map_err(|e| e.to_string())?;
        for job in jobs {
            let verdicts = {
                let _span = tracer.span("router.front", 0, request);
                job.send(&mut front).map_err(|e| e.to_string())?
            };
            probe.wrong += count_wrong(&job.expected, &verdicts);
            request += 1;
        }
    }
    Ok(probe)
}

fn place(got: &mut [Option<Verdict>], positions: &[usize], verdicts: Vec<Verdict>) {
    for (&p, v) in positions.iter().zip(verdicts) {
        got[p] = Some(v);
    }
}

fn wrong_in(job: &Job, got: Vec<Option<Verdict>>) -> usize {
    job.expected.iter().zip(got).filter(|(e, g)| Some(**e) != *g).count()
}

/// The scraped serving and routing metrics of the current fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetScrape {
    pub request_us_p50: f64,
    pub dispatch_us_p50: f64,
    pub fanout_us_p50: f64,
    pub forward_share_max: f64,
    pub retries: u64,
    pub refresh_on_miss: u64,
}

/// Reads the fleet scrape. Router counters are process-wide, so only the
/// current fleet's backend labels are counted.
pub fn read_scrape(fleet: &Fleet, snapshot: &MetricsSnapshot) -> FleetScrape {
    let p50 = |name: &str| snapshot.histogram(name).map_or(0.0, |h| bucket_quantile(h, 0.5));
    let labels: Vec<String> = fleet.servers.iter().map(|s| s.local_addr().to_string()).collect();
    let per_backend = |what: &str| -> Vec<u64> {
        labels
            .iter()
            .map(|l| snapshot.counter(&format!("router.backend.{l}.{what}")).unwrap_or(0))
            .collect()
    };
    let forwards = per_backend("forwards");
    let total: u64 = forwards.iter().sum();
    FleetScrape {
        request_us_p50: p50("fleet.serve.request_us"),
        dispatch_us_p50: p50("fleet.serve.dispatch_us"),
        fanout_us_p50: p50("router.fanout_us"),
        forward_share_max: forwards.iter().max().copied().unwrap_or(0) as f64 / total.max(1) as f64,
        retries: per_backend("retries").iter().sum(),
        refresh_on_miss: snapshot.counter("router.refresh_on_miss").unwrap_or(0),
    }
}

/// The largest `serve.queue_depth` gauge any backend shows in `snapshot`.
pub fn queue_depth_max(fleet: &Fleet, snapshot: &MetricsSnapshot) -> f64 {
    fleet
        .servers
        .iter()
        .filter_map(|s| snapshot.gauge(&format!("backend.{}.serve.queue_depth", s.local_addr())))
        .fold(0.0, f64::max)
}
