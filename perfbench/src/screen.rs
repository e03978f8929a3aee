//! The screening workloads: pre-captured signatures uploaded over loopback
//! TCP to a `Router` front with four `Server` backends.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsig_core::{RetestPolicy, Signature};
use dsig_engine::{Campaign, CampaignRunner};
use dsig_router::RouterClient;
use dsig_serve::proto::{decode_response, encode_request, peek_request_id, read_frame, stamp_request_id, write_frame};
use dsig_serve::{RetestItem, RetestRequest, ScreenResponse};

use crate::common::{mc_campaign, paper_setup, Phase, Slice, NDF_THRESHOLD, PRODUCTS};
use crate::fleet::{store_path, Fleet};
use crate::jobs::{count_wrong, Job, Upload, Verdict};
use crate::lots::report_verdicts;
use crate::probe::queue_depth_max;
use crate::stats::{median, poisson_schedule, window_medians, SplitMix64, Zipf};
use crate::sys;
use crate::trace::Tracer;

/// Signatures captured per product for the upload pool.
pub const POOL_PER_PRODUCT: usize = 512;
/// Zipf exponent of the product draw: the hot product gets ~43%.
pub const ZIPF_EXPONENT: f64 = 1.2;
/// The open loop's offered rate, requests per second: a tenth of the highest
/// rate it served unsaturated on a quiet 2-core x86-64 VM (see the README
/// for why not half). Frozen so that runs on every commit offer the same
/// load.
pub const SINGLE_RATE: f64 = 2500.0;
/// Signatures (or retest devices) per `screen_bulk` upload.
pub const BULK_BATCH: usize = 256;
/// Prebuilt `screen_bulk` uploads the connections cycle through.
pub const BULK_JOBS: usize = 60;
/// Share of the pool, closest to the threshold, that carries retest repeats.
pub const MARGINAL_FRACTION: f64 = 0.10;
/// Repeats a marginal device carries in a `DSRT` upload.
pub const RETEST_REPEATS: u32 = 2;
/// The open loop counts as saturated when its backlog at the end of the run
/// exceeds the requests offered in this many seconds. By Little's law that is
/// the queue of a 5 ms mean latency; a loop that keeps up ends near one
/// request (the one being sent).
const SATURATED_BACKLOG_S: f64 = 0.005;
/// The second trigger: the median of the windows' median latencies exceeds
/// this, so the backlog did not drain for most of the run.
const SATURATED_LATENCY_MS: f64 = 5.0;

/// The captured upload pool with its local reference verdicts.
pub struct Pool {
    pub campaigns: Vec<Campaign>,
    pub signatures: Vec<Vec<Signature>>,
    pub verdicts: Vec<Vec<Verdict>>,
    /// Whether each device is among the most marginal and carries repeats.
    pub marginal: Vec<Vec<bool>>,
    pub policy: RetestPolicy,
    pub runner: CampaignRunner,
}

pub struct System {
    pub fleet: Fleet,
    pub pool: Pool,
}

/// Boots the fleet from a saved store, then captures the pool with the
/// campaign engine and scores every signature locally.
pub fn set_up(seed: u64, threads: usize, work_dir: &Path, tracer: &Tracer) -> Result<System, String> {
    let setup = paper_setup();
    let (store, keys) = Fleet::characterize(&setup, 0..PRODUCTS.len(), tracer)?;
    let fleet = Fleet::boot(store, &keys, &store_path(work_dir), tracer)?;

    let runner = CampaignRunner::with_threads(threads);
    {
        let _span = tracer.span("core.stimulus_build", 0, 0);
        runner.stimulus_bank().shared_for(&setup).map_err(|e| e.to_string())?;
    }
    let (mut campaigns, mut signatures, mut verdicts) = (Vec::new(), Vec::new(), Vec::new());
    for (index, golden) in fleet.goldens.iter().enumerate() {
        let campaign = mc_campaign(
            setup.clone(),
            index,
            POOL_PER_PRODUCT,
            SplitMix64::derive(seed, 0x504f_4f00 + index as u64).next_u64(),
        );
        let (report, log) = {
            let _span = tracer.span("engine.run", 0, index as u64);
            runner.run_logged(&campaign).map_err(|e| e.to_string())?
        };
        let captured: Vec<Signature> = log.entries().iter().map(|(_, s)| s.clone()).collect();
        let local: Vec<Verdict> = captured
            .iter()
            .map(|s| Verdict::score(&golden.signature, &golden.band, s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let engine = report_verdicts(&report);
        if count_wrong(&engine, &local) != 0 {
            return Err(format!("product {index}: served golden and engine golden disagree"));
        }
        campaigns.push(campaign);
        signatures.push(captured);
        verdicts.push(local);
    }

    // The retest population: the pool's devices closest to the threshold,
    // and a guard band just wide enough to call them marginal.
    let mut ranked: Vec<(f64, usize, usize)> = verdicts
        .iter()
        .enumerate()
        .flat_map(|(p, vs)| {
            vs.iter()
                .enumerate()
                .map(move |(d, v)| ((f64::from_bits(v.ndf_bits) - NDF_THRESHOLD).abs(), p, d))
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    let budget = ((ranked.len() as f64 * MARGINAL_FRACTION).round() as usize).max(1);
    let policy = RetestPolicy::new(ranked[budget - 1].0, vec![RETEST_REPEATS]).map_err(|e| e.to_string())?;
    let mut marginal: Vec<Vec<bool>> = signatures.iter().map(|s| vec![false; s.len()]).collect();
    for &(_, p, d) in &ranked[..budget] {
        marginal[p][d] = true;
    }
    Ok(System {
        fleet,
        pool: Pool {
            campaigns,
            signatures,
            verdicts,
            marginal,
            policy,
            runner,
        },
    })
}

/// A device of the pool: `(product, index)`.
type Device = (usize, usize);

fn draw_device(pool: &Pool, zipf: &Zipf, rng: &mut SplitMix64) -> Device {
    let product = zipf.sample(rng);
    (product, rng.below(pool.signatures[product].len()))
}

/// One request of the open loop: when it is due, and which device it uploads.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_s: f64,
    pub device: Device,
}

/// The seeded open-loop schedule: Poisson arrivals at `rate` per second over
/// `seconds`, each device's product drawn from the Zipf law.
pub fn single_schedule(pool: &Pool, seed: u64, seconds: f64, rate: f64) -> Vec<Arrival> {
    let zipf = Zipf::new(PRODUCTS.len(), ZIPF_EXPONENT);
    let due = poisson_schedule(&mut SplitMix64::derive(seed, 0x5049_4e47), rate, seconds);
    let mut rng = SplitMix64::derive(seed, 0x5349_4e47);
    due.into_iter()
        .map(|due_s| Arrival {
            due_s,
            device: draw_device(pool, &zipf, &mut rng),
        })
        .collect()
}

/// A batch-1 `DSRQ` upload of one pool device.
pub fn single_job(system: &System, (p, d): Device) -> Job {
    Job {
        upload: Upload::Screen {
            key: system.fleet.goldens[p].key,
            signatures: vec![system.pool.signatures[p][d].clone()],
        },
        expected: vec![system.pool.verdicts[p][d]],
    }
}

/// The seeded `screen_bulk` uploads: half single-product `DSRQ` batches,
/// 40% `DSRM` batches mixing all products, 10% `DSRT` retests — that exact
/// mix of `count` uploads, in a seeded order.
pub fn bulk_jobs(system: &System, seed: u64, count: usize) -> Result<Vec<Job>, String> {
    let mut rng = SplitMix64::derive(seed, 0x4255_4c4b);
    let mut kinds: Vec<u8> = (0..count)
        .map(|i| match i * 10 / count {
            0..=4 => 0,
            5..=8 => 1,
            _ => 2,
        })
        .collect();
    // Fisher-Yates with the seeded generator.
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => Ok(screen_upload(system, &mut rng)),
            1 => Ok(multi_upload(system, &mut rng)),
            _ => retest_upload(system, &mut rng),
        })
        .collect()
}

fn screen_upload(system: &System, rng: &mut SplitMix64) -> Job {
    let pool = &system.pool;
    let product = Zipf::new(PRODUCTS.len(), ZIPF_EXPONENT).sample(rng);
    let devices: Vec<usize> = (0..BULK_BATCH)
        .map(|_| rng.below(pool.signatures[product].len()))
        .collect();
    Job {
        upload: Upload::Screen {
            key: system.fleet.goldens[product].key,
            signatures: devices.iter().map(|&d| pool.signatures[product][d].clone()).collect(),
        },
        expected: devices.iter().map(|&d| pool.verdicts[product][d]).collect(),
    }
}

fn multi_upload(system: &System, rng: &mut SplitMix64) -> Job {
    let pool = &system.pool;
    let zipf = Zipf::new(PRODUCTS.len(), ZIPF_EXPONENT);
    let devices: Vec<Device> = (0..BULK_BATCH).map(|_| draw_device(pool, &zipf, rng)).collect();
    Job {
        upload: Upload::Multi {
            items: devices
                .iter()
                .map(|&(p, d)| (system.fleet.goldens[p].key, pool.signatures[p][d].clone()))
                .collect(),
        },
        expected: devices.iter().map(|&(p, d)| pool.verdicts[p][d]).collect(),
    }
}

fn retest_upload(system: &System, rng: &mut SplitMix64) -> Result<Job, String> {
    let pool = &system.pool;
    let product = Zipf::new(PRODUCTS.len(), ZIPF_EXPONENT).sample(rng);
    let golden = &system.fleet.goldens[product];
    let items: Vec<RetestItem> = (0..BULK_BATCH)
        .map(|_| {
            let d = rng.below(pool.signatures[product].len());
            let initial = pool.signatures[product][d].clone();
            // The pool is noiseless: every repeat observes the same samples,
            // exactly what a tester would upload.
            let repeats = if pool.marginal[product][d] {
                vec![initial.clone(); RETEST_REPEATS as usize]
            } else {
                Vec::new()
            };
            RetestItem { initial, repeats }
        })
        .collect();
    let expected = items
        .iter()
        .map(|item| Verdict::retest(&golden.signature, &golden.band, &pool.policy, item).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Job {
        upload: Upload::Retest(RetestRequest {
            golden_key: golden.key,
            policy: pool.policy.clone(),
            items,
        }),
        expected,
    })
}

/// What one load thread saw.
#[derive(Default)]
struct ThreadLog {
    attempted: u64,
    failed: u64,
    items: u64,
    /// `(completion time, latency ms)`.
    latencies_ms: Vec<(Instant, f64)>,
    /// Open-loop sender only: how late each request went out, and the
    /// backlog at each send.
    lateness_ms: Vec<f64>,
    backlog: Vec<u64>,
    last_done: Option<Instant>,
    errors: Vec<String>,
    /// The slice clock, on the one thread that samples it.
    clock: Option<SliceClock>,
}

/// Slice lengths: the load thread that owns the clock cuts a slice after
/// its first request past each interval. The open loop's rate is the offered
/// one, so its slices are long enough (a twentieth of the phase) for Poisson
/// arrivals to average out; the closed loop's are short, so a run holds
/// hundreds of them.
const OPEN_LOOP_SLICES: u32 = 20;
const CLOSED_LOOP_SLICE_S: f64 = 0.1;

/// Cuts a load loop into consecutive [`Slice`]s from the running count of
/// returned verdicts, sampled by one load thread between its requests.
struct SliceClock {
    every: Duration,
    last: (Instant, u64, f64),
    slices: Vec<Slice>,
}

impl SliceClock {
    fn new(started: Instant, every_s: f64) -> Self {
        SliceClock {
            every: Duration::from_secs_f64(every_s),
            last: (started, 0, sys::cpu_seconds()),
            slices: Vec::new(),
        }
    }

    fn poll(&mut self, items: u64) {
        let now = Instant::now();
        if now.saturating_duration_since(self.last.0) >= self.every {
            self.cut(now, items);
        }
    }

    fn cut(&mut self, at: Instant, items: u64) {
        let cpu = sys::cpu_seconds();
        let (since, items_before, cpu_before) = self.last;
        self.slices.push(Slice {
            items: items.saturating_sub(items_before),
            seconds: at.saturating_duration_since(since).as_secs_f64(),
            cpu_seconds: cpu - cpu_before,
        });
        self.last = (at, items, cpu);
    }
}

fn merge(logs: Vec<ThreadLog>, started: Instant, cpu_seconds: f64) -> Phase {
    let mut phase = Phase {
        cpu_seconds,
        ..Phase::default()
    };
    let mut clock = None;
    let mut latencies: Vec<(Instant, f64)> = Vec::new();
    let mut last_done = started;
    for log in logs {
        phase.attempted += log.attempted;
        phase.failed += log.failed;
        phase.items += log.items;
        latencies.extend(log.latencies_ms);
        last_done = last_done.max(log.last_done.unwrap_or(started));
        for e in log.errors {
            phase.note_error(e);
        }
        clock = clock.or(log.clock);
    }
    // Only whole slices count: the stretch after the last cut is shorter,
    // and its rate would mix the stragglers of the other connections.
    if let Some(clock) = clock {
        phase.slices = clock.slices;
    }
    latencies.sort_by_key(|&(done, _)| done);
    phase.latencies_ms = latencies.into_iter().map(|(_, l)| l).collect();
    phase.seconds = (last_done - started).as_secs_f64();
    phase
}

/// Scrapes the fleet every quarter second from one load thread, keeping the
/// largest backend queue depth seen. Only the traced run samples, in both of
/// its load phases, so `trace.overhead_pct` compares like with like.
struct QueueSampler<'a> {
    fleet: &'a Fleet,
    every: Duration,
    next: Instant,
    max: &'a Mutex<f64>,
}

impl<'a> QueueSampler<'a> {
    fn new(fleet: &'a Fleet, started: Instant, max: Option<&'a Mutex<f64>>) -> Option<Self> {
        max.map(|max| QueueSampler {
            fleet,
            every: Duration::from_millis(250),
            next: started,
            max,
        })
    }

    fn poll(&mut self) {
        if Instant::now() < self.next {
            return;
        }
        self.next = Instant::now() + self.every;
        let depth = queue_depth_max(self.fleet, &self.fleet.scrape());
        let mut max = self.max.lock().expect("queue sampler lock poisoned");
        *max = max.max(depth);
    }
}

/// The open loop over one pipelined tester connection: a sender thread
/// writes each request at its due time without waiting for earlier answers,
/// and a reader thread matches the answers by request id. Latency runs from
/// the due time, so a stall also charges every request queued behind it.
pub fn run_single(
    system: &System,
    schedule: &[Arrival],
    tracer: &Tracer,
    queue_max: Option<&Mutex<f64>>,
) -> Result<Phase, String> {
    let io = |e: std::io::Error| format!("open-loop connection: {e}");
    let stream = TcpStream::connect(system.fleet.router.local_addr()).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    // A lost answer must end the run, not hang it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(io)?;
    let read_half = stream.try_clone().map_err(io)?;
    let answered = AtomicUsize::new(0);
    let cpu_before = sys::cpu_seconds();
    // Start slightly in the future so both threads are up at time zero.
    let started = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| started + Duration::from_secs_f64(schedule[i].due_s);

    let (sent, read) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut log = ThreadLog::default();
            let mut clock = SliceClock::new(
                started,
                schedule.last().map_or(0.0, |a| a.due_s) / f64::from(OPEN_LOOP_SLICES),
            );
            let mut writer = BufWriter::new(stream);
            let mut sampler = QueueSampler::new(&system.fleet, started, queue_max);
            for (i, arrival) in schedule.iter().enumerate() {
                let due_at = due(i);
                let now = Instant::now();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                let sent = Instant::now();
                let since_start = (sent - started).as_secs_f64();
                let due_count = schedule.partition_point(|a| a.due_s <= since_start);
                log.backlog
                    .push(due_count.saturating_sub(answered.load(Ordering::Relaxed)) as u64);
                log.lateness_ms.push((sent - due_at).as_secs_f64() * 1e3);
                let (p, d) = arrival.device;
                let mut payload = encode_request(
                    system.fleet.goldens[p].key,
                    std::slice::from_ref(&system.pool.signatures[p][d]),
                );
                stamp_request_id(&mut payload, i as u64 + 1);
                log.attempted += 1;
                let written = write_frame(&mut writer, &payload)
                    .map_err(|e| e.to_string())
                    .and_then(|()| writer.flush().map_err(|e| e.to_string()));
                if let Err(e) = written {
                    log.errors.push(format!("request {i}: {e}"));
                    break;
                }
                clock.poll(answered.load(Ordering::Relaxed) as u64);
                if let Some(sampler) = sampler.as_mut() {
                    sampler.poll();
                }
            }
            log.clock = Some(clock);
            log
        });
        let reader = scope.spawn(|| {
            let mut log = ThreadLog::default();
            let mut reader = BufReader::new(read_half);
            let mut seen = vec![false; schedule.len()];
            while answered.load(Ordering::Relaxed) < schedule.len() {
                let payload = match read_frame(&mut reader) {
                    Ok(Some(payload)) => payload,
                    Ok(None) => {
                        log.errors.push("the router closed the connection".into());
                        break;
                    }
                    Err(e) => {
                        log.errors.push(format!("read: {e}"));
                        break;
                    }
                };
                let done = Instant::now();
                let Some(i) = (peek_request_id(&payload) as usize)
                    .checked_sub(1)
                    .filter(|&i| i < schedule.len() && !seen[i])
                else {
                    log.errors.push("an answer matched no outstanding request".into());
                    break;
                };
                seen[i] = true;
                answered.fetch_add(1, Ordering::Relaxed);
                log.last_done = Some(done);
                let (p, d) = schedule[i].device;
                match decode_response(&payload) {
                    Ok(ScreenResponse::Results(scores)) => {
                        tracer.record("loadgen.request", i as u64, due(i), done);
                        log.latencies_ms.push((done, (done - due(i)).as_secs_f64() * 1e3));
                        log.items += scores.len() as u64;
                        let got: Vec<Verdict> = scores.iter().map(|s| Verdict::new(s.ndf, s.outcome)).collect();
                        log.failed += count_wrong(&system.pool.verdicts[p][d..=d], &got) as u64;
                    }
                    Ok(ScreenResponse::Error { message, .. }) => {
                        log.failed += 1;
                        log.errors.push(format!("request {i}: {message}"));
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("request {i}: {e}"));
                    }
                }
            }
            log
        });
        (sender.join(), reader.join())
    });
    let (mut sent, read) = (
        sent.map_err(|_| "the open-loop sender panicked")?,
        read.map_err(|_| "the open-loop reader panicked")?,
    );
    // Requests sent but never answered are failed verdicts too.
    let unanswered = sent.attempted.saturating_sub(answered.load(Ordering::Relaxed) as u64);
    let lateness_ms = std::mem::take(&mut sent.lateness_ms);
    let backlog = std::mem::take(&mut sent.backlog);
    let mut phase = merge(vec![sent, read], started, sys::cpu_seconds() - cpu_before);
    phase.failed += unanswered;
    phase.lateness_ms = lateness_ms;
    phase.backlog_max = backlog.iter().copied().max().unwrap_or(0);
    phase.backlog_end = backlog_at_end(&backlog);
    let rate = schedule.len() as f64 / schedule.last().map_or(1.0, |a| a.due_s.max(1e-3));
    phase.saturated = saturated(phase.backlog_end, rate, &phase.latencies_ms);
    Ok(phase)
}

/// The open loop's backlog at the end of a run: the median over the last
/// quarter of its sends, so a burst that drains does not count.
fn backlog_at_end(backlog: &[u64]) -> f64 {
    let tail: Vec<f64> = backlog[backlog.len() * 3 / 4..].iter().map(|&b| b as f64).collect();
    if tail.is_empty() {
        0.0
    } else {
        median(&tail)
    }
}

/// Whether an open loop offered `rate` requests per second fell behind: its
/// backlog at the end of the run holds more than [`SATURATED_BACKLOG_S`] of
/// offered load, or the median window latency exceeds
/// [`SATURATED_LATENCY_MS`]. A loop that keeps up drains its bursts.
fn saturated(backlog_end: f64, rate: f64, latencies_ms: &[f64]) -> bool {
    backlog_end > rate * SATURATED_BACKLOG_S
        || (!latencies_ms.is_empty() && median(&window_medians(latencies_ms)) > SATURATED_LATENCY_MS)
}

/// The closed loop: `threads` connections, each with one upload outstanding,
/// cycling through the prebuilt jobs from their own offsets for `seconds`.
pub fn run_bulk(
    system: &System,
    jobs: &[Job],
    threads: usize,
    seconds: f64,
    tracer: &Tracer,
    queue_max: Option<&Mutex<f64>>,
) -> Phase {
    let addr = system.fleet.router.local_addr();
    let done_items = AtomicU64::new(0);
    let cpu_before = sys::cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|thread| {
                let done_items = &done_items;
                scope.spawn(move || {
                    let mut log = ThreadLog::default();
                    let mut clock = (thread == 0).then(|| SliceClock::new(started, CLOSED_LOOP_SLICE_S));
                    let mut client = match RouterClient::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            log.errors.push(format!("connect: {e}"));
                            return log;
                        }
                    };
                    let mut sampler = QueueSampler::new(&system.fleet, started, queue_max.filter(|_| thread == 0));
                    let mut n = thread * jobs.len() / threads;
                    while Instant::now() < deadline {
                        let job = &jobs[n % jobs.len()];
                        let sent = Instant::now();
                        log.attempted += job.items() as u64;
                        let result = {
                            let _span = tracer.span("loadgen.request", 0, n as u64);
                            job.send(&mut client)
                        };
                        let done = Instant::now();
                        log.last_done = Some(done);
                        match result {
                            Ok(verdicts) => {
                                log.latencies_ms.push((done, (done - sent).as_secs_f64() * 1e3));
                                log.items += verdicts.len() as u64;
                                done_items.fetch_add(verdicts.len() as u64, Ordering::Relaxed);
                                log.failed += count_wrong(&job.expected, &verdicts) as u64;
                            }
                            Err(e) => {
                                log.failed += job.items() as u64;
                                if log.errors.len() < 5 {
                                    log.errors.push(format!("upload {n}: {e}"));
                                }
                            }
                        }
                        if let Some(clock) = clock.as_mut() {
                            clock.poll(done_items.load(Ordering::Relaxed));
                        }
                        if let Some(sampler) = sampler.as_mut() {
                            sampler.poll();
                        }
                        n += 1;
                    }
                    log.clock = clock;
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    merge(logs, started, sys::cpu_seconds() - cpu_before)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 20 windows of 125 sends at 2,500 requests/s.
    fn sends(window_backlog: impl Fn(usize) -> u64) -> Vec<u64> {
        (0..20)
            .flat_map(|w| std::iter::repeat_n(window_backlog(w), 125))
            .collect()
    }

    #[test]
    fn a_backlog_that_climbs_late_in_the_run_is_saturation() {
        // Steady for 11 windows, then 40 more requests behind every window.
        let backlog = sends(|w| if w < 11 { 1 } else { 40 * (w as u64 - 10) });
        assert!(backlog_at_end(&backlog) > 2500.0 * SATURATED_BACKLOG_S);
        // Fast answers in the steady windows do not hide it.
        assert!(saturated(backlog_at_end(&backlog), 2500.0, &[0.3; 2500]));
    }

    #[test]
    fn a_burst_that_drains_is_not_saturation() {
        let backlog = sends(|w| if w == 17 { 200 } else { 1 });
        assert_eq!(backlog_at_end(&backlog), 1.0);
        assert!(!saturated(backlog_at_end(&backlog), 2500.0, &[0.3; 2500]));
        // Latency that stays high for most of the run is the second trigger.
        assert!(saturated(backlog_at_end(&backlog), 2500.0, &[9.0; 2500]));
    }
}
