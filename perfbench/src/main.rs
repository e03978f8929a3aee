//! The repository benchmark: one seeded command per workload that drives the
//! crates' public APIs, audits every verdict, and prints every metric by
//! name with its unit. See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lot_batched --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every benchmark-side span
//! off; `--trace 1` runs the same workload untraced and traced, then probes
//! every layer, and prints the per-layer metrics. The last line of standard
//! output is always one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod common;
mod fleet;
mod jobs;
mod lots;
mod probe;
mod screen;
mod stats;
mod sys;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use dsig_engine::{golden_fingerprint, CampaignRunner, DEFAULT_CHUNK};
use dsig_router::RouterStore;

use crate::common::Phase;
use crate::fleet::{store_path, Fleet};
use crate::jobs::{Job, Upload};
use crate::lots::{report_verdicts, LotShape, LOT_PRODUCTS};
use crate::probe::{CaptureProbe, EngineProbe, FleetScrape, ServeProbe};
use crate::stats::{median, quantile_sorted};
use crate::trace::{layer_times, LayerTime, Tracer};

const WORKLOADS: [&str; 4] = ["lot_batched", "lot_monitor_var", "screen_single", "screen_bulk"];
/// Where span dumps and the temporary router store go, relative to the
/// working directory (the repository root).
const WORK_DIR: &str = "perfbench/out";
/// Set-ups per untraced run; `setup_s` is their median.
const LOT_SETUPS: usize = 9;
const SCREEN_SETUPS: usize = 5;
/// Share of `--seconds` each of the traced run's two load phases takes.
const TRACED_PHASE_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// What one run prints: notes first, then the result object as the last line.
#[derive(Default)]
struct Output {
    attempted: u64,
    failed: u64,
    /// Set when a check other than a verdict audit fails (a bit-identity
    /// replay, or an open loop that saturated).
    invalid: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Output {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        for e in &phase.errors {
            self.notes.push(format!("error: {e}"));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let threads = sys::nproc();
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={threads} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::rustc_version(),
        sys::commit()
    );
    let result = match args.workload.as_str() {
        "lot_batched" => run_lots(
            &args,
            LotShape {
                monitor_variation: false,
            },
            threads,
        ),
        "lot_monitor_var" => run_lots(
            &args,
            LotShape {
                monitor_variation: true,
            },
            threads,
        ),
        "screen_single" => run_screen(&args, false, threads),
        _ => run_screen(&args, true, threads),
    };
    let output = match result {
        Ok(output) => output,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &output.notes {
        println!("# {note}");
    }
    for reason in &output.invalid {
        println!("# INVALID: {reason}");
    }
    println!("{}", output.json());
    if !output.correct() {
        std::process::exit(1);
    }
}

fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &mut Output, phase: &Phase, setup_s: f64) -> Result<(), String> {
    if phase.latencies_ms.is_empty() {
        return Err("no request completed".into());
    }
    out.count(phase);
    let latency = phase.latency();
    out.metric("setup_s", setup_s, "s");
    out.metric("items_per_s", phase.items_per_s(), "1/s");
    out.metric("cpu_us_per_item", phase.cpu_us_per_item(), "us");
    out.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    let p50 = latency.map_or_else(|| median(&phase.latencies_ms), |l| l.p50);
    let tail = latency.map_or("too few for a tail".into(), |l| {
        format!("p{} {:.4} ms", l.tail_pct, l.tail)
    });
    out.notes.push(format!(
        "latency: {} samples, p50 {p50:.4} ms, {tail}",
        phase.latencies_ms.len()
    ));
    check_open_loop(out, phase, "");
    Ok(())
}

/// Notes an open-loop phase's generator lateness and backlog, and marks the
/// run invalid if the loop fell behind. Closed-loop phases have neither.
fn check_open_loop(out: &mut Output, phase: &Phase, label: &str) {
    if phase.lateness_ms.is_empty() {
        return;
    }
    out.notes.push(format!(
        "open loop{label}: generator lateness p99 {:.3} ms, backlog max {}, backlog at end {:.1}",
        p99_of(&phase.lateness_ms),
        phase.backlog_max,
        phase.backlog_end
    ));
    if phase.saturated {
        out.invalid.push(format!(
            "the open loop{label} saturated: it ended {:.1} requests behind (offered {} req/s, served {:.1} req/s)",
            phase.backlog_end,
            screen::SINGLE_RATE,
            phase.items_per_s()
        ));
    }
}

fn p99_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.99)
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = Instant::now();
    let value = f()?;
    Ok((value, started.elapsed().as_secs_f64()))
}

fn run_lots(args: &Args, shape: LotShape, threads: usize) -> Result<Output, String> {
    let mut out = Output::default();
    if !args.trace {
        let off = Tracer::new(false);
        let mut setups = Vec::new();
        let mut runner = None;
        for _ in 0..LOT_SETUPS {
            // Drop the previous system first: each set-up starts from nothing.
            drop(runner.take());
            let (ready, seconds) = timed(|| shape.set_up(args.seed, shape.threads(threads), &off))?;
            setups.push(seconds);
            runner = Some(ready);
        }
        let runner = runner.expect("at least one set-up ran");
        let flows = shape.audit_flows()?;
        let (phase, _) = lots::measure(shape, &runner, &flows, args.seed, 0, args.seconds, &off);
        end_to_end(&mut out, &phase, median(&setups))?;
        return Ok(out);
    }

    let (on, off) = (Tracer::new(true), Tracer::new(false));
    let runner = shape.set_up(args.seed, shape.threads(threads), &on)?;
    let flows = shape.audit_flows()?;
    let phase_s = args.seconds * TRACED_PHASE_SHARE;
    let (untraced, _) = lots::measure(shape, &runner, &flows, args.seed, 0, phase_s, &off);
    let next_lot = untraced.latencies_ms.len() as u64;
    let (traced, last) = lots::measure(shape, &runner, &flows, args.seed, next_lot, phase_s, &on);
    out.count(&untraced);
    out.count(&traced);
    let last = last.ok_or("the traced phase completed no lot")?;
    let lot = last.lot;

    let campaigns: Vec<_> = (0..LOT_PRODUCTS as u64).map(|l| shape.campaign(args.seed, l)).collect();
    let engine = probe::engine_probe(threads, &campaigns, &on)?;
    let golden = flows[(lot % LOT_PRODUCTS as u64) as usize].golden();
    let expected = report_verdicts(&last.report);
    let capture = probe::capture_probe(&last.campaign, golden, &expected, &on)?;

    // The lot's own signatures through the serving layers, in the chunks a
    // remotely scored campaign ships, to a fleet serving the goldens the
    // audit flows characterized.
    let store = RouterStore::new();
    let keys: Vec<u64> = flows
        .iter()
        .map(|flow| {
            let key = golden_fingerprint(flow.setup(), flow.reference());
            store.insert(key, flow.golden().clone(), last.campaign.band);
            key
        })
        .collect();
    let fleet = Fleet::boot(store, &keys, &store_path(&work_dir()?), &on)?;
    let key = keys[(lot % LOT_PRODUCTS as u64) as usize];
    let jobs: Vec<Job> = capture
        .signatures
        .chunks(DEFAULT_CHUNK)
        .zip(expected.chunks(DEFAULT_CHUNK))
        .map(|(signatures, expected)| Job {
            upload: Upload::Screen {
                key,
                signatures: signatures.to_vec(),
            },
            expected: expected.to_vec(),
        })
        .collect();
    let serve = probe::serve_probe(&fleet, &jobs, &on)?;
    let snapshot = fleet.scrape();
    let queue_max = probe::queue_depth_max(&fleet, &snapshot);
    let scrape = probe::read_scrape(&fleet, &snapshot);
    let layers = Layers {
        untraced: &untraced,
        traced: &traced,
        capture: &capture,
        engine: &engine,
        bank_hit_ratio: bank_hit_ratio(&runner),
        serve: &serve,
        scrape: &scrape,
        queue_max,
        router_requests: serve.requests as u64 * 2,
    };
    finish_traced(&mut out, &layers, &on, args)?;
    Ok(out)
}

fn bank_hit_ratio(runner: &CampaignRunner) -> f64 {
    let bank = runner.stimulus_bank();
    bank.hits() as f64 / (bank.hits() + bank.misses()).max(1) as f64
}

fn run_screen(args: &Args, bulk: bool, threads: usize) -> Result<Output, String> {
    let mut out = Output::default();
    let dir = work_dir()?;
    // Only the traced run samples the backend queues, in both load phases.
    let queue_max = Mutex::new(0.0);
    let sampled = args.trace.then_some(&queue_max);
    let run = |system: &screen::System, seconds: f64, tracer: &Tracer| -> Result<Phase, String> {
        Ok(if bulk {
            let jobs = screen::bulk_jobs(system, args.seed, screen::BULK_JOBS)?;
            screen::run_bulk(system, &jobs, threads, seconds, tracer, sampled)
        } else {
            let schedule = screen::single_schedule(&system.pool, args.seed, seconds, screen::SINGLE_RATE);
            screen::run_single(system, &schedule, tracer, sampled)?
        })
    };
    if !args.trace {
        let off = Tracer::new(false);
        let mut setups = Vec::new();
        let mut system = None;
        for _ in 0..SCREEN_SETUPS {
            drop(system.take());
            let (ready, seconds) = timed(|| screen::set_up(args.seed, threads, &dir, &off))?;
            setups.push(seconds);
            system = Some(ready);
        }
        let system = system.expect("at least one set-up ran");
        let phase = run(&system, args.seconds, &off)?;
        end_to_end(&mut out, &phase, median(&setups))?;
        let scrape = probe::read_scrape(&system.fleet, &system.fleet.scrape());
        out.notes.push(format!(
            "fleet: largest backend forward share {:.3}, router retries {}, refresh-on-miss {}",
            scrape.forward_share_max, scrape.retries, scrape.refresh_on_miss
        ));
        return Ok(out);
    }

    let (on, off) = (Tracer::new(true), Tracer::new(false));
    let system = screen::set_up(args.seed, threads, &dir, &on)?;
    let phase_s = args.seconds * TRACED_PHASE_SHARE;
    let untraced = run(&system, phase_s, &off)?;
    let traced = run(&system, phase_s, &on)?;
    out.count(&untraced);
    out.count(&traced);
    check_open_loop(&mut out, &untraced, " (untraced phase)");
    check_open_loop(&mut out, &traced, " (traced phase)");

    let pool = &system.pool;
    let engine = probe::engine_probe(threads, &pool.campaigns[..4], &on)?;
    let capture = probe::capture_probe(
        &pool.campaigns[0],
        &system.fleet.goldens[0].signature,
        &pool.verdicts[0],
        &on,
    )?;
    let jobs: Vec<Job> = if bulk {
        screen::bulk_jobs(&system, args.seed, 20)?
    } else {
        screen::single_schedule(pool, args.seed, phase_s, screen::SINGLE_RATE)
            .iter()
            .take(200)
            .map(|arrival| screen::single_job(&system, arrival.device))
            .collect()
    };
    let serve = probe::serve_probe(&system.fleet, &jobs, &on)?;
    let scrape = probe::read_scrape(&system.fleet, &system.fleet.scrape());
    let queue_max = queue_max.into_inner().expect("queue sampler lock poisoned");
    let router_requests = (untraced.latencies_ms.len() + traced.latencies_ms.len()) as u64 + serve.requests as u64 * 2;
    let layers = Layers {
        untraced: &untraced,
        traced: &traced,
        capture: &capture,
        engine: &engine,
        bank_hit_ratio: bank_hit_ratio(&pool.runner),
        serve: &serve,
        scrape: &scrape,
        queue_max,
        router_requests,
    };
    finish_traced(&mut out, &layers, &on, args)?;
    Ok(out)
}

/// Everything the traced run measured, folded into the per-layer metrics.
struct Layers<'a> {
    untraced: &'a Phase,
    traced: &'a Phase,
    capture: &'a CaptureProbe,
    engine: &'a EngineProbe,
    bank_hit_ratio: f64,
    serve: &'a ServeProbe,
    scrape: &'a FleetScrape,
    queue_max: f64,
    /// Requests the benchmark sent through the router (load and probes).
    router_requests: u64,
}

fn finish_traced(out: &mut Output, m: &Layers<'_>, tracer: &Tracer, args: &Args) -> Result<(), String> {
    let spans = tracer.records();
    let times = layer_times(&spans);
    let time = |name: &str| times.get(name).copied().unwrap_or_default();
    let devices = m.capture.devices.max(1) as f64;
    let per_device_us = |name: &str| time(name).self_ns as f64 / devices / 1e3;
    let per_request_us = |name: &str| time(name).total_ns as f64 / m.serve.requests.max(1) as f64 / 1e3;
    let mean_ms = |name: &str| {
        let t: LayerTime = time(name);
        t.total_ns as f64 / t.count.max(1) as f64 / 1e6
    };

    out.attempted += (m.capture.devices + m.serve.items * 4) as u64;
    out.failed += m.serve.wrong as u64;
    if m.capture.replay_mismatches > 0 {
        out.invalid.push(format!(
            "the stage replay differs from the runner's report on {} of {} devices",
            m.capture.replay_mismatches, m.capture.devices
        ));
    }
    if m.capture.batch_mismatches > 0 {
        out.invalid.push(format!(
            "batched capture differs from the stage replay on {} devices",
            m.capture.batch_mismatches
        ));
    }

    let response = per_device_us("filters.response");
    let filter = per_device_us("signal.noise_filter");
    let rle = per_device_us("core.rle");
    let deglitch = per_device_us("core.deglitch");
    let batch = time("core.batch_capture").total_ns as f64 / devices / 1e3;
    let handle = per_request_us("serve.handle");
    let tcp = per_request_us("serve.tcp");
    let router_handle = per_request_us("router.handle");
    let front = per_request_us("router.front");
    let cpu_untraced = m.untraced.cpu_us_per_item();

    out.metric(
        "spice.saturation_current_ns",
        time("spice.saturation_current").total_ns as f64 / m.capture.saturation_calls.max(1) as f64,
        "ns",
    );
    out.metric(
        "monitor.comparator_ns",
        time("monitor.comparator").total_ns as f64 / m.capture.comparator_calls.max(1) as f64,
        "ns",
    );
    out.metric("monitor.encode_us", per_device_us("monitor.encode"), "us");
    out.metric("filters.response_us", response, "us");
    out.metric("signal.noise_filter_us", filter, "us");
    out.metric("core.rle_us", rle, "us");
    out.metric("core.deglitch_us", deglitch, "us");
    out.metric("core.batch_capture_us", batch, "us");
    out.metric("core.batch_encode_us", batch - response - filter - rle - deglitch, "us");
    out.metric("core.score_us", per_device_us("core.score"), "us");
    out.metric("engine.run_us_per_device", m.engine.run_us_per_device, "us");
    out.metric("engine.pool_efficiency", m.engine.pool_efficiency, "ratio");
    out.metric("engine.capture_us_p50", m.engine.capture_us_p50, "us");
    out.metric("engine.score_us_p50", m.engine.score_us_p50, "us");
    out.metric("engine.fallback_per_device", m.engine.fallback_per_run, "1/run");
    out.metric("engine.bank_hit_ratio", m.bank_hit_ratio, "ratio");
    out.metric("core.golden_ms", mean_ms("core.golden"), "ms");
    out.metric("core.stimulus_build_ms", mean_ms("core.stimulus_build"), "ms");
    out.metric("store.save_ms", mean_ms("store.save"), "ms");
    out.metric("store.load_ms", mean_ms("store.load"), "ms");
    out.metric("serve.codec_us", per_request_us("serve.codec"), "us");
    out.metric(
        "serve.bytes_per_item",
        m.serve.bytes as f64 / m.serve.items.max(1) as f64,
        "B",
    );
    out.metric("serve.handle_us", handle, "us");
    out.metric("serve.request_us_p50", m.scrape.request_us_p50, "us");
    out.metric("serve.dispatch_us_p50", m.scrape.dispatch_us_p50, "us");
    out.metric("serve.queue_depth_max", m.queue_max, "count");
    out.metric("serve.tcp_us", tcp, "us");
    out.metric("serve.socket_mux_us", tcp - handle, "us");
    out.metric("router.handle_us", router_handle, "us");
    out.metric("router.forward_us", router_handle - tcp, "us");
    out.metric("router.front_us", front - router_handle, "us");
    out.metric("router.fanout_us_p50", m.scrape.fanout_us_p50, "us");
    out.metric("router.forward_share_max", m.scrape.forward_share_max, "ratio");
    out.metric("router.retries", m.scrape.retries as f64, "count");
    out.metric("router.refresh_on_miss", m.scrape.refresh_on_miss as f64, "count");
    out.metric("router.requests", m.router_requests as f64, "count");
    out.metric(
        "loadgen.latency_p50_ms",
        m.untraced
            .latency()
            .map_or_else(|| median(&m.untraced.latencies_ms), |l| l.p50),
        "ms",
    );
    out.metric(
        "loadgen.latency_tail_ms",
        m.untraced.latency().map_or(0.0, |l| l.tail),
        "ms",
    );
    out.metric("loadgen.lateness_ms_p99", p99_of(&m.untraced.lateness_ms), "ms");
    out.metric("loadgen.backlog_max", m.untraced.backlog_max as f64, "count");
    out.metric(
        "trace.overhead_pct",
        (m.traced.cpu_us_per_item() / cpu_untraced - 1.0) * 100.0,
        "%",
    );
    out.metric("trace.spans", spans.len() as f64, "count");
    out.metric("replay.ndf_mismatches", m.capture.replay_mismatches as f64, "count");

    out.notes.push(format!(
        "derived: core.batch_encode_us = batch capture - response - noise/filter - RLE - deglitch; \
         serve.socket_mux_us = tcp - handle; router.forward_us = router handle - serve tcp; \
         router.front_us = front tcp - router handle ({} devices replayed, {} requests per layer)",
        m.capture.devices, m.serve.requests
    ));
    out.notes.push("per-layer self time (span minus children):".into());
    for (name, t) in &times {
        out.notes.push(format!(
            "  {name:<28} spans {:>7}  total {:>12.3} ms  self {:>12.3} ms  self/span {:>10.3} us",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_us_per_span()
        ));
    }
    let path = work_dir()?.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    std::fs::write(&path, trace::render_tsv(&spans)).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes.push(format!("spans written to {}", path.display()));
    Ok(())
}
