//! The scoring server: a `std::net::TcpListener` accept loop serving every
//! connection on one [`WorkPool`], plus the in-process [`ServeHandle`] client
//! path that bypasses TCP entirely for embedded use.
//!
//! # Architecture
//!
//! ```text
//!                    ┌──────────────┐   requests    ┌─────────────────┐
//!  TCP conn ──────▶ │  connection   │ ────────────▶ │ WorkPool        │
//!  TCP conn ──────▶ │  threads      │               │ (`shards` wkrs) │
//!                    │ (frame codec) │ ◀──────────── │  chunk helpers  │
//!  ServeHandle ───▶ │               │   responses   │                 │
//!                    └──────────────┘               └─────────────────┘
//! ```
//!
//! A batch larger than one chunk is split into fixed-size chunks behind one
//! claim cursor: the requesting thread and up to `workers − 1` helper jobs
//! on the same pool each claim the next unscored chunk, and the chunks are
//! reassembled in request order — so one large batch parallelizes across
//! the pool while scoring stays bit-identical to a serial loop (scoring is
//! a pure function of `(golden, observed)`; worker count and claim order
//! cannot change it).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dsig_core::{ndf, peak_hamming_distance, AcceptanceBand, DsigError, RetestPolicy, Signature};
use dsig_engine::{available_threads, RemoteRetest, RemoteScore, RemoteScorer, RetestDevice};
use dsig_obs::trace::{self, TraceContext, Tracer};
use dsig_obs::{
    Counter, EventLevel, EventLog, Gauge, HealthReport, HealthSample, Histogram, MetricValue, MetricsSnapshot,
    Registry, SloPolicy, Span, TraceLog,
};

use crate::error::{Result, ServeError};
use crate::mux::{self, WorkPool};
use crate::proto::{
    decode_any_request, decode_request_context, encode_admin_response, encode_decode_error, encode_events_response,
    encode_health_response, encode_metrics_response, encode_response, encode_retest_response, encode_traces_response,
    AdminResponse, ErrorCode, EventsResponse, HealthResponse, MetricsResponse, Request, RetestRequest, RetestResponse,
    RetestScore, ScoreResult, ScreenResponse, TracesResponse,
};
use crate::store::{GoldenRecord, GoldenStore};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of [`WorkPool`] workers: the process's request concurrency and
    /// the parallelism of one large batch. Defaults to the hardware thread
    /// count.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: available_threads(),
        }
    }
}

impl ServeConfig {
    /// A config with an explicit worker count.
    pub fn with_shards(shards: usize) -> Self {
        ServeConfig { shards: shards.max(1) }
    }
}

/// Signatures per chunk of a batch: a batch up to this size is scored on the
/// calling thread; a larger one is split into chunks of this size that the
/// pool's workers claim.
const SHARD_CHUNK: usize = 64;

/// The serving tier's metric handles, resolved once per [`ServeHandle`]
/// fleet so the hot path never touches the registry lock. All names live
/// under the `serve.` prefix of the registry the handle was spawned in
/// (the process-wide [`Registry::global`] by default).
struct ServeMetrics {
    /// `serve.requests.<family>` — requests answered, by payload magic.
    requests: PerFamily,
    /// `serve.errors.<family>` — error responses, by payload magic.
    errors: PerFamily,
    /// `serve.errors.decode` — frames whose payload failed to decode.
    decode_errors: Arc<Counter>,
    /// `serve.dispatch_us` — time to hand one batch's helper jobs to the
    /// pool.
    dispatch_us: Arc<Histogram>,
    /// `serve.reassembly_us` — time from the helpers' hand-off to the batch
    /// scored and reassembled.
    reassembly_us: Arc<Histogram>,
    /// `serve.bytes_in` / `serve.bytes_out` — framed TCP payload traffic.
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// `serve.signatures_scored` — mirror of [`ServeHandle::signatures_scored`].
    scored: Arc<Counter>,
    /// `serve.request_us` — end-to-end time to answer one decoded request.
    request_us: Arc<Histogram>,
    /// `serve.queue_depth` — work-pool jobs queued or running, sampled as
    /// each connection frame arrives.
    queue_depth: Arc<Gauge>,
}

/// One counter per request family (wire magic).
struct PerFamily {
    screen: Arc<Counter>,
    multi: Arc<Counter>,
    retest: Arc<Counter>,
    push: Arc<Counter>,
    fetch: Arc<Counter>,
    metrics: Arc<Counter>,
    traces: Arc<Counter>,
    fleet_metrics: Arc<Counter>,
    fleet_traces: Arc<Counter>,
    events: Arc<Counter>,
    health: Arc<Counter>,
    admin: Arc<Counter>,
}

impl PerFamily {
    fn new(registry: &Registry, kind: &str) -> PerFamily {
        let name = |family: &str| format!("serve.{kind}.{family}");
        PerFamily {
            screen: registry.counter(&name("dsrq")),
            multi: registry.counter(&name("dsrm")),
            retest: registry.counter(&name("dsrt")),
            push: registry.counter(&name("dsgp")),
            fetch: registry.counter(&name("dsgf")),
            metrics: registry.counter(&name("dsmx")),
            traces: registry.counter(&name("dstx")),
            fleet_metrics: registry.counter(&name("dsfm")),
            fleet_traces: registry.counter(&name("dsft")),
            events: registry.counter(&name("dsex")),
            health: registry.counter(&name("dshc")),
            admin: registry.counter(&name("dsaq")),
        }
    }

    fn of(&self, request: &Request) -> &Arc<Counter> {
        match request {
            Request::Screen(_) => &self.screen,
            Request::MultiScreen(_) => &self.multi,
            Request::Retest(_) => &self.retest,
            Request::PushGolden { .. } => &self.push,
            Request::FetchGolden { .. } => &self.fetch,
            Request::Metrics => &self.metrics,
            Request::Traces => &self.traces,
            Request::FleetMetrics => &self.fleet_metrics,
            Request::FleetTraces => &self.fleet_traces,
            Request::Events => &self.events,
            Request::Health => &self.health,
            Request::Admin(_) => &self.admin,
        }
    }
}

impl ServeMetrics {
    fn new(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            requests: PerFamily::new(registry, "requests"),
            errors: PerFamily::new(registry, "errors"),
            decode_errors: registry.counter("serve.errors.decode"),
            dispatch_us: registry.histogram("serve.dispatch_us"),
            reassembly_us: registry.histogram("serve.reassembly_us"),
            bytes_in: registry.counter("serve.bytes_in"),
            bytes_out: registry.counter("serve.bytes_out"),
            scored: registry.counter("serve.signatures_scored"),
            request_us: registry.histogram("serve.request_us"),
            queue_depth: registry.gauge("serve.queue_depth"),
        }
    }
}

/// Distills a [`HealthSample`] out of a serving-tier metrics snapshot:
/// `requests` and `errors` sum the per-family `serve.requests.*` /
/// `serve.errors.*` counters and `p99_us` reads the `serve.request_us`
/// histogram, all under an optional name prefix (`""` for a process's own
/// snapshot, `"fleet."` for the routing tier's merged rollup). The fleet
/// fields are supplied by the caller — a standalone server is a fleet of
/// one with nothing backed off.
pub fn health_sample(snapshot: &MetricsSnapshot, prefix: &str, backed_off: u32, backends: u32) -> HealthSample {
    let sum_family = |family: &str| {
        let family_prefix = format!("{prefix}serve.{family}.");
        snapshot
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with(&family_prefix))
            .filter_map(|(_, value)| match value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .fold(0u64, u64::wrapping_add)
    };
    HealthSample {
        requests: sum_family("requests"),
        errors: sum_family("errors"),
        p99_us: snapshot
            .histogram(&format!("{prefix}serve.request_us"))
            .map_or(0, |h| h.p99_us()),
        backed_off,
        backends,
    }
}

/// Scores one observed signature against a golden record.
fn score(record: &GoldenRecord, observed: &Signature) -> std::result::Result<ScoreResult, DsigError> {
    let ndf_value = ndf(&record.golden, observed)?;
    Ok(ScoreResult {
        ndf: ndf_value,
        peak_hamming: peak_hamming_distance(&record.golden, observed)?,
        outcome: record.band.decide(ndf_value),
    })
}

/// A batch split into [`SHARD_CHUNK`]-sized chunks behind one atomic claim
/// cursor (the idiom of `dsig_engine::pool::parallel_map_indexed`). The
/// requesting thread and its pool helpers each claim the next unscored chunk
/// until none is left; a chunk is only ever waited on once a running thread
/// has claimed it, so no request waits on a queued job.
struct Chunked {
    record: Arc<GoldenRecord>,
    batch: Vec<Signature>,
    /// Trace context of the request — every chunk's `serve.shard` span
    /// parents under it, whichever thread scores the chunk.
    ctx: TraceContext,
    /// Index of the next chunk to claim.
    next: AtomicUsize,
    /// Per-chunk results in request order; `None` until the chunk resolves.
    parts: Mutex<Vec<ChunkResult>>,
    resolved: Condvar,
}

/// One chunk's scores, once resolved.
type ChunkResult = Option<Result<Vec<ScoreResult>>>;

impl Chunked {
    fn chunks(&self) -> usize {
        self.batch.len().div_ceil(SHARD_CHUNK)
    }

    /// Claims and scores chunks until every chunk is claimed.
    fn drain(&self, handle: &ServeHandle) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.chunks() {
                return;
            }
            // Resolves the chunk even if scoring panics, so the caller
            // waiting on it never hangs.
            let mut claim = Claim {
                chunked: self,
                index,
                result: None,
            };
            let start = index * SHARD_CHUNK;
            let items = &self.batch[start..(start + SHARD_CHUNK).min(self.batch.len())];
            claim.result = Some(handle.score_chunk(&self.record, items, start, self.ctx));
        }
    }

    /// Blocks until every chunk has resolved, then concatenates them in
    /// request order; the first failed chunk fails the batch.
    fn wait(&self) -> Result<Vec<ScoreResult>> {
        let mut parts = self.parts.lock().expect("chunk results poisoned");
        while parts.iter().any(Option::is_none) {
            parts = self.resolved.wait(parts).expect("chunk results poisoned");
        }
        let mut results = Vec::with_capacity(self.batch.len());
        for part in parts.iter_mut() {
            results.extend(part.take().expect("every chunk resolved")?);
        }
        Ok(results)
    }
}

/// One claimed chunk. Dropping it publishes the chunk's result — or
/// [`ServeError::Closed`] if the scorer panicked before producing one.
struct Claim<'a> {
    chunked: &'a Chunked,
    index: usize,
    result: Option<Result<Vec<ScoreResult>>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let result = self.result.take().unwrap_or(Err(ServeError::Closed));
        let mut parts = self.chunked.parts.lock().unwrap_or_else(|e| e.into_inner());
        parts[self.index] = Some(result);
        if parts.iter().all(Option::is_some) {
            self.chunked.resolved.notify_all();
        }
    }
}

/// An in-process client of the scoring pool: the same scoring path the TCP
/// connection threads use, without any socket or framing cost. Cloning a
/// handle is cheap; each clone can be used from its own thread.
#[derive(Clone)]
pub struct ServeHandle {
    pool: Arc<WorkPool>,
    store: Arc<GoldenStore>,
    scored: Arc<AtomicU64>,
    registry: Registry,
    tracer: Tracer,
    metrics: Arc<ServeMetrics>,
}

impl ServeHandle {
    /// Spawns a scoring pool of [`ServeConfig::shards`] workers over a store
    /// and returns a handle to it — the TCP-free way to embed a scoring
    /// backend in another process (the router tier builds its in-process
    /// backends this way; a [`Server`] is this plus a listener serving its
    /// connections on the same pool).
    ///
    /// The pool's workers exit once the last clone of the returned handle
    /// is dropped.
    ///
    /// Metrics register in the process-wide [`Registry::global`]; use
    /// [`ServeHandle::spawn_in`] to register elsewhere.
    pub fn spawn(store: Arc<GoldenStore>, config: ServeConfig) -> ServeHandle {
        ServeHandle::spawn_in(store, config, Registry::global())
    }

    /// Like [`ServeHandle::spawn`], registering the handle's metrics in
    /// `registry` instead of the process-wide one (test isolation, or one
    /// registry per embedded fleet).
    pub fn spawn_in(store: Arc<GoldenStore>, config: ServeConfig, registry: Registry) -> ServeHandle {
        ServeHandle {
            pool: Arc::new(WorkPool::new(config.shards)),
            store,
            scored: Arc::new(AtomicU64::new(0)),
            tracer: registry.tracer().clone(),
            metrics: Arc::new(ServeMetrics::new(&registry)),
            registry,
        }
    }

    /// The golden store this handle scores against.
    pub fn store(&self) -> &Arc<GoldenStore> {
        &self.store
    }

    /// Snapshots the registry this handle's fleet reports into — the
    /// in-process form of the `DSMX` metrics scrape. Counters are
    /// monotonically consistent across successive calls.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Drains and returns the spans buffered by this handle's tracer — the
    /// in-process equivalent of a `DSTX` scrape.
    pub fn traces(&self) -> TraceLog {
        TraceLog {
            spans: self.registry.tracer().drain(),
        }
    }

    /// Drains and returns the structured events buffered by this handle's
    /// registry — the in-process equivalent of a `DSEX` scrape. Draining
    /// consumes: a second drain returns only events emitted in between.
    pub fn events(&self) -> EventLog {
        EventLog {
            events: self.registry.events().drain(),
        }
    }

    /// Evaluates this process's health against `policy` from a fresh
    /// metrics snapshot — the in-process form of the `DSHC` check. A
    /// standalone serving process is a fleet of one with no routing tier,
    /// so `backed_off` is always zero.
    pub fn health(&self, policy: &SloPolicy) -> HealthReport {
        policy.evaluate(health_sample(&self.metrics(), "", 0, 1))
    }

    /// Total signatures scored successfully through this handle's pool
    /// (shared with every clone and with the owning [`Server`], if any).
    pub fn signatures_scored(&self) -> u64 {
        self.scored.load(Ordering::Relaxed)
    }

    /// Stores (or replaces) a golden record — the in-process form of the
    /// `DSGP` replication push.
    pub fn push_golden(&self, key: u64, golden: Signature, band: AcceptanceBand) {
        self.store.insert(key, golden, band);
    }

    /// Looks up a golden record — the in-process form of the `DSGF` readback.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] when the store has no record
    /// under `key`.
    pub fn fetch_golden(&self, key: u64) -> Result<Arc<GoldenRecord>> {
        self.store.get(key).ok_or(ServeError::UnknownGolden(key))
    }

    /// Scores a batch where **each signature names its own golden**: items
    /// are grouped by fingerprint, each group is screened through the pool
    /// like a [`ServeHandle::screen`] batch, and results return in request
    /// order — bit-identical to screening the groups separately.
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`]; an unknown fingerprint anywhere fails
    /// the whole batch.
    pub fn screen_multi(&self, items: &[(u64, Signature)]) -> Result<Vec<ScoreResult>> {
        let mut results: Vec<Option<ScoreResult>> = vec![None; items.len()];
        for (key, indices) in group_by_fingerprint(items) {
            let batch: Vec<Signature> = indices.iter().map(|&i| items[i].1.clone()).collect();
            let scores = self.screen_vec(key, batch)?;
            for (&index, score) in indices.iter().zip(scores) {
                results[index] = Some(score);
            }
        }
        Ok(results.into_iter().map(|r| r.expect("every item scored")).collect())
    }

    /// Screens an adaptive-retest batch: every device's single-shot
    /// signature **and** its pre-captured measurement repeats are scored
    /// through the pool in one flattened batch, then the pure escalation
    /// walk of [`dsig_core::RetestPolicy::escalate`] re-decides marginal
    /// devices from averaged repeats — server-side, before any verdict is
    /// answered. Returns one [`RetestScore`] per device in request order.
    ///
    /// The averaged NDF of a retested device is bit-identical to
    /// [`dsig_core::TestFlow::evaluate_averaged`] over the consumed repeats,
    /// and the peak Hamming distance folds the initial capture with every
    /// consumed repeat — exactly what
    /// [`dsig_core::TestFlow::evaluate_with_retest`] computes locally.
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`]; the golden's stored acceptance band
    /// decides marginality and the final verdicts.
    pub fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>> {
        let flat: Vec<Signature> = request
            .items
            .iter()
            .flat_map(|item| std::iter::once(&item.initial).chain(&item.repeats).cloned())
            .collect();
        let repeat_counts: Vec<usize> = request.items.iter().map(|item| item.repeats.len()).collect();
        self.screen_retest_flat(request.golden_key, &request.policy, flat, &repeat_counts)
    }

    /// Like [`ServeHandle::screen_retest`], taking ownership of the request —
    /// the zero-copy path the connection threads use (the decoded signatures
    /// move straight into the scored batch, never cloned).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen_retest`].
    pub fn screen_retest_owned(&self, request: RetestRequest) -> Result<Vec<RetestScore>> {
        let repeat_counts: Vec<usize> = request.items.iter().map(|item| item.repeats.len()).collect();
        let flat: Vec<Signature> = request
            .items
            .into_iter()
            .flat_map(|item| std::iter::once(item.initial).chain(item.repeats))
            .collect();
        self.screen_retest_flat(request.golden_key, &request.policy, flat, &repeat_counts)
    }

    /// The shared retest core: score the flattened `initial + repeats` batch
    /// through the pool (the exact scoring pipeline of plain screening),
    /// then run the pure escalation walk per device.
    fn screen_retest_flat(
        &self,
        golden_key: u64,
        policy: &RetestPolicy,
        flat: Vec<Signature>,
        repeat_counts: &[usize],
    ) -> Result<Vec<RetestScore>> {
        let record = self
            .store
            .get(golden_key)
            .ok_or(ServeError::UnknownGolden(golden_key))?;
        let scores = self.screen_record(Arc::clone(&record), flat)?;
        let mut results = Vec::with_capacity(repeat_counts.len());
        let mut at = 0usize;
        for &repeat_count in repeat_counts {
            let initial = scores[at];
            let repeats = &scores[at + 1..at + 1 + repeat_count];
            at += 1 + repeat_count;
            let repeat_ndfs: Vec<f64> = repeats.iter().map(|s| s.ndf).collect();
            let verdict = policy.escalate(&record.band, initial.ndf, &repeat_ndfs);
            if verdict.marginal && verdict.repeats_used >= policy.repeat_cap() {
                let key = format!("{golden_key:#x}");
                let used = verdict.repeats_used.to_string();
                self.registry.events().emit(
                    EventLevel::Warn,
                    "serve",
                    "retest.cap_hit",
                    "marginal device consumed the full escalation schedule",
                    &[("golden_key", &key), ("repeats_used", &used)],
                );
            }
            let used = verdict.repeats_used as usize;
            results.push(RetestScore {
                score: ScoreResult {
                    ndf: verdict.ndf,
                    peak_hamming: repeats[..used]
                        .iter()
                        .fold(initial.peak_hamming, |peak, s| peak.max(s.peak_hamming)),
                    outcome: verdict.outcome,
                },
                marginal: verdict.marginal,
                flipped: verdict.flipped,
                repeats_used: verdict.repeats_used,
            });
        }
        Ok(results)
    }

    /// Scores a batch of observed signatures against the golden stored under
    /// `golden_key`, returning one [`ScoreResult`] per signature in order.
    ///
    /// A batch larger than one chunk is scored by the calling thread and
    /// helper jobs on the handle's [`WorkPool`], then reassembled, so a large
    /// batch uses every worker; results are bit-identical for any worker
    /// count.
    ///
    /// # Errors
    /// Returns [`ServeError::UnknownGolden`] for an unknown fingerprint,
    /// [`ServeError::Closed`] if a helper died scoring its chunk, and
    /// [`ServeError::Dsig`] if any signature fails to score.
    pub fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>> {
        self.screen_vec(golden_key, signatures.to_vec())
    }

    /// Like [`ServeHandle::screen`], taking ownership of the batch — the
    /// zero-copy path the connection threads use (the decoded request batch
    /// is shared with the helper jobs via one `Arc`, never cloned).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`].
    pub fn screen_vec(&self, golden_key: u64, signatures: Vec<Signature>) -> Result<Vec<ScoreResult>> {
        let record = self
            .store
            .get(golden_key)
            .ok_or(ServeError::UnknownGolden(golden_key))?;
        self.screen_record(record, signatures)
    }

    /// The scoring core behind [`ServeHandle::screen_vec`] and the retest
    /// path, taking an already-resolved golden record (one store lookup per
    /// request, however the caller obtained the record).
    fn screen_record(&self, record: Arc<GoldenRecord>, signatures: Vec<Signature>) -> Result<Vec<ScoreResult>> {
        if signatures.is_empty() {
            return Ok(Vec::new());
        }
        let inbound = trace::current_context();
        let chunks = signatures.len().div_ceil(SHARD_CHUNK);
        if chunks == 1 {
            // A batch that fits one chunk is scored on the calling thread:
            // a helper job only pays for itself when there are chunks to run
            // in parallel. Spans and metrics are identical to the chunked
            // path with one chunk.
            {
                let mut dispatch_span = self.tracer.span("serve.dispatch", "serve", inbound);
                let _dispatch = Span::enter(&self.metrics.dispatch_us);
                dispatch_span.annotate("chunks", 1usize);
                dispatch_span.annotate("batch", signatures.len());
            }
            let result = self.score_chunk(&record, &signatures, 0, inbound);
            let mut reassembly_span = self.tracer.span("serve.reassembly", "serve", inbound);
            reassembly_span.annotate("chunks", 1usize);
            let _reassembly = Span::enter(&self.metrics.reassembly_us);
            return result;
        }
        let batch = signatures.len();
        let chunked = Arc::new(Chunked {
            record,
            batch: signatures,
            ctx: inbound,
            next: AtomicUsize::new(0),
            parts: Mutex::new((0..chunks).map(|_| None).collect()),
            resolved: Condvar::new(),
        });
        {
            let mut dispatch_span = self.tracer.span("serve.dispatch", "serve", inbound);
            let _dispatch = Span::enter(&self.metrics.dispatch_us);
            // The caller scores chunks too, so `workers − 1` helpers occupy
            // the whole pool; a helper that starts after the caller claimed
            // the last chunk returns at once.
            for _ in 0..(self.pool.workers() - 1).min(chunks - 1) {
                let chunked = Arc::clone(&chunked);
                let handle = self.clone();
                self.pool.submit(Box::new(move || chunked.drain(&handle)));
            }
            dispatch_span.annotate("chunks", chunks);
            dispatch_span.annotate("batch", batch);
        }
        let mut reassembly_span = self.tracer.span("serve.reassembly", "serve", inbound);
        reassembly_span.annotate("chunks", chunks);
        let _reassembly = Span::enter(&self.metrics.reassembly_us);
        chunked.drain(self);
        chunked.wait()
    }

    /// Scores one chunk of a batch on the calling thread, under a
    /// `serve.shard` span parented to the request's trace context.
    fn score_chunk(
        &self,
        record: &GoldenRecord,
        items: &[Signature],
        start: usize,
        ctx: TraceContext,
    ) -> Result<Vec<ScoreResult>> {
        let mut shard_span = self.tracer.span("serve.shard", "serve", ctx);
        shard_span.annotate("chunk_start", start);
        shard_span.annotate("items", items.len());
        let scored = items
            .iter()
            .map(|observed| score(record, observed))
            .collect::<std::result::Result<Vec<_>, DsigError>>()?;
        self.scored.fetch_add(items.len() as u64, Ordering::Relaxed);
        self.metrics.scored.add(items.len() as u64);
        Ok(scored)
    }

    /// Scores a single signature (a one-element [`ServeHandle::screen`]).
    ///
    /// # Errors
    /// As for [`ServeHandle::screen`].
    pub fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }
}

/// The scoring server: one [`WorkPool`] plus a TCP accept loop.
///
/// Dropping (or [`Server::shutdown`]-ing) the server stops accepting new
/// connections; the pool's workers exit once the last [`ServeHandle`] —
/// including the handles held by still-open connections — is gone.
pub struct Server {
    local_addr: SocketAddr,
    handle: ServeHandle,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a listener (use port 0 for an ephemeral port), spawns the
    /// scoring pool and the accept loop, and starts serving.
    ///
    /// Metrics register in the process-wide [`Registry::global`]; use
    /// [`Server::bind_in`] to register elsewhere.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] if the listener cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, store: Arc<GoldenStore>, config: ServeConfig) -> Result<Server> {
        Server::bind_in(addr, store, config, Registry::global())
    }

    /// Like [`Server::bind`], registering the server's metrics, traces, and
    /// events in `registry` instead of the process-wide one — so several
    /// servers in one process (a demo fleet, a test harness) each answer
    /// `DSMX` with their own counters rather than a shared blur.
    ///
    /// # Errors
    /// Returns [`ServeError::Io`] if the listener cannot be bound.
    pub fn bind_in(
        addr: impl ToSocketAddrs,
        store: Arc<GoldenStore>,
        config: ServeConfig,
        registry: Registry,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let handle = ServeHandle::spawn_in(store, config, registry);

        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_handle = handle.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let conn_handle = accept_handle.clone();
                        // Connection threads are detached; they exit when the
                        // peer closes its end of the stream.
                        std::thread::spawn(move || handle_connection(stream, conn_handle));
                    }
                    // Back off briefly on accept errors (e.g. EMFILE under
                    // fd exhaustion) instead of busy-spinning the core.
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
                }
            }
        });

        Ok(Server {
            local_addr,
            handle,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on (with the real port when bound
    /// to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A new in-process handle to the scoring pool.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Total signatures scored successfully since the server started, across
    /// the TCP and in-process paths.
    pub fn signatures_scored(&self) -> u64 {
        self.handle.signatures_scored()
    }

    /// Snapshots the registry this server reports into — the in-process
    /// form of the `DSMX` metrics scrape.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.handle.metrics()
    }

    /// Stops accepting connections and joins the accept loop. Idempotent;
    /// also invoked on drop. In-flight connections finish serving their
    /// current stream.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection. A wildcard
        // bind address (0.0.0.0 / ::) is not dialable everywhere, so dial
        // its loopback equivalent on the bound port.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let woke = TcpStream::connect_timeout(&wake, std::time::Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.accept_thread.take() {
            if woke {
                let _ = thread.join();
            }
            // If the wake connection failed, the accept loop may still be
            // blocked; leave the thread detached rather than hang the caller.
            // It exits at the next (never-served) connection attempt.
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Groups the items of a multi-golden batch by fingerprint, preserving
/// first-appearance order of the keys and original item indices within each
/// group — the shared substrate of every `screen_multi` implementation (the
/// in-process handle here, the routing tier's per-backend splitter).
pub fn group_by_fingerprint(items: &[(u64, Signature)]) -> Vec<(u64, Vec<usize>)> {
    let mut order: Vec<u64> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (index, (key, _)) in items.iter().enumerate() {
        groups
            .entry(*key)
            .or_insert_with(|| {
                order.push(*key);
                Vec::new()
            })
            .push(index);
    }
    order
        .into_iter()
        .map(|key| {
            let indices = groups.remove(&key).expect("every ordered key has a group");
            (key, indices)
        })
        .collect()
}

/// Maps a serving-layer error onto the wire error code it travels as.
fn error_code_of(err: &ServeError) -> ErrorCode {
    match err {
        ServeError::UnknownGolden(_) => ErrorCode::UnknownGolden,
        _ => ErrorCode::Internal,
    }
}

/// Builds the response frame for one decoded request — shared by every
/// serving process (and mirrored by the router tier, which answers the same
/// request kinds after fanning the work out).
fn respond(handle: &ServeHandle, request: Request) -> Vec<u8> {
    let metrics = &handle.metrics;
    let _request_timer = Span::enter(&metrics.request_us);
    metrics.requests.of(&request).inc();
    // Cloned up front so the error arms can tally without re-matching on
    // the (by then moved) request.
    let error_counter = Arc::clone(metrics.errors.of(&request));
    let count_error = || error_counter.inc();
    match request {
        Request::Screen(request) => encode_response(&match handle.screen_vec(request.golden_key, request.signatures) {
            Ok(results) => ScreenResponse::Results(results),
            Err(err) => {
                count_error();
                ScreenResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::MultiScreen(request) => encode_response(&match handle.screen_multi(&request.items) {
            Ok(results) => ScreenResponse::Results(results),
            Err(err) => {
                count_error();
                ScreenResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::Retest(request) => encode_retest_response(&match handle.screen_retest_owned(request) {
            Ok(results) => RetestResponse::Results(results),
            Err(err) => {
                count_error();
                RetestResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::PushGolden { key, band, golden } => {
            handle.push_golden(key, golden, band);
            encode_admin_response(&AdminResponse::Ack)
        }
        Request::FetchGolden { key } => encode_admin_response(&match handle.fetch_golden(key) {
            Ok(record) => AdminResponse::Record {
                band: record.band,
                golden: record.golden.clone(),
            },
            Err(err) => {
                count_error();
                AdminResponse::Error {
                    code: error_code_of(&err),
                    message: err.to_string(),
                }
            }
        }),
        Request::Metrics => encode_metrics_response(&MetricsResponse::Snapshot(handle.metrics())),
        Request::Traces => encode_traces_response(&TracesResponse::Log(handle.traces())),
        // A standalone serving process answers the fleet scrapes as a fleet
        // of one: its own snapshot/log, no `backend.*` prefixes, so the
        // routing tier and a bare server share one client-side shape.
        Request::FleetMetrics => encode_metrics_response(&MetricsResponse::Snapshot(handle.metrics())),
        Request::FleetTraces => encode_traces_response(&TracesResponse::Log(handle.traces())),
        Request::Events => encode_events_response(&EventsResponse::Log(handle.events())),
        Request::Health => encode_health_response(&HealthResponse::Report(handle.health(&SloPolicy::default()))),
        // A leaf serving process has no fleet to administer; only the
        // routing tier accepts membership verbs.
        Request::Admin(_) => {
            count_error();
            encode_admin_response(&AdminResponse::Error {
                code: ErrorCode::BadRequest,
                message: "fleet admin verbs are only valid against a routing tier".into(),
            })
        }
    }
}

/// Serves one TCP connection through the handle's [`WorkPool`] — the same
/// pool that scores large batches' chunks, shared by every connection:
/// frames are read on this thread, tagged requests run as pool jobs
/// completing out of order, and a writer thread streams responses back (see
/// [`mux::drive_connection`]).
fn handle_connection(stream: TcpStream, handle: ServeHandle) {
    let pool = Arc::clone(&handle.pool);
    let respond_to = Arc::new(move |payload: Vec<u8>| {
        handle.metrics.bytes_in.add(payload.len() as u64 + 4);
        handle.metrics.queue_depth.set(handle.pool.queued() as f64);
        let response = {
            // Pin the caller's trace context for the whole request so every
            // span opened while serving it parents under the remote caller
            // — per request, because pool workers interleave requests from
            // many callers.
            let _ctx = trace::with_context(decode_request_context(&payload));
            match decode_any_request(&payload) {
                Ok(request) => respond(&handle, request),
                Err(err) => {
                    handle.metrics.decode_errors.inc();
                    encode_decode_error(&payload, err.to_string())
                }
            }
        };
        handle.metrics.bytes_out.add(response.len() as u64 + 4);
        response
    });
    mux::drive_connection(stream, &pool, respond_to);
}

impl From<ScoreResult> for RemoteScore {
    fn from(score: ScoreResult) -> Self {
        RemoteScore {
            ndf: score.ndf,
            peak_hamming: score.peak_hamming,
            outcome: score.outcome,
        }
    }
}

impl From<RetestScore> for RemoteRetest {
    fn from(score: RetestScore) -> Self {
        RemoteRetest {
            score: score.score.into(),
            marginal: score.marginal,
            flipped: score.flipped,
            repeats_used: score.repeats_used,
        }
    }
}

/// Builds the wire retest request of an engine-level retest batch — shared
/// by the [`RemoteScorer`] impls of the serving and routing tiers.
pub fn retest_request_of(golden_key: u64, policy: &RetestPolicy, devices: &[RetestDevice]) -> RetestRequest {
    RetestRequest {
        golden_key,
        policy: policy.clone(),
        items: devices
            .iter()
            .map(|device| crate::proto::RetestItem {
                initial: device.initial.clone(),
                repeats: device.repeats.clone(),
            })
            .collect(),
    }
}

impl RemoteScorer for ServeHandle {
    fn screen_remote(&self, golden_key: u64, signatures: &[Signature]) -> dsig_core::Result<Vec<RemoteScore>> {
        self.screen(golden_key, signatures)
            .map(|scores| scores.into_iter().map(Into::into).collect())
            .map_err(ServeError::into_dsig)
    }

    fn retest_remote(
        &self,
        golden_key: u64,
        policy: &RetestPolicy,
        devices: &[RetestDevice],
    ) -> dsig_core::Result<Vec<RemoteRetest>> {
        // The built request is already owned: take the zero-copy path so the
        // signatures are cloned once, not twice.
        self.screen_retest_owned(retest_request_of(golden_key, policy, devices))
            .map(|scores| scores.into_iter().map(Into::into).collect())
            .map_err(ServeError::into_dsig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Screen;
    use dsig_core::{AcceptanceBand, SignatureEntry, TestOutcome, ZoneCode};
    use std::time::Duration;

    fn sig(codes: &[(u32, f64)]) -> Signature {
        Signature::new(
            codes
                .iter()
                .map(|&(c, d)| SignatureEntry {
                    code: ZoneCode(c),
                    duration: d,
                })
                .collect(),
        )
        .unwrap()
    }

    fn store_with_golden(key: u64) -> Arc<GoldenStore> {
        let store = GoldenStore::new();
        store.insert(
            key,
            sig(&[(1, 100e-6), (3, 100e-6)]),
            AcceptanceBand::new(0.05).unwrap(),
        );
        Arc::new(store)
    }

    fn direct_score(record: &GoldenRecord, observed: &Signature) -> ScoreResult {
        score(record, observed).unwrap()
    }

    #[test]
    fn handle_screens_in_process_and_matches_direct_scoring() {
        let store = store_with_golden(9);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(3)).unwrap();
        let handle = server.handle();
        let observed = vec![
            sig(&[(1, 100e-6), (3, 100e-6)]), // the golden itself
            sig(&[(1, 100e-6), (7, 100e-6)]), // one zone rewritten
            sig(&[(5, 200e-6)]),              // grossly defective
        ];
        let results = handle.screen(9, &observed).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].ndf, 0.0);
        assert_eq!(results[0].outcome, TestOutcome::Pass);
        assert!(results[2].ndf > results[1].ndf);
        assert_eq!(results[2].outcome, TestOutcome::Fail);
        let record = store.get(9).unwrap();
        for (result, observed) in results.iter().zip(&observed) {
            let direct = direct_score(&record, observed);
            assert_eq!(result, &direct, "handle path must equal direct scoring");
        }
        assert_eq!(server.signatures_scored(), 3);
    }

    #[test]
    fn batches_are_chunked_across_shards_in_order() {
        let store = store_with_golden(1);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(4)).unwrap();
        let handle = server.handle();
        // A batch with a recognizable per-item signature: item k dwells
        // (k+1)/4 microseconds in zone 2. 209 items make three full chunks
        // and a ragged fourth.
        let observed: Vec<Signature> = (0..209)
            .map(|k| sig(&[(1, 100e-6), (2, (k + 1) as f64 * 0.25e-6)]))
            .collect();
        let results = handle.screen(1, &observed).unwrap();
        assert_eq!(results.len(), 209);
        let record = store.get(1).unwrap();
        for (result, observed) in results.iter().zip(&observed) {
            assert_eq!(result, &direct_score(&record, observed), "order must be preserved");
        }
        // NDF grows with the inserted dwell, so order mistakes would show.
        for pair in results.windows(2) {
            assert!(pair[1].ndf >= pair[0].ndf);
        }
    }

    #[test]
    fn unknown_golden_and_empty_batch() {
        let store = store_with_golden(2);
        let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(1)).unwrap();
        let handle = server.handle();
        assert!(matches!(
            handle.screen(999, &[sig(&[(1, 1.0)])]),
            Err(ServeError::UnknownGolden(999))
        ));
        assert!(handle.screen(2, &[]).unwrap().is_empty());
        let single = handle.screen_one(2, &sig(&[(1, 100e-6), (3, 100e-6)])).unwrap();
        assert_eq!(single.ndf, 0.0);
    }

    #[test]
    fn spawned_handle_scores_without_a_listener_and_serves_admin_ops() {
        let store = store_with_golden(11);
        let handle = ServeHandle::spawn(Arc::clone(&store), ServeConfig::with_shards(2));
        let observed = sig(&[(1, 100e-6), (3, 100e-6)]);
        assert_eq!(handle.screen_one(11, &observed).unwrap().ndf, 0.0);
        assert_eq!(handle.signatures_scored(), 1);
        // Push then read back a second golden through the admin surface.
        assert!(matches!(handle.fetch_golden(12), Err(ServeError::UnknownGolden(12))));
        handle.push_golden(12, sig(&[(2, 50e-6)]), AcceptanceBand::new(0.01).unwrap());
        let record = handle.fetch_golden(12).unwrap();
        assert_eq!(record.band.ndf_threshold, 0.01);
        assert_eq!(record.golden, sig(&[(2, 50e-6)]));
    }

    #[test]
    fn multi_screen_matches_per_key_screening_in_request_order() {
        let store = store_with_golden(1);
        store.insert(2, sig(&[(2, 100e-6), (4, 100e-6)]), AcceptanceBand::new(0.05).unwrap());
        let handle = ServeHandle::spawn(Arc::clone(&store), ServeConfig::with_shards(3));
        // Interleave the two goldens so grouping must reassemble by index;
        // each key's group of 100 items spans two chunks, the second ragged.
        let items: Vec<(u64, Signature)> = (0..200)
            .map(|k| {
                let key = 1 + (k % 2) as u64;
                (key, sig(&[(1, 100e-6), (2, (k + 1) as f64 * 0.25e-6)]))
            })
            .collect();
        let results = handle.screen_multi(&items).unwrap();
        assert_eq!(results.len(), items.len());
        for (result, (key, observed)) in results.iter().zip(&items) {
            let direct = direct_score(&store.get(*key).unwrap(), observed);
            assert_eq!(result, &direct, "multi-screen must equal per-key scoring");
        }
        // An unknown key anywhere fails the whole batch.
        let mut bad = items;
        bad[7].0 = 999;
        assert!(matches!(handle.screen_multi(&bad), Err(ServeError::UnknownGolden(999))));
    }

    #[test]
    fn retest_screening_escalates_marginal_devices_server_side() {
        use crate::proto::RetestItem;
        use dsig_core::RetestPolicy;

        let store = store_with_golden(4);
        let record = store.get(4).unwrap();
        let handle = ServeHandle::spawn(Arc::clone(&store), ServeConfig::with_shards(3));
        // Three devices: one far inside the band, one marginal whose repeats
        // push it over the threshold (a PASS -> FAIL flip), one marginal and
        // confirmed by its repeats.
        let clean = sig(&[(1, 100e-6), (3, 100e-6)]);
        let marginal_bad = sig(&[(1, 100e-6), (3, 91e-6), (7, 9e-6)]);
        let worse = sig(&[(1, 100e-6), (3, 80e-6), (7, 20e-6)]);
        let marginal_ok = sig(&[(1, 100e-6), (3, 92e-6), (7, 8e-6)]);
        let single = |s: &Signature| score(&record, s).unwrap();
        // Build a guard band that makes exactly the two borderline devices
        // marginal against the stored 0.05 threshold.
        let guard = 0.02;
        let policy = RetestPolicy::new(guard, vec![2]).unwrap();
        assert!(!policy.is_marginal(&record.band, single(&clean).ndf));
        assert!(policy.is_marginal(&record.band, single(&marginal_bad).ndf));
        assert!(policy.is_marginal(&record.band, single(&marginal_ok).ndf));

        // 63 clean single-shot devices put the marginal-bad device's initial
        // capture last in the first 64-signature chunk of the flattened
        // batch, so its repeats are scored in the second, ragged chunk.
        let clean_item = RetestItem {
            initial: clean.clone(),
            repeats: vec![],
        };
        let mut items = vec![clean_item; 63];
        items.push(RetestItem {
            initial: marginal_bad.clone(),
            repeats: vec![worse.clone(), worse.clone()],
        });
        items.push(RetestItem {
            initial: marginal_ok.clone(),
            repeats: vec![marginal_ok.clone(), marginal_ok.clone()],
        });
        let request = RetestRequest {
            golden_key: 4,
            policy: policy.clone(),
            items,
        };
        let results = handle.screen_retest(&request).unwrap();
        assert_eq!(results.len(), 65);
        // Non-marginal: the single-shot score passes through untouched.
        for result in &results[..63] {
            assert_eq!(result.score, single(&clean));
            assert!(!result.marginal);
            assert_eq!(result.repeats_used, 0);
        }
        // Marginal with failing repeats: averaged NDF, folded peak, FAIL.
        let expected_ndf = (single(&worse).ndf + single(&worse).ndf) / 2.0;
        assert_eq!(results[63].score.ndf.to_bits(), expected_ndf.to_bits());
        assert_eq!(results[63].score.outcome, record.band.decide(expected_ndf));
        assert_eq!(
            results[63].score.peak_hamming,
            single(&marginal_bad).peak_hamming.max(single(&worse).peak_hamming)
        );
        assert_eq!(results[63].repeats_used, 2);
        assert!(results[63].marginal);
        // Confirmed marginal device: same outcome as the single shot.
        assert!(results[64].marginal);
        assert_eq!(results[64].score.outcome, single(&marginal_ok).outcome);

        // The TCP path answers the identical scores.
        let server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(2)).unwrap();
        let client = crate::client::ServeClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.screen_retest(&request).unwrap(), results);
        // Unknown goldens carry the fingerprint back.
        let unknown = RetestRequest {
            golden_key: 0xDEAD,
            ..request
        };
        assert!(matches!(
            client.screen_retest(&unknown),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
        assert!(matches!(
            handle.screen_retest(&unknown),
            Err(ServeError::UnknownGolden(0xDEAD))
        ));
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_accepting() {
        let store = store_with_golden(3);
        let mut server = Server::bind("127.0.0.1:0", store, ServeConfig::with_shards(1)).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown(); // second call is a no-op
                           // After shutdown the accept loop is gone; a fresh connection is
                           // either refused or accepted by the OS backlog and never served —
                           // both are fine, the point is that this does not hang or panic.
        let _ = TcpStream::connect(addr);
        // The in-process path still works: the pool lives as long as handles do.
        let handle = server.handle();
        assert!(handle.screen(3, &[sig(&[(1, 100e-6), (3, 100e-6)])]).is_ok());
    }

    /// Every worker ends up a caller waiting on chunks: 4N pipelined
    /// multi-chunk requests against N workers. Callers only wait on chunks a
    /// running thread has claimed, so the pool cannot deadlock on its own
    /// helper jobs — and the scores stay bit-identical to direct scoring.
    #[test]
    fn pool_workers_waiting_on_chunks_never_deadlock() {
        let store = store_with_golden(6);
        let record = store.get(6).unwrap();
        // Four chunks per request, the last ragged.
        let observed: Vec<Signature> = (0..230)
            .map(|k| sig(&[(1, 100e-6), (2, (k + 1) as f64 * 0.25e-6)]))
            .collect();
        let expected: Vec<ScoreResult> = observed.iter().map(|o| direct_score(&record, o)).collect();
        for workers in [1, 2, 4] {
            let server = Server::bind("127.0.0.1:0", Arc::clone(&store), ServeConfig::with_shards(workers)).unwrap();
            let client = crate::ServeClient::connect(server.local_addr()).unwrap();
            let tickets: Vec<_> = (0..4 * workers)
                .map(|_| client.start_screen(6, &observed).unwrap())
                .collect();
            let (done, finished) = std::sync::mpsc::channel();
            let waiter = {
                let client = client.clone();
                let count = observed.len();
                std::thread::spawn(move || {
                    for ticket in tickets {
                        let _ = done.send(client.wait_screen(ticket, count, 6));
                    }
                })
            };
            for _ in 0..4 * workers {
                let scores = finished
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("{workers} workers: a request never answered"))
                    .unwrap();
                assert_eq!(scores.len(), expected.len());
                for (got, want) in scores.iter().zip(&expected) {
                    assert_eq!(got.ndf.to_bits(), want.ndf.to_bits(), "{workers} workers");
                    assert_eq!(got, want, "{workers} workers");
                }
            }
            waiter.join().unwrap();
        }
    }

    /// A scoring job holds a handle, and so its pool: when it drops the last
    /// clone, the pool is dropped on one of its own workers, which must not
    /// try to join itself.
    #[test]
    fn dropping_the_last_handle_inside_a_pool_job_neither_panics_nor_hangs() {
        let handle = ServeHandle::spawn(store_with_golden(8), ServeConfig::with_shards(2));
        let pool = Arc::downgrade(&handle.pool);
        let (go, gate) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel();
        let job_handle = handle.clone();
        handle.pool.submit(Box::new(move || {
            gate.recv().unwrap();
            drop(job_handle);
            done.send(()).unwrap();
        }));
        drop(handle);
        go.send(()).unwrap();
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the job dropping the last handle must finish");
        assert!(pool.upgrade().is_none(), "the pool went with the last handle");
    }

    /// A chunk whose scorer panics resolves as [`ServeError::Closed`], so the
    /// caller waiting for the batch gets an error instead of hanging.
    #[test]
    fn a_panicking_chunk_resolves_as_closed() {
        let chunked = Chunked {
            record: store_with_golden(1).get(1).unwrap(),
            batch: vec![sig(&[(1, 100e-6)]); SHARD_CHUNK + 1],
            ctx: TraceContext::NONE,
            next: AtomicUsize::new(2),
            parts: Mutex::new(vec![None, None]),
            resolved: Condvar::new(),
        };
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _claim = Claim {
                chunked: &chunked,
                index: 0,
                result: None,
            };
            panic!("scorer died mid-chunk");
        }));
        assert!(died.is_err());
        drop(Claim {
            chunked: &chunked,
            index: 1,
            result: Some(Ok(Vec::new())),
        });
        assert!(matches!(chunked.wait(), Err(ServeError::Closed)));
    }
}
