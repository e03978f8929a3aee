//! # dsig-router
//!
//! The multi-backend routing tier of the signature-scoring service: a
//! coordinator that fronts N [`dsig_serve`] backends and turns the
//! single-process serving layer into a horizontally sharded one.
//!
//! A production test floor screens whole lots against golden signatures; one
//! scoring process eventually saturates. The router shards that workload by
//! **golden fingerprint** ([`dsig_engine::golden_fingerprint`]): rendezvous
//! (HRW) hashing assigns every fingerprint an owner backend and a
//! deterministic replica chain, batch requests split into per-backend
//! sub-batches forwarded concurrently over the existing `DSRQ`/`DSRS`
//! protocol, and responses reassemble in request order. Because signature
//! scoring is a pure function of `(golden, observed, band)`, routed results
//! are **bit-identical** to direct [`dsig_core::TestFlow`] scoring at every
//! backend count, every split boundary and under failover — the loopback
//! tests enforce this over a 1000-device lot with a killed backend.
//!
//! The crate provides:
//!
//! * [`Router`] — the TCP front: accept loop, request dispatch by magic,
//!   fan-out over the fleet;
//! * [`RouterHandle`] — the in-process front (no TCP): same core, plus
//!   [`RouterHandle::spawn`] which builds a whole in-process backend fleet
//!   via [`dsig_serve::ServeHandle::spawn`] for tests and benches;
//! * [`RouterClient`] — the TCP client: [`dsig_serve::ServeClient`] under
//!   the router's name (single- and multi-golden screening, golden
//!   push/readback, scrapes and fleet admin);
//! * [`RouterStore`] — the router's authoritative golden store
//!   (`DSGS`-compatible): characterize once, **push** to the owning
//!   backends, **refresh** a failover backend on miss, **read back** from
//!   backends after a router restart;
//! * [`Backend`] / [`HealthConfig`] — the backend fleet: TCP or in-process
//!   transports, stable rendezvous ids, exponential-backoff health records
//!   with deterministic failover (the replica chain *is* the HRW ranking);
//! * [`RouterConfig`] — replication factor, sub-batch boundary, health
//!   policy.
//!
//! # Elastic fleet
//!
//! Membership is **live**: the `DSAQ` admin family (join, leave, drain,
//! list — see `docs/FORMATS.md`) mutates an epoch-versioned membership
//! snapshot under the event loop. A joining backend has the goldens it now
//! owns migrated onto it *before* it enters the rotation; a leaving or
//! draining member has its replicas re-homed to the survivors first; a
//! member that stays dead past its backoff cap triggers once-per-death
//! **replica healing**. Backends are addressed by **label** (`host:port`
//! or `local-<id>`); membership transitions surface as `backend.joined` /
//! `backend.left` / `backend.draining` / `replica.healed` events and the
//! epoch rides in every `DSHR` health report. The client and both handles
//! implement the shared [`dsig_serve::Screen`], [`dsig_serve::ObsScrape`]
//! and [`dsig_serve::FleetAdmin`] traits.
//!
//! The router implements [`dsig_engine::RemoteScorer`], so a
//! [`dsig_engine::CampaignRunner`] can score an entire campaign through the
//! routing tier (`ScoreTarget::Remote`) — multi-process campaign sharding
//! with reports bit-identical to local scoring.
//!
//! # Wire format
//!
//! The router speaks the serving protocol unchanged: `DSRQ`/`DSRS` for
//! single-golden screening (forwarded verbatim to backends), plus the
//! `DSRM` multi-golden request, the `DSGP`/`DSGF`/`DSRA` replication
//! frames and the `DSMX`/`DSMR` metrics scrape (answering with the routing
//! tier's own counters — per-backend forwards/failovers/retries, backoff
//! gauge, fan-out latency, refresh-on-miss), all specified in
//! `docs/FORMATS.md`.
//!
//! # Example
//!
//! See [`RouterClient`] for the end-to-end loopback example, and
//! `examples/router.rs` for a multi-backend fleet with a killed backend.

#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod error;
pub mod handle;
pub mod hash;
pub mod router;
pub mod server;
pub mod store;

pub use backend::{Backend, HealthConfig};
pub use client::RouterClient;
pub use error::{Result, RouterError};
pub use handle::RouterHandle;
pub use hash::{hrw_weight, mix64, rank_backends};
pub use router::RouterConfig;
pub use server::Router;
pub use store::RouterStore;
