//! The unified client API: the screening, observability-scrape and
//! fleet-admin surfaces as traits.
//!
//! Three concrete types expose the same surface — the TCP [`crate::ServeClient`]
//! (which the router crate also names `RouterClient`: one protocol, one
//! client), the in-process [`ServeHandle`], and the router's in-process
//! `RouterHandle`. Program against the traits, and a consumer (the top bin,
//! the engine plumbing, the test suites) works with any of them:
//!
//! * [`Screen`] — score work: single-golden and multi-golden batches, the
//!   adaptive retest path.
//! * [`ObsScrape`] — the operator surface: metrics, traces, events, their
//!   fleet-wide forms, and the health verdict.
//! * [`FleetAdmin`] — live membership: join, leave, drain and roster. Only
//!   a routing tier accepts these; a leaf serving process answers every
//!   verb with an error, which is how a generic caller discovers it is not
//!   talking to a router.
//!
//! Every method takes `&self`: every implementor is internally shared (the
//! client multiplexes one connection across clones, the handles front
//! shared pools). The client's typed requests exist only as these trait
//! methods; the handles also keep inherent methods with richer signatures
//! (their scrapes cannot fail), and the traits are the portable projection.

use dsig_core::Signature;
use dsig_obs::{EventLog, HealthReport, MetricsSnapshot, SloPolicy, TraceLog};

use crate::proto::{FleetRoster, RetestRequest, RetestScore, ScoreResult};
use crate::{ServeError, ServeHandle};

/// The screening surface: score observed signatures against served goldens.
///
/// Implemented by every client and handle; routing-tier implementors fan
/// the work across backends, leaf implementors score locally. All methods
/// are idempotent.
pub trait Screen {
    /// The implementor's error vocabulary.
    type Error: std::error::Error;

    /// Scores a batch of signatures against the golden under `golden_key`,
    /// returning one [`ScoreResult`] per signature in request order.
    ///
    /// # Errors
    /// Implementor-defined; unknown fingerprints and dead connections are
    /// the common cases.
    fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>, Self::Error>;

    /// Scores a single signature (a one-element [`Screen::screen`]).
    ///
    /// # Errors
    /// As for [`Screen::screen`].
    fn screen_one(&self, golden_key: u64, signature: &Signature) -> Result<ScoreResult, Self::Error> {
        Ok(self.screen(golden_key, std::slice::from_ref(signature))?[0])
    }

    /// Scores a batch where each signature names its own golden
    /// fingerprint.
    ///
    /// # Errors
    /// As for [`Screen::screen`].
    fn screen_multi(&self, items: &[(u64, Signature)]) -> Result<Vec<ScoreResult>, Self::Error>;

    /// Screens an adaptive-retest batch: each device's single-shot
    /// signature plus its measurement repeats, re-decided through the
    /// request's retest policy.
    ///
    /// # Errors
    /// As for [`Screen::screen`].
    fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>, Self::Error>;
}

/// The observability surface: metrics, traces, events and health.
///
/// Metrics scrapes and health checks are idempotent; trace and event
/// drains consume (each span or event is exported at most once).
pub trait ObsScrape {
    /// The implementor's error vocabulary.
    type Error: std::error::Error;

    /// Scrapes the process's live metrics registry.
    ///
    /// # Errors
    /// Implementor-defined (transport failures for the clients).
    fn metrics(&self) -> Result<MetricsSnapshot, Self::Error>;

    /// Drains the process's buffered trace spans. Consuming.
    ///
    /// # Errors
    /// As for [`ObsScrape::metrics`].
    fn traces(&self) -> Result<TraceLog, Self::Error>;

    /// Drains the process's structured event log. Consuming.
    ///
    /// # Errors
    /// As for [`ObsScrape::metrics`].
    fn events(&self) -> Result<EventLog, Self::Error>;

    /// Scrapes fleet-wide merged metrics: a routing tier merges every
    /// backend's snapshot under `backend.<id>.` prefixes plus `fleet.`
    /// rollups; a leaf answers its own snapshot — a fleet of one.
    ///
    /// # Errors
    /// As for [`ObsScrape::metrics`].
    fn fleet_metrics(&self) -> Result<MetricsSnapshot, Self::Error>;

    /// Drains trace spans fleet-wide. Consuming, like [`ObsScrape::traces`].
    ///
    /// # Errors
    /// As for [`ObsScrape::metrics`].
    fn fleet_traces(&self) -> Result<TraceLog, Self::Error>;

    /// Evaluates the process's own health, returning the PASS/DEGRADED/FAIL
    /// report (routing tiers fold in backend reachability and the
    /// membership epoch).
    ///
    /// # Errors
    /// As for [`ObsScrape::metrics`].
    fn health(&self) -> Result<HealthReport, Self::Error>;
}

/// The fleet-admin surface: live membership changes against a routing
/// tier.
///
/// Every verb is **idempotent by label** (joining an active member,
/// leaving an unknown one and draining a draining one are acknowledged
/// no-ops), which is what makes the verbs safe to resubmit under the
/// mux's transparent reconnect. Leaf implementors reject every verb.
pub trait FleetAdmin {
    /// The implementor's error vocabulary.
    type Error: std::error::Error;

    /// Admits the backend at `label` (a dialable `host:port`) into the
    /// fleet and migrates the goldens it now owns onto it, returning the
    /// roster after the change.
    ///
    /// # Errors
    /// Rejected labels (unparseable, or the peer is not a routing tier)
    /// and transport failures.
    fn fleet_join(&self, label: &str) -> Result<FleetRoster, Self::Error>;

    /// Removes the member at `label`, re-replicating its goldens to the
    /// surviving owners first.
    ///
    /// # Errors
    /// As for [`FleetAdmin::fleet_join`]; removing the last member is
    /// rejected.
    fn fleet_leave(&self, label: &str) -> Result<FleetRoster, Self::Error>;

    /// Drains the member at `label`: its goldens are re-replicated and new
    /// work steers away, but it stays in the roster as a last resort.
    ///
    /// # Errors
    /// As for [`FleetAdmin::fleet_join`].
    fn fleet_drain(&self, label: &str) -> Result<FleetRoster, Self::Error>;

    /// Reads the live membership roster: the current epoch plus every
    /// member's label, id and state.
    ///
    /// # Errors
    /// As for [`FleetAdmin::fleet_join`].
    fn fleet_roster(&self) -> Result<FleetRoster, Self::Error>;
}

impl Screen for ServeHandle {
    type Error = ServeError;

    fn screen(&self, golden_key: u64, signatures: &[Signature]) -> Result<Vec<ScoreResult>, ServeError> {
        ServeHandle::screen(self, golden_key, signatures)
    }

    fn screen_multi(&self, items: &[(u64, Signature)]) -> Result<Vec<ScoreResult>, ServeError> {
        ServeHandle::screen_multi(self, items)
    }

    fn screen_retest(&self, request: &RetestRequest) -> Result<Vec<RetestScore>, ServeError> {
        ServeHandle::screen_retest(self, request)
    }
}

impl ObsScrape for ServeHandle {
    type Error = ServeError;

    fn metrics(&self) -> Result<MetricsSnapshot, ServeError> {
        Ok(ServeHandle::metrics(self))
    }

    fn traces(&self) -> Result<TraceLog, ServeError> {
        Ok(ServeHandle::traces(self))
    }

    fn events(&self) -> Result<EventLog, ServeError> {
        Ok(ServeHandle::events(self))
    }

    fn fleet_metrics(&self) -> Result<MetricsSnapshot, ServeError> {
        // A bare handle is a fleet of one, exactly like a bare server
        // answering `DSFM` with its own snapshot.
        Ok(ServeHandle::metrics(self))
    }

    fn fleet_traces(&self) -> Result<TraceLog, ServeError> {
        Ok(ServeHandle::traces(self))
    }

    fn health(&self) -> Result<HealthReport, ServeError> {
        Ok(ServeHandle::health(self, &SloPolicy::default()))
    }
}

impl FleetAdmin for ServeHandle {
    type Error = ServeError;

    fn fleet_join(&self, _label: &str) -> Result<FleetRoster, ServeError> {
        Err(not_a_router())
    }

    fn fleet_leave(&self, _label: &str) -> Result<FleetRoster, ServeError> {
        Err(not_a_router())
    }

    fn fleet_drain(&self, _label: &str) -> Result<FleetRoster, ServeError> {
        Err(not_a_router())
    }

    fn fleet_roster(&self) -> Result<FleetRoster, ServeError> {
        Err(not_a_router())
    }
}

/// The error a leaf answers every fleet-admin verb with — the in-process
/// mirror of the `DSRA` rejection the wire dispatcher sends.
fn not_a_router() -> ServeError {
    ServeError::Remote("fleet admin verbs are only valid against a routing tier".into())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dsig_core::{AcceptanceBand, SignatureEntry, ZoneCode};

    use super::*;
    use crate::server::ServeConfig;
    use crate::store::GoldenStore;

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

    /// One generic driver exercises every implementor: the point of the
    /// trait layer is that this function cannot tell them apart.
    fn drive<T>(peer: &T, key: u64)
    where
        T: Screen + ObsScrape + FleetAdmin,
        <T as Screen>::Error: std::fmt::Debug,
        <T as ObsScrape>::Error: std::fmt::Debug,
    {
        let observed = sig(&[(1, 100e-6), (3, 100e-6)]);
        assert_eq!(peer.screen_one(key, &observed).unwrap().ndf, 0.0);
        assert_eq!(peer.screen(key, std::slice::from_ref(&observed)).unwrap().len(), 1);
        let items = vec![(key, observed)];
        assert_eq!(peer.screen_multi(&items).unwrap().len(), 1);
        assert!(peer.metrics().unwrap().counter("serve.signatures_scored").is_some());
        let _ = peer.health().unwrap();
        let _ = peer.fleet_metrics().unwrap();
    }

    #[test]
    fn every_serve_implementor_drives_through_the_traits() {
        let store = GoldenStore::new();
        let key = 0xA11CE;
        store.insert(
            key,
            sig(&[(1, 100e-6), (3, 100e-6)]),
            AcceptanceBand::new(0.05).unwrap(),
        );
        let server = crate::Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::with_shards(1)).unwrap();

        let handle = server.handle();
        drive(&handle, key);
        // A leaf rejects every admin verb with the routing-tier error.
        assert!(matches!(handle.fleet_roster(), Err(ServeError::Remote(_))));

        let client = crate::ServeClient::connect(server.local_addr()).unwrap();
        drive(&client, key);
        assert!(matches!(client.fleet_join("127.0.0.1:1"), Err(ServeError::Remote(_))));
        assert!(matches!(client.fleet_drain("x"), Err(ServeError::Remote(_))));
    }
}
