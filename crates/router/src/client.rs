//! The TCP client of a [`crate::Router`].
//!
//! The router speaks the `dsig-serve` wire protocol, so its client is the
//! serving tier's multiplexed [`dsig_serve::ServeClient`] under a second
//! name: N requests in flight on one connection, the same one-redial retry
//! rules (see the `dsig_serve::client` module docs), and [`ServeError`]s.
//! Code that wants the router's vocabulary converts with
//! `RouterError::from`, which maps an unknown golden onto
//! [`crate::RouterError::UnknownGolden`].
//!
//! [`ServeError`]: dsig_serve::ServeError

/// The TCP client of a routing tier.
///
/// # Examples
///
/// Characterize a golden through the router (which replicates it to the
/// owning backends), then screen a deviated device over loopback:
///
/// ```
/// use std::sync::Arc;
/// use cut_filters::BiquadParams;
/// use dsig_core::{AcceptanceBand, TestSetup};
/// use dsig_router::{Backend, Router, RouterClient, RouterConfig, RouterStore};
/// use dsig_serve::{GoldenStore, Screen, ServeConfig, ServeHandle};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two in-process scoring backends fronted by a TCP router.
/// let fleet: Vec<Backend> = (0..2)
///     .map(|id| Backend::local(id, ServeHandle::spawn(Arc::new(GoldenStore::new()), ServeConfig::with_shards(1))))
///     .collect();
/// let router = Router::bind("127.0.0.1:0", fleet, RouterStore::new(), RouterConfig::default())?;
///
/// // Characterization: once, through the router — the golden lands on its
/// // rendezvous owner and replica.
/// let setup = TestSetup::paper_default()?.with_sample_rate(1e6)?;
/// let reference = BiquadParams::paper_default();
/// let key = router.handle().characterize(&setup, &reference, AcceptanceBand::new(0.03)?)?;
///
/// // Production test: capture a signature, upload, decide.
/// let observed = setup.signature_of(&reference.with_f0_shift_pct(10.0), 7)?;
/// let client = RouterClient::connect(router.local_addr())?;
/// let score = client.screen_one(key, &observed)?;
/// assert!(score.ndf > 0.0);
/// # Ok(())
/// # }
/// ```
pub type RouterClient = dsig_serve::ServeClient;
