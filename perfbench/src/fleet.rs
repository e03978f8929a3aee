//! The screening fleet: a `Router` front over four TCP `Server` backends on
//! loopback, all in their default configuration, booted from a saved
//! `RouterStore`.

use std::path::Path;
use std::sync::Arc;

use dsig_core::{AcceptanceBand, Signature, TestSetup};
use dsig_obs::{MetricsSnapshot, Registry};
use dsig_router::{Backend, Router, RouterConfig, RouterStore};
use dsig_serve::{GoldenStore, ServeConfig, Server};

use crate::common::{band, product};
use crate::trace::Tracer;

pub const BACKENDS: usize = 4;
/// Loopback ports of the backends. A backend's HRW id is a hash of its
/// address, so ephemeral ports would place the goldens differently in every
/// run: over eight runs of one seed, the busiest backend's forward share
/// ranged 0.39–0.58 and `screen_bulk` throughput 144–176k verdicts/s with
/// it. Fixed ports fix the placement. They lie below Linux's ephemeral
/// range, so no client socket holds them.
const BACKEND_PORTS: [u16; BACKENDS] = [29170, 29171, 29172, 29173];

/// Where a run saves its router store before booting from it.
pub fn store_path(dir: &Path) -> std::path::PathBuf {
    dir.join(format!("router-store-{}.dsgs", std::process::id()))
}

/// One served product: its fingerprint, golden signature and band.
#[derive(Debug, Clone)]
pub struct Golden {
    pub key: u64,
    pub signature: Signature,
    pub band: AcceptanceBand,
}

pub struct Fleet {
    pub goldens: Vec<Golden>,
    pub servers: Vec<Server>,
    pub router: Router,
}

impl Fleet {
    /// Characterizes the goldens of `products` into a fresh router store.
    pub fn characterize(
        setup: &TestSetup,
        products: std::ops::Range<usize>,
        tracer: &Tracer,
    ) -> Result<(RouterStore, Vec<u64>), String> {
        let store = RouterStore::new();
        let keys = products
            .map(|index| {
                let _span = tracer.span("core.golden", 0, index as u64);
                store
                    .characterize(setup, &product(index), band())
                    .map_err(|e| format!("characterize product {index}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok((store, keys))
    }

    /// Saves `store` to `store_path`, boots the backends and the router from
    /// the reloaded store, and pushes the goldens under `keys` to their
    /// owners.
    pub fn boot(store: RouterStore, keys: &[u64], store_path: &Path, tracer: &Tracer) -> Result<Fleet, String> {
        {
            let _span = tracer.span("store.save", 0, 0);
            store.save(store_path).map_err(|e| format!("save router store: {e}"))?;
        }
        let loaded = {
            let _span = tracer.span("store.load", 0, 0);
            RouterStore::load(store_path).map_err(|e| format!("load router store: {e}"))?
        };
        std::fs::remove_file(store_path).map_err(|e| format!("remove {}: {e}", store_path.display()))?;

        let goldens = keys
            .iter()
            .map(|&key| {
                let record = loaded
                    .get(key)
                    .ok_or_else(|| format!("golden {key:#x} lost in save/load"))?;
                Ok(Golden {
                    key,
                    signature: record.golden.clone(),
                    band: record.band,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        // Each backend reports into its own registry, so a fleet scrape
        // shows per-backend counters instead of one process-wide blur.
        let servers = BACKEND_PORTS
            .iter()
            .map(|&port| {
                let bind = |addr: &str| {
                    Server::bind_in(
                        addr,
                        Arc::new(GoldenStore::new()),
                        ServeConfig::default(),
                        Registry::new(),
                    )
                };
                bind(&format!("127.0.0.1:{port}"))
                    .or_else(|e| {
                        eprintln!("perfbench: backend port {port} is taken ({e}); the golden placement will differ");
                        bind("127.0.0.1:0")
                    })
                    .map_err(|e| format!("bind backend: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let backends = servers.iter().map(|s| Backend::tcp(s.local_addr())).collect();
        let router = Router::bind("127.0.0.1:0", backends, loaded, RouterConfig::default())
            .map_err(|e| format!("bind router: {e}"))?;
        let handle = router.handle();
        for golden in &goldens {
            handle
                .push_golden(golden.key, golden.signature.clone(), golden.band)
                .map_err(|e| format!("push golden {:#x}: {e}", golden.key))?;
        }
        Ok(Fleet {
            goldens,
            servers,
            router,
        })
    }

    /// The fleet scrape: every backend under `backend.<label>.`, their
    /// rollup under `fleet.`, and the router's own metrics unprefixed.
    pub fn scrape(&self) -> MetricsSnapshot {
        self.router.handle().fleet_metrics()
    }
}
