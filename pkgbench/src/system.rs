//! The system under test for one workload: a `SessionStore` driven in
//! process, or a `pkgrec-server` over that store driven by `Client`s.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use pkgrec_core::{CoreError, Result};
use pkgrec_serve::{DurabilityConfig, SessionStore, StoreConfig, StoreStats};
use pkgrec_server::{Client, ServeReport, Server, ServerConfig, ServerControl};

use crate::drive::{drive, DriveLog};
use crate::fleet::{Fleet, Shape, WARMUP_BASE};
use crate::trace::Tracer;

/// Opens a store of the workload's shape: memory-only, or durable at `dir`
/// with the default durability knobs.
pub fn open_store(shape: &Shape, dir: Option<&Path>) -> Result<SessionStore> {
    let config = StoreConfig {
        shards: shape.shards,
        capacity_per_shard: shape.capacity_per_shard,
    };
    match dir {
        Some(dir) => SessionStore::open_with(config, DurabilityConfig::at(dir)),
        None => SessionStore::new(config),
    }
}

/// Bytes of every segment file under a durable store's directory.
pub fn segment_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| CoreError::io(e.kind(), e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| CoreError::io(e.kind(), e.to_string()))?;
        let path = entry.path();
        if path.is_dir() {
            total += segment_bytes(&path)?;
        } else if path.extension().is_some_and(|ext| ext == "pkj") {
            total += entry
                .metadata()
                .map_err(|e| CoreError::io(e.kind(), e.to_string()))?
                .len();
        }
    }
    Ok(total)
}

/// A server running on its own thread over a store it owns until shutdown.
struct Served {
    control: ServerControl,
    thread: JoinHandle<(SessionStore, Result<ServeReport>)>,
    clients: Vec<Client>,
}

/// The system under test.
pub struct System {
    store: Option<SessionStore>,
    served: Option<Served>,
    /// The durable store's directory, if any.
    pub dir: Option<PathBuf>,
}

/// The store and counters left once a system has stopped.
pub struct Stopped {
    /// The store, synced.
    pub store: SessionStore,
    /// The server's counters (wire workloads).
    pub serve: Option<ServeReport>,
    /// Reconnect-and-resend attempts the clients made.
    pub retries: u64,
}

impl System {
    /// Opens the store (and for wire workloads binds the server and
    /// connects the clients).
    pub fn open(fleet: &Fleet, dir: Option<PathBuf>) -> Result<System> {
        let store = open_store(&fleet.shape, dir.as_deref())?;
        if fleet.shape.clients == 0 {
            return Ok(System {
                store: Some(store),
                served: None,
                dir,
            });
        }
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| CoreError::io(e.kind(), format!("bind: {e}")))?;
        let addr: SocketAddr = server
            .local_addr()
            .map_err(|e| CoreError::io(e.kind(), format!("local_addr: {e}")))?;
        let control = server.control();
        let thread = std::thread::spawn(move || {
            let mut store = store;
            let report = server.serve(&mut store);
            (store, report)
        });
        let clients = (0..fleet.shape.clients)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>>>();
        let served = Served {
            control,
            thread,
            clients: Vec::new(),
        };
        let mut system = System {
            store: None,
            served: Some(served),
            dir,
        };
        match clients {
            Ok(clients) => system.served.as_mut().expect("served").clients = clients,
            Err(e) => {
                let _ = system.stop();
                return Err(e);
            }
        }
        Ok(system)
    }

    /// Drives the fleet sessions `indices` until `deadline`: in process on
    /// this thread, or over every client connection at once (session `i`
    /// on client `i % clients`).  `trace` records spans from that origin.
    pub fn drive(
        &mut self,
        fleet: &Fleet,
        indices: std::ops::Range<u64>,
        deadline: Instant,
        trace: Option<Instant>,
    ) -> Result<(DriveLog, Option<Tracer>)> {
        let slots = fleet.shape.slots;
        if let Some(store) = self.store.as_mut() {
            let mut tracer = trace.map(Tracer::new);
            let log = drive(store, fleet, indices, slots, deadline, tracer.as_mut(), 0)?;
            return Ok((log, tracer));
        }
        let clients = &mut self.served.as_mut().expect("served").clients;
        let count = clients.len() as u64;
        let outcomes: Vec<Result<(DriveLog, Option<Tracer>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let mine = indices.clone().filter(move |i| i % count == c as u64);
                    scope.spawn(move || {
                        let mut tracer = trace.map(Tracer::new);
                        let op_base = (c as u64) << 40;
                        drive(
                            client,
                            fleet,
                            mine,
                            slots,
                            deadline,
                            tracer.as_mut(),
                            op_base,
                        )
                        .map(|log| (log, tracer))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(CoreError::io(
                            std::io::ErrorKind::Other,
                            "client thread panicked",
                        ))
                    })
                })
                .collect()
        });
        let mut log = DriveLog::default();
        let mut tracer = trace.map(Tracer::new);
        for outcome in outcomes {
            let (part, spans) = outcome?;
            log.merge(part);
            if let (Some(all), Some(spans)) = (tracer.as_mut(), spans) {
                all.absorb(spans);
            }
        }
        Ok((log, tracer))
    }

    /// Drives the warm-up sessions, makes their events durable and returns
    /// their log.
    pub fn warm_up(&mut self, fleet: &Fleet) -> Result<DriveLog> {
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let warmup = WARMUP_BASE..WARMUP_BASE + fleet.shape.warmup_sessions as u64;
        let (log, _) = self.drive(fleet, warmup, far, None)?;
        if let Some(op) = log.ops.iter().find(|op| !op.ok) {
            return Err(CoreError::InvalidConfig(format!(
                "warm-up {} of session {} failed",
                op.verb.name(),
                op.session
            )));
        }
        self.sync()?;
        Ok(log)
    }

    /// The store's counters, read in process or over the first client.
    pub fn store_stats(&mut self) -> Result<StoreStats> {
        match (self.store.as_ref(), self.served.as_mut()) {
            (Some(store), _) => Ok(store.stats()),
            (None, Some(served)) => served.clients[0].stats().map(|(_, stats)| stats),
            (None, None) => unreachable!("a system has a store or a server"),
        }
    }

    /// The store (in process) or the first client connection.
    pub fn target(&mut self) -> &mut dyn crate::drive::Target {
        match (self.store.as_mut(), self.served.as_mut()) {
            (Some(store), _) => store,
            (None, Some(served)) => &mut served.clients[0],
            (None, None) => unreachable!("a system has a store or a server"),
        }
    }

    /// Makes every buffered event durable.
    pub fn sync(&mut self) -> Result<()> {
        match (self.store.as_mut(), self.served.as_mut()) {
            (Some(store), _) => store.sync(),
            (None, Some(served)) => served.clients[0].sync(),
            (None, None) => Ok(()),
        }
    }

    /// Stops the server (if any) and hands back the synced store.
    pub fn stop(mut self) -> Result<Stopped> {
        if let Some(mut store) = self.store.take() {
            store.sync()?;
            return Ok(Stopped {
                store,
                serve: None,
                retries: 0,
            });
        }
        let served = self
            .served
            .take()
            .expect("a system has a store or a server");
        let retries = served.clients.iter().map(Client::retries).sum();
        drop(served.clients);
        served.control.shutdown();
        let (store, report) = served
            .thread
            .join()
            .map_err(|_| CoreError::io(std::io::ErrorKind::Other, "server thread panicked"))?;
        Ok(Stopped {
            store,
            serve: Some(report?),
            retries,
        })
    }
}
