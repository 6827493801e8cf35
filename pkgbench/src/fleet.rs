//! The three workloads: catalog, store shape and session fleet, all derived
//! from the run's seed.
//!
//! The catalog is part of the workload and the same for every seed; the
//! seed draws the shoppers, their hidden utilities and every session's RNG
//! seed.  (Catalogs drawn per seed moved throughput by a third between
//! seeds, which would swamp the changes the benchmark exists to see.)  The
//! warm-up sessions of the set-up are the same for every seed too.
//!
//! A run's work is fixed: `sessions` sessions, each `create → rounds ×
//! (present → click feedback) → recommend`, interleaved round-robin over
//! `slots` concurrently open sessions per load thread.  `--seconds` caps the
//! timed window; the sizes below make a run finish well inside the cap on a
//! 2-core machine, so two commits do the same work and memory and byte
//! counts compare.

use std::sync::Arc;

use pkgrec_core::{
    random_ground_truth_weights, AggregationContext, Catalog, CoreError, EngineConfig,
    LinearUtility, Profile, Result, SimulatedUser,
};
use pkgrec_data::SyntheticFamily;
use pkgrec_serve::{user_rng, RecommenderSpec, SessionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Engine-only fleet over an in-memory store that holds every session.
    EngineResident,
    /// Mixed fleet over a durable store with one live session per shard.
    SpillReplay,
    /// Mixed fleet over TCP into a durable store that holds every session.
    WireDurable,
}

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Store shards.
    pub shards: usize,
    /// Live sessions per shard (`usize::MAX`: the whole fleet).
    pub capacity_per_shard: usize,
    /// Whether the store writes a segment journal.
    pub durable: bool,
    /// Catalog rows.
    pub rows: usize,
    /// Maximum package size φ.
    pub phi: usize,
    /// Present + feedback rounds per session.
    pub rounds: usize,
    /// Sessions open at once per load thread, stepped round-robin.
    pub slots: usize,
    /// Sessions per run (the fixed work).
    pub sessions: usize,
    /// Sessions of each drive of a traced run.
    pub traced_sessions: usize,
    /// TCP client connections (0: the store is called in process).
    pub clients: usize,
    /// Sessions driven through the system before the clock starts.
    pub warmup_sessions: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EngineResident,
        Workload::SpillReplay,
        Workload::WireDurable,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineResident => "engine-resident",
            Workload::SpillReplay => "spill-replay",
            Workload::WireDurable => "wire-durable",
        }
    }

    /// The workload's store, catalog and fleet shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::EngineResident => Shape {
                shards: 4,
                capacity_per_shard: usize::MAX,
                durable: false,
                rows: 600,
                phi: 3,
                rounds: 5,
                slots: 8,
                sessions: 3000,
                traced_sessions: 1000,
                clients: 0,
                warmup_sessions: 16,
            },
            Workload::SpillReplay => Shape {
                shards: 4,
                capacity_per_shard: 1,
                durable: true,
                rows: 120,
                phi: 2,
                rounds: 3,
                slots: 32,
                sessions: 1600,
                traced_sessions: 600,
                clients: 0,
                warmup_sessions: 16,
            },
            Workload::WireDurable => Shape {
                shards: 2,
                capacity_per_shard: usize::MAX,
                durable: true,
                rows: 60,
                phi: 2,
                rounds: 3,
                slots: 8,
                sessions: 8000,
                traced_sessions: 4000,
                clients: 2,
                warmup_sessions: 32,
            },
        }
    }

    /// The recommender recipe of fleet session `i`.
    pub fn spec(self, i: u64) -> RecommenderSpec {
        match self {
            Workload::EngineResident => RecommenderSpec::Engine(EngineConfig {
                k: 3,
                num_random: 3,
                num_samples: 50,
                ..EngineConfig::default()
            }),
            // Engine, EmRefit and Skyline 2:1:1.
            Workload::SpillReplay | Workload::WireDurable => {
                pkgrec_server::loadgen::session_spec(i)
            }
        }
    }

    /// The `rows`-item catalog every session of a run shops from.
    pub fn catalog(self, seed: u64, rows: usize) -> Result<Arc<Catalog>> {
        match self {
            Workload::WireDurable => pkgrec_server::loadgen::build_catalog(seed, rows),
            Workload::EngineResident | Workload::SpillReplay => uni_catalog(seed, rows),
        }
    }
}

/// A UNI catalog with cost/quality features normalised to `[0, 1]`.
fn uni_catalog(seed: u64, rows: usize) -> Result<Arc<Catalog>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = SyntheticFamily::Uniform
        .generate(rows, 2, &mut rng)
        .map_err(|e| CoreError::InvalidConfig(format!("UNI catalog: {e}")))?
        .normalized();
    Ok(Arc::new(Catalog::from_rows(dataset.rows().to_vec())?))
}

/// Kind of recommender behind a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// The paper's elicitation engine.
    Engine,
    /// The EM-refit baseline.
    EmRefit,
    /// The skyline baseline.
    Skyline,
}

impl Kind {
    fn of(spec: &RecommenderSpec) -> Kind {
        match spec.label() {
            "engine" => Kind::Engine,
            "skyline" => Kind::Skyline,
            _ => Kind::EmRefit,
        }
    }
}

/// Everything needed to open and drive one session.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Position in the fleet.
    pub index: u64,
    /// The session's configuration (catalog shared by `Arc`).
    pub config: SessionConfig,
    /// The hidden-utility shopper who clicks.
    pub user: SimulatedUser,
    /// Recommender kind.
    pub kind: Kind,
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The workload.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// The run seed.
    pub seed: u64,
    /// The shared catalog.
    pub catalog: Arc<Catalog>,
    /// Aggregation context of the catalog (users' utilities use it).
    pub context: AggregationContext,
}

/// Seed of every workload's catalog.
const CATALOG_SEED: u64 = 20_140_902;

/// Fleet indices at and above this value are warm-up sessions.
pub const WARMUP_BASE: u64 = 1 << 40;

/// Run seed of every warm-up session.
const WARMUP_SEED: u64 = 20_140_903;

impl Fleet {
    /// Builds the catalog and context for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Result<Fleet> {
        Fleet::with_shape(workload, workload.shape(), seed)
    }

    /// [`Fleet::new`] with a caller-chosen shape (tests use small fleets).
    pub fn with_shape(workload: Workload, shape: Shape, seed: u64) -> Result<Fleet> {
        let catalog = workload.catalog(CATALOG_SEED, shape.rows)?;
        let context = AggregationContext::new(Profile::cost_quality(), &catalog, shape.phi)?;
        Ok(Fleet {
            workload,
            shape,
            seed,
            catalog,
            context,
        })
    }

    /// The session at fleet position `index`.  Warm-up sessions are the
    /// same for every run seed, so that every run's set-up does the same
    /// work.
    pub fn session(&self, index: u64) -> Result<SessionPlan> {
        let run_seed = if index >= WARMUP_BASE {
            WARMUP_SEED
        } else {
            self.seed
        };
        let seed = mix64(run_seed ^ mix64(index.wrapping_add(0x5E55)));
        let spec = self.workload.spec(index);
        let mut taste = user_rng(seed);
        let weights = random_ground_truth_weights(self.context.dim(), &mut taste);
        let user = SimulatedUser::new(LinearUtility::new(self.context.clone(), weights)?);
        Ok(SessionPlan {
            index,
            kind: Kind::of(&spec),
            config: SessionConfig {
                catalog: self.catalog.clone(),
                profile: Profile::cost_quality(),
                max_package_size: self.shape.phi,
                spec,
                seed,
            },
            user,
        })
    }
}

/// SplitMix64 finaliser.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
