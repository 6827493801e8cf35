//! Cross-crate properties of the serving layer (`pkgrec-serve`):
//!
//! * journal replay is **bit-identical** — for random feedback sequences,
//!   replaying a session's journal reconstructs exactly the state of the
//!   live session, for the engine (compared through the snapshot machinery
//!   of `pkgrec-core`) and for the EM-refit baseline adapter (compared
//!   through its state and next recommendation),
//! * serving outcomes are independent of the store's shard count, the
//!   serving loop's thread count, and capacity pressure (spill/rehydrate
//!   round trips are invisible to sessions),
//! * content-equal catalogs share one interned `Arc` across shards and
//!   across a rebuild from the exported journal.

use pkgrec_baselines::{BaselineSpec, EmRefitConfig, FeatureDirection};
use pkgrec_core::prelude::*;
use pkgrec_serve::{
    op_rng, shard_of, user_rng, LiveSession, RecommenderSpec, SessionConfig, SessionId,
    SessionStore, StoreConfig,
};
use proptest::prelude::*;

fn catalog_strategy(max_items: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.05f64..1.0, 2), 5..max_items)
}

fn engine_config(rows: &[Vec<f64>], seed: u64) -> SessionConfig {
    SessionConfig {
        catalog: std::sync::Arc::new(Catalog::from_rows(rows.to_vec()).unwrap()),
        profile: Profile::cost_quality(),
        max_package_size: 2,
        spec: RecommenderSpec::Engine(EngineConfig {
            k: 2,
            num_random: 2,
            num_samples: 20,
            ..EngineConfig::default()
        }),
        seed,
    }
}

fn em_refit_config(rows: &[Vec<f64>], seed: u64) -> SessionConfig {
    SessionConfig {
        spec: RecommenderSpec::Baseline(BaselineSpec::EmRefit(EmRefitConfig {
            k: 2,
            num_random: 2,
            num_samples: 15,
            samples_per_refit: 30,
            ..EmRefitConfig::default()
        })),
        ..engine_config(rows, seed)
    }
}

fn hidden_user(catalog: &Catalog, weights: Vec<f64>) -> SimulatedUser {
    let context = AggregationContext::new(Profile::cost_quality(), catalog, 2).unwrap();
    SimulatedUser::new(LinearUtility::new(context, weights).unwrap())
}

/// Drives `rounds` rounds through the store, mixing clicks, pairwise
/// comparisons and skips; the click/preferred index always follows the
/// hidden utility, so the recorded preference set stays satisfiable.
fn drive_rounds(
    store: &mut SessionStore,
    id: SessionId,
    user: &SimulatedUser,
    rounds: usize,
    kinds: &[u8],
) {
    let catalog = store.session_config(id).unwrap().catalog.clone();
    for round in 0..rounds {
        let shown = store.present(id).unwrap();
        let best = user.choose(&catalog, &shown, &mut user_rng(id.0)).unwrap();
        let feedback = match kinds[round % kinds.len()] % 3 {
            0 => Feedback::Click { index: best },
            1 => Feedback::Pairwise {
                preferred: best,
                over: (best + 1) % shown.len(),
            },
            _ => Feedback::Skip,
        };
        store.feedback(id, feedback).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Engine sessions: `replay(journal)` reconstructs the *exact* session —
    /// its snapshot (config + preference DAG + pool, bit for bit) equals the
    /// live one's.
    #[test]
    fn engine_journal_replay_is_bit_identical(
        rows in catalog_strategy(9),
        w0 in -1.0f64..1.0,
        w1 in -1.0f64..1.0,
        rounds in 1usize..4,
        kinds in prop::collection::vec(0u8..3, 4),
        seed in 0u64..1000,
    ) {
        let mut store = SessionStore::new(StoreConfig { shards: 1, capacity_per_shard: 8 }).unwrap();
        let config = engine_config(&rows, seed);
        let user = hidden_user(&config.catalog, vec![w0, w1]);
        let id = store.create(config).unwrap();
        drive_rounds(&mut store, id, &user, rounds, &kinds);

        // Replay the journal as it stands (no checkpoints were written: the
        // store never exceeded capacity), i.e. reconstruct from `Created`.
        let replayed = store.export_journal().replay(id).unwrap();
        let LiveSession::Engine(replica) = &replayed.session else {
            panic!("engine session expected");
        };
        // The live session's snapshot, via the store's snapshot surface.
        let live_json = store.snapshot(id).unwrap();
        let live: SessionSnapshot = serde_json::from_str(&live_json).unwrap();
        prop_assert_eq!(&replica.snapshot(), &live);

        // After eviction the session rehydrates from its checkpoint and
        // keeps recommending exactly what the uninterrupted session would.
        let before = store.recommend(id).unwrap();
        store.evict(id).unwrap();
        prop_assert_eq!(store.recommend(id).unwrap(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The EM-refit baseline adapter: replay rebuilds a session with the
    /// same observable state and the same next recommendation (the adapter
    /// has no snapshot form — the journal *is* its durable form).
    #[test]
    fn em_refit_journal_replay_matches_the_live_session(
        rows in catalog_strategy(8),
        w0 in -1.0f64..1.0,
        w1 in -1.0f64..1.0,
        rounds in 1usize..3,
        kinds in prop::collection::vec(0u8..3, 3),
        seed in 0u64..1000,
    ) {
        let mut store = SessionStore::new(StoreConfig { shards: 1, capacity_per_shard: 8 }).unwrap();
        let config = em_refit_config(&rows, seed);
        let user = hidden_user(&config.catalog, vec![w0, w1]);
        let id = store.create(config).unwrap();
        drive_rounds(&mut store, id, &user, rounds, &kinds);

        let mut replayed = store.export_journal().replay(id).unwrap();
        let live_state = store.state(id).unwrap();
        prop_assert_eq!(replayed.session.inspect().state(), live_state);
        // Same next recommendation under the session's own derived stream.
        let mut rng = op_rng(replayed.config.seed, replayed.ops);
        let replica_recs = replayed.session.recommender().recommend(&mut rng).unwrap();
        prop_assert_eq!(store.recommend(id).unwrap(), replica_recs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint-anchored compaction is invisible to sessions: for random
    /// interleavings of rounds, evictions, explicit checkpoints and
    /// compaction passes, a compacting store stays bit-identical to a
    /// shadow store that never compacts — same snapshots, same baseline
    /// state, same recommendations — and its compacted journal still
    /// replays every session exactly.
    #[test]
    fn compaction_preserves_replay_for_random_interleavings(
        rows in catalog_strategy(8),
        w0 in -1.0f64..1.0,
        w1 in -1.0f64..1.0,
        script in prop::collection::vec(0u8..6, 4..16),
        seed in 0u64..1000,
    ) {
        let build = || {
            let mut store =
                SessionStore::new(StoreConfig { shards: 2, capacity_per_shard: 8 }).unwrap();
            let ids = vec![
                store.create(engine_config(&rows, seed)).unwrap(),
                store.create(engine_config(&rows, seed ^ 0xBEEF)).unwrap(),
                store.create(em_refit_config(&rows, seed ^ 0xCAFE)).unwrap(),
            ];
            (store, ids)
        };
        let (mut compacting, ids) = build();
        let (mut shadow, shadow_ids) = build();
        prop_assert_eq!(&ids, &shadow_ids);
        let user = hidden_user(&compacting.session_config(ids[0]).unwrap().catalog.clone(),
                               vec![w0, w1]);

        for (step, action) in script.iter().enumerate() {
            match action {
                // A feedback round on one of the three sessions.
                0..=2 => {
                    let id = ids[*action as usize];
                    let kinds = [*action + step as u8];
                    drive_rounds(&mut compacting, id, &user, 1, &kinds);
                    drive_rounds(&mut shadow, id, &user, 1, &kinds);
                }
                // Spill an engine session (writes a checkpoint) on both.
                3 => {
                    let id = ids[step % 2];
                    if compacting.is_live(id).unwrap() {
                        compacting.evict(id).unwrap();
                    }
                    if shadow.is_live(id).unwrap() {
                        shadow.evict(id).unwrap();
                    }
                }
                // Explicit checkpoint of an engine session on both.
                4 => {
                    let id = ids[step % 2];
                    compacting.snapshot(id).unwrap();
                    shadow.snapshot(id).unwrap();
                }
                // Compact — only the compacting store.  The shadow keeps
                // its full history as the reference.
                _ => {
                    compacting.compact().unwrap();
                }
            }
        }
        compacting.compact().unwrap();

        // The compacted journal never outgrows the full history.
        prop_assert!(compacting.export_journal().len() <= shadow.export_journal().len());

        // Engine sessions: identical snapshots, byte for byte.
        for &id in &ids[..2] {
            prop_assert_eq!(compacting.snapshot(id).unwrap(), shadow.snapshot(id).unwrap());
        }
        // The baseline session: identical observable state.
        prop_assert_eq!(
            compacting.state(ids[2]).unwrap(),
            shadow.state(ids[2]).unwrap()
        );
        // And every session still recommends identically — both live and
        // after replaying the compacted journal into a fresh store.
        let journal = compacting.export_journal();
        let mut replayed = SessionStore::from_journal(
            StoreConfig { shards: 1, capacity_per_shard: 8 },
            &journal,
        ).unwrap();
        for &id in &ids {
            let expected = shadow.recommend(id).unwrap();
            prop_assert_eq!(compacting.recommend(id).unwrap(), expected.clone());
            prop_assert_eq!(replayed.recommend(id).unwrap(), expected);
        }
    }
}

/// Builds one mixed fleet (engine / em-refit / skyline sessions) in a store
/// of the given shape and serves every session to convergence.
fn serve_fleet(
    shards: usize,
    capacity: usize,
    threads: usize,
) -> Vec<pkgrec_serve::SessionOutcome> {
    let rows = vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
        vec![0.3, 0.7],
        vec![0.7, 0.1],
        vec![0.1, 0.3],
        vec![0.5, 0.9],
    ];
    let mut store = SessionStore::new(StoreConfig {
        shards,
        capacity_per_shard: capacity,
    })
    .unwrap();
    let mut sessions = Vec::new();
    for i in 0..9u64 {
        let seed = 400 + i;
        let config = match i % 3 {
            0 => engine_config(&rows, seed),
            1 => em_refit_config(&rows, seed),
            _ => SessionConfig {
                spec: RecommenderSpec::Baseline(BaselineSpec::Skyline {
                    cardinality: 2,
                    directions: vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
                    k: 2,
                }),
                ..engine_config(&rows, seed)
            },
        };
        let catalog = config.catalog.clone();
        let id = store.create(config).unwrap();
        let lean = if i % 2 == 0 { -0.8 } else { 0.4 };
        sessions.push((id, hidden_user(&catalog, vec![lean, 0.6])));
    }
    let elicitation = ElicitationConfig {
        max_rounds: 5,
        stable_rounds: 2,
    };
    pkgrec_serve::ServingLoop::new(&mut store)
        .run(&sessions, elicitation, threads)
        .unwrap()
}

#[test]
fn serving_outcomes_are_shard_and_thread_count_independent() {
    // Ample capacity: full outcome equality (including search counters)
    // across 1 shard vs 4 shards and 1 thread vs 4 threads.
    let baseline = serve_fleet(1, 32, 1);
    assert_eq!(baseline.len(), 9);
    assert!(baseline.iter().any(|o| o.label == "engine"));
    assert!(baseline.iter().any(|o| o.label == "em-refit"));
    assert!(baseline.iter().any(|o| o.label == "skyline"));
    for (shards, threads) in [(4, 1), (4, 4), (2, 2)] {
        let other = serve_fleet(shards, 32, threads);
        assert_eq!(baseline, other, "{shards} shards, {threads} threads");
    }
}

#[test]
fn serving_outcomes_survive_capacity_pressure() {
    // Capacity 1 forces spill/rehydrate on nearly every operation; the
    // per-session elicitation outcomes must not change.  (Search counters
    // are process-local observability and reset on engine rehydration, so
    // they are excluded from this comparison.)
    let ample = serve_fleet(2, 32, 2);
    let starved = serve_fleet(2, 1, 2);
    assert_eq!(ample.len(), starved.len());
    for (a, s) in ample.iter().zip(starved.iter()) {
        assert_eq!(a.id, s.id);
        assert_eq!(a.label, s.label);
        assert_eq!(a.clicks, s.clicks, "session {}", a.id);
        assert_eq!(a.converged, s.converged, "session {}", a.id);
        assert_eq!(a.precision, s.precision, "session {}", a.id);
    }
}

/// Content-equal catalogs that arrive as distinct `Arc`s — as every catalog
/// deserialised off the wire does — resolve to one shared `Arc` through the
/// store-wide interner, whichever shard the sessions land on, and still do
/// after the store is rebuilt from its exported journal.
#[test]
fn content_equal_catalogs_share_one_interned_arc() {
    let rows = vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
        vec![0.3, 0.7],
    ];
    let config = StoreConfig {
        shards: 2,
        capacity_per_shard: 4,
    };
    let mut store = SessionStore::new(config).unwrap();
    // `engine_config` builds a fresh `Arc` per call; create sessions until
    // two of them sit on different shards.
    let first = store.create(engine_config(&rows, 1)).unwrap();
    let mut seed = 2;
    let second = loop {
        let id = store.create(engine_config(&rows, seed)).unwrap();
        if shard_of(id, 2) != shard_of(first, 2) {
            break id;
        }
        seed += 1;
    };
    let shared = |store: &SessionStore| {
        std::sync::Arc::ptr_eq(
            &store.session_config(first).unwrap().catalog,
            &store.session_config(second).unwrap().catalog,
        )
    };
    assert!(shared(&store), "content-equal catalogs intern to one Arc");

    let rebuilt = SessionStore::from_journal(config, &store.export_journal()).unwrap();
    assert!(
        shared(&rebuilt),
        "journal adoption interns the recovered catalogs too"
    );
}
