//! Property suite for the engine's discovery memo.
//!
//! A `RecommenderEngine` memoizes each pool slot's `Top-k-Pkg` result under
//! the exact bits of the slot's weight row, so a present or recommend
//! searches only the rows that changed.  The memo must be invisible:
//!
//! * at every step of a random Click / Pairwise / Skip sequence, the
//!   engine's per-sample rankings equal the memo-free
//!   [`per_sample_rankings_indexed`] over the same pool, bit for bit;
//! * its `present`, `recommend` and `snapshot()` equal those of a cold twin
//!   that is restored from its own snapshot before every operation (a
//!   restored engine starts with an empty memo), bit for bit, including
//!   across a `snapshot → restore` of the memoized engine mid-sequence;
//! * every ranking runs one search or one memo hit per pool row;
//! * 1, 2 and 4 threads give identical outcomes *and* identical search and
//!   hit counts, because the threads split the misses, not the slots.

use pkgrec_core::prelude::*;
use pkgrec_core::recommender::per_sample_rankings_indexed;
use pkgrec_core::PerSampleRanking;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One recorded step: the outcome bits plus the engine's counters after it.
#[derive(Debug, PartialEq)]
struct Step {
    shown: Vec<Package>,
    recommended: Vec<(Package, u64)>,
    snapshot: String,
    searches: usize,
    memo_hits: usize,
}

fn ranking_bits(rankings: &[PerSampleRanking]) -> Vec<(u64, Vec<(Package, u64)>)> {
    rankings
        .iter()
        .map(|r| {
            (
                r.importance.to_bits(),
                r.ranked
                    .iter()
                    .map(|(p, u)| (p.clone(), u.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

fn ranked_bits(ranked: &[RankedPackage]) -> Vec<(Package, u64)> {
    ranked
        .iter()
        .map(|r| (r.package.clone(), r.score.to_bits()))
        .collect()
}

fn semantics_of(index: usize) -> RankingSemantics {
    match index % 3 {
        0 => RankingSemantics::Exp,
        1 => RankingSemantics::Tkp { sigma: 2 },
        _ => RankingSemantics::Mpo,
    }
}

/// Asserts that one ranking of `engine` (run by `rank`) searched or reused
/// each pool row exactly once.
fn ranks_each_row_once<T>(
    engine: &mut RecommenderEngine,
    rank: impl FnOnce(&mut RecommenderEngine) -> T,
) -> T {
    let (searches, hits) = (engine.search_stats().searches, engine.discovery_memo_hits());
    let out = rank(engine);
    let ran = engine.search_stats().searches - searches;
    let reused = engine.discovery_memo_hits() - hits;
    assert_eq!(
        ran + reused,
        engine.pool().len(),
        "one search or hit per row"
    );
    out
}

/// Drives one random sequence on a memoized engine with `threads` threads
/// and on its cold twin, checking every step, and returns the steps.
fn drive(
    rows: &[Vec<f64>],
    semantics: usize,
    hidden: &[f64],
    ops: &[usize],
    picks: &[usize],
    seed: u64,
    threads: usize,
) -> Vec<Step> {
    let catalog = Catalog::from_rows(rows.to_vec()).unwrap();
    let build = |threads| {
        RecommenderEngine::builder(catalog.clone(), Profile::cost_quality())
            .max_package_size(2)
            .k(2)
            .num_random(2)
            .num_samples(16)
            .semantics(semantics_of(semantics))
            .num_threads(threads)
            .build()
            .unwrap()
    };
    let mut engine = build(threads);
    let mut cold = build(1);
    let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
    let user = SimulatedUser::new(LinearUtility::new(context, hidden.to_vec()).unwrap());
    let depth = {
        let config = engine.config();
        config.semantics.per_sample_depth(config.k)
    };
    let mut steps = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64) << 8));
        let mut cold_rng = rng.clone();
        // The twin is restored before every operation, so its memo is cold.
        cold = RecommenderEngine::restore(cold.snapshot()).unwrap();

        let shown = ranks_each_row_once(&mut engine, |e| e.present(&mut rng).unwrap());
        assert_eq!(shown, cold.present(&mut cold_rng).unwrap());
        cold = RecommenderEngine::restore(cold.snapshot()).unwrap();

        let (expected, _) = per_sample_rankings_indexed(
            engine.context(),
            engine.catalog(),
            engine.sorted_lists(),
            engine.pool(),
            depth,
            1,
        )
        .unwrap();
        let memoized = ranks_each_row_once(&mut engine, |e| e.per_sample_rankings().unwrap());
        assert_eq!(ranking_bits(&memoized), ranking_bits(&expected));

        let pick = picks[i % picks.len()];
        let feedback = match op {
            0 => Feedback::Click {
                index: user.choose(&catalog, &shown, &mut rng.clone()).unwrap(),
            },
            1 if shown.len() >= 2 => {
                let a = pick % shown.len();
                let b = (a + 1 + pick / shown.len() % (shown.len() - 1)) % shown.len();
                let pair = [shown[a].clone(), shown[b].clone()];
                let first = user.choose(&catalog, &pair, &mut rng.clone()).unwrap() == 0;
                let (preferred, over) = if first { (a, b) } else { (b, a) };
                Feedback::Pairwise { preferred, over }
            }
            _ => Feedback::Skip,
        };
        let absorbed = engine.record_feedback(&shown, feedback, &mut rng);
        let cold_absorbed = cold.record_feedback(&shown, feedback, &mut cold_rng);
        assert_eq!(format!("{absorbed:?}"), format!("{cold_absorbed:?}"));
        if absorbed.is_err() {
            // Both ran out of valid samples identically; nothing more to
            // compare on this sequence.
            break;
        }
        if op == 3 {
            // Mid-sequence snapshot → restore: the memoized engine resumes
            // with a cold memo and must stay on the cold twin's trajectory.
            let snapshot = engine.snapshot();
            engine = RecommenderEngine::restore(snapshot.clone()).unwrap();
            engine.set_num_threads(threads).unwrap();
            assert_eq!(engine.snapshot(), snapshot);
            assert_eq!(engine.discovery_memo_hits(), 0);
        }
        cold = RecommenderEngine::restore(cold.snapshot()).unwrap();

        let recommended = ranks_each_row_once(&mut engine, |e| e.recommend(&mut rng).unwrap());
        assert_eq!(
            ranked_bits(&recommended),
            ranked_bits(&cold.recommend(&mut cold_rng).unwrap())
        );
        let snapshot = serde_json::to_string(&engine.snapshot()).unwrap();
        assert_eq!(snapshot, serde_json::to_string(&cold.snapshot()).unwrap());
        steps.push(Step {
            shown,
            recommended: ranked_bits(&recommended),
            snapshot,
            searches: engine.search_stats().searches,
            memo_hits: engine.discovery_memo_hits(),
        });
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The memoized engine is indistinguishable from the memo-free path at
    /// every step, and its outcomes and counters do not depend on the
    /// thread budget.
    #[test]
    fn memoized_engine_matches_the_memo_free_path(
        rows in prop::collection::vec(prop::collection::vec(0.05f64..1.0, 2), 5..12),
        semantics in 0usize..3,
        w0 in -1.0f64..1.0,
        w1 in -1.0f64..1.0,
        ops in prop::collection::vec(0usize..4, 1..8),
        picks in prop::collection::vec(0usize..64, 8),
        seed in 0u64..10_000,
    ) {
        let serial = drive(&rows, semantics, &[w0, w1], &ops, &picks, seed, 1);
        for threads in [2, 4] {
            let threaded = drive(&rows, semantics, &[w0, w1], &ops, &picks, seed, threads);
            prop_assert_eq!(&threaded, &serial);
        }
    }
}

/// A recommend that follows a present on an unchanged pool searches nothing,
/// and the memo is process-local: a clone carries it, a restore starts cold.
#[test]
fn unchanged_pool_is_served_from_the_memo_and_clones_keep_it() {
    let catalog = Catalog::from_rows(vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
        vec![0.3, 0.7],
        vec![0.7, 0.1],
    ])
    .unwrap();
    let mut engine = RecommenderEngine::builder(catalog, Profile::cost_quality())
        .max_package_size(2)
        .k(2)
        .num_samples(30)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    engine.present(&mut rng).unwrap();
    assert_eq!(engine.search_stats().searches, 30);
    let mut clone = engine.clone();
    let mut restored = RecommenderEngine::restore(engine.snapshot()).unwrap();
    let expected = engine.recommend(&mut rng.clone()).unwrap();
    assert_eq!(engine.search_stats().searches, 30);
    assert_eq!(engine.discovery_memo_hits(), 30);

    assert_eq!(clone.recommend(&mut rng.clone()).unwrap(), expected);
    assert_eq!(clone.search_stats().searches, 30);
    assert_eq!(clone.discovery_memo_hits(), 30);

    assert_eq!(restored.recommend(&mut rng.clone()).unwrap(), expected);
    assert_eq!(restored.search_stats().searches, 30);
    assert_eq!(restored.discovery_memo_hits(), 0);
}
