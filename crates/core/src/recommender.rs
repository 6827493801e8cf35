//! The unified, session-oriented recommender surface.
//!
//! Every interactive recommender in the workspace — the paper's
//! sample-maintenance engine ([`RecommenderEngine`]) as well as the baseline
//! adapters in `pkgrec-baselines` — implements the object-safe
//! [`Recommender`] trait, so session drivers such as
//! [`run_elicitation`](crate::elicitation::run_elicitation) and the Figure 8
//! harness can compare them round for round through one generic loop.
//!
//! Feedback is typed: a [`Feedback::Click`] carries the *index* of the chosen
//! package within the shown slice (replacing the old positional
//! `record_click(&Package, &[Package])` call that forced callers to clone a
//! shown package), [`Feedback::Pairwise`] expresses a single comparison, and
//! [`Feedback::Skip`] records a round without preference information.

use std::collections::HashMap;

use pkgrec_topk::SortedLists;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::engine::RecommenderEngine;
use crate::error::{CoreError, Result};
use crate::item::{Catalog, ItemId};
use crate::package::{random_package, Package};
use crate::profile::AggregationContext;
use crate::ranking::{self, PerSampleRanking, RankedPackage};
use crate::sampler::SamplePool;
use crate::scoring::{score_batch_threaded, CandidateMatrix};
use crate::search::{top_k_packages_with_scratch, AggregatedSearchStats, SearchScratch};
use crate::utility::LinearUtility;

/// One round of typed user feedback over the packages a recommender showed.
///
/// All indices refer to positions in the `shown` slice passed alongside the
/// feedback; out-of-range indices are rejected with
/// [`CoreError::InvalidConfig`](crate::error::CoreError).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feedback {
    /// The user clicked the shown package at `index`; every other shown
    /// package becomes less preferred (Section 2.2 of the paper).
    Click {
        /// Index of the clicked package within the shown slice.
        index: usize,
    },
    /// The user expressed a single pairwise comparison between two shown
    /// packages.
    Pairwise {
        /// Index of the preferred package within the shown slice.
        preferred: usize,
        /// Index of the less-preferred package within the shown slice.
        over: usize,
    },
    /// The user skipped the round; no preference is recorded.
    Skip,
}

impl Feedback {
    /// Validates the feedback against the shown slice: every index must be in
    /// range and a pairwise comparison must name two distinct packages.
    /// Implementations of [`Recommender::record_feedback`] should call this
    /// first so all recommenders reject malformed feedback identically.
    pub fn validate(&self, shown: &[Package]) -> Result<()> {
        match self {
            Feedback::Click { index } => {
                shown_package(shown, *index)?;
            }
            Feedback::Pairwise { preferred, over } => {
                if preferred == over {
                    return Err(CoreError::InvalidConfig(
                        "a pairwise preference needs two distinct shown packages".into(),
                    ));
                }
                shown_package(shown, *preferred)?;
                shown_package(shown, *over)?;
            }
            Feedback::Skip => {}
        }
        Ok(())
    }
}

/// Resolves a feedback index against the shown slice, rejecting out-of-range
/// indices with the canonical error message.
pub fn shown_package(shown: &[Package], index: usize) -> Result<&Package> {
    shown.get(index).ok_or_else(|| {
        CoreError::InvalidConfig(format!(
            "feedback index {index} is out of range for {} shown packages",
            shown.len()
        ))
    })
}

/// Computes the per-sample top-k ranking of every sample in a pool — the
/// shared ranking step of the engine and of pool-based baseline adapters —
/// on the calling thread.  See [`per_sample_rankings_threaded`] for the
/// data-parallel variant behind the engine's `num_threads` knob and
/// [`per_sample_rankings_indexed`] for the form that reuses a cached
/// [`SortedLists`] index and surfaces search statistics.
pub fn per_sample_rankings(
    context: &AggregationContext,
    catalog: &Catalog,
    pool: &SamplePool,
    depth: usize,
) -> Result<Vec<PerSampleRanking>> {
    per_sample_rankings_threaded(context, catalog, pool, depth, 1)
}

/// Marks the unused tail of a package's block in [`DiscoveryMemo`] (never a
/// valid item id: a catalog cannot hold `usize::MAX` items).
const NO_ITEM: ItemId = ItemId::MAX;

/// Per-slot memo of candidate discovery across rounds.
///
/// For one pool slot, the `Top-k-Pkg` result is a pure function of the
/// slot's weight row, the catalog, its [`SortedLists`] index, the search
/// depth and the aggregation context — and an engine fixes everything but
/// the row for its whole lifetime.  So the memo keys each slot on the exact
/// bits of the row it last searched ([`f64::to_bits`]): a row that
/// maintenance or resampling replaced (or a slot that is new) differs and is
/// searched again, and an unchanged row reuses its packages.  No pool
/// mutator needs to notify the memo, and it cannot go stale.
///
/// A slot's packages are stored flat, as `depth` blocks of φ item ids each,
/// a package's items followed by [`NO_ITEM`] padding (a block starting with
/// it holds no package), so a resident engine keeps a few bytes per item
/// rather than one allocation per package.
///
/// The memo is process-local working state, like the engine's thread budget:
/// snapshots never carry it, a restored engine starts cold and a cloned
/// engine copies it.  Its buffers are reused in place from round to round.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiscoveryMemo {
    /// Number of slots held.
    slots: usize,
    /// Row dimensionality, search depth and φ the slots were laid out for.
    shape: (usize, usize, usize),
    /// The bits of each slot's weight row (`slots × dim`, row-major): the
    /// exact key its packages were found under.
    keys: Vec<u64>,
    /// Each slot's packages, best first (`slots × depth × φ` item ids).
    items: Vec<ItemId>,
    /// The slots to search this round (empty between rounds; kept for its
    /// capacity).
    misses: Vec<usize>,
}

impl DiscoveryMemo {
    /// Brings every slot up to date with `pool`, searching only the slots
    /// whose row bits changed.  Returns the statistics of the searches
    /// actually run and the number of slots reused without a search.  On a
    /// search error the memo is emptied, so no slot keeps a key whose
    /// packages were never computed.
    fn refresh(
        &mut self,
        context: &AggregationContext,
        catalog: &Catalog,
        lists: &SortedLists,
        pool: &SamplePool,
        depth: usize,
        num_threads: usize,
    ) -> Result<(AggregatedSearchStats, usize)> {
        let (dim, phi) = (pool.dim(), context.max_package_size());
        let stride = depth * phi;
        if self.shape != (dim, depth, phi) {
            self.slots = 0;
            self.shape = (dim, depth, phi);
        }
        let cached = self.slots.min(pool.len());
        self.slots = pool.len();
        self.keys.resize(self.slots * dim, 0);
        self.items.resize(self.slots * stride, NO_ITEM);
        self.misses.clear();
        for slot in 0..self.slots {
            let row = pool.get(slot).weights;
            let key = &mut self.keys[slot * dim..(slot + 1) * dim];
            if slot >= cached || key.iter().zip(row).any(|(k, w)| *k != w.to_bits()) {
                for (k, w) in key.iter_mut().zip(row) {
                    *k = w.to_bits();
                }
                self.misses.push(slot);
            }
        }
        let hits = self.slots - self.misses.len();
        // The threads split the misses, not the slots, so every thread budget
        // runs the same searches and records the same statistics.
        let threads = num_threads.max(1).min(self.misses.len());
        let searched = if self.misses.is_empty() {
            Ok(AggregatedSearchStats::default())
        } else if threads == 1 || stride == 0 {
            // Serial (or nothing to stage): search straight into the slots.
            SlotSearch::new(context, catalog, lists, depth).and_then(|mut search| {
                for &slot in &self.misses {
                    let out = &mut self.items[slot * stride..(slot + 1) * stride];
                    search.run(pool.get(slot).weights, out)?;
                }
                Ok(search.stats)
            })
        } else {
            // Each thread fills its own stretch of a staging buffer, which
            // is then copied into the misses' slots.
            let chunk = self.misses.len().div_ceil(threads);
            let mut staged = vec![NO_ITEM; self.misses.len() * stride];
            let searched = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .misses
                    .chunks(chunk)
                    .zip(staged.chunks_mut(chunk * stride))
                    .map(|(misses, staged)| {
                        scope.spawn(move || {
                            let mut search = SlotSearch::new(context, catalog, lists, depth)?;
                            for (&slot, out) in misses.iter().zip(staged.chunks_exact_mut(stride)) {
                                search.run(pool.get(slot).weights, out)?;
                            }
                            Ok(search.stats)
                        })
                    })
                    .collect();
                handles.into_iter().try_fold(
                    AggregatedSearchStats::default(),
                    |mut stats, handle| {
                        let chunk: Result<AggregatedSearchStats> =
                            handle.join().expect("discovery thread does not panic");
                        stats.merge(&chunk?);
                        Ok(stats)
                    },
                )
            });
            for (&slot, block) in self.misses.iter().zip(staged.chunks_exact(stride)) {
                self.items[slot * stride..(slot + 1) * stride].copy_from_slice(block);
            }
            searched
        };
        self.misses.clear();
        if searched.is_err() {
            self.slots = 0;
        }
        searched.map(|stats| (stats, hits))
    }

    /// Slot `slot`'s packages, best first, as item slices.
    fn packages(&self, slot: usize) -> impl Iterator<Item = &[ItemId]> + '_ {
        let (_, depth, phi) = self.shape;
        self.items[slot * depth * phi..(slot + 1) * depth * phi]
            .chunks_exact(phi)
            .map(move |block| &block[..block.iter().position(|&i| i == NO_ITEM).unwrap_or(phi)])
            .take_while(|items| !items.is_empty())
    }
}

/// One thread's `Top-k-Pkg` runner: a utility and a [`SearchScratch`] reused
/// across every slot it searches, plus the runs' aggregated statistics.
struct SlotSearch<'a> {
    catalog: &'a Catalog,
    lists: &'a SortedLists,
    depth: usize,
    utility: LinearUtility,
    scratch: SearchScratch,
    stats: AggregatedSearchStats,
}

impl<'a> SlotSearch<'a> {
    fn new(
        context: &AggregationContext,
        catalog: &'a Catalog,
        lists: &'a SortedLists,
        depth: usize,
    ) -> Result<Self> {
        Ok(SlotSearch {
            catalog,
            lists,
            depth,
            utility: LinearUtility::new(context.clone(), vec![0.0; context.dim()])?,
            scratch: SearchScratch::new(),
            stats: AggregatedSearchStats::default(),
        })
    }

    /// Searches under `weights` and writes the packages into `out`, one
    /// φ-item block per package, padded with [`NO_ITEM`].
    fn run(&mut self, weights: &[f64], out: &mut [ItemId]) -> Result<()> {
        self.utility.set_weights(weights)?;
        let result = top_k_packages_with_scratch(
            &self.utility,
            self.catalog,
            self.lists,
            self.depth,
            &mut self.scratch,
        )?;
        self.stats.record(&result.stats);
        out.fill(NO_ITEM);
        let phi = self.utility.max_package_size();
        for (block, (package, _)) in out.chunks_exact_mut(phi).zip(&result.packages) {
            block[..package.len()].copy_from_slice(package.items());
        }
        Ok(())
    }
}

/// One round of candidate discovery over a pool.
pub(crate) struct Discovery {
    /// The deduplicated union of every slot's packages, in first-seen order.
    candidates: Vec<Package>,
    /// The candidates' feature vectors, one row each.
    vectors: CandidateMatrix,
    /// Per slot, its packages (best first) as indices into `candidates`.
    per_sample: Vec<Vec<usize>>,
    /// Statistics of the searches actually run.
    stats: AggregatedSearchStats,
    /// Slots whose packages came from the memo without a search.
    memo_hits: usize,
}

/// Discovers every slot's candidate packages (`Top-k-Pkg` over the shared
/// sorted-lists index), searching only the slots `memo` does not already
/// hold for their current row, and collects, per slot, the discovered
/// packages as indices into a deduplicated candidate list whose feature
/// vectors accumulate in one flat [`CandidateMatrix`].
pub(crate) fn discover_candidates(
    memo: &mut DiscoveryMemo,
    context: &AggregationContext,
    catalog: &Catalog,
    lists: &SortedLists,
    pool: &SamplePool,
    depth: usize,
    num_threads: usize,
) -> Result<Discovery> {
    let (stats, memo_hits) = memo.refresh(context, catalog, lists, pool, depth, num_threads)?;
    // Deduplicate the union of discovered packages into the flat candidate
    // matrix; each slot's list becomes indices into it.
    let mut candidates: Vec<Package> = Vec::new();
    let mut vectors = CandidateMatrix::new(context.dim());
    let mut index_of: HashMap<&[ItemId], usize> = HashMap::new();
    let mut per_sample = Vec::with_capacity(pool.len());
    for slot in 0..pool.len() {
        let mut indices = Vec::with_capacity(depth);
        for items in memo.packages(slot) {
            let index = match index_of.get(items) {
                Some(&i) => i,
                None => {
                    let i = candidates.len();
                    let package = Package::new(items.to_vec())?;
                    vectors.push_row(&context.package_vector(catalog, &package)?);
                    index_of.insert(items, i);
                    candidates.push(package);
                    i
                }
            };
            indices.push(index);
        }
        per_sample.push(indices);
    }
    Ok(Discovery {
        candidates,
        vectors,
        per_sample,
        stats,
        memo_hits,
    })
}

/// [`per_sample_rankings`] with the scoring stack split across up to
/// `num_threads` OS threads ([`std::thread::scope`]; no thread pool, no
/// external dependencies): both the per-sample candidate discovery and the
/// batched kernel partition their work, and `num_threads = 1` — the
/// [`EngineBuilder`](crate::builder::EngineBuilder) default — stays entirely
/// on the calling thread.
///
/// The computation is batch-at-a-time rather than row-at-a-time: each
/// sample's `Top-k-Pkg` search *discovers* its candidate packages, the union
/// of discovered candidates is scored against the whole pool in one
/// [`crate::scoring::score_batch`] call, and the per-sample lists are
/// materialised from the resulting score matrix.  Scoring the full
/// `union × pool` matrix computes more entries than the per-sample lists
/// read back; that is a deliberate trade — the kernel's contiguous sweep is
/// a vanishing fraction of the discovery cost even at fig8 scale, and the
/// full matrix is what downstream batch reductions (expectations, argmax)
/// consume without re-touching the pool.
pub fn per_sample_rankings_threaded(
    context: &AggregationContext,
    catalog: &Catalog,
    pool: &SamplePool,
    depth: usize,
    num_threads: usize,
) -> Result<Vec<PerSampleRanking>> {
    let lists = SortedLists::new(catalog.rows());
    per_sample_rankings_indexed(context, catalog, &lists, pool, depth, num_threads)
        .map(|(rankings, _)| rankings)
}

/// The fully-equipped ranking step: [`per_sample_rankings_threaded`] over a
/// prebuilt, catalog-cached [`SortedLists`] index (the per-feature item order
/// is weight-independent, so one index serves every sample of every round),
/// returning the per-sample rankings together with the aggregated search
/// statistics of all the `Top-k-Pkg` runs.  Every call searches every pool
/// row; the pool-based baselines and the Figure 6 harness call this form,
/// and the wrappers above rebuild the index per call for one-shot callers.
pub fn per_sample_rankings_indexed(
    context: &AggregationContext,
    catalog: &Catalog,
    lists: &SortedLists,
    pool: &SamplePool,
    depth: usize,
    num_threads: usize,
) -> Result<(Vec<PerSampleRanking>, AggregatedSearchStats)> {
    let mut memo = DiscoveryMemo::default();
    per_sample_rankings_memoized(&mut memo, context, catalog, lists, pool, depth, num_threads)
        .map(|(rankings, stats, _)| (rankings, stats))
}

/// [`per_sample_rankings_indexed`] over a discovery memo: only the rows the
/// memo does not already hold are searched, the kernel and the readback run
/// as ever.  Returns the rankings, the statistics of the searches actually
/// run and the number of rows served from the memo.
pub(crate) fn per_sample_rankings_memoized(
    memo: &mut DiscoveryMemo,
    context: &AggregationContext,
    catalog: &Catalog,
    lists: &SortedLists,
    pool: &SamplePool,
    depth: usize,
    num_threads: usize,
) -> Result<(Vec<PerSampleRanking>, AggregatedSearchStats, usize)> {
    if pool.is_empty() {
        return Ok((Vec::new(), AggregatedSearchStats::default(), 0));
    }
    let discovery = discover_candidates(memo, context, catalog, lists, pool, depth, num_threads)?;
    let scores = score_batch_threaded(&discovery.vectors, pool.weight_matrix(), num_threads);
    Ok((
        ranking::per_sample_rankings_from_scores(
            &discovery.candidates,
            &scores,
            pool.importances(),
            &discovery.per_sample,
        ),
        discovery.stats,
        discovery.memo_hits,
    ))
}

/// Extends a presentation list with random exploration packages until it
/// reaches `target` entries (de-duplicated, bounded number of attempts) —
/// the Section 2.2 exploration step shared by `present` implementations.
pub fn extend_with_random_packages(
    shown: &mut Vec<Package>,
    target: usize,
    catalog_len: usize,
    max_package_size: usize,
    rng: &mut dyn RngCore,
) {
    let phi = max_package_size.min(catalog_len);
    let mut guard = 0;
    while shown.len() < target && guard < 1000 {
        guard += 1;
        let candidate = random_package(catalog_len, phi, rng);
        if !shown.contains(&candidate) {
            shown.push(candidate);
        }
    }
}

/// A cheap, serialisable summary of a recommender session's progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommenderState {
    /// Human-readable label of the recommender ("engine", "em-refit", …).
    pub label: String,
    /// Number of packages recommended per round.
    pub k: usize,
    /// Number of pairwise preferences recorded so far.
    pub preferences: usize,
    /// Current size of the weight-sample pool (0 for pool-free baselines).
    pub pool_size: usize,
    /// Number of feedback rounds recorded so far (including skips).
    pub rounds: usize,
    /// Aggregated `Top-k-Pkg` statistics across the session so far (all zero
    /// for recommenders that never run the package search).
    pub search: AggregatedSearchStats,
}

/// An interactive, session-oriented package recommender.
///
/// The trait is object-safe: session drivers take `&mut dyn Recommender`, so
/// the elicitation engine and every baseline are drop-in comparators.
pub trait Recommender {
    /// The catalog the recommender draws packages from.
    fn catalog(&self) -> &Catalog;

    /// Builds the presentation list of one round (recommended packages first,
    /// optionally followed by exploration packages).
    fn present(&mut self, rng: &mut dyn RngCore) -> Result<Vec<Package>>;

    /// Records one round of typed feedback against the packages returned by
    /// the matching [`Recommender::present`] call.  Returns the number of new
    /// pairwise preferences absorbed.
    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        rng: &mut dyn RngCore,
    ) -> Result<usize>;

    /// The current top-k recommendation.
    fn recommend(&mut self, rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>>;

    /// A summary of the session's progress.
    fn state(&self) -> RecommenderState;
}

impl Recommender for RecommenderEngine {
    fn catalog(&self) -> &Catalog {
        RecommenderEngine::catalog(self)
    }

    fn present(&mut self, rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        RecommenderEngine::present(self, rng)
    }

    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        RecommenderEngine::record_feedback(self, shown, feedback, rng)
    }

    fn recommend(&mut self, rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        RecommenderEngine::recommend(self, rng)
    }

    fn state(&self) -> RecommenderState {
        RecommenderState {
            label: "engine".to_string(),
            k: self.config().k,
            preferences: self.preferences().len(),
            pool_size: self.pool().len(),
            rounds: self.rounds(),
            search: self.search_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> RecommenderEngine {
        let catalog = Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
        ])
        .unwrap();
        RecommenderEngine::builder(catalog, Profile::cost_quality())
            .max_package_size(2)
            .k(2)
            .num_random(2)
            .num_samples(30)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_drives_through_the_trait_object() {
        let mut engine = engine();
        let recommender: &mut dyn Recommender = &mut engine;
        let mut rng = StdRng::seed_from_u64(3);
        let shown = recommender.present(&mut rng).unwrap();
        assert_eq!(shown.len(), 4);
        let added = recommender
            .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
            .unwrap();
        assert_eq!(added, shown.len() - 1);
        let recs = recommender.recommend(&mut rng).unwrap();
        assert_eq!(recs.len(), 2);
        let state = recommender.state();
        assert_eq!(state.label, "engine");
        assert_eq!(state.k, 2);
        assert_eq!(state.preferences, added);
        assert_eq!(state.rounds, 1);
        assert_eq!(state.pool_size, 30);
        assert_eq!(recommender.catalog().len(), 5);
    }

    #[test]
    fn threaded_rankings_match_the_serial_path() {
        use crate::sampler::{SamplerKind, WeightSampler};
        use pkgrec_gmm::GaussianMixture;

        let engine = engine();
        let prior = GaussianMixture::default_prior(2, 1, 0.5).unwrap();
        let checker = crate::constraints::ConstraintChecker::full(
            &crate::preferences::PreferenceStore::new(),
            2,
        );
        let mut rng = StdRng::seed_from_u64(17);
        let pool = SamplerKind::mcmc()
            .generate(&prior, &checker, 60, &mut rng)
            .unwrap()
            .pool;
        let serial = per_sample_rankings(engine.context(), engine.catalog(), &pool, 3).unwrap();
        for threads in [2, 4] {
            let parallel =
                per_sample_rankings_threaded(engine.context(), engine.catalog(), &pool, 3, threads)
                    .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
        assert!(
            per_sample_rankings(engine.context(), engine.catalog(), &SamplePool::new(), 3)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn memo_searches_exactly_the_slots_whose_row_bits_changed() {
        use crate::sampler::{SamplerKind, WeightSampler};
        use pkgrec_gmm::GaussianMixture;

        let engine = engine();
        let (context, catalog) = (engine.context(), engine.catalog());
        let lists = SortedLists::new(catalog.rows());
        let prior = GaussianMixture::default_prior(2, 1, 0.5).unwrap();
        let checker = crate::constraints::ConstraintChecker::full(
            &crate::preferences::PreferenceStore::new(),
            2,
        );
        let mut rng = StdRng::seed_from_u64(23);
        let mut pool = SamplerKind::mcmc()
            .generate(&prior, &checker, 20, &mut rng)
            .unwrap()
            .pool;
        let mut memo = DiscoveryMemo::default();
        // Each step must rank exactly as the memo-free path does, running
        // `searches` searches and reusing the other slots.
        let step = |memo: &mut DiscoveryMemo, pool: &SamplePool, searches: usize| {
            let (rankings, stats, hits) =
                per_sample_rankings_memoized(memo, context, catalog, &lists, pool, 3, 1).unwrap();
            let (uncached, _) =
                per_sample_rankings_indexed(context, catalog, &lists, pool, 3, 1).unwrap();
            assert_eq!(rankings, uncached);
            assert_eq!((stats.searches, hits), (searches, pool.len() - searches));
        };
        step(&mut memo, &pool, 20);
        step(&mut memo, &pool, 0);

        // Rewriting a slot with identical bits (even with a new importance)
        // hits; rewriting one with different bits misses.
        let same = pool.get(3).weights.to_vec();
        pool.set_sample(3, &same, 0.25);
        let other = pool.get(0).weights.to_vec();
        pool.set_sample(5, &other, 1.0);
        step(&mut memo, &pool, 1);

        // Bits, not values, and every coordinate: -0.0 == 0.0 in the last
        // coordinate, yet the rewritten slot misses.
        pool.set_sample(7, &[0.5, 0.0], 1.0);
        step(&mut memo, &pool, 1);
        pool.set_sample(7, &[0.5, -0.0], 1.0);
        step(&mut memo, &pool, 1);

        // Slots appended after a shrink are new, even with old contents.
        let tail = pool.get(19).weights.to_vec();
        let mut shrunk = SamplePool::new();
        for sample in pool.samples().take(10) {
            shrunk.push_sample(sample.weights, sample.importance);
        }
        step(&mut memo, &shrunk, 0);
        shrunk.push_sample(&tail, 1.0);
        step(&mut memo, &shrunk, 1);

        // A failed search empties the memo, so nothing stale survives it.
        let mut broken = shrunk.clone();
        broken.set_sample(2, &[f64::NAN, 0.5], 1.0);
        assert!(
            per_sample_rankings_memoized(&mut memo, context, catalog, &lists, &broken, 3, 1)
                .is_err()
        );
        step(&mut memo, &shrunk, 11);
    }

    #[test]
    fn feedback_serde_round_trips() {
        for feedback in [
            Feedback::Click { index: 3 },
            Feedback::Pairwise {
                preferred: 1,
                over: 4,
            },
            Feedback::Skip,
        ] {
            let json = serde_json::to_string(&feedback).unwrap();
            assert_eq!(serde_json::from_str::<Feedback>(&json).unwrap(), feedback);
        }
    }
}
