//! Per-layer measurements of the traced run, taken by timing calls into
//! each layer's public functions from here: a twin engine per engine
//! session, timed replays against fresh stores and servers, and one-off
//! probes of the skyline and the frame codec.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use pkgrec_baselines::{skyline_packages, FeatureDirection};
use pkgrec_core::{
    score_batch, top_k_packages_with_scratch, AggregatedSearchStats, CandidateMatrix, CoreError,
    Feedback, LinearUtility, Package, RecommenderEngine, Result, SearchScratch,
};
use pkgrec_serve::{op_rng, RecommenderSpec, SessionStore};
use pkgrec_server::protocol::encode_frame;
use pkgrec_server::{Request, Response};

use crate::drive::{DriveLog, OpRecord, Output, Target, Verb};
use crate::fleet::{Fleet, Kind};
use crate::stats::ratio;

/// What the twin engines measured.
#[derive(Debug, Clone, Default)]
pub struct EngineLayer {
    /// Summed twin op time by verb, ns, and op counts.
    pub ns: BTreeMap<Verb, (u64, u64)>,
    /// Summed per-sample `Top-k-Pkg` time over the pool rows, ns.
    pub discovery_ns: u64,
    /// Summed `score_batch` time over discovered candidates × pool, ns.
    pub kernel_ns: u64,
    /// Twin search counters.
    pub search: AggregatedSearchStats,
    /// Pool rows the twins' incremental resampling kept.
    pub samples_reused: usize,
    /// Pool rows held at each present, summed.
    pub samples_held: usize,
    /// Twin answers that differed from the store's.
    pub mismatches: usize,
}

impl EngineLayer {
    /// Mean twin time of `verb`, µs.
    pub fn mean_us(&self, verb: Verb) -> f64 {
        self.ns
            .get(&verb)
            .map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64) / 1e3)
    }

    /// Mean discovery (or kernel) time per present, µs.
    pub fn per_present_us(&self, ns: u64) -> f64 {
        let presents = self.ns.get(&Verb::Present).map_or(0, |&(_, n)| n);
        ratio(ns as f64, presents as f64) / 1e3
    }
}

/// A `RecommenderEngine` built from a session's `EngineConfig` and driven
/// with the store's `(seed, ops)` streams.
struct Twin {
    engine: RecommenderEngine,
    seed: u64,
    ops: u64,
    shown: Vec<Package>,
}

/// Replays the engine sessions' ops of `log` on twin engines, timing each
/// call, probing discovery and the kernel after each present, and checking
/// every answer against the store's.
pub fn engine_twins(fleet: &Fleet, log: &DriveLog) -> Result<EngineLayer> {
    let mut layer = EngineLayer::default();
    let mut twins: HashMap<u64, Twin> = HashMap::new();
    for op in log.ops.iter().filter(|op| op.ok && op.kind == Kind::Engine) {
        if op.verb == Verb::Create {
            let plan = fleet.session(op.session)?;
            let RecommenderSpec::Engine(config) = &plan.config.spec else {
                return Err(CoreError::InvalidConfig(
                    "engine session without engine spec".into(),
                ));
            };
            let engine = RecommenderEngine::builder(
                plan.config.catalog.as_ref().clone(),
                plan.config.profile.clone(),
            )
            .max_package_size(plan.config.max_package_size)
            .config(config.clone())
            .build()?;
            twins.insert(
                op.session,
                Twin {
                    engine,
                    seed: plan.config.seed,
                    ops: 0,
                    shown: Vec::new(),
                },
            );
            continue;
        }
        let Some(twin) = twins.get_mut(&op.session) else {
            layer.mismatches += 1;
            continue;
        };
        let mut rng = op_rng(twin.seed, twin.ops);
        twin.ops += 1;
        let clock = Instant::now();
        let answer = match op.verb {
            Verb::Present => twin.engine.present(&mut rng).map(Output::Shown),
            Verb::Feedback => twin
                .engine
                .record_feedback(&twin.shown, op.feedback.unwrap_or(Feedback::Skip), &mut rng)
                .map(|_| Output::Unchecked),
            Verb::Recommend => twin.engine.recommend(&mut rng).map(Output::Ranked),
            Verb::Create => unreachable!("handled above"),
        };
        let ns = clock.elapsed().as_nanos() as u64;
        let slot = layer.ns.entry(op.verb).or_default();
        slot.0 += ns;
        slot.1 += 1;
        let answer = answer?;
        if answer != op.output {
            layer.mismatches += 1;
        }
        if let Output::Shown(shown) = answer {
            twin.shown = shown;
            probe_discovery(&twin.engine, &mut layer)?;
        }
    }
    for twin in twins.values() {
        layer.search.merge(&twin.engine.search_stats());
        layer.samples_reused += twin.engine.samples_reused();
    }
    Ok(layer)
}

/// Times `Top-k-Pkg` over every pool row, then the kernel over the
/// discovered candidates × the pool — the two halves of a present.
fn probe_discovery(engine: &RecommenderEngine, layer: &mut EngineLayer) -> Result<()> {
    let context = engine.context();
    let config = engine.config();
    let depth = config.semantics.per_sample_depth(config.k);
    let clock = Instant::now();
    // One utility and one scratch for every row, as the engine's own
    // discovery does (`top_k_packages_with_lists` with caller-owned memory).
    let mut utility = LinearUtility::new(context.clone(), vec![0.0; context.dim()])?;
    let mut scratch = SearchScratch::new();
    let mut found: Vec<Package> = Vec::new();
    for sample in engine.pool().samples() {
        utility.set_weights(sample.weights)?;
        let result = top_k_packages_with_scratch(
            &utility,
            engine.catalog(),
            engine.sorted_lists(),
            depth,
            &mut scratch,
        )?;
        found.extend(result.into_packages());
    }
    layer.discovery_ns += clock.elapsed().as_nanos() as u64;
    found.sort_unstable();
    found.dedup();
    let mut candidates = CandidateMatrix::new(context.dim());
    for package in &found {
        candidates.push_row(&context.package_vector(engine.catalog(), package)?);
    }
    let clock = Instant::now();
    black_box(score_batch(&candidates, engine.pool().weight_matrix()));
    layer.kernel_ns += clock.elapsed().as_nanos() as u64;
    layer.samples_held += engine.pool().len();
    Ok(())
}

/// Per-verb times of a replay against some target.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Summed call time, summed explicit-restore time (ns) and op count,
    /// by verb.
    pub ns: BTreeMap<Verb, (u64, u64, u64)>,
    /// Answers that differed from the recorded ones (or failed).
    pub mismatches: usize,
}

impl Replay {
    /// Mean call time of `verb`, µs.
    pub fn mean_us(&self, verb: Verb) -> f64 {
        self.ns
            .get(&verb)
            .map_or(0.0, |&(ns, _, n)| ratio(ns as f64, n as f64) / 1e3)
    }

    /// Mean call plus restore time of `verb` — the whole store-side cost
    /// of the op — µs.
    pub fn mean_with_restore_us(&self, verb: Verb) -> f64 {
        self.ns.get(&verb).map_or(0.0, |&(ns, restore, n)| {
            ratio((ns + restore) as f64, n as f64) / 1e3
        })
    }

    /// Mean explicit-restore time per op, µs.
    pub fn restore_us(&self) -> f64 {
        let (restore, n) = self
            .ns
            .values()
            .fold((0, 0), |(r, n), &(_, restore, count)| {
                (r + restore, n + count)
            });
        ratio(restore as f64, n as f64) / 1e3
    }
}

/// Replays recorded ops, in order, against each of `targets` (fresh: ids
/// are remapped), timing each call and checking each answer.  Every op goes
/// to every target before the next op, so slow spells of the machine fall
/// on all targets alike.
pub fn replay(
    targets: &mut [&mut dyn Target],
    fleet: &Fleet,
    ops: &[&OpRecord],
) -> Result<Vec<Replay>> {
    let mut out = vec![Replay::default(); targets.len()];
    let mut ids: Vec<HashMap<u64, u64>> = vec![HashMap::new(); targets.len()];
    for op in ops {
        let config = match op.verb {
            Verb::Create => Some(fleet.session(op.session)?.config),
            _ => None,
        };
        for ((target, out), ids) in targets.iter_mut().zip(&mut out).zip(&mut ids) {
            let id = ids.get(&op.session).copied().unwrap_or_default();
            let mut restore_ns = 0;
            if op.verb != Verb::Create {
                let clock = Instant::now();
                let restored = target.restore(id);
                restore_ns = clock.elapsed().as_nanos() as u64;
                if matches!(restored, Some(Err(_))) {
                    out.mismatches += 1;
                }
            }
            let clock = Instant::now();
            let answer = match op.verb {
                Verb::Create => target
                    .create(config.clone().expect("create config"))
                    .map(|new| {
                        ids.insert(op.session, new);
                        Output::Unchecked
                    }),
                Verb::Present => target.present(id).map(Output::Shown),
                Verb::Feedback => target
                    .feedback(id, op.feedback.unwrap_or(Feedback::Skip))
                    .map(|_| Output::Unchecked),
                Verb::Recommend => target.recommend(id).map(Output::Ranked),
            };
            let ns = clock.elapsed().as_nanos() as u64;
            let slot = out.ns.entry(op.verb).or_default();
            slot.0 += ns;
            slot.1 += restore_ns;
            slot.2 += 1;
            if answer.map_or(true, |answer| answer != op.output) {
                out.mismatches += 1;
            }
        }
    }
    Ok(out)
}

/// Mean store-op time of sessions of `kind` (explicit restore included),
/// µs; `None` when the log has no such session.
pub fn kind_op_us(log: &DriveLog, kind: Kind) -> Option<f64> {
    let (ns, n) = log
        .ops
        .iter()
        .filter(|op| op.ok && op.kind == kind)
        .fold((0u64, 0u64), |(ns, n), op| {
            (ns + op.ns + op.restore_ns, n + 1)
        });
    (n > 0).then(|| ratio(ns as f64, n as f64) / 1e3)
}

/// Drives one session of `spec` (create, `rounds` × present + click,
/// recommend) through `store`, returning the mean op time, µs.
pub fn baseline_probe(
    store: &mut SessionStore,
    fleet: &Fleet,
    index: u64,
    spec: RecommenderSpec,
) -> Result<f64> {
    let mut plan = fleet.session(index)?;
    plan.config.spec = spec;
    let mut choices = crate::drive::choice_rng(&plan);
    let clock = Instant::now();
    let id = store.create(plan.config.clone())?;
    for _ in 0..fleet.shape.rounds {
        let shown = store.present(id)?;
        let index = plan.user.choose(&fleet.catalog, &shown, &mut choices)?;
        store.feedback(id, Feedback::Click { index })?;
    }
    store.recommend(id)?;
    let ops = 2 + 2 * fleet.shape.rounds;
    Ok(clock.elapsed().as_secs_f64() * 1e6 / ops as f64)
}

/// One `skyline_packages` call on the workload's catalog, the recipe's
/// cardinality and directions, µs.
pub fn skyline_build_us(fleet: &Fleet) -> Result<f64> {
    let clock = Instant::now();
    black_box(skyline_packages(
        &fleet.context,
        &fleet.catalog,
        2,
        &[FeatureDirection::Minimize, FeatureDirection::Maximize],
    )?);
    Ok(clock.elapsed().as_secs_f64() * 1e6)
}

/// Skyline sessions' creates plus rehydrations in the traced log.
pub fn skyline_builds(log: &DriveLog) -> usize {
    log.ops
        .iter()
        .filter(|op| op.ok && op.kind == Kind::Skyline)
        .filter(|op| op.verb == Verb::Create || op.restored)
        .count()
}

/// Mean encoded request and reply frame sizes of the op stream, bytes.
pub fn frame_bytes(fleet: &Fleet, log: &DriveLog) -> Result<(f64, f64)> {
    let ids: HashMap<u64, u64> = log.ids.iter().copied().collect();
    let (mut request, mut reply, mut n) = (0usize, 0usize, 0usize);
    for op in log.ops.iter().filter(|op| op.ok) {
        let session = ids.get(&op.session).copied().unwrap_or_default();
        let (ask, answer) = match (&op.verb, &op.output) {
            (Verb::Create, _) => (
                Request::Create {
                    config: fleet.session(op.session)?.config,
                },
                Response::Created { session },
            ),
            (Verb::Present, Output::Shown(packages)) => (
                Request::Present { session },
                Response::Presented {
                    packages: packages.clone(),
                },
            ),
            (Verb::Feedback, _) => (
                Request::Feedback {
                    session,
                    feedback: op.feedback.unwrap_or(Feedback::Skip),
                },
                Response::FeedbackRecorded { preferences: 1 },
            ),
            (Verb::Recommend, Output::Ranked(ranked)) => (
                Request::Recommend { session },
                Response::Recommended {
                    ranked: ranked.clone(),
                },
            ),
            _ => continue,
        };
        request += encode_frame(&ask)?.len();
        reply += encode_frame(&answer)?.len();
        n += 1;
    }
    Ok((
        ratio(request as f64, n as f64),
        ratio(reply as f64, n as f64),
    ))
}
