//! One benchmark run: set-up, the timed window, then the checks and (for a
//! traced run) the per-layer measurements.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pkgrec_core::Result;
use pkgrec_serve::{SessionStore, StoreConfig};

use crate::check::{self, Counters};
use crate::drive::{DriveLog, Verb};
use crate::fleet::{Fleet, Kind, Workload};
use crate::host;
use crate::layers;
use crate::stats::{cpu_ticks, mean, median, peak_rss_mb, percentile, ratio, tail};
use crate::system::{segment_bytes, System};
use crate::trace::{breakdown, Tracer, ADDITIVITY_SHARE, ADDITIVITY_TOLERANCE};

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 9;

/// Host-speed samples taken just before each set-up.
const SETUP_HOST_SAMPLES: usize = 3;

/// Timed windows one end-to-end run may take.  A window is retaken only
/// while the windows so far took less than `--seconds` in all, so a long
/// steal episode costs at most about two caps.
const MAX_WINDOWS: usize = 3;

/// Stolen share of the machine's CPU ticks above which a timed window is
/// taken again.  Windows with 0.5–4% stolen ran at the quiet-host rate;
/// with 8–18% stolen the wire workload ran up to 2× slower.
const STEAL_LIMIT: f64 = 0.05;

/// Sessions of the fleet prefix the wire probe replays.
const WIRE_PROBE_SESSIONS: u64 = 64;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Cap on the timed window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for stores and span dumps.
    pub out: PathBuf,
}

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Ops attempted (timed ops plus post-run recommends of reopened stores).
    pub attempted: u64,
    /// Ops that failed or answered differently from the reference.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Run details printed beside the result: sample counts, counters,
    /// digest, check outcomes.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.detail.push((key.to_string(), value.to_string()));
    }
}

/// A system ready for its first timed op.
struct SetUp {
    fleet: Fleet,
    system: System,
    /// Wall time of the set-up, s.
    secs: f64,
    /// Host-speed samples taken just before it, ns.
    host_ns: Vec<u64>,
    /// Counter block of the warm-up drive; every set-up of a run must
    /// give the same one.
    warm_up: String,
}

/// Opens the system once: catalog, fleet, store (and server), warm-up.
fn set_up(options: &Options, attempt: usize) -> Result<SetUp> {
    let host_ns = (0..SETUP_HOST_SAMPLES).map(|_| host::sample()).collect();
    let clock = Instant::now();
    let fleet = Fleet::new(options.workload, options.seed)?;
    let dir = fleet.shape.durable.then(|| {
        options.out.join(format!(
            "store-{}-{}-{attempt}",
            options.workload.name(),
            std::process::id()
        ))
    });
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut system = System::open(&fleet, dir)?;
    let warm_up = system.warm_up(&fleet)?;
    let secs = clock.elapsed().as_secs_f64();
    let mut reference = check::reference_replay(&fleet, &warm_up)?;
    let block = Counters {
        store: system.store_stats()?,
        search: reference.search_stats(&fleet, None)?,
        digest: check::result_digest(&warm_up)?,
        ..Counters::default()
    };
    Ok(SetUp {
        fleet,
        system,
        secs,
        host_ns,
        warm_up: block.to_json(),
    })
}

/// Stops a system and removes its store directory.
fn tear_down(system: System) -> Result<()> {
    let dir = system.dir.clone();
    drop(system.stop()?);
    remove_dir(dir.as_deref());
    Ok(())
}

fn remove_dir(dir: Option<&Path>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every set-up of a run: wall times, s, the host-speed samples taken
/// before them and their warm-up counter blocks.
#[derive(Default)]
struct SetUps {
    secs: Vec<f64>,
    host_ns: Vec<u64>,
    warm_ups: Vec<String>,
}

impl SetUps {
    fn record(&mut self, done: &SetUp) {
        self.secs.push(done.secs);
        self.host_ns.extend(&done.host_ns);
        self.warm_ups.push(done.warm_up.clone());
    }
}

/// Sets up [`SETUPS`] times, keeping the last system.
fn set_ups(options: &Options) -> Result<(SetUp, SetUps)> {
    let mut all = SetUps::default();
    for attempt in 0..SETUPS - 1 {
        let done = set_up(options, attempt)?;
        all.record(&done);
        tear_down(done.system)?;
    }
    let last = set_up(options, SETUPS - 1)?;
    all.record(&last);
    Ok((last, all))
}

/// Whether every block is the same.
fn all_same(blocks: &[String]) -> bool {
    blocks.windows(2).all(|pair| pair[0] == pair[1])
}

/// Sorted caller-side latencies of `verb`'s successful ops, ms, at the
/// reference host speed or as measured (`raw`).
fn latencies_ms(log: &DriveLog, verb: Verb, raw: bool) -> Vec<f64> {
    let mut samples: Vec<f64> = log
        .ops
        .iter()
        .filter(|op| op.ok && op.verb == verb)
        .map(|op| op.ns as f64 / 1e6 * if raw { 1.0 } else { op.scale })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples
}

fn sessions_per_s(log: &DriveLog) -> f64 {
    ratio(log.completed as f64, log.elapsed.as_secs_f64())
}

/// [`sessions_per_s`] at the reference host speed.
fn scaled_sessions_per_s(log: &DriveLog) -> f64 {
    ratio(log.completed as f64, log.scaled_elapsed_s)
}

/// One timed window: the fleet's fixed work driven untraced.
struct Window {
    log: DriveLog,
    system: System,
    /// Segment bytes before the window (durable stores).
    bytes_before: u64,
    /// Machine-wide share of CPU ticks the hypervisor stole meanwhile.
    steal: f64,
}

fn timed_window(options: &Options, fleet: &Fleet, mut system: System) -> Result<Window> {
    let bytes_before = system
        .dir
        .as_deref()
        .map(segment_bytes)
        .transpose()?
        .unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs(options.seconds);
    let (stolen_before, ticks_before) = cpu_ticks();
    let (log, _) = system.drive(fleet, 0..fleet.shape.sessions as u64, deadline, None)?;
    let (stolen_after, ticks_after) = cpu_ticks();
    Ok(Window {
        log,
        system,
        bytes_before,
        steal: ratio(
            stolen_after.saturating_sub(stolen_before) as f64,
            ticks_after.saturating_sub(ticks_before) as f64,
        ),
    })
}

/// The end-to-end run: every metric a user sees, from an untraced drive.
/// Times and rates are put at the reference host speed ([`host`]): each
/// op's latency, and each stretch of the window, by the host-speed samples
/// around it; `setup_s` by the samples taken before the set-ups.  The raw
/// figures are in the details.
///
/// A window during which the hypervisor stole more than [`STEAL_LIMIT`] of
/// the machine's CPU ticks measured the host, not the program: it is taken
/// again on a fresh set-up, up to [`MAX_WINDOWS`] windows and while the
/// windows so far took less than `--seconds`; the last one counts.
pub fn end_to_end(options: &Options) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (first, mut setups) = set_ups(options)?;
    let shape = first.fleet.shape;
    let fleet = first.fleet;
    let mut window = timed_window(options, &fleet, first.system)?;
    // Read before any second window: memory a torn-down system leaves with
    // the allocator would count twice.  Stolen CPU does not change memory.
    let rss = peak_rss_mb();
    let mut steals = vec![window.steal];
    let mut spent = window.log.elapsed;
    while window.steal > STEAL_LIMIT
        && steals.len() < MAX_WINDOWS
        && spent < Duration::from_secs(options.seconds)
    {
        tear_down(window.system)?;
        let again = set_up(options, SETUPS + steals.len())?;
        setups.warm_ups.push(again.warm_up);
        window = timed_window(options, &fleet, again.system)?;
        steals.push(window.steal);
        spent += window.log.elapsed;
    }
    let (log, system, bytes_before) = (window.log, window.system, window.bytes_before);
    let dir = system.dir.clone();

    let stopped = system.stop()?;
    let disk_bytes = match dir.as_deref() {
        Some(dir) => segment_bytes(dir)?.saturating_sub(bytes_before),
        None => check::encoded_journal_bytes(&stopped.store, &log)?.0,
    };
    let mut reference = check::reference_replay(&fleet, &log)?;
    let counters = Counters {
        store: stopped.store.stats(),
        search: reference.search_stats(&fleet, None)?,
        samples_reused: None,
        serve: stopped.serve,
        retries: stopped.retries,
        digest: check::result_digest(&log)?,
    };
    let reopen = match dir.as_deref() {
        Some(dir) => Some(check::reopen_check(
            &shape,
            dir,
            stopped.store,
            &log,
            &mut reference,
        )?),
        None => None,
    };
    remove_dir(dir.as_deref());
    let precision = check::precision(&fleet, &log)?;

    let failed_ops = log.ops.iter().filter(|op| !op.ok).count();
    let reopen_mismatches = reopen.map_or(0, |r| r.mismatches);
    out.attempted = (log.ops.len() + reopen.map_or(0, |r| r.checked)) as u64;
    out.failed = (failed_ops + reference.mismatches + reopen_mismatches) as u64;
    let repeat = all_same(&setups.warm_ups);
    out.correct = out.failed == 0 && repeat;

    let setup_scale = host::scale(&setups.host_ns);
    let setup_s = median(&setups.secs);
    out.metric("sessions_per_s", scaled_sessions_per_s(&log), "1/s");
    // Per verb: median and tail, each at the reference speed and raw.
    let verb_ms = |verb: Verb, p: f64, raw: bool| tail(&latencies_ms(&log, verb, raw), p);
    let latencies = [
        ("present_p50_ms", Verb::Present, 50.0),
        ("present_p99_ms", Verb::Present, 99.0),
        ("feedback_p50_ms", Verb::Feedback, 50.0),
        ("feedback_p99_ms", Verb::Feedback, 99.0),
        ("recommend_p50_ms", Verb::Recommend, 50.0),
    ];
    for (name, verb, p) in latencies {
        out.metric(name, verb_ms(verb, p, false).0, "ms");
    }
    out.metric("setup_s", setup_s * setup_scale, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric(
        "disk_bytes_per_session",
        ratio(disk_bytes as f64, log.completed as f64),
        "B",
    );
    out.metric("precision", precision, "ratio");
    out.metric(
        "ok_share",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    out.note("sessions", log.completed);
    out.note("available_parallelism", available_parallelism());
    out.note("elapsed_s", log.elapsed.as_secs_f64());
    out.note("cut_by_time_cap", log.cut);
    out.note("steal_share_each_window", format!("{steals:?}"));
    out.note("host_samples", log.host_ns.len());
    out.note("host_scale_median", host::scale(&log.host_ns));
    out.note("setup_host_scale", setup_scale);
    out.note("raw_sessions_per_s", sessions_per_s(&log));
    for (name, verb, p) in latencies {
        out.note(&format!("raw_{name}"), verb_ms(verb, p, true).0);
    }
    out.note("raw_setup_s", setup_s);
    let mut host_ns: Vec<f64> = log.host_ns.iter().map(|&ns| ns as f64).collect();
    host_ns.sort_by(f64::total_cmp);
    out.note(
        "host_ns_quartiles",
        format!(
            "[{}, {}, {}]",
            percentile(&host_ns, 25.0),
            percentile(&host_ns, 50.0),
            percentile(&host_ns, 75.0)
        ),
    );
    out.note(
        "samples_present",
        latencies_ms(&log, Verb::Present, true).len(),
    );
    out.note(
        "samples_feedback",
        latencies_ms(&log, Verb::Feedback, true).len(),
    );
    out.note(
        "samples_recommend",
        latencies_ms(&log, Verb::Recommend, true).len(),
    );
    out.note(
        "present_tail_percentile",
        verb_ms(Verb::Present, 99.0, true).1,
    );
    out.note(
        "feedback_tail_percentile",
        verb_ms(Verb::Feedback, 99.0, true).1,
    );
    out.note("setup_s_each", format!("{:?}", setups.secs));
    out.note("failed_ops", failed_ops);
    out.note("reference_mismatches", reference.mismatches);
    out.note("reopen_checked", reopen.map_or(0, |r| r.checked));
    out.note("reopen_mismatches", reopen_mismatches);
    out.note("counters", counters.to_json());
    out.note("warm_up_counters", &setups.warm_ups[0]);
    out.note("counters_repeat", repeat);
    Ok(out)
}

/// The traced run: the same drive with spans around every layer call,
/// then per-layer measurements.  End-to-end metrics never come from here.
pub fn traced(options: &Options) -> Result<Outcome> {
    let mut out = Outcome::default();
    let deadline = || Instant::now() + Duration::from_secs(options.seconds);

    // The same work untraced, traced, and untraced again: the overhead
    // compares the traced rate with the mean of the untraced ones, so the
    // first drive's cold start does not read as tracing cost.  The two
    // untraced drives run the same sessions on fresh systems, so their
    // counter blocks must be the same, as must every set-up's warm-up block.
    let sessions = 0..options.workload.shape().traced_sessions as u64;
    let mut plain_rates = Vec::new();
    let mut plain_blocks = Vec::new();
    let mut warm_ups = Vec::new();
    let mut cut = false;
    let mut plain_drive = |attempt| -> Result<()> {
        let SetUp {
            fleet,
            mut system,
            warm_up,
            ..
        } = set_up(options, attempt)?;
        let (plain, _) = system.drive(&fleet, sessions.clone(), deadline(), None)?;
        plain_rates.push(scaled_sessions_per_s(&plain));
        cut |= plain.cut;
        let dir = system.dir.clone();
        let stopped = system.stop()?;
        remove_dir(dir.as_deref());
        let block = Counters {
            store: stopped.store.stats(),
            serve: stopped.serve,
            retries: stopped.retries,
            digest: check::result_digest(&plain)?,
            ..Counters::default()
        };
        plain_blocks.push(block.to_json());
        warm_ups.push(warm_up);
        Ok(())
    };
    plain_drive(0)?;
    let SetUp {
        fleet,
        mut system,
        warm_up,
        ..
    } = set_up(options, 1)?;
    let shape = fleet.shape;
    let dir = system.dir.clone();
    let (log, tracer) = system.drive(&fleet, sessions.clone(), deadline(), Some(Instant::now()))?;
    let tracer = tracer.expect("a traced drive records spans");
    let spans = breakdown(&tracer.spans);

    // Store: sync, counters, compaction, kill and reopen.  The second
    // untraced drive runs once the traced system is stopped.
    let clock = Instant::now();
    system.sync()?;
    let mut sync_us = clock.elapsed().as_secs_f64() * 1e6;
    let mut stopped = system.stop()?;
    plain_drive(2)?;
    warm_ups.push(warm_up);
    let repeat = all_same(&warm_ups) && (cut || all_same(&plain_blocks));
    if stopped.serve.is_some() {
        // The server synced on shutdown; time the store's own sync.
        let clock = Instant::now();
        stopped.store.sync()?;
        sync_us = clock.elapsed().as_secs_f64() * 1e6;
    }
    let store_stats = stopped.store.stats();
    let bytes_per_event = if dir.is_some() {
        ratio(
            store_stats.bytes_appended as f64,
            store_stats.journal_events as f64,
        )
    } else {
        let (bytes, events) = check::encoded_journal_bytes(&stopped.store, &log)?;
        ratio(bytes as f64, events as f64)
    };
    let clock = Instant::now();
    let compaction = stopped.store.compact()?;
    let compact_s = clock.elapsed().as_secs_f64();
    let mut reference = check::reference_replay(&fleet, &log)?;
    // Read before the reopen check asks the reference for more recommends.
    let reference_search = reference.search_stats(&fleet, Some(Kind::Engine))?;
    let reopen = match dir.as_deref() {
        Some(dir) => check::reopen_check(&shape, dir, stopped.store, &log, &mut reference)?,
        None => {
            let clock = Instant::now();
            let journal = stopped.store.export_journal();
            let rebuilt = SessionStore::from_journal(
                StoreConfig {
                    shards: shape.shards,
                    capacity_per_shard: shape.capacity_per_shard,
                },
                &journal,
            )?;
            check::Reopen {
                open_s: clock.elapsed().as_secs_f64(),
                recovery_replays: rebuilt.stats().recovery_replays,
                ..check::Reopen::default()
            }
        }
    };
    remove_dir(dir.as_deref());

    // Engine: twins of every engine session.
    let engine = layers::engine_twins(&fleet, &log)?;

    // Store op times: the traced drive's store spans, or for the wire a
    // replay against an identical durable store.
    let ops: Vec<_> = log.ops.iter().filter(|op| op.ok).collect();
    let wire = stopped.serve.is_some();
    let (store_us, restore_us, server_self) = if wire {
        let replay_dir = options.out.join(format!("replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&replay_dir);
        let mut store = crate::system::open_store(&shape, Some(&replay_dir))?;
        let replayed = layers::replay(&mut [&mut store], &fleet, &ops)?.remove(0);
        drop(store);
        remove_dir(Some(&replay_dir));
        let wire_us = |verb: Verb| {
            let samples: Vec<f64> = ops
                .iter()
                .filter(|op| op.verb == verb)
                .map(|op| op.ns as f64 / 1e3)
                .collect();
            mean(&samples)
        };
        let store_us: Vec<f64> = Verb::ALL.iter().map(|&v| replayed.mean_us(v)).collect();
        let self_us: Vec<f64> = Verb::ALL
            .iter()
            .map(|&v| wire_us(v) - replayed.mean_with_restore_us(v))
            .collect();
        reference.mismatches += replayed.mismatches;
        (store_us, replayed.restore_us(), self_us)
    } else {
        let store_us = Verb::ALL
            .iter()
            .map(|v| spans.mean_us(&format!("store.{}", v.name())))
            .collect();
        let (self_us, mismatches) = wire_probe(options, &fleet, &log)?;
        reference.mismatches += mismatches;
        (store_us, spans.mean_us("store.restore"), self_us)
    };

    // Baselines: op time by session kind, or a probe when the fleet has none.
    let (em_refit_us, skyline_us) = match (
        layers::kind_op_us(&log, Kind::EmRefit),
        layers::kind_op_us(&log, Kind::Skyline),
    ) {
        (Some(em), Some(sky)) => (em, sky),
        _ => {
            let mut store = crate::system::open_store(&shape, None)?;
            (
                layers::baseline_probe(
                    &mut store,
                    &fleet,
                    2,
                    pkgrec_server::loadgen::session_spec(2),
                )?,
                layers::baseline_probe(
                    &mut store,
                    &fleet,
                    3,
                    pkgrec_server::loadgen::session_spec(3),
                )?,
            )
        }
    };
    let (request_bytes, reply_bytes) = layers::frame_bytes(&fleet, &log)?;
    let spans_path = options
        .out
        .join(format!("spans-{}.jsonl", options.workload.name()));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| pkgrec_core::CoreError::io(e.kind(), e.to_string()))?;

    let failed_ops = log.ops.iter().filter(|op| !op.ok).count();
    out.attempted = (log.ops.len() + reopen.checked) as u64;
    out.failed = (failed_ops + reference.mismatches + reopen.mismatches + engine.mismatches) as u64;
    let counters = Counters {
        store: store_stats,
        search: engine.search,
        samples_reused: Some(engine.samples_reused),
        serve: stopped.serve,
        retries: stopped.retries,
        digest: check::result_digest(&log)?,
    };
    let walls: HashMap<u64, u64> = log.ops.iter().map(|op| (op.op, op.wall_ns)).collect();
    let adds_up = spans.adds_up(&walls);
    // The twins and the reference store replay the engine sessions apart.
    let search_repeat = engine.search == reference_search;
    out.correct = out.failed == 0 && repeat && search_repeat && adds_up;

    let present_us = engine.mean_us(Verb::Present);
    out.metric("engine.present_us", present_us, "us");
    out.metric("engine.feedback_us", engine.mean_us(Verb::Feedback), "us");
    out.metric("engine.recommend_us", engine.mean_us(Verb::Recommend), "us");
    let discovery_us = engine.per_present_us(engine.discovery_ns);
    out.metric("engine.discovery_us", discovery_us, "us");
    out.metric(
        "engine.kernel_us",
        engine.per_present_us(engine.kernel_ns),
        "us",
    );
    out.metric(
        "engine.share.discovery",
        ratio(discovery_us, present_us),
        "ratio",
    );
    out.metric(
        "engine.search.searches",
        engine.search.searches as f64,
        "count",
    );
    out.metric(
        "engine.search.sorted_accesses",
        engine.search.sorted_accesses as f64,
        "count",
    );
    out.metric(
        "engine.search.candidates_created",
        engine.search.candidates_created as f64,
        "count",
    );
    out.metric(
        "engine.search.early_termination_rate",
        engine.search.early_termination_rate(),
        "ratio",
    );
    out.metric(
        "engine.samples_reused_ratio",
        ratio(engine.samples_reused as f64, engine.samples_held as f64),
        "ratio",
    );

    out.metric("baselines.op_us.em_refit", em_refit_us, "us");
    out.metric("baselines.op_us.skyline", skyline_us, "us");
    out.metric(
        "baselines.skyline_build_us",
        layers::skyline_build_us(&fleet)?,
        "us",
    );
    out.metric(
        "baselines.skyline_builds",
        layers::skyline_builds(&log) as f64,
        "count",
    );

    for (verb, us) in Verb::ALL.iter().zip(&store_us) {
        out.metric(&format!("store.op_us.{}", verb.name()), *us, "us");
    }
    out.metric("store.restore_us", restore_us, "us");
    // Hits over hits plus restores, one per op: the explicit restore of the
    // traced drive makes the store count a restored op as a hit as well.
    let touches = log.ops.iter().filter(|op| op.ok && op.verb != Verb::Create);
    let (restored, touched) =
        touches.fold((0, 0), |(r, n), op| (r + usize::from(op.restored), n + 1));
    out.metric(
        "store.hit_ratio",
        ratio((touched - restored) as f64, touched as f64),
        "ratio",
    );
    let s = &store_stats;
    for (name, value) in [
        ("store.restores", s.restores),
        ("store.evictions", s.evictions),
        ("store.snapshots", s.snapshots),
        ("store.eviction_probes", s.eviction_probes),
        ("store.rollbacks", s.rollbacks),
        ("store.journal_events", s.journal_events),
    ] {
        out.metric(name, value as f64, "count");
    }
    out.metric("store.bytes_appended", s.bytes_appended as f64, "B");
    out.metric("store.bytes_per_event", bytes_per_event, "B");
    out.metric("store.group_commits", s.group_commits as f64, "count");
    out.metric("store.segments_written", s.segments_written as f64, "count");
    out.metric("store.sync_us", sync_us, "us");
    out.metric("store.compact_s", compact_s, "s");
    out.metric(
        "store.bytes_reclaimed",
        compaction.bytes_reclaimed as f64,
        "B",
    );
    out.metric("store.open_s", reopen.open_s, "s");
    out.metric(
        "store.recovery_replays",
        reopen.recovery_replays as f64,
        "count",
    );

    for (verb, us) in Verb::ALL.iter().zip(&server_self) {
        out.metric(&format!("server.self_us.{}", verb.name()), *us, "us");
    }
    out.metric("server.frame_bytes.request", request_bytes, "B");
    out.metric("server.frame_bytes.reply", reply_bytes, "B");
    let serve = stopped.serve.unwrap_or_default();
    out.metric("server.timeouts", serve.timeouts as f64, "count");
    out.metric(
        "server.error_responses",
        serve.error_responses as f64,
        "count",
    );
    out.metric("server.retries", stopped.retries as f64, "count");

    out.metric(
        "bench.tracing_overhead",
        1.0 - ratio(scaled_sessions_per_s(&log), mean(&plain_rates)),
        "ratio",
    );
    out.metric(
        "bench.unaccounted_share",
        spans.unaccounted_share(),
        "ratio",
    );

    out.note("sessions", log.completed);
    out.note("available_parallelism", available_parallelism());
    out.note("traced_sessions_per_s", scaled_sessions_per_s(&log));
    out.note("untraced_sessions_per_s", format!("{plain_rates:?}"));
    out.note("spans", tracer.spans.len());
    let span_ns = tracer_ns_per_span();
    out.note("tracer_ns_per_span", span_ns);
    out.note(
        "tracer_cost_share",
        ratio(
            span_ns * tracer.spans.len() as f64,
            log.elapsed.as_nanos() as f64,
        ),
    );
    out.note("spans_file", format!("\"{}\"", spans_path.display()));
    let gaps = spans.wall_gaps(&walls);
    out.note("additivity_tolerance", ADDITIVITY_TOLERANCE);
    out.note("additivity_share", ADDITIVITY_SHARE);
    out.note("additivity_gap_p99", tail(&gaps, 99.0).0);
    out.note("additivity_gap_max", gaps.last().copied().unwrap_or(0.0));
    out.note("adds_up", adds_up);
    out.note("failed_ops", failed_ops);
    out.note("reference_mismatches", reference.mismatches);
    out.note("reopen_mismatches", reopen.mismatches);
    out.note("twin_mismatches", engine.mismatches);
    out.note("counters", counters.to_json());
    out.note("search_repeat", search_repeat);
    out.note("untraced_counters", &plain_blocks[0]);
    out.note("warm_up_counters", &warm_ups[0]);
    out.note(
        "counters_repeat",
        if cut {
            format!(
                "\"warm-ups {}; untraced drives cut by the time cap\"",
                all_same(&warm_ups)
            )
        } else {
            repeat.to_string()
        },
    );
    Ok(out)
}

/// Server self time for an in-process workload: the first sessions' ops
/// replayed over a loopback server and in process, each against a fresh
/// store of the workload's shape; per verb, wire minus in-process µs.
/// Also returns the replays' answer mismatches.
fn wire_probe(options: &Options, fleet: &Fleet, log: &DriveLog) -> Result<(Vec<f64>, usize)> {
    let ops: Vec<_> = log
        .ops
        .iter()
        .filter(|op| op.ok && op.session < WIRE_PROBE_SESSIONS)
        .collect();
    let mut probe = fleet.clone();
    probe.shape.clients = 1;
    let dir = |side: &str| {
        fleet.shape.durable.then(|| {
            options
                .out
                .join(format!("probe-{side}-{}", std::process::id()))
        })
    };
    let mut served = System::open(&probe, dir("wire"))?;
    let mut local = System::open(&probe_local(fleet), dir("local"))?;
    let replayed = layers::replay(&mut [served.target(), local.target()], fleet, &ops);
    tear_down(served)?;
    tear_down(local)?;
    let mut replayed = replayed?;
    let (over_wire, in_process) = (replayed.remove(0), replayed.remove(0));
    let self_us = Verb::ALL
        .iter()
        .map(|&v| over_wire.mean_us(v) - in_process.mean_with_restore_us(v))
        .collect();
    Ok((self_us, over_wire.mismatches + in_process.mismatches))
}

fn probe_local(fleet: &Fleet) -> Fleet {
    let mut local = fleet.clone();
    local.shape.clients = 0;
    local
}

/// What recording one span costs on this machine, ns (open and close of
/// 100 000 spans into a scratch tracer).
fn tracer_ns_per_span() -> f64 {
    const SPANS: u64 = 100_000;
    let mut scratch = Tracer::new(Instant::now());
    let clock = Instant::now();
    for op in 0..SPANS {
        let span = scratch.open("op", None, op);
        scratch.close(span);
    }
    clock.elapsed().as_nanos() as f64 / SPANS as f64
}

/// Cores this process may run on (throughput depends on it).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
